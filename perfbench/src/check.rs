//! Answer checks against the linear-scan oracle.

use crate::workload::{to_query, to_response};
use sg_exec::{QueryOptions, ShardedExecutor};
use sg_pager::MemStore;
use sg_serve::proto::{encode_response, Request, Response};
use sg_sig::Signature;
use sg_tree::ScanIndex;
use std::sync::Arc;

/// The linear-scan oracle over `rows` (tid, items).
pub fn oracle<'a>(nbits: u32, rows: impl IntoIterator<Item = (u64, &'a Vec<u32>)>) -> ScanIndex {
    ScanIndex::build(
        Arc::new(MemStore::new(4096)),
        nbits,
        1 << 16,
        rows.into_iter()
            .map(|(tid, items)| (tid, Signature::from_items(nbits, items))),
    )
}

/// What the oracle says the server should have answered to `req`.
fn expected(oracle: &ScanIndex, req: &Request) -> Response {
    let q = to_query(oracle.nbits(), req);
    let out = oracle
        .query(&q, &QueryOptions::default())
        .expect("the scan oracle answers every read kind")
        .output;
    to_response(req.id(), out)
}

/// Deliberately breaks one answer, so a run can prove the check bites.
pub fn corrupt(resp: &mut Response) {
    match resp {
        Response::Neighbors { pairs, .. } => pairs.push((0.0, u64::MAX)),
        Response::Tids { tids, .. } => tids.push(u64::MAX),
        Response::Ack { applied, .. } => *applied = !*applied,
        Response::Error { message, .. } => message.push('!'),
    }
}

/// Counts samples whose encoded response differs from the oracle's by a
/// single byte.
pub fn mismatches(oracle: &ScanIndex, samples: &[(Request, Response)]) -> usize {
    samples
        .iter()
        .filter(|(req, got)| encode_response(got) != encode_response(&expected(oracle, req)))
        .count()
}

/// Counts reads whose in-process answer from `exec` differs from the
/// oracle's, encoded as the wire would carry them.
pub fn exec_mismatches(exec: &ShardedExecutor, oracle: &ScanIndex, reads: &[Request]) -> usize {
    reads
        .iter()
        .filter(|req| {
            let q = to_query(exec.nbits(), req);
            let got = match exec.query(&q, &QueryOptions::default()) {
                Ok(r) => to_response(req.id(), r.output),
                Err(_) => return true,
            };
            encode_response(&got) != encode_response(&expected(oracle, req))
        })
        .count()
}
