//! Crash-recovery differential test: a child process
//! (`crash_ingest_child`) streams a deterministic op mix into a durable
//! [`ShardedExecutor`], printing an `ack` line only after each op's WAL
//! fsync. The parent SIGKILLs it at an arbitrary point, reopens the
//! directory in-process, and holds recovery to the **acked-prefix
//! oracle**:
//!
//! * every acked op must be reflected in the recovered state, and
//! * the recovered state must equal `apply(ops[..k])` for exactly one
//!   `k >= acks_read` — a *prefix*: an op logged-but-unacked at the kill
//!   may legitimately survive, but nothing may be applied out of order or
//!   half-applied.
//!
//! Once `k` is pinned, the recovered index must answer queries
//! byte-identically to a fresh in-memory SG-tree built from that prefix,
//! and resuming the suffix `ops[k..]` against the recovered executor must
//! land exactly where an uninterrupted run would have.

use sg_bench::workloads::crash_ops;
use sg_exec::{DurabilityConfig, ExecConfig, Partitioner, ShardedExecutor, WriteOp};
use sg_pager::MemStore;
use sg_sig::{Metric, Signature};
use sg_tree::{SgTree, Tid, TreeConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::Arc;

const NBITS: u32 = 256;
const SHARDS: usize = 3;
const N_OPS: usize = 300;
const SEED: u64 = 0xC8A5_4EC0;

/// The oracle state after applying `ops[..k]` to an empty index.
fn oracle_state(ops: &[WriteOp], k: usize) -> BTreeMap<Tid, Signature> {
    let mut state = BTreeMap::new();
    for op in &ops[..k] {
        match op {
            WriteOp::Insert { tid, sig } | WriteOp::Upsert { tid, sig } => {
                state.insert(*tid, sig.clone());
            }
            WriteOp::Delete { tid } => {
                state.remove(tid);
            }
        }
    }
    state
}

/// Every tid the recovered executor holds, via containment in the
/// all-ones signature (every set is a subset of the full universe).
fn all_tids(exec: &ShardedExecutor) -> Vec<Tid> {
    let universe: Vec<u32> = (0..NBITS).collect();
    let full = Signature::from_items(NBITS, &universe);
    let (mut tids, _) = exec.contained_in(&full);
    tids.sort_unstable();
    tids
}

/// True iff the recovered executor's contents equal the oracle map:
/// same tid set, and each tid's stored signature is byte-equal to the
/// oracle's (checked through exact-match queries).
fn state_matches(exec: &ShardedExecutor, oracle: &BTreeMap<Tid, Signature>) -> bool {
    if all_tids(exec) != oracle.keys().copied().collect::<Vec<_>>() {
        return false;
    }
    oracle
        .iter()
        .all(|(tid, sig)| exec.exact(sig).0.contains(tid))
}

/// Runs the child until `kill_after_acks` ack lines arrive, SIGKILLs it,
/// and returns how many acks were actually read (the pipe may hold a few
/// more than the trigger count — all of them count as acknowledged).
fn run_child_and_kill(
    dir: &std::path::Path,
    kill_after_acks: usize,
    ckpt_every: usize,
    seed: u64,
) -> usize {
    let mut child = Command::new(env!("CARGO_BIN_EXE_crash_ingest_child"))
        .args([
            dir.to_str().unwrap(),
            &NBITS.to_string(),
            &SHARDS.to_string(),
            &N_OPS.to_string(),
            &seed.to_string(),
            &ckpt_every.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn crash_ingest_child");
    let stdout = child.stdout.take().unwrap();
    let mut acks = 0usize;
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("child stdout");
        assert!(
            line.starts_with("ack "),
            "unexpected child output: {line:?}"
        );
        acks += 1;
        if acks == kill_after_acks {
            // SIGKILL: no destructors, no WAL truncation, no flush — the
            // on-disk state is whatever the fsyncs left behind.
            child.kill().expect("kill child");
        }
    }
    let _ = child.wait();
    acks
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sg-crash-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn reopen(dir: &std::path::Path) -> ShardedExecutor {
    ShardedExecutor::open_durable(
        NBITS,
        &ExecConfig {
            shards: SHARDS,
            partitioner: Partitioner::RoundRobin,
            ..ExecConfig::default()
        },
        &DurabilityConfig::mmap(dir),
    )
    .expect("reopen durable executor")
}

/// The shards live in the mmap'd copy-on-write page store: a SIGKILL
/// leaves an arbitrary mix of committed pages and WAL tail, and recovery
/// must still land on exactly one acked prefix.
#[test]
fn sigkilled_mmap_ingest_recovers_exactly_the_acked_prefix() {
    let ops = crash_ops(NBITS, N_OPS, SEED);
    // Three kill points: early (mostly empty WAL), mid-stream, and late
    // (deletes and upserts in the tail are in play).
    for (round, kill_after) in [20usize, 120, 260].into_iter().enumerate() {
        let dir = fresh_dir(&format!("mmap-prefix-{round}"));
        let acked = run_child_and_kill(&dir, kill_after, 0, SEED);
        assert!(acked >= kill_after, "read fewer acks than the trigger");

        let exec = reopen(&dir);
        let report = exec.recovery().expect("durable reopen has a report");
        assert!(
            report.replayed > 0,
            "nothing replayed after {acked} acked ops"
        );

        // Pin k: the unique prefix length whose oracle state matches.
        let k = (acked..=N_OPS.min(acked + 64))
            .find(|&k| state_matches(&exec, &oracle_state(&ops, k)))
            .unwrap_or_else(|| {
                panic!("recovered state matches no acked-prefix oracle (acked={acked})")
            });
        let oracle = oracle_state(&ops, k);
        assert_eq!(exec.len(), oracle.len() as u64);

        // Byte-identical answers: a fresh in-memory SG-tree over the same
        // prefix must agree with the recovered executor on k-NN, range,
        // and containment — distances compared by bit pattern.
        let store = Arc::new(MemStore::new(4096));
        let mut tree = SgTree::create(store, TreeConfig::new(NBITS)).expect("oracle tree");
        for (tid, sig) in &oracle {
            tree.insert(*tid, sig);
        }
        let m = Metric::jaccard();
        for probe in 0..8u64 {
            let q = match ops[probe as usize % ops.len()].signature() {
                Some(sig) => sig.clone(),
                None => continue,
            };
            let (want_knn, _) = tree.knn(&q, 10, &m);
            let (got_knn, _) = exec.knn(&q, 10, &m);
            assert_eq!(want_knn.len(), got_knn.len());
            for (w, g) in want_knn.iter().zip(&got_knn) {
                assert_eq!(w.tid, g.tid, "k-NN tid diverged after recovery");
                assert_eq!(
                    w.dist.to_bits(),
                    g.dist.to_bits(),
                    "k-NN distance not byte-identical after recovery"
                );
            }
            let (mut want_in, _) = tree.containing(&q);
            let (mut got_in, _) = exec.containing(&q);
            want_in.sort_unstable();
            got_in.sort_unstable();
            assert_eq!(want_in, got_in, "containment diverged after recovery");
        }

        // Resume the suffix on the recovered executor: the final state
        // must be exactly where an uninterrupted run would have landed.
        for ack in exec.write_batch(ops[k..].to_vec()) {
            ack.expect("suffix op after recovery");
        }
        assert!(
            state_matches(&exec, &oracle_state(&ops, N_OPS)),
            "resumed run diverged from the uninterrupted oracle"
        );

        drop(exec);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// After a commit (one meta-page flip per shard) only the WAL tail
/// replays, and the recovered state is byte-exact.
#[test]
fn mmap_checkpoint_then_crash_replays_only_the_wal_suffix() {
    let ops = crash_ops(NBITS, N_OPS, SEED ^ 2);
    let dir = fresh_dir("mmap-ckpt");

    let exec = reopen(&dir);
    for ack in exec.write_batch(ops[..200].to_vec()) {
        ack.expect("prefix op");
    }
    exec.checkpoint().expect("checkpoint");
    for ack in exec.write_batch(ops[200..].to_vec()) {
        ack.expect("suffix op");
    }
    drop(exec);

    let exec = reopen(&dir);
    let report = exec.recovery().expect("durable reopen has a report");
    assert!(
        report.wal_records <= (N_OPS - 200) as u64,
        "commit did not truncate the WAL (wal_records={})",
        report.wal_records
    );
    assert!(
        report.snapshot_entries > 0,
        "the committed page store restored nothing"
    );
    assert!(
        state_matches(&exec, &oracle_state(&ops, N_OPS)),
        "post-commit recovery lost or duplicated ops"
    );
    drop(exec);
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGKILL aimed at in-flight checkpoints: the child commits the page
/// store after every 8th acked op, so kills at arbitrary ack counts land
/// before, during, and after meta-page flips. Whatever the kill hits,
/// the dual-meta-slot scheme must leave a valid commit behind (the flip
/// is a single CRC'd slot write — a torn one falls back to the previous
/// slot, whose WAL suffix is still intact), and recovery must equal an
/// acked-prefix oracle exactly.
#[test]
fn sigkill_during_mmap_checkpoint_keeps_the_meta_flip_atomic() {
    let ops = crash_ops(NBITS, N_OPS, SEED ^ 3);
    for (round, kill_after) in [17usize, 64, 129, 248].into_iter().enumerate() {
        let dir = fresh_dir(&format!("mmap-flip-{round}"));
        let acked = run_child_and_kill(&dir, kill_after, 8, SEED ^ 3);
        assert!(acked >= kill_after, "read fewer acks than the trigger");

        // The open itself is the first assertion: a torn meta slot that
        // decoded as valid would corrupt the tree and fail validation
        // (or panic) here.
        let exec = reopen(&dir);
        let k = (acked..=N_OPS.min(acked + 64))
            .find(|&k| state_matches(&exec, &oracle_state(&ops, k)))
            .unwrap_or_else(|| {
                panic!("recovered state matches no acked-prefix oracle (acked={acked})")
            });

        // Resume the suffix: the recovered store must keep working as a
        // write target, not just as a readable artifact.
        for ack in exec.write_batch(ops[k..].to_vec()) {
            ack.expect("suffix op after recovery");
        }
        assert!(
            state_matches(&exec, &oracle_state(&ops, N_OPS)),
            "resumed run diverged from the uninterrupted oracle"
        );
        drop(exec);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
