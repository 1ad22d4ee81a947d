//! End-to-end ingest smoke test over real sockets: a client streams
//! inserts (interleaved with queries reading its own writes) into a
//! server backed by a *durable* executor, the server is dropped without a
//! checkpoint, and a reopen of the same directory must replay every
//! acknowledged write from the WAL — the network analogue of
//! `tests/crash_recovery.rs`, minus the SIGKILL (which needs a separate
//! process and lives there and in CI's `ingest-smoke` job).

use sg_exec::{DurabilityConfig, ExecConfig, Partitioner, ShardedExecutor};
use sg_obs::Registry;
use sg_serve::{Client, MetricName, Response, ServeConfig, Server};
use std::sync::Arc;

const NBITS: u32 = 128;
const SHARDS: usize = 2;
const ROWS: u64 = 400;

fn items_for(tid: u64) -> Vec<u32> {
    // Clustered (a shared pair per group of 16) plus a base-48 encoding
    // of the tid itself, so rows overlap heavily yet no two rows share a
    // signature: exact-match and distance-0 probes are unambiguous.
    vec![
        (tid % 16) as u32,
        16 + (tid % 16) as u32,
        32 + (tid % 48) as u32,
        80 + (tid / 48) as u32,
    ]
}

fn open_exec(dir: &std::path::Path) -> ShardedExecutor {
    ShardedExecutor::open_durable(
        NBITS,
        &ExecConfig {
            shards: SHARDS,
            partitioner: Partitioner::RoundRobin,
            ..ExecConfig::default()
        },
        &DurabilityConfig::mmap(dir),
    )
    .expect("open durable executor")
}

#[test]
fn streamed_inserts_survive_reopen_and_are_readable_mid_stream() {
    let dir = std::env::temp_dir().join(format!("sg-ingest-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 1: serve an empty durable index, stream writes over TCP.
    {
        let exec = Arc::new(open_exec(&dir));
        assert!(exec.is_empty());
        let registry = Arc::new(Registry::new());
        let obs = exec.register_ingest_obs(&registry, "ingest");
        let server = Server::start(
            Arc::clone(&exec),
            registry,
            ServeConfig {
                admin_addr: None,
                ..ServeConfig::default()
            },
        )
        .expect("start server");
        let mut client = Client::connect(server.local_addr()).expect("connect");

        let mut acked = 0u64;
        for tid in 0..ROWS {
            match client.insert(tid, &items_for(tid), None).expect("insert") {
                Response::Ack { applied, lsn, .. } => {
                    assert!(applied, "fresh tid {tid} must apply");
                    assert!(lsn.is_some(), "durable ack must carry a WAL lsn");
                    acked += 1;
                }
                other => panic!("insert got {other:?}"),
            }
            // Read-your-writes through the same micro-batching pipeline:
            // a k-NN probe for the row just written must find it at
            // distance zero.
            if tid % 50 == 0 {
                match client
                    .knn(&items_for(tid), 1, MetricName::Hamming, None)
                    .expect("knn")
                {
                    Response::Neighbors { pairs, .. } => {
                        assert_eq!(pairs.first().map(|&(_, t)| t), Some(tid));
                        assert_eq!(pairs.first().map(|&(d, _)| d), Some(0.0));
                    }
                    other => panic!("knn got {other:?}"),
                }
            }
        }
        // Duplicate insert: refused as a structured error, not applied.
        match client.insert(0, &items_for(0), None).expect("dup insert") {
            Response::Error { .. } => {}
            other => panic!("duplicate insert got {other:?}"),
        }
        // Delete + re-insert round trip.
        match client.delete(7, None).expect("delete") {
            Response::Ack { applied, .. } => assert!(applied),
            other => panic!("delete got {other:?}"),
        }
        match client.upsert(7, &items_for(7), None).expect("upsert") {
            Response::Ack { applied, .. } => assert!(applied),
            other => panic!("upsert got {other:?}"),
        }

        assert_eq!(acked, ROWS);
        // ROWS inserts + the delete + the upsert acked; the duplicate
        // insert was rejected before touching the WAL.
        assert_eq!(obs.writes.get(), ROWS + 2);
        assert_eq!(obs.rejected.get(), 1);
        drop(client);
        server.join();
        // No checkpoint: recovery must come from the WAL alone.
    }

    // Phase 2: reopen the directory; every acked write must be there.
    let exec = open_exec(&dir);
    let report = exec.recovery().expect("reopen has a recovery report");
    assert!(report.wal_records >= ROWS, "WAL lost acked writes");
    assert_eq!(exec.len(), ROWS);
    for tid in (0..ROWS).step_by(37) {
        let q = sg_sig::Signature::from_items(NBITS, &items_for(tid));
        assert!(
            exec.exact(&q).0.contains(&tid),
            "tid {tid} missing after reopen"
        );
    }
    drop(exec);
    let _ = std::fs::remove_dir_all(&dir);
}
