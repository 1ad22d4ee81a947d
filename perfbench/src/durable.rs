//! The durable side of a run: a `StorageMode::Mmap` executor with
//! `FsyncPolicy::Always`, its final checkpoint, a fixed tail of writes,
//! and the restart that must replay exactly that tail.

use crate::check;
use crate::load::{Model, Traffic};
use crate::workload::SHARDS;
use sg_exec::{DurabilityConfig, ExecConfig, ShardedExecutor, WriteOp};
use sg_serve::proto::Request;
use sg_sig::Signature;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Writes applied after the final checkpoint; the restart replays
/// exactly these.
pub const TAIL: u64 = 64;

/// Request stream of the tail (disjoint from the load phases' streams).
const TAIL_STREAM: u64 = 0x7A11;

/// Reads re-run in-process on the reopened executor.
pub const CHECK_READS: u64 = 32;

/// The executor configuration of every durable shard set.
fn config(pool_frames: usize) -> ExecConfig {
    ExecConfig {
        shards: SHARDS,
        pool_frames,
        ..ExecConfig::default()
    }
}

/// Opens a durable executor over an empty `dir`.
pub fn open_fresh(dir: &Path, nbits: u32, pool_frames: usize) -> ShardedExecutor {
    let _ = std::fs::remove_dir_all(dir);
    open(dir, nbits, pool_frames)
}

fn open(dir: &Path, nbits: u32, pool_frames: usize) -> ShardedExecutor {
    ShardedExecutor::open_durable(nbits, &config(pool_frames), &DurabilityConfig::mmap(dir))
        .unwrap_or_else(|e| panic!("opening the durable executor in {dir:?}: {e}"))
}

/// Loads `rows` through `write_batch` and checkpoints, so the timed
/// phase starts from committed pages and an empty WAL.
pub fn preload(exec: &ShardedExecutor, rows: &Model) {
    let mut tids: Vec<u64> = rows.keys().copied().collect();
    tids.sort_unstable();
    for chunk in tids.chunks(2048) {
        let ops = chunk
            .iter()
            .map(|&tid| WriteOp::Insert {
                tid,
                sig: Signature::from_items(exec.nbits(), &rows[&tid]),
            })
            .collect();
        for r in exec.write_batch(ops) {
            r.expect("preload insert");
        }
    }
    exec.checkpoint().expect("preload checkpoint");
}

/// Bytes the files in `dir` take on disk. The page file grows in sparse
/// 4 MiB segments, so its length would move in steps that size; its
/// allocated blocks count only the pages written.
fn dir_bytes(dir: &Path) -> u64 {
    use std::os::unix::fs::MetadataExt;
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.blocks() * 512)
                .sum()
        })
        .unwrap_or(0)
}

/// What closing, restarting and checking a durable executor measured.
#[derive(Debug, Default)]
pub struct Finish {
    /// The final checkpoint, ms.
    pub checkpoint_ms: f64,
    /// Data-directory bytes per live row after the final checkpoint.
    pub disk_bytes_per_row: f64,
    /// Page-store pages mapped, summed over shards, after the tail.
    pub pages_mapped: u64,
    /// Pages dirtied since the last commit, summed over shards, after
    /// the tail.
    pub pages_dirty: u64,
    /// `open_durable` wall time of the reopen, ms.
    pub restart_ms: f64,
    /// Replay time the reopen reported, summed over shards, ms.
    pub replay_ms: f64,
    /// WAL records the reopen replayed.
    pub replay_records: u64,
    /// Tail writes applied in-process.
    pub writes: u64,
    /// Failed checks: tail writes refused, a reopen replaying anything
    /// but the tail, a row count off the model, reads off the oracle.
    pub failures: Vec<String>,
    /// Reads compared against the oracle after the restart.
    pub checked: u64,
}

/// The final checkpoint, a fixed tail of [`TAIL`] writes (the load
/// phases' write mix, applied in-process), close, and one timed reopen
/// that must replay exactly the tail. Then the durability check. `exec`
/// must be the only handle left (server joined, checkpointer stopped);
/// `model` must hold every acked write.
pub fn finish(
    exec: Arc<ShardedExecutor>,
    dir: &Path,
    pool_frames: usize,
    model: Model,
    traffic: Traffic<'_>,
) -> Finish {
    let mut out = Finish::default();
    let exec = Arc::try_unwrap(exec)
        .unwrap_or_else(|_| panic!("the durable executor is still shared at shutdown"));
    let nbits = exec.nbits();
    let t = Instant::now();
    exec.checkpoint().expect("final checkpoint");
    out.checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    out.disk_bytes_per_row = dir_bytes(dir) as f64 / exec.len().max(1) as f64;

    let model = Mutex::new(model);
    let tail = Traffic {
        conns: 1,
        write_every: 1,
        model: Some(&model),
        sample: None,
        stream: TAIL_STREAM,
        ..traffic
    };
    let mut st = tail.conn(0);
    for w in 0..TAIL {
        let (req, op) = tail.next(&mut st);
        out.writes += 1;
        if !tail.write_in_process(&exec, &mut st, op).0 {
            out.failures
                .push(format!("tail write {w} ({}) refused", req.type_str()));
        }
    }
    for s in exec.store_stats() {
        out.pages_mapped += s.pages_mapped;
        out.pages_dirty += s.dirty_since_commit.max(0) as u64;
    }
    drop(exec);

    let t = Instant::now();
    let exec = open(dir, nbits, pool_frames);
    out.restart_ms = t.elapsed().as_secs_f64() * 1e3;
    let rec = exec
        .recovery()
        .expect("a durable executor reports its recovery");
    out.replay_ms = rec.replay_ns.iter().sum::<u64>() as f64 / 1e6;
    out.replay_records = rec.wal_records;
    if rec.wal_records != TAIL {
        out.failures.push(format!(
            "reopen replayed {} WAL records, expected the {TAIL}-write tail",
            rec.wal_records
        ));
    }
    let model = model.into_inner().expect("model lock");
    if exec.len() != model.len() as u64 {
        out.failures.push(format!(
            "reopened executor holds {} rows, the acked writes leave {}",
            exec.len(),
            model.len()
        ));
    }
    let oracle = check::oracle(nbits, model.iter().map(|(t, i)| (*t, i)));
    let reads: Vec<Request> = (0..CHECK_READS)
        .map(|i| traffic.spec.read(traffic.queries, (11 << 32) + i, i + 1))
        .collect();
    out.checked = reads.len() as u64;
    let bad = check::exec_mismatches(&exec, &oracle, &reads);
    if bad > 0 {
        out.failures.push(format!(
            "{bad} of {} reads after restart differ from the oracle",
            reads.len()
        ));
    }
    drop(exec);
    let _ = std::fs::remove_dir_all(dir);
    out
}

/// A fresh, unique data directory under `root`.
pub fn data_dir(root: &Path, tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    root.join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}
