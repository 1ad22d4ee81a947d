//! Helper binary for `tests/crash_recovery.rs`: opens a durable
//! [`ShardedExecutor`] and applies a deterministic op stream one write at
//! a time, printing `ack <index> <lsn>` to stdout after each acknowledged
//! (WAL-fsynced) op. The parent test reads those lines, SIGKILLs this
//! process at an arbitrary point, reopens the directory, and checks the
//! recovered state against the acked-prefix oracle.
//!
//! ```text
//! crash_ingest_child DIR NBITS SHARDS N_OPS SEED CKPT_EVERY
//! ```
//!
//! `CKPT_EVERY` > 0 checkpoints after every that-many acked ops, so a
//! SIGKILL can land *during* a checkpoint — the meta-flip atomicity the
//! recovery tests exist to probe.
//!
//! The op stream for `(NBITS, N_OPS, SEED)` is shared with the parent via
//! [`sg_bench::workloads::crash_ops`], so both sides agree byte-for-byte
//! on what op `i` is.

use sg_bench::workloads::crash_ops;
use sg_exec::{DurabilityConfig, ExecConfig, Partitioner, ShardedExecutor};
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() != 6 {
        eprintln!("usage: crash_ingest_child DIR NBITS SHARDS N_OPS SEED CKPT_EVERY");
        std::process::exit(2);
    }
    let dir = &args[0];
    let nbits: u32 = args[1].parse().expect("NBITS");
    let shards: usize = args[2].parse().expect("SHARDS");
    let n_ops: usize = args[3].parse().expect("N_OPS");
    let seed: u64 = args[4].parse().expect("SEED");
    let ckpt_every: usize = args[5].parse().expect("CKPT_EVERY");

    let exec = ShardedExecutor::open_durable(
        nbits,
        &ExecConfig {
            shards,
            partitioner: Partitioner::RoundRobin,
            ..ExecConfig::default()
        },
        &DurabilityConfig::mmap(dir),
    )
    .expect("open durable executor");

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for (i, op) in crash_ops(nbits, n_ops, seed).into_iter().enumerate() {
        // An op the oracle knows is a no-op (duplicate insert, delete of
        // an absent tid) still acks with `applied: false`; only hard
        // errors abort the stream.
        let ack = exec.write_batch(vec![op]).pop().unwrap().expect("write op");
        // The ack line is the durability promise the parent holds us to:
        // it must not be emitted before the WAL fsync (write_batch has
        // already synced by the time it returns).
        writeln!(out, "ack {i} {}", ack.lsn.unwrap_or(0)).expect("stdout");
        out.flush().expect("stdout flush");
        if ckpt_every > 0 && (i + 1) % ckpt_every == 0 {
            // Checkpoint *after* the ack is on the wire so the parent can
            // aim its SIGKILL at a window where a checkpoint is likely
            // in flight.
            exec.checkpoint().expect("checkpoint");
        }
    }
}
