//! # sg-exec — sharded parallel query execution for the SG-tree
//!
//! The paper's SG-tree ([`sg_tree::SgTree`]) answers one query on one
//! tree. This crate scales that out: the dataset is partitioned across
//! `K` independent shards (each its own SG-tree over its own page store
//! and buffer pool), and every query fans out over a fixed pool of worker
//! threads, one task per shard, with the per-shard answers merged into
//! the **canonical global answer** — byte-identical to what a single tree
//! over the whole dataset returns.
//!
//! Key pieces:
//!
//! * [`Partitioner`] — round-robin or greedy signature clustering; both
//!   deterministic and complete (every tid in exactly one shard).
//! * [`ShardedExecutor`] — build once, query from any thread. Supports
//!   containment (`containing` / `contained_in` / `exact`), similarity
//!   `range`, and `knn`.
//! * k-NN shards cooperate through [`sg_tree::SharedBound`]: each shard
//!   publishes its local k-th-best distance into a lock-free global
//!   bound, so one shard's good neighbors prune another shard's search.
//! * [`ShardedExecutor::execute_batch`] — pipeline many heterogeneous
//!   [`QueryRequest`]s through the pool at once; merges run on whichever
//!   worker finishes a query's last shard. [`QueryOptions::traced`] asks
//!   any query for an EXPLAIN trace whose children are the per-shard
//!   traces ([`sg_obs::QueryTrace::children`]).
//! * **Live writes** — [`ShardedExecutor::insert`] / `delete` / `upsert`
//!   route to one shard by tid ([`Partitioner::route`]) behind a
//!   per-shard `RwLock`, so queries keep running against the other
//!   shards while a writer mutates;
//!   [`ShardedExecutor::write_batch`] group-commits a mixed batch.
//! * **Durability** — [`ShardedExecutor::open_durable`] puts a CRC-framed
//!   write-ahead log over an mmap'd copy-on-write page store (`sg_store`)
//!   under every shard ([`DurabilityConfig`]): writes are logged and
//!   fsynced *before* they are applied and acknowledged, checkpoints are
//!   a single meta-page flip, and reopening maps the committed pages and
//!   replays only the WAL tail back to the last acknowledged write
//!   ([`ShardedExecutor::recovery`]).
//!
//! ## Quick example
//!
//! ```
//! use sg_exec::{ExecConfig, Partitioner, QueryOptions, QueryOutput, QueryRequest,
//!               ShardedExecutor};
//! use sg_sig::{Metric, Signature};
//!
//! let nbits = 64;
//! let data: Vec<(u64, Signature)> = (0..100)
//!     .map(|tid| (tid, Signature::from_items(nbits, &[(tid % 16) as u32, 40])))
//!     .collect();
//! let exec = ShardedExecutor::build(
//!     nbits,
//!     &data,
//!     &ExecConfig { shards: 4, partitioner: Partitioner::RoundRobin, ..ExecConfig::default() },
//! )
//! .unwrap();
//! // Unified query surface: one request enum, one response struct.
//! let resp = exec
//!     .query(
//!         &QueryRequest::Knn {
//!             q: Signature::from_items(nbits, &[3, 40]),
//!             k: 5,
//!             metric: Metric::hamming(),
//!         },
//!         &QueryOptions::default(),
//!     )
//!     .unwrap();
//! match &resp.output {
//!     QueryOutput::Neighbors(hits) => assert_eq!(hits.len(), 5),
//!     other => panic!("unexpected output: {other:?}"),
//! }
//! assert_eq!(resp.per_shard.len(), 4);
//! // The executor is live: writes land while readers keep going.
//! let ack = exec.insert(100, &Signature::from_items(nbits, &[9, 40])).unwrap();
//! assert!(ack.applied);
//! assert_eq!(exec.len(), 101);
//! ```

mod executor;
mod merge;
mod obs;
mod partition;
mod pool;
mod shard;

pub use executor::{Checkpointer, ExecConfig, ShardedExecutor};
pub use merge::{merge_knn, merge_range, merge_tids, ExecStats};
pub use obs::ExecObs;
pub use partition::Partitioner;
pub use pool::ThreadPool;
pub use sg_pager::FsyncPolicy;
pub use shard::{DurabilityConfig, RecoveryReport, WriteAck, WriteOp};

// The unified query surface (and its cancellation flag, which used to be
// defined here) comes from `sg_tree`; re-exported so executor callers need
// only this crate.
pub use sg_tree::{
    CancelFlag, Finding, HealthReport, LevelHealth, QueryOptions, QueryOutput, QueryRequest,
    QueryResponse, SetIndex, Severity, SgError, SgResult,
};
