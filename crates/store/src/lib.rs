//! # sg-store — mmap'd copy-on-write page store with snapshot reads
//!
//! The durable storage layer under the SG-tree, and the only one: every
//! durable executor shard keeps its tree in a memory-mapped,
//! copy-on-write page file in the style of LMDB / jammdb (see SNIPPETS.md
//! snippet 1), with the write-ahead log from `crates/pager` on top.
//! Memory-only trees use [`MemStore`](sg_pager::MemStore) instead.
//!
//! * **[`CowStore`]** implements [`sg_pager::PageStore`], so an
//!   [`SgTree`](../sg_tree/struct.SgTree.html) persists through it
//!   unchanged — node pages land in the file as they are written.
//! * **Snapshot-isolated reads.** [`CowStore::publish`] freezes the
//!   current page mapping; [`CowStore::snapshot`] returns a pinned,
//!   lock-free read-only [`Snapshot`] view whose reads never touch the
//!   writer's locks.
//! * **O(tail) restart.** [`CowStore::commit`] makes the current state
//!   durable with a dual-meta-page flip (one flushed CRC'd record is the
//!   whole commit) and records the WAL watermark it covers; on reopen,
//!   only WAL records past that watermark need replaying, so restart
//!   cost is proportional to the un-checkpointed tail, not history.
//!
//! The [`meta`], [`freelist`] and [`table`] modules are pure in-memory /
//! byte-level logic whose tests run under Miri; [`pagefile`] holds the
//! actual mmap segments (via the vendored `mmap` shim).

pub mod freelist;
pub mod meta;
pub mod pagefile;
pub mod table;

mod store;

pub use store::{CowStore, OpenReport, Snapshot, StoreStats};

// The store tests exercise real files and mmap segments, which Miri's
// isolation cannot run; `cargo miri test -p sg-store` covers the pure
// `meta`/`freelist`/`table` modules.
#[cfg(all(test, not(miri)))]
mod tests;
