//! Paged storage substrate for the SG-tree and SG-table.
//!
//! The paper evaluates both indexes as *disk-based paginated structures*
//! and reports **random I/Os** (page reads) as a primary cost metric. This
//! crate provides that substrate:
//!
//! * [`PageStore`] — the backing store abstraction: allocate / free / read /
//!   write fixed-size pages, addressed by [`PageId`].
//! * [`MemStore`] — an in-memory store for tests, CPU-bound experiments
//!   and memory-only executors. The durable, file-backed store is
//!   `sg_store::CowStore`, an mmap'd copy-on-write page file.
//! * [`BufferPool`] — an LRU page cache over any store. Cache misses are
//!   counted as random I/Os; the experiment harness resets the counters
//!   around each query and can drop the cache to emulate the paper's
//!   cold-buffer measurements.
//!
//! All counters live in [`IoStats`] and are cheap relaxed atomics, so query
//! code can run unchanged whether or not an experiment is collecting them.

mod buffer;
mod error;
mod stats;
mod store;
mod wal;

pub use buffer::BufferPool;
pub use error::{SgError, SgResult};
pub use stats::{IoSnapshot, IoStats};
pub use store::{MemStore, PageStore};
pub use wal::{crc32, FsyncPolicy, Replay, Wal, WalOp, WalRecord};

/// Identifier of a page within a store. Dense, starting at 0; freed ids are
/// recycled by the stores' free lists.
pub type PageId = u64;

/// The default page size used across the workspace (bytes).
///
/// The paper's setup ("node = disk page", capacities of several tens of
/// entries with several-hundred-bit signatures) corresponds to the classic
/// 4 KiB page.
pub const DEFAULT_PAGE_SIZE: usize = 4096;
