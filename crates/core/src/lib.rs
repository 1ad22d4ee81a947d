//! # The signature tree (SG-tree)
//!
//! A Rust implementation of the index proposed in
//!
//! > Nikos Mamoulis, David W. Cheung, Wang Lian.
//! > *Similarity Search in Sets and Categorical Data Using the Signature
//! > Tree.* ICDE 2003, pp. 75–86.
//!
//! The SG-tree is a **dynamic, height-balanced, disk-based tree over bitmap
//! signatures**, structurally analogous to the R-tree: a leaf entry holds a
//! transaction's signature and its id; a directory entry holds the bitwise
//! OR of all signatures in the subtree below it plus a child pointer. All
//! nodes (except the root) hold between `c` and `C` entries, where `C` is
//! derived from the page size.
//!
//! Because a directory signature *covers* everything below it, branch-and-
//! bound search algorithms from the R-tree world carry over: the crate
//! implements depth-first NN (the paper's Figure 4), best-first (optimal)
//! NN, k-NN, similarity range queries, containment/superset/exact queries,
//! similarity joins and closest-pair queries, under Hamming, Jaccard, Dice
//! and overlap metrics with the fixed-dimensionality refinement of §6 for
//! categorical data.
//!
//! ## Quick example
//!
//! ```
//! use std::sync::Arc;
//! use sg_pager::MemStore;
//! use sg_sig::{Metric, Signature};
//! use sg_tree::{SgTree, TreeConfig};
//!
//! let nbits = 100;
//! let store = Arc::new(MemStore::new(1024));
//! let mut tree = SgTree::create(store, TreeConfig::new(nbits)).unwrap();
//! for (tid, items) in [(0u64, vec![1u32, 2, 3]), (1, vec![2, 3, 4]), (2, vec![50, 60])] {
//!     tree.insert(tid, &Signature::from_items(nbits, &items));
//! }
//! let (hits, _stats) = tree.nn(&Signature::from_items(nbits, &[2, 3]), &Metric::hamming());
//! assert_eq!(hits[0].tid, 0); // {1,2,3} is Hamming-closest to {2,3}
//! ```

mod config;
mod delete;
mod insert;
mod node;
mod split;
mod tree;

pub mod api;
pub mod bulkload;
pub mod cluster;
pub mod health;
pub mod query;
pub mod scan;
pub mod stats;
pub mod treestats;

pub use api::{CancelFlag, QueryOptions, QueryOutput, QueryRequest, QueryResponse, SetIndex};
pub use config::{ChooseSubtree, SplitPolicy, TreeConfig};
pub use health::{Finding, HealthReport, LevelHealth, Severity};
pub use node::{Entry, LaneBuf, Node, QueryProbe, SoaNode};
pub use query::{JoinPair, Neighbor, NnIter, SharedBound};
pub use scan::ScanIndex;
pub use sg_obs::{IndexObs, QueryTrace, Registry};
pub use sg_pager::{SgError, SgResult};
pub use stats::QueryStats;
pub use tree::SgTree;
pub use treestats::{LevelStats, TreeStats};

/// Transaction identifier stored in leaf entries.
pub type Tid = u64;

// Compile-time thread-safety audit: queries take `&self`, so the sharded
// executor (and any other fan-out layer) shares trees across worker
// threads. These assertions fail the build — instead of silently
// un-`Sync`-ing downstream crates — if a non-thread-safe field ever
// sneaks into the query path.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SgTree>();
    assert_send_sync::<ScanIndex>();
    assert_send_sync::<SharedBound>();
    assert_send_sync::<Neighbor>();
    assert_send_sync::<QueryStats>();
};
