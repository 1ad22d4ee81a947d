//! Query processing on the SG-tree (§4): branch-and-bound similarity
//! search adapted from R-tree algorithms, plus the containment queries of
//! §3 and the join/closest-pair queries of §4.2.
//!
//! Every public query returns its result together with a [`QueryStats`]
//! describing the paper's cost metrics for that call.

mod bestfirst;
mod containment;
mod dfs;
mod incremental;
mod join;

#[cfg(test)]
mod tests;

pub use incremental::NnIter;
pub use join::JoinPair;

use crate::stats::QueryStats;
use crate::tree::SgTree;
use crate::Tid;
use sg_obs::span::{self, Span};
use sg_obs::{QueryTrace, ResourceVec};
use sg_sig::{account, Metric, Signature};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Synthesizes one flight-recorder span per tree level from a finished
/// [`QueryTrace`], nested under the query's `core.query` span. Levels
/// have no individually-measured wall time, so the parent's duration is
/// partitioned across them proportionally to nodes visited — the spans
/// carry the *accounting* (visits, prunes, exact distances); their
/// widths are an attribution aid, not a measurement.
fn emit_level_spans(parent: span::SpanCtx, start_ns: u64, end_ns: u64, trace: &QueryTrace) {
    let total: u64 = trace.levels.iter().map(|l| l.nodes_visited.max(1)).sum();
    if total == 0 {
        return;
    }
    let dur = end_ns.saturating_sub(start_ns);
    let mut offset = 0u64;
    for l in &trace.levels {
        let d = dur * l.nodes_visited.max(1) / total;
        span::emit(
            parent.trace_id,
            parent.span_id,
            "core.level",
            "core",
            start_ns + offset,
            d,
            &[
                ("level", l.level as u64),
                ("nodes_visited", l.nodes_visited),
                ("pruned", l.entries_pruned),
                ("exact", l.exact_distances),
            ],
        );
        offset += d;
    }
}

/// A monotonically non-increasing distance bound shared by concurrent
/// searches over sibling shards (the sharded executor's k-NN fan-out).
///
/// Each shard publishes its local k-th-best distance with
/// [`SharedBound::observe`]; every shard prunes subtrees whose directory
/// lower bound strictly exceeds [`SharedBound::get`]. The invariant that
/// makes this sound: once *any* shard holds `k` candidates at distance
/// `≤ d`, the merged k-th-nearest distance is `≤ d`, so no pruned entry
/// can reach the merged top-k. Equal distances are never pruned — they
/// may still win their tie on tid, keeping the merged result canonical.
///
/// Distances are non-negative IEEE-754 doubles, whose bit patterns order
/// exactly like their values, so the bound is one lock-free
/// `AtomicU64::fetch_min`.
#[derive(Debug)]
pub struct SharedBound(AtomicU64);

impl Default for SharedBound {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedBound {
    /// An unbounded (infinite) starting bound.
    pub fn new() -> Self {
        SharedBound(AtomicU64::new(f64::INFINITY.to_bits()))
    }

    /// The current bound. Stale reads are safe: the bound only ever
    /// decreases, so a stale value is merely conservative.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Lowers the bound to `dist` if it improves on the current value.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `dist` is non-negative (negative distances
    /// would break the bit-pattern ordering trick).
    #[inline]
    pub fn observe(&self, dist: f64) {
        debug_assert!(dist >= 0.0, "distances must be non-negative");
        self.0.fetch_min(dist.to_bits(), Ordering::Relaxed);
    }
}

/// One similarity-search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbor {
    /// The matching transaction's id.
    pub tid: Tid,
    /// Its exact distance to the query under the search metric.
    pub dist: f64,
}

/// Total order on finite distances (all metrics produce finite values).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub(crate) struct OrdF64(pub f64);

impl Eq for OrdF64 {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).expect("distances are finite")
    }
}

/// Mutable per-query counters threaded through the traversals, with an
/// optional [`QueryTrace`] collecting the per-level breakdown. The trace
/// is `None` on the normal path, so tracing costs one branch per event.
#[derive(Default)]
pub(crate) struct SearchCtx {
    pub nodes_accessed: u64,
    pub data_compared: u64,
    pub dist_computations: u64,
    pub trace: Option<QueryTrace>,
}

impl SearchCtx {
    /// Counts reading one node at tree `level` (0 = leaf).
    #[inline]
    pub(crate) fn visit(&mut self, level: u16) {
        self.nodes_accessed += 1;
        if let Some(t) = self.trace.as_mut() {
            t.visit(level as u32);
        }
    }

    /// Counts one directory lower-bound evaluation at `level` (the level
    /// of the node holding the entry).
    #[inline]
    pub(crate) fn lower_bound(&mut self, level: u16) {
        self.dist_computations += 1;
        if let Some(t) = self.trace.as_mut() {
            t.lower_bounds(level as u32, 1);
        }
    }

    /// Counts `n` entries at `level` whose subtrees were pruned by the
    /// directory lower bound.
    #[inline]
    pub(crate) fn pruned(&mut self, level: u16, n: u64) {
        if let Some(t) = self.trace.as_mut() {
            t.pruned(level as u32, n);
        }
    }

    /// Counts one exact distance computation against a stored transaction.
    #[inline]
    pub(crate) fn exact(&mut self, level: u16) {
        self.data_compared += 1;
        self.dist_computations += 1;
        if let Some(t) = self.trace.as_mut() {
            t.exact(level as u32, 1);
        }
    }

    /// Counts one predicate check (no distance) against a stored
    /// transaction — the containment queries' leaf comparisons.
    #[inline]
    pub(crate) fn checked(&mut self, level: u16) {
        self.data_compared += 1;
        if let Some(t) = self.trace.as_mut() {
            t.exact(level as u32, 1);
        }
    }

    fn stats(&self, tree: &SgTree, io_before: sg_pager::IoSnapshot) -> QueryStats {
        QueryStats {
            nodes_accessed: self.nodes_accessed,
            data_compared: self.data_compared,
            dist_computations: self.dist_computations,
            io: tree.pool().stats().snapshot().since(&io_before),
            resources: ResourceVec::default(),
        }
    }
}

/// Point-in-time readings taken before a traversal so its resource bill
/// can be computed as a delta afterwards. Queries run on one thread end
/// to end, so both the CPU clock and the kernel counters are exact.
pub(crate) struct BillStart {
    cpu_ns: u64,
    acct: account::Reading,
}

impl BillStart {
    pub(crate) fn now() -> BillStart {
        BillStart {
            cpu_ns: sg_obs::cost::self_cpu_ns(),
            acct: account::read(),
        }
    }

    /// Fills `stats.resources` from the deltas since `self`.
    pub(crate) fn bill(&self, stats: &mut QueryStats) {
        let acct = account::read().delta(&self.acct);
        stats.resources = ResourceVec {
            cpu_ns: sg_obs::cost::self_cpu_ns().saturating_sub(self.cpu_ns),
            visits: stats.nodes_accessed,
            lane_ops: acct.lane_ops,
            pages_pinned: stats.io.logical_reads,
            bytes_decoded: acct.bytes_decoded,
            wal_bytes: 0,
        };
    }
}

impl SgTree {
    /// Runs `f` with a fresh [`SearchCtx`] and converts it (plus the I/O
    /// delta) into [`QueryStats`]. When metrics are attached the query's
    /// aggregate costs and wall time are recorded into them.
    pub(crate) fn run_query<R>(&self, f: impl FnOnce(&mut SearchCtx) -> R) -> (R, QueryStats) {
        // No-op (one relaxed load) unless the flight recorder is on.
        let mut qspan = Span::start("core.query", "core");
        let start = self.obs().map(|_| Instant::now());
        let io_before = self.pool().stats().snapshot();
        let bill = BillStart::now();
        let mut ctx = SearchCtx::default();
        let result = f(&mut ctx);
        let mut stats = ctx.stats(self, io_before);
        bill.bill(&mut stats);
        qspan.attr("nodes", stats.nodes_accessed);
        qspan.attr("data_compared", stats.data_compared);
        qspan.attr("dists", stats.dist_computations);
        if let (Some(obs), Some(start)) = (self.obs(), start) {
            obs.observe_query(
                stats.nodes_accessed,
                stats.data_compared,
                stats.dist_computations,
                stats.io.logical_reads,
                stats.io.physical_reads,
                start.elapsed().as_nanos() as u64,
            );
        }
        (result, stats)
    }

    /// Like [`SgTree::run_query`], but also collects a per-level
    /// [`QueryTrace`] labelled `label`. The caller sets `trace.results`.
    pub(crate) fn run_query_traced<R>(
        &self,
        label: &str,
        f: impl FnOnce(&mut SearchCtx) -> R,
    ) -> (R, QueryStats, QueryTrace) {
        let mut qspan = Span::start("core.query", "core");
        let span_start = qspan.ctx().map(|_| span::now_ns());
        let start = Instant::now();
        let io_before = self.pool().stats().snapshot();
        let bill = BillStart::now();
        let mut ctx = SearchCtx {
            trace: Some(QueryTrace::new(label, "sg-tree")),
            ..SearchCtx::default()
        };
        let result = f(&mut ctx);
        let mut stats = ctx.stats(self, io_before);
        bill.bill(&mut stats);
        let mut trace = ctx.trace.take().expect("trace installed above");
        trace.nodes_accessed = stats.nodes_accessed;
        trace.data_compared = stats.data_compared;
        trace.dist_computations = stats.dist_computations;
        trace.logical_reads = stats.io.logical_reads;
        trace.physical_reads = stats.io.physical_reads;
        trace.duration_ns = start.elapsed().as_nanos() as u64;
        if let (Some(span_ctx), Some(span_start)) = (qspan.ctx(), span_start) {
            qspan.attr("nodes", stats.nodes_accessed);
            qspan.attr("data_compared", stats.data_compared);
            qspan.attr("dists", stats.dist_computations);
            emit_level_spans(span_ctx, span_start, span::now_ns(), &trace);
        }
        if let Some(obs) = self.obs() {
            obs.observe_query(
                stats.nodes_accessed,
                stats.data_compared,
                stats.dist_computations,
                stats.io.logical_reads,
                stats.io.physical_reads,
                trace.duration_ns,
            );
        }
        (result, stats, trace)
    }

    /// Nearest-neighbor query (the paper's Figure 4, `k = 1`), depth-first.
    /// Returns at most one hit (none only for an empty tree).
    pub fn nn(&self, q: &Signature, metric: &Metric) -> (Vec<Neighbor>, QueryStats) {
        self.knn(q, 1, metric)
    }

    /// `k`-nearest-neighbor query, depth-first branch-and-bound. Results
    /// sorted by ascending distance (ties by tid for determinism).
    pub fn knn(&self, q: &Signature, k: usize, metric: &Metric) -> (Vec<Neighbor>, QueryStats) {
        self.run_query(|ctx| dfs::knn(self, q, k, metric, ctx))
    }

    /// All nearest neighbors at the minimum distance — Figure 4's variant
    /// with the `≤` predicates.
    pub fn nn_all_ties(&self, q: &Signature, metric: &Metric) -> (Vec<Neighbor>, QueryStats) {
        self.run_query(|ctx| dfs::nn_all_ties(self, q, metric, ctx))
    }

    /// `k`-nearest-neighbor query cooperating with concurrent searches
    /// over sibling shards: prunes against the cross-shard [`SharedBound`]
    /// and publishes its own k-th-best distance into it. With a fresh
    /// bound this is exactly [`SgTree::knn`].
    pub fn knn_shared(
        &self,
        q: &Signature,
        k: usize,
        metric: &Metric,
        shared: &SharedBound,
    ) -> (Vec<Neighbor>, QueryStats) {
        self.run_query(|ctx| dfs::knn_shared(self, q, k, metric, shared, ctx))
    }

    /// `k`-NN by best-first (Hjaltason–Samet) search — the node-access-
    /// optimal algorithm §4.1 recommends over depth-first.
    pub fn knn_best_first(
        &self,
        q: &Signature,
        k: usize,
        metric: &Metric,
    ) -> (Vec<Neighbor>, QueryStats) {
        self.run_query(|ctx| bestfirst::knn(self, q, k, metric, ctx))
    }

    /// Similarity range query: every transaction within distance `eps` of
    /// `q`, sorted by ascending distance.
    pub fn range(&self, q: &Signature, eps: f64, metric: &Metric) -> (Vec<Neighbor>, QueryStats) {
        self.run_query(|ctx| dfs::range(self, q, eps, metric, ctx))
    }

    /// Itemset-containment query (§3's example): ids of all transactions
    /// `t ⊇ q`.
    pub fn containing(&self, q: &Signature) -> (Vec<Tid>, QueryStats) {
        self.run_query(|ctx| containment::containing(self, q, ctx))
    }

    /// Subset query: ids of all transactions `t ⊆ q`. Signature trees
    /// cannot prune this query type (a known weakness — see Helmer &
    /// Moerkotte, cited as \[14\] by the paper); the traversal visits every
    /// node and is provided for completeness.
    pub fn contained_in(&self, q: &Signature) -> (Vec<Tid>, QueryStats) {
        self.run_query(|ctx| containment::contained_in(self, q, ctx))
    }

    /// Exact-match query: ids of all transactions with signature exactly
    /// `q`.
    pub fn exact(&self, q: &Signature) -> (Vec<Tid>, QueryStats) {
        self.run_query(|ctx| containment::exact(self, q, ctx))
    }

    /// Nearest neighbor strictly closer than `bound`, or `None`. Used by
    /// the closest-pair search and handy for incremental algorithms.
    pub fn nn_within(
        &self,
        q: &Signature,
        bound: f64,
        metric: &Metric,
    ) -> (Option<Neighbor>, QueryStats) {
        self.run_query(|ctx| dfs::nn_within(self, q, bound, metric, ctx))
    }

    /// Similarity join (§4.2): all pairs `(t₁ ∈ self, t₂ ∈ other)` with
    /// `dist(t₁, t₂) ≤ eps`. Index-nested-loop evaluation: each leaf entry
    /// of `self` probes `other` with a range query, so `other`'s directory
    /// bounds prune the quadratic pair space.
    pub fn similarity_join(
        &self,
        other: &SgTree,
        eps: f64,
        metric: &Metric,
    ) -> (Vec<JoinPair>, QueryStats) {
        join::similarity_join(self, other, eps, metric)
    }

    /// Closest-pair query (§4.2): the pair `(t₁ ∈ self, t₂ ∈ other)` with
    /// the minimum distance, `None` if either tree is empty. The running
    /// best distance bounds every probe.
    pub fn closest_pair(&self, other: &SgTree, metric: &Metric) -> (Option<JoinPair>, QueryStats) {
        join::closest_pair(self, other, metric)
    }

    /// Runs `f` (one of the public untraced query methods' bodies) under a
    /// fresh EXPLAIN trace labelled `label`, for the unified
    /// [`SgTree::query`](crate::api) path.
    pub(crate) fn run_traced_request<R>(
        &self,
        label: &str,
        f: impl FnOnce(&SgTree, &mut SearchCtx) -> R,
    ) -> (R, QueryStats, QueryTrace) {
        self.run_query_traced(label, |ctx| f(self, ctx))
    }

    /// Traced k-NN (depth-first), for the unified API.
    pub(crate) fn knn_traced(
        &self,
        q: &Signature,
        k: usize,
        metric: &Metric,
    ) -> (Vec<Neighbor>, QueryStats, QueryTrace) {
        let label = format!("knn k={k} metric={:?}", metric.kind());
        let (result, stats, mut trace) =
            self.run_query_traced(&label, |ctx| dfs::knn(self, q, k, metric, ctx));
        trace.results = result.len() as u64;
        (result, stats, trace)
    }

    /// Traced shared-bound k-NN, for the unified API's sharded path.
    pub(crate) fn knn_shared_traced(
        &self,
        q: &Signature,
        k: usize,
        metric: &Metric,
        shared: &SharedBound,
    ) -> (Vec<Neighbor>, QueryStats, QueryTrace) {
        let label = format!("knn-shared k={k} metric={:?}", metric.kind());
        let (result, stats, mut trace) = self.run_query_traced(&label, |ctx| {
            dfs::knn_shared(self, q, k, metric, shared, ctx)
        });
        trace.results = result.len() as u64;
        (result, stats, trace)
    }

    /// Traced range query, for the unified API.
    pub(crate) fn range_traced(
        &self,
        q: &Signature,
        eps: f64,
        metric: &Metric,
    ) -> (Vec<Neighbor>, QueryStats, QueryTrace) {
        let label = format!("range eps={eps} metric={:?}", metric.kind());
        let (result, stats, mut trace) =
            self.run_query_traced(&label, |ctx| dfs::range(self, q, eps, metric, ctx));
        trace.results = result.len() as u64;
        (result, stats, trace)
    }

    /// Traced containment query, for the unified API.
    pub(crate) fn containing_traced(&self, q: &Signature) -> (Vec<Tid>, QueryStats, QueryTrace) {
        let (result, stats, mut trace) = self.run_traced_request("containment", |tree, ctx| {
            containment::containing(tree, q, ctx)
        });
        trace.results = result.len() as u64;
        (result, stats, trace)
    }

    /// Traced subset query, for the unified API.
    pub(crate) fn contained_in_traced(&self, q: &Signature) -> (Vec<Tid>, QueryStats, QueryTrace) {
        let (result, stats, mut trace) = self.run_traced_request("contained-in", |tree, ctx| {
            containment::contained_in(tree, q, ctx)
        });
        trace.results = result.len() as u64;
        (result, stats, trace)
    }

    /// Traced exact-match query, for the unified API.
    pub(crate) fn exact_traced(&self, q: &Signature) -> (Vec<Tid>, QueryStats, QueryTrace) {
        let (result, stats, mut trace) =
            self.run_traced_request("exact", |tree, ctx| containment::exact(tree, q, ctx));
        trace.results = result.len() as u64;
        (result, stats, trace)
    }
}
