//! The unified query API shared by every backend in the workspace.
//!
//! Historically each index exposed a sprawl of per-query-type methods
//! (`knn` / `knn_explain`, `range` / `range_explain`, …) and the executor
//! and serve layers each defined parallel request enums. This module
//! collapses that surface into one shape:
//!
//! * [`QueryRequest`] — *what* to compute (k-NN, range, containment, …).
//! * [`QueryOptions`] — *how* to run it: EXPLAIN tracing, cooperative
//!   cancellation, a deadline.
//! * [`QueryResponse`] — the answer, its cost breakdown, and (when asked
//!   for) its trace.
//! * [`SetIndex`] — the object-safe trait every backend implements, so
//!   differential tests and benches iterate `dyn SetIndex` instead of
//!   copy-pasting per-backend arms.

use crate::query::{Neighbor, SharedBound};
use crate::scan::ScanIndex;
use crate::stats::QueryStats;
use crate::tree::SgTree;
use crate::Tid;
use sg_obs::{QueryTrace, SpanCtx};
use sg_pager::{SgError, SgResult};
use sg_sig::{Metric, Signature};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A shared cancellation flag for one in-flight query (or batch entry).
///
/// A serving layer hands one of these down with [`QueryOptions::cancel`]
/// and flips it when the caller stops waiting (deadline passed, connection
/// gone). Work that has not started yet observes the flag and returns
/// [`SgError::Cancelled`] — abandoned queries cost close to nothing.
#[derive(Debug, Clone, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, un-cancelled flag.
    pub fn new() -> CancelFlag {
        CancelFlag::default()
    }

    /// Requests cancellation. Idempotent; already-running work finishes,
    /// but pending stages are skipped.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// One query, independent of which backend answers it.
#[derive(Debug, Clone)]
pub enum QueryRequest {
    /// The `k` nearest neighbors of `q` under `metric`, distance-ranked
    /// (ties by tid — the canonical order every exact backend agrees on).
    Knn {
        /// Query signature.
        q: Signature,
        /// Result size.
        k: usize,
        /// Distance function.
        metric: Metric,
    },
    /// Every transaction within distance `eps` of `q` under `metric`.
    Range {
        /// Query signature.
        q: Signature,
        /// Inclusive distance threshold.
        eps: f64,
        /// Distance function.
        metric: Metric,
    },
    /// Supersets of `q` (§3's itemset-containment query).
    Containing {
        /// Query signature.
        q: Signature,
    },
    /// Subsets of `q`.
    ContainedIn {
        /// Query signature.
        q: Signature,
    },
    /// Exact matches of `q`.
    Exact {
        /// Query signature.
        q: Signature,
    },
}

impl QueryRequest {
    /// The query signature, whatever the request kind.
    pub fn signature(&self) -> &Signature {
        match self {
            QueryRequest::Knn { q, .. }
            | QueryRequest::Range { q, .. }
            | QueryRequest::Containing { q }
            | QueryRequest::ContainedIn { q }
            | QueryRequest::Exact { q } => q,
        }
    }

    /// The request's kind as a `'static` name — the cost-model key, so
    /// recording a query allocates nothing.
    pub fn kind(&self) -> &'static str {
        match self {
            QueryRequest::Knn { .. } => "knn",
            QueryRequest::Range { .. } => "range",
            QueryRequest::Containing { .. } => "containing",
            QueryRequest::ContainedIn { .. } => "contained_in",
            QueryRequest::Exact { .. } => "exact",
        }
    }

    /// A human-readable label for traces and logs, e.g. `"knn k=10
    /// metric=Hamming"`.
    pub fn label(&self) -> String {
        match self {
            QueryRequest::Knn { k, metric, .. } => {
                format!("knn k={k} metric={:?}", metric.kind())
            }
            QueryRequest::Range { eps, metric, .. } => {
                format!("range eps={eps} metric={:?}", metric.kind())
            }
            QueryRequest::Containing { .. } => "containing".into(),
            QueryRequest::ContainedIn { .. } => "contained-in".into(),
            QueryRequest::Exact { .. } => "exact".into(),
        }
    }
}

/// Cross-cutting execution options, identical for every backend.
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Collect a per-level EXPLAIN [`QueryTrace`] into
    /// [`QueryResponse::trace`].
    pub trace: bool,
    /// Cooperative cancellation; checked before (and, in fan-out layers,
    /// between) units of work.
    pub cancel: Option<CancelFlag>,
    /// Absolute deadline; work observed past it returns
    /// [`SgError::Cancelled`].
    pub deadline: Option<Instant>,
    /// Causal parent for any spans this query records into the flight
    /// recorder (cross-thread hand-off from the serving layer).
    pub span: Option<SpanCtx>,
}

impl QueryOptions {
    /// Options that collect an EXPLAIN trace.
    pub fn traced() -> QueryOptions {
        QueryOptions {
            trace: true,
            ..QueryOptions::default()
        }
    }

    /// Whether the query should stop: cancelled or past its deadline.
    pub fn expired(&self) -> bool {
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                return true;
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return true;
            }
        }
        false
    }
}

/// A query's answer, in whichever shape the request kind produces.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// Distance-ranked answer (k-NN, range).
    Neighbors(Vec<Neighbor>),
    /// Id-set answer (containment, subset, exact match).
    Tids(Vec<Tid>),
}

impl QueryOutput {
    /// The neighbor list, or `None` for an id-set answer.
    pub fn neighbors(&self) -> Option<&[Neighbor]> {
        match self {
            QueryOutput::Neighbors(v) => Some(v),
            QueryOutput::Tids(_) => None,
        }
    }

    /// The id set, or `None` for a distance-ranked answer.
    pub fn tids(&self) -> Option<&[Tid]> {
        match self {
            QueryOutput::Tids(v) => Some(v),
            QueryOutput::Neighbors(_) => None,
        }
    }

    /// Number of results in the answer.
    pub fn len(&self) -> usize {
        match self {
            QueryOutput::Neighbors(v) => v.len(),
            QueryOutput::Tids(v) => v.len(),
        }
    }

    /// Whether the answer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The unified answer shape: output, costs, and (optionally) a trace.
///
/// Single-backend queries leave `per_shard` empty and `merge_ns` zero;
/// fan-out layers (the sharded executor) fill them in, so one type serves
/// both without a lossy conversion.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The answer, canonically ordered.
    pub output: QueryOutput,
    /// Aggregate cost of producing it.
    pub stats: QueryStats,
    /// Per-shard cost breakdown (empty for single-backend queries).
    pub per_shard: Vec<QueryStats>,
    /// Time merging per-shard answers, ns (zero for single-backend).
    pub merge_ns: u64,
    /// The EXPLAIN trace, present iff [`QueryOptions::trace`] was set.
    pub trace: Option<QueryTrace>,
}

impl QueryResponse {
    /// Wraps a single-backend `(output, stats)` pair.
    pub fn single(output: QueryOutput, stats: QueryStats) -> QueryResponse {
        QueryResponse {
            output,
            stats,
            per_shard: Vec::new(),
            merge_ns: 0,
            trace: None,
        }
    }
}

/// The backend-agnostic index interface: mutate with `insert` / `delete`,
/// read with [`SetIndex::query`]. Object-safe, so harnesses iterate
/// `Vec<Box<dyn SetIndex>>`.
///
/// Backends that cannot support an operation (build-only baselines, query
/// kinds outside their contract) return [`SgError::Unsupported`]; harnesses
/// treat that as "skip", not "fail".
pub trait SetIndex: Send + Sync {
    /// A short backend name for reports (`"sg-tree"`, `"inverted"`, …).
    fn name(&self) -> &'static str;

    /// Number of indexed transactions.
    fn len(&self) -> u64;

    /// Whether the index holds no transactions.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Signature width the index was built for.
    fn nbits(&self) -> u32;

    /// Adds `(tid, sig)` to the index.
    fn insert(&mut self, tid: Tid, sig: &Signature) -> SgResult<()>;

    /// Removes `(tid, sig)`; `Ok(false)` when no such entry exists.
    fn delete(&mut self, tid: Tid, sig: &Signature) -> SgResult<bool>;

    /// Answers `req` under `opts`.
    fn query(&self, req: &QueryRequest, opts: &QueryOptions) -> SgResult<QueryResponse>;
}

fn check_nbits(expected: u32, q: &Signature) -> SgResult<()> {
    if q.nbits() != expected {
        return Err(SgError::invalid(format!(
            "query signature has {} bits; index expects {}",
            q.nbits(),
            expected
        )));
    }
    Ok(())
}

impl SgTree {
    /// Answers `req` under `opts` — the unified entry point for every
    /// query kind, traced or not.
    pub fn query(&self, req: &QueryRequest, opts: &QueryOptions) -> SgResult<QueryResponse> {
        self.query_dispatch(req, opts, None)
    }

    /// [`SgTree::query`] cooperating with concurrent searches over sibling
    /// shards through `bound` (k-NN only; other kinds ignore it). This is
    /// what the sharded executor fans out.
    pub fn query_shared(
        &self,
        req: &QueryRequest,
        opts: &QueryOptions,
        bound: &SharedBound,
    ) -> SgResult<QueryResponse> {
        self.query_dispatch(req, opts, Some(bound))
    }

    fn query_dispatch(
        &self,
        req: &QueryRequest,
        opts: &QueryOptions,
        bound: Option<&SharedBound>,
    ) -> SgResult<QueryResponse> {
        check_nbits(self.nbits(), req.signature())?;
        if opts.expired() {
            return Err(SgError::Cancelled);
        }
        let start = Instant::now();
        let run = |resp: (QueryOutput, QueryStats)| QueryResponse::single(resp.0, resp.1);
        let resp = if opts.trace {
            let (output, stats, trace) = match req {
                QueryRequest::Knn { q, k, metric } => {
                    let (r, s, t) = match bound {
                        Some(b) => self.knn_shared_traced(q, *k, metric, b),
                        None => self.knn_traced(q, *k, metric),
                    };
                    (QueryOutput::Neighbors(r), s, t)
                }
                QueryRequest::Range { q, eps, metric } => {
                    let (r, s, t) = self.range_traced(q, *eps, metric);
                    (QueryOutput::Neighbors(r), s, t)
                }
                QueryRequest::Containing { q } => {
                    let (r, s, t) = self.containing_traced(q);
                    (QueryOutput::Tids(r), s, t)
                }
                QueryRequest::ContainedIn { q } => {
                    let (r, s, t) = self.contained_in_traced(q);
                    (QueryOutput::Tids(r), s, t)
                }
                QueryRequest::Exact { q } => {
                    let (r, s, t) = self.exact_traced(q);
                    (QueryOutput::Tids(r), s, t)
                }
            };
            let mut resp = QueryResponse::single(output, stats);
            resp.trace = Some(trace);
            resp
        } else {
            match req {
                QueryRequest::Knn { q, k, metric } => match bound {
                    Some(b) => {
                        let (r, s) = self.knn_shared(q, *k, metric, b);
                        run((QueryOutput::Neighbors(r), s))
                    }
                    None => {
                        let (r, s) = self.knn(q, *k, metric);
                        run((QueryOutput::Neighbors(r), s))
                    }
                },
                QueryRequest::Range { q, eps, metric } => {
                    let (r, s) = self.range(q, *eps, metric);
                    run((QueryOutput::Neighbors(r), s))
                }
                QueryRequest::Containing { q } => {
                    let (r, s) = self.containing(q);
                    run((QueryOutput::Tids(r), s))
                }
                QueryRequest::ContainedIn { q } => {
                    let (r, s) = self.contained_in(q);
                    run((QueryOutput::Tids(r), s))
                }
                QueryRequest::Exact { q } => {
                    let (r, s) = self.exact(q);
                    run((QueryOutput::Tids(r), s))
                }
            }
        };
        sg_obs::CostModel::global().record(
            "sg-tree",
            req.kind(),
            start.elapsed().as_nanos() as u64,
            &resp.stats.resources,
        );
        Ok(resp)
    }
}

impl SetIndex for SgTree {
    fn name(&self) -> &'static str {
        "sg-tree"
    }

    fn len(&self) -> u64 {
        SgTree::len(self)
    }

    fn nbits(&self) -> u32 {
        SgTree::nbits(self)
    }

    fn insert(&mut self, tid: Tid, sig: &Signature) -> SgResult<()> {
        check_nbits(SgTree::nbits(self), sig)?;
        SgTree::insert(self, tid, sig);
        Ok(())
    }

    fn delete(&mut self, tid: Tid, sig: &Signature) -> SgResult<bool> {
        check_nbits(SgTree::nbits(self), sig)?;
        Ok(SgTree::delete(self, tid, sig))
    }

    fn query(&self, req: &QueryRequest, opts: &QueryOptions) -> SgResult<QueryResponse> {
        SgTree::query(self, req, opts)
    }
}

impl ScanIndex {
    /// Answers `req` under `opts` via the unified API. The scan baseline
    /// supports every query kind (it reads everything anyway); tracing is
    /// not broken down per level, so `opts.trace` yields no trace.
    pub fn query(&self, req: &QueryRequest, opts: &QueryOptions) -> SgResult<QueryResponse> {
        check_nbits(ScanIndex::nbits(self), req.signature())?;
        if opts.expired() {
            return Err(SgError::Cancelled);
        }
        let (output, stats) = match req {
            QueryRequest::Knn { q, k, metric } => {
                let (r, s) = self.knn(q, *k, metric);
                (QueryOutput::Neighbors(r), s)
            }
            QueryRequest::Range { q, eps, metric } => {
                let (r, s) = self.range(q, *eps, metric);
                (QueryOutput::Neighbors(r), s)
            }
            QueryRequest::Containing { q } => {
                let (r, s) = self.containing(q);
                (QueryOutput::Tids(r), s)
            }
            QueryRequest::ContainedIn { q } => {
                let (r, s) = self.contained_in(q);
                (QueryOutput::Tids(r), s)
            }
            QueryRequest::Exact { q } => {
                let (r, s) = self.exact(q);
                (QueryOutput::Tids(r), s)
            }
        };
        Ok(QueryResponse::single(output, stats))
    }
}

impl SetIndex for ScanIndex {
    fn name(&self) -> &'static str {
        "scan"
    }

    fn len(&self) -> u64 {
        ScanIndex::len(self)
    }

    fn nbits(&self) -> u32 {
        ScanIndex::nbits(self)
    }

    fn insert(&mut self, _tid: Tid, _sig: &Signature) -> SgResult<()> {
        Err(SgError::Unsupported(
            "insert on the build-only scan baseline",
        ))
    }

    fn delete(&mut self, _tid: Tid, _sig: &Signature) -> SgResult<bool> {
        Err(SgError::Unsupported(
            "delete on the build-only scan baseline",
        ))
    }

    fn query(&self, req: &QueryRequest, opts: &QueryOptions) -> SgResult<QueryResponse> {
        ScanIndex::query(self, req, opts)
    }
}

// The unified types cross thread boundaries in the executor and serve
// layers; fail the build if that ever stops being true.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryRequest>();
    assert_send_sync::<QueryOptions>();
    assert_send_sync::<QueryResponse>();
    assert_send_sync::<CancelFlag>();
};
