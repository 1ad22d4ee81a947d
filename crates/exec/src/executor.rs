//! The sharded executor: partition, fan out, merge — now with a live,
//! optionally durable write path.
//!
//! Reads and writes share the same shards: each shard is a reader-writer
//! lock, so queries run against a consistent per-shard snapshot while
//! writers mutate other shards (or queue briefly on the same one). Writes
//! are routed by [`Partitioner::route`], logged append-before-apply to a
//! per-shard WAL when the executor was opened durable, and acknowledged
//! only after the log reaches disk.

use crate::merge::{self, ExecStats};
use crate::obs::ExecObs;
use crate::partition::Partitioner;
use crate::pool::ThreadPool;
use crate::shard::{
    read_meta, refuse_heap_checkpoints, write_meta, DurabilityConfig, RecoveryReport, Shard,
    WriteAck, WriteOp,
};
use sg_obs::json::Json;
use sg_obs::{
    span, CostModel, CostObs, IngestObs, QueryTrace, Registry, ResourceVec, Span, SpanCtx,
};
use sg_pager::{MemStore, SgError, SgResult};
use sg_sig::{Metric, Signature};
use sg_tree::{
    CancelFlag, HealthReport, Neighbor, QueryOptions, QueryOutput, QueryRequest, QueryResponse,
    QueryStats, SetIndex, SgTree, SharedBound, Tid, TreeConfig,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::Instant;

/// Construction parameters for a [`ShardedExecutor`].
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Number of SG-tree shards the dataset is split across.
    pub shards: usize,
    /// Worker threads in the fan-out pool; `0` means one per shard.
    pub threads: usize,
    /// How transactions are assigned to shards.
    pub partitioner: Partitioner,
    /// Page size of each shard's backing store.
    pub page_size: usize,
    /// Buffer-pool frames per shard.
    pub pool_frames: usize,
    /// Per-shard tree configuration; defaults to `TreeConfig::new(nbits)`.
    pub tree: Option<TreeConfig>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            shards: 4,
            threads: 0,
            partitioner: Partitioner::RoundRobin,
            page_size: 4096,
            pool_frames: 1024,
            tree: None,
        }
    }
}

impl ExecConfig {
    fn tree_config(&self, nbits: u32) -> TreeConfig {
        self.tree
            .clone()
            .unwrap_or_else(|| TreeConfig::new(nbits))
            .pool_frames(self.pool_frames)
    }

    fn pool_threads(&self) -> usize {
        if self.threads == 0 {
            self.shards
        } else {
            self.threads
        }
    }
}

/// One shard's share of a fan-out query: runs against that shard's tree.
type ShardTask<R> = dyn Fn(&SgTree) -> (R, QueryStats) + Send + Sync;

struct Inner {
    shards: Vec<Shard>,
    obs: OnceLock<Arc<ExecObs>>,
    ingest_obs: OnceLock<Arc<IngestObs>>,
    cost_obs: OnceLock<Arc<CostObs>>,
}

impl Inner {
    fn record_shard(&self, idx: usize, stats: &QueryStats) {
        if let Some(obs) = self.obs.get() {
            obs.shard_visits[idx].add(stats.nodes_accessed);
        }
    }

    /// Feeds one finished executor-level operation into the global cost
    /// model (under index `"exec"`) and, when registered, the `cost.*`
    /// resource-total counters.
    fn record_cost(&self, kind: &'static str, wall_ns: u64, res: &ResourceVec) {
        CostModel::global().record("exec", kind, wall_ns, res);
        if let Some(c) = self.cost_obs.get() {
            c.observe(res);
        }
    }
}

/// A dataset partitioned across `K` SG-tree shards: queries fan out over a
/// fixed worker pool and merge into the canonical global answer; writes
/// route to one shard by tid and, for executors opened with
/// [`ShardedExecutor::open_durable`], are WAL-logged before they are
/// applied and acknowledged.
///
/// Every method takes `&self`: the executor is `Sync` and may be shared
/// (e.g. behind an [`Arc`]) by any number of reader *and* writer threads.
pub struct ShardedExecutor {
    inner: Arc<Inner>,
    pool: ThreadPool,
    nbits: u32,
    len: AtomicI64,
    partitioner: Partitioner,
    recovery: Option<RecoveryReport>,
}

impl ShardedExecutor {
    /// Partitions `data` and builds one memory-backed SG-tree per shard.
    pub fn build(
        nbits: u32,
        data: &[(Tid, Signature)],
        config: &ExecConfig,
    ) -> Result<ShardedExecutor, SgError> {
        let parts = config.partitioner.partition(data, config.shards);
        let mut shards = Vec::with_capacity(parts.len());
        for part in &parts {
            let mut tree = SgTree::create(
                Arc::new(MemStore::new(config.page_size)),
                config.tree_config(nbits),
            )?;
            let mut catalog = HashMap::with_capacity(part.len());
            for (tid, sig) in part {
                tree.insert(*tid, sig);
                catalog.insert(*tid, sig.clone());
            }
            shards.push(Shard::memory(tree, catalog));
        }
        Ok(ShardedExecutor {
            inner: Arc::new(Inner {
                shards,
                obs: OnceLock::new(),
                ingest_obs: OnceLock::new(),
                cost_obs: OnceLock::new(),
            }),
            pool: ThreadPool::new(config.pool_threads()),
            nbits,
            len: AtomicI64::new(data.len() as i64),
            partitioner: config.partitioner,
            recovery: None,
        })
    }

    /// Opens (creating if absent) a durable executor rooted at
    /// `durability.dir`: one WAL + mmap'd copy-on-write page file per
    /// shard plus a meta file pinning the layout. Reopening maps each
    /// shard's committed pages and replays its WAL tail, so the executor
    /// recovers to the last acknowledged write after a crash;
    /// [`ShardedExecutor::recovery`] reports what was replayed.
    ///
    /// An existing directory's shard count and partitioner override
    /// `config` — routing must match the layout the data was written
    /// under — but a `nbits` mismatch is refused outright, as is a
    /// directory holding heap-storage checkpoints (`shard-NNN.ckpt`).
    pub fn open_durable(
        nbits: u32,
        config: &ExecConfig,
        durability: &DurabilityConfig,
    ) -> SgResult<ShardedExecutor> {
        std::fs::create_dir_all(&durability.dir)
            .map_err(|e| SgError::io("creating the durable executor directory", e))?;
        refuse_heap_checkpoints(&durability.dir)?;
        let (shard_count, partitioner) = match read_meta(&durability.dir)? {
            Some((meta_nbits, shards, partitioner)) => {
                if meta_nbits != nbits {
                    return Err(SgError::BadMeta(format!(
                        "durable executor at {:?} was written with nbits={meta_nbits}, \
                         reopened with nbits={nbits}",
                        durability.dir
                    )));
                }
                (shards as usize, partitioner)
            }
            None => {
                write_meta(
                    &durability.dir,
                    nbits,
                    config.shards as u32,
                    config.partitioner,
                )?;
                (config.shards, config.partitioner)
            }
        };
        let tree_config = config.tree_config(nbits);
        let mut shards = Vec::with_capacity(shard_count);
        let mut report = RecoveryReport::default();
        let mut len = 0i64;
        for idx in 0..shard_count {
            let (shard, rec) = Shard::open_durable(
                &durability.dir,
                idx,
                durability.fsync,
                nbits,
                &tree_config,
                config.page_size,
            )?;
            report.replayed += rec.snapshot_entries + rec.wal_records;
            report.snapshot_entries += rec.snapshot_entries;
            report.wal_records += rec.wal_records;
            report.truncated_bytes += rec.truncated_bytes;
            report.replay_ns.push(rec.replay_ns);
            len += shard.len() as i64;
            shards.push(shard);
        }
        Ok(ShardedExecutor {
            inner: Arc::new(Inner {
                shards,
                obs: OnceLock::new(),
                ingest_obs: OnceLock::new(),
                cost_obs: OnceLock::new(),
            }),
            pool: ThreadPool::new(config.pool_threads().max(shard_count)),
            nbits,
            len: AtomicI64::new(len),
            partitioner,
            recovery: Some(report),
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// Worker threads serving the fan-out pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Total transactions indexed across all shards.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::SeqCst).max(0) as u64
    }

    /// Whether the executor indexes no data.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Signature width shared by every shard.
    pub fn nbits(&self) -> u32 {
        self.nbits
    }

    /// The partitioner the dataset was laid out with.
    pub fn partitioner(&self) -> Partitioner {
        self.partitioner
    }

    /// What [`ShardedExecutor::open_durable`] recovered; `None` for a
    /// memory-only executor.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Runs `f` against one shard's tree under that shard's read lock
    /// (used by tests and tools; queries should go through
    /// [`ShardedExecutor::query`]).
    pub fn with_shard<R>(&self, idx: usize, f: impl FnOnce(&SgTree) -> R) -> R {
        let st = self.inner.shards[idx].state.read();
        f(&st.tree)
    }

    /// One [`HealthReport`] per shard, each computed in a single tree
    /// walk under that shard's read lock (locks are taken one shard at
    /// a time, so writes keep flowing on the other shards).
    pub fn health_reports(&self) -> Vec<HealthReport> {
        (0..self.shards())
            .map(|i| self.with_shard(i, |t| t.health_report()))
            .collect()
    }

    /// The `/debug/tree` document: per-shard health reports, an
    /// entry-weighted merged summary (whose findings are re-derived
    /// from the merged levels), and the *observed* per-level prune
    /// behaviour from the process-wide trace aggregates — so the
    /// paper's estimated false-drop probability sits next to what the
    /// executed queries actually did.
    pub fn health_json(&self) -> Json {
        let reports = self.health_reports();
        let merged = HealthReport::merged(reports.iter());
        let (traces, observed) = sg_obs::trace_level_aggregates();
        let shard_docs: Vec<Json> = reports
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let mut doc = vec![("shard".to_string(), Json::U64(i as u64))];
                let mut visits = None;
                if let Some(obs) = self.inner.obs.get() {
                    if let Some(c) = obs.shard_visits.get(i) {
                        visits = Some(c.get());
                    }
                }
                doc.push(("visits".to_string(), visits.map_or(Json::Null, Json::U64)));
                doc.push(("report".to_string(), r.to_json_value()));
                Json::Obj(doc)
            })
            .collect();
        let observed_docs: Vec<Json> = observed
            .iter()
            .map(|l| {
                let prune_rate = if l.lower_bound_evals > 0 {
                    l.entries_pruned as f64 / l.lower_bound_evals as f64
                } else {
                    0.0
                };
                let est = merged
                    .levels
                    .get(l.level as usize)
                    .map(|m| m.est_false_drop);
                Json::Obj(vec![
                    ("level".to_string(), Json::U64(l.level as u64)),
                    ("nodes_visited".to_string(), Json::U64(l.nodes_visited)),
                    ("entries_pruned".to_string(), Json::U64(l.entries_pruned)),
                    (
                        "lower_bound_evals".to_string(),
                        Json::U64(l.lower_bound_evals),
                    ),
                    ("exact_distances".to_string(), Json::U64(l.exact_distances)),
                    ("observed_prune_rate".to_string(), Json::F64(prune_rate)),
                    (
                        "observed_pass_rate".to_string(),
                        Json::F64(1.0 - prune_rate),
                    ),
                    (
                        "est_false_drop".to_string(),
                        est.map_or(Json::Null, Json::F64),
                    ),
                ])
            })
            .collect();
        let store_docs: Vec<Json> = self
            .store_stats()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::Obj(vec![
                    ("shard".to_string(), Json::U64(i as u64)),
                    ("pages_mapped".to_string(), Json::U64(s.pages_mapped)),
                    ("pages_allocated".to_string(), Json::U64(s.pages_allocated)),
                    (
                        "pages_pending_free".to_string(),
                        Json::U64(s.pages_pending_free),
                    ),
                    ("pages_reusable".to_string(), Json::U64(s.pages_reusable)),
                    (
                        "dirty_since_commit".to_string(),
                        Json::U64(s.dirty_since_commit.max(0) as u64),
                    ),
                    ("snapshot_pins".to_string(), Json::U64(s.snapshot_pins)),
                    ("tx_id".to_string(), Json::U64(s.tx_id)),
                    ("checkpoint_lsn".to_string(), Json::U64(s.checkpoint_lsn)),
                    ("epoch".to_string(), Json::U64(s.epoch)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("status".to_string(), Json::Str(merged.status().to_string())),
            ("shards".to_string(), Json::Arr(shard_docs)),
            ("summary".to_string(), merged.to_json_value()),
            (
                "observed".to_string(),
                Json::Obj(vec![
                    ("traces".to_string(), Json::U64(traces)),
                    ("levels".to_string(), Json::Arr(observed_docs)),
                ]),
            ),
            (
                "storage".to_string(),
                Json::Obj(vec![("stores".to_string(), Json::Arr(store_docs))]),
            ),
        ])
    }

    /// Registers executor instruments (and the pool's queue-depth gauge)
    /// under `<prefix>.*`. Effective once; later calls return the first
    /// instrument set.
    pub fn register_obs(&self, registry: &Registry, prefix: &str) -> Arc<ExecObs> {
        let obs = ExecObs::register(registry, prefix, self.shards());
        let obs = self.inner.obs.get_or_init(|| obs);
        self.pool.set_depth_gauge(Arc::clone(&obs.queue_depth));
        Arc::clone(obs)
    }

    /// Registers ingest instruments under `<prefix>.*` and flushes the
    /// recovery report (replayed records, replay time, discarded tail
    /// bytes) into them. Effective once; later calls return the first
    /// instrument set.
    pub fn register_ingest_obs(&self, registry: &Registry, prefix: &str) -> Arc<IngestObs> {
        let obs = self.inner.ingest_obs.get_or_init(|| {
            let obs = IngestObs::register(registry, prefix);
            if let Some(rep) = &self.recovery {
                // `replayed` counts only WAL *tail* records actually
                // re-applied on open; entries restored wholesale from a
                // checkpoint are reported separately. (The old behaviour
                // folded both into `replayed`, which made a freshly
                // checkpointed reopen look like a long replay.)
                obs.replayed.add(rep.wal_records);
                obs.snapshot_entries.add(rep.snapshot_entries);
                obs.truncated_bytes.add(rep.truncated_bytes);
                for &ns in &rep.replay_ns {
                    obs.replay_ns.record(ns);
                }
            }
            obs
        });
        Arc::clone(obs)
    }

    /// Registers query/write resource-total counters (`<prefix>.cpu_ns`,
    /// `<prefix>.lane_ops`, …) fed by per-operation [`ResourceVec`]s.
    /// Effective once; later calls return the first instrument set.
    pub fn register_cost_obs(&self, registry: &Registry, prefix: &str) -> Arc<CostObs> {
        let obs = self
            .inner
            .cost_obs
            .get_or_init(|| CostObs::register(registry, prefix));
        Arc::clone(obs)
    }

    /// Registers page-store instruments under `<prefix>.*` and attaches
    /// them to every durable shard's store (gauges are adjusted by delta,
    /// so all shards share one instrument set). Returns `None` for a
    /// memory-only executor. Effective once per store.
    pub fn register_store_obs(
        &self,
        registry: &Registry,
        prefix: &str,
    ) -> Option<Arc<sg_obs::StoreObs>> {
        if !self.inner.shards.iter().any(|s| s.store().is_some()) {
            return None;
        }
        let obs = sg_obs::StoreObs::register(registry, prefix);
        for shard in &self.inner.shards {
            if let Some(store) = shard.store() {
                store.attach_obs(Arc::clone(&obs));
            }
        }
        Some(obs)
    }

    /// Per-shard page-store statistics; empty for a memory-only executor.
    pub fn store_stats(&self) -> Vec<sg_store::StoreStats> {
        self.inner
            .shards
            .iter()
            .filter_map(|s| s.store().map(|st| st.stats()))
            .collect()
    }

    fn ingest_obs(&self) -> Option<&IngestObs> {
        self.inner.ingest_obs.get().map(|o| o.as_ref())
    }

    fn check_sig(&self, sig: &Signature) -> SgResult<()> {
        if sig.nbits() != self.nbits {
            return Err(SgError::invalid(format!(
                "signature has {} bits; executor expects {}",
                sig.nbits(),
                self.nbits
            )));
        }
        Ok(())
    }

    /// The shard currently holding `tid`, if any: the routed shard first
    /// (the only possibility for live-written data), then the rest (bulk
    /// loads place by position or clustering, not by tid).
    fn owner_of(&self, tid: Tid) -> Option<usize> {
        let k = self.shards();
        let routed = self.partitioner.route(tid, k);
        if self.inner.shards[routed].contains(tid) {
            return Some(routed);
        }
        (0..k).find(|&i| i != routed && self.inner.shards[i].contains(tid))
    }

    fn record_write(&self, op: &WriteOp, started: Instant) {
        if let Some(o) = self.ingest_obs() {
            o.writes.inc();
            match op {
                WriteOp::Insert { .. } => o.inserts.inc(),
                WriteOp::Delete { .. } => o.deletes.inc(),
                WriteOp::Upsert { .. } => o.upserts.inc(),
            }
            o.write_ns.record(started.elapsed().as_nanos() as u64);
        }
    }

    /// Bills one applied write (or write group) to the cost model under
    /// `("exec", "write")`: its wall time and the WAL bytes it appended.
    fn record_write_cost(&self, started: Instant, wal_bytes: u64) {
        let res = ResourceVec {
            wal_bytes,
            ..ResourceVec::default()
        };
        self.inner
            .record_cost("write", started.elapsed().as_nanos() as u64, &res);
    }

    /// Adds a new transaction, durably when the executor is durable.
    /// Rejects a tid that is already indexed (use
    /// [`ShardedExecutor::upsert`] to replace).
    pub fn insert(&self, tid: Tid, sig: &Signature) -> SgResult<WriteAck> {
        self.check_sig(sig)?;
        let started = Instant::now();
        let k = self.shards();
        let routed = self.partitioner.route(tid, k);
        // Legacy bulk placement: the routed shard's own duplicate check is
        // authoritative for live data, but a bulk-loaded copy may live in
        // any shard. Scan the rest first (read locks, one at a time).
        if (0..k).any(|i| i != routed && self.inner.shards[i].contains(tid)) {
            if let Some(o) = self.ingest_obs() {
                o.rejected.inc();
            }
            return Err(SgError::invalid(format!("insert of duplicate tid {tid}")));
        }
        let op = WriteOp::Insert {
            tid,
            sig: sig.clone(),
        };
        let (mut results, delta, wal_bytes) = self.inner.shards[routed].apply_batch(
            std::slice::from_ref(&op),
            &[],
            self.ingest_obs(),
        );
        self.len.fetch_add(delta, Ordering::SeqCst);
        let ack = results.pop().expect("one op in, one result out")?;
        self.record_write(&op, started);
        self.record_write_cost(started, wal_bytes);
        Ok(ack)
    }

    /// Removes a transaction by id. `applied` is `false` when no such tid
    /// is indexed.
    pub fn delete(&self, tid: Tid) -> SgResult<WriteAck> {
        self.delete_matching(tid, None)
    }

    fn delete_matching(&self, tid: Tid, expected: Option<&Signature>) -> SgResult<WriteAck> {
        let started = Instant::now();
        let op = WriteOp::Delete { tid };
        let idx = self.owner_of(tid);
        let ack = match idx {
            Some(idx) => {
                let expected = vec![expected.cloned()];
                let (mut results, delta, wal_bytes) = self.inner.shards[idx].apply_batch(
                    std::slice::from_ref(&op),
                    &expected,
                    self.ingest_obs(),
                );
                self.len.fetch_add(delta, Ordering::SeqCst);
                self.record_write_cost(started, wal_bytes);
                results.pop().expect("one op in, one result out")?
            }
            None => WriteAck {
                tid,
                applied: false,
                lsn: None,
            },
        };
        self.record_write(&op, started);
        Ok(ack)
    }

    /// Inserts or replaces a transaction. `applied` is always `true`.
    pub fn upsert(&self, tid: Tid, sig: &Signature) -> SgResult<WriteAck> {
        self.check_sig(sig)?;
        let started = Instant::now();
        let k = self.shards();
        let routed = self.partitioner.route(tid, k);
        // A bulk-loaded copy in a foreign shard must go first, or the
        // routed insert would create a duplicate. The two steps are
        // separately logged; a crash between them loses only the (never
        // co-acknowledged) intermediate state.
        let mut evict_wal = 0u64;
        if let Some(owner) = self.owner_of(tid) {
            if owner != routed {
                let del = WriteOp::Delete { tid };
                let (_, delta, wal) = self.inner.shards[owner].apply_batch(
                    std::slice::from_ref(&del),
                    &[],
                    self.ingest_obs(),
                );
                self.len.fetch_add(delta, Ordering::SeqCst);
                evict_wal = wal;
            }
        }
        let op = WriteOp::Upsert {
            tid,
            sig: sig.clone(),
        };
        let (mut results, delta, wal_bytes) = self.inner.shards[routed].apply_batch(
            std::slice::from_ref(&op),
            &[],
            self.ingest_obs(),
        );
        self.len.fetch_add(delta, Ordering::SeqCst);
        let ack = results.pop().expect("one op in, one result out")?;
        self.record_write(&op, started);
        self.record_write_cost(started, evict_wal + wal_bytes);
        Ok(ack)
    }

    /// Applies a batch of writes, grouped by destination shard and
    /// group-committed: each shard involved does **one** WAL append and
    /// one sync for its whole sub-batch, and the sub-batches run in
    /// parallel on the worker pool. Results come back in input order.
    ///
    /// Ops targeting the same tid land in the same shard group and apply
    /// in input order; ops for different tids may interleave across
    /// shards.
    pub fn write_batch(&self, ops: Vec<WriteOp>) -> Vec<SgResult<WriteAck>> {
        self.write_batch_spanned(ops, None)
    }

    /// [`ShardedExecutor::write_batch`] with a causal span parent: each
    /// per-shard group commit runs under an `exec.write_group` span, so
    /// the pager's WAL append/fsync spans nest beneath it. Because the
    /// group shares one WAL sync, its pager work is attributed to the one
    /// carried trace.
    pub fn write_batch_spanned(
        &self,
        ops: Vec<WriteOp>,
        parent: Option<SpanCtx>,
    ) -> Vec<SgResult<WriteAck>> {
        let started = Instant::now();
        let k = self.shards();
        let n = ops.len();
        let mut slots: Vec<Option<SgResult<WriteAck>>> = (0..n).map(|_| None).collect();
        let mut groups: Vec<Vec<(usize, WriteOp)>> = (0..k).map(|_| Vec::new()).collect();
        for (i, op) in ops.into_iter().enumerate() {
            if let Some(sig) = op.signature() {
                if let Err(e) = self.check_sig(sig) {
                    if let Some(o) = self.ingest_obs() {
                        o.rejected.inc();
                    }
                    slots[i] = Some(Err(e));
                    continue;
                }
            }
            let tid = op.tid();
            let routed = self.partitioner.route(tid, k);
            let dest = match &op {
                // Deletes chase bulk-loaded tids to whichever shard holds
                // them; a tid indexed nowhere still resolves to the routed
                // shard, which acknowledges `applied = false`.
                WriteOp::Delete { .. } => self.owner_of(tid).unwrap_or(routed),
                WriteOp::Insert { .. } | WriteOp::Upsert { .. } => {
                    // Evict a bulk-loaded copy from a foreign shard before
                    // the routed shard takes over (see `upsert`). For
                    // inserts the duplicate is rejected instead.
                    if let Some(owner) = self.owner_of(tid) {
                        if owner != routed {
                            if matches!(op, WriteOp::Insert { .. }) {
                                if let Some(o) = self.ingest_obs() {
                                    o.rejected.inc();
                                }
                                slots[i] = Some(Err(SgError::invalid(format!(
                                    "insert of duplicate tid {tid}"
                                ))));
                                continue;
                            }
                            let del = WriteOp::Delete { tid };
                            let (_, delta, _) = self.inner.shards[owner].apply_batch(
                                std::slice::from_ref(&del),
                                &[],
                                self.ingest_obs(),
                            );
                            self.len.fetch_add(delta, Ordering::SeqCst);
                        }
                    }
                    routed
                }
            };
            groups[dest].push((i, op));
        }
        // Fan the per-shard groups out over the pool; each worker holds
        // its shard's write lock once and commits its group as a unit.
        let (tx, rx) = mpsc::channel();
        let mut submitted = 0usize;
        for (shard_idx, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            submitted += 1;
            let inner = Arc::clone(&self.inner);
            let tx = tx.clone();
            self.pool.submit(move || {
                let _sp = parent.map(|p| {
                    let mut s = Span::with_parent(Some(p), "exec.write_group", "exec");
                    s.attr("shard", shard_idx as u64);
                    s.attr("ops", group.len() as u64);
                    s
                });
                let (indices, ops): (Vec<usize>, Vec<WriteOp>) = group.into_iter().unzip();
                let (results, delta, wal_bytes) = inner.shards[shard_idx].apply_batch(
                    &ops,
                    &[],
                    inner.ingest_obs.get().map(|o| o.as_ref()),
                );
                let _ = tx.send((indices, ops, results, delta, wal_bytes));
            });
        }
        drop(tx);
        for _ in 0..submitted {
            let (indices, ops, results, delta, wal_bytes) =
                rx.recv().expect("every write group reports");
            self.len.fetch_add(delta, Ordering::SeqCst);
            self.record_write_cost(started, wal_bytes);
            for ((i, op), result) in indices.into_iter().zip(ops).zip(results) {
                if result.is_ok() {
                    self.record_write(&op, started);
                } else if let Some(o) = self.ingest_obs() {
                    o.rejected.inc();
                }
                slots[i] = Some(result);
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every op resolves"))
            .collect()
    }

    /// Checkpoints every durable shard — commits its page store and
    /// truncates its WAL — bounding both log size and recovery time.
    /// A no-op for memory-only executors.
    pub fn checkpoint(&self) -> SgResult<()> {
        for shard in &self.inner.shards {
            shard.checkpoint(self.ingest_obs())?;
        }
        Ok(())
    }

    /// Flushes all durable state: today synonymous with
    /// [`ShardedExecutor::checkpoint`].
    pub fn flush(&self) -> SgResult<()> {
        self.checkpoint()
    }

    /// Spawns a background checkpointer that folds the group-committed
    /// WAL into each shard's page store every `every` — one
    /// copy-on-write meta-page flip per shard — bounding both log
    /// size and restart time without blocking writers for long (each
    /// shard is checkpointed under its read lock, one at a time).
    /// Stops when the returned handle is dropped.
    pub fn start_checkpointer(self: &Arc<Self>, every: std::time::Duration) -> Checkpointer {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let exec = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("sg-checkpointer".into())
            .spawn(move || {
                let slice = std::time::Duration::from_millis(25);
                loop {
                    // Sleep in slices so drop/stop is prompt.
                    let mut slept = std::time::Duration::ZERO;
                    while slept < every {
                        if flag.load(Ordering::Relaxed) {
                            return;
                        }
                        let nap = slice.min(every - slept);
                        std::thread::sleep(nap);
                        slept += nap;
                    }
                    if flag.load(Ordering::Relaxed) {
                        return;
                    }
                    // A failed checkpoint (e.g. disk full) leaves the WAL
                    // intact; the next tick retries.
                    let _ = exec.checkpoint();
                }
            })
            .expect("spawning the checkpointer thread");
        Checkpointer {
            stop,
            handle: Some(handle),
        }
    }

    /// Fans `run` out over every shard and collects `(result, stats)` per
    /// shard, in shard order. Each shard task holds that shard's read
    /// lock only while it runs, so writers interleave between tasks.
    fn fan_out<R: Send + 'static>(&self, run: Arc<ShardTask<R>>) -> (Vec<R>, Vec<QueryStats>) {
        let n = self.shards();
        let (tx, rx) = mpsc::channel();
        for idx in 0..n {
            let inner = Arc::clone(&self.inner);
            let run = Arc::clone(&run);
            let tx = tx.clone();
            self.pool.submit(move || {
                let (r, stats) = match inner.shards[idx].read_view() {
                    // Durable shard: run on the published snapshot view —
                    // no shard lock, so writers never block this query
                    // (and an in-flight checkpoint can't move its pages).
                    Some(view) => run(&view),
                    None => {
                        let st = inner.shards[idx].state.read();
                        run(&st.tree)
                    }
                };
                inner.record_shard(idx, &stats);
                let _ = tx.send((idx, r, stats));
            });
        }
        drop(tx);
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut per_shard = vec![QueryStats::default(); n];
        for (idx, r, stats) in rx {
            results[idx] = Some(r);
            per_shard[idx] = stats;
        }
        let results = results
            .into_iter()
            .map(|r| r.expect("every shard task reports"))
            .collect();
        (results, per_shard)
    }

    fn finish<R>(
        &self,
        started: Instant,
        per_shard: Vec<QueryStats>,
        merge: impl FnOnce() -> R,
    ) -> (R, ExecStats) {
        let m0 = Instant::now();
        let merged = merge();
        let merge_ns = m0.elapsed().as_nanos() as u64;
        let mut stats = ExecStats::from_shards(per_shard);
        stats.merge_ns = merge_ns;
        if let Some(obs) = self.inner.obs.get() {
            obs.queries.inc();
            obs.query_ns.record(started.elapsed().as_nanos() as u64);
            obs.merge_ns.record(merge_ns);
        }
        (merged, stats)
    }

    /// Answers `req` under `opts` — the unified entry point. k-NN shards
    /// cooperate through a [`SharedBound`]; `opts.trace` produces a parent
    /// trace whose children are the per-shard traces in shard order.
    pub fn query(&self, req: &QueryRequest, opts: &QueryOptions) -> SgResult<QueryResponse> {
        self.check_sig(req.signature())?;
        if opts.expired() {
            return Err(SgError::Cancelled);
        }
        let started = Instant::now();
        let shard_req = Arc::new(req.clone());
        let shard_opts = opts.clone();
        let bound = Arc::new(SharedBound::new());
        let (parts, per_shard) = self.fan_out(Arc::new(move |tree: &SgTree| {
            match tree.query_shared(&shard_req, &shard_opts, &bound) {
                Ok(resp) => (Ok((resp.output, resp.trace)), resp.stats),
                Err(e) => (Err(e), QueryStats::default()),
            }
        }));
        let mut outputs = Vec::with_capacity(parts.len());
        let mut children = Vec::with_capacity(parts.len());
        for part in parts {
            let (output, trace) = part?;
            outputs.push(output);
            children.push(trace);
        }
        let (output, stats) = self.finish(started, per_shard, || merge_outputs(req, outputs));
        self.inner.record_cost(
            req.kind(),
            started.elapsed().as_nanos() as u64,
            &stats.total.resources,
        );
        let trace = if opts.trace {
            let mut trace = QueryTrace::new(
                format!("{} shards={}", req.label(), self.shards()),
                "sg-exec",
            );
            trace.nodes_accessed = stats.total.nodes_accessed;
            trace.data_compared = stats.total.data_compared;
            trace.dist_computations = stats.total.dist_computations;
            trace.logical_reads = stats.total.io.logical_reads;
            trace.physical_reads = stats.total.io.physical_reads;
            trace.duration_ns = started.elapsed().as_nanos() as u64;
            trace.results = output.len() as u64;
            for child in children.into_iter().flatten() {
                trace.push_child(child);
            }
            Some(trace)
        } else {
            None
        };
        Ok(QueryResponse {
            output,
            stats: stats.total,
            per_shard: stats.per_shard,
            merge_ns: stats.merge_ns,
            trace,
        })
    }

    /// Global `k`-NN: each shard runs a depth-first k-NN cooperating
    /// through a [`SharedBound`], so a shard that already found `k` close
    /// neighbors shrinks every other shard's search. The merged answer is
    /// exactly the single-tree (canonical) k-NN result.
    pub fn knn(&self, q: &Signature, k: usize, metric: &Metric) -> (Vec<Neighbor>, ExecStats) {
        let started = Instant::now();
        let q = Arc::new(q.clone());
        let m = *metric;
        let bound = Arc::new(SharedBound::new());
        let (parts, per_shard) = self.fan_out(Arc::new(move |tree: &SgTree| {
            tree.knn_shared(&q, k, &m, &bound)
        }));
        let out = self.finish(started, per_shard, || merge::merge_knn(parts, k));
        self.inner.record_cost(
            "knn",
            started.elapsed().as_nanos() as u64,
            &out.1.total.resources,
        );
        out
    }

    /// Global similarity range query (distance ≤ `eps`).
    pub fn range(&self, q: &Signature, eps: f64, metric: &Metric) -> (Vec<Neighbor>, ExecStats) {
        let started = Instant::now();
        let q = Arc::new(q.clone());
        let m = *metric;
        let (parts, per_shard) =
            self.fan_out(Arc::new(move |tree: &SgTree| tree.range(&q, eps, &m)));
        let out = self.finish(started, per_shard, || merge::merge_range(parts));
        self.inner.record_cost(
            "range",
            started.elapsed().as_nanos() as u64,
            &out.1.total.resources,
        );
        out
    }

    /// Transactions whose signature is a superset of `q`.
    pub fn containing(&self, q: &Signature) -> (Vec<Tid>, ExecStats) {
        let started = Instant::now();
        let q = Arc::new(q.clone());
        let (parts, per_shard) = self.fan_out(Arc::new(move |tree: &SgTree| tree.containing(&q)));
        let out = self.finish(started, per_shard, || merge::merge_tids(parts));
        self.inner.record_cost(
            "containing",
            started.elapsed().as_nanos() as u64,
            &out.1.total.resources,
        );
        out
    }

    /// Transactions whose signature is a subset of `q`.
    pub fn contained_in(&self, q: &Signature) -> (Vec<Tid>, ExecStats) {
        let started = Instant::now();
        let q = Arc::new(q.clone());
        let (parts, per_shard) = self.fan_out(Arc::new(move |tree: &SgTree| tree.contained_in(&q)));
        let out = self.finish(started, per_shard, || merge::merge_tids(parts));
        self.inner.record_cost(
            "contained_in",
            started.elapsed().as_nanos() as u64,
            &out.1.total.resources,
        );
        out
    }

    /// Transactions whose signature equals `q` exactly.
    pub fn exact(&self, q: &Signature) -> (Vec<Tid>, ExecStats) {
        let started = Instant::now();
        let q = Arc::new(q.clone());
        let (parts, per_shard) = self.fan_out(Arc::new(move |tree: &SgTree| tree.exact(&q)));
        let out = self.finish(started, per_shard, || merge::merge_tids(parts));
        self.inner.record_cost(
            "exact",
            started.elapsed().as_nanos() as u64,
            &out.1.total.resources,
        );
        out
    }

    /// Runs a batch of heterogeneous queries through the pool, pipelined:
    /// all `queries.len() × shards` shard-tasks are enqueued up front, and
    /// whichever task finishes a query last performs that query's merge.
    /// Results come back in input order.
    pub fn execute_batch(&self, queries: Vec<QueryRequest>) -> Vec<SgResult<QueryResponse>> {
        let items = queries
            .into_iter()
            .map(|q| (q, CancelFlag::new()))
            .collect();
        self.execute_batch_cancellable(items)
    }

    /// [`ShardedExecutor::execute_batch`] with a per-query [`CancelFlag`].
    ///
    /// A query whose flag is cancelled before all of its shard tasks ran
    /// skips the remaining shard work and its merge, and reports
    /// [`SgError::Cancelled`] in its output slot. A query whose signature
    /// does not match the executor's width reports [`SgError::Invalid`]
    /// without running at all.
    pub fn execute_batch_cancellable(
        &self,
        queries: Vec<(QueryRequest, CancelFlag)>,
    ) -> Vec<SgResult<QueryResponse>> {
        let items = queries
            .into_iter()
            .map(|(q, cancel)| {
                (
                    q,
                    QueryOptions {
                        cancel: Some(cancel),
                        ..QueryOptions::default()
                    },
                )
            })
            .collect();
        self.execute_batch_with(items)
    }

    /// [`ShardedExecutor::execute_batch_cancellable`] with full per-query
    /// [`QueryOptions`]: cancellation, a deadline, EXPLAIN tracing (the
    /// merged response carries a parent trace whose children are the
    /// per-shard traces), and a causal span parent under which each shard
    /// task records an `exec.shard` span and the merge an `exec.merge`
    /// span.
    pub fn execute_batch_with(
        &self,
        queries: Vec<(QueryRequest, QueryOptions)>,
    ) -> Vec<SgResult<QueryResponse>> {
        let n_shards = self.shards();
        let n_queries = queries.len();
        if n_queries == 0 {
            return Vec::new();
        }
        if let Some(obs) = self.inner.obs.get() {
            obs.batches.inc();
        }
        let (tx, rx) = mpsc::channel();
        let mut resolved: Vec<Option<SgResult<QueryResponse>>> =
            (0..n_queries).map(|_| None).collect();
        let mut submitted = 0usize;
        for (qi, (query, opts)) in queries.into_iter().enumerate() {
            if let Err(e) = self.check_sig(query.signature()) {
                resolved[qi] = Some(Err(e));
                continue;
            }
            submitted += 1;
            let state = Arc::new(BatchState {
                parts: Mutex::new((0..n_shards).map(|_| None).collect()),
                remaining: AtomicUsize::new(n_shards),
                started: Instant::now(),
                cancel: opts.cancel.clone().unwrap_or_default(),
                trace: opts.trace,
                deadline: opts.deadline,
                span: opts.span,
            });
            let query = Arc::new(query);
            let bound = Arc::new(SharedBound::new());
            for si in 0..n_shards {
                let inner = Arc::clone(&self.inner);
                let state = Arc::clone(&state);
                let query = Arc::clone(&query);
                let bound = Arc::clone(&bound);
                let tx = tx.clone();
                self.pool.submit(move || {
                    let part = if state.cancel.is_cancelled() {
                        if let Some(p) = state.span {
                            // Record the skip so a cancelled request's
                            // trace shows where work stopped.
                            span::emit(
                                p.trace_id,
                                p.span_id,
                                "exec.shard",
                                "exec",
                                span::now_ns(),
                                0,
                                &[("shard", si as u64), ("cancelled", 1)],
                            );
                        }
                        None
                    } else {
                        let mut sp = state.span.map(|p| {
                            let mut s = Span::with_parent(Some(p), "exec.shard", "exec");
                            s.attr("shard", si as u64);
                            s
                        });
                        let st = inner.shards[si].state.read();
                        let opts = QueryOptions {
                            trace: state.trace,
                            cancel: Some(state.cancel.clone()),
                            deadline: state.deadline,
                            span: None,
                        };
                        match st.tree.query_shared(&query, &opts, &bound) {
                            Ok(resp) => {
                                inner.record_shard(si, &resp.stats);
                                if let Some(s) = sp.as_mut() {
                                    s.attr("nodes", resp.stats.nodes_accessed);
                                }
                                Some((resp.output, resp.stats, resp.trace))
                            }
                            Err(_) => None, // cancelled mid-flight
                        }
                    };
                    {
                        let mut parts = state.parts.lock().expect("batch state poisoned");
                        parts[si] = part;
                    }
                    if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        let result = finish_batch_query(&inner, &state, &query);
                        let _ = tx.send((qi, result));
                    }
                });
            }
        }
        drop(tx);
        if submitted > 0 {
            for (qi, result) in rx {
                resolved[qi] = Some(result);
            }
        }
        resolved
            .into_iter()
            .map(|r| r.expect("every batch query reports"))
            .collect()
    }
}

/// Handle to the background checkpointer thread spawned by
/// [`ShardedExecutor::start_checkpointer`]. Dropping it stops the thread
/// (waiting for any in-flight checkpoint to finish).
pub struct Checkpointer {
    stop: Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Checkpointer {
    /// Stops the checkpointer and waits for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl SetIndex for ShardedExecutor {
    fn name(&self) -> &'static str {
        "sg-exec"
    }

    fn len(&self) -> u64 {
        ShardedExecutor::len(self)
    }

    fn nbits(&self) -> u32 {
        ShardedExecutor::nbits(self)
    }

    fn insert(&mut self, tid: Tid, sig: &Signature) -> SgResult<()> {
        ShardedExecutor::insert(self, tid, sig).map(|_| ())
    }

    fn delete(&mut self, tid: Tid, sig: &Signature) -> SgResult<bool> {
        self.check_sig(sig)?;
        self.delete_matching(tid, Some(sig)).map(|ack| ack.applied)
    }

    fn query(&self, req: &QueryRequest, opts: &QueryOptions) -> SgResult<QueryResponse> {
        ShardedExecutor::query(self, req, opts)
    }
}

/// Merges per-shard outputs into the canonical global answer for `req`.
fn merge_outputs(req: &QueryRequest, outputs: Vec<QueryOutput>) -> QueryOutput {
    let mut neighbor_parts = Vec::new();
    let mut tid_parts = Vec::new();
    for out in outputs {
        match out {
            QueryOutput::Neighbors(v) => neighbor_parts.push(v),
            QueryOutput::Tids(v) => tid_parts.push(v),
        }
    }
    match req {
        QueryRequest::Knn { k, .. } => QueryOutput::Neighbors(merge::merge_knn(neighbor_parts, *k)),
        QueryRequest::Range { .. } => QueryOutput::Neighbors(merge::merge_range(neighbor_parts)),
        QueryRequest::Containing { .. }
        | QueryRequest::ContainedIn { .. }
        | QueryRequest::Exact { .. } => QueryOutput::Tids(merge::merge_tids(tid_parts)),
    }
}

/// One shard's contribution to a batched query: its partial output,
/// stats, and (when tracing) per-shard EXPLAIN subtree.
type ShardPart = (QueryOutput, QueryStats, Option<QueryTrace>);

struct BatchState {
    parts: Mutex<Vec<Option<ShardPart>>>,
    remaining: AtomicUsize,
    started: Instant,
    cancel: CancelFlag,
    trace: bool,
    deadline: Option<Instant>,
    span: Option<SpanCtx>,
}

/// Runs on whichever worker finished a batch query's last shard-task:
/// merges the per-shard parts and records executor metrics. Reports
/// [`SgError::Cancelled`] (skipping the merge) if any shard task was
/// skipped by cancellation.
fn finish_batch_query(
    inner: &Inner,
    state: &BatchState,
    query: &QueryRequest,
) -> SgResult<QueryResponse> {
    let raw: Vec<Option<ShardPart>> = state
        .parts
        .lock()
        .expect("batch state poisoned")
        .drain(..)
        .collect();
    if raw.iter().any(|p| p.is_none()) {
        // At least one shard observed the cancel flag: the answer would be
        // incomplete, and nobody is waiting for it anyway.
        return Err(SgError::Cancelled);
    }
    let n_shards = raw.len();
    let mut per_shard = Vec::with_capacity(raw.len());
    let mut outputs = Vec::with_capacity(raw.len());
    let mut children = Vec::with_capacity(raw.len());
    for (out, stats, trace) in raw.into_iter().flatten() {
        per_shard.push(stats);
        outputs.push(out);
        children.push(trace);
    }
    let m0 = Instant::now();
    let merge_start_ns = span::now_ns();
    let output = merge_outputs(query, outputs);
    let merge_ns = m0.elapsed().as_nanos() as u64;
    if let Some(p) = state.span {
        span::emit(
            p.trace_id,
            p.span_id,
            "exec.merge",
            "exec",
            merge_start_ns,
            merge_ns,
            &[
                ("shards", n_shards as u64),
                ("results", output.len() as u64),
            ],
        );
    }
    let mut stats = ExecStats::from_shards(per_shard);
    stats.merge_ns = merge_ns;
    if let Some(obs) = inner.obs.get() {
        obs.queries.inc();
        obs.query_ns
            .record(state.started.elapsed().as_nanos() as u64);
        obs.merge_ns.record(merge_ns);
    }
    inner.record_cost(
        query.kind(),
        state.started.elapsed().as_nanos() as u64,
        &stats.total.resources,
    );
    let trace = if state.trace {
        let mut trace = QueryTrace::new(format!("{} shards={n_shards}", query.label()), "sg-exec");
        trace.nodes_accessed = stats.total.nodes_accessed;
        trace.data_compared = stats.total.data_compared;
        trace.dist_computations = stats.total.dist_computations;
        trace.logical_reads = stats.total.io.logical_reads;
        trace.physical_reads = stats.total.io.physical_reads;
        trace.duration_ns = state.started.elapsed().as_nanos() as u64;
        trace.results = output.len() as u64;
        for child in children.into_iter().flatten() {
            trace.push_child(child);
        }
        Some(trace)
    } else {
        None
    };
    Ok(QueryResponse {
        output,
        stats: stats.total,
        per_shard: stats.per_shard,
        merge_ns,
        trace,
    })
}

// The executor is shared across caller threads; fail the build if a
// non-thread-safe field ever sneaks in.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedExecutor>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sig(nbits: u32, items: &[u32]) -> Signature {
        Signature::from_items(nbits, items)
    }

    fn sample(n: u64, nbits: u32) -> Vec<(Tid, Signature)> {
        (0..n)
            .map(|tid| {
                let base = (tid % 4) as u32 * 8;
                (
                    tid,
                    sig(
                        nbits,
                        &[base + (tid % 5) as u32, base + (tid % 3) as u32 + 1],
                    ),
                )
            })
            .collect()
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sg-exec-test-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Reference answer: brute-force exact matches over `data`.
    fn oracle_exact(data: &[(Tid, Signature)], q: &Signature) -> Vec<Tid> {
        let mut tids: Vec<Tid> = data
            .iter()
            .filter(|(_, s)| s == q)
            .map(|(t, _)| *t)
            .collect();
        tids.sort_unstable();
        tids
    }

    #[test]
    fn health_reports_cover_every_shard_and_merge() {
        let nbits = 64;
        let data = sample(400, nbits);
        let exec = ShardedExecutor::build(nbits, &data, &ExecConfig::default()).unwrap();
        let registry = Registry::new();
        exec.register_obs(&registry, "exec");
        let reports = exec.health_reports();
        assert_eq!(reports.len(), exec.shards());
        assert_eq!(reports.iter().map(|r| r.len).sum::<u64>(), 400);
        for r in &reports {
            assert_eq!(r.nbits, nbits);
            for l in &r.levels {
                assert!((0.0..=1.0).contains(&l.avg_saturation));
                assert!((0.0..=1.0).contains(&l.est_false_drop));
            }
        }
        let doc = exec.health_json();
        let text = doc.to_string_compact();
        let parsed = sg_obs::json::parse(&text).unwrap();
        let shards = parsed.get("shards").and_then(Json::as_arr).unwrap();
        assert_eq!(shards.len(), exec.shards());
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.get("shard").and_then(Json::as_u64), Some(i as u64));
            assert!(s.get("visits").and_then(Json::as_u64).is_some());
            assert!(s.get("report").and_then(|r| r.get("levels")).is_some());
        }
        let summary = parsed.get("summary").unwrap();
        assert_eq!(summary.get("len").and_then(Json::as_u64), Some(400));
        assert!(parsed
            .get("observed")
            .and_then(|o| o.get("traces"))
            .and_then(Json::as_u64)
            .is_some());
        // Traced queries feed the observed per-level aggregates.
        let (traces_before, _) = sg_obs::trace_level_aggregates();
        let q = sig(nbits, &[1, 9]);
        let r = exec
            .query(
                &QueryRequest::Knn {
                    q,
                    k: 5,
                    metric: Metric::hamming(),
                },
                &QueryOptions {
                    trace: true,
                    ..QueryOptions::default()
                },
            )
            .unwrap();
        sg_obs::record_trace_levels(r.trace.as_ref().expect("trace requested"));
        let (traces_after, levels) = sg_obs::trace_level_aggregates();
        assert_eq!(traces_after, traces_before + 1);
        assert!(
            levels.iter().any(|l| l.nodes_visited > 0),
            "expected visits in {levels:?}"
        );
    }

    #[test]
    fn live_writes_show_up_in_queries() {
        let nbits = 64;
        let exec = ShardedExecutor::build(nbits, &[], &ExecConfig::default()).unwrap();
        let mut data = Vec::new();
        for (tid, s) in sample(40, nbits) {
            let ack = exec.insert(tid, &s).unwrap();
            assert!(ack.applied);
            data.push((tid, s));
        }
        assert_eq!(exec.len(), 40);
        for probe in [
            sig(nbits, &[0, 1]),
            sig(nbits, &[8, 9]),
            sig(nbits, &[1, 2]),
        ] {
            let resp = exec
                .query(
                    &QueryRequest::Exact { q: probe.clone() },
                    &QueryOptions::default(),
                )
                .unwrap();
            assert_eq!(resp.output.tids().unwrap(), oracle_exact(&data, &probe));
        }
        // Delete a few and re-check.
        for tid in [0u64, 7, 13] {
            assert!(exec.delete(tid).unwrap().applied);
            data.retain(|(t, _)| *t != tid);
        }
        assert!(!exec.delete(999).unwrap().applied);
        assert_eq!(exec.len(), 37);
        for probe in [sig(nbits, &[0, 1]), sig(nbits, &[8, 9])] {
            let resp = exec
                .query(
                    &QueryRequest::Exact { q: probe.clone() },
                    &QueryOptions::default(),
                )
                .unwrap();
            assert_eq!(resp.output.tids().unwrap(), oracle_exact(&data, &probe));
        }
    }

    #[test]
    fn duplicate_insert_is_rejected_everywhere() {
        let nbits = 64;
        let data = sample(20, nbits);
        // Bulk-loaded data is placed positionally, so some tids live off
        // their routed shard — the duplicate check must still find them.
        for partitioner in [Partitioner::RoundRobin, Partitioner::SignatureClustered] {
            let exec = ShardedExecutor::build(
                nbits,
                &data,
                &ExecConfig {
                    shards: 3,
                    partitioner,
                    ..ExecConfig::default()
                },
            )
            .unwrap();
            for tid in 0..20u64 {
                assert!(exec.insert(tid, &sig(nbits, &[1])).is_err(), "tid {tid}");
            }
            assert_eq!(exec.len(), 20);
        }
    }

    #[test]
    fn upsert_replaces_and_relocates() {
        let nbits = 64;
        let data = sample(20, nbits);
        let exec = ShardedExecutor::build(
            nbits,
            &data,
            &ExecConfig {
                shards: 3,
                ..ExecConfig::default()
            },
        )
        .unwrap();
        let fresh = sig(nbits, &[60, 61]);
        // Replace every bulk-loaded signature (many live off their routed
        // shard, exercising the relocation path), then verify exactly the
        // 20 upserted tids answer the probe.
        for tid in 0..20u64 {
            assert!(exec.upsert(tid, &fresh).unwrap().applied);
        }
        assert_eq!(exec.len(), 20);
        let resp = exec
            .query(
                &QueryRequest::Exact { q: fresh.clone() },
                &QueryOptions::default(),
            )
            .unwrap();
        assert_eq!(resp.output.tids().unwrap(), (0..20u64).collect::<Vec<_>>());
        // Upsert of a brand-new tid inserts.
        assert!(exec.upsert(100, &fresh).unwrap().applied);
        assert_eq!(exec.len(), 21);
    }

    #[test]
    fn write_batch_group_commits_in_input_order() {
        let nbits = 64;
        let exec = ShardedExecutor::build(nbits, &[], &ExecConfig::default()).unwrap();
        let s = |i: u64| sig(nbits, &[(i % 60) as u32, ((i * 7) % 60) as u32]);
        let mut ops: Vec<WriteOp> = (0..50u64)
            .map(|tid| WriteOp::Insert { tid, sig: s(tid) })
            .collect();
        ops.push(WriteOp::Delete { tid: 3 });
        ops.push(WriteOp::Upsert {
            tid: 4,
            sig: s(400),
        });
        ops.push(WriteOp::Delete { tid: 777 }); // missing → applied=false
        let results = exec.write_batch(ops);
        assert_eq!(results.len(), 53);
        for r in &results[..50] {
            assert!(r.as_ref().unwrap().applied);
        }
        assert!(results[50].as_ref().unwrap().applied);
        assert!(results[51].as_ref().unwrap().applied);
        assert!(!results[52].as_ref().unwrap().applied);
        assert_eq!(exec.len(), 49);
        // A duplicate insert inside a batch fails its slot only.
        let again = exec.write_batch(vec![
            WriteOp::Insert { tid: 5, sig: s(5) },
            WriteOp::Insert {
                tid: 500,
                sig: s(500),
            },
        ]);
        assert!(again[0].is_err());
        assert!(again[1].as_ref().unwrap().applied);
    }

    #[test]
    fn durable_executor_recovers_acknowledged_writes() {
        let nbits = 64;
        let dir = tmpdir("recover");
        let durability = DurabilityConfig::os_only(&dir);
        let config = ExecConfig {
            shards: 3,
            ..ExecConfig::default()
        };
        let mut expect: Vec<(Tid, Signature)> = Vec::new();
        {
            let exec = ShardedExecutor::open_durable(nbits, &config, &durability).unwrap();
            assert_eq!(exec.recovery().unwrap().replayed, 0);
            for (tid, s) in sample(30, nbits) {
                let ack = exec.insert(tid, &s).unwrap();
                assert!(ack.lsn.is_some(), "durable writes carry an LSN");
                expect.push((tid, s));
            }
            exec.delete(5).unwrap();
            expect.retain(|(t, _)| *t != 5);
            // No flush/checkpoint: recovery must come from the WAL alone.
        }
        {
            let exec = ShardedExecutor::open_durable(nbits, &config, &durability).unwrap();
            let rec = exec.recovery().unwrap();
            assert_eq!(rec.wal_records, 31, "30 inserts + 1 delete replayed");
            assert_eq!(exec.len(), 29);
            let mut dumped: Vec<(Tid, Signature)> = (0..exec.shards())
                .flat_map(|i| exec.with_shard(i, |t| t.dump()))
                .collect();
            dumped.sort_by_key(|(t, _)| *t);
            let mut want = expect.clone();
            want.sort_by_key(|(t, _)| *t);
            assert_eq!(dumped, want, "recovered state == acknowledged writes");
            // Checkpoint, write more, crash again: snapshot + tail replay.
            exec.checkpoint().unwrap();
            exec.insert(100, &sig(nbits, &[9, 10])).unwrap();
            expect.push((100, sig(nbits, &[9, 10])));
        }
        {
            let exec = ShardedExecutor::open_durable(nbits, &config, &durability).unwrap();
            let rec = exec.recovery().unwrap();
            assert_eq!(
                rec.wal_records, 1,
                "only the post-checkpoint insert replays"
            );
            assert_eq!(rec.replayed, 30, "29 snapshot entries + 1 WAL record");
            assert_eq!(exec.len(), 30);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mmap_executor_recovers_from_store_plus_wal_tail() {
        let nbits = 64;
        let dir = tmpdir("mmap-recover");
        let durability = DurabilityConfig::os_only(&dir);
        let config = ExecConfig {
            shards: 3,
            ..ExecConfig::default()
        };
        let mut expect: Vec<(Tid, Signature)> = Vec::new();
        {
            let exec = ShardedExecutor::open_durable(nbits, &config, &durability).unwrap();
            assert_eq!(exec.store_stats().len(), 3, "every shard has a page store");
            assert_eq!(exec.recovery().unwrap().replayed, 0);
            for (tid, s) in sample(30, nbits) {
                let ack = exec.insert(tid, &s).unwrap();
                assert!(ack.lsn.is_some(), "durable writes carry an LSN");
                expect.push((tid, s));
            }
            exec.delete(5).unwrap();
            exec.upsert(6, &sig(nbits, &[50, 51])).unwrap();
            expect.retain(|(t, _)| *t != 5 && *t != 6);
            expect.push((6, sig(nbits, &[50, 51])));
            // No checkpoint: recovery must come from the WAL tail alone.
        }
        {
            let exec = ShardedExecutor::open_durable(nbits, &config, &durability).unwrap();
            let rec = exec.recovery().unwrap();
            assert_eq!(rec.wal_records, 32, "30 inserts + delete + upsert");
            assert_eq!(rec.snapshot_entries, 0, "nothing was checkpointed yet");
            assert_eq!(exec.len(), 29);
            let mut dumped: Vec<(Tid, Signature)> = (0..exec.shards())
                .flat_map(|i| exec.with_shard(i, |t| t.dump()))
                .collect();
            dumped.sort_by_key(|(t, _)| *t);
            let mut want = expect.clone();
            want.sort_by_key(|(t, _)| *t);
            assert_eq!(dumped, want, "recovered state == acknowledged writes");
            // Checkpoint (one meta-page flip per shard), write one more,
            // crash again: only the tail past the flip may replay.
            exec.checkpoint().unwrap();
            exec.insert(100, &sig(nbits, &[9, 10])).unwrap();
            expect.push((100, sig(nbits, &[9, 10])));
        }
        {
            let exec = ShardedExecutor::open_durable(nbits, &config, &durability).unwrap();
            let rec = exec.recovery().unwrap();
            assert_eq!(
                rec.wal_records, 1,
                "only the post-checkpoint insert replays"
            );
            assert_eq!(
                rec.snapshot_entries, 29,
                "the rest is restored from the committed page store"
            );
            assert_eq!(exec.len(), 30);
            let mut dumped: Vec<(Tid, Signature)> = (0..exec.shards())
                .flat_map(|i| exec.with_shard(i, |t| t.dump()))
                .collect();
            dumped.sort_by_key(|(t, _)| *t);
            expect.sort_by_key(|(t, _)| *t);
            assert_eq!(dumped, expect);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression test: `ingest_replayed` must count only WAL *tail*
    /// records actually re-applied on open, not entries restored from a
    /// checkpoint (the old accounting folded both in, so a freshly
    /// checkpointed reopen looked like a full replay).
    #[test]
    fn ingest_replayed_counts_only_the_wal_tail() {
        let nbits = 64;
        let dir = tmpdir("replay-count");
        let durability = DurabilityConfig::os_only(&dir);
        let config = ExecConfig {
            shards: 2,
            ..ExecConfig::default()
        };
        {
            let exec = ShardedExecutor::open_durable(nbits, &config, &durability).unwrap();
            for (tid, s) in sample(20, nbits) {
                exec.insert(tid, &s).unwrap();
            }
            exec.checkpoint().unwrap();
            exec.insert(100, &sig(nbits, &[9, 10])).unwrap();
            exec.insert(101, &sig(nbits, &[9, 11])).unwrap();
        }
        let exec = ShardedExecutor::open_durable(nbits, &config, &durability).unwrap();
        let registry = Registry::new();
        let obs = exec.register_ingest_obs(&registry, "ingest");
        assert_eq!(
            obs.replayed.get(),
            2,
            "only the two post-checkpoint inserts count as replayed"
        );
        assert_eq!(obs.snapshot_entries.get(), 20);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mmap_live_writes_are_visible_through_snapshot_views() {
        let nbits = 64;
        let dir = tmpdir("mmap-live");
        let durability = DurabilityConfig::os_only(&dir);
        let config = ExecConfig {
            shards: 2,
            ..ExecConfig::default()
        };
        let exec = ShardedExecutor::open_durable(nbits, &config, &durability).unwrap();
        let mut data = Vec::new();
        for (tid, s) in sample(40, nbits) {
            assert!(exec.insert(tid, &s).unwrap().applied);
            data.push((tid, s));
        }
        // Queries run on published snapshot views, so every acknowledged
        // write must already be visible.
        for probe in [
            sig(nbits, &[0, 1]),
            sig(nbits, &[8, 9]),
            sig(nbits, &[16, 17]),
        ] {
            let resp = exec
                .query(
                    &QueryRequest::Exact { q: probe.clone() },
                    &QueryOptions::default(),
                )
                .unwrap();
            assert_eq!(resp.output.tids().unwrap(), oracle_exact(&data, &probe));
        }
        // Deletes and upserts republish too.
        let gone = data[7].clone();
        assert!(exec.delete(gone.0).unwrap().applied);
        data.retain(|(t, _)| *t != gone.0);
        let resp = exec
            .query(
                &QueryRequest::Exact { q: gone.1.clone() },
                &QueryOptions::default(),
            )
            .unwrap();
        assert_eq!(resp.output.tids().unwrap(), oracle_exact(&data, &gone.1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn background_checkpointer_truncates_the_wal() {
        let nbits = 64;
        let dir = tmpdir("mmap-ckpt");
        let durability = DurabilityConfig::os_only(&dir);
        let config = ExecConfig {
            shards: 2,
            ..ExecConfig::default()
        };
        {
            let exec =
                Arc::new(ShardedExecutor::open_durable(nbits, &config, &durability).unwrap());
            for (tid, s) in sample(25, nbits) {
                exec.insert(tid, &s).unwrap();
            }
            let ckpt = exec.start_checkpointer(std::time::Duration::from_millis(10));
            // Wait for at least one commit to land on every shard.
            let deadline = Instant::now() + std::time::Duration::from_secs(10);
            loop {
                let stats = exec.store_stats();
                if stats.iter().all(|s| s.tx_id > 0) {
                    break;
                }
                assert!(Instant::now() < deadline, "checkpointer never committed");
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            ckpt.stop();
        }
        let exec = ShardedExecutor::open_durable(nbits, &config, &durability).unwrap();
        let rec = exec.recovery().unwrap();
        assert_eq!(rec.wal_records, 0, "the WAL was folded into the store");
        assert_eq!(rec.snapshot_entries, 25);
        assert_eq!(exec.len(), 25);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_reopen_refuses_nbits_mismatch() {
        let dir = tmpdir("meta");
        let durability = DurabilityConfig::os_only(&dir);
        let config = ExecConfig::default();
        {
            ShardedExecutor::open_durable(64, &config, &durability).unwrap();
        }
        let err = match ShardedExecutor::open_durable(128, &config, &durability) {
            Err(e) => e,
            Ok(_) => panic!("nbits mismatch must be refused"),
        };
        assert!(matches!(err, SgError::BadMeta(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_reopen_keeps_stored_layout() {
        let nbits = 64;
        let dir = tmpdir("layout");
        let durability = DurabilityConfig::os_only(&dir);
        {
            let exec = ShardedExecutor::open_durable(
                nbits,
                &ExecConfig {
                    shards: 5,
                    partitioner: Partitioner::SignatureClustered,
                    ..ExecConfig::default()
                },
                &durability,
            )
            .unwrap();
            exec.insert(1, &sig(nbits, &[1, 2])).unwrap();
        }
        // Reopening with a different config must honor the on-disk layout.
        let exec = ShardedExecutor::open_durable(
            nbits,
            &ExecConfig {
                shards: 2,
                partitioner: Partitioner::RoundRobin,
                ..ExecConfig::default()
            },
            &durability,
        )
        .unwrap();
        assert_eq!(exec.shards(), 5);
        assert_eq!(exec.partitioner(), Partitioner::SignatureClustered);
        assert_eq!(exec.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A directory left by the retired heap storage mode keeps its rows in
    /// `shard-NNN.ckpt` snapshots whose WAL records were truncated. Opening
    /// it over fresh page files would drop every checkpointed row, so the
    /// open must fail naming the file, before it writes anything.
    #[test]
    fn durable_open_refuses_a_heap_checkpoint_directory() {
        let dir = tmpdir("heap-ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        crate::shard::write_meta(&dir, 64, 4, Partitioner::RoundRobin).unwrap();
        let meta = std::fs::read(dir.join("meta.bin")).unwrap();
        std::fs::write(dir.join("shard-001.ckpt"), b"SGSNAP01").unwrap();
        let err = match ShardedExecutor::open_durable(
            64,
            &ExecConfig::default(),
            &DurabilityConfig::os_only(&dir),
        ) {
            Err(e) => e,
            Ok(_) => panic!("a heap checkpoint directory must be refused"),
        };
        assert!(matches!(err, SgError::BadMeta(_)), "{err}");
        assert!(err.to_string().contains("shard-001.ckpt"), "{err}");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            !names.iter().any(|n| n.ends_with(".pages")),
            "no page file may be created: {names:?}"
        );
        assert_eq!(std::fs::read(dir.join("meta.bin")).unwrap(), meta);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn set_index_object_mutates_and_queries() {
        let nbits = 64;
        let exec = ShardedExecutor::build(nbits, &[], &ExecConfig::default()).unwrap();
        let mut idx: Box<dyn SetIndex> = Box::new(exec);
        let s = sig(nbits, &[1, 2, 3]);
        idx.insert(7, &s).unwrap();
        assert_eq!(idx.len(), 1);
        let resp = idx
            .query(
                &QueryRequest::Exact { q: s.clone() },
                &QueryOptions::default(),
            )
            .unwrap();
        assert_eq!(resp.output.tids().unwrap(), &[7]);
        // delete with the wrong signature is a no-op…
        assert!(!idx.delete(7, &sig(nbits, &[4])).unwrap());
        // …with the right one it lands.
        assert!(idx.delete(7, &s).unwrap());
        assert!(idx.is_empty());
    }

    #[test]
    fn concurrent_writers_and_readers_stay_sound() {
        use std::sync::atomic::AtomicU64;
        let nbits = 64;
        let exec = Arc::new(
            ShardedExecutor::build(
                nbits,
                &[],
                &ExecConfig {
                    shards: 4,
                    threads: 8,
                    ..ExecConfig::default()
                },
            )
            .unwrap(),
        );
        let probe = sig(nbits, &[1, 2]);
        let acked = Arc::new(AtomicU64::new(0)); // tids 0..acked are acknowledged
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let exec = Arc::clone(&exec);
                let acked = Arc::clone(&acked);
                let probe = probe.clone();
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        let tid = w * 1000 + i;
                        exec.insert(tid, &probe).unwrap();
                        acked.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let exec = Arc::clone(&exec);
                let acked = Arc::clone(&acked);
                let probe = probe.clone();
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        let before = acked.load(Ordering::SeqCst);
                        let resp = exec
                            .query(
                                &QueryRequest::Exact { q: probe.clone() },
                                &QueryOptions::default(),
                            )
                            .unwrap();
                        let n = resp.output.tids().unwrap().len() as u64;
                        let after = acked.load(Ordering::SeqCst);
                        // Soundness + monotonic visibility: the answer holds
                        // at least every write acked before the query began,
                        // and nothing that was never submitted.
                        assert!(n >= before, "saw {n} < {before} acked");
                        assert!(n <= after + 4, "saw {n} > {after} acked (+4 in flight)");
                    }
                })
            })
            .collect();
        for t in writers {
            t.join().unwrap();
        }
        for t in readers {
            t.join().unwrap();
        }
        assert_eq!(exec.len(), 200);
    }
}
