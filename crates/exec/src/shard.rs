//! One shard of the executor: a reader-writer protected SG-tree plus an
//! optional durability sidecar (write-ahead log + mmap'd page store).
//!
//! ## Concurrency
//!
//! Each shard is an independent [`parking_lot::RwLock`] over
//! `{ tree, catalog }`. Queries take the read lock for the duration of one
//! shard task, so every query sees an atomic snapshot of that shard while
//! writers mutate other shards (or wait their turn on this one). Writers
//! take the write lock, log to the WAL, apply, and release — a write is
//! observable only after its WAL record is on disk, so an acknowledged
//! write is always recoverable.
//!
//! Lock order (deadlock freedom): the state lock is always acquired
//! **before** the WAL mutex, and no thread ever holds two shards' state
//! locks at once — cross-shard operations (legacy-placement upserts)
//! decompose into single-shard steps.
//!
//! ## Durability
//!
//! A durable shard owns `shard-NNN.wal` (CRC-framed redo log, see
//! [`sg_pager::Wal`]) over `shard-NNN.pages`, an [`sg_store::CowStore`]:
//! the tree's node pages live in a memory-mapped copy-on-write page file.
//! [`Shard::checkpoint`] is a single dual-meta-page flip
//! ([`CowStore::commit`] with the WAL's next LSN as the watermark)
//! followed by a log truncation, and reopen replays only the WAL tail
//! past that watermark — restart cost is O(tail), not O(dataset). A
//! crash between the flip and the truncation merely leaves records the
//! commit already covers; replay skips anything below the watermark, so
//! recovery is idempotent. After every applied batch the shard
//! *publishes* the store and re-opens a read-only tree view over a
//! pinned [`sg_store::Snapshot`]; [`Shard::read_view`] hands that view to
//! queries that should not take this shard's state lock.

use crate::partition::Partitioner;
use parking_lot::{Mutex, RwLock};
use sg_obs::IngestObs;
use sg_pager::{FsyncPolicy, PageStore, SgError, SgResult, Wal, WalOp};
use sg_sig::{codec, Signature};
use sg_store::CowStore;
use sg_tree::{SgTree, Tid, TreeConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Where (and how hard) a durable executor persists its writes.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the meta file plus one WAL + page file per shard.
    pub dir: PathBuf,
    /// `Always` fsyncs every group commit (survives power loss); `OsOnly`
    /// leaves flushing to the OS (survives process kill, not power loss).
    pub fsync: FsyncPolicy,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with per-commit fsync.
    pub fn mmap(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
        }
    }

    /// Same, but leaving flushing to the OS page cache.
    pub fn os_only(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::OsOnly,
        }
    }
}

/// One mutation bound for a shard, routed by tid.
#[derive(Debug, Clone)]
pub enum WriteOp {
    /// Add a new transaction; rejects a tid that is already indexed.
    Insert {
        /// Transaction id.
        tid: Tid,
        /// Its signature.
        sig: Signature,
    },
    /// Remove a transaction by id; a missing tid is not an error
    /// (`applied` comes back `false`).
    Delete {
        /// Transaction id.
        tid: Tid,
    },
    /// Insert-or-replace a transaction.
    Upsert {
        /// Transaction id.
        tid: Tid,
        /// Its new signature.
        sig: Signature,
    },
}

impl WriteOp {
    /// The tid the op targets.
    pub fn tid(&self) -> Tid {
        match self {
            WriteOp::Insert { tid, .. } | WriteOp::Delete { tid } | WriteOp::Upsert { tid, .. } => {
                *tid
            }
        }
    }

    /// The signature carried by the op, if any.
    pub fn signature(&self) -> Option<&Signature> {
        match self {
            WriteOp::Insert { sig, .. } | WriteOp::Upsert { sig, .. } => Some(sig),
            WriteOp::Delete { .. } => None,
        }
    }
}

/// Acknowledgement of one [`WriteOp`]. Once returned, the write is as
/// durable as the shard's [`FsyncPolicy`] promises.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteAck {
    /// The tid the op targeted.
    pub tid: Tid,
    /// Whether the index changed (`false` only for a delete of a missing
    /// tid).
    pub applied: bool,
    /// LSN of the WAL record that covers the op; `None` for a memory-only
    /// executor or an op that logged nothing (no-op delete).
    pub lsn: Option<u64>,
}

/// What [`Shard::open_durable`] recovered, aggregated per executor into
/// [`crate::ShardedExecutor::recovery`].
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Entries restored on open: committed entries + replayed WAL records.
    pub replayed: u64,
    /// Entries restored from the committed page stores *without*
    /// replaying a log record.
    pub snapshot_entries: u64,
    /// Of which, records replayed from WALs (past the commit watermark).
    pub wal_records: u64,
    /// Torn/corrupt WAL tail bytes discarded across all shards.
    pub truncated_bytes: u64,
    /// Per-shard replay wall time, ns.
    pub replay_ns: Vec<u64>,
}

/// Per-shard recovery outcome, folded into a [`RecoveryReport`].
pub(crate) struct ShardRecovery {
    pub(crate) snapshot_entries: u64,
    pub(crate) wal_records: u64,
    pub(crate) truncated_bytes: u64,
    pub(crate) replay_ns: u64,
}

/// The mutable heart of a shard: the tree plus a tid → signature catalog.
///
/// The catalog makes deletes and upserts self-contained (the tree's
/// `delete` needs the exact signature).
pub(crate) struct ShardState {
    pub(crate) tree: SgTree,
    pub(crate) catalog: HashMap<Tid, Signature>,
    /// Whether `catalog` mirrors the tree. Durable shards skip catalog
    /// construction on open (restart stays O(WAL tail)) and hydrate it
    /// from [`SgTree::dump`] on the first write — queries never need it.
    pub(crate) catalog_ready: bool,
}

impl ShardState {
    /// Hydrates the catalog from the tree if it has not been built yet
    /// (the durable write-warmup; a no-op for memory shards).
    pub(crate) fn ensure_catalog(&mut self) {
        if self.catalog_ready {
            return;
        }
        self.catalog = self.tree.dump().into_iter().collect();
        self.catalog_ready = true;
    }
}

/// The durable sidecar: the WAL, the copy-on-write page store the
/// shard's tree lives in, and the published read-only view over it.
struct DurableSide {
    /// Taken after the state lock, never before it.
    wal: Mutex<Wal>,
    store: Arc<CowStore>,
    /// Read-only tree over a pinned [`sg_store::Snapshot`], swapped after
    /// every applied batch. Readers clone the `Arc` and drop the lock —
    /// they never contend with the shard's state lock.
    view: Mutex<Arc<SgTree>>,
    /// Tree-config hints for re-opening views.
    hints: TreeConfig,
    fsync: FsyncPolicy,
}

/// One executor shard: reader-writer state plus an optional durable
/// sidecar.
pub(crate) struct Shard {
    pub(crate) state: RwLock<ShardState>,
    durable: Option<DurableSide>,
}

/// Applies one staged mutation to `st`, returning the net change in entry
/// count. Shared by the live write path and WAL replay so both produce
/// identical states.
fn apply_op(st: &mut ShardState, op: &WriteOp) -> i64 {
    match op {
        WriteOp::Insert { tid, sig } => {
            st.tree.insert(*tid, sig);
            st.catalog.insert(*tid, sig.clone());
            1
        }
        WriteOp::Delete { tid } => match st.catalog.remove(tid) {
            Some(old) => {
                st.tree.delete(*tid, &old);
                -1
            }
            None => 0,
        },
        WriteOp::Upsert { tid, sig } => {
            let replaced = match st.catalog.remove(tid) {
                Some(old) => {
                    st.tree.delete(*tid, &old);
                    true
                }
                None => false,
            };
            st.tree.insert(*tid, sig);
            st.catalog.insert(*tid, sig.clone());
            if replaced {
                0
            } else {
                1
            }
        }
    }
}

fn wal_op(op: &WriteOp) -> WalOp {
    match op {
        WriteOp::Insert { .. } => WalOp::Insert,
        WriteOp::Delete { .. } => WalOp::Delete,
        WriteOp::Upsert { .. } => WalOp::Upsert,
    }
}

/// WAL payload of an op, **self-contained** so replay never needs a
/// catalog: inserts log the new signature, deletes log the signature
/// being removed, and upserts log the new signature followed by the
/// replaced one (when a previous value existed). Replay decodes the
/// leading signature — [`codec::decode`] reports how many bytes it
/// consumed — and uses the trailing old signature to undo the replaced
/// entry directly in the tree.
fn wal_payload(op: &WriteOp, old: Option<&Signature>) -> Vec<u8> {
    let mut out = Vec::new();
    match op {
        WriteOp::Insert { sig, .. } => {
            codec::encode(sig, &mut out);
        }
        WriteOp::Delete { .. } => {
            if let Some(old) = old {
                codec::encode(old, &mut out);
            }
        }
        WriteOp::Upsert { sig, .. } => {
            codec::encode(sig, &mut out);
            if let Some(old) = old {
                codec::encode(old, &mut out);
            }
        }
    }
    out
}

/// Opens a read-only tree over a freshly pinned snapshot of `store`
/// (the query view; the snapshot stays pinned until the view drops).
fn open_view(store: &Arc<CowStore>, hints: &TreeConfig) -> SgResult<SgTree> {
    SgTree::open(Arc::new(store.snapshot()), 0, hints.clone())
}

impl Shard {
    /// A memory-only shard (no WAL, no page file).
    pub(crate) fn memory(tree: SgTree, catalog: HashMap<Tid, Signature>) -> Shard {
        Shard {
            state: RwLock::new(ShardState {
                tree,
                catalog,
                catalog_ready: true,
            }),
            durable: None,
        }
    }

    /// Opens (or creates) durable shard `idx` under `dir` over its
    /// mmap'd copy-on-write page store. The committed store already holds
    /// every write covered by its meta page's WAL watermark, so only the
    /// log tail past it is replayed — restart work is proportional to the
    /// un-checkpointed tail, not to the dataset. A torn log tail is
    /// truncated, and the LSN counter is floored at the watermark so
    /// reused LSNs can never collide with committed ones.
    pub(crate) fn open_durable(
        dir: &Path,
        idx: usize,
        fsync: FsyncPolicy,
        nbits: u32,
        tree_config: &TreeConfig,
        page_size: usize,
    ) -> SgResult<(Shard, ShardRecovery)> {
        let store_path = dir.join(format!("shard-{idx:03}.pages"));
        let wal_path = dir.join(format!("shard-{idx:03}.wal"));
        let t0 = Instant::now();
        let (store, rep) = CowStore::open(&store_path, page_size)
            .map_err(|e| SgError::io(format!("opening the shard page store {store_path:?}"), e))?;
        // The store's meta page records the WAL next-LSN at commit time:
        // everything below it is already in the committed pages.
        let watermark = rep.checkpoint_lsn;
        let (wal, replay) = Wal::open(&wal_path, fsync, watermark)?;
        let page_store: Arc<dyn PageStore> = Arc::clone(&store) as Arc<dyn PageStore>;
        let mut tree = if rep.n_logical == 0 {
            SgTree::create(page_store, tree_config.clone())?
        } else {
            SgTree::open(page_store, 0, tree_config.clone())?
        };
        let snapshot_entries = tree.len();
        let mut wal_records = 0u64;
        for rec in &replay.records {
            if rec.lsn < watermark {
                continue; // crash between commit and truncation
            }
            // Replay is self-contained: payloads carry every signature
            // needed (see `wal_payload`), so no catalog is built here.
            let decode_at = |off: usize| {
                codec::decode(nbits, &rec.payload[off..]).map_err(|e| {
                    SgError::corrupt(format!("wal {wal_path:?} record lsn {}: {e}", rec.lsn))
                })
            };
            match rec.op {
                WalOp::Insert => {
                    let (sig, _) = decode_at(0)?;
                    tree.insert(rec.tid, &sig);
                }
                WalOp::Delete => {
                    if !rec.payload.is_empty() {
                        let (old, _) = decode_at(0)?;
                        tree.delete(rec.tid, &old);
                    }
                }
                WalOp::Upsert => {
                    let (sig, used) = decode_at(0)?;
                    if rec.payload.len() > used {
                        let (old, _) = decode_at(used)?;
                        tree.delete(rec.tid, &old);
                    }
                    tree.insert(rec.tid, &sig);
                }
            }
            wal_records += 1;
        }
        tree.flush();
        store.publish();
        let view = Arc::new(open_view(&store, tree_config)?);
        let recovery = ShardRecovery {
            snapshot_entries,
            wal_records,
            truncated_bytes: replay.truncated_bytes,
            replay_ns: t0.elapsed().as_nanos() as u64,
        };
        Ok((
            Shard {
                state: RwLock::new(ShardState {
                    tree,
                    catalog: HashMap::new(),
                    catalog_ready: false,
                }),
                durable: Some(DurableSide {
                    wal: Mutex::new(wal),
                    store,
                    view: Mutex::new(view),
                    hints: tree_config.clone(),
                    fsync,
                }),
            },
            recovery,
        ))
    }

    /// Number of transactions currently in the shard.
    pub(crate) fn len(&self) -> u64 {
        self.state.read().tree.len()
    }

    /// Whether this shard holds `tid`.
    pub(crate) fn contains(&self, tid: Tid) -> bool {
        {
            let st = self.state.read();
            if st.catalog_ready {
                return st.catalog.contains_key(&tid);
            }
        }
        // Durable shard before its first write: hydrate the catalog once.
        let mut st = self.state.write();
        st.ensure_catalog();
        st.catalog.contains_key(&tid)
    }

    /// The published read-only tree view (durable shards only): a
    /// pinned, lock-free snapshot of the last applied batch. `None` means
    /// queries must take the state read lock instead.
    pub(crate) fn read_view(&self) -> Option<Arc<SgTree>> {
        self.durable.as_ref().map(|d| Arc::clone(&d.view.lock()))
    }

    /// The page store, if this shard is durable.
    pub(crate) fn store(&self) -> Option<&Arc<CowStore>> {
        self.durable.as_ref().map(|d| &d.store)
    }

    /// Applies a group of ops under one write lock with one group commit:
    /// every op that passes validation gets a WAL record, the batch is
    /// appended and synced **once**, and only then do the mutations become
    /// observable (the lock is released after apply). Returns one result
    /// per op, in input order, plus the net change in entry count and the
    /// WAL bytes the group appended (zero for non-durable shards) — the
    /// write path's resource bill.
    ///
    /// `expected` (parallel to `ops`, or empty) carries an optional
    /// signature a delete must match (the `SetIndex::delete` contract);
    /// a mismatch acknowledges `applied = false` without touching state.
    pub(crate) fn apply_batch(
        &self,
        ops: &[WriteOp],
        expected: &[Option<Signature>],
        obs: Option<&IngestObs>,
    ) -> (Vec<SgResult<WriteAck>>, i64, u64) {
        let mut st = self.state.write();
        // Writes need the catalog for validation and old-signature
        // lookups; durable shards build it lazily on the first write.
        st.ensure_catalog();
        // Stage: validate each op against the catalog *as mutated by
        // earlier ops in this batch*, collecting the WAL items to log.
        let mut staged: Vec<Option<WriteOp>> = Vec::with_capacity(ops.len());
        let mut results: Vec<SgResult<WriteAck>> = Vec::with_capacity(ops.len());
        let mut wal_items: Vec<(WalOp, u64, Vec<u8>)> = Vec::new();
        // Track catalog effects of earlier staged ops without applying
        // yet: tid → its signature after the staged prefix (`None` =
        // staged as deleted). WAL payloads must log the *effective* old
        // signature — an op earlier in this batch may have produced it —
        // or self-contained replay would miss intra-batch replacements.
        let mut pending: HashMap<Tid, Option<Signature>> = HashMap::new();
        let effective = |st: &ShardState, pending: &HashMap<Tid, Option<Signature>>, tid: Tid| {
            pending
                .get(&tid)
                .cloned()
                .unwrap_or_else(|| st.catalog.get(&tid).cloned())
        };
        for (i, op) in ops.iter().enumerate() {
            let want = expected.get(i).and_then(|e| e.as_ref());
            let old = effective(&st, &pending, op.tid());
            match op {
                WriteOp::Insert { tid, sig } => {
                    if old.is_some() {
                        staged.push(None);
                        results.push(Err(SgError::invalid(format!(
                            "insert of duplicate tid {tid}"
                        ))));
                        continue;
                    }
                    pending.insert(*tid, Some(sig.clone()));
                }
                WriteOp::Delete { tid } => {
                    let matches = match (&old, want) {
                        (None, _) => false,
                        (Some(_), None) => true,
                        (Some(have), Some(sig)) => have == sig,
                    };
                    if !matches {
                        staged.push(None);
                        results.push(Ok(WriteAck {
                            tid: *tid,
                            applied: false,
                            lsn: None,
                        }));
                        continue;
                    }
                    pending.insert(*tid, None);
                }
                WriteOp::Upsert { tid, sig } => {
                    pending.insert(*tid, Some(sig.clone()));
                }
            }
            wal_items.push((wal_op(op), op.tid(), wal_payload(op, old.as_ref())));
            staged.push(Some(op.clone()));
            results.push(Ok(WriteAck {
                tid: op.tid(),
                applied: true,
                lsn: None,
            }));
        }
        // Log: one append + one sync for the whole group. Nothing has been
        // applied yet, so a failure here leaves memory untouched and every
        // staged op is failed instead of acknowledged.
        let mut next_lsn = None;
        let mut wal_bytes = 0u64;
        let lsns: Vec<u64> = if wal_items.is_empty() {
            Vec::new()
        } else if let Some(d) = &self.durable {
            let mut wal = d.wal.lock();
            let before = wal.bytes();
            match wal.append_batch(&wal_items) {
                Ok(lsns) => {
                    wal_bytes = wal.bytes().saturating_sub(before);
                    if let Some(o) = obs {
                        o.wal_bytes.add(wal_bytes);
                        o.wal_syncs.inc();
                    }
                    next_lsn = Some(wal.next_lsn());
                    lsns
                }
                Err(e) => {
                    let msg = e.to_string();
                    for (slot, op) in results.iter_mut().zip(&staged) {
                        if op.is_some() {
                            *slot = Err(SgError::io(
                                "appending to the shard WAL",
                                std::io::Error::other(msg.clone()),
                            ));
                        }
                    }
                    return (results, 0, 0);
                }
            }
        } else {
            Vec::new()
        };
        // Apply: the records are durable; make the mutations observable.
        let mut delta = 0i64;
        let mut lsn_iter = lsns.into_iter();
        for (slot, op) in results.iter_mut().zip(&staged) {
            if let Some(op) = op {
                delta += apply_op(&mut st, op);
                if let Ok(ack) = slot {
                    ack.lsn = lsn_iter.next();
                }
            }
        }
        // Durable epilogue: flush the tree's meta into the store's write
        // window, publish the new mapping, and swap in a fresh view so
        // view readers observe this batch without taking the state lock.
        if let Some(d) = &self.durable {
            if staged.iter().any(Option::is_some) {
                st.tree.flush();
                d.store.publish();
                match open_view(&d.store, &d.hints) {
                    Ok(view) => *d.view.lock() = Arc::new(view),
                    // The batch is durable and applied; keep serving the
                    // previous view rather than failing acknowledged ops.
                    Err(e) => debug_assert!(false, "reopening the shard view: {e}"),
                }
                if let (Some(so), Some(next)) = (d.store.obs_handle(), next_lsn) {
                    so.checkpoint_lag
                        .set(next.saturating_sub(d.store.checkpoint_lsn()) as i64);
                }
            }
        }
        (results, delta, wal_bytes)
    }

    /// Commits the page store at the WAL's current position (one
    /// dual-meta-page flip), then truncates the log. The read lock keeps
    /// writers out — so the tree's meta is already flushed, as every
    /// batch flushes before releasing the write lock — and the WAL mutex
    /// keeps the watermark consistent with the truncation that follows.
    pub(crate) fn checkpoint(&self, obs: Option<&IngestObs>) -> SgResult<()> {
        let Some(d) = &self.durable else {
            return Ok(());
        };
        let t0 = Instant::now();
        let _st = self.state.read();
        let mut wal = d.wal.lock();
        let watermark = wal.next_lsn();
        d.store
            .commit(watermark, matches!(d.fsync, FsyncPolicy::Always))
            .map_err(|e| SgError::io("committing the shard page store", e))?;
        wal.truncate()?;
        if let Some(so) = d.store.obs_handle() {
            so.checkpoint_lag.set(0);
        }
        if let Some(o) = obs {
            o.checkpoints.inc();
            o.checkpoint_ns.record(t0.elapsed().as_nanos() as u64);
        }
        Ok(())
    }
}

const META_MAGIC: &[u8; 8] = b"SGEXMET1";

/// Writes the executor-level meta file (atomically: tmp + rename).
pub(crate) fn write_meta(
    dir: &Path,
    nbits: u32,
    shards: u32,
    partitioner: Partitioner,
) -> SgResult<()> {
    let mut buf = Vec::with_capacity(17);
    buf.extend_from_slice(META_MAGIC);
    buf.extend_from_slice(&nbits.to_le_bytes());
    buf.extend_from_slice(&shards.to_le_bytes());
    buf.push(partitioner.to_byte());
    let tmp = dir.join("meta.tmp");
    let path = dir.join("meta.bin");
    std::fs::write(&tmp, &buf).map_err(|e| SgError::io("writing the executor meta file", e))?;
    std::fs::rename(&tmp, &path)
        .map_err(|e| SgError::io("publishing the executor meta file", e))?;
    Ok(())
}

/// Refuses a data directory written by the retired heap storage mode:
/// its `shard-NNN.ckpt` catalog snapshots hold rows whose WAL records
/// were already truncated, so opening the directory over fresh page
/// files would silently drop every checkpointed row. Runs before the
/// executor writes anything into `dir`.
pub(crate) fn refuse_heap_checkpoints(dir: &Path) -> SgResult<()> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| SgError::io("listing the durable directory", e))?;
    let first_ckpt = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".ckpt"))
        })
        .min();
    match first_ckpt {
        None => Ok(()),
        Some(path) => Err(SgError::BadMeta(format!(
            "{path:?} is a heap-storage checkpoint from an older version; shards now \
             live only in mmap page files, which cannot recover its rows — rebuild the \
             index into a fresh directory"
        ))),
    }
}

/// Reads the meta file back; `Ok(None)` when the directory is fresh.
pub(crate) fn read_meta(dir: &Path) -> SgResult<Option<(u32, u32, Partitioner)>> {
    let path = dir.join("meta.bin");
    let buf = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(SgError::io("reading the executor meta file", e)),
    };
    if buf.len() != 17 || &buf[..8] != META_MAGIC {
        return Err(SgError::corrupt(format!("malformed meta file {path:?}")));
    }
    let nbits = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
    let shards = u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes"));
    let partitioner = Partitioner::from_byte(buf[16])
        .ok_or_else(|| SgError::corrupt(format!("unknown partitioner tag in {path:?}")))?;
    Ok(Some((nbits, shards, partitioner)))
}
