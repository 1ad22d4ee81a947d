//! The [`SgTree`] handle: meta page, node I/O, and the public maintenance
//! API (insert / delete / validate / statistics).

use crate::config::{ChooseSubtree, SplitPolicy, TreeConfig};
use crate::node::{Entry, Node, SoaNode};
use crate::Tid;
use sg_obs::{IndexObs, PoolObs, Registry};
use sg_pager::{BufferPool, PageId, PageStore, SgError};
use sg_sig::Signature;
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"SGTREE01";

/// A signature tree over a page store.
///
/// Mutations (`insert`, `delete`) take `&mut self`; queries take `&self`.
/// The tree's meta state is flushed to page 0 by [`SgTree::flush`] and on
/// drop.
pub struct SgTree {
    pub(crate) pool: Arc<BufferPool>,
    pub(crate) config: TreeConfig,
    /// Worst-case guaranteed entries per node (used for sizing sanity and
    /// as the bulk-loading count floor). Actual capacity is byte-budgeted.
    pub(crate) capacity: usize,
    /// Minimum on-page node size in bytes for non-root nodes.
    pub(crate) min_node_bytes: usize,
    pub(crate) root: PageId,
    /// Number of levels; the root sits at level `height - 1`, leaves at 0.
    pub(crate) height: u16,
    pub(crate) len: u64,
    meta_page: PageId,
    meta_dirty: bool,
    /// Optional metrics instruments; `None` keeps every hot path at a
    /// single branch.
    obs: Option<Arc<IndexObs>>,
}

impl SgTree {
    /// Creates a new, empty tree on `store`. Claims two pages: the meta
    /// page and an empty root leaf.
    pub fn create(store: Arc<dyn PageStore>, config: TreeConfig) -> Result<SgTree, SgError> {
        let capacity = config.capacity_for(store.page_size());
        if capacity < 2 {
            return Err(SgError::BadConfig(format!(
                "page size {} fits only {} worst-case {}-bit entries; need ≥ 2",
                store.page_size(),
                capacity,
                config.nbits
            )));
        }
        let min_node_bytes = config.min_bytes_for(store.page_size());
        let pool = Arc::new(BufferPool::new(store, config.pool_frames));
        let meta_page = pool.allocate();
        let root = pool.allocate();
        let mut tree = SgTree {
            pool,
            config,
            capacity,
            min_node_bytes,
            root,
            height: 1,
            len: 0,
            meta_page,
            meta_dirty: true,
            obs: None,
        };
        tree.write_node(root, &Node::new(0));
        tree.flush();
        Ok(tree)
    }

    /// Reopens a tree previously [`SgTree::flush`]ed to `store`. Runtime
    /// knobs not persisted in the meta page (pool size) are taken from
    /// `config_hints`; structural parameters (nbits, capacity, policies)
    /// come from the meta page.
    pub fn open(
        store: Arc<dyn PageStore>,
        meta_page: PageId,
        config_hints: TreeConfig,
    ) -> Result<SgTree, SgError> {
        let pool = Arc::new(BufferPool::new(store, config_hints.pool_frames));
        let page = pool.read(meta_page);
        if &page[0..8] != MAGIC {
            return Err(SgError::BadMeta("magic mismatch".into()));
        }
        let nbits = u32::from_le_bytes(page[8..12].try_into().unwrap());
        let root = u64::from_le_bytes(page[12..20].try_into().unwrap());
        let height = u16::from_le_bytes(page[20..22].try_into().unwrap());
        let len = u64::from_le_bytes(page[22..30].try_into().unwrap());
        let split = SplitPolicy::from_byte(page[30])
            .ok_or_else(|| SgError::BadMeta(format!("unknown split policy {}", page[30])))?;
        let choose = ChooseSubtree::from_byte(page[31])
            .ok_or_else(|| SgError::BadMeta(format!("unknown choose policy {}", page[31])))?;
        let compression = page[32] != 0;
        let min_fill = f64::from_le_bytes(page[33..41].try_into().unwrap());
        if height == 0 {
            return Err(SgError::BadMeta("zero height".into()));
        }
        let config = TreeConfig {
            nbits,
            split,
            choose,
            min_fill,
            compression,
            pool_frames: config_hints.pool_frames,
        };
        let capacity = config.capacity_for(pool.page_size());
        let min_node_bytes = config.min_bytes_for(pool.page_size());
        Ok(SgTree {
            pool,
            config,
            capacity,
            min_node_bytes,
            root,
            height,
            len,
            meta_page,
            meta_dirty: false,
            obs: None,
        })
    }

    /// Attaches index-level metrics instruments. Queries and maintenance
    /// operations record into them from then on.
    pub fn attach_obs(&mut self, obs: Arc<IndexObs>) {
        self.obs = Some(obs);
    }

    /// Registers instruments for this tree under `<prefix>.*` (index
    /// counters and latency histograms) and `<prefix>.pool.*` (buffer-pool
    /// counters) in `registry`, and attaches both.
    pub fn register_obs(&mut self, registry: &Registry, prefix: &str) -> Arc<IndexObs> {
        let obs = IndexObs::register(registry, prefix);
        self.pool
            .attach_obs(PoolObs::register(registry, &format!("{prefix}.pool")));
        self.obs = Some(obs.clone());
        obs
    }

    /// The attached metrics instruments, if any.
    pub(crate) fn obs(&self) -> Option<&Arc<IndexObs>> {
        self.obs.as_ref()
    }

    /// Persists the meta page if dirty. Node pages are always written
    /// through, so after `flush` the store is a complete image of the tree.
    pub fn flush(&mut self) {
        if !self.meta_dirty {
            return;
        }
        let mut page = vec![0u8; self.pool.page_size()];
        page[0..8].copy_from_slice(MAGIC);
        page[8..12].copy_from_slice(&self.config.nbits.to_le_bytes());
        page[12..20].copy_from_slice(&self.root.to_le_bytes());
        page[20..22].copy_from_slice(&self.height.to_le_bytes());
        page[22..30].copy_from_slice(&self.len.to_le_bytes());
        page[30] = self.config.split.to_byte();
        page[31] = self.config.choose.to_byte();
        page[32] = self.config.compression as u8;
        page[33..41].copy_from_slice(&self.config.min_fill.to_le_bytes());
        self.pool.write(self.meta_page, &page);
        self.meta_dirty = false;
    }

    pub(crate) fn mark_dirty(&mut self) {
        self.meta_dirty = true;
    }

    /// The tree's configuration.
    pub fn config(&self) -> &TreeConfig {
        &self.config
    }

    /// Worst-case guaranteed entries per node: how many maximally dense
    /// entries fit a page. Nodes are byte-budgeted, so with compression a
    /// node of sparse signatures holds far more than this.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Maximum on-page node size: the page size.
    pub fn max_node_bytes(&self) -> usize {
        self.pool.page_size()
    }

    /// Minimum on-page size of a non-root node (`min_fill ×` page size).
    pub fn min_node_bytes(&self) -> usize {
        self.min_node_bytes
    }

    /// Number of indexed transactions.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when no transactions are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of levels (1 for a single leaf root).
    pub fn height(&self) -> u16 {
        self.height
    }

    /// The buffer pool, exposing I/O statistics and cache control.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The signature length (item-universe size).
    pub fn nbits(&self) -> u32 {
        self.config.nbits
    }

    /// The root node's page id.
    pub(crate) fn root_page(&self) -> PageId {
        self.root
    }

    pub(crate) fn read_node(&self, id: PageId) -> Node {
        let page = self.pool.read(id);
        sg_sig::account::add_bytes_decoded(page.len() as u64);
        Node::decode(self.config.nbits, &page)
    }

    /// Reads a node in the SoA layout the query paths sweep. Maintenance
    /// keeps using [`SgTree::read_node`] — [`SoaNode`] is read-only.
    pub(crate) fn read_soa(&self, id: PageId) -> SoaNode {
        let page = self.pool.read(id);
        sg_sig::account::add_bytes_decoded(page.len() as u64);
        let node = SoaNode::decode(self.config.nbits, &page);
        sg_sig::account::add_lane_ops(node.sweep_cost());
        node
    }

    pub(crate) fn write_node(&self, id: PageId, node: &Node) {
        let page = node.encode(self.pool.page_size(), self.config.compression);
        self.pool.write(id, &page);
    }

    pub(crate) fn alloc_node(&self, node: &Node) -> PageId {
        let id = self.pool.allocate();
        self.write_node(id, node);
        id
    }

    /// Walks the whole tree depth-first, calling `f` with each node's page
    /// id, the node, and the entry in its parent (None for the root).
    pub(crate) fn walk(&self, mut f: impl FnMut(PageId, &Node, Option<&Entry>)) {
        fn rec(
            tree: &SgTree,
            id: PageId,
            parent_entry: Option<&Entry>,
            f: &mut impl FnMut(PageId, &Node, Option<&Entry>),
        ) {
            let node = tree.read_node(id);
            f(id, &node, parent_entry);
            if !node.is_leaf() {
                for e in &node.entries {
                    rec(tree, e.ptr, Some(e), f);
                }
            }
        }
        rec(self, self.root, None, &mut f);
    }

    /// Returns every `(tid, signature)` currently indexed, in tree order.
    pub fn dump(&self) -> Vec<(Tid, Signature)> {
        let mut out = Vec::with_capacity(self.len as usize);
        self.walk(|_, node, _| {
            if node.is_leaf() {
                for e in &node.entries {
                    out.push((e.ptr, e.sig.clone()));
                }
            }
        });
        out
    }

    /// Average entry *area* (number of set bits) per level — the tree
    /// quality metric of the paper's Table 1. Index 0 is the leaf level.
    pub fn level_areas(&self) -> Vec<f64> {
        let mut sums = vec![0f64; self.height as usize];
        let mut counts = vec![0u64; self.height as usize];
        self.walk(|_, node, _| {
            let l = node.level as usize;
            for e in &node.entries {
                sums[l] += e.sig.count() as f64;
                counts[l] += 1;
            }
        });
        sums.iter()
            .zip(counts.iter())
            .map(|(s, c)| if *c == 0 { 0.0 } else { s / *c as f64 })
            .collect()
    }

    /// Total number of node pages in the tree.
    pub fn node_count(&self) -> u64 {
        let mut n = 0;
        self.walk(|_, _, _| n += 1);
        n
    }

    /// Checks every structural invariant, panicking with a description of
    /// the first violation. Test-support API (O(size of tree)).
    ///
    /// Invariants checked:
    /// 1. every directory entry's signature equals the OR of its child
    ///    node's entry signatures (coverage is *exact*, not merely valid);
    /// 2. each child is exactly one level below its parent; leaves at 0;
    /// 3. every node fits its page and every non-root node meets the
    ///    byte-level minimum fill;
    /// 4. the number of leaf entries equals `len()`;
    /// 5. no page id appears twice.
    pub fn validate(&self) {
        let mut leaf_entries = 0u64;
        let mut seen = std::collections::HashSet::new();
        let root_id = self.root;
        let height = self.height;
        let mut stack = vec![(self.root, (self.height - 1), Option::<Entry>::None)];
        while let Some((id, expect_level, parent_entry)) = stack.pop() {
            assert!(seen.insert(id), "page {id} reachable twice");
            let node = self.read_node(id);
            assert_eq!(
                node.level, expect_level,
                "page {id}: level {} but expected {expect_level}",
                node.level
            );
            if let Some(pe) = &parent_entry {
                let union = node.union_signature(self.config.nbits);
                assert_eq!(
                    pe.sig, union,
                    "page {id}: parent signature is not the exact OR of the node"
                );
            }
            let bytes = node.encoded_size(self.config.compression);
            assert!(
                bytes <= self.pool.page_size(),
                "page {id}: node needs {bytes} bytes > page {}",
                self.pool.page_size()
            );
            if id == root_id {
                if height > 1 {
                    assert!(
                        node.entries.len() >= 2,
                        "directory root must hold ≥ 2 entries"
                    );
                }
            } else {
                assert!(
                    bytes >= self.min_node_bytes,
                    "page {id}: node has {bytes} bytes < minimum fill {}",
                    self.min_node_bytes
                );
            }
            if node.is_leaf() {
                leaf_entries += node.entries.len() as u64;
            } else {
                for e in &node.entries {
                    stack.push((e.ptr, expect_level - 1, Some(e.clone())));
                }
            }
        }
        assert_eq!(leaf_entries, self.len, "len() out of sync with leaves");
    }
}

impl Drop for SgTree {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_pager::MemStore;

    fn mem_tree(nbits: u32, page: usize) -> SgTree {
        SgTree::create(Arc::new(MemStore::new(page)), TreeConfig::new(nbits)).unwrap()
    }

    #[test]
    fn create_empty_tree() {
        let tree = mem_tree(100, 1024);
        assert_eq!(tree.len(), 0);
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
        tree.validate();
    }

    #[test]
    fn create_rejects_tiny_pages() {
        let err = SgTree::create(Arc::new(MemStore::new(64)), TreeConfig::new(1000));
        assert!(matches!(err, Err(SgError::BadConfig(_))));
    }

    #[test]
    fn flush_and_reopen_roundtrip() {
        let store: Arc<dyn PageStore> = Arc::new(MemStore::new(1024));
        let nbits = 64;
        {
            let mut tree = SgTree::create(store.clone(), TreeConfig::new(nbits)).unwrap();
            for tid in 0..50u64 {
                let sig =
                    Signature::from_items(nbits, &[(tid % 64) as u32, ((tid * 7) % 64) as u32]);
                tree.insert(tid, &sig);
            }
            tree.flush();
        }
        let tree = SgTree::open(store, 0, TreeConfig::new(nbits)).unwrap();
        assert_eq!(tree.len(), 50);
        tree.validate();
        let dump = tree.dump();
        assert_eq!(dump.len(), 50);
    }

    #[test]
    fn open_rejects_garbage() {
        let store: Arc<dyn PageStore> = Arc::new(MemStore::new(1024));
        let pool = BufferPool::new(store.clone(), 4);
        let id = pool.allocate();
        pool.write(id, &vec![7u8; 1024]);
        let err = SgTree::open(store, id, TreeConfig::new(64));
        assert!(matches!(err, Err(SgError::BadMeta(_))));
    }

    #[test]
    fn meta_survives_policy_settings() {
        let store: Arc<dyn PageStore> = Arc::new(MemStore::new(1024));
        {
            let mut tree = SgTree::create(
                store.clone(),
                TreeConfig::new(64)
                    .split(SplitPolicy::AvLink)
                    .choose(ChooseSubtree::MinOverlap)
                    .compression(false),
            )
            .unwrap();
            tree.insert(1, &Signature::from_items(64, &[1]));
            tree.flush();
        }
        let tree = SgTree::open(store, 0, TreeConfig::new(64)).unwrap();
        assert_eq!(tree.config().split, SplitPolicy::AvLink);
        assert_eq!(tree.config().choose, ChooseSubtree::MinOverlap);
        assert!(!tree.config().compression);
        assert_eq!(tree.len(), 1);
    }
}
