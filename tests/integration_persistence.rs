//! Disk persistence: the same tree bytes served from a real mmap'd
//! copy-on-write page file, across commit/close/reopen, with I/O
//! accounting.

use sg_pager::PageStore;
use sg_quest::basket::{BasketParams, PatternPool};
use sg_sig::{Metric, Signature};
use sg_store::CowStore;
use sg_tree::{SgTree, TreeConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "sg-tree-it-{tag}-{}-{:?}.pages",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_file(&path).ok();
    path
}

/// Opens (creating if absent) the page file at `path`, returning the
/// store handle (to commit through) and the same store as a `PageStore`.
fn open_store(path: &Path) -> (Arc<CowStore>, Arc<dyn PageStore>) {
    let (store, _) = CowStore::open(path, 4096).unwrap();
    let pages: Arc<dyn PageStore> = Arc::clone(&store) as Arc<dyn PageStore>;
    (store, pages)
}

fn workload(n: usize) -> (u32, Vec<(u64, Signature)>, Vec<Signature>) {
    let pool = PatternPool::new(BasketParams::standard(10, 6), 77);
    let ds = pool.dataset(n, 77);
    let data: Vec<(u64, Signature)> = ds
        .signatures()
        .into_iter()
        .enumerate()
        .map(|(tid, s)| (tid as u64, s))
        .collect();
    let queries = pool
        .queries(10, 77)
        .iter()
        .map(|q| Signature::from_items(ds.n_items, q))
        .collect();
    (ds.n_items, data, queries)
}

#[test]
fn file_backed_tree_roundtrip() {
    let path = temp_path("roundtrip");
    let (nbits, data, queries) = workload(3000);
    let m = Metric::hamming();
    let mut expected = Vec::new();
    {
        let (cow, store) = open_store(&path);
        let mut tree = SgTree::create(store, TreeConfig::new(nbits)).unwrap();
        for (tid, sig) in &data {
            tree.insert(*tid, sig);
        }
        for q in &queries {
            expected.push(tree.knn(q, 5, &m).0);
        }
        tree.flush();
        cow.commit(0, true).unwrap();
    }
    {
        let (_, store) = open_store(&path);
        let tree = SgTree::open(store, 0, TreeConfig::new(nbits)).unwrap();
        assert_eq!(tree.len() as usize, data.len());
        tree.validate();
        for (q, want) in queries.iter().zip(&expected) {
            let (got, _) = tree.knn(q, 5, &m);
            let gd: Vec<f64> = got.iter().map(|n| n.dist).collect();
            let wd: Vec<f64> = want.iter().map(|n| n.dist).collect();
            assert_eq!(gd, wd);
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn reopened_tree_supports_updates() {
    let path = temp_path("updates");
    let (nbits, data, _) = workload(1500);
    {
        let (cow, store) = open_store(&path);
        let mut tree = SgTree::create(store, TreeConfig::new(nbits)).unwrap();
        for (tid, sig) in &data[..1000] {
            tree.insert(*tid, sig);
        }
        drop(tree); // Drop flushes the tree's meta page.
        cow.commit(0, true).unwrap();
    }
    {
        let (_, store) = open_store(&path);
        let mut tree = SgTree::open(store, 0, TreeConfig::new(nbits)).unwrap();
        for (tid, sig) in &data[1000..] {
            tree.insert(*tid, sig);
        }
        for (tid, sig) in &data[..200] {
            assert!(tree.delete(*tid, sig));
        }
        tree.validate();
        assert_eq!(tree.len(), 1300);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn cold_cache_ios_track_nodes() {
    let path = temp_path("ios");
    let (nbits, data, queries) = workload(4000);
    let (_, store) = open_store(&path);
    let mut tree = SgTree::create(store, TreeConfig::new(nbits).pool_frames(512)).unwrap();
    for (tid, sig) in &data {
        tree.insert(*tid, sig);
    }
    let m = Metric::hamming();
    for q in &queries {
        tree.pool().clear();
        tree.pool().stats().reset();
        let (_, stats) = tree.nn(q, &m);
        // With a cold cache, every distinct node visit is a physical read.
        assert_eq!(stats.io.physical_reads, stats.nodes_accessed);
        // Warm cache: a repeat of the same query reads nothing new.
        let (_, warm) = tree.nn(q, &m);
        assert_eq!(warm.io.physical_reads, 0);
    }
    drop(tree);
    std::fs::remove_file(&path).ok();
}

#[test]
fn limited_memory_still_correct() {
    // The paper highlights that the SG-tree works under limited and
    // changing memory; emulate a tiny buffer pool.
    let path = temp_path("tinypool");
    let (nbits, data, queries) = workload(2000);
    let (_, store) = open_store(&path);
    let mut tree = SgTree::create(store, TreeConfig::new(nbits).pool_frames(2)).unwrap();
    for (tid, sig) in &data {
        tree.insert(*tid, sig);
    }
    tree.validate();
    let m = Metric::hamming();
    for q in &queries {
        let (got, stats) = tree.nn(q, &m);
        assert!(!got.is_empty());
        assert!(stats.io.physical_reads >= stats.nodes_accessed.saturating_sub(2));
    }
    drop(tree);
    std::fs::remove_file(&path).ok();
}
