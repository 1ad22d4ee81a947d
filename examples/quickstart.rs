//! Quickstart: build an SG-tree over a handful of market-basket
//! transactions and run the paper's core query types.
//!
//! ```sh
//! cargo run --release -p sg-bench --example quickstart
//! ```

use sg_pager::MemStore;
use sg_sig::{Metric, Signature};
use sg_tree::{SgTree, TreeConfig};
use std::sync::Arc;

fn main() {
    // An item universe of 64 products. In a real catalogue you would map
    // SKUs to dense ids once and keep the mapping alongside the tree.
    const N: u32 = 64;
    let products = [
        "bread", "milk", "butter", "eggs", "coffee", "tea", "sugar", "beer", "chips", "salsa",
        "apples", "pears",
    ];
    let id = |name: &str| products.iter().position(|p| *p == name).unwrap() as u32;
    let basket =
        |names: &[&str]| -> Signature { Signature::from_iter(N, names.iter().map(|n| id(n))) };

    // The index lives on fixed-size pages; MemStore keeps them in memory,
    // sg_store::CowStore would put the same bytes in an mmap'd page file.
    let store = Arc::new(MemStore::new(1024));
    let mut tree = SgTree::create(store, TreeConfig::new(N)).expect("valid config");

    let baskets = [
        (0u64, basket(&["bread", "milk", "butter"])),
        (1, basket(&["bread", "milk", "eggs"])),
        (2, basket(&["coffee", "sugar"])),
        (3, basket(&["tea", "sugar", "milk"])),
        (4, basket(&["beer", "chips", "salsa"])),
        (5, basket(&["beer", "chips"])),
        (6, basket(&["apples", "pears", "milk"])),
        (7, basket(&["bread", "butter", "eggs", "milk"])),
    ];
    for (tid, sig) in &baskets {
        tree.insert(*tid, sig);
    }
    println!(
        "indexed {} baskets, tree height {}",
        tree.len(),
        tree.height()
    );

    // Nearest neighbor: which basket is most similar to a new customer's?
    let q = basket(&["bread", "milk"]);
    let metric = Metric::hamming();
    let (nn, stats) = tree.nn(&q, &metric);
    println!(
        "NN of {{bread, milk}} -> basket {} at Hamming distance {} \
         ({} of 8 baskets compared)",
        nn[0].tid, nn[0].dist, stats.data_compared
    );

    // k-NN and range queries.
    let (top3, _) = tree.knn(&q, 3, &metric);
    println!(
        "top-3: {:?}",
        top3.iter().map(|n| (n.tid, n.dist)).collect::<Vec<_>>()
    );
    let (close, _) = tree.range(&q, 2.0, &metric);
    println!(
        "within distance 2: {:?}",
        close.iter().map(|n| n.tid).collect::<Vec<_>>()
    );

    // Containment: §3's example query type — all baskets holding a given
    // itemset.
    let (with_beer_chips, _) = tree.containing(&basket(&["beer", "chips"]));
    println!("baskets containing {{beer, chips}}: {with_beer_chips:?}");

    // EXPLAIN a k-NN query: per-level nodes visited, entries pruned by the
    // directory lower bound, and exact distances computed.
    let resp = tree
        .query(
            &sg_tree::QueryRequest::Knn {
                q: q.clone(),
                k: 3,
                metric,
            },
            &sg_tree::QueryOptions::traced(),
        )
        .expect("valid query");
    let trace = resp.trace.expect("traced query carries a trace");
    println!("\n{}", trace.render());
    // The trace round-trips through JSON for log pipelines.
    let roundtrip = sg_tree::QueryTrace::from_json(&trace.to_json()).expect("valid trace JSON");
    assert_eq!(roundtrip, trace);

    // The index is dynamic: delete a basket and re-query.
    assert!(tree.delete(0, &baskets[0].1));
    let (nn_after, _) = tree.nn(&q, &metric);
    println!("after deleting basket 0, NN is basket {}", nn_after[0].tid);
}
