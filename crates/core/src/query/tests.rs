//! Query correctness against the sequential-scan ground truth, plus
//! behaviour checks specific to the branch-and-bound algorithms.

use crate::api::{QueryOptions, QueryRequest};
use crate::query::Neighbor;
use crate::scan::ScanIndex;
use crate::tree::SgTree;
use crate::{SplitPolicy, TreeConfig};
use sg_pager::MemStore;
use sg_sig::{Metric, MetricKind, Signature};
use std::sync::Arc;

const NBITS: u32 = 128;

fn make_data(n: u64) -> Vec<(u64, Signature)> {
    // Deterministic pseudo-random transactions of 2–6 items with cluster
    // structure (items drawn from a per-cluster band).
    let mut out = Vec::with_capacity(n as usize);
    let mut x = 0x243F6A8885A308D3u64;
    for tid in 0..n {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let cluster = (x >> 60) as u32 % 4;
        let len = 2 + ((x >> 33) % 5) as usize;
        let mut items = Vec::with_capacity(len);
        let mut y = x;
        for _ in 0..len {
            y = y
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            items.push(cluster * 32 + ((y >> 40) % 32) as u32);
        }
        out.push((tid, Signature::from_items(NBITS, &items)));
    }
    out
}

fn tree_of(data: &[(u64, Signature)]) -> SgTree {
    let mut tree = SgTree::create(Arc::new(MemStore::new(512)), TreeConfig::new(NBITS)).unwrap();
    for (tid, sig) in data {
        tree.insert(*tid, sig);
    }
    tree
}

fn scan_of(data: &[(u64, Signature)]) -> ScanIndex {
    ScanIndex::build(
        Arc::new(MemStore::new(512)),
        NBITS,
        64,
        data.iter().cloned(),
    )
}

fn queries() -> Vec<Signature> {
    let mut out = Vec::new();
    let mut x = 0xB7E151628AED2A6Bu64;
    for _ in 0..25 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(99);
        let len = 1 + ((x >> 33) % 6) as usize;
        let mut items = Vec::with_capacity(len);
        let mut y = x;
        for _ in 0..len {
            y = y.wrapping_mul(6364136223846793005).wrapping_add(7);
            items.push(((y >> 40) % NBITS as u64) as u32);
        }
        out.push(Signature::from_items(NBITS, &items));
    }
    out
}

fn dists(ns: &[Neighbor]) -> Vec<f64> {
    ns.iter().map(|n| n.dist).collect()
}

fn all_metrics() -> Vec<Metric> {
    vec![
        Metric::hamming(),
        Metric::jaccard(),
        Metric::new(MetricKind::Dice),
    ]
}

#[test]
fn knn_matches_scan_for_all_metrics_and_ks() {
    let data = make_data(400);
    let tree = tree_of(&data);
    let scan = scan_of(&data);
    for metric in all_metrics() {
        for q in queries() {
            for k in [1usize, 3, 10, 50] {
                let (got, _) = tree.knn(&q, k, &metric);
                let (want, _) = scan.knn(&q, k, &metric);
                assert_eq!(
                    dists(&got),
                    dists(&want),
                    "{:?} k={k} q={:?}",
                    metric.kind(),
                    q.items()
                );
            }
        }
    }
}

#[test]
fn best_first_knn_matches_depth_first() {
    let data = make_data(400);
    let tree = tree_of(&data);
    let m = Metric::hamming();
    for q in queries() {
        for k in [1usize, 7, 25] {
            let (df, _) = tree.knn(&q, k, &m);
            let (bf, _) = tree.knn_best_first(&q, k, &m);
            assert_eq!(dists(&df), dists(&bf), "k={k}");
        }
    }
}

#[test]
fn best_first_accesses_no_more_nodes_than_depth_first() {
    let data = make_data(600);
    let tree = tree_of(&data);
    let m = Metric::hamming();
    let mut df_total = 0u64;
    let mut bf_total = 0u64;
    for q in queries() {
        let (_, df) = tree.knn(&q, 1, &m);
        let (_, bf) = tree.knn_best_first(&q, 1, &m);
        df_total += df.nodes_accessed;
        bf_total += bf.nodes_accessed;
    }
    assert!(
        bf_total <= df_total,
        "best-first should be node-optimal: {bf_total} vs {df_total}"
    );
}

#[test]
fn range_matches_scan() {
    let data = make_data(400);
    let tree = tree_of(&data);
    let scan = scan_of(&data);
    let m = Metric::hamming();
    for q in queries() {
        for eps in [0.0, 2.0, 5.0, 10.0] {
            let (got, _) = tree.range(&q, eps, &m);
            let (want, _) = scan.range(&q, eps, &m);
            let mut g: Vec<u64> = got.iter().map(|n| n.tid).collect();
            let mut w: Vec<u64> = want.iter().map(|n| n.tid).collect();
            g.sort_unstable();
            w.sort_unstable();
            assert_eq!(g, w, "eps={eps}");
        }
    }
}

#[test]
fn range_jaccard_matches_scan() {
    let data = make_data(300);
    let tree = tree_of(&data);
    let scan = scan_of(&data);
    let m = Metric::jaccard();
    for q in queries().into_iter().take(10) {
        for eps in [0.25, 0.5, 0.8] {
            let (got, _) = tree.range(&q, eps, &m);
            let (want, _) = scan.range(&q, eps, &m);
            assert_eq!(got.len(), want.len(), "eps={eps}");
        }
    }
}

#[test]
fn nn_all_ties_returns_every_minimum() {
    let data = make_data(300);
    let tree = tree_of(&data);
    let scan = scan_of(&data);
    let m = Metric::hamming();
    for q in queries().into_iter().take(10) {
        let (ties, _) = tree.nn_all_ties(&q, &m);
        let (all, _) = scan.knn(&q, 300, &m);
        let best = all[0].dist;
        let want: Vec<u64> = all
            .iter()
            .filter(|n| n.dist == best)
            .map(|n| n.tid)
            .collect();
        let mut got: Vec<u64> = ties.iter().map(|n| n.tid).collect();
        got.sort_unstable();
        assert_eq!(got, want);
        assert!(ties.iter().all(|n| n.dist == best));
    }
}

#[test]
fn containment_queries_match_scan() {
    let data = make_data(400);
    let tree = tree_of(&data);
    let scan = scan_of(&data);
    for q in queries().into_iter().take(15) {
        let (g1, _) = tree.containing(&q);
        let (w1, _) = scan.containing(&q);
        assert_eq!(g1, w1, "containing {:?}", q.items());
        let (g2, _) = tree.contained_in(&q);
        let (w2, _) = scan.contained_in(&q);
        assert_eq!(g2, w2, "contained_in");
        let (g3, _) = tree.exact(&q);
        let (w3, _) = scan.exact(&q);
        assert_eq!(g3, w3, "exact");
    }
}

#[test]
fn exact_finds_inserted_signature() {
    let data = make_data(200);
    let tree = tree_of(&data);
    for (tid, sig) in data.iter().take(20) {
        let (hits, _) = tree.exact(sig);
        assert!(hits.contains(tid));
    }
}

#[test]
fn containment_example_from_paper_section3() {
    // "find all transactions containing items 2 and 6" — build a small
    // universe where that query selects a known subset.
    let nbits = 8u32;
    let data: Vec<(u64, Signature)> = vec![
        (1, Signature::from_items(nbits, &[2, 6])),
        (2, Signature::from_items(nbits, &[2, 3, 6])),
        (3, Signature::from_items(nbits, &[2, 3])),
        (4, Signature::from_items(nbits, &[6])),
        (5, Signature::from_items(nbits, &[0, 2, 5, 6])),
    ];
    let mut tree = SgTree::create(Arc::new(MemStore::new(256)), TreeConfig::new(nbits)).unwrap();
    for (tid, sig) in &data {
        tree.insert(*tid, sig);
    }
    let (hits, _) = tree.containing(&Signature::from_items(nbits, &[2, 6]));
    assert_eq!(hits, vec![1, 2, 5]);
}

#[test]
fn knn_respects_k_larger_than_data() {
    let data = make_data(10);
    let tree = tree_of(&data);
    let (hits, _) = tree.knn(&Signature::from_items(NBITS, &[1]), 100, &Metric::hamming());
    assert_eq!(hits.len(), 10);
}

#[test]
fn queries_on_empty_tree() {
    let tree = SgTree::create(Arc::new(MemStore::new(512)), TreeConfig::new(NBITS)).unwrap();
    let q = Signature::from_items(NBITS, &[1, 2]);
    let m = Metric::hamming();
    assert!(tree.nn(&q, &m).0.is_empty());
    assert!(tree.knn_best_first(&q, 3, &m).0.is_empty());
    assert!(tree.range(&q, 10.0, &m).0.is_empty());
    assert!(tree.containing(&q).0.is_empty());
    assert!(tree.nn_all_ties(&q, &m).0.is_empty());
}

#[test]
fn stats_data_compared_bounded_by_len_and_positive() {
    let data = make_data(500);
    let tree = tree_of(&data);
    let (_, stats) = tree.nn(
        &Signature::from_items(NBITS, &[1, 2, 3]),
        &Metric::hamming(),
    );
    assert!(stats.data_compared >= 1);
    assert!(stats.data_compared <= 500);
    assert!(stats.nodes_accessed >= tree.height() as u64);
}

#[test]
fn nn_prunes_relative_to_scan_on_clustered_data() {
    let data = make_data(2000);
    let tree = tree_of(&data);
    let m = Metric::hamming();
    let mut compared = 0u64;
    let qs = queries();
    for q in &qs {
        let (_, stats) = tree.nn(q, &m);
        compared += stats.data_compared;
    }
    let frac = compared as f64 / (2000.0 * qs.len() as f64);
    assert!(
        frac < 0.8,
        "NN search should prune: compared {frac:.2} of data"
    );
}

#[test]
fn similarity_join_matches_nested_loop() {
    let left_data = make_data(120);
    let right_data: Vec<(u64, Signature)> = make_data(150)
        .into_iter()
        .map(|(tid, s)| (tid + 1000, s))
        .collect();
    let left = tree_of(&left_data);
    let right = tree_of(&right_data);
    let m = Metric::hamming();
    for eps in [0.0, 2.0, 4.0] {
        let (got, _) = left.similarity_join(&right, eps, &m);
        let mut want = Vec::new();
        for (lt, ls) in &left_data {
            for (rt, rs) in &right_data {
                let d = m.dist(ls, rs);
                if d <= eps {
                    want.push((*lt, *rt, d));
                }
            }
        }
        assert_eq!(got.len(), want.len(), "eps={eps}");
        let got_set: std::collections::HashSet<(u64, u64)> =
            got.iter().map(|p| (p.left, p.right)).collect();
        for (l, r, _) in &want {
            assert!(got_set.contains(&(*l, *r)));
        }
    }
}

#[test]
fn closest_pair_matches_nested_loop() {
    let left_data = make_data(80);
    let right_data: Vec<(u64, Signature)> = make_data(90)
        .into_iter()
        .map(|(tid, s)| {
            (
                tid + 1000,
                Signature::from_items(NBITS, &{
                    // Shift items so distance 0 pairs are unlikely but possible.
                    let mut it = s.items();
                    if let Some(first) = it.first_mut() {
                        *first = (*first + 1) % NBITS;
                    }
                    it
                }),
            )
        })
        .collect();
    let left = tree_of(&left_data);
    let right = tree_of(&right_data);
    let m = Metric::hamming();
    let (got, _) = left.closest_pair(&right, &m);
    let got = got.expect("nonempty trees");
    let mut best = f64::INFINITY;
    for (_, ls) in &left_data {
        for (_, rs) in &right_data {
            best = best.min(m.dist(ls, rs));
        }
    }
    assert_eq!(got.dist, best);
}

#[test]
fn closest_pair_empty_side_is_none() {
    let a = tree_of(&make_data(10));
    let b = SgTree::create(Arc::new(MemStore::new(512)), TreeConfig::new(NBITS)).unwrap();
    assert!(a.closest_pair(&b, &Metric::hamming()).0.is_none());
    assert!(b.closest_pair(&a, &Metric::hamming()).0.is_none());
}

#[test]
fn fixed_dim_metric_prunes_more_on_categorical_data() {
    // Fixed-size tuples: the §6 bound must reduce data compared, never
    // change results.
    let d = 6u32;
    let mut data = Vec::new();
    let mut x = 7u64;
    for tid in 0..500u64 {
        let mut items = Vec::new();
        for a in 0..d {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(11);
            items.push(a * 20 + ((x >> 40) % 20) as u32);
        }
        data.push((tid, Signature::from_items(NBITS, &items)));
    }
    let tree = tree_of(&data);
    let scan = scan_of(&data);
    let relaxed = Metric::hamming();
    let strict = Metric::with_fixed_dim(MetricKind::Hamming, d);
    let mut relaxed_cmp = 0u64;
    let mut strict_cmp = 0u64;
    for q in queries().into_iter().take(10) {
        let (g1, s1) = tree.knn(&q, 5, &relaxed);
        let (g2, s2) = tree.knn(&q, 5, &strict);
        let (want, _) = scan.knn(&q, 5, &relaxed);
        assert_eq!(dists(&g1), dists(&want));
        assert_eq!(dists(&g2), dists(&want));
        relaxed_cmp += s1.data_compared;
        strict_cmp += s2.data_compared;
    }
    assert!(
        strict_cmp <= relaxed_cmp,
        "fixed-dim bound should prune at least as much: {strict_cmp} vs {relaxed_cmp}"
    );
}

#[test]
fn all_split_policies_answer_queries_identically() {
    let data = make_data(400);
    let scan = scan_of(&data);
    let m = Metric::hamming();
    for policy in [
        SplitPolicy::Quadratic,
        SplitPolicy::AvLink,
        SplitPolicy::MinLink,
    ] {
        let mut tree = SgTree::create(
            Arc::new(MemStore::new(512)),
            TreeConfig::new(NBITS).split(policy),
        )
        .unwrap();
        for (tid, sig) in &data {
            tree.insert(*tid, sig);
        }
        tree.validate();
        for q in queries().into_iter().take(8) {
            let (got, _) = tree.knn(&q, 5, &m);
            let (want, _) = scan.knn(&q, 5, &m);
            assert_eq!(dists(&got), dists(&want), "{policy:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// QueryStats coverage: every query type produces nonzero, sensible counters,
// and the counters are monotone in the query's selectivity knobs.
// ---------------------------------------------------------------------------

#[test]
fn query_stats_nonzero_for_every_query_type() {
    let data = make_data(400);
    let tree = tree_of(&data);
    let m = Metric::hamming();
    let q = Signature::from_items(NBITS, &[1, 2, 3]);
    let named: Vec<(&str, crate::QueryStats)> = vec![
        ("knn", tree.knn(&q, 10, &m).1),
        ("knn_best_first", tree.knn_best_first(&q, 10, &m).1),
        ("nn_all_ties", tree.nn_all_ties(&q, &m).1),
        ("range", tree.range(&q, 4.0, &m).1),
        ("containing", tree.containing(&q).1),
        ("contained_in", tree.contained_in(&q).1),
        ("exact", tree.exact(&q).1),
    ];
    for (name, s) in named {
        assert!(s.nodes_accessed >= 1, "{name}: no nodes accessed");
        assert!(
            s.dist_computations + s.data_compared >= 1,
            "{name}: no work counted"
        );
        // Every node access goes through the pool.
        assert!(
            s.io.logical_reads >= s.nodes_accessed,
            "{name}: logical reads {} < nodes {}",
            s.io.logical_reads,
            s.nodes_accessed
        );
        assert!(s.hit_rate() >= 0.0 && s.hit_rate() <= 1.0, "{name}");
    }
    // Joins combine the I/O of both trees.
    let other = tree_of(&make_data(120));
    let (_, js) = tree.similarity_join(&other, 2.0, &m);
    assert!(js.nodes_accessed >= 1);
    assert!(js.dist_computations >= 1);
    assert!(js.io.logical_reads >= js.nodes_accessed);
    let (_, cs) = tree.closest_pair(&other, &m);
    assert!(cs.nodes_accessed >= 1);
    assert!(cs.dist_computations >= 1);
}

#[test]
fn query_stats_monotone_in_k() {
    let data = make_data(600);
    let tree = tree_of(&data);
    let m = Metric::hamming();
    let q = Signature::from_items(NBITS, &[5, 9, 33]);
    for variant in ["dfs", "best_first"] {
        let mut prev_cmp = 0u64;
        let mut prev_nodes = 0u64;
        for k in [1usize, 5, 20, 80] {
            let (_, s) = match variant {
                "dfs" => tree.knn(&q, k, &m),
                _ => tree.knn_best_first(&q, k, &m),
            };
            assert!(
                s.data_compared >= prev_cmp && s.nodes_accessed >= prev_nodes,
                "{variant} k={k}: counters shrank"
            );
            prev_cmp = s.data_compared;
            prev_nodes = s.nodes_accessed;
        }
    }
}

#[test]
fn query_stats_monotone_in_eps() {
    let data = make_data(600);
    let tree = tree_of(&data);
    let m = Metric::hamming();
    let q = Signature::from_items(NBITS, &[5, 9, 33]);
    let mut prev_nodes = 0u64;
    let mut prev_cmp = 0u64;
    let mut prev_hits = 0usize;
    for eps in [0.0, 2.0, 4.0, 8.0, 16.0] {
        let (hits, s) = tree.range(&q, eps, &m);
        assert!(s.nodes_accessed >= prev_nodes, "eps={eps}");
        assert!(s.data_compared >= prev_cmp, "eps={eps}");
        assert!(hits.len() >= prev_hits, "eps={eps}");
        prev_nodes = s.nodes_accessed;
        prev_cmp = s.data_compared;
        prev_hits = hits.len();
    }
}

// ---------------------------------------------------------------------------
// EXPLAIN traces: per-level breakdowns are consistent with the aggregate
// stats, obey the descend-or-prune conservation law, and round-trip JSON.
// ---------------------------------------------------------------------------

/// For every directory level L, each lower-bound evaluation either led to a
/// descent (a visit one level down) or was pruned at L.
fn assert_trace_conservation(trace: &crate::QueryTrace) {
    for l in &trace.levels {
        if l.level == 0 {
            continue;
        }
        let below_visits = trace
            .levels
            .iter()
            .find(|x| x.level == l.level - 1)
            .map_or(0, |x| x.nodes_visited);
        assert_eq!(
            l.lower_bound_evals,
            below_visits + l.entries_pruned,
            "level {}: {} lb-evals != {} descents + {} pruned",
            l.level,
            l.lower_bound_evals,
            below_visits,
            l.entries_pruned
        );
    }
}

fn assert_trace_matches_stats(trace: &crate::QueryTrace, stats: &crate::QueryStats) {
    assert_eq!(trace.nodes_accessed, stats.nodes_accessed);
    assert_eq!(trace.data_compared, stats.data_compared);
    assert_eq!(trace.dist_computations, stats.dist_computations);
    let visits: u64 = trace.levels.iter().map(|l| l.nodes_visited).sum();
    assert_eq!(visits, stats.nodes_accessed);
    let exact: u64 = trace.levels.iter().map(|l| l.exact_distances).sum();
    assert_eq!(exact, stats.data_compared);
    let lb: u64 = trace.levels.iter().map(|l| l.lower_bound_evals).sum();
    assert_eq!(lb + exact, stats.dist_computations);
}

#[test]
fn knn_explain_trace_is_consistent_and_roundtrips() {
    let data = make_data(800);
    let tree = tree_of(&data);
    assert!(tree.height() >= 2, "need a directory level");
    let m = Metric::hamming();
    // A wide single-cluster query: cross-cluster subtrees have a Hamming
    // lower bound of |q| = 8, well beyond the in-cluster k-th distance, so
    // the (strict) canonical pruning rule demonstrably fires.
    let q = Signature::from_items(NBITS, &[1, 3, 5, 9, 14, 17, 22, 28]);
    let resp = tree
        .query(
            &QueryRequest::Knn {
                q: q.clone(),
                k: 10,
                metric: m,
            },
            &QueryOptions::traced(),
        )
        .unwrap();
    let hits = resp.output.neighbors().unwrap();
    let (stats, trace) = (resp.stats, resp.trace.expect("trace requested"));
    assert_eq!(hits.len(), 10);
    assert_eq!(trace.results, 10);
    assert_trace_matches_stats(&trace, &stats);
    assert_trace_conservation(&trace);
    // Levels span leaf to root.
    assert!(trace.levels.iter().any(|l| l.level == 0));
    let top = trace.levels.iter().map(|l| l.level).max().unwrap();
    assert_eq!(top, (tree.height() - 1) as u32);
    // Something was pruned on clustered data.
    let pruned: u64 = trace.levels.iter().map(|l| l.entries_pruned).sum();
    assert!(pruned > 0, "expected pruning on clustered data");
    // Render mentions every section; JSON round-trips losslessly.
    let text = trace.render();
    assert!(text.contains("EXPLAIN knn k=10"), "{text}");
    assert!(text.contains("leaf"), "{text}");
    assert!(text.contains("pool hit rate"), "{text}");
    let back = crate::QueryTrace::from_json(&trace.to_json()).unwrap();
    assert_eq!(back, trace);
}

#[test]
fn range_and_containing_traces_are_consistent() {
    let data = make_data(500);
    let tree = tree_of(&data);
    let m = Metric::hamming();
    let q = Signature::from_items(NBITS, &[3, 17]);
    let resp = tree
        .query(
            &QueryRequest::Range {
                q: q.clone(),
                eps: 4.0,
                metric: m,
            },
            &QueryOptions::traced(),
        )
        .unwrap();
    let trace = resp.trace.expect("trace requested");
    assert_eq!(trace.results, resp.output.len() as u64);
    assert_trace_matches_stats(&trace, &resp.stats);
    assert_trace_conservation(&trace);

    let cresp = tree
        .query(
            &QueryRequest::Containing { q: q.clone() },
            &QueryOptions::traced(),
        )
        .unwrap();
    let ctrace = cresp.trace.expect("trace requested");
    assert_eq!(ctrace.results, cresp.output.len() as u64);
    assert_eq!(ctrace.nodes_accessed, cresp.stats.nodes_accessed);
    assert_eq!(ctrace.data_compared, cresp.stats.data_compared);
    assert_trace_conservation(&ctrace);
    let back = crate::QueryTrace::from_json(&ctrace.to_json()).unwrap();
    assert_eq!(back, ctrace);
}

#[test]
fn traced_queries_do_not_change_results_or_counters() {
    let data = make_data(400);
    let tree = tree_of(&data);
    let m = Metric::hamming();
    let q = Signature::from_items(NBITS, &[7, 21, 60]);
    let (plain, ps) = tree.knn(&q, 10, &m);
    let resp = tree
        .query(
            &QueryRequest::Knn {
                q: q.clone(),
                k: 10,
                metric: m,
            },
            &QueryOptions::traced(),
        )
        .unwrap();
    let traced = resp.output.neighbors().unwrap().to_vec();
    let ts = resp.stats;
    assert_eq!(dists(&plain), dists(&traced));
    assert_eq!(ps.nodes_accessed, ts.nodes_accessed);
    assert_eq!(ps.data_compared, ts.data_compared);
    assert_eq!(ps.dist_computations, ts.dist_computations);
}

// ---------------------------------------------------------------------------
// The unified API: untraced parity, option handling, and SetIndex dynamics.
// ---------------------------------------------------------------------------

#[test]
fn unified_query_matches_legacy_methods_untraced() {
    use crate::api::QueryOutput;
    let data = make_data(600);
    let tree = tree_of(&data);
    let m = Metric::jaccard();
    let q = Signature::from_items(NBITS, &[5, 9, 33]);
    let opts = QueryOptions::default();

    let (legacy, _) = tree.knn(&q, 7, &m);
    let resp = tree
        .query(
            &QueryRequest::Knn {
                q: q.clone(),
                k: 7,
                metric: m,
            },
            &opts,
        )
        .unwrap();
    assert_eq!(resp.output, QueryOutput::Neighbors(legacy));
    assert!(resp.trace.is_none());
    assert!(resp.per_shard.is_empty());

    let (legacy_r, _) = tree.range(&q, 0.7, &m);
    let resp = tree
        .query(
            &QueryRequest::Range {
                q: q.clone(),
                eps: 0.7,
                metric: m,
            },
            &opts,
        )
        .unwrap();
    assert_eq!(resp.output, QueryOutput::Neighbors(legacy_r));

    for (req, legacy) in [
        (
            QueryRequest::Containing { q: q.clone() },
            tree.containing(&q).0,
        ),
        (
            QueryRequest::ContainedIn { q: q.clone() },
            tree.contained_in(&q).0,
        ),
        (QueryRequest::Exact { q: q.clone() }, tree.exact(&q).0),
    ] {
        let resp = tree.query(&req, &opts).unwrap();
        assert_eq!(resp.output, QueryOutput::Tids(legacy), "{}", req.label());
    }
}

#[test]
fn unified_query_rejects_cancelled_mismatched_and_expired() {
    use crate::api::CancelFlag;
    use sg_pager::SgError;
    let data = make_data(100);
    let tree = tree_of(&data);
    let m = Metric::hamming();
    let req = QueryRequest::Knn {
        q: Signature::from_items(NBITS, &[1]),
        k: 3,
        metric: m,
    };

    let cancel = CancelFlag::new();
    cancel.cancel();
    let opts = QueryOptions {
        cancel: Some(cancel),
        ..QueryOptions::default()
    };
    assert!(matches!(tree.query(&req, &opts), Err(SgError::Cancelled)));

    let opts = QueryOptions {
        deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
        ..QueryOptions::default()
    };
    assert!(matches!(tree.query(&req, &opts), Err(SgError::Cancelled)));

    let bad = QueryRequest::Exact {
        q: Signature::from_items(NBITS * 2, &[1]),
    };
    assert!(matches!(
        tree.query(&bad, &QueryOptions::default()),
        Err(SgError::Invalid(_))
    ));
}

#[test]
fn set_index_trait_mutates_and_queries_through_dyn() {
    use crate::api::SetIndex;
    let mut tree = SgTree::create(Arc::new(MemStore::new(512)), TreeConfig::new(NBITS)).unwrap();
    let idx: &mut dyn SetIndex = &mut tree;
    let a = Signature::from_items(NBITS, &[1, 2, 3]);
    let b = Signature::from_items(NBITS, &[4, 5]);
    idx.insert(7, &a).unwrap();
    idx.insert(8, &b).unwrap();
    assert_eq!(idx.len(), 2);
    let resp = idx
        .query(
            &QueryRequest::Exact { q: a.clone() },
            &QueryOptions::default(),
        )
        .unwrap();
    assert_eq!(resp.output.tids().unwrap(), &[7]);
    assert!(idx.delete(7, &a).unwrap());
    assert!(!idx.delete(7, &a).unwrap());
    assert_eq!(idx.len(), 1);
}

// ---------------------------------------------------------------------------
// Metrics registry integration: attached instruments see queries and
// maintenance operations.
// ---------------------------------------------------------------------------

#[test]
fn registered_obs_records_queries_and_maintenance() {
    let registry = crate::Registry::new();
    let mut tree = SgTree::create(Arc::new(MemStore::new(512)), TreeConfig::new(NBITS)).unwrap();
    tree.register_obs(&registry, "sg_tree");
    // The pool instruments only mirror I/O from attachment on; baseline the
    // pool counters here so the comparison below covers the same window.
    let io0 = tree.pool().stats().snapshot();
    let data = make_data(300);
    for (tid, sig) in &data {
        tree.insert(*tid, sig);
    }
    let m = Metric::hamming();
    let q = Signature::from_items(NBITS, &[1, 2, 3]);
    let (_, s1) = tree.knn(&q, 5, &m);
    let (_, s2) = tree.range(&q, 3.0, &m);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("sg_tree.queries"), 2);
    assert_eq!(
        snap.counter("sg_tree.nodes_accessed"),
        s1.nodes_accessed + s2.nodes_accessed
    );
    assert_eq!(
        snap.counter("sg_tree.data_compared"),
        s1.data_compared + s2.data_compared
    );
    assert_eq!(snap.counter("sg_tree.inserts"), 300);
    assert!(
        snap.counter("sg_tree.splits") >= 1,
        "300 inserts must split"
    );
    assert!(snap.counter("sg_tree.choose_entries_scanned") >= 1);
    // The pool instruments mirror the tree's I/O counters.
    let io = tree.pool().stats().snapshot().since(&io0);
    assert_eq!(
        snap.counter("sg_tree.pool.hits") + snap.counter("sg_tree.pool.misses"),
        io.logical_reads
    );
    assert_eq!(snap.counter("sg_tree.pool.misses"), io.physical_reads);
    assert_eq!(snap.counter("sg_tree.pool.writes"), io.writes);
    assert_eq!(snap.counter("sg_tree.pool.evictions"), io.evictions);
    // Deletion counters.
    let (tid, sig) = &data[0];
    assert!(tree.delete(*tid, sig));
    let snap2 = registry.snapshot();
    assert_eq!(snap2.counter("sg_tree.deletes"), 1);
}
