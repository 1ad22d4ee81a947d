//! Differential testing: every index structure in the workspace against a
//! from-scratch linear-scan oracle, over seeded random basket workloads.
//!
//! The oracle is deliberately *not* [`sg_tree::ScanIndex`] — it is a
//! ~20-line reference implementation written here, so a bug shared by the
//! indexes and the scan baseline cannot cancel out.
//!
//! Every backend is driven through `dyn` [`SetIndex`] — the unified
//! query/mutation trait — so the differential harness is one loop over
//! trait objects, not a copy of itself per index type. Exactness
//! contracts verified:
//! * `SgTree` and `ShardedExecutor` (all shard counts and partitioners)
//!   return the oracle answer **byte for byte** — distances, tids, and
//!   order — for k-NN, range, containment, and exact-match queries.
//! * `SgTable` and `InvertedIndex` return the oracle's distance vector for
//!   k-NN and the oracle's exact answer set for range; queries outside a
//!   backend's contract surface as [`SgError::Unsupported`], never wrong
//!   answers.
//! * `MinHashLsh` is sound (every reported distance is real) and its
//!   recall on close neighbors stays above a measured floor.

use sg_bench::workloads::{build_tree, pairs_of, PAGE_SIZE, POOL_FRAMES, SEED};
use sg_exec::{DurabilityConfig, ExecConfig, Partitioner, ShardedExecutor, WriteOp};
use sg_inverted::InvertedIndex;
use sg_minhash::{LshParams, MinHashLsh};
use sg_pager::MemStore;
use sg_quest::basket::{BasketParams, PatternPool};
use sg_sig::{Metric, Signature};
use sg_table::{SgTable, TableParams};
use sg_tree::{
    Neighbor, QueryOptions, QueryOutput, QueryRequest, SetIndex, SgError, SgResult, Tid,
};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// The oracle: a plain linear scan over the raw data.
// ---------------------------------------------------------------------------

fn oracle_knn(data: &[(Tid, Signature)], q: &Signature, k: usize, m: &Metric) -> Vec<Neighbor> {
    let mut all: Vec<Neighbor> = data
        .iter()
        .map(|(tid, s)| Neighbor {
            tid: *tid,
            dist: m.dist(q, s),
        })
        .collect();
    all.sort_by(|a, b| a.dist.partial_cmp(&b.dist).unwrap().then(a.tid.cmp(&b.tid)));
    all.truncate(k);
    all
}

fn oracle_range(data: &[(Tid, Signature)], q: &Signature, eps: f64, m: &Metric) -> Vec<Neighbor> {
    let mut all: Vec<Neighbor> = data
        .iter()
        .filter_map(|(tid, s)| {
            let d = m.dist(q, s);
            (d <= eps).then_some(Neighbor { tid: *tid, dist: d })
        })
        .collect();
    all.sort_by(|a, b| a.dist.partial_cmp(&b.dist).unwrap().then(a.tid.cmp(&b.tid)));
    all
}

fn oracle_containing(data: &[(Tid, Signature)], q: &Signature) -> Vec<Tid> {
    data.iter()
        .filter(|(_, s)| s.contains(q))
        .map(|(tid, _)| *tid)
        .collect()
}

fn oracle_exact(data: &[(Tid, Signature)], q: &Signature) -> Vec<Tid> {
    data.iter()
        .filter(|(_, s)| s == q)
        .map(|(tid, _)| *tid)
        .collect()
}

fn dists(ns: &[Neighbor]) -> Vec<f64> {
    ns.iter().map(|n| n.dist).collect()
}

/// Seeded basket workload: `n` transactions plus `n_queries` queries drawn
/// from the same pattern pool, so queries resemble (but rarely equal) data.
fn workload(n: usize, n_queries: usize) -> (Vec<(Tid, Signature)>, Vec<Signature>, u32) {
    let pool = PatternPool::new(BasketParams::standard(8, 4), SEED ^ 0xD1FF);
    let ds = pool.dataset(n, SEED ^ 0xD1FF);
    let queries = pool
        .queries(n_queries, SEED ^ 0xFACE)
        .iter()
        .map(|q| Signature::from_items(ds.n_items, q))
        .collect();
    (pairs_of(&ds), queries, ds.n_items)
}

fn metrics() -> Vec<Metric> {
    vec![Metric::hamming(), Metric::jaccard()]
}

// ---------------------------------------------------------------------------
// The dyn SetIndex harness: every backend behind one trait object.
// ---------------------------------------------------------------------------

/// Builds every workspace backend over `data` as a boxed [`SetIndex`].
fn backends(data: &[(Tid, Signature)], nbits: u32) -> Vec<Box<dyn SetIndex>> {
    let (tree, _) = build_tree(nbits, data, None);
    let exec = ShardedExecutor::build(
        nbits,
        data,
        &ExecConfig {
            shards: 3,
            page_size: PAGE_SIZE,
            pool_frames: POOL_FRAMES,
            ..ExecConfig::default()
        },
    )
    .unwrap();
    let table = SgTable::build(
        Arc::new(MemStore::new(PAGE_SIZE)),
        nbits,
        &TableParams {
            k_signatures: 10,
            activation: 2,
            critical_mass: 0.15,
            pool_frames: POOL_FRAMES,
        },
        data,
    );
    let inv = InvertedIndex::build(Arc::new(MemStore::new(PAGE_SIZE)), nbits, POOL_FRAMES, data);
    let lsh = MinHashLsh::build(nbits, LshParams::default(), data);
    vec![
        Box::new(tree),
        Box::new(exec),
        Box::new(table),
        Box::new(inv),
        Box::new(lsh),
    ]
}

/// Issues one request through the trait object and unwraps a neighbor list.
fn neighbors_via(idx: &dyn SetIndex, req: &QueryRequest) -> SgResult<Vec<Neighbor>> {
    match idx.query(req, &QueryOptions::default())?.output {
        QueryOutput::Neighbors(ns) => Ok(ns),
        other => panic!("{}: expected neighbors, got {other:?}", idx.name()),
    }
}

/// Issues one request through the trait object and unwraps a tid list.
fn tids_via(idx: &dyn SetIndex, req: &QueryRequest) -> SgResult<Vec<Tid>> {
    match idx.query(req, &QueryOptions::default())?.output {
        QueryOutput::Tids(ts) => Ok(ts),
        other => panic!("{}: expected tids, got {other:?}", idx.name()),
    }
}

/// One loop, five backends: each answers the unified requests within its
/// contract (byte-exact, distance-exact, or sound-approximate), and
/// anything outside the contract is a structured `Unsupported` error.
#[test]
fn all_backends_match_oracle_through_dyn_set_index() {
    let (data, queries, nbits) = workload(3_000, 15);
    let m = Metric::hamming();
    let by_tid: std::collections::HashMap<Tid, &Signature> =
        data.iter().map(|(t, s)| (*t, s)).collect();
    for idx in backends(&data, nbits) {
        let idx: &dyn SetIndex = idx.as_ref();
        let name = idx.name();
        assert_eq!(idx.len(), data.len() as u64, "{name}: len");
        assert_eq!(idx.nbits(), nbits, "{name}: nbits");
        assert!(!idx.is_empty(), "{name}: is_empty");
        for q in &queries {
            let knn = QueryRequest::Knn {
                q: q.clone(),
                k: 10,
                metric: m,
            };
            let range = QueryRequest::Range {
                q: q.clone(),
                eps: 3.0,
                metric: m,
            };
            let truth_knn = oracle_knn(&data, q, 10, &m);
            let truth_range = oracle_range(&data, q, 3.0, &m);
            match name {
                // Exact backends: byte-identical, order included.
                "sg-tree" | "sg-exec" => {
                    assert_eq!(neighbors_via(idx, &knn).unwrap(), truth_knn, "{name}: knn");
                    assert_eq!(
                        neighbors_via(idx, &range).unwrap(),
                        truth_range,
                        "{name}: range"
                    );
                }
                // Distance-exact backends: the distance vector matches;
                // tie order at the k-th boundary is their own.
                "sg-table" | "inverted" => {
                    assert_eq!(
                        dists(&neighbors_via(idx, &knn).unwrap()),
                        dists(&truth_knn),
                        "{name}: knn distances"
                    );
                    let mut got = neighbors_via(idx, &range).unwrap();
                    got.sort_by(|a, b| {
                        a.dist.partial_cmp(&b.dist).unwrap().then(a.tid.cmp(&b.tid))
                    });
                    assert_eq!(got, truth_range, "{name}: range");
                }
                // Approximate backend: sound (no fabricated distances, no
                // out-of-radius answers), completeness not guaranteed.
                "minhash" => {
                    for n in neighbors_via(idx, &range).unwrap() {
                        assert_eq!(n.dist, m.dist(q, by_tid[&n.tid]), "{name}: fabricated");
                        assert!(n.dist <= 3.0, "{name}: out of radius");
                    }
                }
                other => panic!("unknown backend `{other}` joined the harness"),
            }
            // Containment queries: exact where supported, a structured
            // error (never a wrong answer) where not.
            let containing = QueryRequest::Containing { q: q.clone() };
            let exact = QueryRequest::Exact { q: q.clone() };
            match name {
                "sg-tree" | "sg-exec" | "inverted" => {
                    assert_eq!(
                        tids_via(idx, &containing).unwrap(),
                        oracle_containing(&data, q),
                        "{name}: containing"
                    );
                    assert_eq!(
                        tids_via(idx, &exact).unwrap(),
                        oracle_exact(&data, q),
                        "{name}: exact"
                    );
                }
                _ => {
                    assert!(
                        matches!(tids_via(idx, &containing), Err(SgError::Unsupported(_))),
                        "{name}: containment must be Unsupported"
                    );
                }
            }
        }
        // A fractional metric is outside the table/inverted contract: it
        // must refuse, not return Hamming-scored distances.
        let jaccard_knn = QueryRequest::Knn {
            q: queries[0].clone(),
            k: 5,
            metric: Metric::jaccard(),
        };
        match name {
            "sg-table" | "inverted" => assert!(
                matches!(
                    neighbors_via(idx, &jaccard_knn),
                    Err(SgError::Unsupported(_))
                ),
                "{name}: jaccard k-NN must be Unsupported"
            ),
            _ => assert!(neighbors_via(idx, &jaccard_knn).is_ok(), "{name}: jaccard"),
        }
        // A wrong-universe query is Invalid everywhere, uniformly.
        let wrong = QueryRequest::Exact {
            q: Signature::from_items(nbits + 64, &[1]),
        };
        assert!(
            matches!(
                idx.query(&wrong, &QueryOptions::default()),
                Err(SgError::Invalid(_))
            ),
            "{name}: universe mismatch must be Invalid"
        );
    }
}

/// Mutation through the trait: dynamic backends apply inserts and deletes
/// and the new state is immediately queryable; build-only backends refuse
/// with `Unsupported` and stay untouched.
#[test]
fn dyn_set_index_mutation_contract() {
    let (data, _, nbits) = workload(500, 1);
    let fresh_tid: Tid = 9_999_999;
    let fresh_sig = Signature::from_items(nbits, &[1, 5, 9]);
    for mut idx in backends(&data, nbits) {
        let name = idx.name();
        let before = idx.len();
        let exact = QueryRequest::Exact {
            q: fresh_sig.clone(),
        };
        match idx.insert(fresh_tid, &fresh_sig) {
            Ok(()) => {
                assert_eq!(idx.len(), before + 1, "{name}: len after insert");
                // Backends that can answer exact-match must now find it.
                if let Ok(ts) = tids_via(idx.as_ref(), &exact) {
                    assert!(ts.contains(&fresh_tid), "{name}: inserted tid missing");
                }
                match idx.delete(fresh_tid, &fresh_sig) {
                    Ok(applied) => {
                        assert!(applied, "{name}: delete of a present tid");
                        assert_eq!(idx.len(), before, "{name}: len after delete");
                    }
                    Err(SgError::Unsupported(_)) => {
                        // Append-only (the SG-table): the insert stays.
                        assert_eq!(idx.len(), before + 1, "{name}: append-only len");
                    }
                    Err(e) => panic!("{name}: delete failed unexpectedly: {e}"),
                }
            }
            Err(SgError::Unsupported(_)) => {
                assert_eq!(idx.len(), before, "{name}: build-only len must not move");
            }
            Err(e) => panic!("{name}: insert failed unexpectedly: {e}"),
        }
        // A wrong-universe insert is Invalid (not Unsupported, not a panic)
        // on every backend that accepts inserts at all.
        let bad = Signature::from_items(nbits + 64, &[2]);
        assert!(
            matches!(
                idx.insert(fresh_tid + 1, &bad),
                Err(SgError::Invalid(_)) | Err(SgError::Unsupported(_))
            ),
            "{name}: wrong-universe insert must be refused"
        );
    }
}

// ---------------------------------------------------------------------------
// SgTree: byte-identical to the oracle.
// ---------------------------------------------------------------------------

#[test]
fn tree_matches_oracle_byte_for_byte() {
    let (data, queries, nbits) = workload(3_000, 25);
    let (tree, _) = build_tree(nbits, &data, None);
    for m in &metrics() {
        for q in &queries {
            let (got, _) = tree.knn(q, 10, m);
            assert_eq!(got, oracle_knn(&data, q, 10, m), "knn {m:?}");
            let eps = oracle_knn(&data, q, 10, m).last().unwrap().dist;
            let (got, _) = tree.range(q, eps, m);
            assert_eq!(got, oracle_range(&data, q, eps, m), "range {m:?}");
        }
    }
    for q in &queries {
        let (got, _) = tree.containing(q);
        assert_eq!(got, oracle_containing(&data, q));
        let (got, _) = tree.exact(q);
        assert_eq!(got, oracle_exact(&data, q));
    }
    // Data points must find themselves at distance zero.
    for (tid, s) in data.iter().step_by(271) {
        let (got, _) = tree.knn(s, 1, &Metric::jaccard());
        assert_eq!(got[0].dist, 0.0);
        let (ex, _) = tree.exact(s);
        assert!(ex.contains(tid));
    }
}

// ---------------------------------------------------------------------------
// ShardedExecutor: byte-identical to both the oracle and the single tree,
// for every shard count × partitioner combination.
// ---------------------------------------------------------------------------

#[test]
fn sharded_executor_matches_single_tree_byte_for_byte() {
    let (data, queries, nbits) = workload(3_000, 20);
    let (tree, _) = build_tree(nbits, &data, None);
    let m = Metric::jaccard();
    for partitioner in [Partitioner::RoundRobin, Partitioner::SignatureClustered] {
        for shards in [1usize, 3, 4] {
            let exec = ShardedExecutor::build(
                nbits,
                &data,
                &ExecConfig {
                    shards,
                    partitioner,
                    page_size: PAGE_SIZE,
                    pool_frames: POOL_FRAMES,
                    ..ExecConfig::default()
                },
            )
            .unwrap();
            assert_eq!(exec.len(), data.len() as u64);
            for q in &queries {
                let (single, _) = tree.knn(q, 10, &m);
                let (sharded, stats) = exec.knn(q, 10, &m);
                assert_eq!(
                    sharded, single,
                    "knn differs at shards={shards} {partitioner:?}"
                );
                assert_eq!(stats.per_shard.len(), shards);
                assert_eq!(sharded, oracle_knn(&data, q, 10, &m));

                let eps = single.last().unwrap().dist;
                let (single_r, _) = tree.range(q, eps, &m);
                let (sharded_r, _) = exec.range(q, eps, &m);
                assert_eq!(sharded_r, single_r, "range differs at shards={shards}");

                let (single_c, _) = tree.containing(q);
                let (sharded_c, _) = exec.containing(q);
                assert_eq!(sharded_c, single_c, "containing differs at shards={shards}");

                let (single_e, _) = tree.exact(q);
                let (sharded_e, _) = exec.exact(q);
                assert_eq!(sharded_e, single_e, "exact differs at shards={shards}");
            }
        }
    }
}

#[test]
fn sharded_batch_matches_sequential_answers() {
    let (data, queries, nbits) = workload(2_000, 16);
    let m = Metric::hamming();
    let exec = ShardedExecutor::build(
        nbits,
        &data,
        &ExecConfig {
            shards: 4,
            ..ExecConfig::default()
        },
    )
    .unwrap();
    let batch: Vec<QueryRequest> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| match i % 4 {
            0 => QueryRequest::Knn {
                q: q.clone(),
                k: 8,
                metric: m,
            },
            1 => QueryRequest::Range {
                q: q.clone(),
                eps: 3.0,
                metric: m,
            },
            2 => QueryRequest::Containing { q: q.clone() },
            _ => QueryRequest::Exact { q: q.clone() },
        })
        .collect();
    let results = exec.execute_batch(batch);
    assert_eq!(results.len(), queries.len());
    for (i, (q, r)) in queries.iter().zip(&results).enumerate() {
        let r = r.as_ref().expect("batch query must succeed");
        match (i % 4, &r.output) {
            (0, QueryOutput::Neighbors(ns)) => assert_eq!(*ns, oracle_knn(&data, q, 8, &m)),
            (1, QueryOutput::Neighbors(ns)) => assert_eq!(*ns, oracle_range(&data, q, 3.0, &m)),
            (2, QueryOutput::Tids(ts)) => assert_eq!(*ts, oracle_containing(&data, q)),
            (3, QueryOutput::Tids(ts)) => assert_eq!(*ts, oracle_exact(&data, q)),
            (_, out) => panic!("query {i} returned mismatched output kind {out:?}"),
        }
        assert_eq!(r.per_shard.len(), 4);
    }
}

// ---------------------------------------------------------------------------
// Kernel variants: every compiled-in visit kernel (scalar, unrolled, SIMD)
// must produce the oracle answer byte for byte — distances, tids, order —
// through both the single tree and the sharded executor. The scalar
// baseline is captured first, then each variant is forced in-process and
// must reproduce it exactly.
// ---------------------------------------------------------------------------

#[test]
fn every_kernel_variant_answers_byte_for_byte() {
    use sg_sig::kernels::{self, KernelKind};

    let (data, queries, nbits) = workload(2_000, 12);
    let (tree, _) = build_tree(nbits, &data, None);
    let exec = ShardedExecutor::build(
        nbits,
        &data,
        &ExecConfig {
            shards: 3,
            page_size: PAGE_SIZE,
            pool_frames: POOL_FRAMES,
            ..ExecConfig::default()
        },
    )
    .unwrap();

    // Baseline answers under the reference kernel.
    kernels::force(KernelKind::Scalar);
    struct Baseline {
        knn: Vec<Neighbor>,
        range: Vec<Neighbor>,
        containing: Vec<Tid>,
        exact: Vec<Tid>,
    }
    let eps_of = |knn: &[Neighbor]| knn.last().map_or(0.0, |n| n.dist);
    let baselines: Vec<Vec<Baseline>> = metrics()
        .iter()
        .map(|m| {
            queries
                .iter()
                .map(|q| {
                    let knn = oracle_knn(&data, q, 10, m);
                    let range = oracle_range(&data, q, eps_of(&knn), m);
                    Baseline {
                        knn,
                        range,
                        containing: oracle_containing(&data, q),
                        exact: oracle_exact(&data, q),
                    }
                })
                .collect()
        })
        .collect();

    let compiled = kernels::variants();
    assert!(
        compiled.contains(&KernelKind::Scalar) && compiled.contains(&KernelKind::Unrolled),
        "scalar and unrolled must always be compiled in"
    );
    for &kind in compiled {
        kernels::force(kind);
        assert_eq!(kernels::active().kind, kind, "force did not take");
        for (m, per_query) in metrics().iter().zip(&baselines) {
            for (q, truth) in queries.iter().zip(per_query) {
                let (got, _) = tree.knn(q, 10, m);
                assert_eq!(got, truth.knn, "{kind:?} tree knn {m:?}");
                let (got, _) = exec.knn(q, 10, m);
                assert_eq!(got, truth.knn, "{kind:?} exec knn {m:?}");
                let eps = eps_of(&truth.knn);
                let (got, _) = tree.range(q, eps, m);
                assert_eq!(got, truth.range, "{kind:?} tree range {m:?}");
                let (got, _) = exec.range(q, eps, m);
                assert_eq!(got, truth.range, "{kind:?} exec range {m:?}");
            }
        }
        for (q, truth) in queries.iter().zip(&baselines[0]) {
            let (got, _) = tree.containing(q);
            assert_eq!(got, truth.containing, "{kind:?} tree containing");
            let (got, _) = exec.containing(q);
            assert_eq!(got, truth.containing, "{kind:?} exec containing");
            let (got, _) = tree.exact(q);
            assert_eq!(got, truth.exact, "{kind:?} tree exact");
            let (got, _) = exec.exact(q);
            assert_eq!(got, truth.exact, "{kind:?} exec exact");
        }
    }
}

// ---------------------------------------------------------------------------
// Mmap-backed durable executor: byte-identical to the oracle, including
// while checkpoints (meta-page flips + view swaps) and copy-on-write page
// churn are actively running on other threads. This is the snapshot-
// isolation contract: a reader pins an immutable root and never sees a
// half-committed tree.
// ---------------------------------------------------------------------------

#[test]
fn mmap_executor_matches_oracle_during_active_checkpoints() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let (data, queries, nbits) = workload(2_000, 10);
    let dir = std::env::temp_dir().join(format!("sg-diff-mmap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let exec = ShardedExecutor::open_durable(
        nbits,
        &ExecConfig {
            shards: 3,
            page_size: PAGE_SIZE,
            pool_frames: POOL_FRAMES,
            ..ExecConfig::default()
        },
        &DurabilityConfig::os_only(&dir),
    )
    .unwrap();
    let inserts: Vec<WriteOp> = data
        .iter()
        .map(|(tid, sig)| WriteOp::Insert {
            tid: *tid,
            sig: sig.clone(),
        })
        .collect();
    for ack in exec.write_batch(inserts) {
        ack.expect("insert");
    }

    let m = Metric::jaccard();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Checkpointer thread: commit the page store in a tight loop so
        // reads below overlap meta-page flips and WAL truncations.
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                exec.checkpoint().expect("checkpoint under load");
            }
        });
        // Writer thread: upsert existing tids with their *current*
        // signatures — the logical state never changes (the oracle stays
        // valid) but every batch dirties COW pages, publishes a new
        // mapping, and swaps the snapshot views readers pin.
        s.spawn(|| {
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let (tid, sig) = &data[i % data.len()];
                let batch = vec![WriteOp::Upsert {
                    tid: *tid,
                    sig: sig.clone(),
                }];
                for ack in exec.write_batch(batch) {
                    ack.expect("no-op upsert under load");
                }
                i += 1;
            }
        });
        for _ in 0..4 {
            for q in &queries {
                let (got, _) = exec.knn(q, 10, &m);
                assert_eq!(got, oracle_knn(&data, q, 10, &m), "knn under checkpoint");
                let (got, _) = exec.containing(q);
                assert_eq!(
                    got,
                    oracle_containing(&data, q),
                    "containing under checkpoint"
                );
                let (got, _) = exec.exact(q);
                assert_eq!(got, oracle_exact(&data, q), "exact under checkpoint");
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    // After a final checkpoint and reopen, the restored index answers
    // byte-identically as well: the committed pages are the whole truth.
    exec.checkpoint().expect("final checkpoint");
    drop(exec);
    let exec = ShardedExecutor::open_durable(
        nbits,
        &ExecConfig {
            shards: 3,
            page_size: PAGE_SIZE,
            pool_frames: POOL_FRAMES,
            ..ExecConfig::default()
        },
        &DurabilityConfig::os_only(&dir),
    )
    .unwrap();
    assert_eq!(exec.len(), data.len() as u64);
    for q in &queries {
        let (got, _) = exec.knn(q, 10, &m);
        assert_eq!(got, oracle_knn(&data, q, 10, &m), "knn after reopen");
        let (got, _) = exec.exact(q);
        assert_eq!(got, oracle_exact(&data, q), "exact after reopen");
    }
    drop(exec);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// MinHashLsh: sound, self-recalling, and recall-bounded on close pairs.
// ---------------------------------------------------------------------------

#[test]
fn minhash_is_sound_and_recall_bounded() {
    let (data, queries, nbits) = workload(3_000, 20);
    let lsh = MinHashLsh::build(nbits, LshParams::default(), &data);
    let m = Metric::jaccard();
    let by_tid: std::collections::HashMap<Tid, &Signature> =
        data.iter().map(|(t, s)| (*t, s)).collect();
    // Soundness: every reported distance is the true distance.
    for q in &queries {
        let (got, _) = lsh.range(q, 0.5, &m);
        for n in &got {
            assert_eq!(n.dist, m.dist(q, by_tid[&n.tid]), "fabricated distance");
            assert!(n.dist <= 0.5);
        }
    }
    // Self-recall: a data signature always finds itself at distance 0.
    for (tid, s) in data.iter().step_by(173) {
        let (got, _) = lsh.knn(s, 1, &m);
        assert_eq!(got[0].dist, 0.0, "tid {tid} missed itself");
    }
    // Recall floor on close neighbors (Jaccard ≤ 0.3 ⇒ candidate
    // probability ≥ 97% with the default 16×4 bands): measured recall on
    // this seeded workload is 1.0; assert a safety margin below it.
    let mut close = 0usize;
    let mut found = 0usize;
    for q in &queries {
        let truth = oracle_range(&data, q, 0.3, &m);
        let (got, _) = lsh.range(q, 0.3, &m);
        let got_tids: std::collections::HashSet<Tid> = got.iter().map(|n| n.tid).collect();
        close += truth.len();
        found += truth.iter().filter(|n| got_tids.contains(&n.tid)).count();
    }
    assert!(close > 0, "workload produced no close pairs");
    let recall = found as f64 / close as f64;
    assert!(
        recall >= 0.9,
        "recall {recall:.3} below floor ({found}/{close})"
    );
}
