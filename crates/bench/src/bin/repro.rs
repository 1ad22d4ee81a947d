//! `repro` — regenerates every table and figure of the paper's evaluation
//! (§5), plus the ablation studies DESIGN.md calls out.
//!
//! ```text
//! repro [EXPERIMENT ...] [--scale F] [--queries N] [--out DIR]
//!
//! EXPERIMENT: table1 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13
//!             fig14 fig15 fig16 fig17 ablate scaling serve spans ingest
//!             health kernels profile all (default: all)
//! --scale F   scales every dataset cardinality by F (default 1.0 = the
//!             paper's sizes; use 0.1 for a quick pass)
//! --queries N queries per experimental point (default 100, as the paper;
//!             fig12 uses 10×N, matching its 1000)
//! --out DIR   where CSVs go (default results/)
//! ```
//!
//! Absolute times are hardware-specific; the *shapes* (who wins, by what
//! factor, where crossovers fall) are what EXPERIMENTS.md compares against
//! the paper.

use sg_bench::measure::{compare, measure_tree, QueryKind};
use sg_bench::report::{f, Table};
use sg_bench::scaled;
use sg_bench::workloads::{
    basket_instance, build_table, build_tree, census_instance, enable_obs, pairs_of, Instance,
    PAGE_SIZE, POOL_FRAMES, SEED,
};
use sg_obs::{Registry, RegistrySnapshot};
use sg_pager::MemStore;
use sg_quest::basket::{BasketParams, PatternPool};
use sg_quest::dataset_name;
use sg_sig::{Metric, MetricKind, Signature};
use sg_tree::{
    bulkload, ChooseSubtree, Entry, Node, QueryProbe, SgTree, SoaNode, SplitPolicy, TreeConfig,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

struct Opts {
    experiments: Vec<String>,
    scale: f64,
    queries: usize,
    out: PathBuf,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        experiments: Vec::new(),
        scale: 1.0,
        queries: 100,
        out: PathBuf::from("results"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                opts.scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
            }
            "--queries" => {
                opts.queries = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--queries needs an integer"));
            }
            "--out" => {
                opts.out = PathBuf::from(args.next().unwrap_or_else(|| die("--out needs a path")));
            }
            "--help" | "-h" => {
                println!("repro [EXPERIMENT ...] [--scale F] [--queries N] [--out DIR]");
                println!(
                    "experiments: table1 fig5..fig17 ablate scaling serve spans ingest \
                     health kernels profile all"
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') => die(&format!("unknown flag {other}")),
            other => opts.experiments.push(other.to_string()),
        }
    }
    if opts.experiments.is_empty() {
        opts.experiments.push("all".to_string());
    }
    opts
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

/// Captures the metrics recorded while one experiment section ran: the
/// global-registry delta since the previous section, serialized to JSON
/// and attached to every table the section produced.
fn finish_section(
    registry: &Registry,
    last: &mut RegistrySnapshot,
    section: Vec<Table>,
    out: &mut Vec<(Table, String)>,
) {
    let now = registry.snapshot();
    let metrics = sg_obs::export::to_json(&now.since(last));
    *last = now;
    for t in section {
        out.push((t, metrics.clone()));
    }
}

fn main() {
    let opts = parse_args();
    enable_obs();
    let registry = Registry::global();
    let mut last = registry.snapshot();
    let all = opts.experiments.iter().any(|e| e == "all");
    let want = |name: &str| all || opts.experiments.iter().any(|e| e == name);
    let mut tables: Vec<(Table, String)> = Vec::new();
    let t0 = Instant::now();

    if want("table1") {
        finish_section(registry, &mut last, table1(&opts), &mut tables);
    }
    if want("fig5") || want("fig6") {
        finish_section(registry, &mut last, fig5_6(&opts), &mut tables);
    }
    if want("fig7") || want("fig8") {
        finish_section(registry, &mut last, fig7_8(&opts), &mut tables);
    }
    if want("fig9") || want("fig10") {
        finish_section(registry, &mut last, fig9_10(&opts), &mut tables);
    }
    if want("fig11") {
        finish_section(registry, &mut last, fig11(&opts), &mut tables);
    }
    if want("fig12") {
        finish_section(registry, &mut last, fig12(&opts), &mut tables);
    }
    if want("fig13") {
        finish_section(registry, &mut last, fig13_14(&opts, false), &mut tables);
    }
    if want("fig14") {
        finish_section(registry, &mut last, fig13_14(&opts, true), &mut tables);
    }
    if want("fig15") {
        finish_section(registry, &mut last, fig15_16(&opts, false), &mut tables);
    }
    if want("fig16") {
        finish_section(registry, &mut last, fig15_16(&opts, true), &mut tables);
    }
    if want("fig17") {
        finish_section(registry, &mut last, fig17(&opts), &mut tables);
    }
    if want("ablate") {
        finish_section(registry, &mut last, ablations(&opts), &mut tables);
    }
    if want("scaling") {
        finish_section(registry, &mut last, scaling(&opts), &mut tables);
    }
    if want("serve") {
        finish_section(registry, &mut last, serve(&opts), &mut tables);
    }
    if want("spans") {
        finish_section(registry, &mut last, spans(&opts), &mut tables);
    }
    if want("ingest") {
        finish_section(registry, &mut last, ingest(&opts), &mut tables);
    }
    if want("health") {
        finish_section(registry, &mut last, health(&opts), &mut tables);
    }
    if want("kernels") {
        finish_section(registry, &mut last, kernels_fig(&opts), &mut tables);
    }
    if want("profile") {
        finish_section(registry, &mut last, profile_fig(&opts), &mut tables);
    }

    for (t, metrics) in &tables {
        println!("{}", t.render());
        match t.save_csv(&opts.out) {
            Ok(p) => println!("   -> {}", p.display()),
            Err(e) => eprintln!("   !! could not save CSV: {e}"),
        }
        let mpath = opts.out.join(format!("metrics_{}.json", t.name));
        match std::fs::write(&mpath, metrics) {
            Ok(()) => println!("   -> {}\n", mpath.display()),
            Err(e) => eprintln!("   !! could not save metrics: {e}\n"),
        }
    }
    println!(
        "repro: {} tables in {:.1}s (scale {})",
        tables.len(),
        t0.elapsed().as_secs_f64(),
        opts.scale
    );
}

/// Appends the standard tree-vs-table comparison row.
fn push_cmp(
    pct_time: &mut Table,
    ios: Option<&mut Table>,
    x: &str,
    c: sg_bench::measure::Comparison,
) {
    pct_time.row(vec![
        x.to_string(),
        f(c.table.pct_data),
        f(c.tree.pct_data),
        f(c.table.time_ms),
        f(c.tree.time_ms),
    ]);
    if let Some(ios) = ios {
        ios.row(vec![x.to_string(), f(c.table.ios), f(c.tree.ios)]);
    }
}

// ---------------------------------------------------------------- Table 1

fn table1(opts: &Opts) -> Vec<Table> {
    let d = scaled(200_000, opts.scale);
    eprintln!("[table1] split-policy comparison on CENSUS ({d} tuples)…");
    let mut out = Table::new(
        "table1",
        "Comparison of the three split policies (uncompressed trees, CENSUS, NN queries)",
        &["metric", "q-split", "av-link", "min-link"],
    );
    let policies = [
        SplitPolicy::Quadratic,
        SplitPolicy::AvLink,
        SplitPolicy::MinLink,
    ];
    let mut areas: Vec<Vec<f64>> = Vec::new();
    let mut insert_ms: Vec<f64> = Vec::new();
    let mut avgs: Vec<sg_bench::measure::Avg> = Vec::new();
    let metric = Metric::hamming();
    for policy in policies {
        // Table 1 uses uncompressed trees.
        let (inst, queries) = {
            let gen = sg_quest::census::CensusGenerator::new(
                sg_quest::census::Schema::census(),
                sg_quest::census::CensusParams::default(),
                SEED,
            );
            let ds = gen.dataset(d, SEED);
            let data = pairs_of(&ds);
            let cfg = TreeConfig::new(ds.n_items).split(policy).compression(false);
            let (tree, tree_build_secs) = build_tree(ds.n_items, &data, Some(cfg));
            let (table, table_build_secs) = build_table(ds.n_items, &data);
            let scan = sg_bench::workloads::build_scan(ds.n_items, &data);
            let queries: Vec<Signature> = gen
                .queries(opts.queries, SEED)
                .iter()
                .map(|q| Signature::from_items(ds.n_items, q))
                .collect();
            (
                Instance {
                    nbits: ds.n_items,
                    data,
                    tree,
                    table,
                    scan,
                    tree_build_secs,
                    table_build_secs,
                },
                queries,
            )
        };
        let la = inst.tree.level_areas();
        areas.push(la);
        insert_ms.push(1000.0 * inst.tree_build_secs / d as f64);
        avgs.push(measure_tree(&inst, &queries, QueryKind::Knn(1), &metric));
    }
    for level in 1..=3usize {
        out.row(
            std::iter::once(format!("avg area at level {level}"))
                .chain(
                    areas
                        .iter()
                        .map(|a| f(a.get(level).copied().unwrap_or(0.0))),
                )
                .collect(),
        );
    }
    out.row(
        std::iter::once("insertion cost (ms)".to_string())
            .chain(insert_ms.iter().map(|&x| format!("{x:.4}")))
            .collect(),
    );
    out.row(
        std::iter::once("% of data accessed".to_string())
            .chain(avgs.iter().map(|a| f(a.pct_data)))
            .collect(),
    );
    out.row(
        std::iter::once("CPU time (ms)".to_string())
            .chain(avgs.iter().map(|a| f(a.time_ms)))
            .collect(),
    );
    out.row(
        std::iter::once("I/Os".to_string())
            .chain(avgs.iter().map(|a| f(a.ios)))
            .collect(),
    );
    out.row(
        std::iter::once("pool hit rate".to_string())
            .chain(avgs.iter().map(|a| format!("{:.4}", a.hit_rate)))
            .collect(),
    );
    vec![out]
}

// ------------------------------------------------------------- Figs 5—10

fn fig5_6(opts: &Opts) -> Vec<Table> {
    let d = scaled(200_000, opts.scale);
    let mut pct = Table::new(
        "fig5",
        "Pruning and CPU time varying T (I=6, D=200K)",
        &[
            "T",
            "SG-table %data",
            "SG-tree %data",
            "SG-table ms",
            "SG-tree ms",
        ],
    );
    let mut ios = Table::new(
        "fig6",
        "Random I/Os varying T",
        &["T", "SG-table", "SG-tree"],
    );
    for t in [10u32, 15, 20, 25, 30] {
        eprintln!("[fig5/6] {}…", dataset_name(t, 6, d));
        let (inst, queries) = basket_instance(t, 6, d, opts.queries, SplitPolicy::AvLink);
        let c = compare(&inst, &queries, QueryKind::Knn(1), &Metric::hamming());
        push_cmp(&mut pct, Some(&mut ios), &t.to_string(), c);
    }
    vec![pct, ios]
}

fn fig7_8(opts: &Opts) -> Vec<Table> {
    let d = scaled(200_000, opts.scale);
    let mut pct = Table::new(
        "fig7",
        "Pruning and CPU time varying I (T=30, D=200K)",
        &[
            "I",
            "SG-table %data",
            "SG-tree %data",
            "SG-table ms",
            "SG-tree ms",
        ],
    );
    let mut ios = Table::new(
        "fig8",
        "Random I/Os varying I",
        &["I", "SG-table", "SG-tree"],
    );
    for i in [6u32, 12, 18, 24] {
        eprintln!("[fig7/8] {}…", dataset_name(30, i, d));
        let (inst, queries) = basket_instance(30, i, d, opts.queries, SplitPolicy::AvLink);
        let c = compare(&inst, &queries, QueryKind::Knn(1), &Metric::hamming());
        push_cmp(&mut pct, Some(&mut ios), &i.to_string(), c);
    }
    vec![pct, ios]
}

fn fig9_10(opts: &Opts) -> Vec<Table> {
    let d = scaled(200_000, opts.scale);
    let mut pct = Table::new(
        "fig9",
        "Pruning and CPU time, fixed I/T=0.6 (D=200K)",
        &[
            "T,I",
            "SG-table %data",
            "SG-tree %data",
            "SG-table ms",
            "SG-tree ms",
        ],
    );
    let mut ios = Table::new(
        "fig10",
        "Random I/Os, fixed I/T=0.6",
        &["T,I", "SG-table", "SG-tree"],
    );
    for (t, i) in [(10u32, 6u32), (20, 12), (30, 18), (40, 24), (50, 30)] {
        eprintln!("[fig9/10] {}…", dataset_name(t, i, d));
        let (inst, queries) = basket_instance(t, i, d, opts.queries, SplitPolicy::AvLink);
        let c = compare(&inst, &queries, QueryKind::Knn(1), &Metric::hamming());
        push_cmp(&mut pct, Some(&mut ios), &format!("T{t}I{i}"), c);
    }
    vec![pct, ios]
}

fn fig11(opts: &Opts) -> Vec<Table> {
    let mut pct = Table::new(
        "fig11",
        "Pruning and CPU time varying dataset cardinality (T=10, I=6)",
        &[
            "D",
            "SG-table %data",
            "SG-tree %data",
            "SG-table ms",
            "SG-tree ms",
        ],
    );
    for d100 in [100_000usize, 200_000, 300_000, 400_000, 500_000] {
        let d = scaled(d100, opts.scale);
        eprintln!("[fig11] {}…", dataset_name(10, 6, d));
        let (inst, queries) = basket_instance(10, 6, d, opts.queries, SplitPolicy::AvLink);
        let c = compare(&inst, &queries, QueryKind::Knn(1), &Metric::hamming());
        push_cmp(&mut pct, None, &d.to_string(), c);
    }
    vec![pct]
}

// ---------------------------------------------------------------- Fig 12

fn fig12(opts: &Opts) -> Vec<Table> {
    let d = scaled(200_000, opts.scale);
    let n_queries = opts.queries * 10; // the paper ran 1000 here
    eprintln!(
        "[fig12] NN-distance buckets on {} ({n_queries} queries)…",
        dataset_name(30, 18, d)
    );
    let (inst, queries) = basket_instance(30, 18, d, n_queries, SplitPolicy::AvLink);
    let metric = Metric::hamming();
    let buckets = ["0", "1 to 3", "4 to 10", "11 to 20", ">20"];
    let idx_of = |dist: f64| -> usize {
        if dist == 0.0 {
            0
        } else if dist <= 3.0 {
            1
        } else if dist <= 10.0 {
            2
        } else if dist <= 20.0 {
            3
        } else {
            4
        }
    };
    #[derive(Default, Clone, Copy)]
    struct Acc {
        pct: f64,
        ms: f64,
        n: u64,
    }
    let mut tree_acc = [Acc::default(); 5];
    let mut table_acc = [Acc::default(); 5];
    for q in &queries {
        inst.tree.pool().clear();
        inst.tree.pool().stats().reset();
        let t0 = Instant::now();
        let (res, stats) = inst.tree.nn(q, &metric);
        let secs = t0.elapsed().as_secs_f64();
        let b = idx_of(res.first().map_or(f64::INFINITY, |n| n.dist));
        tree_acc[b].pct += 100.0 * stats.data_compared as f64 / d as f64;
        tree_acc[b].ms += 1000.0 * secs;
        tree_acc[b].n += 1;

        inst.table.pool().clear();
        inst.table.pool().stats().reset();
        let t0 = Instant::now();
        let (res, stats) = inst.table.nn(q, &metric);
        let secs = t0.elapsed().as_secs_f64();
        let b = idx_of(res.first().map_or(f64::INFINITY, |n| n.dist));
        table_acc[b].pct += 100.0 * stats.data_compared as f64 / d as f64;
        table_acc[b].ms += 1000.0 * secs;
        table_acc[b].n += 1;
    }
    let mut out = Table::new(
        "fig12",
        "Pruning and CPU time by NN distance (T30.I18.D200K)",
        &[
            "nn distance",
            "queries",
            "SG-table %data",
            "SG-tree %data",
            "SG-table ms",
            "SG-tree ms",
        ],
    );
    for (b, label) in buckets.iter().enumerate() {
        let (ta, tr) = (table_acc[b], tree_acc[b]);
        let tn = tr.n.max(1) as f64;
        let an = ta.n.max(1) as f64;
        out.row(vec![
            label.to_string(),
            tr.n.to_string(),
            f(ta.pct / an),
            f(tr.pct / tn),
            f(ta.ms / an),
            f(tr.ms / tn),
        ]);
    }
    vec![out]
}

// ------------------------------------------------------------ Figs 13—16

fn fig13_14(opts: &Opts, census: bool) -> Vec<Table> {
    let d = scaled(200_000, opts.scale);
    let (name, title, inst, queries) = if census {
        eprintln!("[fig14] k-NN on CENSUS…");
        let (inst, q) = census_instance(d, opts.queries, SplitPolicy::AvLink);
        ("fig14", "k-NN queries on CENSUS", inst, q)
    } else {
        eprintln!("[fig13] k-NN on {}…", dataset_name(30, 18, d));
        let (inst, q) = basket_instance(30, 18, d, opts.queries, SplitPolicy::AvLink);
        ("fig13", "k-NN queries on T30.I18.D200K", inst, q)
    };
    let mut out = Table::new(
        name,
        title,
        &[
            "k",
            "SG-table %data",
            "SG-tree %data",
            "SG-table ms",
            "SG-tree ms",
        ],
    );
    for k in [1usize, 10, 100, 1000, 10_000] {
        let k = k.min(inst.data.len());
        let c = compare(&inst, &queries, QueryKind::Knn(k), &Metric::hamming());
        push_cmp(&mut out, None, &k.to_string(), c);
    }
    vec![out]
}

fn fig15_16(opts: &Opts, census: bool) -> Vec<Table> {
    let d = scaled(200_000, opts.scale);
    let (name, title, inst, queries) = if census {
        eprintln!("[fig16] range queries on CENSUS…");
        let (inst, q) = census_instance(d, opts.queries, SplitPolicy::AvLink);
        ("fig16", "Similarity range queries on CENSUS", inst, q)
    } else {
        eprintln!("[fig15] range queries on {}…", dataset_name(30, 18, d));
        let (inst, q) = basket_instance(30, 18, d, opts.queries, SplitPolicy::AvLink);
        (
            "fig15",
            "Similarity range queries on T30.I18.D200K",
            inst,
            q,
        )
    };
    let mut out = Table::new(
        name,
        title,
        &[
            "eps",
            "SG-table %data",
            "SG-tree %data",
            "SG-table ms",
            "SG-tree ms",
        ],
    );
    for eps in [2.0f64, 4.0, 6.0, 8.0, 10.0] {
        let c = compare(&inst, &queries, QueryKind::Range(eps), &Metric::hamming());
        push_cmp(&mut out, None, &format!("{eps:.0}"), c);
    }
    vec![out]
}

// ---------------------------------------------------------------- Fig 17

fn fig17(opts: &Opts) -> Vec<Table> {
    let batch = scaled(100_000, opts.scale);
    eprintln!(
        "[fig17] dynamic updates: 5 batches of {} (T=10, I=6)…",
        batch
    );
    let metric = Metric::hamming();
    let nbits = 1000u32;
    // Batch b has its own pattern pool (fresh seed → different large
    // itemsets), modelling distribution drift.
    let pools: Vec<PatternPool> = (0..5)
        .map(|b| PatternPool::new(BasketParams::standard(10, 6), SEED + 1000 * b as u64))
        .collect();
    let mut out = Table::new(
        "fig17",
        "NN search after dynamic updates (batches with drifting itemsets)",
        &[
            "D",
            "SG-table %data",
            "SG-tree %data",
            "SG-table ms",
            "SG-tree ms",
        ],
    );
    // Both structures are built from batch 1; later batches are *inserted*,
    // so the table keeps its stale vertical signatures.
    let first = pools[0].dataset(batch, SEED);
    let data1 = pairs_of(&first);
    let (mut tree, _) = build_tree(nbits, &data1, None);
    let (mut table, _) = build_table(nbits, &data1);
    let scan_store: Arc<MemStore> = Arc::new(MemStore::new(PAGE_SIZE));
    let mut all_data = data1;
    // A deterministic RNG for picking which batch generates each query.
    let mut x = SEED ^ 0xF17;
    for phase in 1..=5usize {
        if phase > 1 {
            let ds = pools[phase - 1].dataset(batch, SEED + phase as u64);
            let base = all_data.len() as u64;
            for (off, (_, sig)) in pairs_of(&ds).into_iter().enumerate() {
                let tid = base + off as u64;
                tree.insert(tid, &sig);
                table.insert(tid, &sig);
                all_data.push((tid, sig));
            }
        }
        // Queries: each drawn from a uniformly random earlier batch's pool.
        let mut queries = Vec::with_capacity(opts.queries);
        for qi in 0..opts.queries {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = (x >> 33) as usize % phase;
            let q = &pools[b].queries(opts.queries, SEED + 77 + qi as u64)[qi % opts.queries];
            queries.push(Signature::from_items(nbits, q));
        }
        let scan = sg_tree::ScanIndex::build(
            scan_store.clone(),
            nbits,
            POOL_FRAMES,
            all_data.iter().cloned(),
        );
        let inst = Instance {
            nbits,
            data: all_data.clone(),
            tree,
            table,
            scan,
            tree_build_secs: 0.0,
            table_build_secs: 0.0,
        };
        let c = compare(&inst, &queries, QueryKind::Knn(1), &metric);
        push_cmp(&mut out, None, &(phase * batch).to_string(), c);
        tree = inst.tree;
        table = inst.table;
    }
    vec![out]
}

// -------------------------------------------------------------- Ablations

fn ablations(opts: &Opts) -> Vec<Table> {
    let d = scaled(50_000, opts.scale);
    eprintln!(
        "[ablate] design ablations on {} and CENSUS…",
        dataset_name(20, 12, d)
    );
    let metric = Metric::hamming();
    let pool = PatternPool::new(BasketParams::standard(20, 12), SEED);
    let ds = pool.dataset(d, SEED);
    let data = pairs_of(&ds);
    let queries: Vec<Signature> = pool
        .queries(opts.queries, SEED)
        .iter()
        .map(|q| Signature::from_items(ds.n_items, q))
        .collect();
    let mut tables = Vec::new();

    // (a) Choose-subtree heuristics: min-enlargement vs min-overlap.
    {
        let mut t = Table::new(
            "ablate_choose",
            "ChooseSubtree: min-enlargement (paper's pick) vs min-overlap",
            &["heuristic", "build s", "%data", "ms", "I/Os"],
        );
        for (label, choose) in [
            ("min-enlargement", ChooseSubtree::MinEnlargement),
            ("min-overlap", ChooseSubtree::MinOverlap),
        ] {
            let cfg = TreeConfig::new(ds.n_items).choose(choose);
            let (tree, secs) = build_tree(ds.n_items, &data, Some(cfg));
            let inst = wrap_tree(&ds, &data, tree);
            let avg = measure_tree(&inst, &queries, QueryKind::Knn(1), &metric);
            t.row(vec![
                label.to_string(),
                f(secs),
                f(avg.pct_data),
                f(avg.time_ms),
                f(avg.ios),
            ]);
        }
        tables.push(t);
    }

    // (b) Compression on/off: space and I/O.
    {
        let mut t = Table::new(
            "ablate_compression",
            "Sparse-signature compression (§3.2): space and query I/O",
            &["compression", "tree pages", "%data", "I/Os"],
        );
        for (label, on) in [("on", true), ("off", false)] {
            let cfg = TreeConfig::new(ds.n_items).compression(on);
            let (tree, _) = build_tree(ds.n_items, &data, Some(cfg));
            let pages = tree.node_count();
            let inst = wrap_tree(&ds, &data, tree);
            let avg = measure_tree(&inst, &queries, QueryKind::Knn(1), &metric);
            t.row(vec![
                label.to_string(),
                pages.to_string(),
                f(avg.pct_data),
                f(avg.ios),
            ]);
        }
        tables.push(t);
    }

    // (c) Gray-code bulk load vs one-by-one insertion.
    {
        let mut t = Table::new(
            "ablate_bulkload",
            "Gray-code bulk loading (§6) vs one-by-one insertion",
            &["build", "build s", "tree pages", "%data", "I/Os"],
        );
        let (tree, secs) = build_tree(ds.n_items, &data, None);
        let pages = tree.node_count();
        let inst = wrap_tree(&ds, &data, tree);
        let avg = measure_tree(&inst, &queries, QueryKind::Knn(1), &metric);
        t.row(vec![
            "insert".into(),
            f(secs),
            pages.to_string(),
            f(avg.pct_data),
            f(avg.ios),
        ]);

        let t0 = Instant::now();
        let tree = bulkload::bulk_load(
            Arc::new(MemStore::new(PAGE_SIZE)),
            TreeConfig::new(ds.n_items).pool_frames(POOL_FRAMES),
            data.iter().cloned(),
            1.0,
        )
        .expect("bulk load");
        let secs = t0.elapsed().as_secs_f64();
        let pages = tree.node_count();
        let inst = wrap_tree(&ds, &data, tree);
        let avg = measure_tree(&inst, &queries, QueryKind::Knn(1), &metric);
        t.row(vec![
            "gray-code".into(),
            f(secs),
            pages.to_string(),
            f(avg.pct_data),
            f(avg.ios),
        ]);
        tables.push(t);
    }

    // (d) Depth-first vs best-first NN: node accesses.
    {
        let mut t = Table::new(
            "ablate_bestfirst",
            "Depth-first (Fig. 4) vs best-first NN: node accesses per query",
            &["algorithm", "nodes", "%data"],
        );
        let (tree, _) = build_tree(ds.n_items, &data, None);
        let mut df = (0u64, 0u64);
        let mut bf = (0u64, 0u64);
        for q in &queries {
            let (_, s) = tree.nn(q, &metric);
            df.0 += s.nodes_accessed;
            df.1 += s.data_compared;
            let (_, s) = tree.knn_best_first(q, 1, &metric);
            bf.0 += s.nodes_accessed;
            bf.1 += s.data_compared;
        }
        let n = queries.len().max(1) as f64;
        t.row(vec![
            "depth-first".into(),
            f(df.0 as f64 / n),
            f(100.0 * df.1 as f64 / n / d as f64),
        ]);
        t.row(vec![
            "best-first".into(),
            f(bf.0 as f64 / n),
            f(100.0 * bf.1 as f64 / n / d as f64),
        ]);
        tables.push(t);
    }

    // (e) Fixed-dimensionality bound on categorical data (§6).
    {
        let mut t = Table::new(
            "ablate_fixed_dim",
            "Relaxed vs fixed-dimensionality Hamming bound on CENSUS",
            &["bound", "%data", "nodes"],
        );
        let (inst, cqueries) = census_instance(
            scaled(50_000, opts.scale),
            opts.queries,
            SplitPolicy::AvLink,
        );
        for (label, m) in [
            ("relaxed |q\\e|", Metric::hamming()),
            (
                "fixed d=36",
                Metric::with_fixed_dim(MetricKind::Hamming, 36),
            ),
        ] {
            let avg = measure_tree(&inst, &cqueries, QueryKind::Knn(1), &m);
            t.row(vec![label.to_string(), f(avg.pct_data), f(avg.pages)]);
        }
        tables.push(t);
    }

    // (f) SG-table rebuild vs stale signatures under drift (the "expensive
    // periodic re-organization" §2.2.1 says a dynamic environment forces).
    {
        let mut t = Table::new(
            "ablate_rebuild",
            "SG-table under drift: stale vertical signatures vs periodic rebuild",
            &["table", "%data", "ms"],
        );
        let batch = scaled(25_000, opts.scale);
        let pools: Vec<PatternPool> = (0..3)
            .map(|b| PatternPool::new(BasketParams::standard(10, 6), SEED + 900 + b))
            .collect();
        let first = pools[0].dataset(batch, SEED);
        let data1 = pairs_of(&first);
        let (mut stale, _) = build_table(1000, &data1);
        let mut all = data1;
        for (b, pool) in pools.iter().enumerate().skip(1) {
            let ds = pool.dataset(batch, SEED + b as u64);
            let base = all.len() as u64;
            for (off, (_, sig)) in pairs_of(&ds).into_iter().enumerate() {
                stale.insert(base + off as u64, &sig);
                all.push((base + off as u64, sig));
            }
        }
        let rebuilt_params = sg_table::TableParams {
            pool_frames: POOL_FRAMES,
            ..Default::default()
        };
        let mut rebuilt = sg_table::SgTable::build(
            Arc::new(MemStore::new(PAGE_SIZE)),
            1000,
            &rebuilt_params,
            &[],
        );
        for (tid, sig) in &all {
            rebuilt.insert(*tid, sig);
        }
        rebuilt.rebuild(&rebuilt_params);
        // Queries from the *newest* batch — the drifted distribution.
        let queries: Vec<Signature> = pools[2]
            .queries(opts.queries, SEED)
            .iter()
            .map(|q| Signature::from_items(1000, q))
            .collect();
        for (label, table) in [("stale", &stale), ("rebuilt", &rebuilt)] {
            let mut cmp = 0u64;
            let mut secs = 0f64;
            for q in &queries {
                table.pool().clear();
                table.pool().stats().reset();
                let t0 = Instant::now();
                let _ = table.knn(q, 1, &metric);
                secs += t0.elapsed().as_secs_f64();
                cmp += table.knn(q, 1, &metric).1.data_compared;
            }
            let n = queries.len().max(1) as f64;
            t.row(vec![
                label.to_string(),
                f(100.0 * cmp as f64 / n / all.len() as f64),
                f(1000.0 * secs / n),
            ]);
        }
        tables.push(t);
    }

    // (g) Beyond-paper baseline: inverted lists (Helmer & Moerkotte, the
    // paper's [14]) — best-in-class for containment, weaker for NN.
    {
        let mut t = Table::new(
            "ablate_inverted",
            "SG-tree vs inverted lists: containment (the tree's conceded query) and 1-NN",
            &["query", "index", "%data", "pages", "ms"],
        );
        let (tree, _) = build_tree(ds.n_items, &data, None);
        let inv = sg_inverted::InvertedIndex::build(
            Arc::new(MemStore::new(PAGE_SIZE)),
            ds.n_items,
            POOL_FRAMES,
            &data,
        );
        // Containment probes: 3-item prefixes of indexed transactions.
        let probes: Vec<Signature> = data
            .iter()
            .step_by(data.len() / opts.queries.max(1) + 1)
            .map(|(_, s)| Signature::from_iter(ds.n_items, s.ones().take(3)))
            .collect();
        let mut rows: Vec<(String, String, f64, f64, f64)> = Vec::new();
        for (label, run) in [("containment", true), ("1-NN", false)] {
            for (index, is_tree) in [("sg-tree", true), ("inverted", false)] {
                let mut cmp = 0u64;
                let mut pages = 0u64;
                let mut secs = 0f64;
                let qs: &[Signature] = if run { &probes } else { &queries };
                for q in qs {
                    let t0 = Instant::now();
                    let stats = match (run, is_tree) {
                        (true, true) => tree.containing(q).1,
                        (true, false) => inv.containing(q).1,
                        (false, true) => tree.nn(q, &metric).1,
                        (false, false) => inv.nn(q, &metric).1,
                    };
                    secs += t0.elapsed().as_secs_f64();
                    cmp += stats.data_compared;
                    pages += stats.nodes_accessed;
                }
                let n = qs.len().max(1) as f64;
                rows.push((
                    label.to_string(),
                    index.to_string(),
                    100.0 * cmp as f64 / n / d as f64,
                    pages as f64 / n,
                    1000.0 * secs / n,
                ));
            }
        }
        for (label, index, pct, pages, ms) in rows {
            t.row(vec![label, index, f(pct), f(pages), f(ms)]);
        }
        tables.push(t);
    }

    // (h) Beyond-paper baseline: MinHash-LSH (the paper's [11] family) —
    // approximate Jaccard search; measure its recall against the exact
    // tree at matched workloads.
    {
        let mut t = Table::new(
            "ablate_minhash",
            "Exact SG-tree vs approximate MinHash-LSH (Jaccard 10-NN)",
            &["index", "recall@10", "candidates/query", "ms"],
        );
        let (tree, _) = build_tree(ds.n_items, &data, None);
        let lsh =
            sg_minhash::MinHashLsh::build(ds.n_items, sg_minhash::LshParams::default(), &data);
        let mj = Metric::jaccard();
        let mut recall_hits = 0usize;
        let mut recall_total = 0usize;
        let mut cand = 0u64;
        let mut tree_secs = 0f64;
        let mut lsh_secs = 0f64;
        for q in &queries {
            let t0 = Instant::now();
            let (exact, _) = tree.knn(q, 10, &mj);
            tree_secs += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let (approx, stats) = lsh.knn(q, 10, &mj);
            lsh_secs += t0.elapsed().as_secs_f64();
            cand += stats.data_compared;
            // Distance-based recall: an approximate hit counts when its
            // distance matches the exact i-th distance (ties make id
            // comparison unfair).
            let exact_d: Vec<f64> = exact.iter().map(|n| n.dist).collect();
            let mut approx_d: Vec<f64> = approx.iter().map(|n| n.dist).collect();
            for &ed in &exact_d {
                recall_total += 1;
                if let Some(pos) = approx_d.iter().position(|&ad| (ad - ed).abs() < 1e-9) {
                    approx_d.remove(pos);
                    recall_hits += 1;
                }
            }
        }
        let n = queries.len().max(1) as f64;
        t.row(vec![
            "sg-tree (exact)".into(),
            "1.0000".into(),
            f(d as f64), // the exact index conceptually considers all data
            f(1000.0 * tree_secs / n),
        ]);
        t.row(vec![
            "minhash-lsh".into(),
            f(recall_hits as f64 / recall_total.max(1) as f64),
            f(cand as f64 / n),
            f(1000.0 * lsh_secs / n),
        ]);
        tables.push(t);
    }

    // (i) Jaccard metric end-to-end (§6 future work).
    {
        let mut t = Table::new(
            "ablate_jaccard",
            "SG-tree NN search under the Jaccard metric (§6)",
            &["metric", "%data", "mean NN dist"],
        );
        let (tree, _) = build_tree(ds.n_items, &data, None);
        let inst = wrap_tree(&ds, &data, tree);
        for (label, m) in [
            ("hamming", Metric::hamming()),
            ("jaccard", Metric::jaccard()),
        ] {
            let avg = measure_tree(&inst, &queries, QueryKind::Knn(1), &m);
            t.row(vec![label.to_string(), f(avg.pct_data), f(avg.worst_dist)]);
        }
        tables.push(t);
    }

    tables
}

/// Wraps a tree with table/scan baselines for [`measure_tree`] use.
fn wrap_tree(ds: &sg_quest::Dataset, data: &[(u64, Signature)], tree: SgTree) -> Instance {
    let (table, table_build_secs) = build_table(ds.n_items, &data[..data.len().min(1)]);
    let scan = sg_bench::workloads::build_scan(ds.n_items, data);
    Instance {
        nbits: ds.n_items,
        data: data.to_vec(),
        tree,
        table,
        table_build_secs,
        tree_build_secs: 0.0,
        scan,
    }
}

// ------------------------------------------------------------ Scaling

/// Not in the paper: batch-query throughput of the sharded executor
/// (`sg-exec`) against shard count, on the T8.I4 basket workload. Each
/// configuration pushes the same k-NN batch through the executor and
/// reports queries/second plus the per-query fan-out costs.
fn scaling(opts: &Opts) -> Vec<Table> {
    use sg_exec::{ExecConfig, Partitioner, QueryRequest, ShardedExecutor};

    let d = scaled(100_000, opts.scale);
    eprintln!("[scaling] sharded executor on {}…", dataset_name(8, 4, d));
    let pool = PatternPool::new(BasketParams::standard(8, 4), SEED);
    let ds = pool.dataset(d, SEED);
    let data = pairs_of(&ds);
    let queries: Vec<Signature> = pool
        .queries(opts.queries, SEED ^ 0x5CA1E)
        .iter()
        .map(|q| Signature::from_items(ds.n_items, q))
        .collect();
    let m = Metric::jaccard();

    let mut out = Table::new(
        "scaling",
        "Sharded executor: batch k-NN throughput vs shard count (T8.I4)",
        &[
            "shards",
            "threads",
            "build s",
            "batch q/s",
            "speedup",
            "nodes/query",
            "merge us/query",
        ],
    );
    let mut base_qps = 0.0;
    for shards in [1usize, 2, 4, 8] {
        let t0 = Instant::now();
        let exec = ShardedExecutor::build(
            ds.n_items,
            &data,
            &ExecConfig {
                shards,
                partitioner: Partitioner::SignatureClustered,
                page_size: PAGE_SIZE,
                pool_frames: POOL_FRAMES,
                ..ExecConfig::default()
            },
        )
        .expect("executor config");
        let build_secs = t0.elapsed().as_secs_f64();

        let batch: Vec<QueryRequest> = queries
            .iter()
            .map(|q| QueryRequest::Knn {
                q: q.clone(),
                k: 10,
                metric: m,
            })
            .collect();
        // Warm the pools once, then measure.
        let _ = exec.execute_batch(batch.clone());
        let t0 = Instant::now();
        let results = exec.execute_batch(batch);
        let secs = t0.elapsed().as_secs_f64();

        let qps = results.len() as f64 / secs;
        if shards == 1 {
            base_qps = qps;
        }
        let n = results.len() as f64;
        let ok = results.iter().flatten().collect::<Vec<_>>();
        let nodes: u64 = ok.iter().map(|r| r.stats.nodes_accessed).sum();
        let merge_ns: u64 = ok.iter().map(|r| r.merge_ns).sum();
        out.row(vec![
            shards.to_string(),
            exec.threads().to_string(),
            f(build_secs),
            f(qps),
            f(qps / base_qps),
            f(nodes as f64 / n),
            f(merge_ns as f64 / n / 1000.0),
        ]);
    }
    vec![out]
}

/// The `serve` figure: closed- and open-loop load against an embedded
/// sg-serve instance over real loopback sockets — end-to-end throughput
/// and tail latency of the full network + micro-batching + executor
/// pipeline. The fixed closed-loop point also appends a perf-trajectory
/// entry to `BENCH_serve.json`.
fn serve(opts: &Opts) -> Vec<Table> {
    use sg_exec::{ExecConfig, Partitioner, ShardedExecutor};
    use sg_serve::{LoadConfig, LoadMode, ServeConfig, Server, Workload};

    let d = scaled(100_000, opts.scale);
    eprintln!("[serve] network service on {}…", dataset_name(8, 4, d));
    let pool = PatternPool::new(BasketParams::standard(8, 4), SEED);
    let ds = pool.dataset(d, SEED);
    let data = pairs_of(&ds);
    let exec = Arc::new(
        ShardedExecutor::build(
            ds.n_items,
            &data,
            &ExecConfig {
                shards: 4,
                partitioner: Partitioner::SignatureClustered,
                page_size: PAGE_SIZE,
                pool_frames: POOL_FRAMES,
                ..ExecConfig::default()
            },
        )
        .expect("executor config"),
    );
    let server = Server::start(
        exec,
        Arc::new(Registry::new()),
        ServeConfig {
            admin_addr: None,
            ..ServeConfig::default()
        },
    )
    .expect("start embedded server");
    let addr = server.local_addr().to_string();

    let mut out = Table::new(
        "serve",
        "Network service: load-generator throughput and tail latency (T8.I4)",
        &[
            "mode", "conns", "queries", "q/s", "p50 us", "p95 us", "p99 us", "busy",
        ],
    );
    let base = LoadConfig {
        addr,
        conns: 4,
        queries: (opts.queries * 10).max(1000),
        nbits: ds.n_items,
        query_items: 8,
        workload: Workload::Mix,
        ..LoadConfig::default()
    };
    let mut trajectory: Option<(LoadConfig, sg_serve::LoadReport)> = None;
    for mode in [LoadMode::Closed, LoadMode::Open { rate_qps: 2000.0 }] {
        let cfg = LoadConfig {
            mode,
            ..base.clone()
        };
        let report = sg_serve::run_load(&cfg).expect("load run");
        out.row(vec![
            cfg.mode.as_str().to_string(),
            cfg.conns.to_string(),
            cfg.queries.to_string(),
            f(report.throughput_qps),
            report.p50_us.to_string(),
            report.p95_us.to_string(),
            report.p99_us.to_string(),
            report.busy.to_string(),
        ]);
        if matches!(mode, LoadMode::Closed) {
            trajectory = Some((cfg, report));
        }
    }
    server.join();

    // The fixed load point tracked across PRs.
    if let Some((cfg, report)) = trajectory {
        let path = "BENCH_serve.json";
        match sg_serve::append_bench_json(path, &cfg, &report) {
            Ok(()) => eprintln!("[serve] appended trajectory entry to {path}"),
            Err(e) => eprintln!("[serve] could not write {path}: {e}"),
        }
    }
    vec![out]
}

// ------------------------------------------------------------- Spans

/// The `spans` figure: where a request's time goes, stage by stage. Runs
/// a traced closed-loop load against an embedded server with the flight
/// recorder on (every request carries a `trace_id`), then aggregates the
/// recorder's spans per instrumentation site into `results/spans.csv`.
fn spans(opts: &Opts) -> Vec<Table> {
    use sg_exec::{ExecConfig, Partitioner, ShardedExecutor};
    use sg_obs::span;
    use sg_serve::{LoadConfig, LoadMode, ServeConfig, Server, Workload};
    use std::collections::BTreeMap;

    let d = scaled(50_000, opts.scale);
    let queries = (opts.queries * 5).max(500);
    eprintln!(
        "[spans] flight-recorder span profile, {queries} traced queries on {}…",
        dataset_name(8, 4, d)
    );
    let pool = PatternPool::new(BasketParams::standard(8, 4), SEED);
    let ds = pool.dataset(d, SEED);
    let data = pairs_of(&ds);
    let exec = Arc::new(
        ShardedExecutor::build(
            ds.n_items,
            &data,
            &ExecConfig {
                shards: 4,
                partitioner: Partitioner::SignatureClustered,
                page_size: PAGE_SIZE,
                pool_frames: POOL_FRAMES,
                ..ExecConfig::default()
            },
        )
        .expect("executor config"),
    );
    // Rings are sized lazily per recording thread: raise the capacity
    // before the server's threads record anything, so the whole run fits
    // and the aggregate is not just the tail of the ring.
    span::set_ring_capacity(4 * queries.next_power_of_two());
    span::set_enabled(true);
    let server = Server::start(
        exec,
        Arc::new(Registry::new()),
        ServeConfig {
            admin_addr: None,
            ..ServeConfig::default()
        },
    )
    .expect("start embedded server");

    let cfg = LoadConfig {
        addr: server.local_addr().to_string(),
        conns: 4,
        queries,
        nbits: ds.n_items,
        query_items: 8,
        workload: Workload::Mix,
        mode: LoadMode::Closed,
        trace_sample: 1,
        ..LoadConfig::default()
    };
    let report = sg_serve::run_load(&cfg).expect("load run");
    server.join();
    span::set_enabled(false);
    eprintln!(
        "[spans] {} of {} responses echoed their trace_id",
        report.traced, report.sent
    );

    let mut by_stage: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for s in span::flight_spans() {
        by_stage.entry(s.name).or_default().push(s.dur_ns);
    }
    let mut out = Table::new(
        "spans",
        "Request anatomy: per-stage span durations over a traced load run (T8.I4)",
        &["stage", "count", "mean us", "p50 us", "p99 us"],
    );
    let us = |ns: u64| f(ns as f64 / 1_000.0);
    for (stage, mut durs) in by_stage {
        durs.sort_unstable();
        let mean = durs.iter().sum::<u64>() / durs.len() as u64;
        let pct = |p: f64| durs[((durs.len() - 1) as f64 * p) as usize];
        out.row(vec![
            stage.to_string(),
            durs.len().to_string(),
            us(mean),
            us(pct(0.50)),
            us(pct(0.99)),
        ]);
    }
    vec![out]
}

// ------------------------------------------------------------- Ingest

/// The `ingest` figure: durable write throughput of the sharded
/// executor's WAL path against group-commit batch size and fsync policy,
/// plus the recovery (replay) rate a crash would pay. The fixed
/// `(always, 256)` point also appends a perf-trajectory entry to
/// `BENCH_ingest.json`.
fn ingest(opts: &Opts) -> Vec<Table> {
    use sg_bench::workloads::crash_ops;
    use sg_exec::{DurabilityConfig, ExecConfig, FsyncPolicy, Partitioner, ShardedExecutor};
    use sg_obs::json::Json;

    const NBITS: u32 = 256;
    const SHARDS: usize = 4;
    eprintln!("[ingest] durable write path, {SHARDS} shards…");

    let mut out = Table::new(
        "ingest",
        "Durable ingest: WAL group-commit throughput and replay rate",
        &[
            "fsync",
            "batch",
            "ops",
            "writes/s",
            "wal MB",
            "replay rec/s",
            "recovered",
        ],
    );
    let mut trajectory: Option<(f64, f64)> = None;
    for fsync in [FsyncPolicy::Always, FsyncPolicy::OsOnly] {
        for batch in [1usize, 32, 256] {
            // A per-op fsync is orders of magnitude slower; shrink its
            // op count so the figure stays a quick pass.
            let n_ops = if matches!(fsync, FsyncPolicy::Always) && batch == 1 {
                scaled(2_000, opts.scale)
            } else {
                scaled(20_000, opts.scale)
            };
            let ops = crash_ops(NBITS, n_ops, SEED);
            let dir = std::env::temp_dir().join(format!(
                "sg-repro-ingest-{}-{batch}-{:?}",
                std::process::id(),
                fsync
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let config = ExecConfig {
                shards: SHARDS,
                partitioner: Partitioner::RoundRobin,
                page_size: PAGE_SIZE,
                pool_frames: POOL_FRAMES,
                ..ExecConfig::default()
            };
            let durability = DurabilityConfig {
                dir: dir.clone(),
                fsync,
            };
            let exec = ShardedExecutor::open_durable(NBITS, &config, &durability)
                .expect("open durable executor");
            let registry = Registry::new();
            let obs = exec.register_ingest_obs(&registry, "ingest");

            let t0 = Instant::now();
            for chunk in ops.chunks(batch) {
                for ack in exec.write_batch(chunk.to_vec()) {
                    ack.expect("ingest op");
                }
            }
            let write_secs = t0.elapsed().as_secs_f64();
            let wal_mb = obs.wal_bytes.get() as f64 / (1024.0 * 1024.0);
            drop(exec); // no checkpoint: reopen pays the full WAL replay

            let t0 = Instant::now();
            let exec = ShardedExecutor::open_durable(NBITS, &config, &durability)
                .expect("reopen durable executor");
            let replay_secs = t0.elapsed().as_secs_f64().max(1e-9);
            let report = exec.recovery().expect("durable reopen has a report");
            let writes_per_s = n_ops as f64 / write_secs.max(1e-9);
            let replay_per_s = report.replayed as f64 / replay_secs;
            out.row(vec![
                match fsync {
                    FsyncPolicy::Always => "always".to_string(),
                    FsyncPolicy::OsOnly => "os".to_string(),
                },
                batch.to_string(),
                n_ops.to_string(),
                f(writes_per_s),
                f(wal_mb),
                f(replay_per_s),
                exec.len().to_string(),
            ]);
            if matches!(fsync, FsyncPolicy::Always) && batch == 256 {
                trajectory = Some((writes_per_s, replay_per_s));
            }
            drop(exec);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // The fixed ingest point tracked across PRs.
    if let Some((writes_per_s, replay_per_s)) = trajectory {
        let path = "BENCH_ingest.json";
        let mut entries = match std::fs::read_to_string(path) {
            Ok(text) => match sg_obs::json::parse(&text) {
                Ok(Json::Arr(entries)) => entries,
                _ => Vec::new(),
            },
            Err(_) => Vec::new(),
        };
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        entries.push(Json::Obj(vec![
            ("unix_ms".into(), Json::U64(unix_ms)),
            ("fsync".into(), Json::Str("always".into())),
            ("batch".into(), Json::U64(256)),
            ("writes_per_s".into(), Json::F64(writes_per_s)),
            ("replay_per_s".into(), Json::F64(replay_per_s)),
        ]));
        match std::fs::write(path, Json::Arr(entries).to_string_pretty()) {
            Ok(()) => eprintln!("[ingest] appended trajectory entry to {path}"),
            Err(e) => eprintln!("[ingest] could not write {path}: {e}"),
        }
    }
    vec![out]
}

// ------------------------------------------------------------- Health

/// The `health` figure: how signature saturation and the paper's §3
/// false-drop estimate degrade as ingest volume grows, from
/// [`SgTree::health_report`] at geometric checkpoints of one long insert
/// stream. Directory signatures are ORs of their subtrees, so every
/// insert can only set more bits: the figure shows pruning power decay
/// with volume, which is exactly what `/debug/tree` watches in a live
/// server.
fn health(opts: &Opts) -> Vec<Table> {
    let pool = PatternPool::new(BasketParams::standard(10, 6), SEED);
    let rows_max = scaled(50_000, opts.scale).max(100);
    let ds = pool.dataset(rows_max, SEED);
    let data = pairs_of(&ds);
    eprintln!(
        "[health] saturation vs ingest volume, {rows_max} rows, {} bits…",
        ds.n_items
    );

    let mut out = Table::new(
        "health",
        "Index health: signature saturation and estimated false-drop vs ingest volume",
        &[
            "rows",
            "height",
            "nodes",
            "leaf sat",
            "dir sat",
            "max sat",
            "est false drop",
            "status",
            "findings",
        ],
    );
    let mut tree = SgTree::create(
        Arc::new(MemStore::new(PAGE_SIZE)),
        TreeConfig::new(ds.n_items).pool_frames(POOL_FRAMES),
    )
    .expect("tree config");
    let mut checkpoints: Vec<usize> = [1_000, 2_000, 5_000, 10_000, 20_000, 50_000]
        .iter()
        .map(|&r| scaled(r, opts.scale))
        .filter(|&r| r > 0 && r < rows_max)
        .collect();
    checkpoints.push(rows_max);
    checkpoints.dedup();
    let mut next = 0usize;
    for (i, (tid, sig)) in data.iter().enumerate() {
        tree.insert(*tid, sig);
        if next < checkpoints.len() && i + 1 == checkpoints[next] {
            next += 1;
            let r = tree.health_report();
            // Directory levels are where saturation costs pruning power;
            // report the worst of them next to the leaf baseline.
            let dirs = &r.levels[1..];
            let dir_sat = dirs.iter().map(|l| l.avg_saturation).fold(0.0, f64::max);
            let max_sat = dirs.iter().map(|l| l.max_saturation).fold(0.0, f64::max);
            let fd = dirs.iter().map(|l| l.est_false_drop).fold(0.0, f64::max);
            out.row(vec![
                (i + 1).to_string(),
                r.height.to_string(),
                r.nodes.to_string(),
                f(r.levels[0].avg_saturation),
                f(dir_sat),
                f(max_sat),
                f(fd),
                r.status().to_string(),
                r.findings.len().to_string(),
            ]);
        }
    }
    vec![out]
}

/// `kernels` — visit-kernel throughput, swept over signature width ×
/// density × kernel variant. Each point builds one node of synthetic
/// entries at the given width and fill fraction, encodes it the way the
/// tree stores it (per-entry sparse/raw choice, so the node lands in
/// whichever SoA representation the density dictates), then times the
/// directory-visit sweep — every entry's `mindist` plus its cached
/// weight — under each compiled-in kernel. `x vs scalar` is the per-point
/// speedup; the `repr` column shows where the layout flips from dense
/// lanes to galloping position lists.
fn kernels_fig(opts: &Opts) -> Vec<Table> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sg_sig::kernels;

    const FANOUT: usize = 64;
    let sweeps = scaled(2_000, opts.scale).max(50);
    eprintln!("[kernels] width × density × variant sweep, {sweeps} visits/point…");

    let mut out = Table::new(
        "kernels",
        "Visit kernels: ns per directory visit by signature width, density, and kernel",
        &[
            "nbits",
            "density",
            "repr",
            "kernel",
            "decode ns",
            "ns/visit",
            "ns/entry",
            "x vs scalar",
        ],
    );
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x4B52_4E4C); // "KRNL"
    for &nbits in &[128u32, 512, 2_048, 8_192] {
        for &density in &[0.01f64, 0.05, 0.25] {
            let fill = ((nbits as f64 * density) as usize).max(1);
            let mut draw = |n: usize| {
                let items: Vec<u32> = (0..n).map(|_| rng.gen_range(0..nbits)).collect();
                Signature::from_items(nbits, &items)
            };
            let mut node = Node::new(1);
            for i in 0..FANOUT {
                node.entries.push(Entry::new(draw(fill), i as u64));
            }
            let page_size = node.encoded_size(true).next_power_of_two().max(PAGE_SIZE);
            let page = node.encode(page_size, true);
            let soa = SoaNode::decode(nbits, &page);
            let repr = if soa.is_sparse() { "sparse" } else { "dense" };
            // Decode cost is kernel-independent but dominates one-shot
            // visits (the tree decodes each page it reads), and it is where
            // the sparse representation pays off: no lane materialisation.
            let t0 = Instant::now();
            for _ in 0..sweeps {
                std::hint::black_box(SoaNode::decode(nbits, &page));
            }
            let decode_ns = t0.elapsed().as_nanos() as u64 / sweeps as u64;
            let probe = QueryProbe::new(&draw(fill));
            let metric = Metric::hamming();
            let mut scalar_ns = 0u64;
            for &kind in kernels::variants() {
                kernels::force(kind);
                // Warmup, then time `sweeps` full-node visits.
                let mut acc = 0u64;
                for _ in 0..sweeps / 10 + 1 {
                    for i in 0..soa.len() {
                        acc = acc.wrapping_add(soa.mindist(i, &probe, &metric).to_bits());
                    }
                }
                let t0 = Instant::now();
                for _ in 0..sweeps {
                    for i in 0..soa.len() {
                        acc = acc
                            .wrapping_add(soa.mindist(i, &probe, &metric).to_bits())
                            .wrapping_add(soa.weight(i) as u64);
                    }
                }
                let ns = t0.elapsed().as_nanos() as u64 / sweeps as u64;
                std::hint::black_box(acc);
                if kind == kernels::KernelKind::Scalar {
                    scalar_ns = ns;
                }
                out.row(vec![
                    nbits.to_string(),
                    f(density),
                    repr.to_string(),
                    kind.name().to_string(),
                    decode_ns.to_string(),
                    ns.to_string(),
                    (ns / FANOUT as u64).to_string(),
                    f(scalar_ns as f64 / ns.max(1) as f64),
                ]);
            }
        }
    }
    vec![out]
}

/// `profile` — cost-model calibration: train the per-kind EWMA cost
/// model on live traffic, freeze its estimates, then check them against
/// a fresh measurement run. The span-stack profiler samples the whole
/// workload so the run also smoke-tests continuous profiling at a
/// production rate. Writes `costmodel.csv`.
fn profile_fig(opts: &Opts) -> Vec<Table> {
    use sg_exec::{ExecConfig, Partitioner, QueryRequest, ShardedExecutor};
    use sg_obs::{prof, CostModel};
    use sg_tree::QueryOptions;

    let d = scaled(50_000, opts.scale);
    let per_kind = (opts.queries * 2).max(200);
    eprintln!(
        "[profile] cost-model calibration, {per_kind} queries/kind on {} rows, \
         profiler at 199 Hz…",
        d
    );
    let pool = PatternPool::new(BasketParams::standard(8, 4), SEED);
    let ds = pool.dataset(d, SEED);
    let data = pairs_of(&ds);
    let exec = ShardedExecutor::build(
        ds.n_items,
        &data,
        &ExecConfig {
            shards: 4,
            partitioner: Partitioner::SignatureClustered,
            page_size: PAGE_SIZE,
            pool_frames: POOL_FRAMES,
            ..ExecConfig::default()
        },
    )
    .expect("executor config");
    let queries: Vec<Signature> = pool
        .queries(64, SEED)
        .iter()
        .map(|q| Signature::from_items(ds.n_items, q))
        .collect();
    let request = |kind: &str, q: &Signature| match kind {
        "knn" => QueryRequest::Knn {
            q: q.clone(),
            k: 10,
            metric: Metric::hamming(),
        },
        "range" => QueryRequest::Range {
            q: q.clone(),
            eps: 4.0,
            metric: Metric::hamming(),
        },
        "containing" => QueryRequest::Containing { q: q.clone() },
        "contained_in" => QueryRequest::ContainedIn { q: q.clone() },
        "exact" => QueryRequest::Exact { q: q.clone() },
        other => unreachable!("kind {other}"),
    };
    const KINDS: [&str; 5] = ["knn", "range", "containing", "contained_in", "exact"];

    prof::clear();
    prof::start(199);

    // Calibration: feed the global model `per_kind` observations of each
    // query kind; the EWMAs converge well inside that (alpha 0.1).
    let model = CostModel::global();
    for kind in KINDS {
        for (i, q) in queries.iter().cycle().take(per_kind).enumerate() {
            let _ = i;
            exec.query(&request(kind, q), &QueryOptions::default())
                .expect("calibration query");
        }
    }

    // Freeze the estimates, then measure a fresh run of the same mix.
    // `estimate` keeps learning during the check, so the frozen copies
    // are what a planner would actually have had at decision time.
    let frozen: Vec<(&str, u64, sg_obs::CostStats)> = KINDS
        .iter()
        .map(|&kind| {
            let stats = model.stats("exec", kind).expect("calibrated cell");
            (kind, stats.est_ns.round() as u64, stats)
        })
        .collect();

    let mut out = Table::new(
        "costmodel",
        "Cost model: frozen per-kind EWMA estimates vs a fresh measured run",
        &[
            "kind",
            "calls",
            "ewma visits",
            "ewma lane ops",
            "ewma kB dec",
            "est us",
            "meas us",
            "rel err %",
        ],
    );
    let check = per_kind.max(100);
    let mut errs: Vec<f64> = Vec::new();
    for (kind, est_ns, stats) in &frozen {
        let t0 = Instant::now();
        for q in queries.iter().cycle().take(check) {
            std::hint::black_box(
                exec.query(&request(kind, q), &QueryOptions::default())
                    .expect("check query"),
            );
        }
        let measured_ns = t0.elapsed().as_nanos() as u64 / check as u64;
        let rel = if measured_ns > 0 {
            100.0 * (*est_ns as f64 - measured_ns as f64).abs() / measured_ns as f64
        } else {
            0.0
        };
        errs.push(rel);
        out.row(vec![
            kind.to_string(),
            stats.count.to_string(),
            f(stats.visits),
            f(stats.lane_ops),
            f(stats.bytes_decoded / 1024.0),
            f(*est_ns as f64 / 1_000.0),
            f(measured_ns as f64 / 1_000.0),
            f(rel),
        ]);
    }
    let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
    out.row(vec![
        "mean".to_string(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        f(mean_err),
    ]);

    prof::stop();
    let profile = prof::snapshot();
    let top: Vec<String> = prof::self_weights(&profile)
        .into_iter()
        .take(3)
        .map(|(name, c)| format!("{name} ({} samples)", c.samples))
        .collect();
    eprintln!(
        "[profile] mean calibration error {mean_err:.1}% | {} ticks, {} stacks, hot: {}",
        prof::ticks(),
        profile.len(),
        if top.is_empty() {
            "none".to_string()
        } else {
            top.join(", ")
        }
    );
    if mean_err > 30.0 {
        eprintln!("[profile] WARNING: mean calibration error above the 30% acceptance bound");
    }
    prof::clear();
    vec![out]
}
