//! Tiny-scale runs of every workload, checked against `BENCHMARK.json`.

use sg_exec::{ExecConfig, ShardedExecutor};
use sg_obs::json::{parse, Json};
use sg_obs::Registry;
use sg_perfbench::load::{closed_loop, Stop, Traffic};
use sg_perfbench::stats::{valid_name, valid_unit};
use sg_perfbench::workload::{Gen, Spec, NAMES};
use sg_perfbench::{run, Opts, Report};
use sg_serve::{BatchPolicy, ServeConfig, Server};
use sg_sig::Signature;
use std::sync::Arc;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect(key)
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn tiny(workload: &str, trace: bool, corrupt: bool) -> Report {
    run(&Opts {
        workload: workload.into(),
        seed: 5,
        seconds: 0.4,
        trace,
        scale: 0.02,
        corrupt,
    })
}

fn assert_matches(report: &Report, expected: &[(String, String)], nonzero: bool) {
    let got: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), u.to_string()))
        .collect();
    assert_eq!(
        &got, expected,
        "metrics must be exactly BENCHMARK.json's, in order"
    );
    for (name, value, _) in &report.metrics {
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            !nonzero || *value > 0.0,
            "{name} must never be 0, got {value}"
        );
    }
}

#[test]
fn benchmark_json_names_are_valid() {
    let doc = benchmark_json();
    let workloads: Vec<String> = names(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, NAMES);
    let mut seen = std::collections::HashSet::new();
    for key in ["end_to_end", "per_layer"] {
        for (name, unit) in names(&doc, key) {
            assert!(valid_name(&name), "bad metric name {name:?}");
            assert!(valid_unit(&unit), "bad unit {unit:?} of {name}");
            assert!(seen.insert(name.clone()), "{name} is listed twice");
        }
    }
    assert!(names(&doc, "end_to_end")
        .iter()
        .any(|(n, u)| n == "setup_s" && u == "s"));
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let expected = names(&benchmark_json(), "end_to_end");
    for w in NAMES {
        let r = tiny(w, false, false);
        assert!(r.correct, "{w}: {:?}", r.notes);
        assert_eq!(r.failed, 0, "{w}: {:?}", r.notes);
        assert!(r.attempted > 0);
        assert_matches(&r, &expected, true);
        let tags: Vec<&str> = r.tags.iter().map(|(k, _)| k.as_str()).collect();
        for t in [
            "commit", "nproc", "kernel", "storage", "dataset", "rows", "seed",
        ] {
            assert!(tags.contains(&t), "{w}: tag {t} missing");
        }
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric() {
    let expected = names(&benchmark_json(), "per_layer");
    for w in NAMES {
        let r = tiny(w, true, false);
        assert!(r.correct, "{w}: {:?}", r.notes);
        assert_eq!(r.failed, 0, "{w}: {:?}", r.notes);
        assert_matches(&r, &expected, false);
        let get = |n: &str| r.metrics.iter().find(|m| m.0 == n).unwrap().1;
        assert_eq!(
            get("exec.replay_records"),
            64.0,
            "{w}: the restart replays the tail"
        );
        assert!(get("core.nodes_per_query") > 0.0);
    }
}

#[test]
fn a_corrupted_answer_fails_the_run() {
    for trace in [false, true] {
        let r = tiny("basket-mix", trace, true);
        assert!(!r.correct, "trace={trace}");
        assert!(r.failed >= 1, "trace={trace}");
    }
}

#[test]
fn refused_requests_fail_the_run() {
    // A server whose admission queue holds nothing answers every read
    // with SERVER_BUSY.
    let spec = Spec::named("basket-mix").unwrap();
    let gen = Gen::new(spec.source);
    let queries = gen.queries(64, 5);
    let pairs: Vec<(u64, Signature)> = gen
        .dataset(500, 5)
        .iter()
        .enumerate()
        .map(|(i, r)| (i as u64, Signature::from_items(gen.nbits(), r)))
        .collect();
    let exec =
        Arc::new(ShardedExecutor::build(gen.nbits(), &pairs, &ExecConfig::default()).unwrap());
    let server = Server::start(
        exec,
        Arc::new(Registry::new()),
        ServeConfig {
            admin_addr: None,
            policy: BatchPolicy {
                queue_cap: 0,
                ..BatchPolicy::default()
            },
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let traffic = Traffic {
        spec: &spec,
        gen: &gen,
        queries: &queries,
        seed: 5,
        conns: 2,
        write_every: 0,
        model: None,
        sample: None,
        stream: 0,
    };
    let phase = closed_loop(&server.local_addr().to_string(), &traffic, Stop::Count(4));
    server.join();
    let mut r = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        tags: Vec::new(),
        notes: Vec::new(),
    };
    r.absorb(phase.attempted, phase.failed, &phase.errors);
    assert_eq!((r.attempted, r.failed), (8, 8), "{:?}", r.notes);
    assert!(!r.correct);
    assert!(r
        .to_json()
        .to_string_compact()
        .contains("\"correct\":false"));
}

#[test]
fn cold_pass_counts_repeat_exactly() {
    let pick = |r: &Report| -> Vec<f64> {
        [
            "core.nodes_per_query",
            "core.data_compared_pct",
            "pager.random_io_per_query",
        ]
        .iter()
        .map(|n| r.metrics.iter().find(|m| m.0 == *n).unwrap().1)
        .collect()
    };
    for w in ["basket-mix", "census-knn"] {
        assert_eq!(
            pick(&tiny(w, true, false)),
            pick(&tiny(w, true, false)),
            "{w}"
        );
    }
}

#[test]
fn usage_errors_are_reported() {
    let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    assert!(Opts::parse(&args(&["--workload", "nope"])).is_err());
    assert!(Opts::parse(&args(&["--workload", "basket-mix", "--trace", "2"])).is_err());
    assert!(Opts::parse(&args(&["--workload", "basket-mix", "--bogus"])).is_err());
    assert!(Opts::parse(&args(&["--workload", "basket-mix", "--corrupt-answer"])).is_err());
    let o = Opts::parse(&args(&[
        "--workload",
        "census-knn",
        "--seed",
        "9",
        "--seconds",
        "10",
        "--trace",
        "1",
    ]))
    .unwrap();
    assert_eq!((o.seed, o.seconds, o.trace), (9, 10.0, true));
}
