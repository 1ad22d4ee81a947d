//! Property tests for snapshot merge semantics (merging two recorders'
//! snapshots must equal one recorder that observed the union), for
//! Prometheus text-format conformance, and for the flight recorder's
//! ring buffer.

use proptest::prelude::*;

use crate::export::textparse::{self, Line};
use crate::export::{escape_label_value, to_prometheus};
use crate::metrics::{Histogram, Registry};
use crate::span::{RawRecord, SpanData, ThreadRing, MAX_ATTRS};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histogram_merge_equals_union(
        a in prop::collection::vec(0u64..=1_000_000, 0..200),
        b in prop::collection::vec(0u64..=1_000_000, 0..200),
    ) {
        let ha = Histogram::new();
        let hb = Histogram::new();
        let hu = Histogram::new();
        for &v in &a {
            ha.record(v);
            hu.record(v);
        }
        for &v in &b {
            hb.record(v);
            hu.record(v);
        }
        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        prop_assert_eq!(merged, hu.snapshot());
    }

    #[test]
    fn histogram_merge_is_commutative(
        a in prop::collection::vec(0u64..=1_000_000, 0..100),
        b in prop::collection::vec(0u64..=1_000_000, 0..100),
    ) {
        let ha = Histogram::new();
        let hb = Histogram::new();
        for &v in &a {
            ha.record(v);
        }
        for &v in &b {
            hb.record(v);
        }
        let mut ab = ha.snapshot();
        ab.merge(&hb.snapshot());
        let mut ba = hb.snapshot();
        ba.merge(&ha.snapshot());
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn registry_merge_equals_union(
        counts_a in prop::collection::vec(0u64..1000, 3),
        counts_b in prop::collection::vec(0u64..1000, 3),
        lat_a in prop::collection::vec(0u64..100_000, 0..50),
        lat_b in prop::collection::vec(0u64..100_000, 0..50),
    ) {
        let names = ["x.n", "y.n", "z.n"];
        let build = |counts: &[u64], lats: &[u64]| {
            let r = Registry::new();
            for (name, &c) in names.iter().zip(counts) {
                r.counter(name).add(c);
            }
            let h = r.histogram("x.lat");
            for &v in lats {
                h.record(v);
            }
            r
        };
        let ra = build(&counts_a, &lat_a);
        let rb = build(&counts_b, &lat_b);
        let union: Vec<u64> = counts_a.iter().zip(&counts_b).map(|(x, y)| x + y).collect();
        let mut lat_union = lat_a.clone();
        lat_union.extend_from_slice(&lat_b);
        let ru = build(&union, &lat_union);

        let mut merged = ra.snapshot();
        merged.merge(&rb.snapshot());
        prop_assert_eq!(merged, ru.snapshot());
    }

    #[test]
    fn since_then_merge_restores_total(
        first in prop::collection::vec(0u64..50_000, 1..60),
        second in prop::collection::vec(0u64..50_000, 1..60),
    ) {
        // since() gives the delta of the second batch; merging it back on
        // the first snapshot must restore bucket counts, count, and sum.
        let r = Registry::new();
        let h = r.histogram("lat");
        let c = r.counter("n");
        for &v in &first {
            h.record(v);
            c.inc();
        }
        let snap1 = r.snapshot();
        for &v in &second {
            h.record(v);
            c.inc();
        }
        let snap2 = r.snapshot();
        let delta = snap2.since(&snap1);
        prop_assert_eq!(delta.counter("n"), second.len() as u64);

        let mut restored = snap1.clone();
        restored.merge(&delta);
        // min/max are not restorable from a delta; compare the rest.
        use crate::metrics::MetricValue;
        match (restored.metrics.get("lat"), snap2.metrics.get("lat")) {
            (Some(MetricValue::Histogram(a)), Some(MetricValue::Histogram(b))) => {
                prop_assert_eq!(&a.buckets, &b.buckets);
                prop_assert_eq!(a.count, b.count);
                prop_assert_eq!(a.sum, b.sum);
            }
            other => prop_assert!(false, "unexpected metrics: {:?}", other),
        }
        prop_assert_eq!(restored.counter("n"), snap2.counter("n"));
    }
}

// ---------------------------------------------------------------------------
// Prometheus text-format conformance
// ---------------------------------------------------------------------------

/// Asserts every format guarantee [`to_prometheus`] makes, against the
/// strict little parser in [`textparse`]:
///
/// * the document parses at all;
/// * every sample series is preceded by a `# TYPE` line for its metric;
/// * histogram buckets are cumulative, their `le` bounds strictly
///   increase, and the series ends in `le="+Inf"`;
/// * the `+Inf` bucket, `_count`, and the number of observations agree,
///   and `_sum` is present exactly once.
fn assert_prometheus_conformance(text: &str, observations: &[(String, Vec<u64>)]) {
    let lines = textparse::parse(text).expect("exporter output must parse");

    // TYPE-before-sample, for every series.
    let mut declared: Vec<&str> = Vec::new();
    for line in &lines {
        match line {
            Line::Type { name, .. } => declared.push(name),
            Line::Sample { name, .. } => {
                let base = name
                    .strip_suffix("_bucket")
                    .or_else(|| name.strip_suffix("_sum"))
                    .or_else(|| name.strip_suffix("_count"))
                    .filter(|b| declared.contains(b))
                    .unwrap_or(name);
                assert!(
                    declared.contains(&base) || declared.contains(&name.as_str()),
                    "sample {name} not preceded by a # TYPE line\n{text}"
                );
            }
        }
    }

    // Histogram invariants, per histogram that observed anything.
    for (hist_name, values) in observations {
        let base = hist_name.replace(|c: char| !c.is_ascii_alphanumeric(), "_");
        let buckets: Vec<(&str, f64)> = lines
            .iter()
            .filter_map(|l| match l {
                Line::Sample {
                    name,
                    labels,
                    value,
                } if *name == format!("{base}_bucket") => {
                    assert_eq!(labels.len(), 1, "bucket series must carry only le");
                    assert_eq!(labels[0].0, "le");
                    Some((labels[0].1.as_str(), *value))
                }
                _ => None,
            })
            .collect();
        let count_val = lines
            .iter()
            .filter_map(|l| match l {
                Line::Sample { name, value, .. } if *name == format!("{base}_count") => {
                    Some(*value)
                }
                _ => None,
            })
            .collect::<Vec<_>>();
        let sum_val = lines
            .iter()
            .filter_map(|l| match l {
                Line::Sample { name, value, .. } if *name == format!("{base}_sum") => Some(*value),
                _ => None,
            })
            .collect::<Vec<_>>();
        assert_eq!(count_val.len(), 1, "{base}_count must appear exactly once");
        assert_eq!(sum_val.len(), 1, "{base}_sum must appear exactly once");
        assert_eq!(count_val[0], values.len() as f64);
        assert_eq!(sum_val[0], values.iter().sum::<u64>() as f64);

        assert!(!buckets.is_empty(), "histogram must emit buckets");
        assert_eq!(buckets.last().unwrap().0, "+Inf", "buckets end in +Inf");
        assert_eq!(buckets.last().unwrap().1, count_val[0]);
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_n = 0.0f64;
        for (le, n) in &buckets {
            let bound: f64 = if *le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().expect("numeric le")
            };
            assert!(bound > prev_le, "le bounds strictly increase\n{text}");
            assert!(*n >= prev_n, "bucket counts are cumulative\n{text}");
            prev_le = bound;
            prev_n = *n;
        }
    }
}

/// Name pools for generated registries. Distinct prefixes per metric
/// kind so a generated registry never registers one name as two kinds.
const COUNTER_NAMES: [&str; 6] = [
    "tree.queries",
    "serve.requests",
    "pool.hits",
    "wal.syncs",
    "exec.batches",
    "ingest.replayed",
];
const GAUGE_NAMES: [&str; 4] = ["g.frames", "g.depth", "g.conns", "g.draining"];
const HIST_NAMES: [&str; 4] = ["h.query_ns", "h.batch_size", "h.write_ns", "h.wait_us"];

/// Characters a label value may contain, including everything that
/// needs escaping and the structural characters that could confuse a
/// naive parser.
const LABEL_CHARS: [char; 16] = [
    'a', 'b', 'z', '0', '9', '_', '"', '\\', '\n', '{', '}', '=', ',', ' ', 'λ', '€',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prometheus_export_conforms(
        counters in prop::collection::vec((0usize..COUNTER_NAMES.len(), 0u64..1_000_000), 0..5),
        gauges in prop::collection::vec((0usize..GAUGE_NAMES.len(), -500i64..500), 0..4),
        hists in prop::collection::vec(
            (0usize..HIST_NAMES.len(), prop::collection::vec(0u64..10_000_000, 1..80)),
            0..4,
        ),
    ) {
        let r = Registry::new();
        for &(i, v) in &counters {
            r.counter(COUNTER_NAMES[i]).add(v);
        }
        for &(i, v) in &gauges {
            r.gauge(GAUGE_NAMES[i]).set(v);
        }
        let mut observations: Vec<(String, Vec<u64>)> = Vec::new();
        for (i, values) in &hists {
            let name = HIST_NAMES[*i];
            let h = r.histogram(name);
            for &v in values {
                h.record(v);
            }
            if let Some(existing) = observations.iter_mut().find(|(n, _)| n == name) {
                existing.1.extend_from_slice(values);
            } else {
                observations.push((name.to_string(), values.clone()));
            }
        }
        let text = to_prometheus(&r.snapshot());
        assert_prometheus_conformance(&text, &observations);
    }

    #[test]
    fn label_value_escaping_round_trips(
        chars in prop::collection::vec(0usize..LABEL_CHARS.len(), 0..24),
    ) {
        // Any label value — including quotes, backslashes, newlines and
        // braces — must survive escape → embed in a series line → parse.
        let v: String = chars.iter().map(|&i| LABEL_CHARS[i]).collect();
        let escaped = escape_label_value(&v);
        prop_assert!(!escaped.contains('\n'), "escaped value is single-line");
        let line = format!("m{{k=\"{escaped}\"}} 1\n");
        let lines = textparse::parse(&line).expect("escaped line parses");
        match &lines[..] {
            [Line::Sample { name, labels, value }] => {
                prop_assert_eq!(name.as_str(), "m");
                prop_assert_eq!(*value, 1.0);
                prop_assert_eq!(&labels[0].1, &v);
            }
            other => prop_assert!(false, "unexpected parse: {:?}", other),
        }
    }
}

// ---------------------------------------------------------------------------
// Flight-recorder ring buffer
// ---------------------------------------------------------------------------

/// A record whose fields are all derived from one integer, so a torn
/// read (fields mixed from two different records) is detectable.
fn synthetic_record(k: u64) -> RawRecord {
    let t = k + 1;
    RawRecord {
        trace_id: t,
        span_id: t ^ 0x5EED_5EED,
        parent: t / 2,
        start_ns: t * 1_000,
        dur_ns: t * 3,
        name: 0,
        cat: 0,
        nattrs: 1,
        attrs: {
            let mut a = [(0u16, 0u64); MAX_ATTRS];
            a[0] = (0, t * 7);
            a
        },
    }
}

fn assert_not_torn(s: &SpanData) {
    let t = s.trace_id;
    assert_eq!(s.span_id, t ^ 0x5EED_5EED, "torn span_id: {s:?}");
    assert_eq!(s.parent, t / 2, "torn parent: {s:?}");
    assert_eq!(s.start_ns, t * 1_000, "torn start: {s:?}");
    assert_eq!(s.dur_ns, t * 3, "torn dur: {s:?}");
    assert_eq!(s.attrs, vec![("", t * 7)], "torn attrs: {s:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ring_overwrite_keeps_newest_and_never_tears(
        cap in 1usize..48,
        total in 0u64..200,
    ) {
        let ring = ThreadRing::new(cap);
        for k in 0..total {
            ring.push(&synthetic_record(k));
        }
        let spans = ring.drain();
        // Exactly the newest min(total, cap) records, oldest first.
        let expect_len = (total as usize).min(cap);
        prop_assert_eq!(spans.len(), expect_len);
        let first = total - expect_len as u64;
        for (i, s) in spans.iter().enumerate() {
            prop_assert_eq!(s.trace_id, first + i as u64 + 1);
            assert_not_torn(s);
        }
    }
}

/// A dumper racing a writer over a tiny ring must only ever observe
/// whole records: every drained span satisfies the derived-field
/// relationship and appears at most once. (Scan *order* is not
/// guaranteed under concurrent overwrite — a slot can be lapped with a
/// newer committed record mid-scan — which is why [`flight_spans`]
/// sorts by start time; what the seqlock guarantees is no tearing.)
///
/// The writer publishes its push count, and the dumper keeps draining
/// until the writer has lapped the ring several times, so the race is
/// exercised however late the writer thread gets scheduled.
#[test]
fn concurrent_drain_never_observes_a_torn_record() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    const CAP: usize = 8;
    const MIN_DRAINS: u32 = 2_000;
    let ring = Arc::new(ThreadRing::new(CAP));
    let stop = Arc::new(AtomicBool::new(false));
    let pushed = Arc::new(AtomicU64::new(0));
    let w = {
        let ring = Arc::clone(&ring);
        let stop = Arc::clone(&stop);
        let pushed = Arc::clone(&pushed);
        std::thread::spawn(move || {
            let mut k = 0u64;
            while !stop.load(Ordering::Relaxed) {
                ring.push(&synthetic_record(k));
                k += 1;
                pushed.store(k, Ordering::Release);
            }
            k
        })
    };
    let mut drains = 0u32;
    while drains < MIN_DRAINS || pushed.load(Ordering::Acquire) < 4 * CAP as u64 {
        let spans = ring.drain();
        let mut seen = Vec::with_capacity(spans.len());
        for s in &spans {
            assert_not_torn(s);
            assert!(
                !seen.contains(&s.trace_id),
                "duplicate record {}",
                s.trace_id
            );
            seen.push(s.trace_id);
        }
        drains += 1;
    }
    stop.store(true, Ordering::Relaxed);
    let written = w.join().unwrap();
    assert!(written > 0);
}

// ---------------------------------------------------------------------------
// Folded-stack aggregation (prof.rs)
// ---------------------------------------------------------------------------

use crate::prof::{FoldedProfile, StackCount};

/// Interns a fixed palette of span names through the production table
/// and returns their indices. Idempotent: the interner dedups, so
/// repeated calls (and other tests) always agree on the mapping.
fn prof_name_table() -> &'static [(u16, &'static str)] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<Vec<(u16, &'static str)>> = OnceLock::new();
    TABLE.get_or_init(|| {
        [
            "prop.root",
            "prop.query",
            "prop.visit",
            "prop.decode",
            "prop.wal",
            "prop.flush",
        ]
        .iter()
        .map(|&name| (crate::span::intern_for_test(name), name))
        .collect()
    })
}

/// A batch of raw profiler samples: (palette indices root-first, weight).
fn arb_prof_batch() -> impl Strategy<Value = Vec<(Vec<usize>, StackCount)>> {
    prop::collection::vec(
        (
            prop::collection::vec(0usize..6, 0..5),
            (0u64..50, 0u64..1_000_000u64)
                .prop_map(|(samples, cpu_ns)| StackCount { samples, cpu_ns }),
        ),
        0..24,
    )
}

fn build_profile(batch: &[(Vec<usize>, StackCount)]) -> FoldedProfile {
    let table = prof_name_table();
    let mut p = FoldedProfile::new();
    for (path, count) in batch {
        let frames: Vec<u16> = path.iter().map(|&i| table[i].0).collect();
        p.record(&frames, *count);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // merge is associative (and the BTreeMap keying makes it
    // order-insensitive): (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
    #[test]
    fn folded_merge_is_associative(
        a in arb_prof_batch(),
        b in arb_prof_batch(),
        c in arb_prof_batch(),
    ) {
        let (pa, pb, pc) = (build_profile(&a), build_profile(&b), build_profile(&c));

        let mut left = pa.clone();
        left.merge(&pb);
        left.merge(&pc);

        let mut bc = pb.clone();
        bc.merge(&pc);
        let mut right = pa.clone();
        right.merge(&bc);

        prop_assert_eq!(left, right);
    }

    // record + merge conserve both weights: nothing is lost or
    // double-counted, except empty stacks which are dropped by design.
    #[test]
    fn folded_counts_are_conserved(
        a in arb_prof_batch(),
        b in arb_prof_batch(),
    ) {
        let expect = |batch: &[(Vec<usize>, StackCount)]| {
            batch
                .iter()
                .filter(|(path, _)| !path.is_empty())
                .fold((0u64, 0u64), |(s, n), (_, c)| (s + c.samples, n + c.cpu_ns))
        };
        let (sa, na) = expect(&a);
        let (sb, nb) = expect(&b);

        let mut merged = build_profile(&a);
        prop_assert_eq!(merged.total_samples(), sa);
        prop_assert_eq!(merged.total_cpu_ns(), na);
        merged.merge(&build_profile(&b));
        prop_assert_eq!(merged.total_samples(), sa + sb);
        prop_assert_eq!(merged.total_cpu_ns(), nb + na);
    }

    // Resolving stacks back through the interner returns exactly the
    // names that were recorded — aggregation never corrupts or
    // cross-wires the &'static str table.
    #[test]
    fn folded_resolution_preserves_names(a in arb_prof_batch()) {
        let table = prof_name_table();
        let profile = build_profile(&a);
        let resolved = profile.resolved();

        // Heaviest-first ordering by samples.
        for w in resolved.windows(2) {
            prop_assert!(w[0].samples >= w[1].samples);
        }

        // Every resolved stack is one of the recorded paths, verbatim.
        let recorded: std::collections::HashSet<Vec<&'static str>> = a
            .iter()
            .filter(|(path, _)| !path.is_empty())
            .map(|(path, _)| path.iter().map(|&i| table[i].1).collect())
            .collect();
        prop_assert_eq!(resolved.len(), recorded.len());
        for stack in &resolved {
            prop_assert!(
                recorded.contains(&stack.frames),
                "unrecorded stack surfaced: {:?}", stack.frames
            );
            let line = stack.folded_line();
            let (names, samples) = line.rsplit_once(' ').unwrap();
            prop_assert_eq!(names, stack.frames.join(";"));
            prop_assert_eq!(samples.parse::<u64>().unwrap(), stack.samples);
        }
    }
}
