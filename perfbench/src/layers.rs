//! The traced run: the same read stream replayed at every entry point —
//! `Client::call`, `Batcher::submit` → ticket, `ShardedExecutor::query`,
//! `with_shard(i, |t| t.query(..))` — at the same concurrency, timed from
//! the benchmark's own side of each call. Also the probes that time
//! single calls into the pager, the node codec and the kernels.

use crate::spans::RequestSpans;
use crate::stats::{median, percentile};
use crate::workload::{to_query, Kind, ALL_KINDS, CONNS};
use sg_exec::{QueryOptions, QueryRequest, ShardedExecutor};
use sg_obs::{Registry, ServeObs};
use sg_pager::{BufferPool, IoSnapshot};
use sg_serve::proto::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use sg_serve::{BatchPolicy, BatchReply, Batcher, Client};
use sg_sig::Metric;
use sg_tree::{Node, QueryProbe, SoaNode};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A reported metric: name, value, unit.
pub type Metric3 = (String, f64, &'static str);

/// Runs `f(i)` for every `i < n`, striped over [`CONNS`] threads (thread
/// `c` takes `c, c + CONNS, …` in order), and returns the results by `i`.
fn striped<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut parts: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let f = &f;
                s.spawn(move || (c..n).step_by(CONNS).map(|i| (i, f(i))).collect::<Vec<_>>())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread"))
            .collect()
    });
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for part in parts.drain(..) {
        for (i, t) in part {
            out[i] = Some(t);
        }
    }
    out.into_iter()
        .map(|t| t.expect("every index replayed"))
        .collect()
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn pools(exec: &ShardedExecutor) -> Vec<Arc<BufferPool>> {
    (0..exec.shards())
        .map(|i| exec.with_shard(i, |t| Arc::clone(t.pool())))
        .collect()
}

fn io_total(pools: &[Arc<BufferPool>]) -> Vec<IoSnapshot> {
    pools.iter().map(|p| p.stats().snapshot()).collect()
}

/// Result of the layered replay.
pub struct Replay {
    /// Per-layer metrics.
    pub metrics: Vec<Metric3>,
    /// Spans of every request replayed at all four entry points.
    pub spans: Vec<RequestSpans>,
    /// `(request, TCP response)` pairs for the oracle check.
    pub samples: Vec<(Request, Response)>,
    /// Requests sent, over all entry points.
    pub attempted: u64,
    /// Errors, plus answers that differ between entry points.
    pub failed: u64,
    /// What failed, first few.
    pub errors: Vec<String>,
}

/// Replays `reqs` at every entry point of the service at `addr` running
/// over `exec` (whose server reports into `registry`). The executor
/// level also replays `extra` more reads, so each kind has enough
/// samples for a p99.
pub fn replay(
    addr: &str,
    registry: &Registry,
    exec: &Arc<ShardedExecutor>,
    reqs: &[Request],
    extra: &[Request],
) -> Replay {
    let n = reqs.len();
    let nbits = exec.nbits();
    let queries: Vec<QueryRequest> = reqs.iter().map(|r| to_query(nbits, r)).collect();
    let pools = pools(exec);
    let io0 = io_total(&pools);
    let mut failed = 0u64;
    let mut errors = Vec::new();
    let mut fail = |what: String, failed: &mut u64| {
        *failed += 1;
        if errors.len() < 8 {
            errors.push(what);
        }
    };

    // 1. Client::call over TCP.
    let hist = registry.histogram("serve.batch_size");
    let b0 = hist.snapshot();
    let clients: Vec<std::sync::Mutex<Client>> = (0..CONNS)
        .map(|_| std::sync::Mutex::new(Client::connect(addr).expect("connect for the replay")))
        .collect();
    let tcp: Vec<(u64, Option<Response>)> = striped(n, |i| {
        let mut cl = clients[i % CONNS].lock().unwrap();
        let t = Instant::now();
        let r = cl.call(&reqs[i]).ok();
        (ns_since(t), r)
    });
    drop(clients);
    let b1 = hist.snapshot();
    let batch_size = (b1.sum - b0.sum) as f64 / (b1.count - b0.count).max(1) as f64;

    // 2. The codec, on the run's own requests and responses.
    let codec: Vec<u64> = (0..n)
        .map(|i| {
            let t = Instant::now();
            let bytes = encode_request(&reqs[i]);
            black_box(decode_request(&bytes).ok());
            if let Some(resp) = &tcp[i].1 {
                let bytes = encode_response(resp);
                black_box(decode_response(&bytes).ok());
            }
            ns_since(t)
        })
        .collect();

    // 3. Batcher::submit → ticket, on a batcher of the server's policy.
    let batcher = Batcher::start(
        Arc::clone(exec),
        BatchPolicy::default(),
        ServeObs::register(&Registry::new(), "replay"),
    );
    let batched: Vec<(u64, Option<sg_exec::QueryOutput>)> = striped(n, |i| {
        let t = Instant::now();
        let out = batcher
            .submit(queries[i].clone(), Instant::now() + Duration::from_secs(10))
            .ok()
            .and_then(|ticket| match ticket.rx.recv() {
                Ok(BatchReply::Done(r)) => Some(r.output),
                _ => None,
            });
        (ns_since(t), out)
    });
    batcher.drain();

    // 4. ShardedExecutor::query.
    let all: Vec<QueryRequest> = queries
        .iter()
        .cloned()
        .chain(extra.iter().map(|r| to_query(nbits, r)))
        .collect();
    let executed: Vec<(u64, u64, Option<sg_exec::QueryOutput>)> = striped(all.len(), |i| {
        let t = Instant::now();
        match exec.query(&all[i], &QueryOptions::default()) {
            Ok(r) => (ns_since(t), r.merge_ns, Some(r.output)),
            Err(_) => (ns_since(t), 0, None),
        }
    });

    // 5. One shard at a time: with_shard(i, |t| t.query(..)).
    let sharded: Vec<Vec<u64>> = striped(n, |i| {
        (0..exec.shards())
            .map(|s| {
                let t = Instant::now();
                let r =
                    exec.with_shard(s, |tree| tree.query(&queries[i], &QueryOptions::default()));
                black_box(r.ok());
                ns_since(t)
            })
            .collect()
    });
    let io1 = io_total(&pools);

    // Every entry point must give the same answer.
    let mut samples = Vec::new();
    for i in 0..n {
        let tcp_resp = tcp[i].1.clone();
        match (&tcp_resp, &batched[i].1, &executed[i].2) {
            (
                Some(resp @ (Response::Neighbors { .. } | Response::Tids { .. })),
                Some(b),
                Some(e),
            ) => {
                let b = encode_response(&crate::workload::to_response(resp.id(), b.clone()));
                let e = encode_response(&crate::workload::to_response(resp.id(), e.clone()));
                let t = encode_response(resp);
                if b != t || e != t {
                    fail(format!("request {i}: entry points disagree"), &mut failed);
                }
                if i % 16 == 0 {
                    samples.push((reqs[i].clone(), resp.clone()));
                }
            }
            other => fail(
                format!("request {i}: replay failed: {:?}", other.0),
                &mut failed,
            ),
        }
    }
    for (i, e) in executed.iter().enumerate().skip(n) {
        if e.2.is_none() {
            fail(format!("extra request {i}: executor error"), &mut failed);
        }
    }

    // Spans: client ⊃ {codec, batcher ⊃ exec ⊃ {shards, merge}}.
    let spans: Vec<RequestSpans> = (0..n)
        .map(|i| {
            let mut r = RequestSpans::new(reqs[i].id());
            let client = r.add("serve.client", None, 0, tcp[i].0);
            r.add("serve.codec", Some(client), 0, codec[i]);
            let batch = r.add("serve.batcher", Some(client), codec[i], batched[i].0);
            let ex = r.add("exec.query", Some(batch), 0, executed[i].0);
            for &d in &sharded[i] {
                r.add("core.shard_query", Some(ex), 0, d);
            }
            let slowest = sharded[i].iter().copied().max().unwrap_or(0);
            r.add("exec.merge", Some(ex), slowest, executed[i].1);
            r
        })
        .collect();

    // A layer's own time is the difference between the mean round trips
    // at its entry point and at the next one in: the replays are
    // separate, so per-request differences are noisy, but means add up.
    let us = |v: Vec<f64>| median(&v) / 1e3;
    let mean_us = |f: &dyn Fn(usize) -> f64| (0..n).map(f).sum::<f64>() / n.max(1) as f64 / 1e3;
    let slowest = |i: usize| sharded[i].iter().copied().max().unwrap_or(0) as f64;
    let mut m: Vec<Metric3> = vec![
        (
            "serve.codec_us".into(),
            us(codec.iter().map(|&c| c as f64).collect()),
            "us",
        ),
        (
            "serve.wire_us".into(),
            mean_us(&|i| tcp[i].0 as f64 - batched[i].0 as f64),
            "us",
        ),
        (
            "serve.batch_wait_us".into(),
            mean_us(&|i| batched[i].0 as f64 - executed[i].0 as f64),
            "us",
        ),
        ("serve.batch_size".into(), batch_size, "count"),
    ];
    // Unattributed: client time its children (codec, batcher round trip)
    // do not cover, over the whole replay.
    let total = |name: &str| -> f64 {
        spans
            .iter()
            .map(|r| r.find(name).map_or(0, |i| r.dur(i)) as f64)
            .sum()
    };
    let client_total = total("serve.client");
    m.push((
        "serve.unattributed_pct".into(),
        100.0 * (client_total - total("serve.codec") - total("serve.batcher"))
            / client_total.max(1.0),
        "%",
    ));
    for kind in ALL_KINDS {
        let mut v: Vec<f64> = all
            .iter()
            .zip(&executed)
            .zip(reqs.iter().chain(extra))
            .filter(|(_, r)| Kind::of(r) == Some(kind))
            .map(|((_, e), _)| e.0 as f64 / 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        // A kind the workload does not send reports 0.
        let (p50, p99) = if v.is_empty() {
            (0.0, 0.0)
        } else {
            (percentile(&v, 50.0), percentile(&v, 99.0))
        };
        m.push((format!("exec.query_us.{}.p50", kind.name()), p50, "us"));
        m.push((format!("exec.query_us.{}.p99", kind.name()), p99, "us"));
    }
    m.push((
        "exec.fanout_us".into(),
        mean_us(&|i| executed[i].0 as f64 - slowest(i)),
        "us",
    ));
    m.push((
        "exec.merge_us".into(),
        us(executed[..n].iter().map(|e| e.1 as f64).collect()),
        "us",
    ));
    m.push((
        "exec.shard_skew".into(),
        median(
            &sharded
                .iter()
                .map(|s| {
                    let mean = s.iter().sum::<u64>() as f64 / s.len() as f64;
                    *s.iter().max().unwrap() as f64 / mean.max(1.0)
                })
                .collect::<Vec<_>>(),
        ),
        "ratio",
    ));
    m.push((
        "core.shard_query_us".into(),
        us(sharded.iter().flatten().map(|&d| d as f64).collect()),
        "us",
    ));
    let (logical, physical) = io0.iter().zip(&io1).fold((0u64, 0u64), |(l, p), (a, b)| {
        let d = b.since(a);
        (l + d.logical_reads, p + d.physical_reads)
    });
    m.push((
        "pager.pool_hit_rate".into(),
        if logical == 0 {
            0.0
        } else {
            1.0 - physical as f64 / logical as f64
        },
        "ratio",
    ));
    Replay {
        metrics: m,
        spans,
        samples,
        attempted: (n * 3 + all.len()) as u64,
        failed,
        errors,
    }
}

/// Every page of a shard's tree, read through its own pool (breadth
/// first from the meta page's root).
fn tree_pages(pool: &BufferPool, nbits: u32) -> Vec<u64> {
    let meta = pool.read(0);
    let root = u64::from_le_bytes(meta[12..20].try_into().expect("meta layout"));
    let mut pages = vec![root];
    let mut i = 0;
    while i < pages.len() {
        let node = Node::decode(nbits, &pool.read(pages[i]));
        if !node.is_leaf() {
            pages.extend(node.entries.iter().map(|e| e.ptr));
        }
        i += 1;
    }
    pages
}

/// Times single calls into the pager, the node codec and the kernels on
/// the tree's own pages, and runs the serial cold pass that yields the
/// paper's per-query costs. Runs while nothing else touches `exec`.
pub fn probes(exec: &ShardedExecutor, reads: &[Request], cold: usize) -> Vec<Metric3> {
    let nbits = exec.nbits();
    let hamming = Metric::hamming();
    let probes: Vec<QueryProbe> = reads
        .iter()
        .map(|r| QueryProbe::new(to_query(nbits, r).signature()))
        .collect();
    let (mut hit, mut miss, mut decode, mut sweep) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for s in 0..exec.shards() {
        exec.with_shard(s, |tree| {
            let pool = tree.pool();
            let pages = tree_pages(pool, nbits);
            pool.clear();
            for (k, &id) in pages.iter().enumerate() {
                let t = Instant::now();
                black_box(pool.read(id));
                miss.push(ns_since(t) as f64);
                let t = Instant::now();
                let page = pool.read(id);
                hit.push(ns_since(t) as f64);
                let t = Instant::now();
                let node = SoaNode::decode(nbits, &page);
                decode.push(ns_since(t) as f64);
                let probe = &probes[k % probes.len()];
                let t = Instant::now();
                let mut acc = 0.0;
                for e in 0..node.len() {
                    acc += node.mindist(e, probe, &hamming);
                }
                black_box(acc);
                sweep.push(ns_since(t) as f64);
            }
        });
    }

    // The serial cold pass: one query at a time, every pool cleared
    // first, so each physical read is one of the paper's random I/Os.
    let (mut nodes, mut compared, mut ios) = (0u64, 0u64, 0u64);
    for r in &reads[..cold.min(reads.len())] {
        let q = to_query(nbits, r);
        for s in 0..exec.shards() {
            exec.with_shard(s, |tree| {
                tree.pool().clear();
                let before = tree.pool().stats().snapshot();
                let resp = tree
                    .query(&q, &QueryOptions::default())
                    .expect("a shard answers the cold pass");
                ios += tree.pool().stats().snapshot().since(&before).physical_reads;
                nodes += resp.stats.nodes_accessed;
                compared += resp.stats.data_compared;
            });
        }
    }
    let per_q = cold.min(reads.len()).max(1) as f64;
    vec![
        ("core.nodes_per_query".into(), nodes as f64 / per_q, "count"),
        (
            "core.data_compared_pct".into(),
            100.0 * compared as f64 / per_q / exec.len().max(1) as f64,
            "%",
        ),
        ("core.decode_ns".into(), median(&decode), "ns"),
        ("sig.sweep_ns".into(), median(&sweep), "ns"),
        ("pager.pool_read_ns.hit".into(), median(&hit), "ns"),
        ("pager.pool_read_ns.miss".into(), median(&miss), "ns"),
        (
            "pager.random_io_per_query".into(),
            ios as f64 / per_q,
            "count",
        ),
    ]
}
