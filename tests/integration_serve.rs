//! End-to-end tests for the sg-serve network service, over real sockets:
//!
//! * **Differential**: the answer a client reads off the wire is
//!   *byte-identical* (distances compared by `f64::to_bits`) to the answer
//!   a direct [`ShardedExecutor`] call returns, for containment (all three
//!   modes), Hamming range, similarity-threshold, and k-NN queries.
//! * **Backpressure**: a burst exceeding the admission queue gets
//!   `SERVER_BUSY` with a `retry_after_ms` hint, the queue never grows
//!   past its cap, and the server answers normally again afterwards.
//! * **Graceful drain**: shutdown mid-flight completes every admitted
//!   query; the drain report accounts for them.
//! * **Robustness**: oversize and malformed frames produce structured
//!   error frames — never a crash or a hang — and per-request deadlines
//!   produce `DEADLINE_EXCEEDED`.
//! * **Admin**: `/metrics` serves the serve.* counters in Prometheus
//!   text, `/healthz` reports readiness (and `503 draining` mid-drain).
//! * **Tracing**: a client-supplied `trace_id` yields one connected span
//!   tree (serve → exec → core, and → pager for durable writes) in the
//!   flight recorder, served by `/debug/flight`; the slow-query log
//!   captures exactly the requests over threshold.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sg_exec::{DurabilityConfig, ExecConfig, ShardedExecutor};
use sg_obs::{span, Registry};
use sg_serve::{
    read_frame, write_frame, BatchPolicy, Client, ContainmentMode, ErrorCode, MetricName, Response,
    ServeConfig, Server, MAX_FRAME_DEFAULT,
};
use sg_sig::{Metric, Signature};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const NBITS: u32 = 256;
const ROWS: u64 = 3000;
const SEED: u64 = 20030305;

/// Clustered transactions so containment and similarity queries have
/// non-trivial answers.
fn dataset() -> Vec<(u64, Signature)> {
    let mut rng = StdRng::seed_from_u64(SEED);
    (0..ROWS)
        .map(|tid| {
            let center = rng.gen_range(0..NBITS / 4) * 4;
            let items: Vec<u32> = (0..10)
                .map(|_| (center + rng.gen_range(0..NBITS / 2)) % NBITS)
                .collect();
            (tid, Signature::from_items(NBITS, &items))
        })
        .collect()
}

fn executor(shards: usize) -> Arc<ShardedExecutor> {
    Arc::new(
        ShardedExecutor::build(
            NBITS,
            &dataset(),
            &ExecConfig {
                shards,
                ..ExecConfig::default()
            },
        )
        .unwrap(),
    )
}

fn query_items(i: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(SEED ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..6).map(|_| rng.gen_range(0..NBITS)).collect()
}

#[test]
fn socket_answers_are_byte_identical_to_direct_executor() {
    let exec = executor(4);
    let server = Server::start(
        Arc::clone(&exec),
        Arc::new(Registry::new()),
        ServeConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    for i in 0..20u64 {
        let items = query_items(i);
        let q = Signature::from_items(NBITS, &items);

        // Containment, all three modes.
        for mode in [
            ContainmentMode::Containing,
            ContainmentMode::ContainedIn,
            ContainmentMode::Exact,
        ] {
            let direct = match mode {
                ContainmentMode::Containing => exec.containing(&q).0,
                ContainmentMode::ContainedIn => exec.contained_in(&q).0,
                ContainmentMode::Exact => exec.exact(&q).0,
            };
            match client.containment(mode, &items, None).unwrap() {
                Response::Tids { tids, .. } => assert_eq!(tids, direct, "mode {mode:?}, query {i}"),
                other => panic!("unexpected response: {other:?}"),
            }
        }

        // Hamming range.
        let radius = (i % 8) as f64;
        let direct = exec.range(&q, radius, &Metric::hamming()).0;
        match client.range(&items, radius, None).unwrap() {
            Response::Neighbors { pairs, .. } => {
                assert_eq!(pairs.len(), direct.len(), "range query {i}");
                for (got, want) in pairs.iter().zip(&direct) {
                    assert_eq!(got.0.to_bits(), want.dist.to_bits(), "range query {i}");
                    assert_eq!(got.1, want.tid, "range query {i}");
                }
            }
            other => panic!("unexpected response: {other:?}"),
        }

        // Similarity threshold: the server maps min_sim to eps = 1 - min_sim
        // under the named metric; mirror the same arithmetic here.
        let min_sim = (i % 5) as f64 / 8.0 + 0.375;
        let direct = exec.range(&q, 1.0 - min_sim, &Metric::jaccard()).0;
        match client
            .similarity(&items, min_sim, MetricName::Jaccard, None)
            .unwrap()
        {
            Response::Neighbors { pairs, .. } => {
                assert_eq!(pairs.len(), direct.len(), "similarity query {i}");
                for (got, want) in pairs.iter().zip(&direct) {
                    assert_eq!(got.0.to_bits(), want.dist.to_bits(), "similarity query {i}");
                    assert_eq!(got.1, want.tid, "similarity query {i}");
                }
            }
            other => panic!("unexpected response: {other:?}"),
        }

        // k-NN.
        let k = 1 + (i as usize % 16);
        let direct = exec.knn(&q, k, &Metric::hamming()).0;
        match client
            .knn(&items, k as u64, MetricName::Hamming, None)
            .unwrap()
        {
            Response::Neighbors { pairs, .. } => {
                assert_eq!(pairs.len(), direct.len(), "knn query {i}");
                for (got, want) in pairs.iter().zip(&direct) {
                    assert_eq!(got.0.to_bits(), want.dist.to_bits(), "knn query {i}");
                    assert_eq!(got.1, want.tid, "knn query {i}");
                }
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }

    drop(client);
    let report = server.join();
    assert_eq!(report.requests, 20 * 6);
    assert_eq!(report.errors, 0);
}

#[test]
fn overload_burst_is_refused_with_backpressure_and_recovers() {
    let exec = executor(2);
    let registry = Arc::new(Registry::new());
    // A tiny admission queue and a long batching window: concurrent
    // senders are guaranteed to hit a full queue while the window is open.
    let server = Server::start(
        exec,
        Arc::clone(&registry),
        ServeConfig {
            conn_workers: 16,
            policy: BatchPolicy {
                max_batch: 4,
                max_wait: Duration::from_millis(100),
                queue_cap: 4,
            },
            default_timeout: Duration::from_secs(10),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let handles: Vec<_> = (0..12)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut ok = 0u64;
                let mut busy = 0u64;
                for i in 0..6u64 {
                    let items = query_items(t * 100 + i);
                    match client.knn(&items, 5, MetricName::Hamming, None).unwrap() {
                        Response::Neighbors { pairs, .. } => {
                            assert_eq!(pairs.len(), 5);
                            ok += 1;
                        }
                        Response::Error {
                            code: ErrorCode::ServerBusy,
                            retry_after_ms,
                            ..
                        } => {
                            // The backpressure hint must be present and
                            // positive.
                            assert!(retry_after_ms.unwrap_or(0) >= 1);
                            busy += 1;
                        }
                        other => panic!("unexpected response: {other:?}"),
                    }
                }
                (ok, busy)
            })
        })
        .collect();
    let (mut total_ok, mut total_busy) = (0, 0);
    for h in handles {
        let (ok, busy) = h.join().unwrap();
        total_ok += ok;
        total_busy += busy;
    }
    assert!(total_ok > 0, "some queries must get through the burst");
    assert!(total_busy > 0, "the burst must overflow the queue");

    // The bounded queue is the memory guarantee: depth can never exceed
    // the cap, so the rejected requests were never buffered.
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("serve.busy_rejected"), total_busy);

    // Recovery: after the burst the server answers normally.
    let mut client = Client::connect(addr).unwrap();
    match client
        .knn(&query_items(999), 3, MetricName::Hamming, None)
        .unwrap()
    {
        Response::Neighbors { pairs, .. } => assert_eq!(pairs.len(), 3),
        other => panic!("no recovery after burst: {other:?}"),
    }
    drop(client);
    let report = server.join();
    assert_eq!(report.busy_rejected, total_busy);
    assert_eq!(report.errors, 0);
}

#[test]
fn graceful_drain_completes_in_flight_queries() {
    let exec = executor(2);
    // Long batching window so in-flight queries are still pending when
    // shutdown lands.
    let server = Server::start(
        exec,
        Arc::new(Registry::new()),
        ServeConfig {
            policy: BatchPolicy {
                max_batch: 64,
                max_wait: Duration::from_millis(300),
                queue_cap: 64,
            },
            default_timeout: Duration::from_secs(10),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let handles: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.knn(&query_items(t), 7, MetricName::Hamming, None)
            })
        })
        .collect();

    // Give every thread time to get its request admitted, then drain
    // while the batching window still holds them pending.
    std::thread::sleep(Duration::from_millis(100));
    let report = server.join();

    for h in handles {
        match h.join().unwrap().unwrap() {
            Response::Neighbors { pairs, .. } => assert_eq!(pairs.len(), 7),
            other => panic!("in-flight query lost in drain: {other:?}"),
        }
    }
    assert_eq!(report.requests, 8);
    assert_eq!(report.timeouts, 0);
    assert_eq!(report.errors, 0);
}

#[test]
fn shutdown_handle_drains_from_another_thread() {
    let exec = executor(1);
    let server = Server::start(exec, Arc::new(Registry::new()), ServeConfig::default()).unwrap();
    let handle = server.shutdown_handle();
    assert!(!handle.is_shutdown());
    let t = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        handle.shutdown();
    });
    // join() observes the flag flipped by the other thread and returns.
    let report = server.join();
    t.join().unwrap();
    assert_eq!(report.requests, 0);
}

#[test]
fn oversize_frame_gets_error_frame_and_close_server_survives() {
    let exec = executor(1);
    let server = Server::start(
        exec,
        Arc::new(Registry::new()),
        ServeConfig {
            max_frame: 1024,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut raw = TcpStream::connect(addr).unwrap();
    // Announce a frame far beyond the cap; send no payload.
    raw.write_all(&0x7FFF_FFFFu32.to_be_bytes()).unwrap();
    raw.flush().unwrap();
    let payload = read_frame(&mut raw, MAX_FRAME_DEFAULT).unwrap().unwrap();
    match sg_serve::decode_response(&payload).unwrap() {
        Response::Error { id, code, .. } => {
            assert_eq!(id, 0);
            assert_eq!(code, ErrorCode::FrameTooLarge);
        }
        other => panic!("unexpected response: {other:?}"),
    }
    // The connection is then closed (the stream cannot be resynchronized).
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());

    // The server is unharmed: a fresh connection works.
    let mut client = Client::connect(addr).unwrap();
    match client
        .knn(&query_items(1), 3, MetricName::Hamming, None)
        .unwrap()
    {
        Response::Neighbors { pairs, .. } => assert_eq!(pairs.len(), 3),
        other => panic!("unexpected response: {other:?}"),
    }
    drop(client);
    server.join();
}

#[test]
fn malformed_json_gets_bad_request_and_connection_stays_usable() {
    let exec = executor(1);
    let server = Server::start(exec, Arc::new(Registry::new()), ServeConfig::default()).unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();

    write_frame(&mut raw, b"{definitely not json").unwrap();
    let payload = read_frame(&mut raw, MAX_FRAME_DEFAULT).unwrap().unwrap();
    match sg_serve::decode_response(&payload).unwrap() {
        Response::Error { id, code, .. } => {
            assert_eq!(id, 0);
            assert_eq!(code, ErrorCode::BadRequest);
        }
        other => panic!("unexpected response: {other:?}"),
    }

    // Same connection, now a valid request: still served.
    let req = sg_serve::Request::Knn {
        id: 7,
        items: query_items(2),
        k: 4,
        metric: MetricName::Hamming,
        timeout_ms: None,
        trace_id: None,
    };
    write_frame(&mut raw, &sg_serve::encode_request(&req)).unwrap();
    let payload = read_frame(&mut raw, MAX_FRAME_DEFAULT).unwrap().unwrap();
    match sg_serve::decode_response(&payload).unwrap() {
        Response::Neighbors { id, pairs, .. } => {
            assert_eq!(id, 7);
            assert_eq!(pairs.len(), 4);
        }
        other => panic!("unexpected response: {other:?}"),
    }
    drop(raw);
    server.join();
}

#[test]
fn out_of_range_items_get_bad_request() {
    let exec = executor(1);
    let server = Server::start(exec, Arc::new(Registry::new()), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client
        .knn(&[NBITS + 5], 3, MetricName::Hamming, None)
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("unexpected response: {other:?}"),
    }
    drop(client);
    server.join();
}

#[test]
fn lapsed_deadline_yields_deadline_exceeded() {
    let exec = executor(1);
    // A long batching window guarantees the 1ms deadline lapses before
    // dispatch.
    let server = Server::start(
        exec,
        Arc::new(Registry::new()),
        ServeConfig {
            policy: BatchPolicy {
                max_batch: 64,
                max_wait: Duration::from_millis(250),
                queue_cap: 64,
            },
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client
        .knn(&query_items(3), 3, MetricName::Hamming, Some(1))
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::DeadlineExceeded),
        other => panic!("unexpected response: {other:?}"),
    }
    drop(client);
    let report = server.join();
    assert_eq!(report.timeouts, 1);
}

/// While serving, `/healthz` answers 200 with `ok` or a degraded-but-200
/// detail naming the top index-health finding; both mean "alive".
fn assert_healthy_body(health: &str) {
    let body = health.split("\r\n\r\n").nth(1).unwrap_or("");
    assert!(
        body == "ok\n" || body.starts_with("degraded ("),
        "healthz: {health}"
    );
}

/// One admin HTTP exchange, by hand.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    s.flush().unwrap();
    let mut body = String::new();
    s.read_to_string(&mut body).unwrap();
    body
}

#[test]
fn admin_endpoint_serves_metrics_and_health() {
    let exec = executor(2);
    let registry = Arc::new(Registry::new());
    let server = Server::start(exec, Arc::clone(&registry), ServeConfig::default()).unwrap();
    let admin = server.admin_addr().expect("admin listener enabled");

    let mut client = Client::connect(server.local_addr()).unwrap();
    for i in 0..5u64 {
        client
            .knn(&query_items(i), 3, MetricName::Hamming, None)
            .unwrap();
    }

    let health = http_get(admin, "/healthz");
    assert!(health.starts_with("HTTP/1.1 200"), "healthz: {health}");
    assert_healthy_body(&health);

    let metrics = http_get(admin, "/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200"), "metrics: {metrics}");
    for series in [
        "serve_accepted",
        "serve_requests",
        "serve_busy_rejected",
        "serve_batches",
        "serve_batch_size_count",
        "serve_queue_depth",
    ] {
        assert!(
            metrics.contains(series),
            "missing series {series}: {metrics}"
        );
    }

    let missing = http_get(admin, "/nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "missing: {missing}");

    // The registry itself carries the ISSUE-mandated counters.
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("serve.requests"), 5);
    assert!(snapshot.counter("serve.batches") >= 1);

    drop(client);
    server.join();
}

#[test]
fn healthz_reports_draining_during_graceful_drain() {
    let exec = executor(1);
    let server = Server::start(exec, Arc::new(Registry::new()), ServeConfig::default()).unwrap();
    let admin = server.admin_addr().expect("admin listener enabled");

    let health = http_get(admin, "/healthz");
    assert!(health.starts_with("HTTP/1.1 200"), "healthz: {health}");
    assert_healthy_body(&health);

    // Flip the drain flag without joining: the accept loop and workers
    // wind down, but the admin listener must stay up and report the
    // drain until `join()` finishes it.
    server.shutdown_handle().shutdown();
    let health = http_get(admin, "/healthz");
    assert!(health.starts_with("HTTP/1.1 503"), "healthz: {health}");
    assert!(health.ends_with("draining\n"), "healthz: {health}");

    server.join();
}

/// Spans of `trace_id` with name `name`, from a flight-recorder snapshot.
fn named<'a>(spans: &'a [sg_obs::SpanData], name: &str) -> Vec<&'a sg_obs::SpanData> {
    spans.iter().filter(|s| s.name == name).collect()
}

#[test]
fn client_trace_id_yields_connected_span_chain() {
    // Process-global recorder: other tests in this binary may record
    // concurrently, but every assertion below filters by this test's own
    // trace ids, so interleaving is harmless.
    span::set_enabled(true);

    let dir = std::env::temp_dir().join(format!("sg-trace-chain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let exec = Arc::new(
        ShardedExecutor::open_durable(
            NBITS,
            &ExecConfig {
                shards: 2,
                ..ExecConfig::default()
            },
            &DurabilityConfig::mmap(&dir),
        )
        .unwrap(),
    );
    let server = Server::start(
        Arc::clone(&exec),
        Arc::new(Registry::new()),
        ServeConfig::default(),
    )
    .unwrap();
    let admin = server.admin_addr().expect("admin listener enabled");
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Untraced preload so the traced query has real work to do.
    for tid in 0..64u64 {
        client.insert(tid, &query_items(tid), None).unwrap();
    }

    const WRITE_TRACE: u64 = 0xC1AE_0000_0000_0001;
    const QUERY_TRACE: u64 = 0xC1AE_0000_0000_0002;

    // One traced durable write; the server must echo the client's id.
    client.set_trace_id(Some(WRITE_TRACE));
    match client.insert(10_000, &query_items(1), None).unwrap() {
        Response::Ack {
            applied, trace_id, ..
        } => {
            assert!(applied);
            assert_eq!(trace_id, Some(WRITE_TRACE));
        }
        other => panic!("unexpected response: {other:?}"),
    }

    // One traced query.
    client.set_trace_id(Some(QUERY_TRACE));
    match client
        .knn(&query_items(2), 5, MetricName::Hamming, None)
        .unwrap()
    {
        Response::Neighbors {
            pairs, trace_id, ..
        } => {
            assert_eq!(pairs.len(), 5);
            assert_eq!(trace_id, Some(QUERY_TRACE));
        }
        other => panic!("unexpected response: {other:?}"),
    }

    // Query chain: serve.request → {decode, queue, dispatch, exec.shard,
    // exec.merge} → core.query under a shard task.
    let spans = span::trace_spans(QUERY_TRACE);
    let roots = named(&spans, "serve.request");
    assert_eq!(roots.len(), 1, "one root per request: {spans:?}");
    let root = roots[0];
    assert_eq!(root.parent, 0);
    for child in [
        "serve.decode",
        "serve.queue",
        "serve.dispatch",
        "exec.merge",
    ] {
        let found = named(&spans, child);
        assert_eq!(found.len(), 1, "missing {child}: {spans:?}");
        assert_eq!(
            found[0].parent, root.span_id,
            "{child} must parent to the root"
        );
    }
    let shards = named(&spans, "exec.shard");
    assert!(!shards.is_empty(), "no shard spans: {spans:?}");
    assert!(shards.iter().all(|s| s.parent == root.span_id));
    let cores = named(&spans, "core.query");
    assert!(!cores.is_empty(), "no core spans: {spans:?}");
    assert!(
        cores
            .iter()
            .all(|c| shards.iter().any(|s| s.span_id == c.parent)),
        "core.query must parent to a shard task: {spans:?}"
    );

    // Write chain: serve.request → exec.write_group → pager.wal_append
    // → pager.fsync.
    let spans = span::trace_spans(WRITE_TRACE);
    let roots = named(&spans, "serve.request");
    assert_eq!(roots.len(), 1, "one root per request: {spans:?}");
    let root = roots[0];
    let groups = named(&spans, "exec.write_group");
    assert_eq!(groups.len(), 1, "one write group: {spans:?}");
    assert_eq!(groups[0].parent, root.span_id);
    let appends = named(&spans, "pager.wal_append");
    assert!(!appends.is_empty(), "no WAL spans: {spans:?}");
    assert!(appends.iter().all(|a| a.parent == groups[0].span_id));
    let syncs = named(&spans, "pager.fsync");
    assert!(!syncs.is_empty(), "no fsync spans: {spans:?}");
    assert!(
        syncs
            .iter()
            .all(|f| appends.iter().any(|a| a.span_id == f.parent)),
        "fsync must parent to a WAL append: {spans:?}"
    );

    // The admin endpoint serves the recorder as Chrome trace_event JSON.
    let flight = http_get(admin, "/debug/flight");
    assert!(flight.starts_with("HTTP/1.1 200"), "flight: {flight}");
    assert!(flight.contains("\"traceEvents\""));
    assert!(flight.contains("serve.request"));
    assert!(flight.contains("\"ph\":\"X\""));

    span::set_enabled(false);
    drop(client);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_query_log_captures_exactly_the_requests_over_threshold() {
    const THRESHOLD: Duration = Duration::from_millis(60);
    span::set_slow_threshold_ns(THRESHOLD.as_nanos() as u64);

    // Slow by construction: a long batching window holds each query
    // admitted until the window lapses, so its end-to-end latency is
    // ≥ max_wait ≫ threshold, deterministically.
    let slow_server = Server::start(
        executor(1),
        Arc::new(Registry::new()),
        ServeConfig {
            policy: BatchPolicy {
                max_batch: 64,
                max_wait: Duration::from_millis(150),
                queue_cap: 64,
            },
            default_timeout: Duration::from_secs(10),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    // Fast by construction: dispatch is immediate and a 3k-row k-NN is
    // far below the threshold.
    let fast_server = Server::start(
        executor(1),
        Arc::new(Registry::new()),
        ServeConfig::default(),
    )
    .unwrap();

    const SLOW_TRACE: u64 = 0xC1AE_0000_0000_0011;
    const FAST_TRACE: u64 = 0xC1AE_0000_0000_0012;

    let mut slow_client = Client::connect(slow_server.local_addr()).unwrap();
    slow_client.set_trace_id(Some(SLOW_TRACE));
    let mut fast_client = Client::connect(fast_server.local_addr()).unwrap();
    fast_client.set_trace_id(Some(FAST_TRACE));

    for i in 0..2u64 {
        slow_client
            .knn(&query_items(i), 3, MetricName::Hamming, None)
            .unwrap();
        fast_client
            .knn(&query_items(i), 3, MetricName::Hamming, None)
            .unwrap();
    }

    // The log is process-global and other tests may promote their own
    // requests concurrently; filter by this test's trace ids.
    let entries = span::slow_entries();
    let slow: Vec<_> = entries
        .iter()
        .filter(|e| e.trace_id == SLOW_TRACE)
        .collect();
    assert_eq!(
        slow.len(),
        2,
        "both over-threshold queries must be captured"
    );
    for e in &slow {
        assert_eq!(e.name, "knn");
        assert!(e.dur_ns >= THRESHOLD.as_nanos() as u64);
        // An armed threshold also arms EXPLAIN collection at dispatch, so
        // a captured entry carries the per-shard trace.
        assert!(e.explain.is_some(), "slow entry must carry EXPLAIN: {e:?}");
    }
    assert!(
        entries.iter().all(|e| e.trace_id != FAST_TRACE),
        "under-threshold queries must not be captured"
    );

    let admin = slow_server.admin_addr().expect("admin listener enabled");
    let slow_json = http_get(admin, "/debug/slow");
    assert!(slow_json.starts_with("HTTP/1.1 200"), "slow: {slow_json}");
    assert!(slow_json.contains(&format!("\"trace_id\":{SLOW_TRACE}")));

    span::set_slow_threshold_ns(u64::MAX);
    drop(slow_client);
    drop(fast_client);
    slow_server.join();
    fast_server.join();
}
