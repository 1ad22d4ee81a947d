//! `sg-top` — live terminal dashboard for a running `sg-serve`.
//!
//! Polls the admin HTTP endpoints — `/metrics/history` for rates and
//! percentiles the server already computed over its sample ring,
//! `/debug/tree` for index health, `/healthz` for the liveness line —
//! and redraws a one-screen summary: q/s with a sparkline, latency
//! percentiles, queue depth, WAL throughput, per-shard visit rates,
//! and the top health findings. Zero dependencies: hand-rolled HTTP
//! over `TcpStream`, ANSI escapes for the redraw.
//!
//! ```text
//! sg-top --admin 127.0.0.1:9090 --interval-ms 1000 --window 60s
//! ```
//!
//! The server must run with sampling on (`sg-serve --sample-ms 250`),
//! otherwise `/metrics/history` answers 404 and sg-top exits with the
//! server's hint.

use sg_obs::json::{self, Json};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

struct Opts {
    admin: String,
    interval_ms: u64,
    window: String,
    /// Frames to render before exiting; 0 = run until killed.
    frames: u64,
    /// Append frames instead of redrawing in place (no ANSI escapes).
    plain: bool,
    /// Render one frame to stdout and exit (implies --plain).
    once: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            admin: "127.0.0.1:9090".into(),
            interval_ms: 1000,
            window: "60s".into(),
            frames: 0,
            plain: false,
            once: false,
        }
    }
}

const USAGE: &str = "sg-top: live dashboard for a running sg-serve

  --admin HOST:PORT   admin HTTP address of the server
                      (default 127.0.0.1:9090; sg-serve prints its own)
  --interval-ms N     refresh interval (default 1000)
  --window W          rate/percentile window passed to /metrics/history,
                      e.g. 60s or 1500ms (default 60s)
  --frames N          render N frames then exit; 0 = until killed
  --plain             no ANSI redraw: append one frame per interval
  --once              render a single frame and exit (implies --plain);
                      for scripts and smoke tests
";

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--admin" => opts.admin = val("--admin")?,
            "--interval-ms" => {
                opts.interval_ms = val("--interval-ms")?
                    .parse()
                    .map_err(|_| "--interval-ms: not a number".to_string())?
            }
            "--window" => opts.window = val("--window")?,
            "--frames" => {
                opts.frames = val("--frames")?
                    .parse()
                    .map_err(|_| "--frames: not a number".to_string())?
            }
            "--plain" => opts.plain = true,
            "--once" => {
                opts.once = true;
                opts.plain = true;
                opts.frames = 1;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

/// One admin round trip; returns the status code and body.
fn http_get(admin: &str, path: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(admin).map_err(|e| format!("connect {admin}: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: sg-top\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

// ----------------------------------------------------------- extraction

fn metric<'a>(history: &'a Json, name: &str) -> Option<&'a Json> {
    history.get("metrics")?.get(name)
}

fn rate(history: &Json, name: &str) -> f64 {
    metric(history, name)
        .and_then(|m| m.get("rate_per_s"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn gauge_last(history: &Json, name: &str) -> i64 {
    metric(history, name)
        .and_then(|m| m.get("last"))
        .and_then(Json::as_i64)
        .unwrap_or(0)
}

fn hist_ns(history: &Json, name: &str, key: &str) -> u64 {
    metric(history, name)
        .and_then(|m| m.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Per-interval deltas of a cumulative counter series (nulls skipped).
fn counter_deltas(history: &Json, name: &str) -> Vec<u64> {
    let values: Vec<u64> = metric(history, name)
        .and_then(|m| m.get("values"))
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_u64).collect())
        .unwrap_or_default();
    values
        .windows(2)
        .map(|w| w[1].saturating_sub(w[0]))
        .collect()
}

// ------------------------------------------------------------ rendering

fn sparkline(deltas: &[u64], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let tail = &deltas[deltas.len().saturating_sub(width)..];
    let max = tail.iter().copied().max().unwrap_or(0).max(1);
    tail.iter()
        .map(|&d| BARS[(d as usize * (BARS.len() - 1)) / max as usize])
        .collect()
}

fn fmt_count(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

fn fmt_bytes(v: f64) -> String {
    if v >= 1048576.0 {
        format!("{:.1} MiB", v / 1048576.0)
    } else if v >= 1024.0 {
        format!("{:.1} KiB", v / 1024.0)
    } else {
        format!("{v:.0} B")
    }
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.2}ms", ns as f64 / 1e6)
}

fn bar(v: f64, max: f64, width: usize) -> String {
    let n = if max > 0.0 {
        ((v / max) * width as f64).round() as usize
    } else {
        0
    };
    "█".repeat(n.min(width))
}

/// The top-N self-time span names from a `/debug/profile?format=json`
/// document, rendered `name 42%` against the total sampled CPU.
fn hot_spans(profile: &Json, n: usize) -> Vec<String> {
    let selfs = match profile.get("self").and_then(Json::as_arr) {
        Some(a) => a,
        None => return Vec::new(),
    };
    let total: u64 = selfs
        .iter()
        .filter_map(|s| s.get("cpu_ns").and_then(Json::as_u64))
        .sum();
    let mut rows: Vec<(String, u64)> = selfs
        .iter()
        .filter_map(|s| {
            let name = s.get("name").and_then(Json::as_str)?.to_string();
            let cpu = s.get("cpu_ns").and_then(Json::as_u64)?;
            Some((name, cpu))
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    rows.truncate(n);
    rows.into_iter()
        .map(|(name, cpu)| {
            if total > 0 {
                format!("{name} {:.0}%", cpu as f64 * 100.0 / total as f64)
            } else {
                name
            }
        })
        .collect()
}

fn render(
    opts: &Opts,
    frame: u64,
    history: &Json,
    tree: Option<&Json>,
    profile: Option<&Json>,
    healthz: &str,
) -> String {
    let mut out = String::new();
    let push = |out: &mut String, line: String| {
        out.push_str(&line);
        if !opts.plain {
            // Clear to end of line so shorter redraws leave no residue.
            out.push_str("\x1b[K");
        }
        out.push('\n');
    };

    let span_ms = history.get("span_ms").and_then(Json::as_u64).unwrap_or(0);
    let samples = history.get("samples").and_then(Json::as_u64).unwrap_or(0);
    push(
        &mut out,
        format!(
            "sg-top — {}   frame {}   window {:.1}s ({} samples)   healthz: {}",
            opts.admin,
            frame,
            span_ms as f64 / 1e3,
            samples,
            healthz.trim()
        ),
    );
    push(
        &mut out,
        format!(
            "queries   {:>8} q/s  {}   busy {}/s  timeouts {}/s  errors {}/s",
            fmt_count(rate(history, "serve.requests")),
            sparkline(&counter_deltas(history, "serve.requests"), 24),
            fmt_count(rate(history, "serve.busy_rejected")),
            fmt_count(rate(history, "serve.timeouts")),
            fmt_count(rate(history, "serve.errors")),
        ),
    );
    push(
        &mut out,
        format!(
            "latency   p50 {}  p99 {}  mean {}",
            fmt_ms(hist_ns(history, "serve.request_ns", "p50")),
            fmt_ms(hist_ns(history, "serve.request_ns", "p99")),
            fmt_ns_mean(history),
        ),
    );
    push(
        &mut out,
        format!(
            "serve     queue {}   conns {}   batches {}/s   draining {}",
            gauge_last(history, "serve.queue.depth"),
            gauge_last(history, "serve.connections"),
            fmt_count(rate(history, "serve.batches")),
            gauge_last(history, "serve.draining"),
        ),
    );
    push(
        &mut out,
        format!(
            "wal       {}/s   writes {}/s   syncs {}/s",
            fmt_bytes(rate(history, "ingest.wal_bytes")),
            fmt_count(rate(history, "ingest.writes")),
            fmt_count(rate(history, "ingest.wal_syncs")),
        ),
    );
    // Page-store row: present only when the server runs with --data-dir
    // (the metrics exist only once a CowStore registered them).
    if metric(history, "store.pages_mapped").is_some() {
        push(
            &mut out,
            format!(
                "storage   mapped {}   dirty {}   pins {}   lag {} lsns   \
                 flips {}/s   freed {}/s",
                gauge_last(history, "store.pages_mapped"),
                gauge_last(history, "store.pages_dirty"),
                gauge_last(history, "store.snapshot_pins"),
                gauge_last(history, "store.checkpoint_lag"),
                fmt_count(rate(history, "store.meta_flips")),
                fmt_count(rate(history, "store.pages_freed")),
            ),
        );
    }

    // Per-shard visit rates, scaled against the hottest shard.
    let mut shard_rates = Vec::new();
    for i in 0.. {
        match metric(history, &format!("exec.shard{i}.visits")) {
            Some(_) => shard_rates.push(rate(history, &format!("exec.shard{i}.visits"))),
            None => break,
        }
    }
    if !shard_rates.is_empty() {
        push(&mut out, "shards    (node visits/s)".to_string());
        let max = shard_rates.iter().cloned().fold(0.0_f64, f64::max);
        for (i, r) in shard_rates.iter().enumerate() {
            push(
                &mut out,
                format!("  shard{i:<3} {:<24} {}", bar(*r, max, 24), fmt_count(*r)),
            );
        }
    }

    // Hot spans: where sampled CPU self-time concentrates, from the
    // span-stack profiler (present only with sg-serve --profile-hz N).
    if let Some(p) = profile {
        let running = matches!(p.get("running"), Some(Json::Bool(true)));
        let hot = hot_spans(p, 3);
        if running && !hot.is_empty() {
            push(&mut out, format!("hot spans {}", hot.join("   ")));
        }
    }

    match tree {
        Some(t) => {
            let status = t.get("status").and_then(Json::as_str).unwrap_or("?");
            let summary = t.get("summary");
            let len = summary
                .and_then(|s| s.get("len"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            let nodes = summary
                .and_then(|s| s.get("nodes"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            push(
                &mut out,
                format!("health    status={status}   len={len}   nodes={nodes}"),
            );
            let findings = summary
                .and_then(|s| s.get("findings"))
                .and_then(Json::as_arr)
                .unwrap_or(&[]);
            for f in findings.iter().take(3) {
                let sev = f.get("severity").and_then(Json::as_str).unwrap_or("?");
                let msg = f.get("message").and_then(Json::as_str).unwrap_or("");
                let msg: String = msg.chars().take(70).collect();
                push(&mut out, format!("  [{sev}] {msg}"));
            }
            if findings.len() > 3 {
                push(
                    &mut out,
                    format!("  … {} more findings", findings.len() - 3),
                );
            }
        }
        None => push(&mut out, "health    (/debug/tree unavailable)".to_string()),
    }
    out
}

fn fmt_ns_mean(history: &Json) -> String {
    let mean = metric(history, "serve.request_ns")
        .and_then(|m| m.get("mean"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    format!("{:.2}ms", mean / 1e6)
}

fn main() {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sg-top: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut frame = 0u64;
    loop {
        frame += 1;
        let (status, body) = match http_get(
            &opts.admin,
            &format!("/metrics/history?window={}", opts.window),
        ) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("sg-top: {e}");
                std::process::exit(1);
            }
        };
        if status == 404 {
            // The server's own hint says how to turn sampling on.
            eprintln!("sg-top: {}", body.trim());
            std::process::exit(1);
        }
        let history = match json::parse(&body) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("sg-top: /metrics/history is not JSON: {e}");
                std::process::exit(1);
            }
        };
        let tree = http_get(&opts.admin, "/debug/tree")
            .ok()
            .filter(|(s, _)| *s == 200)
            .and_then(|(_, b)| json::parse(&b).ok());
        let healthz = http_get(&opts.admin, "/healthz")
            .map(|(_, b)| b)
            .unwrap_or_else(|_| "unreachable".into());
        let profile = http_get(&opts.admin, "/debug/profile?format=json")
            .ok()
            .filter(|(s, _)| *s == 200)
            .and_then(|(_, b)| json::parse(&b).ok());

        let screen = render(
            &opts,
            frame,
            &history,
            tree.as_ref(),
            profile.as_ref(),
            &healthz,
        );
        if opts.plain {
            println!("{screen}");
        } else {
            // Home the cursor and clear below; cheaper than a full clear
            // and flicker-free on every terminal that matters.
            print!("\x1b[H{screen}\x1b[J");
        }
        let _ = std::io::stdout().flush();

        if opts.frames > 0 && frame >= opts.frames {
            return;
        }
        std::thread::sleep(Duration::from_millis(opts.interval_ms.max(50)));
    }
}
