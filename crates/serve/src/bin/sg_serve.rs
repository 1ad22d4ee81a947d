//! `sg-serve` — serve a generated SG-tree dataset over TCP.
//!
//! Builds a synthetic dataset (deterministic in `--seed`), shards it
//! across a [`sg_exec::ShardedExecutor`], and serves the frame protocol
//! until SIGTERM/SIGINT, then drains gracefully: stops accepting, answers
//! every in-flight request, joins all threads, and prints a drain summary
//! (the CI smoke test greps for it).
//!
//! ```text
//! sg-serve --addr 127.0.0.1:7878 --rows 20000 --nbits 512 --shards 4
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sg_exec::{DurabilityConfig, ExecConfig, FsyncPolicy, ShardedExecutor, WriteOp};
use sg_obs::Registry;
use sg_serve::{BatchPolicy, ServeConfig, Server};
use sg_sig::Signature;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Global shutdown flag flipped from the signal handler; handlers may only
/// perform async-signal-safe work, so an atomic store is all they do.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);
/// SIGUSR1 flag: the main loop notices it and dumps the flight recorder.
static DUMP: AtomicBool = AtomicBool::new(false);
/// SIGUSR2 flag: the main loop notices it and dumps the folded profile.
static DUMP_PROFILE: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod signals {
    use super::{DUMP, DUMP_PROFILE, SHUTDOWN};
    use std::sync::atomic::Ordering;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(signum: i32) {
        const SIGUSR1: i32 = 10;
        const SIGUSR2: i32 = 12;
        if signum == SIGUSR1 {
            DUMP.store(true, Ordering::SeqCst);
        } else if signum == SIGUSR2 {
            DUMP_PROFILE.store(true, Ordering::SeqCst);
        } else {
            SHUTDOWN.store(true, Ordering::SeqCst);
        }
    }

    /// Installs SIGINT/SIGTERM (drain), SIGUSR1 (flight dump), and
    /// SIGUSR2 (profile dump) handlers.
    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGUSR1: i32 = 10;
        const SIGUSR2: i32 = 12;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGUSR1, on_signal);
            signal(SIGUSR2, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod signals {
    /// No signal handling off Unix; shut down by killing the process.
    pub fn install() {}
}

struct Opts {
    addr: String,
    admin_addr: Option<String>,
    port_file: Option<String>,
    rows: usize,
    nbits: u32,
    row_items: usize,
    seed: u64,
    shards: usize,
    exec_threads: usize,
    conn_workers: usize,
    max_batch: usize,
    max_wait_us: u64,
    queue_cap: usize,
    timeout_ms: u64,
    data_dir: Option<String>,
    fsync: FsyncPolicy,
    checkpoint_ms: Option<u64>,
    trace: bool,
    slow_ms: Option<u64>,
    profile_hz: u32,
    sample_ms: Option<u64>,
    history_cap: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            addr: "127.0.0.1:0".into(),
            admin_addr: Some("127.0.0.1:0".into()),
            port_file: None,
            rows: 20_000,
            nbits: 512,
            row_items: 12,
            seed: 20030305,
            shards: 4,
            exec_threads: 0,
            conn_workers: 8,
            max_batch: 32,
            max_wait_us: 500,
            queue_cap: 256,
            timeout_ms: 1000,
            data_dir: None,
            fsync: FsyncPolicy::Always,
            checkpoint_ms: None,
            trace: false,
            slow_ms: None,
            profile_hz: 0,
            sample_ms: None,
            history_cap: 512,
        }
    }
}

const USAGE: &str = "sg-serve: serve a generated SG-tree dataset over TCP

  --addr HOST:PORT        query listener (default 127.0.0.1:0)
  --admin-addr HOST:PORT  admin HTTP listener for /metrics and /healthz
  --no-admin              disable the admin listener
  --port-file PATH        write `data_port\\nadmin_port\\n` once bound
  --rows N                dataset size (default 20000)
  --nbits N               signature bits / item universe (default 512)
  --row-items N           items per generated transaction (default 12)
  --seed N                dataset RNG seed (default 20030305)
  --shards N              SG-tree shards (default 4)
  --exec-threads N        executor pool threads, 0 = one per shard
  --conn-workers N        connection handler threads (default 8)
  --max-batch N           micro-batch size cap (default 32)
  --max-wait-us N         micro-batch window, microseconds (default 500)
  --queue-cap N           admission queue capacity (default 256)
  --timeout-ms N          default per-request deadline (default 1000)
  --data-dir PATH         run durably: shard trees live in memory-mapped
                          copy-on-write page files under PATH, with a WAL
                          each; restart maps the committed pages and
                          replays only the WAL tail, and live writes
                          survive kill -9
  --fsync always|os       WAL sync policy with --data-dir (default always)
  --checkpoint-ms N       commit the page files and truncate the WALs
                          every N ms in the background (bounds log size
                          and restart)
  --trace                 turn on the flight recorder (spans served at
                          /debug/flight; kill -USR1 dumps them to a file)
  --slow-ms N             capture requests slower than N ms, with their
                          span tree and EXPLAIN trace, at /debug/slow
  --profile-hz N          sample every thread's live span stack N times a
                          second into folded stacks, served at
                          /debug/profile (kill -USR2 dumps them to a
                          file); 0 = off (default)
  --sample-ms N           sample every metric into an in-memory ring every
                          N ms, served as JSON at /metrics/history
  --history-cap N         samples kept by the history ring (default 512)
";

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--addr" => opts.addr = val("--addr")?,
            "--admin-addr" => opts.admin_addr = Some(val("--admin-addr")?),
            "--no-admin" => opts.admin_addr = None,
            "--port-file" => opts.port_file = Some(val("--port-file")?),
            "--rows" => opts.rows = parse_num(&val("--rows")?, "--rows")?,
            "--nbits" => opts.nbits = parse_num(&val("--nbits")?, "--nbits")?,
            "--row-items" => opts.row_items = parse_num(&val("--row-items")?, "--row-items")?,
            "--seed" => opts.seed = parse_num(&val("--seed")?, "--seed")?,
            "--shards" => opts.shards = parse_num(&val("--shards")?, "--shards")?,
            "--exec-threads" => {
                opts.exec_threads = parse_num(&val("--exec-threads")?, "--exec-threads")?
            }
            "--conn-workers" => {
                opts.conn_workers = parse_num(&val("--conn-workers")?, "--conn-workers")?
            }
            "--max-batch" => opts.max_batch = parse_num(&val("--max-batch")?, "--max-batch")?,
            "--max-wait-us" => {
                opts.max_wait_us = parse_num(&val("--max-wait-us")?, "--max-wait-us")?
            }
            "--queue-cap" => opts.queue_cap = parse_num(&val("--queue-cap")?, "--queue-cap")?,
            "--timeout-ms" => opts.timeout_ms = parse_num(&val("--timeout-ms")?, "--timeout-ms")?,
            "--data-dir" => opts.data_dir = Some(val("--data-dir")?),
            "--fsync" => {
                opts.fsync = match val("--fsync")?.as_str() {
                    "always" => FsyncPolicy::Always,
                    "os" => FsyncPolicy::OsOnly,
                    other => return Err(format!("--fsync: `{other}` is not `always` or `os`")),
                }
            }
            "--checkpoint-ms" => {
                opts.checkpoint_ms = Some(parse_num(&val("--checkpoint-ms")?, "--checkpoint-ms")?)
            }
            "--trace" => opts.trace = true,
            "--slow-ms" => opts.slow_ms = Some(parse_num(&val("--slow-ms")?, "--slow-ms")?),
            "--profile-hz" => opts.profile_hz = parse_num(&val("--profile-hz")?, "--profile-hz")?,
            "--sample-ms" => opts.sample_ms = Some(parse_num(&val("--sample-ms")?, "--sample-ms")?),
            "--history-cap" => {
                opts.history_cap = parse_num(&val("--history-cap")?, "--history-cap")?
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

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: `{s}` is not a valid number"))
}

/// SIGUSR1 postmortem dump: writes the flight recorder's contents as
/// Chrome `trace_event` JSON to `<data-dir>/flight-<unix_ms>.json` (or
/// the working directory when the server runs without durability).
fn dump_flight(data_dir: Option<&str>) {
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let dir = std::path::Path::new(data_dir.unwrap_or("."));
    let path = dir.join(format!("flight-{unix_ms}.json"));
    let body = sg_obs::span::flight_trace_json().to_string_compact();
    match std::fs::write(&path, &body) {
        Ok(()) => eprintln!(
            "sg-serve: flight recorder dumped to {} ({} bytes)",
            path.display(),
            body.len()
        ),
        Err(e) => eprintln!("sg-serve: flight dump to {} failed: {e}", path.display()),
    }
}

/// SIGUSR2 postmortem dump: writes the profiler's folded stacks to
/// `<data-dir>/profile-<unix_ms>.folded` (or the working directory when
/// the server runs without durability) — `flamegraph.pl`-ready.
fn dump_profile(data_dir: Option<&str>) {
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let dir = std::path::Path::new(data_dir.unwrap_or("."));
    let path = dir.join(format!("profile-{unix_ms}.folded"));
    let body = sg_obs::prof::folded_text();
    match std::fs::write(&path, &body) {
        Ok(()) => eprintln!(
            "sg-serve: profile dumped to {} ({} bytes)",
            path.display(),
            body.len()
        ),
        Err(e) => eprintln!("sg-serve: profile dump to {} failed: {e}", path.display()),
    }
}

/// The deterministic synthetic dataset: clustered transactions, the same
/// shape the bench workloads use.
fn generate(rows: usize, nbits: u32, row_items: usize, seed: u64) -> Vec<(u64, Signature)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows as u64)
        .map(|tid| {
            // A soft cluster center plus per-row jitter, so containment and
            // similarity queries have non-trivial answers.
            let center = rng.gen_range(0..nbits.max(16) / 4) * 4;
            let items: Vec<u32> = (0..row_items)
                .map(|_| (center + rng.gen_range(0..nbits / 2)) % nbits)
                .collect();
            (tid, Signature::from_items(nbits, &items))
        })
        .collect()
}

fn main() {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sg-serve: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    signals::install();
    if opts.trace {
        sg_obs::span::set_enabled(true);
        eprintln!("sg-serve: flight recorder on");
    }
    if let Some(ms) = opts.slow_ms {
        sg_obs::span::set_slow_threshold_ns(ms.saturating_mul(1_000_000));
        eprintln!("sg-serve: slow-query capture at {ms}ms");
    }
    if opts.profile_hz > 0 {
        if sg_obs::prof::start(opts.profile_hz) {
            eprintln!(
                "sg-serve: span-stack profiler on at {} Hz",
                sg_obs::prof::hz()
            );
        } else {
            eprintln!("sg-serve: profiler already running; --profile-hz ignored");
        }
    }

    let exec_config = ExecConfig {
        shards: opts.shards.max(1),
        threads: opts.exec_threads,
        ..ExecConfig::default()
    };
    let exec = match &opts.data_dir {
        Some(dir) => {
            eprintln!("sg-serve: opening durable index at {dir}");
            let durability = DurabilityConfig {
                dir: dir.into(),
                fsync: opts.fsync,
            };
            let exec = match ShardedExecutor::open_durable(opts.nbits, &exec_config, &durability) {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("sg-serve: cannot open {dir}: {e}");
                    std::process::exit(1);
                }
            };
            if let Some(rec) = exec.recovery() {
                eprintln!(
                    "sg-serve: recovered {} records ({} from checkpoint, {} from wal, \
                     {} torn bytes discarded)",
                    rec.replayed, rec.snapshot_entries, rec.wal_records, rec.truncated_bytes
                );
            }
            // Seed a fresh durable index with the synthetic dataset; a
            // restart serves the recovered data instead of re-seeding.
            if exec.is_empty() && opts.rows > 0 {
                eprintln!(
                    "sg-serve: seeding empty durable index ({} rows, {} bits)",
                    opts.rows, opts.nbits
                );
                let data = generate(opts.rows, opts.nbits, opts.row_items, opts.seed);
                for chunk in data.chunks(1024) {
                    let ops = chunk
                        .iter()
                        .map(|(tid, sig)| WriteOp::Insert {
                            tid: *tid,
                            sig: sig.clone(),
                        })
                        .collect();
                    for ack in exec.write_batch(ops) {
                        if let Err(e) = ack {
                            eprintln!("sg-serve: seeding failed: {e}");
                            std::process::exit(1);
                        }
                    }
                }
                if let Err(e) = exec.checkpoint() {
                    eprintln!("sg-serve: checkpoint after seeding failed: {e}");
                    std::process::exit(1);
                }
            }
            Arc::new(exec)
        }
        None => {
            eprintln!(
                "sg-serve: building index ({} rows, {} bits, {} shards)",
                opts.rows, opts.nbits, opts.shards
            );
            let data = generate(opts.rows, opts.nbits, opts.row_items, opts.seed);
            Arc::new(
                ShardedExecutor::build(opts.nbits, &data, &exec_config)
                    .expect("build sharded executor"),
            )
        }
    };

    let registry = Arc::new(Registry::new());
    exec.register_obs(&registry, "exec");
    exec.register_ingest_obs(&registry, "ingest");
    exec.register_store_obs(&registry, "store");
    let _checkpointer = opts
        .checkpoint_ms
        .filter(|_| opts.data_dir.is_some())
        .map(|ms| {
            eprintln!(
                "sg-serve: background checkpointer on ({}ms interval)",
                ms.max(1)
            );
            exec.start_checkpointer(Duration::from_millis(ms.max(1)))
        });
    let config = ServeConfig {
        addr: opts.addr.clone(),
        admin_addr: opts.admin_addr.clone(),
        conn_workers: opts.conn_workers,
        policy: BatchPolicy {
            max_batch: opts.max_batch.max(1),
            max_wait: Duration::from_micros(opts.max_wait_us),
            queue_cap: opts.queue_cap.max(1),
        },
        default_timeout: Duration::from_millis(opts.timeout_ms.max(1)),
        sample_interval: opts.sample_ms.map(|ms| Duration::from_millis(ms.max(1))),
        history_capacity: opts.history_cap.max(2),
        ..ServeConfig::default()
    };
    if let Some(ms) = opts.sample_ms {
        eprintln!(
            "sg-serve: metric history on ({}ms interval, {} samples)",
            ms.max(1),
            opts.history_cap
        );
    }
    let server = match Server::start(Arc::clone(&exec), registry, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sg-serve: failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!("sg-serve: listening on {}", server.local_addr());
    if let Some(admin) = server.admin_addr() {
        println!(
            "sg-serve: admin http on {admin} (/metrics, /metrics/history, /healthz, \
             /debug/tree, /debug/flight, /debug/slow, /debug/profile, /debug/costs)"
        );
    }
    if let Some(path) = &opts.port_file {
        let admin_port = server.admin_addr().map(|a| a.port()).unwrap_or(0);
        let body = format!("{}\n{}\n", server.local_addr().port(), admin_port);
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("sg-serve: cannot write --port-file {path}: {e}");
            std::process::exit(1);
        }
    }

    while !SHUTDOWN.load(Ordering::SeqCst) {
        if DUMP.swap(false, Ordering::SeqCst) {
            dump_flight(opts.data_dir.as_deref());
        }
        if DUMP_PROFILE.swap(false, Ordering::SeqCst) {
            dump_profile(opts.data_dir.as_deref());
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("sg-serve: shutdown requested, draining");
    if opts.profile_hz > 0 {
        sg_obs::prof::stop();
    }
    let report = server.join();
    // Every acknowledged write is already on the WAL; the checkpoint just
    // makes the next open fast (snapshot + short tail).
    if opts.data_dir.is_some() {
        match exec.checkpoint() {
            Ok(()) => eprintln!("sg-serve: checkpoint written"),
            Err(e) => eprintln!("sg-serve: checkpoint on drain failed: {e}"),
        }
    }
    println!(
        "sg-serve: drain complete (served={}, busy_rejected={}, timeouts={}, errors={})",
        report.requests, report.busy_rejected, report.timeouts, report.errors
    );
}
