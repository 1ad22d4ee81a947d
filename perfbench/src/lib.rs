//! The SG-tree service benchmark: three workloads against an embedded
//! `sg_serve::Server` over a `ShardedExecutor`, end-to-end metrics from a
//! plain run and per-layer metrics from a traced run.
//!
//! A plain run (`--trace 0`) sets the service up three times (setup time
//! is their median), warms it, drives a closed loop of [`CONNS`]
//! connections for `--seconds`, then an open loop at the workload's fixed
//! rate, checks a fixed sample of answers against the linear-scan oracle,
//! and finishes with a durable phase: ingest over the wire into a
//! `StorageMode::Mmap` executor, a final checkpoint, a fixed tail of
//! writes, and a restart that must replay exactly that tail. `basket-rw`
//! serves from that durable executor all along; the read-only workloads
//! run a short durable ingest probe of their own rows, so every workload
//! reports every end-to-end metric.
//!
//! A traced run (`--trace 1`) replays one read stream at each entry point
//! (see [`layers`]) and replays the write stream in-process, timing each
//! call from the benchmark's side. The service's own flight recorder
//! stays off in both.

pub mod check;
pub mod durable;
pub mod layers;
pub mod load;
pub mod spans;
pub mod stats;
pub mod workload;

use crate::layers::Metric3;
use crate::load::{closed_loop, open_loop, Model, SampleRule, Stop, Traffic};
use crate::stats::{median, Summary};
use crate::workload::{
    Gen, Spec, Storage, CONNS, PROBE_ROWS, PROBE_WRITES_PER_CONN, QUERY_SETS, SHARDS,
};
use sg_exec::{ExecConfig, Partitioner, ShardedExecutor};
use sg_obs::json::Json;
use sg_obs::{IngestObs, Registry};
use sg_serve::proto::{Request, Response};
use sg_serve::{ServeConfig, Server};
use sg_sig::Signature;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Times the service is set up in a plain run.
pub const SETUP_REPS: usize = 3;

/// Background checkpoint interval while a writing workload is timed
/// (several checkpoints land in every timed phase).
pub const CHECKPOINT_EVERY: Duration = Duration::from_secs(2);

/// Windows of the timed closed loop. Each gives a q/s, p50 and p99 and
/// the median window is reported, so one stall of the shared machine
/// moves at most one window.
pub const ROUNDS: usize = 3;

/// Open-loop requests at scale 1 (15 beyond the p99).
pub const OPEN_REQUESTS: f64 = 1500.0;

/// Open-loop sender threads: enough that the generator keeps its
/// schedule unless the service stalls.
pub const OPEN_THREADS: usize = 8;

/// Reads replayed at every entry point in a traced run, at scale 1.
pub const TRACED_READS: f64 = 1200.0;

/// Reads the executor level replays in a traced run, at scale 1, so each
/// kind has enough samples for a p99.
pub const TRACED_EXEC_READS: f64 = 4000.0;

/// Reads of the serial cold pass, at scale 1.
pub const COLD_READS: f64 = 200.0;

/// How often the resident set is sampled during the timed loop.
pub const RSS_EVERY: Duration = Duration::from_millis(20);

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed closed loop, s.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a plain one.
    pub trace: bool,
    /// Scales dataset sizes and request counts (1 = the defined
    /// benchmark; the self-tests shrink it). Not a command-line flag.
    pub scale: f64,
    /// Corrupts one sampled answer before the check (a self-test of the
    /// check). Not a command-line flag.
    pub corrupt: bool,
}

impl Opts {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            scale: 1.0,
            corrupt: false,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut val = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match a.as_str() {
                "--workload" => o.workload = val(a)?,
                "--seed" => o.seed = val(a)?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    o.seconds = val(a)?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    o.trace = match val(a)?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if Spec::named(&o.workload).is_none() {
            return Err(format!(
                "--workload must be one of {}",
                workload::NAMES.join(", ")
            ));
        }
        if o.seconds.is_nan() || o.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(o)
    }

    fn scaled(&self, n: f64) -> usize {
        ((n * self.scale).round() as usize).max(16)
    }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// No request failed, every checked answer matched and every
    /// durability check held.
    pub correct: bool,
    /// Requests and checks attempted.
    pub attempted: u64,
    /// Of which failed: error frames, busy refusals, timeouts, transport
    /// failures, wrong answers, failed durability checks.
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<Metric3>,
    /// What the result was measured on.
    pub tags: Vec<(String, String)>,
    /// Human-readable notes: sample counts, generator lag, failures.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::F64(*value)),
                        ("unit".into(), Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::U64(self.attempted)),
            ("failed".into(), Json::U64(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    fn fail(&mut self, n: u64, note: String) {
        if n > 0 {
            self.failed += n;
            self.correct = false;
            self.notes.push(note);
        }
    }

    /// Counts a load phase's requests; any that failed (error frames,
    /// busy refusals, timeouts, transport failures, contradicted acks)
    /// make the run incorrect.
    pub fn absorb(&mut self, attempted: u64, failed: u64, errors: &[String]) {
        self.attempted += attempted;
        self.fail(
            failed,
            format!(
                "{failed} of {attempted} requests failed: {}",
                errors.join("; ")
            ),
        );
    }
}

/// Where runs keep data directories, spans and result records.
pub fn run_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".run")
}

/// A service under load: the executor, its server, and what a durable
/// one needs to shut down cleanly.
struct Served {
    exec: Arc<ShardedExecutor>,
    server: Server,
    registry: Arc<Registry>,
    /// Live rows of a durable service (preload plus acked writes). A
    /// memory service keeps no copy of its rows, so the resident set is
    /// its own; the answer check regenerates them from the seed.
    model: Option<Mutex<Model>>,
    /// Data directory of a durable executor.
    dir: Option<PathBuf>,
    ingest: Option<Arc<IngestObs>>,
}

impl Served {
    fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    /// Drains the server and hands back the executor and the model.
    fn stop(
        self,
    ) -> (
        Arc<ShardedExecutor>,
        Option<Model>,
        Option<PathBuf>,
        Option<Arc<IngestObs>>,
    ) {
        self.server.join();
        (
            self.exec,
            self.model.map(|m| m.into_inner().expect("model lock")),
            self.dir,
            self.ingest,
        )
    }
}

fn start_server(exec: &Arc<ShardedExecutor>) -> (Server, Arc<Registry>) {
    let registry = Arc::new(Registry::new());
    let server = Server::start(
        Arc::clone(exec),
        Arc::clone(&registry),
        ServeConfig {
            admin_addr: None,
            ..ServeConfig::default()
        },
    )
    .expect("start the embedded server");
    (server, registry)
}

fn rows_model(rows: Vec<Vec<u32>>) -> Model {
    rows.into_iter()
        .enumerate()
        .map(|(i, r)| (i as u64, r))
        .collect()
}

/// The rows a service holds once drained: a durable one's model, or a
/// memory one's dataset regenerated from the seed.
fn live_rows(model: Option<Model>, gen: &Gen, seed: u64, rows: usize) -> Model {
    model.unwrap_or_else(|| rows_model(gen.dataset(rows, seed)))
}

/// Generate, build or preload, and start the server.
fn setup(spec: &Spec, gen: &Gen, seed: u64, rows: usize) -> Served {
    let data = gen.dataset(rows, seed);
    let nbits = gen.nbits();
    match spec.storage {
        Storage::Memory => {
            let pairs: Vec<(u64, Signature)> = data
                .into_iter()
                .enumerate()
                .map(|(i, r)| (i as u64, Signature::from_items(nbits, &r)))
                .collect();
            let exec = Arc::new(
                ShardedExecutor::build(
                    nbits,
                    &pairs,
                    &ExecConfig {
                        shards: SHARDS,
                        partitioner: Partitioner::SignatureClustered,
                        pool_frames: spec.pool_frames,
                        ..ExecConfig::default()
                    },
                )
                .expect("build the executor"),
            );
            drop(pairs);
            let (server, registry) = start_server(&exec);
            Served {
                exec,
                server,
                registry,
                model: None,
                dir: None,
                ingest: None,
            }
        }
        Storage::Mmap => durable_served(spec, nbits, rows_model(data), spec.name),
    }
}

/// A fresh mmap executor in a new data directory, preloaded with
/// `model` and checkpointed, behind a started server.
fn durable_served(spec: &Spec, nbits: u32, model: Model, tag: &str) -> Served {
    let dir = durable::data_dir(&run_dir(), tag);
    let exec = durable::open_fresh(&dir, nbits, spec.pool_frames);
    durable::preload(&exec, &model);
    let exec = Arc::new(exec);
    let ingest = exec.register_ingest_obs(&Registry::new(), "ingest");
    let (server, registry) = start_server(&exec);
    Served {
        exec,
        server,
        registry,
        model: Some(Mutex::new(model)),
        dir: Some(dir),
        ingest: Some(ingest),
    }
}

/// The durable ingest probe of a read-only workload: the first `rows`
/// rows of its dataset on a fresh mmap executor.
fn probe(spec: &Spec, gen: &Gen, seed: u64, rows: usize) -> Served {
    let model = rows_model(gen.dataset(rows, seed));
    durable_served(spec, gen.nbits(), model, &format!("{}-probe", spec.name))
}

fn discard(s: Served) {
    let (exec, _, dir, _) = s.stop();
    drop(exec);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Compares sampled answers with the oracle over `rows`; with `corrupt`,
/// breaks the first one beforehand.
fn check_samples(
    report: &mut Report,
    corrupt: bool,
    nbits: u32,
    rows: &Model,
    sampled: &mut [(Request, Response)],
) {
    if corrupt {
        if let Some((_, resp)) = sampled.first_mut() {
            check::corrupt(resp);
        }
    }
    let oracle = check::oracle(nbits, rows.iter().map(|(t, i)| (*t, i)));
    let bad = check::mismatches(&oracle, sampled) as u64;
    report.attempted += sampled.len() as u64;
    report.fail(
        bad,
        format!(
            "{bad} of {} sampled answers differ from the oracle",
            sampled.len()
        ),
    );
    report.notes.push(format!(
        "answer check: {} sampled answers compared",
        sampled.len()
    ));
}

/// The final checkpoint, the tail, the restart and the durability check
/// of a drained durable service.
fn close(
    report: &mut Report,
    exec: Arc<ShardedExecutor>,
    model: Option<Model>,
    dir: Option<PathBuf>,
    traffic: Traffic<'_>,
) -> durable::Finish {
    let dir = dir.expect("a durable service has a data directory");
    let model = model.expect("a durable service keeps a model");
    let f = durable::finish(exec, &dir, traffic.spec.pool_frames, model, traffic);
    report.attempted += f.writes + f.checked + 1;
    report.fail(
        f.failures.len() as u64,
        format!("durability: {}", f.failures.join("; ")),
    );
    report.notes.push(format!(
        "restart over a tail of {} writes: {:.3} ms",
        durable::TAIL,
        f.restart_ms
    ));
    f
}

/// This process's resident set, MB (`VmRSS`).
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Hands freed heap pages back to the kernel, so the resident set counts
/// what is live rather than what set-up once held.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and locks each
        // arena it trims.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// FNV-1a over every file under `dir`, in path order.
fn tree_hash(dir: &Path, h: &mut u64) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = rd.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            tree_hash(&p, h);
        } else if let Ok(bytes) = std::fs::read(&p) {
            for b in p.to_string_lossy().bytes().chain(bytes) {
                *h = (*h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
}

/// The commit `HEAD` names in the git directory `git`, read from its
/// files (a checkout without one, or a detached copy, has none).
fn head_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let id = match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).ok().or_else(|| {
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })?,
        None => head,
    };
    let id = id.trim();
    (id.len() >= 12).then(|| id[..12].to_string())
}

fn tags(opts: &Opts, spec: &Spec, rows: usize) -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = head_commit(&root.join(".git")).unwrap_or_else(|| "unknown".into());
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    tree_hash(&root.join("crates"), &mut h);
    let kernel = std::env::var("SG_KERNEL")
        .ok()
        .and_then(|v| sg_sig::kernels::KernelKind::parse(&v))
        .unwrap_or_else(sg_sig::kernels::auto_kind);
    let storage = match spec.storage {
        Storage::Memory => "memory+mmap-probe",
        Storage::Mmap => "mmap",
    };
    [
        ("workload", spec.name.to_string()),
        ("commit", commit),
        ("source_fnv", format!("{h:016x}")),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("kernel", kernel.name().to_string()),
        ("storage", storage.to_string()),
        ("dataset", spec.dataset_name(rows)),
        ("rows", rows.to_string()),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", (opts.trace as u8).to_string()),
        ("scale", opts.scale.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// Runs one benchmark invocation.
pub fn run(opts: &Opts) -> Report {
    let spec = Spec::named(&opts.workload).expect("validated by Opts::parse");
    let rows = opts.scaled(spec.rows as f64);
    let mut report = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        tags: tags(opts, &spec, rows),
        notes: Vec::new(),
    };
    let _ = std::fs::create_dir_all(run_dir());
    let gen = Gen::new(spec.source);
    let queries = gen.queries(QUERY_SETS, opts.seed);
    if opts.trace {
        traced(opts, &spec, &gen, &queries, rows, &mut report);
    } else {
        plain(opts, &spec, &gen, &queries, rows, &mut report);
    }
    let record = Json::Obj(vec![
        (
            "tags".into(),
            Json::Obj(
                report
                    .tags
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ),
        ("result".into(), report.to_json()),
        (
            "notes".into(),
            Json::Arr(report.notes.iter().map(|n| Json::Str(n.clone())).collect()),
        ),
    ]);
    let path = run_dir().join(format!(
        "result-{}-seed{}-trace{}.json",
        spec.name, opts.seed, opts.trace as u8
    ));
    let _ = std::fs::write(path, record.to_string_pretty());
    report
}

fn describe(s: &Summary) -> String {
    format!("p50 {:.3} ms, p99 {:.3} ms; {}", s.p50, s.p99, s.describe())
}

fn summarize(report: &mut Report, label: &str, s: &Summary) {
    report.notes.push(format!("{label}: {}", describe(s)));
}

fn plain(
    opts: &Opts,
    spec: &Spec,
    gen: &Gen,
    queries: &[Vec<u32>],
    rows: usize,
    report: &mut Report,
) {
    // Set-up, three times; the last instance serves the run.
    let mut times = Vec::new();
    let mut served: Option<Served> = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = served.take() {
            discard(s);
        }
        let t = Instant::now();
        served = Some(setup(spec, gen, opts.seed, rows));
        times.push(t.elapsed().as_secs_f64());
    }
    let served = served.expect("at least one set-up");
    let addr = served.addr();
    let writes_main = spec.write_every > 0;
    let base = Traffic {
        spec,
        gen,
        queries,
        seed: opts.seed,
        conns: CONNS,
        write_every: 0,
        model: None,
        sample: None,
        stream: 0,
    };
    let mut phases = Vec::new();

    // Untimed warm-up, reads only.
    phases.push(closed_loop(
        &addr,
        &Traffic { stream: 1, ..base },
        Stop::After(Duration::from_secs_f64((opts.seconds * 0.15).min(1.5))),
    ));

    // The timed closed loop, in `ROUNDS` windows of equal length whose
    // median is reported; a writing workload checkpoints in the
    // background meanwhile. A sampler tracks the resident set, after
    // what set-up freed has gone back to the kernel.
    trim_heap();
    let checkpointer = writes_main.then(|| served.exec.start_checkpointer(CHECKPOINT_EVERY));
    let (mut qps, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut main = load::PhaseStats::default();
    let sampling = AtomicBool::new(true);
    let peak_rss = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = rss_mb();
            while sampling.load(Ordering::Relaxed) {
                std::thread::sleep(RSS_EVERY);
                peak = peak.max(rss_mb());
            }
            peak
        });
        for r in 0..ROUNDS as u64 {
            let window = closed_loop(
                &addr,
                &Traffic {
                    write_every: spec.write_every,
                    model: served.model.as_ref(),
                    sample: (r == 0 && !writes_main).then_some(SampleRule {
                        stride: 8,
                        per_conn: 48,
                    }),
                    stream: 2 + 16 * r,
                    ..base
                },
                Stop::After(Duration::from_secs_f64(opts.seconds / ROUNDS as f64)),
            );
            let lat = Summary::of(&window.read_ms);
            summarize(report, &format!("closed-loop reads, window {r}"), &lat);
            qps.push(lat.n as f64 / window.elapsed_s);
            p50.push(lat.p50);
            p99.push(lat.p99);
            let elapsed = main.elapsed_s + window.elapsed_s;
            main.absorb(window);
            main.elapsed_s = elapsed;
        }
        sampling.store(false, Ordering::Relaxed);
        sampler.join().expect("resident-set sampler")
    });
    if let Some(c) = checkpointer {
        c.stop();
        // Commit what the timed loop dirtied, so the kernel's writeback
        // does not land in the open loop.
        served
            .exec
            .checkpoint()
            .expect("checkpoint after the timed loop");
    }
    if writes_main {
        let w = Summary::of(&main.write_ms);
        report.notes.push(format!(
            "write acks beside reads: {:.1} writes/s; {}",
            main.write_ms.len() as f64 / main.elapsed_s,
            describe(&w)
        ));
    }

    // The open loop at the workload's fixed rate.
    let open = open_loop(
        &addr,
        spec,
        queries,
        (spec.open_rate, opts.scaled(OPEN_REQUESTS) as u64, 7),
        OPEN_THREADS,
    );
    let open_lat = Summary::of(&open.read_ms);
    summarize(report, "open-loop reads", &open_lat);
    let lag = Summary::of(&open.lag_ms);
    report.notes.push(format!(
        "open loop at {} req/s: generator behind schedule p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        spec.open_rate,
        lag.p50,
        lag.p99,
        open.lag_ms.iter().copied().fold(0.0, f64::max)
    ));
    phases.push(open);

    // Answer check. A read-only workload compares the answers it kept
    // during the timed loop, once its service is gone; a writing one
    // re-asks a sample once the writers are quiet and compares against
    // the rows it acked. Then the durable phase: write-only ingest over
    // the wire, on the served executor or on a probe of the workload's
    // own rows.
    let target = if writes_main {
        let again = closed_loop(
            &addr,
            &Traffic {
                sample: Some(SampleRule {
                    stride: 1,
                    per_conn: 48,
                }),
                stream: 3,
                ..base
            },
            Stop::Count(48),
        );
        let mut sampled = again.samples.clone();
        phases.push(again);
        let model = served
            .model
            .as_ref()
            .expect("a durable service keeps a model");
        let model = model.lock().expect("model lock");
        check_samples(report, opts.corrupt, gen.nbits(), &model, &mut sampled);
        drop(model);
        served
    } else {
        discard(served);
        let rows = live_rows(None, gen, opts.seed, rows);
        check_samples(report, opts.corrupt, gen.nbits(), &rows, &mut main.samples);
        drop(rows);
        probe(spec, gen, opts.seed, opts.scaled(PROBE_ROWS as f64))
    };
    phases.push(main);
    // Start from committed pages, as the probe does.
    target
        .exec
        .checkpoint()
        .expect("checkpoint before the ingest");
    let ingest = closed_loop(
        &target.addr(),
        &Traffic {
            write_every: 1,
            model: target.model.as_ref(),
            stream: 4,
            ..base
        },
        Stop::Count(opts.scaled(PROBE_WRITES_PER_CONN as f64) as u64),
    );
    let writes = Summary::of(&ingest.write_ms);
    summarize(report, "ingest write acks", &writes);
    let writes_per_s = ingest.write_ms.len() as f64 / ingest.elapsed_s;
    phases.push(ingest);
    for phase in &phases {
        report.absorb(phase.attempted, phase.failed, &phase.errors);
    }
    let (exec, model, dir, _) = target.stop();
    let finish = close(report, exec, model, dir, base);

    let m = &mut report.metrics;
    m.push(("setup_s".into(), median(&times), "s"));
    m.push(("query_qps".into(), median(&qps), "1/s"));
    m.push(("query_p50_ms".into(), median(&p50), "ms"));
    m.push(("query_p99_ms".into(), median(&p99), "ms"));
    m.push(("writes_per_s".into(), writes_per_s, "1/s"));
    m.push(("write_p50_ms".into(), writes.p50, "ms"));
    m.push((
        "disk_bytes_per_row".into(),
        finish.disk_bytes_per_row,
        "B/row",
    ));
    m.push(("peak_rss_mb".into(), peak_rss, "MB"));
}

fn traced(
    opts: &Opts,
    spec: &Spec,
    gen: &Gen,
    queries: &[Vec<u32>],
    rows: usize,
    report: &mut Report,
) {
    let served = setup(spec, gen, opts.seed, rows);
    let addr = served.addr();
    let base = Traffic {
        spec,
        gen,
        queries,
        seed: opts.seed,
        conns: CONNS,
        write_every: 0,
        model: None,
        sample: None,
        stream: 1,
    };
    let warm = closed_loop(
        &addr,
        &base,
        Stop::After(Duration::from_secs_f64((opts.seconds * 0.15).min(1.5))),
    );
    report.absorb(warm.attempted, warm.failed, &warm.errors);

    let n = opts.scaled(TRACED_READS);
    let reads: Vec<Request> = (0..n as u64)
        .map(|i| spec.read(queries, (5 << 32) + i, i + 1))
        .collect();
    let extra: Vec<Request> = (n as u64..opts.scaled(TRACED_EXEC_READS).max(n) as u64)
        .map(|i| spec.read(queries, (5 << 32) + i, i + 1))
        .collect();
    let replay = layers::replay(&addr, &served.registry, &served.exec, &reads, &extra);
    report.absorb(replay.attempted, replay.failed, &replay.errors);
    let spans: Vec<Json> = replay.spans.iter().flat_map(|r| r.to_json()).collect();
    let span_path = run_dir().join(format!("spans-{}-seed{}.json", spec.name, opts.seed));
    let _ = std::fs::write(&span_path, Json::Arr(spans).to_string_compact());
    report.notes.push(format!(
        "{} spans of {} requests written to {}",
        replay.spans.iter().map(|r| r.spans.len()).sum::<usize>(),
        replay.spans.len(),
        span_path.display()
    ));

    let (exec, model, dir, ingest) = served.stop();
    let probes = layers::probes(&exec, &reads, opts.scaled(COLD_READS));

    // The answer check, then the write stream, replayed in-process
    // through write_batch on the served executor or on a probe of the
    // workload's own rows, with a timed checkpoint after each of
    // `CHECKPOINTS` parts.
    let model = live_rows(model, gen, opts.seed, rows);
    let mut sampled = replay.samples.clone();
    check_samples(report, opts.corrupt, gen.nbits(), &model, &mut sampled);
    let (exec, model, dir, ingest) = if dir.is_some() {
        (exec, model, dir, ingest)
    } else {
        drop((exec, model));
        let (exec, model, dir, ingest) =
            probe(spec, gen, opts.seed, opts.scaled(PROBE_ROWS as f64)).stop();
        (
            exec,
            model.expect("a durable service keeps a model"),
            dir,
            ingest,
        )
    };
    let ingest = ingest.expect("a durable service registers ingest counters");
    let model = Mutex::new(model);
    let (b0, s0) = (ingest.wal_bytes.get(), ingest.wal_syncs.get());
    let per_conn = opts.scaled(PROBE_WRITES_PER_CONN as f64) as u64;
    let traffic = Traffic {
        write_every: 1,
        model: Some(&model),
        stream: 4,
        ..base
    };
    let mut write_us = Vec::new();
    let mut checkpoint_ms = Vec::new();
    let mut acked = 0u64;
    const CHECKPOINTS: u64 = 5;
    let mut states: Vec<_> = (0..CONNS).map(|c| traffic.conn(c)).collect();
    for _ in 0..CHECKPOINTS {
        let parts: Vec<(Vec<f64>, u64, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = states
                .iter_mut()
                .map(|st| {
                    let traffic = &traffic;
                    let exec = &exec;
                    s.spawn(move || {
                        let (mut lat, mut ok, mut bad) = (Vec::new(), 0u64, 0u64);
                        for _ in 0..per_conn.div_ceil(CHECKPOINTS) {
                            let (_, op) = traffic.next(st);
                            let (acked, us) = traffic.write_in_process(exec, st, op);
                            lat.push(us);
                            if acked {
                                ok += 1;
                            } else {
                                bad += 1;
                            }
                        }
                        (lat, ok, bad)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("write replay"))
                .collect()
        });
        for (lat, ok, bad) in parts {
            write_us.extend(lat);
            acked += ok;
            report.absorb(ok + bad, bad, &["in-process write refused".into()]);
        }
        let t = Instant::now();
        exec.checkpoint().expect("checkpoint");
        checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let (wal_bytes, wal_syncs) = (ingest.wal_bytes.get() - b0, ingest.wal_syncs.get() - s0);
    drop(ingest);
    let model = model.into_inner().expect("model lock");
    let finish = close(report, exec, Some(model), dir, base);
    checkpoint_ms.push(finish.checkpoint_ms);

    let m = &mut report.metrics;
    m.extend(replay.metrics);
    m.extend(probes);
    m.push(("exec.write_batch_us".into(), median(&write_us), "us"));
    m.push(("exec.checkpoint_ms".into(), median(&checkpoint_ms), "ms"));
    m.push(("exec.replay_ms".into(), finish.replay_ms, "ms"));
    m.push((
        "exec.replay_records".into(),
        finish.replay_records as f64,
        "count",
    ));
    m.push((
        "pager.wal_bytes_per_write".into(),
        wal_bytes as f64 / acked.max(1) as f64,
        "B",
    ));
    m.push((
        "pager.wal_syncs_per_write".into(),
        wal_syncs as f64 / acked.max(1) as f64,
        "count",
    ));
    m.push((
        "store.pages_mapped".into(),
        finish.pages_mapped as f64,
        "count",
    ));
    m.push((
        "store.pages_dirty".into(),
        finish.pages_dirty as f64,
        "count",
    ));
}
