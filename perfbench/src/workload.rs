//! The three workloads: datasets, query streams and the wire requests
//! they become. Inputs come only from the paper's generators and the
//! seed passed on the command line.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sg_exec::{QueryOutput, QueryRequest};
use sg_quest::basket::{BasketParams, PatternPool};
use sg_quest::census::{CensusGenerator, CensusParams, Schema};
use sg_serve::proto::{ContainmentMode, MetricName, Request, Response};
use sg_sig::{Metric, Signature};

/// Per-request deadline sent on the wire. Generous, so a timeout means a
/// stall a user would notice rather than scheduling noise.
pub const TIMEOUT_MS: u64 = 10_000;

/// Distinct query sets per stream (prime, so kinds rotate across sets).
pub const QUERY_SETS: usize = 4099;

/// One read kind of a traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// k-NN, k = 10, Hamming.
    Knn,
    /// Supersets of the query set.
    Containing,
    /// Hamming range, ε = 2.
    Range,
    /// Jaccard similarity ≥ 0.5.
    Jaccard,
}

/// Every kind, in the order per-kind metrics are reported.
pub const ALL_KINDS: [Kind; 4] = [Kind::Knn, Kind::Containing, Kind::Range, Kind::Jaccard];

impl Kind {
    /// Metric-name spelling.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Knn => "knn",
            Kind::Containing => "containing",
            Kind::Range => "range",
            Kind::Jaccard => "jaccard",
        }
    }

    /// The wire request for query set `items`.
    pub fn wire(self, id: u64, items: Vec<u32>) -> Request {
        let timeout_ms = Some(TIMEOUT_MS);
        match self {
            Kind::Knn => Request::Knn {
                id,
                items,
                k: 10,
                metric: MetricName::Hamming,
                timeout_ms,
                trace_id: None,
            },
            Kind::Containing => Request::Containment {
                id,
                mode: ContainmentMode::Containing,
                items,
                timeout_ms,
                trace_id: None,
            },
            Kind::Range => Request::Range {
                id,
                items,
                radius: 2.0,
                timeout_ms,
                trace_id: None,
            },
            Kind::Jaccard => Request::Similarity {
                id,
                items,
                min_sim: 0.5,
                metric: MetricName::Jaccard,
                timeout_ms,
                trace_id: None,
            },
        }
    }

    /// The kind of a read request this benchmark built.
    pub fn of(req: &Request) -> Option<Kind> {
        match req {
            Request::Knn { .. } => Some(Kind::Knn),
            Request::Containment { .. } => Some(Kind::Containing),
            Request::Range { .. } => Some(Kind::Range),
            Request::Similarity { .. } => Some(Kind::Jaccard),
            _ => None,
        }
    }
}

/// The executor query a read request maps to — the same mapping the
/// server applies on receipt.
pub fn to_query(nbits: u32, req: &Request) -> QueryRequest {
    match req {
        Request::Knn {
            items, k, metric, ..
        } => QueryRequest::Knn {
            q: Signature::from_items(nbits, items),
            k: *k as usize,
            metric: metric.to_metric(),
        },
        Request::Containment { items, .. } => QueryRequest::Containing {
            q: Signature::from_items(nbits, items),
        },
        Request::Range { items, radius, .. } => QueryRequest::Range {
            q: Signature::from_items(nbits, items),
            eps: *radius,
            metric: Metric::hamming(),
        },
        Request::Similarity {
            items,
            min_sim,
            metric,
            ..
        } => QueryRequest::Range {
            q: Signature::from_items(nbits, items),
            eps: 1.0 - min_sim,
            metric: metric.to_metric(),
        },
        other => panic!("not a read request: {other:?}"),
    }
}

/// The wire response the server sends for `output` (what the answer
/// check compares against, byte for byte once encoded).
pub fn to_response(id: u64, output: QueryOutput) -> Response {
    match output {
        QueryOutput::Neighbors(n) => Response::Neighbors {
            id,
            pairs: n.into_iter().map(|n| (n.dist, n.tid)).collect(),
            trace_id: None,
        },
        QueryOutput::Tids(tids) => Response::Tids {
            id,
            tids,
            trace_id: None,
        },
    }
}

/// Which of the paper's generators a workload draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Agrawal–Srikant market baskets, T8.I4 over 1000 items.
    Basket,
    /// CENSUS-shaped categorical tuples: 36 attributes, 525 values.
    Census,
}

/// Seed of the generators' distributions: the pattern pool and the
/// census profiles are part of a workload's definition, so runs on
/// different seeds sample one distribution.
pub const DISTRIBUTION_SEED: u64 = 2003;

/// A workload's row and query generator.
pub enum Gen {
    /// Market-basket pattern pool.
    Basket(PatternPool),
    /// Categorical tuple generator.
    Census(CensusGenerator),
}

impl Gen {
    /// The generator for `source`, drawn from [`DISTRIBUTION_SEED`].
    pub fn new(source: Source) -> Gen {
        match source {
            Source::Basket => Gen::Basket(PatternPool::new(
                BasketParams::standard(8, 4),
                DISTRIBUTION_SEED,
            )),
            Source::Census => Gen::Census(CensusGenerator::new(
                Schema::census(),
                CensusParams::default(),
                DISTRIBUTION_SEED,
            )),
        }
    }

    /// Signature width (item universe).
    pub fn nbits(&self) -> u32 {
        match self {
            Gen::Basket(p) => p.params().n_items,
            Gen::Census(g) => g.schema().n_values(),
        }
    }

    /// The indexed rows of run `seed`.
    pub fn dataset(&self, n: usize, seed: u64) -> Vec<Vec<u32>> {
        match self {
            Gen::Basket(p) => p.dataset(n, seed).transactions,
            Gen::Census(g) => g.dataset(n, seed).transactions,
        }
    }

    /// Query sets of run `seed`, from a stream disjoint from the
    /// dataset's.
    pub fn queries(&self, n: usize, seed: u64) -> Vec<Vec<u32>> {
        match self {
            Gen::Basket(p) => p.queries(n, seed),
            Gen::Census(g) => g.queries(n, seed),
        }
    }

    /// One fresh row for a write.
    pub fn row(&self, rng: &mut StdRng) -> Vec<u32> {
        match self {
            Gen::Basket(p) => p.transaction(rng),
            Gen::Census(g) => g.tuple(rng),
        }
    }
}

/// A deterministic generator for stream `stream` of run `seed`.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Where the workload's served shards keep their pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// `ShardedExecutor::build`: memory page stores.
    Memory,
    /// `open_durable` over `StorageMode::Mmap` with `FsyncPolicy::Always`.
    Mmap,
}

/// Everything that defines a workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Row generator.
    pub source: Source,
    /// Indexed rows at scale 1 (preloaded rows for a durable workload).
    pub rows: usize,
    /// Buffer-pool frames per shard.
    pub pool_frames: usize,
    /// Storage of the served shards.
    pub storage: Storage,
    /// Read kinds, sent round-robin.
    pub kinds: &'static [Kind],
    /// Every `write_every`-th request of the timed phase is a write
    /// (0: reads only).
    pub write_every: u64,
    /// Fixed arrival rate of the open-loop phase, requests per second.
    pub open_rate: f64,
}

/// Shards of every executor.
pub const SHARDS: usize = 4;

/// Closed-loop connections of every workload.
pub const CONNS: usize = 2;

/// Rows preloaded into the durable ingest probe of a read-only workload.
pub const PROBE_ROWS: usize = 5_000;

/// Writes per connection of the ingest phase (2 × 2000 acks).
pub const PROBE_WRITES_PER_CONN: u64 = 2000;

/// Names of every workload, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["basket-mix", "census-knn", "basket-rw"];

impl Spec {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Spec> {
        Some(match name {
            "basket-mix" => Spec {
                name: "basket-mix",
                source: Source::Basket,
                rows: 50_000,
                pool_frames: 4096,
                storage: Storage::Memory,
                kinds: &[Kind::Knn, Kind::Containing, Kind::Range, Kind::Jaccard],
                write_every: 0,
                open_rate: 320.0,
            },
            "census-knn" => Spec {
                name: "census-knn",
                source: Source::Census,
                rows: 100_000,
                pool_frames: 128,
                storage: Storage::Memory,
                kinds: &[Kind::Knn, Kind::Range],
                write_every: 0,
                open_rate: 200.0,
            },
            "basket-rw" => Spec {
                name: "basket-rw",
                source: Source::Basket,
                rows: 50_000,
                pool_frames: 4096,
                storage: Storage::Mmap,
                kinds: &[Kind::Knn, Kind::Containing, Kind::Range, Kind::Jaccard],
                write_every: 5,
                open_rate: 250.0,
            },
            _ => return None,
        })
    }

    /// `T8.I4.D100K`-style dataset name at `rows` rows.
    pub fn dataset_name(&self, rows: usize) -> String {
        let d = if rows.is_multiple_of(1000) {
            format!("{}K", rows / 1000)
        } else {
            rows.to_string()
        };
        match self.source {
            Source::Basket => format!("T8.I4.D{d}"),
            Source::Census => format!("CENSUS36.D{d}"),
        }
    }

    /// The `i`-th read request of the stream over `queries`.
    pub fn read(&self, queries: &[Vec<u32>], i: u64, id: u64) -> Request {
        let kind = self.kinds[(i % self.kinds.len() as u64) as usize];
        kind.wire(id, queries[(i % queries.len() as u64) as usize].clone())
    }
}
