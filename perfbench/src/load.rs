//! Load generation over TCP: closed loops of blocking connections and an
//! open loop at a fixed arrival rate. Writes are mirrored into a
//! tid → items model on every ack, so the durability check knows exactly
//! what must have survived.

use crate::workload::{rng, Gen, Spec, TIMEOUT_MS};
use rand::rngs::StdRng;
use rand::Rng;
use sg_exec::{ShardedExecutor, WriteOp};
use sg_serve::proto::{ErrorCode, Request, Response};
use sg_serve::Client;
use sg_sig::Signature;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Live rows: tid → sorted items.
pub type Model = HashMap<u64, Vec<u32>>;

/// First tid handed to rows inserted by writes (preloaded rows use
/// `0..rows`).
pub const FRESH_TID: u64 = 1 << 40;

/// Which read responses a phase keeps for the answer check.
#[derive(Debug, Clone, Copy)]
pub struct SampleRule {
    /// Keep every `stride`-th read of a connection …
    pub stride: u64,
    /// … up to this many per connection.
    pub per_conn: usize,
}

/// A traffic mix bound to one run's inputs.
#[derive(Clone, Copy)]
pub struct Traffic<'a> {
    /// The workload.
    pub spec: &'a Spec,
    /// Row generator for writes.
    pub gen: &'a Gen,
    /// Query sets for reads.
    pub queries: &'a [Vec<u32>],
    /// Run seed.
    pub seed: u64,
    /// Connections.
    pub conns: usize,
    /// Every `write_every`-th request is a write (0: none, 1: all).
    pub write_every: u64,
    /// Mirror of the live rows; required when the mix writes.
    pub model: Option<&'a Mutex<Model>>,
    /// Read responses to keep.
    pub sample: Option<SampleRule>,
    /// Distinguishes the request streams of different phases.
    pub stream: u64,
}

/// One planned request and what it does to the model.
#[derive(Debug, Clone)]
pub enum Op {
    /// A query.
    Read,
    /// Add a fresh row.
    Insert(u64, Vec<u32>),
    /// Replace a live row.
    Upsert(u64, Vec<u32>),
    /// Remove a live row.
    Delete(u64),
}

/// Per-connection state of a traffic mix.
pub struct ConnState {
    c: usize,
    rng: StdRng,
    /// Live tids only this connection writes, so acks apply to the model
    /// in the order the server applied them.
    owned: Vec<u64>,
    reads: u64,
    writes: u64,
    next_id: u64,
}

impl<'a> Traffic<'a> {
    /// State for connection `c`.
    pub fn conn(&self, c: usize) -> ConnState {
        let mut owned: Vec<u64> = match self.model {
            Some(m) if self.write_every > 0 => m
                .lock()
                .expect("model lock")
                .keys()
                .copied()
                .filter(|t| (t % self.conns as u64) as usize == c)
                .collect(),
            _ => Vec::new(),
        };
        owned.sort_unstable();
        ConnState {
            c,
            rng: rng(self.seed, self.stream * 64 + c as u64),
            owned,
            reads: 0,
            writes: 0,
            next_id: 1,
        }
    }

    /// The next request of connection `st`.
    pub fn next(&self, st: &mut ConnState) -> (Request, Op) {
        let id = st.next_id;
        st.next_id += 1;
        let seq = st.reads + st.writes;
        let write = self.write_every > 0 && seq % self.write_every == self.write_every - 1;
        if !write {
            let i = (self.stream << 32) + st.reads * self.conns as u64 + st.c as u64;
            st.reads += 1;
            return (self.spec.read(self.queries, i, id), Op::Read);
        }
        let w = st.writes;
        st.writes += 1;
        let roll = st.rng.gen_range(0..100u32);
        let timeout_ms = Some(TIMEOUT_MS);
        if roll < 70 || st.owned.is_empty() {
            let tid = FRESH_TID + (self.stream << 32) + w * self.conns as u64 + st.c as u64;
            let items = self.gen.row(&mut st.rng);
            let req = Request::Insert {
                id,
                tid,
                items: items.clone(),
                timeout_ms,
                trace_id: None,
            };
            (req, Op::Insert(tid, items))
        } else if roll < 85 {
            let tid = st.owned[st.rng.gen_range(0..st.owned.len())];
            let items = self.gen.row(&mut st.rng);
            let req = Request::Upsert {
                id,
                tid,
                items: items.clone(),
                timeout_ms,
                trace_id: None,
            };
            (req, Op::Upsert(tid, items))
        } else {
            let tid = st.owned.swap_remove(st.rng.gen_range(0..st.owned.len()));
            let req = Request::Delete {
                id,
                tid,
                timeout_ms,
                trace_id: None,
            };
            (req, Op::Delete(tid))
        }
    }

    /// Applies an answered request to the model; `false` when the answer
    /// is an error or contradicts the model.
    pub fn settle(&self, st: &mut ConnState, op: Op, resp: &Response) -> bool {
        match (op, resp) {
            (Op::Read, Response::Neighbors { .. } | Response::Tids { .. }) => true,
            (Op::Read, _) => false,
            (op, Response::Ack { applied: true, .. }) => {
                let model = self.model.expect("a writing mix has a model");
                let mut m = model.lock().expect("model lock");
                match op {
                    Op::Insert(tid, items) => {
                        st.owned.push(tid);
                        m.insert(tid, items).is_none()
                    }
                    Op::Upsert(tid, items) => m.insert(tid, items).is_some(),
                    Op::Delete(tid) => m.remove(&tid).is_some(),
                    Op::Read => unreachable!("reads are matched above"),
                }
            }
            (op, _) => {
                // Refused or failed: a row this connection meant to keep
                // writing stays owned.
                if let Op::Delete(tid) = op {
                    st.owned.push(tid);
                }
                false
            }
        }
    }

    /// Applies write `op` through `exec.write_batch` in-process, as the
    /// server would on receipt, and settles it like the wire ack. Returns
    /// whether it was acked as planned and the call's time, µs.
    pub fn write_in_process(
        &self,
        exec: &ShardedExecutor,
        st: &mut ConnState,
        op: Op,
    ) -> (bool, f64) {
        let sig = |items: &[u32]| Signature::from_items(exec.nbits(), items);
        let wop = match &op {
            Op::Insert(tid, items) => WriteOp::Insert {
                tid: *tid,
                sig: sig(items),
            },
            Op::Upsert(tid, items) => WriteOp::Upsert {
                tid: *tid,
                sig: sig(items),
            },
            Op::Delete(tid) => WriteOp::Delete { tid: *tid },
            Op::Read => panic!("write_in_process takes writes only"),
        };
        let t = Instant::now();
        let res = exec.write_batch(vec![wop]).pop().expect("one result");
        let us = t.elapsed().as_secs_f64() * 1e6;
        let resp = match res {
            Ok(ack) => Response::Ack {
                id: 0,
                applied: ack.applied,
                lsn: ack.lsn,
                trace_id: None,
            },
            Err(e) => Response::Error {
                id: 0,
                code: ErrorCode::Internal,
                message: e.to_string(),
                retry_after_ms: None,
                trace_id: None,
            },
        };
        (self.settle(st, op, &resp), us)
    }
}

/// What one load phase observed.
#[derive(Debug, Default)]
pub struct PhaseStats {
    /// Read latencies, ms.
    pub read_ms: Vec<f64>,
    /// Write ack latencies, ms.
    pub write_ms: Vec<f64>,
    /// How late each open-loop request started against its due time, ms.
    pub lag_ms: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Error frames, transport failures and contradicted acks.
    pub failed: u64,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
    /// Wall time of the phase, s.
    pub elapsed_s: f64,
    /// Kept `(request, response)` pairs of reads.
    pub samples: Vec<(Request, Response)>,
}

impl PhaseStats {
    /// Adds `other`'s observations to these.
    pub fn absorb(&mut self, other: PhaseStats) {
        self.read_ms.extend(other.read_ms);
        self.write_ms.extend(other.write_ms);
        self.lag_ms.extend(other.lag_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        self.samples.extend(other.samples);
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

/// When a closed loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this long.
    After(Duration),
    /// After this many requests per connection.
    Count(u64),
}

/// Runs `traffic` as a closed loop: every connection sends its next
/// request only once the previous one is answered.
pub fn closed_loop(addr: &str, traffic: &Traffic<'_>, stop: Stop) -> PhaseStats {
    let t0 = Instant::now();
    let mut total = std::thread::scope(|s| {
        let handles: Vec<_> = (0..traffic.conns)
            .map(|c| s.spawn(move || drive_conn(addr, traffic, c, t0, stop)))
            .collect();
        let mut total = PhaseStats::default();
        for h in handles {
            total.absorb(h.join().expect("load thread"));
        }
        total
    });
    total.elapsed_s = t0.elapsed().as_secs_f64();
    total
}

fn drive_conn(addr: &str, traffic: &Traffic<'_>, c: usize, t0: Instant, stop: Stop) -> PhaseStats {
    let mut out = PhaseStats::default();
    let mut client = match Client::connect(addr) {
        Ok(cl) => cl,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("connect: {e}"));
            return out;
        }
    };
    let mut st = traffic.conn(c);
    let mut sent = 0u64;
    loop {
        let done = match stop {
            Stop::After(d) => t0.elapsed() >= d,
            Stop::Count(n) => sent >= n,
        };
        if done {
            break;
        }
        sent += 1;
        let (req, op) = traffic.next(&mut st);
        let is_read = matches!(op, Op::Read);
        let read_no = st.reads;
        out.attempted += 1;
        let start = Instant::now();
        match client.call(&req) {
            Ok(resp) => {
                let ms = start.elapsed().as_secs_f64() * 1e3;
                if !traffic.settle(&mut st, op, &resp) {
                    out.fail(format!("{} answered {resp:?}", req.type_str()));
                    continue;
                }
                if is_read {
                    out.read_ms.push(ms);
                    if let Some(rule) = traffic.sample {
                        let k = read_no - 1;
                        if k.is_multiple_of(rule.stride) && (k / rule.stride) < rule.per_conn as u64
                        {
                            out.samples.push((req, resp));
                        }
                    }
                } else {
                    out.write_ms.push(ms);
                }
            }
            Err(e) => {
                out.fail(format!("{}: {e}", req.type_str()));
                match Client::connect(addr) {
                    Ok(cl) => client = cl,
                    Err(_) => break,
                }
            }
        }
    }
    out
}

/// Sends `n` reads of `spec`'s mix (request stream `stream`) at `rate`
/// per second from `threads` connections. Latency is timed from each
/// request's due time, so a stall also charges the requests queued
/// behind it.
pub fn open_loop(
    addr: &str,
    spec: &Spec,
    queries: &[Vec<u32>],
    (rate, n, stream): (f64, u64, u64),
    threads: usize,
) -> PhaseStats {
    let next = AtomicU64::new(0);
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut total = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut out = PhaseStats::default();
                    let mut client = match Client::connect(addr) {
                        Ok(cl) => cl,
                        Err(e) => {
                            out.attempted += 1;
                            out.fail(format!("connect: {e}"));
                            return out;
                        }
                    };
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        if j >= n {
                            break;
                        }
                        let due = t0 + Duration::from_secs_f64(j as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        out.lag_ms.push(
                            Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3,
                        );
                        let req = spec.read(queries, (stream << 32) + j, j + 1);
                        out.attempted += 1;
                        match client.call(&req) {
                            Ok(Response::Neighbors { .. } | Response::Tids { .. }) => {
                                out.read_ms.push(
                                    Instant::now().saturating_duration_since(due).as_secs_f64()
                                        * 1e3,
                                )
                            }
                            Ok(other) => out.fail(format!("open-loop read answered {other:?}")),
                            Err(e) => {
                                out.fail(format!("open-loop read: {e}"));
                                match Client::connect(addr) {
                                    Ok(cl) => client = cl,
                                    Err(_) => break,
                                }
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        let mut total = PhaseStats::default();
        for h in handles {
            total.absorb(h.join().expect("open-loop thread"));
        }
        total
    });
    total.elapsed_s = t0.elapsed().as_secs_f64();
    total
}
