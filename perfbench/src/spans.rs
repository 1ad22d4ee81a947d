//! In-memory spans of the traced run, and their self-time arithmetic.
//!
//! The traced run replays every request once per entry point (TCP client,
//! batcher, executor, single shard). Each replay records one span; all
//! spans of a request share its id, and a span's parent is the span of
//! the next entry point out. Because the replays run one after another,
//! a child's start is stored relative to its parent's start, placed where
//! that work sits inside the parent: the codec around the batcher round
//! trip, shards side by side at the start of the executor span, the
//! merge after the slowest shard.

use sg_obs::json::Json;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `serve.client`.
    pub name: &'static str,
    /// Index of the parent span within the request, `None` for the root.
    pub parent: Option<usize>,
    /// Start relative to the parent's start (0 for the root), ns.
    pub rel_start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

/// The spans of one request.
#[derive(Debug, Clone, Default)]
pub struct RequestSpans {
    /// Request id shared by every span.
    pub req: u64,
    /// Spans in creation order; parents precede children.
    pub spans: Vec<Span>,
}

impl RequestSpans {
    /// An empty span set for request `req`.
    pub fn new(req: u64) -> RequestSpans {
        RequestSpans {
            req,
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its index.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        rel_start_ns: u64,
        dur_ns: u64,
    ) -> usize {
        if let Some(p) = parent {
            assert!(p < self.spans.len(), "parent must be recorded first");
        }
        self.spans.push(Span {
            name,
            parent,
            rel_start_ns,
            dur_ns,
        });
        self.spans.len() - 1
    }

    /// The first span named `name`.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.spans.iter().position(|s| s.name == name)
    }

    /// Duration of span `i`, ns.
    pub fn dur(&self, i: usize) -> u64 {
        self.spans[i].dur_ns
    }

    /// Self time of span `i`: its duration minus the part of its interval
    /// that its children cover (children clipped to the parent, overlaps
    /// counted once).
    pub fn self_ns(&self, i: usize) -> u64 {
        let dur = self.spans[i].dur_ns;
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| (s.rel_start_ns, s.rel_start_ns.saturating_add(s.dur_ns)))
            .collect();
        dur - covered(&children, dur)
    }

    /// The spans as JSON objects, one per span.
    pub fn to_json(&self) -> Vec<Json> {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::Obj(vec![
                    ("req".into(), Json::U64(self.req)),
                    ("span".into(), Json::U64(i as u64)),
                    ("name".into(), Json::Str(s.name.into())),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                    ),
                    ("rel_start_ns".into(), Json::U64(s.rel_start_ns)),
                    ("dur_ns".into(), Json::U64(s.dur_ns)),
                    ("self_ns".into(), Json::U64(self.self_ns(i))),
                ])
            })
            .collect()
    }
}

/// Length of the union of `[start, end)` intervals clipped to `[0, limit)`.
pub fn covered(intervals: &[(u64, u64)], limit: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.min(limit), e.min(limit)))
        .filter(|&(s, e)| e > s)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered(&[], 100), 0);
        assert_eq!(covered(&[(0, 10), (5, 20)], 100), 20);
        assert_eq!(covered(&[(0, 10), (20, 30)], 100), 20);
        assert_eq!(covered(&[(20, 30), (0, 10), (25, 40)], 100), 30);
        assert_eq!(covered(&[(90, 150)], 100), 10);
        assert_eq!(covered(&[(150, 160)], 100), 0);
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        // client 100 = codec 10 then batcher 70 → 20 unattributed.
        let mut r = RequestSpans::new(7);
        let client = r.add("serve.client", None, 0, 100);
        r.add("serve.codec", Some(client), 0, 10);
        let batch = r.add("serve.batcher", Some(client), 10, 70);
        // batcher 70 ⊃ exec 50; exec 50 ⊃ shards 30, 40 side by side + merge 5.
        let exec = r.add("exec.query", Some(batch), 0, 50);
        r.add("core.shard", Some(exec), 0, 30);
        r.add("core.shard", Some(exec), 0, 40);
        r.add("exec.merge", Some(exec), 40, 5);
        assert_eq!(r.self_ns(client), 20);
        assert_eq!(r.self_ns(batch), 20);
        assert_eq!(r.self_ns(exec), 5);
        assert_eq!(r.self_ns(4), 30);
        assert_eq!(r.find("exec.merge"), Some(6));
        // Along the blocking path (slowest shard only) self times add
        // back up to the root's duration.
        let path: u64 = [0, 1, 2, 3, 5, 6].iter().map(|&i| r.self_ns(i)).sum();
        assert_eq!(path, r.dur(client));
    }

    #[test]
    fn a_child_longer_than_its_parent_leaves_no_self_time() {
        let mut r = RequestSpans::new(1);
        let outer = r.add("exec.query", None, 0, 40);
        r.add("core.shard", Some(outer), 0, 55);
        assert_eq!(r.self_ns(outer), 0);
        assert_eq!(r.to_json().len(), 2);
    }
}
