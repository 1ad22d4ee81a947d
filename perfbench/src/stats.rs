//! Sample statistics and the naming rules every reported metric obeys.

/// Percentiles the tail rule may choose from, lowest first.
pub const PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples a percentile needs beyond it before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps e.g. 99.99% of 100 000 at rank 99 990, not 99 991.
    ((p / 100.0 * n as f64 - 1e-6).ceil() as usize).clamp(1, n.max(1))
}

/// Value at percentile `p` of `sorted` by nearest rank; NaN when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie strictly beyond percentile `p`'s rank.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest percentile in [`PERCENTILES`] with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when not even the median
/// qualifies.
pub fn tail_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median of unsorted samples; NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// A latency distribution reduced to what the benchmark reports.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile by nearest rank.
    pub p99: f64,
    /// The highest percentile the tail rule allows for `n` samples.
    pub tail_p: Option<f64>,
}

impl Summary {
    /// Summarizes unsorted samples.
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            n: v.len(),
            p50: percentile(&v, 50.0),
            p99: percentile(&v, 99.0),
            tail_p: tail_percentile(v.len()),
        }
    }

    /// One line stating the sample count and which percentiles it
    /// supports, e.g. `n=4000, p99 has 40 beyond (rule allows p99)`.
    pub fn describe(&self) -> String {
        let allowed = self.tail_p.map_or("none".to_string(), |p| format!("p{p}"));
        format!(
            "n={}, p99 has {} beyond (rule allows {allowed})",
            self.n,
            beyond(self.n, 99.0)
        )
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 letters,
/// digits, `_`, `.` and `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphanumeric() => {}
        _ => return false,
    }
    name.len() <= 64 && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert!(percentile(&[], 50.0).is_nan());
        let s = Summary::of(&v.iter().rev().copied().collect::<Vec<_>>());
        assert_eq!(
            (s.n, s.p50, s.p99, s.tail_p),
            (1000, 500.0, 990.0, Some(99.0))
        );
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn metric_name_character_set() {
        for ok in [
            "setup_s",
            "exec.query_us.knn.p50",
            "sig.sweep_ns",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "ünï",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "B/row"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "two words", "seventeen-letters"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
