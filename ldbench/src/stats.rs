//! Order statistics, the tail-percentile rule, failure accounting and the
//! result line. Pure functions, unit-tested below.

/// Nearest-rank percentile (`p` in 0..=100) of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len()).div_ceil(100).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Splitmix64: decorrelated bits from a seed.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in [0, 1) from the top 53 bits.
pub fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest whole percentile from p50 up that still has at least
/// [`TAIL_BEYOND`] samples beyond its nearest rank, with its value. `None`
/// below twenty samples, where even the median has fewer beyond it.
pub fn tail(values: &[f64]) -> Option<(usize, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (50..100)
        .rev()
        .find(|&p| n - (p * n).div_ceil(100).max(1) >= TAIL_BEYOND)
        .map(|p| (p, percentile(&v, p)))
}

/// Operations per tail window: the window's tail is its p90, with ten
/// operations beyond it.
pub const TAIL_WINDOW: usize = 100;

/// The run's tail latency: with at least two full windows of
/// [`TAIL_WINDOW`] operations, the median over consecutive windows of each
/// window's [`tail`]; otherwise the [`tail`] of the whole run. Returns the
/// percentile, the value and the number of windows (0 for the whole run).
/// `None` below twenty operations.
pub fn windowed_tail(values: &[f64]) -> Option<(usize, f64, usize)> {
    let windows = values.len() / TAIL_WINDOW;
    if windows < 2 {
        return tail(values).map(|(p, v)| (p, v, 0));
    }
    let tails: Vec<(usize, f64)> = values
        .chunks_exact(TAIL_WINDOW)
        .map(|w| tail(w).expect("a full window has a tail"))
        .collect();
    let per_window: Vec<f64> = tails.iter().map(|t| t.1).collect();
    Some((tails[0].0, median(&per_window), windows))
}

/// Operations attempted and failed in one run. Every check that runs is an
/// attempted operation, and every violation is a failure: nothing is dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts `n` operations of which `bad` failed.
    pub fn add(&mut self, n: u64, bad: u64) {
        assert!(bad <= n, "more failures ({bad}) than operations ({n})");
        self.attempted += n;
        self.failed += bad;
    }

    /// Counts one correctness check; returns whether it held.
    pub fn check(&mut self, ok: bool, what: &str) -> bool {
        self.add(1, u64::from(!ok));
        if !ok {
            eprintln!("ldbench: check failed: {what}");
        }
        ok
    }

    /// Failed over attempted operations.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Whether `name` is a valid metric or workload name: starts with a letter
/// or digit, at most 64 characters from letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Whether `unit` is a valid unit: 1 to 16 characters from letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// The one-line JSON result. Values print with every digit Rust's shortest
/// round-trip formatting gives. Errors on a duplicate or invalid name and
/// on a non-finite value.
pub fn result_line(correct: bool, tally: Tally, metrics: &[Metric]) -> Result<String, String> {
    let mut seen = std::collections::BTreeSet::new();
    let mut parts = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !valid_name(m.name) || !valid_unit(m.unit) {
            return Err(format!(
                "invalid metric name or unit: {} [{}]",
                m.name, m.unit
            ));
        }
        if !seen.insert(m.name) {
            return Err(format!("duplicate metric {}", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        parts.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    if tally.attempted == 0 {
        return Err("no operation attempted".into());
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        parts.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200 is rank 190: exactly ten samples beyond it.
        assert_eq!(tail(&v), Some((95, 190.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99, 990.0)));
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&v), Some((80, 40.0)));
        // Order of the input does not matter.
        let mut r = v.clone();
        r.reverse();
        assert_eq!(tail(&r), tail(&v));
    }

    #[test]
    fn tail_needs_ten_samples_above_the_median() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        // p50 of 20 is rank 10, with ten beyond it.
        assert_eq!(tail(&v), Some((50, 10.0)));
    }

    #[test]
    fn every_reported_tail_has_ten_beyond() {
        let beyond = |v: &[f64], x: f64| v.iter().filter(|&&s| s > x).count();
        for n in 20..400u32 {
            let v: Vec<f64> = (0..n).map(f64::from).collect();
            let (p, x) = tail(&v).expect("tail exists from twenty samples");
            assert!(beyond(&v, x) >= TAIL_BEYOND, "n={n} p{p}");
            // One percentile higher would leave fewer than ten beyond.
            if p < 99 {
                assert!(
                    beyond(&v, percentile(&v, p + 1)) < TAIL_BEYOND,
                    "n={n} p{p}"
                );
            }
        }
        // Below twenty samples even the median has fewer than ten beyond.
        for n in 11..20u32 {
            assert_eq!(tail(&(0..n).map(f64::from).collect::<Vec<_>>()), None);
        }
    }

    #[test]
    fn windowed_tail_is_the_median_window_p90() {
        // Three windows whose p90s are 90, 190 and 290 (1-based ranks).
        let v: Vec<f64> = (1..=350).map(f64::from).collect();
        assert_eq!(windowed_tail(&v), Some((90, 190.0, 3)));
        // A slow burst moves its own window's tail, not the median.
        let mut w = v.clone();
        for x in &mut w[200..220] {
            *x = 1e6;
        }
        assert_eq!(windowed_tail(&w), Some((90, 190.0, 3)));
        // Below two windows the whole run is one sample.
        let short: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(windowed_tail(&short), Some((80, 40.0, 0)));
        assert_eq!(windowed_tail(&short[..19]), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn fail_frac_counts_every_failure() {
        let mut t = Tally::default();
        assert_eq!(t.fail_frac(), 0.0);
        t.add(98, 0);
        assert!(t.check(true, "holds"));
        assert!(!t.check(false, "violated"));
        assert_eq!(
            t,
            Tally {
                attempted: 100,
                failed: 1
            }
        );
        assert_eq!(t.fail_frac(), 0.01);
        t.add(100, 99);
        assert_eq!(t.fail_frac(), 0.5);
    }

    #[test]
    #[should_panic(expected = "more failures")]
    fn tally_rejects_more_failures_than_operations() {
        Tally::default().add(1, 2);
    }

    #[test]
    fn metric_names_are_valid() {
        for ok in [
            "latency_p50_ms",
            "nn.train_ms",
            "registry.hit_rate",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/name",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "%", "count", "ratio", "MB", "GFLOP"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seconds-per-request"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn every_declared_metric_name_is_valid() {
        for (name, unit) in crate::END_TO_END.iter().chain(crate::PER_LAYER) {
            assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
        }
        let mut all: Vec<&str> = crate::END_TO_END
            .iter()
            .chain(crate::PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), crate::END_TO_END.len() + crate::PER_LAYER.len());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let t = Tally {
            attempted: 3,
            failed: 1,
        };
        let m = [Metric {
            name: "setup_s",
            value: 0.8127,
            unit: "s",
        }];
        let line = result_line(false, t, &m).unwrap();
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \
             \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        let dup = [m[0].clone(), m[0].clone()];
        assert!(result_line(true, t, &dup).is_err());
        let nan = [Metric {
            name: "x",
            value: f64::NAN,
            unit: "s",
        }];
        assert!(result_line(true, t, &nan).is_err());
        assert!(result_line(true, Tally::default(), &m).is_err());
    }
}
