//! Folds a program trace into per-layer totals with
//! [`ld_metrics::SpanProfile`].

use std::collections::BTreeMap;

use ld_metrics::SpanProfile;
use ld_telemetry::TraceSnapshot;

/// Calls, total and self time of every span path, keyed by the
/// index-stripped path (`search/iter/propose`).
pub struct Folded {
    rows: BTreeMap<String, (u64, u64, u64)>,
}

impl Folded {
    pub fn new(trace: &TraceSnapshot) -> Self {
        let rows = SpanProfile::from_trace(trace)
            .entries()
            .iter()
            .map(|e| (e.path.clone(), (e.calls, e.total_ns, e.self_ns)))
            .collect();
        Folded { rows }
    }

    fn sum_where(&self, leaf: &str, pick: impl Fn(&(u64, u64, u64)) -> u64) -> u64 {
        self.rows
            .iter()
            .filter(|(path, _)| path.rsplit('/').next() == Some(leaf))
            .map(|(_, row)| pick(row))
            .sum()
    }

    /// Spans named `leaf` anywhere in the tree.
    pub fn calls(&self, leaf: &str) -> u64 {
        self.sum_where(leaf, |r| r.0)
    }

    /// Summed duration of spans named `leaf`, in ms.
    pub fn total_ms(&self, leaf: &str) -> f64 {
        ns_to_ms(self.sum_where(leaf, |r| r.1))
    }

    /// Summed self time of spans named `leaf`, in ms.
    pub fn self_ms(&self, leaf: &str) -> f64 {
        ns_to_ms(self.sum_where(leaf, |r| r.2))
    }

    /// Summed self time of every span below the roots (depth >= 2) outside
    /// the subtree `skip` (a root-level child such as `search/init`), in ms:
    /// the time some layer's span accounts for.
    pub fn attributed_ms(&self, skip: &str) -> f64 {
        let nested = format!("{skip}/");
        ns_to_ms(
            self.rows
                .iter()
                .filter(|(path, _)| {
                    path.contains('/') && *path != skip && !path.starts_with(&nested)
                })
                .map(|(_, r)| r.2)
                .sum(),
        )
    }
}

/// Sets the `nn.*` metrics from the trainer's spans, divided by `per` (the
/// number of passes or set-ups the trace covers).
pub fn set_nn(out: &mut crate::Outcome, f: &Folded, per: f64) {
    let batch = f.total_ms("batch");
    let forward = f.total_ms("forward");
    let bptt = f.total_ms("bptt");
    out.set("nn.train_ms", f.total_ms("train") / per);
    out.set("nn.batch_self_ms", (batch - forward - bptt) / per);
    out.set("nn.forward_ms", forward / per);
    out.set("nn.bptt_ms", bptt / per);
    out.set("nn.epoch_validate_ms", f.total_ms("validate") / per);
    out.set("nn.epochs", f.calls("epoch") as f64 / per);
    out.set("nn.batches", f.calls("batch") as f64 / per);
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// For the spans named `leaf`: the wall time their union covers and their
/// summed busy time, both in ms, and the most of them open at once (the
/// threads working on them).
pub fn union_busy_threads(trace: &TraceSnapshot, leaf: &str) -> (f64, f64, u64) {
    let mut spans: Vec<(u64, u64)> = trace
        .spans
        .iter()
        .filter(|s| s.path.last().is_some_and(|seg| seg.name == leaf))
        .map(|s| (s.start_ns, s.start_ns + s.dur_ns))
        .collect();
    spans.sort_unstable();
    let busy: u64 = spans.iter().map(|&(a, b)| b - a).sum();
    let mut wall = 0u64;
    let mut reach = 0u64;
    for &(a, b) in &spans {
        let from = a.max(reach);
        if b > from {
            wall += b - from;
        }
        reach = reach.max(b);
    }
    // Sweep: +1 at each start, -1 at each end; ends sort before starts at
    // the same instant, so touching spans do not count as overlapping.
    let mut events: Vec<(u64, i64)> = spans.iter().flat_map(|&(a, b)| [(a, 1), (b, -1)]).collect();
    events.sort_unstable();
    let (mut open, mut peak) = (0i64, 0i64);
    for (_, d) in events {
        open += d;
        peak = peak.max(open);
    }
    (ns_to_ms(wall), ns_to_ms(busy), peak as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_telemetry::trace::{Seg, SpanRecord};

    fn span(path: &[&str], start_ns: u64, dur_ns: u64, tid: u64) -> SpanRecord {
        SpanRecord {
            path: path
                .iter()
                .map(|n| Seg {
                    name: n.to_string(),
                    index: 0,
                })
                .collect(),
            start_ns,
            dur_ns,
            tid,
        }
    }

    #[test]
    fn union_counts_overlap_once() {
        let trace = TraceSnapshot {
            spans: vec![
                span(&["search", "init"], 0, 4_000_000, 1),
                span(&["search", "init"], 1_000_000, 4_000_000, 2),
                span(&["search", "init"], 10_000_000, 1_000_000, 1),
                span(&["search"], 0, 12_000_000, 1),
            ],
        };
        assert_eq!(union_busy_threads(&trace, "init"), (6.0, 9.0, 2));
        let touching = TraceSnapshot {
            spans: vec![span(&["init"], 0, 5, 1), span(&["init"], 5, 5, 1)],
        };
        assert_eq!(union_busy_threads(&touching, "init").2, 1);
    }

    #[test]
    fn self_time_excludes_children() {
        let trace = TraceSnapshot {
            spans: vec![
                span(&["tick"], 0, 10_000_000, 1),
                span(&["tick", "batch"], 0, 6_000_000, 1),
                span(&["tick", "resolve"], 6_000_000, 3_000_000, 1),
            ],
        };
        let f = Folded::new(&trace);
        assert_eq!(f.self_ms("tick"), 1.0);
        assert_eq!(f.total_ms("batch"), 6.0);
        assert_eq!(f.calls("resolve"), 1);
        assert_eq!(f.attributed_ms("none"), 9.0);
        assert_eq!(f.attributed_ms("tick/batch"), 3.0);
    }
}
