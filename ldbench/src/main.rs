//! `ldbench` — the repository benchmark.
//!
//! ```text
//! ldbench --workload <selfopt|search|serve-hot|serve-spill> --seed <n>
//!         --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, measures for at least
//! `--seconds` seconds, checks the program's outputs outside the timed
//! window, and prints human-readable lines followed by one JSON result line.
//! `--trace 0` reports the end-to-end metrics with tracing off; `--trace 1`
//! is a separate run that turns on the program's own span tracers and
//! reports the per-layer metrics. See `README.md` in this directory.

#![forbid(unsafe_code)]

mod host;
mod layers;
mod optimize;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;

use stats::{Metric, Tally};

/// End-to-end metrics: name and unit. Every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("test_mape_pct", "%"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: name and unit. A layer the workload
/// does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("nn.train_ms", "ms"),
    ("nn.batch_self_ms", "ms"),
    ("nn.forward_ms", "ms"),
    ("nn.bptt_ms", "ms"),
    ("nn.epoch_validate_ms", "ms"),
    ("nn.epochs", "count"),
    ("nn.batches", "count"),
    ("search.init_wall_ms", "ms"),
    ("search.init_busy_ms", "ms"),
    ("search.threads", "count"),
    ("gp.surrogate_fit_ms", "ms"),
    ("gp.gram_build_ms", "ms"),
    ("gp.cholesky_ms", "ms"),
    ("bayesopt.propose_ms", "ms"),
    ("bayesopt.iters", "count"),
    ("core.retrain_ms", "ms"),
    ("core.trials", "count"),
    ("core.infeasible_trials", "count"),
    ("serve.admission_ms", "ms"),
    ("serve.resolve_ms", "ms"),
    ("serve.batch_ms", "ms"),
    ("serve.tick_self_ms", "ms"),
    ("serve.batch_groups", "count"),
    ("serve.lanes_per_group", "count"),
    ("serve.batch_gflop", "GFLOP"),
    ("serve.metrics_ms", "ms"),
    ("registry.hits", "count"),
    ("registry.misses", "count"),
    ("registry.evictions", "count"),
    ("registry.rehydrations", "count"),
    ("registry.hit_rate", "ratio"),
    ("snapshot.save_us", "us"),
    ("snapshot.load_us", "us"),
    ("snapshot.encode_us", "us"),
    ("snapshot.decode_us", "us"),
    ("snapshot.bytes", "bytes"),
    ("unattributed_ms", "ms"),
    ("attributed_share", "ratio"),
    ("trace_overhead_frac", "ratio"),
    ("fail_frac", "ratio"),
];

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["selfopt", "search", "serve-hot", "serve-spill"];

/// What one workload run is given.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Fresh directory for this run's snapshot stores, inside the checkout.
    pub scratch: PathBuf,
}

/// What one workload run reports.
#[derive(Default)]
pub struct Outcome {
    pub values: BTreeMap<&'static str, f64>,
    pub tally: Tally,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: ldbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (String, u64, f64, bool) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(key) = flag.strip_prefix("--") else {
            usage()
        };
        let Some(value) = it.next() else { usage() };
        opts.insert(key, value.as_str());
    }
    let get = |k: &str| opts.get(k).copied().unwrap_or_else(|| usage());
    let workload = get("workload").to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        usage();
    }
    let seed = get("seed").parse().unwrap_or_else(|_| usage());
    let seconds: f64 = get("seconds").parse().unwrap_or_else(|_| usage());
    if !(seconds > 0.0 && seconds.is_finite()) {
        usage();
    }
    let trace = match get("trace") {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    (workload, seed, seconds, trace)
}

fn main() {
    let (workload, seed, seconds, trace) = parse_args();
    let scratch = PathBuf::from(".bench_build")
        .join("ldbench-store")
        .join(format!("{workload}-{}", std::process::id()));
    if scratch.exists() {
        std::fs::remove_dir_all(&scratch).expect("clear stale store directory");
    }
    std::fs::create_dir_all(&scratch).expect("create store directory");
    host::print_fingerprint(seed, &workload, &scratch);

    let ctx = Ctx {
        workload,
        seed,
        seconds,
        trace,
        scratch,
    };
    let mut out = match ctx.workload.as_str() {
        "selfopt" | "search" => optimize::run(&ctx),
        _ => serve::run(&ctx),
    };
    std::fs::remove_dir_all(&ctx.scratch).expect("remove store directory");

    let fail_frac = out.tally.fail_frac();
    out.set("fail_frac", fail_frac);
    out.set("peak_rss_mb", host::peak_rss_mb());
    for line in &out.notes {
        println!("{line}");
    }
    println!(
        "fail_frac = {fail_frac} ratio ({} failed of {} attempted)",
        out.tally.failed, out.tally.attempted
    );

    let declared = if ctx.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<Metric> = declared
        .iter()
        .map(|&(name, unit)| {
            let value = match out.values.get(name) {
                Some(&v) => v,
                None if ctx.trace => 0.0,
                None => panic!("workload {} did not measure {name}", ctx.workload),
            };
            println!("metric {name} = {value} {unit}");
            Metric { name, value, unit }
        })
        .collect();
    let correct = out.tally.failed == 0;
    match stats::result_line(correct, out.tally, &metrics) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("ldbench: {e}");
            std::process::exit(1);
        }
    }
    if !correct {
        std::process::exit(1);
    }
}
