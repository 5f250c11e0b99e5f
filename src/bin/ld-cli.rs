//! `ld-cli` — command-line front end for the LoadDynamics framework.
//!
//! ```text
//! ld-cli generate <config> <out.txt>          generate a paper workload trace
//! ld-cli optimize <trace.txt> [--fast]        tune a predictor, print hyperparameters
//! ld-cli predict  <trace.txt> [horizon]       tune + forecast the next intervals
//! ld-cli evaluate <trace.txt>                 walk-forward MAPE of LoadDynamics + baselines
//! ld-cli list                                 list the 14 paper workload configurations
//! ```
//!
//! `optimize`, `predict` and `evaluate` additionally accept
//! `--telemetry[=PATH]`: the train/search hot loops record per-epoch and
//! per-iteration telemetry, dumped as JSON to `PATH` (default
//! `telemetry.json`) — see the README for the schema. They also accept
//! `--trace-out[=PATH]`: the search/train hierarchy is recorded as spans
//! and exported as Chrome trace-event JSON at `PATH` (default
//! `trace.json`), folded flamegraph stacks at `PATH.folded`, and a
//! run-provenance manifest at `PATH.manifest.json`.
//!
//! `ld-cli trace-validate <trace.json> [manifest.json]` schema-checks the
//! emitted artifacts (used by CI).
//!
//! `optimize`, `predict` and `evaluate` also accept `--metrics[=PATH]`
//! (or the `LD_METRICS` environment knob): counters and log-linear
//! histograms of the run (trials, validation MAPE, baseline errors) are
//! dumped as schema-checked JSON at `PATH` (default `metrics.json`) plus
//! a Prometheus text exposition at `PATH.prom`. `ld-cli metrics-validate
//! <metrics.json> [exposition.prom]` schema-checks those artifacts.
//!
//! Traces are plain text (`ld_api::Series::to_text` format): an optional
//! `# name interval_mins=N` header, then one JAR per line.

use ld_api::{predict_horizon, walk_forward, Partition, Predictor, Series};
use ld_baselines::{CloudInsight, CloudScale, WoodPredictor};
use ld_faultinject::Faults;
use ld_metrics::Metrics;
use ld_telemetry::{RunManifest, Telemetry, TraceSnapshot, Tracer};
use ld_traces::all_configurations;
use loaddynamics::{FrameworkConfig, LoadDynamics};

fn usage() -> ! {
    eprintln!(
        "usage:\n  ld-cli generate <config> <out.txt>\n  \
         ld-cli optimize <trace.txt> [--fast] [--telemetry[=PATH]] [--trace-out[=PATH]]\n  \
         ld-cli predict <trace.txt> [horizon] [--telemetry[=PATH]] [--trace-out[=PATH]]\n  \
         ld-cli evaluate <trace.txt> [--telemetry[=PATH]] [--trace-out[=PATH]]\n  \
         ld-cli trace-validate <trace.json> [manifest.json]\n  \
         ld-cli metrics-validate <metrics.json> [exposition.prom]\n  ld-cli list\n\n\
         optimize/predict/evaluate also accept --metrics[=PATH] (or LD_METRICS=1|PATH)"
    );
    std::process::exit(2);
}

/// Parses `--telemetry` / `--telemetry=PATH` into an output path.
fn telemetry_path(args: &[String]) -> Option<String> {
    args.iter().find_map(|a| {
        if a == "--telemetry" {
            Some("telemetry.json".to_string())
        } else {
            a.strip_prefix("--telemetry=").map(str::to_string)
        }
    })
}

/// Parses `--trace-out` / `--trace-out=PATH` into a Chrome-trace path.
fn trace_out_path(args: &[String]) -> Option<String> {
    args.iter().find_map(|a| {
        if a == "--trace-out" {
            Some("trace.json".to_string())
        } else {
            a.strip_prefix("--trace-out=").map(str::to_string)
        }
    })
}

/// Parses `--metrics` / `--metrics=PATH` into a metrics-dump path, falling
/// back to the `LD_METRICS` environment knob (`1` → `metrics.json`, any
/// other value is taken as the path) so wrappers can enable metrics
/// without editing command lines.
fn metrics_out_path(args: &[String]) -> Option<String> {
    args.iter()
        .find_map(|a| {
            if a == "--metrics" {
                Some("metrics.json".to_string())
            } else {
                a.strip_prefix("--metrics=").map(str::to_string)
            }
        })
        .or_else(|| {
            // ld-lint: allow(determinism, "pure-observer metrics dump knob; captured in the run manifest")
            std::env::var("LD_METRICS")
                .ok()
                .filter(|v| !v.is_empty())
                .map(|v| if v == "1" { "metrics.json".to_string() } else { v })
        })
}

/// Writes the snapshot and tells the user where it went.
fn dump_telemetry(telemetry: &Telemetry, path: &str) {
    telemetry.write_json(path).unwrap_or_else(|e| {
        eprintln!("cannot write telemetry to {path}: {e}");
        std::process::exit(1);
    });
    eprintln!("telemetry written to {path}");
}

fn write_or_die(path: &str, contents: &str, what: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| {
        eprintln!("cannot write {what} to {path}: {e}");
        std::process::exit(1);
    });
    eprintln!("{what} written to {path}");
}

/// Writes the metrics snapshot as schema-checked JSON at `path` and a
/// Prometheus text exposition at `path.prom`.
fn dump_metrics(metrics: &Metrics, path: &str) {
    let snapshot = metrics.snapshot();
    let json = ld_metrics::to_metrics_json(&snapshot);
    ld_metrics::validate_metrics_json(&json).expect("metrics dump must pass its own validator");
    write_or_die(path, &json, "metrics");
    let prom = ld_metrics::to_prometheus(&snapshot);
    ld_metrics::validate_exposition(&prom).expect("exposition must pass its own validator");
    write_or_die(&format!("{path}.prom"), &prom, "metrics exposition");
}

/// The optional observer planes a command ran with, bundled for manifest
/// stamping.
struct Observers<'a> {
    telemetry: &'a Telemetry,
    telemetry_out: Option<&'a str>,
    metrics: &'a Metrics,
    metrics_out: Option<&'a str>,
}

/// Writes the Chrome trace at `path`, the folded stacks at `path.folded`
/// and the run manifest at `path.manifest.json`.
fn dump_trace(
    tracer: &Tracer,
    path: &str,
    tool: &str,
    config: &[(&str, String)],
    observers: &Observers<'_>,
) {
    let snapshot: TraceSnapshot = tracer.snapshot();
    write_or_die(path, &snapshot.to_chrome_trace(), "chrome trace");
    write_or_die(&format!("{path}.folded"), &snapshot.to_folded(), "folded stacks");
    let mut manifest = RunManifest::new(tool)
        .seed(0)
        .capture_env()
        .with_trace_summary(&snapshot)
        .output("chrome_trace", path)
        .output("folded", format!("{path}.folded"));
    for (key, value) in config {
        manifest = manifest.config(key, value);
    }
    if observers.telemetry.is_enabled() {
        manifest = manifest.with_telemetry_summary(&observers.telemetry.snapshot());
        if let Some(tpath) = observers.telemetry_out {
            manifest = manifest.output("telemetry", tpath);
        }
    }
    if observers.metrics.is_enabled() {
        let snapshot = observers.metrics.snapshot();
        manifest = manifest.with_metrics_summary(snapshot.series(), snapshot.observations());
        if let Some(mpath) = observers.metrics_out {
            manifest = manifest
                .output("metrics", mpath)
                .output("metrics_exposition", format!("{mpath}.prom"));
        }
    }
    if let Err(e) = manifest.validate() {
        eprintln!("run manifest failed validation ({e}); writing anyway");
    }
    let manifest_path = format!("{path}.manifest.json");
    write_or_die(&manifest_path, &manifest.to_json(), "run manifest");
}

fn read_series(path: &str) -> Series {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    Series::from_text(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    })
}

fn framework(
    series_len: usize,
    fast: bool,
    telemetry: &Telemetry,
    tracer: &Tracer,
    faults: &Faults,
) -> LoadDynamics {
    // Scale effort to the series size unless --fast is given.
    let mut config = if fast || series_len < 600 {
        FrameworkConfig::fast_preset(0)
    } else {
        let mut c = FrameworkConfig::fast_preset(0);
        c.space = loaddynamics::scaled_space(32, 16, 2, 64);
        c.max_iters = 12;
        c.budget = loaddynamics::TrainBudget {
            max_epochs: 14,
            patience: 4,
            learning_rate: 8e-3,
            max_train_windows: 550,
            clip_norm: 5.0,
        };
        c
    };
    config.faults = faults.clone();
    LoadDynamics::new(
        config
            .with_telemetry(telemetry.clone())
            .with_tracer(tracer.clone()),
    )
}

fn cmd_generate(label: &str, out: &str, faults: &Faults) {
    let Some(config) = all_configurations().into_iter().find(|c| c.label() == label) else {
        eprintln!("unknown configuration '{label}' — see `ld-cli list`");
        std::process::exit(1);
    };
    let series = config.build_reported(0, faults).0;
    std::fs::write(out, series.to_text()).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    println!(
        "wrote {} intervals of {} ({} min) to {out}",
        series.len(),
        series.name,
        series.interval_mins
    );
}

/// Records the search outcome on the metrics registry: one counter tick
/// per trial, the per-trial validation MAPE distribution in basis points
/// (log-linear buckets resolve the single-digit-percent region), and the
/// selected model's error as a gauge.
fn record_search_metrics(metrics: &Metrics, outcome: &loaddynamics::OptimizationOutcome) {
    for trial in &outcome.trials.trials {
        metrics.incr("cli.trials_total");
        metrics.observe(
            "cli.val_mape_bp",
            ld_api::num::to_count(trial.value * 100.0) as u64,
        );
    }
    metrics.gauge_set(
        "cli.selected_val_mape_bp",
        ld_api::num::to_count(outcome.val_mape * 100.0) as u64,
    );
}

fn cmd_optimize(
    path: &str,
    fast: bool,
    telemetry_out: Option<&str>,
    trace_out: Option<&str>,
    metrics_out: Option<&str>,
    faults: &Faults,
) {
    let series = read_series(path);
    println!(
        "optimizing on {} ({} intervals, {} min each)...",
        series.name,
        series.len(),
        series.interval_mins
    );
    let telemetry = telemetry_out.map_or_else(Telemetry::disabled, |_| Telemetry::enabled());
    let tracer = trace_out.map_or_else(Tracer::disabled, |_| Tracer::enabled());
    let metrics = metrics_out.map_or_else(Metrics::disabled, |_| Metrics::enabled());
    let outcome = framework(series.len(), fast, &telemetry, &tracer, faults).optimize(&series);
    record_search_metrics(&metrics, &outcome);
    println!("selected hyperparameters: {}", outcome.hyperparams);
    println!("cross-validation MAPE:    {:.2}%", outcome.val_mape);
    println!("trials evaluated:         {}", outcome.trials.trials.len());
    if let Some(out) = telemetry_out {
        dump_telemetry(&telemetry, out);
    }
    if let Some(out) = metrics_out {
        dump_metrics(&metrics, out);
    }
    if let Some(out) = trace_out {
        dump_trace(
            &tracer,
            out,
            "ld-cli optimize",
            &[
                ("trace", path.to_string()),
                ("series", series.name.clone()),
                ("fast", fast.to_string()),
                ("selected_hyperparams", outcome.hyperparams.to_string()),
                ("val_mape_pct", format!("{:.4}", outcome.val_mape)),
            ],
            &Observers {
                telemetry: &telemetry,
                telemetry_out,
                metrics: &metrics,
                metrics_out,
            },
        );
    }
}

fn cmd_predict(
    path: &str,
    horizon: usize,
    telemetry_out: Option<&str>,
    trace_out: Option<&str>,
    metrics_out: Option<&str>,
    faults: &Faults,
) {
    let series = read_series(path);
    let telemetry = telemetry_out.map_or_else(Telemetry::disabled, |_| Telemetry::enabled());
    let tracer = trace_out.map_or_else(Tracer::disabled, |_| Tracer::enabled());
    let metrics = metrics_out.map_or_else(Metrics::disabled, |_| Metrics::enabled());
    let outcome = framework(series.len(), false, &telemetry, &tracer, faults).optimize(&series);
    record_search_metrics(&metrics, &outcome);
    eprintln!(
        "tuned {} (val MAPE {:.1}%)",
        outcome.hyperparams, outcome.val_mape
    );
    let hyperparams = outcome.hyperparams;
    let mut predictor = outcome.predictor;
    let preds = predict_horizon(&mut predictor, &series.values, horizon);
    metrics.add("cli.predictions_total", preds.len() as u64);
    for (k, p) in preds.iter().enumerate() {
        println!("t+{}: {:.1}", k + 1, p);
        metrics.observe("cli.predicted_jars", ld_api::num::to_count(*p) as u64);
    }
    if let Some(out) = telemetry_out {
        dump_telemetry(&telemetry, out);
    }
    if let Some(out) = metrics_out {
        dump_metrics(&metrics, out);
    }
    if let Some(out) = trace_out {
        dump_trace(
            &tracer,
            out,
            "ld-cli predict",
            &[
                ("trace", path.to_string()),
                ("series", series.name.clone()),
                ("horizon", horizon.to_string()),
                ("selected_hyperparams", hyperparams.to_string()),
            ],
            &Observers {
                telemetry: &telemetry,
                telemetry_out,
                metrics: &metrics,
                metrics_out,
            },
        );
    }
}

fn cmd_evaluate(
    path: &str,
    telemetry_out: Option<&str>,
    trace_out: Option<&str>,
    metrics_out: Option<&str>,
    faults: &Faults,
) {
    let series = read_series(path);
    let partition = Partition::paper_default(series.len());
    println!(
        "walk-forward over the last {} intervals:",
        series.len() - partition.val_end
    );
    let telemetry = telemetry_out.map_or_else(Telemetry::disabled, |_| Telemetry::enabled());
    let tracer = trace_out.map_or_else(Tracer::disabled, |_| Tracer::enabled());
    let metrics = metrics_out.map_or_else(Metrics::disabled, |_| Metrics::enabled());
    let outcome = framework(series.len(), false, &telemetry, &tracer, faults).optimize(&series);
    record_search_metrics(&metrics, &outcome);
    let hyperparams = outcome.hyperparams;
    let mut rows: Vec<(String, f64)> = Vec::new();
    let mut ld: Box<dyn Predictor> = Box::new(outcome.predictor);
    rows.push((
        "LoadDynamics".into(),
        walk_forward(ld.as_mut(), &series, partition.val_end).mape(),
    ));
    let baselines: Vec<Box<dyn Predictor>> = vec![
        Box::new(CloudInsight::new(0).with_tracer(tracer.clone())),
        Box::new(CloudScale::default()),
        Box::new(WoodPredictor::default()),
    ];
    for mut b in baselines {
        let mape = walk_forward(b.as_mut(), &series, partition.val_end).mape();
        rows.push((b.name(), mape));
    }
    for (name, mape) in &rows {
        println!("  {name:<14} MAPE {mape:>7.2}%");
        metrics.incr("cli.predictors_total");
        metrics.observe(
            "cli.walkforward_mape_bp",
            ld_api::num::to_count(*mape * 100.0) as u64,
        );
    }
    if let Some(out) = telemetry_out {
        dump_telemetry(&telemetry, out);
    }
    if let Some(out) = metrics_out {
        dump_metrics(&metrics, out);
    }
    if let Some(out) = trace_out {
        dump_trace(
            &tracer,
            out,
            "ld-cli evaluate",
            &[
                ("trace", path.to_string()),
                ("series", series.name.clone()),
                ("selected_hyperparams", hyperparams.to_string()),
            ],
            &Observers {
                telemetry: &telemetry,
                telemetry_out,
                metrics: &metrics,
                metrics_out,
            },
        );
    }
}

fn cmd_list() {
    for c in all_configurations() {
        println!("{}", c.label());
    }
}

fn read_or_die(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    })
}

/// Schema-checks a Chrome trace emitted by `--trace-out` (plus its folded
/// sibling when present) and, optionally, a run manifest. Exits nonzero
/// on the first violation — CI gates on this.
fn cmd_trace_validate(trace_path: &str, manifest_path: Option<&str>) {
    let events = match ld_telemetry::validate_chrome_trace(&read_or_die(trace_path)) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("{trace_path}: invalid chrome trace: {e}");
            std::process::exit(1);
        }
    };
    println!("{trace_path}: valid chrome trace, {events} events");
    let folded_path = format!("{trace_path}.folded");
    if std::path::Path::new(&folded_path).exists() {
        match ld_telemetry::validate_folded(&read_or_die(&folded_path)) {
            Ok(n) => println!("{folded_path}: valid folded stacks, {n} lines"),
            Err(e) => {
                eprintln!("{folded_path}: invalid folded stacks: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(manifest_path) = manifest_path {
        let manifest = RunManifest::from_json(&read_or_die(manifest_path)).unwrap_or_else(|e| {
            eprintln!("{manifest_path}: not a run manifest: {e}");
            std::process::exit(1);
        });
        if let Err(e) = manifest.validate() {
            eprintln!("{manifest_path}: invalid run manifest: {e}");
            std::process::exit(1);
        }
        if manifest.trace_spans != events as u64 {
            eprintln!(
                "{manifest_path}: manifest records {} trace spans but the chrome trace has {events} events",
                manifest.trace_spans
            );
            std::process::exit(1);
        }
        println!(
            "{manifest_path}: valid run manifest (tool `{}`, {} spans, {} roots)",
            manifest.tool, manifest.trace_spans, manifest.trace_roots
        );
    }
}

/// Schema-checks a metrics JSON dump and, optionally, its Prometheus text
/// exposition sibling. Exits nonzero on the first violation — CI gates on
/// this.
fn cmd_metrics_validate(metrics_path: &str, exposition_path: Option<&str>) {
    match ld_metrics::validate_metrics_json(&read_or_die(metrics_path)) {
        Ok(n) => println!("{metrics_path}: valid metrics snapshot, {n} series"),
        Err(e) => {
            eprintln!("{metrics_path}: invalid metrics snapshot: {e}");
            std::process::exit(1);
        }
    }
    if let Some(prom_path) = exposition_path {
        match ld_metrics::validate_exposition(&read_or_die(prom_path)) {
            Ok(n) => println!("{prom_path}: valid exposition, {n} samples"),
            Err(e) => {
                eprintln!("{prom_path}: invalid exposition: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Opt-in fault injection for resilience drills (LD_FAULT / LD_FAULT_SEED).
    let faults = Faults::from_env(0);
    let telemetry_out = telemetry_path(&args);
    let trace_out = trace_out_path(&args);
    let metrics_out = metrics_out_path(&args);
    match args.first().map(String::as_str) {
        Some("generate") if args.len() == 3 => cmd_generate(&args[1], &args[2], &faults),
        Some("optimize") if args.len() >= 2 => cmd_optimize(
            &args[1],
            args.iter().any(|a| a == "--fast"),
            telemetry_out.as_deref(),
            trace_out.as_deref(),
            metrics_out.as_deref(),
            &faults,
        ),
        Some("predict") if args.len() >= 2 => {
            let horizon = args
                .get(2)
                .and_then(|h| h.parse().ok())
                .unwrap_or(3usize)
                .clamp(1, 1000);
            cmd_predict(
                &args[1],
                horizon,
                telemetry_out.as_deref(),
                trace_out.as_deref(),
                metrics_out.as_deref(),
                &faults,
            )
        }
        Some("evaluate") if args.len() >= 2 => cmd_evaluate(
            &args[1],
            telemetry_out.as_deref(),
            trace_out.as_deref(),
            metrics_out.as_deref(),
            &faults,
        ),
        Some("trace-validate") if args.len() >= 2 => {
            cmd_trace_validate(&args[1], args.get(2).map(String::as_str))
        }
        Some("metrics-validate") if args.len() >= 2 => {
            cmd_metrics_validate(&args[1], args.get(2).map(String::as_str))
        }
        Some("list") => cmd_list(),
        _ => usage(),
    }
}
