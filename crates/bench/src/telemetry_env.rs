//! Opt-in telemetry, span tracing, and metrics for the experiment
//! binaries, driven by `LD_TELEMETRY`, `LD_TRACE`, and `LD_METRICS`.
//!
//! Unset (the default) leaves all three disabled and the binaries'
//! behavior and output byte-identical to an uninstrumented build.
//! `LD_TELEMETRY=1` enables recording and dumps `telemetry.json` into the
//! working directory; any other value is used as the output path.
//! `LD_TRACE` works the same way (default `trace.json`): one enablement
//! emits the Chrome trace at the path, a folded-stack file at
//! `<path>.folded`, and a run-provenance manifest at
//! `<path>.manifest.json`. `LD_METRICS` (default `metrics.json`) dumps
//! the schema-checked metrics snapshot at the path plus the Prometheus
//! text exposition at `<path>.prom`.

use ld_metrics::Metrics;
use ld_telemetry::{RunManifest, Telemetry, TraceSnapshot, Tracer};

/// The telemetry handle plus output path requested by the environment,
/// or `(disabled, None)` when `LD_TELEMETRY` is unset or empty.
pub fn telemetry_from_env() -> (Telemetry, Option<String>) {
    match std::env::var("LD_TELEMETRY") {
        Ok(v) if !v.is_empty() => {
            let path = if v == "1" {
                "telemetry.json".to_string()
            } else {
                v
            };
            (Telemetry::enabled(), Some(path))
        }
        _ => (Telemetry::disabled(), None),
    }
}

/// Writes the snapshot to the path from [`telemetry_from_env`] (no-op when
/// telemetry was not requested) and reports where it went on stderr.
pub fn dump_telemetry(telemetry: &Telemetry, path: &Option<String>) {
    if let Some(path) = path {
        match telemetry.write_json(path) {
            Ok(()) => eprintln!("telemetry written to {path}"),
            Err(e) => eprintln!("cannot write telemetry to {path}: {e}"),
        }
    }
}

/// The metrics handle plus output path requested by the environment, or
/// `(disabled, None)` when `LD_METRICS` is unset or empty.
pub fn metrics_from_env() -> (Metrics, Option<String>) {
    match std::env::var("LD_METRICS") {
        Ok(v) if !v.is_empty() => {
            let path = if v == "1" { "metrics.json".to_string() } else { v };
            (Metrics::enabled(), Some(path))
        }
        _ => (Metrics::disabled(), None),
    }
}

/// Writes the metrics snapshot to the path from [`metrics_from_env`] as
/// schema-checked JSON plus the Prometheus text exposition at
/// `<path>.prom`, both run through their validators before touching disk
/// (a bench must never publish a malformed snapshot). No-op when metrics
/// were not requested.
pub fn dump_metrics(metrics: &Metrics, path: &Option<String>) {
    let Some(path) = path else {
        return;
    };
    let snapshot = metrics.snapshot();
    let json = ld_metrics::to_metrics_json(&snapshot);
    if let Err(e) = ld_metrics::validate_metrics_json(&json) {
        eprintln!("metrics snapshot failed validation ({e}); writing anyway");
    }
    match std::fs::write(path, json + "\n") {
        Ok(()) => eprintln!("metrics written to {path}"),
        Err(e) => eprintln!("cannot write metrics to {path}: {e}"),
    }
    let exposition = ld_metrics::to_prometheus(&snapshot);
    let prom = format!("{path}.prom");
    if let Err(e) = ld_metrics::validate_exposition(&exposition) {
        eprintln!("metrics exposition failed validation ({e}); writing anyway");
    }
    match std::fs::write(&prom, exposition) {
        Ok(()) => eprintln!("metrics exposition written to {prom}"),
        Err(e) => eprintln!("cannot write metrics exposition to {prom}: {e}"),
    }
}

/// The tracer plus Chrome-trace output path requested by the environment,
/// or `(disabled, None)` when `LD_TRACE` is unset or empty.
pub fn trace_from_env() -> (Tracer, Option<String>) {
    match std::env::var("LD_TRACE") {
        Ok(v) if !v.is_empty() => {
            let path = if v == "1" { "trace.json".to_string() } else { v };
            (Tracer::enabled(), Some(path))
        }
        _ => (Tracer::disabled(), None),
    }
}

/// Writes the trace artifacts to the path from [`trace_from_env`]: the
/// Chrome trace-event JSON at `path` and the folded-stack file at
/// `<path>.folded`. Returns the snapshot so the caller can stamp it into
/// a run manifest. No-op (returning `None`) when tracing was not
/// requested.
pub fn dump_trace(tracer: &Tracer, path: &Option<String>) -> Option<TraceSnapshot> {
    let path = path.as_ref()?;
    let snapshot = tracer.snapshot();
    match std::fs::write(path, snapshot.to_chrome_trace()) {
        Ok(()) => eprintln!("chrome trace written to {path}"),
        Err(e) => eprintln!("cannot write chrome trace to {path}: {e}"),
    }
    let folded = format!("{path}.folded");
    match std::fs::write(&folded, snapshot.to_folded()) {
        Ok(()) => eprintln!("folded stacks written to {folded}"),
        Err(e) => eprintln!("cannot write folded stacks to {folded}: {e}"),
    }
    Some(snapshot)
}

/// Writes the run-provenance manifest next to the trace
/// (`<trace_path>.manifest.json`). The caller builds the manifest with its
/// tool name, seeds and config; this helper stamps the trace/telemetry
/// summaries, records the artifact paths and captures the `LD_*`
/// environment. No-op when tracing was not requested.
pub fn dump_manifest(
    manifest: RunManifest,
    trace_path: &Option<String>,
    trace: Option<&TraceSnapshot>,
    telemetry: &Telemetry,
    telemetry_path: &Option<String>,
    metrics: &Metrics,
    metrics_path: &Option<String>,
) {
    let Some(trace_path) = trace_path else {
        return;
    };
    let mut manifest = manifest
        .capture_env()
        .output("chrome_trace", trace_path)
        .output("folded", format!("{trace_path}.folded"));
    if let Some(snapshot) = trace {
        manifest = manifest.with_trace_summary(snapshot);
    }
    if telemetry.is_enabled() {
        manifest = manifest.with_telemetry_summary(&telemetry.snapshot());
        if let Some(tpath) = telemetry_path {
            manifest = manifest.output("telemetry", tpath);
        }
    }
    if metrics.is_enabled() {
        let snapshot = metrics.snapshot();
        manifest = manifest.with_metrics_summary(snapshot.series(), snapshot.observations());
        if let Some(mpath) = metrics_path {
            manifest = manifest
                .output("metrics", mpath)
                .output("metrics_exposition", format!("{mpath}.prom"));
        }
    }
    let out = format!("{trace_path}.manifest.json");
    if let Err(e) = manifest.validate() {
        eprintln!("run manifest failed validation ({e}); writing anyway");
    }
    match manifest.write_json(&out) {
        Ok(()) => eprintln!("run manifest written to {out}"),
        Err(e) => eprintln!("cannot write run manifest to {out}: {e}"),
    }
}
