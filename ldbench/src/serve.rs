//! The serving workloads: 2000 tenants (5 trace families x 400) against the
//! batched [`ServeEngine`], closed loop: the next tick's requests are sent
//! only after the previous tick is answered.
//!
//! - `serve-hot`: every tenant asks once per tick and stays resident.
//! - `serve-spill`: registry capacity `tenants / 64` per shard; each tick the
//!   hot 10% of tenants ask plus a rotating cold 10%, so every tick
//!   rehydrates and spills snapshots through the [`SnapshotStore`]. Every
//!   spill fsyncs, so on a disk-backed checkout its times follow the disk;
//!   `BENCHMARK.json` does not list it, and the traced `serve-hot` run
//!   measures the registry on a short run of this schedule instead.
//!
//! One operation is one tick: submitting its requests plus `tick()`.

use std::path::Path;
use std::time::Instant;

use ld_api::MinMaxScaler;
use ld_metrics::Metrics;
use ld_nn::{
    make_windows, Adam, AdamConfig, ForecasterConfig, LstmForecaster, TrainOptions, Trainer,
};
use ld_serve::{
    response_digest, ClientKey, EngineConfig, ExecMode, LifecycleConfig, ModelSnapshot,
    RegistryConfig, Request, Response, ResponseSource, ServeEngine, SnapshotStore,
};
use ld_telemetry::Tracer;
use ld_traces::{TraceConfig, WorkloadKind};

use crate::layers::{set_nn, Folded};
use crate::stats::{median, percentile, splitmix64, unit, windowed_tail, TAIL_WINDOW};
use crate::{Ctx, Outcome};

const TENANTS: usize = 2000;
const SHARDS: usize = 16;
/// Observations each tenant has before its first request.
const WARMUP: usize = 48;
/// Family model shape: history, hidden units, layers; and training epochs.
const HISTORY: usize = 20;
const HIDDEN: usize = 8;
const LAYERS: usize = 3;
const EPOCHS: usize = 4;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Most recent observations each family model trains on.
const TRAIN_INTERVALS: usize = 1200;
/// Tenants whose snapshots the codec and store are timed on.
const SNAPSHOT_SAMPLE: usize = 64;
/// Timed ticks of the spill schedule in the traced `serve-hot` run.
const PROBE_TICKS: usize = 10;
/// Fewest ticks a run measures.
const MIN_TICKS: usize = 20;
/// Ticks run before timing starts, so the registry reaches its steady
/// resident set and lazily built state exists. They are checked like the
/// rest.
const WARMUP_TICKS: usize = 5;

struct Tenant {
    key: ClientKey,
    family: usize,
    series: Vec<f64>,
    scaler: MinMaxScaler,
}

struct Fleet {
    models: Vec<LstmForecaster>,
    tenants: Vec<Tenant>,
}

/// One trained model per trace family; tenant `t` replays family `t % 5`
/// with its own affine jitter and scaler, so tenants of a family share
/// weights and batch together. The family traces and models are the same
/// for every seed, so every seed costs the same work; the seed draws the
/// tenants' jitter, and with it every request window. Training records a
/// `train#f` span per family under `tracer`.
fn build_fleet(seed: u64, tracer: &Tracer) -> Fleet {
    let mut models = Vec::new();
    let mut family_series = Vec::new();
    for (f, &kind) in WorkloadKind::ALL.iter().enumerate() {
        let trace = TraceConfig {
            kind,
            interval_mins: kind.intervals()[0],
        };
        let series = trace.build(f as u64).values;
        let scaler = MinMaxScaler::fit(&series);
        let recent = &series[series.len().saturating_sub(TRAIN_INTERVALS)..];
        let scaled: Vec<f64> = recent.iter().map(|&v| scaler.transform(v)).collect();
        let mut model = LstmForecaster::new(ForecasterConfig {
            history_len: HISTORY,
            hidden_size: HIDDEN,
            num_layers: LAYERS,
            seed: f as u64,
        });
        let trainer = Trainer::new(TrainOptions {
            batch_size: 32,
            max_epochs: EPOCHS,
            patience: 0,
            shuffle_seed: 0xabcd,
            ..TrainOptions::default()
        });
        let mut opt = Adam::new(AdamConfig::default());
        let span = tracer.span_at("train", f as u64);
        let trainer = trainer.with_tracer(span.tracer());
        trainer.fit(&mut model, &mut opt, &make_windows(&scaled, HISTORY), &[]);
        drop(span);
        models.push(model);
        family_series.push(series);
    }
    let tenants = (0..TENANTS)
        .map(|t| {
            let family = t % models.len();
            let bits = splitmix64(seed ^ (t as u64).rotate_left(17));
            let scale = 0.5 + unit(bits);
            let offset = 5.0 + 10.0 * unit(splitmix64(bits));
            let series: Vec<f64> = family_series[family]
                .iter()
                .map(|&v| v * scale + offset)
                .collect();
            Tenant {
                key: ClientKey::new(
                    format!("tenant-{t:05}"),
                    WorkloadKind::ALL[family].short_name(),
                ),
                family,
                scaler: MinMaxScaler::fit(&series),
                series,
            }
        })
        .collect();
    Fleet { models, tenants }
}

fn snapshot_of(fleet: &Fleet, tenant: &Tenant) -> ModelSnapshot {
    ModelSnapshot::new(fleet.models[tenant.family].clone(), tenant.scaler, HISTORY)
}

/// A provisioned engine over a fresh store directory.
fn engine(
    fleet: &Fleet,
    spill: bool,
    mode: ExecMode,
    dir: &Path,
    tracer: Tracer,
    metrics: Metrics,
) -> ServeEngine {
    let store = SnapshotStore::open(dir).expect("open snapshot store");
    let capacity_per_shard = if spill { TENANTS / 64 } else { TENANTS };
    let mut e = ServeEngine::new(
        EngineConfig {
            mode,
            queue_capacity: TENANTS,
            registry: RegistryConfig {
                shard_count: SHARDS,
                capacity_per_shard,
            },
            lifecycle: LifecycleConfig::default(),
        },
        store,
        tracer,
    )
    .with_metrics(metrics);
    for tenant in &fleet.tenants {
        e.provision(tenant.key.clone(), snapshot_of(fleet, tenant));
    }
    e
}

/// The tenants asking at `tick`.
fn picks(spill: bool, tick: usize) -> Vec<usize> {
    if !spill {
        return (0..TENANTS).collect();
    }
    let hot = TENANTS / 10;
    let cold_start = hot + (tick * hot) % (TENANTS - hot);
    (0..hot)
        .chain(cold_start..(cold_start + hot).min(TENANTS))
        .collect()
}

/// Where tenant `i` is in its series at `tick`: every tenant replays its
/// series, wrapping around after the last observation.
fn position(tenant: &Tenant, tick: usize) -> usize {
    WARMUP + tick % (tenant.series.len() - WARMUP)
}

/// The requests of `tick`. Request ids are `tick * TENANTS + tenant`.
fn schedule(fleet: &Fleet, spill: bool, tick: usize) -> Vec<Request> {
    picks(spill, tick)
        .into_iter()
        .map(|i| {
            let tenant = &fleet.tenants[i];
            let pos = position(tenant, tick);
            Request::new(
                (tick * TENANTS + i) as u64,
                tenant.key.clone(),
                tenant.series[pos - HISTORY..pos].to_vec(),
            )
        })
        .collect()
}

/// The observation the request with `id` forecasts.
fn truth(fleet: &Fleet, id: u64) -> f64 {
    let id = usize::try_from(id).expect("request ids fit usize");
    let tenant = &fleet.tenants[id % TENANTS];
    tenant.series[position(tenant, id / TENANTS)]
}

/// Ticks whose batched answers the serial engine re-checks; all lie below
/// [`MIN_TICKS`], so every run has them.
const CHECK_TICKS: [usize; 4] = [0, 6, 13, MIN_TICKS - 1];

/// What a run of ticks produced. Answers are folded as they arrive, so the
/// benchmark's own memory does not grow with the run length.
#[derive(Default)]
struct Ticks {
    /// Submit plus `tick()` per tick, ms.
    tick_ms: Vec<f64>,
    /// The submit loop alone per tick, ms.
    admit_ms: Vec<f64>,
    /// [`response_digest`] of every tick's answers.
    digests: Vec<u64>,
    /// Answers of the ticks in [`CHECK_TICKS`].
    sampled: Vec<(usize, Vec<Response>)>,
    submitted: u64,
    answered: u64,
    shed: u64,
    /// Degraded or expired answers.
    bad: u64,
    /// Summed absolute percentage error and its count, as in
    /// [`ld_api::mape`] (intervals with a zero actual are skipped).
    ape_sum: f64,
    ape_n: u64,
}

impl Ticks {
    fn mape(&self) -> f64 {
        100.0 * self.ape_sum / self.ape_n.max(1) as f64
    }
}

/// Drives [`WARMUP_TICKS`] untimed ticks, then times `ticks` ticks (or,
/// when `ticks` is `None`, ticks until `seconds` have passed and at least
/// [`MIN_TICKS`] ran).
fn drive(
    e: &mut ServeEngine,
    fleet: &Fleet,
    spill: bool,
    ticks: Option<usize>,
    seconds: f64,
) -> Ticks {
    let mut t = Ticks::default();
    let mut start = Instant::now();
    for tick in 0.. {
        if tick == WARMUP_TICKS {
            start = Instant::now();
        }
        let timed = t.tick_ms.len();
        let more = match ticks {
            Some(n) => timed < n,
            None => timed < MIN_TICKS || start.elapsed().as_secs_f64() < seconds,
        };
        if !more {
            break;
        }
        let reqs = schedule(fleet, spill, tick);
        t.submitted += reqs.len() as u64;
        let t0 = Instant::now();
        for req in reqs {
            if e.submit(req).is_err() {
                t.shed += 1;
            }
        }
        let t1 = Instant::now();
        let answered = e.tick();
        let t2 = Instant::now();
        if tick >= WARMUP_TICKS {
            t.admit_ms.push((t1 - t0).as_secs_f64() * 1e3);
            t.tick_ms.push((t2 - t0).as_secs_f64() * 1e3);
        }

        t.answered += answered.len() as u64;
        t.digests.push(response_digest(&answered));
        for r in &answered {
            if r.degraded || r.source == ResponseSource::Expired {
                t.bad += 1;
            }
            let truth = truth(fleet, r.id);
            if truth != 0.0 {
                t.ape_sum += ((r.value - truth) / truth).abs();
                t.ape_n += 1;
            }
        }
        if CHECK_TICKS.contains(&tick) {
            t.sampled.push((tick, answered));
        }
    }
    t
}

/// Counts every submitted request; shed, unanswered, degraded and expired
/// requests are failures. Checks the engine's registry accounting.
fn account(out: &mut Outcome, t: &Ticks, e: &ServeEngine) {
    let unanswered = t.submitted - t.shed - t.answered;
    out.tally.add(t.submitted, t.bad + t.shed + unanswered);
    let stats = e.stats();
    out.tally.check(
        stats.cache.hits + stats.cache.misses == stats.served,
        "registry hits + misses must equal served requests",
    );
    out.tally
        .check(stats.served == t.answered, "every request answered");
}

pub fn run(ctx: &Ctx) -> Outcome {
    let spill = ctx.workload == "serve-spill";
    let mut out = Outcome::default();
    let dir = |name: &str| ctx.scratch.join(name);

    // Set-up: train the family models, build the fleet, provision the
    // engine (for serve-spill this spills all but the resident snapshots).
    // The traced run traces the training, the nn layer of `setup_s`.
    let setup_tracer = if ctx.trace {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut made: Option<(Fleet, ServeEngine)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((_, old)) = made.take() {
            let old_dir = old.store().dir().to_path_buf();
            drop(old);
            std::fs::remove_dir_all(old_dir).expect("remove set-up store");
        }
        let t0 = Instant::now();
        let fleet = build_fleet(ctx.seed, &setup_tracer);
        let e = engine(
            &fleet,
            spill,
            ExecMode::Batched,
            &dir(&format!("setup{rep}")),
            Tracer::disabled(),
            Metrics::enabled(),
        );
        setup.push(t0.elapsed().as_secs_f64());
        made = Some((fleet, e));
    }
    let (fleet, mut main) = made.expect("set up at least once");
    out.set("setup_s", median(&setup));

    if ctx.trace {
        let f = Folded::new(&setup_tracer.snapshot());
        set_nn(&mut out, &f, SETUP_REPS as f64);
        trace_run(ctx, &mut out, &fleet, spill, main);
        return out;
    }

    let t = drive(&mut main, &fleet, spill, None, ctx.seconds);
    account(&mut out, &t, &main);
    if !spill {
        check_serial(&mut out, &fleet, &t, &dir("serial"));
    }

    let mape = t.mape();
    out.tally
        .check(mape.is_finite() && mape > 0.0, "served MAPE must be finite");
    let service_s: f64 = t.tick_ms.iter().sum::<f64>() / 1e3;
    let (p, tail_ms, windows) = windowed_tail(&t.tick_ms).expect("at least twenty ticks");
    let tail_label = if windows > 0 {
        format!("median p{p} of {windows} windows of {TAIL_WINDOW} ticks")
    } else {
        format!("p{p} of {} ticks", t.tick_ms.len())
    };
    let rps = t.answered as f64 / service_s;
    out.set("latency_p50_ms", median(&t.tick_ms));
    out.set("latency_tail_ms", tail_ms);
    out.set("throughput_per_s", rps);
    out.set("test_mape_pct", mape);
    let mut sorted = t.tick_ms.clone();
    sorted.sort_by(f64::total_cmp);
    out.note(format!(
        "tick ms: p90 {} p95 {} p99 {} max {}",
        percentile(&sorted, 90),
        percentile(&sorted, 95),
        percentile(&sorted, 99),
        sorted[sorted.len() - 1]
    ));
    let cache = main.stats().cache;
    out.note(format!(
        "{} ticks, {} requests; tick_p50_ms = {} ms, tick_tail_ms = {tail_ms} ms ({tail_label}), \
         serve_rps = {rps} req/s; registry {} hits, {} misses, {} evictions",
        t.tick_ms.len(),
        t.submitted,
        median(&t.tick_ms),
        cache.hits,
        cache.misses,
        cache.evictions
    ));
    out
}

/// Correctness, outside the timed window: the batched answers of the
/// sampled ticks against a serial engine, to 1e-9.
fn check_serial(out: &mut Outcome, fleet: &Fleet, t: &Ticks, dir: &Path) {
    let mut serial = engine(
        fleet,
        false,
        ExecMode::Serial,
        dir,
        Tracer::disabled(),
        Metrics::disabled(),
    );
    for (tick, got) in &t.sampled {
        for req in schedule(fleet, false, *tick) {
            serial
                .submit(req)
                .expect("serial check engine must not shed");
        }
        let expect = serial.tick();
        let agree = expect.len() == got.len()
            && expect.iter().zip(got).all(|(s, b)| {
                let scale = s.value.abs().max(b.value.abs()).max(1.0);
                s.id == b.id
                    && !s.degraded
                    && !b.degraded
                    && (s.value - b.value).abs() <= 1e-9 * scale
            });
        out.tally.check(
            agree,
            &format!("batched answers of tick {tick} match the serial engine to 1e-9"),
        );
    }
}

/// Per-layer metrics: an untraced pass, a traced pass and a metrics-off
/// pass over the same schedule, plus the snapshot codec and store timed on
/// the workload's own snapshots. Layer times are per tick.
fn trace_run(ctx: &Ctx, out: &mut Outcome, fleet: &Fleet, spill: bool, mut main: ServeEngine) {
    let dir = |name: &str| ctx.scratch.join(name);
    let plain = drive(&mut main, fleet, spill, None, ctx.seconds / 3.0);
    let ticks = plain.tick_ms.len();
    let tracer = Tracer::enabled();
    let mut traced_engine = engine(
        fleet,
        spill,
        ExecMode::Batched,
        &dir("traced"),
        tracer.clone(),
        Metrics::enabled(),
    );
    let traced = drive(&mut traced_engine, fleet, spill, Some(ticks), 0.0);
    let mut quiet_engine = engine(
        fleet,
        spill,
        ExecMode::Batched,
        &dir("quiet"),
        Tracer::disabled(),
        Metrics::disabled(),
    );
    let quiet = drive(&mut quiet_engine, fleet, spill, Some(ticks), 0.0);
    account(out, &plain, &main);
    account(out, &traced, &traced_engine);
    account(out, &quiet, &quiet_engine);
    out.tally.check(
        plain.digests == traced.digests && plain.digests == quiet.digests,
        "tracing and metrics must not change any answer",
    );

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let mut trace = tracer.snapshot();
    trace
        .spans
        .retain(|s| s.path[0].index >= WARMUP_TICKS as u64);
    let f = Folded::new(&trace);
    let traced_ticks = f.calls("tick") as f64;
    let per_tick = |v: f64| v / traced_ticks;
    let groups = f.calls("batch") as f64;
    let lanes = f.calls("request") as f64;
    out.set("serve.admission_ms", mean(&traced.admit_ms));
    out.set("serve.resolve_ms", per_tick(f.self_ms("resolve")));
    out.set("serve.batch_ms", per_tick(f.total_ms("batch")));
    out.set("serve.tick_self_ms", per_tick(f.self_ms("tick")));
    out.set("serve.batch_groups", per_tick(groups));
    out.set(
        "serve.lanes_per_group",
        if groups > 0.0 { lanes / groups } else { 0.0 },
    );
    // Computed from shapes, not measured: per lane and step each layer's
    // gate GEMM does 4H x (in + H) multiply-adds, plus the H -> 1 head.
    let layer_flops: usize = (0..LAYERS)
        .map(|l| 2 * 4 * HIDDEN * (if l == 0 { 1 } else { HIDDEN } + HIDDEN))
        .sum();
    let lane_flops = (HISTORY * layer_flops + 2 * HIDDEN) as f64;
    out.set("serve.batch_gflop", per_tick(lanes) * lane_flops / 1e9);
    out.set(
        "serve.metrics_ms",
        mean(&plain.tick_ms) - mean(&quiet.tick_ms),
    );
    // The registry layer: on serve-hot nothing misses, so it is measured
    // on a short run of the spill schedule.
    let cache = if spill {
        main.stats().cache
    } else {
        let mut probe = engine(
            fleet,
            true,
            ExecMode::Batched,
            &dir("probe"),
            Tracer::disabled(),
            Metrics::disabled(),
        );
        let t = drive(&mut probe, fleet, true, Some(PROBE_TICKS), 0.0);
        account(out, &t, &probe);
        probe.stats().cache
    };
    out.set("registry.hits", cache.hits as f64);
    out.set("registry.misses", cache.misses as f64);
    out.set("registry.evictions", cache.evictions as f64);
    out.set("registry.rehydrations", cache.rehydrations as f64);
    out.set(
        "registry.hit_rate",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    time_snapshots(out, fleet, &dir("codec"));

    let traced_tick = mean(&traced.tick_ms);
    let attributed = per_tick(f.attributed_ms("") + f.self_ms("tick")) + mean(&traced.admit_ms);
    out.set("unattributed_ms", traced_tick - attributed);
    out.set("attributed_share", attributed / traced_tick);
    out.set(
        "trace_overhead_frac",
        traced_tick / mean(&plain.tick_ms) - 1.0,
    );
    out.note(format!(
        "{ticks} ticks per pass; layer times are per tick; serve.batch_gflop is computed from shapes"
    ));
}

/// Times `to_json`, `from_json`, `SnapshotStore::save` and `load` on a
/// sample of the fleet's snapshots; medians in microseconds.
fn time_snapshots(out: &mut Outcome, fleet: &Fleet, dir: &Path) {
    let store = SnapshotStore::open(dir).expect("open codec store");
    let us = |t0: Instant| t0.elapsed().as_secs_f64() * 1e6;
    let (mut enc, mut dec, mut save, mut load, mut bytes) =
        (vec![], vec![], vec![], vec![], 0usize);
    for tenant in fleet.tenants.iter().step_by(TENANTS / SNAPSHOT_SAMPLE) {
        let snap = snapshot_of(fleet, tenant);
        let t0 = Instant::now();
        let json = snap.to_json();
        enc.push(us(t0));
        bytes += json.len();
        let t0 = Instant::now();
        let back = ModelSnapshot::from_json(&json).expect("decode own snapshot");
        dec.push(us(t0));
        let t0 = Instant::now();
        store.save(&tenant.key, &snap).expect("save snapshot");
        save.push(us(t0));
        let t0 = Instant::now();
        let loaded = store.load(&tenant.key).expect("load snapshot");
        load.push(us(t0));
        out.tally.check(
            back.fingerprint() == snap.fingerprint() && loaded.fingerprint() == snap.fingerprint(),
            "snapshot round trip keeps the weights",
        );
    }
    out.set("snapshot.encode_us", median(&enc));
    out.set("snapshot.decode_us", median(&dec));
    out.set("snapshot.save_us", median(&save));
    out.set("snapshot.load_us", median(&load));
    out.set("snapshot.bytes", bytes as f64 / enc.len() as f64);
}
