//! The self-optimization workloads: `selfopt` (the Fig. 6 search at
//! standard scale, one configuration per trace family) and `search` (the
//! paper's `maxIters = 100` on the Facebook trace, fast budget).
//!
//! One operation is one [`LoadDynamics::optimize`] call. A pass optimizes
//! every configuration once; the run repeats passes for at least the
//! requested seconds and at least twice, so that every pass after the first
//! is checked against the first: identical trial histories (params, values,
//! failure flags) and selected hyperparameters for one seed.

use std::time::Instant;

use ld_api::{walk_forward, Partition, Series};
use ld_bench::scale::ExperimentScale;
use ld_telemetry::Tracer;
use ld_traces::{TraceConfig, WorkloadKind};
use loaddynamics::pipeline::INFEASIBLE_MAPE;
use loaddynamics::{FrameworkConfig, LoadDynamics, OptimizationOutcome};

use crate::layers::{set_nn, union_busy_threads, Folded};
use crate::stats::{median, splitmix64, tail, unit};
use crate::{Ctx, Outcome};

/// Set-up repeats at least this often and for at least this long;
/// `setup_s` is the median repetition.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECS: f64 = 0.2;
const SETUP_MAX_REPS: usize = 1000;

/// The workload's inputs: one series per configuration and the framework
/// configuration that optimizes them.
///
/// The training and validation partitions are the repository's canonical
/// Table I traces (generator seed 0) and the framework seed is 0, as in
/// Fig. 6. The search sees only those partitions, so it does the same work
/// for every seed and optimize times compare across seeds. The workload
/// seed draws the unseen future: every test-partition interval is scaled by
/// its own factor in [0.98, 1.02).
fn inputs(workload: &str, seed: u64) -> (Vec<Series>, FrameworkConfig) {
    let (kinds, scale) = if workload == "selfopt" {
        (WorkloadKind::ALL.to_vec(), ExperimentScale::Standard)
    } else {
        (vec![WorkloadKind::Facebook], ExperimentScale::Fast)
    };
    let series = kinds
        .iter()
        .enumerate()
        .map(|(f, &kind)| {
            let trace = TraceConfig {
                kind,
                interval_mins: kind.intervals()[0],
            }
            .build(0);
            let mut series = scale.cap_series(&trace);
            let test_start = Partition::paper_default(series.len()).val_end;
            for (i, v) in series.values.iter_mut().enumerate().skip(test_start) {
                let bits =
                    splitmix64(seed ^ (f as u64).rotate_left(29) ^ (i as u64).rotate_left(43));
                *v *= 0.98 + 0.04 * unit(bits);
            }
            series
        })
        .collect();
    let mut framework = scale.framework_config(0);
    if workload == "search" {
        // The paper's maxIters.
        framework.max_iters = 100;
    }
    (series, framework)
}

/// Everything that must repeat exactly for one seed.
fn history(outcome: &OptimizationOutcome) -> String {
    let mut s = format!(
        "selected {} val {:016x}\n",
        outcome.hyperparams,
        outcome.val_mape.to_bits()
    );
    for t in &outcome.trials.trials {
        s.push_str(&format!(
            "{:?} {:016x} {}\n",
            t.params,
            t.value.to_bits(),
            t.failed
        ));
    }
    s
}

struct Pass {
    secs: Vec<f64>,
    histories: Vec<String>,
    outcomes: Vec<OptimizationOutcome>,
}

fn run_pass(series: &[Series], config: &FrameworkConfig, tracer: &Tracer) -> Pass {
    let framework = LoadDynamics::new(config.clone().with_tracer(tracer.clone()));
    let mut pass = Pass {
        secs: Vec::new(),
        histories: Vec::new(),
        outcomes: Vec::new(),
    };
    for s in series {
        let t0 = Instant::now();
        let outcome = framework.optimize(s);
        pass.secs.push(t0.elapsed().as_secs_f64());
        pass.histories.push(history(&outcome));
        pass.outcomes.push(outcome);
    }
    pass
}

/// Counts the pass's trials and configurations as operations, failed trials
/// and baseline fallbacks as failures, and checks it against the first pass.
fn account(out: &mut Outcome, pass: &Pass, first: &[String]) {
    for o in &pass.outcomes {
        let failed = o.trials.trials.iter().filter(|t| t.failed).count() as u64;
        out.tally.add(o.trials.trials.len() as u64, failed);
        out.tally.add(1, u64::from(o.predictor.is_fallback()));
    }
    out.tally.check(
        pass.histories == first,
        "trial histories differ between passes of one seed",
    );
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();

    let mut setup = Vec::new();
    let mut made = None;
    while setup.len() < SETUP_MIN_REPS
        || (setup.len() < SETUP_MAX_REPS && setup.iter().sum::<f64>() < SETUP_MIN_SECS)
    {
        let t0 = Instant::now();
        let inputs = inputs(&ctx.workload, ctx.seed);
        setup.push(t0.elapsed().as_secs_f64());
        made = Some(inputs);
    }
    let (series, config) = made.expect("set up at least once");
    out.set("setup_s", median(&setup));
    let lens: Vec<String> = series
        .iter()
        .map(|s| format!("{}:{}", s.name, s.len()))
        .collect();
    out.note(format!(
        "workload {}: {} configs [{}], max_iters {}",
        ctx.workload,
        series.len(),
        lens.join(" "),
        config.max_iters
    ));

    let start = Instant::now();
    let first = run_pass(&series, &config, &Tracer::disabled());
    account(&mut out, &first, &first.histories);
    if ctx.trace {
        trace_run(ctx, start, &mut out, &series, &config, &first);
    } else {
        timed_run(ctx, start, &mut out, &series, &config, first);
    }
    out
}

fn timed_run(
    ctx: &Ctx,
    start: Instant,
    out: &mut Outcome,
    series: &[Series],
    config: &FrameworkConfig,
    first: Pass,
) {
    let mut secs = first.secs.clone();
    let mut passes = 1;
    while passes < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
        let pass = run_pass(series, config, &Tracer::disabled());
        account(out, &pass, &first.histories);
        secs.extend(&pass.secs);
        passes += 1;
    }

    let trials: usize = first.outcomes.iter().map(|o| o.trials.trials.len()).sum();
    // Step 5 of Fig. 6, outside the timed window: the tuned predictors
    // forecast the untouched test partition.
    let mut mapes = Vec::new();
    for (s, outcome) in series.iter().zip(first.outcomes) {
        let mut predictor = outcome.predictor;
        let test_start = Partition::paper_default(s.len()).val_end;
        let mape = walk_forward(&mut predictor, s, test_start).mape();
        out.tally
            .check(mape.is_finite() && mape > 0.0, "test MAPE must be finite");
        out.note(format!(
            "  {}: selected {}, test MAPE {mape:.3}%",
            s.name, outcome.hyperparams
        ));
        mapes.push(mape);
    }
    let pass_ms: Vec<f64> = secs
        .chunks(series.len())
        .map(|pass| pass.iter().sum::<f64>() * 1e3)
        .collect();
    let total_s = pass_ms.iter().sum::<f64>() / 1e3;
    let (tail_label, tail_ms) = match tail(&pass_ms) {
        Some((p, v)) => (format!("p{p}"), v),
        None => (
            "max".to_string(),
            pass_ms.iter().copied().fold(0.0, f64::max),
        ),
    };
    out.set("latency_p50_ms", median(&pass_ms));
    out.set("latency_tail_ms", tail_ms);
    out.set("throughput_per_s", (trials * passes) as f64 / total_s);
    out.set(
        "test_mape_pct",
        mapes.iter().sum::<f64>() / mapes.len() as f64,
    );
    let per_call: Vec<String> = secs.iter().map(|s| format!("{s:.3}")).collect();
    out.note(format!("optimize call seconds: {}", per_call.join(" ")));
    out.note(format!(
        "optimize_s = {} s per pass (median of {passes} passes of {} optimize calls; \
         latency tail is the {tail_label} of {passes} passes)",
        median(&pass_ms) / 1e3,
        series.len(),
    ));
}

/// Per-layer metrics: traced and untraced passes alternate until the
/// run's seconds are used; layer times and counts are per traced pass.
fn trace_run(
    ctx: &Ctx,
    start: Instant,
    out: &mut Outcome,
    series: &[Series],
    config: &FrameworkConfig,
    first: &Pass,
) {
    let tracer = Tracer::enabled();
    let wall_ms = |p: &Pass| p.secs.iter().sum::<f64>() * 1e3;
    let mut untraced = vec![wall_ms(first)];
    let mut traced = Vec::new();
    let (mut trials, mut infeasible) = (0usize, 0usize);
    loop {
        let pass = run_pass(series, config, &tracer);
        account(out, &pass, &first.histories);
        traced.push(wall_ms(&pass));
        for t in pass.outcomes.iter().flat_map(|o| &o.trials.trials) {
            trials += 1;
            infeasible += usize::from(t.value >= INFEASIBLE_MAPE);
        }
        if start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        let pass = run_pass(series, config, &Tracer::disabled());
        account(out, &pass, &first.histories);
        untraced.push(wall_ms(&pass));
    }
    let passes = traced.len() as f64;
    let trace = tracer.snapshot();
    let f = Folded::new(&trace);
    let per_pass = |v: f64| v / passes;

    let untraced_wall = median(&untraced);
    let traced_wall = traced.iter().sum::<f64>() / passes;
    let (init_wall, init_busy, threads) = union_busy_threads(&trace, "init");
    // The initial design runs in parallel: its spans count by the wall
    // time they cover, everything else by self time.
    let attributed = per_pass(f.attributed_ms("search/init") + init_wall);
    set_nn(out, &f, passes);
    out.set("search.init_wall_ms", per_pass(init_wall));
    out.set("search.init_busy_ms", per_pass(init_busy));
    out.set("search.threads", threads as f64);
    out.set("gp.surrogate_fit_ms", per_pass(f.total_ms("surrogate_fit")));
    out.set("gp.gram_build_ms", per_pass(f.total_ms("gram_build")));
    out.set("gp.cholesky_ms", per_pass(f.total_ms("cholesky")));
    out.set("bayesopt.propose_ms", per_pass(f.total_ms("propose")));
    out.set("bayesopt.iters", per_pass(f.calls("iter") as f64));
    out.set("core.retrain_ms", per_pass(f.total_ms("retrain")));
    out.set("core.trials", per_pass(trials as f64));
    out.set("core.infeasible_trials", per_pass(infeasible as f64));
    out.set("unattributed_ms", traced_wall - attributed);
    out.set("attributed_share", attributed / traced_wall);
    out.set("trace_overhead_frac", traced_wall / untraced_wall - 1.0);
    out.note(format!(
        "traced pass {traced_wall:.1} ms (mean of {}), untraced pass {untraced_wall:.1} ms \
         (median of {}); layer times and counts are per pass of {} optimize calls",
        traced.len(),
        untraced.len(),
        series.len()
    ));
}
