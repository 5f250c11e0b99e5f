//! Mini-batch training loop: shuffling, lane-blocked parallel gradient
//! accumulation, global-norm clipping, and early stopping on a validation
//! split.
//!
//! The loop is generic over [`Trainable`] so the stacked-LSTM forecaster and
//! the feed-forward ablation baseline share one implementation. Each
//! mini-batch is cut into lane blocks of [`LANE_BLOCK`] samples
//! ([`lane_blocks`]); the blocks run on the rayon shim's pool, each into
//! its own gradient partial via [`Trainable::block_grads`], and the
//! partials reduce in block order. The cut depends only on the batch
//! length, so every sum is the same on any number of cores. This is the
//! dominant cost of the whole framework — the Bayesian-optimization loop
//! above trains hundreds of these models.

use std::ops::Range;
use std::time::Duration;

use ld_linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;

use crate::loss::mse;
use crate::optim::Optimizer;
use crate::Sample;

/// Samples per lane block: two of the bitwise GEMM kernel's 8-lane
/// register blocks. A constant, not a knob: the cut, and with it every
/// floating-point sum of a batch, must not depend on the host.
pub const LANE_BLOCK: usize = 16;

/// The lane blocks of a `len`-sample batch: consecutive ranges of
/// [`LANE_BLOCK`] lanes, the last one shorter. A pure function of `len`.
pub fn lane_blocks(len: usize) -> impl Iterator<Item = Range<usize>> {
    (0..len)
        .step_by(LANE_BLOCK)
        .map(move |start| start..(start + LANE_BLOCK).min(len))
}

/// Loss sum and kernel time of one lane block ([`Trainable::block_grads`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlockStats {
    /// Sum of the block's per-sample squared errors.
    pub loss: f64,
    /// Nanoseconds the block spent in its forward unroll (0 for models
    /// whose kernels do not time themselves).
    pub forward_ns: u64,
    /// Nanoseconds the block spent in backpropagation.
    pub bptt_ns: u64,
}

impl std::ops::Add for BlockStats {
    type Output = BlockStats;

    fn add(self, other: BlockStats) -> BlockStats {
        BlockStats {
            loss: self.loss + other.loss,
            forward_ns: self.forward_ns.saturating_add(other.forward_ns),
            bptt_ns: self.bptt_ns.saturating_add(other.bptt_ns),
        }
    }
}

/// A model the [`Trainer`] can fit: cloneable (snapshots for early
/// stopping), thread-safe for parallel gradient evaluation, with an
/// associated gradient type that can be summed.
pub trait Trainable: Clone + Send + Sync {
    /// Gradient container matching the model structure.
    type Grads: Send;

    /// Zeroed gradients.
    fn zero_grads(&self) -> Self::Grads;
    /// Loss and gradients for a single sample.
    fn sample_grads(&self, window: &[f64], target: f64) -> (f64, Self::Grads);
    /// Loss for a single sample with its gradients *accumulated* into an
    /// existing container, returning the loss. Workspace-backed models
    /// override this to skip the per-sample gradient allocation; the
    /// default delegates to [`Self::sample_grads`].
    fn sample_grads_into(&self, window: &[f64], target: f64, grads: &mut Self::Grads) -> f64 {
        let (loss, g) = self.sample_grads(window, target);
        Self::accumulate(grads, &g);
        loss
    }
    /// Loss sum of the samples `lanes` (indices into `samples`) with their
    /// gradients *accumulated* into `grads` — one lane block of a
    /// mini-batch. The default loops [`Self::sample_grads_into`] and times
    /// nothing; the LSTM overrides it with the lane-blocked GEMM kernel
    /// ([`crate::block`]).
    fn block_grads(&self, samples: &[Sample], lanes: &[usize], grads: &mut Self::Grads) -> BlockStats {
        let mut loss = 0.0;
        for &i in lanes {
            loss += self.sample_grads_into(&samples[i].window, samples[i].target, grads);
        }
        BlockStats {
            loss,
            ..BlockStats::default()
        }
    }
    /// Predictions for the samples `lanes`, written to `out` in lane
    /// order. The default loops [`Self::predict`].
    fn predict_block(&self, samples: &[Sample], lanes: &[usize], out: &mut [f64]) {
        for (o, &i) in out.iter_mut().zip(lanes) {
            *o = self.predict(&samples[i].window);
        }
    }
    /// `into += other`.
    fn accumulate(into: &mut Self::Grads, other: &Self::Grads);
    /// Scales gradients in place.
    fn scale(grads: &mut Self::Grads, alpha: f64);
    /// Clips the global gradient norm in place. Returns whether clipping
    /// actually rescaled the gradients (telemetry counts activations).
    fn clip(grads: &mut Self::Grads, max_norm: f64) -> bool;
    /// Applies one optimizer step with the given (already averaged) grads.
    fn apply(&mut self, grads: &Self::Grads, opt: &mut dyn Optimizer);
    /// Point prediction for a window.
    fn predict(&self, window: &[f64]) -> f64;
}

impl Trainable for crate::forecaster::LstmForecaster {
    type Grads = crate::forecaster::ForecasterGrads;

    fn zero_grads(&self) -> Self::Grads {
        crate::forecaster::LstmForecaster::zero_grads(self)
    }
    fn sample_grads(&self, window: &[f64], target: f64) -> (f64, Self::Grads) {
        crate::forecaster::LstmForecaster::sample_grads(self, window, target)
    }
    fn sample_grads_into(&self, window: &[f64], target: f64, grads: &mut Self::Grads) -> f64 {
        crate::forecaster::LstmForecaster::sample_grads_into(self, window, target, grads)
    }
    fn block_grads(&self, samples: &[Sample], lanes: &[usize], grads: &mut Self::Grads) -> BlockStats {
        crate::forecaster::LstmForecaster::block_grads(self, samples, lanes, grads)
    }
    fn predict_block(&self, samples: &[Sample], lanes: &[usize], out: &mut [f64]) {
        crate::forecaster::LstmForecaster::predict_block(self, samples, lanes, out);
    }
    fn accumulate(into: &mut Self::Grads, other: &Self::Grads) {
        into.accumulate(other);
    }
    fn scale(grads: &mut Self::Grads, alpha: f64) {
        grads.scale(alpha);
    }
    fn clip(grads: &mut Self::Grads, max_norm: f64) -> bool {
        grads.clip_global_norm(max_norm)
    }
    fn apply(&mut self, grads: &Self::Grads, opt: &mut dyn Optimizer) {
        opt.begin_step();
        let mut slot = 0usize;
        self.visit_params(grads, &mut |p: &mut Matrix, g: &Matrix| {
            opt.update(slot, p, g);
            slot += 1;
        });
    }
    fn predict(&self, window: &[f64]) -> f64 {
        crate::forecaster::LstmForecaster::predict(self, window)
    }
}

impl Trainable for crate::mlp::MlpForecaster {
    type Grads = crate::mlp::MlpGrads;

    fn zero_grads(&self) -> Self::Grads {
        crate::mlp::MlpForecaster::zero_grads(self)
    }
    fn sample_grads(&self, window: &[f64], target: f64) -> (f64, Self::Grads) {
        crate::mlp::MlpForecaster::sample_grads(self, window, target)
    }
    fn sample_grads_into(&self, window: &[f64], target: f64, grads: &mut Self::Grads) -> f64 {
        crate::mlp::MlpForecaster::sample_grads_into(self, window, target, grads)
    }
    fn accumulate(into: &mut Self::Grads, other: &Self::Grads) {
        into.accumulate(other);
    }
    fn scale(grads: &mut Self::Grads, alpha: f64) {
        grads.scale(alpha);
    }
    fn clip(grads: &mut Self::Grads, max_norm: f64) -> bool {
        grads.clip_global_norm(max_norm)
    }
    fn apply(&mut self, grads: &Self::Grads, opt: &mut dyn Optimizer) {
        opt.begin_step();
        let mut slot = 0usize;
        self.visit_params(grads, &mut |p: &mut Matrix, g: &Matrix| {
            opt.update(slot, p, g);
            slot += 1;
        });
    }
    fn predict(&self, window: &[f64]) -> f64 {
        crate::mlp::MlpForecaster::predict(self, window)
    }
}

/// Knobs for one training run.
#[derive(Debug, Clone, Copy)]
pub struct TrainOptions {
    /// Mini-batch size — the fourth hyperparameter LoadDynamics tunes.
    pub batch_size: usize,
    /// Maximum number of passes over the training data.
    pub max_epochs: usize,
    /// Early-stopping patience: stop after this many epochs without
    /// validation improvement. `0` disables early stopping.
    pub patience: usize,
    /// Minimum validation-MSE improvement that resets patience.
    pub min_delta: f64,
    /// Global gradient-norm clip (`f64::INFINITY` disables clipping).
    pub clip_norm: f64,
    /// Seed for epoch shuffling.
    pub shuffle_seed: u64,
    /// Multiplicative learning-rate decay applied per epoch via gradient
    /// rescaling (`1.0` = constant rate). Values slightly below 1 (e.g.
    /// `0.97`) trade early progress for a finer-grained endgame.
    pub lr_decay: f64,
    /// Divergence-watchdog budget: how many times a non-finite epoch may be
    /// rolled back (restore best weights, reset optimizer state, halve the
    /// learning rate) before the run is declared diverged. `0` disables
    /// recovery — the first non-finite epoch is terminal.
    pub max_divergence_retries: usize,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            batch_size: 32,
            max_epochs: 60,
            patience: 8,
            min_delta: 1e-6,
            clip_norm: 5.0,
            shuffle_seed: 0,
            lr_decay: 1.0,
            max_divergence_retries: 3,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Epochs actually executed (may be fewer than `max_epochs`).
    pub epochs_run: usize,
    /// Training MSE at the end of each epoch.
    pub train_losses: Vec<f64>,
    /// Validation MSE at the end of each epoch (empty when no val set).
    pub val_losses: Vec<f64>,
    /// Best validation MSE observed (train MSE when no val set).
    pub best_loss: f64,
    /// True if early stopping fired.
    pub early_stopped: bool,
    /// Number of watchdog rollbacks performed (non-finite epochs recovered
    /// by restoring the best snapshot and halving the learning rate).
    pub rollbacks: usize,
    /// True if the run exhausted its divergence retries and was aborted.
    /// The model still holds the best finite weights observed (the initial
    /// weights when no epoch ever finished finite), but callers should
    /// treat the trial as failed.
    pub diverged: bool,
}

/// The mini-batch trainer.
#[derive(Debug, Clone, Default)]
pub struct Trainer {
    opts: TrainOptions,
    telemetry: ld_telemetry::Telemetry,
    scope: String,
    tracer: ld_telemetry::Tracer,
    /// Fault plan for the `nan_loss` site (off by default) and the
    /// deterministic key this run draws its decision with.
    faults: ld_faultinject::Faults,
    fault_key: u64,
}

impl Trainer {
    /// Trainer with the given options.
    pub fn new(opts: TrainOptions) -> Self {
        assert!(opts.batch_size > 0, "batch_size must be >= 1");
        assert!(opts.max_epochs > 0, "max_epochs must be >= 1");
        Trainer {
            opts,
            telemetry: ld_telemetry::Telemetry::disabled(),
            scope: String::new(),
            tracer: ld_telemetry::Tracer::disabled(),
            faults: ld_faultinject::Faults::default(),
            fault_key: 0,
        }
    }

    /// Arms the deterministic `nan_loss` fault-injection site for this
    /// trainer. Whether this particular run is afflicted is a pure function
    /// of `key` and the plan in `faults`, so searches replay identically.
    /// A no-op with `Faults::default()`.
    pub fn with_faults(mut self, faults: ld_faultinject::Faults, key: u64) -> Self {
        self.faults = faults;
        self.fault_key = key;
        self
    }

    /// Attaches a telemetry handle; per-epoch events are recorded under
    /// `scope` (e.g. a hyperparameter fingerprint, so concurrent candidate
    /// trainings stay distinguishable and deterministically ordered).
    pub fn with_telemetry(
        mut self,
        telemetry: ld_telemetry::Telemetry,
        scope: impl Into<String>,
    ) -> Self {
        self.telemetry = telemetry;
        self.scope = scope.into();
        self
    }

    /// Attaches a span tracer (usually already scoped to the candidate's
    /// trial span). Each [`Trainer::fit`] records `epoch#e` spans with
    /// `batch#b` / `validate` children; batches additionally carry
    /// synthetic `forward` / `bptt` leaves built from this fit's own block
    /// timings (see [`record_kernel_spans`]).
    pub fn with_tracer(mut self, tracer: ld_telemetry::Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The options in use.
    pub fn options(&self) -> &TrainOptions {
        &self.opts
    }

    /// Mean squared error of `model` over `samples`, predicted in lane
    /// blocks ([`Trainable::predict_block`]) on the shim's pool.
    pub fn evaluate<M: Trainable>(model: &M, samples: &[Sample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let lanes: Vec<usize> = (0..samples.len()).collect();
        let blocks: Vec<&[usize]> = lane_blocks(lanes.len()).map(|r| &lanes[r]).collect();
        let preds: Vec<f64> = blocks
            .par_iter()
            .map(|block| {
                let mut out = vec![0.0; block.len()];
                model.predict_block(samples, block, &mut out);
                out
            })
            .collect::<Vec<Vec<f64>>>()
            .concat();
        let targets: Vec<f64> = samples.iter().map(|s| s.target).collect();
        mse(&preds, &targets)
    }

    /// Fits `model` on `train`, early-stopping on `val` (if non-empty).
    /// On return the model holds the weights of the best validation epoch.
    pub fn fit<M: Trainable>(
        &self,
        model: &mut M,
        opt: &mut dyn Optimizer,
        train: &[Sample],
        val: &[Sample],
    ) -> TrainReport {
        assert!(!train.is_empty(), "empty training set");
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.opts.shuffle_seed);

        let mut best_loss = f64::INFINITY;
        let mut best_model = model.clone();
        let mut since_best = 0usize;
        let mut train_losses = Vec::new();
        let mut val_losses = Vec::new();
        let mut early_stopped = false;
        let mut epochs_run = 0usize;
        // Watchdog state: each rollback halves the effective learning rate
        // on top of the configured decay schedule.
        let mut lr_retreat = 1.0f64;
        let mut rollbacks = 0usize;
        let mut diverged = false;
        // Deterministic per-run fault decision: an afflicted run reports a
        // non-finite loss every epoch, so it exercises the full
        // rollback-then-give-up path of the watchdog.
        let inject_nan = self
            .faults
            .hit(ld_faultinject::FaultSite::NanLoss, self.fault_key);

        let telemetry_on = self.telemetry.is_enabled();
        let trace_on = self.tracer.is_enabled();
        // ld-lint: allow(determinism, "opt-in telemetry timer; timing is observed, never fed back into training")
        let fit_start = telemetry_on.then(std::time::Instant::now);
        // This fit's blocks summed: its forward / bptt kernel nanoseconds.
        let mut fit_kernels = BlockStats::default();

        for epoch in 0..self.opts.max_epochs {
            let epoch_guard = self.tracer.span_at("epoch", epoch as u64);
            let epoch_tracer = epoch_guard.tracer();
            epochs_run += 1;
            if self.opts.lr_decay != 1.0 || lr_retreat != 1.0 {
                opt.set_lr_scale(self.opts.lr_decay.powi(epoch as i32) * lr_retreat);
            }
            order.shuffle(&mut rng);
            let mut epoch_loss_sum = 0.0;
            let mut batches = 0u64;
            let mut clipped_batches = 0u64;
            // ld-lint: allow(determinism, "opt-in telemetry timer; timing is observed, never fed back into training")
            let epoch_start = telemetry_on.then(std::time::Instant::now);

            for (b, chunk) in order.chunks(self.opts.batch_size).enumerate() {
                let batch_guard = epoch_tracer.span_at("batch", b as u64);
                let blocks: Vec<&[usize]> = lane_blocks(chunk.len()).map(|r| &chunk[r]).collect();
                // ld-lint: allow(determinism, "opt-in trace timer; timing is observed, never fed back into training")
                let section_start = trace_on.then(std::time::Instant::now);
                let partials: Vec<(BlockStats, M::Grads)> = blocks
                    .par_iter()
                    .map(|lanes| {
                        let mut grads = model.zero_grads();
                        (model.block_grads(train, lanes, &mut grads), grads)
                    })
                    .collect();
                let section_ns = section_start.map(|s| nanos(s.elapsed()));
                let Some((stats, mut grads)) =
                    partials.into_iter().reduce(|(s1, mut g1), (s2, g2)| {
                        M::accumulate(&mut g1, &g2);
                        (s1 + s2, g1)
                    })
                else {
                    continue;
                };
                fit_kernels = fit_kernels + stats;
                if let Some(section_ns) = section_ns {
                    record_kernel_spans(&batch_guard.tracer(), section_ns, stats);
                }
                let loss_sum = stats.loss;
                if !loss_sum.is_finite() {
                    // Bail before applying: gradients from a non-finite
                    // batch would poison the weights and optimizer moments
                    // the watchdog is about to restore anyway.
                    epoch_loss_sum = f64::NAN;
                    break;
                }
                epoch_loss_sum += loss_sum;
                batches += 1;
                M::scale(&mut grads, 1.0 / chunk.len() as f64);
                if self.opts.clip_norm.is_finite() && M::clip(&mut grads, self.opts.clip_norm) {
                    clipped_batches += 1;
                }
                model.apply(&grads, opt);
            }

            let train_mse = if inject_nan {
                f64::NAN
            } else {
                epoch_loss_sum / train.len() as f64
            };
            train_losses.push(train_mse);
            let monitored = if val.is_empty() {
                train_mse
            } else {
                let validate_guard = epoch_tracer.span("validate");
                let v = Self::evaluate(model, val);
                drop(validate_guard);
                val_losses.push(v);
                v
            };

            if !train_mse.is_finite() || !monitored.is_finite() {
                if telemetry_on {
                    self.telemetry.incr("trainer.divergence_events");
                    self.telemetry
                        .record_with(&self.scope, "divergence", epoch as u64, |e| {
                            e.int("rollbacks_used", rollbacks as u64).flag(
                                "retry",
                                rollbacks < self.opts.max_divergence_retries,
                            );
                        });
                }
                if rollbacks >= self.opts.max_divergence_retries {
                    diverged = true;
                    break;
                }
                rollbacks += 1;
                if telemetry_on {
                    self.telemetry.incr("trainer.watchdog_rollbacks");
                }
                // Restore the last known-good weights (the initial ones if
                // no epoch finished finite yet), drop moment estimates that
                // may have absorbed non-finite gradients, and retreat the
                // learning rate. Patience is deliberately not charged for a
                // recovered epoch.
                *model = best_model.clone();
                opt.reset();
                lr_retreat *= 0.5;
                continue;
            }

            if telemetry_on {
                self.telemetry.incr("trainer.epochs");
                self.telemetry.add("trainer.clip_activations", clipped_batches);
                self.telemetry
                    .record_with(&self.scope, "epoch", epoch as u64, |e| {
                        e.num("train_mse", train_mse)
                            .int("batches", batches)
                            .int("clipped_batches", clipped_batches)
                            .num(
                                "wall_secs",
                                epoch_start.map_or(0.0, |s| s.elapsed().as_secs_f64()),
                            );
                        if !val.is_empty() {
                            e.num("val_mse", monitored);
                        }
                    });
            }

            if monitored + self.opts.min_delta < best_loss {
                best_loss = monitored;
                best_model = model.clone();
                since_best = 0;
            } else {
                since_best += 1;
                if self.opts.patience > 0 && since_best >= self.opts.patience {
                    early_stopped = true;
                    break;
                }
            }
        }

        *model = best_model;
        if let Some(start) = fit_start {
            let wall = start.elapsed().as_secs_f64();
            self.telemetry.observe_secs("trainer.fit", wall);
            self.telemetry
                .observe_secs("nn.gate_matmul", fit_kernels.forward_ns as f64 / 1e9);
            self.telemetry
                .observe_secs("nn.bptt", fit_kernels.bptt_ns as f64 / 1e9);
            if diverged {
                self.telemetry.incr("trainer.diverged_runs");
            }
            self.telemetry.record_with(&self.scope, "fit", 0, |e| {
                e.int("epochs_run", epochs_run as u64)
                    .num("best_loss", best_loss)
                    .flag("early_stopped", early_stopped)
                    .int("rollbacks", rollbacks as u64)
                    .flag("diverged", diverged)
                    .text(
                        "stop_reason",
                        if diverged {
                            "diverged"
                        } else if early_stopped {
                            "patience"
                        } else {
                            "max_epochs"
                        },
                    )
                    .num("wall_secs", wall);
            });
        }
        TrainReport {
            epochs_run,
            train_losses,
            val_losses,
            best_loss,
            early_stopped,
            rollbacks,
            diverged,
        }
    }
}

pub(crate) fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Records a batch's `forward` / `bptt` leaves under `tr` from its blocks'
/// own kernel nanoseconds, ending now. When blocks overlapped on several
/// cores their busy time exceeds the parallel section's wall time
/// (`section_ns`); the leaves are then scaled down to split that wall time
/// in proportion, so they tile the section and never outgrow the batch
/// span (whose self time therefore cannot read negative).
fn record_kernel_spans(tr: &ld_telemetry::Tracer, section_ns: u64, stats: BlockStats) {
    let busy = u128::from(stats.forward_ns) + u128::from(stats.bptt_ns);
    let (forward, bptt) = if busy > u128::from(section_ns) {
        let forward = u64::try_from(u128::from(section_ns) * u128::from(stats.forward_ns) / busy)
            .unwrap_or(section_ns);
        (forward, section_ns - forward)
    } else {
        (stats.forward_ns, stats.bptt_ns)
    };
    tr.record_span("forward", 0, forward, bptt);
    tr.record_span("bptt", 0, bptt, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecaster::{ForecasterConfig, LstmForecaster};
    use crate::mlp::{MlpConfig, MlpForecaster};
    use crate::optim::Adam;
    use crate::make_windows;

    fn sine_series(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| 0.5 + 0.4 * (i as f64 * 0.3).sin())
            .collect()
    }

    #[test]
    fn lstm_learns_a_sine_wave() {
        let series = sine_series(220);
        let n = 8;
        let samples = make_windows(&series, n);
        let (train, val) = samples.split_at(160);
        let mut model = LstmForecaster::new(ForecasterConfig {
            history_len: n,
            hidden_size: 8,
            num_layers: 1,
            seed: 1,
        });
        let before = Trainer::evaluate(&model, val);
        let trainer = Trainer::new(TrainOptions {
            batch_size: 16,
            max_epochs: 40,
            patience: 10,
            ..TrainOptions::default()
        });
        let mut opt = Adam::with_lr(5e-3);
        let report = trainer.fit(&mut model, &mut opt, train, val);
        let after = Trainer::evaluate(&model, val);
        assert!(
            after < before * 0.2,
            "val MSE did not drop enough: {before} -> {after}"
        );
        assert!(report.best_loss <= before);
        assert_eq!(report.train_losses.len(), report.epochs_run);
    }

    #[test]
    fn mlp_learns_linear_map() {
        // target = mean of window: trivially learnable by a linear model.
        let series: Vec<f64> = (0..200).map(|i| ((i * 37) % 100) as f64 / 100.0).collect();
        let n = 4;
        let samples: Vec<Sample> = make_windows(&series, n)
            .into_iter()
            .map(|mut s| {
                s.target = s.window.iter().sum::<f64>() / n as f64;
                s
            })
            .collect();
        let (train, val) = samples.split_at(150);
        let mut model = MlpForecaster::new(MlpConfig {
            history_len: n,
            hidden_size: 8,
            seed: 3,
        });
        let before = Trainer::evaluate(&model, val);
        let trainer = Trainer::new(TrainOptions {
            batch_size: 16,
            max_epochs: 80,
            patience: 20,
            ..TrainOptions::default()
        });
        let mut opt = Adam::with_lr(1e-2);
        trainer.fit(&mut model, &mut opt, train, val);
        let after = Trainer::evaluate(&model, val);
        assert!(after < before * 0.1, "{before} -> {after}");
    }

    #[test]
    fn early_stopping_fires_on_plateau() {
        // Constant series: converges immediately, then plateaus.
        let series = vec![0.5; 80];
        let samples = make_windows(&series, 4);
        let (train, val) = samples.split_at(50);
        let mut model = LstmForecaster::new(ForecasterConfig {
            history_len: 4,
            hidden_size: 4,
            num_layers: 1,
            seed: 2,
        });
        let trainer = Trainer::new(TrainOptions {
            batch_size: 8,
            max_epochs: 200,
            patience: 3,
            ..TrainOptions::default()
        });
        let mut opt = Adam::with_lr(5e-3);
        let report = trainer.fit(&mut model, &mut opt, train, val);
        assert!(report.early_stopped);
        assert!(report.epochs_run < 200);
    }

    #[test]
    fn training_is_deterministic_given_seeds() {
        let series = sine_series(120);
        let samples = make_windows(&series, 6);
        let (train, val) = samples.split_at(80);
        let run = || {
            let mut model = LstmForecaster::new(ForecasterConfig {
                history_len: 6,
                hidden_size: 5,
                num_layers: 1,
                seed: 9,
            });
            let trainer = Trainer::new(TrainOptions {
                batch_size: 100_000, // single full batch: order-independent sum
                max_epochs: 5,
                patience: 0,
                ..TrainOptions::default()
            });
            let mut opt = Adam::with_lr(1e-3);
            trainer.fit(&mut model, &mut opt, train, val);
            Trainer::evaluate(&model, val)
        };
        // Lane blocks are cut by batch length alone and reduce in block
        // order, so even the full-batch sum repeats bit for bit.
        let (a, b) = (run(), run());
        assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
    }

    #[test]
    fn lane_blocks_depend_only_on_batch_length_and_cover_each_lane_once() {
        for len in [0usize, 1, 7, 15, 16, 17, 31, 32, 33, 64, 100, 1024] {
            let blocks: Vec<Range<usize>> = lane_blocks(len).collect();
            assert_eq!(blocks, lane_blocks(len).collect::<Vec<_>>(), "len {len}");
            let mut next = 0;
            for b in &blocks {
                assert_eq!(b.start, next, "len {len}: blocks must tile in order");
                assert!(!b.is_empty() && b.len() <= LANE_BLOCK, "len {len}: block {b:?}");
                next = b.end;
            }
            assert_eq!(next, len, "len {len}: every lane covered");
            assert_eq!(blocks.len(), len.div_ceil(LANE_BLOCK));
        }
    }

    #[test]
    fn refits_are_bitwise_equal_on_warm_dirty_worker_scratch() {
        // Pool workers outlive a fit, so their thread-local workspaces and
        // block tapes carry the previous fit's buffers (here: a larger
        // shape, then a narrower one) into the next one. None of it may
        // leak into the result. Weights and report compare as text: f64
        // JSON and `Debug` output round-trip exactly, so equal text means
        // equal bits.
        let series = sine_series(150);
        let fit = |history_len: usize, hidden_size: usize, num_layers: usize, batch_size: usize| {
            let samples = make_windows(&series, history_len);
            let (train, val) = samples.split_at(110);
            let mut model = LstmForecaster::new(ForecasterConfig {
                history_len,
                hidden_size,
                num_layers,
                seed: 21,
            });
            let trainer = Trainer::new(TrainOptions {
                batch_size,
                max_epochs: 6,
                patience: 0,
                ..TrainOptions::default()
            });
            let mut opt = Adam::with_lr(4e-3);
            let report = trainer.fit(&mut model, &mut opt, train, val);
            (model.to_json(), format!("{report:?}"))
        };
        fit(9, 13, 3, 40);
        let first = fit(6, 7, 2, 12);
        for _ in 0..2 {
            fit(9, 13, 3, 40);
            assert_eq!(fit(6, 7, 2, 12), first);
            fit(3, 11, 1, 5);
            assert_eq!(fit(6, 7, 2, 12), first);
        }
    }

    #[test]
    fn kernel_leaves_fit_inside_their_batch_spans_under_concurrent_fits() {
        // Two traced fits at once, each on its own tracer, with batches of
        // three lane blocks: every batch's forward + bptt leaves come from
        // its own blocks and never exceed the batch span.
        let series = sine_series(140);
        let samples = make_windows(&series, 8);
        let traced_fit = || {
            let tracer = ld_telemetry::Tracer::enabled();
            let mut model = LstmForecaster::new(ForecasterConfig {
                history_len: 8,
                hidden_size: 6,
                num_layers: 2,
                seed: 5,
            });
            let trainer = Trainer::new(TrainOptions {
                batch_size: 40,
                max_epochs: 3,
                patience: 0,
                ..TrainOptions::default()
            })
            .with_tracer(tracer.clone());
            trainer.fit(&mut model, &mut Adam::with_lr(1e-3), &samples, &[]);
            tracer.snapshot()
        };
        let snaps = std::thread::scope(|s| {
            let a = s.spawn(traced_fit);
            let b = s.spawn(traced_fit);
            [a.join().unwrap(), b.join().unwrap()]
        });
        for snap in &snaps {
            let batches: Vec<_> = snap
                .spans
                .iter()
                .filter(|r| r.path.last().is_some_and(|seg| seg.name == "batch"))
                .collect();
            assert_eq!(batches.len(), 3 * samples.len().div_ceil(40));
            for batch in batches {
                let prefix = format!("{}/", batch.path_string());
                let leaves: Vec<_> = snap
                    .spans_with_prefix(&prefix)
                    .into_iter()
                    .filter(|r| r.path.len() == batch.path.len() + 1)
                    .collect();
                let names: Vec<String> = leaves.iter().map(|r| r.leaf()).collect();
                assert_eq!(names, ["bptt", "forward"], "{prefix}");
                let kernel: u64 = leaves.iter().map(|r| r.dur_ns).sum();
                assert!(kernel > 0, "{prefix}: no kernel time");
                assert!(kernel <= batch.dur_ns, "{prefix}: {kernel} > {}", batch.dur_ns);
            }
        }
    }

    #[test]
    fn lr_decay_schedule_still_learns() {
        let series = sine_series(160);
        let samples = make_windows(&series, 6);
        let (train, val) = samples.split_at(120);
        let mut model = LstmForecaster::new(ForecasterConfig {
            history_len: 6,
            hidden_size: 6,
            num_layers: 1,
            seed: 4,
        });
        let before = Trainer::evaluate(&model, val);
        let trainer = Trainer::new(TrainOptions {
            batch_size: 16,
            max_epochs: 30,
            patience: 10,
            lr_decay: 0.95,
            ..TrainOptions::default()
        });
        let mut opt = Adam::with_lr(8e-3);
        trainer.fit(&mut model, &mut opt, train, val);
        let after = Trainer::evaluate(&model, val);
        assert!(after < before * 0.3, "{before} -> {after}");
        // The schedule actually moved the optimizer's effective rate.
        assert!(opt.learning_rate() < 8e-3);
    }

    /// A scalar model whose first `nan_first_calls` gradient evaluations
    /// return non-finite loss/gradients; clones share the call counter so
    /// snapshots taken by the trainer do not reset the fault schedule.
    #[derive(Clone)]
    struct FlakyModel {
        w: Matrix,
        calls: std::sync::Arc<std::sync::atomic::AtomicU64>,
        nan_first_calls: u64,
    }

    impl FlakyModel {
        fn new(nan_first_calls: u64) -> Self {
            FlakyModel {
                w: Matrix::zeros(1, 1),
                calls: std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)),
                nan_first_calls,
            }
        }
    }

    impl Trainable for FlakyModel {
        type Grads = Matrix;

        fn zero_grads(&self) -> Matrix {
            Matrix::zeros(1, 1)
        }
        fn sample_grads(&self, _window: &[f64], target: f64) -> (f64, Matrix) {
            let n = self.calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if n < self.nan_first_calls {
                return (f64::NAN, Matrix::filled(1, 1, f64::NAN));
            }
            let d = self.w[(0, 0)] - target;
            (d * d, Matrix::filled(1, 1, 2.0 * d))
        }
        fn accumulate(into: &mut Matrix, other: &Matrix) {
            into.axpy(1.0, other).unwrap();
        }
        fn scale(grads: &mut Matrix, alpha: f64) {
            for v in grads.as_mut_slice() {
                *v *= alpha;
            }
        }
        fn clip(_grads: &mut Matrix, _max_norm: f64) -> bool {
            false
        }
        fn apply(&mut self, grads: &Matrix, opt: &mut dyn Optimizer) {
            opt.begin_step();
            opt.update(0, &mut self.w, grads);
        }
        fn predict(&self, _window: &[f64]) -> f64 {
            self.w[(0, 0)]
        }
    }

    fn flaky_samples(n: usize) -> Vec<Sample> {
        (0..n)
            .map(|_| Sample {
                window: vec![0.0],
                target: 0.5,
            })
            .collect()
    }

    #[test]
    fn watchdog_recovers_from_one_bad_epoch() {
        let train = flaky_samples(32);
        // Exactly the first epoch's gradient calls are non-finite.
        let mut model = FlakyModel::new(32);
        let trainer = Trainer::new(TrainOptions {
            batch_size: 32,
            max_epochs: 40,
            patience: 0,
            ..TrainOptions::default()
        });
        let mut opt = Adam::with_lr(0.2);
        let report = trainer.fit(&mut model, &mut opt, &train, &[]);
        assert_eq!(report.rollbacks, 1);
        assert!(!report.diverged);
        // Recovery resumed real training: the weight moved towards the
        // target despite the poisoned first epoch.
        assert!(model.predict(&[]).is_finite());
        assert!((model.predict(&[]) - 0.5).abs() < 0.2, "w = {}", model.predict(&[]));
        assert!(report.train_losses[0].is_nan());
        assert!(report.train_losses.last().unwrap().is_finite());
    }

    #[test]
    fn watchdog_declares_divergence_after_retry_budget() {
        let train = flaky_samples(16);
        // Every gradient call is non-finite: recovery can never succeed.
        let mut model = FlakyModel::new(u64::MAX);
        let trainer = Trainer::new(TrainOptions {
            batch_size: 16,
            max_epochs: 50,
            patience: 0,
            max_divergence_retries: 2,
            ..TrainOptions::default()
        });
        let mut opt = Adam::with_lr(0.1);
        let report = trainer.fit(&mut model, &mut opt, &train, &[]);
        assert!(report.diverged);
        assert_eq!(report.rollbacks, 2);
        // 2 recovered epochs + the terminal one.
        assert_eq!(report.epochs_run, 3);
        // The model was left on its last good snapshot (the initial
        // weights), not the poisoned ones.
        assert!(model.predict(&[]).is_finite());
    }

    #[test]
    fn injected_nan_loss_drives_run_to_divergence() {
        let faults = ld_faultinject::Faults::new(
            ld_faultinject::FaultConfig::new(11).with_site(
                ld_faultinject::FaultSite::NanLoss,
                1.0,
                None,
            ),
        );
        let train = flaky_samples(16);
        let mut model = FlakyModel::new(0); // model itself is healthy
        let trainer = Trainer::new(TrainOptions {
            batch_size: 16,
            max_epochs: 20,
            patience: 0,
            max_divergence_retries: 1,
            ..TrainOptions::default()
        })
        .with_faults(faults, 3);
        let mut opt = Adam::with_lr(0.1);
        let report = trainer.fit(&mut model, &mut opt, &train, &[]);
        assert!(report.diverged, "rate-1.0 injection must afflict the run");
        assert_eq!(report.rollbacks, 1);
        // A trainer without the handle trains normally alongside it.
        let mut clean = FlakyModel::new(0);
        let trainer = Trainer::new(TrainOptions {
            batch_size: 16,
            max_epochs: 20,
            patience: 0,
            ..TrainOptions::default()
        });
        let report = trainer.fit(&mut clean, &mut opt, &train, &[]);
        assert!(!report.diverged);
        assert_eq!(report.rollbacks, 0);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_panics() {
        let mut model = LstmForecaster::new(ForecasterConfig {
            history_len: 2,
            hidden_size: 2,
            num_layers: 1,
            seed: 0,
        });
        let trainer = Trainer::new(TrainOptions::default());
        let mut opt = Adam::with_lr(1e-3);
        trainer.fit(&mut model, &mut opt, &[], &[]);
    }
}
