//! Seed ensembling — variance reduction for the final predictor.
//!
//! LSTM training is stochastic in its weight initialization and batch
//! order; on short noisy traces (the paper's Facebook configuration) two
//! seeds can differ by several MAPE points. Averaging a few models trained
//! at the *same* tuned hyperparameters is the cheapest variance-reduction
//! available — the search already paid for hyperparameter selection, and
//! the extra trainings parallelize perfectly. This is an extension beyond
//! the paper (which deploys the single best model).

use ld_api::{Partition, Predictor, Series};
use rayon::prelude::*;

use crate::framework::{LoadDynamics, OptimizedPredictor};
use crate::hyperparams::HyperParams;
use crate::pipeline::evaluate_hyperparams_traced;

/// An ensemble of [`OptimizedPredictor`]s sharing hyperparameters but
/// trained from different seeds; predicts the member average.
pub struct SeedEnsemble {
    members: Vec<OptimizedPredictor>,
    hyperparams: HyperParams,
}

impl SeedEnsemble {
    /// Number of member models.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the ensemble has no members (never constructed this way).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The shared tuned hyperparameters.
    pub fn hyperparams(&self) -> HyperParams {
        self.hyperparams
    }
}

impl Predictor for SeedEnsemble {
    fn name(&self) -> String {
        format!("LoadDynamicsEnsemble(x{})", self.members.len())
    }

    fn fit(&mut self, _history: &[f64]) {}

    fn predict(&mut self, history: &[f64]) -> f64 {
        let sum: f64 = self
            .members
            .iter_mut()
            .map(|m| m.predict(history))
            .sum();
        sum / self.members.len() as f64
    }
}

impl LoadDynamics {
    /// Runs the standard self-optimization to pick hyperparameters, then
    /// trains `k` models at those hyperparameters with distinct seeds and
    /// returns their averaging ensemble (trained rayon-parallel).
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn optimize_ensemble(&self, series: &Series, k: usize) -> SeedEnsemble {
        assert!(k >= 1, "ensemble needs at least one member");
        let outcome = self.optimize(series);
        let hyperparams = outcome.hyperparams;
        let partition = Partition::paper_default(series.len());
        let budget = self.config().budget;
        let base_seed = self.config().seed;

        let mut members: Vec<OptimizedPredictor> = (1..k)
            .into_par_iter()
            .filter_map(|j| {
                let seed = base_seed
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(j as u64);
                let out = evaluate_hyperparams_traced(
                    &series.values,
                    &partition,
                    hyperparams,
                    &budget,
                    seed,
                    &ld_telemetry::Telemetry::disabled(),
                    &ld_telemetry::Tracer::disabled(),
                    &self.config().faults,
                );
                out.model.map(|model| {
                    OptimizedPredictor::from_parts(
                        format!("member{j}"),
                        model,
                        out.scaler,
                        hyperparams.history_len,
                    )
                })
            })
            .collect();
        members.push(outcome.predictor);
        SeedEnsemble {
            members,
            hyperparams,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::FrameworkConfig;
    use ld_api::walk_forward;

    fn noisy_series(len: usize) -> Series {
        // Sine plus deterministic jitter, so single seeds wobble.
        Series::new(
            "noisy",
            30,
            (0..len)
                .map(|i| {
                    100.0 + 30.0 * (i as f64 * 0.3).sin() + ((i * 37) % 17) as f64
                })
                .collect(),
        )
    }

    #[test]
    fn ensemble_has_k_members_and_shared_hyperparams() {
        let series = noisy_series(220);
        let framework = LoadDynamics::new(FrameworkConfig::fast_preset(0));
        let ensemble = framework.optimize_ensemble(&series, 3);
        assert_eq!(ensemble.len(), 3);
        assert!(!ensemble.is_empty());
        assert!(ensemble.hyperparams().history_len >= 1);
    }

    #[test]
    fn ensemble_prediction_is_the_member_mean() {
        let series = noisy_series(200);
        let framework = LoadDynamics::new(FrameworkConfig::fast_preset(1));
        let mut ensemble = framework.optimize_ensemble(&series, 3);
        let manual: f64 = ensemble
            .members
            .iter_mut()
            .map(|m| m.predict(&series.values))
            .sum::<f64>()
            / 3.0;
        assert!((ensemble.predict(&series.values) - manual).abs() < 1e-12);
    }

    #[test]
    fn ensemble_tracks_single_model_accuracy() {
        let series = noisy_series(260);
        let partition = Partition::paper_default(series.len());
        let framework = LoadDynamics::new(FrameworkConfig::fast_preset(2));
        let single = framework.optimize(&series);
        let mut single_pred = single.predictor;
        let single_mape = walk_forward(&mut single_pred, &series, partition.val_end).mape();
        let mut ensemble = framework.optimize_ensemble(&series, 3);
        let ensemble_mape = walk_forward(&mut ensemble, &series, partition.val_end).mape();
        // Averaging cannot catastrophically hurt; allow modest slack since
        // extra members trained without the selection bias may differ.
        assert!(
            ensemble_mape < single_mape * 1.5 + 2.0,
            "ensemble {ensemble_mape} vs single {single_mape}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn zero_member_ensemble_rejected() {
        let series = noisy_series(200);
        LoadDynamics::new(FrameworkConfig::fast_preset(3)).optimize_ensemble(&series, 0);
    }
}
