//! The end-to-end LSTM forecaster of the paper's Fig. 3: a stack of LSTM
//! layers unrolled over the input window `J_{i-n} .. J_{i-1}`, with the
//! final hidden state fed through a fully-connected layer `T` to produce the
//! scalar prediction `P_i`.

use ld_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::dense::{Dense, DenseGrads};
use crate::loss::squared_error_grad;
use crate::lstm::{LstmGrads, LstmLayer};
use crate::workspace::{self, Workspace};

/// Architecture hyperparameters of one forecaster — exactly the four knobs
/// LoadDynamics tunes per workload (Section III-A), minus batch size which
/// belongs to the trainer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForecasterConfig {
    /// History length `n`: how many past JARs the model sees.
    pub history_len: usize,
    /// Cell-memory size `s` (units per LSTM layer).
    pub hidden_size: usize,
    /// Number of stacked LSTM layers.
    pub num_layers: usize,
    /// RNG seed for weight initialization.
    pub seed: u64,
}

impl ForecasterConfig {
    /// Validates the configuration, returning a description of the problem
    /// if it is unusable.
    pub fn validate(&self) -> Result<(), String> {
        if self.history_len == 0 {
            return Err("history_len must be >= 1".into());
        }
        if self.hidden_size == 0 {
            return Err("hidden_size must be >= 1".into());
        }
        if self.num_layers == 0 {
            return Err("num_layers must be >= 1".into());
        }
        Ok(())
    }
}

/// Gradients for a whole forecaster, mirroring its layer structure.
#[derive(Debug, Clone)]
pub struct ForecasterGrads {
    /// Per-LSTM-layer gradients, bottom first.
    pub lstm: Vec<LstmGrads>,
    /// Head gradients.
    pub head: DenseGrads,
}

impl ForecasterGrads {
    /// Accumulates another gradient set elementwise.
    pub fn accumulate(&mut self, other: &ForecasterGrads) {
        assert_eq!(self.lstm.len(), other.lstm.len());
        for (a, b) in self.lstm.iter_mut().zip(&other.lstm) {
            a.accumulate(b);
        }
        self.head.accumulate(&other.head);
    }

    /// Scales every gradient (e.g. by `1/batch_size`).
    pub fn scale(&mut self, alpha: f64) {
        for g in &mut self.lstm {
            g.scale(alpha);
        }
        self.head.scale(alpha);
    }

    /// Global L2 norm across all gradient tensors.
    pub fn global_norm(&self) -> f64 {
        let mut ss = 0.0;
        for g in &self.lstm {
            ss += g.dw.sum_squares() + g.du.sum_squares() + g.db.sum_squares();
        }
        ss += self.head.dw.sum_squares() + self.head.db.sum_squares();
        ss.sqrt()
    }

    /// Clips the global norm to `max_norm` (TensorFlow's `clip_by_global_norm`),
    /// the standard defence against LSTM gradient explosion the paper cites.
    /// Returns whether clipping actually fired.
    pub fn clip_global_norm(&mut self, max_norm: f64) -> bool {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            self.scale(max_norm / norm);
            return true;
        }
        false
    }
}

/// A stacked-LSTM scalar forecaster (the function `f` of Eq. 1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LstmForecaster {
    config: ForecasterConfig,
    layers: Vec<LstmLayer>,
    head: Dense,
}

impl LstmForecaster {
    /// Builds a forecaster with freshly initialized weights.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`ForecasterConfig::validate`]); the framework layer validates before
    /// construction.
    pub fn new(config: ForecasterConfig) -> Self {
        // ld-lint: allow(unwrap-in-core, "documented constructor contract: the panic is the advertised behavior for invalid configs; framework callers validate via ForecasterConfig::validate before constructing")
        config.validate().expect("invalid forecaster config");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut layers = Vec::with_capacity(config.num_layers);
        for l in 0..config.num_layers {
            let input_dim = if l == 0 { 1 } else { config.hidden_size };
            layers.push(LstmLayer::new(input_dim, config.hidden_size, &mut rng));
        }
        let head = Dense::new(config.hidden_size, 1, &mut rng);
        LstmForecaster {
            config,
            layers,
            head,
        }
    }

    /// The configuration this forecaster was built with.
    pub fn config(&self) -> &ForecasterConfig {
        &self.config
    }

    /// The stacked LSTM layers, bottom first — read-only access for the
    /// fused batch-inference kernel and snapshot fingerprinting.
    pub fn layers(&self) -> &[LstmLayer] {
        &self.layers
    }

    /// The dense output head, read-only.
    pub fn head(&self) -> &Dense {
        &self.head
    }

    /// Total number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum::<usize>() + self.head.param_count()
    }

    /// Predicts the next value from a window of `history_len` past values.
    ///
    /// # Panics
    /// Panics if `window.len() != history_len`.
    pub fn predict(&self, window: &[f64]) -> f64 {
        workspace::with_thread_workspace(|ws| self.forward_ws(window, ws))
    }

    /// Allocation-free forward pass through the stack using a caller-owned
    /// workspace. The layer-0 input *is* the window (`input_dim == 1`, so
    /// the flat `T x 1` sequence is the window itself — no copy); each
    /// deeper layer reads the previous layer's cached hidden sequence.
    fn forward_ws(&self, window: &[f64], ws: &mut Workspace) -> f64 {
        assert_eq!(
            window.len(),
            self.config.history_len,
            "window length {} != history_len {}",
            window.len(),
            self.config.history_len
        );
        let steps = self.config.history_len;
        let n = self.layers.len();
        ws.ensure_lstm_caches(n);
        for (idx, layer) in self.layers.iter().enumerate() {
            let (done, rest) = ws.lstm_caches.split_at_mut(idx);
            let cache = &mut rest[0];
            if idx == 0 {
                layer.forward_into(window, steps, &mut ws.z, cache);
            } else {
                layer.forward_into(done[idx - 1].hidden_sequence(), steps, &mut ws.z, cache);
            }
        }
        let mut out = [0.0f64; 1];
        self.head.forward_into(ws.lstm_caches[n - 1].last_hidden(), &mut out);
        out[0]
    }

    /// Computes the squared-error loss for one sample and *accumulates* its
    /// gradients into `grads` (the batch accumulator), reusing this
    /// thread's workspace — the trainer's allocation-free inner loop.
    ///
    /// # Panics
    /// Panics if `grads` does not match this model's layer structure.
    pub fn sample_grads_into(
        &self,
        window: &[f64],
        target: f64,
        grads: &mut ForecasterGrads,
    ) -> f64 {
        workspace::with_thread_workspace(|ws| self.sample_grads_ws(window, target, grads, ws))
    }

    /// Computes the squared-error loss and its gradients for one sample.
    ///
    /// Returns `(loss, grads)` where `loss = (pred - target)^2`.
    pub fn sample_grads(&self, window: &[f64], target: f64) -> (f64, ForecasterGrads) {
        let mut grads = self.zero_grads();
        let loss = self.sample_grads_into(window, target, &mut grads);
        (loss, grads)
    }

    fn sample_grads_ws(
        &self,
        window: &[f64],
        target: f64,
        grads: &mut ForecasterGrads,
        ws: &mut Workspace,
    ) -> f64 {
        let n = self.layers.len();
        assert_eq!(grads.lstm.len(), n, "grads layer count mismatch");
        let pred = self.forward_ws(window, ws);
        let loss = (pred - target) * (pred - target);
        let dpred = squared_error_grad(pred, target);

        let steps = self.config.history_len;
        let hidden = self.config.hidden_size;

        // Head backward: gradient into the top layer's final hidden state.
        ws.head_dh.clear();
        ws.head_dh.resize(hidden, 0.0);
        self.head.backward_into(
            ws.lstm_caches[n - 1].last_hidden(),
            &[dpred],
            &mut grads.head,
            &mut ws.head_dh,
        );

        // Gradient into the top layer's hidden sequence: zero except at the
        // final step.
        ws.dseq_a.clear();
        ws.dseq_a.resize(steps * hidden, 0.0);
        ws.dseq_a[(steps - 1) * hidden..].copy_from_slice(&ws.head_dh);

        // Reverse sweep; each layer's dx sequence becomes the dh sequence
        // of the layer below (buffers swap instead of reallocating).
        for idx in (0..n).rev() {
            let layer = &self.layers[idx];
            ws.dseq_b.clear();
            ws.dseq_b.resize(steps * layer.input_dim(), 0.0);
            layer.backward_into(
                &ws.lstm_caches[idx],
                &ws.dseq_a,
                &mut grads.lstm[idx],
                &mut ws.dseq_b,
                &mut ws.dz,
                &mut ws.dh_next,
                &mut ws.dc_next,
            );
            std::mem::swap(&mut ws.dseq_a, &mut ws.dseq_b);
        }
        loss
    }

    /// Pre-change prediction path (nested-`Vec` caches, sequential dots),
    /// retained as the serving oracle and the perfbench "before" model:
    /// the batched inference kernel matches it bitwise.
    ///
    /// # Panics
    /// Panics if `window.len() != history_len`.
    pub fn predict_reference(&self, window: &[f64]) -> f64 {
        assert_eq!(
            window.len(),
            self.config.history_len,
            "window length {} != history_len {}",
            window.len(),
            self.config.history_len
        );
        let mut seq: Vec<Vec<f64>> = window.iter().map(|&v| vec![v]).collect();
        for layer in &self.layers {
            seq = layer.forward_reference(&seq).hidden_sequence().to_vec();
        }
        self.head.forward(&seq[seq.len() - 1])[0]
    }

    /// Zeroed gradients matching this model's structure.
    pub fn zero_grads(&self) -> ForecasterGrads {
        ForecasterGrads {
            lstm: self
                .layers
                .iter()
                .map(|l| LstmGrads::zeros(l.input_dim(), l.hidden()))
                .collect(),
            head: DenseGrads::zeros(1, self.config.hidden_size),
        }
    }

    /// Visits `(parameter, gradient)` tensor pairs in a fixed order for the
    /// optimizer.
    pub fn visit_params(&mut self, grads: &ForecasterGrads, f: &mut impl FnMut(&mut Matrix, &Matrix)) {
        assert_eq!(grads.lstm.len(), self.layers.len());
        for (layer, g) in self.layers.iter_mut().zip(&grads.lstm) {
            layer.visit_params(g, f);
        }
        self.head.visit_params(&grads.head, f);
    }

    /// Serializes the trained model to JSON (a model snapshot).
    pub fn to_json(&self) -> String {
        // ld-lint: allow(unwrap-in-core, "infallible by construction: the forecaster is a tree of finite-dim matrices and plain fields, every one of which serializes without error")
        serde_json::to_string(self).expect("forecaster serialization")
    }

    /// Restores a model snapshot produced by [`Self::to_json`].
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ForecasterConfig {
        ForecasterConfig {
            history_len: 4,
            hidden_size: 3,
            num_layers: 2,
            seed: 42,
        }
    }

    #[test]
    fn config_validation() {
        assert!(tiny_config().validate().is_ok());
        let mut c = tiny_config();
        c.history_len = 0;
        assert!(c.validate().is_err());
        c = tiny_config();
        c.hidden_size = 0;
        assert!(c.validate().is_err());
        c = tiny_config();
        c.num_layers = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn predict_is_deterministic_for_a_seed() {
        let a = LstmForecaster::new(tiny_config());
        let b = LstmForecaster::new(tiny_config());
        let w = [0.1, 0.5, 0.3, 0.9];
        assert_eq!(a.predict(&w), b.predict(&w));
    }

    #[test]
    fn different_seeds_give_different_models() {
        let a = LstmForecaster::new(tiny_config());
        let mut cfg = tiny_config();
        cfg.seed = 43;
        let b = LstmForecaster::new(cfg);
        let w = [0.1, 0.5, 0.3, 0.9];
        assert_ne!(a.predict(&w), b.predict(&w));
    }

    #[test]
    #[should_panic(expected = "window length")]
    fn wrong_window_length_panics() {
        let m = LstmForecaster::new(tiny_config());
        m.predict(&[0.1, 0.2]);
    }

    #[test]
    fn param_count_sums_layers() {
        let m = LstmForecaster::new(tiny_config());
        // layer0: 4*3*(1+3+1); layer1: 4*3*(3+3+1); head: 1*(3+1)
        assert_eq!(m.param_count(), 60 + 84 + 4);
    }

    /// End-to-end gradient check through the full stacked model.
    #[test]
    fn sample_grads_match_finite_differences() {
        let model = LstmForecaster::new(tiny_config());
        let window = [0.2, -0.4, 0.7, 0.1];
        let target = 0.5;
        let (_, grads) = model.sample_grads(&window, target);

        // Flatten analytic grads in visit order.
        let mut analytic: Vec<f64> = Vec::new();
        let mut m = model.clone();
        m.visit_params(&grads, &mut |_p, g| {
            analytic.extend_from_slice(g.as_slice());
        });

        // Finite differences over every parameter, mutated in visit order.
        let eps = 1e-5;
        let zero = model.zero_grads();
        let n_params = model.param_count();
        assert_eq!(analytic.len(), n_params);
        let mut fd: Vec<f64> = Vec::with_capacity(n_params);
        for slot in 0..n_params {
            let mut plus = model.clone();
            let mut seen = 0usize;
            plus.visit_params(&zero, &mut |p, _| {
                let len = p.as_slice().len();
                if slot >= seen && slot < seen + len {
                    p.as_mut_slice()[slot - seen] += eps;
                }
                seen += len;
            });
            let lp = {
                let (pred, _) = (plus.predict(&window), ());
                (pred - target) * (pred - target)
            };
            let mut minus = model.clone();
            seen = 0;
            minus.visit_params(&zero, &mut |p, _| {
                let len = p.as_slice().len();
                if slot >= seen && slot < seen + len {
                    p.as_mut_slice()[slot - seen] -= eps;
                }
                seen += len;
            });
            let lm = {
                let pred = minus.predict(&window);
                (pred - target) * (pred - target)
            };
            fd.push((lp - lm) / (2.0 * eps));
        }
        for (i, (a, f)) in analytic.iter().zip(&fd).enumerate() {
            assert!(
                (a - f).abs() < 1e-5,
                "param {i}: analytic {a} vs fd {f}"
            );
        }
    }

    /// The workspace prediction agrees with the retained pre-change
    /// implementation within 1e-9 relative (the fused gate step reorders
    /// the dot sums).
    #[test]
    fn workspace_path_matches_reference_path() {
        for seed in [42u64, 7, 99] {
            let mut cfg = tiny_config();
            cfg.seed = seed;
            let model = LstmForecaster::new(cfg);
            let window = [0.2, -0.4, 0.7, 0.1];
            let p_fast = model.predict(&window);
            let p_ref = model.predict_reference(&window);
            assert!(
                (p_fast - p_ref).abs() <= 1e-9 * (1.0 + p_ref.abs()),
                "seed {seed}: predict {p_fast} vs {p_ref}"
            );
        }
    }

    /// `sample_grads_into` accumulates: two samples into one accumulator
    /// equal the sum of their individual gradients.
    #[test]
    fn sample_grads_into_accumulates() {
        let model = LstmForecaster::new(tiny_config());
        let w1 = [0.2, -0.4, 0.7, 0.1];
        let w2 = [0.9, 0.0, -0.3, 0.5];
        let (l1, g1) = model.sample_grads(&w1, 0.5);
        let (l2, g2) = model.sample_grads(&w2, -0.2);

        let mut acc = model.zero_grads();
        let la = model.sample_grads_into(&w1, 0.5, &mut acc);
        let lb = model.sample_grads_into(&w2, -0.2, &mut acc);
        assert_eq!(la, l1);
        assert_eq!(lb, l2);
        // Accumulating into a warm buffer reorders FP additions relative to
        // summing two fresh gradient sets, so compare with a tight tolerance
        // rather than bitwise.
        let mut expect = g1;
        expect.accumulate(&g2);
        let tol = |m: &ld_linalg::Matrix| 1e-12 * (1.0 + m.frobenius_norm());
        for (a, b) in acc.lstm.iter().zip(&expect.lstm) {
            assert!(a.dw.max_abs_diff(&b.dw) <= tol(&b.dw));
            assert!(a.du.max_abs_diff(&b.du) <= tol(&b.du));
            assert!(a.db.max_abs_diff(&b.db) <= tol(&b.db));
        }
        assert!(acc.head.dw.max_abs_diff(&expect.head.dw) <= tol(&expect.head.dw));
    }

    #[test]
    fn clip_global_norm_caps_large_gradients() {
        let model = LstmForecaster::new(tiny_config());
        let (_, mut grads) = model.sample_grads(&[10.0, -10.0, 10.0, -10.0], 100.0);
        let before = grads.global_norm();
        assert!(before > 1.0);
        grads.clip_global_norm(1.0);
        assert!((grads.global_norm() - 1.0).abs() < 1e-9);
        // Clipping below the norm is a no-op.
        let (_, mut small) = model.sample_grads(&[0.0, 0.0, 0.0, 0.0], 0.0);
        let n = small.global_norm();
        small.clip_global_norm(n + 10.0);
        assert!((small.global_norm() - n).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrip_preserves_predictions() {
        let model = LstmForecaster::new(tiny_config());
        let json = model.to_json();
        let back = LstmForecaster::from_json(&json).unwrap();
        let w = [0.3, 0.6, -0.2, 0.8];
        assert_eq!(model.predict(&w), back.predict(&w));
    }
}
