//! A GRU (gated recurrent unit) forecaster — the main "LSTM-variant" of
//! the paper's Section VI related work (Cho et al. 2014's cell, as used by
//! several of the cited deep workload predictors).
//!
//! ```text
//! z_t = sigma(W_z x_t + U_z h_{t-1} + b_z)      (update gate)
//! r_t = sigma(W_r x_t + U_r h_{t-1} + b_r)      (reset gate)
//! n_t = tanh (W_n x_t + U_n (r_t . h_{t-1}) + b_n)
//! h_t = (1 - z_t) . n_t + z_t . h_{t-1}
//! ```
//!
//! The layer mirrors [`crate::lstm::LstmLayer`]'s interface (flat strided
//! [`GruCache`], allocation-free `forward_into` / `backward_into`, packed
//! `[z, r, n]` gate blocks) and the [`GruForecaster`] mirrors
//! [`crate::forecaster::LstmForecaster`], so the shared
//! [`crate::trainer::Trainer`] drives both — which is what the
//! `ablation_lstm_vs_gru` experiment needs. Unlike the original
//! implementation, the reset-scaled state `r . h_{t-1}` is cached during the
//! forward unroll instead of being recomputed by the backward pass.

use ld_linalg::{vecops, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::activation::{sigmoid, sigmoid_deriv_from_output, tanh_deriv_from_output};
use crate::dense::{Dense, DenseGrads};
use crate::loss::squared_error_grad;
use crate::workspace::{self, Workspace};

/// One GRU layer with gate blocks packed `[z, r, n]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GruLayer {
    input_dim: usize,
    hidden: usize,
    /// Input weights, `3H x input_dim`.
    w: Matrix,
    /// Recurrent weights, `3H x H`.
    u: Matrix,
    /// Bias, `3H x 1`.
    b: Matrix,
}

/// Gradients for one [`GruLayer`].
#[derive(Debug, Clone)]
pub struct GruGrads {
    /// Input-weight gradient.
    pub dw: Matrix,
    /// Recurrent-weight gradient.
    pub du: Matrix,
    /// Bias gradient.
    pub db: Matrix,
}

impl GruGrads {
    /// Zeroed gradients.
    pub fn zeros(input_dim: usize, hidden: usize) -> Self {
        GruGrads {
            dw: Matrix::zeros(3 * hidden, input_dim),
            du: Matrix::zeros(3 * hidden, hidden),
            db: Matrix::zeros(3 * hidden, 1),
        }
    }

    /// `self += other`.
    pub fn accumulate(&mut self, other: &GruGrads) {
        crate::accumulate_matrix(&mut self.dw, &other.dw);
        crate::accumulate_matrix(&mut self.du, &other.du);
        crate::accumulate_matrix(&mut self.db, &other.db);
    }

    /// Scales all tensors.
    pub fn scale(&mut self, alpha: f64) {
        self.dw.scale(alpha);
        self.du.scale(alpha);
        self.db.scale(alpha);
    }
}

/// Forward-pass record for backprop, stored as flat strided buffers so a
/// reused cache performs zero allocations once grown.
#[derive(Debug, Clone, Default)]
pub struct GruCache {
    steps: usize,
    input_dim: usize,
    hidden: usize,
    /// Inputs, `T x input_dim`, row-major.
    xs: Vec<f64>,
    /// Hidden states, `(T + 1) x H`; row 0 is the zero initial state.
    hs: Vec<f64>,
    /// Post-activation gates per step, `T x 3H`, blocks `[z | r | n]`.
    gates: Vec<f64>,
    /// Reset-scaled state `r_t . h_{t-1}` per step, `T x H` (cached so the
    /// backward pass does not recompute it).
    rh: Vec<f64>,
}

impl GruCache {
    /// Hidden states `h_1..h_T` as one flat `T x H` row-major slice.
    pub fn hidden_sequence(&self) -> &[f64] {
        &self.hs[self.hidden..]
    }

    /// Final hidden state (the zero initial state for an empty cache).
    pub fn last_hidden(&self) -> &[f64] {
        &self.hs[self.steps * self.hidden..]
    }

    /// Unrolled length.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Hidden width `H` of the recorded unroll.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Resizes buffers for a `steps`-long unroll, reusing capacity, and
    /// zeroes the initial-state row.
    fn reset(&mut self, steps: usize, input_dim: usize, hidden: usize) {
        self.steps = steps;
        self.input_dim = input_dim;
        self.hidden = hidden;
        self.xs.resize(steps * input_dim, 0.0);
        self.hs.resize((steps + 1) * hidden, 0.0);
        self.gates.resize(steps * 3 * hidden, 0.0);
        self.rh.resize(steps * hidden, 0.0);
        self.hs[..hidden].fill(0.0);
    }
}

impl GruLayer {
    /// Xavier-initialized layer.
    pub fn new(input_dim: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        assert!(input_dim > 0 && hidden > 0);
        GruLayer {
            input_dim,
            hidden,
            w: Matrix::xavier_uniform(3 * hidden, input_dim, rng),
            u: Matrix::xavier_uniform(3 * hidden, hidden, rng),
            b: Matrix::zeros(3 * hidden, 1),
        }
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Trainable scalar count.
    pub fn param_count(&self) -> usize {
        3 * self.hidden * (self.input_dim + self.hidden + 1)
    }

    /// Visits `(param, grad)` pairs in fixed order.
    pub fn visit_params<'a>(
        &'a mut self,
        grads: &'a GruGrads,
        f: &mut impl FnMut(&mut Matrix, &Matrix),
    ) {
        f(&mut self.w, &grads.dw);
        f(&mut self.u, &grads.du);
        f(&mut self.b, &grads.db);
    }

    /// Unrolls the layer over a flat `steps x input_dim` row-major input
    /// from zero state, recording into a caller-owned cache.
    /// Allocation-free once the cache has grown to size.
    ///
    /// # Panics
    /// Panics if `xs.len() != steps * input_dim`.
    pub fn forward_into(&self, xs: &[f64], steps: usize, cache: &mut GruCache) {
        let h = self.hidden;
        let i_dim = self.input_dim;
        assert_eq!(xs.len(), steps * i_dim, "GRU input dim mismatch");
        cache.reset(steps, i_dim, h);
        cache.xs.copy_from_slice(xs);
        let GruCache {
            xs: cxs,
            hs,
            gates,
            rh,
            ..
        } = cache;
        for t in 0..steps {
            let x = &cxs[t * i_dim..(t + 1) * i_dim];
            let (hs_head, hs_tail) = hs.split_at_mut((t + 1) * h);
            let h_prev = &hs_head[t * h..];
            let h_t = &mut hs_tail[..h];
            let g_row = &mut gates[t * 3 * h..(t + 1) * 3 * h];
            let rh_row = &mut rh[t * h..(t + 1) * h];

            // Update and reset gates read h_prev directly.
            for k in 0..h {
                g_row[k] = sigmoid(
                    vecops::dot4(self.w.row(k), x)
                        + vecops::dot4(self.u.row(k), h_prev)
                        + self.b[(k, 0)],
                );
                g_row[h + k] = sigmoid(
                    vecops::dot4(self.w.row(h + k), x)
                        + vecops::dot4(self.u.row(h + k), h_prev)
                        + self.b[(h + k, 0)],
                );
            }
            // Candidate uses the reset-scaled state, cached for backward.
            for k in 0..h {
                rh_row[k] = g_row[h + k] * h_prev[k];
            }
            for k in 0..h {
                g_row[2 * h + k] = crate::activation::tanh(
                    vecops::dot4(self.w.row(2 * h + k), x)
                        + vecops::dot4(self.u.row(2 * h + k), rh_row)
                        + self.b[(2 * h + k, 0)],
                );
                h_t[k] = (1.0 - g_row[k]) * g_row[2 * h + k] + g_row[k] * h_prev[k];
            }
        }
    }

    /// Exact backward pass without allocating. `dh_seq` is the flat
    /// `steps x H` gradient flowing into `h_1..h_T` from above. Parameter
    /// gradients are *accumulated* into `grads`; `dxs` (flat
    /// `steps x input_dim`) is overwritten. `dzrn` (`3H`, blocks
    /// `[dz | dr | dn]`), `dh_next`, `dh_prev` and `drh` (`H` each) are
    /// scratch buffers sized on entry.
    ///
    /// # Panics
    /// Panics on mismatched `cache`, `dh_seq` or `dxs` shapes.
    #[allow(clippy::too_many_arguments)]
    pub fn backward_into(
        &self,
        cache: &GruCache,
        dh_seq: &[f64],
        grads: &mut GruGrads,
        dxs: &mut [f64],
        dzrn: &mut Vec<f64>,
        dh_next: &mut Vec<f64>,
        dh_prev: &mut Vec<f64>,
        drh: &mut Vec<f64>,
    ) {
        let h = self.hidden;
        let i_dim = self.input_dim;
        let steps = cache.steps;
        assert_eq!(cache.hidden, h, "cache hidden width mismatch");
        assert_eq!(cache.input_dim, i_dim, "cache input dim mismatch");
        assert_eq!(dh_seq.len(), steps * h, "dh sequence length mismatch");
        assert_eq!(dxs.len(), steps * i_dim, "dxs length mismatch");
        dzrn.clear();
        dzrn.resize(3 * h, 0.0);
        dh_next.clear();
        dh_next.resize(h, 0.0);
        dh_prev.clear();
        dh_prev.resize(h, 0.0);
        drh.clear();
        drh.resize(h, 0.0);

        for t in (0..steps).rev() {
            let g_row = &cache.gates[t * 3 * h..(t + 1) * 3 * h];
            let (z_gate, rest) = g_row.split_at(h);
            let (r_gate, n_gate) = rest.split_at(h);
            // Row `t` of hs is the *previous* state (row 0 is h_0).
            let h_prev = &cache.hs[t * h..(t + 1) * h];
            let x_t = &cache.xs[t * i_dim..(t + 1) * i_dim];
            let rh_row = &cache.rh[t * h..(t + 1) * h];
            let dh_row = &dh_seq[t * h..(t + 1) * h];
            let (dz, rest_d) = dzrn.split_at_mut(h);
            let (dr, dn) = rest_d.split_at_mut(h);

            // h_t = (1-z) n + z h_prev
            // dn_pre, dz_pre; dh_prev gets the direct z-path plus gate paths.
            for k in 0..h {
                let dhk = dh_row[k] + dh_next[k];
                let dzk = dhk * (h_prev[k] - n_gate[k]);
                let dnk = dhk * (1.0 - z_gate[k]);
                dz[k] = dzk * sigmoid_deriv_from_output(z_gate[k]);
                dn[k] = dnk * tanh_deriv_from_output(n_gate[k]);
                dh_prev[k] = dhk * z_gate[k];
            }
            // dL/d(rh) = U_n^T dn_pre
            drh.fill(0.0);
            for (k, &dnk) in dn.iter().enumerate() {
                if dnk == 0.0 {
                    continue;
                }
                vecops::axpy(dnk, self.u.row(2 * h + k), drh);
            }
            // rh = r . h_prev
            for k in 0..h {
                dr[k] = drh[k] * h_prev[k] * sigmoid_deriv_from_output(r_gate[k]);
                dh_prev[k] += drh[k] * r_gate[k];
            }

            // Parameter grads and remaining dh_prev contributions from the
            // z and r pre-activations; the n block's recurrent part uses
            // the cached reset-scaled state.
            let dx = &mut dxs[t * i_dim..(t + 1) * i_dim];
            dx.fill(0.0);
            for k in 0..h {
                // z block (rows 0..h)
                if dz[k] != 0.0 {
                    vecops::axpy(dz[k], x_t, grads.dw.row_mut(k));
                    vecops::axpy(dz[k], h_prev, grads.du.row_mut(k));
                    grads.db[(k, 0)] += dz[k];
                    vecops::axpy(dz[k], self.w.row(k), dx);
                    vecops::axpy(dz[k], self.u.row(k), dh_prev);
                }
                // r block (rows h..2h)
                if dr[k] != 0.0 {
                    vecops::axpy(dr[k], x_t, grads.dw.row_mut(h + k));
                    vecops::axpy(dr[k], h_prev, grads.du.row_mut(h + k));
                    grads.db[(h + k, 0)] += dr[k];
                    vecops::axpy(dr[k], self.w.row(h + k), dx);
                    vecops::axpy(dr[k], self.u.row(h + k), dh_prev);
                }
                // n block (rows 2h..3h); recurrent part uses rh.
                if dn[k] != 0.0 {
                    vecops::axpy(dn[k], x_t, grads.dw.row_mut(2 * h + k));
                    vecops::axpy(dn[k], rh_row, grads.du.row_mut(2 * h + k));
                    grads.db[(2 * h + k, 0)] += dn[k];
                    vecops::axpy(dn[k], self.w.row(2 * h + k), dx);
                }
            }
            std::mem::swap(dh_next, dh_prev);
        }
    }

    /// Convenience wrapper over [`Self::forward_into`] for nested-`Vec`
    /// callers that do not reuse buffers (tests, one-off evaluations).
    ///
    /// # Panics
    /// Panics if any input vector has the wrong dimension.
    pub fn forward(&self, xs: &[Vec<f64>]) -> GruCache {
        let mut flat = Vec::with_capacity(xs.len() * self.input_dim);
        for x in xs {
            assert_eq!(x.len(), self.input_dim, "GRU input dim");
            flat.extend_from_slice(x);
        }
        let mut cache = GruCache::default();
        self.forward_into(&flat, xs.len(), &mut cache);
        cache
    }

    /// Convenience wrapper over [`Self::backward_into`]; `dh_seq[t]` is the
    /// gradient flowing into `h_{t+1}` from above. Returns parameter grads
    /// and input grads.
    pub fn backward(&self, cache: &GruCache, dh_seq: &[Vec<f64>]) -> (GruGrads, Vec<Vec<f64>>) {
        let h = self.hidden;
        assert_eq!(dh_seq.len(), cache.steps(), "dh sequence length mismatch");
        let mut flat = Vec::with_capacity(dh_seq.len() * h);
        for d in dh_seq {
            assert_eq!(d.len(), h, "dh width mismatch");
            flat.extend_from_slice(d);
        }
        let mut grads = GruGrads::zeros(self.input_dim, h);
        let mut dxs_flat = vec![0.0; cache.steps() * self.input_dim];
        let (mut dzrn, mut dh_next, mut dh_prev, mut drh) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        self.backward_into(
            cache,
            &flat,
            &mut grads,
            &mut dxs_flat,
            &mut dzrn,
            &mut dh_next,
            &mut dh_prev,
            &mut drh,
        );
        let dxs = dxs_flat
            .chunks(self.input_dim)
            .map(<[f64]>::to_vec)
            .collect();
        (grads, dxs)
    }
}

/// Architecture config for [`GruForecaster`] (same knobs as the LSTM's).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GruConfig {
    /// Input window length.
    pub history_len: usize,
    /// Hidden width per layer.
    pub hidden_size: usize,
    /// Stacked layers.
    pub num_layers: usize,
    /// Init seed.
    pub seed: u64,
}

/// Gradients for the whole GRU forecaster.
#[derive(Debug, Clone)]
pub struct GruForecasterGrads {
    /// Per-layer gradients, bottom first.
    pub layers: Vec<GruGrads>,
    /// Head gradients.
    pub head: DenseGrads,
}

impl GruForecasterGrads {
    /// `self += other`.
    pub fn accumulate(&mut self, other: &GruForecasterGrads) {
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.accumulate(b);
        }
        self.head.accumulate(&other.head);
    }

    /// Scales everything.
    pub fn scale(&mut self, alpha: f64) {
        for g in &mut self.layers {
            g.scale(alpha);
        }
        self.head.scale(alpha);
    }

    /// Global L2 norm.
    pub fn global_norm(&self) -> f64 {
        let mut ss = 0.0;
        for g in &self.layers {
            ss += g.dw.sum_squares() + g.du.sum_squares() + g.db.sum_squares();
        }
        ss += self.head.dw.sum_squares() + self.head.db.sum_squares();
        ss.sqrt()
    }

    /// Global-norm clip. Returns whether clipping actually fired.
    pub fn clip_global_norm(&mut self, max_norm: f64) -> bool {
        let n = self.global_norm();
        if n > max_norm && n > 0.0 {
            self.scale(max_norm / n);
            return true;
        }
        false
    }
}

/// Stacked-GRU scalar forecaster with a linear head.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GruForecaster {
    config: GruConfig,
    layers: Vec<GruLayer>,
    head: Dense,
}

impl GruForecaster {
    /// Fresh forecaster.
    pub fn new(config: GruConfig) -> Self {
        assert!(config.history_len > 0 && config.hidden_size > 0 && config.num_layers > 0);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut layers = Vec::with_capacity(config.num_layers);
        for l in 0..config.num_layers {
            let input_dim = if l == 0 { 1 } else { config.hidden_size };
            layers.push(GruLayer::new(input_dim, config.hidden_size, &mut rng));
        }
        let head = Dense::new(config.hidden_size, 1, &mut rng);
        GruForecaster {
            config,
            layers,
            head,
        }
    }

    /// Architecture config.
    pub fn config(&self) -> &GruConfig {
        &self.config
    }

    /// Trainable scalar count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum::<usize>() + self.head.param_count()
    }

    /// Allocation-free forward pass through the stack; layer 0 reads the
    /// window directly (`input_dim == 1`).
    fn forward_ws(&self, window: &[f64], ws: &mut Workspace) -> f64 {
        assert_eq!(window.len(), self.config.history_len, "window length");
        let steps = self.config.history_len;
        let n = self.layers.len();
        ws.ensure_gru_caches(n);
        for (idx, layer) in self.layers.iter().enumerate() {
            let (done, rest) = ws.gru_caches.split_at_mut(idx);
            let cache = &mut rest[0];
            if idx == 0 {
                layer.forward_into(window, steps, cache);
            } else {
                layer.forward_into(done[idx - 1].hidden_sequence(), steps, cache);
            }
        }
        let mut out = [0.0f64; 1];
        self.head.forward_into(ws.gru_caches[n - 1].last_hidden(), &mut out);
        out[0]
    }

    /// Point prediction.
    pub fn predict(&self, window: &[f64]) -> f64 {
        workspace::with_thread_workspace(|ws| self.forward_ws(window, ws))
    }

    /// Computes the loss for one sample and *accumulates* its gradients
    /// into `grads`, reusing this thread's workspace.
    ///
    /// # Panics
    /// Panics if `grads` does not match this model's layer structure.
    pub fn sample_grads_into(
        &self,
        window: &[f64],
        target: f64,
        grads: &mut GruForecasterGrads,
    ) -> f64 {
        workspace::with_thread_workspace(|ws| self.sample_grads_ws(window, target, grads, ws))
    }

    /// Per-sample loss and gradients.
    pub fn sample_grads(&self, window: &[f64], target: f64) -> (f64, GruForecasterGrads) {
        let mut grads = self.zero_grads();
        let loss = self.sample_grads_into(window, target, &mut grads);
        (loss, grads)
    }

    fn sample_grads_ws(
        &self,
        window: &[f64],
        target: f64,
        grads: &mut GruForecasterGrads,
        ws: &mut Workspace,
    ) -> f64 {
        let n = self.layers.len();
        assert_eq!(grads.layers.len(), n, "grads layer count mismatch");
        let pred = self.forward_ws(window, ws);
        let loss = (pred - target) * (pred - target);
        let dpred = squared_error_grad(pred, target);

        let steps = self.config.history_len;
        let hidden = self.config.hidden_size;

        ws.head_dh.clear();
        ws.head_dh.resize(hidden, 0.0);
        self.head.backward_into(
            ws.gru_caches[n - 1].last_hidden(),
            &[dpred],
            &mut grads.head,
            &mut ws.head_dh,
        );

        ws.dseq_a.clear();
        ws.dseq_a.resize(steps * hidden, 0.0);
        ws.dseq_a[(steps - 1) * hidden..].copy_from_slice(&ws.head_dh);

        for idx in (0..n).rev() {
            let layer = &self.layers[idx];
            ws.dseq_b.clear();
            ws.dseq_b.resize(steps * layer.input_dim(), 0.0);
            layer.backward_into(
                &ws.gru_caches[idx],
                &ws.dseq_a,
                &mut grads.layers[idx],
                &mut ws.dseq_b,
                &mut ws.dz,
                &mut ws.dh_next,
                &mut ws.dc_next,
                &mut ws.drh,
            );
            std::mem::swap(&mut ws.dseq_a, &mut ws.dseq_b);
        }
        loss
    }

    /// Zeroed gradient container.
    pub fn zero_grads(&self) -> GruForecasterGrads {
        GruForecasterGrads {
            layers: self
                .layers
                .iter()
                .map(|l| GruGrads::zeros(l.input_dim(), l.hidden()))
                .collect(),
            head: DenseGrads::zeros(1, self.config.hidden_size),
        }
    }

    /// Visits `(param, grad)` pairs in fixed order.
    pub fn visit_params(
        &mut self,
        grads: &GruForecasterGrads,
        f: &mut impl FnMut(&mut Matrix, &Matrix),
    ) {
        for (layer, g) in self.layers.iter_mut().zip(&grads.layers) {
            layer.visit_params(g, f);
        }
        self.head.visit_params(&grads.head, f);
    }
}

impl crate::trainer::Trainable for GruForecaster {
    type Grads = GruForecasterGrads;

    fn zero_grads(&self) -> Self::Grads {
        GruForecaster::zero_grads(self)
    }
    fn sample_grads(&self, window: &[f64], target: f64) -> (f64, Self::Grads) {
        GruForecaster::sample_grads(self, window, target)
    }
    fn sample_grads_into(&self, window: &[f64], target: f64, grads: &mut Self::Grads) -> f64 {
        GruForecaster::sample_grads_into(self, window, target, grads)
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
    fn apply(&mut self, grads: &Self::Grads, opt: &mut dyn crate::optim::Optimizer) {
        opt.begin_step();
        let mut slot = 0usize;
        self.visit_params(grads, &mut |p, g| {
            opt.update(slot, p, g);
            slot += 1;
        });
    }
    fn predict(&self, window: &[f64]) -> f64 {
        GruForecaster::predict(self, window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{make_windows, Adam, TrainOptions, Trainer};

    fn tiny() -> GruConfig {
        GruConfig {
            history_len: 4,
            hidden_size: 3,
            num_layers: 2,
            seed: 11,
        }
    }

    #[test]
    fn deterministic_and_bounded_hidden() {
        let m = GruForecaster::new(tiny());
        let w = [0.2, -0.5, 0.8, 0.1];
        assert_eq!(m.predict(&w), m.predict(&w));
        // h is a convex combination of tanh outputs and previous h, so
        // every hidden unit stays in [-1, 1].
        let layer = &m.layers[0];
        let cache = layer.forward(&w.iter().map(|&v| vec![v]).collect::<Vec<_>>());
        for hs in cache.hidden_sequence().chunks(layer.hidden()) {
            assert!(hs.iter().all(|v| v.abs() <= 1.0 + 1e-12));
        }
    }

    #[test]
    fn param_count_formula() {
        let m = GruForecaster::new(tiny());
        // layer0: 3*3*(1+3+1), layer1: 3*3*(3+3+1), head: 4.
        assert_eq!(m.param_count(), 45 + 63 + 4);
    }

    /// `sample_grads_into` accumulates on top of existing contents.
    #[test]
    fn sample_grads_into_accumulates() {
        let model = GruForecaster::new(tiny());
        let w1 = [0.3, -0.2, 0.6, -0.4];
        let w2 = [0.0, 0.9, -0.5, 0.2];
        let (l1, g1) = model.sample_grads(&w1, 0.35);
        let (l2, g2) = model.sample_grads(&w2, -0.1);
        let mut acc = model.zero_grads();
        assert_eq!(model.sample_grads_into(&w1, 0.35, &mut acc), l1);
        assert_eq!(model.sample_grads_into(&w2, -0.1, &mut acc), l2);
        let mut expect = g1;
        expect.accumulate(&g2);
        for (a, b) in acc.layers.iter().zip(&expect.layers) {
            assert!(a.dw.max_abs_diff(&b.dw) <= 1e-12 * (1.0 + b.dw.frobenius_norm()));
            assert!(a.du.max_abs_diff(&b.du) <= 1e-12 * (1.0 + b.du.frobenius_norm()));
            assert!(a.db.max_abs_diff(&b.db) <= 1e-12 * (1.0 + b.db.frobenius_norm()));
        }
    }

    /// Full finite-difference gradient check through the stacked GRU —
    /// the reset-gate coupling (`U_n (r . h)`) is the easiest term to get
    /// wrong, so every parameter is checked.
    #[test]
    fn gradients_match_finite_differences() {
        let model = GruForecaster::new(tiny());
        let window = [0.3, -0.2, 0.6, -0.4];
        let target = 0.35;
        let (_, grads) = model.sample_grads(&window, target);

        let mut analytic = Vec::new();
        let mut m = model.clone();
        m.visit_params(&grads, &mut |_p, g| analytic.extend_from_slice(g.as_slice()));

        let zero = model.zero_grads();
        let eps = 1e-5;
        assert_eq!(analytic.len(), model.param_count());
        for (slot, &an) in analytic.iter().enumerate() {
            let perturb = |dir: f64| {
                let mut p = model.clone();
                let mut seen = 0usize;
                p.visit_params(&zero, &mut |t, _| {
                    let len = t.as_slice().len();
                    if slot >= seen && slot < seen + len {
                        t.as_mut_slice()[slot - seen] += dir * eps;
                    }
                    seen += len;
                });
                let pred = p.predict(&window);
                (pred - target) * (pred - target)
            };
            let fd = (perturb(1.0) - perturb(-1.0)) / (2.0 * eps);
            assert!(
                (fd - an).abs() < 1e-5,
                "slot {slot}: fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn gru_learns_a_sine_wave() {
        let series: Vec<f64> = (0..200)
            .map(|i| 0.5 + 0.4 * (i as f64 * 0.3).sin())
            .collect();
        let samples = make_windows(&series, 8);
        let (train, val) = samples.split_at(150);
        let mut model = GruForecaster::new(GruConfig {
            history_len: 8,
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
        trainer.fit(&mut model, &mut opt, train, val);
        let after = Trainer::evaluate(&model, val);
        assert!(after < before * 0.2, "{before} -> {after}");
    }

    #[test]
    fn gru_has_three_quarters_of_lstm_parameters() {
        let gru = GruForecaster::new(GruConfig {
            history_len: 8,
            hidden_size: 10,
            num_layers: 1,
            seed: 0,
        });
        let lstm = crate::forecaster::LstmForecaster::new(crate::ForecasterConfig {
            history_len: 8,
            hidden_size: 10,
            num_layers: 1,
            seed: 0,
        });
        let gru_recurrent = gru.param_count() - 11; // minus head
        let lstm_recurrent = lstm.param_count() - 11;
        assert_eq!(gru_recurrent * 4, lstm_recurrent * 3);
    }
}
