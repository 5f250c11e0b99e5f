//! A single LSTM layer with exact backpropagation-through-time.
//!
//! Implements the cell of the paper's Fig. 4:
//!
//! ```text
//! i_t = sigma(W_i x_t + U_i h_{t-1} + b_i)
//! f_t = sigma(W_f x_t + U_f h_{t-1} + b_f)
//! o_t = sigma(W_o x_t + U_o h_{t-1} + b_o)
//! g_t = tanh (W_g x_t + U_g h_{t-1} + b_g)
//! C_t = f_t . C_{t-1} + i_t . g_t
//! h_t = o_t . tanh(C_t)
//! ```
//!
//! The four gate blocks are packed row-wise into single `W`, `U`, `b`
//! tensors in the order `[i, f, o, g]`. The forward hot path goes further
//! and caches a fused `[W | U | b]` micro-panel ([`ld_linalg::pack`]): the
//! whole `4H` pre-activation is **one** packed mat-vec against
//! `[x_t | h_{t-1} | 1]` per step ([`LstmLayer::gate_step_fused`]), with
//! the per-row-dots step retained as [`LstmLayer::gate_step_reference`].
//! The batched inference kernel rides the same packed panels through
//! [`LstmLayer::packed_input_weights`] /
//! [`LstmLayer::packed_recurrent_weights`], and the lane-blocked training
//! kernel ([`crate::block`]) runs the fused panel as a GEMM over a block of
//! samples, with a packed `[W | U]^T` panel for its backward GEMM.
//!
//! The per-sample path is allocation-free: [`LstmLayer::forward_into`] and
//! [`LstmLayer::backward_into`] write into a caller-owned [`LstmCache`] and
//! scratch buffers (see [`crate::workspace`]). It is the training oracle
//! the block kernel is checked against. Its backward pass pulls `dx`/`dh`
//! from lazily cached weight transposes. Every derived panel and transpose
//! is dropped whenever [`LstmLayer::visit_params`] exposes the weights to
//! an optimizer step. The pre-change forward pass is retained as
//! [`LstmLayer::forward_reference`], the serving oracle (the batched
//! inference kernel matches it bitwise).

use std::sync::OnceLock;

use ld_linalg::pack::PackedA;
use ld_linalg::{vecops, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::activation::{
    sigmoid, sigmoid_deriv_from_output, sigmoid_map, tanh, tanh_deriv_from_output, tanh_map,
};

/// One LSTM layer (the `M` cell of the paper, unrolled over a window).
#[derive(Debug)]
pub struct LstmLayer {
    input_dim: usize,
    hidden: usize,
    /// Input weights, `4H x input_dim`, gate blocks `[i, f, o, g]`.
    w: Matrix,
    /// Recurrent weights, `4H x H`.
    u: Matrix,
    /// Bias, `4H x 1`.
    b: Matrix,
    /// Lazily built `W^T` (`input_dim x 4H`) for the backward `dx` mat-vec;
    /// cleared by `visit_params` whenever the weights may have changed.
    wt: OnceLock<Matrix>,
    /// Lazily built `U^T` (`H x 4H`) for the backward `dh` mat-vec.
    ut: OnceLock<Matrix>,
    /// Lazily packed fused gate panel `[W | U | b]`
    /// (`4H x (input_dim + H + 1)` in micro-panels): one packed mat-vec
    /// over `[x | h_prev | 1]` yields all four gate pre-activations.
    /// Cleared by `visit_params` like the transposes.
    fused_wub: OnceLock<PackedA>,
    /// Lazily packed `W` micro-panels for the batched gate GEMM.
    wpack: OnceLock<PackedA>,
    /// Lazily packed `U` micro-panels for the batched gate GEMM.
    upack: OnceLock<PackedA>,
    /// Lazily packed `[W | U]^T` (`(input_dim + H) x 4H`) for the block
    /// kernel's backward GEMM `[dX; dH_prev] = [W | U]^T dZ`.
    wut_pack: OnceLock<PackedA>,
}

// A clone starts with cold derived caches (transposes, packed panels):
// clones are taken to perturb or archive weights, and a carried-over cache
// would silently serve the *original* parameters if the clone's fields are
// then mutated directly (crate-internal code can; `visit_params` is the
// only public mutation path and invalidates explicitly).
impl Clone for LstmLayer {
    fn clone(&self) -> Self {
        LstmLayer {
            input_dim: self.input_dim,
            hidden: self.hidden,
            w: self.w.clone(),
            u: self.u.clone(),
            b: self.b.clone(),
            wt: OnceLock::new(),
            ut: OnceLock::new(),
            fused_wub: OnceLock::new(),
            wpack: OnceLock::new(),
            upack: OnceLock::new(),
            wut_pack: OnceLock::new(),
        }
    }
}

/// Gradients for one [`LstmLayer`], same shapes as the parameters.
#[derive(Debug, Clone)]
pub struct LstmGrads {
    /// Gradient of the input weights.
    pub dw: Matrix,
    /// Gradient of the recurrent weights.
    pub du: Matrix,
    /// Gradient of the bias.
    pub db: Matrix,
}

impl LstmGrads {
    /// Zeroed gradients for a layer of the given dimensions.
    pub fn zeros(input_dim: usize, hidden: usize) -> Self {
        LstmGrads {
            dw: Matrix::zeros(4 * hidden, input_dim),
            du: Matrix::zeros(4 * hidden, hidden),
            db: Matrix::zeros(4 * hidden, 1),
        }
    }

    /// Accumulates another gradient set (for batch reduction).
    pub fn accumulate(&mut self, other: &LstmGrads) {
        crate::accumulate_matrix(&mut self.dw, &other.dw);
        crate::accumulate_matrix(&mut self.du, &other.du);
        crate::accumulate_matrix(&mut self.db, &other.db);
    }

    /// Scales all gradients (e.g. by `1/batch`).
    pub fn scale(&mut self, alpha: f64) {
        self.dw.scale(alpha);
        self.du.scale(alpha);
        self.db.scale(alpha);
    }
}

/// Everything the backward pass needs from a forward unroll, stored as flat
/// strided buffers (`T` rows of fixed width each) so a reused cache performs
/// zero allocations once grown.
#[derive(Debug, Clone, Default)]
pub struct LstmCache {
    steps: usize,
    input_dim: usize,
    hidden: usize,
    /// Input vectors, `T x input_dim`, row-major.
    xs: Vec<f64>,
    /// Hidden states, `(T + 1) x H`; row 0 is the seeded zero initial state.
    hs: Vec<f64>,
    /// Cell states, `(T + 1) x H`; row 0 is the zero initial state.
    cs: Vec<f64>,
    /// Post-activation gates per step, `T x 4H`, blocks `[i | f | o | g]`.
    gates: Vec<f64>,
    /// `tanh(C_t)` per step, `T x H`.
    tanh_c: Vec<f64>,
    /// Scratch for the fused gate input `[x_t | h_{t-1} | 1]`
    /// (`input_dim + H + 1`), consumed by the packed gate mat-vec.
    gate_in: Vec<f64>,
}

impl LstmCache {
    /// The full hidden-state sequence `h_1 .. h_T` (excludes the initial
    /// zero state) as one flat `T x H` row-major slice — the input to the
    /// next stacked layer.
    pub fn hidden_sequence(&self) -> &[f64] {
        &self.hs[self.hidden..]
    }

    /// Hidden state `h_{t+1}` for step `t` in `0..steps()`.
    pub fn hidden_row(&self, t: usize) -> &[f64] {
        &self.hs[(t + 1) * self.hidden..(t + 2) * self.hidden]
    }

    /// The final hidden state `h_T` fed to the dense head. For an empty
    /// cache this is the seeded zero initial state.
    pub fn last_hidden(&self) -> &[f64] {
        &self.hs[self.steps * self.hidden..]
    }

    /// Number of unrolled steps.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Hidden width `H` of the recorded unroll.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Resizes every buffer for a `steps`-long unroll, reusing capacity,
    /// and seeds the initial state row with zeros. Rows `1..` are left as
    /// garbage for the forward sweep to overwrite.
    fn reset(&mut self, steps: usize, input_dim: usize, hidden: usize) {
        self.steps = steps;
        self.input_dim = input_dim;
        self.hidden = hidden;
        self.xs.resize(steps * input_dim, 0.0);
        self.hs.resize((steps + 1) * hidden, 0.0);
        self.cs.resize((steps + 1) * hidden, 0.0);
        self.gates.resize(steps * 4 * hidden, 0.0);
        self.tanh_c.resize(steps * hidden, 0.0);
        self.gate_in.resize(input_dim + hidden + 1, 0.0);
        self.hs[..hidden].fill(0.0);
        self.cs[..hidden].fill(0.0);
    }
}

/// Forward-pass record of the pre-change implementation (nested `Vec`s),
/// kept for the serving oracle [`LstmLayer::forward_reference`].
#[derive(Debug, Clone)]
pub struct ReferenceLstmCache {
    /// Hidden states `h_0..h_T`; row 0 is the zero initial state.
    hs: Vec<Vec<f64>>,
}

impl ReferenceLstmCache {
    /// Hidden states `h_1..h_T` as rows.
    pub fn hidden_sequence(&self) -> &[Vec<f64>] {
        &self.hs[1..]
    }

    /// The final hidden state.
    pub fn last_hidden(&self) -> &[f64] {
        &self.hs[self.hs.len() - 1]
    }

    /// Number of unrolled steps.
    pub fn steps(&self) -> usize {
        self.hs.len() - 1
    }
}

impl LstmLayer {
    /// Creates a layer with Xavier-initialized weights and the standard
    /// unit forget-gate bias (matches TensorFlow's `unit_forget_bias`).
    pub fn new(input_dim: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        assert!(input_dim > 0 && hidden > 0, "LSTM dims must be positive");
        let w = Matrix::xavier_uniform(4 * hidden, input_dim, rng);
        let u = Matrix::xavier_uniform(4 * hidden, hidden, rng);
        let mut b = Matrix::zeros(4 * hidden, 1);
        // Forget-gate block is rows H..2H.
        for i in hidden..2 * hidden {
            b[(i, 0)] = 1.0;
        }
        LstmLayer {
            input_dim,
            hidden,
            w,
            u,
            b,
            wt: OnceLock::new(),
            ut: OnceLock::new(),
            fused_wub: OnceLock::new(),
            wpack: OnceLock::new(),
            upack: OnceLock::new(),
            wut_pack: OnceLock::new(),
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden-state size (the paper's cell-memory size `s`).
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        4 * self.hidden * (self.input_dim + self.hidden + 1)
    }

    /// Input weights `W` (`4H x input_dim`, gate blocks `[i, f, o, g]`),
    /// read-only — used by the fused batch kernel and snapshot fingerprints.
    pub fn input_weights(&self) -> &Matrix {
        &self.w
    }

    /// Recurrent weights `U` (`4H x H`), read-only.
    pub fn recurrent_weights(&self) -> &Matrix {
        &self.u
    }

    /// Bias `b` (`4H x 1`), read-only.
    pub fn bias(&self) -> &Matrix {
        &self.b
    }

    /// Visits `(parameter, gradient)` tensor pairs in a fixed order, used by
    /// the optimizer. Invalidate-on-step: any visitor may mutate the
    /// weights, so the cached transposes are dropped afterwards and the next
    /// backward pass rebuilds them from the updated weights.
    pub fn visit_params<'a>(
        &'a mut self,
        grads: &'a LstmGrads,
        f: &mut impl FnMut(&mut Matrix, &Matrix),
    ) {
        f(&mut self.w, &grads.dw);
        f(&mut self.u, &grads.du);
        f(&mut self.b, &grads.db);
        self.wt.take();
        self.ut.take();
        self.fused_wub.take();
        self.wpack.take();
        self.upack.take();
        self.wut_pack.take();
    }

    /// `W^T`, built on first use after each parameter update.
    fn w_transposed(&self) -> &Matrix {
        self.wt.get_or_init(|| self.w.transpose())
    }

    /// `U^T`, built on first use after each parameter update.
    fn u_transposed(&self) -> &Matrix {
        self.ut.get_or_init(|| self.u.transpose())
    }

    /// The fused gate panel `[W | U | b]` packed into micro-panels, built
    /// on first use after each parameter update. One packed mat-vec of
    /// this panel against `[x | h_prev | 1]` computes all four gate
    /// pre-activations.
    pub(crate) fn fused_gate_panel(&self) -> &PackedA {
        self.fused_wub.get_or_init(|| {
            let (h4, i_dim, h) = (4 * self.hidden, self.input_dim, self.hidden);
            let width = i_dim + h + 1;
            let mut flat = vec![0.0; h4 * width];
            for (r, row) in flat.chunks_exact_mut(width).enumerate() {
                row[..i_dim].copy_from_slice(self.w.row(r));
                row[i_dim..i_dim + h].copy_from_slice(self.u.row(r));
                row[i_dim + h] = self.b[(r, 0)];
            }
            PackedA::pack(&flat, h4, width)
        })
    }

    /// `[W | U]^T` packed into micro-panels, built on first use after each
    /// parameter update: one GEMM of this panel against a block's `dZ_t`
    /// yields the input and recurrent gradients `[dX; dH_prev]` together.
    pub(crate) fn backward_panel(&self) -> &PackedA {
        self.wut_pack.get_or_init(|| {
            let (h4, i_dim, h) = (4 * self.hidden, self.input_dim, self.hidden);
            let mut flat = vec![0.0; (i_dim + h) * h4];
            for r in 0..h4 {
                for (c, &v) in self.w.row(r).iter().chain(self.u.row(r)).enumerate() {
                    flat[c * h4 + r] = v;
                }
            }
            PackedA::pack(&flat, i_dim + h, h4)
        })
    }

    /// `W` packed into micro-panels for the batched gate GEMM, built on
    /// first use after each parameter update.
    pub fn packed_input_weights(&self) -> &PackedA {
        self.wpack.get_or_init(|| PackedA::from_matrix(&self.w))
    }

    /// `U` packed into micro-panels for the batched gate GEMM.
    pub fn packed_recurrent_weights(&self) -> &PackedA {
        self.upack.get_or_init(|| PackedA::from_matrix(&self.u))
    }

    /// Fused gate step: writes the `4H` pre-activations
    /// `z = W x + U h_prev + b` as **one** packed mat-vec of the cached
    /// `[W | U | b]` panel against `[x | h_prev | 1]` (assembled into
    /// `gate_in`). Each `z` row is a single ascending dot over the
    /// concatenated input, so results agree with the reference step's
    /// three-term combine within 1e-9 relative (not bitwise — the split
    /// points differ).
    ///
    /// # Panics
    /// Panics on mismatched slice lengths.
    pub fn gate_step_fused(
        &self,
        x: &[f64],
        h_prev: &[f64],
        gate_in: &mut [f64],
        z: &mut [f64],
    ) {
        let (i_dim, h) = (self.input_dim, self.hidden);
        assert_eq!(gate_in.len(), i_dim + h + 1, "gate_in length");
        gate_in[..i_dim].copy_from_slice(x);
        gate_in[i_dim..i_dim + h].copy_from_slice(h_prev);
        gate_in[i_dim + h] = 1.0;
        self.fused_gate_panel().matvec_into(gate_in, z);
    }

    /// The pre-change gate step: per-row four-lane dots
    /// `z_r = dot4(W_r, x) + dot4(U_r, h_prev) + b_r`. Retained as the
    /// "before" kernel `ld-perfbench` times the fused step against and the
    /// 1e-9 oracle the equivalence suite pins it to.
    pub fn gate_step_reference(&self, x: &[f64], h_prev: &[f64], z: &mut [f64]) {
        for (r, zr) in z.iter_mut().enumerate() {
            *zr = vecops::dot4(self.w.row(r), x)
                + vecops::dot4(self.u.row(r), h_prev)
                + self.b[(r, 0)];
        }
    }

    /// Unrolls the layer over a flat `steps x input_dim` row-major input
    /// starting from zero state, recording the cache for backprop.
    /// Allocation-free once `z` (the `4H` pre-activation scratch) and the
    /// cache have grown to size.
    ///
    /// # Panics
    /// Panics if `xs.len() != steps * input_dim`.
    pub fn forward_into(
        &self,
        xs: &[f64],
        steps: usize,
        z: &mut Vec<f64>,
        cache: &mut LstmCache,
    ) {
        let h = self.hidden;
        let i_dim = self.input_dim;
        assert_eq!(xs.len(), steps * i_dim, "LSTM input dim mismatch");
        cache.reset(steps, i_dim, h);
        cache.xs.copy_from_slice(xs);
        z.clear();
        z.resize(4 * h, 0.0);

        let LstmCache {
            xs: cxs,
            hs,
            cs,
            gates,
            tanh_c,
            gate_in,
            ..
        } = cache;
        for t in 0..steps {
            let x = &cxs[t * i_dim..(t + 1) * i_dim];
            // Borrow h_{t} read-only and h_{t+1} mutably from one buffer.
            let (hs_head, hs_tail) = hs.split_at_mut((t + 1) * h);
            let h_prev = &hs_head[t * h..];
            let h_t = &mut hs_tail[..h];
            let (cs_head, cs_tail) = cs.split_at_mut((t + 1) * h);
            let c_prev = &cs_head[t * h..];
            let c_t = &mut cs_tail[..h];
            let g_row = &mut gates[t * 4 * h..(t + 1) * 4 * h];
            let tc = &mut tanh_c[t * h..(t + 1) * h];

            // z = W x + U h_prev + b as one packed panel mat-vec.
            self.gate_step_fused(x, h_prev, gate_in, z);

            // Gate blocks are contiguous ([i|f|o] then [g]), so the
            // activations run as two slice-mapped passes the compiler can
            // vectorize; per-element results match the scalar calls exactly.
            g_row.copy_from_slice(z);
            sigmoid_map(&mut g_row[..3 * h]);
            tanh_map(&mut g_row[3 * h..]);
            for k in 0..h {
                c_t[k] = g_row[h + k] * c_prev[k] + g_row[k] * g_row[3 * h + k];
            }
            tc.copy_from_slice(c_t);
            tanh_map(tc);
            for k in 0..h {
                h_t[k] = g_row[2 * h + k] * tc[k];
            }
        }
    }

    /// Backpropagates through the unrolled layer without allocating.
    ///
    /// `dh_seq` is the flat `steps x H` loss gradient flowing into
    /// `h_1..h_T` from above. Parameter gradients are *accumulated* into
    /// `grads` (callers zero or carry a batch accumulator); `dxs` (flat
    /// `steps x input_dim`) is overwritten with the input-sequence gradient.
    /// `dz`/`dh_next`/`dc_next` are scratch buffers sized on entry.
    ///
    /// # Panics
    /// Panics on mismatched `cache`, `dh_seq` or `dxs` shapes.
    #[allow(clippy::too_many_arguments)]
    pub fn backward_into(
        &self,
        cache: &LstmCache,
        dh_seq: &[f64],
        grads: &mut LstmGrads,
        dxs: &mut [f64],
        dz: &mut Vec<f64>,
        dh_next: &mut Vec<f64>,
        dc_next: &mut Vec<f64>,
    ) {
        let h = self.hidden;
        let i_dim = self.input_dim;
        let steps = cache.steps;
        assert_eq!(cache.hidden, h, "cache hidden width mismatch");
        assert_eq!(cache.input_dim, i_dim, "cache input dim mismatch");
        assert_eq!(dh_seq.len(), steps * h, "dh sequence length mismatch");
        assert_eq!(dxs.len(), steps * i_dim, "dxs length mismatch");
        dz.clear();
        dz.resize(4 * h, 0.0);
        dh_next.clear();
        dh_next.resize(h, 0.0);
        dc_next.clear();
        dc_next.resize(h, 0.0);
        let wt = self.w_transposed();
        let ut = self.u_transposed();

        for t in (0..steps).rev() {
            let g_row = &cache.gates[t * 4 * h..(t + 1) * 4 * h];
            let (i_gate, rest) = g_row.split_at(h);
            let (f_gate, rest) = rest.split_at(h);
            let (o_gate, g_gate) = rest.split_at(h);
            let tanh_c = &cache.tanh_c[t * h..(t + 1) * h];
            // Rows `t` of hs/cs are the *previous* states (row 0 is h_0).
            let c_prev = &cache.cs[t * h..(t + 1) * h];
            let h_prev = &cache.hs[t * h..(t + 1) * h];
            let x_t = &cache.xs[t * i_dim..(t + 1) * i_dim];
            let dh_row = &dh_seq[t * h..(t + 1) * h];

            // Total gradient into h_t: from above + from t+1's recurrence.
            // dc_t: from h_t through o*tanh(C_t), plus carried dc_next.
            for k in 0..h {
                let dh = dh_row[k] + dh_next[k];
                let dct = dh * o_gate[k] * tanh_deriv_from_output(tanh_c[k]) + dc_next[k];
                let do_ = dh * tanh_c[k];
                let di = dct * g_gate[k];
                let df = dct * c_prev[k];
                let dg = dct * i_gate[k];

                dz[k] = di * sigmoid_deriv_from_output(i_gate[k]);
                dz[h + k] = df * sigmoid_deriv_from_output(f_gate[k]);
                dz[2 * h + k] = do_ * sigmoid_deriv_from_output(o_gate[k]);
                dz[3 * h + k] = dg * tanh_deriv_from_output(g_gate[k]);

                // Carry cell gradient to t-1.
                dc_next[k] = dct * f_gate[k];
            }

            // Parameter gradients: outer products with x_t and h_prev.
            for (r, &dzr) in dz.iter().enumerate() {
                if dzr == 0.0 {
                    continue;
                }
                vecops::axpy(dzr, x_t, grads.dw.row_mut(r));
                vecops::axpy(dzr, h_prev, grads.du.row_mut(r));
                grads.db[(r, 0)] += dzr;
            }

            // dx_t = W^T dz ; dh_prev = U^T dz — contiguous mat-vecs over
            // the cached transposes instead of per-row strided axpys.
            wt.matvec_into(dz, &mut dxs[t * i_dim..(t + 1) * i_dim]);
            ut.matvec_into(dz, dh_next);
        }
    }

    /// Convenience wrapper over [`Self::forward_into`] for callers that
    /// hold a nested-`Vec` sequence and do not reuse buffers (tests, small
    /// one-off evaluations).
    ///
    /// # Panics
    /// Panics if any input vector has the wrong dimension.
    pub fn forward(&self, xs: &[Vec<f64>]) -> LstmCache {
        let mut flat = Vec::with_capacity(xs.len() * self.input_dim);
        for x in xs {
            assert_eq!(x.len(), self.input_dim, "LSTM input dim mismatch");
            flat.extend_from_slice(x);
        }
        let mut z = Vec::new();
        let mut cache = LstmCache::default();
        self.forward_into(&flat, xs.len(), &mut z, &mut cache);
        cache
    }

    /// Convenience wrapper over [`Self::backward_into`] returning freshly
    /// allocated gradients; `dh_seq[t]` is the loss gradient flowing into
    /// `h_{t+1}` from above.
    pub fn backward(&self, cache: &LstmCache, dh_seq: &[Vec<f64>]) -> (LstmGrads, Vec<Vec<f64>>) {
        let h = self.hidden;
        assert_eq!(dh_seq.len(), cache.steps(), "dh sequence length mismatch");
        let mut flat = Vec::with_capacity(dh_seq.len() * h);
        for d in dh_seq {
            assert_eq!(d.len(), h, "dh width mismatch");
            flat.extend_from_slice(d);
        }
        let mut grads = LstmGrads::zeros(self.input_dim, h);
        let mut dxs_flat = vec![0.0; cache.steps() * self.input_dim];
        let (mut dz, mut dh_next, mut dc_next) = (Vec::new(), Vec::new(), Vec::new());
        self.backward_into(
            cache,
            &flat,
            &mut grads,
            &mut dxs_flat,
            &mut dz,
            &mut dh_next,
            &mut dc_next,
        );
        let dxs = dxs_flat
            .chunks(self.input_dim)
            .map(<[f64]>::to_vec)
            .collect();
        (grads, dxs)
    }

    /// The pre-change forward pass, retained verbatim (per-step `Vec`
    /// allocations, sequential `dot`) as the serving oracle and the
    /// perfbench "before" kernel. Not used by the training hot path.
    pub fn forward_reference(&self, xs: &[Vec<f64>]) -> ReferenceLstmCache {
        let h = self.hidden;
        let t_len = xs.len();
        let mut cache = ReferenceLstmCache {
            hs: Vec::with_capacity(t_len + 1),
        };
        cache.hs.push(vec![0.0; h]);
        let mut c_prev = vec![0.0; h];

        let mut z = vec![0.0; 4 * h];
        for (t, x) in xs.iter().enumerate() {
            assert_eq!(x.len(), self.input_dim, "LSTM input dim mismatch");
            let h_prev = cache.hs[t].clone();

            // z = W x + U h_prev + b
            for (r, zr) in z.iter_mut().enumerate() {
                *zr = vecops::dot(self.w.row(r), x)
                    + vecops::dot(self.u.row(r), &h_prev)
                    + self.b[(r, 0)];
            }
            let i_gate: Vec<f64> = z[0..h].iter().map(|&v| sigmoid(v)).collect();
            let f_gate: Vec<f64> = z[h..2 * h].iter().map(|&v| sigmoid(v)).collect();
            let o_gate: Vec<f64> = z[2 * h..3 * h].iter().map(|&v| sigmoid(v)).collect();
            let g_gate: Vec<f64> = z[3 * h..4 * h].iter().map(|&v| tanh(v)).collect();

            let mut c_t = vec![0.0; h];
            for k in 0..h {
                c_t[k] = f_gate[k] * c_prev[k] + i_gate[k] * g_gate[k];
            }
            let tanh_c: Vec<f64> = c_t.iter().map(|&v| tanh(v)).collect();
            let mut h_t = vec![0.0; h];
            for k in 0..h {
                h_t[k] = o_gate[k] * tanh_c[k];
            }

            c_prev = c_t;
            cache.hs.push(h_t);
        }
        cache
    }

    /// Sum of squares of all parameter entries (for tests/regularization).
    pub fn param_sum_squares(&self) -> f64 {
        self.w.sum_squares() + self.u.sum_squares() + self.b.sum_squares()
    }
}

// Hand-written (de)serialization: the vendored `serde_derive` has no
// `#[serde(skip)]`, and the transpose caches are derived state that must
// not be persisted. The field set and order match what the derive used to
// emit, so pre-existing model snapshots keep loading.
impl Serialize for LstmLayer {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            (String::from("input_dim"), self.input_dim.to_value()),
            (String::from("hidden"), self.hidden.to_value()),
            (String::from("w"), self.w.to_value()),
            (String::from("u"), self.u.to_value()),
            (String::from("b"), self.b.to_value()),
        ])
    }
}

impl Deserialize for LstmLayer {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(LstmLayer {
            input_dim: Deserialize::from_value(v.field("input_dim")?)?,
            hidden: Deserialize::from_value(v.field("hidden")?)?,
            w: Deserialize::from_value(v.field("w")?)?,
            u: Deserialize::from_value(v.field("u")?)?,
            b: Deserialize::from_value(v.field("b")?)?,
            wt: OnceLock::new(),
            ut: OnceLock::new(),
            fused_wub: OnceLock::new(),
            wpack: OnceLock::new(),
            upack: OnceLock::new(),
            wut_pack: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scalar_seq(vals: &[f64]) -> Vec<Vec<f64>> {
        vals.iter().map(|&v| vec![v]).collect()
    }

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = LstmLayer::new(1, 4, &mut rng);
        let cache = layer.forward(&scalar_seq(&[0.1, 0.2, 0.3]));
        assert_eq!(cache.steps(), 3);
        assert_eq!(cache.hidden_sequence().len(), 3 * 4);
        assert_eq!(cache.hidden_row(0).len(), 4);
        assert_eq!(cache.last_hidden().len(), 4);
        assert_eq!(cache.last_hidden(), cache.hidden_row(2));
    }

    #[test]
    fn hidden_state_bounded_by_one() {
        // |h| = |o * tanh(C)| <= 1 elementwise.
        let mut rng = StdRng::seed_from_u64(2);
        let layer = LstmLayer::new(1, 8, &mut rng);
        let xs = scalar_seq(&[5.0, -5.0, 10.0, 0.0, -10.0]);
        let cache = layer.forward(&xs);
        for hs in cache.hidden_sequence().chunks(8) {
            for &v in hs {
                assert!(v.abs() <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn zero_input_zero_state_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(3);
        let layer = LstmLayer::new(2, 3, &mut rng);
        let xs = vec![vec![0.0, 0.0]; 4];
        let a = layer.forward(&xs);
        let b = layer.forward(&xs);
        assert_eq!(a.last_hidden(), b.last_hidden());
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let mut rng = StdRng::seed_from_u64(4);
        let layer = LstmLayer::new(1, 5, &mut rng);
        for k in 0..5 {
            assert_eq!(layer.b[(5 + k, 0)], 1.0); // forget block
            assert_eq!(layer.b[(k, 0)], 0.0); // input block
        }
    }

    #[test]
    fn param_count_formula() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = LstmLayer::new(3, 7, &mut rng);
        assert_eq!(layer.param_count(), 4 * 7 * (3 + 7 + 1));
    }

    /// The workspace forward pass agrees with the retained pre-change
    /// implementation within 1e-9 relative (the fused gate step reorders
    /// the dot sums, so bitwise equality is not expected). The backward
    /// pass is pinned by finite differences below.
    #[test]
    fn workspace_forward_matches_reference() {
        for &(seed, i_dim, h, t_len) in
            &[(7u64, 2usize, 3usize, 4usize), (8, 1, 8, 6), (9, 5, 4, 1)]
        {
            let mut rng = StdRng::seed_from_u64(seed);
            let layer = LstmLayer::new(i_dim, h, &mut rng);
            let xs: Vec<Vec<f64>> = (0..t_len)
                .map(|t| {
                    (0..i_dim)
                        .map(|d| ((t * i_dim + d) as f64 * 0.37 + seed as f64).sin())
                        .collect()
                })
                .collect();
            let fast = layer.forward(&xs);
            let refr = layer.forward_reference(&xs);
            assert_eq!(refr.steps(), t_len);
            for t in 0..t_len {
                for k in 0..h {
                    let a = fast.hidden_row(t)[k];
                    let b = refr.hidden_sequence()[t][k];
                    assert!(
                        (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                        "h[{t}][{k}]: {a} vs {b}"
                    );
                }
            }
        }
    }

    /// `visit_params` must drop every derived weight cache: a backward
    /// pass, then a weight update, then another backward pass has to use
    /// the *new* weights for `dx`/`dh`, and the block kernel's `[W|U]^T`
    /// panel must be rebuilt from them.
    #[test]
    fn transpose_cache_invalidated_on_param_update() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut layer = LstmLayer::new(2, 3, &mut rng);
        let xs = vec![vec![0.4, -0.2], vec![0.1, 0.8]];
        let dh_seq = vec![vec![0.3, -0.1, 0.5]; 2];

        // First backward builds the transpose caches.
        let cache = layer.forward(&xs);
        let (_, _) = layer.backward(&cache, &dh_seq);
        let _ = layer.backward_panel();

        // Update every parameter through the optimizer-facing visitor.
        let zero = LstmGrads::zeros(2, 3);
        layer.visit_params(&zero, &mut |p, _| {
            for v in p.as_mut_slice() {
                *v += 0.05;
            }
        });

        // The next backward must equal a cold clone's (a clone starts
        // with no derived caches) — it would not if stale caches survived.
        let cold = layer.clone();
        let cache = layer.forward(&xs);
        let (g_warm, dx_warm) = layer.backward(&cache, &dh_seq);
        let (g_cold, dx_cold) = cold.backward(&cold.forward(&xs), &dh_seq);
        assert_eq!(g_warm.dw.as_slice(), g_cold.dw.as_slice());
        assert_eq!(g_warm.du.as_slice(), g_cold.du.as_slice());
        assert_eq!(dx_warm, dx_cold);
        assert_eq!(layer.backward_panel(), cold.backward_panel());
    }

    #[test]
    fn serde_roundtrip_skips_transpose_caches() {
        let mut rng = StdRng::seed_from_u64(12);
        let layer = LstmLayer::new(2, 3, &mut rng);
        // Build the transposes, then round-trip: the JSON must not carry
        // them and the restored layer must behave identically.
        let cache = layer.forward(&[vec![0.1, 0.2]]);
        let _ = layer.backward(&cache, &[vec![1.0, 0.0, -1.0]]);
        let json = serde_json::to_string(&layer).expect("serialize");
        assert!(!json.contains("\"wt\""));
        let back: LstmLayer = serde_json::from_str(&json).expect("deserialize");
        let a = layer.forward(&[vec![0.3, -0.4]]);
        let b = back.forward(&[vec![0.3, -0.4]]);
        assert_eq!(a.last_hidden(), b.last_hidden());
    }

    /// Finite-difference gradient check over every parameter of a tiny LSTM.
    ///
    /// Loss: sum of final hidden state. The analytic gradient from
    /// `backward` must match central differences to ~1e-6.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(6);
        let layer = LstmLayer::new(2, 3, &mut rng);
        let xs: Vec<Vec<f64>> = vec![vec![0.5, -0.3], vec![0.1, 0.9], vec![-0.7, 0.2]];

        let loss = |l: &LstmLayer| -> f64 { l.forward(&xs).last_hidden().iter().sum() };

        // Analytic gradients: dh at last step = ones, zeros elsewhere.
        let cache = layer.forward(&xs);
        let mut dh_seq = vec![vec![0.0; 3]; 3];
        dh_seq[2] = vec![1.0; 3];
        let (grads, dxs) = layer.backward(&cache, &dh_seq);

        let eps = 1e-6;
        let check = |get: &dyn Fn(&LstmLayer) -> f64,
                     set: &dyn Fn(&mut LstmLayer, f64),
                     analytic: f64,
                     what: &str| {
            // One fresh clone per perturbation: a clone starts with cold
            // packed-panel caches, and a forward pass warms them — so
            // mutating the same instance again would serve stale panels.
            let orig = get(&layer);
            let mut lp = layer.clone();
            set(&mut lp, orig + eps);
            let fplus = loss(&lp);
            let mut lm = layer.clone();
            set(&mut lm, orig - eps);
            let fminus = loss(&lm);
            let fd = (fplus - fminus) / (2.0 * eps);
            assert!(
                (fd - analytic).abs() < 1e-6,
                "{what}: fd={fd} analytic={analytic}"
            );
        };

        for r in 0..12 {
            for c in 0..2 {
                check(
                    &|l| l.w[(r, c)],
                    &|l, v| l.w[(r, c)] = v,
                    grads.dw[(r, c)],
                    "W",
                );
            }
            for c in 0..3 {
                check(
                    &|l| l.u[(r, c)],
                    &|l, v| l.u[(r, c)] = v,
                    grads.du[(r, c)],
                    "U",
                );
            }
            check(
                &|l| l.b[(r, 0)],
                &|l, v| l.b[(r, 0)] = v,
                grads.db[(r, 0)],
                "b",
            );
        }

        // Input gradients too.
        for t in 0..3 {
            for d in 0..2 {
                let mut xp = xs.clone();
                xp[t][d] += eps;
                let fplus = layer.forward(&xp).last_hidden().iter().sum::<f64>();
                xp[t][d] -= 2.0 * eps;
                let fminus = layer.forward(&xp).last_hidden().iter().sum::<f64>();
                let fd = (fplus - fminus) / (2.0 * eps);
                assert!(
                    (fd - dxs[t][d]).abs() < 1e-6,
                    "dx[{t}][{d}]: fd={fd} analytic={}",
                    dxs[t][d]
                );
            }
        }
    }

    #[test]
    fn grads_accumulate_and_scale() {
        let mut a = LstmGrads::zeros(1, 2);
        let mut b = LstmGrads::zeros(1, 2);
        a.dw[(0, 0)] = 2.0;
        b.dw[(0, 0)] = 3.0;
        a.accumulate(&b);
        assert_eq!(a.dw[(0, 0)], 5.0);
        a.scale(0.5);
        assert_eq!(a.dw[(0, 0)], 2.5);
    }
}
