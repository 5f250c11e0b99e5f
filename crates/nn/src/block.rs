//! Lane-blocked training kernel: a block of mini-batch samples runs its
//! forward unroll and BPTT through the stacked LSTM as GEMMs across lanes.
//!
//! The per-sample path ([`LstmForecaster::sample_grads_into`]) runs a chain
//! of small mat-vecs per sample. Here a block of `n` samples ("lanes") is
//! held transposed, one column per lane, so each layer step is
//!
//! ```text
//! forward   Z_t                 = [W | U | b]  · [x_t; h_{t-1}; 1]    (4H x n)
//! backward  [dX_t; dH_{t-1}]    = [W | U]^T    · dZ_t                 ((d+H) x n)
//!           [dW | dU | db]^T   += [x_t; h_{t-1}; 1] · dZ_t^T          ((d+H+1) x 4H)
//! ```
//!
//! on the bitwise packed-A kernel ([`ld_linalg::microkernel::gemm`]), with
//! the weight panels cached per parameter update by [`crate::lstm`].
//!
//! Equivalence with the per-sample path, which stays as the oracle:
//! - **Forward, bitwise.** Each gate pre-activation is one ascending-`k`
//!   accumulator over `[x_t | h_{t-1} | 1]`, exactly as the per-sample
//!   fused mat-vec ([`crate::lstm::LstmLayer::gate_step_fused`]) forms it,
//!   and the activations, cell update and dense head are the same scalar
//!   expressions. Predictions and per-sample losses are identical bits.
//! - **Gradients, 1e-9 relative.** The weight-gradient sums run over lanes
//!   inside each GEMM and over steps outside it, and the input gradients
//!   come from one GEMM instead of two transposed mat-vecs, so the
//!   summation order differs from the per-sample path.
//!
//! Memory: the forward tape keeps only the gates and cell states per step.
//! The backward walks `tanh(C_t)` down the steps with one new `tanh` per
//! element and step, as the forward did, and recomputes `h = o · tanh(C)`
//! from it (bitwise what the forward produced); every backward temporary
//! is one step wide.

use std::time::Instant;

use ld_linalg::microkernel::{self, Store, MR};
use ld_linalg::pack::pack_a_into;

use crate::activation::{sigmoid_deriv_from_output, sigmoid_map, tanh_deriv_from_output, tanh_map};
use crate::forecaster::{ForecasterGrads, LstmForecaster};
use crate::loss::squared_error_grad;
use crate::trainer::{nanos, BlockStats};
use crate::workspace;
use crate::Sample;

/// One layer's forward tape and backward state over a block. Every
/// `X x n` buffer is row-major with one column per lane.
#[derive(Debug, Default)]
struct LayerTape {
    /// Post-activation gates per step, `T x 4H x n`, rows `[i | f | o | g]`.
    gates: Vec<f64>,
    /// Cell states, `(T + 1) x H x n`; step 0 is the zero initial state.
    cs: Vec<f64>,
    /// `tanh(C_t)` of the step being processed, `H x n`: the forward
    /// leaves the last step's, and the backward walks it down the steps.
    tc: Vec<f64>,
    /// `tanh(C_{t-1})` during the backward, `H x n`.
    tc_prev: Vec<f64>,
    /// The latest hidden state of the forward sweep, `H x n`.
    h: Vec<f64>,
    /// `[dX; dH_prev]` of the latest backward step, `(d + H) x n`.
    dxh: Vec<f64>,
    /// Cell-state gradient carried to the previous step, `H x n`.
    dc: Vec<f64>,
    /// `[dW | dU | db]^T` summed over the block, `(d + H + 1) x 4H`.
    grad_t: Vec<f64>,
}

/// Reusable buffers for the block kernel, one per thread (held in the
/// thread's [`workspace::Workspace`]). Buffers are resized on entry, so
/// one instance serves any model shape and block width; the kernel writes
/// every element it later reads, and zeroes the ones it accumulates into.
#[derive(Debug, Default)]
pub struct BlockScratch {
    tapes: Vec<LayerTape>,
    /// Gate input slab `[x_t; h_{t-1}; 1]`, `(d + H + 1) x n`.
    slab: Vec<f64>,
    /// The slab packed into `MR`-row panels for the weight-gradient GEMM.
    slab_panels: Vec<f64>,
    /// `dZ_t`, `4H x n`.
    dz: Vec<f64>,
    /// `dZ_t^T`, `n x 4H`.
    dz_t: Vec<f64>,
    /// Gradient from the head into the top layer's last hidden state,
    /// `H x n`; zero after the last step.
    dh_top: Vec<f64>,
    /// One lane's last hidden state and its head gradient, `H` each.
    lane_h: Vec<f64>,
    lane_dh: Vec<f64>,
    /// The block's predictions, one per lane.
    preds: Vec<f64>,
}

/// Resizes `v` to `len` zeros.
fn zeroed(v: &mut Vec<f64>, len: usize) {
    v.clear();
    v.resize(len, 0.0);
}

/// `out[e] = o[e] * tanh_c[e]`: the hidden state exactly as the forward
/// sweep formed it.
fn hidden_into(out: &mut [f64], o: &[f64], tanh_c: &[f64]) {
    for ((h, &ov), &tv) in out.iter_mut().zip(o).zip(tanh_c) {
        *h = ov * tv;
    }
}

impl LstmForecaster {
    /// Loss sum of the samples `lanes` (indices into `samples`) with their
    /// gradients *accumulated* into `grads`, computed as one block: a GEMM
    /// per layer per step across the lanes (see the module docs). Also
    /// returns the nanoseconds spent in the forward unroll and in BPTT.
    ///
    /// # Panics
    /// Panics if a window's length is not `history_len` or `grads` does
    /// not match this model's layer structure.
    pub fn block_grads(
        &self,
        samples: &[Sample],
        lanes: &[usize],
        grads: &mut ForecasterGrads,
    ) -> BlockStats {
        workspace::with_thread_workspace(|ws| {
            // ld-lint: allow(determinism, "kernel timer; the nanoseconds are reported, never fed back into the numerics")
            let start = Instant::now();
            self.block_forward(samples, lanes, &mut ws.block);
            // ld-lint: allow(determinism, "kernel timer; the nanoseconds are reported, never fed back into the numerics")
            let forward_end = Instant::now();
            let loss = self.block_backward(samples, lanes, grads, &mut ws.block);
            BlockStats {
                loss,
                forward_ns: nanos(forward_end - start),
                bptt_ns: nanos(forward_end.elapsed()),
            }
        })
    }

    /// Predictions for the samples `lanes`, written to `out` in lane order:
    /// the forward half of [`Self::block_grads`], bitwise equal to
    /// [`Self::predict`] per sample.
    ///
    /// # Panics
    /// Panics if `out.len() != lanes.len()` or a window's length is not
    /// `history_len`.
    pub fn predict_block(&self, samples: &[Sample], lanes: &[usize], out: &mut [f64]) {
        assert_eq!(out.len(), lanes.len(), "block output length");
        workspace::with_thread_workspace(|ws| {
            self.block_forward(samples, lanes, &mut ws.block);
            out.copy_from_slice(&ws.block.preds);
        });
    }

    /// Unrolls every layer over the block step by step, recording the
    /// tapes, then runs the head per lane into `s.preds`.
    fn block_forward(&self, samples: &[Sample], lanes: &[usize], s: &mut BlockScratch) {
        let (t_len, h) = (self.config().history_len, self.config().hidden_size);
        let (n, hn) = (lanes.len(), self.config().hidden_size * lanes.len());
        for &i in lanes {
            let len = samples[i].window.len();
            assert_eq!(len, t_len, "window length {len} != history_len {t_len}");
        }
        let layers = self.layers();
        s.tapes.resize_with(layers.len(), LayerTape::default);
        for tape in &mut s.tapes {
            tape.gates.resize(t_len * 4 * hn, 0.0);
            tape.cs.resize((t_len + 1) * hn, 0.0);
            tape.tc.resize(hn, 0.0);
            tape.tc_prev.resize(hn, 0.0);
            tape.cs[..hn].fill(0.0);
            zeroed(&mut tape.h, hn);
        }
        let BlockScratch {
            tapes,
            slab,
            lane_h,
            preds,
            ..
        } = s;

        for t in 0..t_len {
            for (l, layer) in layers.iter().enumerate() {
                let (below, rest) = tapes.split_at_mut(l);
                let tape = &mut rest[0];
                let d = layer.input_dim();
                let width = d + h + 1;
                slab.resize(width * n, 0.0);
                if l == 0 {
                    for (x, &i) in slab[..n].iter_mut().zip(lanes) {
                        *x = samples[i].window[t];
                    }
                } else {
                    slab[..d * n].copy_from_slice(&below[l - 1].h);
                }
                slab[d * n..(d + h) * n].copy_from_slice(&tape.h);
                slab[(d + h) * n..].fill(1.0);

                let z = &mut tape.gates[t * 4 * hn..(t + 1) * 4 * hn];
                let panel = layer.fused_gate_panel();
                microkernel::gemm(4 * h, width, n, panel.panels(), slab, z, Store::Assign);
                // Gate rows are contiguous: [i|f|o] then [g].
                sigmoid_map(&mut z[..3 * hn]);
                tanh_map(&mut z[3 * hn..]);

                let (i_g, rest) = z.split_at(hn);
                let (f_g, rest) = rest.split_at(hn);
                let (o_g, g_g) = rest.split_at(hn);
                let (c_head, c_tail) = tape.cs.split_at_mut((t + 1) * hn);
                let c_prev = &c_head[t * hn..];
                let c_t = &mut c_tail[..hn];
                for e in 0..hn {
                    c_t[e] = f_g[e] * c_prev[e] + i_g[e] * g_g[e];
                }
                tape.tc.copy_from_slice(c_t);
                tanh_map(&mut tape.tc);
                hidden_into(&mut tape.h, o_g, &tape.tc);
            }
        }

        let top = &tapes[layers.len() - 1].h;
        lane_h.resize(h, 0.0);
        preds.resize(n, 0.0);
        for (j, pred) in preds.iter_mut().enumerate() {
            for (k, v) in lane_h.iter_mut().enumerate() {
                *v = top[k * n + j];
            }
            let mut out = [0.0f64; 1];
            self.head().forward_into(lane_h, &mut out);
            *pred = out[0];
        }
    }

    /// The head backward per lane, then the reverse sweep step by step
    /// (top layer first within a step), then the block's weight gradients
    /// scattered into `grads`. Returns the block's loss sum. Needs the
    /// tapes of [`Self::block_forward`] over the same lanes.
    fn block_backward(
        &self,
        samples: &[Sample],
        lanes: &[usize],
        grads: &mut ForecasterGrads,
        s: &mut BlockScratch,
    ) -> f64 {
        let (t_len, h) = (self.config().history_len, self.config().hidden_size);
        let (n, hn, h4) = (lanes.len(), self.config().hidden_size * lanes.len(), 4 * h);
        let layers = self.layers();
        let top = layers.len() - 1;
        assert_eq!(grads.lstm.len(), layers.len(), "grads layer count mismatch");
        let BlockScratch {
            tapes,
            slab,
            slab_panels,
            dz,
            dz_t,
            dh_top,
            lane_h,
            lane_dh,
            preds,
        } = s;

        // Head: loss, head gradients and the gradient into the top layer's
        // last hidden state, lane by lane as the per-sample path does.
        let mut loss = 0.0;
        zeroed(dh_top, hn);
        lane_dh.resize(h, 0.0);
        for (j, (&i, &pred)) in lanes.iter().zip(preds.iter()).enumerate() {
            let target = samples[i].target;
            loss += (pred - target) * (pred - target);
            for (k, v) in lane_h.iter_mut().enumerate() {
                *v = tapes[top].h[k * n + j];
            }
            lane_dh.fill(0.0);
            let dpred = squared_error_grad(pred, target);
            self.head()
                .backward_into(lane_h, &[dpred], &mut grads.head, lane_dh);
            for (k, &v) in lane_dh.iter().enumerate() {
                dh_top[k * n + j] = v;
            }
        }

        for (tape, layer) in tapes.iter_mut().zip(layers) {
            let d = layer.input_dim();
            zeroed(&mut tape.dxh, (d + h) * n);
            zeroed(&mut tape.dc, hn);
            zeroed(&mut tape.grad_t, (d + h + 1) * h4);
        }
        dz.resize(h4 * n, 0.0);
        dz_t.resize(n * h4, 0.0);

        for t in (0..t_len).rev() {
            for (l, layer) in layers.iter().enumerate().rev() {
                let d = layer.input_dim();
                let width = d + h + 1;
                let (below, rest) = tapes.split_at_mut(l);
                let (tape, above) = rest.split_at_mut(1);
                let tape = &mut tape[0];
                // Gradient into h_t from above: the head's for the top
                // layer, the layer above's dX at this step otherwise.
                let dh_above: &[f64] = if l == top { dh_top } else { &above[0].dxh[..hn] };

                let g = &tape.gates[t * 4 * hn..(t + 1) * 4 * hn];
                let (i_g, rest) = g.split_at(hn);
                let (f_g, rest) = rest.split_at(hn);
                let (o_g, g_g) = rest.split_at(hn);
                let tc = &tape.tc;
                let c_prev = &tape.cs[t * hn..(t + 1) * hn];
                let dh_next = &tape.dxh[d * n..];
                let (dz_i, rest) = dz.split_at_mut(hn);
                let (dz_f, rest) = rest.split_at_mut(hn);
                let (dz_o, dz_g) = rest.split_at_mut(hn);
                for e in 0..hn {
                    let dh = dh_above[e] + dh_next[e];
                    let dct = dh * o_g[e] * tanh_deriv_from_output(tc[e]) + tape.dc[e];
                    let do_ = dh * tc[e];
                    let di = dct * g_g[e];
                    let df = dct * c_prev[e];
                    let dg = dct * i_g[e];
                    dz_i[e] = di * sigmoid_deriv_from_output(i_g[e]);
                    dz_f[e] = df * sigmoid_deriv_from_output(f_g[e]);
                    dz_o[e] = do_ * sigmoid_deriv_from_output(o_g[e]);
                    dz_g[e] = dg * tanh_deriv_from_output(g_g[e]);
                    tape.dc[e] = dct * f_g[e];
                }

                // [dX_t; dH_{t-1}] = [W | U]^T dZ_t. The dH rows are the
                // next (earlier) step's dh_next.
                let panel = layer.backward_panel();
                microkernel::gemm(d + h, h4, n, panel.panels(), dz, &mut tape.dxh, Store::Assign);

                // [dW | dU | db]^T += [x_t; h_{t-1}; 1] dZ_t^T, with x_t and
                // h_{t-1} recomputed from the tapes. The layer below has not
                // stepped down yet, so its `tc` is still tanh(C_t).
                slab.resize(width * n, 0.0);
                if l == 0 {
                    for (x, &i) in slab[..n].iter_mut().zip(lanes) {
                        *x = samples[i].window[t];
                    }
                } else {
                    let b = &below[l - 1];
                    let o = &b.gates[(4 * t + 2) * hn..(4 * t + 3) * hn];
                    hidden_into(&mut slab[..hn], o, &b.tc);
                }
                let h_prev = &mut slab[d * n..(d + h) * n];
                if t == 0 {
                    h_prev.fill(0.0);
                } else {
                    tape.tc_prev.copy_from_slice(&tape.cs[t * hn..(t + 1) * hn]);
                    tanh_map(&mut tape.tc_prev);
                    let o = &tape.gates[(4 * t - 2) * hn..(4 * t - 1) * hn];
                    hidden_into(h_prev, o, &tape.tc_prev);
                    std::mem::swap(&mut tape.tc, &mut tape.tc_prev);
                }
                slab[(d + h) * n..].fill(1.0);
                slab_panels.resize(width.div_ceil(MR) * MR * n, 0.0);
                pack_a_into(slab, width, n, slab_panels);
                for (r, row) in dz.chunks_exact(n).enumerate() {
                    for (j, &v) in row.iter().enumerate() {
                        dz_t[j * h4 + r] = v;
                    }
                }
                microkernel::gemm(width, n, h4, slab_panels, dz_t, &mut tape.grad_t, Store::Acc);
            }
            // The head feeds the last step only.
            dh_top.fill(0.0);
        }

        for ((tape, layer), g) in tapes.iter().zip(layers).zip(&mut grads.lstm) {
            let d = layer.input_dim();
            for r in 0..h4 {
                for (c, v) in g.dw.row_mut(r).iter_mut().enumerate() {
                    *v += tape.grad_t[c * h4 + r];
                }
                for (c, v) in g.du.row_mut(r).iter_mut().enumerate() {
                    *v += tape.grad_t[(d + c) * h4 + r];
                }
                g.db[(r, 0)] += tape.grad_t[(d + h) * h4 + r];
            }
        }
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ForecasterConfig;

    fn model(history_len: usize, hidden_size: usize, num_layers: usize) -> LstmForecaster {
        LstmForecaster::new(ForecasterConfig {
            history_len,
            hidden_size,
            num_layers,
            seed: 31,
        })
    }

    fn samples(count: usize, t_len: usize, salt: f64) -> Vec<Sample> {
        (0..count)
            .map(|i| {
                let window = (0..t_len)
                    .map(|t| ((i * t_len + t) as f64 * 0.37 + salt).sin() * 0.5 + 0.5)
                    .collect();
                Sample::new(window, ((i as f64) * 0.61 + salt).cos() * 0.5 + 0.5)
            })
            .collect()
    }

    fn flat(g: &ForecasterGrads) -> Vec<f64> {
        let mut out = Vec::new();
        for l in &g.lstm {
            out.extend_from_slice(l.dw.as_slice());
            out.extend_from_slice(l.du.as_slice());
            out.extend_from_slice(l.db.as_slice());
        }
        out.extend_from_slice(g.head.dw.as_slice());
        out.extend_from_slice(g.head.db.as_slice());
        out
    }

    #[test]
    fn block_matches_the_per_sample_path() {
        for (t_len, h, layers) in [(1usize, 1usize, 1usize), (5, 3, 2), (7, 9, 3)] {
            let m = model(t_len, h, layers);
            let data = samples(21, t_len, h as f64);
            // Lanes in shuffled order, one repeated.
            let lanes: Vec<usize> = vec![4, 0, 17, 9, 9, 2, 20, 11, 5, 13];
            let mut block = m.zero_grads();
            let stats = m.block_grads(&data, &lanes, &mut block);
            let mut oracle = m.zero_grads();
            let mut loss = 0.0;
            for &i in &lanes {
                loss += m.sample_grads_into(&data[i].window, data[i].target, &mut oracle);
            }
            assert_eq!(stats.loss.to_bits(), loss.to_bits(), "loss (T={t_len} H={h} L={layers})");
            for (a, b) in flat(&block).iter().zip(flat(&oracle)) {
                assert!((a - b).abs() <= 1e-12 * (1.0 + b.abs()), "{a} vs {b}");
            }
            let mut preds = vec![0.0; lanes.len()];
            m.predict_block(&data, &lanes, &mut preds);
            for (p, &i) in preds.iter().zip(&lanes) {
                assert_eq!(p.to_bits(), m.predict(&data[i].window).to_bits());
            }
        }
    }

    #[test]
    fn warm_scratch_from_a_larger_shape_changes_no_bit() {
        let run = || {
            let m = model(6, 4, 2);
            let data = samples(12, 6, 0.3);
            let lanes: Vec<usize> = (0..12).collect();
            let mut g = m.zero_grads();
            let stats = m.block_grads(&data, &lanes, &mut g);
            let mut preds = vec![0.0; 12];
            m.predict_block(&data, &lanes, &mut preds);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (stats.loss.to_bits(), bits(&flat(&g)), bits(&preds))
        };
        // A fresh thread starts with an empty scratch.
        let cold = std::thread::spawn(run).join().expect("cold run");
        let big = model(11, 13, 3);
        let data = samples(40, 11, 1.1);
        let lanes: Vec<usize> = (0..40).collect();
        big.block_grads(&data, &lanes, &mut big.zero_grads());
        assert_eq!(run(), cold);
    }
}
