//! Micro-panel packing for the register-tiled GEMM ([`crate::microkernel`]).
//!
//! A BLIS-style packed product reads both operands through flat panels laid
//! out in exactly the order the microkernel consumes them:
//!
//! - **A panels** ([`PackedA`]): the left operand is cut into row panels of
//!   [`MR`] rows. Each panel stores its `k` steps contiguously, `MR` values
//!   per step (`panel[p * MR + i] = a[i0 + i][p]`), so one k-step of the
//!   microkernel is a single contiguous `MR`-wide load. The final panel is
//!   zero-padded to `MR` rows.
//! - **B panels** ([`pack_b_into`]): the right operand of the FMA-tiled
//!   path ([`crate::Matrix::matmul_packed`]) is cut into column panels of
//!   [`NR`] columns, stored k-major (`panel[p * NR + j] = b[p][j0 + j]`),
//!   zero-padded to `NR` columns. The bitwise [`PackedA`] products consume
//!   their right operand row-major instead — the streaming kernel
//!   ([`crate::microkernel::gemm`]) wants runtime-width rows, not fixed
//!   tiles — so only the reused left weights pay a packing cost.
//!
//! Padding lanes multiply real data by `0.0` and are never stored back, so
//! they cannot affect results (finite inputs; `0.0 * x` is `±0.0`). Each
//! output element is accumulated by a single accumulator in ascending-`k`
//! order, which keeps every packed kernel **bitwise identical** to
//! [`crate::Matrix::matmul_naive`] — the repo-wide dispatch contract.

use crate::microkernel::{self, MR, NR};
use crate::Matrix;

/// A matrix packed into `MR`-row micro-panels — the GEMM/mat-vec left
/// operand. Cached by callers whose left side is reused across many
/// products (LSTM weight panels in `ld-nn`).
#[derive(Debug, Clone, PartialEq)]
pub struct PackedA {
    /// `ceil(m / MR)` panels of `k * MR` values each.
    data: Vec<f64>,
    m: usize,
    k: usize,
}

impl PackedA {
    /// Packs a flat row-major `m x k` slice.
    ///
    /// # Panics
    /// Panics if `a.len() != m * k`.
    pub fn pack(a: &[f64], m: usize, k: usize) -> Self {
        assert_eq!(a.len(), m * k, "PackedA::pack: {} != {m}x{k}", a.len());
        let panels = m.div_ceil(MR).max(1);
        let mut data = vec![0.0; panels * MR * k];
        pack_a_into(a, m, k, &mut data);
        PackedA { data, m, k }
    }

    /// Packs a [`Matrix`] (the common call site).
    pub fn from_matrix(a: &Matrix) -> Self {
        Self::pack(a.as_slice(), a.rows(), a.cols())
    }

    /// Row count of the packed matrix.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Inner (column) dimension of the packed matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The raw panel buffer (`ceil(m/MR)` panels of `k * MR` values).
    pub fn panels(&self) -> &[f64] {
        &self.data
    }

    /// Unpacks back to a flat row-major `m x k` buffer — the inverse of
    /// [`PackedA::pack`], used by the round-trip property tests.
    pub fn unpack(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.m * self.k];
        if self.k == 0 {
            return out;
        }
        for (pi, panel) in self.data.chunks_exact(MR * self.k).enumerate() {
            let rows = (self.m - pi * MR).min(MR);
            for (p, step) in panel.chunks_exact(MR).enumerate() {
                for (i, &v) in step.iter().take(rows).enumerate() {
                    out[(pi * MR + i) * self.k + p] = v;
                }
            }
        }
        out
    }

    /// Allocation-free mat-vec `out = A * x` over the packed panels.
    ///
    /// Each output element is one accumulator filled in ascending-`k`
    /// order — bitwise identical to a sequential row dot
    /// ([`crate::vecops::dot`]), vectorized across the `MR` rows of a panel
    /// instead of along `k`.
    ///
    /// # Panics
    /// Panics on shape mismatch (hot path; callers guarantee shapes).
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.k, "PackedA::matvec_into: input length");
        assert_eq!(out.len(), self.m, "PackedA::matvec_into: output length");
        if self.k == 0 {
            out.fill(0.0);
            return;
        }
        for (pi, panel) in self.data.chunks_exact(MR * self.k).enumerate() {
            let mut acc = [0.0f64; MR];
            for (step, &xv) in panel.chunks_exact(MR).zip(x) {
                for (a, &av) in acc.iter_mut().zip(step) {
                    *a += av * xv;
                }
            }
            let i0 = pi * MR;
            let rows = (self.m - i0).min(MR);
            out[i0..i0 + rows].copy_from_slice(&acc[..rows]);
        }
    }

    /// Register-blocked packed-A GEMM `out = A * rhs` against an unpacked
    /// right operand ([`crate::microkernel::gemm`] consumes `rhs`
    /// row-major; nothing is packed or allocated per call).
    ///
    /// Bitwise identical to [`Matrix::matmul_into`] /
    /// [`Matrix::matmul_naive`] at every shape (single ascending-`k`
    /// accumulator per output element).
    ///
    /// # Panics
    /// Panics on shape mismatch (hot path; callers guarantee shapes).
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut [f64]) {
        assert_eq!(self.k, rhs.rows(), "PackedA::matmul_into: inner dim");
        let n = rhs.cols();
        assert_eq!(out.len(), self.m * n, "PackedA::matmul_into: output length");
        microkernel::gemm(
            self.m,
            self.k,
            n,
            &self.data,
            rhs.as_slice(),
            out,
            microkernel::Store::Assign,
        );
    }

    /// Fused `out = (out + A * rhs) + bias` with a per-row bias: each
    /// product element is accumulated to completion in registers, then
    /// folded as `(out + acc) + bias[row]` at store time — bitwise equal to
    /// a [`Matrix::matmul_naive`] product followed by that element-wise
    /// fold.
    ///
    /// # Panics
    /// Panics on shape mismatch (hot path; callers guarantee shapes).
    pub fn matmul_acc_bias_into(&self, rhs: &Matrix, bias: &[f64], out: &mut [f64]) {
        assert_eq!(self.k, rhs.rows(), "PackedA::matmul_acc_bias_into: inner dim");
        let n = rhs.cols();
        assert_eq!(
            out.len(),
            self.m * n,
            "PackedA::matmul_acc_bias_into: output length"
        );
        assert_eq!(bias.len(), self.m, "PackedA::matmul_acc_bias_into: bias length");
        microkernel::gemm(
            self.m,
            self.k,
            n,
            &self.data,
            rhs.as_slice(),
            out,
            microkernel::Store::AccBias(bias),
        );
    }
}

/// Packs a flat row-major `m x k` slice into `MR`-row panels, writing into
/// a pre-sized buffer (`ceil(m/MR) * MR * k`, zero-padded rows included).
///
/// # Panics
/// Panics if `out` is not exactly the packed size.
pub fn pack_a_into(a: &[f64], m: usize, k: usize, out: &mut [f64]) {
    let panels = m.div_ceil(MR).max(1);
    assert_eq!(a.len(), m * k, "pack_a_into: input size");
    assert_eq!(out.len(), panels * MR * k, "pack_a_into: output size");
    if k == 0 {
        return;
    }
    for (pi, panel) in out.chunks_exact_mut(MR * k).enumerate() {
        let i0 = pi * MR;
        let rows = m.saturating_sub(i0).min(MR);
        if rows < MR {
            panel.fill(0.0);
        }
        for i in 0..rows {
            let src = &a[(i0 + i) * k..(i0 + i + 1) * k];
            // Lockstep iterators instead of `panel[p * MR + i]` indexing:
            // the strided write lane and the sequential row read carry no
            // per-element bounds checks.
            for (dst, &v) in panel.iter_mut().skip(i).step_by(MR).zip(src) {
                *dst = v;
            }
        }
    }
}

/// Packs a flat row-major `k x n` slice into `NR`-column panels
/// (`ceil(n/NR)` panels of `k * NR` values, k-major, zero-padded columns),
/// growing `out` as needed. Returns nothing; the panel count is implied by
/// `n`.
pub fn pack_b_into(b: &[f64], k: usize, n: usize, out: &mut Vec<f64>) {
    assert_eq!(b.len(), k * n, "pack_b_into: input size");
    let panels = n.div_ceil(NR).max(1);
    out.resize(panels * NR * k, 0.0);
    if k == 0 {
        return;
    }
    // Padding columns in a partial final panel must be zero on every call
    // (the scratch buffer may hold stale lanes from a previous pack); full
    // panels are fully overwritten below, so only the tail needs clearing.
    if !n.is_multiple_of(NR) || n == 0 {
        out[(panels - 1) * NR * k..].fill(0.0);
    }
    if n == 0 {
        return;
    }
    // One sequential pass over B: each source row is read once and its
    // `NR`-wide chunks scattered to their panels, instead of re-streaming
    // the whole matrix once per panel.
    for (p, brow) in b.chunks_exact(n).enumerate() {
        for (pj, chunk) in brow.chunks(NR).enumerate() {
            out[pj * NR * k + p * NR..][..chunk.len()].copy_from_slice(chunk);
        }
    }
}

/// Unpacks an `NR`-column panel buffer back to flat row-major `k x n` —
/// the inverse of [`pack_b_into`], for the round-trip property tests.
pub fn unpack_b(packed: &[f64], k: usize, n: usize) -> Vec<f64> {
    let panels = n.div_ceil(NR).max(1);
    assert_eq!(packed.len(), panels * NR * k, "unpack_b: packed size");
    let mut out = vec![0.0; k * n];
    if k == 0 {
        return out;
    }
    for (pj, panel) in packed.chunks_exact(NR * k).enumerate() {
        let j0 = pj * NR;
        let cols = n.saturating_sub(j0).min(NR);
        for p in 0..k {
            out[p * n + j0..p * n + j0 + cols]
                .copy_from_slice(&panel[p * NR..p * NR + cols]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Shapes covering full tiles, edge tiles in both dimensions, and the
    /// degenerate 1xN / Nx1 cases.
    const SHAPES: &[(usize, usize)] = &[
        (1, 1),
        (1, 13),
        (13, 1),
        (MR, NR),
        (MR - 1, NR + 1),
        (2 * MR + 3, 17),
        (31, 2 * NR + 1),
        (64, 64),
    ];

    #[test]
    fn pack_a_round_trips_bitwise() {
        let mut rng = StdRng::seed_from_u64(71);
        for &(m, k) in SHAPES {
            let a: Vec<f64> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let packed = PackedA::pack(&a, m, k);
            assert_eq!(packed.unpack(), a, "{m}x{k} A round trip");
            // Every lane whose global row index falls past `m` is padding
            // and must be exactly zero.
            for (pi, panel) in packed.panels().chunks_exact(MR * k).enumerate() {
                for step in panel.chunks_exact(MR) {
                    for (i, &v) in step.iter().enumerate() {
                        if pi * MR + i >= m {
                            assert_eq!(
                                v.to_bits(),
                                0.0f64.to_bits(),
                                "padding lane not zero ({m}x{k})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pack_b_round_trips_bitwise() {
        let mut rng = StdRng::seed_from_u64(72);
        for &(k, n) in SHAPES {
            let b: Vec<f64> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut packed = Vec::new();
            pack_b_into(&b, k, n, &mut packed);
            assert_eq!(unpack_b(&packed, k, n), b, "{k}x{n} B round trip");
        }
    }

    #[test]
    fn packed_matvec_matches_sequential_dot_bitwise() {
        let mut rng = StdRng::seed_from_u64(73);
        for &(m, k) in SHAPES {
            let a = Matrix::random_uniform(m, k, 1.0, &mut rng);
            let x: Vec<f64> = (0..k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let packed = PackedA::from_matrix(&a);
            let mut out = vec![f64::NAN; m];
            packed.matvec_into(&x, &mut out);
            for (r, &got) in out.iter().enumerate() {
                let want = crate::vecops::dot(a.row(r), &x);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{m}x{k} row {r}: packed {got} vs dot {want}"
                );
            }
        }
    }

    #[test]
    fn pack_buffer_reuse_is_stateless() {
        // A larger pack followed by a smaller one through the same scratch
        // must produce exactly the fresh-buffer panels.
        let mut rng = StdRng::seed_from_u64(74);
        let big: Vec<f64> = (0..9 * 11).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let small: Vec<f64> = (0..3 * 2).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut warm = Vec::new();
        pack_b_into(&big, 9, 11, &mut warm);
        pack_b_into(&small, 3, 2, &mut warm);
        let mut cold = Vec::new();
        pack_b_into(&small, 3, 2, &mut cold);
        assert_eq!(warm, cold);
    }
}
