//! Cross-crate equivalence gates for the allocation-free compute kernels.
//!
//! Every optimized hot path in the workspace retains its pre-change
//! reference implementation; this suite pins the two together from outside
//! the owning crates, at the same tolerances `ld-perfbench` asserts before
//! it times anything:
//!
//! - LSTM forward and BPTT: fast workspace kernels vs the allocating
//!   reference paths, 1e-9 relative.
//! - BPTT gradients vs central finite differences (the ground truth both
//!   implementations must agree with).
//! - Packed register-tiled matmul (FMA lanes) vs the naive streaming
//!   kernel: 1e-9 relative; pack/unpack round trips: **bitwise**.
//! - The register-blocked packed-A GEMM (plain lanes) and its fused
//!   accumulate+bias store vs the naive kernels: **bitwise**, including
//!   edge tiles and 1xN / Nx1 degenerate shapes.
//! - The fused LSTM gate step (one packed `[W | U | b]` mat-vec) vs the
//!   per-row three-term reference step: 1e-9 relative; the batched fused
//!   inference path vs `predict_reference`: **bitwise**.
//! - The packed-panel Gram build vs the serial build: **bitwise**.
//! - The flat-slab CART tree builder vs the retained index-sort reference
//!   builder, per split policy and feature subsampling: **bitwise**.
//! - A full `Trainer::fit` run through the fast path vs the reference
//!   trainer semantics: identical epoch count, losses within 1e-7 relative.

use ld_gp::gram;
use ld_gp::{Kernel, KernelKind};
use ld_linalg::Matrix;
use ld_nn::forecaster::{ForecasterConfig, ForecasterGrads, LstmForecaster};
use ld_nn::reference::ReferenceLstmForecaster;
use ld_nn::{make_windows, Adam, AdamConfig, TrainOptions, Trainer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_rel(what: &str, a: f64, b: f64, tol: f64) {
    let scale = a.abs().max(b.abs()).max(1.0);
    assert!(
        (a - b).abs() <= tol * scale,
        "{what}: {a} vs {b} (tol {tol} relative)"
    );
}

/// A scaled-JAR-like window in `[0, 1]`.
fn window(len: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(0.0..1.0)).collect()
}

fn grad_matrices(g: &ForecasterGrads) -> Vec<&Matrix> {
    let mut out = Vec::new();
    for layer in &g.lstm {
        out.push(&layer.dw);
        out.push(&layer.du);
        out.push(&layer.db);
    }
    out.push(&g.head.dw);
    out.push(&g.head.db);
    out
}

#[test]
fn lstm_forward_fast_matches_reference() {
    let mut rng = StdRng::seed_from_u64(0xE0_01);
    for &(n, s, layers) in &[(4usize, 3usize, 1usize), (12, 8, 2), (30, 16, 3)] {
        let model = LstmForecaster::new(ForecasterConfig {
            history_len: n,
            hidden_size: s,
            num_layers: layers,
            seed: 7,
        });
        for _ in 0..8 {
            let w = window(n, &mut rng);
            assert_rel(
                &format!("predict n={n} s={s} L={layers}"),
                model.predict(&w),
                model.predict_reference(&w),
                1e-9,
            );
        }
    }
}

#[test]
fn lstm_bptt_fast_matches_reference() {
    let mut rng = StdRng::seed_from_u64(0xE0_02);
    for &(n, s, layers) in &[(5usize, 4usize, 1usize), (16, 10, 2)] {
        let model = LstmForecaster::new(ForecasterConfig {
            history_len: n,
            hidden_size: s,
            num_layers: layers,
            seed: 11,
        });
        for case in 0..6 {
            let w = window(n, &mut rng);
            let target = rng.gen_range(0.0..1.0);
            let (loss_fast, grads_fast) = model.sample_grads(&w, target);
            let (loss_ref, grads_ref) = model.sample_grads_reference(&w, target);
            assert_rel(&format!("bptt loss case {case}"), loss_fast, loss_ref, 1e-9);
            for (i, (f, r)) in grad_matrices(&grads_fast)
                .iter()
                .zip(grad_matrices(&grads_ref))
                .enumerate()
            {
                let scale = r.frobenius_norm().max(1.0);
                assert!(
                    f.max_abs_diff(r) <= 1e-9 * scale,
                    "bptt grads case {case} tensor {i}: diff {}",
                    f.max_abs_diff(r)
                );
            }
        }
    }
}

#[test]
fn lstm_grads_match_finite_differences() {
    let mut rng = StdRng::seed_from_u64(0xE0_03);
    let config = ForecasterConfig {
        history_len: 6,
        hidden_size: 5,
        num_layers: 2,
        seed: 13,
    };
    let model = LstmForecaster::new(config);
    let w = window(6, &mut rng);
    let target = 0.4;
    let (_, grads) = model.sample_grads(&w, target);

    // Central difference of the sample loss with respect to a spread of
    // parameter entries in every tensor.
    let loss_of = |m: &LstmForecaster| {
        let d = m.predict(&w) - target;
        d * d
    };
    let perturbed = |slot: usize, entry: usize, eps: f64| {
        let mut m = model.clone();
        let dummy = m.zero_grads();
        let mut current = 0usize;
        m.visit_params(&dummy, &mut |p, _| {
            if current == slot {
                p.as_mut_slice()[entry] += eps;
            }
            current += 1;
        });
        m
    };

    let mut slots = 0usize;
    model
        .clone()
        .visit_params(&grads, &mut |_, _| slots += 1);
    let grad_mats = grad_matrices(&grads);
    assert_eq!(slots, grad_mats.len(), "visit_params order drifted");

    const EPS: f64 = 1e-5;
    for (slot, g) in grad_mats.iter().enumerate() {
        let len = g.as_slice().len();
        for entry in [0, len / 2, len - 1] {
            let up = loss_of(&perturbed(slot, entry, EPS));
            let down = loss_of(&perturbed(slot, entry, -EPS));
            let fd = (up - down) / (2.0 * EPS);
            let analytic = g.as_slice()[entry];
            assert!(
                (fd - analytic).abs() <= 1e-5 * fd.abs().max(analytic.abs()).max(1e-3),
                "slot {slot} entry {entry}: FD {fd} vs analytic {analytic}"
            );
        }
    }
}

#[test]
fn packed_matmul_matches_naive_within_1e9() {
    // Shapes cover full micro-tiles, edge tiles in both dimensions
    // (non-multiples of the 8x4 tile), and the 1xN / Nx1 degenerate edges.
    // The packed kernel's FMA lanes round once per step, so the contract
    // is 1e-9 relative (the dispatcher's documented tolerance), not
    // bitwise.
    let mut rng = StdRng::seed_from_u64(0xE0_04);
    for &(m, k, n) in &[
        (2usize, 3usize, 4usize),
        (1, 11, 9),
        (9, 11, 1),
        (8, 16, 4),
        (33, 65, 17),
        (80, 120, 96),
    ] {
        let a = Matrix::random_uniform(m, k, 1.0, &mut rng);
        let b = Matrix::random_uniform(k, n, 1.0, &mut rng);
        let naive = a.matmul_naive(&b).unwrap();
        let scale = naive.frobenius_norm().max(1.0);
        assert!(
            a.matmul_packed(&b).unwrap().max_abs_diff(&naive) <= 1e-9 * scale,
            "({m}x{k})*({k}x{n}): packed drifts from naive"
        );
        assert!(a.matmul(&b).unwrap().max_abs_diff(&naive) <= 1e-9 * scale);
    }
}

#[test]
fn pack_round_trips_are_lossless() {
    // pack(A) / pack(B) followed by unpack restores the flat buffer
    // bitwise, including at shapes that force zero-padded edge panels.
    let mut rng = StdRng::seed_from_u64(0xE0_14);
    for &(r, c) in &[(1usize, 1usize), (1, 10), (10, 1), (7, 5), (16, 12), (31, 33)] {
        let flat: Vec<f64> = (0..r * c).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let a = ld_linalg::pack::PackedA::pack(&flat, r, c);
        assert_eq!(a.unpack(), flat, "{r}x{c} A round trip");
        let mut bp = Vec::new();
        ld_linalg::pack::pack_b_into(&flat, r, c, &mut bp);
        assert_eq!(ld_linalg::pack::unpack_b(&bp, r, c), flat, "{r}x{c} B round trip");
    }
}

#[test]
fn bitwise_packed_gemm_matches_naive() {
    // The plain-lane packed-A kernel must agree **bitwise** with the naive
    // product: per element both are one ascending-k multiply/add chain.
    // Shapes cover full panels, short final panels, column remainders
    // (n % 8), and the 1xN / Nx1 degenerate edges.
    let mut rng = StdRng::seed_from_u64(0xE0_24);
    for &(m, k, n) in &[
        (1usize, 1usize, 1usize),
        (1, 7, 13),
        (13, 7, 1),
        (8, 16, 8),
        (12, 5, 11),
        (33, 65, 17),
        (64, 48, 40),
    ] {
        let a = Matrix::random_uniform(m, k, 1.0, &mut rng);
        let b = Matrix::random_uniform(k, n, 1.0, &mut rng);
        let naive = a.matmul_naive(&b).unwrap();
        let packed = ld_linalg::pack::PackedA::from_matrix(&a);

        let mut fast = vec![0.0; m * n];
        packed.matmul_into(&b, &mut fast);
        for (i, (f, r)) in fast.iter().zip(naive.as_slice()).enumerate() {
            assert_eq!(
                f.to_bits(),
                r.to_bits(),
                "({m}x{k})*({k}x{n}) element {i}: {f} vs {r}"
            );
        }

        // The fused accumulate+bias store folds `(out + acc) + bias[row]`
        // with the product accumulated to completion first.
        let bias: Vec<f64> = (0..m).map(|i| (i as f64 * 0.3).cos()).collect();
        let seed: Vec<f64> = (0..m * n).map(|i| (i as f64 * 0.17).sin()).collect();
        let mut acc = seed.clone();
        packed.matmul_acc_bias_into(&b, &bias, &mut acc);
        for i in 0..m {
            for j in 0..n {
                let want = (seed[i * n + j] + naive[(i, j)]) + bias[i];
                assert_eq!(
                    acc[i * n + j].to_bits(),
                    want.to_bits(),
                    "acc+bias ({m}x{k})*({k}x{n}) at ({i},{j})"
                );
            }
        }
    }
}

#[test]
fn fused_gate_step_matches_reference_within_1e9() {
    let mut rng = StdRng::seed_from_u64(0xE0_34);
    let model = LstmForecaster::new(ForecasterConfig {
        history_len: 10,
        hidden_size: 24,
        num_layers: 2,
        seed: 77,
    });
    for (l, layer) in model.layers().iter().enumerate() {
        let i_dim = if l == 0 { 1 } else { 24 };
        let h = 24;
        let mut gate_in = vec![0.0; i_dim + h + 1];
        let mut z_fast = vec![0.0; 4 * h];
        let mut z_ref = vec![0.0; 4 * h];
        for case in 0..6 {
            let x: Vec<f64> = (0..i_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let h_prev: Vec<f64> = (0..h).map(|_| rng.gen_range(-1.0..1.0)).collect();
            layer.gate_step_fused(&x, &h_prev, &mut gate_in, &mut z_fast);
            layer.gate_step_reference(&x, &h_prev, &mut z_ref);
            for (r, (f, want)) in z_fast.iter().zip(&z_ref).enumerate() {
                assert_rel(&format!("layer {l} case {case} gate row {r}"), *f, *want, 1e-9);
            }
        }
    }
}

#[test]
fn batched_fused_inference_matches_reference_bitwise() {
    let model = LstmForecaster::new(ForecasterConfig {
        history_len: 9,
        hidden_size: 7,
        num_layers: 2,
        seed: 41,
    });
    let batch = 5;
    let windows: Vec<f64> = (0..batch * 9)
        .map(|i| ((i as f64 * 0.29).sin() + 1.0) * 0.5)
        .collect();
    let mut scratch = ld_nn::BatchScratch::new();
    let mut out = vec![0.0; batch];
    model.predict_batch_fused(&windows, batch, &mut scratch, &mut out);
    for (j, got) in out.iter().enumerate() {
        let want = model.predict_reference(&windows[j * 9..(j + 1) * 9]);
        assert_eq!(got.to_bits(), want.to_bits(), "lane {j}: {got} vs {want}");
    }
}

#[test]
fn packed_gram_matches_serial_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xE0_15);
    for n in [1usize, 7, 33, 64] {
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let kernel = Kernel::new(KernelKind::Rbf, 0.9, 0.4);
        let serial = gram::build_serial(&kernel, &x, 1e-6);
        let packed = gram::build_packed(&kernel, &x, 1e-6);
        assert_eq!(serial.max_abs_diff(&packed), 0.0, "n={n}");
    }
}

#[test]
fn tree_fit_matches_reference_builder_bitwise() {
    // The flat-slab tree builder must grow the identical tree the retained
    // index-sort builder grows — same splits, thresholds and leaves — under
    // every split policy and feature-subsampling setting the Table II tree
    // members use. Each ensemble tree seeds its own RNG, so per-tree
    // equality implies ensemble equality.
    use ld_baselines::ml::Regressor as _;
    use ld_baselines::tree::{DecisionTree, SplitPolicy, TreeConfig};
    let data: Vec<f64> = (0..120)
        .map(|i| 40.0 + 12.0 * ((i as f64) * 0.21).sin() + (i % 5) as f64)
        .collect();
    let (xs, ys) = ld_baselines::features::window_dataset(&data, 8);
    for policy in [SplitPolicy::Best, SplitPolicy::Random] {
        for max_features in [None, Some(3)] {
            let config = TreeConfig {
                policy,
                max_features,
                ..TreeConfig::default()
            };
            for seed in 0..4u64 {
                let mut fast = DecisionTree::new(config, seed);
                fast.fit(&xs, &ys);
                let mut reference = DecisionTree::new(config, seed);
                reference.fit_reference(&xs, &ys);
                let what = format!("{policy:?} max_features {max_features:?} seed {seed}");
                assert_eq!(
                    fast.node_count(),
                    reference.node_count(),
                    "{what}: node count"
                );
                assert_eq!(fast.depth(), reference.depth(), "{what}: depth");
                for (i, x) in xs.iter().enumerate() {
                    let (f, r) = (fast.predict(x), reference.predict(x));
                    assert_eq!(f.to_bits(), r.to_bits(), "{what} row {i}: {f} vs {r}");
                }
            }
        }
    }
}

#[test]
fn train_report_fast_matches_reference_trainer() {
    // Same seed => bit-identical initial weights; the fast trainer path
    // (workspace BPTT, accumulate-in-place batches) must then reproduce the
    // reference trainer's loss trajectory within the documented 1e-7
    // relative tolerance.
    let series: Vec<f64> = (0..140)
        .map(|i| 0.5 + 0.4 * (i as f64 * 0.13).sin() + 0.01 * (i % 7) as f64)
        .collect();
    let samples = make_windows(&series, 6);
    let (train, val) = samples.split_at(samples.len() - 20);

    let base = LstmForecaster::new(ForecasterConfig {
        history_len: 6,
        hidden_size: 6,
        num_layers: 1,
        seed: 19,
    });
    let trainer = Trainer::new(TrainOptions {
        batch_size: 16,
        max_epochs: 4,
        patience: 0,
        shuffle_seed: 3,
        ..TrainOptions::default()
    });

    let mut fast = base.clone();
    let fast_report = trainer.fit(
        &mut fast,
        &mut Adam::new(AdamConfig::default()),
        train,
        val,
    );
    let mut reference = ReferenceLstmForecaster(base.clone());
    let ref_report = trainer.fit(
        &mut reference,
        &mut Adam::new(AdamConfig::default()),
        train,
        val,
    );

    assert_eq!(fast_report.epochs_run, ref_report.epochs_run);
    for (e, (f, r)) in fast_report
        .train_losses
        .iter()
        .zip(&ref_report.train_losses)
        .enumerate()
    {
        assert_rel(&format!("train loss epoch {e}"), *f, *r, 1e-7);
    }
    for (e, (f, r)) in fast_report
        .val_losses
        .iter()
        .zip(&ref_report.val_losses)
        .enumerate()
    {
        assert_rel(&format!("val loss epoch {e}"), *f, *r, 1e-7);
    }
    // The trained models agree on fresh predictions too.
    let probe = &series[series.len() - 6..];
    assert_rel(
        "post-fit prediction",
        fast.predict(probe),
        reference.0.predict_reference(probe),
        1e-7,
    );
}
