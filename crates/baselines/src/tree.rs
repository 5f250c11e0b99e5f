//! CART regression tree — the "Decision Tree" member of Table II and the
//! base learner for the forest and boosting members.
//!
//! Splits minimize the weighted sum of child variances (equivalently,
//! maximize variance reduction). Two split policies are supported: exact
//! best-split search (CART / random forest) and random-threshold splits
//! (extra trees).
//!
//! Fitting runs on a flat row-major copy of the sample matrix: the split
//! search sorts `(value, target)` key pairs gathered once per candidate
//! feature into a scratch buffer reused across nodes, instead of sorting
//! freshly-allocated index lists through `Vec<Vec<f64>>` pointer chases.
//! The stable sort sees the same key sequence in the same order, every
//! floating-point accumulation keeps its order, and the RNG draw sequence
//! is untouched, so the fitted tree is **bitwise identical** to the
//! retained reference builder behind [`DecisionTree::fit_reference`],
//! which benchmarks and equivalence tests call directly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ml::Regressor;

/// Split-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitPolicy {
    /// Exhaustive best split over candidate features (CART).
    Best,
    /// Uniformly random threshold per candidate feature (extra trees).
    Random,
}

/// Tree growth configuration.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples in a leaf.
    pub min_samples_leaf: usize,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// Number of candidate features per split (`None` = all).
    pub max_features: Option<usize>,
    /// Split policy.
    pub policy: SplitPolicy,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 8,
            min_samples_leaf: 2,
            min_samples_split: 4,
            max_features: None,
            policy: SplitPolicy::Best,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted regression tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    config: TreeConfig,
    seed: u64,
}

impl DecisionTree {
    /// An unfitted tree with the given configuration and RNG seed (the seed
    /// matters for `max_features` subsampling and random splits).
    pub fn new(config: TreeConfig, seed: u64) -> Self {
        DecisionTree {
            nodes: Vec::new(),
            config,
            seed,
        }
    }

    /// Number of nodes in the fitted tree (0 before fitting).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the fitted tree.
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], idx: usize) -> usize {
            match nodes[idx] {
                Node::Leaf(_) => 1,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, left).max(depth_of(nodes, right))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth_of(&self.nodes, 0)
        }
    }

    /// Fits through the retained reference builder (per-node index-list
    /// sorts over the nested sample rows) instead of the flat-slab
    /// key-sort fast path of [`Regressor::fit`]. Both grow bitwise
    /// identical trees from the same seeded RNG; this is the oracle the
    /// fast path is pinned and timed against.
    pub fn fit_reference(&mut self, xs: &[Vec<f64>], ys: &[f64]) {
        if let Some((mut idxs, mut rng)) = self.begin_fit(xs, ys) {
            self.build_reference(xs, ys, &mut idxs, 0, &mut rng);
        }
    }

    /// Shared fit prologue: clears the tree and, for a non-empty sample,
    /// returns the root index list and the tree's freshly seeded RNG.
    fn begin_fit(&mut self, xs: &[Vec<f64>], ys: &[f64]) -> Option<(Vec<usize>, StdRng)> {
        assert_eq!(xs.len(), ys.len());
        self.nodes.clear();
        if xs.is_empty() {
            return None;
        }
        Some(((0..xs.len()).collect(), StdRng::seed_from_u64(self.seed)))
    }

    /// Reference builder, retained verbatim behind [`Self::fit_reference`]:
    /// each best-split scan clones and sorts the node's index list and
    /// gathers features through the nested `xs` rows.
    fn build_reference(
        &mut self,
        xs: &[Vec<f64>],
        ys: &[f64],
        idxs: &mut [usize],
        depth: usize,
        rng: &mut impl Rng,
    ) -> usize {
        let mean = idxs.iter().map(|&i| ys[i]).sum::<f64>() / idxs.len() as f64;
        let sse: f64 = idxs.iter().map(|&i| (ys[i] - mean).powi(2)).sum();
        if depth >= self.config.max_depth
            || idxs.len() < self.config.min_samples_split
            || sse <= 1e-12
        {
            self.nodes.push(Node::Leaf(mean));
            return self.nodes.len() - 1;
        }

        let d = xs[0].len();
        let n_feats = self.config.max_features.unwrap_or(d).clamp(1, d);
        // Choose candidate features without replacement (partial shuffle).
        let mut feats: Vec<usize> = (0..d).collect();
        for i in 0..n_feats {
            let j = rng.gen_range(i..d);
            feats.swap(i, j);
        }
        let candidates = &feats[..n_feats];

        let mut best: Option<(f64, usize, f64)> = None; // (score, feature, threshold)
        for &f in candidates {
            match self.config.policy {
                SplitPolicy::Best => {
                    // Sort by feature, scan split points with prefix sums.
                    let mut sorted: Vec<usize> = idxs.to_vec();
                    sorted.sort_by(|&a, &b| xs[a][f].total_cmp(&xs[b][f]));
                    let n = sorted.len();
                    let total_sum: f64 = sorted.iter().map(|&i| ys[i]).sum();
                    let total_sq: f64 = sorted.iter().map(|&i| ys[i] * ys[i]).sum();
                    let mut lsum = 0.0;
                    let mut lsq = 0.0;
                    for k in 0..n - 1 {
                        let yi = ys[sorted[k]];
                        lsum += yi;
                        lsq += yi * yi;
                        // Can't split between equal feature values.
                        if xs[sorted[k]][f] == xs[sorted[k + 1]][f] {
                            continue;
                        }
                        let nl = k + 1;
                        let nr = n - nl;
                        if nl < self.config.min_samples_leaf || nr < self.config.min_samples_leaf
                        {
                            continue;
                        }
                        let rsum = total_sum - lsum;
                        let rsq = total_sq - lsq;
                        let child_sse = (lsq - lsum * lsum / nl as f64)
                            + (rsq - rsum * rsum / nr as f64);
                        let threshold = 0.5 * (xs[sorted[k]][f] + xs[sorted[k + 1]][f]);
                        if best.is_none_or(|(s, _, _)| child_sse < s) {
                            best = Some((child_sse, f, threshold));
                        }
                    }
                }
                SplitPolicy::Random => {
                    let lo = idxs.iter().map(|&i| xs[i][f]).fold(f64::INFINITY, f64::min);
                    let hi = idxs
                        .iter()
                        .map(|&i| xs[i][f])
                        .fold(f64::NEG_INFINITY, f64::max);
                    if hi <= lo {
                        continue;
                    }
                    // A few random candidate thresholds per feature keeps
                    // single-feature trees (the degenerate but legal case)
                    // from stalling on one unlucky draw.
                    for _ in 0..4 {
                        let threshold = rng.gen_range(lo..hi);
                        let (mut lsum, mut lsq, mut nl) = (0.0, 0.0, 0usize);
                        let (mut rsum, mut rsq, mut nr) = (0.0, 0.0, 0usize);
                        for &i in idxs.iter() {
                            let y = ys[i];
                            if xs[i][f] <= threshold {
                                lsum += y;
                                lsq += y * y;
                                nl += 1;
                            } else {
                                rsum += y;
                                rsq += y * y;
                                nr += 1;
                            }
                        }
                        if nl < self.config.min_samples_leaf
                            || nr < self.config.min_samples_leaf
                        {
                            continue;
                        }
                        let child_sse =
                            (lsq - lsum * lsum / nl as f64) + (rsq - rsum * rsum / nr as f64);
                        if best.is_none_or(|(s, _, _)| child_sse < s) {
                            best = Some((child_sse, f, threshold));
                        }
                    }
                }
            }
        }

        let Some((_, feature, threshold)) = best else {
            self.nodes.push(Node::Leaf(mean));
            return self.nodes.len() - 1;
        };

        // Partition indices in place.
        let mut mid = 0;
        for k in 0..idxs.len() {
            if xs[idxs[k]][feature] <= threshold {
                idxs.swap(k, mid);
                mid += 1;
            }
        }
        debug_assert!(mid > 0 && mid < idxs.len());

        // Reserve the split node, then build children.
        let node_idx = self.nodes.len();
        self.nodes.push(Node::Leaf(mean)); // placeholder
        let (left_idxs, right_idxs) = idxs.split_at_mut(mid);
        let left = self.build_reference(xs, ys, left_idxs, depth + 1, rng);
        let right = self.build_reference(xs, ys, right_idxs, depth + 1, rng);
        self.nodes[node_idx] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        node_idx
    }

    /// Fast builder over a flat row-major sample slab (`n x d`).
    ///
    /// Per candidate feature the node's `(value, target)` pairs are
    /// gathered into `keys` (reused across every node of the fit) and
    /// stably sorted by value — the same key sequence, initial order, and
    /// tie handling as the reference builder's index sort, so the scan
    /// accumulates the identical sums in the identical order and picks the
    /// identical split. The RNG is consumed by the same draws in the same
    /// sequence. Trees are bitwise identical to [`Self::build_reference`].
    #[allow(clippy::too_many_arguments)]
    fn build_flat(
        &mut self,
        flat: &[f64],
        d: usize,
        ys: &[f64],
        idxs: &mut [usize],
        depth: usize,
        rng: &mut impl Rng,
        keys: &mut Vec<(f64, f64)>,
    ) -> usize {
        let mean = idxs.iter().map(|&i| ys[i]).sum::<f64>() / idxs.len() as f64;
        let sse: f64 = idxs.iter().map(|&i| (ys[i] - mean).powi(2)).sum();
        if depth >= self.config.max_depth
            || idxs.len() < self.config.min_samples_split
            || sse <= 1e-12
        {
            self.nodes.push(Node::Leaf(mean));
            return self.nodes.len() - 1;
        }

        let n_feats = self.config.max_features.unwrap_or(d).clamp(1, d);
        // Choose candidate features without replacement (partial shuffle).
        let mut feats: Vec<usize> = (0..d).collect();
        for i in 0..n_feats {
            let j = rng.gen_range(i..d);
            feats.swap(i, j);
        }
        let candidates = &feats[..n_feats];

        let mut best: Option<(f64, usize, f64)> = None; // (score, feature, threshold)
        for &f in candidates {
            match self.config.policy {
                SplitPolicy::Best => {
                    // Gather (value, target) pairs in node order, then sort
                    // by value and scan split points with prefix sums. The
                    // stable sort keeps tied values in node order exactly
                    // like the reference index sort.
                    keys.clear();
                    keys.extend(idxs.iter().map(|&i| (flat[i * d + f], ys[i])));
                    keys.sort_by(|a, b| a.0.total_cmp(&b.0));
                    let n = keys.len();
                    let total_sum: f64 = keys.iter().map(|kv| kv.1).sum();
                    let total_sq: f64 = keys.iter().map(|kv| kv.1 * kv.1).sum();
                    let mut lsum = 0.0;
                    let mut lsq = 0.0;
                    for k in 0..n - 1 {
                        let (v, yi) = keys[k];
                        lsum += yi;
                        lsq += yi * yi;
                        // Can't split between equal feature values.
                        if v == keys[k + 1].0 {
                            continue;
                        }
                        let nl = k + 1;
                        let nr = n - nl;
                        if nl < self.config.min_samples_leaf || nr < self.config.min_samples_leaf
                        {
                            continue;
                        }
                        let rsum = total_sum - lsum;
                        let rsq = total_sq - lsq;
                        let child_sse = (lsq - lsum * lsum / nl as f64)
                            + (rsq - rsum * rsum / nr as f64);
                        let threshold = 0.5 * (v + keys[k + 1].0);
                        if best.is_none_or(|(s, _, _)| child_sse < s) {
                            best = Some((child_sse, f, threshold));
                        }
                    }
                }
                SplitPolicy::Random => {
                    let lo = idxs
                        .iter()
                        .map(|&i| flat[i * d + f])
                        .fold(f64::INFINITY, f64::min);
                    let hi = idxs
                        .iter()
                        .map(|&i| flat[i * d + f])
                        .fold(f64::NEG_INFINITY, f64::max);
                    if hi <= lo {
                        continue;
                    }
                    // A few random candidate thresholds per feature keeps
                    // single-feature trees (the degenerate but legal case)
                    // from stalling on one unlucky draw.
                    for _ in 0..4 {
                        let threshold = rng.gen_range(lo..hi);
                        let (mut lsum, mut lsq, mut nl) = (0.0, 0.0, 0usize);
                        let (mut rsum, mut rsq, mut nr) = (0.0, 0.0, 0usize);
                        for &i in idxs.iter() {
                            let y = ys[i];
                            if flat[i * d + f] <= threshold {
                                lsum += y;
                                lsq += y * y;
                                nl += 1;
                            } else {
                                rsum += y;
                                rsq += y * y;
                                nr += 1;
                            }
                        }
                        if nl < self.config.min_samples_leaf
                            || nr < self.config.min_samples_leaf
                        {
                            continue;
                        }
                        let child_sse =
                            (lsq - lsum * lsum / nl as f64) + (rsq - rsum * rsum / nr as f64);
                        if best.is_none_or(|(s, _, _)| child_sse < s) {
                            best = Some((child_sse, f, threshold));
                        }
                    }
                }
            }
        }

        let Some((_, feature, threshold)) = best else {
            self.nodes.push(Node::Leaf(mean));
            return self.nodes.len() - 1;
        };

        // Partition indices in place.
        let mut mid = 0;
        for k in 0..idxs.len() {
            if flat[idxs[k] * d + feature] <= threshold {
                idxs.swap(k, mid);
                mid += 1;
            }
        }
        debug_assert!(mid > 0 && mid < idxs.len());

        // Reserve the split node, then build children.
        let node_idx = self.nodes.len();
        self.nodes.push(Node::Leaf(mean)); // placeholder
        let (left_idxs, right_idxs) = idxs.split_at_mut(mid);
        let left = self.build_flat(flat, d, ys, left_idxs, depth + 1, rng, keys);
        let right = self.build_flat(flat, d, ys, right_idxs, depth + 1, rng, keys);
        self.nodes[node_idx] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        node_idx
    }
}

impl Regressor for DecisionTree {
    fn fit(&mut self, xs: &[Vec<f64>], ys: &[f64]) {
        let Some((mut idxs, mut rng)) = self.begin_fit(xs, ys) else {
            return;
        };
        // Flatten the sample rows once; the builder then gathers features
        // with one multiply instead of a pointer chase per access.
        let d = xs[0].len();
        let mut flat = Vec::with_capacity(xs.len() * d);
        for row in xs {
            debug_assert_eq!(row.len(), d);
            flat.extend_from_slice(row);
        }
        let mut keys = Vec::with_capacity(xs.len());
        self.build_flat(&flat, d, ys, &mut idxs, 0, &mut rng, &mut keys);
    }

    fn predict(&self, x: &[f64]) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        let mut idx = 0usize;
        loop {
            match self.nodes[idx] {
                Node::Leaf(v) => return v,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if x[feature] <= threshold { left } else { right };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 10 for x < 0.5, y = 20 otherwise.
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 39.0]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| if x[0] < 0.5 { 10.0 } else { 20.0 })
            .collect();
        (xs, ys)
    }

    #[test]
    fn learns_a_step_function_exactly() {
        let (xs, ys) = step_data();
        let mut tree = DecisionTree::new(TreeConfig::default(), 0);
        tree.fit(&xs, &ys);
        assert_eq!(tree.predict(&[0.1]), 10.0);
        assert_eq!(tree.predict(&[0.9]), 20.0);
        // One split suffices.
        assert!(tree.node_count() <= 5, "nodes {}", tree.node_count());
    }

    #[test]
    fn respects_max_depth() {
        let xs: Vec<Vec<f64>> = (0..128).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..128).map(|i| (i % 17) as f64).collect();
        let mut tree = DecisionTree::new(
            TreeConfig {
                max_depth: 3,
                ..TreeConfig::default()
            },
            0,
        );
        tree.fit(&xs, &ys);
        assert!(tree.depth() <= 4, "depth {}", tree.depth()); // root + 3
    }

    #[test]
    fn constant_targets_yield_single_leaf() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys = vec![5.0; 20];
        let mut tree = DecisionTree::new(TreeConfig::default(), 0);
        tree.fit(&xs, &ys);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[100.0]), 5.0);
    }

    #[test]
    fn piecewise_fit_on_two_features() {
        // y depends only on feature 1; tree must find it.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for a in 0..10 {
            for b in 0..10 {
                xs.push(vec![a as f64, b as f64]);
                ys.push(if b < 5 { 0.0 } else { 100.0 });
            }
        }
        let mut tree = DecisionTree::new(TreeConfig::default(), 0);
        tree.fit(&xs, &ys);
        assert_eq!(tree.predict(&[3.0, 2.0]), 0.0);
        assert_eq!(tree.predict(&[3.0, 8.0]), 100.0);
    }

    #[test]
    fn random_policy_still_reduces_error() {
        let (xs, ys) = step_data();
        let mut tree = DecisionTree::new(
            TreeConfig {
                policy: SplitPolicy::Random,
                max_depth: 6,
                ..TreeConfig::default()
            },
            42,
        );
        tree.fit(&xs, &ys);
        let mse: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (tree.predict(x) - y).powi(2))
            .sum::<f64>()
            / xs.len() as f64;
        // Plain mean would give MSE 25; random splits must do much better.
        assert!(mse < 5.0, "mse {mse}");
    }

    #[test]
    fn min_samples_leaf_enforced() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let mut tree = DecisionTree::new(
            TreeConfig {
                min_samples_leaf: 5,
                ..TreeConfig::default()
            },
            0,
        );
        tree.fit(&xs, &ys);
        // Only one split can satisfy 5+5.
        assert!(tree.node_count() <= 3);
    }

    #[test]
    fn empty_fit_predicts_zero() {
        let mut tree = DecisionTree::new(TreeConfig::default(), 0);
        tree.fit(&[], &[]);
        assert_eq!(tree.predict(&[1.0]), 0.0);
    }

    #[test]
    fn flat_builder_matches_reference_bitwise() {
        // Multi-feature data with deliberate tied values so the stable-sort
        // tie handling is exercised, under every policy / subsampling combo.
        let xs: Vec<Vec<f64>> = (0..90)
            .map(|i| {
                vec![
                    (i % 9) as f64 * 0.5, // heavy ties
                    ((i as f64) * 0.37).sin(),
                    (i / 10) as f64,
                    ((i * 7) % 13) as f64 * 0.1,
                ]
            })
            .collect();
        let ys: Vec<f64> = (0..90)
            .map(|i| ((i as f64) * 0.11).cos() * 5.0 + ((i * 3) % 11) as f64)
            .collect();
        for (policy, max_features) in [
            (SplitPolicy::Best, None),
            (SplitPolicy::Best, Some(2)),
            (SplitPolicy::Random, None),
            (SplitPolicy::Random, Some(2)),
        ] {
            let config = TreeConfig {
                policy,
                max_features,
                ..TreeConfig::default()
            };
            let mut fast = DecisionTree::new(config, 17);
            fast.fit(&xs, &ys);
            let mut reference = DecisionTree::new(config, 17);
            reference.fit_reference(&xs, &ys);
            assert_eq!(fast.node_count(), reference.node_count(), "{policy:?}");
            for x in &xs {
                assert_eq!(
                    fast.predict(x).to_bits(),
                    reference.predict(x).to_bits(),
                    "{policy:?} max_features {max_features:?}"
                );
            }
        }
    }
}
