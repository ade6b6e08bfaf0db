//! Random Forest over statistical features (Table III row "Random Forest").
//!
//! CART trees with Gini impurity, bootstrap resampling and √d feature
//! subsampling. The paper's RF consumes per-channel statistical features
//! (mean, std, min, max, var); [`window_stat_features`] computes exactly
//! that vector from a channel-major window, and the Fig. 9 Pareto point "D"
//! reports total node count as the parameter measure (the paper annotates
//! "72000 total nodes").

use std::sync::Arc;

use exec::ExecPool;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::{MlError, Result};

/// Random-forest hyperparameters (Table III: 100–500 trees, depth 10–None).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Number of trees (estimators).
    pub n_estimators: usize,
    /// Maximum tree depth (`None` = grow until pure).
    pub max_depth: Option<usize>,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Number of classes.
    pub classes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ForestConfig {
    /// Sec. V winner: 200 estimators (with window 90 upstream), depth 20.
    #[must_use]
    pub fn paper_best() -> Self {
        Self {
            n_estimators: 200,
            max_depth: Some(20),
            min_samples_split: 4,
            classes: 3,
            seed: 0,
        }
    }
}

/// The five Table III statistics per channel, flattened channel-major.
///
/// # Panics
///
/// Panics if `window.len()` is not a multiple of `channels`.
#[must_use]
pub fn window_stat_features(window: &[f32], channels: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(channels * 5);
    window_stat_features_into(window, channels, &mut out);
    out
}

/// [`window_stat_features`] into a reused buffer (cleared first) — the
/// allocation-free serving path; identical arithmetic.
///
/// # Panics
///
/// Panics if `window.len()` is not a multiple of `channels`.
pub fn window_stat_features_into(window: &[f32], channels: usize, out: &mut Vec<f32>) {
    assert!(
        channels > 0 && window.len().is_multiple_of(channels),
        "window {} not divisible by {channels}",
        window.len()
    );
    let per = window.len() / channels;
    out.clear();
    for ch in 0..channels {
        let row = &window[ch * per..(ch + 1) * per];
        let n = row.len() as f64;
        let mean = row.iter().map(|&x| f64::from(x)).sum::<f64>() / n;
        let var = row
            .iter()
            .map(|&x| (f64::from(x) - mean).powi(2))
            .sum::<f64>()
            / n;
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        for &x in row {
            min = min.min(x);
            max = max.max(x);
        }
        out.push(mean as f32);
        out.push(var.sqrt() as f32);
        out.push(min);
        out.push(max);
        out.push(var as f32);
    }
}

/// One node of a CART tree's arena (public so `model-io` can persist
/// fitted forests node for node).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TreeNode {
    /// A terminal node.
    Leaf {
        /// Class-probability distribution at this leaf.
        probs: Vec<f32>,
    },
    /// An internal split.
    Split {
        /// Feature index compared at this node.
        feature: usize,
        /// Decision threshold (`<=` goes left).
        threshold: f32,
        /// Arena index of the left child (always greater than this node's).
        left: usize,
        /// Arena index of the right child (always greater than this node's).
        right: usize,
    },
}

/// One CART tree stored as an arena of nodes.
///
/// The arena is behind an `Arc`, so cloning a tree (and hence an ensemble
/// member that holds forests) shares the fitted nodes instead of copying
/// them — the forest analogue of the tensors' shared weight arena.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tree {
    nodes: Arc<Vec<TreeNode>>,
}

impl Tree {
    /// Reassembles a tree from its node arena (the model-persistence load
    /// path), enforcing the invariant [`Tree::predict_proba`] relies on for
    /// termination: every split's children live strictly after it in the
    /// arena, so traversal from the root is acyclic.
    ///
    /// Feature indices cannot be bounds-checked here — the fitted feature
    /// count is not part of the tree — so predicting with a feature vector
    /// shorter than a split's `feature` index still panics, exactly as it
    /// does for a freshly fitted tree fed the wrong-length input.
    /// [`RandomForest::from_parts`] additionally checks leaf distributions
    /// against the configured class count.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::BadConfig`] for an empty arena or any
    /// backward/out-of-range child index.
    pub fn from_nodes(nodes: Vec<TreeNode>) -> Result<Self> {
        if nodes.is_empty() {
            return Err(MlError::BadConfig("tree with no nodes".into()));
        }
        for (i, node) in nodes.iter().enumerate() {
            if let TreeNode::Split { left, right, .. } = node {
                if *left <= i || *right <= i || *left >= nodes.len() || *right >= nodes.len() {
                    return Err(MlError::BadConfig(format!(
                        "split node {i} has non-forward children {left}/{right}"
                    )));
                }
            }
        }
        Ok(Self {
            nodes: Arc::new(nodes),
        })
    }

    /// The node arena, root first.
    #[must_use]
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Number of nodes (the paper's size metric for RF).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Class probabilities for one feature vector.
    #[must_use]
    pub fn predict_proba(&self, features: &[f32]) -> &[f32] {
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                TreeNode::Leaf { probs } => return probs,
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if features[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// A trained random forest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    config: ForestConfig,
    trees: Vec<Tree>,
}

impl RandomForest {
    /// Fits a forest on feature rows `x` with labels `y`, training trees in
    /// parallel on the process-wide [`exec::shared`] pool.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] on empty input,
    /// [`MlError::BadLabel`] on out-of-range labels, and
    /// [`MlError::BadConfig`] for zero estimators/classes.
    pub fn fit(config: ForestConfig, x: &[Vec<f32>], y: &[usize]) -> Result<Self> {
        Self::fit_with(config, x, y, &exec::shared())
    }

    /// [`RandomForest::fit`] on an explicit pool. Each tree's RNG derives
    /// from its index alone, so the fitted model is bit-identical for any
    /// thread count.
    ///
    /// # Errors
    ///
    /// Same as [`RandomForest::fit`].
    pub fn fit_with(
        config: ForestConfig,
        x: &[Vec<f32>],
        y: &[usize],
        pool: &ExecPool,
    ) -> Result<Self> {
        if config.n_estimators == 0 || config.classes == 0 {
            return Err(MlError::BadConfig("zero estimators or classes".into()));
        }
        if x.is_empty() || x.len() != y.len() {
            return Err(MlError::EmptyDataset);
        }
        for &label in y {
            if label >= config.classes {
                return Err(MlError::BadLabel {
                    label,
                    classes: config.classes,
                });
            }
        }
        let n_features = x[0].len();
        let mtry = ((n_features as f64).sqrt().ceil() as usize).max(1);
        let trees = pool.par_map_range(0..config.n_estimators, |t| {
            let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(t as u64 * 7919));
            // Bootstrap sample.
            let indices: Vec<usize> =
                (0..x.len()).map(|_| rng.gen_range(0..x.len())).collect();
            let mut builder = TreeBuilder {
                x,
                y,
                config: &config,
                mtry,
                n_features,
                nodes: Vec::new(),
                rng,
            };
            builder.build(indices, 0);
            Tree {
                nodes: Arc::new(builder.nodes),
            }
        });
        Ok(Self { config, trees })
    }

    /// Reassembles a forest from a configuration and fitted trees (the
    /// model-persistence load path).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::BadConfig`] when the tree count disagrees with
    /// `config.n_estimators`, the class count is zero (prediction averages
    /// over trees and classes, so both must be non-degenerate), or any
    /// leaf's probability vector is not `config.classes` long (a short
    /// leaf would silently skew [`RandomForest::predict_proba`]'s vote).
    pub fn from_parts(config: ForestConfig, trees: Vec<Tree>) -> Result<Self> {
        if config.classes == 0 {
            return Err(MlError::BadConfig("zero classes".into()));
        }
        if trees.is_empty() || trees.len() != config.n_estimators {
            return Err(MlError::BadConfig(format!(
                "{} trees but config says {} estimators",
                trees.len(),
                config.n_estimators
            )));
        }
        for (t, tree) in trees.iter().enumerate() {
            for node in tree.nodes() {
                if let TreeNode::Leaf { probs } = node {
                    if probs.len() != config.classes {
                        return Err(MlError::BadConfig(format!(
                            "tree {t} leaf has {} probabilities for {} classes",
                            probs.len(),
                            config.classes
                        )));
                    }
                }
            }
        }
        Ok(Self { config, trees })
    }

    /// The fitted trees.
    #[must_use]
    pub fn trees(&self) -> &[Tree] {
        &self.trees
    }

    /// The fitted configuration.
    #[must_use]
    pub fn config(&self) -> &ForestConfig {
        &self.config
    }

    /// Total node count across all trees (Fig. 9's parameter metric).
    #[must_use]
    pub fn total_nodes(&self) -> usize {
        self.trees.iter().map(Tree::node_count).sum()
    }

    /// Mean class probabilities across trees.
    #[must_use]
    pub fn predict_proba(&self, features: &[f32]) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.config.classes];
        self.predict_proba_into(features, &mut acc);
        acc
    }

    /// [`RandomForest::predict_proba`] into a preallocated buffer (fully
    /// overwritten) — the allocation-free serving path; trees vote in the
    /// same fixed order, so the result is bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != classes`.
    pub fn predict_proba_into(&self, features: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), self.config.classes, "class buffer size");
        out.fill(0.0);
        for tree in &self.trees {
            for (a, p) in out.iter_mut().zip(tree.predict_proba(features)) {
                *a += p;
            }
        }
        let n = self.trees.len() as f32;
        for a in out.iter_mut() {
            *a /= n;
        }
    }

    /// Predicted class for one feature vector, by
    /// [`crate::ensemble::argmax`]'s rule (a NaN never wins; all-NaN gives
    /// class 0).
    #[must_use]
    pub fn predict(&self, features: &[f32]) -> usize {
        crate::ensemble::argmax(&self.predict_proba(features))
    }

    /// Predicted classes for a batch of feature vectors, evaluated in
    /// parallel (in input order) on `pool`.
    #[must_use]
    pub fn predict_batch(&self, rows: &[Vec<f32>], pool: &ExecPool) -> Vec<usize> {
        pool.par_map(rows, |row| self.predict(row))
    }

    /// Accuracy over a labelled feature set, scored on the shared pool.
    #[must_use]
    pub fn evaluate(&self, x: &[Vec<f32>], y: &[usize]) -> f64 {
        self.evaluate_with(x, y, &exec::shared())
    }

    /// [`RandomForest::evaluate`] on an explicit pool.
    #[must_use]
    pub fn evaluate_with(&self, x: &[Vec<f32>], y: &[usize], pool: &ExecPool) -> f64 {
        if x.is_empty() {
            return 0.0;
        }
        let correct = self
            .predict_batch(x, pool)
            .iter()
            .zip(y)
            .filter(|(p, l)| p == l)
            .count();
        correct as f64 / x.len() as f64
    }
}

struct TreeBuilder<'a> {
    x: &'a [Vec<f32>],
    y: &'a [usize],
    config: &'a ForestConfig,
    mtry: usize,
    n_features: usize,
    nodes: Vec<TreeNode>,
    rng: StdRng,
}

impl TreeBuilder<'_> {
    /// Builds the subtree for `indices`, returning its node id.
    fn build(&mut self, indices: Vec<usize>, depth: usize) -> usize {
        let counts = self.class_counts(&indices);
        let total: usize = counts.iter().sum();
        let pure = counts.contains(&total);
        let depth_capped = self
            .config
            .max_depth
            .is_some_and(|d| depth >= d);
        if pure || depth_capped || indices.len() < self.config.min_samples_split {
            return self.leaf(&counts);
        }
        let Some((feature, threshold)) = self.best_split(&indices, &counts) else {
            return self.leaf(&counts);
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .into_iter()
            .partition(|&i| self.x[i][feature] <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            return self.leaf(&counts);
        }
        // Reserve the split node now so children follow it in the arena.
        let id = self.nodes.len();
        self.nodes.push(TreeNode::Leaf { probs: vec![] }); // placeholder
        let left = self.build(left_idx, depth + 1);
        let right = self.build(right_idx, depth + 1);
        self.nodes[id] = TreeNode::Split {
            feature,
            threshold,
            left,
            right,
        };
        id
    }

    fn leaf(&mut self, counts: &[usize]) -> usize {
        let total: usize = counts.iter().sum();
        let probs = counts
            .iter()
            .map(|&c| {
                if total == 0 {
                    1.0 / counts.len() as f32
                } else {
                    c as f32 / total as f32
                }
            })
            .collect();
        self.nodes.push(TreeNode::Leaf { probs });
        self.nodes.len() - 1
    }

    fn class_counts(&self, indices: &[usize]) -> Vec<usize> {
        let mut counts = vec![0usize; self.config.classes];
        for &i in indices {
            counts[self.y[i]] += 1;
        }
        counts
    }

    fn gini(counts: &[usize]) -> f64 {
        let total: usize = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let t = total as f64;
        1.0 - counts
            .iter()
            .map(|&c| (c as f64 / t).powi(2))
            .sum::<f64>()
    }

    /// Best `(feature, threshold)` by Gini gain over an `mtry` feature
    /// sample, evaluating candidate thresholds at sorted midpoints.
    fn best_split(&mut self, indices: &[usize], parent_counts: &[usize]) -> Option<(usize, f32)> {
        let parent_gini = Self::gini(parent_counts);
        let n = indices.len() as f64;
        let mut best: Option<(usize, f32, f64)> = None;

        // Sample features without replacement.
        let mut features: Vec<usize> = (0..self.n_features).collect();
        for i in 0..self.mtry.min(self.n_features) {
            let j = self.rng.gen_range(i..features.len());
            features.swap(i, j);
        }
        for &feature in features.iter().take(self.mtry.min(self.n_features)) {
            let mut vals: Vec<(f32, usize)> = indices
                .iter()
                .map(|&i| (self.x[i][feature], self.y[i]))
                .collect();
            vals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));
            let mut left = vec![0usize; self.config.classes];
            let mut right = parent_counts.to_vec();
            for w in 0..vals.len() - 1 {
                left[vals[w].1] += 1;
                right[vals[w].1] -= 1;
                if vals[w].0 == vals[w + 1].0 {
                    continue;
                }
                let nl = (w + 1) as f64;
                let nr = n - nl;
                let gain = parent_gini
                    - (nl / n) * Self::gini(&left)
                    - (nr / n) * Self::gini(&right);
                if best.is_none_or(|(_, _, g)| gain > g) && gain > 1e-9 {
                    let threshold = (vals[w].0 + vals[w + 1].0) / 2.0;
                    best = Some((feature, threshold, gain));
                }
            }
        }
        best.map(|(f, t, _)| (f, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Separable toy data: class = quadrant of (f0, f1).
    fn toy(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a: f32 = rng.gen_range(-1.0..1.0);
            let b: f32 = rng.gen_range(-1.0..1.0);
            let noise: f32 = rng.gen_range(-0.05..0.05);
            let label = if a > 0.0 && b > 0.0 {
                0
            } else if a <= 0.0 && b > 0.0 {
                1
            } else {
                2
            };
            xs.push(vec![a + noise, b + noise, rng.gen_range(-1.0..1.0)]);
            ys.push(label);
        }
        (xs, ys)
    }

    #[test]
    fn predict_is_total_over_nan_probabilities() {
        let config = ForestConfig {
            n_estimators: 1,
            max_depth: None,
            min_samples_split: 2,
            classes: 3,
            seed: 0,
        };
        let leaf = |probs: Vec<f32>| {
            let tree = Tree::from_nodes(vec![TreeNode::Leaf { probs }]).unwrap();
            RandomForest::from_parts(config, vec![tree]).unwrap()
        };
        assert_eq!(leaf(vec![f32::NAN, 0.2, 0.1]).predict(&[0.0]), 1);
        assert_eq!(leaf(vec![0.3, f32::NAN, 0.7]).predict(&[0.0]), 2);
        assert_eq!(leaf(vec![f32::NAN; 3]).predict(&[0.0]), 0);
    }

    #[test]
    fn forest_learns_separable_data() {
        let (xs, ys) = toy(300, 0);
        let (tx, ty) = toy(100, 1);
        let forest = RandomForest::fit(
            ForestConfig {
                n_estimators: 30,
                max_depth: Some(8),
                min_samples_split: 2,
                classes: 3,
                seed: 42,
            },
            &xs,
            &ys,
        )
        .unwrap();
        let acc = forest.evaluate(&tx, &ty);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn depth_limit_bounds_tree_size() {
        let (xs, ys) = toy(300, 2);
        let shallow = RandomForest::fit(
            ForestConfig {
                n_estimators: 10,
                max_depth: Some(2),
                min_samples_split: 2,
                classes: 3,
                seed: 1,
            },
            &xs,
            &ys,
        )
        .unwrap();
        let deep = RandomForest::fit(
            ForestConfig {
                n_estimators: 10,
                max_depth: Some(12),
                min_samples_split: 2,
                classes: 3,
                seed: 1,
            },
            &xs,
            &ys,
        )
        .unwrap();
        assert!(shallow.total_nodes() < deep.total_nodes());
        // Depth 2 => at most 7 nodes per tree.
        assert!(shallow.total_nodes() <= 10 * 7);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (xs, ys) = toy(100, 3);
        let forest = RandomForest::fit(
            ForestConfig {
                n_estimators: 5,
                max_depth: Some(4),
                min_samples_split: 2,
                classes: 3,
                seed: 1,
            },
            &xs,
            &ys,
        )
        .unwrap();
        let p = forest.predict_proba(&xs[0]);
        let s: f32 = p.iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            RandomForest::fit(ForestConfig::paper_best(), &[], &[]),
            Err(MlError::EmptyDataset)
        ));
        let bad_cfg = ForestConfig {
            n_estimators: 0,
            ..ForestConfig::paper_best()
        };
        assert!(RandomForest::fit(bad_cfg, &[vec![0.0]], &[0]).is_err());
        assert!(matches!(
            RandomForest::fit(ForestConfig::paper_best(), &[vec![0.0]], &[7]),
            Err(MlError::BadLabel { .. })
        ));
    }

    #[test]
    fn stat_features_layout() {
        // 2 channels of 4 samples.
        let window = [1.0, 1.0, 1.0, 1.0, 0.0, 2.0, 4.0, 6.0];
        let f = window_stat_features(&window, 2);
        assert_eq!(f.len(), 10);
        assert_eq!(f[0], 1.0); // mean ch0
        assert_eq!(f[1], 0.0); // std ch0
        assert_eq!(f[5], 3.0); // mean ch1
        assert_eq!(f[7], 0.0); // min ch1
        assert_eq!(f[8], 6.0); // max ch1
        assert!((f[9] - 5.0).abs() < 1e-5); // var ch1
    }

    #[test]
    fn deterministic_fit() {
        let (xs, ys) = toy(100, 5);
        let cfg = ForestConfig {
            n_estimators: 5,
            max_depth: Some(4),
            min_samples_split: 2,
            classes: 3,
            seed: 9,
        };
        let a = RandomForest::fit(cfg, &xs, &ys).unwrap();
        let b = RandomForest::fit(cfg, &xs, &ys).unwrap();
        assert_eq!(a.total_nodes(), b.total_nodes());
        assert_eq!(a.predict_proba(&xs[0]), b.predict_proba(&xs[0]));
    }

    #[test]
    fn fit_is_bit_identical_across_thread_counts() {
        let (xs, ys) = toy(150, 8);
        let cfg = ForestConfig {
            n_estimators: 12,
            max_depth: Some(6),
            min_samples_split: 2,
            classes: 3,
            seed: 4,
        };
        let reference = RandomForest::fit_with(cfg, &xs, &ys, &ExecPool::new(1)).unwrap();
        for threads in [2, 4, 8] {
            let pool = ExecPool::new(threads);
            let forest = RandomForest::fit_with(cfg, &xs, &ys, &pool).unwrap();
            assert_eq!(forest, reference, "threads={threads}");
            assert_eq!(
                forest.predict_batch(&xs, &pool),
                reference.predict_batch(&xs, &ExecPool::sequential()),
            );
        }
    }
}
