//! Gradient-boosted decision-tree forests (the LightGBM stand-in).
//!
//! The paper's LightGBM workload scores a large feature table against a
//! trained model. We reproduce the data-parallel inference path: a
//! [`Forest`] of binary decision trees evaluated row-by-row, summing leaf
//! values across trees. Training is out of scope (the paper only measures
//! inference over stored data), so forests are constructed directly —
//! typically pseudo-randomly by the workload generator.

use crate::error::{LangError, Result};
use std::fmt;
use std::sync::Arc;

/// One node of a decision tree in array form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeNode {
    /// Feature column this node splits on.
    pub feature: u32,
    /// Split threshold: `x[feature] < threshold` goes left.
    pub threshold: f64,
    /// Index of the left child, or `u32::MAX` for a leaf.
    pub left: u32,
    /// Index of the right child, or `u32::MAX` for a leaf.
    pub right: u32,
    /// Leaf value (only meaningful when this is a leaf).
    pub value: f64,
}

isp_obs::fingerprint_fields!(TreeNode {
    feature,
    threshold,
    left,
    right,
    value
});

impl TreeNode {
    /// Sentinel child index marking a leaf.
    pub const LEAF: u32 = u32::MAX;

    /// Whether this node is a leaf.
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        self.left == Self::LEAF && self.right == Self::LEAF
    }

    /// Constructs a leaf.
    #[must_use]
    pub fn leaf(value: f64) -> Self {
        TreeNode {
            feature: 0,
            threshold: 0.0,
            left: Self::LEAF,
            right: Self::LEAF,
            value,
        }
    }

    /// Constructs an internal split node.
    #[must_use]
    pub fn split(feature: u32, threshold: f64, left: u32, right: u32) -> Self {
        TreeNode {
            feature,
            threshold,
            left,
            right,
            value: 0.0,
        }
    }
}

/// One binary decision tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Tree {
    nodes: Vec<TreeNode>,
}

isp_obs::fingerprint_fields!(Tree { nodes });

impl Tree {
    /// Builds a tree; node 0 is the root.
    ///
    /// # Errors
    ///
    /// Returns an error if the tree is empty or any child index is out of
    /// bounds / not strictly forward (which would allow cycles).
    pub fn new(nodes: Vec<TreeNode>) -> Result<Self> {
        if nodes.is_empty() {
            return Err(LangError::runtime("a tree needs at least one node"));
        }
        for (i, n) in nodes.iter().enumerate() {
            if !n.is_leaf() {
                for child in [n.left, n.right] {
                    if child == TreeNode::LEAF {
                        return Err(LangError::runtime(format!(
                            "node {i} mixes leaf and split children"
                        )));
                    }
                    let child = child as usize;
                    if child >= nodes.len() || child <= i {
                        return Err(LangError::runtime(format!(
                            "node {i} has invalid child {child}"
                        )));
                    }
                }
            }
        }
        Ok(Tree { nodes })
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty (never true for a constructed tree).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Scores one feature row, returning the reached leaf's value and the
    /// number of nodes visited.
    ///
    /// Missing features (index beyond the row) read as `0.0`.
    #[must_use]
    pub fn score(&self, features: &[f64]) -> (f64, u32) {
        let mut idx = 0usize;
        let mut visited = 0u32;
        loop {
            let node = &self.nodes[idx];
            visited += 1;
            if node.is_leaf() {
                return (node.value, visited);
            }
            let x = features.get(node.feature as usize).copied().unwrap_or(0.0);
            idx = if x < node.threshold {
                node.left as usize
            } else {
                node.right as usize
            };
        }
    }

    /// The nodes in array form (node 0 is the root). Exposed for
    /// serialization; rebuild with [`Tree::new`] so validation reruns.
    #[must_use]
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Maximum root-to-leaf depth.
    #[must_use]
    pub fn depth(&self) -> u32 {
        fn go(nodes: &[TreeNode], idx: usize) -> u32 {
            let n = &nodes[idx];
            if n.is_leaf() {
                1
            } else {
                1 + go(nodes, n.left as usize).max(go(nodes, n.right as usize))
            }
        }
        go(&self.nodes, 0)
    }
}

/// An additive ensemble of trees.
#[derive(Debug, Clone, PartialEq)]
pub struct Forest {
    trees: Arc<Vec<Tree>>,
    features: u32,
}

isp_obs::fingerprint_fields!(Forest { trees, features });

impl Forest {
    /// Builds a forest over `features` feature columns.
    ///
    /// # Errors
    ///
    /// Returns an error if `trees` is empty.
    pub fn new(trees: Vec<Tree>, features: u32) -> Result<Self> {
        if trees.is_empty() {
            return Err(LangError::runtime("a forest needs at least one tree"));
        }
        Ok(Forest {
            trees: Arc::new(trees),
            features,
        })
    }

    /// Number of trees.
    #[must_use]
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// Number of feature columns the model expects.
    #[must_use]
    pub fn feature_count(&self) -> u32 {
        self.features
    }

    /// The ensemble's trees. Exposed for serialization; rebuild with
    /// [`Forest::new`] so validation reruns.
    #[must_use]
    pub fn trees(&self) -> &[Tree] {
        &self.trees
    }

    /// Total node count across all trees.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.trees.iter().map(Tree::len).sum()
    }

    /// Mean tree depth (used for analytic per-row cost).
    #[must_use]
    pub fn mean_depth(&self) -> f64 {
        let total: u32 = self.trees.iter().map(Tree::depth).sum();
        f64::from(total) / self.trees.len() as f64
    }

    /// Model size in bytes (each node: 4 + 8 + 4 + 4 + 8).
    #[must_use]
    pub fn virtual_bytes(&self) -> u64 {
        self.node_count() as u64 * 28
    }

    /// Scores one feature row: the sum of all trees' leaf values, plus
    /// total nodes visited.
    #[must_use]
    pub fn score(&self, features: &[f64]) -> (f64, u32) {
        let mut acc = 0.0;
        let mut visited = 0;
        for t in self.trees.iter() {
            let (v, n) = t.score(features);
            acc += v;
            visited += n;
        }
        (acc, visited)
    }
}

impl fmt::Display for Forest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "forest[{} trees, {} nodes]",
            self.tree_count(),
            self.node_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stump(feature: u32, threshold: f64, lo: f64, hi: f64) -> Tree {
        Tree::new(vec![
            TreeNode::split(feature, threshold, 1, 2),
            TreeNode::leaf(lo),
            TreeNode::leaf(hi),
        ])
        .expect("stump")
    }

    #[test]
    fn stump_scores_both_sides() {
        let t = stump(0, 0.5, -1.0, 1.0);
        assert_eq!(t.score(&[0.2]).0, -1.0);
        assert_eq!(t.score(&[0.7]).0, 1.0);
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn forest_sums_trees() {
        let f = Forest::new(vec![stump(0, 0.5, -1.0, 1.0), stump(1, 10.0, 5.0, 7.0)], 2)
            .expect("forest");
        let (score, visited) = f.score(&[0.9, 3.0]);
        assert_eq!(score, 1.0 + 5.0);
        assert_eq!(visited, 4);
        assert_eq!(f.node_count(), 6);
        assert!((f.mean_depth() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn missing_feature_reads_zero() {
        let t = stump(5, 0.5, -1.0, 1.0);
        // Feature 5 is absent => 0.0 < 0.5 => left.
        assert_eq!(t.score(&[9.0]).0, -1.0);
    }

    #[test]
    fn invalid_children_rejected() {
        // Child pointing backwards (cycle risk).
        let e = Tree::new(vec![TreeNode::split(0, 0.5, 0, 1), TreeNode::leaf(1.0)]);
        assert!(e.is_err());
        // Child out of range.
        let e = Tree::new(vec![TreeNode::split(0, 0.5, 1, 9)]);
        assert!(e.is_err());
        // Empty forest.
        assert!(Forest::new(vec![], 1).is_err());
    }

    #[test]
    fn virtual_bytes_counts_nodes() {
        let f = Forest::new(vec![stump(0, 0.5, 0.0, 1.0)], 1).expect("forest");
        assert_eq!(f.virtual_bytes(), 3 * 28);
    }
}
