//! Dominating trees and tree covers (paper §1.2 definitions).

use std::collections::HashMap;
use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};

use hopspan_metric::Metric;
use hopspan_treealg::{Lca, RootedTree};

/// Error produced by tree-cover constructions.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoverError {
    /// The metric has two points at distance zero (duplicate points), so
    /// no net hierarchy exists.
    DuplicatePoints {
        /// One of the coinciding points.
        i: usize,
        /// The other.
        j: usize,
    },
    /// The point set is empty.
    Empty,
    /// The stretch parameter is out of range.
    InvalidParameter {
        /// Human-readable description.
        what: &'static str,
    },
    /// A tree failed the domination check during validation.
    NotDominating {
        /// Tree index.
        tree: usize,
        /// First offending pair.
        pair: (usize, usize),
    },
    /// A distance was NaN, infinite or negative, so no net hierarchy
    /// (and hence no cover) exists for the metric.
    BadDistance {
        /// Row of the offending entry.
        i: usize,
        /// Column of the offending entry.
        j: usize,
        /// The offending value.
        value: f64,
    },
    /// A deep structural self-check found an internal inconsistency
    /// (see [`TreeCover::validate_structure`]).
    Corrupt {
        /// Which invariant failed.
        what: &'static str,
    },
}

impl fmt::Display for CoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverError::DuplicatePoints { i, j } => {
                write!(f, "points {i} and {j} coincide; distances must be positive")
            }
            CoverError::Empty => write!(f, "empty point set"),
            CoverError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
            CoverError::NotDominating { tree, pair } => {
                write!(f, "tree {tree} not dominating on pair {pair:?}")
            }
            CoverError::BadDistance { i, j, value } => {
                write!(
                    f,
                    "distance d({i}, {j}) = {value} is not finite non-negative"
                )
            }
            CoverError::Corrupt { what } => write!(f, "corrupt cover structure: {what}"),
        }
    }
}

impl std::error::Error for CoverError {}

/// A dominating tree for (a subset of) a metric space: an edge-weighted
/// rooted tree whose vertices carry point ids, with one designated leaf
/// per covered point, such that tree distances between leaves dominate the
/// metric distances.
///
/// Internal vertices carry an *associated point* (`point_of`) — for the
/// robust covers of §4 this may be replaced by any descendant leaf's point
/// without violating the cover's stretch.
#[derive(Debug)]
pub struct DominatingTree {
    tree: RootedTree,
    lca: Lca,
    point_of: Vec<usize>,
    leaf_of: Vec<Option<usize>>,
    /// Descendant-leaf ranges: `leaf_order` lists leaf vertices in DFS
    /// order; `span[v]` is the half-open range of `leaf_order` under `v`.
    leaf_order: Vec<usize>,
    span: Vec<(usize, usize)>,
}

impl DominatingTree {
    /// Wraps a rooted tree whose vertex `v` carries point `point_of[v]`.
    /// Leaves (vertices without children) define the covered points; each
    /// point may appear at most once as a leaf.
    ///
    /// # Panics
    ///
    /// Panics if `point_of` has the wrong length, a point id is `>=
    /// n_points`, or two leaves carry the same point.
    pub fn new(tree: RootedTree, point_of: Vec<usize>, n_points: usize) -> Self {
        Self::try_new(tree, point_of, n_points)
            // hopspan:allow(panic-in-lib) -- the panicking contract is documented; builders satisfy it by construction
            .expect("well-formed dominating tree")
    }

    /// Non-panicking variant of [`DominatingTree::new`] for rebuilding a
    /// tree from untrusted (deserialized) data: the same derivation of
    /// leaf pointers and descendant-leaf spans, but every precondition
    /// violation — length mismatch, out-of-range point id (leaf *or*
    /// internal), duplicate leaf point — is reported as
    /// [`CoverError::Corrupt`] instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns [`CoverError::Corrupt`] naming the violated precondition.
    pub fn try_new(
        tree: RootedTree,
        point_of: Vec<usize>,
        n_points: usize,
    ) -> Result<Self, CoverError> {
        let corrupt = |what| Err(CoverError::Corrupt { what });
        if point_of.len() != tree.len() {
            return corrupt("point_of length mismatch");
        }
        if point_of.iter().any(|&p| p >= n_points) {
            return corrupt("tree vertex point id out of range");
        }
        let lca = Lca::new(&tree);
        let mut leaf_of = vec![None; n_points];
        // DFS to compute leaf spans.
        let n = tree.len();
        let mut leaf_order = Vec::new();
        let mut span = vec![(0usize, 0usize); n];
        let mut stack: Vec<(usize, bool)> = vec![(tree.root(), false)];
        while let Some((v, processed)) = stack.pop() {
            if processed {
                span[v].1 = leaf_order.len();
                continue;
            }
            span[v].0 = leaf_order.len();
            stack.push((v, true));
            let children = tree.children(v);
            if children.is_empty() {
                let p = point_of[v];
                if leaf_of[p].is_some() {
                    return corrupt("point appears as two leaves");
                }
                leaf_of[p] = Some(v);
                leaf_order.push(v);
            } else {
                for &c in children {
                    stack.push((c, false));
                }
            }
        }
        Ok(DominatingTree {
            tree,
            lca,
            point_of,
            leaf_of,
            leaf_order,
            span,
        })
    }

    /// The underlying rooted tree.
    #[inline]
    pub fn tree(&self) -> &RootedTree {
        &self.tree
    }

    /// The LCA structure of the underlying tree.
    #[inline]
    pub fn lca(&self) -> &Lca {
        &self.lca
    }

    /// The point associated with tree vertex `v`.
    #[inline]
    pub fn point_of(&self, v: usize) -> usize {
        self.point_of[v]
    }

    /// The leaf vertex of point `p`, if this tree covers `p`.
    #[inline]
    pub fn leaf_of(&self, p: usize) -> Option<usize> {
        self.leaf_of.get(p).copied().flatten()
    }

    /// Whether this tree covers point `p`.
    #[inline]
    pub fn contains(&self, p: usize) -> bool {
        self.leaf_of(p).is_some()
    }

    /// Number of covered points.
    pub fn point_count(&self) -> usize {
        self.leaf_order.len()
    }

    /// Tree distance between the leaves of points `p` and `q` in O(1), or
    /// `None` if either is not covered.
    pub fn distance(&self, p: usize, q: usize) -> Option<f64> {
        let (a, b) = (self.leaf_of(p)?, self.leaf_of(q)?);
        Some(self.tree.distance_with(&self.lca, a, b))
    }

    /// The tree path (vertex ids) between the leaves of `p` and `q`.
    pub fn tree_path(&self, p: usize, q: usize) -> Option<Vec<usize>> {
        let (a, b) = (self.leaf_of(p)?, self.leaf_of(q)?);
        Some(self.tree.vertex_path(a, b))
    }

    /// The heaviest weight of the `p`–`q` tree path over every
    /// substitution of its internal vertices by descendant-leaf points,
    /// or `None` if it is not below `cap` (or `p`, `q` is uncovered).
    /// Each `(b, w)` of `chain` is a candidate point `b` of the current
    /// vertex with `w` the heaviest chain from `p` ending there; every
    /// completion from `b` weighs at least `δ(b, q)`, so the DP stops as
    /// soon as some `w + δ(b, q)` reaches `cap`.
    fn heaviest_substitution<M: Metric>(
        &self,
        metric: &M,
        p: usize,
        q: usize,
        cap: f64,
    ) -> Option<f64> {
        let path = self.tree_path(p, q)?;
        let mut chain: Vec<(usize, f64)> = vec![(p, 0.0)];
        let mut next: Vec<(usize, f64)> = Vec::new();
        for &v in &path[1..] {
            let reach = chain.iter().map(|&(a, w)| w + metric.dist(a, q));
            if reach.fold(0.0, f64::max) >= cap {
                return None;
            }
            next.clear();
            for &leaf in self.descendant_leaves(v) {
                let b = self.point_of(leaf);
                let w = chain.iter().map(|&(a, w)| w + metric.dist(a, b));
                next.push((b, w.fold(0.0, f64::max)));
            }
            std::mem::swap(&mut chain, &mut next);
        }
        // The path ends at q's leaf, whose only candidate is q.
        chain.first().map(|&(_, w)| w).filter(|&w| w < cap)
    }

    /// Descendant leaves of vertex `v` (tree vertex ids, contiguous DFS
    /// range) — the `R(v)` candidate set of the fault-tolerant
    /// construction (§4.1).
    pub fn descendant_leaves(&self, v: usize) -> &[usize] {
        let (s, e) = self.span[v];
        &self.leaf_order[s..e]
    }

    /// Deep structural self-check of the dense layouts that queries
    /// trust blindly: the DFS leaf order, the per-vertex descendant-leaf
    /// spans, the leaf↔point pointers and the edge weights. O(tree
    /// size); intended for chaos harnesses and post-transport integrity
    /// checks, not the query hot path.
    ///
    /// # Errors
    ///
    /// Returns [`CoverError::Corrupt`] naming the first violated
    /// invariant.
    pub fn validate_structure(&self) -> Result<(), CoverError> {
        let n = self.tree.len();
        let corrupt = |what| Err(CoverError::Corrupt { what });
        if self.point_of.len() != n || self.span.len() != n {
            return corrupt("per-vertex table length mismatch");
        }
        for v in 0..n {
            if !self.tree.parent_weight(v).is_finite() || self.tree.parent_weight(v) < 0.0 {
                return corrupt("tree edge weight not finite non-negative");
            }
            let (s, e) = self.span[v];
            if s > e || e > self.leaf_order.len() {
                return corrupt("descendant-leaf span out of range");
            }
            if self.tree.children(v).is_empty() {
                if e != s + 1 || self.leaf_order[s] != v {
                    return corrupt("leaf vertex span must be exactly itself");
                }
                let p = self.point_of[v];
                if self.leaf_of.get(p).copied().flatten() != Some(v) {
                    return corrupt("leaf vertex not registered under its point");
                }
            }
        }
        let mut leaves = 0usize;
        for (p, &lv) in self.leaf_of.iter().enumerate() {
            let Some(v) = lv else { continue };
            leaves += 1;
            if v >= n || !self.tree.children(v).is_empty() {
                return corrupt("leaf pointer at a non-leaf vertex");
            }
            if self.point_of[v] != p {
                return corrupt("leaf pointer disagrees with the vertex's point");
            }
        }
        if leaves != self.leaf_order.len() {
            return corrupt("leaf order length disagrees with the leaf count");
        }
        for &v in &self.leaf_order {
            if v >= n {
                return corrupt("leaf order entry out of range");
            }
        }
        Ok(())
    }

    /// Hash of the root, the parent pointers, the edge weights (as
    /// bits) and the vertex points.
    fn structure_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.tree.root().hash(&mut h);
        for v in 0..self.tree.len() {
            self.tree.parent(v).hash(&mut h);
            self.tree.parent_weight(v).to_bits().hash(&mut h);
        }
        self.point_of.hash(&mut h);
        h.finish()
    }

    /// Whether `other` has the same root, parent pointers, edge weight
    /// bits, vertex points and child order, i.e. is the same tree vertex
    /// for vertex. Every other field is derived from these (the child
    /// order fixes the descendant-leaf order).
    fn same_structure(&self, other: &DominatingTree) -> bool {
        let (a, b) = (&self.tree, &other.tree);
        a.root() == b.root()
            && self.point_of == other.point_of
            && (0..a.len()).all(|v| {
                a.parent(v) == b.parent(v)
                    && a.parent_weight(v).to_bits() == b.parent_weight(v).to_bits()
                    && a.children(v) == b.children(v)
            })
    }

    /// Checks domination: `δ_T(p, q) ≥ δ_X(p, q)` for all covered pairs.
    ///
    /// # Errors
    ///
    /// Returns the first violating pair.
    pub fn validate_dominating<M: Metric>(&self, metric: &M) -> Result<(), (usize, usize)> {
        let pts: Vec<usize> = (0..metric.len()).filter(|&p| self.contains(p)).collect();
        for (ii, &p) in pts.iter().enumerate() {
            for &q in &pts[ii + 1..] {
                // hopspan:allow(panic-in-lib) -- pts was filtered through self.contains above
                let dt = self.distance(p, q).expect("both covered");
                if dt < metric.dist(p, q) * (1.0 - 1e-9) {
                    return Err((p, q));
                }
            }
        }
        Ok(())
    }
}

/// A collection of dominating trees forming a (γ, ζ)-tree cover.
#[derive(Debug)]
pub struct TreeCover {
    trees: Vec<DominatingTree>,
}

impl TreeCover {
    /// Wraps a list of dominating trees.
    pub fn new(trees: Vec<DominatingTree>) -> Self {
        TreeCover { trees }
    }

    /// The trees of the cover.
    #[inline]
    pub fn trees(&self) -> &[DominatingTree] {
        &self.trees
    }

    /// Number of trees ζ.
    #[inline]
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the cover has no trees.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// The tree minimizing the tree distance between `p` and `q`, with
    /// that distance. O(ζ) per query (Theorem 1.2's selection step).
    pub fn best_tree(&self, p: usize, q: usize) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, t) in self.trees.iter().enumerate() {
            if let Some(d) = t.distance(p, q) {
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((i, d));
                }
            }
        }
        best
    }

    /// Maximum, over all pairs of `metric`, of
    /// `min_T δ_T(p, q) / δ_X(p, q)` — the realized cover stretch
    /// (O(ζ·n²); for tests and experiments).
    pub fn measured_stretch<M: Metric>(&self, metric: &M) -> f64 {
        let n = metric.len();
        let mut worst: f64 = 1.0;
        for p in 0..n {
            for q in (p + 1)..n {
                let d = metric.dist(p, q);
                if d <= 0.0 {
                    continue;
                }
                if let Some((_, td)) = self.best_tree(p, q) {
                    worst = worst.max(td / d);
                } else {
                    return f64::INFINITY;
                }
            }
        }
        worst
    }

    /// Maximum, over all pairs of `metric`, of the Definition 4.1(2)
    /// stretch `min_T max_sub w_sub(p, q) / δ_X(p, q)`: `w_sub` is the
    /// weight of T's p–q path once every internal vertex is replaced by
    /// an *arbitrary* descendant-leaf point (as in
    /// [`substituted_path_weight`]), and the adversary picks the
    /// heaviest. Exact, by a max-weight chain DP per tree; trees are
    /// tried in ascending tree distance, and a tree is abandoned once its
    /// chain provably reaches the best value found. For tests and
    /// experiments.
    pub fn adversarial_stretch<M: Metric>(&self, metric: &M) -> f64 {
        let n = metric.len();
        let mut worst: f64 = 1.0;
        let mut order: Vec<(f64, usize)> = Vec::with_capacity(self.trees.len());
        for p in 0..n {
            for q in (p + 1)..n {
                let d = metric.dist(p, q);
                if d <= 0.0 {
                    continue;
                }
                order.clear();
                order.extend(
                    (self.trees.iter().enumerate())
                        .filter_map(|(i, t)| Some((t.distance(p, q)?, i))),
                );
                if order.is_empty() {
                    return f64::INFINITY;
                }
                order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let mut best = f64::INFINITY;
                for &(_, i) in &order {
                    if let Some(w) = self.trees[i].heaviest_substitution(metric, p, q, best) {
                        best = w;
                    }
                }
                worst = worst.max(best / d);
            }
        }
        worst
    }

    /// Validates that every tree dominates the metric.
    ///
    /// # Errors
    ///
    /// Returns [`CoverError::NotDominating`] with the first violation.
    pub fn validate<M: Metric>(&self, metric: &M) -> Result<(), CoverError> {
        for (i, t) in self.trees.iter().enumerate() {
            if let Err(pair) = t.validate_dominating(metric) {
                return Err(CoverError::NotDominating { tree: i, pair });
            }
        }
        Ok(())
    }

    /// Deep structural self-check of every tree's dense layouts
    /// (see [`DominatingTree::validate_structure`]); unlike
    /// [`TreeCover::validate`] this needs no metric and runs in
    /// O(total tree vertices).
    ///
    /// # Errors
    ///
    /// Returns [`CoverError::Corrupt`] for the first offending tree.
    pub fn validate_structure(&self) -> Result<(), CoverError> {
        for t in &self.trees {
            t.validate_structure()?;
        }
        Ok(())
    }

    /// Total number of tree vertices across the cover.
    pub fn total_tree_vertices(&self) -> usize {
        self.trees.iter().map(|t| t.tree().len()).sum()
    }

    /// Consumes the cover and returns its trees.
    pub fn into_trees(self) -> Vec<DominatingTree> {
        self.trees
    }

    /// Consumes the cover and returns its distinct trees: a tree equal
    /// vertex for vertex to an earlier one (same root, parent pointers,
    /// edge weight bits, vertex points and child order) is dropped, and
    /// the first occurrences keep their original order. A copy yields
    /// exactly the distances, paths and candidate sets of its first
    /// occurrence, so a scan that keeps the first strict minimum answers
    /// the same over the result. Trees are bucketed by hash and every
    /// match is confirmed exactly; O(total tree vertices) expected time.
    pub fn into_distinct_trees(self) -> Vec<DominatingTree> {
        let mut kept: Vec<DominatingTree> = Vec::with_capacity(self.trees.len());
        let mut by_hash: HashMap<u64, Vec<usize>> = HashMap::new();
        for t in self.trees {
            let bucket = by_hash.entry(t.structure_hash()).or_default();
            if bucket.iter().any(|&i| kept[i].same_structure(&t)) {
                continue;
            }
            bucket.push(kept.len());
            kept.push(t);
        }
        kept
    }
}

/// Helper for constructions: assembles a [`DominatingTree`] from a parent
/// arena, where internal edge weights are supplied per vertex.
pub(crate) struct TreeAssembler {
    pub parent: Vec<Option<usize>>,
    pub weight: Vec<f64>,
    pub point_of: Vec<usize>,
}

impl TreeAssembler {
    pub(crate) fn new() -> Self {
        TreeAssembler {
            parent: Vec::new(),
            weight: Vec::new(),
            point_of: Vec::new(),
        }
    }

    /// Adds a vertex with no parent yet; returns its id.
    pub(crate) fn add(&mut self, point: usize) -> usize {
        self.parent.push(None);
        self.weight.push(0.0);
        self.point_of.push(point);
        self.parent.len() - 1
    }

    /// Sets `child`'s parent and edge weight.
    pub(crate) fn attach(&mut self, child: usize, parent: usize, w: f64) {
        debug_assert!(self.parent[child].is_none(), "re-attaching vertex");
        self.parent[child] = Some(parent);
        self.weight[child] = w;
    }

    /// Finalizes into a dominating tree rooted at `root`.
    pub(crate) fn finish(self, root: usize, n_points: usize) -> DominatingTree {
        let tree = RootedTree::from_parents(root, &self.parent, &self.weight)
            // hopspan:allow(panic-in-lib) -- builders attach every child below an existing parent
            .expect("assembled parents form a tree");
        DominatingTree::new(tree, self.point_of, n_points)
    }
}

/// Test/verification helper: the weight of a leaf-to-leaf tree path after
/// substituting each internal vertex `v` by `sub(v)` (a point id), as in
/// Definition 4.1(2).
pub fn substituted_path_weight<M: Metric>(
    metric: &M,
    t: &DominatingTree,
    p: usize,
    q: usize,
    mut sub: impl FnMut(usize) -> usize,
) -> Option<f64> {
    let path = t.tree_path(p, q)?;
    let points: Vec<usize> = path
        .iter()
        .map(|&v| {
            if t.tree().child_count(v) == 0 {
                t.point_of(v)
            } else {
                sub(v)
            }
        })
        .collect();
    let mut w = 0.0;
    for win in points.windows(2) {
        w += metric.dist(win[0], win[1]);
    }
    Some(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopspan_metric::EuclideanSpace;

    fn line3() -> EuclideanSpace {
        EuclideanSpace::from_points(&[vec![0.0], vec![1.0], vec![3.0]])
    }

    /// A star tree rooted at point 0 covering all three points.
    fn star_tree(m: &EuclideanSpace) -> DominatingTree {
        let mut asm = TreeAssembler::new();
        let root = asm.add(0);
        for p in 0..3 {
            let leaf = asm.add(p);
            asm.attach(leaf, root, m.dist(0, p));
        }
        asm.finish(root, 3)
    }

    #[test]
    fn star_is_dominating() {
        let m = line3();
        let t = star_tree(&m);
        t.validate_dominating(&m).unwrap();
        assert_eq!(t.point_count(), 3);
        assert_eq!(t.distance(1, 2), Some(1.0 + 3.0));
        assert_eq!(t.distance(0, 2), Some(3.0));
    }

    #[test]
    fn descendant_leaves_cover_all() {
        let m = line3();
        let t = star_tree(&m);
        let root = t.tree().root();
        assert_eq!(t.descendant_leaves(root).len(), 3);
        for &leaf in t.descendant_leaves(root) {
            assert_eq!(t.descendant_leaves(leaf), &[leaf]);
        }
    }

    #[test]
    fn best_tree_picks_minimum() {
        let m = line3();
        // Star at 0 and star at 2.
        let t0 = star_tree(&m);
        let mut asm = TreeAssembler::new();
        let root = asm.add(2);
        for p in 0..3 {
            let leaf = asm.add(p);
            asm.attach(leaf, root, m.dist(2, p));
        }
        let t2 = asm.finish(root, 3);
        let cover = TreeCover::new(vec![t0, t2]);
        // Pair (1, 2): star at 2 gives 2.0, star at 0 gives 4.0.
        let (ti, d) = cover.best_tree(1, 2).unwrap();
        assert_eq!(ti, 1);
        assert!((d - 2.0).abs() < 1e-12);
        cover.validate(&m).unwrap();
        assert!(cover.measured_stretch(&m) <= 2.0 + 1e-9);
    }

    #[test]
    fn into_distinct_trees_keeps_first_occurrences_in_order() {
        let m = line3();
        let star_at = |c: usize, scale: f64| {
            let mut asm = TreeAssembler::new();
            let root = asm.add(c);
            for p in 0..3 {
                let leaf = asm.add(p);
                asm.attach(leaf, root, scale * m.dist(c, p));
            }
            asm.finish(root, 3)
        };
        // The star at 0 again, with its leaves in the opposite child
        // order: same parents and weights, different leaf order.
        let star_at_0_reversed = || {
            let edges: Vec<(usize, usize, f64)> =
                (1..4).rev().map(|v| (0, v, m.dist(0, v - 1))).collect();
            let tree = RootedTree::from_edges(4, 0, &edges).unwrap();
            DominatingTree::new(tree, vec![0, 0, 1, 2], 3)
        };
        // Copies of the stars at 0 and 2, plus near-copies of the star
        // at 0 that differ in one weight's bits or in child order.
        let cover = TreeCover::new(vec![
            star_at(0, 1.0),
            star_at(2, 1.0),
            star_at(0, 1.0),
            star_at(1, 1.0),
            star_at(2, 1.0),
            star_at(0, 1.0 + f64::EPSILON),
            star_at_0_reversed(),
            star_at(0, 1.0),
        ]);
        let distinct = cover.into_distinct_trees();
        let roots: Vec<usize> = distinct
            .iter()
            .map(|t| t.point_of(t.tree().root()))
            .collect();
        assert_eq!(roots, vec![0, 2, 1, 0, 0]);
        assert!(distinct[0].same_structure(&star_at(0, 1.0)));
        assert!(distinct[3].same_structure(&star_at(0, 1.0 + f64::EPSILON)));
        assert!(distinct[4].same_structure(&star_at_0_reversed()));
        assert!(!distinct[4].same_structure(&star_at(0, 1.0)));
    }

    #[test]
    fn substitution_weight() {
        let m = line3();
        let t = star_tree(&m);
        // Substitute the root by point 2: path 1 -> root -> 2 becomes
        // d(1, 2) + d(2, 2) = 2.
        let w = substituted_path_weight(&m, &t, 1, 2, |_| 2).unwrap();
        assert!((w - 2.0).abs() < 1e-12);
    }

    /// The chain DP equals brute force over every substitution of the
    /// internal path vertices, and the cover value is the min over trees.
    #[test]
    fn adversarial_stretch_matches_exhaustive_substitution() {
        let m = EuclideanSpace::from_points(&[
            vec![0.0],
            vec![1.0],
            vec![3.0],
            vec![7.0],
            vec![8.0],
            vec![12.0],
        ]);
        // Three levels: {0,1} and {3,4} under anchors 1 and 3, then
        // {0..4} under anchor 3, then the root with point 5 at anchor 5.
        let mut asm = TreeAssembler::new();
        let leaves: Vec<usize> = (0..6).map(|p| asm.add(p)).collect();
        let join = |asm: &mut TreeAssembler, anchor: usize, kids: &[usize]| {
            let v = asm.add(anchor);
            for &c in kids {
                let w = m.dist(anchor, asm.point_of[c]);
                asm.attach(c, v, w);
            }
            v
        };
        let a = join(&mut asm, 1, &[leaves[0], leaves[1]]);
        let b = join(&mut asm, 3, &[leaves[3], leaves[4]]);
        let c = join(&mut asm, 3, &[a, leaves[2], b]);
        let root = join(&mut asm, 5, &[c, leaves[5]]);
        let deep = asm.finish(root, 6);
        let cover = TreeCover::new(vec![deep, {
            let mut asm = TreeAssembler::new();
            let r = asm.add(2);
            for p in 0..6 {
                let leaf = asm.add(p);
                asm.attach(leaf, r, m.dist(2, p));
            }
            asm.finish(r, 6)
        }]);
        let exhaustive = |t: &DominatingTree, p: usize, q: usize| {
            let path = t.tree_path(p, q).unwrap();
            let inner: Vec<&[usize]> = path[1..path.len() - 1]
                .iter()
                .map(|&v| t.descendant_leaves(v))
                .collect();
            let mut digits = vec![0usize; inner.len()];
            let mut best: f64 = 0.0;
            loop {
                let pick: Vec<usize> = (inner.iter().zip(&digits))
                    .map(|(l, &i)| t.point_of(l[i]))
                    .collect();
                let mut k = 0;
                let w = substituted_path_weight(&m, t, p, q, |_| {
                    k += 1;
                    pick[k - 1]
                })
                .unwrap();
                best = best.max(w);
                let Some(pos) = (0..digits.len()).find(|&i| digits[i] + 1 < inner[i].len()) else {
                    return best;
                };
                digits[pos] += 1;
                digits[..pos].iter_mut().for_each(|d| *d = 0);
            }
        };
        let mut worst: f64 = 1.0;
        for p in 0..6 {
            for q in (p + 1)..6 {
                let per_tree: Vec<f64> = (cover.trees().iter())
                    .map(|t| {
                        let w = t.heaviest_substitution(&m, p, q, f64::INFINITY).unwrap();
                        assert_eq!(w, exhaustive(t, p, q), "tree DP vs brute force");
                        w
                    })
                    .collect();
                worst = worst
                    .max(per_tree.iter().copied().fold(f64::INFINITY, f64::min) / m.dist(p, q));
            }
        }
        assert_eq!(cover.adversarial_stretch(&m), worst);
        assert!(worst > cover.measured_stretch(&m));
    }

    #[test]
    fn validate_structure_accepts_and_detects() {
        let m = line3();
        let fresh = || star_tree(&m);
        fresh().validate_structure().unwrap();
        TreeCover::new(vec![fresh(), fresh()])
            .validate_structure()
            .unwrap();

        let what = |t: DominatingTree| match t.validate_structure() {
            Err(CoverError::Corrupt { what }) => what,
            other => panic!("corruption went undetected: {other:?}"),
        };

        let mut t = fresh();
        let leaf = t.leaf_of(1).unwrap();
        t.span[leaf] = (0, t.leaf_order.len());
        assert_eq!(what(t), "leaf vertex span must be exactly itself");

        let mut t = fresh();
        t.span[0] = (2, 1);
        assert_eq!(what(t), "descendant-leaf span out of range");

        let mut t = fresh();
        let leaf = t.leaf_of(0).unwrap();
        t.point_of[leaf] = 2;
        assert_eq!(what(t), "leaf vertex not registered under its point");

        let mut t = fresh();
        t.leaf_of[1] = t.leaf_of[0];
        assert_eq!(what(t), "leaf vertex not registered under its point");

        let mut t = fresh();
        t.leaf_order.push(0);
        assert_eq!(what(t), "leaf order length disagrees with the leaf count");
    }

    #[test]
    fn try_new_rejects_bad_preconditions() {
        let what = |r: Result<DominatingTree, CoverError>| match r {
            Err(CoverError::Corrupt { what }) => what,
            other => panic!("bad precondition went undetected: {other:?}"),
        };
        let tree = || {
            RootedTree::from_edges(3, 0, &[(0, 1, 1.0), (0, 2, 1.0)])
                // three vertices: root 0 with leaves 1 and 2
                .unwrap()
        };
        assert_eq!(
            what(DominatingTree::try_new(tree(), vec![0, 1], 3)),
            "point_of length mismatch"
        );
        assert_eq!(
            what(DominatingTree::try_new(tree(), vec![0, 1, 9], 3)),
            "tree vertex point id out of range"
        );
        assert_eq!(
            what(DominatingTree::try_new(tree(), vec![0, 1, 1], 3)),
            "point appears as two leaves"
        );
        assert!(DominatingTree::try_new(tree(), vec![0, 1, 2], 3).is_ok());
    }

    #[test]
    fn partial_tree_distance_none() {
        let _m = line3();
        let mut asm = TreeAssembler::new();
        let root = asm.add(0);
        let leaf = asm.add(1);
        asm.attach(leaf, root, 1.0);
        let t = asm.finish(root, 3);
        assert!(t.distance(1, 2).is_none());
        assert!(!t.contains(2));
        // Root is itself a... no: root has a child, so only point 1 is a leaf.
        assert_eq!(t.point_count(), 1);
    }
}
