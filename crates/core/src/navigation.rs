//! The two-step navigation scheme for metric spaces (Theorem 1.2, §3.2).
//!
//! Preprocessing: build a tree cover, then run the Theorem 1.1
//! construction (spanner + navigation structure) on every tree, with the
//! tree's leaves as required vertices. The metric spanner `H_X` is the
//! union over trees of the tree-spanner edges, with every tree vertex
//! materialized as its associated point.
//!
//! Query: pick the tree — the home tree for Ramsey covers (O(1)), the
//! minimum-tree-distance tree otherwise (O(ζ), one O(1) LCA distance per
//! tree) — then run the O(k) tree navigation and map tree vertices to
//! points.

use std::fmt;

use hopspan_metric::{path_weight, Graph, Metric};
use hopspan_pipeline::BuildStats;
use hopspan_tree_cover::{
    CoverError, DominatingTree, LeafTable, RamseyTreeCover, RobustTreeCover, SeparatorTreeCover,
    TreeCover,
};
use hopspan_tree_spanner::{SpannerParts, TreeHopSpanner, TreeSpannerError};
use hopspan_treealg::{Lca, RootedTree};
use rand::Rng;

use crate::materialize::{pair_key, EdgeMerger};

/// Error type for [`MetricNavigator`].
#[derive(Debug)]
#[non_exhaustive]
pub enum NavigationError {
    /// The underlying tree cover could not be built.
    Cover(CoverError),
    /// The underlying tree spanner could not be built.
    Spanner(TreeSpannerError),
    /// A parallel build unit panicked and could not be recovered; the
    /// contained failure names the tree index.
    Pipeline(hopspan_pipeline::PipelineError),
    /// A query endpoint is out of range.
    PointOutOfRange {
        /// The offending point id.
        point: usize,
    },
    /// No tree of the cover contains both query points (never the case
    /// for the built-in constructions, which cover all pairs).
    PairNotCovered {
        /// First query point.
        u: usize,
        /// Second query point.
        v: usize,
    },
    /// A query endpoint was removed from the point set (tombstoned in
    /// the dynamic layer): the id is syntactically valid but the point
    /// no longer exists, so routing through it would produce paths over
    /// dead ids. Raised by `hopspan-dynamic`, never by static builds.
    PointRetired {
        /// The retired point id (the caller's external id).
        point: usize,
    },
    /// Deserialized navigator parts violate a structural invariant
    /// (see [`MetricNavigator::from_parts`]).
    Corrupt {
        /// Which invariant failed.
        what: &'static str,
    },
}

impl fmt::Display for NavigationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NavigationError::Cover(e) => write!(f, "tree cover construction failed: {e}"),
            NavigationError::Spanner(e) => write!(f, "tree spanner construction failed: {e}"),
            NavigationError::Pipeline(e) => write!(f, "parallel build failed: {e}"),
            NavigationError::PointOutOfRange { point } => {
                write!(f, "point {point} out of range")
            }
            NavigationError::PairNotCovered { u, v } => {
                write!(f, "no cover tree contains both {u} and {v}")
            }
            NavigationError::PointRetired { point } => {
                write!(f, "point {point} was retired from the point set")
            }
            NavigationError::Corrupt { what } => {
                write!(f, "corrupt navigator structure: {what}")
            }
        }
    }
}

impl std::error::Error for NavigationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NavigationError::Cover(e) => Some(e),
            NavigationError::Spanner(e) => Some(e),
            NavigationError::Pipeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<hopspan_pipeline::PipelineError> for NavigationError {
    fn from(e: hopspan_pipeline::PipelineError) -> Self {
        NavigationError::Pipeline(e)
    }
}

impl From<CoverError> for NavigationError {
    fn from(e: CoverError) -> Self {
        NavigationError::Cover(e)
    }
}

impl From<TreeSpannerError> for NavigationError {
    fn from(e: TreeSpannerError) -> Self {
        NavigationError::Spanner(e)
    }
}

/// One cover tree with its Theorem 1.1 navigation structure and the
/// LCA table tree selection reads: the only LCA kept per cover tree.
#[derive(Debug)]
pub(crate) struct NavTree {
    /// The dominating tree (cover tree plus point mapping).
    dom: DominatingTree,
    /// Theorem 1.1 k-hop 1-spanner over the tree's required vertices.
    spanner: TreeHopSpanner,
    /// O(1) LCA over `dom`'s tree, for [`NavTree::distance`].
    lca: Lca,
}

/// The Theorem 1.1 k-hop 1-spanner over the leaves of `tree`.
pub(crate) fn leaf_spanner(
    tree: &RootedTree,
    k: usize,
) -> Result<TreeHopSpanner, TreeSpannerError> {
    let required: Vec<bool> = (0..tree.len()).map(|v| tree.child_count(v) == 0).collect();
    TreeHopSpanner::with_required(tree, &required, k)
}

/// The k-hop tree-vertex path of `spanner` between the leaves of points
/// `p` and `q`, written into `out` (cleared first); returns whether
/// `leaves` covers both points. Spanner-level failures (a corrupted
/// navigation structure) are propagated instead of panicking.
pub(crate) fn tree_vertex_path_into(
    leaves: &LeafTable,
    spanner: &TreeHopSpanner,
    p: usize,
    q: usize,
    out: &mut Vec<usize>,
) -> Result<bool, TreeSpannerError> {
    let Some((a, b)) = leaves.pair(p, q) else {
        out.clear();
        return Ok(false);
    };
    spanner.find_path_into(a, b, out)?;
    Ok(true)
}

impl NavTree {
    fn new(dom: DominatingTree, k: usize) -> Result<Self, TreeSpannerError> {
        let spanner = leaf_spanner(dom.tree(), k)?;
        Ok(Self::with_spanner(dom, spanner))
    }

    fn with_spanner(dom: DominatingTree, spanner: TreeHopSpanner) -> Self {
        let lca = Lca::new(dom.tree());
        NavTree { dom, spanner, lca }
    }

    /// Tree distance between the leaves of `p` and `q` in O(1), or
    /// `None` if the tree does not cover both.
    #[inline]
    fn distance(&self, p: usize, q: usize) -> Option<f64> {
        let (a, b) = self.dom.leaves().pair(p, q)?;
        Some(self.dom.tree().distance_with(&self.lca, a, b))
    }

    /// Point-membership bitmask words: one bit per point, set when the
    /// tree has a leaf for it. Only the snapshot layout stores these.
    fn membership_words(&self, n: usize) -> Vec<u64> {
        let mut words = vec![0u64; n.div_ceil(64)];
        for p in (0..n).filter(|&p| self.dom.leaf_of(p).is_some()) {
            words[p / 64] |= 1u64 << (p % 64);
        }
        words
    }
}

/// Flat serialization parts of one cover tree with its spanner: the
/// dominating tree as parent pointers plus the spanner's own parts.
/// Derived structures (LCA, leaf table, leaf spans) are rebuilt on load.
#[derive(Debug, Clone, PartialEq)]
pub struct NavTreeParts {
    /// Root vertex of the dominating tree.
    pub root: usize,
    /// Parent of each tree vertex (`None` exactly for the root).
    pub parent: Vec<Option<usize>>,
    /// Weight of the edge to the parent (ignored for the root).
    pub weight: Vec<f64>,
    /// Point id carried by each tree vertex.
    pub point_of: Vec<usize>,
    /// The Theorem 1.1 spanner over the tree, in flat form.
    pub spanner: SpannerParts,
}

/// The complete flat form of a [`MetricNavigator`]: everything needed
/// to reassemble it without touching the metric or re-running any
/// cover/spanner construction. Produced by
/// [`MetricNavigator::to_parts`], consumed (with full revalidation) by
/// [`MetricNavigator::from_parts`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricNavigatorParts {
    /// The hop bound `k`.
    pub k: usize,
    /// Number of points of the metric.
    pub n: usize,
    /// The `H_X` edges, strictly sorted by `(u, v)` with `u < v`.
    pub edges: Vec<(usize, usize, f64)>,
    /// Ramsey home tree per point, when available.
    pub home: Option<Vec<usize>>,
    /// One entry per cover tree.
    pub trees: Vec<NavTreeParts>,
    /// Per-tree point-membership bitmask words, parallel to `trees`,
    /// derived from the leaf tables; a load checks them against the
    /// rebuilt trees.
    pub masks: Vec<Vec<u64>>,
}

/// The navigation scheme of Theorem 1.2: k-hop approximate paths on a
/// sparse spanner of the metric, in O(k) query time.
#[derive(Debug)]
pub struct MetricNavigator {
    trees: Vec<NavTree>,
    /// Ramsey home tree per point, when available.
    home: Option<Vec<usize>>,
    k: usize,
    n: usize,
    edges: Vec<(usize, usize, f64)>,
}

impl MetricNavigator {
    /// Builds the navigator for a doubling metric from the robust tree
    /// cover (Theorem 4.1): stretch `1 + O(ε)`, `ζ = ε^{-O(d)}` trees.
    ///
    /// # Errors
    ///
    /// Propagates cover/spanner construction failures.
    pub fn doubling<M: Metric + Sync>(
        metric: &M,
        eps: f64,
        k: usize,
    ) -> Result<Self, NavigationError> {
        Self::doubling_with_stats(metric, eps, k, None).map(|(nav, _)| nav)
    }

    /// Like [`MetricNavigator::doubling`], with explicit control over
    /// the preprocessing worker count (`None` = automatic) and the
    /// cover→spanner→materialization [`BuildStats`] returned alongside
    /// the navigator.
    ///
    /// # Errors
    ///
    /// Propagates cover/spanner construction failures.
    pub fn doubling_with_stats<M: Metric + Sync>(
        metric: &M,
        eps: f64,
        k: usize,
        workers: Option<usize>,
    ) -> Result<(Self, BuildStats), NavigationError> {
        let workers = hopspan_pipeline::resolve_workers(workers);
        let mut stats = BuildStats::new(workers);
        let (cover, cover_stats) = RobustTreeCover::new_with_stats(metric, eps, Some(workers))?;
        stats.absorb("cover", cover_stats);
        // The sub-build's tree count is re-counted by from_cover below.
        stats.tree_count = 0;
        let (nav, nav_stats) = Self::from_cover_with_stats(
            metric,
            cover_into_trees(cover_into_cover(cover)),
            None,
            k,
            Some(workers),
        )?;
        stats.absorb("", nav_stats);
        Ok((nav, stats))
    }

    /// Builds the navigator for a general metric from a Ramsey tree cover:
    /// stretch `O(ℓ)`, `ζ = Õ(ℓ·n^{1/ℓ})` trees, O(1) tree selection via
    /// home trees.
    ///
    /// # Errors
    ///
    /// Propagates cover/spanner construction failures.
    pub fn general<M: Metric, R: Rng>(
        metric: &M,
        ell: usize,
        k: usize,
        rng: &mut R,
    ) -> Result<Self, NavigationError> {
        let cover = RamseyTreeCover::new(metric, ell, rng)?;
        let home: Vec<usize> = (0..metric.len()).map(|p| cover.home(p)).collect();
        Self::from_cover(
            metric,
            cover_into_trees(ramsey_into_cover(cover)),
            Some(home),
            k,
        )
    }

    /// Builds the navigator for a general metric from a Ramsey cover with
    /// **at most `budget` trees** — the second general-metric trade-off of
    /// the paper's Table 1 (γ grows like a root of n when ζ is pinned).
    /// Returns the navigator with the realized padding parameter γ (the
    /// stretch guarantee is ≤ 32γ).
    ///
    /// # Errors
    ///
    /// Propagates cover/spanner construction failures.
    pub fn general_budgeted<M: Metric, R: Rng>(
        metric: &M,
        budget: usize,
        k: usize,
        rng: &mut R,
    ) -> Result<(Self, f64), NavigationError> {
        let (cover, gamma) = RamseyTreeCover::with_tree_budget(metric, budget, rng)?;
        let home: Vec<usize> = (0..metric.len()).map(|p| cover.home(p)).collect();
        let nav = Self::from_cover(metric, cover.into_cover().into_trees(), Some(home), k)?;
        Ok((nav, gamma))
    }

    /// Builds the navigator for a planar graph metric from the separator
    /// tree cover. `metric` must be the shortest-path metric of `graph`.
    ///
    /// # Errors
    ///
    /// Propagates cover/spanner construction failures.
    pub fn planar<M: Metric>(
        graph: &Graph,
        metric: &M,
        eps: f64,
        k: usize,
    ) -> Result<Self, NavigationError> {
        let cover = SeparatorTreeCover::new(graph, eps)?;
        Self::from_cover(metric, cover_into_trees(planar_into_cover(cover)), None, k)
    }

    /// Builds the navigator from an arbitrary tree cover. `home`, when
    /// given, maps each point to a tree guaranteeing its stretch (Ramsey
    /// covers).
    ///
    /// # Errors
    ///
    /// Propagates tree-spanner construction failures.
    pub fn from_cover<M: Metric>(
        metric: &M,
        doms: Vec<DominatingTree>,
        home: Option<Vec<usize>>,
        k: usize,
    ) -> Result<Self, NavigationError> {
        Self::from_cover_with_stats(metric, doms, home, k, None).map(|(nav, _)| nav)
    }

    /// Like [`MetricNavigator::from_cover`], with explicit control over
    /// the preprocessing worker count (`None` = automatic) and the build
    /// telemetry returned alongside the navigator.
    ///
    /// The per-tree Theorem 1.1 spanners are built on scoped worker
    /// threads in tree-index order, so the materialized `H_X` edge set
    /// is identical for every worker count.
    ///
    /// # Errors
    ///
    /// Propagates tree-spanner construction failures.
    pub fn from_cover_with_stats<M: Metric>(
        metric: &M,
        doms: Vec<DominatingTree>,
        home: Option<Vec<usize>>,
        k: usize,
        workers: Option<usize>,
    ) -> Result<(Self, BuildStats), NavigationError> {
        let n = metric.len();
        let workers = hopspan_pipeline::resolve_workers(workers);
        let mut stats = BuildStats::new(workers);
        // Per-tree spanner builds touch only their own dominating tree
        // (never the metric), so they fan out without an `M: Sync` bound.
        let trees: Vec<NavTree> = stats.phase("spanners", || {
            hopspan_pipeline::try_parallel_map_owned(workers, doms, |_, dom| NavTree::new(dom, k))
                .map_err(NavigationError::Pipeline)?
                .into_iter()
                .collect::<Result<_, TreeSpannerError>>()
                .map_err(NavigationError::Spanner)
        })?;
        stats.tree_count = trees.len();
        stats.per_tree_spanner_edges = trees.iter().map(|t| t.spanner.edges().len()).collect();
        // Materialize H_X: every tree-spanner edge becomes a point edge.
        // Sequential, in tree order, so the first instance of each point
        // pair — whose orientation the weight is read in — is fixed, and
        // the edge list comes out sorted by (u, v).
        let (edges, instances) = stats.phase("materialize", || {
            let mut merger = EdgeMerger::default();
            let mut instances = 0usize;
            for t in &trees {
                merger.extend(t.spanner.edges().iter().filter_map(|&(a, b, _)| {
                    let (pa, pb) = (t.dom.point_of(a), t.dom.point_of(b));
                    (pa != pb).then(|| {
                        instances += 1;
                        pair_key(pa, pb)
                    })
                }));
            }
            (merger.finish(metric), instances)
        });
        stats.edge_instances = instances;
        stats.edges_after_dedup = edges.len();
        Ok((
            MetricNavigator {
                trees,
                home,
                k,
                n,
                edges,
            },
            stats,
        ))
    }

    /// Extracts the flat serialization parts of this navigator: the
    /// `H_X` edge list, the optional home table, and per tree the
    /// dominating tree (as parent pointers), its point mapping, its
    /// membership bitmask and the spanner parts. The inverse of
    /// [`MetricNavigator::from_parts`].
    pub fn to_parts(&self) -> MetricNavigatorParts {
        MetricNavigatorParts {
            k: self.k,
            n: self.n,
            edges: self.edges.clone(),
            home: self.home.clone(),
            trees: self
                .trees
                .iter()
                .map(|t| {
                    let tree = t.dom.tree();
                    NavTreeParts {
                        root: tree.root(),
                        parent: (0..tree.len()).map(|v| tree.parent(v)).collect(),
                        weight: (0..tree.len()).map(|v| tree.parent_weight(v)).collect(),
                        point_of: (0..tree.len()).map(|v| t.dom.point_of(v)).collect(),
                        spanner: t.spanner.to_parts(),
                    }
                })
                .collect(),
            masks: self
                .trees
                .iter()
                .map(|t| t.membership_words(self.n))
                .collect(),
        }
    }

    /// Reassembles a navigator from parts produced by
    /// [`MetricNavigator::to_parts`] (typically after a round trip
    /// through a snapshot file), revalidating everything: the cover
    /// trees are rebuilt through checking constructors, the spanners go
    /// through [`TreeHopSpanner::from_parts`]' deep validation, the
    /// membership bitmasks are re-derived and compared against the
    /// stored words, and the `H_X` edge list is bounds-checked. All
    /// derived structures (LCA tables, leaf spans) are recomputed, so
    /// the result is bit-identical to the originally built navigator.
    ///
    /// # Errors
    ///
    /// Returns [`NavigationError::Corrupt`] (or the wrapped
    /// cover/spanner corruption error) naming the first violated
    /// invariant.
    pub fn from_parts(parts: MetricNavigatorParts) -> Result<Self, NavigationError> {
        let corrupt = |what: &'static str| NavigationError::Corrupt { what };
        let n = parts.n;
        if parts.masks.len() != parts.trees.len() {
            return Err(corrupt("membership mask count mismatch"));
        }
        let mut trees = Vec::with_capacity(parts.trees.len());
        for tp in parts.trees {
            let tree = RootedTree::from_parents(tp.root, &tp.parent, &tp.weight)
                .map_err(|_| corrupt("cover tree parents do not form a tree"))?;
            let dom = DominatingTree::try_new(tree, tp.point_of, n)?;
            if tp.spanner.k != parts.k {
                return Err(corrupt("tree spanner hop budget mismatch"));
            }
            let spanner = TreeHopSpanner::from_parts(tp.spanner)?;
            let tree = dom.tree();
            if spanner.vertex_count() != tree.len() {
                return Err(corrupt("spanner size does not match its cover tree"));
            }
            for v in 0..tree.len() {
                if spanner.is_required(v) != (tree.child_count(v) == 0) {
                    return Err(corrupt(
                        "spanner required mask disagrees with the tree leaves",
                    ));
                }
            }
            trees.push(NavTree::with_spanner(dom, spanner));
        }
        for (t, stored) in trees.iter().zip(&parts.masks) {
            if t.membership_words(n) != *stored {
                return Err(corrupt("membership mask does not match its tree"));
            }
        }
        if let Some(home) = &parts.home {
            if home.len() != n {
                return Err(corrupt("home table length mismatch"));
            }
            if home.iter().any(|&t| t >= trees.len()) {
                return Err(corrupt("home tree index out of range"));
            }
        }
        let mut prev: Option<(usize, usize)> = None;
        for &(u, v, w) in &parts.edges {
            if u >= n || v >= n {
                return Err(corrupt("H_X edge endpoint out of range"));
            }
            if u >= v {
                return Err(corrupt("H_X edges must be stored with u < v"));
            }
            if !w.is_finite() || w < 0.0 {
                return Err(corrupt("H_X edge weight not finite non-negative"));
            }
            if prev.is_some_and(|p| p >= (u, v)) {
                return Err(corrupt("H_X edges must be strictly sorted by (u, v)"));
            }
            prev = Some((u, v));
        }
        Ok(MetricNavigator {
            trees,
            home: parts.home,
            k: parts.k,
            n,
            edges: parts.edges,
        })
    }

    /// The hop bound `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The Ramsey home tree of point `p`, when the cover provides one
    /// (`None` for non-Ramsey covers or out-of-range points). The home
    /// tree guarantees `p`'s stretch, so it is the tree a mutation at
    /// `p` perturbs first — `hopspan-dynamic` keys its per-tree dirty
    /// counters on it.
    #[inline]
    pub fn home_tree(&self, p: usize) -> Option<usize> {
        self.home.as_ref().and_then(|h| h.get(p).copied())
    }

    /// Number of points.
    #[inline]
    pub fn point_count(&self) -> usize {
        self.n
    }

    /// Number of trees ζ in the underlying cover.
    #[inline]
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// The edges of the spanner `H_X` (point pairs with metric weights).
    /// Theorem 1.2 bounds this by `O(n·α_k(n)·ζ)`.
    #[inline]
    pub fn spanner_edges(&self) -> &[(usize, usize, f64)] {
        &self.edges
    }

    /// Number of spanner edges.
    #[inline]
    pub fn spanner_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The index of the tree the query for `(u, v)` would use, with the
    /// tree distance: the home tree for Ramsey covers, otherwise the tree
    /// minimizing the tree distance.
    pub fn select_tree(&self, u: usize, v: usize) -> Option<(usize, f64)> {
        if let Some(home) = &self.home {
            let t = home[u];
            return self.trees[t].distance(u, v).map(|d| (t, d));
        }
        let mut best: Option<(usize, f64)> = None;
        for (i, t) in self.trees.iter().enumerate() {
            if let Some(d) = t.distance(u, v) {
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((i, d));
                }
            }
        }
        best
    }

    /// Like [`MetricNavigator::select_tree`], but skips computing the
    /// tree distance on the O(1) home-tree arm — the arm `find_path`
    /// takes, where the distance would be discarded and the leaf probe
    /// of [`tree_vertex_path_into`] reports a non-covering home tree.
    /// The scan arm must still rank trees by distance to pick the same
    /// tree.
    fn select_tree_index(&self, u: usize, v: usize) -> Option<usize> {
        if let Some(home) = &self.home {
            return Some(home[u]);
        }
        self.select_tree(u, v).map(|(t, _)| t)
    }

    /// Approximate distance oracle interface (the paper's Question 1.2):
    /// the selected tree's distance, an upper bound on δ(u, v) within the
    /// cover stretch, in O(1) time with home trees and O(ζ) otherwise.
    /// `None` when no tree covers both points.
    pub fn approx_distance(&self, u: usize, v: usize) -> Option<f64> {
        if u == v {
            return Some(0.0);
        }
        self.select_tree(u, v).map(|(_, d)| d)
    }

    /// Returns a k-hop path `u = p₀, p₁, …, p_h = v` (`h ≤ k`) in the
    /// spanner `H_X`. O(k + ζ) time (O(k) with home trees).
    ///
    /// # Errors
    ///
    /// Returns [`NavigationError::PointOutOfRange`] for invalid ids and
    /// [`NavigationError::PairNotCovered`] if no cover tree contains
    /// both points (never the case for the built-in constructions).
    pub fn find_path(&self, u: usize, v: usize) -> Result<Vec<usize>, NavigationError> {
        let mut out = Vec::with_capacity(self.k + 1); // hopspan:allow(alloc-on-query-path) -- convenience wrapper: allocates the caller-owned buffer once, then delegates to the *_into hot path
        self.find_path_into(u, v, &mut out)?;
        Ok(out)
    }

    /// Buffer-reuse variant of [`MetricNavigator::find_path`]: writes
    /// the path into `out` (cleared first) instead of allocating. With a
    /// warmed buffer the query performs no heap allocation. The tree
    /// selection skips the discarded distance computation on the
    /// home-tree arm.
    ///
    /// # Errors
    ///
    /// Same contract as [`MetricNavigator::find_path`]; `out` is left
    /// cleared on error.
    pub fn find_path_into(
        &self,
        u: usize,
        v: usize,
        out: &mut Vec<usize>,
    ) -> Result<(), NavigationError> {
        out.clear();
        if u >= self.n {
            return Err(NavigationError::PointOutOfRange { point: u });
        }
        if v >= self.n {
            return Err(NavigationError::PointOutOfRange { point: v });
        }
        if u == v {
            out.push(u);
            return Ok(());
        }
        let ti = self
            .select_tree_index(u, v)
            .ok_or(NavigationError::PairNotCovered { u, v })?;
        let t = &self.trees[ti];
        if !tree_vertex_path_into(t.dom.leaves(), &t.spanner, u, v, out)? {
            return Err(NavigationError::PairNotCovered { u, v });
        }
        // Map tree vertices to their points in place, then compress the
        // runs a shared point between adjacent tree vertices produces.
        for tv in out.iter_mut() {
            *tv = t.dom.point_of(*tv);
        }
        out.dedup();
        Ok(())
    }

    /// Measures the realized worst-case stretch and hop count over all
    /// pairs (O(n²·(k+ζ)) work; for tests and experiments). Rows of the
    /// pair triangle fan out across the preprocessing worker pool
    /// through [`hopspan_pipeline::max_over_rows`]; each worker reuses
    /// one path buffer, so the result is identical for every worker
    /// count.
    ///
    /// # Errors
    ///
    /// Propagates [`NavigationError`] if any pair fails to resolve —
    /// which would indicate a broken cover invariant. With several
    /// failing rows, the lowest row's error is returned.
    pub fn measured_stretch_and_hops<M: Metric + Sync>(
        &self,
        metric: &M,
    ) -> Result<(f64, usize), NavigationError> {
        hopspan_pipeline::max_over_rows(self.n, |u| {
            let mut worst = 1.0f64;
            let mut hops = 0usize;
            let mut path = Vec::with_capacity(self.k + 1);
            for v in (u + 1)..self.n {
                let d = metric.dist(u, v);
                self.find_path_into(u, v, &mut path)?;
                let w = path_weight(metric, &path);
                if d > 0.0 {
                    worst = worst.max(w / d);
                }
                hops = hops.max(path.len() - 1);
            }
            Ok((worst, hops))
        })
    }
}

// The cover structs expose their trees by reference; navigation needs
// ownership. These helpers unwrap the cover wrappers into their trees.
fn cover_into_cover(c: RobustTreeCover) -> TreeCover {
    c.into_cover()
}

fn ramsey_into_cover(c: RamseyTreeCover) -> TreeCover {
    c.into_cover()
}

fn planar_into_cover(c: SeparatorTreeCover) -> TreeCover {
    c.into_cover()
}

fn cover_into_trees(c: TreeCover) -> Vec<DominatingTree> {
    c.into_trees()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopspan_metric::{gen, GraphMetric};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(99)
    }

    fn verify_spanner_paths<M: Metric + Sync>(nav: &MetricNavigator, metric: &M, budget: f64) {
        // Every returned path uses only H_X edges.
        let mut edge_set = std::collections::HashSet::new();
        for &(a, b, _) in nav.spanner_edges() {
            edge_set.insert((a, b));
            edge_set.insert((b, a));
        }
        for u in 0..metric.len() {
            for v in 0..metric.len() {
                let path = nav.find_path(u, v).unwrap();
                assert!(!path.is_empty());
                assert_eq!(path[0], u);
                assert_eq!(*path.last().unwrap(), v);
                assert!(path.len() - 1 <= nav.k(), "hops {} > k", path.len() - 1);
                for w in path.windows(2) {
                    assert!(
                        edge_set.contains(&(w[0], w[1])),
                        "path edge ({}, {}) not in H_X",
                        w[0],
                        w[1]
                    );
                }
            }
        }
        let (stretch, hops) = nav.measured_stretch_and_hops(metric).unwrap();
        assert!(stretch <= budget, "stretch {stretch} > {budget}");
        assert!(hops <= nav.k());
    }

    #[test]
    fn doubling_navigation_2d() {
        let m = gen::uniform_points(25, 2, &mut rng());
        for k in [2usize, 3, 4] {
            let nav = MetricNavigator::doubling(&m, 0.25, k).unwrap();
            verify_spanner_paths(&nav, &m, 2.5);
        }
    }

    #[test]
    fn doubling_line_exact() {
        let m = hopspan_metric::EuclideanSpace::from_points(
            &(0..20).map(|i| vec![i as f64]).collect::<Vec<_>>(),
        );
        let nav = MetricNavigator::doubling(&m, 0.25, 2).unwrap();
        let (stretch, hops) = nav.measured_stretch_and_hops(&m).unwrap();
        assert!(stretch <= 1.0 + 1e-9, "line stretch {stretch}");
        assert!(hops <= 2);
    }

    #[test]
    fn general_navigation_ramsey() {
        let m = gen::random_graph_metric(22, 12, &mut rng());
        let nav = MetricNavigator::general(&m, 2, 3, &mut rng()).unwrap();
        // Home-tree dispatch: O(ℓ)-ish stretch with our constants ≤ 32ℓ.
        verify_spanner_paths(&nav, &m, 64.0);
    }

    #[test]
    fn planar_navigation_grid() {
        let g = gen::grid_graph(4, 4);
        let m = GraphMetric::new(&g).unwrap();
        let nav = MetricNavigator::planar(&g, &m, 0.5, 2).unwrap();
        verify_spanner_paths(&nav, &m, 3.0 + 1e-9);
    }

    #[test]
    fn spanner_is_sparser_than_complete() {
        let m = gen::uniform_points(60, 2, &mut rng());
        let nav = MetricNavigator::doubling(&m, 1.0, 3).unwrap();
        assert!(
            nav.spanner_edge_count() < 60 * 59 / 2,
            "H_X should be sparser than the complete graph"
        );
    }

    #[test]
    fn budgeted_general_navigation() {
        let m = gen::random_graph_metric(30, 5, &mut rng());
        for budget in [1usize, 3] {
            let (nav, gamma) =
                MetricNavigator::general_budgeted(&m, budget, 2, &mut rng()).unwrap();
            assert!(nav.tree_count() <= budget);
            let (stretch, hops) = nav.measured_stretch_and_hops(&m).unwrap();
            assert!(hops <= 2);
            assert!(
                stretch <= 32.0 * gamma + 1e-9,
                "stretch {stretch} vs γ {gamma}"
            );
        }
    }

    #[test]
    fn approx_distance_is_an_upper_bound_within_stretch() {
        let m = gen::uniform_points(20, 2, &mut rng());
        let nav = MetricNavigator::doubling(&m, 0.25, 2).unwrap();
        for u in 0..20 {
            for v in 0..20 {
                let est = nav.approx_distance(u, v).unwrap();
                let d = m.dist(u, v);
                assert!(est >= d * (1.0 - 1e-9), "underestimate ({u},{v})");
                assert!(
                    est <= 2.0 * d + 1e-9,
                    "loose estimate ({u},{v}): {est} vs {d}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_errors() {
        let m = gen::uniform_points(10, 2, &mut rng());
        let nav = MetricNavigator::doubling(&m, 0.5, 2).unwrap();
        assert!(matches!(
            nav.find_path(0, 99),
            Err(NavigationError::PointOutOfRange { point: 99 })
        ));
    }

    #[test]
    fn trivial_paths() {
        let m = gen::uniform_points(10, 2, &mut rng());
        let nav = MetricNavigator::doubling(&m, 0.5, 2).unwrap();
        assert_eq!(nav.find_path(4, 4).unwrap(), vec![4]);
    }

    /// Parts round trip: the reassembled navigator is bit-identical
    /// (same parts, same answers) to the originally built one, for both
    /// scan-selection (doubling) and home-tree (Ramsey) navigators.
    #[test]
    fn parts_round_trip_is_identity() {
        let m = gen::uniform_points(30, 2, &mut rng());
        let built = MetricNavigator::doubling(&m, 0.5, 3).unwrap();
        let parts = built.to_parts();
        let loaded = MetricNavigator::from_parts(parts.clone()).unwrap();
        assert_eq!(loaded.to_parts(), parts);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for u in 0..30 {
            for v in 0..30 {
                built.find_path_into(u, v, &mut a).unwrap();
                loaded.find_path_into(u, v, &mut b).unwrap();
                assert_eq!(a, b, "pair ({u},{v})");
            }
        }

        let gm = gen::random_graph_metric(22, 12, &mut rng());
        let built = MetricNavigator::general(&gm, 2, 3, &mut rng()).unwrap();
        let loaded = MetricNavigator::from_parts(built.to_parts()).unwrap();
        assert_eq!(loaded.to_parts(), built.to_parts());
        for u in 0..22 {
            for v in 0..22 {
                assert_eq!(
                    loaded.find_path(u, v).unwrap(),
                    built.find_path(u, v).unwrap()
                );
            }
        }
    }

    #[test]
    fn from_parts_rejects_corruption() {
        let m = gen::uniform_points(20, 2, &mut rng());
        let fresh = || MetricNavigator::doubling(&m, 0.5, 2).unwrap().to_parts();
        let what = |r: Result<MetricNavigator, NavigationError>| match r {
            Err(NavigationError::Corrupt { what }) => what,
            other => panic!("corruption went undetected: {other:?}"),
        };

        let mut p = fresh();
        p.masks.pop();
        assert_eq!(
            what(MetricNavigator::from_parts(p)),
            "membership mask count mismatch"
        );

        let mut p = fresh();
        p.masks[0][0] ^= 1;
        assert_eq!(
            what(MetricNavigator::from_parts(p)),
            "membership mask does not match its tree"
        );

        let mut p = fresh();
        p.trees[0].parent[0] = Some(0); // self-loop
        assert_eq!(
            what(MetricNavigator::from_parts(p)),
            "cover tree parents do not form a tree"
        );

        let mut p = fresh();
        p.edges[0].0 = usize::MAX;
        let w = what(MetricNavigator::from_parts(p));
        assert!(w.starts_with("H_X edge"), "unexpected finding: {w}");

        let mut p = fresh();
        p.edges[1].2 = -1.0;
        assert_eq!(
            what(MetricNavigator::from_parts(p)),
            "H_X edge weight not finite non-negative"
        );

        let mut p = fresh();
        p.home = Some(vec![usize::MAX; 20]);
        assert_eq!(
            what(MetricNavigator::from_parts(p)),
            "home tree index out of range"
        );

        // Corruption inside a tree's spanner parts surfaces as the
        // wrapped spanner error.
        let mut p = fresh();
        p.trees[0].spanner.home_slot[0] = u32::MAX;
        match MetricNavigator::from_parts(p) {
            Err(NavigationError::Spanner(TreeSpannerError::Corrupt { .. })) => {}
            other => panic!("spanner corruption went undetected: {other:?}"),
        }
    }
}
