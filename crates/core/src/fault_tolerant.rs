//! Fault-tolerant spanners of bounded hop-diameter (Theorem 4.2) and the
//! fault-tolerant navigation scheme (§4.4).
//!
//! The construction leans on the **robustness** of the tree cover of
//! Theorem 4.1: any internal tree vertex may be realized by *any* of its
//! descendant leaves without hurting the stretch. Each tree vertex `v` is
//! therefore assigned a candidate set `R(v)` of `min(f+1, #leaves(v))`
//! descendant leaf points, and every edge `(u, v)` of the tree 1-spanner
//! `K_T` becomes the biclique `R(u) × R(v)` in the metric spanner `H`.
//! After any `f` faults, every `R(v)` on a spanner path between non-faulty
//! `x, y` retains a non-faulty point (a set smaller than `f+1` consists of
//! ancestors of `x` or `y` only), so a k-hop `(1+ε)`-path survives.

use std::collections::HashSet;
use std::fmt;

use hopspan_metric::{path_weight, Metric};
use hopspan_pipeline::BuildStats;
use hopspan_tree_cover::{DominatingTree, LeafTable, RobustTreeCover};
use hopspan_tree_spanner::{TreeHopSpanner, TreeSpannerError};

use crate::materialize::{pair_key, EdgeMerger};
use crate::navigation::{leaf_spanner, tree_vertex_path_into};
use crate::NavigationError;

/// An f-fault-tolerant `(1+O(ε))`-spanner with hop-diameter `k` for a
/// doubling metric, with fault-tolerant navigation. A query scans every
/// tree of the robust cover, which holds each distinct tree once, so it
/// takes O(ζ'·k) time for ζ' distinct trees.
///
/// Each tree keeps only what the query reads: its Theorem 1.1 tree
/// spanner's navigation structure over its leaves, the cover tree's
/// `u32` point → leaf table (taken over by move), and the `R(v)`
/// candidate sets as one `u32` CSR pair. The rest of the cover tree
/// (its parents, child lists and descendant-leaf spans) and the tree
/// spanner's edge list are dropped once the candidates and the
/// biclique edges are derived from them. No tree distance is read, so
/// no LCA table is ever built.
///
/// # Examples
///
/// ```
/// use hopspan_core::FaultTolerantSpanner;
/// use hopspan_metric::gen;
/// use rand::SeedableRng;
/// use std::collections::HashSet;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
/// let points = gen::uniform_points(12, 2, &mut rng);
/// let spanner = FaultTolerantSpanner::new(&points, 0.5, 1, 2)?;
/// let faulty: HashSet<usize> = [4].into_iter().collect();
/// let path = spanner.find_path_avoiding(&points, 0, 11, &faulty)?;
/// assert!(path.len() - 1 <= 2);
/// assert!(!path.contains(&4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FaultTolerantSpanner {
    trees: Vec<FtTree>,
    f: usize,
    k: usize,
    n: usize,
    edges: Vec<(usize, usize, f64)>,
}

#[derive(Debug)]
struct FtTree {
    /// Theorem 1.1 k-hop 1-spanner over the tree's leaves.
    spanner: TreeHopSpanner,
    /// Point → its leaf vertex, one entry per metric point.
    leaf_of: LeafTable,
    /// `R(v)` for every tree vertex `v`.
    cand: CandidateSets,
}

/// `R(v)` for every vertex of one cover tree, flat:
/// `points[off[v]..off[v + 1]]` holds the ≤ f+1 candidate points of
/// vertex `v` — its associated point first (the robust-cover anchor,
/// which is always a descendant leaf), then up to `f` other distinct
/// descendant-leaf points. With f = 0 every set is the vertex's own
/// point.
#[derive(Debug)]
pub struct CandidateSets {
    off: Vec<u32>,
    points: Vec<u32>,
}

impl CandidateSets {
    fn new(dom: &DominatingTree, f: usize) -> Self {
        let m = dom.tree().len();
        let mut off = Vec::with_capacity(m + 1);
        let mut points = Vec::new();
        off.push(0);
        for v in 0..m {
            let start = points.len();
            points.push(narrow(dom.point_of(v)));
            for &leaf in dom.descendant_leaves(v) {
                if points.len() - start > f {
                    break;
                }
                let p = narrow(dom.point_of(leaf));
                if !points[start..].contains(&p) {
                    points.push(p);
                }
            }
            off.push(narrow(points.len()));
        }
        CandidateSets { off, points }
    }

    /// `R(v)`: the candidate points of tree vertex `v`.
    #[inline]
    pub fn of(&self, v: usize) -> &[u32] {
        &self.points[self.off[v] as usize..self.off[v + 1] as usize]
    }
}

/// One cover tree's share of a Theorem 4.2 overlay: the tree's
/// Theorem 1.1 k-hop spanner over its leaves, the candidate sets
/// `R(v)`, and the biclique point pairs `R(u) × R(v)` over the spanner's
/// edges. With f = 0 the pairs are the tree's share of the plain
/// spanner `H_X` of Theorem 1.2, which is how the routing schemes of
/// Theorems 1.3 and 5.2 share one builder.
#[derive(Debug)]
pub struct TreeOverlay {
    /// The cover tree with its point mapping.
    pub dom: DominatingTree,
    /// Theorem 1.1 k-hop 1-spanner over the tree's leaves, its edge
    /// list included.
    pub spanner: TreeHopSpanner,
    /// `R(v)` for every tree vertex.
    pub candidates: CandidateSets,
    /// Biclique instances over the spanner's edges, before dedup.
    pub instances: usize,
    /// The distinct biclique pairs as sorted [`pair_key`]s, each keyed
    /// low-to-high (feed them to an [`EdgeMerger`]).
    pub pairs: Vec<u64>,
}

impl TreeOverlay {
    /// Builds the k-hop spanner over `dom`'s leaves, the candidate sets
    /// with tolerance `f`, and the biclique pairs.
    ///
    /// # Errors
    ///
    /// Propagates tree-spanner construction failures.
    pub fn new(dom: DominatingTree, k: usize, f: usize) -> Result<Self, TreeSpannerError> {
        let spanner = leaf_spanner(dom.tree(), k)?;
        let candidates = CandidateSets::new(&dom, f);
        let mut pairs = Vec::new();
        for &(a, b, _) in spanner.edges() {
            for &pa in candidates.of(a) {
                for &pb in candidates.of(b) {
                    if pa != pb {
                        // Keyed low-to-high: the weight is δ(min, max).
                        pairs.push(pair_key(pa.min(pb) as usize, pa.max(pb) as usize));
                    }
                }
            }
        }
        let instances = pairs.len();
        pairs.sort_unstable();
        pairs.dedup();
        Ok(TreeOverlay {
            dom,
            spanner,
            candidates,
            instances,
            pairs,
        })
    }
}

/// One tree's share of the build: the kept [`FtTree`] and its biclique
/// point pairs.
struct BuiltTree {
    tree: FtTree,
    /// Edges of the tree's Theorem 1.1 spanner.
    spanner_edges: usize,
    /// Biclique instances `R(u) × R(v)` over those edges, before dedup.
    instances: usize,
    /// The distinct biclique pairs as sorted [`pair_key`]s.
    pairs: Vec<u64>,
}

impl FtTree {
    /// Builds the tree's overlay and keeps what the query reads; the
    /// rest of `dom` and the spanner's edge list are dropped here.
    fn build(dom: DominatingTree, f: usize, k: usize) -> Result<BuiltTree, TreeSpannerError> {
        let TreeOverlay {
            dom,
            mut spanner,
            candidates,
            instances,
            pairs,
        } = TreeOverlay::new(dom, k, f)?;
        let spanner_edges = spanner.take_edges().len();
        Ok(BuiltTree {
            tree: FtTree {
                spanner,
                leaf_of: dom.into_leaves(),
                cand: candidates,
            },
            spanner_edges,
            instances,
            pairs,
        })
    }
}

/// How the fault-tolerant query path behaves outside the §6 contract
/// (more than `f` faults, an uncovered pair, or a broken invariant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradationPolicy {
    /// Fail closed: anything outside the contract is a typed [`FtError`]
    /// (the historical behavior, and the default).
    #[default]
    Strict,
    /// Fail open: return the best surviving path as a
    /// [`FtPath::Degraded`] result instead of erroring, flagging that the
    /// stretch/hop guarantee no longer applies.
    BestEffort,
}

/// Why a best-effort result is degraded rather than in-contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DegradeReason {
    /// More than `f` faults were supplied, so Theorem 4.2 no longer
    /// guarantees stretch or hop bounds for the returned path.
    BudgetExceeded {
        /// Number of faults supplied.
        got: usize,
        /// The tolerance the spanner was built for.
        f: usize,
    },
    /// No cover tree contains both endpoints; the returned path is the
    /// direct metric edge, which is not a spanner path.
    Uncovered,
    /// Trees cover the pair but every candidate substitution was wiped
    /// out by the fault set; the returned path is the direct metric
    /// edge, which is not a spanner path.
    NoSurvivingTree,
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeReason::BudgetExceeded { got, f: tol } => {
                write!(f, "{got} faults exceed the f = {tol} budget")
            }
            DegradeReason::Uncovered => write!(f, "no cover tree contains the pair"),
            DegradeReason::NoSurvivingTree => {
                write!(f, "the fault set wiped out every covering tree")
            }
        }
    }
}

/// Outcome of a policy-aware buffer-reuse query: the path itself is in
/// the caller's `out` buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FtPathOutcome {
    /// The path is in contract: ≤ k hops, stretch within the §6 bound.
    Full,
    /// The path avoids every fault but carries no guarantee.
    Degraded {
        /// Why the contract does not apply.
        reason: DegradeReason,
        /// Realized stretch of the returned path (path weight over
        /// metric distance; `1.0` for coincident or direct-edge pairs).
        achieved_stretch: f64,
    },
}

/// Owned result of a policy-aware query.
#[derive(Debug, Clone, PartialEq)]
pub enum FtPath {
    /// An in-contract k-hop path.
    Full(Vec<usize>),
    /// A best-effort path outside the §6 contract.
    Degraded {
        /// The fault-avoiding path (endpoints included).
        path: Vec<usize>,
        /// Why the contract does not apply.
        reason: DegradeReason,
        /// Realized stretch of `path`.
        achieved_stretch: f64,
    },
}

impl FtPath {
    /// The path, regardless of contract status.
    pub fn path(&self) -> &[usize] {
        match self {
            FtPath::Full(p) => p,
            FtPath::Degraded { path, .. } => path,
        }
    }

    /// Whether the §6 stretch/hop guarantee applies to [`FtPath::path`].
    pub fn is_full(&self) -> bool {
        matches!(self, FtPath::Full(_))
    }
}

/// Error type for fault-tolerant queries.
#[derive(Debug)]
#[non_exhaustive]
pub enum FtError {
    /// A query endpoint is faulty or out of range.
    BadEndpoint {
        /// The offending point.
        point: usize,
    },
    /// More faults were supplied than the spanner tolerates.
    TooManyFaults {
        /// Number supplied.
        got: usize,
        /// Tolerance f.
        f: usize,
    },
    /// A per-tree navigation structure failed during the query — a
    /// corrupted spanner, surfaced instead of panicking.
    Spanner(TreeSpannerError),
    /// No cover tree yielded a fault-free path for the pair. The f-FT
    /// construction (Theorem 4.2) guarantees a survivor for ≤ f faults,
    /// so this indicates a broken cover invariant rather than bad input.
    NoSurvivingPath {
        /// First endpoint.
        u: usize,
        /// Second endpoint.
        v: usize,
    },
    /// A parallel build or measurement unit panicked and could not be
    /// recovered; the contained failure names the tree or row index.
    Pipeline(hopspan_pipeline::PipelineError),
}

impl fmt::Display for FtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtError::BadEndpoint { point } => {
                write!(f, "endpoint {point} is faulty or out of range")
            }
            FtError::TooManyFaults { got, f: tol } => {
                write!(f, "{got} faults exceed tolerance f = {tol}")
            }
            FtError::Spanner(e) => write!(f, "tree spanner query failed: {e}"),
            FtError::NoSurvivingPath { u, v } => {
                write!(
                    f,
                    "no cover tree survives the fault set for pair ({u}, {v})"
                )
            }
            FtError::Pipeline(e) => write!(f, "parallel work failed: {e}"),
        }
    }
}

impl std::error::Error for FtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FtError::Spanner(e) => Some(e),
            FtError::Pipeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<hopspan_pipeline::PipelineError> for FtError {
    fn from(e: hopspan_pipeline::PipelineError) -> Self {
        FtError::Pipeline(e)
    }
}

/// Narrows a point id or a per-tree candidate offset to the flat `u32`
/// layout of [`CandidateSets`].
fn narrow(x: usize) -> u32 {
    // hopspan:allow(panic-in-lib) -- point ids and one tree's ≤ (f+1)·|T| candidates stay far below 2³² for any instance that fits in memory
    u32::try_from(x).expect("candidate table fits u32")
}

impl FaultTolerantSpanner {
    /// Builds the f-fault-tolerant k-hop spanner of Theorem 4.2 over the
    /// robust tree cover with parameter `eps`.
    ///
    /// # Errors
    ///
    /// Propagates cover/spanner construction failures; rejects `f > n-2`
    /// via [`hopspan_tree_cover::CoverError::InvalidParameter`].
    pub fn new<M: Metric + Sync>(
        metric: &M,
        eps: f64,
        f: usize,
        k: usize,
    ) -> Result<Self, NavigationError> {
        Self::new_with_stats(metric, eps, f, k, None).map(|(sp, _)| sp)
    }

    /// Like [`FaultTolerantSpanner::new`], with explicit control over
    /// the preprocessing worker count (`None` = automatic) and the
    /// build telemetry returned alongside the spanner.
    ///
    /// The per-tree spanner/candidate/biclique computation fans out over
    /// scoped worker threads; the biclique pair lists are merged
    /// sequentially in tree-index order, so the edge set is identical
    /// for every worker count.
    ///
    /// # Errors
    ///
    /// Propagates cover/spanner construction failures; rejects `f > n-2`
    /// via [`hopspan_tree_cover::CoverError::InvalidParameter`].
    pub fn new_with_stats<M: Metric + Sync>(
        metric: &M,
        eps: f64,
        f: usize,
        k: usize,
        workers: Option<usize>,
    ) -> Result<(Self, BuildStats), NavigationError> {
        let n = metric.len();
        if n >= 2 && f > n - 2 {
            return Err(NavigationError::Cover(
                hopspan_tree_cover::CoverError::InvalidParameter {
                    what: "f must be at most n - 2",
                },
            ));
        }
        let workers = hopspan_pipeline::resolve_workers(workers);
        let mut stats = BuildStats::new(workers);
        let (cover, cover_stats) = RobustTreeCover::new_with_stats(metric, eps, Some(workers))?;
        stats.absorb("cover", cover_stats);
        // Per-tree spanner + candidate sets + biclique point pairs, in
        // parallel; metric access happens only in the sequential
        // materialization below, where distances are attached to the
        // deduplicated pairs.
        let built: Vec<BuiltTree> = stats.phase("spanners", || {
            hopspan_pipeline::try_parallel_map_owned(
                workers,
                cover.into_cover().into_trees(),
                |_, dom| FtTree::build(dom, f, k),
            )
            .map_err(NavigationError::Pipeline)?
            .into_iter()
            .collect::<Result<_, TreeSpannerError>>()
            .map_err(NavigationError::Spanner)
        })?;
        stats.tree_count = built.len();
        stats.per_tree_spanner_edges = built.iter().map(|b| b.spanner_edges).collect();
        stats.edge_instances = built.iter().map(|b| b.instances).sum();
        let (trees, edges) = stats.phase("materialize", || {
            let mut merger = EdgeMerger::default();
            let mut trees = Vec::with_capacity(built.len());
            for b in built {
                merger.extend(b.pairs);
                trees.push(b.tree);
            }
            (trees, merger.finish(metric))
        });
        stats.edges_after_dedup = edges.len();
        Ok((
            FaultTolerantSpanner {
                trees,
                f,
                k,
                n,
                edges,
            },
            stats,
        ))
    }

    /// The fault tolerance parameter f.
    #[inline]
    pub fn fault_tolerance(&self) -> usize {
        self.f
    }

    /// The hop bound k.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of points.
    #[inline]
    pub fn point_count(&self) -> usize {
        self.n
    }

    /// The spanner edges (Theorem 4.2 bounds the count by
    /// `ε^{-O(d)}·n·f²·α_k(n)`).
    #[inline]
    pub fn edges(&self) -> &[(usize, usize, f64)] {
        &self.edges
    }

    /// Number of spanner edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of distinct cover trees ζ' the spanner keeps and every
    /// query scans (see [`RobustTreeCover::tree_count`]).
    #[inline]
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// Navigates from `u` to `v` avoiding the `faulty` set: returns a
    /// k-hop spanner path through non-faulty points only. Scans the trees
    /// and returns the lightest surviving path.
    ///
    /// # Errors
    ///
    /// Returns [`FtError::TooManyFaults`] if `faulty.len() > f` and
    /// [`FtError::BadEndpoint`] if an endpoint is faulty or out of range.
    pub fn find_path_avoiding<M: Metric>(
        &self,
        metric: &M,
        u: usize,
        v: usize,
        faulty: &HashSet<usize>,
    ) -> Result<Vec<usize>, FtError> {
        let mut out = Vec::with_capacity(self.k + 1); // hopspan:allow(alloc-on-query-path) -- convenience wrapper: allocates the caller-owned buffer once, then delegates to the *_into hot path
        let mut scratch = Vec::with_capacity(self.k + 1); // hopspan:allow(alloc-on-query-path) -- convenience wrapper: allocates the caller-owned buffer once, then delegates to the *_into hot path
        self.find_path_avoiding_into(metric, u, v, faulty, &mut out, &mut scratch)?;
        Ok(out)
    }

    /// Buffer-reuse variant of
    /// [`FaultTolerantSpanner::find_path_avoiding`]: writes the best
    /// surviving path into `out` and uses `scratch` as the per-tree
    /// working buffer (both cleared first). With warmed buffers the
    /// query performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Same contract as [`FaultTolerantSpanner::find_path_avoiding`];
    /// `out` is left cleared on error.
    pub fn find_path_avoiding_into<M: Metric>(
        &self,
        metric: &M,
        u: usize,
        v: usize,
        faulty: &HashSet<usize>,
        out: &mut Vec<usize>,
        scratch: &mut Vec<usize>,
    ) -> Result<(), FtError> {
        self.find_path_avoiding_policy_into(
            metric,
            u,
            v,
            faulty,
            DegradationPolicy::Strict,
            out,
            scratch,
        )
        .map(|_| ())
    }

    /// Policy-aware navigation: like
    /// [`FaultTolerantSpanner::find_path_avoiding`], but under
    /// [`DegradationPolicy::BestEffort`] an out-of-contract query (more
    /// than `f` faults, an uncovered pair, or a wiped-out tree set)
    /// returns [`FtPath::Degraded`] — the best surviving-tree path, or
    /// the direct metric edge as a last resort — instead of an error.
    /// The result is deterministic: the tree scan order is fixed and
    /// independent of worker count.
    ///
    /// # Errors
    ///
    /// [`FtError::BadEndpoint`] under both policies (a faulty endpoint
    /// cannot be routed for); under [`DegradationPolicy::Strict`], the
    /// same contract as [`FaultTolerantSpanner::find_path_avoiding`].
    pub fn find_path_avoiding_with_policy<M: Metric>(
        &self,
        metric: &M,
        u: usize,
        v: usize,
        faulty: &HashSet<usize>,
        policy: DegradationPolicy,
    ) -> Result<FtPath, FtError> {
        let mut out = Vec::with_capacity(self.k + 1); // hopspan:allow(alloc-on-query-path) -- convenience wrapper: allocates the caller-owned buffer once, then delegates to the *_into hot path
        let mut scratch = Vec::with_capacity(self.k + 1); // hopspan:allow(alloc-on-query-path) -- convenience wrapper: allocates the caller-owned buffer once, then delegates to the *_into hot path
        match self.find_path_avoiding_policy_into(
            metric,
            u,
            v,
            faulty,
            policy,
            &mut out,
            &mut scratch,
        )? {
            FtPathOutcome::Full => Ok(FtPath::Full(out)),
            FtPathOutcome::Degraded {
                reason,
                achieved_stretch,
            } => Ok(FtPath::Degraded {
                path: out,
                reason,
                achieved_stretch,
            }),
        }
    }

    /// Buffer-reuse variant of
    /// [`FaultTolerantSpanner::find_path_avoiding_with_policy`]: the
    /// path is written into `out` and the outcome tells whether the §6
    /// contract applies to it.
    ///
    /// # Errors
    ///
    /// Same contract as
    /// [`FaultTolerantSpanner::find_path_avoiding_with_policy`]; `out`
    /// is left cleared on error.
    #[allow(clippy::too_many_arguments)]
    pub fn find_path_avoiding_policy_into<M: Metric>(
        &self,
        metric: &M,
        u: usize,
        v: usize,
        faulty: &HashSet<usize>,
        policy: DegradationPolicy,
        out: &mut Vec<usize>,
        scratch: &mut Vec<usize>,
    ) -> Result<FtPathOutcome, FtError> {
        out.clear();
        let over_budget = faulty.len() > self.f;
        if over_budget && policy == DegradationPolicy::Strict {
            return Err(FtError::TooManyFaults {
                got: faulty.len(),
                f: self.f,
            });
        }
        if u >= self.n || faulty.contains(&u) {
            return Err(FtError::BadEndpoint { point: u });
        }
        if v >= self.n || faulty.contains(&v) {
            return Err(FtError::BadEndpoint { point: v });
        }
        if u == v {
            out.push(u);
            return Ok(FtPathOutcome::Full);
        }
        let mut best: Option<f64> = None;
        let mut covered = false;
        for t in &self.trees {
            if !tree_vertex_path_into(&t.leaf_of, &t.spanner, u, v, scratch)
                .map_err(FtError::Spanner)?
            {
                continue;
            }
            covered = true;
            // Substitute every vertex by a non-faulty candidate, in place
            // over the tree-vertex path (slot `i` is only read before it
            // is overwritten, and the pick for slot `i` depends only on
            // the already-substituted slot `i - 1`). Endpoints substitute
            // to themselves (their candidate set contains them only when
            // small, but endpoints are leaves anyway).
            let len = scratch.len();
            let mut ok = true;
            // The endpoint written below seeds `prev`, so inner vertices
            // always have a predecessor without unwrapping.
            let mut prev = u;
            for i in 0..len {
                if i == 0 {
                    scratch[i] = u;
                    continue;
                }
                if i + 1 == len {
                    scratch[i] = v;
                    continue;
                }
                let cand = t.cand.of(scratch[i]);
                // Any non-faulty candidate is valid (robustness); pick the
                // one closest to the previous path point to keep the
                // realized constant small. Each distance is computed once,
                // and the first strict minimum wins, as with `min_by`.
                let mut pick: Option<(usize, f64)> = None;
                for p in cand.iter().map(|&p| p as usize) {
                    if faulty.contains(&p) {
                        continue;
                    }
                    let d = metric.dist(prev, p);
                    if pick.is_none_or(|(_, bd)| bd > d) {
                        pick = Some((p, d));
                    }
                }
                match pick.map(|(p, _)| p) {
                    Some(p) => {
                        scratch[i] = p;
                        prev = p;
                    }
                    None => {
                        // Candidate sets smaller than f+1 hold only
                        // ancestors of u or v; fall back to the endpoints.
                        if cand.len() <= self.f {
                            let fallback = if cand.iter().any(|&p| p as usize == u) {
                                u
                            } else {
                                v
                            };
                            scratch[i] = fallback;
                            prev = fallback;
                        } else {
                            ok = false;
                            break;
                        }
                    }
                }
            }
            if !ok {
                continue;
            }
            scratch.dedup();
            let w = path_weight(metric, scratch);
            if best.is_none_or(|bw| w < bw) {
                best = Some(w);
                std::mem::swap(out, scratch);
            }
        }
        match best {
            Some(_) if !over_budget => Ok(FtPathOutcome::Full),
            Some(w) => {
                // A surviving-tree path exists, but the fault budget was
                // exceeded, so Theorem 4.2's guarantee is void.
                let d = metric.dist(u, v);
                Ok(FtPathOutcome::Degraded {
                    reason: DegradeReason::BudgetExceeded {
                        got: faulty.len(),
                        f: self.f,
                    },
                    achieved_stretch: if d > 0.0 { w / d } else { 1.0 },
                })
            }
            None if policy == DegradationPolicy::Strict => Err(FtError::NoSurvivingPath { u, v }),
            None => {
                // Last-resort fallback: the direct metric edge. Both
                // endpoints are non-faulty (checked above), so the
                // one-hop path avoids every fault; it is just not a
                // spanner path, which the reason records.
                out.clear();
                out.push(u);
                out.push(v);
                let reason = if covered {
                    DegradeReason::NoSurvivingTree
                } else {
                    DegradeReason::Uncovered
                };
                Ok(FtPathOutcome::Degraded {
                    reason,
                    achieved_stretch: 1.0,
                })
            }
        }
    }

    /// Measures worst-case stretch and hops over all non-faulty pairs
    /// for a given faulty set (for tests and experiments). Rows of the
    /// pair triangle fan out across the preprocessing worker pool
    /// through [`hopspan_pipeline::max_over_rows`]; each worker reuses
    /// one pair of path buffers, so the result is identical for every
    /// worker count.
    ///
    /// # Errors
    ///
    /// Propagates [`FtError`] if any non-faulty pair fails to resolve.
    /// With several failing rows, the lowest row's error is returned.
    pub fn measured_stretch_and_hops<M: Metric + Sync>(
        &self,
        metric: &M,
        faulty: &HashSet<usize>,
    ) -> Result<(f64, usize), FtError> {
        hopspan_pipeline::max_over_rows(self.n, |u| {
            let mut worst = 1.0f64;
            let mut hops = 0;
            if faulty.contains(&u) {
                return Ok((worst, hops));
            }
            let mut path = Vec::with_capacity(self.k + 1);
            let mut scratch = Vec::with_capacity(self.k + 1);
            for v in (u + 1)..self.n {
                if faulty.contains(&v) {
                    continue;
                }
                self.find_path_avoiding_into(metric, u, v, faulty, &mut path, &mut scratch)?;
                for &p in &path {
                    assert!(!faulty.contains(&p), "path uses faulty point {p}");
                }
                let d = metric.dist(u, v);
                if d > 0.0 {
                    worst = worst.max(path_weight(metric, &path) / d);
                }
                hops = hops.max(path.len() - 1);
            }
            Ok((worst, hops))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopspan_metric::gen;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(2026)
    }

    #[test]
    fn survives_random_faults() {
        let m = gen::uniform_points(20, 2, &mut rng());
        for f in [1usize, 2, 3] {
            let sp = FaultTolerantSpanner::new(&m, 0.5, f, 2).unwrap();
            let mut ids: Vec<usize> = (0..20).collect();
            ids.shuffle(&mut rng());
            let faulty: HashSet<usize> = ids.into_iter().take(f).collect();
            let (stretch, hops) = sp.measured_stretch_and_hops(&m, &faulty).unwrap();
            assert!(hops <= 2, "hops {hops} > 2 with f={f}");
            assert!(stretch <= 8.0, "stretch {stretch} with f={f}");
        }
    }

    #[test]
    fn line_faults_exact() {
        let m = hopspan_metric::EuclideanSpace::from_points(
            &(0..16).map(|i| vec![i as f64]).collect::<Vec<_>>(),
        );
        let sp = FaultTolerantSpanner::new(&m, 0.25, 2, 2).unwrap();
        let faulty: HashSet<usize> = [5usize, 11].into_iter().collect();
        let (stretch, hops) = sp.measured_stretch_and_hops(&m, &faulty).unwrap();
        assert!(hops <= 2);
        // The robust cover keeps stretch bounded even under substitution;
        // the R(v) sets are fixed f+1 candidates, so short pairs routed
        // around a fault pay a small constant (measured 3 here).
        assert!(stretch <= 3.5, "stretch {stretch}");
    }

    #[test]
    fn size_grows_with_f() {
        let m = gen::uniform_points(24, 2, &mut rng());
        let e0 = FaultTolerantSpanner::new(&m, 0.5, 0, 3)
            .unwrap()
            .edge_count();
        let e2 = FaultTolerantSpanner::new(&m, 0.5, 2, 3)
            .unwrap()
            .edge_count();
        let e4 = FaultTolerantSpanner::new(&m, 0.5, 4, 3)
            .unwrap()
            .edge_count();
        assert!(
            e0 < e2 && e2 < e4,
            "sizes must grow with f: {e0}, {e2}, {e4}"
        );
    }

    #[test]
    fn survives_adversarial_faults_targeting_candidates() {
        // The adversary knocks out the points that appear in the most
        // R(v) candidate sets — the worst case for the biclique design.
        let m = gen::uniform_points(24, 2, &mut rng());
        let f = 3;
        let sp = FaultTolerantSpanner::new(&m, 0.25, f, 2).unwrap();
        let mut frequency = [0usize; 24];
        for t in &sp.trees {
            for &p in &t.cand.points {
                frequency[p as usize] += 1;
            }
        }
        let mut by_freq: Vec<usize> = (0..24).collect();
        by_freq.sort_by_key(|&p| std::cmp::Reverse(frequency[p]));
        let faulty: HashSet<usize> = by_freq.into_iter().take(f).collect();
        let (stretch, hops) = sp.measured_stretch_and_hops(&m, &faulty).unwrap();
        assert!(hops <= 2, "hops {hops} under adversarial faults");
        assert!(stretch <= 8.0, "stretch {stretch} under adversarial faults");
    }

    #[test]
    fn rejects_bad_queries() {
        let m = gen::uniform_points(10, 2, &mut rng());
        let sp = FaultTolerantSpanner::new(&m, 0.5, 1, 2).unwrap();
        let faulty: HashSet<usize> = [3usize].into_iter().collect();
        assert!(matches!(
            sp.find_path_avoiding(&m, 3, 5, &faulty),
            Err(FtError::BadEndpoint { point: 3 })
        ));
        let too_many: HashSet<usize> = [3usize, 4].into_iter().collect();
        assert!(matches!(
            sp.find_path_avoiding(&m, 0, 5, &too_many),
            Err(FtError::TooManyFaults { .. })
        ));
        assert!(matches!(
            FaultTolerantSpanner::new(&m, 0.5, 9, 2),
            Err(NavigationError::Cover(_))
        ));
    }

    #[test]
    fn best_effort_degrades_over_budget_instead_of_erroring() {
        let m = gen::uniform_points(18, 2, &mut rng());
        let f = 1;
        let sp = FaultTolerantSpanner::new(&m, 0.5, f, 2).unwrap();
        let faulty: HashSet<usize> = [2usize, 7, 11].into_iter().collect();
        // Strict: typed error.
        assert!(matches!(
            sp.find_path_avoiding(&m, 0, 17, &faulty),
            Err(FtError::TooManyFaults { got: 3, f: 1 })
        ));
        // BestEffort: a degraded path that still avoids every fault.
        match sp
            .find_path_avoiding_with_policy(&m, 0, 17, &faulty, DegradationPolicy::BestEffort)
            .unwrap()
        {
            FtPath::Degraded {
                path,
                reason,
                achieved_stretch,
            } => {
                assert_eq!(path.first(), Some(&0));
                assert_eq!(path.last(), Some(&17));
                assert!(path.iter().all(|p| !faulty.contains(p)));
                assert!(matches!(
                    reason,
                    DegradeReason::BudgetExceeded { got: 3, f: 1 } | DegradeReason::NoSurvivingTree
                ));
                assert!(achieved_stretch >= 1.0 - 1e-12);
            }
            FtPath::Full(_) => panic!("over-budget query must be degraded"),
        }
    }

    #[test]
    fn best_effort_matches_strict_in_contract() {
        let m = gen::uniform_points(16, 2, &mut rng());
        let sp = FaultTolerantSpanner::new(&m, 0.5, 2, 2).unwrap();
        let faulty: HashSet<usize> = [3usize, 9].into_iter().collect();
        for u in 0..16 {
            for v in 0..16 {
                if faulty.contains(&u) || faulty.contains(&v) {
                    continue;
                }
                let strict = sp.find_path_avoiding(&m, u, v, &faulty).unwrap();
                let policy = sp
                    .find_path_avoiding_with_policy(
                        &m,
                        u,
                        v,
                        &faulty,
                        DegradationPolicy::BestEffort,
                    )
                    .unwrap();
                match policy {
                    FtPath::Full(path) => assert_eq!(path, strict, "pair ({u},{v})"),
                    FtPath::Degraded { .. } => {
                        panic!("in-contract pair ({u},{v}) must stay full")
                    }
                }
            }
        }
    }

    #[test]
    fn best_effort_is_deterministic() {
        let m = gen::uniform_points(20, 2, &mut rng());
        let sp = FaultTolerantSpanner::new(&m, 0.5, 1, 2).unwrap();
        let faulty: HashSet<usize> = [1usize, 4, 8, 13].into_iter().collect();
        let a = sp
            .find_path_avoiding_with_policy(&m, 0, 19, &faulty, DegradationPolicy::BestEffort)
            .unwrap();
        let b = sp
            .find_path_avoiding_with_policy(&m, 0, 19, &faulty, DegradationPolicy::BestEffort)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_faults_matches_plain_navigation() {
        let m = gen::uniform_points(15, 2, &mut rng());
        let sp = FaultTolerantSpanner::new(&m, 0.5, 0, 2).unwrap();
        let (stretch, hops) = sp.measured_stretch_and_hops(&m, &HashSet::new()).unwrap();
        assert!(hops <= 2);
        assert!(stretch <= 8.0);
    }
}
