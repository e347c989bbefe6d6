//! 1-spanners of bounded hop-diameter for tree metrics, with O(k)-time
//! path queries — Theorem 1.1 of *"Can't See the Forest for the Trees:
//! Navigating Metric Spaces by Bounded Hop-Diameter Spanners"* (PODC'22).
//!
//! Given an edge-weighted tree `T` on `n` vertices and an integer `k ≥ 2`,
//! [`TreeHopSpanner`] builds Solomon's 1-spanner `G_T` with hop-diameter
//! `k` and `O(n·α_k(n))` edges, together with a navigation structure that
//! answers queries in `O(k)` time: for any two (required) vertices `u, v`,
//! [`TreeHopSpanner::find_path`] returns a path in `G_T` of at most `k`
//! edges whose weight is *exactly* the tree distance `δ_T(u, v)`.
//!
//! Steiner vertices are supported: construct with
//! [`TreeHopSpanner::with_required`] and only required vertices may be
//! queried — exactly the generality needed to run the construction on the
//! Steiner trees produced by tree covers (paper §3.2).
//!
//! # Examples
//!
//! ```
//! use hopspan_treealg::RootedTree;
//! use hopspan_tree_spanner::TreeHopSpanner;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A path metric on 8 vertices; 2-hop spanner.
//! let edges: Vec<_> = (1..8).map(|v| (v - 1, v, 1.0)).collect();
//! let tree = RootedTree::from_edges(8, 0, &edges)?;
//! let spanner = TreeHopSpanner::new(&tree, 2)?;
//! let path = spanner.find_path(0, 7)?;
//! assert!(path.len() - 1 <= 2); // at most 2 hops
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Inverse-Ackermann-style functions (α, α', αₖ) from \[NS07\].
pub mod ackermann;
mod construct;
mod local_tree;
mod navigate;
mod parts;

pub use parts::{
    BaseTableParts, ContractedParts, NavigatorParts, PhiNodeParts, SpannerParts, TreeParts,
};

use std::fmt;

use hopspan_treealg::RootedTree;

use construct::{Navigator, NONE};
use local_tree::LocalTree;

/// Error type for [`TreeHopSpanner`] construction and queries.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TreeSpannerError {
    /// The hop-diameter parameter must be at least 2.
    InvalidK {
        /// The rejected value.
        k: usize,
    },
    /// No vertex was marked required.
    NoRequiredVertices,
    /// The `required` mask length differs from the tree size.
    RequiredLenMismatch,
    /// A query endpoint is out of range or not a required vertex.
    NotRequired {
        /// The offending vertex.
        vertex: usize,
    },
    /// A deep structural self-check found an internal inconsistency
    /// (see [`TreeHopSpanner::validate`]).
    Corrupt {
        /// Which invariant failed.
        what: &'static str,
    },
}

impl fmt::Display for TreeSpannerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeSpannerError::InvalidK { k } => write!(f, "hop-diameter k = {k} must be >= 2"),
            TreeSpannerError::NoRequiredVertices => write!(f, "no required vertices"),
            TreeSpannerError::RequiredLenMismatch => {
                write!(f, "required mask length does not match tree size")
            }
            TreeSpannerError::NotRequired { vertex } => {
                write!(f, "vertex {vertex} is not a required vertex")
            }
            TreeSpannerError::Corrupt { what } => {
                write!(f, "corrupt spanner structure: {what}")
            }
        }
    }
}

impl std::error::Error for TreeSpannerError {}

/// A 1-spanner of hop-diameter `k` for a tree metric, with O(k) queries.
///
/// See the [crate-level documentation](crate) for an overview and example.
#[derive(Debug)]
pub struct TreeHopSpanner {
    k: usize,
    n: usize,
    required: Vec<bool>,
    edges: Vec<(usize, usize, f64)>,
    nav: Navigator,
    /// Dense home table: vertex -> home Φ node ([`NONE`] when the
    /// vertex is Steiner).
    home_node: Vec<u32>,
    /// Dense home slot: vertex -> index within its home node's `inner`.
    home_slot: Vec<u32>,
    /// CSR offsets into [`TreeHopSpanner::base_nbr`] (`n + 1` entries).
    base_off: Vec<u32>,
    /// Concatenated base-case adjacency lists `(neighbor, weight)`.
    base_nbr: Vec<(usize, f64)>,
    /// Whether a vertex belongs to a base case (distinguishes an empty
    /// adjacency from "not a base vertex").
    base_member: Vec<bool>,
}

/// Normalizes every edge to `u ≤ v`, sorts by `(u, v)` and drops repeats,
/// which several recursion levels can emit (with the same weight either
/// way): each edge keeps its first emitted copy, so the result does not
/// depend on how equal weights were rounded. A counting sort by `u`
/// keeps emission order within each bucket, and a stable sort of each
/// (short) bucket by `v` then puts every edge's first copy first.
fn dedup_edges(edges: Vec<(usize, usize, f64)>, n: usize) -> Vec<(usize, usize, f64)> {
    // Counts land two slots up; see `LocalTree::shape`.
    let mut off = vec![0usize; n + 2];
    for &(u, v, _) in &edges {
        off[u.min(v) + 2] += 1;
    }
    for i in 2..n + 2 {
        off[i] += off[i - 1];
    }
    let mut sorted = vec![(0usize, 0usize, 0.0f64); edges.len()];
    for (u, v, w) in edges {
        let a = u.min(v);
        sorted[off[a + 1]] = (a, u.max(v), w);
        off[a + 1] += 1;
    }
    for a in 0..n {
        sorted[off[a]..off[a + 1]].sort_by_key(|e| e.1);
    }
    sorted.dedup_by_key(|e| (e.0, e.1));
    sorted.shrink_to_fit();
    sorted
}

impl TreeHopSpanner {
    /// Builds the spanner and navigation structure with **all** vertices
    /// required.
    ///
    /// # Errors
    ///
    /// Returns [`TreeSpannerError::InvalidK`] when `k < 2`.
    pub fn new(tree: &RootedTree, k: usize) -> Result<Self, TreeSpannerError> {
        let required = vec![true; tree.len()];
        Self::with_required(tree, &required, k)
    }

    /// Builds the spanner for a Steiner tree metric: only `required`
    /// vertices are queryable endpoints, and the k-hop guarantee holds
    /// between required pairs (paths may pass through Steiner vertices).
    ///
    /// # Errors
    ///
    /// Returns an error when `k < 2`, the mask length mismatches, or no
    /// vertex is required.
    pub fn with_required(
        tree: &RootedTree,
        required: &[bool],
        k: usize,
    ) -> Result<Self, TreeSpannerError> {
        if k < 2 {
            return Err(TreeSpannerError::InvalidK { k });
        }
        if required.len() != tree.len() {
            return Err(TreeSpannerError::RequiredLenMismatch);
        }
        let n = tree.len();
        let local = LocalTree {
            orig: (0..n).collect(),
            parent: (0..n).map(|v| tree.parent(v)).collect(),
            weight: (0..n).map(|v| tree.parent_weight(v)).collect(),
            required: required.to_vec(),
            root: tree.root(),
        };
        let pruned = local
            .prune(&local.shape(), required)
            .ok_or(TreeSpannerError::NoRequiredVertices)?;
        let mut edges = Vec::new();
        let (nav, out) =
            construct::build_navigator(&pruned, k, &mut edges, &mut construct::Scratch::new(n));
        let edges = dedup_edges(edges, n);
        // Densify the build output into flat per-vertex tables.
        let mut home_node = vec![NONE; n];
        let mut home_slot = vec![0u32; n];
        for (v, (h, s)) in out.homes {
            home_node[v] = h;
            home_slot[v] = s;
        }
        let mut base_member = vec![false; n];
        for v in out.base_members {
            base_member[v] = true;
        }
        // Every offset is at most the total, so the u32 counts below
        // cannot overflow once it fits.
        let total = u32::try_from(2 * out.base_edges.len())
            // hopspan:allow(panic-in-lib) -- ≤ 2·edge_count entries, far below 2³² for feasible n
            .expect("adjacency fits u32");
        let mut base_off = vec![0u32; n + 1];
        for &(u, v, _) in &out.base_edges {
            base_off[u + 1] += 1;
            base_off[v + 1] += 1;
        }
        for v in 0..n {
            base_off[v + 1] += base_off[v];
        }
        let mut cursor = base_off.clone();
        let mut base_nbr = vec![(0usize, 0.0f64); total as usize];
        for (u, v, w) in out.base_edges {
            base_nbr[cursor[u] as usize] = (v, w);
            cursor[u] += 1;
            base_nbr[cursor[v] as usize] = (u, w);
            cursor[v] += 1;
        }
        Ok(TreeHopSpanner {
            k,
            n,
            required: required.to_vec(),
            edges,
            nav,
            home_node,
            home_slot,
            base_off,
            base_nbr,
            base_member,
        })
    }

    /// Builds the "truly linear size" configuration the paper highlights:
    /// hop-diameter `k = 2α(n) + 2` (an effectively constant value — at
    /// most ~10 for any conceivable n) with O(n) edges, since
    /// α_{2α(n)+2}(n) ≤ 4 \[NS07\].
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`TreeHopSpanner::new`].
    pub fn with_linear_size(tree: &RootedTree) -> Result<Self, TreeSpannerError> {
        let k = 2 * usize::try_from(ackermann::alpha_one(tree.len() as u128))
            // hopspan:allow(panic-in-lib) -- alpha_one(n) ≤ 4 for any feasible n, far below usize::MAX
            .expect("alpha fits usize")
            + 2;
        Self::new(tree, k.max(2))
    }

    /// The hop-diameter parameter `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of vertices of the underlying tree.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// The spanner edges `(u, v, weight)` with `weight = δ_T(u, v)`,
    /// sorted and deduplicated.
    #[inline]
    pub fn edges(&self) -> &[(usize, usize, f64)] {
        &self.edges
    }

    /// Moves the edge list out, leaving [`TreeHopSpanner::edges`] empty.
    /// Queries never read the list, so a caller that merges the edges
    /// into a larger graph need not keep a second copy of them.
    pub fn take_edges(&mut self) -> Vec<(usize, usize, f64)> {
        std::mem::take(&mut self.edges)
    }

    /// Number of spanner edges (the paper bounds this by `O(n·α_k(n))`).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether `v` is a required (queryable) vertex.
    #[inline]
    pub fn is_required(&self, v: usize) -> bool {
        self.required.get(v).copied().unwrap_or(false)
    }

    /// Returns a 1-spanner path between `u` and `v`: at most `k` hops, and
    /// total weight exactly `δ_T(u, v)`. Runs in O(k) time.
    ///
    /// # Errors
    ///
    /// Returns [`TreeSpannerError::NotRequired`] if an endpoint is out of
    /// range or not required.
    pub fn find_path(&self, u: usize, v: usize) -> Result<Vec<usize>, TreeSpannerError> {
        let mut out = Vec::with_capacity(self.k + 1); // hopspan:allow(alloc-on-query-path) -- convenience wrapper: allocates the caller-owned buffer once, then delegates to the *_into hot path
        self.find_path_into(u, v, &mut out)?;
        Ok(out)
    }

    /// Buffer-reuse variant of [`TreeHopSpanner::find_path`]: writes the
    /// path into `out` (cleared first) instead of allocating. With a
    /// warmed buffer the query performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Returns [`TreeSpannerError::NotRequired`] if an endpoint is out of
    /// range or not required; `out` is left cleared in that case.
    pub fn find_path_into(
        &self,
        u: usize,
        v: usize,
        out: &mut Vec<usize>,
    ) -> Result<(), TreeSpannerError> {
        out.clear();
        if !self.is_required(u) {
            return Err(TreeSpannerError::NotRequired { vertex: u });
        }
        if !self.is_required(v) {
            return Err(TreeSpannerError::NotRequired { vertex: v });
        }
        // Required vertices always receive a home during construction.
        debug_assert!(self.home_node[u] != NONE && self.home_node[v] != NONE);
        let hu = navigate::Homed {
            vertex: u,
            node: self.home_node[u] as usize,
            slot: self.home_slot[u],
        };
        let hv = navigate::Homed {
            vertex: v,
            node: self.home_node[v] as usize,
            slot: self.home_slot[v],
        };
        self.nav.find_path_into(hu, hv, out);
        Ok(())
    }

    /// Deep structural self-check of the dense query-path layouts: the
    /// CSR base-case adjacency, the home-pointer tables and the edge
    /// list. O(n + m); intended for chaos harnesses and post-transport
    /// integrity checks (e.g. after deserializing a spanner), not for
    /// the query hot path.
    ///
    /// # Errors
    ///
    /// Returns [`TreeSpannerError::Corrupt`] naming the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), TreeSpannerError> {
        let n = self.n;
        let corrupt = |what| Err(TreeSpannerError::Corrupt { what });
        if self.required.len() != n
            || self.home_node.len() != n
            || self.home_slot.len() != n
            || self.base_member.len() != n
        {
            return corrupt("per-vertex table length mismatch");
        }
        if self.base_off.len() != n + 1 {
            return corrupt("CSR offset table must have n + 1 entries");
        }
        if self.base_off[0] != 0 {
            return corrupt("CSR offsets must start at 0");
        }
        for v in 0..n {
            if self.base_off[v] > self.base_off[v + 1] {
                return corrupt("CSR offsets must be monotonically non-decreasing");
            }
            if !self.base_member[v] && self.base_off[v] != self.base_off[v + 1] {
                return corrupt("non-base vertex with a non-empty adjacency range");
            }
        }
        if self.base_off[n] as usize != self.base_nbr.len() {
            return corrupt("CSR offsets must end at the adjacency length");
        }
        for &(nbr, w) in &self.base_nbr {
            if nbr >= n {
                return corrupt("base adjacency neighbor out of range");
            }
            if !w.is_finite() || w < 0.0 {
                return corrupt("base adjacency weight not finite non-negative");
            }
        }
        for v in 0..n {
            let h = self.home_node[v];
            if h == NONE {
                if self.required[v] {
                    return corrupt("required vertex without a home");
                }
                continue;
            }
            let Some(&node) = self.nav.nodes.get(h as usize) else {
                return corrupt("home node out of range");
            };
            match self.nav.inner_of(node).get(self.home_slot[v] as usize) {
                Some(&stored) if stored as usize == v => {}
                Some(_) => return corrupt("home slot points at a different vertex"),
                None => return corrupt("home slot out of range"),
            }
        }
        let mut prev: Option<(usize, usize)> = None;
        for &(u, v, w) in &self.edges {
            if u >= n || v >= n {
                return corrupt("edge endpoint out of range");
            }
            if u >= v {
                return corrupt("edges must be stored with u < v");
            }
            if !w.is_finite() || w < 0.0 {
                return corrupt("edge weight not finite non-negative");
            }
            if prev.is_some_and(|p| p >= (u, v)) {
                return corrupt("edges must be strictly sorted by (u, v)");
            }
            prev = Some((u, v));
        }
        Ok(())
    }

    /// Depth of the augmented recursion tree Φ (Observation 3.1 bounds
    /// this by `O(α_k(n))`).
    pub fn recursion_depth(&self) -> usize {
        (0..self.nav.phi_la.len())
            .map(|i| self.nav.phi_la.depth(i))
            .max()
            .unwrap_or(0)
            + 1
    }

    /// The Φ node that is `v`'s *home* (the recursive call where `v`
    /// became a cut vertex or a base-case member), for required `v`.
    ///
    /// Together with the other `phi_*` accessors this exposes the top
    /// recursion hierarchy to the routing schemes of the paper's §5.1
    /// (which only need `k = 2`, where Φ has no contracted trees or
    /// sub-hierarchies).
    pub fn home_node(&self, v: usize) -> Option<usize> {
        match self.home_node.get(v) {
            Some(&h) if h != NONE => Some(h as usize),
            _ => None,
        }
    }

    /// Parent of a Φ node (None for the root).
    pub fn phi_parent(&self, node: usize) -> Option<usize> {
        self.nav.phi_la.parent(node)
    }

    /// Depth of a Φ node.
    pub fn phi_depth(&self, node: usize) -> usize {
        self.nav.phi_la.depth(node)
    }

    /// Whether a Φ node is a `HandleBaseCase` leaf.
    pub fn phi_is_base(&self, node: usize) -> bool {
        self.nav.nodes[node].is_base()
    }

    /// The inner vertices of a Φ node: its cut vertices (a single one for
    /// `k = 2`), or the required members of a base case. Vertex ids are
    /// stored as `u32` words.
    pub fn phi_inner(&self, node: usize) -> &[u32] {
        self.nav.inner_of(self.nav.nodes[node])
    }

    /// Number of Φ nodes in the top hierarchy.
    pub fn phi_node_count(&self) -> usize {
        self.nav.nodes.len()
    }

    /// The base-case spanner adjacency of vertex `v` (present for
    /// vertices that belong to a base case), as `(neighbor, weight)`.
    pub fn base_neighbors(&self, v: usize) -> Option<&[(usize, f64)]> {
        if !self.base_member.get(v).copied().unwrap_or(false) {
            return None;
        }
        Some(&self.base_nbr[self.base_off[v] as usize..self.base_off[v + 1] as usize])
    }

    /// Total number of recursion-tree nodes, including the nested `(k-2)`
    /// hierarchies.
    pub fn recursion_node_count(&self) -> usize {
        fn count(nav: &Navigator) -> usize {
            nav.nodes.len()
                + nav
                    .contracted
                    .iter()
                    .filter_map(|c| c.sub.as_deref())
                    .map(|s| count(&s.nav))
                    .sum::<usize>()
        }
        count(&self.nav)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopspan_treealg::Lca;
    use std::collections::BTreeMap;

    /// Exhaustive verification: for every required pair, the returned path
    /// (a) starts/ends at the endpoints, (b) uses only spanner edges,
    /// (c) has at most k hops, (d) has weight exactly δ_T(u, v).
    fn verify_spanner(tree: &RootedTree, required: &[bool], k: usize) {
        let sp = TreeHopSpanner::with_required(tree, required, k).unwrap();
        let lca = Lca::new(tree);
        let mut edge_w: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        for &(u, v, w) in sp.edges() {
            edge_w.insert((u.min(v), u.max(v)), w);
            // Every spanner edge weight equals the tree distance.
            let d = tree.distance_with(&lca, u, v);
            assert!((w - d).abs() < 1e-6 * d.max(1.0), "edge ({u},{v}) weight");
        }
        let req: Vec<usize> = (0..tree.len()).filter(|&v| required[v]).collect();
        for &u in &req {
            for &v in &req {
                let path = sp.find_path(u, v).unwrap();
                assert_eq!(*path.first().unwrap(), u);
                assert_eq!(*path.last().unwrap(), v);
                assert!(
                    path.len() - 1 <= k,
                    "hops {} > k {} for ({u},{v}); path {path:?}",
                    path.len() - 1,
                    k
                );
                let mut weight = 0.0;
                for win in path.windows(2) {
                    let key = (win[0].min(win[1]), win[0].max(win[1]));
                    let w = edge_w
                        .get(&key)
                        .unwrap_or_else(|| panic!("missing edge {key:?} on path {path:?}"));
                    weight += w;
                }
                let want = tree.distance_with(&lca, u, v);
                assert!(
                    (weight - want).abs() < 1e-6 * want.max(1.0),
                    "stretch > 1 for ({u},{v}): got {weight}, want {want}"
                );
            }
        }
    }

    fn all_required(tree: &RootedTree, k: usize) {
        verify_spanner(tree, &vec![true; tree.len()], k);
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_tree(n: usize, seed: u64) -> RootedTree {
        let mut s = seed;
        let edges: Vec<_> = (1..n)
            .map(|v| {
                let p = (xorshift(&mut s) as usize) % v;
                let w = 1.0 + (xorshift(&mut s) % 100) as f64 / 10.0;
                (p, v, w)
            })
            .collect();
        RootedTree::from_edges(n, 0, &edges).unwrap()
    }

    fn path_tree(n: usize) -> RootedTree {
        let edges: Vec<_> = (1..n).map(|v| (v - 1, v, 1.0 + (v % 4) as f64)).collect();
        RootedTree::from_edges(n, 0, &edges).unwrap()
    }

    #[test]
    fn rejects_small_k() {
        let t = path_tree(4);
        assert!(matches!(
            TreeHopSpanner::new(&t, 1),
            Err(TreeSpannerError::InvalidK { .. })
        ));
    }

    #[test]
    fn rejects_no_required() {
        let t = path_tree(4);
        assert!(matches!(
            TreeHopSpanner::with_required(&t, &[false; 4], 2),
            Err(TreeSpannerError::NoRequiredVertices)
        ));
        assert!(matches!(
            TreeHopSpanner::with_required(&t, &[true; 3], 2),
            Err(TreeSpannerError::RequiredLenMismatch)
        ));
    }

    #[test]
    fn rejects_steiner_query() {
        let t = path_tree(4);
        let sp = TreeHopSpanner::with_required(&t, &[true, false, false, true], 2).unwrap();
        assert!(matches!(
            sp.find_path(0, 1),
            Err(TreeSpannerError::NotRequired { vertex: 1 })
        ));
        assert!(matches!(
            sp.find_path(9, 0),
            Err(TreeSpannerError::NotRequired { vertex: 9 })
        ));
    }

    #[test]
    fn singleton_and_tiny() {
        for k in 2..=5 {
            all_required(&RootedTree::from_edges(1, 0, &[]).unwrap(), k);
            all_required(&RootedTree::from_edges(2, 0, &[(0, 1, 3.0)]).unwrap(), k);
            all_required(&path_tree(3), k);
        }
    }

    #[test]
    fn paths_k2() {
        for n in [4, 9, 17, 33, 64] {
            all_required(&path_tree(n), 2);
        }
    }

    #[test]
    fn paths_k3() {
        for n in [5, 10, 30, 64] {
            all_required(&path_tree(n), 3);
        }
    }

    #[test]
    fn paths_k4_k5_k6() {
        for k in [4, 5, 6] {
            for n in [10, 31, 64, 100] {
                all_required(&path_tree(n), k);
            }
        }
    }

    #[test]
    fn stars() {
        for k in 2..=5 {
            let n = 20;
            let edges: Vec<_> = (1..n).map(|v| (0, v, v as f64)).collect();
            all_required(&RootedTree::from_edges(n, 0, &edges).unwrap(), k);
        }
    }

    #[test]
    fn caterpillars() {
        // Spine with leaves: exercises branching + base cases.
        let mut edges = Vec::new();
        for i in 1..12 {
            edges.push((i - 1, i, 2.0));
        }
        for i in 0..12 {
            edges.push((i, 12 + i, 1.0));
        }
        let t = RootedTree::from_edges(24, 0, &edges).unwrap();
        for k in 2..=6 {
            all_required(&t, k);
        }
    }

    #[test]
    fn balanced_binary() {
        for k in 2..=6 {
            let n = 63;
            let edges: Vec<_> = (1..n).map(|v| ((v - 1) / 2, v, 1.0)).collect();
            all_required(&RootedTree::from_edges(n, 0, &edges).unwrap(), k);
        }
    }

    #[test]
    fn random_trees_many_k() {
        for k in 2..=7 {
            for (i, n) in [13, 40, 77].into_iter().enumerate() {
                all_required(&random_tree(n, 0x5EED + i as u64 * 31 + k as u64), k);
            }
        }
    }

    #[test]
    fn steiner_required_subsets() {
        let mut seed = 0xFACE;
        for k in 2..=5 {
            for n in [10usize, 25, 50] {
                let t = random_tree(n, 0xBEEF + n as u64 + k as u64);
                let required: Vec<bool> = (0..n)
                    .map(|_| !xorshift(&mut seed).is_multiple_of(3))
                    .collect();
                if required.iter().any(|&r| r) {
                    verify_spanner(&t, &required, k);
                }
            }
        }
    }

    #[test]
    fn size_bound_k2_is_n_log_n() {
        // For k = 2 the spanner has O(n log n) edges.
        for n in [64usize, 256, 1024] {
            let t = path_tree(n);
            let sp = TreeHopSpanner::new(&t, 2).unwrap();
            let bound = 2 * n * (usize::BITS - n.leading_zeros()) as usize;
            assert!(
                sp.edge_count() <= bound,
                "k=2 size {} > {bound} for n={n}",
                sp.edge_count()
            );
        }
    }

    #[test]
    fn size_bound_larger_k_much_smaller() {
        let n = 2048;
        let t = path_tree(n);
        let e2 = TreeHopSpanner::new(&t, 2).unwrap().edge_count();
        let e4 = TreeHopSpanner::new(&t, 4).unwrap().edge_count();
        let e6 = TreeHopSpanner::new(&t, 6).unwrap().edge_count();
        assert!(e4 < e2, "k=4 ({e4}) should be sparser than k=2 ({e2})");
        assert!(
            e6 <= e4 + n,
            "k=6 ({e6}) should not exceed k=4 ({e4}) by much"
        );
        // k=4 is O(n·log* n): allow a generous constant.
        assert!(e4 <= 8 * n, "k=4 size {e4} too large");
    }

    #[test]
    fn recursion_depth_is_small() {
        let n = 4096;
        let t = path_tree(n);
        let sp2 = TreeHopSpanner::new(&t, 2).unwrap();
        // α₂(4096) = 12; α'-based depth within a small factor.
        assert!(
            sp2.recursion_depth() <= 40,
            "depth {}",
            sp2.recursion_depth()
        );
        let sp4 = TreeHopSpanner::new(&t, 4).unwrap();
        assert!(
            sp4.recursion_depth() <= 12,
            "depth {}",
            sp4.recursion_depth()
        );
        assert!(sp4.recursion_node_count() > 0);
    }

    #[test]
    fn linear_size_mode() {
        let n = 4096;
        let t = path_tree(n);
        let sp = TreeHopSpanner::with_linear_size(&t).unwrap();
        // k = 2α(n)+2 is tiny and the size is truly linear-ish.
        assert!(sp.k() <= 10, "k = {}", sp.k());
        assert!(sp.edge_count() <= 4 * n, "edges {}", sp.edge_count());
        let path = sp.find_path(0, n - 1).unwrap();
        assert!(path.len() - 1 <= sp.k());
    }

    #[test]
    fn zero_weight_edges_are_fine() {
        let t = RootedTree::from_edges(5, 0, &[(0, 1, 0.0), (1, 2, 1.0), (2, 3, 0.0), (3, 4, 2.0)])
            .unwrap();
        for k in 2..=4 {
            all_required(&t, k);
        }
    }

    #[test]
    fn validate_accepts_well_formed_spanners() {
        for k in 2..=5 {
            for n in [1usize, 2, 7, 40, 130] {
                let sp = TreeHopSpanner::new(&random_tree(n, 42 + n as u64), k).unwrap();
                sp.validate().unwrap_or_else(|e| panic!("n={n} k={k}: {e}"));
            }
        }
    }

    #[test]
    fn validate_detects_structural_corruption() {
        let fresh = || TreeHopSpanner::new(&random_tree(40, 9), 2).unwrap();
        let what = |sp: TreeHopSpanner| match sp.validate() {
            Err(TreeSpannerError::Corrupt { what }) => what,
            other => panic!("corruption went undetected: {other:?}"),
        };

        let mut sp = fresh();
        sp.base_nbr[0].0 = usize::MAX;
        assert_eq!(what(sp), "base adjacency neighbor out of range");

        let mut sp = fresh();
        sp.base_nbr[1].1 = f64::NAN;
        assert_eq!(what(sp), "base adjacency weight not finite non-negative");

        let mut sp = fresh();
        sp.base_off[3] = u32::MAX;
        // Which CSR invariant trips first depends on whether vertex 2 is
        // a base member; either way the corruption is caught.
        let w = what(sp);
        assert!(
            w.starts_with("CSR offsets") || w == "non-base vertex with a non-empty adjacency range",
            "unexpected finding: {w}"
        );

        let mut sp = fresh();
        sp.home_node[5] = NONE;
        assert_eq!(what(sp), "required vertex without a home");

        let mut sp = fresh();
        sp.home_slot[5] = u32::MAX;
        assert_eq!(what(sp), "home slot out of range");

        let mut sp = fresh();
        sp.edges[2].2 = f64::INFINITY;
        assert_eq!(what(sp), "edge weight not finite non-negative");

        let mut sp = fresh();
        sp.edges.swap(0, 1);
        assert_eq!(what(sp), "edges must be strictly sorted by (u, v)");
    }
}
