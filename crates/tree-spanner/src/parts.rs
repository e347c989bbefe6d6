//! Flat build-output *parts* of a [`TreeHopSpanner`]: every dense table
//! the query path reads, exposed as plain vectors with public fields so
//! a snapshot layer can persist them as contiguous little-endian arrays
//! and rebuild the spanner without re-running `PreprocessTree`.
//!
//! The parts are an exchange format, not the in-memory layout. In
//! memory, Φ and every contracted tree exist only as their LCA and
//! level-ancestor structures, Φ nodes are `u32` offsets into
//! per-navigator arenas, and vertex ids are `u32` words (see
//! `construct`). [`TreeHopSpanner::to_parts`] widens them back:
//!
//! * Φ and the contracted trees are emitted as [`TreeParts`] read off
//!   the level-ancestor structure (root, parents from its first jump
//!   row, weight 1 on every edge and 0 at the root, as the build made
//!   them);
//! * each contracted tree's `cut_orig` is its node's inner list, which
//!   the query reads as the cut slot -> original id table;
//! * `u32` sentinels become `usize::MAX`, and each base table's offsets
//!   restart at 0.
//!
//! On load the LCA and level-ancestor structures are rebuilt from the
//! parent pointers through a temporary [`RootedTree`], which is then
//! dropped, and the arenas are refilled in node order. So "load then
//! derive" is bit-identical to "build then derive", and load then
//! [`TreeHopSpanner::to_parts`] is the identity.
//!
//! [`TreeHopSpanner::from_parts`] distrusts its input completely: the
//! trees are revalidated by [`RootedTree::from_parents`], every weight
//! must be the unit weight the build emits, every index table is
//! bounds-checked against the recursion hierarchy it points into and
//! must fit its `u32` table, and the reassembled spanner still runs the
//! public [`TreeHopSpanner::validate`] pass. Corruption is reported as
//! [`TreeSpannerError::Corrupt`], never a panic.

use hopspan_treealg::{Lca, LevelAncestor, RootedTree};

use crate::construct::{preprocess, Contracted, Navigator, PhiNode, Sub, NONE};
use crate::{TreeHopSpanner, TreeSpannerError};

/// A rooted tree reduced to parent pointers — the minimal exchange form
/// of [`RootedTree`] (children lists and depths are derived on rebuild).
#[derive(Debug, Clone, PartialEq)]
pub struct TreeParts {
    /// Root vertex id.
    pub root: usize,
    /// Parent of each vertex (`None` exactly for the root).
    pub parent: Vec<Option<usize>>,
    /// Weight of the edge to the parent (ignored for the root).
    pub weight: Vec<f64>,
}

/// The weight the build gives vertex `v`'s parent edge in a unit tree
/// (Φ or a contracted tree): 1, and 0 for the root.
fn unit_weight(parent: Option<usize>) -> f64 {
    if parent.is_some() {
        1.0
    } else {
        0.0
    }
}

impl TreeParts {
    /// The unit-weight tree whose parents `la` answers.
    fn of_unit(la: &LevelAncestor) -> Self {
        let parent: Vec<Option<usize>> = (0..la.len()).map(|v| la.parent(v)).collect();
        TreeParts {
            root: la.level_ancestor(0, 0),
            weight: parent.iter().map(|&p| unit_weight(p)).collect(),
            parent,
        }
    }

    /// Rebuilds a unit-weight tree's LCA and level-ancestor structures.
    /// `shape` names a parent-pointer failure, `weights` a weight other
    /// than the one [`TreeParts::of_unit`] emits.
    fn unit_tree(
        &self,
        shape: &'static str,
        weights: &'static str,
    ) -> Result<(Lca, LevelAncestor), TreeSpannerError> {
        if self.weight.len() != self.parent.len() {
            return Err(TreeSpannerError::Corrupt { what: shape });
        }
        let tree = RootedTree::from_parents(self.root, &self.parent, &self.weight)
            .map_err(|_| TreeSpannerError::Corrupt { what: shape })?;
        let unit = self
            .parent
            .iter()
            .zip(&self.weight)
            .all(|(&p, w)| w.to_bits() == unit_weight(p).to_bits());
        if !unit {
            return Err(TreeSpannerError::Corrupt { what: weights });
        }
        Ok(preprocess(&tree))
    }
}

/// Narrows an exchange-form index to its `u32` table word, mapping the
/// `usize::MAX` sentinel to [`NONE`]; `what` names an index that fits
/// neither.
fn narrow_sentinel(x: usize, what: &'static str) -> Result<u32, TreeSpannerError> {
    if x == usize::MAX {
        return Ok(NONE);
    }
    narrow(x, what)
}

/// Narrows an exchange-form index to a `u32` table word below [`NONE`].
fn narrow(x: usize, what: &'static str) -> Result<u32, TreeSpannerError> {
    u32::try_from(x)
        .ok()
        .filter(|&w| w != NONE)
        .ok_or(TreeSpannerError::Corrupt { what })
}

/// Widens a `u32` table word, mapping [`NONE`] to `usize::MAX`.
fn widen(x: u32) -> usize {
    if x == NONE {
        usize::MAX
    } else {
        x as usize
    }
}

/// Flat form of a base case's precomputed all-pairs path table.
#[derive(Debug, Clone, PartialEq)]
pub struct BaseTableParts {
    /// Number of required members of the owning Φ node.
    pub m: usize,
    /// `m² + 1` offsets into [`BaseTableParts::verts`].
    pub offsets: Vec<u32>,
    /// Concatenated paths (original vertex ids).
    pub verts: Vec<usize>,
}

/// Flat form of a contracted tree 𝒯_β (`k ≥ 3` non-base Φ nodes).
#[derive(Debug, Clone, PartialEq)]
pub struct ContractedParts {
    /// The quotient tree (unit weights).
    pub tree: TreeParts,
    /// Number of component representatives; contracted ids at or above
    /// this are cut vertices.
    pub rep_count: usize,
    /// Cut slot -> original vertex id (mirrors the owner's `inner`).
    pub cut_orig: Vec<usize>,
    /// Cut slot -> home pointer inside the sub-navigator (`k ≥ 4` only).
    pub cut_sub_home: Vec<(usize, u32)>,
}

/// Flat form of one Φ node.
#[derive(Debug, Clone, PartialEq)]
pub struct PhiNodeParts {
    /// Inner vertices (original ids).
    pub inner: Vec<usize>,
    /// All-pairs path table (`HandleBaseCase` leaves only).
    pub base: Option<BaseTableParts>,
    /// Contracted tree (`k ≥ 3`, non-base nodes).
    pub contracted: Option<ContractedParts>,
    /// Sub-navigator for the `(k-2)`-construction (`k ≥ 4`, non-base).
    pub sub: Option<Box<NavigatorParts>>,
}

/// Flat form of one same-`k` recursion hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct NavigatorParts {
    /// Hop budget of this construction level.
    pub k: usize,
    /// The augmented recursion tree Φ (unit weights).
    pub phi: TreeParts,
    /// Φ node id -> component index within the parent's contracted
    /// tree; `usize::MAX` for the root.
    pub comp_of_node: Vec<usize>,
    /// Per-node tables, indexed by Φ node id.
    pub nodes: Vec<PhiNodeParts>,
}

/// The complete flat form of a [`TreeHopSpanner`]: everything needed to
/// reassemble it without re-running the construction.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannerParts {
    /// Hop-diameter parameter.
    pub k: usize,
    /// Number of vertices of the underlying tree.
    pub n: usize,
    /// Required (queryable) mask, length `n`.
    pub required: Vec<bool>,
    /// Spanner edges, strictly sorted by `(u, v)` with `u < v`.
    pub edges: Vec<(usize, usize, f64)>,
    /// Dense home table: vertex -> home Φ node (`usize::MAX` = none).
    pub home_node: Vec<usize>,
    /// Dense home slot: vertex -> index within its home node's `inner`.
    pub home_slot: Vec<u32>,
    /// CSR offsets into [`SpannerParts::base_nbr`] (`n + 1` entries).
    pub base_off: Vec<u32>,
    /// Concatenated base-case adjacency lists `(neighbor, weight)`.
    pub base_nbr: Vec<(usize, f64)>,
    /// Whether a vertex belongs to a base case.
    pub base_member: Vec<bool>,
    /// The top-level recursion hierarchy.
    pub nav: NavigatorParts,
}

impl NavigatorParts {
    fn of(nav: &Navigator) -> Self {
        NavigatorParts {
            k: nav.k,
            phi: TreeParts::of_unit(&nav.phi_la),
            comp_of_node: nav.comp_of_node.iter().map(|&c| widen(c)).collect(),
            nodes: nav
                .nodes
                .iter()
                .map(|&node| PhiNodeParts::of(nav, node))
                .collect(),
        }
    }

    /// Reassembles a [`Navigator`], validating every table against the
    /// rebuilt Φ tree. `n` is the vertex count of the underlying tree
    /// metric (all original ids must stay below it).
    fn build(&self, n: usize) -> Result<Navigator, TreeSpannerError> {
        let corrupt = |what: &'static str| TreeSpannerError::Corrupt { what };
        if self.k < 2 {
            return Err(corrupt("navigator hop budget below 2"));
        }
        let (phi_lca, phi_la) = self.phi.unit_tree(
            "Φ parent pointers do not form a tree",
            "Φ edge weights must be the unit weights the build emits",
        )?;
        let node_count = phi_la.len();
        if self.nodes.len() != node_count || self.comp_of_node.len() != node_count {
            return Err(corrupt("Φ table length mismatch"));
        }
        let mut nav = Navigator {
            k: self.k,
            nodes: Vec::with_capacity(node_count),
            inner: Vec::new(),
            base_off: vec![0],
            base_verts: Vec::new(),
            contracted: Vec::new(),
            phi_lca,
            phi_la,
            comp_of_node: Vec::with_capacity(node_count),
        };
        for parts in &self.nodes {
            let node = parts.build(self.k, n, &mut nav)?;
            nav.nodes.push(node);
        }
        // Base nodes are `HandleBaseCase` leaves: a Φ child under one
        // would send queries into the k ≥ 3 arm with no contracted tree.
        for v in 0..node_count {
            if let Some(p) = nav.phi_la.parent(v) {
                let parent = nav.nodes[p];
                if parent.is_base() {
                    return Err(corrupt("base node with Φ children"));
                }
                if let Some(ct) = nav.contracted.get(parent.contracted as usize) {
                    if self.comp_of_node[v] >= ct.rep_count as usize {
                        return Err(corrupt("component index out of range"));
                    }
                }
            }
        }
        for &c in &self.comp_of_node {
            let c = narrow_sentinel(c, "component index out of range")?;
            nav.comp_of_node.push(c);
        }
        nav.shrink_to_fit();
        Ok(nav)
    }
}

impl PhiNodeParts {
    fn of(nav: &Navigator, node: PhiNode) -> Self {
        let inner: Vec<usize> = nav.inner_of(node).iter().map(|&v| v as usize).collect();
        let base = node.is_base().then(|| {
            let m = node.len as usize;
            let at = node.base as usize;
            let cells = &nav.base_off[at..at + m * m + 1];
            let (start, end) = (cells[0], cells[m * m]);
            BaseTableParts {
                m,
                offsets: cells.iter().map(|&o| o - start).collect(),
                verts: nav.base_verts[start as usize..end as usize]
                    .iter()
                    .map(|&v| v as usize)
                    .collect(),
            }
        });
        let ct = nav.contracted.get(node.contracted as usize);
        let sub = ct.and_then(|c| c.sub.as_deref());
        PhiNodeParts {
            base,
            contracted: ct.map(|c| ContractedParts {
                tree: TreeParts::of_unit(&c.la),
                rep_count: c.rep_count as usize,
                cut_orig: inner.clone(),
                cut_sub_home: sub.map_or_else(Vec::new, |s| {
                    s.cut_home.iter().map(|&(h, s)| (h as usize, s)).collect()
                }),
            }),
            sub: sub.map(|s| Box::new(NavigatorParts::of(&s.nav))),
            inner,
        }
    }

    /// Validates this node against its navigator's hop budget `k` and
    /// the vertex count `n`, and appends its tables to `nav`'s arenas.
    fn build(&self, k: usize, n: usize, nav: &mut Navigator) -> Result<PhiNode, TreeSpannerError> {
        let corrupt = |what: &'static str| TreeSpannerError::Corrupt { what };
        if self.inner.is_empty() {
            return Err(corrupt("Φ node without inner vertices"));
        }
        if self.inner.iter().any(|&v| v >= n) {
            return Err(corrupt("Φ inner vertex out of range"));
        }
        let start = nav.inner.len();
        for &v in &self.inner {
            nav.inner.push(narrow(v, "Φ inner vertex out of range")?);
        }
        let mut node = PhiNode {
            inner: narrow(start, "Φ inner arena overflows u32")?,
            len: narrow(self.inner.len(), "Φ inner arena overflows u32")?,
            base: NONE,
            contracted: NONE,
        };
        if let Some(b) = &self.base {
            if self.contracted.is_some() || self.sub.is_some() {
                return Err(corrupt("base node with recursive structure"));
            }
            if b.m != self.inner.len() {
                return Err(corrupt("base table arity mismatch"));
            }
            let cells =
                b.m.checked_mul(b.m)
                    .and_then(|c| c.checked_add(1))
                    .ok_or(corrupt("base table arity overflow"))?;
            if b.offsets.len() != cells {
                return Err(corrupt("base table offset count mismatch"));
            }
            if b.offsets[0] != 0 || b.offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err(corrupt("base table offsets not monotonic"));
            }
            if b.offsets[cells - 1] as usize != b.verts.len() {
                return Err(corrupt(
                    "base table offsets must end at the path data length",
                ));
            }
            if b.verts.iter().any(|&v| v >= n) {
                return Err(corrupt("base table vertex out of range"));
            }
            // The arena's closing offset is this table's first cell.
            let at = nav.base_verts.len();
            node.base = narrow(nav.base_off.len() - 1, "base table arena overflows u32")?;
            for &o in &b.offsets[1..] {
                let end = narrow(at + o as usize, "base table arena overflows u32")?;
                nav.base_off.push(end);
            }
            for &v in &b.verts {
                nav.base_verts
                    .push(narrow(v, "base table vertex out of range")?);
            }
            return Ok(node);
        }
        // Non-base nodes: exactly the recursive structure their hop
        // budget implies — a contracted tree for k ≥ 3 and a boxed
        // (k-2)-sub-hierarchy for k ≥ 4.
        if k >= 3 && self.contracted.is_none() {
            return Err(corrupt("non-base node without a contracted tree"));
        }
        if k < 3 && self.contracted.is_some() {
            return Err(corrupt("unexpected contracted tree"));
        }
        if k >= 4 && self.sub.is_none() {
            return Err(corrupt("non-base node without a sub-navigator"));
        }
        if k < 4 && self.sub.is_some() {
            return Err(corrupt("unexpected sub-navigator"));
        }
        let sub = match &self.sub {
            None => None,
            Some(s) => {
                if s.k + 2 != k {
                    return Err(corrupt("sub-navigator hop budget mismatch"));
                }
                Some(s.build(n)?)
            }
        };
        let Some(c) = &self.contracted else {
            return Ok(node);
        };
        let (lca, la) = c.tree.unit_tree(
            "contracted parent pointers do not form a tree",
            "contracted edge weights must be the unit weights the build emits",
        )?;
        if c.rep_count.checked_add(c.cut_orig.len()) != Some(la.len()) {
            return Err(corrupt("contracted tree size mismatch"));
        }
        if c.cut_orig != self.inner {
            return Err(corrupt(
                "contracted cut vertices must mirror the inner list",
            ));
        }
        let sub = match sub {
            None => {
                if !c.cut_sub_home.is_empty() {
                    return Err(corrupt("unexpected cut sub-home table"));
                }
                None
            }
            Some(s) => {
                if c.cut_sub_home.len() != c.cut_orig.len() {
                    return Err(corrupt("cut sub-home table length mismatch"));
                }
                let mut cut_home = Vec::with_capacity(c.cut_sub_home.len());
                for (&(h, slot), &orig) in c.cut_sub_home.iter().zip(&c.cut_orig) {
                    let stored = s
                        .nodes
                        .get(h)
                        .and_then(|&nd| s.inner_of(nd).get(slot as usize));
                    if stored.map(|&v| v as usize) != Some(orig) {
                        return Err(corrupt("cut sub-home points at a different vertex"));
                    }
                    // h indexes the sub-navigator's u32-sized node table.
                    cut_home.push((h as u32, slot));
                }
                Some(Box::new(Sub { nav: s, cut_home }))
            }
        };
        node.contracted = narrow(nav.contracted.len(), "contracted arena overflows u32")?;
        nav.contracted.push(Contracted {
            lca,
            la,
            rep_count: narrow(c.rep_count, "contracted tree size mismatch")?,
            sub,
        });
        Ok(node)
    }
}

impl TreeHopSpanner {
    /// Extracts the flat serialization parts of this spanner: all dense
    /// query tables plus the recursion hierarchy as parent-pointer
    /// trees. The inverse of [`TreeHopSpanner::from_parts`].
    pub fn to_parts(&self) -> SpannerParts {
        SpannerParts {
            k: self.k,
            n: self.n,
            required: self.required.clone(),
            edges: self.edges.clone(),
            home_node: self.home_node.iter().map(|&h| widen(h)).collect(),
            home_slot: self.home_slot.clone(),
            base_off: self.base_off.clone(),
            base_nbr: self.base_nbr.clone(),
            base_member: self.base_member.clone(),
            nav: NavigatorParts::of(&self.nav),
        }
    }

    /// Reassembles a spanner from parts produced by
    /// [`TreeHopSpanner::to_parts`] (typically after a round trip
    /// through a snapshot file), revalidating everything: the trees are
    /// rebuilt through the checking [`RootedTree::from_parents`]
    /// constructor, all index tables are bounds-checked against the
    /// hierarchy, and the result must pass
    /// [`TreeHopSpanner::validate`]. LCA and level-ancestor structures
    /// are derived afresh, so the result is bit-identical to the
    /// originally built spanner. Every value must be one that
    /// [`TreeHopSpanner::to_parts`] can emit — a Φ or contracted edge
    /// weight other than 1 (0 at the root), or an index that does not
    /// fit the `u32` tables, is corruption — so `to_parts` of the result
    /// returns `parts` unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`TreeSpannerError::Corrupt`] naming the first violated
    /// invariant, [`TreeSpannerError::InvalidK`] for a hop budget below
    /// 2, or [`TreeSpannerError::NoRequiredVertices`] when the mask is
    /// all-false.
    pub fn from_parts(parts: SpannerParts) -> Result<Self, TreeSpannerError> {
        if parts.k < 2 {
            return Err(TreeSpannerError::InvalidK { k: parts.k });
        }
        if !parts.required.iter().any(|&r| r) {
            return Err(TreeSpannerError::NoRequiredVertices);
        }
        if parts.nav.k != parts.k {
            return Err(TreeSpannerError::Corrupt {
                what: "navigator hop budget mismatch",
            });
        }
        let nav = parts.nav.build(parts.n)?;
        let home_node = parts
            .home_node
            .iter()
            .map(|&h| narrow_sentinel(h, "home node out of range"))
            .collect::<Result<_, _>>()?;
        let spanner = TreeHopSpanner {
            k: parts.k,
            n: parts.n,
            required: parts.required,
            edges: parts.edges,
            nav,
            home_node,
            home_slot: parts.home_slot,
            base_off: parts.base_off,
            base_nbr: parts.base_nbr,
            base_member: parts.base_member,
        };
        spanner.validate()?;
        Ok(spanner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Round trip: parts -> spanner -> parts is the identity, and the
    /// reassembled spanner answers every query identically.
    #[test]
    fn parts_round_trip_is_identity() {
        for k in 2..=6 {
            for n in [1usize, 2, 9, 40, 90] {
                let tree = random_tree(n, 0xA11 + n as u64 * 7 + k as u64);
                let built = TreeHopSpanner::new(&tree, k).unwrap();
                let parts = built.to_parts();
                let loaded = TreeHopSpanner::from_parts(parts.clone())
                    .unwrap_or_else(|e| panic!("n={n} k={k}: {e}"));
                assert_eq!(loaded.to_parts(), parts, "n={n} k={k}");
                assert_eq!(loaded.edges(), built.edges());
                for u in 0..n {
                    for v in 0..n {
                        assert_eq!(
                            loaded.find_path(u, v).unwrap(),
                            built.find_path(u, v).unwrap(),
                            "n={n} k={k} pair ({u},{v})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn steiner_round_trip() {
        let tree = random_tree(40, 0xFEED);
        let required: Vec<bool> = (0..40).map(|v| v % 3 != 1).collect();
        let built = TreeHopSpanner::with_required(&tree, &required, 4).unwrap();
        let loaded = TreeHopSpanner::from_parts(built.to_parts()).unwrap();
        assert_eq!(loaded.to_parts(), built.to_parts());
        assert!(loaded.find_path(1, 0).is_err());
    }

    #[test]
    fn from_parts_rejects_corruption() {
        let what = |r: Result<TreeHopSpanner, TreeSpannerError>| match r {
            Err(TreeSpannerError::Corrupt { what }) => what,
            other => panic!("corruption went undetected: {other:?}"),
        };
        let fresh = || {
            TreeHopSpanner::new(&random_tree(60, 3), 4)
                .unwrap()
                .to_parts()
        };

        let mut p = fresh();
        p.nav.k = 5;
        assert_eq!(
            what(TreeHopSpanner::from_parts(p)),
            "navigator hop budget mismatch"
        );

        let mut p = fresh();
        p.nav.phi.parent[0] = Some(1); // two roots / cycle
        assert_eq!(
            what(TreeHopSpanner::from_parts(p)),
            "Φ parent pointers do not form a tree"
        );

        let mut p = fresh();
        p.nav.comp_of_node.pop();
        assert_eq!(
            what(TreeHopSpanner::from_parts(p)),
            "Φ table length mismatch"
        );

        let mut p = fresh();
        p.nav.nodes[0].inner[0] = usize::MAX;
        let w = what(TreeHopSpanner::from_parts(p));
        assert!(
            w == "Φ inner vertex out of range"
                || w == "contracted cut vertices must mirror the inner list",
            "unexpected finding: {w}"
        );

        let mut p = fresh();
        let base_id = p
            .nav
            .nodes
            .iter()
            .position(|nd| nd.base.is_some())
            .expect("k=4 at n=60 has base cases");
        p.nav.nodes[base_id].base.as_mut().unwrap().offsets[1] = u32::MAX;
        let w = what(TreeHopSpanner::from_parts(p));
        assert!(
            w.starts_with("base table offsets"),
            "unexpected finding: {w}"
        );

        let mut p = fresh();
        let ct_id = p
            .nav
            .nodes
            .iter()
            .position(|nd| nd.contracted.is_some())
            .expect("k=4 at n=60 recurses");
        p.nav.nodes[ct_id]
            .contracted
            .as_mut()
            .unwrap()
            .cut_orig
            .pop();
        let w = what(TreeHopSpanner::from_parts(p));
        assert!(
            w == "contracted tree size mismatch"
                || w == "contracted cut vertices must mirror the inner list",
            "unexpected finding: {w}"
        );

        // Φ and contracted trees are unit-weight trees: to_parts emits
        // weight 1 on every edge and 0 at the root, and any other value
        // (which the tables could not return) is corruption.
        let mut p = fresh();
        p.nav.phi.weight[1] = 2.0;
        assert_eq!(
            what(TreeHopSpanner::from_parts(p)),
            "Φ edge weights must be the unit weights the build emits"
        );
        let mut p = fresh();
        let root = p.nav.phi.root;
        p.nav.phi.weight[root] = -0.0;
        assert_eq!(
            what(TreeHopSpanner::from_parts(p)),
            "Φ edge weights must be the unit weights the build emits"
        );
        let mut p = fresh();
        p.nav.nodes[ct_id].contracted.as_mut().unwrap().tree.weight[0] = 0.5;
        assert_eq!(
            what(TreeHopSpanner::from_parts(p)),
            "contracted edge weights must be the unit weights the build emits"
        );

        // Indices must fit the u32 tables; usize::MAX is the only
        // sentinel.
        let mut p = fresh();
        p.nav.comp_of_node[1] = u32::MAX as usize;
        assert_eq!(
            what(TreeHopSpanner::from_parts(p)),
            "component index out of range"
        );
        let mut p = fresh();
        let v = (0..p.n).find(|&v| p.home_node[v] != usize::MAX).unwrap();
        p.home_node[v] = 1 << 40;
        assert_eq!(
            what(TreeHopSpanner::from_parts(p)),
            "home node out of range"
        );

        // Per-vertex table corruption is caught by the final validate().
        let mut p = fresh();
        p.home_slot[5] = u32::MAX;
        assert_eq!(
            what(TreeHopSpanner::from_parts(p)),
            "home slot out of range"
        );
    }
}
