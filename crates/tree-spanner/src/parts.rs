//! Flat build-output *parts* of a [`TreeHopSpanner`]: every dense table
//! the query path reads, exposed as plain vectors with public fields so
//! a snapshot layer can persist them as contiguous little-endian arrays
//! and rebuild the spanner without re-running `PreprocessTree`.
//!
//! Derived structures (LCA / level-ancestor tables, children lists,
//! depths) are deliberately **not** part of the exchange format: they
//! are rebuilt deterministically from the parent-pointer trees on
//! load, which keeps the format minimal and makes "load then derive"
//! bit-identical to "build then derive".
//!
//! [`TreeHopSpanner::from_parts`] distrusts its input completely: the
//! trees are revalidated by [`RootedTree::from_parents`], every index
//! table is bounds-checked against the recursion hierarchy it points
//! into, and the reassembled spanner still runs the public
//! [`TreeHopSpanner::validate`] pass. Corruption is reported as
//! [`TreeSpannerError::Corrupt`], never a panic.

use hopspan_treealg::{Lca, LevelAncestor, RootedTree};

use crate::construct::{BaseTable, Contracted, Navigator, PhiNode};
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

impl TreeParts {
    fn of(tree: &RootedTree) -> Self {
        TreeParts {
            root: tree.root(),
            parent: (0..tree.len()).map(|v| tree.parent(v)).collect(),
            weight: (0..tree.len()).map(|v| tree.parent_weight(v)).collect(),
        }
    }

    fn build(&self, what: &'static str) -> Result<RootedTree, TreeSpannerError> {
        if self.weight.len() != self.parent.len() {
            return Err(TreeSpannerError::Corrupt { what });
        }
        RootedTree::from_parents(self.root, &self.parent, &self.weight)
            .map_err(|_| TreeSpannerError::Corrupt { what })
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
            phi: TreeParts::of(&nav.phi),
            comp_of_node: nav.comp_of_node.clone(),
            nodes: nav.nodes.iter().map(PhiNodeParts::of).collect(),
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
        let phi = self.phi.build("Φ parent pointers do not form a tree")?;
        let node_count = phi.len();
        if self.nodes.len() != node_count || self.comp_of_node.len() != node_count {
            return Err(corrupt("Φ table length mismatch"));
        }
        let mut nodes = Vec::with_capacity(node_count);
        for parts in &self.nodes {
            nodes.push(parts.build(self.k, n)?);
        }
        // Base nodes are `HandleBaseCase` leaves: a Φ child under one
        // would send queries into the k ≥ 3 arm with no contracted tree.
        for v in 0..node_count {
            if let Some(p) = phi.parent(v) {
                if nodes[p].is_base() {
                    return Err(corrupt("base node with Φ children"));
                }
                if let Some(ct) = nodes[p].contracted.as_ref() {
                    if self.comp_of_node[v] >= ct.rep_count {
                        return Err(corrupt("component index out of range"));
                    }
                }
            }
        }
        let phi_lca = Lca::new(&phi);
        let phi_la = LevelAncestor::new(&phi);
        Ok(Navigator {
            k: self.k,
            nodes,
            phi,
            phi_lca,
            phi_la,
            comp_of_node: self.comp_of_node.clone(),
        })
    }
}

impl PhiNodeParts {
    fn of(node: &PhiNode) -> Self {
        PhiNodeParts {
            inner: node.inner.clone(),
            base: node.base.as_ref().map(|b| BaseTableParts {
                m: b.m,
                offsets: b.offsets.clone(),
                verts: b.verts.clone(),
            }),
            contracted: node.contracted.as_ref().map(|c| ContractedParts {
                tree: TreeParts::of(&c.tree),
                rep_count: c.rep_count,
                cut_orig: c.cut_orig.clone(),
                cut_sub_home: c.cut_sub_home.clone(),
            }),
            sub: node.sub.as_deref().map(|s| Box::new(NavigatorParts::of(s))),
        }
    }

    fn build(&self, k: usize, n: usize) -> Result<PhiNode, TreeSpannerError> {
        let corrupt = |what: &'static str| TreeSpannerError::Corrupt { what };
        if self.inner.is_empty() {
            return Err(corrupt("Φ node without inner vertices"));
        }
        if self.inner.iter().any(|&v| v >= n) {
            return Err(corrupt("Φ inner vertex out of range"));
        }
        let base = match &self.base {
            None => None,
            Some(b) => {
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
                Some(BaseTable {
                    m: b.m,
                    offsets: b.offsets.clone(),
                    verts: b.verts.clone(),
                })
            }
        };
        // Non-base nodes: exactly the recursive structure their hop
        // budget implies — a contracted tree for k ≥ 3 and a boxed
        // (k-2)-sub-hierarchy for k ≥ 4.
        if base.is_none() {
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
        }
        let sub = match &self.sub {
            None => None,
            Some(s) => {
                if s.k + 2 != k {
                    return Err(corrupt("sub-navigator hop budget mismatch"));
                }
                Some(Box::new(s.build(n)?))
            }
        };
        let contracted = match &self.contracted {
            None => None,
            Some(c) => {
                let tree = c
                    .tree
                    .build("contracted parent pointers do not form a tree")?;
                if tree.len() != c.rep_count + c.cut_orig.len() {
                    return Err(corrupt("contracted tree size mismatch"));
                }
                if c.cut_orig != self.inner {
                    return Err(corrupt(
                        "contracted cut vertices must mirror the inner list",
                    ));
                }
                match &sub {
                    None => {
                        if !c.cut_sub_home.is_empty() {
                            return Err(corrupt("unexpected cut sub-home table"));
                        }
                    }
                    Some(s) => {
                        if c.cut_sub_home.len() != c.cut_orig.len() {
                            return Err(corrupt("cut sub-home table length mismatch"));
                        }
                        for (i, &(h, slot)) in c.cut_sub_home.iter().enumerate() {
                            let stored = s
                                .nodes
                                .get(h)
                                .and_then(|node| node.inner.get(slot as usize));
                            if stored != Some(&c.cut_orig[i]) {
                                return Err(corrupt("cut sub-home points at a different vertex"));
                            }
                        }
                    }
                }
                let lca = Lca::new(&tree);
                let la = LevelAncestor::new(&tree);
                Some(Box::new(Contracted {
                    tree,
                    lca,
                    la,
                    rep_count: c.rep_count,
                    cut_orig: c.cut_orig.clone(),
                    cut_sub_home: c.cut_sub_home.clone(),
                }))
            }
        };
        Ok(PhiNode {
            inner: self.inner.clone(),
            base,
            contracted,
            sub,
        })
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
            home_node: self.home_node.clone(),
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
    /// originally built spanner.
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
        let spanner = TreeHopSpanner {
            k: parts.k,
            n: parts.n,
            required: parts.required,
            edges: parts.edges,
            nav,
            home_node: parts.home_node,
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

        // Per-vertex table corruption is caught by the final validate().
        let mut p = fresh();
        p.home_slot[5] = u32::MAX;
        assert_eq!(
            what(TreeHopSpanner::from_parts(p)),
            "home slot out of range"
        );
    }
}
