//! Internal working representation for the recursive spanner construction.
//!
//! Each recursive call of `PreprocessTree` (Algorithm 1) operates on a
//! [`LocalTree`]: a rooted, edge-weighted subtree whose vertices are local
//! indices carrying their original vertex id, plus a required/Steiner flag
//! per vertex. The module implements the paper's two primitives:
//!
//! * [`LocalTree::prune`] — the `Prune` procedure: drop Steiner-only
//!   subtrees and splice out unary Steiner vertices, keeping at most
//!   `|R| - 1` (branching) Steiner vertices while preserving distances;
//! * [`LocalTree::decompose`] — the `Decompose` procedure: a greedy
//!   post-order cut selection such that every remaining component has at
//!   most `ℓ` required vertices and `|CV| ≤ ⌊n/(ℓ+1)⌋` (Lemma 3.1).

#[derive(Debug, Clone, Default)]
pub(crate) struct LocalTree {
    /// Local index -> original vertex id.
    pub orig: Vec<usize>,
    /// Local parent pointers (`None` for the root).
    pub parent: Vec<Option<usize>>,
    /// Weight of the edge to the parent (0.0 for the root).
    pub weight: Vec<f64>,
    /// Required flag per local vertex.
    pub required: Vec<bool>,
    /// Local root index.
    pub root: usize,
}

/// The child lists and a parents-first order of one [`LocalTree`],
/// computed once per recursive call and shared by every primitive.
#[derive(Debug)]
pub(crate) struct Shape {
    /// CSR offsets into [`Shape::child`] (`len + 1` entries).
    off: Vec<usize>,
    /// Children of each vertex, ascending by local index.
    child: Vec<usize>,
    /// Vertices in an order where parents precede children: a preorder
    /// that visits the children of a vertex from the last to the first.
    pub order: Vec<usize>,
}

impl Shape {
    /// The children of `v`, ascending by local index.
    #[inline]
    pub(crate) fn children(&self, v: usize) -> &[usize] {
        &self.child[self.off[v]..self.off[v + 1]]
    }
}

/// The order in which `Prune` numbers the kept children of a vertex.
#[derive(Clone, Copy)]
enum ChildOrder {
    /// Ascending local index: pruning a whole tree.
    Ascending,
    /// Descending local index: pruning one component in place, which
    /// numbers vertices as pruning the component on its own would (a
    /// component lists its vertices in [`Shape::order`], where a later
    /// child comes first).
    Descending,
}

/// Per-vertex counts that let `Prune` run on every subtree bounded by
/// blocked vertices, computed for all of them in one pass: the required
/// vertices below each vertex, and how many vertices `Prune` keeps there.
struct PruneCounts {
    /// Required vertices in the (blocked-bounded) subtree of each vertex.
    req: Vec<usize>,
    /// Vertices the pruned subtree keeps: required or branching ones.
    kept: Vec<usize>,
}

/// DFS stack entry of `Prune`: vertex, new parent id, contracted weight.
pub(crate) type PruneFrame = (usize, Option<usize>, f64);

impl LocalTree {
    pub(crate) fn len(&self) -> usize {
        self.orig.len()
    }

    pub(crate) fn required_count(&self) -> usize {
        self.required.iter().filter(|&&r| r).count()
    }

    /// Empties the tree and makes room for `n` vertices.
    fn clear(&mut self, n: usize) {
        self.orig.clear();
        self.parent.clear();
        self.weight.clear();
        self.required.clear();
        self.orig.reserve(n);
        self.parent.reserve(n);
        self.weight.reserve(n);
        self.required.reserve(n);
        self.root = 0;
    }

    fn push(&mut self, orig: usize, parent: Option<usize>, weight: f64, required: bool) -> usize {
        self.orig.push(orig);
        self.parent.push(parent);
        self.weight.push(weight);
        self.required.push(required);
        self.orig.len() - 1
    }

    /// The children of `root` in ascending local index, without building
    /// a [`Shape`].
    pub(crate) fn root_children(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(|&v| self.parent[v] == Some(self.root))
    }

    /// The child lists and the parents-first vertex order.
    pub(crate) fn shape(&self) -> Shape {
        let n = self.len();
        // Counts land two slots up, so after the prefix sums `off[p + 1]`
        // is p's first child slot; filling advances it to p's end, which
        // leaves `off[..=n]` as the finished offsets.
        let mut off = vec![0usize; n + 2];
        for &p in self.parent.iter().flatten() {
            off[p + 2] += 1;
        }
        for v in 2..n + 2 {
            off[v] += off[v - 1];
        }
        let mut child = vec![0usize; off[n + 1]];
        for (v, &p) in self.parent.iter().enumerate() {
            if let Some(p) = p {
                child[off[p + 1]] = v;
                off[p + 1] += 1;
            }
        }
        off.truncate(n + 1);
        let mut shape = Shape {
            off,
            child,
            order: Vec::with_capacity(n),
        };
        let mut stack = vec![self.root];
        while let Some(v) = stack.pop() {
            shape.order.push(v);
            stack.extend_from_slice(shape.children(v));
        }
        shape
    }

    /// The `Prune` procedure over the whole tree with `required` as the
    /// required mask: returns the distance-preserving tree over the
    /// required vertices plus the necessary (branching) Steiner
    /// vertices, or `None` when no vertex is required.
    pub(crate) fn prune(&self, shape: &Shape, required: &[bool]) -> Option<LocalTree> {
        let unblocked = vec![false; self.len()];
        let counts = self.prune_counts(shape, &unblocked, required);
        let mut out = LocalTree::default();
        self.prune_at(
            shape,
            &counts,
            self.root,
            &unblocked,
            required,
            ChildOrder::Ascending,
            &mut out,
            &mut Vec::new(),
        )
        .then_some(out)
    }

    /// The [`PruneCounts`] of every subtree bounded by `blocked`.
    fn prune_counts(&self, shape: &Shape, blocked: &[bool], required: &[bool]) -> PruneCounts {
        let n = self.len();
        let mut counts = PruneCounts {
            req: vec![0; n],
            kept: vec![0; n],
        };
        for &v in shape.order.iter().rev() {
            if blocked[v] {
                continue;
            }
            let mut req = usize::from(required[v]);
            let mut kept = 0;
            let mut kept_children = 0;
            for &c in shape.children(v) {
                if !blocked[c] && counts.req[c] > 0 {
                    req += counts.req[c];
                    kept += counts.kept[c];
                    kept_children += 1;
                }
            }
            if req > 0 && (required[v] || kept_children >= 2) {
                kept += 1;
            }
            counts.req[v] = req;
            counts.kept[v] = kept;
        }
        counts
    }

    /// `Prune` of the subtree of `root` without the `blocked` vertices
    /// and what hangs below them, written into `out` (cleared first);
    /// returns `false`, leaving `out` empty, when it has no required
    /// vertex.
    #[allow(clippy::too_many_arguments)]
    fn prune_at(
        &self,
        shape: &Shape,
        counts: &PruneCounts,
        root: usize,
        blocked: &[bool],
        required: &[bool],
        child_order: ChildOrder,
        out: &mut LocalTree,
        stack: &mut Vec<PruneFrame>,
    ) -> bool {
        out.clear(counts.kept[root]);
        if counts.req[root] == 0 {
            return false;
        }
        let kept = |v: usize| !blocked[v] && counts.req[v] > 0;
        // The kept child of a vertex with exactly one.
        let sole_kept_child = |v: usize| -> Option<usize> {
            let mut kc = shape.children(v).iter().copied().filter(|&c| kept(c));
            let first = kc.next()?;
            kc.next().is_none().then_some(first)
        };
        // Descend the root past unary Steiner vertices.
        let mut new_root = root;
        while !required[new_root] {
            match sole_kept_child(new_root) {
                Some(c) => new_root = c,
                None => break,
            }
        }
        // DFS from the new root, splicing out unary Steiner chains.
        stack.clear();
        stack.push((new_root, None, 0.0));
        while let Some((v, new_parent, w)) = stack.pop() {
            let id = out.push(self.orig[v], new_parent, w, required[v]);
            let children = shape.children(v);
            let mut push_child = |c0: usize| {
                if !kept(c0) {
                    return;
                }
                // Slide down the unary Steiner chain starting at c0 (a
                // kept Steiner vertex always has a kept child).
                let mut c = c0;
                let mut cw = self.weight[c];
                while !required[c] {
                    match sole_kept_child(c) {
                        Some(nxt) => {
                            cw += self.weight[nxt];
                            c = nxt;
                        }
                        None => break,
                    }
                }
                stack.push((c, Some(id), cw));
            };
            match child_order {
                ChildOrder::Ascending => children.iter().for_each(|&c| push_child(c)),
                ChildOrder::Descending => children.iter().rev().for_each(|&c| push_child(c)),
            }
        }
        debug_assert_eq!(out.len(), counts.kept[root]);
        true
    }

    /// The `Decompose` procedure: returns local indices of cut vertices
    /// such that every component of the tree minus the cut vertices has at
    /// most `ell` required vertices.
    pub(crate) fn decompose(&self, shape: &Shape, ell: usize) -> Vec<usize> {
        let mut residual = vec![0usize; self.len()];
        let mut cuts = Vec::new();
        for &v in shape.order.iter().rev() {
            let mut r = usize::from(self.required[v]);
            for &c in shape.children(v) {
                r += residual[c];
            }
            if r > ell {
                cuts.push(v);
                residual[v] = 0;
            } else {
                residual[v] = r;
            }
        }
        cuts
    }

    /// Splits the tree minus the cut vertices into connected components,
    /// numbered in the order their roots appear in `shape.order`.
    pub(crate) fn components<'a>(&'a self, shape: &'a Shape, is_cut: &'a [bool]) -> Components<'a> {
        let mut comp_id = vec![usize::MAX; self.len()];
        let mut roots = Vec::new();
        for &v in &shape.order {
            if is_cut[v] {
                continue;
            }
            comp_id[v] = match self.parent[v].filter(|&p| !is_cut[p]) {
                Some(p) => comp_id[p],
                None => {
                    roots.push(v);
                    roots.len() - 1
                }
            };
        }
        Components {
            tree: self,
            shape,
            is_cut,
            counts: self.prune_counts(shape, is_cut, &self.required),
            comp_id,
            roots,
        }
    }
}

/// The components of a [`LocalTree`] minus its cut vertices, each
/// pruned on demand.
pub(crate) struct Components<'a> {
    tree: &'a LocalTree,
    shape: &'a Shape,
    is_cut: &'a [bool],
    counts: PruneCounts,
    /// Component id per vertex; `usize::MAX` for cut vertices.
    pub comp_id: Vec<usize>,
    /// The root of each component.
    pub roots: Vec<usize>,
}

impl Components<'_> {
    /// The number of required vertices of component `i`.
    pub(crate) fn required(&self, i: usize) -> usize {
        self.counts.req[self.roots[i]]
    }

    /// `Prune` of component `i`, written into `out` (cleared first): the
    /// same tree, numbered the same way, as pruning the component on its
    /// own with its vertices numbered in `shape.order`. Returns `false`,
    /// leaving `out` empty, for a component without required vertices.
    pub(crate) fn prune_into(
        &self,
        i: usize,
        out: &mut LocalTree,
        stack: &mut Vec<PruneFrame>,
    ) -> bool {
        self.tree.prune_at(
            self.shape,
            &self.counts,
            self.roots[i],
            self.is_cut,
            &self.tree.required,
            ChildOrder::Descending,
            out,
            stack,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tree where vertices 0..n have parent (v-1)/2 (heap shape).
    fn heap_tree(n: usize, required: Vec<bool>) -> LocalTree {
        LocalTree {
            orig: (0..n).collect(),
            parent: (0..n)
                .map(|v| if v == 0 { None } else { Some((v - 1) / 2) })
                .collect(),
            weight: (0..n).map(|v| if v == 0 { 0.0 } else { 1.0 }).collect(),
            required,
            root: 0,
        }
    }

    fn pruned(t: &LocalTree) -> Option<LocalTree> {
        t.prune(&t.shape(), &t.required)
    }

    /// Every component, pruned; all of them must hold a required vertex.
    fn pruned_components(t: &LocalTree, shape: &Shape, is_cut: &[bool]) -> Vec<LocalTree> {
        let comps = t.components(shape, is_cut);
        (0..comps.roots.len())
            .map(|i| {
                let mut out = LocalTree::default();
                assert!(comps.prune_into(i, &mut out, &mut Vec::new()));
                out
            })
            .collect()
    }

    fn cut_mask(n: usize, cuts: &[usize]) -> Vec<bool> {
        let mut mask = vec![false; n];
        for &c in cuts {
            mask[c] = true;
        }
        mask
    }

    #[test]
    fn prune_keeps_everything_when_all_required() {
        let t = heap_tree(7, vec![true; 7]);
        let p = pruned(&t).unwrap();
        assert_eq!(p.len(), 7);
        assert_eq!(p.required_count(), 7);
    }

    #[test]
    fn prune_contracts_steiner_chain() {
        // Path 0-1-2-3-4 with only endpoints required.
        let t = LocalTree {
            orig: vec![0, 1, 2, 3, 4],
            parent: vec![None, Some(0), Some(1), Some(2), Some(3)],
            weight: vec![0.0, 1.0, 2.0, 3.0, 4.0],
            required: vec![true, false, false, false, true],
            root: 0,
        };
        let p = pruned(&t).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.required_count(), 2);
        // Contracted edge weight preserves distance 1+2+3+4 = 10.
        assert_eq!(p.weight.iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn prune_descends_root_and_keeps_branching_steiner() {
        // Root 0 (Steiner) - 1 (Steiner, branching) - {2, 3} required.
        let t = LocalTree {
            orig: vec![0, 1, 2, 3],
            parent: vec![None, Some(0), Some(1), Some(1)],
            weight: vec![0.0, 5.0, 1.0, 2.0],
            required: vec![false, false, true, true],
            root: 0,
        };
        let p = pruned(&t).unwrap();
        assert_eq!(p.len(), 3); // Steiner branching vertex 1 + two leaves.
        assert_eq!(p.orig[p.root], 1);
        assert!(!p.required[p.root]);
    }

    #[test]
    fn prune_drops_steiner_only_subtrees() {
        // 0 required, child 1 required, child 2 Steiner leaf.
        let t = LocalTree {
            orig: vec![0, 1, 2],
            parent: vec![None, Some(0), Some(0)],
            weight: vec![0.0, 1.0, 7.0],
            required: vec![true, true, false],
            root: 0,
        };
        let p = pruned(&t).unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn prune_empty_when_no_required() {
        let t = heap_tree(3, vec![false; 3]);
        assert!(pruned(&t).is_none());
    }

    #[test]
    fn prune_steiner_bound() {
        // Random-ish tree, half required: Steiner count < required count.
        let n = 33;
        let required: Vec<bool> = (0..n).map(|v| v % 2 == 0).collect();
        let t = heap_tree(n, required);
        let p = pruned(&t).unwrap();
        let req = p.required_count();
        let steiner = p.len() - req;
        assert!(steiner <= req.saturating_sub(1), "{steiner} vs {req}");
        // Every Steiner vertex branches (except possibly none).
        let shape = p.shape();
        for v in 0..p.len() {
            if !p.required[v] {
                assert!(
                    shape.children(v).len() >= 2,
                    "unary Steiner vertex survived"
                );
            }
        }
    }

    #[test]
    fn decompose_bounds_components() {
        for n in [8usize, 15, 31, 64] {
            let t = heap_tree(n, vec![true; n]);
            let shape = t.shape();
            for ell in 1..8 {
                let cuts = t.decompose(&shape, ell);
                assert!(cuts.len() <= n / (ell + 1), "too many cuts");
                let mask = cut_mask(n, &cuts);
                let comps = pruned_components(&t, &shape, &mask);
                for c in &comps {
                    assert!(c.required_count() <= ell, "component too big");
                }
                // All vertices accounted for.
                let total: usize = comps.iter().map(|c| c.len()).sum();
                assert_eq!(total + cuts.len(), n);
            }
        }
    }

    #[test]
    fn decompose_single_cut_for_large_ell() {
        let n = 15;
        let t = heap_tree(n, vec![true; n]);
        let ell = n.div_ceil(2); // ⌈n/2⌉ as for k = 2.
        let cuts = t.decompose(&t.shape(), ell);
        assert_eq!(cuts.len(), 1);
    }

    #[test]
    fn components_preserve_structure() {
        let t = heap_tree(7, vec![true; 7]);
        let (shape, mask) = (t.shape(), cut_mask(7, &[0]));
        assert_eq!(t.components(&shape, &mask).comp_id[0], usize::MAX);
        let comps = pruned_components(&t, &shape, &mask);
        assert_eq!(comps.len(), 2);
        for c in &comps {
            assert_eq!(c.len(), 3);
            assert_eq!(c.parent[c.root], None);
        }
    }
}
