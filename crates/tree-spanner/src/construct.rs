//! `PreprocessTree` (Algorithm 1): builds Solomon's 1-spanner of
//! hop-diameter `k` together with the augmented recursion tree Φ, the
//! contracted trees 𝒯_β, and the per-vertex navigation pointers.
//!
//! One [`Navigator`] owns one same-`k` recursion hierarchy over one tree;
//! for `k ≥ 4`, every non-base Φ node also owns a boxed sub-[`Navigator`]
//! for the `(k-2)`-construction over the pruned copy `T'` whose required
//! vertices are the cut vertices (paper line 10 of Algorithm 1).
//!
//! All query-time tables are dense `Vec`s indexed by contracted id, Φ
//! node id, or home slot — the `BTreeMap`s used during construction
//! never survive into the query path. Base-case paths are precomputed
//! here (all ordered pairs per `HandleBaseCase` leaf), so queries never
//! run the per-pair BFS + Bellman–Ford; see [`BaseTable`].

use std::collections::BTreeMap;

use hopspan_treealg::{Lca, LevelAncestor, RootedTree};

use crate::ackermann::alpha_prime;
use crate::local_tree::LocalTree;

/// A vertex's navigation pointer: its home Φ node and its slot within
/// that node's `inner` list (`u.ptr(Φ).h` in the paper, plus the dense
/// index replacing per-query map lookups).
pub(crate) type HomeRef = (usize, u32);

/// Build-time map from original vertex id to [`HomeRef`]; the public
/// wrapper densifies the top-level one, and `build_call` folds each
/// sub-navigator's map into its parent's [`Contracted::cut_sub_home`].
pub(crate) type HomeMap = BTreeMap<usize, HomeRef>;

/// Build-time base adjacency (original ids), kept only so the public
/// wrapper can expose a CSR view; queries use [`BaseTable`] instead.
pub(crate) type BaseAdj = BTreeMap<usize, Vec<(usize, f64)>>;

/// The contracted tree 𝒯_β of a non-base Φ node (`k ≥ 3` only): the
/// quotient of the call tree by its components, preprocessed for LCA/LA.
///
/// Contracted ids are laid out densely: `[0, rep_count)` are component
/// representatives (id = component index), `[rep_count, ..)` are cut
/// vertices (id = `rep_count` + slot in the owning node's `inner`).
#[derive(Debug)]
pub(crate) struct Contracted {
    /// The quotient tree itself (unit weights).
    pub tree: RootedTree,
    /// LCA structure over [`Contracted::tree`].
    pub lca: Lca,
    /// Level-ancestor structure over [`Contracted::tree`].
    pub la: LevelAncestor,
    /// Number of component representatives; every contracted id at or
    /// above this is a cut vertex.
    pub rep_count: usize,
    /// Cut slot -> original vertex id.
    pub cut_orig: Vec<usize>,
    /// Cut slot -> home pointer inside the sub-navigator (`k ≥ 4` only;
    /// empty for `k = 3`, which connects cut vertices by a clique).
    pub cut_sub_home: Vec<HomeRef>,
}

/// Precomputed base-case paths: for a `HandleBaseCase` leaf with `m`
/// required members, the min-weight (then min-hop) path for every
/// ordered member pair, flattened. The paths are produced at build time
/// by the exact BFS + lexicographic Bellman–Ford the queries used to
/// run, so lookups are bit-identical to the former per-query search.
#[derive(Debug)]
pub(crate) struct BaseTable {
    /// Number of required members (`inner.len()` of the owning node).
    pub m: usize,
    /// `m² + 1` offsets into [`BaseTable::verts`].
    pub offsets: Vec<u32>,
    /// Concatenated paths (original vertex ids).
    pub verts: Vec<usize>,
}

impl BaseTable {
    /// The path between member slots `su` and `sv`.
    #[inline]
    pub fn path(&self, su: u32, sv: u32) -> &[usize] {
        let cell = su as usize * self.m + sv as usize;
        &self.verts[self.offsets[cell] as usize..self.offsets[cell + 1] as usize]
    }
}

/// One node of the augmented recursion tree Φ.
#[derive(Debug)]
pub(crate) struct PhiNode {
    /// Inner vertices (original ids): the cut vertices of this call, or
    /// the required vertices of a base case.
    pub inner: Vec<usize>,
    /// All-pairs path table (`HandleBaseCase` leaves only).
    pub base: Option<BaseTable>,
    /// Contracted tree (`k ≥ 3`, non-base nodes), boxed: most Φ nodes
    /// are base-case leaves and should not reserve its inline size.
    pub contracted: Option<Box<Contracted>>,
    /// Sub-navigator for the `(k-2)`-construction (`k ≥ 4`, non-base).
    pub sub: Option<Box<Navigator>>,
}

// Every Φ node of every tree pays this size, and most are base-case
// leaves: keep the optional parts boxed.
const _: () = assert!(std::mem::size_of::<PhiNode>() <= 128);

impl PhiNode {
    /// Whether this node is a `HandleBaseCase` leaf.
    #[inline]
    pub fn is_base(&self) -> bool {
        self.base.is_some()
    }
}

/// A complete navigation structure for one same-`k` recursion hierarchy.
///
/// Homes are not stored here: the caller passes each endpoint's
/// [`HomeRef`] into the query (densified at the top level, read from
/// [`Contracted::cut_sub_home`] when recursing), so sub-navigators carry
/// no per-vertex tables at all.
#[derive(Debug)]
pub(crate) struct Navigator {
    /// Hop budget of this construction level.
    pub k: usize,
    /// Φ nodes, indexed by vertex id of [`Navigator::phi`].
    pub nodes: Vec<PhiNode>,
    /// The augmented recursion tree Φ (unit weights).
    pub phi: RootedTree,
    /// LCA structure over Φ.
    pub phi_lca: Lca,
    /// Level-ancestor structure over Φ.
    pub phi_la: LevelAncestor,
    /// Φ node id -> index of its component within the parent's
    /// contracted tree (= its representative's contracted id);
    /// `usize::MAX` for the root.
    pub comp_of_node: Vec<usize>,
}

#[derive(Default)]
struct Builder {
    parents: Vec<Option<usize>>,
    comp_of_node: Vec<usize>,
    nodes: Vec<PhiNode>,
    home: HomeMap,
    base_adj: BaseAdj,
}

impl Builder {
    fn new_node(&mut self, node: PhiNode) -> usize {
        self.parents.push(None);
        self.comp_of_node.push(usize::MAX);
        self.nodes.push(node);
        self.nodes.len() - 1
    }
}

/// Builds a navigator (and appends spanner edges) for `tree` with
/// hop-diameter `k ≥ 2`. Returns `None` when the tree has no required
/// vertices; otherwise also returns the home map over the required
/// vertices and the base-case adjacency (both build-time artifacts for
/// the caller to densify or fold into its own tables).
pub(crate) fn build_navigator(
    tree: LocalTree,
    k: usize,
    edges: &mut Vec<(usize, usize, f64)>,
) -> Option<(Navigator, HomeMap, BaseAdj)> {
    debug_assert!(k >= 2);
    let mut b = Builder::default();
    let root = build_call(&mut b, tree, k, edges)?;
    let n = b.nodes.len();
    let weights = vec![1.0; n];
    let phi = RootedTree::from_parents(root, &b.parents, &weights)
        // hopspan:allow(panic-in-lib) -- parents come from Builder::new_node, consistent by construction
        .expect("recursion tree parents are consistent");
    let phi_lca = Lca::new(&phi);
    let phi_la = LevelAncestor::new(&phi);
    Some((
        Navigator {
            k,
            nodes: b.nodes,
            phi,
            phi_lca,
            phi_la,
            comp_of_node: b.comp_of_node,
        },
        b.home,
        b.base_adj,
    ))
}

/// One recursive call of `PreprocessTree`. Returns the Φ node id for the
/// call, or `None` when the subtree has no required vertices.
fn build_call(
    b: &mut Builder,
    tree: LocalTree,
    k: usize,
    edges: &mut Vec<(usize, usize, f64)>,
) -> Option<usize> {
    let t = tree.prune()?;
    let n_req = t.required_count();
    if n_req <= k + 1 {
        return Some(handle_base_case(b, &t, k, edges));
    }
    // hopspan:allow(panic-in-lib) -- α'_{k-2}(n_req) ≤ n_req, which is already a usize
    let ell = usize::try_from(alpha_prime(k - 2, n_req as u128)).expect("ℓ fits usize");
    let cuts = t.decompose(ell);
    debug_assert!(!cuts.is_empty(), "n_req > ℓ forces at least one cut");
    let beta = b.new_node(PhiNode {
        inner: cuts.iter().map(|&c| t.orig[c]).collect(),
        base: None,
        contracted: None,
        sub: None,
    });
    for (i, &c) in cuts.iter().enumerate() {
        if t.required[c] {
            // hopspan:allow(panic-in-lib) -- |CV| ≤ n/2 < 2³² for any feasible input
            let slot = u32::try_from(i).expect("slot fits u32");
            b.home.insert(t.orig[c], (beta, slot));
        }
    }
    let mut is_cut = vec![false; t.len()];
    for &c in &cuts {
        is_cut[c] = true;
    }
    let children = t.children();

    // E'' (line 12): edges from every cut vertex to the required vertices
    // of its adjacent components, weighted by the exact tree distance. A
    // DFS from each cut vertex bounded by the other cut vertices visits
    // exactly the adjacent components.
    for &c in &cuts {
        for (v, d) in collect_adjacent(&t, &children, c, &is_cut) {
            if t.required[v] && !is_cut[v] {
                edges.push((t.orig[c], t.orig[v], d));
            }
        }
    }

    // E' (lines 6-10): interconnect the cut vertices.
    let mut sub = None;
    let mut sub_home = HomeMap::new();
    if k >= 3 {
        let mut t_cv = t.clone();
        t_cv.required.copy_from_slice(&is_cut);
        if k == 3 {
            // Clique over CV with exact distances, computed on the pruned
            // copy (O(|CV|·|T'|) = O(n) total).
            // hopspan:allow(panic-in-lib) -- decompose returned at least one cut above
            let t_cv = t_cv.prune().expect("cut set is non-empty");
            let ch = t_cv.children();
            let cut_locals: Vec<usize> = (0..t_cv.len()).filter(|&v| t_cv.required[v]).collect();
            let unblocked = vec![false; t_cv.len()];
            for &cl in &cut_locals {
                let d = collect_adjacent(&t_cv, &ch, cl, &unblocked);
                let dist: BTreeMap<usize, f64> = d.into_iter().collect();
                for &cl2 in &cut_locals {
                    if t_cv.orig[cl2] > t_cv.orig[cl] {
                        edges.push((t_cv.orig[cl], t_cv.orig[cl2], dist[&cl2]));
                    }
                }
            }
        } else {
            // Recursive (k-2)-construction over the pruned copy. The
            // sub-hierarchy's base adjacency is a build-time artifact
            // with no query-path consumer, so it is dropped here.
            if let Some((nav, homes, _)) = build_navigator(t_cv, k - 2, edges) {
                sub = Some(Box::new(nav));
                sub_home = homes;
            }
        }
    }

    // Components of T ∖ CV, recursed with the same k (line 14).
    let (comp_id, comps) = t.components(&cuts);
    let comp_count = comps.len();
    for (i, comp) in comps.into_iter().enumerate() {
        if let Some(child) = build_call(b, comp, k, edges) {
            b.parents[child] = Some(beta);
            b.comp_of_node[child] = i;
        }
    }

    // Contracted tree 𝒯_β (line 16, k ≥ 3): the quotient of T by its
    // components. Unlike the paper's prose we also keep cut–cut edges for
    // adjacent cut vertices, otherwise the quotient may be disconnected
    // (DESIGN.md §2).
    if k >= 3 {
        let p = comp_count;
        let mut cut_pos = BTreeMap::new();
        for (i, &c) in cuts.iter().enumerate() {
            cut_pos.insert(c, p + i);
        }
        let cv_vertex = |v: usize| -> usize {
            if is_cut[v] {
                cut_pos[&v]
            } else {
                comp_id[v]
            }
        };
        let mut ct_edges = Vec::new();
        for v in 0..t.len() {
            if let Some(q) = t.parent[v] {
                let (a, bb) = (cv_vertex(v), cv_vertex(q));
                if a != bb {
                    ct_edges.push((a.min(bb), a.max(bb), 1.0));
                }
            }
        }
        ct_edges.sort_by_key(|x| (x.0, x.1));
        ct_edges.dedup_by(|x, y| (x.0, x.1) == (y.0, y.1));
        let ct_tree = RootedTree::from_edges(p + cuts.len(), cv_vertex(t.root), &ct_edges)
            // hopspan:allow(panic-in-lib) -- the quotient of a tree by connected components is a tree
            .expect("quotient of a tree is a tree");
        let lca = Lca::new(&ct_tree);
        let la = LevelAncestor::new(&ct_tree);
        let cut_orig: Vec<usize> = cuts.iter().map(|&c| t.orig[c]).collect();
        let cut_sub_home: Vec<HomeRef> = if sub.is_some() {
            cut_orig
                .iter()
                // hopspan:allow(panic-in-lib) -- every cut is required in the sub-construction, hence homed
                .map(|o| *sub_home.get(o).expect("cut vertex is homed in sub"))
                .collect()
        } else {
            Vec::new()
        };
        b.nodes[beta].contracted = Some(Box::new(Contracted {
            tree: ct_tree,
            lca,
            la,
            rep_count: p,
            cut_orig,
            cut_sub_home,
        }));
    }
    b.nodes[beta].sub = sub;
    Some(beta)
}

/// `HandleBaseCase` (lines 18-23): spanner edges are the (pruned) tree
/// edges, plus the root shortcut when `n = k + 1` and the root has exactly
/// two children. Records the base adjacency and precomputes the all-pairs
/// path table consumed by queries.
fn handle_base_case(
    b: &mut Builder,
    t: &LocalTree,
    k: usize,
    edges: &mut Vec<(usize, usize, f64)>,
) -> usize {
    let children = t.children();
    let mut local_edges: Vec<(usize, usize, f64)> = Vec::new();
    for v in 0..t.len() {
        if let Some(p) = t.parent[v] {
            local_edges.push((t.orig[v], t.orig[p], t.weight[v]));
        }
    }
    let n_req = t.required_count();
    if n_req == k + 1 && children[t.root].len() == 2 {
        let (u, v) = (children[t.root][0], children[t.root][1]);
        local_edges.push((t.orig[u], t.orig[v], t.weight[u] + t.weight[v]));
    }
    // Base cases of one navigator are vertex-disjoint, so this local
    // adjacency sees exactly the entries (in exactly the push order) the
    // former navigator-global map held for these vertices.
    let mut adj: BaseAdj = BaseAdj::new();
    for &(u, v, w) in &local_edges {
        edges.push((u, v, w));
        adj.entry(u).or_default().push((v, w));
        adj.entry(v).or_default().push((u, w));
    }
    // Ensure every base vertex (even isolated singletons) has an entry.
    for v in 0..t.len() {
        adj.entry(t.orig[v]).or_default();
    }
    let inner: Vec<usize> = (0..t.len())
        .filter(|&v| t.required[v])
        .map(|v| t.orig[v])
        .collect();
    let base = base_table(&inner, &adj);
    for (u, nbrs) in adj {
        b.base_adj.entry(u).or_default().extend(nbrs);
    }
    let node = b.new_node(PhiNode {
        inner: inner.clone(),
        base: Some(base),
        contracted: None,
        sub: None,
    });
    for (i, u) in inner.into_iter().enumerate() {
        // hopspan:allow(panic-in-lib) -- base cases have ≤ k + 1 members, far below 2³²
        let slot = u32::try_from(i).expect("slot fits u32");
        b.home.insert(u, (node, slot));
    }
    node
}

/// Precomputes the min-weight (then min-hop) path for every ordered pair
/// of base members, via the same BFS + lexicographic Bellman–Ford the
/// query path used to run per pair (`O(k)`-vertex graphs, so the whole
/// table costs O(k⁴) per base case).
fn base_table(inner: &[usize], adj: &BaseAdj) -> BaseTable {
    let m = inner.len();
    let mut offsets = Vec::with_capacity(m * m + 1);
    let mut verts = Vec::new();
    offsets.push(0u32);
    for &u in inner {
        for &v in inner {
            base_path(u, v, adj, &mut verts);
            // hopspan:allow(panic-in-lib) -- ≤ (k+1)² paths of ≤ 2k+1 vertices each
            offsets.push(u32::try_from(verts.len()).expect("base table fits u32"));
        }
    }
    BaseTable { m, offsets, verts }
}

/// Appends the min-weight (then min-hop) path between two vertices of
/// the same base case to `out`, over the O(k)-vertex base subgraph.
fn base_path(u: usize, v: usize, base_adj: &BaseAdj, out: &mut Vec<usize>) {
    // Collect the base component by BFS over the base adjacency.
    let mut verts = vec![u];
    let mut index: BTreeMap<usize, usize> = BTreeMap::new();
    index.insert(u, 0);
    let mut head = 0;
    while head < verts.len() {
        let w = verts[head];
        head += 1;
        for &(x, _) in &base_adj[&w] {
            if let std::collections::btree_map::Entry::Vacant(e) = index.entry(x) {
                e.insert(verts.len());
                verts.push(x);
            }
        }
    }
    let m = verts.len();
    let src = 0usize;
    let dst = index[&v];
    // Lexicographic (weight, hops) Bellman–Ford; graphs here have O(k)
    // vertices so the O(m²·deg) cost is constant-bounded.
    let mut dist = vec![(f64::INFINITY, usize::MAX); m];
    let mut pred = vec![usize::MAX; m];
    dist[src] = (0.0, 0);
    for _ in 0..m {
        let mut changed = false;
        for a in 0..m {
            let (da, ha) = dist[a];
            if !da.is_finite() {
                continue;
            }
            for &(x, w) in &base_adj[&verts[a]] {
                let bidx = index[&x];
                let cand = (da + w, ha + 1);
                if lex_better(cand, dist[bidx]) {
                    dist[bidx] = cand;
                    pred[bidx] = a;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    debug_assert!(dist[dst].0.is_finite(), "base case is connected");
    let at = out.len();
    out.push(verts[dst]);
    let mut cur = dst;
    while cur != src {
        cur = pred[cur];
        out.push(verts[cur]);
    }
    out[at..].reverse();
}

/// Epsilon-aware lexicographic comparison of (weight, hops).
fn lex_better(a: (f64, usize), b: (f64, usize)) -> bool {
    let eps = 1e-9 * a.0.abs().max(b.0.abs()).max(1.0);
    if a.0 < b.0 - eps {
        true
    } else if a.0 > b.0 + eps {
        false
    } else {
        a.1 < b.1
    }
}

/// DFS from `src` that does not expand past `blocked` vertices; returns
/// `(vertex, distance)` for every vertex reached (blocked vertices are
/// reached but not expanded). Cost is proportional to the region visited.
fn collect_adjacent(
    t: &LocalTree,
    children: &[Vec<usize>],
    src: usize,
    blocked: &[bool],
) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    let mut seen = BTreeMap::new();
    seen.insert(src, ());
    let mut stack = vec![(src, 0.0f64)];
    while let Some((v, dv)) = stack.pop() {
        let mut visit =
            |w: usize, edge: f64, stack: &mut Vec<(usize, f64)>, out: &mut Vec<(usize, f64)>| {
                if let std::collections::btree_map::Entry::Vacant(e) = seen.entry(w) {
                    e.insert(());
                    out.push((w, dv + edge));
                    if !blocked[w] {
                        stack.push((w, dv + edge));
                    }
                }
            };
        if let Some(p) = t.parent[v] {
            visit(p, t.weight[v], &mut stack, &mut out);
        }
        for &c in &children[v] {
            visit(c, t.weight[c], &mut stack, &mut out);
        }
    }
    out
}
