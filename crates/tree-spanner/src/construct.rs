//! `PreprocessTree` (Algorithm 1): builds Solomon's 1-spanner of
//! hop-diameter `k` together with the augmented recursion tree Φ, the
//! contracted trees 𝒯_β, and the per-vertex navigation pointers.
//!
//! One [`Navigator`] owns one same-`k` recursion hierarchy over one tree;
//! for `k ≥ 4`, every non-base Φ node also owns a boxed sub-[`Navigator`]
//! for the `(k-2)`-construction over the pruned copy `T'` whose required
//! vertices are the cut vertices (paper line 10 of Algorithm 1).
//!
//! A navigator keeps only what a query reads. Each Φ node is a 16-byte
//! [`PhiNode`] of `u32` offsets into three per-navigator arenas: the
//! concatenated inner vertices, the base-case path table (see
//! [`Navigator::base_path`]) and the [`Contracted`] trees. Neither Φ nor
//! a contracted tree is kept as a [`RootedTree`]: the query reads a
//! depth and a parent, and the [`LevelAncestor`] built beside each LCA
//! structure holds both. Vertex ids, node ids and slots are `u32`, with
//! [`NONE`] as the "no entry" sentinel. Construction uses dense
//! per-vertex vectors and one [`Scratch`] shared by every recursive
//! call. Base-case paths are precomputed here (all ordered pairs per
//! `HandleBaseCase` leaf), so queries never run the BFS + Bellman–Ford.

use hopspan_treealg::{Lca, LevelAncestor, RootedTree};

use crate::ackermann::alpha_prime;
use crate::local_tree::{LocalTree, PruneFrame, Shape};

/// The "no entry" sentinel of every `u32` index table.
pub(crate) const NONE: u32 = u32::MAX;

/// A vertex's navigation pointer: its home Φ node and its slot within
/// that node's inner list (`u.ptr(Φ).h` in the paper, plus the dense
/// index replacing per-query map lookups).
pub(crate) type HomeRef = (u32, u32);

/// Narrows a vertex id, node id or arena offset to a `u32` table word.
pub(crate) fn word(x: usize) -> u32 {
    // hopspan:allow(panic-in-lib) -- tree spanners index vertices, Φ nodes and arena entries by u32; a tree with 2³² vertices does not fit in memory next to its tables
    u32::try_from(x).expect("tree spanner tables are indexed by u32")
}

/// What a navigator build leaves for its caller besides the
/// [`Navigator`]: every required vertex's home, and the base-case
/// spanner edges. The public wrapper densifies both into its
/// per-vertex tables; `build_call` folds a sub-navigator's homes into
/// its parent's [`Contracted::cut_sub_home`] and drops the rest.
#[derive(Debug, Default)]
pub(crate) struct BuildOutput {
    /// `(original vertex id, home)`, one entry per required vertex.
    pub homes: Vec<(usize, HomeRef)>,
    /// Base-case spanner edges `(u, v, w)` (original ids), in the
    /// order the base cases emitted them. Base cases of one navigator
    /// are vertex-disjoint, so each vertex's incident entries are
    /// exactly its base adjacency, in order.
    pub base_edges: Vec<(usize, usize, f64)>,
    /// Every vertex of every base case, Steiner vertices included.
    pub base_members: Vec<usize>,
}

/// Build-time working memory shared by every recursive call of one
/// top-level build, sized by the top-level tree: every local tree of
/// the recursion is a subtree of it, so local indices and original ids
/// both stay below its vertex count.
pub(crate) struct Scratch {
    /// Visit stamps over local indices for [`collect_adjacent`].
    seen: Vec<u32>,
    stamp: u32,
    /// DFS stack of [`collect_adjacent`].
    stack: Vec<(usize, f64)>,
    /// Output of [`collect_adjacent`].
    reach: Vec<(usize, f64)>,
    /// Original id -> home, written and read back while folding one
    /// sub-navigator's homes.
    home: Vec<HomeRef>,
    /// Working buffers of [`handle_base_case`].
    base: BaseScratch,
    /// Spare trees to prune components into; a call takes one per
    /// component and returns it once the component's call is done.
    spare: Vec<LocalTree>,
    /// DFS stack of `Prune`.
    prune_stack: Vec<PruneFrame>,
}

/// Working buffers of one base case, over its O(k) local vertices.
#[derive(Default)]
struct BaseScratch {
    /// Base spanner edges over local indices, in emission order.
    edges: Vec<(usize, usize, f64)>,
    /// CSR adjacency of `edges`: offsets and `(neighbor, weight)` lists,
    /// each list in emission order.
    off: Vec<usize>,
    nbr: Vec<(usize, f64)>,
    /// The required (member) vertices, ascending.
    inner: Vec<usize>,
    /// BFS order from the current source, and positions in it.
    order: Vec<usize>,
    pos: Vec<usize>,
    /// Bellman–Ford labels and predecessors, by BFS position.
    dist: Vec<(f64, usize)>,
    pred: Vec<usize>,
}

impl Scratch {
    pub(crate) fn new(n: usize) -> Self {
        Scratch {
            seen: vec![0; n],
            stamp: 0,
            stack: Vec::new(),
            reach: Vec::new(),
            home: vec![(NONE, 0); n],
            base: BaseScratch::default(),
            spare: Vec::new(),
            prune_stack: Vec::new(),
        }
    }

    /// Starts a new visit: every vertex reads as unseen afterwards.
    fn next_stamp(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
    }
}

/// The contracted tree 𝒯_β of a non-base Φ node (`k ≥ 3` only): the
/// quotient of the call tree by its components, preprocessed for LCA/LA.
///
/// Contracted ids are laid out densely: `[0, rep_count)` are component
/// representatives (id = component index), `[rep_count, ..)` are cut
/// vertices (id = `rep_count` + slot in the owning node's inner list,
/// which therefore doubles as the cut slot -> original id table).
#[derive(Debug)]
pub(crate) struct Contracted {
    /// LCA structure over the quotient tree.
    pub lca: Lca,
    /// Level-ancestor structure over the quotient tree; it also answers
    /// the tree's depths and parents.
    pub la: LevelAncestor,
    /// Number of component representatives; every contracted id at or
    /// above this is a cut vertex.
    pub rep_count: u32,
    /// The `(k-2)`-construction over the cut vertices (`k ≥ 4` only;
    /// `k = 3` connects cut vertices by a clique).
    pub sub: Option<Box<Sub>>,
}

/// A non-base node's sub-hierarchy (`k ≥ 4`).
#[derive(Debug)]
pub(crate) struct Sub {
    /// The `(k-2)`-navigator over the pruned copy `T'`.
    pub nav: Navigator,
    /// Cut slot -> home pointer inside [`Sub::nav`].
    pub cut_home: Vec<HomeRef>,
}

/// One node of the augmented recursion tree Φ: offsets into the owning
/// [`Navigator`]'s arenas.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PhiNode {
    /// Start of the node's inner vertices in [`Navigator::inner`]: the
    /// cut vertices of this call, or the required vertices of a base
    /// case.
    pub inner: u32,
    /// Number of inner vertices.
    pub len: u32,
    /// `HandleBaseCase` leaves: start of the node's `len²` path cells
    /// in [`Navigator::base_off`]; [`NONE`] otherwise.
    pub base: u32,
    /// Non-base nodes with `k ≥ 3`: index into
    /// [`Navigator::contracted`]; [`NONE`] otherwise.
    pub contracted: u32,
}

// Every Φ node of every tree pays this size, and most are base-case
// leaves: keep the record to four words.
const _: () = assert!(std::mem::size_of::<PhiNode>() <= 20);

impl PhiNode {
    /// Whether this node is a `HandleBaseCase` leaf.
    #[inline]
    pub fn is_base(&self) -> bool {
        self.base != NONE
    }
}

/// A complete navigation structure for one same-`k` recursion hierarchy.
///
/// Homes are not stored here: the caller passes each endpoint's
/// [`HomeRef`] into the query (densified at the top level, read from
/// [`Sub::cut_home`] when recursing), so sub-navigators carry no
/// per-vertex tables at all.
#[derive(Debug)]
pub(crate) struct Navigator {
    /// Hop budget of this construction level.
    pub k: usize,
    /// Φ nodes, indexed by Φ node id.
    pub nodes: Vec<PhiNode>,
    /// Every node's inner vertices (original ids), concatenated in node
    /// order.
    pub inner: Vec<u32>,
    /// Base-case path offsets into [`Navigator::base_verts`]: `m²`
    /// cells per base node (`m` = its inner count), row-major by member
    /// slot pair, appended in node order, plus one closing entry. Cell
    /// `c` of the node at `base` spans
    /// `base_verts[base_off[base + c]..base_off[base + c + 1]]`, so a
    /// node's last cell ends where the next one's first begins.
    pub base_off: Vec<u32>,
    /// The concatenated base-case paths (original ids): for each base
    /// node and ordered pair of its members, the min-weight (then
    /// min-hop) path over the base spanner, produced at build time by
    /// the exact BFS + lexicographic Bellman–Ford the queries used to
    /// run.
    pub base_verts: Vec<u32>,
    /// Contracted trees of the non-base nodes (`k ≥ 3`).
    pub contracted: Vec<Contracted>,
    /// LCA structure over Φ.
    pub phi_lca: Lca,
    /// Level-ancestor structure over Φ; it also answers Φ's depths and
    /// parents.
    pub phi_la: LevelAncestor,
    /// Φ node id -> index of its component within the parent's
    /// contracted tree (= its representative's contracted id);
    /// [`NONE`] for the root.
    pub comp_of_node: Vec<u32>,
}

impl Navigator {
    /// The inner vertices of `node`.
    #[inline]
    pub fn inner_of(&self, node: PhiNode) -> &[u32] {
        let at = node.inner as usize;
        &self.inner[at..at + node.len as usize]
    }

    /// The base-case path between member slots `su` and `sv` of the
    /// base node `node`.
    #[inline]
    pub fn base_path(&self, node: PhiNode, su: u32, sv: u32) -> &[u32] {
        let cell = node.base as usize + su as usize * node.len as usize + sv as usize;
        &self.base_verts[self.base_off[cell] as usize..self.base_off[cell + 1] as usize]
    }
}

/// One navigator under construction: Φ's parent pointers, its node
/// records and arenas, and the build output.
struct Builder {
    parents: Vec<Option<usize>>,
    comp_of_node: Vec<u32>,
    nodes: Vec<PhiNode>,
    inner: Vec<u32>,
    base_off: Vec<u32>,
    base_verts: Vec<u32>,
    contracted: Vec<Contracted>,
    out: BuildOutput,
}

impl Builder {
    /// Adds a Φ node whose inner vertices are `inner`; returns its id.
    fn new_node(&mut self, inner: impl Iterator<Item = usize>) -> usize {
        let start = self.inner.len();
        self.inner.extend(inner.map(word));
        self.parents.push(None);
        self.comp_of_node.push(NONE);
        self.nodes.push(PhiNode {
            inner: word(start),
            len: word(self.inner.len() - start),
            base: NONE,
            contracted: NONE,
        });
        self.nodes.len() - 1
    }
}

/// LCA and level-ancestor structures over `tree`, which the caller then
/// drops: the level-ancestor structure answers its depths and parents.
pub(crate) fn preprocess(tree: &RootedTree) -> (Lca, LevelAncestor) {
    (Lca::new(tree), LevelAncestor::new(tree))
}

/// Builds a navigator (and appends spanner edges) for the pruned tree
/// `t` (see [`LocalTree::prune`]) with hop-diameter `k ≥ 2`, together
/// with its [`BuildOutput`].
pub(crate) fn build_navigator(
    t: &LocalTree,
    k: usize,
    edges: &mut Vec<(usize, usize, f64)>,
    scratch: &mut Scratch,
) -> (Navigator, BuildOutput) {
    debug_assert!(k >= 2);
    let mut b = Builder {
        parents: Vec::new(),
        comp_of_node: Vec::new(),
        nodes: Vec::new(),
        inner: Vec::new(),
        base_off: vec![0],
        base_verts: Vec::new(),
        contracted: Vec::new(),
        out: BuildOutput::default(),
    };
    let root = build_call(&mut b, t, k, edges, scratch);
    let weights = vec![1.0; b.nodes.len()];
    let phi = RootedTree::from_parents(root, &b.parents, &weights)
        // hopspan:allow(panic-in-lib) -- parents come from Builder::new_node, consistent by construction
        .expect("recursion tree parents are consistent");
    let (phi_lca, phi_la) = preprocess(&phi);
    let mut nav = Navigator {
        k,
        nodes: b.nodes,
        inner: b.inner,
        base_off: b.base_off,
        base_verts: b.base_verts,
        contracted: b.contracted,
        phi_lca,
        phi_la,
        comp_of_node: b.comp_of_node,
    };
    nav.shrink_to_fit();
    (nav, b.out)
}

impl Navigator {
    /// Trims every arena to its length: a navigator is immutable once
    /// built, so growth slack is dead weight.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.nodes.shrink_to_fit();
        self.inner.shrink_to_fit();
        self.base_off.shrink_to_fit();
        self.base_verts.shrink_to_fit();
        self.contracted.shrink_to_fit();
        self.comp_of_node.shrink_to_fit();
    }
}

/// One recursive call of `PreprocessTree` on the pruned tree `t`;
/// returns its Φ node id.
fn build_call(
    b: &mut Builder,
    t: &LocalTree,
    k: usize,
    edges: &mut Vec<(usize, usize, f64)>,
    scratch: &mut Scratch,
) -> usize {
    let n_req = t.required_count();
    if n_req <= k + 1 {
        return handle_base_case(b, t, k, edges, &mut scratch.base);
    }
    let shape = t.shape();
    // hopspan:allow(panic-in-lib) -- α'_{k-2}(n_req) ≤ n_req, which is already a usize
    let ell = usize::try_from(alpha_prime(k - 2, n_req as u128)).expect("ℓ fits usize");
    let cuts = t.decompose(&shape, ell);
    debug_assert!(!cuts.is_empty(), "n_req > ℓ forces at least one cut");
    let beta = b.new_node(cuts.iter().map(|&c| t.orig[c]));
    for (i, &c) in cuts.iter().enumerate() {
        if t.required[c] {
            b.out.homes.push((t.orig[c], (word(beta), word(i))));
        }
    }
    let mut is_cut = vec![false; t.len()];
    for &c in &cuts {
        is_cut[c] = true;
    }

    // E'' (line 12): edges from every cut vertex to the required vertices
    // of its adjacent components, weighted by the exact tree distance. A
    // DFS from each cut vertex bounded by the other cut vertices visits
    // exactly the adjacent components.
    for &c in &cuts {
        collect_adjacent(t, &shape, c, &is_cut, scratch);
        for &(v, d) in &scratch.reach {
            if t.required[v] && !is_cut[v] {
                edges.push((t.orig[c], t.orig[v], d));
            }
        }
    }

    // E' (lines 6-10): interconnect the cut vertices, over the copy T'
    // of T whose required vertices are exactly the cut vertices.
    let mut sub = None;
    if k >= 3 {
        // hopspan:allow(panic-in-lib) -- decompose returned at least one cut above
        let t_cv = t.prune(&shape, &is_cut).expect("cut set is non-empty");
        if k == 3 {
            // Clique over CV with exact distances, computed on the pruned
            // copy (O(|CV|·|T'|) = O(n) total).
            let cv_shape = t_cv.shape();
            let cut_locals: Vec<usize> = (0..t_cv.len()).filter(|&v| t_cv.required[v]).collect();
            let unblocked = vec![false; t_cv.len()];
            let mut dist = vec![0.0f64; t_cv.len()];
            for &cl in &cut_locals {
                collect_adjacent(&t_cv, &cv_shape, cl, &unblocked, scratch);
                for &(v, d) in &scratch.reach {
                    dist[v] = d;
                }
                for &cl2 in &cut_locals {
                    if t_cv.orig[cl2] > t_cv.orig[cl] {
                        edges.push((t_cv.orig[cl], t_cv.orig[cl2], dist[cl2]));
                    }
                }
            }
        } else {
            // Recursive (k-2)-construction over T'. The sub-hierarchy's
            // base adjacency is a build-time artifact with no
            // query-path consumer, so it is dropped here; every cut is
            // required in T', hence homed in the sub-hierarchy.
            let (nav, out) = build_navigator(&t_cv, k - 2, edges, scratch);
            debug_assert_eq!(out.homes.len(), cuts.len());
            for &(v, home) in &out.homes {
                scratch.home[v] = home;
            }
            let cut_home = cuts.iter().map(|&c| scratch.home[t.orig[c]]).collect();
            sub = Some(Box::new(Sub { nav, cut_home }));
        }
    }

    // Components of T ∖ CV, pruned and recursed with the same k (line
    // 14); one without required vertices gets no Φ node.
    let comps = t.components(&shape, &is_cut);
    let comp_count = comps.roots.len();
    for i in 0..comp_count {
        if comps.required(i) == 0 {
            continue;
        }
        let mut comp = scratch.spare.pop().unwrap_or_default();
        comps.prune_into(i, &mut comp, &mut scratch.prune_stack);
        let child = build_call(b, &comp, k, edges, scratch);
        scratch.spare.push(comp);
        b.parents[child] = Some(beta);
        b.comp_of_node[child] = word(i);
    }
    let mut ct_id = comps.comp_id;

    // Contracted tree 𝒯_β (line 16, k ≥ 3): the quotient of T by its
    // components. Unlike the paper's prose we also keep cut–cut edges for
    // adjacent cut vertices, otherwise the quotient may be disconnected
    // (DESIGN.md §2).
    if k >= 3 {
        // Contracted id per vertex: its component, or rep_count + its
        // position among the cuts.
        let p = comp_count;
        for (i, &c) in cuts.iter().enumerate() {
            ct_id[c] = p + i;
        }
        let mut ct_edges = Vec::new();
        for v in 0..t.len() {
            if let Some(q) = t.parent[v] {
                let (a, bb) = (ct_id[v], ct_id[q]);
                if a != bb {
                    ct_edges.push((a.min(bb), a.max(bb), 1.0));
                }
            }
        }
        // Equal keys carry equal weights, so an unstable sort is exact.
        ct_edges.sort_unstable_by_key(|x| (x.0, x.1));
        ct_edges.dedup_by(|x, y| (x.0, x.1) == (y.0, y.1));
        let ct_tree = RootedTree::from_edges(p + cuts.len(), ct_id[t.root], &ct_edges)
            // hopspan:allow(panic-in-lib) -- the quotient of a tree by connected components is a tree
            .expect("quotient of a tree is a tree");
        let (lca, la) = preprocess(&ct_tree);
        b.nodes[beta].contracted = word(b.contracted.len());
        b.contracted.push(Contracted {
            lca,
            la,
            rep_count: word(p),
            sub,
        });
    }
    beta
}

/// `HandleBaseCase` (lines 18-23): spanner edges are the (pruned) tree
/// edges, plus the root shortcut when `n = k + 1` and the root has exactly
/// two children. Records the base edges and members and precomputes the
/// all-pairs path table consumed by queries.
fn handle_base_case(
    b: &mut Builder,
    t: &LocalTree,
    k: usize,
    edges: &mut Vec<(usize, usize, f64)>,
    s: &mut BaseScratch,
) -> usize {
    s.edges.clear();
    for v in 0..t.len() {
        if let Some(p) = t.parent[v] {
            s.edges.push((v, p, t.weight[v]));
        }
    }
    if t.required_count() == k + 1 {
        let mut rc = t.root_children();
        if let (Some(u), Some(v), None) = (rc.next(), rc.next(), rc.next()) {
            s.edges.push((u, v, t.weight[u] + t.weight[v]));
        }
    }
    for &(u, v, w) in &s.edges {
        let e = (t.orig[u], t.orig[v], w);
        edges.push(e);
        b.out.base_edges.push(e);
    }
    b.out.base_members.extend_from_slice(&t.orig);
    s.inner.clear();
    s.inner.extend((0..t.len()).filter(|&v| t.required[v]));
    let node = b.new_node(s.inner.iter().map(|&v| t.orig[v]));
    b.nodes[node].base = word(b.base_off.len() - 1);
    base_table(s, &t.orig, &mut b.base_off, &mut b.base_verts);
    for (i, &v) in s.inner.iter().enumerate() {
        b.out.homes.push((t.orig[v], (word(node), word(i))));
    }
    node
}

/// Appends the min-weight (then min-hop) path for every ordered pair of
/// base members `s.inner` over the base graph `s.edges`, as original
/// ids, to the arenas `verts`, with one closing offset per path to
/// `offsets` (see [`Navigator::base_off`]). One BFS and one
/// lexicographic Bellman–Ford per source serve every destination:
/// neither depends on the destination, so each path is the one a
/// per-pair search from the same source finds.
fn base_table(s: &mut BaseScratch, orig: &[usize], offsets: &mut Vec<u32>, verts: &mut Vec<u32>) {
    let BaseScratch {
        edges,
        off,
        nbr,
        inner,
        order,
        pos,
        dist,
        pred,
    } = s;
    let nv = orig.len();
    // CSR adjacency; see `LocalTree::shape` for the two-up counting.
    off.clear();
    off.resize(nv + 2, 0);
    for &(u, v, _) in edges.iter() {
        off[u + 2] += 1;
        off[v + 2] += 1;
    }
    for i in 2..nv + 2 {
        off[i] += off[i - 1];
    }
    nbr.clear();
    nbr.resize(off[nv + 1], (0, 0.0));
    for &(u, v, w) in edges.iter() {
        nbr[off[u + 1]] = (v, w);
        off[u + 1] += 1;
        nbr[off[v + 1]] = (u, w);
        off[v + 1] += 1;
    }
    let neighbors = |v: usize| &nbr[off[v]..off[v + 1]];
    pos.clear();
    pos.resize(nv, usize::MAX);
    order.clear();
    for &u in inner.iter() {
        // BFS order from the source over the base graph.
        for &x in order.iter() {
            pos[x] = usize::MAX;
        }
        order.clear();
        pos[u] = 0;
        order.push(u);
        let mut head = 0;
        while head < order.len() {
            let w = order[head];
            head += 1;
            for &(x, _) in neighbors(w) {
                if pos[x] == usize::MAX {
                    pos[x] = order.len();
                    order.push(x);
                }
            }
        }
        // Lexicographic (weight, hops) Bellman–Ford over BFS positions;
        // graphs here have O(k) vertices, so the O(m²·deg) cost is
        // constant-bounded.
        let reached = order.len();
        dist.clear();
        dist.resize(reached, (f64::INFINITY, usize::MAX));
        pred.clear();
        pred.resize(reached, usize::MAX);
        dist[0] = (0.0, 0);
        for _ in 0..reached {
            let mut changed = false;
            for a in 0..reached {
                let (da, ha) = dist[a];
                if !da.is_finite() {
                    continue;
                }
                for &(x, w) in neighbors(order[a]) {
                    let bidx = pos[x];
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
        for &v in inner.iter() {
            let dst = pos[v];
            debug_assert!(dist[dst].0.is_finite(), "base case is connected");
            let at = verts.len();
            verts.push(word(orig[order[dst]]));
            let mut cur = dst;
            while cur != 0 {
                cur = pred[cur];
                verts.push(word(orig[order[cur]]));
            }
            verts[at..].reverse();
            offsets.push(word(verts.len()));
        }
    }
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

/// DFS from `src` that does not expand past `blocked` vertices; leaves
/// `(vertex, distance)` for every vertex reached in `scratch.reach`
/// (blocked vertices are reached but not expanded). Cost is
/// proportional to the region visited.
fn collect_adjacent(
    t: &LocalTree,
    shape: &Shape,
    src: usize,
    blocked: &[bool],
    scratch: &mut Scratch,
) {
    scratch.next_stamp();
    let Scratch {
        seen,
        stamp,
        stack,
        reach,
        ..
    } = scratch;
    let stamp = *stamp;
    reach.clear();
    seen[src] = stamp;
    stack.clear();
    stack.push((src, 0.0f64));
    while let Some((v, dv)) = stack.pop() {
        let mut visit = |w: usize, edge: f64| {
            if seen[w] != stamp {
                seen[w] = stamp;
                reach.push((w, dv + edge));
                if !blocked[w] {
                    stack.push((w, dv + edge));
                }
            }
        };
        if let Some(p) = t.parent[v] {
            visit(p, t.weight[v]);
        }
        for &c in shape.children(v) {
            visit(c, t.weight[c]);
        }
    }
}
