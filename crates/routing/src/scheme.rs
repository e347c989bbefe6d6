//! The per-tree 2-hop routing core shared by all schemes (§5.1.1).
//!
//! For one tree of a cover (or a standalone tree metric) with its k = 2
//! Solomon spanner, this module builds labels and routing tables such
//! that, at any node, the next port follows from (local table,
//! destination label, header) alone:
//!
//! * the destination's label stores, for every Φ-ancestor of its home,
//!   the ports *from* the (candidates of the) ancestor's cut vertex to the
//!   destination;
//! * the source's table stores the ports *toward* its own Φ-ancestors'
//!   cut vertices, plus a small table for its base case;
//! * the λ = LCA_Φ computation uses Euler-interval containment over the
//!   ancestor list (a binary search, our O(log log n)-ish substitute for
//!   the \[AHL14\] O(1) LCA labels — see DESIGN.md §4).
//!
//! Candidate sets generalize single points to the `R(v)` sets of the
//! fault-tolerant construction (f = 0 recovers the plain scheme).

use std::collections::{BTreeMap, HashSet};
use std::fmt;

use hopspan_tree_spanner::TreeHopSpanner;
use hopspan_treealg::RootedTree;

use crate::network::{Header, Network, RouteTrace};

/// Error type for routing queries.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RoutingError {
    /// An endpoint is out of range, unlabeled, or faulty.
    BadEndpoint {
        /// The offending node.
        node: usize,
    },
    /// Delivery failed (should not happen for valid inputs).
    Undeliverable,
    /// A fault set larger than the scheme's budget was rejected under
    /// [`hopspan_core::DegradationPolicy::Strict`].
    TooManyFaults {
        /// The size of the submitted fault set.
        got: usize,
        /// The scheme's fault-tolerance budget.
        f: usize,
    },
    /// A contained worker panic in a parallel measurement fan-out.
    Pipeline(hopspan_pipeline::PipelineError),
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingError::BadEndpoint { node } => write!(f, "bad endpoint {node}"),
            RoutingError::Undeliverable => write!(f, "packet could not be delivered"),
            RoutingError::TooManyFaults { got, f: budget } => write!(
                f,
                "fault set of size {got} exceeds the scheme's budget f = {budget}"
            ),
            RoutingError::Pipeline(e) => write!(f, "pipeline: {e}"),
        }
    }
}

impl std::error::Error for RoutingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RoutingError::Pipeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<hopspan_pipeline::PipelineError> for RoutingError {
    fn from(e: hopspan_pipeline::PipelineError) -> Self {
        RoutingError::Pipeline(e)
    }
}

/// Error from building a routing scheme (cover or spanner failure).
#[derive(Debug)]
#[non_exhaustive]
pub enum NavBuildError {
    /// The tree cover could not be built.
    Cover(hopspan_tree_cover::CoverError),
    /// The tree spanner could not be built.
    Spanner(hopspan_tree_spanner::TreeSpannerError),
    /// A contained worker panic in the parallel build fan-out.
    Pipeline(hopspan_pipeline::PipelineError),
}

impl fmt::Display for NavBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NavBuildError::Cover(e) => write!(f, "cover construction failed: {e}"),
            NavBuildError::Spanner(e) => write!(f, "spanner construction failed: {e}"),
            NavBuildError::Pipeline(e) => write!(f, "build pipeline failed: {e}"),
        }
    }
}

impl std::error::Error for NavBuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NavBuildError::Cover(e) => Some(e),
            NavBuildError::Spanner(e) => Some(e),
            NavBuildError::Pipeline(e) => Some(e),
        }
    }
}

impl From<hopspan_pipeline::PipelineError> for NavBuildError {
    fn from(e: hopspan_pipeline::PipelineError) -> Self {
        NavBuildError::Pipeline(e)
    }
}

impl From<hopspan_tree_cover::CoverError> for NavBuildError {
    fn from(e: hopspan_tree_cover::CoverError) -> Self {
        NavBuildError::Cover(e)
    }
}

impl From<hopspan_tree_spanner::TreeSpannerError> for NavBuildError {
    fn from(e: hopspan_tree_spanner::TreeSpannerError) -> Self {
        NavBuildError::Spanner(e)
    }
}

/// A reference to a Φ node with its Euler interval (for O(1) ancestor
/// tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PhiRef {
    pub node: usize,
    pub tin: u32,
    pub tout: u32,
}

impl PhiRef {
    #[inline]
    fn is_ancestor_of(&self, other: &PhiRef) -> bool {
        self.tin <= other.tin && other.tout <= self.tout
    }
}

/// Ports to/from the candidates of one ancestor's cut vertex, aligned by
/// candidate index. `port` is `None` exactly when the candidate is this
/// node itself.
#[derive(Debug, Clone, Default)]
pub(crate) struct CutPorts {
    /// Whether this node is itself one of the candidates.
    pub member: bool,
    /// `(candidate point, port)` per candidate, in R(v) order.
    pub ports: Vec<(usize, Option<usize>)>,
}

/// Per-ancestor entry: `None` for base-case ancestors (no cut vertex).
type CandidatePorts = Option<CutPorts>;

/// The label of a destination node, for one tree.
#[derive(Debug, Clone)]
pub(crate) struct NodeLabel {
    pub id: usize,
    pub home: PhiRef,
    /// Entry `d` = ports from the candidates of the cut vertex of the
    /// depth-`d` ancestor of `home`, to me. Indexed by Φ depth.
    pub anc: Vec<CandidatePorts>,
}

/// A base-case route from a source to a destination point.
#[derive(Debug, Clone)]
pub(crate) enum BaseRoute {
    /// Direct overlay edge through this port.
    Direct(usize),
    /// Two hops: candidates of the intermediate vertex, as
    /// `(mid point, port me→mid, port mid→dest)`.
    Via(Vec<(usize, usize, usize)>),
    /// The destination shares my network node (zero hops).
    SameNode,
}

/// The routing table of a node, for one tree.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeTable {
    /// My home Φ node, when I am a labeled (required) node of this tree.
    pub home: Option<PhiRef>,
    pub home_is_base: bool,
    /// My ancestor chain, shallowest first (depth = index), with ports
    /// from me toward the candidates of each ancestor's cut vertex.
    pub anc_refs: Vec<PhiRef>,
    pub anc_out: Vec<CandidatePorts>,
    /// Base-case routes: (case id, destination point) → route.
    pub base: BTreeMap<(usize, usize), BaseRoute>,
}

/// Size statistics of a routing scheme (bit accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchemeStats {
    /// Maximum label size over nodes, in bits.
    pub max_label_bits: usize,
    /// Maximum routing-table size over nodes, in bits.
    pub max_table_bits: usize,
    /// Maximum header size observed/possible, in bits.
    pub header_bits: usize,
}

/// The routing structures of one tree.
#[derive(Debug)]
pub(crate) struct PerTreeScheme {
    pub labels: Vec<Option<NodeLabel>>,
    pub tables: Vec<NodeTable>,
}

impl PerTreeScheme {
    /// Builds labels and tables for one tree.
    ///
    /// * `tree` — the underlying rooted tree of the spanner;
    /// * `spanner` — its k = 2 [`TreeHopSpanner`];
    /// * `point_of(tv)` — network node of tree vertex `tv`;
    /// * `candidates(tv)` — candidate network nodes realizing `tv`
    ///   (`tv`'s own node for plain schemes, `R(v)` for fault
    ///   tolerance);
    /// * `net` — the overlay with ports.
    pub fn build<'a>(
        tree: &RootedTree,
        spanner: &TreeHopSpanner,
        point_of: &dyn Fn(usize) -> usize,
        candidates: &dyn Fn(usize) -> &'a [u32],
        net: &Network,
        n_nodes: usize,
    ) -> Self {
        debug_assert_eq!(spanner.k(), 2, "routing schemes use hop-diameter 2");
        let phi_n = spanner.phi_node_count();
        // Euler intervals of Φ via DFS over the parent structure.
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); phi_n];
        let mut root = 0;
        for node in 0..phi_n {
            match spanner.phi_parent(node) {
                Some(p) => children[p].push(node),
                None => root = node,
            }
        }
        let mut tin = vec![0u32; phi_n];
        let mut tout = vec![0u32; phi_n];
        let mut timer = 0u32;
        let mut stack = vec![(root, false)];
        while let Some((v, done)) = stack.pop() {
            if done {
                tout[v] = timer;
                continue;
            }
            tin[v] = timer;
            timer += 1;
            stack.push((v, true));
            for &c in &children[v] {
                stack.push((c, false));
            }
        }
        let phi_ref = |node: usize| PhiRef {
            node,
            tin: tin[node],
            tout: tout[node],
        };
        // Cut vertex per non-base node.
        let cut_of = |node: usize| -> usize {
            debug_assert!(!spanner.phi_is_base(node));
            spanner.phi_inner(node)[0] as usize
        };
        let ports_from_me = |me: usize, cand: &[u32]| -> CutPorts {
            CutPorts {
                member: cand.iter().any(|&c| c as usize == me),
                ports: cand
                    .iter()
                    .map(|&c| c as usize)
                    .map(|c| (c, if c == me { None } else { Some(net.port(me, c)) }))
                    .collect(),
            }
        };
        let ports_to_me = |me: usize, cand: &[u32]| -> CutPorts {
            CutPorts {
                member: cand.iter().any(|&c| c as usize == me),
                ports: cand
                    .iter()
                    .map(|&c| c as usize)
                    .map(|c| (c, if c == me { None } else { Some(net.port(c, me)) }))
                    .collect(),
            }
        };
        let mut labels: Vec<Option<NodeLabel>> = vec![None; n_nodes];
        let mut tables: Vec<NodeTable> = vec![NodeTable::default(); n_nodes];
        for v in 0..tree.len() {
            if !spanner.is_required(v) {
                continue;
            }
            // hopspan:allow(panic-in-lib) -- is_required(v) was checked, and required vertices have homes
            let home = spanner.home_node(v).expect("required vertex has a home");
            let pv = point_of(v);
            // Ancestor chain, shallowest first.
            let mut chain = Vec::new();
            let mut cur = Some(home);
            while let Some(node) = cur {
                chain.push(node);
                cur = spanner.phi_parent(node);
            }
            chain.reverse();
            let mut anc_in: Vec<CandidatePorts> = Vec::with_capacity(chain.len());
            let mut anc_out: Vec<CandidatePorts> = Vec::with_capacity(chain.len());
            let mut anc_refs: Vec<PhiRef> = Vec::with_capacity(chain.len());
            for &node in &chain {
                anc_refs.push(phi_ref(node));
                if spanner.phi_is_base(node) {
                    anc_in.push(None);
                    anc_out.push(None);
                    continue;
                }
                let cand = candidates(cut_of(node));
                // Ports from each candidate to me (for my label) and from
                // me to each candidate (for my table).
                anc_in.push(Some(ports_to_me(pv, cand)));
                anc_out.push(Some(ports_from_me(pv, cand)));
            }
            let home_is_base = spanner.phi_is_base(home);
            labels[pv] = Some(NodeLabel {
                id: pv,
                home: phi_ref(home),
                anc: anc_in,
            });
            let t = &mut tables[pv];
            t.home = Some(phi_ref(home));
            t.home_is_base = home_is_base;
            t.anc_refs = anc_refs;
            t.anc_out = anc_out;
        }
        // Base-case tables: for each base leaf, gather its subgraph and
        // precompute min-weight ≤2-hop routes between required members.
        for node in 0..phi_n {
            if !spanner.phi_is_base(node) {
                continue;
            }
            let members = base_members(spanner, node);
            let required: Vec<usize> = members
                .iter()
                .copied()
                .filter(|&m| spanner.is_required(m) && spanner.home_node(m) == Some(node))
                .collect();
            for &a in &required {
                let pa = point_of(a);
                for &b in &required {
                    if a == b {
                        continue;
                    }
                    let pb = point_of(b);
                    let route = if pa == pb {
                        BaseRoute::SameNode
                    } else {
                        match best_base_route(spanner, a, b) {
                            BasePath::Direct => BaseRoute::Direct(net.port(pa, pb)),
                            BasePath::Via(mid) => {
                                let cand = candidates(mid);
                                if cand.iter().any(|&c| c as usize == pa || c as usize == pb) {
                                    // The intermediate materializes onto an
                                    // endpoint: route directly.
                                    BaseRoute::Direct(net.port(pa, pb))
                                } else {
                                    BaseRoute::Via(
                                        cand.iter()
                                            .map(|&c| {
                                                let c = c as usize;
                                                (c, net.port(pa, c), net.port(c, pb))
                                            })
                                            .collect(),
                                    )
                                }
                            }
                        }
                    };
                    tables[pa].base.insert((node, pb), route);
                }
            }
        }
        PerTreeScheme { labels, tables }
    }

    /// The source decision: returns `(port, header)` — or `None` when the
    /// destination shares the source node. Counts decision steps into
    /// `steps`.
    pub fn decide(
        &self,
        u: usize,
        label: &NodeLabel,
        faulty: &HashSet<usize>,
        steps: &mut usize,
    ) -> Result<Option<(usize, Header)>, RoutingError> {
        let t = &self.tables[u];
        let Some(home_u) = t.home else {
            return Err(RoutingError::BadEndpoint { node: u });
        };
        if label.id == u {
            return Ok(None);
        }
        *steps += 1;
        // Same base case: the precomputed base route.
        if home_u.node == label.home.node && t.home_is_base {
            let route = t
                .base
                .get(&(home_u.node, label.id))
                .ok_or(RoutingError::Undeliverable)?;
            return match route {
                BaseRoute::SameNode => Ok(None),
                BaseRoute::Direct(p) => Ok(Some((*p, Header::Empty))),
                BaseRoute::Via(cands) => {
                    let (_, out, hint) = cands
                        .iter()
                        .find(|(c, _, _)| !faulty.contains(c))
                        .ok_or(RoutingError::Undeliverable)?;
                    *steps += cands.len().min(faulty.len() + 1);
                    Ok(Some((*out, Header::PortHint(*hint))))
                }
            };
        }
        // λ = deepest ancestor of home(u) that is an ancestor of home(v):
        // the ancestors of home(v) form a prefix of u's chain, so binary
        // search on interval containment.
        let chain = &t.anc_refs;
        let (mut lo, mut hi) = (0usize, chain.len() - 1);
        debug_assert!(chain[0].is_ancestor_of(&label.home), "roots differ");
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            *steps += 1;
            if chain[mid].is_ancestor_of(&label.home) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        let lambda = chain[lo];
        let depth = lo;
        let _ = lambda;
        let lin = label.anc[depth]
            .as_ref()
            .ok_or(RoutingError::Undeliverable)?;
        let lout = t.anc_out[depth]
            .as_ref()
            .ok_or(RoutingError::Undeliverable)?;
        // Case A: I am one of the cut's candidates — the biclique gives a
        // direct edge to the destination; its port is in the label.
        if lout.member {
            let (_, p) = lin
                .ports
                .iter()
                .find(|(c, _)| *c == u)
                .ok_or(RoutingError::Undeliverable)?;
            let p = p.ok_or(RoutingError::Undeliverable)?;
            return Ok(Some((p, Header::Empty)));
        }
        // Case B: the destination is one of the cut's candidates — direct
        // edge, port from my table.
        if lin.member {
            let (_, p) = lout
                .ports
                .iter()
                .find(|(c, _)| *c == label.id)
                .ok_or(RoutingError::Undeliverable)?;
            let p = p.ok_or(RoutingError::Undeliverable)?;
            return Ok(Some((p, Header::Empty)));
        }
        // General case: two hops via a (non-faulty) candidate of the cut.
        for (i, (c, out)) in lout.ports.iter().enumerate() {
            *steps += 1;
            if faulty.contains(c) {
                continue;
            }
            let out = out.ok_or(RoutingError::Undeliverable)?;
            let (c2, hint) = lin.ports.get(i).ok_or(RoutingError::Undeliverable)?;
            debug_assert_eq!(c, c2, "candidate orders must align");
            let hint = hint.ok_or(RoutingError::Undeliverable)?;
            return Ok(Some((out, Header::PortHint(hint))));
        }
        Err(RoutingError::Undeliverable)
    }

    /// Serialized label size in bits.
    pub fn label_bits(&self, node: usize, id_bits: usize, port_bits: usize) -> usize {
        match &self.labels[node] {
            None => 0,
            Some(l) => {
                // id + home ref (id + 2 interval words) + entries.
                let mut bits = id_bits + 3 * id_bits + 1;
                for e in &l.anc {
                    bits += 1 + e
                        .as_ref()
                        .map_or(0, |v| 1 + v.ports.len() * (id_bits + port_bits));
                }
                bits
            }
        }
    }

    /// Serialized table size in bits.
    pub fn table_bits(&self, node: usize, id_bits: usize, port_bits: usize) -> usize {
        let t = &self.tables[node];
        let mut bits = 2 + if t.home.is_some() { 3 * id_bits } else { 0 };
        for r in &t.anc_refs {
            let _ = r;
            bits += 3 * id_bits;
        }
        for e in &t.anc_out {
            bits += 1 + e
                .as_ref()
                .map_or(0, |v| 1 + v.ports.len() * (id_bits + port_bits));
        }
        for route in t.base.values() {
            bits += 2 * id_bits; // key
            bits += match route {
                BaseRoute::SameNode => 1,
                BaseRoute::Direct(_) => 1 + port_bits,
                BaseRoute::Via(v) => 1 + v.len() * (id_bits + 2 * port_bits),
            };
        }
        bits
    }
}

/// All tree vertices reachable in the base subgraph of `node`.
fn base_members(spanner: &TreeHopSpanner, node: usize) -> Vec<usize> {
    let mut stack: Vec<usize> = spanner
        .phi_inner(node)
        .iter()
        .map(|&v| v as usize)
        .collect();
    let mut seen: HashSet<usize> = stack.iter().copied().collect();
    let mut out = Vec::new();
    while let Some(v) = stack.pop() {
        out.push(v);
        if let Some(nb) = spanner.base_neighbors(v) {
            for &(w, _) in nb {
                if seen.insert(w) {
                    stack.push(w);
                }
            }
        }
    }
    out
}

enum BasePath {
    Direct,
    Via(usize),
}

/// Minimum-weight ≤2-hop path from `a` to `b` in the base subgraph.
fn best_base_route(spanner: &TreeHopSpanner, a: usize, b: usize) -> BasePath {
    // hopspan:allow(panic-in-lib) -- callers pass members of this base case only
    let nb_a = spanner.base_neighbors(a).expect("base member");
    let mut best: Option<(f64, BasePath)> = None;
    for &(x, w1) in nb_a {
        if x == b {
            if best.as_ref().is_none_or(|(bw, _)| w1 < *bw) {
                best = Some((w1, BasePath::Direct));
            }
            continue;
        }
        if let Some(nb_x) = spanner.base_neighbors(x) {
            for &(y, w2) in nb_x {
                if y == b && best.as_ref().is_none_or(|(bw, _)| w1 + w2 < *bw) {
                    best = Some((w1 + w2, BasePath::Via(x)));
                }
            }
        }
    }
    // hopspan:allow(panic-in-lib) -- Theorem 1.1 base cases are 2-hop connected by construction
    best.expect("base case has a <=2-hop path between required members")
        .1
}

/// Drives a packet through the network using one tree's scheme,
/// writing into a caller-owned trace whose path buffer is reused across
/// queries. The trace is reset first; on error its contents are
/// unspecified.
pub(crate) fn route_on_tree_into(
    scheme: &PerTreeScheme,
    net: &Network,
    u: usize,
    v: usize,
    faulty: &HashSet<usize>,
    trace: &mut RouteTrace,
) -> Result<(), RoutingError> {
    trace.path.clear();
    let label = scheme.labels[v]
        .as_ref()
        .ok_or(RoutingError::BadEndpoint { node: v })?;
    let mut steps = 0usize;
    trace.path.push(u);
    let mut header_bits = Header::Empty.bits(net.id_bits(), net.port_bits());
    match scheme.decide(u, label, faulty, &mut steps)? {
        None => {}
        Some((port, header)) => {
            header_bits = header_bits.max(header.bits(net.id_bits(), net.port_bits()));
            let mid = net.target(u, port);
            trace.path.push(mid);
            match header {
                Header::Empty => {}
                Header::PortHint(p) => {
                    // The intermediate's decision is a single port read.
                    steps += 1;
                    let dest = net.target(mid, p);
                    trace.path.push(dest);
                }
            }
        }
    }
    if trace.path.last() != Some(&v) {
        return Err(RoutingError::Undeliverable);
    }
    trace.max_header_bits = header_bits;
    trace.decision_steps = steps;
    Ok(())
}
