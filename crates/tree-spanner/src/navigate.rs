//! `FindPath` (Algorithm 2): O(k)-time queries for k-hop 1-spanner paths.
//!
//! The query path is allocation-free and map-free: every table consulted
//! here is a dense `Vec` built by `construct` (contracted ids, component
//! indices, precomputed base-case paths), and the output is appended to
//! a caller-owned buffer. Each endpoint's home pointer is supplied by
//! the caller — densified at the top level, read from
//! [`Sub::cut_home`](crate::construct::Sub::cut_home) when recursing
//! into a sub-navigator.

use crate::construct::{Contracted, Navigator};

/// A query endpoint with its home pointer: the original vertex id, its
/// home Φ node and its home slot within that node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Homed {
    /// Original vertex id.
    pub vertex: usize,
    /// Home Φ node index.
    pub node: usize,
    /// Slot of the vertex within its home node.
    pub slot: u32,
}

impl Navigator {
    /// Appends a 1-spanner path (original vertex ids, endpoints
    /// included) between required vertices `u` and `v` with at most `k`
    /// hops to `out`, which is cleared first.
    pub(crate) fn find_path_into(&self, u: Homed, v: Homed, out: &mut Vec<usize>) {
        out.clear();
        self.find_path_inner(u, v, out);
        // A single final pass: consecutive-duplicate removal distributes
        // over concatenation, so deduping once here is exactly the
        // former per-recursion-level dedup.
        out.dedup();
    }

    /// The recursive arm: appends the (not yet deduplicated) path.
    fn find_path_inner(&self, u: Homed, v: Homed, out: &mut Vec<usize>) {
        if u.vertex == v.vertex {
            out.push(u.vertex);
            return;
        }
        let node_u = self.nodes[u.node];
        // Base case: both endpoints in the same HandleBaseCase leaf.
        if u.node == v.node && node_u.is_base() {
            let path = self.base_path(node_u, u.slot, v.slot);
            out.extend(path.iter().map(|&x| x as usize));
            return;
        }
        let beta = self.phi_lca.lca(u.node, v.node);
        let node = self.nodes[beta];
        let inner = self.inner_of(node);
        if self.k == 2 {
            // β corresponds to a single cut vertex (|CV| = 1 for k = 2).
            out.push(u.vertex);
            out.push(inner[0] as usize);
            out.push(v.vertex);
            return;
        }
        // build_call attaches a contracted tree to every non-base node
        // for k ≥ 3.
        let ct = &self.contracted[node.contracted as usize];
        let u_cv = self.locate_contracted(u.node, u.slot, beta, ct);
        let v_cv = self.locate_contracted(v.node, v.slot, beta, ct);
        debug_assert_ne!(
            u_cv, v_cv,
            "distinct homes map to distinct quotient vertices"
        );
        let c = ct.lca.lca(u_cv, v_cv);
        let x_slot = find_cut(u.node, beta, u_cv, v_cv, ct, c) - ct.rep_count as usize;
        let y_slot = find_cut(v.node, beta, v_cv, u_cv, ct, c) - ct.rep_count as usize;
        let x = inner[x_slot] as usize;
        let y = inner[y_slot] as usize;
        out.push(u.vertex);
        match &ct.sub {
            None => {
                out.push(x);
                out.push(y);
            }
            Some(sub) => {
                let (hx, sx) = sub.cut_home[x_slot];
                let (hy, sy) = sub.cut_home[y_slot];
                sub.nav.find_path_inner(
                    Homed {
                        vertex: x,
                        node: hx as usize,
                        slot: sx,
                    },
                    Homed {
                        vertex: y,
                        node: hy as usize,
                        slot: sy,
                    },
                    out,
                );
            }
        }
        out.push(v.vertex);
    }

    /// `LocateContracted` (Algorithm 2): the vertex of 𝒯_β corresponding
    /// to `u` — its cut vertex if `u` is an inner vertex of β, otherwise
    /// the representative of the component containing `u`.
    fn locate_contracted(&self, hu: usize, su: u32, beta: usize, ct: &Contracted) -> usize {
        if hu == beta {
            ct.rep_count as usize + su as usize
        } else {
            let child = self.phi_la.level_ancestor(hu, self.phi_la.depth(beta) + 1);
            self.comp_of_node[child] as usize
        }
    }
}

/// `FindCut` (Algorithm 2): the first cut vertex on the path from `u_cv`
/// toward `v_cv` in the contracted tree.
fn find_cut(hu: usize, beta: usize, u_cv: usize, v_cv: usize, ct: &Contracted, c: usize) -> usize {
    if hu == beta {
        return u_cv; // u is itself a cut vertex of this level.
    }
    let first = if u_cv == c {
        ct.la.child_toward(u_cv, v_cv)
    } else {
        // hopspan:allow(panic-in-lib) -- u_cv ≠ c, and only the LCA can be the contracted root here
        ct.la.parent(u_cv).expect("non-LCA vertex has a parent")
    };
    debug_assert!(
        first >= ct.rep_count as usize,
        "representatives are only adjacent to cut vertices"
    );
    first
}
