//! The fixed-port overlay network simulator.

use rand::seq::SliceRandom;
use rand::Rng;

/// A packet header (at most O(log n) bits in every scheme here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Header {
    /// Nothing: the next node is the destination.
    Empty,
    /// The port the *next* node must forward on (2-hop schemes).
    PortHint(usize),
}

impl Header {
    /// Serialized size in bits, given id/port widths.
    pub fn bits(&self, id_bits: usize, port_bits: usize) -> usize {
        let _ = id_bits;
        1 + match self {
            Header::Empty => 0,
            Header::PortHint(_) => port_bits,
        }
    }
}

/// An undirected overlay network with adversarially permuted fixed ports.
///
/// Both directions of the port map are flat CSR tables over one offset
/// array: node `v`'s entries are `off[v]..off[v + 1]` of each.
#[derive(Debug)]
pub struct Network {
    /// CSR offsets, `n + 1` entries.
    off: Vec<usize>,
    /// `targets[off[v] + p]` = neighbor reached from `v` through port `p`.
    targets: Vec<usize>,
    /// Per node, `(neighbor, port)` sorted by neighbor, for [`Network::port`].
    ports: Vec<(usize, usize)>,
    /// Maximum degree, which sets the port width every route reads.
    max_degree: usize,
}

impl Network {
    /// Builds the network over `n` nodes from undirected edges, permuting
    /// each node's port order with `rng` (the adversary). Self-loops and
    /// repeated edges are dropped; before the permutation, each node
    /// lists its neighbors in the order of their first edge.
    pub fn new<R: Rng>(n: usize, edges: &[(usize, usize)], rng: &mut R) -> Self {
        // Every edge's endpoints, repeats included, bucketed by node in
        // edge order.
        let mut raw_off = vec![0usize; n + 1];
        for &(u, v) in edges {
            if u != v {
                raw_off[u + 1] += 1;
                raw_off[v + 1] += 1;
            }
        }
        for v in 0..n {
            raw_off[v + 1] += raw_off[v];
        }
        let mut cursor = raw_off.clone();
        let mut raw = vec![0usize; raw_off[n]];
        for &(u, v) in edges {
            if u != v {
                raw[cursor[u]] = v;
                cursor[u] += 1;
                raw[cursor[v]] = u;
                cursor[v] += 1;
            }
        }
        // Keep each neighbor's first occurrence (`last[w] == v` marks w
        // as already listed at v), then permute the ports.
        let mut last = vec![usize::MAX; n];
        let mut off = Vec::with_capacity(n + 1);
        off.push(0);
        let mut targets = Vec::with_capacity(raw.len());
        for v in 0..n {
            let start = targets.len();
            for &w in &raw[raw_off[v]..raw_off[v + 1]] {
                if last[w] != v {
                    last[w] = v;
                    targets.push(w);
                }
            }
            targets[start..].shuffle(rng);
            off.push(targets.len());
        }
        targets.shrink_to_fit();
        let mut ports: Vec<(usize, usize)> = Vec::with_capacity(targets.len());
        for v in 0..n {
            let start = ports.len();
            ports.extend(
                targets[off[v]..off[v + 1]]
                    .iter()
                    .enumerate()
                    .map(|(p, &w)| (w, p)),
            );
            // Neighbors are distinct, so the unstable sort is exact.
            ports[start..].sort_unstable();
        }
        let max_degree = off.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        Network {
            off,
            targets,
            ports,
            max_degree,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.off.len() - 1
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The port at `from` leading to `to`, by binary search over
    /// `from`'s ports sorted by neighbor.
    ///
    /// # Panics
    ///
    /// Panics if the overlay has no `(from, to)` edge.
    pub fn port(&self, from: usize, to: usize) -> usize {
        let ports = &self.ports[self.off[from]..self.off[from + 1]];
        match ports.binary_search_by_key(&to, |&(w, _)| w) {
            Ok(i) => ports[i].1,
            // hopspan:allow(panic-in-lib) -- documented # Panics: port() is a programmer-error API
            Err(_) => panic!("no overlay edge ({from}, {to})"),
        }
    }

    /// The node reached from `v` through port `p`.
    pub fn target(&self, v: usize, p: usize) -> usize {
        self.targets[self.off[v]..self.off[v + 1]][p]
    }

    /// Degree of `v` in the overlay.
    pub fn degree(&self, v: usize) -> usize {
        self.off[v + 1] - self.off[v]
    }

    /// Maximum degree (determines port width in bits).
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Number of overlay edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Bits needed for a port number.
    pub fn port_bits(&self) -> usize {
        bits_for(self.max_degree().max(1))
    }

    /// Bits needed for a node id.
    pub fn id_bits(&self) -> usize {
        bits_for(self.len().max(1))
    }
}

/// ⌈log₂(x)⌉ for x ≥ 1 (at least 1).
pub(crate) fn bits_for(x: usize) -> usize {
    (usize::BITS - x.saturating_sub(1).leading_zeros()).max(1) as usize
}

/// The trace of one delivered packet.
#[derive(Debug, Clone, Default)]
pub struct RouteTrace {
    /// Nodes visited, source first, destination last.
    pub path: Vec<usize>,
    /// Maximum header size (bits) seen in flight.
    pub max_header_bits: usize,
    /// Total local decision steps (comparisons/lookups) performed.
    pub decision_steps: usize,
}

impl RouteTrace {
    /// Number of hops taken.
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn ports_are_consistent() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let net = Network::new(4, &[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)], &mut rng);
        for v in 0..4 {
            for p in 0..net.degree(v) {
                let w = net.target(v, p);
                assert_eq!(net.port(v, w), p);
            }
        }
        assert_eq!(net.edge_count(), 5);
        assert_eq!(net.degree(0), 3);
        assert!(net.port_bits() >= 2);
    }

    #[test]
    fn duplicate_and_self_edges_ignored() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let net = Network::new(3, &[(0, 1), (1, 0), (2, 2)], &mut rng);
        assert_eq!(net.edge_count(), 1);
        assert_eq!(net.degree(2), 0);
    }

    #[test]
    fn ports_follow_first_occurrence_then_the_shuffle() {
        // Node 0 first meets 3, then 1, then 2 (the repeats of 1 and 3
        // are dropped), so its ports are that list shuffled by the same
        // draws the rng makes for node 0.
        let edges = [(3, 0), (0, 1), (1, 0), (2, 0), (0, 3), (1, 2)];
        let net = Network::new(4, &edges, &mut ChaCha8Rng::seed_from_u64(11));
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut want = vec![3, 1, 2];
        want.shuffle(&mut rng);
        let got: Vec<usize> = (0..net.degree(0)).map(|p| net.target(0, p)).collect();
        assert_eq!(got, want);
        for v in 0..4 {
            for p in 0..net.degree(v) {
                assert_eq!(net.port(v, net.target(v, p)), p);
            }
        }
    }

    #[test]
    #[should_panic(expected = "no overlay edge (0, 2)")]
    fn missing_port_panics() {
        let net = Network::new(3, &[(0, 1)], &mut ChaCha8Rng::seed_from_u64(7));
        net.port(0, 2);
    }

    #[test]
    fn header_bits() {
        assert_eq!(Header::Empty.bits(10, 4), 1);
        assert_eq!(Header::PortHint(3).bits(10, 4), 5);
    }
}
