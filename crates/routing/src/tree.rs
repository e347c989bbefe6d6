//! 2-hop stretch-1 routing for tree metrics (Theorem 5.1).
//!
//! The overlay network is the k = 2 Solomon 1-spanner of the tree
//! (`O(n log n)` edges); labels and tables take `O(log²n)` bits; headers
//! take `O(log n)` bits; every packet is delivered along a 2-hop path of
//! weight exactly the tree distance.

use std::collections::HashSet;

use hopspan_tree_spanner::{TreeHopSpanner, TreeSpannerError};
use hopspan_treealg::RootedTree;
use rand::Rng;

use crate::network::{Header, Network, RouteTrace};
use crate::scheme::{route_on_tree_into, PerTreeScheme, RoutingError, SchemeStats};

/// A 2-hop routing scheme for a tree metric in the labeled fixed-port
/// model.
///
/// # Examples
///
/// ```
/// use hopspan_routing::TreeRoutingScheme;
/// use hopspan_treealg::RootedTree;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
/// let edges: Vec<_> = (1..10).map(|v| (v - 1, v, 1.0)).collect();
/// let tree = RootedTree::from_edges(10, 0, &edges)?;
/// let scheme = TreeRoutingScheme::new(&tree, &mut rng)?;
/// let trace = scheme.route(0, 9)?;
/// assert!(trace.hops() <= 2);
/// assert_eq!(*trace.path.last().unwrap(), 9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TreeRoutingScheme {
    net: Network,
    scheme: PerTreeScheme,
    stats: SchemeStats,
    n: usize,
}

impl TreeRoutingScheme {
    /// Preprocesses `tree`: builds the k = 2 spanner overlay (ports
    /// permuted adversarially by `rng`), the labels and the tables.
    ///
    /// # Errors
    ///
    /// Propagates tree-spanner construction failures.
    pub fn new<R: Rng>(tree: &RootedTree, rng: &mut R) -> Result<Self, TreeSpannerError> {
        let n = tree.len();
        let spanner = TreeHopSpanner::new(tree, 2)?;
        let overlay: Vec<(usize, usize)> =
            spanner.edges().iter().map(|&(a, b, _)| (a, b)).collect();
        let net = Network::new(n, &overlay, rng);
        // Every tree vertex is its own network node.
        let ids: Vec<u32> = (0..n as u32).collect();
        let scheme = PerTreeScheme::build(tree, &spanner, &|tv| tv, &|tv| &ids[tv..=tv], &net, n);
        let (id_bits, port_bits) = (net.id_bits(), net.port_bits());
        let mut stats = SchemeStats {
            header_bits: Header::PortHint(0).bits(id_bits, port_bits),
            ..Default::default()
        };
        for v in 0..n {
            stats.max_label_bits = stats
                .max_label_bits
                .max(scheme.label_bits(v, id_bits, port_bits));
            stats.max_table_bits = stats
                .max_table_bits
                .max(scheme.table_bits(v, id_bits, port_bits));
        }
        Ok(TreeRoutingScheme {
            net,
            scheme,
            stats,
            n,
        })
    }

    /// Routes a packet from `u` to `v`; the trace records hops, header
    /// bits and decision steps.
    ///
    /// # Errors
    ///
    /// Returns a [`RoutingError`] for invalid endpoints.
    pub fn route(&self, u: usize, v: usize) -> Result<RouteTrace, RoutingError> {
        let mut trace = RouteTrace::default();
        self.route_into(u, v, &mut trace)?;
        Ok(trace)
    }

    /// Like [`TreeRoutingScheme::route`], but writes into a caller-owned
    /// trace whose path buffer is reused across queries (no per-query
    /// allocation once the buffer is warm). The trace is reset first; on
    /// error its contents are unspecified.
    ///
    /// # Errors
    ///
    /// Returns a [`RoutingError`] for invalid endpoints.
    pub fn route_into(
        &self,
        u: usize,
        v: usize,
        trace: &mut RouteTrace,
    ) -> Result<(), RoutingError> {
        if u >= self.n {
            return Err(RoutingError::BadEndpoint { node: u });
        }
        // hopspan:allow(alloc-on-query-path) -- an empty HashSet never heap-allocates; this path routes with a vacuously empty fault set
        route_on_tree_into(&self.scheme, &self.net, u, v, &HashSet::new(), trace)
    }

    /// Size statistics (bits).
    pub fn stats(&self) -> SchemeStats {
        self.stats
    }

    /// The overlay network.
    pub fn network(&self) -> &Network {
        &self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(505)
    }

    fn check_all_pairs(tree: &RootedTree) {
        let rs = TreeRoutingScheme::new(tree, &mut rng()).unwrap();
        for u in 0..tree.len() {
            for v in 0..tree.len() {
                let trace = rs.route(u, v).unwrap();
                assert_eq!(*trace.path.first().unwrap(), u);
                assert_eq!(*trace.path.last().unwrap(), v);
                assert!(trace.hops() <= 2, "hops {} for ({u},{v})", trace.hops());
                // Stretch 1: route weight equals the tree distance.
                let mut w = 0.0;
                for win in trace.path.windows(2) {
                    w += tree.distance_slow(win[0], win[1]);
                }
                let want = tree.distance_slow(u, v);
                assert!(
                    (w - want).abs() <= 1e-9 * want.max(1.0),
                    "stretch > 1 on ({u},{v}): {w} vs {want}"
                );
            }
        }
    }

    fn path_tree(n: usize) -> RootedTree {
        let edges: Vec<_> = (1..n).map(|v| (v - 1, v, 1.0 + (v % 3) as f64)).collect();
        RootedTree::from_edges(n, 0, &edges).unwrap()
    }

    fn random_tree(n: usize, seed: u64) -> RootedTree {
        let mut s = seed;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let edges: Vec<_> = (1..n)
            .map(|v| ((next() as usize) % v, v, 1.0 + (next() % 50) as f64 / 10.0))
            .collect();
        RootedTree::from_edges(n, 0, &edges).unwrap()
    }

    #[test]
    fn paths() {
        for n in [2, 5, 17, 40] {
            check_all_pairs(&path_tree(n));
        }
    }

    #[test]
    fn stars_and_binary() {
        let star_edges: Vec<_> = (1..15).map(|v| (0, v, v as f64)).collect();
        check_all_pairs(&RootedTree::from_edges(15, 0, &star_edges).unwrap());
        let bin_edges: Vec<_> = (1..31).map(|v| ((v - 1) / 2, v, 1.0)).collect();
        check_all_pairs(&RootedTree::from_edges(31, 0, &bin_edges).unwrap());
    }

    #[test]
    fn random_trees() {
        for (i, n) in [10usize, 33, 77].into_iter().enumerate() {
            check_all_pairs(&random_tree(n, 0xBADC0DE + i as u64));
        }
    }

    #[test]
    fn label_and_table_bits_are_polylog() {
        let n = 256usize;
        let rs = TreeRoutingScheme::new(&path_tree(n), &mut rng()).unwrap();
        let stats = rs.stats();
        let log_n = 8usize;
        // O(log²n) with a modest constant.
        let budget = 20 * log_n * log_n;
        assert!(
            stats.max_label_bits <= budget,
            "label {}",
            stats.max_label_bits
        );
        assert!(
            stats.max_table_bits <= budget,
            "table {}",
            stats.max_table_bits
        );
        assert!(stats.header_bits <= 2 * log_n);
    }

    #[test]
    fn different_port_adversaries_still_route() {
        let t = path_tree(20);
        for seed in 0..5u64 {
            let mut r = ChaCha8Rng::seed_from_u64(seed);
            let rs = TreeRoutingScheme::new(&t, &mut r).unwrap();
            let trace = rs.route(0, 19).unwrap();
            assert_eq!(*trace.path.last().unwrap(), 19);
            assert!(trace.hops() <= 2);
        }
    }
}
