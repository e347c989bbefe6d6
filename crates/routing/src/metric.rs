//! Routing in metric spaces via tree covers (Theorems 1.3 and 5.2,
//! §5.1.2 and §5.2), one builder for both.
//!
//! Every node carries, per tree of the cover, its tree-routing label and
//! table (§5.1.1), plus a distance label used to select the tree. Each
//! tree is `hopspan-core`'s [`TreeOverlay`] at k = 2: the tree spanner
//! with every vertex realized by its candidate set `R(v)`. The plain
//! schemes take f = 0, so `R(v)` is the vertex's own point and the
//! overlay is the spanner `H_X` that Theorem 1.2 navigates; the
//! fault-tolerant scheme takes f > 0 and gets the biclique spanner of
//! Theorem 4.2. For Ramsey covers the destination's label names its
//! home tree and selection is O(1); for the other covers the source
//! decodes ζ distance labels and picks the minimum.

use std::collections::HashSet;

use hopspan_core::{EdgeMerger, TreeOverlay};
use hopspan_metric::{path_weight, Graph, Metric};
use hopspan_pipeline::BuildStats;
use hopspan_tree_cover::{
    DominatingTree, LeafTable, RamseyTreeCover, RobustTreeCover, SeparatorTreeCover,
};
use hopspan_treealg::DistanceLabeling;
use rand::Rng;

use crate::network::{Header, Network, RouteTrace};
use crate::scheme::{route_on_tree_into, PerTreeScheme, RoutingError, SchemeStats};
use crate::NavBuildError;

/// One tree of the cover with its routing structures. Of the cover
/// tree itself it keeps only its point → leaf table (taken over by
/// move), which tree selection and the bit accounting read.
#[derive(Debug)]
pub(crate) struct TreeUnit {
    pub(crate) leaf_of: LeafTable,
    pub(crate) scheme: PerTreeScheme,
    pub(crate) labeling: DistanceLabeling,
}

/// A 2-hop routing scheme for a metric space (Theorem 1.3).
///
/// # Examples
///
/// ```
/// use hopspan_metric::gen;
/// use hopspan_routing::MetricRoutingScheme;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
/// let points = gen::uniform_points(16, 2, &mut rng);
/// let scheme = MetricRoutingScheme::doubling(&points, 0.5, &mut rng)?;
/// let trace = scheme.route(2, 13)?;
/// assert!(trace.hops() <= 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MetricRoutingScheme {
    pub(crate) net: Network,
    pub(crate) trees: Vec<TreeUnit>,
    /// The home tree of every point (Ramsey covers), else `None`.
    home: Option<Vec<usize>>,
    pub(crate) n: usize,
    stats: SchemeStats,
}

impl MetricRoutingScheme {
    /// Builds the scheme for a doubling metric ((1+O(ε)) stretch).
    ///
    /// # Errors
    ///
    /// Propagates cover and spanner construction failures.
    pub fn doubling<M: Metric + Sync, R: Rng>(
        metric: &M,
        eps: f64,
        rng: &mut R,
    ) -> Result<Self, NavBuildError> {
        Self::doubling_with_stats(metric, eps, rng, None).map(|(rs, _)| rs)
    }

    /// Like [`MetricRoutingScheme::doubling`], with explicit control
    /// over the preprocessing worker count (`None` = automatic) and the
    /// build telemetry returned alongside the scheme.
    ///
    /// # Errors
    ///
    /// Propagates cover and spanner construction failures.
    pub fn doubling_with_stats<M: Metric + Sync, R: Rng>(
        metric: &M,
        eps: f64,
        rng: &mut R,
        workers: Option<usize>,
    ) -> Result<(Self, BuildStats), NavBuildError> {
        Self::robust_with_stats(metric, eps, 0, rng, workers)
    }

    /// The scheme over the robust tree cover with parameter `eps`, every
    /// tree vertex realized by its candidate set `R(v)` of tolerance
    /// `f`: Theorem 1.3's doubling scheme at f = 0, Theorem 5.2's
    /// overlay and labels at f > 0.
    pub(crate) fn robust_with_stats<M: Metric + Sync, R: Rng>(
        metric: &M,
        eps: f64,
        f: usize,
        rng: &mut R,
        workers: Option<usize>,
    ) -> Result<(Self, BuildStats), NavBuildError> {
        let workers = hopspan_pipeline::resolve_workers(workers);
        let mut stats = BuildStats::new(workers);
        let (cover, cover_stats) = RobustTreeCover::new_with_stats(metric, eps, Some(workers))?;
        stats.absorb("cover", cover_stats);
        stats.tree_count = 0;
        let (rs, rs_stats) = Self::from_trees_with_stats(
            metric,
            cover.into_cover().into_trees(),
            None,
            f,
            rng,
            Some(workers),
        )?;
        stats.absorb("", rs_stats);
        Ok((rs, stats))
    }

    /// Builds the scheme for a general metric via a Ramsey cover
    /// (O(ℓ) stretch, O(1) selection).
    ///
    /// # Errors
    ///
    /// Propagates cover and spanner construction failures.
    pub fn general<M: Metric, R: Rng>(
        metric: &M,
        ell: usize,
        rng: &mut R,
    ) -> Result<Self, NavBuildError> {
        let cover = RamseyTreeCover::new(metric, ell, rng)?;
        let home: Vec<usize> = (0..metric.len()).map(|p| cover.home(p)).collect();
        Self::from_trees(metric, cover.into_cover().into_trees(), Some(home), rng)
    }

    /// Builds the scheme for a planar graph metric.
    ///
    /// # Errors
    ///
    /// Propagates cover and spanner construction failures.
    pub fn planar<M: Metric, R: Rng>(
        graph: &Graph,
        metric: &M,
        eps: f64,
        rng: &mut R,
    ) -> Result<Self, NavBuildError> {
        let cover = SeparatorTreeCover::new(graph, eps)?;
        Self::from_trees(metric, cover.into_cover().into_trees(), None, rng)
    }

    fn from_trees<M: Metric, R: Rng>(
        metric: &M,
        doms: Vec<DominatingTree>,
        home: Option<Vec<usize>>,
        rng: &mut R,
    ) -> Result<Self, NavBuildError> {
        Self::from_trees_with_stats(metric, doms, home, 0, rng, None).map(|(rs, _)| rs)
    }

    /// The one builder: every tree's [`TreeOverlay`] at k = 2 with
    /// tolerance `f`, the overlay network over their merged pairs, and
    /// the per-tree labels and tables.
    fn from_trees_with_stats<M: Metric, R: Rng>(
        metric: &M,
        doms: Vec<DominatingTree>,
        home: Option<Vec<usize>>,
        f: usize,
        rng: &mut R,
        workers: Option<usize>,
    ) -> Result<(Self, BuildStats), NavBuildError> {
        let n = metric.len();
        let workers = hopspan_pipeline::resolve_workers(workers);
        let mut stats = BuildStats::new(workers);
        // Per-tree spanners, candidate sets and point pairs fan out over
        // scoped workers (they never read the metric); the overlay is
        // merged sequentially in tree-index order, so it is identical
        // for every worker count.
        let mut overlays: Vec<TreeOverlay> = stats.phase("spanners", || {
            hopspan_pipeline::try_parallel_map_owned(workers, doms, |_, dom| {
                TreeOverlay::new(dom, 2, f)
            })?
            .into_iter()
            .collect::<Result<_, _>>()
            .map_err(NavBuildError::Spanner)
        })?;
        stats.tree_count = overlays.len();
        stats.per_tree_spanner_edges = overlays.iter().map(|t| t.spanner.edges().len()).collect();
        stats.edge_instances = overlays.iter().map(|t| t.instances).sum();
        let overlay_start = std::time::Instant::now();
        // The merge yields each pair once, sorted by (u, v), so the
        // network draws its port permutations in a fixed order.
        let mut merger = EdgeMerger::default();
        for t in &mut overlays {
            merger.extend(std::mem::take(&mut t.pairs));
        }
        let pairs: Vec<(usize, usize)> = merger
            .finish(metric)
            .into_iter()
            .map(|(u, v, _)| (u, v))
            .collect();
        stats.edges_after_dedup = pairs.len();
        let net = Network::new(n, &pairs, rng);
        stats.record_phase("overlay", overlay_start.elapsed());
        let schemes_start = std::time::Instant::now();
        let trees: Vec<TreeUnit> = overlays
            .into_iter()
            .map(|t| TreeUnit {
                scheme: PerTreeScheme::build(
                    t.dom.tree(),
                    &t.spanner,
                    &|tv| t.dom.point_of(tv),
                    &|tv| t.candidates.of(tv),
                    &net,
                    n,
                ),
                labeling: DistanceLabeling::new(t.dom.tree()),
                leaf_of: t.dom.into_leaves(),
            })
            .collect();
        let header_bits = Header::PortHint(0).bits(net.id_bits(), net.port_bits());
        let mut scheme = MetricRoutingScheme {
            net,
            trees,
            home,
            n,
            stats: SchemeStats {
                header_bits,
                ..Default::default()
            },
        };
        for (label, table) in scheme.per_point_bits() {
            scheme.stats.max_label_bits = scheme.stats.max_label_bits.max(label);
            scheme.stats.max_table_bits = scheme.stats.max_table_bits.max(table);
        }
        stats.record_phase("schemes", schemes_start.elapsed());
        Ok((scheme, stats))
    }

    /// Number of trees ζ.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// Size statistics (bits), including the distance labels.
    pub fn stats(&self) -> SchemeStats {
        self.stats
    }

    /// The §5 bit budget per point: for each point, its total
    /// `(label_bits, table_bits)` summed across the scheme's trees —
    /// the per-tree routing label/table, the distance label riding
    /// along in both (paper §5.1.2), and the home-tree index in the
    /// label for Ramsey covers. [`MetricRoutingScheme::stats`] reports
    /// the maxima of exactly these values; this accessor exposes the
    /// full distribution for accounting and persistence.
    pub fn per_point_bits(&self) -> Vec<(usize, usize)> {
        let (id_bits, port_bits) = (self.net.id_bits(), self.net.port_bits());
        (0..self.n)
            .map(|p| {
                let mut label = 0usize;
                let mut table = 0usize;
                for t in &self.trees {
                    label += t.scheme.label_bits(p, id_bits, port_bits);
                    table += t.scheme.table_bits(p, id_bits, port_bits);
                    if let Some(leaf) = t.leaf_of.get(p) {
                        // The distance label rides along in both (paper
                        // §5.1.2: "each node stores ζ distance labels,
                        // one per tree, both as part of its routing
                        // table and label").
                        let dl = t.labeling.label_bits(leaf);
                        label += dl;
                        table += dl;
                    }
                }
                if self.home.is_some() {
                    label += id_bits; // home tree index
                }
                (label, table)
            })
            .collect()
    }

    /// The overlay network (the spanner `H_X` with ports).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The tree the query for `(u, v)` selects: the destination's home
    /// tree for Ramsey covers, else the minimum over decoded distance
    /// labels.
    pub fn select_tree(&self, u: usize, v: usize) -> Option<usize> {
        if let Some(home) = &self.home {
            return Some(home[v]);
        }
        let mut best: Option<(usize, f64)> = None;
        for (i, t) in self.trees.iter().enumerate() {
            let Some((lu, lv)) = t.leaf_of.pair(u, v) else {
                continue;
            };
            let d = t.labeling.distance(lu, lv);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Routes a packet from `u` to `v`.
    ///
    /// # Errors
    ///
    /// Returns a [`RoutingError`] for invalid endpoints.
    pub fn route(&self, u: usize, v: usize) -> Result<RouteTrace, RoutingError> {
        let mut trace = RouteTrace::default();
        self.route_into(u, v, &mut trace)?;
        Ok(trace)
    }

    /// Like [`MetricRoutingScheme::route`], but writes into a
    /// caller-owned trace whose path buffer is reused across queries (no
    /// per-query allocation once the buffer is warm). The trace is reset
    /// first; on error its contents are unspecified.
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
        if v >= self.n {
            return Err(RoutingError::BadEndpoint { node: v });
        }
        if u == v {
            trace.path.clear();
            trace.path.push(u);
            trace.max_header_bits = 0;
            trace.decision_steps = 0;
            return Ok(());
        }
        let ti = self
            .select_tree(u, v)
            .ok_or(RoutingError::BadEndpoint { node: v })?;
        route_on_tree_into(
            &self.trees[ti].scheme,
            &self.net,
            u,
            v,
            &HashSet::new(), // hopspan:allow(alloc-on-query-path) -- an empty HashSet never heap-allocates; this path routes with a vacuously empty fault set
            trace,
        )?;
        if self.home.is_none() {
            // Account for the ζ label decodes of the selection step.
            trace.decision_steps += self.trees.len();
        }
        Ok(())
    }

    /// Measured stretch/hops over all pairs (tests and experiments).
    ///
    /// Source rows fan out over scoped workers through
    /// [`hopspan_pipeline::max_over_rows`]; each worker reuses one trace
    /// buffer, so the outcome is identical for every worker count.
    ///
    /// # Errors
    ///
    /// Propagates [`RoutingError`] if any pair fails to route; with
    /// multiple failures, the one from the lowest source row wins.
    pub fn measured_stretch_and_hops<M: Metric + Sync>(
        &self,
        metric: &M,
    ) -> Result<(f64, usize), RoutingError> {
        hopspan_pipeline::max_over_rows(self.n, |u| {
            let mut trace = RouteTrace::default();
            let mut worst = 1.0f64;
            let mut hops = 0usize;
            for v in 0..self.n {
                if u == v {
                    continue;
                }
                self.route_into(u, v, &mut trace)?;
                assert_eq!(trace.path.last(), Some(&v), "misrouted ({u},{v})");
                let d = metric.dist(u, v);
                if d > 0.0 {
                    worst = worst.max(path_weight(metric, &trace.path) / d);
                }
                hops = hops.max(trace.hops());
            }
            Ok((worst, hops))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopspan_metric::{gen, GraphMetric};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(404)
    }

    #[test]
    fn doubling_routing_2d() {
        let m = gen::uniform_points(20, 2, &mut rng());
        let rs = MetricRoutingScheme::doubling(&m, 0.25, &mut rng()).unwrap();
        let (stretch, hops) = rs.measured_stretch_and_hops(&m).unwrap();
        assert!(hops <= 2, "hops {hops}");
        assert!(stretch <= 2.5, "stretch {stretch}");
    }

    #[test]
    fn doubling_routing_line_exact() {
        let m = hopspan_metric::EuclideanSpace::from_points(
            &(0..16).map(|i| vec![i as f64]).collect::<Vec<_>>(),
        );
        let rs = MetricRoutingScheme::doubling(&m, 0.25, &mut rng()).unwrap();
        let (stretch, hops) = rs.measured_stretch_and_hops(&m).unwrap();
        assert!(hops <= 2);
        assert!(stretch <= 1.0 + 1e-9, "stretch {stretch}");
    }

    #[test]
    fn general_routing_ramsey() {
        let m = gen::random_graph_metric(18, 10, &mut rng());
        let rs = MetricRoutingScheme::general(&m, 2, &mut rng()).unwrap();
        let (stretch, hops) = rs.measured_stretch_and_hops(&m).unwrap();
        assert!(hops <= 2);
        assert!(stretch <= 64.0, "stretch {stretch}");
    }

    #[test]
    fn planar_routing_grid() {
        let g = gen::grid_graph(4, 4);
        let m = GraphMetric::new(&g).unwrap();
        let rs = MetricRoutingScheme::planar(&g, &m, 0.5, &mut rng()).unwrap();
        let (stretch, hops) = rs.measured_stretch_and_hops(&m).unwrap();
        assert!(hops <= 2);
        assert!(stretch <= 3.0 + 1e-9, "stretch {stretch}");
    }

    #[test]
    fn bits_do_not_grow_linearly() {
        // Label bits per tree: the worst point's label over the cover's
        // tree count. A tree's routing and distance labels are polylog
        // in n, so 8x more points must grow them by far less than 8x:
        // at most the log² n ratio (7/4)² ≈ 3.1. The total label is not
        // bounded this way, because the robust cover's tree count ζ'
        // still grows with n on this metric (58 trees at n = 16, 228 at
        // n = 128).
        let per_tree_bits = |n: usize| {
            let m = gen::uniform_points(n, 1, &mut rng());
            let rs = MetricRoutingScheme::doubling(&m, 0.5, &mut rng()).unwrap();
            rs.stats().max_label_bits as f64 / rs.tree_count() as f64
        };
        let (b1, b2) = (per_tree_bits(16), per_tree_bits(128));
        assert!(b2 <= 3.0 * b1, "{b1:.0} -> {b2:.0} label bits per tree");
    }

    #[test]
    fn bad_endpoints() {
        let m = gen::uniform_points(8, 2, &mut rng());
        let rs = MetricRoutingScheme::doubling(&m, 0.5, &mut rng()).unwrap();
        assert!(rs.route(0, 50).is_err());
        assert_eq!(rs.route(3, 3).unwrap().hops(), 0);
    }
}
