//! Cross-crate integration tests: the full pipelines of the paper, from
//! points to covers to spanners to navigation, routing and applications.

use std::collections::HashSet;

use hopspan::apps::{approximate_mst, approximate_spt, sparsify, MstVerifier, TreeProduct};
use hopspan::baselines::{greedy_spanner, DijkstraNavigator};
use hopspan::core::{FaultTolerantSpanner, MetricNavigator};
use hopspan::metric::{gen, mst_weight, path_weight, spanner_max_stretch, GraphMetric, Metric};
use hopspan::routing::{FtMetricRoutingScheme, MetricRoutingScheme, TreeRoutingScheme};
use hopspan::treealg::RootedTree;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn rng(tag: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(0xE2E ^ tag)
}

/// Points → robust cover → navigator → k-hop paths with bounded stretch,
/// agreeing with the Dijkstra baseline on the same spanner.
#[test]
fn doubling_pipeline_with_baseline_cross_check() {
    let m = gen::uniform_points(48, 2, &mut rng(1));
    for k in [2usize, 3] {
        let nav = MetricNavigator::doubling(&m, 0.25, k).unwrap();
        let dij = DijkstraNavigator::new(48, nav.spanner_edges());
        for u in 0..48 {
            for v in (u + 1)..48 {
                let p = nav.find_path(u, v).unwrap();
                assert!(p.len() - 1 <= k);
                let w_nav = path_weight(&m, &p);
                // The baseline's min-weight path cannot be heavier.
                let p_dij = dij.find_path(u, v).expect("spanner connected");
                let w_dij = path_weight(&m, &p_dij);
                assert!(w_dij <= w_nav * (1.0 + 1e-9));
                // And the navigated path is within the cover stretch of it.
                assert!(w_nav <= 2.0 * m.dist(u, v), "stretch blow-up");
            }
        }
    }
}

/// General metric → Ramsey cover → navigation with home trees.
#[test]
fn general_pipeline() {
    let m = gen::random_graph_metric(40, 6, &mut rng(2));
    let nav = MetricNavigator::general(&m, 2, 2, &mut rng(3)).unwrap();
    let (stretch, hops) = nav.measured_stretch_and_hops(&m).unwrap();
    assert!(hops <= 2);
    assert!(stretch <= 64.0, "stretch {stretch}");
}

/// Planar graph → separator cover → navigation.
#[test]
fn planar_pipeline() {
    let g = gen::grid_graph(5, 5);
    let m = GraphMetric::new(&g).unwrap();
    let nav = MetricNavigator::planar(&g, &m, 0.5, 2).unwrap();
    let (stretch, hops) = nav.measured_stretch_and_hops(&m).unwrap();
    assert!(hops <= 2);
    assert!(stretch <= 3.0 + 1e-9, "stretch {stretch}");
}

/// Routing and navigation agree on the overlay: every routed packet
/// follows spanner edges and lands in ≤ 2 hops.
#[test]
fn routing_pipeline() {
    let m = gen::uniform_points(32, 2, &mut rng(4));
    let rs = MetricRoutingScheme::doubling(&m, 0.25, &mut rng(5)).unwrap();
    let (stretch, hops) = rs.measured_stretch_and_hops(&m).unwrap();
    assert!(hops <= 2);
    assert!(stretch <= 2.0, "stretch {stretch}");

    let tree = gen::random_tree(64, &mut rng(6));
    let trs = TreeRoutingScheme::new(&tree, &mut rng(7)).unwrap();
    for u in 0..64 {
        let t = trs.route(u, (u * 31 + 7) % 64).unwrap();
        assert!(t.hops() <= 2);
    }
}

/// Fault tolerance end to end: spanner and routing both survive the same
/// fault pattern.
#[test]
fn fault_tolerance_pipeline() {
    let m = gen::uniform_points(24, 2, &mut rng(8));
    let f = 2;
    let sp = FaultTolerantSpanner::new(&m, 0.25, f, 2).unwrap();
    let rs = FtMetricRoutingScheme::new(&m, 0.25, f, &mut rng(9)).unwrap();
    let mut ids: Vec<usize> = (0..24).collect();
    ids.shuffle(&mut rng(10));
    let faulty: HashSet<usize> = ids.into_iter().take(f).collect();
    let (s1, h1) = sp.measured_stretch_and_hops(&m, &faulty).unwrap();
    let (s2, h2) = rs.measured_stretch_and_hops(&m, &faulty).unwrap();
    assert!(h1 <= 2 && h2 <= 2);
    assert!(s1 <= 4.0, "spanner stretch {s1}");
    assert!(s2 <= 6.0, "routing stretch {s2}");
}

/// The §5 toolbox on one navigator: sparsify, SPT, MST all inside H_X.
#[test]
fn applications_pipeline() {
    let m = gen::uniform_points(40, 2, &mut rng(11));
    let nav = MetricNavigator::doubling(&m, 0.25, 3).unwrap();
    let hx: HashSet<(usize, usize)> = nav
        .spanner_edges()
        .iter()
        .map(|&(a, b, _)| (a, b))
        .collect();
    // Sparsify a greedy spanner.
    let greedy = greedy_spanner(&m, 1.5);
    let sparse = sparsify(&m, &nav, &greedy);
    assert!(spanner_max_stretch(&m, &sparse) <= 1.5 * 2.0);
    for &(a, b, _) in &sparse {
        assert!(hx.contains(&(a, b)));
    }
    // SPT and MST inside the spanner.
    let spt = approximate_spt(&m, &nav, 0);
    assert!(spt.measured_stretch(&m) <= 2.0);
    let amst = approximate_mst(&m, &nav);
    let w: f64 = amst.iter().map(|e| e.2).sum();
    assert!(w <= 2.0 * mst_weight(&m));
    for (a, b, _) in amst {
        assert!(hx.contains(&(a.min(b), a.max(b))));
    }
}

/// Tree products and MST verification on the same tree agree with brute
/// force through the whole stack.
#[test]
fn tree_query_pipeline() {
    let tree = gen::random_tree(80, &mut rng(12));
    let lens: Vec<f64> = (0..80).map(|v| tree.parent_weight(v)).collect();
    let tp = TreeProduct::new(&tree, &lens, |a: &f64, b: &f64| a.max(*b), 3).unwrap();
    let mv = MstVerifier::new(&tree, 3).unwrap();
    let mut r = rng(13);
    for _ in 0..500 {
        let (u, v) = (r.gen_range(0..80), r.gen_range(0..80));
        if u == v {
            continue;
        }
        // The max-semigroup product IS the heaviest edge on the path.
        let via_product = tp.query(u, v).unwrap().unwrap();
        let via_verifier = mv.heaviest_on_path(u, v).unwrap().unwrap();
        assert_eq!(via_product, via_verifier, "({u},{v})");
    }
}

/// Numerical robustness: clusters at distance 1e-7 inside a unit square
/// produce deep net hierarchies; everything must still hold together.
#[test]
fn near_duplicate_points_still_navigate() {
    let mut pts = Vec::new();
    for i in 0..6 {
        let base = i as f64 / 6.0;
        pts.push(vec![base, base]);
        pts.push(vec![base + 1e-7, base]);
    }
    let m = hopspan::metric::EuclideanSpace::from_points(&pts);
    let nav = MetricNavigator::doubling(&m, 0.5, 2).unwrap();
    let (stretch, hops) = nav.measured_stretch_and_hops(&m).unwrap();
    assert!(hops <= 2);
    assert!(stretch.is_finite() && stretch <= 8.0, "stretch {stretch}");
}

/// Exact duplicates are rejected cleanly, not mis-handled.
#[test]
fn exact_duplicates_rejected() {
    let m = hopspan::metric::EuclideanSpace::from_points(&[vec![0.5, 0.5], vec![0.5, 0.5]]);
    assert!(MetricNavigator::doubling(&m, 0.5, 2).is_err());
}

/// Steiner support: spanners over cover trees answer only leaf queries,
/// and the umbrella crate's re-exports compose.
#[test]
fn umbrella_reexports_compose() {
    let tree = RootedTree::from_edges(3, 0, &[(0, 1, 1.0), (1, 2, 2.0)]).unwrap();
    let sp = hopspan::tree_spanner::TreeHopSpanner::new(&tree, 2).unwrap();
    assert_eq!(sp.find_path(0, 2).unwrap().first(), Some(&0));
    assert_eq!(hopspan::core::ackermann::alpha(2, 1024), 10);
}
