//! Property-based tests (proptest) for the core invariants of the paper:
//! stretch-1 / hop-bounded tree spanner paths, cover domination, bounded
//! navigation stretch, routing delivery, and application correctness —
//! over randomized tree shapes, weights and point sets.

use std::collections::HashMap;

use hopspan::apps::TreeProduct;
use hopspan::core::ackermann::{ack_a, ack_b, alpha, alpha_prime};
use hopspan::core::{FaultTolerantSpanner, MetricNavigator};
use hopspan::metric::{path_weight, EuclideanSpace, Metric};
use hopspan::routing::TreeRoutingScheme;
use hopspan::tree_cover::RobustTreeCover;
use hopspan::tree_spanner::TreeHopSpanner;
use hopspan::treealg::{Lca, RootedTree};
use proptest::prelude::*;
use rand::SeedableRng;

/// Strategy: a random tree given by parent indices + weights.
fn tree_strategy(max_n: usize) -> impl Strategy<Value = RootedTree> {
    (2..max_n)
        .prop_flat_map(|n| {
            (
                proptest::collection::vec(0usize..1_000_000, n - 1),
                proptest::collection::vec(0.0f64..100.0, n - 1),
            )
                .prop_map(move |(parents, weights)| {
                    let edges: Vec<(usize, usize, f64)> = parents
                        .iter()
                        .zip(weights)
                        .enumerate()
                        .map(|(i, (&p, w))| (p % (i + 1), i + 1, w))
                        .collect();
                    RootedTree::from_edges(n, 0, &edges).expect("valid random tree")
                })
        })
        .no_shrink()
}

/// Strategy: distinct 2-D points on a grid (no duplicates).
fn points_strategy(max_n: usize) -> impl Strategy<Value = EuclideanSpace> {
    proptest::collection::hash_set((0i32..50, 0i32..50), 2..max_n).prop_map(|set| {
        let pts: Vec<Vec<f64>> = set
            .into_iter()
            .map(|(x, y)| vec![x as f64, y as f64])
            .collect();
        EuclideanSpace::from_points(&pts)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 1.1: every returned tree-spanner path has ≤ k hops, uses
    /// only spanner edges, and has weight exactly the tree distance.
    #[test]
    fn tree_spanner_paths_are_exact(tree in tree_strategy(120), k in 2usize..6) {
        let sp = TreeHopSpanner::new(&tree, k).unwrap();
        let lca = Lca::new(&tree);
        let mut edges: HashMap<(usize, usize), f64> = HashMap::new();
        for &(a, b, w) in sp.edges() {
            edges.insert((a.min(b), a.max(b)), w);
        }
        let n = tree.len();
        for step in 1..n.min(17) {
            let (u, v) = (step, (step * 7) % n);
            let path = sp.find_path(u, v).unwrap();
            prop_assert!(path.len() - 1 <= k || u == v);
            let mut w = 0.0;
            for win in path.windows(2) {
                let key = (win[0].min(win[1]), win[0].max(win[1]));
                prop_assert!(edges.contains_key(&key), "non-spanner edge {key:?}");
                w += edges[&key];
            }
            let want = tree.distance_with(&lca, u, v);
            prop_assert!((w - want).abs() <= 1e-6 * want.max(1.0));
        }
    }

    /// Tree covers dominate: tree distances never undercut the metric.
    #[test]
    fn robust_cover_dominates(m in points_strategy(24)) {
        let rc = RobustTreeCover::new(&m, 0.5).unwrap();
        prop_assert!(rc.cover().validate(&m).is_ok());
        // And every pair is covered with finite stretch.
        prop_assert!(rc.cover().measured_stretch(&m).is_finite());
    }

    /// Theorem 1.2: navigation paths respect the hop bound and a global
    /// stretch budget on doubling inputs.
    #[test]
    fn navigation_bounded(m in points_strategy(20), k in 2usize..4) {
        let nav = MetricNavigator::doubling(&m, 0.5, k).unwrap();
        let n = m.len();
        for u in 0..n {
            let v = (u * 5 + 1) % n;
            let path = nav.find_path(u, v).unwrap();
            prop_assert!(!path.is_empty());
            prop_assert!(path.len() - 1 <= k);
            let w = path_weight(&m, &path);
            prop_assert!(w <= 3.0 * m.dist(u, v) + 1e-9);
        }
    }

    /// §2.2: the Ackermann inverses are monotone in n and consistent with
    /// their defining functions.
    #[test]
    fn ackermann_inverses_consistent(k in 0usize..8, n in 1u128..1_000_000) {
        let a = alpha(k, n);
        // Defining property: the function at a reaches n, at a-1 it doesn't.
        let f = |s: u128| if k % 2 == 0 { ack_a(k / 2, s) } else { ack_b(k / 2, s) };
        prop_assert!(f(a) >= n);
        if a > 0 {
            prop_assert!(f(a - 1) < n);
        }
        // Monotonicity in n and the α' sandwich (Lemma 2.4 of [Sol13]).
        prop_assert!(alpha(k, n + 1) >= a);
        let ap = alpha_prime(k, n);
        prop_assert!(a <= ap && ap <= 2 * a + 4);
    }

    /// Theorem 4.2 / §4.4: under any fault set of size ≤ f, every
    /// surviving pair still gets a ≤ k-hop path avoiding the faults.
    #[test]
    fn fault_tolerant_paths_avoid_faults(
        m in points_strategy(14),
        faults in proptest::collection::hash_set(0usize..14, 0..3),
    ) {
        let n = m.len();
        // f must leave at least two live points (f ≤ n - 2).
        let f = 2usize.min(n.saturating_sub(2));
        let faulty: std::collections::HashSet<usize> =
            faults.into_iter().filter(|&x| x < n).take(f).collect();
        let sp = FaultTolerantSpanner::new(&m, 0.5, f, 2).unwrap();
        for u in 0..n {
            if faulty.contains(&u) { continue; }
            let v = (u * 3 + 1) % n;
            if v == u || faulty.contains(&v) { continue; }
            let path = sp.find_path_avoiding(&m, u, v, &faulty).unwrap();
            prop_assert!(path.len() - 1 <= 2);
            for p in &path {
                prop_assert!(!faulty.contains(p));
            }
        }
    }

    /// Theorem 5.6: tree products agree with a direct path fold for the
    /// (max, f64) semigroup on arbitrary random trees.
    #[test]
    fn tree_products_match_fold(tree in tree_strategy(60), k in 2usize..5) {
        let n = tree.len();
        let vals: Vec<f64> = (0..n).map(|v| ((v * 2654435761) % 97) as f64).collect();
        let max = |a: &f64, b: &f64| a.max(*b);
        let tp = TreeProduct::new(&tree, &vals, max, k).unwrap();
        for u in 0..n.min(10) {
            let v = (u * 17 + 5) % n;
            if u == v { continue; }
            let path = tree.vertex_path(u, v);
            let want = path.windows(2).map(|w| {
                let c = if tree.parent(w[0]) == Some(w[1]) { w[0] } else { w[1] };
                vals[c]
            }).fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(tp.query(u, v).unwrap(), Some(want));
        }
    }

    /// Theorem 5.1: tree routing always delivers in ≤ 2 hops at stretch 1,
    /// under any port adversary.
    #[test]
    fn tree_routing_delivers(tree in tree_strategy(80), seed in 0u64..1000) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let rs = TreeRoutingScheme::new(&tree, &mut rng).unwrap();
        let n = tree.len();
        for u in 0..n.min(12) {
            let v = (u * 11 + 3) % n;
            let trace = rs.route(u, v).unwrap();
            prop_assert_eq!(*trace.path.last().unwrap(), v);
            prop_assert!(trace.hops() <= 2);
            let w: f64 = trace.path.windows(2).map(|x| tree.distance_slow(x[0], x[1])).sum();
            let want = tree.distance_slow(u, v);
            prop_assert!((w - want).abs() <= 1e-6 * want.max(1.0));
        }
    }

    /// The buffer-reuse query APIs are bit-identical to their allocating
    /// wrappers: `find_path_into` emits exactly `find_path`'s path on
    /// tree spanners, even when the buffer carries a stale previous
    /// answer.
    #[test]
    fn tree_find_path_into_matches_find_path(tree in tree_strategy(100), k in 2usize..6) {
        let sp = TreeHopSpanner::new(&tree, k).unwrap();
        let n = tree.len();
        let mut buf = Vec::new();
        for step in 0..n.min(20) {
            let (u, v) = ((step * 13 + 2) % n, (step * 5) % n);
            let want = sp.find_path(u, v).unwrap();
            sp.find_path_into(u, v, &mut buf).unwrap();
            prop_assert_eq!(&buf, &want, "({}, {}) diverged", u, v);
        }
    }

    /// Same contract on the metric navigator (Theorem 1.2) and on the
    /// fault-tolerant spanner (Theorem 4.2).
    #[test]
    fn metric_find_path_into_matches_find_path(m in points_strategy(18)) {
        let nav = MetricNavigator::doubling(&m, 0.5, 3).unwrap();
        // f must leave at least two live points (f ≤ n - 2).
        let f = 1usize.min(m.len().saturating_sub(2));
        let ft = FaultTolerantSpanner::new(&m, 0.5, f, 2).unwrap();
        let faulty = std::collections::HashSet::new();
        let n = m.len();
        let (mut buf, mut scratch) = (Vec::new(), Vec::new());
        for u in 0..n {
            let v = (u * 7 + 1) % n;
            let want = nav.find_path(u, v).unwrap();
            nav.find_path_into(u, v, &mut buf).unwrap();
            prop_assert_eq!(&buf, &want, "nav ({}, {}) diverged", u, v);
            let want = ft.find_path_avoiding(&m, u, v, &faulty).unwrap();
            ft.find_path_avoiding_into(&m, u, v, &faulty, &mut buf, &mut scratch).unwrap();
            prop_assert_eq!(&buf, &want, "ft ({}, {}) diverged", u, v);
        }
    }

    /// Same contract on tree routing: `route_into` reproduces `route`'s
    /// full trace (path, header bits, decision steps).
    #[test]
    fn route_into_matches_route(tree in tree_strategy(60), seed in 0u64..1000) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let rs = TreeRoutingScheme::new(&tree, &mut rng).unwrap();
        let n = tree.len();
        let mut trace = hopspan::routing::RouteTrace::default();
        for u in 0..n.min(12) {
            let v = (u * 11 + 3) % n;
            let want = rs.route(u, v).unwrap();
            rs.route_into(u, v, &mut trace).unwrap();
            prop_assert_eq!(&trace.path, &want.path);
            prop_assert_eq!(trace.max_header_bits, want.max_header_bits);
            prop_assert_eq!(trace.decision_steps, want.decision_steps);
        }
    }
}

/// A `Metric` adapter over a raw (possibly damaged) matrix — performs
/// no validation, so the damage reaches the constructors unfiltered.
#[derive(Debug, Clone)]
struct RawMatrix(Vec<Vec<f64>>);

impl Metric for RawMatrix {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn dist(&self, i: usize, j: usize) -> f64 {
        self.0[i][j]
    }
}

/// Strategy: a valid Euclidean distance matrix with one seeded class
/// of damage. Returns `(rows, kind)`; kinds 0–2 (NaN, ∞, negative) are
/// observable through single-orientation `Metric` reads, 3–5
/// (asymmetry, triangle violation, near-duplicate) are matrix-level
/// hazards.
fn damaged_matrix_strategy() -> impl Strategy<Value = (Vec<Vec<f64>>, usize)> {
    (points_strategy(16), 0usize..6, 0usize..1_000_000).prop_map(|(space, kind, pick)| {
        let n = space.len();
        let mut rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| space.dist(i, j)).collect())
            .collect();
        let i = pick % n;
        let j = (i + 1 + (pick / n) % (n - 1)) % n;
        let (i, j) = (i.min(j), i.max(j));
        match kind {
            0 => {
                rows[i][j] = f64::NAN;
                rows[j][i] = f64::NAN;
            }
            1 => {
                rows[i][j] = f64::INFINITY;
                rows[j][i] = f64::INFINITY;
            }
            2 => {
                rows[i][j] = -1.0 - rows[i][j];
                rows[j][i] = rows[i][j];
            }
            3 => rows[j][i] = rows[i][j] + 0.5,
            4 => {
                // Grid points live in [0, 50]²; 10⁴ beats any detour.
                rows[i][j] = 1e4;
                rows[j][i] = 1e4;
            }
            _ => {
                for k in 0..n {
                    if k != i && k != j {
                        rows[j][k] = rows[i][k];
                        rows[k][j] = rows[k][i];
                    }
                }
                rows[i][j] = 1e-13;
                rows[j][i] = 1e-13;
            }
        }
        (rows, kind)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Robustness: every constructor fed an adversarial matrix returns
    /// a typed `Result` — never a panic. Observable damage (NaN, ∞,
    /// negative) must additionally be *rejected* everywhere; matrix-
    /// level hazards must at least be caught by `MatrixMetric::new`
    /// (asymmetry) or the audit.
    #[test]
    fn adversarial_matrices_err_but_never_panic(case in damaged_matrix_strategy()) {
        use hopspan::metric::{MatrixMetric, MetricAudit};
        let (rows, kind) = case;
        let n = rows.len();

        let audit = MetricAudit::of_matrix(&rows);
        prop_assert!(!audit.is_clean(), "audit missed damage kind {}", kind);

        let flat: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        let matrix = std::panic::catch_unwind(|| MatrixMetric::new(n, flat))
            .expect("MatrixMetric::new must not panic");
        if kind <= 3 {
            prop_assert!(matrix.is_err(), "kind {} must be rejected at matrix level", kind);
        }

        let raw = RawMatrix(rows);
        let detectable = kind <= 2;
        let cover = std::panic::catch_unwind(|| {
            RobustTreeCover::new(&raw, 0.5).map(|_| ())
        })
        .expect("RobustTreeCover::new must not panic");
        let nav = std::panic::catch_unwind(|| {
            MetricNavigator::doubling(&raw, 0.5, 2).map(|_| ())
        })
        .expect("MetricNavigator::doubling must not panic");
        let ft = std::panic::catch_unwind(|| {
            FaultTolerantSpanner::new(&raw, 0.5, 1, 2).map(|_| ())
        })
        .expect("FaultTolerantSpanner::new must not panic");
        if detectable {
            prop_assert!(cover.is_err(), "cover accepted damage kind {}", kind);
            prop_assert!(nav.is_err(), "navigator accepted damage kind {}", kind);
            prop_assert!(ft.is_err(), "ft spanner accepted damage kind {}", kind);
        }
    }
}
