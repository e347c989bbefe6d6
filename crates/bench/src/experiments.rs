//! The experiment suite: one function per paper artifact (DESIGN.md §3).
//!
//! Each function returns a self-contained markdown section with the
//! measured table and a short paper-vs-measured note; `exp all`
//! concatenates them into `EXPERIMENTS.md`.

use std::collections::HashSet;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use hopspan_apps::{approximate_mst, approximate_spt, sparsify, MstVerifier, TreeProduct};
use hopspan_baselines::{
    greedy_spanner, stretch_and_hops, theta_graph, DijkstraNavigator, TzOracle,
};
use hopspan_core::ackermann::{alpha, alpha_one, alpha_prime};
use hopspan_core::{DegradationPolicy, FaultTolerantSpanner, MetricNavigator};
use hopspan_metric::{
    gen, minimum_spanning_tree, mst_weight, spanner_lightness, spanner_max_stretch, GraphMetric,
    Metric,
};
use hopspan_routing::{
    FtMetricRoutingScheme, MetricRoutingScheme, RouteTrace, SchemeStats, TreeRoutingScheme,
};
use hopspan_serve::{
    quantile_from_counts, Backend as ServeBackend, BackendParams, DegradeCode, MetricsSnapshot, Op,
    Pending, QueryOutcome, ServeConfig, ServeError, ShardHealth, ShardedNavigator, LATENCY_BUCKETS,
};
use hopspan_store as store;
use hopspan_tree_cover::{
    NetHierarchy, PairingCover, RamseyTreeCover, RobustTreeCover, SeparatorTreeCover,
};
use hopspan_tree_spanner::TreeHopSpanner;
use hopspan_treealg::RootedTree;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::report::{self, quantile, Obj};
use crate::{md_table, ms, rng, time};

/// One registered experiment: `(id, title, runner)`.
pub type Experiment = (&'static str, &'static str, fn() -> String);

/// All experiments in order.
pub fn all() -> Vec<Experiment> {
    vec![
        ("E1", "Ackermann inverses (paper §2.2)", e01_ackermann),
        (
            "E2",
            "Tree 1-spanners: size/hops/stretch/query (Theorem 1.1, Lemma 3.2)",
            e02_tree_spanner,
        ),
        (
            "E3",
            "Recursion-tree structure (Figure 1, Observation 3.1)",
            e03_recursion_tree,
        ),
        (
            "E4",
            "Doubling tree covers & navigation (Table 1 row 1, Theorem 1.2)",
            e04_cover_doubling,
        ),
        (
            "E5",
            "Ramsey covers for general metrics (Table 1 rows 3–4)",
            e05_cover_general,
        ),
        (
            "E6",
            "Planar separator covers (Table 1 row 2)",
            e06_cover_planar,
        ),
        (
            "E7",
            "Pairing covers (Definition 4.2, Figure 2)",
            e07_pairing_cover,
        ),
        (
            "E8",
            "Robustness under leaf substitution (Theorem 4.1)",
            e08_robust_cover,
        ),
        (
            "E9",
            "Fault-tolerant spanners (Theorem 4.2)",
            e09_ft_spanner,
        ),
        (
            "E10",
            "Compact 2-hop routing (Theorem 1.3, Table 3)",
            e10_routing,
        ),
        (
            "E11",
            "Fault-tolerant routing (Theorem 5.2)",
            e11_ft_routing,
        ),
        (
            "E12",
            "Spanner sparsification (Theorem 5.3, Table 4)",
            e12_sparsify,
        ),
        ("E13", "Approximate SPT (Algorithm 3, Theorem 5.4)", e13_spt),
        ("E14", "Approximate MST (Theorem 5.5)", e14_mst),
        (
            "E15",
            "Online tree products (Theorem 5.6, Remark 5.4)",
            e15_tree_product,
        ),
        ("E16", "Online MST verification (§5.6.2)", e16_mst_verify),
        ("E17", "Hop/size frontier vs baselines (§1.1)", e17_frontier),
        (
            "E18",
            "Shallow-light trees from the navigator (§1.3)",
            e18_slt,
        ),
        (
            "E19",
            "Multiterminal max-flow via tree products (§5.6.1)",
            e19_flow,
        ),
        (
            "E20",
            "Ablation: Ramsey tree selection policy",
            e20_selection_ablation,
        ),
        (
            "E21",
            "Parallel preprocessing pipeline telemetry",
            e21_parallel_build,
        ),
        (
            "E22",
            "Query throughput: dense layouts + zero-allocation queries",
            e22_query_throughput,
        ),
        (
            "E23",
            "Chaos campaign: fault injection, degradation, panic containment",
            e23_chaos,
        ),
        (
            "E24",
            "Serving throughput: sharded batching, admission control (hopspan-serve)",
            e24_serve,
        ),
        (
            "E25",
            "Snapshot boot: versioned `HSNP` store vs rebuild (hopspan-store)",
            e25_store,
        ),
        (
            "E26",
            "Resilience: availability under shard outages, recovery, outage campaign",
            e26_resilience,
        ),
        (
            "E27",
            "Online churn: epoch-swapped dynamic navigator under sustained mutations",
            e27_churn,
        ),
    ]
}

fn random_tree(n: usize, tag: u64) -> RootedTree {
    gen::random_tree(n, &mut rng(tag))
}

/// E1: the α_k table against the closed forms the paper quotes.
pub fn e01_ackermann() -> String {
    let ns: Vec<u128> = vec![1 << 4, 1 << 8, 1 << 12, 1 << 16, 1 << 24, 1 << 40, 1 << 60];
    let mut rows = Vec::new();
    for &n in &ns {
        let mut row = vec![format!("2^{}", n.ilog2())];
        for k in 0..=6usize {
            row.push(alpha(k, n).to_string());
        }
        row.push(alpha_one(n).to_string());
        row.push(alpha_prime(2, n).to_string());
        rows.push(row);
    }
    let table = md_table(
        &["n", "α₀", "α₁", "α₂", "α₃", "α₄", "α₅", "α₆", "α(n)", "α'₂"],
        &rows,
    );
    format!(
        "Paper: α₀=⌈n/2⌉, α₁=⌈√n⌉, α₂=⌈log n⌉, α₃=⌈log log n⌉, α₄=log*n, \
         and α(n) ≤ 4 for all practical n; α'_k ≤ 2α_k+4 (Lemma 2.4 of [Sol13]).\n\n{table}\n\
         Measured: matches all closed forms; α(2^60) = {} — 'effectively constant'.\n",
        alpha_one(1 << 60)
    )
}

/// E2: tree spanner size vs n·α_k(n), hop/stretch checks, query time.
pub fn e02_tree_spanner() -> String {
    let mut rows = Vec::new();
    for &n in &[1usize << 10, 1 << 12, 1 << 14] {
        for &k in &[2usize, 3, 4, 6, 10] {
            let tree = random_tree(n, 2000 + n as u64 + k as u64);
            let (sp, build) = time(|| TreeHopSpanner::new(&tree, k).unwrap());
            let ak = alpha(k, n as u128) as f64;
            // Sampled queries: verify hops and collect time.
            let mut r = rng(2100 + k as u64);
            let pairs: Vec<(usize, usize)> = (0..2000)
                .map(|_| (r.gen_range(0..n), r.gen_range(0..n)))
                .collect();
            let mut max_hops = 0usize;
            let (_, qt) = time(|| {
                for &(u, v) in &pairs {
                    let p = sp.find_path(u, v).unwrap();
                    max_hops = max_hops.max(p.len() - 1);
                }
            });
            rows.push(vec![
                n.to_string(),
                k.to_string(),
                sp.edge_count().to_string(),
                format!("{:.2}", sp.edge_count() as f64 / n as f64),
                format!("{:.0}", ak),
                format!("{:.2}", sp.edge_count() as f64 / (n as f64 * ak.max(1.0))),
                max_hops.to_string(),
                ms(build),
                format!("{:.2}", qt.as_secs_f64() * 1e9 / pairs.len() as f64 / 1e3),
            ]);
        }
    }
    let table = md_table(
        &[
            "n",
            "k",
            "edges",
            "edges/n",
            "α_k(n)",
            "edges/(n·α_k)",
            "max hops",
            "build ms",
            "query µs",
        ],
        &rows,
    );
    format!(
        "Paper: |G_T| = O(n·α_k(n)) with hop-diameter k and O(k) query time \
         (Theorem 1.1, Lemma 3.2). Stretch is exactly 1 (checked exhaustively \
         in the unit tests). Expected shape: edges/(n·α_k) flat in n, hops ≤ k, \
         microsecond queries independent of n.\n\n{table}\n"
    )
}

/// E3: recursion-tree depth vs α_k(n).
pub fn e03_recursion_tree() -> String {
    let mut rows = Vec::new();
    for &n in &[1usize << 10, 1 << 13, 1 << 16] {
        for &k in &[2usize, 3, 4, 6] {
            let tree = random_tree(n, 3000 + n as u64 * 3 + k as u64);
            let sp = TreeHopSpanner::new(&tree, k).unwrap();
            rows.push(vec![
                n.to_string(),
                k.to_string(),
                sp.recursion_depth().to_string(),
                alpha(k, n as u128).to_string(),
                sp.recursion_node_count().to_string(),
            ]);
        }
    }
    let table = md_table(&["n", "k", "Φ depth", "α_k(n)", "total Φ nodes"], &rows);
    format!(
        "Paper: the augmented recursion tree Φ of Figure 1 has depth \
         O(α_k(n)) (Observation 3.1) and O(n) nodes per same-k hierarchy. \
         Expected shape: depth tracks α_k within a small constant factor.\n\n{table}\n"
    )
}

/// E4: doubling covers — ζ vs ε and n, realized stretch, navigation.
pub fn e04_cover_doubling() -> String {
    // Above this n the navigator (one k-hop spanner per tree over all n
    // leaves) is left out: the cover alone peaks near 2 GB at n = 1024.
    const NAV_MAX_N: usize = 256;
    let mut rows = Vec::new();
    for &(n, eps) in &[
        (64usize, 1.0),
        (64, 0.5),
        (64, 0.25),
        (128, 0.5),
        (256, 0.5),
        (512, 0.5),
        (1024, 0.5),
    ] {
        let m = gen::uniform_points(n, 2, &mut rng(4000 + n as u64));
        let (rc, build) = time(|| RobustTreeCover::new(&m, eps).unwrap());
        let zeta = rc.tree_count();
        let stretch = rc.cover().measured_stretch(&m);
        let mut row = vec![
            n.to_string(),
            format!("{eps}"),
            zeta.to_string(),
            format!("{stretch:.3}"),
        ];
        if n <= NAV_MAX_N {
            let nav =
                MetricNavigator::from_cover(&m, rc.into_cover().into_trees(), None, 2).unwrap();
            let (nav_stretch, hops) = nav.measured_stretch_and_hops(&m).unwrap();
            row.extend([
                nav.spanner_edge_count().to_string(),
                format!("{nav_stretch:.3}"),
                hops.to_string(),
            ]);
        } else {
            row.extend(["—".to_string(), "—".to_string(), "—".to_string()]);
        }
        row.push(ms(build));
        rows.push(row);
    }
    let table = md_table(
        &[
            "n",
            "ε",
            "ζ' (trees)",
            "cover stretch",
            "|H_X| (k=2)",
            "nav stretch",
            "max hops",
            "build ms",
        ],
        &rows,
    );
    format!(
        "Paper: (1+ε, ε^{{-O(d)}})-tree covers for doubling metrics \
         (Theorem 4.1 / [ADM+95, BFN19]); navigation with k hops and \
         O(n·α_k(n)·ζ) spanner edges (Theorem 1.2). Expected shape: ζ \
         bounded by ε^{{-O(d)}} independently of n; stretch → 1 as ε → 0 \
         (the guarantee regime is ε ≤ 1/8, constants per DESIGN.md); hops \
         ≤ k = 2. ζ' counts the cover's distinct trees, all that it keeps. \
         Measured: ζ' still grows with n at ε = 0.5 and has not saturated \
         by n = 1024. A level's pair sets number up to about the near \
         pairs within 3·(1/ε+4)·2^i of one pair; that bound is a packing \
         number of ≈10³ net points in 2-D, which these n do not fill. \
         Navigator columns stop at n = {NAV_MAX_N} (memory).\n\n{table}\n"
    )
}

/// E5: Ramsey covers — ζ vs O(ℓ·n^{1/ℓ}), home-tree stretch vs O(ℓ).
pub fn e05_cover_general() -> String {
    let mut rows = Vec::new();
    for &n in &[64usize, 128] {
        // A sparse graph metric: large aspect ratio, so padding is hard
        // and the ζ-vs-ℓ trade-off is visible.
        let m = gen::random_graph_metric(n, 4, &mut rng(5000 + n as u64));
        for &ell in &[1usize, 2, 3] {
            let rc = RamseyTreeCover::new(&m, ell, &mut rng(5100 + ell as u64)).unwrap();
            let zeta = rc.tree_count();
            let shape = ell as f64 * (n as f64).powf(1.0 / ell as f64);
            let hs = rc.measured_home_stretch(&m);
            let nav = MetricNavigator::general(&m, ell, 2, &mut rng(5200 + ell as u64)).unwrap();
            let (ns, hops) = nav.measured_stretch_and_hops(&m).unwrap();
            rows.push(vec![
                n.to_string(),
                ell.to_string(),
                zeta.to_string(),
                format!("{shape:.0}"),
                format!("{hs:.1}"),
                (32 * ell).to_string(),
                format!("{ns:.1}"),
                hops.to_string(),
            ]);
        }
    }
    let table = md_table(
        &[
            "n",
            "ℓ",
            "ζ",
            "ℓ·n^(1/ℓ)",
            "home stretch",
            "bound 32ℓ",
            "nav stretch",
            "hops",
        ],
        &rows,
    );
    // The second trade-off (Table 1 row 4): pin ζ = ℓ, let γ grow.
    let mut rows2 = Vec::new();
    let n = 96;
    let m = hopspan_metric::EuclideanSpace::from_points(
        &(0..n).map(|i| vec![(i * i) as f64]).collect::<Vec<_>>(),
    );
    for &budget in &[1usize, 2, 4, 8] {
        let (rc, gamma) =
            RamseyTreeCover::with_tree_budget(&m, budget, &mut rng(5300 + budget as u64)).unwrap();
        rows2.push(vec![
            budget.to_string(),
            rc.tree_count().to_string(),
            format!("{gamma:.0}"),
            format!("{:.1}", rc.measured_home_stretch(&m)),
        ]);
    }
    let table2 = md_table(&["budget ℓ", "ζ used", "padding γ", "home stretch"], &rows2);
    format!(
        "Paper: Ramsey (O(ℓ), O(ℓ·n^{{1/ℓ}}))-tree covers for general \
         metrics ([MN06]); our randomized construction guarantees stretch \
         ≤ 32ℓ (DESIGN.md §4). Expected shape: ζ decreasing in ℓ and far \
         below ℓ·n^{{1/ℓ}}; home stretch well under the bound; 2 hops.\n\n{table}\n\
         The dual trade-off (Table 1 row 4): pin the number of trees to ℓ \
         and let the stretch grow like a root of n — measured on a \
         quadratically-spread line (aspect ratio ~n²):\n\n{table2}\n"
    )
}

/// E6: planar separator covers on grids.
pub fn e06_cover_planar() -> String {
    let mut rows = Vec::new();
    for &(w, h) in &[(8usize, 8usize), (12, 12), (16, 16)] {
        let g = gen::grid_graph(w, h);
        let m = GraphMetric::new(&g).unwrap();
        for &eps in &[1.0, 0.5] {
            let (sc, build) = time(|| SeparatorTreeCover::new(&g, eps).unwrap());
            let stretch = sc.cover().measured_stretch(&m);
            rows.push(vec![
                format!("{w}x{h}"),
                format!("{eps}"),
                sc.tree_count().to_string(),
                sc.recursion_depth().to_string(),
                format!("{stretch:.3}"),
                ms(build),
            ]);
        }
    }
    let table = md_table(&["grid", "ε", "ζ", "depth", "stretch", "build ms"], &rows);
    format!(
        "Paper: (1+ε, O((log n/ε)²))-tree covers for fixed-minor-free \
         metrics ([BFN19]); ours is the simplified shortest-path-separator \
         variant with guaranteed stretch ≤ 3 and measured stretch ≈ 1 on \
         grids (DESIGN.md §4). Expected shape: ζ polylog in n, stretch \
         close to 1.\n\n{table}\n"
    )
}

/// E7: pairing covers — Definition 4.2 verified, sizes vs ε/n.
pub fn e07_pairing_cover() -> String {
    let mut rows = Vec::new();
    for &(n, eps, what) in &[
        (12usize, 0.5, "line (Figure 2)"),
        (64, 0.5, "line"),
        (64, 0.25, "line"),
        (49, 0.5, "7×7 grid points"),
    ] {
        let m = if what.contains("grid") {
            let pts: Vec<Vec<f64>> = (0..7)
                .flat_map(|x| (0..7).map(move |y| vec![x as f64, y as f64 * 1.31]))
                .collect();
            hopspan_metric::EuclideanSpace::from_points(&pts)
        } else {
            hopspan_metric::EuclideanSpace::from_points(
                &(0..n).map(|i| vec![i as f64]).collect::<Vec<_>>(),
            )
        };
        let nets = NetHierarchy::for_epsilon(&m, eps, 2).unwrap();
        let pc = PairingCover::new(&m, &nets, eps);
        let mut ok = true;
        for l in 0..nets.levels().len() {
            if pc.verify_level(&m, &nets, l).is_err() {
                ok = false;
            }
        }
        rows.push(vec![
            what.to_string(),
            n.to_string(),
            format!("{eps}"),
            nets.levels().len().to_string(),
            pc.max_sets().to_string(),
            if ok { "yes".into() } else { "NO".into() },
        ]);
    }
    let table = md_table(
        &[
            "metric",
            "n",
            "ε",
            "levels",
            "σ₃ = max|𝒞_i|",
            "Def 4.2 holds",
        ],
        &rows,
    );
    format!(
        "Paper: pairing covers (Definition 4.2, Lemma 4.2, Figure 2): each \
         set pairs every point with ≤ 1 close partner, all close net pairs \
         are paired, and |𝒞_i| = ε^{{-O(d)}} independent of n.\n\n{table}\n"
    )
}

/// The constant c of DESIGN.md §2's measured robustness bound: the
/// exact adversarial stretch stays within 1 + c·ε.
const ADVERSARIAL_C: f64 = 12.0;

/// E8: robustness — the exact adversarial leaf-substitution stretch
/// over an ε sweep, with the fitted c of 1 + c·ε. Asserts every row and
/// the fit against DESIGN.md §2's constant.
pub fn e08_robust_cover() -> String {
    let n = 32;
    let m = gen::uniform_points(n, 2, &mut rng(8000));
    let mut rows = Vec::new();
    let (mut num, mut den) = (0.0, 0.0);
    for &eps in &[0.5, 0.25, 0.125, 0.0625] {
        let cover = RobustTreeCover::new(&m, eps).unwrap().into_cover();
        let nominal = cover.measured_stretch(&m);
        let exact = cover.adversarial_stretch(&m);
        assert!(
            exact <= 1.0 + ADVERSARIAL_C * eps,
            "E8: adversarial stretch {exact} > 1 + {ADVERSARIAL_C}ε at ε = {eps}"
        );
        // Least squares of exact − 1 = c·ε through the origin.
        num += eps * (exact - 1.0);
        den += eps * eps;
        rows.push(vec![
            format!("{eps}"),
            cover.len().to_string(),
            format!("{nominal:.3}"),
            format!("{exact:.3}"),
            format!("{:.1}", (exact - 1.0) / eps),
        ]);
    }
    let c = num / den;
    assert!(
        c <= ADVERSARIAL_C,
        "E8: fitted c = {c:.2} > {ADVERSARIAL_C}"
    );
    let table = md_table(
        &[
            "ε",
            "ζ'",
            "nominal stretch",
            "adversarial stretch",
            "(stretch − 1)/ε",
        ],
        &rows,
    );
    format!(
        "Paper: the Robust Tree Cover Theorem (4.1): replacing every \
         internal vertex by an *arbitrary* descendant leaf keeps some \
         tree's path at (1+O(ε))·δ — the property [BFN19] lacks and fault \
         tolerance needs. The adversarial column is exact: per pair, the \
         min over trees of the heaviest substituted path (a max-weight \
         chain DP over each tree path). Expected shape: 1 + c·ε with a \
         constant c; uniform n = {n}. Fitted c (least squares through \
         the origin) = **{c:.2}**; every row and the fit are asserted within \
         1 + {ADVERSARIAL_C}·ε (DESIGN.md §2).\n\n{table}\n"
    )
}

/// E9: FT spanner size ∝ f² and survival under faults.
pub fn e09_ft_spanner() -> String {
    let n = 128;
    let m = gen::uniform_points(n, 2, &mut rng(9000));
    let mut rows = Vec::new();
    for &f in &[0usize, 1, 2, 4, 8] {
        let (sp, build) = time(|| FaultTolerantSpanner::new(&m, 0.5, f, 2).unwrap());
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(&mut rng(9100 + f as u64));
        let faulty: HashSet<usize> = ids.into_iter().take(f).collect();
        let (stretch, hops) = sp.measured_stretch_and_hops(&m, &faulty).unwrap();
        rows.push(vec![
            f.to_string(),
            sp.edge_count().to_string(),
            format!("{stretch:.3}"),
            hops.to_string(),
            sp.tree_count().to_string(),
            ms(build),
        ]);
    }
    let table = md_table(
        &[
            "f",
            "edges",
            "stretch under f faults",
            "max hops",
            "trees ζ'",
            "build ms",
        ],
        &rows,
    );
    format!(
        "Paper: f-FT spanners with hop-diameter k and \
         ε^{{-O(d)}}·n·f²·α_k(n) edges (Theorem 4.2); after any ≤ f faults \
         a k-hop (1+ε)-path survives (§4.4). Expected shape: edges grow \
         with f (bounded by ~f²), hops stay ≤ 2, stretch stays bounded. \
         The robust cover holds each distinct tree once (ζ' trees, \
         independent of f), and the spanner builds, stores and scans \
         all of them.\n\n{table}\n"
    )
}

/// E10: routing — bits, hops, stretch, decisions across metric classes.
/// Asserts what its prose expects: every route takes ≤ 2 hops, and tree
/// routes have stretch exactly 1.
pub fn e10_routing() -> String {
    // One table row; every scheme here must deliver in ≤ 2 hops.
    let row = |name: String, n: usize, s: SchemeStats, stretch: f64, hops: usize, steps: String| {
        assert!(hops <= 2, "E10: {name} routed in {hops} > 2 hops");
        let log2 = (n as f64).log2();
        vec![
            name,
            s.max_label_bits.to_string(),
            s.max_table_bits.to_string(),
            format!("{:.1}", s.max_label_bits as f64 / (log2 * log2)),
            s.header_bits.to_string(),
            format!("{stretch:.2}"),
            hops.to_string(),
            steps,
        ]
    };
    let mut rows = Vec::new();
    // Tree metrics (Theorem 5.1).
    for &n in &[256usize, 1024, 4096] {
        let tree = random_tree(n, 10_000 + n as u64);
        let rs = TreeRoutingScheme::new(&tree, &mut rng(10_100)).unwrap();
        let mut r = rng(10_200);
        let mut max_hops = 0;
        let mut max_steps = 0;
        let mut worst: f64 = 1.0;
        for _ in 0..2000 {
            let (u, v) = (r.gen_range(0..n), r.gen_range(0..n));
            let t = rs.route(u, v).unwrap();
            max_hops = max_hops.max(t.hops());
            max_steps = max_steps.max(t.decision_steps);
            let w: f64 = t
                .path
                .windows(2)
                .map(|x| tree.distance_slow(x[0], x[1]))
                .sum();
            let d = tree.distance_slow(u, v);
            if d > 0.0 {
                worst = worst.max(w / d);
            }
        }
        assert!(worst <= 1.0 + 1e-9, "E10: tree n={n} stretch {worst} > 1");
        rows.push(row(
            format!("tree n={n}"),
            n,
            rs.stats(),
            worst,
            max_hops,
            max_steps.to_string(),
        ));
    }
    // Metric classes (Theorem 1.3).
    {
        let n = 96;
        let m = gen::uniform_points(n, 2, &mut rng(10_300));
        let rs = MetricRoutingScheme::doubling(&m, 0.25, &mut rng(10_301)).unwrap();
        let (stretch, hops) = rs.measured_stretch_and_hops(&m).unwrap();
        let name = format!("doubling n={n} ε=0.25");
        rows.push(row(name, n, rs.stats(), stretch, hops, "-".into()));
    }
    {
        let n = 96;
        let m = gen::random_graph_metric(n, n / 2, &mut rng(10_400));
        for ell in [2usize, 3] {
            let rs = MetricRoutingScheme::general(&m, ell, &mut rng(10_401 + ell as u64)).unwrap();
            let (stretch, hops) = rs.measured_stretch_and_hops(&m).unwrap();
            let name = format!("general n={n} ℓ={ell}");
            rows.push(row(name, n, rs.stats(), stretch, hops, "-".into()));
        }
    }
    {
        let g = gen::grid_graph(8, 8);
        let m = GraphMetric::new(&g).unwrap();
        let rs = MetricRoutingScheme::planar(&g, &m, 0.5, &mut rng(10_500)).unwrap();
        let (stretch, hops) = rs.measured_stretch_and_hops(&m).unwrap();
        let name = "planar 8×8 grid".to_string();
        rows.push(row(name, 64, rs.stats(), stretch, hops, "-".into()));
    }
    let table = md_table(
        &[
            "instance",
            "label bits",
            "table bits",
            "label/log²n",
            "header bits",
            "stretch",
            "hops",
            "max decisions",
        ],
        &rows,
    );
    format!(
        "Paper: 2-hop routing with stretch 1 and O(log²n)-bit labels/tables \
         on trees (Theorem 5.1); (1+ε) / O(ℓ) stretch with ζ-scaled tables \
         in doubling/general/planar metrics (Theorem 1.3, Table 3); headers \
         ⌈log n⌉ bits. Expected shape: tree label bits ∝ log²n (flat \
         ratio); ALL routes ≤ 2 hops; tree stretch exactly 1.\n\n{table}\n"
    )
}

/// E11: FT routing — bits ×f, delivery under faults. Asserts what its
/// prose expects: every route takes ≤ 2 hops, and label bits grow
/// strictly with f.
pub fn e11_ft_routing() -> String {
    let n = 40;
    let m = gen::uniform_points(n, 2, &mut rng(11_000));
    let mut rows = Vec::new();
    let mut prev_label = None;
    for &f in &[0usize, 1, 2, 3] {
        let rs = FtMetricRoutingScheme::new(&m, 0.25, f, &mut rng(11_100 + f as u64)).unwrap();
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(&mut rng(11_200 + f as u64));
        let faulty: HashSet<usize> = ids.into_iter().take(f).collect();
        let (stretch, hops) = rs.measured_stretch_and_hops(&m, &faulty).unwrap();
        let s = rs.stats();
        assert!(hops <= 2, "E11: f={f} routed in {hops} > 2 hops");
        assert!(
            prev_label.is_none_or(|p| s.max_label_bits > p),
            "E11: f={f} label bits {} do not exceed f-1's {prev_label:?}",
            s.max_label_bits
        );
        prev_label = Some(s.max_label_bits);
        rows.push(vec![
            f.to_string(),
            s.max_label_bits.to_string(),
            s.max_table_bits.to_string(),
            format!("{stretch:.2}"),
            hops.to_string(),
        ]);
    }
    let table = md_table(
        &[
            "f",
            "label bits",
            "table bits",
            "stretch under f faults",
            "hops",
        ],
        &rows,
    );
    format!(
        "Paper: f-FT routing with label/table sizes growing by a factor of \
         f and O(f) decision time (Theorem 5.2). Expected shape: bits grow \
         ~linearly in f; every packet still delivered in ≤ 2 hops avoiding \
         the faulty nodes.\n\n{table}\n"
    )
}

/// E12: sparsification — size/lightness/stretch before and after.
pub fn e12_sparsify() -> String {
    let n = 96;
    let m = gen::uniform_points(n, 2, &mut rng(12_000));
    let nav = MetricNavigator::doubling(&m, 0.25, 2).unwrap();
    let mut rows = Vec::new();
    let mut complete = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            complete.push((i, j, m.dist(i, j)));
        }
    }
    let greedy = greedy_spanner(&m, 1.2);
    for (name, input) in [("complete graph", &complete), ("greedy t=1.2", &greedy)] {
        let out = sparsify(&m, &nav, input);
        rows.push(vec![
            name.to_string(),
            input.len().to_string(),
            out.len().to_string(),
            format!("{:.2}", spanner_max_stretch(&m, input)),
            format!("{:.2}", spanner_max_stretch(&m, &out)),
            format!("{:.1}", spanner_lightness(&m, input)),
            format!("{:.1}", spanner_lightness(&m, &out)),
        ]);
    }
    // General metrics (Table 4 rows 3–4): sparsify through a Ramsey
    // navigator — stretch and lightness inflate by O(ℓ)-shaped factors.
    let gm = gen::random_graph_metric(64, 8, &mut rng(12_100));
    let gnav = MetricNavigator::general(&gm, 2, 2, &mut rng(12_101)).unwrap();
    let mut gdense = Vec::new();
    for i in 0..64 {
        for j in (i + 1)..64 {
            gdense.push((i, j, gm.dist(i, j)));
        }
    }
    let gout = sparsify(&gm, &gnav, &gdense);
    rows.push(vec![
        "complete (general metric, ℓ=2)".to_string(),
        gdense.len().to_string(),
        gout.len().to_string(),
        format!("{:.2}", spanner_max_stretch(&gm, &gdense)),
        format!("{:.2}", spanner_max_stretch(&gm, &gout)),
        format!("{:.1}", spanner_lightness(&gm, &gdense)),
        format!("{:.1}", spanner_lightness(&gm, &gout)),
    ]);
    let table = md_table(
        &[
            "input",
            "edges in",
            "edges out",
            "stretch in",
            "stretch out",
            "lightness in",
            "lightness out",
        ],
        &rows,
    );
    format!(
        "Paper: Theorem 5.3 / Table 4 — transform any m-edge spanner into \
         one with O(n·α_k(n)·ζ) edges, stretch ×γ, lightness ×γ, in O(m·τ); \
         in general metrics γ = O(ℓ). Expected shape: large edge reduction; \
         stretch/lightness inflate by at most the cover stretch γ.\n\n{table}\n"
    )
}

/// E13: approximate SPT vs Dijkstra on the spanner.
pub fn e13_spt() -> String {
    let n = 256;
    let m = gen::uniform_points(n, 2, &mut rng(13_000));
    let mut rows = Vec::new();
    for &k in &[2usize, 3, 4] {
        let nav = MetricNavigator::doubling(&m, 0.25, k).unwrap();
        let (spt, t_nav) = time(|| approximate_spt(&m, &nav, 0));
        // Baseline: Dijkstra over the explicit spanner.
        let dn = DijkstraNavigator::new(n, nav.spanner_edges());
        let (_, t_dij) = time(|| {
            dn.find_path(0, n - 1).unwrap();
        });
        rows.push(vec![
            k.to_string(),
            format!("{:.3}", spt.measured_stretch(&m)),
            ms(t_nav),
            format!("{} (one query!)", ms(t_dij)),
        ]);
    }
    let table = md_table(
        &[
            "k",
            "SPT stretch",
            "navigated SPT build ms (n queries)",
            "one Dijkstra query ms",
        ],
        &rows,
    );
    format!(
        "Paper: Theorem 5.4 — a γ-approximate SPT that is a subgraph of the \
         spanner, in O(n·τ) = O(nk) time, without explicit spanner access; \
         Dijkstra costs Ω(n log n) *per tree* on the explicit spanner. \
         Expected shape: stretch ≈ cover stretch; build time ≈ n·O(k) \
         queries, competitive with a handful of Dijkstra runs.\n\n{table}\n"
    )
}

/// E14: approximate MST.
pub fn e14_mst() -> String {
    let mut rows = Vec::new();
    for &n in &[128usize, 256] {
        let m = gen::uniform_points(n, 2, &mut rng(14_000 + n as u64));
        let nav = MetricNavigator::doubling(&m, 0.25, 3).unwrap();
        let (amst, t) = time(|| approximate_mst(&m, &nav));
        let w: f64 = amst.iter().map(|e| e.2).sum();
        let exact = mst_weight(&m);
        rows.push(vec![
            n.to_string(),
            format!("{exact:.4}"),
            format!("{w:.4}"),
            format!("{:.4}", w / exact),
            ms(t),
        ]);
    }
    let table = md_table(
        &[
            "n",
            "exact MST",
            "approx MST (in-spanner)",
            "ratio",
            "time ms",
        ],
        &rows,
    );
    format!(
        "Paper: Theorem 5.5 — a (1+ε)-approximate MST that is a subgraph of \
         the spanner, in O(n·τ) beyond the seed tree. Expected shape: ratio \
         ≤ the cover stretch γ; the tree lives entirely inside H_X (unit \
         tests check the subgraph property).\n\n{table}\n"
    )
}

/// E15: online tree products — k-1 ops per query vs \[AS87\]'s 2k-1.
pub fn e15_tree_product() -> String {
    let n = 4096;
    let tree = random_tree(n, 15_000);
    let lens: Vec<f64> = (0..n).map(|v| tree.parent_weight(v)).collect();
    let mut rows = Vec::new();
    for &k in &[2usize, 3, 4, 6] {
        let tp = TreeProduct::new(&tree, &lens, |a, b| a + b, k).unwrap();
        let mut r = rng(15_100 + k as u64);
        let q = 5000;
        let mut answered = 0usize;
        for _ in 0..q {
            let (u, v) = (r.gen_range(0..n), r.gen_range(0..n));
            if u != v {
                tp.query(u, v).unwrap();
                answered += 1;
            }
        }
        rows.push(vec![
            k.to_string(),
            format!("{:.2}", tp.query_operations() as f64 / answered as f64),
            (k - 1).to_string(),
            (2 * k - 1).to_string(),
            tp.preprocessing_operations().to_string(),
        ]);
    }
    let table = md_table(
        &[
            "k",
            "ops/query (avg)",
            "our bound k-1",
            "[AS87] bound 2k-1",
            "preprocessing ops",
        ],
        &rows,
    );
    format!(
        "Paper: Theorem 5.6 / Remark 5.4 — tree-product queries with k-1 \
         semigroup operations, a 2× improvement over the 2k-hop paths of \
         [AS87]. Expected shape: average ops/query below k-1, always at \
         most k-1.\n\n{table}\n"
    )
}

/// E16: online MST verification — one weight comparison per query.
pub fn e16_mst_verify() -> String {
    let n = 4096;
    let tree = random_tree(n, 16_000);
    let mut rows = Vec::new();
    for &k in &[2usize, 4] {
        let mv = MstVerifier::new(&tree, k).unwrap();
        let mut r = rng(16_100 + k as u64);
        let q = 10_000;
        let mut answered = 0usize;
        for _ in 0..q {
            let (u, v) = (r.gen_range(0..n), r.gen_range(0..n));
            if u != v {
                mv.query(u, v, 1e9).unwrap();
                answered += 1;
            }
        }
        rows.push(vec![
            k.to_string(),
            format!("{:.3}", mv.query_comparisons() as f64 / answered as f64),
            mv.preprocessing_comparisons().to_string(),
            format!("{:.1}", n as f64 * (n as f64).log2()),
        ]);
    }
    let table = md_table(
        &[
            "k",
            "weight comparisons/query",
            "preprocessing comparisons",
            "n·log n",
        ],
        &rows,
    );
    format!(
        "Paper: §5.6.2 — after an O(n log n)-comparison sorting pass, each \
         verification query costs a single weight comparison (the sorted- \
         order trick; Pettie's bound is 4k-1, the paper's 2k-1, ours 1 via \
         ranks at every k). Expected shape: exactly 1.0 comparisons/query.\n\n{table}\n"
    )
}

/// E17: the hop/size frontier against baselines.
pub fn e17_frontier() -> String {
    let n = 128;
    let m = gen::uniform_points(n, 2, &mut rng(17_000));
    let mut rows = Vec::new();
    for &k in &[2usize, 3, 4] {
        let nav = MetricNavigator::doubling(&m, 0.5, k).unwrap();
        let (stretch, hops) = nav.measured_stretch_and_hops(&m).unwrap();
        rows.push(vec![
            format!("hopspan k={k} (ε=0.5)"),
            nav.spanner_edge_count().to_string(),
            format!("{stretch:.2}"),
            hops.to_string(),
            "O(k) + guaranteed hops".into(),
        ]);
    }
    for &t in &[1.1, 1.5, 2.0] {
        let sp = greedy_spanner(&m, t);
        let (stretch, hops) = stretch_and_hops(&m, &sp);
        rows.push(vec![
            format!("greedy t={t}"),
            sp.len().to_string(),
            format!("{stretch:.2}"),
            hops.to_string(),
            "no hop bound".into(),
        ]);
    }
    {
        let sp = theta_graph(&m, 12);
        let (stretch, hops) = stretch_and_hops(&m, &sp);
        rows.push(vec![
            "Θ-graph (12 cones)".into(),
            sp.len().to_string(),
            format!("{stretch:.2}"),
            hops.to_string(),
            "no hop bound".into(),
        ]);
    }
    {
        let gm = gen::random_graph_metric(n, n / 2, &mut rng(17_100));
        for ell in [2usize, 3] {
            let oracle = TzOracle::new(&gm, ell, &mut rng(17_200 + ell as u64));
            let sp = oracle.spanner_edges(&gm);
            let mut worst: f64 = 1.0;
            for u in 0..n {
                for v in (u + 1)..n {
                    let (est, _) = oracle.query(u, v);
                    worst = worst.max(est / gm.dist(u, v));
                }
            }
            rows.push(vec![
                format!("Thorup–Zwick ℓ={ell} (general metric)"),
                sp.len().to_string(),
                format!("{worst:.2}"),
                "2".into(),
                format!("stretch ≤ {}", 2 * ell - 1),
            ]);
        }
    }
    {
        let mst = minimum_spanning_tree(&m);
        let (stretch, hops) = stretch_and_hops(&m, &mst);
        rows.push(vec![
            "MST".into(),
            mst.len().to_string(),
            format!("{stretch:.2}"),
            hops.to_string(),
            "minimal size".into(),
        ]);
    }
    let table = md_table(
        &[
            "construction",
            "edges",
            "stretch",
            "max hops (min-weight paths)",
            "notes",
        ],
        &rows,
    );
    format!(
        "Paper (§1.1): classic spanners (greedy, Θ-graphs, MST) have no \
         useful hop bound — constant-degree constructions force Ω(log n) \
         hops, Θ-graphs/MST up to Ω(n); Thorup–Zwick gives 2 hops but \
         stretch 2ℓ-1 ≥ 3. The k-hop spanners buy hops ≈ 1 with stretch \
         1+ε at an O(n·α_k·ζ) size. Expected shape: only hopspan and TZ \
         bound hops; hopspan's stretch is far tighter than TZ's.\n\n{table}\n"
    )
}

/// E18: shallow-light trees — the β trade-off between root stretch and
/// lightness, built entirely through the navigator.
pub fn e18_slt() -> String {
    use hopspan_apps::shallow_light_tree;
    let n = 96;
    let m = gen::uniform_points(n, 2, &mut rng(18_000));
    let nav = MetricNavigator::doubling(&m, 0.25, 3).unwrap();
    let base = mst_weight(&m);
    let mut rows = Vec::new();
    for &beta in &[0.25f64, 0.5, 1.0, 2.0, 4.0] {
        let slt = shallow_light_tree(&m, &nav, 0, beta);
        let w: f64 = slt.edges(&m).iter().map(|e| e.2).sum();
        rows.push(vec![
            format!("{beta}"),
            format!("{:.3}", slt.measured_stretch(&m)),
            format!("{:.3}", w / base),
        ]);
    }
    let table = md_table(&["β", "root stretch", "lightness (w/MST)"], &rows);
    format!(
        "Paper §1.3: an SLT — a tree combining SPT-like root distances and \
         MST-like weight [KRY93] — follows from the navigated approximate \
         SPT and MST in linear extra time, as a subgraph of the spanner. \
         Expected shape: root stretch grows and lightness shrinks as β \
         grows.\n\n{table}\n"
    )
}

/// E19: multiterminal max-flow — Gomory–Hu + min-semigroup tree products.
pub fn e19_flow() -> String {
    use hopspan_apps::{MaxFlow, MultiterminalFlow};
    let mut rows = Vec::new();
    for &n in &[32usize, 64] {
        let mut r = rng(19_000 + n as u64);
        let mut edges: Vec<(usize, usize, f64)> = (1..n)
            .map(|v| (r.gen_range(0..v), v, 1.0 + r.gen::<f64>() * 4.0))
            .collect();
        for _ in 0..n {
            let (a, b) = (r.gen_range(0..n), r.gen_range(0..n));
            if a != b {
                edges.push((a, b, 1.0 + r.gen::<f64>() * 4.0));
            }
        }
        let g = hopspan_metric::Graph::new(n, &edges).unwrap();
        for &k in &[2usize, 4] {
            let (mtf, prep) = time(|| MultiterminalFlow::new(&g, k).unwrap());
            let mf = MaxFlow::new(n, g.edges());
            let mut mismatches = 0usize;
            let mut queries = 0usize;
            let (_, q_time) = time(|| {
                for u in 0..n {
                    for v in (u + 1)..n {
                        let fast = mtf.max_flow_value(u, v).unwrap();
                        let (slow, _) = mf.max_flow(u, v);
                        if (fast - slow).abs() > 1e-6 * slow.max(1.0) {
                            mismatches += 1;
                        }
                        queries += 1;
                    }
                }
            });
            rows.push(vec![
                n.to_string(),
                k.to_string(),
                queries.to_string(),
                mismatches.to_string(),
                format!("{:.2}", mtf.query_operations() as f64 / queries as f64),
                (k - 1).to_string(),
                ms(prep),
                ms(q_time),
            ]);
        }
    }
    let table = md_table(
        &[
            "n",
            "k",
            "pairs",
            "mismatches vs Dinic",
            "min-ops/query",
            "bound k-1",
            "preprocess ms",
            "all-pairs query ms (incl. Dinic check)",
        ],
        &rows,
    );
    format!(
        "Paper §5.6.1 (via [AS87]/[Tar79]): max-flow values in a \
         multiterminal network are min-edge queries on the Gomory–Hu tree \
         — an online tree product over the min semigroup, answered with \
         k−1 operations. Expected shape: zero mismatches against direct \
         Dinic computations; ops/query ≤ k−1.\n\n{table}\n"
    )
}

/// E20: ablation — Ramsey home-tree dispatch (O(1)) vs min-distance scan
/// (O(ζ)) on the same cover.
pub fn e20_selection_ablation() -> String {
    let n = 96;
    // A quadratically-spread line: high aspect ratio forces several
    // Ramsey rounds, so the cover genuinely has multiple trees.
    let m = hopspan_metric::EuclideanSpace::from_points(
        &(0..n).map(|i| vec![(i * i) as f64]).collect::<Vec<_>>(),
    );
    let cover = RamseyTreeCover::new(&m, 1, &mut rng(20_001)).unwrap();
    let home: Vec<usize> = (0..n).map(|p| cover.home(p)).collect();
    let doms = cover.into_cover().into_trees();
    // Rebuild two navigators over the same trees: clone via re-running the
    // cover is unsound (randomized), so split the trees by reconstructing
    // the navigator twice from the same dominating trees is not possible
    // without Clone — instead build once with homes and once without from
    // two identically-seeded covers.
    let cover2 = RamseyTreeCover::new(&m, 1, &mut rng(20_001)).unwrap();
    let nav_home =
        MetricNavigator::from_cover(&m, cover2.into_cover().into_trees(), Some(home), 2).unwrap();
    let nav_scan = MetricNavigator::from_cover(&m, doms, None, 2).unwrap();
    let ((s_home, h_home), t_home) = time(|| nav_home.measured_stretch_and_hops(&m).unwrap());
    let ((s_scan, h_scan), t_scan) = time(|| nav_scan.measured_stretch_and_hops(&m).unwrap());
    let rows = vec![
        vec![
            "home tree (paper, O(1) select)".to_string(),
            format!("{s_home:.1}"),
            h_home.to_string(),
            ms(t_home),
        ],
        vec![
            "min tree distance (O(ζ) select)".to_string(),
            format!("{s_scan:.1}"),
            h_scan.to_string(),
            ms(t_scan),
        ],
    ];
    let table = md_table(
        &["selection policy", "stretch", "hops", "all-pairs time ms"],
        &rows,
    );
    format!(
        "Ablation of the Theorem 1.2 tree-selection step on a Ramsey cover \
         (ζ = {} trees): the home-tree dispatch is O(1) per query and is \
         what the O(ℓ)-stretch guarantee rests on; scanning all trees for \
         the minimum tree distance can only improve the realized stretch, \
         at O(ζ) per query. Expected shape: scan ≤ home stretch; scan \
         slower.\n\n{table}\n",
        nav_scan.tree_count(),
    )
}

/// E21: the parallel preprocessing pipeline — per-phase build telemetry
/// and worker-count determinism on a doubling navigator and on the
/// fault-tolerant spanner of hopbench's `mixed-ft` instance.
pub fn e21_parallel_build() -> String {
    let n = 1024;
    let m = hopspan_metric::EuclideanSpace::from_points(
        &(0..n).map(|i| vec![i as f64]).collect::<Vec<_>>(),
    );
    // hopbench `mixed-ft`'s point set (n = 512, its dataset seed); the
    // smoke run shrinks it.
    use rand::SeedableRng;
    let n_ft = if report::smoke() { 128 } else { 512 };
    let ft_points = gen::clustered_points(
        n_ft,
        2,
        16,
        0.02,
        &mut rand_chacha::ChaCha8Rng::seed_from_u64(0x4853_5044 ^ 0x6d69_7864),
    );
    let auto = hopspan_pipeline::auto_workers();
    let lint_clean = workspace_lint_clean();
    let phase_ms = |stats: &hopspan_pipeline::BuildStats, name: &str| {
        stats
            .phase_duration(name)
            .map_or_else(|| "-".into(), |d| format!("{:.1}", d.as_secs_f64() * 1e3))
    };
    let row = |what: &str, stats: &hopspan_pipeline::BuildStats, t: Duration| {
        vec![
            what.to_string(),
            stats.workers.to_string(),
            ms(t),
            phase_ms(stats, "cover/trees"),
            phase_ms(stats, "spanners"),
            phase_ms(stats, "materialize"),
            stats.tree_count.to_string(),
            stats.edge_instances.to_string(),
            format!("{} (x{:.2})", stats.edges_after_dedup, stats.dedup_ratio()),
        ]
    };
    let mut rows = Vec::new();
    let mut nav_edges = Vec::new();
    let mut ft_edges = Vec::new();
    for workers in [Some(1), None] {
        let ((nav, mut stats), t) =
            time(|| MetricNavigator::doubling_with_stats(&m, 0.5, 2, workers).unwrap());
        stats.lint_clean = lint_clean;
        rows.push(row("navigator", &stats, t));
        nav_edges.push(nav.spanner_edges().to_vec());
        let ((ft, stats), t) =
            time(|| FaultTolerantSpanner::new_with_stats(&ft_points, 0.5, 1, 3, workers).unwrap());
        rows.push(row("FT spanner", &stats, t));
        ft_edges.push(ft.edges().to_vec());
    }
    let identical = nav_edges[0] == nav_edges[1] && ft_edges[0] == ft_edges[1];
    assert!(identical, "E21: edge sets differ across worker counts");
    let table = md_table(
        &[
            "build",
            "workers",
            "build ms",
            "cover trees ms",
            "spanners ms",
            "materialize ms",
            "trees",
            "edge instances",
            "after dedup",
        ],
        &rows,
    );
    format!(
        "Per-tree builds fan out over scoped worker threads and join in \
         tree index order, so the edge sets are bit-identical for every \
         worker count (available parallelism here: {auto}). Expected \
         shape: identical edge sets; the `cover trees` and `spanners` \
         phases, which both run on the worker pipeline, shrink with \
         workers on multicore hosts, while `materialize` stays \
         sequential. Navigator: n = {n}, line metric, ε = 0.5, k = 2. FT \
         spanner: hopbench `mixed-ft`'s clustered points (n = {n_ft}, 16 \
         clusters), ε = 0.5, f = 1, k = 3. Edge sets identical across \
         worker counts: **{identical}**. Source tree lint-clean \
         (`hopspan-lint` in-process, stamped into `BuildStats.lint_clean`): \
         **{lint_clean}**.\n\n{table}\n",
    )
}

/// Runs `hopspan-lint` in-process over the workspace this binary was
/// built from and reports whether it came back with zero findings.
/// `CARGO_MANIFEST_DIR` is a compile-time path, which is exactly right:
/// the stamp certifies the source tree of the running binary. Returns
/// `false` when the tree is gone (e.g. an installed binary) — "not
/// checkable" must not read as "certified clean".
fn workspace_lint_clean() -> bool {
    matches!(hopspan_lint::analyze_workspace(report::workspace_root()), Ok(f) if f.is_empty())
}

// --------------------------------------------------------------- E22

/// Pre-refactor query throughput (queries/sec), measured on this
/// container at commit 9496430 — immediately before the dense-layout
/// query-path overhaul (BTreeMap navigation tables, per-query
/// allocations, per-query base-case Bellman–Ford). Keyed by
/// `(workload, n, op)`. E22 reports current-vs-baseline speedups
/// against these numbers; buffer-reuse ops (`find_path_into`,
/// `route_into`) compare against the allocating pre-refactor op of the
/// same name without the `_into` suffix.
const E22_BASELINE_QPS: &[(&str, usize, &str, f64)] = &[
    ("uniform", 256, "find_path", 2_825_220.0),
    ("uniform", 256, "approx_distance", 48_389_183.0),
    ("uniform", 256, "route", 6_943_460.0),
    ("uniform", 1024, "find_path", 2_000_899.0),
    ("uniform", 1024, "approx_distance", 31_204_424.0),
    ("uniform", 1024, "route", 2_343_243.0),
    ("uniform", 4096, "find_path", 1_318_175.0),
    ("uniform", 4096, "approx_distance", 16_936_899.0),
    ("uniform", 4096, "route", 609_465.0),
    ("clustered", 256, "find_path", 1_579_003.0),
    ("clustered", 256, "approx_distance", 5_348_418.0),
    ("clustered", 256, "route", 4_263_816.0),
    ("clustered", 1024, "find_path", 868_213.0),
    ("clustered", 1024, "approx_distance", 2_386_328.0),
    ("clustered", 1024, "route", 2_279_588.0),
    ("clustered", 4096, "find_path", 419_924.0),
    ("clustered", 4096, "approx_distance", 1_438_708.0),
    ("clustered", 4096, "route", 618_406.0),
    ("tree", 256, "find_path", 3_525_351.0),
    ("tree", 256, "route", 7_068_293.0),
    ("tree", 1024, "find_path", 2_641_656.0),
    ("tree", 1024, "route", 3_313_945.0),
    ("tree", 4096, "find_path", 1_811_557.0),
    ("tree", 4096, "route", 820_728.0),
];

fn e22_baseline_qps(workload: &str, n: usize, op: &str) -> Option<f64> {
    let key_op = op.strip_suffix("_into").unwrap_or(op);
    E22_BASELINE_QPS
        .iter()
        .find(|(w, nn, o, _)| *w == workload && *nn == n && *o == key_op)
        .map(|&(_, _, _, q)| q)
}

/// One measured cell of the query-throughput matrix.
struct E22Cell {
    workload: &'static str,
    n: usize,
    op: &'static str,
    qps: f64,
    p50_ns: u64,
    p99_ns: u64,
    allocs_per_query: f64,
}

struct E22Cfg {
    ns: Vec<usize>,
    pairs: usize,
    sample: usize,
    min_batch_secs: f64,
    smoke: bool,
}

impl E22Cfg {
    fn from_env() -> Self {
        let smoke = report::smoke();
        if smoke {
            E22Cfg {
                ns: vec![256],
                pairs: 2_000,
                sample: 1_000,
                min_batch_secs: 0.02,
                smoke,
            }
        } else {
            E22Cfg {
                ns: vec![256, 1024, 4096],
                pairs: 40_000,
                sample: 20_000,
                min_batch_secs: 0.25,
                smoke,
            }
        }
    }
}

/// Seeded query pairs for one cell.
fn e22_pairs(n: usize, count: usize, tag: u64) -> Vec<(usize, usize)> {
    let mut r = rng(0xE22_0000 ^ tag ^ (n as u64));
    (0..count)
        .map(|_| (r.gen_range(0..n), r.gen_range(0..n)))
        .collect()
}

/// Measures one query op over a fixed pair set: warm-up, allocations
/// per query, batch throughput and per-query p50/p99.
fn e22_measure(
    workload: &'static str,
    n: usize,
    op: &'static str,
    cfg: &E22Cfg,
    pairs: &[(usize, usize)],
    mut f: impl FnMut(usize, usize) -> usize,
) -> E22Cell {
    let mut sink = 0usize;
    // Warm-up: touch every code path and fault in the tables.
    for &(u, v) in pairs.iter().take(2_000) {
        sink = sink.wrapping_add(f(u, v));
    }
    let before = crate::allocs::count();
    for &(u, v) in pairs {
        sink = sink.wrapping_add(f(u, v));
    }
    let allocs_per_query = (crate::allocs::count() - before) as f64 / pairs.len() as f64;
    // Batch throughput: whole passes over the pair set until the clock
    // budget is spent.
    let start = std::time::Instant::now();
    let mut total = 0usize;
    loop {
        for &(u, v) in pairs {
            sink = sink.wrapping_add(f(u, v));
        }
        total += pairs.len();
        if start.elapsed().as_secs_f64() >= cfg.min_batch_secs {
            break;
        }
    }
    let qps = total as f64 / start.elapsed().as_secs_f64();
    // Per-query latency distribution on a prefix of the pairs.
    let mut lat: Vec<u64> = Vec::with_capacity(cfg.sample.min(pairs.len()));
    for &(u, v) in pairs.iter().take(cfg.sample) {
        let t0 = std::time::Instant::now();
        sink = sink.wrapping_add(std::hint::black_box(f(u, v)));
        lat.push(t0.elapsed().as_nanos() as u64);
    }
    lat.sort_unstable();
    std::hint::black_box(sink);
    E22Cell {
        workload,
        n,
        op,
        qps,
        p50_ns: quantile(&lat, 0.50),
        p99_ns: quantile(&lat, 0.99),
        allocs_per_query,
    }
}

fn e22_json(cells: &[E22Cell], cfg: &E22Cfg) -> String {
    let rows = cells.iter().map(|c| {
        let baseline = e22_baseline_qps(c.workload, c.n, c.op);
        Obj::default()
            .str("workload", c.workload)
            .raw("n", c.n)
            .str("op", c.op)
            .fixed("qps", c.qps, 0)
            .raw("p50_ns", c.p50_ns)
            .raw("p99_ns", c.p99_ns)
            .fixed("allocs_per_query", c.allocs_per_query, 2)
            .fixed_or_null("baseline_qps", baseline, 0)
            .fixed_or_null("speedup", baseline.map(|b| c.qps / b), 2)
    });
    Obj::header("E22", cfg.smoke).rows("cells", rows).document()
}

/// E22: query throughput across workloads — the benchmark baseline for
/// the dense-layout query-path overhaul. Writes `BENCH_query.json`
/// (see [`report::write_bench`]).
pub fn e22_query_throughput() -> String {
    let cfg = E22Cfg::from_env();
    let mut cells: Vec<E22Cell> = Vec::new();

    for &n in &cfg.ns {
        // Uniform 2D points; ζ pinned by a budgeted Ramsey cover so the
        // measurement tracks navigation cost, not cover size.
        let m = gen::uniform_points(n, 2, &mut rng(0xE22_0001 ^ (n as u64)));
        let (nav, _gamma) =
            MetricNavigator::general_budgeted(&m, 12, 3, &mut rng(0xE22_0002 ^ (n as u64)))
                .expect("budgeted ramsey navigator builds");
        let rs = MetricRoutingScheme::general(&m, 2, &mut rng(0xE22_0003 ^ (n as u64)))
            .expect("ramsey routing scheme builds");
        let pairs = e22_pairs(n, cfg.pairs, 0x11);
        cells.push(e22_measure(
            "uniform",
            n,
            "find_path",
            &cfg,
            &pairs,
            |u, v| nav.find_path(u, v).expect("covered pair").len(),
        ));
        let mut buf = Vec::new();
        cells.push(e22_measure(
            "uniform",
            n,
            "find_path_into",
            &cfg,
            &pairs,
            |u, v| {
                nav.find_path_into(u, v, &mut buf).expect("covered pair");
                buf.len()
            },
        ));
        cells.push(e22_measure(
            "uniform",
            n,
            "approx_distance",
            &cfg,
            &pairs,
            |u, v| nav.approx_distance(u, v).expect("covered pair") as usize,
        ));
        cells.push(e22_measure("uniform", n, "route", &cfg, &pairs, |u, v| {
            rs.route(u, v).expect("routable pair").path.len()
        }));
        let mut trace = RouteTrace::default();
        cells.push(e22_measure(
            "uniform",
            n,
            "route_into",
            &cfg,
            &pairs,
            |u, v| {
                rs.route_into(u, v, &mut trace).expect("routable pair");
                trace.path.len()
            },
        ));
    }

    for &n in &cfg.ns {
        // Clustered 2D points, no home trees: exercises the O(ζ)
        // min-distance tree selection scan.
        let m = gen::clustered_points(n, 2, 8, 0.05, &mut rng(0xE22_0004 ^ (n as u64)));
        let (cover, _gamma) = hopspan_tree_cover::RamseyTreeCover::with_tree_budget(
            &m,
            12,
            &mut rng(0xE22_0005 ^ (n as u64)),
        )
        .expect("budgeted ramsey cover builds");
        let nav = MetricNavigator::from_cover(&m, cover.into_cover().into_trees(), None, 3)
            .expect("navigator from cover builds");
        let rs = MetricRoutingScheme::general(&m, 2, &mut rng(0xE22_0006 ^ (n as u64)))
            .expect("ramsey routing scheme builds");
        let pairs = e22_pairs(n, cfg.pairs, 0x22);
        cells.push(e22_measure(
            "clustered",
            n,
            "find_path",
            &cfg,
            &pairs,
            |u, v| nav.find_path(u, v).expect("covered pair").len(),
        ));
        let mut buf = Vec::new();
        cells.push(e22_measure(
            "clustered",
            n,
            "find_path_into",
            &cfg,
            &pairs,
            |u, v| {
                nav.find_path_into(u, v, &mut buf).expect("covered pair");
                buf.len()
            },
        ));
        cells.push(e22_measure(
            "clustered",
            n,
            "approx_distance",
            &cfg,
            &pairs,
            |u, v| nav.approx_distance(u, v).expect("covered pair") as usize,
        ));
        cells.push(e22_measure(
            "clustered",
            n,
            "route",
            &cfg,
            &pairs,
            |u, v| rs.route(u, v).expect("routable pair").path.len(),
        ));
        let mut trace = RouteTrace::default();
        cells.push(e22_measure(
            "clustered",
            n,
            "route_into",
            &cfg,
            &pairs,
            |u, v| {
                rs.route_into(u, v, &mut trace).expect("routable pair");
                trace.path.len()
            },
        ));
    }

    for &n in &cfg.ns {
        // Tree metric: Theorem 1.1 navigation directly (k = 4 exercises
        // the recursive sub-hierarchy arm) and tree routing (k = 2).
        let t = gen::random_tree(n, &mut rng(0xE22_0007 ^ (n as u64)));
        let sp = TreeHopSpanner::new(&t, 4).expect("tree spanner builds");
        let trs = TreeRoutingScheme::new(&t, &mut rng(0xE22_0008 ^ (n as u64)))
            .expect("tree routing scheme builds");
        let pairs = e22_pairs(n, cfg.pairs, 0x33);
        cells.push(e22_measure("tree", n, "find_path", &cfg, &pairs, |u, v| {
            sp.find_path(u, v).expect("required pair").len()
        }));
        let mut buf = Vec::new();
        cells.push(e22_measure(
            "tree",
            n,
            "find_path_into",
            &cfg,
            &pairs,
            |u, v| {
                sp.find_path_into(u, v, &mut buf).expect("required pair");
                buf.len()
            },
        ));
        cells.push(e22_measure("tree", n, "route", &cfg, &pairs, |u, v| {
            trs.route(u, v).expect("routable pair").path.len()
        }));
        let mut trace = RouteTrace::default();
        cells.push(e22_measure(
            "tree",
            n,
            "route_into",
            &cfg,
            &pairs,
            |u, v| {
                trs.route_into(u, v, &mut trace).expect("routable pair");
                trace.path.len()
            },
        ));
    }

    let json_note = report::write_bench("query", &e22_json(&cells, &cfg));

    let mut rows = Vec::new();
    for c in &cells {
        let baseline = e22_baseline_qps(c.workload, c.n, c.op);
        rows.push(vec![
            c.workload.to_string(),
            c.n.to_string(),
            c.op.to_string(),
            format!("{:.0}", c.qps),
            c.p50_ns.to_string(),
            c.p99_ns.to_string(),
            format!("{:.2}", c.allocs_per_query),
            baseline.map_or_else(|| "-".into(), |b| format!("x{:.2}", c.qps / b)),
        ]);
    }
    let table = md_table(
        &[
            "workload",
            "n",
            "op",
            "q/s",
            "p50 ns",
            "p99 ns",
            "allocs/q",
            "vs baseline",
        ],
        &rows,
    );
    let headline = cells
        .iter()
        .filter(|c| c.workload == "uniform" && c.n == 4096 && c.op.starts_with("find_path"))
        .filter_map(|c| e22_baseline_qps(c.workload, c.n, c.op).map(|b| (c.op, c.qps / b)))
        .map(|(op, s)| format!("{op} x{s:.2}"))
        .collect::<Vec<_>>()
        .join(", ");
    let headline = if headline.is_empty() {
        "no baseline constants recorded yet".to_string()
    } else {
        format!("n = 4096 uniform speedup vs pre-refactor baseline: {headline}")
    };
    format!(
        "Query throughput after the dense-layout overhaul: flat `Vec` \
         navigation tables, precomputed base-case paths, buffer-reuse \
         query APIs. Workloads: uniform 2D (budgeted Ramsey cover, ζ = \
         12, home trees), clustered 2D (same cover, min-distance \
         selection scan), random tree metrics (k = 4). Latencies are \
         per-query wall clock; allocs/q counts heap allocations through \
         the counting allocator of the `exp` binary. {headline}. {json_note}\n\n{table}\n",
    )
}

// --------------------------------------------------------------- E23

/// Aggregated fault-scenario cell of the E23 chaos campaign: one
/// (fault budget, adversary strategy) pair.
struct E23Group {
    f: usize,
    strategy: String,
    in_total: usize,
    in_full: usize,
    in_max_stretch: f64,
    over_total: usize,
    over_typed: usize,
    over_degraded: usize,
    degraded_max_stretch: f64,
}

fn e23_fault_groups(report: &hopspan_chaos::CampaignReport) -> Vec<E23Group> {
    use hopspan_chaos::{OutcomeKind, ScenarioKind};
    let mut groups: Vec<E23Group> = Vec::new();
    for s in &report.scenarios {
        let over = match s.kind {
            ScenarioKind::InContractFaults => false,
            ScenarioKind::OverBudgetFaults => true,
            _ => continue,
        };
        let g = match groups
            .iter_mut()
            .find(|g| g.f == s.f_budget && g.strategy == s.tag)
        {
            Some(g) => g,
            None => {
                groups.push(E23Group {
                    f: s.f_budget,
                    strategy: s.tag.to_string(),
                    in_total: 0,
                    in_full: 0,
                    in_max_stretch: 1.0,
                    over_total: 0,
                    over_typed: 0,
                    over_degraded: 0,
                    degraded_max_stretch: 1.0,
                });
                groups.last_mut().expect("just pushed")
            }
        };
        if over {
            g.over_total += 1;
            match s.outcome {
                OutcomeKind::TypedError => g.over_typed += 1,
                OutcomeKind::Degraded => {
                    g.over_degraded += 1;
                    g.degraded_max_stretch = g.degraded_max_stretch.max(s.max_stretch);
                }
                _ => {}
            }
        } else {
            g.in_total += 1;
            if s.outcome == OutcomeKind::Full {
                g.in_full += 1;
            }
            g.in_max_stretch = g.in_max_stretch.max(s.max_stretch);
        }
    }
    groups.sort_by(|a, b| a.f.cmp(&b.f).then(a.strategy.cmp(&b.strategy)));
    groups
}

/// Per-tag (outcome kind) counts for the corrupt-metric and
/// panic-injection families.
fn e23_tag_counts(
    report: &hopspan_chaos::CampaignReport,
    kind: hopspan_chaos::ScenarioKind,
) -> Vec<(String, usize, usize, usize)> {
    use hopspan_chaos::OutcomeKind;
    let mut rows: Vec<(String, usize, usize, usize)> = Vec::new();
    for s in report.scenarios.iter().filter(|s| s.kind == kind) {
        let row = match rows.iter_mut().find(|r| r.0 == s.tag) {
            Some(r) => r,
            None => {
                rows.push((s.tag.to_string(), 0, 0, 0));
                rows.last_mut().expect("just pushed")
            }
        };
        row.3 += 1;
        match s.outcome {
            OutcomeKind::TypedError => row.1 += 1,
            OutcomeKind::Full | OutcomeKind::Degraded => row.2 += 1,
            _ => {}
        }
    }
    rows
}

fn e23_json(
    report: &hopspan_chaos::CampaignReport,
    cfg: &hopspan_chaos::CampaignConfig,
    smoke: bool,
    groups: &[E23Group],
) -> String {
    use hopspan_chaos::ScenarioKind;
    let fault_groups = groups.iter().map(|g| {
        Obj::default()
            .raw("f", g.f)
            .str("strategy", &g.strategy)
            .raw("in_full", g.in_full)
            .raw("in_total", g.in_total)
            .fixed("in_max_stretch", g.in_max_stretch, 6)
            .raw("over_typed", g.over_typed)
            .raw("over_degraded", g.over_degraded)
            .raw("over_total", g.over_total)
            .fixed("degraded_max_stretch", g.degraded_max_stretch, 6)
    });
    let mut doc = Obj::header("E23", smoke)
        .raw("scenarios", report.scenarios.len())
        .raw("escaped_panics", report.escaped_panics)
        .raw("violations", report.violations().len())
        .fixed("survival_rate", report.survival_rate(), 4)
        .fixed(
            "max_in_contract_stretch",
            report.max_in_contract_stretch(),
            6,
        )
        .fixed("stretch_bound", cfg.stretch_bound, 2)
        .hex("degraded_hash", report.degraded_hash())
        .rows("fault_groups", fault_groups);
    for (key, kind) in [
        ("corrupt_metrics", ScenarioKind::CorruptMetric),
        ("panic_injection", ScenarioKind::PanicInjection),
        ("serve_panic", ScenarioKind::ServePanic),
    ] {
        let rows = e23_tag_counts(report, kind)
            .into_iter()
            .map(|(tag, typed, survived, total)| {
                Obj::default()
                    .str("tag", tag)
                    .raw("typed_errors", typed)
                    .raw("survived", survived)
                    .raw("total", total)
            });
        doc = doc.rows(key, rows);
    }
    doc.document()
}

/// E23: the chaos campaign — deterministic fault injection across the
/// query stack (adversarial fault sets, corrupted metrics, injected
/// worker panics). Writes `BENCH_chaos.json` (see
/// [`report::write_bench`]). The smoke variant still runs ≥ 200
/// scenarios.
pub fn e23_chaos() -> String {
    use hopspan_chaos::{run_campaign, CampaignConfig, ScenarioKind};
    let smoke = report::smoke();
    let cfg = if smoke {
        CampaignConfig::smoke(crate::SEED)
    } else {
        CampaignConfig {
            seed: crate::SEED,
            ..CampaignConfig::default()
        }
    };
    let report = run_campaign(&cfg);
    let groups = e23_fault_groups(&report);

    let json_note = report::write_bench("chaos", &e23_json(&report, &cfg, smoke, &groups));

    let fault_rows: Vec<Vec<String>> = groups
        .iter()
        .map(|g| {
            vec![
                g.f.to_string(),
                g.strategy.clone(),
                format!("{}/{}", g.in_full, g.in_total),
                format!("{:.4}", g.in_max_stretch),
                format!("{}/{}", g.over_typed, g.over_total),
                format!("{}/{}", g.over_degraded, g.over_total),
                format!("{:.4}", g.degraded_max_stretch),
            ]
        })
        .collect();
    let fault_table = md_table(
        &[
            "f",
            "adversary",
            "in-contract full",
            "in max stretch",
            "over-budget typed",
            "over-budget degraded",
            "degraded max stretch",
        ],
        &fault_rows,
    );

    let mut family_rows = Vec::new();
    for (family, kind) in [
        ("corrupt metric", ScenarioKind::CorruptMetric),
        ("panic injection", ScenarioKind::PanicInjection),
        ("serve layer", ScenarioKind::ServePanic),
    ] {
        for (tag, typed, survived, total) in e23_tag_counts(&report, kind) {
            family_rows.push(vec![
                family.to_string(),
                tag,
                typed.to_string(),
                survived.to_string(),
                total.to_string(),
            ]);
        }
    }
    let family_table = md_table(
        &["family", "tag", "typed errors", "survived", "total"],
        &family_rows,
    );

    let violations = report.violations();
    assert_eq!(
        report.escaped_panics, 0,
        "a chaos panic escaped containment"
    );
    assert!(
        report.scenarios.len() >= 200,
        "chaos campaign ran {} scenarios (floor 200)",
        report.scenarios.len()
    );
    assert!(
        violations.is_empty(),
        "chaos campaign produced contract violations: {violations:?}"
    );
    format!(
        "Chaos campaign over the full query stack, seeded and \
         bit-replayable: {} scenarios, {} escaped panics, {} contract \
         violations. In-contract queries stayed within the §6 bound \
         (max stretch {:.4} ≤ {:.1}); over-budget fault sets resolved \
         as typed `TooManyFaults` under `Strict` and as deterministic \
         `Degraded` deliveries under `BestEffort` (golden hash \
         {:#018x}); corrupted metrics were rejected typed wherever the \
         damage is observable; injected worker panics never escaped \
         the pipeline; the serve-layer probes (worker panics behind a \
         live TCP front, malformed/truncated/corrupted frames) all \
         resolved typed without hanging a connection. Survival rate \
         over fault scenarios: {:.1}%. \
         {json_note}\n\n{fault_table}\n{family_table}\n",
        report.scenarios.len(),
        report.escaped_panics,
        violations.len(),
        report.max_in_contract_stretch(),
        cfg.stretch_bound,
        report.degraded_hash(),
        report.survival_rate() * 100.0,
    )
}

// --------------------------------------------------------------- E24

/// E24 configuration (smoke variant: `HOPSPAN_SMOKE=1`).
struct E24Cfg {
    n: usize,
    pairs: usize,
    clients: usize,
    warmup_passes: usize,
    passes: usize,
    smoke: bool,
}

impl E24Cfg {
    fn from_env() -> Self {
        let smoke = report::smoke();
        if smoke {
            E24Cfg {
                n: 512,
                pairs: 256,
                clients: 2,
                warmup_passes: 1,
                passes: 2,
                smoke,
            }
        } else {
            E24Cfg {
                n: 4096,
                pairs: 2048,
                clients: 2,
                warmup_passes: 1,
                passes: 2,
                smoke,
            }
        }
    }
}

/// One cell of the E24 serving sweep.
struct E24Cell {
    shards: usize,
    batch: usize,
    policy: &'static str,
    queries: u64,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    mean_batch: f64,
    shed: u64,
    errors: u64,
    allocs_per_query: f64,
}

/// Counters sampled at the warmup/measure barriers of one cell.
struct E24Sample {
    wall: Duration,
    lat0: [u64; LATENCY_BUCKETS],
    lat1: [u64; LATENCY_BUCKETS],
    snap0: MetricsSnapshot,
    snap1: MetricsSnapshot,
    allocs: u64,
}

fn e24_policy_tag(policy: DegradationPolicy) -> &'static str {
    match policy {
        DegradationPolicy::Strict => "strict",
        DegradationPolicy::BestEffort => "best-effort",
    }
}

/// Random distinct query pairs over `0..n`.
fn e24_pairs(n: usize, count: usize, salt: u64) -> Vec<(u32, u32)> {
    let mut r = rng(0xE24_0002 ^ salt);
    (0..count)
        .map(|_| {
            let u = r.gen_range(0..n);
            let mut v = r.gen_range(0..n);
            if v == u {
                v = (v + 1) % n;
            }
            (u as u32, v as u32)
        })
        .collect()
}

/// One client's closed loop: replay the per-shard pair lists in
/// submission windows of `window` requests, waiting out the whole
/// window before opening the next (`window == 1` is pure
/// request–response). Windows are shard-affine — every request in a
/// window targets the same shard, exactly what the wire server's
/// affinity dispatch produces — so a window's requests pile up on one
/// worker's queue and drain together instead of scattering across
/// shards. The pending vector and the path buffer are caller-owned
/// so the measured passes reuse the capacity the warmup passes grew.
fn e24_client_pass<'e>(
    engine: &'e ShardedNavigator,
    by_shard: &[Vec<(u32, u32)>],
    client: usize,
    window: usize,
    passes: usize,
    pending: &mut Vec<Pending<'e>>,
    out: &mut Vec<usize>,
) {
    for _ in 0..passes {
        for s in 0..by_shard.len() {
            // Clients start on different shards so they mostly drive
            // disjoint queues.
            let list = &by_shard[(s + client) % by_shard.len()];
            for chunk in list.chunks(window) {
                for &(u, v) in chunk {
                    match engine.try_submit(Op::FindPath { u, v }) {
                        Ok(p) => pending.push(p),
                        Err(_) => {
                            // Only reachable if the sweep's depth
                            // sizing is wrong for this cell: drain the
                            // window, then serve through the
                            // policy-aware front door.
                            for p in pending.drain(..) {
                                let _ = p.wait_into(out);
                            }
                            let _ = engine.call(Op::FindPath { u, v }, out);
                        }
                    }
                }
                for p in pending.drain(..) {
                    let _ = p.wait_into(out);
                }
            }
        }
    }
}

/// Runs warmup + measured passes against `engine`, sampling latency
/// buckets, counters and the allocation hook exactly around the
/// measured phase (clients park on a barrier while the parent reads
/// the counters, so warmup traffic never leaks into the window).
fn e24_drive(
    engine: &ShardedNavigator,
    by_shard: &[Vec<(u32, u32)>],
    cfg: &E24Cfg,
    window: usize,
) -> E24Sample {
    let barrier = Barrier::new(cfg.clients + 1);
    let mut sample = E24Sample {
        wall: Duration::ZERO,
        lat0: [0; LATENCY_BUCKETS],
        lat1: [0; LATENCY_BUCKETS],
        snap0: MetricsSnapshot::default(),
        snap1: MetricsSnapshot::default(),
        allocs: 0,
    };
    std::thread::scope(|s| {
        for c in 0..cfg.clients {
            let barrier = &barrier;
            s.spawn(move || {
                let mut out: Vec<usize> = Vec::with_capacity(256);
                let mut pending: Vec<Pending<'_>> = Vec::with_capacity(window);
                e24_client_pass(
                    engine,
                    by_shard,
                    c,
                    window,
                    cfg.warmup_passes,
                    &mut pending,
                    &mut out,
                );
                barrier.wait(); // warmup drained
                barrier.wait(); // parent sampled the start counters
                e24_client_pass(
                    engine,
                    by_shard,
                    c,
                    window,
                    cfg.passes,
                    &mut pending,
                    &mut out,
                );
                barrier.wait(); // measured passes drained
            });
        }
        barrier.wait();
        sample.lat0 = engine.metrics().latency.counts();
        sample.snap0 = engine.snapshot();
        let allocs0 = crate::allocs::count();
        let t0 = Instant::now();
        barrier.wait();
        barrier.wait();
        sample.wall = t0.elapsed();
        sample.allocs = crate::allocs::count() - allocs0;
        sample.lat1 = engine.metrics().latency.counts();
        sample.snap1 = engine.snapshot();
    });
    sample
}

fn e24_cell(
    backend: &Arc<ServeBackend>,
    shards: usize,
    batch: usize,
    policy: DegradationPolicy,
    pairs: &[(u32, u32)],
    cfg: &E24Cfg,
) -> E24Cell {
    let serve_cfg = ServeConfig {
        shards,
        workers_per_shard: 1,
        max_batch: batch,
        // Sized so the closed-loop windows never hit admission: the
        // sweep measures throughput, the overload probe measures
        // shedding.
        queue_depth: (cfg.clients * batch * 4).max(64),
        policy,
        ..ServeConfig::default()
    };
    let engine =
        ShardedNavigator::shared(Arc::clone(backend), serve_cfg).expect("serve engine starts");
    // Pre-partition the pair stream by serving shard (FNV-1a affinity
    // on the first endpoint), mirroring the wire server's dispatch.
    let mut by_shard: Vec<Vec<(u32, u32)>> = vec![Vec::new(); shards];
    for &(u, v) in pairs {
        by_shard[hopspan_serve::shard_of_point(u, shards)].push((u, v));
    }
    let sample = e24_drive(&engine, &by_shard, cfg, batch);
    let queries = (cfg.clients * cfg.passes * pairs.len()) as u64;
    let mut window = [0u64; LATENCY_BUCKETS];
    for i in 0..LATENCY_BUCKETS {
        window[i] = sample.lat1[i].saturating_sub(sample.lat0[i]);
    }
    let batches = sample.snap1.batches.saturating_sub(sample.snap0.batches);
    let jobs = sample
        .snap1
        .batched_jobs
        .saturating_sub(sample.snap0.batched_jobs);
    E24Cell {
        shards,
        batch,
        policy: e24_policy_tag(policy),
        queries,
        qps: queries as f64 / sample.wall.as_secs_f64().max(1e-9),
        p50_us: quantile_from_counts(&window, 0.50) as f64 / 1e3,
        p99_us: quantile_from_counts(&window, 0.99) as f64 / 1e3,
        mean_batch: if batches == 0 {
            0.0
        } else {
            jobs as f64 / batches as f64
        },
        shed: sample.snap1.shed.saturating_sub(sample.snap0.shed),
        errors: sample.snap1.errors.saturating_sub(sample.snap0.errors),
        allocs_per_query: sample.allocs as f64 / queries as f64,
    }
}

/// One row of the E24 overload probe.
struct E24Overload {
    policy: &'static str,
    admitted: usize,
    offered_over: usize,
    typed_shed: usize,
    inline_degraded: usize,
    shed_counter: u64,
    inline_counter: u64,
}

/// Fills a 1-shard engine to its admission limit (slots, not queue
/// occupancy, bound admission: the held `Pending`s keep every slot
/// taken while the burst lands, however fast the worker drains), then
/// offers an over-limit burst through the policy-aware front
/// door: `Strict` must shed every one typed, `BestEffort` must answer
/// every one inline-degraded with the shed counter staying at zero.
fn e24_overload_probe(backend: &Arc<ServeBackend>, policy: DegradationPolicy) -> E24Overload {
    let depth = 8usize;
    let over = 16usize;
    let serve_cfg = ServeConfig {
        shards: 1,
        workers_per_shard: 1,
        max_batch: depth + over,
        queue_depth: depth,
        policy,
        ..ServeConfig::default()
    };
    let engine =
        ShardedNavigator::shared(Arc::clone(backend), serve_cfg).expect("overload engine starts");
    let n = backend.len() as u32;
    let mut pending = Vec::with_capacity(depth);
    for i in 0..depth as u32 {
        let op = Op::FindPath {
            u: i % n,
            v: (i + 1) % n,
        };
        if let Ok(p) = engine.try_submit(op) {
            pending.push(p);
        }
    }
    let admitted = pending.len();
    let mut typed_shed = 0;
    let mut inline_degraded = 0;
    let mut out = Vec::new();
    for i in 0..over as u32 {
        let op = Op::FindPath {
            u: (7 * i) % n,
            v: (7 * i + 3) % n,
        };
        match engine.call(op, &mut out) {
            Err(ServeError::Overloaded { .. }) => typed_shed += 1,
            Ok(QueryOutcome::Degraded {
                reason: DegradeCode::Overload,
                ..
            }) => inline_degraded += 1,
            _ => {}
        }
    }
    for p in pending.drain(..) {
        let _ = p.wait_into(&mut out);
    }
    let snap = engine.snapshot();
    E24Overload {
        policy: e24_policy_tag(policy),
        admitted,
        offered_over: over,
        typed_shed,
        inline_degraded,
        shed_counter: snap.shed,
        inline_counter: snap.inline_served,
    }
}

fn e24_json(
    cells: &[E24Cell],
    overloads: &[E24Overload],
    headline: Option<f64>,
    cfg: &E24Cfg,
) -> String {
    let cells = cells.iter().map(|c| {
        Obj::default()
            .raw("shards", c.shards)
            .raw("batch", c.batch)
            .str("policy", c.policy)
            .raw("queries", c.queries)
            .fixed("qps", c.qps, 1)
            .fixed("p50_us", c.p50_us, 3)
            .fixed("p99_us", c.p99_us, 3)
            .fixed("mean_batch", c.mean_batch, 2)
            .raw("shed", c.shed)
            .raw("errors", c.errors)
            .fixed("allocs_per_query", c.allocs_per_query, 4)
    });
    let overloads = overloads.iter().map(|o| {
        Obj::default()
            .str("policy", o.policy)
            .raw("admitted", o.admitted)
            .raw("offered_over", o.offered_over)
            .raw("typed_shed", o.typed_shed)
            .raw("inline_degraded", o.inline_degraded)
            .raw("shed_counter", o.shed_counter)
            .raw("inline_counter", o.inline_counter)
    });
    Obj::header("E24", cfg.smoke)
        .raw("n", cfg.n)
        .raw("clients", cfg.clients)
        .fixed_or_null("headline_speedup_4x64_vs_1x1", headline, 4)
        .rows("cells", cells)
        .rows("overload", overloads)
        .document()
}

/// E24: closed-loop load against `hopspan-serve` — shards × batch
/// window × degradation policy, plus an overload probe per policy.
/// Writes `BENCH_serve.json` (see [`report::write_bench`]).
/// Allocs/query counts through the counting allocator of the `exp`
/// binary.
pub fn e24_serve() -> String {
    let cfg = E24Cfg::from_env();
    let points = gen::uniform_points(cfg.n, 2, &mut rng(0xE24_0001));
    let params = BackendParams {
        seed: crate::SEED,
        tree_budget: 12,
        k: 3,
        eps: 0.5,
        f: 1,
        build_router: false,
        build_ft: false,
    };
    let (backend, build) = time(|| {
        ServeBackend::build(&points, &params)
            .map(Arc::new)
            .expect("serve backend builds")
    });
    let pairs = e24_pairs(cfg.n, cfg.pairs, 0x51);

    let mut cells = Vec::new();
    for &policy in &[DegradationPolicy::Strict, DegradationPolicy::BestEffort] {
        for &shards in &[1usize, 2, 4, 8] {
            for &batch in &[1usize, 16, 64] {
                cells.push(e24_cell(&backend, shards, batch, policy, &pairs, &cfg));
            }
        }
    }
    let overloads = [
        e24_overload_probe(&backend, DegradationPolicy::Strict),
        e24_overload_probe(&backend, DegradationPolicy::BestEffort),
    ];

    let qps_of = |shards: usize, batch: usize| {
        cells
            .iter()
            .find(|c| c.shards == shards && c.batch == batch && c.policy == "strict")
            .map(|c| c.qps)
    };
    let headline = match (qps_of(4, 64), qps_of(1, 1)) {
        (Some(a), Some(b)) if b > 0.0 => Some(a / b),
        _ => None,
    };

    let json_note = report::write_bench("serve", &e24_json(&cells, &overloads, headline, &cfg));
    for c in &cells {
        assert_eq!(
            c.allocs_per_query, 0.0,
            "allocs/query at {} shards × batch {} ({})",
            c.shards, c.batch, c.policy
        );
    }
    let [strict, best_effort] = &overloads;
    assert_eq!(
        (
            strict.admitted,
            strict.typed_shed,
            strict.inline_degraded,
            strict.shed_counter
        ),
        (8, 16, 0, 16),
        "Strict overload probe: admit 8, shed 16/16 typed"
    );
    assert_eq!(
        (
            best_effort.admitted,
            best_effort.inline_degraded,
            best_effort.typed_shed,
            best_effort.shed_counter
        ),
        (8, 16, 0, 0),
        "BestEffort overload probe: admit 8, degrade 16/16 inline, shed none"
    );

    let sweep_rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.shards.to_string(),
                c.batch.to_string(),
                c.policy.to_string(),
                format!("{:.0}", c.qps),
                format!("{:.1}", c.p50_us),
                format!("{:.1}", c.p99_us),
                format!("{:.1}", c.mean_batch),
                c.shed.to_string(),
                c.errors.to_string(),
                format!("{:.2}", c.allocs_per_query),
            ]
        })
        .collect();
    let sweep_table = md_table(
        &[
            "shards",
            "batch",
            "policy",
            "q/s",
            "p50 µs",
            "p99 µs",
            "mean batch",
            "shed",
            "errors",
            "allocs/q",
        ],
        &sweep_rows,
    );
    let overload_rows: Vec<Vec<String>> = overloads
        .iter()
        .map(|o| {
            vec![
                o.policy.to_string(),
                o.admitted.to_string(),
                o.offered_over.to_string(),
                o.typed_shed.to_string(),
                o.inline_degraded.to_string(),
                o.shed_counter.to_string(),
                o.inline_counter.to_string(),
            ]
        })
        .collect();
    let overload_table = md_table(
        &[
            "policy",
            "admitted",
            "over-limit offered",
            "typed shed",
            "inline degraded",
            "shed counter",
            "inline counter",
        ],
        &overload_rows,
    );
    let headline_note = headline.map_or_else(
        || "headline cells missing".to_string(),
        |h| format!("4 shards × batch 64 vs 1 shard × batch 1 (Strict): x{h:.2}"),
    );
    format!(
        "Closed-loop load against the `hopspan-serve` engine: {} uniform \
         2D points (backend built once in {} ms, shared across shards), \
         {} clients each replaying {} `FindPath` pairs per pass in \
         submission windows equal to the batch size. On a runner with \
         one or two cores the speedup comes from batching amortization \
         — jobs that pile up while a worker is busy ride one wakeup \
         instead of paying a submit/wake/deliver cycle per query — not \
         from shard parallelism. The drain is work-conserving: a worker \
         takes whatever is queued, up to the batch size, so a window \
         can take more than one wakeup and the mean batch can sit below \
         the window. {headline_note}. Shed stays 0 below the admission \
         limit in every sweep cell; the overload probe shows `Strict` \
         shedding every over-limit request typed and `BestEffort` \
         answering them all inline-degraded (shed counter 0). \
         {json_note}\n\n{sweep_table}\n{overload_table}\n",
        cfg.n,
        ms(build),
        cfg.clients,
        pairs.len(),
    )
}

/// E25 configuration (smoke variant: `HOPSPAN_SMOKE=1`).
struct E25Cfg {
    sizes: Vec<usize>,
    smoke: bool,
}

impl E25Cfg {
    fn from_env() -> Self {
        let smoke = report::smoke();
        let sizes = if smoke {
            vec![256, 1024]
        } else {
            vec![1024, 4096, 16384]
        };
        E25Cfg { sizes, smoke }
    }
}

/// One row of the E25 snapshot-boot sweep.
struct E25Cell {
    n: usize,
    build: Duration,
    write: Duration,
    load: Duration,
    snapshot_bytes: u64,
    live_bytes: u64,
    checksum: u64,
    speedup: f64,
    hx_match: bool,
}

fn e25_cell(n: usize) -> E25Cell {
    let points = gen::uniform_points(n, 2, &mut rng(0xE25_0001 ^ n as u64));
    // The rebuild baseline is the serve boot path: the budgeted
    // general-metric navigator `Backend::build` uses (tree budget 12,
    // k = 3), so the speedup below is what a restarting server gains.
    let live_before = crate::allocs::live();
    let (nav, build) = time(|| {
        let mut brng = rng(crate::SEED ^ n as u64);
        MetricNavigator::general_budgeted(&points, 12, 3, &mut brng)
            .expect("budgeted navigator builds")
            .0
    });
    // The navigator's measured retained heap (0 without the `exp`
    // binary's counting allocator).
    let live_bytes = u64::try_from(crate::allocs::live() - live_before).unwrap_or(0);
    let path = std::env::temp_dir().join(format!("hopspan-e25-{}-{n}.hsnp", std::process::id()));
    let (digest, write) =
        time(|| store::write_snapshot_file(&path, &points, &nav, None).expect("snapshot writes"));
    let ((snap, read_digest), load) =
        time(|| store::read_snapshot_file(&path).expect("snapshot reads back"));
    let _ = std::fs::remove_file(&path);
    assert_eq!(digest, read_digest, "write/read digests must agree");
    let hx_match = store::hx_hash(&snap.navigator) == store::hx_hash(&nav);
    let speedup = build.as_secs_f64() / load.as_secs_f64().max(1e-9);
    E25Cell {
        n,
        build,
        write,
        load,
        snapshot_bytes: digest.bytes,
        live_bytes,
        checksum: digest.checksum,
        speedup,
        hx_match,
    }
}

fn e25_json(cells: &[E25Cell], cfg: &E25Cfg) -> String {
    let cells = cells.iter().map(|c| {
        Obj::default()
            .raw("n", c.n)
            .fixed("build_ms", c.build.as_secs_f64() * 1e3, 3)
            .fixed("write_ms", c.write.as_secs_f64() * 1e3, 3)
            .fixed("load_ms", c.load.as_secs_f64() * 1e3, 3)
            .raw("snapshot_bytes", c.snapshot_bytes)
            .raw("live_bytes", c.live_bytes)
            .hex("checksum", c.checksum)
            .fixed("boot_speedup", c.speedup, 2)
            .raw("hx_match", c.hx_match)
    });
    Obj::header("E25", cfg.smoke)
        .rows("cells", cells)
        .document()
}

/// E25: boot-from-snapshot vs rebuild. Per size, builds the serve
/// layer's budgeted navigator (the rebuild baseline), writes it
/// through the versioned `HSNP` codec, boots it back with full deep
/// validation, and pins the loaded navigator's `H_X` hash against the
/// live one. Writes `BENCH_store.json` (see [`report::write_bench`]).
pub fn e25_store() -> String {
    let cfg = E25Cfg::from_env();
    let cells: Vec<E25Cell> = cfg.sizes.iter().map(|&n| e25_cell(n)).collect();
    assert!(
        cells.iter().all(|c| c.hx_match),
        "snapshot-loaded navigator must hash identically to the live one"
    );

    let json_note = report::write_bench("store", &e25_json(&cells, &cfg));

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.n.to_string(),
                ms(c.build),
                ms(c.write),
                ms(c.load),
                c.snapshot_bytes.to_string(),
                c.live_bytes.to_string(),
                format!("x{:.1}", c.speedup),
                if c.hx_match { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    let table = md_table(
        &[
            "n",
            "build ms",
            "write ms",
            "load ms",
            "snapshot B",
            "live B",
            "boot speedup",
            "H_X match",
        ],
        &rows,
    );
    let headline = cells
        .iter()
        .find(|c| c.n == 4096)
        .map_or_else(String::new, |c| {
            format!(
                " At n = 4096 boot-from-snapshot is x{:.1} faster than \
                 rebuilding from points.",
                c.speedup
            )
        });
    format!(
        "Versioned `HSNP` snapshots (`hopspan-store`) against the rebuild \
         baseline: per size, the serve layer's budgeted navigator (tree \
         budget 12, k = 3 — the `Backend::build` boot path) is built once \
         from points (`build`), serialized with a whole-file FNV-1a \
         checksum (`write`), and booted back through the fully-validating \
         loader (`load`). Every loaded navigator hashes bit-identically to the \
         live one (`H_X match`), so the boot path serves the exact \
         structure the builder produced.{headline} `live B` is the \
         heap the built navigator retains, measured by the `exp` \
         binary's counting allocator: the tables the file stores plus \
         what a load derives from them (the LCA and level-ancestor \
         tables, leaf tables and spans). {json_note}\n\n{table}\n",
    )
}

// --------------------------------------------------------------- E26

/// E26 configuration (smoke variant: `HOPSPAN_SMOKE=1`). The
/// outage campaign stays ≥ 100 scenarios even in smoke — 4 kinds ×
/// `outage_per_kind` is the floor the CI experiments-smoke job asserts.
struct E26Cfg {
    n: usize,
    passes: usize,
    outage_per_kind: usize,
    smoke: bool,
}

impl E26Cfg {
    fn from_env() -> Self {
        let smoke = report::smoke();
        if smoke {
            E26Cfg {
                n: 96,
                passes: 6,
                outage_per_kind: 25,
                smoke,
            }
        } else {
            E26Cfg {
                n: 192,
                passes: 16,
                outage_per_kind: 30,
                smoke,
            }
        }
    }
}

/// One availability cell: `down` of 4 replicated shards scripted
/// `Down` for the whole measured window.
struct E26Cell {
    down: usize,
    queries: u64,
    full: u64,
    typed: u64,
    availability: f64,
    p99_us: f64,
    failovers: u64,
    ownership_restored: bool,
}

fn e26_cell(points: &hopspan_metric::EuclideanSpace, cfg: &E26Cfg, down: usize) -> E26Cell {
    let engine = ShardedNavigator::replicated(
        points,
        &BackendParams::default(),
        ServeConfig {
            shards: 4,
            workers_per_shard: 2,
            max_batch: 8,
            queue_depth: 64,
            ..ServeConfig::default()
        },
    )
    .expect("replicated engine starts");
    for d in 0..down {
        engine.set_health(d, ShardHealth::Down);
    }
    let n = points.len() as u32;
    let mut out = Vec::new();
    // Warmup pass grows every reusable buffer; the measured window
    // starts after it so the p99 prices the steady state.
    for u in 0..n {
        let _ = engine.call(Op::FindPath { u, v: (u + 7) % n }, &mut out);
    }
    let lat0 = engine.metrics().latency.counts();
    let snap0 = engine.snapshot();
    let (mut full, mut typed) = (0u64, 0u64);
    for pass in 0..cfg.passes as u32 {
        for u in 0..n {
            // 3 + pass < n for every configuration, so v ≠ u always.
            let v = (u + 3 + pass) % n;
            match engine.call(Op::FindPath { u, v }, &mut out) {
                Ok(QueryOutcome::Full) => full += 1,
                Ok(_) | Err(_) => typed += 1,
            }
        }
    }
    let lat1 = engine.metrics().latency.counts();
    let snap1 = engine.snapshot();
    let mut window = [0u64; LATENCY_BUCKETS];
    for i in 0..LATENCY_BUCKETS {
        window[i] = lat1[i].saturating_sub(lat0[i]);
    }
    // Scripted outage over: restore the killed shards and check that
    // recovery hands ownership straight back — failover is a pure
    // function of the health configuration, nothing sticks.
    for d in 0..down {
        engine.set_health(d, ShardHealth::Healthy);
    }
    let ownership_restored = (0..n)
        .map(|u| Op::FindPath { u, v: (u + 1) % n })
        .all(|op| engine.dispatch_for(&op) == engine.shard_for(&op));
    let queries = full + typed;
    E26Cell {
        down,
        queries,
        full,
        typed,
        availability: full as f64 / (queries as f64).max(1.0),
        p99_us: quantile_from_counts(&window, 0.99) as f64 / 1e3,
        failovers: snap1.failovers.saturating_sub(snap0.failovers),
        ownership_restored,
    }
}

/// The self-healing round trip, timed: an injected worker panic
/// quarantines the shard, and the supervisor re-attaches the shared
/// backend once its `FindPath`, `Route` and `RouteAvoiding` probes pass.
struct E26Recovery {
    recovery_ms: f64,
    respawns: u64,
    down_events: u64,
    readmitted: bool,
}

fn e26_recovery(points: &hopspan_metric::EuclideanSpace) -> E26Recovery {
    let engine = ShardedNavigator::replicated(
        points,
        &BackendParams::default(),
        ServeConfig {
            shards: 1,
            chaos_panic_period: Some(4),
            ..ServeConfig::default()
        },
    )
    .expect("replicated engine starts");
    let n = points.len() as u32;
    let mut out = Vec::new();
    let mut started = None;
    for i in 0..64u32 {
        if let Err(ServeError::WorkerPanicked) = engine.call(
            Op::FindPath {
                u: i % n,
                v: (i + 9) % n,
            },
            &mut out,
        ) {
            started = Some(Instant::now());
            break;
        }
    }
    let started = started.expect("chaos_panic_period must fire within 64 jobs");
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut readmitted = false;
    while Instant::now() < deadline {
        if engine.snapshot().respawns >= 1 && engine.health(0) == ShardHealth::Healthy {
            readmitted = true;
            break;
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    let recovery = started.elapsed();
    let snap = engine.snapshot();
    E26Recovery {
        recovery_ms: recovery.as_secs_f64() * 1e3,
        respawns: snap.respawns,
        down_events: snap.shard_down_events,
        readmitted,
    }
}

fn e26_json(
    cells: &[E26Cell],
    recovery: &E26Recovery,
    report: &hopspan_chaos::CampaignReport,
    tags: &[(String, usize, usize, usize)],
    cfg: &E26Cfg,
) -> String {
    let availability = cells.iter().map(|c| {
        Obj::default()
            .raw("shards_down", c.down)
            .raw("queries", c.queries)
            .raw("full", c.full)
            .raw("typed", c.typed)
            .fixed("availability", c.availability, 6)
            .fixed("p99_us", c.p99_us, 3)
            .raw("failovers", c.failovers)
            .raw("ownership_restored", c.ownership_restored)
    });
    let by_tag = tags.iter().map(|(tag, typed, survived, total)| {
        Obj::default()
            .str("tag", tag)
            .raw("typed", typed)
            .raw("survived", survived)
            .raw("total", total)
    });
    Obj::header("E26", cfg.smoke)
        .rows("availability", availability)
        .obj(
            "recovery",
            Obj::default()
                .fixed("recovery_ms", recovery.recovery_ms, 3)
                .raw("respawns", recovery.respawns)
                .raw("shard_down_events", recovery.down_events)
                .raw("readmitted", recovery.readmitted),
        )
        .obj(
            "campaign",
            Obj::default()
                .raw("scenarios", report.scenarios.len())
                .raw("escaped_panics", report.escaped_panics)
                .raw("violations", report.violations().len())
                .rows("by_tag", by_tag),
        )
        .document()
}

/// E26: the self-healing serve layer under scripted shard outages.
/// Availability and p99 with {0, 1, 2} of 4 replicated shards `Down`
/// (failover must answer everything in full contract), the timed
/// quarantine→capability probe→re-admission round trip, and an
/// outage-only chaos campaign
/// (kill/slow/flapping/corrupt-respawn) that must finish with zero
/// escaped panics and zero contract violations. Writes
/// `BENCH_resilience.json` (see [`report::write_bench`]).
pub fn e26_resilience() -> String {
    use hopspan_chaos::{run_campaign, CampaignConfig, ScenarioKind};
    let cfg = E26Cfg::from_env();
    let points = gen::uniform_points(cfg.n, 2, &mut rng(0xE26_0001));

    let cells: Vec<E26Cell> = [0usize, 1, 2]
        .iter()
        .map(|&down| e26_cell(&points, &cfg, down))
        .collect();
    let recovery = e26_recovery(&points);

    let campaign_cfg = CampaignConfig {
        seed: crate::SEED,
        scenarios_per_cell: 0,
        corrupt_per_kind: 0,
        panic_per_mode: 0,
        serve_panic_scenarios: 0,
        serve_wire_per_kind: 0,
        snapshot_per_kind: 0,
        outage_per_kind: cfg.outage_per_kind,
        churn_per_kind: 0,
        ..CampaignConfig::default()
    };
    let report = run_campaign(&campaign_cfg);
    let tags = e23_tag_counts(&report, ScenarioKind::Outage);
    let violations = report.violations();

    // The acceptance gate: outages are absorbed, never escalated.
    assert_eq!(
        report.escaped_panics, 0,
        "an outage scenario let a panic escape"
    );
    assert!(
        violations.is_empty(),
        "outage campaign produced contract violations: {violations:?}"
    );
    assert!(
        report.scenarios.len() >= 100,
        "the outage campaign must run ≥ 100 scenarios, got {}",
        report.scenarios.len()
    );
    let one_down = &cells[1];
    assert!(
        one_down.availability >= 0.99,
        "availability with 1/4 shards down must be ≥ 0.99, got {:.4}",
        one_down.availability
    );
    assert!(
        recovery.readmitted,
        "the quarantined shard was not re-admitted to Healthy"
    );

    let json_note = report::write_bench(
        "resilience",
        &e26_json(&cells, &recovery, &report, &tags, &cfg),
    );

    let cell_rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                format!("{}/4", c.down),
                c.queries.to_string(),
                format!("{:.4}", c.availability),
                format!("{:.1}", c.p99_us),
                c.failovers.to_string(),
                if c.ownership_restored { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    let cell_table = md_table(
        &[
            "shards down",
            "queries",
            "availability",
            "p99 µs",
            "failovers",
            "ownership restored",
        ],
        &cell_rows,
    );
    let tag_rows: Vec<Vec<String>> = tags
        .iter()
        .map(|(tag, typed, survived, total)| {
            vec![
                tag.clone(),
                typed.to_string(),
                survived.to_string(),
                total.to_string(),
            ]
        })
        .collect();
    let tag_table = md_table(
        &["outage kind", "typed errors", "survived", "total"],
        &tag_rows,
    );

    format!(
        "Self-healing serve layer under scripted outages: with 1 and 2 \
         of 4 replicated shards `Down`, every query owned by a dead \
         shard fails over deterministically to a live replica \
         (availability {:.4} and {:.4}; ≥ 0.99 required at 1/4), and \
         restoring health hands ownership straight back. The timed \
         self-healing round trip — injected worker panic, quarantine, \
         supervisor probes of `FindPath`, `Route` and `RouteAvoiding` \
         on the shared backend, re-admission — took {:.1} ms; nothing \
         is rebuilt or read from disk. The outage-only chaos campaign \
         ({} scenarios: kill-shard, slow-shard, flapping, \
         corrupt-respawn) finished with {} escaped panics and {} \
         contract violations; a snapshot damaged after boot was refused \
         typed by `LoadSnapshot`, and respawn re-admitted the shard \
         from memory with unchanged answers. \
         {json_note}\n\n{cell_table}\n{tag_table}\n",
        cells[1].availability,
        cells[2].availability,
        recovery.recovery_ms,
        report.scenarios.len(),
        report.escaped_panics,
        violations.len(),
    )
}

/// E27 configuration (smoke variant: `HOPSPAN_SMOKE=1`). Three
/// churn cells — {0.1, 1, 10}% of the point set mutated per second —
/// share the measured window; the smoke variant shrinks the window and
/// the point set but keeps every acceptance assert.
struct E27Cfg {
    n: usize,
    window_ms: u64,
    query_threads: usize,
    smoke: bool,
}

impl E27Cfg {
    fn from_env() -> Self {
        let smoke = report::smoke();
        if smoke {
            E27Cfg {
                n: 64,
                window_ms: 500,
                query_threads: 2,
                smoke,
            }
        } else {
            E27Cfg {
                n: 192,
                window_ms: 3000,
                query_threads: 3,
                smoke,
            }
        }
    }
}

/// One churn cell: sustained queries against a live
/// `hopspan-dynamic` navigator while a paced mutator inserts and
/// retires points at the cell's rate.
struct E27Cell {
    rate_pct_per_s: f64,
    queries: u64,
    qps: f64,
    errors: u64,
    availability: f64,
    inserts: u64,
    removes: u64,
    epochs_published: u64,
    staleness_mean: f64,
    staleness_max: u64,
    rebuilds: u64,
    rebuild_p50_ms: f64,
    rebuild_p99_ms: f64,
    hx_matches: bool,
}

/// The E27 equivalence oracle: the published epoch's `H_X` must equal
/// a from-scratch build over the same live point set (same seed,
/// budget, k) — the per-cell acceptance flag of `BENCH_churn.json`.
fn e27_scratch_matches(
    nav: &hopspan_dynamic::DynamicNavigator,
    cfg: &hopspan_dynamic::DynConfig,
) -> bool {
    let points: Vec<Vec<f64>> = nav
        .published_ids()
        .iter()
        .filter_map(|&id| nav.coords_of(id))
        .collect();
    let metric = hopspan_metric::EuclideanSpace::from_points(&points);
    use rand::SeedableRng;
    let mut r = rand_chacha::ChaCha8Rng::seed_from_u64(cfg.seed);
    match MetricNavigator::general_budgeted(&metric, cfg.tree_budget, cfg.k, &mut r) {
        Ok((scratch, _gamma)) => store::hx_hash(&scratch) == nav.epoch_info().hx,
        Err(_) => false,
    }
}

fn e27_cell(points: &[Vec<f64>], cfg: &E27Cfg, rate_pct_per_s: f64) -> E27Cell {
    use hopspan_dynamic::{DynConfig, DynamicNavigator};
    use std::sync::atomic::{AtomicBool, Ordering};

    let dyn_cfg = DynConfig::default();
    let nav = Arc::new(DynamicNavigator::new(points, dyn_cfg).expect("dynamic build"));
    let n = points.len() as u32;
    let window = Duration::from_millis(cfg.window_ms);
    // Mutations scheduled across the window at the cell's churn rate,
    // floored at 2 so even the 0.1%/s cell exercises a swap.
    let scheduled = ((rate_pct_per_s / 100.0) * f64::from(n) * window.as_secs_f64())
        .round()
        .max(2.0) as u64;

    // Query threads hammer the seed ids 0..n, which the mutator never
    // touches — so every reply must be an answer (from the current or
    // previous epoch), and availability is exactly ok/(ok+errors).
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..cfg.query_threads)
        .map(|t| {
            let nav = Arc::clone(&nav);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut r = rng(0xE27_1000 + t as u64);
                let mut out = Vec::new();
                let (mut ok, mut errors) = (0u64, 0u64);
                let (mut lag_sum, mut lag_max) = (0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    let u = r.gen_range(0..n);
                    let mut v = r.gen_range(0..n);
                    if v == u {
                        v = (v + 1) % n;
                    }
                    match nav.find_path_into(u, v, &mut out) {
                        Ok(epoch) => {
                            ok += 1;
                            // Staleness: how many epochs behind the
                            // published head this answer was.
                            let lag = nav.epoch_id().saturating_sub(epoch);
                            lag_sum += lag;
                            lag_max = lag_max.max(lag);
                        }
                        Err(_) => errors += 1,
                    }
                }
                (ok, errors, lag_sum, lag_max)
            })
        })
        .collect();

    // The paced mutator runs on the measuring thread: alternating
    // inserts of fresh points and removes of previously inserted ids
    // (the seed set stays intact, so the query contract stays Full).
    let mut mrng = rng(0xE27_2000 ^ (rate_pct_per_s * 10.0) as u64);
    let start = Instant::now();
    let mut pending_ids: Vec<u32> = Vec::new();
    let (mut inserts, mut removes) = (0u64, 0u64);
    for m in 0..scheduled {
        let due = start + window.mul_f64((m as f64 + 0.5) / scheduled as f64);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if m % 2 == 0 || pending_ids.is_empty() {
            let p = vec![
                100.0 + mrng.gen::<f64>() * 1000.0,
                mrng.gen::<f64>() * 1000.0,
            ];
            let (id, _) = nav.insert(&p).expect("churn insert");
            pending_ids.push(id);
            inserts += 1;
        } else {
            let id = pending_ids.remove(0);
            nav.remove(id).expect("churn remove");
            removes += 1;
        }
    }
    let leftover = window.saturating_sub(start.elapsed());
    if !leftover.is_zero() {
        std::thread::sleep(leftover);
    }
    stop.store(true, Ordering::Relaxed);
    let elapsed = start.elapsed();
    let (mut ok, mut errors, mut lag_sum, mut lag_max) = (0u64, 0u64, 0u64, 0u64);
    for w in workers {
        let (o, e, ls, lm) = w.join().expect("query worker");
        ok += o;
        errors += e;
        lag_sum += ls;
        lag_max = lag_max.max(lm);
    }

    // Drain the log, then judge the settled epoch against from-scratch.
    nav.flush();
    let mut rebuild_ns = nav.drain_rebuild_nanos();
    rebuild_ns.sort_unstable();
    let counters = nav.counters();
    E27Cell {
        rate_pct_per_s,
        queries: ok + errors,
        qps: ok as f64 / elapsed.as_secs_f64(),
        errors,
        availability: ok as f64 / ((ok + errors) as f64).max(1.0),
        inserts,
        removes,
        epochs_published: nav.epoch_id(),
        staleness_mean: lag_sum as f64 / (ok as f64).max(1.0),
        staleness_max: lag_max,
        rebuilds: counters.rebuilds,
        rebuild_p50_ms: quantile(&rebuild_ns, 0.50) as f64 / 1e6,
        rebuild_p99_ms: quantile(&rebuild_ns, 0.99) as f64 / 1e6,
        hx_matches: e27_scratch_matches(&nav, &dyn_cfg),
    }
}

fn e27_json(cells: &[E27Cell], cfg: &E27Cfg) -> String {
    let cells = cells.iter().map(|c| {
        Obj::default()
            .raw("churn_pct_per_s", c.rate_pct_per_s)
            .raw("queries", c.queries)
            .fixed("qps", c.qps, 1)
            .raw("errors", c.errors)
            .fixed("availability", c.availability, 6)
            .raw("inserts", c.inserts)
            .raw("removes", c.removes)
            .raw("epochs_published", c.epochs_published)
            .fixed("staleness_mean_epochs", c.staleness_mean, 6)
            .raw("staleness_max_epochs", c.staleness_max)
            .raw("rebuilds", c.rebuilds)
            .fixed("rebuild_p50_ms", c.rebuild_p50_ms, 3)
            .fixed("rebuild_p99_ms", c.rebuild_p99_ms, 3)
            .raw("hx_matches_scratch", c.hx_matches)
    });
    Obj::header("E27", cfg.smoke)
        .raw("n", cfg.n)
        .raw("window_ms", cfg.window_ms)
        .rows("cells", cells)
        .document()
}

/// E27: online churn against the epoch-swapped dynamic navigator.
/// Sustained closed-loop queries while a paced mutator inserts and
/// retires points at {0.1, 1, 10}% of the point set per second.
/// Acceptance (asserted): availability 1.0 in every cell — every query
/// is answered from the current or previous epoch, never an error —
/// and every cell's settled epoch `H_X` equals the from-scratch build
/// hash. Writes `BENCH_churn.json` (see [`report::write_bench`]).
pub fn e27_churn() -> String {
    let cfg = E27Cfg::from_env();
    let points: Vec<Vec<f64>> = {
        let mut r = rng(0xE27_0001);
        (0..cfg.n)
            .map(|_| (0..2).map(|_| r.gen::<f64>() * 10.0).collect())
            .collect()
    };
    let cells: Vec<E27Cell> = [0.1f64, 1.0, 10.0]
        .iter()
        .map(|&rate| e27_cell(&points, &cfg, rate))
        .collect();

    // The acceptance gate: churn never costs an answer or determinism.
    for c in &cells {
        assert_eq!(
            c.errors, 0,
            "E27 cell {}%/s answered {} error(s); availability must be 1.0",
            c.rate_pct_per_s, c.errors
        );
        assert!(
            c.hx_matches,
            "E27 cell {}%/s: settled epoch H_X diverged from the from-scratch build",
            c.rate_pct_per_s
        );
    }

    let json_note = report::write_bench("churn", &e27_json(&cells, &cfg));

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                format!("{}%/s", c.rate_pct_per_s),
                c.queries.to_string(),
                format!("{:.0}", c.qps),
                format!("{:.4}", c.availability),
                format!("{}+{}", c.inserts, c.removes),
                c.epochs_published.to_string(),
                format!("{:.4}", c.staleness_mean),
                c.staleness_max.to_string(),
                format!("{:.2}/{:.2}", c.rebuild_p50_ms, c.rebuild_p99_ms),
                if c.hx_matches { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    let table = md_table(
        &[
            "churn rate",
            "queries",
            "qps",
            "availability",
            "ins+rem",
            "epochs",
            "stale mean",
            "stale max",
            "rebuild p50/p99 ms",
            "H_X = scratch",
        ],
        &rows,
    );
    format!(
        "Online insert/delete through the epoch-swapped `hopspan-dynamic` \
         navigator: queries keep answering against the published epoch's \
         dense layout while a builder thread applies the mutation log and \
         swaps fresh epochs in atomically. At churn rates of 0.1%, 1% and \
         10% of the point set per second (n = {}, {} query threads, \
         {} ms window), availability stayed {:.1} in every cell — no \
         query ever errored; answers came from the current or previous \
         epoch with a mean staleness of {:.4} epochs at the highest rate \
         — and every cell's settled epoch hashed bit-identical to a \
         from-scratch build over the same live point set (the `H_X` \
         witness). Rebuild tail latency is the amortization price of the \
         per-tree dirty counters. {json_note}\n\n{table}\n",
        cfg.n,
        cfg.query_threads,
        cfg.window_ms,
        cells.iter().map(|c| c.availability).fold(1.0, f64::min),
        cells.last().map_or(0.0, |c| c.staleness_mean),
    )
}

#[cfg(test)]
mod golden;
