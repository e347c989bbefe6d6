//! Golden-hash regression for the query path: the FNV-1a hash of the
//! all-pairs concatenated `find_path` output on three fixed-seed
//! workloads, mirroring `tests/determinism.rs`, plus a fourth over the
//! fault-tolerant spanner's policy-aware `find_path_avoiding` outcomes.
//! A second test pins the compact routing schemes the same way: every
//! ordered pair's trace (path, decision steps, header bits), the scheme's
//! bit statistics and its network's port → target table.
//! Workloads 1 and 4 also pin the edge lists the queries run over
//! (endpoints and weight bits), so a change to how construction merges
//! or deduplicates edges shows even where every answer is unchanged.
//! A third test pins `TreeHopSpanner::to_parts()` itself, the exchange
//! form the snapshot store persists, so a change to the in-memory
//! layout of a tree spanner cannot change a snapshot byte.
//!
//! The constants below were computed against the pre-flattening
//! implementation (BTreeMap-backed `Navigator`, per-query base-case
//! Bellman–Ford). The dense-layout refactor must emit **bit-identical
//! paths** — not merely equally-good ones — so any hash drift here is a
//! regression, not a tuning change.
//!
//! To regenerate after an *intentional* path-semantics change, run with
//! `HOPSPAN_GOLDEN_PRINT=1` and copy the printed constants:
//!
//! ```text
//! HOPSPAN_GOLDEN_PRINT=1 cargo test --test query_golden -- --nocapture
//! ```

use std::collections::HashSet;

use hopspan::core::{
    DegradationPolicy, FaultTolerantSpanner, FtPath, FtPathOutcome, MetricNavigator,
};
use hopspan::metric::{gen, GraphMetric};
use hopspan::routing::{
    FtMetricRoutingScheme, MetricRoutingScheme, Network, RouteTrace, SchemeStats,
};
use hopspan::store::fnv1a;
use hopspan::tree_spanner::TreeHopSpanner;
use hopspan::treealg::RootedTree;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Pre-refactor hash of workload 1 (tree spanners, k ∈ {2, 3, 4, 6}).
const GOLDEN_TREE: u64 = 0x689d_e8aa_4fa5_90ae;
/// Hash of workload 2 (doubling cover, uniform points), re-pinned when
/// each level's pairing cover became one first-fit colouring of
/// unordered near pairs, which changed the robust cover's trees.
const GOLDEN_DOUBLING: u64 = 0xfef3_66db_b417_5d23;
/// Pre-refactor hash of workload 3 (Ramsey cover, graph metric).
const GOLDEN_RAMSEY: u64 = 0xc417_efe6_1336_be49;
/// Hash of workload 4 (fault-tolerant spanner, both policies), re-pinned
/// with `GOLDEN_DOUBLING` for the first-fit pairing cover.
const GOLDEN_FT: u64 = 0x0091_5fe7_da30_8ac5;
/// Hash of workload 1's `TreeHopSpanner::edges()` for every k.
const GOLDEN_TREE_EDGES: u64 = 0xda9a_65d9_e892_3648;
/// Hash of workload 4's `FaultTolerantSpanner::edges()` (re-pinned with
/// `GOLDEN_FT`).
const GOLDEN_FT_EDGES: u64 = 0x7c50_e5dd_a629_884e;

/// Hash of the doubling routing workload, re-pinned with
/// `GOLDEN_DOUBLING` for the first-fit pairing cover.
const GOLDEN_ROUTE_DOUBLING: u64 = 0xe673_05cb_e3d5_2620;
/// Hash of the general (Ramsey, home-tree) routing workload.
const GOLDEN_ROUTE_GENERAL: u64 = 0xda1f_5e38_345b_ed3d;
/// Hash of the planar routing workload.
const GOLDEN_ROUTE_PLANAR: u64 = 0x66ec_0417_efa3_c193;
/// Hash of the fault-tolerant routing workload (f = 1, both policies),
/// re-pinned with `GOLDEN_DOUBLING` for the first-fit pairing cover.
const GOLDEN_ROUTE_FT: u64 = 0xf577_580c_59e6_70a1;

/// Hash of the `Debug` form of `TreeHopSpanner::to_parts()` over random
/// trees, k = 2..=6, with and without Steiner vertices.
const GOLDEN_SPANNER_PARTS: u64 = 0xbec0_5508_8caf_ef39;

fn push_path(out: &mut String, u: usize, v: usize, path: &[usize]) {
    out.push_str(&format!("{u} {v}:"));
    for &p in path {
        out.push_str(&format!(" {p}"));
    }
    out.push('\n');
}

fn push_trace(out: &mut String, u: usize, v: usize, trace: &RouteTrace) {
    out.push_str(&format!(
        "s{} h{} ",
        trace.decision_steps, trace.max_header_bits
    ));
    push_path(out, u, v, &trace.path);
}

/// A scheme's bit statistics and its network's port → target table.
fn push_scheme(out: &mut String, stats: SchemeStats, net: &Network) {
    out.push_str(&format!(
        "label {} table {} header {}\n",
        stats.max_label_bits, stats.max_table_bits, stats.header_bits
    ));
    for v in 0..net.len() {
        out.push_str(&format!("{v}:"));
        for p in 0..net.degree(v) {
            out.push_str(&format!(" {}", net.target(v, p)));
        }
        out.push('\n');
    }
}

fn push_edges(out: &mut String, edges: &[(usize, usize, f64)]) {
    for &(u, v, w) in edges {
        out.push_str(&format!("{u} {v} {:016x}\n", w.to_bits()));
    }
}

/// Deterministic random tree (same generator family as the tree-spanner
/// unit tests, fixed seed).
fn random_tree(n: usize, seed: u64) -> RootedTree {
    let mut s = seed;
    let mut xorshift = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let edges: Vec<_> = (1..n)
        .map(|v| {
            let p = (xorshift() as usize) % v;
            let w = 1.0 + (xorshift() % 100) as f64 / 10.0;
            (p, v, w)
        })
        .collect();
    RootedTree::from_edges(n, 0, &edges).expect("generator emits a tree")
}

/// Workload 1: all-ordered-pairs paths on one random tree across the
/// k = 2 (single cut), k = 3 (clique), and k ≥ 4 (sub-hierarchy) query
/// arms, base cases included. Returns the path hash and the edge hash.
fn hash_tree_workload() -> (u64, u64) {
    let tree = random_tree(96, 0x9E37_79B9_7F4A_7C15);
    let mut out = String::new();
    let mut edges = String::new();
    for k in [2usize, 3, 4, 6] {
        let sp = TreeHopSpanner::new(&tree, k).expect("tree spanner builds");
        edges.push_str(&format!("k={k}\n"));
        push_edges(&mut edges, sp.edges());
        out.push_str(&format!("k={k}\n"));
        for u in 0..tree.len() {
            for v in 0..tree.len() {
                let path = sp.find_path(u, v).expect("all vertices required");
                push_path(&mut out, u, v, &path);
            }
        }
    }
    (fnv1a(out.as_bytes()), fnv1a(edges.as_bytes()))
}

/// Every field of `to_parts()` (Φ and contracted trees with their
/// weights, root entries and sentinels included) over random trees of
/// several sizes, every `k` in 2..=6, all vertices required and about
/// two thirds required (Steiner trees).
fn hash_spanner_parts() -> u64 {
    let mut out = String::new();
    let mut s = 0x5EED_0026u64;
    for k in 2..=6usize {
        for n in [1usize, 7, 40, 150] {
            let tree = random_tree(n, 0xA5A5 + (n as u64) * 131 + k as u64);
            let steiner: Vec<bool> = (0..n)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    !s.is_multiple_of(3)
                })
                .collect();
            for required in [vec![true; n], steiner] {
                if !required.contains(&true) {
                    continue;
                }
                let sp = TreeHopSpanner::with_required(&tree, &required, k)
                    .expect("tree spanner builds");
                out.push_str(&format!("k={k} n={n}\n{:?}\n", sp.to_parts()));
            }
        }
    }
    fnv1a(out.as_bytes())
}

/// Workload 2: doubling cover over seeded uniform points (min-distance
/// tree selection, point mapping, dedup).
fn hash_doubling_workload() -> u64 {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0FF_EE00);
    let m = gen::uniform_points(48, 2, &mut rng);
    let nav = MetricNavigator::doubling(&m, 0.5, 3).expect("doubling navigator builds");
    let mut out = String::new();
    for u in 0..48 {
        for v in 0..48 {
            let path = nav
                .find_path(u, v)
                .expect("doubling cover covers all pairs");
            push_path(&mut out, u, v, &path);
        }
    }
    fnv1a(out.as_bytes())
}

/// Workload 3: Ramsey cover over a seeded graph metric (home-tree
/// selection, k = 2).
fn hash_ramsey_workload() -> u64 {
    let mut rng = ChaCha8Rng::seed_from_u64(0xBADC_AB1E);
    let m = gen::random_graph_metric(40, 17, &mut rng);
    let nav = MetricNavigator::general(&m, 2, 2, &mut rng).expect("ramsey navigator builds");
    let mut out = String::new();
    for u in 0..40 {
        for v in 0..40 {
            let path = nav.find_path(u, v).expect("ramsey cover covers all pairs");
            push_path(&mut out, u, v, &path);
        }
    }
    fnv1a(out.as_bytes())
}

/// Workload 4: every unordered pair's fault-avoiding outcome on a
/// clustered instance (f = 1, k = 3), under `Strict` and `BestEffort`,
/// against an in-budget and an over-budget fault set. Clustered points
/// give a robust cover with many repeated trees, so the pin covers the
/// first-strict-minimum tree scan, the degraded arms and the stretches
/// (as `to_bits`). Returns the outcome hash and the edge hash.
fn hash_ft_workload() -> (u64, u64) {
    let n = 48;
    let mut rng = ChaCha8Rng::seed_from_u64(0xF7_0004);
    let m = gen::clustered_points(n, 2, 4, 0.02, &mut rng);
    let sp = FaultTolerantSpanner::new(&m, 0.5, 1, 3).expect("FT spanner builds");
    let mut edges = String::new();
    push_edges(&mut edges, sp.edges());
    let mut out = String::new();
    for faults in [&[5usize][..], &[5, 30]] {
        let faulty: HashSet<usize> = faults.iter().copied().collect();
        for policy in [DegradationPolicy::Strict, DegradationPolicy::BestEffort] {
            out.push_str(&format!("faults={faults:?} policy={policy:?}\n"));
            for u in 0..n {
                for v in u..n {
                    match sp.find_path_avoiding_with_policy(&m, u, v, &faulty, policy) {
                        Ok(FtPath::Full(path)) => {
                            out.push('F');
                            push_path(&mut out, u, v, &path);
                        }
                        Ok(FtPath::Degraded {
                            path,
                            reason,
                            achieved_stretch,
                        }) => {
                            out.push_str(&format!(
                                "D {reason:?} {:016x} ",
                                achieved_stretch.to_bits()
                            ));
                            push_path(&mut out, u, v, &path);
                        }
                        Err(e) => out.push_str(&format!("E {u} {v}: {e}\n")),
                    }
                }
            }
        }
    }
    (fnv1a(out.as_bytes()), fnv1a(edges.as_bytes()))
}

/// Every ordered pair's trace under `route`, after the scheme's
/// statistics and port table.
fn hash_routing(rs: &MetricRoutingScheme, n: usize) -> u64 {
    let mut out = String::new();
    push_scheme(&mut out, rs.stats(), rs.network());
    for u in 0..n {
        for v in 0..n {
            let trace = rs.route(u, v).expect("routing covers all pairs");
            push_trace(&mut out, u, v, &trace);
        }
    }
    fnv1a(out.as_bytes())
}

/// Routing workloads: the doubling scheme over uniform points
/// (min-distance-label selection), the general scheme over a graph
/// metric (home-tree selection) and the planar scheme over a grid.
fn hash_routing_workloads() -> [u64; 3] {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0D0B_1E05);
    let m = gen::uniform_points(32, 2, &mut rng);
    let doubling = MetricRoutingScheme::doubling(&m, 0.5, &mut rng).expect("doubling scheme");
    let mut rng = ChaCha8Rng::seed_from_u64(0x6E4E_7A15);
    let gm = gen::random_graph_metric(40, 17, &mut rng);
    let general = MetricRoutingScheme::general(&gm, 2, &mut rng).expect("general scheme");
    let mut rng = ChaCha8Rng::seed_from_u64(0x91A4_A125);
    let g = gen::grid_graph(5, 5);
    let pm = GraphMetric::new(&g).expect("grid metric");
    let planar = MetricRoutingScheme::planar(&g, &pm, 0.5, &mut rng).expect("planar scheme");
    [
        hash_routing(&doubling, 32),
        hash_routing(&general, 40),
        hash_routing(&planar, 25),
    ]
}

/// Fault-tolerant routing workload: statistics, port table and every
/// ordered pair's `route_avoiding_with_policy` outcome (f = 1) under an
/// in-budget and an over-budget fault set, under both policies.
fn hash_ft_routing_workload() -> u64 {
    let n = 24;
    let mut rng = ChaCha8Rng::seed_from_u64(0xF7_7057);
    let m = gen::uniform_points(n, 2, &mut rng);
    let rs = FtMetricRoutingScheme::new(&m, 0.5, 1, &mut rng).expect("FT routing scheme");
    let mut out = String::new();
    push_scheme(&mut out, rs.stats(), rs.network());
    for faults in [&[5usize][..], &[5, 17]] {
        let faulty: HashSet<usize> = faults.iter().copied().collect();
        for policy in [DegradationPolicy::Strict, DegradationPolicy::BestEffort] {
            out.push_str(&format!("faults={faults:?} policy={policy:?}\n"));
            for u in 0..n {
                for v in 0..n {
                    match rs.route_avoiding_with_policy(&m, u, v, &faulty, policy) {
                        Ok((trace, FtPathOutcome::Full)) => {
                            out.push('F');
                            push_trace(&mut out, u, v, &trace);
                        }
                        Ok((
                            trace,
                            FtPathOutcome::Degraded {
                                reason,
                                achieved_stretch,
                            },
                        )) => {
                            out.push_str(&format!(
                                "D {reason:?} {:016x} ",
                                achieved_stretch.to_bits()
                            ));
                            push_trace(&mut out, u, v, &trace);
                        }
                        Err(e) => out.push_str(&format!("E {u} {v}: {e}\n")),
                    }
                }
            }
        }
    }
    fnv1a(out.as_bytes())
}

#[test]
fn all_pairs_paths_match_pre_refactor_hashes() {
    let (tree, tree_edges) = hash_tree_workload();
    let doubling = hash_doubling_workload();
    let ramsey = hash_ramsey_workload();
    let (ft, ft_edges) = hash_ft_workload();
    if std::env::var("HOPSPAN_GOLDEN_PRINT").is_ok() {
        println!("const GOLDEN_TREE: u64 = 0x{tree:016x};");
        println!("const GOLDEN_DOUBLING: u64 = 0x{doubling:016x};");
        println!("const GOLDEN_RAMSEY: u64 = 0x{ramsey:016x};");
        println!("const GOLDEN_FT: u64 = 0x{ft:016x};");
        println!("const GOLDEN_TREE_EDGES: u64 = 0x{tree_edges:016x};");
        println!("const GOLDEN_FT_EDGES: u64 = 0x{ft_edges:016x};");
        return;
    }
    assert_eq!(
        tree, GOLDEN_TREE,
        "tree workload paths drifted from the pre-refactor golden hash \
         (got 0x{tree:016x})"
    );
    assert_eq!(
        doubling, GOLDEN_DOUBLING,
        "doubling workload paths drifted from the pre-refactor golden hash \
         (got 0x{doubling:016x})"
    );
    assert_eq!(
        ramsey, GOLDEN_RAMSEY,
        "ramsey workload paths drifted from the pre-refactor golden hash \
         (got 0x{ramsey:016x})"
    );
    assert_eq!(
        ft, GOLDEN_FT,
        "fault-tolerant workload outcomes drifted from the golden hash \
         (got 0x{ft:016x})"
    );
    assert_eq!(
        tree_edges, GOLDEN_TREE_EDGES,
        "tree workload edge lists drifted from the golden hash \
         (got 0x{tree_edges:016x})"
    );
    assert_eq!(
        ft_edges, GOLDEN_FT_EDGES,
        "fault-tolerant workload edge list drifted from the golden hash \
         (got 0x{ft_edges:016x})"
    );
}

#[test]
fn routing_traces_match_golden_hashes() {
    let [doubling, general, planar] = hash_routing_workloads();
    let ft = hash_ft_routing_workload();
    if std::env::var("HOPSPAN_GOLDEN_PRINT").is_ok() {
        println!("const GOLDEN_ROUTE_DOUBLING: u64 = 0x{doubling:016x};");
        println!("const GOLDEN_ROUTE_GENERAL: u64 = 0x{general:016x};");
        println!("const GOLDEN_ROUTE_PLANAR: u64 = 0x{planar:016x};");
        println!("const GOLDEN_ROUTE_FT: u64 = 0x{ft:016x};");
        return;
    }
    for (name, got, want) in [
        ("doubling", doubling, GOLDEN_ROUTE_DOUBLING),
        ("general", general, GOLDEN_ROUTE_GENERAL),
        ("planar", planar, GOLDEN_ROUTE_PLANAR),
        ("fault-tolerant", ft, GOLDEN_ROUTE_FT),
    ] {
        assert_eq!(
            got, want,
            "{name} routing traces drifted from the golden hash (got 0x{got:016x})"
        );
    }
}

#[test]
fn spanner_parts_match_golden_hash() {
    let parts = hash_spanner_parts();
    if std::env::var("HOPSPAN_GOLDEN_PRINT").is_ok() {
        println!("const GOLDEN_SPANNER_PARTS: u64 = 0x{parts:016x};");
        return;
    }
    assert_eq!(
        parts, GOLDEN_SPANNER_PARTS,
        "tree spanner parts drifted from the golden hash (got 0x{parts:016x})"
    );
}
