//! Golden-hash regression for the query path: the FNV-1a hash of the
//! all-pairs concatenated `find_path` output on three fixed-seed
//! workloads, mirroring `tests/determinism.rs`, plus a fourth over the
//! fault-tolerant spanner's policy-aware `find_path_avoiding` outcomes.
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

use hopspan::core::{DegradationPolicy, FaultTolerantSpanner, FtPath, MetricNavigator};
use hopspan::metric::gen;
use hopspan::store::fnv1a;
use hopspan::tree_spanner::TreeHopSpanner;
use hopspan::treealg::RootedTree;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Pre-refactor hash of workload 1 (tree spanners, k ∈ {2, 3, 4, 6}).
const GOLDEN_TREE: u64 = 0x689d_e8aa_4fa5_90ae;
/// Pre-refactor hash of workload 2 (doubling cover, uniform points).
const GOLDEN_DOUBLING: u64 = 0xc19c_3bbb_643a_87ff;
/// Pre-refactor hash of workload 3 (Ramsey cover, graph metric).
const GOLDEN_RAMSEY: u64 = 0xc417_efe6_1336_be49;
/// Hash of workload 4 (fault-tolerant spanner, both policies), pinned
/// before the cover's duplicate trees were dropped from the FT scan.
const GOLDEN_FT: u64 = 0x140e_9a84_2226_170f;

fn push_path(out: &mut String, u: usize, v: usize, path: &[usize]) {
    out.push_str(&format!("{u} {v}:"));
    for &p in path {
        out.push_str(&format!(" {p}"));
    }
    out.push('\n');
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
/// arms, base cases included.
fn hash_tree_workload() -> u64 {
    let tree = random_tree(96, 0x9E37_79B9_7F4A_7C15);
    let mut out = String::new();
    for k in [2usize, 3, 4, 6] {
        let sp = TreeHopSpanner::new(&tree, k).expect("tree spanner builds");
        out.push_str(&format!("k={k}\n"));
        for u in 0..tree.len() {
            for v in 0..tree.len() {
                let path = sp.find_path(u, v).expect("all vertices required");
                push_path(&mut out, u, v, &path);
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
/// (as `to_bits`).
fn hash_ft_workload() -> u64 {
    let n = 48;
    let mut rng = ChaCha8Rng::seed_from_u64(0xF7_0004);
    let m = gen::clustered_points(n, 2, 4, 0.02, &mut rng);
    let sp = FaultTolerantSpanner::new(&m, 0.5, 1, 3).expect("FT spanner builds");
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
    fnv1a(out.as_bytes())
}

#[test]
fn all_pairs_paths_match_pre_refactor_hashes() {
    let tree = hash_tree_workload();
    let doubling = hash_doubling_workload();
    let ramsey = hash_ramsey_workload();
    let ft = hash_ft_workload();
    if std::env::var("HOPSPAN_GOLDEN_PRINT").is_ok() {
        println!("const GOLDEN_TREE: u64 = 0x{tree:016x};");
        println!("const GOLDEN_DOUBLING: u64 = 0x{doubling:016x};");
        println!("const GOLDEN_RAMSEY: u64 = 0x{ramsey:016x};");
        println!("const GOLDEN_FT: u64 = 0x{ft:016x};");
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
}
