//! Equivalence of the dynamic navigator with a from-scratch build:
//! after any interleaving of inserts and removes followed by a
//! `flush()`, the published epoch's `H_X` hash must be bit-identical
//! to `MetricNavigator::general_budgeted` run over the surviving live
//! point set with the same seed, budget and hop bound (DESIGN.md §12).
//!
//! Two harnesses:
//!
//! 1. A proptest over randomized mutation interleavings — the oracle
//!    is recomputed from scratch for every case.
//! 2. A cross-process pin in the style of `failover_determinism.rs`:
//!    a scripted mutation storm's epoch ids, `H_X` hashes and served
//!    paths are serialized, FNV-1a-hashed, and compared against child
//!    processes re-executed with `HOPSPAN_WORKERS ∈ {1, 4, 16}` — the
//!    epoch builder's worker count must never leak into the geometry.

use std::process::Command;

use hopspan::core::MetricNavigator;
use hopspan::dynamic::{DynConfig, DynamicNavigator};
use hopspan::metric::EuclideanSpace;
use hopspan::store::{fnv1a, hx_hash};
use proptest::prelude::*;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const CHILD_ENV: &str = "HOPSPAN_DETERMINISM_CHILD";
const HASH_MARKER: &str = "HOPSPAN_DYNAMIC_HASH=";

/// From-scratch `H_X` over the exact live point set the navigator
/// publishes (same seed, same budget, same hop bound).
fn scratch_hx(nav: &DynamicNavigator, cfg: &DynConfig) -> u64 {
    let points: Vec<Vec<f64>> = nav
        .published_ids()
        .iter()
        .map(|&id| nav.coords_of(id).expect("published id is live"))
        .collect();
    let metric = EuclideanSpace::from_points(&points);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let (scratch, _gamma) =
        MetricNavigator::general_budgeted(&metric, cfg.tree_budget, cfg.k, &mut rng)
            .expect("from-scratch build");
    hx_hash(&scratch)
}

/// Strategy: a base point set of distinct grid points (ids `0..n`).
fn base_points() -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::hash_set((0i32..40, 0i32..40), 8..20).prop_map(|set| {
        set.into_iter()
            .map(|(x, y)| vec![f64::from(x), f64::from(y)])
            .collect()
    })
}

/// One scripted mutation: `Insert` lands on a grid disjoint from the
/// base set; `Remove` targets an id modulo the alive allocation range
/// (misses and double-removes are tolerated, like real churn).
#[derive(Debug, Clone)]
enum Mutation {
    Insert(i32, i32),
    Remove(u32),
}

fn mutations() -> impl Strategy<Value = Vec<Mutation>> {
    proptest::collection::vec((0u32..2, 0i32..40, 0i32..40), 1..14).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, x, y)| {
                if kind == 0 {
                    Mutation::Insert(x, y)
                } else {
                    Mutation::Remove((x * 40 + y) as u32 % 32)
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole invariant: any interleaving of inserts and removes,
    /// flushed, publishes an epoch whose `H_X` equals a from-scratch
    /// build over the surviving live set.
    #[test]
    fn flushed_epochs_match_from_scratch_builds(
        points in base_points(),
        muts in mutations(),
    ) {
        let cfg = DynConfig {
            dirty_threshold: 3,
            max_pending: 8,
            ..DynConfig::default()
        };
        let nav = DynamicNavigator::new(&points, cfg).expect("seed build");
        let mut allocated = points.len() as u32;
        for m in &muts {
            match *m {
                // Offset past the base grid so inserts never collide
                // with seed points; collisions between inserts surface
                // as tolerated `DuplicatePoint` errors.
                Mutation::Insert(x, y) => {
                    if let Ok((id, _epoch)) =
                        nav.insert(&[100.0 + f64::from(x), f64::from(y)])
                    {
                        prop_assert!(id >= points.len() as u32);
                        allocated = allocated.max(id + 1);
                    }
                }
                Mutation::Remove(r) => {
                    // Misses, double-removes and too-few-points are
                    // legitimate churn outcomes, not test failures.
                    let _ = nav.remove(r % allocated.max(1));
                }
            }
        }
        let info = nav.flush();
        prop_assert_eq!(info.pending, 0, "flush must drain the ledger");
        prop_assert_eq!(info.published_points, nav.live_count());
        prop_assert_eq!(
            info.hx,
            scratch_hx(&nav, &cfg),
            "published epoch diverged from a from-scratch build over the \
             same live set (muts: {:?})",
            muts
        );
    }
}

/// Canonical serialization of a scripted mutation storm: per-round
/// flush results (epoch id, `H_X`, live count), the surviving id set,
/// and served paths between stable seed points. Rebuilds publish only
/// on explicit `flush()` (thresholds maxed), so every recorded epoch
/// id is scripted rather than timing-dependent.
fn serialize_storm() -> String {
    let cfg = DynConfig {
        dirty_threshold: u32::MAX,
        max_pending: u64::MAX,
        ..DynConfig::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(0xD11A_0E27 ^ 0x5EED);
    let points: Vec<Vec<f64>> = (0..48)
        .map(|_| vec![rng.gen::<f64>() * 10.0, rng.gen::<f64>() * 10.0])
        .collect();
    let nav = DynamicNavigator::new(&points, cfg).expect("seed build");

    let mut out = String::new();
    let mut inserted: Vec<u32> = Vec::new();
    let mut path = Vec::new();
    for round in 0..6u32 {
        for step in 0..4u32 {
            if round % 2 == 0 {
                let coords = [200.0 + f64::from(round * 4 + step), rng.gen::<f64>()];
                let (id, epoch) = nav.insert(&coords).expect("scripted insert");
                inserted.push(id);
                out.push_str(&format!("I {round} {step} {id} {epoch}\n"));
            } else if let Some(victim) = inserted.pop() {
                let epoch = nav.remove(victim).expect("scripted remove");
                out.push_str(&format!("R {round} {step} {victim} {epoch}\n"));
            }
        }
        let info = nav.flush();
        let scratch = scratch_hx(&nav, &cfg);
        out.push_str(&format!(
            "S {round} {} {:016x} {:016x} {}\n",
            info.id, info.hx, scratch, info.published_points
        ));
        // Seed ids are never mutated, so these paths must stay served
        // (and identical) across every epoch and worker count.
        for (u, v) in [(0u32, 47u32), (3, 29), (47, 11)] {
            let epoch = nav
                .find_path_into(u, v, &mut path)
                .expect("seed points stay navigable");
            out.push_str(&format!("P {round} {u} {v} {epoch} {path:?}\n"));
        }
    }
    out.push_str(&format!("L {:?}\n", nav.published_ids()));
    out
}

#[test]
fn epoch_hashes_are_stable_across_worker_counts_and_processes() {
    let serialized = serialize_storm();
    let local_hash = fnv1a(serialized.as_bytes());

    if std::env::var(CHILD_ENV).is_ok() {
        println!("{HASH_MARKER}{local_hash:016x}");
        return;
    }

    // The storm must exercise both mutation kinds and every round's
    // published hash must equal its from-scratch oracle.
    assert!(serialized.lines().any(|l| l.starts_with('I')));
    assert!(serialized.lines().any(|l| l.starts_with('R')));
    for line in serialized.lines().filter(|l| l.starts_with('S')) {
        let cols: Vec<_> = line.split_whitespace().collect();
        assert_eq!(
            cols[3], cols[4],
            "published H_X != from-scratch oracle on line: {line}"
        );
    }

    let exe = std::env::current_exe().expect("test binary path");
    for workers in [1usize, 4, 16] {
        let output = Command::new(&exe)
            .args([
                "epoch_hashes_are_stable_across_worker_counts_and_processes",
                "--exact",
                "--nocapture",
            ])
            .env(CHILD_ENV, "1")
            .env(hopspan::pipeline::WORKERS_ENV, workers.to_string())
            .output()
            .expect("re-exec the test binary");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success(),
            "child with {workers} workers failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let child_hash = extract(&stdout, HASH_MARKER)
            .unwrap_or_else(|| panic!("no hash marker in child output:\n{stdout}"));
        assert_eq!(
            child_hash,
            format!("{local_hash:016x}"),
            "dynamic epoch geometry differs between this process and a \
             child with HOPSPAN_WORKERS={workers}; serialization:\n{serialized}"
        );
    }
}

/// Finds `marker` anywhere in the output and returns the token after
/// it (libtest may prefix the line).
fn extract(stdout: &str, marker: &str) -> Option<String> {
    let at = stdout.find(marker)? + marker.len();
    let rest = &stdout[at..];
    let end = rest.find(|c: char| c.is_whitespace()).unwrap_or(rest.len());
    Some(rest[..end].to_string())
}
