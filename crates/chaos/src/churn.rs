//! Churn scenarios against the epoch-swapped dynamic navigator: the
//! `hopspan-dynamic` chaos family. Each scenario scripts a mutation
//! storm — queries racing inserts/removes, rebuilds killed mid-build,
//! back-to-back epoch swaps, retired ids thrown at the serve layer —
//! and demands the epoch contract holds throughout: queries always
//! answer (from the current or previous epoch, never junk), tombstoned
//! ids fail typed, contained rebuild panics leave the old epoch
//! published, and after every storm the published epoch's `H_X` hash
//! equals a from-scratch build over the same live point set.
//!
//! Detail strings are deterministic (scripted counts and parameters
//! only, never timings or reader throughput), so churn scenarios
//! participate in the seed-replayability invariant like every other
//! family. The family never produces `Degraded` outcomes, so the golden
//! degraded hash is invariant to it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

use hopspan_core::{MetricNavigator, NavigationError};
use hopspan_dynamic::{DynConfig, DynError, DynamicNavigator};
use hopspan_metric::EuclideanSpace;
use hopspan_serve::{Op, QueryOutcome, ServeConfig, ServeError, ShardedNavigator};
use rand::rngs::Pcg32;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::OutcomeKind;

/// The churn sub-family: each kind scripts one storm shape the dynamic
/// navigator's epoch machinery must absorb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// Reader threads race a scripted insert/remove storm; every query
    /// must answer or fail typed (`PointRetired`), never panic.
    MutateRace,
    /// Rebuild attempts are killed mid-build (injected panics); the
    /// previous epoch must stay published and the retried build must
    /// land with the exact from-scratch `H_X`.
    KillDuringRebuild,
    /// Back-to-back flush-forced epoch swaps; every swap must advance
    /// the epoch id monotonically and serve queries in between.
    SwapStorm,
    /// Retired and unknown ids thrown at a live sharded serve engine;
    /// every answer must be the typed error the wire contract promises.
    RetiredQuery,
}

impl ChurnKind {
    /// Every churn kind, in campaign order.
    pub const ALL: [ChurnKind; 4] = [
        ChurnKind::MutateRace,
        ChurnKind::KillDuringRebuild,
        ChurnKind::SwapStorm,
        ChurnKind::RetiredQuery,
    ];

    /// Short stable tag for reports.
    pub fn tag(&self) -> &'static str {
        match self {
            ChurnKind::MutateRace => "mutate-race",
            ChurnKind::KillDuringRebuild => "kill-during-rebuild",
            ChurnKind::SwapStorm => "swap-storm",
            ChurnKind::RetiredQuery => "retired-query",
        }
    }
}

/// The point set every churn probe starts from.
pub(crate) fn churn_points(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Pcg32::new(seed, 0x0c0a);
    (0..n)
        .map(|_| (0..2).map(|_| rng.gen::<f64>() * 10.0).collect())
        .collect()
}

/// The dynamic configuration churn probes build with. Small thresholds
/// keep background rebuilds in play; [`ChurnKind::SwapStorm`] raises
/// them so only its explicit flushes publish.
fn churn_cfg(dirty_threshold: u32, max_pending: u64) -> DynConfig {
    DynConfig {
        dirty_threshold,
        max_pending,
        ..DynConfig::default()
    }
}

/// The equivalence oracle: the published epoch's `H_X` must equal a
/// from-scratch [`MetricNavigator::general_budgeted`] build over the
/// exact live point set the epoch publishes (same seed, budget, k).
fn assert_scratch_equivalent(nav: &DynamicNavigator, cfg: &DynConfig) -> Result<(), String> {
    let points: Vec<Vec<f64>> = nav
        .published_ids()
        .iter()
        .map(|&id| {
            nav.coords_of(id)
                .ok_or_else(|| format!("published id {id} has no live coordinates"))
        })
        .collect::<Result<_, _>>()?;
    let metric = EuclideanSpace::from_points(&points);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let (scratch, _gamma) =
        MetricNavigator::general_budgeted(&metric, cfg.tree_budget, cfg.k, &mut rng)
            .map_err(|e| format!("from-scratch oracle build failed: {e}"))?;
    let want = hopspan_store::hx_hash(&scratch);
    let got = nav.epoch_info().hx;
    if got != want {
        return Err(format!(
            "epoch H_X {got:#018x} != from-scratch H_X {want:#018x}"
        ));
    }
    Ok(())
}

/// Dispatches one churn scenario body.
pub(crate) fn churn_probe(
    points: &[Vec<f64>],
    kind: ChurnKind,
    rng: &mut Pcg32,
) -> (OutcomeKind, String) {
    let result = match kind {
        ChurnKind::MutateRace => mutate_race_probe(points, rng),
        ChurnKind::KillDuringRebuild => kill_during_rebuild_probe(points, rng),
        ChurnKind::SwapStorm => swap_storm_probe(points, rng),
        ChurnKind::RetiredQuery => retired_query_probe(points, rng),
    };
    match result {
        Ok((outcome, detail)) => (outcome, detail),
        Err(detail) => (OutcomeKind::Violation, detail),
    }
}

/// Mutate-race: reader threads hammer the published epoch while a
/// scripted storm inserts and removes points. Readers may only ever see
/// answers or typed `PointRetired`; afterwards the drained epoch must
/// be from-scratch equivalent.
fn mutate_race_probe(
    points: &[Vec<f64>],
    rng: &mut Pcg32,
) -> Result<(OutcomeKind, String), String> {
    const READERS: u64 = 2;
    let cfg = churn_cfg(3, 16);
    let nav = Arc::new(
        DynamicNavigator::new(points, cfg)
            .map_err(|e| format!("mutate-race: build failed: {e}"))?,
    );
    let n = points.len() as u32;
    let stop = Arc::new(AtomicBool::new(false));
    // Each reader drops its `first` sender after its first answer, so
    // the storm waits until every reader has answered once (or died,
    // which drops the sender too and cannot hang the gate). Without
    // the gate, storm and flush can finish before a reader is
    // scheduled on a small machine, which reads as starvation.
    let (first, gate) = mpsc::channel::<()>();
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let nav = Arc::clone(&nav);
            let stop = Arc::clone(&stop);
            let mut first = Some(first.clone());
            std::thread::spawn(move || {
                let mut out = Vec::new();
                let mut answered = 0u64;
                let mut rng = ChaCha8Rng::seed_from_u64(0xC0DE + r);
                while !stop.load(Ordering::Relaxed) {
                    let u = rng.gen_range(0..n);
                    let v = rng.gen_range(0..n);
                    match nav.find_path_into(u, v, &mut out) {
                        Ok(_) => answered += 1,
                        // The only legal failure while seed ids churn:
                        Err(NavigationError::PointRetired { .. }) => {}
                        Err(e) => panic!("escaped query error during churn: {e}"),
                    }
                    if answered > 0 {
                        first.take();
                    }
                }
                answered
            })
        })
        .collect();
    drop(first);
    // Returns once every sender is gone; nothing is ever sent.
    let _all_answered = gate.recv();

    // The scripted storm: deterministic in the scenario rng, so the
    // accepted insert/remove counts (and hence the detail) replay.
    let muts = 12 + rng.gen_range(0..13u64);
    let mut inserts = 0u64;
    let mut removes = 0u64;
    let mut storm_error = None;
    for _ in 0..muts {
        if rng.gen_bool(0.5) {
            let p = vec![rng.gen::<f64>() * 50.0, rng.gen::<f64>() * 50.0];
            match nav.insert(&p) {
                Ok(_) => inserts += 1,
                Err(e) => {
                    storm_error = Some(format!("mutate-race: insert failed: {e}"));
                    break;
                }
            }
        } else {
            match nav.remove(rng.gen_range(0..n)) {
                Ok(_) => removes += 1,
                Err(DynError::AlreadyRetired { .. } | DynError::TooFewPoints { .. }) => {}
                Err(e) => {
                    storm_error = Some(format!("mutate-race: remove failed: {e}"));
                    break;
                }
            }
        }
    }
    nav.flush();
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        let answered = r
            .join()
            .map_err(|_| "mutate-race: a reader panicked".to_string())?;
        if answered == 0 {
            return Err("mutate-race: a reader was starved during churn".to_string());
        }
    }
    if let Some(detail) = storm_error {
        return Err(detail);
    }
    assert_scratch_equivalent(&nav, &cfg).map_err(|e| format!("mutate-race: {e}"))?;
    Ok((
        OutcomeKind::Full,
        format!(
            "{inserts} inserts / {removes} removes raced {READERS} readers; H_X matched from-scratch"
        ),
    ))
}

/// Kill-during-rebuild: arm injected rebuild panics, mutate, and flush
/// across them. The panics must be contained (old epoch keeps serving),
/// counted, and the retried build must land from-scratch equivalent.
fn kill_during_rebuild_probe(
    points: &[Vec<f64>],
    rng: &mut Pcg32,
) -> Result<(OutcomeKind, String), String> {
    let cfg = churn_cfg(3, 16);
    let nav = DynamicNavigator::new(points, cfg)
        .map_err(|e| format!("kill-during-rebuild: build failed: {e}"))?;
    let kills = 1 + rng.gen_range(0..3u32);
    nav.arm_rebuild_failures(kills);
    let p = vec![rng.gen::<f64>() * 50.0 + 100.0, rng.gen::<f64>() * 50.0];
    let (id, _) = nav
        .insert(&p)
        .map_err(|e| format!("kill-during-rebuild: insert failed: {e}"))?;

    // The old epoch must keep answering while rebuilds die.
    let mut out = Vec::new();
    nav.find_path_into(0, 1, &mut out)
        .map_err(|e| format!("kill-during-rebuild: query during failed rebuilds errored: {e}"))?;
    let info = nav.flush();
    if info.pending != 0 {
        return Err(format!(
            "kill-during-rebuild: flush left {} pending mutation(s)",
            info.pending
        ));
    }
    nav.find_path_into(id, 0, &mut out)
        .map_err(|e| format!("kill-during-rebuild: published insert unreachable: {e}"))?;
    let counters = nav.counters();
    if counters.failed_rebuilds != u64::from(kills) {
        return Err(format!(
            "kill-during-rebuild: armed {kills} rebuild panic(s), counters saw {}",
            counters.failed_rebuilds
        ));
    }
    if counters.rebuilds == 0 {
        return Err("kill-during-rebuild: no rebuild was ever published".to_string());
    }
    assert_scratch_equivalent(&nav, &cfg).map_err(|e| format!("kill-during-rebuild: {e}"))?;
    Ok((
        OutcomeKind::TypedError,
        format!("{kills} rebuild panic(s) contained; retried epoch matched from-scratch H_X"),
    ))
}

/// Swap-storm: flush-forced epoch swaps back to back. Every swap must
/// advance the epoch id strictly, drain the log, and serve queries in
/// between; the final epoch must be from-scratch equivalent.
fn swap_storm_probe(points: &[Vec<f64>], rng: &mut Pcg32) -> Result<(OutcomeKind, String), String> {
    // High thresholds: only the explicit flushes publish, so the swap
    // cadence is exactly the scripted one.
    let cfg = churn_cfg(u32::MAX, u64::MAX);
    let nav =
        DynamicNavigator::new(points, cfg).map_err(|e| format!("swap-storm: build failed: {e}"))?;
    let n = points.len() as u32;
    let rounds = 4 + rng.gen_range(0..5u64);
    let mut epoch = nav.epoch_id();
    let mut out = Vec::new();
    for r in 0..rounds {
        if r % 2 == 0 {
            let p = vec![200.0 + r as f64, 0.25];
            nav.insert(&p)
                .map_err(|e| format!("swap-storm: round {r} insert failed: {e}"))?;
        } else {
            // Small seed ids; `n >= 16` keeps this clear of the probes.
            nav.remove((r / 2) as u32)
                .map_err(|e| format!("swap-storm: round {r} remove failed: {e}"))?;
        }
        let info = nav.flush();
        if info.id <= epoch {
            return Err(format!(
                "swap-storm: round {r} flush published epoch {} after {epoch}",
                info.id
            ));
        }
        if info.pending != 0 {
            return Err(format!(
                "swap-storm: round {r} flush left {} pending mutation(s)",
                info.pending
            ));
        }
        epoch = info.id;
        // The fresh epoch answers immediately (high seed ids are never
        // touched by the storm).
        nav.find_path_into(n - 1, n - 2, &mut out)
            .map_err(|e| format!("swap-storm: round {r} query after swap errored: {e}"))?;
    }
    assert_scratch_equivalent(&nav, &cfg).map_err(|e| format!("swap-storm: {e}"))?;
    Ok((
        OutcomeKind::Full,
        format!(
            "{rounds} swap rounds, {} live points; every swap advanced and matched from-scratch",
            nav.live_count()
        ),
    ))
}

/// Retired-query: tombstoned and unknown ids thrown at a live sharded
/// serve engine. Every surface must answer the typed error the wire
/// contract promises while healthy traffic keeps flowing.
fn retired_query_probe(
    points: &[Vec<f64>],
    rng: &mut Pcg32,
) -> Result<(OutcomeKind, String), String> {
    let dyn_cfg = churn_cfg(u32::MAX, u64::MAX);
    let eng = ShardedNavigator::dynamic(
        points,
        dyn_cfg,
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("retired-query: engine build failed: {e}"))?;
    let n = points.len() as u32;
    let victim = rng.gen_range(1..n - 1);
    let mut out = Vec::new();
    match eng.call(Op::Remove { id: victim }, &mut out) {
        Ok(QueryOutcome::Mutation { id, .. }) if id == victim => {}
        other => return Err(format!("retired-query: remove answered {other:?}")),
    }
    // Both endpoint positions, from whichever shard owns the request.
    for probe in [
        Op::FindPath { u: victim, v: 0 },
        Op::FindPath { u: 0, v: victim },
    ] {
        match eng.call(probe, &mut out) {
            Err(ServeError::PointRetired { point }) if point == victim => {}
            other => {
                return Err(format!(
                    "retired-query: query naming retired id {victim} answered {other:?}"
                ))
            }
        }
    }
    // Double remove and unknown ids stay typed.
    match eng.call(Op::Remove { id: victim }, &mut out) {
        Err(ServeError::PointRetired { point }) if point == victim => {}
        other => return Err(format!("retired-query: double remove answered {other:?}")),
    }
    match eng.call(Op::Remove { id: n + 999 }, &mut out) {
        Err(ServeError::BadEndpoint { point }) if point == n + 999 => {}
        other => return Err(format!("retired-query: unknown remove answered {other:?}")),
    }
    // Healthy traffic is unaffected.
    match eng.call(Op::FindPath { u: 0, v: n - 1 }, &mut out) {
        Ok(QueryOutcome::Full) => {}
        other => return Err(format!("retired-query: healthy query answered {other:?}")),
    }
    let handle = eng
        .dynamic_handle()
        .ok_or_else(|| "retired-query: dynamic engine lost its handle".to_string())?;
    handle.flush();
    assert_scratch_equivalent(&handle, &dyn_cfg).map_err(|e| format!("retired-query: {e}"))?;
    Ok((
        OutcomeKind::TypedError,
        format!("retired id {victim}: typed on every surface; drained epoch matched from-scratch"),
    ))
}
