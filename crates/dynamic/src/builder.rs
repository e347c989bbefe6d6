//! The background builder: waits for the mutation log to cross a
//! rebuild threshold, cuts a consistent snapshot of the live point set,
//! rebuilds the navigator off-lock from scratch, and swaps the new
//! epoch in through the [`crate::epoch`] funnel. Queries never wait on
//! a rebuild: they read the published epoch until the swap, which holds
//! the write lock only for the `Arc` replacement.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hopspan_core::{MetricNavigator, NavigationError};
use hopspan_metric::{EuclideanSpace, Metric};
use hopspan_tree_cover::RamseyTreeCover;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::epoch::{BuildCut, Epoch, NO_DENSE};
use crate::Inner;
// Same poison policy as the crate root: ledger and epoch writes run to
// completion inside the epoch funnel.
use hopspan_pipeline::{lock_resilient, wait_resilient, write_resilient};

/// Pause after a contained rebuild failure before the next attempt, so
/// a persistently failing build cannot spin the builder thread hot.
const FAILURE_BACKOFF: Duration = Duration::from_millis(10);

/// Builds one epoch over the cut's live point set. Deterministic and
/// bit-identical to a from-scratch [`MetricNavigator::general_budgeted`]
/// with the same seed over the same points: the rng is re-seeded from
/// `cfg.seed` for every build, and nothing is carried over from the
/// previous epoch (see the crate docs for why no tree spanner is
/// reused).
pub(crate) fn build_epoch(
    cut: &BuildCut,
    cfg: &crate::DynConfig,
) -> Result<Epoch, NavigationError> {
    let points: Vec<Vec<f64>> = cut.points.iter().map(|p| p.coords.clone()).collect();
    let metric = EuclideanSpace::from_points(&points);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let (cover, gamma) = RamseyTreeCover::with_tree_budget(&metric, cfg.tree_budget, &mut rng)?;
    let home: Vec<usize> = (0..metric.len()).map(|p| cover.home(p)).collect();
    let (nav, _stats) = MetricNavigator::from_cover_with_stats(
        &metric,
        cover.into_cover().into_trees(),
        Some(home),
        cfg.k,
        cfg.workers,
    )?;
    let hx = hopspan_store::hx_hash(&nav);
    let max_ext = cut.points.iter().map(|p| p.ext).max().unwrap_or(0);
    let mut dense_of_ext = vec![NO_DENSE; max_ext as usize + 1];
    let mut ext_of_dense = Vec::with_capacity(cut.points.len());
    for (dense, p) in cut.points.iter().enumerate() {
        dense_of_ext[p.ext as usize] = dense as u32;
        ext_of_dense.push(p.ext);
    }
    Ok(Epoch {
        id: 0, // assigned by Shared::install / Shared::initial
        nav: Arc::new(nav),
        hx,
        gamma,
        dense_of_ext,
        ext_of_dense,
        seq: cut.seq,
    })
}

/// The builder thread body: runs until shutdown is requested.
pub(crate) fn run(inner: Arc<Inner>) {
    loop {
        // Wait for work (or shutdown) under the ledger mutex.
        let (cut, inject_failure) = {
            let mut ledger = lock_resilient(&inner.ledger);
            loop {
                if ledger.shutdown_requested() {
                    return;
                }
                if ledger.rebuild_due(inner.cfg.dirty_threshold, inner.cfg.max_pending) {
                    break;
                }
                ledger = wait_resilient(&inner.cv, ledger);
            }
            (ledger.cut(), ledger.take_fail_token())
        };

        // The expensive part runs without any lock held; queries keep
        // reading the previous epoch and mutations keep appending to
        // the log (they will be covered by the next cut). A panicking
        // build — injected by chaos or genuine — is contained here and
        // leaves the previous epoch published.
        let started = Instant::now();
        let built = catch_unwind(AssertUnwindSafe(|| {
            if inject_failure {
                // hopspan:allow(panic-in-lib) -- chaos injection: the kill-during-rebuild scenarios arm this deliberate panic to prove rebuild containment
                panic!("chaos: injected rebuild failure");
            }
            build_epoch(&cut, &inner.cfg)
        }));
        match built {
            Ok(Ok(epoch)) => {
                let tree_count = epoch.nav.tree_count();
                let covered_seq = epoch.seq;
                let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                // Commit: ledger mutex before the shared write lock —
                // the one global lock order of the crate (mutations
                // acquire them in the same order).
                let mut ledger = lock_resilient(&inner.ledger);
                let mut view = write_resilient(&inner.shared);
                let id = view.install(epoch);
                ledger.commit(covered_seq, tree_count, nanos);
                drop(view);
                drop(ledger);
                inner
                    .epoch_id
                    .store(id, std::sync::atomic::Ordering::Relaxed);
                inner
                    .rebuilds
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                inner.cv.notify_all();
            }
            Ok(Err(_)) | Err(_) => {
                let mut ledger = lock_resilient(&inner.ledger);
                ledger.abort_build();
                drop(ledger);
                inner.cv.notify_all();
                // Bounded pause so a persistent failure cannot spin hot;
                // purely a scheduling delay, never part of any result.
                std::thread::sleep(FAILURE_BACKOFF);
            }
        }
    }
}
