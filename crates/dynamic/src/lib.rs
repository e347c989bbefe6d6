//! Online insert/delete over hopspan navigators: a [`DynamicNavigator`]
//! wraps the flat, build-once [`MetricNavigator`] in a double-buffered
//! epoch pair so queries keep answering — against the published epoch's
//! dense, zero-allocation layout — while a background builder thread
//! applies a mutation log and swaps freshly built epochs in atomically.
//!
//! The design follows the paper's hierarchy-of-nets localization
//! (§3–§5): a single mutation perturbs only the O(log Φ) net levels
//! around the touched point, so most cover trees of the next epoch
//! recur **shape-identically** and their Theorem 1.1 spanners are
//! reused from a fingerprint cache instead of being rebuilt
//! ([`MetricNavigator::from_cover_reusing_with_stats`]). Amortization à
//! la the `DecrementalSpanner` blueprint: mutations bump per-tree dirty
//! counters (keyed on the Ramsey home tree of the touched point), and a
//! rebuild starts only when a counter crosses
//! [`DynConfig::dirty_threshold`] or the global pending log crosses
//! [`DynConfig::max_pending`].
//!
//! Determinism contract: every epoch's navigator is **bit-identical**
//! to a from-scratch [`MetricNavigator::general_budgeted`] build over
//! the same live point set with the same seed, for any worker count —
//! the per-epoch FNV-1a `H_X` hash ([`EpochInfo::hx`]) is the pinned
//! witness. Removed ids answer a typed
//! [`NavigationError::PointRetired`] immediately (tombstones), and ids
//! inserted after the last build cut answer
//! [`NavigationError::PointOutOfRange`] until the next swap publishes
//! them.
//!
//! All writes to the epoch/tombstone/dirty state are funneled through
//! [`mod@epoch`]; lint rule R14 `epoch-unguarded-mutation` rejects any
//! other write site in this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

use hopspan_core::{MetricNavigator, NavigationError};
// Adopting poison on the ledger mutex is safe: the ledger is kept
// consistent by the epoch funnel's complete-write methods.
use hopspan_pipeline::lock_resilient;

mod builder;
pub mod epoch;

use builder::wait_resilient;
use epoch::{Ledger, Shared, Status, NO_DENSE};

/// Default build seed: fixed across epochs so a from-scratch build over
/// the same live point set reproduces every epoch bit-exactly.
pub const DEFAULT_SEED: u64 = 0x5EED_0E27;

/// Configuration of a [`DynamicNavigator`].
#[derive(Debug, Clone, Copy)]
pub struct DynConfig {
    /// Ramsey tree budget of every epoch build (Table 1 trade-off).
    pub tree_budget: usize,
    /// Hop bound `k` of the per-tree spanners.
    pub k: usize,
    /// Build rng seed; identical for every epoch (see [`DEFAULT_SEED`]).
    pub seed: u64,
    /// Per-tree dirty count that triggers an amortized rebuild.
    pub dirty_threshold: u32,
    /// Pending-mutation count that triggers a rebuild regardless of
    /// per-tree locality, bounding worst-case staleness.
    pub max_pending: u64,
    /// Worker threads for epoch builds (`None` = automatic).
    pub workers: Option<usize>,
}

impl Default for DynConfig {
    fn default() -> Self {
        DynConfig {
            tree_budget: 6,
            k: 2,
            seed: DEFAULT_SEED,
            dirty_threshold: 8,
            max_pending: 64,
            workers: None,
        }
    }
}

/// Error type of the mutation API.
#[derive(Debug)]
#[non_exhaustive]
pub enum DynError {
    /// An epoch build failed (cover/spanner construction error).
    Build(NavigationError),
    /// The inserted point has the wrong dimension.
    DimensionMismatch {
        /// Dimension of the space.
        expected: usize,
        /// Dimension of the rejected point.
        got: usize,
    },
    /// The inserted point has a NaN or infinite coordinate.
    NonFiniteCoordinate,
    /// The inserted point sits at distance exactly zero from a live
    /// point (the cover constructions reject duplicates).
    DuplicatePoint {
        /// The colliding live id.
        of: u32,
    },
    /// The id was never allocated.
    UnknownId {
        /// The offending id.
        id: u32,
    },
    /// The id was already removed (tombstoned).
    AlreadyRetired {
        /// The offending id.
        id: u32,
    },
    /// Removing the point would leave fewer than two live points.
    TooFewPoints {
        /// Current live count.
        live: usize,
    },
}

impl fmt::Display for DynError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynError::Build(e) => write!(f, "epoch build failed: {e}"),
            DynError::DimensionMismatch { expected, got } => {
                write!(f, "point dimension {got} != space dimension {expected}")
            }
            DynError::NonFiniteCoordinate => write!(f, "point has a non-finite coordinate"),
            DynError::DuplicatePoint { of } => {
                write!(f, "point duplicates live point {of}")
            }
            DynError::UnknownId { id } => write!(f, "id {id} was never allocated"),
            DynError::AlreadyRetired { id } => write!(f, "id {id} is already retired"),
            DynError::TooFewPoints { live } => {
                write!(f, "cannot remove below two live points (live = {live})")
            }
        }
    }
}

impl std::error::Error for DynError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DynError::Build(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NavigationError> for DynError {
    fn from(e: NavigationError) -> Self {
        DynError::Build(e)
    }
}

/// A point-in-time description of the published epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochInfo {
    /// Monotonically increasing epoch id (initial build = 1).
    pub id: u64,
    /// FNV-1a `H_X` hash of the epoch's navigator — equal to the hash
    /// of a from-scratch build over the same live point set.
    pub hx: u64,
    /// Live points the epoch navigates (its dense point count).
    pub published_points: usize,
    /// Cover trees of the epoch.
    pub tree_count: usize,
    /// Trees whose spanner was reused from the previous epoch's cache.
    pub reused_trees: usize,
    /// Realized Ramsey padding parameter γ of the build.
    pub gamma: f64,
    /// Mutations accepted but not yet reflected in this epoch.
    pub pending: u64,
}

/// Monotonic counters of a [`DynamicNavigator`] (all lock-free reads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DynCounters {
    /// Accepted inserts.
    pub inserts: u64,
    /// Accepted removes.
    pub removes: u64,
    /// Successfully published rebuilds (excludes the initial build).
    pub rebuilds: u64,
    /// Contained rebuild failures (the previous epoch stayed up).
    pub failed_rebuilds: u64,
}

/// Shared state between the handle, the builder thread and queries.
pub(crate) struct Inner {
    pub(crate) cfg: DynConfig,
    pub(crate) dim: usize,
    pub(crate) shared: RwLock<Shared>,
    pub(crate) ledger: Mutex<Ledger>,
    pub(crate) cv: Condvar,
    pub(crate) epoch_id: AtomicU64,
    pub(crate) rebuilds: AtomicU64,
    pub(crate) inserts: AtomicU64,
    pub(crate) removes: AtomicU64,
}

/// An epoch-swapped dynamic navigator: lock-striped queries against the
/// published epoch, mutations through a tombstone set and mutation log,
/// amortized background rebuilds swapped in atomically.
pub struct DynamicNavigator {
    inner: Arc<Inner>,
    builder: Option<std::thread::JoinHandle<()>>,
}

impl fmt::Debug for DynamicNavigator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynamicNavigator")
            .field("epoch_id", &self.epoch_id())
            .field("dim", &self.inner.dim)
            .finish_non_exhaustive()
    }
}

impl DynamicNavigator {
    /// Builds epoch 1 over the seed point set (synchronously, on the
    /// calling thread) and starts the builder thread.
    ///
    /// # Errors
    ///
    /// Rejects fewer than two points, inconsistent dimensions,
    /// non-finite coordinates and duplicate points; propagates epoch
    /// build failures.
    pub fn new(points: &[Vec<f64>], cfg: DynConfig) -> Result<Self, DynError> {
        if points.len() < 2 {
            return Err(DynError::TooFewPoints { live: points.len() });
        }
        let dim = points[0].len();
        if dim == 0 {
            return Err(DynError::NonFiniteCoordinate);
        }
        for p in points {
            if p.len() != dim {
                return Err(DynError::DimensionMismatch {
                    expected: dim,
                    got: p.len(),
                });
            }
            if p.iter().any(|c| !c.is_finite()) {
                return Err(DynError::NonFiniteCoordinate);
            }
        }
        let cut = epoch::BuildCut {
            points: points
                .iter()
                .enumerate()
                .map(|(i, p)| epoch::CutPoint {
                    ext: i as u32,
                    coords: p.clone(),
                })
                .collect(),
            seq: 0,
        };
        let first = builder::build_epoch(&cut, &cfg, &std::collections::BTreeMap::new())?;
        let tree_count = first.nav.tree_count();
        let inner = Arc::new(Inner {
            cfg,
            dim,
            shared: RwLock::new(Shared::initial(first)),
            ledger: Mutex::new(Ledger::initial(points.to_vec(), tree_count)),
            cv: Condvar::new(),
            epoch_id: AtomicU64::new(1),
            rebuilds: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            removes: AtomicU64::new(0),
        });
        let worker = Arc::clone(&inner);
        let handle = std::thread::spawn(move || builder::run(worker));
        Ok(DynamicNavigator {
            inner,
            builder: Some(handle),
        })
    }

    /// Inserts a point, returning its external id and the epoch id
    /// current at commit time (the point becomes navigable in a later
    /// epoch — a client seeing the same epoch id in query replies knows
    /// the insert is not visible yet).
    ///
    /// # Errors
    ///
    /// Rejects wrong-dimension, non-finite and duplicate points.
    pub fn insert(&self, coords: &[f64]) -> Result<(u32, u64), DynError> {
        if coords.len() != self.inner.dim {
            return Err(DynError::DimensionMismatch {
                expected: self.inner.dim,
                got: coords.len(),
            });
        }
        if coords.iter().any(|c| !c.is_finite()) {
            return Err(DynError::NonFiniteCoordinate);
        }
        let mut ledger = lock_resilient(&self.inner.ledger);
        if let Some(of) = ledger.find_duplicate(coords) {
            return Err(DynError::DuplicatePoint { of });
        }
        // Attribute the mutation to the first net level the new point
        // perturbs: the home tree of its nearest live published point.
        let mut view = write_resilient(&self.inner.shared);
        let perturbed = ledger.nearest_live(coords).and_then(|near| {
            let ep = &view.epoch;
            match ep.dense_of_ext.get(near as usize) {
                Some(&d) if d != NO_DENSE => ep.nav.home_tree(d as usize),
                _ => None,
            }
        });
        let ext = ledger.apply_insert(coords.to_vec(), perturbed);
        view.admit(ext);
        let at_epoch = view.epoch.id;
        let due = ledger.rebuild_due(self.inner.cfg.dirty_threshold, self.inner.cfg.max_pending);
        drop(view);
        drop(ledger);
        self.inner.inserts.fetch_add(1, Ordering::Relaxed);
        if due {
            self.inner.cv.notify_all();
        }
        Ok((ext, at_epoch))
    }

    /// Removes a point by id. The tombstone takes effect immediately —
    /// queries naming the id answer [`NavigationError::PointRetired`]
    /// from this call on — while the point leaves the navigator at the
    /// next epoch swap. Returns the epoch id current at commit time.
    ///
    /// # Errors
    ///
    /// Rejects unknown ids, double removes, and removing below two
    /// live points.
    pub fn remove(&self, id: u32) -> Result<u64, DynError> {
        let mut ledger = lock_resilient(&self.inner.ledger);
        if !ledger.knows(id) {
            return Err(DynError::UnknownId { id });
        }
        if ledger.coords_of(id).is_none() {
            return Err(DynError::AlreadyRetired { id });
        }
        if ledger.live() <= 2 {
            return Err(DynError::TooFewPoints {
                live: ledger.live(),
            });
        }
        let mut view = write_resilient(&self.inner.shared);
        let perturbed = {
            let ep = &view.epoch;
            match ep.dense_of_ext.get(id as usize) {
                Some(&d) if d != NO_DENSE => ep.nav.home_tree(d as usize),
                _ => None,
            }
        };
        ledger.apply_remove(id, perturbed);
        view.retire(id);
        let at_epoch = view.epoch.id;
        let due = ledger.rebuild_due(self.inner.cfg.dirty_threshold, self.inner.cfg.max_pending);
        drop(view);
        drop(ledger);
        self.inner.removes.fetch_add(1, Ordering::Relaxed);
        if due {
            self.inner.cv.notify_all();
        }
        Ok(at_epoch)
    }

    /// The k-hop path between two external ids, written into `out` as
    /// external ids, answered from the published epoch. Returns the id
    /// of the epoch that answered (the staleness witness a client
    /// compares across replies). Zero allocations after warm-up: the
    /// dense query runs the navigator's `_into` path and the id
    /// translation rewrites `out` in place.
    ///
    /// # Errors
    ///
    /// [`NavigationError::PointRetired`] for tombstoned ids,
    /// [`NavigationError::PointOutOfRange`] for unknown ids and for
    /// inserts not yet published; navigator errors pass through.
    pub fn find_path_into(
        &self,
        u: u32,
        v: u32,
        out: &mut Vec<usize>,
    ) -> Result<u64, NavigationError> {
        let view = read_resilient(&self.inner.shared);
        let du = resolve(&view, u)?;
        let dv = resolve(&view, v)?;
        let ep = &view.epoch;
        ep.nav.find_path_into(du, dv, out)?;
        for p in out.iter_mut() {
            *p = ep.ext_of_dense[*p] as usize;
        }
        Ok(ep.id)
    }

    /// Allocating convenience wrapper around
    /// [`DynamicNavigator::find_path_into`].
    ///
    /// # Errors
    ///
    /// Same as [`DynamicNavigator::find_path_into`].
    pub fn find_path(&self, u: u32, v: u32) -> Result<(u64, Vec<usize>), NavigationError> {
        let mut out = Vec::new();
        let id = self.find_path_into(u, v, &mut out)?;
        Ok((id, out))
    }

    /// The published epoch id (single atomic load; metrics-safe).
    #[must_use]
    pub fn epoch_id(&self) -> u64 {
        self.inner.epoch_id.load(Ordering::Relaxed)
    }

    /// Live point count (accepted inserts minus removes).
    #[must_use]
    pub fn live_count(&self) -> usize {
        lock_resilient(&self.inner.ledger).live()
    }

    /// A snapshot of the published epoch's description.
    #[must_use]
    pub fn epoch_info(&self) -> EpochInfo {
        let ledger = lock_resilient(&self.inner.ledger);
        let view = read_resilient(&self.inner.shared);
        let ep = &view.epoch;
        EpochInfo {
            id: ep.id,
            hx: ep.hx,
            published_points: ep.ext_of_dense.len(),
            tree_count: ep.nav.tree_count(),
            reused_trees: ep.reused_trees,
            gamma: ep.gamma,
            pending: ledger.pending(),
        }
    }

    /// The published epoch's navigator (an `Arc` clone; the navigator
    /// is immutable, so holding it across swaps is safe — it just goes
    /// stale).
    #[must_use]
    pub fn published_navigator(&self) -> Arc<MetricNavigator> {
        Arc::clone(&read_resilient(&self.inner.shared).epoch.nav)
    }

    /// The external ids the published epoch navigates, in dense order —
    /// a from-scratch build over exactly these points (in this order)
    /// reproduces the epoch bit-identically.
    #[must_use]
    pub fn published_ids(&self) -> Vec<u32> {
        read_resilient(&self.inner.shared)
            .epoch
            .ext_of_dense
            .clone()
    }

    /// Coordinates of a live id (`None` for retired/unknown ids).
    #[must_use]
    pub fn coords_of(&self, id: u32) -> Option<Vec<f64>> {
        lock_resilient(&self.inner.ledger)
            .coords_of(id)
            .map(<[f64]>::to_vec)
    }

    /// Monotonic operation counters.
    #[must_use]
    pub fn counters(&self) -> DynCounters {
        let failed = lock_resilient(&self.inner.ledger).failed_rebuilds();
        DynCounters {
            inserts: self.inner.inserts.load(Ordering::Relaxed),
            removes: self.inner.removes.load(Ordering::Relaxed),
            rebuilds: self.inner.rebuilds.load(Ordering::Relaxed),
            failed_rebuilds: failed,
        }
    }

    /// Blocks until every accepted mutation is reflected in the
    /// published epoch (forcing rebuilds below the amortization
    /// thresholds if needed) and returns the drained epoch's info.
    pub fn flush(&self) -> EpochInfo {
        let mut ledger = lock_resilient(&self.inner.ledger);
        if !ledger.drained() {
            ledger.request_flush();
            self.inner.cv.notify_all();
            while !ledger.drained() {
                ledger = wait_resilient(&self.inner.cv, ledger);
            }
        }
        drop(ledger);
        self.epoch_info()
    }

    /// Chaos knob: the next `n` rebuild attempts panic mid-build; the
    /// panics are contained, the previous epoch stays published, and
    /// `failed_rebuilds` counts them. Used by the `Churn` chaos family.
    pub fn arm_rebuild_failures(&self, n: u32) {
        lock_resilient(&self.inner.ledger).arm_rebuild_failures(n);
    }

    /// Drains the wall times (nanoseconds) of rebuilds published since
    /// the last call — the E27 rebuild-tail-latency telemetry.
    #[must_use]
    pub fn drain_rebuild_nanos(&self) -> Vec<u64> {
        lock_resilient(&self.inner.ledger).drain_rebuild_nanos()
    }
}

impl Drop for DynamicNavigator {
    fn drop(&mut self) {
        lock_resilient(&self.inner.ledger).request_shutdown();
        self.inner.cv.notify_all();
        if let Some(handle) = self.builder.take() {
            // A panicked builder already contained its panic per
            // rebuild; a join error here means the thread died outside
            // `catch_unwind`, which only the OS can cause — nothing to
            // do but drop the error.
            let _joined = handle.join();
        }
    }
}

/// Maps an external id to the published epoch's dense index, applying
/// tombstone and publication semantics.
fn resolve(view: &Shared, ext: u32) -> Result<usize, NavigationError> {
    match view.status.get(ext as usize) {
        None => Err(NavigationError::PointOutOfRange {
            point: ext as usize,
        }),
        Some(Status::Retired) => Err(NavigationError::PointRetired {
            point: ext as usize,
        }),
        Some(Status::Live) => match view.epoch.dense_of_ext.get(ext as usize) {
            Some(&d) if d != NO_DENSE => Ok(d as usize),
            // Live but inserted after the last build cut: out of range
            // of the published epoch until the next swap.
            _ => Err(NavigationError::PointOutOfRange {
                point: ext as usize,
            }),
        },
    }
}

/// Acquires the shared state for reading, adopting poison.
pub(crate) fn read_resilient<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Acquires the shared state for writing, adopting poison.
pub(crate) fn write_resilient<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}
