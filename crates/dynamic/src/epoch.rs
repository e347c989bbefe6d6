//! The epoch lifecycle funnel: **every** write to navigator, tombstone,
//! mutation-log and dirty-counter state of the dynamic layer happens
//! through the methods of this module — [`Shared`] (the query-visible
//! view: published epoch plus per-id liveness) and [`Ledger`] (the
//! builder-visible view: coordinates, pending mutation count, per-tree
//! dirty counters). Lint rule R14 `epoch-unguarded-mutation` flags any
//! write to this state elsewhere in the crate, so the swap-safety
//! argument of DESIGN.md §12 only has to audit this file.
//!
//! Swap safety in one paragraph: queries hold the `Shared` read lock
//! for their whole body, so they observe either the old epoch or the
//! new one, never a half-swapped mix; [`Shared::install`] replaces the
//! epoch `Arc` under the write lock and leaves tombstones untouched, so
//! a retired id stays retired across the swap; and the epoch id is
//! assigned by `install` as `old + 1` under the same lock, so ids are
//! strictly monotonic and a client comparing epoch ids across replies
//! can order them.

use std::sync::Arc;

use hopspan_core::MetricNavigator;

/// Liveness of one external id, consulted before any epoch lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// The point exists; it may or may not be in the published epoch
    /// yet (a fresh insert becomes navigable at the next swap).
    Live,
    /// The point was removed. Tombstones are permanent: the id answers
    /// a typed `PointRetired` forever, it is never reused.
    Retired,
}

/// Sentinel for "external id has no dense index in this epoch".
pub(crate) const NO_DENSE: u32 = u32::MAX;

/// One immutable published epoch: a from-scratch-equivalent navigator
/// over the live point set at the build cut, plus the id translation
/// tables queries need. Never mutated after [`Shared::install`].
#[derive(Debug)]
pub struct Epoch {
    /// Monotonically increasing epoch id (the initial build is 1).
    pub(crate) id: u64,
    /// The navigator over the epoch's dense point set.
    pub(crate) nav: Arc<MetricNavigator>,
    /// FNV-1a `H_X` hash of `nav` — bit-identical to a from-scratch
    /// build over the same live point set (the equivalence witness).
    pub(crate) hx: u64,
    /// Realized Ramsey padding parameter of the build.
    pub(crate) gamma: f64,
    /// `dense_of_ext[ext]` = dense index in `nav`, or [`NO_DENSE`].
    pub(crate) dense_of_ext: Vec<u32>,
    /// Inverse map: external id of each dense index.
    pub(crate) ext_of_dense: Vec<u32>,
    /// The mutation sequence number this epoch reflects.
    pub(crate) seq: u64,
}

/// The query-visible state: the published epoch and the per-external-id
/// liveness table. Readers traverse it under the shared read lock;
/// every write goes through the `&mut self` methods below.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) epoch: Arc<Epoch>,
    pub(crate) status: Vec<Status>,
}

impl Shared {
    /// The initial state: epoch 1 over the seed point set, all ids live.
    pub(crate) fn initial(mut epoch: Epoch) -> Self {
        epoch.id = 1;
        let n = epoch.dense_of_ext.len();
        Shared {
            epoch: Arc::new(epoch),
            status: vec![Status::Live; n],
        }
    }

    /// Records a freshly allocated external id as live (commit half of
    /// an insert). The id becomes navigable at the next swap.
    pub(crate) fn admit(&mut self, ext: u32) {
        let at = ext as usize;
        if at >= self.status.len() {
            self.status.resize(at + 1, Status::Live);
        }
        self.status[at] = Status::Live;
    }

    /// Tombstones an external id (commit half of a remove). Takes
    /// effect immediately — queries answer `PointRetired` from this
    /// moment, even though the point leaves the navigator only at the
    /// next swap.
    pub(crate) fn retire(&mut self, ext: u32) {
        self.status[ext as usize] = Status::Retired;
    }

    /// Atomically publishes a freshly built epoch, assigning it the
    /// next epoch id. The liveness table is deliberately untouched:
    /// tombstones survive the swap, and ids inserted after the build
    /// cut stay live-but-unpublished until the next epoch.
    pub(crate) fn install(&mut self, mut epoch: Epoch) -> u64 {
        epoch.id = self.epoch.id + 1;
        let id = epoch.id;
        self.epoch = Arc::new(epoch);
        id
    }
}

/// One entry of the build cut: an external id with its coordinates.
#[derive(Debug, Clone)]
pub(crate) struct CutPoint {
    pub(crate) ext: u32,
    pub(crate) coords: Vec<f64>,
}

/// A consistent snapshot of the live point set handed to the builder:
/// the points in ascending external-id order plus the mutation
/// sequence number the resulting epoch will reflect.
#[derive(Debug)]
pub(crate) struct BuildCut {
    pub(crate) points: Vec<CutPoint>,
    pub(crate) seq: u64,
}

/// The mutation-side state, guarded by the ledger mutex: coordinates of
/// every ever-inserted point, the pending-mutation bookkeeping and the
/// per-tree dirty counters that drive rebuild scheduling. All writes
/// go through the `&mut self` methods below (the commit funnel).
#[derive(Debug)]
pub(crate) struct Ledger {
    /// Coordinates per external id; `None` once retired.
    coords: Vec<Option<Vec<f64>>>,
    /// Live point count (`coords` entries that are `Some`).
    live: usize,
    /// Mutation sequence number: bumped once per accepted mutation.
    seq: u64,
    /// The sequence number covered by the published epoch.
    applied_seq: u64,
    /// Per-tree dirty counters over the published epoch's cover trees.
    dirty: Vec<u32>,
    /// Chaos knob: the next `n` rebuild attempts panic mid-build.
    fail_rebuilds: u32,
    /// Set by `flush()`: rebuild as soon as anything is pending, even
    /// below the amortization thresholds. Cleared once drained.
    force: bool,
    /// Set once by `Drop`; wakes and terminates the builder thread.
    shutdown: bool,
    /// True while the builder is between cut and commit.
    building: bool,
    /// Wall times of completed rebuilds, drained by telemetry readers.
    rebuild_nanos: Vec<u64>,
    /// Rebuild attempts that failed (contained panics); the previous
    /// epoch stayed published.
    failed_rebuilds: u64,
}

impl Ledger {
    /// A ledger over the seed point set, with one dirty counter per
    /// cover tree of the initial epoch.
    pub(crate) fn initial(points: Vec<Vec<f64>>, tree_count: usize) -> Self {
        let live = points.len();
        Ledger {
            coords: points.into_iter().map(Some).collect(),
            live,
            seq: 0,
            applied_seq: 0,
            dirty: vec![0; tree_count],
            fail_rebuilds: 0,
            force: false,
            shutdown: false,
            building: false,
            rebuild_nanos: Vec::new(),
            failed_rebuilds: 0,
        }
    }

    /// Number of live points.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Whether this external id was ever allocated (live or retired).
    pub(crate) fn knows(&self, ext: u32) -> bool {
        (ext as usize) < self.coords.len()
    }

    /// Coordinates of a live external id.
    pub(crate) fn coords_of(&self, ext: u32) -> Option<&[f64]> {
        self.coords.get(ext as usize).and_then(|c| c.as_deref())
    }

    /// Whether `coords` sits at Euclidean distance exactly zero from a
    /// live point (the cover constructions reject duplicate points);
    /// returns the colliding id. Uses the workspace's sanctioned
    /// bit-exact zero test, mirroring the `Metric` diagonal contract.
    pub(crate) fn find_duplicate(&self, coords: &[f64]) -> Option<u32> {
        self.coords.iter().enumerate().find_map(|(i, c)| {
            let c = c.as_deref()?;
            let d2 = c
                .iter()
                .zip(coords)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>();
            hopspan_metric::exactly_zero(d2).then_some(i as u32)
        })
    }

    /// The live external id nearest to `coords` under the Euclidean
    /// distance, ties broken by the lower id (deterministic). `None`
    /// only for an empty ledger.
    pub(crate) fn nearest_live(&self, coords: &[f64]) -> Option<u32> {
        let mut best: Option<(f64, u32)> = None;
        for (i, c) in self.coords.iter().enumerate() {
            let Some(c) = c else { continue };
            let d = c
                .iter()
                .zip(coords)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>();
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, i as u32));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Commits an insert: allocates the next external id, stores the
    /// coordinates, bumps the mutation sequence and the dirty counter
    /// of `perturbed_tree` (the home tree of the nearest live point —
    /// the first net level the new point perturbs). Returns the id.
    pub(crate) fn apply_insert(&mut self, coords: Vec<f64>, perturbed_tree: Option<usize>) -> u32 {
        let ext = self.coords.len() as u32;
        self.coords.push(Some(coords));
        self.live += 1;
        self.seq += 1;
        self.bump_dirty(perturbed_tree);
        ext
    }

    /// Commits a remove: drops the coordinates, bumps the mutation
    /// sequence and the dirty counter of the point's home tree.
    pub(crate) fn apply_remove(&mut self, ext: u32, perturbed_tree: Option<usize>) {
        self.coords[ext as usize] = None;
        self.live -= 1;
        self.seq += 1;
        self.bump_dirty(perturbed_tree);
    }

    fn bump_dirty(&mut self, tree: Option<usize>) {
        match tree {
            Some(t) if t < self.dirty.len() => self.dirty[t] += 1,
            // No attributable tree (or a stale index): charge the first
            // counter so the mutation still counts toward the threshold.
            _ => {
                if let Some(d) = self.dirty.first_mut() {
                    *d += 1;
                }
            }
        }
    }

    /// Mutations not yet reflected in the published epoch.
    pub(crate) fn pending(&self) -> u64 {
        self.seq - self.applied_seq
    }

    /// The hottest per-tree dirty count.
    pub(crate) fn max_dirty(&self) -> u32 {
        self.dirty.iter().copied().max().unwrap_or(0)
    }

    /// Whether the builder should start (or re-run) a rebuild: there is
    /// pending work and either a flush forced it or an amortization
    /// threshold (per-tree dirty count, global pending cap) tripped.
    pub(crate) fn rebuild_due(&self, dirty_threshold: u32, max_pending: u64) -> bool {
        self.pending() > 0
            && (self.force || self.max_dirty() >= dirty_threshold || self.pending() >= max_pending)
    }

    /// Forces the next rebuild regardless of thresholds (`flush`).
    pub(crate) fn request_flush(&mut self) {
        self.force = true;
    }

    /// Cuts the log for a rebuild: snapshots the live point set in
    /// ascending external-id order and marks the builder busy.
    pub(crate) fn cut(&mut self) -> BuildCut {
        self.building = true;
        let points = self
            .coords
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                c.as_ref().map(|coords| CutPoint {
                    ext: i as u32,
                    coords: coords.clone(),
                })
            })
            .collect();
        BuildCut {
            points,
            seq: self.seq,
        }
    }

    /// Commits a successful rebuild: the published epoch now covers
    /// `cut_seq`, the dirty counters restart over the new epoch's
    /// `tree_count` trees (mutations that raced the build re-count
    /// toward the next threshold via `pending()`), and the rebuild
    /// wall time is recorded for tail-latency telemetry.
    pub(crate) fn commit(&mut self, cut_seq: u64, tree_count: usize, nanos: u64) {
        self.applied_seq = cut_seq;
        self.dirty = vec![0; tree_count];
        self.building = false;
        self.rebuild_nanos.push(nanos);
        // A flush stays in force until everything it saw is applied.
        self.force = self.applied_seq != self.seq && self.force;
    }

    /// Records a failed (contained) rebuild attempt; the previous epoch
    /// stays published and the pending log is untouched.
    pub(crate) fn abort_build(&mut self) {
        self.building = false;
        self.failed_rebuilds += 1;
    }

    /// Rebuild attempts that failed so far.
    pub(crate) fn failed_rebuilds(&self) -> u64 {
        self.failed_rebuilds
    }

    /// Whether every accepted mutation is reflected in the published
    /// epoch (the `flush` condition).
    pub(crate) fn drained(&self) -> bool {
        self.applied_seq == self.seq && !self.building
    }

    /// Arms the chaos knob: the next `n` rebuild attempts panic.
    pub(crate) fn arm_rebuild_failures(&mut self, n: u32) {
        self.fail_rebuilds = n;
    }

    /// Consumes one armed rebuild failure, if any.
    pub(crate) fn take_fail_token(&mut self) -> bool {
        if self.fail_rebuilds > 0 {
            self.fail_rebuilds -= 1;
            true
        } else {
            false
        }
    }

    /// Requests builder shutdown (called from `Drop`).
    pub(crate) fn request_shutdown(&mut self) {
        self.shutdown = true;
    }

    /// Whether shutdown was requested.
    pub(crate) fn shutdown_requested(&self) -> bool {
        self.shutdown
    }

    /// Drains the recorded rebuild wall times (nanoseconds).
    pub(crate) fn drain_rebuild_nanos(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.rebuild_nanos)
    }
}
