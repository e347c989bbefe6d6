//! The shared parallel preprocessing pipeline and its build telemetry.
//!
//! Every navigator-like constructor in the workspace — the metric
//! navigator, the fault-tolerant spanner, and both routing
//! preprocessors — spends almost all of its build time in per-tree work
//! (one Theorem 1.1 spanner per cover tree) that is embarrassingly
//! parallel. This crate centralizes that fan-out:
//!
//! * [`parallel_map`] / [`parallel_map_owned`] — order-preserving maps
//!   over a work list on `std::thread::scope` workers. Slot `i` of the
//!   output always holds `f(i, items[i])`, so downstream merges (edge
//!   dedup, overlay assembly) see the same sequence regardless of worker
//!   count — parallel builds are bit-identical to sequential ones.
//! * [`try_parallel_map`] / [`try_parallel_map_owned`] — panic-contained
//!   variants: every work unit runs under `catch_unwind`, a panicking
//!   unit is retried once on the calling thread (deterministically, in
//!   unit order), and a persistent failure surfaces as a structured
//!   [`PipelineError`] naming the failing unit instead of unwinding
//!   through `thread::scope` and aborting the build.
//! * [`resolve_workers`] / [`auto_workers`] — worker-count selection:
//!   an explicit request wins, then the `HOPSPAN_WORKERS` environment
//!   variable, then [`std::thread::available_parallelism`].
//! * [`lock_resilient`], [`wait_resilient`], [`read_resilient`] and
//!   [`write_resilient`] — the workspace's one set of poison-adopting
//!   lock acquires, shared by this crate, `hopspan-dynamic` and
//!   `hopspan-serve`.
//! * [`BuildStats`] — per-phase wall times, per-tree spanner sizes and
//!   edge-dedup counters, threaded through cover → spanner →
//!   materialization and printed by the experiment binaries.
//!
//! No worker pool outlives a call: workers are scoped threads, so
//! borrowed inputs (the metric, the net hierarchy) need no `'static`
//! bound and no reference counting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::{Duration, Instant};

/// A contained failure of the parallel pipeline: work unit `unit` (the
/// tree index in the per-tree fan-outs) panicked, and — for the borrowed
/// variants — its deterministic same-thread retry panicked again.
///
/// With several failing units, the error always reports the lowest unit
/// index, so the outcome is identical for every worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct PipelineError {
    /// Index of the failing work unit.
    pub unit: usize,
    /// The panic payload rendered to text (`&str`/`String` payloads are
    /// quoted verbatim; anything else becomes a placeholder).
    pub message: String,
    /// Whether the unit was retried on the calling thread before the
    /// failure was reported (`false` for the owned variant, whose items
    /// are consumed by the first attempt).
    pub retried: bool,
    /// The unit whose panic poisoned the shared result-slot mutex, when
    /// that happened — recorded instead of silently clearing the poison.
    pub poisoned_by: Option<usize>,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pipeline work unit {} panicked", self.unit)?;
        if self.retried {
            write!(f, " (and its same-thread retry panicked again)")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(p) = self.poisoned_by {
            write!(f, "; unit {p} poisoned the result-slot mutex")?;
        }
        Ok(())
    }
}

impl std::error::Error for PipelineError {}

/// Renders a caught panic payload for [`PipelineError::message`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Environment variable overriding the automatic worker count.
pub const WORKERS_ENV: &str = "HOPSPAN_WORKERS";

/// The automatic worker count: `HOPSPAN_WORKERS` when set to a positive
/// integer, otherwise [`std::thread::available_parallelism`] (1 when
/// unavailable).
pub fn auto_workers() -> usize {
    if let Ok(s) = std::env::var(WORKERS_ENV) {
        if let Ok(k) = s.trim().parse::<usize>() {
            if k >= 1 {
                return k;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1)
}

/// Resolves a worker request: `Some(k)` pins `k ≥ 1` workers (0 is
/// treated as 1), `None` defers to [`auto_workers`].
pub fn resolve_workers(requested: Option<usize>) -> usize {
    match requested {
        Some(k) => k.max(1),
        None => auto_workers(),
    }
}

/// Maps `f` over `items` on up to `workers` scoped threads, returning
/// the results in input order (`out[i] = f(i, &items[i])`).
///
/// Work is claimed dynamically (an atomic cursor), so uneven per-item
/// costs balance across workers; the output order is positional, never
/// completion order. With `workers <= 1` or fewer than two items the map
/// runs inline on the calling thread — the results are identical either
/// way, only the wall time differs.
pub fn parallel_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    match try_parallel_map(workers, items, f) {
        Ok(out) => out,
        // hopspan:allow(panic-in-lib) -- legacy untyped API: re-raise the contained worker panic for callers that did not opt into PipelineError
        Err(e) => panic!("{e}"),
    }
}

/// Panic-contained [`parallel_map`]: every work unit runs under
/// `catch_unwind`. A unit that panics on a worker thread is retried
/// exactly once on the calling thread after all workers have joined;
/// retries run in ascending unit order, so the first persistently
/// failing unit is the one reported and the outcome is identical for
/// every worker count. Successful results are returned in input order,
/// exactly like [`parallel_map`].
///
/// # Errors
///
/// Returns a [`PipelineError`] naming the lowest-indexed unit whose
/// work panicked on both the worker thread and the same-thread retry.
pub fn try_parallel_map<T, R, F>(workers: usize, items: &[T], f: F) -> Result<Vec<R>, PipelineError>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if workers <= 1 || n < 2 {
        let mut out = Vec::with_capacity(n);
        for (i, t) in items.iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(|| f(i, t))) {
                Ok(r) => out.push(r),
                // Deterministic same-thread retry: transient failures
                // (e.g. environmental) get one more chance before the
                // unit is reported.
                Err(_first) => match catch_unwind(AssertUnwindSafe(|| f(i, t))) {
                    Ok(r) => out.push(r),
                    Err(payload) => {
                        return Err(PipelineError {
                            unit: i,
                            message: panic_message(payload.as_ref()),
                            retried: true,
                            poisoned_by: None,
                        })
                    }
                },
            }
        }
        return Ok(out);
    }
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(n, || None);
    let slots = Mutex::new(&mut out);
    // Failed units, recorded for the post-join retry pass; claim order
    // is nondeterministic, so the list is sorted before retrying.
    let failed: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    // Unit whose panic poisoned `slots` (stored as unit + 1; 0 = none).
    let poisoner = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // The slot write happens inside the contained closure, so
                // a panic while holding the slot mutex is caught here and
                // attributed below instead of tearing down the scope.
                let unit = catch_unwind(AssertUnwindSafe(|| {
                    let r = f(i, &items[i]);
                    lock_resilient(&slots)[i] = Some(r);
                }));
                if unit.is_err() {
                    if slots.is_poisoned() {
                        // Record which unit poisoned the slot mutex
                        // (first poisoner wins) instead of clearing the
                        // poison silently.
                        poisoner
                            .compare_exchange(0, i + 1, Ordering::SeqCst, Ordering::SeqCst)
                            .ok();
                    }
                    lock_resilient(&failed).push(i);
                }
            });
        }
    });
    let poisoned_by = match poisoner.load(Ordering::SeqCst) {
        0 => None,
        p => Some(p - 1),
    };
    let mut failed = failed
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    failed.sort_unstable();
    for i in failed {
        match catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))) {
            Ok(r) => out[i] = Some(r),
            Err(payload) => {
                return Err(PipelineError {
                    unit: i,
                    message: panic_message(payload.as_ref()),
                    retried: true,
                    poisoned_by,
                })
            }
        }
    }
    Ok(out
        .into_iter()
        // hopspan:allow(panic-in-lib) -- every slot was written by a joined worker or the retry pass above
        .map(|r| r.expect("every slot filled"))
        .collect())
}

/// Acquires a mutex, adopting poison instead of panicking.
///
/// Sound only where every write under the lock is panic-atomic, so the
/// data a dead holder left behind is still coherent; each caller states
/// why that holds for its lock. In this crate the protected data is an
/// index-addressed slot vector (or a failure list) that stays
/// consistent even if a sibling worker panicked while holding the lock.
/// The panicking unit is attributed by the caller (see `poisoner` in
/// [`try_parallel_map`]) and surfaced through
/// [`PipelineError::poisoned_by`]; this helper only recovers the guard.
pub fn lock_resilient<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] that adopts a poisoned mutex instead of propagating
/// the poison; the same soundness condition as [`lock_resilient`].
pub fn wait_resilient<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Acquires a read lock, adopting poison; the same soundness condition
/// as [`lock_resilient`].
pub fn read_resilient<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Acquires a write lock, adopting poison; the same soundness condition
/// as [`lock_resilient`].
pub fn write_resilient<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Like [`parallel_map`] but consumes the items, for per-item work that
/// needs ownership (e.g. `NavTree::new` swallowing its dominating tree).
/// Order-preserving: `out[i] = f(i, items[i])`.
pub fn parallel_map_owned<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    match try_parallel_map_owned(workers, items, f) {
        Ok(out) => out,
        // hopspan:allow(panic-in-lib) -- legacy untyped API: re-raise the contained worker panic for callers that did not opt into PipelineError
        Err(e) => panic!("{e}"),
    }
}

/// Panic-contained [`parallel_map_owned`]. Unlike [`try_parallel_map`]
/// there is no retry: the failed call consumed its item, so the unit is
/// reported immediately (`retried = false`). With several failing units
/// the lowest index is reported, for worker-count independence.
///
/// # Errors
///
/// Returns a [`PipelineError`] naming the lowest-indexed unit whose
/// work panicked.
pub fn try_parallel_map_owned<T, R, F>(
    workers: usize,
    items: Vec<T>,
    f: F,
) -> Result<Vec<R>, PipelineError>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if workers <= 1 || n < 2 {
        let mut out = Vec::with_capacity(n);
        for (i, t) in items.into_iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(|| f(i, t))) {
                Ok(r) => out.push(r),
                Err(payload) => {
                    return Err(PipelineError {
                        unit: i,
                        message: panic_message(payload.as_ref()),
                        retried: false,
                        poisoned_by: None,
                    })
                }
            }
        }
        return Ok(out);
    }
    let input: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(n, || None);
    let slots = Mutex::new(&mut out);
    let failed: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    let poisoner = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let unit = catch_unwind(AssertUnwindSafe(|| {
                    let item = lock_resilient(&input[i])
                        .take()
                        // hopspan:allow(panic-in-lib) -- the atomic counter hands each index to exactly one worker
                        .expect("each index claimed once");
                    let r = f(i, item);
                    lock_resilient(&slots)[i] = Some(r);
                }));
                if let Err(payload) = unit {
                    if slots.is_poisoned() || input[i].is_poisoned() {
                        poisoner
                            .compare_exchange(0, i + 1, Ordering::SeqCst, Ordering::SeqCst)
                            .ok();
                    }
                    lock_resilient(&failed).push((i, panic_message(payload.as_ref())));
                }
            });
        }
    });
    let poisoned_by = match poisoner.load(Ordering::SeqCst) {
        0 => None,
        p => Some(p - 1),
    };
    let mut failed = failed
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some((unit, message)) = {
        failed.sort_unstable_by_key(|a| a.0);
        failed.into_iter().next()
    } {
        return Err(PipelineError {
            unit,
            message,
            retried: false,
            poisoned_by,
        });
    }
    Ok(out
        .into_iter()
        // hopspan:allow(panic-in-lib) -- the scope joins all workers and no unit failed, so every slot was written
        .map(|r| r.expect("every slot filled"))
        .collect())
}

/// The worst `(stretch, hops)` over the source rows `0..n` of an
/// all-pairs measurement: `row(u)` returns row `u`'s own maxima and runs
/// on the automatic worker pool through [`try_parallel_map`]; the rows
/// are max-folded in row order from `(1.0, 0)`, so the result is
/// identical for every worker count.
///
/// # Errors
///
/// The lowest failing row's error, or the contained worker panic.
pub fn max_over_rows<E, F>(n: usize, row: F) -> Result<(f64, usize), E>
where
    E: From<PipelineError> + Send,
    F: Fn(usize) -> Result<(f64, usize), E> + Sync,
{
    let rows: Vec<usize> = (0..n).collect();
    let mut worst = (1.0f64, 0usize);
    for r in try_parallel_map(resolve_workers(None), &rows, |_, &u| row(u))? {
        let (w, h) = r?;
        worst = (worst.0.max(w), worst.1.max(h));
    }
    Ok(worst)
}

/// One timed phase of a build.
#[derive(Debug, Clone)]
pub struct PhaseStat {
    /// Phase name (`"cover/nets"`, `"spanners"`, `"materialize"`, …).
    pub name: String,
    /// Wall time spent in the phase.
    pub duration: Duration,
}

/// Build telemetry for the preprocessing pipeline: phase wall times,
/// per-tree spanner sizes, worker count and edge-dedup counters.
///
/// Constructors with a `_with_stats` variant return one of these next to
/// the built structure; the experiment binaries print
/// [`BuildStats::summary`].
#[derive(Debug, Clone, Default)]
pub struct BuildStats {
    /// Worker threads used for the per-tree fan-out.
    pub workers: usize,
    /// Number of cover trees processed.
    pub tree_count: usize,
    /// Tree-spanner edge count per cover tree, in tree order.
    pub per_tree_spanner_edges: Vec<usize>,
    /// Materialized edge instances before deduplication (every tree
    /// contributes each of its point pairs once; bicliques count every
    /// candidate pair).
    pub edge_instances: usize,
    /// Distinct point edges after deduplication.
    pub edges_after_dedup: usize,
    /// True when an in-process `hopspan-lint` run over the workspace
    /// reported zero findings for the source tree this binary was built
    /// from. Stamped by the E21 experiment runner so recorded telemetry
    /// certifies the tree it was measured on; plain builds leave the
    /// default `false` ("not checked"). A workspace-level stamp, so
    /// [`BuildStats::absorb`] deliberately does not fold it.
    pub lint_clean: bool,
    phases: Vec<PhaseStat>,
}

impl BuildStats {
    /// Fresh stats for a build running on `workers` threads.
    pub fn new(workers: usize) -> Self {
        BuildStats {
            workers,
            ..Default::default()
        }
    }

    /// Runs `f` and records its wall time as phase `name`.
    pub fn phase<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.record_phase(name, start.elapsed());
        r
    }

    /// Records an externally measured phase.
    pub fn record_phase(&mut self, name: &str, duration: Duration) {
        self.phases.push(PhaseStat {
            name: name.to_string(),
            duration,
        });
    }

    /// The recorded phases, in execution order.
    pub fn phases(&self) -> &[PhaseStat] {
        &self.phases
    }

    /// Total wall time of phase `name`, if recorded.
    pub fn phase_duration(&self, name: &str) -> Option<Duration> {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.duration)
    }

    /// Sum of all recorded phase times.
    pub fn total_duration(&self) -> Duration {
        self.phases.iter().map(|p| p.duration).sum()
    }

    /// Sum of the per-tree spanner edge counts.
    pub fn spanner_edge_total(&self) -> usize {
        self.per_tree_spanner_edges.iter().sum()
    }

    /// Instances-per-kept-edge ratio of the dedup step (≥ 1 when any
    /// edge was kept; 0 for empty builds).
    pub fn dedup_ratio(&self) -> f64 {
        if self.edges_after_dedup == 0 {
            0.0
        } else {
            self.edge_instances as f64 / self.edges_after_dedup as f64
        }
    }

    /// Folds a sub-build's stats into this one: its phases are appended
    /// under `prefix/` (or verbatim for an empty prefix) and its
    /// tree/edge counters are added.
    pub fn absorb(&mut self, prefix: &str, other: BuildStats) {
        for p in other.phases {
            let name = if prefix.is_empty() {
                p.name
            } else {
                format!("{prefix}/{}", p.name)
            };
            self.phases.push(PhaseStat {
                name,
                duration: p.duration,
            });
        }
        self.tree_count += other.tree_count;
        self.per_tree_spanner_edges
            .extend(other.per_tree_spanner_edges);
        self.edge_instances += other.edge_instances;
        self.edges_after_dedup += other.edges_after_dedup;
    }

    /// A compact human-readable report (one line per phase plus one
    /// counter line), used by the experiment binaries.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for p in &self.phases {
            out.push_str(&format!(
                "  {:<18} {:>9.2} ms\n",
                p.name,
                p.duration.as_secs_f64() * 1e3
            ));
        }
        out.push_str(&format!(
            "  workers={} trees={} tree-spanner edges={} edge instances={} after dedup={} (x{:.2}) lint_clean={}\n",
            self.workers,
            self.tree_count,
            self.spanner_edge_total(),
            self.edge_instances,
            self.edges_after_dedup,
            self.dedup_ratio(),
            self.lint_clean
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        for workers in [1usize, 2, 4, 7] {
            let out = parallel_map(workers, &items, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_owned_preserves_order() {
        let items: Vec<String> = (0..50).map(|i| i.to_string()).collect();
        for workers in [1usize, 3, 16] {
            let out = parallel_map_owned(workers, items.clone(), |i, s| format!("{i}:{s}"));
            assert_eq!(out, (0..50).map(|i| format!("{i}:{i}")).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_equals_sequential_on_uneven_work() {
        let items: Vec<u64> = (0..40).map(|i| (i * 2654435761) % 97).collect();
        let slow_square = |_: usize, &x: &u64| {
            // Uneven busy work so completion order differs from index order.
            let mut acc = 0u64;
            for k in 0..(x * 50) {
                acc = acc.wrapping_add(k ^ x);
            }
            (x * x, acc)
        };
        let seq = parallel_map(1, &items, slow_square);
        let par = parallel_map(8, &items, slow_square);
        assert_eq!(seq, par);
    }

    /// Runs `f` with the default panic hook silenced, so intentionally
    /// injected panics do not spam test output. The hook is process
    /// global; the mutex serializes hook swaps across tests.
    fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        static HOOK: Mutex<()> = Mutex::new(());
        let _guard = HOOK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let old = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(old);
        r
    }

    #[test]
    fn transient_panic_is_retried_on_the_calling_thread() {
        let items: Vec<usize> = (0..20).collect();
        for workers in [1usize, 4] {
            let attempts: Vec<AtomicUsize> = (0..20).map(|_| AtomicUsize::new(0)).collect();
            let out = quiet_panics(|| {
                try_parallel_map(workers, &items, |i, &x| {
                    if i == 7 && attempts[i].fetch_add(1, Ordering::SeqCst) == 0 {
                        panic!("transient failure in unit 7");
                    }
                    x * 2
                })
            })
            .expect("retry should recover the transient failure");
            assert_eq!(out, (0..20).map(|x| x * 2).collect::<Vec<_>>());
            assert_eq!(attempts[7].load(Ordering::SeqCst), 2, "workers={workers}");
        }
    }

    #[test]
    fn persistent_panic_reports_lowest_unit_for_any_worker_count() {
        let items: Vec<usize> = (0..30).collect();
        for workers in [1usize, 2, 8] {
            let err = quiet_panics(|| {
                try_parallel_map(workers, &items, |i, &x| {
                    if i == 23 || i == 11 {
                        panic!("injected failure in unit {i}");
                    }
                    x
                })
            })
            .expect_err("persistent panics must surface");
            assert_eq!(err.unit, 11, "workers={workers}");
            assert!(err.retried);
            assert!(err.message.contains("unit 11"), "got: {}", err.message);
            assert_eq!(err.poisoned_by, None);
            assert!(err.to_string().contains("work unit 11"));
        }
    }

    #[test]
    fn owned_variant_reports_without_retry() {
        let items: Vec<String> = (0..12).map(|i| i.to_string()).collect();
        for workers in [1usize, 4] {
            let err = quiet_panics(|| {
                try_parallel_map_owned(workers, items.clone(), |i, s| {
                    if i == 5 {
                        panic!("cannot build tree {i}");
                    }
                    s
                })
            })
            .expect_err("unit 5 always fails");
            assert_eq!(err.unit, 5, "workers={workers}");
            assert!(!err.retried);
            assert!(err.message.contains("tree 5"));
        }
    }

    #[test]
    fn legacy_api_still_panics_with_the_structured_message() {
        let items: Vec<usize> = (0..8).collect();
        let payload = quiet_panics(|| {
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                parallel_map(4, &items, |i, &x| {
                    if i == 3 {
                        panic!("boom");
                    }
                    x
                })
            }))
        })
        .expect_err("legacy API re-raises");
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("work unit 3"), "got: {msg}");
    }

    #[test]
    fn worker_resolution() {
        assert_eq!(resolve_workers(Some(3)), 3);
        assert_eq!(resolve_workers(Some(0)), 1);
        assert!(resolve_workers(None) >= 1);
        assert!(auto_workers() >= 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = BuildStats::new(4);
        let x = s.phase("alpha", || 17);
        assert_eq!(x, 17);
        s.record_phase("beta", Duration::from_millis(5));
        s.tree_count = 2;
        s.per_tree_spanner_edges = vec![10, 20];
        s.edge_instances = 45;
        s.edges_after_dedup = 25;

        let mut sub = BuildStats::new(4);
        sub.record_phase("gamma", Duration::from_millis(7));
        sub.tree_count = 1;
        sub.per_tree_spanner_edges = vec![5];
        sub.edge_instances = 5;
        sub.edges_after_dedup = 5;
        s.absorb("cover", sub);

        assert_eq!(s.phases().len(), 3);
        assert_eq!(s.phases()[2].name, "cover/gamma");
        assert!(s.phase_duration("beta").is_some());
        assert!(s.phase_duration("cover/gamma").is_some());
        assert_eq!(s.tree_count, 3);
        assert_eq!(s.spanner_edge_total(), 35);
        assert_eq!(s.edges_after_dedup, 30);
        assert!((s.dedup_ratio() - 50.0 / 30.0).abs() < 1e-12);
        assert!(s.total_duration() >= Duration::from_millis(12));
        assert!(s.summary().contains("workers=4"));
    }
}
