//! Retained-heap bound of the fault-tolerant spanner.
//!
//! Installs a process-wide live-bytes counting allocator and measures
//! what `FaultTolerantSpanner::new` keeps on the heap once it returns,
//! per distinct cover tree, and the peak of live bytes while it builds.
//! The build allocates on worker threads, so
//! the counter is one process-wide atomic rather than the per-thread
//! counters of `query_allocs.rs`; this file is its own test binary with
//! a single test, so nothing else allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use hopspan::core::FaultTolerantSpanner;
use hopspan::metric::gen;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The most `LIVE` has reached since it was last reset.
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Adds `delta` to the live bytes and raises the peak to match.
fn grow(delta: isize) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// System allocator wrapper tracking live bytes.
struct LiveBytes;

// SAFETY: defers entirely to `System`; the counter is a lock-free
// atomic update and cannot re-enter the allocator.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grow(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

#[test]
fn ft_spanner_retains_at_most_15_kb_per_tree() {
    let points = gen::clustered_points(48, 2, 4, 0.02, &mut ChaCha8Rng::seed_from_u64(0));
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let sp = FaultTolerantSpanner::new(&points, 0.5, 1, 3).unwrap();
    let retained = LIVE.load(Ordering::Relaxed) - before;
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let trees = sp.tree_count();
    // 86 since each level's pairing cover is one first-fit colouring of
    // unordered near pairs (170 with one partition class per pair set
    // and both orientations of every pair).
    assert_eq!(trees, 86, "distinct tree count of this instance");
    let per_tree = retained as f64 / trees as f64;
    eprintln!(
        "ft_memory: {trees} trees, {retained} B retained, {:.1} KB per tree, \
         {peak} B peak during the build",
        per_tree / 1024.0
    );
    // ≈1.25× the 11.8 KB measured.
    assert!(
        per_tree <= 15.0 * 1024.0,
        "FT spanner retains {:.1} KB per tree (bound 15 KB)",
        per_tree / 1024.0
    );
    // ≈1.24× the 1,268,498 B measured. At this size the peak falls
    // after the cover trees are consumed, so it does not move with
    // their per-tree tables.
    assert!(
        peak <= 1536 * 1024,
        "FT build peaks at {peak} B of live heap (bound 1.5 MiB)"
    );
}
