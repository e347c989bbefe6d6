//! Retained heap of a dynamic navigator: one copy of its navigator.
//!
//! Installs a process-wide live-bytes counting allocator. The epoch
//! builder allocates on its own thread, so the counter is one
//! process-wide atomic; this file is its own test binary with a single
//! test, so nothing else allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::Duration;

use hopspan_core::MetricNavigator;
use hopspan_dynamic::{DynConfig, DynamicNavigator};
use hopspan_metric::EuclideanSpace;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// System allocator wrapper tracking live bytes.
struct LiveBytes;

// SAFETY: defers entirely to `System`; the counter is a lock-free
// atomic update and cannot re-enter the allocator.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
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
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

#[test]
fn dynamic_navigator_retains_one_navigator_copy() {
    const N: usize = 128;
    let mut rng = ChaCha8Rng::seed_from_u64(0x3E3_0001);
    let mut points: Vec<Vec<f64>> = (0..=N)
        .map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()])
        .collect();
    let extra = points.pop().expect("N + 1 points drawn");
    let cfg = DynConfig::default();

    // One navigator over the post-insert live set, built exactly as an
    // epoch is: the unit the engine's retained heap is measured in.
    let mut live = points.clone();
    live.push(extra.clone());
    let before = LIVE.load(Ordering::Relaxed);
    let reference = MetricNavigator::general_budgeted(
        &EuclideanSpace::from_points(&live),
        cfg.tree_budget,
        cfg.k,
        &mut ChaCha8Rng::seed_from_u64(cfg.seed),
    )
    .expect("reference build")
    .0;
    let nav_bytes = LIVE.load(Ordering::Relaxed) - before;
    drop(reference);

    let before = LIVE.load(Ordering::Relaxed);
    let nav = DynamicNavigator::new(&points, cfg).expect("initial build");
    nav.insert(&extra).expect("insert accepted");
    let info = nav.flush();
    assert_eq!(info.published_points, N + 1);
    // `flush` returns once the new epoch is published; give the builder
    // thread a moment to drop its build temporaries and park again.
    std::thread::sleep(Duration::from_millis(100));
    let retained = LIVE.load(Ordering::Relaxed) - before;
    let ratio = retained as f64 / nav_bytes as f64;
    eprintln!("dynamic_memory: navigator {nav_bytes} B, engine retains {retained} B ({ratio:.2}x)");
    assert!(
        ratio <= 1.2,
        "dynamic navigator retains {ratio:.2}x one navigator (bound 1.2x)"
    );
}
