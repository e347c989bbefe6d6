//! Zero-allocation guarantee of the *failover* path.
//!
//! The resilience layer must not tax the hot path: health checks are
//! relaxed atomic loads and failover re-routing is a stack FNV-1a hash
//! plus an index scan. This installs the same process-global counting
//! allocator as `serve_allocs.rs` and proves that serving with a shard
//! `Down` — every query owned by it re-routed to a replica — performs
//! zero heap allocations per query once warm. One test per file so no
//! concurrent libtest thread can pollute the global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hopspan_metric::gen;
use hopspan_serve::{BackendParams, Op, ServeConfig, ShardHealth, ShardedNavigator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Allocation events (alloc + realloc) across *all* threads.
static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper counting allocation events globally.
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic
// increment and cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const N: usize = 64;

/// One sweep over every point — queries owned by the Down shard ride
/// the failover re-route, the rest take the ordinary path.
fn sweep(engine: &ShardedNavigator, out: &mut Vec<usize>) {
    for u in 0..N as u32 {
        let v = (u + 13) % N as u32;
        engine
            .call(Op::FindPath { u, v }, out)
            .expect("failover serves");
        engine.call(Op::Route { u, v }, out).expect("route serves");
    }
}

#[test]
fn failover_serving_does_not_allocate() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x00A1_10C6);
    let points = gen::uniform_points(N, 2, &mut rng);
    let engine = ShardedNavigator::replicated(
        &points,
        &BackendParams::default(),
        ServeConfig {
            shards: 4,
            workers_per_shard: 1,
            max_batch: 8,
            queue_depth: 8,
            ..ServeConfig::default()
        },
    )
    .expect("engine starts");

    // Scripted outage: shard 1 is Down for the whole test. It receives
    // no jobs (its traffic re-routes), so no success streak re-admits
    // it behind our back — the failover path stays exercised.
    engine.set_health(1, ShardHealth::Down);

    let mut out = Vec::new();
    // Warm-up: grow every reusable buffer to steady state, on both the
    // ordinary and the re-routed path.
    for _ in 0..3 {
        sweep(&engine, &mut out);
    }
    assert_eq!(
        engine.health(1),
        ShardHealth::Down,
        "the outage must persist"
    );
    assert!(
        engine.snapshot().failovers > 0,
        "the sweep must exercise failover"
    );

    let before = ALLOC_EVENTS.load(Ordering::Relaxed);
    sweep(&engine, &mut out);
    sweep(&engine, &mut out);
    let events = ALLOC_EVENTS.load(Ordering::Relaxed) - before;
    assert_eq!(
        events, 0,
        "failover-path serving must not allocate anywhere in the process"
    );

    // Sanity: the counter is alive — the allocating inline fallback
    // (fresh scratch) must register.
    let before = ALLOC_EVENTS.load(Ordering::Relaxed);
    engine
        .call_inline(Op::FindPath { u: 3, v: 40 }, &mut out)
        .expect("inline call serves");
    let events = ALLOC_EVENTS.load(Ordering::Relaxed) - before;
    assert!(events > 0, "counter failed to observe inline-call allocs");
}
