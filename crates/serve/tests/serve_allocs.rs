//! Zero-allocation guarantee of the steady-state serve path.
//!
//! Unlike `tests/query_allocs.rs` at the workspace root (per-thread
//! counters), this installs a **process-global** counting allocator:
//! the shard workers are separate threads, and the contract is that
//! the *whole process* performs zero heap allocations per served
//! query once warm — submit, enqueue, batch, execute, answer copy,
//! slot release, all of it. This file holds a single test so no
//! concurrent libtest thread can pollute the global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hopspan_metric::gen;
use hopspan_serve::{BackendParams, FaultSet, Op, ServeConfig, ShardedNavigator};
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

/// One sweep of the three query opcodes over a deterministic pair set.
fn sweep(engine: &ShardedNavigator, out: &mut Vec<usize>) {
    let faults = FaultSet::new(&[7]).expect("one fault fits");
    for u in 0..N as u32 {
        let v = (u + 13) % N as u32;
        if u == v {
            continue;
        }
        engine
            .call(Op::FindPath { u, v }, out)
            .expect("find_path serves");
        engine.call(Op::Route { u, v }, out).expect("route serves");
        if u != 7 && v != 7 {
            engine
                .call(Op::RouteAvoiding { u, v, faults }, out)
                .expect("route_avoiding serves");
        }
    }
}

#[test]
fn steady_state_serving_does_not_allocate() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x00A1_10C5);
    let points = gen::uniform_points(N, 2, &mut rng);
    let engine = ShardedNavigator::replicated(
        &points,
        &BackendParams::default(),
        ServeConfig {
            shards: 2,
            workers_per_shard: 1,
            max_batch: 8,
            queue_depth: 8,
            ..ServeConfig::default()
        },
    )
    .expect("engine starts");

    let mut out = Vec::new();
    // Warm-up: grow every reusable buffer (queue rings, slot path
    // buffers, worker scratch, the caller's out vector) to steady
    // state.
    for _ in 0..3 {
        sweep(&engine, &mut out);
    }

    let before = ALLOC_EVENTS.load(Ordering::Relaxed);
    sweep(&engine, &mut out);
    sweep(&engine, &mut out);
    let events = ALLOC_EVENTS.load(Ordering::Relaxed) - before;
    assert_eq!(
        events, 0,
        "steady-state serving must not allocate anywhere in the process"
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
