//! Benchmark and experiment harness for the `hopspan` workspace.
//!
//! Every table and figure-shaped artifact of the paper maps to one
//! experiment function in [`experiments`] (the E1–E27 index of
//! DESIGN.md §3). Each function measures the relevant quantities and
//! returns a markdown section. The `exp` binary runs them: `exp E22 E24`
//! prints those sections and `exp all` regenerates `EXPERIMENTS.md`.
//! The systems experiments E22–E27 share their output path through
//! [`report`].

#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;

use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The fixed seed used across experiments (determinism).
pub const SEED: u64 = 0x20260706;

/// A deterministic RNG for experiment `tag`.
pub fn rng(tag: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(SEED ^ tag)
}

/// Times a closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Renders a markdown table.
pub fn md_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&headers.join(" | "));
    out.push_str(" |\n|");
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

/// Formats a duration in ms with 2 decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Heap-allocation counting hook for the allocs-per-query columns of
/// E22 and E24. The library installs no allocator; the `exp` binary
/// wraps the system allocator and calls [`allocs::record`] on every
/// allocation.
pub mod allocs {
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNT: AtomicU64 = AtomicU64::new(0);

    /// Called by a wrapping global allocator on every `alloc`/`realloc`.
    #[inline]
    pub fn record() {
        COUNT.fetch_add(1, Ordering::Relaxed);
    }

    /// Total allocations recorded so far.
    #[inline]
    pub fn count() -> u64 {
        COUNT.load(Ordering::Relaxed)
    }
}
