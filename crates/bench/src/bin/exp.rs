//! Runs the experiment suite (DESIGN.md §3).
//!
//! ```text
//! cargo run -p hopspan-bench --release --bin exp -- E22 E24   # print those sections
//! cargo run -p hopspan-bench --release --bin exp -- all [out.md]  # regenerate EXPERIMENTS.md
//! ```
//!
//! `HOPSPAN_SMOKE=1` shrinks E22–E27 to their smoke sizes and
//! `HOPSPAN_BENCH_DIR` names the directory their `BENCH_*.json` files
//! go to (default: the workspace root).

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::process::ExitCode;

use hopspan_bench::experiments::{all, Experiment};

/// System allocator wrapper that counts allocation events and live
/// bytes into the `hopspan_bench::allocs` hooks. E22 and E24 report
/// allocation *events* per query, the metric the zero-alloc query and
/// serving paths are judged by; E25 reports the live bytes a navigator
/// retains.
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter updates are relaxed
// atomic adds and cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        hopspan_bench::allocs::record();
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            hopspan_bench::allocs::resize(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        hopspan_bench::allocs::resize(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        hopspan_bench::allocs::record();
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            hopspan_bench::allocs::resize(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiments = all();
    if args.first().map(String::as_str) == Some("all") {
        regenerate(
            &experiments,
            args.get(1).map_or("EXPERIMENTS.md", String::as_str),
        );
        return ExitCode::SUCCESS;
    }
    // Resolve every id before running anything, so a typo fails fast.
    let mut chosen = Vec::new();
    for arg in &args {
        match experiments.iter().find(|(id, _, _)| id == arg) {
            Some(e) => chosen.push(e),
            None => return usage(&experiments, &format!("unknown experiment `{arg}`")),
        }
    }
    if chosen.is_empty() {
        return usage(&experiments, "no experiment given");
    }
    for (id, title, run) in chosen {
        println!("## {id}: {title}\n");
        println!("{}", run());
    }
    ExitCode::SUCCESS
}

fn usage(experiments: &[Experiment], problem: &str) -> ExitCode {
    let ids: Vec<&str> = experiments.iter().map(|(id, _, _)| *id).collect();
    eprintln!(
        "exp: {problem}\nusage: exp <id>... | exp all [out.md]\nvalid ids: {}",
        ids.join(" ")
    );
    ExitCode::FAILURE
}

/// Regenerates EXPERIMENTS.md from the full experiment suite.
fn regenerate(experiments: &[Experiment], out_path: &str) {
    let mut doc = String::new();
    doc.push_str(
        "# EXPERIMENTS — paper vs. measured\n\n\
         Generated by `cargo run -p hopspan-bench --release --bin exp -- all`.\n\n\
         The paper (PODC'22) is a theory contribution: its \"tables and\n\
         figures\" are guarantee tables and construction illustrations, not\n\
         measurements. Each experiment below regenerates the corresponding\n\
         artifact empirically and records whether the *shape* of the claim\n\
         (who wins, growth rate, bounds respected) holds. The per-experiment\n\
         index mapping artifacts → modules → experiment ids is DESIGN.md §3.\n\n\
         All runs are deterministic (fixed seeds). Absolute times are from\n\
         one laptop-class container and only ratios matter.\n",
    );
    for (id, title, run) in experiments {
        eprintln!("running {id}: {title}…");
        let (body, took) = hopspan_bench::time(run);
        writeln!(
            doc,
            "\n## {id}: {title}\n\n{body}\n*({} ms)*\n",
            hopspan_bench::ms(took)
        )
        .unwrap();
    }
    std::fs::write(out_path, &doc).expect("write experiments file");
    eprintln!("wrote {out_path}");
}
