//! Cross-process determinism regression: the `H_X` spanner edge list
//! must be bit-identical across worker counts *and* across process
//! runs. In-process equality (see `parallel_pipeline.rs`) would not
//! catch nondeterminism whose order happens to be stable within one
//! address space — e.g. `HashMap` iteration seeded per-process by
//! `RandomState`. This is exactly the property the
//! `nondeterministic-iteration` lint rule (R2) protects: hash-order
//! leaks differ *between* processes, so we hash a canonical
//! serialization of `H_X` in freshly spawned children and compare.
//!
//! The test re-executes its own binary (filtered to this test) with
//! `HOPSPAN_DETERMINISM_CHILD` set; the child builds the navigator with
//! the worker count taken from `HOPSPAN_WORKERS` and prints an
//! FNV-1a hash of the serialized edge list on a marker line. FNV-1a is
//! portable and has no per-process seed, unlike `DefaultHasher`, whose
//! output may legally differ between runs.

use std::process::Command;

use hopspan::core::MetricNavigator;
use hopspan::metric::gen;
use hopspan::store::fnv1a;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const CHILD_ENV: &str = "HOPSPAN_DETERMINISM_CHILD";
const HASH_MARKER: &str = "HOPSPAN_HX_HASH=";
const WORKERS_MARKER: &str = "HOPSPAN_HX_WORKERS=";

/// The fixed instance every process builds: seeded points, so the
/// metric is identical across runs without any serialization.
fn build_navigator() -> (MetricNavigator, usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(0xD37E_2415);
    let m = gen::uniform_points(48, 2, &mut rng);
    let (nav, stats) =
        MetricNavigator::doubling_with_stats(&m, 0.5, 3, None).expect("seeded instance builds");
    (nav, stats.workers)
}

/// Canonical serialization of `H_X`: one `u v bits(w)` line per edge,
/// in stored order. Weights go through `f64::to_bits` so the hash
/// witnesses bit-identical floats, not approximate ones.
fn serialize_edges(nav: &MetricNavigator) -> String {
    let mut out = String::new();
    for &(u, v, w) in nav.spanner_edges() {
        out.push_str(&format!("{u} {v} {:016x}\n", w.to_bits()));
    }
    out
}

#[test]
fn hx_hash_is_stable_across_workers_and_processes() {
    let (nav, _) = build_navigator();
    let serialized = serialize_edges(&nav);
    let local_hash = fnv1a(serialized.as_bytes());

    if std::env::var(CHILD_ENV).is_ok() {
        // Child mode: report and stop — the parent does the comparing.
        let (child_nav, workers) = build_navigator();
        let h = fnv1a(serialize_edges(&child_nav).as_bytes());
        println!("{HASH_MARKER}{h:016x}");
        println!("{WORKERS_MARKER}{workers}");
        return;
    }

    assert!(
        !nav.spanner_edges().is_empty(),
        "the fixture instance must produce a non-trivial spanner"
    );

    let exe = std::env::current_exe().expect("test binary path");
    for workers in [1usize, 2, 5] {
        let output = Command::new(&exe)
            .args([
                "hx_hash_is_stable_across_workers_and_processes",
                "--exact",
                "--nocapture",
            ])
            .env(CHILD_ENV, "1")
            .env(hopspan::pipeline::WORKERS_ENV, workers.to_string())
            .output()
            .expect("re-exec the test binary");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success(),
            "child with {workers} workers failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let child_hash = extract(&stdout, HASH_MARKER)
            .unwrap_or_else(|| panic!("no hash marker in child output:\n{stdout}"));
        let child_workers = extract(&stdout, WORKERS_MARKER)
            .unwrap_or_else(|| panic!("no workers marker in child output:\n{stdout}"));
        assert_eq!(
            child_workers,
            workers.to_string(),
            "child must honour HOPSPAN_WORKERS={workers}"
        );
        assert_eq!(
            child_hash,
            format!("{local_hash:016x}"),
            "H_X hash differs between this process and a child with \
             HOPSPAN_WORKERS={workers}; serialized edge list:\n{serialized}"
        );
    }
}

/// Finds `marker` anywhere in the output and returns the token after
/// it. libtest may print `test <name> ...` on the same line before the
/// child's first `println!`, so markers are not always line-initial.
fn extract(stdout: &str, marker: &str) -> Option<String> {
    let at = stdout.find(marker)? + marker.len();
    let rest = &stdout[at..];
    let end = rest.find(|c: char| c.is_whitespace()).unwrap_or(rest.len());
    Some(rest[..end].to_string())
}
