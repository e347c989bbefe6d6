//! Cross-process determinism of *degraded* deliveries: under
//! `DegradationPolicy::BestEffort` with an over-budget fault set, the
//! returned `FtPath::Degraded` records (path, reason, achieved
//! stretch) must be bit-identical for any `HOPSPAN_WORKERS` setting
//! and across process runs. Degradation is part of the query contract,
//! not a best-effort escape hatch — a worker-count-dependent degraded
//! path would silently break golden-hash reproducibility downstream.
//!
//! Same harness as `determinism.rs`: the parent re-executes its own
//! binary with `HOPSPAN_DETERMINISM_CHILD` set and compares FNV-1a
//! hashes printed on marker lines by children pinned to
//! `HOPSPAN_WORKERS ∈ {1, 4, 64}`.

use std::collections::HashSet;
use std::process::Command;

use hopspan::core::{DegradationPolicy, FaultTolerantSpanner, FtPath};
use hopspan::metric::gen;
use hopspan::store::fnv1a;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const CHILD_ENV: &str = "HOPSPAN_DETERMINISM_CHILD";
const HASH_MARKER: &str = "HOPSPAN_DEGRADED_HASH=";

const N: usize = 48;
const F: usize = 2;

/// The fixed instance every process builds, and the over-budget fault
/// set thrown at it (f + 1 faults against a budget of f).
fn build_instance() -> (
    hopspan::metric::EuclideanSpace,
    FaultTolerantSpanner,
    HashSet<usize>,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(0xDE64_ADE5);
    let m = gen::uniform_points(N, 2, &mut rng);
    let sp = FaultTolerantSpanner::new(&m, 0.25, F, 2).expect("seeded instance builds");
    let faulty: HashSet<usize> = [3usize, 17, 31].into_iter().collect();
    (m, sp, faulty)
}

/// Canonical serialization of every BestEffort outcome over a fixed
/// pair sweep. Stretches go through `f64::to_bits` so the hash
/// witnesses bit-identical floats.
fn serialize_outcomes() -> String {
    let (m, sp, faulty) = build_instance();
    let mut out = String::new();
    for u in 0..N {
        for v in (u + 1)..N {
            if faulty.contains(&u) || faulty.contains(&v) {
                continue;
            }
            match sp.find_path_avoiding_with_policy(
                &m,
                u,
                v,
                &faulty,
                DegradationPolicy::BestEffort,
            ) {
                Ok(FtPath::Full(path)) => {
                    out.push_str(&format!("F {u} {v} {path:?}\n"));
                }
                Ok(FtPath::Degraded {
                    path,
                    reason,
                    achieved_stretch,
                }) => {
                    out.push_str(&format!(
                        "D {u} {v} {path:?} {reason:?} {:016x}\n",
                        achieved_stretch.to_bits()
                    ));
                }
                Err(e) => out.push_str(&format!("E {u} {v} {e}\n")),
            }
        }
    }
    out
}

#[test]
fn degraded_outcomes_are_stable_across_workers_and_processes() {
    let serialized = serialize_outcomes();
    let local_hash = fnv1a(serialized.as_bytes());

    if std::env::var(CHILD_ENV).is_ok() {
        println!("{HASH_MARKER}{local_hash:016x}");
        return;
    }

    assert!(
        serialized.lines().any(|l| l.starts_with('D')),
        "the over-budget fixture must exercise the Degraded arm:\n{serialized}"
    );

    let exe = std::env::current_exe().expect("test binary path");
    for workers in [1usize, 4, 64] {
        let output = Command::new(&exe)
            .args([
                "degraded_outcomes_are_stable_across_workers_and_processes",
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
        assert_eq!(
            child_hash,
            format!("{local_hash:016x}"),
            "degraded outcomes differ between this process and a child \
             with HOPSPAN_WORKERS={workers}; serialization:\n{serialized}"
        );
    }
}

/// Finds `marker` anywhere in the output and returns the token after
/// it (libtest may prefix the line).
fn extract(stdout: &str, marker: &str) -> Option<String> {
    let at = stdout.find(marker)? + marker.len();
    let rest = &stdout[at..];
    let end = rest.find(|c: char| c.is_whitespace()).unwrap_or(rest.len());
    Some(rest[..end].to_string())
}
