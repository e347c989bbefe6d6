//! Cross-process determinism of the serve layer: shard dispatch and
//! served outcomes must be bit-identical for any `HOPSPAN_WORKERS`
//! setting and across process runs. Shard assignment uses seed-stable
//! FNV-1a (not `DefaultHasher`, which is randomly keyed per process),
//! so two processes — or two machines — given the same point id and
//! shard count must always agree on the owning shard; and because
//! every shard holds a bit-identical replica, the *answers* must not
//! depend on shard count, worker count, or batching either.
//!
//! Same harness as `degraded_determinism.rs`: the parent re-executes
//! its own binary with `HOPSPAN_DETERMINISM_CHILD` set and compares
//! FNV-1a hashes printed on marker lines by children pinned to
//! `HOPSPAN_WORKERS ∈ {1, 4, 64}`.

use std::process::Command;

use hopspan::metric::gen;
use hopspan::serve::{
    shard_of_point, BackendParams, FaultSet, Op, QueryOutcome, ServeConfig, ShardedNavigator,
};
use hopspan::store::fnv1a;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const CHILD_ENV: &str = "HOPSPAN_DETERMINISM_CHILD";
const HASH_MARKER: &str = "HOPSPAN_SERVE_HASH=";

const N: usize = 64;

/// Canonical serialization of (a) the shard-dispatch table for every
/// point under every sweep shard count, and (b) every served outcome
/// over a fixed pair sweep through a batched multi-shard engine.
/// Stretches go through `f64::to_bits` so the hash witnesses
/// bit-identical floats.
fn serialize_outcomes() -> String {
    let mut out = String::new();

    // (a) Dispatch table: pure function of (point, shards).
    for shards in [1usize, 2, 4, 8] {
        for p in 0..N as u32 {
            out.push_str(&format!("S {shards} {p} {}\n", shard_of_point(p, shards)));
        }
    }

    // (b) Served outcomes through a real batched engine.
    let mut rng = ChaCha8Rng::seed_from_u64(0x5E4E_DE7E);
    let points = gen::uniform_points(N, 2, &mut rng);
    let engine = ShardedNavigator::replicated(
        &points,
        &BackendParams::default(),
        ServeConfig {
            shards: 4,
            workers_per_shard: 2,
            max_batch: 8,
            queue_depth: 32,
            ..ServeConfig::default()
        },
    )
    .expect("seeded engine starts");
    let faults = FaultSet::new(&[5]).expect("one fault fits");
    let mut path = Vec::new();
    for u in 0..N as u32 {
        for v in ((u + 1)..N as u32).step_by(9) {
            for op in [
                Op::FindPath { u, v },
                Op::Route { u, v },
                Op::RouteAvoiding { u, v, faults },
            ] {
                if matches!(op, Op::RouteAvoiding { .. }) && (u == 5 || v == 5) {
                    continue;
                }
                match engine.call(op, &mut path) {
                    Ok(QueryOutcome::Full) => {
                        out.push_str(&format!("F {} {u} {v} {path:?}\n", op.opcode()));
                    }
                    Ok(QueryOutcome::Degraded {
                        reason,
                        achieved_stretch,
                    }) => {
                        out.push_str(&format!(
                            "D {} {u} {v} {path:?} {reason:?} {:016x}\n",
                            op.opcode(),
                            achieved_stretch.to_bits()
                        ));
                    }
                    Ok(QueryOutcome::Stats) | Ok(QueryOutcome::Mutation { .. }) => {
                        out.push_str("unreachable\n")
                    }
                    Err(e) => out.push_str(&format!("E {} {u} {v} {e}\n", op.opcode())),
                }
            }
        }
    }
    out
}

#[test]
fn served_outcomes_are_stable_across_workers_and_processes() {
    let serialized = serialize_outcomes();
    let local_hash = fnv1a(serialized.as_bytes());

    if std::env::var(CHILD_ENV).is_ok() {
        println!("{HASH_MARKER}{local_hash:016x}");
        return;
    }

    assert!(
        serialized.lines().any(|l| l.starts_with('F')),
        "the fixture must exercise full served answers:\n{serialized}"
    );

    let exe = std::env::current_exe().expect("test binary path");
    for workers in [1usize, 4, 64] {
        let output = Command::new(&exe)
            .args([
                "served_outcomes_are_stable_across_workers_and_processes",
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
            "served outcomes differ between this process and a child \
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
