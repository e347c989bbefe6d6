//! Shard-outage scenarios against a live `hopspan-serve` engine: the
//! resilience layer's chaos family. Each scenario scripts a failure —
//! a killed shard, a wedged-slow shard, a flapping shard, a panic
//! after the boot snapshot was damaged on disk — and demands that the
//! engine keeps answering **typed**: full answers through replica
//! failover while a shard is down, never an escaped panic, never a
//! hang, and a respawn that re-attaches the in-memory backend with
//! unchanged answers instead of reading the damaged file.
//!
//! Detail strings are deterministic (counts and scripted parameters
//! only, never timings), so outage scenarios participate in the
//! seed-replayability invariant like every other family.

use std::time::{Duration, Instant};

use hopspan_metric::Metric;
use hopspan_serve::{
    shard_of_point, BackendParams, Op, QueryOutcome, ServeConfig, ServeError, ShardHealth,
    ShardedNavigator,
};
use rand::rngs::Pcg32;
use rand::Rng;

use crate::OutcomeKind;

/// How long a probe waits for asynchronous health machinery (the
/// supervisor thread) before declaring the engine hung.
const PROBE_TIMEOUT: Duration = Duration::from_secs(10);

/// The shard-outage sub-family: each kind scripts one failure shape
/// the serve layer's self-healing must absorb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutageKind {
    /// A shard is forced `Down`; every query it owns must fail over to
    /// a healthy replica and still answer in full contract.
    KillShard,
    /// A shard serves correct answers too slowly; the overrun limit
    /// must demote it and failover must take over.
    SlowShard,
    /// A shard flaps `Down`/`Healthy` across rounds; every round must
    /// answer everything, and recovery must restore ownership.
    Flapping,
    /// The boot snapshot is damaged on disk, then a panic quarantines
    /// a shard: `LoadSnapshot` must refuse the file typed, and the
    /// respawn must re-admit the shard from memory with its answers
    /// unchanged.
    CorruptRespawn,
}

impl OutageKind {
    /// Every outage kind, in campaign order.
    pub const ALL: [OutageKind; 4] = [
        OutageKind::KillShard,
        OutageKind::SlowShard,
        OutageKind::Flapping,
        OutageKind::CorruptRespawn,
    ];

    /// Short stable tag for reports.
    pub fn tag(&self) -> &'static str {
        match self {
            OutageKind::KillShard => "kill-shard",
            OutageKind::SlowShard => "slow-shard",
            OutageKind::Flapping => "flapping",
            OutageKind::CorruptRespawn => "corrupt-respawn",
        }
    }
}

/// The point set every outage probe serves (FindPath-only backends:
/// outage probes never route, mirroring the serve family).
pub(crate) fn outage_points(n: usize, seed: u64) -> hopspan_metric::EuclideanSpace {
    let mut rng = Pcg32::new(seed, 0x07a6);
    hopspan_metric::gen::uniform_points(n, 2, &mut rng)
}

fn outage_params(seed: u64) -> BackendParams {
    BackendParams {
        seed,
        tree_budget: 6,
        k: 2,
        build_router: false,
        build_ft: false,
        ..BackendParams::default()
    }
}

fn engine(
    points: &hopspan_metric::EuclideanSpace,
    seed: u64,
    cfg: ServeConfig,
) -> Result<ShardedNavigator, String> {
    ShardedNavigator::replicated(points, &outage_params(seed), cfg)
        .map_err(|e| format!("outage engine build failed: {e}"))
}

/// Dispatches one outage scenario body.
pub(crate) fn outage_probe(
    points: &hopspan_metric::EuclideanSpace,
    seed: u64,
    kind: OutageKind,
    rng: &mut Pcg32,
) -> (OutcomeKind, String) {
    let result = match kind {
        OutageKind::KillShard => kill_shard_probe(points, seed, rng),
        OutageKind::SlowShard => slow_shard_probe(points, seed, rng),
        OutageKind::Flapping => flapping_probe(points, seed, rng),
        OutageKind::CorruptRespawn => corrupt_respawn_probe(points, seed, rng),
    };
    match result {
        Ok((outcome, detail)) => (outcome, detail),
        Err(detail) => (OutcomeKind::Violation, detail),
    }
}

/// Kill-shard: force one of four replicas `Down`, serve a sweep, and
/// demand full answers everywhere with the exact failover count the
/// ownership table predicts.
fn kill_shard_probe(
    points: &hopspan_metric::EuclideanSpace,
    seed: u64,
    rng: &mut Pcg32,
) -> Result<(OutcomeKind, String), String> {
    let n = points.len();
    let shards = 4usize;
    let eng = engine(
        points,
        seed,
        ServeConfig {
            shards,
            ..ServeConfig::default()
        },
    )?;
    let victim = rng.gen_range(0..shards);
    let queries = 16 + rng.gen_range(0..8u64);
    eng.set_health(victim, ShardHealth::Down);
    let mut out = Vec::new();
    let mut expect_failovers = 0u64;
    for i in 0..queries {
        let u = (i % n as u64) as u32;
        let v = ((u as u64 + 7) % n as u64) as u32;
        if shard_of_point(u, shards) == victim {
            expect_failovers += 1;
        }
        match eng.call(Op::FindPath { u, v }, &mut out) {
            Ok(QueryOutcome::Full) => {}
            other => {
                return Err(format!(
                    "kill-shard: query {i} answered {other:?}, expected Full via failover"
                ))
            }
        }
    }
    if eng.health(victim) != ShardHealth::Down {
        return Err("kill-shard: the victim was re-admitted without traffic".to_string());
    }
    let failovers = eng.snapshot().failovers;
    if failovers != expect_failovers {
        return Err(format!(
            "kill-shard: expected {expect_failovers} failovers, metrics saw {failovers}"
        ));
    }
    Ok((
        OutcomeKind::Full,
        format!("shard {victim} down; {failovers}/{queries} failed over, all Full"),
    ))
}

/// Slow-shard: a wedged replica (chaos sleep per job) must be demoted
/// by the overrun limit, after which its traffic re-routes.
fn slow_shard_probe(
    points: &hopspan_metric::EuclideanSpace,
    seed: u64,
    rng: &mut Pcg32,
) -> Result<(OutcomeKind, String), String> {
    let n = points.len();
    let slow = rng.gen_range(0..2usize);
    let eng = engine(
        points,
        seed,
        ServeConfig {
            shards: 2,
            chaos_slow_shard: Some((slow, Duration::from_millis(3))),
            overrun_limit: Some(Duration::from_micros(500)),
            ..ServeConfig::default()
        },
    )?;
    let owned = (0..n as u32)
        .find(|&u| shard_of_point(u, 2) == slow)
        .ok_or_else(|| "slow-shard: no point owned by the slow shard".to_string())?;
    let mut out = Vec::new();
    let deadline = Instant::now() + PROBE_TIMEOUT;
    while eng.health(slow) != ShardHealth::Down {
        if Instant::now() > deadline {
            return Err("slow-shard: overruns never demoted the wedged shard".to_string());
        }
        let v = (owned + 1) % n as u32;
        if let Err(e) = eng.call(Op::FindPath { u: owned, v }, &mut out) {
            return Err(format!("slow-shard: demotion sweep errored: {e}"));
        }
    }
    // Demoted: its requests must now dispatch to the fast replica and
    // answer instantly.
    let op = Op::FindPath {
        u: owned,
        v: (owned + 2) % n as u32,
    };
    let target = eng.dispatch_for(&op);
    if target == slow {
        return Err("slow-shard: a Down shard kept its traffic".to_string());
    }
    match eng.call(op, &mut out) {
        Ok(QueryOutcome::Full) => {}
        other => return Err(format!("slow-shard: failover answered {other:?}")),
    }
    Ok((
        OutcomeKind::TypedError,
        format!("slow shard {slow} demoted by overruns; replica {target} served failover"),
    ))
}

/// Flapping: a shard cycles Down/Healthy across rounds; every round
/// must answer everything and recovery must restore ownership.
fn flapping_probe(
    points: &hopspan_metric::EuclideanSpace,
    seed: u64,
    rng: &mut Pcg32,
) -> Result<(OutcomeKind, String), String> {
    let n = points.len();
    let shards = 4usize;
    let eng = engine(
        points,
        seed,
        ServeConfig {
            shards,
            ..ServeConfig::default()
        },
    )?;
    let rounds = 4 + rng.gen_range(0..4u64);
    let mut out = Vec::new();
    let mut expect_failovers = 0u64;
    for r in 0..rounds {
        let victim = (r % shards as u64) as usize;
        eng.set_health(victim, ShardHealth::Down);
        for i in 0..8u64 {
            let u = ((r * 8 + i) % n as u64) as u32;
            let v = ((u as u64 + 5) % n as u64) as u32;
            if shard_of_point(u, shards) == victim {
                expect_failovers += 1;
            }
            match eng.call(Op::FindPath { u, v }, &mut out) {
                Ok(QueryOutcome::Full) => {}
                other => {
                    return Err(format!(
                        "flapping: round {r} query {i} answered {other:?}, expected Full"
                    ))
                }
            }
        }
        eng.set_health(victim, ShardHealth::Healthy);
        // Recovery must restore ownership immediately.
        let u = (r % n as u64) as u32;
        let op = Op::FindPath {
            u,
            v: (u + 1) % n as u32,
        };
        if eng.dispatch_for(&op) != shard_of_point(u, shards) {
            return Err(format!(
                "flapping: round {r} recovery did not restore ownership"
            ));
        }
    }
    if (0..shards).any(|s| eng.health(s) != ShardHealth::Healthy) {
        return Err("flapping: a shard stayed demoted after its flap".to_string());
    }
    let failovers = eng.snapshot().failovers;
    if failovers != expect_failovers {
        return Err(format!(
            "flapping: expected {expect_failovers} failovers over {rounds} rounds, saw {failovers}"
        ));
    }
    Ok((
        OutcomeKind::Full,
        format!("{rounds} flap rounds; {failovers} failovers, all Full, all re-admitted"),
    ))
}

/// Corrupt-respawn: damage the boot snapshot on disk, then quarantine
/// a shard by injected panic. `load_snapshot_verify` must refuse the
/// file typed, while the respawn — which never reads it — re-admits the
/// shard with the answers recorded before the damage.
fn corrupt_respawn_probe(
    points: &hopspan_metric::EuclideanSpace,
    seed: u64,
    rng: &mut Pcg32,
) -> Result<(OutcomeKind, String), String> {
    let path = std::env::temp_dir().join(format!(
        "hopspan-chaos-outage-{}-{:016x}.hsnp",
        std::process::id(),
        rng.gen_range(0..u64::MAX)
    ));
    let result = corrupt_respawn_at(points, seed, rng, &path);
    let _cleanup = std::fs::remove_file(&path);
    result
}

fn corrupt_respawn_at(
    points: &hopspan_metric::EuclideanSpace,
    seed: u64,
    rng: &mut Pcg32,
    path: &std::path::Path,
) -> Result<(OutcomeKind, String), String> {
    let n = points.len() as u64;
    let period = 3 + rng.gen_range(0..3u64);
    // Write a pristine snapshot from a seed engine, then boot from it.
    let seed_engine = engine(
        points,
        seed,
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
    )?;
    seed_engine.set_snapshot_path(path);
    seed_engine
        .write_snapshot()
        .map_err(|e| format!("corrupt-respawn: snapshot write failed: {e}"))?;
    drop(seed_engine);
    let eng = ShardedNavigator::replicated_from_snapshot(
        path,
        ServeConfig {
            shards: 2,
            chaos_panic_period: Some(period),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("corrupt-respawn: snapshot boot failed: {e}"))?;

    // Jobs 1..period run clear of the injection: record their answers.
    let sweep = |eng: &ShardedNavigator| -> Result<Vec<Vec<usize>>, String> {
        let mut out = Vec::new();
        (0..period - 1)
            .map(|i| {
                let u = (i % n) as u32;
                let v = ((i + 3) % n) as u32;
                match eng.call(Op::FindPath { u, v }, &mut out) {
                    Ok(QueryOutcome::Full) => Ok(out.clone()),
                    other => Err(format!(
                        "corrupt-respawn: sweep query {i} answered {other:?}"
                    )),
                }
            })
            .collect()
    };
    let before = sweep(&eng)?;

    // Damage the file *after* boot: the snapshot opcode must refuse
    // it typed.
    let mut bytes =
        std::fs::read(path).map_err(|e| format!("corrupt-respawn: re-read failed: {e}"))?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(path, &bytes)
        .map_err(|e| format!("corrupt-respawn: corrupt write failed: {e}"))?;
    if eng.load_snapshot_verify() != Err(ServeError::Internal) {
        return Err("corrupt-respawn: LoadSnapshot accepted a damaged file".to_string());
    }

    // Jobs period..=3·period: exactly three injected panics.
    let mut out = Vec::new();
    let mut panicked = 0u64;
    for i in 0..2 * period + 1 {
        let u = (i % n) as u32;
        let v = ((i + 9) % n) as u32;
        match eng.call(Op::FindPath { u, v }, &mut out) {
            Ok(QueryOutcome::Full) => {}
            Err(ServeError::WorkerPanicked) => panicked += 1,
            other => return Err(format!("corrupt-respawn: query {i} answered {other:?}")),
        }
    }
    if panicked != 3 {
        return Err(format!(
            "corrupt-respawn: expected 3 injected panics, saw {panicked}"
        ));
    }
    let deadline = Instant::now() + PROBE_TIMEOUT;
    while eng.snapshot().respawns == 0 || (0..2).any(|s| eng.health(s) != ShardHealth::Healthy) {
        if Instant::now() > deadline {
            return Err("corrupt-respawn: a quarantined shard was never re-admitted".to_string());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    // Jobs 3·period+1..4·period: clear of the injection again.
    if sweep(&eng)? != before {
        return Err("corrupt-respawn: answers changed across the respawn".to_string());
    }
    if eng.load_snapshot_verify() != Err(ServeError::Internal) {
        return Err("corrupt-respawn: LoadSnapshot accepted the damaged file later".to_string());
    }
    Ok((
        OutcomeKind::TypedError,
        format!(
            "period={period}: damaged snapshot refused typed; {panicked} panics, \
             re-admitted from memory with unchanged answers"
        ),
    ))
}
