//! Self-healing behavior end to end: replicated and shared-mode failover
//! answer every query while shards are down, injected panics surface
//! typed without a retry, slow shards are demoted by the overrun limit,
//! and quarantined shards respawn from the boot snapshot — or stay down
//! when the snapshot is corrupt.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hopspan_core::DegradationPolicy;
use hopspan_metric::gen;
use hopspan_serve::{
    shard_of_point, Backend, BackendParams, Op, QueryOutcome, ServeConfig, ServeError, ShardHealth,
    ShardedNavigator,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const N: usize = 64;

fn params() -> BackendParams {
    BackendParams {
        seed: 0x5E4E_0001,
        tree_budget: 8,
        k: 3,
        eps: 0.5,
        f: 1,
        build_router: true,
        build_ft: true,
    }
}

fn points() -> hopspan_metric::EuclideanSpace {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5E4E_0002);
    gen::uniform_points(N, 2, &mut rng)
}

/// A unique temp file for one test's snapshot.
fn temp_snapshot_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "hopspan-resilience-{tag}-{}.hsnp",
        std::process::id()
    ))
}

/// Polls `cond` for up to five seconds — respawn runs on the
/// supervisor thread, so re-admission is asynchronous.
fn wait_for(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

#[test]
fn replicated_failover_reroutes_down_shards_and_answers_everything() {
    let engine = ShardedNavigator::replicated(
        &points(),
        &params(),
        ServeConfig {
            shards: 4,
            ..ServeConfig::default()
        },
    )
    .expect("replicated engine starts");

    // Take one shard down by script; its requests must re-route to a
    // healthy replica, deterministically, and every query still
    // answers `Full` — replicas are bit-identical.
    engine.set_health(1, ShardHealth::Down);
    assert_eq!(engine.health(1), ShardHealth::Down);

    let mut out = Vec::new();
    let mut rerouted = 0u64;
    for u in 0..N as u32 {
        let op = Op::FindPath {
            u,
            v: (u + 11) % N as u32,
        };
        let owner = engine.shard_for(&op);
        assert_eq!(owner, shard_of_point(u, 4));
        let target = engine.dispatch_for(&op);
        if owner == 1 {
            assert_ne!(target, 1, "a Down shard's requests must fail over");
            rerouted += 1;
            // The choice is a pure function of the health config.
            assert_eq!(engine.dispatch_for(&op), target, "failover must be stable");
        } else {
            assert_eq!(target, owner, "healthy owners keep their requests");
        }
        let outcome = engine.call(op, &mut out).expect("failover answers");
        assert_eq!(outcome, QueryOutcome::Full);
    }
    assert!(rerouted > 0, "the point set must hit the down shard");
    let snap = engine.snapshot();
    assert_eq!(snap.failovers, rerouted);
    assert_eq!(snap.shard_down_events, 1);
    assert_eq!(snap.shard_health & 0xff00, 0x0200, "health byte 1 is Down");

    // Two of four down: still every query answers.
    engine.set_health(3, ShardHealth::Down);
    for u in 0..N as u32 {
        let op = Op::Route {
            u,
            v: (u + 7) % N as u32,
        };
        let target = engine.dispatch_for(&op);
        assert!(target != 1 && target != 3, "no dispatch to a Down shard");
        let outcome = engine
            .call(op, &mut out)
            .expect("two-down failover answers");
        assert_eq!(outcome, QueryOutcome::Full);
    }

    // Recovery: re-admitted shards own their requests again.
    engine.set_health(1, ShardHealth::Healthy);
    engine.set_health(3, ShardHealth::Healthy);
    for u in 0..N as u32 {
        let op = Op::FindPath {
            u,
            v: (u + 1) % N as u32,
        };
        assert_eq!(engine.dispatch_for(&op), engine.shard_for(&op));
    }
}

#[test]
fn all_shards_down_still_answers_through_the_owner() {
    let engine = ShardedNavigator::replicated(
        &points(),
        &params(),
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
    )
    .expect("replicated engine starts");
    engine.set_health(0, ShardHealth::Down);
    engine.set_health(1, ShardHealth::Down);
    // Zero healthy shards: dispatch falls back to the owner (checked
    // before any call — successful answers start re-admitting shards
    // through their ok-streaks, which is the self-healing working).
    for u in (0..N as u32).step_by(9) {
        let op = Op::FindPath {
            u,
            v: (u + 3) % N as u32,
        };
        assert_eq!(engine.dispatch_for(&op), engine.shard_for(&op));
    }
    // The owners' workers still run — availability degrades, it never
    // hits zero. 64 successes split across two shards clears the
    // recovery streak (default 4) on both.
    let mut out = Vec::new();
    for u in 0..N as u32 {
        let op = Op::FindPath {
            u,
            v: (u + 3) % N as u32,
        };
        let outcome = engine.call(op, &mut out).expect("owner still serves");
        assert_eq!(outcome, QueryOutcome::Full);
    }
    // And those successes promote shards back toward Healthy. (Not
    // necessarily both: the moment one shard recovers, failover drains
    // the other's traffic — and with it the success streak it would
    // need. Re-admitting a fully starved shard is the supervisor's
    // job, exercised in the respawn test below.)
    assert!(
        (0..2).any(|i| engine.health(i) != ShardHealth::Down),
        "a streak of good answers must begin re-admission"
    );
}

#[test]
fn shared_mode_fails_over_to_a_live_shard() {
    let backend = Arc::new(Backend::build(&points(), &params()).expect("backend builds"));
    let engine = ShardedNavigator::shared(
        Arc::clone(&backend),
        ServeConfig {
            shards: 2,
            policy: DegradationPolicy::BestEffort,
            ..ServeConfig::default()
        },
    )
    .expect("shared engine starts");

    // Find a point owned by shard 0 and one owned by shard 1.
    let owned_by = |s: usize| (0..N as u32).find(|&u| shard_of_point(u, 2) == s);
    let u0 = owned_by(0).expect("some point hashes to shard 0");
    let u1 = owned_by(1).expect("some point hashes to shard 1");

    engine.set_health(0, ShardHealth::Down);
    let mut out = Vec::new();
    // Every shard serves the same backend, so the Down owner's request
    // is re-routed to the live shard and answered through its queue.
    let op = Op::FindPath { u: u0, v: u1 };
    assert_eq!(engine.dispatch_for(&op), 1);
    let outcome = engine.call(op, &mut out).expect("failover answers");
    assert_eq!(outcome, QueryOutcome::Full);
    assert_eq!(out.first(), Some(&(u0 as usize)));
    let snap = engine.snapshot();
    assert_eq!(snap.failovers, 1);
    assert_eq!(snap.inline_served, 0);
    // The healthy shard's requests still go through the queue as Full.
    let outcome = engine
        .call(Op::FindPath { u: u1, v: u0 }, &mut out)
        .expect("healthy shard serves");
    assert_eq!(outcome, QueryOutcome::Full);
    let snap = engine.snapshot();
    assert_eq!(snap.failovers, 1);
    assert_eq!(snap.inline_served, 0);
}

#[test]
fn injected_panics_surface_typed_without_retry() {
    let mut out = Vec::new();
    let engine = ShardedNavigator::replicated(
        &points(),
        &params(),
        ServeConfig {
            shards: 1,
            chaos_panic_period: Some(1),
            ..ServeConfig::default()
        },
    )
    .expect("replicated engine starts");
    assert_eq!(
        engine.call(Op::FindPath { u: 0, v: 1 }, &mut out),
        Err(ServeError::WorkerPanicked),
        "a contained panic surfaces on the first attempt"
    );
    assert_eq!(engine.snapshot().retries, 0);
}

#[test]
fn a_slow_shard_is_demoted_by_the_overrun_limit() {
    let engine = ShardedNavigator::replicated(
        &points(),
        &params(),
        ServeConfig {
            shards: 2,
            chaos_slow_shard: Some((0, Duration::from_millis(20))),
            overrun_limit: Some(Duration::from_millis(5)),
            ..ServeConfig::default()
        },
    )
    .expect("replicated engine starts");
    let u = (0..N as u32)
        .find(|&u| shard_of_point(u, 2) == 0)
        .expect("some point hashes to shard 0");
    let mut out = Vec::new();
    // Eight consecutive overruns (`DOWN_AFTER`) demote the wedged shard.
    for _ in 0..12 {
        if engine.health(0) == ShardHealth::Down {
            break;
        }
        let _answer = engine.call(
            Op::FindPath {
                u,
                v: (u + 1) % N as u32,
            },
            &mut out,
        );
    }
    assert_eq!(
        engine.health(0),
        ShardHealth::Down,
        "overruns must demote the slow shard"
    );
    assert!(engine.snapshot().shard_down_events >= 1);
    // Its requests now fail over to the fast replica.
    let op = Op::FindPath {
        u,
        v: (u + 2) % N as u32,
    };
    assert_eq!(engine.dispatch_for(&op), 1);
}

#[test]
fn a_quarantined_shard_respawns_from_the_snapshot_and_recovers() {
    // Boot from a snapshot so the fidelity witness is armed: the very
    // first injected panic quarantines the shard and the supervisor
    // rebuilds it from disk.
    let seed_engine = ShardedNavigator::replicated(
        &points(),
        &params(),
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
    )
    .expect("seed engine starts");
    let path = temp_snapshot_path("respawn");
    seed_engine.set_snapshot_path(&path);
    seed_engine.write_snapshot().expect("snapshot writes");
    drop(seed_engine);

    let engine = ShardedNavigator::replicated_from_snapshot(
        &path,
        ServeConfig {
            shards: 1,
            chaos_panic_period: Some(4),
            ..ServeConfig::default()
        },
    )
    .expect("snapshot boot");
    let mut out = Vec::new();
    let mut saw_panic = false;
    for i in 0..8u32 {
        match engine.call(Op::FindPath { u: i, v: i + 9 }, &mut out) {
            Ok(QueryOutcome::Full) => {}
            Err(ServeError::WorkerPanicked) => saw_panic = true,
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert!(saw_panic, "chaos_panic_period must fire within 8 jobs");
    // The supervisor re-admits the shard: Down → snapshot rebuild →
    // Suspect → probe → Healthy, and the respawn counter ticks.
    assert!(
        wait_for(|| engine.snapshot().respawns >= 1 && engine.health(0) == ShardHealth::Healthy),
        "the shard must be re-admitted to Healthy; health={:?}, respawns={}",
        engine.health(0),
        engine.snapshot().respawns,
    );
    assert!(engine.snapshot().shard_down_events >= 1);
    // And it serves correct answers again.
    let outcome = engine
        .call(Op::FindPath { u: 2, v: 33 }, &mut out)
        .expect("respawned shard serves");
    assert_eq!(outcome, QueryOutcome::Full);
    let _cleanup = std::fs::remove_file(&path);
}

#[test]
fn a_corrupt_snapshot_is_never_readmitted() {
    let seed_engine = ShardedNavigator::replicated(
        &points(),
        &params(),
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
    )
    .expect("seed engine starts");
    let path = temp_snapshot_path("corrupt");
    seed_engine.set_snapshot_path(&path);
    seed_engine.write_snapshot().expect("snapshot writes");
    drop(seed_engine);

    let engine = ShardedNavigator::replicated_from_snapshot(
        &path,
        ServeConfig {
            shards: 2,
            chaos_panic_period: Some(6),
            ..ServeConfig::default()
        },
    )
    .expect("snapshot boot");

    // Corrupt the snapshot on disk *after* boot: the next quarantine's
    // respawn reads garbage, fails the witness check and must leave
    // the shard Down rather than re-admit a divergent backend.
    let mut bytes = std::fs::read(&path).expect("snapshot readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("snapshot corruptible");

    let mut out = Vec::new();
    let mut panicked = 0u32;
    for i in 0..24u32 {
        if let Err(ServeError::WorkerPanicked) = engine.call(
            Op::FindPath {
                u: i % N as u32,
                v: (i + 5) % N as u32,
            },
            &mut out,
        ) {
            panicked += 1;
        }
    }
    assert!(panicked >= 1, "chaos injection must fire");
    assert!(
        wait_for(|| engine.snapshot().shard_down_events >= 1),
        "a panic must quarantine its shard"
    );
    // Give the supervisor time to attempt (and refuse) the respawn.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        engine.snapshot().respawns,
        0,
        "a corrupt snapshot must never re-admit"
    );
    assert!(
        (0..2).any(|i| engine.health(i) == ShardHealth::Down),
        "the quarantined shard stays Down"
    );
    // The service survives: healthy-or-owner dispatch still answers.
    for i in 0..8u32 {
        let op = Op::FindPath { u: i, v: i + 40 };
        match engine.call(op, &mut out) {
            Ok(QueryOutcome::Full) | Err(ServeError::WorkerPanicked) => {}
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    let _cleanup = std::fs::remove_file(&path);
}

#[test]
fn client_typed_errors_do_not_count_against_health() {
    let engine = ShardedNavigator::replicated(
        &points(),
        &params(),
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
    )
    .expect("replicated engine starts");
    let mut out = Vec::new();
    // A storm of bad requests (client's fault) must not demote the
    // shard: the worker answering them typed is proof it is alive.
    for _ in 0..32 {
        assert_eq!(
            engine.call(Op::FindPath { u: 1, v: 9999 }, &mut out),
            Err(ServeError::BadEndpoint { point: 9999 })
        );
    }
    assert_eq!(engine.health(0), ShardHealth::Healthy);
    assert_eq!(engine.snapshot().shard_down_events, 0);
}
