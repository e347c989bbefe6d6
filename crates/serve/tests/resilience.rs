//! Self-healing behavior end to end: replicated and shared-mode failover
//! answer every query while shards are down, injected panics surface
//! typed without a retry, slow shards are demoted by the overrun limit,
//! and quarantined shards re-attach the engine's shared backend with
//! every capability and answer they had — without reading the
//! snapshot file, damaged or missing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hopspan_core::DegradationPolicy;
use hopspan_dynamic::DynConfig;
use hopspan_metric::gen;
use hopspan_serve::{
    shard_of_point, Backend, BackendParams, FaultSet, Op, QueryOutcome, ServeConfig, ServeError,
    ShardHealth, ShardedNavigator,
};
use rand::{Rng, SeedableRng};
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

/// Whether every shard of `engine` is `Healthy` and at least
/// `respawns` re-admissions happened.
fn readmitted(engine: &ShardedNavigator, respawns: u64) -> bool {
    engine.snapshot().respawns >= respawns
        && (0..engine.shards()).all(|i| engine.health(i) == ShardHealth::Healthy)
}

#[test]
fn a_respawned_shard_keeps_its_route_and_route_avoiding_answers() {
    let ops: Vec<Op> = (0..8u32)
        .flat_map(|u| {
            let v = (u + 17) % N as u32;
            let faults = FaultSet::new(&[(u + 5) % N as u32]).expect("one fault fits");
            [Op::Route { u, v }, Op::RouteAvoiding { u, v, faults }]
        })
        .collect();
    // The job after the recorded ones panics; the replay after the
    // respawn stays clear of the next injection.
    let period = ops.len() as u64 + 1;
    let engine = ShardedNavigator::replicated(
        &points(),
        &params(),
        ServeConfig {
            shards: 2,
            chaos_panic_period: Some(period),
            ..ServeConfig::default()
        },
    )
    .expect("replicated engine starts");
    // A configured snapshot names a file for the snapshot opcodes only;
    // recovery never reads it.
    let path = temp_snapshot_path("capabilities");
    engine.set_snapshot_path(&path);
    engine.write_snapshot().expect("snapshot writes");

    let answer = |op: Op| {
        let mut out = Vec::new();
        let outcome = engine.call(op, &mut out);
        (outcome, out)
    };
    let before: Vec<_> = ops.iter().map(|&op| answer(op)).collect();
    for (op, (outcome, _)) in ops.iter().zip(&before) {
        assert_eq!(outcome, &Ok(QueryOutcome::Full), "{op:?} before the panic");
    }
    assert_eq!(
        answer(Op::FindPath { u: 1, v: 2 }).0,
        Err(ServeError::WorkerPanicked)
    );
    assert!(
        wait_for(|| readmitted(&engine, 1)),
        "the quarantined shard must be re-admitted; respawns={}",
        engine.snapshot().respawns
    );
    let after: Vec<_> = ops.iter().map(|&op| answer(op)).collect();
    assert_eq!(
        after, before,
        "a respawn must keep every capability and answer"
    );
    let _cleanup = std::fs::remove_file(&path);
}

#[test]
fn a_snapshot_booted_shard_respawns_without_reading_the_file() {
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
    // Recovery re-attaches the decoded backend in memory: the file
    // can go away after boot.
    std::fs::remove_file(&path).expect("snapshot removable");
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
    // Down → Suspect → capability probe → Healthy, and the respawn
    // counter ticks.
    assert!(
        wait_for(|| readmitted(&engine, 1)),
        "the shard must be re-admitted to Healthy; health={:?}, respawns={}",
        engine.health(0),
        engine.snapshot().respawns,
    );
    assert!(engine.snapshot().shard_down_events >= 1);
    let outcome = engine
        .call(Op::FindPath { u: 2, v: 33 }, &mut out)
        .expect("respawned shard serves");
    assert_eq!(outcome, QueryOutcome::Full);
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
    let sweep = |out: &mut Vec<usize>| -> Vec<Vec<usize>> {
        (0..5u32)
            .filter_map(
                |i| match engine.call(Op::FindPath { u: i, v: i + 40 }, out) {
                    Ok(QueryOutcome::Full) => Some(out.clone()),
                    Err(ServeError::WorkerPanicked) => None,
                    other => panic!("unexpected outcome {other:?}"),
                },
            )
            .collect()
    };
    let mut out = Vec::new();
    let before = sweep(&mut out);
    assert_eq!(before.len(), 5, "the first five jobs clear the injection");

    // Damage the file *after* boot. The snapshot opcode that reads it
    // refuses it typed; respawn never reads it.
    let mut bytes = std::fs::read(&path).expect("snapshot readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("snapshot corruptible");
    assert_eq!(engine.load_snapshot_verify(), Err(ServeError::Internal));

    let mut panicked = 0u32;
    for i in 0..13u32 {
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
        wait_for(|| readmitted(&engine, 1)),
        "a quarantined shard must be re-admitted from memory; respawns={}",
        engine.snapshot().respawns
    );
    assert!(engine.snapshot().shard_down_events >= 1);
    // Jobs 19..=23 carry no injection (the next fires at job 24).
    assert_eq!(sweep(&mut out), before, "answers unchanged after respawn");
    assert_eq!(engine.load_snapshot_verify(), Err(ServeError::Internal));
    let _cleanup = std::fs::remove_file(&path);
}

#[test]
fn a_dynamic_respawn_keeps_acknowledged_inserts_and_monotonic_epochs() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5E4E_0003);
    let seed_points: Vec<Vec<f64>> = (0..32)
        .map(|_| (0..2).map(|_| rng.gen::<f64>() * 10.0).collect())
        .collect();
    let engine = ShardedNavigator::dynamic(
        &seed_points,
        DynConfig::default(),
        ServeConfig {
            shards: 2,
            chaos_panic_period: Some(5),
            ..ServeConfig::default()
        },
    )
    .expect("dynamic engine starts");
    let mut last_epoch = 0u64;
    let mut call = |op: Op| {
        let mut out = Vec::new();
        let answer = engine.call_with_epoch(op, &mut out);
        if let Ok((_, epoch)) = answer {
            assert!(epoch >= last_epoch, "epoch {epoch} after {last_epoch}");
            last_epoch = epoch;
        }
        answer.map(|(outcome, _)| outcome)
    };
    let mut acked = Vec::new();
    let mut panicked = 0u32;
    for i in 0..12u32 {
        let op = Op::insert(&[20.0 + f64::from(i), 3.0 * f64::from(i)]).expect("dim 2 fits");
        match call(op) {
            Ok(QueryOutcome::Mutation { id, .. }) => acked.push(id),
            Err(ServeError::WorkerPanicked) => panicked += 1,
            other => panic!("unexpected insert outcome {other:?}"),
        }
    }
    assert!(panicked >= 1, "chaos injection must fire");
    assert!(
        wait_for(|| readmitted(&engine, 1)),
        "a quarantined dynamic shard must be re-admitted; respawns={}",
        engine.snapshot().respawns
    );
    engine.dynamic_handle().expect("dynamic engine").flush();
    for &id in &acked {
        // An injected panic is not an answer; ask again.
        let outcome = (0..3)
            .map(|_| call(Op::FindPath { u: id, v: 0 }))
            .find(|r| r != &Err(ServeError::WorkerPanicked));
        assert_eq!(
            outcome,
            Some(Ok(QueryOutcome::Full)),
            "acknowledged insert {id} must stay answerable"
        );
    }
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
