//! End-to-end service behavior: batched answers match direct kernel
//! answers bit-for-bit, admission control sheds typed under `Strict`
//! and degrades under `BestEffort`, worker panics are contained, and
//! the TCP front serves the same answers over loopback.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use hopspan_core::DegradationPolicy;
use hopspan_metric::gen;
use hopspan_serve::wire::{self, Response};
use hopspan_serve::{
    shard_of_point, Backend, BackendParams, DegradeCode, FaultSet, Op, QueryOutcome, ServeConfig,
    ServeError, Server, ShardedNavigator,
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

fn backend() -> Arc<Backend> {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5E4E_0002);
    let points = gen::uniform_points(N, 2, &mut rng);
    Arc::new(Backend::build(&points, &params()).expect("seeded backend builds"))
}

fn engine(cfg: ServeConfig) -> ShardedNavigator {
    ShardedNavigator::shared(backend(), cfg).expect("engine starts")
}

#[test]
fn batched_answers_match_direct_kernel_answers() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5E4E_0002);
    let points = gen::uniform_points(N, 2, &mut rng);
    // Every shard holds a bit-identical replica, so a one-shard
    // single-worker engine over the same build params is an exact
    // oracle for the sharded, batched one.
    let oracle = ShardedNavigator::replicated(
        &points,
        &params(),
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
    )
    .expect("oracle engine starts");
    let engine = ShardedNavigator::replicated(
        &points,
        &params(),
        ServeConfig {
            shards: 3,
            workers_per_shard: 2,
            max_batch: 4,
            queue_depth: 16,
            ..ServeConfig::default()
        },
    )
    .expect("replicated engine starts");

    let mut served = Vec::new();
    let mut want = Vec::new();
    for u in 0..N as u32 {
        for v in (u + 1..N as u32).step_by(7) {
            let outcome = engine
                .call(Op::FindPath { u, v }, &mut served)
                .expect("served query succeeds");
            assert_eq!(outcome, QueryOutcome::Full);
            let oracle_outcome = oracle
                .call(Op::FindPath { u, v }, &mut want)
                .expect("oracle query succeeds");
            assert_eq!(oracle_outcome, QueryOutcome::Full);
            assert_eq!(served, want, "served path differs for ({u}, {v})");
        }
    }
    let snap = engine.snapshot();
    assert!(snap.completed > 0);
    assert_eq!(snap.shed, 0, "no shedding below the admission limit");
}

#[test]
fn all_opcodes_serve_through_the_queue() {
    let engine = engine(ServeConfig {
        shards: 2,
        max_batch: 8,
        ..ServeConfig::default()
    });
    let mut out = Vec::new();

    let outcome = engine
        .call(Op::FindPath { u: 3, v: 40 }, &mut out)
        .expect("find_path");
    assert_eq!(outcome, QueryOutcome::Full);
    assert_eq!(out.first(), Some(&3));
    assert_eq!(out.last(), Some(&40));

    let outcome = engine
        .call(Op::Route { u: 5, v: 21 }, &mut out)
        .expect("route");
    assert_eq!(outcome, QueryOutcome::Full);
    assert_eq!(out.first(), Some(&5));
    assert_eq!(out.last(), Some(&21));

    let faults = FaultSet::new(&[7]).expect("one fault");
    let outcome = engine
        .call(
            Op::RouteAvoiding {
                u: 3,
                v: 40,
                faults,
            },
            &mut out,
        )
        .expect("route_avoiding");
    assert_eq!(outcome, QueryOutcome::Full);
    assert!(!out.contains(&7), "path must avoid the fault");

    // A queued Stats request still answers typed; the counters
    // themselves come from the engine's one snapshot producer.
    let pending = engine.try_submit(Op::Stats).expect("stats submits");
    assert_eq!(pending.wait_into(&mut out), Ok(QueryOutcome::Stats));
    assert!(out.is_empty(), "Stats carries no path");
    assert!(engine.snapshot().completed >= 4);

    // Typed errors surface, not panics.
    let err = engine
        .call(Op::FindPath { u: 3, v: 9999 }, &mut out)
        .expect_err("out-of-range endpoint");
    assert_eq!(err, ServeError::BadEndpoint { point: 9999 });
}

#[test]
fn strict_overload_sheds_typed() {
    let engine = engine(ServeConfig {
        shards: 1,
        queue_depth: 4,
        max_batch: 4,
        // Slots, not queue occupancy, bound admission: an admitted
        // job keeps its slot until its `Pending` is waited on, so the
        // worker draining the queue frees nothing during the burst.
        policy: DegradationPolicy::Strict,
        ..ServeConfig::default()
    });
    let mut pendings = Vec::new();
    let mut shed = 0usize;
    for i in 0..32u32 {
        match engine.try_submit(Op::FindPath {
            u: i % N as u32,
            v: (i + 1) % N as u32,
        }) {
            Ok(p) => pendings.push(p),
            Err(ServeError::Overloaded { depth }) => {
                assert_eq!(depth, 4);
                shed += 1;
            }
            Err(other) => panic!("unexpected admission error {other:?}"),
        }
    }
    assert!(shed > 0, "a 4-deep queue cannot admit 32 instant submits");
    let mut out = Vec::new();
    for p in pendings {
        let _outcome = p.wait_into(&mut out).expect("admitted jobs complete");
    }
    let snap = engine.snapshot();
    assert_eq!(snap.shed as usize, shed);
    assert_eq!(snap.inline_served, 0, "Strict never serves inline");
}

#[test]
fn best_effort_overload_degrades_inline() {
    let engine = engine(ServeConfig {
        shards: 1,
        queue_depth: 1,
        max_batch: 1,
        // Slots, not queue occupancy, bound admission: `held` keeps
        // the only slot until it is waited on, even once the worker
        // has answered it.
        policy: DegradationPolicy::BestEffort,
        ..ServeConfig::default()
    });
    // Occupy the only slot…
    let held = engine
        .try_submit(Op::FindPath { u: 1, v: 2 })
        .expect("first submit is admitted");
    // …then call() must fall back to a degraded inline answer instead
    // of shedding.
    let mut out = Vec::new();
    let mut saw_inline = false;
    for _ in 0..8 {
        match engine.call(Op::FindPath { u: 3, v: 40 }, &mut out) {
            Ok(QueryOutcome::Degraded {
                reason: DegradeCode::Overload,
                achieved_stretch,
            }) => {
                assert!(achieved_stretch >= 1.0);
                assert_eq!(out.first(), Some(&3));
                assert_eq!(out.last(), Some(&40));
                saw_inline = true;
                break;
            }
            Ok(_) => {} // not expected while `held` pins the only slot
            Err(e) => panic!("BestEffort must not error on overload: {e}"),
        }
    }
    let _held_outcome = held.wait_into(&mut out).expect("held job completes");
    if saw_inline {
        assert!(engine.snapshot().inline_served > 0);
    }
    assert_eq!(engine.snapshot().shed, 0, "BestEffort sheds nothing");
}

#[test]
fn injected_worker_panics_are_contained() {
    let engine = engine(ServeConfig {
        shards: 1,
        chaos_panic_period: Some(3),
        ..ServeConfig::default()
    });
    let mut out = Vec::new();
    let mut panicked = 0;
    let mut answered = 0;
    for i in 0..12u32 {
        match engine.call(Op::FindPath { u: i, v: i + 20 }, &mut out) {
            Ok(QueryOutcome::Full) => answered += 1,
            Err(ServeError::WorkerPanicked) => panicked += 1,
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert_eq!(panicked, 4, "every 3rd job panics by injection");
    assert_eq!(answered, 8, "the worker survives and keeps serving");
}

#[test]
fn tcp_front_serves_the_wire_protocol() {
    let engine = Arc::new(engine(ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    }));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("server binds");
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).expect("client connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client timeout");

    // Pipeline three requests in one write.
    let mut frames = Vec::new();
    wire::encode_request_into(1, &Op::FindPath { u: 3, v: 40 }, &mut frames);
    wire::encode_request_into(2, &Op::Route { u: 5, v: 21 }, &mut frames);
    wire::encode_request_into(3, &Op::Stats, &mut frames);
    use std::io::Write;
    stream.write_all(&frames).expect("client writes");

    let mut body = Vec::new();
    for want_id in 1u64..=3 {
        assert!(
            hopspan_serve::read_frame(&mut stream, &mut body).expect("response frame"),
            "connection must stay open"
        );
        let view = wire::decode_frame(&body).expect("response decodes");
        assert_eq!(view.request_id, want_id);
        match wire::decode_response(&view).expect("response parses") {
            Response::Path {
                outcome,
                path,
                epoch,
            } => {
                assert_eq!(outcome, QueryOutcome::Full);
                assert!(path.len() >= 2);
                assert_eq!(epoch, 0, "static engines report epoch 0");
            }
            Response::Stats(snap) => {
                assert_eq!(want_id, 3);
                assert!(snap.completed >= 2);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    // A bad-checksum frame gets a typed ERR_WIRE reply, then close.
    let mut corrupt = Vec::new();
    wire::encode_request_into(4, &Op::FindPath { u: 1, v: 2 }, &mut corrupt);
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xFF;
    stream
        .write_all(&corrupt)
        .expect("client writes corruption");
    assert!(
        hopspan_serve::read_frame(&mut stream, &mut body).expect("error frame"),
        "corruption must be answered, not dropped"
    );
    let view = wire::decode_frame(&body).expect("error frame decodes");
    assert_eq!(view.status, wire::status::ERR_WIRE);

    // The server survives: a fresh connection still works.
    let mut stream2 = TcpStream::connect(addr).expect("second client connects");
    stream2
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client timeout");
    let mut frame = Vec::new();
    wire::encode_request_into(9, &Op::FindPath { u: 8, v: 30 }, &mut frame);
    stream2.write_all(&frame).expect("second client writes");
    assert!(hopspan_serve::read_frame(&mut stream2, &mut body).expect("second response"));
    let view = wire::decode_frame(&body).expect("second response decodes");
    assert_eq!(view.request_id, 9);
    assert_eq!(view.status, wire::status::OK);

    server.shutdown();
}

#[test]
#[should_panic(expected = "shard_of_point requires shards >= 1")]
fn zero_shard_dispatch_panics_instead_of_masking() {
    // A zero shard count used to be silently masked to one shard;
    // construction-side validation rejects it typed, so dispatch now
    // treats it as the bug it is.
    let _ = shard_of_point(7, 0);
}

/// A unique temp file for one test's snapshot.
fn temp_snapshot_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("hopspan-serve-{tag}-{}.hsnp", std::process::id()))
}

#[test]
fn snapshot_boot_answers_match_the_live_engine() {
    let live = engine(ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    });
    let path = temp_snapshot_path("boot");
    live.set_snapshot_path(&path);
    let digest = live.write_snapshot().expect("snapshot writes");
    assert!(digest.bytes > 0);
    assert_eq!(
        live.load_snapshot_verify().expect("snapshot verifies"),
        digest,
        "verify must report the same digest the write did"
    );

    let engine = ShardedNavigator::replicated_from_snapshot(
        &path,
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
    )
    .expect("replicated boot");
    let mut got = Vec::new();
    let mut want = Vec::new();
    assert_eq!(engine.points(), N);
    for u in (0..N as u32).step_by(11) {
        let v = (u + 17) % N as u32;
        if u == v {
            continue;
        }
        let outcome = engine
            .call(Op::FindPath { u, v }, &mut got)
            .expect("booted engine serves");
        assert_eq!(outcome, QueryOutcome::Full);
        let live_outcome = live
            .call(Op::FindPath { u, v }, &mut want)
            .expect("live engine serves");
        assert_eq!(live_outcome, QueryOutcome::Full);
        assert_eq!(got, want, "snapshot boot diverged for ({u}, {v})");
    }
    // The routing scheme is not part of the snapshot, so a booted
    // engine answers Route with a typed Unsupported.
    assert!(matches!(
        engine.call(Op::Route { u: 1, v: 2 }, &mut got),
        Err(ServeError::Unsupported { .. })
    ));
    // The boot constructor remembers its source file.
    assert_eq!(engine.snapshot_path().as_deref(), Some(path.as_path()));
    let _cleanup = std::fs::remove_file(&path);
}

#[test]
fn snapshot_opcodes_serve_over_tcp() {
    use std::io::Write;

    let engine = Arc::new(engine(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    }));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("server binds");
    let mut stream = TcpStream::connect(server.local_addr()).expect("client connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client timeout");
    let mut frame = Vec::new();
    let mut body = Vec::new();

    // Without a configured path the opcode answers typed Unsupported —
    // and the connection stays open (the frame was sound).
    wire::encode_snapshot_request_into(1, wire::opcode::SNAPSHOT, &mut frame);
    stream.write_all(&frame).expect("client writes");
    assert!(hopspan_serve::read_frame(&mut stream, &mut body).expect("reply arrives"));
    let view = wire::decode_frame(&body).expect("reply decodes");
    assert_eq!(view.request_id, 1);
    assert!(matches!(
        wire::decode_response(&view).expect("reply parses"),
        Response::Error(ServeError::Unsupported { .. })
    ));

    // With a path: SNAPSHOT writes and reports a digest, LOAD_SNAPSHOT
    // re-reads, revalidates against the live engine and echoes it.
    let path = temp_snapshot_path("tcp");
    engine.set_snapshot_path(&path);
    let mut digest = (0u64, 0u64);
    for (id, op) in [
        (2, wire::opcode::SNAPSHOT),
        (3, wire::opcode::LOAD_SNAPSHOT),
    ] {
        frame.clear();
        wire::encode_snapshot_request_into(id, op, &mut frame);
        stream.write_all(&frame).expect("client writes");
        assert!(hopspan_serve::read_frame(&mut stream, &mut body).expect("reply arrives"));
        let view = wire::decode_frame(&body).expect("reply decodes");
        assert_eq!(view.request_id, id);
        match wire::decode_response(&view).expect("reply parses") {
            Response::Snapshot { bytes, checksum } => {
                assert!(bytes > 0);
                if op == wire::opcode::SNAPSHOT {
                    digest = (bytes, checksum);
                } else {
                    assert_eq!((bytes, checksum), digest, "load must echo the write digest");
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    // A snapshot request with a non-empty payload is a BadRequest.
    frame.clear();
    wire::encode_request_into(4, &Op::FindPath { u: 0, v: 1 }, &mut frame);
    frame[10] = wire::opcode::SNAPSHOT; // opcode byte: 4B length prefix + 4B magic + 2B version
    let cs_at = frame.len() - 8;
    let cs = wire::fnv1a(&frame[4..cs_at]);
    frame[cs_at..].copy_from_slice(&cs.to_le_bytes());
    stream.write_all(&frame).expect("client writes");
    assert!(hopspan_serve::read_frame(&mut stream, &mut body).expect("reply arrives"));
    let view = wire::decode_frame(&body).expect("reply decodes");
    assert!(matches!(
        wire::decode_response(&view).expect("reply parses"),
        Response::Error(ServeError::BadRequest)
    ));

    server.shutdown();
    let _cleanup = std::fs::remove_file(&path);
}

/// A failed queued call hands back no path: `RouteAvoiding` on a
/// backend without an FT spanner answers `Unsupported` with `out`
/// empty, even right after `FindPath` answers on the same shard.
#[test]
fn a_failed_call_returns_no_stale_path() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5E4E_0002);
    let points = gen::uniform_points(N, 2, &mut rng);
    let no_ft = BackendParams {
        build_ft: false,
        ..params()
    };
    let engine = ShardedNavigator::shared(
        Arc::new(Backend::build(&points, &no_ft).expect("seeded backend builds")),
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
    )
    .expect("engine starts");
    let faults = FaultSet::new(&[5]).expect("one fault fits");
    let mut out = Vec::new();
    for (u, v) in [(3, 9), (1, 40), (7, 22), (3, 9)] {
        let found = engine.call(Op::FindPath { u, v }, &mut out);
        assert_eq!(found, Ok(QueryOutcome::Full));
        assert!(!out.is_empty());
        for _ in 0..3 {
            let avoided = engine.call(Op::RouteAvoiding { u, v, faults }, &mut out);
            assert!(
                matches!(avoided, Err(ServeError::Unsupported { .. })),
                "{avoided:?}"
            );
            assert!(out.is_empty(), "a failed call returned the path {out:?}");
        }
    }
}
