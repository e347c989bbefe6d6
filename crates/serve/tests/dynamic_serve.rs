//! Serve-layer integration of the dynamic engine: `Insert`/`Remove`
//! opcodes end to end (queued, inline and over TCP), epoch ids echoed
//! in replies, typed `PointRetired` answers, mutation metrics and the
//! per-shard epoch byte.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use hopspan_dynamic::DynConfig;
use hopspan_serve::wire::{self, Response};
use hopspan_serve::{Op, QueryOutcome, ServeConfig, ServeError, Server, ShardedNavigator};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn uniform(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen::<f64>() * 10.0).collect())
        .collect()
}

fn dynamic_engine(n: usize, seed: u64, cfg: ServeConfig) -> ShardedNavigator {
    ShardedNavigator::dynamic(&uniform(n, 2, seed), DynConfig::default(), cfg)
        .expect("dynamic engine builds")
}

#[test]
fn mutations_commit_through_the_queue_and_echo_epochs() {
    let engine = dynamic_engine(
        40,
        3,
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
    );
    let mut path = Vec::new();

    // Queries answer against epoch 1 before any mutation.
    let (outcome, epoch) = engine
        .call_with_epoch(Op::FindPath { u: 0, v: 17 }, &mut path)
        .expect("query serves");
    assert_eq!(outcome, QueryOutcome::Full);
    assert_eq!(epoch, 1);

    // An insert commits with a fresh external id at the current epoch.
    let op = Op::insert(&[42.0, -7.0]).expect("dim 2 fits");
    let outcome = engine.call(op, &mut path).expect("insert commits");
    let QueryOutcome::Mutation { id, epoch } = outcome else {
        panic!("expected Mutation, got {outcome:?}");
    };
    assert_eq!(id, 40);
    assert!(epoch >= 1);

    // Not navigable until the next swap: typed BadEndpoint, not junk.
    assert!(matches!(
        engine.call(Op::FindPath { u: id, v: 0 }, &mut path),
        Err(ServeError::BadEndpoint { point }) if point == id
    ));

    // Force the swap, then the insert serves and replies echo the new
    // epoch — the staleness signal the wire contract promises.
    let handle = engine.dynamic_handle().expect("dynamic engine");
    let info = handle.flush();
    assert!(info.id >= 2);
    let (outcome, epoch) = engine
        .call_with_epoch(Op::FindPath { u: id, v: 0 }, &mut path)
        .expect("published insert serves");
    assert_eq!(outcome, QueryOutcome::Full);
    assert_eq!(epoch, info.id);
    assert_eq!(path.first(), Some(&(id as usize)));

    // Remove tombstones immediately; the id answers PointRetired from
    // every shard, forever.
    let outcome = engine
        .call(Op::Remove { id: 5 }, &mut path)
        .expect("remove");
    assert!(matches!(outcome, QueryOutcome::Mutation { id: 5, .. }));
    for probe in [Op::FindPath { u: 5, v: 0 }, Op::FindPath { u: 1, v: 5 }] {
        assert!(matches!(
            engine.call(probe, &mut path),
            Err(ServeError::PointRetired { point: 5 })
        ));
    }

    // Duplicate inserts and unknown/re-removed ids answer typed.
    let dup = Op::insert(&[42.0, -7.0]).expect("dim 2 fits");
    assert!(matches!(
        engine.call(dup, &mut path),
        Err(ServeError::Duplicate { of }) if of == id
    ));
    assert!(matches!(
        engine.call(Op::Remove { id: 9999 }, &mut path),
        Err(ServeError::BadEndpoint { point: 9999 })
    ));
    assert!(matches!(
        engine.call(Op::Remove { id: 5 }, &mut path),
        Err(ServeError::PointRetired { point: 5 })
    ));

    // Mutation counters and the per-shard epoch byte land in Stats.
    let snap = engine.snapshot();
    assert_eq!(snap.inserts, 1);
    assert_eq!(snap.removes, 1);
    let expect_byte = (handle.epoch_id() & 0xff) as u8;
    for shard in 0..2 {
        let byte = ((snap.shard_epochs >> (8 * shard)) & 0xff) as u8;
        assert_eq!(byte, expect_byte, "shard {shard} epoch byte");
    }
}

#[test]
fn static_backends_reject_mutations_typed() {
    let points = hopspan_metric::EuclideanSpace::from_points(&uniform(30, 2, 5));
    let engine = ShardedNavigator::replicated(
        &points,
        &hopspan_serve::BackendParams {
            build_router: false,
            build_ft: false,
            ..hopspan_serve::BackendParams::default()
        },
        ServeConfig::default(),
    )
    .expect("static engine builds");
    let mut path = Vec::new();
    assert!(matches!(
        engine.call(Op::insert(&[1.0, 2.0]).expect("dim 2 fits"), &mut path),
        Err(ServeError::Unsupported {
            opcode: wire::opcode::INSERT
        })
    ));
    assert!(matches!(
        engine.call(Op::Remove { id: 3 }, &mut path),
        Err(ServeError::Unsupported {
            opcode: wire::opcode::REMOVE
        })
    ));
    assert!(engine.dynamic_handle().is_none());
}

#[test]
fn mutations_serve_over_tcp_with_epoch_echo() {
    let engine = Arc::new(dynamic_engine(32, 7, ServeConfig::default()));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("server binds");
    let mut stream = TcpStream::connect(server.local_addr()).expect("client connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client timeout");

    let mut frames = Vec::new();
    let insert = Op::insert(&[33.5, 21.25]).expect("dim 2 fits");
    wire::encode_request_into(1, &insert, &mut frames);
    wire::encode_request_into(2, &Op::Remove { id: 4 }, &mut frames);
    wire::encode_request_into(3, &Op::FindPath { u: 0, v: 9 }, &mut frames);
    wire::encode_request_into(4, &Op::FindPath { u: 4, v: 9 }, &mut frames);
    use std::io::Write;
    stream.write_all(&frames).expect("client writes");

    let mut body = Vec::new();
    for want_id in 1u64..=4 {
        assert!(
            hopspan_serve::read_frame(&mut stream, &mut body).expect("response frame"),
            "connection must stay open"
        );
        let view = wire::decode_frame(&body).expect("response decodes");
        assert_eq!(view.request_id, want_id);
        match wire::decode_response(&view).expect("response parses") {
            Response::Mutation { id, epoch } => {
                assert!(want_id <= 2, "mutation reply for a mutation request");
                if want_id == 1 {
                    assert_eq!(id, 32, "first insert gets the next external id");
                } else {
                    assert_eq!(id, 4);
                }
                assert!(epoch >= 1);
            }
            Response::Path {
                outcome,
                path,
                epoch,
            } => {
                assert_eq!(want_id, 3);
                assert_eq!(outcome, QueryOutcome::Full);
                assert!(path.len() >= 2);
                assert!(epoch >= 1, "dynamic replies echo a live epoch id");
            }
            Response::Error(e) => {
                assert_eq!(want_id, 4);
                assert!(matches!(e, ServeError::PointRetired { point: 4 }));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    server.shutdown();
}
