//! Chaos probes against a **live** `hopspan-serve` TCP server: injected
//! worker panics and malformed wire frames. The invariant mirrors the
//! rest of the campaign — every connection gets a *typed* error frame
//! (never a hang, never an escaped panic), and the server keeps
//! serving afterwards.
//!
//! Probes are deterministic: a single connection drives a
//! single-worker shard sequentially, so injected panic counts are a
//! pure function of `(period, queries)`, and every malformed frame has
//! exactly one correct typed answer.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use hopspan_serve::wire::{self, status};
use hopspan_serve::{
    read_frame, Backend, BackendParams, Op, ServeConfig, Server, ServerHandle, ShardedNavigator,
};

use crate::OutcomeKind;

/// Probe replies must arrive well under this; hitting it is the
/// "server hung" violation the family exists to catch.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// The malformed-frame sub-family: each kind is one specific way a
/// client can violate the wire protocol, with one specific typed
/// answer the server must give.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFaultKind {
    /// Valid frame with the magic bytes corrupted → `ERR_WIRE`, close.
    BadMagic,
    /// Valid frame with a corrupted checksum byte → `ERR_WIRE`, close.
    BadChecksum,
    /// Length prefix smaller than the minimum frame → `ERR_WIRE`,
    /// close.
    Truncated,
    /// Checksum-valid frame with an unassigned opcode → typed
    /// `ERR_UNSUPPORTED`, connection **stays open**.
    UnknownOpcode,
    /// Length prefix beyond `MAX_FRAME` → `ERR_WIRE`, close, without
    /// the server ever buffering the claimed length.
    Oversized,
    /// The worst-case hostile prefix, `u32::MAX` (≈ 4 GiB claimed) →
    /// `ERR_WIRE`, close, and the rejection must precede any
    /// allocation.
    OversizedHuge,
}

impl WireFaultKind {
    /// Every malformed-frame kind, in campaign order.
    pub const ALL: [WireFaultKind; 6] = [
        WireFaultKind::BadMagic,
        WireFaultKind::BadChecksum,
        WireFaultKind::Truncated,
        WireFaultKind::UnknownOpcode,
        WireFaultKind::Oversized,
        WireFaultKind::OversizedHuge,
    ];

    /// Short stable tag for reports.
    pub fn tag(&self) -> &'static str {
        match self {
            WireFaultKind::BadMagic => "bad-magic",
            WireFaultKind::BadChecksum => "bad-checksum",
            WireFaultKind::Truncated => "truncated",
            WireFaultKind::UnknownOpcode => "unknown-opcode",
            WireFaultKind::Oversized => "oversized",
            WireFaultKind::OversizedHuge => "oversized-huge",
        }
    }

    /// Whether the server must close the connection after answering.
    fn closes_connection(&self) -> bool {
        !matches!(self, WireFaultKind::UnknownOpcode)
    }
}

/// Builds the shared backend every serve probe attacks (FindPath-only:
/// the probes never route, so the router/FT layers are skipped to keep
/// the campaign fast).
pub(crate) fn build_serve_backend(n: usize, seed: u64) -> Result<Arc<Backend>, String> {
    let mut rng = rand::rngs::Pcg32::new(seed, 0x5e4e);
    let points = hopspan_metric::gen::uniform_points(n, 2, &mut rng);
    let params = BackendParams {
        seed,
        tree_budget: 6,
        k: 2,
        build_router: false,
        build_ft: false,
        ..BackendParams::default()
    };
    Backend::build(&points, &params)
        .map(Arc::new)
        .map_err(|e| format!("serve backend build failed: {e}"))
}

/// Starts a fresh single-shard engine + TCP server over `backend`.
fn start_server(
    backend: &Arc<Backend>,
    chaos_panic_period: Option<u64>,
) -> Result<(Arc<ShardedNavigator>, ServerHandle), String> {
    let cfg = ServeConfig {
        shards: 1,
        workers_per_shard: 1,
        max_batch: 4,
        queue_depth: 16,
        chaos_panic_period,
        ..ServeConfig::default()
    };
    let engine = ShardedNavigator::shared(Arc::clone(backend), cfg)
        .map(Arc::new)
        .map_err(|e| format!("engine start failed: {e}"))?;
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0")
        .map_err(|e| format!("server bind failed: {e}"))?;
    Ok((engine, server))
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .map_err(|e| format!("set_read_timeout failed: {e}"))?;
    Ok(stream)
}

/// Reads one reply frame and returns `(status, request_id)`.
fn read_reply(stream: &mut TcpStream, body: &mut Vec<u8>) -> Result<(u8, u64), String> {
    match read_frame(stream, body) {
        Ok(true) => {}
        Ok(false) => return Err("connection closed before the reply".to_string()),
        Err(e) => return Err(format!("reply read failed (server hung?): {e}")),
    }
    let view = wire::decode_frame(body).map_err(|e| format!("reply frame malformed: {e}"))?;
    Ok((view.status, view.request_id))
}

/// Sends one valid `FindPath` and demands a `status::OK` answer —
/// the "server is still alive" check after every probe.
fn liveness_status(addr: SocketAddr, n: usize) -> Result<u8, String> {
    let mut stream = connect(addr)?;
    let mut frame = Vec::new();
    wire::encode_request_into(
        u64::MAX,
        &Op::FindPath {
            u: 0,
            v: (n - 1) as u32,
        },
        &mut frame,
    );
    stream
        .write_all(&frame)
        .map_err(|e| format!("liveness write failed: {e}"))?;
    let mut body = Vec::new();
    match read_reply(&mut stream, &mut body)? {
        (s, u64::MAX) => Ok(s),
        (s, id) => Err(format!("liveness reply was (status {s}, id {id})")),
    }
}

fn check_alive(addr: SocketAddr, n: usize) -> Result<(), String> {
    match liveness_status(addr, n)? {
        status::OK => Ok(()),
        s => Err(format!("liveness reply status was {s}, expected OK")),
    }
}

/// Worker-panic probe: a server whose shard worker panics on every
/// `period`-th job must answer every one of `queries` sequential
/// requests — `ERR_WORKER_PANIC` for the injected ones, `OK` for the
/// rest — and stay alive afterwards.
pub(crate) fn worker_panic_probe(
    backend: &Arc<Backend>,
    period: u64,
    queries: u64,
) -> (OutcomeKind, String) {
    match worker_panic_probe_inner(backend, period, queries) {
        Ok(detail) => (OutcomeKind::TypedError, detail),
        Err(detail) => (OutcomeKind::Violation, detail),
    }
}

fn worker_panic_probe_inner(
    backend: &Arc<Backend>,
    period: u64,
    queries: u64,
) -> Result<String, String> {
    let n = backend.len();
    let (_engine, server) = start_server(backend, Some(period))?;
    let addr = server.local_addr();
    let mut stream = connect(addr)?;
    let mut frame = Vec::new();
    let mut body = Vec::new();
    let mut panicked = 0u64;
    let mut full = 0u64;
    for i in 0..queries {
        let u = (i % n as u64) as u32;
        let v = ((u as u64 + 1 + i % (n as u64 - 2)) % n as u64) as u32;
        frame.clear();
        wire::encode_request_into(i, &Op::FindPath { u, v }, &mut frame);
        stream
            .write_all(&frame)
            .map_err(|e| format!("request {i} write failed: {e}"))?;
        match read_reply(&mut stream, &mut body)? {
            (status::OK, id) if id == i => full += 1,
            (status::ERR_WORKER_PANIC, id) if id == i => panicked += 1,
            (s, id) => {
                return Err(format!(
                    "request {i} answered with (status {s}, id {id}), \
                     expected OK or ERR_WORKER_PANIC"
                ))
            }
        }
    }
    let expect_panics = queries / period;
    if panicked != expect_panics || full != queries - expect_panics {
        return Err(format!(
            "period {period}: expected {expect_panics}/{queries} injected \
             panics, observed {panicked} panics + {full} full"
        ));
    }
    // The liveness request is the (queries + 1)-th job, so when that
    // ordinal lands on a period boundary it receives the injected
    // panic itself — typed, by design. One retry (periods are ≥ 2)
    // must then come back clean.
    match liveness_status(addr, n)? {
        status::OK => {}
        status::ERR_WORKER_PANIC => check_alive(addr, n)?,
        s => return Err(format!("liveness reply status was {s}, expected OK")),
    }
    server.shutdown();
    Ok(format!(
        "period={period} panics={panicked}/{queries} typed, server alive"
    ))
}

/// Malformed-frame probe against a shared live server: the frame must
/// be answered with its kind's typed error, the connection must close
/// (or stay open) exactly as specified, and the server must keep
/// serving fresh connections.
pub(crate) fn wire_fault_probe(
    addr: SocketAddr,
    n: usize,
    kind: WireFaultKind,
    request_id: u64,
) -> (OutcomeKind, String) {
    match wire_fault_probe_inner(addr, n, kind, request_id) {
        Ok(detail) => (OutcomeKind::TypedError, detail),
        Err(detail) => (OutcomeKind::Violation, detail),
    }
}

/// Builds the malformed bytes for `kind`. Returns the bytes and the
/// status the server must answer with.
fn malformed_frame(kind: WireFaultKind, request_id: u64, n: usize) -> (Vec<u8>, u8) {
    let mut frame = Vec::new();
    wire::encode_request_into(
        request_id,
        &Op::FindPath {
            u: 1,
            v: (n - 1) as u32,
        },
        &mut frame,
    );
    match kind {
        WireFaultKind::BadMagic => {
            // Byte 4 is the first magic byte ('H').
            frame[4] = b'X';
            (frame, status::ERR_WIRE)
        }
        WireFaultKind::BadChecksum => {
            let last = frame.len() - 1;
            frame[last] ^= 0xFF;
            (frame, status::ERR_WIRE)
        }
        WireFaultKind::Truncated => {
            // An honest prefix for a body far below the minimum frame.
            let mut f = 10u32.to_le_bytes().to_vec();
            f.extend_from_slice(&[0u8; 10]);
            (f, status::ERR_WIRE)
        }
        WireFaultKind::UnknownOpcode => {
            // Checksum-valid body with an unassigned opcode byte.
            let mut body = frame[4..].to_vec();
            body[6] = 200;
            let cs_at = body.len() - 8;
            let cs = wire::fnv1a(&body[..cs_at]);
            body[cs_at..].copy_from_slice(&cs.to_le_bytes());
            let mut f = (body.len() as u32).to_le_bytes().to_vec();
            f.extend_from_slice(&body);
            (f, status::ERR_UNSUPPORTED)
        }
        WireFaultKind::Oversized => {
            let f = (wire::MAX_FRAME + 1).to_le_bytes().to_vec();
            (f, status::ERR_WIRE)
        }
        WireFaultKind::OversizedHuge => {
            let f = u32::MAX.to_le_bytes().to_vec();
            (f, status::ERR_WIRE)
        }
    }
}

fn wire_fault_probe_inner(
    addr: SocketAddr,
    n: usize,
    kind: WireFaultKind,
    request_id: u64,
) -> Result<String, String> {
    let mut stream = connect(addr)?;
    let (bytes, want_status) = malformed_frame(kind, request_id, n);
    stream
        .write_all(&bytes)
        .map_err(|e| format!("{}: write failed: {e}", kind.tag()))?;
    let mut body = Vec::new();
    let (got_status, _id) =
        read_reply(&mut stream, &mut body).map_err(|e| format!("{}: {e}", kind.tag()))?;
    if got_status != want_status {
        return Err(format!(
            "{}: answered status {got_status}, expected {want_status}",
            kind.tag()
        ));
    }
    if kind.closes_connection() {
        match read_frame(&mut stream, &mut body) {
            Ok(false) => {}
            Ok(true) => {
                return Err(format!(
                    "{}: server kept the corrupted connection open",
                    kind.tag()
                ))
            }
            Err(e) => return Err(format!("{}: close read failed: {e}", kind.tag())),
        }
    } else {
        // The connection must still answer a valid request.
        let mut frame = Vec::new();
        wire::encode_request_into(
            request_id ^ 1,
            &Op::FindPath {
                u: 0,
                v: (n - 1) as u32,
            },
            &mut frame,
        );
        stream
            .write_all(&frame)
            .map_err(|e| format!("{}: follow-up write failed: {e}", kind.tag()))?;
        match read_reply(&mut stream, &mut body).map_err(|e| format!("{}: {e}", kind.tag()))? {
            (status::OK, id) if id == request_id ^ 1 => {}
            (s, id) => {
                return Err(format!(
                    "{}: follow-up answered (status {s}, id {id})",
                    kind.tag()
                ))
            }
        }
    }
    check_alive(addr, n).map_err(|e| format!("{}: {e}", kind.tag()))?;
    Ok(format!("{}: typed status {want_status}", kind.tag()))
}

/// Starts the shared wire-probe server. Returned handle must outlive
/// every [`wire_fault_probe`] call against its address.
pub(crate) fn start_wire_server(
    backend: &Arc<Backend>,
) -> Result<(Arc<ShardedNavigator>, ServerHandle), String> {
    start_server(backend, None)
}
