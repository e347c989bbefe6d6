//! The versioned, length-prefixed binary wire protocol.
//!
//! Every frame on the wire is a little-endian `u32` body length
//! followed by the body:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | magic `"HSPN"` |
//! | 4      | 2    | version (`u16` LE, currently [`VERSION`]) |
//! | 6      | 1    | opcode ([`opcode`]) |
//! | 7      | 1    | status ([`status`]; `0` in requests) |
//! | 8      | 8    | request id (`u64` LE, echoed in the response) |
//! | 16     | n    | opcode/status-specific payload |
//! | 16 + n | 8    | FNV-1a checksum (`u64` LE) over bytes `0 .. 16 + n` |
//!
//! The checksum uses the workspace's golden-hash FNV-1a, so a frame's
//! bytes are seed-stable across processes and platforms. Any
//! single-byte corruption of the body is rejected typed: magic and
//! version mismatches name themselves, everything else fails the
//! checksum (pinned by the proptest in `tests/wire_roundtrip.rs`).
//!
//! Encoders append to their output buffer (they do not clear it), so a
//! client can pack a whole pipeline of frames into one buffer and issue
//! a single write. With warmed buffers encoding performs no heap
//! allocation.

use crate::{DegradeCode, FaultSet, MetricsSnapshot, Op, QueryOutcome, ServeError};

/// FNV-1a over a byte slice (the workspace golden-hash convention).
pub use hopspan_store::fnv1a;

/// Frame magic: `"HSPN"`.
pub const MAGIC: [u8; 4] = *b"HSPN";

/// Current protocol version. Bump on any layout change; golden byte
/// pins in `tests/wire_roundtrip.rs` fail when the layout drifts
/// without a bump. Version 2 widened the `Stats` payload from 10 to
/// 15 × `u64` (resilience counters + the packed health word).
/// Version 3 added the `Insert`/`Remove` mutation opcodes, widened
/// `Stats` to 19 × `u64` (mutation counters + the packed epoch word)
/// and inserted the answering epoch id into every path response — a
/// v2 peer is answered with a typed `ERR_UNSUPPORTED`, never a
/// misparsed frame.
pub const VERSION: u16 = 3;

/// Maximum accepted body length (excluding the 4-byte prefix). Large
/// enough for a stats snapshot or a k-hop path at any practical k;
/// small enough that a hostile length prefix cannot balloon memory.
pub const MAX_FRAME: u32 = 64 * 1024;

/// Fixed header length: magic + version + opcode + status + request id.
pub const HEADER_LEN: usize = 16;

/// Trailing checksum length.
pub const CHECKSUM_LEN: usize = 8;

/// Request/response opcodes.
pub mod opcode {
    /// Theorem 1.2 navigation path query.
    pub const FIND_PATH: u8 = 0;
    /// Theorem 1.3 compact-routing query.
    pub const ROUTE: u8 = 1;
    /// §6 fault-avoiding query.
    pub const ROUTE_AVOIDING: u8 = 2;
    /// Metrics snapshot.
    pub const STATS: u8 = 3;
    /// Write an `HSNP` structure snapshot to the server's configured
    /// path. Handled at the connection layer (not a batched query);
    /// the response carries the written size and checksum.
    pub const SNAPSHOT: u8 = 4;
    /// Re-load and verify the configured structure snapshot against
    /// the live backend. Same response payload as `SNAPSHOT`.
    pub const LOAD_SNAPSHOT: u8 = 5;
    /// Online point insert (dynamic engines; wire v3). Payload:
    /// `dim u8 · dim × f64-bits u64`.
    pub const INSERT: u8 = 6;
    /// Online point remove (dynamic engines; wire v3). Payload:
    /// `id u32`.
    pub const REMOVE: u8 = 7;
}

/// Response status bytes. `0`/`1` carry answers; `2..` carry typed
/// failures ([`ServeError`]); [`ERR_WIRE`] answers an undecodable
/// request frame.
pub mod status {
    /// In-contract answer.
    pub const OK: u8 = 0;
    /// Best-effort degraded answer.
    pub const OK_DEGRADED: u8 = 1;
    /// [`crate::ServeError::Overloaded`].
    pub const ERR_OVERLOADED: u8 = 2;
    /// [`crate::ServeError::ShuttingDown`].
    pub const ERR_SHUTTING_DOWN: u8 = 3;
    /// [`crate::ServeError::BadRequest`].
    pub const ERR_BAD_REQUEST: u8 = 4;
    /// [`crate::ServeError::BadEndpoint`].
    pub const ERR_BAD_ENDPOINT: u8 = 5;
    /// [`crate::ServeError::Uncovered`].
    pub const ERR_UNCOVERED: u8 = 6;
    /// [`crate::ServeError::TooManyFaults`].
    pub const ERR_TOO_MANY_FAULTS: u8 = 7;
    /// [`crate::ServeError::WorkerPanicked`].
    pub const ERR_WORKER_PANIC: u8 = 8;
    /// [`crate::ServeError::Unsupported`].
    pub const ERR_UNSUPPORTED: u8 = 9;
    /// [`crate::ServeError::Internal`].
    pub const ERR_INTERNAL: u8 = 10;
    /// The request frame itself failed to decode; the body echoes no
    /// payload and the connection closes after this frame.
    pub const ERR_WIRE: u8 = 11;
    /// [`crate::ServeError::PointRetired`] (wire v3).
    pub const ERR_RETIRED: u8 = 12;
    /// [`crate::ServeError::Duplicate`] (wire v3).
    pub const ERR_DUPLICATE: u8 = 13;
}

/// Typed decode failures. Every corrupted, truncated or
/// version-skewed frame lands in exactly one of these — never a panic,
/// never a silent misparse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The body is shorter than header + checksum, or shorter than its
    /// payload claims.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes present.
        got: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic,
    /// The version field does not match [`VERSION`].
    BadVersion {
        /// The version the peer sent.
        got: u16,
    },
    /// The FNV-1a checksum does not match the body.
    BadChecksum {
        /// Checksum computed over the received bytes.
        expected: u64,
        /// Checksum carried by the frame.
        got: u64,
    },
    /// The opcode byte is not a known [`opcode`].
    UnknownOpcode {
        /// The offending byte.
        got: u8,
    },
    /// The status byte is not a known [`status`].
    UnknownStatus {
        /// The offending byte.
        got: u8,
    },
    /// The payload does not parse under its opcode/status.
    BadPayload,
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// The claimed body length.
        len: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            WireError::Truncated { need, got } => {
                write!(f, "truncated frame: need {need} bytes, got {got}")
            }
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadVersion { got } => {
                write!(f, "unsupported protocol version {got} (want {VERSION})")
            }
            WireError::BadChecksum { expected, got } => {
                write!(
                    f,
                    "checksum mismatch: computed {expected:016x}, frame says {got:016x}"
                )
            }
            WireError::UnknownOpcode { got } => write!(f, "unknown opcode {got}"),
            WireError::UnknownStatus { got } => write!(f, "unknown status {got}"),
            WireError::BadPayload => write!(f, "payload does not parse"),
            WireError::Oversized { len } => {
                write!(f, "length prefix {len} exceeds the {MAX_FRAME}-byte cap")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A decoded frame: header fields plus a borrowed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameView<'a> {
    /// The frame's opcode byte.
    pub opcode: u8,
    /// The frame's status byte (`0` in requests).
    pub status: u8,
    /// The request id (echoed by responses).
    pub request_id: u64,
    /// The opcode/status-specific payload bytes.
    pub payload: &'a [u8],
}

/// Starts a frame in `out`: length-prefix placeholder plus header.
/// Returns the index of the placeholder for [`end_frame`].
fn begin_frame(op: u8, st: u8, request_id: u64, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(op);
    out.push(st);
    out.extend_from_slice(&request_id.to_le_bytes());
    start
}

/// Seals a frame begun at `start`: appends the checksum and backfills
/// the length prefix.
fn end_frame(start: usize, out: &mut Vec<u8>) {
    let cs = fnv1a(&out[start + 4..]);
    out.extend_from_slice(&cs.to_le_bytes());
    let body_len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&body_len.to_le_bytes());
}

/// Encodes a raw frame (length prefix + body) from explicit header
/// fields and payload bytes. Higher-level encoders below are built on
/// this; it is public so tests and fuzzers can build arbitrary frames.
pub fn encode_frame_into(op: u8, st: u8, request_id: u64, payload: &[u8], out: &mut Vec<u8>) {
    let start = begin_frame(op, st, request_id, out);
    out.extend_from_slice(payload);
    end_frame(start, out);
}

/// Decodes a frame body (after the length prefix has been consumed).
///
/// # Errors
///
/// A typed [`WireError`] for truncation, bad magic, version skew, or a
/// checksum mismatch. Opcode/status bytes are *not* validated here —
/// [`decode_request`]/[`decode_response`] own that, so a checksum-valid
/// frame with an unknown opcode still yields its request id for the
/// error reply.
pub fn decode_frame(body: &[u8]) -> Result<FrameView<'_>, WireError> {
    let min = HEADER_LEN + CHECKSUM_LEN;
    if body.len() < min {
        return Err(WireError::Truncated {
            need: min,
            got: body.len(),
        });
    }
    if body[0..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_le_bytes([body[4], body[5]]);
    if version != VERSION {
        return Err(WireError::BadVersion { got: version });
    }
    let cs_at = body.len() - CHECKSUM_LEN;
    let expected = fnv1a(&body[..cs_at]);
    let got = u64::from_le_bytes(
        body[cs_at..]
            .try_into()
            .map_err(|_| WireError::BadPayload)?,
    );
    if expected != got {
        return Err(WireError::BadChecksum { expected, got });
    }
    let request_id = u64::from_le_bytes(body[8..16].try_into().map_err(|_| WireError::BadPayload)?);
    Ok(FrameView {
        opcode: body[6],
        status: body[7],
        request_id,
        payload: &body[HEADER_LEN..cs_at],
    })
}

/// Best-effort request id extraction from a frame body that failed
/// full decoding (e.g. version skew): the header layout through the
/// request id field is version-invariant, so a typed error reply can
/// still echo the peer's id. Returns `0` when the body is too short.
#[must_use]
pub fn request_id_best_effort(body: &[u8]) -> u64 {
    body.get(8..16)
        .and_then(|s| s.try_into().ok())
        .map(u64::from_le_bytes)
        .unwrap_or(0)
}

/// Encodes a request frame for `op`.
pub fn encode_request_into(request_id: u64, op: &Op, out: &mut Vec<u8>) {
    let start = begin_frame(op.opcode(), status::OK, request_id, out);
    match *op {
        Op::FindPath { u, v } | Op::Route { u, v } => {
            out.extend_from_slice(&u.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
        Op::RouteAvoiding { u, v, faults } => {
            out.extend_from_slice(&u.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
            out.push(faults.as_slice().len() as u8);
            for &p in faults.as_slice() {
                out.extend_from_slice(&p.to_le_bytes());
            }
        }
        Op::Stats => {}
        Op::Insert { coords, dim } => {
            out.push(dim);
            for &c in coords.iter().take(usize::from(dim)) {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        Op::Remove { id } => {
            out.extend_from_slice(&id.to_le_bytes());
        }
    }
    end_frame(start, out);
}

fn read_u32(b: &[u8], at: usize) -> Result<u32, WireError> {
    at.checked_add(4)
        .and_then(|end| b.get(at..end))
        .and_then(|s| s.try_into().ok())
        .map(u32::from_le_bytes)
        .ok_or(WireError::BadPayload)
}

fn read_u64(b: &[u8], at: usize) -> Result<u64, WireError> {
    at.checked_add(8)
        .and_then(|end| b.get(at..end))
        .and_then(|s| s.try_into().ok())
        .map(u64::from_le_bytes)
        .ok_or(WireError::BadPayload)
}

/// Decodes a checksum-valid frame as a request.
///
/// # Errors
///
/// [`WireError::UnknownOpcode`] or [`WireError::BadPayload`] when the
/// frame is well-formed but not a valid request.
pub fn decode_request(frame: &FrameView<'_>) -> Result<Op, WireError> {
    let p = frame.payload;
    let exact = |want: usize| {
        if p.len() == want {
            Ok(())
        } else {
            Err(WireError::BadPayload)
        }
    };
    match frame.opcode {
        opcode::FIND_PATH => {
            exact(8)?;
            Ok(Op::FindPath {
                u: read_u32(p, 0)?,
                v: read_u32(p, 4)?,
            })
        }
        opcode::ROUTE => {
            exact(8)?;
            Ok(Op::Route {
                u: read_u32(p, 0)?,
                v: read_u32(p, 4)?,
            })
        }
        opcode::ROUTE_AVOIDING => {
            if p.len() < 9 {
                return Err(WireError::BadPayload);
            }
            let nf = usize::from(p[8]);
            if nf > crate::MAX_WIRE_FAULTS {
                return Err(WireError::BadPayload);
            }
            let want = nf
                .checked_mul(4)
                .and_then(|n| n.checked_add(9))
                .ok_or(WireError::BadPayload)?;
            exact(want)?;
            let mut ids = [0u32; crate::MAX_WIRE_FAULTS];
            for (slot, raw) in ids.iter_mut().zip(p[9..want].chunks_exact(4)) {
                *slot = u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]);
            }
            let faults = FaultSet::new(&ids[..nf]).map_err(|_| WireError::BadPayload)?;
            Ok(Op::RouteAvoiding {
                u: read_u32(p, 0)?,
                v: read_u32(p, 4)?,
                faults,
            })
        }
        opcode::STATS => {
            exact(0)?;
            Ok(Op::Stats)
        }
        opcode::INSERT => {
            if p.is_empty() {
                return Err(WireError::BadPayload);
            }
            let dim_byte = p[0];
            let dim = usize::from(dim_byte);
            if dim == 0 || dim > crate::MAX_WIRE_DIM {
                return Err(WireError::BadPayload);
            }
            let want = dim
                .checked_mul(8)
                .and_then(|n| n.checked_add(1))
                .ok_or(WireError::BadPayload)?;
            exact(want)?;
            let mut coords = [0u64; crate::MAX_WIRE_DIM];
            for (slot, raw) in coords.iter_mut().zip(p[1..want].chunks_exact(8)) {
                *slot = u64::from_le_bytes([
                    raw[0], raw[1], raw[2], raw[3], raw[4], raw[5], raw[6], raw[7],
                ]);
            }
            Ok(Op::Insert {
                coords,
                dim: dim_byte,
            })
        }
        opcode::REMOVE => {
            exact(4)?;
            Ok(Op::Remove {
                id: read_u32(p, 0)?,
            })
        }
        got => Err(WireError::UnknownOpcode { got }),
    }
}

/// Encodes a successful path response: status [`status::OK`] or
/// [`status::OK_DEGRADED`], payload `reason u8 · stretch-bits u64 ·
/// epoch u64 · len u32 · len × point u32`. `epoch` is the id of the
/// epoch that answered (`0` on static engines) — the staleness witness
/// a dynamic-engine client compares against the epoch ids its
/// mutations returned.
pub fn encode_path_response_into(
    request_id: u64,
    op: u8,
    outcome: QueryOutcome,
    epoch: u64,
    path: &[usize],
    out: &mut Vec<u8>,
) {
    let (st, reason, stretch) = match outcome {
        QueryOutcome::Degraded {
            reason,
            achieved_stretch,
        } => (status::OK_DEGRADED, reason.code(), achieved_stretch),
        QueryOutcome::Full | QueryOutcome::Stats | QueryOutcome::Mutation { .. } => {
            (status::OK, 0u8, 1.0f64)
        }
    };
    let start = begin_frame(op, st, request_id, out);
    out.push(reason);
    out.extend_from_slice(&stretch.to_bits().to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(path.len() as u32).to_le_bytes());
    for &p in path {
        out.extend_from_slice(&(p as u32).to_le_bytes());
    }
    end_frame(start, out);
}

/// Encodes a mutation response ([`opcode::INSERT`] /
/// [`opcode::REMOVE`]): status [`status::OK`], payload `id u32 ·
/// epoch u64` — the affected external id and the epoch id current when
/// the mutation committed.
pub fn encode_mutation_response_into(
    request_id: u64,
    op: u8,
    id: u32,
    epoch: u64,
    out: &mut Vec<u8>,
) {
    let start = begin_frame(op, status::OK, request_id, out);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    end_frame(start, out);
}

/// Encodes a structure-snapshot request ([`opcode::SNAPSHOT`] or
/// [`opcode::LOAD_SNAPSHOT`]): empty payload.
pub fn encode_snapshot_request_into(request_id: u64, op: u8, out: &mut Vec<u8>) {
    let start = begin_frame(op, status::OK, request_id, out);
    end_frame(start, out);
}

/// Encodes a structure-snapshot response: status [`status::OK`],
/// payload `bytes u64 · checksum u64` (the snapshot file's digest).
pub fn encode_snapshot_response_into(
    request_id: u64,
    op: u8,
    bytes: u64,
    checksum: u64,
    out: &mut Vec<u8>,
) {
    let start = begin_frame(op, status::OK, request_id, out);
    out.extend_from_slice(&bytes.to_le_bytes());
    out.extend_from_slice(&checksum.to_le_bytes());
    end_frame(start, out);
}

/// Encodes a stats response: status [`status::OK`], payload
/// [`MetricsSnapshot::WIRE_FIELDS`] × `u64`.
pub fn encode_stats_response_into(request_id: u64, snap: &MetricsSnapshot, out: &mut Vec<u8>) {
    let start = begin_frame(opcode::STATS, status::OK, request_id, out);
    for v in snap.wire_fields() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    end_frame(start, out);
}

/// Encodes a typed error response: the error's status byte, payload
/// two detail `u32`s ([`ServeError::wire_params`]).
pub fn encode_error_response_into(request_id: u64, op: u8, err: ServeError, out: &mut Vec<u8>) {
    let (a, b) = err.wire_params();
    let start = begin_frame(op, err.status(), request_id, out);
    out.extend_from_slice(&a.to_le_bytes());
    out.extend_from_slice(&b.to_le_bytes());
    end_frame(start, out);
}

/// Encodes the reply to an undecodable request frame: status
/// [`status::ERR_WIRE`], empty payload. `request_id` is best-effort
/// (zero when the header itself was unreadable).
pub fn encode_wire_error_into(request_id: u64, out: &mut Vec<u8>) {
    let start = begin_frame(opcode::STATS, status::ERR_WIRE, request_id, out);
    end_frame(start, out);
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A path answer (possibly degraded).
    Path {
        /// Contract status of the answer.
        outcome: QueryOutcome,
        /// Id of the epoch that answered (`0` on static engines).
        epoch: u64,
        /// The path, source first.
        path: Vec<u32>,
    },
    /// A committed mutation: the affected id and its commit epoch.
    Mutation {
        /// The inserted or removed external id.
        id: u32,
        /// The epoch id current at commit time.
        epoch: u64,
    },
    /// A stats snapshot.
    Stats(MetricsSnapshot),
    /// A structure-snapshot digest (answers [`opcode::SNAPSHOT`] and
    /// [`opcode::LOAD_SNAPSHOT`]).
    Snapshot {
        /// Snapshot file size in bytes.
        bytes: u64,
        /// The snapshot's trailing FNV-1a checksum.
        checksum: u64,
    },
    /// A typed service failure.
    Error(ServeError),
    /// The peer could not decode our request frame.
    WireRejected,
}

/// Decodes a checksum-valid frame as a response.
///
/// # Errors
///
/// [`WireError::UnknownStatus`] or [`WireError::BadPayload`] when the
/// frame is well-formed but not a valid response.
pub fn decode_response(frame: &FrameView<'_>) -> Result<Response, WireError> {
    let p = frame.payload;
    match frame.status {
        status::OK if frame.opcode == opcode::STATS => {
            let mut chunks = p.chunks_exact(8);
            if chunks.len() != MetricsSnapshot::WIRE_FIELDS || !chunks.remainder().is_empty() {
                return Err(WireError::BadPayload);
            }
            let mut fields = [0u64; MetricsSnapshot::WIRE_FIELDS];
            for (f, raw) in fields.iter_mut().zip(&mut chunks) {
                *f = u64::from_le_bytes([
                    raw[0], raw[1], raw[2], raw[3], raw[4], raw[5], raw[6], raw[7],
                ]);
            }
            Ok(Response::Stats(MetricsSnapshot::from_wire_fields(&fields)))
        }
        status::OK if frame.opcode == opcode::SNAPSHOT || frame.opcode == opcode::LOAD_SNAPSHOT => {
            if p.len() != 16 {
                return Err(WireError::BadPayload);
            }
            Ok(Response::Snapshot {
                bytes: read_u64(p, 0)?,
                checksum: read_u64(p, 8)?,
            })
        }
        status::OK if frame.opcode == opcode::INSERT || frame.opcode == opcode::REMOVE => {
            if p.len() != 12 {
                return Err(WireError::BadPayload);
            }
            Ok(Response::Mutation {
                id: read_u32(p, 0)?,
                epoch: read_u64(p, 4)?,
            })
        }
        status::OK | status::OK_DEGRADED => {
            if p.len() < 21 {
                return Err(WireError::BadPayload);
            }
            let reason = p[0];
            let stretch = f64::from_bits(read_u64(p, 1)?);
            let epoch = read_u64(p, 9)?;
            let len = usize::try_from(read_u32(p, 17)?).map_err(|_| WireError::BadPayload)?;
            let want = len
                .checked_mul(4)
                .and_then(|n| n.checked_add(21))
                .ok_or(WireError::BadPayload)?;
            if p.len() != want {
                return Err(WireError::BadPayload);
            }
            let mut path = Vec::with_capacity(len);
            for raw in p[21..want].chunks_exact(4) {
                path.push(u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]));
            }
            let outcome = if frame.status == status::OK {
                QueryOutcome::Full
            } else {
                QueryOutcome::Degraded {
                    reason: DegradeCode::from_code(reason).ok_or(WireError::BadPayload)?,
                    achieved_stretch: stretch,
                }
            };
            Ok(Response::Path {
                outcome,
                epoch,
                path,
            })
        }
        status::ERR_WIRE => {
            if p.is_empty() {
                Ok(Response::WireRejected)
            } else {
                Err(WireError::BadPayload)
            }
        }
        st => {
            if p.len() != 8 {
                return Err(WireError::BadPayload);
            }
            let a = read_u32(p, 0)?;
            let b = read_u32(p, 4)?;
            ServeError::from_wire(st, a, b)
                .map(Response::Error)
                .ok_or(WireError::UnknownStatus { got: st })
        }
    }
}
