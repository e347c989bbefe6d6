//! Sharded batch query service over the hopspan navigators.
//!
//! The paper's navigation structures answer a query in `O(k)` hops of
//! `O(1)` local work — cheap enough that at production scale the
//! *service layer*, not the query kernel, is the component that has to
//! be engineered. This crate is that layer:
//!
//! * [`ShardedNavigator`] — partitions point-set replicas across N
//!   shards; each shard owns a prebuilt [`Backend`]
//!   ([`hopspan_core::MetricNavigator`], optional
//!   [`hopspan_core::FaultTolerantSpanner`] and
//!   [`hopspan_routing::MetricRoutingScheme`]) plus a dedicated worker
//!   pool. Workers reuse per-worker `_into` scratch buffers, so the
//!   steady-state request cycle performs **zero heap allocations**
//!   (verified by the counting-allocator test in
//!   `tests/serve_allocs.rs`).
//! * [`BatchQueue`] — work-conserving request batching: a worker
//!   blocks only while its queue is empty, then drains whatever is
//!   queued (up to `max_batch` jobs) and runs it, so a lone request is
//!   never held back waiting for company. Batches form under load,
//!   from jobs that pile up while the worker runs the previous batch.
//!   Queue depth is bounded by the per-shard slot table; admission
//!   beyond it is *typed*:
//!   [`ServeError::Overloaded`] under
//!   [`hopspan_core::DegradationPolicy::Strict`], a best-effort
//!   degraded inline answer under
//!   [`hopspan_core::DegradationPolicy::BestEffort`].
//! * [`wire`] — a versioned, length-prefixed binary protocol (magic,
//!   version, request id, opcode, FNV-1a frame checksum) served by a
//!   [`std::net::TcpListener`] accept loop ([`Server`]) with
//!   shard-affinity dispatch. No dependencies beyond `std`, consistent
//!   with the offline-deps lint R4.
//! * [`ServeMetrics`] — lock-free atomic counters and coarse log-spaced
//!   latency histograms (p50/p99), exposed through the `Stats` opcode.
//!
//! Shard dispatch hashes the query's first endpoint with the
//! workspace's seed-stable FNV-1a (not `DefaultHasher`, whose per-process
//! random keys would make replayed campaigns pick different shards).
//! Cross-process stability is pinned by `tests/serve_determinism.rs` at
//! the workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod health;
mod metrics;
pub mod server;
mod shard;
pub mod wire;

pub use batch::BatchQueue;
pub use health::{HealthCell, ShardHealth};
pub use metrics::{
    quantile_from_counts, LatencyHistogram, MetricsSnapshot, ServeMetrics, LATENCY_BUCKETS,
};
pub use server::{read_frame, Server, ServerHandle};
pub use shard::{
    shard_of_point, Backend, BackendParams, BuildError, Pending, ServeConfig, ShardedNavigator,
};

use hopspan_core::DegradeReason;

/// Maximum number of fault ids a `RouteAvoiding` request carries
/// inline. Keeping the set inline (no heap) is what lets a request be
/// a fixed-size [`Copy`] value end-to-end.
pub const MAX_WIRE_FAULTS: usize = 8;

/// Maximum dimension of a point an `Insert` request carries inline.
/// Like [`MAX_WIRE_FAULTS`], the inline array keeps [`Op`] a
/// fixed-size [`Copy`] value; coordinates travel as `f64` bit patterns
/// (`u64`) so the request stays `Eq`-comparable and byte-stable.
pub const MAX_WIRE_DIM: usize = 8;

/// A fixed-capacity, inline fault set for `RouteAvoiding` requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSet {
    ids: [u32; MAX_WIRE_FAULTS],
    len: u8,
}

impl FaultSet {
    /// Builds a fault set from a slice of point ids.
    ///
    /// # Errors
    ///
    /// [`ServeError::TooManyFaults`] when more than
    /// [`MAX_WIRE_FAULTS`] ids are supplied.
    pub fn new(ids: &[u32]) -> Result<Self, ServeError> {
        if ids.len() > MAX_WIRE_FAULTS {
            return Err(ServeError::TooManyFaults {
                got: ids.len() as u32,
                limit: MAX_WIRE_FAULTS as u32,
            });
        }
        let mut set = FaultSet {
            ids: [0; MAX_WIRE_FAULTS],
            len: ids.len() as u8,
        };
        set.ids[..ids.len()].copy_from_slice(ids);
        Ok(set)
    }

    /// The empty fault set.
    pub fn empty() -> Self {
        FaultSet {
            ids: [0; MAX_WIRE_FAULTS],
            len: 0,
        }
    }

    /// The fault ids as a slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.ids[..self.len as usize]
    }
}

/// One service request. Requests are fixed-size [`Copy`] values so the
/// admission path moves them without touching the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A Theorem 1.2 navigation query: the k-hop path from `u` to `v`.
    FindPath {
        /// Source point.
        u: u32,
        /// Target point.
        v: u32,
    },
    /// A Theorem 1.3 compact-routing query: the routed node path.
    Route {
        /// Source point.
        u: u32,
        /// Target point.
        v: u32,
    },
    /// A §6 fault-tolerant query avoiding an inline fault set.
    RouteAvoiding {
        /// Source point.
        u: u32,
        /// Target point.
        v: u32,
        /// Points the path must avoid.
        faults: FaultSet,
    },
    /// A metrics snapshot request ([`MetricsSnapshot`]).
    Stats,
    /// An online point insert (dynamic engines only): `dim` leading
    /// entries of `coords` are the point's coordinates as `f64` bit
    /// patterns. Build with [`Op::insert`].
    Insert {
        /// Coordinates as `f64::to_bits` values; entries past `dim`
        /// are zero.
        coords: [u64; MAX_WIRE_DIM],
        /// Number of meaningful coordinates.
        dim: u8,
    },
    /// An online point remove by external id (dynamic engines only).
    /// The id is tombstoned immediately and answers
    /// [`ServeError::PointRetired`] from then on.
    Remove {
        /// The external id to retire.
        id: u32,
    },
}

impl Op {
    /// Builds an [`Op::Insert`] from a coordinate slice.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when the dimension is zero or
    /// exceeds [`MAX_WIRE_DIM`].
    pub fn insert(coords: &[f64]) -> Result<Self, ServeError> {
        if coords.is_empty() || coords.len() > MAX_WIRE_DIM {
            return Err(ServeError::BadRequest);
        }
        let mut bits = [0u64; MAX_WIRE_DIM];
        for (slot, &c) in bits.iter_mut().zip(coords) {
            *slot = c.to_bits();
        }
        Ok(Op::Insert {
            coords: bits,
            dim: coords.len() as u8,
        })
    }

    /// The wire opcode for this request.
    pub fn opcode(&self) -> u8 {
        match self {
            Op::FindPath { .. } => wire::opcode::FIND_PATH,
            Op::Route { .. } => wire::opcode::ROUTE,
            Op::RouteAvoiding { .. } => wire::opcode::ROUTE_AVOIDING,
            Op::Stats => wire::opcode::STATS,
            Op::Insert { .. } => wire::opcode::INSERT,
            Op::Remove { .. } => wire::opcode::REMOVE,
        }
    }

    /// The point whose FNV-1a hash picks the serving shard. `Stats`
    /// has no endpoint and pins to shard 0; so does `Insert`, whose id
    /// does not exist yet (dynamic engines share one mutation ledger
    /// across shards, so any shard is correct).
    pub fn affinity_point(&self) -> u32 {
        match *self {
            Op::FindPath { u, .. } | Op::Route { u, .. } | Op::RouteAvoiding { u, .. } => u,
            Op::Stats | Op::Insert { .. } => 0,
            Op::Remove { id } => id,
        }
    }
}

/// Contract status of a served answer, mirroring
/// [`hopspan_core::FtPathOutcome`] plus the service-level overload
/// escape hatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryOutcome {
    /// The answer is in contract (§6 stretch/hop bounds).
    Full,
    /// The answer is best-effort; the contract does not apply.
    Degraded {
        /// Why the contract does not apply.
        reason: DegradeCode,
        /// Realized stretch of the returned path (`1.0` when not
        /// meaningful, e.g. coincident endpoints).
        achieved_stretch: f64,
    },
    /// A stats snapshot (no path payload).
    Stats,
    /// A committed mutation (dynamic engines): the affected external
    /// id and the epoch id current at commit time. For inserts the
    /// point becomes navigable once query replies echo a *later*
    /// epoch; for removes the tombstone is already in effect.
    Mutation {
        /// The inserted or removed external id.
        id: u32,
        /// The epoch id published when the mutation committed.
        epoch: u64,
    },
}

/// Wire-stable degradation reasons. The first three mirror
/// [`hopspan_core::DegradeReason`]; [`DegradeCode::Overload`] marks an
/// answer computed inline on the submitting thread because the shard
/// queue was full under `BestEffort` — the path itself may be in
/// contract, but the service's batching/latency contract was not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeCode {
    /// More faults than the spanner's budget f.
    BudgetExceeded,
    /// No cover tree contains the pair.
    Uncovered,
    /// Every covering tree was wiped out by the fault set.
    NoSurvivingTree,
    /// Served inline past the admission limit.
    Overload,
    /// Served inline because the owning shard was `Down`. No engine
    /// produces it any more (a `Down` owner's requests fail over to a
    /// live shard); it keeps wire code 5 so decoders still accept it.
    ShardDown,
}

impl DegradeCode {
    /// Stable one-byte wire encoding.
    pub fn code(self) -> u8 {
        match self {
            DegradeCode::BudgetExceeded => 1,
            DegradeCode::Uncovered => 2,
            DegradeCode::NoSurvivingTree => 3,
            DegradeCode::Overload => 4,
            DegradeCode::ShardDown => 5,
        }
    }

    /// Decodes a wire byte; `None` for unknown codes.
    pub fn from_code(b: u8) -> Option<Self> {
        match b {
            1 => Some(DegradeCode::BudgetExceeded),
            2 => Some(DegradeCode::Uncovered),
            3 => Some(DegradeCode::NoSurvivingTree),
            4 => Some(DegradeCode::Overload),
            5 => Some(DegradeCode::ShardDown),
            _ => None,
        }
    }
}

impl From<DegradeReason> for DegradeCode {
    fn from(r: DegradeReason) -> Self {
        match r {
            DegradeReason::BudgetExceeded { .. } => DegradeCode::BudgetExceeded,
            DegradeReason::Uncovered => DegradeCode::Uncovered,
            DegradeReason::NoSurvivingTree => DegradeCode::NoSurvivingTree,
            _ => DegradeCode::Uncovered,
        }
    }
}

/// Typed service failures. Every variant is `Copy` with two `u32`
/// detail parameters at most, so errors cross the wire without loss
/// (see [`wire`] status bytes) and slot delivery never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The shard's admission limit was reached and the request was
    /// shed (Strict policy).
    Overloaded {
        /// The shard's queue depth at rejection time.
        depth: u32,
    },
    /// The service is draining; no new requests are admitted.
    ShuttingDown,
    /// The request was structurally invalid before touching a backend.
    BadRequest,
    /// An endpoint is outside the point set or inside the fault set.
    BadEndpoint {
        /// The offending point id.
        point: u32,
    },
    /// No cover tree contains the pair (Strict policy surfaces this
    /// instead of degrading).
    Uncovered {
        /// Source point.
        u: u32,
        /// Target point.
        v: u32,
    },
    /// More faults than the backend tolerates (or than the wire
    /// carries).
    TooManyFaults {
        /// Number supplied.
        got: u32,
        /// The applicable limit.
        limit: u32,
    },
    /// A worker panicked while executing this request; the panic was
    /// contained and the worker survived.
    WorkerPanicked,
    /// The backend serving this shard lacks the structure for the
    /// opcode (e.g. `Route` on a navigator-only backend, or a mutation
    /// on a static backend).
    Unsupported {
        /// The unsupported opcode.
        opcode: u8,
    },
    /// The point was removed from a dynamic engine; its id is
    /// permanently tombstoned and never reused.
    PointRetired {
        /// The retired external id.
        point: u32,
    },
    /// The inserted point coincides with a live point (distance
    /// exactly zero).
    Duplicate {
        /// The colliding live external id.
        of: u32,
    },
    /// An internal invariant failed; the connection stays usable.
    Internal,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ServeError::Overloaded { depth } => {
                write!(f, "shard overloaded (queue depth {depth}); request shed")
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::BadRequest => write!(f, "malformed request"),
            ServeError::BadEndpoint { point } => {
                write!(f, "endpoint {point} is out of range or faulty")
            }
            ServeError::Uncovered { u, v } => write!(f, "no cover tree contains ({u}, {v})"),
            ServeError::TooManyFaults { got, limit } => {
                write!(f, "{got} faults exceed the limit {limit}")
            }
            ServeError::WorkerPanicked => write!(f, "worker panicked (contained)"),
            ServeError::Unsupported { opcode } => {
                write!(f, "opcode {opcode} unsupported by this backend")
            }
            ServeError::PointRetired { point } => {
                write!(f, "point {point} was retired from the point set")
            }
            ServeError::Duplicate { of } => {
                write!(f, "point duplicates live point {of}")
            }
            ServeError::Internal => write!(f, "internal service error"),
        }
    }
}

impl std::error::Error for ServeError {}

impl ServeError {
    /// The wire status byte for this error (see [`wire::status`]).
    pub fn status(self) -> u8 {
        match self {
            ServeError::Overloaded { .. } => wire::status::ERR_OVERLOADED,
            ServeError::ShuttingDown => wire::status::ERR_SHUTTING_DOWN,
            ServeError::BadRequest => wire::status::ERR_BAD_REQUEST,
            ServeError::BadEndpoint { .. } => wire::status::ERR_BAD_ENDPOINT,
            ServeError::Uncovered { .. } => wire::status::ERR_UNCOVERED,
            ServeError::TooManyFaults { .. } => wire::status::ERR_TOO_MANY_FAULTS,
            ServeError::WorkerPanicked => wire::status::ERR_WORKER_PANIC,
            ServeError::Unsupported { .. } => wire::status::ERR_UNSUPPORTED,
            ServeError::PointRetired { .. } => wire::status::ERR_RETIRED,
            ServeError::Duplicate { .. } => wire::status::ERR_DUPLICATE,
            ServeError::Internal => wire::status::ERR_INTERNAL,
        }
    }

    /// The two `u32` detail parameters carried in an error response
    /// payload.
    pub fn wire_params(self) -> (u32, u32) {
        match self {
            ServeError::Overloaded { depth } => (depth, 0),
            ServeError::BadEndpoint { point } => (point, 0),
            ServeError::Uncovered { u, v } => (u, v),
            ServeError::TooManyFaults { got, limit } => (got, limit),
            ServeError::Unsupported { opcode } => (u32::from(opcode), 0),
            ServeError::PointRetired { point } => (point, 0),
            ServeError::Duplicate { of } => (of, 0),
            ServeError::ShuttingDown
            | ServeError::BadRequest
            | ServeError::WorkerPanicked
            | ServeError::Internal => (0, 0),
        }
    }

    /// Rebuilds an error from its wire status byte and detail
    /// parameters; `None` for status bytes that are not errors.
    pub fn from_wire(status: u8, a: u32, b: u32) -> Option<Self> {
        match status {
            wire::status::ERR_OVERLOADED => Some(ServeError::Overloaded { depth: a }),
            wire::status::ERR_SHUTTING_DOWN => Some(ServeError::ShuttingDown),
            wire::status::ERR_BAD_REQUEST => Some(ServeError::BadRequest),
            wire::status::ERR_BAD_ENDPOINT => Some(ServeError::BadEndpoint { point: a }),
            wire::status::ERR_UNCOVERED => Some(ServeError::Uncovered { u: a, v: b }),
            wire::status::ERR_TOO_MANY_FAULTS => {
                Some(ServeError::TooManyFaults { got: a, limit: b })
            }
            wire::status::ERR_WORKER_PANIC => Some(ServeError::WorkerPanicked),
            wire::status::ERR_UNSUPPORTED => Some(ServeError::Unsupported { opcode: a as u8 }),
            wire::status::ERR_RETIRED => Some(ServeError::PointRetired { point: a }),
            wire::status::ERR_DUPLICATE => Some(ServeError::Duplicate { of: a }),
            wire::status::ERR_INTERNAL => Some(ServeError::Internal),
            _ => None,
        }
    }
}
