//! Sharded execution: backends, response slots, worker pools and the
//! [`ShardedNavigator`] front door.
//!
//! ## Request lifecycle (steady state, zero allocations)
//!
//! 1. Admission pops a response slot off the shard's free list and
//!    enqueues a fixed-size job on the shard's [`BatchQueue`] — no
//!    heap.
//! 2. A shard worker drains a batch (bounded, buffer reused), executes
//!    each job through its per-worker [`Scratch`] via the `_into`
//!    query kernels, and hands the result path to the slot by
//!    `mem::swap` — the slot's previous buffer becomes the worker's
//!    next result buffer, so path buffers *circulate* instead of being
//!    allocated.
//! 3. The submitter wakes on the slot's condvar, copies the path into
//!    its own reused buffer, and pushes the slot back on the free
//!    list.
//!
//! The slot table bounds admission: no free slot means the shard is at
//! depth, and the request is shed typed ([`ServeError::Overloaded`])
//! under `Strict` or served inline-degraded under `BestEffort`.
//!
//! ## Shard affinity
//!
//! [`shard_of_point`] hashes the query's first endpoint with the
//! workspace's FNV-1a. The function is pure and seed-free, so a replay
//! of a recorded campaign dispatches every request to the same shard
//! in every process — `std::collections::hash_map::DefaultHasher`
//! would not (its keys are randomized per process).
//!
//! ## Self-healing
//!
//! Each shard carries a lock-free [`HealthCell`]
//! (`Healthy → Suspect → Down`, see `health.rs`) fed by worker
//! observations: caught panics, internal errors and deadline overruns
//! demote, successes promote. Dispatch consults health with one atomic
//! load — requests owned by a `Down` shard fail over to a live replica
//! via a second deterministic FNV hash ([`ShardedNavigator::dispatch_for`]).
//! A `WorkerPanicked` answer reaches the caller typed and is never
//! retried. A panicked shard with a configured snapshot is quarantined
//! and handed to a supervisor thread, which rebuilds it from the `HSNP`
//! file, checks the `hx_hash` boot-fidelity witness, and re-admits it
//! through `Suspect` after a probe query.

use std::collections::HashSet;
use std::mem;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hopspan_core::{
    DegradationPolicy, FaultTolerantSpanner, FtError, FtPathOutcome, HopspanError, MetricNavigator,
    NavigationError,
};
use hopspan_dynamic::{DynConfig, DynError, DynamicNavigator};
use hopspan_metric::{EuclideanSpace, Metric};
// Adopting poison is safe here: state under every lock in this module
// is written panic-atomically, so a poisoned guard is safe to adopt.
use hopspan_pipeline::{lock_resilient, wait_resilient};
use hopspan_routing::{MetricRoutingScheme, NavBuildError, RouteTrace, RoutingError};
use hopspan_store as store;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::batch::{BatchQueue, Job};
use crate::health::{HealthCell, ShardHealth};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::{DegradeCode, Op, QueryOutcome, ServeError};

/// Seed-stable shard affinity: FNV-1a over the point id's
/// little-endian bytes, reduced mod `shards`. Identical in every
/// process, on every platform, for every `HOPSPAN_WORKERS` setting.
///
/// # Panics
///
/// Panics when `shards == 0`: a zero shard count is a configuration
/// bug that [`ServeConfig`] validation rejects as
/// [`BuildError::Config`] before any dispatch can happen. Silently
/// mapping it to one shard (as this function once did) would let a
/// misconfigured caller route queries to a shard that does not exist.
pub fn shard_of_point(point: u32, shards: usize) -> usize {
    assert!(shards > 0, "shard_of_point requires shards >= 1");
    let h = crate::wire::fnv1a(&point.to_le_bytes());
    (h % shards as u64) as usize
}

/// Construction parameters for a [`Backend`].
#[derive(Debug, Clone)]
pub struct BackendParams {
    /// Seed for the backend's deterministic build RNG.
    pub seed: u64,
    /// Ramsey-cover tree budget ζ for the navigator.
    pub tree_budget: usize,
    /// Hop bound k.
    pub k: usize,
    /// Cover parameter ε for the fault-tolerant spanner.
    pub eps: f64,
    /// Fault tolerance f (0 disables the FT structure unless
    /// `build_ft` forces it).
    pub f: usize,
    /// Whether to build the Theorem 1.3 routing scheme (`Route`).
    pub build_router: bool,
    /// Whether to build the §6 FT spanner (`RouteAvoiding`).
    pub build_ft: bool,
}

impl Default for BackendParams {
    fn default() -> Self {
        BackendParams {
            seed: 0xE24,
            tree_budget: 12,
            k: 3,
            eps: 0.5,
            f: 1,
            build_router: true,
            build_ft: true,
        }
    }
}

/// The query kernel behind a [`Backend`]: either an immutable
/// navigator (the replicated/snapshot layouts) or a shared handle to
/// the epoch-swapped dynamic navigator, which additionally accepts
/// `Insert`/`Remove` and stamps every answer with its epoch id.
enum Engine {
    Static(MetricNavigator),
    Dynamic(Arc<DynamicNavigator>),
}

/// One shard's prebuilt query structures: the navigator plus the
/// optional routing scheme and fault-tolerant spanner.
pub struct Backend {
    metric: EuclideanSpace,
    engine: Engine,
    router: Option<MetricRoutingScheme>,
    ft: Option<FaultTolerantSpanner>,
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Backend")
            .field("n", &self.metric.len())
            .field("dynamic", &matches!(self.engine, Engine::Dynamic(_)))
            .field("router", &self.router.is_some())
            .field("ft", &self.ft.is_some())
            .finish()
    }
}

impl Backend {
    /// Builds a backend replica for `points`. The build is
    /// deterministic in `params.seed` (and independent of
    /// `HOPSPAN_WORKERS`), so every replica of a shard set is
    /// bit-identical.
    ///
    /// # Errors
    ///
    /// Propagates the underlying construction failures as
    /// [`BuildError`].
    pub fn build(points: &EuclideanSpace, params: &BackendParams) -> Result<Self, BuildError> {
        let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
        let (nav, _realized) =
            MetricNavigator::general_budgeted(points, params.tree_budget, params.k, &mut rng)
                .map_err(|e| BuildError::Backend(HopspanError::from(e)))?;
        let router = if params.build_router {
            let mut rrng = ChaCha8Rng::seed_from_u64(params.seed ^ 0x5eed_0001);
            Some(MetricRoutingScheme::general(points, 2, &mut rrng).map_err(BuildError::Router)?)
        } else {
            None
        };
        let ft = if params.build_ft {
            Some(
                FaultTolerantSpanner::new(points, params.eps, params.f, params.k)
                    .map_err(|e| BuildError::Backend(HopspanError::from(e)))?,
            )
        } else {
            None
        };
        Ok(Backend {
            metric: points.clone(),
            engine: Engine::Static(nav),
            router,
            ft,
        })
    }

    /// Wraps a prebuilt navigator — typically one decoded from an
    /// `HSNP` snapshot — as a backend. The routing scheme and the
    /// fault-tolerant spanner are not part of the snapshot format, so
    /// `Route` / `RouteAvoiding` answer [`ServeError::Unsupported`] on
    /// a snapshot-booted backend.
    pub fn from_navigator(metric: EuclideanSpace, nav: MetricNavigator) -> Self {
        Backend {
            metric,
            engine: Engine::Static(nav),
            router: None,
            ft: None,
        }
    }

    /// Wraps a shared dynamic navigator as a backend. Dynamic backends
    /// accept `Insert`/`Remove`, stamp every reply with the serving
    /// epoch id and answer retired ids with
    /// [`ServeError::PointRetired`]. `Route`/`RouteAvoiding` and the
    /// snapshot opcodes are unsupported (the routing scheme, the FT
    /// spanner and the `HSNP` format are static-set structures).
    pub fn from_dynamic(nav: Arc<DynamicNavigator>) -> Self {
        let points: Vec<Vec<f64>> = nav
            .published_ids()
            .iter()
            .filter_map(|&id| nav.coords_of(id))
            .collect();
        Backend {
            metric: EuclideanSpace::from_points(&points),
            engine: Engine::Dynamic(nav),
            router: None,
            ft: None,
        }
    }

    /// The immutable navigator, when this backend is static.
    fn static_nav(&self) -> Option<&MetricNavigator> {
        match &self.engine {
            Engine::Static(nav) => Some(nav),
            Engine::Dynamic(_) => None,
        }
    }

    /// The shared dynamic navigator, when this backend is dynamic.
    fn dynamic_nav(&self) -> Option<&Arc<DynamicNavigator>> {
        match &self.engine {
            Engine::Static(_) => None,
            Engine::Dynamic(nav) => Some(nav),
        }
    }

    /// Number of points the backend serves.
    pub fn len(&self) -> usize {
        self.metric.len()
    }

    /// Whether the backend serves an empty point set.
    pub fn is_empty(&self) -> bool {
        self.metric.len() == 0
    }

    /// Executes one request through the caller's scratch buffers. The
    /// answer path lands in `scratch.out`.
    fn execute(
        &self,
        op: &Op,
        policy: DegradationPolicy,
        scratch: &mut Scratch,
    ) -> Result<QueryOutcome, ServeError> {
        scratch.epoch = 0; // static engines report epoch 0 on every answer
        match *op {
            Op::FindPath { u, v } => {
                match &self.engine {
                    Engine::Static(nav) => {
                        nav.find_path_into(u as usize, v as usize, &mut scratch.out)
                            .map_err(map_nav)?;
                    }
                    Engine::Dynamic(nav) => {
                        scratch.epoch = nav
                            .find_path_into(u, v, &mut scratch.out)
                            .map_err(map_nav)?;
                    }
                }
                Ok(QueryOutcome::Full)
            }
            Op::Route { u, v } => {
                let router = self.router.as_ref().ok_or(ServeError::Unsupported {
                    opcode: crate::wire::opcode::ROUTE,
                })?;
                router
                    .route_into(u as usize, v as usize, &mut scratch.trace)
                    .map_err(map_route)?;
                scratch.out.clear();
                scratch.out.extend_from_slice(&scratch.trace.path);
                Ok(QueryOutcome::Full)
            }
            Op::RouteAvoiding { u, v, faults } => {
                let ft = self.ft.as_ref().ok_or(ServeError::Unsupported {
                    opcode: crate::wire::opcode::ROUTE_AVOIDING,
                })?;
                scratch.fault_set.clear();
                for &p in faults.as_slice() {
                    scratch.fault_set.insert(p as usize);
                }
                let outcome = ft
                    .find_path_avoiding_policy_into(
                        &self.metric,
                        u as usize,
                        v as usize,
                        &scratch.fault_set,
                        policy,
                        &mut scratch.out,
                        &mut scratch.tree,
                    )
                    .map_err(map_ft)?;
                Ok(match outcome {
                    FtPathOutcome::Full => QueryOutcome::Full,
                    FtPathOutcome::Degraded {
                        reason,
                        achieved_stretch,
                    } => QueryOutcome::Degraded {
                        reason: DegradeCode::from(reason),
                        achieved_stretch,
                    },
                })
            }
            Op::Stats => {
                scratch.out.clear();
                if let Engine::Dynamic(nav) = &self.engine {
                    scratch.epoch = nav.epoch_id();
                }
                Ok(QueryOutcome::Stats)
            }
            Op::Insert { coords, dim } => {
                let nav = self.dynamic_nav().ok_or(ServeError::Unsupported {
                    opcode: crate::wire::opcode::INSERT,
                })?;
                let mut buf = [0f64; crate::MAX_WIRE_DIM];
                let dim = (dim as usize).min(crate::MAX_WIRE_DIM);
                for (slot, &bits) in buf.iter_mut().zip(&coords[..dim]) {
                    *slot = f64::from_bits(bits);
                }
                let (id, epoch) = nav.insert(&buf[..dim]).map_err(map_dyn)?;
                scratch.out.clear();
                scratch.epoch = epoch;
                Ok(QueryOutcome::Mutation { id, epoch })
            }
            Op::Remove { id } => {
                let nav = self.dynamic_nav().ok_or(ServeError::Unsupported {
                    opcode: crate::wire::opcode::REMOVE,
                })?;
                let epoch = nav.remove(id).map_err(map_dyn)?;
                scratch.out.clear();
                scratch.epoch = epoch;
                Ok(QueryOutcome::Mutation { id, epoch })
            }
        }
    }
}

fn map_nav(e: NavigationError) -> ServeError {
    match e {
        NavigationError::PointOutOfRange { point } => ServeError::BadEndpoint {
            point: point as u32,
        },
        NavigationError::PairNotCovered { u, v } => ServeError::Uncovered {
            u: u as u32,
            v: v as u32,
        },
        NavigationError::PointRetired { point } => ServeError::PointRetired {
            point: point as u32,
        },
        _ => ServeError::Internal,
    }
}

/// Maps dynamic-engine mutation failures to their wire-typed serve
/// errors. Validation failures are the client's fault (`BadRequest` /
/// `BadEndpoint` / `Duplicate` / `PointRetired`); only a failed
/// navigator build is `Internal`.
fn map_dyn(e: DynError) -> ServeError {
    match e {
        DynError::DuplicatePoint { of } => ServeError::Duplicate { of },
        DynError::UnknownId { id } => ServeError::BadEndpoint { point: id },
        DynError::AlreadyRetired { id } => ServeError::PointRetired { point: id },
        DynError::DimensionMismatch { .. }
        | DynError::NonFiniteCoordinate
        | DynError::TooFewPoints { .. } => ServeError::BadRequest,
        _ => ServeError::Internal,
    }
}

fn map_route(e: RoutingError) -> ServeError {
    match e {
        RoutingError::BadEndpoint { node } => ServeError::BadEndpoint { point: node as u32 },
        RoutingError::TooManyFaults { got, f } => ServeError::TooManyFaults {
            got: got as u32,
            limit: f as u32,
        },
        _ => ServeError::Internal,
    }
}

fn map_ft(e: FtError) -> ServeError {
    match e {
        FtError::BadEndpoint { point } => ServeError::BadEndpoint {
            point: point as u32,
        },
        FtError::TooManyFaults { got, f } => ServeError::TooManyFaults {
            got: got as u32,
            limit: f as u32,
        },
        FtError::NoSurvivingPath { u, v } => ServeError::Uncovered {
            u: u as u32,
            v: v as u32,
        },
        _ => ServeError::Internal,
    }
}

/// Per-worker reusable buffers: one of each `_into` kernel's scratch
/// needs. After warmup no query touches the allocator.
struct Scratch {
    out: Vec<usize>,
    tree: Vec<usize>,
    trace: RouteTrace,
    fault_set: HashSet<usize>,
    /// Epoch id the dynamic engine stamped on the last answer
    /// (`0` on static engines).
    epoch: u64,
}

impl Scratch {
    fn new() -> Self {
        Scratch {
            out: Vec::with_capacity(64),
            tree: Vec::with_capacity(64),
            trace: RouteTrace::default(),
            fault_set: HashSet::with_capacity(crate::MAX_WIRE_FAULTS * 4),
            epoch: 0,
        }
    }
}

/// One response slot: the rendezvous between a submitter and the
/// worker that answers it.
#[derive(Debug)]
struct Slot {
    state: Mutex<SlotState>,
    done_cv: Condvar,
}

#[derive(Debug)]
struct SlotState {
    done: bool,
    outcome: Result<QueryOutcome, ServeError>,
    path: Vec<usize>,
    /// Epoch id stamped by the worker (`0` on static engines).
    epoch: u64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            state: Mutex::new(SlotState {
                done: false,
                outcome: Err(ServeError::Internal),
                path: Vec::with_capacity(64),
                epoch: 0,
            }),
            done_cv: Condvar::new(),
        }
    }
}

/// Per-shard state shared between submitters and the shard's workers.
#[derive(Debug)]
struct ShardInner {
    /// This shard's index in the engine's shard table.
    index: u32,
    /// The query structures. Behind a mutex only so the respawn
    /// supervisor can swap in a freshly decoded backend; workers take
    /// one `Arc` clone per batch flush, never per job, and submitters
    /// never touch it.
    backend: Mutex<Arc<Backend>>,
    queue: BatchQueue,
    slots: Vec<Slot>,
    free: Mutex<Vec<u32>>,
    /// Lock-free health state (read on every dispatch).
    health: HealthCell,
}

impl ShardInner {
    /// The current backend handle (one lock + `Arc` clone; no alloc).
    fn backend_arc(&self) -> Arc<Backend> {
        Arc::clone(&lock_resilient(&self.backend))
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of shards.
    pub shards: usize,
    /// Worker threads per shard.
    pub workers_per_shard: usize,
    /// Maximum jobs a worker drains per batch. Draining is
    /// work-conserving: a worker takes whatever is queued, up to this
    /// many, and never waits for a batch to fill.
    pub max_batch: usize,
    /// Response slots per shard — the admission limit.
    pub queue_depth: usize,
    /// What happens past the admission limit, and how over-budget
    /// fault sets are answered.
    pub policy: DegradationPolicy,
    /// Chaos hook: when `Some(p)`, every p-th job across the service
    /// panics inside the worker before executing (the panic must be
    /// contained and surfaced as [`ServeError::WorkerPanicked`]).
    pub chaos_panic_period: Option<u64>,
    /// When set, a job whose enqueue-to-completion latency exceeds
    /// this limit counts as a health-relevant failure (deadline
    /// overrun) even if its answer was correct. The streak thresholds
    /// are fixed constants in `health.rs`.
    pub overrun_limit: Option<Duration>,
    /// Chaos hook: when `Some((shard, delay))`, every job executed by
    /// that shard's workers sleeps `delay` first — a wedged/slow shard
    /// that the overrun limit must eventually demote.
    pub chaos_slow_shard: Option<(usize, Duration)>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 1,
            workers_per_shard: 1,
            max_batch: 16,
            queue_depth: 256,
            policy: DegradationPolicy::Strict,
            chaos_panic_period: None,
            overrun_limit: None,
            chaos_slow_shard: None,
        }
    }
}

/// Service construction failures.
#[derive(Debug)]
#[non_exhaustive]
pub enum BuildError {
    /// A navigator or fault-tolerant structure failed to build.
    Backend(HopspanError),
    /// The routing scheme failed to build.
    Router(NavBuildError),
    /// A worker thread could not be spawned.
    Spawn(std::io::Error),
    /// The configuration is structurally invalid.
    Config(&'static str),
    /// A boot snapshot could not be read, decoded or validated.
    Store(store::StoreError),
    /// The dynamic navigator's initial build failed.
    Dynamic(DynError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Backend(e) => write!(f, "backend build failed: {e}"),
            BuildError::Router(e) => write!(f, "routing scheme build failed: {e}"),
            BuildError::Spawn(e) => write!(f, "worker spawn failed: {e}"),
            BuildError::Config(why) => write!(f, "invalid serve config: {why}"),
            BuildError::Store(e) => write!(f, "snapshot boot failed: {e}"),
            BuildError::Dynamic(e) => write!(f, "dynamic engine build failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Backend(e) => Some(e),
            BuildError::Router(e) => Some(e),
            BuildError::Spawn(e) => Some(e),
            BuildError::Config(_) => None,
            BuildError::Store(e) => Some(e),
            BuildError::Dynamic(e) => Some(e),
        }
    }
}

/// The sharded, batched, admission-controlled query service.
///
/// See the [module docs](self) for the request lifecycle. Dropping the
/// service closes every shard queue, drains the backlog and joins all
/// workers.
#[derive(Debug)]
pub struct ShardedNavigator {
    shards: Vec<Arc<ShardInner>>,
    metrics: Arc<ServeMetrics>,
    cfg: ServeConfig,
    workers: Vec<JoinHandle<()>>,
    /// State shared with the respawn supervisor thread.
    sup: Arc<SupervisorShared>,
    supervisor: Option<JoinHandle<()>>,
}

/// State shared between the engine, its workers and the respawn
/// supervisor thread.
#[derive(Debug)]
struct SupervisorShared {
    /// Pending respawn requests (shard indices) plus the stop flag.
    respawn_q: Mutex<RespawnQueue>,
    wake: Condvar,
    /// The file the `Snapshot`/`LoadSnapshot` opcodes and the respawn
    /// supervisor operate on.
    snapshot_path: Mutex<Option<PathBuf>>,
    /// `hx_hash` of the live navigator, recorded when the snapshot
    /// path is configured — the boot-fidelity witness a respawned
    /// backend must reproduce. `0` means "no snapshot configured"
    /// (respawn disabled; panics fall back to streak counting).
    witness: AtomicU64,
}

#[derive(Debug, Default)]
struct RespawnQueue {
    respawns: Vec<u32>,
    stop: bool,
}

/// Enqueues a respawn request for `shard` (deduplicated) and wakes the
/// supervisor.
fn request_respawn(sup: &SupervisorShared, shard: u32) {
    let mut q = lock_resilient(&sup.respawn_q);
    if q.stop || q.respawns.contains(&shard) {
        return;
    }
    q.respawns.push(shard);
    drop(q);
    sup.wake.notify_one();
}

impl ShardedNavigator {
    /// Builds the backend for `points` once and starts `cfg.shards`
    /// worker pools over it. Backend builds are deterministic, so
    /// separately built replicas would be bit-identical; every shard
    /// holds the one immutable build instead, and the replication buys
    /// isolation (per-shard queues and workers), not divergence.
    ///
    /// # Errors
    ///
    /// [`BuildError`] on invalid configuration, backend build failure
    /// or thread-spawn failure.
    pub fn replicated(
        points: &EuclideanSpace,
        params: &BackendParams,
        cfg: ServeConfig,
    ) -> Result<Self, BuildError> {
        validate(&cfg)?;
        let backend = Arc::new(Backend::build(points, params)?);
        let backends = (0..cfg.shards).map(|_| Arc::clone(&backend)).collect();
        Self::from_backends(backends, cfg)
    }

    /// Starts the service with every shard serving the same shared
    /// backend. Query structures are immutable after construction, so
    /// sharing one across shards is safe and keeps the queue/worker
    /// isolation. As in every engine, a `Down` shard's requests fail
    /// over to a live shard ([`ShardedNavigator::dispatch_for`]).
    ///
    /// # Errors
    ///
    /// [`BuildError`] on invalid configuration or thread-spawn
    /// failure.
    pub fn shared(backend: Arc<Backend>, cfg: ServeConfig) -> Result<Self, BuildError> {
        validate(&cfg)?;
        let backends = (0..cfg.shards).map(|_| Arc::clone(&backend)).collect();
        Self::from_backends(backends, cfg)
    }

    /// Starts the service over an online point set: every shard serves
    /// one shared [`DynamicNavigator`], so a mutation admitted on any
    /// shard is visible to all of them (one ledger, one epoch
    /// sequence — replicas would diverge under concurrent mutation,
    /// which is why dynamic engines only come in the shared layout).
    /// Because the navigator is shared, a live shard serves a `Down`
    /// owner's requests, mutations included, through the same failover
    /// as every engine. `Insert`/`Remove` become servable opcodes and
    /// every reply carries the serving epoch id.
    ///
    /// # Errors
    ///
    /// [`BuildError::Dynamic`] when the initial build fails; the usual
    /// [`BuildError`]s otherwise.
    pub fn dynamic(
        points: &[Vec<f64>],
        dyn_cfg: DynConfig,
        cfg: ServeConfig,
    ) -> Result<Self, BuildError> {
        validate(&cfg)?;
        let nav = DynamicNavigator::new(points, dyn_cfg).map_err(BuildError::Dynamic)?;
        let backend = Arc::new(Backend::from_dynamic(Arc::new(nav)));
        let backends = (0..cfg.shards).map(|_| Arc::clone(&backend)).collect();
        Self::from_backends(backends, cfg)
    }

    /// The shared dynamic navigator, when the engine was built with
    /// [`ShardedNavigator::dynamic`]. Chaos campaigns and benchmarks
    /// use this to drive mutations and read epoch/H_X witnesses
    /// without going through the wire.
    pub fn dynamic_handle(&self) -> Option<Arc<DynamicNavigator>> {
        self.backend_of(0).dynamic_nav().cloned()
    }

    fn from_backends(backends: Vec<Arc<Backend>>, cfg: ServeConfig) -> Result<Self, BuildError> {
        let metrics = Arc::new(ServeMetrics::default());
        let panic_counter = Arc::new(AtomicU64::new(0));
        let sup = Arc::new(SupervisorShared {
            respawn_q: Mutex::new(RespawnQueue {
                respawns: Vec::with_capacity(cfg.shards),
                stop: false,
            }),
            wake: Condvar::new(),
            snapshot_path: Mutex::new(None),
            witness: AtomicU64::new(0),
        });
        let mut shards = Vec::with_capacity(cfg.shards);
        for (index, backend) in backends.into_iter().enumerate() {
            let slots = (0..cfg.queue_depth).map(|_| Slot::new()).collect();
            let free = (0..cfg.queue_depth as u32).rev().collect();
            shards.push(Arc::new(ShardInner {
                index: index as u32,
                backend: Mutex::new(backend),
                queue: BatchQueue::bounded(cfg.queue_depth),
                slots,
                free: Mutex::new(free),
                health: HealthCell::default(),
            }));
        }
        let mut workers = Vec::with_capacity(cfg.shards * cfg.workers_per_shard);
        for (si, shard) in shards.iter().enumerate() {
            for wi in 0..cfg.workers_per_shard {
                let shard = Arc::clone(shard);
                let metrics = Arc::clone(&metrics);
                let wcfg = cfg.clone();
                let counter = Arc::clone(&panic_counter);
                let wsup = Arc::clone(&sup);
                let handle = std::thread::Builder::new()
                    .name(format!("hopspan-serve-{si}-{wi}"))
                    .spawn(move || worker_loop(&shard, &metrics, &wcfg, &counter, &wsup))
                    .map_err(BuildError::Spawn)?;
                workers.push(handle);
            }
        }
        let supervisor = {
            let shards = shards.clone();
            let metrics = Arc::clone(&metrics);
            let ssup = Arc::clone(&sup);
            let scfg = cfg.clone();
            std::thread::Builder::new()
                .name("hopspan-serve-supervisor".to_string())
                .spawn(move || supervisor_loop(&shards, &metrics, &ssup, &scfg))
                .map_err(BuildError::Spawn)?
        };
        Ok(ShardedNavigator {
            shards,
            metrics,
            cfg,
            workers,
            sup,
            supervisor: Some(supervisor),
        })
    }

    /// Boots the service from an `HSNP` snapshot file: one disk read
    /// and one decode, shared by every shard as in
    /// [`ShardedNavigator::replicated`]. Decoding revalidates instead
    /// of rebuilding — the cover/spanner construction is skipped
    /// entirely, which is what makes snapshot boot fast (E25 measures
    /// the speedup). Snapshot-booted backends have no routing scheme
    /// or fault-tolerant spanner.
    ///
    /// # Errors
    ///
    /// [`BuildError::Store`] when the file is unreadable, corrupt or
    /// fails deep validation; the usual [`BuildError`]s otherwise.
    pub fn replicated_from_snapshot(path: &Path, cfg: ServeConfig) -> Result<Self, BuildError> {
        validate(&cfg)?;
        let bytes = store::read_snapshot_bytes(path).map_err(BuildError::Store)?;
        let snap = store::decode_snapshot(&bytes).map_err(BuildError::Store)?;
        let backend = Arc::new(Backend::from_navigator(snap.points, snap.navigator));
        let backends = (0..cfg.shards).map(|_| Arc::clone(&backend)).collect();
        let engine = Self::from_backends(backends, cfg)?;
        engine.set_snapshot_path(path);
        Ok(engine)
    }

    /// Configures the file the `Snapshot` / `LoadSnapshot` wire
    /// opcodes and the respawn supervisor operate on. The snapshot
    /// boot constructor sets this to the file it booted from.
    /// Setting a path also records the live navigator's `hx_hash` as
    /// the boot-fidelity witness and arms panic quarantine + respawn.
    pub fn set_snapshot_path(&self, path: impl Into<PathBuf>) {
        *lock_resilient(&self.sup.snapshot_path) = Some(path.into());
        // Dynamic engines have no stable navigator to witness (the
        // published epoch changes under mutation), so respawn stays
        // disarmed there (witness 0).
        let hx = self.backend_of(0).static_nav().map_or(0, store::hx_hash);
        self.sup.witness.store(hx, Ordering::Relaxed);
    }

    /// The configured snapshot path, if any.
    pub fn snapshot_path(&self) -> Option<PathBuf> {
        lock_resilient(&self.sup.snapshot_path).clone()
    }

    /// The current backend handle of shard `index`.
    fn backend_of(&self, index: usize) -> Arc<Backend> {
        self.shards[index].backend_arc()
    }

    /// Current health of shard `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range, like any shard indexing.
    pub fn health(&self, index: usize) -> ShardHealth {
        self.shards[index].health.get()
    }

    /// Forces shard `index` to `state` — the scripted failure-
    /// injection hook chaos campaigns and the determinism pins drive.
    /// The transition is published to the metrics health word, and a
    /// forced demotion to `Down` counts as a down event.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range, like any shard indexing.
    pub fn set_health(&self, index: usize, state: ShardHealth) {
        let shard = &self.shards[index];
        let was = shard.health.get();
        shard.health.set(state);
        self.metrics.set_health_byte(index, state.code());
        if state == ShardHealth::Down && was != ShardHealth::Down {
            ServeMetrics::bump(&self.metrics.shard_down_events);
        }
    }

    /// Serializes shard 0's backend to the configured snapshot path
    /// (wire opcode `SNAPSHOT`). Replicas are bit-identical, so one
    /// shard's structures are the whole service's structures.
    ///
    /// # Errors
    ///
    /// [`ServeError::Unsupported`] when no snapshot path is
    /// configured; [`ServeError::Internal`] on filesystem failure.
    pub fn write_snapshot(&self) -> Result<store::SnapshotDigest, ServeError> {
        let path = self.snapshot_path().ok_or(ServeError::Unsupported {
            opcode: crate::wire::opcode::SNAPSHOT,
        })?;
        let backend = self.backend_of(0);
        let nav = backend.static_nav().ok_or(ServeError::Unsupported {
            opcode: crate::wire::opcode::SNAPSHOT,
        })?;
        store::write_snapshot_file(&path, &backend.metric, nav, None)
            .map_err(|_| ServeError::Internal)
    }

    /// Reads the configured snapshot back, revalidates it end to end
    /// and checks that its spanner hash matches the live structures
    /// (wire opcode `LOAD_SNAPSHOT`).
    ///
    /// # Errors
    ///
    /// [`ServeError::Unsupported`] when no snapshot path is
    /// configured; [`ServeError::Internal`] when the file is missing,
    /// corrupt or disagrees with the live backend.
    pub fn load_snapshot_verify(&self) -> Result<store::SnapshotDigest, ServeError> {
        let path = self.snapshot_path().ok_or(ServeError::Unsupported {
            opcode: crate::wire::opcode::LOAD_SNAPSHOT,
        })?;
        let (snap, digest) = store::read_snapshot_file(&path).map_err(|_| ServeError::Internal)?;
        let backend = self.backend_of(0);
        let nav = backend.static_nav().ok_or(ServeError::Unsupported {
            opcode: crate::wire::opcode::LOAD_SNAPSHOT,
        })?;
        if store::hx_hash(&snap.navigator) != store::hx_hash(nav) {
            return Err(ServeError::Internal);
        }
        Ok(digest)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of points each shard serves.
    pub fn points(&self) -> usize {
        self.shards.first().map_or(0, |s| s.backend_arc().len())
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The service's live metrics.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// A point-in-time metrics snapshot (what the `Stats` opcode
    /// ships), and the only place one is built: a queued
    /// [`Op::Stats`] job just answers [`QueryOutcome::Stats`]. On a
    /// dynamic engine the builder-side counters (rebuild count,
    /// per-shard epoch bytes) are reconciled first.
    pub fn snapshot(&self) -> MetricsSnapshot {
        if let Some(nav) = self.backend_of(0).dynamic_nav() {
            self.metrics
                .rebuilds
                .store(nav.counters().rebuilds, Ordering::Relaxed);
            let byte = (nav.epoch_id() & 0xff) as u8;
            for i in 0..self.shards.len() {
                self.metrics.set_epoch_byte(i, byte);
            }
        }
        self.metrics.snapshot()
    }

    /// The shard that *owns* `op` (FNV-1a affinity on the first
    /// endpoint), health-blind. See
    /// [`ShardedNavigator::dispatch_for`] for the health-aware target.
    pub fn shard_for(&self, op: &Op) -> usize {
        shard_of_point(op.affinity_point(), self.shards.len())
    }

    /// The shard `op` is actually dispatched to: the owner
    /// ([`ShardedNavigator::shard_for`]) unless that shard is `Down`,
    /// in which case the request fails over to the k-th live shard, k
    /// picked by a second FNV-1a hash over the affinity point and the
    /// owner index. Every constructor gives all shards the same
    /// backend, so any live shard can answer for any owner. The choice
    /// is a pure function of the health configuration — every process,
    /// at every `HOPSPAN_WORKERS` setting, re-routes the same request
    /// to the same shard (pinned by `tests/failover_determinism.rs`).
    /// With zero live shards the owner is returned unchanged and
    /// answers typed.
    pub fn dispatch_for(&self, op: &Op) -> usize {
        let owner = self.shard_for(op);
        if self.shards[owner].health.get() != ShardHealth::Down {
            return owner;
        }
        self.pick_alternate(op.affinity_point(), owner)
            .unwrap_or(owner)
    }

    /// Picks the deterministic alternate shard for a request owned by
    /// a `Down` `owner`: the k-th non-`Down` shard, k drawn by a second
    /// FNV-1a hash over `(point, owner)`.
    fn pick_alternate(&self, point: u32, owner: usize) -> Option<usize> {
        let live = || {
            self.shards
                .iter()
                .enumerate()
                .filter(|(_, s)| s.health.get() != ShardHealth::Down)
        };
        let count = live().count();
        if count == 0 {
            return None;
        }
        let mut key = [0u8; 8];
        key[..4].copy_from_slice(&point.to_le_bytes());
        key[4..].copy_from_slice(&(owner as u32).to_le_bytes());
        let pick = (crate::wire::fnv1a(&key) % count as u64) as usize;
        // `None` when a shard flipped mid-scan; the owner then answers
        // typed.
        live().nth(pick).map(|(i, _)| i)
    }

    /// Submits a request for batched execution. Returns a
    /// [`Pending`] handle to wait on, or [`ServeError::Overloaded`]
    /// when the target shard is at depth — regardless of policy; use
    /// [`ShardedNavigator::call`] for the policy-aware front door.
    /// Requests owned by a `Down` shard fail over per
    /// [`ShardedNavigator::dispatch_for`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] at the admission limit,
    /// [`ServeError::ShuttingDown`] once the service is draining.
    pub fn try_submit(&self, op: Op) -> Result<Pending<'_>, ServeError> {
        ServeMetrics::bump(&self.metrics.submitted);
        let owner = self.shard_for(&op);
        let si = self.dispatch_for(&op);
        if si != owner {
            ServeMetrics::bump(&self.metrics.failovers);
        }
        let shard = &self.shards[si];
        let slot = lock_resilient(&shard.free).pop();
        let Some(slot) = slot else {
            ServeMetrics::bump(&self.metrics.shed);
            return Err(ServeError::Overloaded {
                depth: self.cfg.queue_depth as u32,
            });
        };
        let job = Job {
            slot,
            op,
            enqueued: Instant::now(),
        };
        if !shard.queue.push(job) {
            lock_resilient(&shard.free).push(slot);
            return Err(ServeError::ShuttingDown);
        }
        Ok(Pending {
            engine: self,
            shard: si as u32,
            slot,
        })
    }

    /// Executes `op` inline on the calling thread, bypassing the
    /// queue. The answer is marked [`DegradeCode::Overload`] — the
    /// path may be in contract, but the service's batching/latency
    /// contract was not. This is the `BestEffort` overload escape
    /// hatch; it allocates (fresh scratch) and is deliberately *not*
    /// on the zero-alloc steady-state path.
    ///
    /// # Errors
    ///
    /// The same typed errors a queued execution can produce.
    pub fn call_inline(&self, op: Op, out: &mut Vec<usize>) -> Result<QueryOutcome, ServeError> {
        self.call_inline_with_epoch(op, out)
            .map(|(outcome, _epoch)| outcome)
    }

    /// [`ShardedNavigator::call_inline`] plus the serving epoch id
    /// (`0` on static engines).
    fn call_inline_with_epoch(
        &self,
        op: Op,
        out: &mut Vec<usize>,
    ) -> Result<(QueryOutcome, u64), ServeError> {
        ServeMetrics::bump(&self.metrics.inline_served);
        let backend = self.backend_of(self.shard_for(&op));
        let mut scratch = Scratch::new();
        let outcome = backend.execute(&op, self.cfg.policy, &mut scratch);
        let epoch = scratch.epoch;
        out.clear();
        out.extend_from_slice(&scratch.out);
        match outcome {
            Ok(QueryOutcome::Stats) => Ok((QueryOutcome::Stats, epoch)),
            Ok(m @ QueryOutcome::Mutation { .. }) => {
                // A mutation has no batching contract to degrade: the
                // commit is the commit, inline or queued.
                ServeMetrics::bump(&self.metrics.completed);
                self.note_mutation(&op);
                Ok((m, epoch))
            }
            Ok(_) => {
                ServeMetrics::bump(&self.metrics.completed);
                ServeMetrics::bump(&self.metrics.degraded);
                Ok((
                    QueryOutcome::Degraded {
                        reason: DegradeCode::Overload,
                        achieved_stretch: realized_stretch(&backend.metric, out),
                    },
                    epoch,
                ))
            }
            Err(e) => {
                ServeMetrics::bump(&self.metrics.completed);
                ServeMetrics::bump(&self.metrics.errors);
                Err(e)
            }
        }
    }

    /// Bumps the mutation counters for an inline-committed mutation
    /// (the queued path does this in `run_job`).
    fn note_mutation(&self, op: &Op) {
        match op {
            Op::Insert { .. } => ServeMetrics::bump(&self.metrics.inserts),
            Op::Remove { .. } => ServeMetrics::bump(&self.metrics.removes),
            _ => {}
        }
    }

    /// The policy-aware front door: queue the request, wait for the
    /// batched answer, and on overload either shed typed (`Strict`)
    /// or fall back to a degraded inline answer (`BestEffort`).
    ///
    /// Requests owned by a `Down` shard fail over per
    /// [`ShardedNavigator::dispatch_for`]. There are no retries: a
    /// contained worker panic surfaces as
    /// [`ServeError::WorkerPanicked`] on the first attempt.
    ///
    /// # Errors
    ///
    /// Typed [`ServeError`]s; under `Strict`,
    /// [`ServeError::Overloaded`] past the admission limit.
    pub fn call(&self, op: Op, out: &mut Vec<usize>) -> Result<QueryOutcome, ServeError> {
        self.call_with_epoch(op, out)
            .map(|(outcome, _epoch)| outcome)
    }

    /// [`ShardedNavigator::call`] plus the serving epoch id, for
    /// callers (the wire front) that echo epochs in replies. Static
    /// engines always report epoch `0`.
    ///
    /// # Errors
    ///
    /// Identical to [`ShardedNavigator::call`].
    pub fn call_with_epoch(
        &self,
        op: Op,
        out: &mut Vec<usize>,
    ) -> Result<(QueryOutcome, u64), ServeError> {
        match self.try_submit(op) {
            Ok(pending) => pending.wait_epoch_into(out),
            Err(ServeError::Overloaded { .. })
                if self.cfg.policy == DegradationPolicy::BestEffort =>
            {
                // The rejection is recovered inline, so it was not
                // actually shed; undo try_submit's shed bump.
                ServeMetrics::unbump(&self.metrics.shed);
                self.call_inline_with_epoch(op, out)
            }
            Err(e) => Err(e),
        }
    }

    /// Releases a slot back to its shard's free list.
    fn release(&self, shard: u32, slot: u32) {
        lock_resilient(&self.shards[shard as usize].free).push(slot);
    }
}

impl Drop for ShardedNavigator {
    fn drop(&mut self) {
        for shard in &self.shards {
            shard.queue.close();
        }
        for handle in self.workers.drain(..) {
            // A worker's unwind already surfaced as `WorkerPanicked`
            // on the affected slots; nothing is left to report here.
            let _join = handle.join();
        }
        lock_resilient(&self.sup.respawn_q).stop = true;
        self.sup.wake.notify_all();
        if let Some(handle) = self.supervisor.take() {
            let _join = handle.join();
        }
    }
}

fn validate(cfg: &ServeConfig) -> Result<(), BuildError> {
    if cfg.shards == 0 {
        return Err(BuildError::Config("shards must be >= 1"));
    }
    if cfg.workers_per_shard == 0 {
        return Err(BuildError::Config("workers_per_shard must be >= 1"));
    }
    if cfg.max_batch == 0 {
        return Err(BuildError::Config("max_batch must be >= 1"));
    }
    if cfg.queue_depth == 0 {
        return Err(BuildError::Config("queue_depth must be >= 1"));
    }
    if cfg.queue_depth > u32::MAX as usize {
        return Err(BuildError::Config("queue_depth exceeds u32"));
    }
    Ok(())
}

/// A submitted request: wait on it to collect the answer. Dropping a
/// `Pending` without waiting leaks its slot for the service's
/// lifetime, so every submit should be paired with a wait.
#[must_use = "a Pending that is never waited on leaks its response slot"]
#[derive(Debug)]
pub struct Pending<'a> {
    engine: &'a ShardedNavigator,
    shard: u32,
    slot: u32,
}

impl Pending<'_> {
    /// Blocks until the answer lands, copies the path into `out`
    /// (cleared first) and releases the slot.
    ///
    /// # Errors
    ///
    /// The typed [`ServeError`] the worker recorded, if any.
    pub fn wait_into(self, out: &mut Vec<usize>) -> Result<QueryOutcome, ServeError> {
        self.wait_epoch_into(out).map(|(outcome, _epoch)| outcome)
    }

    /// Like [`Pending::wait_into`], additionally returning the serving
    /// epoch id (`0` on static engines).
    ///
    /// # Errors
    ///
    /// The typed [`ServeError`] the worker recorded, if any.
    pub fn wait_epoch_into(self, out: &mut Vec<usize>) -> Result<(QueryOutcome, u64), ServeError> {
        let shard = &self.engine.shards[self.shard as usize];
        let slot = &shard.slots[self.slot as usize];
        let mut st = lock_resilient(&slot.state);
        while !st.done {
            st = wait_resilient(&slot.done_cv, st);
        }
        st.done = false;
        let outcome = st.outcome;
        let epoch = st.epoch;
        out.clear();
        out.extend_from_slice(&st.path);
        drop(st);
        self.engine.release(self.shard, self.slot);
        outcome.map(|o| (o, epoch))
    }
}

/// Realized stretch of a path under `metric` (`1.0` for degenerate
/// pairs), for marking inline answers. Paths from a dynamic engine
/// can carry external ids past the initial metric's range; those
/// report the neutral `1.0` instead of indexing out of bounds.
fn realized_stretch<M: Metric>(metric: &M, path: &[usize]) -> f64 {
    if path.iter().any(|&p| p >= metric.len()) {
        return 1.0;
    }
    let (Some(&u), Some(&v)) = (path.first(), path.last()) else {
        return 1.0;
    };
    let d = metric.dist(u, v);
    if d <= 0.0 {
        return 1.0;
    }
    let w: f64 = path.windows(2).map(|w| metric.dist(w[0], w[1])).sum();
    (w / d).max(1.0)
}

/// Everything a worker needs to execute one job, bundled so the
/// per-job call stays within clippy's argument budget.
struct JobCtx<'a> {
    shard: &'a ShardInner,
    backend: &'a Backend,
    metrics: &'a ServeMetrics,
    cfg: &'a ServeConfig,
    panic_counter: &'a AtomicU64,
    sup: &'a SupervisorShared,
}

/// The shard worker: drain a batch, execute each job through the
/// reused scratch, deliver by buffer swap, repeat until the queue
/// closes.
fn worker_loop(
    shard: &ShardInner,
    metrics: &ServeMetrics,
    cfg: &ServeConfig,
    panic_counter: &AtomicU64,
    sup: &SupervisorShared,
) {
    let mut scratch = Scratch::new();
    let mut batch: Vec<Job> = Vec::with_capacity(cfg.max_batch);
    while shard.queue.next_batch(cfg.max_batch, &mut batch) {
        ServeMetrics::bump(&metrics.batches);
        ServeMetrics::add(&metrics.batched_jobs, batch.len() as u64);
        // One backend handle per flush: the supervisor may swap a
        // respawned backend in between batches, never within one.
        let backend = shard.backend_arc();
        let ctx = JobCtx {
            shard,
            backend: &backend,
            metrics,
            cfg,
            panic_counter,
            sup,
        };
        for job in &batch {
            run_job(&ctx, job, &mut scratch);
        }
    }
}

fn run_job(ctx: &JobCtx<'_>, job: &Job, scratch: &mut Scratch) {
    if let Some((target, delay)) = ctx.cfg.chaos_slow_shard {
        if target == ctx.shard.index as usize && !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }
    let inject = ctx
        .cfg
        .chaos_panic_period
        .is_some_and(|p| (ctx.panic_counter.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(p));
    let result = catch_unwind(AssertUnwindSafe(|| {
        if inject {
            // hopspan:allow(panic-in-lib) -- deterministic chaos-injection hook; contained by the catch_unwind above
            panic!("injected worker panic (chaos_panic_period)");
        }
        ctx.backend.execute(&job.op, ctx.cfg.policy, scratch)
    }));
    let outcome = match result {
        Ok(r) => r,
        Err(_) => {
            // The panic may have left scratch buffers mid-write; clear
            // them so the next job starts clean.
            scratch.out.clear();
            scratch.tree.clear();
            scratch.fault_set.clear();
            Err(ServeError::WorkerPanicked)
        }
    };
    record_health(ctx, job, &outcome);
    ServeMetrics::bump(&ctx.metrics.completed);
    match &outcome {
        Ok(QueryOutcome::Degraded { .. }) => ServeMetrics::bump(&ctx.metrics.degraded),
        Ok(QueryOutcome::Mutation { .. }) => match job.op {
            Op::Insert { .. } => ServeMetrics::bump(&ctx.metrics.inserts),
            Op::Remove { .. } => ServeMetrics::bump(&ctx.metrics.removes),
            _ => {}
        },
        Ok(_) => {}
        Err(_) => ServeMetrics::bump(&ctx.metrics.errors),
    }
    if scratch.epoch != 0 {
        // Dynamic engine: publish the low byte of the serving epoch to
        // this shard's slot in the packed epoch word.
        ctx.metrics
            .set_epoch_byte(ctx.shard.index as usize, (scratch.epoch & 0xff) as u8);
    }
    let slot = &ctx.shard.slots[job.slot as usize];
    let mut st = lock_resilient(&slot.state);
    mem::swap(&mut st.path, &mut scratch.out);
    st.outcome = outcome;
    st.epoch = scratch.epoch;
    st.done = true;
    drop(st);
    slot.done_cv.notify_one();
    ctx.metrics
        .latency
        .record_ns(job.enqueued.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
}

/// Feeds one job's outcome into the shard's health state machine.
/// Health-relevant failures are worker panics, internal errors and
/// deadline overruns; client-typed errors (bad endpoint, over-budget
/// fault sets, …) prove the worker is alive and count as successes.
fn record_health(ctx: &JobCtx<'_>, job: &Job, outcome: &Result<QueryOutcome, ServeError>) {
    match outcome {
        Err(ServeError::WorkerPanicked) => {
            // A caught panic with a respawn snapshot configured is the
            // strongest signal: quarantine immediately and hand the
            // shard to the supervisor. Without a snapshot the panic
            // falls back to streak counting — one contained panic
            // among successes must not take the shard down.
            if ctx.sup.witness.load(Ordering::Relaxed) != 0 {
                if ctx.shard.health.quarantine() {
                    ServeMetrics::bump(&ctx.metrics.shard_down_events);
                }
                ctx.metrics
                    .set_health_byte(ctx.shard.index as usize, ShardHealth::Down.code());
                request_respawn(ctx.sup, ctx.shard.index);
            } else if let Some(next) = ctx.shard.health.record_failure() {
                note_transition(ctx.metrics, ctx.shard.index, next);
            }
        }
        Err(ServeError::Internal) => {
            if let Some(next) = ctx.shard.health.record_failure() {
                note_transition(ctx.metrics, ctx.shard.index, next);
            }
        }
        _ => {
            let overrun = ctx
                .cfg
                .overrun_limit
                .is_some_and(|limit| job.enqueued.elapsed() > limit);
            let change = if overrun {
                ctx.shard.health.record_failure()
            } else {
                ctx.shard.health.record_success()
            };
            if let Some(next) = change {
                note_transition(ctx.metrics, ctx.shard.index, next);
            }
        }
    }
}

/// Publishes a streak-driven health transition to the metrics word.
fn note_transition(metrics: &ServeMetrics, index: u32, next: ShardHealth) {
    metrics.set_health_byte(index as usize, next.code());
    if next == ShardHealth::Down {
        ServeMetrics::bump(&metrics.shard_down_events);
    }
}

/// The respawn supervisor: waits for quarantined shard indices and
/// rebuilds each from the configured snapshot. One thread per engine;
/// exits when the engine drops.
fn supervisor_loop(
    shards: &[Arc<ShardInner>],
    metrics: &ServeMetrics,
    sup: &SupervisorShared,
    cfg: &ServeConfig,
) {
    loop {
        let index = {
            let mut q = lock_resilient(&sup.respawn_q);
            loop {
                if q.stop {
                    return;
                }
                if let Some(i) = q.respawns.pop() {
                    break i;
                }
                q = wait_resilient(&sup.wake, q);
            }
        };
        if let Some(shard) = shards.get(index as usize) {
            respawn_shard(shard, metrics, sup, cfg);
        }
    }
}

/// Rebuilds one quarantined shard from the configured snapshot and
/// re-admits it: read → decode → `hx_hash` witness check → swap the
/// fresh backend in → `Suspect` → probe query → `Healthy`. Every
/// failure leaves the shard `Down` (the next panic on it queues
/// another attempt); a corrupt or divergent snapshot is never
/// re-admitted.
fn respawn_shard(
    shard: &ShardInner,
    metrics: &ServeMetrics,
    sup: &SupervisorShared,
    cfg: &ServeConfig,
) {
    let path = lock_resilient(&sup.snapshot_path).clone();
    let Some(path) = path else { return };
    let Ok(bytes) = store::read_snapshot_bytes(&path) else {
        return;
    };
    let Ok(snap) = store::decode_snapshot(&bytes) else {
        return;
    };
    let witness = sup.witness.load(Ordering::Relaxed);
    if witness != 0 && store::hx_hash(&snap.navigator) != witness {
        return;
    }
    let fresh = Arc::new(Backend::from_navigator(snap.points, snap.navigator));
    *lock_resilient(&shard.backend) = Arc::clone(&fresh);
    shard.health.set(ShardHealth::Suspect);
    metrics.set_health_byte(shard.index as usize, ShardHealth::Suspect.code());
    // Boot-fidelity probe: one real query through the fresh backend.
    // Any outcome that is not `Internal` proves the kernel executes.
    let mut scratch = Scratch::new();
    let probe_ok = if fresh.is_empty() {
        true
    } else {
        let v = if fresh.len() >= 2 { 1 } else { 0 };
        let probe = Op::FindPath { u: 0, v };
        !matches!(
            fresh.execute(&probe, cfg.policy, &mut scratch),
            Err(ServeError::Internal)
        )
    };
    if probe_ok {
        shard.health.set(ShardHealth::Healthy);
        metrics.set_health_byte(shard.index as usize, ShardHealth::Healthy.code());
        ServeMetrics::bump(&metrics.respawns);
    } else {
        shard.health.set(ShardHealth::Down);
        metrics.set_health_byte(shard.index as usize, ShardHealth::Down.code());
    }
}
