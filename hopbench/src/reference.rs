//! Reference answers from direct in-process kernel calls, answer
//! digests and path validity, and the phase-timed builds they need.

use std::collections::HashSet;
use std::time::Instant;

use hopspan_core::{DegradationPolicy, FaultTolerantSpanner, MetricNavigator};
use hopspan_metric::{EuclideanSpace, Metric};
use hopspan_routing::{MetricRoutingScheme, RouteTrace};
use hopspan_serve::{BackendParams, Op};
use hopspan_tree_cover::RamseyTreeCover;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Incremental FNV-1a (the workspace's golden-hash convention).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a little-endian `u32` in.
    pub fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }

    /// Folds a little-endian `u64` in.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// FNV-1a over one (request, reply path) pair.
pub fn record(op: &Op, path: impl Iterator<Item = u32>) -> u64 {
    let mut h = Fnv::default();
    h.bytes(&[op.opcode()]);
    match *op {
        Op::FindPath { u, v } | Op::Route { u, v } => {
            h.u32(u);
            h.u32(v);
        }
        Op::RouteAvoiding { u, v, faults } => {
            h.u32(u);
            h.u32(v);
            for &f in faults.as_slice() {
                h.u32(f);
            }
        }
        Op::Stats | Op::Insert { .. } | Op::Remove { .. } => {}
    }
    for p in path {
        h.u32(p);
    }
    h.0
}

/// Whether `path` answers `op`: it runs from u to v, a `FindPath` takes
/// at most `k` hops, and a `RouteAvoiding` visits none of its faults.
pub fn valid(op: &Op, path: &[u32], k: usize) -> bool {
    let ends = |u: u32, v: u32| path.first() == Some(&u) && path.last() == Some(&v);
    match *op {
        Op::FindPath { u, v } => ends(u, v) && path.len() <= k + 1,
        Op::Route { u, v } => ends(u, v),
        Op::RouteAvoiding { u, v, faults } => {
            ends(u, v) && !path.iter().any(|p| faults.as_slice().contains(p))
        }
        Op::Stats | Op::Insert { .. } | Op::Remove { .. } => false,
    }
}

/// Wall times of a navigator build, phase by phase.
#[derive(Debug, Clone, Default)]
pub struct NavTimes {
    /// `RamseyTreeCover::with_tree_budget`, seconds.
    pub cover_s: f64,
    /// `from_cover_with_stats` "spanners" phase, seconds.
    pub spanners_s: f64,
    /// `from_cover_with_stats` "materialize" phase, seconds.
    pub materialize_s: f64,
    /// `H_X` edges.
    pub edges: usize,
    /// Cover trees.
    pub trees: usize,
}

/// Builds the navigator `MetricNavigator::general_budgeted` builds, one
/// timed phase at a time (same rng, same calls, same result).
///
/// # Errors
///
/// Construction failures, as text.
pub fn build_nav(
    metric: &EuclideanSpace,
    budget: usize,
    k: usize,
    seed: u64,
) -> Result<(MetricNavigator, NavTimes), String> {
    let start = Instant::now();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (cover, _gamma) =
        RamseyTreeCover::with_tree_budget(metric, budget, &mut rng).map_err(|e| e.to_string())?;
    let cover_s = start.elapsed().as_secs_f64();
    let home: Vec<usize> = (0..metric.len()).map(|p| cover.home(p)).collect();
    let (nav, stats) = MetricNavigator::from_cover_with_stats(
        metric,
        cover.into_cover().into_trees(),
        Some(home),
        k,
        None,
    )
    .map_err(|e| e.to_string())?;
    let phase = |name: &str| stats.phase_duration(name).map_or(0.0, |d| d.as_secs_f64());
    let times = NavTimes {
        cover_s,
        spanners_s: phase("spanners"),
        materialize_s: phase("materialize"),
        edges: nav.spanner_edge_count(),
        trees: nav.tree_count(),
    };
    Ok((nav, times))
}

/// The query structures of one backend, held for direct kernel calls.
pub struct Kernels {
    /// The point set.
    pub metric: EuclideanSpace,
    /// The Theorem 1.2 navigator.
    pub nav: MetricNavigator,
    /// Hop bound of `nav`.
    pub k: usize,
    /// The Theorem 1.3 routing scheme, when built.
    pub router: Option<MetricRoutingScheme>,
    /// The §6 fault-tolerant spanner, when built.
    pub ft: Option<FaultTolerantSpanner>,
    /// Build times of every structure.
    pub times: BuildTimes,
}

/// Build times of a full backend.
#[derive(Debug, Clone, Default)]
pub struct BuildTimes {
    /// The navigator.
    pub nav: NavTimes,
    /// `MetricRoutingScheme::general`, seconds.
    pub router_s: f64,
    /// Every phase `FaultTolerantSpanner::new_with_stats` reports.
    pub ft_phases: Vec<(String, f64)>,
    /// FT spanner edges.
    pub ft_edges: usize,
    /// FT cover trees.
    pub ft_trees: usize,
}

impl Kernels {
    /// Wraps a prebuilt navigator (no router, no FT spanner).
    pub fn navigator_only(metric: EuclideanSpace, nav: MetricNavigator, times: NavTimes) -> Self {
        let k = nav.k();
        Kernels {
            metric,
            nav,
            k,
            router: None,
            ft: None,
            times: BuildTimes {
                nav: times,
                ..BuildTimes::default()
            },
        }
    }

    /// Builds what `Backend::build` builds for `params`, each structure
    /// with the same seed and arguments, and times it.
    ///
    /// # Errors
    ///
    /// Construction failures, as text.
    pub fn backend(points: &[Vec<f64>], params: &BackendParams) -> Result<Self, String> {
        let metric = EuclideanSpace::from_points(points);
        let (nav, nav_times) = build_nav(&metric, params.tree_budget, params.k, params.seed)?;
        let mut times = BuildTimes {
            nav: nav_times,
            ..BuildTimes::default()
        };
        let router = if params.build_router {
            let start = Instant::now();
            let mut rng = ChaCha8Rng::seed_from_u64(params.seed ^ 0x5eed_0001);
            let r =
                MetricRoutingScheme::general(&metric, 2, &mut rng).map_err(|e| e.to_string())?;
            times.router_s = start.elapsed().as_secs_f64();
            Some(r)
        } else {
            None
        };
        let ft = if params.build_ft {
            let (ft, stats) =
                FaultTolerantSpanner::new_with_stats(&metric, params.eps, params.f, params.k, None)
                    .map_err(|e| e.to_string())?;
            times.ft_phases = stats
                .phases()
                .iter()
                .map(|p| (p.name.replace('/', "."), p.duration.as_secs_f64()))
                .collect();
            times.ft_edges = ft.edge_count();
            times.ft_trees = ft.tree_count();
            Some(ft)
        } else {
            None
        };
        Ok(Kernels {
            metric,
            k: nav.k(),
            nav,
            router,
            ft,
            times,
        })
    }

    /// Answers `op` by a direct kernel call into `out`.
    ///
    /// # Errors
    ///
    /// The kernel's error, as text.
    pub fn answer(&self, op: &Op, s: &mut KernelScratch) -> Result<(), String> {
        match *op {
            Op::FindPath { u, v } => self
                .nav
                .find_path_into(u as usize, v as usize, &mut s.out)
                .map(|_| ())
                .map_err(|e| e.to_string()),
            Op::Route { u, v } => {
                let router = self.router.as_ref().ok_or("no routing scheme")?;
                router
                    .route_into(u as usize, v as usize, &mut s.trace)
                    .map_err(|e| e.to_string())?;
                s.out.clear();
                s.out.extend_from_slice(&s.trace.path);
                Ok(())
            }
            Op::RouteAvoiding { u, v, faults } => {
                let ft = self.ft.as_ref().ok_or("no fault-tolerant spanner")?;
                s.faults.clear();
                s.faults
                    .extend(faults.as_slice().iter().map(|&f| f as usize));
                ft.find_path_avoiding_policy_into(
                    &self.metric,
                    u as usize,
                    v as usize,
                    &s.faults,
                    DegradationPolicy::Strict,
                    &mut s.out,
                    &mut s.tree,
                )
                .map(|_| ())
                .map_err(|e| e.to_string())
            }
            Op::Stats | Op::Insert { .. } | Op::Remove { .. } => Err("not a query".to_string()),
        }
    }

    /// The reference record of every op in `ops`, checking each
    /// reference path's validity.
    ///
    /// # Errors
    ///
    /// A kernel failure or an invalid reference path.
    pub fn records(&self, ops: &[Op]) -> Result<Vec<u64>, String> {
        let mut s = KernelScratch::default();
        ops.iter()
            .map(|op| {
                self.answer(op, &mut s)?;
                let path: Vec<u32> = s.out.iter().map(|&p| p as u32).collect();
                if !valid(op, &path, self.k) {
                    return Err(format!("reference path {path:?} is invalid for {op:?}"));
                }
                Ok(record(op, path.into_iter()))
            })
            .collect()
    }
}

/// Reused buffers of [`Kernels::answer`].
#[derive(Debug, Default)]
pub struct KernelScratch {
    /// The answer path.
    pub out: Vec<usize>,
    tree: Vec<usize>,
    trace: RouteTrace,
    faults: HashSet<usize>,
}
