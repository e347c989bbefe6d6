//! Fault-tolerant 2-hop routing in doubling metrics (Theorem 5.2, §5.2).
//!
//! The scheme is [`crate::MetricRoutingScheme`]'s doubling scheme built
//! with tolerance `f`: every label/table entry stores the ports of all
//! `f + 1` candidates `R(w)` of the relevant cut vertex, and the overlay
//! is the biclique spanner of Theorem 4.2 (f = 0 recovers the plain
//! scheme exactly). The local decision scans the candidates for a
//! non-faulty one — O(f) decision time; label and table sizes grow by a
//! factor of `f + 1`.

use std::collections::HashSet;

use hopspan_core::{DegradationPolicy, DegradeReason, FtPathOutcome};
use hopspan_metric::{path_weight, Metric};
use hopspan_pipeline::BuildStats;
use rand::Rng;

use crate::network::{Network, RouteTrace};
use crate::scheme::{route_on_tree_into, RoutingError, SchemeStats};
use crate::{MetricRoutingScheme, NavBuildError};

/// An f-fault-tolerant 2-hop routing scheme for doubling metrics.
#[derive(Debug)]
pub struct FtMetricRoutingScheme {
    scheme: MetricRoutingScheme,
    f: usize,
}

impl FtMetricRoutingScheme {
    /// Builds the f-fault-tolerant scheme over the robust tree cover with
    /// parameter `eps`.
    ///
    /// # Errors
    ///
    /// Propagates cover and spanner construction failures.
    pub fn new<M: Metric + Sync, R: Rng>(
        metric: &M,
        eps: f64,
        f: usize,
        rng: &mut R,
    ) -> Result<Self, NavBuildError> {
        Self::new_with_stats(metric, eps, f, rng, None).map(|(rs, _)| rs)
    }

    /// Like [`FtMetricRoutingScheme::new`], with explicit control over
    /// the preprocessing worker count (`None` = automatic) and the
    /// build telemetry returned alongside the scheme.
    ///
    /// # Errors
    ///
    /// Propagates cover and spanner construction failures.
    pub fn new_with_stats<M: Metric + Sync, R: Rng>(
        metric: &M,
        eps: f64,
        f: usize,
        rng: &mut R,
        workers: Option<usize>,
    ) -> Result<(Self, BuildStats), NavBuildError> {
        let (scheme, stats) = MetricRoutingScheme::robust_with_stats(metric, eps, f, rng, workers)?;
        Ok((FtMetricRoutingScheme { scheme, f }, stats))
    }

    /// The fault-tolerance parameter f.
    pub fn fault_tolerance(&self) -> usize {
        self.f
    }

    /// Number of trees ζ.
    pub fn tree_count(&self) -> usize {
        self.scheme.tree_count()
    }

    /// Size statistics (bits).
    pub fn stats(&self) -> SchemeStats {
        self.scheme.stats()
    }

    /// The overlay network (the Theorem 4.2 biclique spanner with ports).
    pub fn network(&self) -> &Network {
        self.scheme.network()
    }

    /// Routes from `u` to `v` while avoiding `faulty` nodes: tries trees
    /// in order of decoded tree distance and returns the first surviving
    /// delivery.
    ///
    /// # Errors
    ///
    /// Returns a [`RoutingError`] for invalid/faulty endpoints or when
    /// more than `f` faults break every tree (cannot happen for
    /// `|faulty| ≤ f`).
    pub fn route_avoiding(
        &self,
        u: usize,
        v: usize,
        faulty: &HashSet<usize>,
    ) -> Result<RouteTrace, RoutingError> {
        let mut trace = RouteTrace::default();
        let mut order = Vec::with_capacity(self.scheme.trees.len()); // hopspan:allow(alloc-on-query-path) -- convenience wrapper: allocates the caller-owned buffer once, then delegates to the *_into hot path
        self.route_avoiding_into(u, v, faulty, &mut trace, &mut order)?;
        Ok(trace)
    }

    /// Like [`FtMetricRoutingScheme::route_avoiding`], but writes into a
    /// caller-owned trace and reuses `order` as scratch for the
    /// distance-sorted tree order, so a warm caller pays no per-query
    /// allocation. The trace is reset first; on error its contents are
    /// unspecified.
    ///
    /// # Errors
    ///
    /// Returns a [`RoutingError`] for invalid/faulty endpoints or when
    /// more than `f` faults break every tree (cannot happen for
    /// `|faulty| ≤ f`).
    pub fn route_avoiding_into(
        &self,
        u: usize,
        v: usize,
        faulty: &HashSet<usize>,
        trace: &mut RouteTrace,
        order: &mut Vec<(usize, f64)>,
    ) -> Result<(), RoutingError> {
        let rs = &self.scheme;
        if u >= rs.n || faulty.contains(&u) {
            return Err(RoutingError::BadEndpoint { node: u });
        }
        if v >= rs.n || faulty.contains(&v) {
            return Err(RoutingError::BadEndpoint { node: v });
        }
        if u == v {
            trace.path.clear();
            trace.path.push(u);
            trace.max_header_bits = 0;
            trace.decision_steps = 0;
            return Ok(());
        }
        // Order trees by decoded tree distance.
        order.clear();
        for (i, t) in rs.trees.iter().enumerate() {
            let Some((lu, lv)) = t.leaf_of.pair(u, v) else {
                continue;
            };
            order.push((i, t.labeling.distance(lu, lv)));
        }
        // Unstable sort with an index tiebreaker: allocation-free, and
        // identical to a stable sort on distance alone because indices
        // are distinct.
        order.sort_unstable_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        let mut extra_steps = order.len();
        for &(ti, _) in order.iter() {
            match route_on_tree_into(&rs.trees[ti].scheme, &rs.net, u, v, faulty, trace) {
                Ok(()) => {
                    if trace.path.iter().any(|p| faulty.contains(p)) {
                        continue;
                    }
                    trace.decision_steps += extra_steps;
                    return Ok(());
                }
                Err(RoutingError::Undeliverable) => {
                    extra_steps += 1;
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        Err(RoutingError::Undeliverable)
    }

    /// Like [`FtMetricRoutingScheme::route_avoiding`], but under an
    /// explicit [`DegradationPolicy`], with the metric supplied so a
    /// degraded delivery can report its achieved stretch.
    ///
    /// Under [`DegradationPolicy::Strict`], a fault set larger than the
    /// budget `f` is rejected up front with
    /// [`RoutingError::TooManyFaults`]; in-contract queries behave
    /// exactly like [`FtMetricRoutingScheme::route_avoiding`]. Under
    /// [`DegradationPolicy::BestEffort`], over-budget fault sets are
    /// still attempted: a surviving delivery is reported as
    /// [`FtPathOutcome::Degraded`] with
    /// [`DegradeReason::BudgetExceeded`] and the measured stretch of the
    /// delivered route. Unlike the spanner-level
    /// `find_path_avoiding_with_policy`, routing cannot fabricate a
    /// direct fallback edge — packets only travel the overlay network —
    /// so an undeliverable pair stays [`RoutingError::Undeliverable`]
    /// under both policies.
    ///
    /// # Errors
    ///
    /// [`RoutingError`] for invalid/faulty endpoints, strict-mode budget
    /// violations, or undeliverable pairs.
    pub fn route_avoiding_with_policy<M: Metric>(
        &self,
        metric: &M,
        u: usize,
        v: usize,
        faulty: &HashSet<usize>,
        policy: DegradationPolicy,
    ) -> Result<(RouteTrace, FtPathOutcome), RoutingError> {
        let mut trace = RouteTrace::default();
        let mut order = Vec::with_capacity(self.scheme.trees.len()); // hopspan:allow(alloc-on-query-path) -- convenience wrapper: allocates the caller-owned buffer once, then delegates to the *_into hot path
        let outcome =
            self.route_avoiding_policy_into(metric, u, v, faulty, policy, &mut trace, &mut order)?;
        Ok((trace, outcome))
    }

    /// Allocation-reusing form of
    /// [`FtMetricRoutingScheme::route_avoiding_with_policy`]; the trace
    /// is reset first and on error its contents are unspecified.
    ///
    /// # Errors
    ///
    /// [`RoutingError`] for invalid/faulty endpoints, strict-mode budget
    /// violations, or undeliverable pairs.
    #[allow(clippy::too_many_arguments)]
    pub fn route_avoiding_policy_into<M: Metric>(
        &self,
        metric: &M,
        u: usize,
        v: usize,
        faulty: &HashSet<usize>,
        policy: DegradationPolicy,
        trace: &mut RouteTrace,
        order: &mut Vec<(usize, f64)>,
    ) -> Result<FtPathOutcome, RoutingError> {
        let over_budget = faulty.len() > self.f;
        if over_budget && policy == DegradationPolicy::Strict {
            return Err(RoutingError::TooManyFaults {
                got: faulty.len(),
                f: self.f,
            });
        }
        self.route_avoiding_into(u, v, faulty, trace, order)?;
        if !over_budget {
            return Ok(FtPathOutcome::Full);
        }
        let w = path_weight(metric, &trace.path);
        let d = metric.dist(u, v);
        Ok(FtPathOutcome::Degraded {
            reason: DegradeReason::BudgetExceeded {
                got: faulty.len(),
                f: self.f,
            },
            achieved_stretch: if d > 0.0 { w / d } else { 1.0 },
        })
    }

    /// Measured stretch/hops over all non-faulty pairs.
    ///
    /// Source rows fan out over scoped workers through
    /// [`hopspan_pipeline::max_over_rows`]; each worker reuses one trace
    /// and one order-scratch buffer, so the outcome is identical for
    /// every worker count.
    ///
    /// # Errors
    ///
    /// Propagates [`RoutingError`] if any non-faulty pair fails to
    /// route; with multiple failures, the one from the lowest source row
    /// wins.
    pub fn measured_stretch_and_hops<M: Metric + Sync>(
        &self,
        metric: &M,
        faulty: &HashSet<usize>,
    ) -> Result<(f64, usize), RoutingError> {
        let n = self.scheme.n;
        hopspan_pipeline::max_over_rows(n, |u| {
            let mut worst = 1.0f64;
            let mut hops = 0usize;
            if faulty.contains(&u) {
                return Ok((worst, hops));
            }
            let mut trace = RouteTrace::default();
            let mut order = Vec::with_capacity(self.scheme.trees.len());
            for v in 0..n {
                if u == v || faulty.contains(&v) {
                    continue;
                }
                self.route_avoiding_into(u, v, faulty, &mut trace, &mut order)?;
                assert_eq!(trace.path.last(), Some(&v));
                for p in &trace.path {
                    assert!(!faulty.contains(p), "routed through a faulty node");
                }
                let d = metric.dist(u, v);
                if d > 0.0 {
                    worst = worst.max(path_weight(metric, &trace.path) / d);
                }
                hops = hops.max(trace.hops());
            }
            Ok((worst, hops))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopspan_metric::gen;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(606)
    }

    #[test]
    fn delivers_under_faults() {
        let m = gen::uniform_points(16, 2, &mut rng());
        for f in [1usize, 2] {
            let rs = FtMetricRoutingScheme::new(&m, 0.25, f, &mut rng()).unwrap();
            let mut ids: Vec<usize> = (0..16).collect();
            ids.shuffle(&mut rng());
            let faulty: HashSet<usize> = ids.into_iter().take(f).collect();
            let (stretch, hops) = rs.measured_stretch_and_hops(&m, &faulty).unwrap();
            assert!(hops <= 2, "hops {hops} (f={f})");
            // 1 + O(ε) with the paper's constants, plus the detour cost of
            // the fixed f+1 candidate sets.
            assert!(stretch <= 8.0, "stretch {stretch} (f={f})");
        }
    }

    #[test]
    fn bits_grow_with_f() {
        let m = gen::uniform_points(16, 2, &mut rng());
        let s0 = FtMetricRoutingScheme::new(&m, 0.5, 0, &mut rng())
            .unwrap()
            .stats();
        let s3 = FtMetricRoutingScheme::new(&m, 0.5, 3, &mut rng())
            .unwrap()
            .stats();
        assert!(
            s3.max_label_bits > s0.max_label_bits,
            "labels must grow with f: {} vs {}",
            s0.max_label_bits,
            s3.max_label_bits
        );
        // Theorem 5.2 shape: growth is at most a factor ~(f+1).
        assert!(s3.max_label_bits <= 5 * s0.max_label_bits);
    }

    #[test]
    fn rejects_faulty_endpoints() {
        let m = gen::uniform_points(10, 2, &mut rng());
        let rs = FtMetricRoutingScheme::new(&m, 0.5, 1, &mut rng()).unwrap();
        let faulty: HashSet<usize> = [2usize].into_iter().collect();
        assert!(matches!(
            rs.route_avoiding(2, 5, &faulty),
            Err(RoutingError::BadEndpoint { node: 2 })
        ));
    }

    #[test]
    fn strict_policy_rejects_over_budget_fault_sets() {
        let m = gen::uniform_points(14, 2, &mut rng());
        let rs = FtMetricRoutingScheme::new(&m, 0.25, 1, &mut rng()).unwrap();
        let faulty: HashSet<usize> = [3usize, 7, 9].into_iter().collect();
        assert!(matches!(
            rs.route_avoiding_with_policy(&m, 0, 1, &faulty, DegradationPolicy::Strict),
            Err(RoutingError::TooManyFaults { got: 3, f: 1 })
        ));
        // In-contract queries match the policy-free entry point.
        let small: HashSet<usize> = [3usize].into_iter().collect();
        let (trace, outcome) = rs
            .route_avoiding_with_policy(&m, 0, 1, &small, DegradationPolicy::Strict)
            .unwrap();
        assert_eq!(outcome, FtPathOutcome::Full);
        assert_eq!(trace.path, rs.route_avoiding(0, 1, &small).unwrap().path);
    }

    #[test]
    fn best_effort_reports_degraded_delivery_over_budget() {
        let m = gen::uniform_points(14, 2, &mut rng());
        let rs = FtMetricRoutingScheme::new(&m, 0.25, 1, &mut rng()).unwrap();
        let faulty: HashSet<usize> = [3usize, 7, 9].into_iter().collect();
        let mut delivered = 0usize;
        for (u, v) in [(0usize, 1usize), (2, 5), (10, 13)] {
            match rs.route_avoiding_with_policy(&m, u, v, &faulty, DegradationPolicy::BestEffort) {
                Ok((trace, outcome)) => {
                    delivered += 1;
                    assert_eq!(trace.path.last(), Some(&v));
                    assert!(trace.path.iter().all(|p| !faulty.contains(p)));
                    match outcome {
                        FtPathOutcome::Degraded {
                            reason: DegradeReason::BudgetExceeded { got: 3, f: 1 },
                            achieved_stretch,
                        } => assert!(achieved_stretch >= 1.0 - 1e-12),
                        other => panic!("expected a budget-exceeded degrade, got {other:?}"),
                    }
                }
                Err(RoutingError::Undeliverable) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        // On this seed at least one over-budget pair still delivers.
        assert!(delivered > 0);
    }

    #[test]
    fn zero_tolerance_is_plain_doubling_routing() {
        // Theorem 5.2 with f = 0 is Theorem 1.3's scheme: the same
        // overlay, ports, bit statistics and routes.
        for (n, eps, seed) in [(20usize, 0.5, 1u64), (40, 0.25, 2), (64, 0.5, 3)] {
            let m = gen::uniform_points(n, 2, &mut ChaCha8Rng::seed_from_u64(seed));
            let rng = || ChaCha8Rng::seed_from_u64(seed + 100);
            let ft = FtMetricRoutingScheme::new(&m, eps, 0, &mut rng()).unwrap();
            let plain = crate::MetricRoutingScheme::doubling(&m, eps, &mut rng()).unwrap();
            assert_eq!(ft.stats(), plain.stats(), "n={n}");
            let (a, b) = (ft.network(), plain.network());
            assert_eq!(a.len(), b.len());
            for v in 0..n {
                let ports = |net: &Network| -> Vec<usize> {
                    (0..net.degree(v)).map(|p| net.target(v, p)).collect()
                };
                assert_eq!(ports(a), ports(b), "n={n} node {v}");
            }
            let none = HashSet::new();
            for u in 0..n {
                for v in 0..n {
                    let (x, y) = (
                        ft.route_avoiding(u, v, &none).unwrap(),
                        plain.route(u, v).unwrap(),
                    );
                    assert_eq!(x.path, y.path, "n={n} ({u},{v})");
                    assert_eq!(x.max_header_bits, y.max_header_bits);
                    assert_eq!(x.decision_steps, y.decision_steps);
                }
            }
        }
    }

    #[test]
    fn zero_faults_routes_everywhere() {
        let m = gen::uniform_points(12, 2, &mut rng());
        let rs = FtMetricRoutingScheme::new(&m, 0.5, 1, &mut rng()).unwrap();
        let (stretch, hops) = rs.measured_stretch_and_hops(&m, &HashSet::new()).unwrap();
        assert!(hops <= 2);
        assert!(stretch <= 10.0);
    }
}
