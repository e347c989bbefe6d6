//! The campaign driver: seeded scenario generation, contained
//! execution, and the single invariant every scenario is held to.
//!
//! A campaign runs three scenario families — adversarial fault sets,
//! corrupted metrics, injected worker panics — and records one
//! [`ScenarioOutcome`] per scenario. The invariant
//! ([`CampaignReport::assert_invariants`]):
//!
//! 1. **No panic escapes.** Every scenario body runs under
//!    `catch_unwind`; an escaped panic is recorded and fails the
//!    campaign.
//! 2. **In-contract queries meet the bound.** For `|F| ≤ f`, every
//!    sampled pair must route with stretch ≤ the configured §6 bound
//!    and ≤ k hops.
//! 3. **Out-of-contract inputs fail typed, or degrade
//!    deterministically.** Over-budget fault sets yield
//!    [`hopspan_core::FtError::TooManyFaults`] under `Strict` and a
//!    deterministic [`hopspan_core::FtPath::Degraded`] under
//!    `BestEffort`; corrupted metrics yield typed constructor errors.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use hopspan_core::{
    DegradationPolicy, FaultTolerantSpanner, FtPath, HopspanError, MetricNavigator,
};
use hopspan_metric::{path_weight, MatrixMetric, Metric, MetricAudit};
use hopspan_tree_cover::RobustTreeCover;
use rand::rngs::Pcg32;
use rand::Rng;

use crate::churn::{churn_points, churn_probe, ChurnKind};
use crate::corrupt::{corrupt_matrix, CorruptKind, PoisonedMetric};
use crate::outage::{outage_points, outage_probe, OutageKind};
use crate::panics::{panic_injection_scenario, PanicInjection, PanicOutcome};
use crate::serve::{
    build_serve_backend, start_wire_server, wire_fault_probe, worker_panic_probe, WireFaultKind,
};
use crate::snapshot::{build_snapshot_target, snapshot_fault_probe, SnapshotFaultKind};
use crate::strategies::FaultStrategy;
use crate::Fnv1a;

/// Campaign parameters. `Default` is the full-size campaign;
/// [`CampaignConfig::smoke`] is the CI-sized one.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; a campaign is fully determined by it and the sizes.
    pub seed: u64,
    /// Points in the base metric for fault scenarios.
    pub n: usize,
    /// Cover stretch parameter.
    pub eps: f64,
    /// Hop bound of the FT spanner.
    pub k: usize,
    /// Fault budgets to campaign over (`f = 1..2^j` style sweeps).
    pub f_values: Vec<usize>,
    /// Scenarios per (budget, strategy) cell, each with a fresh fault
    /// set; every cell runs once in-contract and once over-budget.
    pub scenarios_per_cell: usize,
    /// Query pairs sampled per fault scenario.
    pub pairs_per_scenario: usize,
    /// Points in each corrupted metric.
    pub corrupt_n: usize,
    /// Corrupted-metric scenarios per [`CorruptKind`].
    pub corrupt_per_kind: usize,
    /// Panic-injection scenarios per (transient, persistent) mode.
    pub panic_per_mode: usize,
    /// Worker-panic scenarios against a live `hopspan-serve` server.
    pub serve_panic_scenarios: usize,
    /// Malformed-frame scenarios per [`crate::WireFaultKind`], against
    /// a live server.
    pub serve_wire_per_kind: usize,
    /// Corrupted-snapshot scenarios per [`crate::SnapshotFaultKind`].
    pub snapshot_per_kind: usize,
    /// Shard-outage scenarios per [`crate::OutageKind`], against live
    /// replicated engines (kill/slow/flapping/corrupt-respawn).
    pub outage_per_kind: usize,
    /// Churn scenarios per [`crate::ChurnKind`], against live dynamic
    /// navigators (mutate-race/kill-during-rebuild/swap-storm/
    /// retired-query).
    pub churn_per_kind: usize,
    /// Worker counts each panic scenario must agree across.
    pub panic_worker_counts: Vec<usize>,
    /// The §6 stretch bound in-contract queries must meet (the paper's
    /// 1 + O(ε) with its constants; 8.0 matches the workspace's test
    /// calibration for ε = 0.25).
    pub stretch_bound: f64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0x2026_0706,
            n: 64,
            eps: 0.25,
            k: 2,
            f_values: vec![1, 2, 4, 8],
            scenarios_per_cell: 4,
            pairs_per_scenario: 24,
            corrupt_n: 24,
            corrupt_per_kind: 16,
            panic_per_mode: 36,
            panic_worker_counts: vec![1, 4, 16],
            serve_panic_scenarios: 6,
            serve_wire_per_kind: 4,
            snapshot_per_kind: 8,
            outage_per_kind: 6,
            churn_per_kind: 16,
            stretch_bound: 8.0,
        }
    }
}

impl CampaignConfig {
    /// The CI-sized campaign: still ≥ 200 scenarios, but small enough
    /// to finish in seconds.
    pub fn smoke(seed: u64) -> Self {
        CampaignConfig {
            seed,
            n: 32,
            f_values: vec![1, 2, 4],
            scenarios_per_cell: 4,
            pairs_per_scenario: 12,
            corrupt_n: 16,
            corrupt_per_kind: 12,
            panic_per_mode: 30,
            panic_worker_counts: vec![1, 4],
            serve_panic_scenarios: 4,
            serve_wire_per_kind: 2,
            snapshot_per_kind: 4,
            outage_per_kind: 2,
            churn_per_kind: 2,
            ..CampaignConfig::default()
        }
    }

    /// Total number of scenarios this configuration will run.
    pub fn scenario_count(&self) -> usize {
        self.f_values.len() * FaultStrategy::ALL.len() * self.scenarios_per_cell * 2
            + CorruptKind::ALL.len() * self.corrupt_per_kind
            + 2 * self.panic_per_mode
            + self.serve_panic_scenarios
            + WireFaultKind::ALL.len() * self.serve_wire_per_kind
            + SnapshotFaultKind::ALL.len() * self.snapshot_per_kind
            + OutageKind::ALL.len() * self.outage_per_kind
            + ChurnKind::ALL.len() * self.churn_per_kind
    }
}

/// Which family a scenario belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScenarioKind {
    /// Adversarial fault set within the budget (`|F| ≤ f`).
    InContractFaults,
    /// Adversarial fault set beyond the budget (`|F| > f`).
    OverBudgetFaults,
    /// A corrupted distance matrix thrown at the constructors.
    CorruptMetric,
    /// Injected worker panics inside a pipeline fan-out.
    PanicInjection,
    /// Worker panics and malformed frames against a live
    /// `hopspan-serve` TCP server.
    ServePanic,
    /// A damaged `HSNP` snapshot file thrown at the store loader.
    CorruptSnapshot,
    /// A scripted shard outage (kill/slow/flapping/corrupt-respawn)
    /// against a live replicated engine.
    Outage,
    /// A scripted mutation storm against a live dynamic navigator
    /// (mutate-race/kill-during-rebuild/swap-storm/retired-query).
    Churn,
}

impl ScenarioKind {
    /// Short stable tag for reports.
    pub fn tag(&self) -> &'static str {
        match self {
            ScenarioKind::InContractFaults => "in-contract",
            ScenarioKind::OverBudgetFaults => "over-budget",
            ScenarioKind::CorruptMetric => "corrupt-metric",
            ScenarioKind::PanicInjection => "panic-injection",
            ScenarioKind::ServePanic => "serve-panic",
            ScenarioKind::CorruptSnapshot => "corrupt-snapshot",
            ScenarioKind::Outage => "outage",
            ScenarioKind::Churn => "churn",
        }
    }
}

/// How a scenario resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum OutcomeKind {
    /// Every query delivered a full-contract path.
    Full,
    /// Delivery happened through the degradation path.
    Degraded,
    /// The input was rejected with a typed error (the correct outcome
    /// for out-of-contract inputs under `Strict`).
    TypedError,
    /// A panic escaped, a bound was missed, or an outcome was
    /// nondeterministic — the campaign invariant is broken.
    Violation,
}

/// One scenario's record.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario index within the campaign (stable across runs).
    pub id: usize,
    /// The family.
    pub kind: ScenarioKind,
    /// Sub-tag: strategy, corruption kind, or injection mode.
    pub tag: &'static str,
    /// Fault budget f of the attacked structure (0 when n/a).
    pub f_budget: usize,
    /// Number of injected faults (or failing units).
    pub fault_count: usize,
    /// How it resolved.
    pub outcome: OutcomeKind,
    /// Worst stretch observed over the scenario's delivered paths.
    pub max_stretch: f64,
    /// Worst hop count observed over the scenario's delivered paths.
    pub max_hops: usize,
    /// Human-readable detail (error display, violation description).
    pub detail: String,
}

/// The campaign's aggregated result.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Per-scenario records, in campaign order.
    pub scenarios: Vec<ScenarioOutcome>,
    /// Panics that escaped a scenario body (must be zero).
    pub escaped_panics: usize,
}

impl CampaignReport {
    /// Scenarios that delivered (fully or degraded) out of those that
    /// attempted delivery (fault-set scenarios).
    pub fn survival_rate(&self) -> f64 {
        let attempted: Vec<_> = self
            .scenarios
            .iter()
            .filter(|s| {
                matches!(
                    s.kind,
                    ScenarioKind::InContractFaults | ScenarioKind::OverBudgetFaults
                )
            })
            .collect();
        if attempted.is_empty() {
            return 1.0;
        }
        let delivered = attempted
            .iter()
            .filter(|s| matches!(s.outcome, OutcomeKind::Full | OutcomeKind::Degraded))
            .count();
        delivered as f64 / attempted.len() as f64
    }

    /// Number of scenarios with a given outcome.
    pub fn count(&self, outcome: OutcomeKind) -> usize {
        self.scenarios
            .iter()
            .filter(|s| s.outcome == outcome)
            .count()
    }

    /// Worst stretch over all in-contract scenarios.
    pub fn max_in_contract_stretch(&self) -> f64 {
        self.scenarios
            .iter()
            .filter(|s| s.kind == ScenarioKind::InContractFaults)
            .map(|s| s.max_stretch)
            .fold(1.0, f64::max)
    }

    /// The golden hash over every degraded delivery (ids, reasons,
    /// paths, stretches — bit-exact). Pinned by the determinism tests:
    /// the same campaign seed must reproduce it for any worker count.
    pub fn degraded_hash(&self) -> u64 {
        let mut h = Fnv1a::default();
        for s in &self.scenarios {
            if s.outcome == OutcomeKind::Degraded {
                h.write_usize(s.id);
                h.write(s.detail.as_bytes());
                h.write_f64(s.max_stretch);
                h.write_usize(s.max_hops);
            }
        }
        h.finish()
    }

    /// Asserts the campaign invariant; returns every violation's
    /// description (empty = the stack survived the campaign).
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.escaped_panics > 0 {
            out.push(format!(
                "{} panic(s) escaped a scenario",
                self.escaped_panics
            ));
        }
        for s in &self.scenarios {
            if s.outcome == OutcomeKind::Violation {
                out.push(format!(
                    "scenario {} [{}]: {}",
                    s.id,
                    s.kind.tag(),
                    s.detail
                ));
            }
        }
        out
    }

    /// Panics with a full report if [`CampaignReport::violations`] is
    /// non-empty. For tests and the E23 harness.
    ///
    /// # Panics
    ///
    /// When the campaign invariant is broken.
    pub fn assert_invariants(&self) {
        let v = self.violations();
        assert!(v.is_empty(), "campaign invariant broken:\n{}", v.join("\n"));
    }
}

/// Derives the scenario generator for a (family, cell, index) triple:
/// PCG32 streams make every scenario independently replayable.
fn scenario_rng(seed: u64, family: u64, cell: u64, index: u64) -> Pcg32 {
    Pcg32::new(seed ^ family.rotate_left(24), (cell << 16) | index)
}

/// Runs the full campaign. Deterministic in `cfg`; independent of
/// `HOPSPAN_WORKERS`. Never panics — violations are recorded in the
/// report instead (see [`CampaignReport::assert_invariants`]).
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let mut report = CampaignReport::default();
    let mut id = 0usize;
    run_fault_scenarios(cfg, &mut report, &mut id);
    run_corrupt_scenarios(cfg, &mut report, &mut id);
    run_panic_scenarios(cfg, &mut report, &mut id);
    run_serve_scenarios(cfg, &mut report, &mut id);
    run_snapshot_scenarios(cfg, &mut report, &mut id);
    // Outage and churn scenarios run LAST (in that order) so every
    // earlier family keeps its scenario ids — the golden degraded hash
    // is pinned to them. Neither family ever produces `Degraded`
    // outcomes, so the hash is invariant to both.
    run_outage_scenarios(cfg, &mut report, &mut id);
    run_churn_scenarios(cfg, &mut report, &mut id);
    report
}

/// Runs `body` with panic containment; an escaped panic becomes a
/// `Violation` outcome and bumps the escaped-panic counter.
fn contained(
    report: &mut CampaignReport,
    template: ScenarioOutcome,
    body: impl FnOnce() -> ScenarioOutcome,
) {
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(outcome) => report.scenarios.push(outcome),
        Err(payload) => {
            report.escaped_panics += 1;
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            report.scenarios.push(ScenarioOutcome {
                outcome: OutcomeKind::Violation,
                detail: format!("escaped panic: {msg}"),
                ..template
            });
        }
    }
}

fn run_fault_scenarios(cfg: &CampaignConfig, report: &mut CampaignReport, id: &mut usize) {
    let mut rng = scenario_rng(cfg.seed, 1, 0, 0);
    let metric = hopspan_metric::gen::uniform_points(cfg.n, 2, &mut rng);
    for (fi, &f) in cfg.f_values.iter().enumerate() {
        let spanner = match FaultTolerantSpanner::new(&metric, cfg.eps, f, cfg.k) {
            Ok(sp) => sp,
            Err(e) => {
                report.scenarios.push(ScenarioOutcome {
                    id: *id,
                    kind: ScenarioKind::InContractFaults,
                    tag: "build",
                    f_budget: f,
                    fault_count: 0,
                    outcome: OutcomeKind::Violation,
                    max_stretch: 1.0,
                    max_hops: 0,
                    detail: format!("spanner build failed: {e}"),
                });
                *id += 1;
                continue;
            }
        };
        for (si, strategy) in FaultStrategy::ALL.iter().enumerate() {
            for rep in 0..cfg.scenarios_per_cell {
                for over_budget in [false, true] {
                    let cell = (fi as u64) << 8 | (si as u64) << 4 | u64::from(over_budget);
                    let mut rng = scenario_rng(cfg.seed, 2, cell, rep as u64);
                    let count = if over_budget { f + 1 } else { f };
                    let faults: HashSet<usize> = strategy
                        .select(&spanner, &metric, count, &mut rng)
                        .into_iter()
                        .collect();
                    let template = ScenarioOutcome {
                        id: *id,
                        kind: if over_budget {
                            ScenarioKind::OverBudgetFaults
                        } else {
                            ScenarioKind::InContractFaults
                        },
                        tag: strategy.tag(),
                        f_budget: f,
                        fault_count: faults.len(),
                        outcome: OutcomeKind::Violation,
                        max_stretch: 1.0,
                        max_hops: 0,
                        detail: String::new(),
                    };
                    contained(report, template.clone(), || {
                        fault_scenario(cfg, &spanner, &metric, &faults, over_budget, rng, template)
                    });
                    *id += 1;
                }
            }
        }
    }
}

/// One fault-set scenario: sample pairs, query under both policies,
/// hold the §6 bound in contract and demand typed/degraded outcomes
/// beyond it.
fn fault_scenario(
    cfg: &CampaignConfig,
    spanner: &FaultTolerantSpanner,
    metric: &hopspan_metric::EuclideanSpace,
    faults: &HashSet<usize>,
    over_budget: bool,
    mut rng: Pcg32,
    mut out: ScenarioOutcome,
) -> ScenarioOutcome {
    let n = metric.len();
    let alive: Vec<usize> = (0..n).filter(|p| !faults.contains(p)).collect();
    let mut max_stretch = 1.0f64;
    let mut max_hops = 0usize;
    let mut degraded = 0usize;
    let mut detail = String::new();
    for _ in 0..cfg.pairs_per_scenario {
        let u = alive[rng.gen_range(0..alive.len())];
        let v = alive[rng.gen_range(0..alive.len())];
        if u == v {
            continue;
        }
        let strict = spanner.find_path_avoiding(metric, u, v, faults);
        let best = spanner.find_path_avoiding_with_policy(
            metric,
            u,
            v,
            faults,
            DegradationPolicy::BestEffort,
        );
        if over_budget {
            // Out of contract: Strict must reject typed; BestEffort must
            // deliver (possibly degraded) without panicking.
            if strict.is_ok() {
                out.outcome = OutcomeKind::Violation;
                out.detail = format!("strict accepted an over-budget fault set ({u}, {v})");
                return out;
            }
            match best {
                Ok(FtPath::Full(_)) => {}
                Ok(FtPath::Degraded {
                    path,
                    reason,
                    achieved_stretch,
                }) => {
                    degraded += 1;
                    max_stretch = max_stretch.max(achieved_stretch);
                    max_hops = max_hops.max(path.len().saturating_sub(1));
                    // Deterministic degrade record for the golden hash.
                    detail.push_str(&format!("({u},{v}:{reason}|{achieved_stretch:.12});"));
                }
                Err(e) => {
                    out.outcome = OutcomeKind::Violation;
                    out.detail = format!("best-effort errored over budget ({u}, {v}): {e}");
                    return out;
                }
            }
        } else {
            // In contract: Theorem 4.2 guarantees delivery within the
            // bound; anything else is a violation.
            match strict {
                Ok(path) => {
                    let d = metric.dist(u, v);
                    let stretch = if d > 0.0 {
                        path_weight(metric, &path) / d
                    } else {
                        1.0
                    };
                    let hops = path.len().saturating_sub(1);
                    if stretch > cfg.stretch_bound || hops > cfg.k {
                        out.outcome = OutcomeKind::Violation;
                        out.detail = format!(
                            "in-contract bound missed ({u}, {v}): stretch {stretch:.3} hops {hops}"
                        );
                        return out;
                    }
                    max_stretch = max_stretch.max(stretch);
                    max_hops = max_hops.max(hops);
                }
                Err(e) => {
                    out.outcome = OutcomeKind::Violation;
                    out.detail = format!("in-contract query failed ({u}, {v}): {e}");
                    return out;
                }
            }
            // BestEffort must agree with Strict in contract.
            match best {
                Ok(FtPath::Full(_)) => {}
                other => {
                    out.outcome = OutcomeKind::Violation;
                    out.detail = format!("best-effort diverged in contract ({u}, {v}): {other:?}");
                    return out;
                }
            }
        }
    }
    out.outcome = if degraded > 0 {
        OutcomeKind::Degraded
    } else if over_budget {
        OutcomeKind::TypedError
    } else {
        OutcomeKind::Full
    };
    out.max_stretch = max_stretch;
    out.max_hops = max_hops;
    out.detail = detail;
    out
}

/// Serve-layer scenarios: worker panics behind a live TCP server, then
/// malformed frames against a shared healthy server. Each probe must
/// resolve every connection with a typed error frame — a hang or an
/// escaped panic is a violation.
fn run_serve_scenarios(cfg: &CampaignConfig, report: &mut CampaignReport, id: &mut usize) {
    if cfg.serve_panic_scenarios == 0 && cfg.serve_wire_per_kind == 0 {
        return;
    }
    let template = |id: usize, tag: &'static str, faults: usize| ScenarioOutcome {
        id,
        kind: ScenarioKind::ServePanic,
        tag,
        f_budget: 0,
        fault_count: faults,
        outcome: OutcomeKind::Violation,
        max_stretch: 1.0,
        max_hops: 0,
        detail: String::new(),
    };
    let backend = match build_serve_backend(cfg.n.max(16), cfg.seed) {
        Ok(b) => b,
        Err(detail) => {
            // One violation record stands in for the whole family.
            report.scenarios.push(ScenarioOutcome {
                detail,
                ..template(*id, "serve-build", 0)
            });
            *id += cfg.serve_panic_scenarios + WireFaultKind::ALL.len() * cfg.serve_wire_per_kind;
            return;
        }
    };
    let n = backend.len();

    for rep in 0..cfg.serve_panic_scenarios {
        let mut rng = scenario_rng(cfg.seed, 5, 0, rep as u64);
        let period = 2 + rng.gen_range(0..4u64);
        let queries = 8 + rng.gen_range(0..9u64);
        let t = template(*id, "worker-panic", 1);
        let b = &backend;
        contained(report, t.clone(), move || {
            let (outcome, detail) = worker_panic_probe(b, period, queries);
            ScenarioOutcome {
                outcome,
                detail,
                ..t
            }
        });
        *id += 1;
    }

    if cfg.serve_wire_per_kind == 0 {
        return;
    }
    let server = match start_wire_server(&backend) {
        Ok(pair) => pair,
        Err(detail) => {
            report.scenarios.push(ScenarioOutcome {
                detail,
                ..template(*id, "serve-build", 0)
            });
            *id += WireFaultKind::ALL.len() * cfg.serve_wire_per_kind;
            return;
        }
    };
    let addr = server.1.local_addr();
    for (ki, kind) in WireFaultKind::ALL.iter().enumerate() {
        for rep in 0..cfg.serve_wire_per_kind {
            let mut rng = scenario_rng(cfg.seed, 5, 1 + ki as u64, rep as u64);
            let request_id = rng.gen_range(0..u64::MAX / 2) * 2;
            let t = template(*id, kind.tag(), 1);
            contained(report, t.clone(), move || {
                let (outcome, detail) = wire_fault_probe(addr, n, *kind, request_id);
                ScenarioOutcome {
                    outcome,
                    detail,
                    ..t
                }
            });
            *id += 1;
        }
    }
    server.1.shutdown();
}

/// Snapshot-corruption scenarios: one pristine `HSNP` encoding per
/// campaign, corrupted a different way per scenario. Every damaged file
/// must be rejected typed — a panic or a silently-accepted load is a
/// violation.
fn run_snapshot_scenarios(cfg: &CampaignConfig, report: &mut CampaignReport, id: &mut usize) {
    if cfg.snapshot_per_kind == 0 {
        return;
    }
    let template = |id: usize, tag: &'static str| ScenarioOutcome {
        id,
        kind: ScenarioKind::CorruptSnapshot,
        tag,
        f_budget: 0,
        fault_count: 1,
        outcome: OutcomeKind::Violation,
        max_stretch: 1.0,
        max_hops: 0,
        detail: String::new(),
    };
    let target = match build_snapshot_target(cfg.corrupt_n.max(12), cfg.seed) {
        Ok(t) => t,
        Err(detail) => {
            // One violation record stands in for the whole family.
            report.scenarios.push(ScenarioOutcome {
                detail,
                ..template(*id, "snap-build")
            });
            *id += SnapshotFaultKind::ALL.len() * cfg.snapshot_per_kind;
            return;
        }
    };
    for (ki, kind) in SnapshotFaultKind::ALL.iter().enumerate() {
        for rep in 0..cfg.snapshot_per_kind {
            let mut rng = scenario_rng(cfg.seed, 6, ki as u64, rep as u64);
            let t = template(*id, kind.tag());
            let target = &target;
            contained(report, t.clone(), move || {
                let (outcome, detail) = snapshot_fault_probe(target, *kind, &mut rng);
                ScenarioOutcome {
                    outcome,
                    detail,
                    ..t
                }
            });
            *id += 1;
        }
    }
}

fn run_corrupt_scenarios(cfg: &CampaignConfig, report: &mut CampaignReport, id: &mut usize) {
    for (ki, kind) in CorruptKind::ALL.iter().enumerate() {
        for rep in 0..cfg.corrupt_per_kind {
            let mut rng = scenario_rng(cfg.seed, 3, ki as u64, rep as u64);
            let template = ScenarioOutcome {
                id: *id,
                kind: ScenarioKind::CorruptMetric,
                tag: kind.tag(),
                f_budget: 0,
                fault_count: 1,
                outcome: OutcomeKind::Violation,
                max_stretch: 1.0,
                max_hops: 0,
                detail: String::new(),
            };
            contained(report, template.clone(), || {
                corrupt_scenario(cfg, *kind, &mut rng, template)
            });
            *id += 1;
        }
    }
}

/// One corrupted-metric scenario: the damaged matrix must be flagged by
/// the audit and rejected (typed) by every constructor it reaches.
fn corrupt_scenario(
    cfg: &CampaignConfig,
    kind: CorruptKind,
    rng: &mut Pcg32,
    mut out: ScenarioOutcome,
) -> ScenarioOutcome {
    let rows = corrupt_matrix(cfg.corrupt_n, kind, rng);
    let audit = MetricAudit::of_matrix(&rows);
    if audit.is_clean() {
        out.detail = format!("audit missed {} damage", kind.tag());
        return out;
    }
    let n = rows.len();
    let flat: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
    let matrix_result = MatrixMetric::new(n, flat);
    if kind.must_reject() && matrix_result.is_ok() {
        out.detail = format!("MatrixMetric accepted {} damage", kind.tag());
        return out;
    }
    // Deliver the raw damage straight into the `&M: Metric`
    // constructors, which never see the matrix-level checks.
    let poisoned = PoisonedMetric::new(rows);
    let results: [Result<(), HopspanError>; 3] = [
        RobustTreeCover::new(&poisoned, cfg.eps)
            .map(|_| ())
            .map_err(HopspanError::from),
        MetricNavigator::doubling(&poisoned, cfg.eps, cfg.k)
            .map(|_| ())
            .map_err(HopspanError::from),
        FaultTolerantSpanner::new(&poisoned, cfg.eps, 1, cfg.k)
            .map(|_| ())
            .map_err(HopspanError::from),
    ];
    let mut errors = 0usize;
    for r in &results {
        match r {
            Ok(()) if kind.detectable_via_metric() => {
                out.detail = format!("a constructor accepted {} damage", kind.tag());
                return out;
            }
            Ok(()) => {}
            Err(_) => errors += 1,
        }
    }
    out.outcome = if errors > 0 {
        OutcomeKind::TypedError
    } else {
        // Hazardous-but-legal damage built successfully without panic.
        OutcomeKind::Full
    };
    out.detail = format!("{errors}/3 constructors rejected typed");
    out
}

/// Shard-outage scenarios against live replicated engines: scripted
/// kills, wedged-slow shards, flapping and respawns after the boot
/// snapshot was damaged.
/// Outage scenarios never produce `Degraded` outcomes (failover
/// answers in full contract; refusals are typed), so the golden
/// degraded hash is invariant to this family.
fn run_outage_scenarios(cfg: &CampaignConfig, report: &mut CampaignReport, id: &mut usize) {
    if cfg.outage_per_kind == 0 {
        return;
    }
    let points = outage_points(cfg.n.max(16), cfg.seed);
    for (ki, kind) in OutageKind::ALL.iter().enumerate() {
        for rep in 0..cfg.outage_per_kind {
            let mut rng = scenario_rng(cfg.seed, 7, ki as u64, rep as u64);
            let template = ScenarioOutcome {
                id: *id,
                kind: ScenarioKind::Outage,
                tag: kind.tag(),
                f_budget: 0,
                fault_count: 1,
                outcome: OutcomeKind::Violation,
                max_stretch: 1.0,
                max_hops: 0,
                detail: String::new(),
            };
            let points = &points;
            contained(report, template.clone(), move || {
                let (outcome, detail) = outage_probe(points, cfg.seed, *kind, &mut rng);
                ScenarioOutcome {
                    outcome,
                    detail,
                    ..template
                }
            });
            *id += 1;
        }
    }
}

/// Churn scenarios against live dynamic navigators: scripted mutation
/// storms racing queries, rebuilds killed mid-build, swap storms and
/// retired-id probes. Every scenario re-asserts the epoch contract's
/// bit-identity witness: the published `H_X` equals a from-scratch
/// build over the same live point set. Churn scenarios never produce
/// `Degraded` outcomes, so the golden degraded hash is invariant to
/// this family.
fn run_churn_scenarios(cfg: &CampaignConfig, report: &mut CampaignReport, id: &mut usize) {
    if cfg.churn_per_kind == 0 {
        return;
    }
    let points = churn_points(cfg.n.max(16), cfg.seed);
    for (ki, kind) in ChurnKind::ALL.iter().enumerate() {
        for rep in 0..cfg.churn_per_kind {
            let mut rng = scenario_rng(cfg.seed, 8, ki as u64, rep as u64);
            let template = ScenarioOutcome {
                id: *id,
                kind: ScenarioKind::Churn,
                tag: kind.tag(),
                f_budget: 0,
                fault_count: 1,
                outcome: OutcomeKind::Violation,
                max_stretch: 1.0,
                max_hops: 0,
                detail: String::new(),
            };
            let points = &points;
            contained(report, template.clone(), move || {
                let (outcome, detail) = churn_probe(points, *kind, &mut rng);
                ScenarioOutcome {
                    outcome,
                    detail,
                    ..template
                }
            });
            *id += 1;
        }
    }
}

fn run_panic_scenarios(cfg: &CampaignConfig, report: &mut CampaignReport, id: &mut usize) {
    for (mi, transient) in [true, false].into_iter().enumerate() {
        for rep in 0..cfg.panic_per_mode {
            let mut rng = scenario_rng(cfg.seed, 4, mi as u64, rep as u64);
            let units = 8 + rng.gen_range(0..25usize);
            let inj = PanicInjection::draw(units, transient, &mut rng);
            let template = ScenarioOutcome {
                id: *id,
                kind: ScenarioKind::PanicInjection,
                tag: if transient { "transient" } else { "persistent" },
                f_budget: 0,
                fault_count: inj.failing.len(),
                outcome: OutcomeKind::Violation,
                max_stretch: 1.0,
                max_hops: 0,
                detail: String::new(),
            };
            let counts = cfg.panic_worker_counts.clone();
            contained(report, template.clone(), move || {
                let mut out = template;
                match panic_injection_scenario(&inj, &counts) {
                    PanicOutcome::Recovered => {
                        out.outcome = OutcomeKind::Full;
                        out.detail = "retried to success".to_string();
                    }
                    PanicOutcome::TypedError { unit, retried } => {
                        out.outcome = OutcomeKind::TypedError;
                        out.detail = format!("typed error at unit {unit}, retried={retried}");
                    }
                    PanicOutcome::ContractViolation(msg) => {
                        out.outcome = OutcomeKind::Violation;
                        out.detail = msg;
                    }
                }
                out
            });
            *id += 1;
        }
    }
}
