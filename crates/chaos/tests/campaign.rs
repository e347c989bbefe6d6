//! The headline robustness test: a full seeded campaign against the
//! query stack, asserting zero escaped panics, typed or deterministic
//! degraded outcomes everywhere, and the §6 bound in contract.

use std::sync::OnceLock;

use hopspan_chaos::{run_campaign, CampaignConfig, CampaignReport, OutcomeKind, ScenarioKind};

const SEED: u64 = 0x2026_0706;

/// The smoke campaign is expensive in debug builds; run it once and
/// share the report across tests.
fn smoke() -> &'static (CampaignConfig, CampaignReport) {
    static SMOKE: OnceLock<(CampaignConfig, CampaignReport)> = OnceLock::new();
    SMOKE.get_or_init(|| {
        let cfg = CampaignConfig::smoke(SEED);
        let report = run_campaign(&cfg);
        (cfg, report)
    })
}

#[test]
fn smoke_campaign_holds_the_robustness_invariant() {
    let (cfg, report) = smoke();
    assert!(
        cfg.scenario_count() >= 200,
        "smoke campaign must run at least 200 scenarios, got {}",
        cfg.scenario_count()
    );
    assert_eq!(report.scenarios.len(), cfg.scenario_count());
    assert_eq!(report.escaped_panics, 0, "a panic escaped containment");
    report.assert_invariants();

    // In-contract scenarios must all deliver full paths within the
    // bound; over-budget ones must resolve typed or degraded.
    for s in &report.scenarios {
        match s.kind {
            ScenarioKind::InContractFaults => {
                assert_eq!(
                    s.outcome,
                    OutcomeKind::Full,
                    "scenario {}: {}",
                    s.id,
                    s.detail
                );
                assert!(s.max_stretch <= cfg.stretch_bound);
                assert!(s.max_hops <= cfg.k);
            }
            ScenarioKind::OverBudgetFaults => assert!(
                matches!(s.outcome, OutcomeKind::TypedError | OutcomeKind::Degraded),
                "scenario {}: outcome {:?} ({})",
                s.id,
                s.outcome,
                s.detail
            ),
            _ => {}
        }
    }
    assert!(report.max_in_contract_stretch() <= cfg.stretch_bound);
    assert!(report.survival_rate() > 0.0);
}

#[test]
fn campaigns_are_seed_replayable() {
    // A reduced campaign keeps the double run affordable in debug.
    let cfg = CampaignConfig {
        n: 16,
        f_values: vec![1, 2],
        scenarios_per_cell: 1,
        pairs_per_scenario: 6,
        corrupt_n: 10,
        corrupt_per_kind: 2,
        panic_per_mode: 4,
        panic_worker_counts: vec![1, 4],
        ..CampaignConfig::smoke(SEED)
    };
    let a = run_campaign(&cfg);
    let b = run_campaign(&cfg);
    assert_eq!(a.escaped_panics, 0);
    assert_eq!(a.scenarios.len(), b.scenarios.len());
    for (x, y) in a.scenarios.iter().zip(&b.scenarios) {
        assert_eq!(x.outcome, y.outcome, "scenario {} outcome drifted", x.id);
        assert_eq!(x.detail, y.detail, "scenario {} detail drifted", x.id);
    }
    assert_eq!(a.degraded_hash(), b.degraded_hash());
}

/// The churn family: every scenario must resolve Full (storm absorbed)
/// or TypedError (contained failures / typed retired answers) — never
/// a violation — and the full-size campaign must meet the ≥ 60 churn
/// scenarios the E27 acceptance demands.
#[test]
fn churn_family_holds_the_epoch_contract() {
    let (cfg, report) = smoke();
    let churn: Vec<_> = report
        .scenarios
        .iter()
        .filter(|s| s.kind == ScenarioKind::Churn)
        .collect();
    assert_eq!(
        churn.len(),
        hopspan_chaos::ChurnKind::ALL.len() * cfg.churn_per_kind
    );
    assert!(!churn.is_empty(), "the smoke campaign must exercise churn");
    for s in &churn {
        assert!(
            matches!(s.outcome, OutcomeKind::Full | OutcomeKind::TypedError),
            "churn scenario {} [{}] resolved {:?}: {}",
            s.id,
            s.tag,
            s.outcome,
            s.detail
        );
    }
    let full = CampaignConfig::default();
    assert!(
        hopspan_chaos::ChurnKind::ALL.len() * full.churn_per_kind >= 60,
        "the full campaign must run at least 60 churn scenarios"
    );
}

/// The golden degraded hash: every degraded delivery of the smoke
/// campaign (ids, degrade records, bit-exact stretches), FNV-1a. A
/// drift here means degradation became nondeterministic or its
/// semantics changed — both are release blockers. Re-pinned when the
/// robust cover's pairing became one first-fit colouring of unordered
/// near pairs, which changed the FT spanner's degraded answers.
#[test]
fn degraded_outcomes_match_the_golden_hash() {
    let (_, report) = smoke();
    assert!(
        report.count(OutcomeKind::Degraded) > 0,
        "the smoke campaign is expected to exercise the degradation path"
    );
    assert_eq!(
        report.degraded_hash(),
        0xfc7d_02cc_975f_b19d,
        "golden degraded hash drifted (see test doc)"
    );
}
