//! Golden-format tests for the `BENCH_*.json` writers: fixed cells
//! (including `0.0`, `u64::MAX`, hex digests and `null`s) must render
//! byte-for-byte in the committed files' layout. The expected strings
//! are the output of the earlier hand-rolled writers on the same
//! inputs, so a layout change shows up here before it reaches a
//! committed file.

use super::*;
use hopspan_chaos::{CampaignConfig, CampaignReport, OutcomeKind, ScenarioKind, ScenarioOutcome};

fn scenario(
    id: usize,
    kind: ScenarioKind,
    tag: &'static str,
    f: usize,
    outcome: OutcomeKind,
    max_stretch: f64,
) -> ScenarioOutcome {
    ScenarioOutcome {
        id,
        kind,
        tag,
        f_budget: f,
        fault_count: f,
        outcome,
        max_stretch,
        max_hops: 2,
        detail: format!("d{id}"),
    }
}

#[test]
fn e22_layout() {
    let cells = [
        E22Cell {
            workload: "uniform",
            n: 256,
            op: "find_path",
            qps: 2_825_220.4,
            p50_ns: 173,
            p99_ns: u64::MAX,
            allocs_per_query: 0.0,
        },
        E22Cell {
            workload: "tree",
            n: 4096,
            op: "route_into",
            qps: 0.0,
            p50_ns: 0,
            p99_ns: 12_345_678_901_234,
            allocs_per_query: 1.5,
        },
        E22Cell {
            workload: "tree",
            n: 4096,
            op: "approx_distance",
            qps: 1234.5,
            p50_ns: 99,
            p99_ns: 100,
            allocs_per_query: 0.125,
        },
    ];
    let cfg = E22Cfg {
        ns: vec![256],
        pairs: 1,
        sample: 1,
        min_batch_secs: 0.0,
        smoke: true,
    };
    assert_eq!(
        e22_json(&cells, &cfg),
        r#"{
  "experiment": "E22",
  "seed": "0x20260706",
  "smoke": true,
  "cells": [
    {"workload": "uniform", "n": 256, "op": "find_path", "qps": 2825220, "p50_ns": 173, "p99_ns": 18446744073709551615, "allocs_per_query": 0.00, "baseline_qps": 2825220, "speedup": 1.00},
    {"workload": "tree", "n": 4096, "op": "route_into", "qps": 0, "p50_ns": 0, "p99_ns": 12345678901234, "allocs_per_query": 1.50, "baseline_qps": 820728, "speedup": 0.00},
    {"workload": "tree", "n": 4096, "op": "approx_distance", "qps": 1234, "p50_ns": 99, "p99_ns": 100, "allocs_per_query": 0.12, "baseline_qps": null, "speedup": null}
  ]
}
"#
    );
}

#[test]
fn e23_layout() {
    let report = CampaignReport {
        scenarios: vec![
            scenario(
                0,
                ScenarioKind::InContractFaults,
                "greedy",
                1,
                OutcomeKind::Full,
                1.25,
            ),
            scenario(
                1,
                ScenarioKind::OverBudgetFaults,
                "greedy",
                1,
                OutcomeKind::Degraded,
                3.5,
            ),
            scenario(
                2,
                ScenarioKind::OverBudgetFaults,
                "random",
                2,
                OutcomeKind::TypedError,
                0.0,
            ),
            scenario(
                3,
                ScenarioKind::InContractFaults,
                "random",
                2,
                OutcomeKind::Full,
                1.0,
            ),
            scenario(
                4,
                ScenarioKind::CorruptMetric,
                "nan",
                0,
                OutcomeKind::TypedError,
                0.0,
            ),
            scenario(
                5,
                ScenarioKind::CorruptMetric,
                "nan",
                0,
                OutcomeKind::Full,
                1.0,
            ),
            scenario(
                6,
                ScenarioKind::PanicInjection,
                "build",
                0,
                OutcomeKind::Degraded,
                2.0,
            ),
        ],
        escaped_panics: 0,
    };
    let cfg = CampaignConfig::smoke(crate::SEED);
    let groups = e23_fault_groups(&report);
    assert_eq!(
        e23_json(&report, &cfg, true, &groups),
        r#"{
  "experiment": "E23",
  "seed": "0x20260706",
  "smoke": true,
  "scenarios": 7,
  "escaped_panics": 0,
  "violations": 0,
  "survival_rate": 0.7500,
  "max_in_contract_stretch": 1.250000,
  "stretch_bound": 8.00,
  "degraded_hash": "0xcc7bea48d781b7a3",
  "fault_groups": [
    {"f": 1, "strategy": "greedy", "in_full": 1, "in_total": 1, "in_max_stretch": 1.250000, "over_typed": 0, "over_degraded": 1, "over_total": 1, "degraded_max_stretch": 3.500000},
    {"f": 2, "strategy": "random", "in_full": 1, "in_total": 1, "in_max_stretch": 1.000000, "over_typed": 1, "over_degraded": 0, "over_total": 1, "degraded_max_stretch": 1.000000}
  ],
  "corrupt_metrics": [
    {"tag": "nan", "typed_errors": 1, "survived": 1, "total": 2}
  ],
  "panic_injection": [
    {"tag": "build", "typed_errors": 0, "survived": 1, "total": 1}
  ],
  "serve_panic": [
  ]
}
"#
    );
}

#[test]
fn e24_layout() {
    let cells = [
        E24Cell {
            shards: 4,
            batch: 64,
            policy: "strict",
            queries: u64::MAX,
            qps: 123_456.789,
            p50_us: 8.125,
            p99_us: 0.0,
            mean_batch: 63.5,
            shed: 0,
            errors: 0,
            allocs_per_query: 0.0,
        },
        E24Cell {
            shards: 1,
            batch: 1,
            policy: "best-effort",
            queries: 1024,
            qps: 0.0,
            p50_us: 1.0,
            p99_us: 2.0,
            mean_batch: 1.0,
            shed: 3,
            errors: 4,
            allocs_per_query: 0.25,
        },
    ];
    let overloads = [
        E24Overload {
            policy: "strict",
            admitted: 8,
            offered_over: 16,
            typed_shed: 16,
            inline_degraded: 0,
            shed_counter: 16,
            inline_counter: 0,
        },
        E24Overload {
            policy: "best-effort",
            admitted: 8,
            offered_over: 16,
            typed_shed: 0,
            inline_degraded: 16,
            shed_counter: 0,
            inline_counter: u64::MAX,
        },
    ];
    let cfg = E24Cfg {
        n: 512,
        pairs: 256,
        clients: 2,
        warmup_passes: 1,
        passes: 2,
        smoke: true,
    };
    assert_eq!(
        e24_json(&cells, &overloads, Some(2.791_234_5), &cfg),
        r#"{
  "experiment": "E24",
  "seed": "0x20260706",
  "smoke": true,
  "n": 512,
  "clients": 2,
  "headline_speedup_4x64_vs_1x1": 2.7912,
  "cells": [
    {"shards": 4, "batch": 64, "policy": "strict", "queries": 18446744073709551615, "qps": 123456.8, "p50_us": 8.125, "p99_us": 0.000, "mean_batch": 63.50, "shed": 0, "errors": 0, "allocs_per_query": 0.0000},
    {"shards": 1, "batch": 1, "policy": "best-effort", "queries": 1024, "qps": 0.0, "p50_us": 1.000, "p99_us": 2.000, "mean_batch": 1.00, "shed": 3, "errors": 4, "allocs_per_query": 0.2500}
  ],
  "overload": [
    {"policy": "strict", "admitted": 8, "offered_over": 16, "typed_shed": 16, "inline_degraded": 0, "shed_counter": 16, "inline_counter": 0},
    {"policy": "best-effort", "admitted": 8, "offered_over": 16, "typed_shed": 0, "inline_degraded": 16, "shed_counter": 0, "inline_counter": 18446744073709551615}
  ]
}
"#
    );
}

#[test]
fn e25_layout() {
    let cells = [
        E25Cell {
            n: 256,
            build: Duration::from_micros(1500),
            write: Duration::ZERO,
            load: Duration::from_nanos(123_456),
            snapshot_bytes: u64::MAX,
            live_bytes: 0,
            checksum: 0x0123_4567_89ab_cdef,
            speedup: 12.345,
            hx_match: true,
        },
        E25Cell {
            n: 1024,
            build: Duration::from_secs(2),
            write: Duration::from_millis(7),
            load: Duration::from_micros(250),
            snapshot_bytes: 4096,
            live_bytes: 3900,
            checksum: 0xa63f_cdcb_1716_2f38,
            speedup: 0.0,
            hx_match: false,
        },
    ];
    let cfg = E25Cfg {
        sizes: vec![256, 1024],
        smoke: false,
    };
    assert_eq!(
        e25_json(&cells, &cfg),
        r#"{
  "experiment": "E25",
  "seed": "0x20260706",
  "smoke": false,
  "cells": [
    {"n": 256, "build_ms": 1.500, "write_ms": 0.000, "load_ms": 0.123, "snapshot_bytes": 18446744073709551615, "live_bytes": 0, "checksum": "0x0123456789abcdef", "boot_speedup": 12.35, "hx_match": true},
    {"n": 1024, "build_ms": 2000.000, "write_ms": 7.000, "load_ms": 0.250, "snapshot_bytes": 4096, "live_bytes": 3900, "checksum": "0xa63fcdcb17162f38", "boot_speedup": 0.00, "hx_match": false}
  ]
}
"#
    );
}

#[test]
fn e26_layout() {
    let cells = [
        E26Cell {
            down: 0,
            queries: u64::MAX,
            full: 5,
            typed: 0,
            availability: 1.0,
            p99_us: 0.0,
            failovers: 0,
            ownership_restored: true,
        },
        E26Cell {
            down: 1,
            queries: 576,
            full: 570,
            typed: 6,
            availability: 0.989_583_3,
            p99_us: 41.25,
            failovers: 144,
            ownership_restored: false,
        },
    ];
    let recovery = E26Recovery {
        recovery_ms: 12.3456,
        respawns: 1,
        down_events: u64::MAX,
        readmitted: true,
    };
    let report = CampaignReport {
        scenarios: vec![
            scenario(
                0,
                ScenarioKind::Outage,
                "kill-shard",
                0,
                OutcomeKind::Full,
                1.0,
            ),
            scenario(
                1,
                ScenarioKind::Outage,
                "slow-shard",
                0,
                OutcomeKind::TypedError,
                0.0,
            ),
            scenario(
                2,
                ScenarioKind::Outage,
                "kill-shard",
                0,
                OutcomeKind::Degraded,
                1.5,
            ),
        ],
        escaped_panics: 0,
    };
    let tags = e23_tag_counts(&report, ScenarioKind::Outage);
    let cfg = E26Cfg {
        n: 96,
        passes: 6,
        outage_per_kind: 25,
        smoke: true,
    };
    assert_eq!(
        e26_json(&cells, &recovery, &report, &tags, &cfg),
        r#"{
  "experiment": "E26",
  "seed": "0x20260706",
  "smoke": true,
  "availability": [
    {"shards_down": 0, "queries": 18446744073709551615, "full": 5, "typed": 0, "availability": 1.000000, "p99_us": 0.000, "failovers": 0, "ownership_restored": true},
    {"shards_down": 1, "queries": 576, "full": 570, "typed": 6, "availability": 0.989583, "p99_us": 41.250, "failovers": 144, "ownership_restored": false}
  ],
  "recovery": {"recovery_ms": 12.346, "respawns": 1, "shard_down_events": 18446744073709551615, "readmitted": true},
  "campaign": {"scenarios": 3, "escaped_panics": 0, "violations": 0, "by_tag": [
    {"tag": "kill-shard", "typed": 0, "survived": 2, "total": 2},
    {"tag": "slow-shard", "typed": 1, "survived": 0, "total": 1}
  ]}
}
"#
    );
    // Empty arrays keep their two-line form, inline ones included.
    assert_eq!(
        e26_json(&[], &recovery, &CampaignReport::default(), &[], &cfg),
        r#"{
  "experiment": "E26",
  "seed": "0x20260706",
  "smoke": true,
  "availability": [
  ],
  "recovery": {"recovery_ms": 12.346, "respawns": 1, "shard_down_events": 18446744073709551615, "readmitted": true},
  "campaign": {"scenarios": 0, "escaped_panics": 0, "violations": 0, "by_tag": [
  ]}
}
"#
    );
}

#[test]
fn e27_layout() {
    let cells = [
        E27Cell {
            rate_pct_per_s: 0.1,
            queries: u64::MAX,
            qps: 98_765.432_1,
            errors: 0,
            availability: 1.0,
            inserts: 2,
            removes: 0,
            epochs_published: 3,
            staleness_mean: 0.0,
            staleness_max: 1,
            rebuilds: 2,
            rebuild_p50_ms: 1.5,
            rebuild_p99_ms: 0.0,
            hx_matches: true,
        },
        E27Cell {
            rate_pct_per_s: 10.0,
            queries: 10,
            qps: 0.0,
            errors: 1,
            availability: 0.9,
            inserts: 16,
            removes: 16,
            epochs_published: 40,
            staleness_mean: 0.012_345_67,
            staleness_max: 2,
            rebuilds: 40,
            rebuild_p50_ms: 3.25,
            rebuild_p99_ms: 17.0,
            hx_matches: false,
        },
    ];
    let cfg = E27Cfg {
        n: 64,
        window_ms: 500,
        query_threads: 2,
        smoke: true,
    };
    assert_eq!(
        e27_json(&cells, &cfg),
        r#"{
  "experiment": "E27",
  "seed": "0x20260706",
  "smoke": true,
  "n": 64,
  "window_ms": 500,
  "cells": [
    {"churn_pct_per_s": 0.1, "queries": 18446744073709551615, "qps": 98765.4, "errors": 0, "availability": 1.000000, "inserts": 2, "removes": 0, "epochs_published": 3, "staleness_mean_epochs": 0.000000, "staleness_max_epochs": 1, "rebuilds": 2, "rebuild_p50_ms": 1.500, "rebuild_p99_ms": 0.000, "hx_matches_scratch": true},
    {"churn_pct_per_s": 10, "queries": 10, "qps": 0.0, "errors": 1, "availability": 0.900000, "inserts": 16, "removes": 16, "epochs_published": 40, "staleness_mean_epochs": 0.012346, "staleness_max_epochs": 2, "rebuilds": 40, "rebuild_p50_ms": 3.250, "rebuild_p99_ms": 17.000, "hx_matches_scratch": false}
  ]
}
"#
    );
}
