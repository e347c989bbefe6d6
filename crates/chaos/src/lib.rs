//! Deterministic fault-injection campaigns against the hopspan query
//! stack.
//!
//! Every other crate of the workspace promises the same thing from a
//! different angle: **no panic, no abort — every failure is a typed
//! `Result`, and every in-contract query meets the paper's §6
//! stretch/hop bound**. This crate is the adversary that tries to break
//! that promise, deterministically:
//!
//! * **Adversarial fault sets** ([`FaultStrategy`]): random baselines,
//!   greedy hub targeting (highest spanner degree), separator targeting
//!   (most frequent path intermediates), and over-budget `> f` sets that
//!   step outside the Theorem 4.2 contract on purpose.
//! * **Corrupted metrics** ([`CorruptKind`]): NaN/∞/negative entries,
//!   asymmetry, triangle-inequality violations and near-duplicate
//!   points, thrown at every constructor in the stack.
//! * **Injected worker panics**: seeded transient and persistent panics
//!   inside `hopspan-pipeline` fan-outs, which must surface as
//!   [`hopspan_pipeline::PipelineError`] — never as a process abort.
//! * **Serve-layer probes** ([`WireFaultKind`]): shard-worker panics
//!   and malformed/truncated/bad-checksum frames thrown at a *live*
//!   `hopspan-serve` TCP server; every connection must get a typed
//!   error frame and the server must keep serving.
//! * **Corrupted snapshots** ([`SnapshotFaultKind`]): truncated,
//!   bit-flipped, checksum-damaged, version-skewed and
//!   checksum-valid-but-structurally-corrupt `HSNP` boot files thrown
//!   at the `hopspan-store` loader; every one must be rejected with a
//!   typed [`hopspan_store::StoreError`], never a panic.
//! * **Shard outages** ([`OutageKind`]): scripted shard kills, wedged
//!   slow shards, health flapping and panics after the boot snapshot
//!   was damaged, against live replicated engines; replicated traffic
//!   must fail over in full contract, demotions must be automatic, the
//!   damaged file must be refused typed, and respawn must re-admit the
//!   shard from memory with unchanged answers.
//! * **Mutation churn** ([`ChurnKind`]): scripted insert/remove storms
//!   against live `hopspan-dynamic` navigators — queries racing
//!   mutations, rebuilds killed mid-build, back-to-back epoch swaps,
//!   retired ids thrown at the serve layer. Queries must always answer
//!   (from the current or previous epoch) or fail typed, and every
//!   drained epoch's `H_X` must equal a from-scratch build over the
//!   same live point set.
//!
//! A campaign ([`run_campaign`]) is named by a single `u64` seed and is
//! bit-replayable: the same seed yields the same scenarios, the same
//! outcomes and the same [`CampaignReport::degraded_hash`], for any
//! `HOPSPAN_WORKERS` setting. Scenario randomness comes from the
//! PCG32 generator (`rand::rngs::Pcg32`), whose two-word state makes
//! `(seed, stream)` a complete scenario id.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod churn;
mod corrupt;
mod outage;
mod panics;
mod serve;
mod snapshot;
mod strategies;

pub use campaign::{
    run_campaign, CampaignConfig, CampaignReport, OutcomeKind, ScenarioKind, ScenarioOutcome,
};
pub use churn::ChurnKind;
pub use corrupt::{corrupt_matrix, CorruptKind, PoisonedMetric};
pub use outage::OutageKind;
pub use panics::{panic_injection_scenario, PanicInjection, PanicOutcome};
pub use serve::WireFaultKind;
pub use snapshot::SnapshotFaultKind;
pub use strategies::FaultStrategy;

/// The workspace's golden-hash function, re-exported from `hopspan-core`.
pub use hopspan_core::Fnv1a;
