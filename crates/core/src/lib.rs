//! Bounded hop-diameter navigation of metric spaces — the primary
//! contribution of *"Can't See the Forest for the Trees: Navigating Metric
//! Spaces by Bounded Hop-Diameter Spanners"* (PODC'22).
//!
//! The original metric allows optimal navigation — one hop, exact
//! distance — at a cost of Θ(n²) edges. This crate answers the paper's
//! Question 1.1 in the affirmative: it navigates on a **sparse spanner**
//! using `k` hops (`k = 2, 3, 4, …`) and near-exact distances, in `O(k)`
//! query time, by composing two ingredients:
//!
//! 1. a tree cover of the metric (`hopspan-tree-cover`), and
//! 2. the 1-spanner-with-navigation for tree metrics of Theorem 1.1
//!    (`hopspan-tree-spanner`), run on every tree of the cover.
//!
//! [`MetricNavigator`] implements Theorem 1.2 for doubling, general
//! (Ramsey) and planar metric classes, uniformly. [`FaultTolerantSpanner`]
//! implements the f-fault-tolerant spanner of Theorem 4.2 on top of the
//! robust tree cover, with the fault-tolerant navigation of §4.4.
//!
//! # Examples
//!
//! ```
//! use hopspan_core::MetricNavigator;
//! use hopspan_metric::{gen, Metric};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let points = gen::uniform_points(30, 2, &mut rng);
//! // Navigate with 2 hops and stretch ≈ 1 + ε.
//! let nav = MetricNavigator::doubling(&points, 0.5, 2)?;
//! let path = nav.find_path(3, 17).expect("all pairs covered");
//! assert!(path.len() - 1 <= 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod fault_tolerant;
mod fnv;
mod materialize;
mod navigation;

pub use error::HopspanError;
pub use fault_tolerant::{
    CandidateSets, DegradationPolicy, DegradeReason, FaultTolerantSpanner, FtError, FtPath,
    FtPathOutcome, TreeOverlay,
};
pub use fnv::Fnv1a;
pub use materialize::{pair_key, EdgeMerger};
pub use navigation::{MetricNavigator, MetricNavigatorParts, NavTreeParts, NavigationError};

/// Flat serialization parts of the per-tree spanner structures,
/// re-exported from the tree-spanner crate so snapshot layers can
/// traverse [`MetricNavigatorParts`] without a direct dependency.
pub use hopspan_tree_spanner::{
    BaseTableParts, ContractedParts, NavigatorParts, PhiNodeParts, SpannerParts, TreeParts,
};

/// Contained parallel-pipeline failure, re-exported from the pipeline
/// crate for error matching without a direct dependency.
pub use hopspan_pipeline::PipelineError;

/// Build telemetry produced by the `_with_stats` constructors,
/// re-exported from the pipeline crate.
pub use hopspan_pipeline::BuildStats;

/// Ackermann-function variants and inverses (paper §2.2), re-exported from
/// the tree-spanner crate.
pub use hopspan_tree_spanner::ackermann;
