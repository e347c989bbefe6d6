//! Metric-space abstraction and workload generators for `hopspan`.
//!
//! The paper's constructions are parameterized by an n-point metric space
//! `M_X = (X, δ_X)` viewed as a complete weighted graph. This crate
//! provides:
//!
//! * the [`Metric`] trait and concrete spaces: [`EuclideanSpace`],
//!   [`MatrixMetric`], [`GraphMetric`] (shortest-path closure of a weighted
//!   graph), [`TreeMetricSpace`];
//! * a weighted-graph substrate ([`Graph`]) with Dijkstra;
//! * workload generators (uniform/clustered Euclidean point sets, random
//!   trees, paths/stars/caterpillars, grid graphs) under explicit seeds;
//! * metric utilities: exact MST (Prim), aspect ratio, doubling-dimension
//!   estimation, metric-axiom validation.
//!
//! # Examples
//!
//! ```
//! use hopspan_metric::{gen, Metric};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let space = gen::uniform_points(100, 2, &mut rng);
//! assert_eq!(space.len(), 100);
//! let d = space.dist(3, 4);
//! assert!(d > 0.0 && d.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
pub mod gen;
mod graph;
mod mst;
mod space;

pub use audit::{
    audited_matrix_metric, AuditFinding, MetricAudit, MAX_AUDIT_FINDINGS, NEAR_DUPLICATE_REL,
    TRIANGLE_AUDIT_LIMIT,
};
pub use graph::{Graph, GraphError};
pub use mst::{minimum_spanning_tree, mst_weight, spanner_lightness, spanner_max_stretch};
pub use space::{
    aspect_ratio, estimate_doubling_constant, exactly_zero, path_weight, validate_metric,
    EuclideanSpace, GraphMetric, MatrixMetric, Metric, MetricError, TreeMetricSpace,
};
