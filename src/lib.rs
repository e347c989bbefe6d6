//! # hopspan — navigating metric spaces by bounded hop-diameter spanners
//!
//! A from-scratch Rust implementation of
//! *"Can't See the Forest for the Trees: Navigating Metric Spaces by
//! Bounded Hop-Diameter Spanners"* (Kahalon, Le, Milenković, Solomon —
//! PODC 2022).
//!
//! The original metric navigates optimally — one hop, exact distances —
//! at a price of Θ(n²) edges. This library navigates on a **sparse
//! spanner** with `k = 2, 3, 4, …` hops and near-exact distances, in
//! `O(k)` time per query, across doubling, general and planar metrics,
//! and fault-tolerantly in doubling metrics.
//!
//! ## Crate map
//!
//! | Module | Contents | Paper |
//! |--------|----------|-------|
//! | [`pipeline`] | parallel preprocessing fan-out + build telemetry | engineering layer |
//! | [`treealg`] | LCA, level ancestors, centroid decomposition, distance labels | §3.1 prerequisites |
//! | [`metric`] | metric spaces, graphs, generators, MST utilities | §1 |
//! | [`tree_spanner`] | 1-spanners of hop-diameter k for tree metrics + O(k) navigation | Theorem 1.1 |
//! | [`tree_cover`] | robust/Ramsey/separator tree covers, pairing covers | §2.1, Theorem 4.1 |
//! | [`core`] | metric navigation, fault-tolerant spanners | Theorems 1.2, 4.2 |
//! | [`dynamic`] | online insert/delete: epoch-swapped navigators, amortized rebuilds | engineering layer |
//! | [`routing`] | compact 2-hop routing schemes (fixed-port model) | Theorems 1.3, 5.1, 5.2 |
//! | [`serve`] | sharded batch query service: admission control, binary wire protocol, TCP front | engineering layer |
//! | [`store`] | versioned `HSNP` snapshots: checksummed flat encoding, validated zero-rebuild boot | engineering layer |
//! | [`apps`] | sparsification, approximate SPT/MST, tree products, MST verification | §5.3–5.6 |
//! | [`baselines`] | greedy spanner, Θ-graph, Thorup–Zwick oracle, Dijkstra navigation | §1.1 |
//!
//! ## Quickstart
//!
//! ```
//! use hopspan::core::MetricNavigator;
//! use hopspan::metric::{gen, path_weight, Metric};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let points = gen::uniform_points(64, 2, &mut rng);
//!
//! // 2 hops, stretch ≈ 1 + ε, on a sparse spanner.
//! let nav = MetricNavigator::doubling(&points, 0.25, 2)?;
//! let path = nav.find_path(5, 40)?;
//! assert!(path.len() - 1 <= 2);
//!
//! let weight = path_weight(&points, &path);
//! assert!(weight < 2.0 * points.dist(5, 40));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hopspan_apps as apps;
pub use hopspan_baselines as baselines;
pub use hopspan_core as core;
pub use hopspan_dynamic as dynamic;
pub use hopspan_metric as metric;
pub use hopspan_pipeline as pipeline;
pub use hopspan_routing as routing;
pub use hopspan_serve as serve;
pub use hopspan_store as store;
pub use hopspan_tree_cover as tree_cover;
pub use hopspan_tree_spanner as tree_spanner;
pub use hopspan_treealg as treealg;
