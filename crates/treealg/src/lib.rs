//! Tree data-structure substrate for the `hopspan` workspace.
//!
//! This crate provides the classic tree machinery that the paper's
//! navigation scheme assumes as black boxes (its Property 1: "every tree
//! constructed by the algorithm is preprocessed for answering LCA and LA
//! queries in constant time", citing \[BFC00, BFC04\]):
//!
//! * [`RootedTree`] — an edge-weighted rooted tree with parent/children
//!   access, depths and weighted depths;
//! * [`Lca`] — O(1) lowest-common-ancestor queries via an Euler tour and a
//!   sparse table;
//! * [`LevelAncestor`] — O(1) level-ancestor queries via jump pointers plus
//!   ladder (long-path) decomposition;
//! * [`CentroidDecomposition`] and [`DistanceLabeling`] — centroid
//!   decomposition and the O(log²n)-bit exact tree-distance labels used by
//!   the routing schemes of §5.1.2 of the paper.
//!
//! # Examples
//!
//! ```
//! use hopspan_treealg::{RootedTree, Lca};
//!
//! // A path 0 - 1 - 2 with unit weights, rooted at 0.
//! let tree = RootedTree::from_edges(3, 0, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
//! let lca = Lca::new(&tree);
//! assert_eq!(lca.lca(1, 2), 1);
//! assert_eq!(tree.distance_with(&lca, 0, 2), 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod centroid;
mod labeling;
mod lca;
mod level_ancestor;
mod tree;

pub use centroid::CentroidDecomposition;
pub use labeling::DistanceLabeling;
pub use lca::Lca;
pub use level_ancestor::LevelAncestor;
pub use tree::{RootedTree, TreeBuildError};

/// Narrows a vertex id, depth or table index to the `u32` word of the
/// flat [`Lca`] and [`LevelAncestor`] tables.
fn word(x: usize) -> u32 {
    // hopspan:allow(panic-in-lib) -- the documented vertex-count limit of Lca and LevelAncestor; trees that large do not fit in memory next to their tables
    u32::try_from(x).expect("tree too large for u32 navigation tables")
}
