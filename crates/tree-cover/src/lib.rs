//! Tree cover theorems for metric spaces (paper §2.1, §4).
//!
//! A *(γ, ζ)-tree cover* of a metric `M_X = (X, δ_X)` is a collection of ζ
//! dominating trees such that every pair of points has a tree whose path
//! between them weighs at most `γ · δ_X(x, y)`. Tree covers are the bridge
//! from the tree navigation scheme (Theorem 1.1) to arbitrary metric
//! classes (Theorem 1.2): navigate by first picking the right tree, then
//! running the O(k) tree query.
//!
//! This crate implements, from scratch:
//!
//! * [`NetHierarchy`] — hierarchical `2^i`-nets (§4.2 prerequisites);
//! * [`PairingCover`] — the paper's new *pairing covers* of nets
//!   (Definition 4.2, Lemma 4.2);
//! * [`RobustTreeCover`] — the **Robust Tree Cover Theorem** (Theorem 4.1)
//!   for doubling metrics: a `(1+ε, ε^{-O(d)})`-tree cover in which any
//!   internal vertex may be replaced by *any* descendant leaf without
//!   hurting the stretch — the engine behind fault tolerance (§4);
//! * [`RamseyTreeCover`] — a Ramsey `(O(ℓ), Õ(ℓ·n^{1/ℓ}))`-tree cover for
//!   general metrics via hierarchical random partitions (the \[MN06\] row
//!   of Table 1; see DESIGN.md §4 for the substitution note);
//! * [`SeparatorTreeCover`] — a shortest-path-separator cover for planar
//!   graph metrics (the \[BFN19\] row of Table 1, simplified; stretch ≤ 3
//!   guaranteed per crossing, `1+ε` with portals empirically).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cover;
mod doubling;
mod nets;
mod pairing;
mod planar;
mod ramsey;

pub use cover::{substituted_path_weight, CoverError, DominatingTree, LeafTable, TreeCover};
pub use doubling::RobustTreeCover;
pub use nets::{NetHierarchy, NetLevel};
pub use pairing::{PairSet, PairingCover};
pub use planar::SeparatorTreeCover;
pub use ramsey::RamseyTreeCover;
