//! Ramsey tree covers for general metrics (the \[MN06\] row of Table 1).
//!
//! A *Ramsey* tree cover assigns every point a **home tree** in which its
//! stretch to *every* other point is at most γ — this is what gives the
//! O(1) tree-selection step of Theorem 1.2 and the constant-decision-time
//! routing of Theorem 1.3 in general metrics.
//!
//! Construction (randomized; see DESIGN.md §4 for the substitution note):
//! repeat building hierarchical random ball-carving partitions (CKR-style)
//! of the whole point set into an HST; the points that are *padded* at
//! every scale have stretch `O(ℓ)` to everyone in that HST and adopt it as
//! their home tree; strip them and repeat. With padding parameter
//! `Δ_t/(8ℓ)`, an expected `≈ n^{-1/ℓ}` fraction is padded per round,
//! giving `ζ = Õ(ℓ·n^{1/ℓ})` trees. A star-tree fallback guarantees
//! termination.

use hopspan_metric::Metric;
use hopspan_treealg::Lca;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::cover::TreeAssembler;
use crate::{CoverError, DominatingTree, TreeCover};

/// A Ramsey `(O(ℓ), Õ(ℓ·n^{1/ℓ}))`-tree cover with per-point home trees.
///
/// # Examples
///
/// ```
/// use hopspan_metric::gen;
/// use hopspan_tree_cover::RamseyTreeCover;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let m = gen::random_bounded_metric(12, &mut rng);
/// let cover = RamseyTreeCover::new(&m, 2, &mut rng)?;
/// // Every point has a home tree covering all its pairs.
/// assert!(cover.home(5) < cover.tree_count());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RamseyTreeCover {
    cover: TreeCover,
    home: Vec<usize>,
    ell: usize,
}

impl RamseyTreeCover {
    /// Builds the cover with trade-off parameter `ell ≥ 1` using `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`CoverError::Empty`] for an empty metric or
    /// [`CoverError::InvalidParameter`] for `ell = 0`; duplicate points
    /// are rejected like in the other covers.
    pub fn new<M: Metric, R: Rng>(metric: &M, ell: usize, rng: &mut R) -> Result<Self, CoverError> {
        let n = metric.len();
        if n == 0 {
            return Err(CoverError::Empty);
        }
        if ell == 0 {
            return Err(CoverError::InvalidParameter {
                what: "ell must be >= 1",
            });
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if metric.dist(i, j) <= 0.0 {
                    return Err(CoverError::DuplicatePoints { i, j });
                }
            }
        }
        let mut home = vec![usize::MAX; n];
        let mut trees = Vec::new();
        let mut unassigned: Vec<usize> = (0..n).collect();
        if n == 1 {
            let mut asm = TreeAssembler::new();
            let leaf = asm.add(0);
            let t = asm.finish(leaf, 1);
            return Ok(RamseyTreeCover {
                cover: TreeCover::new(vec![t]),
                home: vec![0],
                ell,
            });
        }
        while !unassigned.is_empty() {
            let (tree, padded) = build_hst(metric, ell as f64, rng, &unassigned);
            if padded.is_empty() {
                // Fallback: a star tree homes one point with stretch 1.
                let center = unassigned[0];
                let mut asm = TreeAssembler::new();
                let root = asm.add(center);
                for p in 0..n {
                    let leaf = asm.add(p);
                    asm.attach(leaf, root, metric.dist(center, p).max(f64::MIN_POSITIVE));
                }
                // The center also needs a leaf: it got one in the loop
                // above with weight ~0 (distance to itself clamped to a
                // tiny positive weight keeps domination trivially true).
                let t = asm.finish(root, n);
                home[center] = trees.len();
                trees.push(t);
                unassigned.retain(|&p| p != center);
                continue;
            }
            let idx = trees.len();
            for &p in &padded {
                home[p] = idx;
            }
            trees.push(tree);
            unassigned.retain(|&p| home[p] == usize::MAX);
        }
        Ok(RamseyTreeCover {
            cover: TreeCover::new(trees),
            home,
            ell,
        })
    }

    /// Consumes the cover wrapper and returns the underlying tree cover.
    pub fn into_cover(self) -> TreeCover {
        self.cover
    }

    /// Builds a Ramsey cover with **at most** `budget ≥ 1` trees — the
    /// second general-metric trade-off of Table 1
    /// (γ = O(n^{1/ℓ}·log^{1-1/ℓ}n) with ζ = ℓ trees): each round doubles
    /// its padding parameter until enough points adopt the round's HST as
    /// their home tree, and the last round pads everyone.
    ///
    /// Returns the cover together with the largest padding parameter γ
    /// used (the realized stretch is ≤ 32γ, reported for experiments).
    ///
    /// # Errors
    ///
    /// Same conditions as [`RamseyTreeCover::new`].
    pub fn with_tree_budget<M: Metric, R: Rng>(
        metric: &M,
        budget: usize,
        rng: &mut R,
    ) -> Result<(Self, f64), CoverError> {
        let n = metric.len();
        if n == 0 {
            return Err(CoverError::Empty);
        }
        if budget == 0 {
            return Err(CoverError::InvalidParameter {
                what: "budget must be >= 1",
            });
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if metric.dist(i, j) <= 0.0 {
                    return Err(CoverError::DuplicatePoints { i, j });
                }
            }
        }
        if n == 1 {
            let mut asm = TreeAssembler::new();
            let leaf = asm.add(0);
            let t = asm.finish(leaf, 1);
            return Ok((
                RamseyTreeCover {
                    cover: TreeCover::new(vec![t]),
                    home: vec![0],
                    ell: budget,
                },
                1.0,
            ));
        }
        let mut home = vec![usize::MAX; n];
        let mut trees = Vec::new();
        let mut unassigned: Vec<usize> = (0..n).collect();
        let mut gamma_max = 1.0f64;
        for round in 0..budget {
            if unassigned.is_empty() {
                break;
            }
            let remaining_rounds = budget - round;
            let u = unassigned.len();
            // Home at least u - u^{(r-1)/r} points this round (everyone in
            // the last round), doubling γ until the padding succeeds.
            let keep_next = if remaining_rounds == 1 {
                0usize
            } else {
                (u as f64)
                    .powf((remaining_rounds - 1) as f64 / remaining_rounds as f64)
                    .floor() as usize
            };
            let needed = u - keep_next.min(u.saturating_sub(1));
            let mut gamma = 1.0f64;
            let (tree, padded) = loop {
                let (tree, padded) = build_hst(metric, gamma, rng, &unassigned);
                if padded.len() >= needed || gamma > 64.0 * n as f64 {
                    break (tree, padded);
                }
                gamma *= 2.0;
            };
            gamma_max = gamma_max.max(gamma);
            let idx = trees.len();
            for &p in &padded {
                home[p] = idx;
            }
            trees.push(tree);
            unassigned.retain(|&p| home[p] == usize::MAX);
        }
        debug_assert!(
            unassigned.is_empty(),
            "a large enough padding parameter pads every point"
        );
        Ok((
            RamseyTreeCover {
                cover: TreeCover::new(trees),
                home,
                ell: budget,
            },
            gamma_max,
        ))
    }

    /// The underlying tree cover.
    #[inline]
    pub fn cover(&self) -> &TreeCover {
        &self.cover
    }

    /// The home tree of point `p` — stretch to every other point is
    /// `O(ℓ)` in this tree.
    #[inline]
    pub fn home(&self, p: usize) -> usize {
        self.home[p]
    }

    /// The trade-off parameter ℓ.
    #[inline]
    pub fn ell(&self) -> usize {
        self.ell
    }

    /// Number of trees ζ.
    #[inline]
    pub fn tree_count(&self) -> usize {
        self.cover.len()
    }

    /// Worst stretch realized from each point's home tree (test helper):
    /// `max_{x,y} δ_{T_home(x)}(x, y) / δ_X(x, y)`.
    /// Tree by tree, with one temporary LCA table at a time.
    pub fn measured_home_stretch<M: Metric>(&self, metric: &M) -> f64 {
        let n = metric.len();
        let mut worst: f64 = 1.0;
        for (i, t) in self.cover.trees().iter().enumerate() {
            let lca = Lca::new(t.tree());
            for x in (0..n).filter(|&x| self.home[x] == i) {
                for y in 0..n {
                    if x == y {
                        continue;
                    }
                    let d = metric.dist(x, y);
                    // hopspan:allow(panic-in-lib) -- Ramsey trees are spanning: every tree covers all points
                    let td = t.distance_with(&lca, x, y).expect("trees span all points");
                    worst = worst.max(td / d);
                }
            }
        }
        worst
    }
}

/// Builds one HST over **all** points via top-down random ball carving,
/// and returns it with the list of `candidates` that were padded at every
/// scale.
fn build_hst<M: Metric, R: Rng>(
    metric: &M,
    gamma: f64,
    rng: &mut R,
    candidates: &[usize],
) -> (DominatingTree, Vec<usize>) {
    let n = metric.len();
    let mut dmax: f64 = 0.0;
    let mut dmin = f64::INFINITY;
    for i in 0..n {
        for j in (i + 1)..n {
            let d = metric.dist(i, j);
            dmax = dmax.max(d);
            dmin = dmin.min(d);
        }
    }
    let mut asm = TreeAssembler::new();
    let leaves: Vec<usize> = (0..n).map(|p| asm.add(p)).collect();
    let mut padded: Vec<bool> = vec![false; n];
    let mut is_candidate = vec![false; n];
    for &c in candidates {
        is_candidate[c] = true;
        padded[c] = true;
    }
    // Top cluster: all points; height Δ₀ = dmax.
    struct Cluster {
        node: usize,
        pts: Vec<usize>,
        height: f64,
    }
    let root_node = asm.add(0);
    let mut clusters = vec![Cluster {
        node: root_node,
        pts: (0..n).collect(),
        height: dmax,
    }];
    let mut delta = dmax;
    while delta > dmin / 2.0 && clusters.iter().any(|c| c.pts.len() > 1) {
        delta /= 2.0;
        // One global permutation and radius per scale (CKR).
        let mut perm: Vec<usize> = (0..n).collect();
        perm.shuffle(rng);
        let mut rank = vec![0usize; n];
        for (r, &p) in perm.iter().enumerate() {
            rank[p] = r;
        }
        let radius = delta * (0.25 + 0.25 * rng.gen::<f64>());
        let mut next_clusters = Vec::new();
        for cl in clusters {
            if cl.pts.len() == 1 {
                // Attach the leaf directly under the cluster node.
                let p = cl.pts[0];
                asm.attach(leaves[p], cl.node, cl.height);
                continue;
            }
            // Assign each point to the first permuted center within radius.
            let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
            for &x in &cl.pts {
                let mut best_center = x;
                let mut best_rank = rank[x];
                for &c in &cl.pts {
                    if rank[c] < best_rank && metric.dist(x, c) <= radius {
                        best_center = c;
                        best_rank = rank[c];
                    }
                }
                match groups.iter_mut().find(|(c, _)| *c == best_center) {
                    Some((_, g)) => g.push(x),
                    None => groups.push((best_center, vec![x])),
                }
            }
            // Padding check for candidate points: the ball of radius
            // Δ/(8ℓ) must stay within the point's own group.
            let pad_r = delta / (8.0 * gamma);
            for (c, g) in &groups {
                let _ = c;
                for &x in g {
                    if is_candidate[x] && padded[x] {
                        let ok = (0..n).all(|y| metric.dist(x, y) > pad_r || g.contains(&y));
                        if !ok {
                            padded[x] = false;
                        }
                    }
                }
            }
            for (c, g) in groups {
                let node = asm.add(c);
                asm.attach(node, cl.node, cl.height - delta);
                next_clusters.push(Cluster {
                    node,
                    pts: g,
                    height: delta,
                });
            }
        }
        clusters = next_clusters;
    }
    // Attach remaining singleton clusters' leaves.
    for cl in clusters {
        for &p in &cl.pts {
            if asm.parent[leaves[p]].is_none() && leaves[p] != root_node {
                asm.attach(leaves[p], cl.node, cl.height);
            }
        }
    }
    // Root anchor: associate the root with some point.
    let tree = asm.finish(root_node, n);
    let out: Vec<usize> = candidates.iter().copied().filter(|&p| padded[p]).collect();
    (tree, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopspan_metric::gen;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(20260706)
    }

    #[test]
    fn homes_cover_everyone() {
        let m = gen::random_bounded_metric(24, &mut rng());
        let rc = RamseyTreeCover::new(&m, 2, &mut rng()).unwrap();
        for p in 0..24 {
            assert!(rc.home(p) < rc.tree_count());
        }
        rc.cover().validate(&m).unwrap();
    }

    #[test]
    fn home_stretch_bounded() {
        let m = gen::random_bounded_metric(20, &mut rng());
        for ell in [1usize, 2, 3] {
            let rc = RamseyTreeCover::new(&m, ell, &mut rng()).unwrap();
            let s = rc.measured_home_stretch(&m);
            // Guarantee is O(ℓ) with constant ~16; measured is far below
            // on bounded random metrics.
            assert!(
                s <= 32.0 * ell as f64,
                "home stretch {s} too large for ell={ell}"
            );
        }
    }

    #[test]
    fn graph_metric_input() {
        let m = gen::random_graph_metric(18, 12, &mut rng());
        let rc = RamseyTreeCover::new(&m, 2, &mut rng()).unwrap();
        rc.cover().validate(&m).unwrap();
        assert!(rc.measured_home_stretch(&m).is_finite());
    }

    #[test]
    fn larger_ell_fewer_trees() {
        // A line metric has genuine distance spread, so padding is hard
        // for small ℓ (bounded random metrics have aspect ratio 2 and
        // everything is padded in one round).
        let m = hopspan_metric::EuclideanSpace::from_points(
            &(0..48).map(|i| vec![i as f64]).collect::<Vec<_>>(),
        );
        let t1 = RamseyTreeCover::new(&m, 1, &mut rng())
            .unwrap()
            .tree_count();
        let t3 = RamseyTreeCover::new(&m, 3, &mut rng())
            .unwrap()
            .tree_count();
        // ζ = Õ(ℓ·n^{1/ℓ}): ℓ = 1 needs many trees, ℓ = 3 far fewer.
        assert!(t1 > 1, "ell=1 should need several trees, got {t1}");
        assert!(
            t3 <= t1,
            "expected fewer trees for larger ell: {t3} vs {t1}"
        );
    }

    #[test]
    fn singletons_and_pairs() {
        let m = hopspan_metric::EuclideanSpace::from_points(&[vec![0.0]]);
        let rc = RamseyTreeCover::new(&m, 2, &mut rng()).unwrap();
        assert_eq!(rc.tree_count(), 1);
        let m2 = hopspan_metric::EuclideanSpace::from_points(&[vec![0.0], vec![2.0]]);
        let rc2 = RamseyTreeCover::new(&m2, 2, &mut rng()).unwrap();
        assert!(rc2.measured_home_stretch(&m2) < 16.0);
    }

    #[test]
    fn tree_budget_respected() {
        let m = hopspan_metric::EuclideanSpace::from_points(
            &(0..48).map(|i| vec![i as f64]).collect::<Vec<_>>(),
        );
        for budget in [1usize, 2, 4] {
            let (rc, gamma) = RamseyTreeCover::with_tree_budget(&m, budget, &mut rng()).unwrap();
            assert!(
                rc.tree_count() <= budget,
                "ζ {} > budget {budget}",
                rc.tree_count()
            );
            assert!(gamma >= 1.0);
            // Everyone is homed and the measured stretch respects 32γ.
            let s = rc.measured_home_stretch(&m);
            assert!(
                s <= 32.0 * gamma + 1e-9,
                "stretch {s} vs 32γ = {}",
                32.0 * gamma
            );
            rc.cover().validate(&m).unwrap();
        }
    }

    #[test]
    fn tree_budget_tradeoff_direction() {
        // Fewer trees ⇒ the construction must accept a larger γ.
        let m = hopspan_metric::EuclideanSpace::from_points(
            &(0..64).map(|i| vec![i as f64]).collect::<Vec<_>>(),
        );
        let (_, g1) = RamseyTreeCover::with_tree_budget(&m, 1, &mut rng()).unwrap();
        let (_, g4) = RamseyTreeCover::with_tree_budget(&m, 4, &mut rng()).unwrap();
        assert!(
            g4 <= g1,
            "more trees should not need a larger γ: {g4} vs {g1}"
        );
    }

    #[test]
    fn tree_budget_singleton() {
        let m = hopspan_metric::EuclideanSpace::from_points(&[vec![0.0]]);
        let (rc, _) = RamseyTreeCover::with_tree_budget(&m, 3, &mut rng()).unwrap();
        assert_eq!(rc.tree_count(), 1);
    }

    #[test]
    fn rejects_bad_input() {
        let m = hopspan_metric::EuclideanSpace::from_points(&[vec![0.0], vec![0.0]]);
        assert!(matches!(
            RamseyTreeCover::new(&m, 2, &mut rng()),
            Err(CoverError::DuplicatePoints { .. })
        ));
        let m2 = hopspan_metric::EuclideanSpace::from_points(&[vec![0.0], vec![1.0]]);
        assert!(RamseyTreeCover::new(&m2, 0, &mut rng()).is_err());
        assert!(RamseyTreeCover::with_tree_budget(&m2, 0, &mut rng()).is_err());
    }
}
