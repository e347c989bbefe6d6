//! Hierarchical `2^i`-nets (paper §4.2, Step 0).
//!
//! An `r`-net of `(X, δ_X)` is `N ⊆ X` with (a) pairwise distances `> r`
//! (packing) and (b) every point within `r` of some net point (covering).
//! The hierarchy fixes nested nets `N_i ⊇ N_{i+1}` where `N_i` is a
//! `2^i`-net, for all scales `i` in a range wide enough for both the
//! pairing covers and the pair-level equation (2) of the paper.

use hopspan_metric::{exactly_zero, Metric};

use crate::CoverError;

/// One level of the hierarchy.
#[derive(Debug, Clone)]
pub struct NetLevel {
    /// The net radius is `2^scale_exp`.
    pub scale_exp: i32,
    /// Net points (subset of `0..n`), in greedy selection order.
    pub points: Vec<usize>,
}

/// A hierarchy of nested `2^i`-nets.
#[derive(Debug, Clone)]
pub struct NetHierarchy {
    levels: Vec<NetLevel>,
    /// For each level and each point of X, the index (into
    /// `levels[l].points`) of a net point within `2^i` (its "net parent").
    nearest_net: Vec<Vec<usize>>,
    n: usize,
}

impl NetHierarchy {
    /// Builds nested nets for every scale in `[low_exp, high_exp]`
    /// (inclusive). Levels are greedy: each is a maximal independent
    /// subset of the previous level at the new radius, which yields both
    /// the packing and covering properties.
    ///
    /// # Errors
    ///
    /// Returns [`CoverError::Empty`] for an empty metric,
    /// [`CoverError::DuplicatePoints`] if two points coincide,
    /// [`CoverError::BadDistance`] for a NaN, infinite or negative
    /// distance, and [`CoverError::InvalidParameter`] for a reversed
    /// range.
    pub fn new<M: Metric>(metric: &M, low_exp: i32, high_exp: i32) -> Result<Self, CoverError> {
        let n = metric.len();
        if n == 0 {
            return Err(CoverError::Empty);
        }
        if low_exp > high_exp {
            return Err(CoverError::InvalidParameter {
                what: "low_exp > high_exp",
            });
        }
        for i in 0..n {
            for j in (i + 1)..n {
                let d = metric.dist(i, j);
                // NaN fails `is_finite`; a plain `<= 0.0` would let it
                // through and poison every radius comparison below.
                if !d.is_finite() || d < 0.0 {
                    return Err(CoverError::BadDistance { i, j, value: d });
                }
                if exactly_zero(d) {
                    return Err(CoverError::DuplicatePoints { i, j });
                }
            }
        }
        Ok(Self::build(metric, low_exp, high_exp))
    }

    /// Builds the hierarchy over the scale range that `range` picks from
    /// the smallest and largest pairwise distance; the one all-pairs
    /// scan that finds the two also validates every distance. A single
    /// point gets the one trivial level `[0, 0]`.
    ///
    /// # Errors
    ///
    /// [`CoverError::Empty`] for an empty metric; else
    /// [`CoverError::BadDistance`] for the first NaN, infinite or
    /// negative distance; else [`CoverError::DuplicatePoints`] for the
    /// first zero-distance pair; else [`CoverError::InvalidParameter`]
    /// when `range` returns a reversed range.
    pub(crate) fn over_range<M: Metric>(
        metric: &M,
        range: impl FnOnce(f64, f64) -> (i32, i32),
    ) -> Result<Self, CoverError> {
        let n = metric.len();
        if n == 0 {
            return Err(CoverError::Empty);
        }
        let mut dmin = f64::INFINITY;
        let mut dmax: f64 = 0.0;
        let mut closest = (0usize, 0usize);
        for i in 0..n {
            for j in (i + 1)..n {
                let d = metric.dist(i, j);
                // Reject NaN/∞/negative entries up front: an infinite
                // dmax would overflow the i32 exponent arithmetic of
                // `range`, and NaN slips past every ordered comparison.
                if !d.is_finite() || d < 0.0 {
                    return Err(CoverError::BadDistance { i, j, value: d });
                }
                if d < dmin {
                    dmin = d;
                    closest = (i, j);
                }
                dmax = dmax.max(d);
            }
        }
        if dmin <= 0.0 {
            // log₂(0) in `range` would underflow the scale range; report
            // the zero-distance pair instead.
            return Err(CoverError::DuplicatePoints {
                i: closest.0,
                j: closest.1,
            });
        }
        let (low, high) = if n == 1 { (0, 0) } else { range(dmin, dmax) };
        if low > high {
            return Err(CoverError::InvalidParameter {
                what: "low_exp > high_exp",
            });
        }
        Ok(Self::build(metric, low, high))
    }

    /// The greedy nets for every scale in `[low_exp, high_exp]` over a
    /// validated metric.
    fn build<M: Metric>(metric: &M, low_exp: i32, high_exp: i32) -> Self {
        let n = metric.len();
        let mut levels: Vec<NetLevel> = Vec::new();
        let mut nearest_net: Vec<Vec<usize>> = Vec::new();
        let mut prev: Vec<usize> = (0..n).collect();
        for e in low_exp..=high_exp {
            let r = exp2(e);
            // Greedy subset of the previous net with pairwise distance > r.
            let mut keep: Vec<usize> = Vec::new();
            for &p in &prev {
                if keep.iter().all(|&q| metric.dist(p, q) > r) {
                    keep.push(p);
                }
            }
            // Net parent per point of X: the closest net point. Nested
            // greedy nets cover X within radius 2^e·(1 + 1/2 + …) < 2^{e+1}
            // (follow the chain of killers downward); the constructions
            // built on this hierarchy use the covering radius 2·2^e, which
            // the paper's O(·) constants absorb.
            let mut near = Vec::with_capacity(n);
            for x in 0..n {
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for (idx, &q) in keep.iter().enumerate() {
                    let d = metric.dist(x, q);
                    if d < best_d {
                        best_d = d;
                        best = idx;
                    }
                }
                near.push(best);
            }
            nearest_net.push(near);
            levels.push(NetLevel {
                scale_exp: e,
                points: keep.clone(),
            });
            prev = keep;
        }
        NetHierarchy {
            levels,
            nearest_net,
            n,
        }
    }

    /// Convenience: builds the range of scales needed for an ε-pairing
    /// cover of the whole metric: from `⌊log₂(4ε·δ_min)⌋ - extra_low` up
    /// to `⌈log₂(2ε·δ_max)⌉ + 1`.
    ///
    /// # Errors
    ///
    /// The errors of [`NetHierarchy::new`], and
    /// [`CoverError::InvalidParameter`] for `eps` outside `(0, 1]`.
    pub fn for_epsilon<M: Metric>(
        metric: &M,
        eps: f64,
        extra_low: i32,
    ) -> Result<Self, CoverError> {
        if eps <= 0.0 || eps.is_nan() || eps > 1.0 {
            return Err(CoverError::InvalidParameter {
                what: "eps must be in (0, 1]",
            });
        }
        NetHierarchy::over_range(metric, |dmin, dmax| {
            let low = (4.0 * eps * dmin).log2().floor() as i32 - extra_low;
            let high = (2.0 * eps * dmax).log2().ceil() as i32 + 1;
            (low.min(high), high)
        })
    }

    /// Number of points in the underlying metric.
    #[inline]
    pub fn point_count(&self) -> usize {
        self.n
    }

    /// The levels, ascending by scale.
    #[inline]
    pub fn levels(&self) -> &[NetLevel] {
        &self.levels
    }

    /// Index of the level with scale exponent `e`, if present.
    pub fn level_index(&self, e: i32) -> Option<usize> {
        let first = self.levels.first()?.scale_exp;
        let off = e.checked_sub(first)?;
        if off < 0 || off as usize >= self.levels.len() {
            None
        } else {
            Some(off as usize)
        }
    }

    /// The closest net point of level `l` to point `x` (a "net parent").
    pub fn nearest_net_point(&self, l: usize, x: usize) -> usize {
        self.levels[l].points[self.nearest_net[l][x]]
    }
}

/// `2^e` for possibly negative `e`.
pub(crate) fn exp2(e: i32) -> f64 {
    (e as f64).exp2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopspan_metric::EuclideanSpace;

    fn line(n: usize) -> EuclideanSpace {
        EuclideanSpace::from_points(&(0..n).map(|i| vec![i as f64]).collect::<Vec<_>>())
    }

    #[test]
    fn packing_and_covering() {
        let m = line(32);
        let h = NetHierarchy::new(&m, -1, 6).unwrap();
        for (l, lvl) in h.levels().iter().enumerate() {
            let r = exp2(lvl.scale_exp);
            // Packing: pairwise > r.
            for (a, &p) in lvl.points.iter().enumerate() {
                for &q in &lvl.points[a + 1..] {
                    assert!(m.dist(p, q) > r, "packing violated at level {l}");
                }
            }
            // Covering: nested greedy nets cover within radius
            // 2^i·(1 + 1/2 + 1/4 + …) < 2^{i+1} (the killer chain).
            for x in 0..m.len() {
                let p = h.nearest_net_point(l, x);
                assert!(
                    m.dist(x, p) <= 2.0 * r + 1e-9,
                    "covering violated: level {l}, x={x}, dist={}",
                    m.dist(x, p)
                );
            }
        }
    }

    #[test]
    fn nesting() {
        let m = line(20);
        let h = NetHierarchy::new(&m, 0, 5).unwrap();
        for w in h.levels().windows(2) {
            for p in &w[1].points {
                assert!(w[0].points.contains(p), "nets must be nested");
            }
        }
        // Top level has a single point for scale >= diameter.
        assert_eq!(h.levels().last().unwrap().points.len(), 1);
    }

    #[test]
    fn rejects_duplicates_and_empty() {
        let dup = EuclideanSpace::from_points(&[vec![1.0], vec![1.0]]);
        assert!(matches!(
            NetHierarchy::new(&dup, 0, 1),
            Err(CoverError::DuplicatePoints { .. })
        ));
    }

    #[test]
    fn for_epsilon_covers_needed_scales() {
        let m = line(16);
        let h = NetHierarchy::for_epsilon(&m, 0.5, 3).unwrap();
        // Lowest level must be a net where every point is its own net
        // point (scale below min distance).
        assert_eq!(h.levels()[0].points.len(), 16);
        assert!(h.level_index(h.levels()[0].scale_exp).unwrap() == 0);
        assert!(h.level_index(999).is_none());
    }

    #[test]
    fn single_point() {
        let m = line(1);
        let h = NetHierarchy::for_epsilon(&m, 0.5, 2).unwrap();
        assert_eq!(h.levels().len(), 1);
        assert_eq!(h.levels()[0].points, vec![0]);
    }

    #[test]
    fn rejects_non_finite_and_negative_distances() {
        struct Bad(f64);
        impl hopspan_metric::Metric for Bad {
            fn len(&self) -> usize {
                3
            }
            fn dist(&self, i: usize, j: usize) -> f64 {
                if i == j {
                    0.0
                } else if i.min(j) == 0 && i.max(j) == 2 {
                    self.0
                } else {
                    1.0
                }
            }
        }
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            // `for_epsilon` must reject before its exponent arithmetic
            // (an ∞ diameter would overflow the i32 scale range).
            assert!(matches!(
                NetHierarchy::for_epsilon(&Bad(bad), 0.5, 2),
                Err(CoverError::BadDistance { i: 0, j: 2, .. })
            ));
            assert!(matches!(
                NetHierarchy::new(&Bad(bad), 0, 1),
                Err(CoverError::BadDistance { i: 0, j: 2, .. })
            ));
        }
    }
}
