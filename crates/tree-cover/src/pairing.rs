//! Pairing covers of nets (paper Definition 4.2, Lemma 4.2, Figure 2).
//!
//! A pairing cover 𝒞_i of a `2^i`-net `N_i` is a small family of pair
//! sets such that (1) within each set every point has at most one other
//! point within the pairing radius, and (2) every pair of net points
//! within the radius is *paired* by some set. Each level's cover is one
//! first-fit colouring of its unordered near pairs, in a fixed order: `x`
//! in net order, then each neighbour `y` within the radius by distance
//! rank, taking each pair once at its earlier endpoint `x`. A pair joins
//! the first set whose endpoints are all more than `sep = 3·radius` from
//! both `x` and `y`, and opens a new set if there is none. Distinct pairs
//! of one set are then more than `sep` apart, which gives (1) and keeps
//! the separation that Lemma 4.3's merge constants assume; every near
//! pair is coloured, which gives (2).

use hopspan_metric::Metric;

use crate::nets::{exp2, NetHierarchy};

/// One set of a pairing cover: its pairs `(x, y)` of distinct net
/// points, `x` the endpoint earlier in net order (the merge anchor).
#[derive(Debug, Clone)]
pub struct PairSet {
    /// The `(x, y)` pairs (point ids).
    pub pairs: Vec<(usize, usize)>,
}

/// The pairing covers of every level of a net hierarchy.
#[derive(Debug, Clone)]
pub struct PairingCover {
    /// `sets[l]` is the pairing cover 𝒞_i for hierarchy level `l`.
    sets: Vec<Vec<PairSet>>,
    eps: f64,
}

impl PairingCover {
    /// Builds pairing covers for every level of `nets` with parameter ε.
    pub fn new<M: Metric>(metric: &M, nets: &NetHierarchy, eps: f64) -> Self {
        assert!(eps > 0.0 && eps <= 1.0, "eps in (0, 1]");
        let sets = nets
            .levels()
            .iter()
            .map(|level| {
                // Radius (1/ε + 4)·2^i instead of the paper's 2^i/ε: our
                // nested nets cover within 2·2^i, so the net parents p, q
                // of a pair at its equation-(2) level satisfy δ(p,q) ≤ δ +
                // 4·2^i ≤ (1/ε + 4)·2^i — the widened radius keeps them
                // paired.
                let radius = (1.0 / eps + 4.0) * exp2(level.scale_exp);
                colour_level(metric, &level.points, radius)
            })
            .collect();
        PairingCover { sets, eps }
    }

    /// The pairing cover 𝒞 of hierarchy level `l`.
    #[inline]
    pub fn level(&self, l: usize) -> &[PairSet] {
        &self.sets[l]
    }

    /// σ₃ = max over levels of |𝒞_i| — the slot count of the tree cover.
    pub fn max_sets(&self) -> usize {
        self.sets.iter().map(|s| s.len()).max().unwrap_or(0)
    }

    /// The parameter ε.
    #[inline]
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Finds a set of level `l` pairing `x` and `y` (in either order).
    pub fn find_pairing(&self, l: usize, x: usize, y: usize) -> Option<usize> {
        self.sets[l].iter().position(|s| {
            s.pairs
                .iter()
                .any(|&(a, b)| (a == x && b == y) || (a == y && b == x))
        })
    }

    /// Verifies Definition 4.2 on level `l` (test helper):
    /// (1) each point has ≤ 1 close partner within each set;
    /// (2) all close net pairs are paired by some set.
    pub fn verify_level<M: Metric>(
        &self,
        metric: &M,
        nets: &NetHierarchy,
        l: usize,
    ) -> Result<(), String> {
        let level = &nets.levels()[l];
        let radius = (1.0 / self.eps + 4.0) * exp2(level.scale_exp);
        for (si, s) in self.sets[l].iter().enumerate() {
            // Collect members (x and y sides).
            let mut members: Vec<usize> = Vec::new();
            for &(a, b) in &s.pairs {
                members.push(a);
                members.push(b);
            }
            members.sort_unstable();
            members.dedup();
            for &x in &members {
                let close = members
                    .iter()
                    .filter(|&&y| y != x && metric.dist(x, y) <= radius)
                    .count();
                if close > 1 {
                    return Err(format!(
                        "level {l} set {si}: point {x} has {close} close partners"
                    ));
                }
            }
        }
        for (ai, &x) in level.points.iter().enumerate() {
            for &y in &level.points[ai + 1..] {
                if metric.dist(x, y) <= radius && self.find_pairing(l, x, y).is_none() {
                    return Err(format!("level {l}: pair ({x},{y}) not paired"));
                }
            }
        }
        Ok(())
    }
}

/// First-fit colouring of the unordered pairs of `pts` within `radius`
/// (see the module docs). `blocked[s·k + b]` records that net position
/// `b` lies within `3·radius` of an endpoint of set `s`, so a pair fits
/// set `s` iff neither endpoint is blocked there.
fn colour_level<M: Metric>(metric: &M, pts: &[usize], radius: f64) -> Vec<PairSet> {
    let sep = 3.0 * radius;
    let k = pts.len();
    // Per net position: the positions within sep (itself included) and
    // the later positions within the radius, nearest first.
    let mut ball: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut later: Vec<Vec<(f64, usize)>> = vec![Vec::new(); k];
    for a in 0..k {
        ball[a].push(a);
        for b in (a + 1)..k {
            let d = metric.dist(pts[a], pts[b]);
            if d <= sep {
                ball[a].push(b);
                ball[b].push(a);
            }
            if d <= radius {
                later[a].push((d, b));
            }
        }
        later[a].sort_by(|&(dx, x), &(dy, y)| dx.total_cmp(&dy).then(pts[x].cmp(&pts[y])));
    }
    let mut sets: Vec<PairSet> = Vec::new();
    let mut blocked: Vec<bool> = Vec::new();
    for (a, near) in later.iter().enumerate() {
        for &(_, b) in near {
            let s = (0..sets.len())
                .find(|&s| !blocked[s * k + a] && !blocked[s * k + b])
                .unwrap_or_else(|| {
                    sets.push(PairSet { pairs: Vec::new() });
                    blocked.resize(sets.len() * k, false);
                    sets.len() - 1
                });
            sets[s].pairs.push((pts[a], pts[b]));
            for &c in ball[a].iter().chain(&ball[b]) {
                blocked[s * k + c] = true;
            }
        }
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopspan_metric::{gen, EuclideanSpace};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn line(n: usize) -> EuclideanSpace {
        EuclideanSpace::from_points(&(0..n).map(|i| vec![i as f64]).collect::<Vec<_>>())
    }

    #[test]
    fn pairing_properties_line() {
        // The Figure 2 setting: a line of points, one scale at a time.
        let m = line(12);
        let nets = NetHierarchy::for_epsilon(&m, 0.5, 2).unwrap();
        let pc = PairingCover::new(&m, &nets, 0.5);
        for l in 0..nets.levels().len() {
            pc.verify_level(&m, &nets, l).unwrap();
        }
    }

    #[test]
    fn pairing_properties_2d() {
        let pts: Vec<Vec<f64>> = (0..5)
            .flat_map(|x| (0..5).map(move |y| vec![x as f64, y as f64 * 1.3]))
            .collect();
        let m = EuclideanSpace::from_points(&pts);
        let nets = NetHierarchy::for_epsilon(&m, 0.4, 2).unwrap();
        let pc = PairingCover::new(&m, &nets, 0.4);
        for l in 0..nets.levels().len() {
            pc.verify_level(&m, &nets, l).unwrap();
        }
    }

    #[test]
    fn set_count_independent_of_n() {
        // ζ-shape: |𝒞_i| depends on ε and the dimension, not on n.
        let small = line(16);
        let big = line(64);
        let eps = 0.5;
        let n1 = NetHierarchy::for_epsilon(&small, eps, 2).unwrap();
        let n2 = NetHierarchy::for_epsilon(&big, eps, 2).unwrap();
        let c1 = PairingCover::new(&small, &n1, eps).max_sets();
        let c2 = PairingCover::new(&big, &n2, eps).max_sets();
        // Allow slack but forbid linear growth.
        assert!(c2 <= 2 * c1 + 8, "pairing sets grew with n: {c1} -> {c2}");
    }

    #[test]
    fn pairing_properties_clustered_2d() {
        let mut rng = ChaCha8Rng::seed_from_u64(25);
        let m = gen::clustered_points(96, 2, 8, 0.02, &mut rng);
        for eps in [0.5, 0.25] {
            let nets = NetHierarchy::for_epsilon(&m, eps, 2).unwrap();
            let pc = PairingCover::new(&m, &nets, eps);
            for l in 0..nets.levels().len() {
                pc.verify_level(&m, &nets, l).unwrap();
            }
        }
    }

    /// Every near pair is coloured exactly once, as (earlier, later) in
    /// net order; there are no self-pairs and no empty sets.
    #[test]
    fn each_near_pair_is_coloured_once() {
        let mut rng = ChaCha8Rng::seed_from_u64(26);
        let m = gen::uniform_points(48, 2, &mut rng);
        let eps = 0.5;
        let nets = NetHierarchy::for_epsilon(&m, eps, 2).unwrap();
        let pc = PairingCover::new(&m, &nets, eps);
        for (l, level) in nets.levels().iter().enumerate() {
            let radius = (1.0 / eps + 4.0) * exp2(level.scale_exp);
            let rank = |x: usize| level.points.iter().position(|&p| p == x).unwrap();
            let mut got: Vec<(usize, usize)> = Vec::new();
            for set in pc.level(l) {
                assert!(!set.pairs.is_empty());
                for &(x, y) in &set.pairs {
                    assert!(rank(x) < rank(y), "pair ({x}, {y}) not anchored first");
                    got.push((x, y));
                }
            }
            let mut want: Vec<(usize, usize)> = Vec::new();
            for (a, &x) in level.points.iter().enumerate() {
                for &y in &level.points[a + 1..] {
                    if m.dist(x, y) <= radius {
                        want.push((x, y));
                    }
                }
            }
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "level {l}");
        }
    }
}
