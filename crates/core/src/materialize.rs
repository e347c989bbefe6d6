//! Merging the point-pair instances of many tree spanners into one
//! metric spanner's edge list: sorted by `(u, v)`, each pair once, with
//! the weight its first instance reads from the metric.

use hopspan_metric::Metric;

/// Key of the point pair `(a, b)`: the unordered pair in the high bits,
/// so keys order by `(min, max)`, and in the low bit whether the
/// instance came flipped (`a > b`), so the weight is read in the
/// orientation of the pair's first instance.
///
/// # Panics
///
/// Panics if a point id is 2³¹ or more.
pub fn pair_key(a: usize, b: usize) -> u64 {
    let hi = u64::try_from(a.max(b))
        .ok()
        .filter(|&x| x < 1 << 31)
        // hopspan:allow(panic-in-lib) -- point ids stay far below 2³¹ for any metric that fits in memory
        .expect("point id fits 31 bits");
    let lo = a.min(b) as u64;
    lo << 33 | hi << 1 | u64::from(a > b)
}

/// Accumulates pair keys tree by tree. The buffer holds the sorted
/// distinct pairs so far, followed by the pending keys of later trees;
/// it is compacted whenever the pending part outgrows the sorted part,
/// so it stays within about twice the distinct pair count plus one
/// tree's keys, however many instances stream through.
#[derive(Debug, Default)]
pub struct EdgeMerger {
    keys: Vec<u64>,
    distinct: usize,
}

impl EdgeMerger {
    /// Appends the keys of one tree, in emission order.
    pub fn extend(&mut self, keys: impl IntoIterator<Item = u64>) {
        self.keys.extend(keys);
        if self.keys.len() - self.distinct > self.distinct.max(1 << 16) {
            self.compact();
        }
    }

    /// Sorts by pair and keeps each pair's first instance: the stable
    /// sort keeps instances of one pair in arrival order, and it merges
    /// the already-sorted runs the buffer is made of.
    fn compact(&mut self) {
        self.keys.sort_by_key(|k| k >> 1);
        self.keys.dedup_by_key(|k| *k >> 1);
        self.distinct = self.keys.len();
    }

    /// The edges `(u, v, δ(·,·))` with `u < v`, sorted by `(u, v)`.
    pub fn finish<M: Metric>(mut self, metric: &M) -> Vec<(usize, usize, f64)> {
        self.compact();
        self.keys
            .iter()
            .map(|&k| {
                let (lo, hi) = ((k >> 33) as usize, ((k >> 1) & 0xffff_ffff) as usize);
                let w = if k & 1 == 1 {
                    metric.dist(hi, lo)
                } else {
                    metric.dist(lo, hi)
                };
                (lo, hi, w)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopspan_metric::EuclideanSpace;

    #[test]
    fn keeps_first_instances_sorted() {
        let m = EuclideanSpace::from_points(&[vec![0.0], vec![1.0], vec![3.0], vec![7.0]]);
        let mut merger = EdgeMerger::default();
        merger.extend([pair_key(3, 1), pair_key(0, 2)]);
        merger.extend([pair_key(1, 3), pair_key(2, 0), pair_key(0, 1)]);
        assert_eq!(
            merger.finish(&m),
            vec![(0, 1, 1.0), (0, 2, 3.0), (1, 3, 6.0)]
        );
        assert!(pair_key(3, 1) & 1 == 1 && pair_key(1, 3) & 1 == 0);
    }
}
