//! The "obvious" navigation baseline: run a shortest-path search over the
//! explicit spanner for every query.
//!
//! This answers the same queries as [`hopspan_core::MetricNavigator`] but
//! in O(m + n log n) per query instead of O(k) — the gap the paper's
//! navigation scheme closes.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Dijkstra-based path queries over a fixed spanner edge set.
#[derive(Debug)]
pub struct DijkstraNavigator {
    n: usize,
    adj: Vec<Vec<(usize, f64)>>,
}

impl DijkstraNavigator {
    /// Stores the spanner adjacency.
    pub fn new(n: usize, edges: &[(usize, usize, f64)]) -> Self {
        let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for &(u, v, w) in edges {
            adj[u].push((v, w));
            adj[v].push((u, w));
        }
        DijkstraNavigator { n, adj }
    }

    /// The minimum-weight path from `u` to `v` in the spanner, or `None`
    /// if disconnected. O(m + n log n) per query.
    pub fn find_path(&self, u: usize, v: usize) -> Option<Vec<usize>> {
        let mut dist = vec![f64::INFINITY; self.n];
        let mut parent = vec![usize::MAX; self.n];
        let mut heap = BinaryHeap::new();
        dist[u] = 0.0;
        heap.push(HeapEntry(0.0, u));
        while let Some(HeapEntry(d, x)) = heap.pop() {
            if d > dist[x] {
                continue;
            }
            if x == v {
                break;
            }
            for &(y, w) in &self.adj[x] {
                let nd = d + w;
                if nd < dist[y] {
                    dist[y] = nd;
                    parent[y] = x;
                    heap.push(HeapEntry(nd, y));
                }
            }
        }
        if !dist[v].is_finite() {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while cur != u {
            cur = parent[cur];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

#[derive(PartialEq)]
struct HeapEntry(f64, usize);

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .0
            .partial_cmp(&self.0)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.1.cmp(&self.1))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopspan_metric::{path_weight, EuclideanSpace};

    #[test]
    fn finds_shortest_paths() {
        let m = EuclideanSpace::from_points(&(0..6).map(|i| vec![i as f64]).collect::<Vec<_>>());
        let edges: Vec<_> = (1..6).map(|v| (v - 1, v, 1.0)).collect();
        let nav = DijkstraNavigator::new(6, &edges);
        let p = nav.find_path(0, 5).unwrap();
        assert_eq!(p, vec![0, 1, 2, 3, 4, 5]);
        assert!((path_weight(&m, &p) - 5.0).abs() < 1e-9);
        let lonely = DijkstraNavigator::new(3, &[(0, 1, 1.0)]);
        assert!(lonely.find_path(0, 2).is_none());
    }
}
