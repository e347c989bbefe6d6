//! O(1) lowest common ancestor via Euler tour + sparse table.
//!
//! Preprocessing is O(n log n) time and space; queries are two table
//! lookups. This realizes the \[BFC00\]-style black box the paper's
//! Property 1 assumes. (The ±1 RMQ refinement that achieves truly linear
//! preprocessing changes nothing observable at our scales.)

use crate::{word, RootedTree};

/// Constant-time LCA queries on a [`RootedTree`].
///
/// Every table entry is a `u32` word (a vertex id, tour index or
/// depth), so the structure takes about `4·m·(⌊log₂ m⌋ + 1)` bytes for
/// the `m = 2n − 1` Euler-tour entries of an `n`-vertex tree.
/// [`Lca::new`] panics on trees of more than 2³¹ vertices, whose tour
/// indices would not fit a word.
#[derive(Debug, Clone)]
pub struct Lca {
    /// First occurrence of each vertex in the Euler tour.
    first: Vec<u32>,
    /// Depth of each vertex.
    depth: Vec<u32>,
    /// Euler-tour length `m`.
    tour_len: usize,
    /// Sparse table over the Euler tour, row-major: row `j` holds the
    /// `m + 1 − 2^j` vertices of minimum depth in `tour[i..i + 2^j]`
    /// and starts at [`Lca::row_start`]`(j)`. Row 0 is the tour itself.
    table: Vec<u32>,
}

impl Lca {
    /// Preprocesses `tree` for O(1) LCA queries.
    ///
    /// # Panics
    ///
    /// Panics if the tree has more than 2³¹ vertices.
    pub fn new(tree: &RootedTree) -> Self {
        let n = tree.len();
        let mut first = vec![0u32; n];
        let depth: Vec<u32> = (0..n).map(|v| word(tree.depth(v))).collect();
        // A vertex with c children appears c + 1 times in the tour:
        // once on entry and once after each child returns, 2n − 1 in all.
        let tour_len = (2 * n).saturating_sub(1);
        let levels = floor_log2(tour_len.max(1)) + 1;
        let mut table = Vec::with_capacity(Self::row_start(levels, tour_len));
        // Iterative Euler tour: push (vertex, next-child-index).
        let mut stack: Vec<(usize, usize)> = vec![(tree.root(), 0)];
        while let Some(&mut (v, ref mut ci)) = stack.last_mut() {
            if *ci == 0 {
                first[v] = word(table.len());
            }
            table.push(word(v));
            let children = tree.children(v);
            if *ci < children.len() {
                let c = children[*ci];
                *ci += 1;
                stack.push((c, 0));
            } else {
                stack.pop();
            }
        }
        debug_assert_eq!(table.len(), tour_len);
        for j in 1..levels {
            let half = 1usize << (j - 1);
            let prev = Self::row_start(j - 1, tour_len);
            for i in 0..tour_len + 1 - (1usize << j) {
                let a = table[prev + i];
                let b = table[prev + i + half];
                // A contiguous tour range has a unique shallowest vertex,
                // so ties are between copies of the same vertex.
                table.push(if depth[a as usize] <= depth[b as usize] {
                    a
                } else {
                    b
                });
            }
        }
        Lca {
            first,
            depth,
            tour_len,
            table,
        }
    }

    /// Offset of sparse-table row `j`: rows `0..j` hold
    /// `Σ (m + 1 − 2^i) = j·(m + 1) − (2^j − 1)` entries.
    #[inline]
    fn row_start(j: usize, tour_len: usize) -> usize {
        j * (tour_len + 1) + 1 - (1usize << j)
    }

    /// The lowest common ancestor of `u` and `v`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range for the preprocessed tree.
    #[inline]
    pub fn lca(&self, u: usize, v: usize) -> usize {
        let (a, b) = (self.first[u] as usize, self.first[v] as usize);
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let j = floor_log2(b - a + 1);
        let row = Self::row_start(j, self.tour_len);
        let x = self.table[row + a];
        let y = self.table[row + b + 1 - (1usize << j)];
        if self.depth[x as usize] <= self.depth[y as usize] {
            x as usize
        } else {
            y as usize
        }
    }

    /// Whether `a` is an ancestor of (or equal to) `d`.
    #[inline]
    pub fn is_ancestor(&self, a: usize, d: usize) -> bool {
        self.lca(a, d) == a
    }
}

/// `⌊log₂ x⌋` for `x ≥ 1`.
#[inline]
pub(crate) fn floor_log2(x: usize) -> usize {
    (usize::BITS - 1 - x.leading_zeros()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_lca(tree: &RootedTree, mut u: usize, mut v: usize) -> usize {
        while tree.depth(u) > tree.depth(v) {
            u = tree.parent(u).unwrap();
        }
        while tree.depth(v) > tree.depth(u) {
            v = tree.parent(v).unwrap();
        }
        while u != v {
            u = tree.parent(u).unwrap();
            v = tree.parent(v).unwrap();
        }
        u
    }

    fn check_all_pairs(tree: &RootedTree) {
        check_pairs(tree, 1);
    }

    /// Compares `lca(u, v)` with the naive walk for every `u` and every
    /// `stride`-th `v` (offset by `u`, so each `v` is still reached).
    fn check_pairs(tree: &RootedTree, stride: usize) {
        let lca = Lca::new(tree);
        for u in 0..tree.len() {
            for v in (u % stride..tree.len()).step_by(stride) {
                assert_eq!(lca.lca(u, v), naive_lca(tree, u, v), "u={u} v={v}");
            }
        }
    }

    #[test]
    fn singleton() {
        let t = RootedTree::from_edges(1, 0, &[]).unwrap();
        let lca = Lca::new(&t);
        assert_eq!(lca.lca(0, 0), 0);
    }

    #[test]
    fn path() {
        let n = 17;
        let edges: Vec<_> = (1..n).map(|v| (v - 1, v, 1.0)).collect();
        let t = RootedTree::from_edges(n, 0, &edges).unwrap();
        check_all_pairs(&t);
    }

    #[test]
    fn star() {
        let n = 12;
        let edges: Vec<_> = (1..n).map(|v| (0, v, 1.0)).collect();
        let t = RootedTree::from_edges(n, 0, &edges).unwrap();
        check_all_pairs(&t);
    }

    #[test]
    fn binary_tree() {
        let n = 31;
        let edges: Vec<_> = (1..n).map(|v| ((v - 1) / 2, v, 1.0)).collect();
        let t = RootedTree::from_edges(n, 0, &edges).unwrap();
        check_all_pairs(&t);
    }

    #[test]
    fn random_trees() {
        // Deterministic pseudo-random parents.
        let mut state = 0x243F6A8885A308D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [2usize, 3, 5, 20, 57] {
            let edges: Vec<_> = (1..n).map(|v| ((next() as usize) % v, v, 1.0)).collect();
            let t = RootedTree::from_edges(n, 0, &edges).unwrap();
            check_all_pairs(&t);
        }
    }

    #[test]
    fn flat_layout_boundaries() {
        // A single vertex: a one-entry tour whose only sparse-table row
        // has one entry. (A tour has 2n − 1 entries, so n = 1 is the only
        // tree whose tour length is a power of two.)
        check_all_pairs(&RootedTree::from_edges(1, 0, &[]).unwrap());
        // Tour lengths 2^(j+1) − 1 (n = 2^j: the last row is as long as
        // it gets) and 2^(j+1) + 1 (n = 2^j + 1: a new row with two
        // entries), as paths and as complete-ish binary trees.
        for j in 1..=6 {
            for n in [1usize << j, (1 << j) + 1] {
                let path: Vec<_> = (1..n).map(|v| (v - 1, v, 1.0)).collect();
                check_all_pairs(&RootedTree::from_edges(n, 0, &path).unwrap());
                let binary: Vec<_> = (1..n).map(|v| ((v - 1) / 2, v, 1.0)).collect();
                check_all_pairs(&RootedTree::from_edges(n, 0, &binary).unwrap());
            }
        }
        // The deepest rows: a long path, a wide star, and a binary tree
        // whose cross-subtree queries span over 1024 tour entries with
        // the shallowest one far from both ends of the range.
        let n = 1000;
        let path: Vec<_> = (1..n).map(|v| (v - 1, v, 1.0)).collect();
        check_pairs(&RootedTree::from_edges(n, 0, &path).unwrap(), 7);
        check_pairs(&RootedTree::from_edges(n, n / 2, &path).unwrap(), 7);
        let star: Vec<_> = (1..n).map(|v| (0, v, 1.0)).collect();
        check_all_pairs(&RootedTree::from_edges(n, 0, &star).unwrap());
        let binary: Vec<_> = (1..n).map(|v| ((v - 1) / 2, v, 1.0)).collect();
        check_all_pairs(&RootedTree::from_edges(n, 0, &binary).unwrap());
    }

    #[test]
    fn ancestor_queries() {
        let n = 15;
        let edges: Vec<_> = (1..n).map(|v| ((v - 1) / 2, v, 1.0)).collect();
        let t = RootedTree::from_edges(n, 0, &edges).unwrap();
        let lca = Lca::new(&t);
        assert!(lca.is_ancestor(0, 14));
        assert!(lca.is_ancestor(3, 7));
        assert!(!lca.is_ancestor(7, 3));
        assert!(lca.is_ancestor(5, 5));
    }
}
