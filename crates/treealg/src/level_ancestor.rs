//! O(1) level-ancestor queries via jump pointers + ladder decomposition.
//!
//! This is the classic \[BFC04\]-style scheme: decompose the tree into
//! vertex-disjoint *long paths* (each vertex continues into its tallest
//! child), extend every path upward by its own length into a *ladder*, and
//! store binary-lifting jump pointers. A query first jumps `2^⌊log δ⌋ ≥ δ/2`
//! levels with one table lookup; the vertex reached has height at least the
//! remaining distance, so its ladder contains the answer.

use crate::lca::floor_log2;
use crate::{word, RootedTree};

/// Constant-time level-ancestor queries on a [`RootedTree`].
///
/// Every table entry is a `u32` word (a vertex id, depth or ladder
/// index): `n` depths, `n·(⌊log₂ D⌋ + 1)` jump pointers for maximum
/// depth `D`, at most `2n` ladder entries and `n` ladder positions.
/// Trees of up to 2³¹ vertices are supported; larger ones may make
/// [`LevelAncestor::new`] panic.
///
/// # Examples
///
/// ```
/// use hopspan_treealg::{LevelAncestor, RootedTree};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A path 0 - 1 - 2 - 3.
/// let tree = RootedTree::from_edges(4, 0, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])?;
/// let la = LevelAncestor::new(&tree);
/// assert_eq!(la.level_ancestor(3, 1), 1);
/// assert_eq!(la.child_toward(0, 3), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LevelAncestor {
    /// Depth of each vertex.
    depth: Vec<u32>,
    /// Binary lifting, row-major with stride `n`: `jump[j·n + v]` is the
    /// ancestor of `v` at distance `2^j` (or the root if shallower).
    jump: Vec<u32>,
    /// Every ladder, concatenated; each is stored root-end first.
    ladders: Vec<u32>,
    /// `ladders[ladder_at[v]]` is `v` itself, inside the ladder of the
    /// long path that contains `v`.
    ladder_at: Vec<u32>,
}

impl LevelAncestor {
    /// Preprocesses `tree` in O(n log n) time for O(1) queries.
    ///
    /// # Panics
    ///
    /// Panics if a table index outgrows a `u32`, which takes a tree of
    /// more than 2³¹ vertices.
    pub fn new(tree: &RootedTree) -> Self {
        let n = tree.len();
        let depth: Vec<u32> = (0..n).map(|v| word(tree.depth(v))).collect();
        // Heights via reverse preorder (children before parents).
        let mut height = vec![0usize; n];
        for &v in tree.preorder().iter().rev() {
            if let Some(p) = tree.parent(v) {
                height[p] = height[p].max(height[v] + 1);
            }
        }
        // Long-path decomposition: each vertex's path successor is its
        // tallest child. Paths start at vertices that are not the tallest
        // child of their parent.
        let mut tallest_child = vec![usize::MAX; n];
        for v in 0..n {
            let mut best = usize::MAX;
            let mut best_h = 0usize;
            for &c in tree.children(v) {
                if best == usize::MAX || height[c] + 1 > best_h {
                    best = c;
                    best_h = height[c] + 1;
                }
            }
            tallest_child[v] = best;
        }
        // Ladders total at most 2n entries: each path of length ℓ adds
        // itself plus at most ℓ ancestors above its head.
        let mut ladders: Vec<u32> = Vec::with_capacity(2 * n);
        let mut ladder_at = vec![0u32; n];
        let mut path = Vec::new();
        for &v in tree.preorder() {
            let is_path_head = match tree.parent(v) {
                None => true,
                Some(p) => tallest_child[p] != v,
            };
            if !is_path_head {
                continue;
            }
            // Collect the long path downward from v.
            path.clear();
            let mut cur = v;
            loop {
                path.push(cur);
                let next = tallest_child[cur];
                if next == usize::MAX {
                    break;
                }
                cur = next;
            }
            // Extend upward by |path| vertices to form the ladder.
            let start = ladders.len();
            let mut up = tree.parent(v);
            for _ in 0..path.len() {
                match up {
                    Some(u) => {
                        ladders.push(word(u));
                        up = tree.parent(u);
                    }
                    None => break,
                }
            }
            ladders[start..].reverse();
            // Only the path's own vertices point into this ladder; the
            // extension vertices belong to their own paths.
            for &u in &path {
                ladder_at[u] = word(ladders.len());
                ladders.push(word(u));
            }
        }
        // Binary lifting.
        let max_depth = depth.iter().copied().max().unwrap_or(0) as usize;
        let levels = if max_depth == 0 {
            1
        } else {
            floor_log2(max_depth) + 1
        };
        let mut jump = Vec::with_capacity(levels * n);
        jump.extend((0..n).map(|v| word(tree.parent(v).unwrap_or(tree.root()))));
        for j in 1..levels {
            let prev = (j - 1) * n;
            for v in 0..n {
                let half = jump[prev + v] as usize;
                jump.push(jump[prev + half]);
            }
        }
        ladders.shrink_to_fit();
        LevelAncestor {
            depth,
            jump,
            ladders,
            ladder_at,
        }
    }

    /// Number of vertices of the preprocessed tree.
    #[inline]
    pub fn len(&self) -> usize {
        self.depth.len()
    }

    /// Whether the preprocessed tree is empty (never true for a tree
    /// built by [`RootedTree`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.depth.is_empty()
    }

    /// Hop depth of `v` (0 for the root).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn depth(&self, v: usize) -> usize {
        self.depth[v] as usize
    }

    /// Parent of `v`, or `None` for the root: the first jump row, so
    /// the tree's parent pointers need not be kept beside this
    /// structure.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn parent(&self, v: usize) -> Option<usize> {
        (self.depth[v] > 0).then(|| self.jump[v] as usize)
    }

    /// The ancestor of `v` at depth `d` (so `level_ancestor(v, depth(v))`
    /// is `v` itself and `level_ancestor(v, 0)` is the root).
    ///
    /// # Panics
    ///
    /// Panics if `d > depth(v)` or `v` is out of range.
    #[inline]
    pub fn level_ancestor(&self, v: usize, d: usize) -> usize {
        let dv = self.depth[v] as usize;
        assert!(d <= dv, "requested depth {d} below vertex depth {dv}");
        let delta = dv - d;
        if delta == 0 {
            return v;
        }
        let j = floor_log2(delta);
        let u = self.jump[j * self.depth.len() + v] as usize;
        // u is at depth dv - 2^j; the remainder is < 2^j ≤ the height of
        // u, which its ladder extends above it.
        let remaining = self.depth[u] as usize - d;
        let a = self.ladders[self.ladder_at[u] as usize - remaining] as usize;
        debug_assert_eq!(self.depth[a] as usize, d, "ladder too short");
        a
    }

    /// The ancestor `u` of `v` with `depth(v) - depth(u) = steps`.
    ///
    /// # Panics
    ///
    /// Panics if `steps > depth(v)`.
    #[inline]
    pub fn ancestor_at_distance(&self, v: usize, steps: usize) -> usize {
        self.level_ancestor(v, self.depth[v] as usize - steps)
    }

    /// The child of `a` on the path from `a` down to its descendant `d`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not a strict ancestor of `d`.
    #[inline]
    pub fn child_toward(&self, a: usize, d: usize) -> usize {
        assert!(self.depth[d] > self.depth[a], "a must be a strict ancestor");
        self.level_ancestor(d, self.depth[a] as usize + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compares every `(v, d)` query against the root path of `v`,
    /// found by walking parent pointers once per vertex.
    fn check_all(tree: &RootedTree) {
        let la = LevelAncestor::new(tree);
        let mut root_path = Vec::new();
        for v in 0..tree.len() {
            root_path.clear();
            let mut u = Some(v);
            while let Some(x) = u {
                root_path.push(x);
                u = tree.parent(x);
            }
            root_path.reverse();
            assert_eq!(root_path.len(), tree.depth(v) + 1);
            for (d, &want) in root_path.iter().enumerate() {
                assert_eq!(la.level_ancestor(v, d), want, "v={v} d={d}");
            }
        }
    }

    #[test]
    fn singleton() {
        let t = RootedTree::from_edges(1, 0, &[]).unwrap();
        let la = LevelAncestor::new(&t);
        assert_eq!(la.level_ancestor(0, 0), 0);
    }

    #[test]
    fn path() {
        let n = 33;
        let edges: Vec<_> = (1..n).map(|v| (v - 1, v, 1.0)).collect();
        check_all(&RootedTree::from_edges(n, 0, &edges).unwrap());
    }

    #[test]
    fn star() {
        let n = 9;
        let edges: Vec<_> = (1..n).map(|v| (0, v, 1.0)).collect();
        check_all(&RootedTree::from_edges(n, 0, &edges).unwrap());
    }

    #[test]
    fn binary_tree() {
        let n = 63;
        let edges: Vec<_> = (1..n).map(|v| ((v - 1) / 2, v, 1.0)).collect();
        check_all(&RootedTree::from_edges(n, 0, &edges).unwrap());
    }

    #[test]
    fn caterpillar() {
        // Spine of 10 with a leaf on each spine vertex.
        let mut edges = Vec::new();
        for i in 1..10 {
            edges.push((i - 1, i, 1.0));
        }
        for i in 0..10 {
            edges.push((i, 10 + i, 1.0));
        }
        check_all(&RootedTree::from_edges(20, 0, &edges).unwrap());
    }

    #[test]
    fn random_trees() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [2usize, 3, 7, 40, 100] {
            let edges: Vec<_> = (1..n).map(|v| ((next() as usize) % v, v, 1.0)).collect();
            check_all(&RootedTree::from_edges(n, 0, &edges).unwrap());
        }
    }

    #[test]
    fn flat_layout_boundaries() {
        // A single vertex: one jump row, one one-entry ladder.
        check_all(&RootedTree::from_edges(1, 0, &[]).unwrap());
        // A long path: one ladder holding every vertex, and the deepest
        // jump row (2⁹ ≤ 999 < 2¹⁰).
        let n = 1000;
        let path: Vec<_> = (1..n).map(|v| (v - 1, v, 1.0)).collect();
        check_all(&RootedTree::from_edges(n, 0, &path).unwrap());
        // The same path rooted at its middle: two long ladders meeting
        // at the root.
        check_all(&RootedTree::from_edges(n, n / 2, &path).unwrap());
        // A star: the root's path plus n − 2 leaf ladders of one path
        // vertex and one extension vertex each.
        let star: Vec<_> = (1..n).map(|v| (0, v, 1.0)).collect();
        check_all(&RootedTree::from_edges(n, 0, &star).unwrap());
    }

    #[test]
    fn depth_and_parent_match_the_tree() {
        let n = 40;
        let edges: Vec<_> = (1..n).map(|v| ((v * 7 + 3) % v, v, 1.0)).collect();
        for root in [0, 17] {
            let t = RootedTree::from_edges(n, root, &edges).unwrap();
            let la = LevelAncestor::new(&t);
            assert_eq!(la.len(), n);
            for v in 0..n {
                assert_eq!(la.depth(v), t.depth(v), "v={v}");
                assert_eq!(la.parent(v), t.parent(v), "v={v}");
            }
        }
    }

    #[test]
    fn child_toward_works() {
        let n = 15;
        let edges: Vec<_> = (1..n).map(|v| ((v - 1) / 2, v, 1.0)).collect();
        let t = RootedTree::from_edges(n, 0, &edges).unwrap();
        let la = LevelAncestor::new(&t);
        assert_eq!(la.child_toward(0, 14), 2);
        assert_eq!(la.child_toward(2, 14), 6);
        assert_eq!(la.child_toward(6, 14), 14);
    }

    #[test]
    #[should_panic(expected = "below vertex depth")]
    fn panics_below() {
        let t = RootedTree::from_edges(2, 0, &[(0, 1, 1.0)]).unwrap();
        let la = LevelAncestor::new(&t);
        la.level_ancestor(0, 1);
    }
}
