//! The [`Metric`] trait and concrete metric spaces.

use std::fmt;

use hopspan_treealg::{Lca, RootedTree};

use crate::graph::Graph;

/// Error produced when constructing or validating a metric space.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MetricError {
    /// A distance entry was negative, NaN or infinite.
    InvalidDistance {
        /// Row of the offending entry.
        i: usize,
        /// Column of the offending entry.
        j: usize,
        /// The offending value.
        value: f64,
    },
    /// The matrix was not square or indices were inconsistent.
    NotSquare,
    /// `d(i, i) != 0` for some `i`.
    NonZeroDiagonal {
        /// The offending index.
        i: usize,
    },
    /// `d(i, j) != d(j, i)` for some pair.
    Asymmetric {
        /// Row index.
        i: usize,
        /// Column index.
        j: usize,
    },
    /// The triangle inequality `d(i, k) <= d(i, j) + d(j, k)` failed.
    TriangleViolation {
        /// Endpoint.
        i: usize,
        /// Midpoint.
        j: usize,
        /// Endpoint.
        k: usize,
    },
    /// The underlying graph is disconnected, so some distances are infinite.
    Disconnected,
}

impl fmt::Display for MetricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricError::InvalidDistance { i, j, value } => {
                write!(f, "invalid distance d({i},{j}) = {value}")
            }
            MetricError::NotSquare => write!(f, "distance matrix is not square"),
            MetricError::NonZeroDiagonal { i } => write!(f, "d({i},{i}) is non-zero"),
            MetricError::Asymmetric { i, j } => write!(f, "d({i},{j}) != d({j},{i})"),
            MetricError::TriangleViolation { i, j, k } => {
                write!(f, "triangle inequality fails on ({i},{j},{k})")
            }
            MetricError::Disconnected => write!(f, "graph metric is disconnected"),
        }
    }
}

impl std::error::Error for MetricError {}

/// An n-point metric space with points identified by `0..len()`.
///
/// Implementations must return symmetric, non-negative, finite distances
/// with zero diagonal; [`validate_metric`] checks the axioms exhaustively.
///
/// # Self-distance exactness contract
///
/// `dist(i, i)` must return **exactly** `0.0` — bit-exact, not merely
/// within an epsilon. Every built-in implementation satisfies this for
/// free: `EuclideanSpace` subtracts a coordinate vector from itself,
/// `MatrixMetric` validates its diagonal at construction,
/// `GraphMetric`/`TreeMetricSpace` compute self-distances as empty path
/// sums. Validators therefore check the diagonal with
/// [`exactly_zero`], the one sanctioned float-equality site of the
/// workspace, rather than an epsilon band that could mask a corrupted
/// diagonal.
pub trait Metric {
    /// Number of points.
    fn len(&self) -> usize;

    /// Distance between points `i` and `j`.
    fn dist(&self, i: usize, j: usize) -> f64;

    /// Whether the space has no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The weight of a point path under `metric`: the sum of its hop
/// distances, left to right.
pub fn path_weight<M: Metric + ?Sized>(metric: &M, path: &[usize]) -> f64 {
    path.windows(2).map(|w| metric.dist(w[0], w[1])).sum()
}

/// Whether a self-distance honours the exactness contract of
/// [`Metric`]: the diagonal must be bit-exact `0.0` (`-0.0` compares
/// equal and is also accepted). This is the single sanctioned
/// float-equality comparison in the workspace; everything else goes
/// through epsilon bands.
#[inline]
#[must_use]
pub fn exactly_zero(d: f64) -> bool {
    // hopspan:allow(float-eq) -- the Metric contract demands a bit-exact 0.0 diagonal
    d == 0.0
}

impl<M: Metric + ?Sized> Metric for &M {
    fn len(&self) -> usize {
        (**self).len()
    }
    fn dist(&self, i: usize, j: usize) -> f64 {
        (**self).dist(i, j)
    }
}

/// Points in ℝ^d under the Euclidean (ℓ₂) distance.
#[derive(Debug, Clone, PartialEq)]
pub struct EuclideanSpace {
    coords: Vec<f64>,
    dim: usize,
}

impl EuclideanSpace {
    /// Creates a space from row-major point coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `coords.len()` is not a multiple of `dim`.
    pub fn new(coords: Vec<f64>, dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(
            coords.len().is_multiple_of(dim),
            "coordinate count {} not a multiple of dim {}",
            coords.len(),
            dim
        );
        EuclideanSpace { coords, dim }
    }

    /// Creates a space from a slice of points (each of equal dimension).
    ///
    /// # Panics
    ///
    /// Panics if points have inconsistent dimensions or the set is empty.
    pub fn from_points(points: &[Vec<f64>]) -> Self {
        assert!(!points.is_empty(), "need at least one point");
        let dim = points[0].len();
        let mut coords = Vec::with_capacity(points.len() * dim);
        for p in points {
            assert_eq!(p.len(), dim, "inconsistent point dimension");
            coords.extend_from_slice(p);
        }
        EuclideanSpace::new(coords, dim)
    }

    /// Dimension of the space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Coordinates of point `i`.
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        &self.coords[i * self.dim..(i + 1) * self.dim]
    }
}

impl Metric for EuclideanSpace {
    #[inline]
    fn len(&self) -> usize {
        self.coords.len() / self.dim
    }

    #[inline]
    fn dist(&self, i: usize, j: usize) -> f64 {
        let (a, b) = (self.point(i), self.point(j));
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }
}

/// A metric given by an explicit symmetric distance matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixMetric {
    n: usize,
    d: Vec<f64>,
}

impl MatrixMetric {
    /// Creates a matrix metric from a row-major `n × n` matrix.
    ///
    /// Checks squareness, symmetry, zero diagonal and entry validity, but
    /// not the triangle inequality (use [`validate_metric`] for that).
    ///
    /// # Errors
    ///
    /// Returns a [`MetricError`] describing the first violated axiom.
    pub fn new(n: usize, d: Vec<f64>) -> Result<Self, MetricError> {
        if d.len() != n * n {
            return Err(MetricError::NotSquare);
        }
        for i in 0..n {
            if !exactly_zero(d[i * n + i]) {
                return Err(MetricError::NonZeroDiagonal { i });
            }
            for j in 0..n {
                let v = d[i * n + j];
                if !v.is_finite() || v < 0.0 {
                    return Err(MetricError::InvalidDistance { i, j, value: v });
                }
                if (v - d[j * n + i]).abs() > 1e-12 * v.abs().max(1.0) {
                    return Err(MetricError::Asymmetric { i, j });
                }
            }
        }
        Ok(MatrixMetric { n, d })
    }

    /// Materializes any metric into an explicit matrix (O(n²) space).
    pub fn from_metric<M: Metric>(m: &M) -> Self {
        let n = m.len();
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let v = m.dist(i, j);
                d[i * n + j] = v;
                d[j * n + i] = v;
            }
        }
        MatrixMetric { n, d }
    }
}

impl Metric for MatrixMetric {
    #[inline]
    fn len(&self) -> usize {
        self.n
    }

    #[inline]
    fn dist(&self, i: usize, j: usize) -> f64 {
        self.d[i * self.n + j]
    }
}

/// The shortest-path metric of a connected weighted graph
/// (all-pairs distances are materialized at construction).
#[derive(Debug, Clone)]
pub struct GraphMetric {
    matrix: MatrixMetric,
}

impl GraphMetric {
    /// Computes the shortest-path closure of `graph` (n Dijkstra runs).
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::Disconnected`] if some pair is unreachable.
    pub fn new(graph: &Graph) -> Result<Self, MetricError> {
        let n = graph.len();
        let mut d = vec![0.0f64; n * n];
        for s in 0..n {
            let dist = graph.dijkstra(s);
            for (t, &v) in dist.iter().enumerate() {
                if !v.is_finite() {
                    return Err(MetricError::Disconnected);
                }
                d[s * n + t] = v;
            }
        }
        Ok(GraphMetric {
            matrix: MatrixMetric { n, d },
        })
    }
}

impl Metric for GraphMetric {
    #[inline]
    fn len(&self) -> usize {
        self.matrix.len()
    }

    #[inline]
    fn dist(&self, i: usize, j: usize) -> f64 {
        self.matrix.dist(i, j)
    }
}

/// The metric induced by an edge-weighted tree (O(1) distance queries via
/// LCA).
#[derive(Debug, Clone)]
pub struct TreeMetricSpace {
    tree: RootedTree,
    lca: Lca,
}

impl TreeMetricSpace {
    /// Wraps a rooted tree as a metric space over its vertices.
    pub fn new(tree: RootedTree) -> Self {
        let lca = Lca::new(&tree);
        TreeMetricSpace { tree, lca }
    }

    /// The underlying tree.
    #[inline]
    pub fn tree(&self) -> &RootedTree {
        &self.tree
    }
}

impl Metric for TreeMetricSpace {
    #[inline]
    fn len(&self) -> usize {
        self.tree.len()
    }

    #[inline]
    fn dist(&self, i: usize, j: usize) -> f64 {
        self.tree.distance_with(&self.lca, i, j)
    }
}

/// Exhaustively validates the metric axioms (O(n³) for the triangle
/// inequality; intended for tests and small inputs).
///
/// # Errors
///
/// Returns the first violated axiom as a [`MetricError`].
pub fn validate_metric<M: Metric>(m: &M) -> Result<(), MetricError> {
    let n = m.len();
    for i in 0..n {
        if !exactly_zero(m.dist(i, i)) {
            return Err(MetricError::NonZeroDiagonal { i });
        }
        for j in 0..n {
            let v = m.dist(i, j);
            if !v.is_finite() || v < 0.0 {
                return Err(MetricError::InvalidDistance { i, j, value: v });
            }
            if (v - m.dist(j, i)).abs() > 1e-9 * v.abs().max(1.0) {
                return Err(MetricError::Asymmetric { i, j });
            }
        }
    }
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                let slack = 1e-9 * (m.dist(i, j) + m.dist(j, k)).max(1.0);
                if m.dist(i, k) > m.dist(i, j) + m.dist(j, k) + slack {
                    return Err(MetricError::TriangleViolation { i, j, k });
                }
            }
        }
    }
    Ok(())
}

/// The aspect ratio ρ = (max distance) / (min positive distance), or 1.0
/// for spaces with fewer than two distinct points.
pub fn aspect_ratio<M: Metric>(m: &M) -> f64 {
    let n = m.len();
    let mut min = f64::INFINITY;
    let mut max: f64 = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            let d = m.dist(i, j);
            if d > 0.0 {
                min = min.min(d);
                max = max.max(d);
            }
        }
    }
    if min.is_finite() && min > 0.0 {
        max / min
    } else {
        1.0
    }
}

/// Empirically estimates the doubling constant: the maximum, over sampled
/// balls B(x, r), of the number of r/2-net points needed to cover the ball.
/// The doubling dimension is the log₂ of the returned value.
pub fn estimate_doubling_constant<M: Metric>(m: &M) -> usize {
    let n = m.len();
    let mut worst = 1usize;
    // Deterministic sweep: for each center and a few radii, greedily cover.
    for x in 0..n {
        for &denom in &[1.0, 4.0, 16.0] {
            let rmax = (0..n).map(|j| m.dist(x, j)).fold(0.0f64, f64::max);
            let r = rmax / denom;
            if r <= 0.0 {
                continue;
            }
            let ball: Vec<usize> = (0..n).filter(|&j| m.dist(x, j) <= r).collect();
            // Greedy (r/2)-net of the ball.
            let mut net: Vec<usize> = Vec::new();
            for &p in &ball {
                if net.iter().all(|&q| m.dist(p, q) > r / 2.0) {
                    net.push(p);
                }
            }
            worst = worst.max(net.len());
        }
        if n > 64 && x >= 32 {
            break; // Cap the O(n²)-per-center sweep on large inputs.
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_basics() {
        let s = EuclideanSpace::from_points(&[vec![0.0, 0.0], vec![3.0, 4.0], vec![0.0, 1.0]]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.dim(), 2);
        assert!((s.dist(0, 1) - 5.0).abs() < 1e-12);
        assert!((s.dist(0, 2) - 1.0).abs() < 1e-12);
        assert_eq!(s.dist(1, 1), 0.0);
        validate_metric(&s).unwrap();
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn euclidean_rejects_mixed_dims() {
        EuclideanSpace::from_points(&[vec![0.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn matrix_metric_validation() {
        let ok = MatrixMetric::new(2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        assert_eq!(ok.dist(0, 1), 1.0);
        assert!(matches!(
            MatrixMetric::new(2, vec![0.0, 1.0, 2.0, 0.0]),
            Err(MetricError::Asymmetric { .. })
        ));
        assert!(matches!(
            MatrixMetric::new(2, vec![1.0, 1.0, 1.0, 0.0]),
            Err(MetricError::NonZeroDiagonal { .. })
        ));
        assert!(matches!(
            MatrixMetric::new(2, vec![0.0, -1.0, -1.0, 0.0]),
            Err(MetricError::InvalidDistance { .. })
        ));
        assert!(matches!(
            MatrixMetric::new(2, vec![0.0; 3]),
            Err(MetricError::NotSquare)
        ));
    }

    #[test]
    fn validate_catches_triangle_violation() {
        // d(0,2) = 10 > d(0,1) + d(1,2) = 2.
        let m = MatrixMetric::new(3, vec![0.0, 1.0, 10.0, 1.0, 0.0, 1.0, 10.0, 1.0, 0.0]).unwrap();
        assert!(matches!(
            validate_metric(&m),
            Err(MetricError::TriangleViolation { .. })
        ));
    }

    #[test]
    fn from_metric_round_trip() {
        let s = EuclideanSpace::from_points(&[vec![0.0], vec![2.0], vec![5.0]]);
        let m = MatrixMetric::from_metric(&s);
        for i in 0..3 {
            for j in 0..3 {
                assert!((m.dist(i, j) - s.dist(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn tree_metric_space() {
        let tree = RootedTree::from_edges(4, 0, &[(0, 1, 2.0), (1, 2, 3.0), (0, 3, 1.0)]).unwrap();
        let m = TreeMetricSpace::new(tree);
        assert_eq!(m.dist(2, 3), 6.0);
        assert_eq!(m.dist(0, 2), 5.0);
        validate_metric(&m).unwrap();
    }

    #[test]
    fn aspect_ratio_works() {
        let s = EuclideanSpace::from_points(&[vec![0.0], vec![1.0], vec![10.0]]);
        assert!((aspect_ratio(&s) - 10.0).abs() < 1e-12);
        let single = EuclideanSpace::from_points(&[vec![0.0]]);
        assert_eq!(aspect_ratio(&single), 1.0);
    }

    #[test]
    fn doubling_constant_line_is_small() {
        let pts: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64]).collect();
        let s = EuclideanSpace::from_points(&pts);
        let c = estimate_doubling_constant(&s);
        // A line has doubling constant <= 4 under this greedy estimate.
        assert!(
            c <= 5,
            "estimated doubling constant {c} too large for a line"
        );
    }
}
