//! Quickstart: navigate a random Euclidean point set with 2, 3 and 4 hops
//! on sparse spanners, and compare against the Θ(n²) complete graph.
//!
//! Run with: `cargo run --release --example quickstart`

use hopspan::core::MetricNavigator;
use hopspan::metric::{gen, path_weight, Metric};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = ChaCha8Rng::seed_from_u64(2026);
    let n = 300;
    let points = gen::uniform_points(n, 2, &mut rng);
    println!("{n} uniform points in the unit square");
    println!("complete graph: {} edges\n", n * (n - 1) / 2);

    for k in [2usize, 3, 4] {
        let nav = MetricNavigator::doubling(&points, 0.5, k)?;
        // Sample some queries.
        let mut worst: f64 = 1.0;
        let mut max_hops = 0usize;
        for i in 0..n {
            let (u, v) = (i, (i * 7 + 13) % n);
            if u == v {
                continue;
            }
            let path = nav.find_path(u, v)?;
            let w = path_weight(&points, &path);
            let d = points.dist(u, v);
            if d > 0.0 {
                worst = worst.max(w / d);
            }
            max_hops = max_hops.max(path.len() - 1);
        }
        println!(
            "k={k}: spanner has {:>6} edges ({} trees), sampled stretch ≤ {:.3}, hops ≤ {max_hops}",
            nav.spanner_edge_count(),
            nav.tree_count(),
            worst,
        );
    }

    // A concrete 2-hop route.
    let nav = MetricNavigator::doubling(&points, 0.5, 2)?;
    let path = nav.find_path(0, n - 1)?;
    println!(
        "\nroute 0 → {}: {:?} ({} hops, weight {:.4}, direct {:.4})",
        n - 1,
        path,
        path.len() - 1,
        path_weight(&points, &path),
        points.dist(0, n - 1),
    );
    Ok(())
}
