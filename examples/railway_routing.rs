//! The paper's railway motivation (§1.1): "imagine a railway network,
//! where each hop in the route amounts to switching a train — how many of
//! us would be willing to use more than, say, 4 hops?"
//!
//! We model a country: cities are clusters of stations; the rail operator
//! wants direct-ish connections (few train switches), but cannot afford a
//! line between every pair of stations. The k-hop spanner is the line
//! plan; the navigation scheme is the journey planner.
//!
//! Run with: `cargo run --release --example railway_routing`

use hopspan::core::MetricNavigator;
use hopspan::metric::{gen, path_weight, Metric};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    // 240 stations in 8 metropolitan clusters.
    let stations = gen::clustered_points(240, 2, 8, 0.03, &mut rng);
    let n = stations.len();
    println!("railway planning for {n} stations in 8 cities");
    println!(
        "direct lines between all pairs: {} tracks\n",
        n * (n - 1) / 2
    );

    println!(
        "{:<10} {:>10} {:>14} {:>12}",
        "switches", "tracks", "vs complete", "max detour"
    );
    for k in [2usize, 3, 4] {
        let nav = MetricNavigator::doubling(&stations, 0.5, k)?;
        let mut worst: f64 = 1.0;
        for u in (0..n).step_by(5) {
            for v in (1..n).step_by(7) {
                if u == v {
                    continue;
                }
                let path = nav.find_path(u, v)?;
                assert!(path.len() - 1 <= k, "planner exceeded {k} switches");
                let w = path_weight(&stations, &path);
                let d = stations.dist(u, v);
                if d > 0.0 {
                    worst = worst.max(w / d);
                }
            }
        }
        let m = nav.spanner_edge_count();
        println!(
            "{:<10} {:>10} {:>13.1}% {:>11.2}x",
            k - 1,
            m,
            100.0 * m as f64 / (n * (n - 1) / 2) as f64,
            worst,
        );
    }

    // A journey: first station of city 0 to first station of city 4.
    let nav = MetricNavigator::doubling(&stations, 0.5, 2)?;
    let (from, to) = (0usize, 4usize); // clusters are interleaved mod 8
    let journey = nav.find_path(from, to)?;
    println!(
        "\njourney {from} → {to}: {} train(s), via {:?}",
        journey.len() - 1,
        journey
    );
    println!(
        "distance travelled {:.4} vs straight line {:.4}",
        path_weight(&stations, &journey),
        stations.dist(from, to),
    );
    Ok(())
}
