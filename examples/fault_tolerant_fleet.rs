//! Fault-tolerant navigation for a drone relay fleet (Theorem 4.2, §4.4).
//!
//! A fleet of relays covers an area; up to f of them may drop out at any
//! moment. The f-fault-tolerant spanner keeps 2-hop (1+ε)-routes between
//! all surviving relays, whatever the failure pattern — at a spanner-size
//! cost of ~f².
//!
//! Run with: `cargo run --release --example fault_tolerant_fleet`

use std::collections::HashSet;

use hopspan::core::FaultTolerantSpanner;
use hopspan::metric::{gen, path_weight, Metric};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = ChaCha8Rng::seed_from_u64(4242);
    let n = 60;
    let relays = gen::uniform_points(n, 2, &mut rng);
    println!("fleet of {n} relays\n");

    println!("{:<4} {:>10} {:>16}", "f", "links", "worst stretch*");
    for f in [0usize, 1, 2, 4] {
        let sp = FaultTolerantSpanner::new(&relays, 0.25, f, 2)?;
        // Knock out f random relays and verify everyone still talks.
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(&mut rng);
        let faulty: HashSet<usize> = ids.into_iter().take(f).collect();
        let (stretch, hops) = sp.measured_stretch_and_hops(&relays, &faulty).unwrap();
        assert!(hops <= 2);
        println!("{:<4} {:>10} {:>15.2}x", f, sp.edge_count(), stretch);
    }
    println!("(*with that many random relays down; 2 hops always)\n");

    // A concrete outage.
    let sp = FaultTolerantSpanner::new(&relays, 0.25, 2, 2)?;
    let faulty: HashSet<usize> = [7usize, 23].into_iter().collect();
    let path = sp.find_path_avoiding(&relays, 0, 59, &faulty)?;
    println!("relays 7 and 23 down; route 0 → 59: {path:?}");
    println!(
        "weight {:.4} vs direct {:.4}",
        path_weight(&relays, &path),
        relays.dist(0, 59)
    );
    Ok(())
}
