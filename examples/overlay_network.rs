//! A peer-to-peer overlay with compact 2-hop routing (Theorem 1.3).
//!
//! Every node stores only polylog bits (its routing table); packets carry
//! a destination label and an O(log n)-bit header; port numbers are
//! assigned adversarially. Packets still arrive in ≤ 2 hops with
//! (1+ε)-stretch routes.
//!
//! Run with: `cargo run --release --example overlay_network`

use hopspan::metric::{gen, path_weight, Metric};
use hopspan::routing::MetricRoutingScheme;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let n = 200;
    let peers = gen::uniform_points(n, 2, &mut rng);
    let scheme = MetricRoutingScheme::doubling(&peers, 0.5, &mut rng)?;
    let stats = scheme.stats();
    println!(
        "overlay with {n} peers, {} links",
        scheme.network().edge_count()
    );
    println!("tree cover: ζ = {} trees", scheme.tree_count());
    println!(
        "label ≤ {} bits, table ≤ {} bits, header ≤ {} bits",
        stats.max_label_bits, stats.max_table_bits, stats.header_bits
    );
    println!(
        "(a full routing table of n-1 entries would need ~{} bits)\n",
        (n - 1) * 16
    );

    let mut max_hops = 0usize;
    let mut worst: f64 = 1.0;
    let mut max_decisions = 0usize;
    let mut deliveries = 0usize;
    for u in (0..n).step_by(3) {
        for v in (1..n).step_by(7) {
            if u == v {
                continue;
            }
            let trace = scheme.route(u, v)?;
            assert_eq!(*trace.path.last().unwrap(), v, "misdelivered packet");
            max_hops = max_hops.max(trace.hops());
            max_decisions = max_decisions.max(trace.decision_steps);
            let w = path_weight(&peers, &trace.path);
            let d = peers.dist(u, v);
            if d > 0.0 {
                worst = worst.max(w / d);
            }
            deliveries += 1;
        }
    }
    println!("{deliveries} packets delivered");
    println!("max hops: {max_hops} (guarantee: 2)");
    println!("max route stretch: {worst:.3}");
    println!("max local decision steps: {max_decisions}");

    let trace = scheme.route(0, n - 1)?;
    println!(
        "\nsample packet 0 → {}: path {:?}, header ≤ {} bits",
        n - 1,
        trace.path,
        trace.max_header_bits
    );
    Ok(())
}
