//! Samples, quantiles, failure accounting and the result line.

use hopspan_serve::Op;

use crate::conn::{Failure, Reply};

/// The measured window is split into this many equal sub-windows;
/// throughput and latency quantiles are reported as the median over
/// them, so one noisy second cannot move a run's figure.
pub const SUBWINDOWS: usize = 5;

/// Op kinds, in report order.
pub const KINDS: [&str; 6] = [
    "FindPath",
    "Route",
    "RouteAvoiding",
    "Insert",
    "Remove",
    "Stats",
];

/// The [`KINDS`] index of an op.
pub fn kind_of(op: &Op) -> usize {
    match op {
        Op::FindPath { .. } => 0,
        Op::Route { .. } => 1,
        Op::RouteAvoiding { .. } => 2,
        Op::Insert { .. } => 3,
        Op::Remove { .. } => 4,
        Op::Stats => 5,
    }
}

/// One answered request inside the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Latency in nanoseconds (saturating).
    pub ns: u32,
    /// Sub-window index.
    pub sub: u8,
    /// [`KINDS`] index.
    pub kind: u8,
}

impl Sample {
    /// A sample from a latency and its offset into the window.
    pub fn new(ns: u128, offset_ns: u128, window_ns: u128, kind: usize) -> Sample {
        let sub = (offset_ns * SUBWINDOWS as u128 / window_ns.max(1)).min(SUBWINDOWS as u128 - 1);
        Sample {
            ns: u32::try_from(ns).unwrap_or(u32::MAX),
            sub: sub as u8,
            kind: kind as u8,
        }
    }
}

/// Nearest-rank quantile of sorted values (`0` when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a list of figures (`0` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Mean of values (`0` when empty).
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
    }
}

/// Latency and throughput figures of a set of samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowStats {
    /// Median over sub-windows of replies per second.
    pub qps: f64,
    /// Median over sub-windows of the p50 latency, µs.
    pub p50_us: f64,
    /// Median over sub-windows of the p99 latency, µs.
    pub p99_us: f64,
    /// Pooled mean latency, µs.
    pub mean_us: f64,
    /// Pooled p50 latency, µs.
    pub pooled_p50_us: f64,
    /// Samples.
    pub count: usize,
}

/// Figures over the samples whose kind passes `keep`.
pub fn window_stats(
    samples: &[Sample],
    window_s: f64,
    keep: impl Fn(usize) -> bool,
) -> WindowStats {
    let mut per_sub: Vec<Vec<u64>> = vec![Vec::new(); SUBWINDOWS];
    let mut pooled = Vec::new();
    for s in samples.iter().filter(|s| keep(usize::from(s.kind))) {
        per_sub[usize::from(s.sub)].push(u64::from(s.ns));
        pooled.push(u64::from(s.ns));
    }
    let sub_s = window_s / SUBWINDOWS as f64;
    let mut qps = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    for lat in &mut per_sub {
        lat.sort_unstable();
        qps.push(lat.len() as f64 / sub_s);
        if !lat.is_empty() {
            p50.push(quantile(lat, 0.50) as f64 / 1e3);
            p99.push(quantile(lat, 0.99) as f64 / 1e3);
        }
    }
    pooled.sort_unstable();
    WindowStats {
        qps: median(&qps),
        p50_us: median(&p50),
        p99_us: median(&p99),
        mean_us: mean(&pooled) / 1e3,
        pooled_p50_us: quantile(&pooled, 0.50) as f64 / 1e3,
        count: pooled.len(),
    }
}

/// Attempted / succeeded / failed counts of one op kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCounts {
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered.
    pub ok: u64,
    /// Answers outside the contract (counted in `ok`).
    pub degraded: u64,
    /// Typed errors other than sheds.
    pub typed: u64,
    /// Shed at admission.
    pub shed: u64,
    /// Wire rejects and undecodable replies.
    pub wire: u64,
    /// Broken connections.
    pub dropped: u64,
}

impl OpCounts {
    /// Failed requests of every cause.
    pub fn failed(&self) -> u64 {
        self.typed + self.shed + self.wire + self.dropped
    }

    /// Counts one reply.
    pub fn record(&mut self, reply: &Reply) {
        self.attempted += 1;
        match reply {
            Reply::Failed(Failure::Typed(_)) => self.typed += 1,
            Reply::Failed(Failure::Shed) => self.shed += 1,
            Reply::Failed(Failure::Wire) => self.wire += 1,
            Reply::Failed(Failure::Dropped) => self.dropped += 1,
            Reply::Path { degraded, .. } => {
                self.ok += 1;
                self.degraded += u64::from(*degraded);
            }
            Reply::Mutation { .. } | Reply::Stats(_) => self.ok += 1,
        }
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &OpCounts) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.degraded += other.degraded;
        self.typed += other.typed;
        self.shed += other.shed;
        self.wire += other.wire;
        self.dropped += other.dropped;
    }
}

/// Per-kind counts.
pub type Counts = [OpCounts; KINDS.len()];

/// Adds `b` into `a`.
pub fn merge_counts(a: &mut Counts, b: &Counts) {
    for (x, y) in a.iter_mut().zip(b) {
        x.merge(y);
    }
}

/// Prints the per-op accounting lines and returns the totals.
pub fn report_counts(label: &str, counts: &Counts) -> OpCounts {
    let mut total = OpCounts::default();
    for (kind, c) in KINDS.iter().zip(counts) {
        if c.attempted == 0 {
            continue;
        }
        println!(
            "{label} {kind:<14} attempted {:>8}  succeeded {:>8}  failed {:>3} \
             (typed {}, shed {}, wire {}, dropped {})  degraded {}",
            c.attempted,
            c.ok,
            c.failed(),
            c.typed,
            c.shed,
            c.wire,
            c.dropped,
            c.degraded
        );
        total.merge(c);
    }
    total
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
#[derive(Debug, Default)]
pub struct Output {
    /// Every correctness check passed.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed.
    pub failed: u64,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Output {
    /// Adds a metric and prints it on its own line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("metric {name} = {value} {unit}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The JSON object, on one line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
