//! Lock-free service metrics: atomic counters plus coarse log-spaced
//! latency histograms.
//!
//! Everything here is written from the query hot path, so the only
//! primitive used is `AtomicU64` with relaxed ordering — no locks, no
//! allocation, no false precision. Latency lands in power-of-two
//! nanosecond buckets; p50/p99 are read as the upper bound of the
//! bucket where the cumulative count crosses the quantile, which is
//! exact to within the 2× bucket width — plenty for overload and
//! regression detection, and immune to coordinated-omission artifacts
//! a fancier reservoir would invite.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two latency buckets: bucket `i` holds samples in
/// `[2^(i-1), 2^i)` ns (bucket 0 holds `0..1` ns), so the top bucket
/// clamps everything ≥ 2^38 ns ≈ 4.6 minutes.
pub const LATENCY_BUCKETS: usize = 40;

/// A fixed-size log-spaced histogram of nanosecond latencies.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// Records one sample (relaxed; never blocks).
    pub fn record_ns(&self, ns: u64) {
        let idx = (64 - u64::leading_zeros(ns) as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts (for windowed
    /// quantiles: snapshot before and after, diff, then
    /// [`quantile_from_counts`]).
    pub fn counts(&self) -> [u64; LATENCY_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// The q-quantile (`0.0 ..= 1.0`) over all samples recorded so
    /// far, as the upper bound of the crossing bucket; `0` when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        quantile_from_counts(&self.counts(), q)
    }
}

/// The q-quantile over an explicit bucket-count array (see
/// [`LatencyHistogram::counts`]); `0` when the counts are all zero.
pub fn quantile_from_counts(counts: &[u64; LATENCY_BUCKETS], q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        cum += c;
        if cum >= rank {
            return if i == 0 { 1 } else { 1u64 << i };
        }
    }
    1u64 << (LATENCY_BUCKETS - 1)
}

/// Lock-free counters for one [`crate::ShardedNavigator`]. All fields
/// are cumulative since service start; see [`MetricsSnapshot`] for the
/// derived view the `Stats` opcode ships.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Requests offered to admission (accepted or not).
    pub submitted: AtomicU64,
    /// Requests answered (any outcome, including typed errors).
    pub completed: AtomicU64,
    /// Requests shed with [`crate::ServeError::Overloaded`].
    pub shed: AtomicU64,
    /// Answers outside the contract ([`crate::QueryOutcome::Degraded`]).
    pub degraded: AtomicU64,
    /// Degraded answers computed inline past the admission limit.
    pub inline_served: AtomicU64,
    /// Requests answered with a typed error.
    pub errors: AtomicU64,
    /// Worker batch flushes.
    pub batches: AtomicU64,
    /// Jobs carried by those flushes (`batched_jobs / batches` = mean
    /// realized batch size).
    pub batched_jobs: AtomicU64,
    /// Requests re-routed away from a `Down` owner shard.
    pub failovers: AtomicU64,
    /// Reserved wire slot: the serve layer never retries, so this
    /// always reads 0.
    pub retries: AtomicU64,
    /// Transitions of any shard into the `Down` state.
    pub shard_down_events: AtomicU64,
    /// Quarantined shards the supervisor re-admitted after every
    /// capability probe of the shared backend passed.
    pub respawns: AtomicU64,
    /// Packed per-shard health bytes: shard `i` (for `i < 8`) occupies
    /// byte `i` as [`crate::ShardHealth::code`]; shards beyond the
    /// eighth are not representable here and are observed via
    /// [`crate::ShardedNavigator::health`] instead.
    pub shard_health: AtomicU64,
    /// Accepted online inserts (dynamic engines; `0` on static).
    pub inserts: AtomicU64,
    /// Accepted online removes (dynamic engines; `0` on static).
    pub removes: AtomicU64,
    /// Epoch rebuilds published by the dynamic engine's builder thread
    /// (reconciled from the engine at snapshot time; `0` on static).
    pub rebuilds: AtomicU64,
    /// Packed per-shard epoch bytes, mirroring
    /// [`ServeMetrics::shard_health`]: byte `i` (for `i < 8`) holds the
    /// low byte of the epoch id shard `i` last answered or observed
    /// with. All-zero on static engines.
    pub shard_epochs: AtomicU64,
    /// Enqueue-to-completion latency of answered requests.
    pub latency: LatencyHistogram,
}

impl ServeMetrics {
    /// Relaxed increment helper.
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Relaxed add helper.
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Relaxed decrement helper — used when an admission rejection is
    /// retroactively recovered (a `BestEffort` inline fallback undoes
    /// the `shed` bump its `try_submit` recorded).
    pub(crate) fn unbump(counter: &AtomicU64) {
        counter.fetch_sub(1, Ordering::Relaxed);
    }

    /// Publishes shard `index`'s health code into its byte of the
    /// packed [`ServeMetrics::shard_health`] word (lock-free RMW;
    /// shards beyond the eighth are dropped, see the field docs).
    pub(crate) fn set_health_byte(&self, index: usize, code: u8) {
        set_packed_byte(&self.shard_health, index, code);
    }

    /// Publishes shard `index`'s epoch low byte into the packed
    /// [`ServeMetrics::shard_epochs`] word (same layout rules as the
    /// health word).
    pub(crate) fn set_epoch_byte(&self, index: usize, code: u8) {
        set_packed_byte(&self.shard_epochs, index, code);
    }

    /// A coherent-enough point-in-time copy (each field individually
    /// relaxed-loaded; cross-field skew is bounded by in-flight work).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            inline_served: self.inline_served.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_jobs: self.batched_jobs.load(Ordering::Relaxed),
            p50_ns: self.latency.quantile_ns(0.50),
            p99_ns: self.latency.quantile_ns(0.99),
            failovers: self.failovers.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            shard_down_events: self.shard_down_events.load(Ordering::Relaxed),
            respawns: self.respawns.load(Ordering::Relaxed),
            shard_health: self.shard_health.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            removes: self.removes.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            shard_epochs: self.shard_epochs.load(Ordering::Relaxed),
        }
    }
}

/// Writes `code` into byte `index` of a packed per-shard word
/// (lock-free RMW; indices past the eighth byte are dropped).
fn set_packed_byte(word: &AtomicU64, index: usize, code: u8) {
    if index >= 8 {
        return;
    }
    let shift = 8 * index as u32;
    let mask = 0xffu64 << shift;
    word.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |w| {
        Some((w & !mask) | (u64::from(code) << shift))
    })
    .unwrap_or(0); // infallible: the closure always returns Some
}

/// The plain-value metrics view shipped by the `Stats` opcode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests offered to admission.
    pub submitted: u64,
    /// Requests answered.
    pub completed: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Degraded answers.
    pub degraded: u64,
    /// Inline (past-limit) answers.
    pub inline_served: u64,
    /// Typed-error answers.
    pub errors: u64,
    /// Worker batch flushes.
    pub batches: u64,
    /// Jobs carried by those flushes.
    pub batched_jobs: u64,
    /// Median enqueue-to-completion latency (bucket upper bound).
    pub p50_ns: u64,
    /// 99th-percentile latency (bucket upper bound).
    pub p99_ns: u64,
    /// Requests re-routed away from a `Down` owner shard.
    pub failovers: u64,
    /// Reserved wire slot: the serve layer never retries, so this
    /// always reads 0.
    pub retries: u64,
    /// Transitions of any shard into the `Down` state.
    pub shard_down_events: u64,
    /// Quarantined shards the supervisor re-admitted after every
    /// capability probe of the shared backend passed.
    pub respawns: u64,
    /// Packed per-shard health bytes (shard `i < 8` in byte `i`).
    pub shard_health: u64,
    /// Accepted online inserts (dynamic engines).
    pub inserts: u64,
    /// Accepted online removes (dynamic engines).
    pub removes: u64,
    /// Published epoch rebuilds (dynamic engines).
    pub rebuilds: u64,
    /// Packed per-shard epoch low bytes (shard `i < 8` in byte `i`).
    pub shard_epochs: u64,
}

impl MetricsSnapshot {
    /// Number of `u64` fields a snapshot occupies on the wire. The
    /// jump from 10 to 15 (resilience counters) rode the frame-header
    /// version bump to 2; the jump from 15 to 19 (mutation counters +
    /// the packed epoch word) rode the bump to 3 — so an older peer
    /// sees a typed `ERR_UNSUPPORTED` rather than misparsing the
    /// longer payload.
    pub const WIRE_FIELDS: usize = 19;

    /// The snapshot as its wire field array (order is part of the
    /// protocol; see the golden pin in `tests/wire_roundtrip.rs`).
    pub fn wire_fields(&self) -> [u64; Self::WIRE_FIELDS] {
        [
            self.submitted,
            self.completed,
            self.shed,
            self.degraded,
            self.inline_served,
            self.errors,
            self.batches,
            self.batched_jobs,
            self.p50_ns,
            self.p99_ns,
            self.failovers,
            self.retries,
            self.shard_down_events,
            self.respawns,
            self.shard_health,
            self.inserts,
            self.removes,
            self.rebuilds,
            self.shard_epochs,
        ]
    }

    /// Rebuilds a snapshot from its wire field array.
    pub fn from_wire_fields(f: &[u64; Self::WIRE_FIELDS]) -> Self {
        MetricsSnapshot {
            submitted: f[0],
            completed: f[1],
            shed: f[2],
            degraded: f[3],
            inline_served: f[4],
            errors: f[5],
            batches: f[6],
            batched_jobs: f[7],
            p50_ns: f[8],
            p99_ns: f[9],
            failovers: f[10],
            retries: f[11],
            shard_down_events: f[12],
            respawns: f[13],
            shard_health: f[14],
            inserts: f[15],
            removes: f[16],
            rebuilds: f[17],
            shard_epochs: f[18],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_land_in_the_right_bucket() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record_ns(100); // bucket 7 (64..128) → upper bound 128
        }
        h.record_ns(1_000_000); // bucket 20 → upper bound 2^20
        assert_eq!(h.quantile_ns(0.50), 128);
        assert_eq!(h.quantile_ns(0.99), 128);
        assert_eq!(h.quantile_ns(1.0), 1 << 20);
        assert_eq!(LatencyHistogram::default().quantile_ns(0.5), 0);
    }

    /// The bucket a single sample lands in.
    fn bucket_of(ns: u64) -> usize {
        let h = LatencyHistogram::default();
        h.record_ns(ns);
        let counts = h.counts();
        let idx = counts.iter().position(|&c| c == 1).unwrap();
        assert_eq!(counts.iter().sum::<u64>(), 1);
        idx
    }

    #[test]
    fn exact_bucket_boundaries() {
        // Bucket 0 holds only ns = 0; bucket i (i >= 1) holds
        // [2^(i-1), 2^i). Every boundary sample must land on the
        // documented side.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        for i in 2..38 {
            assert_eq!(bucket_of((1u64 << i) - 1), i, "2^{i} - 1");
            assert_eq!(bucket_of(1u64 << i), i + 1, "2^{i}");
        }
        // Top-bucket clamp: everything >= 2^38 ns (~4.6 min) lands in
        // bucket 39, including the extremes.
        assert_eq!(bucket_of((1u64 << 38) - 1), 38);
        assert_eq!(bucket_of(1u64 << 38), 39);
        assert_eq!(bucket_of(1u64 << 39), 39);
        assert_eq!(bucket_of(u64::MAX), 39);
    }

    #[test]
    fn quantile_of_boundary_samples() {
        let h = LatencyHistogram::default();
        h.record_ns(0);
        assert_eq!(h.quantile_ns(1.0), 1, "bucket 0 upper bound is 1 ns");
        let h = LatencyHistogram::default();
        h.record_ns(u64::MAX);
        assert_eq!(h.quantile_ns(0.5), 1u64 << 39, "clamped top bucket");
    }

    #[test]
    fn snapshot_round_trips_through_wire_fields() {
        let snap = MetricsSnapshot {
            submitted: 1,
            completed: 2,
            shed: 3,
            degraded: 4,
            inline_served: 5,
            errors: 6,
            batches: 7,
            batched_jobs: 8,
            p50_ns: 9,
            p99_ns: 10,
            failovers: 11,
            retries: 12,
            shard_down_events: 13,
            respawns: 14,
            shard_health: 0x0002_0100,
            inserts: 15,
            removes: 16,
            rebuilds: 17,
            shard_epochs: 0x0000_0302,
        };
        assert_eq!(MetricsSnapshot::from_wire_fields(&snap.wire_fields()), snap);
    }

    #[test]
    fn epoch_bytes_pack_per_shard_like_health() {
        let m = ServeMetrics::default();
        m.set_epoch_byte(0, 3);
        m.set_epoch_byte(2, 7);
        m.set_epoch_byte(8, 9); // beyond the packed window: dropped
        assert_eq!(m.snapshot().shard_epochs, 0x0007_0003);
        assert_eq!(m.snapshot().shard_health, 0, "words are independent");
    }

    #[test]
    fn health_bytes_pack_per_shard_and_ignore_the_ninth() {
        let m = ServeMetrics::default();
        m.set_health_byte(0, 2);
        m.set_health_byte(3, 1);
        m.set_health_byte(8, 2); // beyond the packed window: dropped
        assert_eq!(m.snapshot().shard_health, 0x0100_0002);
        m.set_health_byte(0, 0);
        assert_eq!(m.snapshot().shard_health, 0x0100_0000);
    }
}
