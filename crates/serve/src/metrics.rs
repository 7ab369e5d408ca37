//! Per-request serving metrics: a log-bucketed latency histogram and the
//! prediction digest the CI determinism gate compares.
//!
//! The histogram is HDR-style: one octave per power of two of nanoseconds,
//! eight sub-buckets per octave (the three bits below the leading one), so
//! any recorded latency lands in a bucket whose width is at most 1/8 of its
//! magnitude — quantile estimates carry ≤ ~6 % relative error at fixed
//! memory (512 counters), independent of how many requests are recorded.
//! Merging histograms is element-wise addition, so per-worker histograms
//! combine associatively and the merged quantiles do not depend on worker
//! count or merge order.

use fault_inject::model::WORD_BITS;
use sram_exec::{fnv1a, fnv1a_u64, FNV_OFFSET};

/// Sub-buckets per octave (2^3): latencies keep their top four significant
/// bits.
const SUBS_PER_OCTAVE: usize = 8;

/// Bucket count: 8 exact buckets for 0-7 ns plus 61 octaves × 8 sub-buckets
/// (nanosecond range of a `u64`), rounded up to a power of two.
const BUCKETS: usize = 512;

/// A fixed-size log-bucketed latency histogram (nanoseconds).
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Index of the bucket holding `ns`.
fn bucket_index(ns: u64) -> usize {
    if ns < 8 {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros() as usize; // >= 3
    let sub = ((ns >> (octave - 3)) & 0x7) as usize;
    8 + (octave - 3) * SUBS_PER_OCTAVE + sub
}

/// Inclusive value range `[lo, hi]` covered by bucket `idx`.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < 8 {
        return (idx as u64, idx as u64);
    }
    let octave = 3 + (idx - 8) / SUBS_PER_OCTAVE;
    let sub = ((idx - 8) % SUBS_PER_OCTAVE) as u64;
    let lo = (1u64 << octave) + (sub << (octave - 3));
    // Parenthesized so the top bucket (which ends exactly at `u64::MAX`)
    // does not overflow.
    let hi = lo + ((1u64 << (octave - 3)) - 1);
    (lo, hi)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_index(ns)] += 1;
        self.total += 1;
        self.sum_ns += u128::from(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact mean of the recorded samples (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum_ns as f64 / self.total as f64
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Largest recorded sample.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The `q`-quantile (bucket midpoint, clamped to the observed range);
    /// 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= q <= 1.0`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.total == 0 {
            return 0;
        }
        // Rank of the requested quantile, 1-based (nearest-rank method).
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let (lo, hi) = bucket_bounds(idx);
                return lo.midpoint(hi).clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median latency.
    pub fn p50_ns(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Tail latency.
    pub fn p99_ns(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Adds every sample of `other` into `self` (element-wise, associative
    /// and commutative — merged quantiles are worker-count invariant).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        if other.total > 0 {
            self.min_ns = self.min_ns.min(other.min_ns);
            self.max_ns = self.max_ns.max(other.max_ns);
        }
    }
}

/// FNV-1a digest of a prediction vector — the fingerprint `serve_bench`
/// prints and the `serve-load` CI job compares across worker counts.
pub fn prediction_digest(predictions: &[usize]) -> u64 {
    predictions
        .iter()
        .fold(FNV_OFFSET, |h, &p| fnv1a_u64(h, p as u64))
}

/// FNV-1a fingerprint of a byte image (memory contents, bulk-read sweeps);
/// the `scale_bench` shard-equivalence gate compares these across shard
/// counts.
pub fn byte_digest(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// A nanosecond span at a readable scale (ns, µs, ms or s), for the load
/// generators' tables.
pub fn format_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.1} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Injected read-fault bits per bit read — the serving-Vdd bit-error rate
/// a request stream actually observed; 0 when nothing was read.
pub fn bit_error_rate(fault_bits: u64, words_read: u64) -> f64 {
    let bits = words_read.saturating_mul(WORD_BITS as u64);
    if bits == 0 {
        return 0.0;
    }
    fault_bits as f64 / bits as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_u64_range() {
        // Every value maps into a bucket whose bounds contain it.
        for ns in (0u64..4096).chain([u64::MAX, 1 << 40, (1 << 40) + 12345]) {
            let idx = bucket_index(ns);
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= ns && ns <= hi, "ns {ns} bucket {idx} [{lo},{hi}]");
            assert!(idx < BUCKETS);
        }
        // Bucket bounds tile without gaps over the reachable range (the
        // last reachable bucket is the one holding `u64::MAX`; indices
        // beyond it are padding up to the power-of-two array size).
        let last = bucket_index(u64::MAX);
        assert!(last < BUCKETS);
        for idx in 0..last {
            let (_, hi) = bucket_bounds(idx);
            let (lo_next, _) = bucket_bounds(idx + 1);
            assert_eq!(hi + 1, lo_next, "gap after bucket {idx}");
        }
        assert_eq!(bucket_bounds(last).1, u64::MAX);
    }

    #[test]
    fn quantiles_of_a_known_distribution() {
        let mut h = LatencyHistogram::new();
        for ns in 1..=1000u64 {
            h.record(ns * 1000); // 1 µs .. 1 ms, uniform
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.p50_ns() as f64;
        let p99 = h.p99_ns() as f64;
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.10, "p50 {p50}");
        assert!((p99 / 990_000.0 - 1.0).abs() < 0.10, "p99 {p99}");
        assert_eq!(h.min_ns(), 1000);
        assert_eq!(h.max_ns(), 1_000_000);
        assert!((h.mean_ns() - 500_500.0).abs() < 1.0);
    }

    #[test]
    fn merge_is_equivalent_to_recording_everything_in_one() {
        let mut all = LatencyHistogram::new();
        let mut parts: Vec<LatencyHistogram> = (0..4).map(|_| LatencyHistogram::new()).collect();
        for i in 0..10_000u64 {
            let ns = i * 37 + 11;
            all.record(ns);
            parts[(i % 4) as usize].record(ns);
        }
        // Merge in two different orders; both must equal the monolith.
        let mut fwd = LatencyHistogram::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = LatencyHistogram::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        for h in [&fwd, &rev] {
            assert_eq!(h.count(), all.count());
            assert_eq!(h.p50_ns(), all.p50_ns());
            assert_eq!(h.p99_ns(), all.p99_ns());
            assert_eq!(h.min_ns(), all.min_ns());
            assert_eq!(h.max_ns(), all.max_ns());
        }
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.mean_ns(), 0.0);
    }

    #[test]
    fn digest_is_order_and_value_sensitive() {
        assert_eq!(prediction_digest(&[1, 2, 3]), prediction_digest(&[1, 2, 3]));
        assert_ne!(prediction_digest(&[1, 2, 3]), prediction_digest(&[3, 2, 1]));
        assert_ne!(prediction_digest(&[1, 2, 3]), prediction_digest(&[1, 2, 4]));
        assert_ne!(prediction_digest(&[]), prediction_digest(&[0]));
    }
}
