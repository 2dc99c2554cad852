//! Lock-free log-bucketed latency/size histograms.
//!
//! A [`Histogram`] records `u64` samples into log-linear buckets: each
//! power of two is split into four sub-buckets, so the relative error of
//! any reported quantile is at most 25% while the whole table is a fixed
//! 252-slot array of relaxed atomics. Recording is one `fetch_add` per
//! sample (plus a `fetch_max` for the exact maximum) — no lock, no
//! allocation — so it is safe on the server's request path and inside
//! frame-scheduler workers.
//!
//! Quantiles ([`Histogram::quantile`]) return the inclusive upper bound
//! of the target bucket clamped to the exact recorded maximum,
//! guaranteeing `p50 ≤ p90 ≤ p99 ≤ max`.
//!
//! By convention the workspace records *microseconds* in histograms whose
//! names end in `_us` (see [`Histogram::record_duration`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sub-buckets per power of two (two bits of mantissa).
const SUBS: u64 = 4;
/// Bucket count: indices 0..4 are the exact values 0..4; every later
/// power of two contributes four sub-buckets up to the top of `u64`.
const NUM_BUCKETS: usize = ((63 - 1) * SUBS as usize) + SUBS as usize;

/// The bucket index a value lands in. Values below [`SUBS`] get exact
/// buckets; larger values index by (exponent, top-two-mantissa-bits).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUBS {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as u64; // >= 2 since v >= 4
    let sub = (v >> (exp - 2)) & (SUBS - 1);
    ((exp - 1) * SUBS + sub) as usize
}

/// The smallest value that lands in bucket `index`.
fn bucket_low(index: usize) -> u64 {
    let i = index as u64;
    if i < SUBS {
        return i;
    }
    let exp = i / SUBS + 1;
    let sub = i % SUBS;
    (1u64 << exp) | (sub << (exp - 2))
}

/// The largest value that lands in bucket `index` (inclusive).
fn bucket_high(index: usize) -> u64 {
    if index + 1 >= NUM_BUCKETS {
        u64::MAX
    } else {
        bucket_low(index + 1) - 1
    }
}

#[derive(Debug)]
struct Inner {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A lock-free log-bucketed histogram. Cloning shares the buckets, like
/// [`crate::Counter`]; register named instances via
/// [`crate::Registry::histogram`].
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<Inner>);

impl Histogram {
    /// A detached histogram not registered anywhere.
    pub fn detached() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let inner = &*self.0;
        inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
        inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in microseconds (the workspace convention for
    /// `*_us` histograms; saturates past `u64::MAX` microseconds).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples (wrapping on overflow, like counters).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// The exact largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// The estimated `q`-quantile (`q` clamped to `[0, 1]`): the upper
    /// bound of the bucket holding the target rank, clamped to the exact
    /// maximum. At most 25% above the true value; monotone in `q`; 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based: ceil(q * count), at least 1.
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_high(i).min(self.max());
            }
        }
        // Racy concurrent recording can leave count ahead of the bucket
        // sum for a moment; the max is the safe answer.
        self.max()
    }

    /// Nonzero buckets as `(lower_bound, count)` pairs, in value order —
    /// for tests and debugging dumps.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_low(i), n))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_and_contiguous() {
        // Small values get exact buckets.
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize, "value {v}");
            assert_eq!(bucket_low(bucket_index(v)), v);
        }
        // Every value lies within its bucket's [low, high] range, and the
        // index is monotone across boundaries.
        let probes = [
            8u64,
            9,
            15,
            16,
            17,
            31,
            32,
            1000,
            1023,
            1024,
            1025,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut last = 0usize;
        for &v in &probes {
            let i = bucket_index(v);
            assert!(bucket_low(i) <= v, "low({i}) <= {v}");
            assert!(v <= bucket_high(i), "{v} <= high({i})");
            assert!(i >= last, "indices monotone at {v}");
            last = i;
        }
        // Buckets tile the line: high(i) + 1 == low(i + 1).
        for i in 0..NUM_BUCKETS - 1 {
            assert_eq!(bucket_high(i) + 1, bucket_low(i + 1), "bucket {i}");
        }
        assert_eq!(bucket_high(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn single_value_quantiles_are_exact() {
        let h = Histogram::detached();
        h.record(777);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 777);
        assert_eq!(h.max(), 777);
        // The bucket bound is clamped to the exact max.
        assert_eq!(h.quantile(0.5), 777);
        assert_eq!(h.quantile(1.0), 777);
    }

    #[test]
    fn quantile_error_is_bounded() {
        let h = Histogram::detached();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for &(q, truth) in &[(0.5, 5_000u64), (0.9, 9_000), (0.99, 9_900)] {
            let est = h.quantile(q);
            assert!(est >= truth, "q{q}: {est} >= {truth}");
            assert!(
                est <= truth + truth / 4 + 1,
                "q{q}: {est} within 25% above {truth}"
            );
        }
        assert_eq!(h.quantile(1.0), 10_000);
    }

    #[test]
    fn concurrent_recording_sums_exactly() {
        let h = Histogram::detached();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        // Sum of 0..4000.
        assert_eq!(h.sum(), 3999 * 4000 / 2);
        assert_eq!(h.max(), 3999);
        let bucketed: u64 = h.nonzero_buckets().iter().map(|&(_, n)| n).sum();
        assert_eq!(bucketed, 4000, "no sample lost to a bucket race");
    }

    #[test]
    fn merge_preserves_saturated_max_bucket() {
        // Two samples at the top of the range share one bucket.
        let a = Histogram::detached();
        a.record(u64::MAX);
        a.record(u64::MAX - 1);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), u64::MAX);
        // Both samples land in the top bucket; the quantile clamps to the
        // exact max instead of overflowing past it.
        assert_eq!(a.quantile(1.0), u64::MAX);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        let top: u64 = a.nonzero_buckets().iter().map(|&(_, n)| n).sum();
        assert_eq!(top, 2, "no sample lost at the saturated end of the range");
        // Sum wraps (documented counter-like behavior) but must match the
        // wrapping sum of the inputs, not drift.
        assert_eq!(a.sum(), u64::MAX.wrapping_add(u64::MAX - 1));
    }

    #[test]
    fn quantiles_are_monotone_over_seeded_random_input() {
        // Hand-rolled LCG (no external deps, deterministic).
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 17
        };
        let h = Histogram::detached();
        for _ in 0..10_000 {
            h.record(next() % 1_000_000);
        }
        let (p50, p90, p99, max) = (h.quantile(0.5), h.quantile(0.9), h.quantile(0.99), h.max());
        assert!(p50 <= p90, "{p50} <= {p90}");
        assert!(p90 <= p99, "{p90} <= {p99}");
        assert!(p99 <= max, "{p99} <= {max}");
        assert!(p50 > 0);
    }

    #[test]
    fn record_duration_uses_microseconds() {
        let h = Histogram::detached();
        h.record_duration(Duration::from_millis(3));
        assert_eq!(h.sum(), 3_000);
        assert_eq!(h.max(), 3_000);
    }
}
