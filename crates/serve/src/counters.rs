//! Service observability: hit/miss/overload counters and a profiling
//! latency histogram, exportable as a JSON report via
//! [`annolight_support::json`].
//!
//! The counters are lock-free (relaxed atomics): they sit on the serve
//! hot path and must never serialise concurrent callers. Exactness still
//! holds — every increment is unconditional, so with one calling thread
//! the report matches the observed hit/miss sequence bit-for-bit
//! (an acceptance test of this crate).

use annolight_support::rng::SmallRng;
use annolight_support::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two latency buckets: bucket `i` counts samples in
/// `[2^(i-1), 2^i)` µs (bucket 0 is `< 1 µs`), and the last bucket is
/// open-ended.
pub const LATENCY_BUCKETS: usize = 22;

/// Bounded sample store behind [`LatencyHistogram`]'s exact-quantile
/// mode: the first `cap` samples are kept verbatim; past saturation the
/// store degrades to Vitter's algorithm R (uniform reservoir sampling)
/// with a seeded [`SmallRng`], so the kept set stays an unbiased —
/// and, given one record order, fully deterministic — sample of the
/// whole stream.
#[derive(Debug)]
struct Reservoir {
    cap: usize,
    /// Samples offered so far (may exceed `samples.len()`).
    seen: u64,
    samples: Vec<u64>,
    rng: SmallRng,
}

/// A log₂-bucketed latency histogram over microseconds.
///
/// Log₂ buckets are perfect for the lock-free hot path but cannot
/// report a tail quantile more precisely than "somewhere in a 2×-wide
/// bucket". Harnesses that must state p999 honestly (the SLO tier)
/// construct the histogram with [`LatencyHistogram::with_exact_samples`],
/// which additionally retains a bounded reservoir of raw samples and
/// makes [`LatencyHistogram::quantile_us`] exact while the reservoir is
/// unsaturated.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    total_us: AtomicU64,
    max_us: AtomicU64,
    reservoir: Option<Mutex<Reservoir>>,
}

impl LatencyHistogram {
    /// Fresh, empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A histogram that additionally retains up to `cap` raw samples so
    /// quantiles are exact (not bucket-resolution) until the stream
    /// exceeds `cap`, after which the retained set is an unbiased
    /// seeded reservoir. `cap == 0` is the plain bucket-only mode.
    #[must_use]
    pub fn with_exact_samples(cap: usize) -> Self {
        let reservoir = (cap > 0).then(|| {
            Mutex::new(Reservoir {
                cap,
                seen: 0,
                samples: Vec::new(),
                // Fixed seed: sampling decisions are a pure function of
                // the record order, which the deterministic replay tier
                // already pins.
                rng: SmallRng::seed_from_u64(0x5A10_BEEF_0CA5_CADE),
            })
        });
        Self { reservoir, ..Self::default() }
    }

    /// Records one duration.
    pub fn record(&self, duration: std::time::Duration) {
        let us = u64::try_from(duration.as_micros()).unwrap_or(u64::MAX);
        let bucket = (64 - us.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
        if let Some(res) = &self.reservoir {
            let mut res = res.lock();
            res.seen += 1;
            if res.samples.len() < res.cap {
                res.samples.push(us);
            } else {
                // Algorithm R: keep with probability cap/seen.
                let bound = res.seen;
                let j = res.rng.below(bound) as usize;
                if j < res.cap {
                    res.samples[j] = us;
                }
            }
        }
    }

    /// Whether this histogram retains exact samples (and if so, whether
    /// the reservoir has overflowed into sampling mode).
    #[must_use]
    pub fn exactness(&self) -> Exactness {
        match &self.reservoir {
            None => Exactness::BucketsOnly,
            Some(res) => {
                let res = res.lock();
                if res.seen <= res.cap as u64 {
                    Exactness::Exact
                } else {
                    Exactness::Sampled
                }
            }
        }
    }

    /// The quantile `q ∈ [0, 1]` of recorded latencies, microseconds.
    ///
    /// With exact samples retained this is the nearest-rank quantile of
    /// the sample set (exact for the whole stream while the reservoir is
    /// unsaturated, an unbiased estimate after). Without, it falls back
    /// to the log₂ buckets and returns the upper bound of the bucket the
    /// quantile lands in — coarse but never an under-estimate beyond
    /// the recorded maximum. Returns 0 on an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if let Some(res) = &self.reservoir {
            let res = res.lock();
            if !res.samples.is_empty() {
                let mut sorted = res.samples.clone();
                sorted.sort_unstable();
                return sorted[nearest_rank_index(q, sorted.len())];
            }
        }
        let n = self.count();
        if n == 0 {
            return 0;
        }
        // Bucket fallback: find the bucket holding the nearest-rank
        // sample and report its upper bound, clamped to the true max.
        let rank = (nearest_rank_index(q, n as usize) + 1) as u64;
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                let upper = 1u64 << i;
                return upper.min(self.max_us());
            }
        }
        self.max_us()
    }

    /// The retained exact/reservoir samples, sorted ascending (`None`
    /// in bucket-only mode).
    #[must_use]
    pub fn exact_samples(&self) -> Option<Vec<u64>> {
        self.reservoir.as_ref().map(|res| {
            let mut s = res.lock().samples.clone();
            s.sort_unstable();
            s
        })
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Snapshot of the histogram for reporting.
    #[must_use]
    pub fn snapshot(&self) -> (Vec<u64>, Vec<u64>) {
        let uppers = (0..LATENCY_BUCKETS as u32).map(|i| 1u64 << i).collect();
        let counts = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        (uppers, counts)
    }

    /// Mean latency in microseconds (0 when empty).
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.total_us.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Maximum recorded latency in microseconds.
    #[must_use]
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }
}

/// How trustworthy [`LatencyHistogram::quantile_us`] currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exactness {
    /// No sample store: quantiles come from log₂ buckets (upper bounds).
    BucketsOnly,
    /// Every recorded sample is retained: quantiles are exact.
    Exact,
    /// The reservoir saturated: quantiles are unbiased estimates over a
    /// uniform sample of the stream.
    Sampled,
}

/// Nearest-rank index into a sorted sample set of length `n ≥ 1`:
/// `max(1, ceil(q·n)) - 1`. p50 of 1..=1000 is 500, p99 is 990, p999
/// is 999 — the convention the golden-value tests pin.
fn nearest_rank_index(q: f64, n: usize) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// The service's live counters.
#[derive(Debug, Default)]
pub struct Counters {
    /// Requests answered from the annotation cache.
    pub hits: AtomicU64,
    /// Requests that had to compute a fresh track.
    pub misses: AtomicU64,
    /// Requests rejected with `ServeError::Overloaded`.
    pub overloaded: AtomicU64,
    /// Requests fully completed (hit or computed).
    pub completed: AtomicU64,
    /// Luminance profiles actually computed (single-flight: at most one
    /// per content digest, however many keys request the clip).
    pub clip_profiles: AtomicU64,
    /// Cold profile+annotate latency distribution.
    pub profile_latency: LatencyHistogram,
}

impl Counters {
    /// Fresh, zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Relaxed-increment helper.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Relaxed read helper.
    #[must_use]
    pub fn read(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// A point-in-time, serialisable service report. Build one with
/// [`crate::AnnotationService::report`]; serialise with
/// [`CountersReport::to_json_string`].
#[derive(Debug, Clone, PartialEq)]
pub struct CountersReport {
    /// Requests answered from cache.
    pub hits: u64,
    /// Requests that computed a fresh track.
    pub misses: u64,
    /// Requests rejected at admission.
    pub overloaded: u64,
    /// Requests completed (hits + misses that finished).
    pub completed: u64,
    /// Requests sitting in tenant queues right now.
    pub queue_depth: usize,
    /// Cache evictions since construction.
    pub evictions: u64,
    /// Tracks resident in the cache.
    pub resident_entries: usize,
    /// Bytes resident in the cache.
    pub resident_bytes: usize,
    /// Cold profiles measured.
    pub profile_count: u64,
    /// Luminance profiles computed (≤ distinct clips ever requested,
    /// thanks to the single-flight memo).
    pub clip_profiles: u64,
    /// Mean cold-profile latency, µs.
    pub profile_latency_mean_us: f64,
    /// Max cold-profile latency, µs.
    pub profile_latency_max_us: u64,
    /// Upper bound (µs) of each latency bucket, ascending powers of two.
    pub latency_bucket_upper_us: Vec<u64>,
    /// Sample count per latency bucket.
    pub latency_bucket_counts: Vec<u64>,
}

annolight_support::impl_json!(struct CountersReport {
    hits, misses, overloaded, completed, queue_depth, evictions,
    resident_entries, resident_bytes, profile_count, clip_profiles,
    profile_latency_mean_us, profile_latency_max_us,
    latency_bucket_upper_us, latency_bucket_counts
});

impl CountersReport {
    /// The report as pretty-printed JSON.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        annolight_support::json::to_string_pretty(self)
    }

    /// Parses a report back from JSON (round-trip tooling).
    ///
    /// # Errors
    ///
    /// Returns the JSON error message for malformed input.
    pub fn from_json_string(json: &str) -> Result<Self, String> {
        annolight_support::json::from_str(json).map_err(|e| e.to_string())
    }

    /// Cache hit rate in `[0, 1]` (0 when nothing completed).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn histogram_buckets_by_log2_microseconds() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(0)); // bucket 0
        h.record(Duration::from_micros(1)); // bucket 1: [1, 2)
        h.record(Duration::from_micros(3)); // bucket 2: [2, 4)
        h.record(Duration::from_micros(1000)); // bucket 10: [512, 1024)
        let (uppers, counts) = h.snapshot();
        assert_eq!(uppers[0], 1);
        assert_eq!(uppers[1], 2);
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[2], 1);
        assert_eq!(counts[10], 1);
        assert_eq!(h.count(), 4);
        assert_eq!(h.max_us(), 1000);
        assert!((h.mean_us() - 251.0).abs() < 1e-9);
    }

    #[test]
    fn exact_quantiles_golden_values_on_known_distributions() {
        // Uniform 1..=1000 µs, recorded in a scrambled (but fixed) order:
        // nearest-rank p50/p99/p999 are exactly 500/990/999.
        let h = LatencyHistogram::with_exact_samples(2048);
        for i in 0..1000u64 {
            let v = (i * 7919) % 1000 + 1; // 7919 coprime to 1000: a permutation
            h.record(Duration::from_micros(v));
        }
        assert_eq!(h.exactness(), Exactness::Exact);
        assert_eq!(h.quantile_us(0.5), 500);
        assert_eq!(h.quantile_us(0.99), 990);
        assert_eq!(h.quantile_us(0.999), 999);
        assert_eq!(h.quantile_us(0.0), 1);
        assert_eq!(h.quantile_us(1.0), 1000);

        // Two-point distribution: 990 fast samples at 10 µs, 10 slow at
        // 9000 µs. p50/p99 sit in the fast mass, p999 must surface the
        // slow tail — the case log₂ buckets alone get wrong.
        let h = LatencyHistogram::with_exact_samples(2048);
        for _ in 0..990 {
            h.record(Duration::from_micros(10));
        }
        for _ in 0..10 {
            h.record(Duration::from_micros(9000));
        }
        assert_eq!(h.quantile_us(0.5), 10);
        assert_eq!(h.quantile_us(0.99), 10);
        assert_eq!(h.quantile_us(0.999), 9000);

        // Bucket-only mode on the same two-point stream: p999 is only
        // locatable to its bucket's upper bound (clamped to the max).
        let coarse = LatencyHistogram::new();
        for _ in 0..990 {
            coarse.record(Duration::from_micros(10));
        }
        for _ in 0..10 {
            coarse.record(Duration::from_micros(9000));
        }
        assert_eq!(coarse.exactness(), Exactness::BucketsOnly);
        assert_eq!(coarse.quantile_us(0.5), 16, "bucket upper bound for 10 µs");
        assert_eq!(coarse.quantile_us(0.999), 9000, "upper bound clamps to true max");
    }

    #[test]
    fn saturated_reservoir_is_deterministic_and_bounded() {
        let run = || {
            let h = LatencyHistogram::with_exact_samples(64);
            for i in 0..10_000u64 {
                h.record(Duration::from_micros(i % 777));
            }
            (h.exactness(), h.exact_samples().unwrap())
        };
        let (ex_a, a) = run();
        let (_, b) = run();
        assert_eq!(ex_a, Exactness::Sampled);
        assert_eq!(a.len(), 64, "reservoir never exceeds its cap");
        assert_eq!(a, b, "same record order must keep the same sample set");
        // The estimate stays inside the recorded value range.
        let p99 = {
            let h = LatencyHistogram::with_exact_samples(64);
            for i in 0..10_000u64 {
                h.record(Duration::from_micros(i % 777));
            }
            h.quantile_us(0.99)
        };
        assert!(p99 <= 776);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        assert_eq!(LatencyHistogram::new().quantile_us(0.5), 0);
        assert_eq!(LatencyHistogram::with_exact_samples(8).quantile_us(0.999), 0);
    }

    #[test]
    fn histogram_clamps_huge_samples_into_last_bucket() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_secs(3600));
        let (_, counts) = h.snapshot();
        assert_eq!(counts[LATENCY_BUCKETS - 1], 1);
    }

    #[test]
    fn report_json_roundtrip() {
        let report = CountersReport {
            hits: 10,
            misses: 3,
            overloaded: 2,
            completed: 13,
            queue_depth: 0,
            evictions: 1,
            resident_entries: 3,
            resident_bytes: 4096,
            profile_count: 3,
            clip_profiles: 2,
            profile_latency_mean_us: 812.5,
            profile_latency_max_us: 2000,
            latency_bucket_upper_us: vec![1, 2, 4],
            latency_bucket_counts: vec![0, 1, 2],
        };
        let json = report.to_json_string();
        let back = CountersReport::from_json_string(&json).unwrap();
        assert_eq!(back, report);
        assert!((back.hit_rate() - 10.0 / 13.0).abs() < 1e-12);
    }
}
