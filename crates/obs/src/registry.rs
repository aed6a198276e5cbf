//! The instrument registry: named counters, gauges and log-bucketed
//! latency histograms behind cheap, cloneable handles.
//!
//! Handles are resolved once (registering the name on first use) and
//! then held by the instrumented code; recording through a handle is an
//! atomic update with no lock and no lookup. A handle resolved from a
//! disabled [`crate::Obs`] carries no storage and records nothing — the
//! hot path pays exactly one predictable branch.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::snapshot::{HistogramSummary, ObsSnapshot};

/// A monotonically increasing counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// The no-op handle a disabled registry hands out.
    pub fn noop() -> Self {
        Counter(None)
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (`0` on a no-op handle).
    pub fn value(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A gauge handle: a signed instantaneous value (pipeline depth, live
/// connections, in-flight waves).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// The no-op handle a disabled registry hands out.
    pub fn noop() -> Self {
        Gauge(None)
    }

    /// Sets the gauge to `value`.
    #[inline]
    pub fn set(&self, value: i64) {
        if let Some(cell) = &self.0 {
            cell.store(value, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative) to the gauge.
    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value (`0` on a no-op handle).
    pub fn value(&self) -> i64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// Sub-bucket resolution of [`LogHistogram`]: 2³ = 8 sub-buckets per
/// power of two, bounding the relative quantile error at 1/16 ≈ 6.25%.
const SUB_BITS: u32 = 3;
/// Values below `2^(SUB_BITS + 1)` nanoseconds get one bucket each
/// (exact), everything above is log-bucketed.
const LINEAR_LIMIT: u64 = 1 << (SUB_BITS + 1);
/// Total bucket count: 16 exact buckets + 8 per octave for exponents
/// 4..=63.
const BUCKETS: usize = LINEAR_LIMIT as usize + (64 - (SUB_BITS + 1) as usize) * (1 << SUB_BITS);

/// A lock-free log-bucketed latency histogram over nanosecond-resolution
/// durations, with p50/p95/p99/max readout.
///
/// Values are recorded in seconds and stored as bucketed nanosecond
/// counts: exact below 16 ns, then 8 sub-buckets per power of two, so a
/// quantile estimate is within ~6.25% of the true value while the whole
/// histogram is a fixed 496-slot array of relaxed atomics — cheap enough
/// to live on the per-wave hot path.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Exact observed extrema (nanoseconds), so `quantile(1.0)` and the
    /// reported max are not bucket-rounded.
    min_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

/// Maps a nanosecond value to its bucket index.
fn bucket_index(nanos: u64) -> usize {
    if nanos < LINEAR_LIMIT {
        return nanos as usize;
    }
    let exp = 63 - nanos.leading_zeros();
    let sub = ((nanos >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
    LINEAR_LIMIT as usize + ((exp - (SUB_BITS + 1)) as usize) * (1 << SUB_BITS) + sub
}

/// The midpoint (nanoseconds) of the bucket at `index`, used as the
/// quantile representative.
fn bucket_midpoint(index: usize) -> f64 {
    if index < LINEAR_LIMIT as usize {
        return index as f64;
    }
    let over = index - LINEAR_LIMIT as usize;
    let exp = (over / (1 << SUB_BITS)) as u32 + SUB_BITS + 1;
    let sub = (over % (1 << SUB_BITS)) as u64;
    let width = 1u64 << (exp - SUB_BITS);
    let lower = (1u64 << exp) + sub * width;
    lower as f64 + width as f64 / 2.0
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            min_nanos: AtomicU64::new(u64::MAX),
            max_nanos: AtomicU64::new(0),
        }
    }

    /// Records one duration, in seconds. Negative and non-finite values
    /// clamp to zero.
    pub fn record_seconds(&self, seconds: f64) {
        let nanos = if seconds.is_finite() && seconds > 0.0 {
            (seconds * 1e9).round().min(u64::MAX as f64) as u64
        } else {
            0
        };
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.min_nanos.fetch_min(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The exact maximum recorded value, in seconds (`0.0` when empty).
    pub fn max_seconds(&self) -> f64 {
        if self.count() == 0 {
            return 0.0;
        }
        self.max_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// The `q`-quantile (`0.0..=1.0`) of the recorded values, in
    /// seconds: the midpoint of the bucket holding the rank-`⌈q·n⌉`
    /// value, clamped to the exact observed extrema. `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                let min = self.min_nanos.load(Ordering::Relaxed) as f64;
                let max = self.max_nanos.load(Ordering::Relaxed) as f64;
                return bucket_midpoint(index).clamp(min, max) / 1e9;
            }
        }
        self.max_seconds()
    }

    /// The snapshot row of this histogram.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max_seconds(),
        }
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

/// A histogram handle resolved from a registry (or a no-op shell).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<LogHistogram>>);

impl Histogram {
    /// The no-op handle a disabled registry hands out.
    pub fn noop() -> Self {
        Histogram(None)
    }

    /// Records one duration, in seconds.
    #[inline]
    pub fn record(&self, seconds: f64) {
        if let Some(histogram) = &self.0 {
            histogram.record_seconds(seconds);
        }
    }

    /// Number of recorded values (`0` on a no-op handle).
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |histogram| histogram.count())
    }
}

/// One registered instrument.
#[derive(Debug)]
enum Instrument {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<LogHistogram>),
}

/// The name → instrument table. `BTreeMap` keeps snapshots in a
/// deterministic lexicographic order, which the golden renderer tests
/// rely on.
#[derive(Debug, Default)]
pub struct Registry {
    instruments: Mutex<BTreeMap<String, Instrument>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Resolves the named counter, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different instrument
    /// kind — two call sites disagreeing about a name is a programming
    /// error worth failing loudly on.
    pub fn counter(&self, name: &str) -> Counter {
        self.resolve(
            name,
            || Instrument::Counter(Arc::default()),
            |instrument| match instrument {
                Instrument::Counter(cell) => Some(Counter(Some(cell.clone()))),
                _ => None,
            },
        )
    }

    /// Resolves the named gauge, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.resolve(
            name,
            || Instrument::Gauge(Arc::default()),
            |instrument| match instrument {
                Instrument::Gauge(cell) => Some(Gauge(Some(cell.clone()))),
                _ => None,
            },
        )
    }

    /// Resolves the named histogram, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.resolve(
            name,
            || Instrument::Histogram(Arc::default()),
            |instrument| match instrument {
                Instrument::Histogram(histogram) => Some(Histogram(Some(histogram.clone()))),
                _ => None,
            },
        )
    }

    /// Looks `name` up, registering `make()` under it on first use, and
    /// hands out `handle` of the instrument. Only a first registration
    /// allocates (the owned name and the instrument); resolving a name
    /// that already exists is a lookup and a reference-count bump.
    fn resolve<H>(
        &self,
        name: &str,
        make: impl FnOnce() -> Instrument,
        handle: impl FnOnce(&Instrument) -> Option<H>,
    ) -> H {
        let mut instruments = self.instruments.lock().expect("registry poisoned");
        if !instruments.contains_key(name) {
            instruments.insert(name.to_string(), make());
        }
        handle(&instruments[name])
            .unwrap_or_else(|| panic!("obs instrument {name:?} already registered as another kind"))
    }

    /// A point-in-time snapshot of every instrument, names sorted.
    pub fn snapshot(&self) -> ObsSnapshot {
        let instruments = self.instruments.lock().expect("registry poisoned");
        let mut snapshot = ObsSnapshot::default();
        for (name, instrument) in instruments.iter() {
            match instrument {
                Instrument::Counter(cell) => snapshot
                    .counters
                    .push((name.clone(), cell.load(Ordering::Relaxed))),
                Instrument::Gauge(cell) => snapshot
                    .gauges
                    .push((name.clone(), cell.load(Ordering::Relaxed))),
                Instrument::Histogram(histogram) => snapshot
                    .histograms
                    .push((name.clone(), histogram.summary())),
            }
        }
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut samples: Vec<u64> = (0..200).collect();
        for shift in 4..64 {
            for offset in [0u64, 1, 3, 7] {
                samples.push((1u64 << shift).saturating_add(offset << (shift - 3)));
            }
        }
        samples.push(u64::MAX);
        samples.sort_unstable();
        let mut last = 0usize;
        for v in samples {
            let index = bucket_index(v);
            assert!(index < BUCKETS, "index {index} out of range for {v}");
            assert!(index >= last, "bucket index must be monotone in the value");
            last = index;
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(15), 15);
        assert_eq!(
            bucket_index(16),
            16,
            "first log bucket follows the linear ones"
        );
    }

    #[test]
    fn midpoint_lies_inside_its_bucket() {
        for v in [1u64, 15, 16, 17, 100, 1_000, 123_456, 10_000_000_000] {
            let index = bucket_index(v);
            let mid = bucket_midpoint(index);
            // The midpoint must map back into the same bucket.
            assert_eq!(
                bucket_index(mid as u64),
                index,
                "midpoint {mid} escaped bucket {index} of value {v}"
            );
        }
    }

    #[test]
    fn quantiles_of_a_known_stream() {
        let h = LogHistogram::new();
        for i in 1..=100u64 {
            h.record_seconds(i as f64 * 1e-6); // 1..100 µs
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5);
        assert!(
            (p50 - 50e-6).abs() / 50e-6 < 0.07,
            "p50 {p50} too far from 50µs"
        );
        let p99 = h.quantile(0.99);
        assert!(
            (p99 - 99e-6).abs() / 99e-6 < 0.07,
            "p99 {p99} too far from 99µs"
        );
        assert_eq!(h.max_seconds(), 100e-6);
        assert_eq!(h.quantile(1.0), 100e-6, "q=1 reports the exact max");
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.max_seconds(), 0.0);
    }

    #[test]
    fn non_finite_and_negative_values_clamp_to_zero() {
        let h = LogHistogram::new();
        h.record_seconds(-1.0);
        h.record_seconds(f64::NAN);
        h.record_seconds(f64::INFINITY);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("x");
        registry.gauge("x");
    }

    #[test]
    fn snapshot_orders_names_lexicographically() {
        let registry = Registry::new();
        registry.counter("zeta");
        registry.counter("alpha");
        let names: Vec<String> = registry
            .snapshot()
            .counters
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(names, vec!["alpha".to_string(), "zeta".to_string()]);
    }

    /// Exact quantile of a sorted slice at the same rank definition the
    /// histogram uses (`rank = ⌈q·n⌉`, 1-based).
    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    proptest! {
        #[test]
        fn prop_quantiles_track_exact_sorted_quantiles(
            values in proptest::collection::vec(1e-9f64..10.0, 1..300),
            q in 0.0f64..1.0,
        ) {
            let h = LogHistogram::new();
            for &v in &values {
                h.record_seconds(v);
            }
            let mut sorted = values.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let exact = exact_quantile(&sorted, q);
            let estimate = h.quantile(q);
            // Log-bucketed estimate: within one bucket width (1/8
            // relative) of the exact value — half a width for the
            // midpoint, plus slack for nanosecond rounding landing a
            // value in the neighbouring bucket.
            let tolerance = exact * (1.0 / 8.0) + 2e-9;
            prop_assert!(
                (estimate - exact).abs() <= tolerance,
                "quantile {} estimate {} vs exact {} (tolerance {})",
                q, estimate, exact, tolerance
            );
        }

        #[test]
        fn prop_count_and_extrema_are_exact(
            values in proptest::collection::vec(1e-9f64..1.0, 1..200),
        ) {
            let h = LogHistogram::new();
            for &v in &values {
                h.record_seconds(v);
            }
            prop_assert_eq!(h.count(), values.len() as u64);
            let max = values.iter().cloned().fold(0.0f64, f64::max);
            // The max is stored in nanoseconds, so it is exact to 1 ns.
            prop_assert!((h.max_seconds() - max).abs() < 1e-9);
        }
    }
}
