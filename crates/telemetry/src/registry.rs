//! Instrument storage: the registry and the counter / gauge / histogram
//! handle types.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Relaxed ordering everywhere: instruments are statistics, not
/// synchronization. Exactness still holds — `fetch_add` is atomic at any
/// ordering — only cross-instrument observation order is unspecified.
const ORD: Ordering = Ordering::Relaxed;

struct CounterInner {
    enabled: Arc<AtomicBool>,
    value: AtomicU64,
}

/// A monotonically increasing count (samples processed, solves run…).
///
/// Cloning is cheap (an `Arc` bump); all clones address the same value.
#[derive(Clone)]
pub struct Counter(Arc<CounterInner>);

impl Counter {
    /// Adds 1 if the owning registry is enabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` if the owning registry is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.0.enabled.load(ORD) {
            self.0.value.fetch_add(n, ORD);
        }
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.value.load(ORD)
    }
}

struct GaugeInner {
    enabled: Arc<AtomicBool>,
    bits: AtomicU64,
}

/// A last-write-wins instantaneous value (throughput, queue depth…),
/// stored as `f64` bits.
#[derive(Clone)]
pub struct Gauge(Arc<GaugeInner>);

impl Gauge {
    /// Sets the value if the owning registry is enabled.
    #[inline]
    pub fn set(&self, v: f64) {
        if self.0.enabled.load(ORD) {
            self.0.bits.store(v.to_bits(), ORD);
        }
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.0.bits.load(ORD))
    }
}

struct HistogramInner {
    enabled: Arc<AtomicBool>,
    /// Finite, strictly increasing bucket upper bounds; observations land
    /// in the first bucket with `v <= bound`, or the trailing +Inf bucket.
    bounds: Vec<f64>,
    /// `bounds.len() + 1` per-bucket (non-cumulative) counts.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Σ of observed values, as `f64` bits updated by CAS.
    sum_bits: AtomicU64,
}

/// A fixed-bucket distribution (latencies, solver residuals…).
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Records one observation if the owning registry is enabled.
    pub fn observe(&self, v: f64) {
        if self.0.enabled.load(ORD) {
            self.record(v);
        }
    }

    /// The actual recording, without the enabled gate — used by `observe`
    /// and by [`Span`], whose gate was sampled at span creation.
    fn record(&self, v: f64) {
        let inner = &self.0;
        let idx = inner.bounds.partition_point(|&b| b < v);
        inner.buckets[idx].fetch_add(1, ORD);
        inner.count.fetch_add(1, ORD);
        let mut cur = inner.sum_bits.load(ORD);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match inner.sum_bits.compare_exchange_weak(cur, next, ORD, ORD) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Starts a wall-clock span that records its elapsed seconds into this
    /// histogram when dropped. If the owning registry is disabled *at
    /// creation*, the span is inert: no clock read, nothing recorded.
    #[inline]
    pub fn span(&self) -> Span {
        Span {
            live: if self.0.enabled.load(ORD) {
                Some((self.clone(), Instant::now()))
            } else {
                None
            },
        }
    }

    /// Times `f`, recording its wall-clock duration.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let _span = self.span();
        f()
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(ORD)
    }

    /// Sum of observations so far.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(ORD))
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.0.bounds.clone(),
            buckets: self.0.buckets.iter().map(|b| b.load(ORD)).collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// RAII guard from [`Histogram::span`]; records elapsed seconds on drop.
#[must_use = "a span records on drop — binding it to `_` drops it immediately"]
pub struct Span {
    live: Option<(Histogram, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((hist, start)) = self.live.take() {
            // The enabled flag was sampled when the span started; a toggle
            // mid-span must not lose an in-flight measurement.
            hist.record(start.elapsed().as_secs_f64());
        }
    }
}

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// The value part of one instrument snapshot.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// Frozen histogram state.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; one more entry than `bounds` (the +Inf bucket).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
}

/// One instrument's name and frozen value.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSnapshot {
    /// Registered name (`metaai.<crate>.<stage>.<what>`).
    pub name: String,
    /// Value at snapshot time.
    pub value: MetricValue,
}

/// A thread-safe, name-keyed instrument registry.
///
/// Registration (`counter` / `gauge` / `histogram`) takes a lock; the
/// returned handles never do. Registering a name twice returns a handle to
/// the existing instrument (and panics if the kinds differ — one name, one
/// meaning). Starts **disabled**: instruments silently drop updates until
/// [`set_enabled`](Self::set_enabled)`(true)`.
pub struct Registry {
    enabled: Arc<AtomicBool>,
    instruments: Mutex<BTreeMap<String, Instrument>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty, disabled registry.
    pub fn new() -> Self {
        Registry {
            enabled: Arc::new(AtomicBool::new(false)),
            instruments: Mutex::new(BTreeMap::new()),
        }
    }

    /// Turns recording on or off for every instrument of this registry.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, ORD);
    }

    /// Whether instruments of this registry currently record.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(ORD)
    }

    /// Gets or registers a counter.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.instruments.lock().expect("registry poisoned");
        match map.entry(name.to_string()).or_insert_with(|| {
            Instrument::Counter(Counter(Arc::new(CounterInner {
                enabled: Arc::clone(&self.enabled),
                value: AtomicU64::new(0),
            })))
        }) {
            Instrument::Counter(c) => c.clone(),
            other => panic!("{name:?} already registered as a {}", other.kind()),
        }
    }

    /// Gets or registers a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.instruments.lock().expect("registry poisoned");
        match map.entry(name.to_string()).or_insert_with(|| {
            Instrument::Gauge(Gauge(Arc::new(GaugeInner {
                enabled: Arc::clone(&self.enabled),
                bits: AtomicU64::new(0f64.to_bits()),
            })))
        }) {
            Instrument::Gauge(g) => g.clone(),
            other => panic!("{name:?} already registered as a {}", other.kind()),
        }
    }

    /// Gets or registers a histogram with the given finite, strictly
    /// increasing bucket upper bounds (a trailing +Inf bucket is implicit).
    /// If `name` already exists its original bounds are kept.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "a histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly increasing: {bounds:?}"
        );
        let mut map = self.instruments.lock().expect("registry poisoned");
        match map.entry(name.to_string()).or_insert_with(|| {
            Instrument::Histogram(Histogram(Arc::new(HistogramInner {
                enabled: Arc::clone(&self.enabled),
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            })))
        }) {
            Instrument::Histogram(h) => h.clone(),
            other => panic!("{name:?} already registered as a {}", other.kind()),
        }
    }

    /// Gets or registers a latency histogram over
    /// [`DEFAULT_LATENCY_BOUNDS`](crate::DEFAULT_LATENCY_BOUNDS) (seconds).
    pub fn latency_histogram(&self, name: &str) -> Histogram {
        self.histogram(name, &crate::DEFAULT_LATENCY_BOUNDS)
    }

    /// Zeroes every instrument's value. Instruments (and outstanding
    /// handles) stay registered and valid — only the recorded state resets.
    pub fn reset(&self) {
        let map = self.instruments.lock().expect("registry poisoned");
        for inst in map.values() {
            match inst {
                Instrument::Counter(c) => c.0.value.store(0, ORD),
                Instrument::Gauge(g) => g.0.bits.store(0f64.to_bits(), ORD),
                Instrument::Histogram(h) => {
                    for b in &h.0.buckets {
                        b.store(0, ORD);
                    }
                    h.0.count.store(0, ORD);
                    h.0.sum_bits.store(0f64.to_bits(), ORD);
                }
            }
        }
    }

    /// Freezes every instrument, sorted by name.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let map = self.instruments.lock().expect("registry poisoned");
        map.iter()
            .map(|(name, inst)| MetricSnapshot {
                name: name.clone(),
                value: match inst {
                    Instrument::Counter(c) => MetricValue::Counter(c.value()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.value()),
                    Instrument::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count_when_enabled_only() {
        let r = Registry::new();
        let c = r.counter("metaai.test.events");
        c.inc();
        assert_eq!(c.value(), 0, "disabled registry must drop updates");
        r.set_enabled(true);
        c.inc();
        c.add(4);
        assert_eq!(c.value(), 5);
        r.set_enabled(false);
        c.add(100);
        assert_eq!(c.value(), 5);
    }

    #[test]
    fn handles_alias_one_instrument() {
        let r = Registry::new();
        r.set_enabled(true);
        let a = r.counter("metaai.test.shared");
        let b = r.counter("metaai.test.shared");
        a.inc();
        b.inc();
        assert_eq!(a.value(), 2);
        assert_eq!(b.value(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_collisions_panic() {
        let r = Registry::new();
        r.counter("metaai.test.name");
        r.gauge("metaai.test.name");
    }

    #[test]
    fn gauge_is_last_write_wins() {
        let r = Registry::new();
        r.set_enabled(true);
        let g = r.gauge("metaai.test.rate");
        g.set(1.5);
        g.set(-2.25);
        assert_eq!(g.value(), -2.25);
    }

    #[test]
    fn histogram_bucket_boundaries_are_le() {
        let r = Registry::new();
        r.set_enabled(true);
        let h = r.histogram("metaai.test.dist", &[1.0, 2.0, 5.0]);
        // Exactly on a bound lands in that bound's bucket (Prometheus `le`
        // semantics); strictly above moves to the next.
        for v in [0.5, 1.0, 1.0000001, 2.0, 5.0, 5.0000001, 1e9] {
            h.observe(v);
        }
        let snap = match &r.snapshot()[0].value {
            MetricValue::Histogram(h) => h.clone(),
            other => panic!("expected histogram, got {other:?}"),
        };
        assert_eq!(snap.bounds, vec![1.0, 2.0, 5.0]);
        assert_eq!(snap.buckets, vec![2, 2, 1, 2]);
        assert_eq!(snap.count, 7);
        let expected_sum = 0.5 + 1.0 + 1.0000001 + 2.0 + 5.0 + 5.0000001 + 1e9;
        assert!((snap.sum - expected_sum).abs() < 1e-6);
    }

    #[test]
    fn span_records_into_the_histogram() {
        let r = Registry::new();
        r.set_enabled(true);
        let h = r.latency_histogram("metaai.test.stage_seconds");
        for _ in 0..3 {
            let _span = h.span();
        }
        let v = h.time(|| 17);
        assert_eq!(v, 17);
        assert_eq!(h.count(), 4);
        assert!(h.sum() >= 0.0);
    }

    #[test]
    fn disabled_span_in_a_tight_loop_changes_nothing() {
        let r = Registry::new();
        let h = r.latency_histogram("metaai.test.noop_seconds");
        let c = r.counter("metaai.test.noop_events");
        for _ in 0..100_000 {
            let _span = h.span();
            c.inc();
        }
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn spans_created_enabled_record_even_if_disabled_before_drop() {
        // The enabled flag is sampled at span creation; a toggle mid-span
        // must not lose the measurement (the flag gates *new* work).
        let r = Registry::new();
        r.set_enabled(true);
        let h = r.latency_histogram("metaai.test.mid_toggle_seconds");
        let span = h.span();
        r.set_enabled(false);
        drop(span);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn reset_zeroes_but_keeps_instruments_and_handles() {
        let r = Registry::new();
        r.set_enabled(true);
        let c = r.counter("metaai.test.resettable");
        let h = r.histogram("metaai.test.resettable_dist", &[1.0]);
        c.add(9);
        h.observe(0.5);
        r.reset();
        assert_eq!(c.value(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        // Old handles still address the (zeroed) instrument.
        c.inc();
        assert_eq!(r.counter("metaai.test.resettable").value(), 1);
        assert_eq!(r.snapshot().len(), 2);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let r = Registry::new();
        r.counter("metaai.b");
        r.counter("metaai.a");
        r.gauge("metaai.c");
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["metaai.a", "metaai.b", "metaai.c"]);
    }

    #[test]
    fn counters_are_exact_under_thread_fanout() {
        let r = Registry::new();
        r.set_enabled(true);
        let c = r.counter("metaai.test.fanout");
        let h = r.histogram("metaai.test.fanout_dist", &[0.5]);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = c.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.observe((i % 2) as f64);
                    }
                });
            }
        });
        assert_eq!(c.value(), 80_000);
        assert_eq!(h.count(), 80_000);
        // 40k zeros and 40k ones: sum exact (integers), buckets exact.
        assert_eq!(h.sum(), 40_000.0);
        let snap = r.snapshot();
        let dist = snap
            .iter()
            .find(|m| m.name == "metaai.test.fanout_dist")
            .expect("registered");
        match &dist.value {
            MetricValue::Histogram(hs) => assert_eq!(hs.buckets, vec![40_000, 40_000]),
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
