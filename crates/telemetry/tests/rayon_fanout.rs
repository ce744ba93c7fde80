//! Counter exactness under the workspace's actual parallel substrate: the
//! engines mutate instruments from inside rayon workers, so the registry
//! must count exactly across that fan-out (no lost updates, no
//! double-counts).

use metaai_telemetry::Registry;
use rayon::prelude::*;

#[test]
fn counters_and_histograms_are_exact_under_rayon_fanout() {
    // Eight workers, whatever the core count: real cross-thread
    // contention even on a single-core host.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build()
        .expect("worker pool");

    let r = Registry::new();
    r.set_enabled(true);
    let samples = r.counter("metaai.test.samples");
    let chips = r.counter("metaai.test.chips");
    let latency = r.histogram("metaai.test.sample_seconds", &[0.5]);

    let n = 10_000usize;
    let out: Vec<usize> = pool.install(|| {
        assert_eq!(rayon::current_num_threads(), 8);
        (0..n)
            .into_par_iter()
            .map(|i| {
                samples.inc();
                chips.add(3);
                latency.observe((i % 2) as f64);
                i
            })
            .collect()
    });

    assert_eq!(out.len(), n);
    assert_eq!(samples.value(), n as u64);
    assert_eq!(chips.value(), 3 * n as u64);
    assert_eq!(latency.count(), n as u64);
    // Half the observations are exactly 1.0: the CAS sum is exact on
    // integers, and the 0.5-bound bucket splits them evenly.
    assert_eq!(latency.sum(), (n / 2) as f64);
}
