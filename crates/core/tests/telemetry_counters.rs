//! Pinned operation counts: the engine's chip/sample/draw totals, the
//! solver's sweeps and solves per deployment path, and the heap
//! allocations of one served request.
//!
//! The chip/sample/draw counters are derived from the engine's documented
//! accounting (`chips = rows × draws-per-row`, one aggregated AWGN draw
//! per output row, per-chip draws only in trace mode), so these tests pin
//! the *model*: if an engine change alters how much physical work one
//! sample represents, the expected constants here must be re-derived, not
//! merely re-recorded.
//!
//! The sweep, solve and allocation pins are recorded counts. None of them
//! depends on the host or on the rayon thread count, so they gate what a
//! wall clock cannot: one extra descent sweep per solve, or one extra
//! allocation per request, fails here on any machine.
//!
//! All tests share the process-global registry, so they serialize on one
//! mutex and reset the instruments while holding it.

use metaai::config::SystemConfig;
use metaai::engine::OtaEngine;
use metaai::mapper::WeightMapper;
use metaai::ota::OtaConditions;
use metaai::pipeline::MetaAiSystem;
use metaai_math::rng::SimRng;
use metaai_math::{CMat, CVec, C64};
use metaai_mts::array::{MtsArray, Prototype};
use metaai_mts::solver::SolverScratch;
use metaai_nn::complex_lnn::ComplexLnn;
use metaai_sim::{StackGeometry, StackSolver, StackSpec, StackWeights};
use metaai_telemetry::{MetricValue, Registry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The system allocator, counting allocations (and reallocations) made
/// by each thread, so a measurement on one thread ignores every other.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a const-initialized thread-local, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes on the calling thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const ROWS: usize = 4; // output classes = channel rows
const U: usize = 6; // symbols per sample
const N: usize = 10; // samples per batch
const SLOTS: usize = 2; // metaai_phy::shaping::SLOTS_PER_SYMBOL

/// Locks the global registry for one test: instruments registered,
/// telemetry enabled, all values reset.
fn lock_registry() -> (MutexGuard<'static, ()>, &'static Registry) {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    let registry = metaai::telemetry::install();
    registry.set_enabled(true);
    registry.reset();
    (guard, registry)
}

fn counter(registry: &Registry, name: &str) -> u64 {
    for m in registry.snapshot() {
        if m.name == name {
            match m.value {
                MetricValue::Counter(v) => return v,
                other => panic!("{name} is not a counter: {other:?}"),
            }
        }
    }
    panic!("{name} not registered");
}

fn histogram_count(registry: &Registry, name: &str) -> u64 {
    for m in registry.snapshot() {
        if m.name == name {
            match m.value {
                MetricValue::Histogram(h) => return h.count,
                other => panic!("{name} is not a histogram: {other:?}"),
            }
        }
    }
    panic!("{name} not registered");
}

fn engine_and_inputs() -> (CMat, Vec<CVec>) {
    let mut rng = SimRng::seed_from_u64(17);
    let h = CMat::from_fn(ROWS, U, |_, _| rng.complex_gaussian(1.0));
    let inputs = (0..N)
        .map(|_| CVec::from_fn(U, |_| rng.complex_gaussian(1.0)))
        .collect();
    (h, inputs)
}

#[test]
fn noiseless_batch_counters_match_the_chip_accounting() {
    let (guard, registry) = lock_registry();
    let (h, inputs) = engine_and_inputs();
    let engine = OtaEngine::new(&h);

    let predictions = engine.batch_predict_with(&inputs, 5, 0, |_| OtaConditions::ideal(U));
    assert_eq!(predictions.len(), N);

    assert_eq!(counter(registry, "metaai.core.engine.batches"), 1);
    assert_eq!(counter(registry, "metaai.core.engine.samples"), N as u64);
    // Cancellation on: each of the ROWS accumulations covers U symbols
    // at SLOTS chips each.
    assert_eq!(
        counter(registry, "metaai.core.engine.chips"),
        (N * ROWS * U * SLOTS) as u64
    );
    // Ideal conditions are noiseless — no AWGN draws at all.
    assert_eq!(counter(registry, "metaai.core.engine.awgn_draws"), 0);
    assert_eq!(counter(registry, "metaai.core.engine.traces"), 0);
    assert_eq!(
        histogram_count(registry, "metaai.core.engine.sample_seconds"),
        N as u64
    );
    drop(guard);
}

#[test]
fn noisy_scoring_draws_one_aggregate_per_row() {
    let (guard, registry) = lock_registry();
    let (h, inputs) = engine_and_inputs();
    let engine = OtaEngine::new(&h);

    let mut noisy = OtaConditions::ideal(U);
    noisy.awgn.variance = 0.05;
    let mut rng = SimRng::seed_from_u64(23);
    let _scores = engine.scores(&inputs[0], &noisy, &mut rng);

    assert_eq!(counter(registry, "metaai.core.engine.samples"), 1);
    // The scoring kernel aggregates each row's chip noise into a single
    // row-level draw.
    assert_eq!(
        counter(registry, "metaai.core.engine.awgn_draws"),
        ROWS as u64
    );
    drop(guard);
}

#[test]
fn trace_mode_draws_noise_per_chip() {
    let (guard, registry) = lock_registry();
    let (h, inputs) = engine_and_inputs();
    let engine = OtaEngine::new(&h);

    let mut noisy = OtaConditions::ideal(U);
    noisy.awgn.variance = 0.05;
    let mut rng = SimRng::seed_from_u64(29);
    let _outcome = engine.traced(&inputs[0], &noisy, &mut rng);

    let chips = (ROWS * U * SLOTS) as u64;
    assert_eq!(counter(registry, "metaai.core.engine.traces"), 1);
    assert_eq!(counter(registry, "metaai.core.engine.samples"), 1);
    assert_eq!(counter(registry, "metaai.core.engine.chips"), chips);
    // Trace mode resolves noise chip by chip, not per row.
    assert_eq!(counter(registry, "metaai.core.engine.awgn_draws"), chips);
    drop(guard);
}

#[test]
fn disabled_telemetry_records_nothing() {
    let (guard, registry) = lock_registry();
    registry.set_enabled(false);
    let (h, inputs) = engine_and_inputs();
    let engine = OtaEngine::new(&h);

    let predictions = engine.batch_predict_with(&inputs, 5, 0, |_| OtaConditions::ideal(U));
    assert_eq!(predictions.len(), N);

    registry.set_enabled(true); // snapshots are unaffected by the flag
    for name in [
        "metaai.core.engine.batches",
        "metaai.core.engine.samples",
        "metaai.core.engine.chips",
        "metaai.core.engine.awgn_draws",
    ] {
        assert_eq!(counter(registry, name), 0, "{name} must stay zero");
    }
    assert_eq!(
        histogram_count(registry, "metaai.core.engine.sample_seconds"),
        0
    );
    drop(guard);
}

fn random_weights(r: usize, u: usize, seed: u64) -> CMat {
    let mut rng = SimRng::seed_from_u64(seed);
    CMat::from_fn(r, u, |_, _| rng.complex_gaussian(1.0))
}

/// `(sweeps, solves)` on the solver counters since the last reset.
fn solver_work(registry: &Registry) -> (u64, u64) {
    (
        counter(registry, "metaai.mts.solver.sweeps"),
        counter(registry, "metaai.mts.solver.solves"),
    )
}

const MAP_ROWS: usize = 4;
const MAP_COLS: usize = 24;
/// Recorded descent sweeps of the cold 4 × 24 map (~2.2 per solve).
const COLD_SWEEPS: u64 = 210;
/// Recorded sweeps of the warm remap after the receiver moves 40° → 43°.
const WARM_SWEEPS: u64 = 195;
/// Recorded sweeps and solves of the 2-layer, 2 × 128-atom stack solve
/// (one single-target solve per layer per weight).
const STACK_SWEEPS: u64 = 418;
const STACK_SOLVES: u64 = 192;
/// Recorded heap allocations of one steady-state `score_indexed` call:
/// `default_conditions` builds an n-length `EnvChannel` and an all-ones
/// `mts_factor`. A constant-or-per-symbol `OtaConditions` takes this to 0.
const SERVED_ALLOCATIONS: u64 = 2;

#[test]
fn a_cold_map_and_a_warm_remap_take_pinned_sweeps() {
    let (guard, registry) = lock_registry();
    let config = SystemConfig::paper_default();
    let array = MtsArray::paper_prototype(Prototype::DualBand, config.mts_center);
    let weights = random_weights(MAP_ROWS, MAP_COLS, 11);

    let cold = WeightMapper::new(&config, &array).map(&weights, C64::ZERO);
    assert_eq!(
        solver_work(registry),
        (COLD_SWEEPS, (MAP_ROWS * MAP_COLS) as u64)
    );

    registry.reset();
    let moved = config.clone().with_rx_at(3.0, 43.0);
    let mut scratch = SolverScratch::new();
    WeightMapper::new(&moved, &array).remap(&weights, C64::ZERO, &cold, &mut scratch);
    assert_eq!(
        solver_work(registry),
        (WARM_SWEEPS, (MAP_ROWS * MAP_COLS) as u64)
    );
    drop(guard);
}

#[test]
fn a_two_layer_stack_solve_takes_pinned_sweeps() {
    let (guard, registry) = lock_registry();
    let config = SystemConfig::paper_default();
    let spec = StackSpec::new(
        config.prototype,
        config.freq_hz,
        config.tx,
        config.rx,
        config.mts_center,
        2,
        128,
    );
    let geometry = StackGeometry::build(&spec);
    let weights = StackWeights::from_effective(&random_weights(MAP_ROWS, MAP_COLS, 41), 2);
    StackSolver::new(&geometry, config.kappa).solve(&weights.factors, C64::ZERO);
    assert_eq!(solver_work(registry), (STACK_SWEEPS, STACK_SOLVES));
    drop(guard);
}

/// A deployed 3-class system over 16 symbols: the serve path's unit of
/// work is [`MetaAiSystem::score_indexed`].
fn served_system() -> (MetaAiSystem, CVec) {
    let mut rng = SimRng::seed_from_u64(5);
    let net = ComplexLnn::from_weights(random_weights(3, 16, 6));
    let x = CVec::from_fn(16, |_| rng.complex_gaussian(1.0));
    (MetaAiSystem::builder().deploy(net), x)
}

#[test]
fn one_served_request_costs_pinned_chips_and_draws() {
    let (guard, registry) = lock_registry();
    let (system, x) = served_system();
    registry.reset();
    let mut out = Vec::new();
    system.score_indexed(&x, 9, 0, &mut out);
    assert_eq!(counter(registry, "metaai.core.engine.samples"), 1);
    // Cancellation is on by default: 3 rows × 16 symbols × SLOTS chips,
    // and one aggregated AWGN draw per row.
    assert_eq!(
        counter(registry, "metaai.core.engine.chips"),
        (3 * 16 * SLOTS) as u64
    );
    assert_eq!(counter(registry, "metaai.core.engine.awgn_draws"), 3);
    drop(guard);
}

#[test]
fn a_steady_state_served_request_makes_pinned_allocations() {
    let (guard, registry) = lock_registry();
    let (system, x) = served_system();
    let mut out = Vec::new();
    // The first call sizes `out` and the kernel's thread-local scratch.
    system.score_indexed(&x, 9, 0, &mut out);
    for index in 1..=8 {
        let n = allocations_in(|| {
            system.score_indexed(&x, 9, index, &mut out);
        });
        assert_eq!(n, SERVED_ALLOCATIONS, "request {index}");
    }
    // Telemetry off: the same count.
    registry.set_enabled(false);
    let n = allocations_in(|| {
        system.score_indexed(&x, 9, 9, &mut out);
    });
    assert_eq!(n, SERVED_ALLOCATIONS);
    drop(guard);
}
