//! Pinned operation counts: the engine's chip/sample/draw totals, the
//! solver's sweeps and solves per deployment path, and the heap
//! allocations of one served request, of a solve and of a training run.
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
use metaai_datasets::{generate, DatasetId, Scale};
use metaai_math::rng::SimRng;
use metaai_math::stats::argmax;
use metaai_math::{CMat, CVec, C64};
use metaai_mts::array::{MtsArray, Prototype};
use metaai_mts::solver::SolverScratch;
use metaai_nn::complex_lnn::ComplexLnn;
use metaai_nn::engine::TrainEngine;
use metaai_nn::train::{toy_problem, TrainConfig};
use metaai_rf::geometry::Point3;
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

fn gauge(registry: &Registry, name: &str) -> f64 {
    for m in registry.snapshot() {
        if m.name == name {
            match m.value {
                MetricValue::Gauge(v) => return v,
                other => panic!("{name} is not a gauge: {other:?}"),
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

    let predictions = engine.batch_map(&inputs, 5, 0, |_| OtaConditions::ideal(U), argmax);
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

    let predictions = engine.batch_map(&inputs, 5, 0, |_| OtaConditions::ideal(U), argmax);
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

/// The vector width, in bits, of the widest lane-kernel tier this CPU
/// runs: what `metaai.mts.solver.lane_bits` must read after a solve.
fn widest_lane_bits() -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return 512.0;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return 256.0;
        }
    }
    128.0
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
/// Recorded heap allocations, on the calling thread, of a cold paper-scale
/// map in a one-worker pool and of a warm remap: per-layer result buffers,
/// per-solve working vectors and scratch, none per weight or per chunk.
const COLD_MAP_ALLOCATIONS: u64 = 31;
const WARM_REMAP_ALLOCATIONS: u64 = 31;
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

    assert_eq!(gauge(registry, "metaai.mts.solver.lane_bits"), 0.0);
    let cold = WeightMapper::new(&config, &array).map(&weights, C64::ZERO);
    assert_eq!(
        solver_work(registry),
        (COLD_SWEEPS, (MAP_ROWS * MAP_COLS) as u64)
    );
    assert_eq!(
        gauge(registry, "metaai.mts.solver.lane_bits"),
        widest_lane_bits(),
        "a cold map runs the lane kernel at the widest tier the CPU has"
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

/// Paper MNIST's weight shape: 10 classes × 784 symbols.
const PAPER_SHAPE: (usize, usize) = (10, 784);

/// Heap allocations, on the calling thread, of a cold `map` inside a
/// one-worker pool and of a warm `remap` (fresh scratch) to a moved
/// receiver, for random weights of `shape`.
fn solve_allocations(shape: (usize, usize)) -> (u64, u64) {
    let config = SystemConfig::paper_default();
    let array = MtsArray::paper_prototype(Prototype::DualBand, config.mts_center);
    let weights = random_weights(shape.0, shape.1, 61);
    let mapper = WeightMapper::new(&config, &array);
    let moved = WeightMapper::new(&config.clone().with_rx_at(3.0, 43.0), &array);
    let one_worker = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-worker pool");
    let mut cold = None;
    let cold_allocations =
        one_worker.install(|| allocations_in(|| cold = Some(mapper.map(&weights, C64::ZERO))));
    let cold = cold.expect("the cold map ran");
    let mut scratch = SolverScratch::new();
    let warm_allocations = allocations_in(|| {
        moved.remap(&weights, C64::ZERO, &cold, &mut scratch);
    });
    (cold_allocations, warm_allocations)
}

#[test]
fn solves_make_pinned_allocations_at_any_weight_count() {
    let (guard, _registry) = lock_registry();
    let paper = solve_allocations(PAPER_SHAPE);
    assert_eq!(paper, (COLD_MAP_ALLOCATIONS, WARM_REMAP_ALLOCATIONS));
    assert_eq!(
        solve_allocations((2, 50)),
        paper,
        "a solve's allocations grow with its weight count"
    );
    drop(guard);
}

/// The receiver walk of perfbench's lifecycle workload: offsets, in
/// metres along x and y, of the corners of a 0.3 m square with one corner
/// at the default receiver position.
const WALK: [(f64, f64); 4] = [(0.0, 0.0), (0.3, 0.0), (0.3, 0.3), (0.0, 0.3)];
/// Recorded sweeps of the paper MNIST deployment's cold solve (the
/// figure perfbench's traced runs report per deploy).
const PAPER_DEPLOY_SWEEPS: u64 = 17_088;
/// Recorded sweeps at each walk corner, walking 1, 2, 3 and back to 0
/// from the default deployment: `(warm remap from the previous corner's
/// schedule, cold map)`.
const WALK_SWEEPS: [(u64, u64); 4] = [
    (15_783, 16_795),
    (17_595, 17_008),
    (15_700, 17_010),
    (16_206, 17_088),
];

/// Whether warm-starting pays along the walk: the paper MNIST network
/// (perfbench's set-up: default-scale MNIST, 10 epochs), solved warm and
/// cold at every corner. A count pin, not a policy: it records what each
/// start costs in descent sweeps.
#[test]
fn warm_and_cold_solves_along_the_receiver_walk_take_pinned_sweeps() {
    let (guard, registry) = lock_registry();
    let config = SystemConfig::paper_default();
    let (train, _) = generate(DatasetId::Mnist, Scale::Default, 7).modulate(config.modulation);
    let net = TrainEngine::new(TrainConfig {
        epochs: 10,
        seed: 1,
        ..TrainConfig::default()
    })
    .train(&train);
    registry.reset();
    let system = MetaAiSystem::builder().config(config.clone()).deploy(net);
    assert_eq!(solver_work(registry).0, PAPER_DEPLOY_SWEEPS);

    let weights = &system.stack.weights.factors[0];
    let mut previous = (*system.schedule).clone();
    let mut scratch = SolverScratch::new();
    let mut sweeps = Vec::new();
    for &(dx, dy) in WALK[1..].iter().chain(&WALK[..1]) {
        let at = SystemConfig {
            rx: Point3::new(config.rx.x + dx, config.rx.y + dy, config.rx.z),
            ..config.clone()
        };
        let mapper = WeightMapper::new(&at, &system.array);
        registry.reset();
        let warm = mapper.remap(weights, C64::ZERO, &previous, &mut scratch);
        let warm_sweeps = solver_work(registry).0;
        registry.reset();
        mapper.map(weights, C64::ZERO);
        sweeps.push((warm_sweeps, solver_work(registry).0));
        previous = warm;
    }
    assert_eq!(sweeps, WALK_SWEEPS);
    drop(guard);
}

/// The complex LNN and every stack train in one loop, so a stacked run
/// counts its epochs, samples and batches as the single network does.
#[test]
fn training_counts_epochs_and_samples_at_every_layer_count() {
    let (guard, registry) = lock_registry();
    let data = toy_problem(3, 8, 5, 0.3, 3, 4); // 15 samples
    let engine = TrainEngine::new(TrainConfig {
        epochs: 2,
        batch: 4,
        ..TrainConfig::default()
    });
    for layers in [1, 2, 3] {
        registry.reset();
        engine.train_stack(&data, layers);
        assert_eq!(
            counter(registry, "metaai.nn.train.epochs"),
            2,
            "L = {layers}"
        );
        assert_eq!(
            counter(registry, "metaai.nn.train.samples"),
            2 * 15,
            "L = {layers}"
        );
        // 15 samples in batches of 4: four batches per epoch.
        assert_eq!(
            histogram_count(registry, "metaai.nn.train.batch_seconds"),
            2 * 4,
            "L = {layers}"
        );
    }
    drop(guard);
}

/// Recorded heap allocations, on the calling thread, of a one-worker,
/// two-epoch `TrainEngine::train` on 15 samples in batches of 4: none per
/// sample, one per batch (the fold's job list), and the rest per epoch
/// (the shuffle) and per run (weights, velocity, gradient scratch,
/// statistics). The scratch slot's logits and its loss's magnitudes,
/// probabilities and cogradient are four of the per-run allocations: each
/// grows once, on the slot's first sample, and every later sample reuses
/// it. A buffer allocated per sample adds 30 here.
const TRAIN_ALLOCATIONS: u64 = 27;

#[test]
fn one_worker_training_makes_pinned_allocations() {
    let (guard, _registry) = lock_registry();
    let data = toy_problem(3, 8, 5, 0.3, 3, 4); // 15 samples
    let engine = TrainEngine::new(TrainConfig {
        epochs: 2,
        batch: 4,
        ..TrainConfig::default()
    });
    let one_worker = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-worker pool");
    let n = one_worker.install(|| {
        allocations_in(|| {
            engine.train(&data);
        })
    });
    assert_eq!(n, TRAIN_ALLOCATIONS);
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
