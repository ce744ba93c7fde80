//! Runtime telemetry for the MetaAI workspace — the observability contract
//! between the perf-critical engines and CI.
//!
//! The paper's system is a pipeline of physically-motivated stages (train
//! the complex LNN, solve the 2-bit schedule, accumulate `y_r` over the
//! air); this crate gives each stage a place to report what it did and how
//! long it took, without taking any external dependency:
//!
//! * [`Registry`] — a thread-safe, name-keyed collection of instruments.
//!   Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`
//!   clones; hot paths fetch them once and then touch only relaxed
//!   atomics.
//! * [`Span`] ([`Histogram::span`], [`Histogram::time`]) — RAII
//!   wall-clock timing into a latency histogram. A span created while
//!   telemetry is disabled never calls `Instant::now` and records nothing
//!   on drop: the disabled-mode cost is one relaxed atomic load per span.
//! * [`Registry::render_json`] / [`Registry::render_prometheus`] — stable,
//!   deterministic snapshots (instruments sorted by name) for `--metrics-out`
//!   files, BENCH JSON `telemetry` sections, and scrape endpoints.
//!
//! Instruments are **enabled-gated**: every mutation checks the owning
//! registry's atomic flag first, so an instrumented binary with telemetry
//! off runs at (measurably) the uninstrumented speed. The flag is
//! per-registry, which keeps tests hermetic — unit tests use their own
//! `Registry`, production code uses [`global()`].
//!
//! # Naming scheme
//!
//! Instruments follow `metaai.<crate>.<stage>.<what>`, e.g.
//! `metaai.core.engine.samples`, `metaai.mts.solver.residual`,
//! `metaai.nn.train.epoch_seconds`. Durations are histograms in seconds
//! with a `_seconds` suffix; counters are plural nouns; gauges name the
//! quantity (`samples_per_sec`). The Prometheus renderer maps `.` and `-`
//! to `_`.

mod registry;
mod render;

pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricSnapshot, MetricValue, Registry, Span,
};

use std::sync::OnceLock;

/// Default bucket upper bounds (seconds) for latency histograms: decades
/// from 1 µs to 10 s. [`Registry::latency_histogram`] uses these.
pub const DEFAULT_LATENCY_BOUNDS: [f64; 8] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry every production instrument registers with.
/// Starts disabled; `metaai eval --metrics-out …` (and the perf-report
/// harness) enable it for the run.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Enables or disables the [`global()`] registry.
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Whether the [`global()`] registry is currently recording.
pub fn enabled() -> bool {
    global().is_enabled()
}
