//! The per-model worker pools tying queues, deployments, and engines
//! together, plus the in-process [`Client`] handle and the
//! [`ServerBuilder`].
//!
//! Every registered model owns a private
//! [`BatchQueue`](crate::batcher::BatchQueue) and a dedicated
//! pool of `config.workers` scoring threads — that fixed allocation *is*
//! the scheduler's isolation guarantee: one tenant's backlog fills its
//! own queue and saturates its own workers, and cannot starve or shed
//! another tenant's traffic. Each worker loops on its model's
//! `next_batch`, pins the model's current deployment for the whole
//! batch, drops expired requests, and scores the rest through
//! [`MetaAiSystem::score_indexed`] with a per-worker scratch buffer (no
//! allocation on the hot path beyond the reply's score copy).
//! Determinism does not depend on which worker scores what: the RNG for
//! a request is fully determined by `(config.seed, the model's
//! deployment stream, sample_index)`.
//!
//! # Panic isolation
//!
//! A panic while scoring (a poisoned sample, a bug in the engine, or an
//! injected fault from [`FaultInjector`]) must not strand the pipelined
//! clients whose requests share the batch, and must not shrink the pool.
//! Each worker therefore runs its scoring loop under
//! `std::panic::catch_unwind`: when a panic unwinds, every unresolved
//! request of the in-flight batch is answered with
//! [`ServeError::WorkerPanicked`] (a retryable error — scoring is
//! deterministic per `sample_index`), the restart is counted per model
//! (`metaai.serve.model.{name}.worker_restarts`, plus the aggregate and
//! [`Server::worker_restarts`]), and the same thread re-enters the loop
//! with fresh scratch state. One poisoned request costs one batch one
//! error reply each; the service keeps serving — and because pools are
//! per-model, a panic storm on one tenant leaves every other tenant's
//! workers untouched.

use crate::batcher::{Pending, ScoreRequest, ScoreResponse, Scored, Ticket};
use crate::deploy::{DeploymentRegistry, ModelEntry};
use crate::{ServeConfig, ServeError};
use metaai::pipeline::MetaAiSystem;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// The registry key v1 wire traffic routes to (wire id 0), and the model
/// single-model deployments conventionally register under.
pub const DEFAULT_MODEL: &str = "default";

/// A running inference service: one keyed deployment registry, one
/// submission queue + scoring pool per model.
pub struct Server {
    registry: Arc<DeploymentRegistry>,
    workers: Vec<JoinHandle<()>>,
    faults: FaultInjector,
}

/// Configures and starts a [`Server`]: register each model, shape the
/// per-model queues/pools, then [`start`](ServerBuilder::start).
///
/// ```ignore
/// let server = Server::builder()
///     .model("afhq", afhq_system)
///     .model("widar", widar_system)
///     .config(ServeConfig {
///         workers: 4,
///         policy: OverflowPolicy::Shed,
///         ..ServeConfig::default()
///     })
///     .start();
/// ```
///
/// The first registered model is the **default model** (wire id 0): v1
/// clients with no model field land there.
#[must_use = "the builder does nothing until .start()"]
pub struct ServerBuilder {
    models: Vec<(String, Arc<MetaAiSystem>)>,
    config: ServeConfig,
}

impl ServerBuilder {
    /// Registers `system` under `name`. Registration order fixes wire
    /// ids: the first model gets id 0 and serves v1 traffic.
    pub fn model(mut self, name: impl Into<String>, system: Arc<MetaAiSystem>) -> Self {
        self.models.push((name.into(), system));
        self
    }

    /// Replaces the whole per-model queue/pool configuration at once.
    pub fn config(mut self, config: ServeConfig) -> Self {
        self.config = config;
        self
    }

    /// Builds the registry and spawns `workers` scoring threads per
    /// registered model.
    ///
    /// # Panics
    ///
    /// If no model was registered, a name repeats, or `workers == 0`.
    pub fn start(self) -> Server {
        let config = self.config;
        assert!(config.workers >= 1, "each pool needs at least one worker");
        let registry = Arc::new(DeploymentRegistry::new(self.models, &config));
        let faults = FaultInjector::default();
        let mut workers = Vec::with_capacity(registry.entries().len() * config.workers);
        for entry in registry.entries() {
            for w in 0..config.workers {
                let entry = entry.clone();
                let faults = faults.clone();
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("metaai-serve-{}-{w}", entry.name()))
                        .spawn(move || supervised_worker(&entry, &faults))
                        .expect("spawn scoring worker"),
                );
            }
        }
        Server {
            registry,
            workers,
            faults,
        }
    }
}

impl Server {
    /// A builder with the default [`ServeConfig`] and no models yet.
    pub fn builder() -> ServerBuilder {
        ServerBuilder {
            models: Vec::new(),
            config: ServeConfig::default(),
        }
    }

    /// An in-process submission handle for the default model (cheap to
    /// clone, usable from any thread).
    pub fn client(&self) -> Client {
        Client {
            entry: self.registry.default_entry().clone(),
        }
    }

    /// A submission handle for the model registered under `name`.
    pub fn client_for(&self, name: &str) -> Option<Client> {
        self.registry.entry(name).map(|entry| Client {
            entry: entry.clone(),
        })
    }

    /// The deployment registry. Hot swaps go through
    /// [`ModelEntry::swap`] on `registry().entry(name)` or
    /// `registry().default_entry()`.
    pub fn registry(&self) -> &Arc<DeploymentRegistry> {
        &self.registry
    }

    /// How many scoring workers have been restarted after a panic,
    /// summed over every model (per-model counts via
    /// [`ModelEntry::worker_restarts`]; counted unconditionally so tests
    /// need not enable telemetry).
    pub fn worker_restarts(&self) -> u64 {
        self.registry
            .entries()
            .iter()
            .map(|e| e.worker_restarts())
            .sum()
    }

    /// The chaos/test hook for injecting worker panics; cheap to clone
    /// and usable after the server has been moved into a serve loop.
    /// Shared by every model's pool — a fault is addressed by
    /// `sample_index`, so keep tenants' index spaces disjoint in tests.
    pub fn fault_injector(&self) -> FaultInjector {
        self.faults.clone()
    }

    /// Drain-then-stop: refuses new submissions on every model, scores
    /// every already admitted request, then joins all workers.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        for entry in self.registry.entries() {
            entry.queue().shutdown();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Mirrors `shutdown` for servers dropped without an explicit call
        // (tests, panics): drain admitted work, then stop.
        self.stop();
    }
}

/// In-process submission handle to one model of a running [`Server`].
#[derive(Clone)]
pub struct Client {
    entry: Arc<ModelEntry>,
}

impl Client {
    /// The model this handle submits to.
    pub fn model(&self) -> &str {
        self.entry.name()
    }

    /// Submits a request; the returned [`Ticket`] resolves when scored.
    pub fn submit(&self, request: ScoreRequest) -> Result<Ticket, ServeError> {
        self.entry.queue().submit(request)
    }

    /// Submit + wait, for callers without pipelining.
    pub fn score(&self, request: ScoreRequest) -> Result<ScoreResponse, ServeError> {
        self.submit(request)?.wait()
    }
}

/// Arms deliberate worker panics, for chaos tests of the panic-isolation
/// path. Each armed `sample_index` fires exactly once: the first worker
/// (of any model's pool) that dequeues a request with that index panics
/// *before* scoring it, exercising the full restart + request-resolution
/// machinery.
///
/// The hot path pays one relaxed atomic load per request while disarmed.
#[derive(Clone, Default)]
pub struct FaultInjector {
    inner: Arc<FaultState>,
}

#[derive(Default)]
struct FaultState {
    /// Number of armed samples; checked first so the disarmed hot path
    /// never touches the mutex.
    armed: AtomicUsize,
    samples: Mutex<Vec<u64>>,
}

impl FaultInjector {
    /// Arms one panic on the next request carrying `sample_index`.
    pub fn panic_on_sample(&self, sample_index: u64) {
        let mut samples = self.inner.samples.lock().expect("fault injector poisoned");
        samples.push(sample_index);
        self.inner.armed.fetch_add(1, Ordering::SeqCst);
    }

    /// How many armed panics have not fired yet.
    pub fn armed(&self) -> usize {
        self.inner.armed.load(Ordering::SeqCst)
    }

    /// Panics if `sample_index` is armed (disarming it first, so the
    /// retried request scores normally).
    fn maybe_fire(&self, sample_index: u64) {
        if self.inner.armed.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut samples = self.inner.samples.lock().expect("fault injector poisoned");
        if let Some(pos) = samples.iter().position(|&s| s == sample_index) {
            samples.swap_remove(pos);
            self.inner.armed.fetch_sub(1, Ordering::SeqCst);
            drop(samples);
            panic!("injected worker panic on sample {sample_index}");
        }
    }
}

/// Restarts `worker_loop` after each panic until the model's queue shuts
/// down.
fn supervised_worker(entry: &ModelEntry, faults: &FaultInjector) {
    loop {
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            worker_loop(entry, faults);
        }));
        match outcome {
            // Clean exit: the queue is shut down and drained.
            Ok(()) => return,
            Err(_) => {
                entry.restarts.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = crate::metrics::tele() {
                    m.worker_restarts.inc();
                }
                if let Some(m) = entry.metrics.on() {
                    m.worker_restarts.inc();
                }
            }
        }
    }
}

/// Holds a batch while it scores; any request still unresolved when the
/// guard drops (i.e. a panic unwound through the scoring loop) is
/// resolved with [`ServeError::WorkerPanicked`], a retryable error, rather
/// than the `Disconnected` its dropped completion would answer.
struct BatchGuard {
    slots: Vec<Option<Pending>>,
}

impl BatchGuard {
    fn new(batch: Vec<Pending>) -> Self {
        BatchGuard {
            slots: batch.into_iter().map(Some).collect(),
        }
    }
}

impl Drop for BatchGuard {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            if let Some(pending) = slot.take() {
                pending.resolve(Err(ServeError::WorkerPanicked));
            }
        }
    }
}

fn worker_loop(entry: &ModelEntry, faults: &FaultInjector) {
    let mut scratch: Vec<f64> = Vec::new();
    while let Some(batch) = entry.queue().next_batch() {
        // Pin one deployment for the whole batch: a swap landing mid-batch
        // takes effect at the next batch, and in-flight work finishes on
        // the epoch it started on.
        let deployment = entry.current();
        entry.refresh_epoch_age();
        let n_symbols = deployment.system.engine().num_symbols();
        let mut guard = BatchGuard::new(batch);
        for i in 0..guard.slots.len() {
            let outcome = {
                let pending = guard.slots[i].as_ref().expect("unresolved slot");
                // Expiry is re-checked per request, not once per batch: a
                // deadline that passes while earlier batch items score
                // still drops this request (and counts it as expired).
                if pending.request.deadline.is_some_and(|d| d < Instant::now()) {
                    let waited_us = pending.enqueued_at.elapsed().as_secs_f64() * 1e6;
                    if let Some(m) = crate::metrics::tele() {
                        m.expired_total.inc();
                        m.e2e_latency_expired_us.observe(waited_us);
                    }
                    if let Some(m) = entry.metrics.on() {
                        m.expired_total.inc();
                        m.e2e_latency_expired_us.observe(waited_us);
                    }
                    Err(ServeError::Expired)
                } else if pending.request.input.len() != n_symbols {
                    Err(ServeError::BadRequest(format!(
                        "input length {} != deployed symbols {n_symbols}",
                        pending.request.input.len()
                    )))
                } else {
                    faults.maybe_fire(pending.request.sample_index);
                    let predicted = deployment.system.score_indexed(
                        &pending.request.input,
                        deployment.stream,
                        pending.request.sample_index,
                        &mut scratch,
                    );
                    let waited_us = pending.enqueued_at.elapsed().as_secs_f64() * 1e6;
                    if let Some(m) = crate::metrics::tele() {
                        m.e2e_latency_us.observe(waited_us);
                    }
                    if let Some(m) = entry.metrics.on() {
                        m.e2e_latency_us.observe(waited_us);
                    }
                    Ok(Scored {
                        id: pending.request.id,
                        epoch: deployment.epoch,
                        predicted,
                        scores: &scratch,
                    })
                }
            };
            guard.slots[i]
                .take()
                .expect("unresolved slot")
                .resolve(outcome);
        }
    }
}
