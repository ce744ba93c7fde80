//! The keyed, epoch-versioned deployment registry behind the multi-tenant
//! service.
//!
//! One server fronts *many* physical networks at once (per-room channel
//! models, per-sensor deployments): the registry maps a model name — the
//! `ModelId`, interned to a dense `u32` for the wire — to a
//! [`ModelEntry`] holding that tenant's active deployment, its private
//! submission queue, and its telemetry. Each entry is independently
//! epoch-versioned behind an `RwLock<Arc<_>>`: workers take a cheap
//! `Arc` clone at the *start* of each batch and score the whole batch
//! against it, so
//!
//! * `swap` (e.g. after a retrain → solver → map cycle) installs new
//!   weights for one model with zero downtime — the lock is held only
//!   for the pointer exchange, never during scoring, and other tenants
//!   never observe it;
//! * a batch in flight when the swap lands finishes on the epoch it
//!   started on, and every response reports which epoch scored it.
//!
//! # RNG streams
//!
//! Each deployment scores on the stream `serve-{model}-epoch-{N}`, so a
//! tenant's served scores stay bitwise-identical to an offline eval of
//! its system on that stream, and a redeploy re-draws channel
//! realizations exactly like a fresh offline eval would. The FNV-1a
//! state of the constant `serve-{model}-epoch-` prefix is hoisted into
//! [`ModelEntry`] construction; a swap only folds the epoch's decimal
//! digits into that state instead of formatting and re-hashing the whole
//! label per swap.

use crate::batcher::BatchQueue;
use crate::metrics::ModelMetrics;
use crate::{ServeConfig, ServeError};
use metaai::pipeline::MetaAiSystem;
#[cfg(test)]
use metaai_math::rng::SimRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// FNV-1a offset basis (the hash behind [`SimRng::stream_id`]).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a state; `fnv1a(FNV_OFFSET, label)` equals
/// [`SimRng::stream_id`] of the same label.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// One installed deployment: a system plus its serving identity.
pub struct ServeDeployment {
    /// The deployed system (shared with any in-flight batches).
    pub system: Arc<MetaAiSystem>,
    /// Monotonic per-model deployment counter, starting at 1.
    pub epoch: u64,
    /// RNG stream served requests score on: `serve-{model}-epoch-{N}`,
    /// so each tenant's served scores match its own offline eval and a
    /// redeploy re-draws channel realizations like a fresh eval would.
    pub stream: u64,
}

/// One tenant in the registry: its name, wire id, epoch-versioned active
/// deployment, private submission queue, and per-model telemetry.
pub struct ModelEntry {
    name: String,
    wire_id: u32,
    /// FNV-1a state of `serve-{name}-epoch-`, computed once here so a
    /// swap derives its stream by folding in the epoch digits instead of
    /// formatting (and re-hashing) the whole label every time.
    stream_prefix: u64,
    /// The output/symbol shape advertised in HELLO model tables, captured
    /// from the initial system. v2 clients cache it for the lifetime of
    /// the connection, so a swap may never change it (see
    /// [`swap`](Self::swap)).
    outputs: usize,
    symbols: usize,
    active: RwLock<Arc<ServeDeployment>>,
    next_epoch: AtomicU64,
    /// Construction instant; swap times are stored as nanoseconds since
    /// this anchor so the epoch age is readable lock-free.
    created: Instant,
    swapped_nanos: AtomicU64,
    queue: BatchQueue,
    pub(crate) metrics: ModelMetrics,
    pub(crate) restarts: AtomicU64,
}

impl ModelEntry {
    fn new(name: String, wire_id: u32, system: Arc<MetaAiSystem>, config: &ServeConfig) -> Self {
        let metrics = ModelMetrics::for_model(&name);
        let mut prefix = fnv1a(FNV_OFFSET, b"serve-");
        prefix = fnv1a(prefix, name.as_bytes());
        let stream_prefix = fnv1a(prefix, b"-epoch-");
        let stream = stream_for_epoch(stream_prefix, 1);
        let engine = system.engine();
        let (outputs, symbols) = (engine.num_outputs(), engine.num_symbols());
        ModelEntry {
            name,
            wire_id,
            stream_prefix,
            outputs,
            symbols,
            active: RwLock::new(Arc::new(ServeDeployment {
                system,
                epoch: 1,
                stream,
            })),
            next_epoch: AtomicU64::new(2),
            created: Instant::now(),
            swapped_nanos: AtomicU64::new(0),
            queue: BatchQueue::with_metrics(config, metrics.clone()),
            metrics,
            restarts: AtomicU64::new(0),
        }
    }

    /// The model name (the registry key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The interned wire id carried by v2 `INFER` frames.
    pub fn wire_id(&self) -> u32 {
        self.wire_id
    }

    /// This model's private submission queue.
    pub fn queue(&self) -> &BatchQueue {
        &self.queue
    }

    /// The deployment new batches score against. Cheap (`Arc` clone under
    /// a read lock); callers keep the clone for the duration of a batch.
    ///
    /// A poisoned lock is recovered, here and in [`swap`](Self::swap): the
    /// only write is one `Arc` assignment, so the slot always holds a
    /// complete deployment.
    pub fn current(&self) -> Arc<ServeDeployment> {
        self.active
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Installs `system` as this model's new active deployment and
    /// returns its epoch. In-flight batches finish on their old `Arc`;
    /// the previous system is dropped when the last of them completes.
    /// Other models are untouched.
    ///
    /// The offered system must score the same output/symbol shape this
    /// entry advertised at registration — v2 clients cache that shape
    /// from the HELLO model table for as long as their connection lives,
    /// so a differently-shaped swap is refused with
    /// [`ServeError::ShapeMismatch`] and the old deployment keeps
    /// serving.
    pub fn swap(&self, system: Arc<MetaAiSystem>) -> Result<u64, ServeError> {
        let engine = system.engine();
        let (outputs, symbols) = (engine.num_outputs(), engine.num_symbols());
        if (outputs, symbols) != (self.outputs, self.symbols) {
            return Err(ServeError::ShapeMismatch(format!(
                "model {:?} advertises {}\u{d7}{} (outputs\u{d7}symbols), swap offered {outputs}\u{d7}{symbols}",
                self.name, self.outputs, self.symbols
            )));
        }
        let epoch = self.next_epoch.fetch_add(1, Ordering::Relaxed);
        let deployment = Arc::new(ServeDeployment {
            system,
            epoch,
            stream: stream_for_epoch(self.stream_prefix, epoch),
        });
        *self.active.write().unwrap_or_else(PoisonError::into_inner) = deployment;
        self.swapped_nanos
            .store(self.created.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let Some(m) = crate::metrics::tele() {
            m.deploy_swaps.inc();
        }
        if let Some(m) = self.metrics.on() {
            m.deploy_swaps.inc();
            m.epoch_age_s.set(0.0);
        }
        Ok(epoch)
    }

    /// How long the current deployment has been serving (time since the
    /// last [`swap`](Self::swap), or since registration before the first
    /// one).
    pub fn epoch_age(&self) -> Duration {
        self.created.elapsed().saturating_sub(Duration::from_nanos(
            self.swapped_nanos.load(Ordering::Relaxed),
        ))
    }

    /// Publishes [`epoch_age`](Self::epoch_age) to the
    /// `metaai.serve.model.{name}.epoch_age_s` gauge. Scoring workers
    /// call this per batch; the adaptation controller per probe round.
    pub fn refresh_epoch_age(&self) {
        if let Some(m) = self.metrics.on() {
            m.epoch_age_s.set(self.epoch_age().as_secs_f64());
        }
    }

    /// How many of this model's scoring workers have been restarted
    /// after a panic.
    pub fn worker_restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// The stream label hash for `epoch` under this model's prefix;
    /// equals `SimRng::stream_id("serve-{name}-epoch-{epoch}")`.
    #[cfg(test)]
    fn stream_for_epoch(&self, epoch: u64) -> u64 {
        stream_for_epoch(self.stream_prefix, epoch)
    }
}

/// Extends the hoisted prefix state with the decimal digits of `epoch`.
fn stream_for_epoch(stream_prefix: u64, epoch: u64) -> u64 {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    let mut v = epoch;
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    fnv1a(stream_prefix, &digits[i..])
}

/// The keyed model table: name → [`ModelEntry`], with wire ids interned
/// densely in registration order (id 0 is the **default model**, which
/// v1 frames route to). The model set is fixed at construction; what
/// each entry *serves* changes via [`ModelEntry::swap`].
pub struct DeploymentRegistry {
    models: Vec<Arc<ModelEntry>>,
    by_name: HashMap<String, u32>,
}

impl DeploymentRegistry {
    /// Builds a registry serving each `(name, system)` pair at epoch 1,
    /// each with its own submission queue shaped by `config`.
    ///
    /// # Panics
    ///
    /// If `models` is empty or a name repeats.
    pub fn new(models: Vec<(String, Arc<MetaAiSystem>)>, config: &ServeConfig) -> Self {
        assert!(!models.is_empty(), "the registry needs at least one model");
        let mut by_name = HashMap::with_capacity(models.len());
        let models: Vec<Arc<ModelEntry>> = models
            .into_iter()
            .enumerate()
            .map(|(i, (name, system))| {
                let id = i as u32;
                assert!(
                    by_name.insert(name.clone(), id).is_none(),
                    "model {name:?} registered twice"
                );
                Arc::new(ModelEntry::new(name, id, system, config))
            })
            .collect();
        DeploymentRegistry { models, by_name }
    }

    /// The entry registered under `name`.
    pub fn entry(&self, name: &str) -> Option<&Arc<ModelEntry>> {
        self.by_name.get(name).map(|&id| &self.models[id as usize])
    }

    /// The entry behind wire id `id` (v2 `INFER` routing).
    pub fn entry_by_id(&self, id: u32) -> Option<&Arc<ModelEntry>> {
        self.models.get(id as usize)
    }

    /// The default model (wire id 0): where v1 frames land.
    pub fn default_entry(&self) -> &Arc<ModelEntry> {
        &self.models[0]
    }

    /// Every registered entry, in wire-id order.
    pub fn entries(&self) -> &[Arc<ModelEntry>] {
        &self.models
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaai::config::SystemConfig;
    use metaai_nn::complex_lnn::ComplexLnn;

    fn tiny_system(seed: u64) -> Arc<MetaAiSystem> {
        shaped_system(seed, 3, 16)
    }

    fn shaped_system(seed: u64, outputs: usize, symbols: usize) -> Arc<MetaAiSystem> {
        let mut rng = SimRng::seed_from_u64(seed);
        let net = ComplexLnn::init(outputs, symbols, &mut rng);
        Arc::new(
            MetaAiSystem::builder()
                .config(SystemConfig::paper_default())
                .num_atoms(32)
                .deploy(net),
        )
    }

    fn registry(names: &[&str]) -> DeploymentRegistry {
        DeploymentRegistry::new(
            names
                .iter()
                .enumerate()
                .map(|(i, &n)| (n.to_string(), tiny_system(i as u64 + 1)))
                .collect(),
            &ServeConfig::default(),
        )
    }

    #[test]
    fn swap_bumps_the_epoch_and_keeps_old_arcs_alive() {
        let first = tiny_system(1);
        let registry = DeploymentRegistry::new(
            vec![("default".to_string(), first.clone())],
            &ServeConfig::default(),
        );
        let entry = registry.default_entry();
        let held = entry.current();
        assert_eq!(held.epoch, 1);

        let epoch = entry.swap(tiny_system(2)).expect("same shape");
        assert_eq!(epoch, 2);
        assert_eq!(entry.current().epoch, 2);
        // The in-flight handle still scores on the original system.
        assert!(Arc::ptr_eq(&held.system, &first));
        assert_ne!(held.stream, entry.current().stream);
    }

    #[test]
    fn models_are_keyed_by_name_and_interned_in_order() {
        let r = registry(&["alpha", "beta"]);
        assert_eq!(r.entry("alpha").unwrap().wire_id(), 0);
        assert_eq!(r.entry("beta").unwrap().wire_id(), 1);
        assert!(r.entry("gamma").is_none());
        assert!(r.entry_by_id(2).is_none());
        assert_eq!(r.default_entry().name(), "alpha");
    }

    #[test]
    fn hoisted_stream_derivation_matches_the_formatted_label() {
        // The bugfix pin: the prefix hoisted at entry construction must
        // reproduce `stream_id` of the fully formatted label, for any
        // epoch a redeploy can reach.
        let r = registry(&["afhq", "widar-room3"]);
        for entry in r.entries() {
            for epoch in [1u64, 2, 9, 10, 99, 12345, u64::MAX] {
                let label = format!("serve-{}-epoch-{}", entry.name(), epoch);
                assert_eq!(
                    entry.stream_for_epoch(epoch),
                    SimRng::stream_id(&label),
                    "{label}"
                );
            }
        }
    }

    #[test]
    fn reswapping_bumps_the_epoch_and_streams_stay_distinct_across_models() {
        // Re-swapping the same model walks its own epoch sequence; two
        // models walking theirs never collide on a stream (the model
        // name is folded into every label).
        let r = registry(&["alpha", "beta"]);
        let mut seen = std::collections::HashSet::new();
        for entry in r.entries() {
            assert_eq!(entry.current().epoch, 1);
            assert!(seen.insert(entry.current().stream), "epoch-1 collision");
            for expect in 2..6u64 {
                let epoch = entry.swap(tiny_system(expect)).expect("same shape");
                assert_eq!(epoch, expect, "epochs are per-model, not global");
                assert!(
                    seen.insert(entry.current().stream),
                    "stream collision at {}-epoch-{epoch}",
                    entry.name()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_model_names_are_rejected() {
        let _ = registry(&["alpha", "alpha"]);
    }

    #[test]
    fn mismatched_shape_swaps_are_refused_and_the_old_deployment_survives() {
        // The bugfix pin: v2 clients cache (outputs, symbols) from the
        // HELLO model table for the lifetime of their connection, so a
        // swap that changes either dimension must be rejected — not
        // silently installed under the stale advertisement.
        let r = registry(&["alpha"]);
        let entry = r.entry("alpha").unwrap();
        let before = entry.current();

        for (outputs, symbols) in [(4usize, 16usize), (3, 8), (5, 32)] {
            let err = entry
                .swap(shaped_system(99, outputs, symbols))
                .expect_err("shape changed");
            assert!(
                matches!(&err, ServeError::ShapeMismatch(why)
                    if why.contains("alpha") && why.contains(&format!("{outputs}"))),
                "got {err}"
            );
            assert!(!err.is_retryable(), "a shape mismatch never heals");
        }
        // Nothing was installed: same epoch, same system, and the epoch
        // counter did not burn numbers on refused swaps.
        let after = entry.current();
        assert_eq!(after.epoch, before.epoch);
        assert!(Arc::ptr_eq(&after.system, &before.system));
        assert_eq!(entry.swap(tiny_system(2)).expect("matching shape"), 2);
    }

    #[test]
    fn a_poisoned_deployment_slot_keeps_current_and_swap_working() {
        let r = registry(&["alpha"]);
        let entry = r.entry("alpha").unwrap();
        std::thread::scope(|s| {
            let panicked = s
                .spawn(|| {
                    let _guard = entry.active.write().unwrap();
                    panic!("swapper panics while holding the slot");
                })
                .join();
            assert!(panicked.is_err());
        });
        assert!(entry.active.is_poisoned());
        assert_eq!(entry.current().epoch, 1);
        assert_eq!(entry.swap(tiny_system(2)).expect("swap after poison"), 2);
        assert_eq!(entry.current().epoch, 2);
    }

    #[test]
    fn epoch_age_resets_on_swap() {
        let r = registry(&["alpha"]);
        let entry = r.entry("alpha").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let before = entry.epoch_age();
        assert!(before >= Duration::from_millis(20), "aged {before:?}");
        entry.swap(tiny_system(2)).expect("same shape");
        let after = entry.epoch_age();
        assert!(after < before, "swap resets the age ({after:?})");
    }

    #[test]
    fn epoch_age_gauge_follows_refresh_and_swap() {
        metaai_telemetry::set_enabled(true);
        let r = registry(&["age-gauge-model"]);
        let entry = r.entry("age-gauge-model").unwrap();
        let gauge =
            metaai_telemetry::global().gauge("metaai.serve.model.age-gauge-model.epoch_age_s");
        std::thread::sleep(Duration::from_millis(10));
        entry.refresh_epoch_age();
        assert!(gauge.value() > 0.0, "refresh published a positive age");
        entry.swap(tiny_system(2)).expect("same shape");
        assert_eq!(gauge.value(), 0.0, "swap zeroes the staleness gauge");
    }
}
