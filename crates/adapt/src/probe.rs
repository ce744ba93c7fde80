//! Seeded health probes: what the *deployed* schedule actually delivers
//! over the *live* (possibly drifted) channel.
//!
//! The serving path cannot see drift — it scores against the channels
//! realized at deployment time. The probe re-realizes the deployed
//! schedule against the world's current geometry
//! ([`MetaAiSystem::realize_live`] — every hop of the deployed stack
//! re-linked, one hop for the paper's single surface, with whatever
//! stuck atoms the surfaces carry), scores a fixed seeded probe set over
//! it, and reports three signals:
//!
//! * **probe accuracy** — ground truth on the probe labels;
//! * **channel residual** — *phase-aligned* relative Frobenius distance
//!   between the live and deployed channel matrices,
//!   `min_θ ‖H_live − e^{jθ}·H_dep‖ / ‖H_dep‖` (the solver's
//!   `|H_mts − H_des|` staleness signal). A receiver move of a few
//!   centimetres rotates every entry by a common phase — which the
//!   magnitude-squared scoring cannot see — so the raw distance would
//!   saturate at ~1 after half a wavelength of motion; aligning out the
//!   common phase leaves the *differential* misalignment that actually
//!   degrades inference;
//! * **margin p50** — median top/runner-up score ratio, a confidence
//!   diagnostic.
//!
//! Everything is seeded per `(probe seed, round, sample)`, so a reading
//! is a pure function of the deployment, the world, and the round —
//! bitwise reproducible across runs and worker counts.

use metaai::{MetaAiSystem, OtaEngine, SystemConfig};
use metaai_math::rng::SimRng;
use metaai_math::{CVec, C64};
use metaai_nn::data::ComplexDataset;

/// A fixed, seeded set of labelled probe inputs.
#[derive(Clone, Debug)]
pub struct ProbeSet {
    /// Probe inputs (one modulated symbol stream each).
    pub inputs: Vec<CVec>,
    /// Ground-truth labels, parallel to `inputs`.
    pub labels: Vec<usize>,
    /// Seed for per-(round, sample) channel/noise realizations.
    pub seed: u64,
}

impl ProbeSet {
    /// Takes `n` samples from `data` (cycling if `n` exceeds the set) as
    /// the probe set, realized under `seed`.
    pub fn from_dataset(data: &ComplexDataset, n: usize, seed: u64) -> Self {
        assert!(!data.is_empty(), "probe sets need at least one sample");
        assert!(n > 0, "an empty probe set observes nothing");
        let (inputs, labels) = (0..n)
            .map(|i| {
                let k = i % data.len();
                (data.inputs[k].clone(), data.labels[k])
            })
            .unzip();
        ProbeSet {
            inputs,
            labels,
            seed,
        }
    }

    /// Number of probe samples.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether the set is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }
}

/// One round's health signals.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HealthReading {
    /// Fraction of probes classified correctly over the live channel.
    pub probe_accuracy: f64,
    /// `min_θ ‖H_live − e^{jθ}·H_dep‖_F / ‖H_dep‖_F`.
    pub channel_residual: f64,
    /// Median score margin (top / runner-up; ∞ when the runner-up is
    /// non-positive).
    pub margin_p50: f64,
}

/// Realizes `deployed`'s schedule against `world`'s geometry (plus the
/// quasi-static environmental offset `env_offset`, Eqn 8) and probes it.
///
/// `round` advances the probe RNG streams: round `r`, sample `i` draws
/// from `derive_indexed(seed, "adapt-probe", r·len + i)`, disjoint from
/// serving sample spaces and from every other round.
pub fn probe_health(
    deployed: &MetaAiSystem,
    world: &SystemConfig,
    env_offset: C64,
    probes: &ProbeSet,
    round: u64,
) -> HealthReading {
    let mut live = deployed.realize_live(world);
    if env_offset != C64::ZERO {
        for h in live.as_mut_slice() {
            *h += env_offset;
        }
    }

    // Phase-aligned distance: ‖L‖² + ‖D‖² − 2·|⟨L, D⟩| is the squared
    // Frobenius distance at the optimal common rotation e^{jθ}.
    let (mut live_sq, mut dep_sq, mut inner) = (0.0, 0.0, C64::ZERO);
    for (l, d) in live.as_slice().iter().zip(deployed.channels.as_slice()) {
        live_sq += l.norm_sq();
        dep_sq += d.norm_sq();
        inner += *l * d.conj();
    }
    let denom = dep_sq.sqrt().max(f64::MIN_POSITIVE);
    let channel_residual = (live_sq + dep_sq - 2.0 * inner.abs()).max(0.0).sqrt() / denom;

    let stream = SimRng::stream_id("adapt-probe");
    let engine = OtaEngine::new(&live);
    let mut correct = 0usize;
    let mut margins = Vec::with_capacity(probes.len());
    let mut scores = Vec::with_capacity(engine.num_outputs());
    for (i, x) in probes.inputs.iter().enumerate() {
        let predicted = engine.score_indexed(
            x,
            probes.seed,
            stream,
            round * probes.len() as u64 + i as u64,
            |rng| deployed.default_conditions(x.len(), rng),
            &mut scores,
        );
        correct += usize::from(predicted == probes.labels[i]);
        margins.push(margin(&scores));
    }
    HealthReading {
        probe_accuracy: correct as f64 / probes.len() as f64,
        channel_residual,
        margin_p50: median_margin(margins),
    }
}

/// The margin of one score vector: top / runner-up (∞ when the
/// runner-up is non-positive).
fn margin(scores: &[f64]) -> f64 {
    assert!(scores.len() >= 2, "need at least two classes");
    let mut top = f64::NEG_INFINITY;
    let mut second = f64::NEG_INFINITY;
    for &s in scores {
        if s > top {
            second = top;
            top = s;
        } else if s > second {
            second = s;
        }
    }
    if second <= 0.0 {
        f64::INFINITY
    } else {
        top / second
    }
}

/// Median margin under IEEE 754 total order (see
/// [`metaai_math::stats`]'s ordering contract): a degenerate channel can
/// produce ±∞ or NaN margins (e.g. `∞ / ∞` when every class score
/// saturates), and those must skew the reported median — never panic the
/// `metaai-adapt` thread mid-round. NaN sorts after +∞, so a reading
/// dominated by degenerate probes surfaces as a non-finite median the
/// policy can observe.
fn median_margin(mut margins: Vec<f64>) -> f64 {
    margins.sort_by(f64::total_cmp);
    margins[margins.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaai_math::stats::argmax;
    use metaai_nn::augment::Augmentation;
    use metaai_nn::train::{toy_problem, TrainConfig};

    fn trained_system() -> (MetaAiSystem, ComplexDataset) {
        let train = toy_problem(3, 32, 40, 0.35, 60, 160);
        let test = toy_problem(3, 32, 20, 0.35, 60, 260);
        let tcfg = TrainConfig {
            epochs: 20,
            ..TrainConfig::default()
        }
        .with_augmentation(Augmentation::cdfa_default());
        let sys = MetaAiSystem::builder()
            .config(SystemConfig::paper_default())
            .train_and_deploy(&train, &tcfg);
        (sys, test)
    }

    #[test]
    fn a_static_world_reads_healthy_with_zero_residual() {
        let (sys, test) = trained_system();
        let probes = ProbeSet::from_dataset(&test, 16, 7);
        let reading = probe_health(&sys, &sys.config, C64::ZERO, &probes, 0);
        // Same geometry → the live realization is the deployed one; the
        // aligned distance collapses to rounding noise.
        assert!(
            reading.channel_residual < 1e-7,
            "residual {}",
            reading.channel_residual
        );
        assert!(
            reading.probe_accuracy > 0.6,
            "accuracy {}",
            reading.probe_accuracy
        );
        assert!(reading.margin_p50 > 1.0, "margin {}", reading.margin_p50);
    }

    #[test]
    fn drift_raises_the_residual_and_readings_are_deterministic() {
        let (sys, test) = trained_system();
        let probes = ProbeSet::from_dataset(&test, 16, 7);
        let drifted = SystemConfig::paper_default().with_rx_at(3.0, 20.0);
        let a = probe_health(&sys, &drifted, C64::ZERO, &probes, 3);
        let b = probe_health(&sys, &drifted, C64::ZERO, &probes, 3);
        assert_eq!(a, b, "a reading is a pure function of its inputs");
        assert!(
            a.channel_residual > 0.1,
            "a 20° stale deployment must show a large residual, got {}",
            a.channel_residual
        );
        // A different round draws different realizations.
        let c = probe_health(&sys, &drifted, C64::ZERO, &probes, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn probing_a_stack_scores_the_whole_cascade() {
        // At its own geometry, a 2-layer system's probe scores the
        // composed cascade the stack deployed — not layer 0 alone.
        let train = toy_problem(3, 32, 40, 0.35, 60, 161);
        let test = toy_problem(3, 32, 20, 0.35, 60, 261);
        let tcfg = TrainConfig {
            epochs: 5,
            ..TrainConfig::default()
        };
        let sys = MetaAiSystem::builder()
            .layers(2)
            .train_and_deploy(&train, &tcfg);
        let probes = ProbeSet::from_dataset(&test, 8, 7);
        let reading = probe_health(&sys, &sys.config, C64::ZERO, &probes, 0);
        assert!(
            reading.channel_residual < 1e-7,
            "residual {}",
            reading.channel_residual
        );
        let stream = SimRng::stream_id("adapt-probe");
        let engine = OtaEngine::new(&sys.channels);
        let mut correct = 0usize;
        let mut margins = Vec::new();
        for (i, x) in probes.inputs.iter().enumerate() {
            let mut rng = SimRng::derive_indexed(probes.seed, stream, i as u64);
            let cond = sys.default_conditions(x.len(), &mut rng);
            let scores = engine.scores(x, &cond, &mut rng);
            correct += usize::from(argmax(&scores) == probes.labels[i]);
            margins.push(margin(&scores));
        }
        assert_eq!(reading.probe_accuracy, correct as f64 / probes.len() as f64);
        assert_eq!(reading.margin_p50, median_margin(margins));
    }

    #[test]
    fn margin_orders_confidence() {
        assert!(margin(&[10.0, 1.0]) > margin(&[10.0, 9.0]));
        assert_eq!(margin(&[1.0, 0.0]), f64::INFINITY);
    }

    #[test]
    fn nan_margins_sort_instead_of_panicking() {
        // Regression: the median used `partial_cmp(..).expect("margins
        // are never NaN")` — one degenerate probe killed the adaptation
        // thread. Under total order the NaN ranks after +∞ and the median
        // is still well-defined.
        assert_eq!(median_margin(vec![1.2, f64::NAN, 0.5]), 1.2);
        assert!(median_margin(vec![f64::INFINITY, f64::NAN]).is_nan());
        assert!(median_margin(vec![f64::NAN, f64::NAN]).is_nan());
        assert_eq!(median_margin(vec![3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn a_degenerate_channel_yields_a_reading_not_a_panic() {
        // An unbounded environmental offset saturates every probe score;
        // margins become ∞/∞ = NaN (or ∞). The reading must come back
        // with non-finite diagnostics instead of panicking the thread.
        let (sys, test) = trained_system();
        let probes = ProbeSet::from_dataset(&test, 8, 7);
        let offset = C64::new(f64::INFINITY, 0.0);
        let reading = probe_health(&sys, &sys.config, offset, &probes, 0);
        assert!(
            !reading.margin_p50.is_finite(),
            "saturated scores must surface as a non-finite margin, got {}",
            reading.margin_p50
        );
    }

    #[test]
    fn an_environmental_offset_registers_in_the_residual() {
        let (sys, test) = trained_system();
        let probes = ProbeSet::from_dataset(&test, 8, 7);
        let clean = probe_health(&sys, &sys.config, C64::ZERO, &probes, 0);
        // An offset comparable to a typical channel entry must register.
        let rms = sys.channels.fro_norm() / (sys.channels.as_slice().len() as f64).sqrt();
        let offset = C64::new(0.5 * rms, -0.3 * rms);
        let dirty = probe_health(&sys, &sys.config, offset, &probes, 0);
        assert!(dirty.channel_residual > clean.channel_residual + 0.1);
    }
}
