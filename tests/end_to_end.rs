//! End-to-end integration tests spanning every crate: dataset generation →
//! modulation → training → weight mapping → over-the-air inference.

use metaai::config::SystemConfig;
use metaai::ota::OtaConditions;
use metaai::pipeline::{redeploy, MetaAiSystem};
use metaai_datasets::{generate, DatasetId, Scale};
use metaai_math::rng::SimRng;
use metaai_math::C64;
use metaai_nn::augment::Augmentation;
use metaai_nn::train::TrainConfig;

fn train_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 15,
        ..TrainConfig::default()
    }
    .with_augmentation(Augmentation::cdfa_default())
    .with_augmentation(Augmentation::noise_default())
}

fn quick_mnist_system() -> (MetaAiSystem, metaai_nn::data::ComplexDataset) {
    let split = generate(DatasetId::Mnist, Scale::Quick, 77);
    let config = SystemConfig::paper_default();
    let (train, test) = split.modulate(config.modulation);
    (
        MetaAiSystem::builder()
            .config(config.clone())
            .train_and_deploy(&train, &train_cfg()),
        test,
    )
}

#[test]
fn full_pipeline_beats_chance_over_the_air() {
    let (sys, test) = quick_mnist_system();
    let acc = sys.ota_accuracy(&test, "e2e");
    assert!(acc > 0.25, "10-class OTA accuracy {acc}");
}

#[test]
fn weight_realization_error_is_below_two_percent() {
    let (sys, _) = quick_mnist_system();
    let err = sys.realization_error();
    assert!(err < 0.02, "realization error {err}");
}

#[test]
fn ota_inference_is_fully_deterministic() {
    let (sys, test) = quick_mnist_system();
    assert_eq!(
        sys.ota_accuracy(&test, "det"),
        sys.ota_accuracy(&test, "det")
    );
}

#[test]
fn classification_is_invariant_to_global_weight_scale() {
    // The property that lets the MTS ignore α_p (Sec 3.2): scaling every
    // weight by one complex factor never changes a decision.
    let (sys, test) = quick_mnist_system();
    let mut scaled = sys.net.clone();
    for w in scaled.weights.as_mut_slice() {
        *w *= C64::from_polar(2.5, 0.9);
    }
    for x in test.inputs.iter().take(30) {
        assert_eq!(sys.net.predict(x), scaled.predict(x));
    }
}

#[test]
fn ideal_channel_matches_digital_decisions_almost_everywhere() {
    let (sys, test) = quick_mnist_system();
    let n = test.input_len();
    let mut rng = SimRng::seed_from_u64(1);
    let cond = OtaConditions::ideal(n);
    let engine = sys.engine();
    let agree = test
        .inputs
        .iter()
        .take(60)
        .filter(|x| engine.predict(x, &cond, &mut rng) == sys.net.predict(x))
        .count();
    assert!(agree >= 57, "ideal-channel agreement {agree}/60");
}

#[test]
fn redeployment_keeps_accuracy_at_nearby_positions() {
    let (sys, test) = quick_mnist_system();
    let here = sys.ota_accuracy(&test, "move-a");
    let cfg = SystemConfig::paper_default().with_rx_at(4.0, 20.0);
    let moved = redeploy(&sys, &cfg);
    let there = moved.ota_accuracy(&test, "move-b");
    assert!(
        there > here - 0.15,
        "accuracy after move: {there} vs {here}"
    );
}

#[test]
fn every_dataset_flows_through_the_whole_stack() {
    let config = SystemConfig::paper_default();
    for id in DatasetId::all() {
        let split = generate(id, Scale::Quick, 3);
        let (train, test) = split.modulate(config.modulation);
        let sys = MetaAiSystem::builder()
            .config(config.clone())
            .train_and_deploy(&train, &train_cfg());
        let acc = sys.ota_accuracy(&test, &format!("all-{}", id.name()));
        let chance = 1.0 / train.num_classes as f64;
        assert!(
            acc > 1.5 * chance,
            "{}: OTA accuracy {acc} vs chance {chance}",
            id.name()
        );
    }
}

#[test]
fn prototype_tracks_simulation_within_the_paper_band() {
    let (sys, test) = quick_mnist_system();
    let sim = sys.digital_accuracy(&test);
    let proto = sys.ota_accuracy(&test, "band");
    // The paper's gap is ≤ 7 points at full scale; quick scale is noisier,
    // so allow a wider band but demand the same direction of effect.
    assert!(
        proto <= sim + 0.10,
        "prototype {proto} should not beat simulation {sim} by much"
    );
    assert!(
        proto >= sim - 0.25,
        "prototype {proto} too far below simulation {sim}"
    );
}

/// The tier-1 accuracy pin formerly recorded in BENCH_pr10.json's
/// `accuracy` section (0.458333 digital / 0.391667 OTA): AFHQ quick,
/// seed 42, 8 epochs with CDFA only, deployed on the paper's 256-atom
/// prototype. Everything is seeded and thread-count independent, so the
/// counts are exact. The scenario recipes train with CDFA plus noise, so
/// they do not cover this configuration.
#[test]
fn afhq_quick_accuracy_is_pinned_exactly() {
    let config = SystemConfig::paper_default();
    let (train, test) = generate(DatasetId::Afhq, Scale::Quick, 42).modulate(config.modulation);
    let tcfg = TrainConfig {
        epochs: 8,
        seed: 42,
        ..TrainConfig::default()
    }
    .with_augmentation(Augmentation::cdfa_default());
    let system = MetaAiSystem::builder()
        .config(config)
        .num_atoms(256)
        .train_and_deploy(&train, &tcfg);
    assert_eq!(test.len(), 120);
    assert_eq!(system.digital_accuracy(&test), 55.0 / 120.0);
    assert_eq!(system.ota_accuracy(&test, "perf-report"), 47.0 / 120.0);
}
