//! Integration tests for the paper's individual schemes, each exercised
//! through the full cross-crate stack.

use metaai::config::SystemConfig;
use metaai::fusion::fuse_views;
use metaai::parallel::{antenna_positions, AntennaParallel, SubcarrierParallel};
use metaai::pipeline::MetaAiSystem;
use metaai_datasets::multisensor::{generate_multisensor, MultiSensorId};
use metaai_datasets::{encode_bytes_dataset, generate, DatasetId, Scale};
use metaai_math::C64;
use metaai_mts::array::MtsArray;
use metaai_nn::augment::Augmentation;
use metaai_nn::data::ComplexDataset;
use metaai_nn::engine::TrainEngine;
use metaai_nn::train::TrainConfig;
use metaai_phy::sync::SyncErrorModel;
use metaai_rf::environment::EnvChannel;

fn train_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 15,
        ..TrainConfig::default()
    }
    .with_augmentation(Augmentation::cdfa_default())
    .with_augmentation(Augmentation::noise_default())
}

#[test]
fn cancellation_rescues_a_hostile_static_environment() {
    let split = generate(DatasetId::Mnist, Scale::Quick, 9);
    let config = SystemConfig::paper_default();
    let (train, test) = split.modulate(config.modulation);
    let sys = MetaAiSystem::builder()
        .config(config.clone())
        .train_and_deploy(&train, &train_cfg());
    let n = test.input_len();

    // A static env path as strong as the computation path itself.
    let strength = metaai::ota::signal_power(&sys.channels).sqrt();
    let with = sys.ota_accuracy_with(&test, "canc-on", |rng| {
        let mut c = sys.default_conditions(n, rng);
        c.env = EnvChannel::constant(C64::from_polar(strength, rng.phase()), n);
        c.cancellation = true;
        c
    });
    let without = sys.ota_accuracy_with(&test, "canc-off", |rng| {
        let mut c = sys.default_conditions(n, rng);
        c.env = EnvChannel::constant(C64::from_polar(strength, rng.phase()), n);
        c.cancellation = false;
        c
    });
    assert!(
        with > without + 0.05,
        "cancellation {with} must beat raw {without}"
    );
}

#[test]
fn cdfa_outperforms_coarse_only_sync() {
    let split = generate(DatasetId::Mnist, Scale::Quick, 10);
    let config = SystemConfig {
        sync_error: None,
        ..SystemConfig::paper_default()
    };
    let (train, test) = split.modulate(config.modulation);
    let model = SyncErrorModel::default();
    let n = test.input_len();

    let plain_cfg = TrainConfig {
        epochs: 15,
        ..TrainConfig::default()
    };
    let sys_plain = MetaAiSystem::builder()
        .config(config.clone())
        .train_and_deploy(&train, &plain_cfg);
    let coarse = sys_plain.ota_accuracy_with(&test, "cd", |rng| {
        let mut c = sys_plain.default_conditions(n, rng);
        c.sync_shift = model.sample_coarse_residual_symbols(1e6, rng);
        c
    });

    let sys_cdfa = MetaAiSystem::builder()
        .config(config.clone())
        .train_and_deploy(&train, &train_cfg());
    let fine = sys_cdfa.ota_accuracy_with(&test, "cdfa", |rng| {
        let mut c = sys_cdfa.default_conditions(n, rng);
        c.sync_shift = model.sample_residual_symbols(1e6, rng);
        c
    });
    assert!(fine > coarse, "CDFA {fine} must beat coarse-only {coarse}");
}

#[test]
fn noise_training_helps_at_low_snr() {
    let split = generate(DatasetId::Mnist, Scale::Quick, 11);
    let config = SystemConfig {
        snr_db: 6.0,
        ..SystemConfig::paper_default()
    };
    let (train, test) = split.modulate(config.modulation);

    let plain = TrainConfig {
        epochs: 15,
        ..TrainConfig::default()
    }
    .with_augmentation(Augmentation::cdfa_default());
    let robust = plain
        .clone()
        .with_augmentation(Augmentation::noise_default());

    let acc_plain = MetaAiSystem::builder()
        .config(config.clone())
        .train_and_deploy(&train, &plain)
        .ota_accuracy(&test, "nz-a");
    let acc_robust = MetaAiSystem::builder()
        .config(config.clone())
        .train_and_deploy(&train, &robust)
        .ota_accuracy(&test, "nz-b");
    assert!(
        acc_robust >= acc_plain - 0.05,
        "noise-trained {acc_robust} vs plain {acc_plain}"
    );
}

#[test]
fn both_parallelism_schemes_classify_one_shot() {
    let train = metaai_nn::train::toy_problem(4, 64, 50, 0.4, 12, 112);
    let test = metaai_nn::train::toy_problem(4, 64, 20, 0.4, 12, 212);
    let config = SystemConfig::paper_default();
    let net = TrainEngine::new(TrainConfig {
        epochs: 20,
        ..TrainConfig::default()
    })
    .train(&train);
    let array = MtsArray::paper_prototype(config.prototype, config.mts_center);

    let sub = SubcarrierParallel::deploy(&net, &config, &array);
    let sub_acc = sub.accuracy(&test.inputs, &test.labels, 25.0, 1);
    assert!(sub_acc > 0.6, "subcarrier accuracy {sub_acc}");

    let rx = antenna_positions(&config, 4, 10.0);
    let ant = AntennaParallel::deploy(&net, &config, &array, &rx);
    let ant_acc = ant.accuracy(&test.inputs, &test.labels, 25.0, 1);
    assert!(ant_acc > 0.6, "antenna accuracy {ant_acc}");
}

#[test]
fn multi_sensor_fusion_does_not_hurt() {
    let split = generate_multisensor(MultiSensorId::MultiPie, Scale::Quick, 13);
    let config = SystemConfig::paper_default();
    let views: Vec<ComplexDataset> = split
        .train
        .views
        .iter()
        .map(|v| encode_bytes_dataset(v, config.modulation))
        .collect();
    let test_views: Vec<ComplexDataset> = split
        .test
        .views
        .iter()
        .map(|v| encode_bytes_dataset(v, config.modulation))
        .collect();

    let one = MetaAiSystem::builder()
        .config(config.clone())
        .train_and_deploy(&fuse_views(&views, 1), &train_cfg())
        .ota_accuracy(&fuse_views(&test_views, 1), "fuse-1");
    let three = MetaAiSystem::builder()
        .config(config.clone())
        .train_and_deploy(&fuse_views(&views, 3), &train_cfg())
        .ota_accuracy(&fuse_views(&test_views, 3), "fuse-3");
    assert!(
        three + 0.05 >= one,
        "3-view fusion {three} should not lose to single view {one}"
    );
}
