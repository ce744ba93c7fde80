//! Smart retail: fruit recognition over the air with hardware-fault
//! injection.
//!
//! The paper motivates MetaAI with "scalable smart inventory and retail":
//! shelf cameras transmit produce images through a shared metasurface that
//! classifies them in flight, so the store's edge server only logs
//! inventory classes — never raw shelf footage. This example deploys the
//! Fruits-360 stand-in and then stress-tests the installation: stuck
//! meta-atoms (a aging PIN diode driver), and a receiver that drifts away
//! from the calibrated position, followed by the feedback-protocol
//! recalibration.
//!
//! ```sh
//! cargo run --release --example smart_retail
//! ```

use metaai::config::SystemConfig;
use metaai::ota::realize_channels;
use metaai::pipeline::{redeploy, MetaAiSystem};
use metaai_datasets::{generate, DatasetId, Scale};
use metaai_math::rng::SimRng;
use metaai_nn::augment::Augmentation;
use metaai_nn::data::ComplexDataset;
use metaai_nn::train::TrainConfig;

fn main() {
    let split = generate(DatasetId::Fruits360, Scale::Default, 11);
    let config = SystemConfig::paper_default();
    let (train_full, test_full) = split.modulate(config.modulation);
    // A mid-size slice keeps the example under a minute while staying out
    // of the tiny-data overfitting regime.
    let train = train_full.take(1600);
    let test: ComplexDataset = test_full.take(400);
    println!(
        "fruit shelf: {} classes, {} training captures",
        train.num_classes,
        train.len()
    );

    let tcfg = TrainConfig {
        epochs: 20,
        ..TrainConfig::default()
    }
    .with_augmentation(Augmentation::cdfa_default())
    .with_augmentation(Augmentation::noise_default());
    let mut system = MetaAiSystem::builder()
        .config(config.clone())
        .train_and_deploy(&train, &tcfg);
    let healthy = system.ota_accuracy(&test, "retail-healthy");
    println!("healthy installation: {:.1} % accuracy", 100.0 * healthy);

    // A driver column fails: 5 % of atoms stick at random states. The
    // remaining 95 % of the aperture keeps the classifier serviceable —
    // the weight sum is a 256-way redundancy.
    let mut rng = SimRng::seed_from_u64(5);
    system.array.inject_stuck_faults(0.05, &mut rng);
    let link =
        metaai_mts::channel::MtsLink::new(&system.array, config.tx, config.rx, config.freq_hz);
    system.set_channels(realize_channels(&system.schedule, &link, &system.array));
    let degraded = system.ota_accuracy(&test, "retail-stuck");
    println!("with 5 % stuck atoms: {:.1} %", 100.0 * degraded);

    // The scanner trolley moves the receiver 2 m — the old schedule is
    // now solved for the wrong geometry.
    let moved_cfg = SystemConfig::paper_default().with_rx_at(5.0, 25.0);
    let mut stale = MetaAiSystem::builder()
        .config(config.clone())
        .deploy(system.net.clone());
    // Stale: schedule for the OLD position, receiver at the NEW one.
    let moved_link = metaai_mts::channel::MtsLink::new(
        &stale.array,
        moved_cfg.tx,
        moved_cfg.rx,
        moved_cfg.freq_hz,
    );
    stale.set_channels(realize_channels(&stale.schedule, &moved_link, &stale.array));
    let stale_acc = stale.ota_accuracy(&test, "retail-stale");
    println!(
        "after receiver moved (stale schedule): {:.1} %",
        100.0 * stale_acc
    );

    // Feedback protocol kicks in: re-estimate the angle by beam scanning,
    // re-solve the schedule, resume.
    let recalibrated = redeploy(&system, &moved_cfg);
    let recal_acc = recalibrated.ota_accuracy(&test, "retail-recal");
    println!("after recalibration: {:.1} %", 100.0 * recal_acc);

    let control = metaai_mts::control::ControlModel::default();
    let mobility = metaai::mobility::MobilityModel::paper_prototype(0.05);
    println!(
        "recalibration latency {:.1} ms → max trackable trolley speed at 5 m: {:.1} m/s",
        1e3 * mobility.recalibration_s(&control),
        mobility.max_trackable_speed(&control, 5.0)
    );
}
