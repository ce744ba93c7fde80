//! Quickstart: train a tiny classifier, push it into the wireless channel,
//! and classify a transmission over the air.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use metaai::config::SystemConfig;
use metaai::pipeline::MetaAiSystem;
use metaai_math::rng::SimRng;
use metaai_math::stats::argmax;
use metaai_nn::augment::Augmentation;
use metaai_nn::train::{toy_problem, TrainConfig};

fn main() {
    // 1. A small 4-class problem: 48 complex symbols per sample.
    let train = toy_problem(4, 48, 80, 0.4, 7, 70);
    let test = toy_problem(4, 48, 25, 0.4, 7, 71);
    println!(
        "dataset: {} train / {} test samples, U = {}",
        train.len(),
        test.len(),
        train.input_len()
    );

    // 2. The paper's default deployment: dual-band 16×16 metasurface at
    //    5.25 GHz, Tx 1 m / Rx 3 m, office multipath, CDFA sync.
    let config = SystemConfig::paper_default();

    // 3. Train the complex linear network digitally (with CDFA + noise
    //    augmentation, the paper's robustness schemes), then solve the
    //    2-bit metasurface schedule realizing its weights.
    let tcfg = TrainConfig {
        epochs: 25,
        ..TrainConfig::default()
    }
    .with_augmentation(Augmentation::cdfa_default())
    .with_augmentation(Augmentation::noise_default());
    let system = MetaAiSystem::builder()
        .config(config)
        .num_atoms(256)
        .train_and_deploy(&train, &tcfg);

    println!(
        "deployed: {} meta-atoms, weight-realization error {:.3} %",
        system.array.num_atoms(),
        100.0 * system.realization_error()
    );

    // 4. Compare the digital model against the over-the-air prototype.
    let digital = system.digital_accuracy(&test);
    let ota = system.ota_accuracy(&test, "quickstart");
    println!("digital (simulation) accuracy: {:.1} %", 100.0 * digital);
    println!("over-the-air (prototype) accuracy: {:.1} %", 100.0 * ota);

    // 5. One inference in detail: the receiver only ever sees R complex
    //    accumulations — never the raw sensor data.
    let mut rng = SimRng::seed_from_u64(99);
    let cond = system.default_conditions(test.input_len(), &mut rng);
    let scores = system.engine().scores(&test.inputs[0], &cond, &mut rng);
    println!("\nclass scores at the receiver for one transmission:");
    for (class, s) in scores.iter().enumerate() {
        let marker = if class == test.labels[0] {
            "  ← true class"
        } else {
            ""
        };
        println!("  class {class}: {s:.3e}{marker}");
    }
    println!("decision: class {}", argmax(&scores));
}
