//! Parallelism experiments: Fig 18 (schemes vs baseline on three
//! datasets) and Fig 31 (accuracy vs number of subcarriers / antennas).

use crate::common::{csv_write, pct, ExpContext};
use metaai::config::SystemConfig;
use metaai::parallel::{antenna_positions, AntennaParallel, SubcarrierParallel};
use metaai::pipeline::MetaAiSystem;
use metaai_datasets::DatasetId;
use metaai_mts::array::MtsArray;
use metaai_nn::engine::TrainEngine;

/// One Fig 18 row: baseline (sequential), subcarrier-parallel, and
/// antenna-parallel accuracy for one dataset.
#[derive(Clone, Debug)]
pub struct Fig18Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// Sequential baseline (one transmission per class).
    pub baseline: f64,
    /// Subcarrier-based parallelism.
    pub subcarrier: f64,
    /// Antenna-based parallelism.
    pub antenna: f64,
}

/// Runs Fig 18 on the given datasets.
pub fn fig18(ctx: &ExpContext, datasets: &[DatasetId]) -> Vec<Fig18Row> {
    datasets
        .iter()
        .map(|&id| {
            let (train, test) = ctx.dataset(id);
            let config = SystemConfig {
                seed: ctx.seed,
                ..SystemConfig::paper_default()
            };
            let net = TrainEngine::new(ctx.train_config()).train(&train);

            let sys = MetaAiSystem::builder()
                .config(config.clone())
                .deploy(net.clone());
            let baseline = sys.ota_accuracy(&test, &format!("fig18-base-{}", id.name()));

            let array = MtsArray::paper_prototype(config.prototype, config.mts_center);
            let sub = SubcarrierParallel::deploy(&net, &config, &array);
            let subcarrier = sub.accuracy(&test.inputs, &test.labels, config.snr_db, ctx.seed);

            let rx = antenna_positions(&config, net.num_classes(), 8.0);
            let ant = AntennaParallel::deploy(&net, &config, &array, &rx);
            let antenna = ant.accuracy(&test.inputs, &test.labels, config.snr_db, ctx.seed);

            Fig18Row {
                dataset: id.name(),
                baseline,
                subcarrier,
                antenna,
            }
        })
        .collect()
}

/// Fig 31: accuracy vs parallelism degree. Trains one network per class
/// count `k` on a `k`-class toy problem and deploys it both ways.
/// Returns `(k, subcarrier_acc, antenna_acc)`.
pub fn fig31(ctx: &ExpContext, degrees: &[usize]) -> Vec<(usize, f64, f64)> {
    degrees
        .iter()
        .map(|&k| {
            let train =
                metaai_nn::train::toy_problem(k, 64, 60, 1.1, ctx.seed + k as u64, ctx.seed + 1);
            let test =
                metaai_nn::train::toy_problem(k, 64, 40, 1.1, ctx.seed + k as u64, ctx.seed + 2);
            let config = SystemConfig {
                seed: ctx.seed,
                ..SystemConfig::paper_default()
            };
            let net = TrainEngine::new(metaai_nn::train::TrainConfig {
                epochs: 25,
                ..metaai_nn::train::TrainConfig::default()
            })
            .train(&train);
            let array = MtsArray::paper_prototype(config.prototype, config.mts_center);

            // A tighter link budget than the default makes the
            // parallelism cost (noise bandwidth, joint-solve coupling)
            // visible, as in the paper's sweep.
            let snr = 14.0;
            let sub = SubcarrierParallel::deploy(&net, &config, &array);
            let sub_acc = sub.accuracy(&test.inputs, &test.labels, snr, ctx.seed);

            let rx = antenna_positions(&config, k, 8.0);
            let ant = AntennaParallel::deploy(&net, &config, &array, &rx);
            let ant_acc = ant.accuracy(&test.inputs, &test.labels, snr, ctx.seed);

            (k, sub_acc, ant_acc)
        })
        .collect()
}

/// Prints and persists both parallelism experiments.
pub fn report_all(ctx: &ExpContext) {
    let rows = fig18(
        ctx,
        &[DatasetId::Mnist, DatasetId::Fruits360, DatasetId::Widar3],
    );
    println!("\nFig 18: parallelism schemes vs baseline");
    println!(
        "{:<12} {:>9} {:>11} {:>8}",
        "Dataset", "Baseline", "Subcarrier", "Antenna"
    );
    let mut csv = Vec::new();
    for r in &rows {
        println!(
            "{:<12} {:>9} {:>11} {:>8}",
            r.dataset,
            pct(r.baseline),
            pct(r.subcarrier),
            pct(r.antenna)
        );
        csv.push(format!(
            "{},{},{},{}",
            r.dataset,
            pct(r.baseline),
            pct(r.subcarrier),
            pct(r.antenna)
        ));
    }
    csv_write(
        &ctx.out_dir,
        "fig18",
        "dataset,baseline,subcarrier,antenna",
        &csv,
    );

    let f31 = fig31(ctx, &[2, 4, 6, 8, 10]);
    println!("\nFig 31: accuracy vs parallelism degree");
    for (k, s, a) in &f31 {
        println!("  K={k:<3} subcarrier={} antenna={}", pct(*s), pct(*a));
    }
    csv_write(
        &ctx.out_dir,
        "fig31",
        "degree,subcarrier,antenna",
        &f31.iter()
            .map(|(k, s, a)| format!("{k},{},{}", pct(*s), pct(*a)))
            .collect::<Vec<_>>(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig31_runs_and_stays_above_chance() {
        let ctx = ExpContext::quick(21);
        let f = fig31(&ctx, &[2, 4]);
        for (k, s, a) in &f {
            assert!(*s > 1.2 / *k as f64, "subcarrier K={k} acc {s}");
            assert!(*a > 1.2 / *k as f64, "antenna K={k} acc {a}");
        }
    }
}
