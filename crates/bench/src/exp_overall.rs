//! Table 1 — overall accuracy across the six datasets, five systems.
//!
//! Columns: deep digital baseline ("ResNet18" role), DiscreteNN in
//! simulation and on the prototype channel, MetaAI in simulation and on
//! the prototype channel.

use crate::common::{csv_write, pct, ExpContext};
use metaai::config::SystemConfig;
use metaai::pipeline::MetaAiSystem;
use metaai_datasets::{generate, to_real_dataset, DatasetId};
use metaai_nn::deep::{train_deep, DeepConfig};
use metaai_nn::discrete::train_discrete;
use metaai_nn::train::evaluate;

/// One Table 1 row.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// Deep digital baseline accuracy (ResNet-18 column role).
    pub deep: f64,
    /// DiscreteNN, digital simulation.
    pub discrete_sim: f64,
    /// DiscreteNN deployed over the prototype channel.
    pub discrete_proto: f64,
    /// MetaAI, digital simulation.
    pub metaai_sim: f64,
    /// MetaAI deployed over the prototype channel.
    pub metaai_proto: f64,
}

/// Runs one dataset's row.
pub fn run_row(ctx: &ExpContext, id: DatasetId) -> Table1Row {
    let split = generate(id, ctx.scale, ctx.seed);
    let config = SystemConfig {
        seed: ctx.seed,
        ..SystemConfig::paper_default()
    };
    let (train_c, test_c) = split.modulate(config.modulation);
    let tcfg = ctx.train_config();

    // MetaAI: continuous training, then prototype deployment.
    let system = MetaAiSystem::builder()
        .config(config.clone())
        .train_and_deploy(&train_c, &tcfg);
    let metaai_sim = system.digital_accuracy(&test_c);
    let metaai_proto = system.ota_accuracy(&test_c, &format!("table1-{}", id.name()));

    // DiscreteNN: discrete weights from the start, same deployment path.
    let disc = train_discrete(&train_c, &tcfg, 2);
    let discrete_sim = evaluate(&disc, &test_c);
    let disc_system = MetaAiSystem::builder().config(config.clone()).deploy(disc);
    let discrete_proto = disc_system.ota_accuracy(&test_c, &format!("table1-disc-{}", id.name()));

    // Deep digital baseline on raw real features.
    let deep_cfg = DeepConfig {
        seed: ctx.seed,
        epochs: tcfg.epochs.max(20),
        ..DeepConfig::default()
    };
    let deep_net = train_deep(&to_real_dataset(&split.train), &deep_cfg);
    let deep = deep_net.accuracy(&to_real_dataset(&split.test));

    Table1Row {
        dataset: id.name(),
        deep,
        discrete_sim,
        discrete_proto,
        metaai_sim,
        metaai_proto,
    }
}

/// Runs the full table.
pub fn run(ctx: &ExpContext, datasets: &[DatasetId]) -> Vec<Table1Row> {
    datasets.iter().map(|&id| run_row(ctx, id)).collect()
}

/// Prints the table and writes `table1.csv`.
pub fn report(ctx: &ExpContext, rows: &[Table1Row]) {
    println!("\nTable 1: accuracy (%) under different datasets");
    println!(
        "{:<12} {:>8} {:>12} {:>13} {:>11} {:>13}",
        "Dataset", "Deep", "DiscreteSim", "DiscreteProto", "MetaAI-Sim", "MetaAI-Proto"
    );
    let mut csv = Vec::new();
    for r in rows {
        println!(
            "{:<12} {:>8} {:>12} {:>13} {:>11} {:>13}",
            r.dataset,
            pct(r.deep),
            pct(r.discrete_sim),
            pct(r.discrete_proto),
            pct(r.metaai_sim),
            pct(r.metaai_proto)
        );
        csv.push(format!(
            "{},{},{},{},{},{}",
            r.dataset,
            pct(r.deep),
            pct(r.discrete_sim),
            pct(r.discrete_proto),
            pct(r.metaai_sim),
            pct(r.metaai_proto)
        ));
    }
    csv_write(
        &ctx.out_dir,
        "table1",
        "dataset,deep,discrete_sim,discrete_proto,metaai_sim,metaai_proto",
        &csv,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnist_row_is_sane_at_quick_scale() {
        // Quick scale (300 train samples on a 784-dim problem) is a smoke
        // test: the Table 1 orderings need the default scale, and no test
        // checks them yet.
        let ctx = ExpContext::quick(7);
        let r = run_row(&ctx, DatasetId::Mnist);
        let chance = 1.0 / 10.0;
        assert!(r.deep > 3.0 * chance, "deep accuracy {}", r.deep);
        assert!(r.metaai_sim > 2.0 * chance, "MetaAI sim {}", r.metaai_sim);
        assert!(
            r.metaai_proto > 2.0 * chance,
            "MetaAI proto {}",
            r.metaai_proto
        );
        assert!(
            r.discrete_sim > 2.0 * chance,
            "Discrete sim {}",
            r.discrete_sim
        );
    }
}
