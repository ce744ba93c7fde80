//! Shared experiment plumbing: context, dataset preparation, CSV output.

use metaai::config::SystemConfig;
use metaai::pipeline::MetaAiSystem;
use metaai_datasets::{generate, DatasetId, Scale};
use metaai_math::C64;
use metaai_mts::solver::{BatchOutput, SolverScratch, WeightSolver};
use metaai_nn::augment::Augmentation;
use metaai_nn::data::ComplexDataset;
use metaai_nn::train::TrainConfig;
use std::io::Write;
use std::path::Path;

/// Everything an experiment needs: the scale, a master seed, and an
/// output directory for CSVs.
#[derive(Clone, Debug)]
pub struct ExpContext {
    /// Dataset scale.
    pub scale: Scale,
    /// Master seed; every random stream derives from it.
    pub seed: u64,
    /// Directory CSV results are written into.
    pub out_dir: String,
}

impl Default for ExpContext {
    fn default() -> Self {
        ExpContext {
            scale: Scale::Default,
            seed: 42,
            out_dir: "results".into(),
        }
    }
}

impl ExpContext {
    /// A minimal context for tests and Criterion benches.
    pub fn quick(seed: u64) -> Self {
        ExpContext {
            scale: Scale::Quick,
            seed,
            out_dir: "results".into(),
        }
    }

    /// The training configuration for this scale: the paper's
    /// hyperparameters, epochs reduced for the smaller scales (linear
    /// models converge quickly).
    pub fn train_config(&self) -> TrainConfig {
        let epochs = match self.scale {
            Scale::Paper => 60,
            Scale::Default => 25,
            Scale::Quick => 15,
        };
        TrainConfig {
            epochs,
            seed: self.seed,
            ..TrainConfig::default()
        }
        .with_augmentation(Augmentation::cdfa_default())
        .with_augmentation(Augmentation::noise_default())
    }

    /// Generates and modulates one dataset with the default system
    /// modulation.
    pub fn dataset(&self, id: DatasetId) -> (ComplexDataset, ComplexDataset) {
        let cfg = SystemConfig::paper_default();
        generate(id, self.scale, self.seed).modulate(cfg.modulation)
    }

    /// Builds a deployed MetaAI system for one dataset with the default
    /// configuration, returning `(system, test set)`.
    pub fn deploy(&self, id: DatasetId) -> (MetaAiSystem, ComplexDataset) {
        let (train, test) = self.dataset(id);
        let config = SystemConfig {
            seed: self.seed,
            ..SystemConfig::paper_default()
        };
        (
            MetaAiSystem::builder()
                .config(config.clone())
                .train_and_deploy(&train, &self.train_config()),
            test,
        )
    }
}

/// Writes rows as CSV under `out_dir/name.csv` (creating the directory),
/// with a header line. Failures are reported but not fatal — experiments
/// still print their results.
pub fn csv_write(out_dir: &str, name: &str, header: &str, rows: &[String]) {
    let dir = Path::new(out_dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {out_dir}: {e}");
        return;
    }
    let path = dir.join(format!("{name}.csv"));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let _ = writeln!(f, "{header}");
            for r in rows {
                let _ = writeln!(f, "{r}");
            }
        }
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Each target's residual from one cold lane-kernel batch of a
/// single-target `solver`, in target order.
pub fn batch_residuals(solver: &WeightSolver, targets: &[C64]) -> Vec<f64> {
    let n = targets.len();
    let mut residual = vec![0.0; n];
    let out = BatchOutput {
        codes: &mut vec![0; n * solver.num_atoms()],
        achieved: &mut vec![C64::ZERO; n],
        residual: &mut residual,
    };
    solver.solve_batch(
        targets,
        &solver.state_table(),
        &mut SolverScratch::new(),
        out,
    );
    residual
}

/// Formats an accuracy as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_context_uses_quick_scale() {
        let ctx = ExpContext::quick(1);
        assert_eq!(ctx.scale, Scale::Quick);
        assert_eq!(ctx.train_config().epochs, 15);
    }

    #[test]
    fn dataset_shapes_are_consistent() {
        let ctx = ExpContext::quick(2);
        let (train, test) = ctx.dataset(DatasetId::Afhq);
        assert_eq!(train.num_classes, 3);
        assert_eq!(train.input_len(), test.input_len());
    }

    #[test]
    fn csv_write_creates_file() {
        let dir = std::env::temp_dir().join("metaai-csv-test");
        let dir_s = dir.to_str().expect("utf8").to_string();
        csv_write(&dir_s, "probe", "a,b", &["1,2".into()]);
        let content = std::fs::read_to_string(dir.join("probe.csv")).expect("written");
        assert!(content.contains("a,b"));
        assert!(content.contains("1,2"));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.8977), "89.77");
    }
}
