//! Ablations of MetaAI's design choices, beyond the paper's figures.
//!
//! Each ablation isolates one knob the paper fixes by fiat and shows the
//! trade-off it buys:
//!
//! * **κ** — the weight-scaling safety factor (Sec 3.2 picks "within the
//!   reachable disk"; we sweep how close to the boundary is safe);
//! * **bit depth** — 1/2/3-bit meta-atoms (the paper: "2-bit … a
//!   practical trade-off between cost and performance");
//! * **solver sweeps** — coordinate-descent iterations vs residual;
//! * **preamble averaging** — detections per preamble vs accuracy (the
//!   fine-grained sync stage's knob);
//! * **atom phase noise** — fabrication-quality sensitivity;
//! * **Eqn 8 vs intra-symbol cancellation** — static channel
//!   compensation against the zero-mean chip scheme, in static *and*
//!   dynamic environments (the paper argues cancellation wins once the
//!   environment moves — we measure it);
//! * **linear vs nonlinear** — the future-work deep complex network
//!   against the deployed LNN, quantifying the accuracy the linear
//!   constraint costs.

use crate::common::{batch_residuals, csv_write, pct, ExpContext};
use metaai::config::SystemConfig;
use metaai::mapper::WeightMapper;
use metaai::ota::{realize_channels, signal_power};
use metaai::pipeline::MetaAiSystem;
use metaai_datasets::DatasetId;
use metaai_math::rng::SimRng;
use metaai_math::C64;
use metaai_mts::array::{MtsArray, Prototype};
use metaai_mts::solver::WeightSolver;
use metaai_nn::deep_complex::{train_deep_complex, DeepComplexConfig};
use metaai_nn::engine::TrainEngine;
use metaai_phy::sync::SyncErrorModel;
use metaai_rf::environment::EnvChannel;

/// κ sweep: weight-realization error and OTA accuracy vs the scaling
/// safety factor. Returns `(κ, relative error, accuracy)`.
pub fn kappa_sweep(ctx: &ExpContext, kappas: &[f64]) -> Vec<(f64, f64, f64)> {
    let (train, test) = ctx.dataset(DatasetId::Afhq);
    let net = TrainEngine::new(ctx.train_config()).train(&train);
    kappas
        .iter()
        .map(|&kappa| {
            let config = SystemConfig {
                kappa,
                seed: ctx.seed,
                ..SystemConfig::paper_default()
            };
            let sys = MetaAiSystem::builder()
                .config(config.clone())
                .deploy(net.clone());
            let err = sys.realization_error();
            let acc = sys.ota_accuracy(&test, &format!("abl-kappa-{kappa}"));
            (kappa, err, acc)
        })
        .collect()
}

/// Bit-depth sweep: per-weight solve residual at 1/2/3-bit atoms.
/// Returns `(bits, mean relative residual)`.
pub fn bit_depth_sweep(ctx: &ExpContext) -> Vec<(u8, f64)> {
    let mut rng = SimRng::derive(ctx.seed, "abl-bits");
    let phasors: Vec<C64> = (0..256).map(|_| rng.unit_phasor()).collect();
    (1u8..=3)
        .map(|bits| {
            let solver = WeightSolver::single(phasors.clone(), bits);
            let reach = solver.reachable_radius(0);
            let trials = 80;
            let targets: Vec<C64> = (0..trials)
                .map(|_| C64::from_polar(0.6 * reach * rng.uniform().sqrt(), rng.phase()))
                .collect();
            let mean: f64 = batch_residuals(&solver, &targets)
                .iter()
                .map(|r| r / reach)
                .sum::<f64>()
                / trials as f64;
            (bits, mean)
        })
        .collect()
}

/// Solver-sweep ablation: coordinate-descent iterations vs residual.
/// Returns `(max_sweeps, mean residual)`.
pub fn solver_sweeps(ctx: &ExpContext, sweeps: &[usize]) -> Vec<(usize, f64)> {
    let mut rng = SimRng::derive(ctx.seed, "abl-sweeps");
    let phasors: Vec<C64> = (0..256).map(|_| rng.unit_phasor()).collect();
    let targets: Vec<C64> = (0..60)
        .map(|_| C64::from_polar(110.0 * rng.uniform().sqrt(), rng.phase()))
        .collect();
    sweeps
        .iter()
        .map(|&s| {
            let mut solver = WeightSolver::single(phasors.clone(), 2);
            solver.max_sweeps = s;
            let mean: f64 =
                batch_residuals(&solver, &targets).iter().sum::<f64>() / targets.len() as f64;
            (s, mean)
        })
        .collect()
}

/// Preamble-averaging ablation: detections per preamble vs OTA accuracy.
pub fn detection_averaging(ctx: &ExpContext, detections: &[usize]) -> Vec<(usize, f64)> {
    let (train, test) = ctx.dataset(DatasetId::Mnist);
    let config = SystemConfig {
        sync_error: None,
        seed: ctx.seed,
        ..SystemConfig::paper_default()
    };
    let sys = MetaAiSystem::builder()
        .config(config.clone())
        .train_and_deploy(&train, &ctx.train_config());
    let n = test.input_len();
    detections
        .iter()
        .map(|&d| {
            let model = SyncErrorModel {
                detections: d,
                ..SyncErrorModel::default()
            };
            let acc = sys.ota_accuracy_with(&test, &format!("abl-det-{d}"), |rng| {
                let mut c = sys.default_conditions(n, rng);
                c.sync_shift = model.sample_residual_symbols(config.symbol_rate, rng);
                c
            });
            (d, acc)
        })
        .collect()
}

/// Fabrication-quality sensitivity: per-atom phase-error σ vs accuracy.
pub fn phase_noise_sweep(ctx: &ExpContext, sigmas: &[f64]) -> Vec<(f64, f64)> {
    let (train, test) = ctx.dataset(DatasetId::Mnist);
    let net = TrainEngine::new(ctx.train_config()).train(&train);
    sigmas
        .iter()
        .map(|&sigma| {
            let config = SystemConfig {
                atom_phase_noise: sigma,
                seed: ctx.seed,
                ..SystemConfig::paper_default()
            };
            let sys = MetaAiSystem::builder()
                .config(config.clone())
                .deploy(net.clone());
            (sigma, sys.ota_accuracy(&test, &format!("abl-pn-{sigma}")))
        })
        .collect()
}

/// Eqn 8 (static compensation) vs intra-symbol cancellation, in a static
/// and a slowly drifting environment. Returns rows
/// `(scheme, static_acc, dynamic_acc)`.
pub fn multipath_scheme_comparison(ctx: &ExpContext) -> Vec<(&'static str, f64, f64)> {
    let (train, test) = ctx.dataset(DatasetId::Mnist);
    let n = test.input_len();
    let base = SystemConfig {
        seed: ctx.seed,
        ..SystemConfig::paper_default()
    };
    let net = TrainEngine::new(ctx.train_config()).train(&train);

    // The environmental gain both schemes must defeat.
    let mut env_rng = SimRng::derive(ctx.seed, "abl-env");
    let probe = MetaAiSystem::builder()
        .config(base.clone())
        .deploy(net.clone());
    let h_env_phys = C64::from_polar(signal_power(&probe.channels).sqrt() * 0.8, env_rng.phase());

    // Eqn 8: fold −H_e/α into the solve targets, no chip flipping.
    let array = {
        let mut a = MtsArray::paper_prototype(Prototype::DualBand, base.mts_center);
        let mut rng = SimRng::derive(base.seed, "atom-phase-noise");
        a.inject_phase_noise(base.atom_phase_noise, &mut rng);
        a
    };
    let mapper = WeightMapper::new(&base, &array);
    let h_env_norm = h_env_phys / mapper.link.alpha;
    let sched_eqn8 = mapper.map(&net.weights, h_env_norm);
    let mut sys_eqn8 = MetaAiSystem::builder()
        .config(base.clone())
        .deploy(net.clone());
    sys_eqn8.set_channels(realize_channels(&sched_eqn8, &mapper.link, &array));

    // Cancellation: the standard deployment.
    let sys_cancel = probe;

    let run = |sys: &MetaAiSystem, cancel: bool, drift: f64, tag: &str| {
        sys.ota_accuracy_with(&test, tag, |rng| {
            let mut c = sys.default_conditions(n, rng);
            c.cancellation = cancel;
            // Environment: H_e, drifting in phase between symbols at the
            // given rate (rad/symbol) — zero drift = static.
            let phase0 = rng.phase() * drift.signum().abs(); // static case keeps the solved phase
            let gains: Vec<C64> = (0..n)
                .map(|i| {
                    if drift == 0.0 {
                        h_env_phys
                    } else {
                        h_env_phys * C64::cis(phase0 + drift * i as f64)
                    }
                })
                .collect();
            c.env = EnvChannel { gains };
            c
        })
    };

    vec![
        (
            "eqn8-compensation",
            run(&sys_eqn8, false, 0.0, "abl-eqn8-static"),
            run(&sys_eqn8, false, 0.05, "abl-eqn8-dynamic"),
        ),
        (
            "intra-symbol-cancellation",
            run(&sys_cancel, true, 0.0, "abl-cancel-static"),
            run(&sys_cancel, true, 0.05, "abl-cancel-dynamic"),
        ),
    ]
}

/// Linear vs deep complex network (the paper's future-work extension):
/// digital accuracy of both on the same datasets.
pub fn linear_vs_nonlinear(
    ctx: &ExpContext,
    datasets: &[DatasetId],
) -> Vec<(&'static str, f64, f64)> {
    datasets
        .iter()
        .map(|&id| {
            let (train, test) = ctx.dataset(id);
            let lnn = TrainEngine::new(ctx.train_config()).train(&train);
            let lnn_acc = metaai_nn::train::evaluate(&lnn, &test);
            let deep = train_deep_complex(
                &train,
                &DeepComplexConfig {
                    hidden: vec![96],
                    epochs: ctx.train_config().epochs.max(20),
                    seed: ctx.seed,
                    ..DeepComplexConfig::default()
                },
            );
            (id.name(), lnn_acc, deep.accuracy(&test))
        })
        .collect()
}

/// Prints and persists all ablations.
pub fn report_all(ctx: &ExpContext) {
    let ks = kappa_sweep(ctx, &[0.3, 0.5, 0.7, 0.85, 0.95]);
    println!("\nAblation: κ weight-scaling factor");
    for (k, err, acc) in &ks {
        println!(
            "  κ={k:.2}: realization error {:.4}, accuracy {}",
            err,
            pct(*acc)
        );
    }
    csv_write(
        &ctx.out_dir,
        "ablation_kappa",
        "kappa,realization_error,accuracy",
        &ks.iter()
            .map(|(k, e, a)| format!("{k:.2},{e:.5},{}", pct(*a)))
            .collect::<Vec<_>>(),
    );

    let bd = bit_depth_sweep(ctx);
    println!("\nAblation: atom bit depth");
    for (b, e) in &bd {
        println!("  {b}-bit: mean relative residual {e:.5}");
    }
    csv_write(
        &ctx.out_dir,
        "ablation_bits",
        "bits,mean_relative_residual",
        &bd.iter()
            .map(|(b, e)| format!("{b},{e:.6}"))
            .collect::<Vec<_>>(),
    );

    let sw = solver_sweeps(ctx, &[1, 2, 3, 4, 6, 8]);
    println!("\nAblation: coordinate-descent sweeps");
    for (s, e) in &sw {
        println!("  {s} sweep(s): mean residual {e:.3}");
    }
    csv_write(
        &ctx.out_dir,
        "ablation_sweeps",
        "sweeps,mean_residual",
        &sw.iter()
            .map(|(s, e)| format!("{s},{e:.4}"))
            .collect::<Vec<_>>(),
    );

    let da = detection_averaging(ctx, &[1, 2, 4, 8, 16, 32]);
    println!("\nAblation: preamble detection averaging");
    for (d, a) in &da {
        println!("  {d} detection(s): accuracy {}", pct(*a));
    }
    csv_write(
        &ctx.out_dir,
        "ablation_detections",
        "detections,accuracy",
        &da.iter()
            .map(|(d, a)| format!("{d},{}", pct(*a)))
            .collect::<Vec<_>>(),
    );

    let pn = phase_noise_sweep(ctx, &[0.0, 0.08, 0.2, 0.4, 0.8, 1.2]);
    println!("\nAblation: per-atom phase-noise σ (rad)");
    for (s, a) in &pn {
        println!("  σ={s:.2}: accuracy {}", pct(*a));
    }
    csv_write(
        &ctx.out_dir,
        "ablation_phase_noise",
        "sigma_rad,accuracy",
        &pn.iter()
            .map(|(s, a)| format!("{s:.2},{}", pct(*a)))
            .collect::<Vec<_>>(),
    );

    let mp = multipath_scheme_comparison(ctx);
    println!("\nAblation: Eqn 8 compensation vs intra-symbol cancellation");
    for (name, st, dy) in &mp {
        println!("  {name:<26} static {} / drifting {}", pct(*st), pct(*dy));
    }
    csv_write(
        &ctx.out_dir,
        "ablation_multipath",
        "scheme,static,dynamic",
        &mp.iter()
            .map(|(n, s, d)| format!("{n},{},{}", pct(*s), pct(*d)))
            .collect::<Vec<_>>(),
    );

    let ln = linear_vs_nonlinear(ctx, &[DatasetId::Mnist, DatasetId::Fashion]);
    println!("\nAblation: linear vs deep complex network (digital)");
    for (name, l, d) in &ln {
        println!("  {name:<10} LNN {} / modReLU-MLP {}", pct(*l), pct(*d));
    }
    csv_write(
        &ctx.out_dir,
        "ablation_nonlinear",
        "dataset,lnn,deep_complex",
        &ln.iter()
            .map(|(n, l, d)| format!("{n},{},{}", pct(*l), pct(*d)))
            .collect::<Vec<_>>(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_depth_residual_is_monotone() {
        let ctx = ExpContext::quick(61);
        let bd = bit_depth_sweep(&ctx);
        assert!(bd[0].1 > bd[1].1, "1-bit worse than 2-bit: {bd:?}");
        assert!(bd[1].1 > bd[2].1, "2-bit worse than 3-bit: {bd:?}");
    }

    #[test]
    fn more_solver_sweeps_never_hurt() {
        let ctx = ExpContext::quick(62);
        let sw = solver_sweeps(&ctx, &[1, 4]);
        assert!(sw[1].1 <= sw[0].1 + 1e-9, "{sw:?}");
    }

    #[test]
    fn cancellation_survives_drift_eqn8_does_not() {
        let ctx = ExpContext::quick(63);
        let rows = multipath_scheme_comparison(&ctx);
        let eqn8 = rows.iter().find(|r| r.0.starts_with("eqn8")).expect("row");
        let cancel = rows.iter().find(|r| r.0.starts_with("intra")).expect("row");
        // The paper's argument: compensation only works while H_e holds
        // still; the chip scheme is drift-immune.
        assert!(
            cancel.2 > eqn8.2,
            "drifting env: cancellation {} vs Eqn 8 {}",
            cancel.2,
            eqn8.2
        );
    }
}
