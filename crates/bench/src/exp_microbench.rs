//! Micro-benchmarks: Figs 6, 7, 12, 13, 16, 17, 29, 30.

use crate::common::{batch_residuals, csv_write, pct, ExpContext};
use metaai::config::SystemConfig;
use metaai::pipeline::MetaAiSystem;
use metaai_datasets::DatasetId;
use metaai_math::rng::SimRng;
use metaai_math::C64;
use metaai_mts::solver::WeightSolver;
use metaai_mts::wdd::{wdd_sweep, WddConfig};
use metaai_nn::engine::TrainEngine;
use metaai_nn::pnn_stack::train_stacked;
use metaai_nn::train::TrainConfig;
use metaai_phy::sync::{EnvelopeDetector, SyncErrorModel};
use metaai_rf::antenna::AntennaPattern;
use metaai_rf::environment::{EnvChannel, Environment, EnvironmentKind};

/// Fig 6: coverage of the complex plane by resultant weights, per atom
/// count. Returns `(m, mean relative approximation error)` — denser
/// coverage = smaller error.
pub fn fig6(ctx: &ExpContext, atom_counts: &[usize]) -> Vec<(usize, f64)> {
    atom_counts
        .iter()
        .map(|&m| {
            let mut rng = SimRng::derive(ctx.seed, &format!("fig6-{m}"));
            let phasors: Vec<C64> = (0..m).map(|_| rng.unit_phasor()).collect();
            let solver = WeightSolver::single(phasors, 2);
            let reach = solver.reachable_radius(0);
            let trials = 120;
            let targets: Vec<C64> = (0..trials)
                .map(|_| {
                    let r = 0.8 * reach * rng.uniform().sqrt();
                    C64::from_polar(r, rng.phase())
                })
                .collect();
            let mean_rel: f64 = batch_residuals(&solver, &targets)
                .iter()
                .map(|r| r / reach)
                .sum::<f64>()
                / trials as f64;
            (m, mean_rel)
        })
        .collect()
}

/// Fig 7: recognition accuracy vs number of meta-atoms, per dataset.
pub fn fig7(
    ctx: &ExpContext,
    datasets: &[DatasetId],
    atom_counts: &[usize],
) -> Vec<(DatasetId, Vec<(usize, f64)>)> {
    datasets
        .iter()
        .map(|&id| {
            let (train, test) = ctx.dataset(id);
            let net = TrainEngine::new(ctx.train_config()).train(&train);
            let config = SystemConfig {
                seed: ctx.seed,
                ..SystemConfig::paper_default()
            };
            // The receiver's thermal noise floor is a physical constant:
            // anchor it at the 256-atom reference so smaller surfaces pay
            // their real SNR penalty (less aperture, same noise).
            let reference = MetaAiSystem::builder()
                .config(config.clone())
                .num_atoms(256)
                .deploy(net.clone());
            // Fig 7's Tx power is fixed so the 256-atom surface runs at a
            // moderate 12 dB SNR: smaller surfaces then sit progressively
            // deeper in the noise, and the sweep saturates past 256 atoms
            // exactly as the paper observes.
            let floor = reference.noise_floor * metaai_math::stats::from_db(8.0);
            let series = atom_counts
                .iter()
                .map(|&m| {
                    let mut sys = MetaAiSystem::builder()
                        .config(config.clone())
                        .num_atoms(m)
                        .deploy(net.clone());
                    sys.noise_floor = floor;
                    let acc = sys.ota_accuracy(&test, &format!("fig7-{}-{m}", id.name()));
                    (m, acc)
                })
                .collect();
            (id, series)
        })
        .collect()
}

/// Fig 12: CDF of coarse-detection sync error. Returns `(µs, P[err ≤ µs])`.
pub fn fig12(ctx: &ExpContext) -> Vec<(f64, f64)> {
    let model = SyncErrorModel::default();
    let mut rng = SimRng::derive(ctx.seed, "fig12");
    let samples: Vec<f64> = (0..5000).map(|_| model.sample_us(&mut rng)).collect();
    (0..=40)
        .map(|k| {
            let us = k as f64 * 0.25;
            (us, metaai_math::stats::ecdf(&samples, us))
        })
        .collect()
}

/// Fig 12 companion: the *measured* envelope-detector delay distribution
/// (µs percentiles) at the configured SNR, validating the Gamma fit.
pub fn fig12_detector(ctx: &ExpContext, snr_db: f64) -> (f64, f64, f64) {
    let det = EnvelopeDetector::default();
    let mut rng = SimRng::derive(ctx.seed, "fig12-detector");
    // 8 samples per µs (8 MHz detector sampling).
    let delays: Vec<f64> = (0..400)
        .filter_map(|_| det.detection_delay(64, 512, snr_db, &mut rng))
        .map(|d| d as f64 / 8.0)
        .collect();
    (
        metaai_math::stats::percentile(&delays, 25.0),
        metaai_math::stats::percentile(&delays, 50.0),
        metaai_math::stats::percentile(&delays, 75.0),
    )
}

/// Fig 13(b): accuracy vs injected coarse delay, with and without CDFA.
///
/// Without CDFA the schedule simply starts late by the full delay. With
/// CDFA the controller compensates the delay it estimated from the
/// preamble — but it can only advance its schedule within the preamble
/// guard window (4 µs), so residuals grow once the injected delay exceeds
/// it, reproducing the decline past 4 µs.
pub fn fig13(ctx: &ExpContext, delays_us: &[f64]) -> Vec<(f64, f64, f64)> {
    let (train, test) = ctx.dataset(DatasetId::Mnist);
    let config = SystemConfig {
        sync_error: None, // the experiment injects delays explicitly
        seed: ctx.seed,
        ..SystemConfig::paper_default()
    };
    let plain = TrainConfig {
        augmentations: Vec::new(),
        ..ctx.train_config()
    };
    let sys_plain = MetaAiSystem::builder()
        .config(config.clone())
        .train_and_deploy(&train, &plain);
    let sys_cdfa = MetaAiSystem::builder()
        .config(config.clone())
        .train_and_deploy(&train, &ctx.train_config());
    let guard_us = 4.0;
    let model = SyncErrorModel::default();
    let n = test.input_len();

    delays_us
        .iter()
        .map(|&d| {
            // Without CDFA: the full delay lands on the schedule.
            let shift_plain = d.round() as isize;
            let acc_plain =
                sys_plain.ota_accuracy_with(&test, &format!("fig13-plain-{d}"), |rng| {
                    let mut c = sys_plain.default_conditions(n, rng);
                    c.sync_shift = shift_plain;
                    c
                });
            // With CDFA: compensation capped at the guard window, plus the
            // averaged estimation residual.
            let acc_cdfa = sys_cdfa.ota_accuracy_with(&test, &format!("fig13-cdfa-{d}"), |rng| {
                let mut c = sys_cdfa.default_conditions(n, rng);
                let est_resid = model.sample_residual_symbols(sys_cdfa.config.symbol_rate, rng);
                let uncompensated = (d - guard_us).max(0.0).round() as isize;
                c.sync_shift = uncompensated + est_resid;
                c
            });
            (d, acc_plain, acc_cdfa)
        })
        .collect()
}

/// Fig 16: the three synchronization configurations on the MNIST-like
/// dataset. Returns `(no_sync, cd_only, cdfa)`.
pub fn fig16(ctx: &ExpContext) -> (f64, f64, f64) {
    let (train, test) = ctx.dataset(DatasetId::Mnist);
    let config = SystemConfig {
        sync_error: None,
        seed: ctx.seed,
        ..SystemConfig::paper_default()
    };
    let n = test.input_len();
    let model = SyncErrorModel::default();

    // No sync: the schedule starts at an arbitrary offset.
    let plain_cfg = TrainConfig {
        augmentations: Vec::new(),
        ..ctx.train_config()
    };
    let sys_plain = MetaAiSystem::builder()
        .config(config.clone())
        .train_and_deploy(&train, &plain_cfg);
    let no_sync = sys_plain.ota_accuracy_with(&test, "fig16-none", |rng| {
        let mut c = sys_plain.default_conditions(n, rng);
        c.sync_shift = rng.below(n.max(1)) as isize;
        c
    });

    // Coarse detection only: one mean-compensated event, plain training.
    let cd = sys_plain.ota_accuracy_with(&test, "fig16-cd", |rng| {
        let mut c = sys_plain.default_conditions(n, rng);
        c.sync_shift = model.sample_coarse_residual_symbols(config.symbol_rate, rng);
        c
    });

    // CDFA: averaged detection + matched training augmentation.
    let sys_cdfa = MetaAiSystem::builder()
        .config(config.clone())
        .train_and_deploy(&train, &ctx.train_config());
    let cdfa = sys_cdfa.ota_accuracy_with(&test, "fig16-cdfa", |rng| {
        let mut c = sys_cdfa.default_conditions(n, rng);
        c.sync_shift = model.sample_residual_symbols(config.symbol_rate, rng);
        c
    });

    (no_sync, cd, cdfa)
}

/// Fig 17: multipath cancellation across environments and antennas.
/// Returns rows `(environment, antenna, acc_without, acc_with)`.
pub fn fig17(ctx: &ExpContext) -> Vec<(EnvironmentKind, &'static str, f64, f64)> {
    let (train, test) = ctx.dataset(DatasetId::Mnist);
    let n = test.input_len();
    let mut rows = Vec::new();
    for env_kind in EnvironmentKind::all() {
        for (ant_name, pattern) in [
            ("Dire", AntennaPattern::typical_directional()),
            ("Omni", AntennaPattern::Omni),
        ] {
            let config = SystemConfig {
                environment: env_kind,
                seed: ctx.seed,
                ..SystemConfig::paper_default()
            };
            let sys = MetaAiSystem::builder()
                .config(config.clone())
                .train_and_deploy(&train, &ctx.train_config());
            let make = |cancel: bool| {
                let label = format!("fig17-{}-{}-{}", env_kind.name(), ant_name, cancel);
                sys.ota_accuracy_with(&test, &label, |rng| {
                    let mut c = sys.default_conditions(n, rng);
                    let mut env =
                        Environment::paper_default(env_kind, config.tx, config.rx, config.freq_hz);
                    env.tx_antenna = pattern;
                    env.rx_antenna = pattern;
                    c.env = EnvChannel::from_environment(&env, n, rng);
                    c.cancellation = cancel;
                    c
                })
            };
            rows.push((env_kind, ant_name, make(false), make(true)));
        }
    }
    rows
}

/// Fig 29: stacked-PNN accuracy vs number of metasurface layers, with the
/// digital LNN reference.
pub fn fig29(ctx: &ExpContext, layers: &[usize]) -> (Vec<(usize, f64)>, f64) {
    // The single-layer deficit needs M ≪ R·U (Appendix A.1's counting
    // argument): 10 classes × 64 inputs = 640 constraints against 20
    // atoms per layer, on a problem noisy enough that weight precision
    // matters.
    let train = metaai_nn::train::toy_problem(10, 64, 60, 0.95, ctx.seed, ctx.seed + 1);
    let test = metaai_nn::train::toy_problem(10, 64, 25, 0.95, ctx.seed, ctx.seed + 2);
    let digital = {
        let net = TrainEngine::new(TrainConfig {
            epochs: 40,
            ..TrainConfig::default()
        })
        .train(&train);
        metaai_nn::train::evaluate(&net, &test)
    };
    let series = layers
        .iter()
        .map(|&l| {
            let pnn = train_stacked(&train, l, 20, 35, 0.05, ctx.seed);
            (l, pnn.accuracy(&test))
        })
        .collect();
    (series, digital)
}

/// Fig 30: WDD vs atom count.
pub fn fig30(ctx: &ExpContext, atom_counts: &[usize]) -> Vec<(usize, f64)> {
    let cfg = WddConfig {
        samples: match ctx.scale {
            metaai_datasets::Scale::Paper => 400,
            metaai_datasets::Scale::Default => 200,
            metaai_datasets::Scale::Quick => 60,
        },
        ..WddConfig::default()
    };
    wdd_sweep(atom_counts, &cfg, ctx.seed)
}

/// Prints and persists all micro-benchmarks at their paper parameters.
/// Runs Fig 6 at its reported atom counts, prints it and writes
/// `fig6.csv`.
pub fn report_fig6(ctx: &ExpContext) {
    let f6 = fig6(ctx, &[16, 32, 64, 128, 256, 512]);
    println!("\nFig 6: weight-approximation error vs atom count");
    for (m, e) in &f6 {
        println!("  M={m:<5} mean relative residual = {e:.5}");
    }
    csv_write(
        &ctx.out_dir,
        "fig6",
        "atoms,mean_relative_residual",
        &f6.iter()
            .map(|(m, e)| format!("{m},{e:.6}"))
            .collect::<Vec<_>>(),
    );
}

/// Runs Fig 7 on MNIST and AFHQ at its reported atom counts, prints it
/// and writes `fig7.csv`.
pub fn report_fig7(ctx: &ExpContext) {
    let atoms = [16usize, 64, 128, 256, 512];
    let f7 = fig7(ctx, &[DatasetId::Mnist, DatasetId::Afhq], &atoms);
    println!("\nFig 7: accuracy vs number of meta-atoms");
    let mut rows = Vec::new();
    for (id, series) in &f7 {
        print!("  {:<12}", id.name());
        for (m, acc) in series {
            print!(" M{m}={}", pct(*acc));
            rows.push(format!("{},{},{}", id.name(), m, pct(*acc)));
        }
        println!();
    }
    csv_write(&ctx.out_dir, "fig7", "dataset,atoms,accuracy", &rows);
}

/// Prints and persists every micro-benchmark figure: 6, 7, 12, 13, 16,
/// 17, 29 and 30.
pub fn report_all(ctx: &ExpContext) {
    report_fig6(ctx);
    report_fig7(ctx);

    // Fig 12.
    let f12 = fig12(ctx);
    let above3 = 1.0
        - f12
            .iter()
            .find(|(us, _)| *us >= 3.0)
            .map_or(0.0, |(_, c)| *c);
    println!("\nFig 12: sync-error CDF — P[err > 3 µs] = {}", pct(above3));
    let (p25, p50, p75) = fig12_detector(ctx, 15.0);
    println!("  envelope-detector delays at 15 dB: p25={p25:.2} p50={p50:.2} p75={p75:.2} µs");
    csv_write(
        &ctx.out_dir,
        "fig12",
        "error_us,cdf",
        &f12.iter()
            .map(|(u, c)| format!("{u:.2},{c:.4}"))
            .collect::<Vec<_>>(),
    );

    // Fig 13.
    let delays = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0];
    let f13 = fig13(ctx, &delays);
    println!("\nFig 13(b): accuracy vs sync delay (without / with CDFA)");
    for (d, plain, cdfa) in &f13 {
        println!("  {d:>4.1} µs: {:>6} / {:>6}", pct(*plain), pct(*cdfa));
    }
    csv_write(
        &ctx.out_dir,
        "fig13",
        "delay_us,without_cdfa,with_cdfa",
        &f13.iter()
            .map(|(d, p, c)| format!("{d:.1},{},{}", pct(*p), pct(*c)))
            .collect::<Vec<_>>(),
    );

    // Fig 16.
    let (none, cd, cdfa) = fig16(ctx);
    println!(
        "\nFig 16: sync scheme — none {} / CD {} / CDFA {}",
        pct(none),
        pct(cd),
        pct(cdfa)
    );
    csv_write(
        &ctx.out_dir,
        "fig16",
        "scheme,accuracy",
        &[
            format!("none,{}", pct(none)),
            format!("cd,{}", pct(cd)),
            format!("cdfa,{}", pct(cdfa)),
        ],
    );

    // Fig 17.
    let f17 = fig17(ctx);
    println!("\nFig 17: multipath cancellation (without → with)");
    let mut rows = Vec::new();
    for (env, ant, without, with) in &f17 {
        println!(
            "  {:<11} {:<5} {} → {}",
            env.name(),
            ant,
            pct(*without),
            pct(*with)
        );
        rows.push(format!(
            "{},{},{},{}",
            env.name(),
            ant,
            pct(*without),
            pct(*with)
        ));
    }
    csv_write(
        &ctx.out_dir,
        "fig17",
        "environment,antenna,without,with",
        &rows,
    );

    // Fig 29.
    let (f29, digital) = fig29(ctx, &[1, 2, 3, 4, 5, 6]);
    println!(
        "\nFig 29: stacked-PNN accuracy vs layers (digital LNN = {})",
        pct(digital)
    );
    for (l, acc) in &f29 {
        println!("  {l} layer(s): {}", pct(*acc));
    }
    csv_write(
        &ctx.out_dir,
        "fig29",
        "layers,accuracy",
        &f29.iter()
            .map(|(l, a)| format!("{l},{}", pct(*a)))
            .collect::<Vec<_>>(),
    );

    // Fig 30.
    let f30 = fig30(ctx, &[16, 32, 64, 128, 256, 512]);
    println!("\nFig 30: WDD vs atom count");
    for (m, w) in &f30 {
        println!("  M={m:<5} WDD = {w:.3}");
    }
    csv_write(
        &ctx.out_dir,
        "fig30",
        "atoms,wdd",
        &f30.iter()
            .map(|(m, w)| format!("{m},{w:.4}"))
            .collect::<Vec<_>>(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_error_shrinks_with_atoms() {
        let ctx = ExpContext::quick(1);
        let f = fig6(&ctx, &[16, 256]);
        assert!(f[0].1 > f[1].1, "residual must shrink: {f:?}");
    }

    #[test]
    fn fig12_cdf_is_monotone() {
        let ctx = ExpContext::quick(2);
        let f = fig12(&ctx);
        for w in f.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        // Roughly half the mass above 3 µs (paper: 51.7 %).
        let at3 = f
            .iter()
            .find(|(us, _)| *us >= 3.0)
            .expect("grid covers 3µs")
            .1;
        assert!((0.40..0.60).contains(&at3), "CDF(3µs) = {at3}");
    }

    #[test]
    fn fig16_ordering_none_cd_cdfa() {
        let ctx = ExpContext::quick(3);
        let (none, cd, cdfa) = fig16(&ctx);
        assert!(none < cd, "none {none} < cd {cd}");
        assert!(cd < cdfa, "cd {cd} < cdfa {cdfa}");
    }

    #[test]
    fn fig30_wdd_saturates_at_256() {
        let ctx = ExpContext::quick(4);
        let f = fig30(&ctx, &[64, 256]);
        assert!(f[1].1 > f[0].1);
        assert!(f[1].1 > 0.9, "WDD(256) = {}", f[1].1);
    }
}
