//! Parallel computation of multiple categories — Sec 3.3, Eqns 9–10.
//!
//! The baseline computes one category per transmission (`R` sequential
//! passes). Two schemes compute all categories at once:
//!
//! * **Antenna-based** ([`AntennaParallel`]): `R` receive antennas at
//!   distinct positions. One shared metasurface configuration per symbol
//!   must present a *different* weight to each antenna; the per-antenna
//!   path-phase diversity makes that possible, and the joint solver of
//!   `metaai-mts` finds the best compromise. Because `M` shared phases
//!   cannot match `R` independent targets exactly, the per-target residual
//!   grows with `R` — the accuracy-vs-parallelism trade-off of Fig 31.
//!
//! * **Subcarrier-based** ([`SubcarrierParallel`]): one OFDM block per
//!   input symbol, all `K` active subcarriers carrying that symbol. The
//!   metasurface switches configurations *within* each block (its 2.56 MHz
//!   switching rate vs the 40 kHz subcarrier spacing); the receiver's FFT
//!   turns the within-block channel sequence into per-subcarrier effective
//!   weights. Synthesizing those weights is a small ridge least-squares
//!   per input symbol, followed by per-slot discrete solves. The energy
//!   spread across slots and the extra noise bandwidth degrade accuracy
//!   as `K` grows, matching the paper's trend.

use crate::config::SystemConfig;
use crate::engine::OtaEngine;
use crate::ota::OtaConditions;
use metaai_math::fft::fft;
use metaai_math::rng::SimRng;
use metaai_math::stats::argmax;
use metaai_math::{CMat, CVec, C64};
use metaai_mts::array::MtsArray;
use metaai_mts::atom::PackedCodes;
use metaai_mts::channel::MtsLink;
use metaai_mts::solver::{BatchOutput, SolverScratch, WeightSolver};
use metaai_nn::complex_lnn::ComplexLnn;
use metaai_phy::ofdm::OfdmConfig;
use metaai_rf::geometry::{deg_to_rad, place_at, Point3};
use metaai_rf::noise::Awgn;
use metaai_telemetry::{Counter, Histogram};
use rayon::prelude::*;
use std::sync::OnceLock;

/// Parallelism-scheme instruments, registered once with the global
/// registry. Joint solves themselves are counted by the solver's own
/// instruments; this layer tracks deployments of the schemes.
struct ParallelMetrics {
    deploys: Counter,
    deploy_seconds: Histogram,
}

fn metrics() -> &'static ParallelMetrics {
    static METRICS: OnceLock<ParallelMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = metaai_telemetry::global();
        ParallelMetrics {
            deploys: r.counter("metaai.core.parallel.deploys"),
            deploy_seconds: r.latency_histogram("metaai.core.parallel.deploy_seconds"),
        }
    })
}

/// Registers the parallel layer's instruments with the global registry.
pub fn register_metrics() {
    let _ = metrics();
}

/// Places `n` receive antennas on an arc around the nominal receiver
/// direction, `spacing_deg` apart at the nominal distance.
pub fn antenna_positions(config: &SystemConfig, n: usize, spacing_deg: f64) -> Vec<Point3> {
    let d = config.rx.distance(config.mts_center);
    let base = (config.rx.x - config.mts_center.x).atan2(config.rx.y - config.mts_center.y);
    (0..n)
        .map(|l| {
            let offset = (l as f64 - (n as f64 - 1.0) / 2.0) * deg_to_rad(spacing_deg);
            place_at(
                config.mts_center,
                d,
                std::f64::consts::FRAC_PI_2 - (base + offset),
                config.rx.z,
            )
        })
        .collect()
}

/// Antenna-based parallel deployment: one transmission, `R` outputs.
pub struct AntennaParallel {
    /// Per-antenna links.
    pub links: Vec<MtsLink>,
    /// Shared configuration per input symbol: configuration `i` is
    /// symbol `i`'s.
    pub codes: PackedCodes,
    /// Realized physical channels: `channels[(l, i)]` at antenna `l`
    /// during symbol `i`.
    pub channels: CMat,
    /// Receiver-side calibration gains: antenna `l`'s accumulation is
    /// multiplied by `rx_gains[l]` before the argmax. The constants are
    /// known at deployment time (they absorb the per-antenna `α_l` and
    /// weight scale), so this is ordinary receiver calibration — the role
    /// Eqn 10's per-antenna training plays in the paper.
    pub rx_gains: Vec<f64>,
    /// RMS per-target residual of the joint solve (normalized units).
    pub rms_residual: f64,
}

impl AntennaParallel {
    /// Deploys `net` (one class per antenna) on `array` with the given
    /// antenna positions.
    pub fn deploy(
        net: &ComplexLnn,
        config: &SystemConfig,
        array: &MtsArray,
        rx_positions: &[Point3],
    ) -> Self {
        let tele = metaai_telemetry::enabled().then(metrics);
        let _span = tele.map(|m| m.deploy_seconds.span());
        if let Some(m) = tele {
            m.deploys.inc();
        }
        let r = net.num_classes();
        let u = net.input_len();
        assert_eq!(rx_positions.len(), r, "one antenna per class");

        let links: Vec<MtsLink> = rx_positions
            .iter()
            .map(|&rx| MtsLink::new(array, config.tx, rx, config.freq_hz))
            .collect();
        let solver = WeightSolver::joint(links.iter().map(|l| l.path_phasors.clone()).collect(), 2);
        // Per-antenna weight scale: each class row uses its antenna's full
        // reachable range; the receiver undoes the scales digitally.
        let sigmas: Vec<f64> = (0..r)
            .map(|l| {
                let row_max = (0..u)
                    .map(|i| net.weights[(l, i)].abs())
                    .fold(0.0f64, f64::max)
                    .max(1e-12);
                config.kappa * solver.reachable_radius(l) / row_max
            })
            .collect();
        let rx_gains: Vec<f64> = (0..r).map(|l| 1.0 / (sigmas[l] * links[l].alpha)).collect();

        // Joint solve per input symbol, all against one state table.
        let table = solver.state_table();
        let results: Vec<_> = (0..u)
            .into_par_iter()
            .map(|i| {
                let targets: Vec<C64> = (0..r).map(|l| net.weights[(l, i)] * sigmas[l]).collect();
                solver.solve_with(&targets, &table, &mut SolverScratch::new())
            })
            .collect();

        let mut indices = Vec::with_capacity(u * solver.num_atoms());
        let mut channels = CMat::zeros(r, u);
        let mut sq = 0.0;
        for (i, res) in results.into_iter().enumerate() {
            for (l, &s) in res.achieved.iter().enumerate() {
                channels[(l, i)] = s * links[l].alpha;
            }
            indices.extend(res.codes.iter().map(|c| c.index));
            sq += res.residual * res.residual;
        }

        AntennaParallel {
            links,
            codes: PackedCodes::from_indices(indices, solver.num_atoms(), solver.bits),
            channels,
            rx_gains,
            rms_residual: (sq / u as f64).sqrt(),
        }
    }

    /// Engine conditions for a plain (uncancelled) parallel transmission:
    /// the antennas see only the programmed channels plus receiver noise.
    fn conditions(&self, awgn: Awgn, n_symbols: usize) -> OtaConditions {
        OtaConditions {
            env: metaai_rf::environment::EnvChannel::silent(n_symbols),
            mts_factor: vec![1.0; n_symbols],
            awgn,
            sync_shift: 0,
            cancellation: false,
        }
    }

    /// Applies the per-antenna calibration gains and decides the class:
    /// the first strict maximum of `scores[i] * rx_gains[i]`, the rule of
    /// [`argmax`], without collecting the calibrated scores.
    fn calibrated_argmax(&self, scores: &[f64]) -> usize {
        let mut calibrated = scores.iter().zip(&self.rx_gains).map(|(s, &g)| s * g);
        let mut best_score = calibrated.next().expect("argmax of empty slice");
        let mut best = 0;
        for (i, x) in calibrated.enumerate() {
            if x > best_score {
                best = i + 1;
                best_score = x;
            }
        }
        best
    }

    /// One parallel inference: a single transmission, every antenna
    /// accumulating its own category (with independent receiver noise).
    pub fn predict(&self, x: &CVec, awgn: &Awgn, rng: &mut SimRng) -> usize {
        let cond = self.conditions(*awgn, x.len());
        let scores = OtaEngine::new(&self.channels).scores(x, &cond, rng);
        self.calibrated_argmax(&scores)
    }

    /// Accuracy over a dataset at the given SNR (anchored to the parallel
    /// channels' own signal power). Batched through the engine.
    pub fn accuracy(&self, inputs: &[CVec], labels: &[usize], snr_db: f64, seed: u64) -> f64 {
        if inputs.is_empty() {
            return 0.0;
        }
        let power = crate::ota::signal_power(&self.channels);
        let awgn = Awgn::from_snr_db(power, snr_db);
        let stream = SimRng::stream_id("ant-parallel");
        let predictions = OtaEngine::new(&self.channels).batch_map(
            inputs,
            seed,
            stream,
            |_| self.conditions(awgn, self.channels.cols()),
            |scores| self.calibrated_argmax(scores),
        );
        let correct = predictions
            .iter()
            .zip(labels)
            .filter(|(p, l)| p == l)
            .count();
        correct as f64 / inputs.len() as f64
    }
}

/// Subcarrier-based parallel deployment: one OFDM transmission, `K`
/// outputs on `K` subcarriers.
pub struct SubcarrierParallel {
    /// OFDM layout (`active = K`).
    pub ofdm: OfdmConfig,
    /// The single link (one receive antenna).
    pub link: MtsLink,
    /// Realized slot channels: `slots[i][n]` is the physical channel
    /// during sample `n` of block `i`.
    pub slots: Vec<Vec<C64>>,
    /// The global weight scale applied.
    pub sigma: f64,
    /// Per-bin receiver calibration gains (undo per-row scaling, the
    /// global σ, and α).
    pub rx_gains: Vec<f64>,
}

impl SubcarrierParallel {
    /// Deploys `net` over `K = num_classes` subcarriers.
    pub fn deploy(net: &ComplexLnn, config: &SystemConfig, array: &MtsArray) -> Self {
        let tele = metaai_telemetry::enabled().then(metrics);
        let _span = tele.map(|m| m.deploy_seconds.span());
        if let Some(m) = tele {
            m.deploys.inc();
        }
        let k = net.num_classes();
        let u = net.input_len();
        let ofdm = OfdmConfig::for_parallelism(k);
        let n = ofdm.fft_size;
        let link = MtsLink::new(array, config.tx, config.rx, config.freq_hz);
        let solver = WeightSolver::single(link.path_phasors.clone(), 2);
        let reach = solver.reachable_radius(0);

        // The receiver's bin-k output over one block is
        // Y_k = x_i · Σ_n h_n·a_n·e^{-j2πkn/N},  a_n = (1/N)Σ_{k'∈A} e^{j2πk'n/N}.
        // Synthesize h (per block) by ridge least squares: the
        // minimal-norm slot sequence meeting the K per-bin constraints.
        let a_n: Vec<C64> = (0..n)
            .map(|t| {
                (0..k)
                    .map(|bin| {
                        C64::cis(std::f64::consts::TAU * (bin + 1) as f64 * t as f64 / n as f64)
                    })
                    .sum::<C64>()
                    / n as f64
            })
            .collect();
        // B[k][n] = a_n·e^{-j2πkn/N}; solve h = Bᴴ(BBᴴ+λI)⁻¹t.
        let b = CMat::from_fn(k, n, |row, t| {
            a_n[t] * C64::cis(-std::f64::consts::TAU * (row + 1) as f64 * t as f64 / n as f64)
        });
        let mut gram = b.matmul(&b.hermitian());
        let lambda = 1e-6 * gram.fro_norm() / k as f64;
        for d in 0..k {
            gram[(d, d)] += C64::real(lambda);
        }

        // Per-row scaling so every class uses the same dynamic range; the
        // receiver undoes it per bin (known deployment constants).
        let row_scale: Vec<f64> = (0..k)
            .map(|row| {
                let row_max = (0..u)
                    .map(|i| net.weights[(row, i)].abs())
                    .fold(0.0f64, f64::max)
                    .max(1e-12);
                1.0 / row_max
            })
            .collect();

        // First pass: ideal (continuous) slot sequences at σ = 1.
        let ideal: Vec<Vec<C64>> = (0..u)
            .map(|i| {
                let t = CVec::from_fn(k, |row| net.weights[(row, i)] * row_scale[row]);
                let y = gram.solve(&t).expect("gram matrix is positive definite");
                b.hermitian().matvec(&y).into_vec()
            })
            .collect();
        // Crest scaling: anchoring σ on the absolute peak lets one outlier
        // slot crush the whole dynamic range, so anchor on the 99th
        // percentile and clip the rare peaks onto the reachable circle
        // (phase preserved) instead.
        let mut mags: Vec<f64> = ideal
            .iter()
            .flat_map(|h| h.iter().map(|z| z.abs()))
            .collect();
        mags.sort_by(f64::total_cmp);
        let p99 = mags[((mags.len() - 1) as f64 * 0.99) as usize].max(1e-12);
        let sigma = config.kappa * reach / p99;

        // Second pass: quantize each scaled slot value onto the hardware.
        // One batch per symbol's slot sequence, all against one table.
        let limit = config.kappa * reach;
        let table = solver.state_table();
        let slots: Vec<Vec<C64>> = ideal
            .par_iter()
            .map(|h| {
                let targets: Vec<C64> = h
                    .iter()
                    .map(|&z| {
                        let mut target = z * sigma;
                        if target.abs() > limit {
                            target = C64::from_polar(limit, target.arg());
                        }
                        target
                    })
                    .collect();
                let n = targets.len();
                let mut achieved = vec![C64::ZERO; n];
                let out = BatchOutput {
                    codes: &mut vec![0; n * solver.num_atoms()],
                    achieved: &mut achieved,
                    residual: &mut vec![0.0; n],
                };
                solver.solve_batch(&targets, &table, &mut SolverScratch::new(), out);
                achieved.iter().map(|&s| s * link.alpha).collect()
            })
            .collect();

        let rx_gains: Vec<f64> = (0..k)
            .map(|row| 1.0 / (row_scale[row] * sigma * link.alpha))
            .collect();

        SubcarrierParallel {
            ofdm,
            link,
            slots,
            sigma,
            rx_gains,
        }
    }

    /// One parallel inference: `U` OFDM blocks, the receiver accumulating
    /// each active bin into its category score. `h_env` is the static
    /// environmental gain added to every sample.
    pub fn predict(&self, x: &CVec, h_env: C64, awgn: &Awgn, rng: &mut SimRng) -> usize {
        let k = self.ofdm.active;
        let n = self.ofdm.fft_size;
        let mut out = vec![C64::ZERO; k];
        for (i, &xi) in x.iter().enumerate() {
            // Time-domain block carrying x_i on all active bins.
            let mut bins = vec![C64::ZERO; n];
            for bin in 0..k {
                bins[bin + 1] = xi;
            }
            metaai_math::fft::ifft(&mut bins);
            // Per-sample channel + noise (circular model: CP absorbed).
            let mut y: Vec<C64> = bins
                .iter()
                .enumerate()
                .map(|(t, &s)| (h_env + self.slots[i][t]) * s + awgn.sample(rng))
                .collect();
            fft(&mut y);
            for bin in 0..k {
                out[bin] += y[bin + 1];
            }
        }
        let scores: Vec<f64> = out
            .iter()
            .zip(&self.rx_gains)
            .map(|(z, &g)| z.abs() * g)
            .collect();
        argmax(&scores)
    }

    /// Accuracy over a dataset at the given SNR.
    pub fn accuracy(&self, inputs: &[CVec], labels: &[usize], snr_db: f64, seed: u64) -> f64 {
        if inputs.is_empty() {
            return 0.0;
        }
        let power = self
            .slots
            .iter()
            .flat_map(|h| h.iter().map(|z| z.norm_sq()))
            .sum::<f64>()
            / (self.slots.len() * self.ofdm.fft_size) as f64;
        let awgn = Awgn::from_snr_db(power, snr_db);
        let stream = SimRng::stream_id("sub-parallel");
        let correct: usize = (0..inputs.len())
            .into_par_iter()
            .filter(|&i| {
                let mut rng = SimRng::derive_indexed(seed, stream, i as u64);
                self.predict(&inputs[i], C64::ZERO, &awgn, &mut rng) == labels[i]
            })
            .count();
        correct as f64 / inputs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaai_mts::array::Prototype;
    use metaai_nn::engine::TrainEngine;
    use metaai_nn::train::{toy_problem, TrainConfig};

    fn trained(classes: usize, u: usize) -> (ComplexLnn, Vec<CVec>, Vec<usize>) {
        let train = toy_problem(classes, u, 40, 0.3, 60, 160);
        let test = toy_problem(classes, u, 15, 0.3, 60, 260);
        let net = TrainEngine::new(TrainConfig {
            epochs: 20,
            ..TrainConfig::default()
        })
        .train(&train);
        (net, test.inputs, test.labels)
    }

    #[test]
    fn antenna_positions_form_an_arc() {
        let cfg = SystemConfig::paper_default();
        let pos = antenna_positions(&cfg, 5, 8.0);
        assert_eq!(pos.len(), 5);
        let d0 = cfg.rx.distance(cfg.mts_center);
        for p in &pos {
            assert!((p.distance(cfg.mts_center) - d0).abs() < 1e-6);
        }
        // Middle antenna sits at the nominal receiver.
        assert!(pos[2].distance(cfg.rx) < 1e-6);
    }

    #[test]
    fn antenna_parallel_classifies_above_chance() {
        let (net, inputs, labels) = trained(3, 24);
        let cfg = SystemConfig::paper_default();
        let array = MtsArray::paper_prototype(Prototype::DualBand, cfg.mts_center);
        let rx = antenna_positions(&cfg, 3, 10.0);
        let sys = AntennaParallel::deploy(&net, &cfg, &array, &rx);
        let acc = sys.accuracy(&inputs, &labels, 25.0, 1);
        assert!(acc > 0.6, "antenna-parallel accuracy {acc}");
    }

    #[test]
    fn calibrated_argmax_matches_argmax_of_the_calibrated_scores() {
        let (net, _, _) = trained(3, 24);
        let cfg = SystemConfig::paper_default();
        let array = MtsArray::paper_prototype(Prototype::DualBand, cfg.mts_center);
        let rx = antenna_positions(&cfg, 3, 10.0);
        let mut sys = AntennaParallel::deploy(&net, &cfg, &array, &rx);
        sys.rx_gains = vec![2.0, 1.0, 0.5];
        // Ties after calibration go to the first antenna, as in `argmax`.
        for scores in [
            [1.0, 2.0, 4.0],
            [1.0, 2.0, 3.0],
            [3.0, 1.0, 2.0],
            [-1.0, -2.0, -4.0],
            [0.0, 0.0, 0.0],
        ] {
            let calibrated: Vec<f64> = scores
                .iter()
                .zip(&sys.rx_gains)
                .map(|(s, g)| s * g)
                .collect();
            assert_eq!(
                sys.calibrated_argmax(&scores),
                argmax(&calibrated),
                "{scores:?}"
            );
        }
    }

    #[test]
    fn antenna_codes_program_the_solved_channels() {
        // One packed configuration per symbol; programming it makes every
        // antenna's link present the channel the joint solve reported.
        let (net, _, _) = trained(3, 24);
        let cfg = SystemConfig::paper_default();
        let mut array = MtsArray::paper_prototype(Prototype::DualBand, cfg.mts_center);
        let rx = antenna_positions(&cfg, 3, 10.0);
        let sys = AntennaParallel::deploy(&net, &cfg, &array, &rx);
        assert_eq!(sys.codes.len(), 24);
        assert_eq!((sys.codes.num_atoms(), sys.codes.bits()), (256, 2));
        for i in 0..24 {
            array.configure(&sys.codes.phase_codes(i));
            for (l, link) in sys.links.iter().enumerate() {
                let drift = (link.channel(&array) - sys.channels[(l, i)]).abs();
                assert!(drift < 1e-9 * link.alpha * 256.0, "antenna {l}, symbol {i}");
            }
        }
    }

    #[test]
    fn antenna_residual_grows_with_classes() {
        let cfg = SystemConfig::paper_default();
        let array = MtsArray::paper_prototype(Prototype::DualBand, cfg.mts_center);
        let mut residuals = Vec::new();
        for &k in &[2usize, 6] {
            let (net, _, _) = trained(k, 12);
            let rx = antenna_positions(&cfg, k, 10.0);
            let sys = AntennaParallel::deploy(&net, &cfg, &array, &rx);
            residuals.push(sys.rms_residual / (k as f64).sqrt());
        }
        assert!(
            residuals[1] > residuals[0] * 0.8,
            "joint coupling should not vanish: {residuals:?}"
        );
    }

    #[test]
    fn subcarrier_parallel_classifies_above_chance() {
        let (net, inputs, labels) = trained(3, 24);
        let cfg = SystemConfig::paper_default();
        let array = MtsArray::paper_prototype(Prototype::DualBand, cfg.mts_center);
        let sys = SubcarrierParallel::deploy(&net, &cfg, &array);
        let acc = sys.accuracy(&inputs, &labels, 25.0, 2);
        assert!(acc > 0.6, "subcarrier-parallel accuracy {acc}");
    }

    #[test]
    fn subcarrier_synthesis_hits_targets_in_the_clean_limit() {
        // With no noise and no env, the per-bin accumulation should match
        // the digital network's decision on most samples.
        let (net, inputs, labels) = trained(3, 16);
        let cfg = SystemConfig::paper_default();
        let array = MtsArray::paper_prototype(Prototype::DualBand, cfg.mts_center);
        let sys = SubcarrierParallel::deploy(&net, &cfg, &array);
        let mut rng = SimRng::seed_from_u64(3);
        let mut agree = 0;
        for x in inputs.iter().take(10) {
            let para = sys.predict(x, C64::ZERO, &Awgn::off(), &mut rng);
            let digital = net.predict(x);
            if para == digital {
                agree += 1;
            }
        }
        assert!(
            agree >= 8,
            "clean parallel should track digital: {agree}/10"
        );
        let _ = labels;
    }

    #[test]
    fn subcarrier_scale_is_positive_and_finite() {
        let (net, _, _) = trained(4, 8);
        let cfg = SystemConfig::paper_default();
        let array = MtsArray::paper_prototype(Prototype::DualBand, cfg.mts_center);
        let sys = SubcarrierParallel::deploy(&net, &cfg, &array);
        assert!(sys.sigma.is_finite() && sys.sigma > 0.0);
        assert_eq!(sys.slots.len(), 8);
        assert_eq!(sys.slots[0].len(), sys.ofdm.fft_size);
    }
}
