//! The chaos soak, multi-tenant edition — now driven through the
//! declarative scenario harness (`metaai_bench::scenario`): a recipe
//! describes the fault profile (four chaos connections, ≥100 wire
//! faults, two worker panics on model **alpha**) and
//! `scenario::run_serve_chaos` executes it — a clean retrying v1
//! connection keeps scoring alpha bitwise-correctly through the panics
//! while a clean no-retry v2 connection proves model **beta** never
//! notices: 40/40 beta requests answered with **zero** error replies,
//! bitwise-identical to offline, with beta's queue bounded and beta's
//! worker pool never restarted. This is the PR-5/PR-6 acceptance
//! behavior, reproduced by the harness CI now runs from recipe files.
//!
//! Sample-index spaces are disjoint by construction — chaos counts up
//! from 0, alpha's clean traffic from 1 000 000, beta's from 2 000 000 —
//! so the globally armed panic faults can only ever fire on alpha.

use metaai::pipeline::MetaAiSystem;
use metaai_bench::scenario::{self, Materialized, Recipe, Tenant};
use metaai_math::rng::SimRng;
use metaai_nn::complex_lnn::ComplexLnn;
use metaai_nn::train::toy_problem;
use std::sync::Arc;

const SYMBOLS: usize = 16;

fn tiny_tenant(name: &str, seed: u64) -> Tenant {
    let mut rng = SimRng::seed_from_u64(seed);
    let net = ComplexLnn::init(3, SYMBOLS, &mut rng);
    Tenant {
        name: name.to_string(),
        system: Arc::new(
            MetaAiSystem::builder()
                .config(metaai::config::SystemConfig::paper_default())
                .num_atoms(32)
                .deploy(net),
        ),
        // The chaos scenario never touches the test set; a toy dataset
        // keeps the Materialized well-formed without training anything.
        test: toy_problem(3, SYMBOLS, 4, 0.1, seed, seed + 1),
    }
}

#[test]
fn the_service_survives_a_chaos_soak_with_zero_cross_tenant_interference() {
    metaai_telemetry::set_enabled(true);
    let restarts = metaai_telemetry::global().counter("metaai.serve.worker_restarts");
    let alpha_restarts =
        metaai_telemetry::global().counter("metaai.serve.model.alpha.worker_restarts");
    let restarts_before = restarts.value();
    let alpha_restarts_before = alpha_restarts.value();

    // The soak as a recipe: everything the old hand-rolled test spelled
    // out in code, except the tenants, which are tiny untrained systems
    // assembled by hand (the harness accepts any Materialized).
    let recipe = Recipe::parse(
        "name = chaos-soak\n\
         scenario = serve-chaos\n\
         tenant = mnist\n\
         seed = 7\n\
         samples = 40\n\
         chaos-connections = 4\n\
         chaos-faults = 100\n\
         worker-panics = 2\n\
         workers = 2\n\
         max-batch = 8\n\
         queue-capacity = 512\n\
         policy = shed\n",
    )
    .expect("soak recipe parses");
    let m = Materialized {
        recipe,
        tenants: vec![tiny_tenant("alpha", 7), tiny_tenant("beta", 11)],
    };

    let outcome = scenario::run_serve_chaos(&m)
        .expect("the soak completes: clean traffic verified, panics fired, listener drained");

    // Alpha answered everything bitwise-correctly through the chaos and
    // both injected panics (run_serve_chaos verifies each reply against
    // offline scoring and fails hard on any mismatch or unanswered
    // sample — reaching here means 40/40).
    assert_eq!(outcome.primary_verified, 40, "alpha scored everything");
    assert_eq!(outcome.panics_injected, 2, "both panics were armed");
    assert!(
        outcome.primary_restarts >= 2,
        "alpha's panicked workers were both restarted (got {})",
        outcome.primary_restarts
    );

    // Beta never noticed: zero error replies (the backend uses no retry
    // wrapper, so a single leaked error fails the run), epoch stable,
    // queue bounded, pool never restarted.
    let beta = outcome.secondary.as_ref().expect("two tenants ran");
    assert_eq!(beta.verified, 40, "beta scored everything, first try");
    assert_eq!(
        beta.restarts, 0,
        "beta's pool never restarted — the panics were alpha's alone"
    );
    assert!(
        beta.max_depth <= 8,
        "beta's queue stayed bounded (saw depth {}); alpha's backlog never spilled over",
        beta.max_depth
    );

    // The wire-fault side did its job before the listener drained.
    let report = &outcome.chaos;
    assert!(
        report.faults_injected() >= 100,
        "soak injected {} faults (bit flips {}, truncated {}, corrupt lengths {}, \
         disconnects {}, slow loris {})",
        report.faults_injected(),
        report.bit_flips,
        report.truncated_frames,
        report.corrupt_lengths,
        report.mid_frame_disconnects,
        report.slow_loris_frames
    );
    assert!(
        report.truncated_frames + report.corrupt_lengths + report.mid_frame_disconnects > 0,
        "the framing-breaking kinds all ran"
    );
    assert!(
        report.reconnects > 0,
        "poisoned connections were redialed — the accept loop kept up under churn"
    );

    // The telemetry dimension still attributes the restarts to alpha.
    assert!(
        restarts.value() >= restarts_before + 2,
        "metaai.serve.worker_restarts counted both panics (got {})",
        restarts.value() - restarts_before
    );
    assert!(
        alpha_restarts.value() >= alpha_restarts_before + 2,
        "the per-model dimension attributes both restarts to alpha (got {})",
        alpha_restarts.value() - alpha_restarts_before
    );
}
