//! The serving determinism contract: a served sample scores **bitwise**
//! identically to the same index of an offline `OtaEngine` batch run —
//! whatever the worker count, batching boundaries, or submission order.

mod common;

use metaai_serve::{OverflowPolicy, ScoreRequest, ServeConfig, Server, DEFAULT_MODEL};
use proptest::proptest;

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn serve_config(workers: usize, max_batch: usize) -> ServeConfig {
    ServeConfig {
        max_batch,
        queue_capacity: 256,
        workers,
        policy: OverflowPolicy::Shed,
        ..ServeConfig::default()
    }
}

/// Scores `inputs` through a live server with the given pool shape and
/// asserts every response matches the offline batch path bitwise.
fn assert_served_matches_offline(workers: usize, max_batch: usize, input_seeds: &[u64]) {
    let system = common::shared_system();
    let inputs: Vec<_> = input_seeds
        .iter()
        .map(|&s| common::sample_input(common::SYMBOLS, s))
        .collect();

    let server = Server::builder()
        .model(DEFAULT_MODEL, system.clone())
        .config(serve_config(workers, max_batch))
        .start();
    let stream = server.registry().default_entry().current().stream;
    let client = server.client();
    let tickets: Vec<_> = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            client
                .submit(ScoreRequest {
                    id: i as u64,
                    sample_index: i as u64,
                    input: input.clone(),
                    deadline: None,
                })
                .expect("admitted")
        })
        .collect();
    let served: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("scored"))
        .collect();
    server.shutdown();

    // The offline reference: one deterministic batch over the same
    // stream, exactly what `eval` would compute.
    let offline = system.engine().batch_map(
        &inputs,
        system.config.seed,
        stream,
        |rng| system.default_conditions(common::SYMBOLS, rng),
        |scores| (metaai_math::stats::argmax(scores), scores.to_vec()),
    );

    for (i, response) in served.iter().enumerate() {
        assert_eq!(response.id, i as u64);
        let (predicted, scores) = &offline[i];
        assert_eq!(
            response.predicted, *predicted,
            "prediction diverged at sample {i} with {workers} workers"
        );
        assert_eq!(
            &response.scores, scores,
            "scores diverged bitwise at sample {i} with {workers} workers"
        );
    }
}

#[test]
fn served_scores_equal_offline_across_1_2_and_4_workers() {
    let input_seeds: Vec<u64> = (0..12).collect();
    for workers in WORKER_COUNTS {
        assert_served_matches_offline(workers, 4, &input_seeds);
    }
}

proptest! {
    #[test]
    fn served_scores_equal_offline_under_random_shapes(
        worker_choice in 0usize..3,
        max_batch in 1usize..9,
        n_requests in 1usize..10,
        seed_base in 0u64..1000,
    ) {
        let input_seeds: Vec<u64> =
            (0..n_requests as u64).map(|i| seed_base.wrapping_add(i)).collect();
        assert_served_matches_offline(WORKER_COUNTS[worker_choice], max_batch, &input_seeds);
    }
}
