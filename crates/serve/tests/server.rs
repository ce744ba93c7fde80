//! End-to-end behaviour of the in-process service: admission, shedding,
//! deadlines, drain-shutdown, zero-downtime hot swaps, and multi-tenant
//! isolation of all of the above.

mod common;

use metaai::pipeline::MetaAiSystem;
use metaai_serve::{
    DeploymentRegistry, OverflowPolicy, ScoreRequest, ServeConfig, ServeError, Server, Ticket,
    DEFAULT_MODEL,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn config() -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        queue_capacity: 256,
        workers: 2,
        policy: OverflowPolicy::Shed,
        ..ServeConfig::default()
    }
}

/// The single-model shape every pre-multi-tenant test ran against.
fn start_default(system: Arc<MetaAiSystem>, cfg: &ServeConfig) -> Server {
    Server::builder()
        .model(DEFAULT_MODEL, system)
        .config(cfg.clone())
        .start()
}

fn request(i: u64) -> ScoreRequest {
    ScoreRequest {
        id: i,
        sample_index: i,
        input: common::sample_input(common::SYMBOLS, i),
        deadline: None,
    }
}

#[test]
fn serves_scores_matching_the_offline_engine() {
    let system = common::shared_system();
    let server = start_default(system.clone(), &config());
    let deployment = server.registry().default_entry().current();
    let client = server.client();

    let mut scratch = Vec::new();
    for i in 0..10u64 {
        let response = client.score(request(i)).expect("scored");
        let offline = system.score_indexed(&request(i).input, deployment.stream, i, &mut scratch);
        assert_eq!(response.id, i);
        assert_eq!(response.epoch, 1);
        assert_eq!(response.predicted, offline, "sample {i}");
        assert_eq!(response.scores, scratch, "sample {i} scores");
    }
    server.shutdown();
}

#[test]
fn drain_shutdown_completes_every_admitted_request() {
    let server = start_default(common::shared_system(), &config());
    let client = server.client();
    let tickets: Vec<Ticket> = (0..100u64)
        .map(|i| client.submit(request(i)).expect("admitted"))
        .collect();
    server.shutdown();
    // Shutdown drains: every request admitted before it resolves with a
    // real score, and new submissions are refused.
    for (i, ticket) in tickets.into_iter().enumerate() {
        let response = ticket.wait().expect("drained");
        assert_eq!(response.id, i as u64);
    }
    assert!(matches!(
        client.submit(request(999)),
        Err(ServeError::ShuttingDown) | Err(ServeError::Disconnected)
    ));
}

#[test]
fn saturation_sheds_with_overloaded() {
    // A registry with no worker pool: nothing takes from the queue, so
    // submissions pile up deterministically.
    let cfg = ServeConfig {
        max_batch: 64,
        queue_capacity: 4,
        workers: 1,
        policy: OverflowPolicy::Shed,
        ..ServeConfig::default()
    };
    let registry = DeploymentRegistry::new(
        vec![(DEFAULT_MODEL.to_string(), common::shared_system())],
        &cfg,
    );
    let queue = registry.default_entry().queue();
    let _held: Vec<Ticket> = (0..4u64)
        .map(|i| queue.submit(request(i)).expect("fits in queue"))
        .collect();
    assert_eq!(
        queue.submit(request(4)).unwrap_err(),
        ServeError::Overloaded
    );
    assert_eq!(queue.depth(), 4);
}

#[test]
fn expired_requests_are_dropped_before_scoring() {
    // The deadline has passed before the request is even submitted, so
    // whenever the worker reaches it, it drops it unscored.
    let server = start_default(common::shared_system(), &config());
    let client = server.client();
    let mut expired = request(0);
    expired.deadline = Some(Instant::now() - Duration::from_millis(1));
    let ticket = client.submit(expired).expect("admitted");
    assert_eq!(ticket.wait().unwrap_err(), ServeError::Expired);
    server.shutdown();
}

#[test]
fn wrong_input_length_is_a_bad_request() {
    let server = start_default(common::shared_system(), &config());
    let client = server.client();
    let mut bad = request(0);
    bad.input = common::sample_input(common::SYMBOLS + 1, 0);
    let err = client.score(bad).unwrap_err();
    assert!(matches!(err, ServeError::BadRequest(_)), "got {err:?}");
    server.shutdown();
}

#[test]
fn hot_swap_changes_the_epoch_without_downtime() {
    let server = start_default(common::shared_system(), &config());
    let client = server.client();

    let before = client.score(request(0)).expect("epoch 1");
    assert_eq!(before.epoch, 1);

    let replacement = common::tiny_system(99);
    assert_eq!(
        server.registry().default_entry().swap(replacement.clone()),
        Ok(2)
    );

    let after = client.score(request(0)).expect("epoch 2");
    assert_eq!(after.epoch, 2);
    // Same sample, new deployment: scored against the new system on the
    // new epoch's stream.
    let deployment = server.registry().default_entry().current();
    let mut scratch = Vec::new();
    let offline = replacement.score_indexed(&request(0).input, deployment.stream, 0, &mut scratch);
    assert_eq!(after.predicted, offline);
    assert_eq!(after.scores, scratch);
    server.shutdown();
}

#[test]
fn a_default_model_deployment_owns_wire_id_zero() {
    let server = Server::builder()
        .model(DEFAULT_MODEL, common::shared_system())
        .config(config())
        .start();
    let entry = server.registry().default_entry();
    assert_eq!(entry.name(), DEFAULT_MODEL);
    assert_eq!(entry.wire_id(), 0);
    assert!(server.client().score(request(0)).is_ok());
    server.shutdown();
}

#[test]
fn two_models_score_on_their_own_systems_and_streams() {
    let system_a = common::shared_system();
    let system_b = common::tiny_system(77);
    let server = Server::builder()
        .model("alpha", system_a.clone())
        .model("beta", system_b.clone())
        .config(config())
        .start();

    let mut scratch = Vec::new();
    for (name, system) in [("alpha", &system_a), ("beta", &system_b)] {
        let client = server.client_for(name).expect("registered");
        assert_eq!(client.model(), name);
        let entry = server.registry().entry(name).expect("registered");
        let deployment = entry.current();
        for i in 0..4u64 {
            let response = client.score(request(i)).expect("scored");
            let offline =
                system.score_indexed(&request(i).input, deployment.stream, i, &mut scratch);
            assert_eq!(response.predicted, offline, "{name} sample {i}");
            assert_eq!(response.scores, scratch, "{name} sample {i} scores");
        }
    }
    assert!(server.client_for("gamma").is_none());
    server.shutdown();
}

#[test]
fn a_full_tenant_queue_does_not_shed_another_tenants_traffic() {
    // Before the keyed registry, one shared queue meant a backlogged
    // tenant consumed the global capacity; now each model owns its
    // bounded queue, so alpha saturating sheds alpha alone. No worker
    // pool runs, so both queues hold what they admit.
    let cfg = ServeConfig {
        max_batch: 64,
        queue_capacity: 4,
        workers: 1,
        policy: OverflowPolicy::Shed,
        ..ServeConfig::default()
    };
    let registry = DeploymentRegistry::new(
        vec![
            ("alpha".to_string(), common::shared_system()),
            ("beta".to_string(), common::shared_system()),
        ],
        &cfg,
    );
    let alpha = registry.entry("alpha").expect("alpha").queue();
    let beta = registry.entry("beta").expect("beta").queue();

    let _held: Vec<Ticket> = (0..4u64)
        .map(|i| alpha.submit(request(i)).expect("fits in alpha's queue"))
        .collect();
    assert_eq!(
        alpha.submit(request(4)).unwrap_err(),
        ServeError::Overloaded
    );

    // Beta's queue is untouched: its full capacity still admits.
    let _beta_held: Vec<Ticket> = (0..4u64)
        .map(|i| beta.submit(request(100 + i)).expect("beta admits freely"))
        .collect();
    assert_eq!(beta.depth(), 4);
}

#[test]
fn keyed_deploys_touch_only_their_model() {
    let server = Server::builder()
        .model("alpha", common::shared_system())
        .model("beta", common::shared_system())
        .config(config())
        .start();

    let replacement = common::tiny_system(99);
    let registry = server.registry();
    let beta = registry.entry("beta").expect("known");
    assert_eq!(beta.swap(replacement.clone()).expect("same shape"), 2);
    assert!(registry.entry("gamma").is_none());

    assert_eq!(registry.entry("alpha").unwrap().current().epoch, 1);
    assert_eq!(registry.entry("beta").unwrap().current().epoch, 2);

    // Beta serves the replacement on its epoch-2 stream; alpha still
    // serves the original on its epoch-1 stream.
    let mut scratch = Vec::new();
    let beta_deploy = registry.entry("beta").unwrap().current();
    let response = server
        .client_for("beta")
        .unwrap()
        .score(request(0))
        .expect("scored");
    assert_eq!(response.epoch, 2);
    let offline = replacement.score_indexed(&request(0).input, beta_deploy.stream, 0, &mut scratch);
    assert_eq!(response.predicted, offline);
    assert_eq!(response.scores, scratch);
    server.shutdown();
}
