//! Loopback round trips through the TCP front-end: wire scoring matches
//! the offline engine, INFO reports the deployment shape, pipelined
//! requests come back in order, SHUTDOWN drains cleanly, and the v2
//! handshake + per-request model routing serve two tenants on one port.

mod common;

use metaai_serve::tcp::{self, Target, TcpClient};
use metaai_serve::wire::{Request, Response, PROTOCOL_VERSION};
use metaai_serve::{OverflowPolicy, ServeConfig, Server, ServerBuilder, DEFAULT_MODEL};
use std::net::TcpListener;
use std::thread::JoinHandle;

fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        queue_capacity: 256,
        workers: 2,
        policy: OverflowPolicy::Shed,
        ..ServeConfig::default()
    }
}

fn spawn_serve(builder: ServerBuilder) -> (std::net::SocketAddr, JoinHandle<std::io::Result<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = builder.config(serve_config()).start();
    let handle = std::thread::spawn(move || tcp::serve(listener, server));
    (addr, handle)
}

fn start_tcp_server() -> (std::net::SocketAddr, JoinHandle<std::io::Result<()>>) {
    spawn_serve(Server::builder().model(DEFAULT_MODEL, common::shared_system()))
}

fn connect(addr: std::net::SocketAddr) -> TcpClient {
    TcpClient::connect(addr).expect("connect")
}

#[test]
fn tcp_round_trip_matches_offline_scores() {
    let (addr, handle) = start_tcp_server();
    let system = common::shared_system();
    let stream = metaai_math::rng::SimRng::stream_id("serve-default-epoch-1");

    let mut client = connect(addr);
    let mut scratch = Vec::new();
    for i in 0..5u64 {
        let input = common::sample_input(common::SYMBOLS, i);
        let response = client
            .score(Target::Default, i, i, input.as_slice(), None)
            .expect("io")
            .expect("scored");
        let offline = system.score_indexed(&input, stream, i, &mut scratch);
        assert_eq!(response.id, i);
        assert_eq!(response.epoch, 1);
        assert_eq!(response.predicted, offline);
        assert_eq!(response.scores, scratch);
    }

    shutdown(client);
    handle.join().unwrap().expect("serve exits cleanly");
}

#[test]
fn info_reports_the_deployment_shape() {
    let (addr, handle) = start_tcp_server();
    let mut client = connect(addr);
    let reply = client.request(&Request::Info).expect("io");
    assert_eq!(
        reply,
        Response::Info {
            epoch: 1,
            outputs: 3,
            symbols: common::SYMBOLS as u32,
        }
    );
    shutdown(client);
    handle.join().unwrap().expect("serve exits cleanly");
}

#[test]
fn pipelined_requests_reply_in_order() {
    let (addr, handle) = start_tcp_server();
    let mut client = connect(addr);
    // Fire all requests before reading any reply: the per-connection
    // writer resolves tickets FIFO, so ids come back in submission order.
    for i in 0..20u64 {
        client
            .send(&Request::Infer {
                id: i,
                sample_index: i,
                deadline_us: 0,
                input: common::sample_input(common::SYMBOLS, i).as_slice().to_vec(),
            })
            .expect("send");
    }
    for i in 0..20u64 {
        match client.recv().expect("recv").expect("open") {
            Response::Score { id, .. } => assert_eq!(id, i),
            other => panic!("expected a score, got {other:?}"),
        }
    }
    shutdown(client);
    handle.join().unwrap().expect("serve exits cleanly");
}

#[test]
fn wrong_length_input_returns_a_bad_request_error() {
    let (addr, handle) = start_tcp_server();
    let mut client = connect(addr);
    let err = client
        .score(
            Target::Default,
            7,
            0,
            common::sample_input(3, 0).as_slice(),
            None,
        )
        .expect("io")
        .expect_err("short input must be rejected");
    assert_eq!(err.code(), 4, "BadRequest wire code");
    shutdown(client);
    handle.join().unwrap().expect("serve exits cleanly");
}

#[test]
fn shutdown_acks_after_draining_pending_requests() {
    let (addr, handle) = start_tcp_server();
    let mut client = connect(addr);
    // Queue work, then shutdown on the same connection: the ack must
    // come after every earlier reply (FIFO writer + drain-then-stop).
    for i in 0..10u64 {
        client
            .send(&Request::Infer {
                id: i,
                sample_index: i,
                deadline_us: 0,
                input: common::sample_input(common::SYMBOLS, i).as_slice().to_vec(),
            })
            .expect("send");
    }
    client.send(&Request::Shutdown).expect("send shutdown");
    let mut scored = 0;
    loop {
        match client.recv().expect("recv").expect("open") {
            Response::Score { .. } => scored += 1,
            Response::ShutdownAck => break,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(scored, 10, "every admitted request drained before the ack");
    assert!(client.recv().expect("recv").is_none(), "connection closed");
    handle.join().unwrap().expect("serve exits cleanly");
}

/// Sends SHUTDOWN and waits for the ack, closing the socket afterwards.
fn shutdown(mut client: TcpClient) {
    client.send(&Request::Shutdown).expect("send shutdown");
    loop {
        match client.recv().expect("recv") {
            Some(Response::ShutdownAck) | None => break,
            Some(_) => continue,
        }
    }
}

fn start_two_model_server() -> (std::net::SocketAddr, JoinHandle<std::io::Result<()>>) {
    spawn_serve(
        Server::builder()
            .model("alpha", common::shared_system())
            .model("beta", common::tiny_system(77)),
    )
}

#[test]
fn hello_negotiates_v2_and_lists_every_model() {
    let (addr, handle) = start_two_model_server();
    let mut client = connect(addr);
    let models = client.hello().expect("io").expect("v2 server");
    assert_eq!(models.len(), 2);
    assert_eq!(models[0].id, 0);
    assert_eq!(models[0].name, "alpha");
    assert_eq!(models[0].epoch, 1);
    assert_eq!(models[0].symbols, common::SYMBOLS as u32);
    assert_eq!(models[1].id, 1);
    assert_eq!(models[1].name, "beta");
    shutdown(client);
    handle.join().unwrap().expect("serve exits cleanly");
}

#[test]
fn two_models_score_over_one_connection_each_on_its_own_stream() {
    let (addr, handle) = start_two_model_server();
    let system_a = common::shared_system();
    let system_b = common::tiny_system(77);
    let stream_a = metaai_math::rng::SimRng::stream_id("serve-alpha-epoch-1");
    let stream_b = metaai_math::rng::SimRng::stream_id("serve-beta-epoch-1");

    let mut client = connect(addr);
    let mut scratch = Vec::new();
    for i in 0..4u64 {
        let input = common::sample_input(common::SYMBOLS, i);
        for (model, system, stream) in [(0u32, &system_a, stream_a), (1u32, &system_b, stream_b)] {
            let response = client
                .score(Target::Model(model), i, i, input.as_slice(), None)
                .expect("io")
                .expect("scored");
            let offline = system.score_indexed(&input, stream, i, &mut scratch);
            assert_eq!(response.predicted, offline, "model {model} sample {i}");
            assert_eq!(response.scores, scratch, "model {model} sample {i}");
        }
    }
    shutdown(client);
    handle.join().unwrap().expect("serve exits cleanly");
}

#[test]
fn v1_frames_route_to_the_default_model_on_a_multi_model_server() {
    // The compatibility shim: a client that never sends a HELLO scores
    // against the first registered model ("alpha" here), exactly as a
    // PR-4/5 client would.
    let (addr, handle) = start_two_model_server();
    let system = common::shared_system();
    let stream = metaai_math::rng::SimRng::stream_id("serve-alpha-epoch-1");
    let mut client = connect(addr);
    let mut scratch = Vec::new();
    let input = common::sample_input(common::SYMBOLS, 3);
    let response = client
        .score(Target::Default, 3, 3, input.as_slice(), None)
        .expect("io")
        .expect("scored");
    let offline = system.score_indexed(&input, stream, 3, &mut scratch);
    assert_eq!(response.predicted, offline);
    assert_eq!(response.scores, scratch);
    shutdown(client);
    handle.join().unwrap().expect("serve exits cleanly");
}

#[test]
fn an_unknown_model_id_fails_the_request_but_not_the_connection() {
    let (addr, handle) = start_two_model_server();
    let mut client = connect(addr);
    let input = common::sample_input(common::SYMBOLS, 0);
    let err = client
        .score(Target::Model(99), 7, 0, input.as_slice(), None)
        .expect("io — the connection answers")
        .expect_err("unregistered id");
    assert_eq!(err.code(), 7, "UnknownModel wire code");
    // The same connection keeps serving valid requests afterwards.
    assert!(client
        .score(Target::Model(0), 8, 0, input.as_slice(), None)
        .expect("io")
        .is_ok());
    shutdown(client);
    handle.join().unwrap().expect("serve exits cleanly");
}

#[test]
fn a_hello_from_the_future_is_refused_with_unsupported_version() {
    let (addr, handle) = start_tcp_server();
    let mut client = connect(addr);
    client
        .send(&Request::Hello {
            version: PROTOCOL_VERSION + 1,
        })
        .expect("send");
    match client.recv().expect("recv").expect("answered, not hung") {
        Response::Error { code, .. } => assert_eq!(code, 8, "UnsupportedVersion wire code"),
        other => panic!("expected an error frame, got {other:?}"),
    }
    assert!(
        client.recv().expect("recv").is_none(),
        "the connection closes after the refusal"
    );
    // The server itself is still up; shut it down over a fresh one.
    shutdown(connect(addr));
    handle.join().unwrap().expect("serve exits cleanly");
}
