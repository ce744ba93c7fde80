//! Fault-path behaviour of the service: worker panics resolve tickets
//! and restart the pool, client timeouts turn a stalled server into an
//! error, a peer that leaves mid-pipeline costs no worker, a peer that
//! stops reading is shut down after one reply-write timeout while other
//! connections are still answered, and
//! `TcpClient::score` with a retry policy recovers from dropped
//! connections and transient server errors (without one, it makes one
//! attempt).

mod common;

use metaai_serve::tcp::{self, ClientConfig, RetryPolicy, Target, TcpClient, REPLY_WRITE_TIMEOUT};
use metaai_serve::wire::{self, Request, Response};
use metaai_serve::{
    OverflowPolicy, ScoreRequest, ServeConfig, ServeError, Server, Ticket, DEFAULT_MODEL,
};
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn config(workers: usize) -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        queue_capacity: 256,
        workers,
        policy: OverflowPolicy::Shed,
        ..ServeConfig::default()
    }
}

fn start_default(cfg: &ServeConfig) -> Server {
    Server::builder()
        .model(DEFAULT_MODEL, common::shared_system())
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

/// The ticket resolves while the panic is still unwinding, so the
/// restart counter can lag the error reply by a moment; poll it.
fn wait_for_restarts(server: &Server, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.worker_restarts() < n && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.worker_restarts(), n);
}

#[test]
fn a_worker_panic_resolves_the_ticket_and_the_pool_keeps_scoring() {
    let server = start_default(&config(1));
    let client = server.client();
    let faults = server.fault_injector();

    faults.panic_on_sample(7);
    assert_eq!(
        client.score(request(7)).unwrap_err(),
        ServeError::WorkerPanicked,
        "the poisoned request's own ticket resolves as an error"
    );
    wait_for_restarts(&server, 1);
    assert_eq!(faults.armed(), 0, "the injected fault fired exactly once");

    // The restarted worker scores the identical request correctly.
    let deployment = server.registry().default_entry().current();
    let mut scratch = Vec::new();
    let offline = common::shared_system().score_indexed(
        &request(7).input,
        deployment.stream,
        7,
        &mut scratch,
    );
    let retried = client.score(request(7)).expect("scored after restart");
    assert_eq!(retried.predicted, offline);
    assert_eq!(retried.scores, scratch);
    server.shutdown();
}

#[test]
fn a_mid_batch_panic_fails_only_the_tail_of_the_batch() {
    // One worker and eight pipelined requests with the poisoned sample
    // at index 3. How they split into batches depends on timing: the
    // worker takes whatever is queued when it comes free.
    let cfg = ServeConfig {
        max_batch: 8,
        queue_capacity: 256,
        workers: 1,
        policy: OverflowPolicy::Shed,
        ..ServeConfig::default()
    };
    let server = start_default(&cfg);
    let client = server.client();
    server.fault_injector().panic_on_sample(3);

    let tickets: Vec<Ticket> = (0..8u64)
        .map(|i| client.submit(request(i)).expect("admitted"))
        .collect();
    let outcomes: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();

    // Requests scored before the panic are fine regardless of how the
    // batch split; the poisoned one and everything still unresolved in
    // its batch come back WorkerPanicked — never a hang, never a drop.
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Ok(scored) => assert_eq!(scored.id, i as u64),
            Err(e) => assert_eq!(*e, ServeError::WorkerPanicked, "request {i}"),
        }
    }
    assert!(outcomes[3].is_err(), "the poisoned request itself fails");
    for outcome in &outcomes[..3] {
        assert!(outcome.is_ok(), "requests ahead of the panic were scored");
    }
    wait_for_restarts(&server, 1);

    // The pool is alive: fresh work scores.
    assert!(client.score(request(100)).is_ok());
    server.shutdown();
}

#[test]
fn the_pool_survives_repeated_panics() {
    let server = start_default(&config(2));
    let client = server.client();
    let faults = server.fault_injector();
    for round in 0..3u64 {
        let victim = 1000 + round;
        faults.panic_on_sample(victim);
        assert_eq!(
            client.score(request(victim)).unwrap_err(),
            ServeError::WorkerPanicked,
            "round {round}"
        );
        assert!(client.score(request(round)).is_ok(), "round {round}");
    }
    wait_for_restarts(&server, 3);
    server.shutdown();
}

#[test]
fn a_read_timeout_turns_a_stalled_server_into_an_error() {
    // A listener that accepts (via the kernel backlog) but never
    // replies: the pre-hardening client would block in recv forever.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let mut client = TcpClient::connect_with(
        addr,
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_millis(200)),
            write_timeout: Some(Duration::from_secs(5)),
        },
    )
    .expect("connect");
    let started = Instant::now();
    let err = client.request(&Request::Info).expect_err("must not hang");
    let waited = started.elapsed();
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "got {err:?}"
    );
    assert!(waited >= Duration::from_millis(100), "waited {waited:?}");
    assert!(waited < Duration::from_secs(30), "waited {waited:?}");
    drop(listener);
}

#[test]
fn a_peer_that_leaves_mid_pipeline_costs_no_worker_and_no_other_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = start_default(&config(2));
    let registry = server.registry().clone();
    let handle = std::thread::spawn(move || tcp::serve(listener, server));

    // Pipeline 64 requests, then close without reading a reply: the
    // workers' writes to this socket fail (or land in a dead buffer),
    // and must neither stall a worker nor reach another connection.
    let mut leaver = TcpStream::connect(addr).expect("connect the leaver");
    let frames: Vec<u8> = (0..64u64)
        .flat_map(|i| {
            let input = common::sample_input(common::SYMBOLS, i);
            wire::frame(|buf| wire::encode_infer(buf, None, i, i, 0, input.as_slice()))
        })
        .collect();
    leaver.write_all(&frames).expect("pipeline 64 requests");
    drop(leaver);

    let mut other = TcpClient::connect_with(addr, ClientConfig::with_all(Duration::from_secs(10)))
        .expect("connect a second client");
    for i in 100..108u64 {
        let input = common::sample_input(common::SYMBOLS, i);
        let scored = other
            .score(Target::Default, i, i, input.as_slice(), None)
            .expect("io")
            .expect("scored");
        assert_eq!(scored.id, i);
    }
    let restarts: u64 = registry.entries().iter().map(|e| e.worker_restarts()).sum();
    assert_eq!(restarts, 0, "a departed peer is not a worker fault");

    other.send(&Request::Shutdown).expect("send shutdown");
    loop {
        match other.recv().expect("recv") {
            Some(Response::ShutdownAck) | None => break,
            Some(_) => continue,
        }
    }
    drop(other);
    handle.join().unwrap().expect("serve exits cleanly");
}

#[test]
fn a_peer_that_stops_reading_is_cut_off_and_other_connections_are_still_answered() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // Blocking admission: a full queue holds the staller's requests back
    // in its own socket instead of shedding the other client's.
    let cfg = ServeConfig {
        policy: OverflowPolicy::Block,
        ..config(2)
    };
    let server = start_default(&cfg);
    let registry = server.registry().clone();
    let handle = std::thread::spawn(move || tcp::serve(listener, server));

    // The staller pipelines requests and never reads a reply: once both
    // socket buffers are full, the worker writing to it blocks until the
    // drain's deadline, REPLY_WRITE_TIMEOUT, and the server shuts the
    // connection down, which fails the staller's next send.
    let mut staller = TcpStream::connect(addr).expect("connect the staller");
    staller
        .set_write_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let chunk: Vec<u8> = (0..500u64)
        .flat_map(|i| {
            let input = common::sample_input(common::SYMBOLS, i);
            wire::frame(|buf| wire::encode_infer(buf, None, i, i, 0, input.as_slice()))
        })
        .collect();
    // Meanwhile a second connection is scored by the other worker.
    let mut other = TcpClient::connect_with(addr, ClientConfig::with_all(Duration::from_secs(10)))
        .expect("connect a second client");
    let started = Instant::now();
    let mut answered = Vec::new();
    let mut i = 1_000_000u64;
    let (error, cut_at) = loop {
        assert!(
            started.elapsed() < REPLY_WRITE_TIMEOUT + Duration::from_secs(30),
            "the stalled connection was never shut down"
        );
        if let Err(e) = staller.write_all(&chunk) {
            break (e, Instant::now());
        }
        let input = common::sample_input(common::SYMBOLS, i);
        let scored = other
            .score(Target::Default, i, i, input.as_slice(), None)
            .expect("io")
            .expect("the other connection is scored");
        assert_eq!(scored.id, i);
        answered.push(Instant::now());
        i += 1;
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        !matches!(
            error.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "the server hung up rather than stopped reading: {error}"
    );
    // The stall began after the first send and lasted one whole timeout.
    assert!(
        cut_at - started >= REPLY_WRITE_TIMEOUT,
        "cut after {:?}",
        cut_at - started
    );
    // The other connection was answered in the stall's last half timeout.
    let stalled_from = cut_at - REPLY_WRITE_TIMEOUT / 2;
    assert!(
        answered.iter().any(|at| *at >= stalled_from),
        "{} answers, none during the stall",
        answered.len()
    );
    let restarts: u64 = registry.entries().iter().map(|e| e.worker_restarts()).sum();
    assert_eq!(restarts, 0, "a stalled peer is not a worker fault");
    drop(staller);

    other.send(&Request::Shutdown).expect("send shutdown");
    loop {
        match other.recv().expect("recv") {
            Some(Response::ShutdownAck) | None => break,
            Some(_) => continue,
        }
    }
    drop(other);
    handle.join().unwrap().expect("serve exits cleanly");
}

/// A hand-rolled protocol server for retry tests: drops the first
/// `drop_first` connections right after accept, then serves scripted
/// error codes followed by real scores.
fn scripted_server(drop_first: usize, error_codes: Vec<u8>) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let mut errors = error_codes.into_iter();
        for (i, conn) in listener.incoming().enumerate() {
            let Ok(stream) = conn else { break };
            if i < drop_first {
                drop(stream);
                continue;
            }
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            while let Ok(Some(payload)) = wire::read_frame(&mut reader) {
                let Ok(Request::Infer { id, .. }) = Request::decode(&payload) else {
                    return;
                };
                let reply = match errors.next() {
                    Some(code) => Response::Error { id, code },
                    None => Response::Score {
                        id,
                        epoch: 1,
                        predicted: 0,
                        scores: vec![1.0],
                    },
                };
                if wire::write_frame(&mut writer, &reply.encode()).is_err() {
                    return;
                }
                let _ = writer.flush();
            }
        }
    });
    addr
}

fn fast_retries(attempts: u32) -> RetryPolicy {
    RetryPolicy {
        attempts,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(5),
        seed: 42,
    }
}

#[test]
fn a_retried_score_reconnects_after_a_dropped_connection() {
    let addr = scripted_server(1, Vec::new());
    let mut client = TcpClient::connect_with(addr, ClientConfig::with_all(Duration::from_secs(5)))
        .expect("initial connect");
    // The first connection dies before replying (EOF mid-request); the
    // retry dials a fresh one and the resent request scores.
    let input = common::sample_input(1, 0).as_slice().to_vec();
    let scored = client
        .score(Target::Default, 9, 9, &input, Some(&fast_retries(3)))
        .expect("io recovered")
        .expect("scored");
    assert_eq!(scored.id, 9);
    assert_eq!(scored.scores, vec![1.0]);
}

#[test]
fn a_retried_score_retries_transient_server_errors_but_not_fatal_ones() {
    // Overloaded (1) then WorkerPanicked (6) are retryable; the third
    // attempt scores.
    let addr = scripted_server(0, vec![1, 6]);
    let mut client = TcpClient::connect(addr).expect("connect");
    let input = common::sample_input(1, 0).as_slice().to_vec();
    let scored = client
        .score(Target::Default, 1, 1, &input, Some(&fast_retries(3)))
        .expect("io")
        .expect("scored on the third attempt");
    assert_eq!(scored.id, 1);

    // BadRequest (4) is fatal: one attempt, straight back to the caller.
    let addr = scripted_server(0, vec![4, 0, 0, 0]);
    let mut client = TcpClient::connect(addr).expect("connect");
    let err = client
        .score(Target::Default, 2, 2, &input, Some(&fast_retries(3)))
        .expect("io")
        .expect_err("fatal error is not retried");
    assert!(matches!(err, ServeError::BadRequest(_)));
}

#[test]
fn a_retried_score_reports_the_last_error_when_attempts_run_out() {
    let addr = scripted_server(0, vec![1, 1, 1, 1, 1, 1]);
    let mut client = TcpClient::connect(addr).expect("connect");
    let input = common::sample_input(1, 0).as_slice().to_vec();
    let err = client
        .score(Target::Default, 3, 3, &input, Some(&fast_retries(3)))
        .expect("io")
        .expect_err("every attempt was shed");
    assert_eq!(err, ServeError::Overloaded);
}

#[test]
fn an_unretried_score_makes_one_attempt() {
    let input = common::sample_input(1, 0).as_slice().to_vec();
    // A retryable error reply is final: the next request is the one that
    // reaches the scripted score.
    let addr = scripted_server(0, vec![1]);
    let mut client = TcpClient::connect(addr).expect("connect");
    let first = client.score(Target::Default, 4, 4, &input, None);
    assert_eq!(first.expect("io").unwrap_err(), ServeError::Overloaded);
    let second = client.score(Target::Default, 5, 5, &input, None);
    assert_eq!(second.expect("io").expect("scored").id, 5);

    // A dropped connection is an IO error, not a reconnect.
    let addr = scripted_server(1, Vec::new());
    let mut client = TcpClient::connect_with(addr, ClientConfig::with_all(Duration::from_secs(5)))
        .expect("connect");
    assert!(client.score(Target::Default, 6, 6, &input, None).is_err());
}

#[test]
fn a_client_held_open_across_shutdown_is_answered_not_dropped() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = start_default(&config(2));
    let handle = std::thread::spawn(move || tcp::serve(listener, server));

    // B connects first and stays idle across A's shutdown.
    let mut idle = TcpClient::connect(addr).expect("connect B");
    let _ = idle.request(&Request::Info).expect("B is live");

    let mut shutter = TcpClient::connect(addr).expect("connect A");
    shutter.send(&Request::Shutdown).expect("send shutdown");
    loop {
        match shutter.recv().expect("recv") {
            Some(Response::ShutdownAck) | None => break,
            Some(_) => continue,
        }
    }

    // B's connection is still open. Requests sent during the shutdown
    // window must each get a reply — a score while the drain still
    // admits, then a ShuttingDown error frame once it closes. Silence
    // (or a hang) is the bug this guards against.
    let deadline = Instant::now() + Duration::from_secs(10);
    let outcome = loop {
        let reply = idle
            .score(
                Target::Default,
                5,
                5,
                common::sample_input(common::SYMBOLS, 5).as_slice(),
                None,
            )
            .expect("io — every request in the window is answered");
        match reply {
            Ok(_) if Instant::now() < deadline => continue,
            other => break other,
        }
    };
    assert_eq!(outcome.unwrap_err(), ServeError::ShuttingDown);
    drop(idle);
    handle.join().unwrap().expect("serve exits cleanly");
}
