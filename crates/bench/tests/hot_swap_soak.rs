//! Hot swap under chaos: while fault-injecting connections abuse the
//! listener, a clean retrying connection scores 40 samples and the
//! deployment is hot-swapped mid-run. The wire protocol echoes the epoch
//! each reply was scored under, so the swap is observable only as the
//! echo flipping from 1 to 2 — never as a wrong answer: every reply
//! passes the harness's one check (`serveload::verify`, bitwise against
//! offline scoring on the deployment whose epoch it echoes), the flip
//! happens exactly once, and everything after it scores against the
//! *new* system on the *new* stream.
//!
//! Sample spaces are disjoint as everywhere else in the harness: chaos
//! counts up from 0, the clean connection from 1 000 000.

use metaai::pipeline::MetaAiSystem;
use metaai_bench::chaos::{self, ChaosConfig};
use metaai_bench::scenario::chaos_clean_input;
use metaai_bench::serveload;
use metaai_math::rng::SimRng;
use metaai_nn::complex_lnn::ComplexLnn;
use metaai_serve::tcp::{self, ClientConfig, RetryPolicy, Target, TcpClient};
use metaai_serve::{OverflowPolicy, ServeConfig, Server};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

const SYMBOLS: usize = 16;
const SAMPLES: u64 = 40;

fn tiny_system(seed: u64) -> Arc<MetaAiSystem> {
    let mut rng = SimRng::seed_from_u64(seed);
    let net = ComplexLnn::init(3, SYMBOLS, &mut rng);
    Arc::new(
        MetaAiSystem::builder()
            .config(metaai::config::SystemConfig::paper_default())
            .num_atoms(32)
            .deploy(net),
    )
}

#[test]
fn a_mid_soak_hot_swap_flips_the_epoch_echo_without_dropping_a_request() {
    let old_system = tiny_system(21);
    let fresh_system = tiny_system(22); // same shape, different weights
    let server = Server::builder()
        .model("live".to_string(), old_system.clone())
        .config(ServeConfig {
            max_batch: 8,
            queue_capacity: 512,
            workers: 2,
            policy: OverflowPolicy::Shed,
            ..ServeConfig::default()
        })
        .start();
    let entry = server.registry().entry("live").expect("registered").clone();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let serve_thread = std::thread::spawn(move || tcp::serve(listener, server));

    // The fault storm, concurrent with everything below.
    let chaos_cfg = ChaosConfig {
        seed: 3,
        connections: 2,
        target_faults: 60,
        duration: Duration::from_secs(60),
    };
    let chaos_thread = std::thread::spawn(move || chaos::run(addr, SYMBOLS, &chaos_cfg));

    let mut deployments = vec![entry.current()];
    assert_eq!(deployments[0].epoch, 1);
    let mut client = TcpClient::connect_with(addr, ClientConfig::with_all(Duration::from_secs(5)))
        .expect("clean connect");
    let policy = RetryPolicy {
        attempts: 5,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(100),
        seed: 3,
    };
    let requests = |range: std::ops::Range<u64>| {
        range.map(|i| {
            let sample = 1_000_000 + i;
            (sample, chaos_clean_input(sample, SYMBOLS))
        })
    };
    let mut epochs = Vec::new();
    let mut verified = 0u64;
    for (half, range) in [(0, 0..SAMPLES / 2), (1, SAMPLES / 2..SAMPLES)] {
        if half == 1 {
            // The swap, mid-soak: the registry accepts it (same shape)
            // and assigns the next epoch. In-flight batches drain under
            // epoch 1; every batch formed after this scores under 2.
            let epoch = entry.swap(fresh_system.clone()).expect("same-shape swap");
            assert_eq!(epoch, 2);
            deployments.push(entry.current());
        }
        // Bitwise against the deployment the reply *says* scored it.
        verified += serveload::send(
            &mut client,
            Target::Default,
            requests(range),
            Some(&policy),
            |sample, x, reply| {
                serveload::verify(&deployments, sample, x, reply)?;
                let epoch = reply.as_ref().map_or(0, |r| r.epoch);
                // Requests sent after the swap returned can only be
                // batched against the new deployment.
                if half == 1 && epoch != 2 {
                    return Err(format!("sample {sample} echoed a stale epoch {epoch}"));
                }
                epochs.push(epoch);
                Ok(())
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }
    let flips = epochs.windows(2).filter(|w| w[0] != w[1]).count();
    assert_eq!(verified, SAMPLES, "40/40 answered and verified");
    assert_eq!(flips, 1, "the epoch echo flipped exactly once");
    assert_eq!(entry.current().epoch, 2);

    // The serve loop only returns once every peer has hung up, so the
    // clean connection must close before the drain shutdown below.
    drop(client);
    let report = chaos_thread
        .join()
        .expect("chaos thread")
        .expect("chaos reached the server");
    assert!(
        report.faults_injected() >= 60,
        "the soak was genuinely chaotic ({} faults)",
        report.faults_injected()
    );
    serveload::shutdown(addr).expect("drain shutdown");
    serve_thread
        .join()
        .expect("serve thread")
        .expect("tcp::serve");
}
