//! The `loadgen` binary end to end: against an in-process two-tenant
//! server on a loopback port, a default-target run (v1 frames to the
//! default model) and a `--models a,b --shutdown` run (v2 frames to each
//! named model) both exit 0 with replies scored for every target, and the
//! shutdown drains the server so `tcp::serve` returns `Ok`.

use metaai::config::SystemConfig;
use metaai::pipeline::MetaAiSystem;
use metaai_math::rng::SimRng;
use metaai_nn::complex_lnn::ComplexLnn;
use metaai_serve::{tcp, OverflowPolicy, ServeConfig, Server};
use std::net::TcpListener;
use std::process::Command;
use std::sync::Arc;

/// A small deployment: 3 classes over `symbols` symbols on 32 atoms.
fn tiny_system(seed: u64, symbols: usize) -> Arc<MetaAiSystem> {
    let mut rng = SimRng::seed_from_u64(seed);
    let net = ComplexLnn::init(3, symbols, &mut rng);
    Arc::new(
        MetaAiSystem::builder()
            .config(SystemConfig::paper_default())
            .num_atoms(32)
            .deploy(net),
    )
}

/// Runs `loadgen` with `args`, asserts exit 0 and returns its stdout.
fn loadgen(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(args)
        .output()
        .expect("run loadgen");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "loadgen {args:?} exited {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The count of `label`'s `{label} N scored` line in loadgen's output.
fn scored(stdout: &str, label: &str) -> u64 {
    stdout
        .lines()
        .find_map(|line| {
            let mut words = line.split_whitespace();
            (words.next() == Some(label)).then_some(())?;
            let n = words.next()?.parse().ok()?;
            (words.next() == Some("scored")).then_some(n)
        })
        .unwrap_or_else(|| panic!("no `{label} N scored` line in:\n{stdout}"))
}

#[test]
fn loadgen_scores_the_default_target_and_two_named_models_then_drains() {
    // Different input lengths, so each target's symbols must come from
    // its own entry of the HELLO table.
    let server = Server::builder()
        .model("a", tiny_system(1, 16))
        .model("b", tiny_system(2, 8))
        .config(ServeConfig {
            max_batch: 8,
            queue_capacity: 256,
            workers: 1,
            policy: OverflowPolicy::Shed,
            ..ServeConfig::default()
        })
        .start();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let serve_thread = std::thread::spawn(move || tcp::serve(listener, server));

    let common = ["--addr", addr.as_str(), "--duration-secs", "0.5"];
    let default = loadgen(&[&common[..], &["--connections", "1"]].concat());
    assert!(
        default.contains("(epoch 1, 3 outputs x 16 symbols)"),
        "{default}"
    );
    assert!(scored(&default, "clean") > 0, "{default}");

    let mixed = loadgen(&[&common[..], &["--models", "a,b", "--shutdown"]].concat());
    assert!(scored(&mixed, "a") > 0, "{mixed}");
    assert!(scored(&mixed, "b") > 0, "{mixed}");
    assert!(mixed.contains("shutdown  acked after drain"), "{mixed}");

    serve_thread
        .join()
        .expect("serve thread")
        .expect("serve returns Ok after the drain");
}
