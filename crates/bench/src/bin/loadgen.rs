//! Load generator for `metaai serve`: synchronous clients that send
//! requests for a fixed time and count the replies.
//!
//! ```text
//! loadgen [--addr 127.0.0.1:7077] [--duration-secs 2] [--connections 2]
//!         [--models alpha,beta] [--shutdown]
//!         [--chaos] [--seed 7] [--chaos-connections 4] [--chaos-faults 120]
//! ```
//!
//! Each connection runs the scenario harness's request loop
//! (`metaai_bench::serveload::send`), one request in flight, with a check
//! that only counts replies; an error reply or an IO error on a clean
//! connection fails the run. It reports counts, not latency: perfbench
//! (`perfbench/`) measures latency at a fixed offered rate.
//!
//! Every run starts with the v2 handshake (retried for up to 30 s, since
//! `metaai serve` binds its port only after the model deploys); its model
//! table gives each target's input length. By default the one target is
//! the default model (wire id 0), sent v1 frames. `--models` switches to
//! mixed multi-tenant traffic: each name resolves to its wire id,
//! connections are dealt round-robin across the named models, and the
//! run reports each model's counts.
//!
//! `--shutdown` sends a SHUTDOWN frame after the run and waits for the
//! drain ack, so `metaai serve` exits cleanly — a full start → load →
//! drain cycle.
//!
//! `--chaos` runs seeded fault-injecting connections (bit flips,
//! truncated frames, corrupt length prefixes, mid-frame disconnects,
//! slow-loris writes — see `metaai_bench::chaos`) *alongside* the clean
//! load. Error replies and disconnects on the chaos connections are the
//! expected outcome and never fail the run; the exit code reflects only
//! the clean connections, which must see no error even while the
//! listener is being abused.

use metaai_bench::chaos::{self, ChaosConfig};
use metaai_bench::scenario::chaos_clean_input;
use metaai_bench::serveload;
use metaai_serve::tcp::{ClientConfig, Target, TcpClient};
use std::time::{Duration, Instant};

/// One stream of clean requests: a target and its input length.
struct Tenant {
    label: String,
    target: Target,
    symbols: usize,
}

fn main() {
    let mut addr = "127.0.0.1:7077".to_string();
    let mut duration = Duration::from_secs(2);
    let mut connections = 2usize;
    let mut model_names: Vec<String> = Vec::new();
    let mut want_shutdown = false;
    let mut want_chaos = false;
    let mut chaos_cfg = ChaosConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--duration-secs" => {
                duration = Duration::from_secs_f64(parse(&value("--duration-secs")))
            }
            "--connections" => connections = parse(&value("--connections")),
            "--models" => {
                model_names = value("--models")
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect()
            }
            "--shutdown" => want_shutdown = true,
            "--chaos" => want_chaos = true,
            "--seed" => chaos_cfg.seed = parse(&value("--seed")),
            "--chaos-connections" => chaos_cfg.connections = parse(&value("--chaos-connections")),
            "--chaos-faults" => chaos_cfg.target_faults = parse(&value("--chaos-faults")),
            "--help" | "-h" => {
                println!(
                    "loadgen [--addr HOST:PORT] [--duration-secs S] [--connections N] \
                     [--models NAME,NAME] [--shutdown] \
                     [--chaos] [--seed N] [--chaos-connections N] [--chaos-faults N]"
                );
                return;
            }
            other => fail(&format!("unknown flag {other:?}")),
        }
    }

    let tenants = resolve_tenants(&addr, &model_names);
    let connections = connections.max(tenants.len());
    println!(
        "load      {connections} conn for {:.1}s across {} target(s)",
        duration.as_secs_f64(),
        tenants.len()
    );

    let chaos_handle = want_chaos.then(|| {
        // Let chaos outlast the clean load a touch so clean traffic
        // never runs unaccompanied, but cap it: if the fault target is
        // not reached, the run still ends.
        chaos_cfg.duration = duration + Duration::from_secs(10);
        println!(
            "chaos     {} conn, seed {}, target {} faults",
            chaos_cfg.connections, chaos_cfg.seed, chaos_cfg.target_faults
        );
        let addr = addr.clone();
        let chaos_cfg = chaos_cfg.clone();
        let symbols = tenants[0].symbols;
        std::thread::spawn(move || chaos::run(&addr, symbols, &chaos_cfg))
    });

    // Connections are dealt round-robin across the tenants.
    let started = Instant::now();
    let results: Vec<Result<u64, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|conn| {
                let (addr, tenant) = (&addr, &tenants[conn % tenants.len()]);
                scope.spawn(move || run_connection(addr, tenant, conn as u64, started + duration))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });

    if let Some(handle) = chaos_handle {
        match handle.join().expect("chaos thread") {
            Ok(r) => {
                println!(
                    "chaos     {} frames ({} clean, {} faults: {} bit flips, {} truncated, \
                     {} corrupt lengths, {} disconnects, {} slow loris), {} reconnects",
                    r.frames_sent,
                    r.clean_frames,
                    r.faults_injected(),
                    r.bit_flips,
                    r.truncated_frames,
                    r.corrupt_lengths,
                    r.mid_frame_disconnects,
                    r.slow_loris_frames,
                    r.reconnects
                );
                println!(
                    "chaos     {} scored, {} error replies (errors here are expected)",
                    r.scored_replies, r.error_replies
                );
            }
            Err(e) => fail(&format!("chaos run failed to reach the server: {e}")),
        }
    }

    let mut scored = vec![0u64; tenants.len()];
    let mut failures = Vec::new();
    for (conn, result) in results.into_iter().enumerate() {
        let slot = conn % tenants.len();
        match result {
            Ok(n) => scored[slot] += n,
            Err(e) => failures.push(format!("{}: {e}", tenants[slot].label)),
        }
    }
    for (tenant, n) in tenants.iter().zip(&scored) {
        println!("{:<9} {n} scored", tenant.label);
    }

    if want_shutdown {
        match serveload::shutdown(&addr) {
            Ok(()) => println!("shutdown  acked after drain"),
            Err(e) => fail(&format!("shutdown failed: {e}")),
        }
    }
    if !failures.is_empty() {
        fail(&failures.join("; "));
    }
}

/// Resolves the run's targets from the server's HELLO model table,
/// retried for up to 30 s (the port binds only after the model deploys).
/// Without `names`, the one target is the default model (wire id 0),
/// reached with v1 frames; with names, each is looked up by name and
/// reached with v2 frames.
fn resolve_tenants(addr: &str, names: &[String]) -> Vec<Tenant> {
    let table = match serveload::probe_hello(addr, Duration::from_secs(30)) {
        Ok(models) => models,
        Err(e) => fail(&format!("cannot reach {addr}: {e}")),
    };
    if names.is_empty() {
        let d = table
            .iter()
            .find(|m| m.id == 0)
            .unwrap_or_else(|| fail("server lists no default model"));
        println!(
            "target    {addr} (epoch {}, {} outputs x {} symbols)",
            d.epoch, d.outputs, d.symbols
        );
        return vec![Tenant {
            label: "clean".to_string(),
            target: Target::Default,
            symbols: d.symbols as usize,
        }];
    }
    println!("target    {addr} ({} models served)", table.len());
    names
        .iter()
        .map(|name| {
            let d = table
                .iter()
                .find(|m| &m.name == name)
                .unwrap_or_else(|| fail(&format!("server does not serve a model named {name:?}")));
            println!("model     {name} (wire id {}, {} symbols)", d.id, d.symbols);
            Tenant {
                label: name.clone(),
                target: Target::Model(d.id),
                symbols: d.symbols as usize,
            }
        })
        .collect()
}

/// One clean connection: requests to `tenant` until `until`, counting
/// replies. An error reply or an IO error ends it with an `Err`.
fn run_connection(addr: &str, tenant: &Tenant, conn: u64, until: Instant) -> Result<u64, String> {
    let mut client = TcpClient::connect_with(addr, ClientConfig::with_all(Duration::from_secs(5)))
        .map_err(|e| format!("connect: {e}"))?;
    let requests = (conn << 40..)
        .take_while(|_| Instant::now() < until)
        .map(|sample| (sample, chaos_clean_input(sample, tenant.symbols)));
    serveload::send(
        &mut client,
        tenant.target,
        requests,
        None,
        |sample, _, reply| {
            reply
                .as_ref()
                .map(|_| ())
                .map_err(|e| format!("sample {sample}: error reply ({e})"))
        },
    )
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| fail(&format!("cannot parse {s:?}")))
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}
