//! The serving workloads: an in-process `metaai-serve` server behind a
//! real TCP listener, driven open-loop at a fixed rate over one
//! connection.
//!
//! * `serve-dense` — one MNIST tenant (10 × 784, fused kernel) at
//!   5 000 requests/s. A batch of four arrives well within `max_delay`,
//!   so batches flush by size and per-request cost sets latency.
//! * `serve-sparse` — an AFHQ tenant (3 classes, scalar kernel path) and
//!   an MNIST tenant behind one listener at 2 000 requests/s in total,
//!   on v2 `INFER_MODEL` frames. Batches flush on the `max_delay`
//!   deadline, so batching policy and routing set latency. The AFHQ
//!   tenant is hot-swapped between two deployments every half second.
//!
//! Both run lifecycle rounds before and after the window, never during
//! it, and repeat the whole measured phase once if the hypervisor stole
//! much of the vCPUs' time meanwhile ([`quietest`]).

use crate::lifecycle::{same_bits, Lifecycle};
use crate::loadgen::{self, Outcome, Reply, Schedule};
use crate::models::{self, Model};
use crate::report::{percentile, quietest, say_quiet, Report};
use crate::trace::{Tracer, ROOT};
use crate::Args;
use metaai::pipeline::MetaAiSystem;
use metaai_datasets::DatasetId;
use metaai_math::rng::SimRng;
use metaai_math::CVec;
use metaai_serve::tcp::{self, TcpClient};
use metaai_serve::wire::{Request, Response};
use metaai_serve::{Client, DeploymentRegistry, OverflowPolicy, ScoreRequest, ServeConfig, Server};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A serving workload.
pub struct ServeWorkload {
    pub rate_hz: f64,
    /// Tenants in registration order: dataset and registry name.
    pub tenants: &'static [(DatasetId, &'static str)],
    /// Hot-swap the first tenant this often, if at all.
    pub swap_every: Option<Duration>,
}

pub const DENSE: ServeWorkload = ServeWorkload {
    rate_hz: 5_000.0,
    tenants: &[(DatasetId::Mnist, "mnist")],
    swap_every: None,
};

pub const SPARSE: ServeWorkload = ServeWorkload {
    rate_hz: 2_000.0,
    tenants: &[(DatasetId::Afhq, "afhq"), (DatasetId::Mnist, "mnist")],
    swap_every: Some(Duration::from_millis(500)),
};

/// The server configuration of both serving workloads.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: 4,
        max_delay: Duration::from_micros(2000),
        queue_capacity: 4096,
        workers: 2,
        policy: OverflowPolicy::Shed,
    }
}

/// Unmeasured requests before each measured window.
const WARMUP_S: f64 = 1.0;
/// Length of the in-process probe of a traced run.
const INPROC_S: f64 = 2.0;
/// Distinct inputs per tenant the generator cycles through.
const POOL: usize = 64;
/// Every this-many-th request is checked bitwise.
const VERIFY_EVERY: u64 = 25;
/// Lifecycle rounds per run, half before and half after the serving
/// window (never during it).
const OFFLINE_ROUNDS: u64 = 8;

/// One served model with the inputs the generator sends it.
pub struct Tenant {
    pub model: Arc<Model>,
    pub pool: Vec<CVec>,
    /// Encoded `INFER_MODEL` payload of each pool input.
    pub templates: Vec<Vec<u8>>,
    /// Deployments a hot swap cycles through; the first is registered.
    pub cycle: Vec<Arc<MetaAiSystem>>,
    /// `(epoch, index into cycle)` of every deployment installed.
    pub epochs: Vec<(u64, usize)>,
}

impl Tenant {
    pub fn new(model: Model, cycle: Vec<Arc<MetaAiSystem>>, seed: u64) -> Self {
        let order = SimRng::derive(seed, &format!("perfbench-pool-{}", model.name))
            .permutation(model.test.len());
        let pool = order[..POOL]
            .iter()
            .map(|&i| model.test.inputs[i].clone())
            .collect();
        Tenant {
            model: Arc::new(model),
            pool,
            templates: Vec::new(),
            cycle,
            epochs: vec![(1, 0)],
        }
    }

    fn system_at(&self, epoch: u64) -> Option<&Arc<MetaAiSystem>> {
        self.epochs
            .iter()
            .find(|&&(e, _)| e == epoch)
            .map(|&(_, i)| &self.cycle[i])
    }
}

/// Which tenant and input request `g` uses, and its sample index: all
/// drawn from the workload seed.
pub struct Plan {
    seed: u64,
    stream: u64,
    tenants: usize,
    base: u64,
}

impl Plan {
    pub fn new(seed: u64, tenants: usize) -> Self {
        Plan {
            seed,
            stream: SimRng::stream_id("perfbench-plan"),
            tenants,
            base: SimRng::derive(seed, "perfbench-sample-base").below(1 << 40) as u64,
        }
    }

    /// `(tenant, pool index)` of request `g`.
    pub fn at(&self, g: u64) -> (usize, usize) {
        let mut rng = SimRng::derive_indexed(self.seed, self.stream, g);
        (rng.below(self.tenants), rng.below(POOL))
    }

    pub fn sample(&self, g: u64) -> u64 {
        self.base + g
    }
}

/// Checks the kept replies bitwise against `score_indexed` on the stream
/// of the epoch each reply reports. Returns the number that differ.
pub fn verify(
    tenants: &[Tenant],
    plan: &Plan,
    offset: u64,
    kept: &[(u64, Reply)],
    report: &mut Report,
) -> u64 {
    let mut scores = Vec::new();
    let mut bad = 0;
    for (k, reply) in kept {
        let g = offset + k;
        let (t, p) = plan.at(g);
        let tenant = &tenants[t];
        let Some(system) = tenant.system_at(reply.epoch) else {
            bad += 1;
            continue;
        };
        let stream = SimRng::stream_id(&format!(
            "serve-{}-epoch-{}",
            tenant.model.name, reply.epoch
        ));
        let predicted = system.score_indexed(&tenant.pool[p], stream, plan.sample(g), &mut scores);
        if predicted != reply.predicted || !same_bits(&scores, &reply.scores) {
            bad += 1;
        }
    }
    if bad > 0 {
        report.problem(format!(
            "{bad} of {} checked replies differ from score_indexed",
            kept.len()
        ));
    }
    bad
}

/// A started server: the TCP front-end on its own thread, the registry
/// and in-process clients, and one connected client stream.
struct Running {
    registry: Arc<DeploymentRegistry>,
    clients: Vec<Client>,
    addr: SocketAddr,
    serve: JoinHandle<std::io::Result<()>>,
    stream: TcpStream,
}

fn start(tenants: &mut [Tenant]) -> Running {
    let mut builder = Server::builder().config(serve_config());
    for t in tenants.iter() {
        builder = builder.model(t.model.name, t.cycle[0].clone());
    }
    let server = builder.start();
    let registry = server.registry().clone();
    let clients = tenants
        .iter()
        .map(|t| server.client_for(t.model.name).expect("registered tenant"))
        .collect();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a local port");
    let addr = listener.local_addr().expect("listener address");
    let serve = std::thread::Builder::new()
        .name("perfbench-serve".into())
        .spawn(move || tcp::serve(listener, server))
        .expect("spawn the server thread");
    let mut client = TcpClient::connect(addr).expect("connect to the server");
    let table = client
        .hello()
        .expect("HELLO round trip")
        .expect("server speaks protocol v2");
    for t in tenants.iter_mut() {
        let d = table
            .iter()
            .find(|d| d.name == t.model.name)
            .expect("tenant in the model table");
        t.templates = t
            .pool
            .iter()
            .map(|x| {
                Request::InferModel {
                    model: d.id,
                    id: 0,
                    sample_index: 0,
                    deadline_us: 0,
                    input: x.as_slice().to_vec(),
                }
                .encode()
            })
            .collect();
    }
    Running {
        registry,
        clients,
        addr,
        serve,
        stream: client.into_stream(),
    }
}

fn stop(running: Running) {
    let _ = running.stream.shutdown(Shutdown::Both);
    drop(running.stream);
    let mut client = TcpClient::connect(running.addr).expect("connect for shutdown");
    match client.request(&Request::Shutdown) {
        Ok(Response::ShutdownAck) => {}
        other => panic!("shutdown not acknowledged: {other:?}"),
    }
    drop(client);
    running
        .serve
        .join()
        .expect("server thread")
        .expect("server exits cleanly");
}

/// Sends `sched` over TCP starting at global request `offset`, swapping
/// the first tenant every `swap_every` requests if set.
#[allow(clippy::too_many_arguments)]
fn window(
    running: &Running,
    tenants: &mut [Tenant],
    plan: &Plan,
    offset: u64,
    sched: Schedule,
    swap_every: Option<u64>,
    depths: &mut Vec<f64>,
    tracer: &Tracer,
    report: &mut Report,
) -> Outcome {
    let (first, rest) = tenants.split_first_mut().expect("at least one tenant");
    let mut active = first.epochs.last().map_or(0, |&(_, i)| i);
    let swap_entry = running.registry.entries()[0].clone();
    let mut swaps: Vec<(u64, usize)> = Vec::new();
    let all: Vec<&Tenant> = std::iter::once(&*first).chain(rest.iter()).collect();
    let stream = running.stream.try_clone().expect("clone the client stream");
    let out = loadgen::run_tcp(
        stream,
        sched,
        |k, buf| {
            let g = offset + k;
            let (t, p) = plan.at(g);
            let at = buf.len();
            buf.extend_from_slice(&all[t].templates[p]);
            Request::restamp_infer(&mut buf[at..], k, plan.sample(g));
        },
        |k| {
            if let Some(every) = swap_every {
                if k > 0 && k % every == 0 {
                    active = (active + 1) % all[0].cycle.len();
                    let system = all[0].cycle[active].clone();
                    let (epoch, _) = tracer.time("serve.swap", ROOT, |_| swap_entry.swap(system));
                    swaps.push((epoch.expect("same-shape swap"), active));
                }
            }
            if tracer.on() {
                let (t, _) = plan.at(offset + k);
                depths.push(running.registry.entries()[t].queue().depth() as f64);
            }
        },
        &|k| k % VERIFY_EVERY == 0,
        tracer,
    )
    .expect("drive the connection");
    drop(all);
    first.epochs.extend(swaps);
    let bad = verify(tenants, plan, offset, &out.kept, report);
    Outcome {
        scored: out.scored - bad,
        errors: out.errors + bad,
        ..out
    }
}

/// Adds the request end-to-end metrics of a measured window.
pub fn window_metrics(out: &Outcome, report: &mut Report) {
    let (latency, quiet) = out.quiet_latency_us();
    let n = latency.len();
    say_quiet(
        "latency slices",
        quiet,
        out.slice_steal.len(),
        n,
        out.latency_us.len(),
    );
    report.push("latency_p50_us", percentile(&latency, 50.0), "us", n);
    report.push("latency_p90_us", percentile(&latency, 90.0), "us", n);
    eprintln!(
        "latency p99 {:.1} us over {n} requests \
         (not a metric: it spreads too far between runs)",
        percentile(&latency, 99.0)
    );
    report.push(
        "success_share",
        out.scored as f64 / out.scheduled as f64,
        "share",
        out.scheduled as usize,
    );
    report.push(
        "cpu_us_per_req",
        out.cpu_s * 1e6 / out.sent as f64,
        "us",
        out.sent as usize,
    );
}

/// Books a window's requests and failures: every scheduled request that
/// did not return verified scores failed.
pub fn book(out: &Outcome, report: &mut Report) {
    eprintln!(
        "window: {} scheduled, {} sent, {} scored, {} shed, {} expired, {} errors, {} unanswered; send lag p90 {:.1} us",
        out.scheduled,
        out.sent,
        out.scored,
        out.shed,
        out.expired,
        out.errors,
        out.unanswered,
        percentile(&out.lag_us, 90.0)
    );
    let failed = out.scheduled - out.scored.min(out.scheduled);
    if failed > 0 {
        report.problem(format!(
            "{failed} of {} scheduled requests did not succeed",
            out.scheduled
        ));
    }
    report.attempted += out.scheduled;
    report.failed += failed;
}

pub fn run(w: &ServeWorkload, args: &Args, tracer: &Tracer, report: &mut Report) {
    let run_start = Instant::now();
    // Set-up: every tenant (and the AFHQ swap target), then the server.
    let (mut tenants, setup_s) = models::set_up(tracer, run_start, |parent| {
        w.tenants
            .iter()
            .enumerate()
            .map(|(i, &(id, name))| {
                let model = models::build(tracer, parent, id, name);
                let mut cycle = vec![model.system.clone()];
                if i == 0 && w.swap_every.is_some() {
                    cycle.push(models::moved_deployment(tracer, parent, &model));
                }
                Tenant::new(model, cycle, args.seed)
            })
            .collect::<Vec<_>>()
    });
    let (running, start_d) = tracer.time("serve.start", ROOT, |_| start(&mut tenants));
    report.push(
        "setup_s",
        setup_s + start_d.as_secs_f64(),
        "s",
        models::SETUP_REPS,
    );

    let mnist = tenants
        .iter()
        .find(|t| t.model.name == "mnist")
        .expect("an MNIST tenant")
        .model
        .clone();
    let plan = Plan::new(args.seed, tenants.len());
    let swap_every = w
        .swap_every
        .map(|d| (d.as_secs_f64() * w.rate_hz).round() as u64);
    let window_s = args.seconds as f64;
    // Lifecycle rounds swap into a registry of their own, never into the
    // server's, and never run while a window is measured.
    let offline = || {
        DeploymentRegistry::new(
            vec![(mnist.name.to_string(), mnist.system.clone())],
            &serve_config(),
        )
    };

    if !args.trace {
        let mut offset = 0;
        let (out, rounds) = quietest(run_start, || {
            let registry = offline();
            let mut lifecycle = Lifecycle::new(&mnist, registry.entries()[0].clone(), args.seed);
            for _ in 0..OFFLINE_ROUNDS / 2 {
                lifecycle.round(tracer, report);
            }
            let sched = Schedule::new(w.rate_hz, WARMUP_S, window_s);
            let out = window(
                &running,
                &mut tenants,
                &plan,
                offset,
                sched,
                swap_every,
                &mut Vec::new(),
                tracer,
                report,
            );
            offset += sched.total();
            book(&out, report);
            for _ in 0..OFFLINE_ROUNDS / 2 {
                lifecycle.round(tracer, report);
            }
            lifecycle.out.book(report);
            (out, lifecycle.out)
        });
        window_metrics(&out, report);
        rounds.metrics(report);
        stop(running);
        return;
    }

    // Traced: an untraced half window, then a traced half (their ratio is
    // the tracing overhead), the in-process probe, and the per-layer
    // probes, with lifecycle rounds before and after.
    let registry = offline();
    let mut lifecycle = Lifecycle::new(&mnist, registry.entries()[0].clone(), args.seed);
    for _ in 0..OFFLINE_ROUNDS / 2 {
        lifecycle.round(tracer, report);
    }
    let mut depths = Vec::new();
    let sched = Schedule::new(w.rate_hz, WARMUP_S, window_s / 2.0);
    tracer.set_on(false);
    let plain = window(
        &running,
        &mut tenants,
        &plan,
        0,
        sched,
        swap_every,
        &mut depths,
        tracer,
        report,
    );
    tracer.set_on(true);
    let counts = ServeCounts::now();
    let traced_sched = Schedule::new(w.rate_hz, 0.2, window_s / 2.0);
    let traced = window(
        &running,
        &mut tenants,
        &plan,
        sched.total(),
        traced_sched,
        swap_every,
        &mut depths,
        tracer,
        report,
    );
    book(&plain, report);
    book(&traced, report);
    counts.report_since(&depths, &traced, report);
    overhead(
        costs(&plain),
        costs(&traced),
        traced.latency_us.len(),
        report,
    );

    let inproc = inproc_probe(
        &running.clients,
        &running.registry,
        &tenants,
        &plan,
        sched.total() + traced_sched.total(),
        Schedule::new(w.rate_hz, 0.2, INPROC_S),
        &mut Vec::new(),
        tracer,
        report,
    );
    book(&inproc, report);
    report.push(
        "serve.inproc_p50_us",
        percentile(&inproc.latency_us, 50.0),
        "us",
        inproc.latency_us.len(),
    );
    for _ in 0..OFFLINE_ROUNDS / 2 {
        lifecycle.round(tracer, report);
    }
    lifecycle.out.book(report);
    let scalar = tenants
        .iter()
        .find(|t| t.model.system.engine().num_outputs() < 4);
    crate::layers::probe(tracer, &mnist, scalar.map(|t| &*t.model), args.seed, report);
    stop(running);
}

/// Drives in-process clients open-loop on `sched` with the same plan as
/// the TCP windows, sampling each request's queue depth, and checks the
/// kept replies.
#[allow(clippy::too_many_arguments)]
pub fn inproc_probe(
    clients: &[Client],
    registry: &DeploymentRegistry,
    tenants: &[Tenant],
    plan: &Plan,
    offset: u64,
    sched: Schedule,
    depths: &mut Vec<f64>,
    tracer: &Tracer,
    report: &mut Report,
) -> Outcome {
    let out = loadgen::run_inproc(
        clients,
        sched,
        |k| {
            let g = offset + k;
            let (t, p) = plan.at(g);
            let request = ScoreRequest {
                id: k,
                sample_index: plan.sample(g),
                input: tenants[t].pool[p].clone(),
                deadline: None,
            };
            (t, request)
        },
        |k| {
            let (t, _) = plan.at(offset + k);
            depths.push(registry.entries()[t].queue().depth() as f64);
        },
        &|k| k % VERIFY_EVERY == 0,
        tracer,
    );
    let bad = verify(tenants, plan, offset, &out.kept, report);
    Outcome {
        scored: out.scored - bad,
        errors: out.errors + bad,
        ..out
    }
}

/// Serving counters from the program's telemetry, read at the start of
/// the traced window.
pub struct ServeCounts {
    requests: u64,
    batches: u64,
    shed: u64,
    expired: u64,
}

impl ServeCounts {
    pub fn now() -> Self {
        metaai_serve::register_metrics();
        let c = |name: &str| metaai_telemetry::global().counter(name).value();
        ServeCounts {
            requests: c("metaai.serve.requests"),
            batches: c("metaai.serve.batches"),
            shed: c("metaai.serve.shed_total"),
            expired: c("metaai.serve.expired_total"),
        }
    }

    /// Adds the serving per-layer counts of the window since `self`.
    pub fn report_since(&self, depths: &[f64], traced: &Outcome, report: &mut Report) {
        let now = ServeCounts::now();
        let batches = now.batches - self.batches;
        let requests = now.requests - self.requests;
        report.push(
            "serve.batch_size_mean",
            requests as f64 / batches.max(1) as f64,
            "count",
            batches as usize,
        );
        report.push(
            "serve.queue_depth_p90",
            percentile(depths, 90.0),
            "count",
            depths.len(),
        );
        report.push(
            "serve.shed",
            (now.shed - self.shed) as f64,
            "count",
            requests as usize,
        );
        report.push(
            "serve.expired",
            (now.expired - self.expired) as f64,
            "count",
            requests as usize,
        );
        report.push(
            "loadgen.lag_p90_us",
            percentile(&traced.lag_us, 90.0),
            "us",
            traced.lag_us.len(),
        );
    }
}

/// Reports traced ÷ untraced − 1 of latency p50 and of CPU per request,
/// each given as `(latency p50, CPU seconds per request)`.
pub fn overhead(plain: (f64, f64), traced: (f64, f64), samples: usize, report: &mut Report) {
    report.push(
        "trace.overhead_share",
        traced.0 / plain.0 - 1.0,
        "share",
        samples,
    );
    report.push(
        "trace.cpu_overhead_share",
        traced.1 / plain.1 - 1.0,
        "share",
        samples,
    );
}

/// `(latency p50, CPU seconds per request)` of a window.
pub fn costs(o: &Outcome) -> (f64, f64) {
    (
        percentile(&o.latency_us, 50.0),
        o.cpu_s / o.sent.max(1) as f64,
    )
}
