//! Open-loop load generation against a running `metaai serve` endpoint.
//!
//! Used by the `loadgen` bin (CLI front-end) and by `perf_report`'s
//! serving section (in-process measurement). Each connection runs a
//! sender on the calling thread and a receiver thread, with a bounded
//! in-flight window between them: the sender records `(id, send time)`
//! into a `sync_channel` whose capacity is the pipeline depth, and the
//! receiver pairs replies with those records in FIFO order (the server's
//! per-connection writer resolves strictly in submission order). Depth ≥
//! the server's `max_batch` lets full batches queue up while every worker
//! is busy — the "batch-saturating" load `perf_report` measures.

use metaai_math::rng::SimRng;
use metaai_serve::tcp::TcpClient;
use metaai_serve::wire::{self, ModelDescriptor, Request, Response};
use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Load-run parameters.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// How long to keep sending.
    pub duration: Duration,
    /// Concurrent connections.
    pub connections: usize,
    /// Max in-flight requests per connection (the batching pressure).
    pub depth: usize,
    /// Per-request deadline in µs (0 = none).
    pub deadline_us: u64,
    /// Route to this wire model id with v2 `INFER_MODEL` frames; `None`
    /// sends v1 `INFER` frames, served by the default model.
    pub model: Option<u32>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            duration: Duration::from_secs(2),
            connections: 2,
            depth: 256,
            deadline_us: 0,
            model: None,
        }
    }
}

/// One tenant of a mixed multi-model run.
#[derive(Clone, Debug)]
pub struct ModelTarget {
    /// Wire id from the HELLO_ACK model table.
    pub id: u32,
    /// Registry name, used to label the per-model report.
    pub name: String,
    /// Input length the model expects.
    pub symbols: usize,
}

/// Aggregated outcome of a load run.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Requests written to the wire.
    pub sent: u64,
    /// Scored replies.
    pub scored: u64,
    /// Replies shed by backpressure (`Overloaded`).
    pub shed: u64,
    /// Replies dropped past their deadline (`Expired`).
    pub expired: u64,
    /// Protocol violations: io failures, id mismatches, unexpected or
    /// undecodable frames, unknown error codes.
    pub protocol_errors: u64,
    /// Wall-clock of the sending window.
    pub elapsed: Duration,
    /// Client-observed end-to-end latencies of scored replies, in µs.
    pub latencies_us: Vec<f64>,
}

impl LoadReport {
    /// Scored replies per second of wall clock.
    pub fn samples_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.scored as f64 / secs
        } else {
            0.0
        }
    }

    /// Shed replies as a fraction of requests sent.
    pub fn shed_rate(&self) -> f64 {
        if self.sent > 0 {
            self.shed as f64 / self.sent as f64
        } else {
            0.0
        }
    }

    /// The `p`-th percentile (0–100) of scored latency, in µs.
    pub fn latency_percentile_us(&mut self, p: f64) -> f64 {
        if self.latencies_us.is_empty() {
            return 0.0;
        }
        self.latencies_us.sort_by(f64::total_cmp);
        let rank = (p / 100.0) * (self.latencies_us.len() - 1) as f64;
        self.latencies_us[rank.round() as usize]
    }

    /// Folds another connection's outcome into this aggregate: counters
    /// add, elapsed takes the max (connections run concurrently), and
    /// latency samples concatenate.
    pub fn merge(&mut self, other: LoadReport) {
        self.sent += other.sent;
        self.scored += other.scored;
        self.shed += other.shed;
        self.expired += other.expired;
        self.protocol_errors += other.protocol_errors;
        self.elapsed = self.elapsed.max(other.elapsed);
        self.latencies_us.extend(other.latencies_us);
    }
}

/// Queries the deployment shape (`symbols` is what request inputs must
/// match).
pub fn probe_info<A: ToSocketAddrs>(addr: A) -> io::Result<(u64, u32, u32)> {
    let mut client = TcpClient::connect(addr)?;
    match client.request(&Request::Info)? {
        Response::Info {
            epoch,
            outputs,
            symbols,
        } => Ok((epoch, outputs, symbols)),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected INFO reply {other:?}"),
        )),
    }
}

/// [`probe_info`] with retry: polls until the service answers or
/// `timeout` passes. Covers CI starting `metaai serve` in the background
/// — the port only binds after the model is loaded and deployed.
pub fn probe_info_retry<A: ToSocketAddrs + Clone>(
    addr: A,
    timeout: Duration,
) -> io::Result<(u64, u32, u32)> {
    let started = Instant::now();
    loop {
        match probe_info(addr.clone()) {
            Ok(info) => return Ok(info),
            Err(e) if started.elapsed() >= timeout => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}

/// Performs the v2 handshake and returns the server's model table. A v1
/// server's refusal surfaces as `InvalidData`, not a hang.
pub fn probe_hello<A: ToSocketAddrs>(addr: A) -> io::Result<Vec<ModelDescriptor>> {
    let mut client = TcpClient::connect(addr)?;
    client.hello()?.map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("handshake refused: {e}"),
        )
    })
}

/// [`probe_hello`] with the same retry loop as [`probe_info_retry`].
pub fn probe_hello_retry<A: ToSocketAddrs + Clone>(
    addr: A,
    timeout: Duration,
) -> io::Result<Vec<ModelDescriptor>> {
    let started = Instant::now();
    loop {
        match probe_hello(addr.clone()) {
            Ok(models) => return Ok(models),
            Err(e) if started.elapsed() >= timeout => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}

/// Sends a `SHUTDOWN` frame and waits for the ack — the server drains
/// every admitted request before acking.
pub fn shutdown<A: ToSocketAddrs>(addr: A) -> io::Result<()> {
    let mut client = TcpClient::connect(addr)?;
    client.send(&Request::Shutdown)?;
    loop {
        match client.recv()? {
            Some(Response::ShutdownAck) | None => return Ok(()),
            Some(_) => continue,
        }
    }
}

/// Drives open-loop load at `addr` and aggregates the per-connection
/// outcomes. Inputs cycle through a small pool of seeded Gaussian
/// vectors of length `symbols`.
pub fn run<A: ToSocketAddrs>(addr: A, symbols: usize, cfg: &LoadConfig) -> io::Result<LoadReport> {
    let addrs: Vec<_> = addr.to_socket_addrs()?.collect();
    let addr = *addrs.first().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
    })?;
    let mut report = LoadReport::default();
    let outcomes: Vec<io::Result<LoadReport>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.connections.max(1))
            .map(|conn| {
                scope.spawn(move || run_connection(addr, conn as u64, symbols, cfg.model, cfg))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    for outcome in outcomes {
        report.merge(outcome?);
    }
    Ok(report)
}

/// Drives mixed multi-tenant load: connections are dealt round-robin
/// across `models` (each model gets at least one), every connection
/// sends v2 `INFER_MODEL` frames for its model, and the outcomes come
/// back as one [`LoadReport`] per model, in `models` order.
pub fn run_mixed<A: ToSocketAddrs>(
    addr: A,
    models: &[ModelTarget],
    cfg: &LoadConfig,
) -> io::Result<Vec<(String, LoadReport)>> {
    let addrs: Vec<_> = addr.to_socket_addrs()?.collect();
    let addr = *addrs.first().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
    })?;
    if models.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "run_mixed needs at least one model",
        ));
    }
    let outcomes: Vec<(usize, io::Result<LoadReport>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.connections.max(models.len()))
            .map(|conn| {
                let target = &models[conn % models.len()];
                scope.spawn(move || {
                    (
                        conn % models.len(),
                        run_connection(addr, conn as u64, target.symbols, Some(target.id), cfg),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    let mut reports: Vec<(String, LoadReport)> = models
        .iter()
        .map(|m| (m.name.clone(), LoadReport::default()))
        .collect();
    for (slot, outcome) in outcomes {
        reports[slot].1.merge(outcome?);
    }
    Ok(reports)
}

fn run_connection(
    addr: std::net::SocketAddr,
    conn: u64,
    symbols: usize,
    model: Option<u32>,
    cfg: &LoadConfig,
) -> io::Result<LoadReport> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let reader_stream = stream.try_clone()?;
    // The in-flight window: capacity bounds how far the sender runs
    // ahead, and FIFO order is how replies are paired with send times.
    let (window_tx, window_rx) = mpsc::sync_channel::<(u64, Instant)>(cfg.depth.max(1));

    let receiver = std::thread::spawn(move || {
        let mut reader = BufReader::new(reader_stream);
        let mut r = LoadReport::default();
        for (id, sent_at) in window_rx {
            let frame = match wire::read_frame(&mut reader) {
                Ok(Some(frame)) => frame,
                Ok(None) | Err(_) => {
                    r.protocol_errors += 1;
                    break;
                }
            };
            match Response::decode(&frame) {
                Ok(Response::Score { id: rid, .. }) if rid == id => {
                    r.scored += 1;
                    r.latencies_us.push(sent_at.elapsed().as_secs_f64() * 1e6);
                }
                Ok(Response::Error { id: rid, code }) if rid == id => match code {
                    1 => r.shed += 1,
                    2 => r.expired += 1,
                    _ => r.protocol_errors += 1,
                },
                _ => r.protocol_errors += 1,
            }
        }
        r
    });

    // A small pool of deterministic inputs, pre-encoded once and cycled
    // round-robin with only the id fields restamped per send: payload
    // variety without re-serializing the symbol vector on the hot path.
    let mut rng = SimRng::derive(0x10ad, &format!("loadgen-{conn}"));
    let mut pool: Vec<Vec<u8>> = (0..16)
        .map(|_| {
            let input = (0..symbols).map(|_| rng.complex_gaussian(1.0)).collect();
            match model {
                Some(model) => Request::InferModel {
                    model,
                    id: 0,
                    sample_index: 0,
                    deadline_us: cfg.deadline_us,
                    input,
                }
                .encode(),
                None => Request::Infer {
                    id: 0,
                    sample_index: 0,
                    deadline_us: cfg.deadline_us,
                    input,
                }
                .encode(),
            }
        })
        .collect();

    // Sized to hold many whole frames: a default-sized buffer is smaller
    // than one encoded request, which degenerates to a syscall per send.
    let mut w = std::io::BufWriter::with_capacity(256 * 1024, stream);
    let mut sent = 0u64;
    let started = Instant::now();
    while started.elapsed() < cfg.duration {
        let id = (conn << 40) | sent;
        let payload = &mut pool[(sent % 16) as usize];
        Request::restamp_infer(payload, id, id);
        // Record the send before writing so buffering and kernel
        // queueing count against latency. A full window means we are
        // about to block on replies, so flush everything buffered first
        // — otherwise those unsent requests could never be answered.
        match window_tx.try_send((id, Instant::now())) {
            Ok(()) => {}
            Err(mpsc::TrySendError::Full(entry)) => {
                if w.flush().is_err() || window_tx.send(entry).is_err() {
                    break;
                }
            }
            // Receiver died (protocol error already counted there).
            Err(mpsc::TrySendError::Disconnected(_)) => break,
        }
        if wire::write_frame(&mut w, payload).is_err() {
            break;
        }
        sent += 1;
    }
    let _ = w.flush();
    let elapsed = started.elapsed();
    drop(window_tx);
    let mut report = receiver.join().expect("receiver thread");
    report.sent = sent;
    report.elapsed = elapsed;
    Ok(report)
}
