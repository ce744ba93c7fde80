//! `std::net` front-end: one supervised accept loop, one thread per
//! connection, and the synchronous [`TcpClient`].
//!
//! A connection's one thread, its **reader**, decodes frames ([`wire`])
//! and reserves the next reply slot of the connection's ordered outbox for
//! every frame it will answer. It routes each `INFER` to its model's
//! submission queue with that slot as the request's completion (v1 frames
//! carry no model and land on the default model; v2 `INFER_MODEL` frames
//! name one by interned wire id), and answers INFO, HELLO, error frames
//! and SHUTDOWN_ACK into their slots itself. Whoever fills the head slot
//! (a scoring worker or the reader) writes every ready reply, so replies
//! leave in request order with no writer thread in between, and a connection can pipeline requests, even across
//! models, without waiting for replies. Responses carry the request id,
//! so clients may also match out-of-order on their side. A v2 `HELLO`
//! is answered with the full model table (or an `UnsupportedVersion`
//! error + close, for a version this build does not speak); an
//! `INFER_MODEL` naming an unknown id fails that one request with
//! `UnknownModel` and the connection keeps serving.
//!
//! Each drain of a connection's ready replies (from a thread taking the
//! socket to putting it back) must finish within [`REPLY_WRITE_TIMEOUT`]
//! in total. A write that fails or misses that deadline shuts the
//! connection down and drops its later replies, so a peer that stops
//! reading holds the thread writing to it for at most one timeout, and
//! its parked replies are freed then. While a worker waits on such a
//! peer it scores nothing: the rest of its batch, other connections'
//! requests included, and the queue it would serve wait with it, and
//! their deadlines may pass; the model's other workers keep scoring.
//!
//! # Accept supervision
//!
//! The listener runs non-blocking and [`serve`] polls it on a short
//! deadline ([`ACCEPT_POLL`]), so the loop observes the stop flag even
//! if nothing ever connects again. Transient `accept` failures — fd
//! exhaustion (`EMFILE`/`ENFILE`), connections aborted during the
//! handshake (`ECONNABORTED`), interrupted syscalls (`EINTR`) — are
//! retried with capped exponential backoff instead of killing the
//! service; only errors that mean the listener itself is gone propagate
//! out. Finished connection-handler threads are reaped on every accept,
//! so the handler list stays proportional to *live* connections under
//! connection churn.
//!
//! Shutdown choreography (`SHUTDOWN` frame, sent by `loadgen
//! --shutdown`): the receiving reader puts `SHUTDOWN_ACK` in its next
//! slot, raises the shared stop flag, pokes the listener with a dummy
//! connect (retried with backoff) to unblock the accept poll promptly,
//! and exits; if every poke fails, the poll deadline still observes the
//! flag within [`ACCEPT_POLL`]. A real client that connects in the
//! post-stop window is answered with a `ShuttingDown` error frame rather
//! than silently dropped. [`serve`] then drains the scoring queues: the
//! workers fill every slot still open, and the fill that completes the
//! shutdown connection's earlier replies writes the ack after them. The
//! socket closes once the reader has exited and the last reply is out.
//! Handlers on *other* connections exit when their peer closes; a client
//! that holds its socket open past shutdown delays [`serve`]'s return, so
//! clients should disconnect once done.
//!
//! # Client
//!
//! [`TcpClient`] keeps one request in flight. [`TcpClient::score`] is
//! its one scoring call: a [`Target`] picks the frame (v1 `INFER` to the
//! default model, v2 `INFER_MODEL` to a wire id from
//! [`TcpClient::hello`]'s table), and an optional [`RetryPolicy`] turns
//! transient failures into reconnect-and-resend attempts; without one the
//! first reply is final. Other frames go through
//! [`TcpClient::request`], or [`TcpClient::into_stream`] for callers
//! that pipeline on their own threads.

use crate::batcher::Completion;
use crate::deploy::DeploymentRegistry;
use crate::outbox::Outbox;
use crate::server::Server;
use crate::wire::{self, ModelDescriptor, Request, Response, NO_REQUEST_ID, PROTOCOL_VERSION};
use crate::{ScoreResponse, ServeError};
use metaai_math::rng::SimRng;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the accept loop waits between polls when idle: the upper
/// bound on connection-setup latency added by the non-blocking listener
/// and on how late the loop notices the stop flag without a poke.
pub const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// First backoff after a transient accept failure.
const ACCEPT_BACKOFF_START: Duration = Duration::from_millis(1);

/// Backoff ceiling under a sustained transient condition (e.g. fd
/// exhaustion): the loop keeps retrying at this cadence until accept
/// succeeds again.
const ACCEPT_BACKOFF_CAP: Duration = Duration::from_millis(200);

/// How long one drain of a connection's ready replies may take, across
/// all its write calls, before the connection is declared dead. Scoring
/// workers write replies themselves, so this bounds how long one drain
/// to a peer that stops reading can hold a worker.
pub const REPLY_WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Whether an `accept` failure is worth retrying: the connection died
/// during the handshake, the syscall was interrupted, or the process is
/// out of fds (which recovers as handlers close sockets). Anything else
/// means the listener itself is broken and propagates out of [`serve`].
fn is_transient_accept_error(e: &io::Error) -> bool {
    if matches!(
        e.kind(),
        io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::Interrupted
            | io::ErrorKind::TimedOut
    ) {
        return true;
    }
    // EMFILE (24) / ENFILE (23) surface as uncategorized errors; match
    // the raw errno (same values on Linux and macOS).
    matches!(e.raw_os_error(), Some(23) | Some(24))
}

/// The next backoff after `current`, doubling up to [`ACCEPT_BACKOFF_CAP`].
fn next_backoff(current: Duration) -> Duration {
    (current * 2).min(ACCEPT_BACKOFF_CAP)
}

/// Joins finished connection handlers, keeping only live ones.
fn reap_finished(handlers: &mut Vec<JoinHandle<()>>) {
    let mut live = Vec::with_capacity(handlers.len());
    for handler in handlers.drain(..) {
        if handler.is_finished() {
            let _ = handler.join();
        } else {
            live.push(handler);
        }
    }
    *handlers = live;
}

/// Best-effort reply to a connection accepted after shutdown began:
/// a `ShuttingDown` error frame (with the [`NO_REQUEST_ID`] sentinel),
/// so a real client learns why the connection closed. The shutdown poke
/// itself also lands here and simply ignores the frame.
fn refuse_post_stop(mut stream: TcpStream) {
    let refusal = Response::Error {
        id: NO_REQUEST_ID,
        code: ServeError::ShuttingDown.code(),
    };
    let _ = stream.write_all(&wire::frame(|buf| refusal.encode_into(buf)));
}

/// Accepts connections and serves until a `SHUTDOWN` frame arrives, then
/// drains the scoring queue and returns. Consumes the server: after
/// `serve` returns, every admitted request has been answered.
///
/// Transient accept failures are retried (see the module docs); an
/// unrecoverable listener error still drains admitted work before
/// propagating.
pub fn serve(listener: TcpListener, server: Server) -> io::Result<()> {
    let stop = Arc::new(AtomicBool::new(false));
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    let mut backoff = ACCEPT_BACKOFF_START;
    let fatal = loop {
        if stop.load(Ordering::SeqCst) {
            break None;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                backoff = ACCEPT_BACKOFF_START;
                // The accepted socket inherits non-blocking mode on some
                // platforms; the per-connection threads expect blocking IO.
                let _ = stream.set_nonblocking(false);
                if stop.load(Ordering::SeqCst) {
                    refuse_post_stop(stream);
                    break None;
                }
                let registry = server.registry().clone();
                let stop = stop.clone();
                let handler = std::thread::Builder::new()
                    .name("metaai-serve-conn".to_string())
                    .spawn(move || handle_connection(stream, registry, stop, addr))
                    .expect("spawn connection handler");
                handlers.push(handler);
                reap_finished(&mut handlers);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Idle: nothing to accept. The sleep doubles as the
                // "short accept deadline" that bounds how long a failed
                // shutdown poke can leave the loop blind to the stop flag.
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) if is_transient_accept_error(&e) => {
                if let Some(m) = crate::metrics::tele() {
                    m.accept_retries.inc();
                }
                std::thread::sleep(backoff);
                backoff = next_backoff(backoff);
            }
            Err(e) => break Some(e),
        }
    };
    // Drain-then-stop: scoring every admitted request fills the reply
    // slots still open, which writes the final replies (and any
    // SHUTDOWN_ACK queued behind them). Runs on the fatal path too, so
    // even a dying listener answers what it admitted.
    server.shutdown();
    for handler in handlers {
        let _ = handler.join();
    }
    match fatal {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn handle_connection(
    stream: TcpStream,
    registry: Arc<DeploymentRegistry>,
    stop: Arc<AtomicBool>,
    listen_addr: SocketAddr,
) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let Ok(outbox) = Outbox::new(Box::new(write_half), REPLY_WRITE_TIMEOUT) else {
        return;
    };
    let outbox = Arc::new(outbox);
    read_requests(stream, &registry, &stop, listen_addr, &outbox);
}

/// Wakes the accept loop after the stop flag is raised. Retried with
/// backoff because a failed poke would otherwise leave [`serve`] waiting
/// for its poll deadline; total failure is survivable (the poll deadline
/// catches it), so this gives up after a few attempts.
fn poke_listener(listen_addr: SocketAddr) {
    let mut delay = Duration::from_millis(5);
    for _ in 0..4 {
        if TcpStream::connect_timeout(&listen_addr, Duration::from_millis(250)).is_ok() {
            return;
        }
        std::thread::sleep(delay);
        delay *= 2;
    }
}

/// The HELLO_ACK model table: every registered model with its live epoch
/// and engine shape.
fn model_table(registry: &DeploymentRegistry) -> Vec<ModelDescriptor> {
    registry
        .entries()
        .iter()
        .map(|entry| {
            let deployment = entry.current();
            let engine = deployment.system.engine();
            ModelDescriptor {
                id: entry.wire_id(),
                epoch: deployment.epoch,
                outputs: engine.num_outputs() as u32,
                symbols: engine.num_symbols() as u32,
                name: entry.name().to_string(),
            }
        })
        .collect()
}

/// The connection's one thread: decodes each frame, reserves its reply
/// slot, and either answers it at once or submits it with the slot as its
/// completion.
fn read_requests(
    stream: TcpStream,
    registry: &DeploymentRegistry,
    stop: &AtomicBool,
    listen_addr: SocketAddr,
    outbox: &Arc<Outbox>,
) {
    // Request frames run to tens of KiB (16 bytes per symbol); a buffer
    // that holds several whole frames keeps syscalls well below one per
    // request under pipelined load.
    let mut reader = BufReader::with_capacity(256 * 1024, stream);
    loop {
        let payload = match wire::read_frame(&mut reader) {
            Ok(Some(payload)) => payload,
            // Clean close, dead socket, or a write that failed and shut
            // the socket down: replies still pending fill their slots
            // (or are dropped, if the connection is dead).
            Ok(None) | Err(_) => return,
        };
        match Request::decode(&payload) {
            Ok(Request::Info) => {
                let deployment = registry.default_entry().current();
                let engine = deployment.system.engine();
                outbox.push(&Response::Info {
                    epoch: deployment.epoch,
                    outputs: engine.num_outputs() as u32,
                    symbols: engine.num_symbols() as u32,
                });
            }
            Ok(Request::Shutdown) => {
                // The ack's slot follows every earlier one, so it leaves
                // after their replies.
                outbox.push(&Response::ShutdownAck);
                stop.store(true, Ordering::SeqCst);
                // Unblock the accept loop so `serve` can drain and join.
                poke_listener(listen_addr);
                return;
            }
            Ok(Request::Hello { version }) => {
                // Versioning is per frame kind; a HELLO itself is only
                // meaningful from v2 on, and a client announcing a newer
                // version than this build speaks cannot be served.
                if !(2..=PROTOCOL_VERSION).contains(&version) {
                    outbox.push(&Response::Error {
                        id: NO_REQUEST_ID,
                        code: ServeError::UnsupportedVersion.code(),
                    });
                    return;
                }
                outbox.push(&Response::HelloAck {
                    version: PROTOCOL_VERSION,
                    models: model_table(registry),
                });
            }
            Ok(request @ (Request::Infer { .. } | Request::InferModel { .. })) => {
                // v1 INFER carries no model: the compatibility shim
                // routes it to the default model (wire id 0). v2 names
                // one explicitly; an unknown id fails this request only.
                let (id, entry) = match &request {
                    Request::Infer { id, .. } => (*id, Some(registry.default_entry())),
                    Request::InferModel { model, id, .. } => (*id, registry.entry_by_id(*model)),
                    _ => unreachable!(),
                };
                let done = Completion::slot(outbox.clone(), outbox.reserve(), id);
                match entry {
                    None => done.resolve(Err(ServeError::UnknownModel)),
                    Some(entry) => {
                        let score_request = request.into_score_request().expect("infer request");
                        if let Err((e, done)) = entry.queue().enqueue(score_request, done) {
                            done.resolve(Err(e));
                        }
                    }
                }
            }
            Err(e) => {
                // Corrupt frame: the stream offset can no longer be
                // trusted, so report (under the "no id" sentinel — the
                // frame's own id bytes are exactly what is suspect) and
                // close the connection.
                outbox.push(&Response::Error {
                    id: NO_REQUEST_ID,
                    code: e.code(),
                });
                return;
            }
        }
    }
}

/// Socket timeouts for [`TcpClient`]. `None` means block indefinitely
/// (the pre-hardening behaviour); real deployments should set at least a
/// read timeout so a stalled or dead server surfaces as an error instead
/// of a hang.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientConfig {
    /// Bound on establishing the TCP connection.
    pub connect_timeout: Option<Duration>,
    /// Bound on each blocking read (a reply that takes longer surfaces
    /// as `WouldBlock`/`TimedOut`).
    pub read_timeout: Option<Duration>,
    /// Bound on each blocking write.
    pub write_timeout: Option<Duration>,
}

impl ClientConfig {
    /// One timeout for connect, read, and write alike.
    pub fn with_all(timeout: Duration) -> ClientConfig {
        ClientConfig {
            connect_timeout: Some(timeout),
            read_timeout: Some(timeout),
            write_timeout: Some(timeout),
        }
    }
}

/// Which model a [`TcpClient::score`] request goes to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// v1 `INFER` frames, scored by the server's default model.
    Default,
    /// v2 `INFER_MODEL` frames for this wire id (from the HELLO table).
    Model(u32),
}

/// Jittered-exponential-backoff retry schedule for idempotent requests
/// (scoring is deterministic per `sample_index`, so resubmitting an
/// `INFER` can never double-apply anything).
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 disables retries).
    pub attempts: u32,
    /// Backoff before the first retry; doubles each retry.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Seed of the jitter stream (deterministic per client).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The jittered sleep before retry number `retry` (0-based): the
    /// capped exponential delay scaled uniformly into its upper half, so
    /// synchronized clients decorrelate instead of retrying in lockstep.
    fn delay(&self, retry: u32, rng: &mut SimRng) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32.checked_shl(retry).unwrap_or(u32::MAX))
            .min(self.max_delay);
        exp.mul_f64(rng.uniform_range(0.5, 1.0))
    }
}

/// A synchronous request/response client over the wire protocol.
///
/// One in-flight request at a time; for pipelined load generation, use
/// [`into_stream`](Self::into_stream) and drive reads/writes from
/// separate threads with the [`wire`] functions directly.
///
/// [`connect_with`](Self::connect_with) installs connect/read/write
/// timeouts, and [`score`](Self::score) given a [`RetryPolicy`] wraps
/// scoring in a reconnect-and-resend loop for transient failures.
pub struct TcpClient {
    reader: BufReader<TcpStream>,
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
}

impl TcpClient {
    /// Connects to a running service with no timeouts (blocking reads).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<TcpClient> {
        TcpClient::connect_with(addr, ClientConfig::default())
    }

    /// Connects with the given timeout configuration.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, config: ClientConfig) -> io::Result<TcpClient> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ));
        }
        let stream = Self::open(&addrs, &config)?;
        Ok(TcpClient {
            reader: BufReader::new(stream),
            addrs,
            config,
        })
    }

    fn open(addrs: &[SocketAddr], config: &ClientConfig) -> io::Result<TcpStream> {
        let mut last_err = None;
        for addr in addrs {
            let attempt = match config.connect_timeout {
                Some(timeout) => TcpStream::connect_timeout(addr, timeout),
                None => TcpStream::connect(addr),
            };
            match attempt {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    stream.set_read_timeout(config.read_timeout)?;
                    stream.set_write_timeout(config.write_timeout)?;
                    return Ok(stream);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("addrs checked non-empty"))
    }

    /// Drops the current connection and dials again. Any buffered,
    /// unread reply bytes are discarded — after an IO error or timeout
    /// the stream offset is unreliable, so this is the only safe way to
    /// reuse the client.
    pub fn reconnect(&mut self) -> io::Result<()> {
        let stream = Self::open(&self.addrs, &self.config)?;
        self.reader = BufReader::new(stream);
        Ok(())
    }

    /// Sends one request frame.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        let stream = self.reader.get_mut();
        wire::write_frame(stream, &request.encode())?;
        stream.flush()
    }

    /// Sends one whole frame (length prefix included) in one write.
    fn send_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        self.reader.get_mut().write_all(frame)
    }

    /// Receives one response frame; `None` when the server closed.
    pub fn recv(&mut self) -> io::Result<Option<Response>> {
        match wire::read_frame(&mut self.reader)? {
            None => Ok(None),
            Some(payload) => Response::decode(&payload)
                .map(Some)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
    }

    /// Send + receive, treating an early close as an error.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        self.send(request)?;
        self.reply()
    }

    /// Receives one response frame, treating an early close as an error.
    fn reply(&mut self) -> io::Result<Response> {
        self.recv()?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before replying",
            )
        })
    }

    /// v2 handshake: announces this client's [`PROTOCOL_VERSION`] and
    /// returns the server's model table (wire id → epoch/shape/name).
    ///
    /// A v1-only server rejects the unknown HELLO kind with a
    /// `BadRequest` error frame; that reply *is* the version mismatch,
    /// so it surfaces as [`ServeError::UnsupportedVersion`] — the caller
    /// can fall back to v1 frames or bail, but never hangs on a server
    /// that will not answer.
    pub fn hello(&mut self) -> io::Result<Result<Vec<ModelDescriptor>, ServeError>> {
        let reply = self.request(&Request::Hello {
            version: PROTOCOL_VERSION,
        })?;
        match reply {
            Response::HelloAck { models, .. } => Ok(Ok(models)),
            Response::Error { code, .. } => Ok(Err(match ServeError::from_code(code) {
                ServeError::BadRequest(_) => ServeError::UnsupportedVersion,
                other => other,
            })),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected reply {other:?}"),
            )),
        }
    }

    /// Scores one sample on `target` (a v1 `INFER` frame for
    /// [`Target::Default`], a v2 `INFER_MODEL` frame for
    /// [`Target::Model`], whose ids come from [`hello`](Self::hello)'s
    /// table).
    ///
    /// With `retry: None` the first reply is final: one attempt, no
    /// reconnect. With a policy, an IO failure is retried after a
    /// reconnect (the old stream may hold a half-read reply) and a
    /// [retryable](ServeError::is_retryable) server error on the same
    /// connection (the stream is still framed correctly), under the
    /// policy's jittered backoff. Retrying is safe because scoring is
    /// deterministic per `sample_index`: a reply lost to a timeout and a
    /// retried reply carry identical scores. Returns the last error once
    /// attempts are exhausted; non-retryable server errors return at once.
    pub fn score(
        &mut self,
        target: Target,
        id: u64,
        sample_index: u64,
        input: &[metaai_math::C64],
        retry: Option<&RetryPolicy>,
    ) -> io::Result<Result<ScoreResponse, ServeError>> {
        let model = match target {
            Target::Default => None,
            Target::Model(model) => Some(model),
        };
        let frame = wire::frame(|buf| wire::encode_infer(buf, model, id, sample_index, 0, input));
        let once = RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        };
        let policy = retry.unwrap_or(&once);
        let mut rng = SimRng::derive(policy.seed, "tcp-client-retry");
        let attempts = policy.attempts.max(1);
        let mut last: io::Result<Result<ScoreResponse, ServeError>> =
            Err(io::Error::other("no attempt made"));
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(policy.delay(attempt - 1, &mut rng));
            }
            match self
                .send_frame(&frame)
                .and_then(|()| self.reply())
                .and_then(score_reply)
            {
                Ok(Ok(scored)) => return Ok(Ok(scored)),
                Ok(Err(e)) if !e.is_retryable() => return Ok(Err(e)),
                Ok(Err(e)) => last = Ok(Err(e)),
                Err(e) => {
                    last = Err(e);
                    // The connection is desynchronized (or gone); a fresh
                    // dial is required before the next attempt. Failure
                    // here still counts down the same attempt budget.
                    if attempt + 1 < attempts {
                        let _ = self.reconnect();
                    }
                }
            }
        }
        last
    }

    /// The raw stream, for callers that pipeline with their own threads.
    pub fn into_stream(self) -> TcpStream {
        self.reader.into_inner()
    }
}

/// A scoring reply as a score or the server's error; any other frame is
/// `InvalidData`.
fn score_reply(reply: Response) -> io::Result<Result<ScoreResponse, ServeError>> {
    match reply {
        Response::Score {
            id,
            epoch,
            predicted,
            scores,
        } => Ok(Ok(ScoreResponse {
            id,
            epoch,
            predicted: predicted as usize,
            scores,
        })),
        Response::Error { code, .. } => Ok(Err(ServeError::from_code(code))),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected reply {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_accept_errors_are_classified() {
        for transient in [
            io::Error::from_raw_os_error(24), // EMFILE
            io::Error::from_raw_os_error(23), // ENFILE
            io::Error::new(io::ErrorKind::ConnectionAborted, "aborted in handshake"),
            io::Error::new(io::ErrorKind::Interrupted, "EINTR"),
        ] {
            assert!(
                is_transient_accept_error(&transient),
                "{transient:?} should be retried"
            );
        }
        for fatal in [
            io::Error::new(io::ErrorKind::InvalidInput, "bad listener"),
            io::Error::from_raw_os_error(9), // EBADF: the listener fd is gone
        ] {
            assert!(
                !is_transient_accept_error(&fatal),
                "{fatal:?} should propagate"
            );
        }
    }

    #[test]
    fn accept_backoff_doubles_and_caps() {
        let mut backoff = ACCEPT_BACKOFF_START;
        let mut seen = Vec::new();
        for _ in 0..12 {
            seen.push(backoff);
            backoff = next_backoff(backoff);
        }
        assert_eq!(seen[0], Duration::from_millis(1));
        assert_eq!(seen[1], Duration::from_millis(2));
        assert_eq!(seen[2], Duration::from_millis(4));
        assert!(seen.iter().all(|&d| d <= ACCEPT_BACKOFF_CAP));
        assert_eq!(*seen.last().unwrap(), ACCEPT_BACKOFF_CAP);
    }

    #[test]
    fn reaping_joins_finished_handlers_and_keeps_live_ones() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        for _ in 0..4 {
            handlers.push(std::thread::spawn(|| {}));
        }
        handlers.push(std::thread::spawn(move || {
            let _ = rx.recv();
        }));
        // The four no-op threads finish promptly; poll until reaped.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            reap_finished(&mut handlers);
            if handlers.len() == 1 || std::time::Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(handlers.len(), 1, "only the live handler remains");
        drop(tx);
        for handler in handlers {
            handler.join().unwrap();
        }
    }

    #[test]
    fn post_stop_connections_get_a_shutting_down_frame() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut client = TcpClient::connect(addr).unwrap();
            client.recv()
        });
        let (stream, _) = listener.accept().unwrap();
        refuse_post_stop(stream);
        match client.join().unwrap().unwrap() {
            Some(Response::Error { id, code }) => {
                assert_eq!(id, NO_REQUEST_ID);
                assert_eq!(code, ServeError::ShuttingDown.code());
            }
            other => panic!("expected a ShuttingDown error frame, got {other:?}"),
        }
    }

    #[test]
    fn retry_delays_are_jittered_capped_exponentials() {
        let policy = RetryPolicy {
            attempts: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(60),
            seed: 7,
        };
        let mut rng = SimRng::derive(policy.seed, "tcp-client-retry");
        for retry in 0..8 {
            let exp = Duration::from_millis(10)
                .saturating_mul(1 << retry)
                .min(policy.max_delay);
            let d = policy.delay(retry, &mut rng);
            assert!(
                d >= exp.mul_f64(0.5),
                "retry {retry}: {d:?} < half of {exp:?}"
            );
            assert!(d <= exp, "retry {retry}: {d:?} above cap {exp:?}");
        }
        // Very large retry counts must not overflow the shift.
        let _ = policy.delay(40, &mut rng);
    }
}
