//! Wire-level fault injection against a running `metaai serve` endpoint.
//!
//! [`FaultyStream`] wraps any writer and delivers length-prefixed frames
//! with seeded, deterministic corruption: single bit flips, truncated
//! frames (length prefix promises more than is sent), corrupt length
//! prefixes (over the protocol cap), mid-frame disconnects (the length
//! prefix itself is cut short), and slow-loris writes (the frame dribbles
//! out in small delayed chunks). [`run`] drives a pool of chaos
//! connections that stamp real `INFER` payloads through those faults,
//! reconnecting whenever a fault (or the server's corrupt-frame
//! handling) kills the connection — which also exercises the server's
//! accept-loop supervision and handler reaping under connection churn.
//!
//! The point of the module is the *clean* traffic running next to it:
//! `loadgen --chaos` and the chaos-soak integration test assert that a
//! well-behaved connection sees zero protocol errors while this module
//! abuses the same listener.

use metaai_math::rng::SimRng;
use metaai_serve::wire::{self, Request, Response, MAX_FRAME_BYTES};
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One way to deliver (or fail to deliver) a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Honest delivery.
    Clean,
    /// Correct framing, one random payload bit inverted.
    BitFlip,
    /// The length prefix promises the full payload but only a strict
    /// prefix follows; the connection must then be dropped (the server
    /// is left waiting mid-frame).
    TruncateFrame,
    /// A length prefix over [`MAX_FRAME_BYTES`], which the server must
    /// reject without allocating.
    CorruptLength,
    /// The connection dies inside the 4-byte length prefix itself.
    MidFrameDisconnect,
    /// The whole frame, correctly, but dribbled out in small delayed
    /// chunks — the server's reader must tolerate slow peers.
    SlowLoris,
}

/// Whether the connection is still usable after a frame delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameOutcome {
    /// Framing is intact (the payload may still be corrupt).
    Delivered,
    /// Framing is broken; close the connection and dial a fresh one.
    Poisoned,
}

/// Relative weights of each fault kind (need not sum to 1).
#[derive(Clone, Copy, Debug)]
pub struct FaultMix {
    pub clean: f64,
    pub bit_flip: f64,
    pub truncate: f64,
    pub corrupt_length: f64,
    pub disconnect: f64,
    pub slow_loris: f64,
}

impl Default for FaultMix {
    fn default() -> Self {
        // Roughly 40% honest traffic; framing-breaking faults are kept
        // frequent enough to force steady connection churn.
        FaultMix {
            clean: 0.40,
            bit_flip: 0.15,
            truncate: 0.15,
            corrupt_length: 0.10,
            disconnect: 0.10,
            slow_loris: 0.10,
        }
    }
}

impl FaultMix {
    fn sample(&self, rng: &mut SimRng) -> FaultKind {
        let total = self.clean
            + self.bit_flip
            + self.truncate
            + self.corrupt_length
            + self.disconnect
            + self.slow_loris;
        let mut x = rng.uniform() * total;
        for (weight, kind) in [
            (self.clean, FaultKind::Clean),
            (self.bit_flip, FaultKind::BitFlip),
            (self.truncate, FaultKind::TruncateFrame),
            (self.corrupt_length, FaultKind::CorruptLength),
            (self.disconnect, FaultKind::MidFrameDisconnect),
            (self.slow_loris, FaultKind::SlowLoris),
        ] {
            if x < weight {
                return kind;
            }
            x -= weight;
        }
        FaultKind::Clean
    }
}

/// A frame writer that injects faults chosen by a seeded RNG.
pub struct FaultyStream<W: Write> {
    inner: W,
    rng: SimRng,
    mix: FaultMix,
}

impl<W: Write> FaultyStream<W> {
    /// Wraps `inner`; all fault decisions derive from `(seed, label)`.
    pub fn new(inner: W, seed: u64, label: &str, mix: FaultMix) -> Self {
        FaultyStream {
            inner,
            rng: SimRng::derive(seed, label),
            mix,
        }
    }

    /// Draws the next fault kind from the configured mix.
    pub fn next_fault(&mut self) -> FaultKind {
        let mix = self.mix;
        mix.sample(&mut self.rng)
    }

    /// Delivers `payload` under `kind`, flushing what was written.
    pub fn write_frame(&mut self, payload: &[u8], kind: FaultKind) -> io::Result<FrameOutcome> {
        let outcome = match kind {
            FaultKind::Clean => {
                wire::write_frame(&mut self.inner, payload)?;
                FrameOutcome::Delivered
            }
            FaultKind::BitFlip => {
                let mut corrupt = payload.to_vec();
                if !corrupt.is_empty() {
                    let byte = self.rng.below(corrupt.len());
                    let bit = self.rng.below(8) as u8;
                    corrupt[byte] ^= 1 << bit;
                }
                wire::write_frame(&mut self.inner, &corrupt)?;
                FrameOutcome::Delivered
            }
            FaultKind::TruncateFrame => {
                let keep = self.rng.below(payload.len().max(1));
                self.inner
                    .write_all(&(payload.len() as u32).to_le_bytes())?;
                self.inner.write_all(&payload[..keep])?;
                FrameOutcome::Poisoned
            }
            FaultKind::CorruptLength => {
                let over = (MAX_FRAME_BYTES as u32).saturating_add(1 + self.rng.below(1024) as u32);
                self.inner.write_all(&over.to_le_bytes())?;
                // A little garbage after the bogus prefix, so the server
                // rejects on the prefix, not on a tidy EOF.
                self.inner.write_all(&payload[..payload.len().min(8)])?;
                FrameOutcome::Poisoned
            }
            FaultKind::MidFrameDisconnect => {
                let cut = 1 + self.rng.below(3);
                self.inner
                    .write_all(&(payload.len() as u32).to_le_bytes()[..cut])?;
                FrameOutcome::Poisoned
            }
            FaultKind::SlowLoris => {
                let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
                frame.extend_from_slice(payload);
                // ≤ 32 chunks × 3 ms keeps one loris under ~100 ms while
                // still forcing dozens of short reads server-side.
                let chunk = frame.len().div_ceil(32).max(16);
                for piece in frame.chunks(chunk) {
                    self.inner.write_all(piece)?;
                    self.inner.flush()?;
                    std::thread::sleep(Duration::from_millis(3));
                }
                FrameOutcome::Delivered
            }
        };
        self.inner.flush()?;
        Ok(outcome)
    }
}

/// Chaos-run parameters.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Root seed; every connection derives its own stream from it.
    pub seed: u64,
    /// Concurrent chaos connections.
    pub connections: usize,
    /// Stop once this many faults (non-clean frames) have been injected
    /// across all connections.
    pub target_faults: u64,
    /// Hard wall-clock cap on the run.
    pub duration: Duration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 7,
            connections: 4,
            target_faults: 120,
            duration: Duration::from_secs(30),
        }
    }
}

/// Aggregated outcome of a chaos run. Error replies and reconnects are
/// *expected* here — the run fails only on IO that should not fail
/// (e.g. the initial connect).
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// Frames pushed into the fault injector (all kinds).
    pub frames_sent: u64,
    /// Honestly delivered INFER frames.
    pub clean_frames: u64,
    /// Frames with one payload bit inverted.
    pub bit_flips: u64,
    /// Frames whose payload was cut short of the length prefix.
    pub truncated_frames: u64,
    /// Length prefixes over the protocol cap.
    pub corrupt_lengths: u64,
    /// Connections dropped inside the length prefix.
    pub mid_frame_disconnects: u64,
    /// Frames dribbled out slow-loris style.
    pub slow_loris_frames: u64,
    /// Fresh dials after a poisoned or server-closed connection.
    pub reconnects: u64,
    /// SCORE replies observed on chaos connections.
    pub scored_replies: u64,
    /// ERROR replies observed on chaos connections (expected: the
    /// server reports corrupt frames before closing).
    pub error_replies: u64,
}

impl ChaosReport {
    /// Total injected faults (every non-clean frame).
    pub fn faults_injected(&self) -> u64 {
        self.bit_flips
            + self.truncated_frames
            + self.corrupt_lengths
            + self.mid_frame_disconnects
            + self.slow_loris_frames
    }

    fn count(&mut self, kind: FaultKind) {
        self.frames_sent += 1;
        match kind {
            FaultKind::Clean => self.clean_frames += 1,
            FaultKind::BitFlip => self.bit_flips += 1,
            FaultKind::TruncateFrame => self.truncated_frames += 1,
            FaultKind::CorruptLength => self.corrupt_lengths += 1,
            FaultKind::MidFrameDisconnect => self.mid_frame_disconnects += 1,
            FaultKind::SlowLoris => self.slow_loris_frames += 1,
        }
    }

    fn merge(&mut self, other: ChaosReport) {
        self.frames_sent += other.frames_sent;
        self.clean_frames += other.clean_frames;
        self.bit_flips += other.bit_flips;
        self.truncated_frames += other.truncated_frames;
        self.corrupt_lengths += other.corrupt_lengths;
        self.mid_frame_disconnects += other.mid_frame_disconnects;
        self.slow_loris_frames += other.slow_loris_frames;
        self.reconnects += other.reconnects;
        self.scored_replies += other.scored_replies;
        self.error_replies += other.error_replies;
    }
}

/// Abuses the service at `addr` with `cfg.connections` fault-injecting
/// connections until `cfg.target_faults` faults have landed (or the
/// duration cap passes). `symbols` must match the deployment, so the
/// clean frames in the mix are genuinely scoreable.
pub fn run<A: ToSocketAddrs>(
    addr: A,
    symbols: usize,
    cfg: &ChaosConfig,
) -> io::Result<ChaosReport> {
    let addrs: Vec<_> = addr.to_socket_addrs()?.collect();
    let addr = *addrs.first().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
    })?;
    let injected = AtomicU64::new(0);
    let mut report = ChaosReport::default();
    let outcomes: Vec<io::Result<ChaosReport>> = std::thread::scope(|scope| {
        let injected = &injected;
        let handles: Vec<_> = (0..cfg.connections.max(1))
            .map(|conn| {
                scope.spawn(move || chaos_connection(addr, conn as u64, symbols, cfg, injected))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chaos connection thread"))
            .collect()
    });
    for outcome in outcomes {
        report.merge(outcome?);
    }
    Ok(report)
}

fn chaos_connection(
    addr: std::net::SocketAddr,
    conn: u64,
    symbols: usize,
    cfg: &ChaosConfig,
    injected: &AtomicU64,
) -> io::Result<ChaosReport> {
    let mut report = ChaosReport::default();
    let mut rng = SimRng::derive(cfg.seed, &format!("chaos-payload-{conn}"));
    let mut payload = Request::Infer {
        id: 1,
        sample_index: 0,
        deadline_us: 0,
        input: (0..symbols).map(|_| rng.complex_gaussian(1.0)).collect(),
    }
    .encode();

    let started = Instant::now();
    let mut sent = 0u64;
    let mut dials = 0u64;
    let mut first_dial = true;
    'dial: while started.elapsed() < cfg.duration
        && injected.load(Ordering::Relaxed) < cfg.target_faults
    {
        let stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            // The first dial failing means the target is absent —
            // report it. Later dials can legitimately race shutdown or
            // a backlog full of our own corpses; retry them.
            Err(e) if first_dial => return Err(e),
            Err(_) => {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if !first_dial {
            report.reconnects += 1;
        }
        first_dial = false;
        let _ = stream.set_nodelay(true);

        // Drain replies so the server's reply writes never block on us
        // (a write stalled past its timeout drops the connection);
        // counts are folded into the report at close. The
        // read timeout bounds the drain if the server keeps the
        // connection open without data after our half-close.
        let reader_stream = stream.try_clone()?;
        let _ = reader_stream.set_read_timeout(Some(Duration::from_secs(2)));
        let drain = std::thread::spawn(move || {
            let mut reader = BufReader::new(reader_stream);
            let (mut scored, mut errors) = (0u64, 0u64);
            while let Ok(Some(frame)) = wire::read_frame(&mut reader) {
                match Response::decode(&frame) {
                    Ok(Response::Score { .. }) => scored += 1,
                    Ok(Response::Error { .. }) => errors += 1,
                    _ => {}
                }
            }
            (scored, errors)
        });

        // A fresh RNG stream per dial: reusing one label would replay
        // the same fault prefix after every reconnect and starve the
        // kinds that happen to sit deeper in the sequence.
        let mut faulty = FaultyStream::new(
            stream.try_clone()?,
            cfg.seed,
            &format!("chaos-faults-{conn}-{dials}"),
            FaultMix::default(),
        );
        dials += 1;
        let poisoned = loop {
            if started.elapsed() >= cfg.duration
                || injected.load(Ordering::Relaxed) >= cfg.target_faults
            {
                break false;
            }
            let id = (0xC0 << 48) | (conn << 40) | sent;
            Request::restamp_infer(&mut payload, id, sent);
            sent += 1;
            let kind = faulty.next_fault();
            report.count(kind);
            if kind != FaultKind::Clean {
                injected.fetch_add(1, Ordering::Relaxed);
            }
            match faulty.write_frame(&payload, kind) {
                Ok(FrameOutcome::Delivered) => {}
                Ok(FrameOutcome::Poisoned) => break true,
                // The server closed on us (corrupt-frame handling) —
                // exactly what chaos is for; dial again.
                Err(_) => break true,
            }
        };
        // Half-close: FIN our write side so the server sees EOF (or the
        // mid-frame cut) and finishes its replies; a full shutdown here
        // would RST the responses we are trying to observe. The drain's
        // read timeout guarantees the join is bounded either way.
        let _ = stream.shutdown(Shutdown::Write);
        let (scored, errors) = drain.join().expect("drain thread");
        report.scored_replies += scored;
        report.error_replies += errors;
        if !poisoned {
            break 'dial;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload() -> Vec<u8> {
        Request::Infer {
            id: 5,
            sample_index: 6,
            deadline_us: 0,
            input: (0..8)
                .map(|i| metaai_math::C64 {
                    re: i as f64,
                    im: 0.5,
                })
                .collect(),
        }
        .encode()
    }

    fn deliver(kind: FaultKind) -> (Vec<u8>, FrameOutcome) {
        let mut buf = Vec::new();
        let mut faulty = FaultyStream::new(&mut buf, 11, "test", FaultMix::default());
        let outcome = faulty.write_frame(&payload(), kind).expect("in-memory IO");
        (buf, outcome)
    }

    #[test]
    fn clean_frames_are_byte_identical_to_wire_framing() {
        let (buf, outcome) = deliver(FaultKind::Clean);
        let mut expected = Vec::new();
        wire::write_frame(&mut expected, &payload()).unwrap();
        assert_eq!(buf, expected);
        assert_eq!(outcome, FrameOutcome::Delivered);
    }

    #[test]
    fn bit_flips_keep_framing_and_change_exactly_one_bit() {
        let (buf, outcome) = deliver(FaultKind::BitFlip);
        assert_eq!(outcome, FrameOutcome::Delivered);
        let mut r = &buf[..];
        let delivered = wire::read_frame(&mut r).unwrap().expect("framed");
        let original = payload();
        assert_eq!(delivered.len(), original.len());
        let flipped: u32 = delivered
            .iter()
            .zip(&original)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn truncated_frames_promise_more_than_they_deliver() {
        let (buf, outcome) = deliver(FaultKind::TruncateFrame);
        assert_eq!(outcome, FrameOutcome::Poisoned);
        let declared = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        assert_eq!(declared, payload().len());
        assert!(buf.len() - 4 < declared, "payload was cut short");
        // The server side sees a mid-frame EOF, not a decodable frame.
        let mut r = &buf[..];
        assert!(wire::read_frame(&mut r).is_err());
    }

    #[test]
    fn corrupt_lengths_exceed_the_protocol_cap() {
        let (buf, outcome) = deliver(FaultKind::CorruptLength);
        assert_eq!(outcome, FrameOutcome::Poisoned);
        let declared = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        assert!(declared > MAX_FRAME_BYTES);
        let mut r = &buf[..];
        let err = wire::read_frame(&mut r).expect_err("rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn mid_frame_disconnects_cut_the_length_prefix_itself() {
        let (buf, outcome) = deliver(FaultKind::MidFrameDisconnect);
        assert_eq!(outcome, FrameOutcome::Poisoned);
        assert!(buf.len() < 4, "only {} prefix bytes delivered", buf.len());
    }

    #[test]
    fn slow_loris_delivers_the_frame_intact() {
        let (buf, outcome) = deliver(FaultKind::SlowLoris);
        assert_eq!(outcome, FrameOutcome::Delivered);
        let mut r = &buf[..];
        let delivered = wire::read_frame(&mut r).unwrap().expect("framed");
        assert_eq!(delivered, payload());
    }

    #[test]
    fn the_fault_mix_is_seed_deterministic() {
        let draw = |seed| {
            let mut faulty = FaultyStream::new(Vec::new(), seed, "mix", FaultMix::default());
            (0..64).map(|_| faulty.next_fault()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8), "different seeds, different plans");
        let kinds = draw(7);
        assert!(kinds.contains(&FaultKind::Clean));
        assert!(kinds.iter().any(|k| *k != FaultKind::Clean));
    }
}
