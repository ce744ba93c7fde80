//! The open-loop load generator.
//!
//! Request `k` is due at `t0 + k · period`, whatever happened to the
//! requests before it, and its latency is measured from that due time,
//! not from when it was actually sent. A server stall therefore shows up
//! in every request that fell due during the stall, not just in the one
//! that was in flight (no coordinated omission). The sender reports how
//! late it ran against the schedule; a high lag means the generator, not
//! the program, limited the load.
//!
//! Two threads per run: the sender (the calling thread) and a receiver.
//! The first `warmup` requests are sent and answered but not measured.
//! The sender also reads the hypervisor's steal counter once a second,
//! so latency can be summarised over the slices in which the vCPUs were
//! not taken away ([`Outcome::quiet_latency_us`]).

use crate::report::{cpus, process_cpu_s, quiet_groups, steal_s};
use crate::trace::{SpanRecord, Tracer, REQUEST_IDS, ROOT};
use metaai_math::stats::argmax;
use metaai_serve::wire::{self, Response};
use metaai_serve::{Client, ScoreRequest, ServeError, Ticket};
use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long the receiver waits for a reply before it gives the rest up
/// as unanswered.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// A fixed-interval send schedule.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub period: Duration,
    /// Requests sent before the measured window.
    pub warmup: u64,
    /// Requests in the measured window.
    pub window: u64,
}

impl Schedule {
    pub fn new(rate_hz: f64, warmup_s: f64, window_s: f64) -> Self {
        Schedule {
            period: Duration::from_secs_f64(1.0 / rate_hz),
            warmup: (rate_hz * warmup_s).round() as u64,
            window: (rate_hz * window_s).round().max(1.0) as u64,
        }
    }

    pub fn total(&self) -> u64 {
        self.warmup + self.window
    }

    /// Requests per one-second slice of the measured window.
    pub fn slice_len(&self) -> u64 {
        (1e9 / self.period.as_nanos() as f64).round().max(1.0) as u64
    }

    pub fn due(&self, t0: Instant, k: u64) -> Instant {
        t0 + Duration::from_nanos(self.period.as_nanos() as u64 * k)
    }
}

/// One scored reply kept for the bitwise check.
#[derive(Clone, Debug)]
pub struct Reply {
    pub epoch: u64,
    pub predicted: usize,
    pub scores: Vec<f64>,
}

/// What one run saw. Counts cover the measured window only.
#[derive(Debug, Default)]
pub struct Outcome {
    pub scheduled: u64,
    pub sent: u64,
    /// Scored replies whose prediction is the argmax of their scores.
    pub scored: u64,
    pub shed: u64,
    pub expired: u64,
    /// Other error replies, malformed or duplicate replies.
    pub errors: u64,
    pub unanswered: u64,
    /// Reply time minus due time of each scored request, µs.
    pub latency_us: Vec<f64>,
    /// The one-second slice of the window each `latency_us` sample's
    /// request fell due in.
    pub latency_slice: Vec<usize>,
    /// Share of the vCPUs' time the hypervisor stole in each slice.
    pub slice_steal: Vec<f64>,
    /// Send time minus due time of each request, µs.
    pub lag_us: Vec<f64>,
    /// Replies to the requests `keep` selected (warm-up included).
    pub kept: Vec<(u64, Reply)>,
    /// Process CPU time from the first measured send to the last reply.
    pub cpu_s: f64,
}

impl Outcome {
    /// Latencies of the requests due in the window's quiet one-second
    /// slices ([`quiet_groups`]), and the share of slices that were quiet.
    pub fn quiet_latency_us(&self) -> (Vec<f64>, f64) {
        let (keep, share) = quiet_groups(&self.slice_steal);
        let latency = self
            .latency_us
            .iter()
            .zip(&self.latency_slice)
            .filter(|(_, &s)| keep.get(s).copied().unwrap_or(true))
            .map(|(&l, _)| l)
            .collect();
        (latency, share)
    }

    /// Folds in another window's outcome (kept replies are not carried:
    /// each window checks its own).
    pub fn merge(&mut self, other: Outcome) {
        self.scheduled += other.scheduled;
        self.sent += other.sent;
        self.scored += other.scored;
        self.shed += other.shed;
        self.expired += other.expired;
        self.errors += other.errors;
        self.unanswered += other.unanswered;
        let base = self.slice_steal.len();
        self.latency_us.extend(other.latency_us);
        self.latency_slice
            .extend(other.latency_slice.iter().map(|s| s + base));
        self.slice_steal.extend(other.slice_steal);
        self.lag_us.extend(other.lag_us);
        self.cpu_s += other.cpu_s;
    }
}

/// Receiver-side bookkeeping shared by the TCP and in-process runs.
struct Tally<'a> {
    sched: Schedule,
    t0: Instant,
    seen: Vec<bool>,
    answered: u64,
    keep: &'a (dyn Fn(u64) -> bool + Sync),
    tracer: &'a Tracer,
    out: Outcome,
}

impl<'a> Tally<'a> {
    fn new(
        sched: Schedule,
        t0: Instant,
        keep: &'a (dyn Fn(u64) -> bool + Sync),
        tracer: &'a Tracer,
    ) -> Self {
        Tally {
            sched,
            t0,
            seen: vec![false; sched.total() as usize],
            answered: 0,
            keep,
            tracer,
            out: Outcome {
                scheduled: sched.window,
                latency_us: Vec::with_capacity(sched.window as usize),
                ..Outcome::default()
            },
        }
    }

    /// Books one reply for request `id` that arrived at `at`.
    fn reply(&mut self, id: u64, at: Instant, outcome: Result<Reply, ServeError>) {
        let measured = id >= self.sched.warmup;
        if id >= self.sched.total() || std::mem::replace(&mut self.seen[id as usize], true) {
            // An id never sent, or a second reply to one request.
            self.out.errors += 1;
            return;
        }
        self.answered += 1;
        let due = self.sched.due(self.t0, id);
        self.tracer.record(SpanRecord {
            id: REQUEST_IDS + id,
            parent: ROOT,
            name: "request",
            request: id,
            calls: 1,
            start: due,
            end: at,
        });
        let count = |c: &mut u64| {
            if measured {
                *c += 1;
            }
        };
        match outcome {
            Ok(reply) if reply.predicted == argmax(&reply.scores) => {
                if measured {
                    self.out.scored += 1;
                    let latency = at.saturating_duration_since(due);
                    self.out.latency_us.push(latency.as_secs_f64() * 1e6);
                    let slice = (id - self.sched.warmup) / self.sched.slice_len();
                    self.out.latency_slice.push(slice as usize);
                }
                if (self.keep)(id) {
                    self.out.kept.push((id, reply));
                }
            }
            Ok(_) => count(&mut self.out.errors),
            Err(ServeError::Overloaded) => count(&mut self.out.shed),
            Err(ServeError::Expired) => count(&mut self.out.expired),
            Err(_) => count(&mut self.out.errors),
        }
    }

    fn finish(mut self, sent: u64, cpu_start: f64) -> Outcome {
        self.out.cpu_s = process_cpu_s() - cpu_start;
        let window = |k: u64| k >= self.sched.warmup;
        self.out.sent = (0..sent).filter(|&k| window(k)).count() as u64;
        self.out.unanswered = (0..self.sched.total())
            .filter(|&k| window(k) && !self.seen[k as usize])
            .count() as u64;
        self.out
    }
}

/// Sender-side state: the schedule clock and lag samples.
struct Pacer<'a> {
    sched: Schedule,
    t0: Instant,
    next: u64,
    lag_us: Vec<f64>,
    cpu_start: Option<f64>,
    /// Steal readings at the start of each slice of the measured window
    /// (and one at its end).
    steal: Vec<(Instant, f64)>,
    tracer: &'a Tracer,
}

impl<'a> Pacer<'a> {
    /// Closes the last slice and returns each slice's steal share.
    fn slice_steal(&mut self) -> Vec<f64> {
        self.steal.push((Instant::now(), steal_s()));
        self.steal
            .windows(2)
            .map(|w| (w[1].1 - w[0].1) / ((w[1].0 - w[0].0).as_secs_f64() * cpus()))
            .collect()
    }

    fn new(sched: Schedule, tracer: &'a Tracer) -> Self {
        Pacer {
            sched,
            // A short lead so the receiver is running before the first
            // request falls due.
            t0: Instant::now() + Duration::from_millis(5),
            next: 0,
            lag_us: Vec::with_capacity(sched.window as usize),
            cpu_start: None,
            steal: Vec::new(),
            tracer,
        }
    }

    /// Sleeps until the next request is due, then returns the range of
    /// every request due by now (empty once the schedule is done).
    fn due_now(&mut self) -> std::ops::Range<u64> {
        let total = self.sched.total();
        if self.next >= total {
            return total..total;
        }
        let wake = self.sched.due(self.t0, self.next);
        let now = Instant::now();
        if wake > now {
            std::thread::sleep(wake - now);
        }
        let now = Instant::now();
        let first = self.next;
        while self.next < total && self.sched.due(self.t0, self.next) <= now {
            self.next += 1;
        }
        if self.cpu_start.is_none() && self.next > self.sched.warmup {
            self.cpu_start = Some(process_cpu_s());
        }
        let slice = self.sched.warmup + self.steal.len() as u64 * self.sched.slice_len();
        if self.next > slice && slice < total {
            self.steal.push((Instant::now(), steal_s()));
        }
        first..self.next
    }

    /// Books the sends of `range`, which started at `start` and ended now.
    fn sent(&mut self, range: std::ops::Range<u64>, start: Instant) {
        let end = Instant::now();
        for k in range {
            let due = self.sched.due(self.t0, k);
            if k >= self.sched.warmup {
                self.lag_us
                    .push(end.saturating_duration_since(due).as_secs_f64() * 1e6);
            }
            self.tracer.record(SpanRecord {
                id: self.tracer.open(),
                parent: REQUEST_IDS + k,
                name: "loadgen.send",
                request: k,
                calls: 1,
                start,
                end,
            });
        }
    }
}

/// Drives one TCP connection open-loop. `payload(k, buf)` appends the
/// frame payload of request `k` (without its length prefix); `hook(k)`
/// runs on the sender thread just before request `k` is sent.
pub fn run_tcp(
    stream: TcpStream,
    sched: Schedule,
    mut payload: impl FnMut(u64, &mut Vec<u8>),
    mut hook: impl FnMut(u64),
    keep: &(dyn Fn(u64) -> bool + Sync),
    tracer: &Tracer,
) -> io::Result<Outcome> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let mut reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
    let mut writer = stream;
    let mut pacer = Pacer::new(sched, tracer);
    let t0 = pacer.t0;
    let (sent, cpu_start, tally) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut tally = Tally::new(sched, t0, keep, tracer);
            while tally.answered < sched.total() {
                let Ok(Some(frame)) = wire::read_frame(&mut reader) else {
                    break;
                };
                let at = Instant::now();
                match Response::decode(&frame) {
                    Ok(Response::Score {
                        id,
                        epoch,
                        predicted,
                        scores,
                    }) => tally.reply(
                        id,
                        at,
                        Ok(Reply {
                            epoch,
                            predicted: predicted as usize,
                            scores,
                        }),
                    ),
                    Ok(Response::Error { id, code }) => {
                        tally.reply(id, at, Err(ServeError::from_code(code)))
                    }
                    _ => tally.out.errors += 1,
                }
            }
            tally
        });
        let mut batch: Vec<u8> = Vec::new();
        loop {
            let range = pacer.due_now();
            if range.is_empty() {
                break;
            }
            let start = Instant::now();
            batch.clear();
            for k in range.clone() {
                hook(k);
                let at = batch.len();
                batch.extend_from_slice(&[0; 4]);
                payload(k, &mut batch);
                let len = (batch.len() - at - 4) as u32;
                batch[at..at + 4].copy_from_slice(&len.to_le_bytes());
            }
            if writer.write_all(&batch).is_err() {
                pacer.next = range.start;
                break;
            }
            pacer.sent(range, start);
        }
        let cpu_start = pacer.cpu_start.unwrap_or_else(process_cpu_s);
        (
            pacer.next,
            cpu_start,
            receiver.join().expect("receiver thread"),
        )
    });
    let mut out = tally.finish(sent, cpu_start);
    out.slice_steal = pacer.slice_steal();
    out.lag_us = pacer.lag_us;
    Ok(out)
}

/// Drives in-process [`Client`]s open-loop: `request(k)` names the
/// client index and the request to submit for `k`.
pub fn run_inproc(
    clients: &[Client],
    sched: Schedule,
    mut request: impl FnMut(u64) -> (usize, ScoreRequest),
    mut hook: impl FnMut(u64),
    keep: &(dyn Fn(u64) -> bool + Sync),
    tracer: &Tracer,
) -> Outcome {
    let mut pacer = Pacer::new(sched, tracer);
    let t0 = pacer.t0;
    let (tx, rx) = mpsc::channel::<(u64, Result<Ticket, ServeError>)>();
    let (sent, cpu_start, tally) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut tally = Tally::new(sched, t0, keep, tracer);
            for (id, ticket) in rx {
                let outcome = ticket.and_then(Ticket::wait);
                let at = Instant::now();
                let outcome = outcome.map(|r| Reply {
                    epoch: r.epoch,
                    predicted: r.predicted,
                    scores: r.scores,
                });
                tally.reply(id, at, outcome);
            }
            tally
        });
        loop {
            let range = pacer.due_now();
            if range.is_empty() {
                break;
            }
            let start = Instant::now();
            for k in range.clone() {
                hook(k);
                let (client, req) = request(k);
                let ticket = clients[client].submit(req);
                tx.send((k, ticket)).expect("receiver thread alive");
            }
            pacer.sent(range, start);
        }
        drop(tx);
        let cpu_start = pacer.cpu_start.unwrap_or_else(process_cpu_s);
        (
            pacer.next,
            cpu_start,
            receiver.join().expect("receiver thread"),
        )
    });
    let mut out = tally.finish(sent, cpu_start);
    out.slice_steal = pacer.slice_steal();
    out.lag_us = pacer.lag_us;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::percentile;
    use metaai_math::C64;
    use metaai_serve::wire::Request;
    use std::io::BufWriter;
    use std::net::TcpListener;

    /// A stand-in server that answers every request at once, except that
    /// after answering request `stall_after` it stops for `stall`.
    fn stub_server(
        stall_after: u64,
        stall: Duration,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            stream.set_nodelay(true).expect("nodelay");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = BufWriter::new(stream);
            while let Ok(Some(frame)) = wire::read_frame(&mut reader) {
                let Ok(Request::InferModel { id, .. }) = Request::decode(&frame) else {
                    panic!("stub expects INFER_MODEL frames");
                };
                let reply = Response::Score {
                    id,
                    epoch: 1,
                    predicted: 0,
                    scores: vec![1.0, 0.5],
                };
                wire::write_frame(&mut writer, &reply.encode()).expect("write");
                writer.flush().expect("flush");
                if id == stall_after {
                    std::thread::sleep(stall);
                }
            }
        });
        (addr, handle)
    }

    fn drive(stall: Duration) -> Outcome {
        let (addr, server) = stub_server(100, stall);
        let stream = TcpStream::connect(addr).expect("connect");
        let template = Request::InferModel {
            model: 0,
            id: 0,
            sample_index: 0,
            deadline_us: 0,
            input: vec![C64::ZERO; 4],
        }
        .encode();
        let sched = Schedule::new(2000.0, 0.0, 0.3);
        let tracer = Tracer::new(false);
        let out = run_tcp(
            stream,
            sched,
            |k, buf| {
                let at = buf.len();
                buf.extend_from_slice(&template);
                Request::restamp_infer(&mut buf[at..], k, k);
            },
            |_| {},
            &|k| k % 100 == 0,
            &tracer,
        )
        .expect("run");
        server.join().expect("stub server");
        out
    }

    #[test]
    fn latency_counts_the_quiet_slices() {
        let out = |steal: &[f64]| Outcome {
            latency_us: (0..steal.len()).map(|s| s as f64).collect(),
            latency_slice: (0..steal.len()).collect(),
            slice_steal: steal.to_vec(),
            ..Outcome::default()
        };
        let (kept, share) = out(&[0.0, 0.0, 0.5, 0.0, 0.0]).quiet_latency_us();
        assert_eq!((kept, share), (vec![0.0, 1.0, 3.0, 4.0], 0.8));
        let (kept, share) = out(&[0.2, 0.5, 0.1]).quiet_latency_us();
        assert_eq!((kept, share), (vec![2.0], 0.0));
    }

    #[test]
    fn a_server_stall_raises_latency_measured_from_the_due_time() {
        let calm = drive(Duration::ZERO);
        let stalled = drive(Duration::from_millis(150));
        for out in [&calm, &stalled] {
            assert_eq!(out.scheduled, 600);
            assert_eq!(out.sent, 600);
            assert_eq!(out.scored, 600, "every request answered");
            assert_eq!(out.kept.len(), 6);
        }
        // Roughly 300 requests fell due during the stall; the earliest
        // of them waited most of it, so the 90th percentile reflects the
        // stall even though only one request was in service when it hit.
        let p90 = |o: &Outcome| percentile(&o.latency_us, 90.0);
        assert!(p90(&calm) < 20_000.0, "calm p90 {} µs", p90(&calm));
        assert!(p90(&stalled) > 60_000.0, "stalled p90 {} µs", p90(&stalled));
        let max = stalled.latency_us.iter().cloned().fold(0.0, f64::max);
        assert!(max > 140_000.0, "worst request waited {max} µs");
    }
}
