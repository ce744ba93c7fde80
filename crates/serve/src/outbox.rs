//! A connection's ordered outbox: replies leave in request order, written
//! by whichever thread completes the one at the head.
//!
//! The connection's reader [reserves](Outbox::reserve) the next sequence
//! slot for every frame it will answer. Whoever completes a slot fills it:
//! a scoring worker through the request's
//! [`Completion`](crate::batcher::Completion), the reader itself for INFO,
//! HELLO, error frames and SHUTDOWN_ACK ([`push`](Outbox::push)). The
//! thread whose fill leaves the head slot ready takes the socket out of
//! the outbox and writes every ready frame; holding the socket *is* the
//! writing role. A fill that lands while another thread writes only parks
//! its frame, and the writer looks again before it puts the socket back,
//! so no thread ever waits for another's reply.
//!
//! One drain, from taking the socket to putting it back, has one deadline
//! (the outbox's `patience`): a write call blocks for at most the time
//! left, since a socket's send timeout bounds each call and not their sum.
//! A write that fails or misses the deadline kills the connection: the
//! socket is shut down (the reader then sees EOF and stops admitting),
//! parked frames are dropped, and later fills return at once without
//! writing.

use crate::batcher::Scored;
use crate::wire::{self, Response};
use crate::ServeError;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Where an outbox writes: the connection's socket (or a stub in tests).
pub(crate) trait Peer: Write + Send {
    /// Bounds how long each later `write` call may block.
    fn set_write_timeout(&mut self, timeout: Duration) -> io::Result<()>;

    /// Shuts the connection down after a failed write.
    fn hang_up(&mut self);
}

impl Peer for TcpStream {
    fn set_write_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        TcpStream::set_write_timeout(self, Some(timeout))
    }

    fn hang_up(&mut self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

/// One connection's replies, held until they can leave in request order.
pub(crate) struct Outbox {
    state: Mutex<State>,
    /// How long one drain may take before the connection is dead; also
    /// the peer's standing per-call write timeout.
    patience: Duration,
}

struct State {
    /// Sequence number of `slots[0]`, the oldest unwritten reply.
    head: u64,
    /// One entry per reserved reply from `head` on; `None` until filled.
    slots: VecDeque<Option<Vec<u8>>>,
    /// The socket: `None` while a thread writes to it, and for good once
    /// the connection is dead.
    peer: Option<Box<dyn Peer>>,
    /// A write failed: fills are dropped.
    dead: bool,
}

impl Outbox {
    /// An outbox writing to `peer`, whose drains each get `patience`.
    pub(crate) fn new(mut peer: Box<dyn Peer>, patience: Duration) -> io::Result<Outbox> {
        peer.set_write_timeout(patience)?;
        Ok(Outbox {
            state: Mutex::new(State {
                head: 0,
                slots: VecDeque::new(),
                peer: Some(peer),
                dead: false,
            }),
            patience,
        })
    }

    /// Every critical section leaves the state consistent, so a poisoned
    /// lock is still safe to use.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Reserves the next reply slot, in request order.
    pub(crate) fn reserve(&self) -> u64 {
        let mut st = self.lock();
        let seq = st.head + st.slots.len() as u64;
        if !st.dead {
            st.slots.push_back(None);
        }
        seq
    }

    /// Reserves the next slot and fills it with `response` at once.
    pub(crate) fn push(&self, response: &Response) {
        let seq = self.reserve();
        self.fill(seq, wire::frame(|buf| response.encode_into(buf)));
    }

    /// Fills reserved slot `seq` with a whole frame; if that leaves the
    /// head ready and no thread is writing, writes every ready frame.
    pub(crate) fn fill(&self, seq: u64, frame: Vec<u8>) {
        let mut st = self.lock();
        if st.dead {
            return;
        }
        let at = (seq - st.head) as usize;
        st.slots[at] = Some(frame);
        if at != 0 {
            return;
        }
        let Some(mut peer) = st.peer.take() else {
            // Another thread is writing and takes this frame next.
            return;
        };
        let deadline = Instant::now() + self.patience;
        let mut calls = 0;
        loop {
            let mut buf = Vec::new();
            while let Some(Some(_)) = st.slots.front() {
                let frame = st.slots.pop_front().flatten().expect("a ready slot");
                st.head += 1;
                if buf.is_empty() {
                    buf = frame;
                } else {
                    buf.extend_from_slice(&frame);
                }
            }
            if buf.is_empty() {
                // A second call lowered the standing timeout: restore it.
                if calls > 1 && peer.set_write_timeout(self.patience).is_err() {
                    break;
                }
                st.peer = Some(peer);
                return;
            }
            drop(st);
            let written = write_by(&mut *peer, &buf, deadline, &mut calls);
            st = self.lock();
            if written.is_err() {
                break;
            }
        }
        peer.hang_up();
        st.dead = true;
        st.slots.clear();
    }
}

/// Writes all of `bytes` by `deadline`, counting write calls in `calls`
/// across the drain. The drain's first call runs under the peer's
/// standing timeout, which is the whole patience; every later call first
/// lowers it to the time left.
fn write_by(
    peer: &mut dyn Peer,
    mut bytes: &[u8],
    deadline: Instant,
    calls: &mut u32,
) -> io::Result<()> {
    while !bytes.is_empty() {
        if *calls > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::ErrorKind::TimedOut.into());
            }
            peer.set_write_timeout(left)?;
        }
        *calls += 1;
        match peer.write(bytes) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The frame answering request `id` with `outcome`.
pub(crate) fn reply_frame(id: u64, outcome: Result<Scored<'_>, ServeError>) -> Vec<u8> {
    wire::frame(|buf| match outcome {
        Ok(s) => wire::encode_score(buf, s.id, s.epoch, s.predicted as u32, s.scores),
        Err(e) => Response::Error { id, code: e.code() }.encode_into(buf),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::Completion;
    use std::io;
    use std::sync::Arc;

    /// How long a stub outbox's drains may take.
    const PATIENCE: Duration = Duration::from_secs(1);

    /// Records each `write` call and timeout; fails every call once told
    /// to, and can take a few bytes a call, slowly.
    #[derive(Clone, Default)]
    struct Stub(Arc<Mutex<StubLog>>);

    #[derive(Default)]
    struct StubLog {
        writes: Vec<Vec<u8>>,
        attempts: usize,
        timeouts: Vec<Duration>,
        fail: bool,
        /// Takes at most this many bytes per call, after this long.
        trickle: Option<(usize, Duration)>,
        hung_up: bool,
    }

    impl Write for Stub {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            let mut log = self.0.lock().unwrap();
            log.attempts += 1;
            if log.fail {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "peer stopped reading",
                ));
            }
            let mut n = bytes.len();
            if let Some((most, delay)) = log.trickle {
                std::thread::sleep(delay);
                n = n.min(most);
            }
            log.writes.push(bytes[..n].to_vec());
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Peer for Stub {
        fn set_write_timeout(&mut self, timeout: Duration) -> io::Result<()> {
            self.0.lock().unwrap().timeouts.push(timeout);
            Ok(())
        }

        fn hang_up(&mut self) {
            self.0.lock().unwrap().hung_up = true;
        }
    }

    fn outbox_with(patience: Duration) -> (Arc<Outbox>, Stub) {
        let stub = Stub::default();
        let out = Outbox::new(Box::new(stub.clone()), patience).unwrap();
        (Arc::new(out), stub)
    }

    fn outbox() -> (Arc<Outbox>, Stub) {
        outbox_with(PATIENCE)
    }

    fn info(epoch: u64) -> Vec<u8> {
        let response = Response::Info {
            epoch,
            outputs: 3,
            symbols: 16,
        };
        wire::frame(|buf| response.encode_into(buf))
    }

    fn writes(stub: &Stub) -> Vec<Vec<u8>> {
        stub.0.lock().unwrap().writes.clone()
    }

    /// Every frame written so far, decoded in stream order.
    fn replies(stub: &Stub) -> Vec<Response> {
        let bytes = writes(stub).concat();
        let mut r = &bytes[..];
        let mut out = Vec::new();
        while let Some(payload) = wire::read_frame(&mut r).unwrap() {
            out.push(Response::decode(&payload).unwrap());
        }
        out
    }

    #[test]
    fn slots_filled_out_of_order_are_written_in_request_order() {
        // 2, 1, 0: nothing is ready until the head fills, then all three
        // leave in one write.
        let (out, stub) = outbox();
        let seqs: Vec<u64> = (0..3).map(|_| out.reserve()).collect();
        assert_eq!(seqs, [0, 1, 2]);
        out.fill(2, info(2));
        out.fill(1, info(1));
        assert!(writes(&stub).is_empty(), "nothing leaves before the head");
        out.fill(0, info(0));
        assert_eq!(writes(&stub), [[info(0), info(1), info(2)].concat()]);

        // 2, 0, 1: the head leaves on its own, then 1 and 2 in one write.
        let (out, stub) = outbox();
        for _ in 0..3 {
            out.reserve();
        }
        out.fill(2, info(2));
        out.fill(0, info(0));
        out.fill(1, info(1));
        assert_eq!(writes(&stub), [info(0), [info(1), info(2)].concat()]);
    }

    #[test]
    fn a_completion_dropped_unresolved_answers_disconnected_in_its_own_slot() {
        let (out, stub) = outbox();
        let first = out.reserve();
        let dropped = Completion::slot(out.clone(), out.reserve(), 41);
        let last = out.reserve();
        out.fill(last, info(2));
        drop(dropped);
        out.fill(first, info(0));
        assert_eq!(
            replies(&stub),
            [
                Response::decode(&info(0)[4..]).unwrap(),
                Response::Error {
                    id: 41,
                    code: ServeError::Disconnected.code(),
                },
                Response::decode(&info(2)[4..]).unwrap(),
            ]
        );
    }

    #[test]
    fn a_failed_write_kills_the_connection_and_later_fills_return_at_once() {
        let (out, stub) = outbox();
        stub.0.lock().unwrap().fail = true;
        out.push(&Response::ShutdownAck);
        {
            let log = stub.0.lock().unwrap();
            assert_eq!(log.attempts, 1);
            assert!(log.hung_up, "a failed write shuts the connection down");
        }
        // Later replies, ready or not, are dropped without a write.
        let pending = out.reserve();
        out.push(&Response::ShutdownAck);
        out.fill(pending, info(0));
        Completion::slot(out.clone(), out.reserve(), 7).resolve(Err(ServeError::Expired));
        assert_eq!(stub.0.lock().unwrap().attempts, 1);
        assert!(writes(&stub).is_empty());
    }

    #[test]
    fn a_drain_has_one_deadline_across_its_write_calls() {
        // A peer that takes 5 bytes a call: every call after the first
        // runs under the time left, and the drain restores the standing
        // timeout when it is done.
        let (out, stub) = outbox();
        stub.0.lock().unwrap().trickle = Some((5, Duration::ZERO));
        out.push(&Response::Info {
            epoch: 0,
            outputs: 3,
            symbols: 16,
        });
        {
            let log = stub.0.lock().unwrap();
            assert_eq!(log.writes.concat(), info(0));
            assert!(log.attempts > 2);
            let (first, rest) = log.timeouts.split_first().unwrap();
            let (last, lowered) = rest.split_last().unwrap();
            assert_eq!((*first, *last), (PATIENCE, PATIENCE));
            assert_eq!(lowered.len(), log.attempts - 1);
            assert!(lowered.iter().all(|t| *t < PATIENCE));
            assert!(!log.hung_up);
        }

        // A peer that reads a byte every 10 ms: each call finishes well
        // inside any per-call timeout, but the drain misses its 50 ms
        // deadline long before the frame is out, and the connection dies.
        let (out, stub) = outbox_with(Duration::from_millis(50));
        stub.0.lock().unwrap().trickle = Some((1, Duration::from_millis(10)));
        out.push(&Response::Info {
            epoch: 0,
            outputs: 3,
            symbols: 16,
        });
        let written = {
            let log = stub.0.lock().unwrap();
            assert!(log.hung_up, "a drain past its deadline hangs up");
            log.writes.concat().len()
        };
        assert!(written < info(0).len(), "cut off mid-frame, not drained");
        out.push(&Response::ShutdownAck);
        assert_eq!(stub.0.lock().unwrap().writes.concat().len(), written);
    }
}
