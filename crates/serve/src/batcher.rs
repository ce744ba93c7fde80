//! The work-conserving micro-batcher: a bounded submission queue whose
//! consumers take whatever is queued — up to `max_batch` requests — the
//! moment they are free, and sleep only while the queue is empty.
//!
//! There is no separate scheduler thread — the scheduling policy lives in
//! `BatchQueue::next_batch`, which every scoring worker calls in a loop.
//! No worker ever waits for a batch to fill: an idle worker takes the one
//! request that just arrived. Batches still grow under load, because the
//! queue builds up while every worker is busy scoring, so `max_batch`
//! caps what one worker pops at once. This keeps the hot path to one
//! mutex + two condvars and lets several batches score concurrently.
//!
//! Every queued request carries one `Completion`, resolved exactly once
//! by the worker that scores (or drops) it: for an in-process caller it
//! is the sending half of a [`Ticket`]'s oneshot, for a TCP request the
//! request's reply slot in its connection's outbox, which the worker fills
//! (and writes, when it is the head) itself. A completion dropped
//! unresolved answers [`ServeError::Disconnected`], so neither a ticket
//! nor a connection ever waits on a request nobody will score. A thousand
//! in-flight requests cost a thousand small records, not a thousand
//! threads.

use crate::metrics::ModelMetrics;
use crate::outbox::{self, Outbox};
use crate::{OverflowPolicy, ServeConfig, ServeError};
use metaai_math::CVec;
use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// One inference to serve.
#[derive(Clone, Debug)]
pub struct ScoreRequest {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Per-sample RNG index: the request scores exactly as position
    /// `sample_index` of an offline batch run (channel realization, sync
    /// residual, and noise draws included).
    pub sample_index: u64,
    /// Transmitted symbol vector (length must match the deployment).
    pub input: CVec,
    /// Drop the request unscored if a worker reaches it after this time.
    pub deadline: Option<Instant>,
}

/// The scored reply.
#[derive(Clone, Debug)]
pub struct ScoreResponse {
    /// Echo of [`ScoreRequest::id`].
    pub id: u64,
    /// Deployment epoch that scored this request.
    pub epoch: u64,
    /// `argmax` of `scores`.
    pub predicted: usize,
    /// Receiver-side class scores.
    pub scores: Vec<f64>,
}

/// A scored reply as a worker delivers it, the scores borrowed from the
/// worker's buffer: a connection's reply slot encodes them straight into
/// its frame, and only a [`Ticket`] copies them into a [`ScoreResponse`].
pub(crate) struct Scored<'a> {
    pub id: u64,
    pub epoch: u64,
    pub predicted: usize,
    pub scores: &'a [f64],
}

/// A queued request together with its completion.
pub(crate) struct Pending {
    pub request: ScoreRequest,
    pub enqueued_at: Instant,
    pub done: Completion,
}

impl Pending {
    /// Delivers the outcome (a departed caller is ignored).
    pub(crate) fn resolve(self, result: Result<Scored<'_>, ServeError>) {
        self.done.resolve(result);
    }
}

/// Where one request's outcome goes. Resolved at most once; dropped
/// unresolved, it answers [`ServeError::Disconnected`].
pub(crate) struct Completion(Option<Sink>);

enum Sink {
    /// The sending half of a [`Ticket`].
    Ticket(SyncSender<Result<ScoreResponse, ServeError>>),
    /// Reply slot `seq` of a connection's outbox, answering request `id`.
    Slot {
        outbox: Arc<Outbox>,
        seq: u64,
        id: u64,
    },
}

impl Completion {
    /// A completion and the [`Ticket`] it resolves.
    pub(crate) fn ticket() -> (Completion, Ticket) {
        let (tx, rx) = mpsc::sync_channel(1);
        (Completion(Some(Sink::Ticket(tx))), Ticket { rx })
    }

    /// A completion that fills reserved slot `seq` of `outbox` with the
    /// reply to request `id`.
    pub(crate) fn slot(outbox: Arc<Outbox>, seq: u64, id: u64) -> Completion {
        Completion(Some(Sink::Slot { outbox, seq, id }))
    }

    /// Delivers the outcome.
    pub(crate) fn resolve(mut self, outcome: Result<Scored<'_>, ServeError>) {
        if let Some(sink) = self.0.take() {
            sink.deliver(outcome);
        }
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if let Some(sink) = self.0.take() {
            sink.deliver(Err(ServeError::Disconnected));
        }
    }
}

impl Sink {
    fn deliver(self, outcome: Result<Scored<'_>, ServeError>) {
        match self {
            Sink::Ticket(tx) => {
                let _ = tx.send(outcome.map(|s| ScoreResponse {
                    id: s.id,
                    epoch: s.epoch,
                    predicted: s.predicted,
                    scores: s.scores.to_vec(),
                }));
            }
            Sink::Slot { outbox, seq, id } => outbox.fill(seq, outbox::reply_frame(id, outcome)),
        }
    }
}

/// Handle to one in-flight request.
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<Result<ScoreResponse, ServeError>>,
}

impl Ticket {
    /// Blocks until the request is scored, dropped, or the pool dies.
    pub fn wait(self) -> Result<ScoreResponse, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Disconnected))
    }
}

struct QueueState {
    queue: VecDeque<Pending>,
    shutdown: bool,
}

/// The bounded submission queue + dispatch policy shared by submitters
/// and scoring workers.
pub struct BatchQueue {
    state: Mutex<QueueState>,
    /// Signalled on push and on shutdown; consumers wait here.
    not_empty: Condvar,
    /// Signalled when a worker takes a batch and on shutdown; blocked
    /// submitters wait here.
    not_full: Condvar,
    capacity: usize,
    policy: OverflowPolicy,
    max_batch: usize,
    /// Per-model instruments, when this queue belongs to a registered
    /// model. The aggregate `metaai.serve.*` instruments are recorded
    /// either way.
    model_metrics: Option<ModelMetrics>,
}

impl BatchQueue {
    /// A queue with the given batching/backpressure parameters.
    pub fn new(config: &ServeConfig) -> Self {
        Self::build(config, None)
    }

    /// A queue that also records the per-model instrument dimension.
    pub(crate) fn with_metrics(config: &ServeConfig, metrics: ModelMetrics) -> Self {
        Self::build(config, Some(metrics))
    }

    fn build(config: &ServeConfig, model_metrics: Option<ModelMetrics>) -> Self {
        assert!(config.max_batch >= 1, "a batch holds at least one request");
        assert!(
            config.queue_capacity >= 1,
            "the queue admits at least one request"
        );
        BatchQueue {
            state: Mutex::new(QueueState {
                queue: VecDeque::with_capacity(config.queue_capacity.min(4096)),
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: config.queue_capacity,
            policy: config.policy,
            max_batch: config.max_batch,
            model_metrics,
        }
    }

    /// Locks the queue state, recovering it if a thread panicked while
    /// holding the lock. Every critical section only pushes, drains, or
    /// sets the shutdown flag, so a poisoned state is still consistent —
    /// and refusing it would take down every worker of this model.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// This queue's per-model instruments, gated on telemetry being
    /// enabled (`None` for plain queues or when telemetry is off).
    #[inline]
    fn model_tele(&self) -> Option<&ModelMetrics> {
        self.model_metrics.as_ref().and_then(ModelMetrics::on)
    }

    /// Admits a request, applying the overflow policy when the queue is
    /// full. Returns the caller's [`Ticket`] on admission.
    pub fn submit(&self, request: ScoreRequest) -> Result<Ticket, ServeError> {
        let (done, ticket) = Completion::ticket();
        self.enqueue(request, done).map_err(|(e, _)| e)?;
        Ok(ticket)
    }

    /// Admits a request that `done` will answer. A refused request hands
    /// `done` back with the reason, for the caller to resolve.
    pub(crate) fn enqueue(
        &self,
        request: ScoreRequest,
        done: Completion,
    ) -> Result<(), (ServeError, Completion)> {
        let mut st = self.lock();
        loop {
            if st.shutdown {
                return Err((ServeError::ShuttingDown, done));
            }
            if st.queue.len() < self.capacity {
                break;
            }
            match self.policy {
                OverflowPolicy::Shed => {
                    if let Some(m) = crate::metrics::tele() {
                        m.shed_total.inc();
                    }
                    if let Some(m) = self.model_tele() {
                        m.shed_total.inc();
                    }
                    return Err((ServeError::Overloaded, done));
                }
                OverflowPolicy::Block => {
                    st = self
                        .not_full
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
        st.queue.push_back(Pending {
            request,
            enqueued_at: Instant::now(),
            done,
        });
        if let Some(m) = crate::metrics::tele() {
            m.requests.inc();
            m.queue_depth.set(st.queue.len() as f64);
        }
        if let Some(m) = self.model_tele() {
            m.requests.inc();
            m.queue_depth.set(st.queue.len() as f64);
        }
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Takes up to `max_batch` queued requests, oldest first, as soon as
    /// any are queued; blocks only while the queue is empty. Returns
    /// `None` once the queue is shut down *and* drained, so shutdown
    /// hands out every admitted request before the workers exit.
    pub(crate) fn next_batch(&self) -> Option<Vec<Pending>> {
        let mut st = self.lock();
        while st.queue.is_empty() {
            if st.shutdown {
                return None;
            }
            st = self
                .not_empty
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let take = st.queue.len().min(self.max_batch);
        let batch: Vec<Pending> = st.queue.drain(..take).collect();
        if let Some(m) = crate::metrics::tele() {
            m.batches.inc();
            m.batch_size.observe(batch.len() as f64);
            m.queue_depth.set(st.queue.len() as f64);
        }
        if let Some(m) = self.model_tele() {
            m.batches.inc();
            m.batch_size.observe(batch.len() as f64);
            m.queue_depth.set(st.queue.len() as f64);
        }
        let more = !st.queue.is_empty();
        drop(st);
        // Submitters blocked on a full queue can proceed; if requests
        // remain, hand them to another waiting worker right away.
        self.not_full.notify_all();
        if more {
            self.not_empty.notify_one();
        }
        Some(batch)
    }

    /// Stops admission and wakes every waiter. Workers drain what is
    /// already queued (`next_batch` keeps returning batches until empty),
    /// then see `None` and exit.
    pub fn shutdown(&self) {
        let mut st = self.lock();
        st.shutdown = true;
        drop(st);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Current queue depth (racy; for monitoring and tests).
    pub fn depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Whether the queue has been shut down.
    pub fn is_shutdown(&self) -> bool {
        self.lock().shutdown
    }

    /// The most requests one worker takes from the queue at once.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// How long a test waits for a batch that should come at once; only
    /// a worker that holds requests back ever reaches it.
    const PATIENCE: Duration = Duration::from_secs(10);

    fn config(max_batch: usize, cap: usize, policy: OverflowPolicy) -> ServeConfig {
        ServeConfig {
            max_batch,
            queue_capacity: cap,
            workers: 1,
            policy,
            ..ServeConfig::default()
        }
    }

    fn request(i: u64) -> ScoreRequest {
        ScoreRequest {
            id: i,
            sample_index: i,
            input: CVec::from_vec(vec![metaai_math::C64 { re: 1.0, im: 0.0 }]),
            deadline: None,
        }
    }

    fn ids(batch: &[Pending]) -> Vec<u64> {
        batch.iter().map(|p| p.request.id).collect()
    }

    #[test]
    fn an_idle_worker_takes_a_lone_request_at_once() {
        // max_batch 64, yet never more than one request queued: nothing
        // else arrives, so a worker that waited for a fuller batch (or a
        // flush deadline) would hold each request. Taking one at once
        // costs microseconds; a wait of even 1 ms per request would add
        // up to the 100 ms bound.
        const LONE: u64 = 100;
        let q = Arc::new(BatchQueue::new(&config(64, 64, OverflowPolicy::Shed)));
        let (tx, rx) = mpsc::channel();
        let worker = {
            let q = q.clone();
            std::thread::spawn(move || {
                let started = Instant::now();
                let taken: Vec<Vec<u64>> = (0..LONE)
                    .map(|i| {
                        let _ticket = q.submit(request(i)).unwrap();
                        ids(&q.next_batch().expect("batch"))
                    })
                    .collect();
                let _ = tx.send((taken, started.elapsed()));
            })
        };
        let outcome = rx.recv_timeout(PATIENCE);
        // Releases a worker that is still holding a request back.
        q.shutdown();
        let (taken, elapsed) = outcome.expect("the worker held a lone request back");
        worker.join().unwrap();
        assert_eq!(taken, (0..LONE).map(|i| vec![i]).collect::<Vec<_>>());
        assert!(elapsed < Duration::from_millis(100), "took {elapsed:?}");
    }

    #[test]
    fn a_sleeping_worker_wakes_for_a_single_submit() {
        let q = Arc::new(BatchQueue::new(&config(64, 64, OverflowPolicy::Shed)));
        let (tx, rx) = mpsc::channel();
        let worker = {
            let q = q.clone();
            std::thread::spawn(move || {
                while let Some(batch) = q.next_batch() {
                    let _ = tx.send(ids(&batch));
                }
            })
        };
        // Each submit lands once the worker has taken the one before,
        // typically while it sleeps on the empty queue.
        let mut taken = Vec::new();
        for i in 0..3 {
            let _ticket = q.submit(request(i)).unwrap();
            taken.push(rx.recv_timeout(PATIENCE));
        }
        q.shutdown();
        worker.join().unwrap();
        assert_eq!(taken, [Ok(vec![0]), Ok(vec![1]), Ok(vec![2])]);
    }

    #[test]
    fn batches_never_exceed_max_batch_and_pop_in_fifo_order() {
        let q = BatchQueue::new(&config(3, 64, OverflowPolicy::Shed));
        let _tickets: Vec<Ticket> = (0..8).map(|i| q.submit(request(i)).unwrap()).collect();
        assert_eq!(ids(&q.next_batch().expect("batch")), [0, 1, 2]);
        assert_eq!(q.depth(), 5);
        assert_eq!(ids(&q.next_batch().expect("batch")), [3, 4, 5]);
        // A partial batch goes out as it is: no worker waits for a third.
        assert_eq!(ids(&q.next_batch().expect("batch")), [6, 7]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn concurrent_submitters_and_two_workers_resolve_every_ticket_once() {
        const SUBMITTERS: u64 = 4;
        const PER_SUBMITTER: u64 = 100;
        const MAX_BATCH: usize = 4;
        // A small blocking queue, so submitters also park on a full
        // queue and wake when a worker takes a batch.
        let q = BatchQueue::new(&config(MAX_BATCH, 8, OverflowPolicy::Block));
        let taken: Vec<Vec<u64>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut seen = Vec::new();
                        while let Some(batch) = q.next_batch() {
                            assert!(!batch.is_empty() && batch.len() <= MAX_BATCH);
                            for pending in batch {
                                seen.push(pending.request.id);
                                let id = pending.request.id;
                                pending.resolve(Ok(Scored {
                                    id,
                                    epoch: 0,
                                    predicted: 0,
                                    scores: &[],
                                }));
                            }
                        }
                        seen
                    })
                })
                .collect();
            let submitters: Vec<_> = (0..SUBMITTERS)
                .map(|k| {
                    let q = &q;
                    s.spawn(move || {
                        let first = k * PER_SUBMITTER;
                        let tickets: Vec<Ticket> = (first..first + PER_SUBMITTER)
                            .map(|i| q.submit(request(i)).expect("admitted"))
                            .collect();
                        for (i, ticket) in (first..).zip(tickets) {
                            assert_eq!(ticket.wait().expect("resolved").id, i);
                        }
                    })
                })
                .collect();
            // Shut down even if a submitter failed, so the workers exit
            // and the failure surfaces instead of a hang.
            let submitted = submitters.into_iter().all(|h| h.join().is_ok());
            q.shutdown();
            assert!(submitted, "a submitter failed");
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        // Each worker saw every submitter's requests in submission order.
        for worker in &taken {
            for k in 0..SUBMITTERS {
                let own: Vec<u64> = worker
                    .iter()
                    .copied()
                    .filter(|id| id / PER_SUBMITTER == k)
                    .collect();
                assert!(own.windows(2).all(|w| w[0] < w[1]), "{own:?}");
            }
        }
        // Every request was taken by exactly one worker, exactly once.
        let mut all: Vec<u64> = taken.concat();
        all.sort_unstable();
        assert_eq!(all, (0..SUBMITTERS * PER_SUBMITTER).collect::<Vec<_>>());
    }

    #[test]
    fn shed_policy_rejects_when_full() {
        let q = BatchQueue::new(&config(8, 2, OverflowPolicy::Shed));
        let _t0 = q.submit(request(0)).unwrap();
        let _t1 = q.submit(request(1)).unwrap();
        assert_eq!(q.submit(request(2)).unwrap_err(), ServeError::Overloaded);
        // Shedding did not disturb the admitted requests.
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn block_policy_waits_for_a_free_slot() {
        let q = BatchQueue::new(&config(1, 1, OverflowPolicy::Block));
        let _t0 = q.submit(request(0)).unwrap();
        std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel();
            let q = &q;
            let submitter = s.spawn(move || {
                let ticket = q.submit(request(1));
                let _ = tx.send(());
                ticket
            });
            // The queue is full and nothing takes from it: the submit
            // cannot have returned.
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(50)),
                Err(mpsc::RecvTimeoutError::Timeout)
            );
            assert_eq!(q.depth(), 1);
            assert_eq!(ids(&q.next_batch().expect("batch")), [0]);
            let _t1 = submitter
                .join()
                .unwrap()
                .expect("admitted once a slot freed");
            assert_eq!(q.depth(), 1);
        });
    }

    #[test]
    fn shutdown_drains_admitted_requests_then_stops() {
        let q = BatchQueue::new(&config(2, 64, OverflowPolicy::Shed));
        let _tickets: Vec<Ticket> = (0..5).map(|i| q.submit(request(i)).unwrap()).collect();
        q.shutdown();
        assert_eq!(q.submit(request(9)).unwrap_err(), ServeError::ShuttingDown);
        // Admitted work keeps flowing out (in order, max_batch at a time)
        // until the queue is empty, then the consumer sees None.
        let mut drained = Vec::new();
        while let Some(batch) = q.next_batch() {
            drained.extend(batch.into_iter().map(|p| p.request.id));
        }
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
        assert!(q.next_batch().is_none());
    }

    #[test]
    fn a_poisoned_queue_lock_keeps_serving() {
        let q = BatchQueue::new(&config(2, 8, OverflowPolicy::Shed));
        let _held = q.submit(request(0)).unwrap();
        std::thread::scope(|s| {
            let panicked = s
                .spawn(|| {
                    let _guard = q.lock();
                    panic!("worker panics while holding the queue lock");
                })
                .join();
            assert!(panicked.is_err());
        });
        assert!(q.state.is_poisoned());
        let _next = q.submit(request(1)).expect("submit after poison");
        assert_eq!(q.depth(), 2);
        let batch = q.next_batch().expect("batch after poison");
        assert_eq!(
            batch.iter().map(|p| p.request.id).collect::<Vec<_>>(),
            [0, 1]
        );
        assert!(!q.is_shutdown());
        q.shutdown();
        assert!(q.is_shutdown());
        assert!(q.next_batch().is_none());
    }

    #[test]
    fn dropping_a_pending_reply_disconnects_the_ticket() {
        let q = BatchQueue::new(&config(1, 4, OverflowPolicy::Shed));
        let ticket = q.submit(request(0)).unwrap();
        let batch = q.next_batch().expect("batch");
        drop(batch);
        assert_eq!(ticket.wait().unwrap_err(), ServeError::Disconnected);
    }
}
