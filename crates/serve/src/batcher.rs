//! The dynamic micro-batcher: a bounded submission queue whose consumers
//! flush batches on **size** (`max_batch` requests queued) or **deadline**
//! (the oldest queued request has waited `max_delay`).
//!
//! There is no separate scheduler thread — the scheduling policy lives in
//! `BatchQueue::next_batch`, which every scoring worker calls in a loop.
//! Whichever worker holds the lock when a flush condition is met takes the
//! batch; the others keep waiting. This keeps the hot path to one mutex +
//! two condvars and lets several batches score concurrently.
//!
//! Replies travel over per-request oneshot channels
//! (`mpsc::sync_channel(1)`): submission returns a [`Ticket`] the caller
//! blocks on, so a thousand in-flight requests cost a thousand parked
//! receivers, not a thousand threads.

use crate::metrics::ModelMetrics;
use crate::{OverflowPolicy, ServeConfig, ServeError};
use metaai_math::CVec;
use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

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

/// A queued request together with its reply channel.
pub(crate) struct Pending {
    pub request: ScoreRequest,
    pub enqueued_at: Instant,
    pub reply: SyncSender<Result<ScoreResponse, ServeError>>,
}

impl Pending {
    /// Sends the reply, ignoring an already-departed caller.
    pub(crate) fn resolve(self, result: Result<ScoreResponse, ServeError>) {
        let _ = self.reply.send(result);
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

    /// Non-blocking check: `None` while the request is still in flight.
    /// Lets a response writer batch up already-resolved replies (one
    /// flush per drained run) and fall back to [`wait`](Self::wait) only
    /// after flushing what it has.
    pub fn try_wait(&self) -> Option<Result<ScoreResponse, ServeError>> {
        match self.rx.try_recv() {
            Ok(outcome) => Some(outcome),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Disconnected)),
        }
    }
}

struct QueueState {
    queue: VecDeque<Pending>,
    shutdown: bool,
}

/// The bounded submission queue + flush policy shared by submitters and
/// scoring workers.
pub struct BatchQueue {
    state: Mutex<QueueState>,
    /// Signalled on push and on shutdown; consumers wait here.
    not_empty: Condvar,
    /// Signalled on flush and on shutdown; blocked submitters wait here.
    not_full: Condvar,
    capacity: usize,
    policy: OverflowPolicy,
    max_batch: usize,
    max_delay: Duration,
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
            max_delay: config.max_delay,
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
        let mut st = self.lock();
        loop {
            if st.shutdown {
                return Err(ServeError::ShuttingDown);
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
                    return Err(ServeError::Overloaded);
                }
                OverflowPolicy::Block => {
                    st = self
                        .not_full
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        st.queue.push_back(Pending {
            request,
            enqueued_at: Instant::now(),
            reply: tx,
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
        Ok(Ticket { rx })
    }

    /// Blocks until a batch is ready and takes it, or returns `None` once
    /// the queue is shut down *and* drained. The flush policy:
    ///
    /// * `queue.len() ≥ max_batch` → flush `max_batch` immediately;
    /// * oldest request older than `max_delay` → flush what is there;
    /// * shutdown → flush remaining requests without waiting (drain).
    pub(crate) fn next_batch(&self) -> Option<Vec<Pending>> {
        let mut st = self.lock();
        loop {
            if st.queue.is_empty() {
                if st.shutdown {
                    return None;
                }
                st = self
                    .not_empty
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            if st.queue.len() >= self.max_batch || st.shutdown {
                break;
            }
            let flush_at = st.queue.front().expect("non-empty").enqueued_at + self.max_delay;
            let now = Instant::now();
            if now >= flush_at {
                break;
            }
            let (guard, _timed_out) = self
                .not_empty
                .wait_timeout(st, flush_at - now)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
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

    /// The configured flush size.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn config(
        max_batch: usize,
        max_delay: Duration,
        cap: usize,
        policy: OverflowPolicy,
    ) -> ServeConfig {
        ServeConfig {
            max_batch,
            max_delay,
            queue_capacity: cap,
            workers: 1,
            policy,
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

    #[test]
    fn flushes_on_size_before_the_deadline() {
        let q = BatchQueue::new(&config(
            3,
            Duration::from_secs(30),
            64,
            OverflowPolicy::Shed,
        ));
        let _tickets: Vec<Ticket> = (0..5).map(|i| q.submit(request(i)).unwrap()).collect();
        let started = Instant::now();
        let batch = q.next_batch().expect("batch");
        // Size trigger: exactly max_batch requests, far before max_delay.
        assert_eq!(batch.len(), 3);
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn flushes_a_partial_batch_at_the_deadline() {
        let q = BatchQueue::new(&config(
            100,
            Duration::from_millis(50),
            64,
            OverflowPolicy::Shed,
        ));
        let _t0 = q.submit(request(0)).unwrap();
        let _t1 = q.submit(request(1)).unwrap();
        let started = Instant::now();
        let batch = q.next_batch().expect("batch");
        let waited = started.elapsed();
        assert_eq!(batch.len(), 2);
        // Deadline trigger: the flush waited for max_delay (generous
        // upper bound for slow machines), not for a full batch.
        assert!(waited >= Duration::from_millis(30), "waited {waited:?}");
        assert!(waited < Duration::from_secs(10), "waited {waited:?}");
    }

    #[test]
    fn shed_policy_rejects_when_full() {
        let q = BatchQueue::new(&config(8, Duration::from_secs(30), 2, OverflowPolicy::Shed));
        let _t0 = q.submit(request(0)).unwrap();
        let _t1 = q.submit(request(1)).unwrap();
        assert_eq!(q.submit(request(2)).unwrap_err(), ServeError::Overloaded);
        // Shedding did not disturb the admitted requests.
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn block_policy_waits_for_a_flush() {
        let q = Arc::new(BatchQueue::new(&config(
            1,
            Duration::from_secs(30),
            1,
            OverflowPolicy::Block,
        )));
        let _t0 = q.submit(request(0)).unwrap();
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                q.next_batch().expect("batch").len()
            })
        };
        let started = Instant::now();
        let _t1 = q.submit(request(1)).expect("unblocked after flush");
        assert!(
            started.elapsed() >= Duration::from_millis(30),
            "submit returned before the queue had space"
        );
        assert_eq!(consumer.join().unwrap(), 1);
    }

    #[test]
    fn shutdown_drains_admitted_requests_then_stops() {
        let q = BatchQueue::new(&config(
            2,
            Duration::from_secs(30),
            64,
            OverflowPolicy::Shed,
        ));
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
        let q = BatchQueue::new(&config(2, Duration::from_secs(30), 8, OverflowPolicy::Shed));
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
        let q = BatchQueue::new(&config(1, Duration::from_secs(30), 4, OverflowPolicy::Shed));
        let ticket = q.submit(request(0)).unwrap();
        let batch = q.next_batch().expect("batch");
        drop(batch);
        assert_eq!(ticket.wait().unwrap_err(), ServeError::Disconnected);
    }
}
