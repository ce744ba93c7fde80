//! `metaai-serve` — a long-running over-the-air inference service on top
//! of [`metaai::engine::OtaEngine`].
//!
//! Everything in the workspace up to this crate is offline: you hand it
//! a full batch. An edge deployment sees the opposite shape — a stream of
//! independent single-sample requests from many devices — so the
//! questions are how to score each one with as little added delay as
//! possible, and how to survive overload. This crate answers with four
//! cooperating pieces, all built on `std::thread` + `std::sync` (the
//! workspace has no async runtime):
//!
//! * **Work-conserving dispatch** ([`batcher`]): a bounded submission
//!   queue feeds scoring workers; an idle worker takes whatever is queued
//!   (up to `max_batch`) at once and sleeps only while the queue is
//!   empty. Workers score every request on its own, so a batch saves one
//!   lock and one wake-up, never a wait: batches grow only when requests
//!   queue up behind busy workers.
//! * **Deterministic scoring** ([`server`]): each request carries a
//!   `sample_index`; workers score it through
//!   [`MetaAiSystem::score_indexed`](metaai::pipeline::MetaAiSystem::score_indexed),
//!   so a served sample is bitwise identical to the same index of an
//!   offline batch run — independent of batching boundaries and worker
//!   count.
//! * **Hot-swap deployments** ([`deploy`]): the active
//!   [`MetaAiSystem`](metaai::pipeline::MetaAiSystem) sits behind an
//!   epoch-versioned `Arc` swap per model; [`ModelEntry::swap`] (on
//!   `server.registry().entry(name)` or `.default_entry()`) replaces
//!   weights between batches with zero downtime, and in-flight requests
//!   finish on the epoch they started on.
//! * **Backpressure** ([`OverflowPolicy`]): a full queue either blocks
//!   the submitter or sheds with [`ServeError::Overloaded`]; per-request
//!   deadlines drop expired work before it wastes a worker; shutdown
//!   drains every admitted request before the workers exit.
//!
//! A length-prefixed TCP front-end ([`tcp`], wire format in [`wire`])
//! exposes the service over `std::net`, one thread per connection: its
//! reader submits each request with the request's reply slot as its
//! completion, and the scoring worker that fills the oldest open slot
//! writes the ready replies, in request order, itself. The CLI wires it
//! up as `metaai serve`. Its synchronous client, [`tcp::TcpClient`], scores
//! through one call, [`TcpClient::score`](tcp::TcpClient::score), given
//! a [`tcp::Target`] (default model or a wire id) and an optional
//! [`tcp::RetryPolicy`]; `crates/bench`'s `loadgen` bin drives it with
//! closed-loop load. Telemetry flows through `metaai-telemetry` under
//! `metaai.serve.*` (see [`register_metrics`]).

pub mod batcher;
pub mod deploy;
mod metrics;
mod outbox;
pub mod server;
pub mod tcp;
pub mod wire;

pub use batcher::{BatchQueue, ScoreRequest, ScoreResponse, Ticket};
pub use deploy::{DeploymentRegistry, ModelEntry, ServeDeployment};
pub use metrics::register_metrics;
pub use server::{Client, Server, ServerBuilder, DEFAULT_MODEL};

use std::time::Duration;

/// What to do with a new request when the submission queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Block the submitter until a worker frees queue space (applies
    /// backpressure to the caller; a TCP front-end thread blocking here
    /// stalls that connection, which is the point).
    Block,
    /// Reject immediately with [`ServeError::Overloaded`] (sheds load so
    /// admitted requests keep their latency).
    Shed,
}

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The most requests one worker takes from the queue at once.
    pub max_batch: usize,
    /// Ignored: workers take queued requests at once and never wait for
    /// a fuller batch. The field remains only so that struct literals
    /// outside this workspace keep compiling; it will be removed.
    pub max_delay: Duration,
    /// Bounded submission-queue capacity (the backpressure threshold).
    pub queue_capacity: usize,
    /// Number of scoring worker threads.
    pub workers: usize,
    /// Full-queue behaviour.
    pub policy: OverflowPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 64,
            max_delay: Duration::ZERO,
            queue_capacity: 1024,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            policy: OverflowPolicy::Shed,
        }
    }
}

/// Why a request did not produce scores.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The submission queue was full under the shed policy.
    Overloaded,
    /// The request's deadline passed before a worker reached it.
    Expired,
    /// The service is draining and no longer admits requests.
    ShuttingDown,
    /// The request was malformed (e.g. input length ≠ deployed symbols).
    BadRequest(String),
    /// The worker pool died before replying (a bug, not an overload).
    Disconnected,
    /// A worker panicked while the request's batch was in flight; the
    /// worker was restarted and the request may be retried (scoring is
    /// deterministic per `sample_index`, so a retry is idempotent).
    WorkerPanicked,
    /// The request named a model id the registry does not hold. The
    /// connection stays open — other models keep scoring.
    UnknownModel,
    /// The peer speaks a protocol version this side does not; negotiated
    /// at the v2 handshake (see [`wire`]). Connection-level and fatal.
    UnsupportedVersion,
    /// A hot swap offered a system whose output/symbol shape differs from
    /// the shape the entry advertised in its HELLO model table. Accepting
    /// it would silently invalidate every v2 client's cached metadata, so
    /// the swap is refused and the old deployment keeps serving.
    ShapeMismatch(String),
}

impl ServeError {
    /// Stable wire code for this error (see [`wire`]).
    pub fn code(&self) -> u8 {
        match self {
            ServeError::Overloaded => 1,
            ServeError::Expired => 2,
            ServeError::ShuttingDown => 3,
            ServeError::BadRequest(_) => 4,
            ServeError::Disconnected => 5,
            ServeError::WorkerPanicked => 6,
            ServeError::UnknownModel => 7,
            ServeError::UnsupportedVersion => 8,
            ServeError::ShapeMismatch(_) => 9,
        }
    }

    /// Inverse of [`code`](Self::code); unknown codes map to
    /// [`Disconnected`](Self::Disconnected).
    pub fn from_code(code: u8) -> ServeError {
        match code {
            1 => ServeError::Overloaded,
            2 => ServeError::Expired,
            3 => ServeError::ShuttingDown,
            4 => ServeError::BadRequest("rejected by server".to_string()),
            6 => ServeError::WorkerPanicked,
            7 => ServeError::UnknownModel,
            8 => ServeError::UnsupportedVersion,
            9 => ServeError::ShapeMismatch("rejected by server".to_string()),
            _ => ServeError::Disconnected,
        }
    }

    /// Whether resubmitting the identical request may succeed.
    ///
    /// Scoring is deterministic per `sample_index`, so retrying is always
    /// *safe*; this reports whether it is *useful*: transient conditions
    /// ([`Overloaded`](Self::Overloaded), [`Expired`](Self::Expired),
    /// [`WorkerPanicked`](Self::WorkerPanicked)) are retryable, while a
    /// malformed request, a draining service, or a dead pool are not.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ServeError::Overloaded | ServeError::Expired | ServeError::WorkerPanicked
        )
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "submission queue full (shed)"),
            ServeError::Expired => write!(f, "deadline expired before scoring"),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::BadRequest(why) => write!(f, "bad request: {why}"),
            ServeError::Disconnected => write!(f, "worker pool dropped the request"),
            ServeError::WorkerPanicked => {
                write!(f, "a worker panicked mid-batch (restarted; retryable)")
            }
            ServeError::UnknownModel => write!(f, "no such model in the registry"),
            ServeError::UnsupportedVersion => {
                write!(f, "peer speaks an unsupported protocol version")
            }
            ServeError::ShapeMismatch(why) => {
                write!(f, "swap rejected, shape differs from advertised: {why}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_round_trip() {
        for e in [
            ServeError::Overloaded,
            ServeError::Expired,
            ServeError::ShuttingDown,
            ServeError::Disconnected,
            ServeError::WorkerPanicked,
            ServeError::UnknownModel,
            ServeError::UnsupportedVersion,
        ] {
            assert_eq!(ServeError::from_code(e.code()), e);
        }
        // BadRequest and ShapeMismatch keep the code, not the message.
        assert_eq!(
            ServeError::from_code(ServeError::BadRequest("x".into()).code()).code(),
            4
        );
        assert_eq!(
            ServeError::from_code(ServeError::ShapeMismatch("x".into()).code()).code(),
            9
        );
    }

    #[test]
    fn retryability_splits_transient_from_fatal() {
        for e in [
            ServeError::Overloaded,
            ServeError::Expired,
            ServeError::WorkerPanicked,
        ] {
            assert!(e.is_retryable(), "{e} should be retryable");
        }
        for e in [
            ServeError::ShuttingDown,
            ServeError::BadRequest("x".into()),
            ServeError::Disconnected,
            ServeError::UnknownModel,
            ServeError::UnsupportedVersion,
            ServeError::ShapeMismatch("x".into()),
        ] {
            assert!(!e.is_retryable(), "{e} should be fatal");
        }
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = ServeConfig::default();
        assert!(cfg.max_batch >= 1);
        assert!(cfg.queue_capacity >= cfg.max_batch);
        assert!(cfg.workers >= 1);
        assert_eq!(cfg.policy, OverflowPolicy::Shed);
    }
}
