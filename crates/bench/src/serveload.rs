//! The one serve client of the scenario harness and the `loadgen` bin.
//!
//! [`send`] is the request loop: one synchronous [`TcpClient`], one
//! request in flight, each reply handed to a caller's check before the
//! next request goes out. [`verify`] is the check every scenario uses:
//! a reply must equal, bit for bit, offline `score_indexed` scoring on
//! the deployment whose epoch it echoes. `loadgen` runs the same loop
//! with a check that only counts replies. Latency at a fixed offered
//! rate is measured by perfbench (`perfbench/`), not here.

use metaai_math::CVec;
use metaai_serve::tcp::{RetryPolicy, TcpClient};
use metaai_serve::wire::{ModelDescriptor, Request, Response};
use metaai_serve::{ScoreResponse, ServeDeployment, ServeError};
use std::io;
use std::net::ToSocketAddrs;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a request goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// v1 `INFER` frames, scored by the server's default model.
    Default,
    /// v2 `INFER_MODEL` frames for this wire id (from the HELLO table).
    Model(u32),
}

/// What the server answered one request with: a score or an error reply.
pub type Reply = Result<ScoreResponse, ServeError>;

/// Sends each `(sample index, input)` of `requests` to `target` on
/// `client`, one at a time, and hands every reply to `check`. The request
/// id is the sample index. With `retry`, transient failures are retried
/// under that policy ([`TcpClient::score_retry`]); without, the first
/// reply is final.
///
/// Returns the number of replies checked. Stops at the first IO error or
/// the first `Err` from `check`, naming the sample.
pub fn send<I, F>(
    client: &mut TcpClient,
    target: Target,
    requests: I,
    retry: Option<&RetryPolicy>,
    mut check: F,
) -> Result<u64, String>
where
    I: IntoIterator<Item = (u64, CVec)>,
    F: FnMut(u64, &CVec, &Reply) -> Result<(), String>,
{
    let once = RetryPolicy {
        attempts: 1,
        ..RetryPolicy::default()
    };
    let policy = retry.unwrap_or(&once);
    let mut checked = 0u64;
    for (sample, input) in requests {
        let reply = match target {
            Target::Default => client.score_retry(sample, sample, input.as_slice(), policy),
            Target::Model(id) => {
                client.score_model_retry(id, sample, sample, input.as_slice(), policy)
            }
        }
        .map_err(|e| format!("sample {sample}: io error {e}"))?;
        check(sample, &input, &reply)?;
        checked += 1;
    }
    Ok(checked)
}

/// Checks one reply against offline scoring: `reply` must be a score
/// whose `predicted` and every score bit equal `score_indexed` of
/// `input` at `sample` on the deployment in `deployments` with the epoch
/// the reply echoes. An error reply, an epoch not in `deployments` or any
/// differing bit is an `Err` naming the sample and the epoch.
pub fn verify(
    deployments: &[Arc<ServeDeployment>],
    sample: u64,
    input: &CVec,
    reply: &Reply,
) -> Result<(), String> {
    let scored = match reply {
        Ok(scored) => scored,
        Err(e) => {
            let serving = deployments.last().map_or(0, |d| d.epoch);
            return Err(format!(
                "sample {sample}: error reply ({e}) instead of a score on epoch {serving}"
            ));
        }
    };
    let epoch = scored.epoch;
    let dep = deployments
        .iter()
        .find(|d| d.epoch == epoch)
        .ok_or_else(|| format!("sample {sample}: reply echoes unknown epoch {epoch}"))?;
    let mut offline = Vec::new();
    let predicted = dep
        .system
        .score_indexed(input, dep.stream, sample, &mut offline);
    let same_bits = scored.scores.len() == offline.len()
        && scored
            .scores
            .iter()
            .zip(&offline)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if scored.predicted != predicted || !same_bits {
        return Err(format!(
            "sample {sample}: served reply differs from offline scoring on epoch {epoch}"
        ));
    }
    Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use metaai::config::SystemConfig;
    use metaai::pipeline::MetaAiSystem;
    use metaai_math::rng::SimRng;
    use metaai_nn::complex_lnn::ComplexLnn;

    const SYMBOLS: usize = 16;
    const STREAM: u64 = 0x5eed;
    const SAMPLE: u64 = 4_000_007;

    fn deployment(epoch: u64) -> Arc<ServeDeployment> {
        let mut rng = SimRng::seed_from_u64(epoch);
        let net = ComplexLnn::init(3, SYMBOLS, &mut rng);
        let system = MetaAiSystem::builder()
            .config(SystemConfig::paper_default())
            .num_atoms(32)
            .deploy(net);
        Arc::new(ServeDeployment {
            system: Arc::new(system),
            epoch,
            stream: STREAM + epoch,
        })
    }

    /// The reply an honest server sends for `SAMPLE` on `dep`.
    fn honest_reply(dep: &ServeDeployment, input: &CVec) -> ScoreResponse {
        let mut scores = Vec::new();
        let predicted = dep
            .system
            .score_indexed(input, dep.stream, SAMPLE, &mut scores);
        ScoreResponse {
            id: SAMPLE,
            epoch: dep.epoch,
            predicted,
            scores,
        }
    }

    fn setup() -> (Vec<Arc<ServeDeployment>>, CVec, ScoreResponse) {
        let deployments = vec![deployment(1), deployment(2)];
        let input = crate::scenario::chaos_clean_input(SAMPLE, SYMBOLS);
        let reply = honest_reply(&deployments[1], &input);
        (deployments, input, reply)
    }

    fn rejects(deployments: &[Arc<ServeDeployment>], input: &CVec, reply: Reply, epoch: u64) {
        let err = verify(deployments, SAMPLE, input, &reply).expect_err("must reject");
        assert!(err.contains(&format!("sample {SAMPLE}")), "{err}");
        assert!(err.contains(&format!("epoch {epoch}")), "{err}");
    }

    #[test]
    fn verify_accepts_an_honest_reply_on_either_epoch() {
        let (deployments, input, reply) = setup();
        verify(&deployments, SAMPLE, &input, &Ok(reply)).expect("epoch 2");
        let old = honest_reply(&deployments[0], &input);
        verify(&deployments, SAMPLE, &input, &Ok(old)).expect("epoch 1");
    }

    #[test]
    fn verify_rejects_one_flipped_score_bit() {
        let (deployments, input, mut reply) = setup();
        let last = reply.scores.len() - 1;
        reply.scores[last] = f64::from_bits(reply.scores[last].to_bits() ^ 1);
        rejects(&deployments, &input, Ok(reply), 2);
    }

    #[test]
    fn verify_rejects_a_wrong_prediction() {
        let (deployments, input, mut reply) = setup();
        reply.predicted = (reply.predicted + 1) % reply.scores.len();
        rejects(&deployments, &input, Ok(reply), 2);
    }

    #[test]
    fn verify_rejects_an_epoch_not_in_the_list() {
        let (deployments, input, mut reply) = setup();
        reply.epoch = 3;
        rejects(&deployments, &input, Ok(reply), 3);
        // A reply scored on epoch 2 cannot pass against epoch 1 alone.
        let (_, _, reply) = setup();
        rejects(&deployments[..1], &input, Ok(reply), 2);
    }

    #[test]
    fn verify_rejects_an_error_reply() {
        let (deployments, input, _) = setup();
        rejects(&deployments, &input, Err(ServeError::Overloaded), 2);
    }
}
