//! The length-prefixed binary wire format of the TCP front-end.
//!
//! Every frame is a little-endian `u32` payload length followed by the
//! payload. Payloads start with a one-byte kind tag; all integers and
//! floats are little-endian, matching the model-file format in
//! `metaai-nn`.
//!
//! Requests:
//!
//! | kind | name        | proto | body |
//! |------|-------------|-------|------|
//! | 0    | INFER       | v1    | `id: u64`, `sample_index: u64`, `deadline_us: u64` (0 = none), `n: u32`, `n × (re: f64, im: f64)` |
//! | 1    | INFO        | v1    | — |
//! | 2    | SHUTDOWN    | v1    | — |
//! | 3    | HELLO       | v2    | `version: u16` |
//! | 4    | INFER_MODEL | v2    | `model: u32`, then the INFER body |
//!
//! Responses:
//!
//! | kind | name         | proto | body |
//! |------|--------------|-------|------|
//! | 0    | SCORE        | v1    | `id: u64`, `epoch: u64`, `predicted: u32`, `n: u32`, `n × f64` |
//! | 1    | ERROR        | v1    | `id: u64`, `code: u8` ([`ServeError::code`]) |
//! | 2    | INFO         | v1    | `epoch: u64`, `outputs: u32`, `symbols: u32` |
//! | 3    | SHUTDOWN_ACK | v1    | — |
//! | 4    | HELLO_ACK    | v2    | `version: u16`, `count: u32`, `count ×` [`ModelDescriptor`] |
//!
//! A deadline travels as a relative budget in microseconds (an `Instant`
//! cannot cross the wire); the server anchors it at decode time, so
//! network transit counts against the budget only after arrival.
//!
//! # Protocol v2 and compatibility
//!
//! Version 2 ([`PROTOCOL_VERSION`]) adds multi-tenancy: a HELLO
//! handshake carrying the client's version, answered by a HELLO_ACK
//! listing every registered model (interned wire id, epoch, shape,
//! name), and a per-request model id on INFER_MODEL frames. Versioning
//! is **per frame kind**, not per session: v1 kinds stay valid on any
//! connection and route to the **default model** (wire id 0), so a PR-4/5
//! client that never sends a HELLO keeps working unchanged. A v2 server
//! answering a HELLO with a version it does not speak replies
//! `ERROR { NO_REQUEST_ID, UnsupportedVersion }` and closes; a v2
//! *client* greeting a v1-only server gets `ERROR { BadRequest }` back
//! (v1 rejects unknown kinds), which the client maps to
//! [`ServeError::UnsupportedVersion`] — never a hang or a garbage
//! decode. An INFER_MODEL naming an unregistered id fails that request
//! with [`ServeError::UnknownModel`]; the connection stays open.
//!
//! # The "no id" sentinel
//!
//! `u64::MAX` ([`NO_REQUEST_ID`]) is reserved: it is never a valid
//! client-supplied request id. An ERROR response carrying it refers to
//! the connection rather than to any particular request — the server
//! uses it when a frame is too corrupt for its id bytes to be trusted,
//! and when refusing a connection accepted after shutdown began.
//! [`Request::encode`] panics on an INFER with the sentinel id, and the
//! server rejects one at decode time with `BadRequest`, so the sentinel
//! can never collide with a real in-flight request.

use crate::ServeError;
use metaai_math::{CVec, C64};
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Frames larger than this are rejected as corrupt rather than allocated.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// The protocol version this build speaks (and the highest HELLO version
/// it accepts).
pub const PROTOCOL_VERSION: u16 = 2;

/// Reserved request id meaning "no particular request" (see the module
/// docs): used in ERROR responses about corrupt frames and post-shutdown
/// connections, and rejected as a client-supplied INFER id.
pub const NO_REQUEST_ID: u64 = u64::MAX;

/// One registered model as advertised in a HELLO_ACK.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelDescriptor {
    /// Interned wire id, carried by INFER_MODEL frames.
    pub id: u32,
    /// The model's active deployment epoch at handshake time.
    pub epoch: u64,
    /// Number of output classes.
    pub outputs: u32,
    /// Symbols per transmission (inputs must match).
    pub symbols: u32,
    /// The registry key (UTF-8, at most `u16::MAX` bytes).
    pub name: String,
}

/// A decoded client→server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Score one sample on the default model (v1).
    Infer {
        /// Correlation id, echoed in the response.
        id: u64,
        /// Deterministic per-sample RNG index.
        sample_index: u64,
        /// Scoring budget; 0 means no deadline.
        deadline_us: u64,
        /// Transmitted symbols.
        input: Vec<C64>,
    },
    /// Ask for the default model's deployment shape (v1).
    Info,
    /// Drain the service and close.
    Shutdown,
    /// v2 handshake: announce the client's protocol version; the server
    /// answers with a HELLO_ACK (its version + the model table) or an
    /// `UnsupportedVersion` error.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u16,
    },
    /// Score one sample on a named model (v2).
    InferModel {
        /// Interned wire id from the HELLO_ACK model table.
        model: u32,
        /// Correlation id, echoed in the response.
        id: u64,
        /// Deterministic per-sample RNG index.
        sample_index: u64,
        /// Scoring budget; 0 means no deadline.
        deadline_us: u64,
        /// Transmitted symbols.
        input: Vec<C64>,
    },
}

/// A decoded server→client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Scores for one request.
    Score {
        /// Echo of the request id.
        id: u64,
        /// Deployment epoch that scored it.
        epoch: u64,
        /// Argmax of `scores`.
        predicted: u32,
        /// Per-class scores.
        scores: Vec<f64>,
    },
    /// The request failed; `code` maps through [`ServeError::from_code`].
    Error {
        /// Echo of the request id.
        id: u64,
        /// Stable error code.
        code: u8,
    },
    /// Deployment shape.
    Info {
        /// Active deployment epoch.
        epoch: u64,
        /// Number of output classes.
        outputs: u32,
        /// Symbols per transmission.
        symbols: u32,
    },
    /// Drain finished; the connection closes after this frame.
    ShutdownAck,
    /// v2 handshake reply: the server's version plus every registered
    /// model, in wire-id order.
    HelloAck {
        /// The server's [`PROTOCOL_VERSION`].
        version: u16,
        /// The model table (wire-id order; ids are dense from 0).
        models: Vec<ModelDescriptor>,
    },
}

impl Request {
    /// Serializes into a frame payload (no length prefix).
    ///
    /// # Panics
    ///
    /// If an `Infer` carries the reserved [`NO_REQUEST_ID`] — the
    /// sentinel is caught where the bug is (the encoding client), not
    /// after a network round trip.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Infer {
                id,
                sample_index,
                deadline_us,
                input,
            } => encode_infer(&mut buf, None, *id, *sample_index, *deadline_us, input),
            Request::Info => buf.push(1),
            Request::Shutdown => buf.push(2),
            Request::Hello { version } => {
                buf.push(3);
                buf.extend_from_slice(&version.to_le_bytes());
            }
            Request::InferModel {
                model,
                id,
                sample_index,
                deadline_us,
                input,
            } => encode_infer(
                &mut buf,
                Some(*model),
                *id,
                *sample_index,
                *deadline_us,
                input,
            ),
        }
        buf
    }

    /// Parses a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request, ServeError> {
        let mut r = Cursor::new(payload);
        let request = match r.u8()? {
            0 => {
                let id = r.u64()?;
                if id == NO_REQUEST_ID {
                    return Err(ServeError::BadRequest(
                        "request id u64::MAX is reserved".into(),
                    ));
                }
                let sample_index = r.u64()?;
                let deadline_us = r.u64()?;
                let n = r.u32()? as usize;
                if payload.len() < 29 + 16 * n {
                    return Err(ServeError::BadRequest("truncated INFER frame".into()));
                }
                // One bounds check for the whole symbol block, then a
                // fixed-stride walk — this parse is on the serving hot
                // path for every request.
                let block = r.take(16 * n)?;
                let mut input = Vec::with_capacity(n);
                input.extend(block.chunks_exact(16).map(|c| C64 {
                    re: f64::from_le_bytes(c[..8].try_into().unwrap()),
                    im: f64::from_le_bytes(c[8..].try_into().unwrap()),
                }));
                Request::Infer {
                    id,
                    sample_index,
                    deadline_us,
                    input,
                }
            }
            1 => Request::Info,
            2 => Request::Shutdown,
            3 => Request::Hello { version: r.u16()? },
            4 => {
                let model = r.u32()?;
                let id = r.u64()?;
                if id == NO_REQUEST_ID {
                    return Err(ServeError::BadRequest(
                        "request id u64::MAX is reserved".into(),
                    ));
                }
                let sample_index = r.u64()?;
                let deadline_us = r.u64()?;
                let n = r.u32()? as usize;
                if payload.len() < 33 + 16 * n {
                    return Err(ServeError::BadRequest("truncated INFER frame".into()));
                }
                let block = r.take(16 * n)?;
                let mut input = Vec::with_capacity(n);
                input.extend(block.chunks_exact(16).map(|c| C64 {
                    re: f64::from_le_bytes(c[..8].try_into().unwrap()),
                    im: f64::from_le_bytes(c[8..].try_into().unwrap()),
                }));
                Request::InferModel {
                    model,
                    id,
                    sample_index,
                    deadline_us,
                    input,
                }
            }
            kind => {
                return Err(ServeError::BadRequest(format!(
                    "unknown request kind {kind}"
                )))
            }
        };
        r.finish()?;
        Ok(request)
    }

    /// Rewrites the id and sample-index fields of an encoded INFER (v1,
    /// kind 0) or INFER_MODEL (v2, kind 4) payload in place. Load
    /// generators pre-encode one payload per distinct (model, input) pair
    /// and restamp it per send, instead of re-serializing the (much
    /// larger) symbol vector every time.
    pub fn restamp_infer(payload: &mut [u8], id: u64, sample_index: u64) {
        // The id field starts right after the kind byte (v1) or after the
        // kind byte + u32 model id (v2); sample_index follows the id.
        let at = match payload.first() {
            Some(&0) => 1,
            Some(&4) => 5,
            _ => panic!("not an INFER payload"),
        };
        assert_ne!(
            id, NO_REQUEST_ID,
            "request id u64::MAX is reserved (NO_REQUEST_ID)"
        );
        payload[at..at + 8].copy_from_slice(&id.to_le_bytes());
        payload[at + 8..at + 16].copy_from_slice(&sample_index.to_le_bytes());
    }

    /// The queue-side view of an `Infer`/`InferModel` request: owned
    /// input vector and the relative deadline anchored at `now`. The
    /// model id is routing information, resolved *before* this
    /// conversion — [`crate::ScoreRequest`] is already model-scoped by
    /// which queue it is submitted to.
    pub fn into_score_request(self) -> Option<crate::ScoreRequest> {
        let (id, sample_index, deadline_us, input) = match self {
            Request::Infer {
                id,
                sample_index,
                deadline_us,
                input,
            }
            | Request::InferModel {
                id,
                sample_index,
                deadline_us,
                input,
                ..
            } => (id, sample_index, deadline_us, input),
            _ => return None,
        };
        Some(crate::ScoreRequest {
            id,
            sample_index,
            input: CVec::from_vec(input),
            deadline: (deadline_us > 0)
                .then(|| Instant::now() + Duration::from_micros(deadline_us)),
        })
    }
}

impl Response {
    /// Serializes into a frame payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the frame payload (no length prefix) to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Score {
                id,
                epoch,
                predicted,
                scores,
            } => encode_score(buf, *id, *epoch, *predicted, scores),
            Response::Error { id, code } => {
                buf.push(1);
                buf.extend_from_slice(&id.to_le_bytes());
                buf.push(*code);
            }
            Response::Info {
                epoch,
                outputs,
                symbols,
            } => {
                buf.push(2);
                buf.extend_from_slice(&epoch.to_le_bytes());
                buf.extend_from_slice(&outputs.to_le_bytes());
                buf.extend_from_slice(&symbols.to_le_bytes());
            }
            Response::ShutdownAck => buf.push(3),
            Response::HelloAck { version, models } => {
                buf.push(4);
                buf.extend_from_slice(&version.to_le_bytes());
                buf.extend_from_slice(&(models.len() as u32).to_le_bytes());
                for m in models {
                    assert!(
                        m.name.len() <= u16::MAX as usize,
                        "model name exceeds the u16 wire length"
                    );
                    buf.extend_from_slice(&m.id.to_le_bytes());
                    buf.extend_from_slice(&m.epoch.to_le_bytes());
                    buf.extend_from_slice(&m.outputs.to_le_bytes());
                    buf.extend_from_slice(&m.symbols.to_le_bytes());
                    buf.extend_from_slice(&(m.name.len() as u16).to_le_bytes());
                    buf.extend_from_slice(m.name.as_bytes());
                }
            }
        }
    }

    /// Parses a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, ServeError> {
        let mut r = Cursor::new(payload);
        let response = match r.u8()? {
            0 => {
                let id = r.u64()?;
                let epoch = r.u64()?;
                let predicted = r.u32()?;
                let n = r.u32()? as usize;
                if payload.len() < 25 + 8 * n {
                    return Err(ServeError::BadRequest("truncated SCORE frame".into()));
                }
                let mut scores = Vec::with_capacity(n);
                for _ in 0..n {
                    scores.push(r.f64()?);
                }
                Response::Score {
                    id,
                    epoch,
                    predicted,
                    scores,
                }
            }
            1 => Response::Error {
                id: r.u64()?,
                code: r.u8()?,
            },
            2 => Response::Info {
                epoch: r.u64()?,
                outputs: r.u32()?,
                symbols: r.u32()?,
            },
            3 => Response::ShutdownAck,
            4 => {
                let version = r.u16()?;
                let count = r.u32()? as usize;
                // Each descriptor is at least 22 bytes; bound the count by
                // what the payload can actually hold before reserving.
                if payload.len() < 7 + 22 * count {
                    return Err(ServeError::BadRequest("truncated HELLO_ACK frame".into()));
                }
                let mut models = Vec::with_capacity(count);
                for _ in 0..count {
                    let id = r.u32()?;
                    let epoch = r.u64()?;
                    let outputs = r.u32()?;
                    let symbols = r.u32()?;
                    let name_len = r.u16()? as usize;
                    let name = std::str::from_utf8(r.take(name_len)?)
                        .map_err(|_| ServeError::BadRequest("model name is not UTF-8".into()))?
                        .to_string();
                    models.push(ModelDescriptor {
                        id,
                        epoch,
                        outputs,
                        symbols,
                        name,
                    });
                }
                Response::HelloAck { version, models }
            }
            kind => {
                return Err(ServeError::BadRequest(format!(
                    "unknown response kind {kind}"
                )))
            }
        };
        r.finish()?;
        Ok(response)
    }
}

/// Appends an INFER payload (v1 for `model: None`, v2 INFER_MODEL for
/// `Some(wire id)`) encoded straight from a borrowed symbol slice, with
/// its exact size reserved first. [`Request::encode`] encodes both kinds
/// through it, so a caller holding only `&[C64]` sends the same bytes
/// without building a [`Request`].
///
/// # Panics
///
/// If `id` is the reserved [`NO_REQUEST_ID`].
pub fn encode_infer(
    buf: &mut Vec<u8>,
    model: Option<u32>,
    id: u64,
    sample_index: u64,
    deadline_us: u64,
    input: &[C64],
) {
    assert_ne!(
        id, NO_REQUEST_ID,
        "request id u64::MAX is reserved (NO_REQUEST_ID)"
    );
    buf.reserve(29 + if model.is_some() { 4 } else { 0 } + 16 * input.len());
    match model {
        None => buf.push(0),
        Some(model) => {
            buf.push(4);
            buf.extend_from_slice(&model.to_le_bytes());
        }
    }
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(&sample_index.to_le_bytes());
    buf.extend_from_slice(&deadline_us.to_le_bytes());
    buf.extend_from_slice(&(input.len() as u32).to_le_bytes());
    for z in input {
        buf.extend_from_slice(&z.re.to_le_bytes());
        buf.extend_from_slice(&z.im.to_le_bytes());
    }
}

/// Appends a SCORE payload encoded straight from a borrowed score slice,
/// with its exact size reserved first. [`Response::encode_into`] encodes
/// `Score` through it, so a worker replying from its own score buffer
/// sends the same bytes without building a [`Response`].
pub fn encode_score(buf: &mut Vec<u8>, id: u64, epoch: u64, predicted: u32, scores: &[f64]) {
    buf.reserve(25 + 8 * scores.len());
    buf.push(0);
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(&predicted.to_le_bytes());
    buf.extend_from_slice(&(scores.len() as u32).to_le_bytes());
    for s in scores {
        buf.extend_from_slice(&s.to_le_bytes());
    }
}

/// One whole frame in one buffer: the length prefix, then the payload
/// `encode` appends — the bytes [`write_frame`] sends for that payload,
/// ready for a single `write_all`.
pub fn frame(encode: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut buf = vec![0; 4];
    encode(&mut buf);
    let len = (buf.len() - 4) as u32;
    buf[..4].copy_from_slice(&len.to_le_bytes());
    buf
}

/// Writes one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_BYTES);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one length-prefixed frame. `Ok(None)` means the peer closed the
/// connection cleanly at a frame boundary.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    // `take` + `read_to_end` fills without the `vec![0; len]` pre-zeroing
    // pass (frames run to tens of KiB on the request path).
    let mut payload = Vec::with_capacity(len);
    r.by_ref().take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-frame",
        ));
    }
    Ok(Some(payload))
}

/// Little-endian payload reader with strict end-of-payload checking.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(rest: &'a [u8]) -> Self {
        Cursor { rest }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        if self.rest.len() < n {
            return Err(ServeError::BadRequest("truncated frame".into()));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, ServeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ServeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ServeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ServeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ServeError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn finish(self) -> Result<(), ServeError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(ServeError::BadRequest(format!(
                "{} trailing bytes after frame",
                self.rest.len()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            Request::Infer {
                id: 7,
                sample_index: 42,
                deadline_us: 1500,
                input: vec![C64 { re: 0.5, im: -1.25 }, C64 { re: -2.0, im: 0.0 }],
            },
            Request::Info,
            Request::Shutdown,
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::InferModel {
                model: 3,
                id: 7,
                sample_index: 42,
                deadline_us: 1500,
                input: vec![C64 { re: 0.5, im: -1.25 }, C64 { re: -2.0, im: 0.0 }],
            },
        ];
        for req in cases {
            let decoded = Request::decode(&req.encode()).expect("decode");
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Score {
                id: 9,
                epoch: 3,
                predicted: 1,
                scores: vec![0.25, 0.5, -0.75],
            },
            Response::Error { id: 9, code: 2 },
            Response::Info {
                epoch: 1,
                outputs: 3,
                symbols: 256,
            },
            Response::ShutdownAck,
            Response::HelloAck {
                version: PROTOCOL_VERSION,
                models: vec![
                    ModelDescriptor {
                        id: 0,
                        epoch: 1,
                        outputs: 3,
                        symbols: 256,
                        name: "default".into(),
                    },
                    ModelDescriptor {
                        id: 1,
                        epoch: 7,
                        outputs: 10,
                        symbols: 16,
                        name: "widar-room3".into(),
                    },
                ],
            },
            Response::HelloAck {
                version: PROTOCOL_VERSION,
                models: Vec::new(),
            },
        ];
        for resp in cases {
            let decoded = Response::decode(&resp.encode()).expect("decode");
            assert_eq!(decoded, resp);
        }
    }

    #[test]
    fn trailing_bytes_and_unknown_kinds_are_rejected() {
        let mut payload = Request::Info.encode();
        payload.push(0xAB);
        assert!(Request::decode(&payload).is_err());
        assert!(Request::decode(&[9]).is_err());
        assert!(Response::decode(&[9]).is_err());
        assert!(Request::decode(&[]).is_err());
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let payload = Request::Infer {
            id: 1,
            sample_index: 0,
            deadline_us: 0,
            input: vec![C64 { re: 1.0, im: 2.0 }],
        }
        .encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        write_frame(&mut buf, &Request::Shutdown.encode()).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&payload[..]));
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some(&Request::Shutdown.encode()[..])
        );
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn restamping_an_infer_payload_equals_reencoding_it() {
        let input = vec![C64 { re: 0.5, im: -1.5 }, C64 { re: 2.0, im: 0.25 }];
        let mut payload = Request::Infer {
            id: 0,
            sample_index: 0,
            deadline_us: 77,
            input: input.clone(),
        }
        .encode();
        Request::restamp_infer(&mut payload, 123, 456);
        let reencoded = Request::Infer {
            id: 123,
            sample_index: 456,
            deadline_us: 77,
            input,
        }
        .encode();
        assert_eq!(payload, reencoded);
    }

    #[test]
    fn restamping_a_v2_infer_payload_equals_reencoding_it() {
        let input = vec![C64 { re: 0.5, im: -1.5 }];
        let mut payload = Request::InferModel {
            model: 9,
            id: 0,
            sample_index: 0,
            deadline_us: 77,
            input: input.clone(),
        }
        .encode();
        Request::restamp_infer(&mut payload, 123, 456);
        let reencoded = Request::InferModel {
            model: 9,
            id: 123,
            sample_index: 456,
            deadline_us: 77,
            input,
        }
        .encode();
        assert_eq!(payload, reencoded, "the model field survives restamping");
    }

    #[test]
    fn the_no_id_sentinel_is_rejected_end_to_end() {
        // Encode-time: a client cannot even serialize the reserved id.
        let sentinel = Request::Infer {
            id: NO_REQUEST_ID,
            sample_index: 0,
            deadline_us: 0,
            input: vec![C64 { re: 1.0, im: 0.0 }],
        };
        assert!(std::panic::catch_unwind(|| sentinel.encode()).is_err());
        assert!(std::panic::catch_unwind(|| {
            let mut payload = Request::Infer {
                id: 1,
                sample_index: 0,
                deadline_us: 0,
                input: vec![C64 { re: 1.0, im: 0.0 }],
            }
            .encode();
            Request::restamp_infer(&mut payload, NO_REQUEST_ID, 0);
        })
        .is_err());
        // Decode-time: a hand-rolled frame carrying it is a BadRequest.
        let mut payload = Request::Infer {
            id: 1,
            sample_index: 0,
            deadline_us: 0,
            input: vec![C64 { re: 1.0, im: 0.0 }],
        }
        .encode();
        payload[1..9].copy_from_slice(&NO_REQUEST_ID.to_le_bytes());
        match Request::decode(&payload) {
            Err(ServeError::BadRequest(why)) => assert!(why.contains("reserved"), "{why}"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
        // Responses may carry it: that is the sentinel's whole purpose.
        let refusal = Response::Error {
            id: NO_REQUEST_ID,
            code: 3,
        };
        assert_eq!(Response::decode(&refusal.encode()).unwrap(), refusal);
    }

    #[test]
    fn infer_converts_to_a_score_request_with_relative_deadline() {
        let req = Request::Infer {
            id: 3,
            sample_index: 8,
            deadline_us: 0,
            input: vec![C64 { re: 1.0, im: 0.0 }],
        };
        let sr = req.into_score_request().expect("infer");
        assert_eq!(sr.id, 3);
        assert_eq!(sr.sample_index, 8);
        assert_eq!(sr.input.len(), 1);
        assert!(sr.deadline.is_none());
        assert!(Request::Info.into_score_request().is_none());

        // The v2 variant converts identically; the model id is routing
        // information and does not reach the queue-side request.
        let sr = Request::InferModel {
            model: 5,
            id: 3,
            sample_index: 8,
            deadline_us: 0,
            input: vec![C64 { re: 1.0, im: 0.0 }],
        }
        .into_score_request()
        .expect("infer");
        assert_eq!((sr.id, sr.sample_index), (3, 8));
        assert!(Request::Hello { version: 2 }.into_score_request().is_none());
    }
}
