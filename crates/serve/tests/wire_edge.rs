//! Decode edge cases for the wire protocol: every malformed frame must
//! come back as a structured error — never a panic, never an allocation
//! sized by attacker-controlled bytes. Also pins the v1↔v2 compatibility
//! contract: a v2 client greeting a v1-only server gets a typed
//! [`ServeError::UnsupportedVersion`], never a hang or a garbage decode.

use metaai_math::C64;
use metaai_serve::tcp::TcpClient;
use metaai_serve::wire::{self, Request, Response, MAX_FRAME_BYTES, NO_REQUEST_ID};
use metaai_serve::ServeError;

fn infer_payload(n: usize) -> Vec<u8> {
    Request::Infer {
        id: 1,
        sample_index: 2,
        deadline_us: 3,
        input: (0..n)
            .map(|i| C64 {
                re: i as f64,
                im: -(i as f64),
            })
            .collect(),
    }
    .encode()
}

fn infer_model_payload(n: usize) -> Vec<u8> {
    Request::InferModel {
        model: 1,
        id: 1,
        sample_index: 2,
        deadline_us: 3,
        input: (0..n)
            .map(|i| C64 {
                re: i as f64,
                im: -(i as f64),
            })
            .collect(),
    }
    .encode()
}

#[test]
fn zero_length_payloads_are_bad_requests() {
    assert!(matches!(
        Request::decode(&[]),
        Err(ServeError::BadRequest(_))
    ));
    assert!(matches!(
        Response::decode(&[]),
        Err(ServeError::BadRequest(_))
    ));
    // A zero-length *frame* is legal framing (the payload decode rejects
    // it); read_frame must hand it up rather than misinterpret it.
    let mut buf = Vec::new();
    wire::write_frame(&mut buf, &[]).unwrap();
    let mut r = &buf[..];
    assert_eq!(wire::read_frame(&mut r).unwrap().as_deref(), Some(&[][..]));
}

#[test]
fn the_slice_encoder_writes_the_bytes_of_request_encode() {
    let input: Vec<C64> = (0..5)
        .map(|i| C64 {
            re: i as f64 + 0.5,
            im: -(i as f64),
        })
        .collect();
    for model in [None, Some(3u32)] {
        let request = match model {
            None => Request::Infer {
                id: 11,
                sample_index: 12,
                deadline_us: 13,
                input: input.clone(),
            },
            Some(model) => Request::InferModel {
                model,
                id: 11,
                sample_index: 12,
                deadline_us: 13,
                input: input.clone(),
            },
        };
        let mut payload = Vec::new();
        wire::encode_infer(&mut payload, model, 11, 12, 13, &input);
        assert_eq!(payload, request.encode(), "payload, model {model:?}");
        // The one-buffer frame is what write_frame sends for it.
        let mut framed = Vec::new();
        wire::write_frame(&mut framed, &payload).unwrap();
        let one_buffer = wire::frame(|buf| wire::encode_infer(buf, model, 11, 12, 13, &input));
        assert_eq!(one_buffer, framed, "frame, model {model:?}");
    }
}

#[test]
fn the_score_slice_encoder_writes_the_bytes_of_response_score() {
    for scores in [vec![], vec![0.25, -0.0, f64::INFINITY, 1e-310, -7.5]] {
        let response = Response::Score {
            id: 21,
            epoch: 5,
            predicted: 2,
            scores: scores.clone(),
        };
        let mut payload = Vec::new();
        wire::encode_score(&mut payload, 21, 5, 2, &scores);
        assert_eq!(payload, response.encode(), "{} scores", scores.len());
        assert_eq!(Response::decode(&payload).unwrap(), response);
    }
}

#[test]
fn the_slice_encoder_refuses_the_no_id_sentinel() {
    for model in [None, Some(0u32)] {
        let refused = std::panic::catch_unwind(|| {
            wire::encode_infer(&mut Vec::new(), model, NO_REQUEST_ID, 0, 0, &[]);
        });
        let message = refused.expect_err("the sentinel id must panic");
        let message = message
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| message.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(message.contains("NO_REQUEST_ID"), "{message}");
    }
}

#[test]
fn an_infer_with_zero_symbols_decodes_without_panicking() {
    // n = 0 is structurally valid; the server rejects it later against
    // the deployment's symbol count, not in the parser.
    let payload = infer_payload(0);
    match Request::decode(&payload).expect("decode") {
        Request::Infer { input, .. } => assert!(input.is_empty()),
        other => panic!("expected INFER, got {other:?}"),
    }
}

#[test]
fn a_frame_exactly_at_the_cap_is_accepted_and_one_past_is_rejected() {
    let payload = vec![0xA5u8; MAX_FRAME_BYTES];
    let mut buf = Vec::new();
    wire::write_frame(&mut buf, &payload).unwrap();
    let mut r = &buf[..];
    assert_eq!(
        wire::read_frame(&mut r).unwrap().map(|p| p.len()),
        Some(MAX_FRAME_BYTES)
    );

    let mut buf = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec();
    buf.push(0);
    let mut r = &buf[..];
    let err = wire::read_frame(&mut r).expect_err("over the cap");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

#[test]
fn a_truncated_symbol_block_is_a_bad_request() {
    let full = infer_payload(4);
    // Every strict prefix that cuts into the symbol block must fail
    // cleanly; the header claims 4 symbols the payload no longer holds.
    for cut in 29..full.len() {
        let truncated = &full[..cut];
        assert!(
            matches!(Request::decode(truncated), Err(ServeError::BadRequest(_))),
            "prefix of {cut} bytes decoded"
        );
    }
}

#[test]
fn a_score_whose_declared_n_exceeds_the_payload_is_rejected_without_allocating() {
    let mut payload = Response::Score {
        id: 1,
        epoch: 1,
        predicted: 0,
        scores: vec![0.5, 0.25],
    }
    .encode();
    // Rewrite the score count (offset 21: kind + id + epoch + predicted)
    // to claim u32::MAX entries. A decoder that sized a Vec from the
    // declared count before checking the remaining payload would try a
    // 32 GiB allocation here.
    payload[21..25].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Response::decode(&payload),
        Err(ServeError::BadRequest(_))
    ));
}

#[test]
fn an_infer_whose_declared_n_exceeds_the_payload_is_rejected_without_allocating() {
    let mut payload = infer_payload(2);
    // Symbol count lives at offset 25 (kind + id + sample_index +
    // deadline).
    payload[25..29].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Request::decode(&payload),
        Err(ServeError::BadRequest(_))
    ));
}

#[test]
fn length_prefixes_shorter_than_the_payload_leave_clean_errors() {
    // A corrupt length prefix that claims fewer bytes than were sent:
    // the first frame decodes as garbage (or errors), and the stream is
    // desynchronized — but nothing panics.
    let payload = infer_payload(2);
    let mut buf = Vec::new();
    wire::write_frame(&mut buf, &payload).unwrap();
    buf[0..4].copy_from_slice(&7u32.to_le_bytes());
    let mut r = &buf[..];
    let first = wire::read_frame(&mut r).unwrap().expect("short frame");
    assert_eq!(first.len(), 7);
    assert!(Request::decode(&first).is_err());
}

#[test]
fn a_length_prefix_longer_than_the_stream_is_a_mid_frame_eof() {
    let mut buf = 64u32.to_le_bytes().to_vec();
    buf.extend_from_slice(&[1, 2, 3]);
    let mut r = &buf[..];
    let err = wire::read_frame(&mut r).expect_err("mid-frame EOF");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
}

#[test]
fn a_truncated_v2_infer_symbol_block_is_a_bad_request() {
    let full = infer_model_payload(4);
    // The v2 header is 33 bytes (kind + model + id + sample_index +
    // deadline + n); every strict prefix cutting into the symbol block
    // must fail cleanly.
    for cut in 33..full.len() {
        let truncated = &full[..cut];
        assert!(
            matches!(Request::decode(truncated), Err(ServeError::BadRequest(_))),
            "prefix of {cut} bytes decoded"
        );
    }
}

#[test]
fn a_v2_infer_whose_declared_n_exceeds_the_payload_is_rejected_without_allocating() {
    let mut payload = infer_model_payload(2);
    // Symbol count lives at offset 29 (kind + model + id + sample_index +
    // deadline).
    payload[29..33].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Request::decode(&payload),
        Err(ServeError::BadRequest(_))
    ));
}

#[test]
fn a_truncated_hello_is_a_bad_request() {
    // A HELLO is kind + u16 version; cutting the version short must not
    // panic or misparse.
    let full = Request::Hello { version: 2 }.encode();
    assert_eq!(full.len(), 3);
    for cut in [1usize, 2] {
        assert!(matches!(
            Request::decode(&full[..cut]),
            Err(ServeError::BadRequest(_))
        ));
    }
}

#[test]
fn a_hello_ack_whose_declared_count_exceeds_the_payload_is_rejected_without_allocating() {
    let mut payload = Response::HelloAck {
        version: 2,
        models: Vec::new(),
    }
    .encode();
    // Model count lives at offset 3 (kind + version). u32::MAX entries
    // would be a multi-GiB reservation if the decoder trusted it.
    payload[3..7].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Response::decode(&payload),
        Err(ServeError::BadRequest(_))
    ));
}

#[test]
fn a_hello_ack_with_a_non_utf8_model_name_is_a_bad_request() {
    let mut payload = Response::HelloAck {
        version: 2,
        models: vec![wire::ModelDescriptor {
            id: 0,
            epoch: 1,
            outputs: 3,
            symbols: 16,
            name: "ab".into(),
        }],
    }
    .encode();
    // The name bytes are the last two; 0xFF 0xFE is not valid UTF-8.
    let at = payload.len() - 2;
    payload[at..].copy_from_slice(&[0xFF, 0xFE]);
    match Response::decode(&payload) {
        Err(ServeError::BadRequest(why)) => assert!(why.contains("UTF-8"), "{why}"),
        other => panic!("expected BadRequest, got {other:?}"),
    }
}

/// A minimal v1-only server, wire-identical to the PR-4/5 front-end's
/// corrupt-frame path: any frame it cannot decode (which includes every
/// v2 kind) is answered with `ERROR { NO_REQUEST_ID, BadRequest }` and
/// the connection closes.
fn v1_only_server() -> std::net::SocketAddr {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(stream) = conn else { break };
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            while let Ok(Some(payload)) = wire::read_frame(&mut reader) {
                // A v1 decoder knows request kinds 0..=2 only; the crate's
                // current decoder understands v2 kinds, so gate on the kind
                // byte to reproduce v1's "unknown kind" refusal.
                let decoded = match payload.first() {
                    Some(0..=2) => Request::decode(&payload),
                    _ => Err(ServeError::BadRequest(format!(
                        "unknown request kind {:?}",
                        payload.first()
                    ))),
                };
                match decoded {
                    Ok(_) => continue, // not exercised here
                    Err(e) => {
                        let refusal = Response::Error {
                            id: NO_REQUEST_ID,
                            code: e.code(),
                        };
                        let _ = wire::write_frame(&mut writer, &refusal.encode());
                        let _ = std::io::Write::flush(&mut writer);
                        break; // v1 closes after a corrupt frame
                    }
                }
            }
        }
    });
    addr
}

#[test]
fn a_v2_client_greeting_a_v1_server_gets_unsupported_version_not_a_hang() {
    // The decisive detail: PR-5's `Request::decode` rejects kind 3, so a
    // v1 server answers the HELLO with a BadRequest error frame. The v2
    // client recognizes that reply as a version mismatch and surfaces
    // the typed error instead of passing BadRequest through (or worse,
    // waiting forever on an ack that will never come).
    let addr = v1_only_server();
    let mut client = TcpClient::connect(addr).expect("connect");
    let err = client
        .hello()
        .expect("io — the v1 server answers")
        .expect_err("no v2 handshake from a v1 server");
    assert_eq!(err, ServeError::UnsupportedVersion);
    assert_eq!(err.code(), 8);
    assert!(!err.is_retryable(), "a version mismatch never heals itself");
}
