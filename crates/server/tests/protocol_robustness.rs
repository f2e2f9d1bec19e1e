//! Protocol robustness: hostile bytes must never panic a decoder or kill
//! the server. Property tests cover truncations, oversized length
//! prefixes, and bit flips; live-socket tests pin the recover-vs-close
//! contract and the `server.protocol_errors` counter.

mod common;

use std::io::{Cursor, Read as _, Write as _};
use std::net::{Shutdown, TcpStream};
use std::sync::Mutex;

use cbmf_serve::BatchConfig;
use cbmf_server::protocol::{
    encode_request, read_request, read_response, write_request, ErrorCode, ProtocolError, Request,
    RequestKind, Response, MAX_FRAME_BYTES,
};
use cbmf_server::{PredictionServer, ServerConfig};
use common::{mean_predictor, sample};
use proptest::collection::vec;
use proptest::prelude::*;

fn request_strategy() -> impl Strategy<Value = Request> {
    (0u32..3, 0u32..100, vec(0u64..u64::MAX, 0..12)).prop_map(|(kind, model_id, bits)| Request {
        kind: if kind == 0 {
            RequestKind::Predict
        } else {
            RequestKind::PredictVar
        },
        model_id,
        sample: bits.into_iter().map(f64::from_bits).collect(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes: the decoder returns Ok or a typed error — it never
    /// panics and never hands back a partially-parsed frame.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(0u64..256, 0..2048)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let _ = read_request(&mut Cursor::new(&bytes));
        let _ = read_response(&mut Cursor::new(&bytes));
    }

    /// Every strict truncation of a valid frame is an error: a clean Closed
    /// at zero bytes, a typed Truncated (or short-body error) otherwise.
    #[test]
    fn truncations_are_typed_errors(req in request_strategy(), cut in 0u64..10_000) {
        let frame = encode_request(&req);
        let cut = (cut as usize) % frame.len().max(1);
        match read_request(&mut Cursor::new(&frame[..cut])) {
            Err(ProtocolError::Closed) => prop_assert_eq!(cut, 0),
            Err(ProtocolError::Frame { code, .. }) => prop_assert!(
                matches!(code, ErrorCode::Truncated | ErrorCode::Malformed),
                "cut {} of {} gave {:?}", cut, frame.len(), code
            ),
            Err(ProtocolError::Io(e)) => prop_assert!(false, "io error {e}"),
            Ok(_) => prop_assert!(false, "truncated frame decoded"),
        }
    }

    /// A single flipped bit anywhere in the body is always caught: the
    /// FNV-1a update is injective in each byte, so any one-byte change
    /// (payload or checksum) breaks verification — or earlier, the length
    /// and structure checks.
    #[test]
    fn single_bit_flips_in_body_are_rejected(
        req in request_strategy(),
        pos in 0u64..10_000,
        bit in 0u32..8,
    ) {
        let mut frame = encode_request(&req);
        let body_len = frame.len() - 4;
        let pos = 4 + (pos as usize) % body_len;
        frame[pos] ^= 1 << bit;
        prop_assert!(
            read_request(&mut Cursor::new(&frame)).is_err(),
            "flip at byte {} slipped through", pos
        );
    }

    /// Requests round-trip bit-exactly through encode/decode, including
    /// NaN payloads and empty samples.
    #[test]
    fn requests_round_trip_bit_exactly(req in request_strategy()) {
        let got = read_request(&mut Cursor::new(encode_request(&req))).unwrap();
        prop_assert_eq!(got.kind, req.kind);
        prop_assert_eq!(got.model_id, req.model_id);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        prop_assert_eq!(bits(&got.sample), bits(&req.sample));
    }
}

/// The live-socket tests below assert on the process-global
/// `server.protocol_errors` counter, so they serialize on one lock.
fn counter_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn protocol_errors() -> u64 {
    cbmf_trace::snapshot()
        .counters
        .get("server.protocol_errors")
        .copied()
        .unwrap_or(0)
}

fn spawn_server() -> PredictionServer {
    PredictionServer::bind(
        "127.0.0.1:0",
        mean_predictor(),
        ServerConfig {
            batch: BatchConfig::from_env().with_max_batch(1),
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// A raw connection whose reads give up after ten silent seconds, so a
/// server that never answers or never closes fails the test instead of
/// hanging it.
fn connect(server: &PredictionServer) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    stream
}

/// Reads frames until EOF (or a read timeout); returns the decoded
/// responses.
fn drain_responses(stream: &mut TcpStream) -> Vec<Response> {
    let mut out = Vec::new();
    loop {
        match read_response(stream) {
            Ok(resp) => out.push(resp),
            Err(_) => return out,
        }
    }
}

#[test]
fn bad_checksum_answers_in_band_and_connection_survives() {
    let _l = counter_lock();
    cbmf_trace::set_enabled(true);
    let before = protocol_errors();
    let server = spawn_server();
    let mut stream = connect(&server);
    let mut frame = encode_request(&Request {
        kind: RequestKind::Predict,
        model_id: 0,
        sample: sample(0),
    });
    let last = frame.len() - 1; // corrupt the checksum itself
    frame[last] ^= 0xff;
    stream.write_all(&frame).unwrap();
    match read_response(&mut stream).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadChecksum),
        other => panic!("expected BadChecksum error frame, got {other:?}"),
    }
    // Same connection, valid frame: still served.
    write_request(
        &mut stream,
        &Request {
            kind: RequestKind::Predict,
            model_id: 0,
            sample: sample(1),
        },
    )
    .unwrap();
    match read_response(&mut stream).unwrap() {
        Response::Values(v) => assert_eq!(v.len(), common::STATES),
        other => panic!("expected values after recovery, got {other:?}"),
    }
    assert!(protocol_errors() > before, "protocol_errors not counted");
    cbmf_trace::clear_enabled_override();
}

#[test]
fn oversized_prefix_gets_error_frame_then_clean_close() {
    let _l = counter_lock();
    cbmf_trace::set_enabled(true);
    let before = protocol_errors();
    let server = spawn_server();
    let mut stream = connect(&server);
    stream
        .write_all(&(MAX_FRAME_BYTES + 1).to_le_bytes())
        .unwrap();
    let responses = drain_responses(&mut stream);
    assert!(
        matches!(
            responses.first(),
            Some(Response::Error {
                code: ErrorCode::Oversized,
                ..
            })
        ),
        "expected a typed Oversized frame before the close, got {responses:?}"
    );
    // The stream is now at EOF — a clean close, not a reset mid-frame.
    let mut buf = [0u8; 1];
    assert_eq!(stream.read(&mut buf).unwrap_or(0), 0);
    assert!(protocol_errors() > before);
    // The listener is unaffected: a fresh connection still serves.
    let mut client = cbmf_server::PredictClient::connect(server.local_addr()).unwrap();
    client.predict(&sample(2)).unwrap();
    cbmf_trace::clear_enabled_override();
}

#[test]
fn truncated_frame_with_half_closed_writer_gets_typed_error() {
    let _l = counter_lock();
    cbmf_trace::set_enabled(true);
    let before = protocol_errors();
    let server = spawn_server();
    let mut stream = connect(&server);
    // Claim 100 body bytes, deliver 10, then half-close: the server sees a
    // definite truncation and must answer it before closing.
    stream.write_all(&100u32.to_le_bytes()).unwrap();
    stream.write_all(&[0u8; 10]).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let responses = drain_responses(&mut stream);
    assert!(
        matches!(
            responses.first(),
            Some(Response::Error {
                code: ErrorCode::Truncated,
                ..
            })
        ),
        "expected a typed Truncated frame, got {responses:?}"
    );
    assert!(protocol_errors() > before);
    cbmf_trace::clear_enabled_override();
}

#[test]
fn mid_frame_disconnect_leaves_server_healthy() {
    let _l = counter_lock();
    let server = spawn_server();
    // Ten connections that die mid-frame without so much as a FIN ordering
    // guarantee; none may take the server down.
    for i in 0..10 {
        let mut stream = connect(&server);
        let frame = encode_request(&Request {
            kind: RequestKind::Predict,
            model_id: 0,
            sample: sample(i),
        });
        stream.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(stream); // hard disconnect mid-frame
    }
    // Server still accepts and serves.
    let mut client = cbmf_server::PredictClient::connect(server.local_addr()).unwrap();
    client.predict(&sample(11)).unwrap();
}

#[test]
fn garbage_storm_never_kills_the_listener() {
    let _l = counter_lock();
    let server = spawn_server();
    for seed in 0u64..20 {
        let mut stream = connect(&server);
        // Deterministic junk: an xorshift stream of 1..=256 bytes.
        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let len = 1 + (seed as usize * 13) % 256;
        let junk: Vec<u8> = (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let _ = stream.write_all(&junk);
        let _ = stream.shutdown(Shutdown::Write);
        let _ = drain_responses(&mut stream); // whatever came back, no hang
    }
    let mut client = cbmf_server::PredictClient::connect(server.local_addr()).unwrap();
    client.predict(&sample(3)).unwrap();
}
