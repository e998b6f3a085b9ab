//! Backend-equivalence tests: the event loop's two poller backends
//! (`epoll`, `poll`) must answer a seeded pipelined workload with
//! exactly the bytes that direct `shard::apply` calls produce — no
//! network code in the oracle — with matching `ServeSummary`
//! accounting, and must run the same disconnect cleanup for
//! half-closed and silent sockets.

use envy_server::proto::{self, WireBody, WireOutcome, WireRequest, WireResponse};
use envy_server::shard::apply;
use envy_server::{
    serve_with, Client, Listener, NetConfig, NetDriver, Request, ServeConfig, ServeError,
    ShardedStore,
};
use envy_sim::rng::Rng;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Build a seeded pipelined request blob: a deterministic interleave of
/// writes, reads, pings, the four KV operations, and a few malformed
/// (unknown-opcode) frames. One shard + FIFO dispatch means completion
/// order equals admission order, so every backend must answer with the
/// oracle's byte stream.
///
/// Raw writes draw from the top half of the shard only: the KV store's
/// B-Tree nodes grow from the region base, and a raw write landing in a
/// live index node could forge a cyclic child pointer (a hang, not a
/// typed error). Clobbered *heap* blocks in the top half surface as
/// typed `Corrupt` errors, which every backend must report identically.
fn seeded_blob(frames: usize) -> (Vec<u8>, u64) {
    let shard_bytes = {
        let cfg = ServeConfig::small(1);
        envy_core::EnvyStore::new(cfg.store).unwrap().size()
    };
    let mut rng = Rng::seed_from(0xD1FF9);
    let mut blob = Vec::new();
    let mut admitted = 0u64;
    for i in 0..frames as u64 {
        if rng.chance(0.05) {
            // Unknown opcode: syntactically a frame, semantically
            // garbage. Answered with a typed error under id 0; not
            // admitted, so it never counts as a request.
            let garbage = vec![0xee_u8; 8 + rng.below(16) as usize];
            blob.extend_from_slice(&(garbage.len() as u32).to_le_bytes());
            blob.extend_from_slice(&garbage);
            continue;
        }
        let addr = shard_bytes / 2 + rng.below(shard_bytes / 2 - 600);
        let key = rng.below(64);
        let req = match rng.below(7) {
            0 => Request::Write {
                addr,
                bytes: vec![(i % 251) as u8; 1 + rng.below(500) as usize],
            },
            1 => Request::Read {
                addr,
                len: 1 + rng.below(500) as u32,
            },
            2 => Request::Ping { shard: 0 },
            3 => Request::KvPut {
                shard: 0,
                key,
                txn: 0,
                value: vec![(i % 251) as u8; 1 + rng.below(200) as usize],
            },
            4 => Request::KvGet { shard: 0, key },
            5 => Request::KvDelete {
                shard: 0,
                key,
                txn: 0,
            },
            _ => Request::KvScan {
                shard: 0,
                start: key,
                limit: 1 + rng.below(16) as u32,
            },
        };
        let frame = proto::encode_request(&WireRequest {
            id: i,
            deadline_us: 0,
            body: WireBody::Req(req),
        });
        blob.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        blob.extend_from_slice(&frame);
        admitted += 1;
    }
    (blob, admitted)
}

/// Run the blob against a fresh 1-shard server under `driver`; return
/// the response payloads and the summary's request count.
fn run_driver(driver: NetDriver, blob: &[u8], frames: usize) -> (Vec<Vec<u8>>, u64) {
    let store = ShardedStore::launch(ServeConfig::small(1)).unwrap();
    let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
    let server = serve_with(
        listener,
        store,
        NetConfig {
            driver,
            idle_timeout: None,
        },
    )
    .unwrap();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(blob).unwrap();
    let payloads = (0..frames)
        .map(|_| {
            proto::read_frame(&mut raw)
                .expect("read response frame")
                .expect("response before eof")
        })
        .collect();
    drop(raw);
    let summary = server.shutdown();
    (payloads, summary.requests)
}

/// The answer to a frame that does not decode.
fn malformed_answer() -> Vec<u8> {
    proto::encode_response(&WireResponse {
        id: 0,
        shard: 0,
        outcome: WireOutcome::Err(ServeError::Store("malformed request".into())),
    })
}

/// The expected response payloads, computed without any network code:
/// decode each frame of the blob and run it through `shard::apply` on a
/// store built the way `ShardedStore::launch(ServeConfig::small(1))`
/// builds shard 0. A malformed frame is answered `ERR` under id 0.
fn oracle_payloads(blob: &[u8]) -> Vec<Vec<u8>> {
    let config = ServeConfig::small(1);
    let mut baseline = envy_core::EnvyStore::new(config.store.clone()).unwrap();
    if config.prefill {
        baseline.prefill().unwrap();
    }
    let mut store = baseline.fork();
    store.set_txn_slots(config.store.txn_slots);
    store.seed_txn_ids(1, 1);
    let mut payloads = Vec::new();
    let mut r = blob;
    while let Some(payload) = proto::read_frame(&mut r).unwrap() {
        payloads.push(match proto::decode_request(&payload) {
            Ok(WireRequest {
                id,
                body: WireBody::Req(req),
                ..
            }) => proto::encode_response(&WireResponse {
                id,
                shard: 0,
                outcome: match apply(&mut store, &req) {
                    Ok(reply) => WireOutcome::Reply(reply),
                    Err(e) => WireOutcome::Err(e),
                },
            }),
            Ok(other) => panic!("the seeded blob holds only requests: {other:?}"),
            Err(_) => malformed_answer(),
        });
    }
    payloads
}

/// A malformed frame is answered as soon as it is decoded, ahead of
/// completions still in flight on the shard, so where its `ERR` lands
/// in the stream depends on timing. Split those answers out: return the
/// remaining frames re-joined into one byte stream, and how many
/// malformed answers there were.
fn split_malformed(payloads: &[Vec<u8>]) -> (Vec<u8>, usize) {
    let malformed = malformed_answer();
    let mut bytes = Vec::new();
    let mut errs = 0;
    for p in payloads {
        if *p == malformed {
            errs += 1;
        } else {
            bytes.extend_from_slice(&(p.len() as u32).to_le_bytes());
            bytes.extend_from_slice(p);
        }
    }
    (bytes, errs)
}

#[test]
fn drivers_produce_identical_wire_bytes_and_counts() {
    const FRAMES: usize = 200;
    let (blob, admitted) = seeded_blob(FRAMES);
    let expected = split_malformed(&oracle_payloads(&blob));
    assert!(expected.1 > 0, "the blob must hold malformed frames");
    assert_eq!(expected.1 as u64 + admitted, FRAMES as u64);
    for driver in [NetDriver::Epoll, NetDriver::Poll] {
        let (payloads, reqs) = run_driver(driver, &blob, FRAMES);
        assert_eq!(reqs, admitted, "{driver:?} request count");
        let got = split_malformed(&payloads);
        assert_eq!(got.1, expected.1, "{driver:?} malformed-frame answers");
        assert!(
            got.0 == expected.0,
            "{driver:?} must answer admitted requests exactly as shard::apply does"
        );
    }
}

/// A malformed KV frame — a valid `KV_PUT` opcode whose payload is
/// truncated mid-field — must be answered with a typed error under
/// id 0, and the connection must survive: a well-formed KV request
/// pipelined right behind it still gets its real answer.
fn malformed_kv_frame_errors_id0_and_survives(driver: NetDriver) {
    let store = ShardedStore::launch(ServeConfig::small(1)).unwrap();
    let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
    let server = serve_with(
        listener,
        store,
        NetConfig {
            driver,
            idle_timeout: None,
        },
    )
    .unwrap();
    let mut raw = TcpStream::connect(server.addr()).unwrap();

    let full = proto::encode_request(&WireRequest {
        id: 7,
        deadline_us: 0,
        body: WireBody::Req(Request::KvPut {
            shard: 0,
            key: 42,
            txn: 0,
            value: vec![0xAB; 16],
        }),
    });
    // `KV_PUT`'s value is "rest of frame", so a short value is still a
    // valid put; cut into the fixed fields (the `key`/`txn` words) to
    // make the frame undecodable.
    let truncated = &full[..20];
    let mut blob = Vec::new();
    blob.extend_from_slice(&(truncated.len() as u32).to_le_bytes());
    blob.extend_from_slice(truncated);
    let follow = proto::encode_request(&WireRequest {
        id: 8,
        deadline_us: 0,
        body: WireBody::Req(Request::KvGet { shard: 0, key: 42 }),
    });
    blob.extend_from_slice(&(follow.len() as u32).to_le_bytes());
    blob.extend_from_slice(&follow);
    raw.write_all(&blob).unwrap();

    let first = proto::read_frame(&mut raw).unwrap().expect("error frame");
    let first = proto::decode_response(&first).unwrap();
    assert_eq!(first.id, 0, "malformed frames are answered under id 0");
    assert!(
        matches!(first.outcome, WireOutcome::Err(_)),
        "malformed KV frame must surface a typed error, got {:?} ({driver:?})",
        first.outcome,
    );
    let second = proto::read_frame(&mut raw).unwrap().expect("reply frame");
    let second = proto::decode_response(&second).unwrap();
    assert_eq!(second.id, 8, "the connection must survive the bad frame");
    assert!(
        matches!(
            second.outcome,
            WireOutcome::Reply(envy_server::Reply::KvValue(None))
        ),
        "the truncated put must not have executed, got {:?} ({driver:?})",
        second.outcome,
    );
    drop(raw);
    server.shutdown();
}

#[test]
fn malformed_kv_frame_survives_under_epoll() {
    malformed_kv_frame_errors_id0_and_survives(NetDriver::Epoll);
}

#[test]
fn malformed_kv_frame_survives_under_poll_backend() {
    malformed_kv_frame_errors_id0_and_survives(NetDriver::Poll);
}

/// A half-closed socket — the client shuts down only its **write**
/// side and keeps reading — must still get its open transactions
/// aborted (the EOF runs the same disconnect cleanup as a full close),
/// releasing the shard's transaction slot within the idle timeout.
fn half_close_aborts_open_txn(driver: NetDriver) {
    let store = ShardedStore::launch(ServeConfig::small(1)).unwrap();
    let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
    let server = serve_with(
        listener,
        store,
        NetConfig {
            driver,
            idle_timeout: Some(Duration::from_millis(300)),
        },
    )
    .unwrap();
    let addr = server.addr().to_string();

    let mut client = Client::connect_tcp(&addr).unwrap();
    client.write(64, b"base").unwrap();
    let txn = client.txn_begin(0).unwrap();
    client.txn_write(64, b"gone", txn).unwrap();
    // Half-close: no more requests will come, but the read side stays
    // open — a client that crashed between encode and close behaves
    // exactly like this.
    client.shutdown_write().unwrap();

    let mut fresh = Client::connect_tcp(&addr).unwrap();
    let opened = Instant::now();
    loop {
        match fresh.txn_begin(0) {
            Ok(t) => {
                // The orphan was aborted: pre-transaction bytes, slot free.
                assert_eq!(fresh.read(64, 4).unwrap(), b"base");
                fresh.txn_abort(0, t).unwrap();
                break;
            }
            Err(envy_server::ClientError::Serve(ServeError::TxnBusy)) => {
                assert!(
                    opened.elapsed() < Duration::from_secs(5),
                    "half-closed connection's transaction never aborted ({driver:?})"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("txn_begin: {e}"),
        }
    }
    // After the cleanup the server closes its end, so the half-closed
    // client's read side sees EOF rather than hanging forever.
    match client.recv() {
        Err(envy_server::ClientError::Disconnected) => {}
        other => panic!("expected server-side close, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn half_closed_socket_aborts_txn_under_epoll() {
    half_close_aborts_open_txn(NetDriver::Epoll);
}

#[test]
fn half_closed_socket_aborts_txn_under_poll_backend() {
    half_close_aborts_open_txn(NetDriver::Poll);
}

/// A connection that goes fully silent (no EOF at all) is reaped by
/// the idle timeout and its transaction aborted — the teardown path
/// that EOF-based cleanup alone can never catch.
fn silent_connection_reaped_by_idle_timeout(driver: NetDriver) {
    let store = ShardedStore::launch(ServeConfig::small(1)).unwrap();
    let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
    let server = serve_with(
        listener,
        store,
        NetConfig {
            driver,
            idle_timeout: Some(Duration::from_millis(200)),
        },
    )
    .unwrap();
    let addr = server.addr().to_string();

    let mut client = Client::connect_tcp(&addr).unwrap();
    let _txn = client.txn_begin(0).unwrap();
    // No shutdown, no EOF: the socket just goes quiet, still open.

    let mut fresh = Client::connect_tcp(&addr).unwrap();
    let opened = Instant::now();
    loop {
        // The fresh connection keeps talking, so only the silent one
        // can hit the idle timeout.
        match fresh.txn_begin(0) {
            Ok(t) => {
                fresh.txn_abort(0, t).unwrap();
                break;
            }
            Err(envy_server::ClientError::Serve(ServeError::TxnBusy)) => {
                assert!(
                    opened.elapsed() < Duration::from_secs(5),
                    "silent connection's transaction never aborted ({driver:?})"
                );
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("txn_begin: {e}"),
        }
    }
    server.shutdown();
}

#[test]
fn silent_connection_reaped_under_epoll() {
    silent_connection_reaped_by_idle_timeout(NetDriver::Epoll);
}

#[test]
fn silent_connection_reaped_under_poll_backend() {
    silent_connection_reaped_by_idle_timeout(NetDriver::Poll);
}
