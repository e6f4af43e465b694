//! Connection-robustness integration tests: one misbehaving client must
//! never corrupt another connection's results, and every failure mode
//! (mid-frame disconnect, idle stall, slow reader, garbage frames, more
//! connections than the server admits) ends with the server still
//! serving and the well-behaved connection's checksum intact.

use hot_server::protocol::{FrameDecoder, Request, Response, MAX_KEY};
use hot_server::{net_data_for, start_with_data, NetData, ServerConfig, ServerHandle};
use hot_ycsb::DatasetKind;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const KEYS: usize = 2_000;
const SEED: u64 = 7;

fn test_config(idle: Duration) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        kind: DatasetKind::Integer,
        keys: KEYS,
        ops: KEYS,
        seed: SEED,
        shards: 2,
        window: 32,
        idle_timeout: idle,
        ..ServerConfig::default()
    }
}

fn test_server(idle: Duration) -> (ServerHandle, NetData) {
    let data = net_data_for(DatasetKind::Integer, KEYS, KEYS, SEED);
    let check = net_data_for(DatasetKind::Integer, KEYS, KEYS, SEED);
    let handle = start_with_data(test_config(idle), data).expect("server starts");
    (handle, check)
}

/// Minimal raw-socket client (kept independent of hot-client, which this
/// crate cannot depend on) so these tests double as a second protocol
/// implementation.
struct Raw {
    stream: TcpStream,
    dec: FrameDecoder,
    buf: Vec<u8>,
}

impl Raw {
    fn connect(handle: &ServerHandle) -> Raw {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        Raw {
            stream,
            dec: FrameDecoder::new(),
            buf: vec![0u8; 64 << 10],
        }
    }

    fn send_all(&mut self, reqs: &[Request]) {
        let mut wire = Vec::new();
        for r in reqs {
            r.encode(&mut wire);
        }
        self.stream
            .write_all(&wire)
            .expect("request bytes accepted");
    }

    fn recv(&mut self) -> Response {
        self.try_recv().expect("a response frame")
    }

    /// `None` when the server closed the connection.
    fn try_recv(&mut self) -> Option<Response> {
        loop {
            match self.dec.next_frame().expect("well-framed response stream") {
                Some(body) => return Some(Response::decode(body).expect("valid response")),
                None => {
                    let n = self.stream.read(&mut self.buf).ok()?;
                    if n == 0 {
                        return None;
                    }
                    let fed = &self.buf[..n];
                    self.dec.feed(fed);
                }
            }
        }
    }
}

/// GET every loaded key and fold the returned TIDs — the checksum a
/// well-behaved connection must always reproduce exactly.
fn get_all_checksum(conn: &mut Raw, data: &NetData) -> u64 {
    let mut checksum = 0u64;
    for chunk in (0..data.loaded).collect::<Vec<_>>().chunks(64) {
        let reqs: Vec<Request> = chunk
            .iter()
            .map(|&i| Request::Get {
                key: data.dataset.keys[i].clone(),
            })
            .collect();
        conn.send_all(&reqs);
        for &i in chunk {
            match conn.recv() {
                Response::Tid(tid) => {
                    assert_eq!(tid, data.tids[i], "GET returned the wrong TID");
                    checksum = checksum.wrapping_add(tid);
                }
                other => panic!("GET answered with {other:?}"),
            }
        }
    }
    checksum
}

fn expected_checksum(data: &NetData) -> u64 {
    data.tids[..data.loaded]
        .iter()
        .fold(0u64, |acc, &t| acc.wrapping_add(t))
}

/// A client that dies mid-frame (half a SCAN frame on the wire) must not
/// disturb a concurrent connection's results.
#[test]
fn mid_frame_disconnect_leaves_other_connections_intact() {
    let (handle, data) = test_server(Duration::from_secs(10));

    let mut sick = Raw::connect(&handle);
    // A legitimate request, then a torn one: the largest SCAN frame — a
    // `MAX_KEY`-byte start key — cut off inside its key.
    sick.send_all(&[Request::Ping]);
    assert_eq!(sick.recv(), Response::None);
    let mut torn = Vec::new();
    Request::Scan {
        start: vec![0xAB; MAX_KEY],
        limit: u32::MAX,
    }
    .encode(&mut torn);
    sick.stream
        .write_all(&torn[..torn.len() / 2])
        .expect("partial frame accepted");
    drop(sick); // RST/FIN mid-frame

    let mut good = Raw::connect(&handle);
    assert_eq!(get_all_checksum(&mut good, &data), expected_checksum(&data));
    assert_eq!(
        handle.stats().proto_errors(),
        0,
        "a torn frame is not a protocol error"
    );
    handle.shutdown();
}

/// An idle connection is reaped after the timeout; the server keeps
/// accepting new ones.
#[test]
fn idle_connections_are_reaped() {
    let (handle, data) = test_server(Duration::from_millis(200));

    let mut idler = Raw::connect(&handle);
    assert_eq!(
        idler.try_recv(),
        None,
        "idle connection closed by the server"
    );

    let mut good = Raw::connect(&handle);
    assert_eq!(get_all_checksum(&mut good, &data), expected_checksum(&data));
    handle.shutdown();
}

/// A reader that stops draining responses stalls only itself: its window
/// backs up against `write_all` while another connection stays fully
/// served; once it finally drains, every one of its responses is intact.
#[test]
fn slow_reader_backpressure_is_isolated() {
    let (handle, data) = test_server(Duration::from_secs(30));

    // ~2000 scans × 2000 TIDs × 8 bytes ≈ 32 MB of responses — far past
    // the socket buffers, so the server must block writing long before
    // it finishes the stream.
    let smallest = data.dataset.keys[..data.loaded]
        .iter()
        .min()
        .expect("corpus is non-empty")
        .clone();
    let scans = 2_000usize;
    let mut slow = Raw::connect(&handle);
    // Over-ask by one so the page visibly ends the key space (a page
    // filled exactly to its limit correctly mints a continuation token).
    slow.send_all(&vec![
        Request::Scan {
            start: smallest,
            limit: data.loaded as u32 + 1
        };
        scans
    ]);

    // Leave the slow reader stalled while a second connection does a full
    // checksum sweep — it must be completely unaffected.
    std::thread::sleep(Duration::from_millis(200));
    let mut good = Raw::connect(&handle);
    assert_eq!(get_all_checksum(&mut good, &data), expected_checksum(&data));

    // Now drain: every response arrives, in order, complete.
    for _ in 0..scans {
        match slow.recv() {
            Response::Scan { tids, token } => {
                assert_eq!(tids.len(), data.loaded, "full-corpus scan");
                assert!(token.is_none(), "limit covered the whole corpus");
            }
            other => panic!("SCAN answered with {other:?}"),
        }
    }
    handle.shutdown();
}

/// Garbage on the wire gets a typed ERR frame and a closed connection —
/// and nothing else: concurrent connections and subsequent ones are fine.
#[test]
fn garbage_frames_get_typed_errors() {
    let (handle, data) = test_server(Duration::from_secs(10));

    let mut evil = Raw::connect(&handle);
    // A frame whose body is an unknown opcode.
    evil.stream
        .write_all(&[1, 0, 0, 0, 0x7E])
        .expect("garbage accepted at the transport level");
    match evil.try_recv() {
        Some(Response::Error { code, msg }) => {
            assert_eq!(code, hot_server::protocol::err_code::BAD_FRAME);
            assert!(msg.contains("opcode"), "error names the violation: {msg}");
        }
        other => panic!("expected a typed ERR frame, got {other:?}"),
    }
    assert_eq!(
        evil.try_recv(),
        None,
        "connection closed after the framing error"
    );

    // Poll until the error is counted (the connection thread may still be
    // between the write and the counter bump).
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.stats().proto_errors() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(handle.stats().proto_errors(), 1);

    let mut good = Raw::connect(&handle);
    assert_eq!(get_all_checksum(&mut good, &data), expected_checksum(&data));
    handle.shutdown();
}

/// The retired BATCH opcode (`0x05`) is an unknown opcode like any
/// other: a BATCH-shaped frame (count 0) gets a typed `bad_frame` ERR
/// that names it, the connection closes, the violation is counted once,
/// and a second connection's full sweep is unchanged.
#[test]
fn retired_batch_opcode_gets_a_typed_error() {
    use hot_server::protocol::err_code;

    let (handle, data) = test_server(Duration::from_secs(10));
    let mut evil = Raw::connect(&handle);
    evil.stream
        .write_all(&[5, 0, 0, 0, 0x05, 0, 0, 0, 0])
        .expect("frame accepted at the transport level");
    match evil.try_recv() {
        Some(Response::Error { code, msg }) => {
            assert_eq!(code, err_code::BAD_FRAME);
            assert!(
                msg.contains("unknown request opcode 0x05"),
                "error names the opcode: {msg}"
            );
        }
        other => panic!("expected a typed ERR frame, got {other:?}"),
    }
    assert_eq!(
        evil.try_recv(),
        None,
        "connection closed after the violation"
    );

    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.stats().proto_errors() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(handle.stats().proto_errors(), 1);

    let mut good = Raw::connect(&handle);
    assert_eq!(get_all_checksum(&mut good, &data), expected_checksum(&data));
    handle.shutdown();
}

/// Connection threads are bounded: with ten times `max_connections`
/// sockets open, exactly the cap is served, every other one is answered
/// with the typed `overloaded` ERR frame and closed, the active count
/// never exceeds the cap — and a slot freed by a departing client is
/// handed out again.
#[test]
fn connections_beyond_the_cap_are_refused_with_a_typed_error() {
    use hot_server::protocol::err_code;
    const CAP: usize = 4;

    let data = net_data_for(DatasetKind::Integer, KEYS, KEYS, SEED);
    let config = ServerConfig {
        max_connections: CAP,
        ..test_config(Duration::from_secs(10))
    };
    let handle = start_with_data(config, data).expect("server starts");

    // The one acceptor admits in connect order, so the first CAP sockets
    // are the served ones.
    let mut conns: Vec<Raw> = (0..10 * CAP).map(|_| Raw::connect(&handle)).collect();
    let refused = conns.split_off(CAP);
    for conn in &mut conns {
        conn.send_all(&[Request::Ping]);
        assert_eq!(
            conn.recv(),
            Response::None,
            "an admitted connection is served"
        );
        assert!(handle.stats().active() <= CAP as u64);
    }
    for mut conn in refused {
        match conn.try_recv() {
            Some(Response::Error { code, msg }) => {
                assert_eq!(code, err_code::OVERLOADED);
                assert!(msg.contains("limit"), "error names the reason: {msg}");
            }
            other => panic!("expected the overloaded ERR frame, got {other:?}"),
        }
        assert_eq!(conn.try_recv(), None, "refused connection closed");
        assert!(handle.stats().active() <= CAP as u64);
    }
    assert_eq!(handle.stats().accepted(), CAP as u64);
    assert_eq!(handle.stats().rejected(), 9 * CAP as u64);
    assert_eq!(handle.stats().active(), CAP as u64);
    // The served ones were not disturbed by the refusals.
    for conn in &mut conns {
        conn.send_all(&[Request::Ping]);
        assert_eq!(conn.recv(), Response::None);
    }

    // Leaving frees the slots (each connection thread notices the close
    // and counts itself out).
    drop(conns);
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.stats().active() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(handle.stats().active(), 0);
    let mut late = Raw::connect(&handle);
    late.send_all(&[Request::Ping]);
    assert_eq!(
        late.recv(),
        Response::None,
        "a freed slot is handed out again"
    );
    handle.shutdown();
}

/// The SHUTDOWN frame: acknowledged, then the whole server winds down and
/// every thread joins (ServerHandle::join returns).
#[test]
fn shutdown_frame_stops_the_server() {
    let (handle, data) = test_server(Duration::from_secs(10));

    let mut conn = Raw::connect(&handle);
    // Real work first, so shutdown happens with warm connections.
    let reqs = vec![
        Request::Get {
            key: data.dataset.keys[0].clone(),
        },
        Request::Stats,
        Request::Shutdown,
    ];
    conn.send_all(&reqs);
    assert_eq!(conn.recv(), Response::Tid(data.tids[0]));
    match conn.recv() {
        Response::Text(json) => assert!(json.contains("\"requests\""), "stats document: {json}"),
        other => panic!("STATS answered with {other:?}"),
    }
    assert_eq!(conn.recv(), Response::None, "SHUTDOWN acknowledged");

    handle.join(); // returns only because the frame stopped the server
}
