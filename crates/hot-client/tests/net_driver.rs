//! Driver-level coverage beyond windowed parity: a phase written whole
//! before any answer is read must reproduce the same checksums, and the
//! SCAN → RESUME token walk over the wire must reassemble exactly the
//! unbroken scan.

use hot_client::{expected_checksums, run_closed_loop, Connection};
use hot_metrics::Registry;
use hot_server::protocol::{Request, Response};
use hot_server::{net_data_for, start_with_data, ServerConfig, ServerHandle};
use hot_ycsb::{DatasetKind, RequestDistribution, Workload, WorkloadRun};
use std::time::Duration;

const KEYS: usize = 2_000;
const OPS: usize = 2_000;
const SEED: u64 = 11;

fn server(kind: DatasetKind, shards: usize) -> ServerHandle {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        kind,
        keys: KEYS,
        ops: OPS,
        seed: SEED,
        shards,
        window: 64,
        idle_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    start_with_data(config, net_data_for(kind, KEYS, OPS, SEED)).expect("server starts")
}

/// A window as deep as the phase: the client writes every request of the
/// phase before it reads the first answer, and the server still answers
/// each one, in order — the checksums must match the in-process driver
/// exactly.
#[test]
fn unread_phase_checksums_match_in_process() {
    let kind = DatasetKind::Integer;
    let data = net_data_for(kind, KEYS, OPS, SEED);
    let phases = [Workload::A, Workload::C, Workload::E];
    let expected = expected_checksums(&data, &phases, RequestDistribution::Uniform, OPS, SEED, 2);
    let handle = server(kind, 2);
    let mut conn = Connection::connect(handle.addr()).expect("connect");
    let registry = Registry::new();
    for (phase, &workload) in phases.iter().enumerate() {
        let run = WorkloadRun::new(workload, RequestDistribution::Uniform, KEYS, OPS, SEED);
        let report =
            run_closed_loop(&mut conn, &data, &run, OPS, &registry).expect("whole-phase run");
        assert_eq!(report.ops, OPS);
        assert_eq!(
            report.checksum,
            expected[phase],
            "workload {} whole-phase checksum diverged",
            workload.letter(),
        );
    }
    handle.shutdown();
}

/// Page through the whole corpus over the wire with SCAN + RESUME and
/// compare against one unbroken SCAN — the network face of the
/// `hot-core` `scan_token.rs` regression suite.
#[test]
fn resume_tokens_page_the_corpus_exactly() {
    let kind = DatasetKind::Url;
    let data = net_data_for(kind, KEYS, OPS, SEED);
    let handle = server(kind, 4);
    let mut conn = Connection::connect(handle.addr()).expect("connect");

    let smallest = data.dataset.keys[..data.loaded]
        .iter()
        .min()
        .expect("corpus is non-empty")
        .clone();
    let unbroken = match conn
        .call(&Request::Scan {
            start: smallest.clone(),
            limit: data.loaded as u32 + 1,
        })
        .expect("scan")
    {
        Response::Scan { tids, token } => {
            assert!(token.is_none(), "over-asked scan ends the key space");
            tids
        }
        other => panic!("SCAN answered with {other:?}"),
    };
    assert_eq!(unbroken.len(), data.loaded);

    for page in [1usize, 7, 128] {
        let mut paged = Vec::new();
        let mut resp = conn
            .call(&Request::Scan {
                start: smallest.clone(),
                limit: page as u32,
            })
            .expect("first page");
        loop {
            match resp {
                Response::Scan { mut tids, token } => {
                    paged.append(&mut tids);
                    match token {
                        Some(token) => {
                            resp = conn
                                .call(&Request::Resume {
                                    token,
                                    limit: page as u32,
                                })
                                .expect("resume");
                        }
                        None => break,
                    }
                }
                other => panic!("paging answered with {other:?}"),
            }
        }
        assert_eq!(paged, unbroken, "page={page} reassembly diverged");
    }
    handle.shutdown();
}

/// PUT with a TID that does not resolve to the claimed key is refused
/// with the typed error and leaves the index unchanged.
#[test]
fn put_validates_tid_against_the_corpus() {
    let kind = DatasetKind::Integer;
    let data = net_data_for(kind, KEYS, OPS, SEED);
    let handle = server(kind, 2);
    let mut conn = Connection::connect(handle.addr()).expect("connect");

    // Claim key[0]'s bytes under key[1]'s TID.
    let resp = conn
        .call(&Request::Put {
            tid: data.tids[1],
            key: data.dataset.keys[0].clone(),
        })
        .expect("call");
    match resp {
        Response::Error { code, .. } => {
            assert_eq!(code, hot_server::protocol::err_code::TID_MISMATCH);
        }
        other => panic!("mismatched PUT answered with {other:?}"),
    }
    // A bogus offset (points into the middle of a record) is refused too.
    let resp = conn
        .call(&Request::Put {
            tid: u64::MAX - 3,
            key: data.dataset.keys[0].clone(),
        })
        .expect("call");
    assert!(
        matches!(resp, Response::Error { .. }),
        "out-of-arena TID must be refused, got {resp:?}"
    );
    // The index still answers the original binding.
    let resp = conn
        .call(&Request::Get {
            key: data.dataset.keys[0].clone(),
        })
        .expect("call");
    assert_eq!(resp, Response::Tid(data.tids[0]));
    handle.shutdown();
}
