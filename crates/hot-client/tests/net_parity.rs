//! Network/in-process parity: the YCSB checksums computed over the wire
//! must be byte-identical to the in-process driver on every data set, at
//! shard counts 1 and 4, across the A → C → E phase sequence — the
//! acceptance gate of the serving layer. One more test fans eight
//! connections with small windows into one server at once.
//!
//! Runs in the normal and `HOT_FORCE_SCALAR` CI lanes: the server executes
//! through the same batched trie paths as the in-process harness, so
//! kernel-specific divergence would surface here as a checksum break.

use hot_client::{expected_checksums, run_closed_loop, Connection};
use hot_metrics::Registry;
use hot_server::protocol::{Request, Response};
use hot_server::{net_data_for, start_with_data, ServerConfig, ServerHandle};
use hot_ycsb::{DatasetKind, RequestDistribution, Workload, WorkloadRun};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const KEYS: usize = 3_000;
const OPS: usize = 3_000;
const SEED: u64 = 42;
const PHASES: [Workload; 3] = [Workload::A, Workload::C, Workload::E];

/// A server over the `KEYS`-key corpus of `kind`.
fn start_server(kind: DatasetKind, shards: usize) -> ServerHandle {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        kind,
        keys: KEYS,
        ops: OPS,
        seed: SEED,
        shards,
        window: 128,
        idle_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    start_with_data(config, net_data_for(kind, KEYS, OPS, SEED)).expect("server starts")
}

/// Run the full phase sequence over the wire and compare each phase's
/// checksum with the in-process ground truth.
fn parity_for(kind: DatasetKind, shards: usize, window: usize) {
    let data = net_data_for(kind, KEYS, OPS, SEED);
    let expected = expected_checksums(
        &data,
        &PHASES,
        RequestDistribution::Uniform,
        OPS,
        SEED,
        shards,
    );
    let handle = start_server(kind, shards);

    let mut conn = Connection::connect(handle.addr()).expect("connect");
    let registry = Registry::new();
    for (phase, &workload) in PHASES.iter().enumerate() {
        let run = WorkloadRun::new(workload, RequestDistribution::Uniform, KEYS, OPS, SEED);
        let report =
            run_closed_loop(&mut conn, &data, &run, window, &registry).expect("network run");
        assert_eq!(
            report.checksum,
            expected[phase],
            "{} workload {} shards={shards} window={window}: network checksum diverged",
            kind.label(),
            workload.letter(),
        );
        assert_eq!(report.ops, OPS);
    }
    handle.shutdown();
}

#[test]
fn integer_parity_all_shard_counts() {
    parity_for(DatasetKind::Integer, 1, 32);
    parity_for(DatasetKind::Integer, 4, 32);
}

#[test]
fn url_parity_all_shard_counts() {
    parity_for(DatasetKind::Url, 1, 32);
    parity_for(DatasetKind::Url, 4, 32);
}

#[test]
fn email_parity_all_shard_counts() {
    parity_for(DatasetKind::Email, 1, 32);
    parity_for(DatasetKind::Email, 4, 32);
}

#[test]
fn yago_parity_all_shard_counts() {
    parity_for(DatasetKind::Yago, 1, 32);
    parity_for(DatasetKind::Yago, 4, 32);
}

/// The degenerate window (strict request–response) and a deep pipeline
/// must agree with each other and with the ground truth — checksum parity
/// is insensitive to how requests are grouped into windows.
#[test]
fn window_depth_does_not_change_checksums() {
    parity_for(DatasetKind::Integer, 2, 1);
    parity_for(DatasetKind::Integer, 2, 256);
}

/// The shape of an OLTP front-end: many connections, few requests in
/// flight on each, reads and writes at once. Workload A's updates re-put
/// the corpus TID, so the index never changes and each connection's
/// checksums depend on its own stream alone — whatever the interleaving,
/// they must equal the in-process run of that stream. The connections
/// start their phases together behind a barrier.
#[test]
fn fan_in_small_windows_keep_per_connection_parity() {
    const CONNS: usize = 8;
    const WINDOW: usize = 4;
    const FAN_OPS: usize = 1_500;
    const FAN_PHASES: [Workload; 2] = [Workload::A, Workload::C];

    for kind in [DatasetKind::Integer, DatasetKind::Url] {
        let data = net_data_for(kind, KEYS, OPS, SEED);
        for shards in [1usize, 2, 4] {
            let handle = start_server(kind, shards);
            let addr = handle.addr();
            let barrier = Barrier::new(CONNS);
            std::thread::scope(|scope| {
                for c in 0..CONNS {
                    let (data, barrier) = (&data, &barrier);
                    scope.spawn(move || {
                        let seed = SEED + c as u64;
                        let dist = RequestDistribution::Uniform;
                        let expected =
                            expected_checksums(data, &FAN_PHASES, dist, FAN_OPS, seed, shards);
                        let mut conn = Connection::connect(addr).expect("connect");
                        let registry = Registry::new();
                        for (phase, &workload) in FAN_PHASES.iter().enumerate() {
                            let run = WorkloadRun::new(workload, dist, KEYS, FAN_OPS, seed);
                            barrier.wait();
                            let report = run_closed_loop(&mut conn, data, &run, WINDOW, &registry)
                                .expect("network run");
                            assert_eq!(
                                report.checksum,
                                expected[phase],
                                "{} workload {} shards={shards} connection {c}",
                                kind.label(),
                                workload.letter(),
                            );
                        }
                    });
                }
            });

            // Every loaded key still answers its corpus TID.
            let mut sweep = Connection::connect(addr).expect("connect");
            for lo in (0..data.loaded).step_by(128) {
                let chunk = lo..(lo + 128).min(data.loaded);
                for i in chunk.clone() {
                    sweep.send(&Request::Get {
                        key: data.dataset.keys[i].clone(),
                    });
                }
                sweep.flush().expect("flush");
                for i in chunk {
                    assert_eq!(sweep.recv().expect("answer"), Response::Tid(data.tids[i]));
                }
            }

            // The eight connections were admitted and, once the server has
            // seen their sockets close, only the sweep's is left.
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let Response::Text(doc) = sweep.call(&Request::Stats).expect("STATS") else {
                    panic!("STATS answers with text")
                };
                let field = |name: &str| -> u64 {
                    let tail = doc.split(&format!("\"{name}\": ")).nth(1).expect(name);
                    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
                    digits.parse().expect(name)
                };
                assert_eq!(field("accepted"), CONNS as u64 + 1, "{doc}");
                if field("active") == 1 {
                    break;
                }
                assert!(Instant::now() < deadline, "connections never closed: {doc}");
                std::thread::sleep(Duration::from_millis(10));
            }
            handle.shutdown();
        }
    }
}
