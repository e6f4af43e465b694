//! Network/in-process parity: the YCSB checksums computed over the wire
//! must be byte-identical to the in-process driver on every data set, at
//! shard counts 1 and 4, across the A → C → E phase sequence — the
//! acceptance gate of the serving layer.
//!
//! Runs in the normal and `HOT_FORCE_SCALAR` CI lanes: the server executes
//! through the same batched trie paths as the in-process harness, so
//! kernel-specific divergence would surface here as a checksum break.

use hot_client::{expected_checksums, run_closed_loop, Connection};
use hot_metrics::Registry;
use hot_server::{net_data_for, start_with_data, ServerConfig};
use hot_ycsb::{DatasetKind, RequestDistribution, Workload, WorkloadRun};
use std::time::Duration;

const KEYS: usize = 3_000;
const OPS: usize = 3_000;
const SEED: u64 = 42;
const PHASES: [Workload; 3] = [Workload::A, Workload::C, Workload::E];

/// Run the full phase sequence over the wire and compare each phase's
/// checksum with the in-process ground truth.
fn parity_for(kind: DatasetKind, shards: usize, window: usize) {
    let data = net_data_for(kind, KEYS, OPS, SEED);
    let expected =
        expected_checksums(&data, &PHASES, RequestDistribution::Uniform, OPS, SEED, shards);

    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        kind,
        keys: KEYS,
        ops: OPS,
        seed: SEED,
        shards,
        // Exercise the shard-owning worker pool exactly when there is
        // real parallelism to route to.
        workers: shards > 1,
        pin: false,
        window: 128,
        idle_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    let handle = start_with_data(config, net_data_for(kind, KEYS, OPS, SEED))
        .expect("server starts");

    let mut conn = Connection::connect(handle.addr()).expect("connect");
    let registry = Registry::new();
    for (phase, &workload) in PHASES.iter().enumerate() {
        let run = WorkloadRun::new(workload, RequestDistribution::Uniform, KEYS, OPS, SEED);
        let report = run_closed_loop(&mut conn, &data, &run, workload, window, &registry)
            .expect("network run");
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
