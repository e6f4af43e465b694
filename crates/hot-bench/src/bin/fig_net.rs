//! Network serving benchmark — the loopback face of the YCSB figures:
//! workloads A → C → E driven through the hot-server binary protocol
//! (closed-loop pipelining client against an in-process server on
//! 127.0.0.1) per data set and shard count.
//!
//! This measures the serving stack — framing, request windows, batched
//! trie execution, response encoding — not the network: loopback RTT is
//! the floor, so the interesting numbers are the *gap* to the in-process
//! driver (EXPERIMENTS.md discusses the methodology) and the latency
//! percentiles under pipelining. Checksums are always compared against
//! the in-process ground truth; `--check` promotes a mismatch to a
//! non-zero exit.
//!
//! Writes `results/BENCH_net.json` with one row per dataset × shard
//! count, fields `<w>_mops` (higher is better) and `<w>_p50_us` /
//! `<w>_p99_us` / `<w>_p999_us` (lower is better) per workload — both
//! polarities are gated by `cargo xtask bench-check`.
//!
//! ```text
//! cargo run --release -p hot-bench --bin fig_net -- --keys 100000 --ops 100000 --shards 1,4
//! ```

use hot_bench::{row, Config};
use hot_client::{expected_checksums, run_closed_loop, Connection, Registry};
use hot_server::{net_data_for, start_with_data, ServerConfig};
use hot_ycsb::{DatasetKind, RequestDistribution, Workload, WorkloadRun};
use std::time::Duration;

/// The phase sequence: every pipelineable workload class — update-heavy
/// (A), read-only (C), scan-heavy (E).
const PHASES: [Workload; 3] = [Workload::A, Workload::C, Workload::E];

/// In-flight request window per connection: deep enough to keep the
/// server's batched drain paths fed, matching the server default.
const WINDOW: usize = 128;

fn main() {
    let mut config = Config::from_args();
    if config.shards.is_empty() {
        config.shards = vec![1, 4];
    }
    println!(
        "# Network YCSB: closed-loop pipelined client over loopback (keys={}, ops={}, window={WINDOW}, shards={:?})",
        config.keys, config.ops, config.shards
    );
    println!("# paper_shape: serving adds framing + syscall cost over the in-process driver; batching in the request window claws most of it back");
    row(&[
        "dataset".into(),
        "shards".into(),
        "workload".into(),
        "mops".into(),
        "p50_us".into(),
        "p99_us".into(),
        "p999_us".into(),
        "checksum_ok".into(),
    ]);

    let mut json_rows: Vec<String> = Vec::new();
    let mut failed = false;
    for kind in DatasetKind::ALL {
        for &shards in &config.shards {
            let data = net_data_for(kind, config.keys, config.ops, config.seed);
            let expected = expected_checksums(
                &data,
                &PHASES,
                RequestDistribution::Uniform,
                config.ops,
                config.seed,
                shards,
            );
            let server_config = ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                kind,
                keys: config.keys,
                ops: config.ops,
                seed: config.seed,
                shards,
                window: WINDOW,
                idle_timeout: Duration::from_secs(60),
                ..ServerConfig::default()
            };
            let handle = start_with_data(
                server_config,
                net_data_for(kind, config.keys, config.ops, config.seed),
            )
            .expect("loopback server starts");
            let mut conn = Connection::connect(handle.addr()).expect("loopback connect");
            let registry = Registry::new();

            let label = kind.label();
            let mut fields = String::new();
            for (phase, &workload) in PHASES.iter().enumerate() {
                let run = WorkloadRun::new(
                    workload,
                    RequestDistribution::Uniform,
                    config.keys,
                    config.ops,
                    config.seed,
                );
                let report = run_closed_loop(&mut conn, &data, &run, workload, WINDOW, &registry)
                    .expect("network phase completes");
                let ok = report.checksum == expected[phase];
                if !ok {
                    eprintln!(
                        "# CHECKSUM MISMATCH {label} shards={shards} workload {}: network {:#018x} != in-process {:#018x}",
                        workload.letter(),
                        report.checksum,
                        expected[phase],
                    );
                    failed = true;
                }
                row(&[
                    label.into(),
                    shards.to_string(),
                    workload.letter().into(),
                    format!("{:.3}", report.mops),
                    format!("{:.1}", report.p50_us),
                    format!("{:.1}", report.p99_us),
                    format!("{:.1}", report.p999_us),
                    ok.to_string(),
                ]);
                let w = workload.letter().to_ascii_lowercase();
                fields.push_str(&format!(
                    ", \"{w}_mops\": {:.3}, \"{w}_p50_us\": {:.1}, \"{w}_p99_us\": {:.1}, \"{w}_p999_us\": {:.1}",
                    report.mops, report.p50_us, report.p99_us, report.p999_us
                ));
            }
            json_rows.push(format!(
                "{{\"dataset\": \"{label}\", \"structure\": \"net{shards}\"{fields}}}"
            ));
            handle.shutdown();
        }
    }

    write_net_json(&config, &json_rows);
    if failed {
        eprintln!("# fig_net: network/in-process checksum divergence (see rows above)");
        if config.check {
            std::process::exit(1);
        }
    } else {
        println!("# all network checksums match the in-process driver");
    }
}

/// Hand-rolled JSON in the `rows: [{dataset, structure, <field>...}]`
/// shape the bench-check gate parses. `*_mops` fields gate higher-is-
/// better, `*_us` latency fields lower-is-better.
fn write_net_json(config: &Config, rows: &[String]) {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"fig_net_serving\",\n");
    out.push_str(&format!(
        "  \"keys\": {}, \"ops\": {}, \"seed\": {}, \"window\": {WINDOW},\n",
        config.keys, config.ops, config.seed
    ));
    out.push_str("  \"rows\": [\n");
    for (i, json) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {json}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/BENCH_net.json", &out))
    {
        eprintln!("# could not write results/BENCH_net.json: {e}");
    } else {
        eprintln!("# wrote results/BENCH_net.json");
    }
}
