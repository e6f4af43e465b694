//! Network YCSB: drive a running hot-server through the paper's workload
//! mix and report throughput, latency percentiles, and checksum parity
//! with the in-process driver.
//!
//! ```text
//! net_ycsb --addr 127.0.0.1:4600 --dataset integer --keys 100000 \
//!          --ops 100000 --seed 42 --shards 4 --workloads A,C,E \
//!          [--window N] [--zipfian] [--check] [--shutdown]
//! ```
//!
//! `--dataset/--keys/--ops/--seed` must match the server's invocation —
//! both sides materialize the same corpus (see `hot_server::NetData`).
//! `--shards` only parameterizes the in-process reference index used for
//! `--check`. With `--check`, any checksum mismatch exits non-zero; with
//! `--shutdown`, the server is asked to stop after the last phase.

use hot_client::{expected_checksums, run_closed_loop, Connection};
use hot_metrics::Registry;
use hot_server::net_data_for;
use hot_ycsb::{DatasetKind, RequestDistribution, Workload};

struct Args {
    addr: String,
    kind: DatasetKind,
    keys: usize,
    ops: usize,
    seed: u64,
    shards: usize,
    workloads: Vec<Workload>,
    window: usize,
    dist: RequestDistribution,
    check: bool,
    shutdown: bool,
}

fn parse_args() -> Args {
    let mut out = Args {
        addr: String::new(),
        kind: DatasetKind::Integer,
        keys: 100_000,
        ops: 100_000,
        seed: 42,
        shards: 4,
        workloads: vec![Workload::A, Workload::C, Workload::E],
        window: 64,
        dist: RequestDistribution::Uniform,
        check: false,
        shutdown: false,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                out.addr = args[i + 1].clone();
                i += 2;
            }
            "--dataset" => {
                out.kind = args[i + 1]
                    .parse()
                    .expect("--dataset url|email|yago|integer");
                i += 2;
            }
            "--keys" => {
                out.keys = args[i + 1].parse().expect("--keys N");
                i += 2;
            }
            "--ops" => {
                out.ops = args[i + 1].parse().expect("--ops N");
                i += 2;
            }
            "--seed" => {
                out.seed = args[i + 1].parse().expect("--seed N");
                i += 2;
            }
            "--shards" => {
                out.shards = args[i + 1].parse().expect("--shards N");
                i += 2;
            }
            "--workloads" => {
                out.workloads = args[i + 1]
                    .split(',')
                    .map(|w| w.parse().expect("--workloads A,C,E"))
                    .collect();
                i += 2;
            }
            "--window" => {
                out.window = args[i + 1].parse().expect("--window N");
                i += 2;
            }
            "--zipfian" => {
                out.dist = RequestDistribution::Zipfian;
                i += 1;
            }
            "--check" => {
                out.check = true;
                i += 1;
            }
            "--shutdown" => {
                out.shutdown = true;
                i += 1;
            }
            other => {
                eprintln!(
                    "unknown argument: {other} (expected --addr/--dataset/--keys/--ops/--seed/\
                     --shards/--workloads/--window/--zipfian/--check/--shutdown)"
                );
                std::process::exit(2);
            }
        }
    }
    if out.addr.is_empty() {
        eprintln!("--addr is required");
        std::process::exit(2);
    }
    out
}

fn main() {
    let args = parse_args();
    let data = net_data_for(args.kind, args.keys, args.ops, args.seed);
    let expected = if args.check {
        expected_checksums(
            &data,
            &args.workloads,
            args.dist,
            args.ops,
            args.seed,
            args.shards,
        )
    } else {
        Vec::new()
    };

    let mut conn = Connection::connect(&args.addr).unwrap_or_else(|e| {
        eprintln!("net_ycsb: cannot connect to {}: {e}", args.addr);
        std::process::exit(1);
    });
    let registry = Registry::new();
    println!("workload\tmops\tp50_us\tp99_us\tp999_us\tchecksum");
    let mut failed = false;
    for (phase, &workload) in args.workloads.iter().enumerate() {
        let run = hot_ycsb::WorkloadRun::new(workload, args.dist, args.keys, args.ops, args.seed);
        let report = run_closed_loop(&mut conn, &data, &run, args.window, &registry)
            .unwrap_or_else(|e| {
                eprintln!("net_ycsb: workload {} failed: {e}", workload.letter());
                std::process::exit(1);
            });
        println!(
            "{}\t{:.3}\t{:.1}\t{:.1}\t{:.1}\t{:#018x}",
            workload.letter(),
            report.mops,
            report.p50_us,
            report.p99_us,
            report.p999_us,
            report.checksum,
        );
        if args.check {
            if report.checksum == expected[phase] {
                println!(
                    "# workload {}: checksum matches in-process driver",
                    workload.letter()
                );
            } else {
                eprintln!(
                    "net_ycsb: workload {} checksum {:#018x} != in-process {:#018x}",
                    workload.letter(),
                    report.checksum,
                    expected[phase],
                );
                failed = true;
            }
        }
    }
    if args.shutdown {
        if let Err(e) = conn.shutdown_server() {
            eprintln!("net_ycsb: shutdown request failed: {e}");
            failed = true;
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}
