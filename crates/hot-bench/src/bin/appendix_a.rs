//! Appendix A — the full benchmark grid: all six YCSB workloads × four data
//! sets × two request distributions (uniform, Zipfian) × four structures.
//!
//! Paper shape: the same ordering as Figure 8 holds across the grid — HOT
//! leads or ties every cell except insert-heavy operation on the integer
//! data set, where ART leads; Zipfian results track the uniform ones.
//!
//! This is the longest-running binary (48 configurations); scale `--keys` /
//! `--ops` accordingly.
//!
//! ```text
//! cargo run --release -p hot-bench --bin appendix_a -- --keys 300000 --ops 600000
//! ```

use hot_bench::{all_indexes, print_host, row, run_load, run_transactions, BenchData, Config};
use hot_ycsb::{Dataset, DatasetKind, RequestDistribution, Workload, WorkloadRun};

fn main() {
    let config = Config::from_args(&["--keys", "--ops", "--seed"]);
    print_host();
    println!(
        "# Appendix A: all workloads x data sets x distributions (keys={}, ops={}, seed={})",
        config.keys, config.ops, config.seed
    );
    println!("# paper_shape: same ordering as Figure 8 in every cell; zipfian tracks uniform");
    row(&[
        "workload".into(),
        "distribution".into(),
        "dataset".into(),
        "structure".into(),
        "mops".into(),
    ]);

    for kind in DatasetKind::ALL {
        // One dataset (with worst-case reserve) serves all configurations.
        let max_reserve = WorkloadRun::new(
            Workload::E,
            RequestDistribution::Uniform,
            config.keys,
            config.ops,
            config.seed,
        )
        .reserve_keys();
        let data = BenchData::new(Dataset::generate(
            kind,
            config.keys + max_reserve,
            config.seed,
        ));

        for workload in Workload::ALL {
            for distribution in RequestDistribution::ALL {
                let run =
                    WorkloadRun::new(workload, distribution, config.keys, config.ops, config.seed);
                for mut index in all_indexes(&data.arena) {
                    run_load(index.as_mut(), &data, config.keys);
                    let (tx_mops, checksum) = run_transactions(index.as_mut(), &data, &run);
                    row(&[
                        format!("{workload:?}"),
                        distribution.label().into(),
                        kind.label().into(),
                        index.name().into(),
                        format!("{tx_mops:.3}"),
                    ]);
                    std::hint::black_box(checksum);
                }
            }
        }
    }
}
