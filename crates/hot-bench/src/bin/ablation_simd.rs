//! Ablation — what the hardware primitives buy (Section 4's design
//! rationale): run the workload-C lookup benchmark for HOT with the
//! BMI2/AVX2 paths enabled vs. forced to the portable scalar fallbacks
//! (`HOT_FORCE_SCALAR=1`).
//!
//! Feature detection is cached process-wide, so the binary re-executes
//! itself once with the environment variable set and compares. The two
//! runs load the same keys and replay the same operations, so the scalar
//! run must return the hardware run's workload-C checksum on every data
//! set; the parent reads the re-run's rows and asserts it.
//!
//! ```text
//! cargo run --release -p hot-bench --bin ablation_simd -- --keys 500000 --ops 1000000
//! ```

use hot_bench::{print_host, row, run_load, run_transactions, BenchData, Config, HotIndex};
use hot_ycsb::{Dataset, DatasetKind, RequestDistribution, Workload, WorkloadRun};
use std::sync::Arc;

fn main() {
    let config = Config::from_args(&["--keys", "--ops", "--seed"]);
    let forced = std::env::var_os("HOT_FORCE_SCALAR").is_some_and(|v| !v.is_empty());

    if !forced {
        print_host();
        println!(
            "# SIMD ablation: HOT workload C + insert, hardware (PEXT/AVX2) vs scalar (keys={}, ops={})",
            config.keys, config.ops
        );
        println!("# expected: the hardware paths win lookups clearly; scalar PEXT hurts extraction most on multi-mask (string) nodes");
        row(&[
            "mode".into(),
            "dataset".into(),
            "lookup_mops".into(),
            "insert_mops".into(),
            "checksum".into(),
        ]);
    }
    let mode = if forced { "scalar" } else { "simd" };

    let mut checksums = Vec::new();
    for kind in [DatasetKind::Integer, DatasetKind::Email, DatasetKind::Url] {
        let data = BenchData::new(Dataset::generate(kind, config.keys, config.seed));
        let mut index = HotIndex::new(Arc::clone(&data.arena));
        let insert_mops = run_load(&mut index, &data, config.keys);
        let run = WorkloadRun::new(
            Workload::C,
            RequestDistribution::Uniform,
            config.keys,
            config.ops,
            config.seed,
        );
        let (lookup_mops, checksum) = run_transactions(&mut index, &data, &run);
        row(&[
            mode.into(),
            kind.label().into(),
            format!("{lookup_mops:.3}"),
            format!("{insert_mops:.3}"),
            checksum.to_string(),
        ]);
        checksums.push((kind.label(), checksum.to_string()));
    }

    if !forced {
        // Re-run ourselves with the scalar fallbacks forced.
        let exe = std::env::current_exe().expect("own path");
        let scalar = std::process::Command::new(exe)
            .args(std::env::args().skip(1))
            .env("HOT_FORCE_SCALAR", "1")
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("spawn scalar run");
        assert!(scalar.status.success(), "scalar run failed");
        let rows = String::from_utf8(scalar.stdout).expect("scalar run prints text");
        print!("{rows}");
        let scalar_sums: Vec<(&str, String)> = rows
            .lines()
            .filter_map(|line| match line.split('\t').collect::<Vec<_>>()[..] {
                ["scalar", dataset, _, _, checksum] => Some((dataset, checksum.to_owned())),
                _ => None,
            })
            .collect();
        assert_eq!(
            scalar_sums, checksums,
            "scalar run's workload-C checksums differ from the hardware run's"
        );
    }
}
