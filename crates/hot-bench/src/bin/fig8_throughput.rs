//! Figure 8 — single-threaded throughput (million operations / second) for
//! the lookup-only workload C, the scan-heavy workload E and the insert-only
//! load phase, over all four data sets and all four index structures.
//!
//! Paper shape (Section 6.2): HOT wins workload C on every data set (≥ 25%
//! over the best competitor), wins workload E everywhere (up to 3× on url),
//! and wins insert-only on all string data sets while ART leads on the
//! integer data set (~1.5× over HOT).
//!
//! Beyond the paper, a `C_batch` row re-runs workload C through the batched
//! read path (`BenchIndex::get_batch`, window `--batch N`): HOT's batched
//! descent engine vs. the baselines' scalar fallback. Checksums of the two
//! paths are asserted equal. Workload E likewise runs once per scan path —
//! `E` (HOT's cursor-amortized scan), `E_alloc` (the allocating per-call
//! path) and `E_batch` (the batched path) — each on a freshly loaded
//! index, with the three checksums asserted equal.
//!
//! With `--bulk`, an extra load-phase row appears per structure:
//! `load_bulk`, sorted input through the structure's own bulk load (HOT's
//! is the bottom-up builder), and every bulk-built index is spot-checked
//! to resolve the keys it was loaded with. HOT's plain `bulk_load` scans on
//! every core it may run on, and builds on them too once the load is large
//! enough for the store's own chunks (DESIGN.md §11.4); pin the run to one
//! core with `taskset -c 0` to compare it with the one-thread loaders of
//! the other structures.
//!
//! ```text
//! taskset -c 0 cargo run --release -p hot-bench --bin fig8_throughput -- --keys 1000000 --ops 2000000 --bulk
//! ```
//!
//! With `--check`, every structural invariant of the HOT trie is verified
//! after the load phase and again after each mutating workload-E run
//! (whole-tree walk: fanout bounds, linearization well-formedness, height
//! monotonicity, key ordering, full re-lookup — see
//! `hot_core::Hot::try_check_invariants`).
//! The checks run strictly outside the timed regions, so reported
//! throughput is unchanged; the run aborts on the first violation.
//!
//! With `--metrics` (requires a binary built with `--features metrics`),
//! an extra instrumented pass runs *after* the timed figure on fresh
//! indexes: per workload phase it reports operation counts and p50/p99/p999
//! latencies from the in-trie histograms, plus ROWEX health counters
//! (restarts, lock failures, epoch pins) from a concurrent mixed run. The
//! figure's own timed numbers are never taken from instrumented indexes.

use hot_bench::{
    all_indexes, print_host, row, run_load, run_load_bulk, run_transactions,
    run_transactions_batched, run_transactions_fresh_scans, BenchData, Config,
};
use hot_ycsb::{Dataset, DatasetKind, RequestDistribution, Workload, WorkloadRun};

fn main() {
    let config = Config::from_args(&[
        "--keys",
        "--ops",
        "--seed",
        "--threads",
        "--batch",
        "--check",
        "--bulk",
        "--metrics",
    ]);
    print_host();
    println!(
        "# Figure 8: throughput in Mops (keys={}, ops={}, seed={}, uniform distribution, batch={})",
        config.keys, config.ops, config.seed, config.batch
    );
    println!("# paper_shape: HOT highest on C and E for all data sets; insert-only: HOT highest on strings, ART ~1.5x HOT on integer");
    println!("# C_batch: workload C through get_batch (window={}); HOT overlaps misses, baselines run the scalar fallback", config.batch);
    row(&[
        "workload".into(),
        "dataset".into(),
        "structure".into(),
        "mops".into(),
    ]);

    for kind in DatasetKind::ALL {
        // Reserve insert keys for workload E.
        let e_run = WorkloadRun::new(
            Workload::E,
            RequestDistribution::Uniform,
            config.keys,
            config.ops,
            config.seed,
        );
        let data = BenchData::new(Dataset::generate(
            kind,
            config.keys + e_run.reserve_keys(),
            config.seed,
        ));

        for mut index in all_indexes(&data.arena) {
            // Insert-only = the load phase itself.
            let load_mops = run_load(index.as_mut(), &data, config.keys);
            check_index(&config, index.as_ref(), kind.label(), "load");

            // Workload C (100% lookup), scalar then batched over the same
            // read-only stream.
            let c_run = WorkloadRun::new(
                Workload::C,
                RequestDistribution::Uniform,
                config.keys,
                config.ops,
                config.seed,
            );
            let (c_mops, c_sum) = run_transactions(index.as_mut(), &data, &c_run);
            let (cb_mops, cb_sum) =
                run_transactions_batched(index.as_mut(), &data, &c_run, config.batch);
            assert_eq!(
                c_sum, cb_sum,
                "batched lookups must resolve the same TIDs as scalar ones"
            );

            row(&[
                "C".into(),
                kind.label().into(),
                index.name().into(),
                format!("{c_mops:.3}"),
            ]);
            row(&[
                "C_batch".into(),
                kind.label().into(),
                index.name().into(),
                format!("{cb_mops:.3}"),
            ]);
            row(&[
                "insert".into(),
                kind.label().into(),
                index.name().into(),
                format!("{load_mops:.3}"),
            ]);
            // Keep checksums observable so the compiler cannot drop work.
            eprintln!("# {} {}: checksum C={c_sum:x}", kind.label(), index.name());
        }

        // Workload E (95% scan / 5% insert), once per scan path: `E`
        // through the amortized cursor scan (for HOT; baselines run their
        // only path), `E_alloc` through the pre-cursor allocating path and
        // `E_batch` through the coalesced batched path. Every path runs on
        // a freshly loaded index — E inserts reserve keys, so a run on an
        // already-run index would see other keys — and the three rows of
        // a structure differ only in the path, so their checksums must be
        // equal.
        let mut e_sums: Vec<u64> = Vec::new();
        for path in ["E", "E_alloc", "E_batch"] {
            for (i, mut index) in all_indexes(&data.arena).into_iter().enumerate() {
                run_load(index.as_mut(), &data, config.keys);
                let (e_mops, e_sum) = match path {
                    "E" => run_transactions(index.as_mut(), &data, &e_run),
                    "E_alloc" => run_transactions_fresh_scans(index.as_mut(), &data, &e_run),
                    _ => run_transactions_batched(index.as_mut(), &data, &e_run, config.batch),
                };
                check_index(&config, index.as_ref(), kind.label(), path);
                match e_sums.get(i) {
                    Some(&want) => assert_eq!(
                        e_sum, want,
                        "{path} must return the same entries as the cursor path"
                    ),
                    None => e_sums.push(e_sum),
                }
                row(&[
                    path.into(),
                    kind.label().into(),
                    index.name().into(),
                    format!("{e_mops:.3}"),
                ]);
            }
        }

        // `--bulk`: load one more fresh set of indexes over the same data
        // through their bulk loads and report load throughput next to the
        // insert-loop number from above.
        if config.bulk {
            for mut index in all_indexes(&data.arena) {
                let bulk_mops = run_load_bulk(index.as_mut(), &data, config.keys);
                check_index(&config, index.as_ref(), kind.label(), "bulk load");
                verify_bulk_gets(&data, index.as_ref(), config.keys);
                row(&[
                    "load_bulk".into(),
                    kind.label().into(),
                    index.name().into(),
                    format!("{bulk_mops:.3}"),
                ]);
            }
        }
    }

    #[cfg(feature = "metrics")]
    if config.metrics {
        metrics_pass::run(&config);
    }
}

/// Bulk-built indexes must resolve exactly the keys they were loaded with.
/// Samples the key set (always on — the cost is outside any timed region).
fn verify_bulk_gets(data: &BenchData, index: &dyn hot_bench::BenchIndex, load_n: usize) {
    let step = (load_n / 1024).max(1);
    for i in (0..load_n).step_by(step) {
        let key = &data.dataset.keys[i];
        assert_eq!(index.get(key), Some(data.tids[i]), "bulk load lost a key");
    }
}

/// `--check` hook: verify the index's structural invariants between (never
/// inside) timed phases. Panics on violation; indexes without a checker
/// report nothing.
fn check_index(config: &Config, index: &dyn hot_bench::BenchIndex, dataset: &str, phase: &str) {
    if !config.check {
        return;
    }
    if let Some(summary) = index.check_invariants() {
        eprintln!(
            "# check: {} {} after {phase}: ok ({summary})",
            dataset,
            index.name()
        );
    }
}

/// `--metrics` instrumented pass (only with the `metrics` cargo feature).
///
/// Runs on fresh indexes after the timed figure so the figure's throughput
/// numbers are never taken from snapshotted runs. Per data set:
///
/// * a single-threaded `HotIndex` goes through load / workload C /
///   batched C / workload E with a [`PhaseRecorder`] diffing the trie's
///   cumulative histograms at each phase boundary — one `metrics` row of
///   per-op count and p50/p99/p999 latency per phase and op;
/// * a `ConcurrentHot` with the largest `--threads` budget runs a striped
///   load plus a 90/10 read/upsert mix, and its ROWEX health counters
///   (lock failures, restarts, epoch pins) and restart rate are printed.
#[cfg(feature = "metrics")]
mod metrics_pass {
    use hot_bench::{
        row, run_load, run_transactions, run_transactions_batched, BenchData, Config, HotIndex,
    };
    use hot_core::sync::ConcurrentHot;
    use hot_metrics::{OpKind, RowexCounter};
    use hot_ycsb::{
        Dataset, DatasetKind, PhaseRecorder, RequestDistribution, Workload, WorkloadRun,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    pub(super) fn run(config: &Config) {
        println!("# metrics: instrumented pass (feature \"metrics\"): per-phase latency percentiles + ROWEX health");
        row(&[
            "metrics".into(),
            "dataset".into(),
            "phase".into(),
            "op".into(),
            "count".into(),
            "p50_ns".into(),
            "p99_ns".into(),
            "p999_ns".into(),
        ]);

        for kind in DatasetKind::ALL {
            let e_run = WorkloadRun::new(
                Workload::E,
                RequestDistribution::Uniform,
                config.keys,
                config.ops,
                config.seed,
            );
            let data = BenchData::new(Dataset::generate(
                kind,
                config.keys + e_run.reserve_keys(),
                config.seed,
            ));

            let rec = single_thread_phases(config, &data, &e_run);
            for p in rec.phases() {
                for op in OpKind::ALL {
                    let s = p.delta.op(op);
                    if s.count == 0 {
                        continue;
                    }
                    row(&[
                        "metrics".into(),
                        kind.label().into(),
                        p.name.clone(),
                        op.label().into(),
                        s.count.to_string(),
                        s.p50_ns().to_string(),
                        s.p99_ns().to_string(),
                        s.p999_ns().to_string(),
                    ]);
                }
            }
            concurrent_pass(config, &data, kind.label());
        }
    }

    /// Load / C / batched-C / E on a fresh single-threaded `HotIndex`,
    /// diffed into per-phase deltas.
    fn single_thread_phases(
        config: &Config,
        data: &BenchData,
        e_run: &WorkloadRun,
    ) -> PhaseRecorder {
        let mut index = HotIndex::new(Arc::clone(&data.arena));
        let mut rec = PhaseRecorder::new();

        rec.begin(index.trie().metrics_ops_snapshot());
        run_load(&mut index, data, config.keys);
        rec.finish("load", index.trie().metrics_ops_snapshot());

        let c_run = WorkloadRun::new(
            Workload::C,
            RequestDistribution::Uniform,
            config.keys,
            config.ops,
            config.seed,
        );
        rec.begin(index.trie().metrics_ops_snapshot());
        run_transactions(&mut index, data, &c_run);
        rec.finish("run:C", index.trie().metrics_ops_snapshot());

        rec.begin(index.trie().metrics_ops_snapshot());
        run_transactions_batched(&mut index, data, &c_run, config.batch);
        rec.finish("run:C_batch", index.trie().metrics_ops_snapshot());

        rec.begin(index.trie().metrics_ops_snapshot());
        run_transactions(&mut index, data, e_run);
        rec.finish("run:E", index.trie().metrics_ops_snapshot());
        rec
    }

    /// Striped concurrent load plus a 90/10 read/upsert mix on the widest
    /// `--threads` budget; prints the ROWEX health counters.
    fn concurrent_pass(config: &Config, data: &BenchData, label: &str) {
        let threads = config.threads.iter().copied().max().unwrap_or(1);
        let trie = Arc::new(ConcurrentHot::new(Arc::clone(&data.arena)));
        let n = config.keys;

        std::thread::scope(|scope| {
            for t in 0..threads {
                let trie = Arc::clone(&trie);
                scope.spawn(move || {
                    let mut i = t;
                    while i < n {
                        trie.insert(&data.dataset.keys[i], data.tids[i]);
                        i += threads;
                    }
                });
            }
        });

        let per_thread = (config.ops / threads).max(1);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let trie = Arc::clone(&trie);
                let seed = config.seed ^ ((t as u64) << 32);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut checksum = 0u64;
                    for _ in 0..per_thread {
                        let idx = rng.gen_range(0..n);
                        if rng.gen_range(0..10) == 0 {
                            // Upsert: re-inserting an existing key still walks
                            // the full analyze→lock→validate write path.
                            trie.insert(&data.dataset.keys[idx], data.tids[idx]);
                        } else if let Some(tid) = trie.get(&data.dataset.keys[idx]) {
                            checksum = checksum.wrapping_add(tid);
                        }
                    }
                    std::hint::black_box(checksum);
                });
            }
        });

        let snap = trie.metrics_ops_snapshot();
        println!(
            "# metrics {label}: concurrent threads={threads} lock_failures={} restarts={} epoch_pins={} restart_rate={:.4}",
            snap.rowex.get(RowexCounter::LockFail),
            snap.rowex.get(RowexCounter::Restart),
            snap.rowex.get(RowexCounter::EpochPin),
            snap.rowex.restart_rate(snap.write_ops()),
        );
    }
}
