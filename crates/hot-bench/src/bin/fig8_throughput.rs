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
//! paths are asserted equal.
//!
//! With `--bulk`, two extra load-phase rows appear per structure:
//! `load_bulk` (sorted input through the bottom-up builder, one thread) and
//! `load_bulk_par` (same builder, worker budget = max of `--threads`), and
//! every bulk-built index is spot-checked to resolve the keys it was loaded
//! with.
//!
//! ```text
//! cargo run --release -p hot-bench --bin fig8_throughput -- --keys 1000000 --ops 2000000
//! ```
//!
//! With `--check`, every structural invariant of the HOT trie is verified
//! after the load phase and again after the mutating workload-E phase
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
    all_indexes, row, run_load, run_load_bulk, run_transactions, run_transactions_batched,
    run_transactions_fresh_scans, BenchData, Config,
};
use hot_ycsb::{Dataset, DatasetKind, RequestDistribution, Workload, WorkloadRun};

fn main() {
    let config = Config::from_args();
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

        let mut e_sums: Vec<u64> = Vec::new();
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

            // Workload E (95% scan / 5% insert), through the amortized
            // cursor scan path (for HOT; baselines run their only path).
            let (e_mops, e_sum) = run_transactions(index.as_mut(), &data, &e_run);
            check_index(&config, index.as_ref(), kind.label(), "workload E");
            e_sums.push(e_sum);

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
                "E".into(),
                kind.label().into(),
                index.name().into(),
                format!("{e_mops:.3}"),
            ]);
            row(&[
                "insert".into(),
                kind.label().into(),
                index.name().into(),
                format!("{load_mops:.3}"),
            ]);
            // Keep checksums observable so the compiler cannot drop work.
            eprintln!(
                "# {} {}: checksums C={c_sum:x} E={e_sum:x}",
                kind.label(),
                index.name()
            );
        }

        // Workload-E scan-path comparison: the same operation stream through
        // the pre-cursor allocating scan path (`E_alloc`) and through the
        // coalesced batched path (`E_batch`), each on a fresh index loaded
        // to the identical pre-E state — E inserts reserve keys, so
        // re-running it on an already-run index would change what the scans
        // see and break checksum comparability.
        {
            let alloc_set = all_indexes(&data.arena);
            let batch_set = all_indexes(&data.arena);
            for (i, (mut a, mut b)) in alloc_set.into_iter().zip(batch_set).enumerate() {
                run_load(a.as_mut(), &data, config.keys);
                run_load(b.as_mut(), &data, config.keys);
                let (ea_mops, ea_sum) = run_transactions_fresh_scans(a.as_mut(), &data, &e_run);
                let (eb_mops, eb_sum) =
                    run_transactions_batched(b.as_mut(), &data, &e_run, config.batch);
                let e_sum = e_sums[i];
                assert_eq!(
                    e_sum, ea_sum,
                    "amortized scans must return the same entries as the allocating path"
                );
                assert_eq!(
                    e_sum, eb_sum,
                    "batched scans must return the same entries as scalar ones"
                );
                row(&[
                    "E_alloc".into(),
                    kind.label().into(),
                    a.name().into(),
                    format!("{ea_mops:.3}"),
                ]);
                row(&[
                    "E_batch".into(),
                    kind.label().into(),
                    a.name().into(),
                    format!("{eb_mops:.3}"),
                ]);
            }
        }

        // `--bulk`: load two more fresh sets of indexes over the same data —
        // one through the sequential bottom-up builder, one with the full
        // worker budget — and report load throughput next to the
        // insert-loop number from above.
        if config.bulk {
            let par_threads = config.threads.iter().copied().max().unwrap_or(1);
            let seq = all_indexes(&data.arena);
            let par = all_indexes(&data.arena);
            for (mut s, mut p) in seq.into_iter().zip(par) {
                let seq_mops = run_load_bulk(s.as_mut(), &data, config.keys, 1);
                check_index(&config, s.as_ref(), kind.label(), "bulk load");
                let par_mops = run_load_bulk(p.as_mut(), &data, config.keys, par_threads);
                check_index(&config, p.as_ref(), kind.label(), "parallel bulk load");
                verify_bulk_gets(&data, s.as_ref(), p.as_ref(), config.keys);
                row(&[
                    "load_bulk".into(),
                    kind.label().into(),
                    s.name().into(),
                    format!("{seq_mops:.3}"),
                ]);
                row(&[
                    "load_bulk_par".into(),
                    kind.label().into(),
                    s.name().into(),
                    format!("{par_mops:.3}"),
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
fn verify_bulk_gets(
    data: &BenchData,
    seq: &dyn hot_bench::BenchIndex,
    par: &dyn hot_bench::BenchIndex,
    load_n: usize,
) {
    let step = (load_n / 1024).max(1);
    for i in (0..load_n).step_by(step) {
        let key = &data.dataset.keys[i];
        let want = Some(data.tids[i]);
        assert_eq!(seq.get(key), want, "sequential bulk load lost a key");
        assert_eq!(par.get(key), want, "parallel bulk load lost a key");
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
    use hot_keys::PaddedKey;
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
                    let mut buf = PaddedKey::new();
                    let mut checksum = 0u64;
                    for _ in 0..per_thread {
                        let idx = rng.gen_range(0..n);
                        if rng.gen_range(0..10) == 0 {
                            // Upsert: re-inserting an existing key still walks
                            // the full analyze→lock→validate write path.
                            trie.insert(&data.dataset.keys[idx], data.tids[idx]);
                        } else if let Some(tid) = trie.get_with(&data.dataset.keys[idx], &mut buf) {
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
