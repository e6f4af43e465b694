//! Figure 10 — scalability of the synchronized index on the url data set:
//! insert throughput (50 M random inserts in the paper) and lookup
//! throughput (100 M uniform lookups) for increasing thread counts.
//!
//! We run the full ROWEX-synchronized HOT of Section 5. The paper also
//! plots concurrent ART (ROWEX) and Masstree; re-implementing their
//! native synchronization protocols is outside this reproduction's scope
//! (see DESIGN.md §5), so the figure reports HOT plus the single-threaded
//! baselines' 1-thread numbers for context.
//!
//! Paper shape (Section 6.4): near-linear speedup — mean lookup speedup 9.96
//! and insert speedup 9.00 on 10 cores for HOT. **Note:** on a single-core
//! container no multi-core speedup is physically observable; the harness
//! still exercises the full concurrent protocol and reports whatever the
//! hardware allows.
//!
//! With `--metrics` (requires a binary built with `--features metrics`),
//! every thread count additionally reports a `restart_rate` row — ROWEX
//! restarts per write from the trie's own health counters.
//!
//! ```text
//! cargo run --release -p hot-bench --bin fig10_scalability -- --keys 1000000 --ops 2000000 --threads 1,2,4,8
//! ```

use hot_bench::{mops, print_host, row, BenchData, Config};
use hot_core::sync::ConcurrentHot;
use hot_ycsb::{Dataset, DatasetKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let config = Config::from_args(&[
        "--keys",
        "--ops",
        "--seed",
        "--threads",
        "--batch",
        "--metrics",
    ]);
    print_host();
    println!(
        "# Figure 10: HOT (ROWEX) scalability on the url data set (keys={}, ops={}, threads={:?})",
        config.keys, config.ops, config.threads
    );
    println!("# paper_shape: near-linear speedup with thread count (paper: 9.96x lookups / 9.00x inserts at 10 threads)");
    row(&[
        "op".into(),
        "threads".into(),
        "mops".into(),
        "speedup_vs_1".into(),
    ]);

    let data = BenchData::new(Dataset::generate(
        DatasetKind::Url,
        config.keys,
        config.seed,
    ));

    let mut insert_base = None;
    let mut lookup_base = None;
    let mut batch_base = None;
    for &threads in &config.threads {
        let (insert_mops, lookup_mops, batch_mops, restart_rate) =
            run_with_threads(&data, threads, &config);
        let ib = *insert_base.get_or_insert(insert_mops);
        let lb = *lookup_base.get_or_insert(lookup_mops);
        let bb = *batch_base.get_or_insert(batch_mops);
        row(&[
            "insert".into(),
            threads.to_string(),
            format!("{insert_mops:.3}"),
            format!("{:.2}", insert_mops / ib),
        ]);
        row(&[
            "lookup".into(),
            threads.to_string(),
            format!("{lookup_mops:.3}"),
            format!("{:.2}", lookup_mops / lb),
        ]);
        row(&[
            "lookup_batch".into(),
            threads.to_string(),
            format!("{batch_mops:.3}"),
            format!("{:.2}", batch_mops / bb),
        ]);
        if let Some(rate) = restart_rate {
            row(&[
                "restart_rate".into(),
                threads.to_string(),
                format!("{rate:.4}"),
                "-".into(),
            ]);
        }
    }
}

/// Insert / lookup / batched-lookup phases at one thread count. The last
/// element is the ROWEX restart rate, `Some` only under `--metrics` with
/// the `metrics` feature compiled in.
fn run_with_threads(
    data: &BenchData,
    threads: usize,
    config: &Config,
) -> (f64, f64, f64, Option<f64>) {
    let trie = Arc::new(ConcurrentHot::new(Arc::clone(&data.arena)));
    let keys = Arc::new(data.dataset.keys.clone());
    let tids = Arc::new(data.tids.clone());
    let n = config.keys;

    // Insert phase: the key set is striped over the threads.
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let trie = Arc::clone(&trie);
            let keys = Arc::clone(&keys);
            let tids = Arc::clone(&tids);
            scope.spawn(move || {
                let mut i = t;
                while i < n {
                    trie.insert(&keys[i], tids[i]);
                    i += threads;
                }
            });
        }
    });
    let insert_mops = mops(n, start.elapsed().as_secs_f64());
    assert_eq!(trie.len(), n, "all inserts landed");

    // Lookup phase: uniform random lookups, `ops` in total.
    let per_thread = config.ops / threads;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let trie = Arc::clone(&trie);
            let keys = Arc::clone(&keys);
            let seed = config.seed ^ (t as u64) << 32;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut checksum = 0u64;
                for _ in 0..per_thread {
                    let idx = rng.gen_range(0..n);
                    if let Some(tid) = trie.get(&keys[idx]) {
                        checksum = checksum.wrapping_add(tid);
                    }
                }
                std::hint::black_box(checksum);
            });
        }
    });
    let lookup_mops = mops(per_thread * threads, start.elapsed().as_secs_f64());

    // Batched lookup phase: same uniform stream, resolved `batch` keys at a
    // time through the batched descent engine (the thread's parked lane
    // ring, one epoch pin per call, per-refill root reload).
    let batch = config.batch;
    let groups = per_thread / batch;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let trie = Arc::clone(&trie);
            let keys = Arc::clone(&keys);
            let seed = config.seed ^ (t as u64) << 32;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut probe: Vec<&[u8]> = Vec::with_capacity(batch);
                let mut out: Vec<Option<u64>> = vec![None; batch];
                let mut checksum = 0u64;
                for _ in 0..groups {
                    probe.clear();
                    probe.extend((0..batch).map(|_| keys[rng.gen_range(0..n)].as_slice()));
                    trie.get_batch(&probe, &mut out);
                    for tid in out.iter().flatten() {
                        checksum = checksum.wrapping_add(*tid);
                    }
                }
                std::hint::black_box(checksum);
            });
        }
    });
    let batch_mops = mops(groups * batch * threads, start.elapsed().as_secs_f64());

    // ROWEX health counters, read after (never inside) the timed phases.
    #[cfg(feature = "metrics")]
    let restart_rate = config.metrics.then(|| {
        let snap = trie.metrics_ops_snapshot();
        snap.rowex.restart_rate(snap.write_ops())
    });
    #[cfg(not(feature = "metrics"))]
    let restart_rate = None;

    (insert_mops, lookup_mops, batch_mops, restart_rate)
}
