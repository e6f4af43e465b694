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
//! With `--bulk`, a `bulk_load` row is added per thread count: the whole
//! key set is pre-sorted once (untimed) and built bottom-up through
//! `ConcurrentHot::bulk_load_parallel` with that worker budget, then
//! published with a single root CAS. This measures how the parallel
//! subtrie construction itself scales, independent of the insert protocol.
//!
//! With `--metrics` (requires a binary built with `--features metrics`),
//! every thread count additionally reports a `restart_rate` row — ROWEX
//! restarts per write from the trie's own health counters — and the full
//! counter set (lock failures, restarts, obsolete sightings, epoch pins,
//! deferred-free queue depth) is written to
//! `results/BENCH_metrics_fig10.json`.
//!
//! ```text
//! cargo run --release -p hot-bench --bin fig10_scalability -- --keys 1000000 --ops 2000000 --threads 1,2,4,8
//! ```

use hot_bench::{mops, row, run_transactions_sharded, BenchData, Config};
#[cfg(feature = "metrics")]
use hot_core::hot_metrics::RowexCounter;
use hot_core::sync::ConcurrentHot;
use hot_core::{MlpScheduler, RouterScratch, ShardedHot};
use hot_keys::PaddedKey;
use hot_ycsb::{Dataset, DatasetKind, RequestDistribution, Workload, WorkloadRun};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let config = Config::from_args();
    println!(
        "# Figure 10: HOT (ROWEX) scalability on the url data set (keys={}, ops={}, threads={:?})",
        config.keys, config.ops, config.threads
    );
    println!("# paper_shape: near-linear speedup with thread count (paper: 9.96x lookups / 9.00x inserts at 10 threads)");
    println!("# note: available parallelism on this host: {} core(s)", std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
    row(&[
        "op".into(),
        "threads".into(),
        "mops".into(),
        "speedup_vs_1".into(),
    ]);

    let data = BenchData::new(Dataset::generate(DatasetKind::Url, config.keys, config.seed));

    // `--bulk`: the sorted view is the untimed one-off preparation step; the
    // timed region is the bottom-up build + single-CAS publish alone.
    let sorted: Option<(Vec<&[u8]>, Vec<u64>)> = config.bulk.then(|| {
        let order = data.dataset.sorted_order();
        (
            order.iter().map(|&i| data.dataset.keys[i].as_slice()).collect(),
            order.iter().map(|&i| data.tids[i]).collect(),
        )
    });

    let mut insert_base = None;
    let mut lookup_base = None;
    let mut batch_base = None;
    let mut bulk_base = None;
    let mut metrics_rows: Vec<(usize, String)> = Vec::new();
    for &threads in &config.threads {
        let (insert_mops, lookup_mops, batch_mops, rowex) = run_with_threads(&data, threads, &config);
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
        if let Some((rate, json)) = rowex {
            row(&[
                "restart_rate".into(),
                threads.to_string(),
                format!("{rate:.4}"),
                "-".into(),
            ]);
            metrics_rows.push((threads, json));
        }
        if let Some((keys, tids)) = &sorted {
            let bulk_mops = run_bulk_with_threads(&data, keys, tids, threads);
            let base = *bulk_base.get_or_insert(bulk_mops);
            row(&[
                "bulk_load".into(),
                threads.to_string(),
                format!("{bulk_mops:.3}"),
                format!("{:.2}", bulk_mops / base),
            ]);
        }
    }
    if !metrics_rows.is_empty() {
        write_metrics_json(&config, &metrics_rows);
    }
    if !config.shards.is_empty() {
        run_sharded_section(&config);
    }
}

/// `--shards a,b,c`: the sharded execution layer (DESIGN.md §17)
/// against the single-trie batched baseline, on the
/// integer and url data sets. Per shard count: one routed
/// `get_batch_with` over the full shuffled key set (classify → per-shard
/// queues → shard-grouped drain windows) and one YCSB-C pass through the
/// [`run_transactions_sharded`] driver, with routing balance as max/mean
/// shard load.
fn run_sharded_section(config: &Config) {
    // Unless `--keys` was explicit, floor this section at 4 M keys: the
    // routed path's win grows with trie depth — classify cost is flat per
    // key while the per-descent cache-miss saving of the shallower
    // per-shard tries grows — so small key sets understate it.
    let n = if config.keys_explicit {
        config.keys
    } else {
        config.keys.max(4_000_000)
    };
    let window = 1024usize;
    println!(
        "# Sharded router: aggregate lookup + YCSB-C throughput vs the single trie (keys={n}, ops={})",
        config.ops,
    );
    row(&[
        "op".into(),
        "dataset".into(),
        "shards".into(),
        "mops".into(),
        "vs_single".into(),
        "imbalance".into(),
    ]);
    let mut json_rows: Vec<String> = Vec::new();
    for kind in [DatasetKind::Integer, DatasetKind::Url] {
        let data = BenchData::new(Dataset::generate(kind, n, config.seed));
        let order = data.dataset.sorted_order();
        let entries: Vec<(&[u8], u64)> = order
            .iter()
            .map(|&i| (data.dataset.keys[i].as_slice(), data.tids[i]))
            .collect();
        // Every loaded key probed once, in shuffled order.
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5AAD);
        let mut probes: Vec<&[u8]> = data.dataset.keys.iter().map(|k| k.as_slice()).collect();
        for i in (1..probes.len()).rev() {
            probes.swap(i, rng.gen_range(0..=i));
        }

        // Single-trie baseline: a 1-shard router — its one shard
        // IS a plain `ConcurrentHot`, driven with chunked `get_batch_with`
        // calls, and the same instance serves the YCSB-C baseline (and
        // its checksum, which every sharded pass must reproduce).
        let baseline = ShardedHot::new(Arc::clone(&data.arena), 1);
        baseline
            .bulk_load(&entries)
            .expect("sorted distinct entries into an empty trie");
        let mut sched = MlpScheduler::new();
        let mut out = vec![None; window];
        let mut single_mops = 0f64;
        let mut hits = 0u64;
        for rep in 0..6 {
            let t = Instant::now();
            let mut h = 0u64;
            for chunk in probes.chunks(window) {
                baseline
                    .shard(0)
                    .get_batch_with(chunk, &mut out[..chunk.len()], &mut sched);
                h += out[..chunk.len()].iter().flatten().count() as u64;
            }
            let m = mops(probes.len(), t.elapsed().as_secs_f64());
            // First rep warms the page cache and branch history; score
            // the best of the rest.
            if rep > 0 {
                single_mops = single_mops.max(m);
            }
            hits = h;
        }
        assert_eq!(hits, probes.len() as u64, "every loaded key found");
        let run = WorkloadRun::new(
            Workload::C,
            RequestDistribution::Uniform,
            n,
            config.ops,
            config.seed,
        );
        // Routing amortizes over large read batches (the router's own
        // drain window), not the scalar-driver group size.
        let ycsb_batch = config.batch.max(window);
        let (ycsb_single, check_single) =
            run_transactions_sharded(&baseline, &data, &run, ycsb_batch);
        let label = kind.label();
        row(&[
            "lookup_batch".into(),
            label.into(),
            "1".into(),
            format!("{single_mops:.3}"),
            "1.00".into(),
            "-".into(),
        ]);
        row(&[
            "ycsb_c".into(),
            label.into(),
            "1".into(),
            format!("{ycsb_single:.3}"),
            "1.00".into(),
            "-".into(),
        ]);
        json_rows.push(format!(
            "{{\"dataset\": \"{label}\", \"structure\": \"single\", \"lookup_batch_mops\": {single_mops:.3}, \"ycsb_c_mops\": {ycsb_single:.3}}}"
        ));

        for &s in &config.shards {
            let sharded = ShardedHot::new(Arc::clone(&data.arena), s);
            sharded
                .bulk_load(&entries)
                .expect("sorted distinct entries into empty shards");
            let mut scratch = RouterScratch::new();
            let mut routed = vec![None; probes.len()];
            // Warm-up rep grows the per-shard queues and faults their
            // pages in; timed reps run on warm scratch. Both sides of the
            // comparison score the best of five timed passes: scheduler
            // noise on a shared host is strictly subtractive, so the
            // per-side maximum estimates the undisturbed rate.
            sharded.get_batch_with(&probes, &mut routed, &mut scratch);
            let mut shard_mops = 0f64;
            for _ in 0..5 {
                let t = Instant::now();
                sharded.get_batch_with(&probes, &mut routed, &mut scratch);
                shard_mops = shard_mops.max(mops(probes.len(), t.elapsed().as_secs_f64()));
            }
            assert_eq!(
                routed.iter().flatten().count() as u64,
                hits,
                "routed lookups find every key the single trie found"
            );
            let (ycsb_mops, check) = run_transactions_sharded(&sharded, &data, &run, ycsb_batch);
            assert_eq!(
                check, check_single,
                "sharded YCSB-C checksum matches the single trie"
            );
            let imbalance = sharded.imbalance();
            row(&[
                "lookup_sharded".into(),
                label.into(),
                s.to_string(),
                format!("{shard_mops:.3}"),
                format!("{:.2}", shard_mops / single_mops),
                format!("{imbalance:.3}"),
            ]);
            row(&[
                "ycsb_c_sharded".into(),
                label.into(),
                s.to_string(),
                format!("{ycsb_mops:.3}"),
                format!("{:.2}", ycsb_mops / ycsb_single),
                format!("{imbalance:.3}"),
            ]);
            json_rows.push(format!(
                "{{\"dataset\": \"{label}\", \"structure\": \"shard{s}\", \"lookup_mops\": {shard_mops:.3}, \"ycsb_c_mops\": {ycsb_mops:.3}, \"imbalance\": {imbalance:.3}}}"
            ));
        }
    }
    write_shard_json(config, n, &json_rows);
}

/// Hand-rolled JSON for the sharded-router rows, in the same
/// `rows: [{dataset, structure, *_mops}]` shape the bench-check gate
/// parses.
fn write_shard_json(config: &Config, keys: usize, rows: &[String]) {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"fig10_sharded_router\",\n");
    out.push_str(&format!(
        "  \"keys\": {keys}, \"ops\": {}, \"seed\": {},\n",
        config.ops, config.seed
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
        .and_then(|()| std::fs::write("results/BENCH_shard.json", &out))
    {
        eprintln!("# could not write results/BENCH_shard.json: {e}");
    } else {
        eprintln!("# wrote results/BENCH_shard.json");
    }
}

/// Hand-rolled JSON: one ROWEX health-counter object per thread count,
/// written only under `--metrics` with the `metrics` feature built in.
fn write_metrics_json(config: &Config, rows: &[(usize, String)]) {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"fig10_rowex_health\",\n");
    out.push_str(&format!(
        "  \"keys\": {}, \"ops\": {}, \"seed\": {},\n",
        config.keys, config.ops, config.seed
    ));
    out.push_str("  \"rows\": [\n");
    for (i, (_, json)) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {json}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/BENCH_metrics_fig10.json", &out))
    {
        eprintln!("# could not write results/BENCH_metrics_fig10.json: {e}");
    } else {
        eprintln!("# wrote results/BENCH_metrics_fig10.json");
    }
}

/// Bottom-up bulk build of the full sorted key set on `threads` workers,
/// published with one root CAS. Returns million keys loaded per second.
fn run_bulk_with_threads(data: &BenchData, keys: &[&[u8]], tids: &[u64], threads: usize) -> f64 {
    let entries: Vec<(&[u8], u64)> = keys.iter().copied().zip(tids.iter().copied()).collect();
    let trie = ConcurrentHot::new(Arc::clone(&data.arena));
    let start = Instant::now();
    let n = trie
        .bulk_load_parallel(&entries, threads)
        .expect("sorted entries into an empty trie");
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(n, entries.len(), "every distinct key landed");
    mops(n, elapsed)
}

/// Insert / lookup / batched-lookup phases at one thread count. The last element is `Some((restart_rate, rowex_json))`
/// only under `--metrics` with the `metrics` feature compiled in.
fn run_with_threads(
    data: &BenchData,
    threads: usize,
    config: &Config,
) -> (f64, f64, f64, Option<(f64, String)>) {
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

    // Lookup phase: uniform random lookups, `ops` in total, each thread
    // reusing one padded key buffer instead of re-zeroing a fresh one.
    let per_thread = config.ops / threads;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let trie = Arc::clone(&trie);
            let keys = Arc::clone(&keys);
            let seed = config.seed ^ (t as u64) << 32;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut buf = PaddedKey::new();
                let mut checksum = 0u64;
                for _ in 0..per_thread {
                    let idx = rng.gen_range(0..n);
                    if let Some(tid) = trie.get_with(&keys[idx], &mut buf) {
                        checksum = checksum.wrapping_add(tid);
                    }
                }
                std::hint::black_box(checksum);
            });
        }
    });
    let lookup_mops = mops(per_thread * threads, start.elapsed().as_secs_f64());

    // Batched lookup phase: same uniform stream, resolved `batch` keys at a
    // time through the batched descent engine (per-thread lane ring, one
    // epoch pin per call, per-refill root reload).
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
                let mut sched = MlpScheduler::new();
                let mut probe: Vec<&[u8]> = Vec::with_capacity(batch);
                let mut out: Vec<Option<u64>> = vec![None; batch];
                let mut checksum = 0u64;
                for _ in 0..groups {
                    probe.clear();
                    probe.extend((0..batch).map(|_| keys[rng.gen_range(0..n)].as_slice()));
                    trie.get_batch_with(&probe, &mut out, &mut sched);
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
    let rowex = config.metrics.then(|| {
        let snap = trie.metrics_ops_snapshot();
        let rate = snap.rowex.restart_rate(snap.write_ops());
        let json = format!(
            "{{\"threads\": {}, \"lock_failures\": {}, \"restarts\": {}, \"obsolete_seen\": {}, \"epoch_pins\": {}, \"deferred_queued\": {}, \"deferred_freed\": {}, \"deferred_depth\": {}, \"restart_rate\": {rate:.6}}}",
            threads,
            snap.rowex.get(RowexCounter::LockFail),
            snap.rowex.get(RowexCounter::Restart),
            snap.rowex.get(RowexCounter::ObsoleteSeen),
            snap.rowex.get(RowexCounter::EpochPin),
            snap.rowex.get(RowexCounter::DeferredQueued),
            snap.rowex.get(RowexCounter::DeferredFreed),
            snap.rowex.deferred_depth(),
        );
        (rate, json)
    });
    #[cfg(not(feature = "metrics"))]
    let rowex: Option<(f64, String)> = None;

    (insert_mops, lookup_mops, batch_mops, rowex)
}
