//! Metrics differential test (DESIGN.md §13): with `--features metrics`,
//! the operation counters must match a shadow count of every public call
//! *exactly* — not approximately — and every latency histogram must hold
//! exactly as many samples as its operation counter. Run with:
//!
//! ```text
//! cargo test -p hot-core --features metrics --test metrics_differential
//! ```
//!
//! Without the feature the whole file compiles away (there is nothing to
//! test: the no-feature CI lane instead proves the symbols are absent via
//! `cargo xtask verify-no-metrics`).
#![cfg(feature = "metrics")]

use hot_core::sync::ConcurrentHot;
use hot_core::{HotTrie, MlpScheduler};
use hot_keys::{encode_u64, EmbeddedKeySource};
use hot_metrics::{OpKind, RowexCounter, SchedCounter};
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Shadow tally of public calls, maintained by the test next to the real
/// calls. One field per instrumented dimension.
#[derive(Default)]
struct Shadow {
    gets: u64,
    inserts: u64,
    removes: u64,
    scans: u64,
    scan_items: u64,
    get_batches: u64,
    get_batch_items: u64,
    scan_batches: u64,
    scan_batch_items: u64,
    bulk_loads: u64,
    bulk_items: u64,
    /// Requests the out-of-order scheduler was handed (every one must show
    /// up as exactly one refill and one completion).
    sched_requests: u64,
}

fn assert_counters_match(snap: &hot_metrics::MetricsSnapshot, shadow: &Shadow) {
    let cases = [
        (OpKind::Get, shadow.gets, None),
        (OpKind::Insert, shadow.inserts, None),
        (OpKind::Remove, shadow.removes, None),
        (OpKind::Scan, shadow.scans, Some(shadow.scan_items)),
        (OpKind::GetBatch, shadow.get_batches, Some(shadow.get_batch_items)),
        (OpKind::ScanBatch, shadow.scan_batches, Some(shadow.scan_batch_items)),
        (OpKind::BulkLoad, shadow.bulk_loads, Some(shadow.bulk_items)),
    ];
    for (kind, expected, expected_items) in cases {
        let op = snap.op(kind);
        assert_eq!(op.count, expected, "{} count", kind.label());
        assert_eq!(
            op.hist_total(),
            op.count,
            "{} histogram total must equal its counter",
            kind.label()
        );
        if let Some(items) = expected_items {
            assert_eq!(op.items, items, "{} items", kind.label());
        }
    }

    // Scheduler health: every request handed to the out-of-order ring is
    // refilled into a lane exactly once and completes exactly once — no
    // request is dropped, duplicated, or left in flight.
    assert_eq!(
        snap.sched.get(SchedCounter::Refill),
        shadow.sched_requests,
        "scheduler refills == requests"
    );
    assert_eq!(
        snap.sched.completions(),
        shadow.sched_requests,
        "scheduler completions == requests"
    );
}

#[test]
fn single_threaded_counters_are_exact() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE);
    let mut trie = HotTrie::new(EmbeddedKeySource);
    let mut shadow = Shadow::default();

    // Seed via bulk load so that path is covered too.
    let seed: Vec<(Vec<u8>, u64)> = (0..1_000u64)
        .map(|i| (encode_u64(i * 3).to_vec(), i * 3))
        .collect();
    let n = trie.bulk_load(&seed).unwrap();
    shadow.bulk_loads += 1;
    shadow.bulk_items += n as u64;

    let mut scan_buf = Vec::new();
    let mut scan_cursor = hot_core::ScanCursor::new();
    for _ in 0..5_000 {
        let k = rng.gen_range(0..4_000u64);
        let key = encode_u64(k);
        match rng.gen_range(0..5u32) {
            0 => {
                trie.insert(&key, k);
                shadow.inserts += 1;
            }
            1 => {
                trie.remove(&key);
                shadow.removes += 1;
            }
            2 => {
                let limit = rng.gen_range(1..20usize);
                trie.scan_with(&key, limit, &mut scan_buf, &mut scan_cursor);
                shadow.scans += 1;
                shadow.scan_items += scan_buf.len() as u64;
            }
            _ => {
                trie.get(&key);
                shadow.gets += 1;
            }
        }
    }

    // Batched flavours.
    let keys: Vec<[u8; 8]> = (0..256u64).map(|i| encode_u64(i * 7)).collect();
    let mut out = vec![None; keys.len()];
    trie.get_batch(&keys, &mut out);
    shadow.get_batches += 1;
    shadow.get_batch_items += keys.len() as u64;

    let requests: Vec<([u8; 8], usize)> = (0..64u64).map(|i| (encode_u64(i * 11), 5)).collect();
    let mut tids = Vec::new();
    let mut bounds = Vec::new();
    trie.scan_batch(&requests, &mut tids, &mut bounds);
    shadow.scan_batches += 1;
    shadow.scan_batch_items += tids.len() as u64;

    // The two convenience calls above ran on the parked thread scheduler.
    shadow.sched_requests += keys.len() as u64 + requests.len() as u64;

    // Caller-provided scheduler: same engine, same counters.
    let mut sched = MlpScheduler::new();
    trie.get_batch_with(&keys, &mut out, &mut sched);
    shadow.get_batches += 1;
    shadow.get_batch_items += keys.len() as u64;
    shadow.sched_requests += keys.len() as u64;

    trie.scan_batch_with(&requests, &mut tids, &mut bounds, &mut sched);
    shadow.scan_batches += 1;
    shadow.scan_batch_items += tids.len() as u64;
    shadow.sched_requests += requests.len() as u64;

    // The invariant walk re-looks up every key; it must NOT move the
    // operation counters (it uses the uninstrumented internal path).
    let before = trie.metrics_snapshot();
    trie.check_invariants();
    let after = trie.metrics_snapshot();
    assert_eq!(
        before.op(OpKind::Get).count,
        after.op(OpKind::Get).count,
        "invariant walk must not inflate get counters"
    );

    assert_counters_match(&after, &shadow);

    // Scheduler-health details beyond the request/completion balance: the
    // single-threaded trie never publishes torn slots, so no descent ever
    // restarts, and every sweep round sampled a non-empty occupancy.
    assert_eq!(
        after.sched.get(SchedCounter::Redescent),
        0,
        "single-threaded trie never re-descends"
    );
    assert!(after.sched.occupancy_samples() > 0, "occupancy was sampled");
    let mean = after.sched.mean_occupancy();
    assert!(
        mean > 0.0 && mean <= hot_metrics::MAX_OCCUPANCY as f64,
        "mean lane occupancy {mean} in range"
    );
    // Structural gauges agree with the index's own accounting.
    let s = after.structure.as_ref().expect("quiesced walk succeeds");
    assert_eq!(s.leaves, trie.len() as u64);
    assert_eq!(s.layout_census.iter().sum::<u64>(), s.nodes);
    assert_eq!(s.leaf_depths.iter().sum::<u64>(), s.leaves);
    assert!(s.avg_fill() > 2.0 && s.avg_fill() <= 32.0);

    // A single-threaded trie never touches the ROWEX counters.
    assert_eq!(after.rowex.counts, [0u64; 6]);

    // JSON output carries the live ops.
    let json = after.to_json();
    assert!(json.contains("\"get\"") && json.contains("\"bulk_load\""));
    assert!(
        json.contains("\"sched\"") && json.contains("\"mean_occupancy\""),
        "scheduler health block present once the ring has run"
    );
}

#[test]
fn concurrent_counters_are_exact_across_threads() {
    const THREADS: u64 = 4;
    const OPS_PER_THREAD: u64 = 4_000;

    let trie = Arc::new(ConcurrentHot::new(EmbeddedKeySource));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let trie = Arc::clone(&trie);
            scope.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(100 + t);
                for _ in 0..OPS_PER_THREAD {
                    let k = rng.gen_range(0..2_000u64);
                    let key = encode_u64(k);
                    match rng.gen_range(0..4u32) {
                        0 => drop(trie.remove(&key)),
                        1 => drop(trie.get(&key)),
                        2 => drop(trie.scan(&key, 3)),
                        _ => drop(trie.insert(&key, k)),
                    }
                }
            });
        }
    });

    let snap = trie.metrics_snapshot();

    // Every public call one of the 4 threads made is attributed to exactly
    // one OpKind, so the counts must add up to the grand total.
    let total: u64 = [OpKind::Get, OpKind::Insert, OpKind::Remove, OpKind::Scan]
        .iter()
        .map(|&k| snap.op(k).count)
        .sum();
    assert_eq!(total, THREADS * OPS_PER_THREAD);
    for kind in [OpKind::Get, OpKind::Insert, OpKind::Remove, OpKind::Scan] {
        let op = snap.op(kind);
        assert!(op.count > 0, "{} exercised", kind.label());
        assert_eq!(op.hist_total(), op.count, "{} histogram total", kind.label());
    }

    // ROWEX bookkeeping: every public entry pins exactly one epoch, plus
    // one extra pin per optimistic restart.
    let pins = snap.rowex.get(RowexCounter::EpochPin);
    let restarts = snap.rowex.get(RowexCounter::Restart);
    assert_eq!(
        pins,
        total + restarts,
        "epoch pins == public entries + restarts"
    );
    // A restart is caused by contention or re-analysis; lock failures and
    // obsolete sightings can never exceed total restarts.
    assert!(snap.rowex.get(RowexCounter::LockFail) <= restarts);
    assert!(snap.rowex.get(RowexCounter::ObsoleteSeen) <= restarts);
    // Reclamation backlog is queued minus freed, never negative — and
    // empty once the writers have stopped and the epoch is drained.
    assert!(
        snap.rowex.get(RowexCounter::DeferredFreed)
            <= snap.rowex.get(RowexCounter::DeferredQueued)
    );
    assert!(hot_core::sync::quiesce());
    let drained = trie.metrics_ops_snapshot();
    assert_eq!(
        drained.rowex.get(RowexCounter::DeferredFreed),
        drained.rowex.get(RowexCounter::DeferredQueued),
        "quiesced: every retired node was freed"
    );
    assert_eq!(trie.memory_stats().node_count, trie.check_invariants().nodes);

    // Quiesced: the structural walk attaches gauges and does not disturb
    // the counter half.
    let snap2 = trie.metrics_snapshot();
    assert_eq!(snap2.op(OpKind::Get).count, snap.op(OpKind::Get).count);
    assert_eq!(snap2.rowex.get(RowexCounter::EpochPin), pins);
    let s = snap2.structure.expect("quiesced walk succeeds");
    assert_eq!(s.leaves, trie.len() as u64);
    assert_eq!(s.layout_census.iter().sum::<u64>(), s.nodes);

    // Per-phase diffing: a pure-read phase shows only gets.
    let phase_start = trie.metrics_snapshot();
    for k in 0..500u64 {
        trie.get(&encode_u64(k));
    }
    let phase = trie.metrics_snapshot().since(&phase_start);
    assert_eq!(phase.op(OpKind::Get).count, 500);
    assert_eq!(phase.op(OpKind::Get).hist_total(), 500);
    assert_eq!(phase.op(OpKind::Insert).count, 0);
    assert_eq!(phase.rowex.get(RowexCounter::Restart), 0);

    // Quiesced batch: refills and completions both equal the
    // request count (no writer is racing, so no torn-slot re-descents
    // either), and the whole batch pins exactly one epoch.
    let sched_start = trie.metrics_snapshot();
    let keys: Vec<[u8; 8]> = (0..300u64).map(encode_u64).collect();
    let mut out = vec![None; keys.len()];
    let mut sched = MlpScheduler::new();
    trie.get_batch_with(&keys, &mut out, &mut sched);
    let d = trie.metrics_snapshot().since(&sched_start);
    assert_eq!(d.sched.get(SchedCounter::Refill), keys.len() as u64);
    assert_eq!(d.sched.completions(), keys.len() as u64);
    assert_eq!(d.sched.get(SchedCounter::Redescent), 0, "quiesced: no torn slots");
    assert_eq!(d.rowex.get(RowexCounter::EpochPin), 1, "one pin per batch");
    assert_eq!(d.op(OpKind::GetBatch).count, 1);
}

/// Arena shadow: under the `metrics` build the compact arena backend
/// (the same instrumented front-end, with a recorder of its own) must
/// still agree with the heap trie answer-for-answer, and exercising it
/// must not tick the heap trie's counters.
#[test]
fn arena_shadow_agrees_under_metrics_build() {
    use hot_core::CompactHot;

    let mut trie = HotTrie::new(EmbeddedKeySource);
    let mut compact = CompactHot::new();
    for v in 0..4_000u64 {
        // EmbeddedKeySource resolves keys from TIDs, so the TID must be
        // the encoded value itself.
        let tid = v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1;
        let k = encode_u64(tid);
        assert_eq!(trie.insert(&k, tid), compact.insert(&k, tid));
    }
    assert_eq!(trie.structure_digest(), compact.structure_digest());

    let baseline = trie.metrics_snapshot();
    let mut hits = 0usize;
    for v in 0..4_000u64 {
        let k = encode_u64(v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1);
        hits += usize::from(compact.get(&k).is_some());
        compact.scan(&k, 3);
    }
    assert_eq!(hits, 4_000);
    let after = trie.metrics_snapshot().since(&baseline);
    assert_eq!(after.op(OpKind::Get).count, 0, "compact ops must not tick heap counters");
    assert_eq!(after.op(OpKind::Scan).count, 0);

    // And the instrumented heap results still match the compact ones.
    for v in (0..4_000u64).step_by(11) {
        let k = encode_u64(v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1);
        assert_eq!(trie.get(&k), compact.get(&k));
        assert_eq!(trie.scan(&k, 9), compact.scan(&k, 9));
    }
}
