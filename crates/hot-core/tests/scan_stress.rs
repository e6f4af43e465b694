//! Scan-under-churn stress test for the ROWEX-synchronized trie: reader
//! threads drive the cursor-amortized `scan_into` path and the single-pin
//! `scan_batch` path while writer threads insert and remove churn keys.
//!
//! Concurrent scans are not atomic snapshots, so the assertions are the ones
//! ROWEX actually guarantees: every returned TID names a key that was live
//! at some point (it belongs to the key universe), results are strictly
//! ascending, and every result is `>= start`. After the writers quiesce the
//! structure must pass `check_invariants()` and scans must agree exactly
//! with a `BTreeMap` model rebuilt from point lookups.

use hot_core::sync::ConcurrentHot;
use hot_keys::{decode_u64, encode_u64, EmbeddedKeySource};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Backbone keys (odd, always present) interleave with churn keys (even,
/// inserted/removed concurrently), so every scan crosses both populations.
const BACKBONE: u64 = 8_192;
const CHURN: u64 = 8_192;
const UNIVERSE_MAX: u64 = 2 * BACKBONE;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Checks the mid-churn guarantees for one scan result.
fn check_scan_result(tids: &[u64], start: u64, limit: usize) {
    assert!(
        tids.len() <= limit,
        "scan returned more than `limit` entries"
    );
    let mut prev: Option<u64> = None;
    for &tid in tids {
        assert!(tid >= start, "scan from {start} returned smaller key {tid}");
        assert!(tid < UNIVERSE_MAX, "TID {tid} was never inserted");
        if let Some(p) = prev {
            assert!(tid > p, "scan order violated: {p} then {tid}");
        }
        prev = Some(tid);
    }
}

#[test]
fn scans_stay_ordered_and_live_under_churn() {
    let trie = Arc::new(ConcurrentHot::new(EmbeddedKeySource));
    for k in 0..BACKBONE {
        trie.insert(&encode_u64(2 * k + 1), 2 * k + 1);
    }
    let done = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..3)
        .map(|t| {
            let trie = Arc::clone(&trie);
            std::thread::spawn(move || {
                let mut x = 0x9E37_79B9u64 + t as u64;
                for _ in 0..30_000 {
                    let k = 2 * (xorshift(&mut x) % CHURN);
                    if x & 4 == 0 {
                        trie.remove(&encode_u64(k));
                    } else {
                        trie.insert(&encode_u64(k), k);
                    }
                }
            })
        })
        .collect();

    // Two scalar readers with reused buffers plus one batched reader.
    let readers: Vec<_> = (0..2)
        .map(|t| {
            let trie = Arc::clone(&trie);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                let mut x = 0xC0FFEEu64 + t as u64;
                while !done.load(Ordering::Relaxed) {
                    let start = xorshift(&mut x) % UNIVERSE_MAX;
                    let limit = (x % 64) as usize + 1;
                    trie.scan_into(&encode_u64(start), limit, &mut out);
                    check_scan_result(&out, start, limit);
                }
            })
        })
        .collect();
    let batch_reader = {
        let trie = Arc::clone(&trie);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut tids = Vec::new();
            let mut bounds = Vec::new();
            let mut x = 0xBA7C4u64;
            while !done.load(Ordering::Relaxed) {
                let requests: Vec<([u8; 8], usize)> = (0..13)
                    .map(|_| {
                        let start = xorshift(&mut x) % UNIVERSE_MAX;
                        (encode_u64(start), (x % 32) as usize + 1)
                    })
                    .collect();
                trie.scan_batch(&requests, &mut tids, &mut bounds);
                assert_eq!(bounds.len(), requests.len() + 1);
                for (i, (key, limit)) in requests.iter().enumerate() {
                    check_scan_result(&tids[bounds[i]..bounds[i + 1]], decode_u64(key), *limit);
                }
            }
        })
    };

    for w in writers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
    batch_reader.join().unwrap();

    trie.check_invariants();

    // Quiesced: scans must now agree exactly with the point-lookup model.
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for k in 0..UNIVERSE_MAX {
        if let Some(tid) = trie.get(&encode_u64(k)) {
            model.insert(k, tid);
        }
    }
    assert!(
        model.len() >= BACKBONE as usize,
        "backbone keys must survive"
    );
    for k in 0..BACKBONE {
        assert_eq!(
            model.get(&(2 * k + 1)),
            Some(&(2 * k + 1)),
            "backbone key lost"
        );
    }

    let mut out = Vec::new();
    let mut x = 0xDEADBEEFu64;
    for _ in 0..400 {
        let start = xorshift(&mut x) % (UNIVERSE_MAX + 7);
        let limit = (x % 150) as usize;
        let want: Vec<u64> = model.range(start..).take(limit).map(|(_, &v)| v).collect();
        trie.scan_into(&encode_u64(start), limit, &mut out);
        assert_eq!(out, want, "quiesced scan from {start}");
    }
    let full = trie.scan(&[], usize::MAX);
    assert_eq!(full, model.values().copied().collect::<Vec<_>>());
}
