//! A multi-threaded key-value workload on the ROWEX-synchronized HOT
//! (Section 5): writer threads upsert while reader threads run point
//! lookups and short scans, lock-free and wait-free for the readers.
//!
//! ```text
//! cargo run --release --example concurrent_kv
//! ```

use hot_core::sync::ConcurrentHot;
use hot_keys::{encode_u64, EmbeddedKeySource};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let trie = Arc::new(ConcurrentHot::new(EmbeddedKeySource));
    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let writes = Arc::new(AtomicU64::new(0));
    let scans = Arc::new(AtomicU64::new(0));

    // Preload a stable working set.
    for i in 0..100_000u64 {
        trie.insert(&encode_u64(i * 2), i * 2);
    }
    println!("preloaded {} even keys", trie.len());

    let started = Instant::now();
    std::thread::scope(|scope| {
        // Two writers inserting odd keys.
        for t in 0..2u64 {
            let trie = Arc::clone(&trie);
            let stop = Arc::clone(&stop);
            let writes = Arc::clone(&writes);
            scope.spawn(move || {
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let key = i * 2 + 1;
                    trie.insert(&encode_u64(key), key);
                    writes.fetch_add(1, Ordering::Relaxed);
                    i += 2;
                }
            });
        }
        // Two readers: every preloaded even key must always be found.
        for t in 0..2u64 {
            let trie = Arc::clone(&trie);
            let stop = Arc::clone(&stop);
            let reads = Arc::clone(&reads);
            scope.spawn(move || {
                let mut x = 0x9E37_79B9u64 ^ t;
                while !stop.load(Ordering::Relaxed) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let key = (x % 100_000) * 2;
                    assert_eq!(trie.get(&encode_u64(key)), Some(key));
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // One scanner: ordered windows while the tree morphs underneath.
        {
            let trie = Arc::clone(&trie);
            let stop = Arc::clone(&stop);
            let scans = Arc::clone(&scans);
            scope.spawn(move || {
                let mut x = 12345u64;
                while !stop.load(Ordering::Relaxed) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let start = x % 200_000;
                    let window = trie.scan(&encode_u64(start), 50);
                    // Scans must come back sorted.
                    assert!(window.windows(2).all(|w| w[0] < w[1]));
                    scans.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        std::thread::sleep(Duration::from_millis(750));
        stop.store(true, Ordering::Relaxed);
    });

    let secs = started.elapsed().as_secs_f64();
    println!(
        "in {:.2}s: {} reads, {} writes, {} scans ({:.2} Mops combined)",
        secs,
        reads.load(Ordering::Relaxed),
        writes.load(Ordering::Relaxed),
        scans.load(Ordering::Relaxed),
        (reads.load(Ordering::Relaxed) + writes.load(Ordering::Relaxed)) as f64 / secs / 1e6,
    );
    println!("final size: {} keys — validating structure…", trie.len());
    trie.check_invariants();
    println!("structure valid ✓");
}
