//! Quickstart: the three ways to use HOT.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use hot_core::sync::ConcurrentHot;
use hot_core::HotTrie;
use hot_keys::{encode_u64, str_key, ArenaKeySource, EmbeddedKeySource};
use std::sync::Arc;

fn main() {
    // ── 1. HotTrie over a key source: the index maps keys to TIDs ──────────
    // The keys live in the key source (here an arena standing in for the
    // tuple store); the index holds only TIDs and reads a key back from its
    // TID whenever it must compare one. Values stay beside the keys: row
    // `i` of `cities` is the tuple the TID `tids[i]` names. Strings use the
    // prefix-free encoder.
    let cities = [
        ("vienna", 1_897_000u64),
        ("innsbruck", 132_000),
        ("munich", 1_488_000),
        ("graz", 291_000),
    ];
    let mut names = ArenaKeySource::new();
    let tids: Vec<u64> = cities
        .iter()
        .map(|(name, _)| names.push(&str_key(name.as_bytes()).unwrap()))
        .collect();
    // The arena hands out TIDs in push order, so a TID's row is a search.
    let row = |tid: u64| tids.binary_search(&tid).expect("a TID of the table");
    let mut index = HotTrie::new(&names);
    for (&tid, (name, _)) in tids.iter().zip(&cities) {
        index.insert(&str_key(name.as_bytes()).unwrap(), tid);
    }

    let graz = index
        .get(&str_key(b"graz").unwrap())
        .map(|tid| cities[row(tid)].1);
    println!("population of graz: {graz:?}");
    assert_eq!(graz, Some(291_000));
    println!("cities from 'i' onward:");
    let mut from_i = Vec::new();
    for tid in index.range_from(&str_key(b"i").unwrap()) {
        let (name, pop) = cities[row(tid)];
        println!("  {name}: {pop}");
        from_i.push(name);
    }
    assert_eq!(from_i, ["innsbruck", "munich", "vienna"]);

    // ── 2. HotTrie over embedded keys: no tuple store at all ───────────────
    // The index stores only discriminative bits; integer keys up to 63 bits
    // are embedded directly in the TID, so the index is all there is.
    let mut trie = HotTrie::new(EmbeddedKeySource);
    for value in [42u64, 7, 1 << 40, 123_456_789] {
        trie.insert(&encode_u64(value), value);
    }
    assert_eq!(trie.get(&encode_u64(7)), Some(7));
    assert_eq!(trie.get(&encode_u64(8)), None);
    println!(
        "\ninteger index: {} keys in {} bytes ({:.1} bytes/key), height {}",
        trie.len(),
        trie.memory_stats().total_bytes(),
        trie.memory_stats().bytes_per_key(),
        trie.height(),
    );
    let ordered: Vec<u64> = trie.iter().collect();
    println!("in key order: {ordered:?}");

    // Batched lookups: resolve independent keys together so their cache
    // misses overlap (memory-level parallelism). Results are identical to
    // scalar `get`, one slot per key.
    let probes: Vec<[u8; 8]> = [42u64, 8, 1 << 40, 5]
        .iter()
        .map(|&v| encode_u64(v))
        .collect();
    let mut found = vec![None; probes.len()];
    trie.get_batch(&probes, &mut found);
    println!("batched lookups: {found:?}");
    assert_eq!(found, vec![Some(42), None, Some(1 << 40), None]);

    // Range scans: `scan` allocates per call; `scan_into` with a reused
    // output buffer makes the steady state allocation-free (the trie
    // parks its cursor per thread), and `scan_batch` overlaps the seek
    // descents of all its requests (results land flat, delimited by
    // prefix offsets in `bounds`).
    let mut run = Vec::new();
    trie.scan_into(&encode_u64(8), 2, &mut run);
    println!("scan from 8, limit 2: {run:?}");
    assert_eq!(run, vec![42, 123_456_789]);
    let requests = [(encode_u64(0), 2), (encode_u64(100), 10)];
    let (mut tids, mut bounds) = (Vec::new(), Vec::new());
    trie.scan_batch(&requests, &mut tids, &mut bounds);
    assert_eq!(tids[bounds[0]..bounds[1]], [7, 42]);
    assert_eq!(tids[bounds[1]..bounds[2]], [123_456_789, 1 << 40]);

    // Bulk loading: a sorted key set builds bottom-up in one pass — every
    // node encoded once at its final size, height provably minimal. The
    // result answers lookups exactly like the insert-loop trie. (The figure
    // harnesses expose this as `--bulk`; a set large enough for the trie's
    // own 2 MiB chunks also builds on every core.)
    let sorted: Vec<([u8; 8], u64)> = (0..100_000u64).map(|v| (encode_u64(v), v)).collect();
    let mut bulk = HotTrie::new(EmbeddedKeySource);
    bulk.bulk_load(&sorted)
        .expect("sorted entries into an empty trie");
    assert_eq!(bulk.get(&encode_u64(4242)), Some(4242));
    println!(
        "bulk-loaded index: {} keys, height {}, {:.1} bytes/key",
        bulk.len(),
        bulk.height(),
        bulk.memory_stats().bytes_per_key(),
    );

    // ── 3. ConcurrentHot: the ROWEX-synchronized index (Section 5) ─────────
    let shared = Arc::new(ConcurrentHot::new(EmbeddedKeySource));
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let shared = Arc::clone(&shared);
            scope.spawn(move || {
                for i in (t..10_000).step_by(4) {
                    shared.insert(&encode_u64(i), i);
                }
            });
        }
    });
    println!(
        "\nconcurrent index: {} keys, lookup(4242) = {:?}",
        shared.len(),
        shared.get(&encode_u64(4242))
    );
    assert_eq!(shared.len(), 10_000);
}
