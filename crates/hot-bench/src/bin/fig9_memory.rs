//! Figure 9 — memory consumption after the load phase, per data set and
//! structure, plus the two reference lines of the figure: the minimum 8
//! bytes/key of raw tuple identifiers and the raw size of the stored keys.
//!
//! Paper shape (Section 6.3): HOT smallest on every data set (11.4–14.4
//! bytes/key, below the raw key size for both string sets); BT constant
//! across data sets and ≥ 88% above HOT; Masstree grows the most for long
//! keys (+230% from integer to url); ART in between (+51%).
//!
//! ```text
//! cargo run --release -p hot-bench --bin fig9_memory -- --keys 1000000
//! ```
//!
//! Two space metrics per row:
//!
//! * `live_B_key` — live index bytes per key (node headers, masks, partial
//!   keys, value slots): the paper's headline metric, a `size_of`
//!   summation over reachable structures.
//! * `footprint_B_key` — allocator-level bytes per key: what the index's
//!   allocator actually reserved from the OS, growth slack and free-list
//!   blocks included. For the compact arena backend this is committed slab
//!   capacity; for heap HOT after a bulk load of 2¹⁹ keys or more it is the
//!   store's 2 MiB node chunks, unused tail of the last one included
//!   (DESIGN.md §3.7); for the other heap structures no arena-level
//!   accounting exists, so reservation tracks live bytes and the two
//!   metrics coincide. The footprint is the honest answer to "what does
//!   this index cost my process".
//!
//! `with_keys_B_key` adds the storage a lookup actually needs: heap
//! structures store 8-byte TIDs and resolve keys through the shared
//! [`ArenaKeySource`] tuple store, so their self-contained cost includes
//! its reserved bytes; the compact arena backend front-codes keys inline
//! and adds nothing.
//!
//! With `--bulk` the indexes are built through [`BenchIndex::bulk_load`]
//! over pre-sorted keys instead of the insert loop, so the figure reports
//! the footprint of bulk-built structures (never larger live for HOT: the
//! bottom-up builder packs nodes at least as densely as incremental COW
//! growth; its footprint adds the last node chunk's tail).
//!
//! Every data set also gets a `HOT-arena` row ([`CompactHotIndex`]): its
//! get/scan checksums are asserted identical to the heap HOT row before its
//! numbers are reported, and a comment line compares its self-contained
//! bytes/key with heap HOT plus the tuple store. `tests/paper_claims.rs`
//! (`compact_backend_footprint_stays_self_contained`) asserts that claim at
//! test scale.
//!
//! [`BenchIndex::bulk_load`]: hot_bench::BenchIndex::bulk_load
//! [`ArenaKeySource`]: hot_keys::ArenaKeySource
//! [`CompactHotIndex`]: hot_bench::CompactHotIndex

use hot_bench::{
    all_indexes, print_host, row, run_load, run_load_bulk, BenchData, BenchIndex, CompactHotIndex,
    Config,
};
use hot_ycsb::{Dataset, DatasetKind};

/// Sum of found TIDs over every key plus scan entry counts from a strided
/// sample — a black-box the two backends must agree on exactly before
/// their memory rows are comparable (same tree, same answers).
fn op_checksum(index: &dyn BenchIndex, data: &BenchData, n: usize) -> u64 {
    let mut checksum = 0u64;
    for i in 0..n {
        if let Some(tid) = index.get(&data.dataset.keys[i]) {
            checksum = checksum.wrapping_add(tid.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
    }
    let mut i = 0;
    while i < n {
        checksum = checksum.wrapping_add(index.scan(&data.dataset.keys[i], 64) as u64);
        i += 997;
    }
    checksum
}

fn load(index: &mut dyn BenchIndex, data: &BenchData, config: &Config) {
    if config.bulk {
        run_load_bulk(index, data, config.keys);
    } else {
        run_load(index, data, config.keys);
    }
}

fn main() {
    let config = Config::from_args(&["--keys", "--seed", "--bulk"]);
    print_host();
    println!(
        "# Figure 9: index memory after loading {} keys (seed={}, load={})",
        config.keys,
        config.seed,
        if config.bulk { "bulk" } else { "insert-loop" }
    );
    println!("# paper_shape: HOT smallest everywhere (11-15 B/key); BT constant across data sets (~88% above HOT); Masstree worst on url (+230% vs its integer footprint); ART +51%");
    println!("# arena_shape: HOT-arena self-contained (keys inline) at <= 60% of heap HOT + tuple store on url");
    row(&[
        "dataset".into(),
        "structure".into(),
        "footprint_MB".into(),
        "footprint_B_key".into(),
        "live_B_key".into(),
        "with_keys_B_key".into(),
        "tid_floor_MB".into(),
        "raw_keys_MB".into(),
    ]);

    let mb = |bytes: usize| bytes as f64 / 1e6;
    for kind in DatasetKind::ALL {
        let data = BenchData::new(Dataset::generate(kind, config.keys, config.seed));
        let raw_keys = data.dataset.raw_key_bytes();
        let key_store = data.arena.capacity_bytes();
        let tid_floor = config.keys * 8;
        let mut heap_hot_with_keys = 0.0;
        let mut heap_hot_checksum = 0u64;
        for (slot, mut index) in all_indexes(&data.arena).into_iter().enumerate() {
            load(index.as_mut(), &data, &config);
            let stats = index.memory();
            // Heap structures answer lookups through the shared tuple
            // store, so their self-contained cost includes its reserved
            // bytes.
            let with_keys = stats.footprint_bytes() + key_store;
            if slot == 0 {
                // all_indexes puts HOT first: the heap side of the arena
                // comparison.
                heap_hot_with_keys = with_keys as f64 / config.keys as f64;
                heap_hot_checksum = op_checksum(index.as_ref(), &data, config.keys);
            }
            row(&[
                kind.label().into(),
                index.name().into(),
                format!("{:.1}", mb(stats.footprint_bytes())),
                format!("{:.2}", stats.footprint_per_key()),
                format!("{:.2}", stats.bytes_per_key()),
                format!("{:.2}", with_keys as f64 / config.keys as f64),
                format!("{:.1}", mb(tid_floor)),
                format!("{:.1}", mb(raw_keys)),
            ]);
        }
        let mut index = CompactHotIndex::new();
        load(&mut index, &data, &config);
        let checksum = op_checksum(&index, &data, config.keys);
        assert_eq!(
            checksum,
            heap_hot_checksum,
            "{}: arena backend get/scan checksum diverges from heap HOT",
            kind.label()
        );
        let stats = index.memory();
        // Keys live front-coded inside the slabs: nothing external to
        // add.
        let arena_bpk = stats.footprint_per_key();
        row(&[
            kind.label().into(),
            index.name().into(),
            format!("{:.1}", mb(stats.footprint_bytes())),
            format!("{:.2}", arena_bpk),
            format!("{:.2}", stats.bytes_per_key()),
            format!("{:.2}", arena_bpk),
            format!("{:.1}", mb(tid_floor)),
            format!("{:.1}", mb(raw_keys)),
        ]);
        let arena = index.trie().arena_stats();
        println!(
            "# {}: arena split: node {:.2} B/key (live {:.2}), leaf {:.2} B/key (tail {:.2}, dead {:.2})",
            kind.label(),
            arena.node_capacity_bytes as f64 / config.keys as f64,
            arena.node_live_bytes as f64 / config.keys as f64,
            arena.leaf_capacity_bytes as f64 / config.keys as f64,
            arena.leaf_tail_bytes as f64 / config.keys as f64,
            arena.leaf_dead_bytes as f64 / config.keys as f64,
        );
        println!(
            "# {}: arena {:.2} B/key vs heap {:.2} B/key with keys = {:.0}% (checksums agree)",
            kind.label(),
            arena_bpk,
            heap_hot_with_keys,
            100.0 * arena_bpk / heap_hot_with_keys
        );
    }
}
