//! Figure 2 / Section 2 — the qualitative trie-variant comparison that
//! motivates HOT: the height of (a) a binary trie, (b) a binary Patricia
//! trie, (c) a fixed-span trie (span 3 in the figure; span 4 and 8 here,
//! matching the Generalized Prefix Tree and ART), (d) a fixed-span trie
//! with Patricia-style chain skipping, and (f) HOT's data-dependent span.
//!
//! Reproduced twice: for the figure's 13 nine-bit example keys and for the
//! four evaluation data sets.
//!
//! Paper shape: fixed spans leave the height hostage to the distribution;
//! HOT's adaptive span yields by far the smallest height everywhere.
//!
//! ```text
//! cargo run --release -p hot-bench --bin fig2_trie_variants -- --keys 200000
//! ```

use hot_bench::{print_host, row, BenchData, Config};
use hot_ycsb::{Dataset, DatasetKind};
use std::sync::Arc;

/// Leaf depths of a fixed-span trie over bit-chunks of `span` bits.
/// `skip_chains` omits single-child nodes (Patricia optimization).
/// Returns (mean leaf depth, max leaf depth).
///
/// Computed from the bit-level LCP array of the sorted keys: a range of
/// keys first splits at chunk level `floor(min_lcp / span)`; without chain
/// skipping every level down to the split costs one node, with skipping
/// only the branching level does.
fn fixed_span_depths(keys: &mut [Vec<u8>], span: usize, skip_chains: bool) -> (f64, usize) {
    keys.sort();
    // lcp[i] = common-prefix bits of sorted keys i and i+1.
    let lcp: Vec<u32> = keys
        .windows(2)
        .map(|w| hot_bits::first_mismatch_bit(&w[0], &w[1]).expect("distinct keys") as u32)
        .collect();

    #[allow(clippy::too_many_arguments)]
    fn recurse(
        lcp: &[u32],
        lo: usize,
        hi: usize, // inclusive key range
        depth_above: u64,
        entry_level: u64, // chunk level the range was entered at
        span: u64,
        skip: bool,
        sum: &mut u64,
        max: &mut u64,
        count: &mut u64,
    ) {
        if lo == hi {
            // Chain down to the key's end adds nothing: the key becomes a
            // leaf at its parent's next level.
            *sum += depth_above;
            *max = (*max).max(depth_above);
            *count += 1;
            return;
        }
        let min_lcp = (lo..hi).map(|i| lcp[i]).min().expect("non-empty");
        let split_level = min_lcp as u64 / span;
        // Levels entry..=split cost one node each without chain skipping;
        // with skipping only the branching node counts.
        let depth_here = if skip {
            depth_above + 1
        } else {
            depth_above + (split_level - entry_level) + 1
        };
        // Children: maximal subranges whose internal lcp exceeds the
        // branching chunk.
        let chunk_end = (split_level + 1) * span;
        let mut start = lo;
        for i in lo..hi {
            if (lcp[i] as u64) < chunk_end {
                recurse(
                    lcp,
                    start,
                    i,
                    depth_here,
                    split_level + 1,
                    span,
                    skip,
                    sum,
                    max,
                    count,
                );
                start = i + 1;
            }
        }
        recurse(
            lcp,
            start,
            hi,
            depth_here,
            split_level + 1,
            span,
            skip,
            sum,
            max,
            count,
        );
    }

    let (mut sum, mut max, mut count) = (0u64, 0u64, 0u64);
    recurse(
        &lcp,
        0,
        keys.len() - 1,
        0,
        0,
        span as u64,
        skip_chains,
        &mut sum,
        &mut max,
        &mut count,
    );
    (sum as f64 / count.max(1) as f64, max as usize)
}

fn main() {
    let config = Config::from_args(&["--keys", "--seed"]);
    print_host();

    // Part 1: the 13 nine-bit keys of Figure 2 (a representative set with
    // both dense and sparse regions, as in the paper's illustration).
    println!("# Figure 2 (example): 13 nine-bit keys");
    let nine_bit: Vec<u16> = vec![
        0b000000000,
        0b000000001,
        0b000000110,
        0b000001000,
        0b000100000,
        0b000100001,
        0b011000000,
        0b011000100,
        0b100000000,
        0b100100000,
        0b110000000,
        0b110000001,
        0b111111111,
    ];
    let mut keys: Vec<Vec<u8>> = nine_bit
        .iter()
        .map(|&v| vec![(v >> 1) as u8, ((v & 1) << 7) as u8])
        .collect();
    report_example(&mut keys);

    // Part 2: the four data sets.
    println!(
        "\n# Figure 2 (data sets): mean/max leaf depth per variant (keys={})",
        config.keys
    );
    println!("# paper_shape: binary >> patricia >> span-4 >= span-8 > HOT; fixed spans degrade on sparse (string) keys");
    row(&[
        "dataset".into(),
        "variant".into(),
        "mean_depth".into(),
        "max_depth".into(),
    ]);
    for kind in DatasetKind::ALL {
        let data = BenchData::new(Dataset::generate(kind, config.keys, config.seed));
        let dataset = &data.dataset;
        let arena = &data.arena;
        let mut keys = dataset.keys.clone();

        // Binary trie = fixed span 1 without chain skipping; Patricia = the
        // pointer-based reference implementation.
        let (bin_mean, bin_max) = fixed_span_depths(&mut keys, 1, false);
        emit(kind.label(), "binary-trie", bin_mean, bin_max);

        let mut patricia = hot_patricia::PatriciaTree::new(Arc::clone(arena));
        for (i, key) in dataset.keys.iter().enumerate() {
            patricia.insert(key, data.tids[i]);
        }
        let p = patricia.depth_stats();
        emit(
            kind.label(),
            "binary-patricia",
            p.mean_depth(),
            p.max_depth().unwrap_or(0),
        );

        let (s4_mean, s4_max) = fixed_span_depths(&mut keys, 4, false);
        emit(kind.label(), "span-4 (GPT)", s4_mean, s4_max);
        let (s4p_mean, s4p_max) = fixed_span_depths(&mut keys, 4, true);
        emit(kind.label(), "span-4+patricia", s4p_mean, s4p_max);
        let (s8_mean, s8_max) = fixed_span_depths(&mut keys, 8, true);
        emit(kind.label(), "span-8 (ART-like)", s8_mean, s8_max);

        let mut hot = hot_core::HotTrie::new(Arc::clone(arena));
        for (i, key) in dataset.keys.iter().enumerate() {
            hot.insert(key, data.tids[i]);
        }
        let h = hot.depth_stats();
        emit(
            kind.label(),
            "HOT (adaptive span)",
            h.mean_depth(),
            h.max_depth().unwrap_or(0),
        );
    }
}

fn report_example(keys: &mut [Vec<u8>]) {
    let mut keys_vec = keys.to_vec();
    let (bin_mean, bin_max) = fixed_span_depths(&mut keys_vec, 1, false);
    let (s3_mean, s3_max) = fixed_span_depths(&mut keys_vec, 3, false);
    let (s3p_mean, s3p_max) = fixed_span_depths(&mut keys_vec, 3, true);

    let mut arena = hot_keys::ArenaKeySource::new();
    let tids: Vec<u64> = keys_vec.iter().map(|k| arena.push(k)).collect();
    let arena = Arc::new(arena);
    let mut patricia = hot_patricia::PatriciaTree::new(Arc::clone(&arena));
    let mut hot = hot_core::HotTrie::new(Arc::clone(&arena));
    for (key, &tid) in keys_vec.iter().zip(&tids) {
        patricia.insert(key, tid);
        hot.insert(key, tid);
    }
    let p = patricia.depth_stats();
    let h = hot.depth_stats();
    row(&["variant".into(), "mean_depth".into(), "max_depth".into()]);
    emit("example", "binary-trie", bin_mean, bin_max);
    emit(
        "example",
        "binary-patricia",
        p.mean_depth(),
        p.max_depth().unwrap_or(0),
    );
    emit("example", "span-3", s3_mean, s3_max);
    emit("example", "span-3+patricia", s3p_mean, s3p_max);
    emit("example", "HOT", h.mean_depth(), h.max_depth().unwrap_or(0));
    println!(
        "# paper: binary height 9, patricia 5, span-3 height 3, HOT(k=4) height 2; with k=32 all 13 keys fit one node"
    );
}

fn emit(dataset: &str, variant: &str, mean: f64, max: usize) {
    row(&[
        dataset.into(),
        variant.into(),
        format!("{mean:.2}"),
        max.to_string(),
    ]);
}
