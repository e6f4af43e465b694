//! Figure 11 — the depth distribution of leaf values (min / mean / max) for
//! HOT, ART and the binary Patricia trie, over all four data sets.
//!
//! Paper shape (Section 6.5): HOT reduces the mean leaf depth by up to 68%
//! vs ART on the textual data sets and by an order of magnitude vs binary
//! Patricia; yago: HOT lowest; integer: ART's 256-fanout wins
//! (HOT 6.0 vs ART 4.02 at 50 M keys). HOT's worst-case mean is only ~42%
//! above its best case, while ART varies by 560% and Patricia by 270%.
//!
//! ```text
//! cargo run --release -p hot-bench --bin fig11_height -- --keys 1000000
//! ```

use hot_bench::{depth_row, print_host, row, BenchData, Config};
use hot_keys::DepthStats;
use hot_ycsb::{Dataset, DatasetKind};
use std::sync::Arc;

fn main() {
    let config = Config::from_args(&["--keys", "--seed"]);
    print_host();
    println!(
        "# Figure 11: leaf depth distribution after loading {} keys (seed={})",
        config.keys, config.seed
    );
    println!("# paper_shape: HOT lowest mean depth on url/email/yago; ART lower on integer; HOT's depth varies least across data sets");
    row(&[
        "dataset".into(),
        "structure".into(),
        "min".into(),
        "mean".into(),
        "max".into(),
    ]);

    let mut hot_means: Vec<f64> = Vec::new();
    let mut art_means: Vec<f64> = Vec::new();
    let mut bin_means: Vec<f64> = Vec::new();

    for kind in DatasetKind::ALL {
        let data = BenchData::new(Dataset::generate(kind, config.keys, config.seed));
        let mut hot = hot_core::HotTrie::new(Arc::clone(&data.arena));
        let mut art = hot_art::Art::new(Arc::clone(&data.arena));
        let mut bin = hot_patricia::PatriciaTree::new(Arc::clone(&data.arena));
        for (i, key) in data.dataset.keys.iter().enumerate() {
            hot.insert(key, data.tids[i]);
            art.insert(key, data.tids[i]);
            bin.insert(key, data.tids[i]);
        }

        for (name, stats) in [
            ("HOT", hot.depth_stats()),
            ("ART", art.depth_stats()),
            ("BIN", bin.depth_stats()),
        ] {
            let (min, mean, max) = depth_row(&stats);
            match name {
                "HOT" => hot_means.push(mean),
                "ART" => art_means.push(mean),
                _ => bin_means.push(mean),
            }
            row(&[
                kind.label().into(),
                name.into(),
                min.to_string(),
                format!("{mean:.2}"),
                max.to_string(),
            ]);
        }
    }

    let spread = |means: &[f64]| -> f64 {
        let max = means.iter().cloned().fold(f64::MIN, f64::max);
        let min = means.iter().cloned().fold(f64::MAX, f64::min);
        (max / min - 1.0) * 100.0
    };
    println!(
        "# worst-vs-best mean depth spread: HOT {:.0}% | ART {:.0}% | BIN {:.0}% (paper: 42% | 560% | 270%)",
        spread(&hot_means),
        spread(&art_means),
        spread(&bin_means)
    );
    let _ = DepthStats::new();
}
