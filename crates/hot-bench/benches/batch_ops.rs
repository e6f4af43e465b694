//! Criterion micro-benchmark for the batched descent engine: HOT's
//! `get_batch_with` swept over in-flight depths N ∈ {1, 4, 8, 16, 32, 64}
//! against the scalar `get` loop, on the integer, email and url data sets.
//!
//! Each iteration resolves one chunk of 1024 shuffled probe keys, so every
//! reported time divides evenly into per-lookup cost. `batched_n1` isolates
//! the pure engine overhead (same code path, no overlap); the win should
//! appear from N = 4 on and flatten once N exceeds the machine's
//! line-fill-buffer budget (~10 on commodity x86);
//! `hot_core::DEFAULT_DEPTH` sits on that plateau.
//!
//! Runs at [`KEYS`] keys per data set.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use hot_bench::{BenchData, HotIndex};
use hot_core::MlpScheduler;
use hot_ycsb::{Dataset, DatasetKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Probe keys resolved per benchmark iteration.
const CHUNK: usize = 1024;

/// Keys loaded per data set.
const KEYS: usize = 200_000;

fn bench_batched_lookups(c: &mut Criterion) {
    let n = KEYS;
    for kind in [DatasetKind::Integer, DatasetKind::Email, DatasetKind::Url] {
        let data = BenchData::new(Dataset::generate(kind, n, 7));
        let mut hot = HotIndex::new(std::sync::Arc::clone(&data.arena));
        for i in 0..n {
            use hot_bench::BenchIndex;
            hot.insert(&data.dataset.keys[i], data.tids[i]);
        }

        // Shuffled probe order: defeats any correlation between insert
        // order and probe order, so descents miss the cache like the YCSB
        // uniform distribution does.
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut StdRng::seed_from_u64(0xBA7C4));
        let probes: Vec<&[u8]> = order.iter().map(|&i| data.dataset.keys[i].as_slice()).collect();
        let wrap = n - CHUNK;

        let mut group = c.benchmark_group(format!("batch_get_{}", kind.label()));
        group.throughput(Throughput::Elements(CHUNK as u64));

        let mut offset = 0usize;
        group.bench_function("scalar", |b| {
            b.iter(|| {
                use hot_bench::BenchIndex;
                offset = (offset + CHUNK) % wrap;
                let mut sum = 0u64;
                for key in &probes[offset..offset + CHUNK] {
                    if let Some(tid) = hot.get(key) {
                        sum = sum.wrapping_add(tid);
                    }
                }
                black_box(sum)
            })
        });

        for depth in [1usize, 4, 8, 16, 32, 64] {
            let mut sched = MlpScheduler::with_depth(depth);
            let mut out: Vec<Option<u64>> = vec![None; CHUNK];
            let mut offset = 0usize;
            group.bench_function(format!("batched_n{depth}"), |b| {
                b.iter(|| {
                    offset = (offset + CHUNK) % wrap;
                    hot.trie()
                        .get_batch_with(&probes[offset..offset + CHUNK], &mut out, &mut sched);
                    let mut sum = 0u64;
                    for tid in out.iter().flatten() {
                        sum = sum.wrapping_add(*tid);
                    }
                    black_box(sum)
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_batched_lookups);
criterion_main!(benches);
