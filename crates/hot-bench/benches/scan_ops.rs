//! Criterion micro-benchmark for the range-scan fast path: the allocating
//! `range_from` iterator (the pre-cursor baseline), the cursor-amortized
//! `scan_with` path and the batched `scan_batch_with` path (seek descents
//! through the batched descent engine), all over scan lengths
//! L ∈ {1, 10, 100} on the integer and url data sets.
//!
//! Each iteration runs one chunk of 256 scans from shuffled start keys, so
//! reported times divide evenly into per-scan cost. `alloc` pays a `Vec`
//! allocation plus frame-stack growth per scan; `cursor` reuses one
//! [`ScanCursor`] and one output buffer across the whole chunk; `batched`
//! additionally overlaps the seek descents of
//! [`DEFAULT_DEPTH`](hot_core::DEFAULT_DEPTH) scans.
//!
//! Runs at [`KEYS`] keys per data set.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use hot_bench::{BenchData, HotIndex};
use hot_core::{MlpScheduler, ScanCursor};
use hot_ycsb::{Dataset, DatasetKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Scans issued per benchmark iteration.
const CHUNK: usize = 256;

/// Keys loaded per data set.
const KEYS: usize = 200_000;

fn bench_scan_paths(c: &mut Criterion) {
    let n = KEYS;
    for kind in [DatasetKind::Integer, DatasetKind::Url] {
        let data = BenchData::new(Dataset::generate(kind, n, 7));
        let mut hot = HotIndex::new(std::sync::Arc::clone(&data.arena));
        for i in 0..n {
            use hot_bench::BenchIndex;
            hot.insert(&data.dataset.keys[i], data.tids[i]);
        }

        // Shuffled start keys: every seek descends from a cold root path,
        // like the Zipfian-chosen start keys of YCSB workload E.
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut StdRng::seed_from_u64(0x5CA11));
        let starts: Vec<&[u8]> = order.iter().map(|&i| data.dataset.keys[i].as_slice()).collect();
        let wrap = n - CHUNK;

        for len in [1usize, 10, 100] {
            let mut group = c.benchmark_group(format!("scan{}_{}", len, kind.label()));
            group.throughput(Throughput::Elements(CHUNK as u64));

            let mut offset = 0usize;
            group.bench_function("alloc", |b| {
                b.iter(|| {
                    offset = (offset + CHUNK) % wrap;
                    let mut sum = 0usize;
                    for key in &starts[offset..offset + CHUNK] {
                        sum += hot.trie().range_from(key).take(len).count();
                    }
                    black_box(sum)
                })
            });

            let mut cursor = ScanCursor::new();
            let mut out: Vec<u64> = Vec::new();
            let mut offset = 0usize;
            group.bench_function("cursor", |b| {
                b.iter(|| {
                    offset = (offset + CHUNK) % wrap;
                    let mut sum = 0usize;
                    for key in &starts[offset..offset + CHUNK] {
                        hot.trie().scan_with(key, len, &mut out, &mut cursor);
                        sum += out.len();
                    }
                    black_box(sum)
                })
            });

            let mut sched = MlpScheduler::new();
            let mut tids: Vec<u64> = Vec::new();
            let mut bounds: Vec<usize> = Vec::new();
            let mut requests: Vec<(&[u8], usize)> = Vec::new();
            let mut offset = 0usize;
            group.bench_function("batched", |b| {
                b.iter(|| {
                    offset = (offset + CHUNK) % wrap;
                    requests.clear();
                    requests.extend(starts[offset..offset + CHUNK].iter().map(|&k| (k, len)));
                    hot.trie().scan_batch_with(&requests, &mut tids, &mut bounds, &mut sched);
                    black_box(tids.len())
                })
            });
            group.finish();
        }
    }
}

criterion_group!(benches, bench_scan_paths);
criterion_main!(benches);
