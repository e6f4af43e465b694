//! Criterion benchmark for the bottom-up bulk loader: building a HOT trie
//! from pre-sorted keys (on one thread, and with a parallel worker budget)
//! against the incremental insert loop, on the integer and url data sets.
//!
//! Each iteration builds a complete fresh trie over the whole key set, so
//! the reported time is the full load phase; throughput is keys/second.
//! Sorting happens once in setup — it is the one-off data-preparation step
//! of a real load pipeline, not part of the build being measured.
//!
//! Runs at the [`KEY_COUNTS`] sizes. `bulk_seq` is
//! `bulk_load_parallel(…, 1)`, one thread whatever the store: a plain
//! `bulk_load` of the 1 M-key rows would put the store on chunks and build
//! on every core (DESIGN.md §11.4), turning the row parallel. The parallel
//! worker budget is the host's available parallelism (a single-core
//! container still exercises the partition/graft machinery, it just cannot
//! show speedup).

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use hot_bench::BenchData;
use hot_core::HotTrie;
use hot_ycsb::{Dataset, DatasetKind};
use std::sync::Arc;

/// Keys loaded per build.
const KEY_COUNTS: [usize; 2] = [100_000, 1_000_000];

fn bench_bulk_load(c: &mut Criterion) {
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    for kind in [DatasetKind::Integer, DatasetKind::Url] {
        for n in KEY_COUNTS {
            let data = BenchData::new(Dataset::generate(kind, n, 7));
            let order = data.dataset.sorted_order();
            let sorted: Vec<(&[u8], u64)> = order
                .iter()
                .map(|&i| (data.dataset.keys[i].as_slice(), data.tids[i]))
                .collect();

            let mut group = c.benchmark_group(format!("bulk_load_{}_{n}", kind.label()));
            group.throughput(Throughput::Elements(n as u64));
            group.sample_size(10);

            // Each routine returns the built trie, so its teardown (freeing
            // every node) is dropped by the harness outside the timer.
            group.bench_function("incremental", |b| {
                b.iter_batched(
                    || HotTrie::new(Arc::clone(&data.arena)),
                    |mut trie| {
                        for i in 0..n {
                            trie.insert(&data.dataset.keys[i], data.tids[i]);
                        }
                        black_box(trie.len());
                        trie
                    },
                    BatchSize::PerIteration,
                )
            });

            group.bench_function("bulk_seq", |b| {
                b.iter_batched(
                    || HotTrie::new(Arc::clone(&data.arena)),
                    |mut trie| {
                        black_box(trie.bulk_load_parallel(&sorted, 1).expect("sorted into empty"));
                        trie
                    },
                    BatchSize::PerIteration,
                )
            });

            group.bench_function(format!("bulk_par_t{workers}"), |b| {
                b.iter_batched(
                    || HotTrie::new(Arc::clone(&data.arena)),
                    |mut trie| {
                        black_box(
                            trie.bulk_load_parallel(&sorted, workers)
                                .expect("sorted into empty"),
                        );
                        trie
                    },
                    BatchSize::PerIteration,
                )
            });
            group.finish();
        }
    }
}

criterion_group!(benches, bench_bulk_load);
criterion_main!(benches);
