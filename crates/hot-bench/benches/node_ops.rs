//! Criterion micro-benchmarks for the node-level primitives of Section 4:
//! PEXT-based dense-key extraction (hardware vs scalar), SIMD sparse-key
//! search (hardware vs scalar) and the copy-on-write node cycle.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hot_core::node::builder::Builder;
use hot_core::{HotTrie, NodeRef};
use hot_keys::EmbeddedKeySource;

fn bench_pext(c: &mut Criterion) {
    let mut group = c.benchmark_group("pext");
    let xs: Vec<(u64, u64)> = (0..64u64)
        .map(|i| {
            (
                i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                i.wrapping_mul(0xBF58_476D_1CE4_E5B9) | 1,
            )
        })
        .collect();
    group.bench_function("hardware_dispatch", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &(x, m) in &xs {
                acc ^= hot_bits::pext64(black_box(x), black_box(m));
            }
            acc
        })
    });
    group.bench_function("scalar", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &(x, m) in &xs {
                acc ^= hot_bits::pext::pext64_scalar(black_box(x), black_box(m));
            }
            acc
        })
    });
    group.finish();
}

fn bench_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_key_search");
    let mut pkeys8 = [0u8; 32];
    for (i, k) in pkeys8.iter_mut().enumerate() {
        *k = (i as u8).wrapping_mul(37) & 0x1F;
    }
    pkeys8[0] = 0;
    #[cfg(target_arch = "x86_64")]
    if let Some(k) = hot_bits::Avx2::detect() {
        use hot_bits::Kernel;
        group.bench_function("simd_u8_32", |b| {
            // SAFETY: `pkeys8` is a 32-byte array, matching the count passed.
            b.iter(|| unsafe {
                let mut acc = 0usize;
                for dense in 0..64u32 {
                    acc += k.search_subset::<1>(black_box(pkeys8.as_ptr()), 32, dense);
                }
                acc
            })
        });
    }
    group.bench_function("scalar_u8_32", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for dense in 0..64u8 {
                acc +=
                    hot_bits::search::search_subset_u8_scalar(black_box(&pkeys8), 32, dense);
            }
            acc
        })
    });
    group.finish();
}

fn bench_cow_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("node_cow");
    // The heap store a plain `HotTrie` has: the blocks come from the same
    // allocator the writes use.
    let trie = HotTrie::new(EmbeddedKeySource);
    for n in [8usize, 32] {
        // A height-1 node over n leaves with n-1 positions.
        let positions: Vec<u16> = (0..n as u16 - 1).collect();
        let m = positions.len();
        let sparse: Vec<u32> = (0..n as u32)
            .map(|i| if i == 0 { 0 } else { 1 << (m as u32 - i.min(m as u32)) })
            .collect();
        // Build a *valid* linearization via repeated insert_entry instead.
        let mut b = Builder::pair(
            (m - 1) as u16,
            NodeRef::leaf(0).0,
            NodeRef::leaf(1).0,
            1,
        );
        for i in 2..n {
            let pos = (m - i + 1) as u16;
            b.insert_entry(pos, 0, 1, NodeRef::leaf(i as u64).0);
        }
        let _ = sparse;
        group.bench_function(format!("encode_free_{n}_entries"), |bch| {
            bch.iter(|| {
                let r = hot_core::node::encode_for_bench(&trie, &b);
                // SAFETY: never published.
                unsafe { hot_core::node::free_for_bench(&trie, r) };
                r.0
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pext, bench_search, bench_cow_cycle);
criterion_main!(benches);
