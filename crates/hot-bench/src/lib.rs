//! Benchmark harness shared by the figure-reproduction binaries.
//!
//! Every experiment of the paper's evaluation (Section 6) is regenerated by
//! one binary in `src/bin/`:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig8_throughput`  | Figure 8 — workloads C, E and insert-only |
//! | `fig9_memory`      | Figure 9 — memory consumption after load |
//! | `fig10_scalability`| Figure 10 — concurrent insert/lookup scaling |
//! | `fig11_height`     | Figure 11 — leaf-depth distributions |
//! | `appendix_a`       | Appendix A — all 6 workloads × 4 data sets × 2 distributions |
//! | `fig2_trie_variants` | Figure 2 — qualitative trie-variant height comparison |
//! | `ablation_simd`    | Section 4's rationale — PEXT/AVX2 vs the scalar fallbacks |
//!
//! All binaries accept `--keys N`, `--ops N` and `--seed N` (defaults scale
//! the paper's 50 M / 100 M configuration down to laptop size; pass the
//! paper numbers to reproduce at full scale) and print machine-readable
//! tab-separated rows plus the expected qualitative shape from the paper.
//! They print text and gate nothing: performance is measured and gated by
//! `bench/` (`BENCHMARK.json`, DESIGN.md §13.5); the checksum asserts
//! inside the binaries are correctness checks and fail the run.
//!
//! The five index structures plug in through [`BenchIndex`]; all resolve
//! keys through one shared [`ArenaKeySource`] so the comparison is
//! apples-to-apples.

#![deny(missing_docs)]

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use hot_core::{ArenaStore, Backend, HeapStore, MlpScheduler, ScanCursor, Trie};
use hot_keys::MemoryStats;
use hot_keys::{ArenaKeySource, DepthStats, PaddedKey};
use hot_ycsb::{BatchedOperation, Dataset, Operation, WorkloadRun};

/// Uniform facade over the competing index structures.
pub trait BenchIndex {
    /// Display name used in result rows.
    fn name(&self) -> &'static str;
    /// Insert `key → tid`.
    fn insert(&mut self, key: &[u8], tid: u64);
    /// Point lookup.
    fn get(&self, key: &[u8]) -> Option<u64>;
    /// Batched point lookups: one result slot per key.
    ///
    /// The default resolves each key with a scalar [`get`](BenchIndex::get),
    /// which is what every comparison-point baseline runs. Indexes with a
    /// memory-level-parallel lookup path (HOT) override it, so batched and
    /// scalar benchmark rows compare the same structure, not different
    /// drivers.
    fn get_batch(&self, keys: &[&[u8]], out: &mut [Option<u64>]) {
        for (key, slot) in keys.iter().zip(out.iter_mut()) {
            *slot = self.get(key);
        }
    }
    /// Bulk-load `keys[i] → tids[i]` into the (empty) index. `keys` arrive
    /// sorted ascending and distinct; `threads` is the worker budget for
    /// indexes with a parallel build path.
    ///
    /// The default falls back to an insert loop, so every baseline supports
    /// the `--bulk` load mode; indexes with a real bottom-up builder (HOT,
    /// ART, B+-tree) override it.
    fn bulk_load(&mut self, keys: &[&[u8]], tids: &[u64], threads: usize) {
        let _ = threads;
        for (key, &tid) in keys.iter().zip(tids) {
            self.insert(key, tid);
        }
    }
    /// Range scan: number of entries found (≤ `limit`).
    ///
    /// Indexes with an amortized scan path (HOT's cursor-reusing
    /// `scan_with`) override this; baselines run their natural per-call
    /// implementation.
    fn scan(&self, key: &[u8], limit: usize) -> usize;
    /// Range scan through the *allocating* per-call path — the pre-cursor
    /// behaviour, kept callable so benchmark rows can compare the two on
    /// the same structure. Baselines have no amortized state, so their
    /// default is simply [`scan`](BenchIndex::scan).
    fn scan_fresh(&self, key: &[u8], limit: usize) -> usize {
        self.scan(key, limit)
    }
    /// Batched range scans: one entry count per `(start key, limit)`
    /// request, written to `counts`.
    ///
    /// The default loops over [`scan`](BenchIndex::scan); HOT overrides it
    /// with `scan_batch` (seek descents through the batched descent
    /// engine), so batched and scalar workload-E rows compare the same
    /// structure, not different drivers.
    fn scan_batch(&self, requests: &[(&[u8], usize)], counts: &mut Vec<usize>) {
        counts.clear();
        counts.extend(requests.iter().map(|&(key, limit)| self.scan(key, limit)));
    }
    /// Value update (upsert of the same key).
    fn update(&mut self, key: &[u8], tid: u64);
    /// Index memory footprint.
    fn memory(&self) -> MemoryStats;
    /// Leaf-depth histogram.
    fn depth(&self) -> DepthStats;
    /// Whole-structure invariant check (`--check` support). Returns a
    /// one-line summary when the index implements one, `None` otherwise;
    /// **panics** on a violated invariant. Baselines without a checker
    /// inherit the default.
    fn check_invariants(&self) -> Option<String> {
        None
    }
}

/// HOT (this paper's contribution), over either back-end of the one trie:
/// [`HotIndex`] and [`CompactHotIndex`] are its two instantiations.
///
/// Carries reusable lookup state: a padded search-key buffer so scalar gets
/// skip the 264-byte re-zeroing of a fresh buffer, and an [`MlpScheduler`]
/// so `get_batch` / `scan_batch` amortize their lane ring across the whole
/// run. `RefCell` keeps [`BenchIndex::get`] a `&self` method; the harness
/// is single-threaded per index.
pub struct TrieIndex<B: Backend> {
    name: &'static str,
    trie: Trie<B>,
    key_buf: RefCell<Box<PaddedKey>>,
    /// Amortized scan state: traversal cursor plus result buffer, reused
    /// across every [`BenchIndex::scan`] call of a run.
    scan_state: RefCell<(ScanCursor, Vec<u64>)>,
    /// The batched descent engine plus the flat TID / bounds buffers of
    /// the batched scans.
    batch_state: RefCell<(MlpScheduler, Vec<u64>, Vec<usize>)>,
}

/// HOT over the heap back-end, resolving keys through the shared
/// [`ArenaKeySource`].
pub type HotIndex = TrieIndex<HeapStore<Arc<ArenaKeySource>>>;

/// HOT over the compact 32-bit arena back-end (fig9's `HOT-arena` row): nodes and
/// front-coded leaf records live in slab arenas addressed by 32-bit
/// offsets, so lookups resolve keys inline without touching the shared
/// [`ArenaKeySource`]. Its memory row is therefore self-contained where
/// the heap structures' rows still lean on the external tuple store.
pub type CompactHotIndex = TrieIndex<ArenaStore>;

impl HotIndex {
    /// A fresh trie resolving keys from `arena`.
    pub fn new(arena: Arc<ArenaKeySource>) -> HotIndex {
        TrieIndex::over("HOT", hot_core::HotTrie::new(arena))
    }
}

impl CompactHotIndex {
    /// A fresh compact trie with default arena ceilings.
    pub fn new() -> CompactHotIndex {
        TrieIndex::over("HOT-arena", hot_core::CompactHot::new())
    }
}

impl Default for CompactHotIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl<B: Backend> TrieIndex<B> {
    fn over(name: &'static str, trie: Trie<B>) -> Self {
        TrieIndex {
            name,
            trie,
            key_buf: RefCell::new(Box::new(PaddedKey::new())),
            scan_state: RefCell::new((ScanCursor::new(), Vec::new())),
            batch_state: RefCell::new((MlpScheduler::new(), Vec::new(), Vec::new())),
        }
    }

    /// The wrapped trie.
    pub fn trie(&self) -> &Trie<B> {
        &self.trie
    }
}

/// ART baseline.
pub struct ArtIndex(pub hot_art::Art<Arc<ArenaKeySource>>);
/// STX-style B+-tree baseline.
pub struct BtIndex(pub hot_btree::BPlusTree<Arc<ArenaKeySource>>);
/// Masstree-like baseline.
pub struct MasstreeIndex(pub hot_masstree::Masstree<Arc<ArenaKeySource>>);

impl<B: Backend> BenchIndex for TrieIndex<B> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn insert(&mut self, key: &[u8], tid: u64) {
        self.trie.insert(key, tid);
    }
    fn get(&self, key: &[u8]) -> Option<u64> {
        self.trie.get_with(key, &mut self.key_buf.borrow_mut())
    }
    fn get_batch(&self, keys: &[&[u8]], out: &mut [Option<u64>]) {
        self.trie
            .get_batch_with(keys, out, &mut self.batch_state.borrow_mut().0);
    }
    fn bulk_load(&mut self, keys: &[&[u8]], tids: &[u64], threads: usize) {
        let entries: Vec<(&[u8], u64)> =
            keys.iter().copied().zip(tids.iter().copied()).collect();
        self.trie
            .bulk_load_parallel(&entries, threads)
            .expect("sorted entries into an empty trie");
    }
    fn scan(&self, key: &[u8], limit: usize) -> usize {
        let (cursor, out) = &mut *self.scan_state.borrow_mut();
        self.trie.scan_with(key, limit, out, cursor);
        out.len()
    }
    fn scan_fresh(&self, key: &[u8], limit: usize) -> usize {
        // The pre-cursor path: fresh iterator state (frame stack, padded
        // key) per call.
        self.trie.range_from(key).take(limit).count()
    }
    fn scan_batch(&self, requests: &[(&[u8], usize)], counts: &mut Vec<usize>) {
        let (sched, tids, bounds) = &mut *self.batch_state.borrow_mut();
        self.trie.scan_batch_with(requests, tids, bounds, sched);
        counts.clear();
        counts.extend(bounds.windows(2).map(|w| w[1] - w[0]));
    }
    fn update(&mut self, key: &[u8], tid: u64) {
        self.trie.insert(key, tid);
    }
    fn memory(&self) -> MemoryStats {
        self.trie.memory_stats()
    }
    fn depth(&self) -> DepthStats {
        self.trie.depth_stats()
    }
    fn check_invariants(&self) -> Option<String> {
        match self.trie.try_check_invariants() {
            Ok(report) => Some(format!(
                "{} nodes, {} leaves, height {}, height slack {}",
                report.nodes, report.leaves, report.height, report.height_slack
            )),
            Err(msg) => panic!("{} invariant violation: {msg}", self.name),
        }
    }
}

impl BenchIndex for ArtIndex {
    fn name(&self) -> &'static str {
        "ART"
    }
    fn insert(&mut self, key: &[u8], tid: u64) {
        self.0.insert(key, tid);
    }
    fn bulk_load(&mut self, keys: &[&[u8]], tids: &[u64], _threads: usize) {
        let entries: Vec<(&[u8], u64)> =
            keys.iter().copied().zip(tids.iter().copied()).collect();
        self.0.bulk_load(&entries);
    }
    fn get(&self, key: &[u8]) -> Option<u64> {
        self.0.get(key)
    }
    fn scan(&self, key: &[u8], limit: usize) -> usize {
        self.0.range_from(key).take(limit).count()
    }
    fn update(&mut self, key: &[u8], tid: u64) {
        self.0.insert(key, tid);
    }
    fn memory(&self) -> MemoryStats {
        self.0.memory_stats()
    }
    fn depth(&self) -> DepthStats {
        self.0.depth_stats()
    }
}

impl BenchIndex for BtIndex {
    fn name(&self) -> &'static str {
        "BT"
    }
    fn insert(&mut self, key: &[u8], tid: u64) {
        self.0.insert(key, tid);
    }
    fn bulk_load(&mut self, keys: &[&[u8]], tids: &[u64], _threads: usize) {
        let entries: Vec<(&[u8], u64)> =
            keys.iter().copied().zip(tids.iter().copied()).collect();
        self.0.bulk_load(&entries);
    }
    fn get(&self, key: &[u8]) -> Option<u64> {
        self.0.get(key)
    }
    fn scan(&self, key: &[u8], limit: usize) -> usize {
        self.0.range_from(key).take(limit).count()
    }
    fn update(&mut self, key: &[u8], tid: u64) {
        self.0.insert(key, tid);
    }
    fn memory(&self) -> MemoryStats {
        self.0.memory_stats()
    }
    fn depth(&self) -> DepthStats {
        self.0.depth_stats()
    }
}

impl BenchIndex for MasstreeIndex {
    fn name(&self) -> &'static str {
        "Masstree"
    }
    fn insert(&mut self, key: &[u8], tid: u64) {
        self.0.insert(key, tid);
    }
    fn get(&self, key: &[u8]) -> Option<u64> {
        self.0.get(key)
    }
    fn scan(&self, key: &[u8], limit: usize) -> usize {
        self.0.scan(key, limit).len()
    }
    fn update(&mut self, key: &[u8], tid: u64) {
        self.0.insert(key, tid);
    }
    fn memory(&self) -> MemoryStats {
        self.0.memory_stats()
    }
    fn depth(&self) -> DepthStats {
        self.0.depth_stats()
    }
}

/// The four structures of the performance figures, freshly constructed over
/// a shared key arena.
pub fn all_indexes(arena: &Arc<ArenaKeySource>) -> Vec<Box<dyn BenchIndex>> {
    vec![
        Box::new(HotIndex::new(Arc::clone(arena))),
        Box::new(ArtIndex(hot_art::Art::new(Arc::clone(arena)))),
        Box::new(MasstreeIndex(hot_masstree::Masstree::new(Arc::clone(arena)))),
        Box::new(BtIndex(hot_btree::BPlusTree::new(Arc::clone(arena)))),
    ]
}

/// A dataset with its tuple arena: `tids[i]` is the TID resolving to
/// `dataset.keys[i]`.
pub struct BenchData {
    /// The generated key set.
    pub dataset: Dataset,
    /// Tuple store all indexes resolve keys from.
    pub arena: Arc<ArenaKeySource>,
    /// TID per key index.
    pub tids: Vec<u64>,
}

impl BenchData {
    /// Materialize a dataset's arena.
    pub fn new(dataset: Dataset) -> BenchData {
        let mut arena = ArenaKeySource::with_capacity(
            dataset.keys.len(),
            dataset.avg_key_len().ceil() as usize,
        );
        let tids: Vec<u64> = dataset.keys.iter().map(|k| arena.push(k)).collect();
        BenchData {
            dataset,
            arena: Arc::new(arena),
            tids,
        }
    }
}

/// Timed load phase: insert `load_n` keys (dataset order is already random).
/// Returns million operations per second.
pub fn run_load(index: &mut dyn BenchIndex, data: &BenchData, load_n: usize) -> f64 {
    let start = Instant::now();
    for i in 0..load_n {
        index.insert(&data.dataset.keys[i], data.tids[i]);
    }
    mops(load_n, start.elapsed().as_secs_f64())
}

/// Timed *bulk* load phase (`--bulk`): sort the first `load_n` keys outside
/// the timed region — the one-off data-preparation step of a real load
/// pipeline — then feed them to [`BenchIndex::bulk_load`] with a `threads`
/// worker budget. Returns million keys loaded per second.
pub fn run_load_bulk(
    index: &mut dyn BenchIndex,
    data: &BenchData,
    load_n: usize,
    threads: usize,
) -> f64 {
    let mut order: Vec<usize> = (0..load_n).collect();
    hot_keys::sort_by_key(&mut order, |i| data.dataset.keys[i].as_slice());
    let keys: Vec<&[u8]> = order.iter().map(|&i| data.dataset.keys[i].as_slice()).collect();
    let tids: Vec<u64> = order.iter().map(|&i| data.tids[i]).collect();
    let start = Instant::now();
    index.bulk_load(&keys, &tids, threads);
    mops(load_n, start.elapsed().as_secs_f64())
}

/// Timed transaction phase. Returns (million ops per second, op checksum —
/// a black-box summing found TIDs and scan counts so the optimizer cannot
/// elide work). Scans run through [`BenchIndex::scan`] (HOT: the amortized
/// cursor path).
pub fn run_transactions(
    index: &mut dyn BenchIndex,
    data: &BenchData,
    run: &WorkloadRun,
) -> (f64, u64) {
    run_transactions_inner(index, data, run, false)
}

/// [`run_transactions`] with scans routed through
/// [`BenchIndex::scan_fresh`] — the pre-cursor allocating path, kept as the
/// baseline the `E_alloc` benchmark rows compare against. Checksums are
/// directly comparable with [`run_transactions`].
pub fn run_transactions_fresh_scans(
    index: &mut dyn BenchIndex,
    data: &BenchData,
    run: &WorkloadRun,
) -> (f64, u64) {
    run_transactions_inner(index, data, run, true)
}

fn run_transactions_inner(
    index: &mut dyn BenchIndex,
    data: &BenchData,
    run: &WorkloadRun,
    fresh_scans: bool,
) -> (f64, u64) {
    let ops: Vec<Operation> = run.operations().collect();
    let keys = &data.dataset.keys;
    let tids = &data.tids;
    let mut checksum = 0u64;
    let start = Instant::now();
    for op in &ops {
        match *op {
            Operation::Read(idx) => {
                if let Some(tid) = index.get(&keys[idx]) {
                    checksum = checksum.wrapping_add(tid);
                }
            }
            Operation::Update(idx) => {
                index.update(&keys[idx], tids[idx]);
            }
            Operation::Insert(idx) => {
                index.insert(&keys[idx], tids[idx]);
            }
            Operation::Scan(idx, len) => {
                let found = if fresh_scans {
                    index.scan_fresh(&keys[idx], len)
                } else {
                    index.scan(&keys[idx], len)
                };
                checksum = checksum.wrapping_add(found as u64);
            }
            Operation::ReadModifyWrite(idx) => {
                let key = &keys[idx];
                if let Some(tid) = index.get(key) {
                    checksum = checksum.wrapping_add(tid);
                    index.update(key, tid);
                }
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    (mops(ops.len(), elapsed), checksum)
}

/// Timed transaction phase with runs of consecutive reads coalesced into
/// groups of at most `batch` keys resolved through
/// [`BenchIndex::get_batch`], and runs of consecutive scans coalesced into
/// groups serviced by [`BenchIndex::scan_batch`].
///
/// Executes exactly the operations of [`run_transactions`] in the same
/// order — a batch ends at the first operation of another kind, so writes
/// never move past reads or scans — which makes the returned checksum
/// directly comparable: if the batched path disagrees with the scalar path
/// the checksums differ.
pub fn run_transactions_batched(
    index: &mut dyn BenchIndex,
    data: &BenchData,
    run: &WorkloadRun,
    batch: usize,
) -> (f64, u64) {
    let ops: Vec<BatchedOperation> = run.batched_operations(batch).collect();
    let keys = &data.dataset.keys;
    let tids = &data.tids;
    let mut checksum = 0u64;
    let mut op_count = 0usize;
    // Scratch reused across batches: the borrowed key slices and the
    // result slots.
    let mut batch_keys: Vec<&[u8]> = Vec::with_capacity(batch);
    let mut results: Vec<Option<u64>> = Vec::with_capacity(batch);
    let mut scan_reqs: Vec<(&[u8], usize)> = Vec::with_capacity(batch);
    let mut scan_counts: Vec<usize> = Vec::with_capacity(batch);
    let start = Instant::now();
    for item in &ops {
        match item {
            BatchedOperation::Reads(idxs) => {
                op_count += idxs.len();
                batch_keys.clear();
                batch_keys.extend(idxs.iter().map(|&i| keys[i].as_slice()));
                results.clear();
                results.resize(idxs.len(), None);
                index.get_batch(&batch_keys, &mut results);
                for tid in results.iter().flatten() {
                    checksum = checksum.wrapping_add(*tid);
                }
            }
            BatchedOperation::Scans(reqs) => {
                op_count += reqs.len();
                scan_reqs.clear();
                scan_reqs.extend(reqs.iter().map(|&(i, len)| (keys[i].as_slice(), len)));
                index.scan_batch(&scan_reqs, &mut scan_counts);
                for &found in &scan_counts {
                    checksum = checksum.wrapping_add(found as u64);
                }
            }
            BatchedOperation::Other(op) => {
                op_count += 1;
                match *op {
                    Operation::Read(_) => unreachable!("reads arrive batched"),
                    Operation::Scan(..) => unreachable!("scans arrive batched"),
                    Operation::Update(idx) => {
                        index.update(&keys[idx], tids[idx]);
                    }
                    Operation::Insert(idx) => {
                        index.insert(&keys[idx], tids[idx]);
                    }
                    Operation::ReadModifyWrite(idx) => {
                        let key = &keys[idx];
                        if let Some(tid) = index.get(key) {
                            checksum = checksum.wrapping_add(tid);
                            index.update(key, tid);
                        }
                    }
                }
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    (mops(op_count, elapsed), checksum)
}

/// Million operations per second.
pub fn mops(ops: usize, secs: f64) -> f64 {
    if secs <= 0.0 {
        return 0.0;
    }
    ops as f64 / secs / 1e6
}

/// Shared command-line configuration for the figure binaries.
#[derive(Debug, Clone)]
pub struct Config {
    /// Keys loaded per configuration (paper: 50 million).
    pub keys: usize,
    /// Transaction-phase operations (paper: 100 million).
    pub ops: usize,
    /// Seed for data sets and operation streams.
    pub seed: u64,
    /// Thread counts for the scalability figure.
    pub threads: Vec<usize>,
    /// Reads (or scans) coalesced per batched call (`--batch N`). The
    /// default is 16 × [`hot_core::DEFAULT_DEPTH`]: a window of a few
    /// multiples of the in-flight depth, so completion-driven refills
    /// (not window edges) set the engine's occupancy.
    pub batch: usize,
    /// Run [`BenchIndex::check_invariants`] between benchmark phases
    /// (`--check`). Off by default: the walk touches every node, so it
    /// must never run inside a timed region.
    pub check: bool,
    /// Load via [`BenchIndex::bulk_load`] over pre-sorted keys (`--bulk`)
    /// instead of the random-order insert loop.
    pub bulk: bool,
    /// Print per-phase latency percentiles (p50/p99/p999) and ROWEX
    /// restart rates as extra rows (`--metrics`). Requires a binary built
    /// with `--features metrics`; the default build rejects the flag
    /// rather than silently printing nothing.
    pub metrics: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            keys: 1_000_000,
            ops: 2_000_000,
            seed: 42,
            threads: vec![1, 2, 4],
            batch: 16 * hot_core::DEFAULT_DEPTH,
            check: false,
            bulk: false,
            metrics: false,
        }
    }
}

impl Config {
    /// Parse `--keys N --ops N --seed N --threads a,b,c --batch N --check
    /// --bulk --metrics` from `std::env`.
    pub fn from_args() -> Config {
        let mut config = Config::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--keys" => {
                    config.keys = args[i + 1].parse().expect("--keys N");
                    i += 2;
                }
                "--ops" => {
                    config.ops = args[i + 1].parse().expect("--ops N");
                    i += 2;
                }
                "--seed" => {
                    config.seed = args[i + 1].parse().expect("--seed N");
                    i += 2;
                }
                "--threads" => {
                    config.threads = args[i + 1]
                        .split(',')
                        .map(|s| s.parse().expect("--threads a,b,c"))
                        .collect();
                    i += 2;
                }
                "--batch" => {
                    config.batch = args[i + 1].parse().expect("--batch N");
                    assert!(config.batch >= 1, "--batch must be at least 1");
                    i += 2;
                }
                "--check" => {
                    config.check = true;
                    i += 1;
                }
                "--bulk" => {
                    config.bulk = true;
                    i += 1;
                }
                "--metrics" => {
                    if !cfg!(feature = "metrics") {
                        panic!(
                            "--metrics requires a binary built with --features metrics \
                             (e.g. `cargo run --release --features metrics --bin \
                             fig8_throughput -- --metrics`)"
                        );
                    }
                    config.metrics = true;
                    i += 1;
                }
                other => panic!(
                    "unknown argument: {other} (expected --keys/--ops/--seed/--threads/--batch/--check/--bulk/--metrics)"
                ),
            }
        }
        config
    }
}

/// Print one tab-separated result row.
pub fn row(cells: &[String]) {
    println!("{}", cells.join("\t"));
}

/// Format a `DepthStats` triple the way Figure 11 reports it.
pub fn depth_row(stats: &DepthStats) -> (usize, f64, usize) {
    (
        stats.min_depth().unwrap_or(0),
        stats.mean_depth(),
        stats.max_depth().unwrap_or(0),
    )
}
