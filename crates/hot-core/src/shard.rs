//! Sharded execution layer (DESIGN.md §17).
//!
//! [`ShardedHot`] range-partitions the order-preserving key encoding
//! across per-shard [`ConcurrentHot`] instances and routes batched work
//! to them through a small deterministic router:
//!
//! * **Partitioning** is by *splitter keys*: `N - 1` sorted byte
//!   strings drawn from the data (the equal-count quantiles of a bulk
//!   load, or a caller-provided sample via [`splitters_from_sample`])
//!   divide the key space into `N` contiguous lexicographic ranges,
//!   shard `s` owning `[splitter[s-1], splitter[s])`. Data-derived
//!   splitters are essential: real key sets share long common prefixes
//!   (every URL starts `https://`, every integer key has zero high
//!   bytes), so any fixed prefix partition collapses onto one shard —
//!   quantile splitters stay balanced on exactly those distributions.
//!   Contiguous ranges also mean a cross-shard range scan is the plain
//!   concatenation of per-shard scans, no merge network needed.
//! * **The batch router** has one drive for both batched reads: a
//!   branchless classify pass fills per-shard queues of request slots,
//!   each queue drains shard-grouped through the batched descent engine
//!   ([`MlpScheduler`](crate::MlpScheduler)) — `get_batch_with` as
//!   lookups, `scan_batch` as scan seeks — and every result is re-emitted
//!   **in request order**, a scan's cross-shard continuation behind it —
//!   the same reorder-buffer discipline the engine itself uses
//!   (DESIGN.md §9). Output is therefore byte-identical to a single trie
//!   regardless of shard count.
//! * **Everything runs on the calling thread.** The shards are
//!   ROWEX-synchronised tries, so any number of threads may call any
//!   entry point at once, each with its own [`RouterScratch`]; callers
//!   are the parallelism, as in the paper's §5. There is no hand-off
//!   tier between a caller and a shard (DESIGN.md §17.3 has the
//!   measurement that removed one).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use hot_keys::{KeySource, KEY_SCRATCH_LEN};

use crate::bulk::BulkLoadError;
use crate::metrics::OpKind;
use crate::mlp::{DescentKind, LookupStream, MlpScheduler, RequestStream};
use crate::scan::{with_thread_cursor, ScanCursor};
use crate::sync::{Access, ConcurrentHot, Rowex};

/// Largest supported shard count.
pub(crate) const MAX_SHARDS: usize = 64;

/// Resumable scan position for callers that cannot hold a cursor across
/// calls (the wire protocol pages SCAN results with it; DESIGN.md §18).
/// It names the last key a page returned plus the shard that owned it
/// when the token was minted, and is honored by
/// [`ShardedHot::scan_resume`] even if that key is deleted — or the
/// splitter layout would place it elsewhere — between pages: resumption
/// re-routes by key, the shard index is a routing hint for the wire
/// format, not a correctness input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanToken {
    /// Shard that owned `last_key` when the page was produced.
    pub shard: u32,
    /// The last key of the previous page; the next page starts strictly
    /// after it.
    pub last_key: Vec<u8>,
}

/// The shard owning `key` under sorted `splitters`: the number of
/// splitters `<= key`, i.e. shard `s` owns the contiguous lexicographic
/// range `[splitter[s-1], splitter[s])` (shard 0 is unbounded below,
/// the last shard unbounded above). With no splitters every key maps to
/// shard 0 — routing is always *correct*, splitters only buy balance.
#[inline]
pub(crate) fn shard_of_key(key: &[u8], splitters: &[Vec<u8>]) -> usize {
    splitters.partition_point(|s| s.as_slice() <= key)
}

/// Equal-count quantile splitters for `shards` ranges from a **sorted,
/// deduplicated** sample of the key population: `shards - 1` keys at
/// positions `s·len/shards`, each **truncated** to the shortest prefix
/// that still separates it from its predecessor (the B-tree separator
/// trick — a splitter is a range boundary, not a stored key, so the
/// short form routes identically while keeping splitter compares cheap),
/// then deduplicated (skewed samples can repeat a quantile; duplicate
/// splitters would create permanently empty shards while a shorter
/// splitter list keeps every range non-degenerate).
pub fn splitters_from_sample(sample: &[&[u8]], shards: usize) -> Vec<Vec<u8>> {
    quantile_splitters(sample.len(), |i| sample[i], shards)
}

/// [`splitters_from_sample`] over any indexable sorted key sequence.
fn quantile_splitters<'k>(
    len: usize,
    key_at: impl Fn(usize) -> &'k [u8],
    shards: usize,
) -> Vec<Vec<u8>> {
    let shards = shards.clamp(1, MAX_SHARDS);
    let mut out: Vec<Vec<u8>> = Vec::with_capacity(shards.saturating_sub(1));
    if len == 0 {
        return out;
    }
    for s in 1..shards {
        let idx = s * len / shards;
        let k = key_at(idx);
        // Shortest prefix of `k` strictly greater than its predecessor:
        // everything through the first differing byte. Any separator in
        // `(pred, k]` partitions the sample identically.
        let sep = if idx == 0 {
            k
        } else {
            let pred = key_at(idx - 1);
            let j = pred.iter().zip(k).take_while(|(a, b)| a == b).count();
            &k[..(j + 1).min(k.len())]
        };
        if out.last().map(Vec::as_slice) != Some(sep) {
            out.push(sep.to_vec());
        }
    }
    out
}

/// A compiled partition: the splitter list plus the flat classifier's
/// state. All splitters share `prefix`, so a key is classified by
/// comparing that prefix once and then one padded 8-byte word against
/// every splitter's — never by re-walking the long shared prefixes
/// (URLs all starting `https://<one of few hosts>/`…) a plain byte-wise
/// binary search would compare on every probe. Only a key whose word
/// ties a splitter's takes that binary search, over the splitters'
/// suffixes past `prefix`.
struct Partition {
    /// Sorted splitter keys (the authoritative partition).
    splitters: Vec<Vec<u8>>,
    /// Bytes all splitters share — the flat fast path verifies them
    /// once per key.
    prefix: Vec<u8>,
    /// Zero-padded 8-byte splitter word right after `prefix`, one per
    /// splitter: the flat fast path's discriminants, compared
    /// *branchlessly* so a classify loop over cold keys keeps many
    /// misses in flight (a data-dependent branch per key would
    /// serialize them on every misprediction).
    words: Vec<u64>,
}

/// Big-endian zero-padded first-8-bytes word of `tail`. Padded-word
/// inequality implies the same lexicographic inequality of the tails;
/// only equality is ambiguous (a short tail pads with zeros a longer
/// tail may really contain).
#[inline]
fn pad8(tail: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    let m = tail.len().min(8);
    w[..m].copy_from_slice(&tail[..m]);
    u64::from_be_bytes(w)
}

impl Partition {
    fn new(splitters: Vec<Vec<u8>>) -> Partition {
        let (prefix, words) = if splitters.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            // Sorted: the common prefix of all splitters is that of the
            // first and last, and every splitter is at least that long
            // (a shorter middle splitter would be a proper prefix of it
            // and sort below the first).
            let (first, last) = (&splitters[0], &splitters[splitters.len() - 1]);
            let base = first.iter().zip(last.iter()).take_while(|(a, b)| a == b).count();
            (
                first[..base].to_vec(),
                splitters.iter().map(|s| pad8(&s[base..])).collect(),
            )
        };
        Partition { splitters, prefix, words }
    }

    /// The shard owning `key`; agrees with [`shard_of_key`] on the full
    /// splitter list.
    #[inline]
    fn shard_of(&self, key: &[u8]) -> usize {
        let shard = flat_classify(&self.prefix, &self.words, key).unwrap_or_else(|| self.tie_break(key));
        debug_assert_eq!(shard, shard_of_key(key, &self.splitters));
        shard
    }

    /// Exact classification of a key [`flat_classify`] leaves undecided:
    /// a binary search over the splitters compared from `prefix.len()`
    /// onward. Every splitter carries `prefix`, and so does the key
    /// whenever the flat path ties, so the suffix order is the full
    /// order.
    fn tie_break(&self, key: &[u8]) -> usize {
        let base = self.prefix.len();
        let tail = &key[base..];
        self.splitters.partition_point(|s| &s[base..] <= tail)
    }
}

/// The branchless flat classifier. A key diverging inside the splitters'
/// shared prefix is *decisive*, not a fallback: every splitter carries
/// the prefix, so a key below it sits below all splitters (shard 0) and a
/// key above it sits above all of them (last shard). A key carrying the
/// prefix is classified by one padded 8-byte word against every
/// splitter's word in a fixed-trip compare loop with no data-dependent
/// branches — strict word inequality implies the same lexicographic
/// inequality, so the count of strictly-smaller words *is* the partition
/// point. `None` (a word tie) falls back to
/// [`Partition::tie_break`]. Splitters separating keys that agree past
/// the word (URL sets whose quantiles fall inside one host's range) tie
/// often; splitters whose first distinguishing word differs (integer
/// keys, distinct hosts) resolve here ~always.
///
/// It takes the classifier state as slices so the router's classify loop
/// keeps the prefix/word pointers in registers across the whole batch
/// (re-loading them through `&Partition` per key measures ~2x slower on
/// integer keys).
#[inline(always)]
fn flat_classify(prefix: &[u8], words: &[u64], key: &[u8]) -> Option<usize> {
    let base = prefix.len();
    if base != 0 {
        let head = base.min(key.len());
        match key[..head].cmp(&prefix[..head]) {
            std::cmp::Ordering::Less => return Some(0),
            std::cmp::Ordering::Greater => return Some(words.len()),
            // A proper prefix of the shared bytes sorts below every
            // splitter.
            std::cmp::Ordering::Equal if head < base => return Some(0),
            std::cmp::Ordering::Equal => {}
        }
    }
    let kd = pad8(&key[base..]);
    let mut below = 0usize;
    let mut tie = false;
    for &w in words {
        below += usize::from(w < kd);
        tie |= w == kd;
    }
    (!tie).then_some(below)
}

/// How many requests ahead the router's classify loop prefetches key
/// bytes (matches the scheduler's in-flight descent budget).
const CLASSIFY_PF_AHEAD: usize = 16;

/// Scheduler window per shard-queue drain: long enough to amortize ring
/// ramp-up, short enough that the window's staging state stays cached.
const DRAIN_WINDOW: usize = 1024;

/// Reusable router state for one caller of the sharded batch entry
/// points: the out-of-order scheduler ring, the per-shard slot queues and
/// the gather / scatter / scan staging buffers. Mirrors the
/// `MlpScheduler` caller-owned-state idiom: hold one per driving thread
/// and the router allocates nothing once warmed up.
#[derive(Default)]
pub struct RouterScratch {
    sched: MlpScheduler,
    /// Per-shard drain queues (`route`), holding original batch slots in
    /// ascending order.
    queues: Vec<Vec<u32>>,
    /// One GET drain window's gathered keys: `'static`-laundered views of
    /// the caller's key slices, cleared before `queued_run` returns so
    /// none outlives the call that made it valid.
    keys: Vec<&'static [u8]>,
    /// Result staging of one GET drain window.
    sub: Vec<Option<u64>>,
    /// Scan TIDs of every drain window, flat in drain order.
    tids: Vec<u64>,
    /// Span ends into `tids`, one per drained scan, seeded with 0.
    bounds: Vec<usize>,
    /// Each scan request's span in `tids`, by original slot.
    spans: Vec<(usize, usize)>,
}

/// One drain window of a `scan_batch` shard queue as a scan stream: the
/// caller's requests, read through the window's original slots.
struct QueuedScans<'a> {
    requests: &'a [(&'a [u8], usize)],
    slots: &'a [u32],
}

impl RequestStream for QueuedScans<'_> {
    const KIND: DescentKind = DescentKind::ScanSeek;
    fn len(&self) -> usize {
        self.slots.len()
    }
    fn fetch(&self, i: usize) -> (&[u8], usize) {
        self.requests[self.slots[i] as usize]
    }
}

impl RouterScratch {
    /// Fresh scratch; buffers are allocated lazily on first use.
    pub fn new() -> RouterScratch {
        RouterScratch::default()
    }
}

/// A range-partitioned sharded HOT: `N` independent [`ConcurrentHot`]
/// tries behind a deterministic batch router that runs on the calling
/// thread (DESIGN.md §17). Results of every entry point are
/// byte-identical to a single trie holding the same keys.
pub struct ShardedHot<S>
where
    S: KeySource + Clone + Send + Sync,
{
    tries: Vec<ConcurrentHot<S>>,
    /// Compiled partition. Write-once: the routing function must never
    /// change while any shard holds data, or routed lookups would miss
    /// keys inserted under the old partition.
    partition: OnceLock<Partition>,
    /// Requests routed per shard — the balance gauge behind
    /// [`shard_counts`](Self::shard_counts) / [`imbalance`](Self::imbalance).
    routed: Vec<AtomicU64>,
}

impl<S> ShardedHot<S>
where
    S: KeySource + Clone + Send + Sync,
{
    /// A sharded trie with `shards` shards (clamped to `1..=64`).
    pub fn new(source: S, shards: usize) -> Self {
        let shards = shards.clamp(1, MAX_SHARDS);
        ShardedHot {
            tries: (0..shards).map(|_| ConcurrentHot::new(source.clone())).collect(),
            partition: OnceLock::new(),
            routed: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// [`new`](Self::new) under the name `bench/` still spells.
    #[doc(hidden)]
    pub fn inline_router(source: S, shards: usize) -> Self {
        Self::new(source, shards)
    }

    /// A sharded trie with an explicit data-derived partition: one shard
    /// per splitter interval (`splitters.len() + 1` shards). Derive the
    /// splitters from a sample of the expected key population with
    /// [`splitters_from_sample`].
    pub fn with_splitters(source: S, splitters: Vec<Vec<u8>>) -> Self {
        let this = Self::new(source, splitters.len() + 1);
        let ok = this.set_splitters(splitters);
        debug_assert!(ok, "fresh structure accepts its first partition");
        this
    }

    /// Install the partition: splitter keys are sorted, deduplicated and
    /// truncated to `shards - 1`. Returns `false` (and changes nothing)
    /// if a partition is already installed or any shard holds keys —
    /// routing is fixed for the structure's lifetime once data exists.
    /// Until a partition is installed every key routes to shard 0
    /// (correct, just unbalanced); the first [`bulk_load`](Self::bulk_load)
    /// on an empty structure installs quantile splitters automatically.
    pub fn set_splitters(&self, mut splitters: Vec<Vec<u8>>) -> bool {
        if !self.is_empty() {
            return false;
        }
        splitters.sort_unstable();
        splitters.dedup();
        splitters.truncate(self.shards() - 1);
        self.partition.set(Partition::new(splitters)).is_ok()
    }

    /// The active splitter keys (empty until [`set_splitters`](Self::set_splitters)
    /// or the first bulk load installs a partition).
    pub fn splitters(&self) -> &[Vec<u8>] {
        self.partition.get().map_or(&[], |p| p.splitters.as_slice())
    }

    /// The shard owning `key` under the active partition.
    #[inline]
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.partition.get().map_or(0, |p| p.shard_of(key))
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.tries.len()
    }

    /// The shard trie at `index` (differential tests inspect shards
    /// directly; production callers go through the router).
    pub fn shard(&self, index: usize) -> &ConcurrentHot<S> {
        &self.tries[index]
    }

    /// Total keys across all shards.
    pub fn len(&self) -> usize {
        self.tries.iter().map(|t| t.len()).sum()
    }

    /// Whether no shard holds any key.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Requests routed per shard since construction (the load-balance
    /// gauge the metrics layer aggregates).
    pub(crate) fn shard_counts(&self) -> Vec<u64> {
        self.routed
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Routed-load imbalance: hottest shard over mean (1.0 = perfectly
    /// balanced, `shards()` = everything on one shard; 0 routed
    /// requests report 1.0).
    pub fn imbalance(&self) -> f64 {
        let counts = self.shard_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let max = counts.iter().copied().max().unwrap_or(0) as f64;
        max * counts.len() as f64 / total as f64
    }

    /// Charge the current batch (grouped offsets in `starts`) to the
    /// per-shard balance gauges.
    fn account(&self, starts: &[usize]) {
        for (s, gauge) in self.routed.iter().enumerate() {
            let c = (starts[s + 1] - starts[s]) as u64;
            if c > 0 {
                gauge.fetch_add(c, Ordering::Relaxed);
            }
        }
    }

    /// The classify pass both drives share: a prefetch-pipelined
    /// *branchless* loop fills one queue of original request slots per
    /// shard (ascending), then charges the batch to the balance gauges.
    /// The loop stays cheap because [`flat_classify`] has no
    /// data-dependent branches, so the cold key reads of many iterations
    /// stay in flight together (a mispredicted branch per key would drain
    /// the pipeline and serialize them).
    #[inline(always)]
    fn route<T>(&self, reqs: &[T], key_of: impl Fn(&T) -> &[u8], queues: &mut Vec<Vec<u32>>) {
        queues.resize_with(self.shards(), Vec::new);
        for q in queues.iter_mut() {
            q.clear();
        }
        match self.partition.get() {
            None => queues[0].extend(0..reqs.len() as u32),
            Some(p) => {
                // Hoisted classifier state (see [`flat_classify`]).
                let prefix: &[u8] = &p.prefix;
                let words: &[u64] = &p.words;
                for (i, r) in reqs.iter().enumerate() {
                    if let Some(ahead) = reqs.get(i + CLASSIFY_PF_AHEAD) {
                        hot_bits::prefetch_node(key_of(ahead).as_ptr(), 1);
                    }
                    let k = key_of(r);
                    let s = flat_classify(prefix, words, k).unwrap_or_else(|| p.tie_break(k));
                    queues[s].push(i as u32);
                }
            }
        }
        for (gauge, q) in self.routed.iter().zip(queues.iter()) {
            if !q.is_empty() {
                gauge.fetch_add(q.len() as u64, Ordering::Relaxed);
            }
        }
    }

    /// The drive of `get_batch_with`: [`route`](Self::route), then each
    /// queue drains through the scheduler one shard at a time in
    /// [`DRAIN_WINDOW`]-sized windows — each window's keys gathered
    /// contiguous, its results scattered back to the original batch
    /// slots. Draining shard-grouped keeps one trie's upper levels hot
    /// for a whole queue; interleaving shards in one lane ring lets their
    /// upper levels evict each other — roughly one extra miss per
    /// descent, the very miss the shallower per-shard tries saved.
    ///
    /// Feeding the ring *contiguous* keys matters: an earlier variant let
    /// the ring index the caller's full key array through the queue's
    /// slot list, and those strided loads (plus equally strided result
    /// stores) inside the staging path cost ~50 ns/key more than the
    /// explicit gather + scatter passes do — tight dedicated loops stream
    /// a fixed stride; the same loads interleaved with ring traffic do
    /// not.
    fn queued_run(&self, keys: &[&[u8]], out: &mut [Option<u64>], scratch: &mut RouterScratch) {
        let RouterScratch {
            sched,
            queues,
            keys: window,
            sub,
            ..
        } = scratch;
        self.route(keys, |k| *k, queues);
        let metrics = &self.tries[0].metrics;
        let _guard = self.tries[0].pin();
        sub.clear();
        sub.resize(keys.len().min(DRAIN_WINDOW), None);
        for (s, q) in queues.iter().enumerate() {
            for win in q.chunks(DRAIN_WINDOW) {
                window.clear();
                window.extend(win.iter().map(|&t| {
                    let k = keys[t as usize];
                    // SAFETY: `k` borrows the caller's `keys`, live for
                    // this whole call; the laundered view sits in the
                    // reusable `window` only until the clear below (or the
                    // next window's), so none outlives the call.
                    unsafe { std::slice::from_raw_parts::<'static, u8>(k.as_ptr(), k.len()) }
                }));
                sched.run_lookups(
                    self.tries[s].store(),
                    &LookupStream(window.as_slice()),
                    &mut sub[..win.len()],
                    || self.tries[s].load_root(),
                    Rowex::SHARED,
                    metrics,
                );
                for (j, &t) in win.iter().enumerate() {
                    out[t as usize] = sub[j];
                }
            }
        }
        window.clear();
    }

    // ------------------------------------------------------------------
    // Scalar operations: one classify, one descent in the owning shard.
    // ------------------------------------------------------------------

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        self.tries[self.shard_of(key)].get(key)
    }

    /// Insert `key → tid` (upsert); returns the previous TID if present.
    pub fn insert(&self, key: &[u8], tid: u64) -> Option<u64> {
        self.tries[self.shard_of(key)].insert(key, tid)
    }

    /// Remove `key`; returns its TID if present.
    pub fn remove(&self, key: &[u8]) -> Option<u64> {
        self.tries[self.shard_of(key)].remove(key)
    }

    /// Collect up to `limit` TIDs with keys `>= key` in ascending key
    /// order, crossing shard boundaries as needed.
    pub fn scan(&self, key: &[u8], limit: usize) -> Vec<u64> {
        let mut out = Vec::new();
        self.scan_into(key, limit, &mut out);
        out
    }

    /// Like [`scan`](Self::scan), writing into `out` (cleared first).
    pub fn scan_into(&self, key: &[u8], limit: usize, out: &mut Vec<u64>) {
        out.clear();
        let shard = self.shard_of(key);
        with_thread_cursor(|cursor| {
            self.tries[shard].scan_append(key, limit, out, cursor);
            self.continue_scan(shard, limit, out.len(), out, cursor);
        });
    }

    // ------------------------------------------------------------------
    // Paged scans: resumable continuation tokens for out-of-process
    // callers (the wire protocol) that cannot hold a cursor across
    // calls.
    // ------------------------------------------------------------------

    /// One page of a scan starting at `key` (inclusive): up to `limit`
    /// TIDs in ascending key order, crossing shard boundaries as needed.
    /// Returns `Some(token)` when the page filled — more keys *may*
    /// follow; resume strictly after the page with
    /// [`scan_resume`](Self::scan_resume). A short page means the key
    /// space is exhausted. `limit` must be at least 1 to make progress
    /// (a zero-limit page is empty and unresumable).
    pub fn scan_page(&self, key: &[u8], limit: usize, out: &mut Vec<u64>) -> Option<ScanToken> {
        self.scan_into(key, limit, out);
        self.scan_token(out, limit)
    }

    /// The next page of a scan paused at `token`: up to `limit` TIDs
    /// with keys strictly greater than `token.last_key`, in ascending
    /// key order. Deleting the token's key between pages is fine — the
    /// page then starts at its successor. Returns the follow-up token
    /// under the same contract as [`scan_page`](Self::scan_page).
    pub fn scan_resume(
        &self,
        token: &ScanToken,
        limit: usize,
        out: &mut Vec<u64>,
    ) -> Option<ScanToken> {
        if limit == 0 {
            out.clear();
            return Some(token.clone());
        }
        // Re-seek at the last key inclusively, over-fetch by one, and
        // drop the token key itself if it is still present: keys are
        // unique, so at most the first result can equal it.
        self.scan_into(&token.last_key, limit.saturating_add(1), out);
        if let Some(&first) = out.first() {
            let src = self.tries[0].source();
            if src.cmp_tid_key(first, &token.last_key) == std::cmp::Ordering::Equal {
                out.remove(0);
            }
        }
        out.truncate(limit);
        self.scan_token(out, limit)
    }

    /// Mint the continuation token for a scan page: when `page` filled
    /// its `limit`, resolve the last TID's key through the shared key
    /// source and record it with its owning shard. A short page has no
    /// continuation — the scan ran off the end of the key space.
    pub fn scan_token(&self, page: &[u64], limit: usize) -> Option<ScanToken> {
        let &last = page.last()?;
        if page.len() < limit {
            return None;
        }
        let mut scratch = [0u8; KEY_SCRATCH_LEN];
        let key = self.tries[0].source().load_key(last, &mut scratch);
        Some(ScanToken {
            shard: self.shard_of(key) as u32,
            last_key: key.to_vec(),
        })
    }

    // ------------------------------------------------------------------
    // Batched operations: the router.
    // ------------------------------------------------------------------

    /// Batched point lookups, grouped by shard and drained through the
    /// out-of-order scheduler; `out[i]` answers `keys[i]`. The router
    /// state is the caller's (allocation-free once warmed up; hold one
    /// per driving thread).
    ///
    /// # Panics
    /// Panics if `keys` and `out` differ in length.
    pub fn get_batch_with(
        &self,
        keys: &[&[u8]],
        out: &mut [Option<u64>],
        scratch: &mut RouterScratch,
    ) {
        assert_eq!(keys.len(), out.len(), "one output slot per key");
        if keys.is_empty() {
            return;
        }
        let m = &self.tries[0].metrics;
        let _t = m.timer(OpKind::GetBatch);
        m.items(OpKind::GetBatch, keys.len() as u64);
        self.queued_run(keys, out, scratch);
    }

    /// Batched range scans under the router: request `i`'s TIDs land in
    /// `tids[bounds[i]..bounds[i + 1]]` (both cleared first, `bounds`
    /// seeded with 0 — the `scan_batch_with` contract).
    ///
    /// The drive is `get_batch_with`'s: `route`, then each shard queue
    /// drains in `DRAIN_WINDOW`-slot windows as scan seeks, the
    /// stream reading the caller's requests through the window's slots
    /// (a scan's drain dwarfs the strided load that costs a lookup; no
    /// gathered copy). Each seek is bounded to its start shard, and its
    /// span is recorded by original slot; the spans are then emitted in
    /// request order, each followed by its cross-shard continuation, so
    /// results match a single trie exactly. One epoch pin covers the
    /// drain.
    pub fn scan_batch(
        &self,
        requests: &[(&[u8], usize)],
        tids: &mut Vec<u64>,
        bounds: &mut Vec<usize>,
        scratch: &mut RouterScratch,
    ) {
        tids.clear();
        bounds.clear();
        bounds.push(0);
        if requests.is_empty() {
            return;
        }
        let m = &self.tries[0].metrics;
        let _t = m.timer(OpKind::ScanBatch);
        let RouterScratch {
            sched,
            queues,
            tids: staged,
            bounds: ends,
            spans,
            ..
        } = scratch;
        self.route(requests, |r| r.0, queues);
        staged.clear();
        ends.clear();
        ends.push(0);
        spans.clear();
        spans.resize(requests.len(), (0, 0));
        let _guard = self.tries[0].pin();
        for (s, q) in queues.iter().enumerate() {
            for win in q.chunks(DRAIN_WINDOW) {
                let first = ends.len() - 1;
                sched.run_scans(
                    self.tries[s].store(),
                    &QueuedScans { requests, slots: win },
                    staged,
                    ends,
                    || self.tries[s].load_root(),
                    Rowex::SHARED,
                    m,
                );
                for (j, &t) in win.iter().enumerate() {
                    spans[t as usize] = (ends[first + j], ends[first + j + 1]);
                }
            }
        }
        with_thread_cursor(|cursor| {
            for (&(key, limit), &(lo, hi)) in requests.iter().zip(spans.iter()) {
                tids.extend_from_slice(&staged[lo..hi]);
                if hi - lo < limit {
                    self.continue_scan(self.shard_of(key), limit, hi - lo, tids, cursor);
                }
                bounds.push(tids.len());
            }
        });
        m.items(OpKind::ScanBatch, tids.len() as u64);
    }

    /// Sorted bulk load, split at the shard boundaries, the shards built
    /// **concurrently**: each gets its borrowed sub-slice of `entries` on
    /// a scoped loader thread running the existing bottom-up builder with
    /// its share of the cores. Loading an empty structure with no
    /// partition installed first derives equal-count quantile splitters
    /// from `entries` — the balanced partition for exactly this
    /// population. Returns the total keys loaded. On error some shards
    /// may already be loaded — discard the structure, exactly as for a
    /// failed single-trie load.
    pub fn bulk_load(&self, entries: &[(&[u8], u64)]) -> Result<usize, BulkLoadError> {
        let shards = self.shards();
        if self.partition.get().is_none() && !entries.is_empty() {
            // `set_splitters` refuses on a non-empty structure; then all
            // entries route to shard 0 and its builder reports NotEmpty.
            let _ = self.set_splitters(quantile_splitters(entries.len(), |i| entries[i].0, shards));
        }
        let mut starts = vec![0usize; shards + 1];
        for s in 0..shards {
            starts[s + 1] = if s + 1 == shards {
                entries.len()
            } else {
                entries.partition_point(|(k, _)| self.shard_of(k) <= s)
            };
        }
        self.account(&starts);
        let loading = starts.windows(2).filter(|w| w[0] < w[1]).count();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (cores / loading.max(1)).max(1);
        std::thread::scope(|scope| {
            let loaders: Vec<_> = (0..shards)
                .filter(|&s| starts[s] < starts[s + 1])
                .map(|s| {
                    let seg = &entries[starts[s]..starts[s + 1]];
                    scope.spawn(move || self.tries[s].bulk_load_parallel(seg, threads))
                })
                .collect();
            loaders.into_iter().map(|l| l.join().expect("shard loader panicked")).sum()
        })
    }

    /// Chase a scan's cross-shard continuation: `got` of its `limit` TIDs
    /// came from its start shard `shard`; keep appending to `out` from the
    /// following shards' lower bounds (shard `s + 1` owns exactly the
    /// keys `>= splitter[s]`, so concatenation *is* the merge) until
    /// `limit` is met or the key space ends.
    fn continue_scan(&self, shard: usize, limit: usize, mut got: usize, out: &mut Vec<u64>, cursor: &mut ScanCursor) {
        let sp = self.splitters();
        for next in shard + 1..=sp.len() {
            if got >= limit {
                break;
            }
            let before = out.len();
            self.tries[next].scan_append(&sp[next - 1], limit - got, out, cursor);
            got += out.len() - before;
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitter_routing_partitions_the_key_space() {
        let sp: Vec<Vec<u8>> = vec![b"f".to_vec(), b"p".to_vec()];
        // Shard s owns [splitter[s-1], splitter[s]): the boundary key
        // itself belongs to the upper shard.
        assert_eq!(shard_of_key(b"", &sp), 0);
        assert_eq!(shard_of_key(b"a", &sp), 0);
        assert_eq!(shard_of_key(b"ezzz", &sp), 0);
        assert_eq!(shard_of_key(b"f", &sp), 1);
        assert_eq!(shard_of_key(b"fa", &sp), 1);
        assert_eq!(shard_of_key(b"ozzz", &sp), 1);
        assert_eq!(shard_of_key(b"p", &sp), 2);
        assert_eq!(shard_of_key(b"\xff\xff", &sp), 2);
        // No partition: everything routes to shard 0.
        assert_eq!(shard_of_key(b"anything", &[]), 0);
    }

    #[test]
    fn quantile_splitters_balance_a_common_prefix_population() {
        // Every key shares a long prefix (the URL degeneracy that breaks
        // fixed prefix partitions): quantile splitters still cut the
        // population into near-equal ranges.
        let keys: Vec<Vec<u8>> = (0..1000)
            .map(|i| format!("https://example.com/item/{i:04}").into_bytes())
            .collect();
        let sorted: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let sp = splitters_from_sample(&sorted, 4);
        assert_eq!(sp.len(), 3);
        let mut counts = [0usize; 4];
        for k in &sorted {
            counts[shard_of_key(k, &sp)] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 1000);
        for &c in &counts {
            assert!((240..=260).contains(&c), "balanced quantiles: {counts:?}");
        }
    }

    #[test]
    fn duplicate_quantiles_collapse_instead_of_creating_empty_shards() {
        // A two-key sample cannot support 8 ranges; the duplicates
        // collapse so no splitter repeats (shards beyond the last
        // splitter simply stay empty).
        let sample: Vec<&[u8]> = vec![b"a", b"b"];
        let sp = splitters_from_sample(&sample, 8);
        assert_eq!(sp, vec![b"a".to_vec(), b"b".to_vec()]);
        // And an empty sample yields the trivial partition.
        assert!(splitters_from_sample(&[], 8).is_empty());
    }

    #[test]
    fn cross_shard_scans_concatenate_ranges() {
        use hot_keys::ArenaKeySource;

        let mut arena = ArenaKeySource::new();
        let keys: Vec<Vec<u8>> = (0..200u32).map(|i| format!("k{i:04}").into_bytes()).collect();
        let tids: Vec<u64> = keys.iter().map(|k| arena.push(k)).collect();
        let sharded = ShardedHot::new(std::sync::Arc::new(arena), 4);
        let sorted: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        assert!(sharded.set_splitters(splitters_from_sample(&sorted, 4)));
        for (k, &t) in keys.iter().zip(&tids) {
            assert_eq!(sharded.insert(k, t), None);
        }
        for s in 0..4 {
            assert!(!sharded.shard(s).is_empty(), "every shard populated");
        }
        // Unbounded scan from the start: all TIDs, global key order.
        assert_eq!(sharded.scan(b"", 1000), tids);
        // Bounded scans crossing shard boundaries at every start point.
        for start in [0usize, 37, 49, 99, 151, 199] {
            let got = sharded.scan(&keys[start], 80);
            let want: Vec<u64> = tids[start..(start + 80).min(200)].to_vec();
            assert_eq!(got, want, "scan from {start}");
        }
    }

    /// The balance gauge at its edges, driven through the router: an idle
    /// index reads 1.0, a batch routed wholly to one of four shards reads
    /// 4.0 (the shard count), and a 3:1 split over two shards reads 1.5
    /// (hottest shard over the mean).
    #[test]
    fn imbalance_is_the_hottest_shard_over_the_mean() {
        use hot_keys::{encode_u64, EmbeddedKeySource};
        let routed = |sharded: &ShardedHot<EmbeddedKeySource>, keys: &[u64]| {
            let keys: Vec<[u8; 8]> = keys.iter().map(|&k| encode_u64(k)).collect();
            let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
            let mut out = vec![None; refs.len()];
            sharded.get_batch_with(&refs, &mut out, &mut RouterScratch::new());
        };
        let cuts = |at: &[u64]| at.iter().map(|&c| encode_u64(c).to_vec()).collect();

        let four = ShardedHot::with_splitters(EmbeddedKeySource, cuts(&[100, 200, 300]));
        assert_eq!(four.imbalance(), 1.0, "idle");
        routed(&four, &[200, 210, 250, 299]);
        assert_eq!(four.shard_counts(), [0, 0, 4, 0]);
        assert_eq!(four.imbalance(), 4.0, "all on one of four shards");

        let two = ShardedHot::with_splitters(EmbeddedKeySource, cuts(&[100]));
        routed(&two, &[1, 2, 3, 100]);
        assert_eq!(two.shard_counts(), [3, 1]);
        assert_eq!(two.imbalance(), 1.5, "3:1 over two shards");
    }

    #[test]
    fn compiled_classifier_agrees_with_reference_on_adversarial_keys() {
        // Keys over a 3-symbol alphabet including 0x00 maximize shared
        // prefixes, embedded zeros, and prefix-of-another-key pairs — the
        // cases where the padded 8-byte words tie and the classifier must
        // fall back to the binary search.
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |bound: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 33) as usize % bound
        };
        let alphabet = [0x00u8, b'a', b'b'];
        for _round in 0..50 {
            let mut pool: Vec<Vec<u8>> = (0..200)
                .map(|_| {
                    let len = 1 + next(24);
                    (0..len).map(|_| alphabet[next(3)]).collect()
                })
                .collect();
            pool.sort();
            pool.dedup();
            let mut splitters: Vec<Vec<u8>> = (0..1 + next(12))
                .map(|_| pool[next(pool.len())].clone())
                .collect();
            splitters.sort();
            splitters.dedup();
            let part = Partition::new(splitters.clone());
            for key in &pool {
                // `Partition::shard_of` debug_asserts agreement too, but
                // assert explicitly so release builds check as well.
                assert_eq!(
                    part.shard_of(key),
                    shard_of_key(key, &splitters),
                    "key {key:?} splitters {splitters:?}"
                );
            }
        }

        // A url population over three hosts, partitioned at MAX_SHARDS:
        // the splitters' shared prefix ends at `https://`, so every
        // splitter of one host carries the same next word as that host's
        // keys, and the flat path ties on most of them. Probe the keys,
        // every splitter, and its neighbours in key order.
        let hosts = ["cs.uni-example.org", "db.example.com", "example.net"];
        let mut urls: Vec<Vec<u8>> = (0..6_000usize)
            .map(|i| format!("https://{}/path/{:02}/item-{i:06}", hosts[i % 3], i % 17).into_bytes())
            .collect();
        urls.sort();
        let sample: Vec<&[u8]> = urls.iter().map(Vec::as_slice).collect();
        let splitters = splitters_from_sample(&sample, MAX_SHARDS);
        assert_eq!(splitters.len(), MAX_SHARDS - 1);
        let part = Partition::new(splitters.clone());
        assert_eq!(part.prefix, b"https://");
        let mut probes = urls.clone();
        for s in &splitters {
            probes.push(s.clone());
            probes.push([s.as_slice(), b"\0"].concat());
            probes.push(s[..s.len() - 1].to_vec());
        }
        let mut ties = 0usize;
        for key in &probes {
            ties += usize::from(flat_classify(&part.prefix, &part.words, key).is_none());
            assert_eq!(part.shard_of(key), shard_of_key(key, &splitters), "key {key:?}");
        }
        assert!(ties > urls.len() / 2, "the binary search ran on {ties} of {} probes", probes.len());
    }
}
