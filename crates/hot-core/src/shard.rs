//! Thread-per-core sharded execution layer (DESIGN.md §17).
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
//! * **The batch router** splits `get_batch` / `scan_batch` /
//!   `mixed_batch` / `remove_batch` requests by shard, feeds each
//!   shard's gathered slice through the batched descent engine
//!   ([`MlpScheduler`](crate::MlpScheduler), on the shard's worker
//!   thread, or inline when the router runs without workers), and
//!   re-emits every result **in request order** — the same
//!   reorder-buffer discipline the engine itself uses (DESIGN.md §9).
//!   Output is therefore byte-identical to a single trie regardless of
//!   shard count, worker timing, or pinning.
//! * **Placement** is first-touch: each shard's worker thread is pinned
//!   to one core ([`crate::numa`]), and because that worker performs the
//!   shard's inserts and bulk loads, the shard's nodes are allocated —
//!   hence first-touched — on the core's local NUMA node. Shard count
//!   and pinning are constructor arguments
//!   ([`ShardedHot::with_config`]).
//!
//! Scalar operations (`get` / `insert` / `remove` / `scan`) route
//! inline on the caller: a single descent has no batch to amortize a
//! hand-off against.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use hot_keys::stats::MemoryStats;
use hot_keys::{KeySource, PaddedKey, KEY_SCRATCH_LEN};

use crossbeam_epoch as epoch;

use crate::bulk::BulkLoadError;
use crate::metrics::{OpKind, RowexCounter};
use crate::mlp::{BatchRequest, DescentKind, MlpScheduler, RequestStream, ScanStream};
use crate::numa;
use crate::sync::ConcurrentHot;

/// Largest supported shard count.
pub const MAX_SHARDS: usize = 64;

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
pub fn shard_of_key(key: &[u8], splitters: &[Vec<u8>]) -> usize {
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

/// A compiled partition: the splitter list plus a classification trie
/// that routes without re-comparing shared bytes. Each trie node checks
/// the bytes all of its splitters share *once*, then branches on the
/// next 8-byte word — so classifying a key inspects each of its
/// distinguishing prefix bytes at most once, no matter how deep the
/// splitters' common prefixes run. This matters: a plain byte-wise
/// binary search over splitters that share long prefixes (URLs all
/// starting `https://<one of few hosts>/`…) re-walks those prefixes on
/// every probe and costs a significant fraction of a whole trie descent
/// per key.
struct Partition {
    /// Sorted splitter keys (the authoritative partition).
    splitters: Vec<Vec<u8>>,
    /// Classification trie root (`None` iff `splitters` is empty).
    root: Option<PartNode>,
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

/// One node of the classification trie, covering the sorted splitter
/// range `[lo, hi)`. Keys reaching it are known to match the covered
/// splitters' common prefix up to `base`.
struct PartNode {
    /// First covered splitter index — also the answer when the key
    /// compares below every covered splitter.
    lo: usize,
    /// One past the last covered splitter — the answer when the key
    /// compares at-or-above every covered splitter.
    hi: usize,
    /// Offset at which `check` begins.
    base: usize,
    /// Bytes beyond `base` shared by all covered splitters; compared
    /// against the key once, a mismatch resolves to `lo`/`hi` outright.
    check: Vec<u8>,
    /// Non-decreasing discriminants: the zero-padded 8-byte splitter
    /// word right after `check`, one per entry. Padding can tie with
    /// real zero bytes; ties are resolved through the entries.
    discr: Vec<u64>,
    /// What each discriminant leads to: a single splitter (resolved by
    /// one suffix compare) or a subtree of splitters sharing the word.
    entries: Vec<PartEntry>,
}

enum PartEntry {
    /// A single splitter, by absolute index.
    Leaf(usize),
    /// Two or more splitters sharing their next full 8-byte word.
    Node(Box<PartNode>),
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

impl PartNode {
    /// Build the subtree for sorted, distinct `splitters[lo..hi]`, all
    /// known to share their first `base` bytes.
    fn build(splitters: &[Vec<u8>], lo: usize, hi: usize, base: usize) -> PartNode {
        // Sorted range: the common prefix of all members is the common
        // prefix of the first and last.
        let (first, last) = (&splitters[lo], &splitters[hi - 1]);
        let shared = first[base..]
            .iter()
            .zip(&last[base..])
            .take_while(|(a, b)| a == b)
            .count();
        let check = first[base..base + shared].to_vec();
        let off = base + shared;
        let mut discr = Vec::new();
        let mut entries = Vec::new();
        let mut i = lo;
        while i < hi {
            let s = &splitters[i];
            discr.push(pad8(&s[off..]));
            if s.len() < off + 8 {
                // A short tail pads its word: the padding is not real
                // bytes, so it never groups (sorted order puts it before
                // any longer splitter sharing the same padded word).
                entries.push(PartEntry::Leaf(i));
                i += 1;
                continue;
            }
            let mut j = i + 1;
            while j < hi
                && splitters[j].len() >= off + 8
                && splitters[j][off..off + 8] == s[off..off + 8]
            {
                j += 1;
            }
            entries.push(if j - i == 1 {
                PartEntry::Leaf(i)
            } else {
                // Members share ≥ 8 more real bytes: recursion advances
                // by at least a word per level and must terminate since
                // the splitters are distinct.
                PartEntry::Node(Box::new(PartNode::build(splitters, i, j, off + 8)))
            });
            i = j;
        }
        PartNode {
            lo,
            hi,
            base,
            check,
            discr,
            entries,
        }
    }

    /// Partition point of `key` within this node's covered range: the
    /// absolute count of splitters `<= key`, i.e. `lo..=hi`.
    fn resolve(&self, splitters: &[Vec<u8>], key: &[u8]) -> usize {
        let kc = key.get(self.base..).unwrap_or(&[]);
        let m = kc.len().min(self.check.len());
        match kc[..m].cmp(&self.check[..m]) {
            std::cmp::Ordering::Less => return self.lo,
            std::cmp::Ordering::Greater => return self.hi,
            std::cmp::Ordering::Equal => {
                if kc.len() < self.check.len() {
                    // Key is a proper prefix of the shared bytes: below
                    // every covered splitter.
                    return self.lo;
                }
            }
        }
        let off = self.base + self.check.len();
        let kd = pad8(key.get(off..).unwrap_or(&[]));
        let mut i = self.discr.partition_point(|&d| d < kd);
        // Entries left of `i` are strictly below the key; walk the
        // discriminant ties (usually zero or one) for an exact answer.
        while i < self.discr.len() && self.discr[i] == kd {
            match &self.entries[i] {
                PartEntry::Leaf(s) => {
                    if splitters[*s].as_slice() > key {
                        return *s;
                    }
                }
                PartEntry::Node(n) => {
                    let r = n.resolve(splitters, key);
                    if r < n.hi {
                        return r;
                    }
                }
            }
            i += 1;
        }
        match self.entries.get(i) {
            None => self.hi,
            Some(PartEntry::Leaf(s)) => *s,
            Some(PartEntry::Node(n)) => n.lo,
        }
    }
}

impl Partition {
    fn new(splitters: Vec<Vec<u8>>) -> Partition {
        let root = if splitters.is_empty() {
            None
        } else {
            Some(PartNode::build(&splitters, 0, splitters.len(), 0))
        };
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
        Partition {
            splitters,
            root,
            prefix,
            words,
        }
    }

    /// The shard owning `key`; agrees with [`shard_of_key`] on the full
    /// splitter list.
    #[inline]
    fn shard_of(&self, key: &[u8]) -> usize {
        let shard = self.classify_fast(key).unwrap_or_else(|| match &self.root {
            None => 0,
            Some(root) => root.resolve(&self.splitters, key),
        });
        debug_assert_eq!(shard, shard_of_key(key, &self.splitters));
        shard
    }

    /// Branchless flat fast path. A key diverging inside the splitters'
    /// shared prefix is *decisive*, not a fallback: every splitter
    /// carries the prefix, so a key below it sits below all splitters
    /// (shard 0) and a key above it sits above all of them (last
    /// shard). A key carrying the prefix is classified by one padded
    /// 8-byte word against every splitter's word in a fixed-trip
    /// compare loop with no data-dependent branches — strict word
    /// inequality implies the same lexicographic inequality, so the
    /// count of strictly-smaller words *is* the partition point.
    /// `None` (a word tie) falls back to the exact classification
    /// trie. Splitters separating keys that agree past the word (URL
    /// sets whose quantiles fall inside one host's range) tie
    /// constantly and take the trie; splitters whose first
    /// distinguishing word differs (integer keys, distinct hosts)
    /// resolve here ~always.
    #[inline]
    fn classify_fast(&self, key: &[u8]) -> Option<usize> {
        flat_classify(&self.prefix, &self.words, key)
    }

    /// Exact (trie-backed) classification, for keys the flat path
    /// cannot decide.
    #[inline]
    fn classify_slow(&self, key: &[u8]) -> usize {
        match &self.root {
            None => 0,
            Some(root) => root.resolve(&self.splitters, key),
        }
    }
}

/// Body of [`Partition::classify_fast`], over pre-hoisted classifier
/// state: the router's classify loop calls this on local slices so the
/// prefix/word pointers stay in registers across the whole batch
/// (re-loading them through `&Partition` per key measures ~2x slower
/// on integer keys).
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

/// A gathered raw key pointer. Plain `*const u8` is neither `Send` nor
/// `Sync`, which would poison every job closure; the newtype restores
/// both under the router's discipline.
#[derive(Clone, Copy)]
struct KeyPtr(*const u8);

// SAFETY: a gathered key pointer is only dereferenced by the single job
// its shard segment is handed to, while the dispatching call blocks on
// the completion latch keeping the pointee alive; moving/sharing the
// pointer *value* across threads carries no aliasing by itself.
unsafe impl Send for KeyPtr {}
// SAFETY: as above — jobs only read through the pointer.
unsafe impl Sync for KeyPtr {}

/// One gathered drain window as a request stream: the window's keys,
/// made contiguous by the gather pass, with a uniform request kind.
/// Feeding the ring *contiguous* keys matters: an earlier variant let
/// the ring index the caller's full key array through the queue's slot
/// list, and those strided loads (plus equally strided result stores)
/// inside the staging path cost ~50 ns/key more than the explicit
/// gather + scatter passes do — tight dedicated loops stream a fixed
/// stride; the same loads interleaved with ring traffic do not.
struct GatherStream<'a, 'k> {
    keys: &'a [&'k [u8]],
    kind: DescentKind,
}

impl RequestStream for GatherStream<'_, '_> {
    fn len(&self) -> usize {
        self.keys.len()
    }
    fn fetch(&self, i: usize) -> (&[u8], DescentKind, usize) {
        (self.keys[i], self.kind, 0)
    }
}

/// Reusable per-worker execution state: the shard-affine out-of-order
/// scheduler ring plus request/result staging reused across batches.
///
/// The borrowed-slice buffers (`keys`, `scans`, `mixed`) hold
/// `'static`-laundered views of caller memory; every helper clears them
/// before returning so no reference outlives the dispatch that made it
/// valid.
struct WorkerCtx {
    sched: MlpScheduler,
    tids: Vec<u64>,
    bounds: Vec<usize>,
    keys: Vec<&'static [u8]>,
    scans: Vec<(&'static [u8], usize)>,
    mixed: Vec<BatchRequest<'static>>,
    /// Result staging of one inline drain window (`queued_run`).
    sub: Vec<Option<u64>>,
}

impl WorkerCtx {
    fn new() -> WorkerCtx {
        WorkerCtx {
            sched: MlpScheduler::new(),
            tids: Vec::new(),
            bounds: Vec::new(),
            keys: Vec::new(),
            scans: Vec::new(),
            mixed: Vec::new(),
            sub: Vec::new(),
        }
    }
}

/// One unit of routed work, executed on the target shard's worker (or
/// inline). Captures only `Arc`s, plain values, and raw-pointer slice
/// wrappers, so it is `'static` by construction; the dispatcher blocks
/// until every job of a batch completed before the borrowed buffers
/// behind those raw pointers go out of scope.
type Job = Box<dyn FnOnce(&mut WorkerCtx) + Send + 'static>;

/// Borrowed input slice smuggled into a `'static` job. The dispatcher
/// guarantees the pointee outlives the job (it blocks on the batch
/// latch), and jobs only read through it.
struct SharedSlice<T>(*const T, usize);

// SAFETY: the wrapper only moves the pointer to the worker thread; the
// dispatching call blocks until the job signalled completion, so the
// caller-owned pointee is live for the job's whole execution, and jobs
// only read (`T: Sync` makes shared cross-thread reads sound).
unsafe impl<T: Sync> Send for SharedSlice<T> {}

impl<T> SharedSlice<T> {
    fn new(s: &[T]) -> SharedSlice<T> {
        SharedSlice(s.as_ptr(), s.len())
    }

    /// Reborrow the slice.
    ///
    /// # Safety
    /// The dispatching call must still be blocked on the batch latch
    /// (i.e. the original slice is live and unmoved).
    unsafe fn get<'a>(&self) -> &'a [T] {
        // SAFETY: caller upholds the latch-bounded lifetime contract
        // above; (ptr, len) came from a real slice in `new`.
        unsafe { std::slice::from_raw_parts(self.0, self.1) }
    }
}

/// Borrowed output slice smuggled into a `'static` job; every job of a
/// batch receives a *disjoint* segment, so workers never alias.
struct MutSlice<T>(*mut T, usize);

// SAFETY: segments handed to different jobs are disjoint (the router
// partitions one scratch buffer by shard), the dispatcher blocks until
// all jobs completed, and `T: Send` covers the cross-thread hand-off.
unsafe impl<T: Send> Send for MutSlice<T> {}

impl<T> MutSlice<T> {
    fn new(s: &mut [T]) -> MutSlice<T> {
        MutSlice(s.as_mut_ptr(), s.len())
    }

    /// Reborrow the slice mutably.
    ///
    /// # Safety
    /// The dispatching call must still be blocked on the batch latch,
    /// and no other job may hold an overlapping segment.
    unsafe fn get<'a>(&self) -> &'a mut [T] {
        // SAFETY: caller upholds the latch-bounded, disjoint-segment
        // contract above; (ptr, len) came from a real slice in `new`.
        unsafe { std::slice::from_raw_parts_mut(self.0, self.1) }
    }
}

/// Completion latch for one dispatched batch: counts outstanding jobs
/// and records whether any of them panicked (a poisoned worker must
/// surface as a caller panic, not a deadlock).
struct Latch {
    state: Mutex<(usize, bool)>,
    cv: Condvar,
}

impl Latch {
    fn new(jobs: usize) -> Arc<Latch> {
        Arc::new(Latch {
            state: Mutex::new((jobs, false)),
            cv: Condvar::new(),
        })
    }

    fn finish(&self, ok: bool) {
        let mut st = self.state.lock().expect("latch poisoned");
        st.0 -= 1;
        st.1 |= !ok;
        if st.0 == 0 {
            self.cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut st = self.state.lock().expect("latch poisoned");
        while st.0 > 0 {
            st = self.cv.wait(st).expect("latch poisoned");
        }
        assert!(!st.1, "a shard worker panicked while servicing a batch");
    }
}

/// One shard-affine worker: a pinned thread draining jobs in FIFO order
/// with a persistent [`WorkerCtx`] (its scheduler ring and staging
/// buffers amortize across every batch the shard ever serves).
struct Worker {
    tx: mpsc::Sender<Job>,
    handle: Option<JoinHandle<()>>,
}

/// Reusable router state for one caller of the sharded batch entry
/// points: classification, gather/scatter and scan-staging buffers plus
/// the inline-mode execution context. Mirrors the `MlpScheduler`
/// caller-owned-state idiom: hold one per
/// driving thread and the router allocates nothing once warmed up.
pub struct RouterScratch {
    /// Shard id per request.
    shard_ids: Vec<u32>,
    /// Scratch reused as the per-shard gather cursor.
    counts: Vec<usize>,
    /// Per-shard start offsets into the grouped order (`shards + 1`).
    starts: Vec<usize>,
    /// Request indices grouped by shard, original order within a shard.
    order: Vec<u32>,
    /// Position of each request within its shard's group.
    pos: Vec<u32>,
    /// Gathered key pointers, grouped by shard.
    keys: Vec<KeyPtr>,
    /// Gathered key lengths, grouped by shard.
    key_lens: Vec<usize>,
    /// Gathered per-request values (insert TIDs / scan limits).
    vals: Vec<u64>,
    /// Gathered result slots, grouped by shard.
    outs: Vec<Option<u64>>,
    /// Flat scan-TID staging area, one disjoint segment per shard.
    stage: Vec<u64>,
    /// Per-shard segment starts into `stage` (`shards + 1`).
    seg_starts: Vec<usize>,
    /// TIDs produced per gathered request (scans; gets stay 0).
    req_counts: Vec<usize>,
    /// Absolute `stage` offset per gathered request.
    req_offs: Vec<usize>,
    /// Cross-shard scan continuation buffer.
    cont: Vec<u64>,
    /// Shard-affine drain queues for the inline grouped paths (one per
    /// shard, holding original batch slots in ascending order).
    queues: Vec<Vec<u32>>,
    /// Inline-mode execution state (used when the router runs without
    /// worker threads).
    ctx: WorkerCtx,
}

impl Default for RouterScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl RouterScratch {
    /// Fresh scratch; buffers are allocated lazily on first use.
    pub fn new() -> RouterScratch {
        RouterScratch {
            shard_ids: Vec::new(),
            counts: Vec::new(),
            starts: Vec::new(),
            order: Vec::new(),
            pos: Vec::new(),
            keys: Vec::new(),
            key_lens: Vec::new(),
            vals: Vec::new(),
            outs: Vec::new(),
            stage: Vec::new(),
            seg_starts: Vec::new(),
            req_counts: Vec::new(),
            req_offs: Vec::new(),
            cont: Vec::new(),
            queues: Vec::new(),
            ctx: WorkerCtx::new(),
        }
    }

    /// Classify `n` requests by shard and build the grouped permutation:
    /// after this, `order[starts[s]..starts[s + 1]]` lists the request
    /// indices owned by shard `s` in request order, and request `i` sits
    /// at group position `pos[i]`. Allocation-free once warmed up.
    ///
    /// The classify loop is prefetch-pipelined like the scheduler's
    /// descent ring: each request's key bytes are requested
    /// [`CLASSIFY_PF_AHEAD`] iterations early, so the (cold) first key
    /// line arrives by the time the splitter compare needs it. Without
    /// this the router pays one *serial* memory miss per key — several
    /// times the cost of the compare itself.
    fn split<'k>(
        &mut self,
        shards: usize,
        n: usize,
        key_of: impl Fn(usize) -> &'k [u8],
        mut shard_of: impl FnMut(&[u8]) -> usize,
    ) {
        self.shard_ids.clear();
        self.counts.clear();
        self.counts.resize(shards, 0);
        for i in 0..n {
            if i + CLASSIFY_PF_AHEAD < n {
                hot_bits::prefetch_node(key_of(i + CLASSIFY_PF_AHEAD).as_ptr(), 1);
            }
            let s = shard_of(key_of(i));
            self.shard_ids.push(s as u32);
            self.counts[s] += 1;
        }
        self.starts.clear();
        self.starts.resize(shards + 1, 0);
        for s in 0..shards {
            self.starts[s + 1] = self.starts[s] + self.counts[s];
        }
        // Reuse `counts` as the per-shard write cursor.
        self.counts.copy_from_slice(&self.starts[..shards]);
        self.order.clear();
        self.order.resize(n, 0);
        self.pos.clear();
        self.pos.resize(n, 0);
        for i in 0..n {
            let s = self.shard_ids[i] as usize;
            let slot = self.counts[s];
            self.order[slot] = i as u32;
            self.pos[i] = (slot - self.starts[s]) as u32;
            self.counts[s] += 1;
        }
    }
}

/// A range-partitioned, thread-per-core sharded HOT: `N` independent
/// [`ConcurrentHot`] tries behind a deterministic batch router (see the
/// [module docs](self)). Results of every entry point are byte-identical
/// to a single trie holding the same keys.
pub struct ShardedHot<S>
where
    S: KeySource + Clone + Send + Sync + 'static,
{
    tries: Vec<Arc<ConcurrentHot<S>>>,
    workers: Vec<Worker>,
    /// Core each worker pinned to (`None`: unpinned / pinning failed).
    cores: Vec<Option<usize>>,
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
    S: KeySource + Clone + Send + Sync + 'static,
{
    /// A sharded trie with `shards` shards (clamped to
    /// `1..=`[`MAX_SHARDS`]), shard-affine worker threads pinned where
    /// the platform allows it.
    pub fn new(source: S, shards: usize) -> Self {
        Self::with_config(source, shards, true, true)
    }

    /// A sharded trie whose router runs entirely on the calling thread:
    /// no worker threads, no pinning. Same results; used where spawning
    /// threads is undesirable (differential tests, single-core hosts —
    /// there the caller *is* the one core's thread, so inline routing is
    /// the degenerate thread-per-core configuration).
    pub fn inline_router(source: S, shards: usize) -> Self {
        Self::with_config(source, shards, false, false)
    }

    /// Fully explicit constructor: shard count, whether to spawn the
    /// shard-affine worker pool, and whether workers pin themselves
    /// (a failed pin runs unpinned; see [`worker_cores`](Self::worker_cores)).
    pub fn with_config(source: S, shards: usize, spawn_workers: bool, pin: bool) -> Self {
        let shards = shards.clamp(1, MAX_SHARDS);
        let tries: Vec<Arc<ConcurrentHot<S>>> = (0..shards)
            .map(|_| Arc::new(ConcurrentHot::new(source.clone())))
            .collect();
        let mut workers = Vec::new();
        let mut cores = Vec::new();
        if spawn_workers {
            let ncores = numa::core_count();
            for i in 0..shards {
                let core = i % ncores;
                let (tx, rx) = mpsc::channel::<Job>();
                let (core_tx, core_rx) = mpsc::channel::<Option<usize>>();
                let handle = std::thread::Builder::new()
                    .name(format!("hot-shard-{i}"))
                    .spawn(move || {
                        // Pin before the first job: every allocation the
                        // shard's jobs perform first-touches memory on
                        // this core's NUMA node.
                        let pinned = pin && numa::pin_to_core(core);
                        let _ = core_tx.send(pinned.then_some(core));
                        let mut ctx = WorkerCtx::new();
                        while let Ok(job) = rx.recv() {
                            job(&mut ctx);
                        }
                    })
                    .expect("spawn shard worker");
                workers.push(Worker {
                    tx,
                    handle: Some(handle),
                });
                cores.push(core_rx.recv().unwrap_or(None));
            }
        }
        ShardedHot {
            tries,
            workers,
            cores,
            partition: OnceLock::new(),
            routed: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// A sharded trie with an explicit data-derived partition: one shard
    /// per splitter interval (`splitters.len() + 1` shards), workers and
    /// pinning as in [`new`](Self::new). Derive the splitters from a
    /// sample of the expected key population with
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

    /// Core each worker is pinned to; `None` entries ran unpinned
    /// (pinning disabled, unsupported, or rejected by the kernel).
    /// Empty when the router runs inline.
    pub fn worker_cores(&self) -> &[Option<usize>] {
        &self.cores
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
    pub fn shard_counts(&self) -> Vec<u64> {
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

    /// Run `jobs` (shard id, job) — on the shard-affine workers when the
    /// pool exists, else inline on `ctx` — and block until all completed.
    fn dispatch(&self, jobs: Vec<(usize, Job)>, ctx: &mut WorkerCtx) {
        if self.workers.is_empty() {
            // Inline mode shares the caller's context across shards;
            // per-shard slices still run as independent scheduler
            // batches, preserving shard-grouped descent locality.
            for (_, job) in jobs {
                job(ctx);
            }
            return;
        }
        let latch = Latch::new(jobs.len());
        for (s, job) in jobs {
            let latch = Arc::clone(&latch);
            let wrapped: Job = Box::new(move |ctx| {
                let ok =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(ctx))).is_ok();
                latch.finish(ok);
            });
            self.workers[s].tx.send(wrapped).expect("shard worker alive");
        }
        latch.wait();
    }

    /// Inline-mode fused drive for scan-bearing batches: the whole
    /// batch runs as **one** scheduler pass whose per-request root
    /// reload classifies the key and starts the descent in its shard's
    /// trie. (Pure lookup/probe batches take `queued_run` instead —
    /// shard-grouped draining beats in-ring routing for them, but scan
    /// spans are emitted by stream position, which grouping permutes.)
    ///
    /// This folds routing into the out-of-order descent pipeline
    /// instead of running a separate split pass: an up-front classify
    /// loop pays one *serial* cold miss per key just to read the key
    /// bytes (prefetching can't hide it — a software prefetch does not
    /// hide a dTLB miss, and a shuffled probe stream misses the TLB
    /// constantly: 2 MB pages alone buy 15 %, EXPERIMENTS.md "Fused
    /// descent step"), which costs a sizable fraction of a whole trie
    /// descent. At stage time the scheduler has already issued that
    /// key-byte prefetch a full sweep earlier (it must copy the key
    /// into the lane anyway), so classification runs against warm
    /// bytes and its latency overlaps the other in-flight descents —
    /// the same discipline the scheduler applies to node misses.
    ///
    /// Descents of different shards interleave in the lane ring, each
    /// against its own root; one epoch pin covers them all (every
    /// shard defers reclamation through the global collector). Scan
    /// seeks stay bounded to their start shard — callers chase
    /// cross-shard continuations from the per-request spans left in
    /// `ctx.tids` / `ctx.bounds`.
    fn fused_run<Q>(&self, reqs: &Q, out: &mut [Option<u64>], ctx: &mut WorkerCtx)
    where
        Q: RequestStream + ?Sized,
    {
        let WorkerCtx {
            sched, tids, bounds, ..
        } = ctx;
        tids.clear();
        bounds.clear();
        bounds.push(0);
        let metrics = self.tries[0].metrics();
        metrics.incr(RowexCounter::EpochPin);
        let _guard = epoch::pin();
        sched.run(
            self.tries[0].store(),
            reqs,
            out,
            tids,
            bounds,
            |key| {
                let s = self.shard_of(key);
                // Balance gauge: one count per staged descent (a rare
                // torn-slot re-descent counts again — it is a descent).
                self.routed[s].fetch_add(1, Ordering::Relaxed);
                self.tries[s].load_root()
            },
            true,
            true,
            metrics,
        );
    }

    /// Inline-mode grouped drive for lookups and remove probes: a
    /// prefetch-pipelined *branchless* classify pass fills per-shard
    /// slot queues, then each queue drains through the scheduler one
    /// shard at a time in [`DRAIN_WINDOW`]-sized windows — each
    /// window's keys gathered contiguous, its results scattered back to
    /// the original batch slots.
    ///
    /// This is the profitable half of a trade `fused_run` loses for
    /// point lookups: folding routing into the ring avoids the classify
    /// pass's cold key read, but interleaves descents of *different*
    /// shards in one lane ring, and the shards' upper levels then evict
    /// each other from the cache — roughly one extra miss per descent,
    /// which is the very miss the shallower per-shard tries saved.
    /// Draining shard-grouped keeps one trie's upper levels hot for a
    /// whole queue; the classify pass it costs stays cheap because the
    /// flat fast path has no data-dependent branches, so the cold key
    /// reads of many iterations stay in flight together (a mispredicted
    /// branch per key would drain the pipeline and serialize them).
    /// Scans stay on `fused_run`: their results are emitted by stream
    /// position, which grouping would permute.
    fn queued_run(
        &self,
        keys: &[&[u8]],
        kind: DescentKind,
        out: &mut [Option<u64>],
        scratch: &mut RouterScratch,
    ) {
        let n = keys.len();
        let shards = self.shards();
        let RouterScratch { queues, ctx, .. } = scratch;
        queues.resize_with(shards, Vec::new);
        for q in queues.iter_mut() {
            q.clear();
        }
        match self.partition.get() {
            None => queues[0].extend(0..n as u32),
            Some(p) => {
                // Hoisted classifier state (see [`flat_classify`]).
                let prefix: &[u8] = &p.prefix;
                let words: &[u64] = &p.words;
                for i in 0..n {
                    if let Some(k) = keys.get(i + CLASSIFY_PF_AHEAD) {
                        hot_bits::prefetch_node(k.as_ptr(), 1);
                    }
                    let k = keys[i];
                    let s = flat_classify(prefix, words, k)
                        .unwrap_or_else(|| p.classify_slow(k));
                    queues[s].push(i as u32);
                }
            }
        }
        for (gauge, q) in self.routed.iter().zip(queues.iter()) {
            if !q.is_empty() {
                gauge.fetch_add(q.len() as u64, Ordering::Relaxed);
            }
        }
        let WorkerCtx {
            sched,
            tids,
            bounds,
            keys: wkeys,
            sub,
            ..
        } = ctx;
        tids.clear();
        bounds.clear();
        bounds.push(0);
        let metrics = self.tries[0].metrics();
        metrics.incr(RowexCounter::EpochPin);
        let _guard = epoch::pin();
        sub.clear();
        sub.resize(n.min(DRAIN_WINDOW), None);
        for (s, q) in queues.iter().enumerate() {
            for win in q.chunks(DRAIN_WINDOW) {
                wkeys.clear();
                wkeys.extend(win.iter().map(|&t| {
                    let k = keys[t as usize];
                    // SAFETY: `k` borrows the caller's `keys`, live for
                    // this whole call; the laundered view sits in the
                    // reusable `wkeys` only until the clear below (or the
                    // next window's), so none outlives the call.
                    unsafe { key_slice(KeyPtr(k.as_ptr()), k.len()) }
                }));
                let stream = GatherStream { keys: wkeys, kind };
                sched.run(
                    self.tries[s].store(),
                    &stream,
                    &mut sub[..win.len()],
                    tids,
                    bounds,
                    |_| self.tries[s].load_root(),
                    false,
                    true,
                    metrics,
                );
                for (j, &t) in win.iter().enumerate() {
                    out[t as usize] = sub[j];
                }
            }
        }
        wkeys.clear();
    }

    // ------------------------------------------------------------------
    // Scalar operations: routed inline (one descent has no batch to
    // amortize a worker hand-off against).
    // ------------------------------------------------------------------

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        self.tries[self.shard_of(key)].get(key)
    }

    /// Point lookup with a caller-provided padded-key buffer.
    pub fn get_with(&self, key: &[u8], buf: &mut PaddedKey) -> Option<u64> {
        self.tries[self.shard_of(key)].get_with(key, buf)
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
        let sp = self.splitters();
        let mut shard = self.shard_of(key);
        self.tries[shard].scan_into(key, limit, out);
        let mut cont = Vec::new();
        // Shard `s + 1` owns exactly the keys `>= splitter[s]`, so
        // resuming there from its splitter continues the global order.
        while out.len() < limit && shard < sp.len() {
            shard += 1;
            self.tries[shard].scan_into(&sp[shard - 1], limit - out.len(), &mut cont);
            out.extend_from_slice(&cont);
        }
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

    /// Batched point lookups, routed by shard and drained through each
    /// shard's out-of-order scheduler; `out[i]` answers `keys[i]`.
    pub fn get_batch(&self, keys: &[&[u8]], out: &mut [Option<u64>]) {
        let mut scratch = RouterScratch::new();
        self.get_batch_with(keys, out, &mut scratch);
    }

    /// [`get_batch`](Self::get_batch) with caller-owned router scratch
    /// (allocation-light once warmed up; hold one per driving thread).
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
        let n = keys.len();
        if n == 0 {
            return;
        }
        if self.workers.is_empty() {
            // No worker pool to parallelize against: branchless classify
            // into per-shard queues, then shard-grouped gather/drain/
            // scatter windows (see `queued_run`).
            let m = self.tries[0].metrics();
            let _t = m.timer(OpKind::GetBatch);
            m.items(OpKind::GetBatch, n as u64);
            self.queued_run(keys, DescentKind::Lookup, out, scratch);
            return;
        }
        let shards = self.shards();
        scratch.split(shards, n, |i| keys[i], |k| self.shard_of(k));
        self.account(&scratch.starts);
        gather_keys(scratch, |g| keys[g]);
        scratch.outs.clear();
        scratch.outs.resize(n, None);
        let mut jobs: Vec<(usize, Job)> = Vec::new();
        for s in 0..shards {
            let (lo, hi) = (scratch.starts[s], scratch.starts[s + 1]);
            if lo == hi {
                continue;
            }
            let trie = Arc::clone(&self.tries[s]);
            let keyp = SharedSlice::new(&scratch.keys[lo..hi]);
            let lenp = SharedSlice::new(&scratch.key_lens[lo..hi]);
            let outp = MutSlice::new(&mut scratch.outs[lo..hi]);
            jobs.push((
                s,
                Box::new(move |ctx: &mut WorkerCtx| {
                    // SAFETY: the dispatching call blocks on the batch
                    // latch until this job finished, so the gathered
                    // scratch buffers are live; `outp` is this shard's
                    // disjoint segment.
                    let (kp, kl, o) = unsafe { (keyp.get(), lenp.get(), outp.get()) };
                    run_shard_gets(&trie, kp, kl, o, ctx);
                }),
            ));
        }
        self.dispatch(jobs, &mut scratch.ctx);
        for (slot, &orig) in scratch.outs.iter().zip(scratch.order.iter()) {
            out[orig as usize] = *slot;
        }
    }

    /// Batched removals, routed by shard; `out[i]` is what
    /// [`remove`](Self::remove) would have returned for `keys[i]`.
    ///
    /// # Panics
    /// Panics if `keys` and `out` differ in length.
    pub fn remove_batch(
        &self,
        keys: &[&[u8]],
        out: &mut [Option<u64>],
        scratch: &mut RouterScratch,
    ) {
        assert_eq!(keys.len(), out.len(), "one output slot per key");
        let n = keys.len();
        if n == 0 {
            return;
        }
        if self.workers.is_empty() {
            // Grouped probe pass (warms each hit's path), then the
            // structural removals apply per probed-present key, walking
            // the same shard-grouped queues — within a shard the queue
            // preserves request order, and duplicate keys always share
            // a shard, so "the first apply wins" resolves exactly as in
            // the single trie's `remove_batch`.
            let m = self.tries[0].metrics();
            let _t = m.timer(OpKind::RemoveBatch);
            m.items(OpKind::RemoveBatch, n as u64);
            self.queued_run(keys, DescentKind::RemoveProbe, out, scratch);
            for (s, q) in scratch.queues.iter().enumerate() {
                for &slot in q {
                    let i = slot as usize;
                    if out[i].is_some() {
                        out[i] = self.tries[s].remove(keys[i]);
                    }
                }
            }
            return;
        }
        let shards = self.shards();
        scratch.split(shards, n, |i| keys[i], |k| self.shard_of(k));
        self.account(&scratch.starts);
        gather_keys(scratch, |g| keys[g]);
        scratch.outs.clear();
        scratch.outs.resize(n, None);
        let mut jobs: Vec<(usize, Job)> = Vec::new();
        for s in 0..shards {
            let (lo, hi) = (scratch.starts[s], scratch.starts[s + 1]);
            if lo == hi {
                continue;
            }
            let trie = Arc::clone(&self.tries[s]);
            let keyp = SharedSlice::new(&scratch.keys[lo..hi]);
            let lenp = SharedSlice::new(&scratch.key_lens[lo..hi]);
            let outp = MutSlice::new(&mut scratch.outs[lo..hi]);
            jobs.push((
                s,
                Box::new(move |ctx: &mut WorkerCtx| {
                    // SAFETY: as in `get_batch_with` — latch-bounded
                    // borrows, disjoint output segment.
                    let (kp, kl, o) = unsafe { (keyp.get(), lenp.get(), outp.get()) };
                    run_shard_removes(&trie, kp, kl, o, ctx);
                }),
            ));
        }
        self.dispatch(jobs, &mut scratch.ctx);
        for (slot, &orig) in scratch.outs.iter().zip(scratch.order.iter()) {
            out[orig as usize] = *slot;
        }
    }

    /// Batched inserts, routed by shard and **applied on the shard's
    /// worker thread** — under first-touch placement this is what puts a
    /// shard's nodes on its worker's NUMA node. `out[i]` receives the
    /// previous TID of `keys[i]`, as scalar [`insert`](Self::insert)
    /// would have returned.
    ///
    /// # Panics
    /// Panics if `keys`, `tids` and `out` differ in length.
    pub fn insert_batch(
        &self,
        keys: &[&[u8]],
        tids: &[u64],
        out: &mut [Option<u64>],
        scratch: &mut RouterScratch,
    ) {
        assert_eq!(keys.len(), tids.len(), "one tid per key");
        assert_eq!(keys.len(), out.len(), "one output slot per key");
        let n = keys.len();
        if n == 0 {
            return;
        }
        let shards = self.shards();
        scratch.split(shards, n, |i| keys[i], |k| self.shard_of(k));
        self.account(&scratch.starts);
        gather_keys(scratch, |g| keys[g]);
        scratch.vals.clear();
        for &orig in &scratch.order {
            scratch.vals.push(tids[orig as usize]);
        }
        scratch.outs.clear();
        scratch.outs.resize(n, None);
        let mut jobs: Vec<(usize, Job)> = Vec::new();
        for s in 0..shards {
            let (lo, hi) = (scratch.starts[s], scratch.starts[s + 1]);
            if lo == hi {
                continue;
            }
            let trie = Arc::clone(&self.tries[s]);
            let keyp = SharedSlice::new(&scratch.keys[lo..hi]);
            let lenp = SharedSlice::new(&scratch.key_lens[lo..hi]);
            let valp = SharedSlice::new(&scratch.vals[lo..hi]);
            let outp = MutSlice::new(&mut scratch.outs[lo..hi]);
            jobs.push((
                s,
                Box::new(move |_ctx: &mut WorkerCtx| {
                    // SAFETY: as in `get_batch_with` — latch-bounded
                    // borrows, disjoint output segment.
                    let (kp, kl, v, o) = unsafe { (keyp.get(), lenp.get(), valp.get(), outp.get()) };
                    run_shard_inserts(&trie, kp, kl, v, o);
                }),
            ));
        }
        self.dispatch(jobs, &mut scratch.ctx);
        for (slot, &orig) in scratch.outs.iter().zip(scratch.order.iter()) {
            out[orig as usize] = *slot;
        }
    }

    /// Batched range scans under the router: request `i`'s TIDs land in
    /// `tids[bounds[i]..bounds[i + 1]]` (both cleared first, `bounds`
    /// seeded with 0 — the `scan_batch_with` contract). Each shard's
    /// slice runs through its scheduler; requests whose range crosses a
    /// shard boundary continue into the following shards, so results
    /// match a single trie exactly.
    pub fn scan_batch(
        &self,
        requests: &[(&[u8], usize)],
        tids: &mut Vec<u64>,
        bounds: &mut Vec<usize>,
        scratch: &mut RouterScratch,
    ) {
        let n = requests.len();
        tids.clear();
        bounds.clear();
        bounds.push(0);
        if n == 0 {
            return;
        }
        if self.workers.is_empty() {
            // Fused seek pass (each scan bounded to its start shard),
            // then per-request cross-shard continuation while copying
            // the spans out in request order.
            let m = self.tries[0].metrics();
            let _t = m.timer(OpKind::ScanBatch);
            self.fused_run(&ScanStream(requests), &mut [], &mut scratch.ctx);
            for (i, &(key, limit)) in requests.iter().enumerate() {
                let (lo, hi) = (scratch.ctx.bounds[i], scratch.ctx.bounds[i + 1]);
                tids.extend_from_slice(&scratch.ctx.tids[lo..hi]);
                self.continue_scan(key, limit, hi - lo, tids, &mut scratch.cont);
                bounds.push(tids.len());
            }
            m.items(OpKind::ScanBatch, tids.len() as u64);
            return;
        }
        let shards = self.shards();
        scratch.split(shards, n, |i| requests[i].0, |k| self.shard_of(k));
        self.account(&scratch.starts);
        gather_keys(scratch, |g| requests[g].0);
        scratch.vals.clear();
        for &orig in &scratch.order {
            scratch.vals.push(requests[orig as usize].1 as u64);
        }
        stage_scans(scratch, shards);
        let mut jobs: Vec<(usize, Job)> = Vec::new();
        for s in 0..shards {
            let (lo, hi) = (scratch.starts[s], scratch.starts[s + 1]);
            if lo == hi {
                continue;
            }
            let trie = Arc::clone(&self.tries[s]);
            let keyp = SharedSlice::new(&scratch.keys[lo..hi]);
            let lenp = SharedSlice::new(&scratch.key_lens[lo..hi]);
            let valp = SharedSlice::new(&scratch.vals[lo..hi]);
            let cntp = MutSlice::new(&mut scratch.req_counts[lo..hi]);
            let (seg_lo, seg_hi) = (scratch.seg_starts[s], scratch.seg_starts[s + 1]);
            let stagep = MutSlice::new(&mut scratch.stage[seg_lo..seg_hi]);
            jobs.push((
                s,
                Box::new(move |ctx: &mut WorkerCtx| {
                    // SAFETY: as in `get_batch_with` — latch-bounded
                    // borrows; `cntp`/`stagep` are this shard's disjoint
                    // segments.
                    let (kp, kl, v, cnt, stage) = unsafe {
                        (keyp.get(), lenp.get(), valp.get(), cntp.get(), stagep.get())
                    };
                    run_shard_scans(&trie, kp, kl, v, cnt, stage, ctx);
                }),
            ));
        }
        self.dispatch(jobs, &mut scratch.ctx);
        self.emit_scans(scratch, n, tids, bounds, |i| requests[i].1, |_| true);
    }

    /// A mixed stream of point lookups and range scans, routed by shard
    /// and serviced through each shard's scheduler: `out[i]` answers
    /// request `i` when it is a get (scan slots stay untouched, as in
    /// `mixed_batch_with`), scan TIDs land flat in `tids` with one span
    /// per scan request in `bounds` — the single-trie contract,
    /// shard-transparently.
    ///
    /// # Panics
    /// Panics if `reqs` and `out` differ in length.
    pub fn mixed_batch(
        &self,
        reqs: &[BatchRequest<'_>],
        out: &mut [Option<u64>],
        tids: &mut Vec<u64>,
        bounds: &mut Vec<usize>,
        scratch: &mut RouterScratch,
    ) {
        assert_eq!(reqs.len(), out.len(), "one output slot per request");
        let n = reqs.len();
        tids.clear();
        bounds.clear();
        bounds.push(0);
        if n == 0 {
            return;
        }
        if self.workers.is_empty() {
            // Fused mixed pass: gets land in `out` directly, scan spans
            // are copied out in request order with their cross-shard
            // continuations chased here.
            let m = self.tries[0].metrics();
            let _tg = m.timer(OpKind::GetBatch);
            let _ts = m.timer(OpKind::ScanBatch);
            let gets = reqs.iter().filter(|r| matches!(r, BatchRequest::Get(_))).count();
            m.items(OpKind::GetBatch, gets as u64);
            self.fused_run(reqs, out, &mut scratch.ctx);
            let mut scan_idx = 0usize;
            for r in reqs {
                if let BatchRequest::Scan(key, limit) = *r {
                    let (lo, hi) = (
                        scratch.ctx.bounds[scan_idx],
                        scratch.ctx.bounds[scan_idx + 1],
                    );
                    scan_idx += 1;
                    tids.extend_from_slice(&scratch.ctx.tids[lo..hi]);
                    self.continue_scan(key, limit, hi - lo, tids, &mut scratch.cont);
                    bounds.push(tids.len());
                }
            }
            m.items(OpKind::ScanBatch, tids.len() as u64);
            return;
        }
        let shards = self.shards();
        scratch.split(shards, n, |i| req_key(&reqs[i]), |k| self.shard_of(k));
        self.account(&scratch.starts);
        gather_keys(scratch, |g| req_key(&reqs[g]));
        // Limits: scans carry `limit + 1`, gets carry 0 — the worker
        // reconstructs the request kind from this alone, keeping jobs
        // free of the caller's `BatchRequest` borrows.
        scratch.vals.clear();
        for &orig in &scratch.order {
            scratch.vals.push(match reqs[orig as usize] {
                BatchRequest::Get(_) => 0,
                BatchRequest::Scan(_, limit) => limit as u64 + 1,
            });
        }
        stage_scans(scratch, shards);
        scratch.outs.clear();
        scratch.outs.resize(n, None);
        let mut jobs: Vec<(usize, Job)> = Vec::new();
        for s in 0..shards {
            let (lo, hi) = (scratch.starts[s], scratch.starts[s + 1]);
            if lo == hi {
                continue;
            }
            let trie = Arc::clone(&self.tries[s]);
            let keyp = SharedSlice::new(&scratch.keys[lo..hi]);
            let lenp = SharedSlice::new(&scratch.key_lens[lo..hi]);
            let valp = SharedSlice::new(&scratch.vals[lo..hi]);
            let outp = MutSlice::new(&mut scratch.outs[lo..hi]);
            let cntp = MutSlice::new(&mut scratch.req_counts[lo..hi]);
            let (seg_lo, seg_hi) = (scratch.seg_starts[s], scratch.seg_starts[s + 1]);
            let stagep = MutSlice::new(&mut scratch.stage[seg_lo..seg_hi]);
            jobs.push((
                s,
                Box::new(move |ctx: &mut WorkerCtx| {
                    // SAFETY: as in `get_batch_with` — latch-bounded
                    // borrows; all mutable segments disjoint per shard.
                    let (kp, kl, v, o, cnt, stage) = unsafe {
                        (
                            keyp.get(),
                            lenp.get(),
                            valp.get(),
                            outp.get(),
                            cntp.get(),
                            stagep.get(),
                        )
                    };
                    run_shard_mixed(&trie, kp, kl, v, o, cnt, stage, ctx);
                }),
            ));
        }
        self.dispatch(jobs, &mut scratch.ctx);
        for (slot, &orig) in scratch.outs.iter().zip(scratch.order.iter()) {
            let i = orig as usize;
            if matches!(reqs[i], BatchRequest::Get(_)) {
                out[i] = *slot;
            }
        }
        self.emit_scans(
            scratch,
            n,
            tids,
            bounds,
            |i| match reqs[i] {
                BatchRequest::Scan(_, limit) => limit,
                BatchRequest::Get(_) => 0,
            },
            |i| matches!(reqs[i], BatchRequest::Scan(..)),
        );
    }

    /// Sorted bulk load, split at the shard boundaries, the shards built
    /// **concurrently**: each gets its borrowed sub-slice of `entries` on
    /// a scoped loader thread running the existing bottom-up builder.
    /// Where the pool is pinned the loader pins itself to the shard
    /// worker's core first, so placement stays first-touch, and builds
    /// with one worker (builder threads would inherit its one-core mask);
    /// an unpinned loader gets its share of the cores. Loading an empty
    /// structure with no partition installed first derives equal-count
    /// quantile splitters from `entries` — the balanced partition for
    /// exactly this population. Returns the total keys loaded. On error
    /// some shards may already be loaded — discard the structure, exactly
    /// as for a failed single-trie load.
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
        let share = (numa::core_count() / loading.max(1)).max(1);
        std::thread::scope(|scope| {
            let loaders: Vec<_> = (0..shards)
                .filter(|&s| starts[s] < starts[s + 1])
                .map(|s| {
                    let seg = &entries[starts[s]..starts[s + 1]];
                    let core = self.cores.get(s).copied().flatten();
                    let threads = if core.is_some() { 1 } else { share };
                    scope.spawn(move || {
                        if let Some(core) = core {
                            numa::pin_to_core(core);
                        }
                        self.tries[s].bulk_load_parallel(seg, threads)
                    })
                })
                .collect();
            loaders.into_iter().map(|l| l.join().expect("shard loader panicked")).sum()
        })
    }

    /// Aggregate memory footprint across all shards.
    pub fn memory_stats(&self) -> MemoryStats {
        let mut agg = MemoryStats::default();
        for t in &self.tries {
            let m = t.memory_stats();
            agg.node_bytes += m.node_bytes;
            agg.node_count += m.node_count;
            agg.aux_bytes += m.aux_bytes;
            agg.key_count += m.key_count;
            agg.capacity_bytes += m.capacity_bytes;
        }
        agg
    }

    /// Merged metrics snapshot across every shard (counters and
    /// histograms summed per operation kind).
    #[cfg(feature = "metrics")]
    pub fn metrics_snapshot(&self) -> hot_metrics::MetricsSnapshot {
        let mut merged = self.tries[0].metrics_ops_snapshot();
        for t in &self.tries[1..] {
            merged.merge(&t.metrics_ops_snapshot());
        }
        merged
    }

    /// Chase a scan's cross-shard continuation: `got` TIDs were already
    /// produced in `key`'s start shard; keep appending from the
    /// following shards' lower bounds (shard `s + 1` owns exactly the
    /// keys `>= splitter[s]`, so concatenation *is* the merge) until
    /// `limit` is met or the key space ends.
    fn continue_scan(
        &self,
        key: &[u8],
        limit: usize,
        mut got: usize,
        tids: &mut Vec<u64>,
        cont: &mut Vec<u64>,
    ) {
        let sp = self.splitters();
        let shards = self.shards();
        let mut next = self.shard_of(key) + 1;
        while got < limit && next <= sp.len() && next < shards {
            self.tries[next].scan_into(&sp[next - 1], limit - got, cont);
            got += cont.len();
            tids.extend_from_slice(cont);
            next += 1;
        }
    }

    /// Re-emit scan results in request order: for each scan request (in
    /// original order) copy its shard-local TID run out of the staging
    /// area, then chase cross-shard continuations, then close its bound.
    fn emit_scans(
        &self,
        scratch: &mut RouterScratch,
        n: usize,
        tids: &mut Vec<u64>,
        bounds: &mut Vec<usize>,
        limit_of: impl Fn(usize) -> usize,
        is_scan: impl Fn(usize) -> bool,
    ) {
        let shards = self.shards();
        let sp = self.splitters();
        // Absolute stage offset per gathered request: prefix sums of the
        // produced counts within each shard's segment.
        scratch.req_offs.clear();
        scratch.req_offs.resize(scratch.order.len(), 0);
        for s in 0..shards {
            let mut off = scratch.seg_starts[s];
            for g in scratch.starts[s]..scratch.starts[s + 1] {
                scratch.req_offs[g] = off;
                off += scratch.req_counts[g];
            }
        }
        for i in 0..n {
            if !is_scan(i) {
                continue;
            }
            let s = scratch.shard_ids[i] as usize;
            let g = scratch.starts[s] + scratch.pos[i] as usize;
            let count = scratch.req_counts[g];
            let off = scratch.req_offs[g];
            tids.extend_from_slice(&scratch.stage[off..off + count]);
            // Cross-shard continuation: a scan that exhausted its start
            // shard below its limit resumes at the next shard's lower
            // bound (shards are contiguous key ranges, so concatenation
            // *is* the merge).
            let limit = limit_of(i);
            let mut got = count;
            let mut next = s + 1;
            while got < limit && next <= sp.len() && next < shards {
                self.tries[next].scan_into(&sp[next - 1], limit - got, &mut scratch.cont);
                got += scratch.cont.len();
                tids.extend_from_slice(&scratch.cont);
                next += 1;
            }
            bounds.push(tids.len());
        }
    }
}

impl<S> Drop for ShardedHot<S>
where
    S: KeySource + Clone + Send + Sync + 'static,
{
    fn drop(&mut self) {
        // Close every job channel, then join: workers exit their recv
        // loop once the last sender is gone.
        for w in &mut self.workers {
            let (closed_tx, _) = mpsc::channel();
            let _ = std::mem::replace(&mut w.tx, closed_tx);
        }
        for w in &mut self.workers {
            if let Some(handle) = w.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// The key a mixed request descends on.
fn req_key<'a>(r: &BatchRequest<'a>) -> &'a [u8] {
    match *r {
        BatchRequest::Get(k) => k,
        BatchRequest::Scan(k, _) => k,
    }
}

/// Gather the batch's key slices into scratch as raw parts, grouped by
/// shard (raw so the jobs that reborrow them stay `'static`).
fn gather_keys<'k>(scratch: &mut RouterScratch, mut key_of: impl FnMut(usize) -> &'k [u8]) {
    scratch.keys.clear();
    scratch.key_lens.clear();
    for &orig in &scratch.order {
        let k = key_of(orig as usize);
        scratch.keys.push(KeyPtr(k.as_ptr()));
        scratch.key_lens.push(k.len());
    }
}

/// Size the scan staging area: one disjoint `stage` segment per shard,
/// bounded by the shard's limit sum (`vals` holds gathered limits; the
/// mixed router stores `limit + 1` for scans and 0 for gets — both are
/// safe over-estimates, segments are capacity bounds).
fn stage_scans(scratch: &mut RouterScratch, shards: usize) {
    scratch.seg_starts.clear();
    scratch.seg_starts.resize(shards + 1, 0);
    for s in 0..shards {
        let span: u64 = scratch.vals[scratch.starts[s]..scratch.starts[s + 1]]
            .iter()
            .sum();
        scratch.seg_starts[s + 1] = scratch.seg_starts[s] + span as usize;
    }
    scratch.stage.clear();
    scratch.stage.resize(scratch.seg_starts[shards], 0);
    scratch.req_counts.clear();
    scratch.req_counts.resize(scratch.order.len(), 0);
}

/// Reborrow a gathered (pointer, length) pair as a key slice.
///
/// # Safety
/// The dispatching call must still be blocked on the batch latch, so the
/// caller-owned key bytes are live.
unsafe fn key_slice<'a>(p: KeyPtr, len: usize) -> &'a [u8] {
    // SAFETY: caller upholds the latch-bounded lifetime contract; the
    // pair was gathered from a real key slice.
    unsafe { std::slice::from_raw_parts(p.0, len) }
}

/// Shard-slice lookups: rebuild the gathered keys in the worker's
/// reusable buffer and drain them through its scheduler ring.
fn run_shard_gets<S: KeySource>(
    trie: &ConcurrentHot<S>,
    key_ptrs: &[KeyPtr],
    key_lens: &[usize],
    out: &mut [Option<u64>],
    ctx: &mut WorkerCtx,
) {
    ctx.keys.clear();
    for (&p, &l) in key_ptrs.iter().zip(key_lens) {
        // SAFETY: latch-bounded gathered pointers; `ctx.keys` is cleared
        // again below, so no laundered reference outlives the dispatch.
        ctx.keys.push(unsafe { key_slice(p, l) });
    }
    trie.get_batch_with(&ctx.keys, out, &mut ctx.sched);
    ctx.keys.clear();
}

/// Shard-slice removals through the batched probe + apply path.
fn run_shard_removes<S: KeySource>(
    trie: &ConcurrentHot<S>,
    key_ptrs: &[KeyPtr],
    key_lens: &[usize],
    out: &mut [Option<u64>],
    ctx: &mut WorkerCtx,
) {
    ctx.keys.clear();
    for (&p, &l) in key_ptrs.iter().zip(key_lens) {
        // SAFETY: as in `run_shard_gets` — latch-bounded, cleared below.
        ctx.keys.push(unsafe { key_slice(p, l) });
    }
    trie.remove_batch(&ctx.keys, out);
    ctx.keys.clear();
}

/// Shard-slice inserts (the first-touch write path).
fn run_shard_inserts<S: KeySource>(
    trie: &ConcurrentHot<S>,
    key_ptrs: &[KeyPtr],
    key_lens: &[usize],
    tids: &[u64],
    out: &mut [Option<u64>],
) {
    for j in 0..key_ptrs.len() {
        // SAFETY: latch-bounded gathered pointers; the reference dies at
        // the end of this iteration.
        let key = unsafe { key_slice(key_ptrs[j], key_lens[j]) };
        out[j] = trie.insert(key, tids[j]);
    }
}

/// Shard-slice scans: drain through the scheduler into the worker's
/// buffers, then copy each request's TID run into the shard's staging
/// segment and record its count.
fn run_shard_scans<S: KeySource>(
    trie: &ConcurrentHot<S>,
    key_ptrs: &[KeyPtr],
    key_lens: &[usize],
    limits: &[u64],
    req_counts: &mut [usize],
    stage: &mut [u64],
    ctx: &mut WorkerCtx,
) {
    ctx.scans.clear();
    for j in 0..key_ptrs.len() {
        // SAFETY: as in `run_shard_gets` — latch-bounded, cleared below.
        let key = unsafe { key_slice(key_ptrs[j], key_lens[j]) };
        ctx.scans.push((key, limits[j] as usize));
    }
    trie.scan_batch_with(&ctx.scans, &mut ctx.tids, &mut ctx.bounds, &mut ctx.sched);
    ctx.scans.clear();
    let mut off = 0usize;
    for (j, span) in ctx.bounds.windows(2).enumerate() {
        let run = &ctx.tids[span[0]..span[1]];
        stage[off..off + run.len()].copy_from_slice(run);
        req_counts[j] = run.len();
        off += run.len();
    }
}

/// Shard-slice mixed get/scan streams (`limits[j] == 0`: get; else scan
/// with limit `limits[j] - 1`).
#[allow(clippy::too_many_arguments)] // router plumbing, mirrors run_shard_scans
fn run_shard_mixed<S: KeySource>(
    trie: &ConcurrentHot<S>,
    key_ptrs: &[KeyPtr],
    key_lens: &[usize],
    limits: &[u64],
    out: &mut [Option<u64>],
    req_counts: &mut [usize],
    stage: &mut [u64],
    ctx: &mut WorkerCtx,
) {
    ctx.mixed.clear();
    for j in 0..key_ptrs.len() {
        // SAFETY: as in `run_shard_gets` — latch-bounded, cleared below.
        let key = unsafe { key_slice(key_ptrs[j], key_lens[j]) };
        ctx.mixed.push(if limits[j] == 0 {
            BatchRequest::Get(key)
        } else {
            BatchRequest::Scan(key, limits[j] as usize - 1)
        });
    }
    trie.mixed_batch_with(&ctx.mixed, out, &mut ctx.tids, &mut ctx.bounds, &mut ctx.sched);
    ctx.mixed.clear();
    let mut off = 0usize;
    let mut scan_ord = 0usize;
    for (j, &limit) in limits.iter().enumerate() {
        if limit == 0 {
            continue;
        }
        let (b_lo, b_hi) = (ctx.bounds[scan_ord], ctx.bounds[scan_ord + 1]);
        scan_ord += 1;
        let run = &ctx.tids[b_lo..b_hi];
        stage[off..off + run.len()].copy_from_slice(run);
        req_counts[j] = run.len();
        off += run.len();
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
        let sharded = ShardedHot::inline_router(Arc::new(arena), 4);
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

    #[test]
    fn compiled_classifier_agrees_with_reference_on_adversarial_keys() {
        // Keys over a 3-symbol alphabet including 0x00 maximize shared
        // prefixes, embedded zeros, and prefix-of-another-key pairs — the
        // cases where the padded 8-byte discriminants tie and the
        // classification trie must fall back to exact resolution.
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
    }
}
