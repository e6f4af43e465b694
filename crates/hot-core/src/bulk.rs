//! Bottom-up sorted bulk loading (DESIGN.md §11).
//!
//! epoch-exempt: builds (and on failure frees) a private subtree that is
//! not published until the caller's single Release CAS — no concurrent
//! reader can reach these nodes, so no epoch pin is required.
//!
//! The COW insert path pays for generality: every key allocates, rebuilds
//! and frees nodes that the very next insert invalidates. When the input is
//! already sorted, the whole trie can instead be built bottom-up in one
//! pass — HOT nodes are immutable-once-published linearized blobs, ideal
//! for single-pass construction:
//!
//! 1. **Prepare** — one scan over the sorted `(key, tid)` pairs computes
//!    the *boundary array*: `bounds[i]` is the first mismatching bit
//!    between adjacent keys `i` and `i + 1`
//!    ([`hot_bits::first_mismatch_bit`]). Duplicates collapse (last write
//!    wins) and out-of-order input is rejected with
//!    [`BulkLoadError::Unsorted`]. After this pass the keys themselves are
//!    no longer needed: the binary Patricia trie over a sorted key set is
//!    exactly the min-Cartesian tree over `bounds`, so boundary positions
//!    alone determine every discriminative bit and sparse partial key. The
//!    scan cuts the entries into contiguous ranges, one per worker, each
//!    writing its pairs into its own slice of one buffer while it
//!    prefetches the key [`PREFETCH_AHEAD`] entries ahead; the caller then
//!    compacts the duplicates out of that buffer in place.
//! 2. **Pack** — the pass that builds the Cartesian tree also computes, for
//!    every BiNode `v`, the *minimum packing height* `H(v)`: the smallest
//!    `h` such that `v`'s subtree splits into at most `k = 32` parts that
//!    each pack into height `h - 1`, via the recurrence
//!    `W(v, h) = (H(left) ≤ h-1 ? 1 : W(left, h)) + (… right …)` and
//!    `H(v) = min h with W(v, h) ≤ k`. Construction then descends: each
//!    compound node takes exactly the forced-split part set (split a child
//!    iff `H(child) > h - 1`), which is the unique minimal partition for the
//!    minimal height — nodes are as tall-fragmented and as full as the
//!    trie's branching allows, and the overall trie height is provably
//!    minimal for the key set (height-optimality, Section 3 of the paper).
//!    The forced boundaries form a connected top fragment of the range's
//!    Patricia trie; [`Builder::fill_from_fragment`] turns them into one
//!    compound node whose children are the recursively built parts. Each
//!    node is encoded exactly once — no intermediate COW churn, and no
//!    allocation but the node's own: parts, fences and child words sit in
//!    stack arrays and every node goes through one reused [`Builder`] per
//!    worker. Heights are assigned bottom-up (`1 +` tallest child), so the
//!    result satisfies every `check_invariants()` height and ordering rule
//!    by construction.
//! 3. **Parallelize** — the root fragment's ≤ 32 parts are *partition
//!    fences*: independent contiguous subtries. `build_tree` assigns them
//!    largest-first onto `std::thread` workers, then grafts the finished
//!    subtrie roots under a root node built from the fence positions — the
//!    same node the sequential pass would build. How many workers build is
//!    the caller's choice for `bulk_load_parallel`; for a plain `bulk_load`
//!    the store decides ([`NodeStore::prepare_load`]): every core when it
//!    owns the memory of every node it builds, else the calling thread
//!    alone (DESIGN.md §11.4).

use crate::arena::ArenaFull;
use crate::node::builder::Builder;
use crate::node::{Slot, TreeRef, MAX_FANOUT};
use crate::store::{height_of, NodeStore};
use hot_keys::{MAX_KEY_LEN, MAX_TID};
use std::panic::resume_unwind;

/// Rejected bulk-load input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BulkLoadError {
    /// `entries[index]` sorts strictly below its predecessor; building from
    /// unsorted input would silently produce a corrupt trie.
    Unsorted {
        /// Index of the first out-of-order entry.
        index: usize,
    },
    /// The target index already holds entries; bulk loading only constructs
    /// whole tries.
    NotEmpty,
    /// An arena ceiling was hit mid-build (compact back-end only). Nothing
    /// was published: the nodes built so far are back on the free list, the
    /// appended leaf records are accounted dead, and the index is still
    /// empty and usable.
    ArenaFull(ArenaFull),
}

impl std::fmt::Display for BulkLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BulkLoadError::Unsorted { index } => {
                write!(f, "bulk-load input is not sorted at entry {index}")
            }
            BulkLoadError::NotEmpty => write!(f, "bulk load requires an empty index"),
            BulkLoadError::ArenaFull(e) => write!(f, "bulk load: {e}"),
        }
    }
}

impl std::error::Error for BulkLoadError {}

impl From<ArenaFull> for BulkLoadError {
    fn from(e: ArenaFull) -> Self {
        BulkLoadError::ArenaFull(e)
    }
}

impl From<std::convert::Infallible> for BulkLoadError {
    fn from(e: std::convert::Infallible) -> Self {
        match e {}
    }
}

/// How many threads a load may run on.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Workers {
    /// A plain `bulk_load`: every available core for the boundary scan, and
    /// for the node build too when the store owns the memory of every node
    /// it builds (DESIGN.md §11.4).
    Available,
    /// `bulk_load_parallel(threads)`: at most this many, for the scan and
    /// the node build alike.
    UpTo(usize),
}

/// The pair word of two entries with equal keys. No bit position reaches
/// it: keys are at most [`MAX_KEY_LEN`] bytes.
const DUPLICATE: u16 = u16::MAX;

/// The fewest pairs the boundary scan gives a thread of its own; a smaller
/// load scans on the calling thread alone. On the 2-vCPU bench host a
/// scoped spawn and join take ≈ 30 µs, and 2¹⁶ pairs take ≈ 0.1 ms to scan
/// when the keys are in cache (8-byte integers) and ≈ 2 ms when each key
/// is a cache miss (urls in a tuple store): a thread given this many pays
/// for its spawn.
const SCAN_SPAWN_MIN: usize = 1 << 16;

/// How many entries ahead the scan prefetches a key. Each key of a sorted
/// load over a tuple store is a cache miss of its own; 16 in flight is the
/// batched descent's depth too (DESIGN.md §9.3).
const PREFETCH_AHEAD: usize = 16;

/// Validated bulk-load input: for every adjacent pair of entries, the first
/// mismatching bit of their keys, or [`DUPLICATE`]. The keys themselves are
/// not retained — construction needs only the mismatch positions, and the
/// store makes the leaves in a second pass, once the whole input is known
/// to be sorted.
#[derive(Debug)]
pub(crate) struct Prepared {
    /// `pairs[i]` compares entries `i` and `i + 1`.
    pairs: Vec<u16>,
    /// Distinct keys: the entries no later entry replaces.
    pub(crate) distinct: usize,
}

impl Prepared {
    /// Does entry `i` survive deduplication (last write wins)?
    #[inline]
    pub(crate) fn survives(&self, i: usize) -> bool {
        self.pairs.get(i) != Some(&DUPLICATE)
    }

    /// The boundary array over the surviving entries, compacted in place:
    /// `bounds[i]` is the first mismatching bit between distinct keys `i`
    /// and `i + 1`.
    pub(crate) fn into_bounds(mut self) -> Vec<u16> {
        self.pairs.retain(|&p| p != DUPLICATE);
        self.pairs
    }
}

/// Verify ascending order, find the duplicates (last write wins) and record
/// every adjacent-pair mismatch position, on up to `threads` threads. Each
/// thread scans one contiguous range of at least `spawn_min` pairs
/// ([`SCAN_SPAWN_MIN`] outside the tests), the first on the calling thread.
/// Ranges are joined in order and the first one that fails decides — a
/// worker's panic is resumed with its own payload — so the outcome is the
/// one a serial scan has.
pub(crate) fn prepare<K: AsRef<[u8]> + Sync>(
    entries: &[(K, u64)],
    threads: usize,
    spawn_min: usize,
) -> Result<Prepared, BulkLoadError> {
    let n = entries.len();
    let mut pairs = vec![0u16; n.saturating_sub(1)];
    let workers = (pairs.len() / spawn_min.max(1)).clamp(1, threads.max(1));
    let duplicates = if workers == 1 {
        scan(entries, 0, &mut pairs)?
    } else {
        let per = pairs.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let mut ranges = pairs.chunks_mut(per).enumerate();
            let (_, mine) = ranges.next().expect("two workers imply two pairs");
            let others: Vec<_> = ranges
                .map(|(k, out)| scope.spawn(move || scan(entries, k * per, out)))
                .collect();
            let mut outcome = scan(entries, 0, mine);
            for other in others {
                let theirs = other.join();
                // A fault in an earlier range comes first, as in a serial
                // scan; this range's own outcome is then moot.
                if outcome.is_ok() {
                    let theirs = theirs.unwrap_or_else(|payload| resume_unwind(payload));
                    outcome = outcome.and_then(|d| theirs.map(|t| d + t));
                }
            }
            outcome
        })?
    };
    Ok(Prepared { pairs, distinct: n - duplicates })
}

/// Scan the pairs `first..first + out.len()` — pair `p` compares entries
/// `p` and `p + 1` — into `out`, checking every entry the range ends on
/// (and entry 0 when the range starts there). Returns the number of
/// duplicate pairs, or the first out-of-order entry.
fn scan<K: AsRef<[u8]>>(entries: &[(K, u64)], first: usize, out: &mut [u16]) -> Result<usize, BulkLoadError> {
    if first == 0 {
        if let Some((key, tid)) = entries.first() {
            check(key.as_ref(), *tid);
        }
    }
    let mut duplicates = 0;
    for (p, word) in (first..).zip(out.iter_mut()) {
        if let Some((ahead, _)) = entries.get(p + 1 + PREFETCH_AHEAD) {
            hot_bits::prefetch_read(ahead.as_ref().as_ptr());
        }
        let prev = entries[p].0.as_ref();
        let (key, tid) = &entries[p + 1];
        let key = key.as_ref();
        check(key, *tid);
        *word = match hot_bits::first_mismatch_bit(prev, key) {
            None => {
                duplicates += 1;
                DUPLICATE
            }
            // Sorted ascending iff the predecessor holds the 0 at the first
            // mismatching bit (keys are zero-padded).
            Some(pos) if key_bit(prev, pos) != 0 => {
                return Err(BulkLoadError::Unsorted { index: p + 1 })
            }
            Some(pos) => pos as u16,
        };
    }
    Ok(duplicates)
}

/// The entry contract every load enforces.
#[inline]
fn check(key: &[u8], tid: u64) {
    assert!(key.len() <= MAX_KEY_LEN, "key longer than MAX_KEY_LEN");
    assert!(tid <= MAX_TID, "tid exceeds MAX_TID");
}

/// Bit `pos` of `key` under the zero-padding convention.
#[inline]
fn key_bit(key: &[u8], pos: usize) -> u8 {
    let byte = pos / 8;
    if byte >= key.len() {
        0
    } else {
        (key[byte] >> (7 - pos % 8)) & 1
    }
}

/// Sentinel child index marking an entry leaf (a range of one key).
pub(crate) const ENTRY: u32 = u32::MAX;

/// The sorted key set's binary Patricia trie, as the min-Cartesian tree
/// over the boundary array, plus the height-packing DP.
/// BiNode `j` is boundary `j` (it separates entries `j` and `j + 1`);
/// `left[j]`/`right[j]` are child boundary indices or [`ENTRY`].
pub(crate) struct Shape {
    left: Vec<u32>,
    right: Vec<u32>,
    /// `h[j]` = minimum packing height of the subtrie rooted at BiNode `j`:
    /// the smallest `h` such that the subtrie splits into ≤ 32 parts each
    /// packable into height `h - 1`. A node height, so a `u8` as in the
    /// node header.
    h: Vec<u8>,
    /// Global Patricia root (the unique minimum boundary).
    pub(crate) root: usize,
}

/// One `O(n)` pass: build the min-Cartesian tree with a monotonic stack,
/// and solve the packing DP for each BiNode as it leaves the stack — both
/// of its subtries are final by then:
/// `W(j, h) = (h_left ≤ h-1 ? 1 : W(left, h)) + (h_right ≤ h-1 ? 1 : W(right, h))`,
/// `h[j] = min h with W(j, h) ≤ 32`. Since `W` only ever has to be
/// evaluated at `h = max(h_left, h_right, 1)` (anything larger is trivially
/// 2), each node needs just its own `(h, W(h))` pair.
pub(crate) fn analyze(bounds: &[u16]) -> Shape {
    let m = bounds.len();
    debug_assert!(m >= 1);
    assert!(m < ENTRY as usize, "bulk load of more than 2^32 - 1 keys");
    let mut left = vec![ENTRY; m];
    let mut right = vec![ENTRY; m];
    let mut h = vec![0u8; m];
    // `w[j]` = part count of `j`'s forced-split set at its own minimum
    // height `h[j]`.
    let mut w = vec![0u8; m];
    let mut stack: Vec<u32> = Vec::new();
    for j in 0..m {
        let mut last = ENTRY;
        while let Some(&top) = stack.last() {
            // Strict `>`: the minimum over any contiguous range is unique,
            // so equal positions always belong to disjoint subtries.
            if bounds[top as usize] <= bounds[j] {
                break;
            }
            stack.pop();
            // Everything above `top` has left the stack: its right subtrie
            // is final, as its left one has been since it was pushed.
            pack(top as usize, &left, &right, &mut h, &mut w);
            last = top;
        }
        left[j] = last;
        if let Some(&top) = stack.last() {
            right[top as usize] = j as u32;
        }
        stack.push(j as u32);
    }
    let root = stack[0] as usize;
    // The right spine, from its bottom end up to the root.
    while let Some(top) = stack.pop() {
        pack(top as usize, &left, &right, &mut h, &mut w);
    }
    Shape { left, right, h, root }
}

/// Solve BiNode `j`'s `(h, w)` from its children's.
#[inline]
fn pack(j: usize, left: &[u32], right: &[u32], h: &mut [u8], w: &mut [u8]) {
    let side = |c: u32| if c == ENTRY { (0u8, 1u8) } else { (h[c as usize], w[c as usize]) };
    let (hl, wl) = side(left[j]);
    let (hr, wr) = side(right[j]);
    let hh = hl.max(hr).max(1);
    // Parts contributed per side: 1 if the whole side packs a level below,
    // else the side's own forced-split set flattens in.
    let ww = (if hl < hh { 1 } else { wl }) + (if hr < hh { 1 } else { wr });
    (h[j], w[j]) = if ww as usize <= MAX_FANOUT {
        (hh, ww)
    } else {
        // The 32-way fan-out is exhausted at `hh`; one level up both sides
        // pack whole.
        (hh + 1, 2)
    };
}

/// One part of a compound node's fragment: the inclusive entry range
/// `lo..=hi` plus its Patricia root BiNode (`ENTRY` for a single key).
#[derive(Clone, Copy, Default)]
pub(crate) struct Part {
    pub(crate) lo: usize,
    pub(crate) hi: usize,
    pub(crate) root: u32,
}

/// A compound node's parts, in entry order.
type Parts = [Part; MAX_FANOUT];

/// Collect the forced-split part set for the compound node packing BiNode
/// `j`'s subtrie (entry range `lo..=hi`) into `parts`, and return its
/// size: descend the Patricia trie from `j`, stopping at every side that
/// packs into height `h[j] - 1`. By the [`analyze`] DP this yields `2..=32`
/// parts, in entry order, and is the unique minimal partition achieving
/// the minimal height.
pub(crate) fn partition_node(shape: &Shape, j: usize, lo: usize, hi: usize, parts: &mut Parts) -> usize {
    let mut count = 0;
    descend(shape, j, lo, hi, shape.h[j] - 1, parts, &mut count);
    count
}

fn descend(shape: &Shape, j: usize, lo: usize, hi: usize, target: u8, parts: &mut Parts, count: &mut usize) {
    // Left side covers entries `lo..=j`, right side `j + 1..=hi`.
    let sides = [(shape.left[j], lo, j), (shape.right[j], j + 1, hi)];
    for (c, slo, shi) in sides {
        if c == ENTRY || shape.h[c as usize] <= target {
            debug_assert!(c != ENTRY || slo == shi);
            parts[*count] = Part { lo: slo, hi: shi, root: c };
            *count += 1;
        } else {
            descend(shape, c as usize, slo, shi, target, parts, count);
        }
    }
}

/// The fences of a compound node over `parts`: the boundary between each
/// part and the next.
fn fences_of(bounds: &[u16], parts: &[Part]) -> [u16; MAX_FANOUT] {
    let mut fences = [0u16; MAX_FANOUT];
    for (fence, p) in fences.iter_mut().zip(&parts[..parts.len() - 1]) {
        *fence = bounds[p.hi];
    }
    fences
}

/// Build the subtrie for `part`, bottom-up, over the leaf words `leaves`,
/// encoding through `builder`. Every compound node is encoded exactly once,
/// at exactly its DP-minimal height. On `Err` the nodes built below `part`
/// have been given back.
pub(crate) fn build_part<St: NodeStore>(
    store: &St,
    leaves: &[u64],
    bounds: &[u16],
    shape: &Shape,
    part: Part,
    builder: &mut Builder,
) -> Result<St::Ref, St::Full> {
    if part.root == ENTRY {
        return Ok(St::Ref::from_word(leaves[part.lo]));
    }
    let mut parts = [Part::default(); MAX_FANOUT];
    let count = partition_node(shape, part.root as usize, part.lo, part.hi, &mut parts);
    let mut values = [0u64; MAX_FANOUT];
    let mut built = 0;
    let children = parts[..count].iter().try_for_each(|&p| {
        values[built] = build_part(store, leaves, bounds, shape, p, builder)?.word();
        built += 1;
        Ok(())
    });
    let fences = fences_of(bounds, &parts[..count]);
    graft(store, &fences[..count - 1], &values[..built], children, builder)
}

/// Encode the node over the subtries `values`, separated by `fences` — or,
/// when building one of them (`children`) or this node fails, give back
/// the ones that were built.
fn graft<St: NodeStore>(
    store: &St,
    fences: &[u16],
    values: &[u64],
    children: Result<(), St::Full>,
    builder: &mut Builder,
) -> Result<St::Ref, St::Full> {
    children
        .and_then(|()| {
            builder.fill_from_fragment(fences, values, |w| height_of(store, w));
            crate::node::encode(store, builder)
        })
        .inspect_err(|_| values.iter().for_each(|&root| discard(store, root)))
}

/// Give back the compound nodes of the never-published subtrie under
/// `root` (a leaf, or null, has none; the leaves are [`load`]'s to drop).
fn discard<St: NodeStore>(store: &St, root: u64) {
    let root = St::Ref::from_word(root);
    if root.is_node() {
        let raw = store.raw(root);
        for i in 0..raw.count() {
            discard(store, St::Slot::get(raw, i).word());
        }
        // SAFETY: never published — the build is the node's sole owner, and
        // its children were given back just above.
        unsafe { crate::node::free(store, root) };
    }
}

/// Below this size the fan-out/join overhead outweighs parallel building.
const PARALLEL_MIN: usize = 4096;

/// Build the whole trie over `leaves` (`leaves.len() >= 2`), constructing
/// the root fragment's subtries on up to `threads` threads (the calling
/// thread among them) and grafting them under a root node built from the
/// partition fences.
fn build_tree<St: NodeStore>(
    store: &St,
    leaves: &[u64],
    bounds: &[u16],
    threads: usize,
) -> Result<St::Ref, St::Full> {
    let n = leaves.len();
    debug_assert!(n >= 2);
    let shape = analyze(bounds);
    let whole = Part { lo: 0, hi: n - 1, root: shape.root as u32 };
    let mut builder = Builder::empty();
    if threads <= 1 || n < PARALLEL_MIN {
        return build_part(store, leaves, bounds, &shape, whole, &mut builder);
    }
    let mut parts = [Part::default(); MAX_FANOUT];
    let count = partition_node(&shape, shape.root, 0, n - 1, &mut parts);
    let parts = &parts[..count];
    // Largest-first assignment of the ≤ 32 independent subtries onto the
    // threads: sort by width, then always hand the next subtrie to the
    // least-loaded bin. Every bin gets at least one.
    let mut order: [usize; MAX_FANOUT] = std::array::from_fn(|i| i);
    order[..count].sort_by_key(|&i| std::cmp::Reverse(parts[i].hi - parts[i].lo));
    let bins = threads.min(count);
    let mut bin_of = [0usize; MAX_FANOUT];
    let mut load = [0usize; MAX_FANOUT];
    for &pi in &order[..count] {
        let bin = (0..bins).min_by_key(|&b| load[b]).expect("bins >= 1");
        load[bin] += parts[pi].hi - parts[pi].lo + 1;
        bin_of[pi] = bin;
    }
    // One bin's subtries, through one builder; a subtrie that was not
    // built stays the null word.
    let (shape, bin_of) = (&shape, &bin_of);
    let run = move |bin: usize, builder: &mut Builder| {
        let mut words = [St::Ref::NULL.word(); MAX_FANOUT];
        let all = (0..count).filter(|&pi| bin_of[pi] == bin).try_for_each(|pi| {
            words[pi] = build_part(store, leaves, bounds, shape, parts[pi], builder)?.word();
            Ok(())
        });
        (words, all)
    };
    let (values, children) = std::thread::scope(|scope| {
        let others: Vec<_> = (1..bins)
            .map(|bin| scope.spawn(move || run(bin, &mut Builder::empty())))
            .collect();
        let (mut values, mut children) = run(0, &mut builder);
        for (bin, other) in (1..).zip(others) {
            let (words, all) = other.join().unwrap_or_else(|payload| resume_unwind(payload));
            for pi in (0..count).filter(|&pi| bin_of[pi] == bin) {
                values[pi] = words[pi];
            }
            children = children.and(all);
        }
        (values, children)
    });
    let fences = fences_of(bounds, parts);
    graft(store, &fences[..count - 1], &values[..count], children, &mut builder)
}

/// The whole load, shared by every front-end: validate `entries`, tell the
/// store how many keys are coming ([`NodeStore::prepare_load`]), have the
/// store make the surviving leaves in key order, build the nodes bottom-up
/// on as many threads as `workers` and the store allow, and hand the root
/// (null for no entries) to `publish` — the caller's one root store, which
/// reports whether the tree took it. Returns the number of distinct keys.
/// Unsorted input fails before the store is touched; when the store fills
/// up mid-build, or `publish` finds the tree no longer empty
/// ([`BulkLoadError::NotEmpty`]), everything built is given back.
pub(crate) fn load<St: NodeStore, K: AsRef<[u8]> + Sync>(
    store: &St,
    entries: &[(K, u64)],
    workers: Workers,
    publish: impl FnOnce(St::Ref) -> bool,
) -> Result<usize, BulkLoadError> {
    let threads = match workers {
        Workers::Available => std::thread::available_parallelism().map_or(1, |n| n.get()),
        Workers::UpTo(threads) => threads,
    };
    let prepared = prepare(entries, threads, SCAN_SPAWN_MIN)?;
    let distinct = prepared.distinct;
    let owned = store.prepare_load(distinct);
    // On the general allocator, nodes built on other threads would stay in
    // their per-thread malloc arenas for the index's lifetime (§11.4).
    let threads = match workers {
        Workers::Available if !owned => 1,
        _ => threads,
    };
    let mut leaves: Vec<u64> = Vec::with_capacity(distinct);
    let build = || {
        for (i, (key, tid)) in entries.iter().enumerate() {
            if prepared.survives(i) {
                leaves.push(store.new_leaf(key.as_ref(), *tid)?.word());
            }
        }
        match leaves.len() {
            0 => Ok(St::Ref::NULL),
            1 => Ok(St::Ref::from_word(leaves[0])),
            _ => build_tree(store, &leaves, &prepared.into_bounds(), threads),
        }
    };
    let outcome = match build() {
        Ok(root) if publish(root) => return Ok(distinct),
        Ok(root) => {
            discard(store, root.word());
            BulkLoadError::NotEmpty
        }
        Err(full) => full.into(),
    };
    for leaf in leaves {
        store.drop_leaf(St::Ref::from_word(leaf));
    }
    Err(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(keys: &[u64]) -> Vec<([u8; 8], u64)> {
        keys.iter().map(|&k| (hot_keys::encode_u64(k), k)).collect()
    }

    /// The surviving entries and the boundary array of a prepared input.
    fn winners_and_bounds(p: Prepared, n: usize) -> (Vec<usize>, Vec<u16>) {
        let winners = (0..n).filter(|&i| p.survives(i)).collect();
        (winners, p.into_bounds())
    }

    /// The serial scan `prepare` replaced, kept as the reference.
    fn prepare_serial<K: AsRef<[u8]>>(entries: &[(K, u64)]) -> Result<(Vec<usize>, Vec<u16>), BulkLoadError> {
        let mut winners: Vec<usize> = Vec::with_capacity(entries.len());
        let mut bounds: Vec<u16> = Vec::new();
        let mut prev: Option<&[u8]> = None;
        for (index, (key, tid)) in entries.iter().enumerate() {
            let key = key.as_ref();
            assert!(key.len() <= MAX_KEY_LEN, "key longer than MAX_KEY_LEN");
            assert!(*tid <= MAX_TID, "tid exceeds MAX_TID");
            if let Some(p) = prev {
                match hot_bits::first_mismatch_bit(p, key) {
                    None => {
                        *winners.last_mut().expect("prev implies an entry") = index;
                        continue;
                    }
                    Some(pos) if key_bit(p, pos) != 0 => return Err(BulkLoadError::Unsorted { index }),
                    Some(pos) => bounds.push(pos as u16),
                }
            }
            prev = Some(key);
            winners.push(index);
        }
        Ok((winners, bounds))
    }

    /// The post-order packing DP `analyze` replaced, kept as the
    /// reference: `(left, right, h, root)` over the same Cartesian tree.
    fn analyze_post_order(bounds: &[u16]) -> (Vec<usize>, Vec<usize>, Vec<u32>, usize) {
        const LEAF: usize = usize::MAX;
        let m = bounds.len();
        let mut left = vec![LEAF; m];
        let mut right = vec![LEAF; m];
        let mut stack: Vec<usize> = Vec::new();
        for j in 0..m {
            let mut last = LEAF;
            while let Some(&top) = stack.last() {
                if bounds[top] > bounds[j] {
                    last = stack.pop().expect("non-empty");
                } else {
                    break;
                }
            }
            left[j] = last;
            if let Some(&top) = stack.last() {
                right[top] = j;
            }
            stack.push(j);
        }
        let root = stack[0];
        let mut h = vec![0u32; m];
        let mut w = vec![0u32; m];
        let mut todo: Vec<(usize, bool)> = vec![(root, false)];
        while let Some((j, ready)) = todo.pop() {
            if !ready {
                todo.push((j, true));
                if left[j] != LEAF {
                    todo.push((left[j], false));
                }
                if right[j] != LEAF {
                    todo.push((right[j], false));
                }
                continue;
            }
            let side = |c: usize| if c == LEAF { (0u32, 1u32) } else { (h[c], w[c]) };
            let (hl, wl) = side(left[j]);
            let (hr, wr) = side(right[j]);
            let hh = hl.max(hr).max(1);
            let ww = (if hl < hh { 1 } else { wl }) + (if hr < hh { 1 } else { wr });
            (h[j], w[j]) = if ww as usize <= MAX_FANOUT { (hh, ww) } else { (hh + 1, 2) };
        }
        (left, right, h, root)
    }

    /// xorshift64: deterministic test randomness.
    fn rng(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed | 1;
        move |m| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        }
    }

    #[test]
    fn prepare_computes_boundaries() {
        let p = prepare(&pairs(&[1, 2, 3]), 1, 1).unwrap();
        // 1→2 first differ at bit 62 (…01 vs …10), 2→3 at bit 63.
        assert_eq!(winners_and_bounds(p, 3), (vec![0, 1, 2], vec![62, 63]));
    }

    #[test]
    fn prepare_rejects_unsorted() {
        assert_eq!(
            prepare(&pairs(&[1, 3, 2]), 1, 1).unwrap_err(),
            BulkLoadError::Unsorted { index: 2 }
        );
        assert_eq!(
            prepare(&pairs(&[5, 1]), 1, 1).unwrap_err(),
            BulkLoadError::Unsorted { index: 1 }
        );
    }

    #[test]
    fn prepare_last_write_wins_on_duplicates() {
        let entries: Vec<([u8; 8], u64)> = vec![
            (hot_keys::encode_u64(7), 70),
            (hot_keys::encode_u64(9), 90),
            (hot_keys::encode_u64(9), 91),
            (hot_keys::encode_u64(9), 92),
            (hot_keys::encode_u64(12), 120),
        ];
        let p = prepare(&entries, 1, 1).unwrap();
        assert_eq!(p.distinct, 3);
        let (winners, bounds) = winners_and_bounds(p, entries.len());
        assert_eq!(winners, vec![0, 3, 4]);
        assert_eq!(bounds.len(), 2);
    }

    #[test]
    fn prepare_empty_and_singleton() {
        let p = prepare::<[u8; 8]>(&[], 4, 1).unwrap();
        assert_eq!(p.distinct, 0);
        assert!(p.into_bounds().is_empty());
        let p = prepare(&pairs(&[42]), 4, 1).unwrap();
        assert_eq!(winners_and_bounds(p, 1), (vec![0], vec![]));
    }

    /// Sorted random keys from a small universe, so that duplicate runs
    /// are common and some straddle every seam.
    fn sorted_with_duplicates(n: usize, seed: u64) -> Vec<([u8; 8], u64)> {
        let mut next = rng(seed);
        let mut keys: Vec<u64> = (0..n).map(|_| next(n as u64 / 3 + 1)).collect();
        keys.sort_unstable();
        keys.iter().enumerate().map(|(i, &k)| (hot_keys::encode_u64(k), i as u64)).collect()
    }

    /// `n`, or a Miri-sized share of it.
    fn sized(n: usize) -> usize {
        if cfg!(miri) { n / 20 } else { n }
    }

    #[test]
    fn parallel_scan_equals_the_serial_one() {
        for (n, seed) in [(2usize, 1u64), (3, 2), (40, 3), (sized(1_000), 4), (sized(4_099), 5)] {
            let mut entries = sorted_with_duplicates(n, seed);
            // A duplicate run across every seam of every worker count.
            for i in (0..n).step_by(7).skip(1) {
                entries[i].0 = entries[i - 1].0;
            }
            let want = prepare_serial(&entries).unwrap();
            for threads in [1, 2, 3, 7] {
                let got = prepare(&entries, threads, 1).unwrap();
                assert_eq!(got.distinct, want.0.len(), "n={n} threads={threads}");
                assert_eq!(winners_and_bounds(got, n), want, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_scan_reports_the_lowest_unsorted_entry() {
        let sorted = sorted_with_duplicates(sized(2_000), 9);
        let mut next = rng(10);
        for round in 0..sized(40) {
            let mut entries = sorted.clone();
            // Several out-of-order positions, anywhere.
            for _ in 0..1 + round % 4 {
                let at = 1 + next(entries.len() as u64 - 1) as usize;
                entries[at].0 = hot_keys::encode_u64(0);
            }
            let want = prepare_serial(&entries).map(|_| ()).unwrap_err();
            for threads in [1, 2, 3, 7] {
                let got = prepare(&entries, threads, 1).map(|_| ()).unwrap_err();
                assert_eq!(got, want, "round {round} threads={threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "key longer than MAX_KEY_LEN")]
    fn a_long_key_panics_with_its_message_on_a_worker() {
        let mut keys: Vec<Vec<u8>> = (0..100u64).map(|k| hot_keys::encode_u64(k).to_vec()).collect();
        // In the last of three ranges: a spawned worker's, not the caller's.
        keys[90] = vec![0xFF; MAX_KEY_LEN + 1];
        let entries: Vec<(&[u8], u64)> = keys.iter().zip(0..).map(|(k, t)| (k.as_slice(), t)).collect();
        let _ = prepare(&entries, 3, 1);
    }

    #[test]
    fn one_pass_dp_equals_the_post_order_dp() {
        let mut next = rng(11);
        for round in 0..sized(200) {
            let m = 1 + next(sized(3_000) as u64) as usize;
            let alphabet = 1 + next(64);
            let mut bounds = Vec::with_capacity(m);
            while bounds.len() < m {
                // Plateaus and long equal runs, as well as single values.
                let run = if next(4) == 0 { 1 + next(300) } else { 1 } as usize;
                let value = next(alphabet) as u16;
                bounds.extend(std::iter::repeat_n(value, run.min(m - bounds.len())));
            }
            let shape = analyze(&bounds);
            let (left, right, h, root) = analyze_post_order(&bounds);
            assert_eq!(shape.root, root, "round {round}");
            let widen = |c: &u32| if *c == ENTRY { usize::MAX } else { *c as usize };
            assert_eq!(shape.left.iter().map(widen).collect::<Vec<_>>(), left, "round {round}");
            assert_eq!(shape.right.iter().map(widen).collect::<Vec<_>>(), right, "round {round}");
            assert_eq!(shape.h.iter().map(|&x| u32::from(x)).collect::<Vec<_>>(), h, "round {round}");
        }
    }

    #[test]
    fn partition_covers_range_contiguously() {
        // 64 entries: parts must partition 0..=63 into 2..=32 contiguous runs.
        let keys: Vec<u64> = (0..64).collect();
        let bounds = prepare(&pairs(&keys), 1, 1).unwrap().into_bounds();
        let shape = analyze(&bounds);
        let mut parts = [Part::default(); MAX_FANOUT];
        let count = partition_node(&shape, shape.root, 0, 63, &mut parts);
        let parts = &parts[..count];
        assert!(parts.len() >= 2 && parts.len() <= MAX_FANOUT);
        assert_eq!(parts.first().unwrap().lo, 0);
        assert_eq!(parts.last().unwrap().hi, 63);
        for w in parts.windows(2) {
            assert_eq!(w[0].hi + 1, w[1].lo, "contiguous parts");
        }
        // Dense consecutive integers branch perfectly: the DP packs two
        // full 32-leaf halves under a height-2 root.
        assert_eq!(shape.h[shape.root], 2);
        assert_eq!(parts.len(), 2);
        assert_eq!((parts[0].lo, parts[0].hi), (0, 31));
        assert_eq!((parts[1].lo, parts[1].hi), (32, 63));
    }

    #[test]
    fn analyze_packs_small_sets_into_one_node() {
        // Any <= 32-key set packs into a single height-1 node.
        for n in [2usize, 3, 17, 32] {
            let keys: Vec<u64> = (0..n as u64).map(|i| i * 977).collect();
            let bounds = prepare(&pairs(&keys), 1, 1).unwrap().into_bounds();
            let shape = analyze(&bounds);
            assert_eq!(shape.h[shape.root], 1, "n={n}");
            let mut parts = [Part::default(); MAX_FANOUT];
            let count = partition_node(&shape, shape.root, 0, n - 1, &mut parts);
            assert_eq!(count, n, "n={n}: every part is a single entry");
            assert!(parts[..count].iter().all(|p| p.root == ENTRY));
        }
    }
}
