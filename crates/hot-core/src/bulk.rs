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
//!    alone determine every discriminative bit and sparse partial key.
//! 2. **Pack** — one bottom-up pass over the Patricia trie computes, for
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
//!    Patricia trie; [`Builder::from_fragment`] turns them into one compound
//!    node whose children are the recursively built parts. Each node is
//!    encoded exactly once — no intermediate COW churn — and heights are
//!    assigned bottom-up (`1 +` tallest child), so the result satisfies
//!    every `check_invariants()` height and ordering rule by construction.
//! 3. **Parallelize** — the root fragment's ≤ 32 parts are *partition
//!    fences*: independent contiguous subtries. `build_parallel` assigns
//!    them largest-first onto `std::thread` workers (the heap's general
//!    node allocator is thread-local, its chunks and the arenas take their
//!    store's lock per allocation, and [`MemCounter`](crate::MemCounter)
//!    counts atomically), then grafts the
//!    finished subtrie roots under a root node built from the fence
//!    positions — the same node the sequential pass would build.

use crate::arena::ArenaFull;
use crate::node::builder::Builder;
use crate::node::{Slot, TreeRef, MAX_FANOUT};
use crate::store::{height_of, NodeStore};
use hot_keys::{MAX_KEY_LEN, MAX_TID};

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

/// Validated, deduplicated bulk-load input: which entries survive plus the
/// boundary array. The keys themselves are not retained — construction
/// needs only the adjacent-pair mismatch positions, and the store makes
/// the leaves in a second pass, once the whole input is known to be sorted.
#[derive(Debug)]
pub(crate) struct Prepared {
    /// Indices into the input of the entries in key order, duplicates
    /// collapsed (last write wins).
    pub winners: Vec<usize>,
    /// `bounds[i]` = first mismatching bit between (deduplicated) keys `i`
    /// and `i + 1`; length `winners.len() - 1`.
    pub bounds: Vec<u16>,
}

/// One scan: verify ascending order, collapse duplicates (last write wins)
/// and record every adjacent-pair mismatch position.
pub(crate) fn prepare<K: AsRef<[u8]>>(entries: &[(K, u64)]) -> Result<Prepared, BulkLoadError> {
    let n = entries.len();
    let mut winners: Vec<usize> = Vec::with_capacity(n);
    let mut bounds: Vec<u16> = Vec::with_capacity(n.saturating_sub(1));
    let mut prev: Option<&[u8]> = None;
    for (index, (key, tid)) in entries.iter().enumerate() {
        let key = key.as_ref();
        assert!(key.len() <= MAX_KEY_LEN, "key longer than MAX_KEY_LEN");
        assert!(*tid <= MAX_TID, "tid exceeds MAX_TID");
        if let Some(p) = prev {
            match hot_bits::first_mismatch_bit(p, key) {
                None => {
                    // Same key bytes: last write wins, deterministically.
                    *winners.last_mut().expect("prev implies an entry") = index;
                    continue;
                }
                Some(pos) => {
                    // Sorted ascending iff the predecessor holds the 0 at
                    // the first mismatching bit (keys are zero-padded).
                    if key_bit(p, pos) != 0 {
                        return Err(BulkLoadError::Unsorted { index });
                    }
                    bounds.push(pos as u16);
                }
            }
        }
        prev = Some(key);
        winners.push(index);
    }
    Ok(Prepared { winners, bounds })
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
pub(crate) const ENTRY: usize = usize::MAX;

/// The sorted key set's binary Patricia trie, as the min-Cartesian tree
/// over the boundary array, plus the height-packing DP solved bottom-up.
/// BiNode `j` is boundary `j` (it separates entries `j` and `j + 1`);
/// `left[j]`/`right[j]` are child boundary indices or [`ENTRY`].
pub(crate) struct Shape {
    left: Vec<usize>,
    right: Vec<usize>,
    /// `h[j]` = minimum packing height of the subtrie rooted at BiNode `j`:
    /// the smallest `h` such that the subtrie splits into ≤ 32 parts each
    /// packable into height `h - 1`.
    h: Vec<u32>,
    /// Global Patricia root (the unique minimum boundary).
    pub(crate) root: usize,
}

/// One `O(n)` pass: build the min-Cartesian tree with a monotonic stack,
/// then solve the packing DP in post-order:
/// `W(j, h) = (h_left ≤ h-1 ? 1 : W(left, h)) + (h_right ≤ h-1 ? 1 : W(right, h))`,
/// `h[j] = min h with W(j, h) ≤ 32`. Since `W` only ever has to be
/// evaluated at `h = max(h_left, h_right, 1)` (anything larger is trivially
/// 2), each node needs just its own `(h, W(h))` pair.
pub(crate) fn analyze(bounds: &[u16]) -> Shape {
    let m = bounds.len();
    debug_assert!(m >= 1);
    let mut left = vec![ENTRY; m];
    let mut right = vec![ENTRY; m];
    let mut stack: Vec<usize> = Vec::new();
    for j in 0..m {
        let mut last = ENTRY;
        while let Some(&top) = stack.last() {
            // Strict `>`: the minimum over any contiguous range is unique,
            // so equal positions always belong to disjoint subtries.
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
    // Post-order DP. `w[j]` = part count of `j`'s forced-split set at its
    // own minimum height `h[j]`.
    let mut h = vec![0u32; m];
    let mut w = vec![0u32; m];
    let mut todo: Vec<(usize, bool)> = vec![(root, false)];
    while let Some((j, ready)) = todo.pop() {
        if !ready {
            todo.push((j, true));
            if left[j] != ENTRY {
                todo.push((left[j], false));
            }
            if right[j] != ENTRY {
                todo.push((right[j], false));
            }
            continue;
        }
        let side = |c: usize| if c == ENTRY { (0u32, 1u32) } else { (h[c], w[c]) };
        let (hl, wl) = side(left[j]);
        let (hr, wr) = side(right[j]);
        let hh = hl.max(hr).max(1);
        // Parts contributed per side: 1 if the whole side packs a level
        // below, else the side's own forced-split set flattens in.
        let ww = (if hl < hh { 1 } else { wl }) + (if hr < hh { 1 } else { wr });
        if ww as usize <= MAX_FANOUT {
            h[j] = hh;
            w[j] = ww;
        } else {
            // The 32-way fan-out is exhausted at `hh`; one level up both
            // sides pack whole.
            h[j] = hh + 1;
            w[j] = 2;
        }
    }
    Shape { left, right, h, root }
}

/// One part of a compound node's fragment: the inclusive entry range
/// `lo..=hi` plus its Patricia root BiNode (`ENTRY` for a single key).
#[derive(Clone, Copy)]
pub(crate) struct Part {
    pub(crate) lo: usize,
    pub(crate) hi: usize,
    pub(crate) root: usize,
}

/// Collect the forced-split part set for the compound node packing BiNode
/// `j`'s subtrie (entry range `lo..=hi`): descend the Patricia trie from
/// `j`, stopping at every side that packs into height `h[j] - 1`. By the
/// [`analyze`] DP this yields `2..=32` parts, in entry order, and is the
/// unique minimal partition achieving the minimal height.
pub(crate) fn partition_node(shape: &Shape, j: usize, lo: usize, hi: usize, parts: &mut Vec<Part>) {
    let target = shape.h[j] - 1;
    descend(shape, j, lo, hi, target, parts);
}

fn descend(shape: &Shape, j: usize, lo: usize, hi: usize, target: u32, parts: &mut Vec<Part>) {
    // Left side covers entries `lo..=j`, right side `j + 1..=hi`.
    let sides = [(shape.left[j], lo, j), (shape.right[j], j + 1, hi)];
    for (c, slo, shi) in sides {
        if c == ENTRY {
            debug_assert_eq!(slo, shi);
            parts.push(Part { lo: slo, hi: shi, root: ENTRY });
        } else if shape.h[c] <= target {
            parts.push(Part { lo: slo, hi: shi, root: c });
        } else {
            descend(shape, c, slo, shi, target, parts);
        }
    }
}

/// Build the subtrie for `part`, bottom-up, over the leaf words `leaves`.
/// Every compound node is encoded exactly once, at exactly its DP-minimal
/// height. On `Err` the nodes built below `part` have been given back.
pub(crate) fn build_part<St: NodeStore>(
    store: &St,
    leaves: &[u64],
    bounds: &[u16],
    shape: &Shape,
    part: Part,
) -> Result<St::Ref, St::Full> {
    if part.root == ENTRY {
        return Ok(St::Ref::from_word(leaves[part.lo]));
    }
    let mut parts = Vec::with_capacity(MAX_FANOUT);
    partition_node(shape, part.root, part.lo, part.hi, &mut parts);
    let fences: Vec<u16> = parts[..parts.len() - 1]
        .iter()
        .map(|p| bounds[p.hi])
        .collect();
    let mut values: Vec<u64> = Vec::with_capacity(parts.len());
    let children = parts
        .iter()
        .try_for_each(|&p| build_part(store, leaves, bounds, shape, p).map(|child| values.push(child.word())));
    graft(store, &fences, &values, children)
}

/// Encode the node over the subtries `values`, separated by `fences` — or,
/// when building one of them (`children`) or this node fails, give back
/// the ones that were built.
fn graft<St: NodeStore>(
    store: &St,
    fences: &[u16],
    values: &[u64],
    children: Result<(), St::Full>,
) -> Result<St::Ref, St::Full> {
    children
        .and_then(|()| store.encode(&Builder::from_fragment(fences, values, |w| height_of(store, w))))
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
        unsafe { store.retire(root) };
    }
}

/// Below this size the fan-out/join overhead outweighs parallel building.
const PARALLEL_MIN: usize = 4096;

/// Build the whole trie over `leaves` (`leaves.len() >= 2`), constructing
/// the root fragment's subtries on up to `threads` worker threads and
/// grafting them under a root node built from the partition fences.
fn build_parallel<St: NodeStore>(
    store: &St,
    leaves: &[u64],
    bounds: &[u16],
    threads: usize,
) -> Result<St::Ref, St::Full> {
    let n = leaves.len();
    debug_assert!(n >= 2);
    let shape = analyze(bounds);
    let whole = Part { lo: 0, hi: n - 1, root: shape.root };
    if threads <= 1 || n < PARALLEL_MIN {
        return build_part(store, leaves, bounds, &shape, whole);
    }
    let mut parts = Vec::with_capacity(MAX_FANOUT);
    partition_node(&shape, shape.root, 0, n - 1, &mut parts);
    let fences: Vec<u16> = parts[..parts.len() - 1]
        .iter()
        .map(|p| bounds[p.hi])
        .collect();
    // Largest-first assignment of the ≤ 32 independent subtries onto the
    // workers: sort by width, then always hand the next subtrie to the
    // least-loaded bin.
    let mut order: Vec<usize> = (0..parts.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(parts[i].hi - parts[i].lo));
    let bins = threads.min(parts.len());
    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); bins];
    let mut load = vec![0usize; bins];
    for pi in order {
        let bin = (0..bins).min_by_key(|&b| load[b]).expect("bins >= 1");
        load[bin] += parts[pi].hi - parts[pi].lo + 1;
        assignment[bin].push(pi);
    }
    // A subtrie that was not built stays the null word.
    let mut values = vec![St::Ref::NULL.word(); parts.len()];
    let mut children = Ok(());
    std::thread::scope(|scope| {
        let parts = &parts;
        let shape = &shape;
        let handles: Vec<_> = assignment
            .iter()
            .filter(|bin| !bin.is_empty())
            .map(|bin| {
                scope.spawn(move || {
                    let mut built = Vec::with_capacity(bin.len());
                    let all = bin.iter().try_for_each(|&pi| {
                        build_part(store, leaves, bounds, shape, parts[pi]).map(|child| built.push((pi, child.word())))
                    });
                    (built, all)
                })
            })
            .collect();
        for handle in handles {
            let (built, all) = handle.join().expect("bulk-load worker panicked");
            for (pi, word) in built {
                values[pi] = word;
            }
            if children.is_ok() {
                children = all;
            }
        }
    });
    graft(store, &fences, &values, children)
}

/// The whole load, shared by every front-end: validate `entries`, tell the
/// store how many keys are coming ([`NodeStore::prepare_load`]), have the
/// store make the surviving leaves in key order, build the nodes bottom-up
/// and hand the root (null for no entries) to `publish` — the caller's one
/// root store, which reports whether the tree took it. Returns the number
/// of distinct keys. Unsorted input fails before the store is touched; when
/// the store fills up mid-build, or `publish` finds the tree no longer
/// empty ([`BulkLoadError::NotEmpty`]), everything built is given back.
pub(crate) fn load<St: NodeStore, K: AsRef<[u8]>>(
    store: &St,
    entries: &[(K, u64)],
    threads: usize,
    publish: impl FnOnce(St::Ref) -> bool,
) -> Result<usize, BulkLoadError> {
    let Prepared { winners, bounds } = prepare(entries)?;
    store.prepare_load(winners.len());
    let mut leaves: Vec<u64> = Vec::with_capacity(winners.len());
    let mut build = || {
        for &i in &winners {
            let (key, tid) = &entries[i];
            leaves.push(store.new_leaf(key.as_ref(), *tid)?.word());
        }
        match leaves.len() {
            0 => Ok(St::Ref::NULL),
            1 => Ok(St::Ref::from_word(leaves[0])),
            _ => build_parallel(store, &leaves, &bounds, threads),
        }
    };
    let outcome = match build() {
        Ok(root) if publish(root) => return Ok(winners.len()),
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

    #[test]
    fn prepare_computes_boundaries() {
        let p = prepare(&pairs(&[1, 2, 3])).unwrap();
        assert_eq!(p.winners, vec![0, 1, 2]);
        // 1→2 first differ at bit 62 (…01 vs …10), 2→3 at bit 63.
        assert_eq!(p.bounds, vec![62, 63]);
    }

    #[test]
    fn prepare_rejects_unsorted() {
        assert_eq!(
            prepare(&pairs(&[1, 3, 2])).unwrap_err(),
            BulkLoadError::Unsorted { index: 2 }
        );
        assert_eq!(
            prepare(&pairs(&[5, 1])).unwrap_err(),
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
        let p = prepare(&entries).unwrap();
        assert_eq!(p.winners, vec![0, 3, 4]);
        assert_eq!(p.bounds.len(), 2);
    }

    #[test]
    fn prepare_empty_and_singleton() {
        let p = prepare::<[u8; 8]>(&[]).unwrap();
        assert!(p.winners.is_empty() && p.bounds.is_empty());
        let p = prepare(&pairs(&[42])).unwrap();
        assert_eq!(p.winners, vec![0]);
        assert!(p.bounds.is_empty());
    }

    #[test]
    fn partition_covers_range_contiguously() {
        // 64 entries: parts must partition 0..=63 into 2..=32 contiguous runs.
        let keys: Vec<u64> = (0..64).collect();
        let p = prepare(&pairs(&keys)).unwrap();
        let shape = analyze(&p.bounds);
        let mut parts = Vec::new();
        partition_node(&shape, shape.root, 0, 63, &mut parts);
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
            let p = prepare(&pairs(&keys)).unwrap();
            let shape = analyze(&p.bounds);
            assert_eq!(shape.h[shape.root], 1, "n={n}");
            let mut parts = Vec::new();
            partition_node(&shape, shape.root, 0, n - 1, &mut parts);
            assert_eq!(parts.len(), n, "n={n}: every part is a single entry");
            assert!(parts.iter().all(|p| p.root == ENTRY));
        }
    }
}
