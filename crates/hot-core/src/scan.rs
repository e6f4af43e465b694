//! Allocation-free, prefetch-pipelined range scans (workload E fast path).
//!
//! epoch-exempt: shared descent core. Its callers, the read face of
//! [`Hot`](crate::trie::Hot) and the sharded router, take the access mode's
//! pin (an epoch guard in the ROWEX mode, nothing in the exclusive one)
//! *before* loading the root and calling in here. Protection is the caller's
//! contract — these routines only borrow already-protected nodes.
//!
//! A YCSB-E scan is `range_from(start).take(len)`: seek to the first entry
//! `>= start`, then walk leaves in order. Done naively that costs, per
//! operation, a fresh frame-stack `Vec`, a fresh output `Vec`, a 264-byte
//! padded-key zeroing — and one *dependent* cache miss per visited node,
//! because the in-order walk only discovers a subtree's address one hop
//! before it needs it.
//!
//! `ScanCursor` fixes this. It owns the seek/traversal state (padded
//! start key, descent path, frame stack) and is parked per thread between
//! calls — [`scan_into`](crate::HotTrie::scan_into) touches the heap only
//! when a buffer has to grow, so repeated scans are allocation-free
//! steady-state.
//! During the drain it prefetches a subtree's node *before* descending
//! into it and the **next sibling subtree's header** at the same moment,
//! so the sibling's miss overlaps the entire walk of the current subtree
//! instead of serializing behind it (the inter-node analogue of the
//! Section 4.5 intra-node prefetch).
//!
//! Many scans per call (`scan_batch`) go through the batched descent
//! engine ([`crate::mlp`]): their *seek descents* share its lane ring with
//! point lookups, and each completed seek is positioned and drained with
//! the same [`position_frames`] / [`drain_frames`] the single-scan cursor
//! uses.
//!
//! Results are written into caller-owned buffers (`&mut Vec<u64>`); batched
//! results land flat in one TID vector with a bounds (prefix-offset) vector,
//! so a full batch costs zero allocations once the buffers warmed up.

use crate::node::{Slot, TreeRef};
use crate::store::NodeStore;
use hot_keys::PaddedKey;
use std::cell::Cell;

/// Cache lines prefetched per upcoming node — matches the point-lookup path
/// (Section 4.5: header + partial keys + values).
const PREFETCH_LINES: usize = 4;

/// Cache lines prefetched of the *next sibling* subtree's node while the
/// current subtree is walked. One line covers the header and the partial-key
/// section of every layout; the full node follows when the walk arrives.
const SIBLING_PREFETCH_LINES: usize = 1;

/// Reusable range-scan state: padded start key, descent path and in-order
/// frame stack. Path and frames hold widened reference words, so one
/// cursor serves tries of either back-end.
///
/// One cursor serves any number of sequential scans; everything it owns
/// is recycled, so steady-state scans allocate nothing. Creating one costs
/// a boxed key buffer plus two `Vec`s that grow on first use (a third of a
/// short scan), so [`scan_into`](crate::HotTrie::scan_into) parks one per
/// thread.
pub(crate) struct ScanCursor {
    /// Padded start key (boxed: moving the cursor must not copy 272 bytes).
    key: Box<PaddedKey>,
    /// Root-to-leaf descent path of the seek: (node, taken entry index).
    path: Vec<(u64, usize)>,
    /// In-order traversal stack: (node, next entry index).
    frames: Vec<(u64, usize)>,
}

impl Default for ScanCursor {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    /// The cursor behind `scan` / `scan_into`, parked here between calls.
    static THREAD_CURSOR: Cell<Option<ScanCursor>> = const { Cell::new(None) };
}

/// Run `f` with this thread's parked cursor (created on first use, or when
/// a call nests inside another one's key source on the same thread, or runs
/// during thread teardown).
pub(crate) fn with_thread_cursor<R>(f: impl FnOnce(&mut ScanCursor) -> R) -> R {
    let mut cursor = THREAD_CURSOR
        .try_with(Cell::take)
        .ok()
        .flatten()
        .unwrap_or_default();
    let result = f(&mut cursor);
    let _ = THREAD_CURSOR.try_with(|slot| slot.set(Some(cursor)));
    result
}

impl ScanCursor {
    /// A fresh cursor (buffers grow on first use).
    fn new() -> Self {
        ScanCursor {
            key: Box::new(PaddedKey::new()),
            path: Vec::new(),
            frames: Vec::new(),
        }
    }

    /// Run one scan against `root`, appending up to `limit` TIDs (keys
    /// `>= key`, ascending) to `out`.
    ///
    /// Accepts any root word (node, leaf, null) so every front-end shares
    /// the entry point. Appends — callers decide whether `out` accumulates
    /// (batching) or was cleared (single scan).
    pub(crate) fn scan_root<St: NodeStore>(
        &mut self,
        store: &St,
        root: St::Ref,
        key: &[u8],
        limit: usize,
        out: &mut Vec<u64>,
    ) {
        if limit == 0 || root.is_null() {
            return;
        }
        if root.is_leaf() {
            if leaf_in_range(store, root, key) {
                out.push(store.leaf_tid(root));
            }
            return;
        }

        // Seek: descend to the candidate leaf, recording the path.
        self.key.set(key);
        self.path.clear();
        let cur = crate::node::descend(store, root, &self.key, &mut self.path);
        let limit = limit.saturating_add(out.len());
        if let Some(hit) = position_frames(store, &self.key, &self.path, cur, &mut self.frames) {
            out.push(hit);
        }
        drain_frames(store, &mut self.frames, limit, out);
    }
}

/// Whether a scan from `key` includes `leaf` (the whole tree, for a
/// single-leaf root, which has no path to position on).
#[inline]
pub(crate) fn leaf_in_range<St: NodeStore>(store: &St, leaf: St::Ref, key: &[u8]) -> bool {
    store.leaf_key(leaf, &mut St::key_buf()) >= key
}

/// Turn a completed seek descent into an in-order frame stack positioned
/// behind the leaf storing exactly `key` — whose TID is returned and comes
/// first — or, without one, at the first entry `> key`.
///
/// `leaf` is the descent's terminal word: a leaf, or null when a slot was
/// observed mid-update on the concurrent index (treated as a mismatch above
/// everything, which resumes the scan at a defined position).
pub(crate) fn position_frames<St: NodeStore>(
    store: &St,
    key: &PaddedKey,
    path: &[(u64, usize)],
    leaf: St::Ref,
    frames: &mut Vec<(u64, usize)>,
) -> Option<u64> {
    frames.clear();
    let mismatch = if leaf.is_leaf() {
        let mut buf = St::key_buf();
        hot_bits::first_mismatch_bit(store.leaf_key(leaf, &mut buf), key.bytes())
    } else {
        Some(0)
    };
    let Some(pos) = mismatch else {
        // Exact hit: resume every ancestor after its taken entry and
        // yield the hit first.
        frames.extend(path.iter().map(|&(node, idx)| (node, idx + 1)));
        return Some(store.leaf_tid(leaf));
    };
    // Locate the node the mismatch splits (same rule as insert), then
    // start at the boundary of the affected entry run — found with one
    // SIMD prefix compare (`affected_range`), not a scalar narrowing walk.
    let raw = |word: u64| store.raw(St::Ref::from_word(word));
    let mut level = path.len() - 1;
    while level > 0 && raw(path[level].0).min_position() as usize > pos {
        level -= 1;
    }
    frames.extend(path[..level].iter().map(|&(node, idx)| (node, idx + 1)));
    let (target, idx) = path[level];
    let (lo, hi) = raw(target).affected_range(pos, idx);
    let start = if hot_bits::bit_at(key.bytes(), pos) == 0 {
        lo // the search key precedes the affected subtree
    } else {
        hi + 1 // the search key follows the affected subtree
    };
    frames.push((target, start));
    None
}

/// Drain an in-order frame stack until `out` holds `limit` TIDs or the
/// frames are exhausted, prefetching one subtree ahead.
pub(crate) fn drain_frames<St: NodeStore>(
    store: &St,
    frames: &mut Vec<(u64, usize)>,
    limit: usize,
    out: &mut Vec<u64>,
) {
    while out.len() < limit {
        let Some(frame) = frames.last_mut() else {
            break;
        };
        // The value section is located once per frame visit; the run of
        // leaves up to the next child subtree is read straight off it.
        let raw = store.raw(St::Ref::from_word(frame.0));
        let (count, values) = (raw.count(), St::Slot::values(raw));
        let mut child = St::Ref::NULL;
        while frame.1 < count && out.len() < limit && !child.is_node() {
            // SAFETY: slot `frame.1 < count` of a live node of this store.
            let value = unsafe { St::Slot::load(values, frame.1) };
            frame.1 += 1;
            if value.is_leaf() {
                out.push(store.leaf_tid(value));
            } else {
                // A child to walk — or a null slot (concurrent mid-update),
                // which is skipped: the entry's new value is published with
                // a single store the scan either sees or not, exactly the
                // paper's reader guarantee.
                child = value;
            }
        }
        if child.is_node() {
            // The subtree we are about to walk, plus the header of the
            // sibling that follows it: the sibling's miss resolves while
            // this whole subtree is traversed, instead of stalling the walk
            // when the frame advances.
            hot_bits::prefetch_node(store.raw(child).base, PREFETCH_LINES);
            if frame.1 < count {
                // SAFETY: slot `frame.1 < count` of a live node of this store.
                let sib = unsafe { St::Slot::load(values, frame.1) };
                if sib.is_node() {
                    hot_bits::prefetch_node(store.raw(sib).base, SIBLING_PREFETCH_LINES);
                }
            }
            frames.push((child.word(), 0));
        } else if frame.1 >= count {
            frames.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::HotTrie;
    use hot_keys::{encode_u64, EmbeddedKeySource};

    fn build(n: u64) -> HotTrie<EmbeddedKeySource> {
        let mut t = HotTrie::new(EmbeddedKeySource);
        for v in 0..n {
            t.insert(&encode_u64(v * 3), v * 3);
        }
        t
    }

    #[test]
    fn scan_into_matches_scan_across_reuse() {
        let t = build(5_000);
        let mut out = Vec::new();
        for start in [0u64, 1, 2, 3, 299, 14_996, 14_997, 15_000, u64::MAX] {
            for limit in [0usize, 1, 7, 100] {
                t.scan_into(&encode_u64(start), limit, &mut out);
                assert_eq!(
                    out,
                    t.scan(&encode_u64(start), limit),
                    "start={start} limit={limit}"
                );
            }
        }
    }

    #[test]
    fn scan_batch_matches_sequential_scans() {
        let t = build(4_000);
        let requests: Vec<([u8; 8], usize)> = (0..64u64)
            .map(|i| (encode_u64(i * 191), (i % 13) as usize))
            .collect();
        let mut tids = Vec::new();
        let mut bounds = Vec::new();
        t.scan_batch(&requests, &mut tids, &mut bounds);
        assert_eq!(bounds.len(), requests.len() + 1);
        for (i, (key, limit)) in requests.iter().enumerate() {
            assert_eq!(
                &tids[bounds[i]..bounds[i + 1]],
                t.scan(key, *limit).as_slice(),
                "request {i}"
            );
        }
    }

    #[test]
    fn scan_batch_on_empty_and_single_leaf_trees() {
        let requests = [(encode_u64(0), 5usize), (encode_u64(9), 5)];
        let (mut tids, mut bounds) = (Vec::new(), Vec::new());

        let t: HotTrie<EmbeddedKeySource> = HotTrie::new(EmbeddedKeySource);
        t.scan_batch(&requests, &mut tids, &mut bounds);
        assert_eq!(bounds, [0, 0, 0]);
        assert!(tids.is_empty());

        let mut t = HotTrie::new(EmbeddedKeySource);
        t.insert(&encode_u64(7), 7);
        t.scan_batch(&requests, &mut tids, &mut bounds);
        assert_eq!(tids, [7]);
        assert_eq!(bounds, [0, 1, 1]);
    }
}
