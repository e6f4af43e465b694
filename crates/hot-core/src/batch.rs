//! Memory-level-parallel batched lookups: software-pipelined descent.
//!
//! epoch-exempt: shared descent core. The concurrent wrappers in `sync.rs`
//! pin the epoch *before* loading roots and calling in here; the
//! single-threaded `HotTrie` needs no pin. Protection is the caller's
//! contract — these routines only borrow already-protected nodes.
//!
//! A single HOT lookup is a serial pointer chase — every compound-node hop
//! depends on the previous one, so the core can never have more than one
//! lookup-related cache miss in flight (the Section 4.5 prefetch hides the
//! *intra-node* latency of reading 4 lines, not the *inter-node* dependency).
//! DRAM-resident indexes leave most of the memory system idle this way: an
//! out-of-order core sustains ~10 outstanding misses (line-fill buffers),
//! a descent uses one.
//!
//! [`BatchCursor`] recovers that parallelism across *independent* lookups,
//! the way software-pipelined hash joins and the Cuckoo Trie do: take a
//! group of G keys, keep one descent state per key, and advance the group
//! round-robin — each round advances every in-flight key by exactly one
//! node, issues a prefetch for the key's *next* node, then moves on to the
//! other lanes. By the time a lane comes around again its node is (ideally)
//! already in cache, so G misses overlap instead of serializing.
//!
//! The trailing full-key verification (`KeySource::load_key` +
//! `first_mismatch_bit`, Listing 2 line 7) is pipelined the same way: each
//! lane prefetches its tuple's key record the moment its descent reaches a
//! leaf, and the actual comparisons run in a final pass over the group —
//! one more level of overlapped misses.
//!
//! Group size G trades overlap against cache/register pressure: G must not
//! exceed the machine's outstanding-miss budget, and G padded key buffers
//! (264 B each) must stay resident. G = 8 is the sweet spot on commodity
//! x86 (10–12 line-fill buffers); the `batch_ops` bench sweeps G ∈ {1, 2,
//! 4, 8, 16, 32} to verify. See DESIGN.md, "Memory-level parallelism and
//! batched descent".

use crate::node::{HeapSlot, NodeRef};
use hot_bits::{Isa, Kernel};
use hot_keys::{KeySource, PaddedKey, KEY_SCRATCH_LEN};

/// Default descent group size (number of lookups kept in flight).
pub const DEFAULT_GROUP: usize = 8;

/// Split `len` requests into contiguous runs for round-robin groups of at
/// most `group` items: every run is exactly `group` wide except the last
/// two, which split the remainder evenly.
///
/// Plain `chunks(group)` leaves the trailing remainder nearly empty
/// (`len % group` lanes in flight, the rest idle — 33 requests at G = 8
/// would run 8/8/8/8/1, ending on a near-serial descent). Balancing every
/// run instead (7/7/7/6/6) fixes the tail but thins the interleave of the
/// *whole* batch — a cost router-split shard slices pay on every group,
/// not just the last. So the depth concession is made once, at the tail:
/// 33 requests at G = 8 run 8/8/8/5/4, full-depth groups throughout with
/// the final two balanced so neither drops below ⌈G/2⌉ lanes. A slice of
/// `len < group` is a single `len`-deep run. Results are unaffected: runs
/// stay contiguous and in order.
pub(crate) fn balanced_chunks(
    len: usize,
    group: usize,
) -> impl Iterator<Item = std::ops::Range<usize>> {
    // `full` leading runs of exactly `group`, then a remainder in
    // `group + 1..2 * group` split into two balanced runs (or, when the
    // whole slice fits one group, a single run of `len`).
    let full = if len.is_multiple_of(group) {
        len / group
    } else {
        (len / group).saturating_sub(1)
    };
    let rem = len - full * group;
    let runs = full + usize::from(rem > 0) + usize::from(rem > group);
    let mut start = 0;
    (0..runs).map(move |run| {
        let size = if run < full {
            group
        } else if rem <= group {
            rem
        } else if run == full {
            rem.div_ceil(2)
        } else {
            rem / 2
        };
        let range = start..start + size;
        start += size;
        range
    })
}

/// Number of cache lines prefetched per upcoming node — matches the
/// point-lookup path (Section 4.5: header + partial keys + values).
const PREFETCH_LINES: usize = 4;

/// Reusable state machine interleaving up to G concurrent descents.
///
/// One cursor holds G padded-key buffers and G lane states; reusing it
/// across [`get_batch_with`](crate::HotTrie::get_batch_with) calls amortizes
/// both the allocation and the 264-byte zeroing of key buffers over entire
/// workloads. A cursor is cheap enough to create per batch when convenience
/// matters more ([`get_batch`](crate::HotTrie::get_batch) does exactly
/// that).
pub struct BatchCursor {
    group: usize,
    /// Reused padded search keys, one per lane.
    bufs: Vec<PaddedKey>,
    /// Current node (or terminal leaf/null word) per lane.
    lanes: Vec<NodeRef>,
    /// Worklist of lane indices still descending, compacted in place.
    active: Vec<usize>,
}

impl Default for BatchCursor {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchCursor {
    /// Cursor with the default group size ([`DEFAULT_GROUP`]).
    pub fn new() -> Self {
        Self::with_group(DEFAULT_GROUP)
    }

    /// Cursor keeping up to `group` lookups in flight (≥ 1).
    ///
    /// Buffers are allocated lazily on first use, so an unused cursor costs
    /// three empty `Vec`s.
    pub fn with_group(group: usize) -> Self {
        assert!(group >= 1, "group size must be at least 1");
        BatchCursor {
            group,
            bufs: Vec::new(),
            lanes: Vec::new(),
            active: Vec::new(),
        }
    }

    /// The configured group size.
    pub fn group(&self) -> usize {
        self.group
    }

    /// Resolve one group of at most `group` keys against `root`, writing
    /// one result per key into `out`.
    ///
    /// This is the pipelined core: descents advance round-robin, each hop
    /// prefetching the lane's next node (or, on reaching a leaf, the
    /// tuple's key record) before control moves to the other lanes.
    ///
    /// The group's one ISA dispatch: the descent below is compiled once
    /// per [`Kernel`].
    pub(crate) fn run_group<S, Q>(&mut self, root: NodeRef, source: &S, keys: &[Q], out: &mut [Option<u64>])
    where
        S: KeySource,
        Q: AsRef<[u8]>,
    {
        match hot_bits::features().isa() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the token proves detection found every enabled feature.
            Isa::Avx2(k) => unsafe { self.run_group_avx2(k, root, source, keys, out) },
            Isa::Portable(k) => self.run_group_on(k, root, source, keys, out),
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,bmi1,bmi2,lzcnt,popcnt")]
    fn run_group_avx2<S, Q>(
        &mut self,
        k: hot_bits::Avx2,
        root: NodeRef,
        source: &S,
        keys: &[Q],
        out: &mut [Option<u64>],
    ) where
        S: KeySource,
        Q: AsRef<[u8]>,
    {
        self.run_group_on(k, root, source, keys, out)
    }

    #[inline(always)]
    fn run_group_on<K, S, Q>(&mut self, k: K, root: NodeRef, source: &S, keys: &[Q], out: &mut [Option<u64>])
    where
        K: Kernel,
        S: KeySource,
        Q: AsRef<[u8]>,
    {
        let n = keys.len();
        debug_assert!(n <= self.group, "caller chunks batches by group size");
        debug_assert_eq!(n, out.len());
        while self.bufs.len() < n {
            self.bufs.push(PaddedKey::new());
        }
        self.lanes.clear();
        self.active.clear();

        // Load phase: stage every search key into its reused buffer and
        // point every lane at the root.
        for (lane, key) in keys.iter().enumerate() {
            self.bufs[lane].set(key.as_ref());
            self.lanes.push(root);
            if root.is_node() {
                self.active.push(lane);
            } else if root.is_leaf() {
                // Single-leaf tree: descent is already over; overlap the
                // tuple load with the remaining lanes' staging instead.
                source.prefetch_key(root.tid());
            }
        }

        // Descent phase: every pass over `active` advances each in-flight
        // lane exactly one node. Finished lanes are compacted out so later
        // rounds only touch live descents (tries are height-balanced, so
        // most lanes finish in the same round; stragglers keep pipelining
        // among themselves).
        let mut live = self.active.len();
        while live > 0 {
            let mut kept = 0;
            for slot in 0..live {
                let lane = self.active[slot];
                let raw = self.lanes[lane].as_raw();
                let (_, next) = raw.find_candidate::<K, HeapSlot>(k, self.bufs[lane].padded());
                self.lanes[lane] = next;
                if next.is_node() {
                    // The next hop's memory starts loading now; it is
                    // needed only after every other live lane has moved.
                    hot_bits::prefetch_node(next.as_raw().base, PREFETCH_LINES);
                    self.active[kept] = lane;
                    kept += 1;
                } else if next.is_leaf() {
                    source.prefetch_key(next.tid());
                }
            }
            live = kept;
        }

        // Verification phase (Listing 2 line 7, batched): by now every
        // lane's tuple key record has been prefetched, so the mandatory
        // full-key comparisons run back to back with their misses already
        // overlapped.
        for ((&end, buf), slot) in self.lanes.iter().zip(&self.bufs).zip(out.iter_mut()) {
            *slot = if end.is_leaf() {
                let tid = end.tid();
                let mut scratch = [0u8; KEY_SCRATCH_LEN];
                let stored = source.load_key(tid, &mut scratch);
                hot_bits::first_mismatch_bit(stored, buf.bytes())
                    .is_none()
                    .then_some(tid)
            } else {
                // Null: empty tree, or a slot observed mid-update on the
                // concurrent index — both mean "not present".
                None
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn batch_matches_scalar_on_hits_and_misses() {
        let t = build(10_000);
        // Probes straddle present (multiples of 3) and absent keys.
        let keys: Vec<[u8; 8]> = (0..1_000).map(encode_u64).collect();
        let mut out = vec![None; keys.len()];
        t.get_batch(&keys, &mut out);
        for (k, got) in keys.iter().zip(&out) {
            assert_eq!(*got, t.get(k));
        }
    }

    #[test]
    fn empty_and_tiny_batches() {
        let t = build(100);
        let empty: [&[u8]; 0] = [];
        let mut out: Vec<Option<u64>> = vec![];
        t.get_batch(&empty, &mut out);

        let one = [encode_u64(3)];
        let mut out = [None];
        t.get_batch(&one, &mut out);
        assert_eq!(out[0], Some(3));
    }

    #[test]
    fn empty_tree_and_single_leaf_tree() {
        let t: HotTrie<EmbeddedKeySource> = HotTrie::new(EmbeddedKeySource);
        let keys = [encode_u64(1), encode_u64(2)];
        let mut out = [Some(9), Some(9)];
        t.get_batch(&keys, &mut out);
        assert_eq!(out, [None, None]);

        let mut t = HotTrie::new(EmbeddedKeySource);
        t.insert(&encode_u64(7), 7);
        let keys = [encode_u64(7), encode_u64(8)];
        let mut out = [None, None];
        t.get_batch(&keys, &mut out);
        assert_eq!(out, [Some(7), None]);
    }

    #[test]
    #[should_panic(expected = "group size")]
    fn zero_group_rejected() {
        BatchCursor::with_group(0);
    }

    #[test]
    fn balanced_chunks_cover_len_and_never_exceed_group() {
        for len in 0..200usize {
            for group in 1..20usize {
                let mut covered = 0;
                let mut min_size = usize::MAX;
                let mut sizes = Vec::new();
                for range in super::balanced_chunks(len, group) {
                    assert_eq!(range.start, covered, "contiguous");
                    covered = range.end;
                    min_size = min_size.min(range.len());
                    sizes.push(range.len());
                }
                assert_eq!(covered, len, "covers every request");
                if len > 0 {
                    assert!(sizes.iter().all(|&s| s <= group), "len={len} group={group}");
                    // Full interleave depth everywhere but the final two
                    // runs, and no near-serial tail: the depth concession
                    // is made once, bounded by half a group.
                    assert!(
                        sizes.iter().rev().skip(2).all(|&s| s == group),
                        "only the last two runs shrink: len={len} group={group} sizes={sizes:?}"
                    );
                    assert!(
                        min_size >= group.div_ceil(2).min(len),
                        "tail keeps >= half depth: len={len} group={group} sizes={sizes:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn router_split_slices_keep_full_depth_groups() {
        // Regression: a shard slice just over a group multiple must not
        // thin every group's interleave. 2G + 1 requests at G = 8 used to
        // run 6/6/6 (depth lost on the whole slice); now the full-depth
        // group survives and only the tail balances.
        let sizes: Vec<usize> = super::balanced_chunks(17, 8).map(|r| r.len()).collect();
        assert_eq!(sizes, [8, 5, 4]);
        // A slice smaller than the tuned depth is one run clamped to the
        // slice length — never split into shallower refills.
        for len in 1..8usize {
            let runs: Vec<_> = super::balanced_chunks(len, 8).collect();
            assert_eq!(runs.len(), 1, "len={len}");
            assert_eq!(runs[0], 0..len, "len={len}");
        }
    }
}
