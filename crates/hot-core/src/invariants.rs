//! Whole-trie structural invariant checking.
//!
//! epoch-exempt: runs on a quiesced tree (or under `try_check_invariants`'s
//! best-effort contract) — nothing is retired while the walker holds nodes.
//!
//! [`check_tree`] walks every compound node of a (quiesced) HOT and
//! verifies the paper's structural claims end to end, extending the
//! per-node [`Builder::try_check_invariants`](crate::node::builder::Builder::try_check_invariants)
//! check to tree scope:
//!
//! * **Fanout bounds** — every node holds `2..=k` entries (`k = 32`);
//!   overflowed `k + 1` builders are transient and must never be
//!   materialized.
//! * **Sparse-partial-key discriminativity** — each node's linearization
//!   decodes to a well-formed binary Patricia trie (Section 3.2), and the
//!   layout-specific SIMD search maps every stored sparse key back to its
//!   own entry index.
//! * **Height bounds** — node heights strictly decrease towards the
//!   leaves, so the root's height bounds the trie height, and every node
//!   satisfies `height >= 1 + max(child heights)`. Exact equality is *not*
//!   required below the root: remove paths deliberately skip recomputing
//!   ancestor heights (a stale-high height is safe, merely conservative),
//!   so the walk reports the number of slack nodes instead of failing.
//! * **Partition ordering** — the in-order leaf sequence resolves (through
//!   the store: a `KeySource` look-up or an inline record) to strictly
//!   ascending keys, i.e. each BiNode's 0-side subtree precedes its 1-side
//!   subtree in key order.
//! * **Reachability** — the walk finds exactly `len` leaves, and every
//!   leaf's key is found again through the public lookup path (the
//!   discriminative-bit prefixes along its path really select it).
//! * **Quiescence** — every lock word reads zero: an `OBSOLETE` node
//!   reachable from the root means a writer published a retired node, a
//!   `LOCKED` one means the caller raced a writer (arena nodes never take
//!   the ROWEX lock, so any bit there is corruption).
//!
//! The checker returns `Err(description)` on the first violation instead
//! of panicking, so property tests can report it as a counterexample and
//! the `fig8_throughput --check` flag can fail with context. Every
//! front-end exposes it as `try_check_invariants` / `check_invariants`.
//! The cheaper structural summaries ([`depth_stats`], [`layout_census`],
//! [`structure_digest`]) walk the same way and live here too.

use crate::node::builder::Builder;
use crate::node::{Slot, TreeRef, MAX_FANOUT};
use crate::store::NodeStore;
use crate::sync::{LOCKED, OBSOLETE};
use crate::sync_shim::Ordering;
use hot_keys::DepthStats;

/// Summary statistics gathered by a successful whole-trie walk
/// ([`Hot::check_invariants`](crate::Hot::check_invariants)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvariantReport {
    /// Compound nodes visited.
    pub nodes: usize,
    /// Leaf entries visited (equals the index `len`).
    pub leaves: usize,
    /// Root node height (0 for empty or single-leaf tries).
    pub height: usize,
    /// Nodes whose height exceeds `1 + max(child heights)` — stale-high
    /// heights left behind by remove paths. Safe but worth watching: a
    /// growing slack count on an insert-only workload would be a bug.
    pub height_slack: usize,
    /// Total entry slots across all compound nodes (leaves + child
    /// pointers). `entries / nodes` is the average node fill out of
    /// `k = 32` — the bulk loader packs maximal nodes, so its fill should
    /// never trail the incremental build's.
    pub entries: usize,
    /// Live nodes per physical layout, indexed by `NodeTag as usize`
    /// (Single8 = 0 … Multi32x32 = 8): the observable footprint of the
    /// paper's two adaptivity dimensions.
    pub layout_census: [usize; 9],
    /// Leaf count per depth (compound nodes on the root-to-leaf path),
    /// clamped to the final slot. Depth 0 counts a single-leaf root.
    pub leaf_depths: [usize; MAX_DEPTH_SLOTS],
}

/// Number of tracked leaf-depth buckets in [`InvariantReport::leaf_depths`]
/// (deeper leaves are clamped into the last slot — a height beyond this
/// would itself be an invariant violation for any realistic key count).
pub(crate) const MAX_DEPTH_SLOTS: usize = 16;

impl InvariantReport {
    /// Average entries per compound node (0.0 for leafless tries); the
    /// maximum is `k = 32`.
    pub fn avg_fill(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.entries as f64 / self.nodes as f64
        }
    }
}

struct Walker<'s, St: NodeStore> {
    store: &'s St,
    prev_key: Option<Vec<u8>>,
    report: InvariantReport,
    leaves: Vec<St::Ref>,
}

impl<St: NodeStore> Walker<'_, St> {
    /// Check the subtree under `r`; returns its height (leaves are 0).
    fn walk(&mut self, r: St::Ref, depth: usize) -> Result<usize, String> {
        if r.is_null() {
            return Err(format!("null child reference at depth {depth}"));
        }
        if r.is_leaf() {
            let mut buf = St::key_buf();
            let key = self.store.leaf_key(r, &mut buf);
            if let Some(prev) = &self.prev_key {
                if prev.as_slice() >= key {
                    return Err(format!(
                        "partition ordering violated: leaf {r:?} at depth \
                         {depth} is not strictly greater than its in-order \
                         predecessor ({prev:?} >= {key:?})"
                    ));
                }
            }
            self.prev_key = Some(key.to_vec());
            self.leaves.push(r);
            self.report.leaves += 1;
            self.report.leaf_depths[depth.min(MAX_DEPTH_SLOTS - 1)] += 1;
            return Ok(0);
        }
        let raw = self.store.raw(r);
        let n = raw.count();
        let h = raw.height() as usize;
        let ctx = |what: &str| format!("node at depth {depth} (tag {:?}, n={n}, h={h}): {what}", raw.tag);
        if !(2..=MAX_FANOUT).contains(&n) {
            return Err(ctx("entry count outside 2..=32"));
        }
        if h < 1 {
            return Err(ctx("compound node with height 0"));
        }
        let lock = raw.lock_word().load(Ordering::Relaxed);
        if lock & OBSOLETE != 0 {
            return Err(ctx("reachable node is marked OBSOLETE"));
        }
        if lock & LOCKED != 0 {
            return Err(ctx("node lock word is LOCKED on a quiesced tree"));
        }
        if lock != 0 {
            return Err(ctx("node lock word is not zero"));
        }
        let mut builder = Builder::empty();
        builder.decode_into::<St::Slot>(raw);
        builder
            .try_check_invariants()
            .map_err(|e| ctx(&format!("linearization invalid: {e}")))?;
        // The SIMD search must map each stored sparse key to its own entry:
        // per-layout search and the decoded linearization agree.
        for i in 0..n {
            let found = raw.search(raw.sparse_key(i));
            if found != i {
                return Err(ctx(&format!(
                    "search(sparse_key({i})) returned {found}, not {i}"
                )));
            }
        }
        self.report.nodes += 1;
        self.report.entries += n;
        self.report.layout_census[raw.tag as usize] += 1;
        let mut max_child = 0usize;
        for i in 0..n {
            let ch = self.walk(St::Slot::get(raw, i), depth + 1)?;
            if ch >= h {
                return Err(ctx(&format!(
                    "entry {i}: child height {ch} >= node height {h}"
                )));
            }
            max_child = max_child.max(ch);
        }
        if h > 1 + max_child {
            self.report.height_slack += 1;
        }
        Ok(h)
    }
}

/// Walk the whole tree under `root`, verifying every structural invariant
/// (see the module docs for the list). `expected_len` is the index's
/// published length; `lookup` is the index's point-lookup, used to re-find
/// every stored key. Returns summary statistics on success and a
/// description of the first violation otherwise.
///
/// The tree must be quiesced: no concurrent writers (the walk reads slots
/// non-atomically with respect to the ROWEX protocol and expects all lock
/// words clear).
pub(crate) fn check_tree<St, F>(
    store: &St,
    root: St::Ref,
    expected_len: usize,
    lookup: F,
) -> Result<InvariantReport, String>
where
    St: NodeStore,
    F: Fn(&[u8]) -> Option<u64>,
{
    let mut w = Walker {
        store,
        prev_key: None,
        report: InvariantReport {
            nodes: 0,
            leaves: 0,
            height: 0,
            height_slack: 0,
            entries: 0,
            layout_census: [0; 9],
            leaf_depths: [0; MAX_DEPTH_SLOTS],
        },
        leaves: Vec::with_capacity(expected_len),
    };
    if root.is_null() {
        if expected_len != 0 {
            return Err(format!("empty root but len is {expected_len}"));
        }
        return Ok(w.report);
    }
    w.report.height = w.walk(root, 0)?;
    if w.report.leaves != expected_len {
        return Err(format!(
            "leaf count {} does not match len {expected_len}",
            w.report.leaves
        ));
    }
    // Every stored key must be found again through the lookup path: the
    // discriminative bits along each leaf's path actually select it.
    let mut buf = St::key_buf();
    for leaf in std::mem::take(&mut w.leaves) {
        let tid = store.leaf_tid(leaf);
        match lookup(store.leaf_key(leaf, &mut buf)) {
            Some(found) if found == tid => {}
            other => {
                return Err(format!(
                    "stored key for tid {tid} resolves to {other:?} through \
                     the lookup path"
                ));
            }
        }
    }
    Ok(w.report)
}

/// Leaf-depth histogram (depth = compound nodes on the root-to-leaf path),
/// as reported in Figure 11.
pub(crate) fn depth_stats<St: NodeStore>(store: &St, root: St::Ref) -> DepthStats {
    fn walk<St: NodeStore>(store: &St, r: St::Ref, depth: usize, stats: &mut DepthStats) {
        if r.is_leaf() {
            stats.record(depth);
        } else if r.is_node() {
            let raw = store.raw(r);
            for i in 0..raw.count() {
                walk(store, St::Slot::get(raw, i), depth + 1, stats);
            }
        }
    }
    let mut stats = DepthStats::new();
    walk(store, root, 0, &mut stats);
    stats
}

/// Count of live nodes per physical layout (indexed by `NodeTag as usize`).
pub(crate) fn layout_census<St: NodeStore>(store: &St, root: St::Ref) -> [usize; 9] {
    fn walk<St: NodeStore>(store: &St, r: St::Ref, census: &mut [usize; 9]) {
        if r.is_node() {
            let raw = store.raw(r);
            census[raw.tag as usize] += 1;
            for i in 0..raw.count() {
                walk(store, St::Slot::get(raw, i), census);
            }
        }
    }
    let mut census = [0usize; 9];
    walk(store, root, &mut census);
    census
}

/// A structural fingerprint: equal digests mean structurally identical
/// trees (layouts, positions, sparse keys, heights, leaf TID order) —
/// whatever the store, so heap ≡ arena equality is a digest comparison.
pub(crate) fn structure_digest<St: NodeStore>(store: &St, root: St::Ref) -> u64 {
    fn mix(h: u64, v: u64) -> u64 {
        (h ^ v).wrapping_mul(0x100_0000_01b3).rotate_left(17)
    }
    fn walk<St: NodeStore>(store: &St, r: St::Ref, mut h: u64) -> u64 {
        if r.is_leaf() {
            return mix(h, store.leaf_tid(r) ^ 0xAAAA_AAAA);
        }
        if r.is_null() {
            return mix(h, 0x5555);
        }
        let raw = store.raw(r);
        h = mix(h, raw.tag as u64);
        h = mix(h, raw.height() as u64);
        for p in raw.positions() {
            h = mix(h, p as u64);
        }
        for i in 0..raw.count() {
            h = mix(h, raw.sparse_key(i) as u64);
            h = walk(store, St::Slot::get(raw, i), h);
        }
        h
    }
    walk(store, root, 0xcbf2_9ce4_8422_2325)
}
