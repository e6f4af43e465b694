//! The Height Optimized Trie (Sections 3 and 4), written once over a
//! [`NodeStore`]: the lookup, the one write path — [`plan`] decides what an
//! insert or remove does from the recorded descent path, [`apply`] carries
//! it out with a single publish — and the one front-end struct, [`Hot`],
//! whose read face is written here once for both of its access modes.
//!
//! A [`Hot`] is generic over its store and over how it is accessed. [`Trie`]
//! is the exclusive mode: a write takes `&mut self`, runs `plan` and `apply`
//! back to back and frees what it unlinked at once, so a read needs no pin.
//! [`Concurrent`](crate::sync::Concurrent) is the ROWEX mode of Section 5:
//! its writes take `&self` and put lock, validate, unlock and the epoch
//! around the same two functions (`sync.rs`), and its reads pin the epoch.
//! Every live read here reaches the root through `Hot::pinned_root`, which
//! returns the root together with the mode's pin, so no read body can skip
//! it; the diagnostics (digest, census, depth, height, invariant walk)
//! read a quiesced tree. The ordered iterators and their [`Cursor`] are the
//! exclusive mode's alone: a cursor holds no pin, and only the exclusive
//! borrow keeps every writer out for its lifetime.
//!
//! [`HotTrie`] and [`CompactHot`](crate::CompactHot) are the exclusive
//! mode's two instantiations, [`ConcurrentHot`](crate::sync::ConcurrentHot)
//! and [`ConcurrentCompact`](crate::sync::ConcurrentCompact) the ROWEX
//! mode's.

// The storage seam is crate-internal: `Hot` is public only so that its
// four instantiations can be named, and those are the public API.
#![allow(private_bounds)]

use std::marker::PhantomData;
use std::sync::Arc;

use crate::arena::{ArenaFull, ArenaStats, ArenaStore};
use crate::bulk::BulkLoadError;
use crate::metrics::{Metrics, OpKind};
use crate::mlp::MlpScheduler;
use crate::node::builder::Builder;
use crate::node::{RawNode, Slot, TreeRef, MAX_FANOUT};
use crate::store::{height_of, HeapStore, NodeStore};
use crate::sync::{Access, Exclusive};
use crate::sync_shim::{AtomicU64, AtomicUsize};
use hot_keys::MemoryStats;
use hot_keys::{DepthStats, KeySource, PaddedKey, MAX_TID};

/// A Height Optimized Trie mapping prefix-free byte-string keys to 63-bit
/// tuple identifiers, its nodes and leaves held by the store `St`, accessed
/// in the mode `A`.
///
/// Use it through its four instantiations: [`HotTrie`] and
/// [`CompactHot`](crate::CompactHot) write through `&mut self`,
/// [`ConcurrentHot`](crate::sync::ConcurrentHot) and
/// [`ConcurrentCompact`](crate::sync::ConcurrentCompact) through `&self`
/// from any number of threads. The heap aliases hold nodes on the heap and
/// resolve keys through a [`KeySource`]; the compact ones hold slab arenas,
/// 32-bit references and inline key records. All four build structurally
/// identical trees — equal [`structure_digest`](Self::structure_digest)
/// for equal histories.
pub struct Hot<St: NodeStore, A: Access> {
    /// The root word, widened; read and written only in `sync.rs`.
    pub(crate) root: AtomicU64,
    /// Shared so the epoch-deferred frees of the ROWEX mode, which point
    /// into it, can outlive the index when its `Drop` cannot wait them out.
    pub(crate) store: Arc<St>,
    /// The key count; read and written only in `sync.rs`.
    pub(crate) len: AtomicUsize,
    /// Operation (and, in the ROWEX mode, ROWEX-health) metrics recorder —
    /// zero-sized no-op unless the `metrics` feature is enabled (see
    /// [`crate::metrics`]). The sharded router's batch drive records its
    /// scheduler passes in shard 0's.
    pub(crate) metrics: Metrics,
    access: PhantomData<A>,
}

/// The exclusive mode of [`Hot`]: writes take `&mut self` and free what
/// they unlink at once; reads pin nothing.
pub type Trie<St> = Hot<St, Exclusive>;

/// The heap-backed trie: one exact-size allocation per node, 64-bit tagged
/// child pointers.
///
/// Keys handed to [`insert`](Trie::insert) are *not* stored by the index
/// itself (HOT is Patricia-style and keeps only discriminative bits); they
/// are resolved back from TIDs through the [`KeySource`] whenever a full-key
/// comparison is required, exactly as a main-memory DBMS resolves tuples:
/// the keys live in the key source, the index holds only TIDs.
pub type HotTrie<S> = Trie<HeapStore<S>>;

/// Reusable state of one write operation: the padded key, the descent
/// path, the builders, and the two ledgers [`apply`] keeps — the
/// blocks the operation allocated (`fresh`: what a failure gives back) and
/// the ones its publish unlinked (`retired`: what the caller reclaims, at
/// once in the exclusive mode, through the epoch in the ROWEX one).
/// Reference words are held widened, so one writer serves either store;
/// each thread parks one for both modes.
pub(crate) struct Writer {
    key: PaddedKey,
    /// Descent path: (node, selected entry index), root first.
    path: Vec<(u64, usize)>,
    /// Decode buffer for the copy-on-write paths that do not fuse.
    builder: Builder,
    /// The halves of an overflow split.
    halves: [Builder; 2],
    /// The two-entry node of a pushdown or an intermediate node.
    pair: Builder,
    fresh: Vec<u64>,
    retired: Vec<u64>,
}

impl Writer {
    pub(crate) fn new() -> Writer {
        Writer {
            key: PaddedKey::new(),
            path: Vec::with_capacity(16),
            builder: Builder::empty(),
            halves: [Builder::empty(), Builder::empty()],
            pair: Builder::empty(),
            fresh: Vec::new(),
            retired: Vec::new(),
        }
    }

    /// The key of the operations that follow.
    pub(crate) fn set_key(&mut self, key: &[u8]) {
        self.key.set(key);
    }

    /// Start one attempt: descend from `root` to the terminal word the key
    /// leads to — a leaf, or null for an empty tree or a slot observed
    /// mid-update — recording the path.
    pub(crate) fn seek<St: NodeStore>(&mut self, store: &St, root: St::Ref) -> St::Ref {
        self.path.clear();
        self.fresh.clear();
        self.retired.clear();
        crate::node::descend(store, root, &self.key, &mut self.path)
    }

    pub(crate) fn path(&self) -> &[(u64, usize)] {
        &self.path
    }

    /// What the last [`apply`] allocated — unreachable if it failed, or if
    /// its caller lost the race to publish the root.
    pub(crate) fn fresh(&mut self) -> &mut Vec<u64> {
        &mut self.fresh
    }

    /// What the last successful [`apply`] unlinked: replaced nodes and
    /// superseded leaves.
    pub(crate) fn retired(&mut self) -> &mut Vec<u64> {
        &mut self.retired
    }

    /// [`retired`](Self::retired), read only.
    pub(crate) fn unlinked(&self) -> &[u64] {
        &self.retired
    }

    #[inline]
    fn raw_at<St: NodeStore>(&self, store: &St, level: usize) -> RawNode {
        store.raw(St::Ref::from_word(self.path[level].0))
    }

    fn new_leaf<St: NodeStore>(&mut self, store: &St, tid: u64) -> Result<St::Ref, St::Full> {
        let leaf = store.new_leaf(self.key.bytes(), tid)?;
        self.fresh.push(leaf.word());
        Ok(leaf)
    }

    fn encode<St: NodeStore>(
        &mut self,
        store: &St,
        builder: &Builder,
    ) -> Result<St::Ref, St::Full> {
        let node = crate::node::encode(store, builder)?;
        self.fresh.push(node.word());
        Ok(node)
    }

    /// Encode the two-entry node of a BiNode at `pos` over `zero` and `one`
    /// through the parked pair builder.
    fn encode_pair<St: NodeStore>(
        &mut self,
        store: &St,
        pos: u16,
        zero: u64,
        one: u64,
        height: u8,
    ) -> Result<St::Ref, St::Full> {
        let mut pair = std::mem::take(&mut self.pair);
        pair.pair(pos, zero, one, height);
        let node = self.encode(store, &pair);
        self.pair = pair;
        node
    }

    /// Store `new` in the word the node at `level` hangs from — the taken
    /// slot of `path[level - 1]`, or the root word above level 0; the
    /// terminal word is the one below the last node, `level == path.len()`.
    /// This is an operation's single publish.
    fn publish<St: NodeStore>(&self, store: &St, root: &mut St::Ref, level: usize, new: St::Ref) {
        match level.checked_sub(1) {
            None => *root = new,
            Some(above) => St::Slot::set(self.raw_at(store, above), self.path[above].1, new),
        }
    }

    /// [`publish`](Self::publish) `new` in place of the node at `level`,
    /// which is thereby retired.
    fn replace<St: NodeStore>(
        &mut self,
        store: &St,
        root: &mut St::Ref,
        level: usize,
        new: St::Ref,
    ) {
        self.publish(store, root, level, new);
        self.retired.push(self.path[level].0);
    }
}

/// Point lookup (Listing 2): one descent plus one full-key verification.
#[inline]
pub(crate) fn lookup<St: NodeStore>(store: &St, root: St::Ref, key: &PaddedKey) -> Option<u64> {
    let cur = crate::node::descend(store, root, key, &mut ());
    if cur.is_null() {
        return None;
    }
    store.verify(cur, key.bytes())
}

/// The write a caller asked for.
#[derive(Clone, Copy)]
pub(crate) enum Op {
    /// Upsert the writer's key with this TID.
    Insert(u64),
    /// Remove the writer's key.
    Remove,
}

impl Op {
    /// The metrics kind a write of this op is timed under.
    pub(crate) fn kind(self) -> OpKind {
        match self {
            Op::Insert(_) => OpKind::Insert,
            Op::Remove => OpKind::Remove,
        }
    }
}

/// What a write does to the tree (Listing 1 and its deletion mirror,
/// Section 3.2). Levels index the descent path, root first; every remove
/// works on the last path node.
#[derive(Clone, Copy)]
pub(crate) enum Plan {
    /// The terminal word takes a new leaf: the first key of an empty tree,
    /// or an upsert.
    Swap { tid: u64 },
    /// The terminal leaf gives way to a two-entry node over itself and the
    /// new leaf: a leaf root growing into the first node, or leaf-node
    /// pushdown into an entry of a node of height > 1. One slot store, no
    /// copy-on-write.
    Pushdown { tid: u64, pos: u16, key_bit: u8 },
    /// Normal insert into `path[level]`, whose affected entries are
    /// `lo..=hi`; `top` is the shallowest level whose content changes once
    /// the overflow cascade has run (`level` when nothing overflows).
    Insert {
        tid: u64,
        level: usize,
        top: usize,
        pos: u16,
        key_bit: u8,
        lo: usize,
        hi: usize,
    },
    /// The root leaf goes; the tree is empty.
    Clear,
    /// A two-entry node collapses into its surviving entry.
    Collapse,
    /// Copy-on-write of the node without the entry.
    Shrink,
    /// Underflow merge: the node shrinks to two entries and dissolves into
    /// its parent, which has room — its one BiNode is pulled up and the
    /// path gets a level shorter.
    Merge,
}

impl Plan {
    /// The run of path levels `lowest..=level` the plan writes to — node
    /// contents it replaces and the slot it publishes in — for a path of
    /// `depth >= 1` nodes. This is what a ROWEX writer locks.
    pub(crate) fn levels(self, depth: usize) -> (usize, usize) {
        let last = depth - 1;
        match self {
            Plan::Swap { .. } | Plan::Pushdown { .. } => (last, last),
            // `top - 1` is the slot-written parent.
            Plan::Insert { level, top, .. } => (top.saturating_sub(1), level),
            Plan::Clear | Plan::Collapse | Plan::Shrink => (last.saturating_sub(1), last),
            // One more: the slot holding the parent that is rewritten.
            Plan::Merge => (last.saturating_sub(2), last),
        }
    }
}

/// Decide what `op` on the writer's key does, given the path its descent
/// recorded and the terminal word `cur` it ended on. Pure: it reads the
/// key of `cur` for the mismatch bit and node contents along the path,
/// which are immutable under copy-on-write — never a value slot — so a
/// ROWEX writer can plan before it holds a lock and needs no second look
/// after. `None`: nothing to do (removing an absent key).
pub(crate) fn plan<St: NodeStore>(store: &St, w: &Writer, cur: St::Ref, op: Op) -> Option<Plan> {
    if cur.is_null() {
        return match op {
            Op::Insert(tid) => Some(Plan::Swap { tid }),
            Op::Remove => None,
        };
    }
    let mismatch = {
        let mut buf = St::key_buf();
        hot_bits::first_mismatch_bit(store.leaf_key(cur, &mut buf), w.key.bytes())
    };
    let raw_at = |level: usize| w.raw_at(store, level);
    let depth = w.path.len();
    let (tid, pos) = match (op, mismatch) {
        (Op::Remove, Some(_)) => return None,
        (Op::Remove, None) => {
            let Some(last) = depth.checked_sub(1) else {
                return Some(Plan::Clear);
            };
            return Some(match raw_at(last).count() {
                2 => Plan::Collapse,
                3 if last > 0 && raw_at(last - 1).count() < MAX_FANOUT => Plan::Merge,
                _ => Plan::Shrink,
            });
        }
        (Op::Insert(tid), None) => return Some(Plan::Swap { tid }),
        (Op::Insert(tid), Some(pos)) => (tid, pos),
    };
    assert!(pos < u16::MAX as usize, "mismatch position fits u16");
    let key_bit = hot_bits::bit_at(w.key.bytes(), pos);
    if depth == 0 {
        return Some(Plan::Pushdown {
            tid,
            pos: pos as u16,
            key_bit,
        });
    }

    // Find the node the new BiNode belongs to. Listing 1 traverses until
    // the *mismatching BiNode*: the first path BiNode whose position
    // exceeds the mismatch position. Start from the deepest node whose
    // root BiNode position is <= the mismatch position (defaulting to
    // the root node, which may grow upward)…
    let mut level = depth - 1;
    while level > 0 && raw_at(level).min_position() as usize > pos {
        level -= 1;
    }
    let (mut lo, mut hi) = raw_at(level).affected_range(pos, w.path[level].1);
    // …but when the affected "subtree" inside that node is the single
    // entry the descent went through to a child node, the mismatching
    // BiNode is the child's root BiNode: the new BiNode belongs to the
    // *child*, which grows upward (this is what keeps e.g. monotonic
    // inserts filling one node to fanout 32 instead of bloating its parent).
    if lo == hi && level + 1 < depth {
        level += 1;
        (lo, hi) = raw_at(level).affected_range(pos, w.path[level].1);
        debug_assert_eq!((lo, hi), (0, raw_at(level).count() - 1));
    }
    let raw = raw_at(level);
    // A single affected entry at the last level is the leaf `cur`.
    if lo == hi && level + 1 == depth && raw.height() > 1 {
        return Some(Plan::Pushdown {
            tid,
            pos: pos as u16,
            key_bit,
        });
    }

    // Simulate the overflow cascade: parent pull-up moves the overflow one
    // level up "until a node with sufficient space or the root node is
    // reached"; intermediate node creation and the new root end it.
    let mut top = level;
    let (mut entries, mut height) = (raw.count() + 1, raw.height());
    while entries > MAX_FANOUT && top > 0 {
        let parent = raw_at(top - 1);
        if height + 1 != parent.height() {
            break;
        }
        top -= 1;
        (entries, height) = (parent.count() + 1, parent.height());
    }
    Some(Plan::Insert {
        tid,
        level,
        top,
        pos: pos as u16,
        key_bit,
        lo,
        hi,
    })
}

/// Carry `plan` out under `root`, the caller's copy of the root word: a
/// store to it is the publish where the caller owns the tree exclusively,
/// and what the caller publishes afterwards where readers run beside it.
/// Every fallible store call precedes the operation's one Release publish
/// (a [`Slot::set`] or `*root`), so on `Err` the tree is untouched and
/// [`Writer::fresh`] holds what to give back; on `Ok` — the previous TID of
/// an upsert, the TID a remove took out — [`Writer::retired`] holds what
/// the publish unlinked.
///
/// A ROWEX caller holds the locks of [`Plan::levels`] and has validated
/// that those nodes are live and their taken slots unchanged: the path is
/// then exactly what a single writer would have recorded.
pub(crate) fn apply<St: NodeStore>(
    store: &St,
    w: &mut Writer,
    root: &mut St::Ref,
    plan: Plan,
    cur: St::Ref,
) -> Result<Option<u64>, St::Full> {
    let previous = (!cur.is_null()).then(|| store.leaf_tid(cur));
    match plan {
        Plan::Swap { tid } => {
            let leaf = w.new_leaf(store, tid)?;
            w.publish(store, root, w.path.len(), leaf);
            if previous.is_some() {
                w.retired.push(cur.word());
            }
            Ok(previous)
        }
        Plan::Pushdown { tid, pos, key_bit } => {
            let leaf = w.new_leaf(store, tid)?;
            // The two-entry node splitting `cur` from the new leaf at `pos`.
            let (zero, one) = if key_bit == 1 {
                (cur, leaf)
            } else {
                (leaf, cur)
            };
            let pushed = w.encode_pair(store, pos, zero.word(), one.word(), 1)?;
            w.publish(store, root, w.path.len(), pushed);
            Ok(None)
        }
        Plan::Insert {
            tid,
            level,
            pos,
            key_bit,
            lo,
            hi,
            ..
        } => {
            let leaf = w.new_leaf(store, tid)?;
            let raw = w.raw_at(store, level);
            // Fused fast path: where the physical layout is stable, the new
            // node is built straight from the old one (asserted
            // byte-identical to the builder path, so taking it or not leaves
            // the structure digest unchanged). The node's shape decides,
            // never the store.
            if let Some(new_node) =
                raw.insert_entry_cow(store, pos as usize, lo, hi, key_bit, leaf)?
            {
                w.fresh.push(new_node.word());
                w.replace(store, root, level, new_node);
                return Ok(None);
            }
            // General path: decode into the parked builder (malloc-free
            // apart from the new node blocks, overflow included).
            let mut builder = std::mem::take(&mut w.builder);
            builder.decode_into::<St::Slot>(raw);
            builder.insert_entry(pos, w.path[level].1, key_bit, leaf.word());
            let result = if builder.overflowed() {
                overflow_cascade(store, w, root, level, &mut builder)
            } else {
                w.encode(store, &builder)
                    .map(|new_node| w.replace(store, root, level, new_node))
            };
            w.builder = builder;
            result.map(|()| None)
        }
        Plan::Clear => {
            *root = St::Ref::NULL;
            w.retired.push(cur.word());
            Ok(previous)
        }
        Plan::Collapse => {
            let level = w.path.len() - 1;
            let survivor = St::Slot::get(w.raw_at(store, level), 1 - w.path[level].1);
            w.replace(store, root, level, survivor);
            w.retired.push(cur.word());
            Ok(previous)
        }
        Plan::Shrink | Plan::Merge => {
            let level = w.path.len() - 1;
            let raw = w.raw_at(store, level);
            // Fused fast path, the deletion mirror of the insert's: taken
            // where the layout stays, byte-identical to the builder path.
            if let Plan::Shrink = plan {
                if let Some(new_node) = raw.remove_entry_cow(store, w.path[level].1)? {
                    w.fresh.push(new_node.word());
                    w.replace(store, root, level, new_node);
                    w.retired.push(cur.word());
                    return Ok(previous);
                }
            }
            let mut builder = std::mem::take(&mut w.builder);
            builder.decode_into::<St::Slot>(raw);
            builder.remove_entry(w.path[level].1);
            let mut target = level;
            if let Plan::Merge = plan {
                let (pos, zero, one) = (builder.positions[0], builder.values[0], builder.values[1]);
                target -= 1;
                builder.decode_into::<St::Slot>(w.raw_at(store, target));
                builder.replace_entry_with_pair(w.path[target].1, pos, zero, one, |word| {
                    height_of(store, word)
                });
            }
            let encoded = w.encode(store, &builder);
            w.builder = builder;
            w.replace(store, root, target, encoded?);
            if target != level {
                w.retired.push(w.path[level].0);
            }
            w.retired.push(cur.word());
            Ok(previous)
        }
    }
}

/// Resolve the overflowed `builder` at `level` per Listing 1: split at the
/// root BiNode, then parent pull-up (recursing upward) or intermediate
/// node creation, growing the tree only at the root. The halves are the
/// writer's parked ones, so a cascade allocates nothing but node blocks.
fn overflow_cascade<St: NodeStore>(
    store: &St,
    w: &mut Writer,
    root: &mut St::Ref,
    level: usize,
    builder: &mut Builder,
) -> Result<(), St::Full> {
    let mut halves = std::mem::take(&mut w.halves);
    let result = split_upward(store, w, root, level, builder, &mut halves);
    w.halves = halves;
    result
}

/// The loop of [`overflow_cascade`], with the halves taken out of the
/// writer.
fn split_upward<St: NodeStore>(
    store: &St,
    w: &mut Writer,
    root: &mut St::Ref,
    mut level: usize,
    builder: &mut Builder,
    [left, right]: &mut [Builder; 2],
) -> Result<(), St::Full> {
    let height = |word: u64| height_of(store, word);
    loop {
        debug_assert!(builder.overflowed());
        let pos = builder.split(left, right, height);
        // Encode a split half, collapsing singleton halves to their bare value.
        let mut half_ref = |half: &Builder| match half.len() {
            1 => Ok(half.values[0]),
            _ => w.encode(store, half).map(TreeRef::word),
        };
        let (left, right) = (half_ref(left)?, half_ref(right)?);

        // Only the root grows the tree height. Below it, with room between
        // this node and its parent, an intermediate node in this node's
        // place does not increase the overall tree height either.
        if level == 0 || builder.height + 1 != w.raw_at(store, level - 1).height() {
            let over =
                w.encode_pair(store, pos, left, right, 1 + height(left).max(height(right)))?;
            w.replace(store, root, level, over);
            return Ok(());
        }

        // Parent pull-up: move the split root BiNode into the parent.
        w.retired.push(w.path[level].0);
        level -= 1;
        builder.decode_into::<St::Slot>(w.raw_at(store, level));
        builder.replace_entry_with_pair(w.path[level].1, pos, left, right, height);
        if !builder.overflowed() {
            let new_parent = w.encode(store, builder)?;
            w.replace(store, root, level, new_parent);
            return Ok(());
        }
    }
}

impl<S: KeySource, A: Access> Hot<HeapStore<S>, A> {
    /// Create an empty trie resolving keys through `source`.
    pub fn new(source: S) -> Self {
        Hot::over(HeapStore::new(source))
    }

    /// Access the key source.
    pub(crate) fn source(&self) -> &S {
        &self.store.source
    }
}

impl<A: Access> Default for Hot<ArenaStore, A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Access> Hot<ArenaStore, A> {
    /// An empty compact trie with the default arena ceilings (the full
    /// 32-bit addressable range; slabs are committed on demand).
    pub fn new() -> Self {
        Self::with_capacity(
            crate::arena::DEFAULT_NODE_CAP,
            crate::arena::DEFAULT_LEAF_CAP,
        )
    }

    /// An empty compact trie whose arenas refuse to grow past the given
    /// byte ceilings (rounded up to whole slabs). Mutations that would
    /// exceed a ceiling fail with a typed [`ArenaFull`]; useful for tests
    /// and for bounding index memory in embedding systems.
    pub fn with_capacity(node_cap_bytes: usize, leaf_cap_bytes: usize) -> Self {
        Hot::over(ArenaStore::new(node_cap_bytes, leaf_cap_bytes))
    }

    /// Allocator-level accounting for both arenas (capacity, live bytes,
    /// high-water mark, dead front-coded bytes). In the ROWEX mode deferred
    /// frees may lag behind; exact after [`quiesce`](crate::sync::quiesce)
    /// with no writer running.
    pub fn arena_stats(&self) -> ArenaStats {
        self.store.arena_stats()
    }
}

/// The read face, written once for both access modes: every live read
/// reaches the root through `pinned_root`, the diagnostics through
/// `load_root` on a quiesced tree.
impl<St: NodeStore, A: Access> Hot<St, A> {
    /// An empty trie over `store`.
    pub(crate) fn over(store: St) -> Self {
        Hot {
            root: AtomicU64::new(St::Ref::NULL.word()),
            store: Arc::new(store),
            len: AtomicUsize::new(0),
            metrics: Metrics::new(),
            access: PhantomData,
        }
    }

    /// Crate-internal: the store the batched descent engine reads through.
    pub(crate) fn store(&self) -> &St {
        &self.store
    }

    /// Whether the trie is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Overall tree height in compound nodes (0 for empty or single-leaf
    /// trees). Grows only when a new root is created. Call on a quiesced
    /// tree.
    // epoch-exempt: quiesced-only diagnostic; no writer retires under it.
    pub fn height(&self) -> usize {
        height_of(&*self.store, self.load_root().word()) as usize
    }

    /// Look up `key`; returns its TID if present.
    ///
    /// Wait-free: one descent plus one full-key verification (Listing 2 of
    /// the paper), no locks, no restarts.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        let _t = self.metrics.timer(OpKind::Get);
        let padded = PaddedKey::from_key(key);
        let (root, _pin) = self.pinned_root();
        lookup(&*self.store, root, &padded)
    }

    /// Look up `keys` as one batch under a **single** pin, writing
    /// `keys.len()` results into `out` (`out[i]` answers `keys[i]` exactly
    /// as [`get`](Self::get) would).
    ///
    /// Descents run through the batched descent engine (DESIGN.md §9):
    /// up to 16 independent descents stay in flight, each lane refilling
    /// from the pending keys the moment it completes, so depth variance
    /// between keys never idles a lane. Where writers run beside the batch
    /// (the ROWEX mode), the root is reloaded at every lane refill, so a
    /// long batch never holds one stale root and observes writers at
    /// request granularity, and a lane that sees a torn slot mid-descent
    /// re-descends from a fresh root a bounded number of times before
    /// answering "not present" exactly as scalar `get` does. The engine's
    /// lane ring is parked per thread, so a warm batch allocates nothing.
    ///
    /// # Panics
    /// Panics if `keys` and `out` differ in length.
    pub fn get_batch<K: AsRef<[u8]>>(&self, keys: &[K], out: &mut [Option<u64>]) {
        crate::mlp::with_thread_scheduler(|sched| self.get_batch_on(keys, out, sched));
    }

    /// [`get_batch`](Self::get_batch) on a given scheduler (the thread's
    /// parked one, or a test's at another depth).
    pub(crate) fn get_batch_on<K: AsRef<[u8]>>(
        &self,
        keys: &[K],
        out: &mut [Option<u64>],
        sched: &mut MlpScheduler,
    ) {
        assert_eq!(keys.len(), out.len(), "one output slot per key");
        let _t = self.metrics.timer(OpKind::GetBatch);
        self.metrics.items(OpKind::GetBatch, keys.len() as u64);
        let (root, _pin) = self.pinned_root();
        let reload = || if A::SHARED { self.load_root() } else { root };
        sched.run_lookups(
            &*self.store,
            &crate::mlp::LookupStream(keys),
            out,
            reload,
            A::SHARED,
            &self.metrics,
        );
    }

    /// Collect up to `limit` TIDs with keys `>= key`, in ascending key
    /// order (the paper's workload E operation: "range scans accessing up
    /// to 100 elements"). Wait-free; beside ROWEX writers the scan observes
    /// an interleaving-consistent view (nodes replaced mid-scan keep
    /// serving their pre-replacement state, exactly as the paper describes
    /// for readers on obsolete nodes).
    ///
    /// Allocates the result vector; hot loops should call
    /// [`scan_into`](Self::scan_into).
    pub fn scan(&self, key: &[u8], limit: usize) -> Vec<u64> {
        // Cap the pre-size by the trie's population: short scans on small
        // tries must not over-allocate (`len()` is a racy lower bound under
        // concurrent inserts, which only costs a Vec regrow, never results).
        let mut out = Vec::with_capacity(limit.min(128).min(self.len()));
        self.scan_into(key, limit, &mut out);
        out
    }

    /// Like [`scan`](Self::scan), writing the TIDs into `out` (cleared
    /// first) instead of allocating a fresh vector. The padded start key,
    /// descent path and frame stack live in this thread's parked cursor,
    /// so repeated scans allocate nothing once `out` has grown, and the
    /// traversal prefetches one subtree ahead (DESIGN.md §12). One pin per
    /// call.
    pub fn scan_into(&self, key: &[u8], limit: usize, out: &mut Vec<u64>) {
        out.clear();
        crate::scan::with_thread_cursor(|cursor| self.scan_append(key, limit, out, cursor));
    }

    /// [`scan_into`](Self::scan_into) appending to `out` instead of
    /// clearing it first: the sharded router writes a scan's cross-shard
    /// continuation straight behind the TIDs it already holds.
    pub(crate) fn scan_append(
        &self,
        key: &[u8],
        limit: usize,
        out: &mut Vec<u64>,
        cursor: &mut crate::scan::ScanCursor,
    ) {
        let _t = self.metrics.timer(OpKind::Scan);
        let before = out.len();
        let (root, _pin) = self.pinned_root();
        cursor.scan_root(&*self.store, root, key, limit, out);
        self.metrics
            .items(OpKind::Scan, (out.len() - before) as u64);
    }

    /// Service many scan requests `(start key, limit)` under a **single**
    /// pin: request `i`'s TIDs land in `tids[bounds[i]..bounds[i + 1]]`
    /// (both vectors are cleared first; `bounds` gets `requests.len() + 1`
    /// prefix offsets).
    ///
    /// The seek descents run through the batched descent engine
    /// (DESIGN.md §9) — up to N seeks in flight, lanes refilling on
    /// completion, the root reloaded as for
    /// [`get_batch`](Self::get_batch) — on the thread's parked scheduler.
    /// Results are identical to calling [`scan`](Self::scan) per request.
    pub fn scan_batch<K: AsRef<[u8]>>(
        &self,
        requests: &[(K, usize)],
        tids: &mut Vec<u64>,
        bounds: &mut Vec<usize>,
    ) {
        crate::mlp::with_thread_scheduler(|sched| {
            self.scan_batch_on(requests, tids, bounds, sched)
        });
    }

    /// [`scan_batch`](Self::scan_batch) on a given scheduler.
    pub(crate) fn scan_batch_on<K: AsRef<[u8]>>(
        &self,
        requests: &[(K, usize)],
        tids: &mut Vec<u64>,
        bounds: &mut Vec<usize>,
        sched: &mut MlpScheduler,
    ) {
        let _t = self.metrics.timer(OpKind::ScanBatch);
        tids.clear();
        bounds.clear();
        bounds.push(0);
        let (root, _pin) = self.pinned_root();
        let reload = || if A::SHARED { self.load_root() } else { root };
        sched.run_scans(
            &*self.store,
            &crate::mlp::ScanStream(requests),
            tids,
            bounds,
            reload,
            A::SHARED,
            &self.metrics,
        );
        self.metrics.items(OpKind::ScanBatch, tids.len() as u64);
    }

    /// Index memory footprint: live node bytes, plus — for a store that
    /// holds the keys itself — the leaf records as `aux_bytes` and the
    /// reserved arena memory as `capacity_bytes`. In the ROWEX mode it
    /// counts retired nodes until their deferred free has run: exact after
    /// [`quiesce`](crate::sync::quiesce) with no writer running.
    pub fn memory_stats(&self) -> MemoryStats {
        self.store.memory_stats(self.len())
    }

    /// Leaf-depth histogram (depth = compound nodes on the root-to-leaf
    /// path), as reported in Figure 11. Call on a quiesced tree.
    // epoch-exempt: quiesced-only diagnostic; no writer retires under it.
    pub fn depth_stats(&self) -> DepthStats {
        crate::invariants::depth_stats(&*self.store, self.load_root())
    }

    /// Whole-trie structural invariant check (DESIGN.md §10.4):
    /// fanout bounds, per-node linearization well-formedness, SIMD-search
    /// self-consistency, strict height decrease, in-order key ordering,
    /// leaf count, all lock words clear, and full re-lookup of every stored
    /// key. Returns summary statistics or a description of the first
    /// violation.
    ///
    /// Call on a quiesced tree: concurrent writers would trip the lock-word
    /// and leaf-count checks spuriously, and the walk holds no pin.
    // epoch-exempt: quiesced-only diagnostic; no writer retires under it.
    pub fn try_check_invariants(&self) -> Result<crate::InvariantReport, String> {
        let (store, root) = (&*self.store, self.load_root());
        // Re-lookups go through the uninstrumented lookup so the walk never
        // inflates the `get` / epoch-pin counters.
        crate::invariants::check_tree(store, root, self.len(), |k| {
            lookup(store, root, &PaddedKey::from_key(k))
        })
    }

    /// Point-in-time metrics snapshot (DESIGN.md §13): merged operation
    /// counters, latency histograms and — in the ROWEX mode — ROWEX health
    /// counters (lock failures, restarts, obsolete-marker encounters, epoch
    /// pins, deferred-free queue depth), plus structural gauges (layout
    /// census, leaf-depth distribution, fill factor) sampled from a full
    /// invariant walk. The counters are captured *before* the walk, and the
    /// walk uses the uninstrumented lookup, so sampling never perturbs the
    /// stats. The structural gauges require a quiesced index (like
    /// [`Self::try_check_invariants`]); when the walk fails, `structure` is
    /// left `None` and the counter half is still exact. Only available with
    /// the `metrics` feature.
    #[cfg(feature = "metrics")]
    pub fn metrics_snapshot(&self) -> hot_metrics::MetricsSnapshot {
        let mut snap = self.metrics.0.ops_snapshot();
        if let Ok(report) = self.try_check_invariants() {
            snap.structure = Some(crate::metrics::structural_snapshot(&report));
        }
        snap
    }

    /// The counter/histogram half of [`Self::metrics_snapshot`] without
    /// the structural walk — safe and cheap to call while writers are
    /// active, e.g. at workload-phase boundaries (`structure` is `None`).
    /// Only with the `metrics` feature.
    #[cfg(feature = "metrics")]
    pub fn metrics_ops_snapshot(&self) -> hot_metrics::MetricsSnapshot {
        self.metrics.0.ops_snapshot()
    }

    /// Panicking wrapper over [`Self::try_check_invariants`]. Test-support.
    pub fn check_invariants(&self) -> crate::InvariantReport {
        match self.try_check_invariants() {
            Ok(report) => report,
            Err(msg) => panic!("trie invariant violation: {msg}"),
        }
    }

    /// Count of live nodes per physical layout (indexed by `NodeTag as
    /// usize`): the observable footprint of the paper's two adaptivity
    /// dimensions. Test and diagnostics support; call on a quiesced tree.
    // epoch-exempt: quiesced-only diagnostic; no writer retires under it.
    pub fn layout_census(&self) -> [usize; 9] {
        crate::invariants::layout_census(&*self.store, self.load_root())
    }

    /// A structural fingerprint: equal digests mean structurally identical
    /// trees (layouts, positions, sparse keys, heights, leaf order) — in
    /// either store and either access mode. Used to test the paper's
    /// determinism conjecture (Section 3.3): "any given set of keys results
    /// in the same structure, regardless of the insertion order". Call on a
    /// quiesced tree.
    // epoch-exempt: quiesced-only diagnostic; no writer retires under it.
    pub fn structure_digest(&self) -> u64 {
        crate::invariants::structure_digest(&*self.store, self.load_root())
    }
}

/// The exclusive mode's own face: `&mut self` writes, the ordered
/// iterators, and the validation that runs them.
impl<St: NodeStore> Trie<St> {
    /// Insert `key → tid` (upsert). Returns the previous TID if the key was
    /// already present.
    ///
    /// # Panics
    /// Panics if `tid` exceeds [`MAX_TID`], the key exceeds
    /// [`MAX_KEY_LEN`](hot_keys::MAX_KEY_LEN) bytes, or —
    /// [`CompactHot`](crate::CompactHot) only — an arena ceiling is hit
    /// (its `try_insert` reports that case as a typed error instead).
    pub fn insert(&mut self, key: &[u8], tid: u64) -> Option<u64> {
        assert!(tid <= MAX_TID, "tid exceeds MAX_TID");
        self.write(key, Op::Insert(tid))
            .unwrap_or_else(|e| panic!("insert: {e}"))
    }

    /// Remove `key`; returns its TID if it was present.
    ///
    /// # Panics
    /// [`CompactHot`](crate::CompactHot) only: panics if an arena ceiling is
    /// hit while re-encoding the shrunk node (its `try_remove` reports that
    /// case as a typed error instead).
    pub fn remove(&mut self, key: &[u8]) -> Option<u64> {
        self.write(key, Op::Remove)
            .unwrap_or_else(|e| panic!("remove: {e}"))
    }

    /// One exclusive write: descend → [`plan`] → [`apply`] → publish →
    /// reclaim at once, on the thread's parked writer.
    // epoch-exempt: `&mut self` rules out readers, so nothing this write
    // unlinks can still be held and it frees at once.
    fn write(&mut self, key: &[u8], op: Op) -> Result<Option<u64>, St::Full> {
        let _t = self.metrics.timer(op.kind());
        let (store, mut root) = (&*self.store, self.exclusive_root());
        let answer = crate::sync::with_thread_writer(|w| {
            w.set_key(key);
            let cur = w.seek(store, root);
            debug_assert!(
                cur.is_leaf() || root.is_null(),
                "a single writer never observes a torn slot"
            );
            let Some(plan) = plan(store, w, cur, op) else {
                return Ok(None);
            };
            let answer = apply(store, w, &mut root, plan, cur);
            let done = if answer.is_ok() {
                w.retired()
            } else {
                w.fresh()
            };
            // SAFETY: unlinked by the operation's publish, or never published
            // by the operation that failed; `&mut self` rules out readers.
            unsafe { store.release(done) };
            answer
        })?;
        let len = match (op, answer) {
            (Op::Insert(_), None) => self.len() + 1,
            (Op::Remove, Some(_)) => self.len() - 1,
            _ => self.len(),
        };
        self.publish_exclusive(root, len);
        Ok(answer)
    }

    /// Build the whole trie bottom-up from sorted `(key, tid)` entries
    /// (DESIGN.md §11).
    ///
    /// Keys must be ascending, prefix-free byte strings of at most
    /// [`MAX_KEY_LEN`](hot_keys::MAX_KEY_LEN) bytes (and, for [`HotTrie`],
    /// resolve back from their TIDs through the trie's [`KeySource`]) — the
    /// same contract as [`insert`](Self::insert), plus the sort order.
    /// Duplicate keys are collapsed deterministically (the last entry's TID
    /// wins); out-of-order input returns [`BulkLoadError::Unsorted`] without
    /// modifying the trie, a non-empty trie returns
    /// [`BulkLoadError::NotEmpty`], and an arena ceiling hit mid-build
    /// returns [`BulkLoadError::ArenaFull`] with the trie still empty and
    /// usable.
    ///
    /// Every compound node is computed from the adjacent-key mismatch
    /// positions and encoded exactly once, with no intermediate
    /// copy-on-write churn, so loading is several times faster than an
    /// insert loop and the resulting footprint is never larger. The
    /// boundary scan runs on every available core. So does the node build
    /// when the store owns the memory of every node it builds — a heap
    /// store that a load of 2¹⁹ keys or more puts on 2 MiB chunks; on the
    /// general allocator the nodes are built on the calling thread, because
    /// nodes built on other threads would sit in their per-thread allocator
    /// arenas for the index's lifetime (DESIGN.md §11.4). The tree is
    /// byte-identical at any thread count. Returns the number of distinct
    /// keys loaded.
    pub fn bulk_load<K: AsRef<[u8]> + Sync>(
        &mut self,
        entries: &[(K, u64)],
    ) -> Result<usize, BulkLoadError> {
        self.bulk_load_on(entries, crate::bulk::available_threads())
    }

    /// Iterator over all TIDs in ascending key order.
    pub fn iter(&self) -> Cursor<'_, St> {
        self.range_from(&[])
    }

    /// Iterator over TIDs whose keys are `>= key`, in ascending key order —
    /// the building block of workload E's short range scans.
    // epoch-exempt: exclusive mode only — the cursor's borrow keeps every
    // writer out for its lifetime, so nothing it holds is retired.
    pub fn range_from(&self, key: &[u8]) -> Cursor<'_, St> {
        let (store, root) = (&*self.store, self.exclusive_root());
        let mut cursor = Cursor {
            store,
            frames: Vec::new(),
            pending: None,
        };
        if root.is_leaf() {
            if crate::scan::leaf_in_range(store, root, key) {
                cursor.pending = Some(root);
            }
        } else if root.is_node() {
            // Seek and position exactly as a scan does.
            let padded = PaddedKey::from_key(key);
            let mut path = Vec::new();
            let cur = crate::node::descend(store, root, &padded, &mut path);
            let hit = crate::scan::position_frames(store, &padded, &path, cur, &mut cursor.frames);
            cursor.pending = hit.map(|_| cur);
        }
        cursor
    }

    /// Verify every structural invariant; panics on violation. Test-support.
    ///
    /// Delegates the structural walk to [`Self::check_invariants`] and
    /// additionally checks that the public iterator visits exactly `len`
    /// leaves (cursor coverage the raw walk doesn't exercise).
    pub fn validate(&self) {
        self.check_invariants();
        assert_eq!(
            self.iter().count(),
            self.len(),
            "len matches iterated leaf count"
        );
    }
}

impl Trie<ArenaStore> {
    /// [`insert`](Trie::insert), reporting arena exhaustion as a typed
    /// error instead of panicking. On [`ArenaFull`] the tree is unchanged.
    ///
    /// # Panics
    /// Panics if `tid` exceeds [`MAX_TID`] or the key exceeds
    /// [`MAX_KEY_LEN`](hot_keys::MAX_KEY_LEN) bytes.
    pub fn try_insert(&mut self, key: &[u8], tid: u64) -> Result<Option<u64>, ArenaFull> {
        assert!(tid <= MAX_TID, "tid exceeds MAX_TID");
        self.write(key, Op::Insert(tid))
    }

    /// [`remove`](Trie::remove), reporting arena exhaustion as a typed
    /// error. On [`ArenaFull`] the tree is unchanged.
    pub fn try_remove(&mut self, key: &[u8]) -> Result<Option<u64>, ArenaFull> {
        self.write(key, Op::Remove)
    }
}

impl<'a, St: NodeStore> IntoIterator for &'a Trie<St> {
    type Item = u64;
    type IntoIter = Cursor<'a, St>;

    fn into_iter(self) -> Cursor<'a, St> {
        self.iter()
    }
}

/// Ordered iterator over a [`Trie`]'s leaf TIDs. It holds no pin, so only
/// the exclusive mode has one: its borrow keeps every writer out.
pub struct Cursor<'a, St: NodeStore> {
    store: &'a St,
    /// In-order traversal stack: (node, next entry index).
    frames: Vec<(u64, usize)>,
    /// A leaf to yield before the frames (the seek's exact match, or a
    /// single-leaf root).
    pending: Option<St::Ref>,
}

impl<St: NodeStore> Iterator for Cursor<'_, St> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if let Some(leaf) = self.pending.take() {
            return Some(self.store.leaf_tid(leaf));
        }
        loop {
            let frame = self.frames.last_mut()?;
            let raw = self.store.raw(St::Ref::from_word(frame.0));
            if frame.1 >= raw.count() {
                self.frames.pop();
                continue;
            }
            let value = St::Slot::get(raw, frame.1);
            frame.1 += 1;
            if value.is_leaf() {
                return Some(self.store.leaf_tid(value));
            }
            self.frames.push((value.word(), 0));
        }
    }
}
