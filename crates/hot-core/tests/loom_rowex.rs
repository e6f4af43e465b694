//! Model-checked interleavings of the ROWEX synchronization protocol
//! (paper Section 5), run under the vendored loom stand-in.
//!
//! Build with the `loom-model` feature:
//!
//! ```text
//! cargo test -p hot-core --features loom-model --release --test loom_rowex
//! ```
//!
//! Each scenario re-executes its closure under every schedule the bounded
//! DFS explores (CHESS-style preemption bounding, default bound 2 —
//! empirically the bound that finds almost all real concurrency bugs).
//! Every atomic operation on the protocol's words (root, lock words, value
//! slots, len) is a scheduler decision point, so these tests exhaustively
//! cover, up to the bound, the interleavings the paper's Section 5
//! arguments are about:
//!
//! * `insert_insert_same_affected_set` — two writers mutating one node:
//!   "updating a single ... pointer by a single CAS operation is not
//!   sufficient", both writers must serialize through the lock word;
//! * `reader_descends_obsolete_node` — a wait-free reader racing a writer
//!   that replaces (and marks obsolete) the node the reader is in;
//! * `lock_ordering_multi_level` — writers whose affected sets span
//!   parent+leaf levels in a height-2 trie, exercising the bottom-up
//!   acquisition / top-down release order and obsolete revalidation;
//! * `root_cas_growth` — two writers racing the root CAS on an empty
//!   trie (leaf root → first compound node);
//! * `insert_vs_remove` — structure modification racing structure
//!   shrinkage over the same node;
//! * the four `*_between_analyse_and_lock` / `*_redirects_*` scenarios —
//!   the windows a writer's under-lock validation (obsolete check plus one
//!   slot re-read per locked level, no second descent) has to catch: the
//!   candidate leaf pushed down, upserted or removed, and the parent slot
//!   redirected to a new intermediate node, each after the writer analysed
//!   and before it locked. Every schedule must end restart-or-correct;
//! * the two `merge_*` scenarios — the one write whose lock range reaches a
//!   level further up: a remove whose node shrinks to two entries and
//!   dissolves into its parent, racing an insert into that parent, and a
//!   reader that is still inside the dissolved node.
//!
//! Each closure ends (on every explored schedule) by asserting lookups
//! and, where the trie is quiesced, whole-trie
//! [`check_invariants`](hot_core::sync::ConcurrentHot::check_invariants).
//! The stand-in explores sequentially-consistent interleavings only;
//! weak-memory-order bugs are covered by the Miri and TSan CI jobs
//! (DESIGN.md §10).

#![cfg(feature = "loom-model")]

use hot_core::sync::ConcurrentHot;
use hot_keys::{encode_u64, EmbeddedKeySource, KeySource, KEY_SCRATCH_LEN};
use loom::sync::Arc;
use loom::thread;

/// A model `Builder` sized for trie scenarios: the default preemption
/// bound, but a schedule cap so heavyweight scenarios stay in CI budget
/// (the cap is reported on stderr when hit).
fn builder(max_iterations: u64) -> loom::Builder {
    let mut b = loom::Builder::new();
    if b.max_iterations == 0 || b.max_iterations > max_iterations {
        b.max_iterations = max_iterations;
    }
    b
}

fn trie_with(keys: &[u64]) -> Arc<ConcurrentHot<EmbeddedKeySource>> {
    let trie = ConcurrentHot::new(EmbeddedKeySource);
    for &k in keys {
        trie.insert(&encode_u64(k), k);
    }
    Arc::new(trie)
}

fn assert_contains(trie: &ConcurrentHot<EmbeddedKeySource>, keys: &[u64]) {
    for &k in keys {
        assert_eq!(trie.get(&encode_u64(k)), Some(k), "key {k} must be present");
    }
}

/// Two writers insert keys that land in the same compound node (the whole
/// trie is one root node), so their affected sets are identical. One must
/// win the lock word; the other must back off, re-analyze against the
/// already-modified node and still insert correctly.
#[test]
fn insert_insert_same_affected_set() {
    builder(40_000).check(|| {
        let trie = trie_with(&[0, 3]);
        let a = Arc::clone(&trie);
        let b = Arc::clone(&trie);
        let ta = thread::spawn(move || {
            a.insert(&encode_u64(1), 1);
        });
        let tb = thread::spawn(move || {
            b.insert(&encode_u64(2), 2);
        });
        ta.join().unwrap();
        tb.join().unwrap();
        assert_eq!(trie.len(), 4);
        assert_contains(&trie, &[0, 1, 2, 3]);
        trie.check_invariants();
    });
}

/// A wait-free reader races a writer whose copy-on-write replaces the node
/// the reader may currently be descending (the old node is marked obsolete
/// and retired). The reader must find its key on every schedule — either
/// through the old node (kept alive by its epoch pin) or the new one.
#[test]
fn reader_descends_obsolete_node() {
    builder(40_000).check(|| {
        let trie = trie_with(&[10, 20, 30]);
        let writer = Arc::clone(&trie);
        let reader = Arc::clone(&trie);
        let tw = thread::spawn(move || {
            writer.insert(&encode_u64(25), 25);
        });
        let tr = thread::spawn(move || {
            assert_eq!(reader.get(&encode_u64(10)), Some(10));
            assert_eq!(reader.get(&encode_u64(30)), Some(30));
            // 25 is being inserted concurrently: either outcome is
            // linearizable, but a wrong value never is.
            let racing = reader.get(&encode_u64(25));
            assert!(racing.is_none() || racing == Some(25));
        });
        tw.join().unwrap();
        tr.join().unwrap();
        assert_contains(&trie, &[10, 20, 25, 30]);
        trie.check_invariants();
    });
}

/// Writers in a height-2 trie (a root over two leaf-level compound nodes,
/// built by overflowing a 32-entry root) whose affected sets span levels.
/// Exercises `lock_levels`' bottom-up acquisition, the obsolete
/// revalidation between analyze and apply, and top-down release.
#[test]
fn lock_ordering_multi_level() {
    // The pre-population (33 single-threaded inserts) makes each schedule
    // expensive; a tighter schedule cap keeps the test inside CI budget
    // while still exploring thousands of interleavings of the two writers.
    builder(6_000).check(|| {
        let keys: Vec<u64> = (0..33).map(|i| i * 2).collect();
        let trie = trie_with(&keys);
        let a = Arc::clone(&trie);
        let b = Arc::clone(&trie);
        // Both keys land in the same leaf-level node of the grown trie, so
        // the writers' multi-level affected sets overlap.
        let ta = thread::spawn(move || {
            a.insert(&encode_u64(1), 1);
        });
        let tb = thread::spawn(move || {
            b.insert(&encode_u64(3), 3);
        });
        ta.join().unwrap();
        tb.join().unwrap();
        assert_eq!(trie.len(), 35);
        assert_contains(&trie, &[0, 1, 2, 3, 4, 64]);
        trie.check_invariants();
    });
}

/// Two writers race the root word itself on an empty trie: NULL → leaf
/// (first insert) and leaf → compound node (second insert) are both plain
/// CAS transitions with no lock to take. Exactly one CAS wins each step;
/// the loser must retry against the new root without losing its key.
#[test]
fn root_cas_growth() {
    builder(40_000).check(|| {
        let trie = Arc::new(ConcurrentHot::new(EmbeddedKeySource));
        let a = Arc::clone(&trie);
        let b = Arc::clone(&trie);
        let ta = thread::spawn(move || {
            a.insert(&encode_u64(7), 7);
        });
        let tb = thread::spawn(move || {
            b.insert(&encode_u64(9), 9);
        });
        ta.join().unwrap();
        tb.join().unwrap();
        assert_eq!(trie.len(), 2);
        assert_contains(&trie, &[7, 9]);
        trie.check_invariants();
    });
}

/// An insert races a remove on the same node: the remove's collapse path
/// (2-entry node → surviving child) and the insert's copy-on-write must
/// serialize through the lock words without losing either update.
#[test]
fn insert_vs_remove() {
    builder(40_000).check(|| {
        let trie = trie_with(&[5, 6, 7]);
        let ins = Arc::clone(&trie);
        let del = Arc::clone(&trie);
        let ti = thread::spawn(move || {
            ins.insert(&encode_u64(4), 4);
        });
        let td = thread::spawn(move || {
            assert_eq!(del.remove(&encode_u64(6)), Some(6));
        });
        ti.join().unwrap();
        td.join().unwrap();
        assert_eq!(trie.len(), 3);
        assert_contains(&trie, &[4, 5, 7]);
        assert_eq!(trie.get(&encode_u64(6)), None);
        trie.check_invariants();
    });
}

/// A 33-key trie whose height-2 root holds `{node of 0,2,…,62; leaf 64}`:
/// the root's second slot is a leaf in a node of height > 1, so an insert
/// next to 64 plans a leaf-node pushdown into that slot.
fn trie_with_leaf_slot_in_root() -> Arc<ConcurrentHot<EmbeddedKeySource>> {
    let keys: Vec<u64> = (0..=32).map(|i| i * 2).collect();
    let trie = trie_with(&keys);
    assert_eq!(trie.check_invariants().height, 2);
    trie
}

/// Two pushdowns into the same leaf slot: 65 and 66 both find leaf 64 as
/// their candidate and plan `root.slot ← pair(64, new)`. Whichever locks
/// second analysed a slot that now holds a node: it must see the changed
/// word and restart, not wrap the other writer's node as if it were a leaf.
#[test]
fn pushdown_of_candidate_leaf_between_analyse_and_lock() {
    builder(6_000).check(|| {
        let trie = trie_with_leaf_slot_in_root();
        let (a, b) = (Arc::clone(&trie), Arc::clone(&trie));
        let ta = thread::spawn(move || {
            a.insert(&encode_u64(65), 65);
        });
        let tb = thread::spawn(move || {
            b.insert(&encode_u64(66), 66);
        });
        ta.join().unwrap();
        tb.join().unwrap();
        assert_eq!(trie.len(), 35);
        assert_contains(&trie, &[0, 62, 64, 65, 66]);
        trie.check_invariants();
    });
}

/// Keys with several valid TIDs: the key is `tid >> 4`, so an upsert
/// really changes the leaf word (with `EmbeddedKeySource` it cannot).
struct VersionedKeys;

impl KeySource for VersionedKeys {
    fn load_key<'a>(&'a self, tid: u64, scratch: &'a mut [u8; KEY_SCRATCH_LEN]) -> &'a [u8] {
        scratch[..8].copy_from_slice(&encode_u64(tid >> 4));
        &scratch[..8]
    }
}

/// An upsert rewrites the candidate leaf while another writer is about to
/// push it down. The pushdown must carry the leaf word that is in the slot
/// when it holds the lock — the new TID survives on every schedule.
#[test]
fn upsert_of_candidate_leaf_between_analyse_and_lock() {
    builder(6_000).check(|| {
        let trie = ConcurrentHot::new(VersionedKeys);
        for k in (0..=32).map(|i| i * 2) {
            trie.insert(&encode_u64(k), k << 4);
        }
        let trie = Arc::new(trie);
        let (a, b) = (Arc::clone(&trie), Arc::clone(&trie));
        let ta = thread::spawn(move || {
            a.insert(&encode_u64(65), 65 << 4);
        });
        let tb = thread::spawn(move || {
            assert_eq!(b.insert(&encode_u64(64), 64 << 4 | 1), Some(64 << 4));
        });
        ta.join().unwrap();
        tb.join().unwrap();
        assert_eq!(trie.len(), 34);
        assert_eq!(trie.get(&encode_u64(64)), Some(64 << 4 | 1));
        assert_eq!(trie.get(&encode_u64(65)), Some(65 << 4));
        trie.check_invariants();
    });
}

/// The candidate leaf is removed (collapsing the two-entry root) while a
/// writer is about to push it down: the writer locks a node that is
/// obsolete by then and must restart against the collapsed trie.
#[test]
fn remove_of_candidate_leaf_between_analyse_and_lock() {
    builder(6_000).check(|| {
        let trie = trie_with_leaf_slot_in_root();
        let (ins, del) = (Arc::clone(&trie), Arc::clone(&trie));
        let ti = thread::spawn(move || {
            ins.insert(&encode_u64(65), 65);
        });
        let td = thread::spawn(move || {
            assert_eq!(del.remove(&encode_u64(64)), Some(64));
        });
        ti.join().unwrap();
        td.join().unwrap();
        assert_eq!(trie.len(), 33);
        assert_contains(&trie, &[0, 62, 65]);
        assert_eq!(trie.get(&encode_u64(64)), None);
        trie.check_invariants();
    });
}

/// Intermediate-node creation redirects a parent slot. The trie is grown
/// to a height-3 root over a *full* height-1 node `C` (so `C`'s overflow
/// can neither pull up — the root is two levels above — nor split the
/// root): both writers overflow `C`, the first replaces the root's slot
/// with a new intermediate node and retires `C`, the second analysed the
/// old path and must restart through the new node.
#[test]
fn intermediate_node_redirects_parent_slot_between_analyse_and_lock() {
    builder(1_500).check(|| {
        const BASE: u64 = 1 << 37;
        // 32 keys fill one node; 31 single-bit keys fill the root above it
        // with leaf entries; BASE overflows that root into a height-3 one
        // with BASE as a leaf slot; 31 neighbours push BASE down and fill C.
        let mut keys: Vec<u64> = (0..32).map(|i| i * 2).collect();
        keys.extend((6..=36).map(|j| 1u64 << j));
        keys.extend((0..32).map(|i| BASE + i * 2));
        let trie = trie_with(&keys);
        let before = trie.check_invariants();
        assert_eq!((before.height, before.nodes), (3, 4));
        let (a, b) = (Arc::clone(&trie), Arc::clone(&trie));
        let ta = thread::spawn(move || {
            a.insert(&encode_u64(BASE + 1), BASE + 1);
        });
        let tb = thread::spawn(move || {
            b.insert(&encode_u64(BASE + 3), BASE + 3);
        });
        ta.join().unwrap();
        tb.join().unwrap();
        assert_eq!(trie.len(), keys.len() + 2);
        assert_contains(
            &trie,
            &[0, 62, 64, 1 << 36, BASE, BASE + 1, BASE + 3, BASE + 62],
        );
        let after = trie.check_invariants();
        // C gave way to an intermediate node over its two halves.
        assert_eq!((after.height, after.nodes), (3, 6));
    });
}

/// [`trie_with_leaf_slot_in_root`] with 65 pushed down next to 64 and 66
/// inserted beside them: the root's second slot now holds a three-entry
/// node, and the root has room — removing one of the three is an underflow
/// merge, which dissolves that node into the root.
fn trie_with_mergeable_child() -> Arc<ConcurrentHot<EmbeddedKeySource>> {
    let trie = trie_with_leaf_slot_in_root();
    trie.insert(&encode_u64(65), 65);
    trie.insert(&encode_u64(66), 66);
    let report = trie.check_invariants();
    assert_eq!((report.height, report.nodes), (2, 3));
    trie
}

/// The merge rewrites the parent (here the root) while another writer
/// inserts into that same parent: both need its lock, and whichever comes
/// second planned against a node that is obsolete by then. On every
/// schedule both updates land and the child is gone.
#[test]
fn merge_races_insert_into_the_rewritten_parent() {
    builder(6_000).check(|| {
        let trie = trie_with_mergeable_child();
        let (del, ins) = (Arc::clone(&trie), Arc::clone(&trie));
        let td = thread::spawn(move || {
            assert_eq!(del.remove(&encode_u64(66)), Some(66));
        });
        let ti = thread::spawn(move || {
            // Differs from every stored key in a higher bit than any of
            // them uses: a new entry of the root node itself.
            ins.insert(&encode_u64(1 << 20), 1 << 20);
        });
        td.join().unwrap();
        ti.join().unwrap();
        assert_eq!(trie.len(), 35);
        assert_contains(&trie, &[0, 62, 64, 65, 1 << 20]);
        assert_eq!(trie.get(&encode_u64(66)), None);
        let report = trie.check_invariants();
        assert_eq!((report.height, report.nodes), (2, 2));
    });
}

/// A wait-free reader may be inside the child when the merge dissolves it:
/// the obsolete child stays intact under the reader's pin, and the two
/// entries it still names are the ones the new parent names — the keys
/// that stay are found on every schedule.
#[test]
fn merge_races_reader_on_the_dissolved_child() {
    builder(6_000).check(|| {
        let trie = trie_with_mergeable_child();
        let (del, reader) = (Arc::clone(&trie), Arc::clone(&trie));
        let td = thread::spawn(move || {
            assert_eq!(del.remove(&encode_u64(66)), Some(66));
        });
        let tr = thread::spawn(move || {
            assert_eq!(reader.get(&encode_u64(64)), Some(64));
            assert_eq!(reader.get(&encode_u64(65)), Some(65));
            let racing = reader.get(&encode_u64(66));
            assert!(racing.is_none() || racing == Some(66));
        });
        td.join().unwrap();
        tr.join().unwrap();
        assert_eq!(trie.len(), 34);
        assert_contains(&trie, &[0, 62, 64, 65]);
        let report = trie.check_invariants();
        assert_eq!((report.height, report.nodes), (2, 2));
    });
}
