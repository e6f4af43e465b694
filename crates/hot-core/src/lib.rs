//! # HOT — Height Optimized Trie
//!
//! A from-scratch Rust implementation of the index structure of
//! *Binna, Zangerle, Pichl, Specht, Leis: "HOT: A Height Optimized Trie
//! Index for Main-Memory Database Systems" (SIGMOD 2018)*.
//!
//! The core idea: instead of a trie with a fixed span and data-dependent
//! fanout, HOT fixes the **maximum fanout** `k = 32` and lets the **span**
//! (the set of key bits each node inspects) adapt to the data. Every
//! compound node embeds a binary Patricia trie of up to `k - 1` BiNodes,
//! linearized into *sparse partial keys* that are searched with SIMD
//! compares after a single `PEXT`-based extraction of the search key's
//! discriminative bits. Structural adaptation on insert (normal insert,
//! leaf-node pushdown, parent pull-up, intermediate node creation) keeps the
//! overall height minimal: like a B-tree, the height only grows when a new
//! root is created.
//!
//! ## Entry points
//!
//! The trie is written once, over a storage seam (DESIGN.md §19), as one
//! struct, [`Hot`], with two access modes: [`Trie`], whose writes take
//! `&mut self` and free at once, and [`sync::Concurrent`], the ROWEX mode of
//! Section 5, whose writes take `&self`. The read face is the same body for
//! both; each mode has an alias per store:
//!
//! * [`HotTrie`] — `Trie` over heap nodes: the index mapping prefix-free
//!   byte keys to tuple identifiers, with the key bytes resolved back
//!   through a [`KeySource`](hot_keys::KeySource);
//! * [`CompactHot`] — `Trie` over slab arenas: 32-bit offset-word child
//!   references and inline front-coded leaf records, cutting bytes/key
//!   roughly in half while producing structurally identical trees (same
//!   [`structure_digest`](Hot::structure_digest));
//! * [`sync::ConcurrentHot`] — the ROWEX-synchronized mode over heap nodes:
//!   wait-free readers, lock-only-what-you-modify writers, epoch-based
//!   memory reclamation ([`sync::ConcurrentCompact`] is the same over the
//!   arena store).
//!
//! The index stores TIDs, never keys: a caller keeps its keys (and whatever
//! else a tuple holds) in its own store and hands the index a `KeySource`
//! that reads a key back from its TID.
//!
//! ```
//! use hot_core::HotTrie;
//! use hot_keys::{encode_u64, EmbeddedKeySource};
//!
//! let mut trie = HotTrie::new(EmbeddedKeySource);
//! for v in [42u64, 7, 13_000_000] {
//!     trie.insert(&encode_u64(v), v);
//! }
//! assert_eq!(trie.get(&encode_u64(7)), Some(7));
//! let in_order: Vec<u64> = trie.iter().collect();
//! assert_eq!(in_order, vec![7, 42, 13_000_000]);
//! ```

#![deny(missing_docs)]
#![warn(unreachable_pub)]

mod arena;
mod bulk;
mod invariants;
pub(crate) mod metrics;
mod mlp;
mod node;
mod scan;
mod shard;
mod store;
pub mod sync;
mod sync_shim;
mod trie;

pub use arena::{ArenaFull, ArenaKind, ArenaStats, ArenaStore, CompactHot};
pub use bulk::BulkLoadError;
pub use invariants::InvariantReport;
pub use node::NodeTag;
pub use shard::{RouterScratch, ShardedHot};
pub use store::{Backend, HeapStore};
pub use trie::{Cursor, Hot, HotTrie, Trie};
