//! The server's tuple store: a deterministic key corpus shared with the
//! client by construction.
//!
//! HOT is a *secondary index*: it stores TIDs, and key bytes live in the
//! DBMS tuple store (the [`ArenaKeySource`]). A network front-end has to
//! preserve that indirection — a PUT carries a TID, not a value — which
//! raises the question of where the TIDs come from. The answer here mirrors
//! the benchmark harness: server and client both materialize the *same*
//! dataset from the same `(kind, keys, ops, seed)` tuple, so every key
//! index maps to the same arena offset on both sides. The client can then
//! drive the YCSB workloads over the wire with nothing but key indices,
//! and the in-process driver over the identical corpus is the ground truth
//! its checksums are compared against.
//!
//! The arena holds `keys + reserve` records: the first `keys` are
//! bulk-loaded into the index at startup, the reserve tail backs the
//! insert fraction of workloads D/E (sized exactly like the in-process
//! harness sizes it).

use hot_keys::ArenaKeySource;
use hot_ycsb::{Dataset, DatasetKind, RequestDistribution, Workload, WorkloadRun};
use std::sync::Arc;

/// The materialized corpus: dataset, tuple arena and the TID for every
/// key index. Identical on server and client for equal `(kind, keys,
/// ops, seed)` — the invariant all checksum parity rests on.
pub struct NetData {
    /// The generated key set (`loaded + reserve` keys).
    pub dataset: Dataset,
    /// Tuple store the index resolves keys from.
    pub arena: Arc<ArenaKeySource>,
    /// TID per key index (the key's arena offset).
    pub tids: Vec<u64>,
    /// Number of keys bulk-loaded at startup; `dataset.keys[loaded..]`
    /// is the insert reserve.
    pub loaded: usize,
}

/// Materialize the corpus for a serving session of `keys` loaded keys and
/// up to `ops` operations per workload phase.
///
/// The insert reserve is sized by workload E (the largest insert consumer
/// among A–E) so one corpus serves any phase sequence the driver runs;
/// D/E phases re-consume the same reserve indices, and since PUT is an
/// idempotent upsert of `key → tid` that is harmless.
pub fn net_data_for(kind: DatasetKind, keys: usize, ops: usize, seed: u64) -> NetData {
    let reserve =
        WorkloadRun::new(Workload::E, RequestDistribution::Uniform, keys, ops, seed).reserve_keys();
    let dataset = Dataset::generate(kind, keys + reserve, seed);
    let mut arena =
        ArenaKeySource::with_capacity(dataset.keys.len(), dataset.avg_key_len().ceil() as usize);
    let tids: Vec<u64> = dataset.keys.iter().map(|k| arena.push(k)).collect();
    NetData {
        dataset,
        arena: Arc::new(arena),
        tids,
        loaded: keys,
    }
}

impl NetData {
    /// The first `loaded` entries in key order, ready for
    /// [`hot_core::ShardedHot::bulk_load`]: the TIDs sorted by their
    /// arena-resident key bytes, each paired with that key.
    pub fn sorted_entries(&self) -> Vec<(&[u8], u64)> {
        let mut tids = self.tids[..self.loaded].to_vec();
        hot_keys::sort_by_key(&mut tids, |tid| self.arena.key(tid));
        tids.into_iter()
            .map(|tid| (self.arena.key(tid), tid))
            .collect()
    }
}
