//! The six YCSB core workloads (Section 6.1).
//!
//! Each benchmark configuration has a **load phase** (insert all keys in
//! random order) and a **transaction phase** executing the workload's
//! operation mix over the loaded keys:
//!
//! | workload | mix |
//! |---|---|
//! | A | 50% read, 50% update |
//! | B | 95% read, 5% update |
//! | C | 100% read |
//! | D | 95% read (latest distribution), 5% insert |
//! | E | 95% range scan (up to 100 entries), 5% insert |
//! | F | 50% read, 50% read-modify-write |
//!
//! Request keys are drawn uniformly or Zipf-distributed ("Each benchmark
//! configuration is created in two variants"). Inserts during D and E
//! consume reserve keys generated alongside the load set, so the operation
//! stream is identical for every index structure.

use crate::zipf::{Latest, Zipfian};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The six core workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// 50% read, 50% update.
    A,
    /// 95% read, 5% update.
    B,
    /// Read-only.
    C,
    /// 95% latest-read, 5% insert.
    D,
    /// 95% short range scan, 5% insert.
    E,
    /// 50% read, 50% read-modify-write.
    F,
}

impl Workload {
    /// All six, in paper order.
    pub const ALL: [Workload; 6] = [
        Workload::A,
        Workload::B,
        Workload::C,
        Workload::D,
        Workload::E,
        Workload::F,
    ];

    /// Figure label, e.g. `"A (50% lookup, 50% update)"`.
    pub fn label(self) -> &'static str {
        match self {
            Workload::A => "A (50% lookup, 50% update)",
            Workload::B => "B (95% lookup, 5% update)",
            Workload::C => "C (100% lookup)",
            Workload::D => "D (95% latest-read, 5% insert)",
            Workload::E => "E (95% scan, 5% insert)",
            Workload::F => "F (50% lookup, 50% read-mod-write)",
        }
    }

    /// Fraction of operations that insert new keys.
    fn insert_fraction(self) -> f64 {
        match self {
            Workload::D | Workload::E => 0.05,
            _ => 0.0,
        }
    }

    /// The bare letter, e.g. `"A"` (the [`label`](Self::label) is the
    /// long figure caption).
    pub fn letter(self) -> &'static str {
        match self {
            Workload::A => "A",
            Workload::B => "B",
            Workload::C => "C",
            Workload::D => "D",
            Workload::E => "E",
            Workload::F => "F",
        }
    }
}

impl std::str::FromStr for Workload {
    type Err = String;

    /// Parse a workload letter (`"A"`..`"F"`, case-insensitive) — the
    /// CLI convention of the network YCSB driver's `--workloads` list.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Workload::ALL
            .into_iter()
            .find(|w| w.letter().eq_ignore_ascii_case(s))
            .ok_or_else(|| format!("unknown workload {s:?} (expected A-F)"))
    }
}

/// How request keys are selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestDistribution {
    /// Uniform over the loaded keys.
    Uniform,
    /// Scrambled Zipfian (θ = 0.99).
    Zipfian,
}

impl RequestDistribution {
    /// Both variants, in paper order.
    pub const ALL: [RequestDistribution; 2] =
        [RequestDistribution::Uniform, RequestDistribution::Zipfian];

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            RequestDistribution::Uniform => "uniform",
            RequestDistribution::Zipfian => "zipf",
        }
    }
}

/// One benchmark operation. Key indices refer to the run's key universe
/// (load keys first, then the insert reserve in order of consumption).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operation {
    /// Point lookup of key `idx`.
    Read(usize),
    /// Value update for key `idx` (upsert of a fresh TID in the paper's
    /// setup).
    Update(usize),
    /// Insert of reserve key `idx`.
    Insert(usize),
    /// Range scan starting at key `idx`, fetching up to `len` entries.
    Scan(usize, usize),
    /// Read-modify-write of key `idx`.
    ReadModifyWrite(usize),
}

/// Maximum scan length of workload E ("range scans accessing up to 100
/// elements").
const MAX_SCAN_LEN: usize = 100;

/// A fully materialized benchmark configuration: the operation stream of
/// the transaction phase.
pub struct WorkloadRun {
    workload: Workload,
    distribution: RequestDistribution,
    loaded: usize,
    ops: usize,
    seed: u64,
}

impl WorkloadRun {
    /// Configure a transaction phase over `loaded` keys executing `ops`
    /// operations.
    pub fn new(
        workload: Workload,
        distribution: RequestDistribution,
        loaded: usize,
        ops: usize,
        seed: u64,
    ) -> WorkloadRun {
        WorkloadRun {
            workload,
            distribution,
            loaded,
            ops,
            seed,
        }
    }

    /// Number of reserve (insert) keys the run consumes at most; generate
    /// the dataset with `loaded + reserve` keys.
    pub fn reserve_keys(&self) -> usize {
        if self.workload.insert_fraction() > 0.0 {
            // 5% expected, leave slack for randomness.
            self.ops / 16 + self.ops / 100 + 64
        } else {
            0
        }
    }

    /// The operation stream (deterministic for the configuration).
    pub fn operations(&self) -> OperationStream {
        let rng = StdRng::seed_from_u64(self.seed ^ 0x5EED_0055u64);
        OperationStream {
            workload: self.workload,
            distribution: self.distribution,
            zipf: match self.distribution {
                RequestDistribution::Zipfian => {
                    Some(Zipfian::with_default_theta(self.loaded as u64))
                }
                RequestDistribution::Uniform => None,
            },
            latest: matches!(self.workload, Workload::D).then(|| Latest::new(self.loaded as u64)),
            rng,
            loaded: self.loaded,
            next_insert: self.loaded,
            remaining: self.ops,
        }
    }
}

/// Iterator over the transaction-phase operations.
pub struct OperationStream {
    workload: Workload,
    distribution: RequestDistribution,
    zipf: Option<Zipfian>,
    latest: Option<Latest>,
    rng: StdRng,
    loaded: usize,
    next_insert: usize,
    remaining: usize,
}

impl OperationStream {
    /// Pick a request key among the currently existing keys.
    fn pick_key(&mut self) -> usize {
        if let Some(latest) = &self.latest {
            return latest.next(&mut self.rng, self.next_insert as u64) as usize;
        }
        match self.distribution {
            RequestDistribution::Uniform => self.rng.gen_range(0..self.next_insert),
            RequestDistribution::Zipfian => {
                let z = self.zipf.as_ref().expect("zipfian configured");
                z.next_scrambled(&mut self.rng) as usize
            }
        }
    }
}

impl Iterator for OperationStream {
    type Item = Operation;

    fn next(&mut self) -> Option<Operation> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let roll: f64 = self.rng.gen();
        let op = match self.workload {
            Workload::A => {
                let key = self.pick_key();
                if roll < 0.5 {
                    Operation::Read(key)
                } else {
                    Operation::Update(key)
                }
            }
            Workload::B => {
                let key = self.pick_key();
                if roll < 0.95 {
                    Operation::Read(key)
                } else {
                    Operation::Update(key)
                }
            }
            Workload::C => Operation::Read(self.pick_key()),
            Workload::D => {
                if roll < 0.95 {
                    Operation::Read(self.pick_key())
                } else {
                    let idx = self.next_insert;
                    self.next_insert += 1;
                    Operation::Insert(idx)
                }
            }
            Workload::E => {
                if roll < 0.95 {
                    let len = self.rng.gen_range(1..=MAX_SCAN_LEN);
                    Operation::Scan(self.pick_key(), len)
                } else {
                    let idx = self.next_insert;
                    self.next_insert += 1;
                    Operation::Insert(idx)
                }
            }
            Workload::F => {
                let key = self.pick_key();
                if roll < 0.5 {
                    Operation::Read(key)
                } else {
                    Operation::ReadModifyWrite(key)
                }
            }
        };
        Some(op)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }

    // `loaded` documents the initial key count; keep it reachable for
    // introspection in tests.
}

impl OperationStream {
    /// Number of keys loaded before the transaction phase.
    pub fn loaded(&self) -> usize {
        self.loaded
    }
}

/// An operation-stream item after read/scan coalescing: runs of consecutive
/// point reads are grouped so the index can resolve them with one
/// memory-level-parallel `get_batch` call, runs of consecutive range scans
/// are grouped for one `scan_batch` call, and everything else passes through
/// unchanged and in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchedOperation {
    /// `1..=max_batch` consecutive point reads (key indices in stream
    /// order, duplicates allowed).
    Reads(Vec<usize>),
    /// `1..=max_batch` consecutive range scans `(start key index, limit)`
    /// in stream order — the workload E fast path.
    Scans(Vec<(usize, usize)>),
    /// Any other operation, at its original position in the stream.
    Other(Operation),
}

/// Iterator adapter coalescing consecutive [`Operation::Read`]s and
/// consecutive [`Operation::Scan`]s.
///
/// Because operations are *not* reordered (a batch ends at the first
/// operation of a different kind), executing a batched stream is
/// observationally identical to executing the scalar stream — required for
/// the checksums in the benchmark driver to match between the two paths.
pub struct ReadBatches {
    inner: OperationStream,
    /// An operation of another kind pulled while closing the previous batch.
    pending: Option<Operation>,
    max_batch: usize,
}

impl Iterator for ReadBatches {
    type Item = BatchedOperation;

    fn next(&mut self) -> Option<BatchedOperation> {
        let first = match self.pending.take() {
            Some(op) => op,
            None => self.inner.next()?,
        };
        match first {
            Operation::Read(idx) => {
                let mut reads: Vec<usize> = vec![idx];
                while reads.len() < self.max_batch {
                    match self.inner.next() {
                        Some(Operation::Read(idx)) => reads.push(idx),
                        Some(other) => {
                            self.pending = Some(other);
                            break;
                        }
                        None => break,
                    }
                }
                Some(BatchedOperation::Reads(reads))
            }
            Operation::Scan(idx, len) => {
                let mut scans: Vec<(usize, usize)> = vec![(idx, len)];
                while scans.len() < self.max_batch {
                    match self.inner.next() {
                        Some(Operation::Scan(idx, len)) => scans.push((idx, len)),
                        Some(other) => {
                            self.pending = Some(other);
                            break;
                        }
                        None => break,
                    }
                }
                Some(BatchedOperation::Scans(scans))
            }
            other => Some(BatchedOperation::Other(other)),
        }
    }
}

impl WorkloadRun {
    /// The operation stream with consecutive reads (and consecutive scans)
    /// coalesced into batches of at most `max_batch` (≥ 1). Yields the same
    /// operations as [`operations`](WorkloadRun::operations), in the same
    /// order.
    pub fn batched_operations(&self, max_batch: usize) -> ReadBatches {
        assert!(max_batch >= 1, "batch size must be at least 1");
        ReadBatches {
            inner: self.operations(),
            pending: None,
            max_batch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(run: &WorkloadRun) -> (usize, usize, usize, usize, usize) {
        let (mut r, mut u, mut i, mut s, mut m) = (0, 0, 0, 0, 0);
        for op in run.operations() {
            match op {
                Operation::Read(_) => r += 1,
                Operation::Update(_) => u += 1,
                Operation::Insert(_) => i += 1,
                Operation::Scan(..) => s += 1,
                Operation::ReadModifyWrite(_) => m += 1,
            }
        }
        (r, u, i, s, m)
    }

    #[test]
    fn operation_mixes_match_specification() {
        let n = 100_000;
        let loaded = 10_000;
        let tol = |x: usize, expect: f64| {
            let got = x as f64 / n as f64;
            (got - expect).abs() < 0.01
        };

        let (r, u, i, s, m) = mix(&WorkloadRun::new(
            Workload::A,
            RequestDistribution::Uniform,
            loaded,
            n,
            1,
        ));
        assert!(tol(r, 0.5) && tol(u, 0.5) && i == 0 && s == 0 && m == 0);

        let (r, u, ..) = mix(&WorkloadRun::new(
            Workload::B,
            RequestDistribution::Uniform,
            loaded,
            n,
            1,
        ));
        assert!(tol(r, 0.95) && tol(u, 0.05));

        let (r, u, i, s, m) = mix(&WorkloadRun::new(
            Workload::C,
            RequestDistribution::Zipfian,
            loaded,
            n,
            1,
        ));
        assert!(r == n && u == 0 && i == 0 && s == 0 && m == 0);

        let (r, _, i, ..) = mix(&WorkloadRun::new(
            Workload::D,
            RequestDistribution::Uniform,
            loaded,
            n,
            1,
        ));
        assert!(tol(r, 0.95) && tol(i, 0.05));

        let (_, _, i, s, _) = mix(&WorkloadRun::new(
            Workload::E,
            RequestDistribution::Uniform,
            loaded,
            n,
            1,
        ));
        assert!(tol(s, 0.95) && tol(i, 0.05));

        let (r, _, _, _, m) = mix(&WorkloadRun::new(
            Workload::F,
            RequestDistribution::Zipfian,
            loaded,
            n,
            1,
        ));
        assert!(tol(r, 0.5) && tol(m, 0.5));
    }

    #[test]
    fn insert_indices_are_sequential_reserve_keys() {
        let run = WorkloadRun::new(Workload::D, RequestDistribution::Uniform, 1_000, 10_000, 2);
        let mut expected = 1_000;
        let mut inserts = 0;
        for op in run.operations() {
            match op {
                Operation::Insert(idx) => {
                    assert_eq!(idx, expected);
                    expected += 1;
                    inserts += 1;
                }
                Operation::Read(idx) => assert!(idx < expected, "reads only touch existing keys"),
                _ => {}
            }
        }
        assert!(inserts <= run.reserve_keys(), "reserve covers all inserts");
    }

    #[test]
    fn scan_lengths_bounded_by_100() {
        let run = WorkloadRun::new(Workload::E, RequestDistribution::Uniform, 1_000, 20_000, 3);
        let mut max_len = 0;
        for op in run.operations() {
            if let Operation::Scan(idx, len) = op {
                assert!((1..=MAX_SCAN_LEN).contains(&len));
                assert!(idx < 1_000 + run.reserve_keys());
                max_len = max_len.max(len);
            }
        }
        assert!(max_len > 90, "scan lengths cover the full range");
    }

    #[test]
    fn zipfian_requests_are_skewed() {
        let run = WorkloadRun::new(
            Workload::C,
            RequestDistribution::Zipfian,
            10_000,
            100_000,
            4,
        );
        let mut counts = std::collections::HashMap::new();
        for op in run.operations() {
            if let Operation::Read(idx) = op {
                *counts.entry(idx).or_insert(0u32) += 1;
            }
        }
        let max = counts.values().max().copied().unwrap_or(0) as f64;
        // The hottest key draws far more than uniform share (10 per key).
        assert!(max > 1_000.0, "hottest key drew {max}");
    }

    #[test]
    fn latest_reads_follow_recent_inserts() {
        let run = WorkloadRun::new(Workload::D, RequestDistribution::Uniform, 10_000, 50_000, 5);
        let mut live = 10_000usize;
        let mut recent_reads = 0usize;
        let mut reads = 0usize;
        for op in run.operations() {
            match op {
                Operation::Insert(_) => live += 1,
                Operation::Read(idx) => {
                    reads += 1;
                    if idx + 100 >= live {
                        recent_reads += 1;
                    }
                }
                _ => {}
            }
        }
        assert!(
            recent_reads as f64 / reads as f64 > 0.3,
            "latest distribution prefers recent keys"
        );
    }

    #[test]
    fn batched_stream_preserves_operation_order() {
        for workload in Workload::ALL {
            let run = WorkloadRun::new(workload, RequestDistribution::Uniform, 2_000, 20_000, 9);
            let scalar: Vec<Operation> = run.operations().collect();
            let mut replayed = Vec::with_capacity(scalar.len());
            for item in run.batched_operations(8) {
                match item {
                    BatchedOperation::Reads(idxs) => {
                        assert!(!idxs.is_empty() && idxs.len() <= 8);
                        replayed.extend(idxs.into_iter().map(Operation::Read));
                    }
                    BatchedOperation::Scans(reqs) => {
                        assert!(!reqs.is_empty() && reqs.len() <= 8);
                        replayed
                            .extend(reqs.into_iter().map(|(idx, len)| Operation::Scan(idx, len)));
                    }
                    BatchedOperation::Other(op) => {
                        assert!(!matches!(op, Operation::Read(_) | Operation::Scan(..)));
                        replayed.push(op);
                    }
                }
            }
            assert_eq!(replayed, scalar, "workload {workload:?}");
        }
    }

    #[test]
    fn read_only_stream_fills_whole_batches() {
        let run = WorkloadRun::new(Workload::C, RequestDistribution::Uniform, 1_000, 1_003, 11);
        let batches: Vec<BatchedOperation> = run.batched_operations(16).collect();
        // 1003 reads → 62 full batches of 16 plus a tail of 11.
        assert_eq!(batches.len(), 63);
        for (i, b) in batches.iter().enumerate() {
            match b {
                BatchedOperation::Reads(idxs) => {
                    assert_eq!(idxs.len(), if i < 62 { 16 } else { 11 });
                }
                _ => panic!("workload C is read-only"),
            }
        }
    }

    #[test]
    fn batch_of_one_degenerates_to_scalar_stream() {
        let run = WorkloadRun::new(Workload::A, RequestDistribution::Zipfian, 1_000, 5_000, 13);
        let scalar: Vec<Operation> = run.operations().collect();
        let singles: Vec<Operation> = run
            .batched_operations(1)
            .map(|item| match item {
                BatchedOperation::Reads(idxs) => {
                    assert_eq!(idxs.len(), 1);
                    Operation::Read(idxs[0])
                }
                BatchedOperation::Scans(reqs) => {
                    assert_eq!(reqs.len(), 1);
                    Operation::Scan(reqs[0].0, reqs[0].1)
                }
                BatchedOperation::Other(op) => op,
            })
            .collect();
        assert_eq!(singles, scalar);
    }

    #[test]
    fn scan_heavy_stream_coalesces_scans() {
        // Workload E is 95% scans: most batched items must be full scan
        // groups, and inserts must stay at their original positions.
        let run = WorkloadRun::new(Workload::E, RequestDistribution::Uniform, 2_000, 20_000, 17);
        let mut scan_groups = 0usize;
        let mut full_groups = 0usize;
        let mut scans = 0usize;
        for item in run.batched_operations(8) {
            match item {
                BatchedOperation::Scans(reqs) => {
                    scan_groups += 1;
                    scans += reqs.len();
                    if reqs.len() == 8 {
                        full_groups += 1;
                    }
                }
                BatchedOperation::Other(op) => {
                    assert!(
                        matches!(op, Operation::Insert(_)),
                        "E mixes scans and inserts only"
                    );
                }
                BatchedOperation::Reads(_) => panic!("workload E has no point reads"),
            }
        }
        assert!(scans > 18_000, "95% of 20k ops are scans");
        // With a 5% insert rate the expected scan-run length is ~19, so a
        // clear majority of groups arrive full (a run of length L yields
        // ⌊L/8⌋ full groups plus at most one partial one).
        assert!(full_groups * 2 > scan_groups, "most scan groups are full");
    }

    #[test]
    fn streams_are_deterministic() {
        let mk = || {
            WorkloadRun::new(Workload::A, RequestDistribution::Zipfian, 5_000, 1_000, 7)
                .operations()
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }
}
