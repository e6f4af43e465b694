//! Shared statistics types for the evaluation harness.

/// Histogram of leaf depths — "the depth distribution of leaf values, which
/// is a measure of how balanced a tree is" (Section 6.5, Figure 11).
///
/// Depth 1 means the leaf hangs directly off the root node.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DepthStats {
    counts: Vec<u64>,
}

impl DepthStats {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one leaf at `depth`.
    pub fn record(&mut self, depth: usize) {
        if self.counts.len() <= depth {
            self.counts.resize(depth + 1, 0);
        }
        self.counts[depth] += 1;
    }

    /// Record `n` leaves at `depth`.
    pub fn record_n(&mut self, depth: usize, n: u64) {
        if self.counts.len() <= depth {
            self.counts.resize(depth + 1, 0);
        }
        self.counts[depth] += n;
    }

    /// Total number of leaves recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Smallest depth with at least one leaf.
    pub fn min_depth(&self) -> Option<usize> {
        self.counts.iter().position(|&c| c > 0)
    }

    /// Largest depth with at least one leaf (the overall tree height).
    pub fn max_depth(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }

    /// Mean leaf depth.
    pub fn mean_depth(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(d, &c)| d as u64 * c)
            .sum();
        weighted as f64 / total as f64
    }
}

impl std::fmt::Display for DepthStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "leaves={} depth[min={} mean={:.2} max={}]",
            self.total(),
            self.min_depth().unwrap_or(0),
            self.mean_depth(),
            self.max_depth().unwrap_or(0),
        )
    }
}

/// Memory-footprint accounting reported by every index structure, matching
/// what Figure 9 measures ("custom code … that allows computing the memory
/// consumption without impacting the runtime behavior").
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemoryStats {
    /// Bytes in live tree nodes (headers, masks, partial keys, value slots).
    pub node_bytes: usize,
    /// Number of live tree nodes.
    pub node_count: usize,
    /// Bytes of auxiliary index-owned storage (e.g. leaf records of an
    /// owning map wrapper); zero for TID-only indexes.
    pub aux_bytes: usize,
    /// Number of keys indexed.
    pub key_count: usize,
    /// Bytes the index's allocator has reserved from the OS, including
    /// slack not yet occupied by live data (0 when the index has no
    /// arena-level accounting — i.e. reservation tracks live bytes).
    pub capacity_bytes: usize,
}

impl MemoryStats {
    /// Total index footprint in bytes.
    pub fn total_bytes(&self) -> usize {
        self.node_bytes + self.aux_bytes
    }

    /// Allocator-level footprint: reserved capacity where tracked, else
    /// the live-byte total. This is what fig9 reports — what the process
    /// actually holds, not a `size_of` summation.
    pub fn footprint_bytes(&self) -> usize {
        self.capacity_bytes.max(self.total_bytes())
    }

    /// Allocator-level bytes per key (see
    /// [`footprint_bytes`](Self::footprint_bytes)).
    pub fn footprint_per_key(&self) -> f64 {
        if self.key_count == 0 {
            return 0.0;
        }
        self.footprint_bytes() as f64 / self.key_count as f64
    }

    /// Index bytes per key — the paper's headline space metric
    /// ("between 11.4 and 14.4 bytes per key" for HOT).
    pub fn bytes_per_key(&self) -> f64 {
        if self.key_count == 0 {
            return 0.0;
        }
        self.total_bytes() as f64 / self.key_count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let s = DepthStats::new();
        assert_eq!(s.total(), 0);
        assert_eq!(s.min_depth(), None);
        assert_eq!(s.max_depth(), None);
        assert_eq!(s.mean_depth(), 0.0);
    }

    #[test]
    fn record_and_aggregate() {
        let mut s = DepthStats::new();
        s.record(1);
        s.record(1);
        s.record(3);
        assert_eq!(s.total(), 3);
        assert_eq!(s.min_depth(), Some(1));
        assert_eq!(s.max_depth(), Some(3));
        assert!((s.mean_depth() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn memory_stats_bytes_per_key() {
        let m = MemoryStats {
            node_bytes: 1150,
            node_count: 10,
            aux_bytes: 0,
            key_count: 100,
            capacity_bytes: 0,
        };
        assert_eq!(m.total_bytes(), 1150);
        assert!((m.bytes_per_key() - 11.5).abs() < 1e-12);
        assert_eq!(m.footprint_bytes(), 1150);
        let reserved = MemoryStats {
            capacity_bytes: 2048,
            ..m
        };
        assert_eq!(reserved.footprint_bytes(), 2048);
        assert!((reserved.footprint_per_key() - 20.48).abs() < 1e-12);
    }
}
