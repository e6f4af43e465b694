//! Feature-gated instrumentation shim (DESIGN.md §13).
//!
//! Every instrumented call site in `trie.rs`, `sync.rs` and friends goes
//! through this module so the two build flavours stay source-identical:
//!
//! * with the `metrics` cargo feature, [`Metrics`] wraps an
//!   `Arc<hot_metrics::Registry>` and records operation latencies, item
//!   counts and ROWEX health counters;
//! * without it (the default), [`Metrics`] is a zero-sized `Copy` struct
//!   whose methods are empty `#[inline(always)]` bodies and whose timer
//!   type has no `Drop` — the optimizer erases every trace, the structs
//!   gain no field bytes, and `hot-metrics` is not even compiled
//!   (`cargo xtask verify-no-metrics` proves the symbols are absent).
//!
//! Instrumentation lives on the *public wrapper* methods (`get`,
//! `insert`, `scan_into`, …), never on the internal descent paths, so
//! internal reuse (e.g. the invariant walker re-looking-up every key)
//! does not inflate the operation counters.

#[cfg(not(feature = "metrics"))]
pub(crate) use disabled::Metrics;
#[cfg(feature = "metrics")]
pub(crate) use enabled::Metrics;

/// Operation kinds, mirrored so call sites compile in both flavours.
#[cfg(feature = "metrics")]
pub(crate) use hot_metrics::OpKind;
#[cfg(feature = "metrics")]
pub(crate) use hot_metrics::RowexCounter;
#[cfg(feature = "metrics")]
pub(crate) use hot_metrics::SchedCounter;

/// Operation kinds (no-op flavour).
#[cfg(not(feature = "metrics"))]
#[derive(Debug, Clone, Copy)]
#[allow(
    dead_code,
    reason = "mirror of hot_metrics::OpKind; variants are named at call sites"
)]
pub(crate) enum OpKind {
    /// Point lookup.
    Get,
    /// Upsert.
    Insert,
    /// Deletion.
    Remove,
    /// Range scan.
    Scan,
    /// Batched point lookups.
    GetBatch,
    /// Batched range scans.
    ScanBatch,
    /// Sorted bulk load.
    BulkLoad,
}

/// ROWEX health counters (no-op flavour).
#[cfg(not(feature = "metrics"))]
#[derive(Debug, Clone, Copy)]
#[allow(
    dead_code,
    reason = "mirror of hot_metrics::RowexCounter; variants are named at call sites"
)]
pub(crate) enum RowexCounter {
    /// Failed node-lock acquisition.
    LockFail,
    /// Optimistic write attempt restarted.
    Restart,
    /// Obsolete marker observed during validation.
    ObsoleteSeen,
    /// Epoch pinned.
    EpochPin,
    /// Node handed to the deferred-free queue.
    DeferredQueued,
    /// Deferred free executed.
    DeferredFreed,
}

/// MLP scheduler health counters (no-op flavour).
#[cfg(not(feature = "metrics"))]
#[derive(Debug, Clone, Copy)]
#[allow(
    dead_code,
    reason = "mirror of hot_metrics::SchedCounter; variants are named at call sites"
)]
pub(crate) enum SchedCounter {
    /// Lane loaded with a pending request.
    Refill,
    /// Lookup descent completed.
    LookupDone,
    /// Scan-seek descent completed.
    ScanSeekDone,
    /// Re-descent after a torn-slot observation.
    Redescent,
}

/// Convert an invariant-walk report into the structural gauges a
/// [`hot_metrics::MetricsSnapshot`] carries (trailing-zero depth slots
/// trimmed for tidy JSON).
#[cfg(feature = "metrics")]
pub(crate) fn structural_snapshot(
    report: &crate::InvariantReport,
) -> hot_metrics::StructuralSnapshot {
    let mut layout_census = [0u64; 9];
    for (out, &n) in layout_census.iter_mut().zip(report.layout_census.iter()) {
        *out = n as u64;
    }
    let last = report
        .leaf_depths
        .iter()
        .rposition(|&n| n != 0)
        .map_or(0, |i| i + 1);
    hot_metrics::StructuralSnapshot {
        nodes: report.nodes as u64,
        leaves: report.leaves as u64,
        height: report.height as u64,
        entries: report.entries as u64,
        layout_census,
        leaf_depths: report.leaf_depths[..last]
            .iter()
            .map(|&n| n as u64)
            .collect(),
    }
}

#[cfg(feature = "metrics")]
mod enabled {
    use std::sync::Arc;

    /// Recording handle: a shared sharded registry.
    #[derive(Clone)]
    pub(crate) struct Metrics(pub(crate) Arc<hot_metrics::Registry>);

    impl Metrics {
        #[inline]
        pub(crate) fn new() -> Metrics {
            Metrics(Arc::new(hot_metrics::Registry::new()))
        }

        /// Time one operation; records on scope exit. The guard owns an
        /// `Arc` to the registry so it coexists with `&mut self` methods
        /// on the instrumented structure.
        #[inline]
        pub(crate) fn timer(&self, op: super::OpKind) -> hot_metrics::SharedOpTimer {
            hot_metrics::SharedOpTimer::new(Arc::clone(&self.0), op)
        }

        /// Add to an operation's items counter.
        #[inline]
        pub(crate) fn items(&self, op: super::OpKind, n: u64) {
            self.0.add_items(op, n);
        }

        /// Increment a ROWEX counter.
        #[inline]
        pub(crate) fn incr(&self, c: super::RowexCounter) {
            self.0.incr(c);
        }

        /// Increment an MLP scheduler health counter.
        #[inline]
        pub(crate) fn sched(&self, c: super::SchedCounter) {
            self.0.incr_sched(c);
        }

        /// Record one lane-occupancy sample.
        #[inline]
        pub(crate) fn occupancy(&self, busy: usize) {
            self.0.record_occupancy(busy);
        }

        /// An owned handle to move into a deferred closure (clones the
        /// `Arc`; the no-op flavour just copies the ZST).
        #[inline]
        pub(crate) fn handle(&self) -> Metrics {
            Metrics(Arc::clone(&self.0))
        }
    }
}

#[cfg(not(feature = "metrics"))]
mod disabled {
    /// Zero-sized no-op recording handle.
    #[derive(Clone, Copy)]
    pub(crate) struct Metrics;

    /// Zero-sized timer with no `Drop`: binding it is free.
    pub(crate) struct NoopTimer;

    impl Metrics {
        #[inline(always)]
        pub(crate) fn new() -> Metrics {
            Metrics
        }

        #[inline(always)]
        pub(crate) fn timer(&self, _op: super::OpKind) -> NoopTimer {
            NoopTimer
        }

        #[inline(always)]
        pub(crate) fn items(&self, _op: super::OpKind, _n: u64) {}

        #[inline(always)]
        pub(crate) fn incr(&self, _c: super::RowexCounter) {}

        #[inline(always)]
        pub(crate) fn sched(&self, _c: super::SchedCounter) {}

        #[inline(always)]
        pub(crate) fn occupancy(&self, _busy: usize) {}

        #[inline(always)]
        pub(crate) fn handle(&self) -> Metrics {
            Metrics
        }
    }
}
