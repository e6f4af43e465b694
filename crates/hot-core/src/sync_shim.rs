//! Atomic/lock-word primitives behind a model-checking switch.
//!
//! Everything the ROWEX protocol synchronizes through — node **lock
//! words**, node **value slots**, the **root word**, the published
//! **len** counter, and the writer **backoff** hints — imports its atomic
//! types from this module instead of `std::sync::atomic`. In a normal
//! build the re-exports *are* the `std` types (zero cost). Under the
//! `loom-model` cargo feature they swap to the vendored `loom` stand-ins,
//! whose every operation is a scheduler yield point, so
//! `tests/loom_rowex.rs` can exhaustively explore the protocol's
//! interleavings (see DESIGN.md §10).
//!
//! Two rules keep the swap sound:
//!
//! * The loom atomics are `#[repr(transparent)]` over the `std` atomics,
//!   so `RawNode::lock_word`'s cast from raw node memory is valid in both
//!   modes (this is guaranteed by the vendored crate, documented in its
//!   crate docs, and asserted by `layout_matches_std` below).
//! * Pure bookkeeping that is *not* part of the protocol — the
//!   [`MemCounter`](crate::node::MemCounter) allocation counters —
//!   deliberately stays on `std` atomics: instrumenting it would blow up
//!   the model's state space without adding any checked property.
//!
//! The epoch layer is *not* swapped: the vendored `crossbeam-epoch` is a
//! per-thread-epoch collector on `std` atomics (pin = one store and one
//! fence on the thread's own record; see its crate docs), so under the
//! model its operations are not yield points and it contributes no
//! schedules. That cannot mask a scheduling-dependent bug in the ROWEX
//! protocol itself — the collector never touches a shim atomic — but it
//! means the model takes "a deferred free waits for every earlier pin" as
//! given. That property is checked where it lives: the collector's own
//! unit tests (cross-thread, nested, re-entrant, thread-exit, 8-thread
//! stress), and the Miri, TSan and ASan lanes, which run them and
//! `sync::tests` with real orderings (DESIGN.md §10).

/// True when the ROWEX atomics are the model-checked loom types.
#[cfg(feature = "loom-model")]
pub const MODEL_CHECKING: bool = true;
/// True when the ROWEX atomics are the model-checked loom types.
#[cfg(not(feature = "loom-model"))]
pub const MODEL_CHECKING: bool = false;

#[cfg(feature = "loom-model")]
pub use loom::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

#[cfg(not(feature = "loom-model"))]
pub use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// One step of a contended writer's spin: a pause instruction normally, a
/// voluntary scheduler yield under the model (so the model's bounded
/// scheduler always lets the lock holder run).
#[inline]
pub fn spin_hint() {
    #[cfg(feature = "loom-model")]
    loom::hint::spin_loop();
    #[cfg(not(feature = "loom-model"))]
    std::hint::spin_loop();
}

/// Yield the OS thread (escalation step of the writer backoff).
#[inline]
pub fn yield_now() {
    #[cfg(feature = "loom-model")]
    loom::thread::yield_now();
    #[cfg(not(feature = "loom-model"))]
    std::thread::yield_now();
}

#[cfg(test)]
mod tests {
    /// `RawNode::lock_word` casts raw node memory to `&AtomicU32`; that is
    /// only sound while the shim's atomic is layout-identical to a `u32`.
    #[test]
    fn layout_matches_std() {
        assert_eq!(
            std::mem::size_of::<super::AtomicU32>(),
            std::mem::size_of::<u32>()
        );
        assert_eq!(
            std::mem::align_of::<super::AtomicU32>(),
            std::mem::align_of::<u32>()
        );
        assert_eq!(
            std::mem::size_of::<super::AtomicU64>(),
            std::mem::size_of::<u64>()
        );
        assert_eq!(
            std::mem::align_of::<super::AtomicU64>(),
            std::mem::align_of::<u64>()
        );
    }
}
