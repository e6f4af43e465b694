//! Instruction-set selection for the descent kernels: one choice per call.
//!
//! A HOT descent step is a handful of instructions — one `PEXT`, one SIMD
//! compare, one load (Sections 4.3 and 4.5) — so the step cannot afford a
//! feature check in front of each primitive, nor an out-of-line call into
//! a `#[target_feature]` function for each. Instead a descent loop is
//! written once as an `#[inline(always)]` body generic over a [`Kernel`],
//! and its entry point matches on [`Features::isa`](crate::Features::isa)
//! **once**: the [`Avx2`] arm calls a `#[target_feature(enable =
//! "avx2,bmi1,bmi2,lzcnt,popcnt")]` instantiation of the body, into which
//! the intrinsics inline; the [`Portable`] arm runs the same body over
//! the scalar implementations (non-x86 targets, CPUs without the
//! features, `HOT_FORCE_SCALAR`).

use crate::pext::pext64_scalar;
use crate::search::{search_subset_u16_scalar, search_subset_u32_scalar, search_subset_u8_scalar};

/// The primitives of one descent step, implemented once per instruction
/// set. Values are zero-sized proofs that the instruction set is usable.
pub trait Kernel: Copy {
    /// Parallel bit extract (see [`crate::pext`]).
    fn pext64(self, x: u64, mask: u64) -> u64;

    /// Index of the highest of the `n` sparse partial keys at `pkeys`,
    /// each `WIDTH` bytes wide (1, 2 or 4), that is a bit-subset of
    /// `dense`; 0 when none is (see [`crate::search`]).
    ///
    /// # Safety
    /// `n` must be in `1..=32`, `pkeys` aligned to `WIDTH`, and the
    /// width's padded length ([`PADDED_BYTES_U8`](crate::search::PADDED_BYTES_U8)
    /// and siblings) readable from it.
    unsafe fn search_subset<const WIDTH: usize>(
        self,
        pkeys: *const u8,
        n: usize,
        dense: u32,
    ) -> usize;
}

/// The portable kernel: scalar code only, usable everywhere. Also the
/// reference the accelerated kernel is tested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Portable;

impl Kernel for Portable {
    #[inline(always)]
    fn pext64(self, x: u64, mask: u64) -> u64 {
        pext64_scalar(x, mask)
    }

    /// # Safety
    /// As [`Kernel::search_subset`].
    #[inline(always)]
    unsafe fn search_subset<const WIDTH: usize>(
        self,
        pkeys: *const u8,
        n: usize,
        dense: u32,
    ) -> usize {
        // SAFETY: the caller guarantees `n` aligned entries of `WIDTH`
        // bytes are readable from `pkeys`.
        unsafe {
            match WIDTH {
                1 => search_subset_u8_scalar(core::slice::from_raw_parts(pkeys, n), n, dense as u8),
                2 => search_subset_u16_scalar(
                    core::slice::from_raw_parts(pkeys as *const u16, n),
                    n,
                    dense as u16,
                ),
                _ => search_subset_u32_scalar(
                    core::slice::from_raw_parts(pkeys as *const u32, n),
                    n,
                    dense,
                ),
            }
        }
    }
}

/// The x86-64 kernel: BMI2 `PEXT` and AVX2 compares. A value exists only
/// where detection found every feature [`Avx2::detect`] checks, which is
/// what makes calling a function compiled for those features sound.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Avx2(());

#[cfg(target_arch = "x86_64")]
impl Avx2 {
    /// The token, if this CPU has AVX2, BMI1, BMI2, LZCNT and POPCNT — the
    /// feature set the descent bodies are compiled for. Ignores
    /// `HOT_FORCE_SCALAR`; [`features`](fn@crate::features) is the selection
    /// that honours it.
    pub fn detect() -> Option<Avx2> {
        (std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("bmi1")
            && std::arch::is_x86_feature_detected!("bmi2")
            && std::arch::is_x86_feature_detected!("lzcnt")
            && std::arch::is_x86_feature_detected!("popcnt"))
        .then_some(Avx2(()))
    }
}

#[cfg(target_arch = "x86_64")]
impl Kernel for Avx2 {
    #[inline(always)]
    fn pext64(self, x: u64, mask: u64) -> u64 {
        // SAFETY: the token proves BMI2 was detected.
        unsafe { crate::pext::pext64_bmi2(x, mask) }
    }

    /// # Safety
    /// As [`Kernel::search_subset`].
    #[inline(always)]
    unsafe fn search_subset<const WIDTH: usize>(
        self,
        pkeys: *const u8,
        n: usize,
        dense: u32,
    ) -> usize {
        use crate::search::avx2;
        // SAFETY: the token proves AVX2 was detected; the caller's
        // readable-bytes contract covers the vector loads.
        unsafe {
            match WIDTH {
                1 => avx2::search_u8(pkeys, n, dense as u8),
                2 => avx2::search_u16(pkeys as *const u16, n, dense as u16),
                _ => avx2::search_u32(pkeys as *const u32, n, dense),
            }
        }
    }
}

/// Which [`Kernel`] this process runs its descents on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Scalar code.
    Portable(Portable),
    /// BMI2 + AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2(Avx2),
}
