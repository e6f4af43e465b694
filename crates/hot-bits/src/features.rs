//! Runtime CPU feature detection, cached process-wide.
//!
//! Detection runs once and is cached in a static. The descent loops read
//! it **once per call** through [`Features::isa`] and run a body compiled
//! for that instruction set (see [`crate::isa`]); the cold per-primitive
//! wrappers ([`crate::pext64`], [`crate::pdep64`], the `match_prefix_*`
//! family) read it per call, where a predictable load-and-branch is noise.

use crate::isa::{Isa, Portable};
use std::sync::OnceLock;

/// Detected CPU features relevant to the HOT node primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Features {
    /// BMI2 instruction set (`PEXT`, `PDEP`) is available.
    pub bmi2: bool,
    /// AVX2 256-bit integer SIMD is available.
    pub avx2: bool,
    /// The descent kernel these features select. Private so a `Features`
    /// value — and with it the [`Avx2`](crate::isa::Avx2) token — can only
    /// come out of detection.
    isa: Isa,
}

impl Features {
    /// Features with all hardware acceleration disabled (scalar paths only).
    pub const SCALAR_ONLY: Features = Features {
        bmi2: false,
        avx2: false,
        isa: Isa::Portable(Portable),
    };

    /// The instruction set the descent kernels run on: the one ISA
    /// dispatch of a descent call.
    #[inline]
    pub fn isa(self) -> Isa {
        self.isa
    }
}

static FEATURES: OnceLock<Features> = OnceLock::new();

/// Return the cached, process-wide CPU feature set.
///
/// Respects the `HOT_FORCE_SCALAR` environment variable (any non-empty
/// value disables hardware acceleration), which the test suite uses to
/// exercise the portable fallbacks on machines that do support BMI2/AVX2.
#[inline]
pub fn features() -> Features {
    *FEATURES.get_or_init(detect)
}

fn detect() -> Features {
    if std::env::var_os("HOT_FORCE_SCALAR").is_some_and(|v| !v.is_empty()) {
        return Features::SCALAR_ONLY;
    }
    #[cfg(target_arch = "x86_64")]
    {
        Features {
            bmi2: std::arch::is_x86_feature_detected!("bmi2"),
            avx2: std::arch::is_x86_feature_detected!("avx2"),
            isa: crate::isa::Avx2::detect().map_or(Isa::Portable(Portable), Isa::Avx2),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Features::SCALAR_ONLY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_are_cached_and_consistent() {
        let a = features();
        let b = features();
        assert_eq!(a, b);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn detection_matches_std_macros_unless_forced() {
        if std::env::var_os("HOT_FORCE_SCALAR").is_none() {
            let f = features();
            assert_eq!(f.bmi2, std::arch::is_x86_feature_detected!("bmi2"));
            assert_eq!(f.avx2, std::arch::is_x86_feature_detected!("avx2"));
            // The kernel needs both, so it implies both.
            assert!(matches!(f.isa(), Isa::Portable(_)) || (f.bmi2 && f.avx2));
        }
    }
}
