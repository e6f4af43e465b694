//! Parallel bit extract (`PEXT`) and deposit (`PDEP`) with scalar fallbacks.
//!
//! HOT uses `PEXT` to turn a search key into a *dense partial key* — the
//! key's bits at the node's discriminative positions, packed together — in a
//! single instruction per 64-bit window (Section 4.1 of the paper), and
//! `PDEP` to recode all stored *sparse partial keys* of a node when an insert
//! introduces a new discriminative bit position (Section 4.4).

/// Scalar (portable) implementation of `PEXT`: for every set bit of `mask`
/// from least to most significant, copy the corresponding bit of `x` into the
/// next least-significant result bit.
#[inline]
pub fn pext64_scalar(x: u64, mut mask: u64) -> u64 {
    let mut result = 0u64;
    let mut out_bit = 0u32;
    while mask != 0 {
        let lowest = mask & mask.wrapping_neg();
        if x & lowest != 0 {
            result |= 1u64 << out_bit;
        }
        out_bit += 1;
        mask &= mask - 1;
    }
    result
}

/// Scalar (portable) implementation of `PDEP`: scatter the low bits of `x`
/// into the set-bit positions of `mask`, from least to most significant.
#[inline]
pub fn pdep64_scalar(mut x: u64, mut mask: u64) -> u64 {
    let mut result = 0u64;
    while mask != 0 {
        let lowest = mask & mask.wrapping_neg();
        if x & 1 != 0 {
            result |= lowest;
        }
        x >>= 1;
        mask &= mask - 1;
    }
    result
}

/// # Safety
/// Caller must have verified BMI2 support (`is_x86_feature_detected!`).
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "bmi2")]
pub(crate) unsafe fn pext64_bmi2(x: u64, mask: u64) -> u64 {
    core::arch::x86_64::_pext_u64(x, mask)
}

/// # Safety
/// Caller must have verified BMI2 support (`is_x86_feature_detected!`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2")]
unsafe fn pdep64_bmi2(x: u64, mask: u64) -> u64 {
    core::arch::x86_64::_pdep_u64(x, mask)
}

/// Parallel bit extract. Uses the BMI2 `PEXT` instruction when available,
/// otherwise the portable scalar equivalent. For node-rebuild code; the
/// descent extracts through its [`Kernel`](crate::Kernel) instead.
#[inline]
pub fn pext64(x: u64, mask: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::features().bmi2 {
            // SAFETY: feature detection confirmed BMI2 support.
            return unsafe { pext64_bmi2(x, mask) };
        }
    }
    pext64_scalar(x, mask)
}

/// Parallel bit deposit. Uses the BMI2 `PDEP` instruction when available,
/// otherwise the portable scalar equivalent.
#[inline]
pub fn pdep64(x: u64, mask: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::features().bmi2 {
            // SAFETY: feature detection confirmed BMI2 support.
            return unsafe { pdep64_bmi2(x, mask) };
        }
    }
    pdep64_scalar(x, mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pext_scalar_known_values() {
        assert_eq!(pext64_scalar(0, 0), 0);
        assert_eq!(pext64_scalar(u64::MAX, 0), 0);
        assert_eq!(pext64_scalar(u64::MAX, u64::MAX), u64::MAX);
        // Example from the Intel manual style: extract nibble-striped bits.
        assert_eq!(pext64_scalar(0b1010_1010, 0b1111_0000), 0b1010);
        assert_eq!(pext64_scalar(0b1010_1010, 0b0000_1111), 0b1010);
        assert_eq!(pext64_scalar(0b1000_0001, 0b1000_0001), 0b11);
        assert_eq!(pext64_scalar(0b1000_0000, 0b1000_0001), 0b10);
    }

    #[test]
    fn pdep_scalar_known_values() {
        assert_eq!(pdep64_scalar(0, 0), 0);
        assert_eq!(pdep64_scalar(u64::MAX, u64::MAX), u64::MAX);
        assert_eq!(pdep64_scalar(0b1010, 0b1111_0000), 0b1010_0000);
        assert_eq!(pdep64_scalar(0b11, 0b1000_0001), 0b1000_0001);
        assert_eq!(pdep64_scalar(0b10, 0b1000_0001), 0b1000_0000);
    }

    #[test]
    fn pext_pdep_are_inverse_on_mask() {
        let mask = 0x0F0F_00FF_F0F0_1234u64;
        for x in [0u64, 1, 0xFFFF, 0xDEAD_BEEF_CAFE_BABE, u64::MAX] {
            let packed = pext64_scalar(x, mask);
            assert_eq!(pdep64_scalar(packed, mask), x & mask);
            assert_eq!(pext64_scalar(pdep64_scalar(packed, mask), mask), packed);
        }
    }

    #[test]
    fn dispatch_matches_scalar() {
        // On BMI2 machines this cross-checks the hardware instruction against
        // the portable implementation; on others it is trivially true.
        let cases = [
            (0u64, 0u64),
            (u64::MAX, u64::MAX),
            (0x1234_5678_9ABC_DEF0, 0x00FF_00FF_00FF_00FF),
            (0xFFFF_0000_FFFF_0000, 0x8000_0000_0000_0001),
            (0xA5A5_A5A5_5A5A_5A5A, 0xFFFF_FFFF_0000_0000),
        ];
        for (x, mask) in cases {
            assert_eq!(
                pext64(x, mask),
                pext64_scalar(x, mask),
                "pext {x:#x} {mask:#x}"
            );
            assert_eq!(
                pdep64(x, mask),
                pdep64_scalar(x, mask),
                "pdep {x:#x} {mask:#x}"
            );
        }
    }

    #[test]
    fn pext_result_width_is_popcount() {
        let mask = 0x8421_8421_8421_8421u64; // 16 set bits
        let extracted = pext64_scalar(u64::MAX, mask);
        assert_eq!(extracted, (1u64 << 16) - 1);
    }
}
