//! x86-64 carry-less-multiply kernel for CRC-32: 64 bytes per step.
//!
//! A CRC is the remainder of the message polynomial modulo `P(x)`, and
//! remainders are linear: a 128-bit chunk `A` that sits `D` bits ahead of a
//! chunk `B` contributes `A · (x^D mod P)` at `B`'s position.  `PCLMULQDQ`
//! multiplies two 64-bit polynomials in one instruction, so instead of
//! walking the message a table lookup at a time the kernel keeps four
//! 128-bit accumulators and *folds* each of them 512 bits forward onto the
//! next 64 bytes of input — two multiplies and two XORs per 16 bytes, four
//! independent chains.  When the input runs out the four accumulators are
//! folded into one, that one over any remaining 16-byte chunks, and the last
//! 128 bits are reduced to the 32-bit state: 128 → 96 → 64 bits by two more
//! folds, then a Barrett reduction (multiply by `μ = ⌊x^64 / P⌋`, multiply
//! the quotient back by `P`, subtract) in place of a division.
//!
//! The wire CRC is the bit-reflected IEEE one, so everything here works on
//! reflected operands: a little-endian load already has the message's first
//! bit in the register's lowest bit, the product of two reflected 64-bit
//! values comes out one bit short of a reflected 128-bit value (hence every
//! constant is stored shifted left by one), and the fold exponents are
//! `D ± 32` for the low and high halves.  The constants are not typed in:
//! [`fold_constant`] and [`barrett_mu`] compute them from the polynomial at
//! compile time, and a unit test holds them to the published values of
//! Gopal et al., "Fast CRC Computation for Generic Polynomials Using
//! PCLMULQDQ Instruction" (Intel, 2009).
//!
//! # Safety
//!
//! This is the only module in the crate that uses `unsafe`, for two things:
//!
//! * **`#[target_feature]` calls** — the kernel is compiled for `pclmulqdq`
//!   (and `sse2`, which x86-64 guarantees), which the build target does not
//!   promise.  It is reachable only through [`Clmul::fold`], and the only
//!   code that makes a [`Clmul`] token is [`Clmul::detected`], after
//!   `is_x86_feature_detected!("pclmulqdq")`.
//! * **unaligned vector loads** — `_mm_loadu_si128` through a pointer taken
//!   from a `&[u8; 16]` (the input is cut with `as_chunks::<16>`), so each
//!   load reads exactly the 16 bytes its reference covers.
//!
//! The table-driven loops of `crc.rs` stay the always-compiled reference
//! and the path for short slices and tails; `tests/proptest_crc.rs` holds
//! this kernel to them at every length, misalignment and starting state.
#![allow(unsafe_code)]

/// Bytes the kernel consumes per step of its main loop, and the shortest
/// input it accepts: four 128-bit accumulators.
pub(crate) const FOLD_LEN: usize = 64;

/// Proof that this CPU executes `PCLMULQDQ`; the only handle to the kernel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Clmul(());

impl Clmul {
    /// The token, if the CPU has the instruction.
    pub(crate) fn detected() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("pclmulqdq") {
            return Some(Self(()));
        }
        None
    }

    /// Folds `blocks` — at least [`FOLD_LEN`] bytes and a whole number of
    /// 16-byte chunks — into the running (un-finalised) CRC-32 `state`.
    #[inline]
    pub(crate) fn fold(self, state: u32, blocks: &[u8]) -> u32 {
        assert!(
            blocks.len() >= FOLD_LEN && blocks.len().is_multiple_of(16),
            "the folding kernel takes whole 16-byte chunks, four or more"
        );
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `self` proves `pclmulqdq` was detected (see the module
        // doc), which is all the kernel requires of its caller.
        unsafe {
            x86::fold(state, blocks)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = state;
            unreachable!("no Clmul token exists off x86-64");
        }
    }
}

/// The IEEE 802.3 generator polynomial without its `x^32` term.
const POLY: u32 = 0x04C1_1DB7;

/// `x^exponent mod P`, bit-reflected and shifted left by one: the form a
/// fold multiplier takes next to reflected data (see the module doc).
const fn fold_constant(exponent: u32) -> u64 {
    // Multiply by x, `exponent` times, reducing whenever x^32 appears.
    let mut remainder: u32 = 1;
    let mut i = 0;
    while i < exponent {
        let overflow = remainder & 0x8000_0000 != 0;
        remainder <<= 1;
        if overflow {
            remainder ^= POLY;
        }
        i += 1;
    }
    (remainder.reverse_bits() as u64) << 1
}

/// `μ = ⌊x^64 / P⌋` (33 bits), bit-reflected: the Barrett multiplier.
const fn barrett_mu() -> u64 {
    // Long division of x^64 by the 33-bit P, one quotient bit per step.
    let divisor: u64 = (1 << 32) | POLY as u64;
    let mut quotient: u64 = 0;
    let mut remainder: u64 = 1; // x^0, shifted up to x^64 as the loop runs
    let mut i = 0;
    while i < 64 {
        remainder <<= 1;
        quotient <<= 1;
        if remainder & (1 << 32) != 0 {
            remainder ^= divisor;
            quotient |= 1;
        }
        i += 1;
    }
    quotient.reverse_bits() >> 31
}

/// Fold 512 bits forward: the main loop's distance.
const K_512: [u64; 2] = [fold_constant(512 + 32), fold_constant(512 - 32)];
/// Fold 128 bits forward: accumulator onto accumulator, and onto a chunk.
const K_128: [u64; 2] = [fold_constant(128 + 32), fold_constant(128 - 32)];
/// Fold 64 bits forward (96 → 64 bits of the final reduction).
const K_64: u64 = fold_constant(64);
/// `P` itself with its `x^32` term, reflected (33 bits).
const P_REFLECTED: u64 = ((POLY.reverse_bits() as u64) << 1) | 1;
/// See [`barrett_mu`].
const MU_REFLECTED: u64 = barrett_mu();

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    use super::{FOLD_LEN, K_128, K_512, K_64, MU_REFLECTED, P_REFLECTED};

    /// # Safety
    ///
    /// Requires `pclmulqdq`.  (A `blocks` shorter than [`FOLD_LEN`] panics
    /// on an index; bytes past the last whole 16-byte chunk are ignored.)
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    pub(super) unsafe fn fold(state: u32, blocks: &[u8]) -> u32 {
        let (chunks, odd) = blocks.as_chunks::<16>();
        debug_assert!(chunks.len() >= FOLD_LEN / 16 && odd.is_empty());
        let (head, rest) = chunks.split_at(FOLD_LEN / 16);
        // The running state enters as it does in the table loops: XORed
        // over the first four message bytes.
        let mut acc = [
            _mm_xor_si128(load(&head[0]), _mm_cvtsi32_si128(state as i32)),
            load(&head[1]),
            load(&head[2]),
            load(&head[3]),
        ];

        let k512 = _mm_set_epi64x(K_512[1] as i64, K_512[0] as i64);
        let mut groups = rest.chunks_exact(FOLD_LEN / 16);
        for group in &mut groups {
            for (lane, chunk) in acc.iter_mut().zip(group) {
                *lane = fold_onto(*lane, load(chunk), k512);
            }
        }

        let k128 = _mm_set_epi64x(K_128[1] as i64, K_128[0] as i64);
        let mut x = fold_onto(acc[0], acc[1], k128);
        x = fold_onto(x, acc[2], k128);
        x = fold_onto(x, acc[3], k128);
        for chunk in groups.remainder() {
            x = fold_onto(x, load(chunk), k128);
        }

        // 128 → 96 bits: the low half moves 64 bits forward onto the high.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k128),
            _mm_srli_si128::<8>(x),
        );
        // 96 → 64 bits: the low 32 move forward the same way.
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K_64 as i64)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett, 64 → 32 bits: quotient estimate `q = low32(x) · μ`, then
        // `x − low32(q) · P`; reflected, the remainder is the upper word.
        let p_mu = _mm_set_epi64x(MU_REFLECTED as i64, P_REFLECTED as i64);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), p_mu);
        let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), p_mu);
        _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, qp))) as u32
    }

    /// One unaligned 128-bit load.
    ///
    /// # Safety
    ///
    /// Requires `sse2` (part of the x86-64 baseline).
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn load(chunk: &[u8; 16]) -> __m128i {
        // The reference is valid for the 16 bytes read, and `loadu` has no
        // alignment requirement: sound for every argument.
        _mm_loadu_si128(chunk.as_ptr().cast::<__m128i>())
    }

    /// `acc` moved forward by the distance `keys` encodes, onto `next`:
    /// `acc.low · keys.low ⊕ acc.high · keys.high ⊕ next`.
    ///
    /// # Safety
    ///
    /// Requires `pclmulqdq`.
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    #[inline]
    unsafe fn fold_onto(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_xor_si128(next, _mm_clmulepi64_si128::<0x00>(acc, keys)),
            _mm_clmulepi64_si128::<0x11>(acc, keys),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_constants_equal_the_published_ones() {
        // Gopal et al. (Intel, 2009), table for the bit-reflected IEEE
        // 802.3 polynomial; the same values zlib and the Linux kernel carry.
        assert_eq!(K_512, [0x1_5444_2bd4, 0x1_c6e4_1596]);
        assert_eq!(K_128, [0x1_7519_97d0, 0x0_ccaa_009e]);
        assert_eq!(K_64, 0x1_63cd_6124);
        assert_eq!(P_REFLECTED, 0x1_db71_0641);
        assert_eq!(MU_REFLECTED, 0x1_f701_1641);
    }
}
