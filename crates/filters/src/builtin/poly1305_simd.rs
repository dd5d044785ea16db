//! x86-64 AVX2 kernel for Poly1305: four 16-byte blocks per step.
//!
//! Poly1305 evaluates `h = (h + mᵢ) · r` block after block, a serial chain
//! of 130-bit multiplications.  Horner's rule splits four ways: with four
//! accumulators that each take every fourth block and advance by `r⁴`,
//!
//! ```text
//! H ← H · r⁴ + [m₄ₖ₊₁, m₄ₖ₊₂, m₄ₖ₊₃, m₄ₖ₊₄]        (lane-wise, per 64 bytes)
//! h = H₀·r⁴ + H₁·r³ + H₂·r² + H₃·r                  (once, at the end)
//! ```
//!
//! is the same polynomial.  The loop takes two such steps at once,
//! `H ← H·r⁸ + M·r⁴ + M′`, because the two products can be added column by
//! column before they are carried: one carry chain per 128 bytes instead of
//! two.  Each 130-bit value is five 26-bit limbs, limb
//! `i` of the four lanes side by side in the 64-bit lanes of one 256-bit
//! vector, so `vpmuludq` (32 × 32 → 64 bits, four lanes) forms the partial
//! products with room to add five of them before carrying.  `2¹³⁰ ≡ 5`
//! folds the high columns back, exactly as in the scalar code of
//! `secure.rs`, which keeps 44-bit limbs, computes `r²…r⁴` once per
//! one-time key, finishes whatever is left after the last whole 64 bytes and
//! stays the reference this kernel is held to
//! (`tests/proptest_aead_kernels.rs`).
//!
//! # Safety
//!
//! `unsafe` is used here for exactly two things:
//!
//! * **`#[target_feature]` calls** — the kernel is compiled for AVX2, which
//!   the build target does not guarantee.  It is reachable only through
//!   [`absorb`], which demands an [`Avx2`] token: proof of detection that
//!   only `rapidware_packet::cpu` can mint.
//! * **unaligned vector loads/stores** — `_mm256_loadu_si256` through
//!   pointers taken from the two 32-byte halves of a `&[u8; 64]` (the input
//!   is cut with `as_chunks::<64>`), and one `_mm256_storeu_si256` into a
//!   local `[u64; 4]`.
#![allow(unsafe_code)]

use rapidware_packet::cpu::Avx2;

/// Bytes the kernel absorbs per step: four blocks, one per lane.
pub(crate) const GROUP_LEN: usize = 64;

/// Low 26 bits of a limb.
const M26: u64 = 0x03ff_ffff;
/// Low 44 bits of a `secure.rs` limb.
const M44: u64 = 0x0fff_ffff_ffff;

/// `r¹, r², r³, r⁴, r⁸` (in that order) as 26-bit limbs.
#[derive(Clone, Copy)]
pub(crate) struct Powers([[u32; 5]; 5]);

impl Powers {
    /// From the same powers in `secure.rs`'s 44/44/42-bit limbs.
    pub(crate) fn from_limbs44(powers: [[u64; 3]; 5]) -> Self {
        Self(powers.map(limbs26))
    }
}

/// A 130-bit value in 44/44/42-bit limbs (as `carry_limbs` leaves it: the
/// middle limb may carry one spare bit) re-cut into five 26-bit limbs, the
/// top one possibly a bit or two over.
fn limbs26([h0, h1, h2]: [u64; 3]) -> [u32; 5] {
    let h2 = h2 + (h1 >> 44);
    let h1 = h1 & M44;
    [
        (h0 & M26) as u32,
        (((h0 >> 26) | (h1 << 18)) & M26) as u32,
        ((h1 >> 8) & M26) as u32,
        (((h1 >> 34) | (h2 << 10)) & M26) as u32,
        (h2 >> 16) as u32,
    ]
}

/// Five column sums (each below 2⁶¹) carried and re-cut into 44/44/42-bit
/// limbs; the top limb may run a little past 42 bits, which the scalar
/// multiply and `finish` both absorb.
fn limbs44(mut d: [u64; 5]) -> [u64; 3] {
    for i in 0..4 {
        d[i + 1] += d[i] >> 26;
        d[i] &= M26;
    }
    d[0] += (d[4] >> 26) * 5;
    d[4] &= M26;
    d[1] += d[0] >> 26;
    d[0] &= M26;
    let low = u128::from(d[0])
        + (u128::from(d[1]) << 26)
        + (u128::from(d[2]) << 52)
        + (u128::from(d[3]) << 78);
    [
        (low as u64) & M44,
        ((low >> 44) as u64) & M44,
        (low >> 88) as u64 + (d[4] << 16),
    ]
}

/// Absorbs `groups` — one or more whole [`GROUP_LEN`]-byte runs of full
/// blocks — into the accumulator `h` under the key whose powers are
/// `powers`; limbs in and out are `secure.rs`'s.
#[inline]
pub(crate) fn absorb(_avx2: Avx2, powers: &Powers, h: [u64; 3], groups: &[u8]) -> [u64; 3] {
    assert!(
        !groups.is_empty() && groups.len().is_multiple_of(GROUP_LEN),
        "the 4-way kernel takes whole 64-byte groups, one or more"
    );
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the `Avx2` token proves AVX2 was detected (see the module
    // doc), which is all the kernel requires of its caller.
    let sums = unsafe { x86::absorb(&powers.0, limbs26(h), groups) };
    #[cfg(not(target_arch = "x86_64"))]
    let sums: [u64; 5] = {
        let _ = (powers, h);
        unreachable!("no Avx2 token exists off x86-64")
    };
    limbs44(sums)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_and_si256, _mm256_loadu_si256, _mm256_mul_epu32,
        _mm256_or_si256, _mm256_permute2x128_si256, _mm256_set1_epi64x, _mm256_set_epi64x,
        _mm256_slli_epi64, _mm256_srli_epi64, _mm256_storeu_si256, _mm256_unpackhi_epi64,
        _mm256_unpacklo_epi64,
    };

    use super::M26;

    /// Five limb vectors: limb `i` of all four lanes in vector `i`.
    type Limbs = [__m256i; 5];

    /// Runs the lane recurrence over `groups` and returns the five column
    /// sums of the closing `Σ Hⱼ · r⁴⁻ʲ`, not yet carried.
    ///
    /// # Safety
    ///
    /// Requires AVX2.  (An empty `groups` panics; bytes past the last whole
    /// 64-byte group are ignored.)
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn absorb(powers: &[[u32; 5]; 5], h: [u32; 5], groups: &[u8]) -> [u64; 5] {
        let (groups, _) = groups.as_chunks::<64>();
        let (first, mut rest) = groups.split_first().expect("at least one group");

        // The incoming accumulator joins the first block, in lane 0.
        let mut acc = load_blocks(first);
        for (limb, h) in acc.iter_mut().zip(h) {
            *limb = _mm256_add_epi64(*limb, _mm256_set_epi64x(0, 0, 0, i64::from(h)));
        }
        if !rest.is_empty() {
            let r4 = multiplier(powers[3].map(|limb| [limb; 4]));
            // An odd group goes first, alone, so that the others pair up.
            if rest.len() % 2 == 1 {
                acc = add(carry(multiply(acc, &r4)), load_blocks(&rest[0]));
                rest = &rest[1..];
            }
            if !rest.is_empty() {
                let r8 = multiplier(powers[4].map(|limb| [limb; 4]));
                for pair in rest.chunks_exact(2) {
                    let columns = add(multiply(acc, &r8), multiply(load_blocks(&pair[0]), &r4));
                    acc = add(carry(columns), load_blocks(&pair[1]));
                }
            }
        }

        // Lane j holds the blocks that still owe r⁴⁻ʲ.
        let closing = multiplier(core::array::from_fn(|limb| {
            [powers[3][limb], powers[2][limb], powers[1][limb], powers[0][limb]]
        }));
        multiply(acc, &closing).map(|column| {
            let mut lanes = [0u64; 4];
            // The array is 32 bytes and `storeu` has no alignment
            // requirement.
            _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), column);
            lanes.iter().sum()
        })
    }

    /// Limb-wise, lane-wise `a + b`.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn add(a: Limbs, b: Limbs) -> Limbs {
        core::array::from_fn(|limb| _mm256_add_epi64(a[limb], b[limb]))
    }

    /// The limbs of a per-lane multiplier, and five times limbs 1..5 (the
    /// columns that wrap past 2¹³⁰).
    struct Multiplier {
        r: Limbs,
        r5: [__m256i; 4],
    }

    /// `limbs[i][j]` is limb `i` of lane `j`'s multiplier.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn multiplier(limbs: [[u32; 4]; 5]) -> Multiplier {
        let lanes = |[a, b, c, d]: [u32; 4], scale: u32| {
            // 5 · 2²⁶ < 2³²: the scaled limbs still fit `vpmuludq`'s
            // 32-bit operands.
            let scaled = |limb: u32| i64::from(limb * scale);
            _mm256_set_epi64x(scaled(d), scaled(c), scaled(b), scaled(a))
        };
        Multiplier {
            r: limbs.map(|limb| lanes(limb, 1)),
            r5: [lanes(limbs[1], 5), lanes(limbs[2], 5), lanes(limbs[3], 5), lanes(limbs[4], 5)],
        }
    }

    /// Four blocks as limb vectors, each with its 2¹²⁸ bit set.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load_blocks(group: &[u8; 64]) -> Limbs {
        let (front, back) = group.split_at(32);
        // Each half is 32 bytes (the array is 64) and `loadu` has no
        // alignment requirement.
        let front = _mm256_loadu_si256(front.as_ptr().cast::<__m256i>());
        let back = _mm256_loadu_si256(back.as_ptr().cast::<__m256i>());
        // [b0.lo b0.hi b1.lo b1.hi], [b2.lo …] → low words, high words.
        let even = _mm256_permute2x128_si256::<0x20>(front, back);
        let odd = _mm256_permute2x128_si256::<0x31>(front, back);
        let lo = _mm256_unpacklo_epi64(even, odd);
        let hi = _mm256_unpackhi_epi64(even, odd);
        let mask = _mm256_set1_epi64x(M26 as i64);
        [
            _mm256_and_si256(lo, mask),
            _mm256_and_si256(_mm256_srli_epi64::<26>(lo), mask),
            _mm256_and_si256(
                _mm256_or_si256(_mm256_srli_epi64::<52>(lo), _mm256_slli_epi64::<12>(hi)),
                mask,
            ),
            _mm256_and_si256(_mm256_srli_epi64::<14>(hi), mask),
            _mm256_or_si256(_mm256_srli_epi64::<40>(hi), _mm256_set1_epi64x(1 << 24)),
        ]
    }

    /// The five column sums of `a · m` mod 2¹³⁰ − 5, lane-wise, before
    /// carrying.  With limbs of `a` below 2²⁷·¹ and of `m` at most 2²⁶ + 2
    /// every sum stays below 2⁵⁸, so two products can share one carry.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn multiply(a: Limbs, m: &Multiplier) -> Limbs {
        let Multiplier { r, r5 } = m;
        let sum5 = |p: [__m256i; 5]| {
            _mm256_add_epi64(
                _mm256_add_epi64(_mm256_add_epi64(p[0], p[1]), _mm256_add_epi64(p[2], p[3])),
                p[4],
            )
        };
        let mul = |x, y| _mm256_mul_epu32(x, y);
        [
            sum5([mul(a[0], r[0]), mul(a[1], r5[3]), mul(a[2], r5[2]), mul(a[3], r5[1]), mul(a[4], r5[0])]),
            sum5([mul(a[0], r[1]), mul(a[1], r[0]), mul(a[2], r5[3]), mul(a[3], r5[2]), mul(a[4], r5[1])]),
            sum5([mul(a[0], r[2]), mul(a[1], r[1]), mul(a[2], r[0]), mul(a[3], r5[3]), mul(a[4], r5[2])]),
            sum5([mul(a[0], r[3]), mul(a[1], r[2]), mul(a[2], r[1]), mul(a[3], r[0]), mul(a[4], r5[3])]),
            sum5([mul(a[0], r[4]), mul(a[1], r[3]), mul(a[2], r[2]), mul(a[3], r[1]), mul(a[4], r[0])]),
        ]
    }

    /// Carries column sums (below 2⁶⁰) back to limbs of 26 bits and a little: two
    /// interleaved chains (0 → 1 → 2 → 3 → 4 and 3 → 4 → 0 → 1) instead of
    /// one of twice the latency.  Leaves every limb below 2²⁶ + 2¹², so a
    /// block can be added before the next multiply.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn carry(mut d: Limbs) -> Limbs {
        let mask = _mm256_set1_epi64x(M26 as i64);
        let mut pass = |from: usize, to: usize, wraps: bool| {
            let mut over = _mm256_srli_epi64::<26>(d[from]);
            if wraps {
                // 2¹³⁰ ≡ 5.
                over = _mm256_add_epi64(over, _mm256_slli_epi64::<2>(over));
            }
            d[from] = _mm256_and_si256(d[from], mask);
            d[to] = _mm256_add_epi64(d[to], over);
        };
        pass(0, 1, false);
        pass(3, 4, false);
        pass(1, 2, false);
        pass(4, 0, true);
        pass(2, 3, false);
        pass(0, 1, false);
        pass(3, 4, false);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limb_recuts_round_trip() {
        // A value in 44-bit limbs, spare middle bit included, survives
        // 44 → 26 → 44 (the second cut reads 26-bit limbs as column sums)
        // up to where the spare bit is carried.
        for seed in 0..64u64 {
            let word = |i: u32| (seed + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(i * 17);
            let spare = (seed & 1) << 44;
            let h = [word(0) & M44, (word(1) & M44) + spare, word(2) & (M44 >> 3)];
            assert_eq!(
                limbs44(limbs26(h).map(u64::from)),
                [h[0], h[1] & M44, h[2] + (h[1] >> 44)],
                "seed {seed}"
            );
        }
    }
}
