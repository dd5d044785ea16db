//! x86-64 SIMD kernels for the GF(2⁸) bulk slice routines.
//!
//! The GFNI kernel multiplies 64 bytes per `vgf2p8affineqb`: multiplication
//! by a coefficient `c` is linear over GF(2), so it is one 8 × 8 bit matrix
//! ([`affine_matrix`](crate::gf256::affine_matrix), built at compile time),
//! and the instruction applies it to every byte of a `zmm` register.  A
//! ragged tail is one AVX-512BW masked load and store.  [`dot_gfni`] sums
//! up to four such products per 64 bytes in a register and stores the sum
//! once: one row of the code in one pass.
//!
//! The other kernels are the PSHUFB nibble-split form of the scalar table loop in
//! [`crate::gf256`]: a product `c · b` is split as
//! `c · (b_lo ⊕ (b_hi << 4)) = (c · b_lo) ⊕ (c · (b_hi << 4))`, and each
//! half is a 16-entry table lookup — exactly the shape `pshufb` /
//! `vpshufb` evaluates for 16 (SSSE3) or 32 (AVX2) bytes per instruction.
//! The two 16-byte tables per coefficient live in
//! [`NibblePair`](crate::gf256::NibblePair), built at compile time next to
//! the full 256 × 256 multiplication table.
//!
//! # Safety
//!
//! This is the only module in the crate that uses `unsafe`, and it uses it
//! for exactly two things:
//!
//! * **`#[target_feature]` calls** — every kernel is compiled for an
//!   instruction-set extension the build target may not guarantee, so
//!   callers must prove the CPU supports it.  The kernels are reachable
//!   only through the safe functions below, each of which demands the
//!   matching `rapidware_packet::cpu` token ([`Gfni`], [`Avx2`], [`Ssse3`])
//!   — proof of detection that only `cpu.rs` can mint.
//! * **unaligned vector loads/stores** — `_mm*_loadu_*`/`_mm*_storeu_*`
//!   through raw pointers derived from the argument slices.  Every pointer
//!   offset is bounded by the `while i + LANES <= len` loop condition, and
//!   each safe function asserts that every source is as long as `dst`
//!   before calling.
//!   The GFNI kernel's tail goes through `_mm512_maskz_loadu_epi8` /
//!   `_mm512_mask_storeu_epi8`, whose mask enables only the bytes below
//!   the slices' common length (masked-off bytes are never accessed).
//!
//! The scalar arm of `gf256::Kernel` remains the always-compiled,
//! always-correct baseline: these kernels are a pure drop-in with
//! byte-identical output (property-tested in `tests/proptest_kernels.rs`
//! over lengths, alignments, and all 256 coefficients).
#![allow(unsafe_code)]

use rapidware_packet::cpu::{Avx2, Gfni, Ssse3};

use crate::gf256::{NibblePair, DOT_TERMS};

/// `dst[i] ^= c * src[i]` when `ADD`, else `dst[i] = c * src[i]`, 64 bytes
/// per step; `matrix` is `c`'s bit matrix.
pub(crate) fn mul_gfni<const ADD: bool>(_gfni: Gfni, dst: &mut [u8], src: &[u8], matrix: u64) {
    assert_eq!(dst.len(), src.len(), "gf256 slice length mismatch");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the `Gfni` token proves GFNI, AVX-512F and AVX-512BW were
    // detected, and the slices were just asserted to be the same length.
    unsafe {
        x86::mul_gfni::<ADD>(dst, src, matrix)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = matrix;
        unreachable!("no Gfni token exists off x86-64");
    }
}

/// `dst[i] ^= Σⱼ cⱼ * sources[j][i]` when `ADD`, else
/// `dst[i] = Σⱼ cⱼ * sources[j][i]`, 64 bytes per step; `matrices[j]` is
/// `cⱼ`'s bit matrix.
pub(crate) fn dot_gfni<const ADD: bool>(_gfni: Gfni, dst: &mut [u8], sources: [&[u8]; DOT_TERMS], matrices: [u64; DOT_TERMS]) {
    assert!(sources.iter().all(|src| src.len() == dst.len()), "gf256 slice length mismatch");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the `Gfni` token proves GFNI, AVX-512F and AVX-512BW were
    // detected, and every source was just asserted to be as long as `dst`.
    unsafe {
        x86::dot_gfni::<ADD>(dst, sources, matrices)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = matrices;
        unreachable!("no Gfni token exists off x86-64");
    }
}

/// `dst[i] ^= c * src[i]` when `ADD`, else `dst[i] = c * src[i]`, 32 bytes
/// per step; `nibbles` and `row` are `c`'s tables, the row finishing the
/// tail.
pub(crate) fn mul_avx2<const ADD: bool>(_avx2: Avx2, dst: &mut [u8], src: &[u8], nibbles: &NibblePair, row: &[u8; 256]) {
    assert_eq!(dst.len(), src.len(), "gf256 slice length mismatch");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the `Avx2` token proves AVX2 was detected, and the slices
    // were just asserted to be the same length.
    unsafe {
        x86::mul_avx2::<ADD>(dst, src, nibbles, row)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (nibbles, row);
        unreachable!("no Avx2 token exists off x86-64");
    }
}

/// `dst[i] ^= src[i]`, 32 bytes per step.
pub(crate) fn xor_avx2(_avx2: Avx2, dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "gf256 slice length mismatch");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the `Avx2` token proves AVX2 was detected, and the slices
    // were just asserted to be the same length.
    unsafe {
        x86::xor_avx2(dst, src)
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("no Avx2 token exists off x86-64");
}

/// [`mul_avx2`] 16 bytes per step.
pub(crate) fn mul_ssse3<const ADD: bool>(_ssse3: Ssse3, dst: &mut [u8], src: &[u8], nibbles: &NibblePair, row: &[u8; 256]) {
    assert_eq!(dst.len(), src.len(), "gf256 slice length mismatch");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the `Ssse3` token proves SSSE3 was detected, and the slices
    // were just asserted to be the same length.
    unsafe {
        x86::mul_ssse3::<ADD>(dst, src, nibbles, row)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (nibbles, row);
        unreachable!("no Ssse3 token exists off x86-64");
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m128i, __m256i, __m512i, _mm512_gf2p8affine_epi64_epi8, _mm512_loadu_si512,
        _mm512_mask_storeu_epi8, _mm512_maskz_loadu_epi8, _mm512_set1_epi64, _mm512_setzero_si512, _mm512_storeu_si512,
        _mm512_xor_si512, _mm256_and_si256, _mm256_broadcastsi128_si256, _mm256_loadu_si256,
        _mm256_set1_epi8, _mm256_shuffle_epi8, _mm256_srli_epi64, _mm256_storeu_si256,
        _mm256_xor_si256, _mm_and_si128, _mm_loadu_si128, _mm_set1_epi8, _mm_shuffle_epi8,
        _mm_srli_epi64, _mm_storeu_si128, _mm_xor_si128,
    };

    use crate::gf256::{NibblePair, DOT_TERMS};

    /// `dst[i] ^= c * src[i]` when `ADD`, else `dst[i] = c * src[i]`, 64
    /// bytes per step and the rest in one masked step.
    ///
    /// # Safety
    ///
    /// Requires GFNI, AVX-512F, AVX-512BW and `dst.len() == src.len()`.
    #[target_feature(enable = "gfni,avx512f,avx512bw")]
    pub(super) unsafe fn mul_gfni<const ADD: bool>(dst: &mut [u8], src: &[u8], matrix: u64) {
        let matrix = _mm512_set1_epi64(matrix as i64);
        let len = dst.len();
        let mut i = 0usize;
        while i + 64 <= len {
            let s = _mm512_loadu_si512(src.as_ptr().add(i).cast::<__m512i>());
            let mut prod = _mm512_gf2p8affine_epi64_epi8::<0>(s, matrix);
            if ADD {
                prod = _mm512_xor_si512(prod, _mm512_loadu_si512(dst.as_ptr().add(i).cast::<__m512i>()));
            }
            _mm512_storeu_si512(dst.as_mut_ptr().add(i).cast::<__m512i>(), prod);
            i += 64;
        }
        if i < len {
            // Fewer than 64 bytes are left: the mask enables exactly those.
            let mask = (1u64 << (len - i)) - 1;
            let s = _mm512_maskz_loadu_epi8(mask, src.as_ptr().add(i).cast::<i8>());
            let mut prod = _mm512_gf2p8affine_epi64_epi8::<0>(s, matrix);
            if ADD {
                prod = _mm512_xor_si512(prod, _mm512_maskz_loadu_epi8(mask, dst.as_ptr().add(i).cast::<i8>()));
            }
            _mm512_mask_storeu_epi8(dst.as_mut_ptr().add(i).cast::<i8>(), mask, prod);
        }
    }

    /// `dst[i] (^)= Σⱼ cⱼ * sources[j][i]`, 64 bytes per step and the rest
    /// in one masked step: every source read and `dst` written once.
    ///
    /// # Safety
    ///
    /// Requires GFNI, AVX-512F, AVX-512BW, and every source as long as
    /// `dst`.
    #[target_feature(enable = "gfni,avx512f,avx512bw")]
    pub(super) unsafe fn dot_gfni<const ADD: bool>(dst: &mut [u8], sources: [&[u8]; DOT_TERMS], matrices: [u64; DOT_TERMS]) {
        let matrices = matrices.map(|matrix| _mm512_set1_epi64(matrix as i64));
        let len = dst.len();
        let mut i = 0usize;
        while i + 64 <= len {
            let mut sum = if ADD {
                _mm512_loadu_si512(dst.as_ptr().add(i).cast::<__m512i>())
            } else {
                _mm512_setzero_si512()
            };
            for (src, matrix) in sources.iter().zip(matrices) {
                let s = _mm512_loadu_si512(src.as_ptr().add(i).cast::<__m512i>());
                sum = _mm512_xor_si512(sum, _mm512_gf2p8affine_epi64_epi8::<0>(s, matrix));
            }
            _mm512_storeu_si512(dst.as_mut_ptr().add(i).cast::<__m512i>(), sum);
            i += 64;
        }
        if i < len {
            // Fewer than 64 bytes are left: the mask enables exactly those.
            let mask = (1u64 << (len - i)) - 1;
            let mut sum = if ADD {
                _mm512_maskz_loadu_epi8(mask, dst.as_ptr().add(i).cast::<i8>())
            } else {
                _mm512_setzero_si512()
            };
            for (src, matrix) in sources.iter().zip(matrices) {
                let s = _mm512_maskz_loadu_epi8(mask, src.as_ptr().add(i).cast::<i8>());
                sum = _mm512_xor_si512(sum, _mm512_gf2p8affine_epi64_epi8::<0>(s, matrix));
            }
            _mm512_mask_storeu_epi8(dst.as_mut_ptr().add(i).cast::<i8>(), mask, sum);
        }
    }

    /// `dst[i] ^= c * src[i]` when `ADD`, else `dst[i] = c * src[i]`, 32
    /// bytes per step.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and `dst.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_avx2<const ADD: bool>(dst: &mut [u8], src: &[u8], nibbles: &NibblePair, row: &[u8; 256]) {
        let lo_table = _mm256_broadcastsi128_si256(_mm_loadu_si128(nibbles.lo.as_ptr().cast()));
        let hi_table = _mm256_broadcastsi128_si256(_mm_loadu_si128(nibbles.hi.as_ptr().cast()));
        let mask = _mm256_set1_epi8(0x0F);
        let len = dst.len();
        let mut i = 0usize;
        while i + 32 <= len {
            let s = _mm256_loadu_si256(src.as_ptr().add(i).cast::<__m256i>());
            let mut prod = mul_bytes_avx2(s, lo_table, hi_table, mask);
            if ADD {
                prod = _mm256_xor_si256(prod, _mm256_loadu_si256(dst.as_ptr().add(i).cast::<__m256i>()));
            }
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast::<__m256i>(), prod);
            i += 32;
        }
        for j in i..len {
            dst[j] = row[src[j] as usize] ^ if ADD { dst[j] } else { 0 };
        }
    }

    /// `dst[i] ^= src[i]`, 32 bytes per step.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and `dst.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn xor_avx2(dst: &mut [u8], src: &[u8]) {
        let len = dst.len();
        let mut i = 0usize;
        while i + 32 <= len {
            let s = _mm256_loadu_si256(src.as_ptr().add(i).cast::<__m256i>());
            let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast::<__m256i>());
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast::<__m256i>(), _mm256_xor_si256(d, s));
            i += 32;
        }
        for j in i..len {
            dst[j] ^= src[j];
        }
    }

    /// Multiplies 32 bytes by the broadcast coefficient tables: two in-lane
    /// shuffles and one XOR.  `vpshufb` indexes within each 128-bit lane,
    /// which is exactly right because both lanes hold the same broadcast
    /// 16-entry table.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn mul_bytes_avx2(s: __m256i, lo_table: __m256i, hi_table: __m256i, mask: __m256i) -> __m256i {
        let lo_idx = _mm256_and_si256(s, mask);
        // The 64-bit shift drags bits across byte boundaries, but the mask
        // keeps only each byte's own high nibble.
        let hi_idx = _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask);
        _mm256_xor_si256(
            _mm256_shuffle_epi8(lo_table, lo_idx),
            _mm256_shuffle_epi8(hi_table, hi_idx),
        )
    }

    /// `dst[i] ^= c * src[i]` when `ADD`, else `dst[i] = c * src[i]`, 16
    /// bytes per step.
    ///
    /// # Safety
    ///
    /// Requires SSSE3 and `dst.len() == src.len()`.
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_ssse3<const ADD: bool>(dst: &mut [u8], src: &[u8], nibbles: &NibblePair, row: &[u8; 256]) {
        let lo_table = _mm_loadu_si128(nibbles.lo.as_ptr().cast());
        let hi_table = _mm_loadu_si128(nibbles.hi.as_ptr().cast());
        let mask = _mm_set1_epi8(0x0F);
        let len = dst.len();
        let mut i = 0usize;
        while i + 16 <= len {
            let s = _mm_loadu_si128(src.as_ptr().add(i).cast::<__m128i>());
            let mut prod = mul_bytes_ssse3(s, lo_table, hi_table, mask);
            if ADD {
                prod = _mm_xor_si128(prod, _mm_loadu_si128(dst.as_ptr().add(i).cast::<__m128i>()));
            }
            _mm_storeu_si128(dst.as_mut_ptr().add(i).cast::<__m128i>(), prod);
            i += 16;
        }
        for j in i..len {
            dst[j] = row[src[j] as usize] ^ if ADD { dst[j] } else { 0 };
        }
    }

    /// Multiplies 16 bytes by the broadcast coefficient tables.
    #[target_feature(enable = "ssse3")]
    #[inline]
    unsafe fn mul_bytes_ssse3(s: __m128i, lo_table: __m128i, hi_table: __m128i, mask: __m128i) -> __m128i {
        let lo_idx = _mm_and_si128(s, mask);
        let hi_idx = _mm_and_si128(_mm_srli_epi64::<4>(s), mask);
        _mm_xor_si128(
            _mm_shuffle_epi8(lo_table, lo_idx),
            _mm_shuffle_epi8(hi_table, hi_idx),
        )
    }
}
