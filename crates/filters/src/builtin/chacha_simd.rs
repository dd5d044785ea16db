//! x86-64 AVX2 kernel for the ChaCha20 keystream: eight blocks per call.
//!
//! ChaCha20 blocks under one `(key, nonce)` differ only in their counter
//! word, so eight of them run side by side: each of the sixteen state words
//! lives in one 256-bit vector whose eight 32-bit lanes belong to blocks
//! `counter .. counter + 8`.  A quarter round is then the scalar quarter
//! round of `secure.rs` with every `u32` operation replaced by its
//! eight-lane form — `vpaddd`, `vpxor`, and for the rotates a byte shuffle
//! (`vpshufb`, rotations by 16 and 8) or a shift pair (12 and 7).  After
//! the twenty rounds and the feed-forward addition, two 8 × 8 word
//! transposes turn "word-major" vectors back into eight contiguous 64-byte
//! blocks, which are XORed with the source on their way to the
//! destination.
//!
//! # Safety
//!
//! This is the only module in the crate that uses `unsafe`, and it uses it
//! for exactly two things:
//!
//! * **`#[target_feature]` calls** — the kernel is compiled for AVX2, which
//!   the build target does not guarantee.  It is reachable only through the
//!   methods of [`Avx2`], a token whose two constructors are the only code
//!   that can make one: [`Avx2::active`] hands it out when the process-wide
//!   dispatcher `rapidware_fec::gf256::active_kernel()` selected AVX2
//!   (which it does only after `is_x86_feature_detected!("avx2")`), and
//!   [`Avx2::detected`] runs that detection itself.  Holding a token is
//!   proof the instructions exist.
//! * **unaligned vector loads/stores** — `_mm256_loadu_si256` /
//!   `_mm256_storeu_si256` through pointers derived from the argument
//!   slices, at offsets `0, 32, …, 480`.  The safe wrappers assert that
//!   every slice is exactly [`GROUP_LEN`] (512) bytes before calling.
//!
//! The scalar `chacha20_words` in `secure.rs` stays the always-compiled
//! reference and the path for short inputs and tails; this kernel is a
//! drop-in with byte-identical output (property-tested in
//! `tests/proptest_aead_kernels.rs`, including the `u32::MAX` counter wrap
//! inside a group).
#![allow(unsafe_code)]

/// Bytes of keystream one kernel call produces: eight 64-byte blocks.
pub(crate) const GROUP_LEN: usize = 512;

/// Proof that this CPU executes AVX2; the only handle to the kernel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Avx2(());

impl Avx2 {
    /// The token, if the process-wide kernel dispatcher selected AVX2 (so
    /// `RAPIDWARE_FORCE_SCALAR` pins the cipher together with GF(2⁸)).
    pub(crate) fn active() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if rapidware_fec::gf256::active_kernel() == rapidware_fec::gf256::Kernel::Avx2 {
            return Some(Self(()));
        }
        None
    }

    /// The token, if the CPU has AVX2 — regardless of the dispatcher.  For
    /// the parity suites and the kernel bench, which name each kernel.
    pub(crate) fn detected() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(Self(()));
        }
        None
    }

    /// `dst = src ^ keystream` for the eight blocks starting at `state`'s
    /// counter (`state[12]`, wrapping).  Both slices must be [`GROUP_LEN`]
    /// bytes.
    #[inline]
    pub(crate) fn xor_group(self, state: &[u32; 16], src: &[u8], dst: &mut [u8]) {
        self.group(state, Some(src), dst);
    }

    /// Writes the eight blocks of raw keystream starting at `state`'s
    /// counter into `dst`, which must be [`GROUP_LEN`] bytes.
    #[inline]
    pub(crate) fn keystream_group(self, state: &[u32; 16], dst: &mut [u8]) {
        self.group(state, None, dst);
    }

    #[inline]
    fn group(self, state: &[u32; 16], src: Option<&[u8]>, dst: &mut [u8]) {
        assert!(
            dst.len() == GROUP_LEN && src.is_none_or(|src| src.len() == GROUP_LEN),
            "one group is 512 bytes"
        );
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `self` proves AVX2 was detected (see the module doc), and
        // `dst` and — when there is one — `src` were just asserted to be
        // exactly `GROUP_LEN` bytes, which is all the kernel reads or writes.
        unsafe {
            x86::group(state, src.map(<[u8]>::as_ptr), dst.as_mut_ptr());
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = state;
            unreachable!("no Avx2 token exists off x86-64");
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_or_si256,
        _mm256_permute2x128_si256, _mm256_set1_epi32, _mm256_setr_epi32, _mm256_setr_epi8,
        _mm256_shuffle_epi8, _mm256_slli_epi32, _mm256_srli_epi32, _mm256_storeu_si256,
        _mm256_unpackhi_epi32, _mm256_unpackhi_epi64, _mm256_unpacklo_epi32,
        _mm256_unpacklo_epi64, _mm256_xor_si256,
    };

    /// Eight ChaCha20 blocks: keystream, XORed with `src` when there is one.
    ///
    /// # Safety
    ///
    /// Requires AVX2.  `dst` must be valid for 512 bytes of writes and
    /// `src`, when `Some`, for 512 bytes of reads.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn group(state: &[u32; 16], src: Option<*const u8>, dst: *mut u8) {
        // Word-major layout: vector `i` holds state word `i` of all eight
        // blocks; only the counter word differs between lanes.
        let mut initial = [_mm256_set1_epi32(0); 16];
        for (vector, word) in initial.iter_mut().zip(state) {
            *vector = _mm256_set1_epi32(*word as i32);
        }
        // Lane-wise wrapping add, exactly the scalar `wrapping_add(1)` per
        // block — a group may straddle the `u32::MAX` wrap.
        initial[12] = _mm256_add_epi32(initial[12], _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));

        let mut x = initial;
        for _ in 0..10 {
            quarter_round(&mut x, 0, 4, 8, 12);
            quarter_round(&mut x, 1, 5, 9, 13);
            quarter_round(&mut x, 2, 6, 10, 14);
            quarter_round(&mut x, 3, 7, 11, 15);
            quarter_round(&mut x, 0, 5, 10, 15);
            quarter_round(&mut x, 1, 6, 11, 12);
            quarter_round(&mut x, 2, 7, 8, 13);
            quarter_round(&mut x, 3, 4, 9, 14);
        }
        for (word, start) in x.iter_mut().zip(&initial) {
            *word = _mm256_add_epi32(*word, *start);
        }

        // Back to block-major: row `j` of each half is words 0..8 (resp.
        // 8..16) of block `j`, i.e. its first (resp. second) 32 bytes.
        let low = transpose8([x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]]);
        let high = transpose8([x[8], x[9], x[10], x[11], x[12], x[13], x[14], x[15]]);
        for (block, (first, second)) in low.into_iter().zip(high).enumerate() {
            for (offset, keystream) in [(block * 64, first), (block * 64 + 32, second)] {
                let out = match src {
                    Some(src) => _mm256_xor_si256(
                        keystream,
                        _mm256_loadu_si256(src.add(offset).cast::<__m256i>()),
                    ),
                    None => keystream,
                };
                _mm256_storeu_si256(dst.add(offset).cast::<__m256i>(), out);
            }
        }
    }

    /// The scalar quarter round of `secure.rs`, eight blocks wide.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn quarter_round(x: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize) {
        // `vpshufb` works within each 128-bit lane, which is what a
        // per-word byte rotation needs: word bytes [0,1,2,3] rotated left
        // by 16 bits read from [2,3,0,1], by 8 bits from [3,0,1,2].
        let rotate16 = _mm256_setr_epi8(
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, 2, 3, 0, 1, 6, 7, 4, 5, 10, 11,
            8, 9, 14, 15, 12, 13,
        );
        let rotate8 = _mm256_setr_epi8(
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, 3, 0, 1, 2, 7, 4, 5, 6, 11, 8,
            9, 10, 15, 12, 13, 14,
        );
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rotate16);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        let t = _mm256_xor_si256(x[b], x[c]);
        x[b] = _mm256_or_si256(_mm256_slli_epi32::<12>(t), _mm256_srli_epi32::<20>(t));
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rotate8);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        let t = _mm256_xor_si256(x[b], x[c]);
        x[b] = _mm256_or_si256(_mm256_slli_epi32::<7>(t), _mm256_srli_epi32::<25>(t));
    }

    /// Transposes an 8 × 8 matrix of 32-bit words: row `j` of the result
    /// is lane `j` of each input vector, in input order.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn transpose8(v: [__m256i; 8]) -> [__m256i; 8] {
        // 32-bit interleave of neighbouring rows, then 64-bit interleave of
        // those pairs: every vector now holds one lane of four rows in each
        // 128-bit half (lanes 0..4 low, 4..8 high).
        let ab_lo = _mm256_unpacklo_epi32(v[0], v[1]);
        let ab_hi = _mm256_unpackhi_epi32(v[0], v[1]);
        let cd_lo = _mm256_unpacklo_epi32(v[2], v[3]);
        let cd_hi = _mm256_unpackhi_epi32(v[2], v[3]);
        let ef_lo = _mm256_unpacklo_epi32(v[4], v[5]);
        let ef_hi = _mm256_unpackhi_epi32(v[4], v[5]);
        let gh_lo = _mm256_unpacklo_epi32(v[6], v[7]);
        let gh_hi = _mm256_unpackhi_epi32(v[6], v[7]);
        let abcd = [
            _mm256_unpacklo_epi64(ab_lo, cd_lo),
            _mm256_unpackhi_epi64(ab_lo, cd_lo),
            _mm256_unpacklo_epi64(ab_hi, cd_hi),
            _mm256_unpackhi_epi64(ab_hi, cd_hi),
        ];
        let efgh = [
            _mm256_unpacklo_epi64(ef_lo, gh_lo),
            _mm256_unpackhi_epi64(ef_lo, gh_lo),
            _mm256_unpacklo_epi64(ef_hi, gh_hi),
            _mm256_unpackhi_epi64(ef_hi, gh_hi),
        ];
        // Stitch the matching 128-bit halves together.
        [
            _mm256_permute2x128_si256::<0x20>(abcd[0], efgh[0]),
            _mm256_permute2x128_si256::<0x20>(abcd[1], efgh[1]),
            _mm256_permute2x128_si256::<0x20>(abcd[2], efgh[2]),
            _mm256_permute2x128_si256::<0x20>(abcd[3], efgh[3]),
            _mm256_permute2x128_si256::<0x31>(abcd[0], efgh[0]),
            _mm256_permute2x128_si256::<0x31>(abcd[1], efgh[1]),
            _mm256_permute2x128_si256::<0x31>(abcd[2], efgh[2]),
            _mm256_permute2x128_si256::<0x31>(abcd[3], efgh[3]),
        ]
    }
}
