//! x86-64 kernels for the ChaCha20 keystream: eight blocks per call on
//! AVX2, sixteen plus up to four on AVX-512.
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
//! The AVX-512 kernel ([`Avx512`]) runs the same word-major layout sixteen
//! lanes wide in `zmm` registers, where `vprold` does all four rotations,
//! and a 16 × 16 transpose (`vpunpck{l,h}{dq,qdq}`, then `vshufi32x4`)
//! brings the blocks back.  A call that needs more than sixteen blocks
//! carries up to four more in *row layout*: one whole block per 128-bit
//! lane, rows `a`, `b`, `c`, `d` in four vectors, the diagonal round
//! reached by rotating rows with `vpshufd`.  Those four blocks are one long
//! dependent chain, so their rounds are interleaved into the sixteen
//! lanes' round loop, where that chain hides under the lanes' throughput.
//! One call thus covers 1 to [`WIDEST_BLOCKS`] (20) blocks; a ragged last
//! block is read and written through AVX-512BW byte masks.
//!
//! # Safety
//!
//! This module and `poly1305_simd.rs` are the only ones in the crate that
//! use `unsafe`, and this one uses it for exactly two things:
//!
//! * **`#[target_feature]` calls** — the kernels are compiled for AVX2 and
//!   AVX-512F/BW, which the build target does not guarantee.  They are
//!   reachable only through the safe functions below, each of which
//!   demands a `rapidware_packet::cpu` token — [`Avx2`] or [`Avx512`] —
//!   that only `cpu.rs` can mint, after detecting the instructions.
//!   Holding a token is proof they exist.
//! * **unaligned vector loads/stores** — `_mm256_loadu_si256` /
//!   `_mm256_storeu_si256` through pointers derived from the argument
//!   slices, at offsets `0, 32, …, 480`, whose safe wrapper asserts that
//!   every slice is exactly [`GROUP_LEN`] (512) bytes; and
//!   `_mm512_loadu_si512` / `_mm512_storeu_si512` at offsets `0, 64, …`
//!   below the slices' common length, the ragged last block through
//!   `_mm512_maskz_loadu_epi8` / `_mm512_mask_storeu_epi8` whose mask
//!   enables only the bytes below that length (masked-off bytes are never
//!   accessed).  That wrapper asserts equal lengths and at most
//!   [`WIDEST_BLOCKS`] blocks.
//!
//! The scalar `chacha20_words` in `secure.rs` stays the always-compiled
//! reference and the path for short inputs and tails; these kernels are
//! drop-ins with byte-identical output (property-tested in
//! `tests/proptest_aead_kernels.rs`, including the `u32::MAX` counter wrap
//! at every position of a call).
#![allow(unsafe_code)]

use rapidware_packet::cpu::{Avx2, Avx512};

/// Bytes of keystream one AVX2 call produces: eight 64-byte blocks.
pub(crate) const GROUP_LEN: usize = 512;

/// Blocks one AVX-512 call produces in its word-major lanes alone.
pub(crate) const LANE_BLOCKS: usize = 16;

/// Most blocks one AVX-512 call produces: the sixteen lanes and four
/// row-layout blocks.
pub(crate) const WIDEST_BLOCKS: usize = LANE_BLOCKS + 4;

/// The eight blocks starting at `state`'s counter (`state[12]`, wrapping)
/// into `dst`: `src ^ keystream` when there is a `src`, raw keystream
/// otherwise.  Every slice must be [`GROUP_LEN`] bytes.
#[inline]
pub(crate) fn group(_avx2: Avx2, state: &[u32; 16], src: Option<&[u8]>, dst: &mut [u8]) {
    assert!(
        dst.len() == GROUP_LEN && src.is_none_or(|src| src.len() == GROUP_LEN),
        "one group is 512 bytes"
    );
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the `Avx2` token proves AVX2 was detected (see the module
    // doc), and `dst` and — when there is one — `src` were just asserted to
    // be exactly `GROUP_LEN` bytes, which is all the kernel reads or writes.
    unsafe {
        x86::group(state, src.map(<[u8]>::as_ptr), dst.as_mut_ptr());
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = state;
        unreachable!("no Avx2 token exists off x86-64");
    }
}

/// One 16+4-way call over the blocks starting at `state`'s counter
/// (`state[12]`, wrapping): with `key`, the first block's raw keystream
/// lands there; the blocks after it go to `dst` — `src ^ keystream` when
/// there is a `src`, raw keystream otherwise — a ragged last block using
/// only its first bytes.  A `src` must be as long as `dst`, and the call at
/// most [`WIDEST_BLOCKS`] blocks, `key` included.
#[inline]
pub(crate) fn blocks(
    _avx512: Avx512,
    state: &[u32; 16],
    key: Option<&mut [u8; 64]>,
    src: Option<&[u8]>,
    dst: &mut [u8],
) {
    let blocks = usize::from(key.is_some()) + dst.len().div_ceil(64);
    assert!(
        blocks <= WIDEST_BLOCKS && src.is_none_or(|src| src.len() == dst.len()),
        "one call is at most 20 blocks, between equal-length slices"
    );
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the `Avx512` token proves AVX-512F/BW were detected (see the
    // module doc); the kernel writes 64 bytes to `key` when there is one,
    // reads `src` and writes `dst` below `dst.len()` only — `src` was just
    // asserted to be as long — and produces at most the 20 blocks just
    // asserted.
    unsafe {
        x86::blocks(
            state,
            key.map(|key| key.as_mut_ptr()),
            src.map(<[u8]>::as_ptr),
            dst.as_mut_ptr(),
            dst.len(),
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (state, key, src, blocks);
        unreachable!("no Avx512 token exists off x86-64");
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_or_si256,
        _mm256_permute2x128_si256, _mm256_set1_epi32, _mm256_setr_epi32, _mm256_setr_epi8,
        _mm256_shuffle_epi8, _mm256_slli_epi32, _mm256_srli_epi32, _mm256_storeu_si256,
        _mm256_unpackhi_epi32, _mm256_unpackhi_epi64, _mm256_unpacklo_epi32,
        _mm256_unpacklo_epi64, _mm256_xor_si256, _mm512_add_epi32, _mm512_broadcast_i32x4,
        _mm512_loadu_si512, _mm512_mask_storeu_epi8, _mm512_maskz_loadu_epi8, _mm512_rol_epi32,
        _mm512_set1_epi32, _mm512_setr_epi32, _mm512_setzero_si512, _mm512_shuffle_epi32,
        _mm512_shuffle_i32x4, _mm512_storeu_si512, _mm512_unpackhi_epi32, _mm512_unpackhi_epi64,
        _mm512_unpacklo_epi32, _mm512_unpacklo_epi64, _mm512_xor_si512, _mm_loadu_si128, __m128i,
        __m512i,
    };

    use super::{LANE_BLOCKS, WIDEST_BLOCKS};

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

    /// One 16+4-way call: `usize::from(key.is_some()) + ⌈len / 64⌉` blocks
    /// from `state`'s counter.  The first goes raw to `key` when there is
    /// one; the rest give `dst = src ^ keystream` (raw keystream without
    /// `src`) over `len` bytes.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F and AVX-512BW.  At most [`WIDEST_BLOCKS`] blocks;
    /// `key`, when `Some`, must be valid for 64 bytes of writes, `dst` for
    /// `len` bytes of writes and `src`, when `Some`, for `len` bytes of
    /// reads.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) unsafe fn blocks(
        state: &[u32; 16],
        key: Option<*mut u8>,
        src: Option<*const u8>,
        dst: *mut u8,
        len: usize,
    ) {
        let sink = Sink {
            count: usize::from(key.is_some()) + len.div_ceil(64),
            key,
            src,
            dst,
            len,
        };
        debug_assert!(sink.count <= WIDEST_BLOCKS);
        // The row-layout blocks add about a seventh to the call (≈ 310 →
        // 350 ns), so only a call that needs them computes them.
        if sink.count > LANE_BLOCKS {
            keystream16::<true>(state, &sink);
        } else {
            keystream16::<false>(state, &sink);
        }
    }

    /// Where the blocks of one [`blocks`] call go, as it describes.
    struct Sink {
        /// Blocks the call produces.
        count: usize,
        key: Option<*mut u8>,
        src: Option<*const u8>,
        dst: *mut u8,
        len: usize,
    }

    impl Sink {
        /// Puts keystream block `index` of the call where it belongs, or
        /// drops it if the call needs fewer blocks.
        ///
        /// # Safety
        ///
        /// Requires AVX-512F and AVX-512BW, and the pointers to be valid as
        /// [`blocks`] requires.
        #[target_feature(enable = "avx512f,avx512bw")]
        #[inline]
        unsafe fn put(&self, index: usize, block: __m512i) {
            if index >= self.count {
                return;
            }
            // With a `key`, block 0 goes there and `dst` starts at block 1.
            let skip = usize::from(self.key.is_some());
            let Some(offset) = index.checked_sub(skip).map(|block| block * 64) else {
                if let Some(key) = self.key {
                    _mm512_storeu_si512(key.cast::<__m512i>(), block);
                }
                return;
            };
            let rest = self.len - offset;
            if rest >= 64 {
                let out = match self.src {
                    Some(src) => {
                        _mm512_xor_si512(block, _mm512_loadu_si512(src.add(offset).cast::<__m512i>()))
                    }
                    None => block,
                };
                _mm512_storeu_si512(self.dst.add(offset).cast::<__m512i>(), out);
            } else {
                // Only the bytes below `len` are enabled, so nothing past
                // either slice is read or written.
                let mask = (1u64 << rest) - 1;
                let out = match self.src {
                    Some(src) => {
                        _mm512_xor_si512(block, _mm512_maskz_loadu_epi8(mask, src.add(offset).cast::<i8>()))
                    }
                    None => block,
                };
                _mm512_mask_storeu_epi8(self.dst.add(offset).cast::<i8>(), mask, out);
            }
        }
    }

    /// The keystream blocks `counter .. counter + 16` (and, with `ROWS`,
    /// `counter + 16 .. counter + 20`), each handed to `sink` as soon as it
    /// is whole.
    #[target_feature(enable = "avx512f,avx512bw")]
    #[inline]
    unsafe fn keystream16<const ROWS: bool>(state: &[u32; 16], sink: &Sink) {
        // Word-major lanes: vector `i` holds state word `i` of sixteen
        // blocks; the counter lane-wise wrapping, like the scalar
        // `wrapping_add(1)`.  The feed-forward re-broadcasts the state
        // rather than keeping sixteen more vectors live across the rounds.
        let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let mut x = [_mm512_setzero_si512(); 16];
        for (vector, word) in x.iter_mut().zip(state) {
            *vector = _mm512_set1_epi32(*word as i32);
        }
        x[12] = _mm512_add_epi32(x[12], lanes);
        // Row layout: vector `r` holds row `r` (words `4r .. 4r + 4`) of
        // blocks 16..20, one block per 128-bit lane.
        let counters = _mm512_setr_epi32(16, 0, 0, 0, 17, 0, 0, 0, 18, 0, 0, 0, 19, 0, 0, 0);
        let mut rows = [_mm512_setzero_si512(); 4];
        for (r, row) in rows.iter_mut().enumerate() {
            *row = _mm512_broadcast_i32x4(_mm_loadu_si128(state[4 * r..].as_ptr().cast::<__m128i>()));
        }
        rows[3] = _mm512_add_epi32(rows[3], counters);
        let rows_initial = rows;

        for _ in 0..10 {
            quarter_round16(&mut x, 0, 4, 8, 12);
            quarter_round16(&mut x, 1, 5, 9, 13);
            if ROWS {
                row_round(&mut rows);
                // Rotate rows b, c, d left by 1, 2, 3 words: the diagonals
                // become columns.
                rows[1] = _mm512_shuffle_epi32::<0x39>(rows[1]);
                rows[2] = _mm512_shuffle_epi32::<0x4E>(rows[2]);
                rows[3] = _mm512_shuffle_epi32::<0x93>(rows[3]);
            }
            quarter_round16(&mut x, 2, 6, 10, 14);
            quarter_round16(&mut x, 3, 7, 11, 15);
            quarter_round16(&mut x, 0, 5, 10, 15);
            quarter_round16(&mut x, 1, 6, 11, 12);
            if ROWS {
                row_round(&mut rows);
                rows[1] = _mm512_shuffle_epi32::<0x93>(rows[1]);
                rows[2] = _mm512_shuffle_epi32::<0x4E>(rows[2]);
                rows[3] = _mm512_shuffle_epi32::<0x39>(rows[3]);
            }
            quarter_round16(&mut x, 2, 7, 8, 13);
            quarter_round16(&mut x, 3, 4, 9, 14);
        }
        for (vector, word) in x.iter_mut().zip(state) {
            *vector = _mm512_add_epi32(*vector, _mm512_set1_epi32(*word as i32));
        }
        x[12] = _mm512_add_epi32(x[12], lanes);

        // Two rounds of 32- then 64-bit interleaves turn words `4g .. 4g + 4`
        // into four vectors `quads[r][g]` whose 128-bit lane `l` holds those
        // words of block `4l + r`; a 4 × 4 lane transpose finishes.
        let mut quads = [[_mm512_setzero_si512(); 4]; 4];
        for (g, words) in x.chunks_exact(4).enumerate() {
            let ab_lo = _mm512_unpacklo_epi32(words[0], words[1]);
            let ab_hi = _mm512_unpackhi_epi32(words[0], words[1]);
            let cd_lo = _mm512_unpacklo_epi32(words[2], words[3]);
            let cd_hi = _mm512_unpackhi_epi32(words[2], words[3]);
            quads[0][g] = _mm512_unpacklo_epi64(ab_lo, cd_lo);
            quads[1][g] = _mm512_unpackhi_epi64(ab_lo, cd_lo);
            quads[2][g] = _mm512_unpacklo_epi64(ab_hi, cd_hi);
            quads[3][g] = _mm512_unpackhi_epi64(ab_hi, cd_hi);
        }
        for (r, quad) in quads.into_iter().enumerate() {
            for (lane, block) in transpose_lanes(quad).into_iter().enumerate() {
                sink.put(4 * lane + r, block);
            }
        }
        if ROWS {
            for (row, start) in rows.iter_mut().zip(&rows_initial) {
                *row = _mm512_add_epi32(*row, *start);
            }
            for (k, block) in transpose_lanes(rows).into_iter().enumerate() {
                sink.put(LANE_BLOCKS + k, block);
            }
        }
    }

    /// The scalar quarter round of `secure.rs`, sixteen blocks wide.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn quarter_round16(x: &mut [__m512i; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = _mm512_add_epi32(x[a], x[b]);
        x[d] = _mm512_rol_epi32::<16>(_mm512_xor_si512(x[d], x[a]));
        x[c] = _mm512_add_epi32(x[c], x[d]);
        x[b] = _mm512_rol_epi32::<12>(_mm512_xor_si512(x[b], x[c]));
        x[a] = _mm512_add_epi32(x[a], x[b]);
        x[d] = _mm512_rol_epi32::<8>(_mm512_xor_si512(x[d], x[a]));
        x[c] = _mm512_add_epi32(x[c], x[d]);
        x[b] = _mm512_rol_epi32::<7>(_mm512_xor_si512(x[b], x[c]));
    }

    /// Four quarter rounds of four row-layout blocks at once: each 32-bit
    /// lane of `rows` is one column (or, rotated, one diagonal).
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn row_round(rows: &mut [__m512i; 4]) {
        let [a, b, c, d] = rows;
        *a = _mm512_add_epi32(*a, *b);
        *d = _mm512_rol_epi32::<16>(_mm512_xor_si512(*d, *a));
        *c = _mm512_add_epi32(*c, *d);
        *b = _mm512_rol_epi32::<12>(_mm512_xor_si512(*b, *c));
        *a = _mm512_add_epi32(*a, *b);
        *d = _mm512_rol_epi32::<8>(_mm512_xor_si512(*d, *a));
        *c = _mm512_add_epi32(*c, *d);
        *b = _mm512_rol_epi32::<7>(_mm512_xor_si512(*b, *c));
    }

    /// Transposes a 4 × 4 matrix of 128-bit lanes: vector `k` of the result
    /// is lane `k` of each input vector, in input order.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn transpose_lanes([a, b, c, d]: [__m512i; 4]) -> [__m512i; 4] {
        let ab_lo = _mm512_shuffle_i32x4::<0x44>(a, b); // a0 a1 b0 b1
        let cd_lo = _mm512_shuffle_i32x4::<0x44>(c, d); // c0 c1 d0 d1
        let ab_hi = _mm512_shuffle_i32x4::<0xEE>(a, b); // a2 a3 b2 b3
        let cd_hi = _mm512_shuffle_i32x4::<0xEE>(c, d); // c2 c3 d2 d3
        [
            _mm512_shuffle_i32x4::<0x88>(ab_lo, cd_lo),
            _mm512_shuffle_i32x4::<0xDD>(ab_lo, cd_lo),
            _mm512_shuffle_i32x4::<0x88>(ab_hi, cd_hi),
            _mm512_shuffle_i32x4::<0xDD>(ab_hi, cd_hi),
        ]
    }
}
