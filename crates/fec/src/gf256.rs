//! Arithmetic in GF(2⁸), the Galois field with 256 elements.
//!
//! Elements are bytes; addition is XOR; multiplication is polynomial
//! multiplication modulo the primitive polynomial
//! `x⁸ + x⁴ + x³ + x² + 1` (0x11D), the same field used by Rizzo's erasure
//! code implementation.  Multiplication and division are table-driven
//! (exp/log tables built at compile time), so the per-byte cost of encoding
//! is one table lookup and one addition.
//!
//! # Bulk kernels
//!
//! The slice routines ([`dot_into`], [`addmul_slice`], [`mul_slice_into`],
//! [`xor_slice`]) are the encoder's and decoder's inner loops, and they run
//! on the
//! [`Kernel`] that `rapidware_packet::cpu::Cpu::active()` allows (see
//! [`active_kernel`]):
//!
//! * **GFNI** (x86-64 with AVX-512BW, `gf256_simd.rs`) — one
//!   `vgf2p8affineqb` multiplies 64 bytes by a coefficient: the map
//!   `b ↦ c · b` is linear over GF(2), so it is an 8 × 8 bit matrix
//!   (`affine_matrix`), and the instruction applies one matrix to every
//!   byte.  (`vgf2p8mulb` would be one instruction too, but it hard-wires
//!   AES's polynomial 0x11B, not this field's 0x11D.)  A ragged tail is
//!   one masked load and store, so no slice ever reaches the scalar loop.
//!   A whole row of the code — `Σ cⱼ · srcⱼ`, one parity or one rebuilt
//!   source ([`dot_into`]) — is one pass: each 64 bytes of the output is
//!   accumulated in a register over up to four sources and stored once,
//!   where the other kernels store it once per source.
//! * **AVX2** / **SSSE3** (x86-64, `gf256_simd.rs`) — splat-table
//!   nibble-split kernels (`vpshufb`/`pshufb`): each coefficient's
//!   multiplication map is two 16-entry tables (low and high nibble), so 32
//!   (or 16) products cost two shuffles and one XOR.  Each variant carries
//!   the `cpu` token that proves its instructions exist.
//! * **Scalar** — the portable table loop, always compiled, always the
//!   reference: [`Kernel::Scalar`] is what the SIMD kernels are
//!   property-tested against on any machine.

use rapidware_packet::cpu::{Avx2, Cpu, Gfni, Ssse3};

use crate::gf256_simd;

/// The primitive polynomial used to construct the field (without the x⁸ term).
const PRIMITIVE_POLY: u16 = 0x11D;

/// Size of the multiplicative group of GF(2⁸).
const GROUP_ORDER: usize = 255;

struct Tables {
    exp: [u8; 512],
    log: [u8; 256],
}

const fn build_tables() -> Tables {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < GROUP_ORDER {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= PRIMITIVE_POLY;
        }
        i += 1;
    }
    // Duplicate the table so exp[(log a + log b)] never needs a modulo.
    let mut j = GROUP_ORDER;
    while j < 512 {
        exp[j] = exp[j - GROUP_ORDER];
        j += 1;
    }
    Tables { exp, log }
}

static TABLES: Tables = build_tables();

/// The full 256 × 256 multiplication table, built at compile time.
///
/// Row `c` is the map `b ↦ c · b`, so the bulk slice routines pay **one**
/// table lookup per byte instead of the two log lookups plus branch of the
/// scalar [`mul`] — the classic optimisation from Rizzo's `fec` library,
/// where the encoder's inner loop is a single `gf_mul_table` indexing.
static MUL_TABLE: [[u8; 256]; 256] = build_mul_table();

const fn build_mul_table() -> [[u8; 256]; 256] {
    let tables = build_tables();
    let mut table = [[0u8; 256]; 256];
    let mut a = 1usize;
    while a < 256 {
        let log_a = tables.log[a] as usize;
        let mut b = 1usize;
        while b < 256 {
            table[a][b] = tables.exp[log_a + tables.log[b] as usize];
            b += 1;
        }
        a += 1;
    }
    table
}

/// The multiplication-by-`c` lookup table: `mul_row(c)[b] == mul(c, b)`.
///
/// Exposed so callers that apply the same coefficient to many bytes (the
/// encoder's parity rows, Gaussian elimination) can hoist the row lookup out
/// of their inner loops.
#[inline]
pub fn mul_row(c: u8) -> &'static [u8; 256] {
    &MUL_TABLE[c as usize]
}

/// The two 16-entry shuffle tables describing multiplication by one
/// coefficient, in the layout `pshufb` consumes.
///
/// `mul(c, b) == lo[b & 0xF] ^ hi[b >> 4]` because multiplication is linear
/// over the field's XOR addition: `b = (b & 0xF) ⊕ (b & 0xF0)`.
#[derive(Debug)]
pub(crate) struct NibblePair {
    /// `lo[x] = mul(c, x)` for `x` in `0..16`.
    pub(crate) lo: [u8; 16],
    /// `hi[x] = mul(c, x << 4)` for `x` in `0..16`.
    pub(crate) hi: [u8; 16],
}

/// Per-coefficient nibble shuffle tables (8 KiB), built at compile time.
static NIBBLE_TABLES: [NibblePair; 256] = build_nibble_tables();

const fn build_nibble_tables() -> [NibblePair; 256] {
    let mul = build_mul_table();
    let mut tables = [const { NibblePair { lo: [0; 16], hi: [0; 16] } }; 256];
    let mut c = 0usize;
    while c < 256 {
        let mut x = 0usize;
        while x < 16 {
            tables[c].lo[x] = mul[c][x];
            tables[c].hi[x] = mul[c][x << 4];
            x += 1;
        }
        c += 1;
    }
    tables
}

/// Per-coefficient GF(2) bit matrices (2 KiB), built at compile time: the
/// `vgf2p8affineqb` operand of multiplication by `c`.
static AFFINE_MATRICES: [u64; 256] = build_affine_matrices();

/// Multiplication by `c` as the 8 × 8 bit matrix `vgf2p8affineqb` takes:
/// bit `i` of a product is the parity of the input bits selected by byte
/// `7 − i` of the matrix, and input bit `j` contributes bit `i` of
/// `c · 2ʲ`.
const fn build_affine_matrices() -> [u64; 256] {
    let tables = build_tables();
    let mut matrices = [0u64; 256];
    let mut c = 1usize;
    while c < 256 {
        let log_c = tables.log[c] as usize;
        let mut matrix = 0u64;
        let mut j = 0;
        while j < 8 {
            // c · 2ʲ, the image of input bit j.
            let column = tables.exp[log_c + j];
            let mut i = 0;
            while i < 8 {
                if column >> i & 1 == 1 {
                    matrix |= 1 << (8 * (7 - i) + j);
                }
                i += 1;
            }
            j += 1;
        }
        matrices[c] = matrix;
        c += 1;
    }
    matrices
}

/// The bit matrix of multiplication by `c`, in `vgf2p8affineqb`'s layout.
#[inline]
pub(crate) fn affine_matrix(c: u8) -> u64 {
    AFFINE_MATRICES[c as usize]
}

/// Which bulk-slice kernel a call runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// 64-byte `vgf2p8affineqb` kernel (x86-64 with GFNI and AVX-512BW).
    Gfni(Gfni),
    /// 32-byte `vpshufb` nibble-split kernel (x86-64 with AVX2).
    Avx2(Avx2),
    /// 16-byte `pshufb` nibble-split kernel (x86-64 with SSSE3).
    Ssse3(Ssse3),
    /// The portable table-driven loop (always available): the reference.
    Scalar,
}

impl Kernel {
    /// The widest kernel `cpu` allows.
    #[inline]
    pub fn new(cpu: Cpu) -> Self {
        match (cpu.gfni(), cpu.avx2(), cpu.ssse3()) {
            (Some(gfni), _, _) => Kernel::Gfni(gfni),
            (None, Some(avx2), _) => Kernel::Avx2(avx2),
            (None, None, Some(ssse3)) => Kernel::Ssse3(ssse3),
            (None, None, None) => Kernel::Scalar,
        }
    }

    /// A short stable name, suitable for bench-report metadata.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Gfni(_) => "gfni",
            Kernel::Avx2(_) => "avx2",
            Kernel::Ssse3(_) => "ssse3",
            Kernel::Scalar => "scalar",
        }
    }

    /// [`xor_slice`] on this kernel: AVX2 (and GFNI, which implies it)
    /// takes slices of 32 bytes and more, 32 bytes per step; everything
    /// else runs eight bytes at a time through `u64` words, which the
    /// compiler further vectorises.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn xor(self, dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len(), "xor_slice length mismatch");
        let avx2 = match self {
            Kernel::Gfni(gfni) => Some(gfni.avx512().avx2()),
            Kernel::Avx2(avx2) => Some(avx2),
            Kernel::Ssse3(_) | Kernel::Scalar => None,
        };
        if let Some(avx2) = avx2.filter(|_| dst.len() >= 32) {
            return gf256_simd::xor_avx2(avx2, dst, src);
        }
        let mut dst_words = dst.chunks_exact_mut(8);
        let mut src_words = src.chunks_exact(8);
        for (d, s) in dst_words.by_ref().zip(src_words.by_ref()) {
            let word = u64::from_ne_bytes(d.try_into().expect("chunk of 8"))
                ^ u64::from_ne_bytes(s.try_into().expect("chunk of 8"));
            d.copy_from_slice(&word.to_ne_bytes());
        }
        for (d, s) in dst_words
            .into_remainder()
            .iter_mut()
            .zip(src_words.remainder())
        {
            *d ^= *s;
        }
    }

    /// [`addmul_slice`] on this kernel: GFNI takes every slice, AVX2 and
    /// SSSE3 slices of one vector (32 or 16 bytes) and more, the scalar
    /// loop everything else.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn addmul(self, dst: &mut [u8], src: &[u8], c: u8) {
        assert_eq!(dst.len(), src.len(), "addmul_slice length mismatch");
        match c {
            0 => {}
            1 => self.xor(dst, src),
            _ => self.mul::<true>(dst, src, c),
        }
    }

    /// [`mul_slice_into`] on this kernel, with the thresholds of
    /// [`addmul`](Self::addmul).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn mul_into(self, dst: &mut [u8], src: &[u8], c: u8) {
        assert_eq!(dst.len(), src.len(), "mul_slice_into length mismatch");
        match c {
            0 => dst.fill(0),
            1 => dst.copy_from_slice(src),
            _ => self.mul::<false>(dst, src, c),
        }
    }

    /// [`dot_into`] on this kernel: GFNI in one pass per four sources, the
    /// others [`mul_into`](Self::mul_into) for the first term
    /// and [`addmul`](Self::addmul) for each other.
    ///
    /// # Panics
    ///
    /// Panics if a source is not as long as `dst`.
    pub fn dot_into<'a>(self, dst: &mut [u8], terms: impl IntoIterator<Item = (&'a [u8], u8)>) {
        let mut terms = terms.into_iter().fuse();
        let Kernel::Gfni(gfni) = self else {
            match terms.next() {
                Some((src, c)) => self.mul_into(dst, src, c),
                None => dst.fill(0),
            }
            for (src, c) in terms {
                self.addmul(dst, src, c);
            }
            return;
        };
        let mut add = false;
        loop {
            let group: [Option<(&[u8], u8)>; DOT_TERMS] = core::array::from_fn(|_| terms.next());
            let Some((first, _)) = group[0] else {
                if !add {
                    dst.fill(0);
                }
                return;
            };
            // A short group is filled with the zero matrix, whose product
            // is zero whatever it multiplies.
            let sources = group.map(|term| term.map_or(first, |(src, _)| src));
            let matrices = group.map(|term| term.map_or(0, |(_, c)| affine_matrix(c)));
            if add {
                gf256_simd::dot_gfni::<true>(gfni, dst, sources, matrices);
            } else {
                gf256_simd::dot_gfni::<false>(gfni, dst, sources, matrices);
            }
            add = true;
        }
    }

    /// `dst[i] ^= c * src[i]` when `ADD`, else `dst[i] = c * src[i]`.
    fn mul<const ADD: bool>(self, dst: &mut [u8], src: &[u8], c: u8) {
        let nibbles = &NIBBLE_TABLES[c as usize];
        let row = mul_row(c);
        match self {
            Kernel::Gfni(gfni) => gf256_simd::mul_gfni::<ADD>(gfni, dst, src, affine_matrix(c)),
            Kernel::Avx2(avx2) if dst.len() >= 32 => gf256_simd::mul_avx2::<ADD>(avx2, dst, src, nibbles, row),
            Kernel::Ssse3(ssse3) if dst.len() >= 16 => gf256_simd::mul_ssse3::<ADD>(ssse3, dst, src, nibbles, row),
            _ => {
                for (d, s) in dst.iter_mut().zip(src) {
                    *d = row[*s as usize] ^ if ADD { *d } else { 0 };
                }
            }
        }
    }
}

/// The kernel the bulk slice routines run on: the widest one
/// `Cpu::active()` allows — so `RAPIDWARE_FORCE_SCALAR` pins
/// [`Kernel::Scalar`].
#[inline]
pub fn active_kernel() -> Kernel {
    Kernel::new(Cpu::active())
}

/// Sources one pass of the GFNI [`dot_into`] reads.
pub(crate) const DOT_TERMS: usize = 4;

/// Computes `dst = Σ cⱼ · srcⱼ` over the `(srcⱼ, cⱼ)` of `terms` on the
/// [`active_kernel`] — one row of the code: a parity from the sources, or a
/// lost source from the shards that arrived.  No terms give zeros.
///
/// # Panics
///
/// Panics if a source is not as long as `dst`.
pub fn dot_into<'a>(dst: &mut [u8], terms: impl IntoIterator<Item = (&'a [u8], u8)>) {
    active_kernel().dot_into(dst, terms);
}

/// Adds two field elements (XOR).
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Subtracts two field elements (identical to addition in GF(2⁸)).
#[inline]
pub fn sub(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplies two field elements.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        let idx = TABLES.log[a as usize] as usize + TABLES.log[b as usize] as usize;
        TABLES.exp[idx]
    }
}

/// Divides `a` by `b`.
///
/// # Panics
///
/// Panics if `b` is zero (division by zero has no meaning in the field).
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "division by zero in GF(256)");
    if a == 0 {
        0
    } else {
        let idx =
            TABLES.log[a as usize] as usize + GROUP_ORDER - TABLES.log[b as usize] as usize;
        TABLES.exp[idx]
    }
}

/// Multiplicative inverse of `a`.
///
/// # Panics
///
/// Panics if `a` is zero.
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no inverse in GF(256)");
    TABLES.exp[GROUP_ORDER - TABLES.log[a as usize] as usize]
}

/// Raises `a` to the power `e`.
pub fn pow(a: u8, e: u32) -> u8 {
    if e == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let log_a = TABLES.log[a as usize] as u64;
    let idx = (log_a * u64::from(e)) % GROUP_ORDER as u64;
    TABLES.exp[idx as usize]
}

/// Computes `dst[i] ^= src[i]` for every byte (bulk field addition) on
/// the [`active_kernel`].  This is the `c == 1` fast path of the encoder
/// and the whole story for XOR-based parity.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn xor_slice(dst: &mut [u8], src: &[u8]) {
    active_kernel().xor(dst, src);
}

/// Computes `dst[i] ^= c * src[i]` for every byte on the
/// [`active_kernel`] — the inner loop of the encoder and of Gaussian
/// elimination on data rows: two shuffles and one XOR per 16/32 bytes on
/// the SIMD kernels, one lookup in the precomputed `c` row per byte on the
/// scalar one, and wide XOR for `c == 1`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn addmul_slice(dst: &mut [u8], src: &[u8], c: u8) {
    active_kernel().addmul(dst, src, c);
}

/// Computes `dst[i] = c * src[i]` for every byte on the [`active_kernel`].
///
/// This is the "first column" of a parity row: writing the scaled source
/// directly saves the zero-fill plus XOR that `addmul` into a fresh buffer
/// would cost.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul_slice_into(dst: &mut [u8], src: &[u8], c: u8) {
    active_kernel().mul_into(dst, src, c);
}

/// Computes `dst[i] = c * dst[i]` for every byte.
pub fn mul_slice(dst: &mut [u8], c: u8) {
    if c == 1 {
        return;
    }
    if c == 0 {
        dst.fill(0);
        return;
    }
    let row = mul_row(c);
    for d in dst.iter_mut() {
        *d = row[*d as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_is_xor() {
        assert_eq!(add(0b1010, 0b0110), 0b1100);
        assert_eq!(sub(0b1010, 0b0110), 0b1100);
    }

    #[test]
    fn multiplication_identities() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(1, a), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(0, a), 0);
        }
    }

    #[test]
    fn known_products() {
        // 2 * 2 = 4, and a product that wraps through the polynomial:
        assert_eq!(mul(2, 2), 4);
        assert_eq!(mul(0x80, 2), 0x1D); // x^8 ≡ x^4+x^3+x^2+1
    }

    #[test]
    fn inverse_round_trip() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a = {a}");
            assert_eq!(div(a, a), 1);
            assert_eq!(div(mul(a, 7), 7), a);
        }
    }

    #[test]
    fn multiplication_is_commutative_and_associative() {
        // Spot-check associativity/commutativity on a grid (full proptest in
        // tests/proptest_gf256.rs).
        for a in (0..=255u8).step_by(17) {
            for b in (0..=255u8).step_by(13) {
                assert_eq!(mul(a, b), mul(b, a));
                for c in (0..=255u8).step_by(29) {
                    assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
                    assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for a in [0u8, 1, 2, 3, 7, 29, 190, 255] {
            let mut acc = 1u8;
            for e in 0..10u32 {
                assert_eq!(pow(a, e), acc, "a={a} e={e}");
                acc = mul(acc, a);
            }
        }
        assert_eq!(pow(0, 0), 1);
        assert_eq!(pow(0, 5), 0);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = div(5, 0);
    }

    #[test]
    #[should_panic(expected = "no inverse")]
    fn inverse_of_zero_panics() {
        let _ = inv(0);
    }

    #[test]
    fn addmul_slice_matches_scalar_ops() {
        let src: Vec<u8> = (0..64).map(|i| (i * 7 + 3) as u8).collect();
        let mut dst: Vec<u8> = (0..64).map(|i| (i * 13 + 1) as u8).collect();
        let expected: Vec<u8> = dst
            .iter()
            .zip(&src)
            .map(|(d, s)| add(*d, mul(29, *s)))
            .collect();
        addmul_slice(&mut dst, &src, 29);
        assert_eq!(dst, expected);
    }

    #[test]
    fn addmul_slice_with_zero_and_one() {
        let src = vec![5u8; 8];
        let mut dst = vec![3u8; 8];
        addmul_slice(&mut dst, &src, 0);
        assert_eq!(dst, vec![3u8; 8]);
        addmul_slice(&mut dst, &src, 1);
        assert_eq!(dst, vec![6u8; 8]); // 3 ^ 5
    }

    #[test]
    fn mul_row_matches_scalar_mul() {
        for a in (0..=255u8).step_by(7) {
            let row = mul_row(a);
            for b in 0..=255u8 {
                assert_eq!(row[b as usize], mul(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn xor_slice_matches_scalar_xor_all_lengths() {
        // Cover the word loop and every remainder length.
        for len in 0..=33usize {
            let src: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let mut dst: Vec<u8> = (0..len).map(|i| (i * 13 + 1) as u8).collect();
            let expected: Vec<u8> = dst.iter().zip(&src).map(|(d, s)| d ^ s).collect();
            xor_slice(&mut dst, &src);
            assert_eq!(dst, expected, "len {len}");
        }
    }

    #[test]
    fn mul_slice_into_matches_scalar_ops() {
        let src: Vec<u8> = (0..64).map(|i| (i * 5 + 2) as u8).collect();
        for c in [0u8, 1, 2, 29, 255] {
            let mut dst = vec![0xAAu8; 64];
            mul_slice_into(&mut dst, &src, c);
            let expected: Vec<u8> = src.iter().map(|s| mul(c, *s)).collect();
            assert_eq!(dst, expected, "c = {c}");
        }
    }

    #[test]
    fn nibble_tables_recompose_the_full_product() {
        for c in 0..=255u8 {
            let pair = &NIBBLE_TABLES[c as usize];
            for b in 0..=255u8 {
                let product = pair.lo[(b & 0x0F) as usize] ^ pair.hi[(b >> 4) as usize];
                assert_eq!(product, mul(c, b), "c={c} b={b}");
            }
        }
    }

    #[test]
    fn affine_matrices_recompose_the_full_product() {
        // `vgf2p8affineqb` evaluated in software: output bit i is the
        // parity of `matrix.byte[7 - i] & b`.
        for c in 0..=255u8 {
            let matrix = affine_matrix(c);
            for b in 0..=255u8 {
                let product = (0..8).fold(0u8, |product, i| {
                    let row = (matrix >> (8 * (7 - i))) as u8;
                    product | (((row & b).count_ones() & 1) as u8) << i
                });
                assert_eq!(product, mul(c, b), "c={c} b={b}");
            }
        }
    }

    #[test]
    fn dispatched_kernels_match_scalar_across_lengths_and_coefficients() {
        // Exercises every kernel this machine has (the proptest suite
        // covers the same ground with random data and offsets).
        for kernel in Cpu::tiers().map(Kernel::new) {
            for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 1024] {
                let src: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
                let base: Vec<u8> = (0..len).map(|i| (i * 13 + 1) as u8).collect();
                let name = kernel.name();
                for c in [0u8, 1, 2, 29, 128, 255] {
                    let mut simd = base.clone();
                    let mut scalar = base.clone();
                    kernel.addmul(&mut simd, &src, c);
                    Kernel::Scalar.addmul(&mut scalar, &src, c);
                    assert_eq!(simd, scalar, "{name} addmul len={len} c={c}");

                    let mut simd = base.clone();
                    let mut scalar = base.clone();
                    kernel.mul_into(&mut simd, &src, c);
                    Kernel::Scalar.mul_into(&mut scalar, &src, c);
                    assert_eq!(simd, scalar, "{name} mul_into len={len} c={c}");
                }
                let mut simd = base.clone();
                let mut scalar = base;
                kernel.xor(&mut simd, &src);
                Kernel::Scalar.xor(&mut scalar, &src);
                assert_eq!(simd, scalar, "{name} xor len={len}");
            }
        }
    }

    #[test]
    fn dot_into_matches_scalar_on_every_kernel() {
        // Up to nine terms: no group, a short group, whole groups, and a
        // whole group followed by a short one.
        let len = 200;
        let sources: Vec<Vec<u8>> = (0..9).map(|j| (0..len).map(|i| (i * 7 + j * 31 + 3) as u8).collect()).collect();
        for kernel in Cpu::tiers().map(Kernel::new) {
            for count in 0..=sources.len() {
                let terms = || sources[..count].iter().enumerate().map(|(j, src)| (src.as_slice(), (j * 53 + 1) as u8));
                let mut expected = vec![0u8; len];
                for (src, c) in terms() {
                    Kernel::Scalar.addmul(&mut expected, src, c);
                }
                for sub in [0, 1, 63, 64, 65, len] {
                    let mut out = vec![0xA5u8; sub];
                    kernel.dot_into(&mut out, terms().map(|(src, c)| (&src[..sub], c)));
                    assert_eq!(out, expected[..sub], "{} kernel, {count} terms, len {sub}", kernel.name());
                }
            }
        }
    }

    #[test]
    fn kernel_name_is_stable() {
        let kernel = active_kernel();
        assert!(matches!(kernel.name(), "gfni" | "avx2" | "ssse3" | "scalar"));
        // Detection is cached: repeated calls agree.
        assert_eq!(active_kernel(), kernel);
    }

    #[test]
    fn mul_slice_scales_in_place() {
        let mut data = vec![1u8, 2, 3, 0, 255];
        let expected: Vec<u8> = data.iter().map(|v| mul(*v, 7)).collect();
        mul_slice(&mut data, 7);
        assert_eq!(data, expected);
        mul_slice(&mut data, 0);
        assert_eq!(data, vec![0; 5]);
    }
}
