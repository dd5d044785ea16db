//! The secure channel filter pair: AEAD sealing as just another filter.
//!
//! The paper's vision puts proxies on *untrusted* last-hop links, so the
//! bytes a proxy ships must be protectable by the same composition
//! machinery as FEC or transcoding: "crypto is just another filter in the
//! chain".  [`EncryptFilter`] seals every non-control packet payload with
//! ChaCha20-Poly1305 (RFC 8439, implemented in-crate — the workspace builds
//! offline) into a fresh `len + 16` buffer — the packet's final payload
//! allocation, written once — so siblings sharing the old payload never see
//! it; [`DecryptFilter`] verifies then strips, turning
//! any tag, nonce, or key mismatch into a *counted drop* — never a panic,
//! never a forwarded corrupt frame.
//!
//! ## One pass, one allocation, three keystream kernels
//!
//! Sealing reads the shared payload where it lies and writes ciphertext
//! straight into the new payload's `Bytes`, MAC-ing each run of at most
//! 4 KiB while it is still in L1 — no copy-then-encrypt-then-reread, no
//! scratch `Vec` copied into the `Arc` afterwards.  Opening checks the tag
//! against the borrowed bytes first and allocates only for a frame that
//! authenticates, so a forged frame costs its MAC and no more.
//!
//! The ChaCha20 keystream comes from one of three kernels: the scalar
//! block function in this file — always compiled, the reference, and the
//! path for short payloads and tails — or the AVX2 kernel of
//! `chacha_simd.rs`, which produces eight blocks per call, or its AVX-512
//! kernel, which produces sixteen plus up to four per call and takes
//! every packet past one 8-way group ([`WIDER_MIN_BLOCKS`]).  Which ones
//! exist is decided by the `rapidware_packet::cpu` tokens of
//! `Cpu::active()`, the value the CRC and GF(2⁸) kernels are chosen from,
//! so `RAPIDWARE_FORCE_SCALAR=1` pins the cipher to the scalar path along
//! with them.  Block 0 (whose first half is the Poly1305 one-time key) is
//! generated in the same call as the first payload keystream: the first
//! 448 bytes of it on the 8-way kernel, up to 1,216 bytes — a whole 1 KiB
//! frame — on the 16+4-way one, whose payload blocks are XORed straight
//! into the sealed payload.
//!
//! The same choice covers the MAC.  The scalar Poly1305 in this file
//! (44-bit limbs, two blocks per step) is the reference and finishes every
//! message; on the AVX2 kernel, frames of at least [`WIDE_MAC_MIN_LEN`]
//! bytes hand their whole 64-byte groups to `poly1305_simd.rs`, four blocks
//! per step under `r⁴`, and on a CPU with AVX-512 IFMA the same frames hand
//! their whole 128-byte groups to the same module's 8-way kernel, which
//! multiplies in this file's own limbs.  All three produce identical bytes:
//! `tests/proptest_aead_kernels.rs` holds them to each other and to the RFC
//! vectors.
//!
//! ## Nonce schedule
//!
//! The 12-byte nonce is derived deterministically from the packet identity:
//! `stream_id (4 bytes BE) || seq (8 bytes BE)`.  Sequence numbers are
//! unique per stream — FEC parity packets live in a disjoint high band —
//! so no `(key, nonce)` pair ever repeats within an epoch, and batch and
//! serial processing orders agree byte-for-byte.  The first 32 bytes of
//! the wire header ride along as associated data, so a forged header with
//! a dutifully recomputed CRC still fails authentication.
//!
//! ## Key rotation
//!
//! Key rotation rides the control-frame path that already carries FIN and
//! quiescence markers: a [`rekey_packet`] control frame announces `(epoch,
//! seq boundary)`.  Both filters derive the epoch key locally from their
//! shared base key — no key material crosses the wire.  [`EncryptFilter`]
//! installs the epoch and forwards the frame; [`DecryptFilter`] installs
//! the epoch and consumes it, so downstream consumers never see rotation
//! plumbing.  Each packet is sealed/opened under the *highest installed
//! epoch whose boundary does not exceed the packet's seq*, which makes
//! duplicated or re-ordered rekey frames idempotent, and makes a frame
//! replayed under a superseded key fail its tag (a counted reject).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rapidware_packet::cpu::{Avx2, Avx512, Cpu, Ifma};
use rapidware_packet::{Bytes, Packet, PacketKind};

use super::chacha_simd::{self, GROUP_LEN, LANE_BLOCKS, WIDEST_BLOCKS};
use super::poly1305_simd;
use crate::error::FilterError;
use crate::filter::{Filter, FilterCounters};

/// AEAD tag length appended to every sealed payload.
pub const TAG_LEN: usize = 16;

/// Magic prefix of a rekey control frame payload.
const REKEY_MAGIC: &[u8; 4] = b"RKEY";

// ---------------------------------------------------------------------------
// ChaCha20 (RFC 8439 §2.3).
// ---------------------------------------------------------------------------

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The initial ChaCha20 state for `(key, counter, nonce)`.
fn chacha20_state(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u32; 16] {
    let mut state = [0u32; 16];
    state[0] = 0x6170_7865;
    state[1] = 0x3320_646e;
    state[2] = 0x7962_2d32;
    state[3] = 0x6b20_6574;
    for (i, chunk) in key.chunks_exact(4).enumerate() {
        state[4 + i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    state[12] = counter;
    for (i, chunk) in nonce.chunks_exact(4).enumerate() {
        state[13 + i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    state
}

/// The 20-round keystream words for one state (state + rounds, per RFC).
/// The scalar reference every wider kernel is held to, and the path for
/// short inputs and tails.
fn chacha20_words(state: &[u32; 16]) -> [u32; 16] {
    let mut working = *state;
    for _ in 0..10 {
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    for (word, initial) in working.iter_mut().zip(state.iter()) {
        *word = word.wrapping_add(*initial);
    }
    working
}

/// Serialises keystream words little-endian into `out` (4 bytes per word).
fn words_to_bytes(words: &[u32], out: &mut [u8]) {
    for (lane, word) in out.chunks_exact_mut(4).zip(words) {
        lane.copy_from_slice(&word.to_le_bytes());
    }
}

/// `dst = src ^ pad`, byte-wise over equal-length slices.
fn xor_into(dst: &mut [u8], src: &[u8], pad: &[u8]) {
    debug_assert!(dst.len() == src.len() && dst.len() == pad.len());
    for ((out, byte), key) in dst.iter_mut().zip(src).zip(pad) {
        *out = byte ^ key;
    }
}

/// Which kernels a call runs on: the scalar [`chacha20_words`] block by
/// block and the scalar [`Poly1305`]; or the AVX2 kernels of
/// `chacha_simd.rs` (eight keystream blocks per call) and
/// `poly1305_simd.rs` (four MAC blocks per step); or those two plus the
/// AVX-512 keystream kernel of `chacha_simd.rs` (16 + 4 blocks per call),
/// which takes every packet past one 8-way group; or, on a CPU with
/// AVX-512 IFMA, the same keystream kernels with the 8-way IFMA MAC of
/// `poly1305_simd.rs` in place of the 4-way one.
///
/// The filters always run the kernels of `Cpu::active()`.  The type is
/// exported (hidden from the documented API) only so the kernel parity
/// suite and the kernel bench — both outside this crate — can name each
/// kernel.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keystream {
    /// The scalar keystream and MAC: the reference.
    Scalar,
    /// The 8-way keystream and 4-way MAC kernels.
    Avx2(Avx2),
    /// The 16+4-way keystream kernel over the AVX2 ones.
    Avx512(Avx512),
    /// The keystream kernels of [`Avx512`](Self::Avx512) and the 8-way
    /// IFMA MAC.
    Ifma(Ifma),
}

/// Blocks of keystream still needed from which one 8-way call beats going
/// block by block.  Measured on the development host (Xeon @ 2.1 GHz): one
/// group costs what two scalar blocks do (≈ 245 ns against ≈ 120 ns a
/// block), so from three blocks up the wide kernel is never slower.
const WIDE_MIN_BLOCKS: usize = 3;

/// Blocks of keystream a packet needs (block 0 included) from which it runs
/// on the 16+4-way kernel rather than the 8-way one: past one 8-way group,
/// i.e. payloads over 448 bytes.  Measured on a Xeon (Sapphire Rapids,
/// 2 vCPUs): a 16-block call reads within 15 % of one 8-way group (≈ 285
/// against 300–340 ns), too close to separate on that host, so a packet
/// that fits one group keeps the 8-way kernel; from nine blocks the one
/// call replaces a second group or scalar tail blocks and is 1.7–2.6×
/// cheaper (see ARCHITECTURE.md).
const WIDER_MIN_BLOCKS: usize = 9;

/// Ciphertext bytes [`Keystream::seal`] produces before it stops to MAC
/// them: sixty-four blocks, which are whole 8-way groups and whole 16-block
/// calls.
const MAC_RUN_LEN: usize = 64 * 64;

/// Keystream bytes a [`Cipher`] can hold ahead of use: one 16+4-way call.
const AHEAD_LEN: usize = WIDEST_BLOCKS * 64;

/// Ciphertext bytes from which a frame's MAC runs on a vector kernel.
/// Below it the kernel's fixed costs — more powers of `r` (three for the
/// 4-way kernel, seven for the 8-way one), the 4-way kernel's re-cut to
/// 26-bit limbs, one closing multiply per `update` — outweigh what the
/// lanes save over the two-blocks-per-step scalar loop.  Both kernels break
/// even between 256 and 384 bytes (see ARCHITECTURE.md for the
/// measurements).
const WIDE_MAC_MIN_LEN: usize = 384;

impl Keystream {
    /// The widest kernels `cpu` allows.
    #[inline]
    pub fn new(cpu: Cpu) -> Self {
        match (cpu.ifma(), cpu.avx512(), cpu.avx2()) {
            (Some(ifma), _, _) => Keystream::Ifma(ifma),
            (None, Some(avx512), _) => Keystream::Avx512(avx512),
            (None, None, Some(avx2)) => Keystream::Avx2(avx2),
            (None, None, None) => Keystream::Scalar,
        }
    }

    /// The widest keystream kernel: `"avx512"`, `"avx2"` or `"scalar"`.
    pub fn name(self) -> &'static str {
        match self {
            Keystream::Avx512(_) | Keystream::Ifma(_) => "avx512",
            Keystream::Avx2(_) => "avx2",
            Keystream::Scalar => "scalar",
        }
    }

    /// The MAC kernel: `"ifma"` (8-way, AVX-512 IFMA), `"avx2"` (4-way, on
    /// both the AVX2 and the AVX-512F/BW keystream) or `"scalar"`.
    pub fn mac_name(self) -> &'static str {
        match self {
            Keystream::Ifma(_) => "ifma",
            Keystream::Avx512(_) | Keystream::Avx2(_) => "avx2",
            Keystream::Scalar => "scalar",
        }
    }

    /// The keystream kernels alone: [`Ifma`](Self::Ifma) runs those of
    /// [`Avx512`](Self::Avx512), so a [`Cipher`] never holds it.
    fn keystream(self) -> Self {
        match self {
            Keystream::Ifma(ifma) => Keystream::Avx512(ifma.avx512()),
            _ => self,
        }
    }

    /// These keystream kernels as a packet needing `blocks` blocks of
    /// keystream (block 0 included) runs them: the widest one that pays
    /// off.
    fn for_blocks(self, blocks: usize) -> Self {
        match self.keystream() {
            _ if blocks < WIDE_MIN_BLOCKS => Keystream::Scalar,
            Keystream::Avx512(avx512) if blocks < WIDER_MIN_BLOCKS => Keystream::Avx2(avx512.avx2()),
            keystream => keystream,
        }
    }

    /// The kernel a frame of `ciphertext_len` bytes is MAC-ed on: this
    /// one's, or the scalar MAC below [`WIDE_MAC_MIN_LEN`].
    fn mac_for(self, ciphertext_len: usize) -> Self {
        if ciphertext_len >= WIDE_MAC_MIN_LEN {
            self
        } else {
            Keystream::Scalar
        }
    }

    /// `dst = src ^ keystream(key, nonce, counter…)` (RFC 8439 §2.4).
    pub fn chacha20_xor(
        self,
        key: &[u8; 32],
        nonce: &[u8; 12],
        counter: u32,
        src: &[u8],
        dst: &mut [u8],
    ) {
        assert_eq!(src.len(), dst.len(), "chacha20_xor needs equal-length slices");
        Cipher::at(self, chacha20_state(key, counter, nonce)).apply(src, dst);
    }

    /// The Poly1305 tag of `message` under a one-time `key` (RFC 8439
    /// §2.5) on this kernel's MAC — for the parity suite and the kernel
    /// bench, so without the length threshold [`seal`](Self::seal) applies:
    /// the 4-way kernel takes every whole 64-byte group, the 8-way one every
    /// whole 128-byte group.
    pub fn poly1305(self, key: &[u8; 32], message: &[u8]) -> [u8; 16] {
        let mut mac = Poly1305::new(key, self);
        mac.update(message);
        mac.finish()
    }

    /// AEAD-seals `plaintext` (RFC 8439 §2.8) into a fresh buffer —
    /// ciphertext, then the 16-byte tag — in one pass: every run of
    /// keystream is XORed from the source straight into its final place and
    /// MAC-ed while still in L1.  A run is [`MAC_RUN_LEN`] bytes: long
    /// enough that a frame up to that size pays the 4-way MAC's closing
    /// multiply once, short enough to trail the cipher inside any L1.
    /// The buffer is the sealed packet's payload allocation itself.
    pub fn seal(self, key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Bytes {
        let mut sealed = Bytes::zeroed(plaintext.len() + TAG_LEN);
        let (ciphertext, tag) = sealed.make_mut().split_at_mut(plaintext.len());
        let mut cipher = Cipher::for_packet(self, key, nonce, plaintext.len());
        // Block 0 and the first run are one run of blocks, so every later
        // run starts on a group and call boundary.
        let head = plaintext.len().min(MAC_RUN_LEN - 64);
        let otk = cipher.start(&plaintext[..head], &mut ciphertext[..head]);
        let mut mac = self.mac_begin(&otk, aad, plaintext.len());
        mac.update(&ciphertext[..head]);
        for (src, dst) in plaintext[head..]
            .chunks(MAC_RUN_LEN)
            .zip(ciphertext[head..].chunks_mut(MAC_RUN_LEN))
        {
            cipher.apply(src, dst);
            mac.update(dst);
        }
        tag.copy_from_slice(&mac_end(mac, aad.len(), plaintext.len()));
        sealed
    }

    /// Verifies what [`seal`](Self::seal) produced and, only if the tag
    /// matches, opens it into a fresh buffer.  `None` on any mismatch: a
    /// frame that does not authenticate is MAC-ed where it lies and never
    /// copied.
    pub fn open(self, key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], sealed: &[u8]) -> Option<Bytes> {
        let plaintext_len = sealed.len().checked_sub(TAG_LEN)?;
        let (ciphertext, tag) = sealed.split_at(plaintext_len);
        let mut cipher = Cipher::for_packet(self, key, nonce, plaintext_len);
        if !self.tag_matches(&cipher.one_time_key(plaintext_len), aad, ciphertext, tag) {
            return None;
        }
        let mut plaintext = Bytes::zeroed(plaintext_len);
        cipher.apply(ciphertext, plaintext.make_mut());
        Some(plaintext)
    }

    /// Starts the tag computation of a frame of `ciphertext_len` bytes:
    /// picks the MAC kernel, then absorbs the padded associated data.
    fn mac_begin(self, otk: &[u8; 32], aad: &[u8], ciphertext_len: usize) -> Poly1305 {
        let mut mac = Poly1305::new(otk, self.mac_for(ciphertext_len));
        mac.update(aad);
        mac.pad16();
        mac
    }

    /// Whether `tag` is the AEAD tag of `(aad, ciphertext)` under the
    /// one-time key `otk`.  Reads borrowed bytes only, so a frame is
    /// rejected before anything is allocated for it.
    fn tag_matches(self, otk: &[u8; 32], aad: &[u8], ciphertext: &[u8], tag: &[u8]) -> bool {
        let mut mac = self.mac_begin(otk, aad, ciphertext.len());
        mac.update(ciphertext);
        let expected = mac_end(mac, aad.len(), ciphertext.len());
        let mut diff = 0u8;
        for (a, b) in expected.iter().zip(tag) {
            diff |= a ^ b;
        }
        diff == 0
    }
}

/// A position in one `(key, nonce)` keystream.
struct Cipher {
    /// The state whose counter word is the next block to generate.
    state: [u32; 16],
    /// The kernels this keystream runs on.
    kernel: Keystream,
    /// Keystream an earlier call generated past what its caller could use
    /// yet; `None` until a call first needs the room, so a cipher that never
    /// does (every seal on the 16+4-way kernel) never clears it.
    ahead: Option<Ahead>,
    /// Set once a call has ended inside a block whose unused keystream was
    /// dropped: that call must be the cipher's last.
    ended: bool,
}

/// Read-ahead keystream: `bytes[pos..end]` is generated but not yet used.
struct Ahead {
    bytes: [u8; AHEAD_LEN],
    pos: usize,
    end: usize,
}

impl Ahead {
    /// Room for one call's keystream, of which the caller fills
    /// `bytes[..end]` and uses `bytes[..pos]` at once.
    fn new(pos: usize, end: usize) -> Self {
        Self {
            bytes: [0u8; AHEAD_LEN],
            pos,
            end,
        }
    }
}

/// Blocks the next 16+4-way call takes of `blocks` still needed: all of
/// them if one call can, else sixteen — so the last call of a run carries
/// what is left over a multiple of sixteen, up to four blocks of it.
fn call_blocks(blocks: usize) -> usize {
    if blocks > WIDEST_BLOCKS {
        LANE_BLOCKS
    } else {
        blocks
    }
}

impl Cipher {
    /// A cipher about to generate the block `state` describes.
    fn at(kernel: Keystream, state: [u32; 16]) -> Self {
        Self {
            state,
            kernel: kernel.keystream(),
            ahead: None,
            ended: false,
        }
    }

    /// A cipher at block 0 of the keystream of one packet whose payload is
    /// `payload_len` bytes, on the kernel that packet's length calls for
    /// ([`Keystream::for_blocks`]).
    fn for_packet(kernel: Keystream, key: &[u8; 32], nonce: &[u8; 12], payload_len: usize) -> Self {
        let kernel = kernel.for_blocks(1 + payload_len.div_ceil(64));
        Self::at(kernel, chacha20_state(key, 0, nonce))
    }

    fn advance(&mut self, blocks: usize) {
        self.state[12] = self.state[12].wrapping_add(blocks as u32);
    }

    /// Generates block 0 and returns its first half — the Poly1305 one-time
    /// key — leaving the cipher at block 1, where the `payload_len`-byte
    /// payload starts.  A wide kernel generates block 0 in the call that
    /// also makes the payload's first keystream, which waits ahead.
    fn one_time_key(&mut self, payload_len: usize) -> [u8; 32] {
        debug_assert_eq!(self.state[12], 0, "the one-time key is block 0");
        let mut otk = [0u8; 32];
        let ahead = match self.kernel {
            Keystream::Scalar => {
                words_to_bytes(&chacha20_words(&self.state)[..8], &mut otk);
                self.advance(1);
                return otk;
            }
            Keystream::Avx2(avx2) => {
                let ahead = self.ahead.insert(Ahead::new(64, GROUP_LEN));
                chacha_simd::group(avx2, &self.state, None, &mut ahead.bytes[..GROUP_LEN]);
                ahead
            }
            Keystream::Avx512(avx512) => {
                let blocks = call_blocks(1 + payload_len.div_ceil(64));
                let ahead = self.ahead.insert(Ahead::new(64, blocks * 64));
                chacha_simd::blocks(avx512, &self.state, None, None, &mut ahead.bytes[..blocks * 64]);
                ahead
            }
            Keystream::Ifma(_) => unreachable!("a cipher holds keystream kernels alone"),
        };
        otk.copy_from_slice(&ahead.bytes[..32]);
        let blocks = ahead.end / 64;
        self.advance(blocks);
        otk
    }

    /// [`one_time_key`](Self::one_time_key), then [`apply`](Self::apply)
    /// over `src` — which on the 16+4-way kernel is one call less: its
    /// first call carries block 0 and XORs the rest straight into `dst`.
    fn start(&mut self, src: &[u8], dst: &mut [u8]) -> [u8; 32] {
        let Keystream::Avx512(avx512) = self.kernel else {
            let otk = self.one_time_key(src.len());
            self.apply(src, dst);
            return otk;
        };
        debug_assert_eq!(self.state[12], 0, "the one-time key is block 0");
        let first = src.len().min((call_blocks(1 + src.len().div_ceil(64)) - 1) * 64);
        let mut block0 = [0u8; 64];
        chacha_simd::blocks(avx512, &self.state, Some(&mut block0), Some(&src[..first]), &mut dst[..first]);
        self.advance(1 + first.div_ceil(64));
        if first < src.len() {
            self.apply(&src[first..], &mut dst[first..]);
        } else {
            self.ended = !first.is_multiple_of(64);
        }
        let mut otk = [0u8; 32];
        otk.copy_from_slice(&block0[..32]);
        otk
    }

    /// `dst = src ^ keystream`, advancing the position by `src.len()`.
    fn apply(&mut self, mut src: &[u8], mut dst: &mut [u8]) {
        assert!(!self.ended, "a call that ends inside a block is the last");
        debug_assert_eq!(src.len(), dst.len());
        if let Some(ahead) = &mut self.ahead {
            let ready = src.len().min(ahead.end - ahead.pos);
            let (src_ready, src_rest) = src.split_at(ready);
            let (dst_ready, dst_rest) = std::mem::take(&mut dst).split_at_mut(ready);
            xor_into(dst_ready, src_ready, &ahead.bytes[ahead.pos..][..ready]);
            ahead.pos += ready;
            src = src_rest;
            dst = dst_rest;
        }

        if let Keystream::Avx512(avx512) = self.kernel {
            // Every call XORs straight into `dst`; only the last can end
            // inside a block.
            while !src.is_empty() {
                let take = src.len().min(call_blocks(src.len().div_ceil(64)) * 64);
                let (src_call, src_rest) = src.split_at(take);
                let (dst_call, dst_rest) = std::mem::take(&mut dst).split_at_mut(take);
                chacha_simd::blocks(avx512, &self.state, None, Some(src_call), dst_call);
                self.advance(take.div_ceil(64));
                self.ended = !take.is_multiple_of(64);
                src = src_rest;
                dst = dst_rest;
            }
            return;
        }

        if let Keystream::Avx2(avx2) = self.kernel {
            let mut src_groups = src.chunks_exact(GROUP_LEN);
            let mut dst_groups = std::mem::take(&mut dst).chunks_exact_mut(GROUP_LEN);
            for (src_group, dst_group) in (&mut src_groups).zip(&mut dst_groups) {
                chacha_simd::group(avx2, &self.state, Some(src_group), dst_group);
                self.advance(8);
            }
            src = src_groups.remainder();
            dst = dst_groups.into_remainder();
            if src.len().div_ceil(64) >= WIDE_MIN_BLOCKS {
                let ahead = self.ahead.insert(Ahead::new(src.len(), GROUP_LEN));
                chacha_simd::group(avx2, &self.state, None, &mut ahead.bytes[..GROUP_LEN]);
                xor_into(dst, src, &ahead.bytes[..src.len()]);
                self.advance(8);
                return;
            }
        }

        for (src_block, dst_block) in src.chunks(64).zip(dst.chunks_mut(64)) {
            let mut block = [0u8; 64];
            words_to_bytes(&chacha20_words(&self.state), &mut block);
            self.advance(1);
            xor_into(dst_block, src_block, &block[..src_block.len()]);
            self.ended = src_block.len() < 64;
        }
    }
}

// ---------------------------------------------------------------------------
// Poly1305 (RFC 8439 §2.5), 44-bit limbs with u128 products, safe integer
// arithmetic only.
// ---------------------------------------------------------------------------

/// Low 44 bits of a limb.
const M44: u64 = 0x0fff_ffff_ffff;
/// Low 42 bits of the top limb (44 + 44 + 42 = 130).
const M42: u64 = 0x03ff_ffff_ffff;
/// The 2^128 bit every full 16-byte block carries, in top-limb position.
const HIBIT: u64 = 1 << 40;

/// A little-endian `u64` from the first 8 bytes of `bytes`.
#[inline]
fn le_u64(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(word)
}

/// One 16-byte block as 44/44/42-bit limbs (`hibit` set for full blocks;
/// partial final blocks arrive pre-padded with their `0x01` terminator).
#[inline]
fn block_limbs(chunk: &[u8], hibit: u64) -> [u64; 3] {
    let t0 = le_u64(&chunk[..8]);
    let t1 = le_u64(&chunk[8..16]);
    [t0 & M44, ((t0 >> 44) | (t1 << 20)) & M44, (t1 >> 24) | hibit]
}

/// The three column sums of `a · b` mod 2^130 - 5, before carrying.
/// 2^132 ≡ 20 (mod 2^130 - 5), so limbs that overflow the top wrap back
/// scaled by 20.
#[inline]
fn limb_products(a: [u64; 3], b: [u64; 3]) -> [u128; 3] {
    let [a0, a1, a2] = a.map(u128::from);
    let [b0, b1, b2] = b.map(u128::from);
    let s1 = u128::from(b[1] * 20);
    let s2 = u128::from(b[2] * 20);
    [
        a0 * b0 + a1 * s2 + a2 * s1,
        a0 * b1 + a1 * b0 + a2 * s2,
        a0 * b2 + a1 * b1 + a2 * b0,
    ]
}

/// Carry propagation back into 44/44/42-bit limbs (the middle limb may
/// keep one spare bit, which the next product absorbs).
#[inline]
fn carry_limbs(d: [u128; 3]) -> [u64; 3] {
    let mut carry = (d[0] >> 44) as u64;
    let h0 = (d[0] as u64) & M44;
    let d1 = d[1] + u128::from(carry);
    carry = (d1 >> 44) as u64;
    let h1 = (d1 as u64) & M44;
    let d2 = d[2] + u128::from(carry);
    carry = (d2 >> 42) as u64;
    let h2 = (d2 as u64) & M42;
    let h0 = h0 + carry * 5;
    [h0 & M44, h1 + (h0 >> 44), h2]
}

/// A vector MAC kernel and the powers of r it steps by.
enum Wide {
    /// The 4-way kernel, its powers in its own 26-bit limbs.
    Avx2(Avx2, poly1305_simd::Powers),
    /// The 8-way kernel, its powers in this file's 44-bit limbs.
    Ifma(Ifma, poly1305_simd::IfmaPowers),
}

impl Wide {
    /// Bytes the kernel takes per step; it takes whole such groups only.
    fn group_len(&self) -> usize {
        match self {
            Wide::Avx2(..) => poly1305_simd::GROUP_LEN,
            Wide::Ifma(..) => poly1305_simd::IFMA_GROUP_LEN,
        }
    }

    /// Absorbs whole groups into the accumulator `h`.
    fn absorb(&self, h: [u64; 3], groups: &[u8]) -> [u64; 3] {
        match self {
            Wide::Avx2(avx2, powers) => poly1305_simd::absorb(*avx2, powers, h, groups),
            Wide::Ifma(ifma, powers) => carry_limbs(poly1305_simd::absorb_ifma(*ifma, powers, h, groups)),
        }
    }
}

struct Poly1305 {
    r: [u64; 3],
    /// r², so two blocks are absorbed per carry chain.
    r_squared: [u64; 3],
    /// The vector kernel whole groups of blocks go to; `None` keeps every
    /// block on the scalar code below.
    wide: Option<Wide>,
    s: [u64; 2],
    h: [u64; 3],
    /// Bytes of an incomplete block carried between `update` calls.
    buf: [u8; 16],
    buf_len: usize,
}

impl Poly1305 {
    /// A MAC under the one-time `key` on `kernel`'s MAC: a vector one takes
    /// whole groups of blocks (the caller decides whether the message is
    /// long enough to repay the extra powers).
    fn new(key: &[u8; 32], kernel: Keystream) -> Self {
        // Clamp r per the RFC, then split into 44/44/42-bit limbs.
        let t0 = le_u64(&key[..8]) & 0x0fff_fffc_0fff_ffff;
        let t1 = le_u64(&key[8..16]) & 0x0fff_fffc_0fff_fffc;
        let r = [
            t0 & M44,
            ((t0 >> 44) | (t1 << 20)) & M44,
            (t1 >> 24) & M42,
        ];
        let mul = |a, b| carry_limbs(limb_products(a, b));
        let r_squared = mul(r, r);
        let avx2 = |avx2| {
            let r_fourth = mul(r_squared, r_squared);
            let powers = [r, r_squared, mul(r_squared, r), r_fourth, mul(r_fourth, r_fourth)];
            Wide::Avx2(avx2, poly1305_simd::Powers::from_limbs44(powers))
        };
        let wide = match kernel {
            Keystream::Scalar => None,
            Keystream::Avx2(token) => Some(avx2(token)),
            Keystream::Avx512(avx512) => Some(avx2(avx512.avx2())),
            Keystream::Ifma(ifma) => {
                let r_cubed = mul(r_squared, r);
                let r_fourth = mul(r_squared, r_squared);
                let r_eighth = mul(r_fourth, r_fourth);
                let powers = [
                    r,
                    r_squared,
                    r_cubed,
                    r_fourth,
                    mul(r_fourth, r),
                    mul(r_fourth, r_squared),
                    mul(r_fourth, r_cubed),
                    r_eighth,
                    mul(r_eighth, r_eighth),
                ];
                Some(Wide::Ifma(ifma, powers))
            }
        };
        Self {
            r,
            r_squared,
            wide,
            s: [le_u64(&key[16..24]), le_u64(&key[24..32])],
            h: [0; 3],
            buf: [0; 16],
            buf_len: 0,
        }
    }

    /// Absorbs one 16-byte block: `h = (h + m) · r`.
    fn block(&mut self, chunk: &[u8], hibit: u64) {
        debug_assert_eq!(chunk.len(), 16, "poly1305 blocks are exactly 16 bytes");
        let m = block_limbs(chunk, hibit);
        let sum = [self.h[0] + m[0], self.h[1] + m[1], self.h[2] + m[2]];
        self.h = carry_limbs(limb_products(sum, self.r));
    }

    /// Absorbs whole full blocks: every whole group on the vector kernel
    /// when there is one, the rest two per step —
    /// `h = (h + m₁) · r² + m₂ · r` is the same polynomial as two single
    /// steps, but its two products are independent and share one carry
    /// chain (1.57× the single-block loop on the development host).
    fn full_blocks(&mut self, mut data: &[u8]) {
        debug_assert_eq!(data.len() % 16, 0);
        if let Some(wide) = &self.wide {
            let (groups, rest) = data.split_at(data.len() - data.len() % wide.group_len());
            if !groups.is_empty() {
                self.h = wide.absorb(self.h, groups);
            }
            data = rest;
        }
        let mut pairs = data.chunks_exact(32);
        for pair in &mut pairs {
            let m1 = block_limbs(&pair[..16], HIBIT);
            let m2 = block_limbs(&pair[16..], HIBIT);
            let sum = [self.h[0] + m1[0], self.h[1] + m1[1], self.h[2] + m1[2]];
            let p = limb_products(sum, self.r_squared);
            let q = limb_products(m2, self.r);
            self.h = carry_limbs([p[0] + q[0], p[1] + q[1], p[2] + q[2]]);
        }
        let last = pairs.remainder();
        if !last.is_empty() {
            self.block(last, HIBIT);
        }
    }

    fn update(&mut self, data: &[u8]) {
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(16 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 16 {
                return;
            }
            let full = self.buf;
            self.block(&full, HIBIT);
            self.buf_len = 0;
        }
        let (whole, tail) = rest.split_at(rest.len() & !15);
        self.full_blocks(whole);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Zero-fills to the next 16-byte boundary (the RFC's `pad16`).
    fn pad16(&mut self) {
        if self.buf_len > 0 {
            let full_len = self.buf_len;
            self.buf[full_len..].fill(0);
            let full = self.buf;
            self.block(&full, HIBIT);
            self.buf_len = 0;
        }
    }

    fn finish(mut self) -> [u8; 16] {
        if self.buf_len > 0 {
            let mut padded = [0u8; 16];
            padded[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            padded[self.buf_len] = 1;
            self.block(&padded, 0);
        }
        // Full carry and reduction mod 2^130 - 5.
        let [mut h0, mut h1, mut h2] = self.h;
        let mut c = h1 >> 44;
        h1 &= M44;
        h2 += c;
        c = h2 >> 42;
        h2 &= M42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= M44;
        h1 += c;
        c = h1 >> 44;
        h1 &= M44;
        h2 += c;
        c = h2 >> 42;
        h2 &= M42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= M44;
        h1 += c;

        // Compute h + -p and select it if h >= p.
        let mut g0 = h0.wrapping_add(5);
        c = g0 >> 44;
        g0 &= M44;
        let mut g1 = h1.wrapping_add(c);
        c = g1 >> 44;
        g1 &= M44;
        let g2 = h2.wrapping_add(c).wrapping_sub(1 << 42);
        if (g2 >> 63) == 0 {
            h0 = g0;
            h1 = g1;
            h2 = g2 & M42;
        }

        // Serialise to 128 bits and add s (mod 2^128).
        let lo = h0 | (h1 << 44);
        let hi = (h1 >> 20) | (h2 << 24);
        let mac = (u128::from(hi) << 64) | u128::from(lo);
        let s = (u128::from(self.s[1]) << 64) | u128::from(self.s[0]);
        mac.wrapping_add(s).to_le_bytes()
    }
}

// ---------------------------------------------------------------------------
// The AEAD construction (RFC 8439 §2.8).
// ---------------------------------------------------------------------------

/// Ends the tag computation once all ciphertext is absorbed: its padding,
/// then the two lengths.
fn mac_end(mut mac: Poly1305, aad_len: usize, ciphertext_len: usize) -> [u8; 16] {
    mac.pad16();
    let mut lengths = [0u8; 16];
    lengths[..8].copy_from_slice(&(aad_len as u64).to_le_bytes());
    lengths[8..].copy_from_slice(&(ciphertext_len as u64).to_le_bytes());
    mac.update(&lengths);
    mac.finish()
}

// ---------------------------------------------------------------------------
// Key schedule.
// ---------------------------------------------------------------------------

/// Expands the configured `u64` key into the 32-byte base key.
fn base_key(key: u64) -> [u8; 32] {
    // A splitmix-style expansion: deterministic, byte-diffuse, and
    // reproducible on both ends from the shared integer key.
    let mut state = key;
    let mut out = [0u8; 32];
    for chunk in out.chunks_exact_mut(8) {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        chunk.copy_from_slice(&z.to_le_bytes());
    }
    out
}

/// Derives the per-epoch traffic key from the base key.
///
/// Every epoch key — including epoch 0 — is one ChaCha20 block of the base
/// key under a reserved derivation nonce, so the base key itself never
/// encrypts traffic and no epoch key ever crosses the wire.
fn epoch_key(base: &[u8; 32], epoch: u32) -> [u8; 32] {
    let words = chacha20_words(&chacha20_state(base, epoch, b"rekey-derive"));
    let mut out = [0u8; 32];
    words_to_bytes(&words[..8], &mut out);
    out
}

/// The 12-byte AEAD nonce for a packet: `stream (4 BE) || seq (8 BE)`.
fn packet_nonce(packet: &Packet) -> [u8; 12] {
    let mut nonce = [0u8; 12];
    nonce[..4].copy_from_slice(&packet.stream().value().to_be_bytes());
    nonce[4..].copy_from_slice(&packet.seq().value().to_be_bytes());
    nonce
}

// ---------------------------------------------------------------------------
// Rekey control frames.
// ---------------------------------------------------------------------------

/// Builds the control frame announcing a key rotation on `packet`'s stream:
/// from `boundary` onwards, seal under `epoch`.
///
/// The frame rides the same path as FIN and quiescence markers (it is a
/// [`PacketKind::Control`] packet on the *data stream's own id*), its seq is
/// the boundary itself, and its payload is `b"RKEY" || epoch (4 BE) ||
/// boundary (8 BE)`.  Inject it into the stream immediately before the
/// first packet of the new epoch.
pub fn rekey_packet(
    stream: rapidware_packet::StreamId,
    epoch: u32,
    boundary: u64,
    timestamp_us: u64,
) -> Packet {
    let mut payload = Vec::with_capacity(16);
    payload.extend_from_slice(REKEY_MAGIC);
    payload.extend_from_slice(&epoch.to_be_bytes());
    payload.extend_from_slice(&boundary.to_be_bytes());
    Packet::with_timestamp(
        stream,
        rapidware_packet::SeqNo::new(boundary),
        PacketKind::Control,
        timestamp_us,
        payload,
    )
}

/// Parses a rekey control frame; returns `(epoch, boundary)` if `packet` is
/// one.
pub fn parse_rekey(packet: &Packet) -> Option<(u32, u64)> {
    if packet.kind() != PacketKind::Control || packet.payload_len() != 16 {
        return None;
    }
    let payload = packet.payload();
    if &payload[..4] != REKEY_MAGIC {
        return None;
    }
    let epoch = u32::from_be_bytes([payload[4], payload[5], payload[6], payload[7]]);
    let boundary = u64::from_be_bytes([
        payload[8], payload[9], payload[10], payload[11], payload[12], payload[13],
        payload[14], payload[15],
    ]);
    Some((epoch, boundary))
}

// ---------------------------------------------------------------------------
// Shared counters.
// ---------------------------------------------------------------------------

/// Shared counters describing what a secure channel filter has done.
///
/// Both [`EncryptFilter`] and [`DecryptFilter`] expose one of these through
/// [`Filter::counters`], so chains, sessions, and the proxy status
/// surface can aggregate seal/reject totals without reaching into worker
/// threads.
#[derive(Debug, Default)]
pub struct SecureChannelStats {
    sealed: AtomicU64,
    opened: AtomicU64,
    rejected: AtomicU64,
    rekeys: AtomicU64,
}

impl SecureChannelStats {
    /// Payloads sealed (encrypted and tagged).
    pub fn sealed(&self) -> u64 {
        self.sealed.load(Ordering::Relaxed)
    }

    /// Payloads verified and opened.
    pub fn opened(&self) -> u64 {
        self.opened.load(Ordering::Relaxed)
    }

    /// Frames rejected: tag mismatch, truncation, or a stale key.  Rejected
    /// frames are dropped, never forwarded.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Rekey control frames observed and installed.
    pub fn rekeys(&self) -> u64 {
        self.rekeys.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> SecureChannelSnapshot {
        SecureChannelSnapshot {
            sealed: self.sealed(),
            opened: self.opened(),
            rejected: self.rejected(),
            rekeys: self.rekeys(),
        }
    }
}

/// A point-in-time copy of [`SecureChannelStats`], summable across the
/// filters of a chain or the chains of a proxy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SecureChannelSnapshot {
    /// Payloads sealed.
    pub sealed: u64,
    /// Payloads verified and opened.
    pub opened: u64,
    /// Frames rejected and dropped.
    pub rejected: u64,
    /// Rekey frames installed.
    pub rekeys: u64,
}

impl SecureChannelSnapshot {
    /// Accumulates another snapshot into this one.
    pub fn merge(&mut self, other: SecureChannelSnapshot) {
        self.sealed += other.sealed;
        self.opened += other.opened;
        self.rejected += other.rejected;
        self.rekeys += other.rekeys;
    }

    /// `true` if every counter is zero (no secure filter did any work).
    pub fn is_empty(&self) -> bool {
        *self == SecureChannelSnapshot::default()
    }
}

// ---------------------------------------------------------------------------
// The epoch table shared by both filters.
// ---------------------------------------------------------------------------

/// Epochs an [`EpochTable`] holds: the newest few, so re-ordered
/// stragglers from just before a rotation still open, while a flood of
/// distinct forged rekey frames costs a bounded table.
const EPOCH_WINDOW: usize = 4;

/// Installed epochs, newest last, at most [`EPOCH_WINDOW`] of them; every
/// entry is `(epoch, boundary, key)`.
struct EpochTable {
    base: [u8; 32],
    epochs: Vec<(u32, u64, [u8; 32])>,
    /// The entry the last lookup chose and the seqs `lo..hi` that choose
    /// it too, so a run of same-epoch packets looks its key up once;
    /// cleared by every install.
    last: Option<(usize, std::ops::Range<u64>)>,
}

impl EpochTable {
    fn new(key: u64) -> Self {
        let base = base_key(key);
        let initial = epoch_key(&base, 0);
        Self {
            base,
            epochs: vec![(0, 0, initial)],
            last: None,
        }
    }

    /// Installs `(epoch, boundary)`, dropping the oldest epoch once more
    /// than [`EPOCH_WINDOW`] are held; duplicated or re-ordered rekey
    /// frames are idempotent.  Returns `false`, installing nothing, for an
    /// epoch already held or older than the oldest held.
    fn install(&mut self, epoch: u32, boundary: u64) -> bool {
        let Err(position) = self.epochs.binary_search_by_key(&epoch, |(e, _, _)| *e) else {
            return false;
        };
        if position == 0 {
            return false;
        }
        let key = epoch_key(&self.base, epoch);
        self.epochs.insert(position, (epoch, boundary, key));
        if self.epochs.len() > EPOCH_WINDOW {
            self.epochs.remove(0);
        }
        self.last = None;
        true
    }

    /// The key for `seq`: the highest installed epoch whose boundary does
    /// not exceed `seq`.  The [`EPOCH_WINDOW`] newest keys stay installed
    /// so re-ordered pre-boundary frames still open.
    fn key_for(&mut self, seq: u64) -> &[u8; 32] {
        let index = match &self.last {
            Some((index, seqs)) if seqs.contains(&seq) => *index,
            _ => {
                let index = self
                    .epochs
                    .iter()
                    .rposition(|(_, boundary, _)| *boundary <= seq)
                    .unwrap_or(0);
                // Every seq from this entry's boundary up to the lowest
                // boundary of a newer epoch chooses the same entry.
                let newer = self.epochs[index + 1..].iter().map(|(_, boundary, _)| *boundary);
                self.last = Some((index, self.epochs[index].1..newer.min().unwrap_or(u64::MAX)));
                index
            }
        };
        &self.epochs[index].2
    }
}

// ---------------------------------------------------------------------------
// The filters.
// ---------------------------------------------------------------------------

/// AEAD-seals every non-control packet payload in place.
///
/// Control frames (quiescence markers, FINs) pass through untouched; a
/// [`rekey_packet`] control frame additionally installs its epoch and is
/// *forwarded*, so the paired [`DecryptFilter`] downstream — or across the
/// untrusted hop — observes the same rotation.
pub struct EncryptFilter {
    name: String,
    table: EpochTable,
    stats: Arc<SecureChannelStats>,
}

/// Verifies and strips the AEAD seal applied by [`EncryptFilter`].
///
/// Any tag mismatch — a flipped bit anywhere in header or payload, a
/// truncated frame, a replay under a superseded key — is a counted drop:
/// the frame is discarded, `rejected` is incremented, and neighbouring
/// frames in the same batch are unaffected.  Rekey control frames are
/// installed and *consumed*, so downstream consumers never see rotation
/// plumbing.
pub struct DecryptFilter {
    name: String,
    table: EpochTable,
    stats: Arc<SecureChannelStats>,
}

impl std::fmt::Debug for EncryptFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EncryptFilter")
            .field("name", &self.name)
            .field("sealed", &self.stats.sealed())
            .field("epochs", &self.table.epochs.len())
            .finish()
    }
}

impl std::fmt::Debug for DecryptFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecryptFilter")
            .field("name", &self.name)
            .field("opened", &self.stats.opened())
            .field("rejected", &self.stats.rejected())
            .field("epochs", &self.table.epochs.len())
            .finish()
    }
}

impl EncryptFilter {
    /// Creates an encrypting filter keyed by `key`.
    pub fn new(key: u64) -> Self {
        Self {
            name: format!("encrypt(key={key:#x})"),
            table: EpochTable::new(key),
            stats: Arc::new(SecureChannelStats::default()),
        }
    }

    /// A handle to the filter's counters.
    pub fn stats(&self) -> Arc<SecureChannelStats> {
        Arc::clone(&self.stats)
    }
}

impl DecryptFilter {
    /// Creates a verifying filter keyed by `key`.
    pub fn new(key: u64) -> Self {
        Self {
            name: format!("decrypt(key={key:#x})"),
            table: EpochTable::new(key),
            stats: Arc::new(SecureChannelStats::default()),
        }
    }

    /// A handle to the filter's counters.
    pub fn stats(&self) -> Arc<SecureChannelStats> {
        Arc::clone(&self.stats)
    }
}

impl EncryptFilter {
    /// [`Filter::process`] on a named kernel instead of the one
    /// `Cpu::active()` allows: for the parity suite, which pins the sealed
    /// wire bytes under every kernel the CPU has.
    #[doc(hidden)]
    pub fn process_on(&mut self, kernel: Keystream, packet: Packet, out: &mut Vec<Packet>) {
        if packet.kind() == PacketKind::Control {
            if let Some((epoch, boundary)) = parse_rekey(&packet) {
                if self.table.install(epoch, boundary) {
                    self.stats.rekeys.fetch_add(1, Ordering::Relaxed);
                }
            }
            out.push(packet);
            return;
        }
        let key = self.table.key_for(packet.seq().value());
        let sealed = kernel.seal(key, &packet_nonce(&packet), &packet.aad_bytes(), packet.payload());
        self.stats.sealed.fetch_add(1, Ordering::Relaxed);
        out.push(packet.with_payload(sealed));
    }
}

impl Filter for EncryptFilter {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, packet: Packet, out: &mut Vec<Packet>) -> Result<(), FilterError> {
        self.process_on(Keystream::new(Cpu::active()), packet, out);
        Ok(())
    }

    fn counters(&self) -> Option<FilterCounters> {
        Some(FilterCounters::Secure(Arc::clone(&self.stats)))
    }
}

impl Filter for DecryptFilter {
    fn name(&self) -> &str {
        &self.name
    }

    /// Opens (or rejects, or for a rekey frame installs and consumes) one
    /// packet.
    fn process(&mut self, packet: Packet, out: &mut Vec<Packet>) -> Result<(), FilterError> {
        if packet.kind() == PacketKind::Control {
            if let Some((epoch, boundary)) = parse_rekey(&packet) {
                if self.table.install(epoch, boundary) {
                    self.stats.rekeys.fetch_add(1, Ordering::Relaxed);
                }
                // Consumed: rotation plumbing never reaches a sink.
                return Ok(());
            }
            out.push(packet);
            return Ok(());
        }
        let key = self.table.key_for(packet.seq().value());
        let kernel = Keystream::new(Cpu::active());
        match kernel.open(key, &packet_nonce(&packet), &packet.aad_bytes(), packet.payload()) {
            Some(plaintext) => {
                self.stats.opened.fetch_add(1, Ordering::Relaxed);
                out.push(packet.with_payload(plaintext));
            }
            // A counted drop: never a panic, never a forwarded corrupt
            // frame, and the rest of the batch is untouched.
            None => {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    fn counters(&self) -> Option<FilterCounters> {
        Some(FilterCounters::Secure(Arc::clone(&self.stats)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidware_packet::{SeqNo, StreamId};

    // -- RFC 8439 test vectors ---------------------------------------------

    /// Every kernel this CPU can run, the scalar one first.
    fn kernels() -> Vec<Keystream> {
        let mut kernels: Vec<Keystream> = Cpu::tiers().map(Keystream::new).collect();
        kernels.dedup();
        kernels
    }

    #[test]
    fn chacha20_block_matches_rfc8439_vector() {
        // RFC 8439 §2.3.2.
        let mut key = [0u8; 32];
        for (i, byte) in key.iter_mut().enumerate() {
            *byte = i as u8;
        }
        let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let expected: [u8; 64] = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0, 0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a,
            0xc3, 0xd4, 0x6c, 0x4e, 0xd2, 0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2,
            0xd7, 0x05, 0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9,
            0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e,
        ];
        let mut out = [0u8; 64];
        words_to_bytes(&chacha20_words(&chacha20_state(&key, 1, &nonce)), &mut out);
        assert_eq!(out, expected);
        // The same block as the head of a whole group, so the 8-way kernel
        // generates it too.
        for kernel in kernels() {
            let mut group = [0u8; GROUP_LEN];
            kernel.chacha20_xor(&key, &nonce, 1, &[0u8; GROUP_LEN], &mut group);
            assert_eq!(group[..64], expected, "{} kernel", kernel.name());
        }
    }

    #[test]
    fn poly1305_matches_rfc8439_vector() {
        // RFC 8439 §2.5.2.
        let key: [u8; 32] = [
            0x85, 0xd6, 0xbe, 0x78, 0x57, 0x55, 0x6d, 0x33, 0x7f, 0x44, 0x52, 0xfe, 0x42, 0xd5,
            0x06, 0xa8, 0x01, 0x03, 0x80, 0x8a, 0xfb, 0x0d, 0xb2, 0xfd, 0x4a, 0xbf, 0xf6, 0xaf,
            0x41, 0x49, 0xf5, 0x1b,
        ];
        let expected: [u8; 16] = [
            0xa8, 0x06, 0x1d, 0xc1, 0x30, 0x51, 0x36, 0xc6, 0xc2, 0x2b, 0x8b, 0xaf, 0x0c, 0x01,
            0x27, 0xa9,
        ];
        for kernel in kernels() {
            let tag = kernel.poly1305(&key, b"Cryptographic Forum Research Group");
            assert_eq!(tag, expected, "{} kernel", kernel.name());
        }
    }

    #[test]
    fn poly1305_pairs_agree_with_single_blocks_at_every_split() {
        // `full_blocks` absorbs two blocks per step through r²; feeding the
        // same message one block at a time must give the same tag, whatever
        // the length and however `update` calls carve it up.
        let key: [u8; 32] = core::array::from_fn(|i| (i * 37 + 11) as u8);
        let message: Vec<u8> = (0..300u32).map(|i| (i * 131 + 7) as u8).collect();
        for len in 0..=message.len() {
            let message = &message[..len];
            let mut single = Poly1305::new(&key, Keystream::Scalar);
            for chunk in message.chunks(16) {
                if chunk.len() == 16 {
                    single.block(chunk, HIBIT);
                } else {
                    single.update(chunk);
                }
            }
            let expected = single.finish();
            for kernel in kernels() {
                let name = kernel.name();
                assert_eq!(kernel.poly1305(&key, message), expected, "len {len}, one update, {name}");
                for split in [1, 15, 16, 17, 33, 64, 100] {
                    let mut pieces = Poly1305::new(&key, kernel);
                    for piece in message.chunks(split) {
                        pieces.update(piece);
                    }
                    assert_eq!(pieces.finish(), expected, "len {len}, updates of {split}, {name}");
                }
            }
        }
    }

    #[test]
    fn aead_matches_rfc8439_vector() {
        // RFC 8439 §2.8.2.
        let mut key = [0u8; 32];
        for (i, byte) in key.iter_mut().enumerate() {
            *byte = 0x80 + i as u8;
        }
        let nonce: [u8; 12] = [
            0x07, 0x00, 0x00, 0x00, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47,
        ];
        let aad: [u8; 12] = [
            0x50, 0x51, 0x52, 0x53, 0xc0, 0xc1, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7,
        ];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        for kernel in kernels() {
            let sealed = kernel.seal(&key, &nonce, &aad, plaintext);
            assert_eq!(
                &sealed[..16],
                &[
                    0xd3, 0x1a, 0x8d, 0x34, 0x64, 0x8e, 0x60, 0xdb, 0x7b, 0x86, 0xaf, 0xbc, 0x53,
                    0xef, 0x7e, 0xc2
                ],
                "ciphertext prefix, {} kernel",
                kernel.name()
            );
            assert_eq!(
                &sealed[sealed.len() - TAG_LEN..],
                &[
                    0x1a, 0xe1, 0x0b, 0x59, 0x4f, 0x09, 0xe2, 0x6a, 0x7e, 0x90, 0x2e, 0xcb, 0xd0,
                    0x60, 0x06, 0x91
                ],
                "tag, {} kernel",
                kernel.name()
            );
            assert_eq!(kernel.open(&key, &nonce, &aad, &sealed).as_deref(), Some(&plaintext[..]));
        }
    }

    // -- One-pass seal and borrow-only verify ------------------------------

    /// The seal this module shipped before the one-pass rewrite, kept as the
    /// reference: copy the payload, XOR the scalar keystream over it in
    /// place block by block, then read it a third time for the tag.
    fn three_pass_seal(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut payload = plaintext.to_vec();
        let mut state = chacha20_state(key, 1, nonce);
        for chunk in payload.chunks_mut(64) {
            let mut block = [0u8; 64];
            words_to_bytes(&chacha20_words(&state), &mut block);
            state[12] = state[12].wrapping_add(1);
            for (byte, pad) in chunk.iter_mut().zip(block) {
                *byte ^= pad;
            }
        }
        let mut otk = [0u8; 32];
        words_to_bytes(&chacha20_words(&chacha20_state(key, 0, nonce))[..8], &mut otk);
        let pad_to_16 = |len: usize| vec![0u8; (16 - len % 16) % 16];
        let mut mac_input = aad.to_vec();
        mac_input.extend(pad_to_16(aad.len()));
        mac_input.extend_from_slice(&payload);
        mac_input.extend(pad_to_16(payload.len()));
        mac_input.extend_from_slice(&(aad.len() as u64).to_le_bytes());
        mac_input.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let mut single = Poly1305::new(&otk, Keystream::Scalar);
        let mut blocks = mac_input.chunks_exact(16);
        for block in &mut blocks {
            single.block(block, HIBIT);
        }
        assert!(blocks.remainder().is_empty());
        payload.extend_from_slice(&single.finish());
        payload
    }

    #[test]
    fn one_pass_seal_equals_the_three_pass_reference() {
        let key: [u8; 32] = core::array::from_fn(|i| (i * 13 + 5) as u8);
        let nonce: [u8; 12] = core::array::from_fn(|i| (i * 29 + 1) as u8);
        let body: Vec<u8> = (0..8_200u32).map(|i| (i * 197 + 3) as u8).collect();
        // Every length around the block, first-group (448), group and
        // two-group boundaries, the MAC threshold, the ends of the first
        // 16+4-way call (960, 1,216) and of the later ones (1,984, 2,240),
        // the ends of the first (4,032) and second (8,128) MAC runs, plus
        // the benchmark's payload sizes.
        let lengths = (0..=130)
            .chain(380..=390)
            .chain(440..=460)
            .chain(505..=520)
            .chain(955..=970)
            .chain(1_210..=1_222)
            .chain(1_980..=1_990)
            .chain(2_236..=2_246)
            .chain(4_025..=4_040)
            .chain(8_120..=8_135)
            .chain([256, 1_023, 1_024, 1_025, 1_074, 1_400, 2_048, 2_100, 8_200]);
        for len in lengths {
            for aad in [&b""[..], &b"twelve bytes"[..], &[0xA5u8; 32][..]] {
                let expected = three_pass_seal(&key, &nonce, aad, &body[..len]);
                for kernel in kernels() {
                    let sealed = kernel.seal(&key, &nonce, aad, &body[..len]);
                    assert_eq!(&sealed[..], &expected[..], "len {len}, {} kernel", kernel.name());
                    assert_eq!(
                        kernel.open(&key, &nonce, aad, &sealed).as_deref(),
                        Some(&body[..len]),
                        "len {len}, {} kernel",
                        kernel.name()
                    );
                }
            }
        }
    }

    #[test]
    fn a_flipped_bit_anywhere_is_rejected_from_borrowed_bytes() {
        // `tag_matches` takes `&[u8]`s and returns a `bool`: a rejected
        // frame cannot have been copied, and `open` allocates only after it.
        let key = [7u8; 32];
        let nonce = [9u8; 12];
        let header = [3u8; 32];
        for kernel in kernels() {
            let sealed = kernel.seal(&key, &nonce, &header, &[0x5Au8; 300]);
            let matches = |aad: &[u8], sealed: &[u8]| {
                let (ciphertext, tag) = sealed.split_at(sealed.len() - TAG_LEN);
                let otk = Cipher::for_packet(kernel, &key, &nonce, ciphertext.len()).one_time_key(ciphertext.len());
                let verdict = kernel.tag_matches(&otk, aad, ciphertext, tag);
                assert_eq!(kernel.open(&key, &nonce, aad, sealed).is_some(), verdict);
                verdict
            };
            assert!(matches(&header, &sealed));
            let mut forged_header = header;
            forged_header[12] ^= 0x04;
            assert!(!matches(&forged_header, &sealed));
            for position in [0, 150, 299, 300, 315] {
                let mut forged = sealed.to_vec();
                forged[position] ^= 0x10;
                assert!(!matches(&header, &forged), "flip at {position}, {} kernel", kernel.name());
            }
            assert!(kernel.open(&key, &nonce, &header, &sealed[..TAG_LEN - 1]).is_none());
        }
    }

    // -- Filter behaviour --------------------------------------------------

    fn packet(seq: u64, payload: Vec<u8>) -> Packet {
        Packet::new(StreamId::new(1), SeqNo::new(seq), PacketKind::AudioData, payload)
    }

    fn seal_one(encrypt: &mut EncryptFilter, p: Packet) -> Packet {
        let mut out: Vec<Packet> = Vec::new();
        encrypt.process(p, &mut out).unwrap();
        assert_eq!(out.len(), 1);
        out.pop().unwrap()
    }

    #[test]
    fn encrypt_then_decrypt_round_trips() {
        let mut encrypt = EncryptFilter::new(0x5EED);
        let mut decrypt = DecryptFilter::new(0x5EED);
        let original = packet(7, (0..100u8).collect());
        let sealed = seal_one(&mut encrypt, original.clone());
        assert_eq!(sealed.payload_len(), original.payload_len() + TAG_LEN);
        assert_ne!(&sealed.payload()[..100], original.payload());
        let mut out: Vec<Packet> = Vec::new();
        decrypt.process(sealed, &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], original);
        assert_eq!(encrypt.stats().sealed(), 1);
        assert_eq!(decrypt.stats().opened(), 1);
        assert_eq!(decrypt.stats().rejected(), 0);
    }

    #[test]
    fn sealing_does_not_leak_into_fanout_siblings() {
        let original = packet(3, vec![9u8; 64]);
        let sibling = original.clone();
        let mut encrypt = EncryptFilter::new(1);
        let sealed = seal_one(&mut encrypt, original);
        assert_eq!(sibling.payload(), &[9u8; 64], "sibling keeps the plaintext");
        assert!(!sealed.shares_payload_with(&sibling));
    }

    #[test]
    fn tampered_payload_is_rejected_not_forwarded() {
        let mut encrypt = EncryptFilter::new(2);
        let mut decrypt = DecryptFilter::new(2);
        let mut sealed = seal_one(&mut encrypt, packet(1, vec![5u8; 40]));
        sealed.payload_mut()[10] ^= 0x01;
        let mut out: Vec<Packet> = Vec::new();
        decrypt.process(sealed, &mut out).unwrap();
        assert!(out.is_empty(), "corrupt frame must not be forwarded");
        assert_eq!(decrypt.stats().rejected(), 1);
    }

    #[test]
    fn tampered_header_is_rejected_via_aad() {
        let mut encrypt = EncryptFilter::new(2);
        let mut decrypt = DecryptFilter::new(2);
        let sealed = seal_one(&mut encrypt, packet(1, vec![5u8; 40]));
        // Forge the timestamp; the CRC would be recomputed by an attacker,
        // but the AAD binding still catches it.
        let mut header = *sealed.header();
        header.timestamp_us ^= 1;
        let forged = Packet::from_parts(header, sealed.payload_bytes());
        let mut out: Vec<Packet> = Vec::new();
        decrypt.process(forged, &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(decrypt.stats().rejected(), 1);
    }

    #[test]
    fn truncated_and_undersized_frames_are_rejected() {
        let mut encrypt = EncryptFilter::new(2);
        let mut decrypt = DecryptFilter::new(2);
        let sealed = seal_one(&mut encrypt, packet(1, vec![5u8; 40]));
        let mut truncated = sealed.clone();
        truncated.payload_edit(|p| p.truncate(p.len() - 1));
        let tiny = sealed.with_payload(vec![1u8; TAG_LEN - 1]);
        let mut out: Vec<Packet> = Vec::new();
        decrypt.process(truncated, &mut out).unwrap();
        decrypt.process(tiny, &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(decrypt.stats().rejected(), 2);
    }

    #[test]
    fn wrong_key_is_rejected() {
        let mut encrypt = EncryptFilter::new(10);
        let mut decrypt = DecryptFilter::new(11);
        let sealed = seal_one(&mut encrypt, packet(1, vec![5u8; 40]));
        let mut out: Vec<Packet> = Vec::new();
        decrypt.process(sealed, &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(decrypt.stats().rejected(), 1);
    }

    #[test]
    fn control_frames_pass_untouched() {
        let mut encrypt = EncryptFilter::new(3);
        let control =
            Packet::new(StreamId::new(1), SeqNo::new(0), PacketKind::Control, vec![1, 2, 3]);
        let mut out: Vec<Packet> = Vec::new();
        encrypt.process(control.clone(), &mut out).unwrap();
        assert_eq!(out[0], control);
        assert_eq!(encrypt.stats().sealed(), 0);
    }

    #[test]
    fn rekey_rotates_the_epoch_at_the_boundary() {
        let mut encrypt = EncryptFilter::new(4);
        let mut decrypt = DecryptFilter::new(4);
        let before = packet(5, vec![1u8; 32]);
        let after = packet(10, vec![2u8; 32]);

        let sealed_before = seal_one(&mut encrypt, before.clone());
        let rekey = rekey_packet(StreamId::new(1), 1, 8, 0);
        let mut mid: Vec<Packet> = Vec::new();
        encrypt.process(rekey, &mut mid).unwrap();
        assert_eq!(mid.len(), 1, "encrypt forwards the rekey frame");
        let sealed_after = seal_one(&mut encrypt, after.clone());

        let mut out: Vec<Packet> = Vec::new();
        decrypt.process(sealed_before, &mut out).unwrap();
        decrypt.process(mid.pop().unwrap(), &mut out).unwrap();
        decrypt.process(sealed_after, &mut out).unwrap();
        assert_eq!(out, vec![before, after], "rekey frame consumed, data intact");
        assert_eq!(encrypt.stats().rekeys(), 1);
        assert_eq!(decrypt.stats().rekeys(), 1);
    }

    #[test]
    fn duplicated_and_reordered_rekeys_are_idempotent() {
        let mut decrypt = DecryptFilter::new(4);
        let mut out: Vec<Packet> = Vec::new();
        decrypt.process(rekey_packet(StreamId::new(1), 2, 20, 0), &mut out).unwrap();
        decrypt.process(rekey_packet(StreamId::new(1), 1, 10, 0), &mut out).unwrap();
        decrypt.process(rekey_packet(StreamId::new(1), 2, 20, 0), &mut out).unwrap();
        assert!(out.is_empty(), "all rekey copies consumed");
        assert_eq!(decrypt.stats().rekeys(), 2, "one install per distinct epoch");
    }

    #[test]
    fn replay_under_a_stale_key_is_rejected() {
        let mut encrypt = EncryptFilter::new(4);
        let mut decrypt = DecryptFilter::new(4);
        // Seal seq 10 under epoch 0, then rotate at boundary 8.  Replaying
        // the stale seal after the rotation must fail: the receiver now
        // opens seq >= 8 under epoch 1.
        let stale = seal_one(&mut encrypt, packet(10, vec![3u8; 32]));
        let mut out: Vec<Packet> = Vec::new();
        decrypt.process(rekey_packet(StreamId::new(1), 1, 8, 0), &mut out).unwrap();
        decrypt.process(stale, &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(decrypt.stats().rejected(), 1);

        // But a pre-boundary frame sealed under epoch 0 still opens: old
        // keys stay installed for re-ordered stragglers.
        let straggler = packet(5, vec![4u8; 32]);
        let sealed = seal_one(&mut encrypt, straggler.clone());
        decrypt.process(sealed, &mut out).unwrap();
        assert_eq!(out, vec![straggler]);
    }

    #[test]
    fn a_flood_of_forged_rekeys_leaves_the_epoch_table_at_its_bound() {
        let mut encrypt = EncryptFilter::new(4);
        let mut decrypt = DecryptFilter::new(4);
        let mut out: Vec<Packet> = Vec::new();
        let genuine = rekey_packet(StreamId::new(1), 1_000_000, 8, 0);
        encrypt.process(genuine.clone(), &mut out).unwrap();
        decrypt.process(genuine, &mut out).unwrap();

        // 100 k distinct forged epochs, all older than the genuine one.
        for epoch in 1..=100_000 {
            decrypt
                .process(rekey_packet(StreamId::new(1), epoch, u64::from(epoch), 0), &mut out)
                .unwrap();
        }
        assert_eq!(decrypt.table.epochs.len(), EPOCH_WINDOW);
        let rekeys = decrypt.stats().rekeys();
        decrypt.process(rekey_packet(StreamId::new(1), 1, 1, 0), &mut out).unwrap();
        assert_eq!(decrypt.stats().rekeys(), rekeys, "older than the oldest held: not installed");
        assert!(out.len() == 1 && out[0].kind() == PacketKind::Control, "rekeys consumed");

        out.clear();
        let frames: Vec<Packet> = (10..20).map(|seq| packet(seq, vec![seq as u8; 48])).collect();
        for frame in &frames {
            let sealed = seal_one(&mut encrypt, frame.clone());
            decrypt.process(sealed, &mut out).unwrap();
        }
        assert_eq!(out, frames, "genuine frames still open");
        assert_eq!(decrypt.stats().rejected(), 0);
    }

    #[test]
    fn parity_band_seqs_use_distinct_nonces() {
        // FEC parity seqs live at u64::MAX/2 + …, so their nonces never
        // collide with source-packet nonces.
        let source = packet(0, vec![1]);
        let parity_seq = u64::MAX / 2;
        let parity = packet(parity_seq, vec![1]);
        assert_ne!(packet_nonce(&source), packet_nonce(&parity));
    }

    #[test]
    fn rekey_frames_parse_and_reject_lookalikes() {
        let frame = rekey_packet(StreamId::new(9), 3, 1_000, 42);
        assert_eq!(parse_rekey(&frame), Some((3, 1_000)));
        assert_eq!(frame.seq().value(), 1_000);
        assert_eq!(frame.timestamp_us(), 42);
        let not_control = packet(0, frame.payload().to_vec());
        assert_eq!(parse_rekey(&not_control), None);
        let wrong_magic = Packet::new(
            StreamId::new(9),
            SeqNo::new(0),
            PacketKind::Control,
            vec![0u8; 16],
        );
        assert_eq!(parse_rekey(&wrong_magic), None);
        let empty =
            Packet::new(StreamId::new(9), SeqNo::new(0), PacketKind::Control, Vec::new());
        assert_eq!(parse_rekey(&empty), None);
    }

    #[test]
    fn batch_and_serial_orders_agree() {
        let packets: Vec<Packet> = (0..20).map(|s| packet(s, vec![s as u8; 48])).collect();
        let mut serial_out: Vec<Packet> = Vec::new();
        let mut chain = crate::FilterChain::new();
        chain.push_back(Box::new(EncryptFilter::new(7))).unwrap();
        for p in packets.clone() {
            serial_out.extend(chain.process(p).unwrap());
        }
        let mut batch_out: Vec<Packet> = Vec::new();
        let mut chain = crate::FilterChain::new();
        chain.push_back(Box::new(EncryptFilter::new(7))).unwrap();
        chain.process_batch_into(packets, &mut batch_out).unwrap();
        assert_eq!(serial_out, batch_out);
    }

    #[test]
    fn snapshots_merge() {
        let stats = SecureChannelStats::default();
        stats.sealed.fetch_add(3, Ordering::Relaxed);
        stats.rejected.fetch_add(1, Ordering::Relaxed);
        let mut total = SecureChannelSnapshot::default();
        assert!(total.is_empty());
        total.merge(stats.snapshot());
        total.merge(SecureChannelSnapshot {
            sealed: 0,
            opened: 2,
            rejected: 0,
            rekeys: 1,
        });
        assert_eq!(
            total,
            SecureChannelSnapshot {
                sealed: 3,
                opened: 2,
                rejected: 1,
                rekeys: 1
            }
        );
        assert!(!total.is_empty());
    }

    #[test]
    fn filters_debug_print() {
        assert!(!format!("{:?}", EncryptFilter::new(1)).is_empty());
        assert!(!format!("{:?}", DecryptFilter::new(1)).is_empty());
    }
}
