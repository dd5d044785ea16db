//! Byte-identity tests for the ChaCha20 keystream and Poly1305 kernels
//! behind the secure-channel filters, in the shape of `rapidware-fec`'s
//! `proptest_kernels.rs`.
//!
//! [`Keystream::active`] is what the filters run: the AVX2 8-blocks-per-call
//! kernel where `rapidware_fec::gf256::active_kernel()` selected AVX2, the
//! scalar block function otherwise.  These tests pin it — and the AVX2
//! kernel by name, wherever the CPU has it — to the always-compiled scalar
//! reference byte for byte: over every length residue mod 64 and the group
//! boundaries, arbitrary initial counters including the `u32::MAX` wrap
//! inside one 8-block group, and unaligned subslices; through the RFC 8439
//! vectors on each kernel; and across kernels (sealed on one, opened on the
//! other).  The same [`Keystream`] value names the MAC kernel: the 4-way
//! AVX2 Poly1305 is held to the scalar one at every length up to 2 KiB, on
//! messages built to push every limb carry and the final reduction to their
//! edges, through the RFC vector, and — through the filter, whole packets
//! on the wire — to a digest recorded before either SIMD kernel existed.
//! CI runs this suite twice — once as-is and once under
//! `RAPIDWARE_FORCE_SCALAR=1` — so both sides of the dispatch stay covered.
//!
//! (That the one-pass seal equals the three-pass seal it replaced is
//! checked next to the `#[cfg(test)]` reference, in `secure.rs`.)

use proptest::prelude::*;
use rapidware_filters::{rekey_packet, EncryptFilter, Filter, Keystream, TAG_LEN};
use rapidware_packet::{BlockId, FrameType, Packet, PacketKind, SeqNo, StreamId};

/// Deterministic pseudo-random bytes from a seed (the LCG the FEC property
/// suites use).
fn fill(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

fn key_and_nonce(seed: u64) -> ([u8; 32], [u8; 12]) {
    let bytes = fill(seed ^ 0x6B65, 44);
    let mut key = [0u8; 32];
    let mut nonce = [0u8; 12];
    key.copy_from_slice(&bytes[..32]);
    nonce.copy_from_slice(&bytes[32..]);
    (key, nonce)
}

/// The kernels to hold to the scalar reference: the dispatched one, and the
/// AVX2 one by name when this CPU has it (under `RAPIDWARE_FORCE_SCALAR`
/// the dispatched kernel *is* the scalar one, and AVX2 is still checked).
fn kernels_under_test() -> Vec<Keystream> {
    std::iter::once(Keystream::active())
        .chain(Keystream::avx2())
        .collect()
}

/// Every kernel this CPU can run, each named explicitly.
fn every_kernel() -> Vec<Keystream> {
    let avx2 = Keystream::avx2();
    if avx2.is_none() {
        eprintln!("AVX2 not detected: its vectors and parity checks are skipped");
    }
    std::iter::once(Keystream::scalar()).chain(avx2).collect()
}

/// `keystream XOR source` into a dirty target carved out at `offset`, so the
/// kernels see every alignment and must overwrite every stale byte.
fn xor_at_offset(
    kernel: Keystream,
    key: &[u8; 32],
    nonce: &[u8; 12],
    counter: u32,
    source: &[u8],
    offset: usize,
) -> Vec<u8> {
    let mut target = vec![0xEE; offset + source.len()];
    kernel.chacha20_xor(key, nonce, counter, source, &mut target[offset..]);
    target.split_off(offset)
}

fn assert_matches_scalar(len: usize, src_offset: usize, dst_offset: usize, counter: u32, seed: u64) {
    let (key, nonce) = key_and_nonce(seed);
    let backing = fill(seed, src_offset + len);
    let source = &backing[src_offset..];
    let expected = xor_at_offset(Keystream::scalar(), &key, &nonce, counter, source, 0);
    for kernel in kernels_under_test() {
        let actual = xor_at_offset(kernel, &key, &nonce, counter, source, dst_offset);
        assert_eq!(
            actual,
            expected,
            "{} kernel, len {len}, counter {counter:#x}, offsets {src_offset}/{dst_offset}",
            kernel.name()
        );
    }
}

/// Any counter, weighted towards the ones whose 8-block group straddles the
/// `u32::MAX` wrap.
fn counters() -> impl Strategy<Value = u32> {
    prop_oneof![any::<u32>(), (u32::MAX - 40)..=u32::MAX, 0u32..4]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Dispatched (and AVX2) keystream XOR == scalar reference over
    /// arbitrary lengths, counters and unaligned source/target subslices.
    #[test]
    fn xor_dispatch_matches_scalar(
        len in 0usize..=4_096,
        src_offset in 0usize..64,
        dst_offset in 0usize..64,
        counter in counters(),
        seed in any::<u64>(),
    ) {
        assert_matches_scalar(len, src_offset, dst_offset, counter, seed);
    }

    /// What one kernel seals the other opens, bit-exact, and both produce
    /// the same sealed bytes.
    #[test]
    fn sealed_on_one_kernel_opens_on_the_other(
        len in 0usize..2_200,
        aad_len in 0usize..48,
        seed in any::<u64>(),
    ) {
        let (key, nonce) = key_and_nonce(seed);
        let plaintext = fill(seed, len);
        let aad = fill(seed ^ 0xAAD, aad_len);
        let reference = Keystream::scalar().seal(&key, &nonce, &aad, &plaintext);
        prop_assert_eq!(reference.len(), len + TAG_LEN);
        for sealer in kernels_under_test() {
            let sealed = sealer.seal(&key, &nonce, &aad, &plaintext);
            prop_assert_eq!(&sealed, &reference, "{} seal", sealer.name());
            let opened = Keystream::scalar().open(&key, &nonce, &aad, &sealed);
            prop_assert_eq!(opened.as_deref(), Some(&plaintext[..]), "{} -> scalar", sealer.name());
            let opened = sealer.open(&key, &nonce, &aad, &reference);
            prop_assert_eq!(opened.as_deref(), Some(&plaintext[..]), "scalar -> {}", sealer.name());
        }
    }

    /// A flipped bit anywhere in the sealed bytes or the associated data is
    /// rejected by every kernel; nothing is opened.
    #[test]
    fn every_kernel_rejects_a_flipped_bit(
        len in 0usize..1_200,
        position in any::<u64>(),
        bit in 0u8..8,
        in_aad in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (key, nonce) = key_and_nonce(seed);
        let mut aad = fill(seed ^ 0xAAD, 32);
        let mut sealed = Keystream::scalar().seal(&key, &nonce, &aad, &fill(seed, len)).to_vec();
        let victim = if in_aad { &mut aad } else { &mut sealed };
        let position = (position % victim.len() as u64) as usize;
        victim[position] ^= 1 << bit;
        for kernel in kernels_under_test() {
            prop_assert!(kernel.open(&key, &nonce, &aad, &sealed).is_none(), "{}", kernel.name());
        }
    }
}

/// Every residue mod 64 on both sides of the one- and two-group boundaries,
/// the lengths the issue names, and counters at and around the wrap.
#[test]
fn every_residue_and_group_boundary_matches_scalar() {
    let lengths = (0..=192)
        .chain(448..=640)
        .chain(960..=1_090)
        .chain([1_023, 1_024, 1_025, 2_048, 4_095, 4_096]);
    for len in lengths {
        for counter in [0, 1, u32::MAX - 3, u32::MAX] {
            assert_matches_scalar(len, 0, 0, counter, len as u64 + 1);
        }
    }
}

/// The counter is one `u32` lane per block and wraps per lane, exactly as
/// the scalar `wrapping_add(1)`: every position of the wrap inside an
/// 8-block group, over three groups.
#[test]
fn the_counter_wraps_inside_a_group_like_the_scalar_one() {
    for back in 0..=24u32 {
        assert_matches_scalar(3 * 512, 3, 5, u32::MAX - back, u64::from(back) + 99);
    }
}

// -- RFC 8439 vectors, through each kernel by name ---------------------------

fn sequential_key(first: u8) -> [u8; 32] {
    core::array::from_fn(|i| first + i as u8)
}

const SUNSCREEN: &[u8; 114] = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";

/// `kernel`'s keystream XOR over `head` followed by zeros up to two whole
/// groups, so the 8-way kernel — which short inputs bypass — generates the
/// bytes under test; returns the first `head.len()` bytes.
fn xor_as_head_of_two_groups(
    kernel: Keystream,
    key: &[u8; 32],
    nonce: &[u8; 12],
    counter: u32,
    head: &[u8],
) -> Vec<u8> {
    let mut source = head.to_vec();
    source.resize(1_024, 0);
    let mut out = xor_at_offset(kernel, key, nonce, counter, &source, 0);
    out.truncate(head.len());
    out
}

#[test]
fn rfc8439_2_3_2_block_function_on_each_kernel() {
    let key = sequential_key(0);
    let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
    let expected: [u8; 64] = [
        0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20, 0x71,
        0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0, 0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a, 0xc3, 0xd4,
        0x6c, 0x4e, 0xd2, 0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2, 0xd7, 0x05, 0xd9,
        0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9, 0xcb, 0xd0, 0x83, 0xe8,
        0xa2, 0x50, 0x3c, 0x4e,
    ];
    for kernel in every_kernel() {
        // Keystream alone is the XOR over zeros.
        let block = xor_as_head_of_two_groups(kernel, &key, &nonce, 1, &[0u8; 64]);
        assert_eq!(block, expected, "{} kernel", kernel.name());
    }
}

#[test]
fn rfc8439_2_4_2_encryption_on_each_kernel() {
    let key = sequential_key(0);
    let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
    let expected: [u8; 114] = [
        0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d, 0x69,
        0x81, 0xe9, 0x7e, 0x7a, 0xec, 0x1d, 0x43, 0x60, 0xc2, 0x0a, 0x27, 0xaf, 0xcc, 0xfd, 0x9f,
        0xae, 0x0b, 0xf9, 0x1b, 0x65, 0xc5, 0x52, 0x47, 0x33, 0xab, 0x8f, 0x59, 0x3d, 0xab, 0xcd,
        0x62, 0xb3, 0x57, 0x16, 0x39, 0xd6, 0x24, 0xe6, 0x51, 0x52, 0xab, 0x8f, 0x53, 0x0c, 0x35,
        0x9f, 0x08, 0x61, 0xd8, 0x07, 0xca, 0x0d, 0xbf, 0x50, 0x0d, 0x6a, 0x61, 0x56, 0xa3, 0x8e,
        0x08, 0x8a, 0x22, 0xb6, 0x5e, 0x52, 0xbc, 0x51, 0x4d, 0x16, 0xcc, 0xf8, 0x06, 0x81, 0x8c,
        0xe9, 0x1a, 0xb7, 0x79, 0x37, 0x36, 0x5a, 0xf9, 0x0b, 0xbf, 0x74, 0xa3, 0x5b, 0xe6, 0xb4,
        0x0b, 0x8e, 0xed, 0xf2, 0x78, 0x5e, 0x42, 0x87, 0x4d,
    ];
    for kernel in every_kernel() {
        // As the RFC gives it: 114 bytes, which every kernel takes block by
        // block …
        let direct = xor_at_offset(kernel, &key, &nonce, 1, SUNSCREEN, 0);
        assert_eq!(direct, expected, "{} kernel, 114 bytes", kernel.name());
        // … and as the head of a longer message, which the 8-way kernel
        // takes a group at a time.
        let grouped = xor_as_head_of_two_groups(kernel, &key, &nonce, 1, SUNSCREEN);
        assert_eq!(grouped, expected, "{} kernel, in a group", kernel.name());
    }
}

#[test]
fn rfc8439_2_5_2_poly1305() {
    let key: [u8; 32] = [
        0x85, 0xd6, 0xbe, 0x78, 0x57, 0x55, 0x6d, 0x33, 0x7f, 0x44, 0x52, 0xfe, 0x42, 0xd5, 0x06,
        0xa8, 0x01, 0x03, 0x80, 0x8a, 0xfb, 0x0d, 0xb2, 0xfd, 0x4a, 0xbf, 0xf6, 0xaf, 0x41, 0x49,
        0xf5, 0x1b,
    ];
    let expected: [u8; 16] = [
        0xa8, 0x06, 0x1d, 0xc1, 0x30, 0x51, 0x36, 0xc6, 0xc2, 0x2b, 0x8b, 0xaf, 0x0c, 0x01, 0x27,
        0xa9,
    ];
    let message = b"Cryptographic Forum Research Group";
    for kernel in every_kernel() {
        assert_eq!(kernel.poly1305(&key, message), expected, "{} kernel", kernel.name());
        // 34 bytes never reach the 4-way kernel; five copies of the message
        // do, and must still be what the scalar MAC makes of them.
        let repeated = message.repeat(5);
        assert_eq!(
            kernel.poly1305(&key, &repeated),
            Keystream::scalar().poly1305(&key, &repeated),
            "{} kernel, 170 bytes",
            kernel.name()
        );
    }
}

#[test]
fn rfc8439_2_8_2_aead_on_each_kernel() {
    let key = sequential_key(0x80);
    let nonce = [0x07, 0x00, 0x00, 0x00, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47];
    let aad = [0x50, 0x51, 0x52, 0x53, 0xc0, 0xc1, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7];
    let expected: [u8; 114 + TAG_LEN] = [
        0xd3, 0x1a, 0x8d, 0x34, 0x64, 0x8e, 0x60, 0xdb, 0x7b, 0x86, 0xaf, 0xbc, 0x53, 0xef, 0x7e,
        0xc2, 0xa4, 0xad, 0xed, 0x51, 0x29, 0x6e, 0x08, 0xfe, 0xa9, 0xe2, 0xb5, 0xa7, 0x36, 0xee,
        0x62, 0xd6, 0x3d, 0xbe, 0xa4, 0x5e, 0x8c, 0xa9, 0x67, 0x12, 0x82, 0xfa, 0xfb, 0x69, 0xda,
        0x92, 0x72, 0x8b, 0x1a, 0x71, 0xde, 0x0a, 0x9e, 0x06, 0x0b, 0x29, 0x05, 0xd6, 0xa5, 0xb6,
        0x7e, 0xcd, 0x3b, 0x36, 0x92, 0xdd, 0xbd, 0x7f, 0x2d, 0x77, 0x8b, 0x8c, 0x98, 0x03, 0xae,
        0xe3, 0x28, 0x09, 0x1b, 0x58, 0xfa, 0xb3, 0x24, 0xe4, 0xfa, 0xd6, 0x75, 0x94, 0x55, 0x85,
        0x80, 0x8b, 0x48, 0x31, 0xd7, 0xbc, 0x3f, 0xf4, 0xde, 0xf0, 0x8e, 0x4b, 0x7a, 0x9d, 0xe5,
        0x76, 0xd2, 0x65, 0x86, 0xce, 0xc6, 0x4b, 0x61, 0x16, // ciphertext
        0x1a, 0xe1, 0x0b, 0x59, 0x4f, 0x09, 0xe2, 0x6a, 0x7e, 0x90, 0x2e, 0xcb, 0xd0, 0x60, 0x06,
        0x91, // tag
    ];
    for kernel in every_kernel() {
        // 114 bytes are two blocks after block 0: enough for the 8-way
        // kernel to take the packet, block 0 riding in its first group.
        let sealed = kernel.seal(&key, &nonce, &aad, SUNSCREEN);
        assert_eq!(&sealed[..], &expected[..], "{} kernel", kernel.name());
        let opened = kernel.open(&key, &nonce, &aad, &expected);
        assert_eq!(opened.as_deref(), Some(&SUNSCREEN[..]), "{} kernel", kernel.name());
    }
}

// -- The MAC kernels ---------------------------------------------------------

/// A one-time key whose `r` half is `r` (before clamping) and whose `s` half
/// is `s`.
fn mac_key(r: [u8; 16], s: [u8; 16]) -> [u8; 32] {
    let mut key = [0u8; 32];
    key[..16].copy_from_slice(&r);
    key[16..].copy_from_slice(&s);
    key
}

/// The 4-way kernel takes whole 64-byte groups and the scalar code the rest,
/// so every length 0..=2048 is every count of groups with every tail.
#[test]
fn mac_kernels_agree_at_every_length() {
    let message = fill(0x004D_4143, 2_048);
    for len in 0..=message.len() {
        let key: [u8; 32] = fill(len as u64 + 1, 32).try_into().expect("32 bytes");
        let expected = Keystream::scalar().poly1305(&key, &message[..len]);
        for kernel in kernels_under_test() {
            assert_eq!(kernel.poly1305(&key, &message[..len]), expected, "{} kernel, len {len}", kernel.name());
        }
    }
}

/// Messages and keys that drive the limbs to their bounds: all-ones blocks
/// (every message limb at its maximum) under the largest `r` clamping
/// allows and under all-ones `s`, at every group count up to nine and with
/// each tail shape.
#[test]
fn mac_kernels_agree_on_saturated_limbs() {
    let ones = [0xFFu8; 16 * 40];
    // Clamping keeps 0x0ffffffc_0ffffffc_0ffffffc_0fffffff of this.
    let largest_r = mac_key([0xFF; 16], [0xFF; 16]);
    let small_r = mac_key([2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], [0xFF; 16]);
    for key in [largest_r, small_r] {
        for len in (0..=ones.len()).filter(|len| len % 64 < 2 || len % 16 == 15 || len % 64 == 48) {
            let expected = Keystream::scalar().poly1305(&key, &ones[..len]);
            for kernel in kernels_under_test() {
                assert_eq!(kernel.poly1305(&key, &ones[..len]), expected, "{} kernel, len {len}", kernel.name());
            }
        }
    }
}

/// With `r = 1` the accumulator is the plain sum of the blocks (each with
/// its 2¹²⁸ bit), so four blocks can be chosen to leave it exactly `δ` past
/// a multiple of `p = 2¹³⁰ − 5`: three all-ones blocks and a fourth of
/// `2¹²⁸ − 7 + δ` sum to `2p + δ`.  The tag is then `δ mod p` (plus `s = 0`),
/// which every kernel must reach through its own carries: just below `p`,
/// exactly `p`, just above — once as the only group and once after a group
/// that leaves the accumulator at zero.
#[test]
fn mac_kernels_reduce_correctly_around_the_modulus() {
    let key = mac_key([1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], [0; 16]);
    let group = |delta: i8| {
        let mut blocks = [0xFFu8; 64];
        blocks[48] = (0xF9i16 + i16::from(delta)) as u8;
        blocks
    };
    let mut below = [0xFFu8; 16];
    below[0] = 0xFA; // p − 1, truncated to 128 bits
    let mut above = [0u8; 16];
    above[0] = 1;
    for kernel in every_kernel() {
        for (delta, expected) in [(-1, below), (0, [0u8; 16]), (1, above)] {
            let name = kernel.name();
            assert_eq!(kernel.poly1305(&key, &group(delta)), expected, "{name} kernel, δ = {delta}");
            let two_groups = [group(0), group(delta)].concat();
            assert_eq!(kernel.poly1305(&key, &two_groups), expected, "{name} kernel, 0 then δ = {delta}");
        }
    }
}

// -- Whole packets, as the filter emits them ---------------------------------

/// 669 packets of every length class up to 9,000 bytes and every packet
/// kind, sealed by an [`EncryptFilter`] across two key rotations and encoded
/// for the wire; FNV-1a over all of it.
fn sealed_wire_digest() -> u64 {
    let mut encrypt = EncryptFilter::new(0x005E_A1ED);
    let mut emitted: Vec<Packet> = Vec::new();
    let stream = StreamId::new(7);
    for index in 0..669u64 {
        if index == 223 || index == 446 {
            let rekey = rekey_packet(stream, (index / 223) as u32, index, index * 20);
            encrypt.process(rekey, &mut emitted).expect("rekey frames pass");
        }
        let kind = match index % 4 {
            0 => PacketKind::AudioData,
            1 => PacketKind::Data,
            2 => PacketKind::VideoFrame { frame: FrameType::P, boundary: index % 8 == 2 },
            _ => PacketKind::Parity { block: BlockId::new(index), index: 5, k: 4, n: 6 },
        };
        let len = (index * 9_000 / 668) as usize;
        let packet = Packet::with_timestamp(stream, SeqNo::new(index), kind, index * 20, fill(index, len));
        encrypt.process(packet, &mut emitted).expect("sealing cannot fail");
    }
    assert_eq!(emitted.len(), 669 + 2);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for packet in &emitted {
        for &byte in packet.encode().iter() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    digest
}

/// The digest was taken at the commit before the folded CRC and the 4-way
/// MAC existed (slice-by-16 CRC, scalar Poly1305, `Vec`-built payloads) and
/// is the same under `RAPIDWARE_FORCE_SCALAR=1`: sealed bytes, tags, header
/// bytes and frame checksums have not moved.
#[test]
fn sealed_packets_on_the_wire_are_byte_identical_to_the_recorded_digest() {
    let digest = sealed_wire_digest();
    assert_eq!(digest, SEALED_WIRE_DIGEST, "got {digest:#018x}");
}

const SEALED_WIRE_DIGEST: u64 = 0x16bd_7334_970e_9ec6;
