//! Property-based byte-identity tests for the GF(2⁸) bulk kernels against
//! the always-compiled scalar reference, [`Kernel::Scalar`].
//!
//! The dispatched functions (`addmul_slice`, `mul_slice_into`, `xor_slice`)
//! run the kernel `Cpu::active()` allows, and every kernel this host has is
//! also run by name, built from each of `Cpu::tiers()` — SSSE3 as well as
//! AVX2 on an AVX2 host.  These tests pin them all to the scalar path byte
//! for byte over arbitrary lengths, unaligned subslices, tail remainders
//! shorter than one SIMD lane, and **all 256 coefficients**.  CI runs this
//! suite twice — once as-is and once under `RAPIDWARE_FORCE_SCALAR=1` — so
//! both sides of the dispatch stay covered.

use proptest::prelude::*;
use rapidware_fec::gf256::{self, Kernel};
use rapidware_fec::FecCodec;
use rapidware_packet::cpu::Cpu;

/// Deterministic pseudo-random bytes from a seed (same LCG the other FEC
/// property suites use).
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

/// Every kernel this CPU can run, the scalar one first.
fn every_kernel() -> Vec<Kernel> {
    let mut kernels: Vec<Kernel> = Cpu::tiers().map(Kernel::new).collect();
    kernels.dedup();
    kernels
}

/// Whether this Linux host's `/proc/cpuinfo` lists `flag` (`false` off
/// Linux, where nothing is asserted from it).
fn cpuinfo_lists(flag: &str) -> bool {
    std::fs::read_to_string("/proc/cpuinfo")
        .is_ok_and(|cpuinfo| cpuinfo.split_whitespace().any(|word| word == flag))
}

/// Names every kernel this run held to the reference, on one line CI looks
/// for (run with `--show-output`); a CPU whose `/proc/cpuinfo` lists SSSE3
/// or AVX2 must have had that kernel checked.
#[test]
fn the_kernels_checked_are_the_ones_the_cpu_has() {
    let names: Vec<&str> = every_kernel().into_iter().map(Kernel::name).collect();
    println!("gf256 kernels checked: {}", names.join(" "));
    for flag in ["ssse3", "avx2"] {
        if cpuinfo_lists(flag) {
            assert!(names.contains(&flag), "the CPU lists {flag}, checked only {names:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `addmul_slice` (dispatched) and every kernel by name == scalar
    /// reference on arbitrary-length unaligned subslices:
    /// `target[i] ^= c * source[i]`.
    #[test]
    fn addmul_dispatch_matches_scalar(
        len in 0usize..300,
        offset in 0usize..32,
        c in any::<u8>(),
        seed in any::<u64>(),
    ) {
        // Carve the working slices out of larger buffers at a proptest-chosen
        // offset so the kernels see every alignment of the 16/32-byte lanes.
        let source = fill(seed, offset + len);
        let backing = fill(seed ^ 0xABCD, offset + len);
        let mut scalar = backing.clone();
        Kernel::Scalar.addmul(&mut scalar[offset..], &source[offset..], c);
        let mut dispatched = backing.clone();
        gf256::addmul_slice(&mut dispatched[offset..], &source[offset..], c);
        prop_assert_eq!(&dispatched, &scalar);
        for kernel in every_kernel() {
            let mut simd = backing.clone();
            kernel.addmul(&mut simd[offset..], &source[offset..], c);
            prop_assert_eq!(&simd, &scalar, "{} kernel", kernel.name());
        }
    }

    /// `mul_slice_into` (dispatched) and every kernel by name == scalar
    /// reference, including that every stale byte of the target is
    /// overwritten.
    #[test]
    fn mul_into_dispatch_matches_scalar(
        len in 0usize..300,
        offset in 0usize..32,
        c in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let source = fill(seed, offset + len);
        let mut scalar = vec![0xA5; offset + len];
        Kernel::Scalar.mul_into(&mut scalar[offset..], &source[offset..], c);
        let mut dispatched = vec![0x5A; offset + len];
        gf256::mul_slice_into(&mut dispatched[offset..], &source[offset..], c);
        prop_assert_eq!(&dispatched[offset..], &scalar[offset..]);
        for kernel in every_kernel() {
            let mut simd = vec![0x5A; offset + len];
            kernel.mul_into(&mut simd[offset..], &source[offset..], c);
            prop_assert_eq!(&simd[offset..], &scalar[offset..], "{} kernel", kernel.name());
        }
    }

    /// `xor_slice` (dispatched) and every kernel by name == scalar
    /// reference.
    #[test]
    fn xor_dispatch_matches_scalar(
        len in 0usize..300,
        offset in 0usize..32,
        seed in any::<u64>(),
    ) {
        let source = fill(seed, offset + len);
        let backing = fill(seed ^ 0x1234, offset + len);
        let mut scalar = backing.clone();
        Kernel::Scalar.xor(&mut scalar[offset..], &source[offset..]);
        let mut dispatched = backing.clone();
        gf256::xor_slice(&mut dispatched[offset..], &source[offset..]);
        prop_assert_eq!(&dispatched, &scalar);
        for kernel in every_kernel() {
            let mut simd = backing.clone();
            kernel.xor(&mut simd[offset..], &source[offset..]);
            prop_assert_eq!(&simd, &scalar, "{} kernel", kernel.name());
        }
    }

    /// `FecCodec::decode_into` with a dirty reused scratch produces exactly
    /// what the allocating `decode` does, for arbitrary (n, k), shard
    /// contents, and erasure patterns.
    #[test]
    fn decode_into_matches_decode(
        k in 1usize..8,
        extra in 1usize..4,
        shard_len in 1usize..80,
        seed in any::<u64>(),
    ) {
        let n = k + extra;
        let codec = FecCodec::new(n, k).unwrap();
        let sources: Vec<Vec<u8>> = (0..k)
            .map(|i| fill(seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15), shard_len))
            .collect();
        let refs: Vec<&[u8]> = sources.iter().map(|s| s.as_slice()).collect();
        let parities = codec.encode(&refs).unwrap();

        let mut shards: Vec<Vec<u8>> = sources;
        shards.extend(parities);
        // Survivors: a seed-chosen selection of exactly k of the n shards.
        let mut order: Vec<usize> = (0..n).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = ((state >> 33) as usize) % (i + 1);
            order.swap(i, j);
        }
        let available: Vec<(usize, &[u8])> = order[..k]
            .iter()
            .map(|&i| (i, shards[i].as_slice()))
            .collect();

        let fresh = codec.decode(&available, shard_len).unwrap();
        // Scratch deliberately dirty: wrong shard count, wrong lengths,
        // stale bytes.
        let mut scratch: Vec<Vec<u8>> = vec![vec![0xEE; shard_len + 17]; k + 3];
        codec.decode_into(&available, shard_len, &mut scratch).unwrap();
        prop_assert_eq!(fresh, scratch);
    }
}

/// Every one of the 256 coefficients on every kernel, across lengths that
/// cover the empty slice, sub-lane tails, exact lane multiples, and
/// lane+tail mixes for both the 16-byte SSSE3 and 32-byte AVX2 step sizes.
#[test]
fn all_256_coefficients_match_scalar_at_lane_boundary_lengths() {
    let kernels = every_kernel();
    for c in 0..=255u8 {
        for len in [0usize, 1, 7, 15, 16, 17, 31, 32, 33, 48, 64, 100] {
            let source = fill(u64::from(c) + 1, len);
            let backing = fill(u64::from(c).wrapping_mul(77) + 3, len);
            let mut added = backing.clone();
            Kernel::Scalar.addmul(&mut added, &source, c);
            let mut scaled = backing.clone();
            Kernel::Scalar.mul_into(&mut scaled, &source, c);

            for kernel in &kernels {
                let name = kernel.name();
                let mut simd = backing.clone();
                kernel.addmul(&mut simd, &source, c);
                assert_eq!(simd, added, "{name} addmul c={c} len={len}");

                let mut simd = backing.clone();
                kernel.mul_into(&mut simd, &source, c);
                assert_eq!(simd, scaled, "{name} mul_into c={c} len={len}");
            }
        }
    }
}
