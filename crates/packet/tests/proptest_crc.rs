//! Equivalence tests for the CRC-32 kernels against the classic
//! byte-at-a-time reference.
//!
//! `crc32_update` runs the `PCLMULQDQ` folding kernel on slices of 64 bytes
//! and more (where the CPU has it and `RAPIDWARE_FORCE_SCALAR` is unset) and
//! the slice-by-16 tables otherwise; `crc32_update_bytewise` is the textbook
//! loop.  These tests pin every kernel to the reference: the dispatched one
//! through the public functions, and each by name through the hidden
//! [`CrcKernel`] — so a run under `RAPIDWARE_FORCE_SCALAR=1` still covers the
//! folding kernel, and a run without it still covers the tables on long
//! slices.  CI runs the suite both ways.

use proptest::prelude::*;
use rapidware_packet::{
    crc32, crc32_finish, crc32_init, crc32_update, crc32_update_bytewise, CrcKernel,
};

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

/// The dispatched kernel, then every kernel this CPU can run by name.
fn kernels_under_test() -> Vec<CrcKernel> {
    let folded = CrcKernel::folded();
    if folded.is_none() {
        eprintln!("PCLMULQDQ not detected: the folded kernel's checks are skipped");
    }
    [Some(CrcKernel::active()), Some(CrcKernel::tables()), folded]
        .into_iter()
        .flatten()
        .collect()
}

/// Every length up to 4 KiB at every start misalignment within a 16-byte
/// chunk, each from its own starting state and cut at its own points into
/// one to four `update` calls: every seam of the folded kernel (its 64-byte
/// loop, the 16-byte steps, the table tail, the 64-byte dispatch threshold
/// met or missed by each piece) against the byte-wise loop.
#[test]
fn every_kernel_matches_bytewise_at_every_length_and_misalignment() {
    let kernels = kernels_under_test();
    let backing = fill(0xC4C3_2000, 4096 + 16);
    for len in 0..=4096usize {
        for misalignment in 0..16usize {
            let data = &backing[misalignment..misalignment + len];
            let draw = fill((len * 16 + misalignment) as u64, 8);
            let state = u32::from_le_bytes([draw[0], draw[1], draw[2], draw[3]]);
            let mut cuts: Vec<usize> = draw[5..5 + usize::from(draw[4] % 4)]
                .iter()
                .map(|&byte| usize::from(byte) * (len + 1) / 256)
                .collect();
            cuts.push(len);
            cuts.sort_unstable();
            let expected = crc32_update_bytewise(state, data);
            for kernel in &kernels {
                let mut actual = state;
                let mut from = 0;
                for &to in &cuts {
                    actual = kernel.update(actual, &data[from..to]);
                    from = to;
                }
                assert_eq!(
                    actual,
                    expected,
                    "{} kernel, len {len}, misalignment {misalignment}, cuts {cuts:?}",
                    kernel.name()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The wide path equals the byte-wise path on arbitrary input.
    #[test]
    fn slice_by_16_matches_bytewise(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        prop_assert_eq!(
            crc32_update(crc32_init(), &data),
            crc32_update_bytewise(crc32_init(), &data)
        );
    }

    /// Equality also holds from an arbitrary (mid-stream) starting state,
    /// not just the init value — the form the incremental packet codec
    /// actually uses.
    #[test]
    fn equivalence_from_any_starting_state(
        state in any::<u32>(),
        data in proptest::collection::vec(any::<u8>(), 0..100),
    ) {
        prop_assert_eq!(
            crc32_update(state, &data),
            crc32_update_bytewise(state, &data)
        );
    }

    /// Splitting the input at any point and feeding both halves through the
    /// wide path agrees with the one-shot checksum.
    #[test]
    fn incremental_splits_agree_with_one_shot(
        data in proptest::collection::vec(any::<u8>(), 0..150),
        split_seed in any::<usize>(),
    ) {
        let split = if data.is_empty() { 0 } else { split_seed % (data.len() + 1) };
        let state = crc32_update(crc32_init(), &data[..split]);
        let state = crc32_update(state, &data[split..]);
        prop_assert_eq!(crc32_finish(state), crc32(&data));
    }

    /// Arbitrary bytes at frame-sized lengths, where the folding kernel runs:
    /// every kernel against the reference, from any state.
    #[test]
    fn every_kernel_matches_bytewise_on_frame_sized_input(
        state in any::<u32>(),
        data in proptest::collection::vec(any::<u8>(), 0..2_000),
    ) {
        let expected = crc32_update_bytewise(state, &data);
        for kernel in kernels_under_test() {
            prop_assert_eq!(kernel.update(state, &data), expected, "{} kernel", kernel.name());
        }
    }
}
