//! CRC-32 (IEEE 802.3 polynomial) protecting the packet wire format.
//!
//! The checksum exists so that tests and fault-injection experiments can
//! detect payload corruption introduced by a misbehaving filter or by the
//! network simulator's corruption model; it is not meant to be a
//! cryptographic integrity mechanism.
//!
//! Every frame that is encoded, decoded or FEC-framed pays it per byte, so
//! [`crc32_update`] runs on one of two kernels, chosen once per process:
//!
//! * **folded** (`crc_simd.rs`) — `PCLMULQDQ` carry-less multiplies fold 64
//!   bytes per step into four 128-bit accumulators and a Barrett reduction
//!   brings the last 128 bits down to the 32-bit state.  Taken for slices of
//!   at least 64 bytes on x86-64 CPUs that have the instruction, unless
//!   `RAPIDWARE_FORCE_SCALAR` is set (the switch the GF(2⁸) and ChaCha20
//!   kernels obey).
//! * **slice-by-16** — sixteen derived lookup tables (16 KiB, built at
//!   compile time) fold sixteen input bytes per step with sixteen
//!   independent loads.  Always compiled: the path for short slices (the
//!   36-byte header prefix, control frames), for the last `len % 16` bytes
//!   after the folded kernel, for other architectures and for forced-scalar
//!   runs.
//!
//! Both produce the same state for every input, so the wire format does not
//! depend on the CPU.  The classic byte-wise loop is kept as
//! [`crc32_update_bytewise`] — the reference both kernels are
//! property-tested against (`tests/proptest_crc.rs`).

use std::sync::OnceLock;

use crate::crc_simd::{Clmul, FOLD_LEN};

/// Computes the CRC-32 (IEEE) of `data`.
///
/// ```
/// // The well-known check value for the ASCII string "123456789".
/// assert_eq!(rapidware_packet::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    crc32_finish(crc32_update(crc32_init(), data))
}

/// Starts an incremental CRC-32 computation (see [`crc32_update`]).
#[inline]
pub fn crc32_init() -> u32 {
    0xFFFF_FFFF
}

/// Folds `data` into a running CRC-32 state.
///
/// Feeding several slices through `crc32_update` and finishing with
/// [`crc32_finish`] yields the same checksum as [`crc32`] over their
/// concatenation, without materialising the concatenated buffer — this is
/// what lets the packet codec checksum header and payload with zero scratch
/// allocations.
///
/// ```
/// use rapidware_packet::{crc32, crc32_finish, crc32_init, crc32_update};
///
/// let state = crc32_update(crc32_init(), b"1234");
/// let state = crc32_update(state, b"56789");
/// assert_eq!(crc32_finish(state), crc32(b"123456789"));
/// ```
#[inline]
pub fn crc32_update(state: u32, data: &[u8]) -> u32 {
    CrcKernel::active().update(state, data)
}

/// Which kernel a [`crc32_update`] call runs on: the carry-less-multiply
/// folding kernel of `crc_simd.rs` with the tables behind it, or the
/// tables alone.
///
/// The codec always runs [`CrcKernel::active`].  The type is exported
/// (hidden from the documented API) only so the parity suite and the kernel
/// bench — both outside this crate — can name each kernel.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct CrcKernel {
    folded: Option<Clmul>,
}

impl CrcKernel {
    /// The slice-by-16 tables alone.
    pub fn tables() -> Self {
        Self { folded: None }
    }

    /// The folding kernel, or `None` when this CPU has no `PCLMULQDQ`.
    /// Ignores `RAPIDWARE_FORCE_SCALAR`.
    pub fn folded() -> Option<Self> {
        Clmul::detected().map(|clmul| Self { folded: Some(clmul) })
    }

    /// The kernel this process dispatches to, detected once: the folding
    /// kernel where the CPU has it, unless `RAPIDWARE_FORCE_SCALAR` is set
    /// to anything but empty or `0` — the rule of
    /// `rapidware_fec::gf256::active_kernel()`, restated here because this
    /// crate sits below the FEC one.
    pub fn active() -> Self {
        static ACTIVE: OnceLock<CrcKernel> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            let forced = std::env::var_os("RAPIDWARE_FORCE_SCALAR")
                .is_some_and(|v| !v.is_empty() && v != "0");
            if forced {
                Self::tables()
            } else {
                Self::folded().unwrap_or_else(Self::tables)
            }
        })
    }

    /// `"pclmulqdq"` or `"slice16"`.
    pub fn name(self) -> &'static str {
        if self.folded.is_some() {
            "pclmulqdq"
        } else {
            "slice16"
        }
    }

    /// [`crc32_update`] on this kernel.
    #[inline]
    pub fn update(self, state: u32, data: &[u8]) -> u32 {
        match self.folded {
            Some(clmul) if data.len() >= FOLD_LEN => {
                let (blocks, tail) = data.split_at(data.len() & !15);
                slice16_update(clmul.fold(state, blocks), tail)
            }
            _ => slice16_update(state, data),
        }
    }
}

/// The table kernel: sixteen bytes per step, then the byte-wise tail.
#[inline]
fn slice16_update(mut state: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(16);
    for chunk in chunks.by_ref() {
        // The running state is folded into the first word; every byte of
        // the chunk then contributes one independent table lookup, letting
        // the CPU issue them in parallel instead of waiting on the
        // byte-serial `state` dependency.
        let w0 = u32::from_le_bytes(chunk[0..4].try_into().expect("chunk of 4")) ^ state;
        let w1 = u32::from_le_bytes(chunk[4..8].try_into().expect("chunk of 4"));
        let w2 = u32::from_le_bytes(chunk[8..12].try_into().expect("chunk of 4"));
        let w3 = u32::from_le_bytes(chunk[12..16].try_into().expect("chunk of 4"));
        state = TABLES[15][(w0 & 0xFF) as usize]
            ^ TABLES[14][((w0 >> 8) & 0xFF) as usize]
            ^ TABLES[13][((w0 >> 16) & 0xFF) as usize]
            ^ TABLES[12][(w0 >> 24) as usize]
            ^ TABLES[11][(w1 & 0xFF) as usize]
            ^ TABLES[10][((w1 >> 8) & 0xFF) as usize]
            ^ TABLES[9][((w1 >> 16) & 0xFF) as usize]
            ^ TABLES[8][(w1 >> 24) as usize]
            ^ TABLES[7][(w2 & 0xFF) as usize]
            ^ TABLES[6][((w2 >> 8) & 0xFF) as usize]
            ^ TABLES[5][((w2 >> 16) & 0xFF) as usize]
            ^ TABLES[4][(w2 >> 24) as usize]
            ^ TABLES[3][(w3 & 0xFF) as usize]
            ^ TABLES[2][((w3 >> 8) & 0xFF) as usize]
            ^ TABLES[1][((w3 >> 16) & 0xFF) as usize]
            ^ TABLES[0][(w3 >> 24) as usize];
    }
    crc32_update_bytewise(state, chunks.remainder())
}

/// The classic one-byte-per-step CRC-32 loop: the reference implementation
/// both kernels are property-tested against, and the tail handler for
/// inputs shorter than one 16-byte step.
#[inline]
pub fn crc32_update_bytewise(mut state: u32, data: &[u8]) -> u32 {
    for &byte in data {
        let index = ((state ^ u32::from(byte)) & 0xFF) as usize;
        state = (state >> 8) ^ TABLES[0][index];
    }
    state
}

/// Finalises an incremental CRC-32 computation.
#[inline]
pub fn crc32_finish(state: u32) -> u32 {
    !state
}

/// Slice-by-16 lookup tables for the reflected IEEE polynomial 0xEDB88320.
///
/// `TABLES[0]` is the classic byte-wise table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` seen `k` positions before the end of a 16-byte
/// group (`TABLES[k][b] == crc_of(b followed by k zero bytes)`).
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // Each further table advances the previous one by one zero byte:
    // processing byte b then k zeros equals tables[k][b].
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0xAAu8; 64];
        let original = crc32(&data);
        data[17] ^= 0x01;
        assert_ne!(crc32(&data), original);
    }

    #[test]
    fn different_lengths_differ() {
        assert_ne!(crc32(&[0u8; 3]), crc32(&[0u8; 4]));
    }

    fn assert_matches_bytewise(kernel: CrcKernel, data: &[u8]) {
        for len in 0..=data.len() {
            assert_eq!(
                kernel.update(crc32_init(), &data[..len]),
                crc32_update_bytewise(crc32_init(), &data[..len]),
                "{} kernel, len {len}",
                kernel.name()
            );
        }
    }

    #[test]
    fn slice_by_16_matches_bytewise_at_every_length() {
        // Cover the wide loop, the tail, and every alignment of the seam.
        let data: Vec<u8> = (0..96).map(|i| (i * 37 + 11) as u8).collect();
        assert_matches_bytewise(CrcKernel::tables(), &data);
    }

    #[test]
    fn folded_kernel_matches_bytewise_at_every_length() {
        // Below 64 bytes the tables run whatever the kernel; from there up,
        // the four-accumulator loop, the 16-byte steps after it, and the
        // table tail — at every alignment of each seam.
        let data: Vec<u8> = (0..300).map(|i| (i * 37 + 11) as u8).collect();
        assert_matches_bytewise(CrcKernel::active(), &data);
        match CrcKernel::folded() {
            Some(folded) => assert_matches_bytewise(folded, &data),
            None => eprintln!("PCLMULQDQ not detected: the folded kernel is skipped"),
        }
    }

    #[test]
    fn incremental_split_points_agree_with_one_shot() {
        let data: Vec<u8> = (0..64).map(|i| (i * 13 + 5) as u8).collect();
        let whole = crc32(&data);
        for split in 0..=data.len() {
            let state = crc32_update(crc32_init(), &data[..split]);
            let state = crc32_update(state, &data[split..]);
            assert_eq!(crc32_finish(state), whole, "split {split}");
        }
    }
}
