//! # rapidware-fec — (n, k) block erasure codes
//!
//! The paper's demand-driven FEC proxy filter uses *(n, k)* block erasure
//! codes (Rizzo, "Effective erasure codes for reliable computer communication
//! protocols", CCR 1997): `k` source packets are expanded into `n` encoded
//! packets such that **any** `k` of the `n` suffice to reconstruct the
//! original `k`.  A single parity packet can therefore repair independent
//! single-packet losses at different multicast receivers, which is why the
//! paper uses these codes for audio multicast on wireless LANs.
//!
//! This crate implements that construction from scratch:
//!
//! * [`gf256`] — arithmetic in the Galois field GF(2⁸);
//! * [`Matrix`] — dense matrices over GF(2⁸) with Vandermonde construction
//!   and Gaussian-elimination inversion;
//! * [`FecCodec`] — a *systematic* encoder/decoder: the first `k` encoded
//!   shards are the source shards themselves, followed by `n − k` parity
//!   shards;
//! * [`BlockAssembler`] / [`BlockReconstructor`] — packet-level framing that
//!   groups variable-size payloads into fixed groups of `k`, pads them to a
//!   common length, and recovers missing payloads at the receiver.
//!
//! ## Example
//!
//! ```
//! use rapidware_fec::FecCodec;
//!
//! # fn main() -> Result<(), rapidware_fec::FecError> {
//! // The paper's FEC(6,4): 4 source packets, 2 parities.
//! let codec = FecCodec::new(6, 4)?;
//! let sources: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 16]).collect();
//! let shards: Vec<&[u8]> = sources.iter().map(|s| s.as_slice()).collect();
//! let parities = codec.encode(&shards)?;
//!
//! // Lose source shards 1 and 3; recover them from shards {0, 2} + parities.
//! let available = vec![
//!     (0usize, sources[0].as_slice()),
//!     (2, sources[2].as_slice()),
//!     (4, parities[0].as_slice()),
//!     (5, parities[1].as_slice()),
//! ];
//! let recovered = codec.decode(&available, 16)?;
//! assert_eq!(recovered[1], sources[1]);
//! assert_eq!(recovered[3], sources[3]);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the SIMD kernel module (`gf256_simd`) opts
// back in with a scoped `#[allow]` — it is the only unsafe code in the
// crate, its safety contract is documented at the module head, and every
// kernel in it demands the `rapidware_packet::cpu` token that proves its
// instructions exist.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod block;
mod codec;
mod error;
pub mod gf256;
mod gf256_simd;
mod matrix;

pub use block::{
    BlockAssembler, BlockReconstructor, DecodeScratch, EncodedBlock, FramedBlock,
    RecoveredPayload,
    MAX_PAYLOAD_LEN,
};
pub use codec::FecCodec;
pub use error::FecError;
pub use matrix::Matrix;
