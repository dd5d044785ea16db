//! # rapidware-filters — composable proxy filters
//!
//! This crate provides the filter abstraction at the heart of McKinley &
//! Padmanabhan's composable-proxy framework, together with a library of
//! ready-made filters:
//!
//! * [`Filter`] — the trait every proxy filter implements (the analogue of
//!   the paper's `Filter` base class).  A filter consumes packets one at a
//!   time and pushes zero or more packets onto an output `Vec`.
//! * [`FilterChain`] — an ordered, *dynamically reconfigurable* sequence of
//!   filters (the data-plane state managed by the paper's `ControlThread`).
//!   Filters can be inserted, removed, replaced, and reordered while packets
//!   are flowing; insertions that require a clean point in the stream are
//!   deferred until the next frame boundary.
//! * Built-in filters: FEC encoder/decoder ([`FecEncoderFilter`],
//!   [`FecDecoderFilter`]), an audio transcoder ([`AudioTranscoderFilter`]),
//!   a run-length compressor pair ([`CompressorFilter`],
//!   [`DecompressorFilter`]), a priority-based rate limiter
//!   ([`RateLimiterFilter`]), a payload scrambler pair ([`ScramblerFilter`],
//!   [`DescramblerFilter`]), an AEAD secure-channel pair ([`EncryptFilter`],
//!   [`DecryptFilter`] — ChaCha20-Poly1305 with control-frame key
//!   rotation), a counting tap ([`TapFilter`]), the identity
//!   [`NullFilter`], and a fault-injection filter ([`DropEveryNth`]).
//!
//! ## Example: splicing an FEC encoder into a live chain
//!
//! ```
//! use rapidware_filters::{FilterChain, FecEncoderFilter, NullFilter};
//! use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
//!
//! # fn main() -> Result<(), rapidware_filters::FilterError> {
//! let mut chain = FilterChain::new();
//! chain.push_back(Box::new(NullFilter::new()))?;
//!
//! // Drive some packets through the null chain.
//! let mut out = Vec::new();
//! for seq in 0..4u64 {
//!     let p = Packet::new(StreamId::new(1), SeqNo::new(seq), PacketKind::AudioData, vec![0u8; 64]);
//!     out.extend(chain.process(p)?);
//! }
//! assert_eq!(out.len(), 4);
//!
//! // Insert an FEC(6,4) encoder at position 1 while the stream is running.
//! chain.insert(1, Box::new(FecEncoderFilter::fec_6_4()?))?;
//! assert_eq!(chain.names(), vec!["null", "fec-encoder(6,4)"]);
//! # Ok(())
//! # }
//! ```

// `deny`, not `forbid`: exactly two modules — `builtin::chacha_simd`, the
// AVX2 and AVX-512 ChaCha20 keystream kernels, and `builtin::poly1305_simd`,
// the AVX2 4-way Poly1305 kernel — carry a scoped `allow` of `unsafe_code`
// for their `#[target_feature]` calls and unaligned vector loads/stores,
// with a `SAFETY:` comment on every block naming the
// `rapidware_packet::cpu` token that proves the instructions exist (the
// same arrangement as `rapidware-fec` and its `gf256_simd`).  `forbid`
// cannot be overridden by an inner `allow`; everything else in the crate is
// still rejected.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builtin;
mod chain;
mod error;
mod filter;
mod telemetry;

pub use builtin::compress::{CompressorFilter, DecompressorFilter};
pub use builtin::faults::DropEveryNth;
pub use builtin::fec_decode::{FecDecoderFilter, FecDecoderStats};
pub use builtin::fec_encode::FecEncoderFilter;
pub use builtin::null::NullFilter;
pub use builtin::ratelimit::RateLimiterFilter;
pub use builtin::scramble::{DescramblerFilter, ScramblerFilter};
pub use builtin::secure::{
    parse_rekey, rekey_packet, DecryptFilter, EncryptFilter, SecureChannelSnapshot,
    SecureChannelStats, TAG_LEN,
};
// Not API: the per-kernel AEAD entry points, for `tests/proptest_aead_kernels.rs`
// and the `aead_kernel`/`mac_kernel` bench groups, which live outside the
// crate.
#[doc(hidden)]
pub use builtin::secure::Keystream;
pub use builtin::tap::{TapCounters, TapFilter};
pub use builtin::transcode::{AudioTranscoderFilter, TranscodeMode};
pub use chain::FilterChain;
pub use error::FilterError;
pub use filter::{Filter, FilterCounters, InsertionPoint};
pub use telemetry::{ChainSpans, STAGE_SAMPLE_EVERY};
