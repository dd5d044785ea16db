//! # rapidware-packet — packet model shared by every RAPIDware-rs subsystem
//!
//! The proxy filters of McKinley & Padmanabhan's composable-proxy framework
//! operate on *data streams* carrying multimedia packets: PCM audio blocks,
//! MPEG-style video frames, generic data, FEC parity packets, and control
//! messages.  This crate defines that packet model once so the filter chain,
//! the FEC codec, the network simulator, and the media sources all agree on
//! what flows through a stream.
//!
//! Contents:
//!
//! * [`Packet`], [`PacketHeader`], [`PacketKind`], [`FrameType`] — the unit
//!   of data carried by a detachable stream, with a compact wire encoding
//!   ([`Packet::encode`] / [`Packet::decode`]) protected by a CRC-32.
//! * [`SeqNo`], [`StreamId`], [`BlockId`] — newtype identifiers.
//! * [`PacketBuffer`] — the reordering/jitter buffer that sits between a
//!   receiver object and a consumer (the paper's `PacketBuffer` component in
//!   Figure 6).
//! * [`ReceiptStats`] / [`WindowStats`] — per-window receipt and
//!   reconstruction accounting used to regenerate the paper's Figure 7.
//! * [`cpu`] — the one decision of which SIMD kernels this host runs, for
//!   the CRC here and the FEC and cipher kernels above this crate.
//!
//! ## Example
//!
//! ```
//! use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
//!
//! let packet = Packet::new(StreamId::new(1), SeqNo::new(42), PacketKind::AudioData, vec![1, 2, 3]);
//! let wire = packet.encode();
//! let decoded = Packet::decode(&wire).expect("round-trip");
//! assert_eq!(decoded.seq(), SeqNo::new(42));
//! assert_eq!(decoded.payload(), &[1, 2, 3][..]);
//! ```

// `deny`, not `forbid`: exactly one module — `crc_simd`, the PCLMULQDQ
// CRC-32 folding kernel — carries a scoped `allow` of `unsafe_code` for its
// `#[target_feature]` call and unaligned vector loads, with a `SAFETY:`
// comment on every block naming the `cpu::Clmul` token that proves the
// instruction exists (the arrangement of `rapidware-fec`'s `gf256_simd`
// and `rapidware-filters`' `chacha_simd`).  `cpu`, which mints the tokens,
// is safe code.  `forbid` cannot be overridden by an inner `allow`;
// everything else in the crate is still rejected.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod buffer;
pub mod cpu;
mod crc;
mod crc_simd;
mod id;
mod kind;
mod packet;
mod stats;

pub use buffer::{BufferPush, PacketBuffer};
/// The reference-counted payload buffer [`Packet`] carries, re-exported so
/// a filter can build a payload in place and hand it over without a copy.
pub use bytes::Bytes;
pub use crc::{crc32, crc32_finish, crc32_init, crc32_update, crc32_update_bytewise};
// Not API: the per-kernel CRC entry point, for `tests/proptest_crc.rs`, the
// `crc_kernel` bench group and bench-report metadata, which live outside
// the crate.
#[doc(hidden)]
pub use crc::CrcKernel;
pub use id::{BlockId, SeqNo, StreamId};
pub use kind::{FrameType, PacketKind};
pub use packet::{DecodeError, Packet, PacketHeader, HEADER_LEN, MAX_PAYLOAD_LEN};
pub use stats::{LossEvent, ReceiptStats, WindowStats};
