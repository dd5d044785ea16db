//! The [`Packet`] type and its wire encoding.

use std::fmt;

use bytes::Bytes;

use crate::crc::{crc32_finish, crc32_init, crc32_update};
use crate::id::{BlockId, SeqNo, StreamId};
use crate::kind::{FrameType, PacketKind};

/// Length, in bytes, of the fixed packet header on the wire.
///
/// Layout (big-endian):
///
/// | offset | size | field |
/// |---|---|---|
/// | 0 | 4 | stream id |
/// | 4 | 8 | sequence number |
/// | 12 | 8 | timestamp (µs since stream start) |
/// | 20 | 1 | kind tag |
/// | 21 | 1 | frame type / parity index |
/// | 22 | 1 | flags (bit 0: frame boundary) / parity k |
/// | 23 | 1 | reserved / parity n |
/// | 24 | 8 | parity block id |
/// | 32 | 4 | payload length |
/// | 36 | 4 | CRC-32 of header-so-far + payload |
pub const HEADER_LEN: usize = 40;

/// Maximum payload length [`Packet::decode`] accepts.
///
/// Frames arriving from a network (datagram reassembly, a corrupted or
/// hostile peer) carry an attacker-controlled length field; without a cap, a
/// forged header could declare a multi-gigabyte payload and drive a
/// reassembly buffer to reserve it before any integrity check runs.  The cap
/// is far above every real workload in this system (media payloads are a few
/// kilobytes, UDP datagrams top out at 65,507 bytes) while keeping the worst
/// case allocation bounded.  [`DecodeError::FrameTooLarge`] reports
/// violations before any payload is touched.
pub const MAX_PAYLOAD_LEN: usize = 1 << 20;

/// Fixed metadata carried by every packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketHeader {
    /// Stream this packet belongs to.
    pub stream: StreamId,
    /// Per-stream sequence number.
    pub seq: SeqNo,
    /// Microseconds since the start of the stream (media timestamp).
    pub timestamp_us: u64,
    /// What the packet carries.
    pub kind: PacketKind,
}

/// A unit of data flowing through a proxy filter chain.
///
/// Packets are cheap to clone: the payload is a reference-counted [`Bytes`]
/// buffer, so a multicast fan-out to many receivers does not copy the data.
///
/// Alongside the wire fields, a packet carries one piece of **non-wire
/// telemetry metadata**: the ingress stamp ([`Packet::ingress_ns`]), the
/// span-clock instant at which the packet first entered the local proxy.
/// It is never encoded, never checksummed, never compared — equality,
/// hashing, and the encode/decode round trip all ignore it — so latency
/// instrumentation cannot perturb the data plane's observable behaviour.
#[derive(Clone)]
pub struct Packet {
    header: PacketHeader,
    payload: Bytes,
    /// Span-clock nanoseconds at local ingress; 0 = never stamped.
    ingress_ns: u64,
}

impl PartialEq for Packet {
    fn eq(&self, other: &Self) -> bool {
        // The ingress stamp is observability metadata, not packet content:
        // a stamped packet and its unstamped twin are the same packet.
        self.header == other.header && self.payload == other.payload
    }
}

impl Eq for Packet {}

/// Error returned by [`Packet::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeError {
    /// The input is shorter than the fixed header.
    Truncated,
    /// The payload length field points past the end of the input.
    BadLength,
    /// The payload length field exceeds [`MAX_PAYLOAD_LEN`]; the frame is
    /// rejected before any payload is read (the datagram-reassembly guard).
    FrameTooLarge {
        /// Payload length the header declared.
        declared: usize,
    },
    /// The kind tag is not one of the known packet kinds.
    UnknownKind(u8),
    /// The frame-type byte of a video packet is invalid.
    UnknownFrameType(u8),
    /// The CRC-32 does not match the header and payload contents.
    BadChecksum {
        /// CRC carried by the packet.
        expected: u32,
        /// CRC computed over the received bytes.
        actual: u32,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "packet shorter than header"),
            DecodeError::BadLength => write!(f, "payload length exceeds packet size"),
            DecodeError::FrameTooLarge { declared } => {
                write!(f, "declared payload length {declared} exceeds the {MAX_PAYLOAD_LEN}-byte frame cap")
            }
            DecodeError::UnknownKind(tag) => write!(f, "unknown packet kind tag {tag}"),
            DecodeError::UnknownFrameType(v) => write!(f, "unknown frame type byte {v}"),
            DecodeError::BadChecksum { expected, actual } => {
                write!(f, "checksum mismatch (expected {expected:#010x}, got {actual:#010x})")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Packet")
            .field("stream", &self.header.stream)
            .field("seq", &self.header.seq)
            .field("kind", &self.header.kind)
            .field("timestamp_us", &self.header.timestamp_us)
            .field("payload_len", &self.payload.len())
            .finish()
    }
}

impl Packet {
    /// Creates a packet with a zero timestamp.
    pub fn new(
        stream: StreamId,
        seq: SeqNo,
        kind: PacketKind,
        payload: impl Into<Bytes>,
    ) -> Self {
        Self::with_timestamp(stream, seq, kind, 0, payload)
    }

    /// Creates a packet with an explicit media timestamp (µs).
    pub fn with_timestamp(
        stream: StreamId,
        seq: SeqNo,
        kind: PacketKind,
        timestamp_us: u64,
        payload: impl Into<Bytes>,
    ) -> Self {
        Self {
            header: PacketHeader {
                stream,
                seq,
                timestamp_us,
                kind,
            },
            payload: payload.into(),
            ingress_ns: 0,
        }
    }

    /// Creates a packet from an existing header and payload.
    pub fn from_parts(header: PacketHeader, payload: impl Into<Bytes>) -> Self {
        Self {
            header,
            payload: payload.into(),
            ingress_ns: 0,
        }
    }

    /// The local ingress stamp: span-clock nanoseconds at which this packet
    /// entered the proxy, or 0 if it was never stamped.  Not a wire field —
    /// see [`stamp_ingress_ns`](Self::stamp_ingress_ns).
    pub fn ingress_ns(&self) -> u64 {
        self.ingress_ns
    }

    /// Stamps the ingress instant if the packet is not already stamped
    /// (first touch wins, so a packet crossing several instrumented stages
    /// keeps its true arrival time).  The stamp survives clones,
    /// [`with_seq`](Self::with_seq), [`with_payload`](Self::with_payload),
    /// and payload edits, but not the encode/decode round trip — a decoded
    /// packet is a fresh arrival and starts unstamped.
    pub fn stamp_ingress_ns(&mut self, now_ns: u64) {
        if self.ingress_ns == 0 {
            self.ingress_ns = now_ns;
        }
    }

    /// The packet header.
    pub fn header(&self) -> &PacketHeader {
        &self.header
    }

    /// Stream identifier.
    pub fn stream(&self) -> StreamId {
        self.header.stream
    }

    /// Sequence number.
    pub fn seq(&self) -> SeqNo {
        self.header.seq
    }

    /// Media timestamp in microseconds.
    pub fn timestamp_us(&self) -> u64 {
        self.header.timestamp_us
    }

    /// Packet kind.
    pub fn kind(&self) -> PacketKind {
        self.header.kind
    }

    /// Payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Shared handle to the payload (no copy).
    pub fn payload_bytes(&self) -> Bytes {
        self.payload.clone()
    }

    /// Payload length in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Replaces the payload via an arbitrary (possibly length-changing)
    /// edit, with copy-on-write semantics.
    ///
    /// [`payload_mut`](Self::payload_mut) hands out a fixed-length slice, so
    /// filters that grow or shrink the payload — an AEAD seal appending its
    /// 16-byte tag, a verifier stripping it — cannot use it.  This method
    /// copies the payload into a scratch `Vec`, applies `edit`, and installs
    /// the result as a fresh private buffer.  Sibling packets sharing the old
    /// buffer (a multicast fan-out) are never affected: the old allocation is
    /// released, not written through.
    ///
    /// ```
    /// use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
    ///
    /// let original = Packet::new(StreamId::new(1), SeqNo::new(0), PacketKind::Data, vec![1, 2, 3]);
    /// let mut sealed = original.clone(); // shares the payload buffer
    /// sealed.payload_edit(|buf| buf.extend_from_slice(&[0xAA; 16]));
    /// assert_eq!(original.payload(), &[1, 2, 3], "sibling unaffected");
    /// assert_eq!(sealed.payload_len(), 19);
    /// ```
    pub fn payload_edit(&mut self, edit: impl FnOnce(&mut Vec<u8>)) {
        // One AEAD tag of slack, so the common grow-by-tag edit appends
        // without a second allocation-and-copy of the whole payload.
        let mut buf = Vec::with_capacity(self.payload.len() + 16);
        buf.extend_from_slice(&self.payload);
        edit(&mut buf);
        self.payload = Bytes::from(buf);
    }

    /// The header bytes covered as associated data by an AEAD seal: the
    /// first 32 bytes of the wire header (stream id, sequence number,
    /// timestamp, kind tag, aux bytes, parity block id), excluding the
    /// payload-length and CRC fields, which legitimately change when a
    /// filter rewrites the payload.
    ///
    /// Binding these bytes into the tag means a forged header — even one
    /// with a dutifully recomputed CRC — fails authentication.
    pub fn aad_bytes(&self) -> [u8; 32] {
        let mut aad = [0u8; 32];
        aad[0..4].copy_from_slice(&self.header.stream.value().to_be_bytes());
        aad[4..12].copy_from_slice(&self.header.seq.value().to_be_bytes());
        aad[12..20].copy_from_slice(&self.header.timestamp_us.to_be_bytes());
        aad[20] = self.header.kind.tag();
        let (aux0, aux1, aux2, block) = self.aux_fields();
        aad[21] = aux0;
        aad[22] = aux1;
        aad[23] = aux2;
        aad[24..32].copy_from_slice(&block.to_be_bytes());
        aad
    }

    /// The kind-dependent aux bytes and block id as they appear on the wire.
    fn aux_fields(&self) -> (u8, u8, u8, u64) {
        match self.header.kind {
            PacketKind::VideoFrame { frame, boundary } => {
                let frame_byte = match frame {
                    FrameType::I => 0u8,
                    FrameType::P => 1,
                    FrameType::B => 2,
                };
                (frame_byte, u8::from(boundary), 0u8, 0u64)
            }
            PacketKind::Parity { block, index, k, n } => (index, k, n, block.value()),
            _ => (0, 0, 0, 0),
        }
    }

    /// Mutable access to the payload with copy-on-write semantics.
    ///
    /// Packets cloned for a multicast fan-out share one `Arc`-backed payload
    /// buffer; a filter that rewrites payload bytes on one receiver lane
    /// calls this to get a private copy *only if* the buffer is shared.  A
    /// packet that owns its payload exclusively is mutated in place with no
    /// allocation, so per-lane transformations stay cheap on the common
    /// single-consumer path.
    ///
    /// ```
    /// use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
    ///
    /// let original = Packet::new(StreamId::new(1), SeqNo::new(0), PacketKind::Data, vec![1, 2, 3]);
    /// let mut lane_copy = original.clone(); // shares the payload buffer
    /// lane_copy.payload_mut()[0] = 99;      // copy-on-write: original untouched
    /// assert_eq!(original.payload(), &[1, 2, 3]);
    /// assert_eq!(lane_copy.payload(), &[99, 2, 3]);
    /// ```
    pub fn payload_mut(&mut self) -> &mut [u8] {
        self.payload.make_mut()
    }

    /// Returns `true` if this packet and `other` share the same backing
    /// payload allocation (the zero-copy fan-out case).  Empty payloads
    /// compare by allocation too, so this is a physical-sharing test, not a
    /// content comparison.
    pub fn shares_payload_with(&self, other: &Packet) -> bool {
        std::ptr::eq(self.payload.as_ptr(), other.payload.as_ptr())
            && self.payload.len() == other.payload.len()
    }

    /// Total size on the wire: header plus payload.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// Returns `true` if a filter may be spliced in immediately before this
    /// packet (see [`PacketKind::is_insertion_boundary`]).
    pub fn is_insertion_boundary(&self) -> bool {
        self.header.kind.is_insertion_boundary()
    }

    /// Returns a copy of this packet with a different sequence number.
    #[must_use]
    pub fn with_seq(&self, seq: SeqNo) -> Packet {
        let mut header = self.header;
        header.seq = seq;
        Packet {
            header,
            payload: self.payload.clone(),
            ingress_ns: self.ingress_ns,
        }
    }

    /// Returns a copy of this packet with a different payload (header
    /// unchanged); used by transcoders that rewrite packet contents.
    #[must_use]
    pub fn with_payload(&self, payload: impl Into<Bytes>) -> Packet {
        Packet {
            header: self.header,
            payload: payload.into(),
            ingress_ns: self.ingress_ns,
        }
    }

    /// Encodes the packet into its wire representation.
    pub fn encode(&self) -> Bytes {
        let mut buf = Vec::with_capacity(self.wire_len());
        self.encode_into(&mut buf);
        Bytes::from(buf)
    }

    /// Encodes the packet into a caller-owned buffer, replacing its
    /// contents.
    ///
    /// This is the batch-friendly encode path: a hot loop that serialises
    /// packet after packet (the FEC encoder framing each source packet, the
    /// decoder rebuilding shards) can reuse one scratch buffer instead of
    /// allocating per packet.  The checksum is computed incrementally over
    /// header and payload, so no concatenation scratch is needed either.
    ///
    /// ```
    /// use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
    ///
    /// let mut scratch = Vec::new();
    /// for seq in 0..4u64 {
    ///     let packet =
    ///         Packet::new(StreamId::new(1), SeqNo::new(seq), PacketKind::AudioData, vec![7; 64]);
    ///     packet.encode_into(&mut scratch);
    ///     assert_eq!(Packet::decode(&scratch).unwrap(), packet);
    /// }
    /// ```
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.clear();
        self.encode_append(buf);
    }

    /// Appends the packet's wire representation to `buf`, leaving what is
    /// already there untouched: how a sender lays many frames end to end
    /// in one arena (a batched socket send) with one encode per frame.
    ///
    /// ```
    /// use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
    ///
    /// let packet = Packet::new(StreamId::new(1), SeqNo::new(0), PacketKind::Data, vec![7; 8]);
    /// let mut arena = vec![0xAA; 3];
    /// packet.encode_append(&mut arena);
    /// assert_eq!(arena.len(), 3 + packet.wire_len());
    /// assert_eq!(Packet::decode(&arena[3..]).unwrap(), packet);
    /// ```
    pub fn encode_append(&self, buf: &mut Vec<u8>) {
        let mut header = [0u8; HEADER_LEN];
        header[..32].copy_from_slice(&self.aad_bytes());
        header[32..36].copy_from_slice(&(self.payload.len() as u32).to_be_bytes());
        let crc = {
            let state = crc32_update(crc32_init(), &header[..HEADER_LEN - 4]);
            crc32_finish(crc32_update(state, &self.payload))
        };
        header[36..].copy_from_slice(&crc.to_be_bytes());
        buf.reserve(self.wire_len());
        buf.extend_from_slice(&header);
        buf.extend_from_slice(&self.payload);
    }

    /// Decodes a packet from its wire representation.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the input is truncated, carries an
    /// unknown kind or frame type, or fails the CRC check.
    pub fn decode(wire: &[u8]) -> Result<Packet, DecodeError> {
        let Some((header, body)) = wire.split_first_chunk::<HEADER_LEN>() else {
            return Err(DecodeError::Truncated);
        };
        let be_u32 = |at: usize| u32::from_be_bytes(header[at..at + 4].try_into().expect("4 bytes"));
        let be_u64 = |at: usize| u64::from_be_bytes(header[at..at + 8].try_into().expect("8 bytes"));
        let stream = StreamId::new(be_u32(0));
        let seq = SeqNo::new(be_u64(4));
        let timestamp_us = be_u64(12);
        let [tag, aux0, aux1, aux2] = [header[20], header[21], header[22], header[23]];
        let block = be_u64(24);
        let payload_len = be_u32(32) as usize;
        let carried_crc = be_u32(36);
        if payload_len > MAX_PAYLOAD_LEN {
            return Err(DecodeError::FrameTooLarge {
                declared: payload_len,
            });
        }
        let Some(payload) = body.get(..payload_len) else {
            return Err(DecodeError::BadLength);
        };
        let computed = {
            let state = crc32_update(crc32_init(), &header[..HEADER_LEN - 4]);
            crc32_finish(crc32_update(state, payload))
        };
        if computed != carried_crc {
            return Err(DecodeError::BadChecksum {
                expected: carried_crc,
                actual: computed,
            });
        }
        let kind = match tag {
            0 => PacketKind::AudioData,
            1 => {
                let frame = match aux0 {
                    0 => FrameType::I,
                    1 => FrameType::P,
                    2 => FrameType::B,
                    other => return Err(DecodeError::UnknownFrameType(other)),
                };
                PacketKind::VideoFrame {
                    frame,
                    boundary: aux1 != 0,
                }
            }
            2 => PacketKind::Data,
            3 => PacketKind::Parity {
                block: BlockId::new(block),
                index: aux0,
                k: aux1,
                n: aux2,
            },
            4 => PacketKind::Control,
            other => return Err(DecodeError::UnknownKind(other)),
        };
        Ok(Packet {
            header: PacketHeader {
                stream,
                seq,
                timestamp_us,
                kind,
            },
            payload: Bytes::copy_from_slice(payload),
            ingress_ns: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::crc32;

    fn sample_kinds() -> Vec<PacketKind> {
        vec![
            PacketKind::AudioData,
            PacketKind::Data,
            PacketKind::Control,
            PacketKind::VideoFrame {
                frame: FrameType::I,
                boundary: true,
            },
            PacketKind::VideoFrame {
                frame: FrameType::B,
                boundary: false,
            },
            PacketKind::Parity {
                block: BlockId::new(77),
                index: 5,
                k: 4,
                n: 6,
            },
        ]
    }

    #[test]
    fn encode_decode_round_trip_all_kinds() {
        for kind in sample_kinds() {
            let packet = Packet::with_timestamp(
                StreamId::new(9),
                SeqNo::new(123_456),
                kind,
                987_654_321,
                vec![1, 2, 3, 4, 5],
            );
            let wire = packet.encode();
            assert_eq!(wire.len(), packet.wire_len());
            let decoded = Packet::decode(&wire).unwrap();
            assert_eq!(decoded, packet, "kind {kind:?}");
        }
    }

    #[test]
    fn empty_payload_round_trip() {
        let packet = Packet::new(StreamId::new(1), SeqNo::new(0), PacketKind::Control, Vec::new());
        let decoded = Packet::decode(&packet.encode()).unwrap();
        assert_eq!(decoded.payload_len(), 0);
    }

    #[test]
    fn truncated_input_rejected() {
        let packet = Packet::new(StreamId::new(1), SeqNo::new(1), PacketKind::Data, vec![9; 10]);
        let wire = packet.encode();
        assert_eq!(Packet::decode(&wire[..10]).unwrap_err(), DecodeError::Truncated);
        assert_eq!(
            Packet::decode(&wire[..HEADER_LEN + 3]).unwrap_err(),
            DecodeError::BadLength
        );
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let packet = Packet::new(StreamId::new(1), SeqNo::new(1), PacketKind::Data, vec![9; 32]);
        let mut wire = packet.encode().to_vec();
        wire[HEADER_LEN + 4] ^= 0xFF;
        assert!(matches!(
            Packet::decode(&wire).unwrap_err(),
            DecodeError::BadChecksum { .. }
        ));
    }

    #[test]
    fn corrupted_header_fails_crc() {
        let packet = Packet::new(StreamId::new(1), SeqNo::new(1), PacketKind::Data, vec![9; 8]);
        let mut wire = packet.encode().to_vec();
        wire[5] ^= 0x10; // flip a bit in the sequence number
        assert!(matches!(
            Packet::decode(&wire).unwrap_err(),
            DecodeError::BadChecksum { .. }
        ));
    }

    #[test]
    fn unknown_kind_rejected() {
        let packet = Packet::new(StreamId::new(1), SeqNo::new(1), PacketKind::Data, vec![1]);
        let mut wire = packet.encode().to_vec();
        wire[20] = 200; // kind tag
        // Recompute CRC so the only failure is the kind tag.
        let payload_len = 1usize;
        let crc = {
            let mut scratch = Vec::new();
            scratch.extend_from_slice(&wire[..HEADER_LEN - 4]);
            scratch.extend_from_slice(&wire[HEADER_LEN..HEADER_LEN + payload_len]);
            crc32(&scratch)
        };
        wire[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(Packet::decode(&wire).unwrap_err(), DecodeError::UnknownKind(200));
    }

    #[test]
    fn with_seq_and_with_payload_preserve_other_fields() {
        let packet = Packet::with_timestamp(
            StreamId::new(2),
            SeqNo::new(5),
            PacketKind::AudioData,
            42,
            vec![1, 2, 3],
        );
        let renumbered = packet.with_seq(SeqNo::new(6));
        assert_eq!(renumbered.seq(), SeqNo::new(6));
        assert_eq!(renumbered.timestamp_us(), 42);
        assert_eq!(renumbered.payload(), packet.payload());
        let rewritten = packet.with_payload(vec![9]);
        assert_eq!(rewritten.seq(), SeqNo::new(5));
        assert_eq!(rewritten.payload(), &[9]);
    }

    #[test]
    fn clone_shares_payload_storage() {
        let packet = Packet::new(StreamId::new(1), SeqNo::new(1), PacketKind::Data, vec![0u8; 1024]);
        let clone = packet.clone();
        // Bytes clones share the same backing allocation.
        assert_eq!(
            packet.payload_bytes().as_ptr(),
            clone.payload_bytes().as_ptr()
        );
    }

    #[test]
    fn payload_mut_is_copy_on_write() {
        let original =
            Packet::new(StreamId::new(1), SeqNo::new(0), PacketKind::Data, vec![1u8, 2, 3]);
        let mut fanned = original.clone();
        assert!(fanned.shares_payload_with(&original), "clone shares storage");
        fanned.payload_mut()[1] = 42;
        assert_eq!(original.payload(), &[1, 2, 3], "sibling unaffected by the write");
        assert_eq!(fanned.payload(), &[1, 42, 3]);
        assert!(!fanned.shares_payload_with(&original), "write forced a private copy");

        // A uniquely owned payload mutates in place: no reallocation.
        let before = fanned.payload().as_ptr();
        fanned.payload_mut()[0] = 7;
        assert_eq!(fanned.payload().as_ptr(), before);
    }

    #[test]
    fn payload_edit_is_copy_on_write_for_length_changes() {
        let original =
            Packet::new(StreamId::new(1), SeqNo::new(0), PacketKind::Data, vec![1u8, 2, 3]);
        let mut sealed = original.clone();
        assert!(sealed.shares_payload_with(&original));
        sealed.payload_edit(|buf| buf.extend_from_slice(&[7u8; 16]));
        assert_eq!(original.payload(), &[1, 2, 3], "sibling unaffected by the grow");
        assert_eq!(sealed.payload_len(), 19);
        assert!(!sealed.shares_payload_with(&original));
        // Shrinking works the same way.
        sealed.payload_edit(|buf| buf.truncate(3));
        assert_eq!(sealed.payload(), &[1, 2, 3]);
        // An edited packet still round-trips on the wire.
        assert_eq!(Packet::decode(&sealed.encode()).unwrap(), sealed);
    }

    #[test]
    fn aad_bytes_match_the_wire_header_prefix() {
        for kind in sample_kinds() {
            let packet = Packet::with_timestamp(
                StreamId::new(9),
                SeqNo::new(123_456),
                kind,
                987_654_321,
                vec![1, 2, 3],
            );
            let wire = packet.encode();
            assert_eq!(&packet.aad_bytes()[..], &wire[..32], "kind {kind:?}");
        }
    }

    #[test]
    fn aad_bytes_distinguish_header_fields() {
        let base = Packet::new(StreamId::new(1), SeqNo::new(7), PacketKind::Data, vec![1]);
        let other_stream = Packet::new(StreamId::new(2), SeqNo::new(7), PacketKind::Data, vec![1]);
        let other_seq = Packet::new(StreamId::new(1), SeqNo::new(8), PacketKind::Data, vec![1]);
        let other_kind = Packet::new(StreamId::new(1), SeqNo::new(7), PacketKind::AudioData, vec![1]);
        assert_ne!(base.aad_bytes(), other_stream.aad_bytes());
        assert_ne!(base.aad_bytes(), other_seq.aad_bytes());
        assert_ne!(base.aad_bytes(), other_kind.aad_bytes());
    }

    #[test]
    fn debug_shows_key_fields() {
        let packet = Packet::new(StreamId::new(3), SeqNo::new(8), PacketKind::AudioData, vec![1]);
        let text = format!("{packet:?}");
        assert!(text.contains("StreamId(3)"));
        assert!(text.contains("SeqNo(8)"));
        assert!(text.contains("payload_len"));
    }

    #[test]
    fn decode_error_display() {
        let err = DecodeError::BadChecksum {
            expected: 1,
            actual: 2,
        };
        assert!(err.to_string().contains("checksum"));
        assert!(DecodeError::Truncated.to_string().contains("shorter"));
    }

    #[test]
    fn ingress_stamp_is_first_touch_and_invisible() {
        let mut packet =
            Packet::new(StreamId::new(1), SeqNo::new(0), PacketKind::AudioData, vec![1, 2, 3]);
        let unstamped = packet.clone();
        assert_eq!(packet.ingress_ns(), 0);
        packet.stamp_ingress_ns(42);
        packet.stamp_ingress_ns(99); // first touch wins
        assert_eq!(packet.ingress_ns(), 42);

        // The stamp rides through clone / with_seq / with_payload / edits…
        assert_eq!(packet.clone().ingress_ns(), 42);
        assert_eq!(packet.with_seq(SeqNo::new(7)).ingress_ns(), 42);
        assert_eq!(packet.with_payload(vec![9]).ingress_ns(), 42);
        let mut edited = packet.clone();
        edited.payload_edit(|p| p.push(4));
        assert_eq!(edited.ingress_ns(), 42);

        // …but never onto the wire, and never into equality.
        assert_eq!(packet, unstamped);
        let decoded = Packet::decode(&packet.encode()).expect("round trip");
        assert_eq!(decoded.ingress_ns(), 0);
        assert_eq!(decoded, packet);
    }
}
