//! The FEC encoder filter.
//!
//! This is the Rust port of the proxy component the paper integrates first
//! into the RAPIDware framework: it "collects the data packets into FEC data
//! blocks of size k" and, when a group is full, "encoding routines are
//! invoked to produce n − k parity packets", which are forwarded along with
//! the data packets toward the wireless sender.
//!
//! The filter is *systematic*: source packets pass through unchanged and
//! immediately (no added latency on the data path); parity packets are
//! emitted right after the k-th source packet of each block.  Each parity
//! packet's payload is the 8-byte big-endian sequence number of the first
//! source packet of the block, followed by the parity shard computed over
//! the **wire encodings** of the block's source packets — so a receiver can
//! reconstruct a lost packet in its entirety (header, timestamp, and
//! payload), not just its payload bytes.
//!
//! Each source is serialised once, straight into its shard slot inside the
//! block assembler, and each parity is encoded straight into the payload
//! buffer its packet is sent with: per source the filter allocates nothing,
//! per block only the `n − k` parity payloads themselves.

use rapidware_fec::{BlockAssembler, FecCodec, FramedBlock};
use rapidware_packet::{BlockId, Bytes, Packet, PacketKind, SeqNo, StreamId};

use crate::error::FilterError;
use crate::filter::{Filter, InsertionPoint};

/// A composable proxy filter that adds (n, k) block-erasure parity packets
/// to a stream.
#[derive(Debug)]
pub struct FecEncoderFilter {
    name: String,
    assembler: BlockAssembler,
    parities: ParityStamper,
    require_frame_boundary: bool,
}

/// What the parity packets of the block being assembled will carry besides
/// their shard, and the running block/parity counts.
#[derive(Debug)]
struct ParityStamper {
    /// Sequence number of the block's first source; `None` between blocks.
    first_seq: Option<SeqNo>,
    /// Stream and timestamp of the block's most recent source.
    stream: StreamId,
    timestamp_us: u64,
    next_block: BlockId,
    blocks_encoded: u64,
    parities_emitted: u64,
}

impl ParityStamper {
    fn note_source(&mut self, packet: &Packet) {
        self.first_seq.get_or_insert(packet.seq());
        self.stream = packet.stream();
        self.timestamp_us = packet.timestamp_us();
    }

    /// Emits the `n − k` parity packets of a completed block.
    fn emit(&mut self, block: &FramedBlock<'_>, out: &mut Vec<Packet>) -> Result<(), FilterError> {
        let first_seq = self
            .first_seq
            .take()
            .ok_or_else(|| FilterError::Internal("fec block without a first sequence".into()))?;
        let block_id = self.next_block;
        self.next_block = self.next_block.next();
        self.blocks_encoded += 1;

        let (n, k) = (block.codec().n(), block.codec().k());
        for index in 0..n - k {
            // The shard is encoded where it is sent from: behind the block's
            // first sequence number, in the payload's own allocation.
            let mut payload = Bytes::zeroed(8 + block.shard_len());
            let (prefix, shard) = payload.make_mut().split_at_mut(8);
            prefix.copy_from_slice(&first_seq.value().to_be_bytes());
            block.parity_into(index, shard)?;
            let kind = PacketKind::Parity {
                block: block_id,
                index: (k + index) as u8,
                k: k as u8,
                n: n as u8,
            };
            // Parity packets get sequence numbers in a disjoint "parity
            // space" derived from the block so they never collide with
            // source sequence numbers at a reordering buffer.
            let parity_seq = SeqNo::new(u64::MAX / 2 + block_id.value() * n as u64 + index as u64);
            out.push(Packet::with_timestamp(self.stream, parity_seq, kind, self.timestamp_us, payload));
            self.parities_emitted += 1;
        }
        Ok(())
    }
}

impl FecEncoderFilter {
    /// Creates an encoder with the given (n, k) parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`FilterError::Fec`] wrapping
    /// [`rapidware_fec::FecError::InvalidParameters`] for invalid (n, k).
    pub fn new(n: usize, k: usize) -> Result<Self, FilterError> {
        let codec = FecCodec::new(n, k)?;
        Ok(Self {
            name: format!("fec-encoder({n},{k})"),
            assembler: BlockAssembler::new(codec),
            parities: ParityStamper {
                first_seq: None,
                stream: StreamId::new(0),
                timestamp_us: 0,
                next_block: BlockId::new(0),
                blocks_encoded: 0,
                parities_emitted: 0,
            },
            require_frame_boundary: false,
        })
    }

    /// The paper's FEC(6, 4) configuration ("we use small groups so as to
    /// minimize jitter").
    ///
    /// # Errors
    ///
    /// Never fails; returns `Result` for uniformity with [`new`](Self::new).
    pub fn fec_6_4() -> Result<Self, FilterError> {
        Self::new(6, 4)
    }

    /// Marks this encoder as video-aware: it must be spliced into a running
    /// chain only at a frame boundary.
    #[must_use]
    pub fn frame_aligned(mut self) -> Self {
        self.require_frame_boundary = true;
        self
    }

    /// Number of source packets per block.
    pub fn k(&self) -> usize {
        self.assembler.codec().k()
    }

    /// Total encoded packets per block.
    pub fn n(&self) -> usize {
        self.assembler.codec().n()
    }

    /// Number of complete blocks encoded so far.
    pub fn blocks_encoded(&self) -> u64 {
        self.parities.blocks_encoded
    }

    /// Number of parity packets emitted so far.
    pub fn parities_emitted(&self) -> u64 {
        self.parities.parities_emitted
    }
}

impl Filter for FecEncoderFilter {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, packet: Packet, out: &mut Vec<Packet>) -> Result<(), FilterError> {
        // Non-payload packets (control, parity from an upstream encoder) are
        // forwarded untouched and do not join a block.
        if !packet.kind().is_payload() {
            out.push(packet);
            return Ok(());
        }
        self.parities.note_source(&packet);
        // The block's shard is the packet's *wire image*, serialised once
        // and in place.
        let block = self.assembler.push_with(|shard| packet.encode_append(shard))?;
        // The source packet itself is forwarded immediately (systematic
        // code: zero added latency on the data path).
        out.push(packet);
        match block {
            Some(block) => self.parities.emit(&block, out),
            None => Ok(()),
        }
    }

    fn flush(&mut self, out: &mut Vec<Packet>) -> Result<(), FilterError> {
        match self.assembler.flush_framed() {
            Some(block) => self.parities.emit(&block, out),
            None => Ok(()),
        }
    }

    fn insertion_point(&self) -> InsertionPoint {
        if self.require_frame_boundary {
            InsertionPoint::FrameBoundary
        } else {
            InsertionPoint::Anywhere
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidware_packet::{PacketKind, StreamId};

    fn audio_packet(seq: u64, len: usize) -> Packet {
        Packet::with_timestamp(
            StreamId::new(3),
            SeqNo::new(seq),
            PacketKind::AudioData,
            seq * 20_000,
            vec![(seq % 251) as u8; len],
        )
    }

    #[test]
    fn emits_two_parities_every_four_sources_for_6_4() {
        let mut encoder = FecEncoderFilter::fec_6_4().unwrap();
        let mut out: Vec<Packet> = Vec::new();
        for seq in 0..8u64 {
            encoder.process(audio_packet(seq, 320), &mut out).unwrap();
        }
        // 8 sources + 2 blocks * 2 parities.
        assert_eq!(out.len(), 12);
        let parities: Vec<&Packet> = out.iter().filter(|p| p.kind().is_parity()).collect();
        assert_eq!(parities.len(), 4);
        assert_eq!(encoder.blocks_encoded(), 2);
        assert_eq!(encoder.parities_emitted(), 4);
        // Parity metadata is coherent.
        match parities[0].kind() {
            PacketKind::Parity { block, index, k, n } => {
                assert_eq!(block, rapidware_packet::BlockId::new(0));
                assert_eq!(index, 4);
                assert_eq!(k, 4);
                assert_eq!(n, 6);
            }
            other => panic!("unexpected kind {other:?}"),
        }
        // First 8 bytes of the parity payload carry the block's first seq.
        let first_seq = u64::from_be_bytes(parities[0].payload()[..8].try_into().unwrap());
        assert_eq!(first_seq, 0);
        let first_seq = u64::from_be_bytes(parities[2].payload()[..8].try_into().unwrap());
        assert_eq!(first_seq, 4);
    }

    #[test]
    fn source_packets_pass_through_unchanged_and_in_order() {
        let mut encoder = FecEncoderFilter::fec_6_4().unwrap();
        let mut out: Vec<Packet> = Vec::new();
        let inputs: Vec<Packet> = (0..4).map(|s| audio_packet(s, 100 + s as usize)).collect();
        for packet in &inputs {
            encoder.process(packet.clone(), &mut out).unwrap();
        }
        let sources: Vec<&Packet> = out.iter().filter(|p| p.kind().is_payload()).collect();
        assert_eq!(sources.len(), 4);
        for (observed, expected) in sources.iter().zip(&inputs) {
            assert_eq!(*observed, expected);
        }
        // The source packet is emitted *before* the parities of its block.
        assert!(out[3].kind().is_payload());
        assert!(out[4].kind().is_parity());
    }

    #[test]
    fn flush_protects_a_partial_block() {
        let mut encoder = FecEncoderFilter::fec_6_4().unwrap();
        let mut out: Vec<Packet> = Vec::new();
        encoder.process(audio_packet(0, 64), &mut out).unwrap();
        encoder.process(audio_packet(1, 64), &mut out).unwrap();
        assert_eq!(out.len(), 2);
        encoder.flush(&mut out).unwrap();
        assert_eq!(out.len(), 4, "two parities for the padded partial block");
        assert!(out[2].kind().is_parity());
    }

    #[test]
    fn control_packets_are_not_encoded() {
        let mut encoder = FecEncoderFilter::new(5, 2).unwrap();
        let mut out: Vec<Packet> = Vec::new();
        let control = Packet::new(StreamId::new(3), SeqNo::new(9), PacketKind::Control, vec![1]);
        encoder.process(control.clone(), &mut out).unwrap();
        encoder.process(audio_packet(0, 10), &mut out).unwrap();
        encoder.process(audio_packet(1, 10), &mut out).unwrap();
        // Control forwarded + 2 sources + 3 parities (k=2, n=5).
        assert_eq!(out.len(), 6);
        assert_eq!(out[0], control);
        assert_eq!(out.iter().filter(|p| p.kind().is_parity()).count(), 3);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(FecEncoderFilter::new(2, 4).is_err());
    }

    #[test]
    fn frame_aligned_encoder_requires_boundary() {
        let encoder = FecEncoderFilter::fec_6_4().unwrap().frame_aligned();
        assert_eq!(encoder.insertion_point(), InsertionPoint::FrameBoundary);
        let plain = FecEncoderFilter::fec_6_4().unwrap();
        assert_eq!(plain.insertion_point(), InsertionPoint::Anywhere);
    }
}
