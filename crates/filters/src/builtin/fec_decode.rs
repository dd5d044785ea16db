//! The FEC decoder filter.
//!
//! Installed on the receiving side of a lossy hop (in the paper: on the
//! mobile host, or in the proxy for the uplink direction), the decoder
//! forwards source packets as they arrive, absorbs parity packets, and —
//! whenever a block has lost packets but enough shards survived — rebuilds
//! the missing packets in their entirety and injects them back into the
//! stream.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rapidware_fec::{BlockReconstructor, DecodeScratch, FecCodec, FecError};
use rapidware_packet::{Packet, PacketKind};

use crate::error::FilterError;
use crate::filter::{Filter, FilterCounters};

/// Blocks held open at once; opening one more closes the oldest.
const MAX_OPEN_BLOCKS: usize = 64;

/// Bytes of a parity payload ahead of its shard: the block's first
/// sequence number.
const PARITY_HEADER_LEN: usize = 8;

/// Shared counters describing what a [`FecDecoderFilter`] has done.
#[derive(Debug, Default)]
pub struct FecDecoderStats {
    sources_seen: AtomicU64,
    parities_seen: AtomicU64,
    recovered: AtomicU64,
    unrecoverable_blocks: AtomicU64,
    duplicate_suppressed: AtomicU64,
}

impl FecDecoderStats {
    /// Source packets observed.
    pub fn sources_seen(&self) -> u64 {
        self.sources_seen.load(Ordering::Relaxed)
    }

    /// Parity packets observed.
    pub fn parities_seen(&self) -> u64 {
        self.parities_seen.load(Ordering::Relaxed)
    }

    /// Packets reconstructed and re-injected into the stream.
    pub fn recovered(&self) -> u64 {
        self.recovered.load(Ordering::Relaxed)
    }

    /// Blocks that had losses but not enough surviving shards to decode,
    /// counted when they close: pushed out by newer blocks, or at
    /// [`flush`](Filter::flush) (end of stream, or the decoder spliced
    /// out).  A flush-padded tail block that lost too many shards counts
    /// as well: without decoding, padding cannot be told from loss.
    pub fn unrecoverable_blocks(&self) -> u64 {
        self.unrecoverable_blocks.load(Ordering::Relaxed)
    }

    /// Late copies of already-recovered packets that were suppressed.
    pub fn duplicate_suppressed(&self) -> u64 {
        self.duplicate_suppressed.load(Ordering::Relaxed)
    }
}

/// One block being collected: its shards by handle, and whether it has
/// been decoded.
#[derive(Debug)]
struct OpenBlock {
    first_seq: u64,
    shards: BlockReconstructor<Packet>,
    /// Set once the block was decoded (its missing packets rebuilt): later
    /// parities are still checked, then dropped, and later sources are not
    /// attached.
    decoded: bool,
}

/// A window over sequence numbers: slot `seq % len` holds the latest item
/// seen with that residue, beside its number.
#[derive(Debug)]
struct SeqRing<T> {
    slots: Vec<Option<(u64, T)>>,
}

impl<T> SeqRing<T> {
    fn new(len: usize) -> Self {
        Self {
            slots: std::iter::repeat_with(|| None).take(len).collect(),
        }
    }

    fn slot(&self, seq: u64) -> usize {
        (seq % self.slots.len() as u64) as usize
    }

    /// The item held for `seq`, if any.
    fn get(&self, seq: u64) -> Option<&T> {
        match &self.slots[self.slot(seq)] {
            Some((held, item)) if *held == seq => Some(item),
            _ => None,
        }
    }

    /// Holds `item` for `seq` unless its slot holds a later number;
    /// returns `false` if an item for `seq` was held already.
    fn insert(&mut self, seq: u64, item: T) -> bool {
        let at = self.slot(seq);
        let slot = &mut self.slots[at];
        match slot {
            Some((held, _)) if *held > seq => true,
            _ => slot.replace((seq, item)).is_none_or(|(held, _)| held != seq),
        }
    }
}

/// A composable proxy filter that reconstructs lost packets from FEC parity
/// packets produced by a matching
/// [`FecEncoderFilter`](crate::FecEncoderFilter).
///
/// A received frame costs slot bookkeeping only: sources and parities are
/// kept as `Packet` handles (no byte copy), and bytes move only when a
/// block is decoded — its received sources wire-encoded straight into the
/// reused decode scratch, its parities read in place, and only its missing
/// rows rebuilt.  Storage is fixed per decoder: a ring of the last `64·k`
/// sources, at most 64 open blocks whose slot arrays are recycled, and a
/// ring of the last `64·k` re-injected sequence numbers.
pub struct FecDecoderFilter {
    name: String,
    codec: FecCodec,
    /// Recent source packets, so a parity that arrives later can use them
    /// as shards.
    recent_sources: SeqRing<Packet>,
    /// Open blocks in ascending order of first sequence number.
    blocks: VecDeque<OpenBlock>,
    /// Cleared slot arrays of closed blocks, for the next blocks to open.
    spare: Vec<BlockReconstructor<Packet>>,
    /// Sequence numbers this filter has re-injected lately.
    recovered_seqs: SeqRing<()>,
    forward_parity: bool,
    stats: Arc<FecDecoderStats>,
    /// Reused framing and decode buffers.  The filter is owned by one chain
    /// (itself owned by one runtime task), so this doubles as the per-task
    /// decode arena.
    decode_scratch: DecodeScratch,
}

impl std::fmt::Debug for FecDecoderFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FecDecoderFilter")
            .field("name", &self.name)
            .field("tracked_blocks", &self.blocks.len())
            .field("recovered", &self.stats.recovered())
            .finish()
    }
}

impl FecDecoderFilter {
    /// Creates a decoder for the given (n, k) parameters.  The parameters
    /// must match the encoder that produced the parity packets.
    ///
    /// # Errors
    ///
    /// Returns a [`FilterError::Fec`] for invalid parameters.
    pub fn new(n: usize, k: usize) -> Result<Self, FilterError> {
        let codec = FecCodec::new(n, k)?;
        let history = 64 * k;
        Ok(Self {
            name: format!("fec-decoder({n},{k})"),
            codec,
            recent_sources: SeqRing::new(history),
            blocks: VecDeque::new(),
            spare: Vec::new(),
            recovered_seqs: SeqRing::new(history),
            forward_parity: false,
            stats: Arc::new(FecDecoderStats::default()),
            decode_scratch: DecodeScratch::new(),
        })
    }

    /// The paper's FEC(6, 4) configuration.
    ///
    /// # Errors
    ///
    /// Never fails; returns `Result` for uniformity with [`new`](Self::new).
    pub fn fec_6_4() -> Result<Self, FilterError> {
        Self::new(6, 4)
    }

    /// Keeps forwarding parity packets downstream instead of absorbing them
    /// (useful when chaining decoders for diagnostics).
    #[must_use]
    pub fn forwarding_parity(mut self) -> Self {
        self.forward_parity = true;
        self
    }

    /// A handle to the decoder's counters.
    pub fn stats(&self) -> Arc<FecDecoderStats> {
        Arc::clone(&self.stats)
    }

    /// The index of the open block with first sequence number
    /// `first_seq`, opened (on a recycled slot array) if need be.
    fn open_block(&mut self, first_seq: u64) -> usize {
        match self.blocks.binary_search_by_key(&first_seq, |block| block.first_seq) {
            Ok(at) => at,
            Err(at) => {
                let shards = self
                    .spare
                    .pop()
                    .unwrap_or_else(|| BlockReconstructor::new(&self.codec));
                let block = OpenBlock {
                    first_seq,
                    shards,
                    decoded: false,
                };
                self.blocks.insert(at, block);
                at
            }
        }
    }

    /// Closes the oldest open block, counting it if it lost packets it
    /// never recovered; its slot array goes back to the spares.
    fn close_front(&mut self) {
        let Some(mut block) = self.blocks.pop_front() else {
            return;
        };
        if !block.decoded && block.shards.missing_slots().next().is_some() {
            self.stats
                .unrecoverable_blocks
                .fetch_add(1, Ordering::Relaxed);
        }
        block.shards.clear();
        self.spare.push(block.shards);
    }

    /// Decodes `block` (not decoded yet) if it holds enough shards, and
    /// re-injects every rebuilt packet not re-injected before.
    fn try_recover(
        block: &mut OpenBlock,
        codec: &FecCodec,
        recovered_seqs: &mut SeqRing<()>,
        stats: &FecDecoderStats,
        scratch: &mut DecodeScratch,
        out: &mut Vec<Packet>,
    ) -> Result<(), FilterError> {
        if !block.shards.is_decodable() {
            return Ok(());
        }
        let recovered = match block.shards.recover_with(
            codec,
            scratch,
            |source, shard| source.encode_append(shard),
            |parity| &parity.payload()[PARITY_HEADER_LEN..],
        ) {
            Ok(recovered) => recovered,
            Err(FecError::NotEnoughShards { .. }) => return Ok(()),
            Err(other) => return Err(other.into()),
        };
        for (slot, wire) in recovered {
            if wire.is_empty() {
                // A flush-padded slot (the encoder filled a partial block
                // with empty payloads): nothing to re-inject.
                continue;
            }
            let packet = Packet::decode(wire)?;
            let seq = packet.seq().value();
            debug_assert_eq!(seq, block.first_seq.wrapping_add(slot as u64));
            if recovered_seqs.insert(seq, ()) {
                stats.recovered.fetch_add(1, Ordering::Relaxed);
                out.push(packet);
            }
        }
        block.decoded = true;
        Ok(())
    }
}

impl Filter for FecDecoderFilter {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, packet: Packet, out: &mut Vec<Packet>) -> Result<(), FilterError> {
        match packet.kind() {
            PacketKind::Parity { index, k, n, .. } => {
                self.stats.parities_seen.fetch_add(1, Ordering::Relaxed);
                if usize::from(k) != self.codec.k() || usize::from(n) != self.codec.n() {
                    return Err(FilterError::Unsupported(format!(
                        "parity packet for fec({n},{k}) fed to a {} decoder",
                        self.name
                    )));
                }
                let Some((header, shard)) =
                    packet.payload().split_first_chunk::<PARITY_HEADER_LEN>()
                else {
                    return Err(FilterError::Internal(
                        "parity packet payload shorter than its block header".into(),
                    ));
                };
                let first_seq = u64::from_be_bytes(*header);
                let shard_len = shard.len();
                let parity_index = usize::from(index).saturating_sub(self.codec.k());

                let at = self.open_block(first_seq);
                let block = &mut self.blocks[at];
                if block.decoded {
                    block.shards.check_parity(parity_index, shard_len)?;
                } else {
                    // Attach the remembered sources the block still
                    // misses, then the parity itself.
                    for slot in 0..self.codec.k() {
                        if block.shards.holds(slot) {
                            continue;
                        }
                        let seq = first_seq.wrapping_add(slot as u64);
                        if let Some(source) = self.recent_sources.get(seq) {
                            block.shards.add_source(slot, source.clone())?;
                        }
                    }
                    block.shards.add_parity(parity_index, shard_len, packet.clone())?;
                    Self::try_recover(
                        block,
                        &self.codec,
                        &mut self.recovered_seqs,
                        &self.stats,
                        &mut self.decode_scratch,
                        out,
                    )?;
                }
                if self.forward_parity {
                    out.push(packet);
                }
                while self.blocks.len() > MAX_OPEN_BLOCKS {
                    self.close_front();
                }
                Ok(())
            }
            kind if kind.is_payload() => {
                self.stats.sources_seen.fetch_add(1, Ordering::Relaxed);
                let seq = packet.seq().value();
                if self.recovered_seqs.get(seq).is_some() {
                    // A late copy of a packet we already rebuilt: suppress it
                    // so downstream never sees a duplicate.
                    self.stats
                        .duplicate_suppressed
                        .fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                self.recent_sources.insert(seq, packet.clone());
                // If an open block is waiting for this packet, feed it.
                let k = self.codec.k() as u64;
                let at = self.blocks.partition_point(|block| block.first_seq <= seq);
                if let Some(block) = at
                    .checked_sub(1)
                    .map(|at| &mut self.blocks[at])
                    .filter(|block| seq - block.first_seq < k && !block.decoded)
                {
                    block
                        .shards
                        .add_source((seq - block.first_seq) as usize, packet.clone())?;
                    Self::try_recover(
                        block,
                        &self.codec,
                        &mut self.recovered_seqs,
                        &self.stats,
                        &mut self.decode_scratch,
                        out,
                    )?;
                }
                out.push(packet);
                Ok(())
            }
            _ => {
                out.push(packet);
                Ok(())
            }
        }
    }

    /// End of stream, or the decoder leaving its chain: every open block
    /// closes, so one still missing packets it could not recover is
    /// counted in [`FecDecoderStats::unrecoverable_blocks`].  Nothing is
    /// emitted.
    fn flush(&mut self, _out: &mut Vec<Packet>) -> Result<(), FilterError> {
        while !self.blocks.is_empty() {
            self.close_front();
        }
        Ok(())
    }

    fn counters(&self) -> Option<FilterCounters> {
        Some(FilterCounters::FecDecoder(Arc::clone(&self.stats)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::fec_encode::FecEncoderFilter;
    use rapidware_packet::{SeqNo, StreamId};

    fn audio_packet(seq: u64, len: usize) -> Packet {
        Packet::with_timestamp(
            StreamId::new(3),
            SeqNo::new(seq),
            PacketKind::AudioData,
            seq * 20_000,
            (0..len).map(|i| ((seq * 31 + i as u64 * 7) % 256) as u8).collect::<Vec<u8>>(),
        )
    }

    /// Encodes `count` packets through an encoder, returning the encoded
    /// stream (sources + parities in order).
    fn encoded_stream(count: u64, len: usize) -> Vec<Packet> {
        let mut encoder = FecEncoderFilter::fec_6_4().unwrap();
        let mut out: Vec<Packet> = Vec::new();
        for seq in 0..count {
            encoder.process(audio_packet(seq, len), &mut out).unwrap();
        }
        out
    }

    #[test]
    fn lossless_stream_passes_through_without_recovery() {
        let stream = encoded_stream(8, 320);
        let mut decoder = FecDecoderFilter::fec_6_4().unwrap();
        let stats = decoder.stats();
        let mut out: Vec<Packet> = Vec::new();
        for packet in stream {
            decoder.process(packet, &mut out).unwrap();
        }
        // All 8 sources forwarded, parities absorbed.
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|p| p.kind().is_payload()));
        assert_eq!(stats.sources_seen(), 8);
        assert_eq!(stats.parities_seen(), 4);
        assert_eq!(stats.recovered(), 0);
    }

    #[test]
    fn single_loss_per_block_is_recovered_exactly() {
        let stream = encoded_stream(8, 320);
        let originals: Vec<Packet> = (0..8).map(|s| audio_packet(s, 320)).collect();
        let mut decoder = FecDecoderFilter::fec_6_4().unwrap();
        let stats = decoder.stats();
        let mut out: Vec<Packet> = Vec::new();
        for packet in stream {
            // Drop source packets 2 and 5 (one loss in each block).
            if packet.kind().is_payload() && matches!(packet.seq().value(), 2 | 5) {
                continue;
            }
            decoder.process(packet, &mut out).unwrap();
        }
        assert_eq!(stats.recovered(), 2);
        assert_eq!(out.len(), 8, "6 received + 2 recovered");
        // The recovered packets are byte-for-byte identical to the originals.
        for original in &originals {
            let found = out
                .iter()
                .find(|p| p.seq() == original.seq())
                .expect("present after recovery");
            assert_eq!(found, original);
        }
    }

    #[test]
    fn two_losses_in_a_block_need_both_parities() {
        let stream = encoded_stream(4, 200);
        let mut decoder = FecDecoderFilter::fec_6_4().unwrap();
        let stats = decoder.stats();
        let mut out: Vec<Packet> = Vec::new();
        for packet in stream {
            if packet.kind().is_payload() && matches!(packet.seq().value(), 1 | 3) {
                continue;
            }
            decoder.process(packet, &mut out).unwrap();
        }
        assert_eq!(stats.recovered(), 2);
        let mut seqs: Vec<u64> = out.iter().map(|p| p.seq().value()).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn three_losses_in_a_block_are_unrecoverable() {
        let stream = encoded_stream(4, 200);
        let mut decoder = FecDecoderFilter::fec_6_4().unwrap();
        let stats = decoder.stats();
        let mut out: Vec<Packet> = Vec::new();
        for packet in stream {
            if packet.kind().is_payload() && matches!(packet.seq().value(), 1..=3) {
                continue;
            }
            decoder.process(packet, &mut out).unwrap();
        }
        assert_eq!(stats.recovered(), 0);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn flush_counts_an_open_block_it_could_not_recover() {
        let stream = encoded_stream(8, 120);
        let mut decoder = FecDecoderFilter::fec_6_4().unwrap();
        let stats = decoder.stats();
        let mut out: Vec<Packet> = Vec::new();
        for packet in stream {
            // Three of the second block's four sources are lost.
            if packet.kind().is_payload() && matches!(packet.seq().value(), 4..=6) {
                continue;
            }
            decoder.process(packet, &mut out).unwrap();
        }
        assert_eq!(stats.unrecoverable_blocks(), 0, "the block is still open");
        let delivered = out.len();
        decoder.flush(&mut out).unwrap();
        assert_eq!(out.len(), delivered, "flush emits nothing");
        assert_eq!(stats.unrecoverable_blocks(), 1);
        // The blocks are closed: a second flush counts nothing more.
        decoder.flush(&mut out).unwrap();
        assert_eq!(stats.unrecoverable_blocks(), 1);
    }

    #[test]
    fn lost_parities_do_not_matter_when_sources_survive() {
        let stream = encoded_stream(4, 100);
        let mut decoder = FecDecoderFilter::fec_6_4().unwrap();
        let mut out: Vec<Packet> = Vec::new();
        for packet in stream {
            if packet.kind().is_parity() {
                continue;
            }
            decoder.process(packet, &mut out).unwrap();
        }
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn late_source_after_recovery_is_suppressed() {
        let stream = encoded_stream(4, 100);
        let lost: Vec<Packet> = stream
            .iter()
            .filter(|p| p.kind().is_payload() && p.seq().value() == 2)
            .cloned()
            .collect();
        let mut decoder = FecDecoderFilter::fec_6_4().unwrap();
        let stats = decoder.stats();
        let mut out: Vec<Packet> = Vec::new();
        for packet in stream {
            if packet.kind().is_payload() && packet.seq().value() == 2 {
                continue; // "lost" (actually just very late)
            }
            decoder.process(packet, &mut out).unwrap();
        }
        assert_eq!(stats.recovered(), 1);
        // The late copy now arrives; it must not be emitted a second time.
        decoder.process(lost[0].clone(), &mut out).unwrap();
        assert_eq!(stats.duplicate_suppressed(), 1);
        let copies = out.iter().filter(|p| p.seq().value() == 2).count();
        assert_eq!(copies, 1);
    }

    #[test]
    fn parity_with_mismatched_parameters_is_rejected() {
        let mut wrong_encoder = FecEncoderFilter::new(8, 6).unwrap();
        let mut out: Vec<Packet> = Vec::new();
        for seq in 0..6u64 {
            wrong_encoder
                .process(audio_packet(seq, 50), &mut out)
                .unwrap();
        }
        let parity = out
            .iter()
            .find(|p| p.kind().is_parity())
            .cloned()
            .expect("one block was encoded");
        let mut decoder = FecDecoderFilter::fec_6_4().unwrap();
        let mut sink: Vec<Packet> = Vec::new();
        let err = decoder.process(parity, &mut sink).unwrap_err();
        assert!(matches!(err, FilterError::Unsupported(_)));
    }

    #[test]
    fn malformed_parities_are_rejected() {
        let stream = encoded_stream(4, 64);
        let parity = stream
            .iter()
            .find(|p| p.kind().is_parity())
            .cloned()
            .expect("one block was encoded");
        let PacketKind::Parity { block, k, n, .. } = parity.kind() else {
            unreachable!("a parity packet");
        };
        let with = |index: u8, payload: &[u8]| {
            Packet::new(
                parity.stream(),
                parity.seq(),
                PacketKind::Parity { block, index, k, n },
                payload.to_vec(),
            )
        };
        let mut decoder = FecDecoderFilter::fec_6_4().unwrap();
        let mut out: Vec<Packet> = Vec::new();
        let short = decoder.process(with(4, &parity.payload()[..7]), &mut out);
        assert!(matches!(short, Err(FilterError::Internal(_))));
        let index = decoder.process(with(6, parity.payload()), &mut out);
        assert!(matches!(index, Err(FilterError::Fec(FecError::InvalidShardIndex(6)))));
        decoder.process(with(4, parity.payload()), &mut out).unwrap();
        let longer = [parity.payload(), &[0]].concat();
        let length = decoder.process(with(5, &longer), &mut out);
        assert!(matches!(length, Err(FilterError::Fec(FecError::UnequalShardLengths))));
        assert!(out.is_empty());

        // Three sources complete the block, which is decoded; a later
        // parity is still checked.
        for source in stream.iter().filter(|p| p.kind().is_payload()).take(3) {
            decoder.process(source.clone(), &mut out).unwrap();
        }
        assert_eq!(out.len(), 4, "three sources and the rebuilt fourth");
        let length = decoder.process(with(5, &longer), &mut out);
        assert!(matches!(length, Err(FilterError::Fec(FecError::UnequalShardLengths))));
    }

    #[test]
    fn forwarding_parity_mode_keeps_parity_packets() {
        let stream = encoded_stream(4, 64);
        let mut decoder = FecDecoderFilter::fec_6_4().unwrap().forwarding_parity();
        let mut out: Vec<Packet> = Vec::new();
        for packet in stream {
            decoder.process(packet, &mut out).unwrap();
        }
        assert_eq!(out.iter().filter(|p| p.kind().is_parity()).count(), 2);
    }

    #[test]
    fn control_packets_pass_through() {
        let mut decoder = FecDecoderFilter::fec_6_4().unwrap();
        let control = Packet::new(StreamId::new(1), SeqNo::new(0), PacketKind::Control, vec![9]);
        let mut out: Vec<Packet> = Vec::new();
        decoder.process(control.clone(), &mut out).unwrap();
        assert_eq!(out, vec![control]);
    }

    #[test]
    fn reordered_parity_before_sources_still_recovers() {
        // Reorder so both parities of block 0 arrive before sources 1..3,
        // and source 0 is lost entirely.
        let stream = encoded_stream(4, 128);
        let sources: Vec<Packet> = stream.iter().filter(|p| p.kind().is_payload()).cloned().collect();
        let parities: Vec<Packet> = stream.iter().filter(|p| p.kind().is_parity()).cloned().collect();
        let mut decoder = FecDecoderFilter::fec_6_4().unwrap();
        let stats = decoder.stats();
        let mut out: Vec<Packet> = Vec::new();
        for packet in parities {
            decoder.process(packet, &mut out).unwrap();
        }
        for packet in sources.iter().skip(1) {
            decoder.process(packet.clone(), &mut out).unwrap();
        }
        // As soon as k shards are present the decoder rebuilds every missing
        // slot, so the genuinely lost packet 0 *and* the still-in-flight
        // packet 3 are both reconstructed; the late real copy of packet 3 is
        // then suppressed, so downstream sees each packet exactly once.
        assert_eq!(stats.recovered(), 2);
        assert_eq!(stats.duplicate_suppressed(), 1);
        for seq in 0..4u64 {
            let copies: Vec<&Packet> = out.iter().filter(|p| p.seq().value() == seq).collect();
            assert_eq!(copies.len(), 1, "seq {seq} delivered exactly once");
            assert_eq!(copies[0], &sources[seq as usize]);
        }
    }
}
