//! Packet-level block framing for the erasure codec.
//!
//! The codec in [`crate::FecCodec`] works on equal-length shards, but real
//! media packets have variable sizes.  The paper's FEC encoder component
//! "collects the data packets into FEC data blocks of size k" and, when a
//! group is full, "encoding routines are invoked to produce n − k parity
//! packets".  [`BlockAssembler`] performs that grouping on the sender side
//! and [`BlockReconstructor`] undoes it on the receiver side.
//!
//! Framing: each source payload is placed in a shard as
//! `[length: u16 big-endian][payload][zero padding]`, where the shard length
//! is two bytes more than the largest payload in the block.  Parity shards
//! produced by the codec therefore carry enough information for the receiver
//! to recover both the bytes *and* the original length of a lost payload.

use crate::codec::FecCodec;
use crate::error::FecError;

/// Maximum payload size representable by the two-byte length prefix.
pub const MAX_PAYLOAD_LEN: usize = u16::MAX as usize;

/// The output of assembling one complete FEC block on the sender side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedBlock {
    /// Number of source payloads in the block (`k`).
    pub k: usize,
    /// Total number of encoded shards (`n`).
    pub n: usize,
    /// Common shard length used for this block.
    pub shard_len: usize,
    /// The `n − k` parity shards, in index order (`k`, `k + 1`, …, `n − 1`).
    pub parities: Vec<Vec<u8>>,
    /// Number of payloads that were real data (the rest were flush padding).
    pub occupied: usize,
}

/// A payload recovered by the FEC decoder, tagged with its slot inside the
/// block (0-based position among the `k` source packets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredPayload {
    /// Position of the payload within its block (`0..k`).
    pub slot: usize,
    /// The recovered payload bytes, with framing removed.
    pub data: Vec<u8>,
}

/// Reusable decode-side shard buffers for
/// [`BlockReconstructor::recover_with`].
///
/// One scratch serves any number of reconstructors sequentially; in
/// steady state (block after block of similar shard lengths) recovery
/// performs no shard-buffer allocations at all.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    /// Received source payloads re-framed to the block's shard length.
    framed: Vec<Vec<u8>>,
    /// Output buffers handed to [`FecCodec::decode_into`].
    decoded: Vec<Vec<u8>>,
}

impl DecodeScratch {
    /// Creates an empty scratch; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A complete block still lying in its [`BlockAssembler`]: the `k` framed
/// source shards, padded to their common length, from which each parity can
/// be encoded straight into the buffer it will be sent from.
#[derive(Debug)]
pub struct FramedBlock<'a> {
    codec: &'a FecCodec,
    shards: &'a [Vec<u8>],
    occupied: usize,
}

impl FramedBlock<'_> {
    /// The codec the block's parities are encoded with.
    pub fn codec(&self) -> &FecCodec {
        self.codec
    }

    /// Common shard length of this block: two bytes more than its largest
    /// payload.
    pub fn shard_len(&self) -> usize {
        self.shards.first().map_or(0, Vec::len)
    }

    /// Number of payloads that were real data (the rest were flush padding).
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Encodes parity shard `index` (`0..n − k`) into `parity`, which must
    /// be [`shard_len`](Self::shard_len) bytes.
    ///
    /// # Errors
    ///
    /// Those of [`FecCodec::encode_parity_into`].
    pub fn parity_into(&self, index: usize, parity: &mut [u8]) -> Result<(), FecError> {
        self.codec.encode_parity_into(self.shards, index, parity)
    }

    /// All `n − k` parity shards in fresh buffers.
    fn encoded(&self) -> Result<EncodedBlock, FecError> {
        let mut parities = vec![vec![0u8; self.shard_len()]; self.codec.parity_count()];
        for (index, parity) in parities.iter_mut().enumerate() {
            self.parity_into(index, parity)?;
        }
        Ok(EncodedBlock {
            k: self.codec.k(),
            n: self.codec.n(),
            shard_len: self.shard_len(),
            parities,
            occupied: self.occupied,
        })
    }
}

/// Groups source payloads into blocks of `k` and emits parity shards.
#[derive(Debug)]
pub struct BlockAssembler {
    codec: FecCodec,
    /// The block being filled, one framed shard per payload — length
    /// prefix, then the payload, written once and in place; the zero
    /// padding follows when the block completes.  Only the first
    /// `pending_len` entries are live; the rest are retained allocations
    /// that later blocks overwrite.
    shards: Vec<Vec<u8>>,
    pending_len: usize,
    blocks_emitted: u64,
}

impl BlockAssembler {
    /// Creates an assembler for the given codec.
    pub fn new(codec: FecCodec) -> Self {
        Self {
            codec,
            shards: Vec::new(),
            pending_len: 0,
            blocks_emitted: 0,
        }
    }

    /// The codec used by this assembler.
    pub fn codec(&self) -> &FecCodec {
        &self.codec
    }

    /// Number of payloads waiting for the current block to fill.
    pub fn pending(&self) -> usize {
        self.pending_len
    }

    /// Number of complete blocks emitted so far.
    pub fn blocks_emitted(&self) -> u64 {
        self.blocks_emitted
    }

    /// Adds a source payload.  Returns a completed [`EncodedBlock`] when this
    /// payload fills the current group of `k`.
    ///
    /// # Errors
    ///
    /// Returns [`FecError::CorruptPayload`] if the payload is larger than
    /// [`MAX_PAYLOAD_LEN`].
    pub fn push(&mut self, payload: &[u8]) -> Result<Option<EncodedBlock>, FecError> {
        self.push_with(|shard| shard.extend_from_slice(payload))?
            .map(|block| block.encoded())
            .transpose()
    }

    /// Adds the source payload that `write` appends to the buffer it is
    /// handed — the payload's final place inside its framed shard, so a
    /// sender serialises each packet once, here, instead of into a scratch
    /// that is copied in.  Returns the completed block when this payload
    /// fills the current group of `k`.
    ///
    /// # Errors
    ///
    /// Returns [`FecError::CorruptPayload`] (and takes nothing) if `write`
    /// appended more than [`MAX_PAYLOAD_LEN`] bytes.
    pub fn push_with(
        &mut self,
        write: impl FnOnce(&mut Vec<u8>),
    ) -> Result<Option<FramedBlock<'_>>, FecError> {
        let shard = self.next_shard();
        write(shard);
        let Some(len) = shard.len().checked_sub(2).and_then(|len| u16::try_from(len).ok()) else {
            shard.clear();
            return Err(FecError::CorruptPayload);
        };
        shard[..2].copy_from_slice(&len.to_be_bytes());
        self.pending_len += 1;
        if self.pending_len == self.codec.k() {
            Ok(Some(self.complete(self.codec.k())))
        } else {
            Ok(None)
        }
    }

    /// Completes the current block by padding it with empty payloads, if any
    /// payloads are pending.  Used at end of stream so the tail of the stream
    /// is still protected.
    ///
    /// # Errors
    ///
    /// Propagates codec errors (which cannot occur for well-formed state).
    pub fn flush(&mut self) -> Result<Option<EncodedBlock>, FecError> {
        self.flush_framed().map(|block| block.encoded()).transpose()
    }

    /// [`flush`](Self::flush), leaving the parities to be encoded in place
    /// through the returned [`FramedBlock`].
    pub fn flush_framed(&mut self) -> Option<FramedBlock<'_>> {
        if self.pending_len == 0 {
            return None;
        }
        let occupied = self.pending_len;
        while self.pending_len < self.codec.k() {
            self.next_shard();
            self.pending_len += 1;
        }
        Some(self.complete(occupied))
    }

    /// The next free shard slot, holding an empty payload's frame.
    fn next_shard(&mut self) -> &mut Vec<u8> {
        if self.pending_len == self.shards.len() {
            self.shards.push(Vec::new());
        }
        let shard = &mut self.shards[self.pending_len];
        shard.clear();
        shard.extend_from_slice(&[0, 0]);
        shard
    }

    /// Pads the `k` pending shards to their common length and hands them
    /// out; the slots are kept for the next block, only the logical length
    /// resets.
    fn complete(&mut self, occupied: usize) -> FramedBlock<'_> {
        let live = &mut self.shards[..self.pending_len];
        let shard_len = live.iter().map(Vec::len).max().unwrap_or(0);
        for shard in live.iter_mut() {
            shard.resize(shard_len, 0);
        }
        self.pending_len = 0;
        self.blocks_emitted += 1;
        FramedBlock {
            codec: &self.codec,
            shards: live,
            occupied,
        }
    }
}

/// Rebuilds missing source payloads of one block on the receiver side.
#[derive(Debug)]
pub struct BlockReconstructor {
    codec: FecCodec,
    sources: Vec<Option<Vec<u8>>>,
    parities: Vec<Option<Vec<u8>>>,
    shard_len: Option<usize>,
}

impl BlockReconstructor {
    /// Creates a reconstructor for one block encoded with `codec`.
    pub fn new(codec: FecCodec) -> Self {
        let k = codec.k();
        let parity_count = codec.parity_count();
        Self {
            codec,
            sources: vec![None; k],
            parities: vec![None; parity_count],
            shard_len: None,
        }
    }

    /// Records a received source payload occupying `slot` (`0..k`).
    ///
    /// # Errors
    ///
    /// Returns [`FecError::InvalidShardIndex`] if the slot is out of range.
    /// Duplicate deliveries of the same slot are ignored.
    pub fn add_source(&mut self, slot: usize, payload: &[u8]) -> Result<(), FecError> {
        if slot >= self.codec.k() {
            return Err(FecError::InvalidShardIndex(slot));
        }
        if self.sources[slot].is_none() {
            self.sources[slot] = Some(payload.to_vec());
        }
        Ok(())
    }

    /// Records a received parity shard with encoded index `k + parity_index`.
    ///
    /// # Errors
    ///
    /// Returns [`FecError::InvalidShardIndex`] if the parity index is out of
    /// range, or [`FecError::UnequalShardLengths`] if its length contradicts
    /// a previously received parity shard.
    pub fn add_parity(&mut self, parity_index: usize, shard: &[u8]) -> Result<(), FecError> {
        if parity_index >= self.codec.parity_count() {
            return Err(FecError::InvalidShardIndex(self.codec.k() + parity_index));
        }
        match self.shard_len {
            Some(len) if len != shard.len() => return Err(FecError::UnequalShardLengths),
            _ => self.shard_len = Some(shard.len()),
        }
        if self.parities[parity_index].is_none() {
            self.parities[parity_index] = Some(shard.to_vec());
        }
        Ok(())
    }

    /// Slots (`0..k`) whose source payload has not been received.
    pub fn missing_slots(&self) -> Vec<usize> {
        self.sources
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_none().then_some(i))
            .collect()
    }

    /// Number of distinct shards (sources + parities) received so far.
    pub fn shards_available(&self) -> usize {
        self.sources.iter().flatten().count() + self.parities.iter().flatten().count()
    }

    /// Returns `true` if enough shards have arrived to recover every missing
    /// source payload.
    pub fn is_decodable(&self) -> bool {
        self.missing_slots().is_empty()
            || (self.shards_available() >= self.codec.k() && self.shard_len.is_some())
    }

    /// Attempts to recover the missing source payloads.
    ///
    /// Returns one [`RecoveredPayload`] per previously missing slot.  Slots
    /// that were received directly are not returned (the caller already has
    /// them).  Returns an empty vector if nothing was missing.
    ///
    /// # Errors
    ///
    /// * [`FecError::NotEnoughShards`] if fewer than `k` shards are present;
    /// * [`FecError::CorruptPayload`] if a recovered shard's framing is
    ///   inconsistent (e.g. its length prefix exceeds the shard size).
    pub fn recover(&self) -> Result<Vec<RecoveredPayload>, FecError> {
        let mut scratch = DecodeScratch::new();
        self.recover_with(&mut scratch)
    }

    /// Like [`recover`](Self::recover), but reuses the shard buffers in
    /// `scratch` instead of allocating fresh ones per block — the form the
    /// FEC decoder filter uses so steady-state recovery is allocation-free.
    ///
    /// # Errors
    ///
    /// Same conditions as [`recover`](Self::recover).
    pub fn recover_with(
        &self,
        scratch: &mut DecodeScratch,
    ) -> Result<Vec<RecoveredPayload>, FecError> {
        let missing = self.missing_slots();
        if missing.is_empty() {
            return Ok(Vec::new());
        }
        let shard_len = self.shard_len.ok_or(FecError::NotEnoughShards {
            needed: self.codec.k(),
            available: self.shards_available(),
        })?;

        // Frame the received sources to the block's shard length (into the
        // reused scratch slots) and collect everything we have, indexed the
        // way the codec expects.
        scratch.framed.resize_with(self.codec.k(), Vec::new);
        for (slot, source) in self.sources.iter().enumerate() {
            if let Some(payload) = source {
                frame_payload_into(payload, shard_len, &mut scratch.framed[slot]);
            }
        }
        let mut available: Vec<(usize, &[u8])> = Vec::new();
        for (slot, source) in self.sources.iter().enumerate() {
            if source.is_some() {
                let framed = &scratch.framed[slot];
                if framed.len() != shard_len {
                    return Err(FecError::CorruptPayload);
                }
                available.push((slot, framed.as_slice()));
            }
        }
        for (i, parity) in self.parities.iter().enumerate() {
            if let Some(parity) = parity {
                available.push((self.codec.k() + i, parity.as_slice()));
            }
        }

        self.codec.decode_into(&available, shard_len, &mut scratch.decoded)?;
        let mut recovered = Vec::with_capacity(missing.len());
        for slot in missing {
            let data = unframe_payload(&scratch.decoded[slot])?;
            recovered.push(RecoveredPayload { slot, data });
        }
        Ok(recovered)
    }
}

#[cfg(test)]
fn frame_payload(payload: &[u8], shard_len: usize) -> Vec<u8> {
    let mut shard = Vec::new();
    frame_payload_into(payload, shard_len, &mut shard);
    shard
}

fn frame_payload_into(payload: &[u8], shard_len: usize, shard: &mut Vec<u8>) {
    shard.clear();
    shard.resize(shard_len.max(payload.len() + 2), 0);
    shard[..2].copy_from_slice(&(payload.len() as u16).to_be_bytes());
    shard[2..2 + payload.len()].copy_from_slice(payload);
    shard.truncate(shard_len);
}

fn unframe_payload(shard: &[u8]) -> Result<Vec<u8>, FecError> {
    if shard.len() < 2 {
        return Err(FecError::CorruptPayload);
    }
    let len = u16::from_be_bytes([shard[0], shard[1]]) as usize;
    if len > shard.len() - 2 {
        return Err(FecError::CorruptPayload);
    }
    Ok(shard[2..2 + len].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec_6_4() -> FecCodec {
        FecCodec::new(6, 4).unwrap()
    }

    fn payloads(lens: &[usize]) -> Vec<Vec<u8>> {
        lens.iter()
            .enumerate()
            .map(|(i, &len)| (0..len).map(|j| ((i * 31 + j * 7 + 1) % 256) as u8).collect())
            .collect()
    }

    #[test]
    fn assembler_emits_block_every_k_payloads() {
        let mut assembler = BlockAssembler::new(codec_6_4());
        let data = payloads(&[100, 120, 80, 100, 60]);
        assert!(assembler.push(&data[0]).unwrap().is_none());
        assert!(assembler.push(&data[1]).unwrap().is_none());
        assert!(assembler.push(&data[2]).unwrap().is_none());
        let block = assembler.push(&data[3]).unwrap().expect("block complete");
        assert_eq!(block.k, 4);
        assert_eq!(block.n, 6);
        assert_eq!(block.parities.len(), 2);
        assert_eq!(block.shard_len, 122); // max payload 120 + 2-byte prefix
        assert_eq!(block.occupied, 4);
        assert_eq!(assembler.blocks_emitted(), 1);
        // Fifth payload starts a new block.
        assert!(assembler.push(&data[4]).unwrap().is_none());
        assert_eq!(assembler.pending(), 1);
    }

    #[test]
    fn flush_pads_partial_block() {
        let mut assembler = BlockAssembler::new(codec_6_4());
        let data = payloads(&[50, 60]);
        assembler.push(&data[0]).unwrap();
        assembler.push(&data[1]).unwrap();
        let block = assembler.flush().unwrap().expect("partial block flushed");
        assert_eq!(block.occupied, 2);
        assert_eq!(block.parities.len(), 2);
        assert!(assembler.flush().unwrap().is_none());
    }

    #[test]
    fn oversized_payload_rejected() {
        let mut assembler = BlockAssembler::new(codec_6_4());
        let huge = vec![0u8; MAX_PAYLOAD_LEN + 1];
        assert_eq!(
            assembler.push(&huge).unwrap_err(),
            FecError::CorruptPayload
        );
    }

    #[test]
    fn reconstructor_recovers_single_loss_from_one_parity() {
        let data = payloads(&[200, 37, 158, 90]);
        let mut assembler = BlockAssembler::new(codec_6_4());
        let mut block = None;
        for payload in &data {
            if let Some(b) = assembler.push(payload).unwrap() {
                block = Some(b);
            }
        }
        let block = block.unwrap();

        // Packet in slot 2 is lost; one parity arrives.
        let mut reconstructor = BlockReconstructor::new(codec_6_4());
        reconstructor.add_source(0, &data[0]).unwrap();
        reconstructor.add_source(1, &data[1]).unwrap();
        reconstructor.add_source(3, &data[3]).unwrap();
        reconstructor.add_parity(0, &block.parities[0]).unwrap();
        assert_eq!(reconstructor.missing_slots(), vec![2]);
        assert!(reconstructor.is_decodable());
        let recovered = reconstructor.recover().unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].slot, 2);
        assert_eq!(recovered[0].data, data[2]);
    }

    #[test]
    fn reconstructor_recovers_two_losses_from_two_parities() {
        let data = payloads(&[64, 64, 64, 64]);
        let mut assembler = BlockAssembler::new(codec_6_4());
        let mut block = None;
        for payload in &data {
            if let Some(b) = assembler.push(payload).unwrap() {
                block = Some(b);
            }
        }
        let block = block.unwrap();

        let mut reconstructor = BlockReconstructor::new(codec_6_4());
        reconstructor.add_source(1, &data[1]).unwrap();
        reconstructor.add_source(2, &data[2]).unwrap();
        reconstructor.add_parity(0, &block.parities[0]).unwrap();
        reconstructor.add_parity(1, &block.parities[1]).unwrap();
        let mut recovered = reconstructor.recover().unwrap();
        recovered.sort_by_key(|r| r.slot);
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[0].slot, 0);
        assert_eq!(recovered[0].data, data[0]);
        assert_eq!(recovered[1].slot, 3);
        assert_eq!(recovered[1].data, data[3]);
    }

    #[test]
    fn too_many_losses_cannot_be_recovered() {
        let data = payloads(&[32, 32, 32, 32]);
        let mut assembler = BlockAssembler::new(codec_6_4());
        let mut block = None;
        for payload in &data {
            if let Some(b) = assembler.push(payload).unwrap() {
                block = Some(b);
            }
        }
        let block = block.unwrap();

        // Three sources lost, only one source + two parities = 3 < k.
        let mut reconstructor = BlockReconstructor::new(codec_6_4());
        reconstructor.add_source(0, &data[0]).unwrap();
        reconstructor.add_parity(0, &block.parities[0]).unwrap();
        reconstructor.add_parity(1, &block.parities[1]).unwrap();
        assert!(!reconstructor.is_decodable());
        assert!(matches!(
            reconstructor.recover().unwrap_err(),
            FecError::NotEnoughShards { .. }
        ));
    }

    #[test]
    fn nothing_missing_returns_empty() {
        let data = payloads(&[10, 20, 30, 40]);
        let mut reconstructor = BlockReconstructor::new(codec_6_4());
        for (slot, payload) in data.iter().enumerate() {
            reconstructor.add_source(slot, payload).unwrap();
        }
        assert!(reconstructor.is_decodable());
        assert!(reconstructor.recover().unwrap().is_empty());
    }

    #[test]
    fn invalid_indices_rejected() {
        let mut reconstructor = BlockReconstructor::new(codec_6_4());
        assert_eq!(
            reconstructor.add_source(4, &[1]).unwrap_err(),
            FecError::InvalidShardIndex(4)
        );
        assert_eq!(
            reconstructor.add_parity(2, &[1]).unwrap_err(),
            FecError::InvalidShardIndex(6)
        );
    }

    #[test]
    fn conflicting_parity_lengths_rejected() {
        let mut reconstructor = BlockReconstructor::new(codec_6_4());
        reconstructor.add_parity(0, &[0u8; 10]).unwrap();
        assert_eq!(
            reconstructor.add_parity(1, &[0u8; 12]).unwrap_err(),
            FecError::UnequalShardLengths
        );
    }

    #[test]
    fn duplicate_deliveries_are_ignored() {
        let data = payloads(&[16, 16, 16, 16]);
        let mut reconstructor = BlockReconstructor::new(codec_6_4());
        reconstructor.add_source(0, &data[0]).unwrap();
        reconstructor.add_source(0, &data[1]).unwrap(); // ignored duplicate
        assert_eq!(reconstructor.shards_available(), 1);
    }

    #[test]
    fn empty_payloads_survive_the_round_trip() {
        let data = vec![vec![], vec![1, 2, 3], vec![], vec![9]];
        let mut assembler = BlockAssembler::new(codec_6_4());
        let mut block = None;
        for payload in &data {
            if let Some(b) = assembler.push(payload).unwrap() {
                block = Some(b);
            }
        }
        let block = block.unwrap();
        let mut reconstructor = BlockReconstructor::new(codec_6_4());
        reconstructor.add_source(1, &data[1]).unwrap();
        reconstructor.add_source(3, &data[3]).unwrap();
        reconstructor.add_parity(0, &block.parities[0]).unwrap();
        reconstructor.add_parity(1, &block.parities[1]).unwrap();
        let mut recovered = reconstructor.recover().unwrap();
        recovered.sort_by_key(|r| r.slot);
        assert_eq!(recovered[0].data, data[0]);
        assert_eq!(recovered[1].data, data[2]);
    }

    #[test]
    fn recover_with_reused_dirty_scratch_matches_recover() {
        // Byte-parity regression for the scratch-arena path: a scratch left
        // dirty by a previous block (different shard length, stale bytes)
        // must produce exactly the same recovery as the allocating path.
        let mut scratch = DecodeScratch::new();
        for (block_index, lens) in [[300usize, 7, 41, 128], [9, 9, 9, 9], [1, 500, 0, 33]]
            .iter()
            .enumerate()
        {
            let data = payloads(lens);
            let mut assembler = BlockAssembler::new(codec_6_4());
            let mut block = None;
            for payload in &data {
                if let Some(b) = assembler.push(payload).unwrap() {
                    block = Some(b);
                }
            }
            let block = block.unwrap();

            let mut reconstructor = BlockReconstructor::new(codec_6_4());
            reconstructor.add_source(0, &data[0]).unwrap();
            reconstructor.add_source(2, &data[2]).unwrap();
            reconstructor.add_parity(0, &block.parities[0]).unwrap();
            reconstructor.add_parity(1, &block.parities[1]).unwrap();

            let fresh = reconstructor.recover().unwrap();
            let reused = reconstructor.recover_with(&mut scratch).unwrap();
            assert_eq!(fresh, reused, "block {block_index}");
            assert_eq!(reused.len(), 2);
            assert_eq!(reused[0].data, data[1]);
            assert_eq!(reused[1].data, data[3]);
        }
    }

    #[test]
    fn assembler_reuses_slots_across_blocks_without_cross_talk() {
        // Two consecutive blocks through one assembler: the second block's
        // payloads are shorter than the first's, so reused slots must not
        // leak stale bytes from the longer previous payloads.
        let mut assembler = BlockAssembler::new(codec_6_4());
        let first = payloads(&[90, 100, 80, 70]);
        let second = payloads(&[5, 3, 8, 2]);
        for payload in &first {
            assembler.push(payload).unwrap();
        }
        let mut block = None;
        for payload in &second {
            if let Some(b) = assembler.push(payload).unwrap() {
                block = Some(b);
            }
        }
        let block = block.unwrap();
        assert_eq!(block.shard_len, 10); // max payload 8 + 2-byte prefix

        // Compare against a fresh assembler fed only the second batch.
        let mut reference = BlockAssembler::new(codec_6_4());
        let mut expected = None;
        for payload in &second {
            if let Some(b) = reference.push(payload).unwrap() {
                expected = Some(b);
            }
        }
        assert_eq!(block.parities, expected.unwrap().parities);
    }

    #[test]
    fn payloads_written_in_place_frame_like_pushed_ones() {
        // `push_with` + `parity_into` (behind a prefix, as the encoder
        // filter uses them) against `push` on a second assembler, over two
        // blocks so reused slots are covered, then a flushed partial block.
        let mut in_place = BlockAssembler::new(codec_6_4());
        let mut pushed = BlockAssembler::new(codec_6_4());
        let parities_of = |block: &FramedBlock<'_>| -> Vec<Vec<u8>> {
            (0..2)
                .map(|index| {
                    let mut buffer = vec![0xEE; 8 + block.shard_len()];
                    block.parity_into(index, &mut buffer[8..]).unwrap();
                    buffer.split_off(8)
                })
                .collect()
        };
        for payload in payloads(&[300, 7, 41, 128, 9, 0, 64, 2]) {
            let expected = pushed.push(&payload).unwrap();
            let block = in_place.push_with(|shard| shard.extend_from_slice(&payload)).unwrap();
            assert_eq!(block.is_some(), expected.is_some());
            if let (Some(block), Some(expected)) = (block, expected) {
                assert_eq!(block.shard_len(), expected.shard_len);
                assert_eq!(block.occupied(), 4);
                assert_eq!(parities_of(&block), expected.parities);
            }
        }
        assert_eq!(in_place.blocks_emitted(), 2);

        // Too long: refused, and the slot it touched is not taken.
        let huge = vec![1u8; MAX_PAYLOAD_LEN + 1];
        let refused = in_place.push_with(|shard| shard.extend_from_slice(&huge));
        assert_eq!(refused.unwrap_err(), FecError::CorruptPayload);
        assert_eq!(in_place.pending(), 0);

        let tail = payloads(&[50]);
        pushed.push(&tail[0]).unwrap();
        in_place.push_with(|shard| shard.extend_from_slice(&tail[0])).unwrap();
        let expected = pushed.flush().unwrap().expect("partial block");
        let block = in_place.flush_framed().expect("partial block");
        assert_eq!(block.occupied(), 1);
        assert_eq!(parities_of(&block), expected.parities);
        assert!(in_place.flush_framed().is_none());
    }

    #[test]
    fn frame_and_unframe_round_trip() {
        let payload = vec![1u8, 2, 3, 4, 5];
        let shard = frame_payload(&payload, 12);
        assert_eq!(shard.len(), 12);
        assert_eq!(unframe_payload(&shard).unwrap(), payload);
    }

    #[test]
    fn unframe_rejects_bad_length_prefix() {
        let mut shard = frame_payload(&[1, 2, 3], 8);
        shard[0] = 0xFF;
        shard[1] = 0xFF;
        assert_eq!(unframe_payload(&shard).unwrap_err(), FecError::CorruptPayload);
        assert_eq!(unframe_payload(&[1]).unwrap_err(), FecError::CorruptPayload);
    }
}
