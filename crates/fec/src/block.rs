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
//! Both sides write a payload straight into its shard, behind the prefix
//! (`frame_with`), and `unframe` is the one way back.

use crate::codec::{CodecScratch, FecCodec};
use crate::error::FecError;

/// Maximum payload size representable by the two-byte length prefix.
pub const MAX_PAYLOAD_LEN: usize = u16::MAX as usize;

/// Reusable decode-side buffers for [`BlockReconstructor::recover_with`].
///
/// One scratch serves any number of reconstructors sequentially; in
/// steady state (block after block of similar shard lengths) recovery
/// performs no allocations at all.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    /// Received source payloads, framed to the block's shard length.
    framed: Vec<Vec<u8>>,
    /// The slots being recovered, in order.
    missing: Vec<usize>,
    /// One decoded shard per missing slot.
    decoded: Vec<Vec<u8>>,
    codec: CodecScratch,
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
        frame_with(self.next_shard(), write)?;
        self.pending_len += 1;
        if self.pending_len == self.codec.k() {
            Ok(Some(self.complete(self.codec.k())))
        } else {
            Ok(None)
        }
    }

    /// Completes the current block by padding it with empty payloads, if any
    /// payloads are pending, leaving its parities to be encoded in place
    /// through the returned [`FramedBlock`].  Used at end of stream so the
    /// tail of the stream is still protected.
    pub fn flush_framed(&mut self) -> Option<FramedBlock<'_>> {
        if self.pending_len == 0 {
            return None;
        }
        let occupied = self.pending_len;
        while self.pending_len < self.codec.k() {
            frame_with(self.next_shard(), |_| ()).expect("an empty payload fits its prefix");
            self.pending_len += 1;
        }
        Some(self.complete(occupied))
    }

    /// The next free shard slot.
    fn next_shard(&mut self) -> &mut Vec<u8> {
        if self.pending_len == self.shards.len() {
            self.shards.push(Vec::new());
        }
        &mut self.shards[self.pending_len]
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

/// Tracks one block's shards on the receiver side and rebuilds its missing
/// source payloads.
///
/// Shards are held as caller handles `S` (the FEC decoder filter keeps
/// `Packet`s: a reference-count bump, no byte copy) and which of them are
/// present is a bitmask.  Bytes are only touched by
/// [`recover_with`](Self::recover_with), which frames each present source
/// into the scratch there, so a block that loses nothing is never framed.
/// [`clear`](Self::clear) readies the slot arrays for another block.
#[derive(Debug)]
pub struct BlockReconstructor<S> {
    k: usize,
    /// One slot per encoded shard: sources `0..k`, then the parities.
    shards: Vec<Option<S>>,
    /// Bit `i` is set when `shards[i]` holds a handle (`n ≤ 255`).
    present: [u64; 4],
    shard_len: Option<usize>,
}

impl<S> BlockReconstructor<S> {
    /// Creates an empty tracker for one block encoded with `codec`.
    pub fn new(codec: &FecCodec) -> Self {
        Self {
            k: codec.k(),
            shards: std::iter::repeat_with(|| None).take(codec.n()).collect(),
            present: [0; 4],
            shard_len: None,
        }
    }

    /// Drops every held shard, keeping the slot arrays for the next block.
    pub fn clear(&mut self) {
        self.shards.iter_mut().for_each(|shard| *shard = None);
        self.present = [0; 4];
        self.shard_len = None;
    }

    /// Whether shard `index` (sources `0..k`, then the parities) is held.
    pub fn holds(&self, index: usize) -> bool {
        self.present.get(index / 64).is_some_and(|word| word & (1 << (index % 64)) != 0)
    }

    /// Holds `shard` at `index` unless a copy is already held.
    fn put(&mut self, index: usize, shard: S) {
        if !self.holds(index) {
            self.present[index / 64] |= 1 << (index % 64);
            self.shards[index] = Some(shard);
        }
    }

    /// Records a received source occupying `slot` (`0..k`).
    ///
    /// # Errors
    ///
    /// Returns [`FecError::InvalidShardIndex`] if the slot is out of range.
    /// Duplicate deliveries of the same slot are ignored.
    pub fn add_source(&mut self, slot: usize, source: S) -> Result<(), FecError> {
        if slot >= self.k {
            return Err(FecError::InvalidShardIndex(slot));
        }
        self.put(slot, source);
        Ok(())
    }

    /// Checks a parity with encoded index `k + parity_index` whose shard is
    /// `shard_len` bytes against this block, without recording it.
    ///
    /// # Errors
    ///
    /// Returns [`FecError::InvalidShardIndex`] if the parity index is out of
    /// range, or [`FecError::UnequalShardLengths`] if its length contradicts
    /// a previously received parity shard.
    pub fn check_parity(&self, parity_index: usize, shard_len: usize) -> Result<(), FecError> {
        let index = self.k.saturating_add(parity_index);
        if index >= self.shards.len() {
            return Err(FecError::InvalidShardIndex(index));
        }
        if self.shard_len.is_some_and(|len| len != shard_len) {
            return Err(FecError::UnequalShardLengths);
        }
        Ok(())
    }

    /// Records a received parity with encoded index `k + parity_index`
    /// whose shard is `shard_len` bytes.
    ///
    /// # Errors
    ///
    /// Those of [`check_parity`](Self::check_parity).  Duplicates are
    /// checked, then ignored.
    pub fn add_parity(
        &mut self,
        parity_index: usize,
        shard_len: usize,
        parity: S,
    ) -> Result<(), FecError> {
        self.check_parity(parity_index, shard_len)?;
        self.shard_len = Some(shard_len);
        self.put(self.k + parity_index, parity);
        Ok(())
    }

    /// Slots (`0..k`) whose source has not been received.
    pub fn missing_slots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.k).filter(|&slot| !self.holds(slot))
    }

    /// Number of distinct shards (sources + parities) received so far.
    pub fn shards_available(&self) -> usize {
        self.present.iter().map(|word| word.count_ones() as usize).sum()
    }

    /// Returns `true` if enough shards have arrived to recover every missing
    /// source payload.
    pub fn is_decodable(&self) -> bool {
        self.missing_slots().next().is_none()
            || (self.shards_available() >= self.k && self.shard_len.is_some())
    }

    /// Recovers the missing source payloads through `scratch`, yielding
    /// `(slot, payload)` for each previously missing slot, framing removed;
    /// nothing if no slot is missing.
    ///
    /// `write_source` appends a held source's payload to the shard it is
    /// handed, behind the length prefix; `parity_shard` returns a held
    /// parity's shard bytes, read in place.
    ///
    /// # Errors
    ///
    /// * [`FecError::NotEnoughShards`] if fewer than `k` shards are present;
    /// * [`FecError::CorruptPayload`] if a source is too long to frame or a
    ///   recovered shard's length prefix exceeds the shard, checked for
    ///   every slot before any is yielded;
    /// * the codec's errors.
    pub fn recover_with<'s>(
        &self,
        codec: &FecCodec,
        scratch: &'s mut DecodeScratch,
        mut write_source: impl FnMut(&S, &mut Vec<u8>),
        parity_shard: impl Fn(&S) -> &[u8],
    ) -> Result<impl Iterator<Item = (usize, &'s [u8])>, FecError> {
        scratch.missing.clear();
        scratch.missing.extend(self.missing_slots());
        let wanted = scratch.missing.len();
        if wanted > 0 {
            let shard_len = self.shard_len.ok_or(FecError::NotEnoughShards {
                needed: self.k,
                available: self.shards_available(),
            })?;
            scratch.framed.resize_with(self.k, Vec::new);
            for (source, framed) in self.shards.iter().zip(&mut scratch.framed) {
                if let Some(source) = source {
                    frame_with(framed, |shard| write_source(source, shard))?;
                    framed.resize(shard_len, 0);
                }
            }
            if scratch.decoded.len() < wanted {
                scratch.decoded.resize_with(wanted, Vec::new);
            }
            let (k, framed) = (self.k, &scratch.framed);
            let available = self.shards.iter().enumerate().filter_map(|(index, shard)| {
                let shard = shard.as_ref()?;
                Some((index, if index < k { &framed[index][..] } else { parity_shard(shard) }))
            });
            codec.decode_rows_into(
                available,
                shard_len,
                scratch.missing.iter().copied(),
                &mut scratch.codec,
                &mut scratch.decoded[..wanted],
            )?;
            for shard in &scratch.decoded[..wanted] {
                unframe(shard)?;
            }
        }
        Ok(scratch
            .missing
            .iter()
            .zip(&scratch.decoded)
            .map(|(&slot, shard)| (slot, unframe(shard).expect("every recovered frame was checked"))))
    }
}

/// Frames one payload in `shard`, replacing its contents: `write` appends
/// the payload behind a two-byte length prefix, which is then filled in.
///
/// # Errors
///
/// Returns [`FecError::CorruptPayload`] (and leaves `shard` empty) if
/// `write` appended more than [`MAX_PAYLOAD_LEN`] bytes.
fn frame_with(shard: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) -> Result<(), FecError> {
    shard.clear();
    shard.extend_from_slice(&[0, 0]);
    write(shard);
    let Some(len) = shard.len().checked_sub(2).and_then(|len| u16::try_from(len).ok()) else {
        shard.clear();
        return Err(FecError::CorruptPayload);
    };
    shard[..2].copy_from_slice(&len.to_be_bytes());
    Ok(())
}

/// The payload a framed shard carries.
///
/// # Errors
///
/// Returns [`FecError::CorruptPayload`] if the shard is shorter than its
/// prefix or the prefix claims more bytes than the shard holds.
fn unframe(shard: &[u8]) -> Result<&[u8], FecError> {
    let (prefix, body) = shard.split_first_chunk::<2>().ok_or(FecError::CorruptPayload)?;
    body.get(..usize::from(u16::from_be_bytes(*prefix)))
        .ok_or(FecError::CorruptPayload)
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

    /// A completed block as its sender reads it.
    #[derive(Debug)]
    struct Block {
        shard_len: usize,
        occupied: usize,
        parities: Vec<Vec<u8>>,
    }

    /// Reads every parity of `block` through `parity_into`, each written
    /// behind an 8-byte header the way the encoder filter writes them.
    fn read(block: &FramedBlock<'_>) -> Block {
        let parities = (0..block.codec().parity_count())
            .map(|index| {
                let mut buffer = vec![0xEE; 8 + block.shard_len()];
                block.parity_into(index, &mut buffer[8..]).unwrap();
                buffer.split_off(8)
            })
            .collect();
        Block {
            shard_len: block.shard_len(),
            occupied: block.occupied(),
            parities,
        }
    }

    fn push(assembler: &mut BlockAssembler, payload: &[u8]) -> Result<Option<Block>, FecError> {
        let block = assembler.push_with(|shard| shard.extend_from_slice(payload))?;
        Ok(block.as_ref().map(read))
    }

    /// Pushes `payloads` in order and returns the last block they complete.
    fn push_all(assembler: &mut BlockAssembler, payloads: &[Vec<u8>]) -> Option<Block> {
        payloads.iter().fold(None, |last, payload| push(assembler, payload).unwrap().or(last))
    }

    /// `recover_with` over byte handles, as owned `(slot, payload)` pairs.
    fn recover<S: AsRef<[u8]>>(
        reconstructor: &BlockReconstructor<S>,
        scratch: &mut DecodeScratch,
    ) -> Result<Vec<(usize, Vec<u8>)>, FecError> {
        let recovered = reconstructor.recover_with(
            &codec_6_4(),
            scratch,
            |source, shard| shard.extend_from_slice(source.as_ref()),
            AsRef::as_ref,
        )?;
        Ok(recovered.map(|(slot, data)| (slot, data.to_vec())).collect())
    }

    #[test]
    fn assembler_emits_block_every_k_payloads() {
        let mut assembler = BlockAssembler::new(codec_6_4());
        let data = payloads(&[100, 120, 80, 100, 60]);
        assert!(push(&mut assembler, &data[0]).unwrap().is_none());
        assert!(push(&mut assembler, &data[1]).unwrap().is_none());
        assert!(push(&mut assembler, &data[2]).unwrap().is_none());
        let block = push(&mut assembler, &data[3]).unwrap().expect("block complete");
        assert_eq!(block.parities.len(), 2);
        assert_eq!(block.shard_len, 122); // max payload 120 + 2-byte prefix
        assert_eq!(block.occupied, 4);
        assert_eq!(assembler.blocks_emitted(), 1);
        // Fifth payload starts a new block.
        assert!(push(&mut assembler, &data[4]).unwrap().is_none());
        assert_eq!(assembler.pending(), 1);
    }

    #[test]
    fn flush_pads_partial_block() {
        let mut assembler = BlockAssembler::new(codec_6_4());
        let data = payloads(&[50, 60]);
        push(&mut assembler, &data[0]).unwrap();
        push(&mut assembler, &data[1]).unwrap();
        let block = read(&assembler.flush_framed().expect("partial block flushed"));
        assert_eq!(block.occupied, 2);
        assert_eq!(block.parities.len(), 2);
        assert!(assembler.flush_framed().is_none());
    }

    #[test]
    fn oversized_payload_rejected() {
        let mut assembler = BlockAssembler::new(codec_6_4());
        let huge = vec![0u8; MAX_PAYLOAD_LEN + 1];
        assert_eq!(push(&mut assembler, &huge).unwrap_err(), FecError::CorruptPayload);
        // The slot it touched is not taken.
        assert_eq!(assembler.pending(), 0);
    }

    #[test]
    fn reconstructor_recovers_single_loss_from_one_parity() {
        let data = payloads(&[200, 37, 158, 90]);
        let block = push_all(&mut BlockAssembler::new(codec_6_4()), &data).unwrap();

        // Packet in slot 2 is lost; one parity arrives.
        let mut reconstructor = BlockReconstructor::new(&codec_6_4());
        reconstructor.add_source(0, &data[0]).unwrap();
        reconstructor.add_source(1, &data[1]).unwrap();
        reconstructor.add_source(3, &data[3]).unwrap();
        reconstructor.add_parity(0, block.shard_len, &block.parities[0]).unwrap();
        assert_eq!(reconstructor.missing_slots().collect::<Vec<_>>(), vec![2]);
        assert!(reconstructor.is_decodable());
        let recovered = recover(&reconstructor, &mut DecodeScratch::new()).unwrap();
        assert_eq!(recovered, vec![(2, data[2].clone())]);
    }

    #[test]
    fn reconstructor_recovers_two_losses_from_two_parities() {
        let data = payloads(&[64, 64, 64, 64]);
        let block = push_all(&mut BlockAssembler::new(codec_6_4()), &data).unwrap();

        let mut reconstructor = BlockReconstructor::new(&codec_6_4());
        reconstructor.add_source(1, &data[1]).unwrap();
        reconstructor.add_source(2, &data[2]).unwrap();
        reconstructor.add_parity(0, block.shard_len, &block.parities[0]).unwrap();
        reconstructor.add_parity(1, block.shard_len, &block.parities[1]).unwrap();
        let recovered = recover(&reconstructor, &mut DecodeScratch::new()).unwrap();
        assert_eq!(recovered, vec![(0, data[0].clone()), (3, data[3].clone())]);
    }

    #[test]
    fn too_many_losses_cannot_be_recovered() {
        let data = payloads(&[32, 32, 32, 32]);
        let block = push_all(&mut BlockAssembler::new(codec_6_4()), &data).unwrap();

        // Three sources lost, only one source + two parities = 3 < k.
        let mut reconstructor = BlockReconstructor::new(&codec_6_4());
        reconstructor.add_source(0, &data[0]).unwrap();
        reconstructor.add_parity(0, block.shard_len, &block.parities[0]).unwrap();
        reconstructor.add_parity(1, block.shard_len, &block.parities[1]).unwrap();
        assert!(!reconstructor.is_decodable());
        assert!(matches!(
            recover(&reconstructor, &mut DecodeScratch::new()).unwrap_err(),
            FecError::NotEnoughShards { .. }
        ));
    }

    #[test]
    fn nothing_missing_returns_empty() {
        let data = payloads(&[10, 20, 30, 40]);
        let mut reconstructor = BlockReconstructor::new(&codec_6_4());
        for (slot, payload) in data.iter().enumerate() {
            reconstructor.add_source(slot, payload).unwrap();
        }
        assert!(reconstructor.is_decodable());
        assert!(recover(&reconstructor, &mut DecodeScratch::new()).unwrap().is_empty());
    }
    #[test]
    fn invalid_indices_rejected() {
        let mut reconstructor = BlockReconstructor::new(&codec_6_4());
        assert_eq!(
            reconstructor.add_source(4, [1]).unwrap_err(),
            FecError::InvalidShardIndex(4)
        );
        assert_eq!(
            reconstructor.add_parity(2, 1, [1]).unwrap_err(),
            FecError::InvalidShardIndex(6)
        );
    }

    #[test]
    fn conflicting_parity_lengths_rejected() {
        let mut reconstructor = BlockReconstructor::new(&codec_6_4());
        reconstructor.add_parity(0, 10, vec![0u8; 10]).unwrap();
        assert_eq!(
            reconstructor.add_parity(1, 12, vec![0u8; 12]).unwrap_err(),
            FecError::UnequalShardLengths
        );
        // A duplicate is checked too before it is ignored.
        assert_eq!(
            reconstructor.add_parity(0, 12, vec![0u8; 12]).unwrap_err(),
            FecError::UnequalShardLengths
        );
        // Checking alone records nothing.
        reconstructor.check_parity(1, 10).unwrap();
        assert_eq!(reconstructor.check_parity(1, 12).unwrap_err(), FecError::UnequalShardLengths);
        assert_eq!(reconstructor.check_parity(2, 10).unwrap_err(), FecError::InvalidShardIndex(6));
        assert_eq!(reconstructor.shards_available(), 1);
    }

    #[test]
    fn duplicate_deliveries_are_ignored() {
        let data = payloads(&[16, 16, 16, 16]);
        let mut reconstructor = BlockReconstructor::new(&codec_6_4());
        reconstructor.add_source(0, &data[0]).unwrap();
        reconstructor.add_source(0, &data[1]).unwrap(); // ignored duplicate
        assert_eq!(reconstructor.shards_available(), 1);
        assert_eq!(reconstructor.missing_slots().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn empty_payloads_survive_the_round_trip() {
        let data = vec![vec![], vec![1, 2, 3], vec![], vec![9]];
        let block = push_all(&mut BlockAssembler::new(codec_6_4()), &data).unwrap();
        let mut reconstructor = BlockReconstructor::new(&codec_6_4());
        reconstructor.add_source(1, &data[1]).unwrap();
        reconstructor.add_source(3, &data[3]).unwrap();
        reconstructor.add_parity(0, block.shard_len, &block.parities[0]).unwrap();
        reconstructor.add_parity(1, block.shard_len, &block.parities[1]).unwrap();
        let recovered = recover(&reconstructor, &mut DecodeScratch::new()).unwrap();
        assert_eq!(recovered, vec![(0, data[0].clone()), (2, data[2].clone())]);
    }

    #[test]
    fn recover_with_reused_dirty_scratch_matches_recover() {
        // Byte-parity regression for the scratch arena: a scratch and a
        // reconstructor left dirty by a previous block (different shard
        // length, stale bytes, other missing slots) must produce exactly
        // the same recovery as a fresh scratch.
        let codec = codec_6_4();
        let mut scratch = DecodeScratch::new();
        let mut reconstructor = BlockReconstructor::new(&codec);
        for (block_index, (lens, kept)) in [
            ([300usize, 7, 41, 128], [0usize, 2]),
            ([9, 9, 9, 9], [1, 2]),
            ([1, 500, 0, 33], [0, 3]),
        ]
        .iter()
        .enumerate()
        {
            let data = payloads(lens);
            let block = push_all(&mut BlockAssembler::new(codec.clone()), &data).unwrap();

            reconstructor.clear();
            for &slot in kept {
                reconstructor.add_source(slot, data[slot].clone()).unwrap();
            }
            for (index, parity) in block.parities.into_iter().enumerate() {
                reconstructor.add_parity(index, block.shard_len, parity).unwrap();
            }

            let fresh = recover(&reconstructor, &mut DecodeScratch::new()).unwrap();
            let reused = recover(&reconstructor, &mut scratch).unwrap();
            assert_eq!(fresh, reused, "block {block_index}");
            assert_eq!(reused.len(), 2);
            for (slot, recovered) in &reused {
                assert!(!kept.contains(slot));
                assert_eq!(recovered, &data[*slot]);
            }
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
        push_all(&mut assembler, &first).unwrap();
        let block = push_all(&mut assembler, &second).unwrap();
        assert_eq!(block.shard_len, 10); // max payload 8 + 2-byte prefix

        // Compare against a fresh assembler fed only the second batch.
        let expected = push_all(&mut BlockAssembler::new(codec_6_4()), &second).unwrap();
        assert_eq!(block.parities, expected.parities);
    }

    #[test]
    fn payloads_written_in_place_frame_like_pushed_ones() {
        // `push_with` + `parity_into` (behind a header, as the encoder
        // filter uses them) against the codec's own `encode` of the framed
        // payloads, over two blocks so reused slots are covered, then a
        // flushed partial block padded with empty payloads.
        let reference = |payloads: &[&[u8]]| -> Vec<Vec<u8>> {
            let shard_len = 2 + payloads.iter().map(|payload| payload.len()).max().unwrap();
            let framed: Vec<Vec<u8>> =
                payloads.iter().map(|payload| frame_payload(payload, shard_len)).collect();
            let shards: Vec<&[u8]> = framed.iter().map(Vec::as_slice).collect();
            codec_6_4().encode(&shards).unwrap()
        };
        let mut assembler = BlockAssembler::new(codec_6_4());
        let data = payloads(&[300, 7, 41, 128, 9, 0, 64, 2]);
        for (index, payload) in data.iter().enumerate() {
            let block = push(&mut assembler, payload).unwrap();
            assert_eq!(block.is_some(), index % 4 == 3);
            if let Some(block) = block {
                let sources: Vec<&[u8]> = data[index - 3..=index].iter().map(Vec::as_slice).collect();
                assert_eq!(block.occupied, 4);
                assert_eq!(block.parities, reference(&sources));
            }
        }
        assert_eq!(assembler.blocks_emitted(), 2);

        let tail = payloads(&[50]);
        push(&mut assembler, &tail[0]).unwrap();
        let block = read(&assembler.flush_framed().expect("partial block"));
        assert_eq!(block.occupied, 1);
        assert_eq!(block.shard_len, 52);
        assert_eq!(block.parities, reference(&[&tail[0], &[], &[], &[]]));
        assert!(assembler.flush_framed().is_none());
    }

    /// `payload` framed and padded to `shard_len`.
    fn frame_payload(payload: &[u8], shard_len: usize) -> Vec<u8> {
        let mut shard = vec![0xEE; 3];
        frame_with(&mut shard, |shard| shard.extend_from_slice(payload)).unwrap();
        shard.resize(shard_len, 0);
        shard
    }

    #[test]
    fn frame_and_unframe_round_trip() {
        let payload = vec![1u8, 2, 3, 4, 5];
        let shard = frame_payload(&payload, 12);
        assert_eq!(shard.len(), 12);
        assert_eq!(&shard[..2], &[0, 5]);
        assert_eq!(unframe(&shard).unwrap(), &payload[..]);
        assert_eq!(unframe(&frame_payload(&[], 2)).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn unframe_rejects_bad_length_prefix() {
        let mut shard = frame_payload(&[1, 2, 3], 8);
        shard[0] = 0xFF;
        shard[1] = 0xFF;
        assert_eq!(unframe(&shard).unwrap_err(), FecError::CorruptPayload);
        assert_eq!(unframe(&[1]).unwrap_err(), FecError::CorruptPayload);
    }
}
