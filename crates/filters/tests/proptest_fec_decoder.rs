//! Differential test of the FEC decoder filter: a self-contained reference
//! model of the decoding rules — written against nothing but
//! [`FecCodec::decode`] and [`Packet`] — runs beside [`FecDecoderFilter`]
//! on encoded streams that lose, reorder and duplicate frames.  Both must
//! emit the same packets, in the same order, with the same bytes, and agree
//! on all five counters.
//!
//! The model's rules:
//!
//! * a source packet is forwarded at once, unless its sequence number was
//!   already re-injected (then it is suppressed and counted); otherwise it
//!   is remembered (the last `64·k` distinct sources) and handed to the open
//!   block it belongs to, if any;
//! * a parity packet opens its block (keyed by the first sequence number
//!   in its payload's 8-byte header) if needed, attaches every remembered
//!   source of that block, then its own shard;
//! * a block whose missing sources can be decoded (`k` shards present) is
//!   decoded; each recovered, non-empty payload is a framed packet that is
//!   re-injected unless its sequence number already was;
//! * at most 64 blocks stay open: the oldest is closed first, and counted
//!   unrecoverable if it still misses a source and was never decoded;
//! * a flush closes every open block by the same rule and emits nothing.

use std::collections::{BTreeMap, HashSet, VecDeque};

use proptest::prelude::*;
use rapidware_fec::FecCodec;
use rapidware_filters::{FecDecoderFilter, FecEncoderFilter, Filter};
use rapidware_packet::{FrameType, Packet, PacketKind, SeqNo, StreamId};

/// The (n, k) shapes the property covers.
const SHAPES: [(usize, usize); 3] = [(6, 4), (8, 6), (3, 2)];

const MAX_OPEN_BLOCKS: usize = 64;

/// The reference decoder's counters, in `FecDecoderStats` order.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counters {
    sources_seen: u64,
    parities_seen: u64,
    recovered: u64,
    unrecoverable_blocks: u64,
    duplicate_suppressed: u64,
}

/// One block's shards as the model holds them: each received source as its
/// wire image, each parity shard as received.
struct ModelBlock {
    sources: Vec<Option<Vec<u8>>>,
    parities: Vec<Option<Vec<u8>>>,
    shard_len: Option<usize>,
    decoded: bool,
}

impl ModelBlock {
    fn missing(&self) -> Vec<usize> {
        (0..self.sources.len())
            .filter(|&slot| self.sources[slot].is_none())
            .collect()
    }

    fn shards(&self) -> usize {
        self.sources.iter().flatten().count() + self.parities.iter().flatten().count()
    }
}

struct Model {
    codec: FecCodec,
    history: usize,
    recent: BTreeMap<u64, Packet>,
    recent_order: VecDeque<u64>,
    blocks: BTreeMap<u64, ModelBlock>,
    recovered_seqs: HashSet<u64>,
    forward_parity: bool,
    counters: Counters,
}

impl Model {
    fn new(n: usize, k: usize, forward_parity: bool) -> Self {
        Self {
            codec: FecCodec::new(n, k).unwrap(),
            history: 64 * k,
            recent: BTreeMap::new(),
            recent_order: VecDeque::new(),
            blocks: BTreeMap::new(),
            recovered_seqs: HashSet::new(),
            forward_parity,
            counters: Counters::default(),
        }
    }

    fn process(&mut self, packet: Packet, out: &mut Vec<Packet>) {
        let k = self.codec.k();
        match packet.kind() {
            PacketKind::Parity { index, .. } => {
                self.counters.parities_seen += 1;
                let payload = packet.payload();
                let first_seq = u64::from_be_bytes(payload[..8].try_into().unwrap());
                let parity_index = usize::from(index).saturating_sub(k);
                let block = self.blocks.entry(first_seq).or_insert_with(|| ModelBlock {
                    sources: vec![None; k],
                    parities: vec![None; self.codec.parity_count()],
                    shard_len: None,
                    decoded: false,
                });
                for slot in 0..k {
                    if let Some(source) = self.recent.get(&(first_seq + slot as u64)) {
                        block.sources[slot].get_or_insert_with(|| source.encode().to_vec());
                    }
                }
                let shard = &payload[8..];
                assert_eq!(*block.shard_len.get_or_insert(shard.len()), shard.len());
                block.parities[parity_index].get_or_insert_with(|| shard.to_vec());
                self.try_decode(first_seq, out);
                if self.forward_parity {
                    out.push(packet);
                }
                while self.blocks.len() > MAX_OPEN_BLOCKS {
                    self.close_oldest();
                }
                if self.recovered_seqs.len() > 4 * self.history {
                    let horizon = self.recent_order.front().copied().unwrap_or(0);
                    self.recovered_seqs.retain(|&seq| seq >= horizon);
                }
            }
            kind if kind.is_payload() => {
                self.counters.sources_seen += 1;
                let seq = packet.seq().value();
                if self.recovered_seqs.contains(&seq) {
                    self.counters.duplicate_suppressed += 1;
                    return;
                }
                if self.recent.insert(seq, packet.clone()).is_none() {
                    self.recent_order.push_back(seq);
                    if self.recent_order.len() > self.history {
                        let old = self.recent_order.pop_front().unwrap();
                        self.recent.remove(&old);
                    }
                }
                let block = self
                    .blocks
                    .range(..=seq)
                    .next_back()
                    .map(|(&first, _)| first)
                    .filter(|&first| seq < first + k as u64);
                if let Some(first) = block {
                    let slot = (seq - first) as usize;
                    let sources = &mut self.blocks.get_mut(&first).unwrap().sources;
                    sources[slot].get_or_insert_with(|| packet.encode().to_vec());
                    self.try_decode(first, out);
                }
                out.push(packet);
            }
            _ => out.push(packet),
        }
    }

    /// Decodes block `first_seq` if it misses sources and holds `k` shards.
    fn try_decode(&mut self, first_seq: u64, out: &mut Vec<Packet>) {
        let block = self.blocks.get_mut(&first_seq).unwrap();
        let missing = block.missing();
        let Some(shard_len) = block.shard_len else {
            return;
        };
        if missing.is_empty() || block.shards() < self.codec.k() {
            return;
        }
        // `[length: u16][wire image][zero padding]`, cut to the shard.
        let framed: Vec<(usize, Vec<u8>)> = block
            .sources
            .iter()
            .enumerate()
            .filter_map(|(slot, wire)| {
                let wire = wire.as_ref()?;
                let mut shard = (wire.len() as u16).to_be_bytes().to_vec();
                shard.extend_from_slice(wire);
                shard.resize(shard_len, 0);
                Some((slot, shard))
            })
            .collect();
        let parities = block
            .parities
            .iter()
            .enumerate()
            .filter_map(|(index, parity)| Some((self.codec.k() + index, parity.as_deref()?)));
        let available: Vec<(usize, &[u8])> = framed
            .iter()
            .map(|(slot, shard)| (*slot, shard.as_slice()))
            .chain(parities)
            .collect();
        let decoded = self.codec.decode(&available, shard_len).unwrap();
        for slot in missing {
            let shard = &decoded[slot];
            let len = usize::from(u16::from_be_bytes([shard[0], shard[1]]));
            let wire = &shard[2..2 + len];
            if wire.is_empty() {
                continue; // a flush-padded slot
            }
            let packet = Packet::decode(wire).unwrap();
            assert_eq!(packet.seq().value(), first_seq + slot as u64);
            if self.recovered_seqs.insert(packet.seq().value()) {
                self.counters.recovered += 1;
                out.push(packet);
            }
        }
        block.decoded = true;
    }

    fn close_oldest(&mut self) {
        let (_, oldest) = self.blocks.pop_first().unwrap();
        if !oldest.decoded && !oldest.missing().is_empty() {
            self.counters.unrecoverable_blocks += 1;
        }
    }

    /// End of stream: every open block closes.
    fn flush(&mut self) {
        while !self.blocks.is_empty() {
            self.close_oldest();
        }
    }
}

/// A small deterministic generator for the per-case stream shape.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn percent(&mut self, chance: u64) -> bool {
        self.below(100) < chance
    }
}

/// `count` payload packets from `first_seq` through an (n, k) encoder,
/// flushed so a partial tail block is padded and protected.
fn encoded_stream(n: usize, k: usize, first_seq: u64, count: usize, rng: &mut Lcg) -> Vec<Packet> {
    let mut encoder = FecEncoderFilter::new(n, k).unwrap();
    let mut wire = Vec::new();
    for seq in first_seq..first_seq + count as u64 {
        let kind = match rng.below(3) {
            0 => PacketKind::AudioData,
            1 => PacketKind::Data,
            _ => PacketKind::VideoFrame {
                frame: FrameType::P,
                boundary: rng.below(2) == 0,
            },
        };
        let len = rng.below(301) as usize;
        let payload: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        let packet =
            Packet::with_timestamp(StreamId::new(9), SeqNo::new(seq), kind, seq * 20, payload);
        encoder.process(packet, &mut wire).unwrap();
    }
    encoder.flush(&mut wire).unwrap();
    wire
}

/// Loses, duplicates and locally reorders the wire frames.
fn impair(wire: Vec<Packet>, rng: &mut Lcg) -> Vec<Packet> {
    let loss = rng.below(40);
    let duplicates = rng.below(15);
    let window = 1 + rng.below(8) as usize;
    let mut frames = Vec::with_capacity(wire.len());
    for packet in wire {
        if rng.percent(loss) {
            continue;
        }
        if rng.percent(duplicates) {
            frames.push(packet.clone());
        }
        frames.push(packet);
    }
    for run in frames.chunks_mut(window) {
        for at in (1..run.len()).rev() {
            run.swap(at, rng.below(at as u64 + 1) as usize);
        }
    }
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The filter and the reference model emit the same packets, in the
    /// same order, and report the same counters, however the frames are
    /// lost, reordered, duplicated or batched.
    #[test]
    fn decoder_matches_reference_model(
        shape in 0usize..SHAPES.len(),
        sources in 1usize..700,
        seed in any::<u64>(),
        forward_parity in any::<bool>(),
    ) {
        let (n, k) = SHAPES[shape];
        let mut rng = Lcg(seed | 1);
        let first_seq = rng.below(1_000);
        let frames = impair(encoded_stream(n, k, first_seq, sources, &mut rng), &mut rng);

        let mut decoder = FecDecoderFilter::new(n, k).unwrap();
        if forward_parity {
            decoder = decoder.forwarding_parity();
        }
        let stats = decoder.stats();
        let mut model = Model::new(n, k, forward_parity);

        let mut emitted = Vec::new();
        let mut expected = Vec::new();
        for packet in &frames {
            decoder.process(packet.clone(), &mut emitted).unwrap();
            model.process(packet.clone(), &mut expected);
            prop_assert_eq!(emitted.len(), expected.len());
        }
        let before_flush = emitted.len();
        decoder.flush(&mut emitted).unwrap();
        model.flush();
        prop_assert_eq!(emitted.len(), before_flush, "flush emits nothing");

        prop_assert_eq!(&emitted, &expected);
        let wire = |packets: &[Packet]| packets.iter().map(Packet::encode).collect::<Vec<_>>();
        prop_assert_eq!(wire(&emitted), wire(&expected));
        let counters = Counters {
            sources_seen: stats.sources_seen(),
            parities_seen: stats.parities_seen(),
            recovered: stats.recovered(),
            unrecoverable_blocks: stats.unrecoverable_blocks(),
            duplicate_suppressed: stats.duplicate_suppressed(),
        };
        prop_assert_eq!(counters, model.counters);
    }
}
