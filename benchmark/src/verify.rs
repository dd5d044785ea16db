//! The output verifier.  Cheap checks run inline on every delivery (CRC,
//! known stream, exactly once per source and lane, sending order, and the
//! payload itself where it arrives as plaintext); the heavy checks — undo
//! the lane's compression or sealing, force an FEC repair — run after the
//! timed phase on the frames recorded from the head of it.

use std::collections::BTreeMap;

use rapidware::filters::{DecompressorFilter, DecryptFilter, FecDecoderFilter, Filter};
use rapidware::packet::{Packet, PacketKind};

use crate::workload::{LaneCodec, Workload, AEAD_KEY, FEC_K, FEC_N};

/// A phase can offer at most this many sources; a (forged) sequence number
/// past it is rejected before it can size an allocation.
const MAX_PHASE_SOURCES: u64 = 1 << 26;

/// Why deliveries were rejected.  Any non-zero field fails the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Violations {
    /// Frames `Packet::decode` refused (CRC, length, kind).
    pub undecodable: u64,
    /// Stream id or sequence number the workload never sent.
    pub unknown: u64,
    /// Second delivery of a source on the same lane.
    pub duplicate: u64,
    /// Source delivered after a later one on an order-preserving lane.
    pub reordered: u64,
    /// Payload differs from what was sent.
    pub mismatch: u64,
}

impl Violations {
    /// Sum of all rejections.
    pub fn total(&self) -> u64 {
        self.undecodable + self.unknown + self.duplicate + self.reordered + self.mismatch
    }
}

/// What one delivery meant for its source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The source has now arrived on every lane; `rel` is its index within
    /// the phase.
    Complete {
        /// Source index relative to the phase's first source.
        rel: u64,
    },
    /// Accepted, but other lanes still owe this source.
    Partial,
    /// Parity, control, stale or rejected: not a delivery.
    Ignored,
}

/// Inline verifier for one phase.
pub struct Tracker<'a> {
    workload: &'a Workload,
    /// First source index of the phase.
    base: u64,
    full_mask: u8,
    /// Per source (relative to `base`), one bit per lane that delivered it.
    masks: Vec<u8>,
    last_seq: Vec<Option<u64>>,
    /// Sources accepted per lane.
    pub lane_sources: Vec<u64>,
    sample_sources: u64,
    /// Sources delivered on every lane.
    pub delivered: u64,
    /// Parity packets seen (any lane).
    pub parities: u64,
    /// Deliveries of sources older than `base`: stragglers of an earlier
    /// phase, already counted lost there.
    pub stale: u64,
    /// Rejections so far.
    pub violations: Violations,
    /// Per lane: every packet up to and including the parities of the
    /// `sample_sources`-th source, for the heavy checks.
    pub samples: Vec<Vec<Packet>>,
}

impl<'a> Tracker<'a> {
    /// A tracker for the phase whose first source is `base`, recording the
    /// first `sample_sources` sources of every non-plaintext lane.
    pub fn new(workload: &'a Workload, base: u64, sample_sources: u64) -> Self {
        let lanes = workload.lanes.len();
        Self {
            workload,
            base,
            full_mask: ((1u16 << lanes) - 1) as u8,
            masks: Vec::new(),
            last_seq: vec![None; lanes],
            lane_sources: vec![0; lanes],
            sample_sources,
            delivered: 0,
            parities: 0,
            stale: 0,
            violations: Violations::default(),
            samples: vec![Vec::new(); lanes],
        }
    }

    /// A wire frame read from lane `lane`'s peer socket.
    pub fn on_frame(&mut self, lane: usize, frame: &[u8]) -> Delivery {
        match Packet::decode(frame) {
            Ok(packet) => self.on_packet(lane, packet),
            Err(_) => {
                self.violations.undecodable += 1;
                Delivery::Ignored
            }
        }
    }

    /// A packet delivered on lane `lane`.
    pub fn on_packet(&mut self, lane: usize, packet: Packet) -> Delivery {
        let codec = self.workload.lanes[lane].codec;
        match packet.kind() {
            PacketKind::Parity { .. } => {
                self.parities += 1;
                // Parities follow the last source of their block, so "up to
                // the sample's last source" keeps whole blocks.
                if (1..=self.sample_sources).contains(&self.lane_sources[lane]) {
                    self.samples[lane].push(packet);
                }
                return Delivery::Ignored;
            }
            // FINs and markers are transport plumbing, not deliveries.
            PacketKind::Control => return Delivery::Ignored,
            _ => {}
        }
        let Some(g) = self.workload.index_of(packet.stream(), packet.seq()) else {
            self.violations.unknown += 1;
            return Delivery::Ignored;
        };
        if g < self.base {
            self.stale += 1;
            return Delivery::Ignored;
        }
        let rel = g - self.base;
        if rel >= MAX_PHASE_SOURCES {
            self.violations.unknown += 1;
            return Delivery::Ignored;
        }
        let index = rel as usize;
        if index >= self.masks.len() {
            self.masks.resize(index + 1, 0);
        }
        let bit = 1u8 << lane;
        if self.masks[index] & bit != 0 {
            self.violations.duplicate += 1;
            return Delivery::Ignored;
        }
        if matches!(codec, LaneCodec::Plain | LaneCodec::Fec)
            && !self.workload.payload_matches(g, packet.payload())
        {
            self.violations.mismatch += 1;
            return Delivery::Ignored;
        }
        if self.workload.ordered {
            let seq = packet.seq().value();
            if self.last_seq[lane].is_some_and(|last| last >= seq) {
                self.violations.reordered += 1;
            }
            self.last_seq[lane] = Some(seq);
        }
        self.masks[index] |= bit;
        self.lane_sources[lane] += 1;
        if codec != LaneCodec::Plain && self.lane_sources[lane] <= self.sample_sources {
            self.samples[lane].push(packet);
        }
        if self.masks[index] == self.full_mask {
            self.delivered += 1;
            Delivery::Complete { rel }
        } else {
            Delivery::Partial
        }
    }
}

/// Outcome of the heavy checks on one lane's recorded sample.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleVerdict {
    /// Sources (or forced repairs) checked.
    pub checked: u64,
    /// Of those, how many came back wrong or not at all.
    pub failed: u64,
}

fn run_filter(filter: &mut dyn Filter, packets: Vec<Packet>) -> Vec<Packet> {
    let mut out: Vec<Packet> = Vec::with_capacity(packets.len());
    // A filter error drops the offending packet; the comparison below then
    // counts it as missing.
    for packet in packets {
        let _ = filter.process(packet, &mut out);
    }
    out
}

/// Checks every source of `packets` against what was sent.
fn check_sources(workload: &Workload, packets: &[Packet], verdict: &mut SampleVerdict) {
    for packet in packets.iter().filter(|packet| packet.kind().is_payload()) {
        verdict.checked += 1;
        let matches = workload
            .index_of(packet.stream(), packet.seq())
            .is_some_and(|g| workload.payload_matches(g, packet.payload()));
        if !matches {
            verdict.failed += 1;
        }
    }
}

/// For every block the sample holds completely, withholds one source and
/// requires the repo's own decoder to rebuild it from the parities the
/// proxy emitted.
fn check_repairs(workload: &Workload, packets: &[Packet], verdict: &mut SampleVerdict) {
    let mut sources: BTreeMap<u64, &Packet> = BTreeMap::new();
    let mut parities: BTreeMap<u64, Vec<&Packet>> = BTreeMap::new();
    for packet in packets {
        if packet.kind().is_parity() {
            if let Some(first) = packet.payload().get(..8) {
                let first = u64::from_be_bytes(first.try_into().expect("8-byte slice"));
                parities.entry(first).or_default().push(packet);
            }
        } else {
            sources.insert(packet.seq().value(), packet);
        }
    }
    let mut decoder = FecDecoderFilter::new(FEC_N, FEC_K).expect("(6,4) is a valid code");
    for (first, block_parities) in parities {
        let block: Option<Vec<&Packet>> = (0..FEC_K as u64)
            .map(|slot| sources.get(&(first + slot)).copied())
            .collect();
        let (Some(block), true) = (block, block_parities.len() == FEC_N - FEC_K) else {
            // A loss upstream of the encoder left this block short or not
            // contiguous; those sources are already counted lost.
            continue;
        };
        let withheld = (first / FEC_K as u64) as usize % FEC_K;
        let fed: Vec<Packet> = block
            .iter()
            .enumerate()
            .filter(|(slot, _)| *slot != withheld)
            .map(|(_, packet)| (*packet).clone())
            .chain(block_parities.into_iter().cloned())
            .collect();
        let rebuilt = run_filter(&mut decoder, fed);
        verdict.checked += 1;
        let wanted = block[withheld];
        let repaired = rebuilt.iter().any(|packet| {
            packet.seq() == wanted.seq()
                && workload
                    .index_of(packet.stream(), packet.seq())
                    .is_some_and(|g| workload.payload_matches(g, packet.payload()))
        });
        if !repaired {
            verdict.failed += 1;
        }
    }
}

/// Undoes a lane's codec with the repo's inverse `filter` and checks every
/// source that comes back.  A packet the filter refuses (bad tag, bad run)
/// comes back missing: one in, one out is part of the check.
fn undo(
    workload: &Workload,
    filter: &mut dyn Filter,
    packets: Vec<Packet>,
    verdict: &mut SampleVerdict,
) -> Vec<Packet> {
    let recorded = packets.len() as u64;
    let plain = run_filter(filter, packets);
    verdict.failed += recorded - plain.len() as u64;
    check_sources(workload, &plain, verdict);
    plain
}

/// Runs the heavy checks for a lane with codec `codec` on its recorded
/// `packets`.  A non-plaintext lane whose sample yields nothing to check
/// fails: an unverified lane must not pass silently.
pub fn verify_sample(workload: &Workload, codec: LaneCodec, packets: Vec<Packet>) -> SampleVerdict {
    let mut verdict = SampleVerdict::default();
    match codec {
        LaneCodec::Plain => return verdict,
        LaneCodec::Compressed => {
            undo(
                workload,
                &mut DecompressorFilter::new(),
                packets,
                &mut verdict,
            );
        }
        LaneCodec::Sealed => {
            undo(
                workload,
                &mut DecryptFilter::new(AEAD_KEY),
                packets,
                &mut verdict,
            );
        }
        LaneCodec::Fec => check_repairs(workload, &packets, &mut verdict),
        LaneCodec::SealedFec => {
            let opened = undo(
                workload,
                &mut DecryptFilter::new(AEAD_KEY),
                packets,
                &mut verdict,
            );
            check_repairs(workload, &opened, &mut verdict);
        }
    }
    if verdict.checked == 0 {
        verdict.failed += 1;
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidware::filters::{CompressorFilter, EncryptFilter, FecEncoderFilter};

    fn relay() -> Workload {
        Workload::build("relay-small", 5).unwrap()
    }

    fn frame(workload: &Workload, g: u64) -> Vec<u8> {
        workload.source_packet(g).encode().to_vec()
    }

    #[test]
    fn in_order_exactly_once_delivery_passes() {
        let workload = relay();
        let mut tracker = Tracker::new(&workload, 256, 0);
        for g in 256..300 {
            let delivery = tracker.on_frame(0, &frame(&workload, g));
            assert_eq!(delivery, Delivery::Complete { rel: g - 256 });
        }
        assert_eq!(tracker.delivered, 44);
        assert_eq!(tracker.violations.total(), 0);
    }

    #[test]
    fn tampered_frame_fails_the_crc_and_is_not_a_delivery() {
        let workload = relay();
        let mut tracker = Tracker::new(&workload, 0, 0);
        let mut bytes = frame(&workload, 0);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert_eq!(tracker.on_frame(0, &bytes), Delivery::Ignored);
        assert_eq!(tracker.violations.undecodable, 1);
        assert_eq!(tracker.delivered, 0);
    }

    #[test]
    fn payload_of_another_source_under_a_valid_crc_is_a_mismatch() {
        let workload = relay();
        let mut tracker = Tracker::new(&workload, 0, 0);
        let forged = workload.source_packet(3).with_payload(workload.payload(4));
        assert_eq!(tracker.on_frame(0, &forged.encode()), Delivery::Ignored);
        assert_eq!(tracker.violations.mismatch, 1);
    }

    #[test]
    fn duplicate_is_rejected_and_counted_once() {
        let workload = relay();
        let mut tracker = Tracker::new(&workload, 0, 0);
        assert_eq!(
            tracker.on_frame(0, &frame(&workload, 0)),
            Delivery::Complete { rel: 0 }
        );
        assert_eq!(tracker.on_frame(0, &frame(&workload, 0)), Delivery::Ignored);
        assert_eq!(tracker.violations.duplicate, 1);
        assert_eq!(tracker.delivered, 1);
    }

    #[test]
    fn gap_shows_as_a_shortfall_and_a_late_filler_as_reordering() {
        let workload = relay();
        let mut tracker = Tracker::new(&workload, 0, 0);
        for g in [0, 1, 3, 4] {
            tracker.on_frame(0, &frame(&workload, g));
        }
        // Source 2 never arrived: 4 of 5 delivered, no violation by itself.
        assert_eq!(tracker.delivered, 4);
        assert_eq!(tracker.violations.total(), 0);
        // Arriving after 4 breaks the lane's order.
        tracker.on_frame(0, &frame(&workload, 2));
        assert_eq!(tracker.violations.reordered, 1);
    }

    #[test]
    fn unknown_stream_stale_source_and_absurd_sequence_are_not_deliveries() {
        let workload = relay();
        let mut tracker = Tracker::new(&workload, 256, 0);
        let alien = Packet::new(
            rapidware::packet::StreamId::new(9),
            rapidware::packet::SeqNo::new(300),
            PacketKind::AudioData,
            workload.payload(300),
        );
        assert_eq!(tracker.on_packet(0, alien), Delivery::Ignored);
        assert_eq!(tracker.violations.unknown, 1);
        assert_eq!(
            tracker.on_frame(0, &frame(&workload, 10)),
            Delivery::Ignored
        );
        assert_eq!(tracker.stale, 1);
        assert_eq!(
            tracker.on_frame(0, &frame(&workload, 1 << 40)),
            Delivery::Ignored
        );
        assert_eq!(tracker.violations.unknown, 2);
    }

    #[test]
    fn fanout_source_completes_only_when_every_lane_delivered_it() {
        let workload = Workload::build("fanout-mixed", 5).unwrap();
        let mut tracker = Tracker::new(&workload, 0, 0);
        let packet = workload.source_packet(0);
        for lane in 0..3 {
            assert_eq!(tracker.on_packet(lane, packet.clone()), Delivery::Partial);
        }
        assert_eq!(tracker.on_packet(3, packet), Delivery::Complete { rel: 0 });
    }

    #[test]
    fn mux_accepts_a_repaired_source_after_later_ones() {
        let workload = Workload::build("mux-fec-repair", 5).unwrap();
        let mut tracker = Tracker::new(&workload, 0, 0);
        for g in [0, 128, 64] {
            tracker.on_packet(0, workload.source_packet(g));
        }
        assert_eq!(tracker.delivered, 3);
        assert_eq!(tracker.violations.total(), 0);
    }

    /// What the proxy's lane chain would emit for sources `0..count`.
    fn lane_output(workload: &Workload, filters: Vec<Box<dyn Filter>>, count: u64) -> Vec<Packet> {
        let mut packets: Vec<Packet> = (0..count).map(|g| workload.source_packet(g)).collect();
        for mut filter in filters {
            packets = run_filter(filter.as_mut(), packets);
        }
        packets
    }

    #[test]
    fn heavy_checks_pass_on_honest_lanes_and_catch_a_corrupted_one() {
        let fanout = Workload::build("fanout-mixed", 5).unwrap();
        let pipe = Workload::build("pipe-secure-fec", 5).unwrap();
        let encoder = || Box::new(FecEncoderFilter::new(FEC_N, FEC_K).unwrap()) as Box<dyn Filter>;
        let compressed = lane_output(&fanout, vec![Box::new(CompressorFilter::new())], 32);
        let sealed = lane_output(&fanout, vec![Box::new(EncryptFilter::new(AEAD_KEY))], 32);
        let coded = lane_output(&fanout, vec![encoder()], 32);
        let sealed_coded = lane_output(
            &pipe,
            vec![encoder(), Box::new(EncryptFilter::new(AEAD_KEY))],
            32,
        );

        let ok = |verdict: SampleVerdict, checked| {
            assert_eq!(verdict, SampleVerdict { checked, failed: 0 });
        };
        ok(
            verify_sample(&fanout, LaneCodec::Compressed, compressed.clone()),
            32,
        );
        ok(
            verify_sample(&fanout, LaneCodec::Sealed, sealed.clone()),
            32,
        );
        ok(verify_sample(&fanout, LaneCodec::Fec, coded.clone()), 8);
        ok(
            verify_sample(&pipe, LaneCodec::SealedFec, sealed_coded.clone()),
            32 + 8,
        );

        // A flipped ciphertext byte: the AEAD drops the packet.
        let mut bad = sealed;
        bad[5].payload_mut()[9] ^= 1;
        let verdict = verify_sample(&fanout, LaneCodec::Sealed, bad);
        assert_eq!(
            verdict,
            SampleVerdict {
                checked: 31,
                failed: 1
            }
        );
        // A wrong byte inside a run: decompresses, but to the wrong payload.
        let mut bad = compressed;
        let last = bad[5].payload_len() - 1;
        bad[5].payload_mut()[last] ^= 1;
        assert_eq!(verify_sample(&fanout, LaneCodec::Compressed, bad).failed, 1);
        // A corrupted parity shard: the forced repair rebuilds garbage.
        let mut bad = coded;
        let parity = bad
            .iter()
            .position(|packet| packet.kind().is_parity())
            .unwrap();
        bad[parity].payload_mut()[60] ^= 1;
        assert!(verify_sample(&fanout, LaneCodec::Fec, bad).failed >= 1);
        // Nothing recorded on a lane that needs the heavy check.
        assert_eq!(verify_sample(&fanout, LaneCodec::Fec, Vec::new()).failed, 1);
    }
}
