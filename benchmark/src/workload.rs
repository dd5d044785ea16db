//! The four workloads: what each sends, through which proxy shape, and the
//! pure functions that map a source index to its stream, sequence number
//! and expected payload.  Everything here is derived from the seed; the
//! proxy sees only the generated packets.

use rapidware::packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware::proxy::FilterSpec;

/// FEC geometry every workload uses: 4 sources + 2 parities per block.
pub const FEC_N: usize = 6;
/// See [`FEC_N`].
pub const FEC_K: usize = 4;
/// Key of the encrypt/decrypt pair.
pub const AEAD_KEY: u64 = 0x5EED;
/// Distinct payload bodies; source `g` carries body `g % BODIES`.
const BODIES: usize = 1024;
/// Streams of `mux-fec-repair`.
const MUX_STREAMS: u32 = 64;
/// `mux-fec-repair` removes every fifth wire frame of each stream.
const MUX_DROP_EVERY: u64 = 5;

/// Which proxy shape a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One shared-carrier stream, empty chain, one egress peer.
    Relay,
    /// One pooled stream, pipes in and out, `fec-encoder` → `encrypt`.
    PipeSecureFec,
    /// One shared-carrier session, four heterogeneous lanes to four peers.
    Fanout,
    /// 64 shared-carrier streams with `fec-decoder`, one egress peer.
    MuxRepair,
}

/// What the receiver must undo to get a lane's plaintext back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneCodec {
    /// Payload arrives as sent.
    Plain,
    /// Sources as sent, interleaved with parity packets.
    Fec,
    /// Run-length compressed.
    Compressed,
    /// AEAD sealed.
    Sealed,
    /// FEC-encoded, then every packet sealed.
    SealedFec,
}

/// One output of the proxy the receiver reads.
#[derive(Debug, Clone)]
pub struct Lane {
    /// Lane name (also the session lane name on `fanout-mixed`).
    pub name: &'static str,
    /// Filters the proxy runs on this lane.
    pub chain: Vec<FilterSpec>,
    /// How the receiver recovers the plaintext.
    pub codec: LaneCodec,
}

/// A workload, fully determined by its name and the seed.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Proxy shape.
    pub shape: Shape,
    /// Payload bytes per source packet (8-byte index prefix included).
    pub payload_len: usize,
    /// Frozen open-loop rate of the latency phase, in schedule slots per
    /// second (wire frames for `mux-fec-repair`, source packets otherwise).
    pub rate_pps: u64,
    /// Proxy outputs.
    pub lanes: Vec<Lane>,
    /// Whether every lane delivers sources in sending order.
    pub ordered: bool,
    bodies: Vec<Vec<u8>>,
    /// `mux-fec-repair`: position → stream id, a seeded permutation.
    stream_order: Vec<u32>,
    /// `mux-fec-repair`: stream id → position.
    stream_position: Vec<u32>,
    /// `mux-fec-repair`: which residue of the per-stream wire index is
    /// removed.
    drop_phase: u64,
}

/// Names of the workloads, in report order.
pub const NAMES: [&str; 4] = [
    "relay-small",
    "pipe-secure-fec",
    "fanout-mixed",
    "mux-fec-repair",
];

fn fec_spec(kind: &str) -> FilterSpec {
    FilterSpec::new(kind)
        .with_param("n", FEC_N.to_string())
        .with_param("k", FEC_K.to_string())
}

fn encrypt_spec() -> FilterSpec {
    FilterSpec::new("encrypt").with_param("key", AEAD_KEY.to_string())
}

/// SplitMix64: the harness's only randomness, so one seed fixes every
/// input byte.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A body of `len` bytes made of runs of 1–16 equal bytes, so the
/// run-length `compressor` has real work and a real saving.
fn run_length_body(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut body = Vec::with_capacity(len);
    while body.len() < len {
        let word = rng.next_u64();
        let run = 1 + (word & 0xF) as usize;
        let byte = (word >> 8) as u8;
        body.extend(std::iter::repeat_n(byte, run.min(len - body.len())));
    }
    body
}

impl Workload {
    /// Builds the named workload from `seed`, or `None` for an unknown
    /// name.
    pub fn build(name: &str, seed: u64) -> Option<Self> {
        let lane = |name, chain, codec| Lane { name, chain, codec };
        let (name, shape, payload_len, rate_pps, lanes, ordered) = match name {
            "relay-small" => (
                NAMES[0],
                Shape::Relay,
                64,
                10_000,
                vec![lane("out", vec![], LaneCodec::Plain)],
                true,
            ),
            "pipe-secure-fec" => (
                NAMES[1],
                Shape::PipeSecureFec,
                1024,
                20_000,
                vec![lane(
                    "out",
                    vec![fec_spec("fec-encoder"), encrypt_spec()],
                    LaneCodec::SealedFec,
                )],
                true,
            ),
            "fanout-mixed" => (
                NAMES[2],
                Shape::Fanout,
                256,
                4_000,
                vec![
                    lane("plain", vec![], LaneCodec::Plain),
                    lane("fec", vec![fec_spec("fec-encoder")], LaneCodec::Fec),
                    lane(
                        "comp",
                        vec![FilterSpec::new("compressor")],
                        LaneCodec::Compressed,
                    ),
                    lane("enc", vec![encrypt_spec()], LaneCodec::Sealed),
                ],
                true,
            ),
            "mux-fec-repair" => (
                NAMES[3],
                Shape::MuxRepair,
                160,
                10_000,
                // Repaired sources leave the decoder after later ones.
                vec![lane("out", vec![fec_spec("fec-decoder")], LaneCodec::Plain)],
                false,
            ),
            _ => return None,
        };
        let mut rng = SplitMix64::new(seed);
        let bodies = (0..BODIES)
            .map(|_| run_length_body(&mut rng, payload_len - 8))
            .collect();
        let streams = if shape == Shape::MuxRepair {
            MUX_STREAMS
        } else {
            1
        };
        // Fisher–Yates: the interleave order of the streams.
        let mut stream_order: Vec<u32> = (1..=streams).collect();
        for i in (1..stream_order.len()).rev() {
            stream_order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let mut stream_position = vec![0; streams as usize + 1];
        for (position, &stream) in stream_order.iter().enumerate() {
            stream_position[stream as usize] = position as u32;
        }
        Some(Self {
            name,
            shape,
            payload_len,
            rate_pps,
            lanes,
            ordered,
            bodies,
            stream_order,
            stream_position,
            drop_phase: rng.next_u64() % MUX_DROP_EVERY,
        })
    }

    /// Number of streams the workload spreads its sources over.
    pub fn streams(&self) -> u64 {
        self.stream_order.len() as u64
    }

    /// Stream ids in interleave order.
    pub fn stream_ids(&self) -> &[u32] {
        &self.stream_order
    }

    /// Wire frames the fullest peer socket receives per source, as a
    /// fraction: a lane with an `fec-encoder` emits `n` frames for every `k`
    /// sources.  The closed-loop window is counted in frames, so the source
    /// window shrinks by this.
    pub fn egress_frames_per_source(&self) -> (u64, u64) {
        let encodes = |lane: &Lane| lane.chain.iter().any(|spec| spec.kind == "fec-encoder");
        if self.lanes.iter().any(encodes) {
            (FEC_N as u64, FEC_K as u64)
        } else {
            (1, 1)
        }
    }

    /// Most wire frames one offered source can put on the ingress socket:
    /// the generator's own encoder on `mux-fec-repair` follows a block's
    /// last source with its parities — and, streams being interleaved, does
    /// so for 64 sources in a row.
    pub fn max_ingress_frames_per_source(&self) -> u64 {
        if self.shape == Shape::MuxRepair {
            (FEC_N - FEC_K + 1) as u64
        } else {
            1
        }
    }

    /// Stream and per-stream sequence number of source `g`: sources go
    /// round-robin over the streams in the seeded order.
    pub fn locate(&self, g: u64) -> (StreamId, SeqNo) {
        let streams = self.streams();
        let stream = self.stream_order[(g % streams) as usize];
        (StreamId::new(stream), SeqNo::new(g / streams))
    }

    /// Inverse of [`locate`](Self::locate); `None` for a stream id the
    /// workload never sends.
    pub fn index_of(&self, stream: StreamId, seq: SeqNo) -> Option<u64> {
        let stream = stream.value() as usize;
        if stream == 0 || stream >= self.stream_position.len() {
            return None;
        }
        seq.value()
            .checked_mul(self.streams())?
            .checked_add(u64::from(self.stream_position[stream]))
    }

    /// The payload source `g` must carry end to end: its 8-byte index, then
    /// the seeded body.
    pub fn payload(&self, g: u64) -> Vec<u8> {
        let body = &self.bodies[(g % BODIES as u64) as usize];
        let mut payload = Vec::with_capacity(8 + body.len());
        payload.extend_from_slice(&g.to_be_bytes());
        payload.extend_from_slice(body);
        payload
    }

    /// Whether `payload` is what source `g` was sent with.
    pub fn payload_matches(&self, g: u64, payload: &[u8]) -> bool {
        payload.len() == self.payload_len
            && payload[..8] == g.to_be_bytes()
            && payload[8..] == self.bodies[(g % BODIES as u64) as usize][..]
    }

    /// Source packet `g` as the load generator offers it.
    pub fn source_packet(&self, g: u64) -> Packet {
        let (stream, seq) = self.locate(g);
        Packet::with_timestamp(
            stream,
            seq,
            PacketKind::AudioData,
            seq.value() * 20_000,
            self.payload(g),
        )
    }

    /// Whether `mux-fec-repair`'s generator withholds wire frame `wire_index`
    /// (counted per stream, sources and parities alike) of an FEC-encoded
    /// stream.  One
    /// frame in five goes, so a (6,4) block loses at most two: always
    /// recoverable.
    pub fn withholds_wire_frame(&self, wire_index: u64) -> bool {
        (wire_index + self.drop_phase) % MUX_DROP_EVERY == MUX_DROP_EVERY - 1
    }

    /// Whether source `g` is withheld and must reach the receiver by
    /// repair.
    pub fn is_withheld(&self, g: u64) -> bool {
        let seq = g / self.streams();
        let wire_index = seq / FEC_K as u64 * FEC_N as u64 + seq % FEC_K as u64;
        self.shape == Shape::MuxRepair && self.withholds_wire_frame(wire_index)
    }

    /// How many sources start towards the peers when source `g` is offered:
    /// `g` itself unless withheld, plus — when `g` ends its FEC block and so
    /// brings the parities — the withheld sources of that block.
    pub fn released_by(&self, g: u64) -> u64 {
        let mut released = u64::from(!self.is_withheld(g));
        let (streams, k) = (self.streams(), FEC_K as u64);
        if self.shape == Shape::MuxRepair && (g / streams) % k == k - 1 {
            released += (0..k)
                .filter(|back| self.is_withheld(g - back * streams))
                .count() as u64;
        }
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for name in NAMES {
            let a = Workload::build(name, 7).unwrap();
            let b = Workload::build(name, 7).unwrap();
            let c = Workload::build(name, 8).unwrap();
            assert_eq!(a.payload(12345), b.payload(12345));
            assert_ne!(a.payload(12345), c.payload(12345));
            assert_eq!(a.stream_ids(), b.stream_ids());
            assert_eq!(a.payload(5).len(), a.payload_len);
        }
        assert!(Workload::build("nope", 1).is_none());
    }

    #[test]
    fn locate_and_index_of_are_inverse() {
        for name in NAMES {
            let workload = Workload::build(name, 3).unwrap();
            for g in [0, 1, 63, 64, 65, 1_000_003] {
                let (stream, seq) = workload.locate(g);
                assert_eq!(workload.index_of(stream, seq), Some(g));
            }
            assert_eq!(workload.index_of(StreamId::new(0), SeqNo::new(1)), None);
            assert_eq!(workload.index_of(StreamId::new(65), SeqNo::new(1)), None);
        }
    }

    #[test]
    fn payload_check_rejects_a_wrong_index_and_a_flipped_byte() {
        let workload = Workload::build("relay-small", 1).unwrap();
        let mut payload = workload.payload(9);
        assert!(workload.payload_matches(9, &payload));
        assert!(!workload.payload_matches(10, &payload));
        payload[20] ^= 1;
        assert!(!workload.payload_matches(9, &payload));
    }

    #[test]
    fn bodies_have_run_length_structure() {
        let workload = Workload::build("fanout-mixed", 1).unwrap();
        let body = &workload.payload(0)[8..];
        let runs = 1 + body.windows(2).filter(|pair| pair[0] != pair[1]).count();
        assert!(runs * 4 < body.len(), "{runs} runs in {} bytes", body.len());
    }

    #[test]
    fn mux_withholds_one_wire_frame_in_five_and_never_three_of_a_block() {
        let workload = Workload::build("mux-fec-repair", 11).unwrap();
        for block in 0..100u64 {
            let lost = (0..FEC_N as u64)
                .filter(|slot| workload.withholds_wire_frame(block * FEC_N as u64 + slot))
                .count();
            assert!((1..=2).contains(&lost));
        }
        let withheld = (0..64 * 2000).filter(|&g| workload.is_withheld(g)).count();
        assert_eq!(withheld, 64 * 2000 / 5);
        assert!(!Workload::build("relay-small", 11).unwrap().is_withheld(4));
        // Every source is released exactly once: itself, or with its block.
        let released: u64 = (0..64 * 2000).map(|g| workload.released_by(g)).sum();
        assert_eq!(released, 64 * 2000);
        assert_eq!(
            Workload::build("relay-small", 11).unwrap().released_by(7),
            1
        );
    }
}
