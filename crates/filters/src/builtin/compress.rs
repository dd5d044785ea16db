//! Run-length compression filter pair.
//!
//! Bandwidth reduction on the wireless hop is a canonical proxy duty.  This
//! pair implements a simple, self-contained run-length encoding so the
//! framework can demonstrate lossless payload rewriting (as opposed to the
//! lossy transcoder): a [`CompressorFilter`] ahead of the wireless link and
//! a [`DecompressorFilter`] on the mobile host restore payloads exactly.
//!
//! Wire format per payload: a sequence of `(count, byte)` pairs where
//! `count` is 1–255.  Payloads whose RLE form would be larger than the
//! original are sent verbatim with a 1-byte `0x00` marker prefix; compressed
//! payloads carry a `0x01` prefix.

use rapidware_packet::Packet;

use crate::error::FilterError;
use crate::filter::Filter;

const MARKER_RAW: u8 = 0x00;
const MARKER_RLE: u8 = 0x01;

/// Losslessly compresses payloads with run-length encoding.
#[derive(Debug, Default)]
pub struct CompressorFilter {
    bytes_in: u64,
    bytes_out: u64,
    /// Reused RLE work buffer so steady-state compression does not
    /// allocate a throwaway encoding per packet.
    scratch: Vec<u8>,
}

/// Reverses [`CompressorFilter`].
#[derive(Debug, Default)]
pub struct DecompressorFilter {
    bytes_in: u64,
    bytes_out: u64,
}

/// Run-length encodes `data` (without the marker byte) into `out`,
/// replacing its contents.
fn rle_encode_into(data: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(data.len() / 2 + 2);
    let mut iter = data.iter().copied().peekable();
    while let Some(byte) = iter.next() {
        let mut count: u8 = 1;
        while count < u8::MAX {
            if iter.peek() == Some(&byte) {
                iter.next();
                count += 1;
            } else {
                break;
            }
        }
        out.push(count);
        out.push(byte);
    }
}

/// Run-length encodes `data` into a fresh buffer (test helper).
#[cfg(test)]
fn rle_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    rle_encode_into(data, &mut out);
    out
}

/// Decodes a run-length encoded body.
fn rle_decode(data: &[u8]) -> Result<Vec<u8>, FilterError> {
    if !data.len().is_multiple_of(2) {
        return Err(FilterError::Internal(
            "run-length body has odd length".to_string(),
        ));
    }
    let mut out = Vec::with_capacity(data.len());
    for pair in data.chunks(2) {
        let count = pair[0];
        let byte = pair[1];
        if count == 0 {
            return Err(FilterError::Internal("zero-length run".to_string()));
        }
        out.extend(std::iter::repeat_n(byte, count as usize));
    }
    Ok(out)
}

impl CompressorFilter {
    /// Creates a compressor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observed compression ratio (input bytes per output byte).
    pub fn observed_ratio(&self) -> f64 {
        if self.bytes_out == 0 {
            1.0
        } else {
            self.bytes_in as f64 / self.bytes_out as f64
        }
    }
}

impl DecompressorFilter {
    /// Creates a decompressor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total payload bytes produced after decompression.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out
    }
}

impl Filter for CompressorFilter {
    fn name(&self) -> &str {
        "compressor(rle)"
    }

    fn process(&mut self, packet: Packet, out: &mut Vec<Packet>) -> Result<(), FilterError> {
        if !packet.kind().is_payload() {
            out.push(packet);
            return Ok(());
        }
        self.bytes_in += packet.payload_len() as u64;
        rle_encode_into(packet.payload(), &mut self.scratch);
        let payload = if self.scratch.len() < packet.payload_len() {
            let mut body = Vec::with_capacity(self.scratch.len() + 1);
            body.push(MARKER_RLE);
            body.extend_from_slice(&self.scratch);
            body
        } else {
            let mut body = Vec::with_capacity(packet.payload_len() + 1);
            body.push(MARKER_RAW);
            body.extend_from_slice(packet.payload());
            body
        };
        self.bytes_out += payload.len() as u64;
        out.push(packet.with_payload(payload));
        Ok(())
    }
}

impl Filter for DecompressorFilter {
    fn name(&self) -> &str {
        "decompressor(rle)"
    }

    fn process(&mut self, packet: Packet, out: &mut Vec<Packet>) -> Result<(), FilterError> {
        if !packet.kind().is_payload() {
            out.push(packet);
            return Ok(());
        }
        self.bytes_in += packet.payload_len() as u64;
        let payload = packet.payload();
        let restored = match payload.first() {
            Some(&MARKER_RAW) => payload[1..].to_vec(),
            Some(&MARKER_RLE) => rle_decode(&payload[1..])?,
            Some(other) => {
                return Err(FilterError::Internal(format!(
                    "unknown compression marker {other:#04x}"
                )))
            }
            None => Vec::new(),
        };
        self.bytes_out += restored.len() as u64;
        out.push(packet.with_payload(restored));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidware_packet::{PacketKind, SeqNo, StreamId};

    fn packet(payload: Vec<u8>) -> Packet {
        Packet::new(StreamId::new(1), SeqNo::new(0), PacketKind::Data, payload)
    }

    fn round_trip(payload: Vec<u8>) -> Vec<u8> {
        let mut compressor = CompressorFilter::new();
        let mut decompressor = DecompressorFilter::new();
        let mut mid: Vec<Packet> = Vec::new();
        compressor.process(packet(payload), &mut mid).unwrap();
        let mut out: Vec<Packet> = Vec::new();
        decompressor.process(mid.pop().unwrap(), &mut out).unwrap();
        out.pop().unwrap().payload().to_vec()
    }

    #[test]
    fn repetitive_payloads_shrink_and_round_trip() {
        let payload = vec![7u8; 1000];
        let mut compressor = CompressorFilter::new();
        let mut mid: Vec<Packet> = Vec::new();
        compressor.process(packet(payload.clone()), &mut mid).unwrap();
        assert!(mid[0].payload_len() < 20, "1000 identical bytes compress well");
        assert!(compressor.observed_ratio() > 50.0);
        assert_eq!(round_trip(payload.clone()), payload);
    }

    #[test]
    fn incompressible_payloads_fall_back_to_raw() {
        let payload: Vec<u8> = (0..255u8).collect();
        let mut compressor = CompressorFilter::new();
        let mut mid: Vec<Packet> = Vec::new();
        compressor.process(packet(payload.clone()), &mut mid).unwrap();
        assert_eq!(mid[0].payload()[0], MARKER_RAW);
        assert_eq!(mid[0].payload_len(), payload.len() + 1);
        assert_eq!(round_trip(payload.clone()), payload);
    }

    #[test]
    fn empty_payload_round_trips() {
        assert_eq!(round_trip(Vec::new()), Vec::<u8>::new());
    }

    #[test]
    fn long_runs_split_at_255() {
        let payload = vec![9u8; 600];
        assert_eq!(round_trip(payload.clone()), payload);
        let encoded = rle_encode(&payload);
        assert_eq!(encoded.len(), 6); // 255+255+90 => three (count, byte) pairs
    }

    #[test]
    fn mixed_content_round_trips() {
        let payload: Vec<u8> = (0..2000u32)
            .map(|i| if i % 7 == 0 { 42 } else { (i % 5) as u8 })
            .collect();
        assert_eq!(round_trip(payload.clone()), payload);
    }

    #[test]
    fn corrupt_marker_is_an_error() {
        let mut decompressor = DecompressorFilter::new();
        let mut out: Vec<Packet> = Vec::new();
        let bad = packet(vec![0x77, 1, 2, 3]);
        assert!(decompressor.process(bad, &mut out).is_err());
    }

    #[test]
    fn corrupt_rle_body_is_an_error() {
        let mut decompressor = DecompressorFilter::new();
        let mut out: Vec<Packet> = Vec::new();
        // Odd-length body.
        assert!(decompressor
            .process(packet(vec![MARKER_RLE, 3, 1, 9]), &mut out)
            .is_err());
        // Zero-length run.
        assert!(decompressor
            .process(packet(vec![MARKER_RLE, 0, 1]), &mut out)
            .is_err());
    }

    #[test]
    fn parity_packets_are_not_touched() {
        let mut compressor = CompressorFilter::new();
        let parity = Packet::new(
            StreamId::new(1),
            SeqNo::new(0),
            PacketKind::Parity {
                block: rapidware_packet::BlockId::new(0),
                index: 4,
                k: 4,
                n: 6,
            },
            vec![1u8; 50],
        );
        let mut out: Vec<Packet> = Vec::new();
        compressor.process(parity.clone(), &mut out).unwrap();
        assert_eq!(out[0], parity);
    }
}
