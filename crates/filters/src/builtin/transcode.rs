//! Audio transcoding filter.
//!
//! Transcoding "to a lower bandwidth format" before the wireless hop is one
//! of the proxy duties the paper lists (and the reason a proxy exists at
//! all for a palmtop-class receiver).  The synthetic transcoder here reduces
//! PCM audio bandwidth by dropping channels, halving the sample rate, or
//! re-quantising 16-bit samples to 8 bits.  The arithmetic is simple, but
//! the *shape* is faithful: payloads shrink by a known factor while packet
//! count, sequencing, and timestamps are preserved.

use rapidware_packet::Packet;

use crate::error::FilterError;
use crate::filter::Filter;

/// How the transcoder reduces the stream's bit-rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TranscodeMode {
    /// Keep only the left channel of interleaved stereo samples (halves the
    /// payload).
    StereoToMono,
    /// Drop every second sample (halves the payload, halves the sample
    /// rate).
    HalveSampleRate,
    /// Re-quantise 16-bit little-endian samples to 8 bits (halves the
    /// payload).
    SixteenToEightBit,
}

impl TranscodeMode {
    /// The factor by which payload sizes shrink.
    pub fn compression_factor(self) -> f64 {
        2.0
    }

    fn label(self) -> &'static str {
        match self {
            TranscodeMode::StereoToMono => "stereo-to-mono",
            TranscodeMode::HalveSampleRate => "halve-sample-rate",
            TranscodeMode::SixteenToEightBit => "16-to-8-bit",
        }
    }
}

/// A filter that reduces the bandwidth of PCM audio packets.
#[derive(Debug)]
pub struct AudioTranscoderFilter {
    name: String,
    mode: TranscodeMode,
    bytes_in: u64,
    bytes_out: u64,
}

impl AudioTranscoderFilter {
    /// Creates a transcoder with the given mode.
    pub fn new(mode: TranscodeMode) -> Self {
        Self {
            name: format!("transcoder({})", mode.label()),
            mode,
            bytes_in: 0,
            bytes_out: 0,
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> TranscodeMode {
        self.mode
    }

    /// Total payload bytes consumed.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in
    }

    /// Total payload bytes produced.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out
    }

    /// Observed compression ratio (input bytes per output byte).
    pub fn observed_ratio(&self) -> f64 {
        if self.bytes_out == 0 {
            1.0
        } else {
            self.bytes_in as f64 / self.bytes_out as f64
        }
    }

    fn transcode(&self, payload: &[u8]) -> Vec<u8> {
        match self.mode {
            TranscodeMode::StereoToMono => {
                // Interleaved L/R bytes: keep L.
                payload.iter().step_by(2).copied().collect()
            }
            TranscodeMode::HalveSampleRate => {
                // Keep every other sample pair (stereo-agnostic: drop every
                // second byte pair).
                payload
                    .chunks(2)
                    .step_by(2)
                    .flat_map(|pair| pair.iter().copied())
                    .collect()
            }
            TranscodeMode::SixteenToEightBit => {
                // Take the high byte of each 16-bit little-endian sample.
                payload.chunks(2).map(|pair| *pair.last().unwrap_or(&0)).collect()
            }
        }
    }
}

impl Filter for AudioTranscoderFilter {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, packet: Packet, out: &mut Vec<Packet>) -> Result<(), FilterError> {
        if !packet.kind().is_payload() {
            out.push(packet);
            return Ok(());
        }
        self.bytes_in += packet.payload_len() as u64;
        let transcoded = self.transcode(packet.payload());
        self.bytes_out += transcoded.len() as u64;
        out.push(packet.with_payload(transcoded));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidware_packet::{PacketKind, SeqNo, StreamId};

    fn packet(payload: Vec<u8>) -> Packet {
        Packet::new(StreamId::new(1), SeqNo::new(0), PacketKind::AudioData, payload)
    }

    #[test]
    fn stereo_to_mono_keeps_left_channel() {
        let mut filter = AudioTranscoderFilter::new(TranscodeMode::StereoToMono);
        let mut out: Vec<Packet> = Vec::new();
        filter
            .process(packet(vec![1, 2, 3, 4, 5, 6]), &mut out)
            .unwrap();
        assert_eq!(out[0].payload(), &[1, 3, 5]);
    }

    #[test]
    fn halve_sample_rate_drops_alternate_pairs() {
        let mut filter = AudioTranscoderFilter::new(TranscodeMode::HalveSampleRate);
        let mut out: Vec<Packet> = Vec::new();
        filter
            .process(packet(vec![1, 2, 3, 4, 5, 6, 7, 8]), &mut out)
            .unwrap();
        assert_eq!(out[0].payload(), &[1, 2, 5, 6]);
    }

    #[test]
    fn sixteen_to_eight_takes_high_bytes() {
        let mut filter = AudioTranscoderFilter::new(TranscodeMode::SixteenToEightBit);
        let mut out: Vec<Packet> = Vec::new();
        filter
            .process(packet(vec![0x34, 0x12, 0x78, 0x56]), &mut out)
            .unwrap();
        assert_eq!(out[0].payload(), &[0x12, 0x56]);
    }

    #[test]
    fn halves_the_bandwidth_and_reports_ratio() {
        let mut filter = AudioTranscoderFilter::new(TranscodeMode::StereoToMono);
        let mut out: Vec<Packet> = Vec::new();
        for _ in 0..10 {
            filter.process(packet(vec![7u8; 320]), &mut out).unwrap();
        }
        assert_eq!(filter.bytes_in(), 3200);
        assert_eq!(filter.bytes_out(), 1600);
        assert!((filter.observed_ratio() - 2.0).abs() < 1e-9);
        assert!((filter.mode().compression_factor() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn non_payload_packets_pass_through() {
        let mut filter = AudioTranscoderFilter::new(TranscodeMode::StereoToMono);
        let mut out: Vec<Packet> = Vec::new();
        let control = Packet::new(StreamId::new(1), SeqNo::new(0), PacketKind::Control, vec![1, 2]);
        filter.process(control.clone(), &mut out).unwrap();
        assert_eq!(out[0], control);
        assert_eq!(filter.bytes_in(), 0);
    }

    #[test]
    fn sequencing_and_metadata_are_preserved() {
        let mut filter = AudioTranscoderFilter::new(TranscodeMode::StereoToMono);
        let input = Packet::with_timestamp(
            StreamId::new(2),
            SeqNo::new(77),
            PacketKind::AudioData,
            123_456,
            vec![1u8; 64],
        );
        let mut out: Vec<Packet> = Vec::new();
        filter.process(input, &mut out).unwrap();
        assert_eq!(out[0].seq(), SeqNo::new(77));
        assert_eq!(out[0].timestamp_us(), 123_456);
        assert_eq!(out[0].stream(), StreamId::new(2));
    }
}
