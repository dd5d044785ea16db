//! A priority-aware rate limiter.
//!
//! When the wireless link cannot carry the full stream, a proxy must shed
//! load intelligently: the paper (and the work it cites on QoS-directed
//! error control) prioritises I frames over P frames over B frames.  This
//! filter enforces a byte budget per time window and, when the budget is
//! exceeded, drops the lowest-priority packets first.

use rapidware_packet::{FrameType, Packet, PacketKind};

use crate::error::FilterError;
use crate::filter::Filter;

/// A token-bucket style rate limiter with frame-type-aware shedding.
#[derive(Debug)]
pub struct RateLimiterFilter {
    name: String,
    /// Budget in payload bytes per window.
    budget_bytes: u64,
    /// Window length in packet timestamps (µs).
    window_us: u64,
    window_start_us: u64,
    used_bytes: u64,
    forwarded: u64,
    dropped: u64,
    dropped_by_priority: [u64; 3],
}

impl RateLimiterFilter {
    /// Creates a limiter that forwards at most `budget_bytes` of payload per
    /// `window_us` microseconds of stream time.
    ///
    /// # Panics
    ///
    /// Panics if `window_us` is zero.
    pub fn new(budget_bytes: u64, window_us: u64) -> Self {
        assert!(window_us > 0, "rate limiter window must be non-zero");
        Self {
            name: format!("rate-limiter({budget_bytes}B/{window_us}us)"),
            budget_bytes,
            window_us,
            window_start_us: 0,
            used_bytes: 0,
            forwarded: 0,
            dropped: 0,
            dropped_by_priority: [0; 3],
        }
    }

    /// Creates a limiter expressed in bits per second with a 100 ms window.
    pub fn with_bitrate(bits_per_second: u64) -> Self {
        let window_us = 100_000;
        let budget_bytes = bits_per_second / 8 / 10;
        Self::new(budget_bytes.max(1), window_us)
    }

    /// Packets forwarded so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Packets dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Packets dropped, indexed by frame priority (B, P, I).
    pub fn dropped_by_priority(&self) -> [u64; 3] {
        self.dropped_by_priority
    }

    fn priority(packet: &Packet) -> u8 {
        match packet.kind() {
            PacketKind::VideoFrame { frame, .. } => frame.priority(),
            // Audio, data, parity, and control are treated as top priority:
            // shedding decisions are aimed at video enhancement layers.
            _ => FrameType::I.priority(),
        }
    }
}

impl Filter for RateLimiterFilter {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, packet: Packet, out: &mut Vec<Packet>) -> Result<(), FilterError> {
        // Roll the window forward based on stream timestamps, so behaviour
        // is deterministic and independent of wall-clock time.
        let now = packet.timestamp_us();
        if now >= self.window_start_us + self.window_us {
            self.window_start_us = now - (now % self.window_us);
            self.used_bytes = 0;
        }
        let size = packet.payload_len() as u64;
        let priority = Self::priority(&packet);
        let over_budget = self.used_bytes + size > self.budget_bytes;
        // Low-priority packets are shed as soon as the budget is exceeded;
        // top-priority packets are still forwarded (they represent audio or
        // I frames the user cannot do without), letting the budget overrun
        // rather than silencing the stream.
        if over_budget && priority < FrameType::I.priority() {
            self.dropped += 1;
            self.dropped_by_priority[priority as usize] += 1;
            return Ok(());
        }
        self.used_bytes += size;
        self.forwarded += 1;
        out.push(packet);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidware_packet::{SeqNo, StreamId};

    fn video(seq: u64, ts: u64, frame: FrameType, len: usize) -> Packet {
        Packet::with_timestamp(
            StreamId::new(1),
            SeqNo::new(seq),
            PacketKind::VideoFrame {
                frame,
                boundary: true,
            },
            ts,
            vec![0u8; len],
        )
    }

    fn audio(seq: u64, ts: u64, len: usize) -> Packet {
        Packet::with_timestamp(StreamId::new(1), SeqNo::new(seq), PacketKind::AudioData, ts, vec![0u8; len])
    }

    #[test]
    fn under_budget_everything_passes() {
        let mut limiter = RateLimiterFilter::new(10_000, 1_000_000);
        let mut out: Vec<Packet> = Vec::new();
        for seq in 0..5 {
            limiter
                .process(video(seq, seq * 1000, FrameType::B, 100), &mut out)
                .unwrap();
        }
        assert_eq!(out.len(), 5);
        assert_eq!(limiter.dropped(), 0);
    }

    #[test]
    fn over_budget_b_frames_are_dropped_first() {
        // Budget: 1000 bytes per window; I and B frames alternate.
        let mut limiter = RateLimiterFilter::new(1_000, 1_000_000);
        let mut out: Vec<Packet> = Vec::new();
        for seq in 0..10 {
            let frame = if seq % 2 == 0 { FrameType::I } else { FrameType::B };
            limiter
                .process(video(seq, seq * 1000, frame, 300), &mut out)
                .unwrap();
        }
        // Budget admits ~3 packets; I frames keep flowing, B frames shed.
        let i_frames = out
            .iter()
            .filter(|p| matches!(p.kind(), PacketKind::VideoFrame { frame: FrameType::I, .. }))
            .count();
        let b_frames = out
            .iter()
            .filter(|p| matches!(p.kind(), PacketKind::VideoFrame { frame: FrameType::B, .. }))
            .count();
        assert_eq!(i_frames, 5, "all I frames forwarded");
        assert!(b_frames < 5, "some B frames shed");
        assert!(limiter.dropped() > 0);
        assert!(limiter.dropped_by_priority()[FrameType::B.priority() as usize] > 0);
        assert_eq!(limiter.dropped_by_priority()[FrameType::I.priority() as usize], 0);
    }

    #[test]
    fn audio_is_never_shed() {
        let mut limiter = RateLimiterFilter::new(100, 1_000_000);
        let mut out: Vec<Packet> = Vec::new();
        for seq in 0..20 {
            limiter.process(audio(seq, seq * 1000, 320), &mut out).unwrap();
        }
        assert_eq!(out.len(), 20);
        assert_eq!(limiter.forwarded(), 20);
    }

    #[test]
    fn budget_refreshes_each_window() {
        let mut limiter = RateLimiterFilter::new(500, 10_000);
        let mut out: Vec<Packet> = Vec::new();
        // Window 1: two 300-byte B packets; second exceeds budget and drops.
        limiter.process(video(0, 0, FrameType::B, 300), &mut out).unwrap();
        limiter.process(video(1, 1_000, FrameType::B, 300), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        // Window 2 (t = 10 ms): budget is fresh again.
        limiter
            .process(video(2, 10_000, FrameType::B, 300), &mut out)
            .unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn with_bitrate_converts_to_bytes() {
        let limiter = RateLimiterFilter::with_bitrate(128_000);
        assert!(limiter.name().contains("1600B"));
    }

    #[test]
    #[should_panic(expected = "window must be non-zero")]
    fn zero_window_panics() {
        let _ = RateLimiterFilter::new(100, 0);
    }
}
