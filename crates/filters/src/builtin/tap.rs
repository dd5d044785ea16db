//! A counting tap: forwards packets unchanged while recording statistics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rapidware_packet::Packet;

use crate::error::FilterError;
use crate::filter::Filter;

/// Shared counters exposed by a [`TapFilter`].
#[derive(Debug, Default)]
pub struct TapCounters {
    packets: AtomicU64,
    bytes: AtomicU64,
    payload_packets: AtomicU64,
    parity_packets: AtomicU64,
}

impl TapCounters {
    /// Total packets observed.
    pub fn packets(&self) -> u64 {
        self.packets.load(Ordering::Relaxed)
    }

    /// Total payload bytes observed.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Packets carrying application payload.
    pub fn payload_packets(&self) -> u64 {
        self.payload_packets.load(Ordering::Relaxed)
    }

    /// FEC parity packets.
    pub fn parity_packets(&self) -> u64 {
        self.parity_packets.load(Ordering::Relaxed)
    }
}

/// A pass-through filter that counts traffic.
///
/// Observer raplets attach taps at interesting points of a chain (e.g.
/// before and after the wireless hop) and compare the counters to estimate
/// loss or redundancy overhead without perturbing the stream.
#[derive(Debug)]
pub struct TapFilter {
    name: String,
    counters: Arc<TapCounters>,
}

impl TapFilter {
    /// Creates a tap with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            counters: Arc::new(TapCounters::default()),
        }
    }

    /// A handle to the tap's counters that stays valid after the filter has
    /// been installed in a chain.
    pub fn counters(&self) -> Arc<TapCounters> {
        Arc::clone(&self.counters)
    }
}

impl Filter for TapFilter {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, packet: Packet, out: &mut Vec<Packet>) -> Result<(), FilterError> {
        self.counters.packets.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes
            .fetch_add(packet.payload_len() as u64, Ordering::Relaxed);
        if packet.kind().is_payload() {
            self.counters.payload_packets.fetch_add(1, Ordering::Relaxed);
        }
        if packet.kind().is_parity() {
            self.counters.parity_packets.fetch_add(1, Ordering::Relaxed);
        }
        out.push(packet);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidware_packet::{BlockId, PacketKind, SeqNo, StreamId};

    #[test]
    fn counts_packets_and_bytes() {
        let mut tap = TapFilter::new("uplink");
        let counters = tap.counters();
        let mut out: Vec<Packet> = Vec::new();
        let data = Packet::new(StreamId::new(1), SeqNo::new(0), PacketKind::AudioData, vec![0u8; 100]);
        let parity = Packet::new(
            StreamId::new(1),
            SeqNo::new(1),
            PacketKind::Parity {
                block: BlockId::new(0),
                index: 4,
                k: 4,
                n: 6,
            },
            vec![0u8; 50],
        );
        tap.process(data, &mut out).unwrap();
        tap.process(parity, &mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(counters.packets(), 2);
        assert_eq!(counters.bytes(), 150);
        assert_eq!(counters.payload_packets(), 1);
        assert_eq!(counters.parity_packets(), 1);
    }
}
