//! Fault injection: [`DropEveryNth`] drops payload packets on a fixed
//! stride, so tests and experiments can create controlled loss inside a
//! chain without involving the network simulator.

use rapidware_packet::Packet;

use crate::error::FilterError;
use crate::filter::Filter;

/// Drops every N-th payload packet (deterministically).
#[derive(Debug)]
pub struct DropEveryNth {
    name: String,
    n: u64,
    counter: u64,
    dropped: u64,
}

impl DropEveryNth {
    /// Creates a filter that drops every `n`-th payload packet.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "drop interval must be non-zero");
        Self {
            name: format!("drop-every({n})"),
            n,
            counter: 0,
            dropped: 0,
        }
    }

    /// Number of packets dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Filter for DropEveryNth {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, packet: Packet, out: &mut Vec<Packet>) -> Result<(), FilterError> {
        if !packet.kind().is_payload() {
            out.push(packet);
            return Ok(());
        }
        self.counter += 1;
        if self.counter.is_multiple_of(self.n) {
            self.dropped += 1;
            return Ok(());
        }
        out.push(packet);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidware_packet::{PacketKind, SeqNo, StreamId};

    fn packet(seq: u64) -> Packet {
        Packet::new(StreamId::new(1), SeqNo::new(seq), PacketKind::AudioData, vec![0u8; 8])
    }

    #[test]
    fn drop_every_nth_drops_deterministically() {
        let mut filter = DropEveryNth::new(3);
        let mut out: Vec<Packet> = Vec::new();
        for seq in 0..9 {
            filter.process(packet(seq), &mut out).unwrap();
        }
        assert_eq!(out.len(), 6);
        assert_eq!(filter.dropped(), 3);
        let seqs: Vec<u64> = out.iter().map(|p| p.seq().value()).collect();
        assert_eq!(seqs, vec![0, 1, 3, 4, 6, 7]);
    }

    #[test]
    fn control_packets_are_never_dropped() {
        let mut filter = DropEveryNth::new(1);
        let control = Packet::new(StreamId::new(1), SeqNo::new(0), PacketKind::Control, vec![]);
        let mut out: Vec<Packet> = Vec::new();
        filter.process(control.clone(), &mut out).unwrap();
        filter.process(packet(1), &mut out).unwrap();
        assert_eq!(out, vec![control]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_parameters_panic() {
        let _ = DropEveryNth::new(0);
    }
}
