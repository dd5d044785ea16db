//! The identity filter.

use rapidware_packet::Packet;

use crate::error::FilterError;
use crate::filter::Filter;

/// A filter that forwards every packet unchanged.
///
/// Two endpoints plus a null filter form the paper's "null proxy".  The null
/// filter is also the workload used by the chain-depth overhead experiment
/// (E5): it isolates the cost of the composition mechanism itself from the
/// cost of any particular transformation.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullFilter {
    _private: (),
}

impl NullFilter {
    /// Creates a null filter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Filter for NullFilter {
    fn name(&self) -> &str {
        "null"
    }

    fn process(&mut self, packet: Packet, out: &mut Vec<Packet>) -> Result<(), FilterError> {
        out.push(packet);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidware_packet::{PacketKind, SeqNo, StreamId};

    #[test]
    fn forwards_packets_unchanged() {
        let mut filter = NullFilter::new();
        let packet = Packet::new(StreamId::new(1), SeqNo::new(7), PacketKind::Data, vec![1, 2, 3]);
        let mut out: Vec<Packet> = Vec::new();
        filter.process(packet.clone(), &mut out).unwrap();
        assert_eq!(out, vec![packet]);
        assert_eq!(filter.name(), "null");
    }
}
