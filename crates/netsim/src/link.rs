//! Link timing: bandwidth, latency and jitter of the radio a
//! [`WirelessLan`](crate::WirelessLan) shares among its receivers.

use crate::time::SimTime;

/// Static timing of a [`WirelessLan`](crate::WirelessLan)'s radio.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Nominal bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation plus forwarding latency, in microseconds.
    pub base_latency_us: u64,
    /// Maximum additional random jitter, in microseconds (uniform).
    pub jitter_us: u64,
}

impl LinkConfig {
    /// A 2 Mbps WaveLAN wireless hop, the access technology of the paper's
    /// experiments.
    pub fn wavelan_2mbps() -> Self {
        Self {
            bandwidth_bps: 2_000_000,
            base_latency_us: 1_000,
            jitter_us: 2_000,
        }
    }

    /// Transmission (serialisation) delay of a packet of `len` bytes, in
    /// microseconds.
    pub fn serialization_delay_us(&self, len: usize) -> u64 {
        if self.bandwidth_bps == 0 {
            return 0;
        }
        (len as u64 * 8 * 1_000_000) / self.bandwidth_bps
    }
}

/// Outcome of one transmission to one receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransmitOutcome {
    /// The packet will arrive at the far end at the given time.
    Delivered {
        /// Arrival time at the receiver.
        arrival: SimTime,
    },
    /// The packet was lost in transit.
    Lost,
}

impl TransmitOutcome {
    /// Returns the arrival time if the packet was delivered.
    pub fn arrival(self) -> Option<SimTime> {
        match self {
            TransmitOutcome::Delivered { arrival } => Some(arrival),
            TransmitOutcome::Lost => None,
        }
    }

    /// Returns `true` if the packet was delivered.
    pub fn is_delivered(self) -> bool {
        matches!(self, TransmitOutcome::Delivered { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_delay_matches_bandwidth() {
        let config = LinkConfig::wavelan_2mbps();
        // 500 bytes at 2 Mbps = 4000 bits / 2e6 bps = 2 ms.
        assert_eq!(config.serialization_delay_us(500), 2_000);
    }

    #[test]
    fn outcome_helpers() {
        let delivered = TransmitOutcome::Delivered {
            arrival: SimTime::from_millis(1),
        };
        assert!(delivered.is_delivered());
        assert_eq!(delivered.arrival(), Some(SimTime::from_millis(1)));
        assert!(!TransmitOutcome::Lost.is_delivered());
        assert_eq!(TransmitOutcome::Lost.arrival(), None);
    }
}
