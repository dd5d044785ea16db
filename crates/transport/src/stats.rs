//! Per-endpoint transfer counters, mirroring the pipe stats discipline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, lock-free counters describing the lifetime activity of one UDP
/// endpoint (an ingress or an egress).
///
/// A `TransportStats` is cheap to clone (an `Arc` of atomics) and can be
/// handed to monitoring code — the proxy surfaces these through
/// `ProxyStatus` and the control protocol — while the endpoint keeps
/// running.
///
/// **Counting discipline**: an ingress records a received packet *before*
/// delivering it into its pipe, so a packet a consumer holds is always
/// already counted (the same received ⇒ counted invariant the in-process
/// pipes uphold).  An egress records a packet *after* the datagram was
/// handed to the OS, so `tx_packets` never exceeds what was actually put on
/// the wire.
#[derive(Debug, Clone, Default)]
pub struct TransportStats {
    inner: Arc<StatsInner>,
}

#[derive(Debug, Default)]
struct StatsInner {
    rx_datagrams: AtomicU64,
    rx_packets: AtomicU64,
    tx_datagrams: AtomicU64,
    tx_packets: AtomicU64,
    tx_batches: AtomicU64,
    gso_refused: AtomicU64,
    decode_errors: AtomicU64,
    dropped: AtomicU64,
}

/// A point-in-time copy of a [`TransportStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TransportSnapshot {
    /// Datagrams received off the socket (including undecodable ones).
    pub rx_datagrams: u64,
    /// Packets decoded and delivered toward the consumer.
    pub rx_packets: u64,
    /// Datagrams handed to the OS for transmission.
    pub tx_datagrams: u64,
    /// Packets framed and sent.
    pub tx_packets: u64,
    /// Kernel crossings on the send side: one `sendmmsg` each, whatever
    /// number of datagrams it carried.
    pub tx_batches: u64,
    /// Times the kernel turned down a segmented (`UDP_SEGMENT`) message;
    /// its frames were re-sent one by one, and the socket stopped
    /// coalescing.
    pub gso_refused: u64,
    /// Datagrams that failed [`Packet::decode`](rapidware_packet::Packet::decode).
    pub decode_errors: u64,
    /// Packets discarded by the endpoint (oversized frames, sends the OS
    /// rejected, or packets that arrived after the downstream pipe closed).
    pub dropped: u64,
}

impl TransportStats {
    /// Creates a fresh, zeroed counter block.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_rx_datagram(&self) {
        self.inner.rx_datagrams.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_rx_packets(&self, packets: usize) {
        self.inner.rx_packets.fetch_add(packets as u64, Ordering::Relaxed);
    }

    /// `frames` packets went out, one datagram each.
    pub(crate) fn record_tx(&self, frames: usize) {
        self.inner.tx_datagrams.fetch_add(frames as u64, Ordering::Relaxed);
        self.inner.tx_packets.fetch_add(frames as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_tx_batch(&self) {
        self.inner.tx_batches.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_gso_refused(&self) {
        self.inner.gso_refused.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_decode_error(&self) {
        self.inner.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_drops(&self, packets: usize) {
        self.inner.dropped.fetch_add(packets as u64, Ordering::Relaxed);
    }

    /// Datagrams received off the socket so far.
    pub fn rx_datagrams(&self) -> u64 {
        self.inner.rx_datagrams.load(Ordering::Relaxed)
    }

    /// Packets decoded and delivered toward the consumer so far.
    pub fn rx_packets(&self) -> u64 {
        self.inner.rx_packets.load(Ordering::Relaxed)
    }

    /// Datagrams handed to the OS so far.
    pub fn tx_datagrams(&self) -> u64 {
        self.inner.tx_datagrams.load(Ordering::Relaxed)
    }

    /// Packets framed and sent so far.
    pub fn tx_packets(&self) -> u64 {
        self.inner.tx_packets.load(Ordering::Relaxed)
    }

    /// Send-side kernel crossings (`sendmmsg` calls) so far.
    pub fn tx_batches(&self) -> u64 {
        self.inner.tx_batches.load(Ordering::Relaxed)
    }

    /// Segmented messages the kernel refused so far (each was re-sent as
    /// single datagrams).
    pub fn gso_refused(&self) -> u64 {
        self.inner.gso_refused.load(Ordering::Relaxed)
    }

    /// Datagrams that failed to decode so far.
    pub fn decode_errors(&self) -> u64 {
        self.inner.decode_errors.load(Ordering::Relaxed)
    }

    /// Packets discarded by the endpoint so far.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time copy of every counter.
    pub fn snapshot(&self) -> TransportSnapshot {
        TransportSnapshot {
            rx_datagrams: self.rx_datagrams(),
            rx_packets: self.rx_packets(),
            tx_datagrams: self.tx_datagrams(),
            tx_packets: self.tx_packets(),
            tx_batches: self.tx_batches(),
            gso_refused: self.gso_refused(),
            decode_errors: self.decode_errors(),
            dropped: self.dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let stats = TransportStats::new();
        stats.record_rx_datagram();
        stats.record_rx_packets(1);
        stats.record_tx(1);
        stats.record_tx_batch();
        stats.record_gso_refused();
        stats.record_decode_error();
        stats.record_drops(1);
        let snap = stats.snapshot();
        assert_eq!(snap.rx_datagrams, 1);
        assert_eq!(snap.rx_packets, 1);
        assert_eq!(snap.tx_datagrams, 1);
        assert_eq!(snap.tx_packets, 1);
        assert_eq!(snap.tx_batches, 1);
        assert_eq!(snap.gso_refused, 1);
        assert_eq!(snap.decode_errors, 1);
        assert_eq!(snap.dropped, 1);
    }

    #[test]
    fn a_clone_shares_the_counters() {
        let stats = TransportStats::new();
        let clone = stats.clone();
        clone.record_tx(1);
        assert_eq!(stats.tx_packets(), 1);
    }
}
