//! # rapidware-transport — real UDP endpoints behind the proxy
//!
//! Every other crate in this workspace moves packets over in-process
//! detachable pipes or the simulated `netsim` medium.  This crate is where
//! bytes first cross a socket: it carries the existing wire format
//! ([`Packet::encode_into`] / [`Packet::decode`], one packet per datagram)
//! over nonblocking [`std::net::UdpSocket`]s, behind endpoints whose
//! consumer and producer sides are ordinary [`DetachableReceiver`] /
//! [`DetachableSender`] pipes — so filter chains, fanout lanes, and
//! pooled-runtime tasks run unmodified whether their peer is a pipe or a
//! socket.
//!
//! * [`SharedUdpIngress`] — one bound socket carrying N logical streams,
//!   demultiplexed by the stream id in every [`Packet`] header onto one
//!   registered pipe route per stream (or its [`RouteInlet`], in place).
//! * [`SharedUdpEgress`] — N lanes, each draining its own pipe towards its
//!   own peer, multiplexed onto one socket (normally the ingress's, so one
//!   port carries both directions).
//! * [`Poller`] — the one-shot `epoll` readiness set a driver blocks in to
//!   learn *when* to call those endpoints; this is what makes the socket
//!   path **Linux-only**.
//! * [`ImpairedUdp`] — a loopback relay applying a **seeded, deterministic**
//!   drop/delay schedule to the datagrams passing through it, mirroring
//!   `netsim`'s `ScheduledLoss` so scenario runs over real sockets stay
//!   reproducible.
//!
//! The endpoints own no threads.  They expose non-blocking batch
//! operations — [`drain_batch`] and [`flush_batch`] — and a driver calls
//! them when the socket is readable or a lane pipe has data: inside a
//! proxy that driver is one pooled-runtime task per socket, so hundreds
//! of sessions share a handful of sockets; an application (or a test) on
//! the far end of the wire calls them from its own receive loop.  A
//! *dedicated* socket is simply an endpoint with one route.
//!
//! ## End of stream
//!
//! UDP has no connection teardown, so the transport defines one: when an
//! egress lane's upstream ends (the pipe reports EOF), the lane sends a
//! final **FIN frame** ([`stream_fin_packet`]) — a [`PacketKind::Control`]
//! frame on the ending stream's *own* id at the reserved sequence number
//! [`STREAM_FIN_SEQ`] — and an ingress that receives it closes exactly that
//! stream's route, so the consumer observes the same clean end of stream a
//! local pipe would deliver while its socket-mates keep flowing.
//!
//! [`drain_batch`]: SharedUdpIngress::drain_batch
//! [`flush_batch`]: SharedUdpEgress::flush_batch
//!
//! ## Delivery accounting
//!
//! Both endpoints keep [`TransportStats`]: datagrams and packets in and
//! out, decode errors, and drops.  The ingress counts a packet **before**
//! handing it to the inlet or the pipe, upholding the same received ⇒ counted invariant
//! the in-process pipes provide — by the time a consumer holds a packet,
//! the endpoint's counters already include it.
//!
//! ## Example
//!
//! ```
//! use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
//! use rapidware_streams::{pipe, TryRecvError};
//! use rapidware_transport::{SharedUdpEgress, SharedUdpIngress, UdpConfig};
//!
//! # fn main() -> std::io::Result<()> {
//! let config = UdpConfig::default();
//! let stream = StreamId::new(1);
//! let ingress = SharedUdpIngress::bind("127.0.0.1:0", &config)?;
//! let route = ingress.open_stream(stream).expect("the id is free");
//! let egress = SharedUdpEgress::bind("127.0.0.1:0", &config)?;
//! let (lane, source) = pipe(config.capacity);
//! egress.attach(stream, ingress.local_addr(), source);
//!
//! let packet = Packet::new(stream, SeqNo::new(0), PacketKind::AudioData, vec![1, 2, 3]);
//! lane.send(packet.clone()).expect("the lane pipe is open");
//! lane.close(); // the lane flushes, then sends the stream's FIN
//!
//! // Drive both halves by hand until the FIN has closed the route.
//! while ingress.route_count() > 0 {
//!     egress.flush_batch();
//!     ingress.drain_batch();
//! }
//! assert_eq!(route.try_recv().expect("delivered over loopback"), packet);
//! assert_eq!(route.try_recv().unwrap_err(), TryRecvError::Eof, "the FIN closes the stream");
//! # Ok(())
//! # }
//! ```
//!
//! [`Packet::encode_into`]: rapidware_packet::Packet::encode_into
//! [`Packet::decode`]: rapidware_packet::Packet::decode
//! [`DetachableSender`]: rapidware_streams::DetachableSender
//! [`DetachableReceiver`]: rapidware_streams::DetachableReceiver
//! [`PacketKind::Control`]: rapidware_packet::PacketKind::Control

// `deny` rather than `forbid`: two modules opt back in with a scoped
// `#[allow]` — `poller` (four epoll/eventfd declarations) and `mmsg` (one
// `sendmmsg` declaration), foreign calls std has no safe form of.  They are
// the only unsafe code in the crate, and each documents its safety contract
// at the module head.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod endpoint;
mod impaired;
mod mmsg;
mod poller;
mod shared;
mod stats;

pub use endpoint::UdpConfig;
pub use impaired::{
    ImpairedSnapshot, ImpairedStats, ImpairedUdp, ImpairmentPhase, ImpairmentPlan,
};
pub use poller::{Interest, Poller, Token};
pub use shared::{
    RouteInlet, SharedDrain, SharedFlush, SharedUdpEgress, SharedUdpError, SharedUdpIngress,
};
pub use stats::{TransportSnapshot, TransportStats};

use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};

/// Largest datagram the transport will send or receive: the IPv4 UDP
/// maximum (65,535 minus the 8-byte UDP and 20-byte IP headers).  Packets
/// whose wire form exceeds this are counted as drops at the egress; larger
/// datagrams arriving at an ingress are truncated by the OS and rejected by
/// the frame CRC.
pub const MAX_DATAGRAM_LEN: usize = 65_507;

/// Sequence number reserved for FIN frames.
///
/// A socket carries many logical streams, so a FIN must say *which* of
/// them ended: it rides the ending stream's own id, marked by this
/// reserved sequence number on a [`PacketKind::Control`] frame.
/// Application control traffic must not use `u64::MAX` as a sequence
/// number.
pub const STREAM_FIN_SEQ: u64 = u64::MAX;

/// Builds the FIN frame an egress lane sends when its stream's upstream
/// ends: a control frame on the stream's own id at [`STREAM_FIN_SEQ`].
pub fn stream_fin_packet(stream: StreamId) -> Packet {
    Packet::new(
        stream,
        SeqNo::new(STREAM_FIN_SEQ),
        PacketKind::Control,
        Vec::new(),
    )
}

/// Returns `true` if `packet` is a FIN frame built by
/// [`stream_fin_packet`].
pub fn is_stream_fin(packet: &Packet) -> bool {
    packet.kind() == PacketKind::Control && packet.seq().value() == STREAM_FIN_SEQ
}

/// Sanity guard used by the egress: `true` if the packet fits in one
/// datagram.
pub(crate) fn fits_in_datagram(packet: &Packet) -> bool {
    packet.wire_len() <= MAX_DATAGRAM_LEN
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidware_packet::HEADER_LEN;

    #[test]
    fn fin_frames_are_recognised_and_fit_in_a_datagram() {
        let fin = stream_fin_packet(StreamId::new(7));
        assert!(is_stream_fin(&fin));
        assert_eq!(fin.stream().value(), 7, "a FIN names the stream it ends");
        assert!(fits_in_datagram(&fin));
        let data = Packet::new(StreamId::new(7), SeqNo::new(STREAM_FIN_SEQ), PacketKind::Data, vec![1]);
        assert!(!is_stream_fin(&data), "only control frames are FINs");
        // A control frame at any other sequence number (e.g. the scenario
        // engine's quiescence markers) is not a FIN.
        let marker = Packet::new(StreamId::new(u32::MAX), SeqNo::new(0), PacketKind::Control, vec![]);
        assert!(!is_stream_fin(&marker));
    }

    #[test]
    fn the_datagram_cap_accounts_for_the_header() {
        let snug = Packet::new(
            StreamId::new(1),
            SeqNo::new(0),
            PacketKind::Data,
            vec![0u8; MAX_DATAGRAM_LEN - HEADER_LEN],
        );
        assert!(fits_in_datagram(&snug));
        let oversized = Packet::new(
            StreamId::new(1),
            SeqNo::new(0),
            PacketKind::Data,
            vec![0u8; MAX_DATAGRAM_LEN - HEADER_LEN + 1],
        );
        assert!(!fits_in_datagram(&oversized));
    }
}
