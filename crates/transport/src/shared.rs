//! The UDP endpoints: one bound socket carrying N streams.
//!
//! The endpoints spend **zero** threads: they only expose non-blocking
//! batch operations — [`SharedUdpIngress::drain_batch`] and
//! [`SharedUdpEgress::flush_batch`] — and rely on a driver (inside a proxy,
//! the pooled runtime's readiness reactor, blocked in a
//! [`Poller`](crate::Poller)) to call them when the socket is readable or a
//! pipe has data:
//!
//! ```text
//!   socket ──▶ drain_batch: recv_from × batch ──decode──▶ route by stream id ──▶ pipe per stream
//!   pipe per lane ──▶ flush_batch: try_recv × batch ──encode──▶ send_to(lane peer) ──▶ socket
//! ```
//!
//! Demultiplexing is by the stream id already in every
//! [`Packet`] header.  Frames for an
//! unregistered stream id are counted (see
//! [`SharedUdpIngress::unknown_streams`]) and dropped without disturbing
//! registered neighbours; a FIN
//! ([`stream_fin_packet`](crate::stream_fin_packet)) closes only its own
//! stream's route.  Both endpoints keep the transport-wide accounting
//! invariants: an ingress counts a packet **before** it becomes observable
//! to a consumer, an egress counts after the OS accepted the datagram.
//!
//! A full route never blocks the drain: the frame is dropped and counted,
//! exactly as a real shared socket sheds one flow's overflow without
//! stalling its socket-mates.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use rapidware_packet::{Packet, StreamId};
use rapidware_streams::{pipe, DetachableReceiver, DetachableSender, TryRecvError};

use crate::stats::TransportStats;
use crate::{fits_in_datagram, is_stream_fin, stream_fin_packet, MAX_DATAGRAM_LEN};

/// Errors from shared-socket route management.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SharedUdpError {
    /// The stream id already has a registered route on this socket.
    StreamTaken(StreamId),
}

impl fmt::Display for SharedUdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::StreamTaken(stream) => {
                write!(f, "stream {} already has a route on this socket", stream.value())
            }
        }
    }
}

impl std::error::Error for SharedUdpError {}

/// What a [`SharedUdpIngress::drain_batch`] pass left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharedDrain {
    /// A full batch was drained; the socket likely still holds datagrams,
    /// so the caller should run another pass before going idle.
    MoreReady,
    /// The socket ran dry before the batch filled; wait for readiness.
    Empty,
}

/// How a [`SharedUdpEgress::flush_batch`] pass ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharedFlush {
    /// At least one frame moved; more may be pending, run another pass.
    Progress,
    /// Nothing to send: every live source pipe was empty.
    Idle,
    /// The socket refused a send (`WouldBlock`); the frame is held and the
    /// caller should retry once the socket reports writable.
    Blocked,
}

/// The receiving half of a shared socket: one bound socket, N logical
/// streams, each with its own registered pipe route.
///
/// Created with [`bind`](Self::bind).  Streams register either an owned
/// route ([`open_stream`](Self::open_stream), returning the pipe receiver)
/// or a bridged route ([`open_stream_into`](Self::open_stream_into),
/// delivering straight into a supplied sender such as a proxy chain
/// input).  The endpoint owns no thread; a driver (normally a pooled-runtime
/// task woken by the reactor) calls [`drain_batch`](Self::drain_batch)
/// whenever the socket is readable.
pub struct SharedUdpIngress {
    socket: Arc<UdpSocket>,
    local_addr: SocketAddr,
    batch_size: usize,
    route_capacity: usize,
    stats: TransportStats,
    unknown_streams: Arc<AtomicU64>,
    io_errors: AtomicU64,
    routes: Mutex<BTreeMap<u32, DetachableSender<Packet>>>,
    scratch: Mutex<Vec<u8>>,
}

impl fmt::Debug for SharedUdpIngress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedUdpIngress")
            .field("local_addr", &self.local_addr)
            .field("batch_size", &self.batch_size)
            .field("routes", &self.route_count())
            .finish()
    }
}

impl SharedUdpIngress {
    /// Binds a non-blocking shared socket on `addr`.
    ///
    /// `config.capacity` sizes the pipe behind each owned route;
    /// `config.batch_size` bounds how many datagrams one
    /// [`drain_batch`](Self::drain_batch) pass moves.
    ///
    /// # Errors
    ///
    /// Any socket error from binding or configuring the socket.
    pub fn bind(addr: impl ToSocketAddrs, config: &crate::UdpConfig) -> io::Result<Self> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_nonblocking(true)?;
        let local_addr = socket.local_addr()?;
        Ok(Self {
            socket: Arc::new(socket),
            local_addr,
            batch_size: config.batch_size.max(1),
            route_capacity: config.capacity,
            stats: TransportStats::new(),
            unknown_streams: Arc::new(AtomicU64::new(0)),
            io_errors: AtomicU64::new(0),
            routes: Mutex::new(BTreeMap::new()),
            scratch: Mutex::new(vec![0u8; MAX_DATAGRAM_LEN]),
        })
    }

    /// The socket's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The underlying socket, shared so a [`SharedUdpEgress`] can send
    /// from the same port ([`SharedUdpEgress::over`]) and a
    /// [`Poller`](crate::Poller) can watch it for readability.
    pub fn socket(&self) -> Arc<UdpSocket> {
        Arc::clone(&self.socket)
    }

    /// Delivery accounting for the whole socket (all streams combined).
    pub fn stats(&self) -> TransportStats {
        self.stats.clone()
    }

    /// Datagrams that decoded fine but carried a stream id with no
    /// registered route.  Each is also counted in
    /// [`dropped`](TransportStats::dropped).
    pub fn unknown_streams(&self) -> u64 {
        self.unknown_streams.load(Ordering::Relaxed)
    }

    /// `recv_from` failures other than `WouldBlock` (for example an ICMP
    /// error queued on the socket).  Each ends its
    /// [`drain_batch`](Self::drain_batch) pass; no datagram is counted.
    pub fn io_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    /// Number of currently registered stream routes.
    pub fn route_count(&self) -> usize {
        self.lock_routes().len()
    }

    /// Registers an owned route for `stream` and returns the receiving end
    /// of its pipe.
    ///
    /// # Errors
    ///
    /// [`SharedUdpError::StreamTaken`] if the stream id is already routed.
    pub fn open_stream(&self, stream: StreamId) -> Result<DetachableReceiver<Packet>, SharedUdpError> {
        let (tx, rx) = pipe::<Packet>(self.route_capacity);
        self.open_stream_into(stream, tx)?;
        Ok(rx)
    }

    /// Registers a bridged route: datagrams for `stream` are delivered
    /// straight into `sink` (for example a proxy chain input).  Several
    /// stream ids may deliberately share one sink — a per-stream FIN on
    /// any of them then closes the shared pipe.
    ///
    /// # Errors
    ///
    /// [`SharedUdpError::StreamTaken`] if the stream id is already routed.
    pub fn open_stream_into(
        &self,
        stream: StreamId,
        sink: DetachableSender<Packet>,
    ) -> Result<(), SharedUdpError> {
        let mut routes = self.lock_routes();
        if routes.contains_key(&stream.value()) {
            return Err(SharedUdpError::StreamTaken(stream));
        }
        routes.insert(stream.value(), sink);
        Ok(())
    }

    /// Deregisters (and closes) the route for `stream`.  Returns `false`
    /// if no such route existed.
    pub fn close_stream(&self, stream: StreamId) -> bool {
        match self.lock_routes().remove(&stream.value()) {
            Some(sink) => {
                sink.close();
                true
            }
            None => false,
        }
    }

    /// Closes and deregisters every route, so every consumer observes end
    /// of stream — the ingress half of a proxy shutdown.
    pub fn close_all_streams(&self) {
        let mut routes = self.lock_routes();
        for (_, sink) in std::mem::take(&mut *routes) {
            sink.close();
        }
    }

    /// Receives and routes up to `batch_size` datagrams without blocking.
    ///
    /// Per frame: count the datagram, decode (errors counted), then route
    /// by the packet's stream id.  A per-stream FIN closes that stream's
    /// route only; frames for unregistered streams bump
    /// [`unknown_streams`](Self::unknown_streams) and are dropped; a full
    /// route drops the frame rather than stall its socket-mates.  A socket
    /// error is counted in [`io_errors`](Self::io_errors) and ends the pass
    /// like an empty socket.
    pub fn drain_batch(&self) -> SharedDrain {
        let mut scratch = self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        for _ in 0..self.batch_size {
            let len = match self.socket.recv_from(&mut scratch) {
                Ok((len, _peer)) => len,
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return SharedDrain::Empty,
                // A socket error (e.g. ICMP-induced) is consumed by the
                // failed call: count it and report "nothing readable", so
                // the driver re-arms and the next datagram wakes it.
                Err(_) => {
                    self.io_errors.fetch_add(1, Ordering::Relaxed);
                    return SharedDrain::Empty;
                }
            };
            self.stats.record_rx_datagram();
            match Packet::decode(&scratch[..len]) {
                Ok(mut packet) => {
                    // Stamp the span clock at the socket boundary so
                    // end-to-end latency covers routing and demux time too.
                    packet.stamp_ingress_ns(rapidware_telemetry::now_ns());
                    self.route(packet);
                }
                Err(_) => self.stats.record_decode_error(),
            }
        }
        SharedDrain::MoreReady
    }

    fn route(&self, packet: Packet) {
        let stream = packet.stream().value();
        let mut routes = self.lock_routes();
        let Some(sink) = routes.get(&stream) else {
            self.unknown_streams.fetch_add(1, Ordering::Relaxed);
            self.stats.record_drop();
            return;
        };
        if is_stream_fin(&packet) {
            sink.close();
            routes.remove(&stream);
            return;
        }
        // Received ⇒ counted: the counter moves before the packet becomes
        // observable to any consumer.
        self.stats.record_rx_packet();
        // Never block the drain: a full (or paused/closed) route sheds the
        // frame, UDP-style, instead of stalling neighbouring streams.
        match sink.try_send_batch(vec![packet]) {
            Ok(leftover) if leftover.is_empty() => {}
            Ok(_) | Err(_) => self.stats.record_drop(),
        }
    }

    fn lock_routes(&self) -> MutexGuard<'_, BTreeMap<u32, DetachableSender<Packet>>> {
        self.routes.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// One attached egress lane: a pipe being drained onto the shared socket
/// towards a fixed peer.
struct EgressLane {
    /// Stream id stamped on the per-stream FIN when `source` ends.
    stream: StreamId,
    peer: SocketAddr,
    source: DetachableReceiver<Packet>,
    /// Frames accepted from the pipe but not yet accepted by the OS
    /// (socket `WouldBlock`); drained before anything new is pulled.
    held: VecDeque<Packet>,
    /// The source hit EOF; the FIN still needs to go out.
    fin_due: bool,
    /// Nothing more will ever move on this lane.
    finished: bool,
}

/// The sending half of a shared socket: N lanes, each draining its own
/// pipe and sending to its own peer, multiplexed onto one socket.
///
/// Created with [`over`](Self::over) (sending from a
/// [`SharedUdpIngress`]'s port, so one port carries both directions) or
/// [`bind`](Self::bind).  The endpoint owns no thread; a driver calls
/// [`flush_batch`](Self::flush_batch) when any source pipe has data (and
/// again once the socket reports writable if it pushed back).
///
/// When a lane's pipe reports EOF the lane sends a per-stream FIN
/// ([`stream_fin_packet`](crate::stream_fin_packet)) so the remote end
/// can close exactly that stream; a pipe closed without EOF finishes the
/// lane silently (abort semantics: no FIN is owed).
pub struct SharedUdpEgress {
    socket: Arc<UdpSocket>,
    local_addr: SocketAddr,
    batch_size: usize,
    stats: TransportStats,
    lanes: Mutex<Vec<EgressLane>>,
    scratch: Mutex<Vec<u8>>,
}

impl fmt::Debug for SharedUdpEgress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedUdpEgress")
            .field("local_addr", &self.local_addr)
            .field("batch_size", &self.batch_size)
            .field("lanes", &self.lane_count())
            .finish()
    }
}

enum SendOutcome {
    Sent,
    Dropped,
    Blocked,
}

impl SharedUdpEgress {
    /// Builds an egress over an existing socket — normally a
    /// [`SharedUdpIngress::socket`], so one bound port carries both
    /// directions of all its streams.
    ///
    /// The egress sends through its own `try_clone()` of `socket`: same
    /// port, separate fd.  A [`Poller`](crate::Poller) keys registrations
    /// on the fd, so the receive half and the send half of one port can
    /// each be registered, and re-armed, without knowing about the other.
    ///
    /// # Errors
    ///
    /// Any socket error from duplicating the fd, reading the local address
    /// or switching the socket to non-blocking mode.
    pub fn over(socket: &UdpSocket, config: &crate::UdpConfig) -> io::Result<Self> {
        Self::from_socket(socket.try_clone()?, config)
    }

    /// Binds a fresh non-blocking socket on `addr` for a send-only egress.
    ///
    /// # Errors
    ///
    /// Any socket error from binding.
    pub fn bind(addr: impl ToSocketAddrs, config: &crate::UdpConfig) -> io::Result<Self> {
        Self::from_socket(UdpSocket::bind(addr)?, config)
    }

    fn from_socket(socket: UdpSocket, config: &crate::UdpConfig) -> io::Result<Self> {
        socket.set_nonblocking(true)?;
        let local_addr = socket.local_addr()?;
        Ok(Self {
            socket: Arc::new(socket),
            local_addr,
            batch_size: config.batch_size.max(1),
            stats: TransportStats::new(),
            lanes: Mutex::new(Vec::new()),
            scratch: Mutex::new(Vec::new()),
        })
    }

    /// The socket's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The socket this egress sends through (for
    /// [`Poller`](crate::Poller) registration).
    pub fn socket(&self) -> Arc<UdpSocket> {
        Arc::clone(&self.socket)
    }

    /// Delivery accounting for the whole socket (all lanes combined).
    pub fn stats(&self) -> TransportStats {
        self.stats.clone()
    }

    /// Number of attached lanes still capable of moving frames.
    pub fn lane_count(&self) -> usize {
        self.lock_lanes().iter().filter(|lane| !lane.finished).count()
    }

    /// Attaches a lane: frames from `source` are encoded and sent to
    /// `peer`, and when `source` ends a per-stream FIN for `stream` is
    /// sent.  Lanes may share a peer (distinguished by stream id) or a
    /// stream id (towards distinct peers, e.g. fanout).
    pub fn attach(&self, stream: StreamId, peer: SocketAddr, source: DetachableReceiver<Packet>) {
        self.lock_lanes().push(EgressLane {
            stream,
            peer,
            source,
            held: VecDeque::new(),
            fin_due: false,
            finished: false,
        });
    }

    /// Drains every lane's pipe onto the socket, up to `batch_size`
    /// frames per lane per pass.
    ///
    /// Returns [`SharedFlush::Blocked`] as soon as the OS refuses a send
    /// (`WouldBlock`): the refused frame is held, and the caller should
    /// retry once the socket reports writable.  Finished lanes are pruned.
    pub fn flush_batch(&self) -> SharedFlush {
        let mut lanes = self.lock_lanes();
        let mut scratch = self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        let mut progressed = false;
        let mut blocked = false;
        for lane in lanes.iter_mut() {
            if lane.finished {
                continue;
            }
            match self.flush_lane(lane, &mut scratch) {
                SharedFlush::Progress => progressed = true,
                SharedFlush::Blocked => {
                    // One refused send means the socket's buffer is full
                    // for every lane; stop the pass here.
                    blocked = true;
                    break;
                }
                SharedFlush::Idle => {}
            }
        }
        lanes.retain(|lane| !lane.finished);
        if blocked {
            SharedFlush::Blocked
        } else if progressed {
            SharedFlush::Progress
        } else {
            SharedFlush::Idle
        }
    }

    /// Moves one lane's frames: held frames first, then up to
    /// `batch_size` fresh ones from the pipe, then the FIN if due.
    fn flush_lane(&self, lane: &mut EgressLane, scratch: &mut Vec<u8>) -> SharedFlush {
        let mut progressed = false;
        while let Some(packet) = lane.held.front() {
            match self.send_frame(lane.peer, packet, scratch) {
                SendOutcome::Blocked => return SharedFlush::Blocked,
                SendOutcome::Sent | SendOutcome::Dropped => {
                    lane.held.pop_front();
                    progressed = true;
                }
            }
        }
        if !lane.fin_due {
            match lane.source.try_recv_up_to(self.batch_size) {
                Ok(batch) => {
                    let mut queue: VecDeque<Packet> = batch.into();
                    while let Some(packet) = queue.front() {
                        match self.send_frame(lane.peer, packet, scratch) {
                            SendOutcome::Blocked => {
                                lane.held = queue;
                                return SharedFlush::Blocked;
                            }
                            SendOutcome::Sent | SendOutcome::Dropped => {
                                queue.pop_front();
                                progressed = true;
                            }
                        }
                    }
                }
                Err(TryRecvError::Empty) => {}
                Err(TryRecvError::Eof) => lane.fin_due = true,
                Err(TryRecvError::Closed) => {
                    // Abort semantics: the producer side vanished without a
                    // clean end of stream, so no FIN is owed.
                    lane.finished = true;
                    return if progressed { SharedFlush::Progress } else { SharedFlush::Idle };
                }
            }
        }
        if lane.fin_due {
            match self.send_frame(lane.peer, &stream_fin_packet(lane.stream), scratch) {
                SendOutcome::Blocked => return SharedFlush::Blocked,
                SendOutcome::Sent | SendOutcome::Dropped => {
                    lane.fin_due = false;
                    lane.finished = true;
                    progressed = true;
                }
            }
        }
        if progressed {
            SharedFlush::Progress
        } else {
            SharedFlush::Idle
        }
    }

    fn send_frame(&self, peer: SocketAddr, packet: &Packet, scratch: &mut Vec<u8>) -> SendOutcome {
        if !fits_in_datagram(packet) {
            self.stats.record_drop();
            return SendOutcome::Dropped;
        }
        packet.encode_into(scratch);
        match self.socket.send_to(scratch, peer) {
            Ok(_) => {
                self.stats.record_tx();
                SendOutcome::Sent
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => SendOutcome::Blocked,
            Err(_) => {
                self.stats.record_drop();
                SendOutcome::Dropped
            }
        }
    }

    fn lock_lanes(&self) -> MutexGuard<'_, Vec<EgressLane>> {
        self.lanes.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UdpConfig;
    use rapidware_packet::{PacketKind, SeqNo};
    use std::time::{Duration, Instant};

    fn packet(stream: u32, seq: u64) -> Packet {
        Packet::new(
            StreamId::new(stream),
            SeqNo::new(seq),
            PacketKind::AudioData,
            vec![(seq % 251) as u8; 32],
        )
    }

    fn send_encoded(socket: &UdpSocket, peer: SocketAddr, packet: &Packet) {
        let mut scratch = Vec::new();
        packet.encode_into(&mut scratch);
        socket.send_to(&scratch, peer).expect("loopback send");
    }

    /// Drains the shared ingress until `predicate` holds, spinning on the
    /// non-blocking drain with a hard deadline (no sleeps-as-sync: the
    /// deadline only bounds a genuine hang).
    fn drain_until(ingress: &SharedUdpIngress, predicate: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !predicate() {
            assert!(Instant::now() < deadline, "shared drain made no progress");
            if ingress.drain_batch() == SharedDrain::Empty {
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn interleaved_streams_in_one_drain_are_demultiplexed_in_order() {
        let ingress = SharedUdpIngress::bind("127.0.0.1:0", &UdpConfig::default()).unwrap();
        let routes: Vec<_> = (1..=4)
            .map(|stream| ingress.open_stream(StreamId::new(stream)).unwrap())
            .collect();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        // Interleave 4 streams round-robin so a single batched drain pulls
        // frames from many streams back to back.
        for seq in 0..8u64 {
            for stream in 1..=4u32 {
                send_encoded(&tx, ingress.local_addr(), &packet(stream, seq));
            }
        }
        drain_until(&ingress, || ingress.stats.rx_packets() == 32);
        for (index, route) in routes.iter().enumerate() {
            let stream = index as u32 + 1;
            for seq in 0..8u64 {
                let got = route.try_recv().expect("routed frame is buffered");
                assert_eq!(got.stream().value(), stream);
                assert_eq!(got.seq().value(), seq, "per-stream order is preserved");
            }
        }
        assert_eq!(ingress.unknown_streams(), 0);
        assert_eq!(ingress.stats().dropped(), 0);
    }

    #[test]
    fn unknown_stream_frames_are_counted_and_dropped_without_poisoning_neighbours() {
        let ingress = SharedUdpIngress::bind("127.0.0.1:0", &UdpConfig::default()).unwrap();
        let route = ingress.open_stream(StreamId::new(1)).unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        send_encoded(&tx, ingress.local_addr(), &packet(1, 0));
        send_encoded(&tx, ingress.local_addr(), &packet(999, 0));
        send_encoded(&tx, ingress.local_addr(), &packet(1, 1));
        drain_until(&ingress, || ingress.stats.rx_datagrams() == 3);
        assert_eq!(ingress.unknown_streams(), 1);
        assert_eq!(ingress.stats().dropped(), 1);
        // The registered neighbour saw exactly its own frames, in order.
        assert_eq!(route.try_recv().unwrap().seq().value(), 0);
        assert_eq!(route.try_recv().unwrap().seq().value(), 1);
        assert!(route.try_recv().is_err());
    }

    #[test]
    fn a_fin_on_one_stream_does_not_end_its_socket_mates() {
        let ingress = SharedUdpIngress::bind("127.0.0.1:0", &UdpConfig::default()).unwrap();
        let ending = ingress.open_stream(StreamId::new(1)).unwrap();
        let surviving = ingress.open_stream(StreamId::new(2)).unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        send_encoded(&tx, ingress.local_addr(), &packet(1, 0));
        send_encoded(&tx, ingress.local_addr(), &stream_fin_packet(StreamId::new(1)));
        send_encoded(&tx, ingress.local_addr(), &packet(2, 0));
        drain_until(&ingress, || ingress.stats.rx_datagrams() == 3);
        assert_eq!(ending.try_recv().unwrap().seq().value(), 0);
        assert_eq!(
            ending.try_recv().unwrap_err(),
            TryRecvError::Eof,
            "the FIN ends its own stream"
        );
        assert_eq!(ingress.route_count(), 1, "only the FIN'd route is deregistered");
        assert_eq!(
            surviving.try_recv().unwrap().stream().value(),
            2,
            "the socket-mate keeps flowing"
        );
        // A late frame for the ended stream is now unknown: counted, not
        // delivered, and the survivor is untouched.
        send_encoded(&tx, ingress.local_addr(), &packet(1, 1));
        drain_until(&ingress, || ingress.stats.rx_datagrams() == 4);
        assert_eq!(ingress.unknown_streams(), 1);
    }

    #[test]
    fn a_full_route_sheds_frames_without_stalling_the_drain() {
        let config = UdpConfig::default().with_capacity(4).with_batch_size(64);
        let ingress = SharedUdpIngress::bind("127.0.0.1:0", &config).unwrap();
        let narrow = ingress.open_stream(StreamId::new(1)).unwrap();
        let neighbour = ingress.open_stream(StreamId::new(2)).unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        // 8 frames into a capacity-4 route, then one for the neighbour.
        for seq in 0..8u64 {
            send_encoded(&tx, ingress.local_addr(), &packet(1, seq));
        }
        send_encoded(&tx, ingress.local_addr(), &packet(2, 0));
        drain_until(&ingress, || ingress.stats.rx_datagrams() == 9);
        assert_eq!(ingress.stats().rx_packets(), 9, "received ⇒ counted, even when shed");
        assert_eq!(ingress.stats().dropped(), 4, "overflow beyond capacity is shed");
        let mut delivered = 0;
        while narrow.try_recv().is_ok() {
            delivered += 1;
        }
        assert_eq!(delivered, 4);
        assert_eq!(neighbour.try_recv().unwrap().stream().value(), 2, "neighbour unaffected");
    }

    #[test]
    fn a_socket_error_is_counted_and_ends_the_pass_like_an_empty_socket() {
        let ingress = SharedUdpIngress::bind("127.0.0.1:0", &UdpConfig::default()).unwrap();
        let _route = ingress.open_stream(StreamId::new(1)).unwrap();
        // Queue an ICMP port-unreachable on the ingress socket: a connected
        // UDP socket that sends to a closed loopback port gets
        // ECONNREFUSED from its next receive.
        let closed = UdpSocket::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        ingress.socket.connect(closed).unwrap();
        ingress.socket.send(b"anyone there?").unwrap();
        drain_until(&ingress, || ingress.io_errors() == 1);
        assert_eq!(ingress.drain_batch(), SharedDrain::Empty, "the error was consumed");
        assert_eq!(ingress.io_errors(), 1);
        assert_eq!(ingress.stats().rx_datagrams(), 0, "an error is not a datagram");
        assert_eq!(ingress.route_count(), 1, "routes are untouched");
    }

    #[test]
    fn egress_lanes_multiplex_onto_one_socket_and_fin_per_stream() {
        let config = UdpConfig::default();
        // Two app-side shared ingresses play the remote peers.
        let peer_a = SharedUdpIngress::bind("127.0.0.1:0", &config).unwrap();
        let peer_b = SharedUdpIngress::bind("127.0.0.1:0", &config).unwrap();
        let route_a = peer_a.open_stream(StreamId::new(1)).unwrap();
        let route_b = peer_b.open_stream(StreamId::new(2)).unwrap();
        let egress = SharedUdpEgress::bind("127.0.0.1:0", &config).unwrap();
        let (tx_a, rx_a) = pipe::<Packet>(16);
        let (tx_b, rx_b) = pipe::<Packet>(16);
        egress.attach(StreamId::new(1), peer_a.local_addr(), rx_a);
        egress.attach(StreamId::new(2), peer_b.local_addr(), rx_b);
        tx_a.send(packet(1, 0)).unwrap();
        tx_b.send(packet(2, 0)).unwrap();
        tx_a.close();
        let deadline = Instant::now() + Duration::from_secs(30);
        while egress.lane_count() > 1 {
            assert!(Instant::now() < deadline, "egress made no progress");
            egress.flush_batch();
        }
        // Lane A delivered its frame and its per-stream FIN; lane B is
        // still live.
        drain_until(&peer_a, || peer_a.stats().rx_datagrams() == 2);
        assert_eq!(route_a.try_recv().unwrap().seq().value(), 0);
        assert_eq!(route_a.try_recv().unwrap_err(), TryRecvError::Eof);
        drain_until(&peer_b, || peer_b.stats().rx_packets() == 1);
        assert_eq!(route_b.try_recv().unwrap().stream().value(), 2);
        assert!(route_b.try_recv().is_err());
        assert_eq!(egress.stats().tx_packets(), 3, "two data frames plus one FIN");
        assert_eq!(egress.lane_count(), 1);
    }

    #[test]
    fn a_closed_lane_finishes_silently_without_a_fin() {
        let config = UdpConfig::default();
        let peer = SharedUdpIngress::bind("127.0.0.1:0", &config).unwrap();
        let route = peer.open_stream(StreamId::new(1)).unwrap();
        let egress = SharedUdpEgress::bind("127.0.0.1:0", &config).unwrap();
        let (tx, rx) = pipe::<Packet>(16);
        let abort_handle = rx.clone();
        egress.attach(StreamId::new(1), peer.local_addr(), rx);
        tx.send(packet(1, 0)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        while egress.stats().tx_packets() < 1 {
            assert!(Instant::now() < deadline, "egress made no progress");
            egress.flush_batch();
        }
        // Receiver-side close is the abort path: the lane finishes without
        // sending a FIN.
        abort_handle.close();
        while egress.lane_count() > 0 {
            assert!(Instant::now() < deadline, "egress made no progress");
            egress.flush_batch();
        }
        assert_eq!(egress.stats().tx_packets(), 1, "no FIN after an abort");
        drop(tx);
        let _ = route;
    }

    #[test]
    fn duplicate_stream_registration_is_rejected() {
        let ingress = SharedUdpIngress::bind("127.0.0.1:0", &UdpConfig::default()).unwrap();
        let _route = ingress.open_stream(StreamId::new(7)).unwrap();
        assert_eq!(
            ingress.open_stream(StreamId::new(7)).unwrap_err(),
            SharedUdpError::StreamTaken(StreamId::new(7))
        );
        assert!(ingress.close_stream(StreamId::new(7)));
        assert!(!ingress.close_stream(StreamId::new(7)));
        let _reopened = ingress.open_stream(StreamId::new(7)).unwrap();
    }
}
