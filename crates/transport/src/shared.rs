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
//!   socket ──▶ drain_batch: recv_from × batch ──decode──▶ route runs by stream id
//!          ──▶ per stream: its inlet (the consumer runs the run in place), else its pipe
//!   pipe per lane ──▶ flush_batch: gather ──encode──▶ one arena ──coalesce──▶ one sendmmsg ──▶ socket
//! ```
//!
//! A route's [`RouteInlet`], if it has one, may take a run on the
//! draining thread instead: no pipe push, no task wake.
//!
//! The send half crosses into the kernel once per pass, not once per
//! frame: every lane's frames are encoded end to end into one arena,
//! neighbouring equal-length frames towards one peer leave as a single
//! `UDP_SEGMENT` message that the kernel cuts back into datagrams, and the
//! whole pass is one `sendmmsg` (the `mmsg` module holds the FFI).
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
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use rapidware_packet::{Packet, StreamId};
use rapidware_streams::{pipe, DetachableReceiver, DetachableSender, TryRecvError};
use rapidware_telemetry::Histogram;

use crate::mmsg::{refuses_segmentation, Message, SendBatch, MAX_SEGMENTS};
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
    /// Some lane filled its batch and may hold more: run another pass.
    Progress,
    /// Nothing is left to send: whatever the pass found went out, and
    /// every source pipe was seen empty, ended or closed — a frame that
    /// arrives from now on fires its pipe's data watcher.
    Idle,
    /// The socket stopped accepting (`WouldBlock`); the unsent frames are
    /// held and the caller should retry once the socket reports writable.
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
    routes: Mutex<BTreeMap<u32, Route>>,
    scratch: Mutex<DrainScratch>,
}

/// A route's consumer, offered each run before the pipe: one that can run
/// the frames to completion at once (in a proxy, a caught-up chain or
/// session) takes them on the draining thread.  `offer` must not block,
/// and may take a run only when nothing delivered to the pipe earlier
/// still waits there, so per-stream order holds.
pub trait RouteInlet: Send + Sync {
    /// Takes `run` — consecutive frames of one stream, already counted as
    /// received — and returns `None`, or hands it back untouched to go
    /// through the route's pipe.
    fn offer(&self, run: Vec<Packet>) -> Option<Vec<Packet>>;
}

/// One registered stream: the pipe its frames are delivered into, and the
/// consumer offered them first, if any.
struct Route {
    sink: DetachableSender<Packet>,
    inlet: Option<Arc<dyn RouteInlet>>,
}

/// What one drain pass works in: the receive buffer and the decoded frames
/// waiting to be routed (empty between passes).
struct DrainScratch {
    datagram: Vec<u8>,
    pass: Vec<Packet>,
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
            scratch: Mutex::new(DrainScratch {
                datagram: vec![0u8; MAX_DATAGRAM_LEN],
                pass: Vec::new(),
            }),
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
        self.open_route(stream, Route { sink, inlet: None })
    }

    /// Registers a bridged route whose runs are first offered to `inlet`
    /// (see [`RouteInlet`]); what it hands back is delivered into `sink`,
    /// as with [`open_stream_into`](Self::open_stream_into).
    ///
    /// # Errors
    ///
    /// [`SharedUdpError::StreamTaken`] if the stream id is already routed.
    pub fn open_stream_with_inlet(
        &self,
        stream: StreamId,
        sink: DetachableSender<Packet>,
        inlet: Arc<dyn RouteInlet>,
    ) -> Result<(), SharedUdpError> {
        self.open_route(stream, Route { sink, inlet: Some(inlet) })
    }

    fn open_route(&self, stream: StreamId, route: Route) -> Result<(), SharedUdpError> {
        let mut routes = self.lock_routes();
        if routes.contains_key(&stream.value()) {
            return Err(SharedUdpError::StreamTaken(stream));
        }
        routes.insert(stream.value(), route);
        Ok(())
    }

    /// Deregisters (and closes) the route for `stream`.  Returns `false`
    /// if no such route existed.
    pub fn close_stream(&self, stream: StreamId) -> bool {
        match self.lock_routes().remove(&stream.value()) {
            Some(route) => {
                route.sink.close();
                true
            }
            None => false,
        }
    }

    /// Closes and deregisters every route, so every consumer observes end
    /// of stream — the ingress half of a proxy shutdown.
    pub fn close_all_streams(&self) {
        let mut routes = self.lock_routes();
        for (_, route) in std::mem::take(&mut *routes) {
            route.sink.close();
        }
    }

    /// Receives and routes up to `batch_size` datagrams without blocking.
    ///
    /// Per frame: count the datagram, decode (errors counted); then the
    /// whole pass is routed by stream id under one hold of the route table,
    /// each run of consecutive frames of one stream with a single
    /// hand-off: to the route's [`RouteInlet`] if it takes the run, else
    /// to its pipe (one watcher fire).  A per-stream FIN closes
    /// that stream's route only, after the frames that preceded it; frames
    /// for unregistered streams bump
    /// [`unknown_streams`](Self::unknown_streams) and are dropped; a full
    /// route drops the frames it has no room for rather than stall its
    /// socket-mates.  A socket error is counted in
    /// [`io_errors`](Self::io_errors) and ends the pass like an empty
    /// socket.
    pub fn drain_batch(&self) -> SharedDrain {
        let mut scratch = self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        let DrainScratch { datagram, pass } = &mut *scratch;
        let mut outcome = SharedDrain::MoreReady;
        for _ in 0..self.batch_size {
            let len = match self.socket.recv_from(datagram) {
                Ok((len, _peer)) => len,
                Err(err) => {
                    // A socket error (e.g. ICMP-induced) is consumed by the
                    // failed call: count it and report "nothing readable",
                    // so the driver re-arms and the next datagram wakes it.
                    if err.kind() != io::ErrorKind::WouldBlock {
                        self.io_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    outcome = SharedDrain::Empty;
                    break;
                }
            };
            self.stats.record_rx_datagram();
            match Packet::decode(&datagram[..len]) {
                Ok(mut packet) => {
                    // Stamp the span clock at the socket boundary so
                    // end-to-end latency covers routing and demux time too.
                    packet.stamp_ingress_ns(rapidware_telemetry::now_ns());
                    pass.push(packet);
                }
                Err(_) => self.stats.record_decode_error(),
            }
        }
        self.route(pass);
        outcome
    }

    /// Routes a drained pass in arrival order, as runs of consecutive
    /// frames of one stream.
    fn route(&self, pass: &mut Vec<Packet>) {
        if pass.is_empty() {
            return;
        }
        let mut routes = self.lock_routes();
        let mut run: Vec<Packet> = Vec::new();
        for packet in pass.drain(..) {
            let stream = packet.stream().value();
            if run.first().is_some_and(|head| head.stream().value() != stream) {
                self.deliver(&routes, std::mem::take(&mut run));
            }
            if is_stream_fin(&packet) && routes.contains_key(&stream) {
                // The stream's earlier frames of this pass go first.
                self.deliver(&routes, std::mem::take(&mut run));
                if let Some(route) = routes.remove(&stream) {
                    route.sink.close();
                }
                continue;
            }
            run.push(packet);
        }
        self.deliver(&routes, run);
    }

    /// Hands one stream's run to its route.
    fn deliver(&self, routes: &BTreeMap<u32, Route>, run: Vec<Packet>) {
        let Some(head) = run.first() else {
            return;
        };
        let Some(route) = routes.get(&head.stream().value()) else {
            self.unknown_streams.fetch_add(run.len() as u64, Ordering::Relaxed);
            self.stats.record_drops(run.len());
            return;
        };
        // Received ⇒ counted: the counter moves before the packets become
        // observable to any consumer.
        self.stats.record_rx_packets(run.len());
        let offered = match &route.inlet {
            Some(inlet) => inlet.offer(run),
            None => Some(run),
        };
        let Some(run) = offered else { return };
        // Never block the drain: a full (or paused/closed) route sheds what
        // it cannot take, UDP-style, instead of stalling neighbouring
        // streams.
        let shed = match route.sink.try_send_batch(run) {
            Ok(leftover) => leftover,
            Err(err) => err.into_inner(),
        };
        self.stats.record_drops(shed.len());
    }

    fn lock_routes(&self) -> MutexGuard<'_, BTreeMap<u32, Route>> {
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
    /// Frames pulled from the pipe that the OS has not accepted yet (their
    /// pass ended `Blocked`); they lead the lane's next pass.
    held: VecDeque<Packet>,
    /// The source hit EOF; the FIN still needs to go out.
    fin_due: bool,
    /// Nothing more will ever be pulled from `source`.
    finished: bool,
}

/// One frame of a pass.  Records sit in the order their frames were encoded
/// into the arena: lane by lane, each lane's own order kept.
struct Record {
    /// Index of the lane the frame came from.
    lane: usize,
    /// `None` is the lane's FIN.
    packet: Option<Packet>,
    /// The frame's encoded length.
    len: usize,
}

/// The submit step of a pass: offers messages — ranges of the arena — to
/// the kernel in one crossing and returns how many of them, from the
/// front, it took.  [`SendBatch::send`] on a real egress; the unit tests
/// script it.
type Submit = Box<dyn FnMut(&UdpSocket, &[u8], &[Message]) -> io::Result<usize> + Send>;

/// Everything a flush pass works on, under one lock.
struct EgressState {
    /// Lanes towards one peer sit next to each other, so that their frames
    /// are neighbours in a pass and can share a segmented message.
    lanes: Vec<EgressLane>,
    /// The frames of the running pass, encoded end to end.
    arena: Vec<u8>,
    records: Vec<Record>,
    messages: Vec<Message>,
    /// Cleared for good the first time the kernel refuses a segmented
    /// message on this socket.
    coalesce: bool,
    submit: Submit,
}

/// Where an egress records the shape of its sends once telemetry is on.
struct SendShape {
    flush_batch: Arc<Histogram>,
    tx_segments: Arc<Histogram>,
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
    state: Mutex<EgressState>,
    shape: OnceLock<SendShape>,
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
        let mut batch = SendBatch::default();
        Self::with_submit(
            socket,
            config,
            Box::new(move |socket, arena, messages| batch.send(socket, arena, messages)),
        )
    }

    fn with_submit(
        socket: UdpSocket,
        config: &crate::UdpConfig,
        submit: Submit,
    ) -> io::Result<Self> {
        socket.set_nonblocking(true)?;
        let local_addr = socket.local_addr()?;
        Ok(Self {
            socket: Arc::new(socket),
            local_addr,
            batch_size: config.batch_size.max(1),
            stats: TransportStats::new(),
            state: Mutex::new(EgressState {
                lanes: Vec::new(),
                arena: Vec::new(),
                records: Vec::new(),
                messages: Vec::new(),
                coalesce: true,
                submit,
            }),
            shape: OnceLock::new(),
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

    /// Starts recording the shape of this egress's sends: into
    /// `flush_batch` the frames each kernel crossing carried, into
    /// `tx_segments` the datagrams each message of a crossing was cut into
    /// (1 for a frame sent on its own).  The first call wins.
    pub fn record_send_shape(&self, flush_batch: Arc<Histogram>, tx_segments: Arc<Histogram>) {
        let _ = self.shape.set(SendShape {
            flush_batch,
            tx_segments,
        });
    }

    /// Number of attached lanes still capable of moving frames.
    pub fn lane_count(&self) -> usize {
        self.lock_state().lanes.len()
    }

    /// Attaches a lane: frames from `source` are encoded and sent to
    /// `peer`, and when `source` ends a per-stream FIN for `stream` is
    /// sent.  Lanes may share a peer (distinguished by stream id) or a
    /// stream id (towards distinct peers, e.g. fanout).
    pub fn attach(&self, stream: StreamId, peer: SocketAddr, source: DetachableReceiver<Packet>) {
        let lanes = &mut self.lock_state().lanes;
        // Behind the last lane towards the same peer (see `EgressState`).
        let at = lanes
            .iter()
            .rposition(|lane| lane.peer == peer)
            .map_or(lanes.len(), |last| last + 1);
        lanes.insert(
            at,
            EgressLane {
                stream,
                peer,
                source,
                held: VecDeque::new(),
                fin_due: false,
                finished: false,
            },
        );
    }

    /// Drains every lane's pipe onto the socket, up to `batch_size`
    /// frames per lane per pass, in one kernel crossing.
    ///
    /// A pass **gathers** each lane's held frames, then fresh ones from its
    /// pipe, then its FIN if the pipe ended, encoding every frame once into
    /// one arena; **coalesces** neighbouring frames towards one peer that
    /// share a wire length (the last of a run may be shorter) into one
    /// message the kernel cuts back into datagrams (`UDP_SEGMENT`), within
    /// the kernel's limits of 64 segments and one datagram's worth of
    /// bytes; and **submits** all messages with one `sendmmsg`.  A frame
    /// alone in its run is an ordinary datagram; what arrives at each peer
    /// is byte for byte what a `send_to` per frame would have put there,
    /// each lane's frames in order.
    ///
    /// Returns [`SharedFlush::Blocked`] when the OS stopped accepting
    /// (`WouldBlock`): the frames it did not take are held, in order, and
    /// the caller should retry once the socket reports writable.  A
    /// segmented message the kernel refuses (no offload on the route, a
    /// frame above the path MTU) is re-submitted as single datagrams in the
    /// same pass, counted in [`gso_refused`](TransportStats::gso_refused),
    /// and the socket stops coalescing.  Returns [`SharedFlush::Progress`]
    /// only when some lane filled its `batch_size` and may hold more; a
    /// frame that lands in a pipe after the pass looked at it fires that
    /// pipe's watcher.  Finished lanes are pruned.
    pub fn flush_batch(&self) -> SharedFlush {
        let mut state = self.lock_state();
        let state = &mut *state;
        let mut more = false;
        for index in 0..state.lanes.len() {
            more |= self.gather(state, index);
        }
        cut_messages(&mut state.messages, &state.records, &state.lanes, state.coalesce);
        let (sent, blocked) = self.submit(state);
        // Settle: what the OS did not take goes back to its lane, in order.
        let EgressState { lanes, records, .. } = state;
        for (index, record) in records.drain(..).enumerate() {
            let lane = &mut lanes[record.lane];
            match record.packet {
                Some(packet) if index >= sent => lane.held.push_back(packet),
                None if index < sent => {
                    lane.fin_due = false;
                    lane.finished = true;
                }
                _ => {}
            }
        }
        lanes.retain(|lane| !lane.finished || !lane.held.is_empty());
        state.arena.clear();
        state.messages.clear();
        if blocked {
            SharedFlush::Blocked
        } else if more {
            SharedFlush::Progress
        } else {
            SharedFlush::Idle
        }
    }

    /// Moves one lane's share of a pass into the arena: held frames first,
    /// then fresh ones until the lane's `batch_size` is used up or its pipe
    /// has answered empty, ended or closed — so that whatever reaches the
    /// pipe later fires its watcher — then the FIN if one is due.  Returns
    /// `true` if the batch filled: the pipe may hold more.
    fn gather(&self, state: &mut EgressState, index: usize) -> bool {
        let EgressState {
            lanes,
            arena,
            records,
            ..
        } = state;
        let lane = &mut lanes[index];
        let stream = lane.stream;
        // `None` encodes the lane's FIN.
        let mut push = |packet: Option<Packet>| {
            let fin;
            let frame = match &packet {
                Some(packet) => packet,
                None => {
                    fin = stream_fin_packet(stream);
                    &fin
                }
            };
            if !fits_in_datagram(frame) {
                self.stats.record_drops(1);
                return;
            }
            let start = arena.len();
            frame.encode_append(arena);
            records.push(Record {
                lane: index,
                packet,
                len: arena.len() - start,
            });
        };
        let mut room = self.batch_size.saturating_sub(lane.held.len());
        lane.held.drain(..).for_each(|packet| push(Some(packet)));
        while room > 0 && !lane.fin_due && !lane.finished {
            match lane.source.try_recv_up_to(room) {
                Ok(batch) => {
                    room -= batch.len();
                    batch.into_iter().for_each(|packet| push(Some(packet)));
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Eof) => lane.fin_due = true,
                // Abort semantics: the producer side vanished without a
                // clean end of stream, so no FIN is owed.
                Err(TryRecvError::Closed) => lane.finished = true,
            }
        }
        if lane.fin_due {
            push(None);
        }
        room == 0
    }

    /// Offers the pass's messages to the kernel until all are dealt with or
    /// the socket pushes back.  Returns how many records, from the front,
    /// are settled (sent, or dropped and counted) and whether the pass
    /// ended on `WouldBlock`.
    fn submit(&self, state: &mut EgressState) -> (usize, bool) {
        let EgressState {
            lanes,
            arena,
            records,
            messages,
            coalesce,
            submit,
        } = state;
        let mut next = 0; // first message not yet dealt with
        let mut settled = 0; // records behind `messages[..next]`
        while next < messages.len() {
            self.stats.record_tx_batch();
            match submit(&self.socket, arena, &messages[next..]) {
                // `sendmmsg` takes at least one message or fails.
                Ok(0) => return (settled, true),
                Ok(taken) => {
                    let taken = &messages[next..next + taken];
                    let frames: usize = taken.iter().map(Message::segments).sum();
                    self.stats.record_tx(frames);
                    if let Some(shape) = self.shape.get() {
                        shape.flush_batch.record(frames as u64);
                        for message in taken {
                            shape.tx_segments.record(message.segments() as u64);
                        }
                    }
                    settled += frames;
                    next += taken.len();
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return (settled, true),
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(err) if messages[next].segments() > 1 && refuses_segmentation(&err) => {
                    // No offload on this route, or a frame above its MTU:
                    // the rest of the pass goes out one datagram per frame,
                    // and so does everything after it.
                    self.stats.record_gso_refused();
                    *coalesce = false;
                    messages.truncate(next);
                    cut_messages(messages, &records[settled..], lanes, false);
                }
                // As a refused `send_to` always was: a counted drop.
                Err(_) => {
                    let frames = messages[next].segments();
                    self.stats.record_drops(frames);
                    settled += frames;
                    next += 1;
                }
            }
        }
        (settled, false)
    }

    fn lock_state(&self) -> MutexGuard<'_, EgressState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Appends the messages for `records` — which lie in the arena directly
/// behind the last of `messages` — one per run of neighbouring frames that
/// go to the same peer with the same length, where the last frame of a run
/// may be shorter; with `coalesce` off, one per frame.
fn cut_messages(
    messages: &mut Vec<Message>,
    records: &[Record],
    lanes: &[EgressLane],
    coalesce: bool,
) {
    let mut start = messages.last().map_or(0, |last| last.start + last.len);
    let mut open = false; // the last message is a run that may still grow
    for record in records {
        let peer = lanes[record.lane].peer;
        let len = record.len;
        match messages.last_mut() {
            Some(run)
                if open
                    && run.peer == peer
                    && len <= run.segment
                    && run.segments() < MAX_SEGMENTS
                    && run.len + len <= MAX_DATAGRAM_LEN =>
            {
                run.len += len;
                open = len == run.segment;
            }
            _ => {
                messages.push(Message {
                    peer,
                    start,
                    len,
                    segment: len,
                });
                open = coalesce;
            }
        }
        start += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{UdpConfig, STREAM_FIN_SEQ};
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
    fn a_run_of_one_stream_is_one_hand_off_and_a_mid_pass_fin_follows_its_frames() {
        struct Fires(AtomicU64);
        impl rapidware_streams::PipeWatcher for Fires {
            fn notify(&self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let ingress = SharedUdpIngress::bind("127.0.0.1:0", &UdpConfig::default()).unwrap();
        let first = ingress.open_stream(StreamId::new(1)).unwrap();
        let second = ingress.open_stream(StreamId::new(2)).unwrap();
        let fires = Arc::new(Fires(AtomicU64::new(0)));
        first.set_data_watcher(fires.clone());
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        // One pass: six frames of stream 1, its FIN, a straggler behind the
        // FIN, then two frames of stream 2.
        for seq in 0..6u64 {
            send_encoded(&tx, ingress.local_addr(), &packet(1, seq));
        }
        send_encoded(&tx, ingress.local_addr(), &stream_fin_packet(StreamId::new(1)));
        send_encoded(&tx, ingress.local_addr(), &packet(1, 6));
        send_encoded(&tx, ingress.local_addr(), &packet(2, 0));
        send_encoded(&tx, ingress.local_addr(), &packet(2, 1));
        // Loopback delivery is synchronous: all ten are queued already.
        assert_eq!(ingress.drain_batch(), SharedDrain::Empty);
        assert_eq!(ingress.stats().rx_datagrams(), 10);
        assert_eq!(
            fires.0.load(Ordering::SeqCst),
            2,
            "one fire for the run of six, one for the FIN's end of stream"
        );
        let delivered = first.try_recv_up_to(16).unwrap();
        let seqs: Vec<u64> = delivered.iter().map(|p| p.seq().value()).collect();
        assert_eq!(seqs, [0, 1, 2, 3, 4, 5], "the FIN closed the route behind its frames");
        assert_eq!(first.try_recv().unwrap_err(), TryRecvError::Eof);
        assert_eq!(ingress.unknown_streams(), 1, "the straggler found no route");
        assert_eq!(ingress.stats().dropped(), 1);
        assert_eq!(ingress.stats().rx_packets(), 8);
        assert_eq!(second.try_recv_up_to(16).unwrap().len(), 2);
    }

    #[test]
    fn a_route_inlet_is_offered_each_run_first_and_its_refusals_take_the_pipe() {
        /// Takes every other run, counting what it saw as received.
        struct EveryOther {
            ingress: TransportStats,
            taken: Mutex<Vec<u64>>,
            offers: AtomicU64,
        }
        impl RouteInlet for EveryOther {
            fn offer(&self, run: Vec<Packet>) -> Option<Vec<Packet>> {
                let counted = self.ingress.rx_packets();
                let seen = self.taken.lock().unwrap().len() as u64;
                assert!(counted >= seen + run.len() as u64, "offered before it was counted");
                if self.offers.fetch_add(1, Ordering::SeqCst) % 2 == 1 {
                    return Some(run);
                }
                self.taken.lock().unwrap().extend(run.iter().map(|p| p.seq().value()));
                None
            }
        }
        let ingress = SharedUdpIngress::bind("127.0.0.1:0", &UdpConfig::default()).unwrap();
        let inlet = Arc::new(EveryOther {
            ingress: ingress.stats(),
            taken: Mutex::new(Vec::new()),
            offers: AtomicU64::new(0),
        });
        let (sink, piped) = pipe::<Packet>(64);
        ingress.open_stream_with_inlet(StreamId::new(1), sink, inlet.clone()).unwrap();
        let plain = ingress.open_stream(StreamId::new(2)).unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        // Runs of stream 1 — [0 1] [2] [3 4] [5] — split by stream 2's frames.
        for (stream, seq) in [(1, 0), (1, 1), (2, 0), (1, 2), (2, 1), (1, 3), (1, 4), (2, 2)] {
            send_encoded(&tx, ingress.local_addr(), &packet(stream, seq));
        }
        send_encoded(&tx, ingress.local_addr(), &packet(1, 5));
        drain_until(&ingress, || ingress.stats.rx_packets() == 9);
        assert_eq!(*inlet.taken.lock().unwrap(), [0, 1, 3, 4]);
        let queued = piped.try_recv_up_to(16).unwrap();
        assert_eq!(queued.iter().map(|p| p.seq().value()).collect::<Vec<_>>(), [2, 5]);
        assert_eq!(plain.try_recv_up_to(16).unwrap().len(), 3, "inlet-free routes are untouched");
        assert_eq!(ingress.stats().dropped(), 0);
        // A FIN still closes the route behind the frames that preceded it.
        send_encoded(&tx, ingress.local_addr(), &stream_fin_packet(StreamId::new(1)));
        drain_until(&ingress, || ingress.route_count() == 1);
        assert_eq!(piped.try_recv().unwrap_err(), TryRecvError::Eof);
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

    /// The kernel as the scripted-submit tests see it: what it was offered,
    /// how it was told to answer, and what it put on the wire.
    #[derive(Default)]
    struct Kernel {
        /// Answers for the next crossings, in order; once empty, every
        /// message is taken.
        script: VecDeque<io::Result<usize>>,
        /// Per crossing, the segment count of each message offered.
        offered: Vec<Vec<usize>>,
        /// Every datagram taken, cut at the segment boundaries.
        wire: Vec<(SocketAddr, Vec<u8>)>,
        /// Runs at the start of the next crossing — "meanwhile, …".
        meanwhile: Option<Box<dyn FnOnce() + Send>>,
    }

    impl Kernel {
        /// The `(stream, seq)` of every datagram on the wire, in order.
        fn frames(&self) -> Vec<(u32, u64)> {
            self.wire
                .iter()
                .map(|(_, datagram)| {
                    let packet = Packet::decode(datagram).expect("the wire carries whole frames");
                    (packet.stream().value(), packet.seq().value())
                })
                .collect()
        }
    }

    /// An egress (batch size 8) whose submit step is `kernel`.
    fn scripted_egress(kernel: &Arc<Mutex<Kernel>>) -> SharedUdpEgress {
        scripted_egress_with(kernel, 8)
    }

    fn scripted_egress_with(kernel: &Arc<Mutex<Kernel>>, batch_size: usize) -> SharedUdpEgress {
        let kernel = Arc::clone(kernel);
        let submit: Submit = Box::new(move |_socket, arena, messages| {
            let mut kernel = kernel.lock().unwrap();
            if let Some(meanwhile) = kernel.meanwhile.take() {
                meanwhile();
            }
            kernel.offered.push(messages.iter().map(Message::segments).collect());
            let taken = match kernel.script.pop_front() {
                Some(answer) => answer?.min(messages.len()),
                None => messages.len(),
            };
            for message in &messages[..taken] {
                let payload = &arena[message.start..][..message.len];
                for datagram in payload.chunks(message.segment) {
                    kernel.wire.push((message.peer, datagram.to_vec()));
                }
            }
            Ok(taken)
        });
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let config = UdpConfig::default().with_batch_size(batch_size);
        SharedUdpEgress::with_submit(socket, &config, submit).unwrap()
    }

    fn sized(stream: u32, seq: u64, payload: usize) -> Packet {
        Packet::new(
            StreamId::new(stream),
            SeqNo::new(seq),
            PacketKind::Data,
            vec![seq as u8; payload],
        )
    }

    fn peer(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    #[test]
    fn neighbouring_equal_frames_share_a_message_within_the_kernel_limits() {
        let kernel = Arc::new(Mutex::new(Kernel::default()));
        let egress = scripted_egress(&kernel);
        let (tx_a, rx_a) = pipe::<Packet>(16);
        let (tx_b, rx_b) = pipe::<Packet>(16);
        let (tx_c, rx_c) = pipe::<Packet>(16);
        // A and C share a peer, so C is gathered right behind A although B
        // was attached in between.
        egress.attach(StreamId::new(1), peer(1001), rx_a);
        egress.attach(StreamId::new(2), peer(1002), rx_b);
        egress.attach(StreamId::new(3), peer(1001), rx_c);
        tx_a.send_batch((0..3).map(|seq| sized(1, seq, 100)).collect()).unwrap();
        // 100, 100, a shorter 60 (closes the run), 100, a longer 120.
        tx_c.send_batch(
            [100, 100, 60, 100, 120]
                .iter()
                .enumerate()
                .map(|(seq, &len)| sized(3, seq as u64, len))
                .collect(),
        )
        .unwrap();
        tx_b.send(sized(2, 0, 100)).unwrap();
        tx_b.close();
        assert_eq!(egress.flush_batch(), SharedFlush::Idle, "no lane filled its batch");
        let kernel = kernel.lock().unwrap();
        // A's three and C's first three in one message, C's 100 alone (120
        // is longer), 120 alone; then B's frame with its shorter FIN.
        assert_eq!(kernel.offered, [vec![6, 1, 1, 2]], "one crossing for the pass");
        assert_eq!(
            kernel.frames(),
            [
                (1, 0), (1, 1), (1, 2), (3, 0), (3, 1), (3, 2), (3, 3), (3, 4),
                (2, 0), (2, STREAM_FIN_SEQ),
            ]
        );
        assert!(kernel.wire[..8].iter().all(|(to, _)| *to == peer(1001)));
        assert_eq!(egress.stats().tx_packets(), 10);
        assert_eq!(egress.stats().tx_datagrams(), 10);
        assert_eq!(egress.stats().tx_batches(), 1);
        assert_eq!(egress.lane_count(), 2, "B sent its FIN and is pruned");
        drop(kernel);

        // 65 equal frames: the 65th starts a new message.  Four frames of
        // 30 000 bytes: only two fit one datagram's worth.
        for (count, payload, shapes) in [(65, 10, [64, 1]), (4, 30_000, [2, 2])] {
            let kernel = Arc::new(Mutex::new(Kernel::default()));
            let egress = scripted_egress_with(&kernel, 128);
            let (tx, rx) = pipe::<Packet>(128);
            egress.attach(StreamId::new(1), peer(1001), rx);
            tx.send_batch((0..count).map(|seq| sized(1, seq, payload)).collect()).unwrap();
            assert_eq!(egress.flush_batch(), SharedFlush::Idle);
            let kernel = kernel.lock().unwrap();
            assert_eq!(kernel.offered, [shapes]);
            assert_eq!(kernel.wire.len() as u64, count);
        }
    }

    #[test]
    fn a_partially_accepted_pass_holds_the_unsent_suffix_in_lane_order() {
        let kernel = Arc::new(Mutex::new(Kernel::default()));
        let egress = scripted_egress(&kernel);
        let (tx_a, rx_a) = pipe::<Packet>(16);
        let (tx_b, rx_b) = pipe::<Packet>(16);
        egress.attach(StreamId::new(1), peer(1001), rx_a);
        egress.attach(StreamId::new(2), peer(1002), rx_b);
        // Growing lengths: every frame of A is a message of its own.
        tx_a.send_batch((0..4).map(|seq| sized(1, seq, 40 + 10 * seq as usize)).collect())
            .unwrap();
        tx_b.send_batch((0..3).map(|seq| sized(2, seq, 64)).collect()).unwrap();
        tx_b.close();
        // Two of A's four are taken, then the socket is full.
        kernel.lock().unwrap().script =
            VecDeque::from([Ok(2), Err(io::ErrorKind::WouldBlock.into())]);
        assert_eq!(egress.flush_batch(), SharedFlush::Blocked);
        assert_eq!(kernel.lock().unwrap().offered, [vec![1, 1, 1, 1, 4], vec![1, 1, 4]]);
        assert_eq!(kernel.lock().unwrap().frames(), [(1, 0), (1, 1)]);
        assert_eq!(egress.stats().tx_packets(), 2);
        assert_eq!(egress.stats().tx_batches(), 2);
        assert_eq!(egress.lane_count(), 2, "B's FIN is still owed");
        // A fresh frame queues behind the held ones; the next pass resumes
        // where the socket stopped and re-sends nothing.
        tx_a.send(sized(1, 4, 90)).unwrap();
        kernel.lock().unwrap().script =
            VecDeque::from([Ok(1), Err(io::ErrorKind::WouldBlock.into())]);
        assert_eq!(egress.flush_batch(), SharedFlush::Blocked);
        assert_eq!(egress.flush_batch(), SharedFlush::Idle);
        assert_eq!(
            kernel.lock().unwrap().frames(),
            [
                (1, 0), (1, 1), (1, 2), (1, 3), (1, 4),
                (2, 0), (2, 1), (2, 2), (2, STREAM_FIN_SEQ),
            ]
        );
        assert_eq!(egress.stats().tx_packets(), 9);
        assert_eq!(egress.stats().dropped(), 0);
        assert_eq!(egress.lane_count(), 1);
    }

    #[test]
    fn a_refused_segmented_message_goes_out_as_singles_and_coalescing_stops() {
        let kernel = Arc::new(Mutex::new(Kernel::default()));
        let egress = scripted_egress(&kernel);
        let (tx_a, rx_a) = pipe::<Packet>(16);
        let (tx_b, rx_b) = pipe::<Packet>(16);
        egress.attach(StreamId::new(1), peer(1001), rx_a);
        egress.attach(StreamId::new(2), peer(1002), rx_b);
        tx_a.send(sized(1, 0, 64)).unwrap();
        tx_b.send_batch((0..4).map(|seq| sized(2, seq, 64)).collect()).unwrap();
        // A's single is taken; B's four-segment message is refused (EIO: no
        // checksum offload on the route) once it comes first.
        kernel.lock().unwrap().script =
            VecDeque::from([Ok(1), Err(io::Error::from_raw_os_error(5))]);
        assert_eq!(egress.flush_batch(), SharedFlush::Idle);
        assert_eq!(
            kernel.lock().unwrap().offered,
            [vec![1, 4], vec![4], vec![1, 1, 1, 1]],
            "the refused message is re-cut in the same pass"
        );
        assert_eq!(kernel.lock().unwrap().frames(), [(1, 0), (2, 0), (2, 1), (2, 2), (2, 3)]);
        assert_eq!(egress.stats().gso_refused(), 1);
        assert_eq!(egress.stats().tx_packets(), 5);
        assert_eq!(egress.stats().dropped(), 0, "a refusal is never a drop");
        // From now on this socket sends one frame per message.
        tx_b.send_batch((4..7).map(|seq| sized(2, seq, 64)).collect()).unwrap();
        assert_eq!(egress.flush_batch(), SharedFlush::Idle);
        assert_eq!(kernel.lock().unwrap().offered[3], [1, 1, 1]);
        assert_eq!(egress.stats().gso_refused(), 1);
    }

    #[test]
    fn a_failed_message_is_a_counted_drop_and_the_rest_of_the_pass_goes_on() {
        let kernel = Arc::new(Mutex::new(Kernel::default()));
        let egress = scripted_egress(&kernel);
        let (tx, rx) = pipe::<Packet>(16);
        egress.attach(StreamId::new(1), peer(1001), rx);
        tx.send_batch((0..3).map(|seq| sized(1, seq, 40 + 10 * seq as usize)).collect())
            .unwrap();
        // EINVAL on a plain datagram is no refusal of segmentation; EINTR
        // is tried again.
        kernel.lock().unwrap().script = VecDeque::from([
            Err(io::Error::from_raw_os_error(22)),
            Err(io::ErrorKind::Interrupted.into()),
        ]);
        assert_eq!(egress.flush_batch(), SharedFlush::Idle);
        assert_eq!(kernel.lock().unwrap().frames(), [(1, 1), (1, 2)]);
        assert_eq!(egress.stats().dropped(), 1);
        assert_eq!(egress.stats().gso_refused(), 0);
        assert_eq!(egress.stats().tx_packets(), 2);
    }

    #[test]
    fn a_frame_pushed_during_a_pass_is_sent_without_a_kick() {
        struct Wakes(AtomicU64);
        impl rapidware_streams::PipeWatcher for Wakes {
            fn notify(&self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let kernel = Arc::new(Mutex::new(Kernel::default()));
        let egress = scripted_egress(&kernel);
        let (tx, rx) = pipe::<Packet>(16);
        let wakes = Arc::new(Wakes(AtomicU64::new(0)));
        rx.set_data_watcher(wakes.clone());
        egress.attach(StreamId::new(1), peer(1001), rx);
        tx.send(sized(1, 0, 64)).unwrap();
        // While the first pass is inside the kernel — its pipe already
        // looked at — a second frame lands.
        let late = tx.clone();
        kernel.lock().unwrap().meanwhile =
            Some(Box::new(move || late.send(sized(1, 1, 64)).unwrap()));
        // The driver's rule: run passes while they report progress, then
        // sleep until a watcher fired.  Nothing else ever steps the egress.
        let mut handled = 0;
        let mut passes = 0;
        loop {
            let woken = wakes.0.load(Ordering::SeqCst);
            if woken == handled {
                break;
            }
            handled = woken;
            passes += 1;
            // A partial batch asks for no second pass.
            assert_eq!(egress.flush_batch(), SharedFlush::Idle);
        }
        assert_eq!(passes, 2, "the late frame's own watcher fire brought the second pass");
        assert_eq!(kernel.lock().unwrap().frames(), [(1, 0), (1, 1)]);
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
