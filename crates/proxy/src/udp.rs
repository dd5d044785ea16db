//! Datagram transport wiring: streams and fanout sessions whose endpoints
//! are real UDP sockets instead of in-process pipes.
//!
//! A **carrier** ([`Proxy::add_udp_carrier`](crate::Proxy::add_udp_carrier))
//! binds one UDP socket and is **one** pool task with one epoll
//! registration, so it costs **zero** threads no matter how many streams
//! and sessions ride it.  Each step of the task is one pass:
//!
//! ```text
//!   one socket ──▶ SharedUdpIngress ──demux by stream id──▶ session, in place or via input
//!   lane outputs ──▶ SharedUdpEgress ──mux──▶ the same socket      (same step: one flush)
//! ```
//!
//! The worker that learns the socket is readable runs that step itself, so
//! a datagram caught up with its session is received, run and sent by one
//! thread.
//!
//! [`Proxy::add_stream_udp_shared`](crate::Proxy::add_stream_udp_shared)
//! and
//! [`Proxy::add_session_udp_shared`](crate::Proxy::add_session_udp_shared)
//! place a pooled stream or session on a named carrier (a stream is the
//! one-lane session): inbound datagrams
//! are routed to it by the stream ids it claimed, and its output lanes are
//! multiplexed back out, each ending with its stream's FIN.  A *dedicated*
//! socket is a carrier with one such route.
//!
//! A session that is idle and caught up is run in place by the
//! carrier's task, straight into the lane pipes the same step flushes.
//! The session itself is unchanged — it still reads and writes detachable
//! pipes and is live-reconfigurable through the ordinary control surface
//! (`insert_filter`, `remove_filter`, sessions' per-lane splices).  The
//! carrier's rx/tx/drop/decode-error counters surface through
//! [`ProxyStatus::transports`](crate::ProxyStatus) and the control
//! protocol.

use std::fmt;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use rapidware_packet::{Packet, StreamId};
use rapidware_streams::DetachableSender;
use rapidware_telemetry::{Histogram, Registry};
use rapidware_transport::{
    SharedDrain, SharedFlush, SharedUdpEgress, SharedUdpIngress, TransportSnapshot,
    TransportStats,
};

use crate::runtime::{SocketDriver, SocketPass, SocketStep};

fn loopback_ephemeral() -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], 0))
}

/// One carrier as reported in [`ProxyStatus`](crate::ProxyStatus): the
/// socket-wide counters (across every stream and session riding it) the
/// control manager renders next to the chain statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpTransportStatus {
    /// Name of the carrier.
    pub name: String,
    /// The bound ingress address.
    pub ingress_addr: String,
    /// Ingress counters (rx datagrams/packets, decode errors, drops).
    pub ingress: TransportSnapshot,
    /// Egress counters (tx datagrams/packets, drops).
    pub egress: TransportSnapshot,
    /// Decoded datagrams whose stream id had no registered route.
    pub unknown_streams: u64,
    /// Receive calls the socket failed with anything but `WouldBlock`.
    pub io_errors: u64,
    /// Passes after which the carrier's task, under load, waited on its
    /// timer for the rest of a 50 µs window instead of re-arming the socket
    /// (see [`Proxy::add_udp_carrier`](crate::Proxy::add_udp_carrier)).
    pub deferrals: u64,
}

// ---------------------------------------------------------------------------
// Configuration and handles.
// ---------------------------------------------------------------------------

/// Socket configuration of a **carrier** (see
/// [`Proxy::add_udp_carrier`](crate::Proxy::add_udp_carrier)): one bound
/// socket whose inbound datagrams are demultiplexed by stream id and whose
/// outbound lanes are multiplexed back onto the same port.
#[derive(Debug, Clone)]
pub struct UdpCarrierConfig {
    /// Address the shared socket binds (use port 0 for an ephemeral port;
    /// the concrete address comes back in the handle).
    pub bind: SocketAddr,
    /// Pipe capacity behind each routed stream (back-pressure window, in
    /// packets).
    pub capacity: usize,
    /// How many datagrams one drain/flush pass of the carrier moves.
    pub batch_size: usize,
}

impl UdpCarrierConfig {
    /// A loopback-bound carrier with the default capacity (256) and batch
    /// size (8).
    pub fn new() -> Self {
        Self {
            bind: loopback_ephemeral(),
            capacity: 256,
            batch_size: 8,
        }
    }

    /// Overrides the bind address.
    #[must_use]
    pub fn with_bind(mut self, bind: SocketAddr) -> Self {
        self.bind = bind;
        self
    }

    /// Overrides the pipe capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "carrier pipe capacity must be non-zero");
        self.capacity = capacity;
        self
    }

    /// Overrides the batch size (clamped to at least 1).
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }
}

impl Default for UdpCarrierConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Placement of a pooled stream on a carrier (see
/// [`Proxy::add_stream_udp_shared`](crate::Proxy::add_stream_udp_shared)).
#[derive(Debug, Clone)]
pub struct SharedUdpStreamConfig {
    /// Name of the carrier (from
    /// [`add_udp_carrier`](crate::Proxy::add_udp_carrier)) this stream
    /// rides.
    pub carrier: String,
    /// Stream ids routed into this chain.  The first id is stamped on the
    /// egress FIN when the chain ends.  Must not be empty.
    pub streams: Vec<StreamId>,
    /// Destination the chain's output packets are sent to.
    pub egress_peer: SocketAddr,
    /// Pipe capacity of the chain.
    pub capacity: usize,
    /// Per-stage batch size of the chain.
    pub batch_size: usize,
}

impl SharedUdpStreamConfig {
    /// A stream on `carrier` sending its output to `peer`, with the
    /// default capacity (256) and batch size (8) and no stream ids yet.
    pub fn on_carrier(carrier: impl Into<String>, peer: SocketAddr) -> Self {
        Self {
            carrier: carrier.into(),
            streams: Vec::new(),
            egress_peer: peer,
            capacity: 256,
            batch_size: 8,
        }
    }

    /// Adds a stream id routed into this chain.
    #[must_use]
    pub fn with_stream(mut self, stream: StreamId) -> Self {
        self.streams.push(stream);
        self
    }

    /// Overrides the pipe capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "stream pipe capacity must be non-zero");
        self.capacity = capacity;
        self
    }

    /// Overrides the batch size (clamped to at least 1).
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }
}

/// Placement of a pooled fanout session on a carrier (see
/// [`Proxy::add_session_udp_shared`](crate::Proxy::add_session_udp_shared)).
#[derive(Debug, Clone)]
pub struct SharedUdpSessionConfig {
    /// Name of the carrier this session rides.
    pub carrier: String,
    /// Stream ids routed into the session's head chain.  The first id is
    /// stamped on each lane's egress FIN.  Must not be empty.
    pub streams: Vec<StreamId>,
    /// `(lane name, egress destination)` pairs, one per receiver.  Lanes
    /// without an egress peer can join later through
    /// [`PooledSession::add_lane`](crate::PooledSession::add_lane); the
    /// first to join receives what arrived before it.
    pub lanes: Vec<(String, SocketAddr)>,
    /// Pipe capacity of the session.
    pub capacity: usize,
    /// Batch size of the session stages.
    pub batch_size: usize,
}

impl SharedUdpSessionConfig {
    /// A session on `carrier` with the default capacity (256) and batch
    /// size (8), no stream ids and no lanes yet.
    pub fn on_carrier(carrier: impl Into<String>) -> Self {
        Self {
            carrier: carrier.into(),
            streams: Vec::new(),
            lanes: Vec::new(),
            capacity: 256,
            batch_size: 8,
        }
    }

    /// Adds a stream id routed into the session.
    #[must_use]
    pub fn with_stream(mut self, stream: StreamId) -> Self {
        self.streams.push(stream);
        self
    }

    /// Adds a receiver lane sending to `peer`.
    #[must_use]
    pub fn with_lane(mut self, name: impl Into<String>, peer: SocketAddr) -> Self {
        self.lanes.push((name.into(), peer));
        self
    }

    /// Overrides the pipe capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "session pipe capacity must be non-zero");
        self.capacity = capacity;
        self
    }

    /// Overrides the batch size (clamped to at least 1).
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }
}

/// What the caller gets back from
/// [`Proxy::add_udp_carrier`](crate::Proxy::add_udp_carrier): the bound
/// address and the socket-wide counters.
pub struct UdpCarrierHandle {
    pub(crate) ingress: Arc<SharedUdpIngress>,
    pub(crate) egress_stats: TransportStats,
}

impl fmt::Debug for UdpCarrierHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UdpCarrierHandle")
            .field("ingress_addr", &self.ingress.local_addr())
            .finish()
    }
}

impl UdpCarrierHandle {
    /// The shared socket's bound address: send encoded packets here.
    pub fn ingress_addr(&self) -> SocketAddr {
        self.ingress.local_addr()
    }

    /// Receive-side counters of the whole socket.
    pub fn ingress_stats(&self) -> TransportStats {
        self.ingress.stats()
    }

    /// Send-side counters of the whole socket.
    pub fn egress_stats(&self) -> TransportStats {
        self.egress_stats.clone()
    }

    /// Decoded datagrams whose stream id had no registered route.
    pub fn unknown_streams(&self) -> u64 {
        self.ingress.unknown_streams()
    }

    /// Number of stream ids currently routed on this carrier.
    pub fn route_count(&self) -> usize {
        self.ingress.route_count()
    }
}

/// What the caller gets back from
/// [`Proxy::add_stream_udp_shared`](crate::Proxy::add_stream_udp_shared).
pub struct SharedUdpStreamHandle {
    pub(crate) carrier: String,
    pub(crate) ingress_addr: SocketAddr,
    pub(crate) streams: Vec<StreamId>,
    pub(crate) input: DetachableSender<Packet>,
}

impl fmt::Debug for SharedUdpStreamHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedUdpStreamHandle")
            .field("carrier", &self.carrier)
            .field("ingress_addr", &self.ingress_addr)
            .field("streams", &self.streams)
            .finish()
    }
}

impl SharedUdpStreamHandle {
    /// Name of the carrier this stream rides.
    pub fn carrier(&self) -> &str {
        &self.carrier
    }

    /// The carrier's bound address: send this stream's datagrams here.
    pub fn ingress_addr(&self) -> SocketAddr {
        self.ingress_addr
    }

    /// The stream ids routed into this chain.
    pub fn streams(&self) -> &[StreamId] {
        &self.streams
    }

    /// Ends the stream from the proxy side: closes the chain input, which
    /// flushes every filter; the residue rides out the carrier's egress
    /// followed by the stream's FIN, so the remote receiver observes a
    /// clean end of exactly this stream — its socket-mates keep flowing.
    pub fn close_input(&self) {
        self.input.close();
    }
}

/// What the caller gets back from
/// [`Proxy::add_session_udp_shared`](crate::Proxy::add_session_udp_shared).
pub struct SharedUdpSessionHandle {
    pub(crate) carrier: String,
    pub(crate) ingress_addr: SocketAddr,
    pub(crate) streams: Vec<StreamId>,
    pub(crate) lanes: Vec<String>,
    pub(crate) input: DetachableSender<Packet>,
}

impl fmt::Debug for SharedUdpSessionHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedUdpSessionHandle")
            .field("carrier", &self.carrier)
            .field("ingress_addr", &self.ingress_addr)
            .field("streams", &self.streams)
            .field("lanes", &self.lanes)
            .finish()
    }
}

impl SharedUdpSessionHandle {
    /// Name of the carrier this session rides.
    pub fn carrier(&self) -> &str {
        &self.carrier
    }

    /// The carrier's bound address: send this session's datagrams here.
    pub fn ingress_addr(&self) -> SocketAddr {
        self.ingress_addr
    }

    /// The stream ids routed into the session.
    pub fn streams(&self) -> &[StreamId] {
        &self.streams
    }

    /// The receiver lane names, in attach order.
    pub fn lanes(&self) -> &[String] {
        &self.lanes
    }

    /// Ends the session from the proxy side (see
    /// [`SharedUdpStreamHandle::close_input`]): every lane flushes and
    /// sends its own FIN.
    pub fn close_input(&self) {
        self.input.close();
    }
}

/// How long a busy carrier leaves its socket disarmed after a pass: a
/// pass that drained at least [`DEFER_MIN_DRAINED`] datagrams, left nothing
/// to send and started less than this long ago idles on the task's timer
/// until its start plus this window, and the next pass drains everything
/// that arrived in between.  It bounds the latency the deferral adds under
/// load, and it is the pass length above which a carrier never defers.
pub(crate) const DEFER_WINDOW: Duration = Duration::from_micros(50);

/// Fewest datagrams a pass must have drained to defer: a lightly loaded
/// carrier (one datagram per wake-up) re-arms at once, so its latency is
/// untouched.
pub(crate) const DEFER_MIN_DRAINED: u64 = 4;

/// How a carrier pass that started at `started`, drained `drained`
/// datagrams and ended with `drain`/`flush` leaves its task: another pass
/// at once while the socket or a lane may hold more, a wait on the socket
/// when blocked or idle — or, under load, a wait on the task's timer until
/// `started + DEFER_WINDOW`.
pub(crate) fn carrier_step(
    drain: SharedDrain,
    flush: SharedFlush,
    drained: u64,
    started: Instant,
) -> SocketStep {
    match (drain, flush) {
        (_, SharedFlush::Blocked) => SocketStep::Blocked,
        (SharedDrain::MoreReady, _) | (_, SharedFlush::Progress) => SocketStep::Progress,
        (SharedDrain::Empty, SharedFlush::Idle) => {
            if drained >= DEFER_MIN_DRAINED && started.elapsed() < DEFER_WINDOW {
                SocketStep::IdleUntil(started + DEFER_WINDOW)
            } else {
                SocketStep::Idle
            }
        }
    }
}

/// A carrier's one task.  Each pass drains a batch off the socket — a
/// caught-up route runs its session in place — then sends what every lane
/// holds in one flush.  Socket readiness, the task's timer, lane-output
/// watchers and kicks all wake this same task.
pub(crate) struct CarrierWork {
    pub(crate) ingress: Arc<SharedUdpIngress>,
    pub(crate) egress: Arc<SharedUdpEgress>,
    /// Cleared by [`stop_receiving`](Self::stop_receiving); held across
    /// every drain, so none runs after it.
    receiving: Mutex<bool>,
    /// Once proxy telemetry is enabled, each drain pass records how many
    /// datagrams it pulled off the socket (`udp.<carrier>.drain_batch`).
    drain_batch: OnceLock<Arc<Histogram>>,
    /// Passes that ended in [`SocketStep::IdleUntil`].
    deferrals: AtomicU64,
}

impl CarrierWork {
    pub(crate) fn new(ingress: Arc<SharedUdpIngress>, egress: Arc<SharedUdpEgress>) -> Self {
        Self {
            ingress,
            egress,
            receiving: Mutex::new(true),
            drain_batch: OnceLock::new(),
            deferrals: AtomicU64::new(0),
        }
    }

    /// One drain pass and the number of datagrams it pulled off the socket.
    fn drain(&self) -> (SharedDrain, u64) {
        let stats = self.ingress.stats();
        let before = stats.rx_datagrams();
        let drained = self.ingress.drain_batch();
        let count = stats.rx_datagrams().saturating_sub(before);
        if let Some(histogram) = self.drain_batch.get().filter(|_| count != 0) {
            histogram.record(count);
        }
        (drained, count)
    }

    /// The receive half of shutdown: one final drain, after which passes
    /// only flush and the idle socket no longer wakes the task.
    pub(crate) fn stop_receiving(&self) {
        let mut receiving = self.receiving.lock();
        if std::mem::replace(&mut *receiving, false) {
            self.drain();
        }
    }

    /// Registers `udp.<name>.drain_batch` and its send-side twins —
    /// `udp.<name>.flush_batch` (frames per kernel crossing) and
    /// `udp.<name>.tx_segments` (datagrams per message) — and starts
    /// recording into them (idempotent, like every other
    /// `enable_telemetry`).
    pub(crate) fn enable_telemetry(&self, registry: &Registry, name: &str) {
        self.drain_batch
            .get_or_init(|| registry.histogram(format!("udp.{name}.drain_batch")));
        self.egress.record_send_shape(
            registry.histogram(format!("udp.{name}.flush_batch")),
            registry.histogram(format!("udp.{name}.tx_segments")),
        );
    }
}

impl SocketPass for CarrierWork {
    fn pass(&self, settle: &dyn Fn()) -> SocketStep {
        let started = Instant::now();
        let (drain, drained) = {
            let receiving = self.receiving.lock();
            if *receiving {
                self.drain()
            } else {
                (SharedDrain::Empty, 0)
            }
        };
        // The flush visits every lane, so it answers each wake raised so
        // far (this drain's in-place output, another task's, a new lane):
        // without this the task would take an empty step after every pass.
        settle();
        let step = carrier_step(drain, self.egress.flush_batch(), drained, started);
        if let SocketStep::IdleUntil(_) = step {
            self.deferrals.fetch_add(1, Ordering::Relaxed);
        }
        step
    }

    fn reading(&self) -> bool {
        *self.receiving.lock()
    }
}

/// The live state the proxy keeps per carrier: its task's work and the
/// driver stepping it.
pub(crate) struct UdpCarrier {
    pub(crate) work: Arc<CarrierWork>,
    pub(crate) driver: SocketDriver,
}

impl UdpCarrier {
    pub(crate) fn status(&self, name: &str) -> UdpTransportStatus {
        let ingress = &self.work.ingress;
        UdpTransportStatus {
            name: name.to_string(),
            ingress_addr: ingress.local_addr().to_string(),
            ingress: ingress.stats().snapshot(),
            egress: self.work.egress.stats().snapshot(),
            unknown_streams: ingress.unknown_streams(),
            io_errors: ingress.io_errors(),
            deferrals: self.work.deferrals.load(Ordering::Relaxed),
        }
    }
}
