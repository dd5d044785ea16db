//! The [`Proxy`]: named streams, each with a live-reconfigurable chain.

use std::collections::BTreeMap;
use std::fmt;
use std::net::SocketAddr;
use std::sync::Arc;

use rapidware_filters::{ChainSpans, Filter, SecureChannelSnapshot};
use rapidware_packet::{Packet, StreamId};
use rapidware_streams::{DetachableReceiver, DetachableSender};
use rapidware_telemetry::{Metric, Registry, TelemetrySnapshot};

use rapidware_transport::{SharedUdpEgress, SharedUdpIngress, TransportSnapshot, UdpConfig};

use crate::error::ProxyError;
use crate::registry::{FilterRegistry, FilterSpec};
use crate::runtime::{PooledSession, Runtime, RuntimeConfig, RuntimeStatus, SocketInterest};
use crate::session::SessionStatus;
use crate::threaded::ChainStats;
use crate::udp::{
    CarrierWork, SharedUdpSessionConfig, SharedUdpSessionHandle, SharedUdpStreamConfig,
    SharedUdpStreamHandle, UdpCarrier, UdpCarrierConfig, UdpCarrierHandle, UdpTransportStatus,
};

/// A snapshot of one stream's configuration and statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamStatus {
    /// Stream name.
    pub name: String,
    /// Installed filter names, in stream order.
    pub filters: Vec<String>,
    /// Runtime counters.
    pub stats: ChainStats,
    /// Secure-channel counters summed over this chain's crypto stages
    /// (all-zero when the chain carries plaintext).
    pub secure: SecureChannelSnapshot,
}

/// A snapshot of a whole proxy, as reported to the control manager.
///
/// Flat streams and fanout sessions are reported separately: a session is
/// *not* flattened into the stream list — it appears once, with its shared
/// head chain and a per-lane breakdown (delivered / recovered / queue
/// depth per receiver lane; see [`LaneStatus`](crate::LaneStatus)), so the
/// control manager can tell one fanout with eight receivers apart from
/// eight unrelated streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProxyStatus {
    /// Proxy name.
    pub name: String,
    /// Per-stream snapshots, sorted by stream name.
    pub streams: Vec<StreamStatus>,
    /// Per-session snapshots (head chain plus per-lane stats), sorted by
    /// session name.
    pub sessions: Vec<SessionStatus>,
    /// Filter kinds this proxy can instantiate.
    pub available_kinds: Vec<String>,
    /// Worker-pool snapshot (per-shard queue depths, live tasks, steals);
    /// `None` only after [`Proxy::shutdown`].
    pub runtime: Option<RuntimeStatus>,
    /// Socket-wide counters of every UDP carrier (rx/tx datagrams and
    /// packets, decode errors, drops, unknown-stream frames), sorted by
    /// name.
    pub transports: Vec<UdpTransportStatus>,
    /// Secure-channel counters summed over every stream and session: how
    /// many payloads were sealed, how many verified open, how many were
    /// rejected as tampered (and dropped), and how many key rotations were
    /// installed.  All-zero when the proxy carries only plaintext.
    pub secure: SecureChannelSnapshot,
}

/// One RAPIDware proxy: a set of named streams and fanout sessions, a
/// filter registry, and the machinery to reconfigure any chain at run time.
pub struct Proxy {
    name: String,
    registry: FilterRegistry,
    /// Flat streams: each a session with an empty head and one lane named
    /// after the stream.
    streams: BTreeMap<String, PooledSession>,
    sessions: BTreeMap<String, PooledSession>,
    udp_carriers: BTreeMap<String, UdpCarrier>,
    runtime: Option<Arc<Runtime>>,
    telemetry: Option<Arc<Registry>>,
}

/// Puts a flat stream's latency spans (`stream.<name>.*`) on its lane.
fn set_stream_spans(registry: &Arc<Registry>, stream: &PooledSession, name: &str) {
    stream.set_lane_spans(name, ChainSpans::egress(registry, format!("stream.{name}")));
}

/// A flat stream's status: its lane's chain, fed by everything the
/// stream's input accepted.
fn stream_status(name: &str, stream: &PooledSession) -> StreamStatus {
    let SessionStatus { head_stats, lanes, secure, .. } = stream.status();
    let lane = lanes.into_iter().next().expect("a flat stream keeps its lane");
    let stats = ChainStats { packets_in: head_stats.packets_in, ..lane.stats };
    StreamStatus { name: name.to_string(), filters: lane.filters, stats, secure }
}

/// Every count `status` reports, as `scope.key` metrics: each stream
/// (its chain, then its secure channel if that did work), each session
/// (head, every lane, secure channel if it did work), each carrier
/// (ingress, egress, socket) and the runtime.
fn status_stats(status: &ProxyStatus) -> Vec<Metric> {
    let mut stats = Vec::new();
    let mut fold = |scope: &str, counts: &[(&str, u64)]| {
        stats.extend(
            counts.iter().map(|&(key, value)| Metric { name: format!("{scope}.{key}"), value }),
        );
    };
    let chain = |chain: &ChainStats| {
        [
            ("filters", chain.filters as u64),
            ("packets_in", chain.packets_in),
            ("packets_out", chain.packets_out),
            ("splices", chain.splices),
            ("filter_errors", chain.filter_errors),
        ]
    };
    let secure = |secure: &SecureChannelSnapshot| {
        [
            ("sealed", secure.sealed),
            ("opened", secure.opened),
            ("rejected", secure.rejected),
            ("rekeys", secure.rekeys),
        ]
    };
    let socket = |socket: &TransportSnapshot| {
        [
            ("rx_datagrams", socket.rx_datagrams),
            ("rx_packets", socket.rx_packets),
            ("tx_datagrams", socket.tx_datagrams),
            ("tx_packets", socket.tx_packets),
            ("tx_batches", socket.tx_batches),
            ("gso_refused", socket.gso_refused),
            ("decode_errors", socket.decode_errors),
            ("dropped", socket.dropped),
        ]
    };
    for stream in &status.streams {
        let scope = format!("stream.{}", stream.name);
        fold(&scope, &chain(&stream.stats));
        if !stream.secure.is_empty() {
            fold(&format!("{scope}.secure"), &secure(&stream.secure));
        }
    }
    for session in &status.sessions {
        let scope = format!("session.{}", session.name);
        fold(&format!("{scope}.head"), &chain(&session.head_stats));
        for lane in &session.lanes {
            let lane_scope = format!("{scope}.lane.{}", lane.name);
            fold(
                &lane_scope,
                &[
                    ("delivered", lane.delivered),
                    ("recovered", lane.recovered),
                    ("queue_depth", lane.queue_depth as u64),
                ],
            );
            fold(&lane_scope, &chain(&lane.stats));
        }
        if !session.secure.is_empty() {
            fold(&format!("{scope}.secure"), &secure(&session.secure));
        }
    }
    for carrier in &status.transports {
        let scope = format!("udp.{}", carrier.name);
        fold(&format!("{scope}.ingress"), &socket(&carrier.ingress));
        fold(&format!("{scope}.egress"), &socket(&carrier.egress));
        let socket_errors = [
            ("unknown_streams", carrier.unknown_streams),
            ("io_errors", carrier.io_errors),
        ];
        fold(&scope, &socket_errors);
    }
    if let Some(runtime) = &status.runtime {
        fold(
            "runtime",
            &[
                ("workers", runtime.workers as u64),
                ("live_tasks", runtime.live_tasks as u64),
                ("queued", runtime.shards.iter().map(|shard| shard.queued as u64).sum()),
                ("executed", runtime.shards.iter().map(|shard| shard.executed).sum()),
                ("steals", runtime.steals),
                ("polls", runtime.polls),
                ("parks", runtime.parks),
            ],
        );
    }
    stats
}

impl fmt::Debug for Proxy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Proxy")
            .field("name", &self.name)
            .field("streams", &self.stream_names())
            .field("sessions", &self.session_names())
            .finish()
    }
}

impl Proxy {
    /// Creates a proxy with the built-in filter registry and a worker pool
    /// of [`RuntimeConfig::default`] shape.
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_registry(name, FilterRegistry::with_builtins())
    }

    /// Creates a proxy with a custom registry (e.g. one extended with
    /// third-party filters) and a worker pool of [`RuntimeConfig::default`]
    /// shape.
    pub fn with_registry(name: impl Into<String>, registry: FilterRegistry) -> Self {
        Self::start(name.into(), registry, RuntimeConfig::default())
    }

    /// Creates a proxy with the built-in registry and a worker pool of the
    /// given shape (shard count, task batch size, pipe capacity).  Every
    /// stream and session the proxy hosts runs as cooperative tasks on this
    /// pool.
    pub fn with_runtime(name: impl Into<String>, config: RuntimeConfig) -> Self {
        Self::start(name.into(), FilterRegistry::with_builtins(), config)
    }

    fn start(name: String, registry: FilterRegistry, config: RuntimeConfig) -> Self {
        Self {
            name,
            registry,
            streams: BTreeMap::new(),
            sessions: BTreeMap::new(),
            udp_carriers: BTreeMap::new(),
            runtime: Some(Runtime::start(config)),
            telemetry: None,
        }
    }

    /// Enables the unified telemetry subsystem and returns its registry.
    ///
    /// From this call on, every stream and session (existing and future)
    /// records packet-lifecycle latency spans — per-batch chain latency,
    /// sampled per-filter stage timings, and ingress-to-egress end-to-end
    /// histograms — and the worker pool records its profiling histograms:
    /// task poll duration, run-queue wait, and socket-poll scan latency.  Read
    /// the result with [`telemetry`](Self::telemetry) /
    /// [`telemetry_json`](Self::telemetry_json) or the `TELEMETRY` control
    /// verb.
    ///
    /// Idempotent: repeat calls return the same registry.  Everything —
    /// carriers' drain-batch histograms included — attaches retroactively.
    pub fn enable_telemetry(&mut self) -> Arc<Registry> {
        if self.telemetry.is_none() {
            self.telemetry = Some(Registry::new());
        }
        let registry = Arc::clone(self.telemetry.as_ref().expect("installed above"));
        if let Some(runtime) = &self.runtime {
            runtime.enable_telemetry(&registry);
        }
        for (name, stream) in &self.streams {
            set_stream_spans(&registry, stream, name);
        }
        for session in self.sessions.values() {
            session.enable_telemetry(&registry);
        }
        for (name, carrier) in &self.udp_carriers {
            carrier.work.enable_telemetry(&registry, name);
        }
        registry
    }

    /// The telemetry registry, if [`enable_telemetry`](Self::enable_telemetry)
    /// was called — e.g. to register application-level instruments that
    /// surface in the same snapshot.
    pub fn telemetry_registry(&self) -> Option<&Arc<Registry>> {
        self.telemetry.as_ref()
    }

    /// The worker pool; `None` only after [`shutdown`](Self::shutdown).
    pub fn runtime(&self) -> Option<&Arc<Runtime>> {
        self.runtime.as_ref()
    }

    /// Proxy name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The filter registry (e.g. to register additional kinds).
    pub fn registry_mut(&mut self) -> &mut FilterRegistry {
        &mut self.registry
    }

    /// Names of the streams currently handled by this proxy.
    pub fn stream_names(&self) -> Vec<String> {
        self.streams.keys().cloned().collect()
    }

    /// Creates a new stream through this proxy and returns its two
    /// endpoints: a sender the upstream EndPoint writes into and a receiver
    /// the downstream EndPoint reads from.  The stream starts as a null
    /// proxy (no filters); its whole filter chain runs as one cooperative
    /// task on the proxy's worker pool and accepts live filter splices.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::RuntimeDisabled`] after
    /// [`shutdown`](Self::shutdown) or [`ProxyError::Splice`] if a stream
    /// with this name already exists.
    pub fn add_stream_pooled(
        &mut self,
        name: impl Into<String>,
    ) -> Result<(DetachableSender<Packet>, DetachableReceiver<Packet>), ProxyError> {
        let name = name.into();
        let config = self.runtime.as_ref().ok_or(ProxyError::RuntimeDisabled)?.config();
        let (stream, output) = self.new_stream(&name, config.pipe_capacity, config.batch_size)?;
        let input = stream.input();
        self.streams.insert(name, stream);
        Ok((input, output))
    }

    /// A flat stream, not yet installed, and its output: a session with an
    /// empty head and one lane named after the stream.  Its filters come
    /// from the proxy's registry at splice time, so the session holds none.
    fn new_stream(
        &self,
        name: &str,
        capacity: usize,
        batch_size: usize,
    ) -> Result<(PooledSession, DetachableReceiver<Packet>), ProxyError> {
        let runtime = self.runtime.as_ref().ok_or(ProxyError::RuntimeDisabled)?;
        if self.streams.contains_key(name) {
            return Err(ProxyError::Splice(format!("stream {name} already exists")));
        }
        let stream = runtime.add_session_with(name, FilterRegistry::empty(), capacity, batch_size);
        let output = stream.add_lane(name)?;
        if let Some(registry) = &self.telemetry {
            set_stream_spans(registry, &stream, name);
        }
        Ok((stream, output))
    }

    fn stream(&self, name: &str) -> Result<&PooledSession, ProxyError> {
        self.streams
            .get(name)
            .ok_or_else(|| ProxyError::UnknownStream(name.to_string()))
    }

    /// Creates a fanout session through this proxy: one upstream input, a
    /// shared head chain, and (initially zero) receiver lanes added through
    /// [`PooledSession::add_lane`].  The head chain, the fanout, and every
    /// receiver lane run as one cooperative task on the proxy's worker
    /// pool.  Returns the session's input endpoint; use
    /// [`pooled_session`](Self::pooled_session) to add lanes and per-lane
    /// filters.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::RuntimeDisabled`] after
    /// [`shutdown`](Self::shutdown) or [`ProxyError::Splice`] if a session
    /// with this name already exists.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `batch_size` is zero.
    pub fn add_session_pooled(
        &mut self,
        name: impl Into<String>,
        capacity: usize,
        batch_size: usize,
    ) -> Result<DetachableSender<Packet>, ProxyError> {
        let name = name.into();
        let session = self.new_session(&name, capacity, batch_size)?;
        let input = session.input();
        self.sessions.insert(name, session);
        Ok(input)
    }

    /// A fanout session, not yet installed.
    fn new_session(
        &self,
        name: &str,
        capacity: usize,
        batch_size: usize,
    ) -> Result<PooledSession, ProxyError> {
        let runtime = self.runtime.as_ref().ok_or(ProxyError::RuntimeDisabled)?;
        if self.sessions.contains_key(name) {
            return Err(ProxyError::Splice(format!("session {name} already exists")));
        }
        let session = runtime.add_session_with(name, self.registry.clone(), capacity, batch_size);
        if let Some(registry) = &self.telemetry {
            session.enable_telemetry(registry);
        }
        Ok(session)
    }

    /// The named fanout session.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::UnknownSession`] for unknown sessions.
    pub fn pooled_session(&self, name: &str) -> Result<&PooledSession, ProxyError> {
        self.sessions
            .get(name)
            .ok_or_else(|| ProxyError::UnknownSession(name.to_string()))
    }

    /// Names of the fanout sessions on this proxy.
    pub fn session_names(&self) -> Vec<String> {
        self.sessions.keys().cloned().collect()
    }

    /// Binds a **carrier**: one UDP socket that many streams and
    /// sessions ride at once, demultiplexed by the stream id in every
    /// packet header.  A carrier costs zero threads — it is one pool task,
    /// woken by socket readiness, that drains and flushes the socket in
    /// batches.
    ///
    /// Place work on the carrier with
    /// [`add_stream_udp_shared`](Self::add_stream_udp_shared) and
    /// [`add_session_udp_shared`](Self::add_session_udp_shared) — a
    /// dedicated socket is a carrier with one such route; the carrier's
    /// socket-wide counters (and its unknown-stream drop count) appear in
    /// [`ProxyStatus::transports`].
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::RuntimeDisabled`] after
    /// [`shutdown`](Self::shutdown), [`ProxyError::Splice`] if the carrier
    /// name is taken, or
    /// [`ProxyError::Transport`] if the socket cannot be bound.
    ///
    /// # Panics
    ///
    /// Panics if `config.capacity` is zero.
    pub fn add_udp_carrier(
        &mut self,
        name: impl Into<String>,
        config: UdpCarrierConfig,
    ) -> Result<UdpCarrierHandle, ProxyError> {
        let name = name.into();
        let runtime = self.runtime.as_ref().ok_or(ProxyError::RuntimeDisabled)?;
        if self.udp_carriers.contains_key(&name) {
            return Err(ProxyError::Splice(format!("carrier {name} already exists")));
        }
        let udp_config = UdpConfig::default()
            .with_capacity(config.capacity)
            .with_batch_size(config.batch_size.max(1));
        let ingress = Arc::new(
            SharedUdpIngress::bind(config.bind, &udp_config)
                .map_err(|err| ProxyError::Transport(err.to_string()))?,
        );
        let egress = Arc::new(
            SharedUdpEgress::over(&ingress.socket(), &udp_config)
                .map_err(|err| ProxyError::Transport(err.to_string()))?,
        );
        // One task per *carrier* (not per stream), registered once: it
        // wakes on socket readability, on the pipe watchers installed per
        // attached lane and, after a refused send, on writability.
        let handle = UdpCarrierHandle {
            ingress: Arc::clone(&ingress),
            egress_stats: egress.stats(),
        };
        let work = Arc::new(CarrierWork::new(ingress, egress));
        if let Some(registry) = &self.telemetry {
            work.enable_telemetry(registry, &name);
        }
        let socket = handle.ingress.socket();
        let driver = runtime.drive(socket, SocketInterest::Readable, Arc::clone(&work));
        let carrier = UdpCarrier { work, driver };
        self.udp_carriers.insert(name, carrier);
        Ok(handle)
    }

    /// Names of the carriers on this proxy.
    pub fn carrier_names(&self) -> Vec<String> {
        self.udp_carriers.keys().cloned().collect()
    }

    /// Creates a stream riding a carrier: datagrams arriving on the
    /// carrier whose stream id is in `config.streams` are decoded into the
    /// stream (run in place by the carrier while it is caught up), and the
    /// stream's output is multiplexed back onto the carrier's socket
    /// towards `config.egress_peer`, ending with the stream's FIN.  The
    /// stream is an ordinary stream otherwise — it appears in
    /// [`stream_names`](Self::stream_names) and accepts live filter
    /// splices.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::UnknownCarrier`] if `config.carrier` does not
    /// exist, [`ProxyError::Splice`] if the stream name is taken, a stream
    /// id is already routed on the carrier, or `config.streams` is empty.
    ///
    /// # Panics
    ///
    /// Panics if `config.capacity` is zero.
    pub fn add_stream_udp_shared(
        &mut self,
        name: impl Into<String>,
        config: SharedUdpStreamConfig,
    ) -> Result<SharedUdpStreamHandle, ProxyError> {
        let name = name.into();
        self.check_placement(&format!("stream {name}"), &config.carrier, &config.streams)?;
        let (stream, output) = self.new_stream(&name, config.capacity, config.batch_size.max(1))?;
        let lanes = vec![(output, config.egress_peer)];
        let ingress_addr = self.open_routes(&stream, &config.carrier, &config.streams, lanes)?;
        let input = stream.input();
        self.streams.insert(name, stream);
        Ok(SharedUdpStreamHandle {
            carrier: config.carrier,
            ingress_addr,
            streams: config.streams,
            input,
        })
    }

    /// Creates a fanout session riding a carrier: datagrams for
    /// `config.streams` feed the shared head chain (in place, as for
    /// [`add_stream_udp_shared`](Self::add_stream_udp_shared)), and each
    /// `config.lanes`
    /// entry multiplexes that lane's packets back onto the carrier's socket
    /// towards its own peer (FIN per lane).  The session is an ordinary
    /// session otherwise — per-lane filters splice through
    /// [`pooled_session`](Self::pooled_session).
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::UnknownCarrier`] if `config.carrier` does not
    /// exist, or [`ProxyError::Splice`] if the session name is taken, a
    /// stream id is already routed, or `config.streams` is empty.
    ///
    /// # Panics
    ///
    /// Panics if `config.capacity` is zero.
    pub fn add_session_udp_shared(
        &mut self,
        name: impl Into<String>,
        config: SharedUdpSessionConfig,
    ) -> Result<SharedUdpSessionHandle, ProxyError> {
        let name = name.into();
        self.check_placement(&format!("session {name}"), &config.carrier, &config.streams)?;
        let session = self.new_session(&name, config.capacity, config.batch_size.max(1))?;
        let lanes = config
            .lanes
            .iter()
            .map(|(lane, peer)| Ok((session.add_lane(lane)?, *peer)))
            .collect::<Result<Vec<_>, ProxyError>>()?;
        let ingress_addr = self.open_routes(&session, &config.carrier, &config.streams, lanes)?;
        let input = session.input();
        self.sessions.insert(name, session);
        Ok(SharedUdpSessionHandle {
            carrier: config.carrier,
            ingress_addr,
            streams: config.streams,
            lanes: config.lanes.into_iter().map(|(lane, _)| lane).collect(),
            input,
        })
    }

    /// The checks a carrier placement passes before anything is built: at
    /// least one stream id, and a carrier that exists — which also means
    /// the pool is live, as shutdown drops every carrier.
    fn check_placement(
        &self,
        what: &str,
        carrier: &str,
        streams: &[StreamId],
    ) -> Result<(), ProxyError> {
        if streams.is_empty() {
            return Err(ProxyError::Splice(format!("shared {what} needs at least one stream id")));
        }
        if !self.udp_carriers.contains_key(carrier) {
            return Err(ProxyError::UnknownCarrier(carrier.to_string()));
        }
        Ok(())
    }

    /// Routes `streams` on `carrier` into `session` and sends each lane
    /// output out towards its peer; returns the carrier's address.  Lanes
    /// attach before the first route opens, so a datagram arriving during
    /// set-up reaches all of them.  On failure the opened routes close; the
    /// caller drops the session, whose lanes then finish silently.
    fn open_routes(
        &self,
        session: &PooledSession,
        carrier: &str,
        streams: &[StreamId],
        lanes: Vec<(DetachableReceiver<Packet>, SocketAddr)>,
    ) -> Result<SocketAddr, ProxyError> {
        let udp = &self.udp_carriers[carrier];
        for (output, peer) in lanes {
            // Watch before attach: the carrier task must wake for frames
            // that land in the output pipe from here on.
            udp.driver.watch_source(&output);
            udp.work.egress.attach(streams[0], peer, output);
        }
        udp.driver.kick();
        let ingress = &udp.work.ingress;
        let (input, inlet) = (session.input(), session.inlet());
        for (opened, stream) in streams.iter().enumerate() {
            let route = ingress.open_stream_with_inlet(*stream, input.clone(), Arc::clone(&inlet));
            if let Err(err) = route {
                for stream in &streams[..opened] {
                    ingress.close_stream(*stream);
                }
                return Err(ProxyError::Splice(format!("carrier {carrier}: {err}")));
            }
        }
        Ok(ingress.local_addr())
    }

    /// Instantiates a filter from `spec` and splices it into `stream` at
    /// `position`.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::UnknownStream`], [`ProxyError::UnknownFilterKind`],
    /// spec validation errors, or splice errors.
    pub fn insert_filter(
        &self,
        stream: &str,
        position: usize,
        spec: &FilterSpec,
    ) -> Result<(), ProxyError> {
        let filter = self.registry.instantiate(spec)?;
        self.insert_filter_boxed(stream, position, filter)
    }

    /// Splices an already-constructed filter into `stream` at `position`
    /// (the path used when a filter comes from an uploaded
    /// [`FilterContainer`](rapidware_filters::FilterContainer)).
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::UnknownStream`] or splice errors.
    pub fn insert_filter_boxed(
        &self,
        stream: &str,
        position: usize,
        filter: Box<dyn Filter>,
    ) -> Result<(), ProxyError> {
        self.stream(stream)?.insert_lane_filter_boxed(stream, position, filter)
    }

    /// Removes and returns the filter at `position` on `stream`.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::UnknownStream`], position errors, or splice
    /// errors.
    pub fn remove_filter(
        &self,
        stream: &str,
        position: usize,
    ) -> Result<Box<dyn Filter>, ProxyError> {
        self.stream(stream)?.remove_lane_filter(stream, position)
    }

    /// Moves a filter from one position to another on `stream` as one
    /// splice: the chain is locked once, so no batch crosses it with the
    /// filter absent, and the filter is not flushed (an FEC encoder keeps
    /// its half-collected block).
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::UnknownStream`], position errors, or splice
    /// errors.
    pub fn move_filter(&self, stream: &str, from: usize, to: usize) -> Result<(), ProxyError> {
        self.stream(stream)?.move_lane_filter(stream, from, to)
    }

    /// Names of the filters installed on `stream`.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::UnknownStream`] for unknown streams.
    pub fn filter_names(&self, stream: &str) -> Result<Vec<String>, ProxyError> {
        self.stream(stream)?.lane_filter_names(stream)
    }

    /// Runtime statistics of `stream`.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::UnknownStream`] for unknown streams.
    pub fn stream_stats(&self, stream: &str) -> Result<ChainStats, ProxyError> {
        Ok(stream_status(stream, self.stream(stream)?).stats)
    }

    /// A full status snapshot (what the control manager renders).
    pub fn status(&self) -> ProxyStatus {
        let sessions: Vec<SessionStatus> =
            self.sessions.values().map(PooledSession::status).collect();
        let transports: Vec<UdpTransportStatus> = self
            .udp_carriers
            .iter()
            .map(|(name, carrier)| carrier.status(name))
            .collect();
        let streams: Vec<StreamStatus> = self
            .streams
            .iter()
            .map(|(name, stream)| stream_status(name, stream))
            .collect();
        let mut secure = SecureChannelSnapshot::default();
        for stream in &streams {
            secure.merge(stream.secure);
        }
        for session in &sessions {
            secure.merge(session.secure);
        }
        ProxyStatus {
            name: self.name.clone(),
            streams,
            sessions,
            available_kinds: self.registry.kinds(),
            runtime: self.runtime.as_ref().map(|runtime| runtime.status()),
            transports,
            secure,
        }
    }

    /// A unified telemetry snapshot, or `None` until
    /// [`enable_telemetry`](Self::enable_telemetry) is called.
    ///
    /// Its histograms are the registry's: the latency spans
    /// (`stream.*`/`session.*` batch, per-stage, and end-to-end), the
    /// runtime profiling histograms (`runtime.poll_ns`,
    /// `runtime.queue_wait_ns`, `runtime.reactor.scan_ns`), and the carrier
    /// batch-shape histograms (`udp.*.drain_batch`, `udp.*.flush_batch`,
    /// `udp.*.tx_segments`).  Its `stats` are [`status`](Self::status)
    /// folded into flat `scope.key` counts under the same scopes:
    /// per-stream chain and secure-channel counts, per-session head and
    /// lane counts, per-carrier rx/tx, unknown-stream and socket-error
    /// counts, and the runtime's worker/queue/steal/poll counts.
    pub fn telemetry(&self) -> Option<TelemetrySnapshot> {
        let mut snapshot = self.telemetry.as_ref()?.snapshot();
        snapshot.stats = status_stats(&self.status());
        Some(snapshot)
    }

    /// The [`telemetry`](Self::telemetry) snapshot rendered as JSON (the
    /// payload of the `TELEMETRY` control verb), or `None` until telemetry
    /// is enabled.
    pub fn telemetry_json(&self) -> Option<String> {
        self.telemetry().map(|snapshot| snapshot.to_json())
    }

    /// Shuts down every carrier, stream and session, then stops the worker
    /// pool.  Later placements fail with [`ProxyError::RuntimeDisabled`];
    /// a repeated call is a no-op.
    ///
    /// # Errors
    ///
    /// Returns the first failure encountered (shutdown continues for the
    /// remaining streams regardless).
    pub fn shutdown(&mut self) -> Result<(), ProxyError> {
        let mut first_error = None;
        // Transport teardown brackets the chain teardown: each carrier
        // stops receiving first (one final drain, then no new arrivals)
        // and its routes close, so every riding chain and session sees
        // end-of-input and flushes.
        let udp_carriers = std::mem::take(&mut self.udp_carriers);
        for carrier in udp_carriers.values() {
            carrier.work.stop_receiving();
            carrier.work.ingress.close_all_streams();
        }
        for (_, stream) in std::mem::take(&mut self.streams) {
            if let Err(err) = stream.shutdown() {
                first_error.get_or_insert(err);
            }
        }
        for (_, session) in std::mem::take(&mut self.sessions) {
            if let Err(err) = session.shutdown() {
                first_error.get_or_insert(err);
            }
        }
        // The carriers' tasks stop after the chains have delivered their
        // final output (one last flush pass each), so nothing in flight is
        // stranded.
        for carrier in udp_carriers.values() {
            if let Err(err) = carrier.driver.shutdown() {
                first_error.get_or_insert(err);
            }
        }
        // Streams and sessions are down; stopping the workers last
        // means every task could run to completion.
        if let Some(runtime) = self.runtime.take() {
            if let Err(err) = runtime.shutdown() {
                first_error.get_or_insert(err);
            }
        }
        match first_error {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }
}

impl Drop for Proxy {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidware_packet::{PacketKind, SeqNo, StreamId};

    fn packet(seq: u64) -> Packet {
        Packet::new(StreamId::new(1), SeqNo::new(seq), PacketKind::AudioData, vec![0u8; 32])
    }

    #[test]
    fn add_stream_and_forward_packets() {
        let mut proxy = Proxy::new("edge-proxy");
        let (input, output) = proxy.add_stream_pooled("audio").unwrap();
        input.send(packet(0)).unwrap();
        assert_eq!(output.recv().unwrap().seq().value(), 0);
        assert_eq!(proxy.stream_names(), vec!["audio"]);
        assert_eq!(proxy.name(), "edge-proxy");
        proxy.shutdown().unwrap();
    }

    #[test]
    fn duplicate_stream_names_are_rejected() {
        let mut proxy = Proxy::new("p");
        proxy.add_stream_pooled("audio").unwrap();
        assert!(proxy.add_stream_pooled("audio").is_err());
    }

    #[test]
    fn insert_and_remove_filters_by_spec() {
        let mut proxy = Proxy::new("p");
        let (input, output) = proxy.add_stream_pooled("audio").unwrap();
        proxy
            .insert_filter("audio", 0, &FilterSpec::new("fec-encoder"))
            .unwrap();
        proxy
            .insert_filter("audio", 1, &FilterSpec::new("fec-decoder"))
            .unwrap();
        assert_eq!(
            proxy.filter_names("audio").unwrap(),
            vec!["fec-encoder(6,4)", "fec-decoder(6,4)"]
        );
        // Traffic flows through the configured chain.
        for seq in 0..8 {
            input.send(packet(seq)).unwrap();
        }
        let mut received = Vec::new();
        for _ in 0..8 {
            received.push(output.recv().unwrap());
        }
        assert_eq!(received.len(), 8);

        let removed = proxy.remove_filter("audio", 0).unwrap();
        assert_eq!(removed.name(), "fec-encoder(6,4)");
        assert_eq!(proxy.filter_names("audio").unwrap(), vec!["fec-decoder(6,4)"]);
        proxy.shutdown().unwrap();
    }

    /// Sends `count` packets into a stream and reads as many back out.
    fn pump(input: &DetachableSender<Packet>, output: &DetachableReceiver<Packet>, count: u64) {
        for seq in 0..count {
            input.send(packet(seq)).unwrap();
        }
        for _ in 0..count {
            output.recv().unwrap();
        }
    }

    #[test]
    fn removing_a_crypto_filter_keeps_its_counts() {
        let mut proxy = Proxy::new("p");
        proxy.enable_telemetry();
        let (input, output) = proxy.add_stream_pooled("a").unwrap();
        proxy.insert_filter("a", 0, &FilterSpec::new("encrypt")).unwrap();
        pump(&input, &output, 10);
        assert_eq!(proxy.status().secure.sealed, 10);

        proxy.remove_filter("a", 0).unwrap();
        let status = proxy.status();
        assert_eq!(status.secure.sealed, 10, "a removal erases no seal");
        assert_eq!(status.streams[0].secure.sealed, 10);
        let telemetry = proxy.telemetry().unwrap();
        assert_eq!(telemetry.stat("stream.a.secure.sealed"), Some(10));
        proxy.shutdown().unwrap();
    }

    #[test]
    fn a_crypto_filter_moved_between_streams_counts_each_seal_once() {
        let mut proxy = Proxy::new("p");
        proxy.enable_telemetry();
        let (input_a, output_a) = proxy.add_stream_pooled("a").unwrap();
        let (input_b, output_b) = proxy.add_stream_pooled("b").unwrap();
        proxy.insert_filter("a", 0, &FilterSpec::new("encrypt")).unwrap();
        pump(&input_a, &output_a, 10);

        let encrypt = proxy.remove_filter("a", 0).unwrap();
        proxy.insert_filter_boxed("b", 0, encrypt).unwrap();
        pump(&input_b, &output_b, 5);
        let status = proxy.status();
        let sealed: Vec<u64> = status.streams.iter().map(|s| s.secure.sealed).collect();
        assert_eq!(sealed, vec![10, 5], "each seal counts on the stream that made it");
        assert_eq!(status.secure.sealed, 15);
        let telemetry = proxy.telemetry().unwrap();
        assert_eq!(telemetry.stat("stream.a.secure.sealed"), Some(10));
        assert_eq!(telemetry.stat("stream.b.secure.sealed"), Some(5));
        proxy.shutdown().unwrap();
    }

    #[test]
    fn unknown_streams_and_kinds_are_reported() {
        let proxy = Proxy::new("p");
        assert!(matches!(
            proxy.insert_filter("nope", 0, &FilterSpec::new("null")),
            Err(ProxyError::UnknownStream(_))
        ));
        assert!(matches!(
            proxy.filter_names("nope"),
            Err(ProxyError::UnknownStream(_))
        ));
    }

    #[test]
    fn move_filter_reorders_live_chain() {
        let mut proxy = Proxy::new("p");
        let (input, output) = proxy.add_stream_pooled("s").unwrap();
        proxy
            .insert_filter("s", 0, &FilterSpec::new("fec-encoder"))
            .unwrap();
        proxy
            .insert_filter("s", 1, &FilterSpec::new("tap").with_param("name", "t"))
            .unwrap();
        // Half an FEC(6,4) block goes in and comes out as plain data; the
        // encoder now holds two sources towards its next parity pair.
        input.send(packet(0)).unwrap();
        input.send(packet(1)).unwrap();
        let mut received = vec![output.recv().unwrap(), output.recv().unwrap()];
        let splices = proxy.stream_stats("s").unwrap().splices;

        proxy.move_filter("s", 0, 1).unwrap();
        assert_eq!(proxy.filter_names("s").unwrap(), vec!["t", "fec-encoder(6,4)"]);
        assert_eq!(
            proxy.stream_stats("s").unwrap().splices,
            splices + 1,
            "a move is one splice, not a remove plus an insert"
        );
        assert!(proxy.move_filter("s", 0, 5).is_err());

        input.send(packet(2)).unwrap();
        input.send(packet(3)).unwrap();
        input.close();
        received.extend(std::iter::from_fn(|| output.recv().ok()));
        // The move did not flush the encoder: the block completes across
        // it and emits exactly its two parities (a flush would have padded
        // the half block out to two parities and the second half to two
        // more).
        let data = received.iter().filter(|p| p.kind().is_payload()).count();
        assert_eq!((data, received.len() - data), (4, 2), "{received:?}");
        proxy.shutdown().unwrap();
    }

    #[test]
    fn status_reports_streams_and_kinds() {
        let mut proxy = Proxy::new("status-proxy");
        proxy.add_stream_pooled("audio").unwrap();
        proxy.add_stream_pooled("video").unwrap();
        proxy
            .insert_filter("video", 0, &FilterSpec::new("rate-limiter"))
            .unwrap();
        let status = proxy.status();
        assert_eq!(status.name, "status-proxy");
        assert_eq!(status.streams.len(), 2);
        assert_eq!(status.streams[0].name, "audio");
        assert!(status.streams[1].filters[0].starts_with("rate-limiter"));
        assert!(status.available_kinds.contains(&"fec-encoder".to_string()));
        proxy.shutdown().unwrap();
    }

    #[test]
    fn sessions_report_per_lane_status_instead_of_flattened_streams() {
        let mut proxy = Proxy::new("edge");
        proxy.add_stream_pooled("plain").unwrap();
        let input = proxy.add_session_pooled("fanout", 64, 8).unwrap();
        let wired = proxy.pooled_session("fanout").unwrap().add_lane("wired").unwrap();
        let wlan = proxy.pooled_session("fanout").unwrap().add_lane("wlan").unwrap();
        for seq in 0..4 {
            input.send(packet(seq)).unwrap();
        }
        for _ in 0..4 {
            wired.recv().unwrap();
            wlan.recv().unwrap();
        }
        let status = proxy.status();
        // The session is not flattened into the stream list.
        assert_eq!(status.streams.len(), 1);
        assert_eq!(status.streams[0].name, "plain");
        assert_eq!(status.sessions.len(), 1);
        let session = &status.sessions[0];
        assert_eq!(session.name, "fanout");
        let lane_names: Vec<&str> = session.lanes.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(lane_names, vec!["wired", "wlan"]);
        for lane in &session.lanes {
            assert_eq!(lane.delivered, 4);
            assert_eq!(lane.queue_depth, 0);
        }
        // Duplicate and unknown session names are rejected.
        assert_eq!(proxy.session_names(), vec!["fanout"]);
        assert!(proxy.add_session_pooled("fanout", 64, 8).is_err());
        assert!(matches!(
            proxy.pooled_session("nope"),
            Err(ProxyError::UnknownSession(_))
        ));
        proxy.shutdown().unwrap();
    }

    #[test]
    fn pooled_streams_ride_the_worker_pool_through_the_same_control_surface() {
        let mut proxy = Proxy::with_runtime("pooled", RuntimeConfig::new(2, 8));
        let (input, output) = proxy.add_stream_pooled("audio").unwrap();
        proxy.insert_filter("audio", 0, &FilterSpec::new("fec-encoder")).unwrap();
        proxy.insert_filter("audio", 1, &FilterSpec::new("fec-decoder")).unwrap();
        assert_eq!(
            proxy.filter_names("audio").unwrap(),
            vec!["fec-encoder(6,4)", "fec-decoder(6,4)"]
        );
        for seq in 0..8 {
            input.send(packet(seq)).unwrap();
        }
        for _ in 0..8 {
            output.recv().unwrap();
        }
        let removed = proxy.remove_filter("audio", 0).unwrap();
        assert_eq!(removed.name(), "fec-encoder(6,4)");
        let status = proxy.status();
        let runtime = status.runtime.expect("runtime status present on a live proxy");
        assert_eq!(runtime.workers, 2);
        assert_eq!(runtime.shards.len(), 2);
        proxy.shutdown().unwrap();
    }

    #[test]
    fn placement_after_shutdown_is_refused_and_leaves_no_trace() {
        let mut proxy = Proxy::new("down");
        assert_eq!(
            proxy.runtime().expect("a proxy starts its pool").config(),
            RuntimeConfig::default()
        );
        proxy.add_stream_pooled("s").unwrap();
        proxy.add_session_pooled("f", 64, 8).unwrap();
        proxy.add_udp_carrier("wire", UdpCarrierConfig::new()).unwrap();
        proxy.shutdown().unwrap();
        assert!(proxy.runtime().is_none());
        assert!(proxy.status().runtime.is_none());

        let peer = std::net::SocketAddr::from(([127, 0, 0, 1], 9));
        let started = std::time::Instant::now();
        assert!(matches!(
            proxy.add_stream_pooled("s"),
            Err(ProxyError::RuntimeDisabled)
        ));
        assert!(matches!(
            proxy.add_session_pooled("f", 64, 8),
            Err(ProxyError::RuntimeDisabled)
        ));
        assert!(matches!(
            proxy.add_udp_carrier("wire", UdpCarrierConfig::new()),
            Err(ProxyError::RuntimeDisabled)
        ));
        // The carrier went down with the proxy, so nothing can ride it.
        assert!(matches!(
            proxy.add_stream_udp_shared(
                "s",
                SharedUdpStreamConfig::on_carrier("wire", peer).with_stream(StreamId::new(1)),
            ),
            Err(ProxyError::UnknownCarrier(_))
        ));
        assert!(matches!(
            proxy.add_session_udp_shared(
                "f",
                SharedUdpSessionConfig::on_carrier("wire").with_stream(StreamId::new(1)),
            ),
            Err(ProxyError::UnknownCarrier(_))
        ));
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "a refused placement must not wait on the stopped pool"
        );
        assert!(proxy.stream_names().is_empty());
        assert!(proxy.session_names().is_empty());
        assert!(proxy.carrier_names().is_empty());
        // A second shutdown (and the Drop after it) stays Ok.
        proxy.shutdown().unwrap();
    }

    fn encode_to(socket: &std::net::UdpSocket, peer: std::net::SocketAddr, packet: &Packet) {
        let mut scratch = Vec::new();
        packet.encode_into(&mut scratch);
        socket.send_to(&scratch, peer).unwrap();
    }

    fn stream_packet(stream: u32, seq: u64) -> Packet {
        Packet::new(
            StreamId::new(stream),
            SeqNo::new(seq),
            PacketKind::AudioData,
            vec![0u8; 32],
        )
    }

    /// Drains an app-side shared ingress until `predicate` holds, with a
    /// hard deadline bounding a genuine hang.
    fn drain_app_until(app: &rapidware_transport::SharedUdpIngress, predicate: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !predicate() {
            assert!(
                std::time::Instant::now() < deadline,
                "app-side shared drain made no progress"
            );
            if app.drain_batch() == rapidware_transport::SharedDrain::Empty {
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn shared_carriers_multiplex_streams_over_one_socket_with_zero_pump_threads() {
        let config = rapidware_transport::UdpConfig::default();
        let app = rapidware_transport::SharedUdpIngress::bind("127.0.0.1:0", &config).unwrap();
        let route_a = app.open_stream(StreamId::new(1)).unwrap();
        let route_b = app.open_stream(StreamId::new(2)).unwrap();

        let mut proxy = Proxy::with_runtime("shared", RuntimeConfig::new(2, 8));
        let carrier = proxy.add_udp_carrier("wire", UdpCarrierConfig::new()).unwrap();
        let handle_a = proxy
            .add_stream_udp_shared(
                "a",
                SharedUdpStreamConfig::on_carrier("wire", app.local_addr())
                    .with_stream(StreamId::new(1)),
            )
            .unwrap();
        let handle_b = proxy
            .add_stream_udp_shared(
                "b",
                SharedUdpStreamConfig::on_carrier("wire", app.local_addr())
                    .with_stream(StreamId::new(2)),
            )
            .unwrap();
        assert_eq!(handle_a.ingress_addr(), carrier.ingress_addr());
        assert_eq!(proxy.stream_names(), vec!["a", "b"]);
        assert_eq!(proxy.carrier_names(), vec!["wire"]);
        assert_eq!(carrier.route_count(), 2);
        // Both streams are ordinary streams: filters splice in live.
        proxy
            .insert_filter("a", 0, &FilterSpec::new("tap").with_param("name", "shared"))
            .unwrap();

        // Interleave both streams onto the one carrier socket, plus one
        // frame for a stream nobody claimed.
        let app_tx = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        for seq in 0..8u64 {
            encode_to(&app_tx, carrier.ingress_addr(), &stream_packet(1, seq));
            encode_to(&app_tx, carrier.ingress_addr(), &stream_packet(2, seq));
        }
        encode_to(&app_tx, carrier.ingress_addr(), &stream_packet(9, 0));
        drain_app_until(&app, || app.stats().rx_packets() == 16);
        for seq in 0..8u64 {
            assert_eq!(route_a.try_recv().unwrap().seq().value(), seq);
            assert_eq!(route_b.try_recv().unwrap().seq().value(), seq);
        }

        // Ending stream a FINs only stream a; its socket-mate keeps
        // flowing.  (The app side is hand-driven, so the FIN only becomes
        // observable through a drain.)
        handle_a.close_input();
        drain_app_until(&app, || {
            matches!(route_a.try_recv(), Err(rapidware_streams::TryRecvError::Eof))
        });
        encode_to(&app_tx, carrier.ingress_addr(), &stream_packet(2, 8));
        drain_app_until(&app, || app.stats().rx_packets() == 17);
        assert_eq!(route_b.try_recv().unwrap().seq().value(), 8);

        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while carrier.unknown_streams() < 1 {
            assert!(std::time::Instant::now() < deadline, "unknown frame never counted");
            std::thread::yield_now();
        }
        let status = proxy.status();
        assert_eq!(status.transports.len(), 1);
        assert_eq!(status.transports[0].name, "wire");
        assert_eq!(status.transports[0].ingress.rx_packets, 17, "two live streams, one socket");
        assert_eq!(status.transports[0].unknown_streams, 1);
        let rendered = crate::Response::Status(status).to_string();
        assert!(rendered.contains("udp=wire at="), "{rendered}");
        assert!(rendered.contains("unknown-stream=1 io-err=0 tx-batches="), "{rendered}");
        assert!(rendered.contains(" gso-refused=0"), "{rendered}");

        // Zero per-socket threads: the only live transport machinery is the
        // carrier task's one epoll registration.
        assert_eq!(proxy.runtime().unwrap().reactor_sockets(), 1);
        handle_b.close_input();
        drain_app_until(&app, || {
            matches!(route_b.try_recv(), Err(rapidware_streams::TryRecvError::Eof))
        });
        proxy.shutdown().unwrap();
    }

    #[test]
    fn shared_sessions_fan_out_lanes_onto_the_carrier_socket() {
        let config = rapidware_transport::UdpConfig::default();
        let app = rapidware_transport::SharedUdpIngress::bind("127.0.0.1:0", &config).unwrap();
        let lane_a = app.open_stream(StreamId::new(1)).unwrap();
        // A second app socket proves lanes go to distinct peers.
        let app_b = rapidware_transport::SharedUdpIngress::bind("127.0.0.1:0", &config).unwrap();
        let lane_b = app_b.open_stream(StreamId::new(1)).unwrap();

        let mut proxy = Proxy::with_runtime("shared", RuntimeConfig::new(2, 8));
        let carrier = proxy.add_udp_carrier("wire", UdpCarrierConfig::new()).unwrap();
        let handle = proxy
            .add_session_udp_shared(
                "fanout",
                SharedUdpSessionConfig::on_carrier("wire")
                    .with_stream(StreamId::new(1))
                    .with_lane("a", app.local_addr())
                    .with_lane("b", app_b.local_addr()),
            )
            .unwrap();
        assert_eq!(proxy.session_names(), vec!["fanout"]);
        assert_eq!(handle.lanes(), ["a".to_string(), "b".to_string()]);

        let app_tx = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        for seq in 0..4u64 {
            encode_to(&app_tx, handle.ingress_addr(), &stream_packet(1, seq));
        }
        drain_app_until(&app, || app.stats().rx_packets() == 4);
        drain_app_until(&app_b, || app_b.stats().rx_packets() == 4);
        for seq in 0..4u64 {
            assert_eq!(lane_a.try_recv().unwrap().seq().value(), seq);
            assert_eq!(lane_b.try_recv().unwrap().seq().value(), seq);
        }
        handle.close_input();
        drain_app_until(&app, || {
            matches!(lane_a.try_recv(), Err(rapidware_streams::TryRecvError::Eof))
        });
        drain_app_until(&app_b, || {
            matches!(lane_b.try_recv(), Err(rapidware_streams::TryRecvError::Eof))
        });
        let status = proxy.status();
        assert_eq!(status.transports[0].egress.tx_packets, 10, "two lanes x (4 + FIN)");
        let _ = carrier;
        proxy.shutdown().unwrap();
    }

    #[test]
    fn a_session_installed_under_traffic_fans_every_accepted_datagram_to_every_lane() {
        const SESSIONS: u32 = 8;
        let mut proxy = Proxy::with_runtime("racing", RuntimeConfig::new(2, 8));
        let carrier = proxy.add_udp_carrier("wire", UdpCarrierConfig::new()).unwrap();
        let sink = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        let sink = sink.local_addr().unwrap();
        let sending = std::sync::atomic::AtomicBool::new(true);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let wait_for = |what: &str, done: &dyn Fn() -> bool| {
            while !done() {
                assert!(std::time::Instant::now() < deadline, "{what}");
                std::thread::yield_now();
            }
        };
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let tx = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
                let mut seq = 0;
                while sending.load(std::sync::atomic::Ordering::SeqCst) {
                    for stream in 1..=SESSIONS {
                        encode_to(&tx, carrier.ingress_addr(), &stream_packet(stream, seq));
                    }
                    seq += 1;
                }
            });
            // Datagrams for every session's stream id are already arriving
            // when the sessions are placed, one after another.
            wait_for("traffic never reached the carrier", &|| {
                carrier.unknown_streams() > 0
            });
            for stream in 1..=SESSIONS {
                let config = SharedUdpSessionConfig::on_carrier("wire")
                    .with_stream(StreamId::new(stream))
                    .with_lane("a", sink)
                    .with_lane("b", sink);
                proxy.add_session_udp_shared(format!("s{stream}"), config).unwrap();
            }
            for name in proxy.session_names() {
                let session = proxy.pooled_session(&name).unwrap();
                wait_for("a session never saw traffic", &|| {
                    session.status().head_stats.packets_in > 0
                });
            }
            sending.store(false, std::sync::atomic::Ordering::SeqCst);
        });
        for name in proxy.session_names() {
            let session = proxy.pooled_session(&name).unwrap();
            session.close_input();
            wait_for("a lane missed datagrams the head accepted", &|| {
                let status = session.status();
                let head = status.head_stats.packets_in;
                status.lanes.iter().all(|lane| lane.stats.packets_in == head)
            });
        }
        proxy.shutdown().unwrap();
    }

    #[test]
    fn shared_placement_failures_leave_no_trace_behind() {
        let mut proxy = Proxy::with_runtime("shared", RuntimeConfig::new(1, 4));
        let peer = std::net::SocketAddr::from(([127, 0, 0, 1], 9));
        // Placement on a carrier that does not exist.
        assert!(matches!(
            proxy.add_stream_udp_shared(
                "s",
                SharedUdpStreamConfig::on_carrier("nope", peer).with_stream(StreamId::new(1)),
            ),
            Err(ProxyError::UnknownCarrier(_))
        ));
        assert!(matches!(
            proxy.add_session_udp_shared(
                "s",
                SharedUdpSessionConfig::on_carrier("nope").with_stream(StreamId::new(1)),
            ),
            Err(ProxyError::UnknownCarrier(_))
        ));
        // Binding a non-local address fails; the carrier name must be free
        // again afterwards.
        let bogus = UdpCarrierConfig::new()
            .with_bind(std::net::SocketAddr::from(([203, 0, 113, 1], 0)));
        assert!(matches!(
            proxy.add_udp_carrier("wire", bogus),
            Err(ProxyError::Transport(_))
        ));
        assert!(proxy.carrier_names().is_empty());
        let carrier = proxy.add_udp_carrier("wire", UdpCarrierConfig::new()).unwrap();
        assert!(matches!(
            proxy.add_udp_carrier("wire", UdpCarrierConfig::new()),
            Err(ProxyError::Splice(_))
        ));
        // A placement with no stream ids is rejected up front.
        assert!(matches!(
            proxy.add_stream_udp_shared("s", SharedUdpStreamConfig::on_carrier("wire", peer)),
            Err(ProxyError::Splice(_))
        ));
        proxy
            .add_stream_udp_shared(
                "s",
                SharedUdpStreamConfig::on_carrier("wire", peer).with_stream(StreamId::new(1)),
            )
            .unwrap();
        // Claiming an already-routed stream id rolls the whole placement
        // back: the stream name and the fresh id are free again.
        assert!(matches!(
            proxy.add_stream_udp_shared(
                "t",
                SharedUdpStreamConfig::on_carrier("wire", peer)
                    .with_stream(StreamId::new(2))
                    .with_stream(StreamId::new(1)),
            ),
            Err(ProxyError::Splice(_))
        ));
        assert_eq!(proxy.stream_names(), vec!["s"]);
        assert_eq!(carrier.route_count(), 1);
        assert!(matches!(
            proxy.add_session_udp_shared(
                "u",
                SharedUdpSessionConfig::on_carrier("wire").with_stream(StreamId::new(1)),
            ),
            Err(ProxyError::Splice(_))
        ));
        assert!(proxy.session_names().is_empty());
        proxy
            .add_stream_udp_shared(
                "t",
                SharedUdpStreamConfig::on_carrier("wire", peer).with_stream(StreamId::new(2)),
            )
            .unwrap();
        proxy.shutdown().unwrap();
    }

    #[test]
    fn a_shared_session_placed_without_lanes_holds_its_traffic_for_the_first_lane() {
        // Lanes may join after placement; datagrams that arrive before the
        // first one are held for it, not fanned out to nobody.
        let mut proxy = Proxy::with_runtime("shared", RuntimeConfig::new(1, 4));
        let carrier = proxy.add_udp_carrier("wire", UdpCarrierConfig::new()).unwrap();
        let config = SharedUdpSessionConfig::on_carrier("wire").with_stream(StreamId::new(1));
        proxy.add_session_udp_shared("late", config).unwrap();
        let tx = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        for seq in 0..6 {
            encode_to(&tx, carrier.ingress_addr(), &stream_packet(1, seq));
        }
        let session = proxy.pooled_session("late").unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while session.status().head_stats.packets_in < 6 {
            assert!(std::time::Instant::now() < deadline, "the carrier never routed the datagrams");
            std::thread::yield_now();
        }
        // Time for the task to take them through the head, so they wait
        // for the lane there and not in the inbox.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let lane = session.add_lane("first").unwrap();
        for seq in 0..6 {
            let packet = lane.recv_timeout(std::time::Duration::from_secs(30));
            assert_eq!(packet.map(|p| p.seq().value()), Ok(seq), "held for the first lane");
        }
        proxy.shutdown().unwrap();
    }

    #[test]
    fn stream_stats_track_traffic() {
        let mut proxy = Proxy::new("p");
        let (input, output) = proxy.add_stream_pooled("s").unwrap();
        for seq in 0..5 {
            input.send(packet(seq)).unwrap();
        }
        for _ in 0..5 {
            output.recv().unwrap();
        }
        let stats = proxy.stream_stats("s").unwrap();
        assert_eq!(stats.packets_in, 5);
        assert_eq!(stats.packets_out, 5);
        proxy.shutdown().unwrap();
    }
}
