//! Appliers that run a scenario's chain over **real loopback UDP
//! sockets**: the reactor-driven data plane from
//! [`Proxy::add_udp_carrier`](rapidware_proxy::Proxy), where one bound UDP
//! socket carries every stream of the scenario and pool tasks woken by
//! socket readiness drain and flush it in batches.
//!
//! ```text
//!   engine ──encode──▶ UDP ──▶ carrier demux ─▶ pooled chain ─▶ carrier mux ──▶ UDP ──decode──▶ engine
//! ```
//!
//! Same closed loop as the in-process appliers, different data plane:
//! [`SharedUdpApplier`] and [`SharedUdpFanoutApplier`] encode every packet
//! into a datagram, send it to the carrier, and decode what comes back off
//! hand-driven application-side sockets (one [`SharedUdpIngress`] per
//! receiver, drained from the engine's own receive loop).
//!
//! Determinism over a real socket path relies on two facts: loopback UDP
//! from a single socket is FIFO and (with window-bounded in-flight data)
//! lossless, and the appliers quiesce with the same control-marker
//! protocol as their in-process siblings — a [`PacketKind::Control`]
//! marker rides the full socket → chain → socket path, so everything a
//! window produced is collected, in order, before the engine moves on.
//! The scenario's source packets ride stream id 1 and the quiescence
//! markers ride the reserved marker stream; both ids are routed to the
//! same chain (and, app-side, to the same route pipe), which preserves the
//! single-socket FIFO order.  The scenario matrix requires these appliers'
//! reports and canonical traces to be **byte-identical** to the sync
//! applier's.

use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware_proxy::{
    Proxy, RuntimeConfig, SharedUdpSessionConfig, SharedUdpSessionHandle, SharedUdpStreamConfig,
    SharedUdpStreamHandle, UdpCarrierConfig,
};
use rapidware_raplets::{apply_to_pooled_session, apply_to_proxy, AdaptationAction};
use rapidware_streams::{pipe, DetachableReceiver, TryRecvError};
use rapidware_transport::{SharedDrain, SharedUdpIngress, UdpConfig};

use super::applier::{marker_stream, ActionApplier};
use super::fanout::{drain_lanes_to_eof, drain_lanes_until_marker, FanoutApplier, FanoutSpec};
use super::POOLED_APPLIER_SHARDS;

/// The stream id scenario sources emit on (see
/// [`AudioSource`](rapidware_media::AudioSource) construction in the
/// engine): the carrier routes it, plus the marker stream, into the
/// scenario chain.
fn scenario_stream() -> StreamId {
    StreamId::new(1)
}

/// The name every applier-owned carrier registers under.
const CARRIER: &str = "carrier";

/// How long an app-side receive loop naps when its socket is dry.
const APP_POLL: Duration = Duration::from_micros(50);

/// Encodes `packet` and sends it to `peer` as one datagram.
fn transmit(socket: &UdpSocket, peer: SocketAddr, packet: &Packet, scratch: &mut Vec<u8>) {
    packet.encode_into(scratch);
    socket
        .send_to(scratch, peer)
        .expect("loopback sends do not fail");
}

fn marker(seq: u64) -> Packet {
    Packet::new(marker_stream(), SeqNo::new(seq), PacketKind::Control, Vec::new())
}

/// Binds an application-side receive socket whose scenario and marker
/// stream ids share one route pipe (so their relative order survives the
/// demux).  The chain's FIN rides the scenario stream id and closes it.
fn bind_app_socket(capacity: usize) -> (SharedUdpIngress, DetachableReceiver<Packet>) {
    let app = SharedUdpIngress::bind("127.0.0.1:0", &UdpConfig::default().with_capacity(capacity))
        .expect("binding an ephemeral loopback socket");
    let (sink, route) = pipe(capacity);
    for stream in [scenario_stream(), marker_stream()] {
        app.open_stream_into(stream, sink.clone())
            .expect("a fresh socket has no routes");
    }
    (app, route)
}

/// Moves everything the OS is holding for `app` onto its route pipes.
fn drain_app(app: &SharedUdpIngress) {
    while app.drain_batch() == SharedDrain::MoreReady {}
}

/// The wire applier: one flat pooled stream riding a carrier, so the
/// whole closed loop crosses two real sockets and the readiness reactor.
#[derive(Debug)]
pub struct SharedUdpApplier {
    proxy: Proxy,
    stream: String,
    handle: SharedUdpStreamHandle,
    tx: UdpSocket,
    scratch: Vec<u8>,
    app: SharedUdpIngress,
    rx: DetachableReceiver<Packet>,
    next_marker: u64,
    finished: bool,
}

impl SharedUdpApplier {
    /// Spins up a proxy with a carrier and one shared-socket stream on a
    /// [`POOLED_APPLIER_SHARDS`]-worker pool, plus the application-side
    /// sockets on both ends.  `window_hint` sizes the pipes so a whole
    /// sample window (plus parity overhead) fits without shedding frames.
    ///
    /// # Panics
    ///
    /// Panics if a loopback socket cannot be bound (resource exhaustion).
    pub fn new(batch_size: usize, window_hint: usize) -> Self {
        let capacity = (window_hint.max(32)) * 4;
        let (app, rx) = bind_app_socket(capacity);
        let mut proxy = Proxy::with_runtime(
            "scenario-proxy",
            RuntimeConfig::new(POOLED_APPLIER_SHARDS, batch_size.max(1))
                .with_pipe_capacity(capacity),
        );
        proxy
            .add_udp_carrier(
                CARRIER,
                UdpCarrierConfig::new()
                    .with_capacity(capacity)
                    .with_batch_size(batch_size.max(1)),
            )
            .expect("a fresh proxy accepts its first carrier");
        let handle = proxy
            .add_stream_udp_shared(
                "scenario",
                SharedUdpStreamConfig::on_carrier(CARRIER, app.local_addr())
                    .with_stream(scenario_stream())
                    .with_stream(marker_stream())
                    .with_capacity(capacity)
                    .with_batch_size(batch_size.max(1)),
            )
            .expect("a fresh carrier accepts its first stream");
        let tx = UdpSocket::bind("127.0.0.1:0").expect("binding the app-side send socket");
        Self {
            proxy,
            stream: "scenario".to_string(),
            handle,
            tx,
            scratch: Vec::new(),
            app,
            rx,
            next_marker: 0,
            finished: false,
        }
    }

    /// The next packet off the app-side socket, or `None` once the
    /// stream's FIN has closed the route.
    fn recv(&self) -> Option<Packet> {
        loop {
            match self.rx.try_recv() {
                Ok(packet) => return Some(packet),
                Err(TryRecvError::Empty) => {}
                Err(_) => return None,
            }
            drain_app(&self.app);
            if self.rx.is_empty() {
                std::thread::sleep(APP_POLL);
            }
        }
    }

    fn quiesce(&mut self) -> Vec<Packet> {
        let marker_seq = self.next_marker;
        self.next_marker += 1;
        transmit(&self.tx, self.handle.ingress_addr(), &marker(marker_seq), &mut self.scratch);
        let mut collected = Vec::new();
        loop {
            let packet = self
                .recv()
                .expect("the marker is still in flight, so the stream cannot end");
            if packet.kind() == PacketKind::Control && packet.stream() == marker_stream() {
                if packet.seq().value() == marker_seq {
                    return collected;
                }
                continue;
            }
            collected.push(packet);
        }
    }
}

impl ActionApplier for SharedUdpApplier {
    fn label(&self) -> &'static str {
        "shared-udp"
    }

    fn process(&mut self, packets: Vec<Packet>) -> Vec<Packet> {
        for packet in &packets {
            transmit(&self.tx, self.handle.ingress_addr(), packet, &mut self.scratch);
        }
        self.quiesce()
    }

    fn apply(&mut self, actions: &[AdaptationAction]) -> Vec<Packet> {
        apply_to_proxy(&self.proxy, &self.stream, actions)
            .expect("responder actions are valid for the live chain");
        self.quiesce()
    }

    fn installed_filters(&self) -> Vec<String> {
        self.proxy
            .filter_names(&self.stream)
            .expect("the scenario stream exists for the applier's lifetime")
    }

    fn finish(&mut self) -> Vec<Packet> {
        self.finished = true;
        // Closing the chain input flushes every filter; the residue rides
        // out the carrier's egress followed by the stream's FIN, which
        // ends the app-side stream.
        self.handle.close_input();
        let mut residue = Vec::new();
        while let Some(packet) = self.recv() {
            if packet.kind() == PacketKind::Control && packet.stream() == marker_stream() {
                continue;
            }
            residue.push(packet);
        }
        residue
    }
}

impl Drop for SharedUdpApplier {
    fn drop(&mut self) {
        if !self.finished {
            self.handle.close_input();
        }
        let _ = self.proxy.shutdown();
    }
}

/// The wire fanout applier: a pooled session riding a carrier, every lane
/// multiplexed back out of the carrier's one socket to its own
/// application-side receiver.
pub struct SharedUdpFanoutApplier {
    proxy: Proxy,
    session: String,
    handle: SharedUdpSessionHandle,
    tx: UdpSocket,
    scratch: Vec<u8>,
    /// Application-side sockets, one per lane, drained by hand into the
    /// route pipes in `outputs`.
    lane_rx: Vec<SharedUdpIngress>,
    outputs: Vec<DetachableReceiver<Packet>>,
    lane_names: Vec<String>,
    /// Packets collected for a lane outside its own turn; prepended to that
    /// lane's next `process` result so nothing is ever dropped.
    pending: Vec<Vec<Packet>>,
    next_marker: u64,
    finished: bool,
}

impl std::fmt::Debug for SharedUdpFanoutApplier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedUdpFanoutApplier")
            .field("lanes", &self.lane_names)
            .finish()
    }
}

impl SharedUdpFanoutApplier {
    /// Spins up a carrier-backed pooled session for a spec: head filters
    /// installed, one egress lane (and one application-side socket) per
    /// [`LaneSpec`](super::LaneSpec), pipes sized so a whole sample window
    /// fits without shedding frames.
    ///
    /// # Panics
    ///
    /// Panics if a loopback socket cannot be bound (resource exhaustion).
    pub fn for_spec(spec: &FanoutSpec) -> Self {
        let capacity = (spec.sample_interval.max(32) as usize) * 4;
        let mut lane_rx = Vec::with_capacity(spec.lanes.len());
        let mut outputs = Vec::with_capacity(spec.lanes.len());
        let mut session_config = SharedUdpSessionConfig::on_carrier(CARRIER)
            .with_stream(scenario_stream())
            .with_stream(marker_stream())
            .with_capacity(capacity)
            .with_batch_size(spec.batch_size.max(1));
        for lane in &spec.lanes {
            let (app, route) = bind_app_socket(capacity);
            session_config = session_config.with_lane(&lane.name, app.local_addr());
            lane_rx.push(app);
            outputs.push(route);
        }
        let mut proxy = Proxy::with_runtime(
            "scenario-proxy",
            RuntimeConfig::new(POOLED_APPLIER_SHARDS, spec.batch_size.max(1))
                .with_pipe_capacity(capacity),
        );
        proxy
            .add_udp_carrier(
                CARRIER,
                UdpCarrierConfig::new()
                    .with_capacity(capacity)
                    .with_batch_size(spec.batch_size.max(1)),
            )
            .expect("a fresh proxy accepts its first carrier");
        let handle = proxy
            .add_session_udp_shared(spec.name.clone(), session_config)
            .expect("a fresh carrier accepts its first session");
        let session = proxy
            .pooled_session(&spec.name)
            .expect("the session was just created");
        for (position, filter_spec) in spec.head_filters.iter().enumerate() {
            session
                .insert_head_filter(position, filter_spec)
                .expect("head filter specs reference registered kinds");
        }
        let tx = UdpSocket::bind("127.0.0.1:0").expect("binding the app-side send socket");
        let lane_names: Vec<String> = spec.lanes.iter().map(|lane| lane.name.clone()).collect();
        let lane_count = lane_names.len();
        Self {
            proxy,
            session: spec.name.clone(),
            handle,
            tx,
            scratch: Vec::new(),
            lane_rx,
            outputs,
            lane_names,
            pending: vec![Vec::new(); lane_count],
            next_marker: 0,
            finished: false,
        }
    }

    /// Sends one control marker into the carrier (it routes to the session
    /// head and fans out to every lane) and drains all lanes concurrently
    /// until each copy emerges.
    fn quiesce_all(&mut self) -> Vec<Vec<Packet>> {
        let marker_seq = self.next_marker;
        self.next_marker += 1;
        transmit(&self.tx, self.handle.ingress_addr(), &marker(marker_seq), &mut self.scratch);
        let lane_rx = &self.lane_rx;
        drain_lanes_until_marker(&self.outputs, marker_seq, || lane_rx.iter().for_each(drain_app))
    }
}

impl FanoutApplier for SharedUdpFanoutApplier {
    fn label(&self) -> &'static str {
        "shared-udp"
    }

    fn process(&mut self, packets: Vec<Packet>) -> Vec<Vec<Packet>> {
        for packet in &packets {
            transmit(&self.tx, self.handle.ingress_addr(), packet, &mut self.scratch);
        }
        let mut out = self.quiesce_all();
        for (lane, extra) in out.iter_mut().enumerate() {
            if !self.pending[lane].is_empty() {
                let mut merged = std::mem::take(&mut self.pending[lane]);
                merged.append(extra);
                *extra = merged;
            }
        }
        out
    }

    fn apply(&mut self, lane: usize, actions: &[AdaptationAction]) -> Vec<Packet> {
        let session = self
            .proxy
            .pooled_session(&self.session)
            .expect("the scenario session exists for the applier's lifetime");
        apply_to_pooled_session(session, &self.lane_names[lane], actions)
            .expect("responder actions are valid for the live lane");
        let mut all = self.quiesce_all();
        let target = std::mem::take(&mut all[lane]);
        for (index, extra) in all.into_iter().enumerate() {
            if !extra.is_empty() {
                self.pending[index].extend(extra);
            }
        }
        target
    }

    fn lane_filters(&self, lane: usize) -> Vec<String> {
        self.proxy
            .pooled_session(&self.session)
            .and_then(|session| session.lane_filter_names(&self.lane_names[lane]))
            .expect("spec lanes exist for the applier's lifetime")
    }

    fn head_filters(&self) -> Vec<String> {
        self.proxy
            .pooled_session(&self.session)
            .expect("the scenario session exists for the applier's lifetime")
            .head_filter_names()
    }

    fn finish(&mut self) -> Vec<Vec<Packet>> {
        self.finished = true;
        // Closing the session input flushes the head through every lane;
        // each lane sends its residue and its FIN out of the one carrier
        // socket, which closes the matching app-side pipe, so the EOF
        // drain below terminates.
        self.handle.close_input();
        let mut residue: Vec<Vec<Packet>> = std::mem::take(&mut self.pending);
        let lane_rx = &self.lane_rx;
        drain_lanes_to_eof(&self.outputs, &mut residue, || lane_rx.iter().for_each(drain_app));
        residue
    }
}

impl Drop for SharedUdpFanoutApplier {
    fn drop(&mut self) {
        if !self.finished {
            self.handle.close_input();
        }
        let _ = self.proxy.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{FanoutEngine, ScenarioEngine, ScenarioSpec};

    #[test]
    fn the_shared_applier_matches_the_sync_applier_on_a_small_scenario() {
        let spec = ScenarioSpec::handoff_cliff().with_packets(400);
        let engine = ScenarioEngine::new(spec);
        let sync = engine.run_sync();
        let shared = engine.run_udp_shared();
        assert_eq!(sync.report, shared.report, "the carrier must not change the outcome");
        assert_eq!(sync.trace.canonical_text(), shared.trace.canonical_text());
    }

    #[test]
    fn the_shared_fanout_applier_matches_the_sync_applier_on_a_small_spec() {
        let spec = super::super::FanoutSpec::all_wired().with_packets(300);
        let engine = FanoutEngine::new(spec);
        let sync = engine.run_sync();
        let shared = engine.run_udp_shared();
        assert_eq!(sync.report, shared.report, "the carrier must not change the outcome");
    }
}
