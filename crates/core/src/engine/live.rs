//! The live applier: a scenario's chains running on a [`Proxy`].  This is
//! the one module in the engine that places work on a proxy.

use std::fmt;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware_proxy::{
    PooledSession, Proxy, RuntimeConfig, SharedUdpSessionConfig, UdpCarrierConfig,
};
use rapidware_raplets::{apply_to_pooled_session, apply_to_session_head, AdaptationAction};
use rapidware_streams::{pipe, DetachableReceiver, DetachableSender, TryRecvError};
use rapidware_transport::{SharedDrain, SharedUdpIngress, UdpConfig};

use super::applier::{marker_stream, Applier, Chain};
use super::report::LatencySummary;
use super::spec::ScenarioSpec;

/// How a [`LiveApplier`] reaches its proxy: the two live placements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveIo {
    /// In-process pipes: packets go straight into the session's input
    /// pipe, lane output is read off the proxy's pipes.
    Pipes,
    /// A loopback carrier: every packet crosses two real UDP sockets — the
    /// proxy side a carrier demuxed by its carrier task on the worker
    /// pool, the application side one hand-drained socket per lane.
    Carrier,
}

/// The stream id scenario sources emit on (see
/// [`AudioSource`](rapidware_media::AudioSource) construction in the
/// engines): a carrier routes it, plus the marker stream, into the chain.
fn scenario_stream() -> StreamId {
    StreamId::new(1)
}

/// The name every applier-owned carrier registers under.
const CARRIER: &str = "carrier";

/// How long a drain naps when no lane made progress.
const DRAIN_POLL: Duration = Duration::from_micros(50);

/// The engine's side of the placement: where packets go in, how lane
/// output is pulled up to the lane pipes, and how the input ends.
enum Ends {
    Pipes(DetachableSender<Packet>),
    Carrier {
        tx: UdpSocket,
        ingress: SocketAddr,
        scratch: Vec<u8>,
        /// One application-side socket per lane, drained by hand into
        /// that lane's route pipe.
        apps: Vec<SharedUdpIngress>,
        close_input: Box<dyn Fn() + Send>,
    },
}

impl Ends {
    fn send(&mut self, packet: Packet) {
        match self {
            Ends::Pipes(input) => input.send(packet).expect("the live input stays open"),
            Ends::Carrier { tx, ingress, scratch, .. } => {
                packet.encode_into(scratch);
                tx.send_to(scratch, *ingress).expect("loopback sends do not fail");
            }
        }
    }

    /// Moves everything the OS holds for the app-side sockets onto their
    /// route pipes (pipes need no feeding).
    fn feed(&self) {
        if let Ends::Carrier { apps, .. } = self {
            for app in apps {
                while app.drain_batch() == SharedDrain::MoreReady {}
            }
        }
    }

    /// Closes the chain input, which flushes every filter; each lane then
    /// reaches end of stream (on a carrier, via its FIN).
    fn close_input(&self) {
        match self {
            Ends::Pipes(input) => input.close(),
            Ends::Carrier { close_input, .. } => close_input(),
        }
    }
}

/// The live applier: a scenario's chains on a [`Proxy`] worker pool
/// ([`Proxy::with_runtime`]), reconfigured through the proxy's control
/// surface while packets flow.
///
/// The chains are one pooled session — the spec's head chain and one
/// egress lane per lane of the spec; its [`LiveIo`] picks how packets reach
/// the proxy and come back:
///
/// ```text
///  Pipes:    engine ──▶ input pipe ──▶ pooled task ──▶ lane pipes ──▶ engine
///            (Proxy::add_session_pooled)
///  Carrier:  engine ──encode──▶ UDP ──▶ carrier demux ──▶ pooled task
///              ──▶ carrier mux ──▶ UDP, one app socket per lane ──decode──▶ engine
///            (Proxy::add_session_udp_shared)
/// ```
///
/// The applier stays deterministic by quiescing at every step: after
/// pushing a window of packets (or applying actions that flush residue) it
/// sends a [`PacketKind::Control`] marker and drains every lane until the
/// marker's copy emerges.  Every built-in filter passes control packets
/// through untouched and each path is FIFO — loopback UDP from a single
/// socket too, which with window-bounded in-flight data is also lossless —
/// so everything the window produced is collected, in order, before the
/// engine moves on, whatever the shard count, batch size or I/O mode.
/// Source packets ride stream id 1 and markers a reserved stream id; on a
/// carrier both ids route into the same chain and, app-side, into the same
/// route pipe, which keeps the single-socket order.
pub struct LiveApplier {
    // First field, so it drops first: `Proxy`'s own drop shuts every
    // carrier and session down before the engine-side ends go.
    proxy: Proxy,
    session: String,
    lanes: Vec<String>,
    ends: Ends,
    outputs: Vec<DetachableReceiver<Packet>>,
    /// Per lane, everything drained and not yet handed back, in order.
    pending: Vec<Vec<Packet>>,
    next_marker: u64,
}

impl fmt::Debug for LiveApplier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LiveApplier")
            .field("session", &self.session)
            .field("lanes", &self.lanes)
            .finish()
    }
}

impl LiveApplier {
    /// Places `spec`'s chains on a fresh proxy as a session named after the
    /// spec: the head chain populated from its head filters, one egress
    /// lane per lane, on a `shards`-worker pool processing batches of the
    /// spec's batch size.  The pipes (and, on a carrier, the socket queues)
    /// are sized so a whole sample window plus parity overhead fits without
    /// blocking the driver or shedding frames.
    ///
    /// # Panics
    ///
    /// Panics if a loopback socket cannot be bound, a head filter cannot be
    /// built, or a lane name repeats ([`ScenarioSpec::validate`] rejects
    /// both).
    pub fn session(io: LiveIo, spec: &ScenarioSpec, shards: usize) -> Self {
        let name = spec.name.as_str();
        let batch_size = spec.batch_size.max(1);
        let lanes: Vec<String> = spec.lanes.iter().map(|lane| lane.name.clone()).collect();
        let capacity = (spec.sample_interval as usize).max(32) * 4;
        let mut proxy = Proxy::with_runtime(
            "scenario-proxy",
            RuntimeConfig::new(shards, batch_size).with_pipe_capacity(capacity),
        );
        // Telemetry (spans plus runtime profiling) goes on before anything
        // is placed.
        proxy.enable_telemetry();
        let (ends, outputs) = match io {
            LiveIo::Pipes => {
                let input = proxy
                    .add_session_pooled(name, capacity, batch_size)
                    .expect("a fresh proxy accepts its first session");
                let session = proxy.pooled_session(name).expect("the session was just created");
                let outputs = lanes
                    .iter()
                    .map(|lane| session.add_lane(lane).expect("lane names are unique"))
                    .collect();
                (Ends::Pipes(input), outputs)
            }
            LiveIo::Carrier => {
                let carrier =
                    UdpCarrierConfig::new().with_capacity(capacity).with_batch_size(batch_size);
                proxy
                    .add_udp_carrier(CARRIER, carrier)
                    .expect("a fresh proxy accepts its first carrier");
                let (apps, outputs): (Vec<_>, Vec<_>) =
                    lanes.iter().map(|_| bind_app_socket(capacity)).unzip();
                let mut config = SharedUdpSessionConfig::on_carrier(CARRIER)
                    .with_stream(scenario_stream())
                    .with_stream(marker_stream())
                    .with_capacity(capacity)
                    .with_batch_size(batch_size);
                for (lane, app) in lanes.iter().zip(&apps) {
                    config = config.with_lane(lane, app.local_addr());
                }
                let handle = proxy
                    .add_session_udp_shared(name, config)
                    .expect("a fresh carrier accepts its first session");
                let ingress = handle.ingress_addr();
                let close_input = Box::new(move || handle.close_input());
                (carrier_ends(ingress, apps, close_input), outputs)
            }
        };
        let session = proxy.pooled_session(name).expect("the session was just created");
        for (position, filter_spec) in spec.head_filters.iter().enumerate() {
            session
                .insert_head_filter(position, filter_spec)
                .expect("validated specs build their head filters");
        }
        Self {
            proxy,
            session: name.to_string(),
            lanes,
            ends,
            pending: vec![Vec::new(); outputs.len()],
            outputs,
            next_marker: 0,
        }
    }

    fn pooled_session(&self) -> &PooledSession {
        self.proxy
            .pooled_session(&self.session)
            .expect("the session exists for the applier's lifetime")
    }

    /// Sends one control marker (a session fans it out to every lane) and
    /// drains until each lane's copy emerges.
    fn quiesce(&mut self) {
        let marker_seq = self.next_marker;
        self.next_marker += 1;
        let marker =
            Packet::new(marker_stream(), SeqNo::new(marker_seq), PacketKind::Control, Vec::new());
        self.ends.send(marker);
        self.drain(Some(marker_seq));
    }

    /// Drains **all lanes concurrently** into `pending`, markers excluded,
    /// until each lane yields marker `until` — or, with `None`, until each
    /// lane reaches end of stream.
    ///
    /// The drain is round-robin with non-blocking receives rather than
    /// lane by lane: a session's fanout back-pressures against full lane
    /// pipes, so blocking on lane 0 while the fanout is parked against
    /// lane 1 would deadlock whenever a window (amplified by an expanding
    /// head filter) overflows a pipe.
    fn drain(&mut self, until: Option<u64>) {
        let mut done = vec![false; self.outputs.len()];
        while done.contains(&false) {
            self.ends.feed();
            let mut progressed = false;
            for (lane, output) in self.outputs.iter().enumerate() {
                while !done[lane] {
                    match output.try_recv() {
                        Ok(packet) => {
                            progressed = true;
                            if packet.kind() == PacketKind::Control
                                && packet.stream() == marker_stream()
                            {
                                // An earlier marker only shows up here if
                                // a caller ignored a drain's result.
                                done[lane] = until == Some(packet.seq().value());
                            } else {
                                self.pending[lane].push(packet);
                            }
                        }
                        Err(TryRecvError::Empty) => break,
                        Err(_) => {
                            assert!(until.is_none(), "lane {lane} ended with a marker in flight");
                            done[lane] = true;
                        }
                    }
                }
            }
            if !progressed {
                std::thread::sleep(DRAIN_POLL);
            }
        }
    }

    /// Hands every lane's drained packets back, leaving `pending` empty.
    fn take_all(&mut self) -> Vec<Vec<Packet>> {
        self.pending.iter_mut().map(std::mem::take).collect()
    }
}

fn carrier_ends(
    ingress: SocketAddr,
    apps: Vec<SharedUdpIngress>,
    close_input: Box<dyn Fn() + Send>,
) -> Ends {
    Ends::Carrier {
        tx: UdpSocket::bind("127.0.0.1:0").expect("binding the app-side send socket"),
        ingress,
        scratch: Vec::new(),
        apps,
        close_input,
    }
}

/// Binds an application-side receive socket whose scenario and marker
/// stream ids share one route pipe (so their relative order survives the
/// demux).  The lane's FIN rides the scenario stream id and closes it.
fn bind_app_socket(capacity: usize) -> (SharedUdpIngress, DetachableReceiver<Packet>) {
    let app = SharedUdpIngress::bind("127.0.0.1:0", &UdpConfig::default().with_capacity(capacity))
        .expect("binding an ephemeral loopback socket");
    let (sink, route) = pipe(capacity);
    for stream in [scenario_stream(), marker_stream()] {
        app.open_stream_into(stream, sink.clone()).expect("a fresh socket has no routes");
    }
    (app, route)
}

impl Applier for LiveApplier {
    fn process(&mut self, packets: Vec<Packet>) -> Vec<Vec<Packet>> {
        for packet in packets {
            self.ends.send(packet);
        }
        self.quiesce();
        self.take_all()
    }

    fn apply(&mut self, chain: Chain, actions: &[AdaptationAction]) -> Vec<Vec<Packet>> {
        let session = self.pooled_session();
        match chain {
            Chain::Head => apply_to_session_head(session, actions),
            Chain::Lane(lane) => apply_to_pooled_session(session, &self.lanes[lane], actions),
        }
        .expect("responder actions are valid for the live chain");
        // Residue flushed out of a removed or replaced filter lands in the
        // task's pending buffer (a head filter's crosses every lane);
        // quiescing picks it up in order.
        self.quiesce();
        self.take_all()
    }

    fn filters(&self, chain: Chain) -> Vec<String> {
        let session = self.pooled_session();
        match chain {
            Chain::Head => session.head_filter_names(),
            Chain::Lane(lane) => session
                .lane_filter_names(&self.lanes[lane])
                .expect("placed lanes exist for the applier's lifetime"),
        }
    }

    fn finish(&mut self) -> Vec<Vec<Packet>> {
        self.ends.close_input();
        self.drain(None);
        self.take_all()
    }

    fn latency(&self) -> Option<LatencySummary> {
        let telemetry = self.proxy.telemetry_registry()?;
        LatencySummary::from_snapshot(&telemetry.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{ScenarioEngine, ScenarioSpec};

    #[test]
    fn the_shared_applier_matches_the_sync_applier_on_a_small_scenario() {
        // FEC on the head of a one-lane session, then on each lane of a
        // four-lane one behind a head tap.
        for spec in [
            ScenarioSpec::handoff_cliff().with_packets(400),
            ScenarioSpec::all_wired().with_packets(300),
        ] {
            let engine = ScenarioEngine::new(spec);
            let sync = engine.run_sync();
            let shared = engine.run_udp_shared();
            assert_eq!(sync.report, shared.report, "the carrier must not change the outcome");
            assert_eq!(sync.trace.canonical_text(), shared.trace.canonical_text());
        }
    }
}
