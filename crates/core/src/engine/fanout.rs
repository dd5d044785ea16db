//! Fanout scenarios: one source, a shared head chain, N heterogeneous
//! receiver lanes, each with its own closed adaptation loop.
//!
//! The flat [`ScenarioEngine`](super::ScenarioEngine) adapts *one* sender
//! chain that every receiver shares — the paper's multicast argument, where
//! clean receivers absorb the parity inserted for a lossy sibling.  A
//! [`FanoutEngine`] models the heterogeneous alternative: the head chain
//! does the work every receiver shares exactly once, then each receiver
//! lane runs its **own** tail chain, its own loss model, and its own
//! observer/responder loop, so FEC appears *only* on the lane whose link
//! needs it and the wired siblings pay nothing.
//!
//! ```text
//!                          ┌─ tail A (clean)  ──▶ receiver A   loop A (quiet)
//!  source ──▶ head chain ──┼─ tail B (clean)  ──▶ receiver B   loop B (quiet)
//!             (shared,     └─ tail C (lossy)  ──▶ receiver C   loop C inserts
//!              runs once)      fec-encoder(6,4)                 FEC on C only
//! ```
//!
//! Like the flat engine, a fanout run is deterministic per spec and seed,
//! produces a replayable [`ScenarioTrace`], and behaves identically on the
//! synchronous applier and on a live [`PooledSession`].
//!
//! ```
//! use rapidware::engine::{FanoutEngine, FanoutSpec};
//!
//! let spec = FanoutSpec::wired_plus_lossy_wlan().with_packets(400);
//! let outcome = FanoutEngine::new(spec).run_sync();
//! // Every lane surfaced every non-lost packet...
//! assert!(outcome.report.lanes.iter().all(|lane| lane.outcome.undelivered == 0));
//! // ...and only the lossy lane ever carried parity.
//! assert!(outcome.report.lanes.iter().skip(1).all(|lane| lane.parity_sent == 0));
//! ```

use std::collections::HashSet;
use std::fmt;

use rapidware_filters::{ChainSpans, FecDecoderFilter, FilterChain};
use rapidware_media::{AudioConfig, AudioSource};
use rapidware_netsim::{ReceiverId, SimTime, WirelessLan};
use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware_proxy::{FilterRegistry, FilterSpec, PooledSession, Registry};
use rapidware_raplets::{
    apply_to_pooled_session, AdaptationAction, AdaptationEngine, FecResponder, LinkSample,
    LossRateObserver,
};
use rapidware_streams::DetachableReceiver;

use super::applier::{apply_actions_to_chain, marker_stream};
use super::report::{LatencySummary, ReceiverOutcome};
use super::spec::{validate_regime, LossRegime, RapletSet, SpecError};
use super::trace::{describe_action, describe_event, ScenarioTrace, TraceEvent};
use super::TimelineEntry;

/// One receiver lane of a [`FanoutSpec`]: its link, and whether it runs an
/// adaptation loop of its own.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSpec {
    /// Lane name (used in traces, reports, and the live session).
    pub name: String,
    /// The loss regime of this lane's link over the whole run.
    pub regime: LossRegime,
    /// Whether this lane runs its own observer/responder loop.  A
    /// non-adaptive lane keeps a static (empty) tail chain.
    pub adaptive: bool,
    /// Whether this lane's loss schedule should provoke at least one FEC
    /// insertion (checked by the health harness; its inverse — no parity,
    /// no actions — is checked when `false`).
    pub expect_adaptation: bool,
}

impl LaneSpec {
    /// A wired (lossless, non-adapting-but-monitored) lane.
    pub fn wired(name: &str) -> Self {
        Self {
            name: name.to_string(),
            regime: LossRegime::Perfect,
            adaptive: true,
            expect_adaptation: false,
        }
    }

    /// A lane with the given loss regime and its own adaptation loop that
    /// is expected to fire.
    pub fn lossy(name: &str, regime: LossRegime) -> Self {
        Self {
            name: name.to_string(),
            regime,
            adaptive: true,
            expect_adaptation: true,
        }
    }
}

/// A complete, declarative description of one fanout scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FanoutSpec {
    /// Scenario name (used in traces and reports).
    pub name: String,
    /// RNG seed for the network simulator.
    pub seed: u64,
    /// Number of source media packets to transmit.
    pub packets: u64,
    /// The media workload.
    pub audio: AudioConfig,
    /// Filters installed on the shared head chain before the run starts.
    pub head_filters: Vec<FilterSpec>,
    /// The receiver lanes, in order.
    pub lanes: Vec<LaneSpec>,
    /// The raplet set installed into each adaptive lane's loop.
    pub raplets: RapletSet,
    /// Width of the sampling window, in source packets.
    pub sample_interval: u64,
    /// Per-stage batch size used by the live session applier.
    pub batch_size: usize,
    /// Whether every lane must converge back to an empty tail chain by the
    /// end of the run.
    pub expect_clean_finish: bool,
}

impl FanoutSpec {
    fn base(name: &str, packets: u64, lanes: Vec<LaneSpec>) -> Self {
        Self {
            name: name.to_string(),
            seed: 2001,
            packets,
            audio: AudioConfig::pcm_8khz_stereo_8bit(),
            head_filters: Vec::new(),
            lanes,
            raplets: RapletSet::paper_default(),
            sample_interval: 50,
            batch_size: 8,
            expect_clean_finish: true,
        }
    }

    /// The acceptance scenario: one lossy WLAN receiver among three wired
    /// peers.  All four lanes run the same adaptation loop; only the lossy
    /// lane's loop fires, so FEC parity appears on exactly one lane while
    /// the wired lanes carry the raw stream untouched.
    pub fn wired_plus_lossy_wlan() -> Self {
        let mut lanes = vec![LaneSpec::lossy(
            "wlan-lossy",
            LossRegime::Phased(vec![
                (SimTime::ZERO, LossRegime::Perfect),
                (SimTime::from_secs(8), LossRegime::Bernoulli { rate: 0.12 }),
                (SimTime::from_secs(26), LossRegime::Perfect),
            ]),
        )];
        lanes.extend((1..4).map(|i| LaneSpec::wired(&format!("wired-{i}"))));
        Self::base("fanout-wired-plus-lossy-wlan", 2_200, lanes)
    }

    /// Two wireless lanes of different severity beside a wired lane: the
    /// heavy lane should reach the strong FEC tier, the light lane the
    /// moderate tier, and the wired lane stays untouched — three different
    /// adaptations of one stream under one session.
    pub fn tiered_wireless() -> Self {
        Self::base(
            "fanout-tiered-wireless",
            2_600,
            vec![
                LaneSpec::lossy(
                    "wlan-heavy",
                    LossRegime::Phased(vec![
                        (SimTime::ZERO, LossRegime::Perfect),
                        (SimTime::from_secs(8), LossRegime::Bernoulli { rate: 0.30 }),
                        (SimTime::from_secs(28), LossRegime::Perfect),
                    ]),
                ),
                LaneSpec::lossy(
                    "wlan-light",
                    LossRegime::Phased(vec![
                        (SimTime::ZERO, LossRegime::Perfect),
                        (SimTime::from_secs(12), LossRegime::Bernoulli { rate: 0.06 }),
                        (SimTime::from_secs(30), LossRegime::Perfect),
                    ]),
                ),
                LaneSpec::wired("wired"),
            ],
        )
    }

    /// The no-false-positive baseline: four wired lanes behind a head tap.
    /// Nothing may adapt, no parity may appear anywhere, and the head
    /// filter's work is shared by all four lanes.
    pub fn all_wired() -> Self {
        let lanes = (0..4).map(|i| LaneSpec::wired(&format!("wired-{i}"))).collect();
        Self {
            head_filters: vec![FilterSpec::new("tap").with_param("name", "head-tap")],
            ..Self::base("fanout-all-wired", 1_200, lanes)
        }
    }

    /// The built-in fanout scenario family, in a stable order.
    pub fn fanout_matrix() -> Vec<Self> {
        vec![
            Self::wired_plus_lossy_wlan(),
            Self::tiered_wireless(),
            Self::all_wired(),
        ]
    }

    /// Checks the spec for degenerate inputs that would otherwise panic
    /// deep inside the engine, the live session, or the simulator: zero
    /// packets, no lanes, duplicate lane names, empty phase lists, nested
    /// walks, zero strides.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.packets == 0 {
            return Err(SpecError::ZeroPackets {
                scenario: self.name.clone(),
            });
        }
        if self.lanes.is_empty() {
            return Err(SpecError::NoLanes {
                scenario: self.name.clone(),
            });
        }
        let mut seen = HashSet::new();
        for lane in &self.lanes {
            if !seen.insert(lane.name.as_str()) {
                return Err(SpecError::DuplicateLane {
                    scenario: self.name.clone(),
                    lane: lane.name.clone(),
                });
            }
            validate_regime(&lane.regime, &self.name, &format!("lane {}", lane.name))?;
        }
        Ok(())
    }

    /// Overrides the simulator seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the number of source packets.
    #[must_use]
    pub fn with_packets(mut self, packets: u64) -> Self {
        self.packets = packets;
        self
    }

    /// Overrides the live session applier's per-stage batch size.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }
}

/// The chain side of a fanout run: where the head chain and the per-lane
/// tail chains live, and where per-lane adaptation actions land.
///
/// `process` returns one output vector **per lane**, in lane order;
/// implementations must be deterministic for a given input sequence, and
/// both provided appliers must produce identical per-lane streams.
pub trait FanoutApplier {
    /// Short label for reports (`"sync"` / `"session"`).
    fn label(&self) -> &'static str;

    /// Pushes one window of source packets through the head chain and every
    /// lane tail, returning each lane's emissions in lane order.
    fn process(&mut self, packets: Vec<Packet>) -> Vec<Vec<Packet>>;

    /// Applies adaptation actions to one lane's tail chain, returning any
    /// residue flushed out of removed or replaced filters on that lane.
    fn apply(&mut self, lane: usize, actions: &[AdaptationAction]) -> Vec<Packet>;

    /// Names of the filters installed on `lane`'s tail chain.
    fn lane_filters(&self, lane: usize) -> Vec<String>;

    /// Names of the filters installed on the shared head chain.
    fn head_filters(&self) -> Vec<String>;

    /// Ends the stream: flushes the head chain through every lane and every
    /// lane tail, returning each lane's residue in lane order.  The applier
    /// must not be used afterwards.
    fn finish(&mut self) -> Vec<Vec<Packet>>;

    /// End-to-end latency percentiles (head ingress to lane egress, all
    /// lanes merged) observed by the applier's telemetry spans, or `None`
    /// for appliers without instrumentation.  Purely observational —
    /// latency never participates in report equality.
    fn latency(&self) -> Option<LatencySummary> {
        None
    }
}

/// The synchronous fanout applier: one [`FilterChain`] head, one per lane.
pub struct SyncFanoutApplier {
    head: FilterChain,
    lanes: Vec<FilterChain>,
    registry: FilterRegistry,
    telemetry: std::sync::Arc<Registry>,
}

impl fmt::Debug for SyncFanoutApplier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SyncFanoutApplier")
            .field("head", &self.head.names())
            .field("lanes", &self.lanes.len())
            .finish()
    }
}

impl SyncFanoutApplier {
    /// Creates the sync applier for a spec: the head chain is populated
    /// from `spec.head_filters`, and one empty tail chain per lane.
    ///
    /// # Panics
    ///
    /// Panics if a head filter spec names an unknown kind (specs are
    /// expected to reference registered kinds).
    pub fn for_spec(spec: &FanoutSpec) -> Self {
        let registry = FilterRegistry::with_builtins();
        let telemetry = Registry::new();
        let mut head = FilterChain::new();
        // Interior spans on the head stamp ingress; egress spans on each
        // lane close the ingress-to-egress measurement, so lane e2e covers
        // the full head-plus-tail path.
        head.set_spans(ChainSpans::interior(
            &telemetry,
            format!("session.{}.head", spec.name),
        ));
        for filter_spec in &spec.head_filters {
            let filter = registry
                .instantiate(filter_spec)
                .expect("head filter specs reference registered kinds");
            head.push_back(filter).expect("appending to a fresh chain never fails");
        }
        let lanes = spec
            .lanes
            .iter()
            .map(|lane| {
                let mut chain = FilterChain::new();
                chain.set_spans(ChainSpans::egress(
                    &telemetry,
                    format!("session.{}.lane.{}", spec.name, lane.name),
                ));
                chain
            })
            .collect();
        Self {
            head,
            lanes,
            registry,
            telemetry,
        }
    }
}

impl FanoutApplier for SyncFanoutApplier {
    fn label(&self) -> &'static str {
        "sync"
    }

    fn process(&mut self, packets: Vec<Packet>) -> Vec<Vec<Packet>> {
        let shared = self
            .head
            .process_batch(packets)
            .expect("scenario head filters do not fail");
        // Like the live session task: clone for all but the last lane,
        // move into the last.
        let last = self.lanes.len().saturating_sub(1);
        let mut shared = Some(shared);
        self.lanes
            .iter_mut()
            .enumerate()
            .map(|(index, lane)| {
                let batch = if index == last {
                    shared.take().expect("only the last lane takes the batch")
                } else {
                    shared.as_ref().expect("batch present until the last lane").clone()
                };
                lane.process_batch(batch).expect("scenario lane filters do not fail")
            })
            .collect()
    }

    fn apply(&mut self, lane: usize, actions: &[AdaptationAction]) -> Vec<Packet> {
        apply_actions_to_chain(&mut self.lanes[lane], &self.registry, actions)
    }

    fn lane_filters(&self, lane: usize) -> Vec<String> {
        self.lanes[lane].names()
    }

    fn head_filters(&self) -> Vec<String> {
        self.head.names()
    }

    fn finish(&mut self) -> Vec<Vec<Packet>> {
        // The head's tail residue (e.g. a partial block of a head-side
        // filter) flows through every lane before the lanes flush, exactly
        // as EOF propagates through a live session.
        let head_residue = self.head.flush().expect("scenario head filters do not fail");
        self.lanes
            .iter_mut()
            .map(|lane| {
                let mut out = lane
                    .process_batch(head_residue.clone())
                    .expect("scenario lane filters do not fail");
                out.extend(lane.flush().expect("scenario lane filters do not fail"));
                out
            })
            .collect()
    }

    fn latency(&self) -> Option<LatencySummary> {
        LatencySummary::from_snapshot(&self.telemetry.snapshot())
    }
}

/// Drains **all lanes concurrently** until each one yields its copy of
/// marker `marker_seq`, returning the per-lane packets that preceded it.
///
/// The drain is round-robin with non-blocking receives rather than
/// lane-by-lane: the fanout stage back-pressures against full lane pipes,
/// so blocking on lane 0 while the fanout is parked against lane 1 would
/// deadlock whenever a window (amplified by an expanding head filter)
/// overflows a pipe.  Draining every lane keeps the fanout moving no
/// matter which pipe fills first.  Shared by every session applier so the
/// protocol cannot drift between runtimes; `feed` runs before each sweep
/// (the wire applier drains its app-side sockets into `outputs` there).
pub(super) fn drain_lanes_until_marker(
    outputs: &[DetachableReceiver<Packet>],
    marker_seq: u64,
    feed: impl Fn(),
) -> Vec<Vec<Packet>> {
    let mut collected: Vec<Vec<Packet>> = vec![Vec::new(); outputs.len()];
    let mut done = vec![false; outputs.len()];
    while done.iter().any(|flag| !flag) {
        feed();
        let mut progressed = false;
        for lane in 0..outputs.len() {
            if done[lane] {
                continue;
            }
            while let Ok(packet) = outputs[lane].try_recv() {
                progressed = true;
                if packet.kind() == PacketKind::Control && packet.stream() == marker_stream() {
                    if packet.seq().value() == marker_seq {
                        done[lane] = true;
                        break;
                    }
                    // Stale marker from an earlier quiescence point.
                    continue;
                }
                collected[lane].push(packet);
            }
        }
        if !progressed {
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
    }
    collected
}

/// Round-robin drains every lane to end of stream, appending everything
/// (markers excluded) to `residue`; the finishing counterpart of
/// [`drain_lanes_until_marker`].
pub(super) fn drain_lanes_to_eof(
    outputs: &[DetachableReceiver<Packet>],
    residue: &mut [Vec<Packet>],
    feed: impl Fn(),
) {
    let mut done = vec![false; outputs.len()];
    while done.iter().any(|flag| !flag) {
        feed();
        let mut progressed = false;
        for lane in 0..outputs.len() {
            if done[lane] {
                continue;
            }
            loop {
                match outputs[lane].try_recv() {
                    Ok(packet) => {
                        progressed = true;
                        if packet.kind() == PacketKind::Control
                            && packet.stream() == marker_stream()
                        {
                            continue;
                        }
                        residue[lane].push(packet);
                    }
                    Err(rapidware_streams::TryRecvError::Empty) => break,
                    Err(_) => {
                        done[lane] = true;
                        break;
                    }
                }
            }
        }
        if !progressed {
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
    }
}

/// The live fanout applier: a [`PooledSession`] on a sharded worker-pool
/// [`Runtime`](rapidware_proxy::Runtime) — head chain, fanout stage, and
/// every lane tail run as cooperative tasks on
/// [`POOLED_APPLIER_SHARDS`](super::POOLED_APPLIER_SHARDS) fixed workers,
/// reconfigured per lane through the session control surface while packets
/// flow.
///
/// Determinism uses control-marker quiescence: a [`PacketKind::Control`]
/// marker is pushed through the head chain, fans out to every lane, and
/// each lane is drained until its copy of the marker emerges.  It must
/// agree with the sync applier byte for byte.
pub struct RuntimeFanoutApplier {
    runtime: std::sync::Arc<rapidware_proxy::Runtime>,
    session: PooledSession,
    telemetry: std::sync::Arc<Registry>,
    lane_names: Vec<String>,
    outputs: Vec<DetachableReceiver<Packet>>,
    /// Packets collected for a lane outside its own turn (possible only if
    /// a caller interleaves `apply` with undrained traffic); prepended to
    /// that lane's next `process` result so nothing is ever dropped.
    pending: Vec<Vec<Packet>>,
    next_marker: u64,
    finished: bool,
}

impl fmt::Debug for RuntimeFanoutApplier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RuntimeFanoutApplier")
            .field("lanes", &self.lane_names)
            .finish()
    }
}

impl RuntimeFanoutApplier {
    /// Spins up a pooled session for a spec on a fresh worker pool: head
    /// filters installed, one lane per [`LaneSpec`], pipes sized so a whole
    /// sample window (plus parity overhead) fits without blocking the
    /// driver.
    ///
    /// # Panics
    ///
    /// Panics if the session cannot be constructed (fresh sessions only
    /// fail on resource exhaustion).
    pub fn for_spec(spec: &FanoutSpec) -> Self {
        let capacity = (spec.sample_interval.max(32) as usize) * 4;
        let config = rapidware_proxy::RuntimeConfig::new(
            super::POOLED_APPLIER_SHARDS,
            spec.batch_size.max(1),
        )
        .with_pipe_capacity(capacity);
        let runtime = rapidware_proxy::Runtime::start(config);
        let session = runtime.add_session_with(
            spec.name.clone(),
            FilterRegistry::with_builtins(),
            capacity,
            spec.batch_size.max(1),
        );
        // Session spans plus runtime profiling go on before the head
        // filters and lanes exist.
        let telemetry = Registry::new();
        runtime.enable_telemetry(&telemetry);
        session.enable_telemetry(&telemetry);
        for (position, filter_spec) in spec.head_filters.iter().enumerate() {
            session
                .insert_head_filter(position, filter_spec)
                .expect("head filter specs reference registered kinds");
        }
        let mut outputs = Vec::with_capacity(spec.lanes.len());
        let mut lane_names = Vec::with_capacity(spec.lanes.len());
        for lane in &spec.lanes {
            outputs.push(session.add_lane(&lane.name).expect("spec lane names are unique"));
            lane_names.push(lane.name.clone());
        }
        let lane_count = lane_names.len();
        Self {
            runtime,
            session,
            telemetry,
            lane_names,
            outputs,
            pending: vec![Vec::new(); lane_count],
            next_marker: 0,
            finished: false,
        }
    }

    /// Sends one control marker through the head chain (it fans out to
    /// every lane) and drains **all lanes concurrently** until each copy of
    /// the marker emerges, returning the per-lane packets that preceded it.
    fn quiesce_all(&mut self) -> Vec<Vec<Packet>> {
        let marker_seq = self.next_marker;
        self.next_marker += 1;
        let marker =
            Packet::new(marker_stream(), SeqNo::new(marker_seq), PacketKind::Control, Vec::new());
        self.session.input().send(marker).expect("session input stays open");
        drain_lanes_until_marker(&self.outputs, marker_seq, || {})
    }
}

impl FanoutApplier for RuntimeFanoutApplier {
    fn label(&self) -> &'static str {
        "pooled"
    }

    fn process(&mut self, packets: Vec<Packet>) -> Vec<Vec<Packet>> {
        let input = self.session.input();
        for packet in packets {
            input.send(packet).expect("session input stays open");
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
        apply_to_pooled_session(&self.session, &self.lane_names[lane], actions)
            .expect("responder actions are valid for the live lane");
        // Residue flushed out of the removed/replaced lane filter is
        // buffered at this lane's endpoint.  Quiescing drains every lane
        // (see quiesce_all); the other lanes have no traffic in flight at
        // an apply point, but anything they do produce is parked in
        // `pending` and handed back with their next window.
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
        self.session
            .lane_filter_names(&self.lane_names[lane])
            .expect("spec lanes exist for the applier's lifetime")
    }

    fn head_filters(&self) -> Vec<String> {
        self.session.head_filter_names()
    }

    fn finish(&mut self) -> Vec<Vec<Packet>> {
        self.finished = true;
        self.session.close_input();
        // Round-robin drain to EOF on every lane, for the same reason as
        // quiesce_all: the session task must stay free to move the final
        // flush through whichever lane pipe fills first.
        let mut residue: Vec<Vec<Packet>> = std::mem::take(&mut self.pending);
        drain_lanes_to_eof(&self.outputs, &mut residue, || {});
        residue
    }

    fn latency(&self) -> Option<LatencySummary> {
        LatencySummary::from_snapshot(&self.telemetry.snapshot())
    }
}

impl Drop for RuntimeFanoutApplier {
    fn drop(&mut self) {
        if !self.finished {
            self.session.close_input();
        }
        let _ = self.session.shutdown();
        let _ = self.runtime.shutdown();
    }
}

/// Final accounting for one receiver lane of a fanout run.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneReport {
    /// Lane name (from the spec).
    pub name: String,
    /// Delivery accounting for this lane's receiver.
    pub outcome: ReceiverOutcome,
    /// Parity packets this lane transmitted.
    pub parity_sent: u64,
    /// This lane's adaptation timeline (events, actions, chain states).
    pub timeline: Vec<TimelineEntry>,
    /// Tail filters still installed on this lane when the run ended.
    pub final_filters: Vec<String>,
}

impl LaneReport {
    /// `true` if this lane's timeline shows a FEC insertion followed by its
    /// removal, in that order.
    pub fn fec_inserted_then_removed(&self) -> bool {
        let insert = self
            .timeline
            .iter()
            .position(|t| t.entry.starts_with("action insert") && t.entry.contains("fec-encoder"));
        let remove = self
            .timeline
            .iter()
            .position(|t| t.entry.starts_with("action remove fec-encoder"));
        matches!((insert, remove), (Some(i), Some(r)) if i < r)
    }
}

/// The outcome of one fanout run: per-lane accounting plus head-chain
/// state.
#[derive(Debug, Clone)]
pub struct FanoutReport {
    /// Scenario name (from the spec).
    pub scenario: String,
    /// Simulator seed of the run.
    pub seed: u64,
    /// Source payload packets generated upstream of the head chain.
    pub source_packets_sent: u64,
    /// Filters on the shared head chain when the run ended.
    pub head_filters: Vec<String>,
    /// Per-lane accounting, in spec order.
    pub lanes: Vec<LaneReport>,
    /// End-to-end latency percentiles (head ingress to lane egress, all
    /// lanes merged), when the applier carried telemetry spans.  Excluded
    /// from `PartialEq`: latency is host- and scheduler-dependent, while
    /// the rest of the report is deterministic given the seed.
    pub latency: Option<LatencySummary>,
}

impl PartialEq for FanoutReport {
    fn eq(&self, other: &Self) -> bool {
        // `latency` is deliberately omitted: replayed traces carry no
        // timing, and cross-applier byte-identity must not depend on
        // wall-clock measurements.
        self.scenario == other.scenario
            && self.seed == other.seed
            && self.source_packets_sent == other.source_packets_sent
            && self.head_filters == other.head_filters
            && self.lanes == other.lanes
    }
}

impl FanoutReport {
    /// Total parity packets across all lanes.
    pub fn parity_total(&self) -> u64 {
        self.lanes.iter().map(|l| l.parity_sent).sum()
    }

    /// Total packets the links delivered but lane pipelines failed to
    /// surface.  Must be zero in a healthy run.
    pub fn undelivered_total(&self) -> u64 {
        self.lanes.iter().map(|l| l.outcome.undelivered).sum()
    }

    /// Reconstructs the report of the run that produced `trace`, without
    /// re-simulating: per-lane timelines come from the `Lane*` events,
    /// totals from [`TraceEvent::LaneTotals`], and head state from
    /// [`TraceEvent::FanoutSummary`].
    pub fn replay(trace: &ScenarioTrace) -> FanoutReport {
        let mut report = FanoutReport {
            scenario: trace.scenario().to_string(),
            seed: trace.seed(),
            source_packets_sent: 0,
            head_filters: Vec::new(),
            lanes: Vec::new(),
            // Traces record packet accounting, not wall-clock timing.
            latency: None,
        };
        let mut timelines: Vec<(usize, TimelineEntry)> = Vec::new();
        for event in trace.events() {
            match event {
                TraceEvent::LaneObserved { lane, time, event } => timelines.push((
                    *lane,
                    TimelineEntry {
                        time: *time,
                        entry: format!("event {event}"),
                    },
                )),
                TraceEvent::LaneActionApplied { lane, time, action } => timelines.push((
                    *lane,
                    TimelineEntry {
                        time: *time,
                        entry: format!("action {action}"),
                    },
                )),
                TraceEvent::LaneChainReconfigured { lane, time, filters } => timelines.push((
                    *lane,
                    TimelineEntry {
                        time: *time,
                        entry: format!(
                            "chain {}",
                            if filters.is_empty() { "-".to_string() } else { filters.join("+") }
                        ),
                    },
                )),
                TraceEvent::LaneTotals {
                    name,
                    delivered,
                    recovered,
                    lost,
                    undelivered,
                    parity_sent,
                    final_filters,
                    ..
                } => report.lanes.push(LaneReport {
                    name: name.clone(),
                    outcome: ReceiverOutcome {
                        delivered: *delivered,
                        recovered: *recovered,
                        lost: *lost,
                        undelivered: *undelivered,
                    },
                    parity_sent: *parity_sent,
                    timeline: Vec::new(),
                    final_filters: final_filters.clone(),
                }),
                TraceEvent::FanoutSummary {
                    source_packets,
                    head_filters,
                } => {
                    report.source_packets_sent = *source_packets;
                    report.head_filters = head_filters.clone();
                }
                _ => {}
            }
        }
        for (lane, entry) in timelines {
            if let Some(report_lane) = report.lanes.get_mut(lane) {
                report_lane.timeline.push(entry);
            }
        }
        report
    }
}

impl fmt::Display for FanoutReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} (seed {}): {} source packets, head [{}]",
            self.scenario,
            self.seed,
            self.source_packets_sent,
            self.head_filters.join("+")
        )?;
        for lane in &self.lanes {
            writeln!(
                f,
                "  {}: delivered={} recovered={} lost={} undelivered={} parity={} steps={} final={}",
                lane.name,
                lane.outcome.delivered,
                lane.outcome.recovered,
                lane.outcome.lost,
                lane.outcome.undelivered,
                lane.parity_sent,
                lane.timeline.len(),
                if lane.final_filters.is_empty() {
                    "-".to_string()
                } else {
                    lane.final_filters.join("+")
                }
            )?;
        }
        Ok(())
    }
}

/// Everything a fanout run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct FanoutOutcome {
    /// Per-lane accounting and adaptation timelines.
    pub report: FanoutReport,
    /// The replayable record (`FanoutReport::replay(&trace) == report`).
    pub trace: ScenarioTrace,
}

impl FanoutOutcome {
    /// The fanout health checks, shared by the scenario-matrix test harness
    /// and the `scenario_matrix` bench binary: one line per violated
    /// property of a run against its spec.
    pub fn health_problems(&self, spec: &FanoutSpec) -> Vec<String> {
        let report = &self.report;
        let mut problems = Vec::new();
        if report.source_packets_sent != spec.packets {
            problems.push(format!(
                "transmitted {} source packets, spec says {}",
                report.source_packets_sent, spec.packets
            ));
        }
        if report.lanes.len() != spec.lanes.len() {
            problems.push(format!(
                "report covers {} lanes, spec has {}",
                report.lanes.len(),
                spec.lanes.len()
            ));
            return problems;
        }
        for (lane_spec, lane) in spec.lanes.iter().zip(&report.lanes) {
            let name = &lane_spec.name;
            let outcome = &lane.outcome;
            let accounted =
                outcome.delivered + outcome.recovered + outcome.lost + outcome.undelivered;
            if accounted != spec.packets {
                problems.push(format!(
                    "lane {name} accounts for {accounted} of {} packets",
                    spec.packets
                ));
            }
            if outcome.undelivered > 0 {
                problems.push(format!(
                    "lane {name}: {} non-lost data packets undelivered",
                    outcome.undelivered
                ));
            }
            if lane_spec.expect_adaptation {
                if !lane.fec_inserted_then_removed() {
                    problems
                        .push(format!("lane {name}: missing insert-then-remove adaptation cycle"));
                }
                if lane.parity_sent == 0 {
                    problems.push(format!("lane {name}: no parity on the air"));
                }
                if outcome.recovered == 0 {
                    problems.push(format!("lane {name}: FEC never repaired a loss"));
                }
            } else {
                if !lane.timeline.is_empty() {
                    problems.push(format!(
                        "lane {name}: {} spurious adaptation steps on a quiet link",
                        lane.timeline.len()
                    ));
                }
                if lane.parity_sent != 0 {
                    problems.push(format!(
                        "lane {name}: unexpected parity on a quiet link (FEC must stay on the lossy lane)"
                    ));
                }
            }
            if spec.expect_clean_finish && !lane.final_filters.is_empty() {
                problems.push(format!(
                    "lane {name} did not converge: {:?}",
                    lane.final_filters
                ));
            }
        }
        if FanoutReport::replay(&self.trace) != self.report {
            problems.push("replaying the trace does not reproduce the report".to_string());
        }
        problems
    }
}

/// Per-lane simulation state on the receiver side of the link.
struct LaneRuntime {
    receiver: ReceiverId,
    adaptation: Option<AdaptationEngine>,
    logged: usize,
    decoders: Vec<((usize, usize), FecDecoderFilter)>,
    received: HashSet<u64>,
    emitted: HashSet<u64>,
    parity_sent: u64,
    window_sent: u64,
    window_delivered: u64,
    window_bytes: u64,
}

/// Drives one [`FanoutSpec`] through the full per-lane closed loop.
#[derive(Debug, Clone)]
pub struct FanoutEngine {
    spec: FanoutSpec,
}

impl FanoutEngine {
    /// Creates an engine for the given spec.
    pub fn new(spec: FanoutSpec) -> Self {
        Self { spec }
    }

    /// The spec this engine runs.
    pub fn spec(&self) -> &FanoutSpec {
        &self.spec
    }

    /// Runs the scenario on the synchronous [`SyncFanoutApplier`].
    pub fn run_sync(&self) -> FanoutOutcome {
        self.run_with(&mut SyncFanoutApplier::for_spec(&self.spec))
    }

    /// Like [`run_sync`](Self::run_sync), but rejects degenerate specs with
    /// a typed [`SpecError`] instead of panicking.
    pub fn try_run_sync(&self) -> Result<FanoutOutcome, SpecError> {
        self.spec.validate()?;
        self.try_run_with(&mut SyncFanoutApplier::for_spec(&self.spec))
    }

    /// Runs the scenario on a live [`RuntimeFanoutApplier`]: the whole
    /// session multiplexed over a sharded worker pool.  The trace must be
    /// byte-identical to the sync run.
    pub fn run_pooled(&self) -> FanoutOutcome {
        self.run_with(&mut RuntimeFanoutApplier::for_spec(&self.spec))
    }

    /// Runs the scenario on a
    /// [`SharedUdpFanoutApplier`](super::SharedUdpFanoutApplier): every
    /// packet crosses real loopback UDP sockets, the whole session riding
    /// one carrier socket demuxed by the readiness reactor onto the worker
    /// pool.  The report must agree with the in-process appliers at the
    /// same seed.
    pub fn run_udp_shared(&self) -> FanoutOutcome {
        self.run_with(&mut super::SharedUdpFanoutApplier::for_spec(&self.spec))
    }

    /// Runs the scenario against any applier.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (see [`FanoutSpec::validate`]) or a
    /// filter fails, which the built-in fanout scenarios never do.  Use
    /// [`try_run_with`](Self::try_run_with) to get degenerate specs back as
    /// typed errors instead.
    pub fn run_with(&self, applier: &mut dyn FanoutApplier) -> FanoutOutcome {
        self.try_run_with(applier).unwrap_or_else(|err| panic!("invalid fanout spec: {err}"))
    }

    /// Runs the scenario against any applier, rejecting degenerate specs
    /// with a typed [`SpecError`] instead of panicking.
    pub fn try_run_with(
        &self,
        applier: &mut dyn FanoutApplier,
    ) -> Result<FanoutOutcome, SpecError> {
        let spec = &self.spec;
        spec.validate()?;
        let mut trace = ScenarioTrace::new(spec.name.clone(), spec.seed);

        // The topology: one seeded LAN, one receiver per lane, each with
        // its own loss schedule.
        let mut lan = WirelessLan::wavelan_2mbps(spec.seed);
        let mut lanes: Vec<LaneRuntime> = spec
            .lanes
            .iter()
            .map(|lane_spec| {
                lane_spec.regime.attach(&mut lan, &lane_spec.name);
                let receiver = *lan.receiver_ids().last().expect("receiver was just attached");
                LaneRuntime {
                    receiver,
                    adaptation: lane_spec.adaptive.then(|| lane_engine(&spec.raplets)),
                    logged: 0,
                    decoders: decoder_codes(&spec.raplets)
                        .into_iter()
                        .map(|(n, k)| {
                            (
                                (n, k),
                                FecDecoderFilter::new(n, k).expect("spec uses valid FEC parameters"),
                            )
                        })
                        .collect(),
                    received: HashSet::new(),
                    emitted: HashSet::new(),
                    parity_sent: 0,
                    window_sent: 0,
                    window_delivered: 0,
                    window_bytes: 0,
                }
            })
            .collect();

        let mut source = AudioSource::new(StreamId::new(1), spec.audio);
        let mut source_packets = 0u64;
        let mut window_start = SimTime::ZERO;
        let mut sent = 0u64;

        while sent < spec.packets {
            let count = (spec.packets - sent).min(spec.sample_interval.max(1));
            let window: Vec<Packet> = (0..count).map(|_| source.next_packet()).collect();
            sent += count;
            source_packets += count;
            let now = SimTime::from_micros(
                window.last().expect("windows are non-empty").timestamp_us(),
            );
            let first_ts = SimTime::from_micros(window[0].timestamp_us());

            // Head once, then each lane's tail; transmit per lane on its
            // own link (lane order fixes the RNG draw order, so runs are
            // identical across appliers).
            let per_lane = applier.process(window);
            for (index, outgoing) in per_lane.iter().enumerate() {
                transmit_on_lane(&mut lan, &mut lanes[index], outgoing, first_ts, spec.packets);
            }

            // Sample every lane's link over the window, then run that
            // lane's own loop.
            for (index, lane) in lanes.iter_mut().enumerate() {
                let sample = LinkSample::new(now, lane.window_sent, lane.window_delivered)
                    .with_window(window_start, lane.window_bytes);
                trace.push(TraceEvent::LaneSample {
                    lane: index,
                    time: now,
                    sent: lane.window_sent,
                    delivered: lane.window_delivered,
                    loss_rate: sample.loss_rate(),
                });
                lane.window_sent = 0;
                lane.window_delivered = 0;
                lane.window_bytes = 0;

                let Some(adaptation) = lane.adaptation.as_mut() else {
                    continue;
                };
                let actions = adaptation.ingest(&sample);
                for record in &adaptation.log()[lane.logged..] {
                    trace.push(TraceEvent::LaneObserved {
                        lane: index,
                        time: record.time,
                        event: describe_event(&record.event),
                    });
                    for action in &record.actions {
                        trace.push(TraceEvent::LaneActionApplied {
                            lane: index,
                            time: record.time,
                            action: describe_action(action),
                        });
                    }
                }
                lane.logged = adaptation.log().len();
                if !actions.is_empty() {
                    let residue = applier.apply(index, &actions);
                    transmit_on_lane(&mut lan, lane, &residue, now, spec.packets);
                    trace.push(TraceEvent::LaneChainReconfigured {
                        lane: index,
                        time: now,
                        filters: applier.lane_filters(index),
                    });
                }
            }
            window_start = now;
        }

        // End of stream: flush head and tails; per-lane residue still has
        // to cross each lane's link.
        let final_time = SimTime::from_micros(spec.packets * spec.audio.packet_interval_us());
        let final_lane_filters: Vec<Vec<String>> =
            (0..lanes.len()).map(|index| applier.lane_filters(index)).collect();
        let head_filters = applier.head_filters();
        let residues = applier.finish();
        for (index, residue) in residues.iter().enumerate() {
            transmit_on_lane(&mut lan, &mut lanes[index], residue, final_time, spec.packets);
        }

        // Final accounting, one totals record per lane.
        let mut report_lanes = Vec::with_capacity(lanes.len());
        for (index, lane) in lanes.iter().enumerate() {
            let mut outcome = ReceiverOutcome {
                delivered: 0,
                recovered: 0,
                lost: 0,
                undelivered: 0,
            };
            for seq in 0..spec.packets {
                match (lane.received.contains(&seq), lane.emitted.contains(&seq)) {
                    (true, true) => outcome.delivered += 1,
                    (true, false) => outcome.undelivered += 1,
                    (false, true) => outcome.recovered += 1,
                    (false, false) => outcome.lost += 1,
                }
            }
            let name = spec.lanes[index].name.clone();
            trace.push(TraceEvent::LaneTotals {
                lane: index,
                name: name.clone(),
                delivered: outcome.delivered,
                recovered: outcome.recovered,
                lost: outcome.lost,
                undelivered: outcome.undelivered,
                parity_sent: lane.parity_sent,
                final_filters: final_lane_filters[index].clone(),
            });
            report_lanes.push(LaneReport {
                name,
                outcome,
                parity_sent: lane.parity_sent,
                timeline: Vec::new(),
                final_filters: final_lane_filters[index].clone(),
            });
        }
        trace.push(TraceEvent::FanoutSummary {
            source_packets,
            head_filters: head_filters.clone(),
        });

        let mut report = FanoutReport {
            scenario: spec.name.clone(),
            seed: spec.seed,
            source_packets_sent: source_packets,
            head_filters,
            lanes: report_lanes,
            latency: applier.latency(),
        };
        // Per-lane timelines are exactly what replay extracts from the
        // trace; reuse it so the two can never disagree structurally.
        let replayed = FanoutReport::replay(&trace);
        for (lane, replayed_lane) in report.lanes.iter_mut().zip(replayed.lanes) {
            lane.timeline = replayed_lane.timeline;
        }
        Ok(FanoutOutcome { report, trace })
    }
}

/// Builds the per-lane adaptation loop from a raplet set.
fn lane_engine(raplets: &RapletSet) -> AdaptationEngine {
    let (high, low) = raplets.loss_thresholds;
    let mut engine = AdaptationEngine::new();
    engine.add_observer(Box::new(
        LossRateObserver::with_thresholds(high, low).with_smoothing(raplets.smoothing),
    ));
    engine.add_responder(Box::new(FecResponder::new(
        0,
        raplets.fec_moderate,
        raplets.fec_strong,
        raplets.strong_threshold,
    )));
    engine
}

/// The distinct (n, k) codes a lane's receiver must be able to decode.
fn decoder_codes(raplets: &RapletSet) -> Vec<(usize, usize)> {
    let mut codes = vec![raplets.fec_moderate];
    if raplets.fec_strong != raplets.fec_moderate {
        codes.push(raplets.fec_strong);
    }
    codes
}

/// Puts one lane's packets on that lane's link, in order, and routes
/// deliveries into the lane's decoders and bookkeeping.  Payload packets
/// ride at their own media timestamp; parity (and any other derived
/// traffic) rides at the timestamp of the payload that triggered it, which
/// keeps timing identical across appliers.
fn transmit_on_lane(
    lan: &mut WirelessLan,
    lane: &mut LaneRuntime,
    packets: &[Packet],
    start_time: SimTime,
    total_sources: u64,
) {
    let mut air_time = start_time;
    for packet in packets {
        let is_payload = packet.kind().is_payload();
        if is_payload {
            air_time = SimTime::from_micros(packet.timestamp_us());
            lane.window_sent += 1;
        } else if packet.kind().is_parity() {
            lane.parity_sent += 1;
        }
        let record = lan.unicast(lane.receiver, air_time, packet.wire_len());
        if !record.is_delivered() {
            continue;
        }
        if is_payload {
            lane.received.insert(packet.seq().value());
            lane.window_delivered += 1;
            lane.window_bytes += packet.payload_len() as u64;
        }
        super::feed_decoders(packet, &mut lane.decoders, &mut lane.emitted, total_sources);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_wired_fanout_delivers_everything_without_adapting() {
        let spec = FanoutSpec::all_wired().with_packets(300);
        let outcome = FanoutEngine::new(spec.clone()).run_sync();
        assert_eq!(outcome.health_problems(&spec), Vec::<String>::new());
        assert_eq!(outcome.report.source_packets_sent, 300);
        assert_eq!(outcome.report.parity_total(), 0);
        assert_eq!(outcome.report.head_filters, vec!["head-tap"]);
        for lane in &outcome.report.lanes {
            assert_eq!(lane.outcome.delivered, 300);
            assert!(lane.timeline.is_empty());
        }
    }

    #[test]
    fn fec_appears_only_on_the_lossy_lane() {
        let spec = FanoutSpec::wired_plus_lossy_wlan();
        let outcome = FanoutEngine::new(spec.clone()).run_sync();
        assert_eq!(outcome.health_problems(&spec), Vec::<String>::new());
        let report = &outcome.report;
        let lossy = &report.lanes[0];
        assert!(lossy.fec_inserted_then_removed());
        assert!(lossy.parity_sent > 0);
        assert!(lossy.outcome.recovered > 0);
        for wired in &report.lanes[1..] {
            assert_eq!(wired.parity_sent, 0, "{} must carry no parity", wired.name);
            assert!(wired.timeline.is_empty(), "{} must not adapt", wired.name);
            assert_eq!(wired.outcome.delivered, spec.packets);
        }
        // The trace names the lanes and replays into the identical report.
        assert_eq!(FanoutReport::replay(&outcome.trace), *report);
        assert!(outcome.trace.canonical_text().contains("name=wlan-lossy"));
    }

    #[test]
    fn tiered_lanes_reach_different_fec_strengths() {
        let spec = FanoutSpec::tiered_wireless();
        let outcome = FanoutEngine::new(spec.clone()).run_sync();
        assert_eq!(outcome.health_problems(&spec), Vec::<String>::new());
        let heavy_timeline: Vec<&str> = outcome.report.lanes[0]
            .timeline
            .iter()
            .map(|t| t.entry.as_str())
            .collect();
        // The heavy lane reaches the strong tier at some point.
        assert!(
            heavy_timeline.iter().any(|e| e.contains("n=8")),
            "heavy lane should reach FEC(8,4): {heavy_timeline:?}"
        );
        // The light lane only ever uses the moderate tier.
        assert!(outcome.report.lanes[1]
            .timeline
            .iter()
            .all(|t| !t.entry.contains("n=8")));
    }

    #[test]
    fn sync_and_pooled_appliers_agree_byte_for_byte() {
        let spec = FanoutSpec::wired_plus_lossy_wlan().with_packets(600);
        let engine = FanoutEngine::new(spec);
        let sync = engine.run_sync();
        let pooled = engine.run_pooled();
        assert_eq!(sync.trace.canonical_text(), pooled.trace.canonical_text());
        assert_eq!(sync.report, pooled.report);
    }

    /// Conformance for the latency extension: every instrumented applier
    /// surfaces end-to-end percentiles, packet accounting stays identical
    /// across appliers, and the latency field never participates in report
    /// equality (wall-clock measurements differ run to run, so reports
    /// would otherwise never compare equal).
    #[test]
    fn latency_percentiles_ride_along_without_breaking_report_identity() {
        let spec = FanoutSpec::wired_plus_lossy_wlan().with_packets(400);
        let engine = FanoutEngine::new(spec.clone());
        let sync = engine.run_sync();
        let pooled = engine.run_pooled();

        // Identical packet accounting, lane by lane.
        assert_eq!(sync.report, pooled.report);
        assert_eq!(
            sync.report.source_packets_sent,
            pooled.report.source_packets_sent
        );
        for (a, b) in sync.report.lanes.iter().zip(&pooled.report.lanes) {
            assert_eq!(a.outcome, b.outcome, "lane {} accounting", a.name);
            assert_eq!(a.parity_sent, b.parity_sent, "lane {} parity", a.name);
        }

        // Both appliers timed every surfaced packet.
        for (label, outcome) in [("sync", &sync), ("pooled", &pooled)] {
            let latency = outcome
                .report
                .latency
                .unwrap_or_else(|| panic!("{label} applier is instrumented"));
            assert!(latency.count > 0, "{label} timed packets");
            assert!(latency.p50_ns <= latency.p99_ns, "{label} percentiles ordered");
        }

        // Replay reconstructs the accounting but not the timing, and the
        // reports still compare equal — latency is excluded from equality.
        let replayed = FanoutReport::replay(&sync.trace);
        assert_eq!(replayed.latency, None);
        assert_eq!(replayed, sync.report);

        // Two reports that differ only in latency are equal; a packet-count
        // difference still breaks equality.
        let mut relabelled = sync.report.clone();
        relabelled.latency = None;
        assert_eq!(relabelled, sync.report);
        relabelled.source_packets_sent += 1;
        assert_ne!(relabelled, sync.report);
    }

    #[test]
    fn pooled_applier_survives_a_head_chain_that_outgrows_the_lane_pipes() {
        // FEC(6,1) in the head expands every window 6x — past the lane
        // pipe capacity — so the session task back-pressures mid-window.
        // The applier's round-robin drain must keep it moving (a
        // lane-by-lane drain would deadlock here), and the run must still
        // agree with the sync applier byte for byte.
        let mut spec = FanoutSpec::all_wired().with_packets(150);
        spec.head_filters = vec![FilterSpec::new("fec-encoder")
            .with_param("n", "6")
            .with_param("k", "1")];
        let engine = FanoutEngine::new(spec);
        let pooled = engine.run_pooled();
        let sync = engine.run_sync();
        assert_eq!(pooled.report.source_packets_sent, 150);
        assert_eq!(sync.trace.canonical_text(), pooled.trace.canonical_text());
        for lane in &pooled.report.lanes {
            assert_eq!(lane.outcome.delivered, 150, "perfect links deliver everything");
        }
    }

    #[test]
    fn fanout_matrix_is_complete_and_named() {
        let matrix = FanoutSpec::fanout_matrix();
        assert_eq!(matrix.len(), 3);
        for spec in &matrix {
            assert!(spec.name.starts_with("fanout-"));
            assert!(!spec.lanes.is_empty());
            assert!(spec.lanes.iter().any(|l| !l.expect_adaptation));
        }
    }

    #[test]
    fn degenerate_fanout_specs_return_typed_errors() {
        let mut no_lanes = FanoutSpec::all_wired();
        no_lanes.lanes.clear();
        assert_eq!(
            FanoutEngine::new(no_lanes).try_run_sync().unwrap_err(),
            SpecError::NoLanes {
                scenario: "fanout-all-wired".into()
            }
        );

        let zero_packets = FanoutSpec::all_wired().with_packets(0);
        assert_eq!(
            FanoutEngine::new(zero_packets).try_run_sync().unwrap_err(),
            SpecError::ZeroPackets {
                scenario: "fanout-all-wired".into()
            }
        );

        let mut duplicate = FanoutSpec::all_wired();
        duplicate.lanes = vec![LaneSpec::wired("twin"), LaneSpec::wired("twin")];
        assert_eq!(
            duplicate.validate().unwrap_err(),
            SpecError::DuplicateLane {
                scenario: "fanout-all-wired".into(),
                lane: "twin".into()
            }
        );

        let mut empty_phases = FanoutSpec::all_wired();
        empty_phases.lanes = vec![LaneSpec::lossy("phased", LossRegime::Phased(Vec::new()))];
        assert!(matches!(
            empty_phases.validate().unwrap_err(),
            SpecError::EmptyPhases { .. }
        ));

        for spec in FanoutSpec::fanout_matrix() {
            assert_eq!(spec.validate(), Ok(()), "{} must validate", spec.name);
        }
    }

    #[test]
    #[should_panic(expected = "invalid fanout spec")]
    fn run_with_still_panics_on_degenerate_specs() {
        let mut spec = FanoutSpec::all_wired();
        spec.lanes.clear();
        let _ = FanoutEngine::new(spec).run_sync();
    }

    #[test]
    fn health_problems_flag_broken_fanout_runs() {
        // The full-length spec: truncating it would end the run inside the
        // loss episode, before the insert-then-remove cycle completes.
        let spec = FanoutSpec::wired_plus_lossy_wlan();
        let healthy = FanoutEngine::new(spec.clone()).run_sync();
        assert_eq!(healthy.health_problems(&spec), Vec::<String>::new());

        let mut broken = healthy.clone();
        broken.report.lanes[0].outcome.undelivered += 2;
        broken.report.lanes[0].outcome.delivered -= 2;
        broken.report.lanes[1].parity_sent = 5;
        broken.report.lanes[2].final_filters = vec!["fec-encoder(6,4)".to_string()];
        let problems = broken.health_problems(&spec);
        assert!(problems.iter().any(|p| p.contains("undelivered")), "{problems:?}");
        assert!(
            problems.iter().any(|p| p.contains("unexpected parity")),
            "{problems:?}"
        );
        assert!(problems.iter().any(|p| p.contains("did not converge")), "{problems:?}");
        assert!(
            problems.iter().any(|p| p.contains("reproduce the report")),
            "{problems:?}"
        );
    }
}
