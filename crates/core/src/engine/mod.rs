//! The closed-loop scenario engine.
//!
//! This module closes the control loop the paper describes but the rest of
//! the workspace only exposes as parts: a seeded `netsim` topology produces
//! per-window [`LinkSample`]s → the raplets' [`AdaptationEngine`] raises
//! events and emits [`AdaptationAction`]s → an [`Applier`] applies them to
//! running filter chains (the synchronous [`SyncApplier`] or a
//! [`LiveApplier`] on a live [`Proxy`]) → the reconfigured chain shapes
//! the traffic the topology sees next.  Every step is stamped in
//! [`SimTime`] and appended to a replayable [`ScenarioTrace`].
//!
//! ```text
//!  data    AudioSource ─▶ Applier ─▶ WirelessLan ─▶ FEC decoders
//!  plane                  (Sync /     (seeded loss)   + sinks
//!                          Live)           │
//!                            ▲             ▼ per-window counts
//!  control  AdaptationAction ◀─ Responder ◀─ Observer ◀─ LinkSample
//!  plane          │
//!                 └──▶ ScenarioTrace (SimTime-stamped, replayable)
//! ```
//!
//! Runs are deterministic: the same [`ScenarioSpec`] and seed produce a
//! byte-identical trace on every run, and every placement — sync, pooled
//! and shared-UDP carrier — produces the same adaptation timeline.
//!
//! ```
//! use rapidware::engine::{ScenarioEngine, ScenarioSpec};
//!
//! let engine = ScenarioEngine::new(ScenarioSpec::steady_wlan().with_packets(100));
//! let outcome = engine.run_sync();
//! // Every non-lost data packet reached the application...
//! assert_eq!(outcome.report.undelivered_total(), 0);
//! // ...and replaying the recorded trace reproduces the report.
//! assert_eq!(outcome.trace.replay(), outcome.report);
//! ```
//!
//! [`LinkSample`]: rapidware_raplets::LinkSample
//! [`AdaptationEngine`]: rapidware_raplets::AdaptationEngine
//! [`AdaptationAction`]: rapidware_raplets::AdaptationAction
//! [`FilterChain`]: rapidware_filters::FilterChain
//! [`Proxy`]: rapidware_proxy::Proxy
//! [`SimTime`]: rapidware_netsim::SimTime

mod applier;
mod fanout;
mod generate;
mod live;
mod report;
mod spec;
mod trace;

pub use applier::{Applier, SyncApplier};
pub use fanout::{FanoutEngine, FanoutOutcome, FanoutReport, FanoutSpec, LaneReport, LaneSpec};
pub use generate::{ChurnEvent, GeneratedShape, GeneratedSpec, PlacementKind, PlacementSpec};
pub use live::{LiveApplier, LiveIo};
pub use report::{LatencySummary, ReceiverOutcome, ScenarioReport, TimelineEntry};
pub use spec::{FecPolicy, LossRegime, RapletSet, ScenarioSpec, SpecError};
pub use trace::{describe_action, describe_event, ScenarioTrace, TraceEvent};

use std::collections::HashSet;

use rapidware_filters::{rekey_packet, FecDecoderFilter, Filter};
use rapidware_media::AudioSource;
use rapidware_netsim::{SimTime, WirelessLan};
use rapidware_packet::{LossEvent, Packet, ReceiptStats, SeqNo, StreamId};
use rapidware_proxy::FilterSpec;
use rapidware_raplets::{AdaptationAction, LinkSample};

/// The fixed seeds the scenario-matrix harness runs at.  The integration
/// tests and the `scenario_matrix` bench binary both read this constant, so
/// the two enforcement points cannot drift apart.
pub const MATRIX_SEEDS: [u64; 2] = [2001, 42];

/// Worker-pool size the pooled scenario appliers run on.  Small enough to
/// prove multiplexing (many session tasks per worker), large enough to keep
/// work stealing in play; traces must not depend on it.
pub const POOLED_APPLIER_SHARDS: usize = 4;

/// The channel key secure scenario runs seal with (decimal `0x5EED`, the
/// registry's default).  Fixed so filter names — which appear in canonical
/// traces — are identical on every applier.
pub const SECURE_SCENARIO_KEY: &str = "24301";

/// The epoch a secure scenario's midpoint rotation installs.
const SECURE_REKEY_EPOCH: u32 = 1;

/// Everything a closed-loop run produces: the final accounting, the
/// step-by-step trace it was derived from, and each source packet's fate.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Delivery accounting and adaptation timeline.
    pub report: ScenarioReport,
    /// The replayable record of the run (`trace.replay() == report`).
    pub trace: ScenarioTrace,
    /// Per receiver, the fate of every source packet, indexed by sequence
    /// number: received over the air, reconstructed by FEC, or lost.
    pub events: Vec<Vec<LossEvent>>,
}

impl ScenarioOutcome {
    /// One receiver's per-seq fates folded into `window`-packet statistics
    /// windows (Figure 7 uses 432).
    ///
    /// # Panics
    ///
    /// Panics if `receiver` is out of range or `window` is zero.
    pub fn receipt_stats(&self, receiver: usize, window: u64) -> ReceiptStats {
        let mut stats = ReceiptStats::new(window);
        for (seq, event) in (0..).zip(&self.events[receiver]) {
            stats.record(SeqNo::new(seq), *event);
        }
        stats
    }

    /// The scenario-matrix health checks, shared by the test harness
    /// (which asserts the list is empty) and the `scenario_matrix` bench
    /// binary (which prints it): one line per violated property of a run
    /// against the expectations declared in its spec.
    pub fn health_problems(&self, spec: &ScenarioSpec) -> Vec<String> {
        let report = &self.report;
        let mut problems = Vec::new();
        if report.source_packets_sent != spec.packets {
            problems.push(format!(
                "transmitted {} source packets, spec says {}",
                report.source_packets_sent, spec.packets
            ));
        }
        for (index, receiver) in report.receivers.iter().enumerate() {
            let accounted =
                receiver.delivered + receiver.recovered + receiver.lost + receiver.undelivered;
            if accounted != spec.packets {
                problems.push(format!(
                    "receiver {index} accounts for {accounted} of {} packets",
                    spec.packets
                ));
            }
        }
        if report.undelivered_total() > 0 {
            problems.push(format!(
                "{} non-lost data packets undelivered",
                report.undelivered_total()
            ));
        }
        if spec.expect_adaptation {
            if !report.fec_inserted_then_removed() {
                problems.push("missing insert-then-remove adaptation cycle".to_string());
            }
            if report.parity_packets_sent == 0 {
                problems.push("no parity on the air".to_string());
            }
            if report.recovered_total() == 0 {
                problems.push("FEC never repaired a loss".to_string());
            }
        } else {
            if !report.timeline.is_empty() {
                problems.push(format!(
                    "{} spurious adaptation steps on a quiet link",
                    report.timeline.len()
                ));
            }
            if report.parity_packets_sent != 0 && !matches!(spec.fec, FecPolicy::Fixed(..)) {
                problems.push("unexpected parity on a quiet link".to_string());
            }
        }
        if spec.expect_clean_finish && !report.converged() {
            problems.push(format!("did not converge: {:?}", report.final_filters));
        }
        if self.trace.replay() != self.report {
            problems.push("replaying the trace does not reproduce the report".to_string());
        }
        problems
    }
}

/// One sync FEC decoder per code the sender can put on the air (a decoder
/// only accepts parity of its own (n, k)).
type Decoders = Vec<((usize, usize), FecDecoderFilter)>;

/// A receiver's decoders for `codes`, which the spec's validation has
/// already checked against the codec.
fn decoders(codes: &[(usize, usize)]) -> Decoders {
    codes
        .iter()
        .map(|&(n, k)| {
            let decoder = FecDecoderFilter::new(n, k).expect("validated specs use valid FEC codes");
            ((n, k), decoder)
        })
        .collect()
}

/// Per-receiver simulation state: the receiver's decoders plus the
/// bookkeeping needed for the final accounting.
struct ReceiverState {
    decoders: Decoders,
    received: HashSet<u64>,
    emitted: HashSet<u64>,
}

/// Counters shared by the broadcast path.
#[derive(Default)]
struct AirCounters {
    source_packets: u64,
    parity_packets: u64,
    window_sent: u64,
    window_delivered: u64,
    window_bytes_delivered: u64,
}

/// Drives one [`ScenarioSpec`] through the full closed loop.
#[derive(Debug, Clone)]
pub struct ScenarioEngine {
    spec: ScenarioSpec,
}

impl ScenarioEngine {
    /// Creates an engine for the given spec.
    pub fn new(spec: ScenarioSpec) -> Self {
        Self { spec }
    }

    /// The spec this engine runs.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Runs the scenario against the synchronous [`SyncApplier`]: one lane,
    /// no head chain.
    pub fn run_sync(&self) -> ScenarioOutcome {
        self.valid_spec();
        self.run_validated(&mut flat_sync_applier())
    }

    /// Like [`run_sync`](Self::run_sync), but rejects degenerate specs with
    /// a typed [`SpecError`] instead of panicking.
    pub fn try_run_sync(&self) -> Result<ScenarioOutcome, SpecError> {
        self.spec.validate()?;
        Ok(self.run_validated(&mut flat_sync_applier()))
    }

    /// Runs the scenario against a [`LiveApplier`] stream over
    /// [`LiveIo::Pipes`]: the chain executes as a cooperative task on a
    /// sharded worker pool ([`POOLED_APPLIER_SHARDS`] workers),
    /// reconfigured through the proxy control surface, using the spec's
    /// batch size.  The trace must be byte-identical to the sync run.
    pub fn run_pooled(&self) -> ScenarioOutcome {
        self.run_live(LiveIo::Pipes)
    }

    /// Runs the scenario against a [`LiveApplier`] stream over a
    /// [`LiveIo::Carrier`]: every packet crosses two real loopback UDP
    /// sockets on its way through the chain, the proxy side being a carrier
    /// demuxed by its carrier task on the worker pool.  The report
    /// must agree with the in-process appliers at the same seed.
    pub fn run_udp_shared(&self) -> ScenarioOutcome {
        self.run_live(LiveIo::Carrier)
    }

    fn run_live(&self, io: LiveIo) -> ScenarioOutcome {
        let spec = self.valid_spec();
        let window = spec.sample_interval as usize;
        self.run_validated(&mut LiveApplier::stream(
            io,
            POOLED_APPLIER_SHARDS,
            spec.batch_size,
            window,
        ))
    }

    /// Runs the scenario against any applier, driving lane 0 of it (a flat
    /// scenario is the one-lane case).
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (see [`ScenarioSpec::validate`]) or
    /// a filter fails, which the built-in scenarios never do.
    pub fn run_with(&self, applier: &mut dyn Applier) -> ScenarioOutcome {
        self.valid_spec();
        self.run_validated(applier)
    }

    /// The spec, checked once before any applier is built.
    fn valid_spec(&self) -> &ScenarioSpec {
        if let Err(err) = self.spec.validate() {
            panic!("invalid scenario spec: {err}");
        }
        &self.spec
    }

    fn run_validated(&self, chain: &mut dyn Applier) -> ScenarioOutcome {
        let spec = &self.spec;
        let mut trace = ScenarioTrace::new(spec.name.clone(), spec.seed);

        // The topology: one seeded LAN, one loss regime per receiver.
        let mut lan = WirelessLan::wavelan_2mbps(spec.seed);
        for (index, regime) in spec.receivers.iter().enumerate() {
            regime.attach(&mut lan, &format!("receiver-{index}"));
        }
        let monitor = lan.receiver_ids()[0];
        let codes = spec.fec.decoder_codes();
        let mut receivers: Vec<ReceiverState> = (0..spec.receivers.len())
            .map(|_| ReceiverState {
                decoders: decoders(&codes),
                received: HashSet::new(),
                emitted: HashSet::new(),
            })
            .collect();

        // The raplets, when FEC is theirs to manage.
        let mut adaptation = spec.fec.adaptation_engine();
        let mut logged = 0usize;

        let mut source = AudioSource::new(StreamId::new(1), spec.audio);
        let mut counters = AirCounters::default();
        let mut window_start = SimTime::ZERO;
        let mut sent = 0u64;

        // Secure channel: the seal/verify pair brackets the chain for the
        // whole run.  Installed through the applier's own action path so
        // every applier (sync, pooled, shared-UDP) places it
        // identically; FEC adaptation inserts at the head, upstream of the
        // pair, so parity gets sealed too.
        let rekey_at = if spec.secure {
            let key = FilterSpec::new("encrypt").with_param("key", SECURE_SCENARIO_KEY);
            let decrypt = FilterSpec::new("decrypt").with_param("key", SECURE_SCENARIO_KEY);
            let installed = chain.apply(
                0,
                &[
                    AdaptationAction::Insert { position: 0, spec: key },
                    AdaptationAction::Insert {
                        position: 1,
                        spec: decrypt,
                    },
                ],
            );
            debug_assert!(installed.is_empty(), "inserting flushes nothing");
            // Rotate the channel key at the midpoint of the run (skipped
            // for single-packet runs, where no seq strictly follows 0).
            (spec.packets >= 2).then_some(spec.packets / 2)
        } else {
            None
        };
        // A fixed code goes in the same way, at the head, so it too sits
        // upstream of any secure pair.
        if let FecPolicy::Fixed(n, k) = spec.fec {
            let encoder = FilterSpec::new("fec-encoder")
                .with_param("n", n.to_string())
                .with_param("k", k.to_string());
            let installed = chain.apply(0, &[AdaptationAction::Insert { position: 0, spec: encoder }]);
            debug_assert!(installed.is_empty(), "inserting flushes nothing");
        }

        while sent < spec.packets {
            // One sample window of source packets through the chain.
            let count = (spec.packets - sent).min(spec.sample_interval.max(1));
            let mut window: Vec<Packet> = (0..count).map(|_| source.next_packet()).collect();
            sent += count;
            if let Some(boundary) = rekey_at {
                // Splice the rotation control frame in immediately before
                // the first packet of the new epoch.  Both crypto stages
                // see it at the same point in stream order, so they agree
                // on which epoch seals each seq; the decrypt stage then
                // consumes it, so rotation plumbing never goes on the air.
                if let Some(position) =
                    window.iter().position(|p| p.seq().value() == boundary)
                {
                    let at = &window[position];
                    let rekey = rekey_packet(
                        at.stream(),
                        SECURE_REKEY_EPOCH,
                        boundary,
                        at.timestamp_us(),
                    );
                    window.insert(position, rekey);
                }
            }
            let now = SimTime::from_micros(
                window.last().expect("windows are non-empty").timestamp_us(),
            );
            let mut air_time = SimTime::from_micros(window[0].timestamp_us());
            let outgoing = chain.process(window).swap_remove(0);

            // Transmit: payload packets go on the air at their own media
            // timestamp; parity (and any other derived traffic) rides at
            // the timestamp of the payload packet that triggered it, which
            // keeps timing identical across appliers.
            for packet in &outgoing {
                if packet.kind().is_payload() {
                    air_time = SimTime::from_micros(packet.timestamp_us());
                }
                broadcast(&mut lan, air_time, packet, spec.packets, &mut receivers, &mut counters);
            }

            // Sample the monitored link over the window just transmitted.
            let mut sample = LinkSample::new(now, counters.window_sent, counters.window_delivered)
                .with_window(window_start, counters.window_bytes_delivered);
            if let Some(distance) = lan.receiver_distance(monitor, now) {
                sample = sample.with_distance(distance);
            }
            trace.push(TraceEvent::Sample {
                time: now,
                sent: counters.window_sent,
                delivered: counters.window_delivered,
                loss_rate: sample.loss_rate(),
            });
            counters.window_sent = 0;
            counters.window_delivered = 0;
            counters.window_bytes_delivered = 0;
            window_start = now;

            // Observer → responder → applier.
            let Some(adaptation) = adaptation.as_mut() else {
                continue;
            };
            let actions = adaptation.ingest(&sample);
            for record in &adaptation.log()[logged..] {
                trace.push(TraceEvent::Observed {
                    time: record.time,
                    event: describe_event(&record.event),
                });
                for action in &record.actions {
                    trace.push(TraceEvent::ActionApplied {
                        time: record.time,
                        action: describe_action(action),
                    });
                }
            }
            logged = adaptation.log().len();
            if !actions.is_empty() {
                // Residue flushed out of removed/replaced filters still has
                // to reach the receivers (it completes their open blocks).
                for packet in chain.apply(0, &actions) {
                    broadcast(&mut lan, now, &packet, spec.packets, &mut receivers, &mut counters);
                }
                trace.push(TraceEvent::ChainReconfigured {
                    time: now,
                    filters: chain.lane_filters(0),
                });
            }
        }

        // End of stream: flush the chain's tail (e.g. a partial FEC block).
        let final_time = SimTime::from_micros(spec.packets * spec.audio.packet_interval_us());
        let final_filters = chain.lane_filters(0);
        for packet in chain.finish().swap_remove(0) {
            broadcast(&mut lan, final_time, &packet, spec.packets, &mut receivers, &mut counters);
        }

        // Final accounting.
        let mut outcomes = Vec::with_capacity(receivers.len());
        let mut events = Vec::with_capacity(receivers.len());
        for (index, state) in receivers.iter().enumerate() {
            let (outcome, fates) = account(&state.received, &state.emitted, spec.packets);
            events.push(fates);
            trace.push(TraceEvent::ReceiverTotals {
                receiver: index,
                delivered: outcome.delivered,
                recovered: outcome.recovered,
                lost: outcome.lost,
                undelivered: outcome.undelivered,
            });
            outcomes.push(outcome);
        }
        trace.push(TraceEvent::RunSummary {
            source_packets: counters.source_packets,
            parity_packets: counters.parity_packets,
            final_filters: final_filters.clone(),
        });

        let report = ScenarioReport {
            scenario: spec.name.clone(),
            seed: spec.seed,
            source_packets_sent: counters.source_packets,
            parity_packets_sent: counters.parity_packets,
            receivers: outcomes,
            timeline: trace.adaptation_timeline(),
            final_filters,
            latency: chain.latency(),
        };
        ScenarioOutcome {
            report,
            trace,
            events,
        }
    }
}

/// The flat scenario's sync applier: one lane, no head chain.
fn flat_sync_applier() -> SyncApplier {
    SyncApplier::new("scenario", &[], &["scenario".to_string()])
}

/// Classifies every source seq at one receiver from what its link
/// delivered and what its decoders surfaced: the report's four buckets and
/// the per-seq fates.  A packet the link delivered is `Received` in the
/// fates even if the receiver never surfaced it; the `undelivered` bucket
/// is where that failure shows.
fn account(
    received: &HashSet<u64>,
    emitted: &HashSet<u64>,
    packets: u64,
) -> (ReceiverOutcome, Vec<LossEvent>) {
    let mut outcome = ReceiverOutcome::default();
    let fates = (0..packets)
        .map(|seq| {
            let (bucket, fate) = match (received.contains(&seq), emitted.contains(&seq)) {
                (true, true) => (&mut outcome.delivered, LossEvent::Received),
                (true, false) => (&mut outcome.undelivered, LossEvent::Received),
                (false, true) => (&mut outcome.recovered, LossEvent::Reconstructed),
                (false, false) => (&mut outcome.lost, LossEvent::Lost),
            };
            *bucket += 1;
            fate
        })
        .collect();
    (outcome, fates)
}

/// Puts one packet on the air and routes the per-receiver deliveries into
/// the decoders and bookkeeping.
fn broadcast(
    lan: &mut WirelessLan,
    now: SimTime,
    packet: &Packet,
    total_sources: u64,
    receivers: &mut [ReceiverState],
    counters: &mut AirCounters,
) {
    let is_payload = packet.kind().is_payload();
    if is_payload {
        counters.source_packets += 1;
        counters.window_sent += 1;
    } else if packet.kind().is_parity() {
        counters.parity_packets += 1;
    }
    let records = lan.broadcast(now, packet.wire_len());
    for (index, record) in records.iter().enumerate() {
        if !record.is_delivered() {
            continue;
        }
        let state = &mut receivers[index];
        if is_payload {
            state.received.insert(packet.seq().value());
            if index == 0 {
                counters.window_delivered += 1;
                counters.window_bytes_delivered += packet.payload_len() as u64;
            }
        }
        feed_decoders(packet, &mut state.decoders, &mut state.emitted, total_sources);
    }
}

/// Feeds one delivered packet into a receiver's per-code FEC decoders and
/// records any reconstructed source payloads in `emitted`.  Shared by the
/// flat engine's broadcast path and the fanout engine's per-lane path so
/// the two can never drift in how deliveries are routed.  A receiver with
/// no decoders (FEC off) surfaces each delivered payload as is.
///
/// Parity is routed to the decoder of its own code; payload feeds every
/// decoder (whichever has the block open uses it — duplicates are absorbed
/// by the `emitted` set).  Decode errors are tolerated, not dead code:
/// when adaptation re-inserts FEC mid-stream, block boundaries shift, and
/// a reconstruction attempted across the epoch boundary can fail
/// shard-framing validation (`FecError::CorruptPayload`).  The packet
/// still counts through the caller's `received` set, and anything the
/// decoder emitted before the failure is kept — a bad reconstruction can
/// only surface as `lost`, never as a corrupted delivery.
fn feed_decoders(
    packet: &Packet,
    decoders: &mut Decoders,
    emitted: &mut HashSet<u64>,
    total_sources: u64,
) {
    let parity_code = match packet.kind() {
        rapidware_packet::PacketKind::Parity { k, n, .. } => {
            Some((usize::from(n), usize::from(k)))
        }
        _ => None,
    };
    let mut decoded: Vec<Packet> = Vec::new();
    if decoders.is_empty() {
        decoded.push(packet.clone());
    }
    for (code, decoder) in decoders {
        if parity_code.is_some_and(|parity| parity != *code) {
            continue;
        }
        let _ = decoder.process(packet.clone(), &mut decoded);
    }
    for out in decoded {
        if !out.kind().is_payload() {
            continue;
        }
        let seq = out.seq().value();
        if seq < total_sources {
            emitted.insert(seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lossless_run_delivers_everything_without_adapting() {
        let spec = ScenarioSpec {
            name: "unit-lossless".into(),
            receivers: vec![LossRegime::Perfect, LossRegime::Perfect],
            ..ScenarioSpec::steady_wlan().with_packets(200)
        };
        let outcome = ScenarioEngine::new(spec).run_sync();
        assert_eq!(outcome.report.source_packets_sent, 200);
        assert_eq!(outcome.report.parity_packets_sent, 0, "no loss, no FEC");
        assert!(outcome.report.timeline.is_empty());
        for receiver in &outcome.report.receivers {
            assert_eq!(receiver.delivered, 200);
            assert_eq!(receiver.lost, 0);
            assert_eq!(receiver.undelivered, 0);
        }
        assert!(outcome.report.converged());
    }

    #[test]
    fn a_loss_episode_drives_the_full_insert_remove_cycle() {
        let outcome = ScenarioEngine::new(ScenarioSpec::handoff_cliff()).run_sync();
        assert!(outcome.report.fec_inserted_then_removed());
        assert!(outcome.report.parity_packets_sent > 0);
        assert_eq!(outcome.report.undelivered_total(), 0);
        assert!(outcome.report.recovered_total() > 0, "FEC must repair some losses");
        assert!(outcome.report.converged());
        assert_eq!(outcome.trace.replay(), outcome.report);
    }

    /// Conformance for the latency extension on the flat engine: the sync
    /// and pooled appliers report identical packet counts, both surface
    /// end-to-end percentiles, and latency never participates in report
    /// equality (replayed traces carry none).
    #[test]
    fn latency_percentiles_ride_along_without_breaking_report_identity() {
        let spec = ScenarioSpec::handoff_cliff().with_packets(400);
        let engine = ScenarioEngine::new(spec);
        let sync = engine.run_sync();
        let pooled = engine.run_pooled();

        assert_eq!(sync.report, pooled.report);
        assert_eq!(sync.report.receivers, pooled.report.receivers);
        for (label, outcome) in [("sync", &sync), ("pooled", &pooled)] {
            let latency = outcome
                .report
                .latency
                .unwrap_or_else(|| panic!("{label} applier is instrumented"));
            assert!(latency.count > 0, "{label} timed packets");
            assert!(latency.p50_ns <= latency.p99_ns, "{label} percentiles ordered");
        }

        let replayed = sync.trace.replay();
        assert_eq!(replayed.latency, None);
        assert_eq!(replayed, sync.report, "equality ignores the latency field");

        let mut relabelled = sync.report.clone();
        relabelled.latency = None;
        assert_eq!(relabelled, sync.report);
        relabelled.source_packets_sent += 1;
        assert_ne!(relabelled, sync.report);
    }

    #[test]
    fn degenerate_specs_return_typed_errors_instead_of_panicking() {
        let no_receivers = ScenarioSpec {
            receivers: Vec::new(),
            ..ScenarioSpec::steady_wlan()
        };
        assert_eq!(
            ScenarioEngine::new(no_receivers).try_run_sync().unwrap_err(),
            SpecError::NoReceivers {
                scenario: "steady-wlan".into()
            }
        );
        let zero_packets = ScenarioSpec::steady_wlan().with_packets(0);
        assert_eq!(
            ScenarioEngine::new(zero_packets).try_run_sync().unwrap_err(),
            SpecError::ZeroPackets {
                scenario: "steady-wlan".into()
            }
        );
    }

    #[test]
    fn invalid_fec_policies_return_typed_errors_instead_of_panicking() {
        let raplets = RapletSet::paper_default();
        let cases = [
            (FecPolicy::Fixed(6, 0), "FEC(6,0)"),
            (
                FecPolicy::Adaptive(RapletSet {
                    fec_moderate: (4, 6),
                    ..raplets.clone()
                }),
                "FEC(4,6)",
            ),
            (
                FecPolicy::Adaptive(RapletSet {
                    loss_thresholds: (0.005, 0.02),
                    ..raplets.clone()
                }),
                "below the low threshold",
            ),
            (
                FecPolicy::Adaptive(RapletSet {
                    smoothing: 0.0,
                    ..raplets
                }),
                "smoothing",
            ),
        ];
        for (fec, message) in cases {
            let spec = ScenarioSpec {
                fec,
                ..ScenarioSpec::steady_wlan()
            };
            let err = ScenarioEngine::new(spec).try_run_sync().unwrap_err();
            assert!(err.to_string().contains(message), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid scenario spec")]
    fn run_with_still_panics_on_degenerate_specs() {
        let spec = ScenarioSpec {
            receivers: Vec::new(),
            ..ScenarioSpec::steady_wlan()
        };
        let _ = ScenarioEngine::new(spec).run_sync();
    }

    #[test]
    fn the_spec_accessor_round_trips() {
        let engine = ScenarioEngine::new(ScenarioSpec::steady_wlan());
        assert_eq!(engine.spec().name, "steady-wlan");
    }

    #[test]
    fn health_problems_flag_unhealthy_runs() {
        let spec = ScenarioSpec::handoff_cliff();
        let healthy = ScenarioEngine::new(spec.clone()).run_sync();
        assert_eq!(healthy.health_problems(&spec), Vec::<String>::new());

        // Tamper with the outcome the way real regressions would surface.
        let mut broken = healthy.clone();
        broken.report.receivers[0].undelivered += 3;
        broken.report.receivers[0].delivered -= 3;
        broken.report.final_filters = vec!["fec-encoder(6,4)".to_string()];
        broken.report.timeline.retain(|t| !t.entry.starts_with("action remove"));
        let problems = broken.health_problems(&spec);
        assert!(problems.iter().any(|p| p.contains("undelivered")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("converge")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("insert-then-remove")), "{problems:?}");
        assert!(
            problems.iter().any(|p| p.contains("reproduce the report")),
            "{problems:?}"
        );

        // A quiet-link spec flags the opposite regression: any adaptation.
        let quiet = ScenarioSpec::steady_wlan();
        let mut noisy = ScenarioEngine::new(quiet.clone()).run_sync();
        noisy.report.parity_packets_sent = 7;
        assert!(noisy
            .health_problems(&quiet)
            .iter()
            .any(|p| p.contains("unexpected parity")));
    }
}
