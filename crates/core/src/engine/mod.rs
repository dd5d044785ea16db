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
//!  data    AudioSource ─▶ head ─┬─ lane 0 tail ─▶ receivers ─▶ FEC decoders
//!  plane   (one source)  chain  └─ lane 1 tail ─▶ receivers      + sinks
//!                          ▲         ▲                │
//!                          └─────────┴─ Applier       ▼ per-window counts
//!  control  AdaptationAction ◀─ Responder ◀─ Observer ◀─ LinkSample
//!  plane          │
//!                 └──▶ ScenarioTrace (SimTime-stamped, replayable)
//! ```
//!
//! One [`ScenarioSpec`] describes every scenario: a head chain and the
//! lanes fanning out of it, each lane reaching one or more receivers with
//! one transmission.  Its [`FecSite`] says where FEC and its loop act: on
//! the head, which every receiver shares (the paper's multicast case, one
//! lane reaching every receiver), or on each lane's own tail (one receiver
//! per lane, FEC only where a link needs it).
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
//! [`Proxy`]: rapidware_proxy::Proxy
//! [`SimTime`]: rapidware_netsim::SimTime

mod applier;
mod fanout;
mod generate;
mod live;
mod report;
mod spec;
mod trace;

pub use applier::{Applier, Chain, SyncApplier};
pub use generate::{ChurnEvent, GeneratedSpec, PlacementKind, PlacementSpec};
pub use live::{LiveApplier, LiveIo};
pub use report::{LaneReport, LatencySummary, ReceiverOutcome, ScenarioReport, TimelineEntry};
pub use spec::{FecPolicy, FecSite, LaneSpec, LossRegime, RapletSet, ScenarioSpec, SpecError};
pub use trace::{describe_action, describe_event, ScenarioTrace, TraceEvent};

use std::collections::HashSet;

use rapidware_filters::{rekey_packet, FecDecoderFilter, Filter};
use rapidware_media::AudioSource;
use rapidware_netsim::{ReceiverId, SimTime, WirelessLan};
use rapidware_packet::{LossEvent, Packet, ReceiptStats, SeqNo, StreamId};
use rapidware_proxy::FilterSpec;
use rapidware_raplets::{AdaptationAction, LinkSample};

use report::inserted_then_removed;

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
    /// Delivery accounting and adaptation timelines.
    pub report: ScenarioReport,
    /// The replayable record of the run (`trace.replay() == report`).
    pub trace: ScenarioTrace,
    /// Per receiver (lane by lane, as [`ScenarioReport::receivers`]), the
    /// fate of every source packet, indexed by sequence number: received
    /// over the air, reconstructed by FEC, or lost.
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

    /// The invariants every run keeps whatever its loss regimes did, one
    /// line per violation: every source packet sent, every receiver
    /// accounting for every packet, nothing the link delivered left
    /// unsurfaced, and the trace replaying into the report.
    pub fn accounting_problems(&self, spec: &ScenarioSpec) -> Vec<String> {
        let report = &self.report;
        let packets = spec.packets;
        let mut problems = Vec::new();
        if report.source_packets_sent != packets {
            problems.push(format!(
                "transmitted {} source packets, spec says {packets}",
                report.source_packets_sent
            ));
        }
        for (lane_spec, lane) in spec.lanes.iter().zip(&report.lanes) {
            for (index, receiver) in lane.receivers.iter().enumerate() {
                let at = format!("lane {} receiver {index}", lane_spec.name);
                let accounted =
                    receiver.delivered + receiver.recovered + receiver.lost + receiver.undelivered;
                if accounted != packets {
                    problems.push(format!("{at} accounts for {accounted} of {packets} packets"));
                }
                if receiver.undelivered != 0 {
                    problems.push(format!(
                        "{at}: {} non-lost data packets undelivered",
                        receiver.undelivered
                    ));
                }
            }
        }
        if report.lanes.len() != spec.lanes.len() {
            problems.push(format!(
                "report covers {} lanes, spec has {}",
                report.lanes.len(),
                spec.lanes.len()
            ));
        }
        if self.trace.replay() != self.report {
            problems.push("replaying the trace does not reproduce the report".to_string());
        }
        problems
    }

    /// The scenario-matrix health checks, shared by the test harness
    /// (which asserts the list is empty) and the `scenario_matrix` bench
    /// binary (which prints it): the [accounting
    /// problems](Self::accounting_problems) plus one line per lane whose
    /// run breaks the expectations its spec declares.
    pub fn health_problems(&self, spec: &ScenarioSpec) -> Vec<String> {
        let report = &self.report;
        let mut problems = self.accounting_problems(spec);
        for (lane_spec, lane) in spec.lanes.iter().zip(&report.lanes) {
            let name = &lane_spec.name;
            // The steps of the loop whose chain this lane's traffic crosses.
            let steps = match spec.fec_site {
                FecSite::Head => &report.timeline,
                FecSite::Lanes => &lane.timeline,
            };
            if lane_spec.expect_adaptation {
                if !inserted_then_removed(steps) {
                    problems
                        .push(format!("lane {name}: missing insert-then-remove adaptation cycle"));
                }
                if lane.parity_sent == 0 {
                    problems.push(format!("lane {name}: no parity on the air"));
                }
                if lane.receivers.iter().all(|receiver| receiver.recovered == 0) {
                    problems.push(format!("lane {name}: FEC never repaired a loss"));
                }
            } else {
                if !steps.is_empty() {
                    problems.push(format!(
                        "lane {name}: {} spurious adaptation steps on a quiet link",
                        steps.len()
                    ));
                }
                if lane.parity_sent != 0 && !matches!(spec.fec, FecPolicy::Fixed(..)) {
                    problems.push(format!("lane {name}: unexpected parity on a quiet link"));
                }
            }
        }
        if spec.expect_clean_finish && !report.converged() {
            let lanes: Vec<_> = report.lanes.iter().map(|lane| &lane.final_filters).collect();
            problems.push(format!(
                "did not converge: head {:?}, lanes {lanes:?}",
                report.head_filters
            ));
        }
        problems
    }
}

/// One sync FEC decoder per code the sender can put on the air (a decoder
/// only accepts parity of its own (n, k)).
type Decoders = Vec<((usize, usize), FecDecoderFilter)>;

/// One receiver's simulation state: its decoders plus the bookkeeping
/// needed for the final accounting.
struct ReceiverState {
    decoders: Decoders,
    received: HashSet<u64>,
    emitted: HashSet<u64>,
}

/// One lane's side of the link: the receivers one transmission reaches,
/// and what the lane put on the air.
struct LaneState {
    ids: Vec<ReceiverId>,
    receivers: Vec<ReceiverState>,
    parity_sent: u64,
    window: Window,
}

/// One sample window's counts on a lane's monitored (first) receiver.
#[derive(Default)]
struct Window {
    sent: u64,
    delivered: u64,
    bytes: u64,
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

    /// Runs the scenario against the synchronous [`SyncApplier`].
    pub fn run_sync(&self) -> ScenarioOutcome {
        self.run_validated(&mut SyncApplier::new(self.valid_spec()))
    }

    /// Like [`run_sync`](Self::run_sync), but rejects degenerate specs with
    /// a typed [`SpecError`] instead of panicking.
    pub fn try_run_sync(&self) -> Result<ScenarioOutcome, SpecError> {
        self.spec.validate()?;
        Ok(self.run_validated(&mut SyncApplier::new(&self.spec)))
    }

    /// Runs the scenario against a [`LiveApplier`] session over
    /// [`LiveIo::Pipes`]: the chains execute as one cooperative task on a
    /// sharded worker pool ([`POOLED_APPLIER_SHARDS`] workers),
    /// reconfigured through the proxy control surface, using the spec's
    /// batch size.  The trace must be byte-identical to the sync run.
    pub fn run_pooled(&self) -> ScenarioOutcome {
        self.run_live(LiveIo::Pipes, POOLED_APPLIER_SHARDS)
    }

    /// Runs the scenario against a [`LiveApplier`] session over a
    /// [`LiveIo::Carrier`]: every packet crosses real loopback UDP sockets
    /// on its way through the chains, the proxy side being a carrier
    /// demuxed by its carrier task on the worker pool.  The report must
    /// agree with the in-process appliers at the same seed.
    pub fn run_udp_shared(&self) -> ScenarioOutcome {
        self.run_live(LiveIo::Carrier, POOLED_APPLIER_SHARDS)
    }

    /// Runs the scenario against a [`LiveApplier`] session over `io` on a
    /// `shards`-worker pool.
    pub fn run_live(&self, io: LiveIo, shards: usize) -> ScenarioOutcome {
        self.run_validated(&mut LiveApplier::session(io, self.valid_spec(), shards))
    }

    /// Runs the scenario against any applier built for this spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (see [`ScenarioSpec::validate`]) or
    /// a filter fails, which the built-in scenarios never do.
    pub fn run_with(&self, applier: &mut dyn Applier) -> ScenarioOutcome {
        self.valid_spec();
        self.run_validated(applier)
    }

    /// The spec, checked before any applier is built.
    fn valid_spec(&self) -> &ScenarioSpec {
        if let Err(err) = self.spec.validate() {
            panic!("invalid scenario spec: {err}");
        }
        &self.spec
    }

    fn run_validated(&self, applier: &mut dyn Applier) -> ScenarioOutcome {
        let spec = &self.spec;
        let mut trace = ScenarioTrace::new(spec.name.clone(), spec.seed);

        // The topology: one seeded LAN, the receivers attached lane by
        // lane, each with its own loss regime.
        let mut lan = WirelessLan::wavelan_2mbps(spec.seed);
        let codes = spec.fec.decoder_codes();
        let mut lanes: Vec<LaneState> = spec
            .lanes
            .iter()
            .map(|lane| LaneState {
                ids: lane
                    .receivers
                    .iter()
                    .map(|regime| regime.attach(&mut lan, &lane.name))
                    .collect(),
                receivers: lane
                    .receivers
                    .iter()
                    .map(|_| ReceiverState {
                        decoders: decoders(&codes),
                        received: HashSet::new(),
                        emitted: HashSet::new(),
                    })
                    .collect(),
                parity_sent: 0,
                window: Window::default(),
            })
            .collect();

        // The chains the FEC policy acts on, each with its own loop when
        // the raplets manage FEC.
        let chains: Vec<Chain> = match spec.fec_site {
            FecSite::Head => vec![Chain::Head],
            FecSite::Lanes => (0..lanes.len()).map(Chain::Lane).collect(),
        };
        let mut loops: Vec<_> = chains
            .iter()
            .map(|_| spec.fec.adaptation_engine().map(|engine| (engine, 0usize)))
            .collect();

        // Secure channel: the seal/verify pair brackets each of those
        // chains for the whole run, and a fixed code goes in at the front,
        // upstream of the pair, so parity gets sealed too.  Installed
        // through the applier's own action path so every applier places
        // them identically.
        for &chain in &chains {
            let mut installs = Vec::new();
            if spec.secure {
                for (position, kind) in ["encrypt", "decrypt"].into_iter().enumerate() {
                    let stage = FilterSpec::new(kind).with_param("key", SECURE_SCENARIO_KEY);
                    installs.push(AdaptationAction::Insert { position, spec: stage });
                }
            }
            if let FecPolicy::Fixed(n, k) = spec.fec {
                let encoder = FilterSpec::new("fec-encoder")
                    .with_param("n", n.to_string())
                    .with_param("k", k.to_string());
                installs.push(AdaptationAction::Insert { position: 0, spec: encoder });
            }
            if !installs.is_empty() {
                let residue = applier.apply(chain, &installs);
                debug_assert!(residue.iter().all(Vec::is_empty), "inserting flushes nothing");
            }
        }
        // Rotate the channel key at the midpoint of the run (skipped for
        // single-packet runs, where no seq strictly follows 0).
        let rekey_at = (spec.secure && spec.packets >= 2).then_some(spec.packets / 2);

        let mut source = AudioSource::new(StreamId::new(1), spec.audio);
        let mut window_start = SimTime::ZERO;
        let mut sent = 0u64;

        while sent < spec.packets {
            // One sample window of source packets through the chains.
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
            let first = SimTime::from_micros(window[0].timestamp_us());

            // Head once, then each lane's tail; each lane transmits on its
            // own receivers, in lane order (which fixes the RNG draw order,
            // so runs are identical across appliers).
            transmit_all(&mut lan, &mut lanes, &applier.process(window), first, spec.packets);

            // Sample each monitored link over the window just transmitted,
            // then run the loop on the chain it watches:
            // observer → responder → applier.
            for (&chain, adaptation) in chains.iter().zip(&mut loops) {
                let lane = chain.lane();
                let monitored = &mut lanes[lane.unwrap_or(0)];
                let counts = std::mem::take(&mut monitored.window);
                let mut sample = LinkSample::new(now, counts.sent, counts.delivered)
                    .with_window(window_start, counts.bytes);
                if let Some(distance) = lan.receiver_distance(monitored.ids[0], now) {
                    sample = sample.with_distance(distance);
                }
                trace.push(TraceEvent::Sample {
                    lane,
                    time: now,
                    sent: counts.sent,
                    delivered: counts.delivered,
                    loss_rate: sample.loss_rate(),
                });

                let Some((adaptation, logged)) = adaptation.as_mut() else {
                    continue;
                };
                let actions = adaptation.ingest(&sample);
                for record in &adaptation.log()[*logged..] {
                    trace.push(TraceEvent::Observed {
                        lane,
                        time: record.time,
                        event: describe_event(&record.event),
                    });
                    for action in &record.actions {
                        trace.push(TraceEvent::ActionApplied {
                            lane,
                            time: record.time,
                            action: describe_action(action),
                        });
                    }
                }
                *logged = adaptation.log().len();
                if !actions.is_empty() {
                    // Residue flushed out of removed/replaced filters still
                    // has to reach the receivers (it completes their open
                    // blocks).
                    let residue = applier.apply(chain, &actions);
                    transmit_all(&mut lan, &mut lanes, &residue, now, spec.packets);
                    trace.push(TraceEvent::ChainReconfigured {
                        lane,
                        time: now,
                        filters: applier.filters(chain),
                    });
                }
            }
            window_start = now;
        }

        // End of stream: flush the head and every tail (e.g. a partial FEC
        // block); each lane's residue still has to cross its link.
        let final_time = SimTime::from_micros(spec.packets * spec.audio.packet_interval_us());
        let head_filters = applier.filters(Chain::Head);
        let lane_filters: Vec<Vec<String>> =
            (0..lanes.len()).map(|lane| applier.filters(Chain::Lane(lane))).collect();
        transmit_all(&mut lan, &mut lanes, &applier.finish(), final_time, spec.packets);

        // Final accounting: one record per receiver, in the trace form the
        // FEC site fixes.
        let mut report_lanes = Vec::with_capacity(lanes.len());
        let mut events = Vec::new();
        for (index, (lane, final_filters)) in lanes.iter().zip(lane_filters).enumerate() {
            let mut receivers = Vec::with_capacity(lane.receivers.len());
            for (receiver, state) in lane.receivers.iter().enumerate() {
                let (outcome, fates) = account(&state.received, &state.emitted, spec.packets);
                events.push(fates);
                trace.push(match spec.fec_site {
                    FecSite::Head => TraceEvent::ReceiverTotals {
                        receiver,
                        delivered: outcome.delivered,
                        recovered: outcome.recovered,
                        lost: outcome.lost,
                        undelivered: outcome.undelivered,
                    },
                    FecSite::Lanes => TraceEvent::LaneTotals {
                        lane: index,
                        name: spec.lanes[index].name.clone(),
                        delivered: outcome.delivered,
                        recovered: outcome.recovered,
                        lost: outcome.lost,
                        undelivered: outcome.undelivered,
                        parity_sent: lane.parity_sent,
                        final_filters: final_filters.clone(),
                    },
                });
                receivers.push(outcome);
            }
            report_lanes.push(LaneReport {
                receivers,
                parity_sent: lane.parity_sent,
                timeline: Vec::new(),
                final_filters,
            });
        }
        trace.push(match spec.fec_site {
            // Every lane carries the head's output unchanged, so each
            // transmitted the same parity.
            FecSite::Head => TraceEvent::RunSummary {
                source_packets: sent,
                parity_packets: lanes[0].parity_sent,
                final_filters: head_filters.clone(),
            },
            FecSite::Lanes => TraceEvent::FanoutSummary {
                source_packets: sent,
                head_filters: head_filters.clone(),
            },
        });

        // The timelines are exactly what replay extracts from the trace;
        // reuse it so the two can never disagree structurally.
        let replayed = trace.replay();
        for (lane, replayed) in report_lanes.iter_mut().zip(replayed.lanes) {
            lane.timeline = replayed.timeline;
        }
        let report = ScenarioReport {
            scenario: spec.name.clone(),
            seed: spec.seed,
            source_packets_sent: sent,
            timeline: replayed.timeline,
            head_filters,
            lanes: report_lanes,
            latency: applier.latency(),
        };
        ScenarioOutcome {
            report,
            trace,
            events,
        }
    }
}

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

/// Puts each lane's packets on the air, lane by lane (`per_lane` is in
/// lane order), starting at `start`.
fn transmit_all(
    lan: &mut WirelessLan,
    lanes: &mut [LaneState],
    per_lane: &[Vec<Packet>],
    start: SimTime,
    total_sources: u64,
) {
    for (lane, packets) in lanes.iter_mut().zip(per_lane) {
        transmit(lan, lane, packets, start, total_sources);
    }
}

/// Puts one lane's packets on the air, in order — each transmission
/// reaches every receiver of the lane — and routes the deliveries into the
/// receivers' decoders and bookkeeping.  Payload packets ride at their own
/// media timestamp; parity (and any other derived traffic) rides at the
/// timestamp of the payload that triggered it, which keeps timing
/// identical across appliers.
fn transmit(
    lan: &mut WirelessLan,
    lane: &mut LaneState,
    packets: &[Packet],
    start: SimTime,
    total_sources: u64,
) {
    let mut air_time = start;
    for packet in packets {
        let is_payload = packet.kind().is_payload();
        if is_payload {
            air_time = SimTime::from_micros(packet.timestamp_us());
            lane.window.sent += 1;
        } else if packet.kind().is_parity() {
            lane.parity_sent += 1;
        }
        let records = lan.transmit(&lane.ids, air_time, packet.wire_len());
        for (index, (state, record)) in lane.receivers.iter_mut().zip(&records).enumerate() {
            if !record.is_delivered() {
                continue;
            }
            if is_payload {
                state.received.insert(packet.seq().value());
                if index == 0 {
                    lane.window.delivered += 1;
                    lane.window.bytes += packet.payload_len() as u64;
                }
            }
            feed_decoders(packet, state, total_sources);
        }
    }
}

/// Feeds one delivered packet into a receiver's per-code FEC decoders and
/// records any reconstructed source payloads in its `emitted` set.  A
/// receiver with no decoders (FEC off) surfaces each delivered payload as
/// is.
///
/// Parity is routed to the decoder of its own code; payload feeds every
/// decoder (whichever has the block open uses it — duplicates are absorbed
/// by the `emitted` set).  Decode errors are tolerated, not dead code:
/// when adaptation re-inserts FEC mid-stream, block boundaries shift, and
/// a reconstruction attempted across the epoch boundary can fail
/// shard-framing validation (`FecError::CorruptPayload`).  The packet
/// still counts through the `received` set, and anything the decoder
/// emitted before the failure is kept — a bad reconstruction can only
/// surface as `lost`, never as a corrupted delivery.
fn feed_decoders(packet: &Packet, receiver: &mut ReceiverState, total_sources: u64) {
    let parity_code = match packet.kind() {
        rapidware_packet::PacketKind::Parity { k, n, .. } => {
            Some((usize::from(n), usize::from(k)))
        }
        _ => None,
    };
    let mut decoded: Vec<Packet> = Vec::new();
    if receiver.decoders.is_empty() {
        decoded.push(packet.clone());
    }
    for (code, decoder) in &mut receiver.decoders {
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
            receiver.emitted.insert(seq);
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
            ..ScenarioSpec::steady_wlan()
                .with_packets(200)
                .with_receivers(vec![LossRegime::Perfect, LossRegime::Perfect])
        };
        let outcome = ScenarioEngine::new(spec).run_sync();
        assert_eq!(outcome.report.source_packets_sent, 200);
        assert_eq!(outcome.report.parity_total(), 0, "no loss, no FEC");
        assert!(outcome.report.timeline.is_empty());
        for receiver in outcome.report.receivers() {
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
        assert!(outcome.report.parity_total() > 0);
        assert_eq!(outcome.report.undelivered_total(), 0);
        assert!(outcome.report.recovered_total() > 0, "FEC must repair some losses");
        assert!(outcome.report.converged());
        assert_eq!(outcome.trace.replay(), outcome.report);
    }

    /// Conformance for the latency extension, with FEC on the head and on
    /// each lane: the sync and pooled appliers report identical packet
    /// counts, both surface end-to-end percentiles, and latency never
    /// participates in report equality (replayed traces carry none).
    #[test]
    fn latency_percentiles_ride_along_without_breaking_report_identity() {
        for spec in [
            ScenarioSpec::handoff_cliff().with_packets(400),
            ScenarioSpec::wired_plus_lossy_wlan().with_packets(400),
        ] {
            let engine = ScenarioEngine::new(spec);
            let sync = engine.run_sync();
            let pooled = engine.run_pooled();

            assert_eq!(sync.report, pooled.report);
            assert_eq!(sync.report.lanes, pooled.report.lanes);
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
    }

    /// The shapes no built-in uses: FEC on the head serving two lanes, and
    /// per-lane FEC on a lane reaching two receivers.  Both replay into
    /// their report and agree across appliers.
    #[test]
    fn every_lane_shape_replays_and_agrees_across_appliers() {
        let lossy = LossRegime::Bernoulli { rate: 0.2 };
        let lanes = vec![
            LaneSpec::new("pair", vec![lossy.clone(), LossRegime::Perfect]),
            LaneSpec::wired("wired"),
        ];
        let head = ScenarioSpec {
            lanes,
            ..ScenarioSpec::handoff_cliff().with_packets(600)
        };
        let per_lane = ScenarioSpec {
            fec_site: FecSite::Lanes,
            ..head.clone()
        };
        for spec in [head, per_lane] {
            let engine = ScenarioEngine::new(spec.clone());
            let sync = engine.run_sync();
            assert_eq!(sync.trace.replay(), sync.report, "{:?}", spec.fec_site);
            assert_eq!(sync.events.len(), 3);
            let pooled = engine.run_pooled();
            assert_eq!(sync.trace.canonical_text(), pooled.trace.canonical_text());
            let parity: Vec<u64> = sync.report.lanes.iter().map(|l| l.parity_sent).collect();
            match spec.fec_site {
                // The head's parity crosses every lane.
                FecSite::Head => assert!(parity[0] > 0 && parity[0] == parity[1], "{parity:?}"),
                // Only the lossy lane's own loop inserts FEC.
                FecSite::Lanes => assert!(parity[0] > 0 && parity[1] == 0, "{parity:?}"),
            }
        }
    }

    #[test]
    fn degenerate_specs_return_typed_errors_instead_of_panicking() {
        let error = |spec: ScenarioSpec| ScenarioEngine::new(spec).try_run_sync().unwrap_err();
        let no_lanes = ScenarioSpec {
            lanes: Vec::new(),
            ..ScenarioSpec::all_wired()
        };
        assert_eq!(
            error(no_lanes),
            SpecError::NoLanes {
                scenario: "fanout-all-wired".into()
            }
        );
        assert_eq!(
            error(ScenarioSpec::steady_wlan().with_receivers(Vec::new())),
            SpecError::NoReceivers {
                scenario: "steady-wlan".into(),
                lane: "lan".into()
            }
        );
        assert_eq!(
            error(ScenarioSpec::steady_wlan().with_packets(0)),
            SpecError::ZeroPackets {
                scenario: "steady-wlan".into()
            }
        );

        let twins = ScenarioSpec {
            lanes: vec![LaneSpec::wired("twin"), LaneSpec::wired("twin")],
            ..ScenarioSpec::all_wired()
        };
        assert_eq!(
            twins.validate().unwrap_err(),
            SpecError::DuplicateLane {
                scenario: "fanout-all-wired".into(),
                lane: "twin".into()
            }
        );
        let empty_phases = ScenarioSpec {
            lanes: vec![LaneSpec::lossy("phased", LossRegime::Phased(Vec::new()))],
            ..ScenarioSpec::all_wired()
        };
        assert!(matches!(
            empty_phases.validate().unwrap_err(),
            SpecError::EmptyPhases { .. }
        ));

        // A head filter the registry cannot build is a typed error, not a
        // panic while the applier is built.
        for filter in [
            FilterSpec::new("no-such-kind"),
            FilterSpec::new("fec-encoder").with_param("n", "0").with_param("k", "0"),
        ] {
            let kind = filter.kind.clone();
            let bad_head = ScenarioSpec {
                head_filters: vec![filter],
                ..ScenarioSpec::all_wired()
            };
            let err = error(bad_head);
            assert!(
                matches!(&err, SpecError::InvalidHeadFilter { kind: k, .. } if *k == kind),
                "{err:?}"
            );
            assert!(err.to_string().contains(&format!("head filter {kind}")), "{err}");
        }

        for spec in ScenarioSpec::builtin_matrix() {
            assert_eq!(spec.validate(), Ok(()), "{} must validate", spec.name);
        }
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
            lanes: Vec::new(),
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
        broken.report.lanes[0].receivers[0].undelivered += 3;
        broken.report.lanes[0].receivers[0].delivered -= 3;
        broken.report.head_filters = vec!["fec-encoder(6,4)".to_string()];
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
        noisy.report.lanes[0].parity_sent = 7;
        assert!(noisy
            .health_problems(&quiet)
            .iter()
            .any(|p| p.contains("unexpected parity")));

        // Per-lane FEC: the full-length spec, since truncating it would end
        // the run inside the loss episode, before the cycle completes.
        let spec = ScenarioSpec::wired_plus_lossy_wlan();
        let healthy = ScenarioEngine::new(spec.clone()).run_sync();
        assert_eq!(healthy.health_problems(&spec), Vec::<String>::new());
        let mut broken = healthy.clone();
        broken.report.lanes[0].receivers[0].undelivered += 2;
        broken.report.lanes[0].receivers[0].delivered -= 2;
        broken.report.lanes[1].parity_sent = 5;
        broken.report.lanes[2].final_filters = vec!["fec-encoder(6,4)".to_string()];
        let problems = broken.health_problems(&spec);
        assert!(problems.iter().any(|p| p.contains("undelivered")), "{problems:?}");
        assert!(
            problems.iter().any(|p| p.contains("lane wired-1: unexpected parity")),
            "{problems:?}"
        );
        assert!(problems.iter().any(|p| p.contains("did not converge")), "{problems:?}");
        assert!(
            problems.iter().any(|p| p.contains("reproduce the report")),
            "{problems:?}"
        );
    }
}
