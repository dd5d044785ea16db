//! Replayable scenario traces.
//!
//! Every step of a closed-loop run — link samples, observer events, applied
//! actions, chain reconfigurations, final accounting — is appended to a
//! [`ScenarioTrace`] stamped in [`SimTime`].  Traces serve three purposes:
//!
//! 1. **Determinism evidence**: [`canonical_text`](ScenarioTrace::canonical_text)
//!    renders the trace into a stable byte representation, so two runs of
//!    the same spec and seed can be compared byte-for-byte.
//! 2. **Replay**: [`replay`](ScenarioTrace::replay) folds a recorded trace
//!    back into the [`ScenarioReport`] the live run produced, without
//!    re-simulating anything.
//! 3. **Debugging**: the text form is a readable timeline of what the
//!    control loop saw and did.

use std::fmt;

use rapidware_netsim::SimTime;
use rapidware_raplets::{AdaptationAction, AdaptationEvent};

use super::report::{LaneReport, ReceiverOutcome, ScenarioReport, TimelineEntry};

/// Renders an observer event in the trace's canonical form.
///
/// Rates are formatted with fixed precision: the values are deterministic
/// per seed, so fixed formatting makes the rendering deterministic too.
pub fn describe_event(event: &AdaptationEvent) -> String {
    match event {
        AdaptationEvent::LossRoseAbove { rate, threshold } => {
            format!("LossRoseAbove rate={rate:.6} threshold={threshold:.6}")
        }
        AdaptationEvent::LossFellBelow { rate, threshold } => {
            format!("LossFellBelow rate={rate:.6} threshold={threshold:.6}")
        }
        AdaptationEvent::ThroughputDropped {
            bits_per_second,
            floor_bps,
        } => format!("ThroughputDropped bps={bits_per_second} floor={floor_bps}"),
        AdaptationEvent::ThroughputRecovered {
            bits_per_second,
            floor_bps,
        } => format!("ThroughputRecovered bps={bits_per_second} floor={floor_bps}"),
    }
}

/// Renders an adaptation action in the trace's canonical form.
pub fn describe_action(action: &AdaptationAction) -> String {
    match action {
        AdaptationAction::Insert { position, spec } => format!("insert@{position} {spec}"),
        AdaptationAction::RemoveKind { kind } => format!("remove {kind}"),
        AdaptationAction::ReplaceKind { kind, spec } => format!("replace {kind} -> {spec}"),
    }
}

/// One recorded step of a closed-loop run.
///
/// The four loop steps carry the lane whose loop took them, or `None` for
/// the head loop ([`FecSite`](super::FecSite) decides which); a lane step
/// renders with a `lane=` prefix.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A link sample was taken on a monitored receiver.
    Sample {
        /// The lane whose loop sampled, or `None` for the head loop.
        lane: Option<usize>,
        /// End of the sample window.
        time: SimTime,
        /// Payload packets put on the air during the window.
        sent: u64,
        /// Payload packets the monitored receiver got.
        delivered: u64,
        /// The window's raw loss rate.
        loss_rate: f64,
    },
    /// An observer raised an adaptation event.
    Observed {
        /// The lane whose loop observed, or `None` for the head loop.
        lane: Option<usize>,
        /// When the triggering sample was observed.
        time: SimTime,
        /// Canonical event rendering (see [`describe_event`]).
        event: String,
    },
    /// An action was applied to a chain.
    ActionApplied {
        /// The lane whose tail took the action, or `None` for the head.
        lane: Option<usize>,
        /// When the action was applied.
        time: SimTime,
        /// Canonical action rendering (see [`describe_action`]).
        action: String,
    },
    /// A chain's installed filters after applying a batch of actions.
    ChainReconfigured {
        /// The lane whose tail changed, or `None` for the head.
        lane: Option<usize>,
        /// When the reconfiguration completed.
        time: SimTime,
        /// Installed filter names, in stream order.
        filters: Vec<String>,
    },
    /// Final accounting of one receiver of a run whose FEC acts on the
    /// head, recorded once at the end of the run.
    ReceiverTotals {
        /// Receiver index within its lane (0 opens the next lane).
        receiver: usize,
        /// Payload packets delivered directly over the network.
        delivered: u64,
        /// Payload packets reconstructed by FEC.
        recovered: u64,
        /// Payload packets neither delivered nor recovered.
        lost: u64,
        /// Payload packets the network delivered but the receiver pipeline
        /// failed to surface (must be zero in a healthy run).
        undelivered: u64,
    },
    /// Run-level totals of a run whose FEC acts on the head, recorded once
    /// at the end.
    RunSummary {
        /// Source payload packets transmitted.
        source_packets: u64,
        /// Parity packets each lane transmitted.
        parity_packets: u64,
        /// Filters still installed on the head when the run ended.
        final_filters: Vec<String>,
    },
    /// Final accounting of one receiver of a run whose FEC acts on each
    /// lane (one record per receiver the lane reaches).
    LaneTotals {
        /// Lane index in the spec.
        lane: usize,
        /// Lane name (from the spec).
        name: String,
        /// Payload packets delivered directly over this receiver's link.
        delivered: u64,
        /// Payload packets reconstructed by this receiver's FEC decoders.
        recovered: u64,
        /// Payload packets neither delivered nor recovered.
        lost: u64,
        /// Payload packets the link delivered but the lane pipeline failed
        /// to surface (must be zero in a healthy run).
        undelivered: u64,
        /// Parity packets this lane transmitted.
        parity_sent: u64,
        /// Tail filters still installed on this lane when the run ended.
        final_filters: Vec<String>,
    },
    /// Run-level totals of a run whose FEC acts on each lane, recorded once
    /// at the end.
    FanoutSummary {
        /// Source payload packets generated upstream of the head chain.
        source_packets: u64,
        /// Filters installed on the head chain when the run ended.
        head_filters: Vec<String>,
    },
}

impl TraceEvent {
    /// The loop step this event records, with its lane: observer events,
    /// applied actions and chain states, the entries of a timeline.
    fn step(&self) -> Option<(Option<usize>, TimelineEntry)> {
        let (lane, time, entry) = match self {
            TraceEvent::Observed { lane, time, event } => (lane, time, format!("event {event}")),
            TraceEvent::ActionApplied { lane, time, action } => {
                (lane, time, format!("action {action}"))
            }
            TraceEvent::ChainReconfigured { lane, time, filters } => {
                (lane, time, format!("chain {}", render_filters(filters)))
            }
            _ => return None,
        };
        Some((*lane, TimelineEntry { time: *time, entry }))
    }
}

/// The `[time] ` stamp of a loop step, plus `lane=i ` for a lane's loop.
fn stamp(f: &mut fmt::Formatter<'_>, time: SimTime, lane: Option<usize>) -> fmt::Result {
    write!(f, "[{time}] ")?;
    match lane {
        Some(lane) => write!(f, "lane={lane} "),
        None => Ok(()),
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Sample {
                lane,
                time,
                sent,
                delivered,
                loss_rate,
            } => {
                stamp(f, *time, *lane)?;
                write!(f, "sample sent={sent} delivered={delivered} loss={loss_rate:.6}")
            }
            TraceEvent::Observed { .. }
            | TraceEvent::ActionApplied { .. }
            | TraceEvent::ChainReconfigured { .. } => {
                let (lane, step) = self.step().expect("loop steps have a timeline entry");
                stamp(f, step.time, lane)?;
                f.write_str(&step.entry)
            }
            TraceEvent::ReceiverTotals {
                receiver,
                delivered,
                recovered,
                lost,
                undelivered,
            } => write!(
                f,
                "receiver={receiver} delivered={delivered} recovered={recovered} lost={lost} undelivered={undelivered}"
            ),
            TraceEvent::RunSummary {
                source_packets,
                parity_packets,
                final_filters,
            } => write!(
                f,
                "summary sources={source_packets} parity={parity_packets} final={}",
                render_filters(final_filters)
            ),
            TraceEvent::LaneTotals {
                lane,
                name,
                delivered,
                recovered,
                lost,
                undelivered,
                parity_sent,
                final_filters,
            } => write!(
                f,
                "lane={lane} name={name} delivered={delivered} recovered={recovered} lost={lost} undelivered={undelivered} parity={parity_sent} final={}",
                render_filters(final_filters)
            ),
            TraceEvent::FanoutSummary {
                source_packets,
                head_filters,
            } => write!(
                f,
                "fanout-summary sources={source_packets} head={}",
                render_filters(head_filters)
            ),
        }
    }
}

/// A chain's filter names as `a+b`, or `-` for an empty chain.
pub(super) fn render_filters(filters: &[String]) -> String {
    if filters.is_empty() {
        "-".to_string()
    } else {
        filters.join("+")
    }
}

/// The full, replayable record of one closed-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioTrace {
    scenario: String,
    seed: u64,
    events: Vec<TraceEvent>,
}

impl ScenarioTrace {
    /// Creates an empty trace for the named scenario and seed.
    pub fn new(scenario: impl Into<String>, seed: u64) -> Self {
        Self {
            scenario: scenario.into(),
            seed,
            events: Vec::new(),
        }
    }

    /// The scenario this trace records.
    pub fn scenario(&self) -> &str {
        &self.scenario
    }

    /// The simulator seed of the recorded run.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Appends one event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The canonical text rendering: one header line followed by one line
    /// per event.  Two runs are *identical* exactly when these bytes are.
    pub fn canonical_text(&self) -> String {
        let mut text = format!("scenario={} seed={}\n", self.scenario, self.seed);
        for event in &self.events {
            text.push_str(&event.to_string());
            text.push('\n');
        }
        text
    }

    /// A stable 64-bit digest of the canonical text (FNV-1a over its
    /// bytes).  Two traces digest equally exactly when
    /// [`canonical_text`](Self::canonical_text) matches byte for byte, so
    /// harnesses that compare many runs (the generated-conformance suite,
    /// the seed corpus) can log and diff compact hex digests instead of
    /// whole traces.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        for byte in self.canonical_text().as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(PRIME);
        }
        hash
    }

    /// Folds the recorded trace back into the report of the run that
    /// produced it, without re-simulating: the head and lane timelines come
    /// from the loop steps, per-receiver totals from the
    /// [`TraceEvent::ReceiverTotals`] or [`TraceEvent::LaneTotals`]
    /// records, and run totals and final chains from
    /// [`TraceEvent::RunSummary`] or [`TraceEvent::FanoutSummary`].
    /// Replaying a run's trace yields a report equal to the run's report.
    pub fn replay(&self) -> ScenarioReport {
        let mut report = ScenarioReport {
            scenario: self.scenario.clone(),
            seed: self.seed,
            source_packets_sent: 0,
            timeline: Vec::new(),
            head_filters: Vec::new(),
            lanes: Vec::new(),
            // Traces record packet accounting, not wall-clock timing, so a
            // replayed report never carries latency (and equality with the
            // run's report ignores the field).
            latency: None,
        };
        let new_lane = |parity_sent: u64, final_filters: &[String]| LaneReport {
            receivers: Vec::new(),
            parity_sent,
            timeline: Vec::new(),
            final_filters: final_filters.to_vec(),
        };
        let mut lane_steps = Vec::new();
        for event in &self.events {
            if let Some((lane, step)) = event.step() {
                match lane {
                    Some(lane) => lane_steps.push((lane, step)),
                    None => report.timeline.push(step),
                }
                continue;
            }
            match event {
                TraceEvent::ReceiverTotals {
                    receiver,
                    delivered,
                    recovered,
                    lost,
                    undelivered,
                } => {
                    if *receiver == 0 || report.lanes.is_empty() {
                        report.lanes.push(new_lane(0, &[]));
                    }
                    report.lanes.last_mut().expect("a lane was opened").receivers.push(
                        ReceiverOutcome {
                            delivered: *delivered,
                            recovered: *recovered,
                            lost: *lost,
                            undelivered: *undelivered,
                        },
                    );
                }
                TraceEvent::RunSummary {
                    source_packets,
                    parity_packets,
                    final_filters,
                } => {
                    report.source_packets_sent = *source_packets;
                    report.head_filters = final_filters.clone();
                    for lane in &mut report.lanes {
                        lane.parity_sent = *parity_packets;
                    }
                }
                TraceEvent::LaneTotals {
                    lane,
                    delivered,
                    recovered,
                    lost,
                    undelivered,
                    parity_sent,
                    final_filters,
                    ..
                } => {
                    if *lane >= report.lanes.len() {
                        report.lanes.push(new_lane(*parity_sent, final_filters));
                    }
                    report.lanes.last_mut().expect("a lane was opened").receivers.push(
                        ReceiverOutcome {
                            delivered: *delivered,
                            recovered: *recovered,
                            lost: *lost,
                            undelivered: *undelivered,
                        },
                    );
                }
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
        for (lane, step) in lane_steps {
            if let Some(lane) = report.lanes.get_mut(lane) {
                lane.timeline.push(step);
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidware_proxy::FilterSpec;

    fn sample_trace() -> ScenarioTrace {
        let mut trace = ScenarioTrace::new("unit", 7);
        trace.push(TraceEvent::Sample {
            lane: None,
            time: SimTime::from_secs(1),
            sent: 50,
            delivered: 40,
            loss_rate: 0.2,
        });
        trace.push(TraceEvent::Observed {
            lane: None,
            time: SimTime::from_secs(1),
            event: describe_event(&AdaptationEvent::LossRoseAbove {
                rate: 0.2,
                threshold: 0.02,
            }),
        });
        trace.push(TraceEvent::ActionApplied {
            lane: None,
            time: SimTime::from_secs(1),
            action: describe_action(&AdaptationAction::Insert {
                position: 0,
                spec: FilterSpec::new("fec-encoder").with_param("n", "6").with_param("k", "4"),
            }),
        });
        trace.push(TraceEvent::ChainReconfigured {
            lane: None,
            time: SimTime::from_secs(1),
            filters: vec!["fec-encoder(6,4)".to_string()],
        });
        trace.push(TraceEvent::ReceiverTotals {
            receiver: 0,
            delivered: 40,
            recovered: 9,
            lost: 1,
            undelivered: 0,
        });
        trace.push(TraceEvent::RunSummary {
            source_packets: 50,
            parity_packets: 10,
            final_filters: Vec::new(),
        });
        trace
    }

    #[test]
    fn canonical_text_is_stable_and_readable() {
        let text = sample_trace().canonical_text();
        assert!(text.starts_with("scenario=unit seed=7\n"));
        assert!(text.contains("[1.000000s] sample sent=50 delivered=40 loss=0.200000"));
        assert!(text.contains("event LossRoseAbove rate=0.200000 threshold=0.020000"));
        assert!(text.contains("action insert@0 fec-encoder k=4 n=6"));
        assert!(text.contains("chain fec-encoder(6,4)"));
        assert!(text.contains("summary sources=50 parity=10 final=-"));
        assert_eq!(text, sample_trace().canonical_text(), "rendering is deterministic");
    }

    #[test]
    fn replay_reconstructs_the_report() {
        let trace = sample_trace();
        let report = trace.replay();
        assert_eq!(report.scenario, "unit");
        assert_eq!(report.seed, 7);
        assert_eq!(report.source_packets_sent, 50);
        assert_eq!(report.lanes.len(), 1);
        assert_eq!(report.lanes[0].parity_sent, 10);
        assert_eq!(report.lanes[0].receivers.len(), 1);
        assert_eq!(report.lanes[0].receivers[0].recovered, 9);
        assert_eq!(report.timeline.len(), 3, "sample and totals are not timeline entries");
        assert!(report.head_filters.is_empty());
        assert_eq!(trace.replay(), report, "replay is deterministic");
    }

    #[test]
    fn digest_tracks_canonical_text_byte_identity() {
        let trace = sample_trace();
        assert_eq!(trace.digest(), sample_trace().digest(), "digest is deterministic");
        let mut other = sample_trace();
        other.push(TraceEvent::Observed {
            lane: None,
            time: SimTime::from_secs(2),
            event: "extra".into(),
        });
        assert_ne!(trace.digest(), other.digest(), "any extra byte changes the digest");
        // Known-answer check so the digest can never silently change
        // algorithm: FNV-1a of the empty trace header.
        let empty = ScenarioTrace::new("d", 0);
        let mut expected = 0xcbf2_9ce4_8422_2325u64;
        for byte in empty.canonical_text().as_bytes() {
            expected ^= u64::from(*byte);
            expected = expected.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(empty.digest(), expected);
    }

    #[test]
    fn action_descriptions_cover_every_variant() {
        assert_eq!(
            describe_action(&AdaptationAction::RemoveKind {
                kind: "fec-encoder".into()
            }),
            "remove fec-encoder"
        );
        assert!(describe_action(&AdaptationAction::ReplaceKind {
            kind: "fec-encoder".into(),
            spec: FilterSpec::new("fec-encoder").with_param("n", "8"),
        })
        .starts_with("replace fec-encoder -> fec-encoder"));
        assert!(describe_event(&AdaptationEvent::ThroughputDropped {
            bits_per_second: 1,
            floor_bps: 2
        })
        .contains("ThroughputDropped"));
        assert!(describe_event(&AdaptationEvent::ThroughputRecovered {
            bits_per_second: 3,
            floor_bps: 2
        })
        .contains("ThroughputRecovered"));
        assert!(describe_event(&AdaptationEvent::LossFellBelow {
            rate: 0.0,
            threshold: 0.005
        })
        .contains("LossFellBelow"));
    }
}
