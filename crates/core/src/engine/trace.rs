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

use super::report::{ReceiverOutcome, ScenarioReport, TimelineEntry};

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
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A link sample was taken on the monitored receiver.
    Sample {
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
        /// When the triggering sample was observed.
        time: SimTime,
        /// Canonical event rendering (see [`describe_event`]).
        event: String,
    },
    /// An action was applied to the chain.
    ActionApplied {
        /// When the action was applied.
        time: SimTime,
        /// Canonical action rendering (see [`describe_action`]).
        action: String,
    },
    /// The chain's installed filters after applying a batch of actions.
    ChainReconfigured {
        /// When the reconfiguration completed.
        time: SimTime,
        /// Installed filter names, in stream order.
        filters: Vec<String>,
    },
    /// Final per-receiver accounting, recorded once at the end of the run.
    ReceiverTotals {
        /// Receiver index in the spec's topology.
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
    /// Run-level totals, recorded once at the end of the run.
    RunSummary {
        /// Source payload packets transmitted.
        source_packets: u64,
        /// Parity packets transmitted.
        parity_packets: u64,
        /// Filters still installed when the run ended.
        final_filters: Vec<String>,
    },
    /// A link sample was taken on one receiver lane of a fanout run.
    LaneSample {
        /// Lane index in the fanout spec.
        lane: usize,
        /// End of the sample window.
        time: SimTime,
        /// Payload packets this lane put on the air during the window.
        sent: u64,
        /// Payload packets this lane's receiver got during the window.
        delivered: u64,
        /// The window's raw loss rate on this lane.
        loss_rate: f64,
    },
    /// A lane's observer raised an adaptation event.
    LaneObserved {
        /// Lane index in the fanout spec.
        lane: usize,
        /// When the triggering sample was observed.
        time: SimTime,
        /// Canonical event rendering (see [`describe_event`]).
        event: String,
    },
    /// An action was applied to one lane's tail chain.
    LaneActionApplied {
        /// Lane index in the fanout spec.
        lane: usize,
        /// When the action was applied.
        time: SimTime,
        /// Canonical action rendering (see [`describe_action`]).
        action: String,
    },
    /// One lane's tail chain after applying a batch of actions.
    LaneChainReconfigured {
        /// Lane index in the fanout spec.
        lane: usize,
        /// When the reconfiguration completed.
        time: SimTime,
        /// Installed tail filter names, in stream order.
        filters: Vec<String>,
    },
    /// Final accounting for one receiver lane of a fanout run.
    LaneTotals {
        /// Lane index in the fanout spec.
        lane: usize,
        /// Lane name (from the spec).
        name: String,
        /// Payload packets delivered directly over this lane's link.
        delivered: u64,
        /// Payload packets reconstructed by this lane's FEC decoders.
        recovered: u64,
        /// Payload packets neither delivered nor recovered on this lane.
        lost: u64,
        /// Payload packets the link delivered but the lane pipeline failed
        /// to surface (must be zero in a healthy run).
        undelivered: u64,
        /// Parity packets this lane transmitted.
        parity_sent: u64,
        /// Tail filters still installed on this lane when the run ended.
        final_filters: Vec<String>,
    },
    /// Run-level totals of a fanout run, recorded once at the end.
    FanoutSummary {
        /// Source payload packets generated upstream of the head chain.
        source_packets: u64,
        /// Filters installed on the shared head chain when the run ended.
        head_filters: Vec<String>,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Sample {
                time,
                sent,
                delivered,
                loss_rate,
            } => write!(f, "[{time}] sample sent={sent} delivered={delivered} loss={loss_rate:.6}"),
            TraceEvent::Observed { time, event } => write!(f, "[{time}] event {event}"),
            TraceEvent::ActionApplied { time, action } => write!(f, "[{time}] action {action}"),
            TraceEvent::ChainReconfigured { time, filters } => {
                write!(f, "[{time}] chain {}", render_filters(filters))
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
            TraceEvent::LaneSample {
                lane,
                time,
                sent,
                delivered,
                loss_rate,
            } => write!(
                f,
                "[{time}] lane={lane} sample sent={sent} delivered={delivered} loss={loss_rate:.6}"
            ),
            TraceEvent::LaneObserved { lane, time, event } => {
                write!(f, "[{time}] lane={lane} event {event}")
            }
            TraceEvent::LaneActionApplied { lane, time, action } => {
                write!(f, "[{time}] lane={lane} action {action}")
            }
            TraceEvent::LaneChainReconfigured { lane, time, filters } => {
                write!(f, "[{time}] lane={lane} chain {}", render_filters(filters))
            }
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

fn render_filters(filters: &[String]) -> String {
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

    /// The adaptation timeline: every observer event, applied action, and
    /// chain reconfiguration, in order, with timestamps.  This is the
    /// subsequence that must match between the sync and live appliers.
    pub fn adaptation_timeline(&self) -> Vec<TimelineEntry> {
        self.events
            .iter()
            .filter_map(|event| match event {
                TraceEvent::Observed { time, event } => Some(TimelineEntry {
                    time: *time,
                    entry: format!("event {event}"),
                }),
                TraceEvent::ActionApplied { time, action } => Some(TimelineEntry {
                    time: *time,
                    entry: format!("action {action}"),
                }),
                TraceEvent::ChainReconfigured { time, filters } => Some(TimelineEntry {
                    time: *time,
                    entry: format!("chain {}", render_filters(filters)),
                }),
                _ => None,
            })
            .collect()
    }

    /// Folds the recorded trace back into the report of the run that
    /// produced it, without re-simulating: per-receiver totals come from
    /// the [`TraceEvent::ReceiverTotals`] records, run totals and the final
    /// chain from [`TraceEvent::RunSummary`], and the timeline from the
    /// observer/action/chain events.  Replaying a live run's trace yields a
    /// report equal to the live report.
    pub fn replay(&self) -> ScenarioReport {
        let mut report = ScenarioReport {
            scenario: self.scenario.clone(),
            seed: self.seed,
            source_packets_sent: 0,
            parity_packets_sent: 0,
            receivers: Vec::new(),
            timeline: self.adaptation_timeline(),
            final_filters: Vec::new(),
            // Traces record packet accounting, not wall-clock timing, so a
            // replayed report never carries latency (and equality with the
            // live report ignores the field).
            latency: None,
        };
        for event in &self.events {
            match event {
                TraceEvent::ReceiverTotals {
                    delivered,
                    recovered,
                    lost,
                    undelivered,
                    ..
                } => report.receivers.push(ReceiverOutcome {
                    delivered: *delivered,
                    recovered: *recovered,
                    lost: *lost,
                    undelivered: *undelivered,
                }),
                TraceEvent::RunSummary {
                    source_packets,
                    parity_packets,
                    final_filters,
                } => {
                    report.source_packets_sent = *source_packets;
                    report.parity_packets_sent = *parity_packets;
                    report.final_filters = final_filters.clone();
                }
                _ => {}
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
            time: SimTime::from_secs(1),
            sent: 50,
            delivered: 40,
            loss_rate: 0.2,
        });
        trace.push(TraceEvent::Observed {
            time: SimTime::from_secs(1),
            event: describe_event(&AdaptationEvent::LossRoseAbove {
                rate: 0.2,
                threshold: 0.02,
            }),
        });
        trace.push(TraceEvent::ActionApplied {
            time: SimTime::from_secs(1),
            action: describe_action(&AdaptationAction::Insert {
                position: 0,
                spec: FilterSpec::new("fec-encoder").with_param("n", "6").with_param("k", "4"),
            }),
        });
        trace.push(TraceEvent::ChainReconfigured {
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
        assert_eq!(report.parity_packets_sent, 10);
        assert_eq!(report.receivers.len(), 1);
        assert_eq!(report.receivers[0].recovered, 9);
        assert_eq!(report.timeline.len(), 3, "sample and totals are not timeline entries");
        assert!(report.final_filters.is_empty());
        assert_eq!(trace.replay(), report, "replay is deterministic");
    }

    #[test]
    fn digest_tracks_canonical_text_byte_identity() {
        let trace = sample_trace();
        assert_eq!(trace.digest(), sample_trace().digest(), "digest is deterministic");
        let mut other = sample_trace();
        other.push(TraceEvent::Observed {
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
