//! Results of a closed-loop scenario run.

use std::fmt;

use rapidware_netsim::SimTime;
use rapidware_proxy::{HistogramSnapshot, TelemetrySnapshot};

use super::trace::render_filters;

/// One timestamped entry of the adaptation timeline (an observer event, an
/// applied action, or the resulting chain configuration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEntry {
    /// When the step happened.
    pub time: SimTime,
    /// Canonical rendering of the step (`event …`, `action …`, `chain …`).
    pub entry: String,
}

impl fmt::Display for TimelineEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.time, self.entry)
    }
}

/// Final packet accounting for one receiver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceiverOutcome {
    /// Source packets delivered directly over the network.
    pub delivered: u64,
    /// Source packets lost on the air but reconstructed by FEC.
    pub recovered: u64,
    /// Source packets neither delivered nor recovered.
    pub lost: u64,
    /// Source packets the network delivered but the receiver pipeline never
    /// surfaced.  A healthy run has zero: every non-lost data packet must
    /// reach the application.
    pub undelivered: u64,
}

impl ReceiverOutcome {
    /// Fraction of source packets available to the application (delivered
    /// or recovered), in `[0, 1]`.  Every source packet falls into exactly
    /// one of the four buckets, so undelivered packets count against
    /// availability — a broken receiver pipeline lowers this number rather
    /// than hiding behind it.
    pub fn availability(&self) -> f64 {
        let total = self.delivered + self.recovered + self.lost + self.undelivered;
        if total == 0 {
            1.0
        } else {
            (self.delivered + self.recovered) as f64 / total as f64
        }
    }
}

/// End-to-end latency percentiles observed by an applier's telemetry
/// spans: wall-clock time from chain ingress to chain egress.
///
/// Latency is *observational*: it depends on the host, the scheduler, and
/// the applier's runtime, so — unlike the packet accounting — it is
/// **excluded from report equality**.  Two runs that differ only in
/// latency compare equal, which is what keeps the sync/pooled
/// byte-identity and trace-replay invariants intact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Packets timed end-to-end.
    pub count: u64,
    /// Median ingress-to-egress latency, in nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile ingress-to-egress latency, in nanoseconds.
    pub p99_ns: u64,
}

impl LatencySummary {
    /// Summarises one end-to-end histogram; `None` if nothing was timed.
    pub fn from_histogram(histogram: &HistogramSnapshot) -> Option<Self> {
        if histogram.is_empty() {
            return None;
        }
        Some(Self {
            count: histogram.count(),
            p50_ns: histogram.percentile(0.50),
            p99_ns: histogram.percentile(0.99),
        })
    }

    /// Summarises every end-to-end span in a telemetry snapshot (all
    /// histograms named `*.e2e_ns`, merged); `None` if nothing was timed.
    pub fn from_snapshot(snapshot: &TelemetrySnapshot) -> Option<Self> {
        let mut merged = HistogramSnapshot::default();
        for (name, histogram) in &snapshot.histograms {
            if name.ends_with(".e2e_ns") {
                merged.merge(histogram);
            }
        }
        Self::from_histogram(&merged)
    }
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p50={}ns p99={}ns over {} packets",
            self.p50_ns, self.p99_ns, self.count
        )
    }
}

/// Final accounting for one egress lane of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneReport {
    /// Delivery accounting per receiver the lane reaches, in spec order.
    pub receivers: Vec<ReceiverOutcome>,
    /// Parity packets this lane transmitted.
    pub parity_sent: u64,
    /// This lane's own adaptation steps (empty when FEC acts on the head).
    pub timeline: Vec<TimelineEntry>,
    /// Tail filters still installed on this lane when the run ended.
    pub final_filters: Vec<String>,
}

impl LaneReport {
    /// `true` if this lane's own timeline shows a FEC insertion followed
    /// by its removal.
    pub fn fec_inserted_then_removed(&self) -> bool {
        inserted_then_removed(&self.timeline)
    }
}

/// `true` if the first FEC insertion in `steps` precedes the first removal.
pub(super) fn inserted_then_removed(steps: &[TimelineEntry]) -> bool {
    let insert = steps.iter().position(is_fec_insert);
    let remove = steps.iter().position(is_fec_remove);
    matches!((insert, remove), (Some(i), Some(r)) if i < r)
}

fn is_fec_insert(step: &TimelineEntry) -> bool {
    step.entry.starts_with("action insert") && step.entry.contains("fec-encoder")
}

fn is_fec_remove(step: &TimelineEntry) -> bool {
    step.entry.starts_with("action remove fec-encoder")
}

/// The outcome of one closed-loop scenario run: per-lane delivery
/// accounting plus the adaptation timelines.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name (from the spec).
    pub scenario: String,
    /// Simulator seed of the run.
    pub seed: u64,
    /// Source payload packets generated upstream of the head chain.
    pub source_packets_sent: u64,
    /// The head loop's observer events, applied actions and chain
    /// reconfigurations, in order (empty when FEC acts on each lane).
    pub timeline: Vec<TimelineEntry>,
    /// Filters installed on the head chain when the run ended.
    pub head_filters: Vec<String>,
    /// Per-lane accounting, in spec order.
    pub lanes: Vec<LaneReport>,
    /// End-to-end latency percentiles (head ingress to lane egress, all
    /// lanes merged), when the applier was instrumented with telemetry
    /// spans.  Excluded from `PartialEq`: latency is host- and
    /// scheduler-dependent, while the rest of the report is deterministic
    /// given the seed.
    pub latency: Option<LatencySummary>,
}

impl PartialEq for ScenarioReport {
    fn eq(&self, other: &Self) -> bool {
        // `latency` is deliberately omitted: replayed traces carry no
        // timing, and cross-applier byte-identity must not depend on
        // wall-clock measurements.
        self.scenario == other.scenario
            && self.seed == other.seed
            && self.source_packets_sent == other.source_packets_sent
            && self.timeline == other.timeline
            && self.head_filters == other.head_filters
            && self.lanes == other.lanes
    }
}

impl ScenarioReport {
    /// Every receiver's accounting, lane by lane — the order
    /// [`ScenarioOutcome::events`](super::ScenarioOutcome::events) uses.
    pub fn receivers(&self) -> impl Iterator<Item = &ReceiverOutcome> {
        self.lanes.iter().flat_map(|lane| &lane.receivers)
    }

    /// Total packets the network delivered but receivers failed to surface,
    /// across all receivers.  Must be zero in a healthy run.
    pub fn undelivered_total(&self) -> u64 {
        self.receivers().map(|r| r.undelivered).sum()
    }

    /// Total packets lost beyond recovery, across all receivers.
    pub fn lost_total(&self) -> u64 {
        self.receivers().map(|r| r.lost).sum()
    }

    /// Total packets recovered by FEC, across all receivers.
    pub fn recovered_total(&self) -> u64 {
        self.receivers().map(|r| r.recovered).sum()
    }

    /// Parity packets transmitted, across all lanes.
    pub fn parity_total(&self) -> u64 {
        self.lanes.iter().map(|lane| lane.parity_sent).sum()
    }

    /// FEC overhead: parity packets sent per source packet sent (0.5 for
    /// FEC(6,4) over whole blocks on one lane).
    pub fn parity_overhead(&self) -> f64 {
        if self.source_packets_sent == 0 {
            0.0
        } else {
            self.parity_total() as f64 / self.source_packets_sent as f64
        }
    }

    /// `true` if no FEC encoder is left on the head or on any lane (the
    /// expected end state when every link finishes clean).
    pub fn converged(&self) -> bool {
        std::iter::once(&self.head_filters)
            .chain(self.lanes.iter().map(|lane| &lane.final_filters))
            .flatten()
            .all(|name| !name.starts_with("fec-encoder"))
    }

    /// `true` if the head timeline shows at least one FEC insertion.
    pub fn fec_was_inserted(&self) -> bool {
        self.timeline.iter().any(is_fec_insert)
    }

    /// `true` if the head timeline shows the FEC encoder being removed.
    pub fn fec_was_removed(&self) -> bool {
        self.timeline.iter().any(is_fec_remove)
    }

    /// `true` if the head loop's first FEC insertion precedes its first
    /// removal — i.e. it inserted FEC in response to the spike and took it
    /// out after recovery, in that order.
    pub fn fec_inserted_then_removed(&self) -> bool {
        inserted_then_removed(&self.timeline)
    }
}

impl fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (seed {}): {} source + {} parity packets, {} head adaptation steps, head {}",
            self.scenario,
            self.seed,
            self.source_packets_sent,
            self.parity_total(),
            self.timeline.len(),
            render_filters(&self.head_filters)
        )?;
        for (index, lane) in self.lanes.iter().enumerate() {
            write!(
                f,
                "\n  lane {index}: parity={} steps={} final={}",
                lane.parity_sent,
                lane.timeline.len(),
                render_filters(&lane.final_filters)
            )?;
            for (receiver, outcome) in lane.receivers.iter().enumerate() {
                write!(
                    f,
                    "\n    receiver-{receiver}: delivered={} recovered={} lost={} undelivered={} availability={:.2}%",
                    outcome.delivered,
                    outcome.recovered,
                    outcome.lost,
                    outcome.undelivered,
                    outcome.availability() * 100.0
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ScenarioReport {
        ScenarioReport {
            scenario: "unit".into(),
            seed: 1,
            source_packets_sent: 100,
            timeline: vec![
                TimelineEntry {
                    time: SimTime::from_secs(2),
                    entry: "event LossRoseAbove rate=0.100000 threshold=0.020000".into(),
                },
                TimelineEntry {
                    time: SimTime::from_secs(2),
                    entry: "action insert@0 fec-encoder k=4 n=6".into(),
                },
                TimelineEntry {
                    time: SimTime::from_secs(9),
                    entry: "action remove fec-encoder".into(),
                },
            ],
            head_filters: Vec::new(),
            lanes: vec![LaneReport {
                receivers: vec![
                    ReceiverOutcome {
                        delivered: 90,
                        recovered: 8,
                        lost: 2,
                        undelivered: 0,
                    },
                    ReceiverOutcome {
                        delivered: 100,
                        recovered: 0,
                        lost: 0,
                        undelivered: 0,
                    },
                ],
                parity_sent: 20,
                timeline: Vec::new(),
                final_filters: Vec::new(),
            }],
            latency: None,
        }
    }

    #[test]
    fn totals_and_flags() {
        let report = report();
        assert_eq!(report.undelivered_total(), 0);
        assert_eq!(report.lost_total(), 2);
        assert_eq!(report.recovered_total(), 8);
        assert!((report.parity_overhead() - 0.2).abs() < 1e-9);
        assert!(report.converged());
        assert!(report.fec_was_inserted());
        assert!(report.fec_was_removed());
        assert!(report.fec_inserted_then_removed());
        assert!((report.lanes[0].receivers[0].availability() - 0.98).abs() < 1e-9);
        assert!((report.lanes[0].receivers[1].availability() - 1.0).abs() < 1e-9);
        let mut leftover = report.clone();
        leftover.lanes[0].final_filters = vec!["fec-encoder(6,4)".into()];
        assert!(!leftover.converged(), "an encoder left on a lane is not converged");
    }

    #[test]
    fn remove_before_insert_does_not_count_as_the_paper_shape() {
        let mut report = report();
        report.timeline.reverse();
        assert!(report.fec_was_inserted());
        assert!(!report.fec_inserted_then_removed());
    }

    #[test]
    fn display_summarises_the_run() {
        let text = report().to_string();
        assert!(text.contains("unit (seed 1)"));
        assert!(text.contains("receiver-0"));
        assert!(text.contains("head -"));
        assert!(text.contains("lane 0: parity=20 steps=0 final=-"));
        assert!((ReceiverOutcome::default().availability() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn undelivered_packets_count_against_availability() {
        // A broken pipeline (90 of 100 packets stuck) must read as 5%
        // availability, not as the 50% a lost-only denominator would claim.
        let broken = ReceiverOutcome {
            delivered: 5,
            recovered: 0,
            lost: 5,
            undelivered: 90,
        };
        assert!((broken.availability() - 0.05).abs() < 1e-9);
    }
}
