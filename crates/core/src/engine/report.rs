//! Results of a closed-loop scenario run.

use std::fmt;

use rapidware_netsim::SimTime;
use rapidware_proxy::{HistogramSnapshot, TelemetrySnapshot};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// The outcome of one closed-loop scenario run: delivery accounting plus
/// the adaptation timeline.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name (from the spec).
    pub scenario: String,
    /// Simulator seed of the run.
    pub seed: u64,
    /// Source payload packets transmitted.
    pub source_packets_sent: u64,
    /// Parity packets transmitted.
    pub parity_packets_sent: u64,
    /// Per-receiver accounting, in topology order.
    pub receivers: Vec<ReceiverOutcome>,
    /// Every observer event, applied action, and chain reconfiguration, in
    /// order.
    pub timeline: Vec<TimelineEntry>,
    /// Filters still installed on the sender chain when the run ended.
    pub final_filters: Vec<String>,
    /// End-to-end latency percentiles, when the applier was instrumented
    /// with telemetry spans.  Excluded from `PartialEq`: latency is host-
    /// and scheduler-dependent, while the rest of the report is
    /// deterministic given the seed.
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
            && self.parity_packets_sent == other.parity_packets_sent
            && self.receivers == other.receivers
            && self.timeline == other.timeline
            && self.final_filters == other.final_filters
    }
}

impl ScenarioReport {
    /// Total packets the network delivered but receivers failed to surface,
    /// across all receivers.  Must be zero in a healthy run.
    pub fn undelivered_total(&self) -> u64 {
        self.receivers.iter().map(|r| r.undelivered).sum()
    }

    /// Total packets lost beyond recovery, across all receivers.
    pub fn lost_total(&self) -> u64 {
        self.receivers.iter().map(|r| r.lost).sum()
    }

    /// Total packets recovered by FEC, across all receivers.
    pub fn recovered_total(&self) -> u64 {
        self.receivers.iter().map(|r| r.recovered).sum()
    }

    /// `true` if the chain converged back to empty by the end of the run
    /// (the expected end state when the link finishes clean).
    pub fn converged(&self) -> bool {
        self.final_filters.is_empty()
    }

    /// `true` if the timeline shows at least one FEC insertion.
    pub fn fec_was_inserted(&self) -> bool {
        self.timeline
            .iter()
            .any(|t| t.entry.starts_with("action insert") && t.entry.contains("fec-encoder"))
    }

    /// `true` if the timeline shows the FEC encoder being removed again.
    pub fn fec_was_removed(&self) -> bool {
        self.timeline
            .iter()
            .any(|t| t.entry.starts_with("action remove fec-encoder"))
    }

    /// `true` if the first FEC insertion precedes the first removal — i.e.
    /// the loop inserted FEC in response to the spike and took it out after
    /// recovery, in that order.
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

impl fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} (seed {}): {} source + {} parity packets, {} adaptation steps",
            self.scenario,
            self.seed,
            self.source_packets_sent,
            self.parity_packets_sent,
            self.timeline.len()
        )?;
        for (index, receiver) in self.receivers.iter().enumerate() {
            writeln!(
                f,
                "  receiver-{index}: delivered={} recovered={} lost={} undelivered={} availability={:.2}%",
                receiver.delivered,
                receiver.recovered,
                receiver.lost,
                receiver.undelivered,
                receiver.availability() * 100.0
            )?;
        }
        write!(
            f,
            "  final chain: {}",
            if self.final_filters.is_empty() {
                "-".to_string()
            } else {
                self.final_filters.join("+")
            }
        )
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
            parity_packets_sent: 20,
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
            final_filters: Vec::new(),
            latency: None,
        }
    }

    #[test]
    fn totals_and_flags() {
        let report = report();
        assert_eq!(report.undelivered_total(), 0);
        assert_eq!(report.lost_total(), 2);
        assert_eq!(report.recovered_total(), 8);
        assert!(report.converged());
        assert!(report.fec_was_inserted());
        assert!(report.fec_was_removed());
        assert!(report.fec_inserted_then_removed());
        assert!((report.receivers[0].availability() - 0.98).abs() < 1e-9);
        assert!((report.receivers[1].availability() - 1.0).abs() < 1e-9);
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
        assert!(text.contains("final chain: -"));
        let empty = ReceiverOutcome {
            delivered: 0,
            recovered: 0,
            lost: 0,
            undelivered: 0,
        };
        assert!((empty.availability() - 1.0).abs() < 1e-9);
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
