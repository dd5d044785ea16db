//! The fanout built-ins: one source, a shared head chain, N heterogeneous
//! receiver lanes, each with its own closed adaptation loop.
//!
//! The one-lane multicast built-ins adapt *one* head chain that every
//! receiver shares — the paper's multicast argument, where clean receivers
//! absorb the parity inserted for a lossy sibling.  These scenarios model
//! the heterogeneous alternative ([`FecSite::Lanes`](super::FecSite::Lanes)):
//! the head chain does
//! the work every receiver shares exactly once, then each receiver lane
//! runs its **own** tail chain, its own loss model, and its own
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
//! ```
//! use rapidware::engine::{ScenarioEngine, ScenarioSpec};
//!
//! let spec = ScenarioSpec::wired_plus_lossy_wlan().with_packets(400);
//! let outcome = ScenarioEngine::new(spec).run_sync();
//! // Every lane surfaced every non-lost packet...
//! assert_eq!(outcome.report.undelivered_total(), 0);
//! // ...and only the lossy lane ever carried parity.
//! assert!(outcome.report.lanes.iter().skip(1).all(|lane| lane.parity_sent == 0));
//! ```

use rapidware_netsim::SimTime;
use rapidware_proxy::FilterSpec;

use super::spec::{LaneSpec, LossRegime, ScenarioSpec};

impl ScenarioSpec {
    /// The fanout acceptance scenario: one lossy WLAN receiver among three
    /// wired peers.  All four lanes run the same adaptation loop; only the
    /// lossy lane's loop fires, so FEC parity appears on exactly one lane
    /// while the wired lanes carry the raw stream untouched.
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
        Self::fanout_base("fanout-wired-plus-lossy-wlan", 2_200, lanes)
    }

    /// Two wireless lanes of different severity beside a wired lane: the
    /// heavy lane should reach the strong FEC tier, the light lane the
    /// moderate tier, and the wired lane stays untouched — three different
    /// adaptations of one stream under one session.
    pub fn tiered_wireless() -> Self {
        Self::fanout_base(
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

    /// The fanout no-false-positive baseline: four wired lanes behind a
    /// head tap.  Nothing may adapt, no parity may appear anywhere, and the
    /// head filter's work is shared by all four lanes.
    pub fn all_wired() -> Self {
        let lanes = (0..4).map(|i| LaneSpec::wired(&format!("wired-{i}"))).collect();
        Self {
            head_filters: vec![FilterSpec::new("tap").with_param("name", "head-tap")],
            ..Self::fanout_base("fanout-all-wired", 1_200, lanes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{FecPolicy, FecSite, RapletSet, ScenarioEngine, SpecError};

    #[test]
    fn all_wired_fanout_delivers_everything_without_adapting() {
        let spec = ScenarioSpec::all_wired().with_packets(300);
        let outcome = ScenarioEngine::new(spec.clone()).run_sync();
        assert_eq!(outcome.health_problems(&spec), Vec::<String>::new());
        assert_eq!(outcome.report.source_packets_sent, 300);
        assert_eq!(outcome.report.parity_total(), 0);
        assert_eq!(outcome.report.head_filters, vec!["head-tap"]);
        for lane in &outcome.report.lanes {
            assert_eq!(lane.receivers[0].delivered, 300);
            assert!(lane.timeline.is_empty());
        }
    }

    #[test]
    fn fec_appears_only_on_the_lossy_lane() {
        let spec = ScenarioSpec::wired_plus_lossy_wlan();
        let outcome = ScenarioEngine::new(spec.clone()).run_sync();
        assert_eq!(outcome.health_problems(&spec), Vec::<String>::new());
        let report = &outcome.report;
        let lossy = &report.lanes[0];
        assert!(lossy.fec_inserted_then_removed());
        assert!(lossy.parity_sent > 0);
        assert!(lossy.receivers[0].recovered > 0);
        assert!(report.timeline.is_empty(), "the head never adapts");
        for (wired, lane_spec) in report.lanes[1..].iter().zip(&spec.lanes[1..]) {
            assert_eq!(wired.parity_sent, 0, "{} must carry no parity", lane_spec.name);
            assert!(wired.timeline.is_empty(), "{} must not adapt", lane_spec.name);
            assert_eq!(wired.receivers[0].delivered, spec.packets);
        }
        // The trace names the lanes and replays into the identical report.
        assert_eq!(outcome.trace.replay(), *report);
        assert!(outcome.trace.canonical_text().contains("name=wlan-lossy"));
    }

    #[test]
    fn tiered_lanes_reach_different_fec_strengths() {
        let spec = ScenarioSpec::tiered_wireless();
        let outcome = ScenarioEngine::new(spec.clone()).run_sync();
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
        let spec = ScenarioSpec::wired_plus_lossy_wlan().with_packets(600);
        let engine = ScenarioEngine::new(spec);
        let sync = engine.run_sync();
        let pooled = engine.run_pooled();
        assert_eq!(sync.trace.canonical_text(), pooled.trace.canonical_text());
        assert_eq!(sync.report, pooled.report);
    }

    #[test]
    fn pooled_applier_survives_a_head_chain_that_outgrows_the_lane_pipes() {
        // FEC(6,1) in the head expands every window 6x — past the lane
        // pipe capacity — so the session task back-pressures mid-window.
        // The applier's round-robin drain must keep it moving (a
        // lane-by-lane drain would deadlock here), and the run must still
        // agree with the sync applier byte for byte.
        let mut spec = ScenarioSpec::all_wired().with_packets(150);
        spec.head_filters = vec![FilterSpec::new("fec-encoder")
            .with_param("n", "6")
            .with_param("k", "1")];
        let engine = ScenarioEngine::new(spec);
        let pooled = engine.run_pooled();
        let sync = engine.run_sync();
        assert_eq!(pooled.report.source_packets_sent, 150);
        assert_eq!(sync.trace.canonical_text(), pooled.trace.canonical_text());
        for lane in &pooled.report.lanes {
            assert_eq!(lane.receivers[0].delivered, 150, "perfect links deliver everything");
        }
    }

    #[test]
    fn fanout_matrix_is_complete_and_named() {
        let fanouts: Vec<ScenarioSpec> = ScenarioSpec::builtin_matrix()
            .into_iter()
            .filter(|spec| spec.fec_site == FecSite::Lanes)
            .collect();
        assert_eq!(fanouts.len(), 3);
        for spec in &fanouts {
            assert!(spec.name.starts_with("fanout-"));
            assert!(!spec.lanes.is_empty());
            assert!(spec.lanes.iter().any(|l| !l.expect_adaptation));
        }
    }

    #[test]
    fn invalid_raplet_sets_return_typed_errors_instead_of_panicking() {
        let with_raplets = |raplets| ScenarioSpec {
            fec: FecPolicy::Adaptive(raplets),
            ..ScenarioSpec::all_wired()
        };
        let inverted_code = with_raplets(RapletSet {
            fec_moderate: (4, 6),
            ..RapletSet::paper_default()
        });
        assert_eq!(
            ScenarioEngine::new(inverted_code).try_run_sync().unwrap_err(),
            SpecError::InvalidFecCode {
                scenario: "fanout-all-wired".into(),
                n: 4,
                k: 6
            }
        );
        let inverted_thresholds = with_raplets(RapletSet {
            loss_thresholds: (0.005, 0.02),
            ..RapletSet::paper_default()
        });
        assert!(matches!(
            ScenarioEngine::new(inverted_thresholds).try_run_sync(),
            Err(SpecError::InvalidRaplets { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "invalid scenario spec")]
    fn run_pooled_rejects_duplicate_lanes_before_placing_a_session() {
        let mut spec = ScenarioSpec::all_wired();
        spec.lanes = vec![LaneSpec::wired("twin"), LaneSpec::wired("twin")];
        let _ = ScenarioEngine::new(spec).run_pooled();
    }
}
