//! The paper's one quantitative result, gated: Figure 7's FEC(6,4) audio
//! multicast to three laptops 25 m from the access point, at 98.54 % of
//! packets received over the air and 99.98 % after reconstruction.  Beside
//! it, the (n, k) trade-off behind the choice of code and the Section 3
//! walk that splices FEC in on demand.
//!
//! The run is the `ScenarioSpec::figure7()` preset on the scenario engine,
//! so it obeys the engine's conformance rule: the sync applier, a live
//! pooled proxy session and a live session over a shared loopback UDP
//! carrier produce the same report.
//!
//! Tolerance: the 25 m link is calibrated to 1.46 % loss, so one seed's
//! three-receiver mean raw receipt has a standard deviation of about
//! 0.1 pp; the mean over five seeds is held to ±0.30 pp of the paper.

use rapidware::engine::{FecPolicy, LossRegime, ScenarioEngine, ScenarioOutcome, ScenarioSpec};
use rapidware::netsim::{LinearWalk, SimTime};
use rapidware::packet::ReceiptStats;

/// The paper's statistics window, in packets.
const WINDOW: u64 = 432;
const SEEDS: [u64; 5] = [2001, 2002, 2003, 2004, 2005];
const PAPER_RECEIVED_PCT: f64 = 98.54;
const RECEIVED_TOLERANCE_PP: f64 = 0.30;
const MIN_RECONSTRUCTED_PCT: f64 = 99.9;

/// The mean over receivers of one per-receiver percentage.
fn mean_pct(outcome: &ScenarioOutcome, pick: fn(&ReceiptStats) -> f64) -> f64 {
    let receivers = outcome.events.len();
    (0..receivers)
        .map(|receiver| pick(&outcome.receipt_stats(receiver, WINDOW)))
        .sum::<f64>()
        / receivers as f64
}

#[test]
fn figure7_matches_the_paper_over_five_seeds() {
    let mut received = Vec::new();
    for seed in SEEDS {
        let spec = ScenarioSpec::figure7().with_seed(seed);
        let outcome = ScenarioEngine::new(spec.clone()).run_sync();
        assert_eq!(
            outcome.health_problems(&spec),
            Vec::<String>::new(),
            "seed {seed}"
        );
        assert_eq!(outcome.report.head_filters, vec!["fec-encoder(6,4)"]);
        assert_eq!(outcome.report.parity_total(), spec.packets / 2);

        let raw = mean_pct(&outcome, ReceiptStats::received_pct);
        let reconstructed = mean_pct(&outcome, ReceiptStats::reconstructed_pct);
        assert!(raw < 100.0, "seed {seed}: a 25 m link loses packets");
        assert!(
            reconstructed >= MIN_RECONSTRUCTED_PCT,
            "seed {seed}: reconstructed {reconstructed:.3} % < {MIN_RECONSTRUCTED_PCT} %"
        );
        received.push(raw);
    }
    let mean = received.iter().sum::<f64>() / received.len() as f64;
    assert!(
        (mean - PAPER_RECEIVED_PCT).abs() <= RECEIVED_TOLERANCE_PP,
        "mean raw receipt {mean:.3} % is not within {RECEIVED_TOLERANCE_PP} pp of the \
         paper's {PAPER_RECEIVED_PCT} % (per seed: {received:?})"
    );
}

#[test]
fn the_presets_describe_the_papers_setup() {
    let figure7 = ScenarioSpec::figure7();
    assert_eq!(figure7.fec, FecPolicy::Fixed(6, 4));
    assert_eq!(
        figure7.lanes[0].receivers,
        vec![LossRegime::AtDistance { meters: 25.0 }; 3]
    );
    assert_eq!(
        figure7.packets,
        12 * WINDOW,
        "twelve of the paper's windows"
    );

    let room = ScenarioSpec::multicast(16);
    assert_eq!(room.lanes[0].receivers.len(), 16);
    assert_eq!(
        (room.fec, room.lanes[0].receivers[15].clone()),
        (figure7.fec, figure7.lanes[0].receivers[0].clone())
    );
    assert_eq!(ScenarioSpec::multicast(0).lanes[0].receivers.len(), 1);

    let walk = ScenarioSpec::adaptive_walk();
    assert!(matches!(walk.fec, FecPolicy::Adaptive(_)));
    assert!(matches!(walk.lanes[0].receivers[..], [LossRegime::Walking(_)]));
    assert_eq!(walk.packets, 9_000, "three minutes of 50 packet/s audio");
}

#[test]
fn every_figure7_window_reconstructs_at_least_what_it_received() {
    let outcome = ScenarioEngine::new(ScenarioSpec::figure7()).run_sync();
    assert_eq!(outcome.events.len(), 3);
    for receiver in 0..outcome.events.len() {
        let stats = outcome.receipt_stats(receiver, WINDOW);
        assert_eq!(stats.windows().len(), 12);
        for window in stats.windows() {
            assert_eq!(window.total, WINDOW);
            assert!(
                window.reconstructed_pct() >= window.received_pct(),
                "{window}"
            );
        }
    }
    let raw = mean_pct(&outcome, ReceiptStats::received_pct);
    assert!(raw <= mean_pct(&outcome, ReceiptStats::reconstructed_pct));
}

#[test]
fn figure7_on_a_live_proxy_reports_what_the_sync_run_reports() {
    let engine = ScenarioEngine::new(ScenarioSpec::figure7());
    let sync = engine.run_sync();
    for (placement, live) in [
        ("pooled", engine.run_pooled()),
        ("shared-UDP", engine.run_udp_shared()),
    ] {
        assert_eq!(live.report, sync.report, "{placement}");
        assert_eq!(live.events, sync.events, "{placement}: per-seq fates");
    }
}

#[test]
fn stronger_codes_recover_more_at_heavy_loss() {
    let at_15_percent = |fec| ScenarioSpec {
        fec,
        ..ScenarioSpec::figure7()
            .with_packets(1_000)
            .with_seed(7)
            .with_receivers(vec![LossRegime::Bernoulli { rate: 0.15 }])
    };
    let weak = ScenarioEngine::new(at_15_percent(FecPolicy::Fixed(5, 4))).run_sync();
    let strong = ScenarioEngine::new(at_15_percent(FecPolicy::Fixed(8, 4))).run_sync();
    let reconstructed =
        |outcome: &ScenarioOutcome| mean_pct(outcome, ReceiptStats::reconstructed_pct);
    assert!(
        reconstructed(&strong) > reconstructed(&weak),
        "FEC(8,4) must out-recover FEC(5,4) at 15 % loss"
    );
    assert!(strong.report.parity_overhead() > weak.report.parity_overhead());
}

#[test]
fn the_adaptive_walk_splices_fec_in_once_loss_rises() {
    let spec = ScenarioSpec::adaptive_walk()
        .with_packets(4_000)
        .with_receivers(vec![LossRegime::Walking(LinearWalk::new(
            5.0,
            40.0,
            SimTime::from_secs(10),
            2.0,
        ))]);
    let outcome = ScenarioEngine::new(spec).run_sync();
    let report = &outcome.report;
    assert!(report.fec_was_inserted(), "{:?}", report.timeline);
    assert!(report.parity_total() > 0);
    assert!(
        report
            .head_filters
            .iter()
            .any(|name| name.starts_with("fec-encoder")),
        "the walk ends far from the access point, so FEC stays installed"
    );
    assert!(outcome.receipt_stats(0, WINDOW).reconstructed_pct() > 90.0);
}
