//! Figure 7 — "Trace data for FEC(6,4) audio FEC".
//!
//! Reproduces the paper's only quantitative results figure: an 8 kHz stereo
//! 8-bit PCM audio stream is multicast through a proxy running an FEC(6,4)
//! encoder filter to three wireless laptops 25 m from the access point on a
//! 2 Mbps WaveLAN; for every window of 432 packets we report the percentage
//! of packets received over the air and the percentage available after FEC
//! reconstruction.  The run is the `ScenarioSpec::figure7()` preset on the
//! scenario engine's sync applier.
//!
//! Paper reference numbers (Figure 7): average raw receipt 98.54 %, average
//! reconstructed 99.98 %.
//!
//! FEC overhead is parity packets ÷ source packets (2 per 4 for FEC(6,4)).
//! Earlier versions of this binary reported parity payload bytes ÷ source
//! payload bytes instead, which reads higher (57.8 %) because every parity
//! payload also carries its shard framing.
//!
//! Run with `cargo run --release -p rapidware-bench --bin fig7_fec_trace`.

use rapidware::engine::{LossRegime, ScenarioEngine, ScenarioSpec};
use rapidware_bench::{pct, rule};

/// Packets per statistics window, as in the paper's figure.
const WINDOW: u64 = 432;

fn main() {
    let spec = ScenarioSpec::figure7();
    let receivers = &spec.lanes[0].receivers;
    let LossRegime::AtDistance { meters: distance } = receivers[0] else {
        unreachable!("the Figure 7 receivers are stationary")
    };
    println!(
        "Figure 7 reproduction: {} packets, FEC(6,4), {} receivers at {} m, seed {}",
        spec.packets,
        receivers.len(),
        distance,
        spec.seed
    );
    let outcome = ScenarioEngine::new(spec).run_sync();
    let report = &outcome.report;
    let stats: Vec<_> = (0..outcome.events.len())
        .map(|receiver| outcome.receipt_stats(receiver, WINDOW))
        .collect();

    // The paper plots the receiver at 25 m; print the first receiver's
    // per-window trace (the others behave statistically identically).
    println!("\nPer-window trace (receiver-0):");
    println!(
        "{:>10}  {:>10}  {:>14}",
        "sequence#", "received", "reconstructed"
    );
    rule(40);
    for window in stats[0].windows() {
        println!(
            "{:>10}  {:>10}  {:>14}",
            window.start_seq,
            pct(window.received_pct()),
            pct(window.reconstructed_pct())
        );
    }

    rule(72);
    println!(
        "{:<24}  {:>10}  {:>14}",
        "receiver", "received", "reconstructed"
    );
    rule(72);
    for (index, receiver) in stats.iter().enumerate() {
        println!(
            "{:<24}  {:>10}  {:>14}",
            format!("receiver-{index}"),
            pct(receiver.received_pct()),
            pct(receiver.reconstructed_pct())
        );
    }
    rule(72);
    let mean = |pick: fn(&rapidware::packet::ReceiptStats) -> f64| {
        stats.iter().map(pick).sum::<f64>() / stats.len() as f64
    };
    println!(
        "{:<24}  {:>10}  {:>14}   <- this run",
        "average",
        pct(mean(|s| s.received_pct())),
        pct(mean(|s| s.reconstructed_pct()))
    );
    println!(
        "{:<24}  {:>10}  {:>14}   <- paper (Figure 7)",
        "paper reports",
        pct(98.54),
        pct(99.98)
    );
    println!(
        "\nFEC overhead: {:.1}% ({} parity packets for {} source packets)",
        report.parity_overhead() * 100.0,
        report.parity_total(),
        report.source_packets_sent
    );
}
