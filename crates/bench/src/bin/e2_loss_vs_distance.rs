//! E2 — packet loss versus distance from the access point.
//!
//! Section 3 of the paper motivates demand-driven FEC with the observation
//! (from the authors' companion measurement study \[16\]) that "packet loss
//! rate can change dramatically over a distance of several meters on
//! wireless LANs".  This experiment sweeps the receiver's distance and
//! reports the raw receipt rate and the post-FEC reconstruction rate, with
//! and without the FEC(6,4) filter installed.  Each point is the
//! `ScenarioSpec::figure7()` preset with one receiver at that distance.
//!
//! FEC overhead is parity packets ÷ source packets (earlier versions of
//! this binary reported payload bytes, which read higher because parity
//! carries shard framing).
//!
//! Run with `cargo run --release -p rapidware-bench --bin e2_loss_vs_distance`.

use rapidware::engine::{FecPolicy, LossRegime, ScenarioEngine, ScenarioSpec};
use rapidware_bench::{pct, rule};

const PACKETS: u64 = 4_000;

fn run(meters: f64, fec: FecPolicy) -> rapidware::engine::ScenarioOutcome {
    ScenarioEngine::new(ScenarioSpec {
        fec,
        ..ScenarioSpec::figure7()
            .with_packets(PACKETS)
            .with_receivers(vec![LossRegime::AtDistance { meters }])
    })
    .run_sync()
}

fn main() {
    println!("E2: loss vs distance ({PACKETS} packets per point, FEC(6,4) vs no FEC)");
    println!(
        "{:>9}  {:>9}  {:>13}  {:>13}  {:>9}",
        "distance", "raw recv", "recon (6,4)", "recon (none)", "overhead"
    );
    rule(62);
    for distance in [5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0] {
        let with_fec = run(distance, FecPolicy::Fixed(6, 4));
        let without_fec = run(distance, FecPolicy::Off);
        let with_stats = with_fec.receipt_stats(0, PACKETS);
        println!(
            "{:>7} m  {:>9}  {:>13}  {:>13}  {:>8.1}%",
            distance,
            pct(with_stats.received_pct()),
            pct(with_stats.reconstructed_pct()),
            pct(without_fec.receipt_stats(0, PACKETS).reconstructed_pct()),
            with_fec.report.parity_overhead() * 100.0
        );
    }
    rule(62);
    println!("expected shape: raw receipt collapses past ~35 m while FEC(6,4) holds the");
    println!("reconstructed rate near 100% until the loss rate approaches the code's");
    println!("correction capacity (2 losses per 6-packet block).");
}
