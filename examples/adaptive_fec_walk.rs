//! The paper's motivating scenario (Section 3): a user joins a collaborative
//! session in their office near the access point, then walks to a
//! conference room down the hall.  Packet loss rises sharply over a few
//! tens of meters; a loss-rate observer raplet notices and a responder
//! raplet splices an FEC encoder into the running audio stream, without
//! disturbing the connection to the source.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example adaptive_fec_walk
//! ```

use rapidware::engine::{ScenarioEngine, ScenarioSpec};

fn main() {
    // Three minutes of audio; the walk starts one minute in and covers
    // 5 m -> 35 m at 1 m/s.
    let spec = ScenarioSpec::adaptive_walk();
    println!("running the adaptive office-to-conference-room walk ...");
    let outcome = ScenarioEngine::new(spec).run_sync();
    let report = &outcome.report;

    println!("\nadaptation timeline:");
    for step in &report.timeline {
        println!("  {step}");
    }

    let stats = outcome.receipt_stats(0, 432);
    println!("\nper-window receipt (window = 432 packets):");
    println!("  window-start  received%  reconstructed%");
    for window in stats.windows() {
        println!(
            "  {:>12}  {:>8.2}  {:>13.2}",
            window.start_seq,
            window.received_pct(),
            window.reconstructed_pct()
        );
    }

    println!("\nsummary:");
    println!("  source packets sent   : {}", report.source_packets_sent);
    println!("  parity packets sent   : {}", report.parity_total());
    println!(
        "  parity overhead       : {:.1}%",
        report.parity_overhead() * 100.0
    );
    println!("  raw receipt           : {:.2}%", stats.received_pct());
    println!(
        "  after reconstruction  : {:.2}%",
        stats.reconstructed_pct()
    );
    println!("  final sender filters  : {:?}", report.head_filters);
}
