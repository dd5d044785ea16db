//! E3 — the (n, k) design space: recovery versus redundancy overhead.
//!
//! The paper uses "small groups so as to minimize jitter" and fixes (6, 4)
//! for Figure 7.  This experiment sweeps the block-code parameters at
//! several loss rates to show the trade-off the authors navigated: stronger
//! codes recover more but cost more wireless bandwidth, and larger k delays
//! parity emission (jitter).  Each cell is the `ScenarioSpec::figure7()`
//! preset with one receiver on a fixed-rate lossy link.
//!
//! FEC overhead is parity packets ÷ source packets, i.e. (n − k) / k for
//! whole blocks (earlier versions of this binary reported payload bytes,
//! which read higher because parity carries shard framing).
//!
//! Run with `cargo run --release -p rapidware-bench --bin e3_fec_sweep`.

use rapidware::engine::{FecPolicy, LossRegime, ScenarioEngine, ScenarioOutcome, ScenarioSpec};
use rapidware_bench::{pct, rule};

const PACKETS: u64 = 4_000;

fn run(rate: f64, fec: FecPolicy) -> ScenarioOutcome {
    ScenarioEngine::new(ScenarioSpec {
        fec,
        ..ScenarioSpec::figure7()
            .with_packets(PACKETS)
            .with_receivers(vec![LossRegime::Bernoulli { rate }])
    })
    .run_sync()
}

fn main() {
    let codes: [(usize, usize); 6] = [(5, 4), (6, 4), (8, 4), (8, 6), (10, 8), (12, 8)];
    let loss_rates = [0.015, 0.05, 0.10, 0.20];

    println!("E3: (n,k) sweep — reconstructed % (and bandwidth overhead) per loss rate");
    print!("{:>8}", "(n,k)");
    for loss in loss_rates {
        print!("  {:>16}", format!("loss {:.1}%", loss * 100.0));
    }
    println!("  {:>10}", "overhead");
    rule(8 + loss_rates.len() * 18 + 12);

    let rows = codes
        .map(|(n, k)| (format!("({n},{k})"), FecPolicy::Fixed(n, k)))
        .into_iter()
        .chain([("none".to_string(), FecPolicy::Off)]);
    for (label, fec) in rows {
        print!("{label:>8}");
        let mut overhead = 0.0;
        for loss in loss_rates {
            let outcome = run(loss, fec.clone());
            overhead = outcome.report.parity_overhead();
            print!(
                "  {:>16}",
                pct(outcome.receipt_stats(0, PACKETS).reconstructed_pct())
            );
        }
        println!("  {:>9.1}%", overhead * 100.0);
    }
    println!(
        "\nexpected shape: every code beats 'none'; higher (n-k)/k recovers more at high\n\
         loss but costs proportionally more bandwidth; (6,4) is enough at the paper's\n\
         ~1.5% operating point."
    );
}
