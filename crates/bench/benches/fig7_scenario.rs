//! Figure 7 / E2 (bench form) — end-to-end scenario runs.
//!
//! Measures how long the full pipeline (audio source → FEC encoder →
//! simulated WaveLAN → FEC decoders) takes for a one-minute audio stream on
//! the scenario engine's sync applier, at the paper's 25 m operating point
//! and at a harsher 40 m point, with and without FEC.  This is the
//! macro-benchmark counterpart of the `fig7_fec_trace` and
//! `e2_loss_vs_distance` experiment binaries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rapidware::engine::{FecPolicy, LossRegime, ScenarioEngine, ScenarioSpec};

const PACKETS: u64 = 3_000; // one minute of 50 packet/s audio

fn one_receiver(meters: f64, fec: FecPolicy) -> ScenarioSpec {
    ScenarioSpec {
        fec,
        ..ScenarioSpec::figure7()
            .with_packets(PACKETS)
            .with_receivers(vec![LossRegime::AtDistance { meters }])
    }
}

fn bench_scenarios(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_scenario");
    group.sample_size(10);
    group.throughput(Throughput::Elements(PACKETS));
    let cases = [
        ("fec6_4_at_25m", one_receiver(25.0, FecPolicy::Fixed(6, 4))),
        ("no_fec_at_25m", one_receiver(25.0, FecPolicy::Off)),
        ("fec6_4_at_40m", one_receiver(40.0, FecPolicy::Fixed(6, 4))),
        (
            "fec6_4_three_receivers",
            ScenarioSpec::figure7().with_packets(PACKETS),
        ),
    ];
    for (name, spec) in cases {
        let engine = ScenarioEngine::new(spec);
        group.bench_with_input(BenchmarkId::from_parameter(name), &engine, |b, engine| {
            b.iter(|| {
                let outcome = engine.run_sync();
                assert_eq!(outcome.report.undelivered_total(), 0);
                outcome.report.recovered_total()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scenarios);
criterion_main!(benches);
