//! Telemetry overhead: the instrumented chain vs the bare chain.
//!
//! The unified telemetry subsystem promises to be cheap enough to leave on:
//! per-batch span recording, per-packet end-to-end histograms, and 1-in-64
//! sampled per-filter stage timings must cost less than **5%** of batch-32
//! chain throughput.  This bench measures that budget directly: the same
//! FEC(6,4) encode → decode chain, batch 32, once bare and once carrying
//! egress [`ChainSpans`], interleaved A/B so scheduler drift hits both
//! sides equally.  The run **asserts** the median delta stays under 5%.
//!
//! Prints packets/second for both sides and the measured overhead, and
//! writes the criterion-style summary to `BENCH_telemetry_overhead.json`
//! at the workspace root.
//! Run with `cargo bench -p rapidware-bench --bench telemetry_overhead`.

use std::time::Instant;

use rapidware::filters::{ChainSpans, FecDecoderFilter, FecEncoderFilter, FilterChain};
use rapidware::packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware::proxy::Registry;
use rapidware_bench::report::{median, BenchReport};

const PACKETS: usize = 8_192;
const BATCH: usize = 32;
const PAYLOAD: usize = 320;
const REPETITIONS: usize = 9;
const OVERHEAD_BUDGET: f64 = 0.05;

fn audio_packets() -> Vec<Packet> {
    (0..PACKETS as u64)
        .map(|seq| {
            Packet::with_timestamp(
                StreamId::new(1),
                SeqNo::new(seq),
                PacketKind::AudioData,
                seq * 20_000,
                vec![(seq % 251) as u8; PAYLOAD],
            )
        })
        .collect()
}

fn fec_chain() -> FilterChain {
    let mut chain = FilterChain::new();
    chain
        .push_back(Box::new(FecEncoderFilter::fec_6_4().expect("valid (n, k)")))
        .expect("push encoder");
    chain
        .push_back(Box::new(FecDecoderFilter::fec_6_4().expect("valid (n, k)")))
        .expect("push decoder");
    chain
}

fn run_chain(mut chain: FilterChain, packets: &[Packet]) -> f64 {
    let start = Instant::now();
    let mut delivered = 0usize;
    for chunk in packets.chunks(BATCH) {
        let mut out: Vec<Packet> = Vec::with_capacity(chunk.len());
        chain
            .process_batch_into(chunk.to_vec(), &mut out)
            .expect("process_batch_into");
        delivered += out.len();
    }
    assert_eq!(delivered, packets.len(), "lossless chain round-trip");
    packets.len() as f64 / start.elapsed().as_secs_f64()
}

fn bare(packets: &[Packet]) -> f64 {
    run_chain(fec_chain(), packets)
}

/// The instrumented side: a fresh registry per run, egress spans on the
/// chain (ingress stamping, batch + e2e histograms, sampled stage
/// timings).  Verifies the telemetry actually recorded before returning
/// the throughput — a disabled-by-accident run would make the comparison
/// meaningless.
fn instrumented(packets: &[Packet]) -> f64 {
    let registry = Registry::new();
    let mut chain = fec_chain();
    chain.set_spans(ChainSpans::egress(&registry, "bench.chain"));
    let pps = run_chain(chain, packets);
    let snapshot = registry.snapshot();
    let e2e = snapshot.histogram("bench.chain.e2e_ns").expect("spans registered");
    assert_eq!(e2e.count(), packets.len() as u64, "every packet timed end-to-end");
    assert!(
        snapshot.merged_histogram("bench.chain.filter.").count() > 0,
        "stage sampling fired"
    );
    pps
}

fn main() {
    let packets = audio_packets();
    println!(
        "telemetry_overhead: FEC(6,4) encode → decode, {PACKETS} packets × {PAYLOAD} B, batch {BATCH}"
    );

    // Warm-up (page in both paths, settle the allocator), then interleave
    // A/B so frequency scaling and scheduler drift hit both sides equally.
    let _ = bare(&packets);
    let _ = instrumented(&packets);
    let mut bare_samples = Vec::with_capacity(REPETITIONS);
    let mut instrumented_samples = Vec::with_capacity(REPETITIONS);
    for _ in 0..REPETITIONS {
        bare_samples.push(bare(&packets));
        instrumented_samples.push(instrumented(&packets));
    }

    let bare_median = median(&bare_samples);
    let instrumented_median = median(&instrumented_samples);
    let overhead = 1.0 - instrumented_median / bare_median;
    println!("sync/batch-{BATCH} bare:       {bare_median:>12.0} packets/s (median of {REPETITIONS})");
    println!("sync/batch-{BATCH} telemetry:  {instrumented_median:>12.0} packets/s (median of {REPETITIONS})");
    println!(
        "telemetry overhead:       {:.2}% ({})",
        overhead * 100.0,
        if overhead < OVERHEAD_BUDGET {
            "within the < 5% budget"
        } else {
            "OVER the 5% budget"
        }
    );

    let mut report = BenchReport::new("telemetry_overhead");
    report.record(format!("sync/batch-{BATCH}-bare"), "packets/s", &bare_samples);
    report.record(
        format!("sync/batch-{BATCH}-telemetry"),
        "packets/s",
        &instrumented_samples,
    );
    report.record("telemetry/overhead", "fraction", &[overhead]);
    let path = report.write().expect("writing the bench report");
    println!("report: {}", path.display());

    assert!(
        overhead < OVERHEAD_BUDGET,
        "telemetry overhead {:.2}% exceeds the {}% budget \
         (bare {bare_median:.0} pps vs instrumented {instrumented_median:.0} pps)",
        overhead * 100.0,
        OVERHEAD_BUDGET * 100.0
    );
}
