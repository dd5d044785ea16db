//! Telemetry overhead: the instrumented chain vs the bare chain.
//!
//! The unified telemetry subsystem promises to be cheap enough to leave on:
//! per-batch span recording, per-packet end-to-end histograms, and 1-in-64
//! sampled per-filter stage timings must cost less than **5%** of batch-32
//! chain throughput.  This bench measures that budget directly: the same
//! FEC(6,4) encode → decode chain, batch 32, once bare and once carrying
//! egress [`ChainSpans`].  The two chains take turns batch by batch on the
//! same input packets and the same output buffer (which of them goes first
//! alternates too), so a scheduler hiccup, a frequency step or a change in
//! how buffers are allocated lands on both sides of the same pair.  Each
//! pass sums both sides over all its batches, sampled ones included, so a
//! cost paid on one batch in 64 counts in full; the statistic is the
//! median over the passes of instrumented time ÷ bare time, and the run
//! **asserts** it stays under 1.05.
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
/// Passes over the packets; each pass yields one instrumented ÷ bare ratio.
const PASSES: usize = 25;
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

/// Runs `chunk` through `chain` into `out` (cleared first) and returns
/// the nanoseconds the chain took.
fn time_batch(chain: &mut FilterChain, chunk: &[Packet], out: &mut Vec<Packet>) -> f64 {
    out.clear();
    let batch = chunk.to_vec();
    let start = Instant::now();
    chain
        .process_batch_into(batch, out)
        .expect("process_batch_into");
    let nanos = start.elapsed().as_nanos() as f64;
    assert_eq!(out.len(), chunk.len(), "lossless chain round-trip");
    nanos
}

/// One pass over `packets` on fresh chains: the bare chain and the
/// instrumented one (egress spans on a fresh registry: ingress stamping,
/// batch + e2e histograms, sampled stage timings) take turns per batch.
/// Returns both sides' packets per second over the pass.  Verifies the
/// telemetry actually recorded: a disabled-by-accident run would make the
/// comparison meaningless.
fn pass(packets: &[Packet], out: &mut Vec<Packet>) -> (f64, f64) {
    let mut bare = fec_chain();
    let registry = Registry::new();
    let mut instrumented = fec_chain();
    instrumented.set_spans(ChainSpans::egress(&registry, "bench.chain"));
    let (mut bare_ns, mut instrumented_ns) = (0.0, 0.0);
    for (index, chunk) in packets.chunks(BATCH).enumerate() {
        let (b, i) = if index % 2 == 0 {
            let b = time_batch(&mut bare, chunk, out);
            (b, time_batch(&mut instrumented, chunk, out))
        } else {
            let i = time_batch(&mut instrumented, chunk, out);
            (time_batch(&mut bare, chunk, out), i)
        };
        bare_ns += b;
        instrumented_ns += i;
    }

    let snapshot = registry.snapshot();
    let e2e = snapshot.histogram("bench.chain.e2e_ns").expect("spans registered");
    assert_eq!(e2e.count(), packets.len() as u64, "every packet timed end-to-end");
    assert!(
        snapshot.merged_histogram("bench.chain.filter.").count() > 0,
        "stage sampling fired"
    );
    let pps = |nanos: f64| packets.len() as f64 * 1e9 / nanos;
    (pps(bare_ns), pps(instrumented_ns))
}

fn main() {
    let packets = audio_packets();
    println!(
        "telemetry_overhead: FEC(6,4) encode → decode, {PACKETS} packets × {PAYLOAD} B, batch {BATCH}"
    );

    // One warm-up pass pages both paths in and settles the allocator.
    let mut out: Vec<Packet> = Vec::with_capacity(BATCH);
    pass(&packets, &mut out);
    let mut ratios = Vec::with_capacity(PASSES);
    let mut bare_samples = Vec::with_capacity(PASSES);
    let mut instrumented_samples = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let (bare, instrumented) = pass(&packets, &mut out);
        ratios.push(bare / instrumented);
        bare_samples.push(bare);
        instrumented_samples.push(instrumented);
    }

    let bare_median = median(&bare_samples);
    let instrumented_median = median(&instrumented_samples);
    let overhead = median(&ratios) - 1.0;
    println!("sync/batch-{BATCH} bare:       {bare_median:>12.0} packets/s (median of {PASSES} passes)");
    println!("sync/batch-{BATCH} telemetry:  {instrumented_median:>12.0} packets/s (median of {PASSES} passes)");
    println!(
        "telemetry overhead:       {:.2}% (median of {PASSES} per-pass time ratios; {})",
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
        "telemetry overhead {:.2}% (median per-pass time ratio) exceeds the {}% budget \
         (bare {bare_median:.0} pps vs instrumented {instrumented_median:.0} pps)",
        overhead * 100.0,
        OVERHEAD_BUDGET * 100.0
    );
}
