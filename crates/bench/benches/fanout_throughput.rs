//! Fanout session throughput: shared-head fanout vs N independent chains.
//!
//! The claim under test: a fanout session pays the head stage's cost
//! **once** per packet regardless of receiver count, because each processed
//! packet is fanned out as an `Arc`-backed clone (a refcount bump, not a
//! byte copy).  The strawman alternative — one full, independent chain per
//! receiver — pays the head stage N times.
//!
//! Both paths run the FEC(6,4) encoder as the head-stage work over the
//! paper's 320-byte audio packets, fan out to `LANES` receivers, and report
//! source packets/second.  The bench asserts the fanout path is at least
//! 2× the per-receiver strawman at N = 8 (in practice it approaches N×),
//! and writes the criterion-style summary to `BENCH_fanout.json` via
//! [`rapidware_bench::report`].
//!
//! Run with `cargo bench -p rapidware-bench --bench fanout_throughput`.

use std::time::Instant;

use rapidware::engine::{Applier, FanoutSpec, LaneSpec, SyncApplier};
use rapidware::filters::{FecEncoderFilter, FilterChain};
use rapidware::packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware::proxy::{FilterSpec, Proxy, RuntimeConfig};
use rapidware_bench::report::BenchReport;

const PACKETS: usize = 8_192;
const LANES: usize = 8;
const PAYLOAD: usize = 320;
const REPETITIONS: usize = 5;

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

fn fanout_spec() -> FanoutSpec {
    let mut spec = FanoutSpec::all_wired();
    spec.head_filters = vec![FilterSpec::new("fec-encoder")];
    spec.lanes = (0..LANES).map(|i| LaneSpec::wired(&format!("lane-{i}"))).collect();
    spec
}

/// Runs `measure` `REPETITIONS` times; all samples go into the JSON
/// report, the printed table uses the best.
fn pps_samples(measure: impl Fn() -> f64) -> Vec<f64> {
    (0..REPETITIONS).map(|_| measure()).collect()
}

fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

/// Shared head chain, one encode per packet, zero-copy fanout to N lanes.
fn fanout_pps(packets: &[Packet]) -> f64 {
    let spec = fanout_spec();
    let lanes: Vec<String> = spec.lanes.iter().map(|lane| lane.name.clone()).collect();
    let mut applier = SyncApplier::new(&spec.name, &spec.head_filters, &lanes);
    let start = Instant::now();
    let per_lane = applier.process(packets.to_vec());
    let residue = applier.finish();
    let elapsed = start.elapsed().as_secs_f64();
    let delivered: usize =
        per_lane.iter().map(Vec::len).sum::<usize>() + residue.iter().map(Vec::len).sum::<usize>();
    assert!(
        delivered >= LANES * packets.len(),
        "every lane must see every source packet (got {delivered})"
    );
    packets.len() as f64 / elapsed
}

/// The strawman: N fully independent chains, each encoding the whole
/// stream for its own receiver.
fn independent_chains_pps(packets: &[Packet]) -> f64 {
    let mut chains: Vec<FilterChain> = (0..LANES)
        .map(|_| {
            let mut chain = FilterChain::new();
            chain
                .push_back(Box::new(FecEncoderFilter::fec_6_4().expect("valid (n, k)")))
                .expect("push encoder");
            chain
        })
        .collect();
    let start = Instant::now();
    let mut delivered = 0usize;
    for chain in &mut chains {
        delivered += chain.process_batch(packets.to_vec()).expect("encode succeeds").len();
        delivered += chain.flush().expect("flush succeeds").len();
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert!(delivered >= LANES * packets.len());
    packets.len() as f64 / elapsed
}

/// The live session on a two-worker proxy (one session task runs the head,
/// the fanout and every lane chain), drained concurrently — reported for
/// color, not asserted (scheduling noise).
fn live_session_pps(packets: &[Packet]) -> f64 {
    let mut proxy = Proxy::with_runtime("bench", RuntimeConfig::new(2, 32));
    let input = proxy.add_session_pooled("bench", 128, 32).expect("unique session name");
    let session = proxy.pooled_session("bench").expect("just added");
    session
        .insert_head_filter(0, &FilterSpec::new("fec-encoder"))
        .expect("registered kind");
    let consumers: Vec<_> = (0..LANES)
        .map(|i| {
            let rx = session.add_lane(format!("lane-{i}")).expect("unique lanes");
            std::thread::spawn(move || std::iter::from_fn(|| rx.recv().ok()).count())
        })
        .collect();
    let start = Instant::now();
    for packet in packets {
        input.send(packet.clone()).expect("session accepts packets");
    }
    input.close();
    let mut delivered = 0usize;
    for consumer in consumers {
        delivered += consumer.join().expect("drain does not panic");
    }
    let elapsed = start.elapsed().as_secs_f64();
    proxy.shutdown().expect("clean shutdown");
    assert!(delivered >= LANES * packets.len());
    packets.len() as f64 / elapsed
}

fn main() {
    let packets = audio_packets();
    println!(
        "fanout throughput: FEC(6,4) head stage, {LANES} receivers, {PACKETS} x {PAYLOAD}B packets"
    );
    println!("{}", "-".repeat(72));

    let independent_samples = pps_samples(|| independent_chains_pps(&packets));
    let fanout_samples = pps_samples(|| fanout_pps(&packets));
    let session_samples = pps_samples(|| live_session_pps(&packets));
    let independent = best(&independent_samples);
    let fanout = best(&fanout_samples);
    let session = best(&session_samples);

    println!("independent chains (head x{LANES}):   {independent:>12.0} source pkts/s");
    println!("fanout session (head x1, sync):   {fanout:>12.0} source pkts/s");
    println!("fanout session (live, 2 workers): {session:>12.0} source pkts/s");
    let speedup = fanout / independent;
    println!("amortization speedup (sync):      {speedup:>11.2}x");

    // Write the report before the speedup assert so a machine that misses
    // the bar still leaves its numbers behind for inspection.
    let mut report = BenchReport::new("fanout");
    report.record(
        format!("independent-chains/lanes-{LANES}"),
        "packets/s",
        &independent_samples,
    );
    report.record(format!("fanout-sync/lanes-{LANES}"), "packets/s", &fanout_samples);
    report.record(format!("fanout-live/lanes-{LANES}"), "packets/s", &session_samples);
    report.record("fanout-sync/amortization-speedup", "x", &[speedup]);
    let path = report.write().expect("writing the bench report");
    println!("report: {}", path.display());

    assert!(
        speedup >= 2.0,
        "head-stage work must be amortized: expected >= 2x at N = {LANES}, got {speedup:.2}x"
    );
}
