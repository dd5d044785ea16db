//! Batched data plane throughput: `process_batch_into` vs the per-packet
//! path.
//!
//! Two comparisons on the synchronous `FilterChain` (the kernel every
//! pooled stream and lane runs), fed with the paper's 320-byte audio
//! packets:
//!
//! * `sync` — an FEC(6,4) encode → decode chain, per-packet
//!   `FilterChain::process` vs `FilterChain::process_batch_into` at batch
//!   size 32 (the same engine, fed one packet or 32 at a time);
//! * `sync/batch-32-encrypted` — the same batched chain with the AEAD pair
//!   sealing every frame, and its ratio to the plaintext chain.
//!
//! Prints packets/second for each path and the batched/per-packet speedup,
//! and writes the criterion-style summary (median/min/max per path) to
//! `BENCH_chain_batch.json` at the workspace root.
//! Run with `cargo bench -p rapidware-bench --bench chain_batch_throughput`.

use std::time::Instant;

use rapidware::filters::{DecryptFilter, EncryptFilter, FecDecoderFilter, FecEncoderFilter, FilterChain};
use rapidware::packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware_bench::report::{median, BenchReport};

const PACKETS: usize = 8_192;
const BATCH: usize = 32;
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

/// The same FEC round-trip with the AEAD secure-channel pair in the
/// middle, the way the scenario engine places it: sources *and* parity are
/// sealed by `encrypt` and verified-then-stripped by `decrypt` before the
/// decoder sees them.
fn encrypted_chain() -> FilterChain {
    let mut chain = FilterChain::new();
    chain
        .push_back(Box::new(FecEncoderFilter::fec_6_4().expect("valid (n, k)")))
        .expect("push encoder");
    chain.push_back(Box::new(EncryptFilter::new(0x5EED))).expect("push encrypt");
    chain.push_back(Box::new(DecryptFilter::new(0x5EED))).expect("push decrypt");
    chain
        .push_back(Box::new(FecDecoderFilter::fec_6_4().expect("valid (n, k)")))
        .expect("push decoder");
    chain
}

/// Runs `measure` `REPETITIONS` times and returns every packets/second
/// sample (the JSON report keeps them all; the printed table uses the
/// best, the report's headline statistic is the median).
fn pps_samples(measure: impl Fn() -> f64) -> Vec<f64> {
    (0..REPETITIONS).map(|_| measure()).collect()
}

fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

fn sync_per_packet(packets: &[Packet]) -> f64 {
    let mut chain = fec_chain();
    let start = Instant::now();
    let mut delivered = 0usize;
    for packet in packets {
        delivered += chain.process(packet.clone()).expect("process").len();
    }
    assert_eq!(delivered, packets.len(), "lossless chain round-trip");
    packets.len() as f64 / start.elapsed().as_secs_f64()
}

fn sync_batched(packets: &[Packet]) -> f64 {
    sync_batched_on(fec_chain(), packets)
}

fn sync_batched_on(mut chain: FilterChain, packets: &[Packet]) -> f64 {
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

fn main() {
    let packets = audio_packets();
    println!(
        "chain_batch_throughput: FEC(6,4) encode → decode, {PACKETS} packets × {PAYLOAD} B, batch {BATCH}"
    );

    // The FEC arithmetic dominates, and batching only amortises dispatch
    // and intermediate-buffer allocation, so the gap is small by design.
    let sync_serial_samples = pps_samples(|| sync_per_packet(&packets));
    let sync_batch_samples = pps_samples(|| sync_batched(&packets));
    let sync_serial = best(&sync_serial_samples);
    let sync_batch = best(&sync_batch_samples);
    println!("sync/per-packet:      {sync_serial:>12.0} packets/s");
    println!("sync/batch-{BATCH}:        {sync_batch:>12.0} packets/s");
    println!("sync speedup:         {:.2}x", sync_batch / sync_serial);

    // Encrypted vs plaintext: the same batched FEC round-trip with the
    // AEAD pair sealing every frame (sources and parity).  Reported, not
    // asserted: it is a ratio of two throughputs that one optimisation
    // raises unequally (the folded CRC more than doubled the plaintext
    // chain and sped the encrypted one up by half, so the ratio *fell* on a
    // pure speed-up).  The tripwires sit on the kernels themselves, in
    // `fec_codec`: `gf256_kernel`, `aead_kernel`, `crc_kernel`, `mac_kernel`.
    let encrypted_samples = pps_samples(|| sync_batched_on(encrypted_chain(), &packets));
    let encrypted = best(&encrypted_samples);
    let ratio = median(&encrypted_samples) / median(&sync_batch_samples);
    println!("sync/batch-{BATCH} aead:   {encrypted:>12.0} packets/s");
    println!("encrypted/plaintext:  {ratio:.2}x");

    let mut report = BenchReport::new("chain_batch");
    report.record("sync/per-packet", "packets/s", &sync_serial_samples);
    report.record(format!("sync/batch-{BATCH}"), "packets/s", &sync_batch_samples);
    report.record(format!("sync/batch-{BATCH}-encrypted"), "packets/s", &encrypted_samples);
    report.record("sync/encrypted-ratio", "x", &[ratio]);
    let path = report.write().expect("writing the bench report");
    println!("report: {}", path.display());
}
