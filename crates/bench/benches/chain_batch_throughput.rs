//! Batched data plane throughput: `process_batch` vs the per-packet path.
//!
//! Two comparisons, both on an FEC(6,4) encode → decode chain fed with the
//! paper's 320-byte audio packets:
//!
//! * `sync` — the synchronous `FilterChain`, per-packet `process` vs
//!   `process_batch` at batch size 32;
//! * `threaded` — the thread-per-filter `ThreadedChain`, per-packet workers
//!   (batch size 1) vs batched workers draining up to 32 packets per pipe
//!   lock.
//!
//! Prints packets/second for each path and the batched/per-packet speedup,
//! and writes the criterion-style summary (median/min/max per path) to
//! `BENCH_chain_batch.json` at the workspace root.
//! Run with `cargo bench -p rapidware-bench --bench chain_batch_throughput`.

use std::time::Instant;

use rapidware::filters::{DecryptFilter, EncryptFilter, FecDecoderFilter, FecEncoderFilter, FilterChain};
use rapidware::packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware::proxy::ThreadedChain;
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
        delivered += chain.process_batch(chunk.to_vec()).expect("process_batch").len();
    }
    assert_eq!(delivered, packets.len(), "lossless chain round-trip");
    packets.len() as f64 / start.elapsed().as_secs_f64()
}

/// Drives the thread-per-filter chain end to end.
///
/// `batched == false` is the per-packet path everywhere: per-packet sends
/// into the chain, per-packet worker loops, per-packet receives at the
/// output.  `batched == true` is the batched data plane: the producer sends
/// 32-packet batches, every stage drains and emits batches, and the
/// consumer drains batches.
fn threaded(packets: &[Packet], batched: bool) -> f64 {
    let batch_size = if batched { BATCH } else { 1 };
    let chain = ThreadedChain::with_batch_size(128, batch_size).expect("chain");
    chain
        .push_back(Box::new(FecEncoderFilter::fec_6_4().expect("valid (n, k)")))
        .expect("push encoder");
    chain
        .push_back(Box::new(FecDecoderFilter::fec_6_4().expect("valid (n, k)")))
        .expect("push decoder");
    let input = chain.input();
    let output = chain.output();
    let expected = packets.len();
    let to_send = packets.to_vec();

    let start = Instant::now();
    let producer = std::thread::spawn(move || {
        if batched {
            let mut to_send = to_send;
            while !to_send.is_empty() {
                let rest = to_send.split_off(to_send.len().min(BATCH));
                input.send_batch(to_send).expect("chain accepts packets");
                to_send = rest;
            }
        } else {
            for packet in to_send {
                input.send(packet).expect("chain accepts packets");
            }
        }
    });
    let mut delivered = 0usize;
    while delivered < expected {
        if batched {
            delivered += output.recv_up_to(BATCH).expect("stream open").len();
        } else {
            output.recv().expect("stream open");
            delivered += 1;
        }
    }
    let elapsed = start.elapsed();
    producer.join().expect("producer");
    chain.close_input();
    chain.shutdown().expect("shutdown");
    expected as f64 / elapsed.as_secs_f64()
}

fn main() {
    let packets = audio_packets();
    println!(
        "chain_batch_throughput: FEC(6,4) encode → decode, {PACKETS} packets × {PAYLOAD} B, batch {BATCH}"
    );

    // The paper's architecture: thread-per-filter with pipes between the
    // stages.  This is where batching pays — pipe locking, cross-thread
    // wake-ups, and per-packet dispatch are amortised over each batch.
    let threaded_serial_samples = pps_samples(|| threaded(&packets, false));
    let threaded_batch_samples = pps_samples(|| threaded(&packets, true));
    let threaded_serial = best(&threaded_serial_samples);
    let threaded_batch = best(&threaded_batch_samples);
    let speedup = threaded_batch / threaded_serial;
    println!("threaded/per-packet:  {threaded_serial:>12.0} packets/s");
    println!("threaded/batch-{BATCH}:    {threaded_batch:>12.0} packets/s");
    println!(
        "threaded speedup:     {speedup:.2}x ({})",
        if speedup >= 1.5 {
            "meets the >= 1.5x target"
        } else {
            "below the 1.5x target on this machine"
        }
    );

    // Supplementary: the synchronous chain in isolation.  Here the FEC
    // arithmetic dominates and batching only amortises dispatch and
    // intermediate-buffer allocation, so the gap is small by design.
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
    report.record("threaded/per-packet", "packets/s", &threaded_serial_samples);
    report.record(format!("threaded/batch-{BATCH}"), "packets/s", &threaded_batch_samples);
    report.record("sync/per-packet", "packets/s", &sync_serial_samples);
    report.record(format!("sync/batch-{BATCH}"), "packets/s", &sync_batch_samples);
    report.record(format!("sync/batch-{BATCH}-encrypted"), "packets/s", &encrypted_samples);
    report.record("sync/encrypted-ratio", "x", &[ratio]);
    report.record(
        "threaded/speedup",
        "x",
        &[median(&threaded_batch_samples) / median(&threaded_serial_samples)],
    );
    let path = report.write().expect("writing the bench report");
    println!("report: {}", path.display());
}
