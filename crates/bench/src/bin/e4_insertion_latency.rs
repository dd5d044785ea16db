//! E4 — cost of dynamic filter insertion and removal on a running stream.
//!
//! The paper's central mechanism is the live splice.  This experiment
//! measures how long `Proxy::insert_filter` and `Proxy::remove_filter`
//! take while a live audio stream flows through a pooled proxy stream (the
//! splice takes the stream's session lock between two batches), and
//! verifies that no packet is lost or reordered by any splice.
//!
//! Run with `cargo run --release -p rapidware-bench --bin e4_insertion_latency`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rapidware::media::AudioSource;
use rapidware::packet::StreamId;
use rapidware::proxy::{FilterSpec, Proxy, RuntimeConfig};
use rapidware_bench::rule;

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let index = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[index.min(sorted.len() - 1)]
}

fn main() {
    const PACKETS: u64 = 40_000;
    const SPLICES: usize = 200;

    let mut proxy = Proxy::with_runtime("e4", RuntimeConfig::default().with_pipe_capacity(64));
    let (input, output) = proxy.add_stream_pooled("audio").expect("stream");

    let producer = std::thread::spawn(move || {
        let mut source = AudioSource::pcm_default(StreamId::new(1));
        for _ in 0..PACKETS {
            if input.send(source.next_packet()).is_err() {
                break;
            }
        }
        input.close();
    });
    let delivered = Arc::new(AtomicU64::new(0));
    let consumer = {
        let delivered = Arc::clone(&delivered);
        std::thread::spawn(move || {
            let mut seqs = Vec::with_capacity(PACKETS as usize);
            while let Ok(packet) = output.recv() {
                seqs.push(packet.seq().value());
                delivered.store(seqs.len() as u64, Ordering::Relaxed);
            }
            seqs
        })
    };

    let null = FilterSpec::new("null");
    let mut insert_times = Vec::with_capacity(SPLICES);
    let mut remove_times = Vec::with_capacity(SPLICES);
    let mut spliced_at = Vec::with_capacity(SPLICES);
    for round in 0..SPLICES {
        // One splice per 100 delivered packets, so every splice lands on a
        // stream in full flow (the first half of it).
        while delivered.load(Ordering::Relaxed) < (round as u64) * PACKETS / (2 * SPLICES as u64) {
            std::thread::yield_now();
        }
        spliced_at.push(delivered.load(Ordering::Relaxed));
        let position = round % (proxy.filter_names("audio").expect("stream").len() + 1);
        let start = Instant::now();
        proxy.insert_filter("audio", position, &null).expect("insert into running stream");
        insert_times.push(start.elapsed());

        let start = Instant::now();
        proxy.remove_filter("audio", position).expect("remove from running stream");
        remove_times.push(start.elapsed());
    }

    producer.join().expect("producer");
    let seqs = consumer.join().expect("consumer");

    println!("E4: live splice latency over a {PACKETS}-packet audio stream ({SPLICES} splices)");
    rule(66);
    for (label, mut times) in [("insert", insert_times), ("remove", remove_times)] {
        times.sort_unstable();
        let total: Duration = times.iter().sum();
        println!(
            "{label:>7}: median {:>9.1?}   p90 {:>9.1?}   p99 {:>9.1?}   mean {:>9.1?}",
            percentile(&times, 0.50),
            percentile(&times, 0.90),
            percentile(&times, 0.99),
            total / times.len() as u32,
        );
    }
    rule(66);
    let in_order = seqs.iter().enumerate().all(|(i, s)| *s == i as u64);
    println!(
        "stream integrity: {} of {} packets delivered, in order: {}",
        seqs.len(),
        PACKETS,
        in_order
    );
    println!(
        "splices ran while the stream delivered packets {}..{}",
        spliced_at[0],
        spliced_at[SPLICES - 1]
    );
    println!("stream stats: {:?}", proxy.stream_stats("audio").expect("stream"));
    assert_eq!(seqs.len() as u64, PACKETS, "no packet may be lost by a splice");
    assert!(in_order, "no packet may be reordered by a splice");
    proxy.shutdown().expect("shutdown");
    println!("expected shape: a splice waits only for the batch in progress (microseconds),");
    println!("and integrity always holds.");
}
