//! E5 — per-filter composition overhead ("null proxy" chains).
//!
//! The paper's architecture pays one thread plus one detachable pipe per
//! filter.  This experiment measures stream throughput as a function of
//! chain depth for do-nothing (null) filters, two ways: the synchronous
//! chain (pure composition cost) and a live pooled proxy stream (the same
//! chain as one task on the worker pool, plus the pipe hand-off into and
//! out of the proxy).
//!
//! Run with `cargo run --release -p rapidware-bench --bin e5_chain_overhead`.

use std::time::Instant;

use rapidware::filters::{FilterChain, NullFilter};
use rapidware::media::AudioSource;
use rapidware::packet::StreamId;
use rapidware::proxy::{FilterSpec, Proxy, RuntimeConfig};
use rapidware_bench::rule;

const PACKETS: u64 = 50_000;

fn sync_throughput(depth: usize) -> f64 {
    let mut chain = FilterChain::new();
    for _ in 0..depth {
        chain.push_back(Box::new(NullFilter::new())).expect("push");
    }
    let mut source = AudioSource::pcm_default(StreamId::new(1));
    let start = Instant::now();
    let mut delivered = 0u64;
    for _ in 0..PACKETS {
        delivered += chain.process(source.next_packet()).expect("process").len() as u64;
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(delivered, PACKETS);
    PACKETS as f64 / elapsed
}

fn pooled_throughput(depth: usize) -> f64 {
    let mut proxy = Proxy::with_runtime("e5", RuntimeConfig::default().with_pipe_capacity(256));
    let (input, output) = proxy.add_stream_pooled("audio").expect("stream");
    for position in 0..depth {
        proxy.insert_filter("audio", position, &FilterSpec::new("null")).expect("insert");
    }
    let consumer = std::thread::spawn(move || {
        let mut count = 0u64;
        while output.recv().is_ok() {
            count += 1;
        }
        count
    });
    let mut source = AudioSource::pcm_default(StreamId::new(1));
    let start = Instant::now();
    for _ in 0..PACKETS {
        input.send(source.next_packet()).expect("send");
    }
    input.close();
    let delivered = consumer.join().expect("consumer");
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(delivered, PACKETS);
    proxy.shutdown().expect("shutdown");
    PACKETS as f64 / elapsed
}

fn main() {
    println!("E5: null-filter chain overhead ({PACKETS} packets of 320-byte audio per point)");
    println!(
        "{:>6}  {:>22}  {:>22}  {:>8}",
        "depth", "sync (packets/s)", "pooled (packets/s)", "ratio"
    );
    rule(66);
    for depth in [0usize, 1, 2, 4, 6, 8] {
        let sync = sync_throughput(depth);
        let pooled = pooled_throughput(depth);
        println!("{:>6}  {:>22.0}  {:>22.0}  {:>8.2}", depth, sync, pooled, sync / pooled);
    }
    rule(66);
    println!("expected shape: sync throughput decreases roughly linearly with chain depth;");
    println!("the pooled stream pays a constant factor for the pipe hand-offs in and out");
    println!("and the task wake-ups, but no per-stage thread or pipe, so its cost grows");
    println!("with depth only by the filters' own work.");
}
