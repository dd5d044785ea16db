//! Socket-path vs in-process-pipe throughput, at batch sizes 1 and 32.
//!
//! The question this answers: what does leaving the process cost?  The
//! same null chain on the same two-worker pool moves the same packets
//! either over detachable pipes (`Proxy::add_stream_pooled`) or over two
//! loopback UDP sockets through a reactor-driven carrier
//! (`Proxy::add_stream_udp_shared` — encode, datagram, decode on both
//! edges, batched readiness drains on the worker pool), so the two legs
//! differ by the sockets alone, and both are measured at a per-packet
//! batch size and at batch 32.
//!
//! The wire path pays for framing (encode + CRC + decode) and two kernel
//! crossings per packet, so the pipe path is expected to win by an order
//! of magnitude; the number that matters is the socket path's absolute
//! packets/second, which bounds what one proxy ingress can absorb from a
//! real network.  The run asserts only sanity (every packet arrives);
//! ratios are reported, not asserted, because kernel UDP performance is
//! not ours to promise.
//!
//! Every path runs `REPETITIONS` times; the table prints medians and the
//! full samples go to `BENCH_udp_throughput.json` at the workspace root.
//!
//! Run with `cargo bench -p rapidware-bench --bench udp_throughput`.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use rapidware::packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware::proxy::{Proxy, SharedUdpStreamConfig, UdpCarrierConfig};
use rapidware::runtime::RuntimeConfig;
use rapidware::streams::{DetachableReceiver, TryRecvError};
use rapidware::transport::{SharedDrain, SharedUdpIngress, UdpConfig};
use rapidware_bench::report::{median, BenchReport};

const PACKETS: u64 = 20_000;
const WINDOW: u64 = 100;
const PAYLOAD: usize = 256;
const CAPACITY: usize = 512;
const REPETITIONS: usize = 3;

/// Runs `measure` `REPETITIONS` times and returns every packets/second
/// sample.
fn pps_samples(measure: impl Fn() -> f64) -> Vec<f64> {
    (0..REPETITIONS).map(|_| measure()).collect()
}

fn packet(seq: u64) -> Packet {
    Packet::new(
        StreamId::new(1),
        SeqNo::new(seq),
        PacketKind::AudioData,
        vec![(seq % 251) as u8; PAYLOAD],
    )
}

/// Drains `count` packets, panicking if the stream stalls for 60 s.
fn drain(rx: &DetachableReceiver<Packet>, count: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut received = 0u64;
    while received < count {
        assert!(Instant::now() < deadline, "stream stalled at {received}/{count}");
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(_) => received += 1,
            Err(TryRecvError::Empty) => continue,
            Err(other) => panic!("stream ended early: {other}"),
        }
    }
    received
}

/// Pipes end to end: producer thread writes the chain input, main thread
/// drains the output.  Returns packets/second.
fn pipe_path(batch_size: usize) -> f64 {
    let mut proxy = Proxy::with_runtime(
        "bench",
        RuntimeConfig::new(2, batch_size).with_pipe_capacity(CAPACITY),
    );
    let (input, output) = proxy.add_stream_pooled("s").unwrap();
    let producer = std::thread::spawn(move || {
        for window in 0..(PACKETS / WINDOW) {
            let batch: Vec<Packet> = (window * WINDOW..(window + 1) * WINDOW).map(packet).collect();
            input.send_batch(batch).unwrap();
        }
    });
    let start = Instant::now();
    let received = drain(&output, PACKETS);
    let elapsed = start.elapsed();
    producer.join().unwrap();
    proxy.shutdown().unwrap();
    received as f64 / elapsed.as_secs_f64()
}

/// Sockets end to end: a producer thread encodes and sends datagrams to
/// the proxy's carrier socket, which the reactor drains in batches on the
/// worker pool; the main thread drains the app-side socket
/// non-blockingly.  Returns packets/second.
fn shared_path(batch_size: usize) -> f64 {
    let app = SharedUdpIngress::bind(
        "127.0.0.1:0",
        &UdpConfig::default().with_capacity(CAPACITY).with_batch_size(batch_size),
    )
    .unwrap();
    let route = app.open_stream(StreamId::new(1)).unwrap();
    let mut proxy = Proxy::with_runtime(
        "bench",
        RuntimeConfig::new(2, batch_size).with_pipe_capacity(CAPACITY),
    );
    let carrier = proxy
        .add_udp_carrier(
            "carrier",
            UdpCarrierConfig::new().with_capacity(CAPACITY).with_batch_size(batch_size),
        )
        .unwrap();
    proxy
        .add_stream_udp_shared(
            "s",
            SharedUdpStreamConfig::on_carrier("carrier", app.local_addr())
                .with_stream(StreamId::new(1))
                .with_capacity(CAPACITY)
                .with_batch_size(batch_size),
        )
        .unwrap();
    let ingress_addr = carrier.ingress_addr();
    // Paced end to end against the *receiver-side* counter (UDP has no
    // back-pressure): the producer never runs a full window ahead of the
    // app-side receive counter, which the main thread advances by calling
    // `drain_batch`, so no socket buffer on the path can overflow.
    let app_stats = app.stats();
    let producer = std::thread::spawn(move || {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut scratch = Vec::new();
        for window in 0..(PACKETS / WINDOW) {
            for seq in window * WINDOW..(window + 1) * WINDOW {
                packet(seq).encode_into(&mut scratch);
                socket.send_to(&scratch, ingress_addr).unwrap();
            }
            while app_stats.rx_datagrams() < (window + 1) * WINDOW {
                std::thread::yield_now();
            }
        }
    });
    let start = Instant::now();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut received = 0u64;
    while received < PACKETS {
        assert!(Instant::now() < deadline, "shared stream stalled at {received}/{PACKETS}");
        while app.drain_batch() == SharedDrain::MoreReady {}
        match route.try_recv_up_to(batch_size) {
            Ok(batch) => received += batch.len() as u64,
            Err(TryRecvError::Empty) => std::thread::yield_now(),
            Err(other) => panic!("shared stream ended early: {other}"),
        }
    }
    let elapsed = start.elapsed();
    producer.join().unwrap();
    proxy.shutdown().unwrap();
    received as f64 / elapsed.as_secs_f64()
}

fn main() {
    println!(
        "udp_throughput: {PACKETS} packets of {PAYLOAD} B through a null chain, \
         median of {REPETITIONS} runs\n"
    );
    println!("{:<28} {:>16} {:>16}", "path", "batch=1", "batch=32");
    let pipe_1_samples = pps_samples(|| pipe_path(1));
    let pipe_32_samples = pps_samples(|| pipe_path(32));
    let pipe_1 = median(&pipe_1_samples);
    let pipe_32 = median(&pipe_32_samples);
    println!("{:<28} {:>13.0} pps {:>13.0} pps", "in-process pipes", pipe_1, pipe_32);
    let shared_1_samples = pps_samples(|| shared_path(1));
    let shared_32_samples = pps_samples(|| shared_path(32));
    let shared_1 = median(&shared_1_samples);
    let shared_32 = median(&shared_32_samples);
    println!("{:<28} {:>13.0} pps {:>13.0} pps", "shared carrier (reactor)", shared_1, shared_32);
    println!(
        "\npipe/shared ratio: {:.1}x at batch=1, {:.1}x at batch=32",
        pipe_1 / shared_1,
        pipe_32 / shared_32
    );
    println!(
        "shared batched-drain gain: {:.2}x (batch=32 over batch=1)",
        shared_32 / shared_1
    );

    let mut report = BenchReport::new("udp_throughput");
    report.record("pipes/batch-1", "packets/s", &pipe_1_samples);
    report.record("pipes/batch-32", "packets/s", &pipe_32_samples);
    report.record("shared/batch-1", "packets/s", &shared_1_samples);
    report.record("shared/batch-32", "packets/s", &shared_32_samples);
    report.record("shared/batching-gain", "x", &[shared_32 / shared_1]);
    let path = report.write().expect("writing the bench report");
    println!("report: {}", path.display());
}
