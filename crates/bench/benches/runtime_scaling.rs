//! Session density: 256 fanout sessions hosted on an 8-worker pool.
//!
//! The claim under test: a session costs **zero** dedicated OS threads —
//! the head chain, the fanout stage, and every lane run as cooperative
//! tasks on a fixed pool — so a machine hosts hundreds of concurrent
//! sessions on `WORKERS` threads.
//!
//! The bench hosts `SESSIONS` live sessions (one filtered head stage, one
//! receiver lane each), pushes a burst of packets through every session,
//! and verifies delivery.  The threads used to host them are read from
//! `/proc/self/status` around pool start-up *and* session set-up (falling
//! back to the analytic count off Linux), and the bench asserts that the
//! count is exactly `WORKERS`: hosting 256 sessions spawned nothing beyond
//! the pool.
//!
//! The run repeats `REPETITIONS` times (sessions are single-use: `drive`
//! closes every input, so a repetition rebuilds them from scratch); every
//! packets/second sample and the measured thread count go to
//! `BENCH_runtime_scaling.json` at the workspace root.
//!
//! Run with `cargo bench -p rapidware-bench --bench runtime_scaling`.

use std::time::Instant;

use rapidware::packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware::proxy::FilterSpec;
use rapidware::runtime::{Runtime, RuntimeConfig};
use rapidware_bench::report::{median, BenchReport};

const SESSIONS: usize = 256;
const WORKERS: usize = 8;
const PACKETS_PER_SESSION: u64 = 100;
const PIPE_CAPACITY: usize = 256; // a whole burst fits: drains can be sequential
const BATCH_SIZE: usize = 16;
const REPETITIONS: usize = 3;

fn packet(seq: u64) -> Packet {
    Packet::new(StreamId::new(1), SeqNo::new(seq), PacketKind::AudioData, vec![(seq % 251) as u8; 64])
}

/// Threads of the current process per `/proc/self/status`; `None` off
/// Linux.
fn current_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|rest| rest.trim().parse().ok())
}

/// Thread cost of hosting the sessions, measured around `setup`; falls
/// back to `analytic` when `/proc` is unavailable.
fn hosting_threads<T>(analytic: usize, setup: impl FnOnce() -> T) -> (usize, T) {
    let before = current_threads();
    let hosted = setup();
    let threads = match (before, current_threads()) {
        (Some(before), Some(after)) if after > before => after - before,
        _ => analytic,
    };
    (threads, hosted)
}

/// Pushes one burst through every session and drains every lane,
/// returning source packets/second.  `inputs_and_lanes` supplies, per
/// session, the input endpoint and the lane endpoint.
fn drive(
    inputs: &[rapidware::streams::DetachableSender<Packet>],
    lanes: &[rapidware::streams::DetachableReceiver<Packet>],
) -> f64 {
    let start = Instant::now();
    for input in inputs {
        for seq in 0..PACKETS_PER_SESSION {
            input.send(packet(seq)).expect("session inputs stay open");
        }
        input.close();
    }
    let mut delivered = 0usize;
    for lane in lanes {
        while let Ok(p) = lane.recv() {
            assert!(p.kind().is_payload());
            delivered += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(
        delivered,
        SESSIONS * PACKETS_PER_SESSION as usize,
        "every lane must deliver its session's whole burst"
    );
    (SESSIONS as u64 * PACKETS_PER_SESSION) as f64 / elapsed
}

/// One full run: 256 sessions as tasks on `WORKERS` fixed workers.
/// Returns (threads used to host, packets/second).
fn pooled_run() -> (usize, f64) {
    let (pooled_threads, (runtime, pooled)) = hosting_threads(WORKERS, || {
        let runtime = Runtime::start(
            RuntimeConfig::new(WORKERS, BATCH_SIZE).with_pipe_capacity(PIPE_CAPACITY),
        );
        let sessions: Vec<_> = (0..SESSIONS)
            .map(|i| {
                let session = runtime.add_session(format!("pooled-{i}"));
                session
                    .insert_head_filter(0, &FilterSpec::new("null"))
                    .expect("null is a registered kind");
                let lane = session.add_lane("lane").expect("fresh session");
                let input = session.input();
                (session, input, lane)
            })
            .collect();
        (runtime, sessions)
    });
    let inputs: Vec<_> = pooled.iter().map(|(_, input, _)| input.clone()).collect();
    let lanes: Vec<_> = pooled.iter().map(|(_, _, lane)| lane.clone()).collect();
    let pooled_pps = drive(&inputs, &lanes);
    for (session, _, _) in &pooled {
        session.shutdown().expect("clean shutdown");
    }
    drop(pooled);
    assert_eq!(runtime.live_tasks(), 0, "no leaked tasks after the pooled run");
    runtime.shutdown().expect("worker pool joins cleanly");
    (pooled_threads, pooled_pps)
}

fn main() {
    println!(
        "runtime scaling: {SESSIONS} fanout sessions (1 head filter + 1 lane), \
         burst of {PACKETS_PER_SESSION} packets each, {REPETITIONS} repetitions"
    );
    println!("{}", "-".repeat(72));

    // The thread count comes from the first repetition (it is a property
    // of the topology, not of load); throughput keeps every sample.
    let mut pooled_threads = 0usize;
    let mut pooled_samples = Vec::with_capacity(REPETITIONS);
    for rep in 0..REPETITIONS {
        let (threads, pps) = pooled_run();
        if rep == 0 {
            pooled_threads = threads;
        }
        pooled_samples.push(pps);
    }
    let pooled_pps = median(&pooled_samples);
    println!(
        "sharded pool: {pooled_threads:>5} threads  {:>8.2} sessions/thread  {pooled_pps:>12.0} pkts/s",
        SESSIONS as f64 / pooled_threads as f64
    );

    // Write the report before the assert: a machine that misses it still
    // leaves its numbers behind for inspection.
    let mut report = BenchReport::new("runtime_scaling");
    report.record("pooled/throughput", "packets/s", &pooled_samples);
    report.record("pooled/hosting-threads", "threads", &[pooled_threads as f64]);
    let path = report.write().expect("writing the bench report");
    println!("report: {}", path.display());

    assert_eq!(
        pooled_threads, WORKERS,
        "hosting {SESSIONS} sessions must cost exactly the pool's {WORKERS} workers"
    );
}
