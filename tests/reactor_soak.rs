//! The readiness-reactor soak suite: **1000 concurrent UDP sessions
//! multiplexed over 4 shared carrier sockets**, all of them serviced by a
//! fixed 4-worker pool plus one reactor thread — zero per-session and
//! zero per-socket threads.
//!
//! What it proves about the shared-socket data plane:
//!
//! * **scale without threads** — the process thread count is *flat* as the
//!   session count grows from 100 to 1000;
//! * **no deadlock** — the whole soak (window-paced sends, non-blocking
//!   drains) finishes inside a hard wall-clock bound enforced by a
//!   watchdog;
//! * **demux correctness** — every session's packets come back on that
//!   session's app-side route only, in order, and per-session
//!   `sent == delivered + lost + undelivered` holds from independent
//!   counters;
//! * **per-stream FIN routing** — closing one session's input ends exactly
//!   that session's app-side stream; its ~250 socket-mates on the same
//!   carrier keep flowing until their own FIN;
//! * **clean teardown** — after the proxy shuts down, the runtime reports
//!   **zero** live tasks and the reactor thread is gone.

mod common;

use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use rapidware::packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware::proxy::{
    Proxy, SharedUdpSessionConfig, SharedUdpSessionHandle, SharedUdpStreamConfig,
    SharedUdpStreamHandle, UdpCarrierConfig,
};
use rapidware::runtime::RuntimeConfig;
use rapidware::streams::{DetachableReceiver, TryRecvError};
use rapidware::transport::{SharedDrain, SharedUdpIngress, UdpConfig};

use common::{assert_conservation, env_profile, watchdog};

const SHARDS: usize = 4;
const CARRIERS: usize = 4;
const BATCH_SIZE: usize = 8;
const PIPE_CAPACITY: usize = 64;
/// Sessions per send burst: bounds datagrams in flight per carrier socket
/// well under the kernel receive buffer, so loopback stays lossless.
const CHUNK: usize = 64;
/// Packets per session per round; ROUNDS * WINDOW packets per session total.
const WINDOW: u64 = 5;
const ROUNDS: u64 = 6;
const SOAK_WALL_CLOCK: Duration = Duration::from_secs(240);
const STALL_BOUND: Duration = Duration::from_secs(30);

/// Current thread count of the test process (Linux: one entry per task).
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs is available on CI").count()
}

/// Names of every live thread in the test process.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs is available on CI")
        .filter_map(|entry| {
            let path = entry.ok()?.path().join("comm");
            Some(std::fs::read_to_string(path).ok()?.trim().to_string())
        })
        .collect()
}

/// The proxy-side input of one soak flow: the soak alternates between the
/// flat shared-stream placement and the pooled shared-session placement.
enum FlowHandle {
    Stream(SharedUdpStreamHandle),
    Session(SharedUdpSessionHandle),
}

impl FlowHandle {
    fn close_input(&self) {
        match self {
            FlowHandle::Stream(handle) => handle.close_input(),
            FlowHandle::Session(handle) => handle.close_input(),
        }
    }
}

/// One multiplexed session as the soak driver sees it: its stream id, the
/// carrier it rides, its app-side route, and independent delivery tallies.
struct Flow {
    name: String,
    stream: StreamId,
    carrier: usize,
    handle: FlowHandle,
    route: DetachableReceiver<Packet>,
    sent: u64,
    delivered: u64,
    next_expected: u64,
    eof: bool,
}

fn flow_packet(stream: StreamId, seq: u64) -> Packet {
    Packet::new(stream, SeqNo::new(seq), PacketKind::AudioData, vec![(seq % 251) as u8; 8])
}

/// Drains every app-side carrier socket until momentarily empty.
fn drain_app(apps: &[SharedUdpIngress]) {
    for app in apps {
        while app.drain_batch() == SharedDrain::MoreReady {}
    }
}

/// Drains one flow's route, checking per-session order.
fn drain_flow(flow: &mut Flow) {
    while let Ok(batch) = flow.route.try_recv_up_to(BATCH_SIZE) {
        for packet in &batch {
            assert_eq!(packet.stream(), flow.stream, "{}: foreign packet on route", flow.name);
            assert_eq!(
                packet.seq().value(),
                flow.next_expected,
                "{}: delivered out of order",
                flow.name
            );
            flow.next_expected += 1;
        }
        flow.delivered += batch.len() as u64;
    }
}

/// The whole soak body; runs on a watchdog-supervised thread.
#[allow(clippy::too_many_lines)]
fn run_soak() {
    let session_count = env_profile("RAPIDWARE_REACTOR_SESSIONS", 1000);
    let checkpoint = session_count.min(100);

    let mut proxy = Proxy::with_runtime(
        "reactor-soak",
        RuntimeConfig::new(SHARDS, BATCH_SIZE).with_pipe_capacity(PIPE_CAPACITY),
    );
    let udp_config = UdpConfig::default().with_capacity(PIPE_CAPACITY);
    let apps: Vec<SharedUdpIngress> = (0..CARRIERS)
        .map(|_| {
            SharedUdpIngress::bind("127.0.0.1:0", &udp_config)
                .expect("binding an app-side shared socket")
        })
        .collect();
    let mut carrier_addrs: Vec<SocketAddr> = Vec::with_capacity(CARRIERS);
    for index in 0..CARRIERS {
        let handle = proxy
            .add_udp_carrier(
                format!("carrier-{index}"),
                UdpCarrierConfig::new().with_capacity(PIPE_CAPACITY).with_batch_size(BATCH_SIZE),
            )
            .expect("fresh carrier names are free");
        carrier_addrs.push(handle.ingress_addr());
    }

    // Build the sessions: even indices as shared-socket streams, odd ones
    // as shared-socket pooled sessions with one lane — both demux paths at
    // scale.  Capture the thread count at the checkpoint so growth past it
    // is provably thread-free.
    let mut flows: Vec<Flow> = Vec::with_capacity(session_count);
    let mut threads_at_checkpoint = 0usize;
    for index in 0..session_count {
        let carrier = index % CARRIERS;
        let stream = StreamId::new(u32::try_from(index + 1).expect("session count fits in u32"));
        let name = format!("flow-{index}");
        let route = apps[carrier].open_stream(stream).expect("stream ids are unique");
        let handle = if index % 2 == 0 {
            FlowHandle::Stream(
                proxy
                    .add_stream_udp_shared(
                        &name,
                        SharedUdpStreamConfig::on_carrier(
                            format!("carrier-{carrier}"),
                            apps[carrier].local_addr(),
                        )
                        .with_stream(stream)
                        .with_capacity(PIPE_CAPACITY)
                        .with_batch_size(BATCH_SIZE),
                    )
                    .expect("fresh shared stream"),
            )
        } else {
            FlowHandle::Session(
                proxy
                    .add_session_udp_shared(
                        &name,
                        SharedUdpSessionConfig::on_carrier(format!("carrier-{carrier}"))
                            .with_stream(stream)
                            .with_lane("out", apps[carrier].local_addr())
                            .with_capacity(PIPE_CAPACITY)
                            .with_batch_size(BATCH_SIZE),
                    )
                    .expect("fresh shared session"),
            )
        };
        flows.push(Flow {
            name,
            stream,
            carrier,
            handle,
            route,
            sent: 0,
            delivered: 0,
            next_expected: 0,
            eof: false,
        });
        if index + 1 == checkpoint {
            threads_at_checkpoint = thread_count();
        }
    }

    // Zero per-session threads: the 10x session growth after the
    // checkpoint must not have spawned a single thread.
    assert_eq!(
        thread_count(),
        threads_at_checkpoint,
        "thread count must stay flat from {checkpoint} to {session_count} sessions"
    );
    let runtime = proxy.runtime().expect("the soak proxy runs a pool").clone();
    assert_eq!(runtime.reactor_sockets(), 2 * CARRIERS, "one readable + one writable registration per carrier");

    // Window-paced traffic: per chunk of sessions, burst WINDOW datagrams
    // each, then drain until the chunk has caught up.  The barrier bounds
    // in-flight data (lossless loopback) and proves continuous progress.
    let tx = UdpSocket::bind("127.0.0.1:0").expect("binding the app-side send socket");
    let mut scratch = Vec::new();
    for _ in 0..ROUNDS {
        for chunk in flows.chunks_mut(CHUNK) {
            for flow in chunk.iter_mut() {
                for _ in 0..WINDOW {
                    let packet = flow_packet(flow.stream, flow.sent);
                    packet.encode_into(&mut scratch);
                    tx.send_to(&scratch, carrier_addrs[flow.carrier])
                        .expect("loopback sends do not fail");
                    flow.sent += 1;
                }
            }
            let deadline = Instant::now() + STALL_BOUND;
            loop {
                drain_app(&apps);
                let mut caught_up = true;
                for flow in chunk.iter_mut() {
                    drain_flow(flow);
                    caught_up &= flow.delivered == flow.sent;
                }
                if caught_up {
                    break;
                }
                assert!(Instant::now() < deadline, "a session chunk stalled mid-round");
                std::thread::yield_now();
            }
        }
    }

    // By now every thread has been scheduled (traffic crossed all of
    // them), so thread *names* are reliable: the process runs exactly one
    // reactor thread and the fixed shard workers at any scale.  (A freshly
    // spawned thread shows its parent's name until its first time slice,
    // which is why this check sits after the traffic rounds rather than
    // right after setup.)
    let names = thread_names();
    assert_eq!(
        names.iter().filter(|name| name.starts_with("rapidware-react")).count(),
        1,
        "exactly one reactor thread services all carriers: {names:?}"
    );
    assert_eq!(
        names.iter().filter(|name| name.starts_with("rapidware-shard")).count(),
        SHARDS,
        "a fixed worker pool, no matter the session count: {names:?}"
    );

    // Staggered FIN: close one session's input first and drain it to EOF
    // while every socket-mate is still open — per-stream FIN must not
    // leak to the neighbours.
    flows[0].handle.close_input();
    let deadline = Instant::now() + STALL_BOUND;
    while !flows[0].eof {
        drain_app(&apps);
        flows[0].poll_eof();
        assert!(Instant::now() < deadline, "first FIN never reached its route");
        std::thread::yield_now();
    }
    for flow in &flows[1..] {
        assert!(
            !matches!(flow.route.try_recv(), Err(TryRecvError::Eof | TryRecvError::Closed)),
            "{}: a neighbour's FIN ended this stream",
            flow.name
        );
    }

    // Teardown: EOF every remaining session, drain all routes dry, and
    // check per-session conservation from independent counters.
    for flow in &flows[1..] {
        flow.handle.close_input();
    }
    let deadline = Instant::now() + STALL_BOUND;
    loop {
        drain_app(&apps);
        let mut all_ended = true;
        for flow in flows.iter_mut().filter(|flow| !flow.eof) {
            flow.poll_eof();
            all_ended &= flow.eof;
        }
        if all_ended {
            break;
        }
        assert!(Instant::now() < deadline, "a session never delivered its FIN");
        std::thread::yield_now();
    }
    let total = ROUNDS * WINDOW;
    for flow in &flows {
        let undelivered = flow.route.available() as u64;
        assert_conservation(&flow.name, flow.sent, flow.delivered, 0, undelivered);
        assert_eq!(flow.sent, total);
        assert_eq!(flow.next_expected, total, "{}: delivered set has gaps", flow.name);
    }

    // The carriers saw exactly the soak's traffic: all datagrams routed,
    // none to unknown streams, none dropped.
    let status = proxy.status();
    assert_eq!(status.transports.len(), CARRIERS);
    let rx_packets: u64 = status.transports.iter().map(|t| t.ingress.rx_packets).sum();
    assert_eq!(rx_packets, total * session_count as u64, "every datagram demuxed to a session");
    for transport in &status.transports {
        assert_eq!(transport.unknown_streams, 0, "{}: unknown-stream drops", transport.name);
        assert_eq!(transport.ingress.dropped, 0, "{}: ingress dropped frames", transport.name);
        assert_eq!(transport.egress.dropped, 0, "{}: egress dropped frames", transport.name);
    }

    // Clean shutdown: no leaked tasks, reactor thread gone.
    proxy.shutdown().expect("clean proxy shutdown");
    assert_eq!(runtime.live_tasks(), 0, "leaked shard tasks after proxy shutdown");
    assert!(
        !thread_names().iter().any(|name| name.starts_with("rapidware-react")),
        "the reactor thread must stop with the proxy"
    );
}

impl Flow {
    /// Drains the route and records EOF once the FIN lands.
    fn poll_eof(&mut self) {
        drain_flow(self);
        if matches!(self.route.try_recv(), Err(TryRecvError::Eof | TryRecvError::Closed)) {
            self.eof = true;
        }
    }
}

#[test]
fn soak_1000_sessions_over_4_shared_sockets_on_a_4_worker_pool() {
    watchdog("reactor-soak", SOAK_WALL_CLOCK, run_soak);
}
