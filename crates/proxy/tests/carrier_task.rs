//! A carrier is one pool task: each step drains the socket, runs caught-up
//! routes in place and flushes every lane, and idle workers wait for its
//! socket in `epoll_wait` themselves.  These tests pin what that must not
//! lose: output a session task produces off the socket path, carrier
//! service beside a pooled task that never lets its worker park, and a
//! clean shutdown under traffic.
//!
//! Every test runs its body under a watchdog, so a lost wake fails in
//! seconds instead of hanging the suite, and takes one lock, so the thread
//! census of the shutdown test sees no other test's pool.

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware_proxy::{
    FilterSpec, Proxy, RuntimeConfig, SharedUdpSessionConfig, SharedUdpStreamConfig,
    UdpCarrierConfig,
};

const WATCHDOG: Duration = Duration::from_secs(60);

static SERIAL: Mutex<()> = Mutex::new(());

/// Runs `body` on its own thread and fails the test if it has not
/// returned within [`WATCHDOG`].
fn watchdog(what: &'static str, body: impl FnOnce() + Send + 'static) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (done, finished) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(WATCHDOG) {
        Ok(()) => runner.join().expect("the test body returned"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("the body panicked"))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("hung for {WATCHDOG:?}: {what}"),
    }
}

fn packet(stream: u32, seq: u64) -> Packet {
    Packet::new(StreamId::new(stream), SeqNo::new(seq), PacketKind::AudioData, vec![7u8; 32])
}

fn encode_to(socket: &UdpSocket, peer: SocketAddr, packet: &Packet) {
    let mut scratch = Vec::new();
    packet.encode_into(&mut scratch);
    socket.send_to(&scratch, peer).unwrap();
}

/// The application end of the wire: a blocking socket that counts what
/// the proxy sends it.
struct App {
    socket: UdpSocket,
    received: u64,
}

impl App {
    fn bind() -> Self {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        socket.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        Self { socket, received: 0 }
    }

    fn addr(&self) -> SocketAddr {
        self.socket.local_addr().unwrap()
    }

    /// Receives until `count` datagrams have arrived in all.
    fn receive_to(&mut self, count: u64) {
        let mut datagram = [0u8; 2048];
        while self.received < count {
            if self.socket.recv_from(&mut datagram).is_ok() {
                self.received += 1;
            }
        }
    }
}

fn rapidware_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs is mounted")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("rapidware-"))
        .count()
}

#[test]
fn output_a_session_task_produces_reaches_the_wire_with_no_socket_readiness() {
    watchdog("session-task output never reached the wire", || {
        const PACKETS: u64 = 200;
        let mut app = App::bind();
        let mut proxy = Proxy::with_runtime("task", RuntimeConfig::new(2, 8));
        let registry = proxy.enable_telemetry();
        proxy.add_udp_carrier("wire", UdpCarrierConfig::new()).unwrap();
        proxy
            .add_session_udp_shared(
                "s",
                SharedUdpSessionConfig::on_carrier("wire")
                    .with_stream(StreamId::new(1))
                    .with_lane("out", app.addr()),
            )
            .unwrap();
        // Fed past the socket: the session's own task runs every batch,
        // and only the lane watcher can tell the carrier to send.
        let input = proxy.pooled_session("s").unwrap().input();
        for seq in 0..PACKETS {
            input.send(packet(1, seq)).unwrap();
        }
        app.receive_to(PACKETS);
        let polled = registry.histogram("runtime.reactor.scan_ns").snapshot().count();
        assert_eq!(polled, 0, "nothing reached the carrier socket, yet a poll reported it");
        // The send counter moves after the kernel took the datagrams,
        // which loopback may deliver first.
        while proxy.status().transports[0].egress.tx_packets < PACKETS {
            std::thread::yield_now();
        }
        assert_eq!(proxy.status().transports[0].ingress.rx_datagrams, 0);
        proxy.shutdown().unwrap();
    });
}

#[test]
fn a_saturated_pooled_stream_does_not_starve_a_carrier_on_a_one_worker_pool() {
    watchdog("the carrier starved behind a saturated pooled stream", || {
        const DATAGRAMS: u64 = 1_000;
        // Chunks the carrier socket buffers whole, so the kernel drops none.
        const CHUNK: u64 = 100;
        let mut app = App::bind();
        // A deep inbox, so the producer losing its CPU for a while does not
        // let it run dry either.
        let config = RuntimeConfig::new(1, 32).with_pipe_capacity(1 << 16);
        let mut proxy = Proxy::with_runtime("starve", config);
        let carrier = proxy.add_udp_carrier("wire", UdpCarrierConfig::new()).unwrap();
        proxy
            .add_stream_udp_shared(
                "carried",
                SharedUdpStreamConfig::on_carrier("wire", app.addr()).with_stream(StreamId::new(1)),
            )
            .unwrap();
        // The busy stream encodes and decodes FEC over 1 KiB payloads, then
        // drops them all, so its output never fills; a spinning producer
        // outruns it and keeps its inbox from running dry.  Its task is
        // always ready, and the one worker never parks in `epoll_wait`.
        let (busy, _output) = proxy.add_stream_pooled("busy").unwrap();
        for (at, spec) in [
            FilterSpec::new("fec-encoder"),
            FilterSpec::new("fec-decoder"),
            FilterSpec::new("drop-every").with_param("n", "1"),
        ]
        .iter()
        .enumerate()
        {
            proxy.insert_filter("busy", at, spec).unwrap();
        }
        let running = Arc::new(AtomicBool::new(true));
        let producer = {
            let running = Arc::clone(&running);
            std::thread::spawn(move || {
                let template: Vec<Packet> = (0..64)
                    .map(|seq| {
                        let kind = PacketKind::AudioData;
                        Packet::new(StreamId::new(2), SeqNo::new(seq), kind, vec![3u8; 1024])
                    })
                    .collect();
                while running.load(Ordering::Relaxed) {
                    if busy.try_send_batch(template.clone()).is_err() {
                        return;
                    }
                }
            })
        };
        // The busy task is running, on a full inbox, before the first
        // datagram lands.  This thread sleeps rather than spin, leaving
        // the producer its CPU.
        while proxy.stream_stats("busy").unwrap().packets_in < 1 << 17 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut sent = 0;
        while sent < DATAGRAMS {
            for _ in 0..CHUNK {
                encode_to(&tx, carrier.ingress_addr(), &packet(1, sent));
                sent += 1;
            }
            app.receive_to(sent);
        }
        assert_eq!(carrier.ingress_stats().dropped(), 0);
        running.store(false, Ordering::Relaxed);
        producer.join().unwrap();
        proxy.shutdown().unwrap();
    });
}

#[test]
fn a_hundred_proxies_shut_down_under_live_traffic_leave_no_task_and_no_thread() {
    watchdog("a proxy shutdown under traffic hung", || {
        let app = App::bind();
        for round in 0..100u64 {
            let mut proxy = Proxy::with_runtime("churn", RuntimeConfig::new(2, 8));
            let carrier = proxy.add_udp_carrier("wire", UdpCarrierConfig::new()).unwrap();
            proxy
                .add_stream_udp_shared(
                    "s",
                    SharedUdpStreamConfig::on_carrier("wire", app.addr())
                        .with_stream(StreamId::new(1)),
                )
                .unwrap();
            let runtime = Arc::clone(proxy.runtime().expect("a live pool"));
            let running = Arc::new(AtomicBool::new(true));
            let sender = {
                let (running, to) = (Arc::clone(&running), carrier.ingress_addr());
                std::thread::spawn(move || {
                    let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
                    let mut seq = 0;
                    while running.load(Ordering::Relaxed) {
                        encode_to(&tx, to, &packet(1, seq));
                        seq += 1;
                        if seq % 16 == 0 {
                            std::thread::yield_now();
                        }
                    }
                })
            };
            // Mid-stream: some traffic has gone through, more is landing.
            let deadline = Instant::now() + WATCHDOG;
            while carrier.egress_stats().tx_packets() < 10 {
                assert!(Instant::now() < deadline, "round {round}: no traffic went through");
                std::thread::yield_now();
            }
            proxy.shutdown().unwrap();
            running.store(false, Ordering::Relaxed);
            sender.join().unwrap();
            assert_eq!(runtime.live_tasks(), 0, "round {round}: leaked tasks");
            assert_eq!(runtime.reactor_sockets(), 0, "round {round}: a socket stayed registered");
            assert_eq!(rapidware_threads(), 0, "round {round}: a pool thread outlived shutdown");
        }
    });
}
