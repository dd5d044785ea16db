//! Helpers shared by the integration suites (`runtime_soak`,
//! `udp_transport`, `scenario_matrix`, `generated_scenarios`, `chaos`,
//! `multicast_soak`).
//!
//! Every suite is its own binary, so each compiles just the subset it uses
//! — hence the `dead_code` allowance.  The helpers encode the house test
//! discipline:
//!
//! * **watchdogs, not sleeps** — anything that could wedge runs on a
//!   supervised thread ([`watchdog`]) or against a deadline
//!   ([`recv_app_count`]/[`drain_to_eof`]), so a deadlock fails the test
//!   instead of hanging CI;
//! * **app-side sockets are hand-driven** — the far end of every wire is a
//!   [`SharedUdpIngress`] with one route pipe ([`bind_app`]) whose
//!   `drain_batch()` the test's own receive loop calls ([`poll_app`]);
//! * **conservation, not vibes** — delivery claims go through
//!   [`assert_conservation`]: `sent == delivered + lost + undelivered`,
//!   with the terms tallied from *independent* counters;
//! * **seeded runs compare byte-for-byte** — applier agreement is asserted
//!   on canonical trace text via [`assert_same_outcome`].

#![allow(dead_code)]

use std::net::{SocketAddr, UdpSocket};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rapidware::packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware::streams::{pipe, DetachableReceiver, TryRecvError};
use rapidware::transport::{SharedUdpIngress, UdpConfig};

/// Default wall-clock bound for a whole suite body.
pub const WATCHDOG: Duration = Duration::from_secs(120);

/// A small deterministic audio-data packet: seq-derived payload of
/// `payload_len` bytes on stream 1.
pub fn audio_packet(seq: u64, payload_len: usize) -> Packet {
    Packet::new(
        StreamId::new(1),
        SeqNo::new(seq),
        PacketKind::AudioData,
        vec![(seq % 251) as u8; payload_len],
    )
}

/// Encodes `packet` and sends it as one datagram to `peer`.
pub fn send_encoded(socket: &UdpSocket, peer: SocketAddr, packet: &Packet) {
    let mut scratch = Vec::new();
    packet.encode_into(&mut scratch);
    socket.send_to(&scratch, peer).expect("loopback send never fails");
}

/// Runs `body` on a supervised thread and fails the test if it has not
/// finished within `wall_clock` — the no-deadlock bound every soak and
/// chaos suite runs under.  Panics from `body` propagate.
pub fn watchdog(name: &str, wall_clock: Duration, body: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    let thread = std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            body();
            let _ = done_tx.send(());
        })
        .expect("spawning the supervised test thread never fails");
    match done_rx.recv_timeout(wall_clock) {
        Ok(()) => thread.join().expect("supervised test thread must not panic"),
        Err(_) => panic!("{name} did not finish within {wall_clock:?}: deadlock or livelock"),
    }
}

/// Binds an application-side receive socket — the far end of a wire whose
/// near end is a proxy carrier — with `streams` routed onto one pipe (so
/// their relative order stays observable).  A FIN on any of them ends it.
pub fn bind_app(streams: &[u32]) -> (SharedUdpIngress, DetachableReceiver<Packet>) {
    let config = UdpConfig::default();
    let app = SharedUdpIngress::bind("127.0.0.1:0", &config)
        .expect("binding an ephemeral loopback socket");
    let (sink, route) = pipe(config.capacity);
    for stream in streams {
        app.open_stream_into(StreamId::new(*stream), sink.clone())
            .expect("a fresh socket has no routes");
    }
    (app, route)
}

/// One non-blocking receive step: drains `app` once and moves whatever its
/// route holds into `into`.  Returns `false` once the stream's FIN has
/// closed the route and everything before it was collected.
pub fn poll_app(
    app: &SharedUdpIngress,
    route: &DetachableReceiver<Packet>,
    into: &mut Vec<Packet>,
) -> bool {
    app.drain_batch();
    loop {
        match route.try_recv() {
            Ok(packet) => into.push(packet),
            Err(TryRecvError::Empty) => return true,
            Err(_) => return false,
        }
    }
}

/// Receives off `app`'s route until `count` packets have arrived (plus
/// whatever else the same drain pass delivered), under the deadline.
pub fn recv_app_count(
    app: &SharedUdpIngress,
    route: &DetachableReceiver<Packet>,
    count: usize,
    deadline: Instant,
) -> Vec<Packet> {
    let mut packets = Vec::with_capacity(count);
    while packets.len() < count {
        assert!(Instant::now() < deadline, "stream stalled at {}/{count}", packets.len());
        let open = poll_app(app, route, &mut packets);
        assert!(open || packets.len() >= count, "stream ended early at {}/{count}", packets.len());
    }
    packets
}

/// Receives off `app`'s route until the stream's FIN ends it, returning
/// what was left.
pub fn recv_app_to_eof(
    app: &SharedUdpIngress,
    route: &DetachableReceiver<Packet>,
    deadline: Instant,
) -> Vec<Packet> {
    let mut packets = Vec::new();
    while poll_app(app, route, &mut packets) {
        assert!(Instant::now() < deadline, "stream never ended ({} left over)", packets.len());
        std::thread::yield_now();
    }
    packets
}

/// Drains `rx` to EOF under the deadline, returning what was left.
pub fn drain_to_eof(rx: &DetachableReceiver<Packet>, deadline: Instant) -> Vec<Packet> {
    let mut packets = Vec::new();
    loop {
        assert!(Instant::now() < deadline, "stream never ended ({} left over)", packets.len());
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(packet) => packets.push(packet),
            Err(TryRecvError::Empty) => continue,
            Err(_) => return packets,
        }
    }
}

/// Non-blockingly drains `rx` to EOF (spinning through `Empty`), returning
/// the delivered-packet count.  For endpoints whose upstream is already
/// closing — pair with a [`watchdog`] so a wedge cannot spin forever.
pub fn drain_count_to_eof(rx: &DetachableReceiver<Packet>, batch: usize) -> u64 {
    let mut delivered = 0u64;
    loop {
        match rx.try_recv_up_to(batch) {
            Ok(packets) => delivered += packets.len() as u64,
            Err(TryRecvError::Empty) => std::thread::yield_now(),
            Err(_) => return delivered,
        }
    }
}

/// The conservation invariant every delivery path must satisfy:
/// `sent == delivered + lost + undelivered`, with each term tallied from an
/// independent counter (pipe stats vs. consumer tally vs. endpoint depth).
pub fn assert_conservation(context: &str, sent: u64, delivered: u64, lost: u64, undelivered: u64) {
    assert_eq!(
        sent,
        delivered + lost + undelivered,
        "{context}: conservation violated \
         (sent {sent} != delivered {delivered} + lost {lost} + undelivered {undelivered})"
    );
}

/// Asserts two appliers produced the same closed-loop outcome: canonical
/// trace text byte-for-byte, and equal reports.
pub fn assert_same_outcome<R: PartialEq + std::fmt::Debug>(
    context: &str,
    applier: &str,
    expected_trace: &str,
    expected_report: &R,
    actual_trace: &str,
    actual_report: &R,
) {
    assert_eq!(
        expected_trace, actual_trace,
        "{context}: sync and {applier} appliers diverge"
    );
    assert_eq!(
        expected_report, actual_report,
        "{context}: {applier} report differs"
    );
}

/// Reads a reduced-iteration profile from the environment: `name` must be a
/// positive integer if set; anything unset or unparsable falls back to
/// `default`.  CI jobs use this to run trimmed-down generated suites.
pub fn env_profile(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|value| value.trim().parse::<usize>().ok())
        .filter(|&count| count > 0)
        .unwrap_or(default)
}
