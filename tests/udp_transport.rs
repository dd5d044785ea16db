//! Transport integration: streams and sessions riding UDP carriers, end to
//! end over real loopback sockets.  Every proxy-side socket here is a
//! carrier with **one route** — the shape a dedicated socket takes — and
//! every application-side socket is a hand-driven one-route ingress.
//!
//! * a flat chain (FEC encode → decode spliced live) round-trips every
//!   packet over socket → chain → socket;
//! * a 4-lane fanout session delivers the full stream to every lane's
//!   socket;
//! * a seeded [`ImpairedUdp`] drop regime is fully repaired by FEC — the
//!   paper's claim, demonstrated on the wire instead of the simulator;
//! * a 50-session soak drives the transport at fleet scale on a fixed
//!   worker pool;
//! * a one-route carrier really is a dedicated socket: frames for any
//!   other stream id are counted and never delivered, and the route's FIN
//!   is a clean end of stream app-side.
//!
//! Determinism rules: impairment is seeded (`ImpairmentPlan`), every
//! wait is deadline-bounded (watchdog asserts, not sleeps), and the
//! stream content is drained before `close_input` — UDP has no
//! end-to-end back-pressure, so closing the chain while datagrams are
//! still in flight would discard them by design, exactly as a real socket
//! would.

mod common;

use std::net::{SocketAddr, UdpSocket};
use std::time::Instant;

use rapidware::filters::{FecDecoderFilter, Filter};
use rapidware::packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware::proxy::{
    FilterSpec, Proxy, RuntimeConfig, SharedUdpSessionConfig, SharedUdpStreamConfig,
    SharedUdpStreamHandle, UdpCarrierConfig, UdpCarrierHandle,
};
use rapidware::streams::TryRecvError;
use rapidware::transport::{ImpairedUdp, ImpairmentPlan};

use common::{
    audio_packet, bind_app, poll_app, recv_app_count, recv_app_to_eof, send_encoded, WATCHDOG,
};

fn packet(seq: u64) -> Packet {
    audio_packet(seq, 96)
}

fn seqs(packets: &[Packet]) -> Vec<u64> {
    packets.iter().map(|p| p.seq().value()).collect()
}

/// A dedicated proxy socket: a carrier named `name` whose one route feeds
/// stream id 1 into a pooled stream of the same name, output to `peer`.
fn dedicated_stream(
    proxy: &mut Proxy,
    name: &str,
    peer: SocketAddr,
) -> (UdpCarrierHandle, SharedUdpStreamHandle) {
    let carrier = proxy.add_udp_carrier(name, UdpCarrierConfig::new()).unwrap();
    let stream = proxy
        .add_stream_udp_shared(
            name,
            SharedUdpStreamConfig::on_carrier(name, peer).with_stream(StreamId::new(1)),
        )
        .unwrap();
    (carrier, stream)
}

#[test]
fn a_flat_fec_chain_round_trips_over_loopback_udp() {
    let deadline = Instant::now() + WATCHDOG;
    let (app, route) = bind_app(&[1]);
    let mut proxy = Proxy::with_runtime("edge", RuntimeConfig::new(2, 8));
    let (carrier, handle) = dedicated_stream(&mut proxy, "audio", app.local_addr());
    // Live splices through the ordinary control surface, on a stream whose
    // endpoints are sockets.
    proxy.insert_filter("audio", 0, &FilterSpec::new("fec-encoder")).unwrap();
    proxy.insert_filter("audio", 1, &FilterSpec::new("fec-decoder")).unwrap();

    let app_tx = UdpSocket::bind("127.0.0.1:0").unwrap();
    const TOTAL: u64 = 400;
    // Window-paced against what the app received: UDP has no end-to-end
    // back-pressure, so an unpaced blast would overflow a kernel socket
    // buffer and the OS would drop datagrams.  Pacing on the proxy's
    // ingress alone protects only the proxy's buffer: a proxy that keeps
    // up lets the sender run ahead of the app's drain, whose socket then
    // overflows.
    let mut received = Vec::new();
    for window in 0..(TOTAL / 50) {
        for seq in window * 50..(window + 1) * 50 {
            send_encoded(&app_tx, carrier.ingress_addr(), &packet(seq));
        }
        while received.len() < ((window + 1) * 50) as usize {
            assert!(Instant::now() < deadline, "stream stalled at {}/{TOTAL}", received.len());
            poll_app(&app, &route, &mut received);
        }
    }
    assert_eq!(seqs(&received), (0..TOTAL).collect::<Vec<_>>(), "every packet, in order");

    // End the stream: the flush residue (none here) and the FIN arrive.
    handle.close_input();
    assert!(recv_app_to_eof(&app, &route, deadline).is_empty());
    assert_eq!(carrier.ingress_stats().rx_packets(), TOTAL);
    assert_eq!(carrier.ingress_stats().decode_errors(), 0);
    let status = proxy.status();
    assert_eq!(status.transports.len(), 1);
    assert_eq!(status.transports[0].ingress.rx_packets, TOTAL);
    proxy.shutdown().unwrap();
}

#[test]
fn a_four_lane_fanout_session_on_the_pooled_runtime_serves_every_socket() {
    let deadline = Instant::now() + WATCHDOG;
    let lane_sockets: Vec<_> = (0..4).map(|_| bind_app(&[1])).collect();
    let mut proxy = Proxy::with_runtime("edge", RuntimeConfig::new(4, 16));
    let carrier = proxy.add_udp_carrier("wire", UdpCarrierConfig::new()).unwrap();
    let mut session_config =
        SharedUdpSessionConfig::on_carrier("wire").with_stream(StreamId::new(1));
    for (index, (app, _)) in lane_sockets.iter().enumerate() {
        session_config = session_config.with_lane(format!("lane-{index}"), app.local_addr());
    }
    let handle = proxy.add_session_udp_shared("fanout", session_config).unwrap();

    let app_tx = UdpSocket::bind("127.0.0.1:0").unwrap();
    const TOTAL: u64 = 200;
    for seq in 0..TOTAL {
        send_encoded(&app_tx, handle.ingress_addr(), &packet(seq));
    }
    for (lane, (app, route)) in lane_sockets.iter().enumerate() {
        let received = recv_app_count(app, route, TOTAL as usize, deadline);
        assert_eq!(
            seqs(&received),
            (0..TOTAL).collect::<Vec<_>>(),
            "lane {lane} must see the whole stream, in order"
        );
    }
    handle.close_input();
    for (app, route) in &lane_sockets {
        assert!(recv_app_to_eof(app, route, deadline).is_empty());
    }
    assert_eq!(
        carrier.egress_stats().tx_packets(),
        4 * (TOTAL + 1),
        "four lanes x ({TOTAL} data + 1 FIN)"
    );
    proxy.shutdown().unwrap();
}

#[test]
fn a_seeded_impaired_drop_regime_is_fully_repaired_by_fec() {
    // The paper's argument, on the wire: a proxy inserts FEC(6,4) ahead of
    // a lossy hop; the receiver repairs the losses without retransmission.
    // The lossy hop is an `ImpairedUdp` relay dropping every 5th frame —
    // a stride that provably never exceeds the 2 losses a (6,4) block
    // tolerates — so *complete* recovery is a hard assertion, not a
    // statistical hope, and the stride makes the survivor count exact.
    let deadline = Instant::now() + WATCHDOG;
    let (app, route) = bind_app(&[1]);
    let relay = ImpairedUdp::spawn(app.local_addr(), ImpairmentPlan::drop_every(2001, 5)).unwrap();
    let mut proxy = Proxy::with_runtime("edge", RuntimeConfig::new(2, 8));
    let (carrier, handle) = dedicated_stream(&mut proxy, "audio", relay.local_addr());
    proxy
        .insert_filter(
            "audio",
            0,
            &FilterSpec::new("fec-encoder").with_param("n", "6").with_param("k", "4"),
        )
        .unwrap();

    let app_tx = UdpSocket::bind("127.0.0.1:0").unwrap();
    const TOTAL: u64 = 200; // 50 complete (6,4) blocks → 100 parity frames
    const SURVIVORS: usize = 300 - 60; // every 5th of 300 frames dropped
    // Paced a window at a time against the relay's own accounting, the app
    // side receiving while it waits, so no socket buffer on the three-hop
    // path can overflow and add an unseeded loss.
    let relay_stats = relay.stats();
    let mut survivors = Vec::new();
    for window in 0..(TOTAL / 40) {
        for seq in window * 40..(window + 1) * 40 {
            send_encoded(&app_tx, carrier.ingress_addr(), &packet(seq));
        }
        while relay_stats.forwarded() + relay_stats.dropped() < (window + 1) * 60 {
            assert!(Instant::now() < deadline, "the lossy hop stalled");
            poll_app(&app, &route, &mut survivors);
        }
    }
    while survivors.len() < SURVIVORS {
        assert!(Instant::now() < deadline, "survivors stalled at {}", survivors.len());
        poll_app(&app, &route, &mut survivors);
    }
    handle.close_input();
    survivors.extend(recv_app_to_eof(&app, &route, deadline));
    assert_eq!(survivors.len(), SURVIVORS, "no residue: every block was complete");

    // Decode at the receiver: every source packet must come back, either
    // delivered or reconstructed from parity.
    let mut decoder = FecDecoderFilter::new(6, 4).unwrap();
    let mut emitted = Vec::new();
    let mut received_data = 0u64;
    for survivor in &survivors {
        if survivor.kind().is_payload() {
            received_data += 1;
        }
        let _ = decoder.process(survivor.clone(), &mut emitted);
    }
    let mut repaired: Vec<u64> = emitted
        .iter()
        .filter(|p| p.kind().is_payload())
        .map(|p| p.seq().value())
        .collect();
    repaired.sort_unstable();
    repaired.dedup();
    assert_eq!(
        repaired,
        (0..TOTAL).collect::<Vec<_>>(),
        "FEC must repair every dropped frame"
    );
    assert!(received_data < TOTAL, "the relay must actually have dropped data frames");
    assert_eq!(relay.stats().dropped(), 60);
    assert!(carrier.egress_stats().tx_packets() >= 300, "parity rode the wire");
    proxy.shutdown().unwrap();
}

#[test]
fn fifty_udp_sessions_soak_the_pooled_runtime() {
    // Fleet-scale smoke: 50 dedicated sockets (one carrier with one route
    // each) multiplexed onto a 4-worker pool — zero per-socket and zero
    // reactor threads — each carrying its own stream to its own app
    // socket, all inside the watchdog.
    const SESSIONS: usize = 50;
    const PER_SESSION: u64 = 40;
    let deadline = Instant::now() + WATCHDOG;
    let mut proxy = Proxy::with_runtime("fleet", RuntimeConfig::new(4, 16));
    let mut carriers = Vec::with_capacity(SESSIONS);
    let mut app_sockets = Vec::with_capacity(SESSIONS);
    for index in 0..SESSIONS {
        let (app, route) = bind_app(&[1]);
        let (carrier, _) =
            dedicated_stream(&mut proxy, &format!("stream-{index}"), app.local_addr());
        carriers.push(carrier);
        app_sockets.push((app, route));
    }
    let app_tx = UdpSocket::bind("127.0.0.1:0").unwrap();
    for seq in 0..PER_SESSION {
        for carrier in &carriers {
            send_encoded(&app_tx, carrier.ingress_addr(), &packet(seq));
        }
    }
    for (index, (app, route)) in app_sockets.iter().enumerate() {
        let received = recv_app_count(app, route, PER_SESSION as usize, deadline);
        assert_eq!(
            seqs(&received),
            (0..PER_SESSION).collect::<Vec<_>>(),
            "session {index} lost or reordered traffic"
        );
    }
    let status = proxy.status();
    assert_eq!(status.transports.len(), SESSIONS);
    assert!(status.transports.iter().all(|t| t.ingress.rx_packets == PER_SESSION));
    assert!(status.transports.iter().all(|t| t.unknown_streams == 0));
    proxy.shutdown().unwrap();
    assert_eq!(
        proxy.status().transports.len(),
        0,
        "shutdown must tear every transport down"
    );
}

#[test]
fn a_one_route_carrier_behaves_as_a_dedicated_socket() {
    // The replacement claim: a carrier with exactly one route serves one
    // stream and nothing else.  Frames for any other stream id — data or
    // control — are counted in `unknown_streams` and never delivered, and
    // ending the route yields exactly one FIN: a clean EOF app-side.
    let deadline = Instant::now() + WATCHDOG;
    let (app, route) = bind_app(&[1]);
    // A second app-side route would catch a stray frame had the carrier
    // let one through.
    let stray = app.open_stream(StreamId::new(2)).unwrap();
    let mut proxy = Proxy::with_runtime("edge", RuntimeConfig::new(1, 8));
    let (carrier, handle) = dedicated_stream(&mut proxy, "audio", app.local_addr());
    assert_eq!(carrier.route_count(), 1);

    let app_tx = UdpSocket::bind("127.0.0.1:0").unwrap();
    const TOTAL: u64 = 20;
    for seq in 0..TOTAL {
        send_encoded(&app_tx, carrier.ingress_addr(), &packet(seq));
        let other =
            Packet::new(StreamId::new(2), SeqNo::new(seq), PacketKind::AudioData, vec![0u8; 96]);
        send_encoded(&app_tx, carrier.ingress_addr(), &other);
    }
    let marker = Packet::new(StreamId::new(u32::MAX), SeqNo::new(0), PacketKind::Control, vec![]);
    send_encoded(&app_tx, carrier.ingress_addr(), &marker);

    let received = recv_app_count(&app, &route, TOTAL as usize, deadline);
    assert_eq!(seqs(&received), (0..TOTAL).collect::<Vec<_>>());
    while carrier.ingress_stats().rx_datagrams() < 2 * TOTAL + 1 {
        assert!(Instant::now() < deadline, "the carrier never drained the stray frames");
        std::thread::yield_now();
    }
    assert_eq!(carrier.unknown_streams(), TOTAL + 1, "every stray frame is counted");
    assert_eq!(carrier.ingress_stats().rx_packets(), TOTAL, "only the route's frames count as received");

    handle.close_input();
    assert!(recv_app_to_eof(&app, &route, deadline).is_empty(), "a clean EOF, no residue");
    assert_eq!(carrier.egress_stats().tx_packets(), TOTAL + 1, "the route's data and its one FIN");
    assert_eq!(stray.try_recv().unwrap_err(), TryRecvError::Empty, "no stray frame was forwarded");
    assert_eq!(app.unknown_streams(), 0);
    proxy.shutdown().unwrap();
}
