//! End-to-end telemetry acceptance: one pooled, shared-socket, encrypted
//! FEC fanout session must surface everything the unified subsystem
//! promises through a single [`Proxy::telemetry`] snapshot — end-to-end
//! latency histograms, per-stage timings, runtime poll / queue-wait /
//! steal / reactor-scan profiling, carrier drain batching, and the legacy
//! stats structs folded in as flat metrics.

use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware_proxy::{
    FilterSpec, Proxy, RuntimeConfig, SharedUdpSessionConfig, SharedUdpStreamConfig,
    UdpCarrierConfig,
};
use rapidware_telemetry::TelemetrySnapshot;
use rapidware_transport::{SharedDrain, SharedUdpIngress, UdpConfig};

fn stream_packet(seq: u64) -> Packet {
    Packet::new(
        StreamId::new(1),
        SeqNo::new(seq),
        PacketKind::AudioData,
        vec![7u8; 48],
    )
}

fn encode_to(socket: &std::net::UdpSocket, peer: std::net::SocketAddr, packet: &Packet) {
    let mut scratch = Vec::new();
    packet.encode_into(&mut scratch);
    socket.send_to(&scratch, peer).unwrap();
}

/// Drains the app-side shared socket until `predicate` holds, with a hard
/// deadline bounding a genuine hang.
fn drain_app_until(app: &SharedUdpIngress, mut predicate: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !predicate() {
        assert!(
            std::time::Instant::now() < deadline,
            "app-side shared drain made no progress"
        );
        if app.drain_batch() == SharedDrain::Empty {
            std::thread::yield_now();
        }
    }
}

#[test]
fn pooled_shared_udp_encrypted_fec_session_reports_unified_telemetry() {
    let config = UdpConfig::default();
    let app = SharedUdpIngress::bind("127.0.0.1:0", &config).unwrap();
    let route = app.open_stream(StreamId::new(1)).unwrap();

    let mut proxy = Proxy::with_runtime("observed", RuntimeConfig::new(2, 16));
    // Telemetry goes on before any placement so every layer — carrier
    // drain, session spans, runtime profiling — is instrumented.
    let registry = proxy.enable_telemetry();
    assert!(proxy.telemetry_registry().is_some());
    proxy.add_udp_carrier("wire", UdpCarrierConfig::new()).unwrap();
    let handle = proxy
        .add_session_udp_shared(
            "fanout",
            SharedUdpSessionConfig::on_carrier("wire")
                .with_stream(StreamId::new(1))
                .with_lane("wlan", app.local_addr()),
        )
        .unwrap();
    // Head: seal then FEC-encode; lane: FEC-decode then open — the app
    // receives plaintext source packets while the secure and recovery
    // counters all move.
    let session = proxy.pooled_session("fanout").unwrap();
    session
        .insert_head_filter(0, &FilterSpec::new("encrypt").with_param("key", "99"))
        .unwrap();
    session.insert_head_filter(1, &FilterSpec::new("fec-encoder")).unwrap();
    session.insert_lane_filter("wlan", 0, &FilterSpec::new("fec-decoder")).unwrap();
    session
        .insert_lane_filter("wlan", 1, &FilterSpec::new("decrypt").with_param("key", "99"))
        .unwrap();

    let app_tx = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    // One frame in flight at a time: a burst sent right after set-up can
    // be swallowed whole by the carrier task's *initial* step, before the
    // reactor ever has to wake it, and the scan-latency assertion below
    // needs at least one real wake.
    let mut received = 0u64;
    for seq in 0..8u64 {
        encode_to(&app_tx, handle.ingress_addr(), &stream_packet(seq));
        drain_app_until(&app, || {
            while let Ok(packet) = route.try_recv() {
                assert_eq!(packet.seq().value(), received, "plaintext source order");
                assert_eq!(packet.payload(), &[7u8; 48][..], "decrypt restored payload");
                received += 1;
            }
            received == seq + 1
        });
    }

    // Snapshot while the session is live so the legacy stats structs are
    // still attached.
    let snapshot = proxy.telemetry().expect("telemetry enabled");

    // Packet-lifecycle spans: the lane (egress) chain records batch and
    // ingress-to-egress latency; the head (interior) chain records batch
    // latency; both record sampled per-filter stage timings.
    let e2e = snapshot
        .histogram("session.fanout.lane.wlan.e2e_ns")
        .expect("end-to-end histogram registered");
    assert!(e2e.count() >= 8, "every delivered packet timed: {e2e:?}");
    assert!(e2e.sum > 0, "socket-ingress timestamps flowed to egress");
    assert!(
        snapshot.histogram("session.fanout.lane.wlan.batch_ns").expect("lane batch").count() > 0
    );
    assert!(snapshot.histogram("session.fanout.head.batch_ns").expect("head batch").count() > 0);
    assert!(
        snapshot.merged_histogram("session.fanout.head.filter.").count() > 0,
        "sampled head stage timings"
    );
    assert!(
        snapshot.merged_histogram("session.fanout.lane.wlan.filter.").count() > 0,
        "sampled lane stage timings"
    );

    // Runtime profiling hooks.
    assert!(snapshot.histogram("runtime.poll_ns").expect("poll histogram").count() > 0);
    assert!(
        snapshot.histogram("runtime.queue_wait_ns").expect("queue-wait histogram").count() > 0
    );
    assert!(
        snapshot.histogram("runtime.reactor.scan_ns").expect("scan histogram").count() > 0,
        "reactor scan latency recorded"
    );
    let drain = snapshot.histogram("udp.wire.drain_batch").expect("drain-batch histogram");
    assert!(drain.count() > 0 && drain.sum >= 8, "carrier drain batch sizes: {drain:?}");
    // The send-side twins: frames per kernel crossing, datagrams per
    // message — both account for every frame the egress counted.
    // (The egress books a crossing after the kernel delivered it, so the
    // app may hold the last frame a moment before the books close.)
    let sent = settled(&proxy, |sent| {
        let flush = sent.histogram("udp.wire.flush_batch").expect("flush-batch histogram");
        let segments = sent.histogram("udp.wire.tx_segments").expect("segment histogram");
        let tx_packets = sent.stat("udp.wire.egress.tx_packets").expect("egress counters");
        tx_packets >= 8
            && flush.sum == tx_packets
            && segments.sum == tx_packets
            && sent.stat("udp.wire.egress.tx_batches") >= Some(flush.count())
    });
    assert_eq!(sent.stat("udp.wire.egress.gso_refused"), Some(0));

    // Legacy stats folded into the same snapshot as flat metrics.
    assert_eq!(snapshot.stat("session.fanout.lane.wlan.delivered"), Some(8));
    assert!(snapshot.stat("session.fanout.head.packets_in") >= Some(8));
    assert!(snapshot.stat("session.fanout.secure.sealed") >= Some(8), "head sealed every packet");
    assert!(snapshot.stat("session.fanout.secure.opened") >= Some(8), "lane opened every packet");
    assert!(snapshot.stat("udp.wire.ingress.rx_datagrams") >= Some(8));
    assert!(snapshot.stat("udp.wire.egress.tx_datagrams") >= Some(8));
    assert_eq!(snapshot.stat("udp.wire.unknown_streams"), Some(0));
    assert_eq!(snapshot.stat("udp.wire.io_errors"), Some(0));
    assert!(snapshot.stat("runtime.polls") > Some(0));
    assert!(snapshot.stat("runtime.steals").is_some(), "steal counter present even when zero");
    assert_eq!(snapshot.stat("runtime.workers"), Some(2));

    // The JSON export and the control verb carry the same document.
    let json = proxy.telemetry_json().expect("json export");
    assert!(json.contains("\"session.fanout.lane.wlan.e2e_ns\""), "{json}");
    assert!(json.contains("\"runtime.poll_ns\""), "{json}");
    assert!(json.contains("\"p99\""), "{json}");

    // The registry handle returned by enable_telemetry is the live one.
    let direct = registry.snapshot();
    assert!(direct.histogram("session.fanout.lane.wlan.e2e_ns").is_some());

    handle.close_input();
    proxy.shutdown().unwrap();
}

/// Re-takes the telemetry snapshot until `done` holds; the deadline only
/// bounds a genuine failure.
fn settled(proxy: &Proxy, done: impl Fn(&TelemetrySnapshot) -> bool) -> TelemetrySnapshot {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let snapshot = proxy.telemetry().expect("telemetry enabled");
        if done(&snapshot) {
            return snapshot;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the send-side books never closed: {snapshot:?}"
        );
        std::thread::yield_now();
    }
}

#[test]
fn a_carrier_bound_before_enable_telemetry_still_records_drain_batches() {
    // `enable_telemetry` must reach carriers that already exist, exactly
    // as it reaches existing streams, sessions and the runtime.
    let app = SharedUdpIngress::bind("127.0.0.1:0", &UdpConfig::default()).unwrap();
    let route = app.open_stream(StreamId::new(1)).unwrap();
    let mut proxy = Proxy::with_runtime("late", RuntimeConfig::new(1, 16));
    let carrier = proxy.add_udp_carrier("wire", UdpCarrierConfig::new()).unwrap();
    proxy
        .add_stream_udp_shared(
            "s",
            SharedUdpStreamConfig::on_carrier("wire", app.local_addr()).with_stream(StreamId::new(1)),
        )
        .unwrap();
    proxy.enable_telemetry();

    let app_tx = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    for seq in 0..8u64 {
        encode_to(&app_tx, carrier.ingress_addr(), &stream_packet(seq));
    }
    drain_app_until(&app, || app.stats().rx_packets() == 8);
    assert_eq!(route.try_recv_up_to(8).unwrap().len(), 8);

    let snapshot = proxy.telemetry().expect("telemetry enabled");
    let drain = snapshot.histogram("udp.wire.drain_batch").expect("attached retroactively");
    assert!(drain.count() > 0 && drain.sum >= 8, "carrier drain batch sizes: {drain:?}");
    settled(&proxy, |sent| {
        sent.histogram("udp.wire.flush_batch").expect("attached retroactively").sum == 8
    });
    proxy.shutdown().unwrap();
}
