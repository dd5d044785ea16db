//! End-to-end telemetry acceptance: one pooled, shared-socket, encrypted
//! FEC fanout session must surface everything the unified subsystem
//! promises through a single [`Proxy::telemetry`] snapshot — end-to-end
//! latency histograms, per-stage timings, runtime poll / queue-wait /
//! steal / reactor-scan profiling, carrier drain batching, and the legacy
//! stats structs folded in as flat metrics.

use rapidware_filters::SecureChannelSnapshot;
use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware_proxy::{
    ChainStats, ControlManager, FilterSpec, LaneStatus, Proxy, ProxyStatus, RuntimeConfig,
    SharedUdpSessionConfig, SharedUdpStreamConfig, TransportSnapshot, UdpCarrierConfig,
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

/// The flat `stats` the fold names for `status`, in the fold's order:
/// streams, then sessions (head, lanes in creation order, secure), then
/// carriers, then the runtime.  A secure segment appears only for a scope
/// whose crypto stages did work.
fn stats_from_status(status: &ProxyStatus) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut push = |scope: &str, pairs: &[(&str, u64)]| {
        out.extend(
            pairs
                .iter()
                .map(|(key, value)| (format!("{scope}.{key}"), *value)),
        );
    };
    let chain = |stats: &ChainStats| {
        [
            ("filters", stats.filters as u64),
            ("packets_in", stats.packets_in),
            ("packets_out", stats.packets_out),
            ("splices", stats.splices),
            ("filter_errors", stats.filter_errors),
        ]
    };
    let secure = |secure: &SecureChannelSnapshot| {
        [
            ("sealed", secure.sealed),
            ("opened", secure.opened),
            ("rejected", secure.rejected),
            ("rekeys", secure.rekeys),
        ]
    };
    let transport = |snapshot: &TransportSnapshot| {
        [
            ("rx_datagrams", snapshot.rx_datagrams),
            ("rx_packets", snapshot.rx_packets),
            ("tx_datagrams", snapshot.tx_datagrams),
            ("tx_packets", snapshot.tx_packets),
            ("tx_batches", snapshot.tx_batches),
            ("gso_refused", snapshot.gso_refused),
            ("decode_errors", snapshot.decode_errors),
            ("dropped", snapshot.dropped),
        ]
    };
    for stream in &status.streams {
        let scope = format!("stream.{}", stream.name);
        push(&scope, &chain(&stream.stats));
        if !stream.secure.is_empty() {
            push(&format!("{scope}.secure"), &secure(&stream.secure));
        }
    }
    for session in &status.sessions {
        let scope = format!("session.{}", session.name);
        push(&format!("{scope}.head"), &chain(&session.head_stats));
        for lane in &session.lanes {
            let lane_scope = format!("{scope}.lane.{}", lane.name);
            push(
                &lane_scope,
                &[
                    ("delivered", lane.delivered),
                    ("recovered", lane.recovered),
                    ("queue_depth", lane.queue_depth as u64),
                ],
            );
            push(&lane_scope, &chain(&lane.stats));
        }
        if !session.secure.is_empty() {
            push(&format!("{scope}.secure"), &secure(&session.secure));
        }
    }
    for carrier in &status.transports {
        let scope = format!("udp.{}", carrier.name);
        push(&format!("{scope}.ingress"), &transport(&carrier.ingress));
        push(&format!("{scope}.egress"), &transport(&carrier.egress));
        push(
            &scope,
            &[
                ("unknown_streams", carrier.unknown_streams),
                ("io_errors", carrier.io_errors),
            ],
        );
    }
    if let Some(runtime) = &status.runtime {
        push(
            "runtime",
            &[
                ("workers", runtime.workers as u64),
                ("live_tasks", runtime.live_tasks as u64),
                (
                    "queued",
                    runtime.shards.iter().map(|shard| shard.queued as u64).sum(),
                ),
                (
                    "executed",
                    runtime.shards.iter().map(|shard| shard.executed).sum(),
                ),
                ("steals", runtime.steals),
                ("polls", runtime.polls),
                ("parks", runtime.parks),
            ],
        );
    }
    out
}

/// The `query` reply for `status`, segment by segment, key by key.
fn query_from_status(status: &ProxyStatus) -> String {
    let mut line = format!("status proxy={}", status.name);
    for stream in &status.streams {
        line += &format!(
            " stream={}:[{}] in={} out={}",
            stream.name,
            stream.filters.join(","),
            stream.stats.packets_in,
            stream.stats.packets_out
        );
    }
    for session in &status.sessions {
        line += &format!(
            " session={}:head[{}]",
            session.name,
            session.head_filters.join(",")
        );
        for lane in &session.lanes {
            line += &format!(
                " lane={}:[{}] delivered={} recovered={} queued={}",
                lane.name,
                lane.filters.join(","),
                lane.delivered,
                lane.recovered,
                lane.queue_depth
            );
        }
    }
    for carrier in &status.transports {
        line += &format!(
            " udp={} at={} rx={} tx={} decode-err={} drop={} unknown-stream={} io-err={} \
             tx-batches={} gso-refused={}",
            carrier.name,
            carrier.ingress_addr,
            carrier.ingress.rx_packets,
            carrier.egress.tx_packets,
            carrier.ingress.decode_errors,
            carrier.ingress.dropped + carrier.egress.dropped,
            carrier.unknown_streams,
            carrier.io_errors,
            carrier.egress.tx_batches,
            carrier.egress.gso_refused
        );
    }
    let secure = &status.secure;
    line += &format!(
        " secure=sealed:{} opened:{} rejected:{} rekeys:{}",
        secure.sealed, secure.opened, secure.rejected, secure.rekeys
    );
    let runtime = status.runtime.as_ref().expect("a live proxy has a runtime");
    let depths: Vec<String> = runtime
        .shards
        .iter()
        .map(|shard| shard.queued.to_string())
        .collect();
    line += &format!(
        " runtime=workers:{} live:{} steals:{} polls:{} parks:{} depths:[{}]",
        runtime.workers,
        runtime.live_tasks,
        runtime.steals,
        runtime.polls,
        runtime.parks,
        depths.join(",")
    );
    line
}

#[test]
fn a_quiescent_proxy_folds_every_status_count_into_telemetry_and_query() {
    const SOURCES: u64 = 40;
    let app = SharedUdpIngress::bind("127.0.0.1:0", &UdpConfig::default()).unwrap();
    let route = app.open_stream(StreamId::new(3)).unwrap();
    let mut proxy = Proxy::with_runtime("folded", RuntimeConfig::new(2, 8));
    proxy.enable_telemetry();

    // A pooled flat stream that seals.
    let (audio_in, audio_out) = proxy.add_stream_pooled("audio").unwrap();
    proxy
        .insert_filter(
            "audio",
            0,
            &FilterSpec::new("encrypt").with_param("key", "5"),
        )
        .unwrap();

    // A session sealing at its head; one lane passes the ciphertext on,
    // the other opens it and repairs a lossy FEC hop.
    let fanout_in = proxy.add_session_pooled("fanout", 64, 8).unwrap();
    let session = proxy.pooled_session("fanout").unwrap();
    let plain = session.add_lane("plain").unwrap();
    let fec = session.add_lane("fec").unwrap();
    session
        .insert_head_filter(0, &FilterSpec::new("encrypt").with_param("key", "9"))
        .unwrap();
    for (position, spec) in [
        FilterSpec::new("decrypt").with_param("key", "9"),
        FilterSpec::new("fec-encoder"),
        FilterSpec::new("drop-every").with_param("n", "5"),
        FilterSpec::new("fec-decoder"),
    ]
    .iter()
    .enumerate()
    {
        session.insert_lane_filter("fec", position, spec).unwrap();
    }

    // A carrier with one shared stream.
    proxy
        .add_udp_carrier("wire", UdpCarrierConfig::new())
        .unwrap();
    let relay = proxy
        .add_stream_udp_shared(
            "relay",
            SharedUdpStreamConfig::on_carrier("wire", app.local_addr())
                .with_stream(StreamId::new(3)),
        )
        .unwrap();

    let wait = std::time::Duration::from_secs(30);
    for seq in 0..SOURCES {
        audio_in.send(stream_packet(seq)).unwrap();
        fanout_in.send(stream_packet(seq)).unwrap();
    }
    for _ in 0..SOURCES {
        audio_out
            .recv_timeout(wait)
            .expect("the flat stream delivers");
        plain.recv_timeout(wait).expect("the plain lane delivers");
        let repaired = fec.recv_timeout(wait).expect("the fec lane delivers");
        assert_eq!(
            repaired.payload(),
            &[7u8; 48][..],
            "the fec lane opened the seal"
        );
    }
    let app_tx = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    let mut relayed = 0;
    for seq in 0..8u64 {
        let packet = Packet::new(
            StreamId::new(3),
            SeqNo::new(seq),
            PacketKind::AudioData,
            vec![3u8; 32],
        );
        encode_to(&app_tx, relay.ingress_addr(), &packet);
        drain_app_until(&app, || {
            while route.try_recv().is_ok() {
                relayed += 1;
            }
            relayed == seq + 1
        });
    }

    // Quiescent: two status reads with a telemetry snapshot and a query
    // between them agree.
    let mut control = ControlManager::new(proxy);
    let deadline = std::time::Instant::now() + wait;
    let (status, snapshot, reply) = loop {
        let before = control.proxy().status();
        let snapshot = control.proxy().telemetry().expect("telemetry enabled");
        let reply = control.execute_line("query");
        if control.proxy().status() == before {
            break (before, snapshot, reply);
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the proxy never settled"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    };

    let lane = |name: &str| -> &LaneStatus {
        status.sessions[0]
            .lanes
            .iter()
            .find(|lane| lane.name == name)
            .expect("lane")
    };
    assert_eq!(lane("plain").delivered, SOURCES);
    assert_eq!(lane("fec").delivered, SOURCES);
    assert!(
        lane("fec").recovered > 0,
        "the decoder repaired the lossy hop: {status:?}"
    );
    assert_eq!(status.streams[0].secure.sealed, SOURCES);
    assert_eq!(status.sessions[0].secure.sealed, SOURCES);
    assert_eq!(status.sessions[0].secure.opened, SOURCES);

    let names: Vec<&str> = snapshot
        .stats
        .iter()
        .map(|metric| metric.name.as_str())
        .collect();
    let chain = ["filters", "packets_in", "packets_out", "splices", "filter_errors"];
    let secure = ["sealed", "opened", "rejected", "rekeys"];
    let transport = [
        "rx_datagrams", "rx_packets", "tx_datagrams", "tx_packets", "tx_batches", "gso_refused",
        "decode_errors", "dropped",
    ];
    let lane_counts = ["delivered", "recovered", "queue_depth"];
    let runtime = ["workers", "live_tasks", "queued", "executed", "steals", "polls", "parks"];
    let scoped = |scope: &str, keys: &[&str]| {
        keys.iter()
            .map(|key| format!("{scope}.{key}"))
            .collect::<Vec<_>>()
    };
    let expected: Vec<String> = [
        scoped("stream.audio", &chain),
        scoped("stream.audio.secure", &secure),
        scoped("stream.relay", &chain),
        scoped("session.fanout.head", &chain),
        scoped("session.fanout.lane.plain", &lane_counts),
        scoped("session.fanout.lane.plain", &chain),
        scoped("session.fanout.lane.fec", &lane_counts),
        scoped("session.fanout.lane.fec", &chain),
        scoped("session.fanout.secure", &secure),
        scoped("udp.wire.ingress", &transport),
        scoped("udp.wire.egress", &transport),
        scoped("udp.wire", &["unknown_streams", "io_errors"]),
        scoped("runtime", &runtime),
    ]
    .concat();
    assert_eq!(names, expected);

    let folded: Vec<(String, u64)> = snapshot
        .stats
        .iter()
        .map(|metric| (metric.name.clone(), metric.value))
        .collect();
    assert_eq!(folded, stats_from_status(&status));

    assert_eq!(reply, query_from_status(&status));
    let keys: Vec<&str> = reply
        .split(' ')
        .filter_map(|token| token.split_once('='))
        .map(|(key, _)| key)
        .collect();
    assert_eq!(
        keys,
        [
            "proxy", "stream", "in", "out", "stream", "in", "out", "session", "lane", "delivered",
            "recovered", "queued", "lane", "delivered", "recovered", "queued", "udp", "at", "rx",
            "tx", "decode-err", "drop", "unknown-stream", "io-err", "tx-batches", "gso-refused",
            "secure", "runtime",
        ]
    );

    audio_in.close();
    fanout_in.close();
    relay.close_input();
    control.proxy_mut().shutdown().unwrap();
}
