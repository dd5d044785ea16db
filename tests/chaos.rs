//! The chaos suite: deliberate mid-run faults against the runtime and the
//! transport, with conservation as the survival bar.
//!
//! Three fault families, matching the hooks the production crates expose
//! behind `#[cfg(any(test, feature = "chaos"))]`:
//!
//! * **shard stalls** — [`Runtime::chaos_stall_shard`] wedges one worker
//!   with a fixed pre-step sleep while sessions churn lanes under load;
//!   work stealing must keep every stream flowing, per-lane conservation
//!   (`sent == delivered + lost + undelivered`) must hold, and shutdown
//!   must leak **zero** tasks;
//! * **socket drop-outs** — [`ImpairedUdp::set_plan`] swaps a total
//!   blackout in (and back out) mid-stream; every datagram is either
//!   forwarded and received, or counted dropped — never silently lost
//!   (`received ⇒ counted`).  The same blackout also runs against a
//!   *shared* reactor-driven carrier socket multiplexing four streams:
//!   per-stream conservation must close, and the outage must not poison a
//!   single socket-mate's routing, ordering, or FIN;
//! * **reordered and duplicated control markers** — non-FIN control frames
//!   are duplicated and rode through a reordering relay; every data frame
//!   still arrives exactly once, every marker copy is delivered (not
//!   deduplicated into silence), and a duplicated FIN still ends the
//!   stream cleanly exactly once (the second copy is a counted
//!   unknown-stream frame).
//!
//! The application side of every wire is a hand-driven one-route
//! [`SharedUdpIngress`]: the test's own receive loop calls `drain_batch()`.
//!
//! Everything runs under a watchdog: a wedged pool or socket fails fast
//! instead of hanging CI.

mod common;

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use rapidware::filters::{rekey_packet, EncryptFilter, Filter};
use rapidware::packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware::proxy::{FilterSpec, Proxy, SharedUdpStreamConfig, UdpCarrierConfig};
use rapidware::runtime::{Runtime, RuntimeConfig};
use rapidware::streams::TryRecvError;
use rapidware::transport::{
    stream_fin_packet, ImpairedStats, ImpairedUdp, ImpairmentPhase, ImpairmentPlan, SharedDrain,
    SharedUdpIngress, UdpConfig,
};

use common::{
    assert_conservation, audio_packet, bind_app, drain_count_to_eof, drain_to_eof,
    recv_app_to_eof, send_encoded, watchdog, WATCHDOG,
};

const BATCH_SIZE: usize = 16;

// ---------------------------------------------------------------------------
// Shard stalls.
// ---------------------------------------------------------------------------

#[test]
fn a_stalled_shard_never_breaks_conservation_or_leaks_tasks() {
    watchdog("chaos-shard-stall", WATCHDOG, || {
        const SESSIONS: usize = 8;
        const PHASES: u64 = 4;
        const PACKETS_PER_PHASE: u64 = 100;
        let runtime = Runtime::start(RuntimeConfig::new(4, BATCH_SIZE).with_pipe_capacity(32));

        struct Stream {
            session: rapidware::runtime::PooledSession,
            name: String,
            backlog: Vec<Packet>,
            base_rx: rapidware::streams::DetachableReceiver<Packet>,
            base_delivered: u64,
            churn_rx: Option<rapidware::streams::DetachableReceiver<Packet>>,
            churn_name: String,
            churn_delivered: u64,
        }

        let mut streams: Vec<Stream> = (0..SESSIONS)
            .map(|index| {
                let name = format!("chaos-{index}");
                let session = runtime.add_session(&name);
                let base_rx = session.add_lane("base").expect("fresh session");
                Stream {
                    session,
                    name,
                    backlog: Vec::new(),
                    base_rx,
                    base_delivered: 0,
                    churn_rx: None,
                    churn_name: String::new(),
                    churn_delivered: 0,
                }
            })
            .collect();

        let mut next_seq = 0u64;
        for phase in 0..PHASES {
            // The fault schedule: the stall moves to a different shard each
            // phase (including the one hosting the session tasks), with one
            // clean phase to show recovery.
            runtime.chaos_clear();
            if phase != PHASES - 1 {
                runtime.chaos_stall_shard(phase as usize % 4, Duration::from_micros(300));
            }
            // Lane churn while stalled: retire last phase's lossy lane,
            // grow this phase's.
            for s in streams.iter_mut() {
                if let Some(rx) = s.churn_rx.take() {
                    s.session.remove_lane(&s.churn_name).expect("churn lane exists");
                    s.churn_delivered += drain_count_to_eof(&rx, BATCH_SIZE);
                    let stats = s.session.lane_stats(&s.churn_name).expect("retired stats");
                    assert_conservation(
                        &format!("{}/{}", s.name, s.churn_name),
                        stats.packets_in,
                        s.churn_delivered,
                        stats.packets_in - stats.packets_out,
                        rx.available() as u64,
                    );
                    s.churn_delivered = 0;
                }
                s.churn_name = format!("churn-{phase}");
                let rx = s.session.add_lane(&s.churn_name).expect("unique per phase");
                s.session
                    .insert_lane_filter(
                        &s.churn_name,
                        0,
                        &FilterSpec::new("drop-every").with_param("n", "4"),
                    )
                    .expect("drop-every is registered");
                s.churn_rx = Some(rx);
                s.backlog.extend((next_seq..next_seq + PACKETS_PER_PHASE).map(|seq| {
                    audio_packet(seq, 8)
                }));
            }
            next_seq += PACKETS_PER_PHASE;
            // Pump non-blockingly until the phase's traffic is in: a stall
            // that wedged the pool shows up as no-progress under the
            // watchdog, not as a blocked test.
            loop {
                let mut all_sent = true;
                for s in streams.iter_mut() {
                    if !s.backlog.is_empty() {
                        let pending = std::mem::take(&mut s.backlog);
                        s.backlog =
                            s.session.input().try_send_batch(pending).expect("inputs stay open");
                    }
                    while let Ok(batch) = s.base_rx.try_recv_up_to(BATCH_SIZE) {
                        s.base_delivered += batch.len() as u64;
                    }
                    if let Some(rx) = s.churn_rx.as_ref() {
                        while let Ok(batch) = rx.try_recv_up_to(BATCH_SIZE) {
                            s.churn_delivered += batch.len() as u64;
                        }
                    }
                    all_sent &= s.backlog.is_empty();
                }
                if all_sent {
                    break;
                }
                std::thread::yield_now();
            }
        }
        assert!(
            runtime.chaos_stalls_served() > 0,
            "the configured stalls never actually fired"
        );
        runtime.chaos_clear();

        // Teardown: every lane must conserve, the pool must come up empty.
        let total = PHASES * PACKETS_PER_PHASE;
        for mut s in streams {
            s.session.close_input();
            s.base_delivered += drain_count_to_eof(&s.base_rx, BATCH_SIZE);
            if let Some(rx) = s.churn_rx.take() {
                s.churn_delivered += drain_count_to_eof(&rx, BATCH_SIZE);
                let stats = s.session.lane_stats(&s.churn_name).expect("lane stats");
                assert_conservation(
                    &format!("{}/{}", s.name, s.churn_name),
                    stats.packets_in,
                    s.churn_delivered,
                    stats.packets_in - stats.packets_out,
                    rx.available() as u64,
                );
            }
            assert_eq!(
                s.base_delivered, total,
                "{}: the lossless whole-life lane must deliver every packet",
                s.name
            );
            s.session.shutdown().expect("clean session shutdown");
        }
        assert_eq!(runtime.live_tasks(), 0, "stall chaos leaked shard tasks");
        runtime.shutdown().expect("worker pool joins cleanly");
    });
}

// ---------------------------------------------------------------------------
// Socket drop-outs.
// ---------------------------------------------------------------------------

/// Blocks until the relay has accounted for `expected` data frames
/// (forwarded + dropped + delayed), so plan swaps land on a quiescent
/// relay and the test stays deterministic.
fn await_relay_accounted(stats: &ImpairedStats, expected: u64) {
    while stats.forwarded() + stats.dropped() + stats.delayed() < expected {
        std::thread::yield_now();
    }
}

#[test]
fn a_mid_run_socket_blackout_is_counted_never_silent() {
    watchdog("chaos-socket-blackout", WATCHDOG, || {
        const BEFORE: u64 = 100;
        const DURING: u64 = 50;
        const AFTER: u64 = 100;
        let (app, route) = bind_app(&[1]);
        let relay = ImpairedUdp::spawn(app.local_addr(), ImpairmentPlan::clean(7)).unwrap();
        let stats = relay.stats();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();

        for seq in 0..BEFORE {
            send_encoded(&tx, relay.local_addr(), &audio_packet(seq, 64));
        }
        await_relay_accounted(&stats, BEFORE);

        // Drop-out: a total blackout phase edited in while the stream runs.
        relay.set_plan(ImpairmentPlan::new(7, vec![(0, ImpairmentPhase::drop_rate(1.0))]));
        assert_eq!(relay.plan().phase_at(0).drop_rate, 1.0);
        for seq in BEFORE..BEFORE + DURING {
            send_encoded(&tx, relay.local_addr(), &audio_packet(seq, 64));
        }
        await_relay_accounted(&stats, BEFORE + DURING);
        assert_eq!(stats.dropped(), DURING, "the blackout must count every loss");

        // Recovery: the original plan comes back; traffic flows again.
        relay.set_plan(ImpairmentPlan::clean(7));
        for seq in BEFORE + DURING..BEFORE + DURING + AFTER {
            send_encoded(&tx, relay.local_addr(), &audio_packet(seq, 64));
        }
        await_relay_accounted(&stats, BEFORE + DURING + AFTER);
        send_encoded(&tx, relay.local_addr(), &stream_fin_packet(StreamId::new(1)));

        // received ⇒ counted: everything the relay forwarded reaches the
        // application, everything else is in `dropped`, and the two sides
        // add back up to the send count.
        let received = recv_app_to_eof(&app, &route, Instant::now() + WATCHDOG / 2);
        assert_eq!(received.len() as u64, stats.forwarded(), "forwarded ⇒ received");
        assert_conservation(
            "blackout relay",
            BEFORE + DURING + AFTER,
            stats.forwarded(),
            stats.dropped(),
            0,
        );
        let seqs: Vec<u64> = received.iter().map(|p| p.seq().value()).collect();
        let expected: Vec<u64> =
            (0..BEFORE).chain(BEFORE + DURING..BEFORE + DURING + AFTER).collect();
        assert_eq!(seqs, expected, "survivors arrive in order with the blackout window cut out");
        assert_eq!(stats.control(), 1, "the FIN passed the relay untouched");
    });
}

#[test]
fn a_blackout_on_a_shared_carrier_is_counted_and_poisons_no_stream() {
    // The shared-socket variant of the blackout: four streams multiplexed
    // over ONE reactor-driven carrier socket, the blackout edited into an
    // impairment relay in front of it mid-run.  Every datagram the relay
    // forwarded must reach exactly its own stream's app-side route, in
    // order; every datagram it dropped must be counted; and per-stream
    // `sent == delivered + lost + undelivered` must close from independent
    // tallies.  The carrier itself never drops, never mis-routes, and every
    // stream survives its socket-mates' outage window identically.
    watchdog("chaos-shared-blackout", WATCHDOG, || {
        const STREAMS: u32 = 4;
        const BEFORE: u64 = 40;
        const DURING: u64 = 20;
        const AFTER: u64 = 40;
        const CAPACITY: usize = 256;
        const CARRIER: &str = "carrier";

        let mut proxy = Proxy::with_runtime(
            "chaos-shared",
            RuntimeConfig::new(2, BATCH_SIZE).with_pipe_capacity(CAPACITY),
        );
        let carrier = proxy
            .add_udp_carrier(
                CARRIER,
                UdpCarrierConfig::new().with_capacity(CAPACITY).with_batch_size(BATCH_SIZE),
            )
            .expect("carrier binds");
        // The impairment relay sits between the app sender and the shared
        // carrier socket: everything inbound funnels through one faulty hop.
        let relay = ImpairedUdp::spawn(carrier.ingress_addr(), ImpairmentPlan::clean(23)).unwrap();
        let stats = relay.stats();

        // App side: one shared socket of its own, one route per stream.
        let app =
            SharedUdpIngress::bind("127.0.0.1:0", &UdpConfig::default().with_capacity(CAPACITY))
                .unwrap();
        let routes: Vec<_> = (1..=STREAMS)
            .map(|stream| app.open_stream(StreamId::new(stream)).unwrap())
            .collect();
        let handles: Vec<_> = (1..=STREAMS)
            .map(|stream| {
                proxy
                    .add_stream_udp_shared(
                        format!("stream-{stream}"),
                        SharedUdpStreamConfig::on_carrier(CARRIER, app.local_addr())
                            .with_stream(StreamId::new(stream))
                            .with_capacity(CAPACITY)
                            .with_batch_size(BATCH_SIZE),
                    )
                    .expect("shared stream placement")
            })
            .collect();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();

        // Interleave the streams round-robin so each carrier drain batch
        // demuxes neighbouring frames, and collect deliveries per stream
        // with a deadline-bounded non-blocking barrier after each phase.
        let mut received: Vec<Vec<u64>> = vec![Vec::new(); STREAMS as usize];
        let drain_until_each = |received: &mut Vec<Vec<u64>>, target: usize| {
            let deadline = Instant::now() + WATCHDOG / 2;
            loop {
                while app.drain_batch() == SharedDrain::MoreReady {}
                for (index, route) in routes.iter().enumerate() {
                    while let Ok(packet) = route.try_recv() {
                        assert_eq!(
                            packet.stream().value() as usize,
                            index + 1,
                            "frame routed to the wrong stream"
                        );
                        received[index].push(packet.seq().value());
                    }
                }
                if received.iter().all(|seqs| seqs.len() >= target) {
                    break;
                }
                assert!(Instant::now() < deadline, "shared blackout drain made no progress");
                std::thread::yield_now();
            }
        };
        let send_window = |range: std::ops::Range<u64>| {
            for seq in range {
                for stream in 1..=STREAMS {
                    send_encoded(
                        &tx,
                        relay.local_addr(),
                        &Packet::new(
                            StreamId::new(stream),
                            SeqNo::new(seq),
                            PacketKind::AudioData,
                            vec![stream as u8; 32],
                        ),
                    );
                }
            }
        };

        send_window(0..BEFORE);
        await_relay_accounted(&stats, STREAMS as u64 * BEFORE);
        drain_until_each(&mut received, BEFORE as usize);

        // The blackout: a total outage swapped in while all four streams
        // run, swapped back out after the window.
        relay.set_plan(ImpairmentPlan::new(23, vec![(0, ImpairmentPhase::drop_rate(1.0))]));
        send_window(BEFORE..BEFORE + DURING);
        await_relay_accounted(&stats, STREAMS as u64 * (BEFORE + DURING));
        assert_eq!(
            stats.dropped(),
            STREAMS as u64 * DURING,
            "the blackout must count every loss"
        );
        relay.set_plan(ImpairmentPlan::clean(23));
        send_window(BEFORE + DURING..BEFORE + DURING + AFTER);
        await_relay_accounted(&stats, STREAMS as u64 * (BEFORE + DURING + AFTER));
        drain_until_each(&mut received, (BEFORE + AFTER) as usize);

        // FIN isolation under the same faulty hop: ending stream 1 must
        // leave its three socket-mates open.
        handles[0].close_input();
        let deadline = Instant::now() + WATCHDOG / 2;
        loop {
            while app.drain_batch() == SharedDrain::MoreReady {}
            match routes[0].try_recv() {
                Err(TryRecvError::Eof | TryRecvError::Closed) => break,
                Err(TryRecvError::Empty) => {
                    assert!(Instant::now() < deadline, "stream 1 never reached EOF");
                    std::thread::yield_now();
                }
                Ok(packet) => panic!("stream 1 delivered {packet:?} after its drain"),
            }
        }
        for route in &routes[1..] {
            assert_eq!(
                route.try_recv().unwrap_err(),
                TryRecvError::Empty,
                "a socket-mate's FIN must not end a live stream"
            );
        }
        for handle in &handles[1..] {
            handle.close_input();
        }
        for route in &routes[1..] {
            loop {
                while app.drain_batch() == SharedDrain::MoreReady {}
                match route.try_recv() {
                    Err(TryRecvError::Eof | TryRecvError::Closed) => break,
                    Err(TryRecvError::Empty) => {
                        assert!(Instant::now() < deadline, "a stream never reached EOF");
                        std::thread::yield_now();
                    }
                    Ok(packet) => panic!("late delivery after the drain: {packet:?}"),
                }
            }
        }

        // Per-stream conservation from independent tallies, and exact
        // survivor order: the blackout window cut out, nothing reordered.
        let expected: Vec<u64> =
            (0..BEFORE).chain(BEFORE + DURING..BEFORE + DURING + AFTER).collect();
        for (index, seqs) in received.iter().enumerate() {
            let context = format!("shared blackout stream {}", index + 1);
            assert_eq!(seqs, &expected, "{context}: survivor order");
            assert_conservation(
                &context,
                BEFORE + DURING + AFTER,
                seqs.len() as u64,
                DURING,
                0,
            );
        }

        // The carrier was blameless: it demuxed every forwarded datagram to
        // a registered stream and dropped nothing itself.
        let status = proxy.status();
        let shared = &status.transports;
        assert_eq!(shared.len(), 1, "one carrier serves all four streams");
        assert_eq!(
            shared[0].ingress.rx_packets,
            STREAMS as u64 * (BEFORE + AFTER),
            "every forwarded datagram was demuxed"
        );
        assert_eq!(shared[0].unknown_streams, 0);
        assert_eq!(shared[0].ingress.dropped, 0);
        assert_eq!(shared[0].egress.dropped, 0);
        assert_eq!(app.unknown_streams(), 0, "no frame escaped its route app-side");
        proxy.shutdown().expect("clean proxy shutdown");
    });
}

// ---------------------------------------------------------------------------
// Reordered and duplicated control markers.
// ---------------------------------------------------------------------------

/// A non-FIN control marker (the quiescence-marker shape the engine uses).
fn marker(id: u64) -> Packet {
    Packet::new(StreamId::new(u32::MAX), SeqNo::new(id), PacketKind::Control, Vec::new())
}

#[test]
fn reordered_and_duplicated_markers_conserve_every_data_frame() {
    watchdog("chaos-marker-storm", WATCHDOG, || {
        const TOTAL: u64 = 120;
        const MARKER_EVERY: u64 = 30;
        // Data and markers ride different stream ids; routing both onto
        // one pipe keeps their relative order observable.
        let (app, route) = bind_app(&[1, u32::MAX]);
        // The relay holds every 5th data frame back 3 frames — a
        // deterministic reordering — while control frames pass immediately
        // (flushing any held frames first, so no data crosses a marker).
        let relay = ImpairedUdp::spawn(
            app.local_addr(),
            ImpairmentPlan::new(11, vec![(0, ImpairmentPhase::delay(5, 3))]),
        )
        .unwrap();
        let stats = relay.stats();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();

        let mut markers_sent = 0u64;
        for seq in 0..TOTAL {
            // Duplicated markers, and reordered relative to the stream: the
            // marker for a window is sent *before* that window's last data
            // frame, then again after it.
            if seq % MARKER_EVERY == MARKER_EVERY - 1 {
                send_encoded(&tx, relay.local_addr(), &marker(seq / MARKER_EVERY));
                markers_sent += 1;
            }
            send_encoded(&tx, relay.local_addr(), &audio_packet(seq, 64));
            if seq % MARKER_EVERY == MARKER_EVERY - 1 {
                send_encoded(&tx, relay.local_addr(), &marker(seq / MARKER_EVERY));
                markers_sent += 1;
            }
        }
        await_relay_accounted(&stats, TOTAL);
        // A duplicated FIN: the first ends the stream, the second must be
        // absorbed without wedging or reopening anything.
        send_encoded(&tx, relay.local_addr(), &stream_fin_packet(StreamId::new(1)));
        send_encoded(&tx, relay.local_addr(), &stream_fin_packet(StreamId::new(1)));

        let (markers, data): (Vec<Packet>, Vec<Packet>) =
            recv_app_to_eof(&app, &route, Instant::now() + WATCHDOG / 2)
                .into_iter()
                .partition(|packet| packet.kind() == PacketKind::Control);
        let markers_received = markers.len() as u64;
        // received ⇒ counted: every data frame exactly once (the delays
        // reorder, never drop), every marker copy delivered, none invented.
        let mut seqs: Vec<u64> = data.iter().map(|p| p.seq().value()).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..TOTAL).collect::<Vec<_>>(), "each data frame exactly once");
        assert_eq!(markers_received, markers_sent, "every duplicated marker copy is delivered");
        assert!(stats.delayed() > 0, "the reordering schedule never actually held a frame");
        assert_conservation("marker relay", TOTAL, stats.forwarded(), stats.dropped(), 0);
        assert_eq!(stats.dropped(), 0);
        // The duplicate FIN finds its route already closed: absorbed as a
        // counted unknown-stream frame, nothing wedged, nothing reopened.
        let deadline = Instant::now() + WATCHDOG / 2;
        while app.stats().rx_datagrams() < TOTAL + markers_sent + 2 {
            assert!(Instant::now() < deadline, "the duplicate FIN never arrived");
            app.drain_batch();
        }
        assert_eq!(app.unknown_streams(), 1);
    });
}

// ---------------------------------------------------------------------------
// Key rotation under chaos.
// ---------------------------------------------------------------------------

const SECURE_KEY: u64 = 0x5EED;

/// Seals `packet` through the sender's half of the channel, returning the
/// emitted frames (a sealed data frame, or a forwarded rekey control frame).
fn seal_through(encrypt: &mut EncryptFilter, packet: Packet) -> Vec<Packet> {
    let mut out: Vec<Packet> = Vec::new();
    encrypt.process(packet, &mut out).expect("the seal never fails");
    out
}

#[test]
fn a_duplicated_reordered_rekey_on_a_pooled_session_conserves() {
    // Key rotation rides the same control-frame path the marker storm
    // abuses, so it gets the same chaos: the rekey arrives REORDERED
    // (three frames before its boundary) and DUPLICATED (a second copy
    // five frames after).  Mixed in: two sealed frames tampered in flight
    // and one frame replayed under the superseded epoch.  Per-stream
    // conservation must close from independent tallies —
    // `sent == delivered + lost + rejected` — with the tampered and
    // replayed frames counted as rejects, never delivered, and every
    // delivered payload bit-exact plaintext.
    watchdog("chaos-rekey-pooled", WATCHDOG, || {
        const TOTAL: u64 = 160;
        const BOUNDARY: u64 = 80;
        const TAMPERED: [u64; 2] = [20, 100];
        let runtime = Runtime::start(RuntimeConfig::new(2, BATCH_SIZE).with_pipe_capacity(512));
        let session = runtime.add_session("secure");
        let rx = session.add_lane("plaintext").expect("fresh session");
        session
            .insert_lane_filter(
                "plaintext",
                0,
                &FilterSpec::new("decrypt").with_param("key", SECURE_KEY.to_string()),
            )
            .expect("decrypt is registered");

        // The sender's half of the channel, plus a stale sender that never
        // hears about the rotation (the replay source).
        let mut encrypt = EncryptFilter::new(SECURE_KEY);
        let mut stale = EncryptFilter::new(SECURE_KEY);

        let mut wire: Vec<Packet> = Vec::new();
        let mut sent_data = 0u64;
        for seq in 0..TOTAL {
            if seq == BOUNDARY - 3 || seq == BOUNDARY + 5 {
                wire.extend(seal_through(
                    &mut encrypt,
                    rekey_packet(StreamId::new(1), 1, BOUNDARY, seq * 20_000),
                ));
            }
            let mut frames = seal_through(&mut encrypt, audio_packet(seq, 64));
            if TAMPERED.contains(&seq) {
                for frame in &mut frames {
                    frame.payload_edit(|buf| buf[0] ^= 0x01);
                }
            }
            sent_data += frames.len() as u64;
            wire.append(&mut frames);
        }
        let replay = seal_through(&mut stale, audio_packet(BOUNDARY + 2, 64));
        sent_data += replay.len() as u64;
        wire.extend(replay);
        assert_eq!(sent_data, TOTAL + 1);
        assert_eq!(encrypt.stats().sealed(), TOTAL);
        assert_eq!(encrypt.stats().rekeys(), 1, "the duplicate install is idempotent");

        let mut backlog = wire;
        while !backlog.is_empty() {
            backlog = session.input().try_send_batch(backlog).expect("input stays open");
            std::thread::yield_now();
        }
        session.close_input();
        let delivered = drain_to_eof(&rx, Instant::now() + WATCHDOG / 2);

        // Exactly the untampered frames arrive, in order, as plaintext;
        // the rekey copies were consumed, never forwarded.
        let expected: Vec<u64> = (0..TOTAL).filter(|seq| !TAMPERED.contains(seq)).collect();
        let seqs: Vec<u64> = delivered.iter().map(|p| p.seq().value()).collect();
        assert_eq!(seqs, expected, "survivors in order with the rejects cut out");
        for packet in &delivered {
            assert_eq!(packet.kind(), PacketKind::AudioData, "no control frame leaked");
            assert_eq!(
                packet.payload(),
                &vec![(packet.seq().value() % 251) as u8; 64][..],
                "a corrupt payload reached the sink"
            );
        }

        // Conservation from independent tallies: the sender's count, the
        // sink's count, and the decryptor's reject counter.
        let secure = session.status().secure;
        assert_conservation(
            "pooled rekey",
            sent_data,
            delivered.len() as u64,
            0,
            secure.rejected,
        );
        assert_eq!(secure.rejected, 3, "two tampered frames and one stale replay");
        assert_eq!(secure.opened, delivered.len() as u64);
        assert_eq!(secure.rekeys, 1, "the duplicate rekey installs nothing new");

        session.shutdown().expect("clean session shutdown");
        assert_eq!(runtime.live_tasks(), 0, "rekey chaos leaked shard tasks");
        runtime.shutdown().expect("worker pool joins cleanly");
    });
}

#[test]
fn a_blackout_straddling_a_rekey_on_a_shared_carrier_conserves_per_stream() {
    // The rotation under real loss: two streams share one carrier socket,
    // their decrypt stages sit proxy-side, and a total blackout window
    // straddles the rekey boundary — every data frame of the rotation
    // window is lost while the rekey control frames (which always pass the
    // relay, like FINs) ride through, once during the outage and once
    // duplicated after it.  Per-stream conservation must close from
    // independent tallies (`sent == delivered + lost + rejected`), the
    // carrier must demux every sealed survivor to its own stream, and only
    // bit-exact plaintext may reach the app-side routes.
    watchdog("chaos-rekey-shared-blackout", WATCHDOG, || {
        const STREAMS: u32 = 2;
        const BEFORE: u64 = 40;
        const DURING: u64 = 20;
        const AFTER: u64 = 40;
        const TOTAL: u64 = BEFORE + DURING + AFTER;
        const TAMPER_AT: u64 = BEFORE + DURING + 10;
        const CAPACITY: usize = 256;
        const CARRIER: &str = "carrier";

        let mut proxy = Proxy::with_runtime(
            "chaos-rekey-shared",
            RuntimeConfig::new(2, BATCH_SIZE).with_pipe_capacity(CAPACITY),
        );
        let carrier = proxy
            .add_udp_carrier(
                CARRIER,
                UdpCarrierConfig::new().with_capacity(CAPACITY).with_batch_size(BATCH_SIZE),
            )
            .expect("carrier binds");
        let relay = ImpairedUdp::spawn(carrier.ingress_addr(), ImpairmentPlan::clean(31)).unwrap();
        let stats = relay.stats();

        let app =
            SharedUdpIngress::bind("127.0.0.1:0", &UdpConfig::default().with_capacity(CAPACITY))
                .unwrap();
        let routes: Vec<_> = (1..=STREAMS)
            .map(|stream| app.open_stream(StreamId::new(stream)).unwrap())
            .collect();
        let handles: Vec<_> = (1..=STREAMS)
            .map(|stream| {
                proxy
                    .add_stream_udp_shared(
                        format!("stream-{stream}"),
                        SharedUdpStreamConfig::on_carrier(CARRIER, app.local_addr())
                            .with_stream(StreamId::new(stream))
                            .with_capacity(CAPACITY)
                            .with_batch_size(BATCH_SIZE),
                    )
                    .expect("shared stream placement")
            })
            .collect();
        for stream in 1..=STREAMS {
            proxy
                .insert_filter(
                    &format!("stream-{stream}"),
                    0,
                    &FilterSpec::new("decrypt").with_param("key", SECURE_KEY.to_string()),
                )
                .expect("decrypt splices into a shared placement");
        }

        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut encrypts: Vec<EncryptFilter> =
            (0..STREAMS).map(|_| EncryptFilter::new(SECURE_KEY)).collect();
        let plaintext =
            |stream: u32, seq: u64| vec![((u64::from(stream) * 7 + seq) % 251) as u8; 32];

        let send_window = |range: std::ops::Range<u64>, encrypts: &mut Vec<EncryptFilter>| {
            for seq in range {
                for stream in 1..=STREAMS {
                    let packet = Packet::new(
                        StreamId::new(stream),
                        SeqNo::new(seq),
                        PacketKind::AudioData,
                        plaintext(stream, seq),
                    );
                    for mut frame in seal_through(&mut encrypts[(stream - 1) as usize], packet) {
                        if seq == TAMPER_AT {
                            frame.payload_edit(|buf| buf[0] ^= 0x80);
                        }
                        send_encoded(&tx, relay.local_addr(), &frame);
                    }
                }
            }
        };
        let send_rekeys = |encrypts: &mut Vec<EncryptFilter>, tx: &UdpSocket| {
            for stream in 1..=STREAMS {
                for frame in seal_through(
                    &mut encrypts[(stream - 1) as usize],
                    rekey_packet(StreamId::new(stream), 1, BEFORE, BEFORE * 20_000),
                ) {
                    send_encoded(tx, relay.local_addr(), &frame);
                }
            }
        };

        let mut received: Vec<Vec<Packet>> = vec![Vec::new(); STREAMS as usize];
        let drain_until_each = |received: &mut Vec<Vec<Packet>>, target: usize| {
            let deadline = Instant::now() + WATCHDOG / 2;
            loop {
                while app.drain_batch() == SharedDrain::MoreReady {}
                for (index, route) in routes.iter().enumerate() {
                    while let Ok(packet) = route.try_recv() {
                        assert_eq!(
                            packet.stream().value() as usize,
                            index + 1,
                            "frame routed to the wrong stream"
                        );
                        received[index].push(packet);
                    }
                }
                if received.iter().all(|packets| packets.len() >= target) {
                    break;
                }
                assert!(Instant::now() < deadline, "rekey blackout drain made no progress");
                std::thread::yield_now();
            }
        };

        // Clean run-up under the initial epoch.
        send_window(0..BEFORE, &mut encrypts);
        await_relay_accounted(&stats, u64::from(STREAMS) * BEFORE);
        drain_until_each(&mut received, BEFORE as usize);

        // The blackout straddles the rotation: the rekey and every data
        // frame of the rotation window ride through the outage — the
        // control frames pass, the data is counted dropped.
        relay.set_plan(ImpairmentPlan::new(31, vec![(0, ImpairmentPhase::drop_rate(1.0))]));
        send_rekeys(&mut encrypts, &tx);
        send_window(BEFORE..BEFORE + DURING, &mut encrypts);
        await_relay_accounted(&stats, u64::from(STREAMS) * (BEFORE + DURING));
        assert_eq!(
            stats.dropped(),
            u64::from(STREAMS) * DURING,
            "the blackout must count every sealed loss"
        );
        relay.set_plan(ImpairmentPlan::clean(31));

        // The duplicated rekey after the outage is consumed idempotently;
        // traffic resumes under the new epoch, with one tampered frame per
        // stream on the way.
        send_rekeys(&mut encrypts, &tx);
        send_window(BEFORE + DURING..TOTAL, &mut encrypts);
        await_relay_accounted(&stats, u64::from(STREAMS) * TOTAL);
        drain_until_each(&mut received, (BEFORE + AFTER - 1) as usize);
        assert_eq!(stats.control(), u64::from(STREAMS) * 2, "both rekey copies passed per stream");

        // Clean FINs for every stream.
        let deadline = Instant::now() + WATCHDOG / 2;
        for handle in &handles {
            handle.close_input();
        }
        for route in &routes {
            loop {
                while app.drain_batch() == SharedDrain::MoreReady {}
                match route.try_recv() {
                    Err(TryRecvError::Eof | TryRecvError::Closed) => break,
                    Err(TryRecvError::Empty) => {
                        assert!(Instant::now() < deadline, "a stream never reached EOF");
                        std::thread::yield_now();
                    }
                    Ok(packet) => panic!("late delivery after the drain: {packet:?}"),
                }
            }
        }

        // Per-stream conservation from independent tallies: the send loop's
        // count, the relay's drop counter, the decryptor's reject counter,
        // and the app-side delivery tally.
        let status = proxy.status();
        let expected: Vec<u64> = (0..BEFORE)
            .chain(BEFORE + DURING..TOTAL)
            .filter(|&seq| seq != TAMPER_AT)
            .collect();
        for (index, packets) in received.iter().enumerate() {
            let stream = index as u32 + 1;
            let context = format!("rekey blackout stream {stream}");
            let seqs: Vec<u64> = packets.iter().map(|p| p.seq().value()).collect();
            assert_eq!(seqs, expected, "{context}: survivor order");
            for packet in packets {
                assert_eq!(
                    packet.payload(),
                    &plaintext(stream, packet.seq().value())[..],
                    "{context}: a corrupt payload reached the sink"
                );
            }
            let stream_status = status
                .streams
                .iter()
                .find(|s| s.name == format!("stream-{stream}"))
                .expect("stream status present");
            assert_eq!(stream_status.secure.rejected, 1, "{context}: the tampered frame");
            assert_eq!(stream_status.secure.rekeys, 1, "{context}: one rotation installed");
            assert_eq!(stream_status.secure.opened, packets.len() as u64);
            assert_conservation(
                &context,
                TOTAL,
                packets.len() as u64,
                DURING,
                stream_status.secure.rejected,
            );
        }

        // The proxy-wide rollup agrees, and the carrier was blameless:
        // every forwarded datagram (sealed data and rekeys) was demuxed to
        // a registered stream, nothing dropped carrier-side.
        assert_eq!(status.secure.rejected, u64::from(STREAMS));
        assert_eq!(status.secure.rekeys, u64::from(STREAMS));
        let shared = &status.transports;
        assert_eq!(shared.len(), 1, "one carrier serves both streams");
        assert_eq!(
            shared[0].ingress.rx_packets,
            u64::from(STREAMS) * (BEFORE + AFTER + 2),
            "every forwarded datagram was demuxed"
        );
        assert_eq!(shared[0].unknown_streams, 0);
        assert_eq!(shared[0].ingress.dropped, 0);
        assert_eq!(shared[0].egress.dropped, 0);
        assert_eq!(app.unknown_streams(), 0, "no frame escaped its route app-side");
        proxy.shutdown().expect("clean proxy shutdown");
    });
}
