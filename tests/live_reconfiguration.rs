//! Cross-crate integration test: live chain reconfiguration under load.
//!
//! Exercises the property at the core of the paper — filters can be
//! inserted, removed, and reordered on a running stream without losing,
//! duplicating, or reordering application data — on a live proxy: a flat
//! stream and a two-lane fanout session spliced while packets flow, the
//! same lane churn on a session riding a UDP carrier under closed-loop
//! socket load, the control protocol, and repeated churn.  Every splice
//! paces on what the receivers have already read, so it lands mid-stream
//! without a sleep.

mod common;

use std::net::UdpSocket;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rapidware::prelude::*;
use rapidware::proxy::{SharedUdpSessionConfig, UdpCarrierConfig};
use rapidware::streams::DetachableReceiver;

use common::{bind_app, poll_app, recv_app_to_eof, send_encoded};

const HANG: Duration = Duration::from_secs(30);

fn audio_packet(seq: u64) -> Packet {
    Packet::new(
        StreamId::new(1),
        SeqNo::new(seq),
        PacketKind::AudioData,
        vec![(seq % 251) as u8; 120],
    )
}

/// Reads `output` to end of stream on its own thread, bumping `delivered`
/// once per packet.
fn drain(
    output: DetachableReceiver<Packet>,
    delivered: &Arc<AtomicU64>,
) -> std::thread::JoinHandle<Vec<Packet>> {
    let delivered = Arc::clone(delivered);
    std::thread::spawn(move || {
        let mut packets = Vec::new();
        while let Ok(packet) = output.recv() {
            packets.push(packet);
            delivered.fetch_add(1, Ordering::Relaxed);
        }
        packets
    })
}

/// Yields until `counter` reaches `count`.
fn wait_for(counter: &AtomicU64, count: u64) {
    let deadline = Instant::now() + HANG;
    while counter.load(Ordering::Relaxed) < count {
        assert!(Instant::now() < deadline, "stalled below {count}");
        std::thread::yield_now();
    }
}

/// Asserts a loss-free, in-order splice on one endpoint: every payload
/// packet of `0..total` exactly once, in order, with its bytes intact.
fn assert_intact(endpoint: &str, packets: &[Packet], total: u64) {
    let payload: Vec<&Packet> = packets.iter().filter(|p| p.kind().is_payload()).collect();
    assert_eq!(payload.len() as u64, total, "{endpoint}: no loss or duplication");
    for (index, packet) in payload.iter().enumerate() {
        assert_eq!(packet.seq().value(), index as u64, "{endpoint}: order preserved");
        assert_eq!(
            packet.payload(),
            audio_packet(index as u64).payload(),
            "{endpoint}: payload intact end to end (seq {index})"
        );
    }
}

#[test]
fn repeated_splice_churn_preserves_the_stream() {
    // Churn on a flat stream and on both lanes of a fanout session at
    // once, each on its own schedule.
    let mut proxy = Proxy::with_runtime("churn", RuntimeConfig::new(2, 8).with_pipe_capacity(32));
    let (stream_in, stream_out) = proxy.add_stream_pooled("audio").unwrap();
    let session_in = proxy.add_session_pooled("room", 32, 8).unwrap();
    let lanes = ["wired", "wlan"];
    let delivered = Arc::new(AtomicU64::new(0));
    let mut consumers = vec![("audio", drain(stream_out, &delivered))];
    for lane in lanes {
        let output = proxy.pooled_session("room").unwrap().add_lane(lane).unwrap();
        consumers.push((lane, drain(output, &delivered)));
    }
    // The stream runs in one chunk per churn round, the next chunk goes out
    // only after that round's splices, and the inputs close only after the
    // clean-up below, so every splice lands on an open stream with more to
    // come, however the threads are scheduled.
    const ROUNDS: u64 = 20;
    const CHUNK: u64 = 300;
    let total = ROUNDS * CHUNK;
    let rounds_done = Arc::new(AtomicU64::new(0));
    let producer = {
        let rounds_done = Arc::clone(&rounds_done);
        std::thread::spawn(move || {
            for round in 0..ROUNDS {
                wait_for(&rounds_done, round);
                for seq in round * CHUNK..(round + 1) * CHUNK {
                    stream_in.send(audio_packet(seq)).unwrap();
                    session_in.send(audio_packet(seq)).unwrap();
                }
            }
            wait_for(&rounds_done, ROUNDS + 1);
            stream_in.close();
            session_in.close();
        })
    };

    // Churn: repeatedly add and remove filters while the stream runs, each
    // round once a third of its chunk has reached every receiver.
    let session = proxy.pooled_session("room").unwrap();
    for round in 0..ROUNDS {
        wait_for(&delivered, 3 * (round * CHUNK + CHUNK / 3));
        let kind = |offset: u64| match (round + offset) % 4 {
            0 => "null",
            1 => "tap",
            2 => "scrambler",
            _ => "descrambler",
        };
        let spec = |offset| {
            FilterSpec::new(kind(offset)).with_param("key", "9").with_param("name", "churn")
        };
        let at = (round % 2) as usize;
        let len = proxy.filter_names("audio").unwrap().len();
        proxy.insert_filter("audio", len.min(at), &spec(0)).unwrap();
        if len + 1 > 2 {
            proxy.remove_filter("audio", len).unwrap();
        }
        for (offset, lane) in (1..).zip(lanes) {
            let len = session.lane_filter_names(lane).unwrap().len();
            session.insert_lane_filter(lane, len.min(at), &spec(offset)).unwrap();
            if len + 1 > 2 {
                session.remove_lane_filter(lane, len).unwrap();
            }
        }
        rounds_done.store(round + 1, Ordering::Relaxed);
    }
    // Remove whatever is left so the payload reaches the output unscrambled
    // (scrambler/descrambler pairs may have been split by the churn).
    while !proxy.filter_names("audio").unwrap().is_empty() {
        proxy.remove_filter("audio", 0).unwrap();
    }
    for lane in lanes {
        while !session.lane_filter_names(lane).unwrap().is_empty() {
            session.remove_lane_filter(lane, 0).unwrap();
        }
    }
    rounds_done.store(ROUNDS + 1, Ordering::Relaxed);

    producer.join().unwrap();
    let mut seen = Vec::new();
    for (endpoint, consumer) in consumers {
        seen.push((endpoint, consumer.join().unwrap()));
    }
    for (endpoint, packets) in &seen {
        let seqs: Vec<u64> =
            packets.iter().filter(|p| p.kind().is_payload()).map(|p| p.seq().value()).collect();
        assert_eq!(seqs.len() as u64, total, "{endpoint}: no loss or duplication under churn");
        for (index, seq) in seqs.iter().enumerate() {
            assert_eq!(*seq, index as u64, "{endpoint}: order preserved under churn");
        }
    }
    assert!(proxy.stream_stats("audio").unwrap().splices >= 20);
    for lane in lanes {
        assert!(session.lane_stats(lane).unwrap().splices >= 20, "{lane}");
    }
    proxy.shutdown().unwrap();
}

#[test]
fn control_protocol_drives_a_live_proxy() {
    let mut proxy = Proxy::new("controlled");
    let (input, output) = proxy.add_stream_pooled("audio").unwrap();
    let mut manager = ControlManager::new(proxy);

    let consumer = std::thread::spawn(move || {
        let mut packets = Vec::new();
        while let Ok(packet) = output.recv() {
            packets.push(packet);
        }
        packets
    });

    // Configure the chain entirely over the text protocol.
    assert_eq!(manager.execute_line("insert stream=audio pos=0 kind=fec-encoder n=6 k=4"), "ok");
    assert_eq!(manager.execute_line("insert stream=audio pos=1 kind=compressor"), "ok");
    let status = manager.execute_line("query");
    assert!(status.contains("fec-encoder(6,4)"));
    assert!(status.contains("compressor"));

    // Traffic flows through the remotely-configured chain.
    let mut source = AudioSource::pcm_default(StreamId::new(1));
    for _ in 0..100 {
        input.send(source.next_packet()).unwrap();
    }

    // Reconfigure mid-stream: drop the compressor, keep FEC.
    assert_eq!(manager.execute_line("remove stream=audio pos=1"), "ok");
    for _ in 0..100 {
        input.send(source.next_packet()).unwrap();
    }

    input.close();
    let delivered = consumer.join().unwrap();
    let payload = delivered.iter().filter(|p| p.kind().is_payload()).count();
    let parity = delivered.iter().filter(|p| p.kind().is_parity()).count();
    assert_eq!(payload, 200);
    assert_eq!(parity, 100, "FEC(6,4) adds one parity per two sources");
    manager.proxy_mut().shutdown().unwrap();
}

#[test]
fn scrambler_pair_survives_being_spliced_in_and_out() {
    // Insert a scrambler/descrambler pair into a live stream, then remove
    // both; every payload byte must survive untouched end to end.  The
    // same splices run on a flat stream and on one lane of a two-lane
    // session, whose other lane is never touched.
    let mut proxy = Proxy::new("scrambled");
    let (stream_in, stream_out) = proxy.add_stream_pooled("audio").unwrap();
    let session_in = proxy.add_session_pooled("room", 64, 16).unwrap();
    let session = proxy.pooled_session("room").unwrap();
    let delivered = Arc::new(AtomicU64::new(0));
    let consumers = [
        ("audio", drain(stream_out, &delivered)),
        ("wired", drain(session.add_lane("wired").unwrap(), &delivered)),
        ("wlan", drain(session.add_lane("wlan").unwrap(), &delivered)),
    ];
    let total = 300u64;
    let send = |range: std::ops::Range<u64>| {
        for seq in range {
            stream_in.send(audio_packet(seq)).unwrap();
            session_in.send(audio_packet(seq)).unwrap();
        }
    };

    // A pair is two splices, and a packet still queued in front of a
    // chain meets whatever half is installed when its batch runs.  So each
    // half-pair moment starts only once everything sent so far has come
    // out: the drain the paper's pause performs in front of the splice.
    send(0..100);
    wait_for(&delivered, 3 * 100);
    let scrambler = FilterSpec::new("scrambler").with_param("key", "1234");
    let descrambler = FilterSpec::new("descrambler").with_param("key", "1234");
    proxy.insert_filter("audio", 0, &scrambler).unwrap();
    proxy.insert_filter("audio", 1, &descrambler).unwrap();
    session.insert_lane_filter("wlan", 0, &scrambler).unwrap();
    session.insert_lane_filter("wlan", 1, &descrambler).unwrap();
    send(100..200);
    wait_for(&delivered, 3 * 200);
    for _ in 0..2 {
        proxy.remove_filter("audio", 0).unwrap();
        session.remove_lane_filter("wlan", 0).unwrap();
    }
    send(200..total);
    stream_in.close();
    session_in.close();

    for (endpoint, consumer) in consumers {
        let packets = consumer.join().unwrap();
        assert_eq!(packets.len() as u64, total, "{endpoint}");
        assert_intact(endpoint, &packets, total);
    }
    assert_eq!(proxy.stream_stats("audio").unwrap().splices, 4);
    assert_eq!(session.lane_stats("wlan").unwrap().splices, 4);
    assert_eq!(session.lane_stats("wired").unwrap().splices, 0);
    proxy.shutdown().unwrap();
}

#[test]
fn lane_churn_on_a_carrier_session_under_closed_loop_load_preserves_every_lane() {
    // The session rides a carrier: datagrams in, one socket task draining,
    // running the session in place or queueing on its inbox, and flushing
    // both lanes back out.  The sender keeps a window of datagrams in
    // flight in bursts, so the carrier drains batches (and may defer its
    // wake-ups between them) while the lanes are spliced.
    const ROUNDS: u64 = 20;
    const CHUNK: u64 = 300;
    const WINDOW: u64 = 64;
    const BURST: u64 = 16;
    let total = ROUNDS * CHUNK;
    let lanes = ["wired", "wlan"];
    let apps: Vec<_> = lanes.iter().map(|_| bind_app(&[1])).collect();
    let mut proxy =
        Proxy::with_runtime("carrier-churn", RuntimeConfig::new(2, 8).with_pipe_capacity(256));
    let carrier = proxy
        .add_udp_carrier("wire", UdpCarrierConfig::new().with_batch_size(32))
        .unwrap();
    let mut config = SharedUdpSessionConfig::on_carrier("wire").with_stream(StreamId::new(1));
    for (lane, (app, _)) in lanes.iter().zip(&apps) {
        config = config.with_lane(*lane, app.local_addr());
    }
    let handle = proxy.add_session_udp_shared("room", config).unwrap();
    let ingress = handle.ingress_addr();

    // What the slower lane has received: the window and the splices pace
    // on it.
    let delivered = Arc::new(AtomicU64::new(0));
    let receiver = {
        let delivered = Arc::clone(&delivered);
        std::thread::spawn(move || {
            let deadline = Instant::now() + HANG;
            let mut received = vec![Vec::new(); apps.len()];
            while received.iter().any(|packets| (packets.len() as u64) < total) {
                assert!(Instant::now() < deadline, "carrier lanes stalled below {total}");
                for ((app, route), packets) in apps.iter().zip(&mut received) {
                    assert!(poll_app(app, route, packets), "a lane ended early");
                }
                let slowest = received.iter().map(Vec::len).min().unwrap_or(0);
                delivered.store(slowest as u64, Ordering::Relaxed);
                std::thread::yield_now();
            }
            for ((app, route), packets) in apps.iter().zip(&mut received) {
                packets.extend(recv_app_to_eof(app, route, Instant::now() + HANG));
            }
            received
        })
    };
    let rounds_done = Arc::new(AtomicU64::new(0));
    let sender = {
        let (delivered, rounds_done) = (Arc::clone(&delivered), Arc::clone(&rounds_done));
        std::thread::spawn(move || {
            let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
            let mut seq = 0;
            for round in 0..ROUNDS {
                wait_for(&rounds_done, round);
                while seq < (round + 1) * CHUNK {
                    // Closed loop: UDP has no back-pressure, so the window
                    // keeps every socket and route far from overflowing.
                    wait_for(&delivered, (seq + BURST).saturating_sub(WINDOW));
                    for _ in 0..BURST.min((round + 1) * CHUNK - seq) {
                        send_encoded(&socket, ingress, &audio_packet(seq));
                        seq += 1;
                    }
                }
            }
        })
    };

    let session = proxy.pooled_session("room").unwrap();
    for round in 0..ROUNDS {
        wait_for(&delivered, round * CHUNK + CHUNK / 3);
        let spec = |offset: u64| {
            let kind = if (round + offset).is_multiple_of(2) { "null" } else { "tap" };
            FilterSpec::new(kind).with_param("name", "churn")
        };
        let at = (round % 2) as usize;
        for (offset, lane) in (0..).zip(lanes) {
            let len = session.lane_filter_names(lane).unwrap().len();
            session.insert_lane_filter(lane, len.min(at), &spec(offset)).unwrap();
            if len + 1 > 2 {
                session.remove_lane_filter(lane, len).unwrap();
            }
        }
        rounds_done.store(round + 1, Ordering::Relaxed);
    }
    sender.join().unwrap();
    wait_for(&delivered, total);
    handle.close_input();
    let received = receiver.join().unwrap();
    for (lane, packets) in lanes.iter().zip(&received) {
        assert_eq!(packets.len() as u64, total, "{lane}: nothing after the FIN but the end");
        assert_intact(lane, packets, total);
        assert!(session.lane_stats(lane).unwrap().splices >= ROUNDS, "{lane}");
    }
    let ingress = carrier.ingress_stats();
    assert_eq!(ingress.rx_packets(), total);
    assert_eq!(ingress.dropped(), 0, "the window kept every route in bounds");
    assert_eq!(ingress.decode_errors(), 0);
    proxy.shutdown().unwrap();
}
