//! Parity of the batched egress with a plain `send_to` loop.
//!
//! [`SharedUdpEgress::flush_batch`] encodes a whole pass into one arena,
//! lets the kernel cut runs of equal-length frames back into datagrams
//! (`UDP_SEGMENT`) and submits everything with one `sendmmsg` — through
//! hand-declared FFI.  Whatever it does, each peer must receive, per
//! stream, byte for byte the datagram sequence that the obvious reference —
//! one `encode` and one `send_to` per frame, then the FIN — puts there.
//! Both run over real loopback sockets, to the same receivers.

use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;

use proptest::prelude::*;
use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId, HEADER_LEN};
use rapidware_streams::{pipe, TryRecvError};
use rapidware_telemetry::Histogram;
use rapidware_transport::{
    is_stream_fin, stream_fin_packet, SharedFlush, SharedUdpEgress, SharedUdpIngress, UdpConfig,
    MAX_DATAGRAM_LEN,
};

/// The payload lengths one lane sends, by mix.
fn payload_lens(mix: u8, count: usize, base: usize, seed: u64) -> Vec<usize> {
    let mut lens = vec![base; count];
    match mix {
        // All equal.
        0 => {}
        // A shorter last frame.
        1 => {
            if let Some(last) = lens.last_mut() {
                *last = base / 2;
            }
        }
        // Mixed lengths.
        2 => {
            let mut state = seed | 1;
            for len in &mut lens {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                *len = (state >> 33) as usize % 400;
            }
        }
        // One frame a byte too long for a datagram, among equal ones.
        _ => {
            if count > 0 {
                lens[seed as usize % count] = MAX_DATAGRAM_LEN - HEADER_LEN + 1;
            }
        }
    }
    lens
}

fn frames(stream: u32, lens: &[usize]) -> Vec<Packet> {
    lens.iter()
        .enumerate()
        .map(|(seq, &len)| {
            let seq = seq as u64;
            let salt = seq ^ u64::from(stream);
            let payload: Vec<u8> = (0..len as u64).map(|at| (at ^ salt) as u8).collect();
            Packet::new(StreamId::new(stream), SeqNo::new(seq), PacketKind::Data, payload)
        })
        .collect()
}

/// Everything queued on `receivers`, appended per (receiver, stream id) in
/// arrival order.  Loopback delivery is synchronous, so whatever was sent
/// before this call is queued already.
fn collect(receivers: &[UdpSocket], into: &mut BTreeMap<(usize, u32), Vec<Vec<u8>>>) {
    let mut buf = vec![0u8; 65_536];
    for (index, receiver) in receivers.iter().enumerate() {
        loop {
            match receiver.recv(&mut buf) {
                Ok(len) => {
                    let frame = Packet::decode(&buf[..len]).expect("a whole frame");
                    let key = (index, frame.stream().value());
                    into.entry(key).or_default().push(buf[..len].to_vec());
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => break,
                Err(err) => panic!("receiving on loopback: {err}"),
            }
        }
    }
}

fn receivers(count: usize) -> Vec<UdpSocket> {
    (0..count)
        .map(|_| {
            let socket = UdpSocket::bind("127.0.0.1:0").expect("loopback bind");
            socket.set_nonblocking(true).expect("non-blocking");
            socket
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random lanes × peers × length mixes × batch sizes: per (peer,
    /// stream) the egress delivers exactly the reference's datagrams.
    #[test]
    fn each_peer_receives_what_a_send_to_loop_would_send(
        peers in 1usize..=4,
        batch_size in 1usize..=16,
        // Per lane: (peer, length mix), (frames, base payload length, seed).
        lanes in proptest::collection::vec(
            ((0usize..4, 0u8..4), (0usize..=12, 1usize..=400, any::<u64>())),
            1..9,
        ),
    ) {
        let receivers = receivers(peers);
        let addrs: Vec<SocketAddr> = receivers.iter().map(|r| r.local_addr().unwrap()).collect();
        let lanes: Vec<(usize, Vec<Packet>)> = lanes
            .iter()
            .enumerate()
            .map(|(index, &((peer, mix), (count, base, seed)))| {
                (peer % peers, frames(index as u32 + 1, &payload_lens(mix, count, base, seed)))
            })
            .collect();

        // The reference: one datagram per frame that fits, then the FIN.
        let plain = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut expected = BTreeMap::new();
        let mut oversized = 0u64;
        for (index, (peer, frames)) in lanes.iter().enumerate() {
            let fin = stream_fin_packet(StreamId::new(index as u32 + 1));
            for frame in frames.iter().chain([&fin]) {
                if frame.wire_len() > MAX_DATAGRAM_LEN {
                    oversized += 1;
                    continue;
                }
                plain.send_to(&frame.encode(), addrs[*peer]).expect("loopback send");
            }
            collect(&receivers, &mut expected);
        }

        // The egress, fed the same frames.
        let config = UdpConfig::default().with_batch_size(batch_size);
        let egress = SharedUdpEgress::bind("127.0.0.1:0", &config).unwrap();
        let mut offered = 0u64;
        for (index, (peer, frames)) in lanes.iter().enumerate() {
            let (tx, rx) = pipe::<Packet>(16);
            egress.attach(StreamId::new(index as u32 + 1), addrs[*peer], rx);
            offered += frames.len() as u64 + 1;
            tx.send_batch(frames.clone()).unwrap();
            tx.close();
        }
        let mut received = BTreeMap::new();
        let mut passes = 0;
        while egress.lane_count() > 0 {
            passes += 1;
            prop_assert!(passes < 1_000, "the egress made no progress");
            // Loopback never pushes back.
            prop_assert_ne!(egress.flush_batch(), SharedFlush::Blocked);
            collect(&receivers, &mut received);
        }

        prop_assert_eq!(&received, &expected);
        for sequence in received.values() {
            let last = Packet::decode(sequence.last().unwrap()).unwrap();
            prop_assert!(is_stream_fin(&last), "each lane's FIN arrives behind its last frame");
        }
        let stats = egress.stats();
        prop_assert_eq!(stats.dropped(), oversized);
        prop_assert_eq!(stats.tx_packets() + stats.dropped(), offered);
        prop_assert_eq!(stats.tx_datagrams(), stats.tx_packets());
        prop_assert_eq!(stats.gso_refused(), 0, "loopback segments");
        prop_assert!(stats.tx_batches() <= passes, "one crossing per pass");
    }
}

/// Sends `frames` (and the FIN) down one lane of a real egress and returns
/// what the peer received with the egress's send shape: frames per
/// crossing, segments per message.
fn one_lane(frames: Vec<Packet>) -> (Vec<Vec<u8>>, Arc<Histogram>, Arc<Histogram>) {
    let receivers = receivers(1);
    let config = UdpConfig::default().with_batch_size(128);
    let egress = SharedUdpEgress::bind("127.0.0.1:0", &config).unwrap();
    let (flush_batch, tx_segments) = (Arc::new(Histogram::new()), Arc::new(Histogram::new()));
    egress.record_send_shape(flush_batch.clone(), tx_segments.clone());
    let (tx, rx) = pipe::<Packet>(128);
    egress.attach(StreamId::new(1), receivers[0].local_addr().unwrap(), rx);
    tx.send_batch(frames).unwrap();
    tx.close();
    assert_eq!(egress.flush_batch(), SharedFlush::Idle);
    assert_eq!(egress.lane_count(), 0);
    let mut received = BTreeMap::new();
    collect(&receivers, &mut received);
    (received.remove(&(0, 1)).unwrap_or_default(), flush_batch, tx_segments)
}

#[test]
fn a_run_of_65_equal_frames_splits_at_the_segment_limit() {
    let frames = frames(1, &[100; 65]);
    let mut expected: Vec<Vec<u8>> = frames.iter().map(|frame| frame.encode().to_vec()).collect();
    expected.push(stream_fin_packet(StreamId::new(1)).encode().to_vec());
    let (received, flush_batch, tx_segments) = one_lane(frames);
    assert_eq!(received, expected);
    // One crossing of 66 frames: 64 segments, then the 65th with the FIN.
    let (crossings, messages) = (flush_batch.snapshot(), tx_segments.snapshot());
    assert_eq!((crossings.count(), crossings.sum), (1, 66));
    assert_eq!((messages.count(), messages.max, messages.min), (2, 64, 2));
}

#[test]
fn a_run_longer_than_one_datagram_splits_at_the_byte_limit() {
    let frames = frames(1, &[30_000; 3]);
    let mut expected: Vec<Vec<u8>> = frames.iter().map(|frame| frame.encode().to_vec()).collect();
    expected.push(stream_fin_packet(StreamId::new(1)).encode().to_vec());
    let (received, flush_batch, tx_segments) = one_lane(frames);
    assert_eq!(received, expected);
    // Two 30 040-byte frames fill a datagram's 65 507 bytes; the third
    // shares a message with the FIN.
    let (crossings, messages) = (flush_batch.snapshot(), tx_segments.snapshot());
    assert_eq!((crossings.count(), crossings.sum), (1, 4));
    assert_eq!((messages.count(), messages.max, messages.min), (2, 2, 2));
}

#[test]
fn ipv6_loopback_round_trip() {
    let config = UdpConfig::default();
    let Ok(ingress) = SharedUdpIngress::bind("[::1]:0", &config) else {
        return; // This host has no IPv6 loopback.
    };
    let route = ingress.open_stream(StreamId::new(9)).unwrap();
    let egress = SharedUdpEgress::bind("[::1]:0", &config).unwrap();
    let (tx, rx) = pipe::<Packet>(64);
    egress.attach(StreamId::new(9), ingress.local_addr(), rx);
    // Equal lengths, so they cross as one segmented message.
    let sent = frames(9, &[200; 20]);
    tx.send_batch(sent.clone()).unwrap();
    tx.close();
    assert_eq!(egress.flush_batch(), SharedFlush::Idle);
    assert_eq!(egress.stats().tx_batches(), 1);
    while ingress.route_count() > 0 {
        ingress.drain_batch();
    }
    assert_eq!(route.try_recv_up_to(64).unwrap(), sent);
    assert_eq!(route.try_recv().unwrap_err(), TryRecvError::Eof);
    assert_eq!(egress.stats().tx_packets(), 21);
    assert_eq!(egress.stats().gso_refused(), 0);
}
