//! A composable proxy on real UDP sockets.
//!
//! The smallest end-to-end wire setup: a sender application encodes
//! packets into datagrams and sends them to a proxy carrier (one UDP
//! socket, here with a single route — a dedicated socket); the proxy runs
//! them through a live-reconfigurable
//! filter chain (FEC protection is spliced in mid-stream, exactly as the
//! paper's control thread would) and forwards the output — over a
//! deterministic lossy relay — to a receiver application that repairs the
//! losses with the matching decoder.
//!
//! ```text
//!  sender app ──UDP──▶ proxy [fec-encoder] ──UDP──▶ ImpairedUdp ──UDP──▶ receiver app [fec-decoder]
//! ```
//!
//! Run with `cargo run --example udp_proxy`.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use rapidware::filters::{FecDecoderFilter, Filter};
use rapidware::packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware::prelude::*;

fn main() {
    // The receiver application's socket: a transport ingress with one
    // route, whose consumer side is an ordinary detachable receiver.  The
    // endpoint owns no thread; the receive loop below drains it.
    let receiver = SharedUdpIngress::bind("127.0.0.1:0", &UdpConfig::default())
        .expect("binding the receiver socket");
    let route = receiver.open_stream(StreamId::new(1)).expect("a fresh socket has no routes");

    // A deterministic lossy hop in front of it: every 5th frame dropped,
    // seeded so the run is repeatable.
    let relay = ImpairedUdp::spawn(receiver.local_addr(), ImpairmentPlan::drop_every(2001, 5))
        .expect("spawning the impairment relay");

    // The proxy: a carrier socket on the worker pool's reactor, and one
    // stream riding it towards the lossy hop.
    let mut proxy = Proxy::with_runtime("edge-proxy", RuntimeConfig::new(2, 8));
    let carrier = proxy
        .add_udp_carrier("wire", UdpCarrierConfig::new())
        .expect("binding the proxy's carrier socket");
    let handle = proxy
        .add_stream_udp_shared(
            "audio",
            SharedUdpStreamConfig::on_carrier("wire", relay.local_addr())
                .with_stream(StreamId::new(1)),
        )
        .expect("the carrier accepts its first stream");

    // Protect the stream: splice FEC(6,4) into the live chain.
    proxy
        .insert_filter(
            "audio",
            0,
            &FilterSpec::new("fec-encoder").with_param("n", "6").with_param("k", "4"),
        )
        .expect("the registry knows fec-encoder");

    // The sender application: 80 audio packets, one datagram each.
    let sender = UdpSocket::bind("127.0.0.1:0").expect("binding the sender socket");
    let mut scratch = Vec::new();
    for seq in 0..80u64 {
        let packet =
            Packet::new(StreamId::new(1), SeqNo::new(seq), PacketKind::AudioData, vec![0u8; 160]);
        packet.encode_into(&mut scratch);
        sender.send_to(&scratch, carrier.ingress_addr()).expect("loopback send");
    }

    // Receive through the lossy hop and repair with the matching decoder.
    // 80 sources + 40 parity minus every 5th frame = 96 survivors.
    let mut decoder = FecDecoderFilter::new(6, 4).expect("valid FEC parameters");
    let mut delivered = 0u64;
    let mut repaired = Vec::new();
    let mut survivors = 0;
    let deadline = Instant::now() + Duration::from_secs(30);
    while survivors < 96 {
        assert!(Instant::now() < deadline, "the stream stalled at {survivors}/96");
        receiver.drain_batch();
        while let Ok(survivor) = route.try_recv() {
            survivors += 1;
            if survivor.kind().is_payload() {
                delivered += 1;
            }
            decoder.process(survivor, &mut repaired).expect("decoder accepts the stream");
        }
    }
    let recovered = repaired.iter().filter(|p| p.kind().is_payload()).count() as u64;

    println!("sender transmitted : 80 source packets");
    println!("relay dropped      : {}", relay.stats().dropped());
    println!("receiver delivered : {delivered} raw, {recovered} after FEC repair");
    let status = proxy.status();
    println!(
        "proxy carrier      : rx={} tx={} decode-errors={}",
        status.transports[0].ingress.rx_packets,
        status.transports[0].egress.tx_packets,
        status.transports[0].ingress.decode_errors,
    );
    assert_eq!(recovered, 80, "every source packet must be delivered or repaired");
    handle.close_input();
    proxy.shutdown().expect("clean shutdown");
    println!("all 80 source packets reached the application — the wire lost {}, FEC repaired them",
        80 - delivered);
}
