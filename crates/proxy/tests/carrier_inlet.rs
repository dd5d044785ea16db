//! Carrier routes run to completion: the carrier's receive task runs each
//! stream's datagrams through a caught-up chain in place and queues them
//! on its input otherwise.  Which way a run goes is a scheduling detail;
//! these tests pin what must not depend on it — splice ordering, end of
//! stream, and the per-datagram scheduling cost the in-place path exists
//! to cut.

use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware_proxy::{
    FilterSpec, Proxy, RuntimeConfig, SharedUdpStreamConfig, UdpCarrierConfig, UdpCarrierHandle,
};
use rapidware_streams::{DetachableReceiver, TryRecvError};
use rapidware_transport::{SharedDrain, SharedUdpIngress, UdpConfig};

const HANG: Duration = Duration::from_secs(30);

fn packet(stream: u32, seq: u64) -> Packet {
    Packet::new(StreamId::new(stream), SeqNo::new(seq), PacketKind::AudioData, vec![9u8; 32])
}

fn encode_to(socket: &UdpSocket, peer: SocketAddr, packet: &Packet) {
    let mut scratch = Vec::new();
    packet.encode_into(&mut scratch);
    socket.send_to(&scratch, peer).unwrap();
}

/// Spins until `done` holds; the deadline only bounds a genuine hang.
fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + HANG;
    while !done() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::yield_now();
    }
}

/// The application end of the wire: a hand-driven socket with one route.
struct App {
    socket: SharedUdpIngress,
    route: DetachableReceiver<Packet>,
    received: Vec<Packet>,
    ended: bool,
}

impl App {
    fn bind() -> Self {
        let socket = SharedUdpIngress::bind("127.0.0.1:0", &UdpConfig::default()).unwrap();
        let route = socket.open_stream(StreamId::new(1)).unwrap();
        Self {
            socket,
            route,
            received: Vec::new(),
            ended: false,
        }
    }

    /// Receives until `done` holds for what arrived so far.
    fn receive_until(&mut self, what: &str, done: impl Fn(&Self) -> bool) {
        wait_for(what, || {
            let drained = self.socket.drain_batch();
            loop {
                match self.route.try_recv() {
                    Ok(packet) => self.received.push(packet),
                    Err(TryRecvError::Eof) => {
                        self.ended = true;
                        break;
                    }
                    Err(_) => break,
                }
            }
            if drained == SharedDrain::Empty {
                std::thread::yield_now();
            }
            done(self)
        });
    }

    fn data(&self) -> usize {
        self.received.iter().filter(|p| p.kind().is_payload()).count()
    }
}

/// A proxy with one carrier and one stream (id 1) on it sending to `peer`.
fn one_stream(peer: SocketAddr) -> (Proxy, UdpCarrierHandle) {
    let mut proxy = Proxy::with_runtime("inlet", RuntimeConfig::new(2, 8));
    let carrier = proxy.add_udp_carrier("wire", UdpCarrierConfig::new()).unwrap();
    proxy
        .add_stream_udp_shared(
            "s",
            SharedUdpStreamConfig::on_carrier("wire", peer).with_stream(StreamId::new(1)),
        )
        .unwrap();
    (proxy, carrier)
}

#[test]
fn inlet_an_fec_encoder_removed_under_traffic_delivers_its_residue_ahead_of_later_traffic() {
    const SOURCES: u64 = 64;
    const CHUNK: u64 = 6;
    let mut app = App::bind();
    let (proxy, carrier) = one_stream(app.socket.local_addr());
    proxy.insert_filter("s", 0, &FilterSpec::new("fec-encoder")).unwrap();
    let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
    for chunk in 0..SOURCES / CHUNK + 1 {
        let seqs = chunk * CHUNK..((chunk + 1) * CHUNK).min(SOURCES);
        for seq in seqs.clone() {
            encode_to(&tx, carrier.ingress_addr(), &packet(1, seq));
        }
        if chunk == 5 {
            // The carrier is draining this chunk right now: the splice
            // lands between two of its runs, whichever way each one goes.
            proxy.remove_filter("s", 0).unwrap();
        }
        app.receive_until("a chunk never came out", |app| app.data() as u64 == seqs.end);
    }
    let data: Vec<u64> = app
        .received
        .iter()
        .filter(|p| p.kind().is_payload())
        .map(|p| p.seq().value())
        .collect();
    assert_eq!(data, (0..SOURCES).collect::<Vec<u64>>(), "every source once, in order");
    // Parities come in pairs, each after the four sources of its block —
    // except the removed encoder's residue, which protects the partial
    // block it held and must arrive before any source that came later.
    let mut since = 0;
    let mut pairs = Vec::new();
    for (index, packet) in app.received.iter().enumerate() {
        if packet.kind().is_payload() {
            since += 1;
        } else if !app.received[index - 1].kind().is_payload() {
            pairs.push(since);
            since = 0;
        }
    }
    let (residue, whole) = pairs.split_last().expect("the encoder ran before the splice");
    assert!(whole.iter().all(|&sources| sources == 4), "{pairs:?}");
    assert!((1..=4).contains(residue), "the residue trails later traffic: {pairs:?}");
    let parities = app.received.len() - data.len();
    assert_eq!(parities, 2 * pairs.len(), "parities come in pairs");
}

#[test]
fn inlet_datagrams_after_close_input_are_shed_and_counted_not_processed() {
    let mut app = App::bind();
    let mut proxy = Proxy::with_runtime("inlet", RuntimeConfig::new(2, 8));
    let carrier = proxy.add_udp_carrier("wire", UdpCarrierConfig::new()).unwrap();
    let handle = proxy
        .add_stream_udp_shared(
            "s",
            SharedUdpStreamConfig::on_carrier("wire", app.socket.local_addr())
                .with_stream(StreamId::new(1)),
        )
        .unwrap();
    let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
    for seq in 0..10 {
        encode_to(&tx, carrier.ingress_addr(), &packet(1, seq));
    }
    app.receive_until("the first ten never came out", |app| app.data() == 10);
    handle.close_input();
    app.receive_until("the stream's FIN never came", |app| app.ended);
    for seq in 10..20 {
        encode_to(&tx, carrier.ingress_addr(), &packet(1, seq));
    }
    wait_for("the late datagrams were not shed as counted drops", || {
        carrier.ingress_stats().dropped() == 10
    });
    assert_eq!(carrier.ingress_stats().rx_packets(), 20, "received ⇒ counted, even when shed");
    let stats = proxy.stream_stats("s").unwrap();
    assert_eq!((stats.packets_in, stats.packets_out), (10, 10), "nothing late was processed");
    assert_eq!(carrier.egress_stats().tx_packets(), 11, "ten frames and the FIN");
    assert_eq!(app.received.len(), 10);
    proxy.shutdown().unwrap();
}

#[test]
fn inlet_a_burst_over_64_carrier_streams_costs_under_half_a_task_step_per_datagram() {
    const STREAMS: u32 = 64;
    const BURST: u64 = 1_000;
    // Chunks the carrier socket buffers whole, so the kernel drops nothing.
    const CHUNK: u64 = 100;
    let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
    let mut proxy = Proxy::with_runtime("burst", RuntimeConfig::new(2, 32));
    let carrier = proxy
        .add_udp_carrier("wire", UdpCarrierConfig::new().with_capacity(512).with_batch_size(32))
        .unwrap();
    for stream in 1..=STREAMS {
        let config = SharedUdpStreamConfig::on_carrier("wire", sink.local_addr().unwrap())
            .with_stream(StreamId::new(stream))
            .with_capacity(512)
            .with_batch_size(32);
        proxy.add_stream_udp_shared(format!("s{stream}"), config).unwrap();
    }
    let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
    let mut sent = 0u64;
    let mut send = |count: u64| {
        for _ in 0..count {
            let stream = (sent % u64::from(STREAMS)) as u32 + 1;
            encode_to(&tx, carrier.ingress_addr(), &packet(stream, sent));
            sent += 1;
        }
        let sent = sent;
        wait_for("the carrier fell behind", || {
            carrier.ingress_stats().rx_datagrams() == sent
                && carrier.egress_stats().tx_packets() == sent
        });
    };
    // Warm-up: every stream's first datagram, past the placement kicks.
    send(u64::from(STREAMS));
    let polls = || proxy.status().runtime.expect("a live pool").polls;
    let before = polls();
    for _ in 0..BURST / CHUNK {
        send(CHUNK);
    }
    let per_datagram = (polls() - before) as f64 / BURST as f64;
    assert!(
        per_datagram < 0.5,
        "{per_datagram:.2} task steps per datagram: the carrier's routes are not running in place"
    );
    for stream in 1..=STREAMS {
        let stats = proxy.stream_stats(&format!("s{stream}")).unwrap();
        assert_eq!(stats.packets_in, stats.packets_out, "stream {stream}");
    }
    proxy.shutdown().unwrap();
}
