//! The observable surface of a flat stream, pinned through the public API
//! only: the same splice script runs on an in-process stream
//! (`add_stream_pooled`) and on a carrier stream (`add_stream_udp_shared`),
//! and both must report the exact `ProxyStatus.streams` entry, `query`
//! segment and `stream.<name>.*` telemetry keys below — whatever task type
//! the runtime hosts a stream on.

use std::time::{Duration, Instant};

use rapidware_filters::{Filter, FilterError, SecureChannelSnapshot};
use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
use rapidware_proxy::{
    ChainStats, ControlManager, FilterSpec, Proxy, RuntimeConfig, SharedUdpStreamConfig,
    StreamStatus, UdpCarrierConfig,
};
use rapidware_streams::{DetachableReceiver, DetachableSender, TryRecvError};
use rapidware_transport::{SharedDrain, SharedUdpIngress, UdpConfig};

const HANG: Duration = Duration::from_secs(30);

/// A pass-through filter built outside the registry.
struct Named(&'static str);

impl Filter for Named {
    fn name(&self) -> &str {
        self.0
    }

    fn process(&mut self, packet: Packet, out: &mut Vec<Packet>) -> Result<(), FilterError> {
        out.push(packet);
        Ok(())
    }
}

fn packet(stream: u32, seq: u64) -> Packet {
    Packet::new(StreamId::new(stream), SeqNo::new(seq), PacketKind::AudioData, vec![5u8; 40])
}

/// How the script feeds the stream and reads what leaves it.
trait Wire {
    fn send(&self, packet: Packet);
    fn recv(&self) -> Packet;
}

struct Pipes {
    input: DetachableSender<Packet>,
    output: DetachableReceiver<Packet>,
}

impl Wire for Pipes {
    fn send(&self, packet: Packet) {
        self.input.send(packet).unwrap();
    }

    fn recv(&self) -> Packet {
        self.output.recv_timeout(HANG).expect("the stream delivers")
    }
}

struct Sockets {
    tx: std::net::UdpSocket,
    carrier: std::net::SocketAddr,
    app: SharedUdpIngress,
    route: DetachableReceiver<Packet>,
}

impl Wire for Sockets {
    fn send(&self, packet: Packet) {
        let mut frame = Vec::new();
        packet.encode_into(&mut frame);
        self.tx.send_to(&frame, self.carrier).unwrap();
    }

    fn recv(&self) -> Packet {
        let deadline = Instant::now() + HANG;
        loop {
            match self.route.try_recv() {
                Ok(packet) => return packet,
                Err(TryRecvError::Empty) => {}
                Err(other) => panic!("the carrier stream ended early: {other}"),
            }
            assert!(Instant::now() < deadline, "the carrier stream never delivered");
            if self.app.drain_batch() == SharedDrain::Empty {
                std::thread::yield_now();
            }
        }
    }
}

/// Runs the splice script on stream `name` and checks every packet that
/// leaves it: six sources in, eight packets out.
fn splice_script(control: &mut ControlManager, name: &str, stream: u32, wire: &dyn Wire) {
    let proxy = control.proxy();
    let send = |seq| wire.send(packet(stream, seq));
    let expect_payload = |seq| {
        let packet = wire.recv();
        assert!(packet.kind().is_payload(), "{packet:?}");
        assert_eq!(packet.seq().value(), seq);
    };

    // A filter by spec, then traffic through it.
    proxy.insert_filter(name, 0, &FilterSpec::new("tap").with_param("name", "t")).unwrap();
    send(0);
    send(1);
    expect_payload(0);
    expect_payload(1);

    // A half-filled FEC(6,4) encoder ahead of it and a boxed filter behind.
    proxy.insert_filter(name, 0, &FilterSpec::new("fec-encoder")).unwrap();
    proxy.insert_filter_boxed(name, 2, Box::new(Named("custom"))).unwrap();
    send(2);
    send(3);
    expect_payload(2);
    expect_payload(3);

    // The move is one splice that does not flush the encoder: its block
    // completes across it, so the two parities follow sources 4 and 5
    // instead of a padded pair preceding them.
    proxy.move_filter(name, 0, 2).unwrap();
    assert_eq!(proxy.filter_names(name).unwrap(), ["t", "custom", "fec-encoder(6,4)"]);
    send(4);
    send(5);
    expect_payload(4);
    expect_payload(5);
    for _ in 0..2 {
        let parity = wire.recv();
        assert!(!parity.kind().is_payload(), "{parity:?}");
    }

    let removed = proxy.remove_filter(name, 0).unwrap();
    assert_eq!(removed.name(), "t");

    // A kind registered after placement splices in from the proxy's
    // registry.
    control
        .proxy_mut()
        .registry_mut()
        .register("late", |_spec| Ok(Box::new(Named("late"))));
    control.proxy().insert_filter(name, 0, &FilterSpec::new("late")).unwrap();
}

/// The surface the script leaves behind on stream `name`.
fn assert_surface(control: &mut ControlManager, name: &str) {
    let filters = ["late", "custom", "fec-encoder(6,4)"].map(String::from).to_vec();
    let expected = StreamStatus {
        name: name.to_string(),
        filters: filters.clone(),
        stats: ChainStats {
            filters: 3,
            packets_in: 6,
            packets_out: 8,
            splices: 6,
            filter_errors: 0,
        },
        secure: SecureChannelSnapshot::default(),
    };
    let proxy = control.proxy();
    assert_eq!(proxy.status().streams, std::slice::from_ref(&expected));
    assert_eq!(proxy.stream_stats(name).unwrap(), expected.stats);
    assert_eq!(proxy.filter_names(name).unwrap(), filters);
    assert_eq!(proxy.stream_names(), [name]);
    assert!(proxy.session_names().is_empty(), "a flat stream is not a session");

    let reply = control.execute_line("query");
    let segment = format!(" stream={name}:[late,custom,fec-encoder(6,4)] in=6 out=8");
    assert!(reply.contains(&segment), "{reply}");
    assert!(!reply.contains(" session="), "{reply}");

    let snapshot = control.proxy().telemetry().expect("telemetry enabled");
    let scope = format!("stream.{name}.");
    let mut keys: Vec<String> = snapshot
        .histograms
        .iter()
        .map(|(key, _)| key.clone())
        .chain(snapshot.stats.iter().map(|metric| metric.name.clone()))
        .filter_map(|key| key.strip_prefix(&scope).map(str::to_string))
        .collect();
    keys.sort();
    // Stage timings are sampled from the first batch on, and the script
    // runs far fewer batches than the sampling period: only `t` was timed.
    assert_eq!(
        keys,
        [
            "batch_ns",
            "e2e_ns",
            "filter.t_ns",
            "filter_errors",
            "filters",
            "packets_in",
            "packets_out",
            "splices",
        ]
    );
    assert!(
        snapshot.histogram(&format!("stream.{name}.e2e_ns")).expect("egress span").count() >= 6,
        "every source timed at the stream's exit"
    );
    assert!(
        snapshot.histograms.iter().all(|(key, _)| !key.starts_with("session.")),
        "a flat stream records no session spans"
    );
}

#[test]
fn a_pooled_flat_stream_keeps_its_surface() {
    let mut proxy = Proxy::with_runtime("flat", RuntimeConfig::new(2, 8));
    proxy.enable_telemetry();
    let (input, output) = proxy.add_stream_pooled("audio").unwrap();
    let mut control = ControlManager::new(proxy);
    splice_script(&mut control, "audio", 1, &Pipes { input: input.clone(), output });
    assert_surface(&mut control, "audio");
    input.close();
    control.proxy_mut().shutdown().unwrap();
}

#[test]
fn a_carrier_flat_stream_keeps_its_surface() {
    let app = SharedUdpIngress::bind("127.0.0.1:0", &UdpConfig::default()).unwrap();
    let route = app.open_stream(StreamId::new(7)).unwrap();
    let mut proxy = Proxy::with_runtime("flat", RuntimeConfig::new(2, 8));
    proxy.enable_telemetry();
    let carrier = proxy.add_udp_carrier("wire", UdpCarrierConfig::new()).unwrap();
    let handle = proxy
        .add_stream_udp_shared(
            "relay",
            SharedUdpStreamConfig::on_carrier("wire", app.local_addr())
                .with_stream(StreamId::new(7)),
        )
        .unwrap();
    assert_eq!(carrier.route_count(), 1);
    let wire = Sockets {
        tx: std::net::UdpSocket::bind("127.0.0.1:0").unwrap(),
        carrier: handle.ingress_addr(),
        app,
        route,
    };
    let mut control = ControlManager::new(proxy);
    splice_script(&mut control, "relay", 7, &wire);
    assert_surface(&mut control, "relay");
    handle.close_input();
    control.proxy_mut().shutdown().unwrap();
}
