//! The outside-in layer ledger: each probe times calls into one crate's
//! public functions from here, on the workload's own payload size and the
//! harness's batch size.  Nothing inside the program is instrumented; spans
//! in the crates themselves are a later change.

use std::hint::black_box;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

use rapidware::fec::FecCodec;
use rapidware::filters::{FecEncoderFilter, Filter, FilterChain};
use rapidware::packet::{Packet, SeqNo};
use rapidware::proxy::{FilterRegistry, FilterSpec, Proxy, RuntimeConfig};
use rapidware::streams::{pipe, DetachableReceiver};
use rapidware::transport::{SharedFlush, SharedUdpEgress, SharedUdpIngress, UdpConfig};

use crate::harness::Host;
use crate::workload::{Workload, FEC_K, FEC_N};

const BATCH: usize = 32;
const CAPACITY: usize = 512;
/// Datagrams preloaded per socket round: well inside the default receive
/// buffer.
const SOCKET_ROUND: usize = 128;
/// Wall time each probe may take.
const BUDGET: Duration = Duration::from_millis(120);

/// Nanoseconds per operation: `prepare` builds a round's input off the
/// clock, `timed` is the call under test, `ops` operations per round.
fn ns_per_op<T>(ops: usize, mut prepare: impl FnMut() -> T, mut timed: impl FnMut(T)) -> f64 {
    let wall = Instant::now();
    let mut busy = Duration::ZERO;
    let mut total = 0usize;
    while wall.elapsed() < BUDGET {
        let input = prepare();
        let start = Instant::now();
        timed(input);
        busy += start.elapsed();
        total += ops;
    }
    busy.as_nanos() as f64 / total as f64
}

/// Source packets of one stream with the workload's payload, handed out
/// with ever-increasing sequence numbers (payloads are shared, not copied).
struct Supply {
    templates: Vec<Packet>,
    next_seq: u64,
}

impl Supply {
    fn new(workload: &Workload) -> Self {
        let stream = workload.locate(0).0;
        let templates = (0..256)
            .map(|g| {
                let source = workload.source_packet(g);
                Packet::new(stream, source.seq(), source.kind(), source.payload_bytes())
            })
            .collect();
        Self {
            templates,
            next_seq: 0,
        }
    }

    fn next(&mut self) -> Packet {
        let template = &self.templates[self.next_seq as usize % self.templates.len()];
        let packet = template.with_seq(SeqNo::new(self.next_seq));
        self.next_seq += 1;
        packet
    }

    fn batch(&mut self, len: usize) -> Vec<Packet> {
        (0..len).map(|_| self.next()).collect()
    }
}

/// `Packet::encode_into` and `Packet::decode` (CRC included), per frame.
fn packet_codec(workload: &Workload, out: &mut Vec<(String, f64)>) {
    let mut supply = Supply::new(workload);
    let packets = supply.batch(BATCH);
    let frames: Vec<Vec<u8>> = packets
        .iter()
        .map(|packet| packet.encode().to_vec())
        .collect();
    let mut scratch = Vec::new();
    let encode = ns_per_op(
        BATCH,
        || (),
        |()| {
            for packet in &packets {
                packet.encode_into(&mut scratch);
                black_box(&scratch);
            }
        },
    );
    let decode = ns_per_op(
        BATCH,
        || (),
        |()| {
            for frame in &frames {
                black_box(Packet::decode(black_box(frame)).expect("own frame decodes"));
            }
        },
    );
    out.push(("packet.encode_ns".into(), encode));
    out.push(("packet.decode_ns".into(), decode));
}

/// Drains `receiver` on a second thread while this one feeds `total`
/// packets in `batch`-sized sends; nanoseconds per packet end to end.
fn hop_ns(
    supply: &mut Supply,
    total: usize,
    batch: usize,
    send: impl Fn(Vec<Packet>),
    receiver: &DetachableReceiver<Packet>,
) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            let mut got = 0;
            while got < total {
                got += receiver
                    .recv_up_to(BATCH)
                    .map_or(total, |packets| packets.len());
            }
        });
        for _ in 0..total / batch {
            send(supply.batch(batch));
        }
        consumer.join().expect("hop consumer panicked");
    });
    start.elapsed().as_nanos() as f64 / total as f64
}

/// `send_batch` → `recv_up_to` across two threads, at the harness batch
/// size and at 1.
fn pipe_hop(workload: &Workload, out: &mut Vec<(String, f64)>) {
    let mut supply = Supply::new(workload);
    for (name, batch, total) in [
        ("streams.pipe_hop_ns", BATCH, 64_000),
        ("streams.pipe_hop_b1_ns", 1, 16_000),
    ] {
        let (tx, rx) = pipe::<Packet>(CAPACITY);
        let send = |packets| tx.send_batch(packets).expect("pipe open");
        out.push((name.into(), hop_ns(&mut supply, total, batch, send, &rx)));
    }
}

fn udp_config() -> UdpConfig {
    UdpConfig::default()
        .with_capacity(CAPACITY)
        .with_batch_size(BATCH)
}

/// `SharedUdpIngress::drain_batch` on a preloaded socket and
/// `SharedUdpEgress::flush_batch` from a preloaded pipe, per datagram.
fn transport(workload: &Workload, out: &mut Vec<(String, f64)>) -> std::io::Result<()> {
    let mut supply = Supply::new(workload);
    let stream = workload.locate(0).0;
    let helper = UdpSocket::bind("127.0.0.1:0")?;
    helper.set_nonblocking(true)?;
    let mut scratch = Vec::new();

    let ingress = SharedUdpIngress::bind("127.0.0.1:0", &udp_config())?;
    let route = ingress
        .open_stream(stream)
        .expect("fresh socket has no routes");
    let drain = ns_per_op(
        SOCKET_ROUND,
        || {
            // Empty the route first: a full one sheds, which is the cheaper
            // path.  Loopback delivery is synchronous: once `send_to`
            // returns the datagram is in the receive queue.
            while route.try_recv_up_to(CAPACITY).is_ok() {}
            for packet in supply.batch(SOCKET_ROUND) {
                packet.encode_into(&mut scratch);
                helper
                    .send_to(&scratch, ingress.local_addr())
                    .expect("loopback send");
            }
        },
        |()| {
            for _ in 0..SOCKET_ROUND / BATCH {
                black_box(ingress.drain_batch());
            }
        },
    );
    out.push(("transport.ingress_drain_ns".into(), drain));

    let egress = SharedUdpEgress::bind("127.0.0.1:0", &udp_config())?;
    let (tx, rx) = pipe::<Packet>(CAPACITY);
    egress.attach(stream, helper.local_addr()?, rx);
    let mut sink = vec![0u8; 65_536];
    let flush = ns_per_op(
        SOCKET_ROUND,
        || {
            while helper.recv(&mut sink).is_ok() {}
            tx.send_batch(supply.batch(SOCKET_ROUND))
                .expect("pipe open");
        },
        |()| while egress.flush_batch() == SharedFlush::Progress {},
    );
    out.push(("transport.egress_flush_ns".into(), flush));
    Ok(())
}

/// `FecCodec::encode_into` per source and `decode_into` per lost source,
/// (6,4) on the workload's wire-frame length.
fn fec_codec(workload: &Workload, out: &mut Vec<(String, f64)>) {
    let codec = FecCodec::new(FEC_N, FEC_K).expect("(6,4) is a valid code");
    let frames: Vec<Vec<u8>> = Supply::new(workload)
        .batch(FEC_K)
        .iter()
        .map(|packet| packet.encode().to_vec())
        .collect();
    let sources: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
    let mut parities = Vec::new();
    let encode = ns_per_op(
        FEC_K,
        || (),
        |()| {
            codec
                .encode_into(black_box(&sources), &mut parities)
                .expect("equal shards")
        },
    );
    // Two sources lost: rebuild them from the other two and both parities.
    let lost = FEC_N - FEC_K;
    let shards: Vec<(usize, &[u8])> = (lost..FEC_K)
        .map(|index| (index, sources[index]))
        .chain((0..lost).map(|index| (FEC_K + index, parities[index].as_slice())))
        .collect();
    let mut rebuilt = Vec::new();
    let decode = ns_per_op(
        lost,
        || (),
        |()| {
            codec
                .decode_into(black_box(&shards), sources[0].len(), &mut rebuilt)
                .expect("k shards decode")
        },
    );
    out.push(("fec.encode_ns_per_src".into(), encode));
    out.push(("fec.decode_ns_per_lost".into(), decode));
}

/// What an upstream encoder plus the workload's withholding rule would
/// feed an `fec-decoder`: at least `len` wire frames.
fn repair_input(
    workload: &Workload,
    supply: &mut Supply,
    encoder: &mut FecEncoderFilter,
    wire_index: &mut u64,
    len: usize,
) -> Vec<Packet> {
    let mut frames = Vec::with_capacity(len + FEC_N);
    let mut emitted: Vec<Packet> = Vec::new();
    while frames.len() < len {
        encoder
            .process(supply.next(), &mut emitted)
            .expect("encoder accepts sources");
        for frame in emitted.drain(..) {
            if !workload.withholds_wire_frame(*wire_index) {
                frames.push(frame);
            }
            *wire_index += 1;
        }
    }
    frames
}

/// Sync `FilterChain::process_batch_into` on `specs`; nanoseconds per input
/// packet and outputs per input.
fn chain_cost(workload: &Workload, registry: &FilterRegistry, specs: &[FilterSpec]) -> (f64, f64) {
    let mut chain = FilterChain::new();
    for spec in specs {
        let filter = registry.instantiate(spec).expect("built-in filter kind");
        chain.push_back(filter).expect("chain accepts filters");
    }
    let decodes = specs.iter().any(|spec| spec.kind == "fec-decoder");
    let mut supply = Supply::new(workload);
    let mut encoder = FecEncoderFilter::new(FEC_N, FEC_K).expect("(6,4) is a valid code");
    let mut wire_index = 0;
    let (mut inputs, mut outputs) = (0usize, 0usize);
    let mut emitted = Vec::with_capacity(2 * BATCH);
    let wall = Instant::now();
    let mut busy = Duration::ZERO;
    while wall.elapsed() < BUDGET {
        let batch = if decodes {
            repair_input(workload, &mut supply, &mut encoder, &mut wire_index, BATCH)
        } else {
            supply.batch(BATCH)
        };
        inputs += batch.len();
        let start = Instant::now();
        chain
            .process_batch_into(batch, &mut emitted)
            .expect("chain processes its input");
        busy += start.elapsed();
        outputs += emitted.len();
        emitted.clear();
    }
    (
        busy.as_nanos() as f64 / inputs as f64,
        outputs as f64 / inputs as f64,
    )
}

/// The workload's own chain(s), summed over lanes per ingress packet, and
/// each filter kind alone.
fn filters(workload: &Workload, out: &mut Vec<(String, f64)>) {
    let registry = FilterRegistry::with_builtins();
    let (mut chain_ns, mut out_per_in) = (0.0, 0.0);
    for lane in &workload.lanes {
        let (ns, ratio) = chain_cost(workload, &registry, &lane.chain);
        chain_ns += ns;
        out_per_in += ratio;
    }
    out.push(("filters.chain_ns".into(), chain_ns));
    out.push(("filters.chain_out_per_in".into(), out_per_in));
    for kind in ["fec-encoder", "fec-decoder", "encrypt", "compressor", "tap"] {
        let (ns, _) = chain_cost(workload, &registry, &[FilterSpec::new(kind)]);
        out.push((format!("filters.{kind}_ns"), ns));
    }
}

/// An empty pooled stream, pipes in → out, and a pooled session fanning out
/// to four empty lanes; nanoseconds per ingress packet.
fn proxy_hops(
    workload: &Workload,
    host: &Host,
    out: &mut Vec<(String, f64)>,
) -> Result<(), String> {
    let mut supply = Supply::new(workload);
    let config = RuntimeConfig::new(2, BATCH).with_pipe_capacity(CAPACITY);
    let mut proxy = host.on_proxy_cpus(|| Proxy::with_runtime("probe", config));
    let fail = |err: rapidware::proxy::ProxyError| err.to_string();

    let (input, output) = proxy.add_stream_pooled("hop").map_err(fail)?;
    let send = |packets| input.send_batch(packets).expect("stream input open");
    out.push((
        "proxy.runtime_hop_ns".into(),
        hop_ns(&mut supply, 64_000, BATCH, send, &output),
    ));

    let input = proxy
        .add_session_pooled("fan", CAPACITY, BATCH)
        .map_err(fail)?;
    let session = proxy.pooled_session("fan").map_err(fail)?;
    let lanes = (0..4)
        .map(|lane| session.add_lane(format!("lane{lane}")).map_err(fail))
        .collect::<Result<Vec<_>, _>>()?;
    let total = 32_000;
    let start = Instant::now();
    std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            // Lane 0 paces the loop; the others are emptied after each of
            // its batches so none backs up and stalls the fanout stage.
            let mut got = [0usize; 4];
            while got[0] < total {
                got[0] += lanes[0]
                    .recv_up_to(BATCH)
                    .map_or(total, |packets| packets.len());
                for lane in 1..4 {
                    while let Ok(packets) = lanes[lane].try_recv_up_to(CAPACITY) {
                        got[lane] += packets.len();
                    }
                }
            }
            for lane in 1..4 {
                while got[lane] < total {
                    got[lane] += lanes[lane]
                        .recv_up_to(BATCH)
                        .map_or(total, |packets| packets.len());
                }
            }
        });
        for _ in 0..total / BATCH {
            input
                .send_batch(supply.batch(BATCH))
                .expect("session input open");
        }
        consumer.join().expect("fanout consumer panicked");
    });
    out.push((
        "proxy.session_fanout_ns".into(),
        start.elapsed().as_nanos() as f64 / total as f64,
    ));
    proxy.shutdown().map_err(fail)
}

/// Runs every probe on `workload`'s payload; `(metric name, value)` pairs.
pub fn run(workload: &Workload, host: &Host) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    packet_codec(workload, &mut out);
    pipe_hop(workload, &mut out);
    transport(workload, &mut out).map_err(|err| format!("transport probe: {err}"))?;
    fec_codec(workload, &mut out);
    filters(workload, &mut out);
    proxy_hops(workload, host, &mut out)?;
    Ok(out)
}
