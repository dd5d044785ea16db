//! The fixed harness shape: one proxy under test, one sender thread, one
//! receiver thread, loopback UDP (or pipes), a fixed CPU for each of them,
//! and the phases they run.
//!
//! The proxy is always `RuntimeConfig::new(2, 32).with_pipe_capacity(512)`
//! with carrier and stream `capacity 512, batch_size 32`, so a number means
//! the same thing on every commit.

use std::io;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rapidware::filters::{FecEncoderFilter, Filter};
use rapidware::packet::{Packet, StreamId};
use rapidware::proxy::{
    Proxy, RuntimeConfig, SharedUdpSessionConfig, SharedUdpStreamConfig, TransportStats,
    UdpCarrierConfig, UdpCarrierHandle,
};
use rapidware::streams::{DetachableReceiver, DetachableSender, TryRecvError};

use crate::stats::{due_offset_ns, window_of, window_room};
use crate::sys;
use crate::verify::{verify_sample, Delivery, Tracker, Violations};
use crate::workload::{Shape, Workload, FEC_K, FEC_N};

/// Closed-loop window: at most this many wire frames outstanding towards
/// any one socket.  A frame of 150 to 650 bytes costs 1280 bytes of socket
/// memory, and UDP hands memory back to the socket a quarter-buffer at a
/// time, so about 124 such frames fit the default 212 992-byte receive
/// buffer; 96 leaves a margin, and the kernel cannot drop in a closed-loop
/// phase.  (128 did drop, on `mux-fec-repair` and on the `fec` lane.)
pub const WINDOW: u64 = 96;
/// Packets the closed-loop sender offers before it looks at the window
/// again; also the pipe workload's `send_batch` size.
const BURST: u64 = 32;
/// Every phase offers a multiple of this many sources, so FEC blocks (4
/// sources, on each of up to 64 streams) never straddle a phase boundary.
pub const ALIGN: u64 = 256;
const SHARDS: usize = 2;
const BATCH: usize = 32;
const CAPACITY: usize = 512;
const CARRIER: &str = "carrier";
/// A full window that sees no delivery for this long is written off, so one
/// lost packet ends as a counted failure, not a hung run.  Long enough that
/// a frozen host (hundreds of milliseconds, on a shared VM) is not taken
/// for a loss: writing off frames that are still in flight doubles the
/// window and makes the kernel drop.
const STALL: Duration = Duration::from_secs(2);
/// After the sender stops, how long the receiver waits on a quiet line.
const DRAIN_GRACE: Duration = Duration::from_millis(300);
const FULL_WINDOW_NAP: Duration = Duration::from_micros(50);

/// Where the threads of a run are: the load generator on the first CPU the
/// process may use, the proxy under test on the others, and an idle spinner
/// on each (see [`sys::IdleSpinners`]).
///
/// With more runnable threads than CPUs and nothing pinned, which threads
/// share a CPU is the scheduler's choice of the moment, and on the two
/// CPUs this was defined on that choice moved capacity by 15 % and latency
/// by half between runs of the same code.  Pinned, the sender never takes
/// a CPU from the proxy, and a wake-up crosses CPUs in the same places on
/// every run.
pub struct Host {
    nproc: usize,
    loadgen: Vec<usize>,
    proxy: Vec<usize>,
    pinned: bool,
    spinners: sys::IdleSpinners,
}

impl Host {
    /// Pins the calling thread, which from here on is the load generator's
    /// and spawns its sender and receiver, and starts the spinners.  With
    /// a single CPU everything shares it.
    pub fn claim() -> Self {
        let cpus = sys::allowed_cpus();
        let (loadgen, proxy) = match cpus.split_first() {
            Some((&first, rest)) if !rest.is_empty() => (vec![first], rest.to_vec()),
            _ => (cpus.clone(), cpus.clone()),
        };
        Self {
            nproc: cpus.len(),
            pinned: sys::pin_thread(&loadgen),
            spinners: sys::IdleSpinners::start(&cpus),
            loadgen,
            proxy,
        }
    }

    /// Runs `build` on the proxy's CPUs: the threads a proxy starts while
    /// it is built (shard workers, the reactor) inherit them.
    pub fn on_proxy_cpus<T>(&self, build: impl FnOnce() -> T) -> T {
        sys::pin_thread(&self.proxy);
        let built = build();
        sys::pin_thread(&self.loadgen);
        built
    }

    /// CPUs the process may use (counted before anything was pinned).
    pub fn nproc(&self) -> usize {
        self.nproc
    }

    /// For the report.
    pub fn describe(&self) -> String {
        if !self.pinned {
            return "threads not pinned (the kernel refused)".to_string();
        }
        format!(
            "load generator on cpu {:?}, proxy on cpu {:?}, {} idle spinners",
            self.loadgen,
            self.proxy,
            self.spinners.tids.len()
        )
    }
}

enum TxLink {
    Socket(UdpSocket),
    Pipe(DetachableSender<Packet>),
}

/// The sender thread's state: where packets go, and for `mux-fec-repair`
/// the per-stream encoders that produce the wire frames it withholds from.
struct Tx {
    link: TxLink,
    encoders: Vec<FecEncoderFilter>,
    wire_index: Vec<u64>,
    scratch: Vec<u8>,
    emitted: Vec<Packet>,
    batch: Vec<Packet>,
}

impl Tx {
    /// Offers source `g`; returns how many schedule slots it used (wire
    /// frames sent; a withheld source uses none).
    fn offer(&mut self, workload: &Workload, g: u64) -> io::Result<u64> {
        let packet = workload.source_packet(g);
        let socket = match &self.link {
            TxLink::Pipe(_) => {
                self.batch.push(packet);
                return Ok(1);
            }
            TxLink::Socket(socket) => socket,
        };
        if workload.shape != Shape::MuxRepair {
            packet.encode_into(&mut self.scratch);
            socket.send(&self.scratch)?;
            return Ok(1);
        }
        let position = (g % workload.streams()) as usize;
        self.encoders[position]
            .process(packet, &mut self.emitted)
            .map_err(|err| io::Error::other(err.to_string()))?;
        let mut sent = 0;
        for frame in self.emitted.drain(..) {
            let index = self.wire_index[position];
            self.wire_index[position] += 1;
            if workload.withholds_wire_frame(index) {
                continue;
            }
            frame.encode_into(&mut self.scratch);
            socket.send(&self.scratch)?;
            sent += 1;
        }
        Ok(sent)
    }

    /// Hands the pipe workload's pending batch to the proxy.
    fn flush(&mut self) -> io::Result<()> {
        if let TxLink::Pipe(input) = &self.link {
            if !self.batch.is_empty() {
                input
                    .send_batch(std::mem::take(&mut self.batch))
                    .map_err(|_| io::Error::other("proxy input pipe closed"))?;
            }
        }
        Ok(())
    }
}

enum Rx {
    /// One peer socket per lane, all read by the one receiver thread.
    Sockets(Vec<UdpSocket>),
    Pipe(DetachableReceiver<Packet>),
}

/// How the sender paces a phase.
#[derive(Debug, Clone, Copy)]
pub enum Drive {
    /// Closed loop until this many sources are offered.
    Count(u64),
    /// Closed loop for this long: the delivered rate at zero loss.
    For(Duration),
    /// Closed loop until the caller's `while_running` returns.
    UntilStopped,
    /// Open loop: slot `i` is due `i / rate_pps` after the start, whatever
    /// the proxy does.
    Paced {
        /// Schedule slots per second.
        rate_pps: u64,
        /// Length of the schedule.
        length: Duration,
    },
}

/// One phase's parameters.
#[derive(Debug, Clone, Copy)]
pub struct PhaseConfig {
    /// Pacing.
    pub drive: Drive,
    /// Width of a statistics window.
    pub window: Duration,
    /// Number of windows (the phase length over the window width).
    pub windows: usize,
    /// Sources recorded per non-plaintext lane for the heavy checks.
    pub sample_sources: u64,
}

/// Carrier counter movement over a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportDelta {
    /// Wire frames sent minus datagrams the carrier read.
    pub kernel_drops: u64,
    /// Frames shed at a full or closed route (ingress) or refused by the
    /// socket (egress).
    pub route_drops: u64,
    /// Datagrams the carrier could not decode.
    pub decode_errors: u64,
    /// Datagrams for a stream id without a route.
    pub unknown_streams: u64,
}

/// Everything measured in one phase.
#[derive(Debug, Default)]
pub struct PhaseOutcome {
    /// Sources offered.
    pub sent: u64,
    /// Wire frames (schedule slots) sent.
    pub wire_sent: u64,
    /// Sources delivered on every lane and verified.
    pub delivered: u64,
    /// Sources accepted per lane: which lane fell short, when one did.
    pub lane_delivered: Vec<u64>,
    /// Inline rejections.
    pub violations: Violations,
    /// Heavy checks run / failed on the recorded samples.
    pub sample_checked: u64,
    /// See `sample_checked`.
    pub sample_failed: u64,
    /// Completions per window, by arrival time (closed loop).
    pub window_counts: Vec<u64>,
    /// Sorted latencies per window, by due time (open loop), nanoseconds
    /// from when the packet was due.
    pub window_latencies: Vec<Vec<u64>>,
    /// Sources due per window that were sent as themselves (open loop).
    pub window_offered: Vec<u64>,
    /// Due-to-arrival time of sources that arrived by FEC repair.
    pub repair_waits: Vec<u64>,
    /// Per window, by due time: how late the generator sent each source
    /// (open loop), sorted.
    pub window_gen_lag: Vec<Vec<u64>>,
    /// From the sender's first to its last packet.
    pub active: Duration,
    /// Process CPU minus the two load-generator threads, over `active`.
    pub proxy_cpu_ns: u64,
    /// Carrier counters over the phase.
    pub transport: TransportDelta,
}

struct Shared<'a> {
    host: &'a Host,
    /// Sources delivered on every lane.
    delivered: AtomicU64,
    stop_sender: AtomicBool,
    stop_receiver: AtomicBool,
    receiver_tid: AtomicU64,
    /// When the sender's schedule starts, nanoseconds after the epoch.
    start_ns: AtomicU64,
    /// Per source of an open-loop phase: when it was due, nanoseconds after
    /// the epoch.
    due: Vec<AtomicU64>,
}

#[derive(Default)]
struct TxOutcome {
    sent: u64,
    wire_sent: u64,
    gen_lag: Vec<u64>,
    active: Duration,
    proxy_cpu_ns: u64,
    error: Option<String>,
}

struct RxOutcome<'w> {
    tracker: Tracker<'w>,
    window_counts: Vec<u64>,
    window_latencies: Vec<Vec<u64>>,
    repair_waits: Vec<u64>,
}

fn elapsed_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// CPU of the process, and of the harness's own threads (the two load
/// generator threads and the idle spinners), so far.
fn cpu_split(own_tid: u64, receiver_tid: u64, host: &Host) -> (u64, u64) {
    let harness =
        sys::thread_cpu_ns(own_tid) + sys::thread_cpu_ns(receiver_tid) + host.spinners.cpu_ns();
    (sys::process_cpu_ns(), harness)
}

/// The closed-loop window rule, applied at both ends of the proxy: frames
/// on their way to the ingress socket, and sources on their way to the
/// peers.  The open-loop phase passes through it too, so that the burst
/// with which the generator catches up after the host froze cannot overflow
/// a socket and be booked as proxy loss; on schedule it is never near full.
struct WindowGate<'a> {
    workload: &'a Workload,
    shared: &'a Shared<'a>,
    carrier_rx: Option<&'a TransportStats>,
    rx_base: u64,
    source_window: u64,
    frames_per_offer: u64,
    /// Sources on their way to the peers, and their write-off floor.  A
    /// withheld source counts from the moment its block's last source goes
    /// out: until the parities trigger the repair it sits in no buffer.
    in_window: u64,
    source_floor: u64,
    wire_floor: u64,
    last_acked: u64,
    progress_at: Instant,
}

impl<'a> WindowGate<'a> {
    fn new(
        workload: &'a Workload,
        shared: &'a Shared<'a>,
        carrier_rx: Option<&'a TransportStats>,
    ) -> Self {
        let (frames, sources) = workload.egress_frames_per_source();
        Self {
            workload,
            shared,
            carrier_rx,
            rx_base: carrier_rx.map_or(0, TransportStats::rx_datagrams),
            source_window: WINDOW * sources / frames,
            frames_per_offer: workload.max_ingress_frames_per_source(),
            in_window: 0,
            source_floor: 0,
            wire_floor: 0,
            last_acked: 0,
            progress_at: Instant::now(),
        }
    }

    /// How many sources, and how many ingress frames, may go out now.
    fn room(&mut self, outcome: &TxOutcome) -> (u64, u64) {
        let acked = self.shared.delivered.load(Ordering::Acquire);
        let sources = window_room(self.in_window, acked, self.source_floor, self.source_window);
        // Pipes have no socket to overflow.
        let frames = self.carrier_rx.map_or(u64::MAX, |stats| {
            let read = stats.rx_datagrams() - self.rx_base;
            window_room(outcome.wire_sent, read, self.wire_floor, WINDOW)
        });
        let open = sources > 0 && frames >= self.frames_per_offer;
        if open || acked != self.last_acked {
            self.last_acked = acked;
            self.progress_at = Instant::now();
        } else if self.progress_at.elapsed() > STALL {
            self.source_floor = self.in_window;
            self.wire_floor = outcome.wire_sent;
        }
        if open {
            (sources, frames)
        } else {
            (0, 0)
        }
    }

    /// Offers the next source and books it.
    fn offer(&mut self, tx: &mut Tx, base: u64, outcome: &mut TxOutcome) -> io::Result<u64> {
        let source = base + outcome.sent;
        let frames = tx.offer(self.workload, source)?;
        outcome.wire_sent += frames;
        outcome.sent += 1;
        self.in_window += self.workload.released_by(source);
        Ok(frames)
    }
}

fn run_sender(
    workload: &Workload,
    tx: &mut Tx,
    carrier_rx: Option<&TransportStats>,
    shared: &Shared<'_>,
    drive: Drive,
    base: u64,
    epoch: Instant,
) -> TxOutcome {
    sys::precise_sleeps();
    let own_tid = sys::own_tid();
    let receiver_tid = loop {
        match shared.receiver_tid.load(Ordering::Acquire) {
            0 => std::thread::yield_now(),
            tid => break tid,
        }
    };
    let (process_before, harness_before) = cpu_split(own_tid, receiver_tid, shared.host);
    let mut outcome = TxOutcome::default();
    let mut gate = WindowGate::new(workload, shared, carrier_rx);
    let start = Instant::now();
    shared.start_ns.store(elapsed_ns(epoch), Ordering::Release);
    let result = match drive {
        Drive::Paced { rate_pps, length } => {
            send_paced(&mut gate, tx, rate_pps, length, base, epoch, &mut outcome)
        }
        _ => send_closed(&mut gate, tx, drive, base, start, &mut outcome),
    };
    outcome.error = result.err().map(|err| format!("sender: {err}"));
    outcome.active = start.elapsed();
    let (process_after, harness_after) = cpu_split(own_tid, receiver_tid, shared.host);
    outcome.proxy_cpu_ns = (process_after - process_before)
        .saturating_sub(harness_after.saturating_sub(harness_before));
    outcome
}

fn send_closed(
    gate: &mut WindowGate<'_>,
    tx: &mut Tx,
    drive: Drive,
    base: u64,
    start: Instant,
    outcome: &mut TxOutcome,
) -> io::Result<()> {
    loop {
        let finished = match drive {
            Drive::Count(count) => outcome.sent >= count,
            Drive::For(length) => start.elapsed() >= length,
            _ => gate.shared.stop_sender.load(Ordering::Acquire),
        };
        if finished && outcome.sent.is_multiple_of(ALIGN) {
            return Ok(());
        }
        let (sources, mut frames) = gate.room(outcome);
        if sources == 0 {
            std::thread::sleep(FULL_WINDOW_NAP);
            continue;
        }
        let to_boundary = ALIGN - outcome.sent % ALIGN;
        for _ in 0..sources.min(BURST).min(to_boundary) {
            if frames < gate.frames_per_offer {
                break;
            }
            frames -= gate.offer(tx, base, outcome)?;
        }
        tx.flush()?;
    }
}

fn send_paced(
    gate: &mut WindowGate<'_>,
    tx: &mut Tx,
    rate_pps: u64,
    length: Duration,
    base: u64,
    epoch: Instant,
    outcome: &mut TxOutcome,
) -> io::Result<()> {
    let start_ns = gate.shared.start_ns.load(Ordering::Acquire);
    let length_ns = length.as_nanos() as u64;
    for due in &gate.shared.due {
        let due_offset = due_offset_ns(outcome.wire_sent, rate_pps);
        if due_offset >= length_ns && outcome.sent.is_multiple_of(ALIGN) {
            break;
        }
        let due_ns = start_ns + due_offset;
        let now = elapsed_ns(epoch);
        if now < due_ns {
            std::thread::sleep(Duration::from_nanos(due_ns - now));
        }
        while gate.room(outcome).0 == 0 {
            std::thread::sleep(FULL_WINDOW_NAP);
        }
        due.store(due_ns, Ordering::Release);
        outcome
            .gen_lag
            .push(elapsed_ns(epoch).saturating_sub(due_ns));
        gate.offer(tx, base, outcome)?;
        tx.flush()?;
    }
    Ok(())
}

fn run_receiver<'w>(
    workload: &'w Workload,
    rx: &Rx,
    shared: &Shared<'_>,
    config: &PhaseConfig,
    base: u64,
    epoch: Instant,
) -> RxOutcome<'w> {
    // The reader of a proxy's output pipe is a thread of the program the
    // proxy is embedded in, woken through the pipe's own condition
    // variable: it shares the proxy's CPUs.  The peers of a socket workload
    // are other hosts: they stay with the sender.
    if matches!(rx, Rx::Pipe(_)) {
        sys::pin_thread(&shared.host.proxy);
    }
    shared.receiver_tid.store(sys::own_tid(), Ordering::Release);
    let paced = matches!(config.drive, Drive::Paced { .. });
    let window_ns = config.window.as_nanos() as u64;
    let mut outcome = RxOutcome {
        tracker: Tracker::new(workload, base, config.sample_sources),
        window_counts: vec![0; config.windows],
        window_latencies: vec![Vec::new(); config.windows],
        repair_waits: Vec::new(),
    };
    let account = |outcome: &mut RxOutcome<'w>, delivery: Delivery| {
        let Delivery::Complete { rel } = delivery else {
            return;
        };
        shared
            .delivered
            .store(outcome.tracker.delivered, Ordering::Release);
        let repaired = workload.is_withheld(base + rel);
        let now = elapsed_ns(epoch);
        let start = shared.start_ns.load(Ordering::Acquire);
        if !paced {
            if let Some(window) = window_of(now.saturating_sub(start), window_ns, config.windows) {
                outcome.window_counts[window] += 1;
            }
            return;
        }
        // A sealed lane's payload is only checked after the phase, so a
        // sequence number past the schedule can get this far.
        let Some(due) = shared.due.get(rel as usize) else {
            return;
        };
        let due = due.load(Ordering::Acquire);
        let latency = now.saturating_sub(due);
        if repaired {
            outcome.repair_waits.push(latency);
        } else if let Some(window) = window_of(due.saturating_sub(start), window_ns, config.windows)
        {
            outcome.window_latencies[window].push(latency);
        }
    };
    match rx {
        Rx::Sockets(sockets) => {
            let mut poller = sys::Poller::new(sockets);
            let mut frame = vec![0u8; 65_536];
            while !shared.stop_receiver.load(Ordering::Acquire) {
                if !poller.wait(5) {
                    continue;
                }
                for (lane, socket) in sockets.iter().enumerate() {
                    if !poller.is_ready(lane) {
                        continue;
                    }
                    // Non-blocking: read the socket dry, then wait again.
                    while let Ok(len) = socket.recv(&mut frame) {
                        let delivery = outcome.tracker.on_frame(lane, &frame[..len]);
                        account(&mut outcome, delivery);
                    }
                }
            }
        }
        Rx::Pipe(output) => {
            while !shared.stop_receiver.load(Ordering::Acquire) {
                match output.recv_timeout(Duration::from_millis(5)) {
                    Ok(packet) => {
                        let delivery = outcome.tracker.on_packet(0, packet);
                        account(&mut outcome, delivery);
                    }
                    Err(TryRecvError::Empty) => continue,
                    Err(_) => break,
                }
                while let Ok(batch) = output.try_recv_up_to(BATCH) {
                    for packet in batch {
                        let delivery = outcome.tracker.on_packet(0, packet);
                        account(&mut outcome, delivery);
                    }
                }
            }
        }
    }
    outcome
}

/// One set-up: the proxy under test with its chains, the load generator's
/// sockets or pipe ends, and the position in the source sequence.
pub struct Bench<'w> {
    workload: &'w Workload,
    host: &'w Host,
    proxy: Proxy,
    tx: Tx,
    rx: Rx,
    carrier: Option<UdpCarrierHandle>,
    next_source: u64,
}

fn fail(context: &str, err: impl std::fmt::Display) -> String {
    format!("{context}: {err}")
}

impl<'w> Bench<'w> {
    /// Binds the sockets and constructs the proxy and its chains, on the
    /// proxy's CPUs.  `traced` turns the proxy's telemetry on before
    /// anything is added, as its ordering rule asks.
    pub fn set_up(workload: &'w Workload, host: &'w Host, traced: bool) -> Result<Self, String> {
        host.on_proxy_cpus(|| Self::build(workload, host, traced))
    }

    fn build(workload: &'w Workload, host: &'w Host, traced: bool) -> Result<Self, String> {
        let config = RuntimeConfig::new(SHARDS, BATCH).with_pipe_capacity(CAPACITY);
        let mut proxy = Proxy::with_runtime("proxybench", config);
        if traced {
            proxy.enable_telemetry();
        }
        if workload.shape == Shape::PipeSecureFec {
            let (input, output) = proxy
                .add_stream_pooled("pipe")
                .map_err(|e| fail("stream", e))?;
            for (position, spec) in workload.lanes[0].chain.iter().enumerate() {
                proxy
                    .insert_filter("pipe", position, spec)
                    .map_err(|e| fail("filter", e))?;
            }
            return Ok(Self::assemble(
                workload,
                host,
                proxy,
                TxLink::Pipe(input),
                Rx::Pipe(output),
                None,
            ));
        }

        let mut peers = Vec::new();
        for _ in &workload.lanes {
            let socket = UdpSocket::bind("127.0.0.1:0").map_err(|e| fail("bind peer", e))?;
            socket
                .set_nonblocking(true)
                .map_err(|e| fail("peer socket", e))?;
            peers.push(socket);
        }
        let peer_addr = |lane: usize| peers[lane].local_addr().map_err(|e| fail("peer addr", e));
        let carrier = proxy
            .add_udp_carrier(
                CARRIER,
                UdpCarrierConfig::new()
                    .with_capacity(CAPACITY)
                    .with_batch_size(BATCH),
            )
            .map_err(|e| fail("carrier", e))?;
        if workload.shape == Shape::Fanout {
            let mut session = SharedUdpSessionConfig::on_carrier(CARRIER)
                .with_stream(StreamId::new(workload.stream_ids()[0]))
                .with_capacity(CAPACITY)
                .with_batch_size(BATCH);
            for (index, lane) in workload.lanes.iter().enumerate() {
                session = session.with_lane(lane.name, peer_addr(index)?);
            }
            proxy
                .add_session_udp_shared("fanout", session)
                .map_err(|e| fail("session", e))?;
            let session = proxy
                .pooled_session("fanout")
                .map_err(|e| fail("session", e))?;
            for lane in &workload.lanes {
                for (position, spec) in lane.chain.iter().enumerate() {
                    session
                        .insert_lane_filter(lane.name, position, spec)
                        .map_err(|e| fail("lane filter", e))?;
                }
            }
        } else {
            for &id in workload.stream_ids() {
                let name = format!("s{id:02}");
                let stream = SharedUdpStreamConfig::on_carrier(CARRIER, peer_addr(0)?)
                    .with_stream(StreamId::new(id))
                    .with_capacity(CAPACITY)
                    .with_batch_size(BATCH);
                proxy
                    .add_stream_udp_shared(&name, stream)
                    .map_err(|e| fail("stream", e))?;
                for (position, spec) in workload.lanes[0].chain.iter().enumerate() {
                    proxy
                        .insert_filter(&name, position, spec)
                        .map_err(|e| fail("filter", e))?;
                }
            }
        }
        let socket = UdpSocket::bind("127.0.0.1:0").map_err(|e| fail("bind sender", e))?;
        socket
            .connect(carrier.ingress_addr())
            .map_err(|e| fail("connect", e))?;
        Ok(Self::assemble(
            workload,
            host,
            proxy,
            TxLink::Socket(socket),
            Rx::Sockets(peers),
            Some(carrier),
        ))
    }

    fn assemble(
        workload: &'w Workload,
        host: &'w Host,
        proxy: Proxy,
        link: TxLink,
        rx: Rx,
        carrier: Option<UdpCarrierHandle>,
    ) -> Self {
        let streams = workload.streams() as usize;
        let encoders = if workload.shape == Shape::MuxRepair {
            (0..streams)
                .map(|_| FecEncoderFilter::new(FEC_N, FEC_K).expect("(6,4) is a valid code"))
                .collect()
        } else {
            Vec::new()
        };
        let tx = Tx {
            link,
            encoders,
            wire_index: vec![0; streams],
            scratch: Vec::new(),
            emitted: Vec::new(),
            batch: Vec::with_capacity(BURST as usize),
        };
        Self {
            workload,
            host,
            proxy,
            tx,
            rx,
            carrier,
            next_source: 0,
        }
    }

    /// The proxy under test (for the telemetry snapshot).
    pub fn proxy(&self) -> &Proxy {
        &self.proxy
    }

    /// Runs one phase: the sender and the receiver thread for its whole
    /// length, `while_running` on the calling thread meanwhile, then the
    /// drain and the heavy checks.
    pub fn run_phase(
        &mut self,
        config: &PhaseConfig,
        while_running: impl FnOnce(&Proxy),
    ) -> Result<PhaseOutcome, String> {
        let workload = self.workload;
        let base = self.next_source;
        let due_slots = match config.drive {
            Drive::Paced { rate_pps, length } => {
                (rate_pps as f64 * length.as_secs_f64()) as usize + 2 * ALIGN as usize
            }
            _ => 0,
        };
        let shared = Shared {
            host: self.host,
            delivered: AtomicU64::new(0),
            stop_sender: AtomicBool::new(false),
            stop_receiver: AtomicBool::new(false),
            receiver_tid: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            due: (0..due_slots).map(|_| AtomicU64::new(0)).collect(),
        };
        let ingress = self.carrier.as_ref().map(UdpCarrierHandle::ingress_stats);
        let egress = self.carrier.as_ref().map(UdpCarrierHandle::egress_stats);
        let counters = |carrier: &Option<UdpCarrierHandle>| {
            let unknown = carrier
                .as_ref()
                .map_or(0, UdpCarrierHandle::unknown_streams);
            let read = ingress.as_ref().map_or(0, TransportStats::rx_datagrams);
            let undecodable = ingress.as_ref().map_or(0, TransportStats::decode_errors);
            let shed = ingress.as_ref().map_or(0, TransportStats::dropped)
                + egress.as_ref().map_or(0, TransportStats::dropped);
            (read, undecodable, shed, unknown)
        };
        let before = counters(&self.carrier);
        let epoch = Instant::now();
        let (proxy, tx_state, rx_state) = (&self.proxy, &mut self.tx, &self.rx);
        let (tx, rx) = std::thread::scope(|scope| {
            let receiver =
                scope.spawn(|| run_receiver(workload, rx_state, &shared, config, base, epoch));
            let sender = scope.spawn(|| {
                run_sender(
                    workload,
                    tx_state,
                    ingress.as_ref(),
                    &shared,
                    config.drive,
                    base,
                    epoch,
                )
            });
            while_running(proxy);
            shared.stop_sender.store(true, Ordering::Release);
            let tx = sender.join().expect("sender thread panicked");
            let mut seen = shared.delivered.load(Ordering::Acquire);
            let mut quiet_since = Instant::now();
            while seen < tx.sent && quiet_since.elapsed() < DRAIN_GRACE {
                std::thread::sleep(Duration::from_millis(1));
                let now = shared.delivered.load(Ordering::Acquire);
                if now != seen {
                    seen = now;
                    quiet_since = Instant::now();
                }
            }
            shared.stop_receiver.store(true, Ordering::Release);
            (tx, receiver.join().expect("receiver thread panicked"))
        });
        self.next_source = base + tx.sent;
        if let Some(error) = tx.error {
            return Err(error);
        }
        let after = counters(&self.carrier);

        let mut outcome = PhaseOutcome {
            sent: tx.sent,
            wire_sent: tx.wire_sent,
            delivered: rx.tracker.delivered,
            lane_delivered: rx.tracker.lane_sources.clone(),
            violations: rx.tracker.violations,
            window_counts: rx.window_counts,
            window_latencies: rx.window_latencies,
            window_offered: vec![0; config.windows],
            repair_waits: rx.repair_waits,
            window_gen_lag: vec![Vec::new(); config.windows],
            active: tx.active,
            proxy_cpu_ns: tx.proxy_cpu_ns,
            ..PhaseOutcome::default()
        };
        if self.carrier.is_some() {
            let (read, undecodable, shed, unknown) = (
                after.0 - before.0,
                after.1 - before.1,
                after.2 - before.2,
                after.3 - before.3,
            );
            outcome.transport = TransportDelta {
                kernel_drops: tx.wire_sent.saturating_sub(read),
                decode_errors: undecodable,
                // Unknown-stream frames are also counted as dropped.
                route_drops: shed.saturating_sub(unknown),
                unknown_streams: unknown,
            };
        }
        for latencies in &mut outcome.window_latencies {
            latencies.sort_unstable();
        }
        let start_ns = shared.start_ns.load(Ordering::Acquire);
        let window_ns = config.window.as_nanos() as u64;
        for (rel, due) in shared.due.iter().take(tx.sent as usize).enumerate() {
            let offset = due.load(Ordering::Acquire).saturating_sub(start_ns);
            if let Some(window) = window_of(offset, window_ns, config.windows) {
                outcome.window_gen_lag[window].push(tx.gen_lag[rel]);
                if !workload.is_withheld(base + rel as u64) {
                    outcome.window_offered[window] += 1;
                }
            }
        }
        for lag in &mut outcome.window_gen_lag {
            lag.sort_unstable();
        }
        for (lane, packets) in workload.lanes.iter().zip(rx.tracker.samples) {
            if config.sample_sources > 0 {
                let verdict = verify_sample(workload, lane.codec, packets);
                outcome.sample_checked += verdict.checked;
                outcome.sample_failed += verdict.failed;
            }
        }
        Ok(outcome)
    }

    /// Shuts the proxy down: every chain flushes and every worker joins.
    pub fn tear_down(mut self) -> Result<(), String> {
        self.proxy.shutdown().map_err(|e| fail("shutdown", e))
    }
}
