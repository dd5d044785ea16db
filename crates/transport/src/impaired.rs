//! [`ImpairedUdp`]: a deterministic loopback impairment relay.
//!
//! Real networks drop, delay, and reorder datagrams; loopback does not.  To
//! exercise the FEC/adaptation machinery over *real sockets* while keeping
//! test runs reproducible, `ImpairedUdp` interposes a relay between an
//! egress and an ingress and applies a **seeded schedule** of impairments,
//! mirroring `netsim`'s `ScheduledLoss`: phases are keyed by the index of
//! the data frame being relayed (the datagram analogue of simulated time),
//! drop decisions come from a seeded RNG or a fixed stride, and "delay" is
//! expressed in *frames held back* rather than wall-clock time — the held
//! frame is released after N further data frames pass, which reorders the
//! stream deterministically instead of racing a timer.
//!
//! Control frames (quiescence markers, FIN) always pass, and a FIN flushes
//! any held frames first, so an impaired stream still ends cleanly and
//! closed-loop scenario runs stay deterministic.

use std::fmt;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rapidware_packet::{Packet, PacketKind};

use crate::MAX_DATAGRAM_LEN;

/// The impairments in force during one phase of an [`ImpairmentPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpairmentPhase {
    /// Per-data-frame drop probability, drawn from the plan's seeded RNG.
    pub drop_rate: f64,
    /// Drops every `n`-th data frame of the run (1-based; `None` disables).
    /// Unlike [`drop_rate`](Self::drop_rate) this is a fixed stride, which
    /// gives tests a loss pattern with a *provable* worst case per FEC
    /// block.
    pub drop_every: Option<u64>,
    /// Holds every `n`-th data frame back (1-based; `None` disables)…
    pub delay_every: Option<u64>,
    /// …for this many subsequent data frames, after which it is released —
    /// a deterministic reordering of the stream.
    pub delay_frames: u64,
}

impl ImpairmentPhase {
    /// A phase that forwards everything untouched.
    pub fn clean() -> Self {
        Self {
            drop_rate: 0.0,
            drop_every: None,
            delay_every: None,
            delay_frames: 0,
        }
    }

    /// A phase dropping data frames independently with probability `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn drop_rate(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "drop rate must be within [0, 1]");
        Self {
            drop_rate: rate,
            ..Self::clean()
        }
    }

    /// A phase dropping every `n`-th data frame.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn drop_every(n: u64) -> Self {
        assert!(n > 0, "drop stride must be non-zero");
        Self {
            drop_every: Some(n),
            ..Self::clean()
        }
    }

    /// A phase holding every `every`-th data frame back for `frames`
    /// subsequent data frames (deterministic reordering).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn delay(every: u64, frames: u64) -> Self {
        assert!(every > 0, "delay stride must be non-zero");
        Self {
            delay_every: Some(every),
            delay_frames: frames,
            ..Self::clean()
        }
    }
}

/// A seeded, phased impairment schedule (the datagram analogue of
/// `netsim::ScheduledLoss`): each `(start_frame, phase)` entry is in effect
/// from its start index until the next phase begins; the last phase runs
/// forever.  The same plan produces the same drop/delay pattern on every
/// run.
#[derive(Debug, Clone)]
pub struct ImpairmentPlan {
    seed: u64,
    /// `(first data-frame index, phase)` pairs, sorted by start index.
    phases: Vec<(u64, ImpairmentPhase)>,
}

impl ImpairmentPlan {
    /// Creates a plan from `(start_frame, phase)` entries (sorted by start
    /// index; indices before the first entry fall back to it).
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty.
    pub fn new(seed: u64, mut phases: Vec<(u64, ImpairmentPhase)>) -> Self {
        assert!(!phases.is_empty(), "impairment plan needs at least one phase");
        phases.sort_by_key(|(start, _)| *start);
        Self { seed, phases }
    }

    /// A plan that forwards everything untouched.
    pub fn clean(seed: u64) -> Self {
        Self::new(seed, vec![(0, ImpairmentPhase::clean())])
    }

    /// A single-phase plan dropping data frames with probability `rate`.
    pub fn bernoulli(seed: u64, rate: f64) -> Self {
        Self::new(seed, vec![(0, ImpairmentPhase::drop_rate(rate))])
    }

    /// A single-phase plan dropping every `n`-th data frame.
    pub fn drop_every(seed: u64, n: u64) -> Self {
        Self::new(seed, vec![(0, ImpairmentPhase::drop_every(n))])
    }

    /// The RNG seed driving probabilistic decisions.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of phases in the schedule.
    pub fn phase_count(&self) -> usize {
        self.phases.len()
    }

    /// The phase in effect for data frame `index`.
    pub fn phase_at(&self, index: u64) -> &ImpairmentPhase {
        let position = self
            .phases
            .iter()
            .rposition(|(start, _)| *start <= index)
            .unwrap_or(0);
        &self.phases[position].1
    }
}

/// Shared counters of one [`ImpairedUdp`] relay.
#[derive(Debug, Clone, Default)]
pub struct ImpairedStats {
    inner: Arc<ImpairedInner>,
}

#[derive(Debug, Default)]
struct ImpairedInner {
    forwarded: AtomicU64,
    dropped: AtomicU64,
    delayed: AtomicU64,
    control: AtomicU64,
}

/// A point-in-time copy of an [`ImpairedStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ImpairedSnapshot {
    /// Data frames forwarded (on time or after a hold).
    pub forwarded: u64,
    /// Data frames dropped by the schedule.
    pub dropped: u64,
    /// Data frames held back for reordering (also counted in `forwarded`
    /// once released).
    pub delayed: u64,
    /// Control frames passed through untouched.
    pub control: u64,
}

impl ImpairedStats {
    /// Data frames forwarded so far.
    pub fn forwarded(&self) -> u64 {
        self.inner.forwarded.load(Ordering::Relaxed)
    }

    /// Data frames dropped so far.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Data frames held back so far.
    pub fn delayed(&self) -> u64 {
        self.inner.delayed.load(Ordering::Relaxed)
    }

    /// Control frames passed so far.
    pub fn control(&self) -> u64 {
        self.inner.control.load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time copy of every counter.
    pub fn snapshot(&self) -> ImpairedSnapshot {
        ImpairedSnapshot {
            forwarded: self.forwarded(),
            dropped: self.dropped(),
            delayed: self.delayed(),
            control: self.control(),
        }
    }
}

/// A loopback relay applying a seeded [`ImpairmentPlan`] to the datagrams
/// passing through it.
///
/// Send to [`local_addr`](Self::local_addr); survivors come out at `peer`.
pub struct ImpairedUdp {
    local_addr: SocketAddr,
    stats: ImpairedStats,
    plan: Arc<Mutex<ImpairmentPlan>>,
    stop: Arc<AtomicBool>,
    pump: Option<JoinHandle<()>>,
}

impl fmt::Debug for ImpairedUdp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ImpairedUdp")
            .field("local_addr", &self.local_addr)
            .field("forwarded", &self.stats.forwarded())
            .field("dropped", &self.stats.dropped())
            .finish()
    }
}

impl ImpairedUdp {
    /// Spawns a relay on an ephemeral loopback port that forwards the
    /// surviving datagrams to `peer` under `plan`.
    ///
    /// # Errors
    ///
    /// Returns the socket `bind`/configuration error, if any.
    pub fn spawn(peer: impl ToSocketAddrs, plan: ImpairmentPlan) -> io::Result<Self> {
        let peer = peer.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "peer resolved to nothing")
        })?;
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        socket.set_read_timeout(Some(Duration::from_millis(20)))?;
        let local_addr = socket.local_addr()?;
        let stats = ImpairedStats::default();
        let plan = Arc::new(Mutex::new(plan));
        let stop = Arc::new(AtomicBool::new(false));
        let pump = {
            let stats = stats.clone();
            let plan = Arc::clone(&plan);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("impaired-udp-{local_addr}"))
                .spawn(move || pump_impaired(&socket, peer, &plan, &stats, &stop))
                .expect("spawning the impairment relay thread")
        };
        Ok(Self {
            local_addr,
            stats,
            plan,
            stop,
            pump: Some(pump),
        })
    }

    /// The relay's ingress address: point an egress peer here.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The relay's counters.
    pub fn stats(&self) -> ImpairedStats {
        self.stats.clone()
    }

    /// Replaces the impairment schedule while the relay runs.
    ///
    /// The swap takes effect on the next data frame: the data-frame clock
    /// keeps counting, but phase lookups (and stride decisions keyed on the
    /// frame index) consult the new plan.  The relay's RNG stream is *not*
    /// re-seeded — probabilistic decisions keep drawing from the original
    /// seed's sequence, so two runs that swap plans at the same frame index
    /// still behave identically.  This is the hook chaos tests use to
    /// black out a socket mid-run (swap in a `drop_rate(1.0)` phase) and
    /// later restore it.
    pub fn set_plan(&self, plan: ImpairmentPlan) {
        *self.plan.lock().expect("impairment plan lock") = plan;
    }

    /// A copy of the schedule currently in force.
    pub fn plan(&self) -> ImpairmentPlan {
        self.plan.lock().expect("impairment plan lock").clone()
    }

    /// Stops the relay thread and waits for it to exit.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
    }
}

impl Drop for ImpairedUdp {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn pump_impaired(
    socket: &UdpSocket,
    peer: SocketAddr,
    plan: &Mutex<ImpairmentPlan>,
    stats: &ImpairedStats,
    stop: &AtomicBool,
) {
    let seed = plan.lock().expect("impairment plan lock").seed();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut buf = vec![0u8; MAX_DATAGRAM_LEN];
    // Data frames relayed so far; the "clock" the plan's phases run on.
    let mut data_index = 0u64;
    // Frames held for reordering: `(release_before_index, frame)`, in hold
    // order (which is also release order, holds being FIFO per phase).
    let mut held: Vec<(u64, Vec<u8>)> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let len = match socket.recv_from(&mut buf) {
            Ok((len, _peer)) => len,
            Err(err)
                if err.kind() == io::ErrorKind::WouldBlock
                    || err.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        let frame = &buf[..len];
        let is_control = Packet::decode(frame)
            .map(|packet| packet.kind() == PacketKind::Control)
            .unwrap_or(false);
        if is_control {
            // Quiescence markers and FIN frames delimit the stream: flush
            // anything held so nothing is reordered across the delimiter
            // (or lost at end of stream), then pass the control frame.
            for (_, late) in held.drain(..) {
                let _ = socket.send_to(&late, peer);
                stats.inner.forwarded.fetch_add(1, Ordering::Relaxed);
            }
            let _ = socket.send_to(frame, peer);
            stats.inner.control.fetch_add(1, Ordering::Relaxed);
            continue;
        }

        // Release held frames that have served their delay (moved out,
        // not cloned: partition splits the hold queue in arrival order).
        if held.iter().any(|(release_before, _)| *release_before <= data_index) {
            let (due, kept): (Vec<_>, Vec<_>) = held
                .drain(..)
                .partition(|(release_before, _)| *release_before <= data_index);
            held = kept;
            for (_, late) in due {
                let _ = socket.send_to(&late, peer);
                stats.inner.forwarded.fetch_add(1, Ordering::Relaxed);
            }
        }

        let index = data_index;
        data_index += 1;
        let phase = *plan.lock().expect("impairment plan lock").phase_at(index);
        // One RNG draw per data frame regardless of phase, so the random
        // sequence each frame sees is independent of the schedule shape.
        let roll: f64 = rng.gen();
        let stride_drop = phase.drop_every.is_some_and(|n| (index + 1).is_multiple_of(n));
        if roll < phase.drop_rate || stride_drop {
            stats.inner.dropped.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        if phase.delay_every.is_some_and(|n| (index + 1).is_multiple_of(n)) && phase.delay_frames > 0 {
            held.push((index + 1 + phase.delay_frames, frame.to_vec()));
            stats.inner.delayed.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        let _ = socket.send_to(frame, peer);
        stats.inner.forwarded.fetch_add(1, Ordering::Relaxed);
    }
    // Relay going away: release anything still held rather than losing it.
    for (_, late) in held.drain(..) {
        let _ = socket.send_to(&late, peer);
        stats.inner.forwarded.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_are_sorted_and_selected_by_index() {
        let plan = ImpairmentPlan::new(
            1,
            vec![
                (100, ImpairmentPhase::drop_rate(1.0)),
                (0, ImpairmentPhase::clean()),
                (200, ImpairmentPhase::drop_every(2)),
            ],
        );
        assert_eq!(plan.phase_count(), 3);
        assert_eq!(plan.phase_at(0).drop_rate, 0.0);
        assert_eq!(plan.phase_at(99).drop_rate, 0.0);
        assert_eq!(plan.phase_at(100).drop_rate, 1.0);
        assert_eq!(plan.phase_at(500).drop_every, Some(2));
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_plans_are_rejected() {
        let _ = ImpairmentPlan::new(1, Vec::new());
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn bad_drop_rates_are_rejected() {
        let _ = ImpairmentPhase::drop_rate(1.5);
    }

    #[test]
    fn builders_cover_the_common_regimes() {
        assert_eq!(ImpairmentPlan::clean(9).seed(), 9);
        assert_eq!(ImpairmentPlan::bernoulli(1, 0.25).phase_at(0).drop_rate, 0.25);
        assert_eq!(ImpairmentPlan::drop_every(1, 5).phase_at(0).drop_every, Some(5));
        let delayed = ImpairmentPhase::delay(3, 2);
        assert_eq!(delayed.delay_every, Some(3));
        assert_eq!(delayed.delay_frames, 2);
    }
}
