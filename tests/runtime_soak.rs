//! The sharded-runtime soak suite: 200 pooled fanout sessions with
//! continuous lane add/remove churn under phased loss, ≥50 000 source
//! packets, all multiplexed over a **4-shard** worker pool.
//!
//! What it proves about the runtime:
//!
//! * **no deadlock** — the whole soak (drivers use only non-blocking sends
//!   and drains against the pool) finishes inside a hard wall-clock bound;
//! * **conservation** — for every lane, including lanes removed
//!   mid-stream, `sent == delivered + lost + undelivered`, where `sent`
//!   and `lost` come from the pipe/chain counters and `delivered` is
//!   tallied independently by the consumer;
//! * **exactness on clean lanes** — a lossless lane that lives for the
//!   whole run delivers *every* source packet, in order, no matter how its
//!   sibling lanes churn;
//! * **clean shutdown** — after every session shuts down the runtime
//!   reports **zero** live tasks (churned-away lanes included) and the
//!   worker pool joins without failure.

mod common;

use std::sync::Arc;
use std::time::Duration;

use rapidware::packet::Packet;
use rapidware::proxy::FilterSpec;
use rapidware::runtime::{PooledSession, Runtime, RuntimeConfig};
use rapidware::streams::{DetachableReceiver, TryRecvError};

use common::{assert_conservation, audio_packet, drain_count_to_eof, watchdog};

const SHARDS: usize = 4;
const BATCH_SIZE: usize = 16;
const PIPE_CAPACITY: usize = 64;
const DRIVERS: usize = 8;
const SESSIONS_PER_DRIVER: usize = 25; // 8 × 25 = 200 sessions
const PHASES: u64 = 5;
const PACKETS_PER_PHASE: u64 = 50; // 200 × 5 × 50 = 50 000 source packets
const SOAK_WALL_CLOCK: Duration = Duration::from_secs(240);

fn packet(seq: u64) -> Packet {
    audio_packet(seq, 8)
}

/// One soak session as a driver sees it.
struct SoakSession {
    session: PooledSession,
    name: String,
    next_seq: u64,
    /// Source packets accepted by the session input but possibly not yet
    /// handed over (non-blocking sends return leftovers).
    backlog: Vec<Packet>,
    base_rx: DetachableReceiver<Packet>,
    base_delivered: u64,
    base_next_expected: u64,
    churn: Option<ChurnLane>,
}

/// The churning lane of a session: joins at a phase boundary, carries a
/// deterministic drop filter (the "phased loss"), leaves at the next
/// boundary.
struct ChurnLane {
    name: String,
    rx: DetachableReceiver<Packet>,
    delivered: u64,
    lossy: bool,
}

impl SoakSession {
    /// Drains whatever is buffered at the lane endpoints, keeping the
    /// independent delivery tallies (and the base lane's order check).
    fn drain(&mut self) -> bool {
        let mut progressed = false;
        while let Ok(batch) = self.base_rx.try_recv_up_to(BATCH_SIZE) {
            for p in &batch {
                assert_eq!(
                    p.seq().value(),
                    self.base_next_expected,
                    "{}: base lane delivered out of order",
                    self.name
                );
                self.base_next_expected += 1;
            }
            self.base_delivered += batch.len() as u64;
            progressed = true;
        }
        if let Some(churn) = self.churn.as_mut() {
            while let Ok(batch) = churn.rx.try_recv_up_to(BATCH_SIZE) {
                churn.delivered += batch.len() as u64;
                progressed = true;
            }
        }
        progressed
    }

    /// Pushes as much backlog as the session input accepts right now.
    fn pump(&mut self) -> bool {
        if self.backlog.is_empty() {
            return false;
        }
        let before = self.backlog.len();
        let pending = std::mem::take(&mut self.backlog);
        self.backlog = self
            .session
            .input()
            .try_send_batch(pending)
            .expect("soak session inputs stay open");
        self.backlog.len() != before
    }

    /// Retires the current churn lane: detach it from the fanout, drain its
    /// endpoint to end of stream, and check conservation from independent
    /// counters.
    fn retire_churn_lane(&mut self) {
        let Some(mut churn) = self.churn.take() else {
            return;
        };
        let lossy = churn.lossy;
        self.session.remove_lane(&churn.name).expect("churn lane exists");
        // The lane's chain flushes to EOF once its backlog drains; everything
        // still queued at the endpoint belongs to `delivered`.
        churn.delivered += drain_count_to_eof(&churn.rx, BATCH_SIZE);
        let stats = self.session.lane_stats(&churn.name).expect("retired lanes keep stats");
        let lost = stats.packets_in - stats.packets_out;
        let undelivered = churn.rx.available() as u64;
        assert_eq!(undelivered, 0, "{}/{}: endpoint drained to EOF", self.name, churn.name);
        assert_conservation(
            &format!("{}/{}", self.name, churn.name),
            stats.packets_in,
            churn.delivered,
            lost,
            undelivered,
        );
        if lossy && stats.packets_in >= 4 {
            assert!(lost > 0, "{}/{}: the drop filter never dropped", self.name, churn.name);
        }
        if !lossy {
            assert_eq!(lost, 0, "{}/{}: clean churn lane lost packets", self.name, churn.name);
        }
    }
}

/// The whole soak body; run on a watchdog-supervised thread.
fn run_soak() {
    let runtime = Runtime::start(
        RuntimeConfig::new(SHARDS, BATCH_SIZE).with_pipe_capacity(PIPE_CAPACITY),
    );
    assert_eq!(runtime.status().workers, SHARDS);

    let drivers: Vec<_> = (0..DRIVERS)
        .map(|driver| {
            let runtime = Arc::clone(&runtime);
            std::thread::spawn(move || {
                let mut sessions: Vec<SoakSession> = (0..SESSIONS_PER_DRIVER)
                    .map(|index| {
                        let name = format!("soak-{driver}-{index}");
                        let session = runtime.add_session(&name);
                        let base_rx = session.add_lane("base").expect("fresh session");
                        SoakSession {
                            session,
                            name,
                            next_seq: 0,
                            backlog: Vec::new(),
                            base_rx,
                            base_delivered: 0,
                            base_next_expected: 0,
                            churn: None,
                        }
                    })
                    .collect();

                for phase in 0..PHASES {
                    // Churn at the boundary: retire last phase's lane,
                    // grow this phase's.  Odd phases are the loss
                    // episodes: the joining lane carries a deterministic
                    // drop filter; even-phase lanes stay clean.
                    let lossy = phase % 2 == 1;
                    for s in sessions.iter_mut() {
                        s.retire_churn_lane();
                        let lane_name = format!("churn-{phase}");
                        let rx = s.session.add_lane(&lane_name).expect("unique per phase");
                        if lossy {
                            s.session
                                .insert_lane_filter(
                                    &lane_name,
                                    0,
                                    &FilterSpec::new("drop-every").with_param("n", "4"),
                                )
                                .expect("drop-every is a registered kind");
                        }
                        s.churn = Some(ChurnLane {
                            name: lane_name,
                            rx,
                            delivered: 0,
                            lossy,
                        });
                        s.backlog
                            .extend((s.next_seq..s.next_seq + PACKETS_PER_PHASE).map(packet));
                        s.next_seq += PACKETS_PER_PHASE;
                    }
                    // Pump the phase's traffic through all 25 sessions with
                    // non-blocking sends and drains only: a wedged pool
                    // shows up as no-progress, not as a blocked driver.
                    // The phase ends only once the base lane has delivered
                    // all of it: a packet still in a session's inbox would
                    // otherwise reach the next phase's churn lane before
                    // its drop filter is spliced in.
                    loop {
                        let mut progressed = false;
                        let mut all_delivered = true;
                        for s in sessions.iter_mut() {
                            progressed |= s.pump();
                            progressed |= s.drain();
                            all_delivered &= s.backlog.is_empty() && s.base_delivered == s.next_seq;
                        }
                        if all_delivered {
                            break;
                        }
                        if !progressed {
                            std::thread::yield_now();
                        }
                    }
                }

                // Teardown: EOF every session, drain every lane dry, check
                // the clean-lane and conservation invariants, shut down.
                let mut sources_sent = 0u64;
                for mut s in sessions {
                    s.session.close_input();
                    loop {
                        match s.base_rx.try_recv_up_to(BATCH_SIZE) {
                            Ok(batch) => {
                                for p in &batch {
                                    assert_eq!(p.seq().value(), s.base_next_expected);
                                    s.base_next_expected += 1;
                                }
                                s.base_delivered += batch.len() as u64;
                            }
                            Err(TryRecvError::Empty) => std::thread::yield_now(),
                            Err(_) => break,
                        }
                    }
                    s.retire_churn_lane();
                    let total = PHASES * PACKETS_PER_PHASE;
                    assert_eq!(
                        s.base_delivered, total,
                        "{}: lossless whole-life lane must deliver every packet",
                        s.name
                    );
                    let base = s.session.lane_stats("base").expect("base lane");
                    assert_eq!(base.packets_in, total, "{}: fanout fed the base lane fully", s.name);
                    assert_eq!(base.packets_out, total);
                    let head = s.session.status().head_stats;
                    assert_eq!(head.packets_in, total, "{}: head accepted the whole stream", s.name);
                    sources_sent += head.packets_in;
                    s.session.shutdown().expect("clean session shutdown");
                }
                sources_sent
            })
        })
        .collect();

    let mut total_sources = 0u64;
    for driver in drivers {
        total_sources += driver.join().expect("soak driver must not panic");
    }
    assert_eq!(
        total_sources,
        (DRIVERS * SESSIONS_PER_DRIVER) as u64 * PHASES * PACKETS_PER_PHASE,
        "the soak must push at least 50k source packets"
    );
    assert!(total_sources >= 50_000);

    // Clean shutdown: nothing left on the pool.
    assert_eq!(runtime.live_tasks(), 0, "leaked shard tasks after session shutdown");
    let status = runtime.status();
    assert!(status.shards.iter().all(|shard| shard.queued == 0), "run queues not empty");
    runtime.shutdown().expect("worker pool joins cleanly");
}

#[test]
fn soak_200_sessions_with_lane_churn_on_a_4_shard_pool() {
    // The no-deadlock bound: the soak runs on a supervised thread and must
    // finish inside SOAK_WALL_CLOCK, or the watchdog fails the test
    // instead of letting CI hang.
    watchdog("runtime-soak", SOAK_WALL_CLOCK, run_soak);
}
