//! The sharded session runtime: many sessions multiplexed over a **fixed**
//! pool of workers.
//!
//! This is the executor every [`Proxy`](crate::Proxy) stream and session
//! runs on.  The paper's architecture spends one OS thread per filter — at
//! hundreds of concurrent sessions the thread count, stack memory, and
//! context-switch load topple the proxy long before the hardware does — so
//! the proxy is shaped like the worker-multiplexed stage executors of
//! streaming-pipe systems instead: a [`Runtime`] owns `shards` worker
//! threads, each with its own run queue of tasks, and every
//! [`PooledSession`] is exactly **one** task, never a thread.  A flat
//! stream is the one-lane case: an empty head and one lane named after the
//! stream.
//!
//! ```text
//!                 ┌─ shard 0: [task][task][task…]  ◀─ steal ─┐
//!   N sessions ──▶┤  shard 1: [task][task…]                  ├─ workers
//!   (tasks)       └─ shard …: [task…]             ◀─ steal ──┘
//!
//!   session task:  inbox ─try_recv_up_to(batch)─▶ head chain ─┬─▶ lane chain ─▶ lane outbox
//!                                          (Arc clones) └─▶ lane chain ─▶ lane outbox
//!   flat stream:   inbox ─▶ (empty head) ─▶ its one lane's chain ─▶ outbox
//!
//!   carrier route: drain ─▶ task idle and caught up? ─yes─▶ the same body, in place
//!   (see TaskInlet)                                  └─no──▶ inbox (as above)
//! ```
//!
//! A session task drains up to `batch_size` packets from its inbox pipe and
//! runs them to completion in one step: its (synchronous, re-entrant) head
//! `FilterChain` once, then every lane's chain on an `Arc`-clone of the
//! head's output, forwarded into each lane's delivery pipe with
//! [`try_send_batch`](rapidware_streams::DetachableSender::try_send_batch).
//! When a downstream pipe is full the task parks — **without** holding a
//! worker — until the pipe's space watcher fires; when its inbox is empty
//! it parks until the data watcher fires.  Workers steal queued tasks from
//! sibling shards, so a skewed session population cannot idle half the
//! pool.  A worker with nothing to run parks on the pool's condvar or —
//! once the pool drives sockets, and if no other worker is there — in its
//! epoll set, so the worker that learns a socket is readable runs that
//! socket's task itself (a UDP carrier's: see
//! [`Proxy::add_udp_carrier`](crate::Proxy::add_udp_carrier)).
//!
//! Live reconfiguration needs no pipe splicing here: the filters live in a
//! mutex-guarded `FilterChain`, so insert/remove serialise with batch
//! processing and take effect exactly between two batches.  The
//! control-marker quiescence protocol used by the scenario engine works
//! unchanged: markers ride the same FIFO path as data.
//!
//! ```
//! use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
//! use rapidware_proxy::runtime::{Runtime, RuntimeConfig};
//!
//! # fn main() -> Result<(), rapidware_proxy::ProxyError> {
//! let runtime = Runtime::start(RuntimeConfig::new(4, 16));
//! // A flat stream: no head filters, one lane named after the stream.
//! let stream = runtime.add_session("audio");
//! let output = stream.add_lane("audio")?;
//! let input = stream.input();
//! input.send(Packet::new(StreamId::new(1), SeqNo::new(0), PacketKind::AudioData, vec![1, 2]))
//!     .expect("pooled session accepts packets");
//! assert_eq!(output.recv().expect("forwarded").seq().value(), 0);
//! stream.shutdown()?;
//! runtime.shutdown()?;
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use rapidware_filters::{ChainSpans, Filter, FilterChain, FilterCounters, SecureChannelSnapshot};
use rapidware_telemetry::{now_ns, Histogram, Registry};
use rapidware_packet::Packet;
use rapidware_streams::{pipe, DetachableReceiver, DetachableSender, PipeWatcher, TryRecvError};
use rapidware_transport::{Interest, Poller, RouteInlet, Token};

use crate::error::ProxyError;
use crate::registry::{FilterRegistry, FilterSpec};
use crate::session::{ChainStats, LaneStatus, SessionStatus};

/// How long a graceful [`PooledSession::shutdown`] waits for the session's
/// task to finish before reporting it leaked.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(10);

/// Configuration of a [`Runtime`]: how many workers to run and how many
/// packets a session task drains from its inbox per scheduling step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Number of shards — each shard owns one worker thread and one run
    /// queue.  The pool size is fixed for the runtime's lifetime.
    pub shards: usize,
    /// Maximum packets a session task drains (and runs through its chain
    /// as one batch) per step.
    pub batch_size: usize,
    /// Buffer capacity, in packets, of the inbox and lane pipes of sessions
    /// created through this runtime.
    pub pipe_capacity: usize,
}

impl RuntimeConfig {
    /// A configuration with `shards` workers and `batch_size`-packet steps,
    /// using the default pipe capacity.
    ///
    /// Zero values are clamped to one.
    pub fn new(shards: usize, batch_size: usize) -> Self {
        Self {
            shards: shards.max(1),
            batch_size: batch_size.max(1),
            pipe_capacity: 128,
        }
    }

    /// Overrides the pipe capacity of sessions created through the runtime.
    #[must_use]
    pub fn with_pipe_capacity(mut self, capacity: usize) -> Self {
        self.pipe_capacity = capacity.max(1);
        self
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self::new(4, 32)
    }
}

/// A snapshot of one shard's run queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStatus {
    /// Tasks currently waiting in this shard's run queue.
    pub queued: usize,
    /// Task steps this shard's queue has handed to workers so far.
    pub executed: u64,
}

/// A snapshot of a whole [`Runtime`], reported through
/// [`ProxyStatus`](crate::ProxyStatus) when the proxy runs in pooled mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeStatus {
    /// Number of worker threads (== number of shards).
    pub workers: usize,
    /// Per-shard queue depths and execution counters.
    pub shards: Vec<ShardStatus>,
    /// Tasks registered with the runtime that have not yet completed.
    pub live_tasks: usize,
    /// Tasks a worker executed from a shard other than its own.
    pub steals: u64,
    /// Task steps workers have actually run (a step is one `poll` of a
    /// session or socket task).
    pub polls: u64,
    /// Times a worker went to sleep, on the pool's condvar or in the
    /// poller's `epoll_wait`: each park costs a wake-up to end, so parks
    /// per packet count the thread hand-offs on the packet's path.
    pub parks: u64,
}

/// The pool's own profiling instruments, installed by
/// [`Runtime::enable_telemetry`].  Everything here is a registry histogram;
/// the hot path holds pre-resolved `Arc` handles and records with relaxed
/// atomics — no locks, no allocation.
struct RuntimeTelemetry {
    /// Wall time of each task step (one session/socket poll).
    poll_ns: Arc<Histogram>,
    /// Delay between a task entering a run queue and a worker picking its
    /// step up — the scheduling latency the paper's adaptation loop rides
    /// on.
    queue_wait_ns: Arc<Histogram>,
    /// One sample per poll of the socket set that reported at least one
    /// socket: from `epoll_wait` returning to the last ready task being
    /// queued.  An idle proxy records none.
    scan_ns: Arc<Histogram>,
}

impl RuntimeTelemetry {
    fn new(registry: &Arc<Registry>) -> Arc<Self> {
        Arc::new(Self {
            poll_ns: registry.histogram("runtime.poll_ns"),
            queue_wait_ns: registry.histogram("runtime.queue_wait_ns"),
            scan_ns: registry.histogram("runtime.reactor.scan_ns"),
        })
    }
}

// ---------------------------------------------------------------------------
// Task scheduling.
// ---------------------------------------------------------------------------

/// What a task step reports back to the worker that ran it.
enum StepOutcome {
    /// The task made progress and may have more work: requeue it.
    Progress,
    /// The task cannot progress until a watcher fires: park it.
    Idle,
    /// The task is finished and must never be stepped again.
    Done,
}

/// The work a task performs when stepped.  `step` must never block: it uses
/// only the non-blocking pipe operations and returns `Idle` when it cannot
/// progress.
trait TaskWork: Send + Sync {
    /// Runs one step of `task`, the task this work belongs to.
    fn step(&self, task: &Task) -> StepOutcome;
}

/// Task scheduling states (the classic notify-while-running machine: a wake
/// that arrives during a step re-queues the task after the step, so no
/// notification is ever lost).
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const RUNNING_NOTIFIED: u8 = 3;
const DONE: u8 = 4;

struct Task {
    /// Scheduling state (`IDLE`/`QUEUED`/`RUNNING`/`RUNNING_NOTIFIED`/`DONE`).
    state: AtomicU8,
    /// Home shard this task is enqueued to when woken.
    shard: usize,
    pool: Weak<PoolShared>,
    /// When this task last entered a run queue (`now_ns`; 0 = unstamped).
    /// Only written while pool telemetry is enabled; consumed (and reset)
    /// by the worker that picks the task up, yielding queue-wait latency.
    enqueued_ns: AtomicU64,
    work: Box<dyn TaskWork>,
    /// Completion latch `PooledSession::shutdown` waits on.
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Task {
    /// Enqueues the task if it was idle (see [`claim`](Self::claim)).  Safe
    /// to call from any thread, any number of times.
    fn schedule(self: &Arc<Self>) {
        if self.claim() {
            if let Some(pool) = self.pool.upgrade() {
                pool.enqueue(Arc::clone(self));
            }
        }
    }

    /// Transitions the task towards `QUEUED`: `true` if it was idle, and
    /// the caller now owes it a run-queue slot; a running task is marked
    /// notified instead.
    fn claim(&self) -> bool {
        loop {
            match self.state.load(Ordering::SeqCst) {
                IDLE => {
                    if self
                        .state
                        .compare_exchange(IDLE, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        return true;
                    }
                }
                RUNNING => {
                    if self
                        .state
                        .compare_exchange(
                            RUNNING,
                            RUNNING_NOTIFIED,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_ok()
                    {
                        return false;
                    }
                }
                // Already queued, already notified, or finished.
                _ => return false,
            }
        }
    }

    /// Forgets the wakes raised since the running step began: for a step
    /// whose remaining work answers every one of them.
    fn settle(&self) {
        let _ = self.state.compare_exchange(
            RUNNING_NOTIFIED,
            RUNNING,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    fn finish(&self) {
        self.state.store(DONE, Ordering::SeqCst);
        if let Some(pool) = self.pool.upgrade() {
            pool.live_tasks.fetch_sub(1, Ordering::SeqCst);
        }
        let mut done = self.done.lock();
        *done = true;
        self.done_cv.notify_all();
    }

    /// Waits, bounded by [`SHUTDOWN_GRACE`], for the task to finish; `false`
    /// if it does not — certain once the pool has stopped its workers, the
    /// only threads that can run the task's final step.
    fn wait_finished(&self) -> bool {
        let running = self
            .pool
            .upgrade()
            .is_some_and(|pool| !pool.shutdown.load(Ordering::SeqCst));
        let deadline = std::time::Instant::now() + SHUTDOWN_GRACE;
        let mut done = self.done.lock();
        while !*done && running {
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            self.done_cv.wait_for(&mut done, deadline - now);
        }
        *done
    }
}

/// A [`PipeWatcher`] that wakes a task.  Holds the task weakly so the pipes
/// of a dropped session cannot keep its task alive.
struct TaskWaker {
    task: Weak<Task>,
}

impl TaskWaker {
    fn of(task: &Arc<Task>) -> Arc<Self> {
        Arc::new(Self {
            task: Arc::downgrade(task),
        })
    }
}

impl PipeWatcher for TaskWaker {
    fn notify(&self) {
        if let Some(task) = self.task.upgrade() {
            task.schedule();
        }
    }
}

struct ShardQueue {
    queue: Mutex<VecDeque<Arc<Task>>>,
    executed: AtomicU64,
}

struct PoolShared {
    shards: Vec<ShardQueue>,
    /// Total tasks currently sitting in run queues (the workers' sleep
    /// condition; checked under the `sleepers` lock, or after claiming
    /// `polling`, so a concurrent enqueue can never slip between "saw zero"
    /// and "went to sleep").
    queued: AtomicUsize,
    sleepers: Mutex<usize>,
    wake: Condvar,
    /// The readiness set of every socket task, made by the first carrier:
    /// a socket-free pool has none.
    poller: OnceLock<Arc<Poller<Weak<Task>>>>,
    /// A worker is parked in the poller's `epoll_wait` (at most one is).
    polling: AtomicBool,
    /// Times a worker parked, on `wake` or in the poller.
    parks: AtomicU64,
    shutdown: AtomicBool,
    live_tasks: AtomicUsize,
    next_shard: AtomicUsize,
    steals: AtomicU64,
    /// Task steps workers have run (every poll, across all shards).
    polls: AtomicU64,
    /// Profiling instruments; empty until [`Runtime::enable_telemetry`].
    telemetry: OnceLock<Arc<RuntimeTelemetry>>,
    #[cfg(any(test, feature = "chaos"))]
    chaos: ChaosState,
}

/// Test-only fault injection for the worker pool (compiled in only for the
/// proxy crate's own tests or under the `chaos` cargo feature).
///
/// The single fault on offer is a **shard stall**: the targeted shard's
/// worker sleeps for a fixed duration before every task step it executes,
/// simulating a worker wedged on a slow syscall or a noisy neighbour.  The
/// stalled shard keeps its run queue, so the fault specifically exercises
/// the pool's work stealing: sibling workers must pick the queue up or the
/// whole session wedges.  Conservation invariants must hold regardless.
#[cfg(any(test, feature = "chaos"))]
#[derive(Debug)]
struct ChaosState {
    /// Shard whose worker is stalled (`usize::MAX` = none).
    stall_shard: AtomicUsize,
    /// Stall duration before each step, in microseconds.
    stall_micros: AtomicU64,
    /// Stall pauses workers have actually served.
    stalls_served: AtomicU64,
}

#[cfg(any(test, feature = "chaos"))]
impl Default for ChaosState {
    fn default() -> Self {
        Self {
            stall_shard: AtomicUsize::new(usize::MAX),
            stall_micros: AtomicU64::new(0),
            stalls_served: AtomicU64::new(0),
        }
    }
}

#[cfg(any(test, feature = "chaos"))]
impl ChaosState {
    fn maybe_stall(&self, home: usize) {
        if self.stall_shard.load(Ordering::Relaxed) != home {
            return;
        }
        let micros = self.stall_micros.load(Ordering::Relaxed);
        if micros == 0 {
            return;
        }
        self.stalls_served.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(Duration::from_micros(micros));
    }
}

impl PoolShared {
    /// Puts `task` at the back of `shard`'s run queue and returns the
    /// queue's new length.  Wakes nobody.
    fn push(&self, shard: usize, task: Arc<Task>) -> usize {
        if self.telemetry.get().is_some() {
            task.enqueued_ns.store(now_ns(), Ordering::Relaxed);
        }
        let len = {
            let mut queue = self.shards[shard].queue.lock();
            queue.push_back(task);
            queue.len()
        };
        self.queued.fetch_add(1, Ordering::SeqCst);
        len
    }

    /// Queues a woken task on its home shard and wakes a parked worker.
    fn enqueue(&self, task: Arc<Task>) {
        self.push(task.shard, task);
        self.wake_one();
    }

    /// Requeues the task worker `home` just stepped on the worker's own
    /// shard.  The worker pops it next, so a parked worker is woken only
    /// if other work waits there.
    fn requeue(&self, home: usize, task: &Arc<Task>) {
        task.state.store(QUEUED, Ordering::SeqCst);
        if self.push(home, Arc::clone(task)) > 1 {
            self.wake_one();
        }
    }

    /// Wakes one parked worker: a condvar sleeper if there is one, else
    /// the worker parked in the poller, through its eventfd.
    fn wake_one(&self) {
        let sleepers = self.sleepers.lock();
        if *sleepers > 0 {
            self.wake.notify_one();
        } else if self.polling.load(Ordering::SeqCst) {
            drop(sleepers);
            self.wake_poller();
        }
    }

    fn wake_poller(&self) {
        if let Some(poller) = self.poller.get() {
            poller.wake().expect("writing the pool's eventfd");
        }
    }

    /// Parks worker `home` until there may be work: in the poller's
    /// `epoll_wait` if the pool has sockets and no other worker waits
    /// there, else on the condvar.  A worker that polled queues the socket
    /// tasks its poll made ready.
    fn park(&self, home: usize, ready: &mut Vec<Weak<Task>>) {
        if let Some(poller) = self.poller.get() {
            if self
                .polling
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                // Checked after claiming `polling`: an enqueue this check
                // misses sees the claim and writes the eventfd.
                let idle = self.queued.load(Ordering::SeqCst) == 0;
                if idle && !self.shutdown.load(Ordering::SeqCst) {
                    self.parks.fetch_add(1, Ordering::Relaxed);
                    poller.wait(ready).expect("waiting on the pool's epoll set");
                }
                self.polling.store(false, Ordering::SeqCst);
                self.dispatch(home, ready);
                return;
            }
        }
        let mut sleepers = self.sleepers.lock();
        if self.shutdown.load(Ordering::SeqCst) || self.queued.load(Ordering::SeqCst) > 0 {
            return;
        }
        *sleepers += 1;
        self.parks.fetch_add(1, Ordering::Relaxed);
        self.wake.wait(&mut sleepers);
        *sleepers -= 1;
    }

    /// Queues the socket tasks a poll by worker `home` made ready on the
    /// worker's own shard, where it runs them next, so nobody is woken
    /// unless more than one became ready.
    fn dispatch(&self, home: usize, ready: &mut Vec<Weak<Task>>) {
        if ready.is_empty() {
            return;
        }
        let polled = self.telemetry.get().map(|telemetry| (telemetry, now_ns()));
        let mut queued = 0;
        for task in ready.drain(..).filter_map(|task| task.upgrade()) {
            if task.claim() {
                self.push(home, task);
                queued += 1;
            }
        }
        if queued > 1 {
            self.wake_one();
        }
        if let Some((telemetry, start)) = polled {
            telemetry.scan_ns.record(now_ns().saturating_sub(start));
        }
    }

    /// Pops a task for worker `home`: own queue front first, then steal
    /// from the back of sibling queues.
    fn pop(&self, home: usize) -> Option<Arc<Task>> {
        if let Some(task) = self.shards[home].queue.lock().pop_front() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            self.shards[home].executed.fetch_add(1, Ordering::Relaxed);
            return Some(task);
        }
        let count = self.shards.len();
        for offset in 1..count {
            let victim = (home + offset) % count;
            if let Some(task) = self.shards[victim].queue.lock().pop_back() {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                self.shards[victim].executed.fetch_add(1, Ordering::Relaxed);
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(task);
            }
        }
        None
    }
}

/// Runs one task step on worker `home` and applies the resulting state
/// transition.
fn run_task(task: &Arc<Task>, pool: &PoolShared, home: usize) {
    if task
        .state
        .compare_exchange(QUEUED, RUNNING, Ordering::SeqCst, Ordering::SeqCst)
        .is_err()
    {
        // Only a finished task can be popped in a non-QUEUED state (its
        // final wake raced its completion); there is nothing left to run.
        return;
    }
    pool.polls.fetch_add(1, Ordering::Relaxed);
    let telemetry = pool.telemetry.get();
    let step_start = telemetry.map(|telemetry| {
        let now = now_ns();
        let enqueued = task.enqueued_ns.swap(0, Ordering::Relaxed);
        if enqueued != 0 {
            telemetry.queue_wait_ns.record(now.saturating_sub(enqueued));
        }
        now
    });
    let outcome = task.work.step(task);
    if let (Some(telemetry), Some(start)) = (telemetry, step_start) {
        telemetry.poll_ns.record(now_ns().saturating_sub(start));
    }
    match outcome {
        StepOutcome::Done => task.finish(),
        StepOutcome::Progress => pool.requeue(home, task),
        StepOutcome::Idle => {
            if task
                .state
                .compare_exchange(RUNNING, IDLE, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                // A watcher fired while the step ran: the condition it
                // signalled may be the one the step just failed on, so the
                // task goes straight back to the queue.
                pool.requeue(home, task);
            }
        }
    }
}

/// Task steps a busy worker runs between two zero-timeout polls of the
/// socket set, so a carrier cannot starve behind tasks that never let the
/// pool park.
const BUSY_POLL_STEPS: u64 = 61;

/// A worker: runs tasks while any are queued, polling the socket set every
/// [`BUSY_POLL_STEPS`] steps, and parks when none are.
fn worker_loop(pool: &Arc<PoolShared>, home: usize) {
    let mut ready = Vec::new();
    let mut steps = 0u64;
    loop {
        if pool.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Some(task) = pool.pop(home) {
            #[cfg(any(test, feature = "chaos"))]
            pool.chaos.maybe_stall(home);
            run_task(&task, pool, home);
            steps += 1;
            match pool.poller.get() {
                Some(poller) if steps.is_multiple_of(BUSY_POLL_STEPS) => {
                    poller.try_wait(&mut ready).expect("polling the pool's epoll set");
                    pool.dispatch(home, &mut ready);
                }
                _ => {}
            }
            continue;
        }
        pool.park(home, &mut ready);
    }
}

// ---------------------------------------------------------------------------
// The runtime.
// ---------------------------------------------------------------------------

/// A fixed-size sharded worker pool hosting many [`PooledSession`]s
/// cooperatively.
///
/// See the [module documentation](self) for the execution model.  Shut
/// sessions down **before** the runtime: a task can only finish while
/// workers are running.
pub struct Runtime {
    shared: Arc<PoolShared>,
    config: RuntimeConfig,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl fmt::Debug for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("shards", &self.config.shards)
            .field("batch_size", &self.config.batch_size)
            .field("live_tasks", &self.live_tasks())
            .finish()
    }
}

impl Runtime {
    /// Starts the worker pool described by `config`.
    pub fn start(config: RuntimeConfig) -> Arc<Self> {
        let shared = Arc::new(PoolShared {
            shards: (0..config.shards)
                .map(|_| ShardQueue {
                    queue: Mutex::new(VecDeque::new()),
                    executed: AtomicU64::new(0),
                })
                .collect(),
            queued: AtomicUsize::new(0),
            sleepers: Mutex::new(0),
            wake: Condvar::new(),
            poller: OnceLock::new(),
            polling: AtomicBool::new(false),
            parks: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            live_tasks: AtomicUsize::new(0),
            next_shard: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            polls: AtomicU64::new(0),
            telemetry: OnceLock::new(),
            #[cfg(any(test, feature = "chaos"))]
            chaos: ChaosState::default(),
        });
        let workers = (0..config.shards)
            .map(|home| {
                let pool = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rapidware-shard-{home}"))
                    .spawn(move || worker_loop(&pool, home))
                    .expect("spawning a shard worker thread never fails")
            })
            .collect();
        Arc::new(Self {
            shared,
            config,
            workers: Mutex::new(workers),
        })
    }

    /// The configuration this runtime was started with.
    pub fn config(&self) -> RuntimeConfig {
        self.config
    }

    /// Tasks registered with this runtime that have not completed yet.
    /// Zero after every session and socket driver has shut down cleanly.
    pub fn live_tasks(&self) -> usize {
        self.shared.live_tasks.load(Ordering::SeqCst)
    }

    /// A snapshot of the pool: per-shard queue depths, live tasks, steals,
    /// total task polls and parks.
    ///
    /// The queue depths describe **one coherent instant**: every shard's
    /// queue lock is held at once while the depths are read, so a task
    /// migrating between queues (a steal, or a re-enqueue) is never counted
    /// twice or missed.  The sweep locks shards in index order and every
    /// other locker holds at most one queue lock at a time, so it cannot
    /// deadlock.
    pub fn status(&self) -> RuntimeStatus {
        let guards: Vec<_> = self
            .shared
            .shards
            .iter()
            .map(|shard| shard.queue.lock())
            .collect();
        let shards = guards
            .iter()
            .zip(self.shared.shards.iter())
            .map(|(queue, shard)| ShardStatus {
                queued: queue.len(),
                executed: shard.executed.load(Ordering::Relaxed),
            })
            .collect();
        drop(guards);
        RuntimeStatus {
            workers: self.config.shards,
            shards,
            live_tasks: self.live_tasks(),
            steals: self.shared.steals.load(Ordering::Relaxed),
            polls: self.shared.polls.load(Ordering::Relaxed),
            parks: self.shared.parks.load(Ordering::Relaxed),
        }
    }

    /// Installs the pool's profiling instruments into `registry`: task poll
    /// durations (`runtime.poll_ns`), run-queue wait (`runtime.queue_wait_ns`),
    /// and the time to queue what one poll of the socket set reported
    /// (`runtime.reactor.scan_ns`).  Until this is called the hot path pays
    /// nothing beyond one relaxed poll counter.
    ///
    /// Idempotent: the first registry wins; later calls are no-ops.
    pub fn enable_telemetry(&self, registry: &Arc<Registry>) {
        self.shared
            .telemetry
            .get_or_init(|| RuntimeTelemetry::new(registry));
    }

    /// Registers a work item as a task on the next shard (round robin) and
    /// gives it an initial kick.  `work` is built with the task's own weak
    /// handle in reach, for work that must hand its waker out before it can
    /// exist (a socket's epoll registration).
    fn register(
        self: &Arc<Self>,
        work: impl FnOnce(&Weak<Task>) -> Box<dyn TaskWork>,
    ) -> Arc<Task> {
        let shard = self.shared.next_shard.fetch_add(1, Ordering::Relaxed) % self.config.shards;
        let task = Arc::new_cyclic(|task| Task {
            state: AtomicU8::new(IDLE),
            shard,
            pool: Arc::downgrade(&self.shared),
            enqueued_ns: AtomicU64::new(0),
            work: work(task),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        self.shared.live_tasks.fetch_add(1, Ordering::SeqCst);
        task.schedule();
        task
    }

    /// Creates a fanout session hosted on this pool: one input, a shared
    /// head chain, and live-addable receiver lanes — all run to completion
    /// by one task.
    pub fn add_session(self: &Arc<Self>, name: impl Into<String>) -> PooledSession {
        self.add_session_with(
            name,
            FilterRegistry::with_builtins(),
            self.config.pipe_capacity,
            self.config.batch_size,
        )
    }

    /// Creates a pooled session with an explicit registry, pipe capacity,
    /// and batch size.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `batch_size` is zero.
    pub fn add_session_with(
        self: &Arc<Self>,
        name: impl Into<String>,
        registry: FilterRegistry,
        capacity: usize,
        batch_size: usize,
    ) -> PooledSession {
        assert!(batch_size > 0, "batch size must be non-zero");
        let (input, in_rx) = pipe::<Packet>(capacity);
        let work = Arc::new(SessionWork {
            inner: Mutex::default(),
            in_rx: in_rx.clone(),
            batch_size,
        });
        let task = self.register(|_| Box::new(Arc::clone(&work)));
        in_rx.set_data_watcher(TaskWaker::of(&task));
        PooledSession {
            name: name.into(),
            registry,
            _runtime: Arc::clone(self),
            work,
            task,
            input: input.into_uncounted(),
            capacity,
        }
    }

    /// Chaos hook: stalls the worker of `shard` for `duration` before every
    /// task step it executes, until [`chaos_clear`](Self::chaos_clear).
    ///
    /// Only compiled for tests or under the `chaos` feature.  Out-of-range
    /// shards simply never match, which disables the stall.
    #[cfg(any(test, feature = "chaos"))]
    pub fn chaos_stall_shard(&self, shard: usize, duration: Duration) {
        self.shared
            .chaos
            .stall_micros
            .store(duration.as_micros().min(u128::from(u64::MAX)) as u64, Ordering::SeqCst);
        self.shared.chaos.stall_shard.store(shard, Ordering::SeqCst);
    }

    /// Chaos hook: removes any stall installed with
    /// [`chaos_stall_shard`](Self::chaos_stall_shard).
    #[cfg(any(test, feature = "chaos"))]
    pub fn chaos_clear(&self) {
        self.shared.chaos.stall_shard.store(usize::MAX, Ordering::SeqCst);
        self.shared.chaos.stall_micros.store(0, Ordering::SeqCst);
    }

    /// Chaos hook: stall pauses workers have actually served so far — lets
    /// a test assert the fault it configured really fired.
    #[cfg(any(test, feature = "chaos"))]
    pub fn chaos_stalls_served(&self) -> u64 {
        self.shared.chaos.stalls_served.load(Ordering::SeqCst)
    }

    /// Registers a socket's work as a pool task woken by socket readiness:
    /// the readiness analogue of a session task's `PipeWatcher` wiring, so
    /// a socket costs a task, not a thread.
    ///
    /// The task is stepped whenever the socket is readable while
    /// `work.reading()` holds, writable after a [`SocketStep::Blocked`]
    /// pass, at the deadline of a [`SocketStep::IdleUntil`] pass, or when
    /// [`SocketDriver::kick`] / a watcher installed via
    /// [`SocketDriver::watch_source`] fires.  The socket and the task's
    /// timer are two registrations with one payload, the task.  The first
    /// driver makes the
    /// pool's readiness set; from then on an idle worker parks in its
    /// `epoll_wait` (one at a time; the others on the condvar) and steps
    /// what it reports itself — the pool runs **no** extra thread,
    /// whatever the socket count.  The set keys registrations on the file
    /// descriptor.  Linux-only: workers block in `epoll_wait`.
    ///
    /// # Panics
    ///
    /// Panics if the readiness set cannot be created or refuses the
    /// socket: the process is out of file descriptors or kernel memory, or
    /// this very fd is registered already.
    pub(crate) fn drive<W: SocketPass + 'static>(
        self: &Arc<Self>,
        socket: Arc<UdpSocket>,
        work: Arc<W>,
    ) -> SocketDriver {
        let poller = Arc::clone(self.shared.poller.get_or_init(|| {
            Arc::new(Poller::new().expect("creating the pool's epoll set and eventfd"))
        }));
        let mut slot = None;
        // The socket and the timer are in the epoll set before the task's
        // first step (the initial kick inside `register`), so that step's
        // re-arm finds them.
        let task = self.register(|task| {
            let token = poller
                .add(socket, Interest::READABLE, task.clone())
                .expect("registering a socket with the pool's epoll set");
            let timer = poller
                .add_timer(task.clone())
                .expect("registering a socket task's timer with the pool's epoll set");
            let registered = Arc::new(SocketSlot {
                poller,
                token,
                timer,
                stop: AtomicBool::new(false),
            });
            slot = Some(Arc::clone(&registered));
            Box::new(SocketTaskWork {
                work,
                slot: registered,
            })
        });
        SocketDriver {
            task,
            slot: slot.expect("register builds the work exactly once"),
        }
    }

    /// Sockets currently registered with the pool's readiness set — one
    /// per live carrier.  Exact: a carrier's registration is gone the
    /// moment [`Proxy::shutdown`](crate::Proxy::shutdown) returns.
    pub fn reactor_sockets(&self) -> usize {
        self.shared.poller.get().map_or(0, |poller| poller.len())
    }

    /// Stops the worker pool: workers finish their current step and exit.
    ///
    /// Sessions must be shut down first — a task that still has
    /// in-flight work when the pool stops can never complete, which
    /// [`live_tasks`](Self::live_tasks) will report as a leak.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::WorkerFailed`] if a worker thread panicked.
    pub fn shutdown(&self) -> Result<(), ProxyError> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _sleepers = self.shared.sleepers.lock();
            self.shared.wake.notify_all();
        }
        // The worker parked in `epoll_wait`, if any, leaves through the
        // eventfd.
        self.shared.wake_poller();
        let mut failure = None;
        for (index, handle) in self.workers.lock().drain(..).enumerate() {
            if handle.join().is_err() && failure.is_none() {
                failure = Some(ProxyError::WorkerFailed(format!("shard worker {index}")));
            }
        }
        match failure {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Socket tasks.
// ---------------------------------------------------------------------------

/// How a socket pass left its socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SocketStep {
    /// Work moved and more may be pending: step again immediately.
    Progress,
    /// Nothing to do until the socket or a watched pipe becomes ready.
    Idle,
    /// The OS refused a send (`WouldBlock`): step again when the socket
    /// reports writable.
    Blocked,
    /// Like `Idle`, but the socket stays disarmed and the task's timer
    /// steps it again at the deadline: under load one wake-up then serves
    /// what arrived in between as one batch (see `CarrierWork::pass`).
    IdleUntil(Instant),
}

/// What a socket task steps (a carrier, or a test's scripted fake).
pub(crate) trait SocketPass: Send + Sync {
    /// Runs one bounded pass; must never block.  The pass may call
    /// `settle` once every wake raised so far is answered by what it still
    /// has to do; the task then forgets them instead of stepping again for
    /// nothing.
    fn pass(&self, settle: &dyn Fn()) -> SocketStep;

    /// Whether the idle task still wants its socket's readability.
    fn reading(&self) -> bool;
}

/// A socket's registration in the pool's readiness set, and its task's
/// timer, shared by the task and its driver.  `stop` is the driver's abort
/// flag: the task runs one final pass (a best-effort flush) and finishes.
struct SocketSlot {
    poller: Arc<Poller<Weak<Task>>>,
    token: Token,
    timer: Token,
    stop: AtomicBool,
}

impl SocketSlot {
    /// Re-arms the socket's one-shot registration.  Runs inside the step,
    /// *after* the pass saw the socket run dry (or full): the kernel
    /// re-polls the socket on re-arm, so readiness that appeared in between
    /// fires at once and lands on the notify-while-running state machine —
    /// no wake can be lost, and none arrives while a drain is still making
    /// progress.
    fn arm(&self, interest: Interest) {
        Self::armed(self.poller.arm(self.token, interest));
    }

    /// Sets the task's timer for `deadline`, leaving the socket disarmed.
    fn arm_timer(&self, deadline: Instant) {
        let after = deadline.saturating_duration_since(Instant::now());
        Self::armed(self.poller.arm_timer(self.timer, after));
    }

    fn armed(result: io::Result<()>) {
        match result {
            Ok(()) => {}
            // The driver was deregistered while this step ran (its pool is
            // stopping): no further wake is owed.
            Err(err) if err.kind() == io::ErrorKind::NotFound => {}
            Err(err) => panic!("arming a socket task in the pool's epoll set failed: {err}"),
        }
    }

    /// Takes the socket and the timer out of the readiness set.
    fn deregister(&self) -> io::Result<()> {
        let socket = self.poller.remove(self.token);
        self.poller.remove(self.timer)?;
        socket.map(drop)
    }
}

/// Adapts a [`SocketPass`] to the pool's task state machine and owns the
/// re-arm half of the one-shot readiness protocol.
struct SocketTaskWork<W> {
    work: Arc<W>,
    slot: Arc<SocketSlot>,
}

impl<W: SocketPass> TaskWork for SocketTaskWork<W> {
    fn step(&self, task: &Task) -> StepOutcome {
        if self.slot.stop.load(Ordering::SeqCst) {
            let _ = self.work.pass(&|| {});
            return StepOutcome::Done;
        }
        let step = self.work.pass(&|| task.settle());
        if self.slot.stop.load(Ordering::SeqCst) {
            // The pass may have settled the stop's own wake away: the next
            // step is the final one.
            return StepOutcome::Progress;
        }
        let readable = self.work.reading();
        match step {
            SocketStep::Progress => StepOutcome::Progress,
            SocketStep::Idle => {
                // A task past its final drain idles on its pipe watchers
                // alone.
                if readable {
                    self.slot.arm(Interest::READABLE);
                }
                StepOutcome::Idle
            }
            SocketStep::Blocked => {
                self.slot.arm(Interest {
                    readable,
                    writable: true,
                });
                StepOutcome::Idle
            }
            SocketStep::IdleUntil(deadline) => {
                self.slot.arm_timer(deadline);
                StepOutcome::Idle
            }
        }
    }
}

/// Handle to a task registered with [`Runtime::drive`]: the socket
/// analogue of a [`PooledSession`]'s control surface.
pub(crate) struct SocketDriver {
    task: Arc<Task>,
    slot: Arc<SocketSlot>,
}

impl SocketDriver {
    /// Schedules the task now (e.g. after attaching a new egress lane).
    pub(crate) fn kick(&self) {
        self.task.schedule();
    }

    /// Wakes the task whenever `source` has data, hits EOF, or closes —
    /// the same `TaskWaker` wiring session tasks get on their inboxes.  The
    /// carrier calls this on every lane output it flushes.
    pub(crate) fn watch_source(&self, source: &DetachableReceiver<Packet>) {
        source.set_data_watcher(TaskWaker::of(&self.task));
    }

    /// Stops the driver: the task runs one final pass (best-effort flush)
    /// and finishes — a pending timer does not delay it — and the socket
    /// and the timer are deregistered from the pool's readiness set (the
    /// timer closed) before this returns.  Call while the runtime's
    /// workers are still running.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::WorkerFailed`] if the task cannot complete
    /// because the pool stopped first, or [`ProxyError::Transport`] if the
    /// socket could not be deregistered.
    pub(crate) fn shutdown(&self) -> Result<(), ProxyError> {
        self.slot.stop.store(true, Ordering::SeqCst);
        self.task.schedule();
        let finished = self.task.wait_finished();
        let deregistered = self.slot.deregister();
        if !finished {
            return Err(ProxyError::WorkerFailed(
                "socket driver task never finished".to_string(),
            ));
        }
        deregistered.map_err(|err| ProxyError::Transport(format!("deregistering a socket: {err}")))
    }
}

impl Drop for SocketDriver {
    fn drop(&mut self) {
        // A driver dropped without `shutdown` must not pin its socket (or
        // its timer) in the readiness set; after `shutdown` this finds
        // nothing to remove.
        let _ = self.slot.deregister();
    }
}

// ---------------------------------------------------------------------------
// Stages.
// ---------------------------------------------------------------------------

/// A filter chain plus the output its downstream pipe has not taken yet:
/// what a session task runs for its head and for every lane.  Only touched
/// under its task's lock, so a splice lands exactly between two batches.
#[derive(Default)]
struct Stage {
    chain: FilterChain,
    /// Output not forwarded yet: the back-pressure buffer (for a session
    /// head, output not fanned out yet).
    pending: Vec<Packet>,
    splices: u64,
    errors: u64,
    /// Each counting filter on the chain (FEC decoder or crypto stage),
    /// with its counts when it joined.
    counted: Vec<(FilterCounters, Counts)>,
    /// Counts made here by filters since removed.
    departed: Counts,
}

/// What counting filters did: FEC recoveries and secure-channel work.
#[derive(Clone, Copy, Default)]
struct Counts {
    recovered: u64,
    secure: SecureChannelSnapshot,
}

impl Counts {
    /// The counts behind `counters` now.
    fn of(counters: &FilterCounters) -> Self {
        match counters {
            FilterCounters::Secure(stats) => Counts { secure: stats.snapshot(), ..Counts::default() },
            FilterCounters::FecDecoder(stats) => {
                Counts { recovered: stats.recovered(), ..Counts::default() }
            }
        }
    }

    /// Adds what a filter counted between `joined` and `now`.
    fn add_since(&mut self, now: Counts, joined: Counts) {
        self.recovered += now.recovered - joined.recovered;
        self.secure.sealed += now.secure.sealed - joined.secure.sealed;
        self.secure.opened += now.secure.opened - joined.secure.opened;
        self.secure.rejected += now.secure.rejected - joined.secure.rejected;
        self.secure.rekeys += now.secure.rekeys - joined.secure.rekeys;
    }
}

/// Whether two handles share one filter's counters.
fn same_counters(a: &FilterCounters, b: &FilterCounters) -> bool {
    match (a, b) {
        (FilterCounters::Secure(a), FilterCounters::Secure(b)) => Arc::ptr_eq(a, b),
        (FilterCounters::FecDecoder(a), FilterCounters::FecDecoder(b)) => Arc::ptr_eq(a, b),
        _ => false,
    }
}

impl Stage {
    /// Runs `batch` through the chain, appending the output to `pending`.
    fn process(&mut self, batch: Vec<Packet>) {
        if self.chain.process_batch_into(batch, &mut self.pending).is_err() {
            self.errors += 1;
        }
    }

    /// End of stream: appends what the filters still buffer to `pending`.
    fn flush(&mut self) {
        match self.chain.flush() {
            Ok(residue) => self.pending.extend(residue),
            Err(_) => self.errors += 1,
        }
    }

    /// Forwards as much of `pending` as `out` accepts.  Returns `true` when
    /// nothing is left to forward (a closed pipe counts: the packets are
    /// dropped — the consumer has departed).
    fn forward(&mut self, out: &DetachableSender<Packet>) -> bool {
        if self.pending.is_empty() {
            return true;
        }
        match out.try_send_batch(std::mem::take(&mut self.pending)) {
            Ok(leftover) => {
                self.pending = leftover;
                self.pending.is_empty()
            }
            Err(error) => {
                // Discard the backlog, keeping its allocation for the next
                // batch.
                let mut items = error.into_inner();
                items.clear();
                self.pending = items;
                true
            }
        }
    }

    /// Splices `filter` in at `position`; a counting filter's counts
    /// count here from now on.
    fn insert(&mut self, position: usize, filter: Box<dyn Filter>) -> Result<(), ProxyError> {
        let counters = filter.counters();
        self.chain.insert(position, filter).map_err(map_chain_error)?;
        self.splices += 1;
        if let Some(counters) = counters {
            let joined = Counts::of(&counters);
            self.counted.push((counters, joined));
        }
        Ok(())
    }

    /// Removes the filter at `position`; what it had buffered, run through
    /// the filters after it, joins `pending` ahead of all later traffic.
    /// What a counting filter counted here stays counted here.
    fn remove(&mut self, position: usize) -> Result<Box<dyn Filter>, ProxyError> {
        let (filter, residue) = self.chain.remove(position).map_err(map_chain_error)?;
        self.pending.extend(residue);
        self.splices += 1;
        if let Some(counters) = filter.counters() {
            if let Some(index) = self.counted.iter().position(|(c, _)| same_counters(c, &counters)) {
                let (_, joined) = self.counted.swap_remove(index);
                self.departed.add_since(Counts::of(&counters), joined);
            }
        }
        Ok(filter)
    }

    /// What counting filters did while on this chain, removed ones
    /// included.
    fn counts(&self) -> Counts {
        let mut total = self.departed;
        for (counters, joined) in &self.counted {
            total.add_since(Counts::of(counters), *joined);
        }
        total
    }

    fn move_filter(&mut self, from: usize, to: usize) -> Result<(), ProxyError> {
        self.chain.move_filter(from, to).map_err(map_chain_error)?;
        self.splices += 1;
        Ok(())
    }

    fn stats(&self, packets_in: u64, packets_out: u64) -> ChainStats {
        ChainStats {
            filters: self.chain.len(),
            packets_in,
            packets_out,
            splices: self.splices,
            filter_errors: self.errors,
        }
    }
}

// ---------------------------------------------------------------------------
// Run-to-completion carrier routes.
// ---------------------------------------------------------------------------

/// A session as its carrier route's inlet.  It takes a run only while
/// the task is idle (`try_lock`: the drain never waits behind a step or a
/// splice) and caught up — inbox empty and open, nothing pending, not
/// draining — so it overtakes nothing; it counts the run into the input
/// statistics and runs a step's body on it, or hands the run back.
struct TaskInlet {
    task: Weak<Task>,
    work: Arc<SessionWork>,
}

impl RouteInlet for TaskInlet {
    fn offer(&self, run: Vec<Packet>) -> Option<Vec<Packet>> {
        let Some(mut inner) = self.work.inner.try_lock() else {
            return Some(run);
        };
        if inner.draining || !inner.forward() || !self.work.in_rx.is_idle() {
            return Some(run);
        }
        inner.handed_in += run.len() as u64;
        let pending = !inner.advance(run);
        drop(inner);
        // The task forwards what its pipes did not take.
        if pending {
            if let Some(task) = self.task.upgrade() {
                task.schedule();
            }
        }
        None
    }
}

/// Egress spans for one session lane (`session.<session>.lane.<lane>`).
fn lane_spans(registry: &Arc<Registry>, session: &str, lane: &str) -> Arc<ChainSpans> {
    ChainSpans::egress(registry, format!("session.{session}.lane.{lane}"))
}

fn map_chain_error(err: rapidware_filters::FilterError) -> ProxyError {
    match err {
        rapidware_filters::FilterError::IndexOutOfRange { index, len } => {
            ProxyError::PositionOutOfRange {
                position: index,
                len,
            }
        }
        other => ProxyError::Filter(other),
    }
}

// ---------------------------------------------------------------------------
// Pooled sessions.
// ---------------------------------------------------------------------------

/// One receiver lane of a [`PooledSession`]: a tail chain whose output goes
/// straight into the lane's delivery pipe.
struct Lane {
    name: String,
    stage: Stage,
    out_tx: DetachableSender<Packet>,
    output: DetachableReceiver<Packet>,
    /// Packets fanned out to this lane's chain.
    packets_in: u64,
}

impl Lane {
    fn feed(&mut self, batch: Vec<Packet>) {
        self.packets_in += batch.len() as u64;
        self.stage.process(batch);
    }

    fn stats(&self) -> ChainStats {
        self.stage.stats(self.packets_in, self.output.stats().items())
    }
}

#[derive(Default)]
struct SessionInner {
    head: Stage,
    /// Packets the head chain has handed to the lanes.
    head_out: u64,
    live: Vec<Lane>,
    /// Lanes removed while the session ran: each still delivers what it
    /// was owed, then its pipe closes; their stats stay readable.
    retired: Vec<Lane>,
    /// Set once the inbox reported EOF/close and every chain was flushed:
    /// only the lanes' `pending` output remains to be forwarded.
    draining: bool,
    /// Set by shutdown: no lane joins any more.
    closed: bool,
    /// Packets a carrier route ran in place, past the inbox.
    handed_in: u64,
    /// Registry latency spans are created in, once telemetry is enabled;
    /// lanes added afterwards attach their own spans from here.
    telemetry: Option<Arc<Registry>>,
}

impl SessionInner {
    /// Whether the head's output waits for a lane: with none live it is
    /// held for the first to join, until the stream ends or the session
    /// shuts down.
    fn awaiting_lane(&self) -> bool {
        self.live.is_empty() && !self.draining && !self.closed
    }

    /// Hands the head's output to every live lane — `Arc` clones (a
    /// refcount bump per payload) to all but the last, which takes the
    /// `Vec` itself — and runs each lane's chain on it.
    fn fan_out(&mut self) {
        if self.awaiting_lane() {
            return;
        }
        let batch = std::mem::take(&mut self.head.pending);
        if batch.is_empty() {
            return;
        }
        self.head_out += batch.len() as u64;
        if let Some((last, rest)) = self.live.split_last_mut() {
            for lane in rest {
                lane.feed(batch.clone());
            }
            last.feed(batch);
        }
    }

    /// A step's body, shared with the carrier inlet: runs one input batch
    /// and forwards the output; `false` while some of it is left pending.
    fn advance(&mut self, batch: Vec<Packet>) -> bool {
        self.head.process(batch);
        self.fan_out();
        self.forward()
    }

    /// Forwards every lane's pending output; a retired lane's pipe closes
    /// once it has drained.  Returns `false` while a lane that gates the
    /// task is still owed output — any live lane (a slow receiver holds
    /// the next batch back instead of growing a backlog) and, once the
    /// stream has ended, any lane at all — or while head output waits for
    /// a lane to join.
    fn forward(&mut self) -> bool {
        let mut clear = self.head.pending.is_empty() || !self.awaiting_lane();
        for lane in &mut self.live {
            clear &= lane.stage.forward(&lane.out_tx);
        }
        for lane in self.retired.iter_mut().filter(|lane| !lane.stage.pending.is_empty()) {
            if lane.stage.forward(&lane.out_tx) {
                lane.out_tx.close();
            } else {
                clear &= !self.draining;
            }
        }
        clear
    }
}

struct SessionWork {
    inner: Mutex<SessionInner>,
    in_rx: DetachableReceiver<Packet>,
    batch_size: usize,
}

impl TaskWork for Arc<SessionWork> {
    fn step(&self, _task: &Task) -> StepOutcome {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        if !inner.forward() {
            return StepOutcome::Idle;
        }
        if !inner.draining {
            let clear = match self.in_rx.try_recv_up_to(self.batch_size) {
                Ok(batch) => inner.advance(batch),
                Err(TryRecvError::Empty) => return StepOutcome::Idle,
                // End of stream: the head's residue goes through the lanes,
                // then every lane chain flushes its own.
                Err(TryRecvError::Eof) | Err(TryRecvError::Closed) => {
                    inner.head.flush();
                    inner.fan_out();
                    for lane in &mut inner.live {
                        lane.stage.flush();
                    }
                    inner.draining = true;
                    inner.forward()
                }
            };
            if !clear {
                return StepOutcome::Idle;
            }
        }
        if inner.draining {
            for lane in &inner.live {
                lane.out_tx.close();
            }
            return StepOutcome::Done;
        }
        StepOutcome::Progress
    }
}

/// A fanout session hosted on a [`Runtime`] worker pool.
///
/// The whole session is **one** task that runs each input batch to
/// completion: the head chain does the shared work once per packet, the
/// batch is cloned to every lane (zero-copy: payloads are `Arc`-backed),
/// and each lane's own chain writes straight into the lane's delivery pipe
/// — so a session costs one task and **zero** dedicated threads however
/// many lanes it has, and hundreds of sessions share the pool's fixed
/// workers.  Lanes can be added and removed while the session runs
/// ([`add_lane`](Self::add_lane), [`remove_lane`](Self::remove_lane)),
/// which the soak suite exercises as continuous churn.
pub struct PooledSession {
    name: String,
    registry: FilterRegistry,
    /// Keeps the hosting pool alive: the task runs only while it does.
    _runtime: Arc<Runtime>,
    work: Arc<SessionWork>,
    task: Arc<Task>,
    /// Uncounted: the handles [`input`](Self::input) gives out decide
    /// when the stream ends, this one only closes it and reads its counts.
    input: DetachableSender<Packet>,
    /// Capacity of every lane's delivery pipe.
    capacity: usize,
}

impl fmt::Debug for PooledSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PooledSession")
            .field("name", &self.name)
            .field("lanes", &self.lane_names())
            .finish()
    }
}

impl PooledSession {
    /// Session name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A handle on the endpoint the upstream source writes into (feeds the
    /// head chain).  The stream ends once every handle given out is
    /// dropped, or on [`close_input`](Self::close_input): the session's
    /// own handle does not hold it open.
    pub fn input(&self) -> DetachableSender<Packet> {
        self.input.clone()
    }

    /// Names of the live lanes, in creation order.
    pub fn lane_names(&self) -> Vec<String> {
        self.work.inner.lock().live.iter().map(|l| l.name.clone()).collect()
    }

    /// Enables latency spans on this session: the shared head chain records
    /// under `session.<name>.head` (interior — packets exit downstream),
    /// and every lane, current and future, records under
    /// `session.<name>.lane.<lane>` with per-packet end-to-end latency at
    /// lane exit.
    pub fn enable_telemetry(&self, registry: &Arc<Registry>) {
        let mut inner = self.work.inner.lock();
        let inner = &mut *inner;
        inner
            .head
            .chain
            .set_spans(ChainSpans::interior(registry, format!("session.{}.head", self.name)));
        for lane in inner.live.iter_mut().chain(inner.retired.iter_mut()) {
            lane.stage.chain.set_spans(lane_spans(registry, &self.name, &lane.name));
        }
        inner.telemetry = Some(Arc::clone(registry));
    }

    /// Attaches `spans` to live `lane`'s chain alone: how a flat stream
    /// records under its own `stream.<name>` scope instead of the session
    /// scopes.
    pub(crate) fn set_lane_spans(&self, lane: &str, spans: Arc<ChainSpans>) {
        if let Ok(lane) = find_lane_mut(&mut self.work.inner.lock().live, lane) {
            lane.stage.chain.set_spans(spans);
        }
    }

    /// Number of live receiver lanes.
    pub fn lane_count(&self) -> usize {
        self.work.inner.lock().live.len()
    }

    /// Adds a receiver lane and returns its delivery endpoint.  A lane
    /// added mid-stream sees the stream from its join point onward.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::Splice`] if a lane with this name already
    /// exists or [`ProxyError::ChainClosed`] after shutdown.
    pub fn add_lane(&self, name: impl Into<String>) -> Result<DetachableReceiver<Packet>, ProxyError> {
        let name = name.into();
        let mut inner = self.work.inner.lock();
        if inner.closed {
            return Err(ProxyError::ChainClosed);
        }
        if inner.live.iter().any(|l| l.name == name) {
            return Err(ProxyError::Splice(format!("lane {name} already exists")));
        }
        let mut stage = Stage::default();
        if let Some(registry) = &inner.telemetry {
            stage.chain.set_spans(lane_spans(registry, &self.name, &name));
        }
        let (out_tx, output) = pipe::<Packet>(self.capacity);
        if inner.draining {
            // The stream already ended: the lane joins after the last
            // packet — an immediate clean end of stream instead of a
            // consumer hanging forever.
            out_tx.close();
        }
        // The task wakes whenever this lane's pipe frees space; its next
        // batch includes the lane.
        output.set_space_watcher(TaskWaker::of(&self.task));
        inner.live.push(Lane {
            name,
            stage,
            out_tx,
            output: output.clone(),
            packets_in: 0,
        });
        if !inner.head.pending.is_empty() {
            // Output held for want of a lane goes to the first to join.
            inner.fan_out();
            drop(inner);
            self.task.schedule();
        }
        Ok(output)
    }

    /// Removes a lane from the running session: the lane stops receiving
    /// new fanout traffic, its chain flushes, and its delivery endpoint
    /// observes a clean end of stream once the backlog drains.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::UnknownLane`] for unknown lanes.
    pub fn remove_lane(&self, name: &str) -> Result<(), ProxyError> {
        let mut inner = self.work.inner.lock();
        let index = inner
            .live
            .iter()
            .position(|l| l.name == name)
            .ok_or_else(|| ProxyError::UnknownLane(name.to_string()))?;
        let mut lane = inner.live.remove(index);
        lane.stage.flush();
        // What the lane is owed goes out now if its pipe has room, else
        // from the task once the consumer frees space; then the pipe closes.
        if lane.stage.forward(&lane.out_tx) {
            lane.out_tx.close();
        }
        inner.retired.push(lane);
        drop(inner);
        // The task may be parked on the removed lane's full pipe, which no
        // longer gates it: kick it so the surviving lanes keep flowing.
        self.task.schedule();
        Ok(())
    }

    /// A (new) handle on a lane's delivery endpoint.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::UnknownLane`] for unknown lanes.
    pub fn lane_output(&self, lane: &str) -> Result<DetachableReceiver<Packet>, ProxyError> {
        Ok(find_lane(&self.work.inner.lock().live, lane)?.output.clone())
    }

    /// The session's state, locked, while it still accepts splices.
    fn splicable(&self) -> Result<MutexGuard<'_, SessionInner>, ProxyError> {
        let inner = self.work.inner.lock();
        if inner.draining {
            return Err(ProxyError::ChainClosed);
        }
        Ok(inner)
    }

    /// Instantiates a filter from `spec` and splices it into the shared
    /// head chain at `position`.
    ///
    /// # Errors
    ///
    /// Returns registry, spec-validation, or splice errors.
    pub fn insert_head_filter(&self, position: usize, spec: &FilterSpec) -> Result<(), ProxyError> {
        let filter = self.registry.instantiate(spec)?;
        self.splicable()?.head.insert(position, filter)
    }

    /// Removes and returns the head-chain filter at `position`.  Anything
    /// the filter had buffered goes out on every lane ahead of later
    /// traffic.
    ///
    /// # Errors
    ///
    /// Returns position or splice errors.
    pub fn remove_head_filter(&self, position: usize) -> Result<Box<dyn Filter>, ProxyError> {
        let mut inner = self.splicable()?;
        let filter = inner.head.remove(position)?;
        inner.fan_out();
        drop(inner);
        self.task.schedule();
        Ok(filter)
    }

    /// Names of the filters installed on the head chain.
    pub fn head_filter_names(&self) -> Vec<String> {
        self.work.inner.lock().head.chain.names()
    }

    /// Instantiates a filter from `spec` and splices it into `lane`'s tail
    /// chain at `position` — the per-receiver adaptation path.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::UnknownLane`], registry, spec-validation, or
    /// splice errors.
    pub fn insert_lane_filter(
        &self,
        lane: &str,
        position: usize,
        spec: &FilterSpec,
    ) -> Result<(), ProxyError> {
        let filter = self.registry.instantiate(spec)?;
        self.insert_lane_filter_boxed(lane, position, filter)
    }

    /// Splices an already-constructed filter into `lane`'s tail chain at
    /// `position`.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::UnknownLane`], position, or splice errors.
    pub fn insert_lane_filter_boxed(
        &self,
        lane: &str,
        position: usize,
        filter: Box<dyn Filter>,
    ) -> Result<(), ProxyError> {
        find_lane_mut(&mut self.splicable()?.live, lane)?.stage.insert(position, filter)
    }

    /// Removes and returns the filter at `position` on `lane`'s tail chain.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::UnknownLane`], position, or splice errors.
    pub fn remove_lane_filter(
        &self,
        lane: &str,
        position: usize,
    ) -> Result<Box<dyn Filter>, ProxyError> {
        let filter = find_lane_mut(&mut self.splicable()?.live, lane)?
            .stage
            .remove(position)?;
        self.task.schedule();
        Ok(filter)
    }

    /// Moves the filter at `from` to position `to` on `lane`'s tail chain
    /// as one splice: the session is locked once, so no batch crosses the
    /// lane with the filter absent, and the filter is not flushed (an FEC
    /// encoder keeps its half-collected block).
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::UnknownLane`], position, or splice errors.
    pub fn move_lane_filter(&self, lane: &str, from: usize, to: usize) -> Result<(), ProxyError> {
        find_lane_mut(&mut self.splicable()?.live, lane)?.stage.move_filter(from, to)
    }

    /// Names of the filters installed on `lane`'s tail chain.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::UnknownLane`] for unknown lanes.
    pub fn lane_filter_names(&self, lane: &str) -> Result<Vec<String>, ProxyError> {
        Ok(find_lane(&self.work.inner.lock().live, lane)?.stage.chain.names())
    }

    /// Chain statistics of a lane — **including** lanes already removed
    /// with [`remove_lane`](Self::remove_lane), which keep delivering (and
    /// counting) their backlog.  This is what lets the soak suite assert
    /// per-lane conservation across churn.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::UnknownLane`] if no live or retired lane has
    /// this name.
    pub fn lane_stats(&self, lane: &str) -> Result<ChainStats, ProxyError> {
        let inner = self.work.inner.lock();
        inner
            .live
            .iter()
            .chain(inner.retired.iter())
            .find(|l| l.name == lane)
            .map(Lane::stats)
            .ok_or_else(|| ProxyError::UnknownLane(lane.to_string()))
    }

    /// A full status snapshot: head-chain state plus per-lane delivery,
    /// recovery, and queue-depth counters.
    pub fn status(&self) -> SessionStatus {
        let inner = self.work.inner.lock();
        let mut secure = inner.head.counts().secure;
        for lane in inner.live.iter().chain(inner.retired.iter()) {
            secure.merge(lane.stage.counts().secure);
        }
        SessionStatus {
            name: self.name.clone(),
            head_filters: inner.head.chain.names(),
            head_stats: inner
                .head
                .stats(self.input.stats().items() + inner.handed_in, inner.head_out),
            lanes: inner
                .live
                .iter()
                .map(|lane| {
                    let stats = lane.stats();
                    LaneStatus {
                        name: lane.name.clone(),
                        filters: lane.stage.chain.names(),
                        delivered: stats.packets_out,
                        recovered: lane.stage.counts().recovered,
                        queue_depth: lane.output.available(),
                        stats,
                    }
                })
                .collect(),
            secure,
        }
    }

    /// Closes the session input: once in-flight packets drain through the
    /// head chain and every lane, each lane endpoint observes end of
    /// stream.
    pub fn close_input(&self) {
        self.input.close();
    }

    /// The session as a carrier route's [`RouteInlet`].
    pub(crate) fn inlet(&self) -> Arc<dyn RouteInlet> {
        Arc::new(TaskInlet { task: Arc::downgrade(&self.task), work: Arc::clone(&self.work) })
    }

    /// Shuts the session down: its task completes (undrained lane backlogs
    /// are discarded), leaving zero tasks behind.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::WorkerFailed`] if the task did not finish
    /// (only possible if the runtime's workers were stopped first).
    pub fn shutdown(&self) -> Result<(), ProxyError> {
        {
            let mut inner = self.work.inner.lock();
            if inner.closed {
                return Ok(());
            }
            inner.closed = true;
            // Close every lane delivery endpoint first: the task then
            // discards what an abandoned (full, never drained) endpoint is
            // owed instead of waiting on it forever.
            for lane in inner.live.iter().chain(inner.retired.iter()) {
                lane.output.close();
            }
        }
        self.input.close();
        self.task.schedule();
        if self.task.wait_finished() {
            Ok(())
        } else {
            Err(ProxyError::WorkerFailed(format!("pooled session {}", self.name)))
        }
    }
}

impl Drop for PooledSession {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

fn find_lane<'a>(lanes: &'a [Lane], name: &str) -> Result<&'a Lane, ProxyError> {
    lanes
        .iter()
        .find(|l| l.name == name)
        .ok_or_else(|| ProxyError::UnknownLane(name.to_string()))
}

fn find_lane_mut<'a>(lanes: &'a mut [Lane], name: &str) -> Result<&'a mut Lane, ProxyError> {
    lanes
        .iter_mut()
        .find(|l| l.name == name)
        .ok_or_else(|| ProxyError::UnknownLane(name.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidware_filters::{
        DropEveryNth, FecDecoderFilter, FecEncoderFilter, FilterError, NullFilter,
    };
    use rapidware_packet::{PacketKind, SeqNo, StreamId};

    fn packet(seq: u64) -> Packet {
        Packet::new(
            StreamId::new(1),
            SeqNo::new(seq),
            PacketKind::AudioData,
            vec![(seq % 251) as u8; 64],
        )
    }

    /// A flat stream: an empty head and one lane named after the session.
    fn one_lane(
        runtime: &Arc<Runtime>,
        name: &str,
        capacity: usize,
        batch_size: usize,
    ) -> (PooledSession, DetachableReceiver<Packet>) {
        let session =
            runtime.add_session_with(name, FilterRegistry::with_builtins(), capacity, batch_size);
        let output = session.add_lane(name).unwrap();
        (session, output)
    }

    fn collect_all(rx: &DetachableReceiver<Packet>) -> Vec<Packet> {
        let mut out = Vec::new();
        while let Ok(p) = rx.recv() {
            out.push(p);
        }
        out
    }

    #[test]
    fn pooled_null_chain_forwards_everything_in_order() {
        let runtime = Runtime::start(RuntimeConfig::new(2, 8));
        let (chain, output) = one_lane(&runtime, "s", 128, 8);
        let input = chain.input();
        let producer = std::thread::spawn(move || {
            for seq in 0..5_000u64 {
                input.send(packet(seq)).unwrap();
            }
        });
        let mut received = Vec::new();
        while received.len() < 5_000 {
            received.push(output.recv().unwrap());
        }
        producer.join().unwrap();
        for (i, p) in received.iter().enumerate() {
            assert_eq!(p.seq().value(), i as u64);
        }
        chain.shutdown().unwrap();
        assert_eq!(runtime.live_tasks(), 0);
        runtime.shutdown().unwrap();
    }

    #[test]
    fn pooled_fec_chain_recovers_like_threaded() {
        let runtime = Runtime::start(RuntimeConfig::new(4, 16));
        let (chain, output) = one_lane(&runtime, "fec", 128, 16);
        let push = |at, filter: Box<dyn Filter>| chain.insert_lane_filter_boxed("fec", at, filter);
        push(0, Box::new(FecEncoderFilter::fec_6_4().unwrap())).unwrap();
        push(1, Box::new(DropEveryNth::new(5))).unwrap();
        push(2, Box::new(FecDecoderFilter::fec_6_4().unwrap())).unwrap();
        let input = chain.input();
        let consumer = std::thread::spawn(move || collect_all(&output));
        for seq in 0..400u64 {
            input.send(packet(seq)).unwrap();
        }
        chain.close_input();
        let received = consumer.join().unwrap();
        let mut seqs: Vec<u64> = received.iter().map(|p| p.seq().value()).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert!(seqs.len() >= 395, "near-complete recovery, got {} of 400", seqs.len());
        chain.shutdown().unwrap();
        runtime.shutdown().unwrap();
    }

    #[test]
    fn filter_errors_are_counted_not_fatal() {
        struct Failing;
        impl Filter for Failing {
            fn name(&self) -> &str {
                "failing"
            }
            fn process(&mut self, packet: Packet, out: &mut Vec<Packet>) -> Result<(), FilterError> {
                if packet.seq().value().is_multiple_of(2) {
                    Err(FilterError::Internal("simulated failure".into()))
                } else {
                    out.push(packet);
                    Ok(())
                }
            }
        }
        let runtime = Runtime::start(RuntimeConfig::new(1, 1));
        let (chain, output) = one_lane(&runtime, "f", 128, 1);
        chain.insert_lane_filter_boxed("f", 0, Box::new(Failing)).unwrap();
        let input = chain.input();
        for seq in 0..10 {
            input.send(packet(seq)).unwrap();
        }
        chain.close_input();
        let received: Vec<u64> = collect_all(&output).iter().map(|p| p.seq().value()).collect();
        assert_eq!(received, vec![1, 3, 5, 7, 9]);
        assert_eq!(chain.lane_stats("f").unwrap().filter_errors, 5);
        chain.shutdown().unwrap();
        runtime.shutdown().unwrap();
    }

    #[test]
    fn remove_with_unconsumed_output_does_not_block() {
        // A filter whose flush produces residue (the FEC encoder with a
        // partial block) is removed while nothing reads the lane.  The
        // removal must not wait for the reader; the residue stays queued
        // ahead of later traffic and is read afterwards.
        let runtime = Runtime::start(RuntimeConfig::new(1, 8));
        let (chain, output) = one_lane(&runtime, "r", 128, 8);
        let encoder = FecEncoderFilter::fec_6_4().unwrap();
        chain.insert_lane_filter_boxed("r", 0, Box::new(encoder)).unwrap();
        let input = chain.input();
        input.send(packet(0)).unwrap();
        assert_eq!(output.recv().unwrap().seq().value(), 0);

        let removed = chain.remove_lane_filter("r", 0).unwrap();
        assert_eq!(removed.name(), "fec-encoder(6,4)");
        input.send(packet(1)).unwrap();
        chain.close_input();
        let rest = collect_all(&output);
        let parity = rest.iter().filter(|p| p.kind().is_parity()).count();
        let payload: Vec<u64> =
            rest.iter().filter(|p| p.kind().is_payload()).map(|p| p.seq().value()).collect();
        assert_eq!(parity, 2);
        assert_eq!(payload, vec![1]);
        let first = |parity: bool| rest.iter().position(|p| p.kind().is_parity() == parity);
        assert!(first(true) < first(false), "the residue comes first");
        chain.shutdown().unwrap();
        runtime.shutdown().unwrap();
    }

    #[test]
    fn live_insert_and_remove_lose_nothing() {
        let runtime = Runtime::start(RuntimeConfig::new(2, 4));
        let (chain, output) = one_lane(&runtime, "live", 128, 4);
        let input = chain.input();
        let producer = {
            let input = input.clone();
            std::thread::spawn(move || {
                for seq in 0..2_000u64 {
                    input.send(packet(seq)).unwrap();
                }
            })
        };
        let consumer = std::thread::spawn(move || collect_all(&output));
        chain.insert_lane_filter_boxed("live", 0, Box::new(NullFilter::new())).unwrap();
        chain.insert_lane_filter_boxed("live", 1, Box::new(NullFilter::new())).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let removed = chain.remove_lane_filter("live", 0).unwrap();
        assert_eq!(removed.name(), "null");
        producer.join().unwrap();
        chain.close_input();
        let received = consumer.join().unwrap();
        assert_eq!(received.len(), 2_000, "no packet lost or duplicated");
        for (i, p) in received.iter().enumerate() {
            assert_eq!(p.seq().value(), i as u64, "order preserved across splices");
        }
        assert_eq!(chain.lane_stats("live").unwrap().splices, 3);
        chain.shutdown().unwrap();
        runtime.shutdown().unwrap();
    }

    #[test]
    fn backpressure_parks_the_task_instead_of_spinning() {
        // Tiny pipes, no consumer: the task must go idle (not busy-loop)
        // once the outbox fills, then finish the stream when the consumer
        // appears.
        let runtime = Runtime::start(RuntimeConfig::new(1, 4));
        let (chain, output) = one_lane(&runtime, "bp", 8, 4);
        let input = chain.input();
        let producer = std::thread::spawn(move || {
            for seq in 0..100u64 {
                input.send(packet(seq)).unwrap();
            }
        });
        std::thread::sleep(Duration::from_millis(30));
        // The outbox (8) is full and the worker is idle; executed counters
        // must stop growing while nothing changes.
        let before: u64 = runtime.status().shards.iter().map(|s| s.executed).sum();
        std::thread::sleep(Duration::from_millis(50));
        let after: u64 = runtime.status().shards.iter().map(|s| s.executed).sum();
        assert_eq!(before, after, "blocked task must not spin through the queue");
        let consumer = std::thread::spawn(move || collect_all(&output));
        producer.join().unwrap();
        chain.close_input();
        assert_eq!(consumer.join().unwrap().len(), 100);
        chain.shutdown().unwrap();
        runtime.shutdown().unwrap();
    }

    #[test]
    fn many_chains_share_a_small_pool() {
        let runtime = Runtime::start(RuntimeConfig::new(2, 8));
        let (chains, outputs): (Vec<_>, Vec<_>) =
            (0..32).map(|i| one_lane(&runtime, &format!("c{i}"), 128, 8)).unzip();
        let consumers: Vec<_> = outputs
            .into_iter()
            .map(|rx| std::thread::spawn(move || collect_all(&rx).len()))
            .collect();
        for chain in &chains {
            let input = chain.input();
            for seq in 0..200u64 {
                input.send(packet(seq)).unwrap();
            }
            chain.close_input();
        }
        for consumer in consumers {
            assert_eq!(consumer.join().unwrap(), 200);
        }
        for chain in &chains {
            chain.shutdown().unwrap();
        }
        assert_eq!(runtime.live_tasks(), 0, "no leaked stream tasks");
        runtime.shutdown().unwrap();
    }

    #[test]
    fn an_inlet_flipping_between_in_place_and_queued_delivers_every_packet_once_in_order() {
        // This thread plays the carrier's drain — offer each run, send what
        // is handed back through the inbox — and the consumer: it empties
        // the 4-slot output only every eighth run, so the chain keeps going
        // from caught up (runs taken in place) to backed up (runs queued).
        // After each emptying it waits for the task to settle — idle, inbox
        // and output empty — so the next offer is taken in place however
        // the workers are scheduled.
        const RUNS: u64 = 1_500;
        const RUN: u64 = 3;
        let runtime = Runtime::start(RuntimeConfig::new(2, 8));
        let (chain, output) = one_lane(&runtime, "flip", 4, 8);
        let inlet = chain.inlet();
        let input = chain.input();
        let mut delivered = Vec::new();
        let collect = |delivered: &mut Vec<u64>| {
            while let Ok(batch) = output.try_recv_up_to(64) {
                delivered.extend(batch.iter().map(|p| p.seq().value()));
            }
        };
        let (mut in_place, mut queued) = (0, 0);
        for run in 0..RUNS {
            let batch: Vec<Packet> = (run * RUN..(run + 1) * RUN).map(packet).collect();
            match inlet.offer(batch) {
                None => in_place += 1,
                Some(mut back) => {
                    queued += 1;
                    // A full inbox is where a real drain sheds; here the
                    // consumer makes room instead, so nothing may go missing.
                    while !back.is_empty() {
                        back = input.try_send_batch(back).unwrap();
                        if !back.is_empty() {
                            collect(&mut delivered);
                            std::thread::yield_now();
                        }
                    }
                }
            }
            if run % 8 == 7 {
                let deadline = std::time::Instant::now() + Duration::from_secs(30);
                loop {
                    collect(&mut delivered);
                    // Idle first: an idle task stays idle until this thread
                    // sends or receives, so the two pipe checks cannot race it.
                    let idle = chain.task.state.load(Ordering::SeqCst) == IDLE;
                    if idle && output.is_empty() && chain.work.in_rx.is_idle() {
                        break;
                    }
                    assert!(std::time::Instant::now() < deadline, "the chain never settled");
                    std::thread::yield_now();
                }
            }
        }
        chain.close_input();
        delivered.extend(collect_all(&output).iter().map(|p| p.seq().value()));
        let misplaced = delivered.iter().zip(0..).position(|(&seq, at)| seq != at);
        assert_eq!((delivered.len() as u64, misplaced), (RUNS * RUN, None), "once each, in order");
        assert!(in_place > 0 && queued > 0, "in place {in_place}, queued {queued}");
        let head_in = chain.status().head_stats.packets_in;
        assert_eq!(head_in, RUNS * RUN, "both paths count their input");
        chain.shutdown().unwrap();
        runtime.shutdown().unwrap();
    }

    #[test]
    fn pooled_session_fans_out_in_order_and_zero_copy() {
        let runtime = Runtime::start(RuntimeConfig::new(2, 8));
        let session = runtime.add_session("fan");
        let lanes: Vec<_> =
            (0..4).map(|i| session.add_lane(format!("lane-{i}")).unwrap()).collect();
        assert_eq!(runtime.live_tasks(), 1, "head, fanout and four lanes are one task");
        let input = session.input();
        let consumers: Vec<_> = lanes
            .into_iter()
            .map(|rx| std::thread::spawn(move || collect_all(&rx)))
            .collect();
        for seq in 0..2_000u64 {
            input.send(packet(seq)).unwrap();
        }
        session.close_input();
        let mut outputs = Vec::new();
        for consumer in consumers {
            let received = consumer.join().unwrap();
            assert_eq!(received.len(), 2_000);
            for (i, p) in received.iter().enumerate() {
                assert_eq!(p.seq().value(), i as u64);
            }
            outputs.push(received);
        }
        assert!(
            outputs[0][0].shares_payload_with(&outputs[1][0]),
            "fanout must be zero-copy"
        );
        session.shutdown().unwrap();
        assert_eq!(runtime.live_tasks(), 0, "no leaked session tasks");
        runtime.shutdown().unwrap();
    }

    #[test]
    fn lane_churn_mid_stream_keeps_remaining_lanes_whole() {
        let runtime = Runtime::start(RuntimeConfig::new(2, 4));
        let session = runtime.add_session("churn");
        let keeper = session.add_lane("keeper").unwrap();
        let victim = session.add_lane("victim").unwrap();
        let keeper_consumer = std::thread::spawn(move || collect_all(&keeper));
        let victim_consumer = std::thread::spawn(move || collect_all(&victim));
        let input = session.input();
        for seq in 0..200u64 {
            input.send(packet(seq)).unwrap();
        }
        session.remove_lane("victim").unwrap();
        assert_eq!(session.lane_names(), vec!["keeper"]);
        // A late joiner sees the stream from its join point onward.
        let late = session.add_lane("late").unwrap();
        assert_eq!(runtime.live_tasks(), 1, "lane churn adds no task");
        let late_consumer = std::thread::spawn(move || collect_all(&late));
        for seq in 200..400u64 {
            input.send(packet(seq)).unwrap();
        }
        session.close_input();
        let keeper_seqs: Vec<u64> =
            keeper_consumer.join().unwrap().iter().map(|p| p.seq().value()).collect();
        assert_eq!(keeper_seqs, (0..400).collect::<Vec<u64>>());
        let victim_seqs = victim_consumer.join().unwrap();
        assert!(victim_seqs.len() <= 200, "removed lane must stop receiving");
        let late_seqs: Vec<u64> =
            late_consumer.join().unwrap().iter().map(|p| p.seq().value()).collect();
        assert!(!late_seqs.is_empty());
        assert_eq!(late_seqs.last(), Some(&399));
        session.shutdown().unwrap();
        assert_eq!(runtime.live_tasks(), 0, "churned lanes must not leak tasks");
        runtime.shutdown().unwrap();
    }

    #[test]
    fn remove_lane_unblocks_a_fanout_stalled_on_it() {
        // Regression: the session task can be parked on a stalled lane's
        // full pipe when remove_lane retires that lane; the lane no longer
        // gates the task, but no live lane's watcher will fire either, so
        // remove_lane must kick it explicitly or the healthy lanes starve.
        let runtime = Runtime::start(RuntimeConfig::new(2, 4));
        let session =
            runtime.add_session_with("stall", FilterRegistry::with_builtins(), 4, 4);
        let ok = session.add_lane("ok").unwrap();
        let stuck = session.add_lane("stuck").unwrap();
        let input = session.input();
        let producer = std::thread::spawn(move || {
            for seq in 0..200u64 {
                if input.send(packet(seq)).is_err() {
                    break;
                }
            }
        });
        // Drain only the healthy lane until the fanout wedges behind the
        // never-drained sibling, then remove the sibling.
        let mut seqs: Vec<u64> = Vec::new();
        let mut removed = false;
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while seqs.len() < 200 {
            assert!(
                std::time::Instant::now() < deadline,
                "healthy lane starved: fanout stayed wedged ({} of 200 delivered, \
                 removed: {removed})",
                seqs.len()
            );
            match ok.recv_timeout(Duration::from_millis(20)) {
                Ok(p) => seqs.push(p.seq().value()),
                Err(rapidware_streams::TryRecvError::Empty) => {
                    if !removed {
                        session.remove_lane("stuck").unwrap();
                        removed = true;
                    }
                }
                Err(other) => panic!("unexpected error on the healthy lane: {other}"),
            }
        }
        assert!(removed, "the stalled sibling should have wedged the fanout first");
        assert_eq!(seqs, (0..200).collect::<Vec<u64>>());
        // Read only now, the removed lane still delivers what it was owed —
        // a prefix of the stream — and then ends cleanly.
        let mut backlog = Vec::new();
        loop {
            match stuck.recv_timeout(HANG) {
                Ok(p) => backlog.push(p.seq().value()),
                Err(rapidware_streams::TryRecvError::Eof) => break,
                Err(other) => panic!("the removed lane must end cleanly, got {other}"),
            }
        }
        assert!(!backlog.is_empty(), "the stalled lane had a backlog");
        assert_eq!(backlog, (0..backlog.len() as u64).collect::<Vec<u64>>());
        producer.join().unwrap();
        session.shutdown().unwrap();
        runtime.shutdown().unwrap();
    }

    #[test]
    fn lane_added_after_stream_end_sees_immediate_eof() {
        // Regression: a lane added after the session observed end of
        // stream used to register a slot nothing would ever feed or close,
        // hanging its consumer forever.
        let runtime = Runtime::start(RuntimeConfig::new(2, 4));
        let session = runtime.add_session("ended");
        let first = session.add_lane("first").unwrap();
        let input = session.input();
        input.send(packet(0)).unwrap();
        session.close_input();
        // Draining the first lane to EOF proves the session observed the
        // end of stream and finished.
        assert_eq!(collect_all(&first).len(), 1);
        let late = session.add_lane("late-joiner").unwrap();
        match late.recv_timeout(Duration::from_secs(10)) {
            Err(rapidware_streams::TryRecvError::Eof) => {}
            other => panic!("late lane must observe a clean end of stream, got {other:?}"),
        }
        session.shutdown().unwrap();
        assert_eq!(runtime.live_tasks(), 0);
        runtime.shutdown().unwrap();
    }

    #[test]
    fn producers_that_only_drop_their_senders_end_the_stream() {
        let runtime = Runtime::start(RuntimeConfig::new(2, 4));
        let session = runtime.add_session("dropped");
        let lane = session.add_lane("out").unwrap();
        // Two producers, neither of which ever calls `close`.
        let producers: Vec<_> = (0..2u64)
            .map(|producer| {
                let input = session.input();
                std::thread::spawn(move || {
                    for seq in 0..50 {
                        input.send(packet(producer * 50 + seq)).unwrap();
                    }
                })
            })
            .collect();
        for producer in producers {
            producer.join().unwrap();
        }
        let mut received = 0;
        loop {
            match lane.recv_timeout(Duration::from_secs(30)) {
                Ok(_) => received += 1,
                Err(TryRecvError::Eof) => break,
                Err(other) => panic!("the last dropped sender must end the stream: {other:?}"),
            }
        }
        assert_eq!(received, 100);
        assert_eq!(session.status().head_stats.packets_in, 100, "the session still counts");
        // A handle given out after the end is a closed sender.
        assert!(session.input().send(packet(100)).is_err());
        session.shutdown().unwrap();
        assert_eq!(runtime.live_tasks(), 0);
        runtime.shutdown().unwrap();
    }

    #[test]
    fn a_session_without_lanes_holds_its_traffic_for_the_first_lane() {
        let runtime = Runtime::start(RuntimeConfig::new(2, 4));
        let session = runtime.add_session_with("held", FilterRegistry::with_builtins(), 8, 4);
        // Held until the lane joins: dropping it would end the stream.
        let input = session.input();
        input.send_batch((0..6).map(packet).collect()).unwrap();
        // Time for the task to take a batch into the head, where it waits.
        std::thread::sleep(Duration::from_millis(20));
        let lane = session.add_lane("first").unwrap();
        session.close_input();
        let seqs: Vec<u64> = collect_all(&lane).iter().map(|p| p.seq().value()).collect();
        assert_eq!(seqs, (0..6).collect::<Vec<u64>>());
        session.shutdown().unwrap();
        // Nobody ever joins: shutdown does not wait on a lane.
        let orphan = runtime.add_session_with("orphan", FilterRegistry::with_builtins(), 8, 4);
        orphan.input().send_batch((0..6).map(packet).collect()).unwrap();
        orphan.shutdown().unwrap();
        assert_eq!(runtime.live_tasks(), 0);
        runtime.shutdown().unwrap();
    }

    #[test]
    fn removing_a_head_encoder_delivers_its_residue_on_every_lane_first() {
        let runtime = Runtime::start(RuntimeConfig::new(2, 8));
        let session = runtime.add_session("residue");
        let lanes: Vec<_> =
            (0..3).map(|i| session.add_lane(format!("lane-{i}")).unwrap()).collect();
        session.insert_head_filter(0, &FilterSpec::new("fec-encoder")).unwrap();
        // Half an FEC(6,4) block: both sources pass straight through, and
        // the encoder holds them towards its parity pair.
        let input = session.input();
        input.send(packet(0)).unwrap();
        input.send(packet(1)).unwrap();
        for lane in &lanes {
            assert!(lane.recv().unwrap().kind().is_payload());
            assert!(lane.recv().unwrap().kind().is_payload());
        }
        session.remove_head_filter(0).unwrap();
        input.send(packet(2)).unwrap();
        session.close_input();
        for lane in &lanes {
            // The flushed half block's two parities, then the later packet.
            let received = collect_all(lane);
            let payload: Vec<bool> = received.iter().map(|p| p.kind().is_payload()).collect();
            assert_eq!(payload, [false, false, true], "{received:?}");
            assert_eq!(received[2].seq().value(), 2);
        }
        session.shutdown().unwrap();
        runtime.shutdown().unwrap();
    }

    #[test]
    fn a_boxed_insert_and_a_move_on_one_lane_leave_its_sibling_untouched() {
        let runtime = Runtime::start(RuntimeConfig::new(2, 8));
        let session = runtime.add_session("pair");
        let a = session.add_lane("a").unwrap();
        let b = session.add_lane("b").unwrap();
        session
            .insert_lane_filter_boxed("a", 0, Box::new(FecEncoderFilter::fec_6_4().unwrap()))
            .unwrap();
        session.insert_lane_filter_boxed("a", 1, Box::new(NullFilter::new())).unwrap();
        let input = session.input();
        // Half an FEC(6,4) block: lane a's encoder passes both sources and
        // holds them towards its parity pair.
        input.send_batch(vec![packet(0), packet(1)]).unwrap();
        for lane in [&a, &b] {
            assert_eq!(lane.recv().unwrap().seq().value(), 0);
            assert_eq!(lane.recv().unwrap().seq().value(), 1);
        }
        session.move_lane_filter("a", 0, 1).unwrap();
        assert_eq!(session.lane_filter_names("a").unwrap(), ["null", "fec-encoder(6,4)"]);
        assert!(session.move_lane_filter("a", 0, 5).is_err());
        input.send_batch(vec![packet(2), packet(3)]).unwrap();
        session.close_input();
        // Unflushed by the move, the encoder completes its block: two
        // parities after sources 2 and 3, where a flush would have put a
        // padded pair ahead of them.
        let kinds = |lane| -> Vec<bool> {
            collect_all(lane).iter().map(|p| p.kind().is_payload()).collect()
        };
        assert_eq!(kinds(&a), [true, true, false, false]);
        assert_eq!(kinds(&b), [true, true], "lane b carries only the sources");
        assert!(session.lane_filter_names("b").unwrap().is_empty());
        let (a, b) = (session.lane_stats("a").unwrap(), session.lane_stats("b").unwrap());
        assert_eq!((a.splices, a.packets_out), (3, 6), "two inserts and a move");
        assert_eq!((b.splices, b.packets_out), (0, 4));
        session.shutdown().unwrap();
        runtime.shutdown().unwrap();
    }

    #[test]
    fn pooled_session_per_lane_filters_and_status() {
        let runtime = Runtime::start(RuntimeConfig::new(2, 8));
        let session = runtime.add_session("status");
        let plain = session.add_lane("plain").unwrap();
        let lossy = session.add_lane("lossy").unwrap();
        session
            .insert_lane_filter("lossy", 0, &FilterSpec::new("fec-encoder"))
            .unwrap();
        session
            .insert_lane_filter("lossy", 1, &FilterSpec::new("drop-every").with_param("n", "5"))
            .unwrap();
        session
            .insert_lane_filter("lossy", 2, &FilterSpec::new("fec-decoder"))
            .unwrap();
        session
            .insert_head_filter(0, &FilterSpec::new("tap").with_param("name", "head-tap"))
            .unwrap();
        assert_eq!(session.head_filter_names(), vec!["head-tap"]);
        let plain_consumer = std::thread::spawn(move || collect_all(&plain));
        let lossy_consumer = std::thread::spawn(move || collect_all(&lossy));
        let input = session.input();
        for seq in 0..400u64 {
            input.send(packet(seq)).unwrap();
        }
        session.close_input();
        assert_eq!(plain_consumer.join().unwrap().len(), 400, "plain lane untouched");
        assert!(lossy_consumer.join().unwrap().len() >= 395, "FEC repairs the lossy lane");
        let status = session.status();
        assert_eq!(status.name, "status");
        assert_eq!(status.head_filters, vec!["head-tap"]);
        assert_eq!(status.lanes.len(), 2);
        assert!(status.lanes[1].recovered > 0, "decoder stats wired into lane status");
        assert_eq!(status.lanes[0].delivered, 400);
        session.shutdown().unwrap();
        runtime.shutdown().unwrap();
    }

    #[test]
    fn shutdown_with_undrained_lanes_does_not_hang() {
        let runtime = Runtime::start(RuntimeConfig::new(2, 4));
        let session = runtime.add_session_with(
            "abandoned",
            FilterRegistry::with_builtins(),
            16,
            4,
        );
        let _never_drained = session.add_lane("a").unwrap();
        let input = session.input();
        let producer = std::thread::spawn(move || {
            for seq in 0..300u64 {
                if input.send(packet(seq)).is_err() {
                    break;
                }
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        session.shutdown().unwrap();
        producer.join().unwrap();
        assert_eq!(runtime.live_tasks(), 0);
        runtime.shutdown().unwrap();
    }

    #[test]
    fn errors_and_validation() {
        let runtime = Runtime::start(RuntimeConfig::new(1, 1));
        let (chain, _output) = one_lane(&runtime, "v", 128, 1);
        assert!(matches!(
            chain.insert_lane_filter_boxed("v", 3, Box::new(NullFilter::new())),
            Err(ProxyError::PositionOutOfRange { .. })
        ));
        assert!(matches!(
            chain.remove_lane_filter("v", 0),
            Err(ProxyError::PositionOutOfRange { .. })
        ));
        assert!(matches!(
            chain.insert_lane_filter_boxed("nope", 0, Box::new(NullFilter::new())),
            Err(ProxyError::UnknownLane(_))
        ));
        chain.shutdown().unwrap();
        assert!(matches!(
            chain.insert_lane_filter_boxed("v", 0, Box::new(NullFilter::new())),
            Err(ProxyError::ChainClosed)
        ));
        let session = runtime.add_session("s");
        session.add_lane("a").unwrap();
        assert!(session.add_lane("a").is_err());
        assert!(matches!(session.remove_lane("nope"), Err(ProxyError::UnknownLane(_))));
        assert!(matches!(session.lane_output("nope"), Err(ProxyError::UnknownLane(_))));
        session.shutdown().unwrap();
        session.shutdown().unwrap();
        assert!(matches!(session.add_lane("b"), Err(ProxyError::ChainClosed)));
        runtime.shutdown().unwrap();
        runtime.shutdown().unwrap();
    }

    #[test]
    fn status_reports_queue_depths_and_config_round_trips() {
        let config = RuntimeConfig::new(3, 7).with_pipe_capacity(64);
        let runtime = Runtime::start(config);
        assert_eq!(runtime.config(), config);
        let status = runtime.status();
        assert_eq!(status.workers, 3);
        assert_eq!(status.shards.len(), 3);
        assert!(!format!("{runtime:?}").is_empty());
        let session = runtime.add_session("s");
        assert_eq!((session.work.batch_size, session.capacity), (7, 64));
        assert!(!format!("{session:?}").is_empty());
        assert_eq!(session.lane_count(), 0);
        session.shutdown().unwrap();
        runtime.shutdown().unwrap();
    }

    #[test]
    fn zero_values_are_clamped() {
        let config = RuntimeConfig::new(0, 0);
        assert_eq!(config.shards, 1);
        assert_eq!(config.batch_size, 1);
    }

    // -- The socket wake protocol -------------------------------------------
    //
    // Each test scripts a fake `SocketPass` by step number and follows it
    // through a channel; the only clock is the bound on a genuine hang.

    const HANG: Duration = Duration::from_secs(30);

    /// A `SocketPass` whose `n`-th pass runs `script(n, socket)` and then
    /// reports `n` to the test; it reads for its first `reading_passes`
    /// passes.
    struct ScriptedWork<F> {
        socket: Arc<UdpSocket>,
        script: F,
        passes: AtomicU64,
        reading_passes: u64,
        report: Mutex<std::sync::mpsc::Sender<u64>>,
    }

    impl<F: Fn(u64, &UdpSocket) -> SocketStep + Send + Sync> SocketPass for ScriptedWork<F> {
        fn pass(&self, _settle: &dyn Fn()) -> SocketStep {
            let pass = self.passes.fetch_add(1, Ordering::SeqCst);
            let step = (self.script)(pass, &self.socket);
            let _ = self.report.lock().send(pass);
            step
        }

        fn reading(&self) -> bool {
            self.passes.load(Ordering::SeqCst) < self.reading_passes
        }
    }

    fn loopback_socket() -> Arc<UdpSocket> {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        socket.set_nonblocking(true).unwrap();
        Arc::new(socket)
    }

    /// Loopback delivery is synchronous: the datagram is in `socket`'s
    /// receive queue when this returns.
    fn send_to(socket: &UdpSocket) {
        socket.send_to(b"x", socket.local_addr().unwrap()).unwrap();
    }

    /// Empties the receive queue and returns how many datagrams it held.
    fn drain(socket: &UdpSocket) -> usize {
        let mut byte = [0u8; 1];
        std::iter::from_fn(|| socket.recv_from(&mut byte).ok()).count()
    }

    /// Drives a scripted task that reads for its whole life.
    fn drive_scripted(
        runtime: &Arc<Runtime>,
        socket: &Arc<UdpSocket>,
        script: impl Fn(u64, &UdpSocket) -> SocketStep + Send + Sync + 'static,
    ) -> (SocketDriver, std::sync::mpsc::Receiver<u64>) {
        drive_reading(runtime, socket, u64::MAX, script)
    }

    fn drive_reading(
        runtime: &Arc<Runtime>,
        socket: &Arc<UdpSocket>,
        reading_passes: u64,
        script: impl Fn(u64, &UdpSocket) -> SocketStep + Send + Sync + 'static,
    ) -> (SocketDriver, std::sync::mpsc::Receiver<u64>) {
        let (report, passes) = std::sync::mpsc::channel();
        let work = Arc::new(ScriptedWork {
            socket: Arc::clone(socket),
            script,
            passes: AtomicU64::new(0),
            reading_passes,
            report: Mutex::new(report),
        });
        (runtime.drive(Arc::clone(socket), work), passes)
    }

    fn reactor_wakes(registry: &Registry) -> u64 {
        registry.histogram("runtime.reactor.scan_ns").snapshot().count()
    }

    #[test]
    fn reactor_rearm_loses_no_wake() {
        let runtime = Runtime::start(RuntimeConfig::new(2, 8));
        let socket = loopback_socket();
        let consumed = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&consumed);
        let (driver, passes) =
            drive_scripted(&runtime, &socket, move |_, socket| {
                // The drain runs dry …
                let drained = drain(socket) as u64;
                if drained > 0 && seen.fetch_add(drained, Ordering::SeqCst) == 0 {
                    // … and one more datagram lands before the task goes
                    // idle and re-arms its fired (hence silent) socket.
                    send_to(socket);
                }
                SocketStep::Idle
            });
        send_to(&socket);
        // Nothing else ever kicks the task: only the re-arm re-polling the
        // socket can get the second datagram consumed.
        while consumed.load(Ordering::SeqCst) < 2 {
            passes
                .recv_timeout(HANG)
                .expect("the datagram that raced the re-arm must wake the task again");
        }
        driver.shutdown().unwrap();
        runtime.shutdown().unwrap();
    }

    #[test]
    fn reactor_blocked_wakes_on_writability() {
        let runtime = Runtime::start(RuntimeConfig::new(2, 8));
        let socket = loopback_socket();
        // Registered the way a carrier is: readable, with nothing ever
        // arriving.
        let (driver, passes) = drive_scripted(&runtime, &socket, |pass, _| {
            if pass == 0 {
                SocketStep::Blocked
            } else {
                SocketStep::Idle
            }
        });
        assert_eq!(passes.recv_timeout(HANG), Ok(0), "the initial kick");
        // Nothing kicks the task and nothing is readable: only the EPOLLOUT
        // the blocked pass armed, on the (empty, hence writable) socket,
        // can deliver this step.
        assert_eq!(passes.recv_timeout(HANG), Ok(1));
        driver.shutdown().unwrap();
        runtime.shutdown().unwrap();
    }

    #[test]
    fn reactor_stops_arming_readability_once_reading_ends() {
        let runtime = Runtime::start(RuntimeConfig::new(2, 8));
        let socket = loopback_socket();
        // Reads for the initial pass only and never drains, so the socket
        // stays readable from the first datagram on.
        let (driver, passes) = drive_reading(&runtime, &socket, 1, |_, _| SocketStep::Idle);
        assert_eq!(passes.recv_timeout(HANG), Ok(0), "the initial kick");
        for _ in 0..3 {
            send_to(&socket);
        }
        // The observation window, not a synchronisation: the registration's
        // first arm may deliver one step, and a re-armed socket would have
        // stepped the task without pause.
        std::thread::sleep(Duration::from_millis(200));
        let woken = passes.try_iter().count() as u64;
        assert!(woken <= 1, "{woken} steps after reading ended");
        driver.kick();
        assert_eq!(passes.recv_timeout(HANG), Ok(1 + woken), "only a kick steps it now");
        driver.shutdown().unwrap();
        runtime.shutdown().unwrap();
    }

    #[test]
    fn reactor_one_shot_holds_under_load() {
        const BUSY: u64 = 100;
        let registry = Registry::new();
        let runtime = Runtime::start(RuntimeConfig::new(2, 8));
        runtime.enable_telemetry(&registry);
        let socket = loopback_socket();
        // Readable from the start: the registration fires exactly once.
        send_to(&socket);
        let (driver, passes) =
            drive_scripted(&runtime, &socket, |pass, socket| {
                if pass < BUSY {
                    // A drain that keeps finding work while more keeps
                    // landing on the (fired, hence silent) socket.
                    send_to(socket);
                    SocketStep::Progress
                } else {
                    drain(socket);
                    SocketStep::Idle
                }
            });
        while passes.recv_timeout(HANG).expect("the drain runs to its end") < BUSY {}
        driver.shutdown().unwrap();
        // Joins the workers, so every sample a poll took is in the
        // histogram.
        runtime.shutdown().unwrap();
        assert!(
            reactor_wakes(&registry) <= 1,
            "{BUSY} busy passes over a readable socket: {} polls reported it",
            reactor_wakes(&registry)
        );
    }

    #[test]
    fn reactor_idle_means_idle() {
        let mut proxy = crate::Proxy::with_runtime("idle", RuntimeConfig::new(2, 8));
        let registry = proxy.enable_telemetry();
        proxy
            .add_udp_carrier("wire", crate::UdpCarrierConfig::new())
            .unwrap();
        assert_eq!(proxy.runtime().unwrap().reactor_sockets(), 1);
        // The observation window, not a synchronisation: a ticking poller
        // would have ticked ~800 times in it.
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(reactor_wakes(&registry), 0, "no traffic, no wake-ups");
        proxy.shutdown().unwrap();
    }

    // -- Deferral under load ------------------------------------------------
    //
    // A carrier pass reports the step `carrier_step` picks; each script
    // below feeds that rule a pass's outcome and the test follows the task
    // through the harness.  The only waits are observation windows three
    // orders of magnitude longer than `DEFER_WINDOW`.

    use crate::udp::{carrier_step, DEFER_MIN_DRAINED, DEFER_WINDOW};
    use rapidware_transport::{SharedDrain, SharedFlush};

    /// Long enough that a timer armed for `DEFER_WINDOW` would have fired.
    const NO_TIMER: Duration = Duration::from_millis(50);

    /// The rule's step for a pass that drained `drained` datagrams, ended
    /// with `drain` and a flush that found nothing, and started just now.
    fn quick_pass(drain: SharedDrain, drained: u64) -> SocketStep {
        carrier_step(drain, SharedFlush::Idle, drained, Instant::now())
    }

    #[test]
    fn reactor_defer_runs_a_deferred_pass_again_from_the_timer_alone() {
        let runtime = Runtime::start(RuntimeConfig::new(2, 8));
        let socket = loopback_socket();
        let deadline = Arc::new(Mutex::new(None));
        let ran = Arc::new(Mutex::new(None));
        let (armed, woke) = (Arc::clone(&deadline), Arc::clone(&ran));
        let (driver, passes) = drive_scripted(&runtime, &socket, move |pass, _| {
            if pass > 0 {
                woke.lock().get_or_insert(Instant::now());
                return SocketStep::Idle;
            }
            // A preemption between the pass's two clock reads can outlast
            // the window; a quick pass is retried, a rule that never
            // defers is not.
            let step = (0..100)
                .map(|_| quick_pass(SharedDrain::Empty, DEFER_MIN_DRAINED))
                .find(|step| matches!(step, SocketStep::IdleUntil(_)))
                .unwrap_or(SocketStep::Idle);
            if let SocketStep::IdleUntil(at) = step {
                *armed.lock() = Some(at);
            }
            step
        });
        assert_eq!(passes.recv_timeout(HANG), Ok(0), "the initial kick");
        let deadline = deadline.lock().expect("a quick pass of enough datagrams defers");
        // Nothing is sent and nothing kicks the task: only its timer can
        // deliver this step.
        assert_eq!(passes.recv_timeout(HANG), Ok(1), "the timer steps a deferred task");
        let ran = ran.lock().expect("the second pass ran");
        assert!(ran >= deadline, "the timer fired {:?} early", deadline - ran);
        assert!(passes.recv_timeout(NO_TIMER).is_err(), "one deadline, one step");
        driver.shutdown().unwrap();
        runtime.shutdown().unwrap();
    }

    /// Drives a task whose `n`-th pass drains its socket, runs `pass` on
    /// the count and the pass's start, and records the step it returned.
    fn drive_recorded(
        runtime: &Arc<Runtime>,
        socket: &Arc<UdpSocket>,
        pass: impl Fn(u64, u64, Instant) -> SocketStep + Send + Sync + 'static,
    ) -> (SocketDriver, std::sync::mpsc::Receiver<u64>, Arc<Mutex<Vec<SocketStep>>>) {
        let steps = Arc::new(Mutex::new(Vec::new()));
        let recorded = Arc::clone(&steps);
        let (driver, passes) = drive_scripted(runtime, socket, move |n, socket| {
            let started = Instant::now();
            let step = pass(n, drain(socket) as u64, started);
            recorded.lock().push(step);
            step
        });
        (driver, passes, steps)
    }

    #[test]
    fn reactor_defer_a_one_datagram_pass_rearms_readiness_and_arms_no_timer() {
        let runtime = Runtime::start(RuntimeConfig::new(2, 8));
        let socket = loopback_socket();
        let (driver, passes, steps) = drive_recorded(&runtime, &socket, |_, drained, started| {
            carrier_step(SharedDrain::Empty, SharedFlush::Idle, drained, started)
        });
        assert_eq!(passes.recv_timeout(HANG), Ok(0), "the initial kick");
        send_to(&socket);
        assert_eq!(passes.recv_timeout(HANG), Ok(1), "readiness steps the task");
        assert_eq!(steps.lock()[1], SocketStep::Idle, "one datagram does not defer");
        assert!(passes.recv_timeout(NO_TIMER).is_err(), "no timer was armed");
        // The re-armed socket is what wakes the task now.
        send_to(&socket);
        assert_eq!(passes.recv_timeout(HANG), Ok(2));
        driver.shutdown().unwrap();
        runtime.shutdown().unwrap();
    }

    #[test]
    fn reactor_defer_a_full_batch_steps_again_at_once() {
        let runtime = Runtime::start(RuntimeConfig::new(2, 8));
        let socket = loopback_socket();
        let (driver, passes, steps) = drive_recorded(&runtime, &socket, |n, _, _| {
            if n == 0 {
                quick_pass(SharedDrain::MoreReady, 32)
            } else {
                SocketStep::Idle
            }
        });
        assert_eq!(passes.recv_timeout(HANG), Ok(0), "the initial kick");
        // No datagram, no kick and no timer: only the requeue of a
        // `Progress` step can deliver this one.
        assert_eq!(passes.recv_timeout(HANG), Ok(1), "a full batch runs again at once");
        assert_eq!(steps.lock()[0], SocketStep::Progress);
        driver.shutdown().unwrap();
        runtime.shutdown().unwrap();
    }

    #[test]
    fn reactor_defer_a_pass_longer_than_the_window_never_defers() {
        let runtime = Runtime::start(RuntimeConfig::new(2, 8));
        let socket = loopback_socket();
        let (driver, passes, steps) = drive_recorded(&runtime, &socket, |_, _, started| {
            // A pass busy for the whole window, with plenty drained.
            while started.elapsed() < DEFER_WINDOW {
                std::hint::spin_loop();
            }
            carrier_step(SharedDrain::Empty, SharedFlush::Idle, 4 * DEFER_MIN_DRAINED, started)
        });
        assert_eq!(passes.recv_timeout(HANG), Ok(0), "the initial kick");
        assert_eq!(steps.lock()[0], SocketStep::Idle, "a saturated carrier is never delayed");
        assert!(passes.recv_timeout(NO_TIMER).is_err(), "no timer was armed");
        send_to(&socket);
        assert_eq!(passes.recv_timeout(HANG), Ok(1), "readiness was re-armed at once");
        driver.shutdown().unwrap();
        runtime.shutdown().unwrap();
    }

    #[test]
    fn reactor_defer_stop_during_a_deferral_finishes_within_the_grace_period() {
        let runtime = Runtime::start(RuntimeConfig::new(2, 8));
        let socket = loopback_socket();
        // A deadline far past the grace period: only the stop's own wake
        // can get the final pass run in time.
        let (driver, passes) = drive_scripted(&runtime, &socket, |pass, _| {
            if pass == 0 {
                SocketStep::IdleUntil(Instant::now() + 10 * SHUTDOWN_GRACE)
            } else {
                SocketStep::Idle
            }
        });
        assert_eq!(passes.recv_timeout(HANG), Ok(0), "the initial kick");
        let stopping = Instant::now();
        driver.shutdown().expect("a deferred task finishes on stop");
        assert!(stopping.elapsed() < SHUTDOWN_GRACE, "stop waited {:?}", stopping.elapsed());
        assert_eq!(passes.try_recv(), Ok(1), "the final pass ran");
        assert_eq!(runtime.live_tasks(), 0);
        runtime.shutdown().unwrap();
    }
}
