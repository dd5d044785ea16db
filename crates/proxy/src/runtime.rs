//! The sharded session runtime: many chains and sessions multiplexed over a
//! **fixed** pool of workers.
//!
//! This is the executor every [`Proxy`](crate::Proxy) stream and session
//! runs on.  The paper's architecture spends one OS thread per filter — at
//! hundreds of concurrent sessions the thread count, stack memory, and
//! context-switch load topple the proxy long before the hardware does — so
//! the proxy is shaped like the worker-multiplexed stage executors of
//! streaming-pipe systems instead: a [`Runtime`] owns `shards` worker
//! threads, each with its own run queue of tasks, and every
//! [`PooledChain`] and every [`PooledSession`] is exactly **one** task,
//! never a thread.
//!
//! ```text
//!                 ┌─ shard 0: [task][task][task…]  ◀─ steal ─┐
//!   N sessions ──▶┤  shard 1: [task][task…]                  ├─ workers
//!   (tasks)       └─ shard …: [task…]             ◀─ steal ──┘
//!
//!   chain task:    inbox ─try_recv_up_to(batch)─▶ FilterChain::process_batch
//!                    ─▶ pending ─try_send_batch─▶ outbox
//!
//!   session task:  inbox ─▶ head chain ─┬─▶ lane chain ─▶ pending ─▶ lane outbox
//!                          (Arc clones) └─▶ lane chain ─▶ pending ─▶ lane outbox
//!
//!   carrier route: drain ─▶ task idle and caught up? ─yes─▶ the same body, in place
//!   (see TaskInlet)                                  └─no──▶ inbox (as above)
//! ```
//!
//! A chain task drains up to `batch_size` packets from its inbox pipe,
//! pushes them through its (synchronous, re-entrant) `FilterChain`, and
//! forwards the results to its outbox with
//! [`try_send_batch`](rapidware_streams::DetachableSender::try_send_batch).
//! A session task runs each batch to completion in the same step: the head
//! chain once, then every lane's chain on an `Arc`-clone of the head's
//! output, straight into each lane's delivery pipe.  When a downstream pipe
//! is full the task parks — **without** holding a worker — until the pipe's
//! space watcher fires; when its inbox is empty it parks until the data
//! watcher fires.  Workers steal queued tasks from sibling shards, so a
//! skewed session population cannot idle half the pool.
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
//! let chain = runtime.add_chain("audio");
//! let input = chain.input();
//! let output = chain.output();
//! input.send(Packet::new(StreamId::new(1), SeqNo::new(0), PacketKind::AudioData, vec![1, 2]))
//!     .expect("pooled chain accepts packets");
//! assert_eq!(output.recv().expect("forwarded").seq().value(), 0);
//! chain.shutdown()?;
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
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};

use rapidware_filters::{ChainSpans, FecDecoderStats, Filter, FilterChain};
use rapidware_telemetry::{now_ns, Histogram, Registry};
use rapidware_packet::Packet;
use rapidware_streams::{pipe, DetachableReceiver, DetachableSender, PipeWatcher, TryRecvError};
use rapidware_transport::{Interest, Poller, RouteInlet, Token};

use crate::error::ProxyError;
use crate::registry::{FilterRegistry, FilterSpec};
use crate::session::{build_lane_filter, LaneStatus, SessionStatus};
use crate::threaded::ChainStats;

/// How long a graceful [`PooledChain::shutdown`] waits for the chain's task
/// to finish before reporting it leaked.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(10);

/// Configuration of a [`Runtime`]: how many workers to run and how many
/// packets a chain task drains from its inbox per scheduling step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Number of shards — each shard owns one worker thread and one run
    /// queue.  The pool size is fixed for the runtime's lifetime.
    pub shards: usize,
    /// Maximum packets a chain task drains (and processes as one
    /// `process_batch` call) per step.
    pub batch_size: usize,
    /// Buffer capacity, in packets, of the inbox and outbox pipes of chains
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

    /// Overrides the pipe capacity of chains created through the runtime.
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
    /// chain, session, or socket task).
    pub polls: u64,
}

impl rapidware_telemetry::StatSource for RuntimeStatus {
    fn snapshot(&self) -> Vec<rapidware_telemetry::Metric> {
        use rapidware_telemetry::Metric;
        let queued: usize = self.shards.iter().map(|shard| shard.queued).sum();
        let executed: u64 = self.shards.iter().map(|shard| shard.executed).sum();
        vec![
            Metric::new("workers", self.workers as u64),
            Metric::new("live_tasks", self.live_tasks as u64),
            Metric::new("queued", queued as u64),
            Metric::new("executed", executed),
            Metric::new("steals", self.steals),
            Metric::new("polls", self.polls),
        ]
    }
}

/// The pool's own profiling instruments, installed by
/// [`Runtime::enable_telemetry`].  Everything here is a registry histogram;
/// the hot path holds pre-resolved `Arc` handles and records with relaxed
/// atomics — no locks, no allocation.
struct RuntimeTelemetry {
    /// Wall time of each task step (one chain/session/socket poll).
    poll_ns: Arc<Histogram>,
    /// Delay between a task entering a run queue and a worker picking its
    /// step up — the scheduling latency the paper's adaptation loop rides
    /// on.
    queue_wait_ns: Arc<Histogram>,
    /// One sample per reactor wake: from `epoll_wait` returning to the
    /// last ready task being scheduled.  An idle proxy records none.
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
    fn step(&self) -> StepOutcome;
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
    /// Completion latch `PooledChain::shutdown` waits on.
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Task {
    /// Transitions the task towards `QUEUED` and enqueues it if it was
    /// idle.  Safe to call from any thread, any number of times.
    fn schedule(self: &Arc<Self>) {
        loop {
            match self.state.load(Ordering::SeqCst) {
                IDLE => {
                    if self
                        .state
                        .compare_exchange(IDLE, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        if let Some(pool) = self.pool.upgrade() {
                            pool.enqueue(Arc::clone(self));
                        }
                        return;
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
                        return;
                    }
                }
                // Already queued, already notified, or finished.
                _ => return,
            }
        }
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

    fn is_done(&self) -> bool {
        *self.done.lock()
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

impl fmt::Debug for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Task")
            .field("shard", &self.shard)
            .field("state", &self.state.load(Ordering::SeqCst))
            .finish()
    }
}

/// A [`PipeWatcher`] that wakes a task.  Holds the task weakly so the pipes
/// of a dropped chain cannot keep its task alive.
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
    /// condition; checked under the `sleepers` lock so a concurrent enqueue
    /// can never slip between "saw zero" and "went to sleep").
    queued: AtomicUsize,
    sleepers: Mutex<usize>,
    wake: Condvar,
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
    fn enqueue(&self, task: Arc<Task>) {
        if self.telemetry.get().is_some() {
            task.enqueued_ns.store(now_ns(), Ordering::Relaxed);
        }
        let shard = task.shard;
        self.shards[shard].queue.lock().push_back(task);
        self.queued.fetch_add(1, Ordering::SeqCst);
        let sleepers = self.sleepers.lock();
        if *sleepers > 0 {
            self.wake.notify_one();
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

/// Runs one task step and applies the resulting state transition.
fn run_task(task: &Arc<Task>, pool: &PoolShared) {
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
    let outcome = task.work.step();
    if let (Some(telemetry), Some(start)) = (telemetry, step_start) {
        telemetry.poll_ns.record(now_ns().saturating_sub(start));
    }
    match outcome {
        StepOutcome::Done => task.finish(),
        StepOutcome::Progress => {
            task.state.store(QUEUED, Ordering::SeqCst);
            pool.enqueue(Arc::clone(task));
        }
        StepOutcome::Idle => {
            if task
                .state
                .compare_exchange(RUNNING, IDLE, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                // A watcher fired while the step ran: the condition it
                // signalled may be the one the step just failed on, so the
                // task goes straight back to the queue.
                task.state.store(QUEUED, Ordering::SeqCst);
                pool.enqueue(Arc::clone(task));
            }
        }
    }
}

fn worker_loop(pool: &Arc<PoolShared>, home: usize) {
    loop {
        if pool.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Some(task) = pool.pop(home) {
            #[cfg(any(test, feature = "chaos"))]
            pool.chaos.maybe_stall(home);
            run_task(&task, pool);
            continue;
        }
        let mut sleepers = pool.sleepers.lock();
        if pool.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if pool.queued.load(Ordering::SeqCst) > 0 {
            continue;
        }
        *sleepers += 1;
        pool.wake.wait(&mut sleepers);
        *sleepers -= 1;
    }
}

// ---------------------------------------------------------------------------
// The runtime.
// ---------------------------------------------------------------------------

/// A fixed-size sharded worker pool hosting many [`PooledChain`]s and
/// [`PooledSession`]s cooperatively.
///
/// See the [module documentation](self) for the execution model.  Shut
/// chains and sessions down **before** the runtime: a task can only finish
/// while workers are running.
pub struct Runtime {
    shared: Arc<PoolShared>,
    config: RuntimeConfig,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// The socket readiness loop, started lazily by the first
    /// [`drive_socket`](Self::drive_socket) call so socket-free runtimes
    /// spend no extra thread.
    reactor: Mutex<Option<ReactorHandle>>,
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
            reactor: Mutex::new(None),
        })
    }

    /// The configuration this runtime was started with.
    pub fn config(&self) -> RuntimeConfig {
        self.config
    }

    /// Tasks registered with this runtime that have not completed yet.
    /// Zero after every chain and session has shut down cleanly.
    pub fn live_tasks(&self) -> usize {
        self.shared.live_tasks.load(Ordering::SeqCst)
    }

    /// A snapshot of the pool: per-shard queue depths, live tasks, steals,
    /// and total task polls.
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
        }
    }

    /// Installs the pool's profiling instruments into `registry`: task poll
    /// durations (`runtime.poll_ns`), run-queue wait (`runtime.queue_wait_ns`),
    /// and reactor dispatch time per wake (`runtime.reactor.scan_ns`).  Until
    /// this is called the hot path pays nothing beyond one relaxed poll
    /// counter.
    ///
    /// Idempotent: the first registry wins; later calls are no-ops.
    pub fn enable_telemetry(&self, registry: &Arc<Registry>) {
        let telemetry = Arc::clone(
            self.shared
                .telemetry
                .get_or_init(|| RuntimeTelemetry::new(registry)),
        );
        // The reactor may already be running (drive_socket installs the
        // instruments for the reverse ordering).
        if let Some(reactor) = self.reactor.lock().as_ref() {
            let _ = reactor.shared.telemetry.set(telemetry);
        }
    }

    /// Registers a work item as a task on the next shard (round robin) and
    /// gives it an initial kick.  `work` is built with the task's own weak
    /// handle in reach, for work that must hand its waker out before it can
    /// exist (a socket's reactor registration).
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

    /// Creates a chain hosted on this pool: a null proxy with an input and
    /// an output endpoint, reconfigurable while packets flow.
    pub fn add_chain(self: &Arc<Self>, name: impl Into<String>) -> PooledChain {
        self.add_chain_with(name, self.config.pipe_capacity, self.config.batch_size)
    }

    /// Creates a pooled chain with explicit pipe capacity and batch size.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `batch_size` is zero.
    pub fn add_chain_with(
        self: &Arc<Self>,
        name: impl Into<String>,
        capacity: usize,
        batch_size: usize,
    ) -> PooledChain {
        assert!(batch_size > 0, "batch size must be non-zero");
        let (in_tx, in_rx) = pipe::<Packet>(capacity);
        let (out_tx, out_rx) = pipe::<Packet>(capacity);
        let work = Arc::new(ChainWork {
            inner: Mutex::default(),
            in_rx: in_rx.clone(),
            out_tx: out_tx.clone(),
            batch_size,
        });
        let task = self.register(|_| Box::new(Arc::clone(&work)));
        // The task wakes when its inbox has data, when its outbox frees
        // space, and when its outbox sender becomes usable again after a
        // pause/reconnect splice.
        in_rx.set_data_watcher(TaskWaker::of(&task));
        out_rx.set_space_watcher(TaskWaker::of(&task));
        out_tx.set_ready_watcher(TaskWaker::of(&task));
        PooledChain {
            name: name.into(),
            runtime: Arc::clone(self),
            work,
            task,
            input: in_tx,
            output: out_rx,
        }
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
            input,
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

    /// Registers socket-backed work as a pool task woken by the socket
    /// reactor: the readiness analogue of a chain task's `PipeWatcher`
    /// wiring, so a socket costs a task, not a thread.
    ///
    /// The task is stepped whenever the reactor reports the registered
    /// interest on `socket` (or [`SocketDriver::kick`] / a watcher
    /// installed via [`SocketDriver::watch_source`] fires), and calls
    /// `work.service()` each step; see [`SocketWork`] for the contract.
    /// The reactor thread itself is started lazily by the first driver and
    /// is shared by every socket on this runtime — session counts scale
    /// with **zero** additional threads.
    ///
    /// The reactor keys registrations on the file descriptor, so two
    /// drivers of one port (a receive half and a send half) each bring
    /// their own fd — `SharedUdpEgress::over` `try_clone()`s one for the
    /// send half.  Linux-only: the reactor blocks in `epoll_wait`.
    ///
    /// # Panics
    ///
    /// Panics if the reactor cannot be created or refuses the socket: the
    /// process is out of file descriptors or kernel memory, or this very
    /// fd is registered already.
    pub fn drive_socket(
        self: &Arc<Self>,
        socket: Arc<UdpSocket>,
        interest: SocketInterest,
        work: Arc<dyn SocketWork>,
    ) -> SocketDriver {
        let mut slot = self.reactor.lock();
        let handle = slot.get_or_insert_with(ReactorHandle::start);
        // A reactor started after enable_telemetry still gets the
        // instruments (enable_telemetry handles the other ordering).
        if let Some(telemetry) = self.shared.telemetry.get() {
            let _ = handle.shared.telemetry.set(Arc::clone(telemetry));
        }
        let reactor = Arc::clone(&handle.shared);
        let stop = Arc::new(AtomicBool::new(false));
        let idle_interest = match interest {
            SocketInterest::Readable => Interest::READABLE,
            SocketInterest::Writable => Interest::NONE,
        };
        let mut token = None;
        // The socket is in the epoll set before the task's first step (the
        // initial kick inside `register`), so that step's re-arm finds it.
        let task = self.register(|task| {
            let registered = reactor
                .poller
                .add(socket, idle_interest, task.clone())
                .expect("registering a socket with the reactor");
            token = Some(registered);
            Box::new(SocketTaskWork {
                work,
                stop: Arc::clone(&stop),
                reactor: Arc::clone(&reactor),
                token: registered,
                idle_interest,
            })
        });
        SocketDriver {
            task,
            stop,
            reactor,
            token: token.expect("register builds the work exactly once"),
        }
    }

    /// Sockets currently registered with the reactor — zero when no
    /// [`drive_socket`](Self::drive_socket) driver is live.  Exact: a
    /// driver's registration is gone the moment its
    /// [`shutdown`](SocketDriver::shutdown) returns.
    pub fn reactor_sockets(&self) -> usize {
        self.reactor
            .lock()
            .as_ref()
            .map_or(0, |handle| handle.shared.poller.len())
    }

    /// Stops the worker pool: workers finish their current step and exit.
    ///
    /// Chains and sessions must be shut down first — a task that still has
    /// in-flight work when the pool stops can never complete, which
    /// [`live_tasks`](Self::live_tasks) will report as a leak.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::WorkerFailed`] if a worker thread or the
    /// socket reactor panicked.
    pub fn shutdown(&self) -> Result<(), ProxyError> {
        // The reactor goes first: with the wake source gone, no new socket
        // work can be scheduled while the workers drain and exit.
        let mut failure = None;
        if let Some(reactor) = self.reactor.lock().take() {
            failure = reactor.stop().err();
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _sleepers = self.shared.sleepers.lock();
            self.shared.wake.notify_all();
        }
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
// Socket reactor.
// ---------------------------------------------------------------------------

/// Which readiness events should wake a [`drive_socket`] task.
///
/// [`drive_socket`]: Runtime::drive_socket
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketInterest {
    /// Wake whenever the socket holds readable datagrams (a receive-side
    /// driver).
    Readable,
    /// Wake only when the socket turns writable after a
    /// [`SocketStep::Blocked`] service pass (a send-side driver: new frames
    /// arrive via pipe watchers installed with
    /// [`SocketDriver::watch_source`], so readability is noise).
    Writable,
}

/// How socket-backed work left its socket after one service pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketStep {
    /// Work moved and more may be pending: step again immediately.
    Progress,
    /// Nothing to do until the socket or a watched pipe becomes ready.
    Idle,
    /// The OS refused a send (`WouldBlock`): step again when the socket
    /// reports writable.
    Blocked,
}

/// Non-blocking socket work driven as a pool task — the socket analogue of
/// the (private) chain/session task work.  `service` must never block: it
/// drains or flushes at most one batch against a non-blocking socket and
/// reports how it left things.
pub trait SocketWork: Send + Sync {
    /// Runs one bounded drain/flush pass.
    fn service(&self) -> SocketStep;
}

/// Adapts a [`SocketWork`] to the pool's task state machine and owns the
/// re-arm half of the reactor's one-shot protocol.  `stop` is the driver's
/// abort flag: the task runs one final service pass (a best-effort flush)
/// and finishes.
struct SocketTaskWork {
    work: Arc<dyn SocketWork>,
    stop: Arc<AtomicBool>,
    reactor: Arc<ReactorShared>,
    token: Token,
    /// What the socket is armed for while the task is idle.
    idle_interest: Interest,
}

impl SocketTaskWork {
    /// Re-arms the socket's one-shot registration.  Runs inside the step,
    /// *after* the service pass saw the socket run dry (or full): the
    /// kernel re-polls the socket on re-arm, so readiness that appeared in
    /// between fires at once and lands on the notify-while-running state
    /// machine — no wake can be lost, and none arrives while a drain is
    /// still making progress.
    fn arm(&self, interest: Interest) {
        match self.reactor.poller.arm(self.token, interest) {
            Ok(()) => {}
            // The driver was deregistered while this step ran (its pool is
            // stopping): no further wake is owed.
            Err(err) if err.kind() == io::ErrorKind::NotFound => {}
            Err(err) => panic!("re-arming a reactor socket failed: {err}"),
        }
    }
}

impl TaskWork for SocketTaskWork {
    fn step(&self) -> StepOutcome {
        if self.stop.load(Ordering::SeqCst) {
            let _ = self.work.service();
            return StepOutcome::Done;
        }
        match self.work.service() {
            SocketStep::Progress => StepOutcome::Progress,
            SocketStep::Idle => {
                // A send half idles on its pipe watchers alone.
                if self.idle_interest != Interest::NONE {
                    self.arm(self.idle_interest);
                }
                StepOutcome::Idle
            }
            SocketStep::Blocked => {
                self.arm(Interest {
                    writable: true,
                    ..self.idle_interest
                });
                StepOutcome::Idle
            }
        }
    }
}

struct ReactorShared {
    /// Every registered socket, carrying the task its readiness wakes.
    poller: Poller<Weak<Task>>,
    /// Profiling instruments shared with the pool; empty until telemetry
    /// is enabled on the owning runtime.
    telemetry: OnceLock<Arc<RuntimeTelemetry>>,
}

/// The running reactor: one thread for *all* registered sockets.
struct ReactorHandle {
    shared: Arc<ReactorShared>,
    join: JoinHandle<()>,
}

impl ReactorHandle {
    fn start() -> Self {
        let shared = Arc::new(ReactorShared {
            poller: Poller::new().expect("creating the reactor's epoll set and eventfd"),
            telemetry: OnceLock::new(),
        });
        let loop_shared = Arc::clone(&shared);
        let join = std::thread::Builder::new()
            .name("rapidware-reactor".to_string())
            .spawn(move || reactor_loop(&loop_shared))
            .expect("spawning the reactor thread never fails");
        Self { shared, join }
    }

    /// Wakes the reactor out of `epoll_wait` — the poller's wake-up has no
    /// other use, so the loop takes it as the order to exit — and joins it.
    fn stop(self) -> Result<(), ProxyError> {
        // Without the wake the join below would never return.
        self.shared.poller.wake().map_err(|err| {
            ProxyError::WorkerFailed(format!("socket reactor could not be woken: {err}"))
        })?;
        self.join
            .join()
            .map_err(|_| ProxyError::WorkerFailed("socket reactor".to_string()))
    }
}

/// The readiness loop: block in `epoll_wait` — no timeout, so an idle
/// proxy makes no wake-ups at all — and schedule the task of every socket
/// that fired, exactly the wake a `PipeWatcher` would deliver for a pipe.
///
/// Registrations are one-shot: a socket that fired stays disarmed until
/// its task re-arms it (see [`SocketTaskWork::arm`]), so while a drain
/// keeps reporting [`SocketStep::Progress`] the task requeues itself
/// through the pool and the reactor sleeps.
fn reactor_loop(shared: &ReactorShared) {
    let mut ready = Vec::new();
    loop {
        let stopping = shared
            .poller
            .wait(&mut ready)
            .expect("waiting on the reactor's epoll set");
        if stopping {
            return;
        }
        let woke = shared.telemetry.get().map(|telemetry| (telemetry, now_ns()));
        for task in ready.drain(..) {
            if let Some(task) = task.upgrade() {
                task.schedule();
            }
        }
        if let Some((telemetry, start)) = woke {
            telemetry.scan_ns.record(now_ns().saturating_sub(start));
        }
    }
}

/// Handle to a task registered with [`Runtime::drive_socket`]: the socket
/// analogue of a [`PooledChain`]'s control surface.
pub struct SocketDriver {
    task: Arc<Task>,
    stop: Arc<AtomicBool>,
    reactor: Arc<ReactorShared>,
    token: Token,
}

impl fmt::Debug for SocketDriver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SocketDriver")
            .field("task", &self.task)
            .field("stopping", &self.stop.load(Ordering::SeqCst))
            .finish()
    }
}

impl SocketDriver {
    /// Schedules the task now (e.g. after attaching a new egress lane).
    pub fn kick(&self) {
        self.task.schedule();
    }

    /// Wakes the task whenever `source` has data, hits EOF, or closes —
    /// the same `TaskWaker` wiring chain tasks get on their inboxes.  Use
    /// this on every pipe a send-side [`SocketWork`] drains.
    pub fn watch_source(&self, source: &DetachableReceiver<Packet>) {
        source.set_data_watcher(TaskWaker::of(&self.task));
    }

    /// `true` once the task has finished (after [`shutdown`](Self::shutdown)).
    pub fn is_done(&self) -> bool {
        self.task.is_done()
    }

    /// Stops the driver: the task runs one final service pass (best-effort
    /// flush) and finishes, and the socket is deregistered from the
    /// reactor before this returns.  Call while the runtime's workers are
    /// still running.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::WorkerFailed`] if the task cannot complete
    /// because the pool stopped first, or [`ProxyError::Transport`] if the
    /// reactor failed to deregister the socket.
    pub fn shutdown(&self) -> Result<(), ProxyError> {
        self.stop.store(true, Ordering::SeqCst);
        self.task.schedule();
        let finished = self.task.wait_finished();
        let deregistered = self.reactor.poller.remove(self.token);
        if !finished {
            return Err(ProxyError::WorkerFailed(
                "socket driver task never finished".to_string(),
            ));
        }
        deregistered
            .map(drop)
            .map_err(|err| ProxyError::Transport(format!("deregistering a reactor socket: {err}")))
    }
}

impl Drop for SocketDriver {
    fn drop(&mut self) {
        // A driver dropped without `shutdown` must not pin its socket in
        // the reactor; after `shutdown` this finds nothing to remove.
        let _ = self.reactor.poller.remove(self.token);
    }
}

// ---------------------------------------------------------------------------
// Chain tasks.
// ---------------------------------------------------------------------------

/// A filter chain plus the output its downstream pipe has not taken yet:
/// what a chain task runs, and what a session task runs for its head and
/// for every lane.  Only touched under its task's lock, so a splice lands
/// exactly between two batches.
#[derive(Default)]
struct Stage {
    chain: FilterChain,
    /// Output not forwarded yet: the back-pressure buffer (for a session
    /// head, output not fanned out yet).
    pending: Vec<Packet>,
    splices: u64,
    errors: u64,
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

    fn insert(&mut self, position: usize, filter: Box<dyn Filter>) -> Result<(), ProxyError> {
        self.chain.insert(position, filter).map_err(map_chain_error)?;
        self.splices += 1;
        Ok(())
    }

    /// Removes the filter at `position`; what it had buffered, run through
    /// the filters after it, joins `pending` ahead of all later traffic.
    fn remove(&mut self, position: usize) -> Result<Box<dyn Filter>, ProxyError> {
        let (filter, residue) = self.chain.remove(position).map_err(map_chain_error)?;
        self.pending.extend(residue);
        self.splices += 1;
        Ok(filter)
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

#[derive(Default)]
struct ChainWorkInner {
    stage: Stage,
    /// Set once the inbox reported EOF/close and the chain was flushed:
    /// only `stage.pending` remains to be forwarded.
    draining: bool,
    /// Packets a carrier route ran in place, past the inbox.
    handed_in: u64,
}

struct ChainWork {
    inner: Mutex<ChainWorkInner>,
    in_rx: DetachableReceiver<Packet>,
    out_tx: DetachableSender<Packet>,
    batch_size: usize,
}

impl ChainWork {
    /// A step's body, shared with the carrier inlet: runs one input batch
    /// and forwards the output; `false` while some of it is left pending.
    fn advance(&self, inner: &mut ChainWorkInner, batch: Vec<Packet>) -> bool {
        inner.stage.process(batch);
        inner.stage.forward(&self.out_tx)
    }
}

impl TaskWork for Arc<ChainWork> {
    fn step(&self) -> StepOutcome {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        // 1. Clear the back-pressure buffer first: nothing new may be
        //    processed while older output waits, or order would be lost.
        if !inner.stage.forward(&self.out_tx) {
            return StepOutcome::Idle;
        }
        if !inner.draining {
            // 2. Drain one batch from the inbox and run it through the chain.
            let clear = match self.in_rx.try_recv_up_to(self.batch_size) {
                Ok(batch) => self.advance(inner, batch),
                Err(TryRecvError::Empty) => return StepOutcome::Idle,
                // End of stream (or forced close): flush the chain's
                // buffered state, then drain what the flush produced.
                Err(TryRecvError::Eof) | Err(TryRecvError::Closed) => {
                    inner.stage.flush();
                    inner.draining = true;
                    inner.stage.forward(&self.out_tx)
                }
            };
            if !clear {
                return StepOutcome::Idle;
            }
        }
        if inner.draining {
            // Everything flushed after EOF: propagate end of stream.
            self.out_tx.close();
            return StepOutcome::Done;
        }
        StepOutcome::Progress
    }
}

/// A filter chain hosted on a [`Runtime`] worker pool: the whole chain is
/// one cooperative task.
///
/// The public surface is `input`/`output` endpoints, live
/// `insert`/`remove`/`move_filter`, `stats`, `shutdown`.  Reconfiguration
/// takes effect between two batches and never loses, duplicates, or
/// reorders a packet: the residue flushed out of a removed filter is
/// forwarded ahead of all later traffic.
pub struct PooledChain {
    name: String,
    /// Keeps the hosting pool alive: a chain's task can only run while its
    /// workers do, so dropping every *other* handle to the runtime must
    /// not stop the pool under a live chain.
    runtime: Arc<Runtime>,
    work: Arc<ChainWork>,
    task: Arc<Task>,
    input: DetachableSender<Packet>,
    output: DetachableReceiver<Packet>,
}

impl fmt::Debug for PooledChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PooledChain")
            .field("name", &self.name)
            .field("filters", &self.names())
            .finish()
    }
}

impl PooledChain {
    /// The name this chain was created under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The runtime hosting this chain's task (kept alive by the chain: a
    /// pooled chain can outlive every other handle to its pool).
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.runtime
    }

    /// A handle for pushing packets into the chain.
    pub fn input(&self) -> DetachableSender<Packet> {
        self.input.clone()
    }

    /// A handle for reading packets out of the chain.
    pub fn output(&self) -> DetachableReceiver<Packet> {
        self.output.clone()
    }

    /// Closes the chain input: once in-flight packets drain, the chain
    /// flushes and the output observes end of stream.
    pub fn close_input(&self) {
        self.input.close();
    }

    /// Names of the installed filters, in stream order.
    pub fn names(&self) -> Vec<String> {
        self.work.inner.lock().stage.chain.names()
    }

    /// Number of installed filters.
    pub fn len(&self) -> usize {
        self.work.inner.lock().stage.chain.len()
    }

    /// Returns `true` if no filters are installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The per-step batch size of this chain's task.
    pub fn batch_size(&self) -> usize {
        self.work.batch_size
    }

    /// Secure-channel counters summed over the installed crypto stages
    /// (all-zero when no encrypt/decrypt filter is installed).
    pub fn secure_snapshot(&self) -> rapidware_filters::SecureChannelSnapshot {
        self.work.inner.lock().stage.chain.secure_snapshot()
    }

    /// Attaches latency spans: every batch the chain task processes records
    /// into `spans`' instruments, and egress spans additionally record each
    /// packet's ingress-to-exit latency as it leaves the chain.
    pub fn set_spans(&self, spans: Arc<ChainSpans>) {
        self.work.inner.lock().stage.chain.set_spans(spans);
    }

    /// Current chain statistics.
    pub fn stats(&self) -> ChainStats {
        let inner = self.work.inner.lock();
        let packets_in = self.input.stats().items() + inner.handed_in;
        inner.stage.stats(packets_in, self.output.stats().items())
    }

    /// The chain as a carrier route's [`RouteInlet`].
    pub(crate) fn inlet(&self) -> Arc<dyn RouteInlet> {
        let work = Arc::clone(&self.work);
        let in_place = Box::new(move |run: Vec<Packet>| {
            let Some(mut inner) = work.inner.try_lock() else {
                return Err(run);
            };
            if inner.draining || !inner.stage.forward(&work.out_tx) || !work.in_rx.is_idle() {
                return Err(run);
            }
            inner.handed_in += run.len() as u64;
            Ok(!work.advance(&mut inner, run))
        });
        Arc::new(TaskInlet { task: Arc::downgrade(&self.task), in_place })
    }

    /// The chain's state, locked, while it still accepts splices.
    fn splicable(&self) -> Result<MutexGuard<'_, ChainWorkInner>, ProxyError> {
        let inner = self.work.inner.lock();
        if inner.draining || self.task.is_done() {
            return Err(ProxyError::ChainClosed);
        }
        Ok(inner)
    }

    /// Inserts `filter` at `position` while packets flow.  The insertion
    /// serialises with batch processing (it waits for the in-flight batch,
    /// bounded by `batch_size` packets) and affects every packet the task
    /// has not yet pulled from its inbox.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::PositionOutOfRange`] for a bad position or
    /// [`ProxyError::ChainClosed`] once the chain has finished.
    pub fn insert(&self, position: usize, filter: Box<dyn Filter>) -> Result<(), ProxyError> {
        self.splicable()?.stage.insert(position, filter)?;
        self.task.schedule();
        Ok(())
    }

    /// Appends `filter` after the last installed filter.
    ///
    /// # Errors
    ///
    /// Same as [`insert`](Self::insert).
    pub fn push_back(&self, filter: Box<dyn Filter>) -> Result<(), ProxyError> {
        let position = self.len();
        self.insert(position, filter)
    }

    /// Removes and returns the filter at `position`.  Anything the filter
    /// had buffered is flushed through the remaining downstream filters and
    /// forwarded ahead of later traffic.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::PositionOutOfRange`] or
    /// [`ProxyError::ChainClosed`].
    pub fn remove(&self, position: usize) -> Result<Box<dyn Filter>, ProxyError> {
        let filter = self.splicable()?.stage.remove(position)?;
        self.task.schedule();
        Ok(filter)
    }

    /// Moves the filter at `from` to position `to`.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::PositionOutOfRange`] or
    /// [`ProxyError::ChainClosed`].
    pub fn move_filter(&self, from: usize, to: usize) -> Result<(), ProxyError> {
        self.splicable()?.stage.move_filter(from, to)
    }

    /// Shuts the chain down: closes both endpoints (undrained output is
    /// discarded) and waits for the task to finish its final flush.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::WorkerFailed`] if the task did not finish
    /// within the shutdown grace period (e.g. because the runtime's workers
    /// were stopped first).
    pub fn shutdown(&self) -> Result<(), ProxyError> {
        self.input.close();
        self.output.close();
        // Both closes fire the task's watchers; all that remains is to wait
        // for the final step to observe them.
        self.task.schedule();
        if self.task.wait_finished() {
            Ok(())
        } else {
            Err(ProxyError::WorkerFailed(format!("pooled chain {}", self.name)))
        }
    }
}

// ---------------------------------------------------------------------------
// Run-to-completion carrier routes.
// ---------------------------------------------------------------------------

/// A chain or session as its carrier route's inlet.  `in_place` takes a
/// run only while the task is idle (`try_lock`: the drain never waits
/// behind a step or a splice) and caught up — inbox empty and open,
/// nothing pending, not draining — so it overtakes nothing; it counts the
/// run into the input statistics, runs a step's body on it and reports
/// whether output is left pending, or hands the run back.
struct TaskInlet {
    task: Weak<Task>,
    in_place: Box<InPlace>,
}

type InPlace = dyn Fn(Vec<Packet>) -> Result<bool, Vec<Packet>> + Send + Sync;

impl RouteInlet for TaskInlet {
    fn offer(&self, run: Vec<Packet>) -> Option<Vec<Packet>> {
        match (self.in_place)(run) {
            Err(run) => Some(run),
            Ok(pending) => {
                // The task forwards what its pipes did not take.
                if pending {
                    if let Some(task) = self.task.upgrade() {
                        task.schedule();
                    }
                }
                None
            }
        }
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
    decoder_stats: Vec<Arc<FecDecoderStats>>,
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
    /// Hands the head's output to every live lane — `Arc` clones (a
    /// refcount bump per payload) to all but the last, which takes the
    /// `Vec` itself — and runs each lane's chain on it.
    fn fan_out(&mut self) {
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
    /// task is still owed output: any live lane — a slow receiver holds
    /// the next batch back instead of growing a backlog — and, once the
    /// stream has ended, any lane at all.
    fn forward(&mut self) -> bool {
        let mut clear = true;
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
    fn step(&self) -> StepOutcome {
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
    /// Keeps the hosting pool alive, as [`PooledChain`]'s does.
    _runtime: Arc<Runtime>,
    work: Arc<SessionWork>,
    task: Arc<Task>,
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

    /// The endpoint the upstream source writes into (feeds the head chain).
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
            decoder_stats: Vec::new(),
        });
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
    /// chain at `position` — the per-receiver adaptation path.  The
    /// built-in `fec-decoder` kind keeps its stats handle so per-lane
    /// `recovered` counts surface in the status (a registry override of
    /// that kind is installed as-is, without them).
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
        let (filter, decoder_stats) = build_lane_filter(&self.registry, spec)?;
        let mut inner = self.splicable()?;
        let lane = find_lane_mut(&mut inner.live, lane)?;
        lane.stage.insert(position, filter)?;
        lane.decoder_stats.extend(decoder_stats);
        Ok(())
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
        let mut secure = inner.head.chain.secure_snapshot();
        for lane in inner.live.iter().chain(inner.retired.iter()) {
            secure.merge(lane.stage.chain.secure_snapshot());
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
                        recovered: lane.decoder_stats.iter().map(|s| s.recovered()).sum(),
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
        let work = Arc::clone(&self.work);
        let in_place = Box::new(move |run: Vec<Packet>| {
            let Some(mut inner) = work.inner.try_lock() else {
                return Err(run);
            };
            if inner.draining || !inner.forward() || !work.in_rx.is_idle() {
                return Err(run);
            }
            inner.handed_in += run.len() as u64;
            Ok(!inner.advance(run))
        });
        Arc::new(TaskInlet { task: Arc::downgrade(&self.task), in_place })
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
    use rapidware_filters::{DropEveryNth, FecDecoderFilter, FecEncoderFilter, NullFilter};
    use rapidware_packet::{PacketKind, SeqNo, StreamId};

    fn packet(seq: u64) -> Packet {
        Packet::new(
            StreamId::new(1),
            SeqNo::new(seq),
            PacketKind::AudioData,
            vec![(seq % 251) as u8; 64],
        )
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
        let chain = runtime.add_chain("s");
        let input = chain.input();
        let output = chain.output();
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
        let chain = runtime.add_chain("fec");
        chain.push_back(Box::new(FecEncoderFilter::fec_6_4().unwrap())).unwrap();
        chain.push_back(Box::new(DropEveryNth::new(5))).unwrap();
        chain.push_back(Box::new(FecDecoderFilter::fec_6_4().unwrap())).unwrap();
        let input = chain.input();
        let output = chain.output();
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
    fn live_insert_and_remove_lose_nothing() {
        let runtime = Runtime::start(RuntimeConfig::new(2, 4));
        let chain = runtime.add_chain("live");
        let input = chain.input();
        let output = chain.output();
        let producer = {
            let input = input.clone();
            std::thread::spawn(move || {
                for seq in 0..2_000u64 {
                    input.send(packet(seq)).unwrap();
                }
            })
        };
        let consumer = std::thread::spawn(move || collect_all(&output));
        chain.insert(0, Box::new(NullFilter::new())).unwrap();
        chain.push_back(Box::new(NullFilter::new())).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let removed = chain.remove(0).unwrap();
        assert_eq!(removed.name(), "null");
        producer.join().unwrap();
        chain.close_input();
        let received = consumer.join().unwrap();
        assert_eq!(received.len(), 2_000, "no packet lost or duplicated");
        for (i, p) in received.iter().enumerate() {
            assert_eq!(p.seq().value(), i as u64, "order preserved across splices");
        }
        assert_eq!(chain.stats().splices, 3);
        chain.shutdown().unwrap();
        runtime.shutdown().unwrap();
    }

    #[test]
    fn backpressure_parks_the_task_instead_of_spinning() {
        // Tiny pipes, no consumer: the task must go idle (not busy-loop)
        // once the outbox fills, then finish the stream when the consumer
        // appears.
        let runtime = Runtime::start(RuntimeConfig::new(1, 4));
        let chain = runtime.add_chain_with("bp", 8, 4);
        let input = chain.input();
        let output = chain.output();
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
        let chains: Vec<PooledChain> =
            (0..32).map(|i| runtime.add_chain(format!("c{i}"))).collect();
        let consumers: Vec<_> = chains
            .iter()
            .map(|chain| {
                let rx = chain.output();
                std::thread::spawn(move || collect_all(&rx).len())
            })
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
        assert_eq!(runtime.live_tasks(), 0, "no leaked chain tasks");
        runtime.shutdown().unwrap();
    }

    #[test]
    fn an_inlet_flipping_between_in_place_and_queued_delivers_every_packet_once_in_order() {
        // This thread plays the carrier's drain — offer each run, send what
        // is handed back through the inbox — and the consumer: it empties
        // the 4-slot output only every eighth run, so the chain keeps going
        // from caught up (runs taken in place) to backed up (runs queued).
        const RUNS: u64 = 1_500;
        const RUN: u64 = 3;
        let runtime = Runtime::start(RuntimeConfig::new(2, 8));
        let chain = runtime.add_chain_with("flip", 4, 8);
        let inlet = chain.inlet();
        let input = chain.input();
        let output = chain.output();
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
                collect(&mut delivered);
            }
        }
        chain.close_input();
        delivered.extend(collect_all(&chain.output()).iter().map(|p| p.seq().value()));
        let misplaced = delivered.iter().zip(0..).position(|(&seq, at)| seq != at);
        assert_eq!((delivered.len() as u64, misplaced), (RUNS * RUN, None), "once each, in order");
        assert!(in_place > 0 && queued > 0, "in place {in_place}, queued {queued}");
        assert_eq!(chain.stats().packets_in, RUNS * RUN, "both paths count their input");
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
        let chain = runtime.add_chain("v");
        assert!(matches!(
            chain.insert(3, Box::new(NullFilter::new())),
            Err(ProxyError::PositionOutOfRange { .. })
        ));
        assert!(matches!(chain.remove(0), Err(ProxyError::PositionOutOfRange { .. })));
        chain.shutdown().unwrap();
        assert!(matches!(
            chain.insert(0, Box::new(NullFilter::new())),
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
        let chain = runtime.add_chain("c");
        assert_eq!(chain.batch_size(), 7);
        assert!(!format!("{chain:?}").is_empty());
        let session = runtime.add_session("s");
        assert!(!format!("{session:?}").is_empty());
        assert_eq!(session.lane_count(), 0);
        session.shutdown().unwrap();
        chain.shutdown().unwrap();
        runtime.shutdown().unwrap();
    }

    #[test]
    fn zero_values_are_clamped() {
        let config = RuntimeConfig::new(0, 0);
        assert_eq!(config.shards, 1);
        assert_eq!(config.batch_size, 1);
    }

    // -- The reactor's wake protocol ---------------------------------------
    //
    // Each test scripts a fake `SocketWork` by step number and follows it
    // through a channel; the only clock is the bound on a genuine hang.

    const HANG: Duration = Duration::from_secs(30);

    /// A `SocketWork` whose `n`-th service pass runs `script(n, socket)`
    /// and then reports `n` to the test.
    struct ScriptedWork<F> {
        socket: Arc<UdpSocket>,
        script: F,
        passes: AtomicU64,
        report: Mutex<std::sync::mpsc::Sender<u64>>,
    }

    impl<F: Fn(u64, &UdpSocket) -> SocketStep + Send + Sync> SocketWork for ScriptedWork<F> {
        fn service(&self) -> SocketStep {
            let pass = self.passes.fetch_add(1, Ordering::SeqCst);
            let step = (self.script)(pass, &self.socket);
            let _ = self.report.lock().send(pass);
            step
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

    fn drive_scripted(
        runtime: &Arc<Runtime>,
        socket: &Arc<UdpSocket>,
        interest: SocketInterest,
        script: impl Fn(u64, &UdpSocket) -> SocketStep + Send + Sync + 'static,
    ) -> (SocketDriver, std::sync::mpsc::Receiver<u64>) {
        let (report, passes) = std::sync::mpsc::channel();
        let work = Arc::new(ScriptedWork {
            socket: Arc::clone(socket),
            script,
            passes: AtomicU64::new(0),
            report: Mutex::new(report),
        });
        (runtime.drive_socket(Arc::clone(socket), interest, work), passes)
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
            drive_scripted(&runtime, &socket, SocketInterest::Readable, move |_, socket| {
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
        let (driver, passes) =
            drive_scripted(&runtime, &socket, SocketInterest::Writable, |pass, _| {
                if pass == 0 {
                    SocketStep::Blocked
                } else {
                    SocketStep::Idle
                }
            });
        assert_eq!(passes.recv_timeout(HANG), Ok(0), "the initial kick");
        // Nothing kicks the task and nothing is readable: only EPOLLOUT on
        // the (empty, hence writable) socket can deliver this step.
        assert_eq!(passes.recv_timeout(HANG), Ok(1));
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
            drive_scripted(&runtime, &socket, SocketInterest::Readable, |pass, socket| {
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
        // Joins the reactor, so every sample it took is in the histogram.
        runtime.shutdown().unwrap();
        assert!(
            reactor_wakes(&registry) <= 1,
            "{BUSY} busy passes over a readable socket woke the reactor {} times",
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
        assert_eq!(proxy.runtime().unwrap().reactor_sockets(), 2);
        // The observation window, not a synchronisation: the old reactor
        // would have ticked ~800 times in it.
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(reactor_wakes(&registry), 0, "no traffic, no wake-ups");
        proxy.shutdown().unwrap();
    }
}
