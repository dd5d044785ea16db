//! The detachable pipe itself: [`DetachableSender`] and [`DetachableReceiver`].
//!
//! The implementation keeps the structure of the paper's
//! `DetachableOutputStream` / `DetachableInputStream` pair:
//!
//! * the item buffer lives on the **receiver** side (the DIS buffer);
//! * the sender holds a reference to its sink (the `DOS.sink` field);
//! * closing the sender is a clean end of stream the reader sees once the
//!   buffer drains, and closing the receiver fails every later send.
//!
//! The paper's pause → drain → reconnect splice is not a pipe operation
//! here: the proxy splices a filter into a session's chain between two
//! batches under the session's lock, so a pipe never changes its peer.
//!
//! Beside the blocking calls each pipe offers non-blocking ones
//! (`try_send_batch`, `try_recv_up_to`) and [`PipeWatcher`] hooks for
//! cooperative tasks.  Every send, blocking or not, runs one send core
//! (closed? then push into the sink) and every receive one receive core
//! (wait and pop), so the hand-off protocol and its wake and counting rules
//! are written once per side.  Wakes go only where someone waits: a
//! condvar notify with no waiter costs no syscall (see the `parking_lot`
//! shim), and a pop fires the space watcher only after a `try_send_batch`
//! was refused room, so a writer that keeps up is not re-woken per item.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::error::{RecvError, SendError, TryRecvError};
use crate::stats::PipeStats;

/// Default buffer capacity (in items) of a detachable pipe created with
/// [`pipe`] when the caller does not care about tuning back-pressure.
pub const DEFAULT_CAPACITY: usize = 64;

/// A readiness hook installed on a pipe endpoint.
///
/// Watchers are the event-driven alternative to the blocking condvar waits:
/// a cooperative scheduler (such as the sharded runtime in
/// `rapidware-proxy`) registers a watcher and is *notified* when the pipe
/// may have become usable again, instead of parking a whole OS thread on
/// the pipe.  Notifications are **level-assisted edge triggers**:
///
/// * a watcher may be notified spuriously (the condition may already have
///   been consumed by the time it runs), but
/// * it is never *missed*: registration fires immediately when the watched
///   condition already holds, and every state transition that could unblock
///   the watcher fires it after the pipe's internal lock is released.
///
/// Implementations must be cheap and must never block or re-enter the pipe
/// that notified them (they run on the thread that triggered the
/// transition).
pub trait PipeWatcher: Send + Sync {
    /// Called when the watched endpoint may be ready.
    fn notify(&self);
}

// ---------------------------------------------------------------------------
// Receiver-side shared state (the DIS buffer).
// ---------------------------------------------------------------------------

struct RecvInner<T> {
    queue: VecDeque<T>,
    capacity: usize,
    /// Set when the sender closed the stream: later sends fail, and once
    /// the queue drains `recv` reports a clean end of stream.
    eof: bool,
    /// Set when every receiver handle has been dropped or `close` was called.
    closed: bool,
    /// Notified when items (or EOF/close) become observable to a reader.
    data_watcher: Option<Arc<dyn PipeWatcher>>,
    /// Notified when buffer space (or close) becomes observable to a writer
    /// that was refused room.
    space_watcher: Option<Arc<dyn PipeWatcher>>,
    /// A `try_send_batch` was refused room since the space watcher last
    /// fired: the next pop fires it.
    refused: bool,
}

struct RecvShared<T> {
    inner: Mutex<RecvInner<T>>,
    /// Signalled when an item is pushed or the stream state changes.
    not_empty: Condvar,
    /// Signalled when an item is popped (space is available again).
    not_full: Condvar,
    /// Number of live `DetachableReceiver` handles sharing this state.
    handles: AtomicUsize,
    stats: PipeStats,
}

impl<T> RecvShared<T> {
    /// Wakes who waits for items after a push: a blocked reader and the
    /// data watcher.
    fn wake_reader(&self, watcher: Option<Arc<dyn PipeWatcher>>) {
        self.not_empty.notify_one();
        if let Some(watcher) = watcher {
            watcher.notify();
        }
    }

    /// Releases `r` after a pop (`many`: possibly several slots freed) and
    /// wakes who may be waiting for it: blocked senders, and the space
    /// watcher only if a `try_send_batch` was refused room since it last
    /// fired — a producer that was never refused is not waiting for space.
    fn popped(&self, mut r: MutexGuard<'_, RecvInner<T>>, many: bool) {
        let watcher = if std::mem::take(&mut r.refused) { r.space_watcher.clone() } else { None };
        drop(r);
        if many {
            self.not_full.notify_all();
        } else {
            self.not_full.notify_one();
        }
        if let Some(watcher) = watcher {
            watcher.notify();
        }
    }
}

// ---------------------------------------------------------------------------
// Sender-side shared state (the DOS).
// ---------------------------------------------------------------------------

struct SendShared<T> {
    /// The receiver this sender delivers into (the paper's `DOS.sink`).
    sink: Arc<RecvShared<T>>,
    handles: AtomicUsize,
    stats: PipeStats,
}

/// What one send hands the send core: a single item (`Option`, so a
/// per-item send allocates nothing) or a batch (`Vec`).  What is not
/// delivered stays in it and goes back to the caller.
trait Items<T> {
    fn count(&self) -> usize;

    /// Moves the first `n` items to the back of `queue`.
    fn move_front(&mut self, n: usize, queue: &mut VecDeque<T>);
}

impl<T> Items<T> for Option<T> {
    fn count(&self) -> usize {
        usize::from(self.is_some())
    }

    fn move_front(&mut self, n: usize, queue: &mut VecDeque<T>) {
        if n > 0 {
            queue.extend(self.take());
        }
    }
}

impl<T> Items<T> for Vec<T> {
    fn count(&self) -> usize {
        self.len()
    }

    fn move_front(&mut self, n: usize, queue: &mut VecDeque<T>) {
        queue.extend(self.drain(..n));
    }
}

/// The writing half of a detachable pipe (the paper's
/// `DetachableOutputStream`).
///
/// Cloning a `DetachableSender` yields another handle to the *same* sender,
/// so several producers can feed one receiver.  The sender closes when the
/// last handle is dropped or [`close`](Self::close) is called explicitly;
/// a handle made [`into_uncounted`](Self::into_uncounted) does not count.
pub struct DetachableSender<T> {
    shared: Arc<SendShared<T>>,
    /// Whether this handle keeps the sender open (see `into_uncounted`).
    counted: bool,
}

/// The reading half of a detachable pipe (the paper's
/// `DetachableInputStream`).
///
/// The buffer of in-flight items lives on this side.  Cloning yields another
/// handle to the same receiver; the receiver closes when the last handle is
/// dropped or [`close`](Self::close) is called.
pub struct DetachableReceiver<T> {
    shared: Arc<RecvShared<T>>,
}

impl<T> fmt::Debug for DetachableSender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.shared.sink.inner.lock();
        f.debug_struct("DetachableSender")
            .field("closed", &inner.eof)
            .field("receiver_closed", &inner.closed)
            .finish()
    }
}

impl<T> fmt::Debug for DetachableReceiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.shared.inner.lock();
        f.debug_struct("DetachableReceiver")
            .field("buffered", &inner.queue.len())
            .field("capacity", &inner.capacity)
            .field("eof", &inner.eof)
            .field("closed", &inner.closed)
            .finish()
    }
}

impl<T> Clone for DetachableSender<T> {
    /// Another handle to the same sender, counted whether or not `self` is.
    fn clone(&self) -> Self {
        self.shared.handles.fetch_add(1, Ordering::SeqCst);
        Self {
            shared: Arc::clone(&self.shared),
            counted: true,
        }
    }
}

impl<T> Clone for DetachableReceiver<T> {
    fn clone(&self) -> Self {
        self.shared.handles.fetch_add(1, Ordering::SeqCst);
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for DetachableSender<T> {
    fn drop(&mut self) {
        if self.counted && self.shared.handles.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.close_impl();
        }
    }
}

impl<T> Drop for DetachableReceiver<T> {
    fn drop(&mut self) {
        if self.shared.handles.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.close_impl();
        }
    }
}

/// Creates a connected sender/receiver pair with the given buffer capacity.
///
/// This is the analogue of constructing a DOS/DIS pair and calling the
/// paper's `connect()` on them.
///
/// # Panics
///
/// Panics if `capacity` is zero; a zero-capacity pipe could never transfer
/// any item.
pub fn pipe<T>(capacity: usize) -> (DetachableSender<T>, DetachableReceiver<T>) {
    assert!(capacity > 0, "detachable pipe capacity must be non-zero");
    let receiver = DetachableReceiver {
        shared: Arc::new(RecvShared {
            inner: Mutex::new(RecvInner {
                queue: VecDeque::with_capacity(capacity.min(1024)),
                capacity,
                eof: false,
                closed: false,
                data_watcher: None,
                space_watcher: None,
                refused: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            handles: AtomicUsize::new(1),
            stats: PipeStats::new(),
        }),
    };
    let sender = DetachableSender {
        shared: Arc::new(SendShared {
            sink: Arc::clone(&receiver.shared),
            handles: AtomicUsize::new(1),
            stats: PipeStats::new(),
        }),
        counted: true,
    };
    (sender, receiver)
}

impl<T> DetachableSender<T> {
    /// Delivers `item` to the receiver.
    ///
    /// If the receiver's buffer is full the call **blocks** until space is
    /// available (back-pressure).
    ///
    /// # Errors
    ///
    /// Returns [`SendError::Closed`] if this sender has been closed, or
    /// [`SendError::ReceiverClosed`] if the receiver was closed; in both
    /// cases the item is handed back inside the error.
    pub fn send(&self, item: T) -> Result<(), SendError<T>> {
        self.send_items(Some(item), true)
            .map(drop)
            .map_err(|err| err.map(|item| item.expect("an undelivered item is handed back")))
    }

    /// Delivers a whole batch to the receiver with one lock acquisition
    /// (plus one per back-pressure stall).
    ///
    /// Semantically equivalent to calling [`send`](Self::send) for each
    /// item in order — the same back-pressure against a full receiver
    /// buffer — but the per-item mutex and wake-up costs are paid once per
    /// batch.  This is the sending half of the batched data plane; the
    /// receiving half is [`DetachableReceiver::recv_up_to`].
    ///
    /// ```
    /// use rapidware_streams::pipe;
    ///
    /// let (tx, rx) = pipe::<u32>(64);
    /// tx.send_batch((0..5).collect()).unwrap();
    /// assert_eq!(rx.recv_up_to(8).unwrap(), vec![0, 1, 2, 3, 4]);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`SendError::Closed`] or [`SendError::ReceiverClosed`]
    /// carrying the items that were **not** delivered (items pushed before
    /// the receiver closed stay delivered, exactly as with per-item sends).
    pub fn send_batch(&self, items: Vec<T>) -> Result<(), SendError<Vec<T>>> {
        if items.is_empty() {
            return Ok(());
        }
        self.send_items(items, true).map(drop)
    }

    /// Delivers as much of `items` as currently fits, **without blocking**,
    /// and returns the items that were not delivered.
    ///
    /// This is the cooperative-scheduler counterpart of
    /// [`send_batch`](Self::send_batch): instead of parking the calling
    /// thread on back-pressure, the call pushes the longest prefix that
    /// fits and hands the rest back so the caller can retry when its
    /// [`PipeWatcher`] fires.  An empty returned `Vec` means everything was
    /// delivered.  Items delivered by this call are counted in the pipe
    /// stats before the receiver lock is released, so an item a consumer
    /// has received is always already counted.
    ///
    /// ```
    /// use rapidware_streams::pipe;
    ///
    /// let (tx, rx) = pipe::<u32>(2);
    /// let leftover = tx.try_send_batch(vec![0, 1, 2, 3]).unwrap();
    /// assert_eq!(leftover, vec![2, 3], "only two slots were available");
    /// assert_eq!(rx.recv_up_to(8).unwrap(), vec![0, 1]);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`SendError::Closed`] if this sender has been closed or
    /// [`SendError::ReceiverClosed`] if the receiver was closed, carrying
    /// the undelivered items.
    pub fn try_send_batch(&self, items: Vec<T>) -> Result<Vec<T>, SendError<Vec<T>>> {
        if items.is_empty() {
            return Ok(items);
        }
        self.send_items(items, false)
    }

    /// The send core under every send: closed? then push into the sink.
    ///
    /// Fills the receiver's queue to capacity, then hands the rest back
    /// (setting `refused`, so the next pop fires the space watcher), waits
    /// on `not_full` when `block` is set, or returns
    /// [`SendError::ReceiverClosed`] once the receiver is closed.  Returns
    /// what was not delivered, which only a non-blocking send leaves
    /// without error.
    fn send_items<I: Items<T>>(&self, mut items: I, block: bool) -> Result<I, SendError<I>> {
        let sink = &*self.shared.sink;
        let mut r = sink.inner.lock();
        if r.eof {
            return Err(SendError::Closed(items));
        }
        loop {
            if r.closed {
                return Err(SendError::ReceiverClosed(items));
            }
            let pushed = items.count().min(r.capacity - r.queue.len());
            items.move_front(pushed, &mut r.queue);
            // Counted before the lock is released (here or by the wait
            // below): a consumer that popped one of these items takes the
            // same lock afterwards, so received implies counted.
            let woken = (pushed > 0).then(|| {
                sink.stats.record_items(pushed as u64);
                self.shared.stats.record_items(pushed as u64);
                r.data_watcher.clone()
            });
            let done = items.count() == 0;
            if done || !block {
                r.refused |= !done;
                drop(r);
                if let Some(watcher) = woken {
                    sink.wake_reader(watcher);
                }
                if !done {
                    self.shared.stats.record_blocked_send();
                }
                return Ok(items);
            }
            // Full with items left: wake the consumer and wait for space.
            if let Some(watcher) = woken {
                sink.wake_reader(watcher);
            }
            self.shared.stats.record_blocked_send();
            sink.not_full.wait(&mut r);
        }
    }

    /// Closes the sender.  The receiver observes a clean end of stream once
    /// its buffer drains.  Subsequent sends fail with
    /// [`SendError::Closed`].
    pub fn close(&self) {
        self.close_impl();
    }

    fn close_impl(&self) {
        let sink = &*self.shared.sink;
        let mut r = sink.inner.lock();
        if r.eof {
            return;
        }
        r.eof = true;
        let watcher = r.data_watcher.clone();
        drop(r);
        sink.not_empty.notify_all();
        if let Some(watcher) = watcher {
            watcher.notify();
        }
    }

    /// Lifetime transfer statistics for this sender.
    pub fn stats(&self) -> PipeStats {
        self.shared.stats.clone()
    }

    /// Turns this handle into one that does not keep the sender open: the
    /// sender closes once every *counted* handle is dropped, or on
    /// [`close`](Self::close).  The handle still sends, closes, reads the
    /// stats and — by `clone` — hands out ordinary, counted handles.  What
    /// it is for: an owner that hands producers their senders but is no
    /// producer itself (a session's input), so that the producers alone
    /// decide when the stream ends.  Until one is handed out, the sender
    /// stays open.
    ///
    /// ```
    /// use rapidware_streams::{pipe, TryRecvError};
    ///
    /// let (tx, rx) = pipe::<u32>(4);
    /// let owner = tx.into_uncounted();
    /// let producer = owner.clone();
    /// producer.send(7).unwrap();
    /// drop(producer);
    /// assert_eq!(rx.recv().unwrap(), 7);
    /// assert!(matches!(rx.try_recv(), Err(TryRecvError::Eof)));
    /// ```
    pub fn into_uncounted(mut self) -> Self {
        if std::mem::replace(&mut self.counted, false) {
            self.shared.handles.fetch_sub(1, Ordering::SeqCst);
        }
        self
    }
}

impl<T> DetachableReceiver<T> {
    /// Blocks until an item is available and returns it.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError::Eof`] after the sender closed and the buffer
    /// drained, or [`RecvError::Closed`] if the receiver was closed.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.pop(Wait::Forever, false, pop_one).map_err(ended)
    }
    /// Receives up to `max` buffered items with a single lock acquisition,
    /// blocking only for the first.
    ///
    /// This is the batched data plane's drain operation: a consumer that
    /// calls `recv` in a loop pays one mutex acquisition (and possibly one
    /// condvar wake-up) per item, while `recv_up_to` moves everything
    /// currently buffered — capped at `max` — in one critical section.  The
    /// returned batch preserves arrival order and is never empty.
    ///
    /// ```
    /// use rapidware_streams::pipe;
    ///
    /// let (tx, rx) = pipe::<u32>(64);
    /// for item in 0..10 {
    ///     tx.send(item).unwrap();
    /// }
    /// let batch = rx.recv_up_to(8).unwrap();
    /// assert_eq!(batch, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    /// assert_eq!(rx.recv_up_to(8).unwrap(), vec![8, 9]);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`RecvError::Eof`] after the sender closed and the buffer
    /// drained, or [`RecvError::Closed`] if the receiver was closed.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    pub fn recv_up_to(&self, max: usize) -> Result<Vec<T>, RecvError> {
        assert!(max > 0, "recv_up_to needs a non-zero batch size");
        self.pop(Wait::Forever, true, pop_up_to(max)).map_err(ended)
    }

    /// Receives up to `max` buffered items with a single lock acquisition,
    /// **without blocking**.
    ///
    /// This is the cooperative-scheduler counterpart of
    /// [`recv_up_to`](Self::recv_up_to): where a blocking reader parks its
    /// thread on an empty pipe, a pooled session task calls `try_recv_up_to`,
    /// and — when it reports [`TryRecvError::Empty`] — goes idle until the
    /// receiver's data [`PipeWatcher`] fires.  The returned batch preserves
    /// arrival order and is never empty.
    ///
    /// ```
    /// use rapidware_streams::{pipe, TryRecvError};
    ///
    /// let (tx, rx) = pipe::<u32>(8);
    /// assert_eq!(rx.try_recv_up_to(4).unwrap_err(), TryRecvError::Empty);
    /// tx.send_batch(vec![0, 1, 2]).unwrap();
    /// assert_eq!(rx.try_recv_up_to(2).unwrap(), vec![0, 1]);
    /// assert_eq!(rx.try_recv_up_to(2).unwrap(), vec![2]);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`TryRecvError::Empty`] if nothing is buffered (but the
    /// stream is still live), [`TryRecvError::Eof`] after the sender
    /// closed and the buffer drained, or [`TryRecvError::Closed`] if
    /// the receiver was closed.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    pub fn try_recv_up_to(&self, max: usize) -> Result<Vec<T>, TryRecvError> {
        assert!(max > 0, "try_recv_up_to needs a non-zero batch size");
        self.pop(Wait::Never, true, pop_up_to(max))
    }

    /// Like [`recv`](Self::recv) but gives up after `timeout`.
    ///
    /// # Errors
    ///
    /// Returns [`TryRecvError::Empty`] on timeout, and the usual end-of-stream
    /// or closed errors otherwise.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, TryRecvError> {
        self.pop(Wait::Until(Instant::now() + timeout), false, pop_one)
    }

    /// Returns an item if one is immediately available.
    ///
    /// # Errors
    ///
    /// Returns [`TryRecvError::Empty`] if the buffer is empty (but the stream
    /// is still live), [`TryRecvError::Eof`] on clean end of stream, or
    /// [`TryRecvError::Closed`] if the receiver is closed.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        self.pop(Wait::Never, false, pop_one)
    }

    /// The receive core under every receive: pops with `take` once an item
    /// is buffered, waiting on `not_empty` as `wait` allows, and reports a
    /// closed receiver, then a drained end of stream, then an empty queue.
    /// `many` marks a pop that may free several slots (every blocked sender
    /// is woken, not one).
    fn pop<R>(
        &self,
        wait: Wait,
        many: bool,
        take: impl FnOnce(&mut VecDeque<T>) -> R,
    ) -> Result<R, TryRecvError> {
        let mut r = self.shared.inner.lock();
        loop {
            if !r.queue.is_empty() {
                let popped = take(&mut r.queue);
                self.shared.popped(r, many);
                return Ok(popped);
            }
            if r.closed {
                return Err(TryRecvError::Closed);
            }
            if r.eof {
                return Err(TryRecvError::Eof);
            }
            match wait {
                Wait::Never => return Err(TryRecvError::Empty),
                Wait::Forever => self.shared.not_empty.wait(&mut r),
                Wait::Until(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(TryRecvError::Empty);
                    }
                    self.shared.not_empty.wait_for(&mut r, deadline - now);
                }
            }
        }
    }

    /// Number of items currently buffered (the paper's `available()`).
    pub fn available(&self) -> usize {
        self.shared.inner.lock().queue.len()
    }

    /// Returns `true` if no items are buffered.
    pub fn is_empty(&self) -> bool {
        self.available() == 0
    }

    /// Returns `true` while nothing is buffered and the stream has neither
    /// ended nor been closed: a consumer handed an item from elsewhere now
    /// overtakes nothing this pipe still owes it.
    pub fn is_idle(&self) -> bool {
        let r = self.shared.inner.lock();
        r.queue.is_empty() && !r.eof && !r.closed
    }

    /// Closes the receiver.  Blocked and future senders observe
    /// [`SendError::ReceiverClosed`]; buffered items are dropped.
    pub fn close(&self) {
        self.close_impl();
    }

    fn close_impl(&self) {
        let mut r = self.shared.inner.lock();
        if r.closed {
            return;
        }
        r.closed = true;
        r.queue.clear();
        let data_watcher = r.data_watcher.clone();
        let space_watcher = r.space_watcher.clone();
        drop(r);
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        // Both sides of a cooperative pipeline must observe the close: a
        // reader task to stop waiting for data, a writer task to fail fast
        // instead of waiting for space that will never appear.
        if let Some(watcher) = data_watcher {
            watcher.notify();
        }
        if let Some(watcher) = space_watcher {
            watcher.notify();
        }
    }

    /// Lifetime transfer statistics for this receiver.
    pub fn stats(&self) -> PipeStats {
        self.shared.stats.clone()
    }

    /// Installs (or replaces) the data-readiness watcher of this receiver.
    ///
    /// The watcher is notified after items are delivered into the buffer,
    /// when the sender closes (EOF becomes observable), and when
    /// the receiver itself is closed.  If any of those conditions already
    /// holds at registration time the watcher fires immediately, so a
    /// consumer that registers *after* items arrived can never sleep
    /// through them — the missed-notify window a bare condition variable
    /// would have here is closed by design.
    pub fn set_data_watcher(&self, watcher: Arc<dyn PipeWatcher>) {
        let fire = {
            let mut r = self.shared.inner.lock();
            let fire = !r.queue.is_empty() || r.eof || r.closed;
            r.data_watcher = Some(Arc::clone(&watcher));
            fire
        };
        if fire {
            watcher.notify();
        }
    }

    /// Installs (or replaces) the space-readiness watcher of this receiver.
    ///
    /// The watcher is for a cooperative writer that parks when
    /// [`try_send_batch`](DetachableSender::try_send_batch) hands items
    /// back.  It is notified on the first pop after such a refusal (buffer
    /// space opened up for a writer that is waiting for it) — a pop that
    /// follows no refusal fires nothing, so a writer that keeps up is not
    /// woken once per consumed item — and whenever the receiver is closed
    /// (writers should fail fast).  If the buffer already has free space —
    /// or the receiver is already closed — at registration time, the
    /// watcher fires immediately.  Blocking senders wait on the pipe
    /// itself and need no watcher.
    pub fn set_space_watcher(&self, watcher: Arc<dyn PipeWatcher>) {
        let fire = {
            let mut r = self.shared.inner.lock();
            let fire = r.queue.len() < r.capacity || r.closed;
            r.space_watcher = Some(Arc::clone(&watcher));
            fire
        };
        if fire {
            watcher.notify();
        }
    }
}

/// How long a receive waits for an item.
#[derive(Clone, Copy)]
enum Wait {
    Never,
    Forever,
    Until(Instant),
}

/// The single-item pop of the receive core (which pops only a non-empty
/// queue).
fn pop_one<T>(queue: &mut VecDeque<T>) -> T {
    queue.pop_front().expect("the receive core pops a non-empty queue")
}

/// The batch pop of the receive core: up to `max` items, in order.
fn pop_up_to<T>(max: usize) -> impl FnOnce(&mut VecDeque<T>) -> Vec<T> {
    move |queue| {
        let take = queue.len().min(max);
        queue.drain(..take).collect()
    }
}

/// A blocking receive's error: it waits out an empty queue, so only the
/// stream's end or the receiver's close reaches the caller.
fn ended(err: TryRecvError) -> RecvError {
    match err {
        TryRecvError::Closed => RecvError::Closed,
        TryRecvError::Eof => RecvError::Eof,
        TryRecvError::Empty => unreachable!("a blocking receive waits while the queue is empty"),
    }
}

/// Iterator adapter: iterating a receiver yields items until end of stream
/// or close.
impl<T> IntoIterator for DetachableReceiver<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;

    fn into_iter(self) -> IntoIter<T> {
        IntoIter { receiver: self }
    }
}

/// Blocking iterator over the items of a [`DetachableReceiver`].
#[derive(Debug)]
pub struct IntoIter<T> {
    receiver: DetachableReceiver<T>,
}

impl<T> Iterator for IntoIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.receiver.recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn basic_send_recv_in_order() {
        let (tx, rx) = pipe::<u32>(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(rx.recv().unwrap(), i);
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_panics() {
        let _ = pipe::<u8>(0);
    }

    #[test]
    fn close_propagates_eof_after_drain() {
        let (tx, rx) = pipe::<u8>(4);
        tx.send(7).unwrap();
        tx.close();
        assert_eq!(rx.recv().unwrap(), 7);
        assert_eq!(rx.recv().unwrap_err(), RecvError::Eof);
    }

    #[test]
    fn drop_of_last_sender_is_eof() {
        let (tx, rx) = pipe::<u8>(4);
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        drop(tx);
        // Still one live handle: no EOF yet.
        assert_eq!(rx.try_recv().unwrap(), 1);
        assert_eq!(rx.try_recv().unwrap_err(), TryRecvError::Empty);
        drop(tx2);
        assert_eq!(rx.recv().unwrap_err(), RecvError::Eof);
    }

    #[test]
    fn send_after_close_returns_item() {
        let (tx, _rx) = pipe::<String>(4);
        tx.close();
        let err = tx.send("hello".to_string()).unwrap_err();
        assert_eq!(err.into_inner(), "hello");
    }

    #[test]
    fn send_to_closed_receiver_errors() {
        let (tx, rx) = pipe::<u8>(4);
        rx.close();
        assert!(matches!(
            tx.send(1).unwrap_err(),
            SendError::ReceiverClosed(1)
        ));
    }

    #[test]
    fn backpressure_blocks_and_resumes() {
        let (tx, rx) = pipe::<u32>(2);
        tx.send(0).unwrap();
        tx.send(1).unwrap();
        let producer = thread::spawn(move || {
            // This send must block until the consumer makes space.
            tx.send(2).unwrap();
            tx.stats().blocked_sends()
        });
        thread::sleep(Duration::from_millis(50));
        assert_eq!(rx.recv().unwrap(), 0);
        let blocked = producer.join().unwrap();
        assert!(blocked >= 1, "producer should have blocked at least once");
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
    }

    #[test]
    fn recv_up_to_batches_preserve_order_and_eof() {
        let (tx, rx) = pipe::<u32>(16);
        for item in 0..10 {
            tx.send(item).unwrap();
        }
        assert_eq!(rx.recv_up_to(4).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(rx.recv_up_to(100).unwrap(), vec![4, 5, 6, 7, 8, 9]);
        tx.send(10).unwrap();
        tx.close();
        assert_eq!(rx.recv_up_to(4).unwrap(), vec![10]);
        assert_eq!(rx.recv_up_to(4).unwrap_err(), RecvError::Eof);
    }

    #[test]
    fn recv_up_to_blocks_until_first_item() {
        let (tx, rx) = pipe::<u32>(4);
        let producer = thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            tx.send(7).unwrap();
        });
        // Nothing buffered yet: the call must block, then return the item.
        assert_eq!(rx.recv_up_to(8).unwrap(), vec![7]);
        producer.join().unwrap();
    }

    #[test]
    fn recv_up_to_wakes_blocked_producers() {
        let (tx, rx) = pipe::<u32>(2);
        tx.send(0).unwrap();
        tx.send(1).unwrap();
        let producer = thread::spawn(move || {
            // Both of these block until the consumer drains the buffer.
            tx.send(2).unwrap();
            tx.send(3).unwrap();
        });
        thread::sleep(Duration::from_millis(30));
        let mut received = rx.recv_up_to(2).unwrap();
        while received.len() < 4 {
            received.extend(rx.recv_up_to(2).unwrap());
        }
        producer.join().unwrap();
        assert_eq!(received, vec![0, 1, 2, 3]);
    }

    #[test]
    fn recv_timeout_times_out_and_then_succeeds() {
        let (tx, rx) = pipe::<u8>(4);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(20)).unwrap_err(),
            TryRecvError::Empty
        );
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(20)).unwrap(), 9);
    }

    #[test]
    fn stats_track_activity() {
        let (tx, rx) = pipe::<u8>(4);
        tx.send(1).unwrap();
        rx.recv().unwrap();
        assert_eq!(tx.stats().items(), 1);
        assert_eq!(rx.stats().items(), 1);
    }

    #[test]
    fn iterator_yields_until_eof() {
        let (tx, rx) = pipe::<u8>(8);
        for i in 0..3 {
            tx.send(i).unwrap();
        }
        tx.close();
        let collected: Vec<u8> = rx.into_iter().collect();
        assert_eq!(collected, vec![0, 1, 2]);
    }

    #[test]
    fn debug_impls_are_nonempty() {
        let (tx, rx) = pipe::<u8>(4);
        assert!(!format!("{tx:?}").is_empty());
        assert!(!format!("{rx:?}").is_empty());
    }

    #[test]
    fn handles_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<DetachableSender<u32>>();
        assert_send::<DetachableReceiver<u32>>();
    }

    /// A watcher that counts its notifications and flags a condvar, so
    /// tests can wait for (and count) wake-ups.
    struct CountingWatcher {
        fired: AtomicUsize,
        gate: Mutex<bool>,
        cv: Condvar,
    }

    impl CountingWatcher {
        fn new() -> Arc<Self> {
            Arc::new(Self {
                fired: AtomicUsize::new(0),
                gate: Mutex::new(false),
                cv: Condvar::new(),
            })
        }

        fn count(&self) -> usize {
            self.fired.load(Ordering::SeqCst)
        }

        /// Waits (bounded) until the watcher has fired at least once since
        /// the last `reset`, returning whether it did.
        fn wait_fired(&self, timeout: Duration) -> bool {
            let mut gate = self.gate.lock();
            if *gate {
                return true;
            }
            self.cv.wait_for(&mut gate, timeout);
            *gate
        }

        fn reset(&self) {
            *self.gate.lock() = false;
        }
    }

    impl PipeWatcher for CountingWatcher {
        fn notify(&self) {
            self.fired.fetch_add(1, Ordering::SeqCst);
            let mut gate = self.gate.lock();
            *gate = true;
            self.cv.notify_all();
        }
    }

    #[test]
    fn try_recv_up_to_is_nonblocking_and_ordered() {
        let (tx, rx) = pipe::<u32>(16);
        assert_eq!(rx.try_recv_up_to(4).unwrap_err(), TryRecvError::Empty);
        tx.send_batch((0..6).collect()).unwrap();
        assert_eq!(rx.try_recv_up_to(4).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(rx.try_recv_up_to(4).unwrap(), vec![4, 5]);
        assert_eq!(rx.try_recv_up_to(4).unwrap_err(), TryRecvError::Empty);
        tx.close();
        assert_eq!(rx.try_recv_up_to(4).unwrap_err(), TryRecvError::Eof);
        rx.close();
        assert_eq!(rx.try_recv_up_to(4).unwrap_err(), TryRecvError::Closed);
    }

    #[test]
    fn try_send_batch_delivers_the_prefix_that_fits() {
        let (tx, rx) = pipe::<u32>(3);
        let leftover = tx.try_send_batch(vec![0, 1, 2, 3, 4]).unwrap();
        assert_eq!(leftover, vec![3, 4]);
        assert_eq!(rx.recv_up_to(8).unwrap(), vec![0, 1, 2]);
        // Retrying the leftover now succeeds completely.
        assert!(tx.try_send_batch(leftover).unwrap().is_empty());
        assert_eq!(rx.recv_up_to(8).unwrap(), vec![3, 4]);
    }

    #[test]
    fn try_send_batch_error_cases_return_items() {
        let (tx, rx) = pipe::<u8>(4);
        rx.close();
        assert!(matches!(
            tx.try_send_batch(vec![1, 2]).unwrap_err(),
            SendError::ReceiverClosed(rest) if rest == vec![1, 2]
        ));
        tx.close();
        assert!(matches!(
            tx.try_send_batch(vec![3]).unwrap_err(),
            SendError::Closed(rest) if rest == vec![3]
        ));
    }

    #[test]
    fn data_watcher_fires_on_delivery_eof_and_close() {
        let (tx, rx) = pipe::<u8>(8);
        let watcher = CountingWatcher::new();
        rx.set_data_watcher(watcher.clone());
        assert_eq!(watcher.count(), 0, "no data yet: registration must not fire");

        tx.send(1).unwrap();
        assert!(watcher.wait_fired(Duration::from_secs(1)));
        watcher.reset();
        tx.send_batch(vec![2, 3]).unwrap();
        assert!(watcher.wait_fired(Duration::from_secs(1)));
        watcher.reset();
        let leftover = tx.try_send_batch(vec![4]).unwrap();
        assert!(leftover.is_empty());
        assert!(watcher.wait_fired(Duration::from_secs(1)));
        watcher.reset();
        tx.close();
        assert!(watcher.wait_fired(Duration::from_secs(1)), "EOF must wake the reader");
    }

    #[test]
    fn data_watcher_registered_after_delivery_fires_immediately() {
        // The missed-notify regression: items arrive *before* the watcher
        // exists.  A naive edge-triggered hook would leave the consumer
        // asleep forever; registration must observe the level.
        let (tx, rx) = pipe::<u8>(8);
        tx.send(7).unwrap();
        let watcher = CountingWatcher::new();
        rx.set_data_watcher(watcher.clone());
        assert_eq!(watcher.count(), 1, "registration fires when data is already buffered");

        // Same for a stream that already ended.
        let (tx2, rx2) = pipe::<u8>(8);
        tx2.close();
        let eof_watcher = CountingWatcher::new();
        rx2.set_data_watcher(eof_watcher.clone());
        assert_eq!(eof_watcher.count(), 1, "registration fires on an already-ended stream");
    }

    #[test]
    fn space_watcher_fires_on_pop_and_close() {
        let (tx, rx) = pipe::<u8>(2);
        tx.send_batch(vec![1, 2]).unwrap();
        let watcher = CountingWatcher::new();
        rx.set_space_watcher(watcher.clone());
        assert_eq!(watcher.count(), 0, "full buffer: registration must not fire");

        // A writer refused room is owed one wake, on the next pop.
        assert_eq!(tx.try_send_batch(vec![3]).unwrap(), vec![3]);
        assert_eq!(watcher.count(), 0, "a refusal itself fires nothing");
        assert_eq!(rx.try_recv_up_to(1).unwrap(), vec![1]);
        assert_eq!(watcher.count(), 1);
        rx.close();
        assert_eq!(watcher.count(), 2, "close must wake writers");

        // A receiver with free space fires at registration.
        let (_tx3, rx3) = pipe::<u8>(2);
        let roomy = CountingWatcher::new();
        rx3.set_space_watcher(roomy.clone());
        assert_eq!(roomy.count(), 1);
    }

    #[test]
    fn a_refusal_then_pops_fire_the_space_watcher_exactly_once() {
        let (tx, rx) = pipe::<u8>(2);
        let watcher = CountingWatcher::new();
        rx.set_space_watcher(watcher.clone());
        assert_eq!(watcher.count(), 1, "room at registration");
        assert_eq!(tx.try_send_batch(vec![1, 2, 3, 4]).unwrap(), vec![3, 4]);
        // Every kind of pop: only the first after the refusal fires.
        assert_eq!(rx.try_recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(watcher.count(), 2);
        tx.send_batch(vec![5, 6]).unwrap();
        assert_eq!(rx.recv_up_to(1).unwrap(), vec![5]);
        assert_eq!(rx.try_recv_up_to(4).unwrap(), vec![6]);
        assert_eq!(watcher.count(), 2, "blocking sends are never refused");
        // A second refusal is owed a second wake.
        tx.send_batch(vec![7, 8]).unwrap();
        assert_eq!(tx.try_send_batch(vec![9]).unwrap(), vec![9]);
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), 7);
        assert_eq!(rx.try_recv_up_to(4).unwrap(), vec![8]);
        assert_eq!(watcher.count(), 3);
    }

    #[test]
    fn a_pop_after_no_refusal_does_not_fire_the_space_watcher() {
        let (tx, rx) = pipe::<u8>(4);
        let watcher = CountingWatcher::new();
        rx.set_space_watcher(watcher.clone());
        assert_eq!(watcher.count(), 1, "room at registration");
        // A writer that always fits, even filling the buffer exactly.
        for round in 0..8u8 {
            assert!(tx.try_send_batch(vec![round; 4]).unwrap().is_empty());
            assert_eq!(rx.try_recv_up_to(4).unwrap(), vec![round; 4]);
        }
        assert_eq!(watcher.count(), 1, "nobody waited for space");
    }

    #[test]
    fn close_always_fires_the_space_watcher() {
        // Full, empty, or just refused: a close is always news to a writer.
        for setup in 0..3 {
            let (tx, rx) = pipe::<u8>(1);
            if setup > 0 {
                tx.send(1).unwrap();
            }
            if setup > 1 {
                assert_eq!(tx.try_send_batch(vec![2]).unwrap(), vec![2]);
            }
            let watcher = CountingWatcher::new();
            rx.set_space_watcher(watcher.clone());
            let registered = watcher.count();
            assert_eq!(registered, usize::from(setup == 0), "fire-at-registration holds");
            rx.close();
            assert_eq!(watcher.count(), registered + 1, "setup {setup}");
        }
    }

    #[test]
    fn received_implies_counted_under_try_paths() {
        // The PR 3 pipe-stats invariant, re-checked on the non-blocking
        // path used by the pooled runtime: at every point where a consumer
        // holds a received item, that item is already visible in the pipe
        // stats.  The consumer drains with try_recv_up_to while the
        // producer races try_send_batch.
        let (tx, rx) = pipe::<u64>(8);
        let producer = thread::spawn(move || {
            let mut pending: Vec<u64> = (0..2_000).collect();
            while !pending.is_empty() {
                pending = tx.try_send_batch(pending).unwrap();
                if !pending.is_empty() {
                    thread::yield_now();
                }
            }
        });
        let mut received = 0u64;
        while received < 2_000 {
            match rx.try_recv_up_to(16) {
                Ok(batch) => {
                    received += batch.len() as u64;
                    assert!(
                        rx.stats().items() >= received,
                        "an item was received before it was counted"
                    );
                }
                Err(TryRecvError::Empty) => thread::yield_now(),
                Err(other) => panic!("unexpected receive error: {other}"),
            }
        }
        producer.join().unwrap();
        assert_eq!(rx.stats().items(), 2_000);
    }
}
