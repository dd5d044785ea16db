//! The detachable pipe itself: [`DetachableSender`] and [`DetachableReceiver`].
//!
//! The implementation mirrors the structure of the paper's
//! `DetachableOutputStream` / `DetachableInputStream` pair:
//!
//! * the item buffer lives on the **receiver** side (the DIS buffer);
//! * the sender holds a reference to its current sink (the `DOS.sink` field);
//! * `pause()` blocks new writes, waits for the receiver's buffer to drain,
//!   and then marks both halves disconnected (the `swflag` protocol);
//! * `reconnect()` validates that neither side is still connected, splices
//!   the two halves together, clears the pause flag, and wakes every thread
//!   that was blocked on the paused pipe (the `notifyAll()` calls).
//!
//! Beside the blocking calls each pipe offers non-blocking ones
//! (`try_send_batch`, `try_recv_up_to`) and [`PipeWatcher`] hooks for
//! cooperative tasks.  Wakes go only where someone waits: a condvar
//! notify with no waiter costs no syscall (see the `parking_lot` shim),
//! and a pop fires the space watcher only after a `try_send_batch` was
//! refused room, so a writer that keeps up is not re-woken per item.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::error::{PauseError, ReconnectError, RecvError, SendError, TryRecvError};
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
    /// Whether a sender is currently attached to this receiver.
    attached: bool,
    /// Set when the attached sender closed the stream: once the queue drains,
    /// `recv` reports a clean end of stream.
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
    /// Signalled when the queue becomes empty (pause() waits on this).
    drained: Condvar,
    /// Number of live `DetachableReceiver` handles sharing this state.
    handles: AtomicUsize,
    stats: PipeStats,
}

impl<T> RecvShared<T> {
    /// Releases `r` after a pop (`many`: possibly several slots freed) and
    /// wakes who may be waiting for it: blocked senders, a pauser once the
    /// queue is empty, and the space watcher only if a `try_send_batch`
    /// was refused room since it last fired — a producer that was never
    /// refused is not waiting for space.
    fn popped(&self, mut r: MutexGuard<'_, RecvInner<T>>, many: bool) {
        let empty = r.queue.is_empty();
        let watcher = if std::mem::take(&mut r.refused) { r.space_watcher.clone() } else { None };
        drop(r);
        if many {
            self.not_full.notify_all();
        } else {
            self.not_full.notify_one();
        }
        if empty {
            self.drained.notify_all();
        }
        if let Some(watcher) = watcher {
            watcher.notify();
        }
    }
}

// ---------------------------------------------------------------------------
// Sender-side shared state (the DOS).
// ---------------------------------------------------------------------------

struct SendInner<T> {
    sink: Option<Arc<RecvShared<T>>>,
    paused: bool,
    closed: bool,
    /// Notified when the sender becomes attached-and-unpaused (or closed).
    ready_watcher: Option<Arc<dyn PipeWatcher>>,
    /// Number of `send` calls that have committed to the current sink but
    /// not yet finished pushing.  `pause` waits for this to reach zero so
    /// that no item can land on the *old* receiver after the pause completes
    /// (the paper gets the same guarantee from `synchronized` write/pause).
    in_flight: usize,
}

struct SendShared<T> {
    inner: Mutex<SendInner<T>>,
    /// Signalled when the sender is reconnected or closed, waking writers
    /// that blocked while the pipe was paused or detached.
    resumed: Condvar,
    /// Signalled when an in-flight send completes (pause waits on this).
    idle: Condvar,
    handles: AtomicUsize,
    stats: PipeStats,
}

/// The writing half of a detachable pipe (the paper's
/// `DetachableOutputStream`).
///
/// Cloning a `DetachableSender` yields another handle to the *same* sender:
/// the proxy's control thread typically keeps one clone for splicing while a
/// filter thread uses another clone for writing.  The sender closes when the
/// last handle is dropped or [`close`](Self::close) is called explicitly.
pub struct DetachableSender<T> {
    shared: Arc<SendShared<T>>,
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
        let inner = self.shared.inner.lock();
        f.debug_struct("DetachableSender")
            .field("connected", &inner.sink.is_some())
            .field("paused", &inner.paused)
            .field("closed", &inner.closed)
            .finish()
    }
}

impl<T> fmt::Debug for DetachableReceiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.shared.inner.lock();
        f.debug_struct("DetachableReceiver")
            .field("buffered", &inner.queue.len())
            .field("capacity", &inner.capacity)
            .field("attached", &inner.attached)
            .field("eof", &inner.eof)
            .field("closed", &inner.closed)
            .finish()
    }
}

impl<T> Clone for DetachableSender<T> {
    fn clone(&self) -> Self {
        self.shared.handles.fetch_add(1, Ordering::SeqCst);
        Self {
            shared: Arc::clone(&self.shared),
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
        if self.shared.handles.fetch_sub(1, Ordering::SeqCst) == 1 {
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
    let receiver = DetachableReceiver::new_detached(capacity);
    {
        let mut r = receiver.shared.inner.lock();
        r.attached = true;
    }
    let sender = DetachableSender {
        shared: Arc::new(SendShared {
            inner: Mutex::new(SendInner {
                sink: Some(Arc::clone(&receiver.shared)),
                paused: false,
                closed: false,
                ready_watcher: None,
                in_flight: 0,
            }),
            resumed: Condvar::new(),
            idle: Condvar::new(),
            handles: AtomicUsize::new(1),
            stats: PipeStats::new(),
        }),
    };
    (sender, receiver)
}

/// Creates a sender and a receiver that are **not** connected to each other
/// (nor to anything else).
///
/// Detached pairs are the raw material for splicing: the proxy creates a new
/// filter with a detached input receiver and output sender, then uses
/// [`DetachableSender::reconnect`] to wire it into a live chain.
pub fn detached_pair<T>(capacity: usize) -> (DetachableSender<T>, DetachableReceiver<T>) {
    (
        DetachableSender::new_detached(),
        DetachableReceiver::new_detached(capacity),
    )
}

impl<T> DetachableSender<T> {
    /// Creates a sender that is not attached to any receiver.  Sends block
    /// until the sender is connected via [`reconnect`](Self::reconnect).
    pub fn new_detached() -> Self {
        Self {
            shared: Arc::new(SendShared {
                inner: Mutex::new(SendInner {
                    sink: None,
                    paused: false,
                    closed: false,
                    ready_watcher: None,
                    in_flight: 0,
                }),
                resumed: Condvar::new(),
                idle: Condvar::new(),
                handles: AtomicUsize::new(1),
                stats: PipeStats::new(),
            }),
        }
    }

    /// Delivers `item` to the currently attached receiver.
    ///
    /// If the pipe is paused or detached, the call **blocks** until the
    /// sender is reconnected (this is what makes splicing transparent to the
    /// upstream code, exactly as the paper's blocked writers are released by
    /// `reconnect()`'s `notifyAll`).  If the receiver's buffer is full the
    /// call blocks until space is available (back-pressure).
    ///
    /// # Errors
    ///
    /// Returns [`SendError::Closed`] if this sender has been closed, or
    /// [`SendError::ReceiverClosed`] if the attached receiver was closed; in
    /// both cases the item is handed back inside the error.
    pub fn send(&self, item: T) -> Result<(), SendError<T>> {
        // Phase 1: wait until we are attached to a live sink and not paused,
        // then register the send as in-flight so a concurrent `pause` waits
        // for it before declaring the old receiver drained.
        let sink = {
            let mut s = self.shared.inner.lock();
            loop {
                if s.closed {
                    return Err(SendError::Closed(item));
                }
                if !s.paused {
                    if let Some(sink) = &s.sink {
                        let sink = Arc::clone(sink);
                        s.in_flight += 1;
                        break sink;
                    }
                }
                self.shared.stats.record_blocked_send();
                self.shared.resumed.wait(&mut s);
            }
        };
        // Phase 2: push into the sink buffer, honouring back-pressure.
        let result = self.push_to(&sink, item);
        // Phase 3: un-register the in-flight send and wake any pauser.
        {
            let mut s = self.shared.inner.lock();
            s.in_flight -= 1;
        }
        self.shared.idle.notify_all();
        result
    }

    /// Delivers a whole batch to the currently attached receiver with one
    /// lock acquisition (plus one per back-pressure stall).
    ///
    /// Semantically equivalent to calling [`send`](Self::send) for each
    /// item in order — the same blocking behaviour while paused or
    /// detached, the same back-pressure against a full receiver buffer —
    /// but the per-item mutex and wake-up costs are paid once per batch.
    /// This is the sending half of the batched data plane; the receiving
    /// half is [`DetachableReceiver::recv_up_to`].
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
        // Phase 1: as in `send`, wait until attached and unpaused, then
        // register in-flight so a concurrent `pause` waits for the batch.
        let sink = {
            let mut s = self.shared.inner.lock();
            loop {
                if s.closed {
                    return Err(SendError::Closed(items));
                }
                if !s.paused {
                    if let Some(sink) = &s.sink {
                        let sink = Arc::clone(sink);
                        s.in_flight += 1;
                        break sink;
                    }
                }
                self.shared.stats.record_blocked_send();
                self.shared.resumed.wait(&mut s);
            }
        };
        // Phase 2: push the whole batch under one receiver lock, stalling
        // only when the buffer fills.
        let result = self.push_batch_to(&sink, items);
        // Phase 3: un-register and wake any pauser.
        {
            let mut s = self.shared.inner.lock();
            s.in_flight -= 1;
        }
        self.shared.idle.notify_all();
        result
    }

    /// Delivers as much of `items` as currently fits, **without blocking**,
    /// and returns the items that were not delivered.
    ///
    /// This is the cooperative-scheduler counterpart of
    /// [`send_batch`](Self::send_batch): instead of parking the calling
    /// thread on back-pressure, pause, or detachment, the call pushes the
    /// longest prefix that fits and hands the rest back so the caller can
    /// retry when its [`PipeWatcher`] fires.  An empty returned `Vec` means
    /// everything was delivered.  Items delivered by this call are counted
    /// in the pipe stats before the receiver lock is released, so an item a
    /// consumer has received is always already counted.
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
    /// [`SendError::ReceiverClosed`] if the attached receiver was closed,
    /// carrying the undelivered items.  A paused or detached sender is not
    /// an error: nothing is delivered and every item is handed back.
    pub fn try_send_batch(&self, items: Vec<T>) -> Result<Vec<T>, SendError<Vec<T>>> {
        if items.is_empty() {
            return Ok(items);
        }
        // Phase 1: non-blocking attachment check; register in-flight so a
        // concurrent `pause` waits for the push below before detaching.
        let sink = {
            let mut s = self.shared.inner.lock();
            if s.closed {
                return Err(SendError::Closed(items));
            }
            if s.paused {
                self.shared.stats.record_blocked_send();
                return Ok(items);
            }
            match &s.sink {
                Some(sink) => {
                    let sink = Arc::clone(sink);
                    s.in_flight += 1;
                    sink
                }
                None => {
                    self.shared.stats.record_blocked_send();
                    return Ok(items);
                }
            }
        };
        // Phase 2: push the prefix that fits under one receiver lock.
        let result = {
            let mut items = items;
            let mut r = sink.inner.lock();
            if r.closed {
                drop(r);
                Err(SendError::ReceiverClosed(items))
            } else {
                let space = r.capacity.saturating_sub(r.queue.len());
                let leftover = items.split_off(space.min(items.len()));
                let delivered = items.len() as u64;
                for item in items {
                    r.queue.push_back(item);
                }
                if delivered > 0 {
                    // Counted before the lock is released ("received ⇒
                    // counted", as in the blocking paths).
                    sink.stats.record_items(delivered);
                    self.shared.stats.record_items(delivered);
                }
                let watcher = if delivered > 0 { r.data_watcher.clone() } else { None };
                r.refused |= !leftover.is_empty();
                drop(r);
                if delivered > 0 {
                    sink.not_empty.notify_one();
                    if let Some(watcher) = watcher {
                        watcher.notify();
                    }
                }
                if !leftover.is_empty() {
                    self.shared.stats.record_blocked_send();
                }
                Ok(leftover)
            }
        };
        // Phase 3: un-register and wake any pauser.
        {
            let mut s = self.shared.inner.lock();
            s.in_flight -= 1;
        }
        self.shared.idle.notify_all();
        result
    }

    fn push_batch_to(
        &self,
        sink: &Arc<RecvShared<T>>,
        items: Vec<T>,
    ) -> Result<(), SendError<Vec<T>>> {
        let mut iter = items.into_iter();
        let mut delivered = 0u64;
        let mut recorded = 0u64;
        let mut pending: Option<T> = None;
        let mut r = sink.inner.lock();
        // Stats are recorded while the receiver lock is still held (before
        // every point that releases it, including the back-pressure wait):
        // a consumer that popped one of these items must acquire the same
        // lock afterwards, so an item a consumer has received is always
        // already counted.
        macro_rules! record_delivered {
            () => {
                if delivered > recorded {
                    sink.stats.record_items(delivered - recorded);
                    self.shared.stats.record_items(delivered - recorded);
                    #[allow(unused_assignments)]
                    {
                        recorded = delivered;
                    }
                }
            };
        }
        loop {
            if r.closed {
                let rest: Vec<T> = pending.into_iter().chain(iter).collect();
                record_delivered!();
                drop(r);
                return Err(SendError::ReceiverClosed(rest));
            }
            while r.queue.len() < r.capacity {
                match pending.take().or_else(|| iter.next()) {
                    Some(item) => {
                        r.queue.push_back(item);
                        delivered += 1;
                    }
                    None => {
                        record_delivered!();
                        let watcher = r.data_watcher.clone();
                        drop(r);
                        sink.not_empty.notify_one();
                        if let Some(watcher) = watcher {
                            watcher.notify();
                        }
                        return Ok(());
                    }
                }
            }
            match pending.take().or_else(|| iter.next()) {
                None => {
                    record_delivered!();
                    let watcher = r.data_watcher.clone();
                    drop(r);
                    sink.not_empty.notify_one();
                    if let Some(watcher) = watcher {
                        watcher.notify();
                    }
                    return Ok(());
                }
                Some(item) => {
                    // Buffer full with items left: wake the consumer and
                    // wait for space (the wait releases the lock, so the
                    // items pushed so far are counted first).
                    pending = Some(item);
                    record_delivered!();
                    sink.not_empty.notify_one();
                    if let Some(watcher) = r.data_watcher.clone() {
                        watcher.notify();
                    }
                    self.shared.stats.record_blocked_send();
                    sink.not_full.wait(&mut r);
                }
            }
        }
    }

    fn push_to(&self, sink: &Arc<RecvShared<T>>, item: T) -> Result<(), SendError<T>> {
        let mut r = sink.inner.lock();
        loop {
            if r.closed {
                return Err(SendError::ReceiverClosed(item));
            }
            if r.queue.len() < r.capacity {
                break;
            }
            self.shared.stats.record_blocked_send();
            sink.not_full.wait(&mut r);
        }
        r.queue.push_back(item);
        // Counted before the lock is released: an item a consumer has
        // received is always already visible in the stats.
        sink.stats.record_item();
        self.shared.stats.record_item();
        let watcher = r.data_watcher.clone();
        drop(r);
        sink.not_empty.notify_one();
        if let Some(watcher) = watcher {
            watcher.notify();
        }
        Ok(())
    }

    /// Pauses the pipe: blocks new writes, waits until the attached
    /// receiver's buffer has been fully drained by its reader, and then marks
    /// both halves disconnected.
    ///
    /// After `pause` returns, the sender can be attached to a different
    /// receiver with [`reconnect`](Self::reconnect).  Pausing an already
    /// paused or detached sender is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`PauseError::Closed`] if the sender has been closed.
    ///
    /// # Blocking
    ///
    /// This method blocks until the downstream reader drains the buffer; if
    /// the reader has stopped reading (but is not closed) it blocks
    /// indefinitely, matching the paper's `wait()` on the sink's sync object.
    /// If the receiver is closed while waiting, the buffered items are
    /// dropped along with the receiver and `pause` returns successfully.
    pub fn pause(&self) -> Result<(), PauseError> {
        let sink = {
            let mut s = self.shared.inner.lock();
            if s.closed {
                return Err(PauseError::Closed);
            }
            s.paused = true;
            // Wait for sends that already committed to the current sink so
            // no item can arrive at the old receiver after we detach.
            while s.in_flight > 0 {
                self.shared.idle.wait(&mut s);
            }
            s.sink.clone()
        };
        if let Some(sink) = sink {
            let mut r = sink.inner.lock();
            while !r.queue.is_empty() && !r.closed {
                sink.drained.wait(&mut r);
            }
            r.attached = false;
            drop(r);
            // Wake a reader blocked on an empty queue so it can notice that
            // the producer went away if it is polling connection state.
            sink.not_empty.notify_all();
        }
        let mut s = self.shared.inner.lock();
        s.sink = None;
        drop(s);
        self.shared.stats.record_pause();
        Ok(())
    }

    /// Detaches this sender from its receiver **without** waiting for the
    /// receiver's buffer to drain.
    ///
    /// Unlike [`pause`](Self::pause), which implements the paper's
    /// drain-before-switch protocol (needed when the *same* sender will be
    /// re-attached elsewhere and ordering across the splice must be
    /// preserved), `detach` simply severs the connection: items already
    /// buffered at the receiver stay there and will be consumed in order
    /// before anything a *later* sender attaches and delivers.  This is the
    /// right operation when a sender is being discarded (e.g. a filter is
    /// removed from a chain) and the downstream consumer may be slow or
    /// absent — waiting for a drain there could block forever.
    ///
    /// The sender is left in the paused state; it can be re-attached with
    /// [`reconnect`](Self::reconnect) or simply dropped.
    ///
    /// # Errors
    ///
    /// Returns [`PauseError::Closed`] if the sender has been closed.
    pub fn detach(&self) -> Result<(), PauseError> {
        let sink = {
            let mut s = self.shared.inner.lock();
            if s.closed {
                return Err(PauseError::Closed);
            }
            s.paused = true;
            // Let sends that already committed to the old sink finish so the
            // buffered prefix is complete and ordered.
            while s.in_flight > 0 {
                self.shared.idle.wait(&mut s);
            }
            s.sink.take()
        };
        if let Some(sink) = sink {
            let mut r = sink.inner.lock();
            r.attached = false;
            drop(r);
            sink.not_empty.notify_all();
        }
        self.shared.stats.record_pause();
        Ok(())
    }

    /// Attaches this (paused or detached) sender to `receiver` and resumes
    /// any writers that were blocked while the pipe was paused.
    ///
    /// # Errors
    ///
    /// * [`ReconnectError::SenderStillConnected`] if the sender is attached
    ///   and has not been paused (call [`pause`](Self::pause) first);
    /// * [`ReconnectError::ReceiverStillConnected`] if `receiver` already has
    ///   a sender attached;
    /// * [`ReconnectError::SenderClosed`] / [`ReconnectError::ReceiverClosed`]
    ///   if either half has been closed.
    pub fn reconnect(&self, receiver: &DetachableReceiver<T>) -> Result<(), ReconnectError> {
        let mut s = self.shared.inner.lock();
        if s.closed {
            return Err(ReconnectError::SenderClosed);
        }
        if s.sink.is_some() && !s.paused {
            return Err(ReconnectError::SenderStillConnected);
        }
        {
            let mut r = receiver.shared.inner.lock();
            if r.closed {
                return Err(ReconnectError::ReceiverClosed);
            }
            if r.attached {
                return Err(ReconnectError::ReceiverStillConnected);
            }
            r.attached = true;
            r.eof = false;
        }
        s.sink = Some(Arc::clone(&receiver.shared));
        s.paused = false;
        let ready = s.ready_watcher.clone();
        drop(s);
        self.shared.stats.record_reconnect();
        receiver.shared.stats.record_reconnect();
        self.shared.resumed.notify_all();
        receiver.shared.not_empty.notify_all();
        if let Some(ready) = ready {
            ready.notify();
        }
        Ok(())
    }

    /// Closes the sender.  If a receiver is attached, it observes a clean end
    /// of stream once its buffer drains.  Subsequent sends fail with
    /// [`SendError::Closed`].
    pub fn close(&self) {
        self.close_impl();
    }

    fn close_impl(&self) {
        let (sink, ready) = {
            let mut s = self.shared.inner.lock();
            if s.closed {
                (None, None)
            } else {
                s.closed = true;
                (s.sink.take(), s.ready_watcher.clone())
            }
        };
        self.shared.resumed.notify_all();
        if let Some(ready) = ready {
            ready.notify();
        }
        if let Some(sink) = sink {
            let mut r = sink.inner.lock();
            r.eof = true;
            r.attached = false;
            let watcher = r.data_watcher.clone();
            drop(r);
            sink.not_empty.notify_all();
            sink.drained.notify_all();
            if let Some(watcher) = watcher {
                watcher.notify();
            }
        }
    }

    /// Returns `true` if the sender is currently attached to a receiver and
    /// not paused.
    pub fn is_connected(&self) -> bool {
        let s = self.shared.inner.lock();
        s.sink.is_some() && !s.paused && !s.closed
    }

    /// Returns `true` if the sender is paused (or detached) but not closed.
    pub fn is_paused(&self) -> bool {
        let s = self.shared.inner.lock();
        !s.closed && (s.paused || s.sink.is_none())
    }

    /// Returns `true` if the sender has been closed.
    pub fn is_closed(&self) -> bool {
        self.shared.inner.lock().closed
    }

    /// Lifetime transfer statistics for this sender.
    pub fn stats(&self) -> PipeStats {
        self.shared.stats.clone()
    }

    /// Installs (or replaces) the readiness watcher of this sender.
    ///
    /// The watcher is notified when a paused or detached sender becomes
    /// attached-and-unpaused again ([`reconnect`](Self::reconnect)) and when
    /// the sender is closed.  If the sender is already usable (or already
    /// closed) at registration time, the watcher fires immediately — a
    /// watcher registered "too late" can never miss the transition it was
    /// installed to observe.
    pub fn set_ready_watcher(&self, watcher: Arc<dyn PipeWatcher>) {
        let fire = {
            let mut s = self.shared.inner.lock();
            let fire = s.closed || (s.sink.is_some() && !s.paused);
            s.ready_watcher = Some(Arc::clone(&watcher));
            fire
        };
        if fire {
            watcher.notify();
        }
    }
}

impl<T> DetachableReceiver<T> {
    /// Creates a receiver that is not attached to any sender.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new_detached(capacity: usize) -> Self {
        assert!(capacity > 0, "detachable pipe capacity must be non-zero");
        Self {
            shared: Arc::new(RecvShared {
                inner: Mutex::new(RecvInner {
                    queue: VecDeque::with_capacity(capacity.min(1024)),
                    capacity,
                    attached: false,
                    eof: false,
                    closed: false,
                    data_watcher: None,
                    space_watcher: None,
                    refused: false,
                }),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
                drained: Condvar::new(),
                handles: AtomicUsize::new(1),
                stats: PipeStats::new(),
            }),
        }
    }

    /// Blocks until an item is available and returns it.
    ///
    /// While the pipe is paused for splicing, `recv` simply keeps waiting —
    /// from the reader's perspective a splice is indistinguishable from a
    /// quiet producer, which is exactly the transparency property the paper
    /// requires of filter insertion.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError::Eof`] after the attached sender closed and the
    /// buffer drained, or [`RecvError::Closed`] if the receiver was closed.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut r = self.shared.inner.lock();
        loop {
            if let Some(item) = r.queue.pop_front() {
                self.shared.popped(r, false);
                return Ok(item);
            }
            if r.closed {
                return Err(RecvError::Closed);
            }
            if r.eof {
                return Err(RecvError::Eof);
            }
            self.shared.not_empty.wait(&mut r);
        }
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
    /// Returns [`RecvError::Eof`] after the attached sender closed and the
    /// buffer drained, or [`RecvError::Closed`] if the receiver was closed.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    pub fn recv_up_to(&self, max: usize) -> Result<Vec<T>, RecvError> {
        assert!(max > 0, "recv_up_to needs a non-zero batch size");
        let mut r = self.shared.inner.lock();
        loop {
            if !r.queue.is_empty() {
                let take = r.queue.len().min(max);
                let batch: Vec<T> = r.queue.drain(..take).collect();
                self.shared.popped(r, true);
                return Ok(batch);
            }
            if r.closed {
                return Err(RecvError::Closed);
            }
            if r.eof {
                return Err(RecvError::Eof);
            }
            self.shared.not_empty.wait(&mut r);
        }
    }

    /// Receives up to `max` buffered items with a single lock acquisition,
    /// **without blocking**.
    ///
    /// This is the cooperative-scheduler counterpart of
    /// [`recv_up_to`](Self::recv_up_to): where a thread-per-filter worker
    /// parks on an empty pipe, a pooled chain task calls `try_recv_up_to`,
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
    /// stream is still live), [`TryRecvError::Eof`] after the attached
    /// sender closed and the buffer drained, or [`TryRecvError::Closed`] if
    /// the receiver was closed.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    pub fn try_recv_up_to(&self, max: usize) -> Result<Vec<T>, TryRecvError> {
        assert!(max > 0, "try_recv_up_to needs a non-zero batch size");
        let mut r = self.shared.inner.lock();
        if !r.queue.is_empty() {
            let take = r.queue.len().min(max);
            let batch: Vec<T> = r.queue.drain(..take).collect();
            self.shared.popped(r, true);
            return Ok(batch);
        }
        if r.closed {
            return Err(TryRecvError::Closed);
        }
        if r.eof {
            return Err(TryRecvError::Eof);
        }
        Err(TryRecvError::Empty)
    }

    /// Like [`recv`](Self::recv) but gives up after `timeout`.
    ///
    /// # Errors
    ///
    /// Returns [`TryRecvError::Empty`] on timeout, and the usual end-of-stream
    /// or closed errors otherwise.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, TryRecvError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut r = self.shared.inner.lock();
        loop {
            if let Some(item) = r.queue.pop_front() {
                self.shared.popped(r, false);
                return Ok(item);
            }
            if r.closed {
                return Err(TryRecvError::Closed);
            }
            if r.eof {
                return Err(TryRecvError::Eof);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(TryRecvError::Empty);
            }
            if self
                .shared
                .not_empty
                .wait_for(&mut r, deadline - now)
                .timed_out()
                && r.queue.is_empty()
                && !r.closed
                && !r.eof
            {
                return Err(TryRecvError::Empty);
            }
        }
    }

    /// Returns an item if one is immediately available.
    ///
    /// # Errors
    ///
    /// Returns [`TryRecvError::Empty`] if the buffer is empty (but the stream
    /// is still live), [`TryRecvError::Eof`] on clean end of stream, or
    /// [`TryRecvError::Closed`] if the receiver is closed.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut r = self.shared.inner.lock();
        if let Some(item) = r.queue.pop_front() {
            self.shared.popped(r, false);
            return Ok(item);
        }
        if r.closed {
            return Err(TryRecvError::Closed);
        }
        if r.eof {
            return Err(TryRecvError::Eof);
        }
        Err(TryRecvError::Empty)
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

    /// Buffer capacity this receiver was created with.
    pub fn capacity(&self) -> usize {
        self.shared.inner.lock().capacity
    }

    /// Returns `true` if a sender is currently attached.
    pub fn is_attached(&self) -> bool {
        self.shared.inner.lock().attached
    }

    /// Returns `true` if the stream has ended (sender closed) — buffered
    /// items may still be readable.
    pub fn is_eof(&self) -> bool {
        self.shared.inner.lock().eof
    }

    /// Returns `true` if this receiver has been closed.
    pub fn is_closed(&self) -> bool {
        self.shared.inner.lock().closed
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
        r.attached = false;
        r.queue.clear();
        let data_watcher = r.data_watcher.clone();
        let space_watcher = r.space_watcher.clone();
        drop(r);
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        self.shared.drained.notify_all();
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

    /// Drains every currently buffered item into a `Vec` without blocking.
    pub fn drain_buffered(&self) -> Vec<T> {
        let mut r = self.shared.inner.lock();
        let items: Vec<T> = r.queue.drain(..).collect();
        if !items.is_empty() {
            self.shared.popped(r, true);
        }
        items
    }

    /// Lifetime transfer statistics for this receiver.
    pub fn stats(&self) -> PipeStats {
        self.shared.stats.clone()
    }

    /// Installs (or replaces) the data-readiness watcher of this receiver.
    ///
    /// The watcher is notified after items are delivered into the buffer,
    /// when the attached sender closes (EOF becomes observable), and when
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
    fn pause_waits_for_drain() {
        let (tx, rx) = pipe::<u32>(8);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let tx_ctl = tx.clone();
        let pauser = thread::spawn(move || {
            tx_ctl.pause().unwrap();
        });
        thread::sleep(Duration::from_millis(50));
        assert!(!pauser.is_finished(), "pause must wait for buffer drain");
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        pauser.join().unwrap();
        assert!(tx.is_paused());
        assert!(!rx.is_attached());
    }

    #[test]
    fn paused_sender_blocks_until_reconnected() {
        let (tx, rx) = pipe::<u32>(8);
        tx.pause().unwrap();
        let tx_writer = tx.clone();
        let writer = thread::spawn(move || {
            tx_writer.send(99).unwrap();
        });
        thread::sleep(Duration::from_millis(50));
        assert!(!writer.is_finished(), "send must block while paused");
        // Reconnect to a brand-new receiver; the blocked writer resumes and
        // its item lands at the new receiver.
        let new_rx = DetachableReceiver::new_detached(8);
        tx.reconnect(&new_rx).unwrap();
        writer.join().unwrap();
        assert_eq!(new_rx.recv().unwrap(), 99);
        assert!(rx.is_empty());
    }

    #[test]
    fn reconnect_validations() {
        let (tx, rx) = pipe::<u8>(4);
        let other_rx = DetachableReceiver::new_detached(4);
        // Still connected: must pause first.
        assert_eq!(
            tx.reconnect(&other_rx).unwrap_err(),
            ReconnectError::SenderStillConnected
        );
        tx.pause().unwrap();
        // Attaching to a receiver that already has a sender is rejected.
        let (_tx2, rx2) = pipe::<u8>(4);
        assert_eq!(
            tx.reconnect(&rx2).unwrap_err(),
            ReconnectError::ReceiverStillConnected
        );
        // Attaching to a closed receiver is rejected.
        other_rx.close();
        assert_eq!(
            tx.reconnect(&other_rx).unwrap_err(),
            ReconnectError::ReceiverClosed
        );
        // Reattaching to the original (now detached) receiver works.
        tx.reconnect(&rx).unwrap();
        tx.send(5).unwrap();
        assert_eq!(rx.recv().unwrap(), 5);
    }

    #[test]
    fn reconnect_after_close_fails() {
        let (tx, _rx) = pipe::<u8>(4);
        tx.close();
        let rx2 = DetachableReceiver::new_detached(4);
        assert_eq!(
            tx.reconnect(&rx2).unwrap_err(),
            ReconnectError::SenderClosed
        );
        assert_eq!(tx.pause().unwrap_err(), PauseError::Closed);
    }

    #[test]
    fn detach_does_not_wait_for_drain() {
        let (tx, rx) = pipe::<u32>(8);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        // Nobody is reading rx, yet detach returns immediately.
        tx.detach().unwrap();
        assert!(tx.is_paused());
        assert!(!rx.is_attached());
        // The buffered items are still there, in order.
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        // The receiver can be adopted by a new sender and ordering holds:
        // old buffered items first, then the new sender's items.
        let new_tx = DetachableSender::new_detached();
        new_tx.reconnect(&rx).unwrap();
        new_tx.send(3).unwrap();
        assert_eq!(rx.recv().unwrap(), 3);
        // The detached sender can also be re-attached elsewhere.
        let other_rx = DetachableReceiver::new_detached(8);
        tx.reconnect(&other_rx).unwrap();
        tx.send(4).unwrap();
        assert_eq!(other_rx.recv().unwrap(), 4);
    }

    #[test]
    fn detach_on_closed_sender_errors() {
        let (tx, _rx) = pipe::<u8>(4);
        tx.close();
        assert_eq!(tx.detach().unwrap_err(), PauseError::Closed);
    }

    #[test]
    fn pause_is_idempotent() {
        let (tx, _rx) = pipe::<u8>(4);
        tx.pause().unwrap();
        tx.pause().unwrap();
        assert!(tx.is_paused());
    }

    #[test]
    fn detached_pair_wires_up() {
        let (tx, rx) = detached_pair::<u8>(4);
        assert!(!tx.is_connected());
        assert!(!rx.is_attached());
        tx.reconnect(&rx).unwrap();
        assert!(tx.is_connected());
        tx.send(3).unwrap();
        assert_eq!(rx.recv().unwrap(), 3);
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
    fn splice_moves_stream_mid_flight_without_loss() {
        // Producer writes a monotone sequence; a "control thread" splices the
        // stream from receiver A to receiver B mid-flight.  The union of
        // items seen at A and B must be the exact sequence, in order.
        const TOTAL: u64 = 10_000;
        let (tx, rx_a) = pipe::<u64>(4);
        let producer_tx = tx.clone();
        let producer = thread::spawn(move || {
            for i in 0..TOTAL {
                producer_tx.send(i).unwrap();
            }
            producer_tx.close();
        });

        // Consume the head of the stream from A; with a 4-item buffer the
        // producer cannot run far ahead, so the splice is guaranteed to
        // happen mid-stream.
        let mut seen_a = Vec::new();
        for _ in 0..100 {
            seen_a.push(rx_a.recv().unwrap());
        }

        // Initiate the splice from a control thread while this thread keeps
        // draining A (pause() waits for the buffer to drain).
        let pauser = {
            let tx = tx.clone();
            thread::spawn(move || tx.pause().unwrap())
        };
        loop {
            match rx_a.recv_timeout(Duration::from_millis(20)) {
                Ok(v) => seen_a.push(v),
                Err(TryRecvError::Empty) => {
                    if !rx_a.is_attached() && rx_a.is_empty() {
                        break;
                    }
                }
                Err(other) => panic!("unexpected receive error on A: {other}"),
            }
        }
        pauser.join().unwrap();

        // Reconnect the live sender to a brand-new receiver B.
        let rx_b = DetachableReceiver::new_detached(4);
        tx.reconnect(&rx_b).unwrap();

        let mut seen_b = Vec::new();
        while let Ok(v) = rx_b.recv() {
            seen_b.push(v);
        }
        producer.join().unwrap();

        let mut all = seen_a.clone();
        all.extend(&seen_b);
        assert_eq!(all.len() as u64, TOTAL, "no item lost or duplicated");
        for (i, v) in all.iter().enumerate() {
            assert_eq!(*v, i as u64, "items delivered in order");
        }
        assert!(!seen_b.is_empty(), "splice happened mid-stream");
        assert!(seen_a.len() >= 100, "head of stream was seen at A");
    }

    #[test]
    fn stats_track_activity() {
        let (tx, rx) = pipe::<u8>(4);
        tx.send(1).unwrap();
        rx.recv().unwrap();
        tx.pause().unwrap();
        tx.reconnect(&rx).unwrap();
        assert_eq!(tx.stats().items(), 1);
        assert_eq!(tx.stats().pauses(), 1);
        assert_eq!(tx.stats().reconnects(), 1);
        assert_eq!(rx.stats().items(), 1);
    }

    #[test]
    fn drain_buffered_empties_queue() {
        let (tx, rx) = pipe::<u8>(8);
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.drain_buffered(), vec![0, 1, 2, 3, 4]);
        assert!(rx.is_empty());
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
    fn try_send_batch_on_paused_or_detached_hands_everything_back() {
        let (tx, _rx) = pipe::<u8>(4);
        tx.pause().unwrap();
        assert_eq!(tx.try_send_batch(vec![1, 2]).unwrap(), vec![1, 2]);
        let detached = DetachableSender::<u8>::new_detached();
        assert_eq!(detached.try_send_batch(vec![3]).unwrap(), vec![3]);
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
        assert_eq!(rx.drain_buffered(), vec![6]);
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
    fn ready_watcher_fires_on_reconnect_and_when_already_usable() {
        let (tx, rx) = pipe::<u8>(4);
        let watcher = CountingWatcher::new();
        tx.set_ready_watcher(watcher.clone());
        assert_eq!(watcher.count(), 1, "a connected sender is already usable");
        watcher.reset();
        tx.pause().unwrap();
        let rx2 = DetachableReceiver::new_detached(4);
        tx.reconnect(&rx2).unwrap();
        assert!(watcher.wait_fired(Duration::from_secs(1)));
        drop(rx);
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
