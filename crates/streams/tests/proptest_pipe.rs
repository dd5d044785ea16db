//! Property-based tests for the detachable pipe: every call, checked
//! against a plain queue model.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rapidware_streams::{pipe, PipeWatcher, SendError, TryRecvError};

/// One call of a single-threaded pipe script.
#[derive(Debug, Clone)]
enum Call {
    Send,
    SendBatch(usize),
    TrySendBatch(usize),
    Recv,
    RecvUpTo(usize),
    TryRecv,
    TryRecvUpTo(usize),
    RecvTimeoutZero,
    CloseSender,
    CloseReceiver,
    WatchData,
    WatchSpace,
}

fn call_strategy() -> impl Strategy<Value = Call> {
    // Closes are rare so most scripts run long on a live pipe.
    (0u8..50, 0usize..6).prop_map(|(roll, n)| match roll {
        0..=5 => Call::Send,
        6..=11 => Call::SendBatch(n),
        12..=19 => Call::TrySendBatch(n),
        20..=24 => Call::Recv,
        25..=29 => Call::RecvUpTo(n.max(1)),
        30..=33 => Call::TryRecv,
        34..=39 => Call::TryRecvUpTo(n.max(1)),
        40..=42 => Call::RecvTimeoutZero,
        43 => Call::CloseSender,
        44 => Call::CloseReceiver,
        45..=47 => Call::WatchData,
        _ => Call::WatchSpace,
    })
}

/// A watcher that only counts its notifications.
#[derive(Default)]
struct Counting(AtomicUsize);

impl PipeWatcher for Counting {
    fn notify(&self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Every watcher registered so far with the fires it is owed; the last
/// one is the pipe's current watcher.
#[derive(Default)]
struct Watchers(Vec<(Arc<Counting>, usize)>);

impl Watchers {
    fn register(&mut self, fire_now: bool) -> Arc<Counting> {
        let watcher = Arc::new(Counting::default());
        self.0.push((Arc::clone(&watcher), usize::from(fire_now)));
        watcher
    }

    fn fire(&mut self) {
        if let Some((_, owed)) = self.0.last_mut() {
            *owed += 1;
        }
    }

    fn check(&self, what: &str, step: usize) {
        for (index, (watcher, owed)) in self.0.iter().enumerate() {
            assert_eq!(watcher.0.load(Ordering::SeqCst), *owed, "{what} watcher {index} at step {step}");
        }
    }
}

/// The pipe as a plain queue: what each call returns, hands back and fires.
struct Model {
    queue: VecDeque<u64>,
    capacity: usize,
    sender_closed: bool,
    receiver_closed: bool,
    eof: bool,
    /// A `try_send_batch` was refused room: the next pop fires the space
    /// watcher.
    refused: bool,
    delivered: u64,
    blocked: u64,
    data: Watchers,
    space: Watchers,
}

impl Model {
    fn room(&self) -> usize {
        self.capacity - self.queue.len()
    }

    /// Whether a blocking send of `n` items returns without waiting.
    fn send_returns(&self, n: usize) -> bool {
        self.sender_closed || self.receiver_closed || n <= self.room()
    }

    /// Whether a blocking receive returns without waiting.
    fn recv_returns(&self) -> bool {
        !self.queue.is_empty() || self.receiver_closed || self.eof
    }

    /// Delivers the prefix of a non-empty `items` that fits and hands back
    /// the rest.
    fn send(&mut self, mut items: Vec<u64>) -> Result<Vec<u64>, SendError<Vec<u64>>> {
        if self.sender_closed {
            return Err(SendError::Closed(items));
        }
        if self.receiver_closed {
            return Err(SendError::ReceiverClosed(items));
        }
        let leftover = items.split_off(items.len().min(self.room()));
        if !items.is_empty() {
            self.delivered += items.len() as u64;
            self.queue.extend(items);
            self.data.fire();
        }
        if !leftover.is_empty() {
            self.refused = true;
            self.blocked += 1;
        }
        Ok(leftover)
    }

    fn pop(&mut self, max: usize) -> Result<Vec<u64>, TryRecvError> {
        if !self.queue.is_empty() {
            let take = self.queue.len().min(max);
            let batch = self.queue.drain(..take).collect();
            if std::mem::take(&mut self.refused) {
                self.space.fire();
            }
            return Ok(batch);
        }
        if self.receiver_closed {
            Err(TryRecvError::Closed)
        } else if self.eof {
            Err(TryRecvError::Eof)
        } else {
            Err(TryRecvError::Empty)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every pipe call on one thread, checked step by step against a
    /// `VecDeque` model: return values, leftovers, error variants, item
    /// and blocked-send counts on both halves, `available()`, and the exact
    /// number of data- and space-watcher fires.  Blocking calls are issued
    /// only when the model says they return at once.
    #[test]
    fn pipe_calls_match_a_queue_model(
        capacity in 1usize..5,
        script in proptest::collection::vec(call_strategy(), 1..80),
    ) {
        let (tx, rx) = pipe::<u64>(capacity);
        let mut model = Model {
            queue: VecDeque::new(),
            capacity,
            sender_closed: false,
            receiver_closed: false,
            eof: false,
            refused: false,
            delivered: 0,
            blocked: 0,
            data: Watchers::default(),
            space: Watchers::default(),
        };
        let mut next = 0u64;
        let mut items = |n: usize| -> Vec<u64> {
            let batch = (next..next + n as u64).collect();
            next += n as u64;
            batch
        };
        for (step, call) in script.iter().enumerate() {
            let context = format!("step {step}: {call:?} on capacity {capacity}");
            match *call {
                Call::Send if model.send_returns(1) => {
                    let item = items(1);
                    let expected = match model.send(item.clone()) {
                        Ok(_) => Ok(()),
                        Err(SendError::Closed(v)) => Err(SendError::Closed(v[0])),
                        Err(SendError::ReceiverClosed(v)) => Err(SendError::ReceiverClosed(v[0])),
                    };
                    prop_assert_eq!(tx.send(item[0]), expected, "{}", context);
                }
                Call::SendBatch(n) if model.send_returns(n) => {
                    let batch = items(n);
                    let expected = if n == 0 { Ok(()) } else { model.send(batch.clone()).map(|_| ()) };
                    prop_assert_eq!(tx.send_batch(batch), expected, "{}", context);
                }
                Call::TrySendBatch(n) => {
                    let batch = items(n);
                    let expected = if n == 0 { Ok(Vec::new()) } else { model.send(batch.clone()) };
                    prop_assert_eq!(tx.try_send_batch(batch), expected, "{}", context);
                }
                Call::Recv if model.recv_returns() => {
                    let got = rx.recv().map(|v| vec![v]).map_err(TryRecvError::from);
                    prop_assert_eq!(got, model.pop(1), "{}", context);
                }
                Call::RecvUpTo(max) if model.recv_returns() => {
                    let got = rx.recv_up_to(max).map_err(TryRecvError::from);
                    prop_assert_eq!(got, model.pop(max), "{}", context);
                }
                Call::TryRecv => {
                    prop_assert_eq!(rx.try_recv().map(|v| vec![v]), model.pop(1), "{}", context);
                }
                Call::TryRecvUpTo(max) => {
                    prop_assert_eq!(rx.try_recv_up_to(max), model.pop(max), "{}", context);
                }
                Call::RecvTimeoutZero => {
                    let got = rx.recv_timeout(Duration::ZERO).map(|v| vec![v]);
                    prop_assert_eq!(got, model.pop(1), "{}", context);
                }
                Call::CloseSender => {
                    tx.close();
                    if !std::mem::replace(&mut model.sender_closed, true) {
                        model.eof = true;
                        model.data.fire();
                    }
                }
                Call::CloseReceiver => {
                    rx.close();
                    if !std::mem::replace(&mut model.receiver_closed, true) {
                        model.queue.clear();
                        model.data.fire();
                        model.space.fire();
                    }
                }
                Call::WatchData => {
                    let fire = !model.queue.is_empty() || model.eof || model.receiver_closed;
                    rx.set_data_watcher(model.data.register(fire));
                }
                Call::WatchSpace => {
                    let fire = model.room() > 0 || model.receiver_closed;
                    rx.set_space_watcher(model.space.register(fire));
                }
                // A blocking call the model says would wait: skipped.
                _ => {}
            }
            prop_assert_eq!(tx.stats().items(), model.delivered, "{}", context);
            prop_assert_eq!(rx.stats().items(), model.delivered, "{}", context);
            prop_assert_eq!(tx.stats().blocked_sends(), model.blocked, "{}", context);
            prop_assert_eq!(rx.available(), model.queue.len(), "{}", context);
            model.data.check("data", step);
            model.space.check("space", step);
        }
    }
}
