//! Property-based tests for the detachable-pipe integrity invariant.
//!
//! The invariant under test: for any schedule of sends, receives, pauses and
//! reconnects, every item sent is delivered exactly once and in order to the
//! sequence of receivers the sender was attached to.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rapidware_streams::{
    detached_pair, pipe, DetachableReceiver, PipeWatcher, ReconnectError, SendError, TryRecvError,
};

/// One step of a randomly generated splice schedule.
#[derive(Debug, Clone)]
enum Step {
    /// Send this many items.
    Send(u8),
    /// Drain everything currently buffered at the active receiver.
    Drain,
    /// Pause and reconnect the sender to a fresh receiver.
    Splice,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u8..20).prop_map(Step::Send),
        Just(Step::Drain),
        Just(Step::Splice),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-threaded schedule: items are never lost, duplicated or
    /// reordered across an arbitrary sequence of splices.
    #[test]
    fn splice_schedule_preserves_sequence(steps in proptest::collection::vec(step_strategy(), 1..40)) {
        let (tx, first_rx) = pipe::<u64>(512);
        let mut receivers: Vec<DetachableReceiver<u64>> = vec![first_rx];
        let mut next_item: u64 = 0;
        let mut collected: Vec<u64> = Vec::new();

        for step in &steps {
            match step {
                Step::Send(n) => {
                    for _ in 0..*n {
                        tx.send(next_item).unwrap();
                        next_item += 1;
                    }
                }
                Step::Drain => {
                    let rx = receivers.last().unwrap();
                    loop {
                        match rx.try_recv() {
                            Ok(v) => collected.push(v),
                            Err(TryRecvError::Empty) | Err(TryRecvError::Eof) => break,
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                }
                Step::Splice => {
                    // pause() blocks until the active receiver drains, so in a
                    // single-threaded schedule we must drain first.
                    {
                        let rx = receivers.last().unwrap();
                        while let Ok(v) = rx.try_recv() {
                            collected.push(v);
                        }
                    }
                    tx.pause().unwrap();
                    let (_unused_tx, new_rx) = detached_pair::<u64>(512);
                    tx.reconnect(&new_rx).unwrap();
                    receivers.push(new_rx);
                }
            }
        }

        // Final drain of every receiver (only the last can still hold data,
        // since splices drain their predecessor).
        tx.close();
        for rx in &receivers {
            while let Ok(v) = rx.try_recv() {
                collected.push(v);
            }
        }

        prop_assert_eq!(collected.len() as u64, next_item);
        for (i, v) in collected.iter().enumerate() {
            prop_assert_eq!(*v, i as u64);
        }
    }

    /// Concurrent producer with a randomly timed splice never loses items.
    #[test]
    fn concurrent_splice_preserves_sequence(
        total in 200u64..2000,
        splice_after in 1u64..190,
    ) {
        let (tx, rx_a) = pipe::<u64>(8);
        let producer_tx = tx.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..total {
                producer_tx.send(i).unwrap();
            }
            producer_tx.close();
        });

        let mut seen = Vec::new();
        for _ in 0..splice_after {
            seen.push(rx_a.recv().unwrap());
        }
        let pauser = {
            let tx = tx.clone();
            std::thread::spawn(move || tx.pause())
        };
        loop {
            match rx_a.recv_timeout(std::time::Duration::from_millis(10)) {
                Ok(v) => seen.push(v),
                Err(TryRecvError::Empty) => {
                    if pauser.is_finished() && rx_a.is_empty() {
                        break;
                    }
                }
                // The producer sent everything and closed before the pause
                // took hold: every item came through `rx_a`.
                Err(TryRecvError::Eof) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let paused = pauser.join().unwrap();

        let rx_b = DetachableReceiver::new_detached(8);
        match tx.reconnect(&rx_b) {
            Ok(()) => {
                prop_assert!(paused.is_ok(), "a reconnectable sender was paused");
                while let Ok(v) = rx_b.recv() {
                    seen.push(v);
                }
                // Every send after the reconnect landed at B: nothing
                // reached A once the pause returned.
                prop_assert_eq!(rx_a.try_recv(), Err(TryRecvError::Empty));
            }
            // Same interleaving seen from the sender: the producer closed
            // it before (the pause reports closed) or right after the pause.
            Err(ReconnectError::SenderClosed) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
        producer.join().unwrap();

        prop_assert_eq!(seen.len() as u64, total);
        for (i, v) in seen.iter().enumerate() {
            prop_assert_eq!(*v, i as u64);
        }
    }
}

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
