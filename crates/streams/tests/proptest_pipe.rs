//! Property-based tests for the detachable-pipe integrity invariant.
//!
//! The invariant under test: for any schedule of sends, receives, pauses and
//! reconnects, every item sent is delivered exactly once and in order to the
//! sequence of receivers the sender was attached to.

use proptest::prelude::*;
use rapidware_streams::{detached_pair, pipe, DetachableReceiver, ReconnectError, TryRecvError};

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
                    if !rx_a.is_attached() && rx_a.is_empty() {
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
