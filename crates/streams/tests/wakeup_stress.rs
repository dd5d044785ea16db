//! No-lost-wakeup stress for the blocking pipe paths.
//!
//! Every blocking `send`/`recv`/`pause` parks on a condition variable, and
//! the workspace's condvar skips the wake-up syscall while it counts no
//! waiter.  A capacity-1 pipe makes every item a hand-off between threads,
//! so a wake-up lost anywhere wedges the pipe; a watchdog turns a wedge
//! into a failure instead of a hung test run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use rapidware_streams::{pipe, RecvError};

const ITEMS: u64 = 100_000;
const PRODUCERS: u64 = 2;
const CONSUMERS: usize = 2;
const WATCHDOG: Duration = Duration::from_secs(120);

/// Two producers and two consumers move `ITEMS` items through a capacity-1
/// pipe with blocking calls only; with `splicing`, a fifth thread keeps
/// pausing the pipe (which waits for it to drain) and resuming it onto the
/// same receiver.  Returns how many pause/resume cycles ran.
fn ping_pong(splicing: bool) -> u64 {
    let (tx, rx) = pipe::<(u64, u64)>(1);
    let (done_tx, done_rx) = mpsc::channel::<&'static str>();
    let sending = Arc::new(AtomicBool::new(true));
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|producer| {
            let tx = tx.clone();
            let done = done_tx.clone();
            thread::spawn(move || {
                for seq in 0..ITEMS / PRODUCERS {
                    tx.send((producer, seq)).expect("the pipe stays open while producing");
                }
                let _ = done.send("producer");
            })
        })
        .collect();
    let consumers: Vec<_> = (0..CONSUMERS)
        .map(|_| {
            let rx = rx.clone();
            let done = done_tx.clone();
            thread::spawn(move || {
                let mut seen = Vec::new();
                loop {
                    match rx.recv() {
                        Ok(item) => seen.push(item),
                        Err(RecvError::Eof) => break,
                        Err(other) => panic!("unexpected receive error: {other}"),
                    }
                }
                let _ = done.send("consumer");
                seen
            })
        })
        .collect();
    let splicer = splicing.then(|| {
        let tx = tx.clone();
        let rx = rx.clone();
        let sending = Arc::clone(&sending);
        let done = done_tx.clone();
        thread::spawn(move || {
            let mut cycles = 0u64;
            while sending.load(Ordering::SeqCst) {
                tx.pause().expect("the sender stays open while splicing");
                tx.reconnect(&rx).expect("the drained receiver is free again");
                cycles += 1;
            }
            let _ = done.send("splicer");
            cycles
        })
    });
    drop(rx);
    drop(done_tx);
    let watchdog = |what: &str| {
        let finished = done_rx
            .recv_timeout(WATCHDOG)
            .unwrap_or_else(|_| panic!("watchdog: a {what} wedged — a wake-up was lost"));
        assert_eq!(finished, what);
    };
    for _ in 0..PRODUCERS {
        watchdog("producer");
    }
    sending.store(false, Ordering::SeqCst);
    let cycles = splicer.map_or(0, |splicer| {
        watchdog("splicer");
        splicer.join().unwrap()
    });
    for producer in producers {
        producer.join().unwrap();
    }
    tx.close();
    for _ in 0..CONSUMERS {
        watchdog("consumer");
    }
    let mut all = Vec::new();
    for consumer in consumers {
        let seen = consumer.join().unwrap();
        for producer in 0..PRODUCERS {
            let own: Vec<u64> =
                seen.iter().filter(|(from, _)| *from == producer).map(|(_, seq)| *seq).collect();
            assert!(own.windows(2).all(|w| w[0] < w[1]), "a consumer saw items out of order");
        }
        all.extend(seen);
    }
    all.sort_unstable();
    let expected: Vec<(u64, u64)> = (0..PRODUCERS)
        .flat_map(|producer| (0..ITEMS / PRODUCERS).map(move |seq| (producer, seq)))
        .collect();
    assert!(all == expected, "every item is delivered exactly once");
    cycles
}

#[test]
fn a_capacity_one_pipe_ping_pongs_across_four_threads_without_a_lost_wakeup() {
    ping_pong(false);
}

#[test]
fn pause_and_resume_under_load_lose_no_wakeup() {
    assert!(ping_pong(true) > 0, "the pipe was spliced while items flowed");
}
