//! Cross-thread recycling stress: a producer allocates payloads, a worker
//! clones each and builds a longer "sealed" copy, and a consumer checks and
//! drops both while the worker drops its own clone, so the last handle of a
//! buffer drops on either of two threads.  Every buffer therefore reaches a
//! magazine on a thread other than the one that allocated it, and moves
//! through the shared depot back to the producer.  Several rounds of fresh
//! threads run in turn, so magazines are freed at thread exit while the
//! depot keeps what the previous round left.  Any buffer reused while a
//! handle still reads it shows as a wrong byte.

use std::sync::mpsc::sync_channel;
use std::thread;

use bytes::Bytes;

const ROUNDS: u64 = 4;
const ITEMS: u64 = 20_000;
/// Bytes appended by the worker, like an AEAD tag.
const TAG: usize = 16;

/// Lengths cycle over small, class-edge and unpooled sizes.
fn length(item: u64) -> usize {
    const LENGTHS: [usize; 8] = [1, 64, 65, 200, 1024, 1040, 2048, 3000];
    LENGTHS[(item % LENGTHS.len() as u64) as usize]
}

fn byte(item: u64, offset: usize) -> u8 {
    (item as usize).wrapping_mul(31).wrapping_add(offset) as u8
}

fn payload_ok(item: u64, payload: &[u8]) -> bool {
    payload.len() == length(item)
        && payload
            .iter()
            .enumerate()
            .all(|(offset, &b)| b == byte(item, offset))
}

fn round(round: u64) {
    let (to_worker, from_producer) = sync_channel::<(u64, Bytes)>(64);
    let (to_consumer, from_worker) = sync_channel::<(u64, Bytes, Bytes)>(64);
    thread::scope(|scope| {
        scope.spawn(move || {
            let mut scratch = vec![0u8; 4096];
            for item in round * ITEMS..(round + 1) * ITEMS {
                let len = length(item);
                for (offset, slot) in scratch[..len].iter_mut().enumerate() {
                    *slot = byte(item, offset);
                }
                let payload = if item % 2 == 0 {
                    Bytes::copy_from_slice(&scratch[..len])
                } else {
                    let mut built = Bytes::zeroed(len);
                    built.make_mut().copy_from_slice(&scratch[..len]);
                    built
                };
                to_worker.send((item, payload)).expect("worker alive");
            }
        });
        scope.spawn(move || {
            for (item, payload) in from_producer {
                assert!(payload_ok(item, &payload), "item {item} corrupted before the worker");
                let mut sealed = Bytes::zeroed(payload.len() + TAG);
                let buf = sealed.make_mut();
                buf[..payload.len()].copy_from_slice(&payload);
                buf[payload.len()..].fill(item as u8);
                to_consumer
                    .send((item, payload.clone(), sealed))
                    .expect("consumer alive");
                // Races the consumer's drop of the clone it just sent.
                drop(payload);
            }
        });
        scope.spawn(move || {
            let mut received = 0;
            for (item, payload, sealed) in from_worker {
                assert!(payload_ok(item, &payload), "item {item} corrupted at the consumer");
                let (body, tag) = sealed.split_at(sealed.len() - TAG);
                assert!(payload_ok(item, body), "item {item}: sealed body corrupted");
                assert!(tag.iter().all(|&b| b == item as u8), "item {item}: tag corrupted");
                received += 1;
            }
            assert_eq!(received, ITEMS, "every item arrived");
        });
    });
}

#[test]
fn buffers_recycled_across_three_threads_stay_intact() {
    for r in 0..ROUNDS {
        round(r);
    }
    // The depot now holds what the exited threads handed it; this thread
    // draws from it and must see only what it writes.
    let drawn: Vec<Bytes> = (0..512).map(|item| Bytes::zeroed(length(item))).collect();
    for bytes in &drawn {
        assert!(bytes.iter().all(|&b| b == 0), "a depot buffer leaked old bytes");
    }
}
