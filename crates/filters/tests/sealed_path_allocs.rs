//! Allocation gate for the sealed path across threads.
//!
//! A producer thread builds 1 KiB source packets, a worker thread runs
//! them through `fec-encoder(6,4)` → `encrypt`, and a consumer thread
//! drops what comes out: every payload is allocated on one thread and
//! freed on another, as in a proxy between its load and its reader.  A
//! counting global allocator tallies allocations of 512 bytes or more (the
//! payload-sized ones).  After a warm-up, the whole path may make at most
//! 0.05 of them per source: sources, parities and sealed frames all reuse
//! recycled payload buffers instead of allocating.
//!
//! This file holds one test so that no other test's allocations run while
//! it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Barrier;
use std::thread;

use rapidware_filters::{EncryptFilter, FecEncoderFilter, Filter};
use rapidware_packet::{Bytes, Packet, PacketKind, SeqNo, StreamId};

struct CountingAllocator;

static LARGE_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The smallest allocation the gate counts.
const LARGE: usize = 512;

// SAFETY: every method forwards to `System` unchanged; the counter is the
// only addition.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= LARGE {
            LARGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Sources per phase; multiples of the code's k = 4, so each phase ends on
/// a block boundary.
const WARM_UP_SOURCES: u64 = 20_000;
const MEASURED_SOURCES: u64 = 60_000;
const PAYLOAD_LEN: usize = 1024;
/// Wire frames per source of an FEC(6,4) stream.
const FRAMES_PER_SOURCE: f64 = 6.0 / 4.0;

#[test]
fn sealed_path_allocates_at_most_a_twentieth_of_a_buffer_per_source() {
    let (to_worker, from_producer) = sync_channel::<Packet>(256);
    let (to_consumer, from_worker) = sync_channel::<Packet>(256);
    // Main, producer and consumer meet at each phase edge, when every
    // frame of the phase has been dropped.
    let phase = Barrier::new(3);
    let mut counts = [0u64; 2];
    thread::scope(|scope| {
        let phase = &phase;
        scope.spawn(move || {
            let mut payload = [0u8; PAYLOAD_LEN];
            let mut seq = 0u64;
            for sources in [WARM_UP_SOURCES, MEASURED_SOURCES] {
                for _ in 0..sources {
                    payload[..8].copy_from_slice(&seq.to_be_bytes());
                    payload[8..].fill(seq as u8);
                    let packet = Packet::new(
                        StreamId::new(1),
                        SeqNo::new(seq),
                        PacketKind::AudioData,
                        Bytes::copy_from_slice(&payload),
                    );
                    to_worker.send(packet).expect("worker alive");
                    seq += 1;
                }
                phase.wait();
                phase.wait();
            }
        });
        scope.spawn(move || {
            let mut encoder = FecEncoderFilter::fec_6_4().expect("valid (n, k)");
            let mut encrypt = EncryptFilter::new(7);
            let (mut encoded, mut sealed) = (Vec::with_capacity(8), Vec::with_capacity(8));
            for packet in from_producer {
                encoder.process(packet, &mut encoded).expect("encode");
                for frame in encoded.drain(..) {
                    encrypt.process(frame, &mut sealed).expect("seal");
                }
                for frame in sealed.drain(..) {
                    to_consumer.send(frame).expect("consumer alive");
                }
            }
        });
        scope.spawn(move || {
            for sources in [WARM_UP_SOURCES, MEASURED_SOURCES] {
                let frames = (sources as f64 * FRAMES_PER_SOURCE) as usize;
                for frame in from_worker.iter().take(frames) {
                    assert!(frame.payload_len() > PAYLOAD_LEN, "a sealed frame");
                }
                phase.wait();
                phase.wait();
            }
        });
        for count in &mut counts {
            phase.wait();
            *count = LARGE_ALLOCATIONS.load(Ordering::Relaxed);
            phase.wait();
        }
    });

    let allocations = counts[1] - counts[0];
    let per_source = allocations as f64 / MEASURED_SOURCES as f64;
    println!(
        "fec-encoder(6,4) → encrypt across three threads: {per_source:.3} allocations \
         of >= {LARGE} B per source ({allocations} over {MEASURED_SOURCES} sources)"
    );
    assert!(
        per_source <= 0.05,
        "{per_source:.3} allocations of >= {LARGE} B per source (gate: 0.05)"
    );
}
