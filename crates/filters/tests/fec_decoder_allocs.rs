//! Allocation gate for the FEC decoder's repair path.
//!
//! A counting global allocator tallies every heap allocation while an
//! FEC(6,4) decoder repairs a stream of 160-byte payloads that lost every
//! fifth wire frame, one `process` call per frame into a reused output.
//! After a warm-up, the decoder may allocate at most half an allocation
//! per received frame: what remains is the recovered packets' own payload
//! (one `Packet::decode` per repaired source), not per-frame bookkeeping.
//!
//! This file holds one test so that no other test's allocations run while
//! it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rapidware_filters::{FecDecoderFilter, FecEncoderFilter, Filter};
use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is the
// only addition.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const WARM_UP_FRAMES: usize = 20_000;
const MEASURED_FRAMES: usize = 60_000;
const PAYLOAD_LEN: usize = 160;
const DROP_EVERY: usize = 5;

/// The received side of an FEC(6,4) stream: every `DROP_EVERY`-th wire
/// frame is withheld.
fn received_frames(count: usize) -> Vec<Packet> {
    let mut encoder = FecEncoderFilter::fec_6_4().unwrap();
    let mut wire = Vec::new();
    let mut frames = Vec::with_capacity(count + 8);
    let mut wire_index = 0;
    let mut seq = 0u64;
    while frames.len() < count {
        let payload: Vec<u8> = (0..PAYLOAD_LEN)
            .map(|i| (seq as usize * 7 + i) as u8)
            .collect();
        let packet = Packet::new(
            StreamId::new(1),
            SeqNo::new(seq),
            PacketKind::AudioData,
            payload,
        );
        encoder.process(packet, &mut wire).unwrap();
        for frame in wire.drain(..) {
            if wire_index % DROP_EVERY != DROP_EVERY - 1 {
                frames.push(frame);
            }
            wire_index += 1;
        }
        seq += 1;
    }
    frames
}

#[test]
fn repair_allocates_at_most_half_an_allocation_per_received_frame() {
    let mut frames = received_frames(WARM_UP_FRAMES + MEASURED_FRAMES).into_iter();
    let mut decoder = FecDecoderFilter::fec_6_4().unwrap();
    let stats = decoder.stats();
    let mut out: Vec<Packet> = Vec::with_capacity(8);
    for frame in frames.by_ref().take(WARM_UP_FRAMES) {
        decoder.process(frame, &mut out).unwrap();
        out.clear();
    }
    let recovered_before = stats.recovered();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut received = 0usize;
    for frame in frames {
        decoder.process(frame, &mut out).unwrap();
        out.clear();
        received += 1;
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let per_frame = allocations as f64 / received as f64;
    let recovered = stats.recovered() - recovered_before;
    println!(
        "fec-decoder(6,4): {per_frame:.3} allocations per received frame \
         ({allocations} over {received} frames, {recovered} packets recovered)"
    );
    assert!(recovered > 0, "the stream must exercise repair");
    assert!(
        per_frame <= 0.5,
        "{per_frame:.3} allocations per received frame (gate: 0.5)"
    );
}
