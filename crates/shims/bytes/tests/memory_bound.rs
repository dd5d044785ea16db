//! The recycling pool's memory bound, read from a counting global
//! allocator: after a burst of frees far larger than the pool, a thread
//! keeps exactly its two magazines of every class (829,440 B of buffers)
//! and the depot exactly 8 magazines of every class (3,317,760 B), as the
//! crate documents; when the thread exits its magazines are freed and only
//! the depot's share stays.
//!
//! This file holds one test so that no other test's allocations run while
//! it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::thread;

use bytes::Bytes;

struct CountingAllocator;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards to `System` unchanged; the live-byte
// counter is the only addition.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The documented budgets: bytes of buffers one thread's magazines and the
/// depot may hold.
const THREAD_BUDGET: isize = 829_440;
const DEPOT_BUDGET: isize = 3_317_760;
/// The pool's pooled lengths: 64 B, then four classes per doubling up to
/// 2 KiB.
const CLASS_SIZES: [usize; 21] = [
    64, 80, 96, 112, 128, 160, 192, 224, 256, 320, 384, 448, 512, 640, 768, 896, 1024, 1280,
    1536, 1792, 2048,
];
/// What one held buffer costs beyond its bytes: the reference counts'
/// header and its slot in a magazine.
const PER_BUFFER: isize = 16 + 16;
/// Buffers per magazine, magazines per thread and class, full magazines
/// the depot holds per class.
const MAGAZINE: isize = 32;
const THREAD_BUFFERS: isize = 2 * MAGAZINE * CLASS_SIZES.len() as isize;
const DEPOT_BUFFERS: isize = 8 * MAGAZINE * CLASS_SIZES.len() as isize;
/// Slack for the depot's empty magazines and shelf vectors, and for the
/// thread's own handle and name.
const SLACK: isize = 128 * 1024;
/// Buffers freed per class in the burst: well past a thread's and the
/// depot's share.
const BURST: usize = 1_000;

fn live() -> isize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Allocates `BURST` buffers of every class on this thread, then drops
/// them all, and returns the live heap bytes just after.
fn burst() -> isize {
    let held: Vec<Vec<Bytes>> = CLASS_SIZES
        .iter()
        .map(|&len| (0..BURST).map(|_| Bytes::zeroed(len)).collect())
        .collect();
    drop(held);
    live()
}

#[test]
fn a_burst_of_frees_leaves_each_pool_at_its_documented_budget() {
    let before = live();
    let held_in_thread = thread::spawn(burst).join().expect("burst thread") - before;
    let held_after_exit = live() - before;
    let freed_at_exit = held_in_thread - held_after_exit;
    println!(
        "after {BURST} frees per class: {held_in_thread} B live in the thread, \
         {freed_at_exit} B freed at its exit, {held_after_exit} B kept by the depot"
    );

    let thread_share = THREAD_BUDGET + THREAD_BUFFERS * PER_BUFFER;
    assert!(
        (THREAD_BUDGET..=thread_share + SLACK).contains(&freed_at_exit),
        "the thread held {freed_at_exit} B (budget {THREAD_BUDGET} B of buffers)"
    );
    let depot_share = DEPOT_BUDGET + DEPOT_BUFFERS * PER_BUFFER;
    assert!(
        (DEPOT_BUDGET..=depot_share + SLACK).contains(&held_after_exit),
        "the depot holds {held_after_exit} B (budget {DEPOT_BUDGET} B of buffers)"
    );

    // A second burst on a fresh thread drains the depot and fills it again:
    // the bound holds across threads, not per thread that ever ran.
    let second = thread::spawn(burst).join().expect("burst thread") - before;
    let after_second = live() - before;
    assert!(second <= thread_share + depot_share + SLACK, "{second} B live");
    assert!(after_second <= depot_share + SLACK, "the depot grew to {after_second} B");
}
