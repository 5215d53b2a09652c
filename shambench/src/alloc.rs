//! A counting global allocator: exact allocation counts for the
//! per-layer metrics `dns.allocs_per_line` and `scan.allocs_per_record`.
//!
//! Counting is off unless a [`Counter`] is live, so the untraced
//! end-to-end runs pay one relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note() {
    // Relaxed: both atomics are statistics and publish no other data.
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the only addition is
// a counter update, which neither allocates nor touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Counts every allocation (and reallocation) made by any thread while
/// it is live. Counters do not nest.
pub struct Counter {
    start: u64,
}

impl Counter {
    pub fn start() -> Counter {
        let start = ALLOCS.load(Ordering::Relaxed);
        ENABLED.store(true, Ordering::Relaxed);
        Counter { start }
    }

    /// Allocations since `start`; stops counting.
    pub fn stop(self) -> u64 {
        ENABLED.store(false, Ordering::Relaxed);
        ALLOCS.load(Ordering::Relaxed) - self.start
    }
}
