//! Counting global allocator for the `rmbench` binary.
//!
//! Pass-through to the system allocator. Counting is off unless a traced
//! child switches it on around the blocks it attributes, so the untraced
//! pass pays one relaxed load per allocation and nothing else. The counts
//! feed `proc.allocs_per_msg` and `proc.alloc_bytes_per_payload_byte`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The allocator installed with `#[global_allocator]` in `main.rs`.
pub struct Counting;

#[inline]
fn note(size: usize) {
    // Relaxed: plain statistics, they publish no other data.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System` underneath,
        // with `layout`; the caller guarantees both.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switch counting on or off (process-wide, all threads).
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary installs `Counting` too (see `main.rs`). Other tests
    // allocate concurrently, so only lower bounds are asserted here.
    #[test]
    fn counts_only_while_switched_on() {
        set_counting(true);
        let before = counts();
        let v = std::hint::black_box(vec![0u8; 4096]);
        let after = counts();
        set_counting(false);
        drop(v);
        assert!(after.0 > before.0);
        assert!(after.1 >= before.1 + 4096);
    }
}
