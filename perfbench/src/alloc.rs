//! Counting global allocator.
//!
//! This is the benchmark's one `unsafe` module. The runtime crates are
//! `forbid(unsafe_code)`; a global allocator can only be written with
//! `unsafe impl GlobalAlloc`, so the exception lives here, in the
//! benchmark binary, and nowhere else.
//!
//! Every call that obtains heap memory (`alloc`, `alloc_zeroed` and
//! `realloc`) bumps one process-wide counter and is then forwarded
//! unchanged to the system allocator. The benchmark reads the counter
//! before and after each call it makes into the runtime; the difference
//! is the number of allocations that call made, because the benchmark
//! drives the runtime from a single thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations since process start. `Relaxed` is enough: the counter is a
/// statistic that publishes no other data, and it is read on the thread
/// that performs the allocations it is compared against.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// [`System`] plus an allocation counter.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only added effect is an atomic
// increment, which neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by this allocator, which is `System`
        // underneath, with `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by the whole process so far.
pub fn count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_allocations_on_this_thread() {
        let before = super::count();
        let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(16));
        let after = super::count();
        // Other test threads may allocate concurrently, so only a lower
        // bound holds here.
        assert!(after > before);
        drop(v);
    }
}
