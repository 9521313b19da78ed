//! A counting global allocator for the benchmark binary.
//!
//! The binary installs [`CountingAlloc`] as its `#[global_allocator]`;
//! [`allocations`] then reads how many heap allocations the calling
//! thread has made. The count is per thread, so the recorder or any
//! helper thread never inflates the figure for the operations the main
//! thread issues. Without the allocator installed (unit tests) the
//! count stays 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates or registers anything
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Heap allocations (including reallocations) made so far by the
/// calling thread.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The system allocator plus a per-thread allocation count.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

fn count_one() {
    // `try_with` fails only while the thread is being torn down, when
    // nobody reads the count any more
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the count
// update touches only a const-initialised thread-local `Cell`, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s
        // contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}
