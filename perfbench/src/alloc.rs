//! A counting global allocator.
//!
//! Every allocation bumps two process-wide counters and a per-thread
//! tally. The benchmark binary installs it with `#[global_allocator]`;
//! subtracting the driver thread's own tally from the process total
//! leaves the allocations made by the serving threads, without any
//! change to the program under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor: touching it never
    // allocates, so the allocator cannot recurse into itself.
    static LOCAL: Cell<AllocCount> = const { Cell::new(AllocCount { allocs: 0, bytes: 0 }) };
}

/// Allocation calls and requested bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
}

impl AllocCount {
    /// The counts accumulated since `earlier`.
    pub fn since(self, earlier: Self) -> Self {
        Self {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// Process-wide counts (zero unless [`CountingAlloc`] is installed).
pub fn process_total() -> AllocCount {
    AllocCount {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
    }
}

/// Counts made by the calling thread.
pub fn this_thread() -> AllocCount {
    LOCAL.try_with(Cell::get).unwrap_or_default()
}

fn note(bytes: usize) {
    let bytes = bytes as u64;
    // Statistics only: the counters publish no other data.
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes, Ordering::Relaxed);
    let _ = LOCAL.try_with(|c| {
        let n = c.get();
        c.set(AllocCount {
            allocs: n.allocs + 1,
            bytes: n.bytes + bytes,
        });
    });
}

/// Forwards to [`System`] and counts each call.
pub struct CountingAlloc;

// SAFETY: every method passes the caller's pointer and layout to
// `System` unchanged, so `System`'s guarantees hold for the caller;
// the bookkeeping touches only atomics and a const thread-local, and
// neither allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc`, forwarded below.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System::alloc_zeroed`, forwarded below.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same contract as `System::dealloc`, forwarded below.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which got it from
        // `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System::realloc`, forwarded below.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` and `layout` came from `System` via this
        // allocator; the caller upholds the `new_size` requirements.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
