//! Records the largest single allocation a closure's thread asks for, so
//! a mutation test can hold a decoder or parser to "never allocates more
//! than the input it was handed". Installed as the global allocator of
//! this crate's unit tests only; every request goes to the system
//! allocator unchanged.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's
    // locals are torn down.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

struct Probe;

// SAFETY: every method forwards its arguments unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the probe
// only reads the requested size, through a `const`-initialised
// thread-local that never allocates.
unsafe impl GlobalAlloc for Probe {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f`, returning its result and the largest allocation the
/// calling thread requested meanwhile.
pub(crate) fn largest_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

#[global_allocator]
static PROBE: Probe = Probe;
