//! Peak heap of one trial, counted by the benchmark's global allocator.
//!
//! The process's resident high-water mark (`VmHWM`) mixes two trials that
//! happen to overlap on the two workers with whatever the system
//! allocator keeps after a free, so it moves from run to run of one
//! seed. A trial allocates and frees on its own worker thread, so a
//! per-thread count of the bytes held measures the trial alone, and is
//! the same on every run of one seed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// [`System`], plus per-thread counts of the bytes held and their peak.
pub struct Counting;

thread_local! {
    // Const-initialised and free of destructors, so reaching them never
    // allocates: safe to touch from inside the allocator.
    static HELD: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn held_add(bytes: isize) {
    let held = HELD.get() + bytes;
    HELD.set(held);
    if held > PEAK.get() {
        PEAK.set(held);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns `System`'s result, so `System`'s guarantees are this
// allocator's; the counters only record sizes.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `alloc`'s contract, which `System` needs.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            held_add(layout.size() as isize);
        }
        p
    }

    // SAFETY: the caller upholds `alloc_zeroed`'s contract, which `System` needs.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            held_add(layout.size() as isize);
        }
        p
    }

    // SAFETY: the caller upholds `dealloc`'s contract, which `System` needs.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        held_add(-(layout.size() as isize));
    }

    // SAFETY: the caller upholds `realloc`'s contract, which `System` needs.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            held_add(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Starts measuring on this thread; returns the bytes held now.
pub fn start() -> isize {
    let held = HELD.get();
    PEAK.set(held);
    held
}

/// The most this thread has held beyond `start`'s return value since
/// that call, in MiB.
pub fn peak_mib_since(start: isize) -> f64 {
    (PEAK.get() - start) as f64 / (1024.0 * 1024.0)
}
