//! A global allocator that counts the heap calls made by the calling
//! thread, so tests running in parallel cannot pollute each other's
//! counts. Include it with `#[path = "support/counting_alloc.rs"] mod ..;`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Heap calls one closure made on this thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tally {
    /// `alloc`, `alloc_zeroed` and `realloc` calls (frees are not counted).
    pub calls: u64,
    /// The largest size any of them asked for, in bytes.
    pub largest: usize,
}

thread_local! {
    static TALLY: Cell<Tally> = const { Cell::new(Tally { calls: 0, largest: 0 }) };
}

struct Counting;

fn note(size: usize) {
    // `try_with`: a thread tearing down its locals may still allocate.
    let _ = TALLY.try_with(|t| {
        let mut v = t.get();
        v.calls += 1;
        v.largest = v.largest.max(size);
        t.set(v);
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Run `f` and return its result with the heap calls it made on this
/// thread.
pub fn tally<R>(f: impl FnOnce() -> R) -> (R, Tally) {
    TALLY.with(|t| t.set(Tally::default()));
    let out = f();
    (out, TALLY.with(Cell::get))
}
