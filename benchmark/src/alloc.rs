//! A counting allocator shim: forwards to the system allocator and, only
//! while switched on, counts calls. Untraced runs pay one relaxed load of a
//! static per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

pub struct CountingAlloc;

// Statistics only: the flags publish no other data, so Relaxed suffices.
static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this shim with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: the caller's obligations are exactly `System::alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: `ptr` came from `System` through this shim with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` with counting on and returns its result and the number of
/// allocator calls (alloc, zeroed alloc, realloc) it made.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Relaxed);
    ON.store(true, Relaxed);
    let r = f();
    ON.store(false, Relaxed);
    (r, ALLOCS.load(Relaxed) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_on() {
        // Other tests allocate on their own threads while this one counts,
        // so only a lower bound is exact.
        let (v, n) = count_allocs(|| (0..8).map(|i| vec![i; 4]).collect::<Vec<_>>());
        assert_eq!(v.len(), 8);
        assert!(n >= 9, "8 inner vectors and the outer one, saw {n}");
    }
}
