//! A counting global allocator for the two allocation probes.
//!
//! It forwards to the system allocator. Counting is off except inside
//! [`counting`], which only the allocation probes call — never a workload
//! run — so every timed run pays one relaxed load per allocation and
//! nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
// Signed: a block allocated before counting began may be freed during it.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

// The counters publish no other data, so `Relaxed` is enough; the probes
// read them after the world's threads have been joined.
fn grew(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the blocks.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What [`counting`] saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Allocations and reallocations made.
    pub allocs: u64,
    /// Most bytes live at once, over what was live when counting began.
    pub peak_live_bytes: u64,
}

/// Run `f` with allocation counting on. Every thread of the process is
/// counted; the harness is single-threaded, so in a probe those are the
/// threads `f` itself starts and joins. Callers take turns (the self-tests
/// run in parallel); calling it from inside `f` deadlocks.
pub fn counting<R>(f: impl FnOnce() -> R) -> (R, Tally) {
    static TURN: Mutex<()> = Mutex::new(());
    // The guarded data is `()`: a caller that panicked left nothing broken.
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    ALLOCS.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::SeqCst);
    let result = f();
    ON.store(false, Ordering::SeqCst);
    let tally = Tally {
        allocs: ALLOCS.load(Ordering::Relaxed),
        peak_live_bytes: PEAK.load(Ordering::Relaxed).max(0) as u64,
    };
    (result, tally)
}
