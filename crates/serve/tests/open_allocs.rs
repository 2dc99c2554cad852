//! Allocation pins for opening a session.
//!
//! A counting global allocator makes the cost of `Session::open`
//! deterministic: each name is interned into one arena, printed in place
//! and resolved through the program, so opening allocates per program
//! row, not per name occurrence. The ceiling below holds that; the
//! constraint text is what the benchmark's `restart` workload reopens.
//! Wall clock on a shared host cannot gate this, an allocation count can.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ddpa_constraints::{lower, print_constraints};
use ddpa_gen::{generate_minic, MiniCConfig};
use ddpa_serve::Session;

/// Forwards to [`System`], counting the calling thread's allocations (a
/// `realloc` counts as one), so tests running beside each other do not
/// count each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left to bump.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation goes through this type), as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// A MiniC program of `funcs` functions, lowered and printed: the
/// constraint text a client opens.
fn minic_text(funcs: usize) -> String {
    print_constraints(&lower(&generate_minic(&MiniCConfig::sized(1, funcs))).expect("lowers"))
}

/// Allocations of opening the `restart` workload's program: one interned
/// string per name, one printout and one name table used to cost 34,164;
/// the arena, the in-place printer and the resolver brought it to
/// 9,851, most of them the program's per-node index rows.
const OPEN_CEILING: u64 = 10_000;

#[test]
fn opening_constraint_text_stays_under_its_allocation_ceiling() {
    let text = minic_text(240);
    assert_eq!(text.lines().count(), 5_357, "the benchmark's program");
    let (session, allocs) = counted(|| Session::open(&text, false, None).expect("opens"));
    assert_eq!(session.source(), text, "served as parsed");
    assert!(allocs <= OPEN_CEILING, "open made {allocs} allocations");
}

#[test]
fn printing_allocates_the_same_at_every_size() {
    let counts: Vec<u64> = [12, 60, 240]
        .into_iter()
        .map(|funcs| {
            let session = Session::open(&minic_text(funcs), false, None).expect("opens");
            let (printed, allocs) = counted(|| print_constraints(session.program()));
            assert_eq!(printed, session.source());
            allocs
        })
        .collect();
    assert!(
        counts.iter().all(|&n| n == counts[0] && n <= 3),
        "{counts:?}"
    );
}
