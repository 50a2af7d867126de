//! Allocation budget of the replay loop: a whole `Simulation::run`,
//! set-up included, heap-allocates well under once per application
//! call. The I/O path (cache outcomes, page runs, the C-SCAN queue)
//! reuses runner-owned buffers, so what remains is recorded data (new
//! bursts, readahead's per-file state) and the run's fixed set-up.

use ff_cache::CacheConfig;
use ff_policy::PolicyKind;
use ff_sim::{SimConfig, Simulation};
use ff_trace::{Acroread, Make, Trace, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations and reallocations made by this thread. Each test
    /// thread counts only its own, so parallel tests cannot perturb it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting on the calling thread.
struct Counting;

fn bump() {
    // `try_with` fails only while the thread's locals are being torn
    // down; an allocation then is not one a test measures.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// Every method forwards to `System` with the caller's arguments
// unchanged, so it meets `GlobalAlloc`'s contract exactly when `System`
// does; counting touches only a thread-local `Cell`, which neither
// allocates nor unwinds.
#[expect(
    unsafe_code,
    reason = "a counting global allocator implements the unsafe GlobalAlloc trait by forwarding to System"
)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller meets `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller meets `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`, and the caller meets `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations per application call of one disk-only run of `trace`.
fn allocs_per_call(trace: &Trace, config: SimConfig) -> f64 {
    let before = ALLOCS.with(Cell::get);
    let report = Simulation::new(config, trace)
        .policy(PolicyKind::DiskOnly)
        .run()
        .expect("valid trace");
    let allocs = ALLOCS.with(Cell::get) - before;
    drop(report);
    allocs as f64 / trace.len() as f64
}

#[test]
fn a_read_heavy_run_allocates_almost_nothing_per_call() {
    let trace = Acroread::default().build(42);
    let per_call = allocs_per_call(&trace, SimConfig::default());
    assert!(
        per_call < 0.25,
        "acroread/disk: {per_call:.3} allocations per call"
    );
}

#[test]
fn a_write_mix_run_allocates_under_once_per_call() {
    // The write-mix configuration: a 16 MiB cache, write sync to the
    // server and a 64 MB flash tier.
    let config = SimConfig {
        cache: CacheConfig {
            capacity_pages: 4096,
            ..CacheConfig::default()
        },
        ..SimConfig::default()
    }
    .with_sync_writes()
    .with_flash_mb(64);
    let trace = Make::default().build(42);
    let per_call = allocs_per_call(&trace, config);
    assert!(
        per_call < 1.0,
        "make/disk write-mix: {per_call:.3} allocations per call"
    );
}
