//! The calibration kernel that corrects host time for memory contention.
//!
//! The simulator's working set (a few MiB of B-trees, hash maps and
//! short-lived vectors) spills out of L2 into the shared L3. On a shared
//! host, other tenants' traffic in that L3 slows a pass by up to 40% for
//! seconds at a time, while pure arithmetic runs at full speed. A fixed
//! B-tree kernel of similar size slows down in step with the simulator,
//! so the benchmark runs it right after every timed pass and reports
//! `raw ms × REF_MS / kernel ms`: the time the pass would have taken at
//! the kernel's reference speed. The kernel is std-only and lives in the
//! benchmark, so a change to the simulator cannot change it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host (Xeon, model 207, 2 MiB L2
/// per core) with a quiet L3. Corrected times are in these units: on that
/// host, uncontended, corrected and raw milliseconds agree.
pub const REF_MS: f64 = 27.0;

/// Run the kernel once and return its host time in milliseconds:
/// 60 000 random inserts into a `BTreeMap<u64, u64>` (about 1.5 MiB),
/// then 200 000 random lookups.
pub fn kernel_ms() -> f64 {
    let mut r: u64 = 0x2545_F491_4F6C_DD1D;
    let mut next = move || {
        r ^= r << 13;
        r ^= r >> 7;
        r ^= r << 17;
        r
    };
    let t0 = Instant::now();
    let mut map = BTreeMap::new();
    for _ in 0..60_000 {
        let v = next();
        map.insert(v % 200_000, v);
    }
    let mut acc = 0u64;
    for _ in 0..200_000 {
        let k = next() % 200_000;
        acc = acc.wrapping_add(map.get(&k).copied().unwrap_or(0));
    }
    black_box((acc, map.len()));
    drop(black_box(map));
    t0.elapsed().as_secs_f64() * 1e3
}

/// `raw_ms` corrected to the kernel's reference speed, given the
/// kernel's time `kernel_ms` measured next to it.
pub fn corrected(raw_ms: f64, kernel_ms: f64) -> f64 {
    raw_ms * REF_MS / kernel_ms
}
