//! Build a *custom* workload with the synthetic generator, attach the
//! flash tier, and see where it lands on the disk/WNIC phase diagram —
//! the exploration workflow a downstream user of this library would run
//! for their own application.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use flexfetch::base::{Bytes, Dist};
use flexfetch::prelude::*;
use flexfetch::trace::{AccessPattern, Synthetic};

fn main() {
    // A database-ish workload: hot/cold random reads over log-normal
    // files, exponential think times averaging 3 s.
    let app = Synthetic {
        name: "kvstore",
        files: 60,
        total_bytes: 80_000_000,
        size_dist: Dist::log_normal(500_000.0, 1.2),
        chunk: Bytes::kib(16),
        think_dist: Dist::exponential(3.0),
        pattern: AccessPattern::RandomHotCold {
            hot_fraction: 0.1,
            hot_weight: 0.8,
        },
        requests: 400,
        base_inode: 90_000,
        pid: 900,
    };
    let trace = app.build(42);
    let profile = Profiler::standard().profile(&app.build(41));

    let a = flexfetch::trace::analyze(&trace);
    println!(
        "workload `{}`: {} calls, burstiness {:.0}%, think p50 {}, top-decile share {:.0}%\n",
        trace.name,
        trace.len(),
        a.burstiness * 100.0,
        a.think_times.map(|t| t.p50.to_string()).unwrap_or_default(),
        a.top_decile_share * 100.0
    );

    println!(
        "{:<16} {:>12} {:>12} {:>10}",
        "config", "FlexFetch", "best fixed", "winner"
    );
    for (label, flash_mb) in [("plain", 0usize), ("with 128MB flash", 128)] {
        let cfg = || {
            let mut c = SimConfig::default();
            // A memory-constrained device: 4 MiB of page cache, so the
            // hot set does not fit in RAM.
            c.cache.capacity_pages = 1024;
            if flash_mb > 0 {
                c = c.with_flash_mb(flash_mb);
            }
            c
        };
        let run = |kind: PolicyKind| {
            Simulation::new(cfg(), &trace)
                .policy(kind)
                .run()
                .unwrap()
                .total_energy()
                .get()
        };
        let ff = run(PolicyKind::flexfetch(profile.clone()));
        let disk = run(PolicyKind::DiskOnly);
        let wnic = run(PolicyKind::WnicOnly);
        let (best, who) = if disk <= wnic {
            (disk, "Disk-only")
        } else {
            (wnic, "WNIC-only")
        };
        println!("{label:<16} {ff:>11.1}J {best:>11.1}J {who:>10}");
    }
    println!("\nSparse small reads sit deep in WNIC territory (§1.1) and FlexFetch");
    println!("matches the best fixed device exactly. The flash tier is a wash here —");
    println!("its ~10 mW idle draw cancels the few re-reads it absorbs; flash pays");
    println!("off on re-read-heavy sessions (see `ffbench extensions`).");
}
