//! Property-based tests over the full stack: randomly generated traces
//! and parameters must never violate the simulator's invariants.

use flexfetch::base::{Bytes, Dur, SimTime};
use flexfetch::prelude::*;
use flexfetch::profile::BurstExtractor;
use flexfetch::trace::{FileId, FileMeta, IoOp, TraceRecord};
use proptest::prelude::*;

/// Strategy: a small random-but-valid trace over up to 8 files.
fn arb_trace() -> impl Strategy<Value = Trace> {
    let sizes = proptest::collection::vec(4096u64..2_000_000, 1..8);
    (
        sizes,
        proptest::collection::vec(
            (
                0u64..8,
                0.0f64..1.0,
                1u64..200_000,
                0u64..3_000_000,
                any::<bool>(),
            ),
            1..60,
        ),
    )
        .prop_map(|(sizes, raw)| {
            let mut t = Trace::new("prop");
            for (i, &s) in sizes.iter().enumerate() {
                t.files.insert(FileMeta {
                    id: FileId(i as u64 + 1),
                    name: format!("f{i}"),
                    size: Bytes(s),
                });
            }
            let nfiles = sizes.len() as u64;
            let mut ts = 0u64;
            for (fi, frac, len, gap, write) in raw {
                let file = fi % nfiles + 1;
                let size = sizes[(file - 1) as usize];
                let len = len.min(size);
                let offset = ((size - len) as f64 * frac) as u64;
                ts += gap;
                t.records.push(TraceRecord {
                    pid: 1,
                    pgid: 1,
                    file: FileId(file),
                    op: if write { IoOp::Write } else { IoOp::Read },
                    offset,
                    len: Bytes(len.max(1)),
                    ts: SimTime(ts),
                    dur: Dur(100),
                });
                ts += 100;
            }
            t
        })
}

/// Strategy: one random-but-valid fault (every variant, silent link
/// outages included, reachable via the leading kind selector).
fn arb_fault() -> impl Strategy<Value = Fault> {
    (
        (0u32..7, 0u64..30_000_000, 100_000u64..15_000_000),
        (
            1u64..=11,
            1u32..8,
            100_000u64..4_000_000,
            4096u64..1_000_000,
        ),
        any::<bool>(),
    )
        .prop_map(
            |((kind, at, dur), (mbps_steps, touches, gap, bytes), corrupt)| {
                let (at, dur) = (Dur(at), Dur(dur));
                match kind {
                    0 | 5 => Fault::LinkOutage {
                        at,
                        dur,
                        silent: kind == 5,
                    },
                    6 => Fault::BandwidthStep {
                        at,
                        mbps: mbps_steps as f64 * 0.5,
                    },
                    1 => Fault::BandwidthFade {
                        at,
                        dur,
                        mbps: mbps_steps as f64 * 0.5,
                    },
                    2 => Fault::ServerOutage { at, dur },
                    3 => Fault::DiskStorm {
                        at,
                        touches,
                        gap: Dur(gap),
                        bytes,
                    },
                    _ => Fault::ProfileFault {
                        at,
                        mode: if corrupt {
                            ProfileFaultMode::Corrupt
                        } else {
                            ProfileFaultMode::Stale
                        },
                    },
                }
            },
        )
}

/// Strategy: a random fault schedule of up to 4 overlapping faults.
fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    proptest::collection::vec(arb_fault(), 0..4).prop_map(|faults| FaultPlan { faults })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Replay never panics, accounts every syscall, and produces finite
    /// positive energy, under every policy.
    #[test]
    fn simulation_invariants(trace in arb_trace(), policy_id in 0usize..4) {
        prop_assume!(trace.validate().is_ok());
        let kind = match policy_id {
            0 => PolicyKind::DiskOnly,
            1 => PolicyKind::WnicOnly,
            2 => PolicyKind::BlueFs,
            _ => PolicyKind::flexfetch(Profile::empty("prop")),
        };
        let r = Simulation::new(SimConfig::default(), &trace).policy(kind).run().unwrap();
        prop_assert_eq!(r.app_requests, trace.len() as u64);
        prop_assert!(r.total_energy().is_valid());
        prop_assert!(r.total_energy().get() > 0.0);
        // Devices never see more DEMAND data than requested plus
        // readahead and write-back can explain: bound fetch+flush traffic
        // by requested bytes + full readahead amplification + page
        // rounding (each request may touch 2 partial pages).
        let fetched = r.disk_bytes.get() + r.wnic_bytes.get();
        let requested = trace.total_bytes().get();
        let worst = 2 * requested + (r.app_requests * 2 + 64) * 4096 + 32 * 4096 * r.app_requests;
        prop_assert!(fetched <= worst, "fetched {} > bound {}", fetched, worst);
    }

    /// Random fault schedules: replay never panics, never loses a
    /// request, stays consistent, and remains bit-deterministic — under
    /// every policy, including FlexFetch-static.
    #[test]
    fn faulted_simulation_invariants(
        trace in arb_trace(),
        plan in arb_fault_plan(),
        policy_id in 0usize..5,
    ) {
        prop_assume!(trace.validate().is_ok());
        let kind = || match policy_id {
            0 => PolicyKind::DiskOnly,
            1 => PolicyKind::WnicOnly,
            2 => PolicyKind::BlueFs,
            3 => PolicyKind::flexfetch(Profiler::standard().profile(&trace)),
            _ => PolicyKind::flexfetch_static(Profiler::standard().profile(&trace)),
        };
        let run = || {
            Simulation::new(SimConfig::default().with_faults(plan.clone()), &trace)
                .policy(kind())
                .run()
                .unwrap()
        };
        let r = run();
        // Conservation: every traced request is served, fault or no fault.
        prop_assert_eq!(r.app_requests, trace.len() as u64);
        prop_assert!(r.total_energy().is_valid());
        prop_assert!(r.total_energy().get() > 0.0);
        // A failover can only follow at least one timed-out attempt.
        prop_assert!(r.failovers == 0 || r.retries > 0);
        // Silent outages and bandwidth steps are never counted.
        let countable: u64 = plan
            .faults
            .iter()
            .map(|f| match *f {
                Fault::LinkOutage { silent: true, .. } | Fault::BandwidthStep { .. } => 0,
                Fault::DiskStorm { touches, .. } => u64::from(touches),
                _ => 1,
            })
            .sum();
        prop_assert!(r.faults_injected <= countable);
        let b = run();
        prop_assert_eq!(r.total_energy(), b.total_energy());
        prop_assert_eq!(r.exec_time, b.exec_time);
        prop_assert_eq!(r.retries, b.retries);
        prop_assert_eq!(r.failovers, b.failovers);
    }

    /// Replay is bit-deterministic.
    #[test]
    fn replay_is_deterministic(trace in arb_trace()) {
        prop_assume!(trace.validate().is_ok());
        let run = || {
            Simulation::new(SimConfig::default(), &trace)
                .policy(PolicyKind::BlueFs)
                .run()
                .unwrap()
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(a.total_energy(), b.total_energy());
        prop_assert_eq!(a.exec_time, b.exec_time);
        prop_assert_eq!(a.disk_requests, b.disk_requests);
        prop_assert_eq!(a.wnic_requests, b.wnic_requests);
    }

    /// Burst extraction conserves bytes and orders bursts in time.
    #[test]
    fn burst_extraction_conserves_bytes(trace in arb_trace()) {
        prop_assume!(trace.validate().is_ok());
        let bursts = BurstExtractor::default().extract(&trace);
        let total: u64 = bursts.iter().map(|b| b.burst.bytes().get()).sum();
        prop_assert_eq!(total, trace.total_bytes().get());
        for w in bursts.windows(2) {
            prop_assert!(w[0].burst.start <= w[1].burst.start);
            prop_assert!(w[0].gap_after >= Dur::from_millis(20),
                "closed bursts must be separated by at least the threshold");
        }
    }

    /// The strace text format round-trips any valid trace.
    #[test]
    fn strace_round_trip(trace in arb_trace()) {
        prop_assume!(trace.validate().is_ok());
        let text = flexfetch::trace::strace::to_string(&trace);
        let back = flexfetch::trace::strace::from_str(&text).unwrap();
        prop_assert_eq!(trace, back);
    }

    /// Profile JSON round-trips and splicing preserves the untouched tail.
    #[test]
    fn profile_roundtrip_and_splice(trace in arb_trace(), n in 0usize..10) {
        prop_assume!(trace.validate().is_ok());
        let p = Profiler::standard().profile(&trace);
        let back = Profile::from_json(&p.to_json()).unwrap();
        prop_assert_eq!(&p, &back);
        let observed = p.bursts.clone();
        let spliced = p.splice(&observed[..n.min(p.len())], n);
        if n <= p.len() {
            // Tail beyond n is unchanged.
            prop_assert_eq!(&spliced.bursts[n.min(spliced.len())..],
                            &p.bursts[n.min(p.len())..]);
        }
    }

    /// Derived per-task RNG streams (the parallel sweep engine's
    /// source of task-private randomness) never collide for distinct
    /// keys, and re-deriving the same key is stable. FNV-1a over a
    /// 64-bit space could collide in principle, but a collision among
    /// realistic task keys would silently correlate two grid cells —
    /// so we hunt for one over random key sets.
    #[test]
    fn derived_streams_are_distinct_and_stable(
        base in any::<u64>(),
        raw_keys in proptest::collection::vec("[a-z/0-9]{3,24}", 2..12)
    ) {
        let mut keys: Vec<String> = raw_keys;
        keys.sort_unstable();
        keys.dedup();
        let mut seeds: Vec<u64> = keys
            .iter()
            .map(|k| flexfetch::base::derive_seed(base, k))
            .collect();
        for (k, &s) in keys.iter().zip(&seeds) {
            prop_assert_eq!(flexfetch::base::derive_seed(base, k), s);
        }
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        prop_assert_eq!(seeds.len(), n, "derived seed collision within key set");
    }

    /// Closed-loop replay preserves think times: the run can never finish
    /// faster than the sum of the trace's inter-call gaps (per process
    /// group), whatever the devices do. (Note: raising WNIC latency is
    /// NOT guaranteed to slow the whole run monotonically — a timing
    /// shift can land a request inside the card's CAM window and skip an
    /// entire 0.8 s + 0.41 s mode-switch cycle.)
    #[test]
    fn replay_preserves_think_time(trace in arb_trace(), policy_id in 0usize..2) {
        prop_assume!(trace.validate().is_ok());
        // All generated records share one pgid, so total think time is
        // the sum of gaps between consecutive records.
        let think: u64 = trace
            .records
            .windows(2)
            .map(|w| w[1].ts.saturating_since(w[0].end()).as_micros())
            .sum();
        let kind = if policy_id == 0 { PolicyKind::DiskOnly } else { PolicyKind::WnicOnly };
        let r = Simulation::new(SimConfig::default(), &trace).policy(kind).run().unwrap();
        prop_assert!(
            r.exec_time.as_micros() >= think,
            "exec {} < think {}", r.exec_time.as_micros(), think
        );
    }
}
