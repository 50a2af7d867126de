//! Property tests for the profiling layer.

use ff_base::{Bytes, Dur, Joules, SimTime};
use ff_device::{DeviceRequest, DiskModel, DiskParams, Live, PowerModel, WnicModel, WnicParams};
use ff_profile::{
    device_request, first_stage, stages_of, Estimate, IoBurst, MergedRequest, Plan, Profile,
    ProfiledBurst, Residency,
};
use ff_trace::{DiskLayout, FileId, FileMeta, FileSet, IoOp};
use proptest::prelude::*;
use std::ops::Range;

/// Lay `(bytes, gap_us, dur_us)` triples out back to back as bursts of
/// one request each.
fn bursts_from(raw: Vec<(u64, u64, u64)>) -> Vec<ProfiledBurst> {
    let mut t = 0u64;
    raw.into_iter()
        .map(|(bytes, gap_us, dur_us)| {
            let start = SimTime(t);
            t += dur_us;
            let end = SimTime(t);
            t += gap_us;
            ProfiledBurst {
                burst: IoBurst {
                    start,
                    end,
                    requests: vec![MergedRequest {
                        file: FileId(1),
                        op: IoOp::Read,
                        offset: 0,
                        len: Bytes(bytes),
                    }],
                },
                gap_after: Dur(gap_us),
            }
        })
        .collect()
}

/// Random burst sequence with realistic spans.
fn arb_bursts() -> impl Strategy<Value = Vec<ProfiledBurst>> {
    proptest::collection::vec((1u64..2_000_000, 0u64..60_000_000, 1u64..5_000_000), 0..40)
        .prop_map(bursts_from)
}

/// Bursts of 0–3 bytes: zero-byte bursts and repeated prefix sums.
fn arb_tiny_bursts() -> impl Strategy<Value = Vec<ProfiledBurst>> {
    proptest::collection::vec((0u64..4, 0u64..1_000, 1u64..1_000), 0..30).prop_map(bursts_from)
}

/// The §2.3.1 splice point by linear scan: the index of the first burst
/// whose cumulative bytes exceed `bytes`, or the length.
fn covering_by_scan(bursts: &[ProfiledBurst], bytes: u64) -> usize {
    let mut acc = 0u64;
    for (i, b) in bursts.iter().enumerate() {
        acc += b.burst.bytes().get();
        if acc > bytes {
            return i;
        }
    }
    bursts.len()
}

fn one_file_layout() -> (FileSet, DiskLayout) {
    let mut fs = FileSet::new();
    fs.insert(FileMeta {
        id: FileId(1),
        name: "f".into(),
        size: Bytes(2_000_000),
    });
    let l = DiskLayout::build(&fs, 1);
    (fs, l)
}

/// The disk walk as `Estimator::disk_cost` wrote it before the walk had
/// one home, stepping a metered [`Live`] disk: the reference the shared
/// walk of both devices into bare sums must match bit for bit.
fn reference_disk_cost(layout: &DiskLayout, bursts: &[ProfiledBurst], disk: DiskModel) -> Estimate {
    if bursts.is_empty() {
        return Estimate {
            time: Dur::ZERO,
            energy: Joules::ZERO,
        };
    }
    let mut disk = Live::new(disk);
    let start = disk.model.clock();
    let mut t = start;
    for pb in bursts {
        for req in &pb.burst.requests {
            let block = layout.block_of(req.file, req.offset);
            t = disk
                .service(t, &device_request(req.op, req.len, block))
                .complete;
        }
        t += pb.gap_after;
        disk.advance_to(t);
    }
    let time = t.saturating_since(start);
    let params = disk.model.params();
    let park = params.timeout + params.spindown_time + Dur::from_millis(1);
    disk.advance_to(t + park);
    Estimate {
        time,
        energy: disk.meter.total(),
    }
}

/// The WNIC walk as `Estimator::wnic_cost` wrote it: reference.
fn reference_wnic_cost(bursts: &[ProfiledBurst], wnic: WnicModel) -> Estimate {
    if bursts.is_empty() {
        return Estimate {
            time: Dur::ZERO,
            energy: Joules::ZERO,
        };
    }
    let mut wnic = Live::new(wnic);
    let start = wnic.model.clock();
    let mut t = start;
    for pb in bursts {
        for req in &pb.burst.requests {
            t = wnic
                .service(t, &device_request(req.op, req.len, None))
                .complete;
        }
        t += pb.gap_after;
        wnic.advance_to(t);
    }
    let time = t.saturating_since(start);
    let params = wnic.model.params();
    let park = params.psm_timeout + params.to_psm_time + Dur::from_millis(1);
    wnic.advance_to(t + park);
    Estimate {
        time,
        energy: wnic.meter.total(),
    }
}

/// §2.3.2 cache filtering as `filter_resident` wrote it before the
/// estimator filtered in place: a filtered copy of the window, for the
/// reference loops above to walk.
fn reference_filter(
    bursts: &[ProfiledBurst],
    resident: impl Fn(FileId, u64, Bytes) -> f64,
) -> Vec<ProfiledBurst> {
    bursts
        .iter()
        .map(|pb| {
            let mut out = pb.clone();
            out.burst.requests.retain_mut(|req| {
                let frac = resident(req.file, req.offset, req.len).clamp(0.0, 1.0);
                if frac >= 1.0 {
                    return false;
                }
                let remaining = ((req.len.get() as f64) * (1.0 - frac)).ceil() as u64;
                req.len = Bytes(remaining.max(1));
                true
            });
            out
        })
        .filter(|pb| !pb.burst.requests.is_empty() || !pb.gap_after.is_zero())
        .collect()
}

/// The estimator's one walk of both devices against the reference: the
/// bursts `range` of `plan` (compiled from `bursts` against `layout`)
/// walked on the plan, and `bursts[range]`, filtered through `resident`
/// when given, walked by the two reference loops. Time must be equal
/// and energy bit-equal.
fn assert_window_matches_reference(
    layout: &DiskLayout,
    plan: &Plan,
    bursts: &[ProfiledBurst],
    range: Range<usize>,
    disk: DiskModel,
    wnic: WnicModel,
    resident: Option<Residency<'_>>,
) {
    let (got_disk, got_wnic) = plan.costs(range.clone(), disk, wnic, resident);
    let window = &bursts[range];
    let filtered = resident.map(|r| reference_filter(window, r));
    let walked = filtered.as_deref().unwrap_or(window);
    let want_disk = reference_disk_cost(layout, walked, disk);
    let want_wnic = reference_wnic_cost(walked, wnic);
    prop_assert_eq!(got_disk.time, want_disk.time);
    prop_assert_eq!(
        got_disk.energy.get().to_bits(),
        want_disk.energy.get().to_bits()
    );
    prop_assert_eq!(got_wnic.time, want_wnic.time);
    prop_assert_eq!(
        got_wnic.energy.get().to_bits(),
        want_wnic.energy.get().to_bits()
    );
    if walked.is_empty() {
        prop_assert_eq!(got_disk.energy, Joules::ZERO);
        prop_assert_eq!(got_wnic.energy, Joules::ZERO);
    }
}

/// [`assert_window_matches_reference`] over the whole of `bursts`.
fn assert_walk_matches_reference(
    layout: &DiskLayout,
    bursts: &[ProfiledBurst],
    disk: DiskModel,
    wnic: WnicModel,
    resident: Option<Residency<'_>>,
) {
    let plan = Plan::of(bursts, layout);
    assert_window_matches_reference(layout, &plan, bursts, 0..bursts.len(), disk, wnic, resident);
}

/// A small file and a 200 MB one, so requests can be contiguous, short
/// seeks, far seeks, or (past a file's end / file 3) blockless.
fn two_file_layout() -> DiskLayout {
    let mut fs = FileSet::new();
    for (id, size) in [(1, 2_000_000), (2, 200_000_000)] {
        fs.insert(FileMeta {
            id: FileId(id),
            name: format!("f{id}"),
            size: Bytes(size),
        });
    }
    DiskLayout::build(&fs, 3)
}

/// Think gaps on both sides of the 800 ms PSM timeout, the 20 s disk
/// timeout and the end of the 2.3 s spin-down after it.
fn arb_gap() -> impl Strategy<Value = Dur> {
    const BANDS_US: [(u64, u64); 5] = [
        (0, 50_000),
        (600_000, 1_000_000),
        (19_000_000, 21_000_000),
        (21_000_000, 23_500_000),
        (23_500_000, 60_000_000),
    ];
    (0usize..BANDS_US.len(), any::<u64>()).prop_map(|(band, x)| {
        let (lo, hi) = BANDS_US[band];
        Dur(lo + x % (hi - lo))
    })
}

/// Bursts of reads and writes; each request either continues the
/// previous one or jumps to a drawn file and offset.
fn arb_walk_bursts() -> impl Strategy<Value = Vec<ProfiledBurst>> {
    let req = (
        1u64..=3,
        any::<bool>(),
        any::<bool>(),
        0u64..250_000_000,
        1u64..300_000,
    );
    let burst = (proptest::collection::vec(req, 0..6), arb_gap());
    proptest::collection::vec(burst, 0..12).prop_map(|raw| {
        let mut prev: Option<MergedRequest> = None;
        raw.into_iter()
            .map(|(reqs, gap_after)| {
                let requests = reqs
                    .into_iter()
                    .map(|(file, write, contiguous, offset, len)| {
                        let op = if write { IoOp::Write } else { IoOp::Read };
                        let r = match prev {
                            Some(p) if contiguous => MergedRequest {
                                op,
                                offset: p.end_offset(),
                                len: Bytes(len),
                                ..p
                            },
                            _ => MergedRequest {
                                file: FileId(file),
                                op,
                                offset,
                                len: Bytes(len),
                            },
                        };
                        prev = Some(r);
                        r
                    })
                    .collect();
                ProfiledBurst {
                    burst: IoBurst {
                        start: SimTime::ZERO,
                        end: SimTime::ZERO,
                        requests,
                    },
                    gap_after,
                }
            })
            .collect()
    })
}

/// [`arb_walk_bursts`] with some gaps forced to zero, so a burst whose
/// requests are all cached can vanish from the window.
fn arb_filter_bursts() -> impl Strategy<Value = Vec<ProfiledBurst>> {
    (arb_walk_bursts(), any::<u16>()).prop_map(|(mut bursts, zero)| {
        for (i, pb) in bursts.iter_mut().enumerate() {
            if zero >> i & 1 == 1 {
                pb.gap_after = Dur::ZERO;
            }
        }
        bursts
    })
}

/// A residency probe: each `(file, offset, len)` hashes (with `salt`)
/// to one of `fracs`; `all` makes every request fully resident.
fn probe(fracs: &[f64], salt: u64, all: bool) -> impl Fn(FileId, u64, Bytes) -> f64 + '_ {
    move |file, offset, len| {
        if all {
            return 1.0;
        }
        let h = (file.0 ^ salt)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(offset ^ len.get().rotate_left(17))
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        fracs[(h >> 32) as usize % fracs.len()]
    }
}

/// Resident fractions: none, all, out-of-range values the probe's
/// clamp must absorb, and partial fractions (one within a byte of all).
fn arb_fracs() -> impl Strategy<Value = Vec<f64>> {
    let frac = (0u8..6, 0.0f64..1.0).prop_map(|(kind, x)| match kind {
        0 => 0.0,
        1 => 1.0,
        2 => -0.5,
        3 => 1.5,
        4 => 1.0 - 1e-9,
        _ => x,
    });
    proptest::collection::vec(frac, 1..6)
}

/// Disk start states: idle, standby, mid-spin-down, and idle after a
/// request (so the sequential hint is set).
fn disk_start(kind: u8, at_ms: u64) -> DiskModel {
    let params = DiskParams::hitachi_dk23da();
    match kind {
        0 => DiskModel::new(params),
        1 => DiskModel::new_standby(params),
        2 => {
            let mut d = Live::new(DiskModel::new(params));
            let into_spindown = Dur(at_ms * 1_000 % params.spindown_time.as_micros());
            d.advance_to(SimTime::ZERO + params.timeout + into_spindown);
            d.model
        }
        _ => {
            let mut d = Live::new(DiskModel::new(params));
            d.service(
                SimTime::from_millis(at_ms),
                &DeviceRequest::read(Bytes::kib(64), Some(0)),
            );
            d.model
        }
    }
}

/// WNIC start states: PSM, CAM, and mid CAM→PSM switch.
fn wnic_start(kind: u8, at_ms: u64) -> WnicModel {
    let params = WnicParams::cisco_aironet350();
    match kind {
        0 => WnicModel::new(params),
        1 => WnicModel::new_cam(params),
        _ => {
            let mut w = Live::new(WnicModel::new_cam(params));
            let into_switch = Dur(at_ms * 1_000 % params.to_psm_time.as_micros());
            w.advance_to(SimTime::ZERO + params.psm_timeout + into_switch);
            w.model
        }
    }
}

proptest! {
    /// Stages partition the burst sequence exactly, in order.
    #[test]
    fn stages_partition(bursts in arb_bursts(), stage_secs in 1u64..300) {
        let stages = stages_of(&bursts, Dur::from_secs(stage_secs));
        let total: usize = stages.iter().map(|s| s.len()).sum();
        prop_assert_eq!(total, bursts.len());
        let mut idx = 0;
        for s in &stages {
            prop_assert_eq!(s.first_burst, idx);
            for (k, pb) in s.bursts.iter().enumerate() {
                prop_assert_eq!(pb, &bursts[idx + k]);
            }
            idx += s.len();
        }
        // Every stage except possibly the last exceeds the threshold.
        for s in stages.iter().rev().skip(1) {
            prop_assert!(s.span() > Dur::from_secs(stage_secs));
        }
    }

    /// `bursts_covering` is monotone in bytes and bounded by the length.
    #[test]
    fn covering_is_monotone(bursts in arb_bursts(), a in 0u64..1 << 40, b in 0u64..1 << 40) {
        let p = Profile { app: "p".into(), bursts };
        let (lo, hi) = (a.min(b), a.max(b));
        let na = p.bursts_covering(Bytes(lo));
        let nb = p.bursts_covering(Bytes(hi));
        prop_assert!(na <= nb);
        prop_assert!(nb <= p.len());
        // Definition: the first n bursts hold at most `bytes`.
        let covered: u64 =
            p.bursts.iter().take(na).map(|x| x.burst.bytes().get()).sum();
        prop_assert!(covered <= lo || na == 0);
    }

    /// The prefix-sum `bursts_covering` agrees with a linear scan at and
    /// around every prefix boundary, zero-byte bursts included.
    #[test]
    fn covering_matches_linear_scan(
        tiny in arb_tiny_bursts(),
        big in arb_bursts(),
        extra in 0u64..1 << 32,
    ) {
        for bursts in [tiny, big] {
            let p = Profile { app: "p".into(), bursts };
            let mut probes = vec![0, extra];
            let mut acc = 0u64;
            for b in &p.bursts {
                acc += b.burst.bytes().get();
                probes.extend([acc.saturating_sub(1), acc, acc + 1]);
            }
            for bytes in probes {
                prop_assert_eq!(
                    p.bursts_covering(Bytes(bytes)),
                    covering_by_scan(&p.bursts, bytes),
                    "bytes = {}", bytes
                );
            }
        }
    }

    /// `first_stage` is the first of `stages_of` from any starting burst,
    /// and its window *just* exceeds the stage length: dropping its last
    /// burst brings the span back within it.
    #[test]
    fn first_stage_is_the_leading_stage(bursts in arb_bursts(), stage_secs in 1u64..300) {
        let len = Dur::from_secs(stage_secs);
        for k in 0..=bursts.len() {
            let rest = &bursts[k..];
            let window = first_stage(rest, len);
            let stages = stages_of(rest, len);
            let expect: &[ProfiledBurst] = stages.first().map_or(&[], |s| &s.bursts);
            prop_assert_eq!(window, expect, "k = {}", k);
            if window.len() < rest.len() {
                let span = |w: &[ProfiledBurst]| w.iter().map(|b| b.span()).sum::<Dur>();
                prop_assert!(span(window) > len);
                prop_assert!(span(&window[..window.len() - 1]) <= len);
            }
        }
    }

    /// Device costs are monotone in payload: scaling every burst up never
    /// reduces estimated time or energy.
    #[test]
    fn estimates_monotone_in_bytes(bursts in arb_bursts()) {
        prop_assume!(!bursts.is_empty());
        let (_, layout) = one_file_layout();
        let bigger: Vec<ProfiledBurst> = bursts
            .iter()
            .map(|pb| {
                let mut out = pb.clone();
                for r in &mut out.burst.requests {
                    r.len = Bytes(r.len.get() * 2);
                }
                out
            })
            .collect();
        let costs = |bursts: &[ProfiledBurst]| {
            Plan::of(bursts, &layout).costs(
                0..bursts.len(),
                DiskModel::new(DiskParams::hitachi_dk23da()),
                WnicModel::new(WnicParams::cisco_aironet350()),
                None,
            )
        };
        let ((d_small, w_small), (d_big, w_big)) = (costs(&bursts), costs(&bigger));
        prop_assert!(d_big.time >= d_small.time);
        prop_assert!(d_big.energy.get() >= d_small.energy.get() - 1e-9);
        prop_assert!(w_big.time >= w_small.time);
        prop_assert!(w_big.energy.get() >= w_small.energy.get() - 1e-9);
    }

    /// splice(observed, n) has the declared length and content.
    #[test]
    fn splice_shape(bursts in arb_bursts(), n in 0usize..50) {
        let p = Profile { app: "p".into(), bursts: bursts.clone() };
        let observed = &bursts[..bursts.len().min(3)];
        let s = p.splice(observed, n);
        let tail = p.len().saturating_sub(n);
        prop_assert_eq!(s.len(), observed.len() + tail);
    }

    /// merge_concurrent conserves bursts and bytes for any two profiles.
    #[test]
    fn merge_conserves(a in arb_bursts(), b in arb_bursts()) {
        let pa = Profile { app: "a".into(), bursts: a };
        let pb = Profile { app: "b".into(), bursts: b };
        let m = pa.merge_concurrent(&pb);
        prop_assert_eq!(m.len(), pa.len() + pb.len());
        prop_assert_eq!(
            m.total_bytes().get(),
            pa.total_bytes().get() + pb.total_bytes().get()
        );
        for w in m.bursts.windows(2) {
            prop_assert!(w[0].burst.start <= w[1].burst.start);
        }
    }

    /// The one shared walk of both devices reproduces the two loops it
    /// replaced: equal time and bit-equal energy from every start state.
    #[test]
    fn walk_is_bit_identical_to_the_reference_loops(
        bursts in arb_walk_bursts(),
        disk_kind in 0u8..4,
        wnic_kind in 0u8..3,
        at_ms in 0u64..10_000,
    ) {
        let (disk, wnic) = (disk_start(disk_kind, at_ms), wnic_start(wnic_kind, at_ms));
        assert_walk_matches_reference(&two_file_layout(), &bursts, disk, wnic, None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// Filtering in place while walking costs exactly what walking a
    /// filtered copy on the reference loops costs, bit for bit, from
    /// every start state; an all-filtered window costs nothing.
    #[test]
    fn pair_walk_matches_filter_then_reference_loops(
        bursts in arb_filter_bursts(),
        fracs in arb_fracs(),
        salt in any::<u64>(),
        all in 0u8..7,
        disk_kind in 0u8..4,
        wnic_kind in 0u8..3,
        at_ms in 0u64..10_000,
    ) {
        let resident = probe(&fracs, salt, all == 0);
        let (disk, wnic) = (disk_start(disk_kind, at_ms), wnic_start(wnic_kind, at_ms));
        assert_walk_matches_reference(&two_file_layout(), &bursts, disk, wnic, Some(&resident));
    }

    /// Every window `skip..skip + n` of one compiled plan, the empty ones
    /// included, walked with and without a residency probe, costs what
    /// the reference loops cost over `bursts[skip..skip + n]`: the
    /// window's first step, its blocks (contiguous, far, past a file's
    /// end, of a file the layout does not hold) and its filtering come
    /// from the plan, not from a slice of the profile. A range reaching
    /// past the plan walks nothing.
    #[test]
    fn plan_windows_match_the_reference_loops(
        bursts in arb_filter_bursts(),
        fracs in arb_fracs(),
        salt in any::<u64>(),
        disk_kind in 0u8..4,
        wnic_kind in 0u8..3,
        at_ms in 0u64..10_000,
    ) {
        let layout = two_file_layout();
        let plan = Plan::of(&bursts, &layout);
        let resident = probe(&fracs, salt, false);
        let (disk, wnic) = (disk_start(disk_kind, at_ms), wnic_start(wnic_kind, at_ms));
        for skip in 0..=bursts.len() {
            for n in 0..=bursts.len() - skip {
                for probe in [None, Some(&resident as Residency<'_>)] {
                    assert_window_matches_reference(
                        &layout, &plan, &bursts, skip..skip + n, disk, wnic, probe,
                    );
                }
            }
        }
        let (d, w) = plan.costs(bursts.len()..bursts.len() + 2, disk, wnic, None);
        prop_assert_eq!((d.energy, w.energy), (Joules::ZERO, Joules::ZERO));
        prop_assert_eq!((d.time, w.time), (Dur::ZERO, Dur::ZERO));
    }
}
