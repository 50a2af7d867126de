//! The on-line device simulator (§2.2).
//!
//! *"In order to estimate execution times and energy costs for servicing
//! I/O requests on various data sources, we need to calculate the length
//! of period of time when a device stays at each power mode. To this end,
//! we maintain an on-line simulator for each device to emulate their
//! power saving policies."*
//!
//! The estimator walks a burst window over a **copy** of each device's
//! power-state machine, booking into a local [`Joules`] sum: requests
//! inside a burst go back to back (the paper's peak-bandwidth-within-
//! burst assumption — merging already folded the intra-burst think times
//! away), and inter-burst think times advance the device clock so its
//! timeout policy (spin-down / CAM→PSM) fires exactly as it would live.
//!
//! A burst sequence is compiled once into a [`Plan`]: one flat array of
//! steps, each a request with its disk block already resolved against
//! the layout, and one `(end, gap)` entry per burst. [`Plan::walk`]
//! walks a range of the plan's bursts, stepping the disk and the WNIC in
//! lockstep; §2.3.2 cache filtering asks the residency probe once per
//! step as the walk reaches it. A walk looks up no block and builds no
//! filtered copy of the window.

use crate::burst::{MergedRequest, ProfiledBurst};
use ff_base::{Bytes, Dur, Joules, SimTime};
use ff_device::{DeviceRequest, Dir, DiskModel, PowerModel, WnicModel};
use ff_trace::{DiskLayout, FileId, IoOp};
use std::ops::Range;

/// The `(T, E)` pair the decision rules consume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Estimated execution time of the stage (service + think).
    pub time: Dur,
    /// Estimated energy over that period (service + idle + transitions).
    pub energy: Joules,
}

impl Estimate {
    const ZERO: Estimate = Estimate {
        time: Dur::ZERO,
        energy: Joules::ZERO,
    };
}

/// The §2.3.2 residency probe: the fraction of `(file, offset, len)`
/// resident in the buffer cache, in `[0, 1]`.
pub type Residency<'r> = &'r dyn Fn(FileId, u64, Bytes) -> f64;

/// A burst sequence compiled against a disk layout, for walking any
/// range of its bursts.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Every request of every burst, in order.
    steps: Vec<Step>,
    /// Per burst: the index in `steps` one past its last request, and
    /// the think gap after it.
    bursts: Vec<(usize, Dur)>,
}

/// One profiled request and the disk block of its first byte (`None`
/// past the file's end or for a file the layout does not hold).
#[derive(Debug, Clone, Copy)]
struct Step {
    req: MergedRequest,
    block: Option<u64>,
}

impl Plan {
    /// Compile `bursts`, resolving every request's disk block through
    /// `layout` once.
    pub fn of(bursts: &[ProfiledBurst], layout: &DiskLayout) -> Plan {
        let mut steps = Vec::with_capacity(bursts.iter().map(|pb| pb.burst.requests.len()).sum());
        let bursts = bursts
            .iter()
            .map(|pb| {
                steps.extend(pb.burst.requests.iter().map(|&req| Step {
                    req,
                    block: layout.block_of(req.file, req.offset),
                }));
                (steps.len(), pb.gap_after)
            })
            .collect();
        Plan { steps, bursts }
    }

    /// Walk the bursts in `bursts` (indices into the compiled sequence)
    /// over copies of `disk` and `wnic` in lockstep, starting from each
    /// model's current power state (pass `*ctx.disk` to start from the
    /// live disk), without parking.
    ///
    /// With `resident`, each request asks the probe once: a fully
    /// resident request never reaches a device, a partly resident one
    /// shrinks to `max(1, ceil(len · (1 − frac)))` bytes, and a burst
    /// left empty with a zero gap is dropped. A range that is not inside
    /// the plan walks nothing.
    pub fn walk(
        &self,
        bursts: Range<usize>,
        disk: DiskModel,
        wnic: WnicModel,
        resident: Option<Residency<'_>>,
    ) -> Walked {
        let mut disk = Lane::new(disk);
        let mut wnic = Lane::new(wnic);
        let mut kept_any = false;
        // The window's first step: where the burst before it ends.
        let mut first = bursts
            .start
            .checked_sub(1)
            .and_then(|b| self.bursts.get(b))
            .map_or(0, |&(end, _)| end);
        for &(end, gap_after) in self.bursts.get(bursts).unwrap_or_default() {
            // Without a probe every burst is kept.
            let mut kept = resident.is_none();
            for step in self.steps.get(first..end).unwrap_or_default() {
                let req = &step.req;
                let len = match resident {
                    None => req.len,
                    Some(resident) => {
                        let frac = resident(req.file, req.offset, req.len).clamp(0.0, 1.0);
                        if frac >= 1.0 {
                            continue; // fully cached — never reaches a device
                        }
                        // Partial residency: shrink the device-visible request.
                        let remaining = ((req.len.get() as f64) * (1.0 - frac)).ceil() as u64;
                        kept = true;
                        Bytes(remaining.max(1))
                    }
                };
                disk.serve(device_request(req.op, len, step.block));
                wnic.serve(device_request(req.op, len, None));
            }
            first = end;
            if !kept && gap_after.is_zero() {
                continue; // nothing served and no think time passes
            }
            disk.think(gap_after);
            wnic.think(gap_after);
            kept_any = true;
        }
        Walked {
            disk,
            wnic,
            kept: kept_any,
        }
    }

    /// `((T_disk, E_disk), (T_network, E_network))` for servicing the
    /// bursts in `bursts`: [`Plan::walk`], then [`Walked::park`].
    pub fn costs(
        &self,
        bursts: Range<usize>,
        disk: DiskModel,
        wnic: WnicModel,
        resident: Option<Residency<'_>>,
    ) -> (Estimate, Estimate) {
        self.walk(bursts, disk, wnic, resident).park()
    }
}

/// A window walked over both devices, not yet parked.
#[derive(Debug, Clone, Copy)]
pub struct Walked {
    disk: Lane<DiskModel>,
    wnic: Lane<WnicModel>,
    kept: bool,
}

impl Walked {
    /// The disk's power-state machine where the window's last gap ends.
    pub fn disk(&self) -> &DiskModel {
        &self.disk.model
    }

    /// Both estimates. Each includes the device's **parking cost**: after
    /// the last burst the model runs until the device reaches its
    /// low-power resting state (disk: idle timeout + spin-down; WNIC: CAM
    /// idle-out + the CAM→PSM switch). Without this, a decision to wake
    /// the disk for one small burst would look ~35 J cheaper than it
    /// really is — the idle tail is a direct consequence of the decision.
    /// A window that filtering left empty costs nothing and is not parked.
    pub fn park(self) -> (Estimate, Estimate) {
        if !self.kept {
            return (Estimate::ZERO, Estimate::ZERO);
        }
        let (d, w) = (self.disk.model.params(), self.wnic.model.params());
        let disk_park = d.timeout + d.spindown_time + Dur::from_millis(1);
        let wnic_park = w.psm_timeout + w.to_psm_time + Dur::from_millis(1);
        (self.disk.park(disk_park), self.wnic.park(wnic_park))
    }
}

/// One device walking a window: a copy of its power-state machine, the
/// walk's start and clock, and the energy booked so far.
#[derive(Debug, Clone, Copy)]
struct Lane<M> {
    model: M,
    start: SimTime,
    t: SimTime,
    energy: Joules,
}

impl<M: PowerModel> Lane<M> {
    fn new(model: M) -> Self {
        let start = model.clock();
        Lane {
            model,
            start,
            t: start,
            energy: Joules::ZERO,
        }
    }

    /// Service `req` as soon as the device is free: requests inside a
    /// burst go back to back.
    fn serve(&mut self, req: DeviceRequest) {
        self.t = self.model.service(self.t, &req, &mut self.energy).complete;
    }

    /// Let the think gap after a burst pass, so timeouts fire.
    fn think(&mut self, gap: Dur) {
        self.t += gap;
        self.model.advance_to(self.t, &mut self.energy);
    }

    /// The walk's time, and its energy after running the model `park`
    /// past the walk's end.
    fn park(mut self, park: Dur) -> Estimate {
        self.model.advance_to(self.t + park, &mut self.energy);
        Estimate {
            time: self.t.saturating_since(self.start),
            energy: self.energy,
        }
    }
}

/// The device request for `len` bytes of `op` at `block`: the one place
/// an application [`IoOp`] becomes a device [`Dir`].
pub fn device_request(op: IoOp, len: Bytes, block: Option<u64>) -> DeviceRequest {
    let dir = match op {
        IoOp::Read => Dir::Read,
        IoOp::Write => Dir::Write,
    };
    DeviceRequest {
        dir,
        bytes: len,
        block,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::burst::IoBurst;
    use ff_device::{DiskParams, WnicParams};
    use ff_trace::{FileMeta, FileSet};

    fn layout_for(file: u64, size: u64) -> (FileSet, DiskLayout) {
        let mut fs = FileSet::new();
        fs.insert(FileMeta {
            id: FileId(file),
            name: "f".into(),
            size: Bytes(size),
        });
        let l = DiskLayout::build(&fs, 1);
        (fs, l)
    }

    /// Both estimates of all of `bursts`, compiled against `layout`.
    fn costs(
        layout: &DiskLayout,
        bursts: &[ProfiledBurst],
        disk: DiskModel,
        wnic: WnicModel,
        resident: Option<Residency<'_>>,
    ) -> (Estimate, Estimate) {
        Plan::of(bursts, layout).costs(0..bursts.len(), disk, wnic, resident)
    }

    /// The disk's estimate alone, next to an idle card.
    fn disk_cost(layout: &DiskLayout, bursts: &[ProfiledBurst], disk: DiskModel) -> Estimate {
        let wnic = WnicModel::new(WnicParams::cisco_aironet350());
        costs(layout, bursts, disk, wnic, None).0
    }

    fn burst(bytes_each: &[u64], gap: Dur) -> ProfiledBurst {
        let mut off = 0;
        let reqs = bytes_each
            .iter()
            .map(|&b| {
                let r = MergedRequest {
                    file: FileId(1),
                    op: IoOp::Read,
                    offset: off,
                    len: Bytes(b),
                };
                off += b;
                r
            })
            .collect();
        ProfiledBurst {
            burst: IoBurst {
                start: SimTime::ZERO,
                end: SimTime::ZERO,
                requests: reqs,
            },
            gap_after: gap,
        }
    }

    #[test]
    fn disk_estimate_counts_positioning_transfer_and_idle() {
        let (_, l) = layout_for(1, 10_000_000);
        // One burst: 1 MB sequential (one merged request), then 5 s think.
        let bursts = vec![burst(&[1_000_000], Dur::from_secs(5))];
        let disk = DiskModel::new(DiskParams::hitachi_dk23da());
        let e = disk_cost(&l, &bursts, disk);
        // Time: 20 ms + 1/35 s + 5 s ≈ 5.0486 s (parking not counted in T).
        assert!((e.time.as_secs_f64() - 5.0486).abs() < 0.001, "{}", e.time);
        // Energy: 2 W × 48.6 ms + 1.6 W × 5 s ≈ 8.097 J, plus parking —
        // the 5 s gap already burned 5 s of the 20 s timeout, so 15 s
        // idle × 1.6 W + 2.94 J spin-down + ~0.75 J standby ≈ 35.79 J.
        assert!((e.energy.get() - 35.79).abs() < 0.05, "{}", e.energy);
    }

    #[test]
    fn long_gap_lets_the_estimated_disk_spin_down() {
        let (_, l) = layout_for(1, 10_000_000);
        let bursts = vec![
            burst(&[100_000], Dur::from_secs(30)), // > 20 s timeout
            burst(&[100_000], Dur::ZERO),
        ];
        let e = disk_cost(&l, &bursts, DiskModel::new(DiskParams::hitachi_dk23da()));
        // Second burst must pay a spin-up: ~23 ms + 30 s + 1.6 s + 23 ms.
        assert!(e.time > Dur::from_millis(31_600), "{}", e.time);
        assert!(e.time < Dur::from_secs(32), "{}", e.time);
        // Energy includes spin-down + spin-up ≈ 7.94 J of transitions.
        assert!(e.energy.get() > 7.94);
    }

    #[test]
    fn wnic_estimate_prefers_small_intermittent_loads() {
        let (_, l) = layout_for(1, 100_000_000);
        // Paced streaming: 64 KiB every 2.5 s — the mplayer shape (the
        // disk burns 1.6 W between refills; the card drops to PSM).
        let bursts: Vec<_> = (0..80)
            .map(|_| burst(&[65_536], Dur::from_millis(2_500)))
            .collect();
        let (disk, wnic) = costs(
            &l,
            &bursts,
            DiskModel::new(DiskParams::hitachi_dk23da()),
            WnicModel::new(WnicParams::cisco_aironet350()),
            None,
        );
        assert!(
            wnic.energy < disk.energy,
            "intermittent small reads must favour the WNIC: {} vs {}",
            wnic.energy,
            disk.energy
        );
    }

    #[test]
    fn disk_wins_big_sequential_bursts() {
        let (_, l) = layout_for(1, 100_000_000);
        // grep/search shape: one dense 50 MB burst.
        let reqs: Vec<u64> = vec![131_072; 400];
        let bursts = vec![burst(&reqs, Dur::ZERO)];
        let (disk, wnic) = costs(
            &l,
            &bursts,
            DiskModel::new(DiskParams::hitachi_dk23da()),
            WnicModel::new(WnicParams::cisco_aironet350()),
            None,
        );
        assert!(
            disk.energy < wnic.energy,
            "bulk sequential reads must favour the disk: {} vs {}",
            disk.energy,
            wnic.energy
        );
        assert!(disk.time < wnic.time);
    }

    #[test]
    fn estimate_starts_from_given_device_state() {
        let (_, l) = layout_for(1, 10_000_000);
        let bursts = vec![burst(&[4096], Dur::ZERO)];
        let spun = disk_cost(&l, &bursts, DiskModel::new(DiskParams::hitachi_dk23da()));
        let standby = disk_cost(
            &l,
            &bursts,
            DiskModel::new_standby(DiskParams::hitachi_dk23da()),
        );
        assert!(
            standby.energy.get() > spun.energy.get() + 4.9,
            "spin-up must show up"
        );
        assert!(standby.time > spun.time + Dur::from_millis(1_500));
    }

    /// Both estimates of `bursts` filtered through `resident`, and of
    /// `want` unfiltered, from an idle disk and a PSM card: the filtered
    /// walk must cost exactly what walking the filtered window costs.
    fn assert_filters_to(
        bursts: &[ProfiledBurst],
        resident: Residency<'_>,
        want: &[ProfiledBurst],
    ) -> (Estimate, Estimate) {
        let (_, l) = layout_for(1, 10_000_000);
        let disk = DiskModel::new(DiskParams::hitachi_dk23da());
        let wnic = WnicModel::new(WnicParams::cisco_aironet350());
        let got = costs(&l, bursts, disk, wnic, Some(resident));
        assert_eq!(got, costs(&l, want, disk, wnic, None));
        got
    }

    #[test]
    fn filter_drops_fully_resident_requests() {
        let bursts = vec![burst(&[4096, 4096], Dur::from_secs(1))];
        let mut want = bursts.clone();
        want[0].burst.requests.remove(0);
        assert_eq!(want[0].burst.requests[0].offset, 4096);
        let (disk, _) = assert_filters_to(
            &bursts,
            &|_, offset, _| if offset == 0 { 1.0 } else { 0.0 },
            &want,
        );
        assert!(disk.energy > Joules::ZERO);
    }

    #[test]
    fn filter_shrinks_partially_resident_requests() {
        assert_filters_to(
            &[burst(&[10_000], Dur::ZERO)],
            &|_, _, _| 0.5,
            &[burst(&[5_000], Dur::ZERO)],
        );
        // A sliver left over still costs at least one byte.
        assert_filters_to(
            &[burst(&[10_000], Dur::ZERO)],
            &|_, _, _| 0.999_999_9,
            &[burst(&[1], Dur::ZERO)],
        );
    }

    #[test]
    fn filter_removes_empty_zero_gap_bursts() {
        let got = assert_filters_to(&[burst(&[4096], Dur::ZERO)], &|_, _, _| 1.0, &[]);
        // An all-filtered window costs nothing and is not parked.
        assert_eq!(got.0, Estimate::ZERO);
        assert_eq!(got.1, Estimate::ZERO);
    }

    #[test]
    fn filter_keeps_gap_of_emptied_burst() {
        // The think time still passes even if the data was cached.
        let (disk, wnic) = assert_filters_to(
            &[burst(&[4096], Dur::from_secs(3))],
            &|_, _, _| 1.0,
            &[burst(&[], Dur::from_secs(3))],
        );
        assert_eq!(disk.time, Dur::from_secs(3));
        assert_eq!(wnic.time, Dur::from_secs(3));
        assert!(disk.energy > Joules::ZERO, "the idle tail is parked");
    }

    #[test]
    fn walk_asks_the_probe_once_per_request() {
        let (_, l) = layout_for(1, 10_000_000);
        let asked = std::cell::Cell::new(0);
        let probe = |_, _, _| {
            asked.set(asked.get() + 1);
            0.25
        };
        let bursts = vec![
            burst(&[4096, 8192, 100], Dur::from_secs(2)),
            burst(&[65_536], Dur::ZERO),
        ];
        costs(
            &l,
            &bursts,
            DiskModel::new(DiskParams::hitachi_dk23da()),
            WnicModel::new(WnicParams::cisco_aironet350()),
            Some(&probe),
        );
        assert_eq!(asked.get(), 4);
    }

    #[test]
    fn walked_disk_is_read_before_parking() {
        let (_, l) = layout_for(1, 10_000_000);
        let bursts = vec![
            burst(&[4096, 131_072], Dur::from_secs(25)),
            burst(&[65_536], Dur::from_millis(900)),
        ];
        let disk = DiskModel::new_standby(DiskParams::hitachi_dk23da());
        let wnic = WnicModel::new(WnicParams::cisco_aironet350());
        let plan = Plan::of(&bursts, &l);
        let walked = plan.walk(0..bursts.len(), disk, wnic, None);
        // The 900 ms gap leaves the spun-up disk idle.
        assert!(walked.disk().is_ready());
        let (d, w) = walked.park();
        assert_eq!((d, w), costs(&l, &bursts, disk, wnic, None));
        assert!(d.energy > Joules::ZERO && w.energy > Joules::ZERO);
    }

    #[test]
    fn empty_bursts_cost_only_idle() {
        let (_, l) = layout_for(1, 10_000);
        let e = costs(
            &l,
            &[],
            DiskModel::new(DiskParams::hitachi_dk23da()),
            WnicModel::new(WnicParams::cisco_aironet350()),
            None,
        );
        assert_eq!(e, (Estimate::ZERO, Estimate::ZERO));
    }
}
