//! Property tests for the device power models: conservation and
//! consistency laws that must hold for any request schedule, and the
//! meter contract — a model books the same terms whichever [`Meter`] the
//! caller passes, each stamped with the machine's clock.

use ff_base::{Bytes, Dur, Joules, SimTime, Watts};
use ff_device::{
    DeviceRequest, Dir, DiskModel, DiskParams, FlashModel, FlashParams, Live, Meter, PowerModel,
    ServiceOutcome, WnicModel, WnicParams,
};
use proptest::prelude::*;

/// A random schedule: (gap to next arrival in ms, bytes, read?, block).
fn arb_schedule() -> impl Strategy<Value = Vec<(u64, u64, bool, u64)>> {
    proptest::collection::vec(
        (0u64..40_000, 1u64..4_000_000, any::<bool>(), 0u64..100_000),
        1..40,
    )
}

/// One step of a device stream: advance the clock by `gap_ms`, then
/// service a request when `serve` is set.
#[derive(Debug, Clone, Copy)]
struct Step {
    gap_ms: u64,
    serve: bool,
    req: DeviceRequest,
}

/// A random advance/service stream.
fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (
            any::<bool>(),
            0u64..40_000,
            1u64..4_000_000,
            any::<bool>(),
            0u64..100_000,
        )
            .prop_map(|(serve, gap_ms, bytes, read, block)| Step {
                gap_ms,
                serve,
                req: DeviceRequest {
                    dir: if read { Dir::Read } else { Dir::Write },
                    bytes: Bytes(bytes),
                    block: Some(block),
                },
            }),
        1..40,
    )
}

fn run_disk(schedule: &[(u64, u64, bool, u64)]) -> (Live<DiskModel>, Vec<ServiceOutcome>) {
    let mut disk = Live::new(DiskModel::new(DiskParams::hitachi_dk23da()));
    let mut t = SimTime::ZERO;
    let mut outs = Vec::new();
    for &(gap_ms, bytes, read, block) in schedule {
        t += Dur::from_millis(gap_ms);
        let req = DeviceRequest {
            dir: if read { Dir::Read } else { Dir::Write },
            bytes: Bytes(bytes),
            block: Some(block),
        };
        let out = disk.service(t, &req);
        t = out.complete;
        outs.push(out);
    }
    (disk, outs)
}

/// Every [`Step`] on `model`, booked into `meter`: the outcome (if any)
/// and the clock after each step.
fn drive<M: PowerModel>(
    mut model: M,
    meter: &mut impl Meter,
    steps: &[Step],
) -> Vec<(Option<ServiceOutcome>, SimTime)> {
    let mut t = SimTime::ZERO;
    let mut trail = Vec::new();
    for step in steps {
        t += Dur::from_millis(step.gap_ms);
        let out = if step.serve {
            let out = model.service(t, &step.req, meter);
            t = out.complete;
            Some(out)
        } else {
            model.advance_to(t, meter);
            None
        };
        trail.push((out, model.clock()));
    }
    trail
}

/// The same stream stepped on a [`Live`] device.
fn drive_live<M: PowerModel>(
    live: &mut Live<M>,
    steps: &[Step],
) -> Vec<(Option<ServiceOutcome>, SimTime)> {
    let mut t = SimTime::ZERO;
    let mut trail = Vec::new();
    for step in steps {
        t += Dur::from_millis(step.gap_ms);
        let out = if step.serve {
            let out = live.service(t, &step.req);
            t = out.complete;
            Some(out)
        } else {
            live.advance_to(t);
            None
        };
        trail.push((out, live.model.clock()));
    }
    trail
}

/// Meter neutrality: a copy walked into a bare `Joules` sum and the
/// [`Live`] device see identical outcomes and clocks, and the sum is the
/// live meter's total bit for bit.
fn assert_meter_neutral<M: PowerModel>(model: M, steps: &[Step]) {
    let mut sum = Joules::ZERO;
    let copied = drive(model, &mut sum, steps);
    let mut live = Live::new(model);
    let metered = drive_live(&mut live, steps);
    assert_eq!(copied, metered);
    assert_eq!(sum.get().to_bits(), live.meter.total().get().to_bits());
}

/// A meter that records every booking and checks its stamp against the
/// clock rebuilt from the dwells booked so far.
#[derive(Default)]
struct Tape {
    clock: SimTime,
    bookings: Vec<(SimTime, &'static str)>,
    off_clock: usize,
}

impl Meter for Tape {
    fn dwell(&mut self, at: SimTime, state: &'static str, _power: Watts, d: Dur) {
        self.off_clock += usize::from(at != self.clock);
        self.bookings.push((at, state));
        self.clock = at + d;
    }

    fn transition(&mut self, at: SimTime, name: &'static str, _energy: Joules) {
        self.off_clock += usize::from(at != self.clock);
        self.bookings.push((at, name));
    }
}

/// Every booking is stamped with the machine's clock, and the live
/// state log's entries are those stamps, never decreasing.
fn assert_stamps_follow_the_clock<M: PowerModel>(model: M, steps: &[Step]) {
    let mut tape = Tape {
        clock: model.clock(),
        ..Tape::default()
    };
    let trail = drive(model, &mut tape, steps);
    assert_eq!(tape.off_clock, 0, "a booking was stamped off the clock");
    let end = trail.last().map_or(model.clock(), |&(_, clock)| clock);
    assert!(tape.clock <= end);

    let mut live = Live::new(model);
    live.meter.enable_state_log();
    drive_live(&mut live, steps);
    let log = live.meter.take_state_changes();
    assert!(
        log.windows(2).all(|w| w[0].at <= w[1].at),
        "stamps decrease"
    );
    // The log is a subsequence of the bookings.
    let mut bookings = tape.bookings.iter();
    for c in &log {
        assert!(
            bookings.any(|&(at, name)| (at, name) == (c.at, c.state)),
            "{c:?} was never booked at that clock"
        );
    }
}

proptest! {
    /// Meter total equals the sum of residency and transition energies —
    /// no energy appears or vanishes outside the books.
    #[test]
    fn disk_energy_is_fully_attributed(schedule in arb_schedule()) {
        let (disk, _) = run_disk(&schedule);
        let m = &disk.meter;
        let parts: f64 = m.residencies().map(|(_, _, e)| e.get()).sum::<f64>()
            + m.transitions().map(|(_, _, e)| e.get()).sum::<f64>();
        prop_assert!((m.total().get() - parts).abs() < 1e-6);
        prop_assert!(m.total().get() >= 0.0);
    }

    /// Completions are non-decreasing and each request's energy is
    /// non-negative and finite.
    #[test]
    fn disk_completions_are_ordered(schedule in arb_schedule()) {
        let (_, outs) = run_disk(&schedule);
        for w in outs.windows(2) {
            prop_assert!(w[1].complete >= w[0].complete);
        }
        for o in &outs {
            prop_assert!(o.energy.is_valid());
        }
    }

    /// `estimate` == `service` for the next request (the probe is exact),
    /// and it does not mutate the model.
    #[test]
    fn disk_estimate_matches_service(schedule in arb_schedule(), bytes in 1u64..1_000_000) {
        let (mut disk, _) = run_disk(&schedule);
        let (model_before, energy_before) = (disk.model, disk.meter.total());
        let now = disk.model.clock() + Dur::from_secs(3);
        let req = DeviceRequest::read(Bytes(bytes), Some(7));
        let est = disk.model.estimate(now, &req);
        prop_assert_eq!(disk.meter.total(), energy_before, "estimate mutated the meter");
        prop_assert_eq!(disk.model.clock(), model_before.clock(), "estimate moved the clock");
        let real = disk.service(now, &req);
        prop_assert_eq!(est, real);
    }

    /// Wall-clock residency adds up: total metered time equals the clock.
    #[test]
    fn disk_time_is_fully_attributed(schedule in arb_schedule()) {
        let (mut disk, _) = run_disk(&schedule);
        // Advance somewhere quiet so transients finish.
        let end = disk.model.clock() + Dur::from_secs(60);
        disk.advance_to(end);
        let metered: u64 = disk.meter.residencies().map(|(_, d, _)| d.as_micros()).sum();
        prop_assert_eq!(metered, end.as_micros());
    }

    /// Advancing in arbitrary step splits never changes the totals.
    #[test]
    fn disk_advance_is_split_invariant(
        stops in proptest::collection::vec(1u64..120_000, 1..20),
    ) {
        let mut sorted = stops.clone();
        sorted.sort_unstable();
        let mut one = Live::new(DiskModel::new(DiskParams::hitachi_dk23da()));
        let end = SimTime::from_millis(*sorted.last().unwrap());
        one.advance_to(end);
        let mut many = Live::new(DiskModel::new(DiskParams::hitachi_dk23da()));
        for &ms in &sorted {
            many.advance_to(SimTime::from_millis(ms));
        }
        prop_assert!((one.meter.total().get() - many.meter.total().get()).abs() < 1e-9);
        prop_assert_eq!(one.model.state(), many.model.state());
    }

    /// Same laws for the WNIC.
    #[test]
    fn wnic_energy_and_time_attributed(schedule in arb_schedule()) {
        let mut wnic = Live::new(WnicModel::new(WnicParams::cisco_aironet350()));
        let mut t = SimTime::ZERO;
        for &(gap_ms, bytes, read, _) in &schedule {
            t += Dur::from_millis(gap_ms);
            let req = DeviceRequest {
                dir: if read { Dir::Read } else { Dir::Write },
                bytes: Bytes(bytes),
                block: None,
            };
            let out = wnic.service(t, &req);
            t = out.complete;
            prop_assert!(out.energy.is_valid());
        }
        let end = wnic.model.clock() + Dur::from_secs(10);
        wnic.advance_to(end);
        let m = &wnic.meter;
        let parts: f64 = m.residencies().map(|(_, _, e)| e.get()).sum::<f64>()
            + m.transitions().map(|(_, _, e)| e.get()).sum::<f64>();
        prop_assert!((m.total().get() - parts).abs() < 1e-6);
        let metered: u64 = m.residencies().map(|(_, d, _)| d.as_micros()).sum();
        prop_assert_eq!(metered, end.as_micros());
    }

    /// Mode transitions are balanced: the WNIC switches to PSM exactly as
    /// often as it left it (± the final in-flight one).
    #[test]
    fn wnic_transitions_balance(schedule in arb_schedule()) {
        let mut wnic = Live::new(WnicModel::new(WnicParams::cisco_aironet350()));
        let mut t = SimTime::ZERO;
        for &(gap_ms, bytes, _, _) in &schedule {
            t += Dur::from_millis(gap_ms);
            let out = wnic.service(t, &DeviceRequest::read(Bytes(bytes), None));
            t = out.complete;
        }
        wnic.advance_to(t + Dur::from_secs(10));
        let up = wnic.meter.transition_count("psm_to_cam");
        let down = wnic.meter.transition_count("cam_to_psm");
        prop_assert!(up.abs_diff(down) <= 1, "unbalanced transitions: {up} up vs {down} down");
    }

    /// Same laws for flash: every joule and microsecond is attributed, and
    /// completions never run backwards.
    #[test]
    fn flash_energy_and_time_attributed(steps in arb_steps()) {
        let mut flash = Live::new(FlashModel::new(FlashParams::compact_flash_2007()));
        let trail = drive_live(&mut flash, &steps);
        let outs: Vec<ServiceOutcome> = trail.iter().filter_map(|&(out, _)| out).collect();
        for w in outs.windows(2) {
            prop_assert!(w[1].complete >= w[0].complete);
        }
        for o in &outs {
            prop_assert!(o.energy.is_valid());
        }
        let end = flash.model.clock() + Dur::from_secs(10);
        flash.advance_to(end);
        let m = &flash.meter;
        let parts: f64 = m.residencies().map(|(_, _, e)| e.get()).sum();
        prop_assert!((m.total().get() - parts).abs() < 1e-9);
        let metered: u64 = m.residencies().map(|(_, d, _)| d.as_micros()).sum();
        prop_assert_eq!(metered, end.as_micros());
        prop_assert_eq!(flash.requests, outs.len() as u64);
    }

    /// A what-if copy booking into `Joules` and the live device agree
    /// exactly, for every model and from every constructor state.
    #[test]
    fn meter_is_neutral(steps in arb_steps()) {
        assert_meter_neutral(DiskModel::new(DiskParams::hitachi_dk23da()), &steps);
        assert_meter_neutral(DiskModel::new_standby(DiskParams::hitachi_dk23da()), &steps);
        assert_meter_neutral(WnicModel::new(WnicParams::cisco_aironet350()), &steps);
        assert_meter_neutral(WnicModel::new_cam(WnicParams::cisco_aironet350()), &steps);
        assert_meter_neutral(FlashModel::new(FlashParams::compact_flash_2007()), &steps);
    }

    /// State-log stamps are the machine clock at booking, never decreasing.
    #[test]
    fn state_log_stamps_follow_the_clock(steps in arb_steps()) {
        assert_stamps_follow_the_clock(DiskModel::new(DiskParams::hitachi_dk23da()), &steps);
        assert_stamps_follow_the_clock(DiskModel::new_standby(DiskParams::hitachi_dk23da()), &steps);
        assert_stamps_follow_the_clock(WnicModel::new(WnicParams::cisco_aironet350()), &steps);
        assert_stamps_follow_the_clock(WnicModel::new_cam(WnicParams::cisco_aironet350()), &steps);
        assert_stamps_follow_the_clock(FlashModel::new(FlashParams::compact_flash_2007()), &steps);
    }

    /// More idle time never reduces energy (power is non-negative).
    #[test]
    fn idle_energy_is_monotone(a in 0u64..1 << 20, b in 0u64..1 << 20) {
        let (lo, hi) = (a.min(b), a.max(b));
        let mut d1 = Live::new(DiskModel::new(DiskParams::hitachi_dk23da()));
        d1.advance_to(SimTime::from_millis(lo));
        let mut d2 = Live::new(DiskModel::new(DiskParams::hitachi_dk23da()));
        d2.advance_to(SimTime::from_millis(hi));
        prop_assert!(d2.meter.total().get() >= d1.meter.total().get() - 1e-12);
        prop_assert!(d2.meter.total().is_valid());
    }
}
