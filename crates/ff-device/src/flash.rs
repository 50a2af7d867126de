//! Flash-memory model (extension).
//!
//! §4 positions flash-based energy savers (SmartSaver \[2\], Marsh et
//! al. \[13\]) as *complementary* to FlexFetch: a low-power flash tier
//! absorbs I/O so the disk can stay in standby longer. This model is a
//! 2007-era CompactFlash card: no mechanical states, microsecond access,
//! modest bandwidth, and power two orders of magnitude below the disk.
//!
//! Flash implements the same [`PowerModel`] contract as the disk and the
//! WNIC, so the simulator meters it identically.

use crate::meter::Meter;
use crate::model::{DeviceRequest, Dir, PowerModel, ServiceOutcome};
use ff_base::{BytesPerSec, Dur, SimTime, Watts};

/// Flash device constants. Defaults model a 2007 CompactFlash card
/// (the SmartSaver substrate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashParams {
    /// Power while reading.
    pub read_power: Watts,
    /// Power while writing (programming is costlier than sensing).
    pub write_power: Watts,
    /// Quiescent power (effectively negligible).
    pub idle_power: Watts,
    /// Sequential read bandwidth.
    pub read_bw: BytesPerSec,
    /// Program (write) bandwidth.
    pub write_bw: BytesPerSec,
    /// Per-request access latency (controller + addressing).
    pub access: Dur,
}

impl FlashParams {
    /// A 2007-class CompactFlash card: ~20 MB/s reads, ~10 MB/s writes,
    /// ~0.17 W sensing / 0.25 W programming, 10 mW idle, 0.1 ms access.
    pub fn compact_flash_2007() -> Self {
        FlashParams {
            read_power: Watts(0.17),
            write_power: Watts(0.25),
            idle_power: Watts(0.01),
            read_bw: BytesPerSec::from_mb_per_sec(20.0),
            write_bw: BytesPerSec::from_mb_per_sec(10.0),
            access: Dur::from_micros(100),
        }
    }
}

impl Default for FlashParams {
    fn default() -> Self {
        FlashParams::compact_flash_2007()
    }
}

/// The flash power-state machine: a single always-ready state.
#[derive(Debug, Clone, Copy)]
pub struct FlashModel {
    params: FlashParams,
    clock: SimTime,
}

impl FlashModel {
    /// New card, idle at t = 0.
    pub fn new(params: FlashParams) -> Self {
        FlashModel {
            params,
            clock: SimTime::ZERO,
        }
    }

    /// The configured constants.
    pub fn params(&self) -> &FlashParams {
        &self.params
    }
}

impl PowerModel for FlashModel {
    fn advance_to(&mut self, now: SimTime, meter: &mut impl Meter) {
        let at = self.clock;
        if now > at {
            meter.dwell(at, "flash_idle", self.params.idle_power, now - at);
            self.clock = now;
        }
    }

    fn service(
        &mut self,
        now: SimTime,
        req: &DeviceRequest,
        meter: &mut impl Meter,
    ) -> ServiceOutcome {
        let arrival = now.max(self.clock);
        self.advance_to(arrival, meter);
        let (bw, power, state) = match req.dir {
            Dir::Read => (self.params.read_bw, self.params.read_power, "flash_read"),
            Dir::Write => (self.params.write_bw, self.params.write_power, "flash_write"),
        };
        let svc = self.params.access + bw.transfer_time(req.bytes);
        meter.dwell(self.clock, state, power, svc);
        self.clock += svc;
        ServiceOutcome {
            complete: self.clock,
            service_time: self.clock.saturating_since(now),
            energy: power * svc,
        }
    }

    fn clock(&self) -> SimTime {
        self.clock
    }

    fn is_ready(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Live;
    use ff_base::Bytes;

    fn flash() -> Live<FlashModel> {
        Live::new(FlashModel::new(FlashParams::compact_flash_2007()))
    }

    #[test]
    fn read_is_orders_cheaper_than_disk() {
        let mut f = flash();
        let out = f.service(SimTime::ZERO, &DeviceRequest::read(Bytes::kib(64), None));
        // 0.1 ms + 64 KiB / 20 MB/s ≈ 3.4 ms at 0.17 W ≈ 0.6 mJ.
        assert!(out.service_time < Dur::from_millis(4));
        assert!(out.energy.get() < 0.001, "{}", out.energy);
        assert!(f.model.is_ready());
    }

    #[test]
    fn writes_cost_more_than_reads() {
        let f = FlashModel::new(FlashParams::compact_flash_2007());
        let r = f.estimate(SimTime::ZERO, &DeviceRequest::read(Bytes::kib(64), None));
        let w = f.estimate(SimTime::ZERO, &DeviceRequest::write(Bytes::kib(64), None));
        assert!(w.energy > r.energy);
        assert!(w.service_time > r.service_time);
    }

    #[test]
    fn idle_draw_is_tiny() {
        let mut f = flash();
        f.advance_to(SimTime::from_secs(1000));
        assert!((f.meter.total().get() - 10.0).abs() < 1e-9); // 0.01 W × 1000 s
    }

    #[test]
    fn queues_like_other_devices() {
        let mut f = flash();
        let a = f.service(SimTime::ZERO, &DeviceRequest::read(Bytes::mib(1), None));
        let b = f.service(SimTime::ZERO, &DeviceRequest::read(Bytes(4096), None));
        assert!(b.complete > a.complete);
    }

    #[test]
    fn time_and_energy_fully_attributed() {
        let mut f = flash();
        f.service(
            SimTime::from_secs(1),
            &DeviceRequest::write(Bytes::kib(128), None),
        );
        f.advance_to(SimTime::from_secs(10));
        let m = &f.meter;
        let metered: u64 = m.residencies().map(|(_, d, _)| d.as_micros()).sum();
        assert_eq!(metered, f.model.clock().as_micros());
        let parts: f64 = m.residencies().map(|(_, _, e)| e.get()).sum();
        assert!((parts - m.total().get()).abs() < 1e-9);
    }
}
