//! The device abstraction shared by disk and WNIC.

use crate::meter::StateMeter;
use ff_base::{Bytes, Dur, Joules, SimTime};

/// Transfer direction of a device request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Data flows device → host (disk read / WNIC receive).
    Read,
    /// Data flows host → device (disk write / WNIC send).
    Write,
}

/// One request presented to a device, after cache filtering and request
/// merging — i.e. what actually hits the hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceRequest {
    /// Direction.
    pub dir: Dir,
    /// Payload size.
    pub bytes: Bytes,
    /// Starting disk block (global address from the layout), used by the
    /// disk for sequential-access detection. Irrelevant for the WNIC.
    pub block: Option<u64>,
}

impl DeviceRequest {
    /// Convenience read request.
    pub fn read(bytes: Bytes, block: Option<u64>) -> Self {
        DeviceRequest {
            dir: Dir::Read,
            bytes,
            block,
        }
    }

    /// Convenience write request.
    pub fn write(bytes: Bytes, block: Option<u64>) -> Self {
        DeviceRequest {
            dir: Dir::Write,
            bytes,
            block,
        }
    }
}

/// What servicing one request cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceOutcome {
    /// Instant the last byte was delivered.
    pub complete: SimTime,
    /// Total service time (wait for transients + positioning/latency +
    /// transfer), i.e. `complete - arrival`.
    pub service_time: Dur,
    /// Energy spent on this request *including* any transition it forced
    /// (spin-up, PSM→CAM) but excluding idle energy between requests.
    pub energy: Joules,
}

/// Common behaviour of the power-managed devices.
///
/// The contract: time flows forward. Callers must present monotonically
/// non-decreasing `now` values across `advance_to` / `service` calls; the
/// models `debug_assert` this. `advance_to` integrates idle energy and
/// applies timeout-driven transitions (disk spin-down, WNIC CAM→PSM);
/// `service` implicitly advances first.
///
/// Models are plain `Clone` data, so the one-request probe
/// ([`estimate`](PowerModel::estimate)) and the meter total
/// ([`energy`](PowerModel::energy)) are written once, here.
pub trait PowerModel: Clone {
    /// Bring the model's clock to `now`, accounting idle/standby energy
    /// and performing any timeout transitions that fired in between.
    fn advance_to(&mut self, now: SimTime);

    /// Service `req` arriving at `now`; blocks behind in-flight
    /// transients, pays wake-up transitions, positioning and transfer.
    fn service(&mut self, now: SimTime, req: &DeviceRequest) -> ServiceOutcome;

    /// The per-state meter. Read-only: only the device itself books
    /// dwells and transitions into it.
    fn meter(&self) -> &StateMeter;

    /// The model's current clock (last instant accounted).
    fn clock(&self) -> SimTime;

    /// True iff the device is in its high-power ready state (disk
    /// spinning, WNIC in CAM) — what the free-rider check wants to know.
    fn is_ready(&self) -> bool;

    /// Estimate what `service(now, req)` *would* cost without mutating
    /// the model (the BlueFS cost probe): service a clone.
    fn estimate(&self, now: SimTime, req: &DeviceRequest) -> ServiceOutcome {
        let mut probe = self.clone();
        probe.service(now, req)
    }

    /// Total energy consumed since construction or the last meter reset,
    /// *including* idle/standby energy up to the model's current clock.
    fn energy(&self) -> Joules {
        self.meter().total()
    }
}
