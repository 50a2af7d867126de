//! The device abstraction shared by the disk, the WNIC and flash: the
//! [`PowerModel`] state machine and the [`Live`] device that meters it.

use crate::meter::{Meter, StateMeter};
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
/// `service` implicitly advances first. Both book every dwell and
/// transition, stamped with the model's clock, into the [`Meter`] the
/// caller passes: a [`StateMeter`] for the live run (see [`Live`]), a
/// bare [`Joules`] sum for what-if runs.
///
/// A model is a small `Copy` power-state machine with no accounting
/// history, so a what-if run is a copy of the live model walked into a
/// local meter ([`estimate`](PowerModel::estimate), the §2.2 on-line
/// simulator); the live device is never disturbed.
pub trait PowerModel: Copy {
    /// Bring the model's clock to `now`, booking idle/standby dwells and
    /// any timeout transitions that fired in between into `meter`.
    fn advance_to(&mut self, now: SimTime, meter: &mut impl Meter);

    /// Service `req` arriving at `now`; blocks behind in-flight
    /// transients, pays wake-up transitions, positioning and transfer,
    /// booking each into `meter`.
    fn service(
        &mut self,
        now: SimTime,
        req: &DeviceRequest,
        meter: &mut impl Meter,
    ) -> ServiceOutcome;

    /// The model's current clock (last instant accounted).
    fn clock(&self) -> SimTime;

    /// True iff the device is in its high-power ready state (disk
    /// spinning, WNIC in CAM) — what the free-rider check wants to know.
    fn is_ready(&self) -> bool;

    /// Estimate what `service(now, req)` *would* cost without mutating
    /// the model (the BlueFS cost probe): service a copy.
    fn estimate(&self, now: SimTime, req: &DeviceRequest) -> ServiceOutcome {
        let (mut probe, mut spent) = (*self, Joules::ZERO);
        probe.service(now, req, &mut spent)
    }
}

/// A live device: its power-state machine, the [`StateMeter`] it books
/// into, and the requests and bytes it served — the one place a
/// device's service is accounted.
///
/// ```
/// use ff_base::{Bytes, SimTime};
/// use ff_device::{DeviceRequest, DiskModel, DiskParams, Live, PowerModel};
///
/// let mut disk = Live::new(DiskModel::new(DiskParams::hitachi_dk23da()));
/// disk.service(SimTime::ZERO, &DeviceRequest::read(Bytes::kib(64), Some(0)));
/// disk.advance_to(SimTime::from_secs(60));
/// assert_eq!((disk.requests, disk.bytes), (1, Bytes::kib(64)));
/// assert_eq!(disk.meter.transition_count("spin_down"), 1);
/// assert!(!disk.model.is_ready());
/// ```
#[derive(Debug, Clone)]
pub struct Live<M> {
    /// The power-state machine (copy it for a what-if run).
    pub model: M,
    /// Everything the machine booked.
    pub meter: StateMeter,
    /// Requests serviced.
    pub requests: u64,
    /// Payload bytes serviced.
    pub bytes: Bytes,
}

impl<M: PowerModel> Live<M> {
    /// `model` with a fresh meter and no traffic.
    pub fn new(model: M) -> Self {
        Live {
            model,
            meter: StateMeter::new(),
            requests: 0,
            bytes: Bytes::ZERO,
        }
    }

    /// [`PowerModel::advance_to`], booked into the meter.
    pub fn advance_to(&mut self, now: SimTime) {
        self.model.advance_to(now, &mut self.meter);
    }

    /// [`PowerModel::service`], booked into the meter and tallied.
    pub fn service(&mut self, now: SimTime, req: &DeviceRequest) -> ServiceOutcome {
        self.requests += 1;
        self.bytes = self.bytes.saturating_add(req.bytes);
        self.model.service(now, req, &mut self.meter)
    }
}
