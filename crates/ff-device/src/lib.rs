//! # ff-device — storage-device power and performance models
//!
//! Implements the two I/O devices the paper simulates, with the exact
//! constants of Tables 1 and 2:
//!
//! * [`DiskModel`] — the Hitachi DK23DA 2.5" hard disk: Active / Idle /
//!   Standby states plus spin-up/-down transients, a 20 s idle timeout
//!   (Linux laptop-mode default), 13 ms average seek + 7 ms average
//!   rotation, 35 MB/s peak transfer, and sequential-access detection so
//!   contiguous requests skip head positioning (§2.1).
//! * [`WnicModel`] — the Cisco Aironet 350 802.11b card: CAM / PSM modes
//!   plus mode-switch transients, an 800 ms CAM→PSM idle timeout, the
//!   card's *adaptive dynamic power management* (traffic beyond one
//!   packet forces CAM; a single-packet request can be served during a
//!   PSM beacon wake-up), and configurable latency/bandwidth for the
//!   §3.3 sweeps.
//!
//! Both devices (and the [`FlashModel`] extension) implement
//! [`PowerModel`]: a small `Copy` power-state machine that books its
//! dwells and transitions into a [`Meter`] the caller passes. The live
//! run wraps each machine in a [`Live`] device, whose [`StateMeter`]
//! keeps the per-state ledger; a what-if run copies the machine and
//! books into a bare [`Joules`](ff_base::Joules) sum. So the FlexFetch
//! estimator runs the models as the paper's cheap "on-line simulators"
//! (§2.2), and BlueFS asks *what would this request cost*, without
//! cloning any accounting or disturbing the live device.

//! ```
//! use ff_base::{Bytes, Joules, SimTime};
//! use ff_device::{DeviceRequest, DiskModel, DiskParams, Live, PowerModel};
//!
//! // Service one 64 KiB read on an idle DK23DA and meter it.
//! let mut disk = Live::new(DiskModel::new(DiskParams::hitachi_dk23da()));
//! let out = disk.service(SimTime::ZERO, &DeviceRequest::read(Bytes::kib(64), Some(0)));
//! // 20 ms positioning + ~1.9 ms transfer at 2 W.
//! assert!(out.service_time.as_secs_f64() < 0.025);
//! assert!(out.energy.get() < 0.05);
//!
//! // What if it were left alone for a minute? Walk a copy into a sum.
//! let mut what_if = disk.model;
//! let mut idle = Joules::ZERO;
//! what_if.advance_to(SimTime::from_secs(60), &mut idle);
//! assert!(!what_if.is_ready() && disk.model.is_ready());
//!
//! // The live disk, left alone past the 20 s timeout, spins down too.
//! disk.advance_to(SimTime::from_secs(60));
//! assert!(!disk.model.is_ready());
//! assert_eq!(disk.meter.transition_count("spin_down"), 1);
//! assert!((disk.meter.total().get() - out.energy.get() - idle.get()).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
// Unit safety: hot paths keep quantities in ff-base newtypes, so a raw
// `as` cast or an f64-seconds read (`Dur::as_secs_f64`, listed in
// `clippy.toml`) carries an `#[expect]` saying why it leaves them.
#![warn(clippy::as_conversions, clippy::disallowed_methods)]

pub mod consts;
pub mod disk;
pub mod flash;
pub mod meter;
pub mod model;
pub mod spindown;
pub mod wnic;

pub use disk::{DiskModel, DiskParams, DiskState};
pub use flash::{FlashModel, FlashParams};
pub use meter::{Meter, StateChange, StateMeter};
pub use model::{DeviceRequest, Dir, Live, PowerModel, ServiceOutcome};
pub use spindown::ShareSpindown;
pub use wnic::{WnicModel, WnicParams, WnicState};
