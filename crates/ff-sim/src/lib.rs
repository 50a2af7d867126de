//! # ff-sim — the trace-driven simulator
//!
//! Reproduces the paper's evaluation vehicle (§3.1): a discrete-event
//! simulator managing the two storage devices and the in-memory buffer
//! cache, replaying application system-call traces under a data-source
//! selection policy.
//!
//! **Replay semantics.** Think times are device-independent (§2.1): the
//! replayer preserves, per process, the gap between a call's completion
//! and the next call's issue as recorded in the trace, and re-derives
//! every service time from the simulated devices. Requests first hit the
//! buffer cache; only demand misses, readahead, and write-back traffic
//! reach a device. Total execution time therefore depends on the policy,
//! exactly as `T_disk` / `T_network` do in the paper.
//!
//! **Stage boundaries.** Every [`SimConfig::stage_len`] of simulated
//! time the simulator closes an evaluation stage and hands the policy a
//! [`ff_policy::StageReport`] with the device-visible bursts observed
//! and the energy each device actually drew — the input to FlexFetch's
//! §2.3.1 audit.
//!
//! **Pinned files.** Files listed in [`SimConfig::disk_only_files`]
//! exist only on the local disk (the §3.3.4 xmms scenario): requests for
//! them bypass the policy, always hit the disk, and are reported to the
//! policy via [`ff_policy::Policy::on_external_disk`] so FlexFetch can
//! free-ride.

//! ```
//! use ff_policy::PolicyKind;
//! use ff_sim::{SimConfig, Simulation};
//! use ff_trace::{Grep, Workload};
//!
//! let trace = Grep { files: 20, total_bytes: 800_000, ..Default::default() }.build(1);
//! let report = Simulation::new(SimConfig::default(), &trace)
//!     .policy(PolicyKind::DiskOnly)
//!     .run()
//!     .unwrap();
//! assert_eq!(report.app_requests, trace.len() as u64);
//! assert!(report.total_energy().get() > 0.0);
//! assert_eq!(report.wnic_requests, 0);
//! ```

#![warn(missing_docs)]
// Unit safety: hot paths keep quantities in ff-base newtypes, so a raw
// `as` cast or an f64-seconds read (`Dur::as_secs_f64`, listed in
// `clippy.toml`) carries an `#[expect]` saying why it leaves them.
#![warn(clippy::as_conversions, clippy::disallowed_methods)]

pub mod battery;
pub mod config;
pub mod faults;
pub mod record;
pub mod report;
pub mod sim;

pub use battery::Battery;
pub use config::SimConfig;
pub use faults::{Fault, FaultPlan, ProfileFaultMode, RetryPolicy};
pub use record::{CountingRecorder, Event, EventLog, NullRecorder, Recorder};
pub use report::{SimReport, StageSummary};
pub use sim::Simulation;

// Send-bounds audit for the parallel sweep engine (`ff-bench::pool`):
// grid workers build a `Simulation` from a shared `&SimConfig`/trace and
// send the finished `SimReport`/`EventLog` back over a channel, so these
// types must stay `Send` (and the shared inputs `Sync`). Compile-time
// assertions — a lost auto-trait (e.g. an `Rc` or a raw pointer sneaking
// into a report field) fails the build here, with a named culprit,
// instead of deep inside a pool closure.
#[cfg(test)]
mod send_audit {
    use super::*;

    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}

    #[test]
    fn grid_task_inputs_are_sync() {
        assert_sync::<SimConfig>();
        assert_sync::<FaultPlan>();
        assert_sync::<RetryPolicy>();
    }

    #[test]
    fn grid_task_outputs_are_send() {
        assert_send::<SimConfig>();
        assert_send::<SimReport>();
        assert_send::<StageSummary>();
        assert_send::<EventLog>();
        assert_send::<CountingRecorder>();
        assert_send::<NullRecorder>();
        assert_send::<Event>();
        assert_send::<FaultPlan>();
        assert_send::<Battery>();
    }
}
