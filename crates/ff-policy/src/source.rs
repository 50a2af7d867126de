//! The policy interface between the simulator and the selection schemes.

use ff_base::{Bytes, Dur, Joules, SimTime};
use ff_device::{DiskModel, ServiceOutcome, WnicModel};
use ff_profile::ProfiledBurst;
use ff_trace::{DiskLayout, FileId, IoOp};

/// Where a request is serviced from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Source {
    /// The local hard disk.
    Disk,
    /// The remote server over the wireless NIC.
    Wnic,
}

impl Source {
    /// The other device.
    pub fn other(self) -> Source {
        match self {
            Source::Disk => Source::Wnic,
            Source::Wnic => Source::Disk,
        }
    }

    /// Display name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Source::Disk => "disk",
            Source::Wnic => "wnic",
        }
    }
}

/// One device-visible application request (post buffer cache):
/// what the policy routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppRequest {
    /// File accessed.
    pub file: FileId,
    /// Read or write.
    pub op: IoOp,
    /// Byte offset.
    pub offset: u64,
    /// Length.
    pub len: Bytes,
}

/// Read-only view of the world a policy may consult when deciding.
pub struct PolicyCtx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The engine's evaluation-stage length (§2.2): stage boundaries
    /// (and so [`Policy::on_stage_end`] audits) fall every `stage_len`,
    /// and a history-aware policy plans over windows of this length.
    pub stage_len: Dur,
    /// The live disk's power-state machine, read-only: probe it with
    /// [`ff_device::PowerModel::estimate`], or walk a copy (`*ctx.disk`)
    /// into a local meter. Its accounting stays with the engine.
    pub disk: &'a DiskModel,
    /// The live WNIC's power-state machine, likewise.
    pub wnic: &'a WnicModel,
    /// File → block layout (for disk cost estimates).
    pub layout: &'a DiskLayout,
    /// Buffer-cache residency probe: fraction of `(file, offset, len)`
    /// currently cached, in `[0, 1]`.
    pub resident: &'a dyn Fn(FileId, u64, Bytes) -> f64,
}

/// A mid-run environment perturbation the simulator reports to the
/// policy (fault injection, §2.3's hostile-environment adaptation).
///
/// Notices come in down/up pairs so a policy can degrade while the
/// fault is active and re-decide when it clears. Policies that ignore
/// these (the fixed baselines) still work: the simulator's router
/// refuses to route to an unreachable device regardless of what
/// [`Policy::select`] answers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultNotice {
    /// The wireless link lost association; no traffic gets through.
    LinkDown,
    /// The wireless link re-associated.
    LinkUp,
    /// The remote storage server stopped answering (the link itself is
    /// fine — requests time out instead of failing fast).
    ServerDown,
    /// The remote storage server answers again.
    ServerUp,
    /// The link bandwidth changed (fade began/ended or a scripted
    /// schedule point fired); `mbps` is the new rate.
    BandwidthChanged {
        /// New link bandwidth in Mbit/s.
        mbps: f64,
    },
}

impl FaultNotice {
    /// Stable tag used in decision logs and event streams.
    pub fn label(self) -> &'static str {
        match self {
            FaultNotice::LinkDown => "link_down",
            FaultNotice::LinkUp => "link_up",
            FaultNotice::ServerDown => "server_down",
            FaultNotice::ServerUp => "server_up",
            FaultNotice::BandwidthChanged { .. } => "bandwidth_changed",
        }
    }
}

/// What the simulator measured over one finished evaluation stage.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Stage ordinal (0-based).
    pub index: usize,
    /// When the stage started / ended.
    pub start: SimTime,
    /// Stage end time.
    pub end: SimTime,
    /// Device-visible bursts observed during the stage.
    pub observed: Vec<ProfiledBurst>,
    /// Energy actually drawn by the disk over the stage.
    pub disk_energy: Joules,
    /// Energy actually drawn by the WNIC over the stage.
    pub wnic_energy: Joules,
}

impl StageReport {
    /// Wall-clock length of the stage.
    pub fn span(&self) -> Dur {
        self.end.saturating_since(self.start)
    }

    /// Combined I/O energy of the stage.
    pub fn total_energy(&self) -> Joules {
        self.disk_energy + self.wnic_energy
    }
}

/// A data-source selection scheme.
///
/// The simulator calls [`Policy::select`] for every device-visible
/// request, [`Policy::observe`] after servicing it,
/// [`Policy::on_external_disk`] whenever a *non-profiled* program forces
/// disk activity, and [`Policy::on_stage_end`] at each evaluation-stage
/// boundary.
pub trait Policy {
    /// Scheme name (figure legend).
    fn name(&self) -> &'static str;

    /// Route one request.
    fn select(&mut self, ctx: &PolicyCtx<'_>, req: &AppRequest) -> Source;

    /// Feedback after an application call completed. `source` is the
    /// device that serviced it, or `None` when the buffer cache absorbed
    /// the call entirely (no device was touched).
    fn observe(
        &mut self,
        ctx: &PolicyCtx<'_>,
        req: &AppRequest,
        source: Option<Source>,
        outcome: &ServiceOutcome,
    ) {
        let _ = (ctx, req, source, outcome);
    }

    /// A non-profiled program just used the disk (it is, or will be,
    /// spinning regardless of this policy's choices).
    fn on_external_disk(&mut self, now: SimTime) {
        let _ = now;
    }

    /// An evaluation stage ended; `report` carries what actually happened.
    fn on_stage_end(&mut self, ctx: &PolicyCtx<'_>, report: &StageReport) {
        let _ = (ctx, report);
    }

    /// The environment changed mid-run (link lost/regained, server
    /// unreachable/back, bandwidth fade). Policies that adapt should
    /// degrade to the least-bad source while the fault is active and
    /// re-decide when it clears; the default ignores the notice.
    fn on_fault(&mut self, ctx: &PolicyCtx<'_>, notice: FaultNotice) {
        let _ = (ctx, notice);
    }

    /// Replace the policy's execution profile mid-run (fault injection:
    /// a stale or corrupted profile landed). History-driven policies
    /// should adopt it and re-decide; everyone else ignores it.
    fn inject_profile(&mut self, ctx: &PolicyCtx<'_>, profile: ff_profile::Profile) {
        let _ = (ctx, profile);
    }

    /// The profile recorded for the finished run, if this policy builds
    /// one (persisted for the program's next execution, §2.3.1).
    fn recorded_profile(&mut self) -> Option<ff_profile::Profile> {
        None
    }

    /// Some policies manage the disk spin-down timeout themselves: the
    /// energy-adaptive BlueFS spins the disk down aggressively because
    /// the network remains available as a fallback. Returning `Some`
    /// overrides the simulated disk's timeout for this run.
    fn disk_timeout_override(&self) -> Option<Dur> {
        None
    }

    /// Drain the policy's decision history (when, source, trigger), if
    /// it keeps one. Surfaces as `SimReport::decisions` for post-run
    /// analysis.
    fn take_decision_log(&mut self) -> Vec<(SimTime, Source, &'static str)> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn other_flips() {
        assert_eq!(Source::Disk.other(), Source::Wnic);
        assert_eq!(Source::Wnic.other(), Source::Disk);
        assert_eq!(Source::Disk.other().other(), Source::Disk);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Source::Disk.label(), "disk");
        assert_eq!(Source::Wnic.label(), "wnic");
    }

    #[test]
    fn fault_notice_labels_are_stable() {
        assert_eq!(FaultNotice::LinkDown.label(), "link_down");
        assert_eq!(FaultNotice::LinkUp.label(), "link_up");
        assert_eq!(FaultNotice::ServerDown.label(), "server_down");
        assert_eq!(FaultNotice::ServerUp.label(), "server_up");
        assert_eq!(
            FaultNotice::BandwidthChanged { mbps: 2.0 }.label(),
            "bandwidth_changed"
        );
    }

    #[test]
    fn stage_report_accessors() {
        let r = StageReport {
            index: 0,
            start: SimTime::from_secs(10),
            end: SimTime::from_secs(52),
            observed: vec![],
            disk_energy: Joules(3.0),
            wnic_energy: Joules(1.5),
        };
        assert_eq!(r.span(), Dur::from_secs(42));
        assert_eq!(r.total_energy(), Joules(4.5));
    }
}
