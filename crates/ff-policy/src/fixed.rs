//! The fixed-source baselines of §3.3: *Disk-only* and *WNIC-only*.

use crate::source::{AppRequest, Policy, PolicyCtx, Source};

/// Service everything from the local hard disk.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskOnly;

impl Policy for DiskOnly {
    fn name(&self) -> &'static str {
        "Disk-only"
    }

    fn select(&mut self, _ctx: &PolicyCtx<'_>, _req: &AppRequest) -> Source {
        Source::Disk
    }
}

/// Service everything from the remote server over the WNIC.
#[derive(Debug, Clone, Copy, Default)]
pub struct WnicOnly;

impl Policy for WnicOnly {
    fn name(&self) -> &'static str {
        "WNIC-only"
    }

    fn select(&mut self, _ctx: &PolicyCtx<'_>, _req: &AppRequest) -> Source {
        Source::Wnic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_base::{Bytes, Dur, SimTime};
    use ff_device::{DiskModel, DiskParams, WnicModel, WnicParams};
    use ff_trace::{DiskLayout, FileId, FileSet, IoOp};

    fn with_ctx<R>(f: impl FnOnce(&PolicyCtx<'_>) -> R) -> R {
        let disk = DiskModel::new(DiskParams::hitachi_dk23da());
        let wnic = WnicModel::new(WnicParams::cisco_aironet350());
        let layout = DiskLayout::build(&FileSet::new(), 0);
        let resident = |_: FileId, _: u64, _: Bytes| 0.0;
        let ctx = PolicyCtx {
            now: SimTime::ZERO,
            stage_len: Dur::from_secs(40),
            disk: &disk,
            wnic: &wnic,
            layout: &layout,
            resident: &resident,
        };
        f(&ctx)
    }

    fn req() -> AppRequest {
        AppRequest {
            file: FileId(1),
            op: IoOp::Read,
            offset: 0,
            len: Bytes(4096),
        }
    }

    #[test]
    fn disk_only_always_disk() {
        with_ctx(|ctx| {
            let mut p = DiskOnly;
            for _ in 0..3 {
                assert_eq!(p.select(ctx, &req()), Source::Disk);
            }
            assert_eq!(p.name(), "Disk-only");
        });
    }

    #[test]
    fn wnic_only_always_wnic() {
        with_ctx(|ctx| {
            let mut p = WnicOnly;
            for _ in 0..3 {
                assert_eq!(p.select(ctx, &req()), Source::Wnic);
            }
            assert_eq!(p.name(), "WNIC-only");
        });
    }
}
