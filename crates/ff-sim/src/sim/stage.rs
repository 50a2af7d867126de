//! Stage accounting: the open evaluation stage's observed bursts and
//! device marks, closed every `stage_len` into the report the policy
//! audits (§2.3.1) and the summary the run keeps.

use super::Runner;
use crate::record::{emit, Event as ObsEvent};
use crate::report::StageSummary;
use ff_base::{Bytes, Joules, SimTime};
use ff_policy::StageReport;
use ff_profile::{burst::OnlineBurstBuilder, BurstExtractor};

/// The open stage and every closed stage's summary.
pub(super) struct Stages {
    /// Device-visible bursts of the open stage.
    pub(super) observed: OnlineBurstBuilder,
    start: SimTime,
    /// Device energy and fetched bytes at the open stage's start.
    disk_mark: Joules,
    wnic_mark: Joules,
    bytes_mark: Bytes,
    /// One per closed stage; the open stage's index is the length.
    pub(super) summaries: Vec<StageSummary>,
}

impl Stages {
    pub(super) fn new() -> Self {
        Stages {
            observed: OnlineBurstBuilder::new(BurstExtractor::default()),
            start: SimTime::ZERO,
            disk_mark: Joules::ZERO,
            wnic_mark: Joules::ZERO,
            bytes_mark: Bytes::ZERO,
            summaries: Vec::new(),
        }
    }

    /// Close the open stage at `now`, given the run's device energy and
    /// fetched-byte totals. Builds the policy's report and the kept
    /// summary from one set of values, and opens the next stage.
    fn close(
        &mut self,
        now: SimTime,
        disk_total: Joules,
        wnic_total: Joules,
        fetched_total: Bytes,
    ) -> (StageReport, StageSummary) {
        // A burst spanning the boundary is split so the stage's audit
        // sees the traffic that actually happened during the stage.
        self.observed.split_now();
        let summary = StageSummary {
            index: self.summaries.len(),
            start: self.start,
            end: now,
            disk_energy: disk_total.saturating_sub(self.disk_mark),
            wnic_energy: wnic_total.saturating_sub(self.wnic_mark),
            fetched: fetched_total.saturating_sub(self.bytes_mark),
        };
        let report = StageReport {
            index: summary.index,
            start: summary.start,
            end: now,
            observed: self.observed.take_completed(),
            disk_energy: summary.disk_energy,
            wnic_energy: summary.wnic_energy,
        };
        self.summaries.push(summary);
        self.start = now;
        self.disk_mark = disk_total;
        self.wnic_mark = wnic_total;
        self.bytes_mark = fetched_total;
        (report, summary)
    }
}

impl Runner<'_, '_> {
    /// Stage boundary at `now`: close the stage, hand its report to the
    /// policy's audit, and record the boundary.
    pub(super) fn end_stage(&mut self, now: SimTime) {
        self.disk.advance_to(now);
        self.wnic.advance_to(now);
        let (disk_bytes, wnic_bytes) = (self.disk.bytes, self.wnic.bytes);
        let fetched_now = disk_bytes.saturating_add(wnic_bytes);
        let (disk_now, wnic_now) = (self.disk.meter.total(), self.wnic.meter.total());
        let (report, summary) = self.stages.close(now, disk_now, wnic_now, fetched_now);
        self.with_policy(now, |p, ctx| p.on_stage_end(ctx, &report));
        self.drain_decisions();
        emit(&mut self.recorder, || ObsEvent::StageEnd {
            at: now,
            index: summary.index,
            disk_energy: summary.disk_energy,
            wnic_energy: summary.wnic_energy,
            fetched: summary.fetched,
        });
        self.emit_energy(now);
        emit(&mut self.recorder, || ObsEvent::StageStart {
            at: now,
            index: summary.index + 1,
        });
    }

    /// Record every device's energy total at `at`.
    pub(super) fn emit_energy(&mut self, at: SimTime) {
        let flash_energy = self.flash_energy();
        emit(&mut self.recorder, || ObsEvent::EnergySample {
            at,
            disk_energy: self.disk.meter.total(),
            wnic_energy: self.wnic.meter.total(),
            flash_energy,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_reports_and_keeps_the_same_deltas() {
        let mut stages = Stages::new();
        let s = SimTime::from_secs;
        let (report, summary) = stages.close(s(40), Joules(10.0), Joules(5.0), Bytes(1_000));
        assert_eq!(
            (summary.index, summary.start, summary.end),
            (0, s(0), s(40))
        );
        assert_eq!(
            (summary.disk_energy, summary.wnic_energy),
            (Joules(10.0), Joules(5.0))
        );
        assert_eq!(summary.fetched, Bytes(1_000));
        let (report2, summary2) = stages.close(s(80), Joules(25.0), Joules(6.0), Bytes(1_500));
        assert_eq!(
            (summary2.index, summary2.start, summary2.end),
            (1, s(40), s(80))
        );
        assert_eq!(
            (summary2.disk_energy, summary2.wnic_energy),
            (Joules(15.0), Joules(1.0))
        );
        assert_eq!(summary2.fetched, Bytes(500));
        for (r, s) in [(report, summary), (report2, summary2)] {
            assert_eq!((r.index, r.start, r.end), (s.index, s.start, s.end));
            assert_eq!(
                (r.disk_energy, r.wnic_energy),
                (s.disk_energy, s.wnic_energy)
            );
            assert!(r.observed.is_empty(), "no device traffic was observed");
        }
        assert_eq!(stages.summaries, [summary, summary2]);
    }
}
