//! The replay engine: the event loop and request routing. The fault
//! timeline lives in [`crate::faults`], the device I/O path (fetches,
//! write-backs, the flash tier) in `io`, stage accounting in `stage`.

mod io;
mod stage;

use crate::config::SimConfig;
use crate::faults::{injected_profile, Effect, FaultTimeline};
use crate::record::{emit, Device, Event as ObsEvent, NullRecorder, Recorder, Tracer};
use crate::report::SimReport;
use ff_base::{size::PAGE_SIZE, Bytes, Dur, Error, Joules, Result, SimTime};
use ff_cache::{BufferCache, FlashCache, ReadOutcome, WriteOutcome};
use ff_device::{
    DeviceRequest, DiskModel, FlashModel, Live, PowerModel, ServiceOutcome, WnicModel,
};
use ff_policy::{AppRequest, Policy, PolicyCtx, PolicyKind, Source};
use ff_trace::{DiskLayout, FileId, IoOp, Trace};
use io::{FlashTier, IoBuffers};
use stage::Stages;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// One simulation run: a trace, a config, and a policy.
pub struct Simulation<'t> {
    config: SimConfig,
    trace: &'t Trace,
    policy: Box<dyn Policy>,
}

impl<'t> Simulation<'t> {
    /// New simulation of `trace` under `config` (policy defaults to
    /// Disk-only; set one with [`Simulation::policy`]).
    pub fn new(config: SimConfig, trace: &'t Trace) -> Self {
        Simulation {
            config,
            trace,
            policy: PolicyKind::DiskOnly.build(),
        }
    }

    /// Select the policy by recipe.
    pub fn policy(mut self, kind: PolicyKind) -> Self {
        self.policy = kind.build();
        self
    }

    /// Install a custom policy object.
    pub fn policy_boxed(mut self, policy: Box<dyn Policy>) -> Self {
        self.policy = policy;
        self
    }

    /// Run to completion.
    pub fn run(self) -> Result<SimReport> {
        let mut null = NullRecorder;
        self.run_recorded(&mut null)
    }

    /// Run to completion, streaming observability [`ObsEvent`]s into
    /// `recorder` (see [`crate::record`]). A [`NullRecorder`] makes
    /// this equivalent to [`Simulation::run`]; any recorder leaves the
    /// returned [`SimReport`] unchanged — recorders observe, they do
    /// not steer.
    ///
    /// Fails before replaying anything on an invalid trace, fault plan
    /// or retry ladder, and with [`Error::Config`] on an empty trace, a
    /// zero stage length or flusher interval, or a WNIC bandwidth that
    /// is not positive and finite.
    ///
    /// ```
    /// use ff_policy::PolicyKind;
    /// use ff_sim::{EventLog, SimConfig, Simulation};
    /// use ff_trace::{Grep, Workload};
    ///
    /// let trace = Grep { files: 8, total_bytes: 400_000, ..Default::default() }.build(42);
    /// let mut log = EventLog::new();
    /// let report = Simulation::new(SimConfig::default(), &trace)
    ///     .policy(PolicyKind::DiskOnly)
    ///     .run_recorded(&mut log)
    ///     .unwrap();
    /// assert_eq!(log.count("app_call"), report.app_requests);
    /// assert!(log.count("decision") > 0);
    /// ```
    pub fn run_recorded(self, recorder: &mut dyn Recorder) -> Result<SimReport> {
        let file_sizes = self.trace.file_sizes()?;
        self.config.validate()?;
        if self.trace.is_empty() {
            return Err(Error::Config("cannot simulate an empty trace".into()));
        }
        Ok(Runner::new(self.config, self.trace, file_sizes, self.policy, recorder).run())
    }
}

/// Discrete events, ordered by `(time, seq)` for determinism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// Issue the next system call of a process group (one program runs
    /// as one closed loop, §2.1).
    Issue(u32),
    /// Write-back flusher wake-up.
    Flush,
    /// Evaluation-stage boundary.
    StageEnd,
    /// Apply this fault of the timeline: its onset, or its clear.
    Fault(usize, bool),
}

type QueuedEvent = (SimTime, u64, EventKind);

struct Runner<'t, 'r> {
    cfg: SimConfig,
    trace: &'t Trace,
    /// Each record's file size, by record index, from validation.
    file_sizes: Vec<Bytes>,
    policy: Box<dyn Policy>,
    /// Observability sink, `None` for a disabled recorder so untraced
    /// runs never construct events.
    recorder: Tracer<'r>,
    disk: Live<DiskModel>,
    wnic: Live<WnicModel>,
    flash: Option<FlashTier>,
    cache: BufferCache,
    /// The cache's outcome for the current call, reused across calls.
    read_out: ReadOutcome,
    write_out: WriteOutcome,
    /// The I/O path's reused buffers.
    io: IoBuffers,
    layout: DiskLayout,
    /// Per-process-group `(record index, think time after)` queues,
    /// consumed front to back.
    queues: BTreeMap<u32, VecDeque<(usize, Dur)>>,
    events: BinaryHeap<Reverse<QueuedEvent>>,
    seq: u64,
    remaining_calls: usize,
    faults: FaultTimeline,
    stages: Stages,
    last_completion: SimTime,
    app_requests: u64,
    /// Policy decisions drained incrementally (so the recorder sees
    /// them as they happen); becomes `SimReport::decisions`.
    decisions: Vec<(SimTime, Source, &'static str)>,
}

impl<'t, 'r> Runner<'t, 'r> {
    fn new(
        cfg: SimConfig,
        trace: &'t Trace,
        file_sizes: Vec<Bytes>,
        policy: Box<dyn Policy>,
        recorder: &'r mut dyn Recorder,
    ) -> Self {
        let recorder = recorder.enabled().then_some(recorder);
        let layout = DiskLayout::build(&trace.files, cfg.layout_seed);
        let mut disk_params = cfg.disk;
        if let Some(timeout) = policy.disk_timeout_override() {
            disk_params.timeout = timeout;
        }
        // §3.3.1: the runs begin with a parked disk.
        let mut disk = Live::new(DiskModel::new_standby(disk_params));
        let mut wnic = Live::new(WnicModel::new(cfg.wnic));
        let mut flash = cfg.flash.as_ref().map(|&(p, pages)| FlashTier {
            model: Live::new(FlashModel::new(p)),
            pages: FlashCache::new(pages),
        });
        if recorder.is_some() {
            disk.meter.enable_state_log();
            wnic.meter.enable_state_log();
            if let Some(f) = &mut flash {
                f.model.meter.enable_state_log();
            }
        }
        let cache = BufferCache::new(cfg.cache.clone());

        // Build per-process-group closed-loop queues with
        // device-independent think times: gap from a call's completion to
        // the group's next call. A group is one program (§2.1) — make and
        // its gcc children serialise; independent programs (xmms vs make)
        // interleave as separate loops.
        let mut queues: BTreeMap<u32, VecDeque<(usize, Dur)>> = BTreeMap::new();
        for (i, r) in trace.records.iter().enumerate() {
            let q = queues.entry(r.pgid).or_default();
            if let Some((prev, think)) = q.back_mut() {
                *think = r.ts.saturating_since(trace.records[*prev].end());
            }
            q.push_back((i, Dur::ZERO));
        }

        // Fault actions first: at equal timestamps a fault applies
        // before the request it should affect (an outage starting at t
        // covers a call issued at t; one ending at t does not). Then each
        // pid's first call at its recorded start time, the flusher and
        // the first stage boundary.
        let faults = FaultTimeline::new(&cfg.faults, cfg.retry);
        let mut seeds: Vec<(SimTime, EventKind)> = faults
            .schedule()
            .into_iter()
            .map(|(at, i, clear)| (SimTime::ZERO + at, EventKind::Fault(i, clear)))
            .collect();
        for (&pid, q) in &queues {
            if let Some(&(idx, _)) = q.front() {
                seeds.push((trace.records[idx].ts, EventKind::Issue(pid)));
            }
        }
        seeds.push((
            SimTime::ZERO + cfg.cache.writeback.wakeup_interval,
            EventKind::Flush,
        ));
        seeds.push((SimTime::ZERO + cfg.stage_len, EventKind::StageEnd));
        let remaining_calls = trace.records.len();
        let mut runner = Runner {
            cfg,
            trace,
            file_sizes,
            policy,
            recorder,
            disk,
            wnic,
            flash,
            cache,
            read_out: ReadOutcome::default(),
            write_out: WriteOutcome::default(),
            io: IoBuffers::default(),
            layout,
            queues,
            events: BinaryHeap::new(),
            seq: 0,
            remaining_calls,
            faults,
            stages: Stages::new(),
            last_completion: SimTime::ZERO,
            app_requests: 0,
            decisions: Vec::new(),
        };
        emit(&mut runner.recorder, || ObsEvent::StageStart {
            at: SimTime::ZERO,
            index: 0,
        });
        for (t, kind) in seeds {
            runner.push_event(t, kind);
        }
        runner
    }

    fn push_event(&mut self, t: SimTime, kind: EventKind) {
        self.seq += 1;
        self.events.push(Reverse((t, self.seq, kind)));
    }

    /// Forward the devices' timestamped state changes to the recorder.
    /// Called after each discrete event; each device's changes arrive
    /// in its own chronological order (the log output sorts by time).
    fn drain_device_events(&mut self) {
        let Some(rec) = self.recorder.as_deref_mut() else {
            return;
        };
        let flash = self
            .flash
            .as_mut()
            .map(|f| f.model.meter.take_state_changes());
        for (device, changes) in [
            (Device::Disk, self.disk.meter.take_state_changes()),
            (Device::Wnic, self.wnic.meter.take_state_changes()),
            (Device::Flash, flash.unwrap_or_default()),
        ] {
            for c in changes {
                let ev = if c.transition {
                    ObsEvent::DeviceTransition {
                        at: c.at,
                        device,
                        name: c.state,
                        energy: c.energy,
                    }
                } else {
                    ObsEvent::DeviceState {
                        at: c.at,
                        device,
                        state: c.state,
                    }
                };
                rec.record(&ev);
            }
        }
    }

    /// Drain the policy's decision history into `self.decisions`,
    /// surfacing each fresh entry as an adaptation event. Draining
    /// incrementally (rather than once at the end) changes nothing in
    /// the report: the concatenation of drains *is* the full log.
    fn drain_decisions(&mut self) {
        let fresh = self.policy.take_decision_log();
        for &(at, source, trigger) in &fresh {
            emit(&mut self.recorder, || ObsEvent::Adaptation {
                at,
                source,
                trigger,
            });
        }
        self.decisions.extend(fresh);
    }

    /// The single call path into the policy: run `call` with a
    /// [`PolicyCtx`] over the live devices, the layout, the buffer
    /// cache's residency and the stage length.
    fn with_policy<R>(
        &mut self,
        now: SimTime,
        call: impl FnOnce(&mut dyn Policy, &PolicyCtx<'_>) -> R,
    ) -> R {
        let Runner {
            cfg,
            policy,
            disk,
            wnic,
            layout,
            cache,
            ..
        } = self;
        let resident = |f: FileId, o: u64, l: Bytes| cache.resident_fraction(f, o, l);
        let ctx = PolicyCtx {
            now,
            stage_len: cfg.stage_len,
            disk: &disk.model,
            wnic: &wnic.model,
            layout,
            resident: &resident,
        };
        call(policy.as_mut(), &ctx)
    }

    /// Apply a fault action at `t` through the timeline, then carry out
    /// what it leaves to the policy and the disk.
    fn apply_fault(&mut self, t: SimTime, action: (usize, bool)) {
        let drained = (self.remaining_calls == 0).then_some(self.last_completion);
        match self
            .faults
            .apply(t, action, drained, &mut self.wnic, &mut self.recorder)
        {
            Effect::Done => {}
            Effect::Notice(notice) => {
                self.with_policy(t, |p, ctx| p.on_fault(ctx, notice));
                self.drain_decisions();
            }
            Effect::DiskTouch(bytes) => {
                // The storm is a real program: the policies learn about
                // it exactly like any other external disk user, and the
                // read occupies (and is billed to) the disk.
                self.policy.on_external_disk(t);
                let _ = self.service(t, Source::Disk, DeviceRequest::read(bytes, None));
                emit(&mut self.recorder, || ObsEvent::ExternalDisk {
                    at: t,
                    bytes,
                });
            }
            Effect::Profile(mode) => {
                let profile = injected_profile(mode, self.trace);
                self.with_policy(t, |p, ctx| p.inject_profile(ctx, profile));
                self.drain_decisions();
                emit(&mut self.recorder, || ObsEvent::ProfileInjected {
                    at: t,
                    mode: mode.label(),
                });
            }
        }
    }

    /// Gate a WNIC-bound request of `file` at `t` through the fault
    /// timeline's retry ladder. Returns when and where it is served.
    fn wnic_gate(&mut self, t: SimTime, file: FileId) -> (SimTime, Source) {
        let hoarded = !self.cfg.network_only_files.contains(&file);
        self.faults
            .gate(t, hoarded, &mut self.wnic, &mut self.recorder)
    }

    /// Route a request: pinned files always hit the disk and surface as
    /// external activity; non-hoarded files can only ride the WNIC;
    /// everything else asks the policy — overridden to the disk while
    /// the wireless link is down. Returns the source, whether the
    /// request is external (pinned), and a stable rationale tag for the
    /// observability layer.
    fn route(&mut self, now: SimTime, req: &AppRequest) -> (Source, bool, &'static str) {
        let routed = if self.cfg.disk_only_files.contains(&req.file) {
            self.policy.on_external_disk(now);
            (Source::Disk, true, "pinned")
        } else if self.cfg.network_only_files.contains(&req.file) {
            // Not hoarded: the local disk has no copy. The policy is not
            // consulted — there is no choice to make — but the request is
            // still the profiled program's own I/O (not external).
            match self.faults.wnic_resume(now) {
                // Disconnected: the request stalls until the link returns
                // — modelled as service at the outage end.
                Some(resume) => {
                    self.wnic.advance_to(resume);
                    (Source::Wnic, false, "unhoarded-stall")
                }
                None => (Source::Wnic, false, "unhoarded"),
            }
        } else if self.faults.wnic_resume(now).is_some() {
            // Link down: fail over to the disk regardless of preference.
            // The policy still observes the outcome (measured adaptation).
            (Source::Disk, false, "outage-failover")
        } else {
            let source = self.with_policy(now, |p, ctx| p.select(ctx, req));
            (source, false, "policy")
        };
        let (source, external, rationale) = routed;
        emit(&mut self.recorder, || ObsEvent::Decision {
            at: now,
            source,
            rationale,
            external,
        });
        routed
    }

    /// Process record `idx`, one application system call; returns its
    /// completion time.
    fn process_call(&mut self, t: SimTime, idx: usize) -> SimTime {
        self.app_requests += 1;
        let rec = self.trace.records[idx];
        let file_size = self.file_sizes[idx];
        let app_req = AppRequest {
            file: rec.file,
            op: rec.op,
            offset: rec.offset,
            len: rec.len,
        };

        emit(&mut self.recorder, || ObsEvent::AppCall {
            at: t,
            file: rec.file.0,
            op: match rec.op {
                IoOp::Read => "read",
                IoOp::Write => "write",
            },
            offset: rec.offset,
            len: rec.len,
        });
        let mut energy = Joules::ZERO;
        let mut done = t;
        let mut routed: Option<(Source, bool)> = None;

        match rec.op {
            IoOp::Read => {
                let mut out = std::mem::take(&mut self.read_out);
                self.cache
                    .read_into(t, rec.file, rec.offset, rec.len, file_size, &mut out);
                emit(&mut self.recorder, || ObsEvent::CacheRead {
                    at: t,
                    file: rec.file.0,
                    hit_pages: out.hit_pages,
                    miss_pages: out.demand.iter().map(|&(_, n)| n).sum(),
                    readahead_pages: out.prefetch.iter().map(|&(_, n)| n).sum(),
                });
                if !out.demand.is_empty()
                    || !out.prefetch.is_empty()
                    || !out.evicted_dirty.is_empty()
                {
                    let (source, external, _) = self.route(t, &app_req);
                    routed = Some((source, external));
                    let (d1, e1) = self.write_dirty(t, &out.evicted_dirty, source);
                    let (d2, e2) =
                        self.fetch_runs(d1, rec.file, source, &out.demand, &out.prefetch);
                    energy += e1 + e2;
                    done = d2;
                    // Device-visible activity feeds the stage observer.
                    let fetched = out.fetch_pages() * PAGE_SIZE;
                    if fetched > 0 {
                        let observed = &mut self.stages.observed;
                        observed.observe(t, done, rec.file, IoOp::Read, rec.offset, Bytes(fetched));
                    }
                }
                self.read_out = out;
            }
            IoOp::Write => {
                // Into the page cache; the flusher pays the device cost.
                let mut wout = std::mem::take(&mut self.write_out);
                self.cache
                    .write_into(t, rec.file, rec.offset, rec.len, &mut wout);
                if !wout.evicted_dirty.is_empty() {
                    let (source, external, _) = self.route(t, &app_req);
                    routed = Some((source, external));
                    let (d, e) = self.write_dirty(t, &wout.evicted_dirty, source);
                    energy += e;
                    done = d;
                }
                self.write_out = wout;
            }
        }

        // Profile feedback for every non-external application call —
        // §2.1: the profile records system calls regardless of where (or
        // whether) the data was serviced.
        let external = routed
            .map(|(_, ext)| ext)
            .unwrap_or_else(|| self.cfg.disk_only_files.contains(&rec.file));
        if !external {
            let source = routed.map(|(s, _)| s);
            let outcome = ServiceOutcome {
                complete: done,
                service_time: done.saturating_since(t),
                energy,
            };
            self.with_policy(done, |p, ctx| p.observe(ctx, &app_req, source, &outcome));
        }
        done
    }

    /// Flusher wake-up: write back due dirty pages asynchronously, and
    /// destage flash-buffered writes while the disk is awake.
    fn flush(&mut self, now: SimTime) {
        self.disk.advance_to(now);
        let ready = self.disk.model.is_ready();
        if ready {
            self.destage_flash(now);
        }
        let pages = self.cache.flush_due(now, ready);
        self.write_back(now, &pages);
    }

    fn run(mut self) -> SimReport {
        while let Some(Reverse((t, _, kind))) = self.events.pop() {
            match kind {
                EventKind::Issue(pid) => {
                    let Some((idx, think)) = self.queues.get_mut(&pid).and_then(|q| q.pop_front())
                    else {
                        debug_assert!(false, "issue event without queued record");
                        continue;
                    };
                    let done = self.process_call(t, idx);
                    self.last_completion = self.last_completion.max(done);
                    self.remaining_calls -= 1;
                    if self.queues.get(&pid).is_some_and(|q| !q.is_empty()) {
                        self.push_event(done + think, EventKind::Issue(pid));
                    }
                }
                EventKind::Flush => {
                    self.flush(t);
                    if self.remaining_calls > 0 {
                        self.push_event(
                            t + self.cfg.cache.writeback.wakeup_interval,
                            EventKind::Flush,
                        );
                    }
                }
                EventKind::StageEnd => {
                    self.end_stage(t);
                    if self.remaining_calls > 0 {
                        self.push_event(t + self.cfg.stage_len, EventKind::StageEnd);
                    }
                }
                EventKind::Fault(i, clear) => self.apply_fault(t, (i, clear)),
            }
            self.drain_device_events();
        }

        // Final sync: everything still dirty is written out, then any
        // flash-buffered writes, then every device is advanced to the
        // end of the run. The write-back routes as of `end`: every
        // notified outage has cleared by now, and a silent one holds
        // if its window spans `end`.
        self.faults.rewind_to_end();
        let end = self.last_completion;
        let dirty = self.cache.flush_all();
        self.write_back(end, &dirty);
        self.destage_flash(end);
        let mut final_t = end
            .max(self.disk.model.clock())
            .max(self.wnic.model.clock());
        if let Some(f) = &self.flash {
            final_t = final_t.max(f.model.model.clock());
        }
        self.disk.advance_to(final_t);
        self.wnic.advance_to(final_t);
        if let Some(f) = &mut self.flash {
            f.model.advance_to(final_t);
        }
        self.drain_device_events();
        self.drain_decisions();
        self.emit_energy(final_t);

        let cache_stats = self.cache.stats();
        let stage_summaries = std::mem::take(&mut self.stages.summaries);
        let flash_energy = self.flash_energy();
        let (flash_meter, flash_requests, flash_bytes) = match self.flash {
            Some(f) => (Some(f.model.meter), f.model.requests, f.model.bytes),
            None => (None, 0, Bytes::ZERO),
        };
        let (disk, wnic) = (self.disk, self.wnic);
        SimReport {
            policy: self.policy.name().to_string(),
            workload: self.trace.name.clone(),
            exec_time: self.last_completion.saturating_since(SimTime::ZERO),
            disk_energy: disk.meter.total(),
            wnic_energy: wnic.meter.total(),
            disk_meter: disk.meter,
            wnic_meter: wnic.meter,
            app_requests: self.app_requests,
            disk_requests: disk.requests,
            wnic_requests: wnic.requests,
            disk_bytes: disk.bytes,
            wnic_bytes: wnic.bytes,
            flash_energy,
            flash_meter,
            flash_requests,
            flash_bytes,
            cache_hits: cache_stats.hits,
            cache_misses: cache_stats.misses,
            cache_stats,
            stages: stage_summaries.len(),
            faults_injected: self.faults.injected,
            retries: self.faults.retries,
            failovers: self.faults.failovers,
            recorded_profile: self.policy.recorded_profile(),
            decisions: self.decisions,
            stage_summaries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, RetryPolicy};
    use crate::record::EventLog;
    use ff_trace::{Grep, TraceRecord, Workload};

    /// A config whose plan holds one silent outage over `start..end`.
    fn silent_outage(start: Dur, end: Dur) -> SimConfig {
        let plan = FaultPlan::none().with_silent_link_outage(start, end.saturating_sub(start));
        SimConfig::default().with_faults(plan)
    }

    fn grep_small() -> Trace {
        Grep {
            files: 40,
            total_bytes: 4_000_000,
            ..Default::default()
        }
        .build(7)
    }

    #[test]
    fn disk_only_run_completes() {
        let trace = grep_small();
        let report = Simulation::new(SimConfig::default(), &trace)
            .policy(PolicyKind::DiskOnly)
            .run()
            .unwrap();
        assert!(report.total_energy().get() > 0.0);
        assert_eq!(
            report.wnic_requests, 0,
            "Disk-only must never touch the WNIC"
        );
        assert!(report.disk_bytes.get() >= 4_000_000, "all data fetched");
        assert_eq!(report.app_requests, trace.len() as u64);
    }

    #[test]
    fn wnic_only_run_never_reads_disk() {
        let trace = grep_small();
        let report = Simulation::new(SimConfig::default(), &trace)
            .policy(PolicyKind::WnicOnly)
            .run()
            .unwrap();
        assert_eq!(report.disk_requests, 0);
        assert!(report.wnic_bytes.get() >= 4_000_000);
    }

    #[test]
    fn simulation_is_deterministic() {
        let trace = grep_small();
        let a = Simulation::new(SimConfig::default(), &trace)
            .policy(PolicyKind::BlueFs)
            .run()
            .unwrap();
        let b = Simulation::new(SimConfig::default(), &trace)
            .policy(PolicyKind::BlueFs)
            .run()
            .unwrap();
        assert_eq!(a.total_energy(), b.total_energy());
        assert_eq!(a.exec_time, b.exec_time);
        assert_eq!(a.disk_requests, b.disk_requests);
    }

    #[test]
    fn empty_trace_is_rejected() {
        let trace = Trace::new("empty");
        assert!(Simulation::new(SimConfig::default(), &trace).run().is_err());
    }

    #[test]
    fn cache_absorbs_rereads() {
        // Read the same small file set twice: second pass must be hits.
        let t1 = grep_small();
        let t2 = grep_small();
        let both = t1.concat(&t2, Dur::from_secs(1)).unwrap();
        let report = Simulation::new(SimConfig::default(), &both)
            .policy(PolicyKind::DiskOnly)
            .run()
            .unwrap();
        assert!(
            report.hit_ratio() > 0.4,
            "second pass should hit the cache, ratio {}",
            report.hit_ratio()
        );
        // Device traffic well below two full passes.
        assert!(report.disk_bytes.get() < 4_000_000 * 3 / 2);
    }

    #[test]
    fn wnic_only_disk_spins_down_and_stays_down() {
        let trace = grep_small();
        let report = Simulation::new(SimConfig::default(), &trace)
            .policy(PolicyKind::WnicOnly)
            .run()
            .unwrap();
        // The unused disk spins down exactly once (if the run outlasts the
        // 20 s timeout) and never back up.
        assert_eq!(report.disk_meter.transition_count("spin_up"), 0);
        assert!(report.disk_meter.transition_count("spin_down") <= 1);
    }

    #[test]
    fn pinned_files_force_disk_despite_wnic_policy() {
        let trace = grep_small();
        let pinned: Vec<FileId> = trace.files.iter().map(|f| f.id).collect();
        let cfg = SimConfig::default().with_disk_only_files(pinned);
        let report = Simulation::new(cfg, &trace)
            .policy(PolicyKind::WnicOnly)
            .run()
            .unwrap();
        assert_eq!(
            report.wnic_requests, 0,
            "pinned files must never ride the WNIC"
        );
        assert!(report.disk_requests > 0);
    }

    #[test]
    fn stages_are_counted() {
        use ff_trace::Xmms;
        let trace = Xmms {
            play_limit: Some(Dur::from_secs(120)),
            ..Default::default()
        }
        .build(3);
        let report = Simulation::new(SimConfig::default(), &trace)
            .policy(PolicyKind::DiskOnly)
            .run()
            .unwrap();
        // ~2 min run with 40 s stages → at least 2 boundaries.
        assert!(report.stages >= 2, "stages {}", report.stages);
    }

    #[test]
    fn network_only_files_force_the_wnic() {
        let trace = grep_small();
        let server_only: Vec<FileId> = trace.files.iter().map(|f| f.id).collect();
        let cfg = SimConfig::default().with_network_only_files(server_only);
        let report = Simulation::new(cfg, &trace)
            .policy(PolicyKind::DiskOnly) // policy wants the disk…
            .run()
            .unwrap();
        assert_eq!(
            report.disk_requests, 0,
            "non-hoarded files cannot hit the disk"
        );
        assert!(report.wnic_requests > 0);
    }

    #[test]
    fn partial_hoard_splits_traffic() {
        let trace = grep_small();
        let half: Vec<FileId> = trace
            .files
            .iter()
            .map(|f| f.id)
            .filter(|f| f.0 % 2 == 0)
            .collect();
        let cfg = SimConfig::default().with_network_only_files(half);
        let report = Simulation::new(cfg, &trace)
            .policy(PolicyKind::DiskOnly)
            .run()
            .unwrap();
        assert!(report.disk_requests > 0);
        assert!(report.wnic_requests > 0);
    }

    #[test]
    fn sync_writes_mirror_to_the_server() {
        use ff_trace::{Make, Workload};
        let trace = Make {
            units: 15,
            headers: 30,
            misc: 2,
            input_bytes: 1_500_000,
            ..Default::default()
        }
        .build(3);
        let plain = Simulation::new(SimConfig::default(), &trace)
            .policy(PolicyKind::DiskOnly)
            .run()
            .unwrap();
        let synced = Simulation::new(SimConfig::default().with_sync_writes(), &trace)
            .policy(PolicyKind::DiskOnly)
            .run()
            .unwrap();
        assert_eq!(plain.wnic_requests, 0);
        assert!(synced.wnic_requests > 0, "sync must upload dirty pages");
        assert!(synced.total_energy() > plain.total_energy());
        // Reads are unaffected: disk fetch traffic identical.
        assert_eq!(plain.disk_bytes, synced.disk_bytes);
    }

    #[test]
    fn wnic_only_writer_pays_nothing_for_sync() {
        use ff_trace::{Make, Workload};
        let trace = Make {
            units: 10,
            headers: 20,
            misc: 2,
            input_bytes: 1_000_000,
            ..Default::default()
        }
        .build(4);
        let plain = Simulation::new(SimConfig::default(), &trace)
            .policy(PolicyKind::WnicOnly)
            .run()
            .unwrap();
        let synced = Simulation::new(SimConfig::default().with_sync_writes(), &trace)
            .policy(PolicyKind::WnicOnly)
            .run()
            .unwrap();
        // Write-back already targets the server; sync adds no mirror.
        assert_eq!(plain.wnic_bytes, synced.wnic_bytes);
        assert_eq!(plain.total_energy(), synced.total_energy());
    }

    #[test]
    fn flash_absorbs_rereads_beyond_ram() {
        // RAM cache too small for the working set; a flash tier catches
        // the second pass instead of the device.
        let t1 = grep_small();
        let both = t1.concat(&grep_small(), Dur::from_secs(1)).unwrap();
        let tiny_ram = |flash_mb: usize| {
            let mut cfg = SimConfig::default();
            cfg.cache.capacity_pages = 128; // 512 KiB RAM
            if flash_mb > 0 {
                cfg = cfg.with_flash_mb(flash_mb);
            }
            Simulation::new(cfg, &both)
                .policy(PolicyKind::WnicOnly)
                .run()
                .unwrap()
        };
        let without = tiny_ram(0);
        let with = tiny_ram(64);
        assert!(with.flash_requests > 0, "flash never hit");
        assert!(
            with.wnic_bytes < without.wnic_bytes,
            "flash must absorb device traffic: {} vs {}",
            with.wnic_bytes,
            without.wnic_bytes
        );
        assert!(
            with.total_energy() < without.total_energy(),
            "flash must save energy here: {} vs {}",
            with.total_energy(),
            without.total_energy()
        );
    }

    #[test]
    fn flash_buffers_writes_for_a_sleeping_disk() {
        use ff_trace::{Make, Workload};
        let trace = Make {
            units: 12,
            headers: 24,
            misc: 2,
            input_bytes: 1_200_000,
            compile_think: (Dur::from_secs(25), Dur::from_secs(30)),
            ..Default::default()
        }
        .build(5);
        // Long compile gaps let the disk sleep; Disk-only writes would
        // wake it — unless flash buffers them.
        let run = |flash: bool| {
            let mut cfg = SimConfig::default();
            if flash {
                cfg = cfg.with_flash_mb(64);
            }
            Simulation::new(cfg, &trace)
                .policy(PolicyKind::DiskOnly)
                .run()
                .unwrap()
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with.disk_meter.transition_count("spin_up")
                <= without.disk_meter.transition_count("spin_up"),
            "flash must not increase spin-ups"
        );
        assert!(with.flash_bytes.get() > 0);
    }

    #[test]
    fn flash_energy_is_metered_and_totalled() {
        let trace = grep_small();
        let cfg = SimConfig::default().with_flash_mb(32);
        let r = Simulation::new(cfg, &trace)
            .policy(PolicyKind::DiskOnly)
            .run()
            .unwrap();
        let meter = r.flash_meter.as_ref().expect("flash configured");
        assert!((meter.total().get() - r.flash_energy.get()).abs() < 1e-9);
        assert!(r.flash_energy.get() > 0.0, "idle draw alone is non-zero");
        assert!(
            r.total_energy().get()
                >= (r.disk_energy + r.wnic_energy).get() + r.flash_energy.get() - 1e-9
        );
    }

    #[test]
    fn stage_summaries_partition_energy() {
        use ff_trace::Xmms;
        let trace = Xmms {
            play_limit: Some(Dur::from_secs(200)),
            ..Default::default()
        }
        .build(3);
        let report = Simulation::new(SimConfig::default(), &trace)
            .policy(PolicyKind::DiskOnly)
            .run()
            .unwrap();
        assert_eq!(report.stage_summaries.len(), report.stages);
        // Stage energies sum to at most the run total (the tail after the
        // last boundary is not in any stage).
        let staged: f64 = report
            .stage_summaries
            .iter()
            .map(|s| s.total_energy().get())
            .sum();
        assert!(staged <= report.total_energy().get() + 1e-6);
        assert!(
            staged > report.total_energy().get() * 0.5,
            "stages cover most of the run"
        );
        // Contiguous, ordered stage windows.
        for w in report.stage_summaries.windows(2) {
            assert_eq!(w[0].end, w[1].start);
            assert_eq!(w[0].index + 1, w[1].index);
        }
    }

    #[test]
    fn outage_fails_over_to_disk() {
        use ff_trace::Xmms;
        let trace = Xmms {
            play_limit: Some(Dur::from_secs(120)),
            ..Default::default()
        }
        .build(8);
        // Link down for the whole run: WNIC-only policy still ends up on
        // the disk.
        let cfg = silent_outage(Dur::ZERO, Dur::from_secs(100_000));
        let mut log = EventLog::new();
        let report = Simulation::new(cfg, &trace)
            .policy(PolicyKind::WnicOnly)
            .run_recorded(&mut log)
            .unwrap();
        assert_eq!(report.wnic_requests, 0, "outage must block the WNIC");
        assert!(report.disk_requests > 0);
        // Silent: not counted, not announced, not recorded.
        assert_eq!(report.faults_injected, 0);
        assert!(report.decisions.is_empty());
        assert_eq!(log.count("link_down") + log.count("link_up"), 0);
    }

    /// One 64 KiB write at t = 0: its dirty pages are still cached when
    /// the run ends, so the final sync writes them back.
    fn lone_write() -> Trace {
        let mut trace = Trace::new("w");
        trace.files.insert(ff_trace::FileMeta {
            id: FileId(1),
            name: "out".into(),
            size: Bytes(65_536),
        });
        trace.records.push(TraceRecord {
            pid: 1,
            pgid: 1,
            file: FileId(1),
            op: IoOp::Write,
            offset: 0,
            len: Bytes(65_536),
            ts: SimTime::ZERO,
            dur: Dur::from_millis(1),
        });
        trace
    }

    #[test]
    fn file_table_errors_surface_from_the_validation_pass() {
        let mut absent = lone_write();
        absent.records[0].file = FileId(9);
        let run = |trace: &Trace| Simulation::new(SimConfig::default(), trace).run();
        assert!(matches!(run(&absent), Err(Error::UnknownFile(9))));
        let mut past_end = lone_write();
        past_end.records[0].offset = 4_096;
        assert!(matches!(
            run(&past_end),
            Err(Error::OutOfBounds {
                inode: 1,
                end: 69_632,
                size: 65_536
            })
        ));
        // The per-record sizes are the files' sizes, in record order.
        let mut two = lone_write();
        two.files.insert(ff_trace::FileMeta {
            id: FileId(2),
            name: "in".into(),
            size: Bytes(8_192),
        });
        let mut read = two.records[0];
        (read.file, read.op, read.len) = (FileId(2), IoOp::Read, Bytes(4_096));
        two.records.push(read);
        assert_eq!(two.file_sizes().unwrap(), [Bytes(65_536), Bytes(8_192)]);
        assert!(run(&two).is_ok());
    }

    #[test]
    fn silent_outage_spanning_the_end_diverts_the_final_write_back() {
        let trace = lone_write();
        let window = Dur::from_secs(1_000);
        let run = |plan: FaultPlan| {
            Simulation::new(SimConfig::default().with_faults(plan), &trace)
                .policy(PolicyKind::WnicOnly)
                .run()
                .unwrap()
        };
        // The loop clears the outage at t = 1000 s before the final
        // sync at the last completion, which the silent window still
        // spans: the write-back fails over to the disk.
        let silent = run(FaultPlan::none().with_silent_link_outage(Dur::ZERO, window));
        assert_eq!(silent.wnic_requests, 0);
        assert!(silent.disk_requests > 0);
        // A notified outage stops diverting once the workload drains.
        let notified = run(FaultPlan::none().with_link_outage(Dur::ZERO, window));
        assert!(notified.wnic_requests > 0);
        assert_eq!(notified.disk_requests, 0);
    }

    #[test]
    fn partial_outage_splits_traffic() {
        use ff_trace::Xmms;
        let trace = Xmms {
            play_limit: Some(Dur::from_secs(200)),
            ..Default::default()
        }
        .build(8);
        let cfg = silent_outage(Dur::from_secs(50), Dur::from_secs(150));
        let report = Simulation::new(cfg, &trace)
            .policy(PolicyKind::WnicOnly)
            .run()
            .unwrap();
        assert!(report.wnic_requests > 0, "link is up outside the outage");
        assert!(report.disk_requests > 0, "failover during the outage");
    }

    #[test]
    fn unhoarded_file_stalls_through_outage() {
        use ff_trace::Xmms;
        let trace = Xmms {
            play_limit: Some(Dur::from_secs(60)),
            ..Default::default()
        }
        .build(8);
        let all: Vec<FileId> = trace.files.iter().map(|f| f.id).collect();
        let outage_end = Dur::from_secs(500);
        let cfg = silent_outage(Dur::ZERO, outage_end).with_network_only_files(all);
        let report = Simulation::new(cfg, &trace)
            .policy(PolicyKind::DiskOnly)
            .run()
            .unwrap();
        assert_eq!(report.disk_requests, 0, "no local copies exist");
        // The run cannot finish before the link returns.
        assert!(report.exec_time >= outage_end, "exec {}", report.exec_time);
    }

    #[test]
    fn bandwidth_change_slows_later_transfers() {
        let trace = grep_small();
        let fast = Simulation::new(SimConfig::default(), &trace)
            .policy(PolicyKind::WnicOnly)
            .run()
            .unwrap();
        // Degrade to 1 Mbps almost immediately.
        let plan = FaultPlan::none().with_bandwidth_step(Dur::from_millis(100), 1.0);
        let mut log = EventLog::new();
        let degraded = Simulation::new(SimConfig::default().with_faults(plan), &trace)
            .policy(PolicyKind::WnicOnly)
            .run_recorded(&mut log)
            .unwrap();
        // Recorded, but neither counted nor announced to the policy.
        assert_eq!(log.count("bandwidth_change"), 1);
        assert_eq!(degraded.faults_injected, 0);
        assert!(
            degraded.exec_time > fast.exec_time,
            "degraded link must slow the replay: {} vs {}",
            degraded.exec_time,
            fast.exec_time
        );
        assert!(degraded.total_energy() > fast.total_energy());
    }

    #[test]
    fn flexfetch_records_a_profile() {
        let trace = grep_small();
        let report = Simulation::new(SimConfig::default(), &trace)
            .policy(PolicyKind::flexfetch(ff_profile::Profile::empty("grep")))
            .run()
            .unwrap();
        let profile = report.recorded_profile.expect("FlexFetch must record");
        assert!(!profile.is_empty());
        assert_eq!(profile.app, "grep");
    }

    #[test]
    fn injected_link_outage_fails_over_to_disk() {
        use ff_trace::Xmms;
        let trace = Xmms {
            play_limit: Some(Dur::from_secs(120)),
            ..Default::default()
        }
        .build(8);
        let plan = FaultPlan::none().with_link_outage(Dur::ZERO, Dur::from_secs(100_000));
        let report = Simulation::new(SimConfig::default().with_faults(plan), &trace)
            .policy(PolicyKind::WnicOnly)
            .run()
            .unwrap();
        assert_eq!(report.wnic_requests, 0, "outage must block the WNIC");
        assert!(report.disk_requests > 0);
        assert_eq!(report.faults_injected, 1);
        assert_eq!(report.app_requests, trace.len() as u64);
    }

    #[test]
    fn server_outage_walks_the_retry_ladder_then_fails_over() {
        let trace = grep_small();
        let plan = FaultPlan::none().with_server_outage(Dur::ZERO, Dur::from_secs(100_000));
        let cfg = SimConfig::default()
            .with_faults(plan)
            .with_retry(RetryPolicy {
                timeout: Dur::from_millis(200),
                backoff: Dur::from_millis(50),
                max_retries: 3,
            });
        let report = Simulation::new(cfg, &trace)
            .policy(PolicyKind::WnicOnly)
            .run()
            .unwrap();
        // The first WNIC-bound request exhausts the ladder, then the
        // dead-server mark reroutes everything else without retrying.
        assert_eq!(report.retries, 3, "one full ladder");
        assert!(report.failovers > 0);
        assert!(report.disk_requests > 0, "hoarded data fails over");
        assert_eq!(report.wnic_requests, 0, "server never answers");
        assert_eq!(report.app_requests, trace.len() as u64);
    }

    #[test]
    fn server_recovery_mid_ladder_keeps_the_wnic() {
        let trace = grep_small();
        // A short outage: the first retry catches the server back up.
        let plan = FaultPlan::none().with_server_outage(Dur::ZERO, Dur::from_millis(100));
        let cfg = SimConfig::default()
            .with_faults(plan)
            .with_retry(RetryPolicy {
                timeout: Dur::from_secs(2),
                backoff: Dur::from_millis(500),
                max_retries: 4,
            });
        let report = Simulation::new(cfg, &trace)
            .policy(PolicyKind::WnicOnly)
            .run()
            .unwrap();
        assert_eq!(report.failovers, 0, "recovery must beat the ladder");
        assert!(report.retries >= 1, "the first attempt still timed out");
        assert_eq!(report.disk_requests, 0);
        assert!(report.wnic_requests > 0);
    }

    #[test]
    fn disk_storm_spins_the_disk_and_counts_touches() {
        use ff_trace::Xmms;
        // A workload long enough that every storm touch lands mid-run
        // (onsets after the last app call are deliberately dropped).
        let trace = Xmms {
            play_limit: Some(Dur::from_secs(60)),
            ..Default::default()
        }
        .build(8);
        let plan =
            FaultPlan::none().with_disk_storm(Dur::from_secs(1), 6, Dur::from_secs(2), 65_536);
        let report = Simulation::new(SimConfig::default().with_faults(plan), &trace)
            .policy(PolicyKind::WnicOnly)
            .run()
            .unwrap();
        assert_eq!(report.faults_injected, 6, "every touch lands");
        assert!(
            report.disk_requests >= 6,
            "storm reads are real disk requests"
        );
        assert!(report.disk_bytes.get() >= 6 * 65_536);
    }

    #[test]
    fn bandwidth_fade_ends_at_the_pre_fade_rate() {
        let trace = grep_small();
        let fade = FaultPlan::none().with_bandwidth_fade(
            Dur::from_millis(100),
            Dur::from_secs(100_000),
            0.5,
        );
        let faded = Simulation::new(SimConfig::default().with_faults(fade), &trace)
            .policy(PolicyKind::WnicOnly)
            .run()
            .unwrap();
        let clean = Simulation::new(SimConfig::default(), &trace)
            .policy(PolicyKind::WnicOnly)
            .run()
            .unwrap();
        assert!(
            faded.exec_time > clean.exec_time,
            "a 0.5 Mbps fade must slow the run: {} vs {}",
            faded.exec_time,
            clean.exec_time
        );
        // A fade that ends immediately leaves the run unchanged apart
        // from rounding: the pre-fade bandwidth is restored.
        let blip =
            FaultPlan::none().with_bandwidth_fade(Dur::from_millis(1), Dur::from_millis(2), 0.5);
        let blipped = Simulation::new(SimConfig::default().with_faults(blip), &trace)
            .policy(PolicyKind::WnicOnly)
            .run()
            .unwrap();
        assert!(
            blipped.exec_time < clean.exec_time + Dur::from_secs(1),
            "restored bandwidth must keep the run fast"
        );
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let trace = grep_small();
        let plan = FaultPlan::seeded(42, Dur::from_secs(120));
        let run = || {
            Simulation::new(SimConfig::default().with_faults(plan.clone()), &trace)
                .policy(PolicyKind::flexfetch(ff_profile::Profile::empty("grep")))
                .run()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.total_energy(), b.total_energy());
        assert_eq!(a.exec_time, b.exec_time);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.failovers, b.failovers);
        assert_eq!(a.faults_injected, b.faults_injected);
    }

    #[test]
    fn degenerate_fault_plan_is_rejected_up_front() {
        let trace = grep_small();
        let plan = FaultPlan::none().with_link_outage(Dur::ZERO, Dur::ZERO);
        let err = Simulation::new(SimConfig::default().with_faults(plan), &trace)
            .policy(PolicyKind::DiskOnly)
            .run();
        assert!(matches!(err, Err(Error::Fault(_))));
    }

    /// The error a WNIC-only run of `cfg` fails with, if any.
    fn rejection(cfg: SimConfig) -> Option<Error> {
        let trace = grep_small();
        Simulation::new(cfg, &trace)
            .policy(PolicyKind::WnicOnly)
            .run()
            .err()
    }

    fn config_error(cfg: SimConfig) -> bool {
        matches!(rejection(cfg), Some(Error::Config(_)))
    }

    fn fault_error(cfg: SimConfig) -> bool {
        matches!(rejection(cfg), Some(Error::Fault(_)))
    }

    #[test]
    fn zero_stage_or_flush_cadence_is_rejected_up_front() {
        let mut cfg = SimConfig::default();
        cfg.stage_len = Dur::ZERO;
        assert!(config_error(cfg));
        let mut cfg = SimConfig::default();
        cfg.cache.writeback.wakeup_interval = Dur::ZERO;
        assert!(config_error(cfg));
    }

    #[test]
    fn cache_below_2q_minimum_or_empty_flash_tier_is_rejected_up_front() {
        let mut cfg = SimConfig::default();
        cfg.cache.capacity_pages = 2;
        assert!(config_error(cfg));
        assert!(config_error(SimConfig::default().with_flash_mb(0)));
    }

    #[test]
    fn empty_wnic_outage_is_rejected_up_front() {
        let five = Dur::from_secs(5);
        assert!(fault_error(silent_outage(five, five)));
    }

    #[test]
    fn inverted_wnic_outage_is_rejected_up_front() {
        assert!(fault_error(silent_outage(
            Dur::from_secs(5),
            Dur::from_secs(1)
        )));
    }

    #[test]
    fn non_positive_or_non_finite_scheduled_rate_is_rejected_up_front() {
        for mbps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let plan = FaultPlan::none().with_bandwidth_step(Dur::ZERO, mbps);
            assert!(
                fault_error(SimConfig::default().with_faults(plan)),
                "{mbps} Mbit/s"
            );
        }
    }

    #[test]
    fn non_positive_or_non_finite_link_rate_is_rejected_up_front() {
        for mbps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let cfg = SimConfig::default().with_wnic_bandwidth_mbps(mbps);
            assert!(config_error(cfg), "{mbps} Mbit/s");
        }
    }

    #[test]
    fn link_rate_below_the_floor_is_rejected_up_front() {
        for mbps in [1e-300, 1e-12, ff_base::BytesPerSec::MIN_LINK_MBIT / 2.0] {
            let cfg = SimConfig::default().with_wnic_bandwidth_mbps(mbps);
            assert!(config_error(cfg), "{mbps} Mbit/s");
        }
        let cfg =
            SimConfig::default().with_wnic_bandwidth_mbps(ff_base::BytesPerSec::MIN_LINK_MBIT);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn durations_past_the_horizon_are_rejected_up_front() {
        type Set = fn(&mut SimConfig, Dur);
        let fields: [(&str, Set); 12] = [
            ("wnic.latency", |c, d| c.wnic.latency = d),
            ("stage_len", |c, d| c.stage_len = d),
            ("disk.spinup_time", |c, d| c.disk.spinup_time = d),
            ("disk.spindown_time", |c, d| c.disk.spindown_time = d),
            ("disk.timeout", |c, d| c.disk.timeout = d),
            ("disk.seek", |c, d| c.disk.seek = d),
            ("disk.rotation", |c, d| c.disk.rotation = d),
            ("disk.short_seek", |c, d| c.disk.short_seek = d),
            ("wnic.to_psm_time", |c, d| c.wnic.to_psm_time = d),
            ("wnic.to_cam_time", |c, d| c.wnic.to_cam_time = d),
            ("wnic.psm_timeout", |c, d| c.wnic.psm_timeout = d),
            ("wnic.beacon_interval", |c, d| c.wnic.beacon_interval = d),
        ];
        let past = Dur::HORIZON + Dur::from_micros(1);
        // A `u64::MAX` µs idle timeout would overflow `idle_since +
        // timeout` in the disk and WNIC models.
        for (field, set) in fields {
            for span in [past, Dur::from_micros(u64::MAX)] {
                let mut cfg = SimConfig::default();
                set(&mut cfg, span);
                match rejection(cfg) {
                    Some(Error::Config(msg)) => assert!(msg.contains(field), "{msg}"),
                    other => panic!("{field} of {span}: {other:?}"),
                }
            }
        }
        let mut at = SimConfig::default();
        for (_, set) in fields {
            set(&mut at, Dur::HORIZON);
        }
        assert!(at.validate().is_ok());
    }

    /// A retry ladder whose first backoff alone jumps ~146,000 years
    /// ahead overflows `Dur` over its four attempts: the run is refused
    /// up front instead of filling the gap with flusher and stage ticks.
    #[test]
    fn overflowing_retry_ladder_is_rejected_before_the_replay() {
        let trace = grep_small();
        let plan = FaultPlan::none().with_server_outage(Dur::ZERO, Dur::from_secs(100));
        let cfg = SimConfig::default()
            .with_faults(plan)
            .with_retry(RetryPolicy {
                timeout: Dur::from_secs(1),
                backoff: Dur::from_micros(u64::MAX / 4),
                max_retries: 4,
            });
        let started = std::time::Instant::now();
        let err = Simulation::new(cfg, &trace)
            .policy(PolicyKind::WnicOnly)
            .run();
        assert!(matches!(err, Err(Error::Fault(_))), "{err:?}");
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn exec_time_exceeds_trace_span_when_device_is_slow() {
        let trace = grep_small();
        let fast = Simulation::new(SimConfig::default(), &trace)
            .policy(PolicyKind::DiskOnly)
            .run()
            .unwrap();
        let slow_cfg = SimConfig::default().with_wnic_bandwidth_mbps(1.0);
        let slow = Simulation::new(slow_cfg, &trace)
            .policy(PolicyKind::WnicOnly)
            .run()
            .unwrap();
        assert!(
            slow.exec_time > fast.exec_time,
            "1 Mbps WNIC replay must run longer than the disk replay"
        );
    }
}
