//! The replay engine.

use crate::config::SimConfig;
use crate::faults::{Fault, FaultPlan, ProfileFaultMode};
use crate::record::{Device, Event as ObsEvent, NullRecorder, Recorder};
use crate::report::SimReport;
use ff_base::{size::PAGE_SIZE, Bytes, BytesPerSec, Dur, Error, Joules, Result, SimTime};
use ff_cache::cscan::{BlockRequest, CScanQueue};
use ff_cache::page::push_run;
use ff_cache::{BufferCache, FlashCache, PageKey};
use ff_device::{DeviceRequest, DiskModel, FlashModel, PowerModel, ServiceOutcome, WnicModel};
use ff_policy::{AppRequest, FaultNotice, Policy, PolicyCtx, PolicyKind, Source};
use ff_profile::burst::OnlineBurstBuilder;
use ff_profile::BurstExtractor;
use ff_trace::{DiskLayout, FileId, IoOp, Trace, TraceRecord};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

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
        self.trace.validate()?;
        self.config.validate()?;
        if self.trace.is_empty() {
            return Err(Error::Config("cannot simulate an empty trace".into()));
        }
        Runner::new(self.config, self.trace, self.policy, recorder).run()
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
    /// Apply the fault action at this index of `Runner::fault_actions`
    /// (actions live in a side table so this enum stays `Ord`).
    Fault(usize),
}

/// One expanded, instant-anchored fault action. A [`Fault`] window
/// becomes an onset/clear pair; a [`Fault::DiskStorm`] becomes one
/// action per touch.
#[derive(Debug, Clone, Copy)]
enum FaultAction {
    /// Link association lost until `until`.
    LinkDown { until: SimTime, silent: bool },
    /// Link re-associated.
    LinkUp { silent: bool },
    /// Server unreachable until `until`.
    ServerDown { until: SimTime },
    /// Server answering again.
    ServerUp,
    /// Bandwidth fade begins: drop the link rate to `mbps`.
    FadeStart { mbps: f64 },
    /// Bandwidth fade ends: restore the pre-fade rate.
    FadeEnd,
    /// The link rate changes to `mbps` for good.
    BandwidthStep { mbps: f64 },
    /// A background process reads `bytes` bytes from the disk.
    DiskTouch { bytes: u64 },
    /// Hand the policy a stale/corrupted replacement profile.
    InjectProfile { mode: ProfileFaultMode },
}

/// Expand a fault plan into instant-anchored actions, stably sorted by
/// onset (ties keep plan order — deterministic by construction).
fn expand_faults(plan: &FaultPlan) -> Vec<(Dur, FaultAction)> {
    let mut actions = Vec::new();
    for f in &plan.faults {
        match *f {
            Fault::LinkOutage { at, dur, silent } => {
                let until = SimTime::ZERO + at + dur;
                actions.push((at, FaultAction::LinkDown { until, silent }));
                actions.push((at + dur, FaultAction::LinkUp { silent }));
            }
            Fault::BandwidthStep { at, mbps } => {
                actions.push((at, FaultAction::BandwidthStep { mbps }));
            }
            Fault::BandwidthFade { at, dur, mbps } => {
                actions.push((at, FaultAction::FadeStart { mbps }));
                actions.push((at + dur, FaultAction::FadeEnd));
            }
            Fault::ServerOutage { at, dur } => {
                let until = SimTime::ZERO + at + dur;
                actions.push((at, FaultAction::ServerDown { until }));
                actions.push((at + dur, FaultAction::ServerUp));
            }
            Fault::DiskStorm {
                at,
                touches,
                gap,
                bytes,
            } => {
                for k in 0..u64::from(touches) {
                    actions.push((at + gap * k, FaultAction::DiskTouch { bytes }));
                }
            }
            Fault::ProfileFault { at, mode } => {
                actions.push((at, FaultAction::InjectProfile { mode }));
            }
        }
    }
    actions.sort_by_key(|&(at, _)| at);
    actions
}

type QueuedEvent = (SimTime, u64, EventKind);

/// A list of contiguous page runs `(first_page, n_pages)`.
type PageRuns = Vec<(u64, u64)>;

/// The simulator's view of the remote content server: the explicit
/// state behind the retry / backoff / failover machinery.
///
/// `Healthy` means WNIC requests flow normally. An injected
/// [`Fault::ServerOutage`](crate::faults::Fault::ServerOutage) moves
/// the machine to `Down` (link up, server silent) until the merged end
/// of all overlapping outage windows. The first hoarded request to
/// exhaust the retry ladder moves it to `MarkedDead`: the client
/// remembers the server is dead, so later hoarded requests fail over
/// to the disk immediately instead of re-walking the ladder. A
/// `ServerUp` clear at or after the outage end returns the machine to
/// `Healthy` from either degraded state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServerPathState {
    /// The server answers; requests ride the WNIC unimpeded.
    Healthy,
    /// An outage is active until the carried instant.
    Down(SimTime),
    /// The ladder was exhausted: carries the outage end and the instant
    /// until which hoarded requests skip the ladder. The second is
    /// never later than the first — an outage extension after marking
    /// stretches the outage, not the memory of the exhausted ladder.
    MarkedDead(SimTime, SimTime),
}

/// Inputs to the [`ServerPathState`] machine. Every state change goes
/// through the single transition site [`ServerPath::apply`].
enum ServerPathEvent {
    /// A server outage starts (or extends) — active until the instant.
    OutageStart(SimTime),
    /// A `ServerUp` restore arrived (moot if the outage was extended).
    OutageEnd,
    /// A hoarded request walked the full retry ladder unanswered.
    LadderExhausted,
}

/// The server-path machine plus its undrained transition log. The
/// runner drains the log into [`ObsEvent::ServerPathChange`] events —
/// the trace export hook that makes the failover state observable.
struct ServerPath {
    state: ServerPathState,
    /// Timestamped `(at, new-state label)` changes awaiting drain.
    changes: Vec<(SimTime, &'static str)>,
}

impl ServerPath {
    fn new() -> Self {
        ServerPath {
            state: ServerPathState::Healthy,
            changes: Vec::new(),
        }
    }

    /// Log one observable state change (drained by the runner).
    fn transition(&mut self, at: SimTime, state: &'static str) {
        self.changes.push((at, state));
    }

    /// The single transition site: feed one event through the machine.
    /// Returns whether the event was accepted — the caller reacts to an
    /// accepted event (emits, notifies the policy) and ignores a stale
    /// one (e.g. a `ServerUp` overtaken by an outage extension).
    fn apply(&mut self, at: SimTime, ev: ServerPathEvent) -> bool {
        match self.state {
            ServerPathState::Healthy => match ev {
                ServerPathEvent::OutageStart(until) => {
                    self.transition(at, "down");
                    self.state = ServerPathState::Down(until);
                    true
                }
                _ => false,
            },
            ServerPathState::Down(until) => match ev {
                ServerPathEvent::OutageStart(more) => {
                    self.state = ServerPathState::Down(until.max(more));
                    true
                }
                ServerPathEvent::OutageEnd if at >= until => {
                    self.transition(at, "healthy");
                    self.state = ServerPathState::Healthy;
                    true
                }
                ServerPathEvent::OutageEnd => false,
                ServerPathEvent::LadderExhausted => {
                    self.transition(at, "dead");
                    self.state = ServerPathState::MarkedDead(until, until);
                    true
                }
            },
            ServerPathState::MarkedDead(until, dead) => match ev {
                ServerPathEvent::OutageStart(more) => {
                    self.state = ServerPathState::MarkedDead(until.max(more), dead);
                    true
                }
                ServerPathEvent::OutageEnd if at >= until => {
                    self.transition(at, "healthy");
                    self.state = ServerPathState::Healthy;
                    true
                }
                ServerPathEvent::OutageEnd => false,
                ServerPathEvent::LadderExhausted => {
                    self.state = ServerPathState::MarkedDead(until, until);
                    true
                }
            },
        }
    }

    /// End of the outage window active at `now`, if any.
    fn outage_until(&self, now: SimTime) -> Option<SimTime> {
        match self.state {
            ServerPathState::Down(until) | ServerPathState::MarkedDead(until, _) if now < until => {
                Some(until)
            }
            _ => None,
        }
    }

    /// Is the server remembered dead at `now` (ladder already walked),
    /// so hoarded requests fail over without re-walking it?
    fn dead_for(&self, now: SimTime) -> bool {
        matches!(self.state, ServerPathState::MarkedDead(_, dead) if now < dead)
    }

    /// Drain the accumulated transition labels.
    fn take_changes(&mut self) -> Vec<(SimTime, &'static str)> {
        std::mem::take(&mut self.changes)
    }
}

struct Runner<'t, 'r> {
    cfg: SimConfig,
    trace: &'t Trace,
    policy: Box<dyn Policy>,
    /// Observability sink; `tracing` caches `recorder.enabled()` so the
    /// disabled path never constructs events.
    recorder: &'r mut dyn Recorder,
    tracing: bool,
    disk: DiskModel,
    wnic: WnicModel,
    /// Optional flash tier: device model + membership tracker.
    flash: Option<(FlashModel, FlashCache)>,
    cache: BufferCache,
    layout: DiskLayout,
    /// Per-process-group `(record index, think time after)` queues,
    /// consumed front to back.
    queues: BTreeMap<u32, std::collections::VecDeque<(usize, Dur)>>,
    events: BinaryHeap<Reverse<QueuedEvent>>,
    seq: u64,
    remaining_calls: usize,
    // Fault injection.
    /// Expanded fault actions, indexed by `EventKind::Fault`.
    fault_actions: Vec<(Dur, FaultAction)>,
    /// End of the current link outage, while one is active, kept
    /// apart per delivery (`[notified, silent]`) so one kind's window
    /// never masks the other's restore.
    link_down_until: [Option<SimTime>; 2],
    /// The silent outage state as the loop first ran a fault action
    /// past the last completion: the final write-back routes as of
    /// that instant.
    silent_at_end: Option<Option<SimTime>>,
    /// The explicit retry / backoff / failover machine for the remote
    /// server, with its undrained transition log.
    server_path: ServerPath,
    /// Pre-fade bandwidths, pushed on fade start and popped on fade end
    /// (a stack so nested fades restore in order).
    fade_restore: Vec<BytesPerSec>,
    faults_injected: u64,
    fault_retries: u64,
    fault_failovers: u64,
    // Stage tracking.
    observed: OnlineBurstBuilder,
    stage_index: usize,
    stage_start: SimTime,
    disk_mark: Joules,
    wnic_mark: Joules,
    // Statistics.
    stage_summaries: Vec<crate::report::StageSummary>,
    /// Device bytes at the last stage boundary (per-stage fetch delta).
    stage_bytes_mark: Bytes,
    last_completion: SimTime,
    app_requests: u64,
    disk_requests: u64,
    wnic_requests: u64,
    disk_bytes: Bytes,
    wnic_bytes: Bytes,
    flash_requests: u64,
    flash_bytes: Bytes,
    /// Policy decisions drained incrementally (so the recorder sees
    /// them as they happen); becomes `SimReport::decisions`.
    decisions: Vec<(SimTime, Source, &'static str)>,
}

impl<'t, 'r> Runner<'t, 'r> {
    fn new(
        cfg: SimConfig,
        trace: &'t Trace,
        policy: Box<dyn Policy>,
        recorder: &'r mut dyn Recorder,
    ) -> Self {
        let tracing = recorder.enabled();
        let layout = DiskLayout::build(&trace.files, cfg.layout_seed);
        let mut disk_params = cfg.disk.clone();
        if let Some(timeout) = policy.disk_timeout_override() {
            disk_params.timeout = timeout;
        }
        // §3.3.1: the runs begin with a parked disk.
        let mut disk = DiskModel::new_standby(disk_params);
        let mut wnic = WnicModel::new(cfg.wnic.clone());
        let mut flash = cfg
            .flash
            .as_ref()
            .map(|(p, pages)| (FlashModel::new(p.clone()), FlashCache::new(*pages)));
        if tracing {
            disk.enable_state_log();
            wnic.enable_state_log();
            if let Some((f, _)) = &mut flash {
                f.enable_state_log();
            }
        }
        let cache = BufferCache::new(cfg.cache.clone());

        // Build per-process-group closed-loop queues with
        // device-independent think times: gap from a call's completion to
        // the group's next call. A group is one program (§2.1) — make and
        // its gcc children serialise; independent programs (xmms vs make)
        // interleave as separate loops.
        let mut queues: BTreeMap<u32, std::collections::VecDeque<(usize, Dur)>> = BTreeMap::new();
        let mut by_pid: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (i, r) in trace.records.iter().enumerate() {
            by_pid.entry(r.pgid).or_default().push(i);
        }
        for (pid, idxs) in &by_pid {
            let mut q = std::collections::VecDeque::with_capacity(idxs.len());
            for w in 0..idxs.len() {
                let rec = &trace.records[idxs[w]];
                let think = if w + 1 < idxs.len() {
                    trace.records[idxs[w + 1]].ts.saturating_since(rec.end())
                } else {
                    Dur::ZERO
                };
                q.push_back((idxs[w], think));
            }
            queues.insert(*pid, q);
        }

        let remaining_calls = trace.records.len();
        let stage_len = cfg.stage_len;
        let flush_interval = cfg.cache.writeback.wakeup_interval;
        let mut runner = Runner {
            cfg,
            trace,
            policy,
            recorder,
            tracing,
            disk,
            wnic,
            flash,
            cache,
            layout,
            queues,
            events: BinaryHeap::new(),
            seq: 0,
            remaining_calls,
            fault_actions: Vec::new(),
            link_down_until: [None; 2],
            silent_at_end: None,
            server_path: ServerPath::new(),
            fade_restore: Vec::new(),
            faults_injected: 0,
            fault_retries: 0,
            fault_failovers: 0,
            observed: OnlineBurstBuilder::new(BurstExtractor::default()),
            stage_index: 0,
            stage_start: SimTime::ZERO,
            disk_mark: Joules::ZERO,
            wnic_mark: Joules::ZERO,
            stage_summaries: Vec::new(),
            stage_bytes_mark: Bytes::ZERO,
            last_completion: SimTime::ZERO,
            app_requests: 0,
            disk_requests: 0,
            wnic_requests: 0,
            disk_bytes: Bytes::ZERO,
            wnic_bytes: Bytes::ZERO,
            flash_requests: 0,
            flash_bytes: Bytes::ZERO,
            decisions: Vec::new(),
        };
        if runner.tracing {
            runner.recorder.record(&ObsEvent::StageStart {
                at: SimTime::ZERO,
                index: 0,
            });
        }
        // Fault actions first: at equal timestamps a fault applies
        // before the request it should affect (an outage starting at t
        // covers a call issued at t; one ending at t does not).
        runner.fault_actions = expand_faults(&runner.cfg.faults);
        for i in 0..runner.fault_actions.len() {
            let at = runner.fault_actions[i].0;
            runner.push_event(SimTime::ZERO + at, EventKind::Fault(i));
        }
        // Seed events: each pid's first call at its recorded start time,
        // plus the flusher and the first stage boundary.
        let firsts: Vec<(u32, SimTime)> = runner
            .queues
            .iter()
            .filter_map(|(&pid, q)| q.front().map(|&(idx, _)| (pid, trace.records[idx].ts)))
            .collect();
        for (pid, t) in firsts {
            runner.push_event(t, EventKind::Issue(pid));
        }
        runner.push_event(SimTime::ZERO + flush_interval, EventKind::Flush);
        runner.push_event(SimTime::ZERO + stage_len, EventKind::StageEnd);
        runner
    }

    fn push_event(&mut self, t: SimTime, kind: EventKind) {
        self.seq += 1;
        self.events.push(Reverse((t, self.seq, kind)));
    }

    /// Latest end of the link outages active at `now` — when a stalled
    /// network-only request can resume — or `None` while the wireless
    /// link is up.
    fn wnic_resume(&self, now: SimTime) -> Option<SimTime> {
        self.link_down_until
            .into_iter()
            .flatten()
            .filter(|&u| now < u)
            .max()
    }

    /// Record one observability event (no-op unless a recorder is
    /// attached — call sites guard with `self.tracing` so disabled runs
    /// never construct events).
    fn emit(&mut self, ev: ObsEvent) {
        self.recorder.record(&ev);
    }

    /// Energy drawn by the flash tier so far (zero without one).
    fn flash_energy(&self) -> Joules {
        self.flash
            .as_ref()
            .map_or(Joules::ZERO, |(f, _)| f.energy())
    }

    /// Forward the devices' timestamped state changes to the recorder.
    /// Called after each discrete event; each device's changes arrive
    /// in its own chronological order (the log output sorts by time).
    fn drain_device_events(&mut self) {
        if !self.tracing {
            return;
        }
        for (device, changes) in [
            (Device::Disk, self.disk.take_state_changes()),
            (Device::Wnic, self.wnic.take_state_changes()),
            (
                Device::Flash,
                self.flash
                    .as_mut()
                    .map(|(f, _)| f.take_state_changes())
                    .unwrap_or_default(),
            ),
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
                self.emit(ev);
            }
        }
    }

    /// Forward the server-path machine's transition log to the
    /// recorder — the trace export hook that makes the retry/failover
    /// state visible to the observability layer (and to the static↔
    /// dynamic conformance check downstream). Always drains, so the
    /// log never accumulates in untraced runs.
    fn drain_server_path(&mut self) {
        let changes = self.server_path.take_changes();
        if !self.tracing {
            return;
        }
        for (at, state) in changes {
            self.emit(ObsEvent::ServerPathChange { at, state });
        }
    }

    /// Drain the policy's decision history into `self.decisions`,
    /// surfacing each fresh entry as an adaptation event. Draining
    /// incrementally (rather than once at the end) changes nothing in
    /// the report: the concatenation of drains *is* the full log.
    fn drain_decisions(&mut self) {
        let fresh = self.policy.take_decision_log();
        if self.tracing {
            for &(at, source, trigger) in &fresh {
                self.emit(ObsEvent::Adaptation {
                    at,
                    source,
                    trigger,
                });
            }
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
            disk,
            wnic,
            layout,
            resident: &resident,
        };
        call(policy.as_mut(), &ctx)
    }

    /// Tell the policy the environment changed, then surface any
    /// decisions it took in response.
    fn policy_fault(&mut self, now: SimTime, notice: FaultNotice) {
        self.with_policy(now, |p, ctx| p.on_fault(ctx, notice));
        self.drain_decisions();
    }

    /// Apply one expanded fault action. State restores (link/server
    /// back up, fade ending) always take effect so the run can never end
    /// wedged in a fault; onsets are skipped once the workload has
    /// drained (`remaining_calls == 0`) — they could no longer affect
    /// anything and would only stretch device idle time. Silent
    /// outages and bandwidth steps are not gated: they only shape the
    /// link, and touch neither the policy nor the fault count.
    fn apply_fault(&mut self, t: SimTime, idx: usize) {
        let (_, action) = self.fault_actions[idx];
        let live = self.remaining_calls > 0;
        match action {
            FaultAction::LinkDown { until, silent } => {
                if !live && !silent {
                    return;
                }
                // Overlapping outages merge to the furthest end.
                let slot = &mut self.link_down_until[usize::from(silent)];
                *slot = Some(slot.map_or(until, |u| u.max(until)));
                if silent {
                    return;
                }
                self.wnic.advance_to(t);
                self.faults_injected += 1;
                if self.tracing {
                    self.emit(ObsEvent::LinkDown { at: t, until });
                }
                self.policy_fault(t, FaultNotice::LinkDown);
            }
            FaultAction::LinkUp { silent } => {
                // Only the clear matching the merged window end lifts the
                // outage (earlier clears of overlapped outages are moot).
                let slot = &mut self.link_down_until[usize::from(silent)];
                if slot.is_none_or(|u| t < u) {
                    return;
                }
                *slot = None;
                if !live || silent {
                    return;
                }
                self.wnic.advance_to(t);
                if self.tracing {
                    self.emit(ObsEvent::LinkUp { at: t });
                }
                self.policy_fault(t, FaultNotice::LinkUp);
            }
            FaultAction::ServerDown { until } => {
                if !live {
                    return;
                }
                // Overlapping outages merge to the furthest end.
                self.server_path
                    .apply(t, ServerPathEvent::OutageStart(until));
                self.faults_injected += 1;
                if self.tracing {
                    self.emit(ObsEvent::ServerDown { at: t, until });
                }
                self.drain_server_path();
                self.policy_fault(t, FaultNotice::ServerDown);
            }
            FaultAction::ServerUp => {
                // Only the clear matching the merged window end restores
                // the server (earlier clears of overlapped outages are
                // moot); the machine rejects stale clears itself.
                if !self.server_path.apply(t, ServerPathEvent::OutageEnd) {
                    return;
                }
                self.drain_server_path();
                if !live {
                    return;
                }
                if self.tracing {
                    self.emit(ObsEvent::ServerUp { at: t });
                }
                self.policy_fault(t, FaultNotice::ServerUp);
            }
            FaultAction::FadeStart { mbps } => {
                if !live {
                    return;
                }
                self.wnic.advance_to(t);
                self.fade_restore.push(self.wnic.params().bandwidth);
                self.wnic
                    .set_bandwidth(BytesPerSec::from_mbit_per_sec(mbps));
                self.faults_injected += 1;
                if self.tracing {
                    self.emit(ObsEvent::BandwidthChange { at: t, mbps });
                }
                self.policy_fault(t, FaultNotice::BandwidthChanged { mbps });
            }
            FaultAction::FadeEnd => {
                let Some(restored) = self.fade_restore.pop() else {
                    return;
                };
                self.wnic.advance_to(t);
                self.wnic.set_bandwidth(restored);
                if !live {
                    return;
                }
                let mbps = restored.get() * 8.0 / 1e6;
                if self.tracing {
                    self.emit(ObsEvent::BandwidthChange { at: t, mbps });
                }
                self.policy_fault(t, FaultNotice::BandwidthChanged { mbps });
            }
            FaultAction::BandwidthStep { mbps } => {
                self.wnic.advance_to(t);
                self.wnic
                    .set_bandwidth(BytesPerSec::from_mbit_per_sec(mbps));
                // Recorded for observability, but the policy is NOT
                // notified: drift (the user walking around) is
                // discovered by the §2.3.1 stage-end audit.
                if self.tracing {
                    self.emit(ObsEvent::BandwidthChange { at: t, mbps });
                }
            }
            FaultAction::DiskTouch { bytes } => {
                if !live {
                    return;
                }
                self.faults_injected += 1;
                // The storm is a real program: the policies learn about
                // it exactly like any other external disk user, and the
                // read occupies (and is billed to) the disk.
                self.policy.on_external_disk(t);
                let _ = self.service(t, Device::Disk, DeviceRequest::read(Bytes(bytes), None));
                if self.tracing {
                    self.emit(ObsEvent::ExternalDisk {
                        at: t,
                        bytes: Bytes(bytes),
                    });
                }
            }
            FaultAction::InjectProfile { mode } => {
                if !live {
                    return;
                }
                self.faults_injected += 1;
                let profile = crate::faults::injected_profile(mode, self.trace);
                self.with_policy(t, |p, ctx| p.inject_profile(ctx, profile));
                self.drain_decisions();
                if self.tracing {
                    self.emit(ObsEvent::ProfileInjected {
                        at: t,
                        mode: mode.label(),
                    });
                }
            }
        }
    }

    /// Gate a WNIC-bound request through an active server outage: walk
    /// the retry ladder (timeout → exponential backoff), and either
    /// catch the server coming back, fail over to the disk (hoarded
    /// data), or stall until the outage ends (network-only data).
    /// Returns the time the request can actually be serviced and the
    /// source that will serve it.
    fn wnic_gate(&mut self, t: SimTime, hoarded: bool) -> (SimTime, Source) {
        let Some(down_until) = self.server_path.outage_until(t) else {
            return (t, Source::Wnic);
        };
        // An earlier request already exhausted the ladder: hoarded data
        // fails over immediately (the client remembers the server is
        // dead until it answers again).
        if hoarded && self.server_path.dead_for(t) {
            self.fault_failovers += 1;
            return (t, Source::Disk);
        }
        let retry = self.cfg.retry;
        let mut cur = t;
        for attempt in 1..=retry.max_retries {
            // The request sits on the wire until it times out.
            cur = cur + retry.timeout;
            self.wnic.advance_to(cur);
            self.fault_retries += 1;
            let wait = retry.backoff * (1u64 << (attempt - 1).min(16));
            if self.tracing {
                self.emit(ObsEvent::RequestRetry {
                    at: cur,
                    attempt,
                    wait,
                });
            }
            if cur >= down_until {
                return (cur, Source::Wnic);
            }
            cur = cur + wait;
            self.wnic.advance_to(cur);
            if cur >= down_until {
                return (cur, Source::Wnic);
            }
        }
        self.fault_failovers += 1;
        if hoarded {
            self.server_path
                .apply(cur, ServerPathEvent::LadderExhausted);
            if self.tracing {
                self.emit(ObsEvent::Failover {
                    at: cur,
                    source: Source::Disk,
                    reason: "server-timeout",
                });
            }
            self.drain_server_path();
            (cur, Source::Disk)
        } else {
            // No local copy exists: the request can only wait the
            // outage out.
            let resume = down_until.max(cur);
            self.wnic.advance_to(resume);
            if self.tracing {
                self.emit(ObsEvent::Failover {
                    at: cur,
                    source: Source::Wnic,
                    reason: "server-stall",
                });
            }
            (resume, Source::Wnic)
        }
    }

    /// Route a request: pinned files always hit the disk and surface as
    /// external activity; non-hoarded files can only ride the WNIC;
    /// everything else asks the policy — overridden to the disk while
    /// the wireless link is down. Returns the source, whether the
    /// request is external (pinned), and a stable rationale tag for the
    /// observability layer.
    fn route(&mut self, now: SimTime, req: &AppRequest) -> (Source, bool, &'static str) {
        let routed = self.route_inner(now, req);
        if self.tracing {
            let (source, external, rationale) = routed;
            self.emit(ObsEvent::Decision {
                at: now,
                source,
                rationale,
                external,
            });
        }
        routed
    }

    fn route_inner(&mut self, now: SimTime, req: &AppRequest) -> (Source, bool, &'static str) {
        if self.cfg.disk_only_files.contains(&req.file) {
            self.policy.on_external_disk(now);
            return (Source::Disk, true, "pinned");
        }
        if self.cfg.network_only_files.contains(&req.file) {
            if let Some(resume) = self.wnic_resume(now) {
                // Not hoarded AND disconnected: the request stalls until
                // the link returns — modelled as service at the outage
                // end (the disk genuinely has no copy).
                self.wnic.advance_to(resume);
                return (Source::Wnic, false, "unhoarded-stall");
            }
            // Not hoarded: the local disk has no copy. The policy is not
            // consulted — there is no choice to make — but the request is
            // still the profiled program's own I/O (not external).
            return (Source::Wnic, false, "unhoarded");
        }
        if self.wnic_resume(now).is_some() {
            // Link down: fail over to the disk regardless of preference.
            // The policy still observes the outcome (measured adaptation).
            return (Source::Disk, false, "outage-failover");
        }
        let source = self.with_policy(now, |p, ctx| p.select(ctx, req));
        (source, false, "policy")
    }

    /// Service one device request, tallying that device's requests and
    /// bytes. Returns the outcome. Without a flash tier a flash request
    /// is a no-op (callers only issue one when the tier exists).
    fn service(&mut self, at: SimTime, device: Device, req: DeviceRequest) -> ServiceOutcome {
        match device {
            Device::Disk => {
                self.disk_requests += 1;
                self.disk_bytes = self.disk_bytes.saturating_add(req.bytes);
                self.disk.service(at, &req)
            }
            Device::Wnic => {
                self.wnic_requests += 1;
                self.wnic_bytes = self.wnic_bytes.saturating_add(req.bytes);
                self.wnic.service(at, &req)
            }
            Device::Flash => {
                let Some((flash, _)) = self.flash.as_mut() else {
                    return ServiceOutcome {
                        complete: at,
                        service_time: Dur::ZERO,
                        energy: Joules::ZERO,
                    };
                };
                self.flash_requests += 1;
                self.flash_bytes = self.flash_bytes.saturating_add(req.bytes);
                flash.service(at, &req)
            }
        }
    }

    /// Fetch a set of page runs of `file` from `source`. `demand` runs
    /// gate the application (their max completion is returned); the
    /// `prefetch` runs (readahead) just occupy the device.
    fn fetch_runs(
        &mut self,
        t: SimTime,
        file: FileId,
        source: Source,
        demand: &[(u64, u64)],
        prefetch: &[(u64, u64)],
    ) -> (SimTime, Joules) {
        // A WNIC-bound fetch first clears the server: during an injected
        // server outage it walks the retry ladder and may fail over to
        // the disk (hoarded files) or stall (network-only files).
        let (t, source) = if source == Source::Wnic && !(demand.is_empty() && prefetch.is_empty()) {
            let hoarded = !self.cfg.network_only_files.contains(&file);
            self.wnic_gate(t, hoarded)
        } else {
            (t, source)
        };
        let mut app_done = t;
        let mut energy = Joules::ZERO;

        // Flash tier: pages resident in flash are served there; the rest
        // go to the routed device and are then copied into flash.
        let misses;
        let (demand, prefetch) = if self.flash.is_some() {
            let (hit_d, miss_d) = self.partition_flash(file, demand);
            let (_, miss_p) = self.partition_flash(file, prefetch);
            // Serve flash hits (blocking for the application).
            let mut cur = t;
            for &(_, n) in &hit_d {
                let req = DeviceRequest::read(Bytes(n * PAGE_SIZE), None);
                let out = self.service(cur, Device::Flash, req);
                cur = out.complete;
                energy += out.energy;
            }
            app_done = app_done.max(cur);
            // Populate flash with what the device is about to fetch.
            let mut spilled = Vec::new();
            if let Some((_, fc)) = self.flash.as_mut() {
                for &(page, n) in miss_d.iter().chain(&miss_p) {
                    for pg in page..page + n {
                        spilled.extend(fc.insert_clean(PageKey { file, index: pg }));
                    }
                }
            }
            // Dirty pages squeezed out of flash must reach the disk now.
            if !spilled.is_empty() {
                energy += self.write_pages_to_disk(cur, &spilled).1;
            }
            misses = (miss_d, miss_p);
            (&misses.0[..], &misses.1[..])
        } else {
            (demand, prefetch)
        };
        match source {
            Source::Disk => {
                // C-SCAN over the combined batch; tag 1 = demand.
                let mut q = CScanQueue::new();
                for (runs, tag) in [(demand, 1), (prefetch, 0)] {
                    for &(page, n) in runs {
                        if let Some(start) = self.layout.block_of(file, page * PAGE_SIZE) {
                            q.push(BlockRequest {
                                start,
                                blocks: n,
                                tag,
                            });
                        }
                    }
                }
                let mut cur = t;
                for r in q.drain_sweep() {
                    let req = DeviceRequest::read(Bytes(r.blocks * PAGE_SIZE), Some(r.start));
                    let out = self.service(cur, Device::Disk, req);
                    cur = out.complete;
                    energy += out.energy;
                    if r.tag == 1 {
                        app_done = app_done.max(out.complete);
                    }
                }
            }
            Source::Wnic => {
                let mut cur = t;
                for (runs, blocking) in [(demand, true), (prefetch, false)] {
                    for &(_, n) in runs {
                        let req = DeviceRequest::read(Bytes(n * PAGE_SIZE), None);
                        let out = self.service(cur, Device::Wnic, req);
                        cur = out.complete;
                        energy += out.energy;
                        if blocking {
                            app_done = app_done.max(out.complete);
                        }
                    }
                }
            }
        }
        (app_done, energy)
    }

    /// Split page runs of `file` by flash residency (runs stay
    /// contiguous). Flash LRU positions refresh on lookups.
    fn partition_flash(&mut self, file: FileId, runs: &[(u64, u64)]) -> (PageRuns, PageRuns) {
        let Some((_, fc)) = self.flash.as_mut() else {
            // No flash tier: everything is a miss.
            return (Vec::new(), runs.to_vec());
        };
        let mut hits: PageRuns = Vec::new();
        let mut misses: PageRuns = Vec::new();
        for &(page, n) in runs {
            for pg in page..page + n {
                let hit = fc.lookup(PageKey { file, index: pg });
                push_run(if hit { &mut hits } else { &mut misses }, pg);
            }
        }
        (hits, misses)
    }

    /// Force pages to the physical disk (flash spill / destage path).
    fn write_pages_to_disk(&mut self, t: SimTime, pages: &[PageKey]) -> (SimTime, Joules) {
        let mut cur = t;
        let mut energy = Joules::ZERO;
        for (start, n) in page_runs(pages) {
            let block = self.layout.block_of(start.file, start.index * PAGE_SIZE);
            let req = DeviceRequest::write(Bytes(n * PAGE_SIZE), block);
            let out = self.service(cur, Device::Disk, req);
            cur = out.complete;
            energy += out.energy;
        }
        (cur, energy)
    }

    /// Destage the flash tier's buffered writes to the disk at `at`.
    fn destage_flash(&mut self, at: SimTime) {
        if let Some((_, fc)) = &mut self.flash {
            let destage = fc.take_destage();
            if !destage.is_empty() {
                let _ = self.write_pages_to_disk(at, &destage);
            }
        }
    }

    /// Write back a batch of dirty `pages` at `at` (no-op when empty):
    /// pinned files go to the disk, the rest wherever the policy
    /// currently routes the batch's first page.
    fn write_back(&mut self, at: SimTime, pages: &[PageKey]) {
        let Some(first) = pages.first() else {
            return;
        };
        if self.tracing {
            self.emit(ObsEvent::WritebackFlush {
                at,
                pages: u64::try_from(pages.len()).unwrap_or(u64::MAX),
            });
        }
        let probe = AppRequest {
            file: first.file,
            op: IoOp::Write,
            offset: first.index * PAGE_SIZE,
            len: Bytes(PAGE_SIZE),
        };
        let (source, _, _) = self.route(at, &probe);
        let _ = self.write_dirty(at, pages, source);
    }

    /// Write evicted-dirty pages out synchronously (they gate the
    /// operation that forced the eviction).
    fn write_dirty(&mut self, t: SimTime, pages: &[PageKey], source: Source) -> (SimTime, Joules) {
        let mut cur = t;
        let mut energy = Joules::ZERO;
        for run in page_runs(pages) {
            let block = self.layout.block_of(run.0.file, run.0.index * PAGE_SIZE);
            let src = if self.cfg.disk_only_files.contains(&run.0.file) {
                Source::Disk
            } else if self.cfg.network_only_files.contains(&run.0.file) {
                Source::Wnic
            } else {
                source
            };
            // Server outage: uploads walk the same ladder as fetches.
            // After the first exhausted ladder the dead-server mark makes
            // the rest of the batch fail over without re-paying it.
            let (gated, src) = if src == Source::Wnic {
                let hoarded = !self.cfg.network_only_files.contains(&run.0.file);
                self.wnic_gate(cur, hoarded)
            } else {
                (cur, src)
            };
            cur = gated;
            let bytes = Bytes(run.1 * PAGE_SIZE);
            // Flash write buffering: a write aimed at a sleeping disk
            // parks in flash instead of forcing a spin-up.
            if src == Source::Disk && self.flash.is_some() && !self.disk.is_ready() {
                let out = self.service(cur, Device::Flash, DeviceRequest::write(bytes, None));
                cur = out.complete;
                energy += out.energy;
                let mut spilled = Vec::new();
                if let Some((_, fc)) = self.flash.as_mut() {
                    for pg in run.0.index..run.0.index + run.1 {
                        spilled.extend(fc.buffer_write(PageKey {
                            file: run.0.file,
                            index: pg,
                        }));
                    }
                }
                if !spilled.is_empty() {
                    let (d, e) = self.write_pages_to_disk(cur, &spilled);
                    cur = d;
                    energy += e;
                }
                continue;
            }
            let req = DeviceRequest::write(bytes, if src == Source::Disk { block } else { None });
            let out = self.service(cur, src.into(), req);
            cur = out.complete;
            energy += out.energy;
            // §5 extension: synchronise local writes to the server. The
            // upload rides the WNIC asynchronously (device busy, app not
            // blocked beyond the primary write).
            if self.cfg.sync_writes && src == Source::Disk {
                let up = DeviceRequest::write(bytes, None);
                let out = self.service(cur, Device::Wnic, up);
                energy += out.energy;
            }
        }
        (cur, energy)
    }

    /// Process one application system call; returns its completion time.
    /// Fails on a record naming a file absent from the trace's file
    /// table (a malformed trace).
    fn process_call(&mut self, t: SimTime, rec: &TraceRecord) -> Result<SimTime> {
        self.app_requests += 1;
        let meta_size = self
            .trace
            .files
            .get(rec.file)
            .map(|m| m.size)
            .ok_or(ff_base::Error::UnknownFile(rec.file.0))?;
        let app_req = AppRequest {
            file: rec.file,
            op: rec.op,
            offset: rec.offset,
            len: rec.len,
        };

        if self.tracing {
            self.emit(ObsEvent::AppCall {
                at: t,
                file: rec.file.0,
                op: match rec.op {
                    IoOp::Read => "read",
                    IoOp::Write => "write",
                },
                offset: rec.offset,
                len: rec.len,
            });
        }
        let mut energy = Joules::ZERO;
        let mut done = t;
        let mut routed: Option<(Source, bool)> = None;

        match rec.op {
            IoOp::Read => {
                let out = self.cache.read(t, rec.file, rec.offset, rec.len, meta_size);
                if self.tracing {
                    self.emit(ObsEvent::CacheRead {
                        at: t,
                        file: rec.file.0,
                        hit_pages: out.hit_pages,
                        miss_pages: out.demand.iter().map(|&(_, n)| n).sum(),
                        readahead_pages: out.prefetch.iter().map(|&(_, n)| n).sum(),
                    });
                }
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
                        self.observed.observe(
                            t,
                            done,
                            rec.file,
                            IoOp::Read,
                            rec.offset,
                            Bytes(fetched),
                        );
                    }
                }
            }
            IoOp::Write => {
                // Into the page cache; the flusher pays the device cost.
                let wout = self.cache.write(t, rec.file, rec.offset, rec.len);
                if !wout.evicted_dirty.is_empty() {
                    let (source, external, _) = self.route(t, &app_req);
                    routed = Some((source, external));
                    let (d, e) = self.write_dirty(t, &wout.evicted_dirty, source);
                    energy += e;
                    done = d;
                }
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
        Ok(done)
    }

    /// Flusher wake-up: write back due dirty pages asynchronously, and
    /// destage flash-buffered writes while the disk is awake.
    fn flush(&mut self, now: SimTime) {
        self.disk.advance_to(now);
        let ready = self.disk.is_ready();
        if ready {
            self.destage_flash(now);
        }
        let pages = self.cache.flush_due(now, ready);
        self.write_back(now, &pages);
    }

    fn end_stage(&mut self, now: SimTime) {
        self.disk.advance_to(now);
        self.wnic.advance_to(now);
        // A burst spanning the boundary is split so the stage's audit
        // sees the traffic that actually happened during the stage.
        self.observed.split_now();
        let report = ff_policy::StageReport {
            index: self.stage_index,
            start: self.stage_start,
            end: now,
            observed: self.observed.take_completed(),
            disk_energy: self.disk.energy() - self.disk_mark,
            wnic_energy: self.wnic.energy() - self.wnic_mark,
        };
        self.with_policy(now, |p, ctx| p.on_stage_end(ctx, &report));
        let fetched_now = self.disk_bytes.saturating_add(self.wnic_bytes);
        let fetched = fetched_now.saturating_sub(self.stage_bytes_mark);
        self.stage_summaries.push(crate::report::StageSummary {
            index: self.stage_index,
            start: self.stage_start,
            end: now,
            disk_energy: report.disk_energy,
            wnic_energy: report.wnic_energy,
            fetched,
        });
        self.drain_decisions();
        if self.tracing {
            self.emit(ObsEvent::StageEnd {
                at: now,
                index: self.stage_index,
                disk_energy: report.disk_energy,
                wnic_energy: report.wnic_energy,
                fetched,
            });
            self.emit(ObsEvent::EnergySample {
                at: now,
                disk_energy: self.disk.energy(),
                wnic_energy: self.wnic.energy(),
                flash_energy: self.flash_energy(),
            });
            self.emit(ObsEvent::StageStart {
                at: now,
                index: self.stage_index + 1,
            });
        }
        self.stage_bytes_mark = fetched_now;
        self.stage_index += 1;
        self.stage_start = now;
        self.disk_mark = self.disk.energy();
        self.wnic_mark = self.wnic.energy();
    }

    fn run(mut self) -> Result<SimReport> {
        while let Some(Reverse((t, _, kind))) = self.events.pop() {
            match kind {
                EventKind::Issue(pid) => {
                    let Some((idx, think)) = self.queues.get_mut(&pid).and_then(|q| q.pop_front())
                    else {
                        debug_assert!(false, "issue event without queued record");
                        continue;
                    };
                    let rec = self.trace.records[idx];
                    let done = self.process_call(t, &rec)?;
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
                EventKind::Fault(i) => {
                    if self.remaining_calls == 0 && t > self.last_completion {
                        self.silent_at_end.get_or_insert(self.link_down_until[1]);
                    }
                    self.apply_fault(t, i);
                }
            }
            self.drain_device_events();
        }

        // Final sync: everything still dirty is written out, then any
        // flash-buffered writes, then every device is advanced to the
        // end of the run. The write-back routes as of `end`: every
        // notified outage has cleared by now, and a silent one holds
        // if its window spans `end`.
        if let Some(silent) = self.silent_at_end {
            self.link_down_until[1] = silent;
        }
        let end = self.last_completion;
        let dirty = self.cache.flush_all();
        self.write_back(end, &dirty);
        self.destage_flash(end);
        let final_t = end.max(self.disk.clock()).max(self.wnic.clock()).max(
            self.flash
                .as_ref()
                .map(|(f, _)| f.clock())
                .unwrap_or(SimTime::ZERO),
        );
        self.disk.advance_to(final_t);
        self.wnic.advance_to(final_t);
        if let Some((f, _)) = &mut self.flash {
            f.advance_to(final_t);
        }
        self.drain_device_events();
        self.drain_decisions();
        if self.tracing {
            self.emit(ObsEvent::EnergySample {
                at: final_t,
                disk_energy: self.disk.energy(),
                wnic_energy: self.wnic.energy(),
                flash_energy: self.flash_energy(),
            });
        }

        let cache_stats = self.cache.stats();
        Ok(SimReport {
            policy: self.policy.name().to_string(),
            workload: self.trace.name.clone(),
            exec_time: self.last_completion.saturating_since(SimTime::ZERO),
            disk_energy: self.disk.energy(),
            wnic_energy: self.wnic.energy(),
            disk_meter: self.disk.meter().clone(),
            wnic_meter: self.wnic.meter().clone(),
            app_requests: self.app_requests,
            disk_requests: self.disk_requests,
            wnic_requests: self.wnic_requests,
            disk_bytes: self.disk_bytes,
            wnic_bytes: self.wnic_bytes,
            flash_energy: self.flash_energy(),
            flash_meter: self.flash.as_ref().map(|(f, _)| f.meter().clone()),
            flash_requests: self.flash_requests,
            flash_bytes: self.flash_bytes,
            cache_hits: cache_stats.hits,
            cache_misses: cache_stats.misses,
            cache_stats,
            stages: self.stage_index,
            faults_injected: self.faults_injected,
            retries: self.fault_retries,
            failovers: self.fault_failovers,
            recorded_profile: self.policy.recorded_profile(),
            decisions: self.decisions,
            stage_summaries: self.stage_summaries,
        })
    }
}

/// Group sorted page keys into per-file contiguous runs.
fn page_runs(pages: &[PageKey]) -> Vec<(PageKey, u64)> {
    let mut sorted: Vec<PageKey> = pages.to_vec();
    sorted.sort();
    let mut runs: Vec<(PageKey, u64)> = Vec::new();
    for p in sorted {
        match runs.last_mut() {
            Some((start, n)) if start.file == p.file && start.index + *n == p.index => {
                *n += 1;
            }
            _ => runs.push((p, 1)),
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::EventLog;
    use ff_trace::{Grep, Workload};

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
    fn page_runs_group_contiguous() {
        let f = FileId(1);
        let pages = vec![
            PageKey { file: f, index: 3 },
            PageKey { file: f, index: 1 },
            PageKey { file: f, index: 2 },
            PageKey {
                file: FileId(2),
                index: 4,
            },
        ];
        let runs = page_runs(&pages);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0], (PageKey { file: f, index: 1 }, 3));
        assert_eq!(
            runs[1],
            (
                PageKey {
                    file: FileId(2),
                    index: 4
                },
                1
            )
        );
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
        use crate::faults::FaultPlan;
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
        use crate::faults::{FaultPlan, RetryPolicy};
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
        use crate::faults::{FaultPlan, RetryPolicy};
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
        use crate::faults::FaultPlan;
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
    fn bandwidth_fade_restores_the_old_rate() {
        use crate::faults::FaultPlan;
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
        use crate::faults::FaultPlan;
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
        use crate::faults::FaultPlan;
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
