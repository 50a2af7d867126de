//! Deterministic fault injection (§2.3's hostile environment, scripted).
//!
//! The paper's adaptation machinery exists because the mobile
//! environment misbehaves: wireless bandwidth fades with location, the
//! remote server drops off the network, other programs spin the disk up,
//! and the recorded profile can be stale or plain wrong. A [`FaultPlan`]
//! scripts exactly those perturbations against a simulation run:
//!
//! * [`Fault::BandwidthFade`] — the link rate drops to `mbps` for a
//!   window, then restores to whatever it was before the fade;
//! * [`Fault::BandwidthStep`] — the link rate changes to `mbps` for
//!   good (the user walked away from, or back towards, the access
//!   point);
//! * [`Fault::LinkOutage`] — the card loses association entirely; the
//!   router fails hoarded requests over to the disk and stalls
//!   network-only ones until the link returns;
//! * [`Fault::ServerOutage`] — the link is up but the server stops
//!   answering; each network request walks the [`RetryPolicy`] ladder
//!   (timeout → bounded exponential backoff → failover to disk);
//! * [`Fault::DiskStorm`] — a non-profiled background process issues a
//!   train of disk reads (`on_external_disk` from the policies' point of
//!   view), enabling §2.3.3 free-riding;
//! * [`Fault::ProfileFault`] — a stale or corrupted execution profile is
//!   handed to the policy mid-run.
//!
//! Most faults notify the policy as they strike. A bandwidth step and a
//! *silent* link outage do not: that drift is the environment the
//! §2.3.1 stage-end audit has to discover on its own.
//!
//! Plans are plain data: the same plan against the same seed and trace
//! replays to a byte-identical event log. [`FaultPlan::seeded`] derives a
//! random-but-reproducible plan from a seed for chaos testing.

use crate::record::{emit, Event as ObsEvent, Tracer};
use ff_base::{seeded_rng, split_seed, Bytes, BytesPerSec, Dur, Error, Result, SimTime};
use ff_device::{Live, WnicModel};
use ff_policy::{FaultNotice, Source};
use ff_profile::{IoBurst, MergedRequest, Profile, ProfiledBurst};
use ff_trace::{IoOp, Trace};
use rand::Rng;

/// How an injected profile is wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileFaultMode {
    /// The profile no longer exists or no longer matches the program —
    /// modelled as an *empty* history (the first-run situation, §2.3.1).
    Stale,
    /// The profile actively lies: it describes a sparse network-friendly
    /// trickle regardless of what the program really does.
    Corrupt,
}

impl ProfileFaultMode {
    /// Stable tag used in event streams and reports.
    pub fn label(self) -> &'static str {
        match self {
            ProfileFaultMode::Stale => "stale",
            ProfileFaultMode::Corrupt => "corrupt",
        }
    }
}

/// One scripted perturbation, anchored at `at` after simulation start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// The link rate drops to `mbps` for `dur`, then restores.
    BandwidthFade {
        /// Onset, relative to simulation start.
        at: Dur,
        /// How long the fade lasts.
        dur: Dur,
        /// Faded link bandwidth in Mbit/s.
        mbps: f64,
    },
    /// The link rate changes to `mbps` from `at` on. Permanent, and
    /// never announced to the policy.
    BandwidthStep {
        /// Onset, relative to simulation start.
        at: Dur,
        /// New link bandwidth in Mbit/s.
        mbps: f64,
    },
    /// The wireless link loses association for `dur`.
    LinkOutage {
        /// Onset, relative to simulation start.
        at: Dur,
        /// How long the link stays down.
        dur: Dur,
        /// A silent outage only diverts traffic: the policy is not
        /// notified, the fault is not counted, and no link events are
        /// recorded. It also holds after the last application call.
        silent: bool,
    },
    /// The remote server stops answering for `dur` (the link stays up,
    /// so requests time out instead of failing fast).
    ServerOutage {
        /// Onset, relative to simulation start.
        at: Dur,
        /// How long the server stays unreachable.
        dur: Dur,
    },
    /// A background process reads from the disk `touches` times, `gap`
    /// apart, `bytes` per touch — keeping the disk spinning.
    DiskStorm {
        /// First touch, relative to simulation start.
        at: Dur,
        /// Number of touches.
        touches: u32,
        /// Interval between touches.
        gap: Dur,
        /// Bytes read per touch.
        bytes: u64,
    },
    /// A stale or corrupted profile is injected into the policy.
    ProfileFault {
        /// Injection instant, relative to simulation start.
        at: Dur,
        /// What is wrong with the injected profile.
        mode: ProfileFaultMode,
    },
}

impl Fault {
    /// Onset of the fault, relative to simulation start.
    pub fn at(&self) -> Dur {
        match *self {
            Fault::BandwidthFade { at, .. }
            | Fault::BandwidthStep { at, .. }
            | Fault::LinkOutage { at, .. }
            | Fault::ServerOutage { at, .. }
            | Fault::DiskStorm { at, .. }
            | Fault::ProfileFault { at, .. } => at,
        }
    }

    /// Stable tag naming the fault kind.
    pub fn label(&self) -> &'static str {
        match self {
            Fault::BandwidthFade { .. } => "bandwidth_fade",
            Fault::BandwidthStep { .. } => "bandwidth_step",
            Fault::LinkOutage { .. } => "link_outage",
            Fault::ServerOutage { .. } => "server_outage",
            Fault::DiskStorm { .. } => "disk_storm",
            Fault::ProfileFault { .. } => "profile_fault",
        }
    }

    fn validate(&self) -> Result<()> {
        let bad_rate = |mbps: f64| !mbps.is_finite() || mbps < BytesPerSec::MIN_LINK_MBIT;
        match *self {
            Fault::BandwidthFade { dur, mbps, .. } => {
                if dur.is_zero() {
                    return Err(Error::Fault("bandwidth fade with zero duration".into()));
                }
                if bad_rate(mbps) {
                    return Err(Error::Fault(format!(
                        "bandwidth fade to {mbps} Mbit/s is not a finite rate of at least {} Mbit/s",
                        BytesPerSec::MIN_LINK_MBIT
                    )));
                }
            }
            Fault::BandwidthStep { at, mbps } => {
                if bad_rate(mbps) {
                    return Err(Error::Fault(format!(
                        "bandwidth step at {at} to {mbps} Mbit/s is not a finite rate of at least {} Mbit/s",
                        BytesPerSec::MIN_LINK_MBIT
                    )));
                }
            }
            Fault::LinkOutage { dur, .. } => {
                if dur.is_zero() {
                    return Err(Error::Fault("link outage with zero duration".into()));
                }
            }
            Fault::ServerOutage { dur, .. } => {
                if dur.is_zero() {
                    return Err(Error::Fault("server outage with zero duration".into()));
                }
            }
            Fault::DiskStorm { touches, bytes, .. } => {
                if touches == 0 {
                    return Err(Error::Fault("disk storm with zero touches".into()));
                }
                if touches > 100_000 {
                    return Err(Error::Fault(format!(
                        "disk storm with {touches} touches (max 100000)"
                    )));
                }
                if bytes == 0 {
                    return Err(Error::Fault("disk storm reading zero bytes".into()));
                }
            }
            Fault::ProfileFault { .. } => {}
        }
        // The last action (a window's end, a storm's last touch) must
        // land inside simulated time.
        let last = self.offsets().and_then(|o| o.last().copied());
        if last
            .and_then(|(off, _)| self.at().as_micros().checked_add(off.as_micros()))
            .is_none()
        {
            return Err(Error::Fault(format!(
                "{} at {} ends past the end of simulated time",
                self.label(),
                self.at()
            )));
        }
        Ok(())
    }

    /// When the fault acts, relative to its onset, as `(offset, clear)`:
    /// a window's onset and clear, each storm touch, or an instant
    /// fault's onset. `None` when an offset overflows `Dur`.
    fn offsets(&self) -> Option<Vec<(Dur, bool)>> {
        Some(match *self {
            Fault::BandwidthFade { dur, .. }
            | Fault::LinkOutage { dur, .. }
            | Fault::ServerOutage { dur, .. } => vec![(Dur::ZERO, false), (dur, true)],
            Fault::DiskStorm { touches, gap, .. } => (0..u64::from(touches))
                .map(|k| Some((Dur(gap.as_micros().checked_mul(k)?), false)))
                .collect::<Option<_>>()?,
            Fault::BandwidthStep { .. } | Fault::ProfileFault { .. } => vec![(Dur::ZERO, false)],
        })
    }
}

/// Per-request behaviour against an unresponsive server: a request times
/// out after [`RetryPolicy::timeout`], then retries after an
/// exponentially growing backoff (`backoff`, `2·backoff`, `4·backoff`,
/// …) up to [`RetryPolicy::max_retries`] attempts, after which the
/// router fails over to the disk (or, for network-only data, stalls
/// until the server returns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// How long a request waits on the wire before giving up.
    pub timeout: Dur,
    /// Base backoff between attempts; doubles each retry.
    pub backoff: Dur,
    /// Attempts before failing over (1–16).
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: Dur::from_secs(2),
            backoff: Dur::from_millis(500),
            max_retries: 4,
        }
    }
}

impl RetryPolicy {
    /// Reject nonsensical ladders (zero timeout, zero or more than 16
    /// attempts, or a worst-case ladder that overflows simulated time).
    pub fn validate(&self) -> Result<()> {
        if self.timeout.is_zero() {
            return Err(Error::Fault("retry policy with zero timeout".into()));
        }
        if self.max_retries == 0 || self.max_retries > 16 {
            return Err(Error::Fault(format!(
                "retry policy with {} attempts (want 1..=16)",
                self.max_retries
            )));
        }
        if self.ladder().is_none() {
            return Err(Error::Fault(format!(
                "retry ladder of {} attempts ({} timeout, {} backoff) overflows simulated time",
                self.max_retries, self.timeout, self.backoff
            )));
        }
        Ok(())
    }

    /// Worst-case wall-clock cost of one exhausted ladder: every timeout
    /// plus every backoff interval, or `None` when it overflows `Dur`
    /// (a ladder [`RetryPolicy::validate`] rejects).
    pub fn ladder(&self) -> Option<Dur> {
        let mut total = 0u64;
        for step in 0..self.max_retries {
            total = total
                .checked_add(self.timeout.as_micros())?
                .checked_add(self.backoff_at(step)?.as_micros())?;
        }
        Some(Dur(total))
    }

    /// The wait after the `step`-th timeout (counting from zero):
    /// `backoff · 2^step`, or `None` when it overflows `Dur`.
    fn backoff_at(&self, step: u32) -> Option<Dur> {
        let scale = 1u64.checked_shl(step)?;
        self.backoff.as_micros().checked_mul(scale).map(Dur)
    }
}

/// A scripted set of faults, applied deterministically to one run.
///
/// Build a plan with the `with_*` combinators, attach it via
/// [`crate::SimConfig::with_faults`], and the simulator injects each
/// fault at its scripted onset — same seed, same plan, same run,
/// byte-for-byte:
///
/// ```
/// use ff_base::Dur;
/// use ff_policy::PolicyKind;
/// use ff_sim::{FaultPlan, SimConfig, Simulation};
/// use ff_trace::{Grep, Workload};
///
/// let plan = FaultPlan::none()
///     .with_link_outage(Dur::from_millis(10), Dur::from_millis(500));
/// assert!(plan.validate().is_ok());
///
/// let trace = Grep { files: 20, total_bytes: 800_000, ..Default::default() }.build(1);
/// let report = Simulation::new(SimConfig::default().with_faults(plan), &trace)
///     .policy(PolicyKind::WnicOnly)
///     .run()
///     .unwrap();
/// // The outage was injected and survived (retries and/or failover).
/// assert_eq!(report.faults_injected, 1);
/// assert_eq!(report.app_requests, trace.len() as u64);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The faults, in no particular order (the simulator sorts by onset).
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan with no faults (the default — every existing configuration
    /// keeps its exact behaviour).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True iff the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Add a link outage: no association from `at` for `dur`.
    pub fn with_link_outage(mut self, at: Dur, dur: Dur) -> Self {
        self.faults.push(Fault::LinkOutage {
            at,
            dur,
            silent: false,
        });
        self
    }

    /// Add a silent link outage: traffic fails over from `at` for
    /// `dur`, but the policy is never told.
    pub fn with_silent_link_outage(mut self, at: Dur, dur: Dur) -> Self {
        self.faults.push(Fault::LinkOutage {
            at,
            dur,
            silent: true,
        });
        self
    }

    /// Add a permanent, unannounced change of the link rate to `mbps`
    /// at `at`.
    pub fn with_bandwidth_step(mut self, at: Dur, mbps: f64) -> Self {
        self.faults.push(Fault::BandwidthStep { at, mbps });
        self
    }

    /// Add a bandwidth fade to `mbps` from `at` for `dur`.
    pub fn with_bandwidth_fade(mut self, at: Dur, dur: Dur, mbps: f64) -> Self {
        self.faults.push(Fault::BandwidthFade { at, dur, mbps });
        self
    }

    /// Add a server outage: no responses from `at` for `dur`.
    pub fn with_server_outage(mut self, at: Dur, dur: Dur) -> Self {
        self.faults.push(Fault::ServerOutage { at, dur });
        self
    }

    /// Add a background disk storm: `touches` reads of `bytes` bytes,
    /// `gap` apart, starting at `at`.
    pub fn with_disk_storm(mut self, at: Dur, touches: u32, gap: Dur, bytes: u64) -> Self {
        self.faults.push(Fault::DiskStorm {
            at,
            touches,
            gap,
            bytes,
        });
        self
    }

    /// Add a profile injection at `at`.
    pub fn with_profile_fault(mut self, at: Dur, mode: ProfileFaultMode) -> Self {
        self.faults.push(Fault::ProfileFault { at, mode });
        self
    }

    /// Validate every fault in the plan.
    pub fn validate(&self) -> Result<()> {
        for f in &self.faults {
            f.validate()?;
        }
        Ok(())
    }

    /// A random-but-reproducible plan: 2–5 faults of mixed kinds spread
    /// over `span`. The same `(seed, span)` always yields the same plan.
    pub fn seeded(seed: u64, span: Dur) -> Self {
        let span = span.max(Dur::from_secs(1));
        let mut plan = FaultPlan::none();
        let mut rng = seeded_rng(split_seed(seed, 0xFA17));
        let n = rng.gen_range(2..=5u32);
        for _ in 0..n {
            let at = Dur::from_micros(rng.gen_range(0..span.as_micros()));
            // 0.5–20 s of trouble per fault.
            let dur = Dur::from_micros(rng.gen_range(500_000..=20_000_000u64));
            let fault = match rng.gen_range(0..5u32) {
                0 => Fault::LinkOutage {
                    at,
                    dur,
                    silent: false,
                },
                1 => Fault::BandwidthFade {
                    at,
                    dur,
                    mbps: rng.gen_range(0.5..5.5f64),
                },
                2 => Fault::ServerOutage { at, dur },
                3 => Fault::DiskStorm {
                    at,
                    touches: rng.gen_range(2..=12u32),
                    gap: Dur::from_micros(rng.gen_range(1_000_000..=8_000_000u64)),
                    bytes: rng.gen_range(4_096..=1_048_576u64),
                },
                _ => Fault::ProfileFault {
                    at,
                    mode: if rng.gen_range(0..2u32) == 0 {
                        ProfileFaultMode::Stale
                    } else {
                        ProfileFaultMode::Corrupt
                    },
                },
            };
            plan.faults.push(fault);
        }
        plan
    }
}

/// Build the profile a [`Fault::ProfileFault`] hands to the policy.
///
/// *Stale* is an empty history — the recorded profile was lost or
/// belongs to a different program version, so the policy is back in the
/// first-run situation. *Corrupt* is adversarial: it claims the program
/// does a sparse 64 KiB trickle every 6 seconds (textbook network-
/// friendly), no matter what the trace actually holds — bad advice for
/// any dense workload that trusts it.
pub fn injected_profile(mode: ProfileFaultMode, trace: &Trace) -> Profile {
    match mode {
        ProfileFaultMode::Stale => Profile::empty(trace.name.clone()),
        ProfileFaultMode::Corrupt => {
            // Pick the largest traced file so the fake requests stay in
            // bounds; fall back to an empty profile for a fileless trace.
            let Some(victim) = trace.files.iter().max_by_key(|m| m.size) else {
                return Profile::empty(trace.name.clone());
            };
            let len = Bytes(victim.size.get().clamp(1, 65_536));
            let stats = trace.stats();
            let n = (stats.span.as_micros() / 6_000_000).clamp(10, 120);
            let mut bursts = Vec::new();
            let mut t = SimTime::ZERO;
            for _ in 0..n {
                let end = t + Dur::from_millis(5);
                bursts.push(ProfiledBurst {
                    burst: IoBurst {
                        start: t,
                        end,
                        requests: vec![MergedRequest {
                            file: victim.id,
                            op: IoOp::Read,
                            offset: 0,
                            len,
                        }],
                    },
                    gap_after: Dur::from_secs(6),
                });
                t = end + Dur::from_secs(6);
            }
            Profile {
                app: trace.name.clone(),
                bursts,
            }
        }
    }
}

/// The simulator's view of the remote content server: the explicit
/// state behind the retry / backoff / failover machinery.
///
/// `Healthy` means WNIC requests flow normally. An injected
/// [`Fault::ServerOutage`] moves the machine to `Down` (link up, server
/// silent) until the merged end of all overlapping outage windows. The
/// first hoarded request to exhaust the retry ladder moves it to
/// `MarkedDead`: the client remembers the server is dead, so later
/// hoarded requests fail over to the disk immediately instead of
/// re-walking the ladder. A `ServerUp` clear at or after the outage end
/// returns the machine to `Healthy` from either degraded state.
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
#[derive(Debug, Clone, Copy)]
enum ServerPathEvent {
    /// A server outage starts (or extends) — active until the instant.
    OutageStart(SimTime),
    /// A `ServerUp` restore arrived (moot if the outage was extended).
    OutageEnd,
    /// A hoarded request walked the full retry ladder unanswered.
    LadderExhausted,
}

/// How the server-path machine took one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// A stale event the machine ignores (e.g. a `ServerUp` overtaken
    /// by an outage extension).
    Stale,
    /// Accepted without changing the state's variant.
    Stayed,
    /// Accepted, entering the state with this label: the payload of the
    /// `server_path` event, the trace export hook that makes the failover
    /// state visible to the observability layer.
    Entered(&'static str),
}

/// The server-path machine.
struct ServerPath {
    state: ServerPathState,
}

impl ServerPath {
    /// The single transition site: feed one event through the machine.
    fn apply(&mut self, at: SimTime, ev: ServerPathEvent) -> Step {
        match self.state {
            ServerPathState::Healthy => match ev {
                ServerPathEvent::OutageStart(until) => {
                    self.state = ServerPathState::Down(until);
                    Step::Entered("down")
                }
                _ => Step::Stale,
            },
            ServerPathState::Down(until) => match ev {
                ServerPathEvent::OutageStart(more) => {
                    self.state = ServerPathState::Down(until.max(more));
                    Step::Stayed
                }
                ServerPathEvent::OutageEnd if at >= until => {
                    self.state = ServerPathState::Healthy;
                    Step::Entered("healthy")
                }
                ServerPathEvent::OutageEnd => Step::Stale,
                ServerPathEvent::LadderExhausted => {
                    self.state = ServerPathState::MarkedDead(until, until);
                    Step::Entered("dead")
                }
            },
            ServerPathState::MarkedDead(until, dead) => match ev {
                ServerPathEvent::OutageStart(more) => {
                    self.state = ServerPathState::MarkedDead(until.max(more), dead);
                    Step::Stayed
                }
                ServerPathEvent::OutageEnd if at >= until => {
                    self.state = ServerPathState::Healthy;
                    Step::Entered("healthy")
                }
                ServerPathEvent::OutageEnd => Step::Stale,
                ServerPathEvent::LadderExhausted => {
                    self.state = ServerPathState::MarkedDead(until, until);
                    Step::Stayed
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
}

/// What a fault action leaves to the parts of the run the timeline does
/// not own: the policy and the disk.
pub(crate) enum Effect {
    /// Nothing: the action was moot, silent, or only reshaped the link.
    Done,
    /// Tell the policy the environment changed.
    Notice(FaultNotice),
    /// A background program reads this much from the disk.
    DiskTouch(Bytes),
    /// Hand the policy a wrong profile (see [`injected_profile`]).
    Profile(ProfileFaultMode),
}

/// One run's fault timeline: the plan's actions, the link and server
/// state they leave, the retry ladder walked against it, and the fault
/// counters. The runner schedules each action, applies it here and
/// carries out the returned [`Effect`].
pub(crate) struct FaultTimeline {
    faults: Vec<Fault>,
    retry: RetryPolicy,
    /// End of the current link outage, while one is active, kept
    /// apart per delivery (`[notified, silent]`) so one kind's window
    /// never masks the other's restore.
    link_down_until: [Option<SimTime>; 2],
    /// The silent outage state as the loop first ran an action past the
    /// last completion: the final write-back routes as of that instant.
    silent_at_end: Option<Option<SimTime>>,
    server_path: ServerPath,
    /// Pre-fade bandwidths, pushed on fade start and popped on fade end
    /// (a stack so nested fades restore in order).
    fade_restore: Vec<BytesPerSec>,
    pub(crate) injected: u64,
    pub(crate) retries: u64,
    pub(crate) failovers: u64,
}

impl FaultTimeline {
    pub(crate) fn new(plan: &FaultPlan, retry: RetryPolicy) -> Self {
        FaultTimeline {
            faults: plan.faults.clone(),
            retry,
            link_down_until: [None; 2],
            silent_at_end: None,
            server_path: ServerPath {
                state: ServerPathState::Healthy,
            },
            fade_restore: Vec::new(),
            injected: 0,
            retries: 0,
            failovers: 0,
        }
    }

    /// Every action as `(instant, fault index, clear)`, sorted by
    /// instant; ties keep plan order, deterministic by construction.
    pub(crate) fn schedule(&self) -> Vec<(Dur, usize, bool)> {
        let mut actions = Vec::new();
        for (i, f) in self.faults.iter().enumerate() {
            for (offset, clear) in f.offsets().unwrap_or_default() {
                actions.push((f.at() + offset, i, clear));
            }
        }
        actions.sort_by_key(|&(at, ..)| at);
        actions
    }

    /// Latest end of the link outages active at `now` — when a stalled
    /// network-only request can resume — or `None` while the wireless
    /// link is up.
    pub(crate) fn wnic_resume(&self, now: SimTime) -> Option<SimTime> {
        let [notified, silent] = self.link_down_until;
        notified.max(silent).filter(|&u| now < u)
    }

    /// Route the final write-back by the silent outage state as of the
    /// last completion, not as later actions left it.
    pub(crate) fn rewind_to_end(&mut self) {
        if let Some(silent) = self.silent_at_end {
            self.link_down_until[1] = silent;
        }
    }

    /// Apply fault `i`'s onset (or its `clear`) at `t`; `drained` is the
    /// last completion once every application call has run.
    ///
    /// State restores (link/server back up, fade ending) always take
    /// effect so the run can never end wedged in a fault.
    pub(crate) fn apply(
        &mut self,
        t: SimTime,
        (i, clear): (usize, bool),
        drained: Option<SimTime>,
        wnic: &mut Live<WnicModel>,
        rec: &mut Tracer<'_>,
    ) -> Effect {
        if drained.is_some_and(|end| t > end) {
            self.silent_at_end.get_or_insert(self.link_down_until[1]);
        }
        let live = drained.is_none();
        let fault = self.faults[i];
        // Silent outages and bandwidth steps only shape the link. Every
        // other onset is counted, and skipped once the workload has
        // drained: it could no longer affect anything and would only
        // stretch device idle time.
        let shapes_link = matches!(
            fault,
            Fault::LinkOutage { silent: true, .. } | Fault::BandwidthStep { .. }
        );
        if !clear && !shapes_link {
            if !live {
                return Effect::Done;
            }
            self.injected += 1;
        }
        match (fault, clear) {
            (Fault::LinkOutage { at, dur, silent }, false) => {
                // Overlapping outages merge to the furthest end.
                let until = SimTime::ZERO + at + dur;
                let slot = &mut self.link_down_until[usize::from(silent)];
                *slot = Some(slot.map_or(until, |u| u.max(until)));
                if silent {
                    return Effect::Done;
                }
                wnic.advance_to(t);
                emit(rec, || ObsEvent::LinkDown { at: t, until });
                Effect::Notice(FaultNotice::LinkDown)
            }
            (Fault::LinkOutage { silent, .. }, true) => {
                // Only the clear matching the merged window end lifts the
                // outage (earlier clears of overlapped outages are moot).
                let slot = &mut self.link_down_until[usize::from(silent)];
                if slot.is_none_or(|u| t < u) {
                    return Effect::Done;
                }
                *slot = None;
                if !live || silent {
                    return Effect::Done;
                }
                wnic.advance_to(t);
                emit(rec, || ObsEvent::LinkUp { at: t });
                Effect::Notice(FaultNotice::LinkUp)
            }
            (Fault::ServerOutage { at, dur }, false) => {
                // Overlapping outages merge to the furthest end.
                let until = SimTime::ZERO + at + dur;
                let step = self
                    .server_path
                    .apply(t, ServerPathEvent::OutageStart(until));
                emit(rec, || ObsEvent::ServerDown { at: t, until });
                if let Step::Entered(state) = step {
                    emit(rec, || ObsEvent::ServerPathChange { at: t, state });
                }
                Effect::Notice(FaultNotice::ServerDown)
            }
            (Fault::ServerOutage { .. }, true) => {
                // Only the clear matching the merged window end restores
                // the server; the machine rejects stale clears itself.
                let step = self.server_path.apply(t, ServerPathEvent::OutageEnd);
                if step == Step::Stale {
                    return Effect::Done;
                }
                if let Step::Entered(state) = step {
                    emit(rec, || ObsEvent::ServerPathChange { at: t, state });
                }
                if !live {
                    return Effect::Done;
                }
                emit(rec, || ObsEvent::ServerUp { at: t });
                Effect::Notice(FaultNotice::ServerUp)
            }
            (Fault::BandwidthFade { mbps, .. }, false) => {
                wnic.advance_to(t);
                self.fade_restore.push(wnic.model.params().bandwidth);
                wnic.model
                    .set_bandwidth(BytesPerSec::from_mbit_per_sec(mbps));
                emit(rec, || ObsEvent::BandwidthChange { at: t, mbps });
                Effect::Notice(FaultNotice::BandwidthChanged { mbps })
            }
            (Fault::BandwidthFade { .. }, true) => {
                let Some(restored) = self.fade_restore.pop() else {
                    return Effect::Done;
                };
                wnic.advance_to(t);
                wnic.model.set_bandwidth(restored);
                if !live {
                    return Effect::Done;
                }
                let mbps = restored.get() * 8.0 / 1e6;
                emit(rec, || ObsEvent::BandwidthChange { at: t, mbps });
                Effect::Notice(FaultNotice::BandwidthChanged { mbps })
            }
            (Fault::BandwidthStep { mbps, .. }, _) => {
                wnic.advance_to(t);
                wnic.model
                    .set_bandwidth(BytesPerSec::from_mbit_per_sec(mbps));
                // Recorded for observability, but the policy is NOT
                // notified: drift (the user walking around) is
                // discovered by the §2.3.1 stage-end audit.
                emit(rec, || ObsEvent::BandwidthChange { at: t, mbps });
                Effect::Done
            }
            (Fault::DiskStorm { bytes, .. }, _) => Effect::DiskTouch(Bytes(bytes)),
            (Fault::ProfileFault { mode, .. }, _) => Effect::Profile(mode),
        }
    }

    /// Gate a WNIC-bound request at `t` through an active server outage:
    /// walk the retry ladder (timeout → exponential backoff), and either
    /// catch the server coming back, fail over to the disk (`hoarded`
    /// data), or stall until the outage ends (network-only data).
    /// Returns the time the request can actually be serviced and the
    /// source that will serve it.
    pub(crate) fn gate(
        &mut self,
        t: SimTime,
        hoarded: bool,
        wnic: &mut Live<WnicModel>,
        rec: &mut Tracer<'_>,
    ) -> (SimTime, Source) {
        let Some(down_until) = self.server_path.outage_until(t) else {
            return (t, Source::Wnic);
        };
        // An earlier request already exhausted the ladder: hoarded data
        // fails over immediately (the client remembers the server is
        // dead until it answers again).
        if hoarded && self.server_path.dead_for(t) {
            self.failovers += 1;
            return (t, Source::Disk);
        }
        let mut cur = t;
        for attempt in 1..=self.retry.max_retries {
            // The request sits on the wire until it times out.
            cur += self.retry.timeout;
            wnic.advance_to(cur);
            self.retries += 1;
            // A validated ladder fits `Dur`, so the saturation never binds.
            let wait = self.retry.backoff_at(attempt - 1).unwrap_or(Dur(u64::MAX));
            emit(rec, || ObsEvent::RequestRetry {
                at: cur,
                attempt,
                wait,
            });
            if cur >= down_until {
                return (cur, Source::Wnic);
            }
            cur += wait;
            wnic.advance_to(cur);
            if cur >= down_until {
                return (cur, Source::Wnic);
            }
        }
        self.failovers += 1;
        if hoarded {
            let step = self
                .server_path
                .apply(cur, ServerPathEvent::LadderExhausted);
            emit(rec, || ObsEvent::Failover {
                at: cur,
                source: Source::Disk,
                reason: "server-timeout",
            });
            if let Step::Entered(state) = step {
                emit(rec, || ObsEvent::ServerPathChange { at: cur, state });
            }
            (cur, Source::Disk)
        } else {
            // No local copy exists: the request can only wait the
            // outage out.
            let resume = down_until.max(cur);
            wnic.advance_to(resume);
            emit(rec, || ObsEvent::Failover {
                at: cur,
                source: Source::Wnic,
                reason: "server-stall",
            });
            (resume, Source::Wnic)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_collect_faults_in_order() {
        let plan = FaultPlan::none()
            .with_link_outage(Dur::from_secs(10), Dur::from_secs(5))
            .with_bandwidth_fade(Dur::from_secs(20), Dur::from_secs(5), 1.0)
            .with_server_outage(Dur::from_secs(30), Dur::from_secs(5))
            .with_disk_storm(Dur::from_secs(40), 4, Dur::from_secs(2), 65_536)
            .with_profile_fault(Dur::from_secs(50), ProfileFaultMode::Corrupt)
            .with_silent_link_outage(Dur::from_secs(60), Dur::from_secs(5))
            .with_bandwidth_step(Dur::from_secs(70), 2.0);
        assert_eq!(plan.faults.len(), 7);
        assert!(plan.validate().is_ok());
        let labels: Vec<&str> = plan.faults.iter().map(|f| f.label()).collect();
        assert_eq!(
            labels,
            [
                "link_outage",
                "bandwidth_fade",
                "server_outage",
                "disk_storm",
                "profile_fault",
                "link_outage",
                "bandwidth_step"
            ]
        );
        assert_eq!(
            plan.faults[5],
            Fault::LinkOutage {
                at: Dur::from_secs(60),
                dur: Dur::from_secs(5),
                silent: true
            }
        );
    }

    #[test]
    fn validation_rejects_degenerate_faults() {
        for bad in [
            Fault::LinkOutage {
                at: Dur::ZERO,
                dur: Dur::ZERO,
                silent: false,
            },
            Fault::ServerOutage {
                at: Dur::ZERO,
                dur: Dur::ZERO,
            },
            Fault::BandwidthFade {
                at: Dur::ZERO,
                dur: Dur::from_secs(1),
                mbps: 0.0,
            },
            Fault::BandwidthFade {
                at: Dur::ZERO,
                dur: Dur::from_secs(1),
                mbps: f64::NAN,
            },
            Fault::DiskStorm {
                at: Dur::ZERO,
                touches: 0,
                gap: Dur::ZERO,
                bytes: 1,
            },
            Fault::DiskStorm {
                at: Dur::ZERO,
                touches: 1,
                gap: Dur::ZERO,
                bytes: 0,
            },
        ] {
            let plan = FaultPlan { faults: vec![bad] };
            assert!(
                matches!(plan.validate(), Err(Error::Fault(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    /// A plan holding `fault` alone is rejected because the fault ends
    /// past `SimTime::MAX`, while the same fault one step earlier is
    /// accepted.
    fn overflow_is_rejected(fault: Fault, in_range: Fault) {
        let err = FaultPlan {
            faults: vec![fault],
        }
        .validate();
        assert!(
            matches!(&err, Err(Error::Fault(m)) if m.contains("past the end")),
            "{fault:?}: {err:?}"
        );
        assert!(FaultPlan {
            faults: vec![in_range]
        }
        .validate()
        .is_ok());
    }

    const LATE: Dur = Dur(u64::MAX - 9);

    #[test]
    fn link_outage_ending_past_simulated_time_is_rejected() {
        for silent in [false, true] {
            overflow_is_rejected(
                Fault::LinkOutage {
                    at: LATE,
                    dur: Dur(10),
                    silent,
                },
                Fault::LinkOutage {
                    at: LATE,
                    dur: Dur(9),
                    silent,
                },
            );
        }
    }

    #[test]
    fn server_outage_ending_past_simulated_time_is_rejected() {
        overflow_is_rejected(
            Fault::ServerOutage {
                at: LATE,
                dur: Dur(10),
            },
            Fault::ServerOutage {
                at: LATE,
                dur: Dur(9),
            },
        );
    }

    #[test]
    fn bandwidth_fade_ending_past_simulated_time_is_rejected() {
        overflow_is_rejected(
            Fault::BandwidthFade {
                at: LATE,
                dur: Dur(10),
                mbps: 1.0,
            },
            Fault::BandwidthFade {
                at: LATE,
                dur: Dur(9),
                mbps: 1.0,
            },
        );
    }

    #[test]
    fn disk_storm_ending_past_simulated_time_is_rejected() {
        let storm = |touches, gap| Fault::DiskStorm {
            at: LATE,
            touches,
            gap: Dur(gap),
            bytes: 4096,
        };
        // Touches at LATE, LATE + 5 and LATE + 10: the last overflows.
        overflow_is_rejected(storm(3, 5), storm(2, 9));
        // The gap times the touch count alone overflows.
        overflow_is_rejected(
            Fault::DiskStorm {
                at: Dur::ZERO,
                touches: 3,
                gap: Dur(u64::MAX / 2 + 1),
                bytes: 4096,
            },
            storm(1, u64::MAX),
        );
    }

    #[test]
    fn bandwidth_step_is_validated_by_rate() {
        let step = |mbps| FaultPlan::none().with_bandwidth_step(Dur(u64::MAX), mbps);
        assert!(step(1.0).validate().is_ok(), "an instant cannot overflow");
        for mbps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(step(mbps).validate(), Err(Error::Fault(_))),
                "{mbps} Mbit/s"
            );
        }
    }

    /// A rate below the floor saturates `transfer_time` and wraps the
    /// WNIC clock, so both scheduled-rate faults refuse it by name.
    #[test]
    fn scheduled_rates_below_the_link_floor_are_rejected() {
        let floor = BytesPerSec::MIN_LINK_MBIT;
        let step = |mbps| FaultPlan::none().with_bandwidth_step(Dur::ZERO, mbps);
        let fade = |mbps| FaultPlan::none().with_bandwidth_fade(Dur::ZERO, Dur::from_secs(1), mbps);
        for mbps in [1e-300, 1e-12, floor / 2.0] {
            for (kind, plan) in [("step", step(mbps)), ("fade", fade(mbps))] {
                match plan.validate() {
                    Err(Error::Fault(msg)) => {
                        assert!(msg.contains("at least 0.001 Mbit/s"), "{msg}")
                    }
                    other => panic!("{kind} to {mbps} Mbit/s: {other:?}"),
                }
            }
        }
        assert!(step(floor).validate().is_ok());
        assert!(fade(floor).validate().is_ok());
    }

    #[test]
    fn retry_policy_validates_and_bounds_the_ladder() {
        assert!(RetryPolicy::default().validate().is_ok());
        assert!(RetryPolicy {
            timeout: Dur::ZERO,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            max_retries: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            max_retries: 17,
            ..Default::default()
        }
        .validate()
        .is_err());
        // Default ladder: 4×2 s timeouts + 0.5+1+2+4 s backoffs = 15.5 s.
        assert_eq!(
            RetryPolicy::default().ladder(),
            Some(Dur::from_millis(15_500))
        );
        // Past the 16 attempts `validate` allows, the doubling is still
        // exact: 64 one-microsecond backoffs sum to 2^64 - 1 µs, exactly
        // `u64::MAX`, and a 65th shifts past the u64 width. Neither
        // panics nor wraps.
        let tiny = RetryPolicy {
            timeout: Dur::ZERO,
            backoff: Dur(1),
            max_retries: 64,
        };
        assert_eq!(tiny.ladder(), Some(Dur(u64::MAX)));
        assert_eq!(tiny.backoff_at(64), None);
        let longer = RetryPolicy {
            max_retries: 65,
            ..tiny
        };
        assert_eq!(longer.ladder(), None);
    }

    #[test]
    fn overflowing_retry_ladder_is_rejected() {
        // 4 × 1 s timeouts + 15 backoffs of u64::MAX / 4 µs each.
        let huge = RetryPolicy {
            timeout: Dur::from_secs(1),
            backoff: Dur::from_micros(u64::MAX / 4),
            max_retries: 4,
        };
        assert!(
            matches!(&huge.validate(), Err(Error::Fault(m)) if m.contains("overflows")),
            "{:?}",
            huge.validate()
        );
        assert_eq!(huge.ladder(), None, "overflows, never panics");
        // The largest backoff whose ladder still fits is accepted, and
        // one microsecond more is not.
        let widest = (u64::MAX - 4_000_000) / 15;
        let fits = RetryPolicy {
            backoff: Dur(widest),
            ..huge
        };
        assert!(fits.validate().is_ok());
        assert_eq!(fits.ladder(), Some(Dur(4_000_000 + 15 * widest)));
        let over = RetryPolicy {
            backoff: Dur(widest + 1),
            ..huge
        };
        assert!(matches!(over.validate(), Err(Error::Fault(_))));
    }

    /// Every (state, event) pair of the server-path machine: whether it
    /// is accepted, the state it leaves, and the label it records.
    #[test]
    fn server_path_machine_table() {
        use ServerPathEvent::{LadderExhausted, OutageEnd, OutageStart};
        use ServerPathState::{Down, Healthy, MarkedDead};
        let s = SimTime::from_secs;
        let (until, dead, later) = (s(100), s(50), s(200));
        let early = s(99);
        #[rustfmt::skip]
        let table = [
            // (state, at, event, accepted, next, label)
            (Healthy, early, OutageStart(later), true, Down(later), Some("down")),
            (Healthy, early, OutageEnd, false, Healthy, None),
            (Healthy, until, OutageEnd, false, Healthy, None),
            (Healthy, early, LadderExhausted, false, Healthy, None),
            (Down(until), early, OutageStart(later), true, Down(later), None),
            (Down(until), early, OutageEnd, false, Down(until), None),
            (Down(until), until, OutageEnd, true, Healthy, Some("healthy")),
            (Down(until), early, LadderExhausted, true, MarkedDead(until, until), Some("dead")),
            (MarkedDead(until, dead), early, OutageStart(later), true, MarkedDead(later, dead), None),
            (MarkedDead(until, dead), early, OutageEnd, false, MarkedDead(until, dead), None),
            (MarkedDead(until, dead), until, OutageEnd, true, Healthy, Some("healthy")),
            (MarkedDead(until, dead), early, LadderExhausted, true, MarkedDead(until, until), None),
        ];
        for (state, at, ev, accepted, next, label) in table {
            let mut path = ServerPath { state };
            let step = path.apply(at, ev);
            let case = format!("{state:?} + {ev:?} at {at}");
            assert_eq!(step != Step::Stale, accepted, "{case}: accepted");
            assert_eq!(path.state, next, "{case}: next state");
            let entered = match step {
                Step::Entered(l) => Some(l),
                Step::Stale | Step::Stayed => None,
            };
            assert_eq!(entered, label, "{case}: label");
        }
        // An earlier extension never shortens the window.
        let mut path = ServerPath { state: Down(until) };
        assert_eq!(path.apply(early, OutageStart(dead)), Step::Stayed);
        assert_eq!(path.state, Down(until));
    }

    #[test]
    fn seeded_plans_are_reproducible_and_valid() {
        let span = Dur::from_secs(120);
        for seed in 0..50 {
            let a = FaultPlan::seeded(seed, span);
            let b = FaultPlan::seeded(seed, span);
            assert_eq!(a, b, "seed {seed} must reproduce");
            assert!(a.validate().is_ok(), "seed {seed} must be valid");
            assert!((2..=5).contains(&a.faults.len()), "seed {seed}");
            for f in &a.faults {
                assert!(f.at() <= span, "seed {seed}: fault after span");
            }
        }
        assert_ne!(
            FaultPlan::seeded(1, span),
            FaultPlan::seeded(2, span),
            "different seeds should differ"
        );
    }

    #[test]
    fn stale_profile_is_empty_and_corrupt_is_sparse() {
        let mut trace = ff_trace::Trace::new("t");
        trace.files.insert(ff_trace::FileMeta {
            id: ff_trace::FileId(7),
            name: "big".into(),
            size: Bytes::mib(10),
        });
        trace.records.push(ff_trace::TraceRecord {
            pid: 1,
            pgid: 1,
            file: ff_trace::FileId(7),
            op: IoOp::Read,
            offset: 0,
            len: Bytes(4096),
            ts: SimTime::ZERO,
            dur: Dur::from_millis(1),
        });
        let stale = injected_profile(ProfileFaultMode::Stale, &trace);
        assert!(stale.is_empty());
        let corrupt = injected_profile(ProfileFaultMode::Corrupt, &trace);
        assert!(corrupt.len() >= 10, "corrupt profile must claim a trickle");
        for b in &corrupt.bursts {
            assert_eq!(b.burst.requests[0].file, ff_trace::FileId(7));
            assert!(b.burst.requests[0].len <= Bytes(65_536));
            assert_eq!(b.gap_after, Dur::from_secs(6));
        }
        // An empty trace degrades to an empty profile, not a panic.
        let none = injected_profile(ProfileFaultMode::Corrupt, &ff_trace::Trace::new("e"));
        assert!(none.is_empty());
    }
}
