//! Structured event tracing — the observability layer.
//!
//! The paper's evaluation (§3) is about *explaining* energy outcomes:
//! which source each stage picked and why, when the disk spun up, what
//! the cache absorbed. This module makes every one of those mechanisms
//! inspectable. A [`Recorder`] attached via
//! [`Simulation::run_recorded`](crate::Simulation::run_recorded)
//! receives typed [`Event`]s with simulated timestamps as the replay
//! progresses; three implementations cover the common needs:
//!
//! * [`NullRecorder`] — discards everything; [`Recorder::enabled`]
//!   returns `false`, so the simulator skips event construction
//!   entirely (the zero-cost-when-disabled path).
//! * [`CountingRecorder`] — per-kind counters only, O(1) memory; the
//!   benchmark runner uses it to measure event throughput.
//! * [`EventLog`] — keeps every event and serialises to JSONL for the
//!   `observe` binary and the golden-trace tests.
//!
//! Attaching any recorder (null or not) never changes simulation
//! results: the replay path is identical, only observation differs.
//!
//! ```
//! use ff_policy::PolicyKind;
//! use ff_sim::{EventLog, SimConfig, Simulation};
//! use ff_trace::{Grep, Workload};
//!
//! let trace = Grep { files: 8, total_bytes: 400_000, ..Default::default() }.build(42);
//! let mut log = EventLog::new();
//! let report = Simulation::new(SimConfig::default(), &trace)
//!     .policy(PolicyKind::DiskOnly)
//!     .run_recorded(&mut log)
//!     .unwrap();
//! assert!(report.total_energy().get() > 0.0);
//! // Every application call surfaced as an event…
//! assert_eq!(log.count("app_call"), report.app_requests);
//! // …and the log serialises to one JSON object per line.
//! let jsonl = log.to_jsonl();
//! assert!(jsonl.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
//! ```

use ff_base::{json::Value, Bytes, Dur, Joules, SimTime};
use ff_policy::Source;
use std::collections::BTreeMap;

/// Which simulated device an [`Event::DeviceState`] /
/// [`Event::DeviceTransition`] refers to.
///
/// ```
/// use ff_sim::record::Device;
/// assert_eq!(Device::Disk.label(), "disk");
/// assert_eq!(Device::Wnic.label(), "wnic");
/// assert_eq!(Device::Flash.label(), "flash");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// The hard disk (Hitachi DK23DA model).
    Disk,
    /// The wireless NIC (Cisco Aironet 350 model).
    Wnic,
    /// The optional flash tier.
    Flash,
}

impl Device {
    /// Stable lowercase name used in the JSONL output.
    pub fn label(self) -> &'static str {
        match self {
            Device::Disk => "disk",
            Device::Wnic => "wnic",
            Device::Flash => "flash",
        }
    }
}

impl From<Source> for Device {
    /// The device a routed request lands on.
    fn from(source: Source) -> Device {
        match source {
            Source::Disk => Device::Disk,
            Source::Wnic => Device::Wnic,
        }
    }
}

/// One typed, simulated-timestamped observation from the replay engine.
///
/// Every variant carries `at`, the simulated instant it happened; the
/// JSONL encoding ([`Event::to_json`]) puts that first as `t`
/// (microseconds) followed by `ev` (the [`Event::kind`] tag) and the
/// variant's fields.
///
/// ```
/// use ff_base::SimTime;
/// use ff_sim::record::Event;
///
/// let ev = Event::StageStart { at: SimTime::from_secs(40), index: 1 };
/// assert_eq!(ev.kind(), "stage_start");
/// assert_eq!(
///     ev.to_json().to_compact(),
///     r#"{"t":40000000,"ev":"stage_start","stage":1}"#
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// An evaluation stage (§2.2, 40 s cadence) began.
    StageStart {
        /// When the stage began.
        at: SimTime,
        /// Stage ordinal (0-based).
        index: usize,
    },
    /// An evaluation stage closed; carries the stage's energy split and
    /// device-visible fetch volume (the §2.3.1 audit inputs).
    StageEnd {
        /// When the stage closed.
        at: SimTime,
        /// Stage ordinal (0-based).
        index: usize,
        /// Disk energy drawn during the stage.
        disk_energy: Joules,
        /// WNIC energy drawn during the stage.
        wnic_energy: Joules,
        /// Device bytes fetched during the stage.
        fetched: Bytes,
    },
    /// An application system call was issued to the replay engine.
    AppCall {
        /// Issue time.
        at: SimTime,
        /// File accessed (trace file-table id).
        file: u64,
        /// `"read"` or `"write"`.
        op: &'static str,
        /// Byte offset.
        offset: u64,
        /// Request length.
        len: Bytes,
    },
    /// The engine routed a device-visible request to a source, with the
    /// reason: `"policy"` (the scheme chose), `"pinned"` (§3.3.4
    /// disk-only file), `"unhoarded"` (no local copy), or
    /// `"outage-failover"` (link down, §2.3 environment change).
    Decision {
        /// Routing time.
        at: SimTime,
        /// Where the request was sent.
        source: Source,
        /// Why (stable rationale tag, see variant docs).
        rationale: &'static str,
        /// True when the request counts as external, non-profiled
        /// activity (pinned files).
        external: bool,
    },
    /// A device entered a power state (`active`, `standby`,
    /// `cam_idle`, …) — the dwell segments behind Figure 4.
    DeviceState {
        /// Entry time.
        at: SimTime,
        /// Which device.
        device: Device,
        /// State entered (the device's dwell label: `idle`, `standby`,
        /// `cam_idle`, `switching`, …).
        state: &'static str,
    },
    /// A device fired a one-shot transition (`spin_up`, `cam_to_psm`,
    /// …) with its lump energy cost.
    DeviceTransition {
        /// Transition time.
        at: SimTime,
        /// Which device.
        device: Device,
        /// Transition name.
        name: &'static str,
        /// Lump-sum transition energy.
        energy: Joules,
    },
    /// The buffer cache classified one application read.
    CacheRead {
        /// Read time.
        at: SimTime,
        /// File accessed.
        file: u64,
        /// Demand pages found resident.
        hit_pages: u64,
        /// Demand pages that missed (device I/O required).
        miss_pages: u64,
        /// Pages fetched speculatively alongside.
        readahead_pages: u64,
    },
    /// The write-back flusher pushed a non-empty batch of dirty pages.
    WritebackFlush {
        /// Flush time.
        at: SimTime,
        /// Pages written out.
        pages: u64,
    },
    /// The policy logged a source (re-)decision — FlexFetch's §2.3.1
    /// adaptation triggers (`initial:profile`, `audit:flip`, …).
    Adaptation {
        /// Decision time (as logged by the policy).
        at: SimTime,
        /// The source decided on.
        source: Source,
        /// The policy's trigger tag.
        trigger: &'static str,
    },
    /// Cumulative energy snapshot, sampled at stage boundaries — the
    /// power timeline behind the figures.
    EnergySample {
        /// Sample time.
        at: SimTime,
        /// Cumulative disk energy since t = 0.
        disk_energy: Joules,
        /// Cumulative WNIC energy since t = 0.
        wnic_energy: Joules,
        /// Cumulative flash energy (zero when no flash tier).
        flash_energy: Joules,
    },
    /// Fault injection: the wireless link lost association.
    LinkDown {
        /// When the link went down.
        at: SimTime,
        /// Scheduled end of the outage.
        until: SimTime,
    },
    /// Fault injection: the wireless link re-associated.
    LinkUp {
        /// When the link came back.
        at: SimTime,
    },
    /// The WNIC link bandwidth changed mid-run — a scripted schedule
    /// point, a fade onset, or a fade ending and restoring the old rate.
    BandwidthChange {
        /// When the rate changed.
        at: SimTime,
        /// The new link bandwidth in Mbit/s.
        mbps: f64,
    },
    /// Fault injection: the remote server stopped answering.
    ServerDown {
        /// When the server went unreachable.
        at: SimTime,
        /// Scheduled end of the outage.
        until: SimTime,
    },
    /// Fault injection: the remote server answers again.
    ServerUp {
        /// When the server came back.
        at: SimTime,
    },
    /// A network request timed out against an unresponsive server and
    /// will retry after `wait` of exponential backoff.
    RequestRetry {
        /// When the attempt timed out.
        at: SimTime,
        /// Attempt ordinal (1-based).
        attempt: u32,
        /// Backoff before the next attempt.
        wait: Dur,
    },
    /// The retry ladder was exhausted; the request was rerouted.
    Failover {
        /// When the failover happened.
        at: SimTime,
        /// Where the request went instead.
        source: Source,
        /// Why (stable tag, e.g. `"server-timeout"`).
        reason: &'static str,
    },
    /// The simulator's server-path machine changed state: the retry /
    /// backoff / failover view of the remote server moved between
    /// `"healthy"`, `"down"` (an outage is active), and `"dead"` (a
    /// request exhausted the retry ladder and later hoarded requests
    /// fail over immediately).
    ServerPathChange {
        /// When the server-path state changed.
        at: SimTime,
        /// The new state label (`"healthy"`, `"down"`, `"dead"`).
        state: &'static str,
    },
    /// A background (non-profiled) process read from the disk — a
    /// [`Fault::DiskStorm`](crate::faults::Fault::DiskStorm) touch.
    ExternalDisk {
        /// When the touch happened.
        at: SimTime,
        /// Bytes read by the background process.
        bytes: Bytes,
    },
    /// Fault injection: a replacement execution profile was handed to
    /// the policy (`"stale"` or `"corrupt"`).
    ProfileInjected {
        /// Injection time.
        at: SimTime,
        /// The [`ProfileFaultMode`](crate::faults::ProfileFaultMode) tag.
        mode: &'static str,
    },
}

impl Event {
    /// The simulated instant this event happened.
    pub fn at(&self) -> SimTime {
        match *self {
            Event::StageStart { at, .. }
            | Event::StageEnd { at, .. }
            | Event::AppCall { at, .. }
            | Event::Decision { at, .. }
            | Event::DeviceState { at, .. }
            | Event::DeviceTransition { at, .. }
            | Event::CacheRead { at, .. }
            | Event::WritebackFlush { at, .. }
            | Event::Adaptation { at, .. }
            | Event::EnergySample { at, .. }
            | Event::LinkDown { at, .. }
            | Event::LinkUp { at }
            | Event::BandwidthChange { at, .. }
            | Event::ServerDown { at, .. }
            | Event::ServerUp { at }
            | Event::RequestRetry { at, .. }
            | Event::Failover { at, .. }
            | Event::ServerPathChange { at, .. }
            | Event::ExternalDisk { at, .. }
            | Event::ProfileInjected { at, .. } => at,
        }
    }

    /// Stable snake_case tag naming the variant (the JSONL `ev` field).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::StageStart { .. } => "stage_start",
            Event::StageEnd { .. } => "stage_end",
            Event::AppCall { .. } => "app_call",
            Event::Decision { .. } => "decision",
            Event::DeviceState { .. } => "device_state",
            Event::DeviceTransition { .. } => "device_transition",
            Event::CacheRead { .. } => "cache_read",
            Event::WritebackFlush { .. } => "writeback_flush",
            Event::Adaptation { .. } => "adaptation",
            Event::EnergySample { .. } => "energy_sample",
            Event::LinkDown { .. } => "link_down",
            Event::LinkUp { .. } => "link_up",
            Event::BandwidthChange { .. } => "bandwidth_change",
            Event::ServerDown { .. } => "server_down",
            Event::ServerUp { .. } => "server_up",
            Event::RequestRetry { .. } => "request_retry",
            Event::Failover { .. } => "failover",
            Event::ServerPathChange { .. } => "server_path",
            Event::ExternalDisk { .. } => "external_disk",
            Event::ProfileInjected { .. } => "profile_injected",
        }
    }

    /// Encode as a JSON object: `t` (µs), `ev` (kind), then the
    /// variant's fields in declaration order. Deterministic — equal
    /// events encode byte-identically.
    pub fn to_json(&self) -> Value {
        let mut obj: Vec<(String, Value)> = vec![
            ("t".into(), Value::UInt(self.at().as_micros())),
            ("ev".into(), Value::Str(self.kind().into())),
        ];
        let mut push = |k: &str, v: Value| obj.push((k.into(), v));
        let uint = |n: usize| Value::UInt(u64::try_from(n).unwrap_or(u64::MAX));
        match *self {
            Event::StageStart { index, .. } => {
                push("stage", uint(index));
            }
            Event::StageEnd {
                index,
                disk_energy,
                wnic_energy,
                fetched,
                ..
            } => {
                push("stage", uint(index));
                push("disk_j", Value::Float(disk_energy.get()));
                push("wnic_j", Value::Float(wnic_energy.get()));
                push("fetched_bytes", Value::UInt(fetched.get()));
            }
            Event::AppCall {
                file,
                op,
                offset,
                len,
                ..
            } => {
                push("file", Value::UInt(file));
                push("op", Value::Str(op.into()));
                push("offset", Value::UInt(offset));
                push("len", Value::UInt(len.get()));
            }
            Event::Decision {
                source,
                rationale,
                external,
                ..
            } => {
                push("source", Value::Str(source.label().into()));
                push("why", Value::Str(rationale.into()));
                push("external", Value::Bool(external));
            }
            Event::DeviceState { device, state, .. } => {
                push("dev", Value::Str(device.label().into()));
                push("state", Value::Str(state.into()));
            }
            Event::DeviceTransition {
                device,
                name,
                energy,
                ..
            } => {
                push("dev", Value::Str(device.label().into()));
                push("name", Value::Str(name.into()));
                push("energy_j", Value::Float(energy.get()));
            }
            Event::CacheRead {
                file,
                hit_pages,
                miss_pages,
                readahead_pages,
                ..
            } => {
                push("file", Value::UInt(file));
                push("hit", Value::UInt(hit_pages));
                push("miss", Value::UInt(miss_pages));
                push("ra", Value::UInt(readahead_pages));
            }
            Event::WritebackFlush { pages, .. } => {
                push("pages", Value::UInt(pages));
            }
            Event::Adaptation {
                source, trigger, ..
            } => {
                push("source", Value::Str(source.label().into()));
                push("trigger", Value::Str(trigger.into()));
            }
            Event::EnergySample {
                disk_energy,
                wnic_energy,
                flash_energy,
                ..
            } => {
                push("disk_j", Value::Float(disk_energy.get()));
                push("wnic_j", Value::Float(wnic_energy.get()));
                push("flash_j", Value::Float(flash_energy.get()));
            }
            Event::LinkDown { until, .. } | Event::ServerDown { until, .. } => {
                push("until_us", Value::UInt(until.as_micros()));
            }
            Event::LinkUp { .. } | Event::ServerUp { .. } => {}
            Event::BandwidthChange { mbps, .. } => {
                push("mbps", Value::Float(mbps));
            }
            Event::RequestRetry { attempt, wait, .. } => {
                push("attempt", Value::UInt(u64::from(attempt)));
                push("wait_us", Value::UInt(wait.as_micros()));
            }
            Event::Failover { source, reason, .. } => {
                push("source", Value::Str(source.label().into()));
                push("why", Value::Str(reason.into()));
            }
            Event::ServerPathChange { state, .. } => {
                push("state", Value::Str(state.into()));
            }
            Event::ExternalDisk { bytes, .. } => {
                push("bytes", Value::UInt(bytes.get()));
            }
            Event::ProfileInjected { mode, .. } => {
                push("mode", Value::Str(mode.into()));
            }
        }
        Value::Object(obj)
    }
}

/// A sink for simulation [`Event`]s.
///
/// The simulator consults [`Recorder::enabled`] once per run: when it
/// returns `false` no state-change logging is switched on and no events
/// are constructed, so a disabled recorder costs nothing measurable.
/// Implementations must not influence the simulation — they only
/// observe (the contract DESIGN.md §10 spells out).
///
/// ```
/// use ff_base::SimTime;
/// use ff_sim::record::{CountingRecorder, Event, Recorder};
///
/// let mut rec = CountingRecorder::new();
/// rec.record(&Event::StageStart { at: SimTime::ZERO, index: 0 });
/// assert_eq!(rec.total(), 1);
/// ```
pub trait Recorder {
    /// Receive one event (called in replay order per subsystem).
    fn record(&mut self, event: &Event);

    /// Should the simulator emit events at all? Default `true`;
    /// [`NullRecorder`] overrides to `false`.
    fn enabled(&self) -> bool {
        true
    }
}

/// The engine's view of a recorder: `None` when the attached one is
/// disabled.
pub(crate) type Tracer<'r> = Option<&'r mut dyn Recorder>;

/// Record the event `ev` builds, only when a recorder is attached — an
/// untraced run builds no event.
pub(crate) fn emit(rec: &mut Tracer<'_>, ev: impl FnOnce() -> Event) {
    if let Some(r) = rec {
        r.record(&ev());
    }
}

/// Discards everything; the simulator skips event construction.
///
/// A run with a `NullRecorder` produces a [`crate::SimReport`] equal in
/// every field to a plain [`crate::Simulation::run`] (pinned by test).
///
/// ```
/// use ff_sim::record::{NullRecorder, Recorder};
/// assert!(!NullRecorder.enabled());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&mut self, _event: &Event) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Counts events per kind without storing them — O(1) memory however
/// long the run, which is what the `benchsim` throughput runner needs.
///
/// ```
/// use ff_base::SimTime;
/// use ff_sim::record::{CountingRecorder, Event, Recorder};
///
/// let mut rec = CountingRecorder::new();
/// rec.record(&Event::StageStart { at: SimTime::ZERO, index: 0 });
/// rec.record(&Event::WritebackFlush { at: SimTime::ZERO, pages: 3 });
/// rec.record(&Event::WritebackFlush { at: SimTime::ZERO, pages: 1 });
/// assert_eq!(rec.count("writeback_flush"), 2);
/// assert_eq!(rec.total(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CountingRecorder {
    counts: BTreeMap<&'static str, u64>,
    total: u64,
}

impl CountingRecorder {
    /// Fresh, all-zero counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Events seen of `kind` (an [`Event::kind`] tag).
    pub fn count(&self, kind: &str) -> u64 {
        self.counts.get(kind).copied().unwrap_or(0)
    }

    /// Total events seen.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// All per-kind counters, ordered by kind tag.
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }
}

impl Recorder for CountingRecorder {
    fn record(&mut self, event: &Event) {
        *self.counts.entry(event.kind()).or_insert(0) += 1;
        self.total += 1;
    }
}

/// Stores every event for post-run inspection and JSONL export.
///
/// Events arrive in replay order per subsystem but device drains can
/// trail the call that caused them, so [`EventLog::to_jsonl`] stably
/// sorts by timestamp before serialising — equal-time events keep
/// their arrival order, which makes the output deterministic.
///
/// ```
/// use ff_base::SimTime;
/// use ff_sim::record::{Event, EventLog, Recorder};
///
/// let mut log = EventLog::new();
/// log.record(&Event::WritebackFlush { at: SimTime::from_secs(5), pages: 2 });
/// log.record(&Event::StageStart { at: SimTime::ZERO, index: 0 });
/// let jsonl = log.to_jsonl();
/// let first = jsonl.lines().next().unwrap();
/// assert!(first.contains("stage_start"), "sorted by time: {first}");
/// assert_eq!(log.count("writeback_flush"), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// Fresh, empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Events recorded so far, in arrival order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of `kind` recorded so far.
    pub fn count(&self, kind: &str) -> u64 {
        self.events
            .iter()
            .filter(|e| e.kind() == kind)
            .fold(0u64, |n, _| n + 1)
    }

    /// Per-kind totals, ordered by kind tag (matches what a
    /// [`CountingRecorder`] fed the same run would hold).
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        let mut m = BTreeMap::new();
        for e in &self.events {
            *m.entry(e.kind()).or_insert(0u64) += 1;
        }
        m
    }

    /// Serialise as JSON Lines: one compact object per event, stably
    /// sorted by simulated timestamp, trailing newline included.
    pub fn to_jsonl(&self) -> String {
        let mut sorted: Vec<&Event> = self.events.iter().collect();
        sorted.sort_by_key(|e| e.at());
        let mut out = String::new();
        for e in sorted {
            out.push_str(&e.to_json().to_compact());
            out.push('\n');
        }
        out
    }
}

impl Recorder for EventLog {
    fn record(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_timestamps_are_consistent() {
        let evs = [
            Event::StageStart {
                at: SimTime::from_secs(1),
                index: 0,
            },
            Event::Decision {
                at: SimTime::from_secs(2),
                source: Source::Wnic,
                rationale: "policy",
                external: false,
            },
            Event::DeviceTransition {
                at: SimTime::from_secs(3),
                device: Device::Disk,
                name: "spin_up",
                energy: Joules(5.28),
            },
        ];
        for (ev, kind) in evs
            .iter()
            .zip(["stage_start", "decision", "device_transition"])
        {
            assert_eq!(ev.kind(), kind);
            let json = ev.to_json();
            assert_eq!(json.get("ev").and_then(|v| v.as_str()), Some(kind));
            assert_eq!(
                json.get("t").and_then(|v| v.as_u64()),
                Some(ev.at().as_micros())
            );
        }
    }

    #[test]
    fn jsonl_is_time_sorted_and_stable() {
        let mut log = EventLog::new();
        // Two equal-time events must keep arrival order.
        log.record(&Event::StageEnd {
            at: SimTime::from_secs(40),
            index: 0,
            disk_energy: Joules(1.0),
            wnic_energy: Joules(2.0),
            fetched: Bytes(4096),
        });
        log.record(&Event::StageStart {
            at: SimTime::from_secs(40),
            index: 1,
        });
        log.record(&Event::StageStart {
            at: SimTime::ZERO,
            index: 0,
        });
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains(r#""t":0"#));
        assert!(lines[1].contains("stage_end"), "stable: {}", lines[1]);
        assert!(lines[2].contains("stage_start"));
    }

    #[test]
    fn counting_matches_event_log() {
        let evs = [
            Event::WritebackFlush {
                at: SimTime::ZERO,
                pages: 1,
            },
            Event::WritebackFlush {
                at: SimTime::from_secs(5),
                pages: 2,
            },
            Event::EnergySample {
                at: SimTime::from_secs(40),
                disk_energy: Joules(1.0),
                wnic_energy: Joules(0.5),
                flash_energy: Joules::ZERO,
            },
        ];
        let mut count = CountingRecorder::new();
        let mut log = EventLog::new();
        for e in &evs {
            count.record(e);
            log.record(e);
        }
        assert_eq!(count.total(), log.len() as u64);
        assert_eq!(&log.counts(), count.counts());
    }

    #[test]
    fn null_recorder_reports_disabled() {
        let mut n = NullRecorder;
        assert!(!n.enabled());
        n.record(&Event::StageStart {
            at: SimTime::ZERO,
            index: 0,
        });
    }

    #[test]
    fn fault_events_encode_their_fields() {
        let cases: Vec<(Event, &str, &str)> = vec![
            (
                Event::LinkDown {
                    at: SimTime::from_secs(10),
                    until: SimTime::from_secs(15),
                },
                "link_down",
                r#""until_us":15000000"#,
            ),
            (
                Event::LinkUp {
                    at: SimTime::from_secs(15),
                },
                "link_up",
                r#""ev":"link_up""#,
            ),
            (
                Event::BandwidthChange {
                    at: SimTime::from_secs(20),
                    mbps: 2.0,
                },
                "bandwidth_change",
                r#""mbps":2"#,
            ),
            (
                Event::ServerDown {
                    at: SimTime::from_secs(30),
                    until: SimTime::from_secs(42),
                },
                "server_down",
                r#""until_us":42000000"#,
            ),
            (
                Event::ServerUp {
                    at: SimTime::from_secs(42),
                },
                "server_up",
                r#""ev":"server_up""#,
            ),
            (
                Event::RequestRetry {
                    at: SimTime::from_secs(31),
                    attempt: 2,
                    wait: Dur::from_millis(1000),
                },
                "request_retry",
                r#""attempt":2,"wait_us":1000000"#,
            ),
            (
                Event::Failover {
                    at: SimTime::from_secs(33),
                    source: Source::Disk,
                    reason: "server-timeout",
                },
                "failover",
                r#""source":"disk","why":"server-timeout""#,
            ),
            (
                Event::ServerPathChange {
                    at: SimTime::from_secs(33),
                    state: "dead",
                },
                "server_path",
                r#""state":"dead""#,
            ),
            (
                Event::ExternalDisk {
                    at: SimTime::from_secs(50),
                    bytes: Bytes(65_536),
                },
                "external_disk",
                r#""bytes":65536"#,
            ),
            (
                Event::ProfileInjected {
                    at: SimTime::from_secs(60),
                    mode: "corrupt",
                },
                "profile_injected",
                r#""mode":"corrupt""#,
            ),
        ];
        for (ev, kind, needle) in cases {
            assert_eq!(ev.kind(), kind);
            let text = ev.to_json().to_compact();
            assert!(text.contains(needle), "{kind}: {text}");
            assert_eq!(Value::parse(&text).expect("valid JSON"), ev.to_json());
        }
    }

    #[test]
    fn event_json_round_trips_through_the_parser() {
        let ev = Event::CacheRead {
            at: SimTime::from_secs(7),
            file: 3,
            hit_pages: 4,
            miss_pages: 1,
            readahead_pages: 8,
        };
        let text = ev.to_json().to_compact();
        let parsed = Value::parse(&text).expect("valid JSON");
        assert_eq!(parsed.get("ra").and_then(|v| v.as_u64()), Some(8));
        assert_eq!(parsed, ev.to_json());
    }
}
