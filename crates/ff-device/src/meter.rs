//! Per-state time and energy accounting.

use ff_base::{Dur, Joules, SimTime, Watts};
use std::collections::BTreeMap;

/// One timestamped entry of the optional state-change log — the input
/// to the simulator's observability recorder (`ff-sim`'s `Recorder`).
///
/// Two kinds of entry share the struct: *state entries* (`transition ==
/// false`, the device started dwelling in `state` at `at`) and
/// *transition markers* (`transition == true`, a named one-shot
/// transition such as `spin_up` fired at `at`, costing `energy`).
///
/// ```
/// use ff_base::{Dur, Joules, SimTime, Watts};
/// use ff_device::StateMeter;
///
/// let mut m = StateMeter::new();
/// m.enable_state_log(SimTime::ZERO);
/// m.dwell("idle", Watts(1.6), Dur::from_secs(20));
/// m.transition("spin_down", Joules(2.94));
/// m.dwell("standby", Watts(0.15), Dur::from_secs(5));
/// let changes = m.take_state_changes();
/// assert_eq!(changes.len(), 3);
/// assert_eq!(changes[1].state, "spin_down");
/// assert!(changes[1].transition);
/// assert_eq!(changes[2].at, SimTime::from_secs(20));
/// // A second take returns only what happened since.
/// assert!(m.take_state_changes().is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateChange {
    /// Simulated instant of the change.
    pub at: SimTime,
    /// State entered, or transition name (`spin_up`, `cam_to_psm`, …).
    pub state: &'static str,
    /// True for one-shot transition markers, false for state entries.
    pub transition: bool,
    /// Lump-sum transition energy (zero for state entries).
    pub energy: Joules,
}

/// Internal bookkeeping for the state-change log.
#[derive(Debug, Clone, Default)]
struct StateLog {
    /// Simulated time covered by dwells so far (the log's clock).
    cursor: Dur,
    /// Simulated instant recording started (dwell time is relative
    /// to it).
    base: SimTime,
    /// Last dwell state seen, to log only the *changes*.
    last: Option<&'static str>,
    /// Entries not yet drained by `take_state_changes`.
    pending: Vec<StateChange>,
}

/// Accumulates residency time and energy per named device state, plus
/// counted one-shot transition energies (spin-ups, mode switches).
///
/// Keys are `&'static str` state names so the meter is shared between
/// the two device types and prints uniformly in reports.
#[derive(Debug, Clone, Default)]
pub struct StateMeter {
    residency: BTreeMap<&'static str, (Dur, Joules)>,
    transitions: BTreeMap<&'static str, (u64, Joules)>,
    total: Joules,
    /// Timestamped state-change log (None = disabled, the default — the
    /// zero-cost-when-off path the recorder relies on).
    state_log: Option<StateLog>,
}

impl StateMeter {
    /// Fresh meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start recording timestamped [`StateChange`] entries. `base` must
    /// be the device's current simulated clock: subsequent dwell time is
    /// accumulated on top of it to stamp each change. Idempotent.
    pub fn enable_state_log(&mut self, base: SimTime) {
        if self.state_log.is_none() {
            self.state_log = Some(StateLog {
                base,
                ..StateLog::default()
            });
        }
    }

    /// Drain the state changes recorded since the last drain (empty when
    /// the log is disabled). The simulator pulls this after every
    /// discrete event and forwards the entries to its recorder.
    pub fn take_state_changes(&mut self) -> Vec<StateChange> {
        match &mut self.state_log {
            Some(log) => std::mem::take(&mut log.pending),
            None => Vec::new(),
        }
    }

    /// Account `d` spent in `state` drawing `power`.
    pub fn dwell(&mut self, state: &'static str, power: Watts, d: Dur) {
        if d.is_zero() {
            return;
        }
        if let Some(slog) = &mut self.state_log {
            if slog.last != Some(state) {
                slog.pending.push(StateChange {
                    at: slog.base + slog.cursor,
                    state,
                    transition: false,
                    energy: Joules::ZERO,
                });
                slog.last = Some(state);
            }
            slog.cursor += d;
        }
        let e = power * d;
        let entry = self
            .residency
            .entry(state)
            .or_insert((Dur::ZERO, Joules::ZERO));
        entry.0 += d;
        entry.1 += e;
        self.total += e;
    }

    /// Account a one-shot transition (e.g. a spin-up) costing `energy`.
    pub fn transition(&mut self, name: &'static str, energy: Joules) {
        if let Some(slog) = &mut self.state_log {
            slog.pending.push(StateChange {
                at: slog.base + slog.cursor,
                state: name,
                transition: true,
                energy,
            });
        }
        let entry = self.transitions.entry(name).or_insert((0, Joules::ZERO));
        entry.0 += 1;
        entry.1 += energy;
        self.total += energy;
    }

    /// Total energy accounted.
    pub fn total(&self) -> Joules {
        self.total
    }

    /// Time spent in `state` so far.
    pub fn time_in(&self, state: &str) -> Dur {
        self.residency
            .get(state)
            .map(|&(d, _)| d)
            .unwrap_or(Dur::ZERO)
    }

    /// Number of `name` transitions so far.
    pub fn transition_count(&self, name: &str) -> u64 {
        self.transitions.get(name).map(|&(n, _)| n).unwrap_or(0)
    }

    /// Iterate state residencies in name order.
    pub fn residencies(&self) -> impl Iterator<Item = (&'static str, Dur, Joules)> + '_ {
        self.residency.iter().map(|(&k, &(d, e))| (k, d, e))
    }

    /// Iterate transition tallies in name order.
    pub fn transitions(&self) -> impl Iterator<Item = (&'static str, u64, Joules)> + '_ {
        self.transitions.iter().map(|(&k, &(n, e))| (k, n, e))
    }

    /// Zero everything (reuse the device across stages/experiments).
    /// The state-change log keeps its clock (simulated time continues)
    /// but drops undrained entries.
    pub fn reset(&mut self) {
        self.residency.clear();
        self.transitions.clear();
        self.total = Joules::ZERO;
        if let Some(slog) = &mut self.state_log {
            slog.pending.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dwell_accumulates_time_and_energy() {
        let mut m = StateMeter::new();
        m.dwell("idle", Watts(1.6), Dur::from_secs(10));
        m.dwell("idle", Watts(1.6), Dur::from_secs(5));
        assert_eq!(m.time_in("idle"), Dur::from_secs(15));
        let residencies: Vec<_> = m.residencies().collect();
        assert_eq!(residencies.len(), 1);
        assert!((residencies[0].2.get() - 24.0).abs() < 1e-9);
        assert!((m.total().get() - 24.0).abs() < 1e-9);
    }

    #[test]
    fn zero_dwell_is_free() {
        let mut m = StateMeter::new();
        m.dwell("idle", Watts(1.6), Dur::ZERO);
        assert_eq!(m.total(), Joules::ZERO);
        assert_eq!(m.residencies().count(), 0);
    }

    #[test]
    fn transitions_count_and_cost() {
        let mut m = StateMeter::new();
        m.transition("spin_up", Joules(5.0));
        m.transition("spin_up", Joules(5.0));
        m.transition("spin_down", Joules(2.94));
        assert_eq!(m.transition_count("spin_up"), 2);
        let spin_up = m.transitions().find(|&(name, ..)| name == "spin_up");
        assert!(spin_up.is_some_and(|(_, n, e)| n == 2 && (e.get() - 10.0).abs() < 1e-12));
        assert!((m.total().get() - 12.94).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = StateMeter::new();
        m.dwell("active", Watts(2.0), Dur::from_secs(1));
        m.transition("spin_up", Joules(5.0));
        m.reset();
        assert_eq!(m.total(), Joules::ZERO);
        assert_eq!(m.time_in("active"), Dur::ZERO);
        assert_eq!(m.transition_count("spin_up"), 0);
    }

    #[test]
    fn state_log_stamps_changes_and_drains_incrementally() {
        let mut m = StateMeter::new();
        m.enable_state_log(SimTime::from_secs(10));
        m.dwell("idle", Watts(1.6), Dur::from_secs(20));
        m.dwell("idle", Watts(1.6), Dur::from_secs(5)); // same state: no entry
        m.transition("spin_down", Joules(2.94));
        m.dwell("spinning_down", Watts::ZERO, Dur::from_millis(2_300));
        let first = m.take_state_changes();
        assert_eq!(first.len(), 3);
        assert_eq!(
            (first[0].at, first[0].state, first[0].transition),
            (SimTime::from_secs(10), "idle", false)
        );
        assert_eq!(
            (first[1].at, first[1].state, first[1].transition),
            (SimTime::from_secs(35), "spin_down", true)
        );
        assert_eq!(first[1].energy, Joules(2.94));
        assert_eq!(first[2].state, "spinning_down");
        // Incremental drain: later activity shows up in the next take.
        m.dwell("standby", Watts(0.15), Dur::from_secs(1));
        let second = m.take_state_changes();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].state, "standby");
        assert_eq!(
            second[0].at,
            SimTime::from_secs(35) + Dur::from_millis(2_300)
        );
    }

    #[test]
    fn state_log_disabled_is_free_and_empty() {
        let mut m = StateMeter::new();
        m.dwell("idle", Watts(1.6), Dur::from_secs(1));
        m.transition("spin_up", Joules(5.0));
        assert!(m.take_state_changes().is_empty());
    }

    #[test]
    fn unknown_keys_read_as_zero() {
        let m = StateMeter::new();
        assert_eq!(m.time_in("nope"), Dur::ZERO);
        assert_eq!(m.transition_count("nope"), 0);
    }
}
