//! Per-state time and energy accounting: the [`Meter`] a device model
//! books its dwells and transitions into, the live run's [`StateMeter`],
//! and the bare [`Joules`] sum what-if runs use.

use ff_base::{Dur, Joules, SimTime, Watts};
use std::collections::BTreeMap;

/// Where a device model books what it does. The model passes its own
/// clock as `at`, so the meter needs none of its own.
pub trait Meter {
    /// Book `d` spent in `state` drawing `power`, starting at `at`.
    fn dwell(&mut self, at: SimTime, state: &'static str, power: Watts, d: Dur);

    /// Book the one-shot transition `name` (a spin-up, a mode switch)
    /// fired at `at`, costing `energy`.
    fn transition(&mut self, at: SimTime, name: &'static str, energy: Joules);
}

/// The what-if meter: a bare energy sum. It adds exactly the terms
/// [`StateMeter::total`] adds, in the same order (zero dwells skipped),
/// so a copy of a model walked into a `Joules` totals bit for bit what
/// the live meter would.
impl Meter for Joules {
    fn dwell(&mut self, _at: SimTime, _state: &'static str, power: Watts, d: Dur) {
        if !d.is_zero() {
            *self += power * d;
        }
    }

    fn transition(&mut self, _at: SimTime, _name: &'static str, energy: Joules) {
        *self += energy;
    }
}

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
/// use ff_device::{Meter, StateMeter};
///
/// let mut m = StateMeter::new();
/// m.enable_state_log();
/// m.dwell(SimTime::ZERO, "idle", Watts(1.6), Dur::from_secs(20));
/// m.transition(SimTime::from_secs(20), "spin_down", Joules(2.94));
/// m.dwell(SimTime::from_secs(20), "standby", Watts(0.15), Dur::from_secs(5));
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
    /// Last dwell state seen, to log only the *changes*.
    last: Option<&'static str>,
    /// Entries not yet drained by `take_state_changes`.
    pending: Vec<StateChange>,
}

/// Accumulates residency time and energy per named device state, plus
/// counted one-shot transition energies (spin-ups, mode switches): the
/// live run's [`Meter`].
///
/// Keys are `&'static str` state names so the meter is shared between
/// the device types and prints uniformly in reports.
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

    /// Start recording timestamped [`StateChange`] entries, each stamped
    /// with the `at` of its booking. Idempotent.
    pub fn enable_state_log(&mut self) {
        self.state_log.get_or_insert_with(StateLog::default);
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
}

impl Meter for StateMeter {
    fn dwell(&mut self, at: SimTime, state: &'static str, power: Watts, d: Dur) {
        if d.is_zero() {
            return;
        }
        if let Some(slog) = &mut self.state_log {
            if slog.last != Some(state) {
                slog.pending.push(StateChange {
                    at,
                    state,
                    transition: false,
                    energy: Joules::ZERO,
                });
                slog.last = Some(state);
            }
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

    fn transition(&mut self, at: SimTime, name: &'static str, energy: Joules) {
        if let Some(slog) = &mut self.state_log {
            slog.pending.push(StateChange {
                at,
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
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime::ZERO;

    #[test]
    fn dwell_accumulates_time_and_energy() {
        let mut m = StateMeter::new();
        m.dwell(T0, "idle", Watts(1.6), Dur::from_secs(10));
        m.dwell(
            SimTime::from_secs(10),
            "idle",
            Watts(1.6),
            Dur::from_secs(5),
        );
        assert_eq!(m.time_in("idle"), Dur::from_secs(15));
        let residencies: Vec<_> = m.residencies().collect();
        assert_eq!(residencies.len(), 1);
        assert!((residencies[0].2.get() - 24.0).abs() < 1e-9);
        assert!((m.total().get() - 24.0).abs() < 1e-9);
    }

    #[test]
    fn zero_dwell_is_free() {
        let mut m = StateMeter::new();
        m.dwell(T0, "idle", Watts(1.6), Dur::ZERO);
        assert_eq!(m.total(), Joules::ZERO);
        assert_eq!(m.residencies().count(), 0);
        let mut sum = Joules::ZERO;
        sum.dwell(T0, "idle", Watts(f64::INFINITY), Dur::ZERO);
        assert_eq!(sum, Joules::ZERO);
    }

    #[test]
    fn transitions_count_and_cost() {
        let mut m = StateMeter::new();
        m.transition(T0, "spin_up", Joules(5.0));
        m.transition(T0, "spin_up", Joules(5.0));
        m.transition(T0, "spin_down", Joules(2.94));
        assert_eq!(m.transition_count("spin_up"), 2);
        let spin_up = m.transitions().find(|&(name, ..)| name == "spin_up");
        assert!(spin_up.is_some_and(|(_, n, e)| n == 2 && (e.get() - 10.0).abs() < 1e-12));
        assert!((m.total().get() - 12.94).abs() < 1e-12);
    }

    #[test]
    fn joules_sums_what_the_state_meter_totals() {
        let mut m = StateMeter::new();
        let mut sum = Joules::ZERO;
        let s = SimTime::from_millis;
        for meter in [&mut m as &mut dyn Meter, &mut sum] {
            meter.dwell(s(0), "idle", Watts(1.6), Dur::from_millis(333));
            meter.transition(s(333), "spin_down", Joules(2.94));
            meter.dwell(
                s(333),
                "spinning_down",
                Watts::ZERO,
                Dur::from_millis(2_300),
            );
            meter.dwell(s(2_633), "standby", Watts(0.15), Dur::from_millis(7));
        }
        assert_eq!(sum.get().to_bits(), m.total().get().to_bits());
    }

    #[test]
    fn state_log_stamps_changes_and_drains_incrementally() {
        let mut m = StateMeter::new();
        m.enable_state_log();
        let s = SimTime::from_secs;
        m.dwell(s(10), "idle", Watts(1.6), Dur::from_secs(20));
        m.dwell(s(30), "idle", Watts(1.6), Dur::from_secs(5)); // same state: no entry
        m.transition(s(35), "spin_down", Joules(2.94));
        m.dwell(s(35), "spinning_down", Watts::ZERO, Dur::from_millis(2_300));
        let first = m.take_state_changes();
        assert_eq!(first.len(), 3);
        assert_eq!(
            (first[0].at, first[0].state, first[0].transition),
            (s(10), "idle", false)
        );
        assert_eq!(
            (first[1].at, first[1].state, first[1].transition),
            (s(35), "spin_down", true)
        );
        assert_eq!(first[1].energy, Joules(2.94));
        assert_eq!(first[2].state, "spinning_down");
        // Incremental drain: later activity shows up in the next take.
        let standby_at = s(35) + Dur::from_millis(2_300);
        m.dwell(standby_at, "standby", Watts(0.15), Dur::from_secs(1));
        let second = m.take_state_changes();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].state, "standby");
        assert_eq!(second[0].at, standby_at);
    }

    #[test]
    fn state_log_disabled_is_free_and_empty() {
        let mut m = StateMeter::new();
        m.dwell(T0, "idle", Watts(1.6), Dur::from_secs(1));
        m.transition(SimTime::from_secs(1), "spin_up", Joules(5.0));
        assert!(m.take_state_changes().is_empty());
    }

    #[test]
    fn unknown_keys_read_as_zero() {
        let m = StateMeter::new();
        assert_eq!(m.time_in("nope"), Dur::ZERO);
        assert_eq!(m.transition_count("nope"), 0);
    }
}

/// The machine-walk tests' [`Meter`].
#[cfg(test)]
pub(crate) mod walk {
    use super::Meter;
    use ff_base::{Dur, Joules, SimTime, Watts};
    use std::collections::BTreeSet;

    /// Keeps only the path of states a device model books into: each
    /// dwell or transition is mapped to the state it is booked in by
    /// `state_of(last state, label)`, and repeats collapse.
    pub(crate) struct PathMeter {
        path: Vec<&'static str>,
        state_of: fn(&'static str, &'static str) -> &'static str,
    }

    impl PathMeter {
        /// A path that starts in the constructor's state.
        pub(crate) fn new(
            start: &'static str,
            state_of: fn(&'static str, &'static str) -> &'static str,
        ) -> Self {
            PathMeter {
                path: vec![start],
                state_of,
            }
        }

        /// The state the last booking was made in.
        pub(crate) fn last(&self) -> &'static str {
            self.path.last().copied().unwrap_or_default()
        }

        fn book(&mut self, label: &'static str) {
            let state = (self.state_of)(self.last(), label);
            if state != self.last() {
                self.path.push(state);
            }
        }

        /// Assert that every step of the path goes one state on round
        /// `cycle`, and that every state of `cycle` is left (and so
        /// entered) at least once.
        pub(crate) fn assert_cycle(&self, cycle: [&str; 4]) {
            let mut left = BTreeSet::new();
            for pair in self.path.windows(2) {
                let (from, to) = (pair[0], pair[1]);
                let next = cycle
                    .iter()
                    .position(|s| *s == from)
                    .map(|i| cycle[(i + 1) % cycle.len()]);
                assert_eq!(Some(to), next, "{from} -> {to} in {:?}", self.path);
                left.insert(from);
            }
            assert_eq!(left.len(), cycle.len(), "{:?}", self.path);
        }
    }

    impl Meter for PathMeter {
        fn dwell(&mut self, _at: SimTime, state: &'static str, _power: Watts, _d: Dur) {
            self.book(state);
        }

        fn transition(&mut self, _at: SimTime, name: &'static str, _energy: Joules) {
            self.book(name);
        }
    }
}
