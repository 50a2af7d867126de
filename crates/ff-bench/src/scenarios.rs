//! The five workload scenarios of §3.3.
//!
//! Each scenario bundles the replayed trace, the profile FlexFetch would
//! have recorded in a *prior* run (generated with a different seed — a
//! different execution of the same program, as §2.2 assumes), and any
//! disk-pinned files.

use ff_base::{prior_run_seed, Dur, Result};
use ff_profile::{Profile, Profiler};
use ff_sim::SimConfig;
use ff_trace::{Acroread, FileId, Grep, Make, Mplayer, Thunderbird, Trace, Workload, Xmms};

/// A ready-to-simulate experiment setup.
pub struct Scenario {
    /// Scenario name (figure caption).
    pub name: &'static str,
    /// The trace replayed in the experiment.
    pub trace: Trace,
    /// The prior-run profile FlexFetch starts from.
    pub profile: Profile,
    /// Files that exist only on the local disk (Fig. 4's xmms library).
    pub pinned: Vec<FileId>,
}

impl Scenario {
    /// Apply the scenario's pinned files to a config.
    pub fn configure(&self, cfg: SimConfig) -> SimConfig {
        cfg.with_disk_only_files(self.pinned.iter().copied())
    }

    /// §3.3.1 — the programming scenario: grep over the kernel tree, then
    /// a kernel build. Fails only if the workloads' inode namespaces ever
    /// overlap (a workload-generator bug).
    pub fn grep_make(seed: u64) -> Result<Scenario> {
        let build = |s: u64| -> Result<Trace> {
            let grep = Grep::default().build(s);
            let make = Make::default().build(s);
            grep.concat(&make, Dur::from_secs(2))
        };
        let trace = build(seed)?;
        // The profile comes from a previous execution: same program,
        // different run (seed), same shape.
        let profile = Profiler::standard().profile(&build(prior_run_seed(seed))?);
        Ok(Scenario {
            name: "grep+make",
            trace,
            profile,
            pinned: Vec::new(),
        })
    }

    /// §3.3.2 — the media-streaming scenario.
    pub fn mplayer(seed: u64) -> Result<Scenario> {
        let trace = Mplayer::default().build(seed);
        let profile = Profiler::standard().profile(&Mplayer::default().build(prior_run_seed(seed)));
        Ok(Scenario {
            name: "mplayer",
            trace,
            profile,
            pinned: Vec::new(),
        })
    }

    /// §3.3.3 — the email search scenario.
    pub fn thunderbird(seed: u64) -> Result<Scenario> {
        let trace = Thunderbird::default().build(seed);
        let profile =
            Profiler::standard().profile(&Thunderbird::default().build(prior_run_seed(seed)));
        Ok(Scenario {
            name: "thunderbird",
            trace,
            profile,
            pinned: Vec::new(),
        })
    }

    /// §3.3.4 — grep+make with xmms running concurrently; the MP3 library
    /// exists only on the local disk, forcing it to spin.
    pub fn grep_make_xmms(seed: u64) -> Result<Scenario> {
        let gm = Scenario::grep_make(seed)?;
        // Play music for the whole programming session.
        let span = gm.trace.stats().span + Dur::from_secs(30);
        let xmms = Xmms {
            play_limit: Some(span),
            ..Xmms::default()
        }
        .build(seed);
        let pinned: Vec<FileId> = xmms.files.iter().map(|f| f.id).collect();
        let trace = gm.trace.merge(&xmms)?;
        Ok(Scenario {
            name: "grep+make||xmms",
            trace,
            profile: gm.profile,
            pinned,
        })
    }

    /// §3.3.5 — Acroread searching 20 MB PDFs every 10 s, driven by an
    /// out-of-date profile recorded over 2 MB PDFs read every 25 s.
    pub fn acroread_invalid(seed: u64) -> Result<Scenario> {
        let trace = Acroread::large_search().build(seed);
        let profile =
            Profiler::standard().profile(&Acroread::small_profile().build(prior_run_seed(seed)));
        Ok(Scenario {
            name: "acroread",
            trace,
            profile,
            pinned: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grep_make_scenario_is_consistent() {
        let s = Scenario::grep_make(1).unwrap();
        s.trace.validate().unwrap();
        assert!(!s.profile.is_empty());
        assert!(s.pinned.is_empty());
        // Profile differs from the replayed trace (different run) but has
        // the same order of magnitude of data.
        let replay = s.trace.total_bytes().get() as f64;
        let prof = s.profile.total_bytes().get() as f64;
        assert!((replay / prof - 1.0).abs() < 0.2);
    }

    #[test]
    fn xmms_scenario_pins_the_library() {
        let s = Scenario::grep_make_xmms(1).unwrap();
        s.trace.validate().unwrap();
        assert_eq!(s.pinned.len(), 116);
        // Pinned files must actually appear in the merged trace.
        assert!(s.trace.records.iter().any(|r| s.pinned.contains(&r.file)));
        // The profile covers only grep+make, not xmms.
        assert_eq!(s.profile.app, "grep+make");
    }

    #[test]
    fn acroread_profile_mismatch_is_real() {
        let s = Scenario::acroread_invalid(1).unwrap();
        // Current run requests 10× the profiled bytes (20 MB vs 2 MB files).
        let ratio = s.trace.total_bytes().get() as f64 / s.profile.total_bytes().get() as f64;
        assert!((ratio - 10.0).abs() < 0.5, "ratio {ratio}");
    }
}
