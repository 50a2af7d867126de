//! The four workloads and the cells they replay.
//!
//! A cell is one (trace, config, policy) triple. Each workload picks its
//! cells so that one layer dominates host time, or so that a layer is
//! used in a way the other workloads do not use it:
//!
//! | workload | layer stressed | bypassed |
//! |---|---|---|
//! | `adaptive` | FlexFetch `observe`/`select` | — |
//! | `reactive` | `BufferCache::read` | FlexFetch entirely |
//! | `write-mix` | cache write / dirty eviction, flash, write-back | adaptive planning |
//! | `fault-storm` | `on_fault`, `inject_profile`, retry ladder | — |

use ff_base::{derive_seed, Error, Result};
use ff_bench::observe::{build_policy, build_workload};
use ff_cache::CacheConfig;
use ff_policy::PolicyKind;
use ff_profile::Profiler;
use ff_sim::SimConfig;
use ff_trace::Trace;
use std::time::Instant;

/// Workload names in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["adaptive", "reactive", "write-mix", "fault-storm"];

/// How a cell's `SimConfig` departs from the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Setting {
    Default,
    /// 16 MiB page cache, write sync to the server, 64 MB flash tier.
    WriteMix,
    /// The chaos matrix's `everything` scenario scaled to the trace.
    FaultStorm,
}

/// One workload: its cells and the tail percentile it reports.
pub struct WorkloadSpec {
    /// Tail percentile reported as `pass_ms_p90`, in percent: p90 where
    /// the default run length gives about 100 passes, p80 where it gives
    /// about 60. Timed passes continue until ten lie beyond it.
    pub tail_pct: u32,
    specs: Vec<(&'static str, &'static str, Setting)>,
}

/// Resolve a workload name.
pub fn spec(name: &str) -> Result<WorkloadSpec> {
    let cross = |apps: &[&'static str], policies: &[&'static str], s: Setting| {
        let mut out = Vec::new();
        for &app in apps {
            for &policy in policies {
                out.push((app, policy, s));
            }
        }
        out
    };
    let (tail_pct, specs) = match name {
        "adaptive" => (
            80,
            cross(
                &["make", "xmms", "mplayer", "thunderbird"],
                &["flexfetch"],
                Setting::Default,
            ),
        ),
        "reactive" => (
            90,
            cross(
                &["thunderbird", "acroread"],
                &["disk", "wnic", "bluefs"],
                Setting::Default,
            ),
        ),
        "write-mix" => (
            80,
            cross(
                &["make"],
                &["disk", "wnic", "bluefs", "flexfetch-static"],
                Setting::WriteMix,
            ),
        ),
        "fault-storm" => (
            90,
            cross(
                &["make", "xmms", "acroread"],
                &["bluefs", "flexfetch"],
                Setting::FaultStorm,
            ),
        ),
        other => {
            return Err(Error::Config(format!(
                "unknown workload '{other}' (expected one of {})",
                WORKLOADS.join(", ")
            )))
        }
    };
    Ok(WorkloadSpec { tail_pct, specs })
}

/// Input sets built from one `--seed`. Timed passes take the sets in
/// turn, so a run's medians average over ten traces per application
/// instead of resting on one: the work in a `reactive` pass moves by up
/// to ±9% from one trace seed to the next.
pub const SEED_SETS: usize = 10;

/// The trace seed of input set `set`. Set 0 uses `seed` itself, so at
/// seed 42 its cells are the `benchsim` cells of `bench/BENCH_sim.json`.
pub fn set_seed(seed: u64, set: usize) -> u64 {
    if set == 0 {
        seed
    } else {
        // Halved so that `seed + 1`, the prior run's seed, cannot wrap.
        derive_seed(seed, &format!("benchhot/set{set}")) >> 1
    }
}

/// One built cell, ready to replay any number of times.
pub struct Cell {
    /// `"app/policy@set"`, the key `expected.json` uses.
    pub key: String,
    /// The trace seed (see [`set_seed`]).
    pub seed: u64,
    /// The application trace replayed.
    pub trace: Trace,
    /// The run's configuration.
    pub config: SimConfig,
    /// The policy recipe; built afresh for every run.
    pub kind: PolicyKind,
    /// Evaluation stages of the prior-run profile (0 without one).
    pub profile_stages: usize,
}

/// Host time spent building inputs, split by the layer that did it.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    /// Trace generation (`ff-trace`), the prior-run trace included.
    pub trace_ns: u64,
    /// The policy inputs: profiling the prior run (`ff-profile`) for
    /// FlexFetch, the bare recipe for the other policies.
    pub profile_ns: u64,
    /// Everything: traces, profiles, policy recipes and configs.
    pub total_ns: u64,
}

fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl WorkloadSpec {
    /// Build every input set's cells from `seed`, set by set.
    pub fn build(&self, seed: u64) -> Result<(Vec<Vec<Cell>>, BuildTimes)> {
        let mut times = BuildTimes::default();
        let start = Instant::now();
        let mut sets = Vec::with_capacity(SEED_SETS);
        for set in 0..SEED_SETS {
            sets.push(self.build_set(set, set_seed(seed, set), &mut times)?);
        }
        times.total_ns = ns_since(start);
        Ok((sets, times))
    }

    fn build_set(&self, set: usize, seed: u64, times: &mut BuildTimes) -> Result<Vec<Cell>> {
        let mut cells = Vec::with_capacity(self.specs.len());
        for &(app, policy, setting) in &self.specs {
            let t0 = Instant::now();
            let trace = build_workload(app, seed)?;
            times.trace_ns += ns_since(t0);
            // The FlexFetch recipes are `build_policy`'s, split so that
            // trace generation and profiling are timed apart.
            let (kind, profile_stages) = match policy {
                "flexfetch" | "flexfetch-static" => {
                    let t0 = Instant::now();
                    let prior = build_workload(app, seed + 1)?;
                    times.trace_ns += ns_since(t0);
                    let t0 = Instant::now();
                    let profile = Profiler::standard().profile(&prior);
                    times.profile_ns += ns_since(t0);
                    let stages = profile.stages(SimConfig::default().stage_len).len();
                    let kind = if policy == "flexfetch" {
                        PolicyKind::flexfetch(profile)
                    } else {
                        PolicyKind::flexfetch_static(profile)
                    };
                    (kind, stages)
                }
                _ => {
                    let t0 = Instant::now();
                    let kind = build_policy(policy, app, seed)?;
                    times.profile_ns += ns_since(t0);
                    (kind, 0)
                }
            };
            let config = match setting {
                Setting::Default => SimConfig::default(),
                Setting::WriteMix => SimConfig {
                    cache: CacheConfig {
                        capacity_pages: 4096,
                        ..CacheConfig::default()
                    },
                    ..SimConfig::default()
                }
                .with_sync_writes()
                .with_flash_mb(64),
                Setting::FaultStorm => SimConfig::default()
                    .with_faults(ff_bench::fault_plan("everything", trace.stats().span)?),
            };
            cells.push(Cell {
                key: format!("{app}/{policy}@{set}"),
                seed,
                trace,
                config,
                kind,
                profile_stages,
            });
        }
        Ok(cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_flexfetch_recipe_matches_build_policy() {
        let (sets, _) = spec("write-mix").unwrap().build(42).unwrap();
        let cell = sets[1]
            .iter()
            .find(|c| c.key == "make/flexfetch-static@1")
            .unwrap();
        let reference = build_policy("flexfetch-static", "make", set_seed(42, 1)).unwrap();
        match (&cell.kind, &reference) {
            (
                PolicyKind::FlexFetch { profile, config },
                PolicyKind::FlexFetch {
                    profile: p2,
                    config: c2,
                },
            ) => {
                assert_eq!(profile, p2);
                assert_eq!(config.adaptive, c2.adaptive);
            }
            _ => panic!("expected FlexFetch recipes"),
        }
        assert!(cell.profile_stages > 0);
    }

    #[test]
    fn input_sets_have_distinct_seeds_and_set_zero_is_the_seed() {
        let mut seeds: Vec<u64> = (0..SEED_SETS).map(|s| set_seed(42, s)).collect();
        assert_eq!(seeds[0], 42);
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), SEED_SETS);
    }

    #[test]
    fn every_workload_resolves_and_unknown_names_fail() {
        let cells: usize = WORKLOADS.iter().map(|w| spec(w).unwrap().specs.len()).sum();
        assert_eq!(cells, 4 + 6 + 4 + 6);
        assert!(spec("nethack").is_err());
    }
}
