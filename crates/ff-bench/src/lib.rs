//! # ff-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§3)
//! through one driver, `ffbench` (`cargo run --release -p ff-bench
//! --bin ffbench -- <command>`):
//!
//! | Command | Reproduces |
//! |---|---|
//! | `tables` | Tables 1–3 (device constants, workload inventory) |
//! | `fig1` | Fig. 1(a)/(b) — grep+make energy vs WNIC latency / bandwidth |
//! | `fig2` | Fig. 2(a)/(b) — mplayer |
//! | `fig3` | Fig. 3(a)/(b) — Thunderbird |
//! | `fig4` | Fig. 4(a)/(b) — grep+make ∥ xmms (forced spin-up) |
//! | `fig5` | Fig. 5(a)/(b) — Acroread with an invalid profile |
//! | `ablation` | design-knob studies (stage length, loss rate, …) |
//! | `benchsim`, `benchfaults`, `benchpar` | the benchmark matrices in `bench/` |
//! | `all` | every committed deterministic artifact, rewritten in place |
//!
//! `ffbench list` names the rest. Each figure prints its series as an
//! aligned table and a CSV block, so results can be diffed against
//! EXPERIMENTS.md.

pub mod faults;
pub mod grid;
pub mod observe;
pub mod pool;
pub mod scenarios;
pub mod svg;
pub mod sweep;

pub use faults::{
    cell_json, check_invariants, fault_matrix, fault_plan, fault_run, FaultCell, FAULT_SCENARIOS,
};
pub use grid::{sim_matrix_json, Grid, GridCell, SimCell};
pub use pool::{default_jobs, resolve_jobs, run_ordered};
pub use scenarios::Scenario;
pub use svg::{line_chart, rows_to_series};
pub use sweep::{
    bandwidth_sweep, latency_sweep, standard_policies, write_csv, write_table, Row,
    BANDWIDTHS_MBPS, LATENCIES_MS,
};
