//! The workload × policy × seed sweep-grid builder.
//!
//! Every batch experiment in this crate is some slice of the same cube:
//! workloads on one axis, policies on another, replication seeds on the
//! third. [`Grid`] names that cube once — canonical cell order is
//! workload-major, then policy, then seed — and [`Grid::run`] executes
//! it on the work-stealing pool ([`crate::pool`]) with results merged
//! back into canonical order, so a grid's output is byte-identical at
//! any `--jobs` setting.
//!
//! Each [`GridCell`] carries a `stream_seed` derived as
//! `derive_seed(base_seed, "workload/policy/seed")`
//! ([`ff_base::rng::derive_seed`]): a task that needs randomness beyond
//! its workload seed draws from its own stream, never from a shared RNG
//! whose consumption order would depend on scheduling. The streams are
//! pairwise non-colliding over the full grid (pinned by
//! `tests/parallel.rs`).

use crate::observe::{recorded_run, POLICIES, WORKLOADS};
use crate::pool;
use ff_base::json::Value;
use ff_base::rng::derive_seed;
use ff_base::Result;
use ff_sim::CountingRecorder;

/// One cell of a sweep grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridCell {
    /// Workload name (as accepted by [`crate::observe::build_workload`]).
    pub workload: String,
    /// Policy name (as accepted by [`crate::observe::build_policy`]).
    pub policy: String,
    /// The replication seed this cell simulates with.
    pub seed: u64,
    /// The cell's private RNG stream seed: `derive_seed(base, key)`.
    pub stream_seed: u64,
}

impl GridCell {
    /// The canonical task key: `"workload/policy/seed"`. This string is
    /// the sole input (besides the base seed) to the cell's derived RNG
    /// stream, so it must uniquely identify the cell within the grid.
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.workload, self.policy, self.seed)
    }
}

/// Builder for a workload × policy × seed grid.
///
/// ```
/// use ff_bench::grid::Grid;
///
/// let grid = Grid::new(42)
///     .workloads(["grep", "make"])
///     .policies(["disk", "wnic"])
///     .seeds([42]);
/// assert_eq!(grid.len(), 4);
///
/// // The same grid produces the same cells — and `run` merges worker
/// // results back into this canonical order at any jobs count.
/// let keys: Vec<String> = grid.cells().iter().map(|c| c.key()).collect();
/// assert_eq!(keys[0], "grep/disk/42");
/// assert_eq!(keys[3], "make/wnic/42");
///
/// let serial = grid.run(1, |cell| Ok(cell.key())).unwrap();
/// let parallel = grid.run(8, |cell| Ok(cell.key())).unwrap();
/// assert_eq!(serial, parallel);
/// ```
#[derive(Debug, Clone)]
pub struct Grid {
    base_seed: u64,
    workloads: Vec<String>,
    policies: Vec<String>,
    seeds: Vec<u64>,
}

impl Grid {
    /// An empty grid over `base_seed` (the root of every derived task
    /// stream). Populate the axes with [`Grid::workloads`],
    /// [`Grid::policies`], and [`Grid::seeds`].
    pub fn new(base_seed: u64) -> Self {
        Grid {
            base_seed,
            workloads: Vec::new(),
            policies: Vec::new(),
            seeds: Vec::new(),
        }
    }

    /// The full `benchsim` matrix: all six Table-3 workloads × all five
    /// policies, one replication at `seed`.
    pub fn sim_matrix(seed: u64) -> Self {
        Grid::new(seed)
            .workloads(WORKLOADS)
            .policies(POLICIES)
            .seeds([seed])
    }

    /// Set the workload axis.
    pub fn workloads<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.workloads = names.into_iter().map(Into::into).collect();
        self
    }

    /// Set the policy axis.
    pub fn policies<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.policies = names.into_iter().map(Into::into).collect();
        self
    }

    /// Set the replication-seed axis.
    pub fn seeds<I>(mut self, seeds: I) -> Self
    where
        I: IntoIterator<Item = u64>,
    {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Number of cells in the grid.
    pub fn len(&self) -> usize {
        self.workloads.len() * self.policies.len() * self.seeds.len()
    }

    /// True iff some axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialise the cells in canonical order: workload-major, then
    /// policy, then seed.
    pub fn cells(&self) -> Vec<GridCell> {
        let mut out = Vec::with_capacity(self.len());
        for w in &self.workloads {
            for p in &self.policies {
                for &s in &self.seeds {
                    let key = format!("{w}/{p}/{s}");
                    out.push(GridCell {
                        workload: w.clone(),
                        policy: p.clone(),
                        seed: s,
                        stream_seed: derive_seed(self.base_seed, &key),
                    });
                }
            }
        }
        out
    }

    /// Run `work` over every cell on `jobs` pool workers (`0` = one per
    /// hardware thread) and return `(cell, result)` pairs in canonical
    /// order. The first failing cell (in canonical order) aborts the
    /// batch with its error.
    pub fn run<T, F>(&self, jobs: usize, work: F) -> Result<Vec<(GridCell, T)>>
    where
        T: Send,
        F: Fn(&GridCell) -> Result<T> + Sync,
    {
        let cells = self.cells();
        let results = pool::run_ordered(jobs, &cells, |_, cell| work(cell))?;
        cells
            .into_iter()
            .zip(results)
            .map(|(cell, r)| r.map(|t| (cell, t)))
            .collect()
    }
}

/// The deterministic measurements of one `benchsim` grid cell —
/// everything that belongs in `bench/BENCH_sim.json` (schema 2). Wall
/// times and throughput are host noise and live in
/// `bench/BENCH_parallel.json` instead.
#[derive(Debug, Clone, PartialEq)]
pub struct SimCell {
    /// Observability events the run emitted (counted, not stored).
    pub events: u64,
    /// Application system calls replayed.
    pub app_requests: u64,
    /// Simulated execution time in seconds.
    pub sim_time_s: f64,
    /// Policy decision-log entries.
    pub decisions: u64,
    /// Total I/O energy in joules.
    pub total_j: f64,
}

/// Simulate one grid cell with a counting recorder attached.
pub fn sim_cell(cell: &GridCell) -> Result<SimCell> {
    let mut rec = CountingRecorder::new();
    let report = recorded_run(&cell.workload, &cell.policy, cell.seed, &mut rec)?;
    Ok(SimCell {
        events: rec.total(),
        app_requests: report.app_requests,
        sim_time_s: report.exec_time.as_secs_f64(),
        decisions: report.decisions.len() as u64,
        total_j: report.total_energy().get(),
    })
}

/// Assemble the `bench/BENCH_sim.json` document (schema 2) from
/// evaluated cells. Deterministic field order; every field is a pure
/// function of `(seed, cells)`.
pub fn sim_doc(seed: u64, cells: &[(GridCell, SimCell)]) -> Value {
    let cell_nodes: Vec<Value> = cells
        .iter()
        .map(|(cell, sc)| {
            Value::Object(vec![
                ("workload".into(), Value::Str(cell.workload.clone())),
                ("policy".into(), Value::Str(cell.policy.clone())),
                ("events".into(), Value::UInt(sc.events)),
                ("app_requests".into(), Value::UInt(sc.app_requests)),
                ("sim_time_s".into(), Value::Float(sc.sim_time_s)),
                ("decisions".into(), Value::UInt(sc.decisions)),
                ("total_j".into(), Value::Float(sc.total_j)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("bench".into(), Value::Str("sim".into())),
        ("schema".into(), Value::UInt(2)),
        ("seed".into(), Value::UInt(seed)),
        (
            "command".into(),
            Value::Str("cargo run --release -p ff-bench --bin ffbench -- benchsim".into()),
        ),
        ("cells".into(), Value::Array(cell_nodes)),
    ])
}

/// Run the full `benchsim` matrix at `seed` on `jobs` workers and
/// return the schema-2 document. Byte-identical for any `jobs` — the
/// contract `tests/parallel.rs` pins and `scripts/check.sh`'s
/// `parallel-determinism` step re-checks at full scale.
pub fn sim_matrix_json(seed: u64, jobs: usize) -> Result<Value> {
    let cells = Grid::sim_matrix(seed).run(jobs, sim_cell)?;
    Ok(sim_doc(seed, &cells))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}

    // The rest of the Send-bounds audit lives in ff-sim; these are the
    // bench-side types the pool shares (by reference) or sends (by
    // value) across workers.
    #[test]
    fn pool_crossing_types_are_thread_safe() {
        assert_sync::<crate::Scenario>();
        assert_sync::<ff_policy::PolicyKind>();
        assert_sync::<ff_trace::Trace>();
        assert_send::<crate::Row>();
        assert_send::<crate::FaultCell>();
        assert_send::<crate::observe::ObservedRun>();
        assert_send::<GridCell>();
        assert_send::<SimCell>();
    }

    #[test]
    fn canonical_order_is_workload_major() {
        let g = Grid::new(1)
            .workloads(["a", "b"])
            .policies(["p", "q"])
            .seeds([1, 2]);
        let keys: Vec<String> = g.cells().iter().map(|c| c.key()).collect();
        assert_eq!(
            keys,
            ["a/p/1", "a/p/2", "a/q/1", "a/q/2", "b/p/1", "b/p/2", "b/q/1", "b/q/2"]
        );
    }

    #[test]
    fn stream_seeds_are_unique_within_a_grid() {
        let g = Grid::sim_matrix(42);
        let mut seeds: Vec<u64> = g.cells().iter().map(|c| c.stream_seed).collect();
        assert_eq!(seeds.len(), 30);
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 30, "derived task streams collide");
    }

    #[test]
    fn run_propagates_the_first_error_in_canonical_order() {
        let g = Grid::new(7)
            .workloads(["grep", "nethack", "zork"])
            .policies(["disk"])
            .seeds([7]);
        let err = g
            .run(4, |cell| {
                crate::observe::build_workload(&cell.workload, cell.seed)
            })
            .unwrap_err();
        assert!(err.to_string().contains("nethack"), "{err}");
    }

    #[test]
    fn sim_cell_matches_a_direct_run() {
        let cell = &Grid::new(42)
            .workloads(["grep"])
            .policies(["disk"])
            .seeds([42])
            .cells()[0];
        let a = sim_cell(cell).unwrap();
        let b = sim_cell(cell).unwrap();
        assert_eq!(a, b);
        assert!(a.events > 0 && a.total_j > 0.0);
    }
}
