//! Output checks: every cell run is compared with a reference before
//! its time counts.
//!
//! At seed 42 the reference is `expected.json`, the committed
//! fingerprint of every cell. At any other seed there is no committed
//! answer, so a run must instead agree with the first run of the same
//! cell, the traced report must equal the untraced one field for field,
//! and the chaos oracle (`ff_bench::check_invariants`) must pass.

use ff_base::json::Value;
use ff_base::{Error, Result};
use ff_sim::SimReport;
use std::collections::BTreeMap;

/// The seed `expected.json` was recorded at.
pub const EXPECTED_SEED: u64 = 42;

/// The committed seed-42 fingerprints, keyed by `"workload:app/policy"`.
const EXPECTED_JSON: &str = include_str!("../expected.json");

/// What must not change when only the simulator's speed changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Application calls replayed.
    pub app_requests: u64,
    /// Simulated execution time in µs.
    pub exec_time_us: u64,
    /// Total energy as exact `f64` bits.
    pub total_j_bits: u64,
    /// Policy decision-log entries.
    pub decisions: u64,
    /// Buffer-cache demand hits, in pages.
    pub cache_hits: u64,
    /// Buffer-cache demand misses, in pages.
    pub cache_misses: u64,
    /// Pages fetched by readahead.
    pub readahead_pages: u64,
    /// Device requests sent to the disk.
    pub disk_requests: u64,
    /// Device requests sent to the WNIC.
    pub wnic_requests: u64,
    /// Requests served by the flash tier.
    pub flash_requests: u64,
}

impl Fingerprint {
    /// The fingerprint of one report.
    pub fn of(r: &SimReport) -> Self {
        Fingerprint {
            app_requests: r.app_requests,
            exec_time_us: r.exec_time.as_micros(),
            total_j_bits: r.total_energy().get().to_bits(),
            decisions: r.decisions.len() as u64,
            cache_hits: r.cache_stats.hits,
            cache_misses: r.cache_stats.misses,
            readahead_pages: r.cache_stats.readahead_pages,
            disk_requests: r.disk_requests,
            wnic_requests: r.wnic_requests,
            flash_requests: r.flash_requests,
        }
    }

    fn fields(&self) -> [(&'static str, u64); 10] {
        [
            ("app_requests", self.app_requests),
            ("exec_time_us", self.exec_time_us),
            ("total_j_bits", self.total_j_bits),
            ("decisions", self.decisions),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("readahead_pages", self.readahead_pages),
            ("disk_requests", self.disk_requests),
            ("wnic_requests", self.wnic_requests),
            ("flash_requests", self.flash_requests),
        ]
    }

    /// One `expected.json` cell entry. `total_j` is there for reading;
    /// the check uses `total_j_bits`.
    #[cfg(test)]
    pub fn entry(self, workload: &str, cell: &str, seed: u64, events: u64) -> Value {
        let mut pairs = vec![
            ("workload".to_string(), Value::Str(workload.into())),
            ("cell".to_string(), Value::Str(cell.into())),
            ("seed".to_string(), Value::UInt(seed)),
            (
                "total_j".to_string(),
                Value::Float(f64::from_bits(self.total_j_bits)),
            ),
        ];
        pairs.extend(
            self.fields()
                .iter()
                .map(|&(k, v)| (k.to_string(), Value::UInt(v))),
        );
        pairs.push(("events".to_string(), Value::UInt(events)));
        Value::Object(pairs)
    }

    fn from_json(v: &Value) -> Result<(Self, u64)> {
        let field = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| Error::Config(format!("expected.json: cell lacks '{k}'")))
        };
        Ok((
            Fingerprint {
                app_requests: field("app_requests")?,
                exec_time_us: field("exec_time_us")?,
                total_j_bits: field("total_j_bits")?,
                decisions: field("decisions")?,
                cache_hits: field("cache_hits")?,
                cache_misses: field("cache_misses")?,
                readahead_pages: field("readahead_pages")?,
                disk_requests: field("disk_requests")?,
                wnic_requests: field("wnic_requests")?,
                flash_requests: field("flash_requests")?,
            },
            field("events")?,
        ))
    }

    /// Names of the fields that differ from `other`.
    pub fn diff(&self, other: &Fingerprint) -> Vec<&'static str> {
        self.fields()
            .iter()
            .zip(other.fields())
            .filter(|(a, b)| a.1 != b.1)
            .map(|(a, _)| a.0)
            .collect()
    }
}

/// The committed fingerprints and traced event counts, keyed by
/// `"workload:app/policy"`.
pub fn expected() -> Result<BTreeMap<String, (Fingerprint, u64)>> {
    let doc = Value::parse(EXPECTED_JSON)?;
    let cells = doc
        .get("cells")
        .and_then(Value::as_array)
        .ok_or_else(|| Error::Config("expected.json: no 'cells' array".into()))?;
    let mut out = BTreeMap::new();
    for c in cells {
        let name = |k: &str| c.get(k).and_then(Value::as_str).unwrap_or("?").to_string();
        let key = format!("{}:{}", name("workload"), name("cell"));
        out.insert(key, Fingerprint::from_json(c)?);
    }
    Ok(out)
}

/// Names of the `SimReport` fields on which `a` and `b` differ. Floats
/// compare exactly: recorders and timing wrappers only observe.
pub fn report_diff(a: &SimReport, b: &SimReport) -> Vec<&'static str> {
    let meter = |m: &ff_device::StateMeter| {
        (
            m.residencies().collect::<Vec<_>>(),
            m.transitions().collect::<Vec<_>>(),
            m.total(),
        )
    };
    let checks = [
        ("policy", a.policy == b.policy),
        ("workload", a.workload == b.workload),
        ("exec_time", a.exec_time == b.exec_time),
        ("disk_energy", a.disk_energy == b.disk_energy),
        ("wnic_energy", a.wnic_energy == b.wnic_energy),
        ("disk_meter", meter(&a.disk_meter) == meter(&b.disk_meter)),
        ("wnic_meter", meter(&a.wnic_meter) == meter(&b.wnic_meter)),
        ("app_requests", a.app_requests == b.app_requests),
        ("disk_requests", a.disk_requests == b.disk_requests),
        ("wnic_requests", a.wnic_requests == b.wnic_requests),
        ("disk_bytes", a.disk_bytes == b.disk_bytes),
        ("wnic_bytes", a.wnic_bytes == b.wnic_bytes),
        ("flash_energy", a.flash_energy == b.flash_energy),
        (
            "flash_meter",
            a.flash_meter.as_ref().map(meter) == b.flash_meter.as_ref().map(meter),
        ),
        ("flash_requests", a.flash_requests == b.flash_requests),
        ("flash_bytes", a.flash_bytes == b.flash_bytes),
        ("cache_hits", a.cache_hits == b.cache_hits),
        ("cache_misses", a.cache_misses == b.cache_misses),
        ("cache_stats", a.cache_stats == b.cache_stats),
        ("stages", a.stages == b.stages),
        ("faults_injected", a.faults_injected == b.faults_injected),
        ("retries", a.retries == b.retries),
        ("failovers", a.failovers == b.failovers),
        ("recorded_profile", a.recorded_profile == b.recorded_profile),
        ("decisions", a.decisions == b.decisions),
        ("stage_summaries", a.stage_summaries == b.stage_summaries),
    ];
    checks
        .iter()
        .filter(|(_, same)| !same)
        .map(|(name, _)| *name)
        .collect()
}
