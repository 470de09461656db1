//! `BENCHMARK.json`: the metric lists every run reports, and the bounds a
//! change may worsen each end-to-end metric by.

use serde::Value;

/// Path of the manifest: the repository root above this package.
pub const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// One metric entry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Allowed regression, as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

impl MetricSpec {
    /// Whether a larger value is better.
    pub fn higher_is_better(&self) -> bool {
        self.better == "higher"
    }
}

/// The parsed manifest.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// The raw tree (what `calibrate` edits).
    pub raw: Value,
    /// Length of one run's measured window (s).
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics (reported with `--trace 0`).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (reported with `--trace 1`).
    pub per_layer: Vec<MetricSpec>,
}

fn str_field(entry: &Value, key: &str) -> Result<String, String> {
    match entry.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("{PATH}: an entry lacks the string field {key:?}")),
    }
}

/// A JSON number as `f64`, whichever way the parser stored it.
pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

fn metrics(raw: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    let Some(Value::Seq(entries)) = raw.get(key) else {
        return Err(format!("{PATH}: {key:?} is not a list"));
    };
    entries
        .iter()
        .map(|e| {
            Ok(MetricSpec {
                name: str_field(e, "name")?,
                unit: str_field(e, "unit")?,
                better: str_field(e, "better")?,
                bound: e.get("bound").and_then(number),
            })
        })
        .collect()
}

impl Manifest {
    /// Reads and parses the manifest.
    pub fn load() -> Result<Self, String> {
        let text = std::fs::read_to_string(PATH).map_err(|e| format!("cannot read {PATH}: {e}"))?;
        let raw: Value = serde_json::from_str(&text).map_err(|e| format!("{PATH}: {e}"))?;
        let Some(Value::Seq(ws)) = raw.get("workloads") else {
            return Err(format!("{PATH}: \"workloads\" is not a list"));
        };
        let workloads = ws.iter().map(|w| str_field(w, "name")).collect::<Result<_, _>>()?;
        let Some(Value::UInt(run_seconds)) = raw.get("run_seconds") else {
            return Err(format!("{PATH}: \"run_seconds\" is not a whole number"));
        };
        Ok(Self {
            run_seconds: *run_seconds,
            end_to_end: metrics(&raw, "end_to_end")?,
            per_layer: metrics(&raw, "per_layer")?,
            workloads,
            raw,
        })
    }
}
