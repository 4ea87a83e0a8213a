//! `BENCHMARK.json`: the metric names, units and bounds the runner must
//! report and `perf_diff` judges against.

use std::path::Path;
use swift_telemetry::Json;

/// One metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the baseline median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (`--trace 0`).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (`--trace 1`).
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Reads and parses `path`.
    pub fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Spec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses the JSON text of a spec.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("missing workloads")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "workload without a name".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Spec {
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    /// Checks a run's `(name, value, unit)` list against the declared
    /// metrics: the same names, the declared units, finite values.
    pub fn check(&self, trace: bool, reported: &[(String, f64, String)]) -> Result<(), String> {
        let declared = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        for m in declared {
            let Some((_, value, unit)) = reported.iter().find(|(n, _, _)| *n == m.name) else {
                return Err(format!("metric {} was not measured", m.name));
            };
            if *unit != m.unit {
                return Err(format!(
                    "metric {} measured in {unit}, declared in {}",
                    m.name, m.unit
                ));
            }
            if !value.is_finite() {
                return Err(format!("metric {} is not finite ({value})", m.name));
            }
        }
        if let Some((n, _, _)) = reported
            .iter()
            .find(|(n, _, _)| !declared.iter().any(|m| m.name == *n))
        {
            return Err(format!("metric {n} is not declared in BENCHMARK.json"));
        }
        Ok(())
    }
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    doc.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("missing {key}"))?
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("{key} entry without {k}"))
            };
            Ok(MetricSpec {
                name: field("name")?,
                unit: field("unit")?,
                lower_is_better: match field("better")?.as_str() {
                    "lower" => true,
                    "higher" => false,
                    other => return Err(format!("better must be lower or higher, got {other}")),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
      "command": ["x"], "paths": ["p"], "run_seconds": 1,
      "workloads": [{"name": "a", "why": "w"}, {"name": "b", "why": "w"}],
      "end_to_end": [
        {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "ev/s", "better": "higher", "bound": 0.05}
      ],
      "per_layer": [{"name": "hits", "unit": "count", "better": "higher"}]
    }"#;

    #[test]
    fn parses_and_checks_reported_metrics() {
        let spec = Spec::parse(SPEC).expect("valid spec");
        assert_eq!(spec.workloads, ["a", "b"]);
        assert_eq!(spec.end_to_end[1].bound, Some(0.05));
        assert!(!spec.end_to_end[1].lower_is_better);
        let ok = vec![
            ("lat_ms".to_string(), 1.5, "ms".to_string()),
            ("rate".to_string(), 9.0, "ev/s".to_string()),
        ];
        assert_eq!(spec.check(false, &ok), Ok(()));
        let missing = vec![ok[0].clone()];
        assert!(spec.check(false, &missing).is_err());
        let mut wrong_unit = ok.clone();
        wrong_unit[0].2 = "s".into();
        assert!(spec.check(false, &wrong_unit).is_err());
        let mut extra = ok.clone();
        extra.push(("other".into(), 1.0, "ms".into()));
        assert!(spec.check(false, &extra).is_err());
        let mut nan = ok;
        nan[1].1 = f64::NAN;
        assert!(spec.check(false, &nan).is_err());
    }
}
