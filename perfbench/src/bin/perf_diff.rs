//! `perf_diff` — compares two sets of benchmark runs against the bounds in
//! `BENCHMARK.json`.
//!
//! ```text
//! perf_diff BASE.jsonl CANDIDATE.jsonl
//! ```
//!
//! Each input holds one JSON line per run, as `perfbench --record` appends
//! them: `{"workload": .., "seed": .., "trace": 0|1, "result": {..}}`. For
//! every workload and end-to-end metric it prints both sets' median and
//! quartiles (Python's `statistics.quantiles(n=4)`) and a verdict:
//!
//! * `WORSE` — the candidate's median is worse than the base's by more than
//!   the metric's bound;
//! * `unresolved` — not worse by the bound, but one set's own spread
//!   (interquartile distance over median) is wider than the bound, so the
//!   comparison cannot resolve a change of that size (unless every candidate
//!   run reads better than every base run, which counts as `better`);
//! * `better` / `ok` — otherwise.
//!
//! Exits 1 if any metric is `WORSE` or any run reported incorrect outputs,
//! 0 otherwise. Traced runs (`"trace": 1`) are ignored.

use std::collections::BTreeMap;
use std::path::PathBuf;
use swift_perfbench::spec::{MetricSpec, Spec};
use swift_perfbench::stats::{median, quartiles, relative_spread};
use swift_telemetry::Json;

/// Per workload, per metric: the values of every run.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

struct Loaded {
    runs: RunSet,
    incorrect: usize,
    count: usize,
}

fn load(path: &PathBuf) -> Result<Loaded, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut out = Loaded {
        runs: RunSet::new(),
        incorrect: 0,
        count: 0,
    };
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = || format!("{}:{}", path.display(), i + 1);
        let v = Json::parse(line).map_err(|e| format!("{}: {e}", at()))?;
        if v.get("trace").and_then(Json::as_u64) == Some(1) {
            continue;
        }
        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", at()))?;
        let result = v
            .get("result")
            .ok_or_else(|| format!("{}: no result", at()))?;
        out.count += 1;
        if !matches!(result.get("correct"), Some(Json::Bool(true))) {
            out.incorrect += 1;
        }
        let metrics = result
            .get("metrics")
            .ok_or_else(|| format!("{}: no metrics", at()))?;
        let entry = out.runs.entry(workload.to_string()).or_default();
        for name in metrics.keys() {
            let value = metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: metric {name} has no value", at()))?;
            entry.entry(name.to_string()).or_default().push(value);
        }
    }
    Ok(out)
}

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Better,
    Unresolved,
    Worse,
}

/// Relative change of the candidate's median, signed so that positive is
/// worse.
fn worsening(spec: &MetricSpec, base: f64, cand: f64) -> f64 {
    let change = (cand - base) / base.abs();
    if spec.lower_is_better {
        change
    } else {
        -change
    }
}

fn judge(spec: &MetricSpec, base: &[f64], cand: &[f64]) -> Verdict {
    let bound = spec.bound.unwrap_or(0.0);
    let (Some(b), Some(c)) = (median(base), median(cand)) else {
        return Verdict::Unresolved;
    };
    let worse = worsening(spec, b, c);
    if worse > bound {
        return Verdict::Worse;
    }
    let better_everywhere = cand
        .iter()
        .all(|&x| base.iter().all(|&y| worsening(spec, y, x) < 0.0));
    let spread = relative_spread(base)
        .unwrap_or(f64::INFINITY)
        .max(relative_spread(cand).unwrap_or(f64::INFINITY));
    if better_everywhere {
        Verdict::Better
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Ok
    }
}

fn summary(v: &[f64]) -> String {
    match (median(v), quartiles(v)) {
        (Some(m), Some([q1, _, q3])) => format!("{m:>12.4} [{q1:.4} .. {q3:.4}]"),
        (Some(m), None) => format!("{m:>12.4} [single run]"),
        _ => "no runs".to_string(),
    }
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perf_diff: {e}");
            std::process::exit(2);
        }
    }
}

fn run() -> Result<bool, String> {
    let files: Vec<PathBuf> = std::env::args().skip(1).map(PathBuf::from).collect();
    let [base_path, cand_path] = files.as_slice() else {
        return Err(
            "usage: perf_diff BASE.jsonl CANDIDATE.jsonl (run from the repository root)".into(),
        );
    };
    let spec = Spec::load(std::path::Path::new("BENCHMARK.json"))?;
    let base = load(base_path)?;
    let cand = load(cand_path)?;
    println!(
        "base {} ({} runs, {} incorrect) vs candidate {} ({} runs, {} incorrect)",
        base_path.display(),
        base.count,
        base.incorrect,
        cand_path.display(),
        cand.count,
        cand.incorrect
    );
    let mut clean = base.incorrect == 0 && cand.incorrect == 0;
    for workload in &spec.workloads {
        let empty = BTreeMap::new();
        let b = base.runs.get(workload).unwrap_or(&empty);
        let c = cand.runs.get(workload).unwrap_or(&empty);
        if b.is_empty() && c.is_empty() {
            continue;
        }
        println!("\n{workload}");
        for m in &spec.end_to_end {
            let bv = b.get(&m.name).map_or(&[][..], Vec::as_slice);
            let cv = c.get(&m.name).map_or(&[][..], Vec::as_slice);
            let verdict = judge(m, bv, cv);
            clean &= verdict != Verdict::Worse;
            let change = match (median(bv), median(cv)) {
                (Some(x), Some(y)) => format!("{:+.1}%", 100.0 * (y - x) / x.abs()),
                _ => "-".to_string(),
            };
            println!(
                "  {:<22} {:>6} base {}  cand {}  {:>7}  spread {:.3}/{:.3} bound {:.2}  {:?}",
                m.name,
                m.unit,
                summary(bv),
                summary(cv),
                change,
                relative_spread(bv).unwrap_or(f64::NAN),
                relative_spread(cv).unwrap_or(f64::NAN),
                m.bound.unwrap_or(0.0),
                verdict
            );
        }
    }
    println!(
        "\n{}",
        if clean {
            "no metric worse than its bound"
        } else {
            "REGRESSION: a metric is worse than its bound or a run was incorrect"
        }
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower: bool) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "ms".into(),
            lower_is_better: lower,
            bound: Some(0.1),
        }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.0, 100.5];
        // 5 % slower latency: within the 10 % bound.
        let a = [105.0, 104.0, 106.0, 105.0, 105.5];
        assert_eq!(judge(&metric(true), &base, &a), Verdict::Ok);
        // 20 % slower latency: worse.
        let b = [120.0, 121.0, 119.0, 120.0, 120.5];
        assert_eq!(judge(&metric(true), &base, &b), Verdict::Worse);
        // The same values for a higher-is-better metric are better.
        assert_eq!(judge(&metric(false), &base, &b), Verdict::Better);
        // A noisy base cannot resolve a 5 % change.
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(judge(&metric(true), &noisy, &a), Verdict::Unresolved);
        // ...unless every candidate run beats every base run.
        let fast = [50.0, 51.0, 52.0];
        assert_eq!(judge(&metric(true), &noisy, &fast), Verdict::Better);
    }
}
