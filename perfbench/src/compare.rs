//! `perfbench run`: sets of runs in fresh child processes, written to one
//! JSON file; `perfbench compare`: two such sets judged against the
//! bounds in `BENCHMARK.json`.

use crate::stats::{median, quartiles, spread};
use crate::WORKLOADS;
use serde::json::Value;
use std::process::{Command, Stdio};

const RUN_USAGE: &str = "\
perfbench run — every workload in fresh child processes, written to one set file

OPTIONS:
  --out <path>          write the set here (required)
  --seed <n>            seed of the first run; run k uses seed + k   [42]
  --runs <n>            untraced runs per workload                    [1]
  --seconds <n>         --seconds of every run                        [20]

Each workload also gets one traced run at the first seed.";

const COMPARE_USAGE: &str = "\
perfbench compare <parent-set.json> <change-set.json> [--bench-json BENCHMARK.json]

One row per (end-to-end metric, workload): both medians, quartiles, the
larger relative spread, and a verdict. Exits 1 on a regression, a digest
mismatch, more failed operations, or a failed check in the second set.";

/// One parsed child run.
#[derive(Debug, Clone)]
struct Run {
    workload: String,
    seed: u64,
    trace: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    digest: String,
    metrics: Value,
}

impl Run {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("workload".into(), Value::String(self.workload.clone())),
            ("seed".into(), Value::U64(self.seed)),
            ("trace".into(), Value::U64(u64::from(self.trace))),
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("digest".into(), Value::String(self.digest.clone())),
            ("metrics".into(), self.metrics.clone()),
        ])
    }

    fn from_value(v: &Value) -> Result<Run, String> {
        let e = |err: serde::json::Error| err.to_string();
        Ok(Run {
            workload: v.field("workload").and_then(Value::as_str).map_err(e)?.to_string(),
            seed: v.field("seed").and_then(Value::as_u64).map_err(e)?,
            trace: v.field("trace").and_then(Value::as_u64).map_err(e)? == 1,
            correct: v.field("correct").and_then(Value::as_bool).map_err(e)?,
            attempted: v.field("attempted").and_then(Value::as_u64).map_err(e)?,
            failed: v.field("failed").and_then(Value::as_u64).map_err(e)?,
            digest: v.field("digest").and_then(Value::as_str).map_err(e)?.to_string(),
            metrics: v.field("metrics").map_err(e)?.clone(),
        })
    }

    fn value(&self, metric: &str) -> Option<f64> {
        self.metrics.get(metric)?.get("value")?.as_f64().ok()
    }
}

/// Runs this binary on one workload in a child process and parses its
/// result line and digest.
fn child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{workload} seed {seed} exited with {}", output.status));
    }
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("sim_digest "))
        .ok_or_else(|| format!("{workload} printed no sim_digest"))?
        .trim()
        .to_string();
    let last = stdout.lines().last().ok_or_else(|| format!("{workload} printed nothing"))?;
    let v = Value::parse(last).map_err(|e| format!("{workload} result line: {e}"))?;
    let mut fields = match v {
        Value::Object(fields) => fields,
        _ => return Err(format!("{workload} result line is not an object")),
    };
    fields.insert(0, ("workload".into(), Value::String(workload.to_string())));
    fields.insert(1, ("seed".into(), Value::U64(seed)));
    fields.insert(2, ("trace".into(), Value::U64(u64::from(trace))));
    fields.push(("digest".into(), Value::String(digest)));
    Run::from_value(&Value::Object(fields))
}

fn parse_u64(name: &str, value: Option<&String>) -> Result<u64, String> {
    value.ok_or(format!("{name} requires a value"))?.parse().map_err(|e| format!("{name}: {e}"))
}

/// `perfbench run`; returns the exit code.
pub fn run_sets(args: &[String]) -> i32 {
    match run_sets_inner(args) {
        Ok(all_correct) => i32::from(!all_correct),
        Err(e) => {
            eprintln!("error: {e}\n\n{RUN_USAGE}");
            2
        }
    }
}

fn run_sets_inner(args: &[String]) -> Result<bool, String> {
    let (mut out, mut seed, mut runs, mut seconds) = (None, 42u64, 1u64, 20u64);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => out = Some(it.next().ok_or("--out requires a value")?.clone()),
            "--seed" => seed = parse_u64("--seed", it.next())?,
            "--runs" => runs = parse_u64("--runs", it.next())?,
            "--seconds" => seconds = parse_u64("--seconds", it.next())?,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let out = out.ok_or("--out is required")?;
    let mut all = Vec::new();
    let mut timed_child = |workload: &str, seed: u64, trace: bool| -> Result<(), String> {
        let start = std::time::Instant::now();
        all.push(child(workload, seed, seconds, trace)?);
        let kind = if trace { "traced" } else { "untraced" };
        eprintln!(
            "[perfbench] {workload} seed {seed} {kind}: {:.1} s",
            start.elapsed().as_secs_f64()
        );
        Ok(())
    };
    for (workload, _) in WORKLOADS {
        for k in 0..runs {
            timed_child(workload, seed + k, false)?;
        }
        timed_child(workload, seed, true)?;
    }
    let set = Value::Object(vec![
        ("schema".into(), Value::String("perfbench-set/v1".into())),
        ("seconds".into(), Value::U64(seconds)),
        ("runs".into(), Value::Array(all.iter().map(Run::to_value).collect())),
    ]);
    let mut text = String::new();
    set.write_pretty(&mut text, 0);
    text.push('\n');
    std::fs::write(&out, text).map_err(|e| format!("writing {out}: {e}"))?;
    print_summary(&all);
    eprintln!("wrote {out}");
    Ok(all.iter().all(|r| r.correct && r.failed == 0))
}

/// Median and spread of every metric of every workload's untraced runs.
fn print_summary(runs: &[Run]) {
    for (workload, _) in WORKLOADS {
        let group: Vec<&Run> = runs.iter().filter(|r| r.workload == workload && !r.trace).collect();
        let Some(first) = group.first() else { continue };
        let Value::Object(fields) = &first.metrics else { continue };
        println!("{workload} ({} runs)", group.len());
        for (name, _) in fields {
            let values: Vec<f64> = group.iter().filter_map(|r| r.value(name)).collect();
            let (q1, med, q3) = quartiles(&values);
            println!(
                "  {name:<20} median {med:>14.6} q1 {q1:>14.6} q3 {q3:>14.6} spread {:.4}",
                spread(&values)
            );
        }
    }
}

/// One end-to-end metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Largest tolerated relative worsening of the median.
    pub bound: f64,
}

/// Reads the end-to-end bounds from a `BENCHMARK.json` document.
///
/// # Errors
///
/// Returns a message if the document lacks a well-formed `end_to_end`.
pub fn bounds(document: &str) -> Result<Vec<Bound>, String> {
    let v = Value::parse(document).map_err(|e| e.to_string())?;
    let e = |err: serde::json::Error| err.to_string();
    v.field("end_to_end")
        .and_then(Value::as_array)
        .map_err(e)?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m.field("name").and_then(Value::as_str).map_err(e)?.to_string(),
                lower_is_better: m.field("better").and_then(Value::as_str).map_err(e)? == "lower",
                bound: m.field("bound").and_then(Value::as_f64).map_err(e)?,
            })
        })
        .collect()
}

/// How a metric moved between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound both ways.
    Same,
    /// Worse by more than the bound.
    Regressed,
    /// Better by more than the bound.
    Improved,
    /// Wider run-to-run spread than the bound, with overlapping runs.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Regressed => "REGRESSED",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges change-set values `b` against parent-set values `a`.
///
/// A pair is unresolved when either set's spread exceeds the bound,
/// unless every run of one set is better than every run of the other.
/// Otherwise the relative gap between the medians decides.
#[must_use]
pub fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> Verdict {
    let better = |x: f64, y: f64| if bound.lower_is_better { x < y } else { x > y };
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let all_worse = b.iter().all(|&y| a.iter().all(|&x| better(x, y)));
    if spread(a).max(spread(b)) > bound.bound {
        return match (all_better, all_worse) {
            (true, _) => Verdict::Improved,
            (_, true) => Verdict::Regressed,
            _ => Verdict::Unresolved,
        };
    }
    let (ma, mb) = (median(a), median(b));
    let worse = if bound.lower_is_better { (mb - ma) / ma.abs() } else { (ma - mb) / ma.abs() };
    if worse > bound.bound {
        Verdict::Regressed
    } else if -worse > bound.bound {
        Verdict::Improved
    } else {
        Verdict::Same
    }
}

fn read_set(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let v = Value::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    v.field("runs")
        .and_then(Value::as_array)
        .map_err(|e| format!("{path}: {e}"))?
        .iter()
        .map(Run::from_value)
        .collect()
}

/// `perfbench compare`; returns the exit code.
pub fn compare(args: &[String]) -> i32 {
    match compare_inner(args) {
        Ok(ok) => i32::from(!ok),
        Err(e) => {
            eprintln!("error: {e}\n\n{COMPARE_USAGE}");
            2
        }
    }
}

fn compare_inner(args: &[String]) -> Result<bool, String> {
    let mut paths = Vec::new();
    let mut bench_json = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bench-json" => {
                bench_json = it.next().ok_or("--bench-json requires a value")?.clone()
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            path => paths.push(path.to_string()),
        }
    }
    let [a_path, b_path] = paths.as_slice() else {
        return Err("expected two set files".to_string());
    };
    let bounds = bounds(
        &std::fs::read_to_string(&bench_json).map_err(|e| format!("reading {bench_json}: {e}"))?,
    )?;
    let (a, b) = (read_set(a_path)?, read_set(b_path)?);
    let mut ok = true;
    println!(
        "{:<18} {:<17} {:>14} {:>14} {:>8} {:>7} verdict",
        "metric", "workload", "median A", "median B", "spread", "bound"
    );
    for (workload, _) in WORKLOADS {
        let untraced = |set: &[Run]| -> Vec<Run> {
            set.iter().filter(|r| r.workload == workload && !r.trace).cloned().collect()
        };
        let (ra, rb) = (untraced(&a), untraced(&b));
        if ra.is_empty() || rb.is_empty() {
            continue;
        }
        for bound in &bounds {
            let va: Vec<f64> = ra.iter().filter_map(|r| r.value(&bound.name)).collect();
            let vb: Vec<f64> = rb.iter().filter_map(|r| r.value(&bound.name)).collect();
            if va.is_empty() || vb.is_empty() {
                println!("{:<18} {workload:<17} missing", bound.name);
                ok = false;
                continue;
            }
            let v = verdict(&va, &vb, bound);
            ok &= v != Verdict::Regressed;
            let (qa1, _, qa3) = quartiles(&va);
            let (qb1, _, qb3) = quartiles(&vb);
            println!(
                "{:<18} {workload:<17} {:>14.6} {:>14.6} {:>8.4} {:>7.3} {}   (A q1 {qa1:.6} q3 {qa3:.6}; B q1 {qb1:.6} q3 {qb3:.6})",
                bound.name,
                median(&va),
                median(&vb),
                spread(&va).max(spread(&vb)),
                bound.bound,
                v.name()
            );
        }
        let failed = |runs: &[Run]| runs.iter().map(|r| r.failed).sum::<u64>();
        if failed(&rb) > failed(&ra) || rb.iter().any(|r| !r.correct) {
            println!(
                "{workload}: failed operations {} -> {}; checks failing in B",
                failed(&ra),
                failed(&rb)
            );
            ok = false;
        }
    }
    for x in &a {
        if let Some(y) = b.iter().find(|y| y.workload == x.workload && y.seed == x.seed) {
            if x.digest != y.digest {
                println!("{} seed {}: sim_digest {} -> {}", x.workload, x.seed, x.digest, y.digest);
                ok = false;
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn throughput(bound: f64) -> Bound {
        Bound { name: "sim_cycles_per_s".into(), lower_is_better: false, bound }
    }

    #[test]
    fn verdicts_on_synthetic_sets() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9];
        let scaled = |k: f64| parent.iter().map(|x| x * k).collect::<Vec<_>>();
        let b = throughput(0.05);
        assert_eq!(verdict(&parent, &scaled(1.01), &b), Verdict::Same);
        assert_eq!(verdict(&parent, &scaled(0.90), &b), Verdict::Regressed);
        assert_eq!(verdict(&parent, &scaled(1.10), &b), Verdict::Improved);
        // Lower is better: a 10% larger latency is a regression.
        let latency = Bound { name: "latency_p50_ms".into(), lower_is_better: true, bound: 0.05 };
        assert_eq!(verdict(&parent, &scaled(1.10), &latency), Verdict::Regressed);
        assert_eq!(verdict(&parent, &scaled(0.90), &latency), Verdict::Improved);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_sets_separate() {
        let noisy = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0];
        let b = throughput(0.05);
        assert_eq!(verdict(&noisy, &noisy, &b), Verdict::Unresolved);
        let far: Vec<f64> = noisy.iter().map(|x| x * 2.0).collect();
        assert_eq!(verdict(&noisy, &far, &b), Verdict::Improved);
        let low: Vec<f64> = noisy.iter().map(|x| x / 2.0).collect();
        assert_eq!(verdict(&noisy, &low, &b), Verdict::Regressed);
    }

    #[test]
    fn bounds_are_read_from_benchmark_json() {
        let doc = r#"{"end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "sim_cycles_per_s", "unit": "cycles/s", "better": "higher", "bound": 0.1}
        ]}"#;
        let b = bounds(doc).expect("well-formed");
        assert_eq!(b.len(), 2);
        assert!(b[0].lower_is_better && !b[1].lower_is_better);
        assert_eq!(b[1].bound, 0.1);
        assert!(bounds("{}").is_err());
    }
}
