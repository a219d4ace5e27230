//! Metric definitions, per-run aggregation, output checks, and printing.

use crate::stats::{median, tail};
use powerbalance::RunResult;
use serde::json::Value;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measurement.
    pub value: f64,
    /// How the value was formed (sample count, quartiles), for people.
    pub note: String,
}

/// `(name, unit, better)` of every end-to-end metric, in output order.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("sim_cycles_per_s", "cycles/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, in output order.
pub const PER_LAYER: [(&str, &str, &str); 41] = [
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("workloads.ops", "count", "lower"),
    ("workloads.ns_per_op", "ns", "lower"),
    ("workloads.self_frac", "ratio", "lower"),
    ("uarch.cycles", "count", "lower"),
    ("uarch.ns_per_cycle", "ns", "lower"),
    ("uarch.self_frac", "ratio", "lower"),
    ("power.us_per_window", "us", "lower"),
    ("power.self_frac", "ratio", "lower"),
    ("thermal.us_per_window", "us", "lower"),
    ("thermal.self_frac", "ratio", "lower"),
    ("thermal.step_us_n1", "us", "lower"),
    ("thermal.step_us_n2", "us", "lower"),
    ("thermal.advance_us", "us", "lower"),
    ("thermal.solve_many_us", "us", "lower"),
    ("mitigation.us_per_window", "us", "lower"),
    ("mitigation.self_frac", "ratio", "lower"),
    ("mitigation.actions", "count", "lower"),
    ("fast.detailed_frac", "ratio", "lower"),
    ("fast.skip_calls", "count", "lower"),
    ("fast.skipped_ops", "count", "lower"),
    ("core.self_frac", "ratio", "lower"),
    ("core.windows", "count", "lower"),
    ("core.engine_cycles_per_s", "cycles/s", "higher"),
    ("core.window_us_p50", "us", "lower"),
    ("core.batch_class_windows", "count", "lower"),
    ("core.batch_forks", "count", "lower"),
    ("core.batch_sharing", "ratio", "higher"),
    ("core.state_us", "us", "lower"),
    ("core.restore_us", "us", "lower"),
    ("core.snapshot_encode_us", "us", "lower"),
    ("core.snapshot_decode_us", "us", "lower"),
    ("core.snapshot_bytes", "bytes", "lower"),
    ("harness.pool_busy_frac", "ratio", "higher"),
    ("harness.warmups_computed", "count", "lower"),
    ("harness.cache_hits", "count", "higher"),
    ("server.requests", "count", "lower"),
    ("server.overhead_frac", "ratio", "lower"),
    ("server.result_decode_us", "us", "lower"),
    ("server.result_bytes", "bytes", "lower"),
];

/// Looks up the unit of a metric listed in either table.
fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _, _)| *n == name)
        .map(|(_, u, _)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the metric tables"))
}

/// Builds a metric listed in the tables.
#[must_use]
pub fn metric(name: &'static str, value: f64, note: impl Into<String>) -> Metric {
    Metric { name, unit: unit_of(name), value, note: note.into() }
}

/// One round of a timed run.
///
/// A round's work is a fixed list of operations (jobs, or served
/// campaigns), identical in every round.
#[derive(Debug, Default)]
pub struct Round {
    /// Host seconds of each set-up repetition of the round.
    pub setup_s: Vec<f64>,
    /// Host seconds of the round's timed phase.
    pub wall_s: f64,
    /// Host seconds of each operation.
    pub op_s: Vec<f64>,
    /// Calibration kernel samples taken during the round.
    pub cal_s: Vec<f64>,
    /// Peak resident memory of the round.
    pub peak_rss_mib: f64,
}

impl Round {
    /// Factor taking this round's host seconds to reference-host seconds.
    fn scale(&self) -> f64 {
        crate::calibrate::REFERENCE_S / median(&self.cal_s)
    }
}

/// The timed phase of one run: the same work repeated for several rounds.
#[derive(Debug, Default)]
pub struct Rounds {
    /// The rounds, in order.
    pub rounds: Vec<Round>,
    /// Simulated core cycles per round.
    pub cycles: u64,
}

impl Rounds {
    /// The end-to-end metrics. Times are scaled to the reference host
    /// (see `calibrate`); each is the median over rounds, and each
    /// operation's time is its median over rounds.
    #[must_use]
    pub fn end_to_end(&self) -> Vec<Metric> {
        let scaled = |pick: &dyn Fn(&Round) -> f64| -> Vec<f64> {
            self.rounds.iter().map(|r| pick(r) * r.scale()).collect()
        };
        let setup: Vec<f64> =
            self.rounds.iter().flat_map(|r| r.setup_s.iter().map(move |s| s * r.scale())).collect();
        let walls = scaled(&|r| r.wall_s);
        let raw_walls: Vec<f64> = self.rounds.iter().map(|r| r.wall_s).collect();
        let ops = self.rounds[0].op_s.len();
        let ops_ms: Vec<f64> = (0..ops).map(|p| median(&scaled(&|r| r.op_s[p])) * 1e3).collect();
        let (pct, tail_ms) = tail(&ops_ms);
        let scales: Vec<f64> = self.rounds.iter().map(Round::scale).collect();
        let rss: Vec<f64> = self.rounds.iter().map(|r| r.peak_rss_mib).collect();
        let fmt = |v: &[f64]| v.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ");
        vec![
            metric("setup_s", median(&setup), format!("median of {} set-ups", setup.len())),
            metric(
                "sim_cycles_per_s",
                self.cycles as f64 / median(&walls),
                format!(
                    "{} cycles per round; round walls [{}] s, calibration scales [{}]; unscaled {:.6e}",
                    self.cycles,
                    fmt(&raw_walls),
                    fmt(&scales),
                    self.cycles as f64 / median(&raw_walls)
                ),
            ),
            metric("latency_p50_ms", median(&ops_ms), format!("median of {ops} operations")),
            metric("latency_tail_ms", tail_ms, format!("p{pct} of {ops} operations")),
            metric("peak_rss_mb", median(&rss), format!("median of round peaks [{}]", fmt(&rss))),
        ]
    }
}

/// Output checks: operations attempted and failed, plus run-level faults.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations (jobs or campaigns) attempted.
    pub attempted: u64,
    /// Operations that errored or produced a wrong output.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
}

impl Checks {
    /// Counts one operation, failed if `outcome` is an error.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = outcome {
            self.failed += 1;
            self.problems.push(problem);
        }
    }

    /// Records a run-level check (it fails the run, not an operation).
    pub fn run(&mut self, outcome: Result<(), String>) {
        if let Err(problem) = outcome {
            self.problems.push(problem);
        }
    }

    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Highest temperature a sane run can reach: far above every trip point.
const MAX_TEMP_K: f64 = 500.0;

/// Checks one job's result: the full cycle budget ran and every block
/// temperature is finite and between `ambient` and [`MAX_TEMP_K`].
///
/// # Errors
///
/// Describes the first violation, prefixed with `what`.
pub fn check_result(
    what: &str,
    result: &RunResult,
    min_cycles: u64,
    ambient: f64,
) -> Result<(), String> {
    if result.cycles < min_cycles {
        return Err(format!("{what}: ran {} of {min_cycles} cycles", result.cycles));
    }
    if result.temperatures.is_empty() {
        return Err(format!("{what}: no temperatures reported"));
    }
    for t in &result.temperatures {
        for (label, v) in [("avg", t.avg), ("max", t.max), ("last", t.last)] {
            if !v.is_finite() || v < ambient - 1e-9 || v >= MAX_TEMP_K {
                return Err(format!("{what}: {} {label} temperature {v} K out of range", t.name));
            }
        }
    }
    Ok(())
}

/// FNV-1a digest of the serialized results, in order.
#[must_use]
pub fn digest(results: &[RunResult]) -> u64 {
    crate::stats::fnv1a(serde::json::to_string(results).as_bytes())
}

/// Checks that every round produced the same digest.
///
/// # Errors
///
/// Lists the differing digests.
pub fn check_digests(digests: &[u64]) -> Result<(), String> {
    match digests.first() {
        Some(first) if digests.iter().all(|d| d == first) => Ok(()),
        Some(_) => Err(format!(
            "sim_digest differs across rounds: {}",
            digests.iter().map(|d| format!("{d:016x}")).collect::<Vec<_>>().join(" ")
        )),
        None => Err("no round produced results".to_string()),
    }
}

/// Everything one invocation measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// What ran, for the first output line.
    pub header: String,
    /// Metrics in table order.
    pub metrics: Vec<Metric>,
    /// Output checks.
    pub checks: Checks,
    /// Digest of the simulation results (identical for every round).
    pub digest: u64,
}

impl Outcome {
    /// Prints every metric by name with its unit, the digest and the
    /// checks, then the one-line JSON result as the last line of stdout.
    pub fn print(&self) {
        println!("{}", self.header);
        for m in &self.metrics {
            println!("{:<26} {:>16} {:<9} {}", m.name, format_value(m.value), m.unit, m.note);
        }
        println!("sim_digest {:016x}", self.digest);
        println!("checks: {} attempted, {} failed", self.checks.attempted, self.checks.failed);
        for problem in &self.checks.problems {
            println!("FAILED {problem}");
        }
        println!("{}", self.json_line());
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = Value::Object(vec![
                    ("value".to_string(), Value::F64(m.value)),
                    ("unit".to_string(), Value::String(m.unit.to_string())),
                ]);
                (m.name.to_string(), entry)
            })
            .collect();
        let mut out = String::new();
        Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.checks.correct())),
            ("attempted".to_string(), Value::U64(self.checks.attempted)),
            ("failed".to_string(), Value::U64(self.checks.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ])
        .write(&mut out);
        out
    }
}

fn format_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.6e}")
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_timed_run_prints_every_end_to_end_metric_in_table_order() {
        let round = |k: f64| Round {
            setup_s: vec![0.5 * k],
            wall_s: 2.0 * k,
            op_s: vec![1.0 * k, 1.0 * k],
            cal_s: vec![crate::calibrate::REFERENCE_S * k],
            peak_rss_mib: 10.0,
        };
        let rounds = Rounds { rounds: vec![round(1.0), round(2.0), round(1.5)], cycles: 4_000 };
        let metrics = rounds.end_to_end();
        let printed: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        assert_eq!(printed, END_TO_END.map(|(name, _, _)| name));
        // Rounds slowed by the host in proportion to the kernel read the same.
        assert_eq!(metrics[0].value, 0.5);
        assert_eq!(metrics[1].value, 2_000.0);
        assert_eq!(metrics[2].value, 1_000.0);
    }

    #[test]
    fn result_checks_catch_short_runs_and_bad_temperatures() {
        let mut result = powerbalance::Simulator::new(powerbalance::SimConfig::default())
            .expect("valid config")
            .result();
        assert!(check_result("x", &result, 1, 318.0).is_err(), "no cycles ran");
        result.cycles = 10;
        assert!(check_result("x", &result, 10, 318.0).is_ok());
        result.temperatures[0].max = f64::NAN;
        assert!(check_result("x", &result, 10, 318.0).is_err());
        assert!(check_digests(&[1, 1, 1]).is_ok());
        assert!(check_digests(&[1, 2, 1]).is_err());
    }
}
