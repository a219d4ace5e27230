//! perfbench — the end-to-end and per-layer benchmark of the simulator.
//!
//! One invocation measures one workload:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times the workload's rounds and prints the
//! end-to-end metrics; with `--trace 1` it makes the traced pass and
//! prints the per-layer metrics. Every metric is printed by name with its
//! unit, then the output checks, then one JSON result line. `perfbench
//! run` and `perfbench compare` build and judge sets of such runs. See
//! README.md for the workloads, the metrics and the comparison rule.

mod batch;
mod calibrate;
mod compare;
mod layers;
mod probes;
mod replica;
mod report;
mod scalar;
mod serve;
mod stats;

use powerbalance::Fidelity;

/// Every workload with the host seconds one round takes on the reference
/// machine (2 vCPUs, uncontended); `--seconds` buys that many rounds,
/// never fewer than [`MIN_ROUNDS`].
pub const WORKLOADS: [(&str, f64); 4] =
    [("exact-scalar", 6.5), ("fast-interval", 6.5), ("batch-sweep", 7.5), ("multicore-serve", 7.0)];

/// The fewest rounds whose median shrugs off one disturbed round.
const MIN_ROUNDS: usize = 3;

const USAGE: &str = "\
perfbench — end-to-end and per-layer benchmark of the simulator

USAGE:
  perfbench --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]
  perfbench run --out <set.json> [--seed <n>] [--runs <n>] [--seconds <n>]
  perfbench compare <parent-set.json> <change-set.json> [--bench-json <path>]

WORKLOADS: exact-scalar, fast-interval, batch-sweep, multicore-serve
DEFAULTS:  --seed 42  --seconds 20  --trace 0";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 42, 20, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} requires a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} '{value}': {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .map(|(name, _)| *name)
                        .find(|name| name == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                };
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Rounds that fill `seconds` of measurement for a workload whose round
/// takes `nominal` seconds.
fn rounds(seconds: u64, nominal: f64) -> usize {
    ((seconds as f64 / nominal).round() as usize).max(MIN_ROUNDS)
}

fn measure(args: &Args) -> Result<report::Outcome, String> {
    let nominal = WORKLOADS.iter().find(|(n, _)| *n == args.workload).map_or(1.0, |(_, s)| *s);
    let rounds = rounds(args.seconds, nominal);
    match (args.workload, args.trace) {
        ("exact-scalar", false) => scalar::timed(Fidelity::Exact, args.seed, rounds),
        ("exact-scalar", true) => scalar::traced(Fidelity::Exact, args.seed),
        ("fast-interval", false) => scalar::timed(Fidelity::Fast, args.seed, rounds),
        ("fast-interval", true) => scalar::traced(Fidelity::Fast, args.seed),
        ("batch-sweep", false) => batch::timed(args.seed, rounds),
        ("batch-sweep", true) => batch::traced(args.seed),
        ("multicore-serve", false) => serve::timed(args.seed, rounds),
        ("multicore-serve", true) => serve::traced(args.seed),
        _ => unreachable!("workload names are validated by parse"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => compare::run_sets(&args[1..]),
        Some("compare") => compare::compare(&args[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            0
        }
        _ => match parse(&args).and_then(|a| measure(&a)) {
            Ok(outcome) => {
                outcome.print();
                0
            }
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                1
            }
        },
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};
    use serde::json::Value;

    /// The metric-name grammar: `[A-Za-z0-9_.-]+`, at most 64 characters,
    /// starting with a letter or a digit.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        let Some(first) = chars.next() else {
            return false;
        };
        name.len() <= 64
            && first.is_ascii_alphanumeric()
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_follow_the_metric_grammar() {
        for ok in ["setup_s", "uarch.ns_per_cycle", "exact-scalar", "p50", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        Value::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(v: &Value, key: &str) -> Vec<String> {
        v.field(key)
            .and_then(Value::as_array)
            .expect("array")
            .iter()
            .map(|m| m.field("name").and_then(Value::as_str).expect("name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_and_workloads_printed() {
        let v = benchmark_json();
        let e2e = names(&v, "end_to_end");
        let layers = names(&v, "per_layer");
        assert_eq!(e2e, END_TO_END.map(|(n, _, _)| n.to_string()));
        assert_eq!(layers, PER_LAYER.map(|(n, _, _)| n.to_string()));
        assert_eq!(names(&v, "workloads"), WORKLOADS.map(|(n, _)| n.to_string()));
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            for (entry, (name, unit, better)) in
                v.field(key).and_then(Value::as_array).expect("array").iter().zip(table)
            {
                assert_eq!(entry.field("unit").and_then(Value::as_str), Ok(*unit), "{name}");
                assert_eq!(entry.field("better").and_then(Value::as_str), Ok(*better), "{name}");
            }
        }
    }

    #[test]
    fn metric_counts_and_names_respect_the_caps() {
        let v = benchmark_json();
        let e2e = names(&v, "end_to_end");
        let layers = names(&v, "per_layer");
        assert!((1..=16).contains(&e2e.len()), "{} end-to-end metrics", e2e.len());
        assert!((1..=128).contains(&layers.len()), "{} per-layer metrics", layers.len());
        let workloads = names(&v, "workloads");
        assert!((2..=8).contains(&workloads.len()));
        let mut all: Vec<&String> = e2e.iter().chain(&layers).chain(&workloads).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        all.sort();
        all.dedup();
        assert_eq!(all.len(), e2e.len() + layers.len() + workloads.len(), "names are unique");
        for m in v.field("end_to_end").and_then(Value::as_array).expect("array") {
            let bound = m.field("bound").and_then(Value::as_f64).expect("bound");
            assert!((0.0..=0.25).contains(&bound));
        }
        let setup = &v.field("end_to_end").and_then(Value::as_array).expect("array")[0];
        assert_eq!(setup.field("name").and_then(Value::as_str), Ok("setup_s"));
    }

    #[test]
    fn driver_arguments_parse() {
        let argv: Vec<String> =
            ["--workload", "batch-sweep", "--seed", "7", "--seconds", "10", "--trace", "1"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let a = parse(&argv).expect("valid");
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), ("batch-sweep", 7, 10, true));
        let bad = |v: &[&str]| parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).is_err();
        assert!(bad(&["--workload", "nope"]));
        assert!(bad(&["--workload", "exact-scalar", "--trace", "2"]));
        assert!(bad(&["--seed", "1"]));
    }

    #[test]
    fn seconds_buy_rounds_but_never_fewer_than_the_minimum() {
        assert_eq!(rounds(20, 6.5), 3);
        assert_eq!(rounds(1, 6.5), MIN_ROUNDS);
        assert_eq!(rounds(60, 6.5), 9);
    }
}
