//! Shared front-end for the table/figure regeneration binaries.
//!
//! Each binary in `src/bin/` reproduces one table or figure from the MICRO
//! 2005 evaluation. The actual orchestration — building the (benchmark ×
//! config) cross-product, running it on a bounded worker pool, and
//! serializing the results — lives in [`powerbalance_harness`]; this
//! library adds the pieces the binaries share on top of it: a common
//! command-line front-end ([`BenchArgs`]) and the paper-style row
//! formatter ([`row`]).
//!
//! Runs are deterministic: one seed for the whole campaign (default
//! [`DEFAULT_SEED`], overridable with `--seed`), fixed cycle budgets, and
//! the simulator stack is seeded end-to-end — so results are independent
//! of the worker-pool size.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;

use powerbalance_harness::{run_campaign, CampaignResult, CampaignSpec, RunFlags, RunnerOptions};

pub use powerbalance_harness::{DEFAULT_CYCLES, DEFAULT_SEED};

/// Options block shared by every bench binary's `--help` output.
pub const OPTIONS_HELP: &str = "\
OPTIONS:
  --cycles <n>    simulated cycles per run            [1000000]
  --seed <n>      workload seed                       [42]
  --threads <n>   worker-pool size     [POWERBALANCE_THREADS or all cores]
  --json <path>   also write the full campaign results as JSON
  --quiet         suppress per-job progress lines on stderr
  --warmup <n>    mitigation-free warmup cycles per run, shared across
                  configs differing only in mitigation          [0]
  --checkpoint-dir <dir>
                  persist warmup snapshots under <dir>
  --resume        load matching warmup snapshots from --checkpoint-dir
  --help          show this help";

/// Command-line arguments common to every bench binary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchArgs {
    /// The campaign flags shared with the CLI's `run` verb.
    pub run: RunFlags,
    /// Suppress per-job progress lines (`--quiet`).
    pub quiet: bool,
}

impl BenchArgs {
    /// Parses the shared flags from an argument list (no program name).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending flag or value. `--help` is
    /// reported as an error too, so callers can print usage and exit 0.
    pub fn parse_from(args: &[String]) -> Result<BenchArgs, String> {
        let mut parsed = BenchArgs::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if parsed.run.take(flag, &mut it)? {
                continue;
            }
            match flag.as_str() {
                "--quiet" => parsed.quiet = true,
                "--help" | "-h" => return Err("help".to_string()),
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        parsed.run.check()?;
        Ok(parsed)
    }

    /// Parses `std::env::args`, printing `about` plus the shared options on
    /// `--help` (exit 0) or a parse error (exit 2).
    #[must_use]
    pub fn parse_or_exit(about: &str) -> BenchArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::parse_from(&args) {
            Ok(parsed) => parsed,
            Err(msg) => {
                let help = msg == "help";
                if !help {
                    eprintln!("error: {msg}");
                    eprintln!();
                }
                eprintln!("{about}");
                eprintln!();
                eprintln!("{OPTIONS_HELP}");
                std::process::exit(i32::from(!help) * 2);
            }
        }
    }

    /// Starts a campaign spec carrying this invocation's cycles, seed, and
    /// warmup budget.
    #[must_use]
    pub fn spec(&self, name: &str) -> CampaignSpec {
        self.run.spec(name)
    }

    /// The runner options for this invocation.
    #[must_use]
    pub fn runner_options(&self) -> RunnerOptions {
        self.run.runner_options(!self.quiet)
    }

    /// Runs `spec` on the worker pool.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation — a programming error in a
    /// bench binary, which builds its specs from compiled-in presets.
    #[must_use]
    pub fn run(&self, spec: &CampaignSpec) -> CampaignResult {
        run_campaign(spec, &self.runner_options()).expect("bench campaign specs are valid")
    }

    /// Writes the `--json` artifact, if one was requested: a single
    /// `CampaignResult` object when the binary ran one campaign, or an
    /// array of them (in run order) when it ran several.
    ///
    /// An unwritable output path is a hard error (exit 1) — for a batch
    /// tool a silently missing artifact is worse than a dead run — but it
    /// is reported as a plain message, not a panic backtrace.
    pub fn finish(&self, campaigns: &[&CampaignResult]) {
        let Some(path) = &self.run.json else { return };
        let text = match campaigns {
            [only] => only.to_json(),
            many => serde::json::to_string_pretty(&many.to_vec()),
        };
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        if !self.quiet {
            eprintln!("wrote {}", path.display());
        }
    }
}

/// Formats a fixed-width row of floats for table output.
#[must_use]
pub fn row(name: &str, values: &[f64], width: usize, precision: usize) -> String {
    let mut out = format!("{name:<10}");
    for v in values {
        out.push_str(&format!(" {v:>width$.precision$}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_all_shared_flags() {
        let a = BenchArgs::parse_from(&strs(&[
            "--cycles",
            "5000",
            "--seed",
            "7",
            "--threads",
            "2",
            "--json",
            "out.json",
            "--quiet",
        ]))
        .expect("valid command line");
        assert_eq!(a.run.cycles, 5000);
        assert_eq!(a.run.seed, 7);
        assert_eq!(a.run.threads, Some(2));
        assert_eq!(a.run.json.as_deref(), Some(std::path::Path::new("out.json")));
        assert!(a.quiet);
    }

    #[test]
    fn defaults_match_the_paper_budget() {
        let a = BenchArgs::parse_from(&[]).expect("empty is valid");
        assert_eq!(a, BenchArgs::default());
        assert_eq!(a.run.cycles, DEFAULT_CYCLES);
        assert_eq!(a.run.seed, DEFAULT_SEED);
    }

    #[test]
    fn help_prints_the_run_defaults() {
        for default in [format!("[{DEFAULT_CYCLES}]"), format!("[{DEFAULT_SEED}]")] {
            assert!(OPTIONS_HELP.contains(&default), "--help must show {default}");
        }
    }

    #[test]
    fn rejects_bad_flags_and_values() {
        for flag in ["--frobnicate", "--no-warm-cache"] {
            assert!(BenchArgs::parse_from(&strs(&[flag])).is_err(), "{flag} is not a bench flag");
        }
        assert!(BenchArgs::parse_from(&strs(&["--cycles"])).is_err());
        assert!(BenchArgs::parse_from(&strs(&["--cycles", "many"])).is_err());
        assert_eq!(BenchArgs::parse_from(&strs(&["--help"])), Err("help".to_string()));
    }

    #[test]
    fn spec_carries_cycles_and_seed() {
        let run = RunFlags { cycles: 123, seed: 9, warmup: 4_000, ..RunFlags::default() };
        let a = BenchArgs { run, ..BenchArgs::default() };
        let spec = a.spec("t");
        assert_eq!(spec.cycles, 123);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.warmup_cycles, 4_000);
        assert_eq!(spec.name, "t");
    }

    #[test]
    fn warm_start_flags_parse_and_reach_the_runner() {
        let a = BenchArgs::parse_from(&strs(&[
            "--warmup",
            "20000",
            "--checkpoint-dir",
            "ckpts",
            "--resume",
        ]))
        .expect("valid command line");
        assert_eq!(a.run.warmup, 20_000);
        assert_eq!(a.run.checkpoint_dir.as_deref(), Some(std::path::Path::new("ckpts")));
        assert!(a.run.resume);
        let opts = a.runner_options();
        assert!(opts.resume);
        assert_eq!(opts.checkpoint_dir.as_deref(), Some(std::path::Path::new("ckpts")));
    }

    #[test]
    fn resume_requires_a_checkpoint_dir() {
        let err = BenchArgs::parse_from(&strs(&["--resume"])).expect_err("must be rejected");
        assert!(err.contains("--checkpoint-dir"), "unexpected message: {err}");
    }

    #[test]
    fn row_formatting() {
        let r = row("eon", &[1.234, 5.6], 6, 2);
        assert!(r.starts_with("eon"));
        assert!(r.contains("1.23"));
        assert!(r.contains("5.60"));
    }
}
