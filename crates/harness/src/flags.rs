//! The campaign flags every command-line front end shares.

use crate::{CampaignSpec, RunnerOptions, DEFAULT_CYCLES, DEFAULT_SEED};
use std::path::PathBuf;

/// The flags the CLI's `run` verb and the bench binaries share:
/// `--cycles`, `--seed`, `--threads`, `--json`, `--warmup`,
/// `--checkpoint-dir` and `--resume`.
///
/// A front end walks its arguments, hands each flag to [`take`] first and
/// parses the flag itself only when `take` declines it, then calls
/// [`check`] once every flag is read.
///
/// [`take`]: RunFlags::take
/// [`check`]: RunFlags::check
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunFlags {
    /// Simulated cycles per run (`--cycles`).
    pub cycles: u64,
    /// Workload seed, threaded into every trace (`--seed`).
    pub seed: u64,
    /// Worker-pool size override (`--threads`).
    pub threads: Option<usize>,
    /// Where to write the JSON artifact, if requested (`--json`).
    pub json: Option<PathBuf>,
    /// Mitigation-free warmup cycles before each measured run (`--warmup`).
    pub warmup: u64,
    /// Warmup-snapshot checkpoint directory (`--checkpoint-dir`).
    pub checkpoint_dir: Option<PathBuf>,
    /// Load matching snapshots from the checkpoint dir (`--resume`).
    pub resume: bool,
}

impl Default for RunFlags {
    fn default() -> Self {
        RunFlags {
            cycles: DEFAULT_CYCLES,
            seed: DEFAULT_SEED,
            threads: None,
            json: None,
            warmup: 0,
            checkpoint_dir: None,
            resume: false,
        }
    }
}

impl RunFlags {
    /// Parses `flag` if it is one of the shared flags, reading its value
    /// from `rest`; returns whether it was.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag when its value is missing or
    /// does not parse.
    pub fn take<'a>(
        &mut self,
        flag: &str,
        rest: &mut impl Iterator<Item = &'a String>,
    ) -> Result<bool, String> {
        let mut value = |name: &str| rest.next().ok_or_else(|| format!("{name} requires a value"));
        match flag {
            "--cycles" => self.cycles = value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))?,
            "--seed" => self.seed = value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))?,
            "--threads" => {
                self.threads = Some(value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))?);
            }
            "--json" => self.json = Some(PathBuf::from(value(flag)?)),
            "--warmup" => self.warmup = value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))?,
            "--checkpoint-dir" => self.checkpoint_dir = Some(PathBuf::from(value(flag)?)),
            "--resume" => self.resume = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Checks the rules that join flags: `--resume` needs
    /// `--checkpoint-dir`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing flag.
    pub fn check(&self) -> Result<(), String> {
        if self.resume && self.checkpoint_dir.is_none() {
            return Err("--resume requires --checkpoint-dir".to_string());
        }
        Ok(())
    }

    /// Starts a campaign spec carrying these cycles, seed and warmup
    /// budget.
    #[must_use]
    pub fn spec(&self, name: &str) -> CampaignSpec {
        CampaignSpec::new(name).cycles(self.cycles).seed(self.seed).warmup(self.warmup)
    }

    /// Runner options with these threads and checkpoint settings.
    #[must_use]
    pub fn runner_options(&self, progress: bool) -> RunnerOptions {
        RunnerOptions {
            threads: self.threads,
            progress,
            checkpoint_dir: self.checkpoint_dir.clone(),
            resume: self.resume,
            ..RunnerOptions::default()
        }
    }
}
