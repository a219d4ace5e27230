//! Typed campaign descriptions.

use powerbalance::{spec2000, Error, SimConfig};
use serde::{Deserialize, Serialize};

/// One named configuration within a campaign — one bar/row of a figure or
/// table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedConfig {
    /// Short label used in table headers and JSON artifacts (e.g.
    /// `"toggling"`).
    pub name: String,
    /// The full simulator configuration.
    pub config: SimConfig,
    /// Per-config cycle-budget override; `None` uses the campaign's budget.
    /// (The time-compression ablation scales run length per config so every
    /// run covers the same number of thermal time constants.)
    pub cycles: Option<u64>,
}

/// The typed description of an experiment campaign: a cross-product of
/// named configurations and benchmarks, run for a fixed cycle budget from a
/// fixed workload seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Campaign name, used in progress lines and JSON artifacts.
    pub name: String,
    /// The configurations to run, in column order.
    pub configs: Vec<NamedConfig>,
    /// The benchmarks to run, in row order.
    pub benchmarks: Vec<String>,
    /// Simulated cycles per job (unless a config overrides it).
    pub cycles: u64,
    /// Workload seed, threaded into every trace.
    pub seed: u64,
    /// Warmup cycles run before each job's measured `cycles`, with thermal
    /// and power accounting active but the mitigation manager never
    /// consulted. `0` (the default) skips warmup entirely. Because warmup
    /// state is mitigation-independent, jobs that share a benchmark, seed,
    /// and warmup-relevant configuration share one warmup snapshot — see
    /// [`crate::WarmStartCache`].
    pub warmup_cycles: u64,
}

impl CampaignSpec {
    /// Starts an empty campaign with the default cycle budget and seed.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        CampaignSpec {
            name: name.into(),
            configs: Vec::new(),
            benchmarks: Vec::new(),
            cycles: crate::DEFAULT_CYCLES,
            seed: crate::DEFAULT_SEED,
            warmup_cycles: 0,
        }
    }

    /// Adds a named configuration.
    #[must_use]
    pub fn config(mut self, name: impl Into<String>, config: SimConfig) -> Self {
        self.configs.push(NamedConfig { name: name.into(), config, cycles: None });
        self
    }

    /// Adds a named configuration with its own cycle budget.
    #[must_use]
    pub fn config_with_cycles(
        mut self,
        name: impl Into<String>,
        config: SimConfig,
        cycles: u64,
    ) -> Self {
        self.configs.push(NamedConfig { name: name.into(), config, cycles: Some(cycles) });
        self
    }

    /// Adds one benchmark.
    #[must_use]
    pub fn benchmark(mut self, name: impl Into<String>) -> Self {
        self.benchmarks.push(name.into());
        self
    }

    /// Adds several benchmarks.
    #[must_use]
    pub fn benchmarks<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.benchmarks.extend(names.into_iter().map(Into::into));
        self
    }

    /// Adds all 22 benchmarks, in [`spec2000::ALL`] order.
    #[must_use]
    pub fn all_benchmarks(self) -> Self {
        self.benchmarks(spec2000::ALL.iter().copied())
    }

    /// Sets the per-job cycle budget.
    #[must_use]
    pub fn cycles(mut self, cycles: u64) -> Self {
        self.cycles = cycles;
        self
    }

    /// Sets the workload seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the mitigation-free warmup run before each job's measured
    /// cycles (see [`CampaignSpec::warmup_cycles`]).
    #[must_use]
    pub fn warmup(mut self, cycles: u64) -> Self {
        self.warmup_cycles = cycles;
        self
    }

    /// Total number of (benchmark × config) jobs.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.benchmarks.len() * self.configs.len()
    }

    /// The cycle budget for the config at `config_index`.
    #[must_use]
    pub fn cycles_for(&self, config_index: usize) -> u64 {
        self.configs[config_index].cycles.unwrap_or(self.cycles)
    }

    /// Checks the campaign is runnable: at least one config and benchmark,
    /// every benchmark known, every config valid with a nonzero cycle
    /// budget, and no duplicate labels (duplicates would make JSON
    /// artifacts ambiguous).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] naming the offending entry.
    pub fn validate(&self) -> Result<(), Error> {
        if self.configs.is_empty() {
            return Err(Error::Config(format!("campaign '{}' has no configs", self.name)));
        }
        if self.benchmarks.is_empty() {
            return Err(Error::Config(format!("campaign '{}' has no benchmarks", self.name)));
        }
        for bench in &self.benchmarks {
            if spec2000::by_name(bench).is_none() {
                return Err(Error::Config(format!("unknown benchmark '{bench}'")));
            }
        }
        for (i, nc) in self.configs.iter().enumerate() {
            nc.config
                .validate()
                .map_err(|e| Error::Config(format!("config '{}': {e}", nc.name)))?;
            if self.cycles_for(i) == 0 {
                let owner = match nc.cycles {
                    Some(_) => format!("config '{}'", nc.name),
                    None => format!("campaign '{}'", self.name),
                };
                return Err(Error::Config(format!("{owner} has a zero cycle budget")));
            }
            if self.configs[..i].iter().any(|other| other.name == nc.name) {
                return Err(Error::Config(format!("duplicate config name '{}'", nc.name)));
            }
        }
        for (i, bench) in self.benchmarks.iter().enumerate() {
            if self.benchmarks[..i].iter().any(|other| other == bench) {
                return Err(Error::Config(format!("duplicate benchmark '{bench}'")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerbalance::experiments;

    #[test]
    fn builder_accumulates() {
        let spec = CampaignSpec::new("t")
            .config("base", experiments::issue_queue(false))
            .config_with_cycles("short", experiments::issue_queue(true), 1_000)
            .benchmark("eon")
            .benchmarks(["gzip", "mesa"])
            .cycles(5_000)
            .seed(7);
        assert_eq!(spec.job_count(), 6);
        assert_eq!(spec.cycles_for(0), 5_000);
        assert_eq!(spec.cycles_for(1), 1_000);
        assert_eq!(spec.seed, 7);
        spec.validate().expect("valid spec");
    }

    #[test]
    fn all_benchmarks_covers_the_suite() {
        let spec =
            CampaignSpec::new("t").config("base", experiments::issue_queue(false)).all_benchmarks();
        assert_eq!(spec.benchmarks.len(), spec2000::ALL.len());
        spec.validate().expect("valid spec");
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let base = || CampaignSpec::new("t").config("base", experiments::issue_queue(false));
        assert!(CampaignSpec::new("empty").benchmark("eon").validate().is_err());
        assert!(base().validate().is_err(), "no benchmarks");
        assert!(base().benchmark("doom3").validate().is_err(), "unknown benchmark");
        assert!(
            base()
                .config("base", experiments::issue_queue(true))
                .benchmark("eon")
                .validate()
                .is_err(),
            "duplicate config name"
        );
        assert!(
            base().benchmark("eon").benchmark("eon").validate().is_err(),
            "duplicate benchmark"
        );
    }

    #[test]
    fn a_zero_cycle_budget_is_refused_naming_its_owner() {
        let base = || CampaignSpec::new("t").config("base", experiments::issue_queue(false));
        let short = |cycles| {
            CampaignSpec::new("t").config_with_cycles(
                "short",
                experiments::issue_queue(true),
                cycles,
            )
        };
        for (spec, expected) in [
            (base().benchmark("eon").cycles(0), "campaign 't' has a zero cycle budget"),
            (short(0).benchmark("eon"), "config 'short' has a zero cycle budget"),
        ] {
            match spec.validate() {
                Err(Error::Config(msg)) => assert_eq!(msg, expected),
                other => panic!("expected '{expected}', got {other:?}"),
            }
        }
        // An override that covers a zero campaign budget leaves nothing at zero.
        short(1_000).benchmark("eon").cycles(0).validate().expect("every config has a budget");
    }

    #[test]
    fn degenerate_core_configs_are_typed_errors_not_panics() {
        let mut no_ways = experiments::issue_queue(false);
        no_ways.core.l1d.ways = 0;
        let mut no_lines = experiments::issue_queue(false);
        no_lines.core.l2.line_bytes = 0;
        let mut huge_rob = experiments::issue_queue(false);
        huge_rob.core.rob_size = 1 << 40;
        for (config, expected) in [
            (no_ways, "l1d: ways and line size"),
            (no_lines, "l2: ways and line size"),
            (huge_rob, "active list size"),
        ] {
            match CampaignSpec::new("t").config("bad", config).benchmark("eon").validate() {
                Err(Error::Config(msg)) => assert!(msg.contains(expected), "{msg}"),
                other => panic!("expected a config error naming '{expected}', got {other:?}"),
            }
        }
    }
}
