//! `powerbalance` — command-line driver for the simulator.
//!
//! ```text
//! powerbalance run --bench eon --floorplan issue --toggling
//! powerbalance run --bench perlbmk --floorplan alu --turnoff --cycles 2000000
//! powerbalance run --bench eon --floorplan regfile --mapping priority --turnoff
//! powerbalance run --bench eon --bench gzip --floorplan issue --json out.json
//! powerbalance run --bench eon --floorplan issue --policy dvfs
//! powerbalance run --bench eon --cores 4 --scheduler coolest-first
//! powerbalance serve --addr 127.0.0.1:8484 --queue-depth 16
//! powerbalance list
//! ```
//!
//! Argument parsing is hand-rolled (the workspace admits no CLI
//! dependencies); every flag maps 1:1 onto [`powerbalance::SimConfig`].
//! Execution and reporting go through `powerbalance-harness`: the run is a
//! one-config campaign, so `--json` artifacts, `--threads`, and the
//! wall-time/throughput metrics are the same ones the bench binaries emit.

use powerbalance::{
    experiments::{self, AluPolicy, PolicyKind},
    FloorplanKind, MappingPolicy, MitigationConfig, SchedulerKind, SimConfig,
};
use powerbalance_harness::{run_campaign, JobResult, RunFlags};
use powerbalance_server::ServerConfig;
use powerbalance_workloads::spec2000;
use std::process::ExitCode;

const USAGE: &str = "\
powerbalance — thermal/performance simulator (MICRO 2005 reproduction)

USAGE:
  powerbalance list
      List the 22 available benchmarks.

  powerbalance run [FLAGS]
      --bench <name>        benchmark to run (required; see `list`);
                            repeat the flag to run several in one campaign
      --floorplan <kind>    baseline | issue | alu | regfile  [baseline]
      --cores <n>           cores tiled on the die (1..=8)    [1]
                            each core runs its own workload copy
                            (seed, seed+1, ...) under one shared
                            thermal solve with lateral coupling
      --scheduler <s>       round-robin | coolest-first | threshold
                            segment-placement policy for multi-core
                            runs; ignored at --cores 1  [round-robin]
      --cycles <n>          cycles to simulate                [1000000]
      --seed <n>            workload seed                     [42]
      --toggling            enable issue-queue activity toggling
      --turnoff             enable fine-grain turnoff (ALUs + RF copies)
      --round-robin         ideal round-robin ALU scheduling
      --mapping <m>         balanced | priority | complete    [balanced]
      --policy <p>          mitigation-policy preset: none | spatial |
                            dvfs | fetch-gate | clock-throttle | combined;
                            owns the whole mitigation layer, so it rejects
                            --toggling/--turnoff/--round-robin/--mapping
      --max-temp <K>        thermal limit in kelvin           [358]
      --fidelity <f>        exact | fast                      [exact]
                            fast = interval engine: detailed warmup
                            prefix, then one detailed sampling window
                            per macro window with analytic thermal
                            advance in between (accuracy contract in
                            tests/fidelity_contract.rs)
      --threads <n>         worker-pool size for multi-benchmark runs
                            [POWERBALANCE_THREADS or all cores]
      --json <path>         write the full campaign results as JSON
      --warmup <n>          mitigation-free warmup cycles before the
                            measured run (shared across runs that differ
                            only in mitigation)                [0]
      --checkpoint-dir <d>  persist warmup snapshots under <d>
      --resume              load matching warmup snapshots from
                            --checkpoint-dir instead of recomputing

  powerbalance serve [FLAGS]
      Run the simulation service: accepts JSON campaign submissions over
      HTTP, with a bounded queue, Prometheus /metrics, and graceful
      shutdown on SIGINT/SIGTERM or POST /v1/shutdown.
      --addr <host:port>    listen address                [127.0.0.1:8484]
      --queue-depth <n>     bounded submission queue size [16]
      --workers <n>         campaigns run concurrently    [2]
      --threads <n>         worker threads inside each campaign
                            [POWERBALANCE_THREADS or all cores]
      --job-timeout <secs>  per-job wall-clock budget; 0 disables [600]
      --journal-dir <d>     append campaign lifecycle records to a
                            crash-safe journal under <d>; on restart,
                            unfinished campaigns within the limits
                            are re-queued, the rest marked Failed

EXAMPLES:
  powerbalance run --bench eon --floorplan issue --toggling
  powerbalance run --bench perlbmk --floorplan alu --turnoff
  powerbalance run --bench eon --bench gzip --floorplan issue --json out.json
  powerbalance run --bench eon --floorplan issue --policy dvfs
  powerbalance run --bench eon --cores 4 --scheduler coolest-first
  powerbalance serve --addr 127.0.0.1:0 --queue-depth 8 --workers 1
  powerbalance serve --addr 127.0.0.1:8484 --journal-dir /var/lib/powerbalance
";

/// Parses the verb and its flags, then runs it.
fn dispatch(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("list") => {
            for name in spec2000::ALL {
                println!("{name}");
            }
            Ok(())
        }
        Some("run") => parse_run(&args[1..]).and_then(run),
        Some("serve") => parse_serve(&args[1..]).and_then(serve),
        Some(other) => Err(format!("unknown command '{other}'")),
        None => Err("no command given".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

struct RunArgs {
    benches: Vec<String>,
    label: String,
    config: SimConfig,
    flags: RunFlags,
}

/// The shared flags read as fields of the parsed command line.
impl std::ops::Deref for RunArgs {
    type Target = RunFlags;

    fn deref(&self) -> &RunFlags {
        &self.flags
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut benches = Vec::new();
    let mut floorplan = FloorplanKind::Baseline;
    let mut cores = 1usize;
    let mut scheduler = SchedulerKind::RoundRobin;
    let mut flags = RunFlags::default();
    let mut toggling = false;
    let mut turnoff = false;
    let mut round_robin = false;
    let mut mapping: Option<MappingPolicy> = None;
    let mut policy: Option<PolicyKind> = None;
    let mut max_temp: Option<f64> = None;
    let mut fidelity = powerbalance::Fidelity::Exact;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flags.take(flag, &mut it)? {
            continue;
        }
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--bench" => benches.push(value("--bench")?),
            "--floorplan" => {
                floorplan = match value("--floorplan")?.as_str() {
                    "baseline" => FloorplanKind::Baseline,
                    "issue" => FloorplanKind::IssueConstrained,
                    "alu" => FloorplanKind::AluConstrained,
                    "regfile" => FloorplanKind::RegfileConstrained,
                    other => return Err(format!("unknown floorplan '{other}'")),
                }
            }
            "--cores" => cores = value("--cores")?.parse().map_err(|e| format!("--cores: {e}"))?,
            "--scheduler" => {
                let name = value("--scheduler")?;
                scheduler = SchedulerKind::from_name(&name).ok_or_else(|| {
                    format!("unknown scheduler '{name}' (round-robin | coolest-first | threshold)")
                })?;
            }
            "--toggling" => toggling = true,
            "--turnoff" => turnoff = true,
            "--round-robin" => round_robin = true,
            "--mapping" => {
                mapping = Some(match value("--mapping")?.as_str() {
                    "balanced" => MappingPolicy::Balanced,
                    "priority" => MappingPolicy::Priority,
                    "complete" => MappingPolicy::CompletelyBalanced,
                    other => return Err(format!("unknown mapping '{other}'")),
                })
            }
            "--policy" => policy = Some(PolicyKind::from_name(&value("--policy")?)?),
            "--fidelity" => {
                let name = value("--fidelity")?;
                fidelity = powerbalance::Fidelity::from_name(&name)
                    .ok_or_else(|| format!("unknown fidelity '{name}' (exact | fast)"))?;
            }
            "--max-temp" => {
                max_temp =
                    Some(value("--max-temp")?.parse().map_err(|e| format!("--max-temp: {e}"))?)
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }

    if benches.is_empty() {
        return Err("--bench is required".to_string());
    }
    for bench in &benches {
        if spec2000::by_name(bench).is_none() {
            return Err(format!("unknown benchmark '{bench}' (see `powerbalance list`)"));
        }
    }

    let config = if let Some(kind) = policy {
        // A policy preset is the whole mitigation layer; mixing it with the
        // per-technique flags would silently clobber one or the other.
        if toggling || turnoff || round_robin || mapping.is_some() {
            return Err(
                "--policy owns the mitigation layer; drop --toggling/--turnoff/--round-robin/--mapping"
                    .to_string(),
            );
        }
        let mut config = experiments::policy(kind, floorplan);
        if let Some(t) = max_temp {
            // Rebuilds the trip tables and ladder trips around the new
            // limit, not just the freeze threshold.
            config.mitigation = config.mitigation.with_max_temp(t);
        }
        config
    } else {
        let mut config = SimConfig {
            floorplan,
            mitigation: MitigationConfig {
                activity_toggling: toggling,
                alu_turnoff: turnoff,
                rf_turnoff: turnoff,
                ..MitigationConfig::baseline()
            },
            ..SimConfig::default()
        };
        if let Some(t) = max_temp {
            config.mitigation.thresholds.max_temp = t;
        }
        config.core.mapping = mapping.unwrap_or(MappingPolicy::Balanced);
        if round_robin {
            // The ideal scheduler implies fine-grain turnoff availability, as
            // in the paper's Figure 7 configuration.
            config.core.select_policy = powerbalance::SelectPolicy::RoundRobin;
            config.mitigation.alu_turnoff = true;
            let _ = AluPolicy::RoundRobin; // documented linkage to the preset
        }
        config
    };
    let mut config = config;
    config.fidelity = fidelity;
    config.cores = cores;
    config.scheduler = scheduler;
    config.validate()?;

    // A short config label for reports and JSON artifacts, e.g.
    // "issue+toggling".
    let mut label = match floorplan {
        FloorplanKind::Baseline => "baseline",
        FloorplanKind::IssueConstrained => "issue",
        FloorplanKind::AluConstrained => "alu",
        FloorplanKind::RegfileConstrained => "regfile",
    }
    .to_string();
    if let Some(kind) = policy {
        label.push('+');
        label.push_str(kind.name());
    }
    if toggling {
        label.push_str("+toggling");
    }
    if turnoff {
        label.push_str("+turnoff");
    }
    if round_robin {
        label.push_str("+round-robin");
    }
    if fidelity == powerbalance::Fidelity::Fast {
        label.push_str("+fast");
    }
    if cores > 1 {
        // The scheduler only matters on a multi-core die, so the label
        // carries it exactly when it carries the core count.
        label.push_str(&format!("+{cores}core+{}", scheduler.name()));
    }

    flags.check()?;

    Ok(RunArgs { benches, label, config, flags })
}

fn run(args: RunArgs) -> Result<(), String> {
    let spec = args.flags.spec("cli-run").config(&args.label, args.config).benchmarks(args.benches);
    let options = args.flags.runner_options(spec.job_count() > 1);
    let campaign = run_campaign(&spec, &options).map_err(|e| e.to_string())?;

    for (i, job) in campaign.jobs.iter().enumerate() {
        if i > 0 {
            println!();
        }
        report(job);
    }
    if let Some(path) = &args.flags.json {
        campaign.write_json(path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

fn report(job: &JobResult) {
    let result = &job.result;
    println!("benchmark:        {}", job.bench);
    println!("config:           {}", job.config);
    println!("cycles:           {}", result.cycles);
    println!("committed:        {}", result.committed);
    println!("IPC:              {:.3}", result.ipc);
    println!(
        "thermal stalls:   {} ({} cycles, {:.1}% of run)",
        result.freezes,
        result.frozen_cycles,
        result.frozen_cycles as f64 / result.cycles as f64 * 100.0
    );
    println!("toggles:          {}", result.toggles);
    println!("unit turnoffs:    {}", result.alu_turnoffs);
    println!("rf-copy turnoffs: {}", result.rf_turnoffs);
    // Global-policy counters only appear when a policy used them, so
    // spatial-only reports keep their familiar shape.
    if result.opp_transitions > 0 {
        println!("OPP transitions:  {}", result.opp_transitions);
    }
    if result.duty_shifts > 0 {
        println!("duty shifts:      {}", result.duty_shifts);
    }
    if result.throttled_cycles > 0 {
        println!(
            "throttled:        {} cycles ({:.1}% of run)",
            result.throttled_cycles,
            result.throttled_cycles as f64 / result.cycles as f64 * 100.0
        );
    }
    if result.fetch_gated_cycles > 0 {
        println!(
            "fetch-gated:      {} cycles ({:.1}% of run)",
            result.fetch_gated_cycles,
            result.fetch_gated_cycles as f64 / result.cycles as f64 * 100.0
        );
    }
    println!("mispredict rate:  {:.2}%", result.mispredict_rate * 100.0);
    println!("L1D miss rate:    {:.2}%", result.l1d_miss_rate * 100.0);
    println!(
        "wall time:        {:.0} ms ({:.1} Mcycles/s)",
        job.wall_nanos as f64 / 1e6,
        job.sim_cycles_per_sec / 1e6
    );
    println!();
    println!("{:<10} {:>9} {:>9}", "block", "avg (K)", "max (K)");
    let mut temps = result.temperatures.clone();
    temps.sort_by(|a, b| b.avg.partial_cmp(&a.avg).expect("finite temps"));
    for t in temps.iter().take(10) {
        println!("{:<10} {:>9.1} {:>9.1}", t.name, t.avg, t.max);
    }
}

struct ServeArgs {
    config: ServerConfig,
}

fn parse_serve(args: &[String]) -> Result<ServeArgs, String> {
    let mut config = ServerConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--queue-depth" => {
                config.service.queue_depth =
                    value("--queue-depth")?.parse().map_err(|e| format!("--queue-depth: {e}"))?;
                if config.service.queue_depth == 0 {
                    return Err("--queue-depth must be at least 1".to_string());
                }
            }
            "--workers" => {
                config.service.workers =
                    value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?;
                if config.service.workers == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
            }
            "--threads" => {
                config.service.campaign_threads =
                    Some(value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?)
            }
            "--job-timeout" => {
                let secs: u64 =
                    value("--job-timeout")?.parse().map_err(|e| format!("--job-timeout: {e}"))?;
                config.service.job_timeout =
                    (secs > 0).then(|| std::time::Duration::from_secs(secs));
            }
            "--journal-dir" => {
                config.service.journal_dir = Some(std::path::PathBuf::from(value("--journal-dir")?))
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(ServeArgs { config })
}

fn serve(args: ServeArgs) -> Result<(), String> {
    powerbalance_server::signal::install();
    let handle = powerbalance_server::Server::start(args.config)
        .map_err(|e| format!("starting the server: {e}"))?;
    eprintln!("powerbalance-server listening on http://{}", handle.addr());
    eprintln!("stop with SIGINT/SIGTERM or POST /v1/shutdown");
    while !powerbalance_server::signal::triggered() && !handle.shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("shutting down: draining queued and running campaigns");
    handle.shutdown();
    eprintln!("bye");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn usage_prints_the_run_defaults() {
        use powerbalance_harness::{DEFAULT_CYCLES, DEFAULT_SEED};
        for default in [format!("[{DEFAULT_CYCLES}]"), format!("[{DEFAULT_SEED}]")] {
            assert!(USAGE.contains(&default), "USAGE must show {default}");
        }
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_run(&strs(&[
            "--bench",
            "eon",
            "--floorplan",
            "issue",
            "--toggling",
            "--cycles",
            "5000",
            "--seed",
            "7",
            "--max-temp",
            "360",
            "--threads",
            "2",
            "--json",
            "out.json",
        ]))
        .expect("valid command line");
        assert_eq!(a.benches, vec!["eon"]);
        assert_eq!(a.cycles, 5000);
        assert_eq!(a.seed, 7);
        assert_eq!(a.threads, Some(2));
        assert_eq!(a.json.as_deref(), Some(std::path::Path::new("out.json")));
        assert_eq!(a.label, "issue+toggling");
        assert_eq!(a.config.floorplan, FloorplanKind::IssueConstrained);
        assert!(a.config.mitigation.activity_toggling);
        assert!((a.config.mitigation.thresholds.max_temp - 360.0).abs() < 1e-9);
    }

    #[test]
    fn a_zero_cycle_budget_is_an_error() {
        let args = parse_run(&strs(&["--bench", "gzip", "--cycles", "0"])).expect("parses");
        let err = run(args).expect_err("a zero budget must not run");
        assert!(err.contains("zero cycle budget"), "{err}");
    }

    #[test]
    fn bench_flag_repeats_into_a_campaign() {
        let a = parse_run(&strs(&["--bench", "eon", "--bench", "gzip"])).expect("valid");
        assert_eq!(a.benches, vec!["eon", "gzip"]);
    }

    #[test]
    fn rejects_unknown_benchmark_and_flags() {
        assert!(parse_run(&strs(&["--bench", "doom"])).is_err());
        for flag in ["--frobnicate", "--no-warm-cache"] {
            assert!(
                parse_run(&strs(&["--bench", "eon", flag])).is_err(),
                "{flag} is not a run flag"
            );
        }
        assert!(parse_run(&strs(&[])).is_err(), "--bench is required");
    }

    #[test]
    fn round_robin_implies_turnoff() {
        let a = parse_run(&strs(&["--bench", "perlbmk", "--round-robin"])).expect("valid");
        assert!(a.config.mitigation.alu_turnoff);
        assert_eq!(a.config.core.select_policy, powerbalance::SelectPolicy::RoundRobin);
    }

    #[test]
    fn warmup_and_checkpoint_flags_parse() {
        let a = parse_run(&strs(&[
            "--bench",
            "eon",
            "--warmup",
            "300000",
            "--checkpoint-dir",
            "ckpt",
            "--resume",
        ]))
        .expect("valid");
        assert_eq!(a.warmup, 300_000);
        assert_eq!(a.checkpoint_dir.as_deref(), Some(std::path::Path::new("ckpt")));
        assert!(a.resume);

        let b = parse_run(&strs(&["--bench", "eon"])).expect("valid");
        assert_eq!(b.warmup, 0, "warmup defaults off");

        assert!(
            parse_run(&strs(&["--bench", "eon", "--resume"])).is_err(),
            "--resume without --checkpoint-dir is an error"
        );
    }

    #[test]
    fn serve_flags_parse() {
        let a = parse_serve(&strs(&[
            "--addr",
            "0.0.0.0:9000",
            "--queue-depth",
            "8",
            "--workers",
            "3",
            "--threads",
            "2",
            "--job-timeout",
            "30",
        ]))
        .expect("valid serve command line");
        assert_eq!(a.config.addr, "0.0.0.0:9000");
        assert_eq!(a.config.service.queue_depth, 8);
        assert_eq!(a.config.service.workers, 3);
        assert_eq!(a.config.service.campaign_threads, Some(2));
        assert_eq!(a.config.service.job_timeout, Some(std::time::Duration::from_secs(30)));

        let b = parse_serve(&[]).expect("defaults are valid");
        assert_eq!(b.config.addr, "127.0.0.1:8484");

        let c = parse_serve(&strs(&["--job-timeout", "0"])).expect("0 disables the timeout");
        assert_eq!(c.config.service.job_timeout, None);

        assert!(parse_serve(&strs(&["--queue-depth", "0"])).is_err());
        assert!(parse_serve(&strs(&["--workers", "0"])).is_err());
        for flag in ["--frobnicate", "--max-batch"] {
            assert!(parse_serve(&strs(&[flag, "4"])).is_err(), "{flag} is not a serve flag");
        }

        let d =
            parse_serve(&strs(&["--journal-dir", "/tmp/pb-journal"])).expect("journal dir parses");
        assert_eq!(d.config.service.journal_dir, Some(std::path::PathBuf::from("/tmp/pb-journal")));
        assert_eq!(b.config.service.journal_dir, None, "journalling is opt-in");
    }

    #[test]
    fn worker_is_an_unknown_command() {
        assert_eq!(
            dispatch(&strs(&["worker", "--coordinator", "127.0.0.1:8484"])),
            Err("unknown command 'worker'".to_string())
        );
        assert!(!USAGE.contains("powerbalance worker"));
    }

    #[test]
    fn policy_presets_parse_and_exclude_technique_flags() {
        for kind in PolicyKind::ALL {
            let a = parse_run(&strs(&[
                "--bench",
                "eon",
                "--floorplan",
                "alu",
                "--policy",
                kind.name(),
            ]))
            .expect("valid");
            assert_eq!(a.config, experiments::policy(kind, FloorplanKind::AluConstrained));
            assert_eq!(a.label, format!("alu+{}", kind.name()));
        }

        // --max-temp re-anchors the preset's trip tables, not just the
        // freeze threshold.
        let a = parse_run(&strs(&["--bench", "eon", "--policy", "dvfs", "--max-temp", "340"]))
            .expect("valid");
        assert!((a.config.mitigation.thresholds.max_temp - 340.0).abs() < 1e-9);
        let expected = experiments::policy(PolicyKind::Dvfs, FloorplanKind::Baseline);
        assert_eq!(a.config.mitigation, expected.mitigation.with_max_temp(340.0));

        assert!(parse_run(&strs(&["--bench", "eon", "--policy", "thermal-fairy"])).is_err());
        for conflict in ["--toggling", "--turnoff", "--round-robin"] {
            assert!(
                parse_run(&strs(&["--bench", "eon", "--policy", "spatial", conflict])).is_err(),
                "{conflict} must not combine with --policy"
            );
        }
        assert!(parse_run(&strs(&[
            "--bench",
            "eon",
            "--policy",
            "spatial",
            "--mapping",
            "priority"
        ]))
        .is_err());
    }

    #[test]
    fn fidelity_flag_parses_and_tags_the_label() {
        let a = parse_run(&strs(&["--bench", "eon", "--fidelity", "fast"])).expect("valid");
        assert_eq!(a.config.fidelity, powerbalance::Fidelity::Fast);
        assert_eq!(a.label, "baseline+fast");

        let b = parse_run(&strs(&["--bench", "eon", "--fidelity", "exact"])).expect("valid");
        assert_eq!(b.config.fidelity, powerbalance::Fidelity::Exact);
        assert_eq!(b.label, "baseline", "exact is the default and stays untagged");
        assert_eq!(b.config, SimConfig::default());

        // Composes with policy presets.
        let c = parse_run(&strs(&[
            "--bench",
            "eon",
            "--floorplan",
            "alu",
            "--policy",
            "dvfs",
            "--fidelity",
            "fast",
        ]))
        .expect("valid");
        assert_eq!(c.config.fidelity, powerbalance::Fidelity::Fast);
        assert_eq!(c.label, "alu+dvfs+fast");

        assert!(parse_run(&strs(&["--bench", "eon", "--fidelity", "sloppy"])).is_err());
    }

    #[test]
    fn cores_and_scheduler_flags_parse() {
        let a =
            parse_run(&strs(&["--bench", "eon", "--cores", "4", "--scheduler", "coolest-first"]))
                .expect("valid");
        assert_eq!(a.config.cores, 4);
        assert_eq!(a.config.scheduler, SchedulerKind::CoolestFirst);
        assert_eq!(a.label, "baseline+4core+coolest-first");

        let b = parse_run(&strs(&["--bench", "eon"])).expect("valid");
        assert_eq!(b.config.cores, 1);
        assert_eq!(b.config.scheduler, SchedulerKind::RoundRobin);
        assert_eq!(b.label, "baseline", "single-core stays untagged");

        // Composes with policy presets; the config must round-trip validate.
        let c = parse_run(&strs(&["--bench", "eon", "--policy", "dvfs", "--cores", "2"]))
            .expect("valid");
        assert_eq!(c.config.cores, 2);
        assert_eq!(c.label, "baseline+dvfs+2core+round-robin");

        assert!(parse_run(&strs(&["--bench", "eon", "--cores", "0"])).is_err());
        assert!(parse_run(&strs(&["--bench", "eon", "--cores", "9"])).is_err());
        assert!(parse_run(&strs(&["--bench", "eon", "--scheduler", "hottest-first"])).is_err());
    }

    #[test]
    fn mapping_values_parse() {
        for (name, policy) in [
            ("balanced", MappingPolicy::Balanced),
            ("priority", MappingPolicy::Priority),
            ("complete", MappingPolicy::CompletelyBalanced),
        ] {
            let a = parse_run(&strs(&["--bench", "eon", "--mapping", name])).expect("valid");
            assert_eq!(a.config.core.mapping, policy);
        }
    }
}
