//! Ablations for the design choices called out in `DESIGN.md` §5/§6:
//!
//! 1. **Toggle proximity** — activity toggling only pays off near the
//!    thermal limit (the wrap-wire cost is pure overhead far from it).
//! 2. **Thermal time compression** — compressing the RC time constants must
//!    not move steady-state temperatures, only the transient time base.
//! 3. **Register-file staleness solutions** — the paper's solution 1
//!    (write-through with a guard band) vs. solution 2 (write gating plus a
//!    restore burst).
//! 4. **Completely-balanced mapping** — the reference wiring the paper
//!    rejects for its long wires; with fine-grain turnoff it degenerates to
//!    a whole-core stall because every ALU needs every copy.
//! 5. **Thermal-policy sweep** (paper §5 / DESIGN.md §12) — every policy
//!    family ({none, spatial, dvfs, fetch-gate, clock-throttle, combined})
//!    on each constrained floorplan, compared at one thermal budget.
//! 6. **Multi-core sweep** (DESIGN.md §15) — {1, 2, 4} cores × every
//!    scheduler × the paper's three balancing techniques at the 358 K
//!    design point, exposing hot-neighbor interference (die peak rises and
//!    per-core throughput falls as cores tile closer) and the scheduler
//!    deltas (coolest-first spreads heat; threshold defers admission).
//!
//! `--smoke` runs only the policy sweep, on a single floorplan with a
//! short cycle budget — the CI configuration.

use powerbalance::experiments::{self, AluPolicy, PolicyKind};
use powerbalance::{
    FloorplanKind, MappingPolicy, MultiCoreSimulator, SchedulerKind, SimConfig, Task, TaskSet,
};
use powerbalance_bench::BenchArgs;
use powerbalance_harness::CampaignResult;
use powerbalance_workloads::spec2000;

/// Thermal budget for the *smoke* policy sweep: the smoke run is too short
/// to approach the ~363 K free-running steady state, so the limit is pulled
/// below the transient peak to make every policy react within the window.
/// The full-length sweep keeps the default design point (358 K), where the
/// comparison is meaningful: the transient has died out and each policy
/// trades throughput against the same limit.
const SMOKE_MAX_TEMP: f64 = 340.0;

/// The CI smoke budget: enough cycles for several ladder periods and at
/// least one freeze/cooling cycle, small enough for a PR gate.
const SMOKE_CYCLES: u64 = 150_000;

fn main() {
    // `--smoke` is specific to this binary; strip it before the shared
    // front-end parses the rest.
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    argv.retain(|a| a != "--smoke");
    let mut args = match BenchArgs::parse_from(&argv) {
        Ok(parsed) => parsed,
        Err(msg) => {
            let help = msg == "help";
            if !help {
                eprintln!("error: {msg}\n");
            }
            eprintln!("ablation — design-choice ablations from DESIGN.md sections 5, 6, and 12");
            eprintln!(
                "\n  --smoke         policy sweep only: one floorplan, {SMOKE_CYCLES} cycles\n"
            );
            eprintln!("{}", powerbalance_bench::OPTIONS_HELP);
            std::process::exit(i32::from(!help) * 2);
        }
    };
    if smoke {
        args.run.cycles = args.run.cycles.min(SMOKE_CYCLES);
        let campaigns =
            policy_sweep(&args, &[FloorplanKind::IssueConstrained], Some(SMOKE_MAX_TEMP));
        args.finish(&campaigns.iter().collect::<Vec<_>>());
        return;
    }
    let mut campaigns = vec![
        toggle_proximity(&args),
        time_compression(&args),
        staleness_solutions(&args),
        completely_balanced(&args),
    ];
    campaigns.extend(policy_sweep(
        &args,
        &[
            FloorplanKind::IssueConstrained,
            FloorplanKind::AluConstrained,
            FloorplanKind::RegfileConstrained,
        ],
        None,
    ));
    multicore_sweep(&args);
    args.finish(&campaigns.iter().collect::<Vec<_>>());
}

/// Ablation 6: {1, 2, 4} cores × every scheduler × the paper's three
/// balancing techniques, each on that technique's constrained floorplan at
/// the default 358 K limit. The engine is driven directly (not through the
/// campaign harness) so the workload can be *segmented*: each job is split
/// into three bounded segments and the segments of all jobs interleave in
/// the queue, which is what gives the schedulers real decisions to make —
/// re-dispatch onto a hot vs. cool core, admission deferral, and job
/// migration with its fetch-stall penalty. Every cell runs with the
/// runtime checkers armed (per-core energy balance, cross-core energy
/// conservation, coupling antisymmetry); a violation fails the ablation.
fn multicore_sweep(args: &BenchArgs) {
    /// Micro-ops per segment: three segments per job keep each core busy
    /// for roughly half the 1 M-cycle budget at single-core IPC, leaving
    /// idle-cooling windows in which admission decisions differ.
    const SEGMENT_OPS: u64 = 150_000;
    const SEGMENTS_PER_JOB: u64 = 3;

    let profile = spec2000::by_name("eon").expect("eon is a known benchmark");
    let techniques: [(&str, SimConfig); 3] = [
        ("iq-toggling", experiments::issue_queue(true)),
        ("alu-turnoff", experiments::alu(AluPolicy::FineGrainTurnoff)),
        ("rf-turnoff", experiments::regfile(MappingPolicy::Priority, true)),
    ];

    for (slug, base) in techniques {
        println!("Ablation 6: multi-core sweep ({slug}, eon segments, limit 358 K)");
        println!(
            "{:<22} {:>9} {:>8} {:>6} {:>8} {:>9} {:>5} {:>5}",
            "die", "committed", "IPC/core", "done", "peak K", "stallcyc", "migr", "check"
        );
        for cores in [1usize, 2, 4] {
            for scheduler in SchedulerKind::ALL {
                let cfg = SimConfig { cores, scheduler, ..base.clone() };
                let mut sim = MultiCoreSimulator::new(cfg).expect("sweep configs are valid");
                sim.enable_checking().expect("checker arms on a fresh engine");
                // `cores` jobs, each split into bounded segments; queue
                // order interleaves jobs so a job's later segments arrive
                // while other cores are busy or hot. Each segment draws its
                // own trace stream.
                let mut tasks = TaskSet::new(
                    (0..SEGMENTS_PER_JOB).flat_map(|s| (0..cores as u64).map(move |j| (s, j))).map(
                        |(s, j)| {
                            let stream = args.run.seed.wrapping_add(j * 16 + s);
                            Task::ops(j, SEGMENT_OPS, profile.trace(stream))
                        },
                    ),
                );
                let result = sim.run(&mut tasks, args.run.cycles);
                let violations = sim.finish_checking();

                let merged = result.merged();
                println!(
                    "{:<22} {:>9} {:>8.2} {:>3}/{:<2} {:>8.2} {:>9} {:>5} {:>5}",
                    format!("{cores}core+{}", scheduler.name()),
                    merged.committed,
                    merged.ipc / cores as f64,
                    result.tasks_completed,
                    cores as u64 * SEGMENTS_PER_JOB,
                    result.die_peak(),
                    merged.frozen_cycles + merged.throttled_cycles,
                    result.migrations,
                    if violations.is_empty() { "clean" } else { "FAIL" },
                );
                assert!(
                    violations.is_empty(),
                    "invariant violations on {cores}-core {}: {violations:?}",
                    scheduler.name()
                );
            }
        }
        println!();
    }
    println!("(per-core throughput falls and die peak rises with core count — the");
    println!(" lateral-coupling interference a single-core model cannot express;");
    println!(" threshold defers admission onto hot cores, trading committed work");
    println!(" for peak temperature, and placement differences show as migrations)");
}

/// Ablation 5: one campaign per floorplan, sweeping every policy family.
/// Every policy in a campaign shares the same thermal limit (`max_temp`, or
/// the default design point when `None`), so throughput is compared at
/// equal peak temperature.
fn policy_sweep(
    args: &BenchArgs,
    floorplans: &[FloorplanKind],
    max_temp: Option<f64>,
) -> Vec<CampaignResult> {
    let slug = |plan: FloorplanKind| match plan {
        FloorplanKind::Baseline => "baseline",
        FloorplanKind::IssueConstrained => "issue",
        FloorplanKind::AluConstrained => "alu",
        FloorplanKind::RegfileConstrained => "regfile",
    };
    let mut results = Vec::new();
    for &plan in floorplans {
        let mut spec = args.spec(&format!("ablation-policy-{}", slug(plan))).benchmark("eon");
        let mut limit = 0.0;
        for kind in PolicyKind::ALL {
            let mut cfg = experiments::policy(kind, plan);
            if let Some(t) = max_temp {
                cfg.mitigation = cfg.mitigation.with_max_temp(t);
            }
            limit = cfg.mitigation.thresholds.max_temp;
            spec = spec.config(kind.name(), cfg);
        }
        let result = args.run(&spec);

        println!(
            "Ablation 5: thermal-policy sweep (eon, {}-constrained, limit {limit} K)",
            slug(plan)
        );
        println!(
            "{:<15} {:>6} {:>8} {:>8} {:>9} {:>9} {:>8}",
            "policy", "IPC", "peak K", "stalls", "stallcyc", "gatedcyc", "shifts"
        );
        for job in &result.jobs {
            let r = &job.result;
            println!(
                "{:<15} {:>6.2} {:>8.2} {:>8} {:>9} {:>9} {:>8}",
                job.config,
                r.ipc,
                r.peak_temp(),
                r.freezes,
                r.frozen_cycles + r.throttled_cycles,
                r.fetch_gated_cycles,
                r.opp_transitions + r.duty_shifts,
            );
        }
        println!();
        results.push(result);
    }
    results
}

fn toggle_proximity(args: &BenchArgs) -> CampaignResult {
    let mut spec = args.spec("ablation-toggle-proximity").benchmark("eon");
    for proximity in [1.0, 2.0, 4.0, 8.0, 20.0] {
        let mut cfg = experiments::issue_queue(true);
        cfg.mitigation.thresholds.toggle_proximity = proximity;
        spec = spec.config(format!("{proximity} K"), cfg);
    }
    let result = args.run(&spec);

    println!("Ablation 1: toggle proximity window (eon, IQ-constrained)");
    println!("{:<12} {:>6} {:>9} {:>9}", "proximity K", "IPC", "toggles", "stalls");
    for job in &result.jobs {
        let r = &job.result;
        println!("{:<12} {:>6.2} {:>9} {:>9}", job.config, r.ipc, r.toggles, r.freezes);
    }
    println!();
    result
}

fn time_compression(args: &BenchArgs) -> CampaignResult {
    let mut spec = args.spec("ablation-time-compression").benchmark("eon");
    for k in [100.0, 400.0, 1600.0] {
        let mut cfg = experiments::issue_queue(false);
        cfg.package.time_compression = k;
        cfg.mitigation.thresholds.max_temp = 10_000.0; // observe steady state
                                                       // Scale run length inversely with compression so every run covers
                                                       // the same number of thermal time constants.
        let cycles = (800_000.0 * 400.0 / k) as u64;
        spec = spec.config_with_cycles(format!("{k}x"), cfg, cycles);
    }
    let result = args.run(&spec);

    println!("Ablation 2: thermal time compression (eon, base, no stalls)");
    println!("{:<12} {:>10} {:>10}", "compression", "IntQ1 (K)", "hottest");
    for job in &result.jobs {
        let r = &job.result;
        let hottest = r
            .temperatures
            .iter()
            .max_by(|a, b| a.last.partial_cmp(&b.last).expect("temps are finite"))
            .expect("runs record temperatures");
        println!(
            "{:<12} {:>10.2} {:>10}",
            job.config,
            r.last_temp("IntQ1").expect("block exists"),
            hottest.name
        );
    }
    println!("(steady-state temperature must be independent of compression)");
    println!();
    result
}

fn staleness_solutions(args: &BenchArgs) -> CampaignResult {
    let mut spec = args.spec("ablation-rf-staleness").benchmark("eon");
    for (label, stale) in
        [("1: guard band, writes continue", false), ("2: gate writes, restore burst", true)]
    {
        let mut cfg = experiments::regfile(MappingPolicy::Priority, true);
        cfg.mitigation.rf_stale_copy = stale;
        spec = spec.config(label, cfg);
    }
    let result = args.run(&spec);

    println!("Ablation 3: register-file staleness solutions (eon, RF-constrained)");
    println!("{:<34} {:>6} {:>9} {:>8}", "solution", "IPC", "turnoffs", "stalls");
    for job in &result.jobs {
        let r = &job.result;
        println!("{:<34} {:>6.2} {:>9} {:>8}", job.config, r.ipc, r.rf_turnoffs, r.freezes);
    }
    println!();
    result
}

fn completely_balanced(args: &BenchArgs) -> CampaignResult {
    let spec = args
        .spec("ablation-completely-balanced")
        .config(
            "priority + fine-grain turnoff",
            experiments::regfile(MappingPolicy::Priority, true),
        )
        .config(
            "completely balanced (no turnoff)",
            experiments::regfile(MappingPolicy::CompletelyBalanced, false),
        )
        .config(
            "completely balanced + turnoff",
            experiments::regfile(MappingPolicy::CompletelyBalanced, true),
        )
        .benchmark("eon");
    let result = args.run(&spec);

    println!("Ablation 4: completely-balanced mapping (eon, RF-constrained)");
    println!("{:<34} {:>6} {:>9} {:>8}", "wiring", "IPC", "turnoffs", "stalls");
    for job in &result.jobs {
        let r = &job.result;
        println!("{:<34} {:>6.2} {:>9} {:>8}", job.config, r.ipc, r.rf_turnoffs, r.freezes);
    }
    println!("(with completely-balanced wiring, turning off either copy idles every ALU;");
    println!(" the paper rejects this wiring for its cross-datapath wire delay, which a");
    println!(" cycle-level model does not penalize — hence its flattering IPC here)");
    result
}
