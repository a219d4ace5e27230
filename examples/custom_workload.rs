//! Build a custom synthetic workload from scratch and sweep its
//! instruction-level parallelism to see when a CPU becomes thermally
//! constrained.
//!
//! Uses the full `WorkloadProfile` builder API: instruction mix, dependency
//! distances, memory locality, phase (burst) structure, and branch
//! character are all knobs.
//!
//! Run with:
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use powerbalance::{experiments, Error, Simulator};
use powerbalance_uarch::Core;
use powerbalance_workloads::{MemLocality, OpMix, PhaseModel, WorkloadProfile};

fn main() -> Result<(), Error> {
    println!("Sweeping dependency distance (ILP) on the issue-queue-constrained CPU:\n");
    println!(
        "{:>9} {:>6} {:>9} {:>9} {:>9} {:>8}",
        "dep-dist", "IPC", "IntQ0(K)", "IntQ1(K)", "occupancy", "stalls"
    );

    for dep in [1.5, 2.5, 4.0, 8.0, 16.0] {
        // A cache-friendly integer workload whose only variable is how far
        // apart dependent instructions are.
        let profile = WorkloadProfile::builder(format!("custom-dep{dep}"))
            .mix(OpMix::integer_heavy())
            .dependency_distance(dep)
            .locality(MemLocality::cache_friendly())
            .hard_branches(0.01)
            .phases(PhaseModel::steady())
            .build();

        let config = experiments::issue_queue(false);
        let mut sim = Simulator::new(config.clone())?;
        let result = sim.run(&mut profile.trace(7), 500_000);

        // Mean integer issue-queue occupancy, per cycle: no mitigation
        // fires at these temperatures, so a bare core stepped over the
        // same trace runs exactly the simulator's pipeline.
        let mut core = Core::new(config.core).map_err(Error::Config)?;
        let mut trace = profile.trace(7);
        let mut occupied = 0;
        for _ in 0..result.cycles {
            core.cycle(&mut trace);
            occupied += core.int_iq().occupancy();
        }
        let occupancy = occupied as f64 / result.cycles as f64;
        println!(
            "{:>9.1} {:>6.2} {:>9.1} {:>9.1} {:>9.1} {:>8}",
            dep,
            result.ipc,
            result.avg_temp("IntQ0").expect("block exists"),
            result.avg_temp("IntQ1").expect("block exists"),
            occupancy,
            result.freezes,
        );
    }

    println!();
    println!("Short dependency chains keep the queue full but issue slowly; long");
    println!("chains drain the queue faster than dispatch can refill it. The hot");
    println!("spot follows the occupancy, which is why the paper's techniques key");
    println!("off utilization rather than raw IPC.");
    Ok(())
}
