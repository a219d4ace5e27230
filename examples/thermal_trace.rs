//! Display a thermal transient: watch the issue queue heat up,
//! hit the 358 K limit, stall, cool, and repeat — and how activity toggling
//! changes the trajectory.
//!
//! Run with:
//! ```sh
//! cargo run --release --example thermal_trace
//! ```

use powerbalance::{experiments, Error, Simulator};
use powerbalance_workloads::spec2000;

fn main() -> Result<(), Error> {
    for (label, toggling) in [("base", false), ("activity toggling", true)] {
        let mut sim = Simulator::new(experiments::issue_queue(toggling))?;
        let profile = spec2000::by_name("eon").expect("known benchmark");
        let mut trace = profile.trace(42);
        let q1 = sim.floorplan().index_of("IntQ1").expect("block exists");

        println!("== {label}: IntQ1 temperature over time (eon) ==");
        println!("   each row = 30k cycles; bar spans 345..360 K; '|' marks the 358 K limit");
        // A run continues where the last call stopped, so stepping 30k
        // cycles at a time and reading the die in between is the same run
        // as one 600k-cycle call.
        for _ in 0..20 {
            let cycles = sim.run(&mut trace, 30_000).cycles;
            let t = sim.thermal().temperatures()[q1];
            let width = (((t - 345.0) / 15.0) * 50.0).clamp(0.0, 50.0) as usize;
            let limit = (((358.0 - 345.0) / 15.0) * 50.0) as usize;
            let mut bar: Vec<char> = vec![' '; 51];
            for slot in bar.iter_mut().take(width) {
                *slot = '#';
            }
            bar[limit] = '|';
            let bar: String = bar.into_iter().collect();
            println!("{cycles:>8} {bar} {t:6.1} K");
        }
        let result = sim.result();
        println!(
            "   IPC {:.2}, {} stalls, {} toggles\n",
            result.ipc, result.freezes, result.toggles
        );
    }
    Ok(())
}
