//! Figure 10: GROMACS water non-bonded kernel — no scatter-add (duplicated
//! computation) vs software scatter-add vs hardware scatter-add; execution
//! cycles, FP operations, memory references.
//!
//! Expected shape (paper, cycles ×1M): no-SA 0.975, SW 3.022, HW 0.553 —
//! hardware gives a 76% speedup over the best software version, which in
//! turn is 3.1× faster than software scatter-add.

use sa_apps::md::{max_force_deviation, run_hw, run_no_sa, run_sw_default, WaterSystem};
use sa_bench::telemetry::BenchRun;
use sa_bench::{header, mcycles, mops};
use sa_sim::MachineConfig;

fn main() {
    let cfg = MachineConfig::merrimac();
    let mut bench = BenchRun::from_env("fig10", &cfg);
    let sys = if bench.quick() {
        WaterSystem::generate(120, 11)
    } else {
        WaterSystem::paper_scale(11)
    };
    header(
        "Figure 10",
        &format!(
            "Water non-bonded forces: {} molecules, {} pairs, {} scatter-add refs",
            sys.molecules(),
            sys.pairs.len(),
            sys.pairs.len() * 18
        ),
    );

    // Three independent simulations, fanned out; reporting stays in the
    // paper's order (no-SA, SW, HW).
    let mut runs = bench.map(vec![0usize, 1, 2], |which| match which {
        0 => run_no_sa(&cfg, &sys),
        1 => run_sw_default(&cfg, &sys),
        _ => run_hw(&cfg, &sys),
    });
    let hw = runs.pop().expect("three runs");
    let sw = runs.pop().expect("three runs");
    let no = runs.pop().expect("three runs");

    let reference = sys.reference_forces();
    for (name, r) in [("no-SA", &no), ("SW", &sw), ("HW", &hw)] {
        let dev = max_force_deviation(&r.forces, &reference);
        assert!(dev < 1e-6, "{name} force deviation {dev}");
    }

    for (name, scope, r) in [
        ("no scatter-add", "no_sa", &no),
        ("SW scatter-add", "sw", &sw),
        ("HW scatter-add", "hw", &hw),
    ] {
        let mut s = bench.scope(scope);
        s.counter("cycles", r.report.cycles);
        s.counter("flops", r.report.flops());
        s.counter("mem_refs", r.report.mem_refs());
        r.report.stats.record(&mut s);
        bench.row(
            name,
            &[
                ("cycles", mcycles(r.report.cycles)),
                ("fp-ops", mops(r.report.flops())),
                ("mem-refs", mops(r.report.mem_refs())),
            ],
        );
    }
    println!(
        "\nHW speedup over best software (no-SA): {:.2}x (paper 1.76x); \
         no-SA speedup over SW scatter-add: {:.2}x (paper 3.1x)",
        no.report.cycles as f64 / hw.report.cycles as f64,
        sw.report.cycles as f64 / no.report.cycles as f64,
    );
    bench.finish();
}
