//! A session runs under exactly its own fault plan: the process-wide
//! default that `--faults` installs must never reach it, or a clean job's
//! cache key (whose `faults` is `null`) could store a faulted report.
//!
//! This file holds a single test in its own binary because it sets the
//! process-wide default plan, which every other test in a shared binary
//! would see.

use sa_sim::Rng64;
use scatter_add_repro::{FaultPlan, NetworkConfig, Session, SessionReport, Topology, Workload};

fn histogram() -> Workload {
    let mut rng = Rng64::new(5);
    Workload::Histogram {
        base_word: 0,
        indices: (0..2048).map(|_| rng.below(256)).collect(),
    }
}

fn multinode() -> Workload {
    let mut rng = Rng64::new(9);
    let trace: Vec<u64> = (0..2048).map(|_| rng.below(1024)).collect();
    let values = (0..trace.len()).map(|i| (i % 7) as f64 + 0.5).collect();
    Workload::MultiNode {
        nodes: 4,
        network: NetworkConfig::low(),
        combining: true,
        topology: Topology::Flat,
        trace,
        values,
    }
}

fn run(workload: Workload) -> SessionReport {
    Session::builder()
        .workload(workload)
        .build()
        .expect("valid session")
        .run()
}

#[test]
fn sessions_without_faults_ignore_the_process_default_plan() {
    let smoke = concat!(env!("CARGO_MANIFEST_DIR"), "/bench/faultplans/smoke.json");
    let plan = FaultPlan::load(std::path::Path::new(smoke)).expect("smoke plan loads");
    assert!(!plan.is_empty());

    sa_faults::set_default_plan(Some(plan));
    let under_default = [run(histogram()), run(multinode())];
    sa_faults::set_default_plan(None);
    let clean = [run(histogram()), run(multinode())];

    for (name, (got, want)) in ["histogram", "multinode"]
        .iter()
        .zip(under_default.iter().zip(&clean))
    {
        assert!(
            got.resilience.is_zero(),
            "{name}: a session without faults injected some: {:?}",
            got.resilience
        );
        assert_eq!(
            got, want,
            "{name}: the process default plan changed the report"
        );
    }
}
