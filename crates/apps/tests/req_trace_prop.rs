//! Property test over the request-lifecycle tracer: across the histogram,
//! SpMV (EBE) and MD scatter traces, in both scatter-add modes (plain and
//! fetching), every sampled request id that is issued retires exactly once
//! and its stage stamps are monotonically non-decreasing in time.

use proptest::prelude::*;
use sa_apps::md::WaterSystem;
use sa_apps::mesh::Mesh;
use sa_apps::spmv::Ebe;
use sa_core::{drive_scatter_probed, NodeMemSys, ScatterKernel};
use sa_sim::{MachineConfig, Rng64};
use sa_telemetry::{Introspect, ReqStage};

#[derive(Clone, Copy, Debug)]
enum Workload {
    Histogram,
    Spmv,
    Md,
}

fn trace_of(workload: Workload, seed: u64) -> Vec<u64> {
    match workload {
        Workload::Histogram => {
            let mut rng = Rng64::new(seed);
            (0..1024).map(|_| rng.below(256)).collect()
        }
        Workload::Spmv => Ebe::new(&Mesh::generate(40, 8, 160, seed)).scatter_trace(),
        Workload::Md => WaterSystem::generate(24, seed).scatter_trace(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_issued_request_retires_once_with_monotone_stamps(
        workload in prop::sample::select(vec![Workload::Histogram, Workload::Spmv, Workload::Md]),
        fetch in any::<bool>(),
        sample in prop::sample::select(vec![1u64, 2, 4]),
        seed in 1u64..64,
    ) {
        let mut cfg = MachineConfig::merrimac();
        cfg.req_sample = sample;
        let kernel = ScatterKernel::histogram(0, trace_of(workload, seed));
        let node = NodeMemSys::new(cfg, 0, false);
        let run = drive_scatter_probed(node, &kernel, fetch, &mut Introspect::off());
        let tracer = run.node.req_tracer();

        prop_assert!(tracer.issued_len() > 0, "sampling 1-in-{sample} sees requests");
        prop_assert_eq!(tracer.live_len(), 0, "every sampled request retired");
        prop_assert_eq!(tracer.issued_len(), tracer.retired_len());
        for rec in tracer.retired_records() {
            prop_assert_eq!(rec.id % sample, 0, "only sampled ids are recorded");
            prop_assert!(rec.is_retired());
            prop_assert_eq!(
                rec.stamps.first().map(|&(s, _)| s),
                Some(ReqStage::Issued),
                "record {} starts at issue", rec.id
            );
            prop_assert_eq!(
                rec.stamps.last().map(|&(s, _)| s),
                Some(ReqStage::Retired),
                "record {} ends at retire", rec.id
            );
            prop_assert!(
                rec.stamps.windows(2).all(|w| w[0].1 <= w[1].1),
                "record {} has non-monotone stamps: {:?}", rec.id, rec.stamps
            );
        }
    }
}
