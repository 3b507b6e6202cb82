//! Memoization properties of the content-addressed result cache: for any
//! workload, machine configuration, and seed, a cache-disabled run, a cold
//! cached run, and a warm cached run produce identical [`SessionReport`]s
//! (down to serialized bytes), and the warm run is a pure replay — one
//! lookup hit, zero simulation.

use std::sync::Arc;

use proptest::prelude::*;

use sa_sim::Rng64;
use scatter_add_repro::{
    FaultPlan, MachineConfig, NetworkConfig, ResultCache, Session, SessionBuilder, Topology,
    Workload,
};

/// Run the same session three ways — no cache, cold cache, warm cache — and
/// assert the byte-identity and zero-simulation contracts.
fn assert_replay(mk: impl Fn() -> SessionBuilder) {
    let direct = mk().build().expect("valid session").run();

    let digest = mk().build().expect("valid session").fingerprint().digest();
    let dir = std::env::temp_dir().join(format!("sa-memo-prop-{digest}"));
    let _ = std::fs::remove_dir_all(&dir);

    let cold_cache = Arc::new(ResultCache::open(&dir).expect("open cache"));
    let cold = mk()
        .cache(cold_cache.clone())
        .build()
        .expect("valid session")
        .run();
    assert_eq!(
        (cold_cache.hits(), cold_cache.misses(), cold_cache.stores()),
        (0, 1, 1),
        "cold run must miss once and store once"
    );

    // A fresh handle on the same directory: its counters start at zero, so
    // a (1, 0, 0) outcome proves the warm run simulated nothing.
    let warm_cache = Arc::new(ResultCache::open(&dir).expect("open cache"));
    let warm = mk()
        .cache(warm_cache.clone())
        .build()
        .expect("valid session")
        .run();
    assert_eq!(
        (warm_cache.hits(), warm_cache.misses(), warm_cache.stores()),
        (1, 0, 0),
        "warm run must be a pure hit with zero simulation"
    );

    assert_eq!(direct, cold, "cold cached run must equal the uncached run");
    assert_eq!(direct, warm, "warm replay must equal the uncached run");
    assert_eq!(
        direct.to_json().to_string_compact(),
        warm.to_json().to_string_compact(),
        "serialized reports must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn any_single_node_run_replays_from_cache(
        indices in prop::collection::vec(0u64..512, 1..200),
        cs_entries in 1usize..32,
        mshrs in 1usize..8,
        fetch in any::<bool>(),
    ) {
        let mut cfg = MachineConfig::merrimac();
        cfg.sa.cs_entries = cs_entries;
        cfg.cache.mshrs_per_bank = mshrs;
        assert_replay(|| {
            Session::builder()
                .config(cfg)
                .workload(Workload::Histogram {
                    base_word: 0,
                    indices: indices.clone(),
                })
                .fetch(fetch)
        });
    }

    #[test]
    fn any_multinode_run_replays_from_cache(
        trace in prop::collection::vec(0u64..4096, 1..200),
        seed in any::<u64>(),
        nodes_pow in 0u32..3,
        combining in any::<bool>(),
    ) {
        let mut rng = Rng64::new(seed);
        let values: Vec<f64> = trace
            .iter()
            .map(|_| rng.below(1 << 10) as f64 * 0.25)
            .collect();
        let nodes = 1usize << nodes_pow;
        assert_replay(|| {
            Session::builder()
                .workload(Workload::MultiNode {
                    nodes,
                    network: NetworkConfig::low(),
                    combining,
                    topology: Topology::Flat,
                    trace: trace.clone(),
                    values: values.clone(),
                })
        });
    }
}

/// SHA-256 of a report's compact wire bytes: the bytes the result cache
/// stores and the served result body embeds.
fn wire_digest(report: &scatter_add_repro::SessionReport) -> String {
    sa_memo::sha256_hex(report.to_json().to_string_compact().as_bytes())
}

#[test]
fn single_node_report_wire_bytes_are_pinned() {
    let report = Session::builder()
        .workload(Workload::Histogram {
            base_word: 3,
            indices: (0..700u64).map(|i| (i * 17) % 96).collect(),
        })
        .build()
        .expect("valid session")
        .run();
    assert_eq!(
        wire_digest(&report),
        "b8373b665a43f03873703228fbfa8084c55ac3c18c97c36a3b0e1192646eee95"
    );
}

#[test]
fn multinode_faulty_report_wire_bytes_are_pinned() {
    let plan = FaultPlan::parse(
        r#"{"schema":"sa-faultplan","version":1,"seed":5,"cs_timeout":32,"faults":[
            {"kind":"net_nack","period":4,"max":30},
            {"kind":"net_drop","period":9,"max":15},
            {"kind":"ecc_single","period":6}
        ]}"#,
    )
    .expect("valid plan");
    let report = Session::builder()
        .workload(Workload::MultiNode {
            nodes: 4,
            network: NetworkConfig::low(),
            combining: true,
            topology: Topology::Flat,
            trace: (0..1500u64).map(|i| (i * 13) % 256).collect(),
            values: (0..1500).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect(),
        })
        .faults(plan)
        .build()
        .expect("valid session")
        .run();
    assert!(!report.resilience.is_zero(), "the plan must fire");
    assert_eq!(
        wire_digest(&report),
        "26d40b755457ce95b03b517fd522725d7507bf495d72d931834d2ddfa5efb4d7"
    );
}
