//! The `SessionSpec` wire-form contract: for any session a builder chain
//! can express, serializing to JSON and parsing back is lossless (down to
//! re-serialized bytes), the spec's fingerprint equals the builder chain's,
//! and the execution knobs (`--jobs` is sweep-only; `--fast-forward`
//! here) never reach the fingerprint —
//! the cache key names *what* is simulated, not *how fast*. The JSON
//! strings underneath round-trip too, and parse in linear time.

use proptest::prelude::*;

use sa_sim::{Rng64, ScalarKind, ScatterOp};
use sa_telemetry::Json;
use scatter_add_repro::{
    ExecSpec, MachineConfig, NetworkConfig, ScatterKernel, Session, SessionSpec, Topology, Workload,
};

/// One serialize→parse→serialize cycle, asserting structural equality and
/// byte identity (pretty and compact forms both).
fn assert_round_trip(spec: &SessionSpec) {
    let wire = spec.to_json();
    let text = wire.to_string_pretty();
    let parsed_doc = Json::parse(&text).expect("wire form parses as JSON");
    let parsed = SessionSpec::from_json(&parsed_doc).expect("wire form parses as a spec");
    assert_eq!(&parsed, spec, "parsed spec must equal the original");
    assert_eq!(
        parsed.to_json().to_string_pretty(),
        text,
        "re-serialized spec must be byte-identical"
    );
    assert_eq!(
        parsed.to_json().to_string_compact(),
        wire.to_string_compact()
    );
}

/// The spec's fingerprint and the builder chain's must agree, and exec-knob
/// variations must not move it.
fn assert_fingerprint_contract(spec: &SessionSpec) {
    let from_spec = spec.fingerprint().digest();
    let from_builder = spec
        .to_builder()
        .build()
        .expect("spec builds")
        .fingerprint()
        .digest();
    assert_eq!(
        from_spec, from_builder,
        "spec and builder-chain fingerprints must agree"
    );
    for exec in [
        ExecSpec::default(),
        ExecSpec {
            fast_forward: Some(false),
        },
        ExecSpec {
            fast_forward: Some(true),
        },
    ] {
        let mut variant = spec.clone();
        variant.exec = exec;
        assert_eq!(
            variant.fingerprint().digest(),
            from_spec,
            "execution knobs must not change the fingerprint"
        );
        assert_eq!(
            variant
                .to_builder()
                .build()
                .expect("variant builds")
                .fingerprint()
                .digest(),
            from_spec,
            "builder-chain fingerprint must ignore execution knobs too"
        );
    }
}

fn spmv_like_kernel(seed: u64, n: usize, range: u64) -> ScatterKernel {
    let mut rng = Rng64::new(seed);
    ScatterKernel {
        base_word: 8,
        indices: (0..n).map(|_| rng.next_u64() % range).collect(),
        // Raw bits straight from the generator: covers NaNs, infinities,
        // subnormals — the values the spec must carry losslessly.
        values: (0..n).map(|_| rng.next_u64()).collect(),
        kind: ScalarKind::F64,
        op: ScatterOp::Add,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn histogram_specs_round_trip(
        indices in prop::collection::vec(0u64..4096, 1..300),
        base_word in 0u64..64,
        fetch in any::<bool>(),
        probe_interval in prop::sample::select(vec![0u64, 128, 4096]),
    ) {
        let mut spec = SessionSpec::new(Workload::Histogram { base_word, indices });
        spec.fetch = fetch;
        spec.probe_interval = probe_interval;
        assert_round_trip(&spec);
        assert_fingerprint_contract(&spec);
    }

    #[test]
    fn scatter_specs_round_trip_raw_bits(
        seed in any::<u64>(),
        n in 1usize..200,
        op_pick in 0u8..4,
        int_kind in any::<bool>(),
    ) {
        let mut kernel = spmv_like_kernel(seed, n, 512);
        kernel.op = [ScatterOp::Add, ScatterOp::Min, ScatterOp::Max, ScatterOp::Mul]
            [op_pick as usize];
        if int_kind {
            kernel.kind = ScalarKind::I64;
        }
        let spec = SessionSpec::new(Workload::Scatter(kernel));
        assert_round_trip(&spec);
        // Min/Max/Mul over raw random bits still build and fingerprint.
        assert_fingerprint_contract(&spec);
    }

    #[test]
    fn multinode_specs_round_trip(
        seed in any::<u64>(),
        n in 1usize..200,
        nodes_pow in 0u32..4,
        combining in any::<bool>(),
        hypercube in any::<bool>(),
        high_bw in any::<bool>(),
    ) {
        let nodes = 1usize << nodes_pow;
        let mut rng = Rng64::new(seed);
        let trace: Vec<u64> = (0..n).map(|_| rng.next_u64() % 1024).collect();
        // Finite but awkward doubles (quarters), plus a signed range.
        let values: Vec<f64> = (0..n)
            .map(|_| (rng.next_u64() % 4001) as f64 / 4.0 - 500.0)
            .collect();
        let spec = SessionSpec::new(Workload::MultiNode {
            nodes,
            network: if high_bw { NetworkConfig::high() } else { NetworkConfig::low() },
            combining,
            topology: if hypercube { Topology::Hypercube } else { Topology::Flat },
            trace,
            values,
        });
        assert_round_trip(&spec);
        assert_fingerprint_contract(&spec);
    }

    #[test]
    fn config_and_faults_ride_the_wire(
        indices in prop::collection::vec(0u64..256, 1..100),
        cs_entries in 1usize..32,
        mshrs in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut cfg = MachineConfig::merrimac();
        cfg.sa.cs_entries = cs_entries;
        cfg.cache.mshrs_per_bank = mshrs;
        let mut spec = SessionSpec::new(Workload::Histogram { base_word: 0, indices });
        spec.config = cfg;
        spec.faults = Some(
            sa_faults::FaultPlan::parse(&format!(
                r#"{{"schema":"sa-faultplan","version":1,"seed":{seed},
                    "faults":[{{"kind":"ecc_single","period":7}}]}}"#
            ))
            .expect("valid plan"),
        );
        assert_round_trip(&spec);
        assert_fingerprint_contract(&spec);
    }
}

/// The session a spec builds runs identically to the session the builder
/// chain produces — not just the same fingerprint, the same report bytes.
#[test]
fn spec_sessions_run_like_builder_sessions() {
    let indices: Vec<u64> = (0..2000u64).map(|i| (i * 37 + 5) % 640).collect();
    let from_builder = Session::builder()
        .workload(Workload::Histogram {
            base_word: 0,
            indices: indices.clone(),
        })
        .fast_forward(false)
        .build()
        .expect("valid")
        .run();
    let session = Session::builder()
        .workload(Workload::Histogram {
            base_word: 0,
            indices,
        })
        .fast_forward(false)
        .build()
        .expect("valid");
    let spec = session.spec();
    let from_spec = spec.to_builder().build().expect("valid").run();
    assert_eq!(from_builder, from_spec);
    assert_eq!(
        from_builder.to_json().to_string_compact(),
        from_spec.to_json().to_string_compact(),
        "reports must serialize byte-identically"
    );
}

#[test]
fn fingerprints_are_pinned() {
    // Absolute digests: a change to the canonical form or the key salt
    // shows up here even when every relative fingerprint test still agrees,
    // and would orphan every stored cache entry.
    let histogram = SessionSpec::new(Workload::Histogram {
        base_word: 0,
        indices: vec![3, 1, 3],
    });
    assert_eq!(
        histogram.fingerprint().digest(),
        "5dccdc460034688234960655dccb8789ae125878ac95da2e60cab4e6d8aa54fa"
    );
    let multinode = SessionSpec::new(Workload::MultiNode {
        nodes: 2,
        network: NetworkConfig::low(),
        combining: true,
        topology: Topology::Flat,
        trace: vec![0, 5, 9, 5],
        values: vec![1.0, 0.5, 2.0, 0.25],
    });
    assert_eq!(
        multinode.fingerprint().digest(),
        "8ff720cc6e216b6e5399e92b1119f78c3c41cde831c1fee5b9dbe3539fec1d97"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Strings mixing ASCII, multi-byte characters, quotes, backslashes and
    /// control characters survive the writer and the parser unchanged.
    #[test]
    fn json_strings_round_trip(
        chars in prop::collection::vec(
            prop::sample::select(vec!['a', ' ', 'é', '€', '😀', '"', '\\', '\n', '\u{1}']),
            0..80,
        ),
    ) {
        let s: String = chars.into_iter().collect();
        let text = Json::Str(s.clone()).to_string_compact();
        prop_assert_eq!(Json::parse(&text), Ok(Json::Str(s)));
    }
}

/// Parsing is linear in string length: a 1 MiB string value (the shape of
/// an untrusted job body) parses in under two seconds even unoptimized.
#[test]
fn long_json_strings_parse_in_linear_time() {
    let value = "x".repeat(1 << 20);
    let text = format!("{{\"schema\":\"{value}\"}}");
    let start = std::time::Instant::now();
    let doc = Json::parse(&text).expect("valid JSON");
    let elapsed = start.elapsed();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(value.as_str())
    );
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "1 MiB string took {elapsed:?}"
    );
}

/// The text of a valid multinode job with a fault plan and a non-default
/// machine: the base that [`damaged_spec_text_is_an_error_not_a_panic`]
/// truncates and bit-flips.
fn fuzz_base_text() -> String {
    let mut cfg = MachineConfig::merrimac();
    cfg.sa.cs_entries = 16;
    let mut spec = SessionSpec::new(Workload::MultiNode {
        nodes: 4,
        network: NetworkConfig::low(),
        combining: true,
        topology: Topology::Hypercube,
        trace: vec![0, 9, 3, 9, 17, 2],
        values: vec![1.0, -0.5, 2.25, 1e-3, 4.0, 0.125],
    });
    spec.config = cfg;
    spec.probe_interval = 256;
    spec.exec.fast_forward = Some(false);
    spec.faults = Some(
        sa_faults::FaultPlan::parse(
            r#"{"schema":"sa-faultplan","version":1,"seed":3,"cs_timeout":32,
                "faults":[{"kind":"net_nack","period":4,"max":30},
                          {"kind":"cs_stall","period":9,"cycles":5}]}"#,
        )
        .expect("valid plan"),
    );
    spec.to_builder()
        .build()
        .expect("the undamaged job is valid");
    spec.to_json().to_string_compact()
}

/// Parse, validate and build one job text, the path an untrusted job body
/// takes; the result is irrelevant, only that it returns.
fn parse_and_build(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    if let Ok(doc) = Json::parse(&text) {
        if let Ok(spec) = SessionSpec::from_json(&doc) {
            let _ = spec.to_builder().build();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Untrusted job text: a truncation or a single-bit flip of a valid
    /// multinode spec parses, validates and builds to `Ok` or `Err`, never
    /// a panic.
    #[test]
    fn damaged_spec_text_is_an_error_not_a_panic(cut in any::<u64>(), bit in any::<u64>()) {
        let base = fuzz_base_text().into_bytes();
        parse_and_build(&base[..cut as usize % base.len()]);
        let bit = bit as usize % (base.len() * 8);
        let mut flipped = base;
        flipped[bit / 8] ^= 1 << (bit % 8);
        parse_and_build(&flipped);
    }
}
