//! Integration tests spanning the whole workspace: every implementation of
//! scatter-add (hardware unit, sensitivity rig, sort+scan, privatization,
//! coloring, multi-node direct, multi-node combining) must compute the same
//! sums, and the timing relationships the paper reports must hold.

use sa_apps::histogram::{
    run_hw, run_privatization_default, run_sort_scan_default, HistogramInput,
};
use sa_core::{drive_scatter, scatter_reference, ScatterKernel, SensitivityRig};
use sa_multinode::{trace_reference, MultiNode};
use sa_sim::{Addr, MachineConfig, NetworkConfig, Rng64, SensitivityConfig};
use sa_sw::{coloring_result, privatization_result, sort_scan_result};

fn machine() -> MachineConfig {
    MachineConfig::merrimac()
}

#[test]
fn all_scatter_add_implementations_agree() {
    let mut rng = Rng64::new(0xE2E);
    let n = 1500;
    let range = 96u64;
    let indices: Vec<u64> = (0..n).map(|_| rng.below(range)).collect();
    let kernel = ScatterKernel::histogram(0, indices.clone());
    let reference = scatter_reference(&kernel, range as usize);
    let expect: Vec<i64> = reference.iter().map(|&b| b as i64).collect();

    // Hardware unit in the full node.
    let hw = drive_scatter(&machine(), &kernel, false);
    assert_eq!(hw.result_i64(range as usize), expect, "hardware unit");

    // Sensitivity rig (single unit, uniform memory).
    let rig = SensitivityRig::new(SensitivityConfig::default());
    let rig_run = rig.run_histogram(&indices, range);
    assert_eq!(rig_run.bins, expect, "sensitivity rig");

    // Software baselines (functional layer).
    assert_eq!(
        sort_scan_result(&kernel, range as usize, 256),
        reference,
        "sort + segmented scan"
    );
    assert_eq!(
        privatization_result(&kernel, range as usize, 32),
        reference,
        "privatization"
    );
    assert_eq!(
        coloring_result(&kernel, range as usize),
        reference,
        "coloring"
    );

    // Multi-node, both modes.
    let values = vec![1.0f64; indices.len()];
    for combining in [false, true] {
        let mut mn = MultiNode::new(machine(), 4, NetworkConfig::high(), combining);
        mn.run_trace(&indices, &values);
        for (bin, &count) in expect.iter().enumerate() {
            let got = f64::from_bits(mn.read_word(Addr::from_word_index(bin as u64)));
            assert_eq!(
                got as i64, count,
                "multi-node combining={combining} bin {bin}"
            );
        }
    }
}

#[test]
fn timed_histogram_variants_agree_and_rank_correctly() {
    let cfg = machine();
    let input = HistogramInput::uniform(3000, 1024, 0xE2E2);
    let hw = run_hw(&cfg, &input);
    let ss = run_sort_scan_default(&cfg, &input);
    let pv = run_privatization_default(&cfg, &input);
    let expect = input.reference();
    assert_eq!(hw.bins, expect);
    assert_eq!(ss.bins, expect);
    assert_eq!(pv.bins, expect);
    // The paper's ranking at a sizeable range: hardware < sort&scan <
    // privatization.
    assert!(hw.report.cycles < ss.report.cycles);
    assert!(ss.report.cycles < pv.report.cycles);
}

#[test]
fn reordering_never_changes_integer_sums() {
    // Stress the combining store with a mix of hot and cold addresses;
    // hardware reordering must still produce exact integer results.
    let mut rng = Rng64::new(0xE2E3);
    let mut indices = Vec::new();
    for _ in 0..2000 {
        // 50% traffic to 4 hot words, the rest over 4096.
        if rng.below(2) == 0 {
            indices.push(rng.below(4));
        } else {
            indices.push(rng.below(4096));
        }
    }
    let kernel = ScatterKernel::histogram(0, indices);
    let run = drive_scatter(&machine(), &kernel, false);
    let reference = scatter_reference(&kernel, 4096);
    let expect: Vec<i64> = reference.iter().map(|&b| b as i64).collect();
    assert_eq!(run.result_i64(4096), expect);
}

#[test]
fn multinode_direct_and_combining_agree_on_float_sums() {
    let mut rng = Rng64::new(0xE2E4);
    let n = 3000;
    let trace: Vec<u64> = (0..n).map(|_| rng.below(512)).collect();
    let values: Vec<f64> = (0..n).map(|_| (rng.below(16) as f64) * 0.125).collect();
    let reference = trace_reference(&trace, &values);

    for (nodes, combining) in [(2usize, false), (2, true), (8, false), (8, true)] {
        let mut mn = MultiNode::new(machine(), nodes, NetworkConfig::low(), combining);
        mn.run_trace(&trace, &values);
        for (&w, &expect) in &reference {
            let got = f64::from_bits(mn.read_word(Addr::from_word_index(w)));
            assert!(
                (got - expect).abs() < 1e-9 * (1.0 + expect.abs()),
                "nodes={nodes} combining={combining} word {w}: {got} vs {expect}"
            );
        }
    }
}

#[test]
fn multinode_combining_matches_single_node_oracle() {
    // The multinode machine must leave memory in the same state the oracle
    // predicts: cache-combining with sum-back, replayed on several machine
    // shapes, against single-node reference totals.
    let mut rng = Rng64::new(0xE2E6);
    let n = 2500;
    let trace: Vec<u64> = (0..n).map(|_| rng.below(384)).collect();
    let values: Vec<f64> = (0..n).map(|_| (rng.below(32) as f64) * 0.0625).collect();
    let reference = trace_reference(&trace, &values);

    for (nodes, combining) in [(4usize, true), (8, true), (8, false)] {
        let mut mn = MultiNode::new(machine(), nodes, NetworkConfig::low(), combining);
        let report = mn.run_trace(&trace, &values);
        assert_eq!(report.adds, n as u64);
        for (&w, &expect) in &reference {
            let got = f64::from_bits(mn.read_word(Addr::from_word_index(w)));
            assert!(
                (got - expect).abs() < 1e-9 * (1.0 + expect.abs()),
                "nodes={nodes} combining={combining} word {w}: {got} vs {expect}"
            );
        }
    }
}

#[test]
fn scatter_add_units_do_not_slow_down_non_scatter_code() {
    // §4.1: "codes that do not have a scatter-add will run unaffected on an
    // architecture with a hardware scatter-add capability." A pure
    // gather/kernel/store program must take the same cycles regardless of
    // the combining-store configuration.
    use sa_proc::{AccessPattern, Executor, StreamOp, StreamProgram};
    let mut prog = StreamProgram::new();
    let g = prog.add(
        StreamOp::gather(AccessPattern::Sequential {
            base_word: 0,
            n: 2048,
        }),
        &[],
    );
    let k = prog.add(StreamOp::kernel("work", 2048, 4, 4, 2), &[g]);
    prog.add(
        StreamOp::scatter(
            AccessPattern::Sequential {
                base_word: 1 << 16,
                n: 2048,
            },
            vec![0; 2048],
        ),
        &[k],
    );
    let mut cycles = Vec::new();
    for cs in [1usize, 8, 64] {
        let mut cfg = machine();
        cfg.sa.cs_entries = cs;
        let mut node = sa_core::NodeMemSys::new(cfg, 0, false);
        let r = Executor::new(cfg).run(&prog, &mut node);
        cycles.push(r.cycles);
    }
    assert_eq!(cycles[0], cycles[1]);
    assert_eq!(cycles[1], cycles[2]);
}

#[test]
fn spmv_three_ways_match() {
    use sa_apps::mesh::Mesh;
    use sa_apps::spmv::{run_csr, run_ebe_hw, run_ebe_sw_default, Csr, Ebe};
    let cfg = machine();
    let mesh = Mesh::generate(80, 12, 400, 0xE2E5);
    let x = mesh.test_vector(5);
    let csr = Csr::from_mesh(&mesh);
    let reference = Ebe::new(&mesh).multiply(&x);
    for (name, y) in [
        ("csr", run_csr(&cfg, &csr, &x).y),
        ("ebe-hw", run_ebe_hw(&cfg, &mesh, &x).y),
        ("ebe-sw", run_ebe_sw_default(&cfg, &mesh, &x).y),
    ] {
        for (i, (a, b)) in y.iter().zip(&reference).enumerate() {
            assert!(
                (a - b).abs() < 1e-6 * (1.0 + b.abs()),
                "{name}: y[{i}] = {a}, expected {b}"
            );
        }
    }
}

#[test]
fn md_three_ways_match() {
    use sa_apps::md::{
        max_force_deviation, run_hw as md_hw, run_no_sa, run_sw_default, WaterSystem,
    };
    let cfg = machine();
    let sys = WaterSystem::generate(60, 0xE2E6);
    let reference = sys.reference_forces();
    assert!(max_force_deviation(&md_hw(&cfg, &sys).forces, &reference) < 1e-6);
    assert!(max_force_deviation(&run_sw_default(&cfg, &sys).forces, &reference) < 1e-6);
    assert!(max_force_deviation(&run_no_sa(&cfg, &sys).forces, &reference) < 1e-12);
}

#[test]
fn application_programs_fit_the_srf() {
    // The pipelined stage sizes of every application were chosen to keep
    // concurrently-live streams inside the 1 MB SRF; the executor verifies.
    let cfg = machine();
    let input = HistogramInput::uniform(20_000, 2048, 0xE2E7);
    assert!(!run_hw(&cfg, &input).report.srf.overflow);
    assert!(!run_sort_scan_default(&cfg, &input).report.srf.overflow);

    use sa_apps::mesh::Mesh;
    use sa_apps::spmv::{run_ebe_hw, Csr};
    let mesh = Mesh::generate(300, 20, 1600, 0xE2E8);
    let x = mesh.test_vector(1);
    let csr = Csr::from_mesh(&mesh);
    assert!(!sa_apps::spmv::run_csr(&cfg, &csr, &x).report.srf.overflow);
    assert!(!run_ebe_hw(&cfg, &mesh, &x).report.srf.overflow);

    use sa_apps::md::WaterSystem;
    let sys = WaterSystem::generate(100, 0xE2E9);
    assert!(!sa_apps::md::run_hw(&cfg, &sys).report.srf.overflow);
}
