//! Differential harness: the hardware scatter-add unit checked against all
//! three software baselines (§4.1) on the paper's three index streams.
//!
//! Integer (histogram) workloads must agree **exactly** — addition of i64
//! counts is associative, so no ordering freedom is visible in the result.
//! Floating-point workloads (SpMV, MD) are compared under an explicit
//! accumulation-order error bound: each implementation sums a word's
//! contributions in a different order, and the worst-case discrepancy
//! between any two orderings of `k` terms is bounded by
//! `2 * (k - 1) * eps * Σ|v_i|` (standard forward-error analysis of
//! recursive summation).

use sa_apps::md::WaterSystem;
use sa_apps::mesh::Mesh;
use sa_apps::spmv::Ebe;
use sa_core::{drive_scatter, ScatterKernel, SensitivityRig};
use sa_sim::{MachineConfig, Rng64, SensitivityConfig};
use sa_sw::{coloring_result, privatization_result, sort_scan_result, DEFAULT_BATCH, DEFAULT_TILE};

fn machine() -> MachineConfig {
    MachineConfig::merrimac()
}

/// All three software baselines, as (name, raw result bits).
fn sw_baselines(kernel: &ScatterKernel, range: usize) -> Vec<(&'static str, Vec<u64>)> {
    vec![
        ("sort+scan", sort_scan_result(kernel, range, DEFAULT_BATCH)),
        (
            "privatization",
            privatization_result(kernel, range, DEFAULT_TILE),
        ),
        ("coloring", coloring_result(kernel, range)),
    ]
}

/// Per-word accumulation-order tolerance: `2 * (k - 1) * eps * Σ|v|` where
/// `k` terms of total magnitude `Σ|v|` target the word, plus a tiny absolute
/// floor for words whose exact sum is zero.
fn tolerances(indices: &[u64], values: &[f64], range: usize) -> Vec<f64> {
    let mut count = vec![0u64; range];
    let mut mag = vec![0.0f64; range];
    for (&w, &v) in indices.iter().zip(values) {
        count[w as usize] += 1;
        mag[w as usize] += v.abs();
    }
    count
        .iter()
        .zip(&mag)
        .map(|(&k, &m)| 2.0 * k.saturating_sub(1) as f64 * f64::EPSILON * m + 1e-300)
        .collect()
}

/// Drive the hardware unit and every software baseline over an f64 stream
/// and check all results pairwise-equivalent within the ordering bound.
fn check_f64_stream(what: &str, indices: &[u64], values: &[f64]) {
    let range = indices.iter().copied().max().unwrap_or(0) as usize + 1;
    let kernel = ScatterKernel::superposition(0, indices.to_vec(), values);
    let tol = tolerances(indices, values, range);

    let hw = drive_scatter(&machine(), &kernel, false).result_f64(range);
    for (name, bits) in sw_baselines(&kernel, range) {
        for (w, (&h, &b)) in hw.iter().zip(&bits).enumerate() {
            let s = f64::from_bits(b);
            assert!(
                (h - s).abs() <= tol[w],
                "{what}/{name}: word {w}: hw={h} sw={s} tol={}",
                tol[w]
            );
        }
    }
}

#[test]
fn histogram_integer_results_are_exact_across_all_implementations() {
    let mut rng = Rng64::new(0xD1FF_0001);
    let n = 4000;
    let range = 1024u64;
    // Mixed stream: half the references hammer 8 hot bins, the rest spread
    // uniformly — exercises the combining store and every baseline's
    // collision handling.
    let indices: Vec<u64> = (0..n)
        .map(|_| {
            if rng.below(2) == 0 {
                rng.below(8)
            } else {
                rng.below(range)
            }
        })
        .collect();
    let kernel = ScatterKernel::histogram(0, indices.clone());
    let hw = drive_scatter(&machine(), &kernel, false).result_i64(range as usize);

    let rig = SensitivityRig::new(SensitivityConfig::default());
    assert_eq!(rig.run_histogram(&indices, range).bins, hw, "rig vs hw");

    for (name, bits) in sw_baselines(&kernel, range as usize) {
        let sw: Vec<i64> = bits.iter().map(|&b| b as i64).collect();
        assert_eq!(sw, hw, "histogram {name} differs from hardware");
    }
}

#[test]
fn spmv_accumulation_matches_within_ordering_bound() {
    // EBE SpMV: per-element contributions scatter-added into the result
    // vector; duplicate rows collide heavily at shared mesh nodes.
    let mesh = Mesh::generate(120, 14, 600, 0xD1FF_0002);
    let ebe = Ebe::new(&mesh);
    let indices = ebe.scatter_trace();
    let values = ebe.contributions(&mesh.test_vector(9));
    assert_eq!(indices.len(), values.len());
    check_f64_stream("spmv", &indices, &values);
}

#[test]
fn md_accumulation_matches_within_ordering_bound() {
    // Water kernel force accumulation: nine force words per molecule pair,
    // signed contributions (cancellation makes the bound matter).
    let sys = WaterSystem::generate(60, 0xD1FF_0003);
    let indices = sys.scatter_trace();
    let values = sys.contributions();
    assert_eq!(indices.len(), values.len());
    check_f64_stream("md", &indices, &values);
}

#[test]
fn software_baselines_agree_exactly_on_integer_streams() {
    // Pairwise differential of the three baselines themselves on a Zipf-like
    // skewed integer stream, independent of the hardware path.
    let mut rng = Rng64::new(0xD1FF_0004);
    let n = 3000;
    let range = 256usize;
    let indices: Vec<u64> = (0..n)
        .map(|_| {
            // Geometric-ish skew: keep halving the candidate range.
            let mut r = range as u64;
            while r > 1 && rng.below(2) == 0 {
                r /= 2;
            }
            rng.below(r.max(1))
        })
        .collect();
    let kernel = ScatterKernel::histogram(0, indices);
    let runs = sw_baselines(&kernel, range);
    for pair in runs.windows(2) {
        assert_eq!(pair[0].1, pair[1].1, "{} vs {}", pair[0].0, pair[1].0);
    }
    // And against the order-free functional oracle.
    let oracle = sa_sw::scatter_add_reference(&kernel, range);
    assert_eq!(runs[0].1, oracle, "{} vs oracle", runs[0].0);
}

/// Classify a uniform histogram run of `n` scatters into `range` words the
/// way the bottleneck engine does: merged counters through the metrics
/// registry, then `bottleneck_json` over the assembled document.
fn bottleneck_bound(range: u64, n: u64) -> String {
    use sa_telemetry::{bottleneck_json, Json, MetricsRegistry};
    let mut rng = Rng64::new(0xF11B_0001);
    let kernel = ScatterKernel::histogram(0, (0..n).map(|_| rng.below(range)).collect());
    let run = drive_scatter(&machine(), &kernel, false);
    let mut reg = MetricsRegistry::new();
    {
        let mut scope = reg.scope("run");
        run.node.record_metrics(&mut scope);
        scope.counter("cycles", run.drain_cycles);
    }
    let mut doc = Json::obj();
    doc.push("metrics", reg.to_json());
    let section = bottleneck_json(&doc).expect("occupancy counters present");
    section
        .get("run")
        .and_then(|r| r.get("bound"))
        .and_then(Json::as_str)
        .expect("classified")
        .to_owned()
}

#[test]
fn bottleneck_bound_flips_with_index_range_like_fig8() {
    // The differential behind Figures 7/8: a narrow index range keeps the
    // working set inside the combining store — throughput is limited by the
    // scatter-add units themselves — while a very wide range defeats
    // combining and turns the run into streaming DRAM traffic. The engine's
    // dominant-resource classification must flip accordingly.
    assert_eq!(bottleneck_bound(256, 4096), "comb_store");
    assert_eq!(bottleneck_bound(1 << 20, 4096), "dram_bandwidth");
}

/// The full v5 bottleneck section (not just the bound) for a histogram run
/// over `range`-wide indices with fast-forward on or off.
fn bottleneck_report(range: u64, n: u64, ff: bool) -> String {
    use sa_core::{drive_scatter_with, NodeMemSys};
    use sa_telemetry::{bottleneck_json, validate_bottleneck_json, Json, MetricsRegistry};
    let mut rng = Rng64::new(0xF11B_0002);
    let kernel = ScatterKernel::histogram(0, (0..n).map(|_| rng.below(range)).collect());
    let mut node = NodeMemSys::new(machine(), 0, false);
    node.set_fast_forward(ff);
    let run = drive_scatter_with(node, &kernel, false);
    let mut reg = MetricsRegistry::new();
    {
        let mut scope = reg.scope("run");
        run.node.record_metrics(&mut scope);
        scope.counter("cycles", run.drain_cycles);
    }
    let mut doc = Json::obj();
    doc.push("metrics", reg.to_json());
    let section = bottleneck_json(&doc).expect("occupancy counters present");
    validate_bottleneck_json(&section).expect("valid bottleneck section");
    section.to_string_pretty()
}

#[test]
fn fast_forward_and_per_cycle_stepping_agree_on_bottleneck_reports() {
    // Fast-forward folds whole idle windows in bulk while fast-forward off
    // ticks every cycle; both must attribute the run to the same resource
    // with the same occupancy shares, whether the combining store or DRAM
    // bandwidth is the limiter.
    for (range, n) in [(256u64, 4096u64), (1 << 20, 4096)] {
        assert_eq!(
            bottleneck_report(range, n, false),
            bottleneck_report(range, n, true),
            "range={range}"
        );
    }
}
