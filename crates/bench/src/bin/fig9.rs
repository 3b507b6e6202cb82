//! Figure 9: sparse matrix–vector multiplication — CSR vs EBE with software
//! scatter-add vs EBE with hardware scatter-add; execution cycles, FP
//! operations, and memory references.
//!
//! Expected shape (paper, ×1M): CSR 0.334 / 1.217 / 1.836;
//! EBE-SW 0.739 / 1.735 / 1.031; EBE-HW 0.230 / 1.536 / 0.922.
//! Without hardware scatter-add CSR beats EBE by ~2.2×; with it, EBE gives a
//! ~45% speedup over CSR.

use sa_apps::mesh::Mesh;
use sa_apps::spmv::{run_csr, run_ebe_hw, run_ebe_sw_default, Csr};
use sa_bench::telemetry::BenchRun;
use sa_bench::{header, mcycles, mops};
use sa_core::StallBreakdown;
use sa_sim::MachineConfig;

fn main() {
    let mut cfg = MachineConfig::merrimac();
    let mut bench = BenchRun::from_env("fig9", &cfg);
    // Kernel runs below build their own nodes from `cfg`; carry the
    // request-lifecycle sampling interval so their reports include
    // per-stage latency when stats output is on.
    cfg.req_sample = bench.req_sample();
    let mesh = if bench.quick() {
        Mesh::generate(200, 20, 1040, 9)
    } else {
        Mesh::paper_scale(9)
    };
    let x = mesh.test_vector(10);
    let csr = Csr::from_mesh(&mesh);
    header(
        "Figure 9",
        &format!(
            "SpMV on a {} x {} matrix ({} elements, {:.2} nnz/row)",
            csr.n,
            csr.n,
            mesh.elements(),
            csr.avg_row_nnz()
        ),
    );

    // The three methods are independent simulations; run them concurrently
    // and keep reporting order fixed (CSR, EBE-SW, EBE-HW) so the stats
    // document stays byte-identical to a serial run.
    let mut runs = bench.map(vec![0usize, 1, 2], |which| match which {
        0 => run_csr(&cfg, &csr, &x),
        1 => run_ebe_sw_default(&cfg, &mesh, &x),
        _ => run_ebe_hw(&cfg, &mesh, &x),
    });
    let r_hw = runs.pop().expect("three runs");
    let r_sw = runs.pop().expect("three runs");
    let r_csr = runs.pop().expect("three runs");

    // Cross-check the three methods functionally.
    let y_ref = csr.multiply(&x);
    for (name, y) in [("CSR", &r_csr.y), ("EBE-SW", &r_sw.y), ("EBE-HW", &r_hw.y)] {
        for (i, (a, b)) in y.iter().zip(&y_ref).enumerate() {
            assert!(
                (a - b).abs() < 1e-6 * (1.0 + b.abs()),
                "{name} y[{i}] mismatch: {a} vs {b}"
            );
        }
    }

    for (name, scope, r) in [
        ("CSR", "csr", &r_csr),
        ("EBE SW scatter-add", "ebe_sw", &r_sw),
        ("EBE HW scatter-add", "ebe_hw", &r_hw),
    ] {
        {
            let mut s = bench.scope(scope);
            s.counter("cycles", r.report.cycles);
            s.counter("flops", r.report.flops());
            s.counter("mem_refs", r.report.mem_refs());
            r.report.stats.record(&mut s);
        }
        bench.record_latency(scope, &r.report.req_trace);
        bench.record_attribution(
            scope,
            &StallBreakdown::from_stats(&r.report.stats, r.report.cycles),
        );
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
        "\nCSR vs EBE-SW: {:.2}x (paper 2.2x);  EBE-HW speedup over CSR: {:.2}x (paper 1.45x)",
        r_sw.report.cycles as f64 / r_csr.report.cycles as f64,
        r_csr.report.cycles as f64 / r_hw.report.cycles as f64,
    );
    bench.finish();
}
