//! Figure 8: histogram with privatization for inputs of constant lengths
//! and varying index ranges — hardware scatter-add vs privatization.
//!
//! Expected shape (paper): privatization's runtime grows with the number of
//! bins (O(m·n)); the hardware advantage exceeds an order of magnitude at
//! large ranges.

use sa_apps::histogram::{run_hw, run_privatization_default, HistogramInput};
use sa_bench::telemetry::BenchRun;
use sa_bench::{header, us};
use sa_sim::MachineConfig;

fn main() {
    let cfg = MachineConfig::merrimac();
    let mut bench = BenchRun::from_env("fig8", &cfg);
    let lengths: &[usize] = if bench.quick() {
        &[1024]
    } else {
        &[1024, 32_768]
    };
    let ranges: &[u64] = if bench.quick() {
        &[128, 2048]
    } else {
        &[128, 512, 2048, 8192]
    };
    header(
        "Figure 8",
        "Histogram execution time: privatization vs hardware scatter-add",
    );
    let points: Vec<(usize, u64)> = lengths
        .iter()
        .flat_map(|&n| ranges.iter().map(move |&range| (n, range)))
        .collect();
    let runs = bench.map(points.clone(), |(n, range)| {
        let input = HistogramInput::uniform(n, range, 0xF16_0008 + n as u64 + range);
        let hw = run_hw(&cfg, &input);
        let pv = run_privatization_default(&cfg, &input);
        assert_eq!(hw.bins, input.reference(), "hw result check");
        assert_eq!(pv.bins, input.reference(), "privatization result check");
        (hw, pv)
    });
    for (&(n, range), (hw, pv)) in points.iter().zip(runs) {
        hw.report.stats.record(&mut bench.scope("hw"));
        pv.report.stats.record(&mut bench.scope("privatization"));
        let (hw_us, pv_us) = (hw.micros(), pv.micros());
        bench.row(
            format!("n={n} bins={range}"),
            &[
                ("scatter-add", us(hw_us)),
                ("privatization", us(pv_us)),
                ("speedup", format!("{:.1}x", pv_us / hw_us)),
            ],
        );
    }
    println!(
        "\npaper: privatization cost grows with the range; >10x hardware advantage at 8K bins"
    );
    bench.finish();
}
