//! Figure 6: histogram execution time for inputs of varying lengths and an
//! input range of 2,048 — hardware scatter-add vs sort + segmented scan.
//!
//! Expected shape (paper): both mechanisms scale O(n); hardware outperforms
//! software by 3:1 up to 11:1.

use sa_apps::histogram::{run_hw, run_sort_scan_default, HistogramInput};
use sa_bench::telemetry::BenchRun;
use sa_bench::{header, us};
use sa_sim::MachineConfig;

fn main() {
    let cfg = MachineConfig::merrimac();
    let mut bench = BenchRun::from_env("fig6", &cfg);
    let range = 2048;
    let sizes: &[usize] = if bench.quick() {
        &[256, 1024]
    } else {
        &[256, 512, 1024, 2048, 4096, 8192]
    };
    header(
        "Figure 6",
        &format!("Histogram execution time, input range {range}; lower is better"),
    );
    // Simulate every input size concurrently; record and print in size
    // order, so the output is identical to a serial run.
    let runs = bench.map(sizes.to_vec(), |n| {
        let input = HistogramInput::uniform(n, range, 0xF16_0006 + n as u64);
        let hw = run_hw(&cfg, &input);
        let sw = run_sort_scan_default(&cfg, &input);
        assert_eq!(hw.bins, input.reference(), "hw result check");
        assert_eq!(sw.bins, input.reference(), "sw result check");
        (hw, sw)
    });
    for (&n, (hw, sw)) in sizes.iter().zip(runs) {
        hw.report.stats.record(&mut bench.scope("hw"));
        sw.report.stats.record(&mut bench.scope("sortscan"));
        let (hw_us, sw_us) = (hw.micros(), sw.micros());
        bench.row(
            format!("n={n}"),
            &[
                ("scatter-add", us(hw_us)),
                ("sort&scan", us(sw_us)),
                ("speedup", format!("{:.2}x", sw_us / hw_us)),
            ],
        );
    }
    println!("\npaper: O(n) scaling for both; hardware wins by 3x to 11x");
    bench.finish();
}
