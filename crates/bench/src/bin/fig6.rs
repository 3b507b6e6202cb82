//! Figure 6: histogram execution time for inputs of varying lengths and an
//! input range of 2,048 — hardware scatter-add vs sort + segmented scan.
//!
//! Expected shape (paper): both mechanisms scale O(n); hardware outperforms
//! software by 3:1 up to 11:1.

use sa_apps::histogram::{run_hw, run_sort_scan_default, HistogramInput};
use sa_bench::sweep::CachedPoint;
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
    // Simulate every input size concurrently; print and record in size
    // order, so the output is identical to a serial run. With `--cache`,
    // already-seen points replay from the result store without simulating.
    let runs = bench.map_cached(
        sizes.to_vec(),
        |&n| {
            bench
                .point_key(&format!("fig6 n={n}"))
                .u64("n", n as u64)
                .u64("range", range)
                .u64("seed", 0xF16_0006 + n as u64)
        },
        |n| {
            let input = HistogramInput::uniform(n, range, 0xF16_0006 + n as u64);
            let hw = run_hw(&cfg, &input);
            let sw = run_sort_scan_default(&cfg, &input);
            assert_eq!(hw.bins, input.reference(), "hw result check");
            assert_eq!(sw.bins, input.reference(), "sw result check");
            let mut point = CachedPoint::new();
            hw.report.stats.record(&mut point.scope("hw"));
            sw.report.stats.record(&mut point.scope("sortscan"));
            point.num("hw_us", hw.micros());
            point.num("sw_us", sw.micros());
            point
        },
    );
    for (&n, point) in sizes.iter().zip(&runs) {
        bench.absorb_metrics(&point.metrics);
        let (hw_us, sw_us) = (point.get_num("hw_us"), point.get_num("sw_us"));
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
