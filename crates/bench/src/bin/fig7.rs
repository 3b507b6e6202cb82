//! Figure 7: histogram execution time for inputs of length 32,768 and
//! varying index ranges — hardware scatter-add vs sort + segmented scan.
//!
//! Expected shape (paper): hardware is slow at tiny ranges (hot-bank /
//! serialized same-address additions), fastest at mid ranges, and degrades
//! to a plateau once the range exceeds the cache; sort&scan is flat-ish and
//! slower except at the extremes.

use sa_apps::histogram::{run_hw, run_sort_scan_default, HistogramInput};
use sa_bench::telemetry::BenchRun;
use sa_bench::{header, us};
use sa_sim::MachineConfig;

fn main() {
    let cfg = MachineConfig::merrimac();
    let mut bench = BenchRun::from_env("fig7", &cfg);
    let n = if bench.quick() { 4096 } else { 32_768 };
    let ranges: &[u64] = if bench.quick() {
        &[1, 64, 4096, 1 << 20]
    } else {
        &[
            1,
            4,
            16,
            64,
            256,
            1024,
            4096,
            16_384,
            65_536,
            262_144,
            1 << 20,
            1 << 22,
        ]
    };
    header(
        "Figure 7",
        &format!("Histogram execution time, {n} elements, varying index range"),
    );
    let runs = bench.map(ranges.to_vec(), |range| {
        let input = HistogramInput::uniform(n, range, 0xF16_0007 + range);
        let hw = run_hw(&cfg, &input);
        let sw = run_sort_scan_default(&cfg, &input);
        // Exact checks are cheap for modest ranges only.
        if range <= 65_536 {
            assert_eq!(hw.bins, input.reference(), "hw result check");
            assert_eq!(sw.bins, input.reference(), "sw result check");
        }
        (range, hw, sw)
    });
    for (range, hw, sw) in runs {
        hw.report.stats.record(&mut bench.scope("hw"));
        sw.report.stats.record(&mut bench.scope("sortscan"));
        bench.row(
            format!("bins={range}"),
            &[
                ("scatter-add", us(hw.micros())),
                ("sort&scan", us(sw.micros())),
            ],
        );
    }
    println!(
        "\npaper: scatter-add dips in the middle (hot banks at small ranges, \
         cache overflow at large), sort&scan varies little"
    );
    bench.finish();
}
