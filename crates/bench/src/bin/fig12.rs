//! Figure 12: histogram runtime sensitivity to combining-store size and
//! memory throughput (§4.4).
//!
//! 512 elements; memory latency 16; the minimum number of cycles between
//! successive memory references sweeps 1/2/4/16; dark bars use 16 histogram
//! bins, light bars 65,536.
//!
//! Expected shape (paper): at 65,536 bins the runtime tracks memory
//! throughput regardless of store size; at 16 bins the combining store
//! captures most requests and low memory throughput barely hurts.

use sa_bench::telemetry::BenchRun;
use sa_bench::{header, us};
use sa_core::SensitivityRig;
use sa_sim::{MachineConfig, Rng64, SensitivityConfig};

fn main() {
    let mut bench = BenchRun::from_env("fig12", &MachineConfig::merrimac());
    let n = 512;
    header(
        "Figure 12",
        "Sensitivity rig: 512 elements, memory latency 16, varying throughput",
    );
    // Every grid point carries its own input, keyed by the memory interval:
    // a `Rng64` stream per interval makes the data a function of the
    // configuration alone, independent of sweep order.
    let points: Vec<(usize, u32, &str, u64)> = [2usize, 4, 8, 16, 64]
        .into_iter()
        .flat_map(|cs| {
            [1u32, 2, 4, 16].into_iter().flat_map(move |interval| {
                [("16b", 16u64), ("65536b", 65_536)]
                    .into_iter()
                    .map(move |(label_range, range)| (cs, interval, label_range, range))
            })
        })
        .collect();
    let results = bench.map(points.clone(), |(cs, interval, _label, range)| {
        let mut rng = Rng64::for_stream(0xF16_0012, u64::from(interval));
        let indices: Vec<u64> = (0..n).map(|_| rng.below(range)).collect();
        let rig = SensitivityRig::new(SensitivityConfig {
            cs_entries: cs,
            fu_latency: 4,
            mem_latency: 16,
            mem_interval: interval,
        });
        rig.run_histogram(&indices, range)
    });

    let mut i = 0;
    while i < points.len() {
        let cs = points[i].0;
        let mut cells: Vec<(String, String)> = Vec::new();
        while i < points.len() && points[i].0 == cs {
            let (_, interval, label_range, _) = points[i];
            let r = &results[i];
            r.record_metrics(&mut bench.scope(&format!("rig.cs{cs}.i{interval}.r{label_range}")));
            cells.push((format!("i{interval}/{label_range}"), us(r.micros())));
            i += 1;
        }
        let cells: Vec<(&str, String)> =
            cells.iter().map(|(l, v)| (l.as_str(), v.clone())).collect();
        bench.row(format!("CS entries={cs}"), &cells);
    }
    println!(
        "\npaper: wide-range runs are throughput-bound; 16-bin runs combine in the \
         store and stay fast even at 1 word per 16 cycles"
    );
    bench.finish();
}
