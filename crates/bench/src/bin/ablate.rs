//! Simulated-cycle ablations of the scatter-add design choices.
//!
//! The repository benchmark measures the *simulator's* wall time; this binary
//! reports the *simulated machine's* cycles as each design parameter moves
//! away from the Table 1 point, one axis at a time:
//!
//! * combining-store entries (on the full machine, complementing the §4.4
//!   rig study);
//! * cache banks (and with them, scatter-add units);
//! * functional-unit latency under dependent-add chains;
//! * address-generator width;
//! * stream-cache capacity (the Figure 7 plateau);
//! * the software batch size (§4.1 says 256 was optimal on the paper's
//!   machine — this table shows where the optimum lands on ours);
//! * workload skew (uniform → Zipf → single bin).

use sa_apps::histogram::{run_hw, run_sort_scan, HistogramInput};
use sa_bench::telemetry::BenchRun;
use sa_bench::{header, us};
use sa_core::{drive_scatter, ScatterKernel};
use sa_sim::{MachineConfig, Rng64};

fn ab_combining_store(bench: &mut BenchRun, quick: bool) {
    header(
        "Ablation: combining-store entries (full machine)",
        "32K uniform scatter-adds over 65,536 bins (cache-overflowing, latency-sensitive)",
    );
    let n = if quick { 4096 } else { 32_768 };
    let mut rng = Rng64::new(1);
    let kernel = ScatterKernel::histogram(0, (0..n).map(|_| rng.below(65_536)).collect());
    let sizes = vec![1usize, 2, 4, 8, 16, 32];
    let runs = bench.map(sizes.clone(), |cs| {
        let mut cfg = MachineConfig::merrimac();
        cfg.sa.cs_entries = cs;
        drive_scatter(&cfg, &kernel, false)
    });
    for (cs, run) in sizes.into_iter().zip(runs) {
        run.stats
            .record(&mut bench.scope(&format!("combining_store.cs{cs}")));
        bench.row(
            format!("cs={cs}"),
            &[
                ("time", us(run.micros())),
                ("stall-cycles", format!("{}", run.stats.sa.stalled_full)),
            ],
        );
    }
}

fn ab_banks(bench: &mut BenchRun, quick: bool) {
    header(
        "Ablation: cache banks / scatter-add units",
        "Uniform scatter-adds over a cache-resident range",
    );
    let n = if quick { 4096 } else { 16_384 };
    let mut rng = Rng64::new(2);
    let kernel = ScatterKernel::histogram(0, (0..n).map(|_| rng.below(4096)).collect());
    let bank_counts = vec![1usize, 2, 4, 8, 16];
    let runs = bench.map(bank_counts.clone(), |banks| {
        let mut cfg = MachineConfig::merrimac();
        cfg.cache.banks = banks;
        drive_scatter(&cfg, &kernel, false)
    });
    for (banks, run) in bank_counts.into_iter().zip(runs) {
        run.stats
            .record(&mut bench.scope(&format!("banks.b{banks}")));
        bench.row(
            format!("banks={banks}"),
            &[
                ("time", us(run.micros())),
                ("adds/cycle", format!("{:.2}", n as f64 / run.cycles as f64)),
            ],
        );
    }
}

fn ab_fu_latency(bench: &mut BenchRun, quick: bool) {
    header(
        "Ablation: FU latency under dependent chains",
        "All additions to one word — each must wait for the previous sum",
    );
    let n = if quick { 2048 } else { 8192 };
    let kernel = ScatterKernel::histogram(0, vec![0; n]);
    let latencies = vec![1u32, 2, 4, 8, 16];
    let runs = bench.map(latencies.clone(), |fu| {
        let mut cfg = MachineConfig::merrimac();
        cfg.sa.fu_latency = fu;
        drive_scatter(&cfg, &kernel, false)
    });
    for (fu, run) in latencies.into_iter().zip(runs) {
        run.stats
            .record(&mut bench.scope(&format!("fu_latency.fu{fu}")));
        bench.row(
            format!("fu={fu}"),
            &[
                ("time", us(run.micros())),
                ("cycles/add", format!("{:.2}", run.cycles as f64 / n as f64)),
            ],
        );
    }
}

fn ab_ag_width(bench: &mut BenchRun, quick: bool) {
    header(
        "Ablation: address-generator width",
        "Issue bandwidth into the memory system (2 generators)",
    );
    let n = if quick { 4096 } else { 16_384 };
    let mut rng = Rng64::new(3);
    let kernel = ScatterKernel::histogram(0, (0..n).map(|_| rng.below(4096)).collect());
    let widths = vec![1u32, 2, 4, 8];
    let runs = bench.map(widths.clone(), |width| {
        let mut cfg = MachineConfig::merrimac();
        cfg.ag.width = width;
        drive_scatter(&cfg, &kernel, false)
    });
    for (width, run) in widths.into_iter().zip(runs) {
        run.stats
            .record(&mut bench.scope(&format!("ag_width.w{width}")));
        bench.row(format!("width={width}"), &[("time", us(run.micros()))]);
    }
}

fn ab_cache_capacity(bench: &mut BenchRun, quick: bool) {
    header(
        "Ablation: stream-cache capacity",
        "32K scatter-adds over 65,536 bins (512 KB of targets)",
    );
    let n = if quick { 8192 } else { 32_768 };
    let mut rng = Rng64::new(4);
    let kernel = ScatterKernel::histogram(0, (0..n).map(|_| rng.below(65_536)).collect());
    let capacities = vec![64u64, 256, 1024, 4096];
    let runs = bench.map(capacities.clone(), |kb| {
        let mut cfg = MachineConfig::merrimac();
        cfg.cache.total_bytes = kb << 10;
        drive_scatter(&cfg, &kernel, false)
    });
    for (kb, run) in capacities.into_iter().zip(runs) {
        run.stats
            .record(&mut bench.scope(&format!("cache_capacity.kb{kb}")));
        let s = run.stats.cache;
        bench.row(
            format!("cache={kb}KB"),
            &[
                ("time", us(run.micros())),
                ("hit-rate", format!("{:.2}", s.read_hit_rate())),
            ],
        );
    }
}

fn ab_batch_size(bench: &mut BenchRun, quick: bool) {
    header(
        "Ablation: software scatter-add batch size (§4.1)",
        "Sort + segmented scan; the paper's machine favored 256",
    );
    let cfg = MachineConfig::merrimac();
    let n = if quick { 4096 } else { 16_384 };
    let input = HistogramInput::uniform(n, 2048, 5);
    let batches = vec![32usize, 64, 128, 256, 512, 1024, 2048];
    let runs = bench.map(batches.clone(), |batch| run_sort_scan(&cfg, &input, batch));
    for (batch, run) in batches.into_iter().zip(runs) {
        run.report
            .stats
            .record(&mut bench.scope(&format!("batch.b{batch}")));
        bench.row(format!("batch={batch}"), &[("time", us(run.micros()))]);
    }
}

fn ab_skew(bench: &mut BenchRun, quick: bool) {
    header(
        "Ablation: workload skew (uniform → Zipf → one bin)",
        "Hardware scatter-add, 1,024 bins; skew lengthens same-address chains",
    );
    let cfg = MachineConfig::merrimac();
    let n = if quick { 4096 } else { 16_384 };
    let mut rows: Vec<(String, HistogramInput)> =
        vec![("uniform".into(), HistogramInput::uniform(n, 1024, 6))];
    for s in [0.8f64, 1.2, 2.0] {
        rows.push((format!("zipf s={s}"), HistogramInput::zipf(n, 1024, s, 6)));
    }
    rows.push(("single bin".into(), HistogramInput::uniform(n, 1, 6)));
    let runs = bench.map(rows, |(name, input)| {
        let run = run_hw(&cfg, &input);
        assert_eq!(run.bins, input.reference());
        (name, run)
    });
    for (i, (name, run)) in runs.into_iter().enumerate() {
        run.report
            .stats
            .record(&mut bench.scope(&format!("skew.case{i}")));
        bench.row(
            name,
            &[
                ("time", us(run.micros())),
                ("combined", format!("{}", run.report.stats.sa.combined)),
            ],
        );
    }
}

fn main() {
    let mut bench = BenchRun::from_env("ablate", &MachineConfig::merrimac());
    let quick = bench.quick();
    ab_combining_store(&mut bench, quick);
    ab_banks(&mut bench, quick);
    ab_fu_latency(&mut bench, quick);
    ab_ag_width(&mut bench, quick);
    ab_cache_capacity(&mut bench, quick);
    ab_batch_size(&mut bench, quick);
    ab_skew(&mut bench, quick);
    bench.finish();
}
