//! `explore` — run any experiment of the reproduction from the command
//! line, with every machine knob exposed.
//!
//! ```text
//! explore histogram --n 32768 --range 2048 --impl hw --skew 0.0
//! explore histogram --impl sortscan --batch 256
//! explore scatter   --n 8192 --range 64 --cs 16 --fu 2 --banks 4
//! explore scan      --n 65536
//! explore multinode --nodes 8 --net low --combining --topology hypercube
//! explore rig       --cs 8 --latency 64 --interval 2
//! ```
//!
//! Machine flags (all subcommands): `--banks`, `--cs`, `--fu`, `--ag-width`,
//! `--line-bytes`, `--cache-kb`. Workload flags: `--n`, `--range`,
//! `--seed`, `--skew` (Zipf exponent; 0 = uniform).

use sa_apps::histogram::{run_hw, run_privatization_default, run_sort_scan, HistogramInput};
use sa_bench::args::Args;
use sa_bench::telemetry::BenchRun;
use sa_core::{drive_scan, drive_scatter, ScatterKernel, SensitivityRig};
use sa_multinode::{MultiNode, Topology};
use sa_sim::{MachineConfig, NetworkConfig, Rng64, ScalarKind, SensitivityConfig};

fn machine_from(args: &Args) -> Result<MachineConfig, Box<dyn std::error::Error>> {
    let mut cfg = MachineConfig::merrimac();
    cfg.cache.banks = args.get_or("banks", cfg.cache.banks)?;
    cfg.sa.cs_entries = args.get_or("cs", cfg.sa.cs_entries)?;
    cfg.sa.fu_latency = args.get_or("fu", cfg.sa.fu_latency)?;
    cfg.ag.width = args.get_or("ag-width", cfg.ag.width)?;
    cfg.cache.line_bytes = args.get_or("line-bytes", cfg.cache.line_bytes)?;
    let cache_kb: u64 = args.get_or("cache-kb", cfg.cache.total_bytes >> 10)?;
    cfg.cache.total_bytes = cache_kb << 10;
    Ok(cfg)
}

fn input_from(args: &Args) -> Result<HistogramInput, Box<dyn std::error::Error>> {
    let n: usize = args.get_or("n", 8192)?;
    let range: u64 = args.get_or("range", 1024)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let skew: f64 = args.get_or("skew", 0.0)?;
    Ok(if skew > 0.0 {
        HistogramInput::zipf(n, range, skew, seed)
    } else {
        HistogramInput::uniform(n, range, seed)
    })
}

fn cmd_histogram(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let cfg = machine_from(args)?;
    let mut bench = BenchRun::from_args("explore", &cfg, args);
    let input = input_from(args)?;
    let implementation = args.choice("impl", &["hw", "sortscan", "privatization"], "hw")?;
    let run = match implementation {
        "hw" => run_hw(&cfg, &input),
        "sortscan" => {
            let batch: usize = args.get_or("batch", 256)?;
            run_sort_scan(&cfg, &input, batch)
        }
        _ => run_privatization_default(&cfg, &input),
    };
    assert_eq!(run.bins, input.reference(), "result check");
    println!(
        "histogram impl={implementation} n={} range={}: {:.2} us ({} cycles), \
         {} fp-ops, {} mem-refs",
        input.len(),
        input.range,
        run.micros(),
        run.report.cycles,
        run.report.flops(),
        run.report.mem_refs()
    );
    run.report.stats.record(&mut bench.scope("histogram"));
    bench.finish();
    Ok(())
}

fn cmd_scatter(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let cfg = machine_from(args)?;
    let mut bench = BenchRun::from_args("explore", &cfg, args);
    let input = input_from(args)?;
    let kernel = ScatterKernel::histogram(0, input.data.clone());
    let run = drive_scatter(&cfg, &kernel, args.has("fetch"));
    run.node.record_metrics(&mut bench.scope("scatter"));
    println!(
        "scatter n={} range={}: {:.2} us; combined {}/{} requests, {} chained, \
         {} reads to memory, {} stall-cycles on a full store",
        input.len(),
        input.range,
        run.micros(),
        run.stats.sa.combined,
        run.stats.sa.accepted,
        run.stats.sa.chained,
        run.stats.sa.reads_issued,
        run.stats.sa.stalled_full,
    );
    run.print_stall_summary();
    bench.finish();
    Ok(())
}

fn cmd_scan(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let cfg = machine_from(args)?;
    let n: usize = args.get_or("n", 4096)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let mut rng = Rng64::new(seed);
    let input: Vec<u64> = (0..n).map(|_| rng.below(1000)).collect();
    let r = drive_scan(&cfg, &input, ScalarKind::I64);
    println!(
        "scan n={n}: {:.2} us ({:.2} cycles/element)",
        r.micros(),
        r.cycles as f64 / n as f64
    );
    let mut bench = BenchRun::from_args("explore", &cfg, args);
    bench.scope("scan").counter("cycles", r.cycles);
    bench.finish();
    Ok(())
}

fn cmd_multinode(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let cfg = machine_from(args)?;
    let mut bench = BenchRun::from_args("explore", &cfg, args);
    let nodes: usize = args.get_or("nodes", 4)?;
    let net = match args.choice("net", &["low", "high"], "high")? {
        "low" => NetworkConfig::low(),
        _ => NetworkConfig::high(),
    };
    let topology = match args.choice("topology", &["flat", "hypercube"], "flat")? {
        "hypercube" => Topology::Hypercube,
        _ => Topology::Flat,
    };
    let combining = args.has("combining");
    let input = input_from(args)?;
    let values = vec![1.0f64; input.len()];
    let mut mn = MultiNode::with_topology(cfg, nodes, net, combining, topology);
    let r = mn.run_trace(&input.data, &values);
    println!(
        "multinode nodes={nodes} combining={combining} topology={topology:?}: \
         {:.1} GB/s ({} cycles, {} sum-back lines, {} flush rounds)",
        r.throughput_gbps(cfg.ghz),
        r.cycles,
        r.sum_back_lines,
        r.flush_rounds
    );
    r.record_metrics(&mut bench.scope("multinode"));
    bench.finish();
    Ok(())
}

fn cmd_rig(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let rig = SensitivityRig::new(SensitivityConfig {
        cs_entries: args.get_or("cs", 8)?,
        fu_latency: args.get_or("fu", 4)?,
        mem_latency: args.get_or("latency", 16)?,
        mem_interval: args.get_or("interval", 2)?,
    });
    let n: usize = args.get_or("n", 512)?;
    let range: u64 = args.get_or("range", 65_536)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let mut rng = Rng64::new(seed);
    let indices: Vec<u64> = (0..n).map(|_| rng.below(range)).collect();
    let r = rig.run_histogram(&indices, range);
    println!(
        "rig cs={} fu={} latency={} interval={}: {:.2} us; {} combined",
        rig.config().cs_entries,
        rig.config().fu_latency,
        rig.config().mem_latency,
        rig.config().mem_interval,
        r.micros(),
        r.sa.combined
    );
    let mut bench = BenchRun::from_args("explore", &sa_sim::MachineConfig::merrimac(), args);
    r.record_metrics(&mut bench.scope("rig"));
    bench.finish();
    Ok(())
}

const USAGE: &str = "usage: explore <histogram|scatter|scan|multinode|rig> [flags]
run `explore <subcommand>` with no flags for sensible defaults; see the
binary's rustdoc header for the full flag list.";

fn main() {
    let args = Args::from_env();
    let result = match args.positional().first().map(String::as_str) {
        Some("histogram") => cmd_histogram(&args),
        Some("scatter") => cmd_scatter(&args),
        Some("scan") => cmd_scan(&args),
        Some("multinode") => cmd_multinode(&args),
        Some("rig") => cmd_rig(&args),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        eprintln!("{USAGE}");
        std::process::exit(1);
    }
}
