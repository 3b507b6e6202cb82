//! Figure 13: multi-node scalability of scatter-add (§4.5).
//!
//! Four reference traces replayed on 1–8 nodes:
//!
//! * `narrow` — 64K histogram references over a range of 256;
//! * `wide`   — 64K histogram references over a range of 1M;
//! * `mole`   — the first 590K references of the MD water kernel
//!   (~8,127 unique force words);
//! * `spas`   — the full 38K-reference EBE trace (~10K unique unknowns).
//!
//! Network configurations per the paper's legend: `high`/`low` bandwidth
//! (8 / 1 words per cycle per node) and `comb` = cache combining with
//! sum-back.
//!
//! Expected shape (paper): `wide-high` scales almost perfectly (memory-bw
//! bound); `wide-low` is network-bound and combining does not help;
//! `narrow-low` does not scale at all but `narrow-low-comb` recovers ~5.7×
//! at 8 nodes; `narrow-high` reaches ~7.1×; `mole`/`spas` sit between.

use std::sync::Mutex;

use sa_apps::md::WaterSystem;
use sa_apps::mesh::Mesh;
use sa_apps::spmv::Ebe;
use sa_bench::cli::Cli;
use sa_bench::sweep::CachedPoint;
use sa_bench::telemetry::BenchRun;
use sa_bench::{header, sweep};
use sa_memo::{hash_f64s, hash_u64s};
use sa_multinode::MultiNode;
use sa_sim::{MachineConfig, NetworkConfig, Rng64};

struct Variant {
    name: &'static str,
    net: NetworkConfig,
    combining: bool,
}

/// Replay one trace for every (variant, node count) point. The points fan
/// out over the sweep executor (see `docs/PARALLELISM.md`). Each point
/// carries its own
/// [`sa_telemetry::Introspect`] so `--probe-listen` streams labelled
/// snapshots and `--host-profile` attributes wall-clock per phase.
fn run_series(
    bench: &mut BenchRun,
    machine: &MachineConfig,
    label: &str,
    trace: &[u64],
    values: &[f64],
    variants: &[Variant],
    nodes_list: &[usize],
) {
    let points: Vec<(usize, usize)> = (0..variants.len())
        .flat_map(|vi| nodes_list.iter().map(move |&n| (vi, n)))
        .collect();
    let work: Vec<((usize, usize), sa_telemetry::Introspect)> = points
        .iter()
        .map(|&(vi, n)| {
            let point_label = format!("{label}.{}.n{n}", variants[vi].name);
            ((vi, n), bench.introspect(&point_label))
        })
        .collect();
    // The cache key names the exact inputs (trace/value digests, network
    // shape, node count) rather than just the label, so a trace edit or a
    // quick-mode size change can never replay stale results.
    let trace_sha = hash_u64s(trace);
    let values_sha = hash_f64s(values);
    // Host profilers ride a side channel: they are nondeterministic
    // wall-clock data, so they are neither cached nor replayed on hits.
    let profilers = Mutex::new(Vec::new());
    let results = sweep::map_cached(
        bench.cache(),
        work,
        |&((vi, n), _)| {
            let v = &variants[vi];
            bench
                .point_key(&format!("fig13 {label}-{} n={n}", v.name))
                .str("trace_sha256", &trace_sha)
                .str("values_sha256", &values_sha)
                .field("network", v.net.fingerprint_json())
                .bool("combining", v.combining)
                .u64("nodes", n as u64)
        },
        |((vi, n), mut probe)| {
            let v = &variants[vi];
            let mut mn = MultiNode::new(*machine, n, v.net, v.combining);
            let r = mn.run_trace_probed(trace, values, &mut probe);
            let mut point = CachedPoint::new();
            r.record_metrics(&mut point.scope(&format!("{label}.{}.n{n}", v.name)));
            point.num("gbps", r.throughput_gbps(machine.ghz));
            profilers
                .lock()
                .expect("profiler list")
                .push(probe.profiler);
            point
        },
    );
    for profiler in profilers.into_inner().expect("profiler list") {
        bench.absorb_host_profile(&profiler);
    }
    for point in &results {
        bench.absorb_metrics(&point.metrics);
    }
    for (vi, v) in variants.iter().enumerate() {
        let mut cells = Vec::new();
        for (&(pvi, n), point) in points.iter().zip(&results) {
            if pvi != vi {
                continue;
            }
            let cell: &'static str = Box::leak(format!("{n}n").into_boxed_str());
            cells.push((cell, format!("{:.1}GB/s", point.get_num("gbps"))));
        }
        bench.row(format!("{label}-{}", v.name), &cells);
    }
}

fn main() {
    let machine = MachineConfig::merrimac();
    let cli = Cli::from_env();
    let mut bench = BenchRun::from_cli("fig13", &machine, &cli);
    let quick = cli.quick();
    let nodes_list: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let hist_n = if quick { 8192 } else { 65_536 };

    header(
        "Figure 13",
        "Multi-node scatter-add throughput (GB/s); higher is better",
    );

    let mut rng = Rng64::new(0xF16_0013);
    let narrow: Vec<u64> = (0..hist_n).map(|_| rng.below(256)).collect();
    let wide: Vec<u64> = (0..hist_n).map(|_| rng.below(1 << 20)).collect();
    let ones = vec![1.0f64; hist_n];

    let hist_variants = [
        Variant {
            name: "high",
            net: NetworkConfig::high(),
            combining: false,
        },
        Variant {
            name: "low",
            net: NetworkConfig::low(),
            combining: false,
        },
        Variant {
            name: "low-comb",
            net: NetworkConfig::low(),
            combining: true,
        },
    ];
    run_series(
        &mut bench,
        &machine,
        "narrow",
        &narrow,
        &ones,
        &hist_variants,
        nodes_list,
    );
    run_series(
        &mut bench,
        &machine,
        "wide",
        &wide,
        &ones,
        &hist_variants,
        nodes_list,
    );

    // MD trace: first 590K references (paper) of the water kernel.
    let sys = if quick {
        WaterSystem::generate(150, 13)
    } else {
        WaterSystem::paper_scale(13)
    };
    let mut mole_trace = sys.scatter_trace();
    let mut mole_vals = sys.contributions();
    let cap = if quick { 40_000 } else { 590_000 };
    mole_trace.truncate(cap);
    mole_vals.truncate(cap);

    // SPAS trace: the full EBE reference set.
    let mesh = if quick {
        Mesh::generate(200, 20, 1040, 14)
    } else {
        Mesh::paper_scale(14)
    };
    let ebe = Ebe::new(&mesh);
    let spas_trace = ebe.scatter_trace();
    let spas_vals = ebe.contributions(&mesh.test_vector(15));

    let comb_variants = [
        Variant {
            name: "low-comb",
            net: NetworkConfig::low(),
            combining: true,
        },
        Variant {
            name: "high-comb",
            net: NetworkConfig::high(),
            combining: true,
        },
    ];
    run_series(
        &mut bench,
        &machine,
        "mole",
        &mole_trace,
        &mole_vals,
        &comb_variants,
        nodes_list,
    );
    run_series(
        &mut bench,
        &machine,
        "spas",
        &spas_trace,
        &spas_vals,
        &comb_variants,
        nodes_list,
    );

    println!(
        "\npaper: wide-high scales ~linearly; narrow-low flat; narrow-low-comb ~5.7x \
         at 8 nodes; narrow-high ~7.1x; mole/spas between"
    );
    bench.finish();
}
