//! Evaluation of the extensions beyond the paper's measured system:
//! the §3.3 scatter-op generalizations and fetch-and-add, and the §5
//! future-work items (hardware scans, synchronization primitives,
//! hierarchical multi-node combining).

use sa_apps::image::{run_equalize_hw, run_equalize_sw, GreyImage};
use sa_bench::telemetry::BenchRun;
use sa_bench::{header, us};
use sa_core::{allocate_slots, drive_scan, simulate_barrier, NodeMemSys};
use sa_multinode::{MultiNode, Topology};
use sa_proc::{AccessPattern, Executor, StreamOp, StreamProgram};
use sa_sim::{Addr, MachineConfig, NetworkConfig, Rng64, ScalarKind};

fn ext_scan(bench: &mut BenchRun, cfg: &MachineConfig, quick: bool) {
    header(
        "Extension: hardware scans (§5)",
        "Inclusive prefix sum: memory-side scan engine vs software scan kernel",
    );
    let sizes: &[usize] = if quick {
        &[1024]
    } else {
        &[1024, 8192, 65_536]
    };
    let runs = bench.map(sizes.to_vec(), |n| {
        let mut rng = Rng64::new(n as u64);
        let input: Vec<u64> = (0..n).map(|_| rng.below(1000)).collect();
        let hw = drive_scan(cfg, &input, ScalarKind::I64);

        // Software scan: gather, log2(n) Hillis–Steele sweeps, store.
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0u64;
        for &x in &input {
            acc += x;
            cdf.push(acc);
        }
        let mut prog = StreamProgram::new();
        let g = prog.add(
            StreamOp::gather(AccessPattern::Sequential {
                base_word: 0,
                n: n as u64,
            }),
            &[],
        );
        let passes = (n as u64).ilog2() as u64;
        let k = prog.add(
            StreamOp::kernel("sw-scan", n as u64, passes, 2 * passes, 2 * passes),
            &[g],
        );
        prog.add(
            StreamOp::scatter(
                AccessPattern::Sequential {
                    base_word: 0,
                    n: n as u64,
                },
                cdf,
            ),
            &[k],
        );
        let mut node = NodeMemSys::new(*cfg, 0, false);
        let in_i64: Vec<i64> = input.iter().map(|&b| b as i64).collect();
        node.store_mut().load_i64(Addr(0), &in_i64);
        let sw = Executor::new(*cfg).run(&prog, &mut node);
        (n, hw, sw)
    });
    for (n, hw, sw) in runs {
        sw.stats.record(&mut bench.scope("scan.sw"));
        bench.scope("scan").counter("hw_cycles", hw.cycles);

        bench.row(
            format!("n={n}"),
            &[
                ("hw-scan", us(hw.micros())),
                ("sw-scan", us(sw.micros())),
                (
                    "speedup",
                    format!("{:.2}x", sw.cycles as f64 / hw.cycles as f64),
                ),
            ],
        );
    }
}

fn ext_sync(bench: &mut BenchRun, cfg: &MachineConfig, quick: bool) {
    header(
        "Extension: synchronization primitives (§5)",
        "Barrier arrival and parallel queue allocation via data-parallel fetch-and-add",
    );
    let sizes: &[usize] = if quick { &[64] } else { &[16, 64, 256, 1024] };
    for &p in sizes {
        let b = simulate_barrier(cfg, 0, p);
        let q = allocate_slots(cfg, 0, p);
        let mut s = bench.scope("sync");
        s.counter("barrier_cycles", b.cycles);
        s.counter("queue_alloc_cycles", q.cycles);
        bench.row(
            format!("participants={p}"),
            &[
                ("barrier", us(b.cycles as f64 / 1e3)),
                ("queue-alloc", us(q.cycles as f64 / 1e3)),
            ],
        );
    }
}

fn ext_hierarchical(bench: &mut BenchRun, machine: &MachineConfig, quick: bool) {
    header(
        "Extension: hierarchical combining (§5)",
        "Flat vs hypercube sum-back routing, narrow histogram, low-bandwidth net",
    );
    let n_refs = if quick { 8192 } else { 32_768 };
    let mut rng = Rng64::new(5);
    let trace: Vec<u64> = (0..n_refs).map(|_| rng.below(64)).collect();
    let values = vec![1.0; trace.len()];
    let nodes_list: &[usize] = if quick { &[4] } else { &[2, 4, 8] };
    let runs = bench.map(nodes_list.to_vec(), |n| {
        let mut flat =
            MultiNode::with_topology(*machine, n, NetworkConfig::low(), true, Topology::Flat);
        let rf = flat.run_trace(&trace, &values);
        let mut hyper =
            MultiNode::with_topology(*machine, n, NetworkConfig::low(), true, Topology::Hypercube);
        let rh = hyper.run_trace(&trace, &values);
        (n, rf, rh)
    });
    for (n, rf, rh) in runs {
        rf.record_metrics(&mut bench.scope(&format!("hierarchical.flat.n{n}")));
        rh.record_metrics(&mut bench.scope(&format!("hierarchical.hypercube.n{n}")));
        bench.row(
            format!("nodes={n}"),
            &[
                (
                    "flat",
                    format!("{:.1}GB/s", rf.throughput_gbps(machine.ghz)),
                ),
                (
                    "hypercube",
                    format!("{:.1}GB/s", rh.throughput_gbps(machine.ghz)),
                ),
                ("flat-rounds", format!("{}", rf.flush_rounds)),
                ("hyper-rounds", format!("{}", rh.flush_rounds)),
            ],
        );
    }
}

fn ext_equalize(bench: &mut BenchRun, cfg: &MachineConfig, quick: bool) {
    header(
        "Extension: histogram equalization (§1 motivation)",
        "Full image pipeline: scatter-add histogram + scan CDF + gather remap",
    );
    let side = if quick { 64 } else { 128 };
    let img = GreyImage::synthetic(side, side, 7);
    let hw = run_equalize_hw(cfg, &img);
    let sw = run_equalize_sw(cfg, &img);
    assert_eq!(hw.output, sw.output, "pipelines agree");
    for (name, r) in [("hardware", &hw), ("software", &sw)] {
        let mut s = bench.scope(&format!("equalize.{name}"));
        s.counter("histogram_cycles", r.histogram_cycles);
        s.counter("scan_cycles", r.scan_cycles);
        s.counter("remap_cycles", r.remap_cycles);
        bench.row(
            name,
            &[
                ("total", us(r.micros())),
                ("histogram", us(r.histogram_cycles as f64 / 1e3)),
                ("cdf-scan", us(r.scan_cycles as f64 / 1e3)),
                ("remap", us(r.remap_cycles as f64 / 1e3)),
            ],
        );
    }
    let (lo, hi) = img.dynamic_range();
    println!(
        "\n{side}x{side} image: input range [{lo}, {hi}] stretched to [{}, {}]",
        hw.output.iter().min().unwrap(),
        hw.output.iter().max().unwrap()
    );
}

fn main() {
    let cfg = MachineConfig::merrimac();
    let mut bench = BenchRun::from_env("extensions", &cfg);
    let quick = bench.quick();
    ext_scan(&mut bench, &cfg, quick);
    ext_sync(&mut bench, &cfg, quick);
    ext_hierarchical(&mut bench, &cfg, quick);
    ext_equalize(&mut bench, &cfg, quick);
    bench.finish();
}
