//! Wall-clock cost of the telemetry layer on the simulator hot loop.
//!
//! Three variants of the same 8K-element histogram drive:
//!
//! * `disabled` — the default `NullTrace` path with sampling off: the
//!   per-tick cost is one integer compare, so this must stay within noise
//!   (<2%) of the pre-telemetry simulator;
//! * `sampled` — `NullTrace` with the default 64-cycle sampling interval
//!   (time-series only, no trace events);
//! * `chrome` — full Chrome-trace event capture at the default interval;
//! * `req_traced_64` — request-lifecycle tracing of 1 in 64 requests
//!   (the `--req-sample` default of the figure binaries);
//! * `req_traced_all` — every request's lifecycle recorded (the worst
//!   case: one `BTreeMap` record per request);
//! * `probe_off` — the probed driver entry point with a disabled
//!   [`Introspect`]: the probe registry's zero-cost path, which must match
//!   `disabled` (each gate is one branch on an off recorder/progress);
//! * `probe_512` — an `sa-probe` snapshot of the whole node every 512
//!   cycles, kept in memory;
//! * `probe_512_heartbeat` — the same cadence streamed to a null writer
//!   with heartbeats enabled (the `--probe-listen` shape);
//! * `host_profiled` — scoped wall-clock timers around every loop phase
//!   (the `--host-profile` shape).
//!
//! Compare the `disabled` median against the others to see what each level
//! of observability costs. `disabled` also covers the request tracer's off
//! path: with `req_sample == 0` every tracer call short-circuits on one
//! integer compare.

use criterion::{criterion_group, criterion_main, Criterion};
use sa_core::{drive_scatter, drive_scatter_probed, NodeMemSys, ScatterKernel};
use sa_sim::{MachineConfig, Rng64};
use sa_telemetry::{ChromeTrace, HostProfiler, Introspect, NullTrace, ProbeRecorder, Progress};

fn kernel() -> ScatterKernel {
    let mut rng = Rng64::new(0xBE7C);
    ScatterKernel::histogram(0, (0..8192).map(|_| rng.below(4096)).collect())
}

fn telemetry_overhead(c: &mut Criterion) {
    let cfg = MachineConfig::merrimac();
    let k = kernel();
    let mut group = c.benchmark_group("telemetry_overhead");
    group.bench_function("disabled", |b| {
        b.iter(|| drive_scatter(&cfg, &k, false).cycles)
    });
    group.bench_function("sampled", |b| {
        b.iter(|| {
            let mut node = NodeMemSys::with_tracer(cfg, 0, false, NullTrace);
            node.set_sample_interval(sa_core::DEFAULT_SAMPLE_INTERVAL);
            drive_scatter_probed(node, &k, false, &mut Introspect::off()).cycles
        })
    });
    group.bench_function("chrome", |b| {
        b.iter(|| {
            let node = NodeMemSys::with_tracer(cfg, 0, false, ChromeTrace::new());
            drive_scatter_probed(node, &k, false, &mut Introspect::off()).cycles
        })
    });
    for (name, sample) in [("req_traced_64", 64), ("req_traced_all", 1)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut node = NodeMemSys::with_tracer(cfg, 0, false, NullTrace);
                node.set_req_sample(sample);
                drive_scatter_probed(node, &k, false, &mut Introspect::off()).cycles
            })
        });
    }
    group.bench_function("probe_off", |b| {
        b.iter(|| {
            let node = NodeMemSys::new(cfg, 0, false);
            let mut probe = Introspect::off();
            drive_scatter_probed(node, &k, false, &mut probe).cycles
        })
    });
    group.bench_function("probe_512", |b| {
        b.iter(|| {
            let node = NodeMemSys::new(cfg, 0, false);
            let mut probe = Introspect::off();
            probe.recorder = ProbeRecorder::every(512);
            drive_scatter_probed(node, &k, false, &mut probe).cycles
        })
    });
    group.bench_function("probe_512_heartbeat", |b| {
        b.iter(|| {
            let node = NodeMemSys::new(cfg, 0, false);
            let sink = Progress::to_writer(Box::new(std::io::sink()));
            let mut probe = Introspect::off();
            probe.recorder = ProbeRecorder::every(512).with_sink(sink.clone());
            probe.progress = sink;
            drive_scatter_probed(node, &k, false, &mut probe).cycles
        })
    });
    group.bench_function("host_profiled", |b| {
        b.iter(|| {
            let node = NodeMemSys::new(cfg, 0, false);
            let mut probe = Introspect::off();
            probe.profiler = HostProfiler::on();
            drive_scatter_probed(node, &k, false, &mut probe).cycles
        })
    });
    group.finish();
}

criterion_group!(benches, telemetry_overhead);
criterion_main!(benches);
