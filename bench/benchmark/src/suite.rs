//! `figsuite-quick`: the cold `--quick` figure suite run as subprocesses,
//! the wait of a researcher regenerating the paper. It covers the sweep
//! executor, the stats documents and every application.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::Duration;

use sa_memo::sha256_hex;

use crate::bench::{overhead_pct, repeat_ops, timed, Bench, Layers, Op, Window};
use crate::host;
use crate::stats::median;
use crate::trace::Spans;

/// The suite in run order, with each binary's per-layer metric.
pub const BINARIES: [(&str, &str); 11] = [
    ("table1", "suite.table1_s"),
    ("fig6", "suite.fig6_s"),
    ("fig7", "suite.fig7_s"),
    ("fig8", "suite.fig8_s"),
    ("fig9", "suite.fig9_s"),
    ("fig10", "suite.fig10_s"),
    ("fig11", "suite.fig11_s"),
    ("fig12", "suite.fig12_s"),
    ("fig13", "suite.fig13_s"),
    ("extensions", "suite.extensions_s"),
    ("ablate", "suite.ablate_s"),
];

/// Arguments of every suite binary: small sizes, two sweep workers, and
/// (by not passing `--cache`) no result cache.
const ARGS: [&str; 3] = ["--quick", "--jobs", "2"];

/// The built suite and a working directory for it.
pub struct SuiteBench {
    bin_dir: PathBuf,
    work_dir: PathBuf,
    /// Wall seconds of each binary, per pass.
    bin_s: Vec<[f64; BINARIES.len()]>,
}

impl SuiteBench {
    /// Check that every binary is built and that the cheapest one starts
    /// and exits cleanly.
    pub fn new() -> Result<SuiteBench, String> {
        // Absolute: the binaries run from the working directory below.
        let bin_dir = std::path::absolute(host::target_dir().join("release"))
            .map_err(|e| format!("target directory: {e}"))?;
        if let Some((missing, _)) = BINARIES.iter().find(|(b, _)| !bin_dir.join(b).is_file()) {
            return Err(format!(
                "{} is not built; run the benchmark through bench/benchmark/run.sh",
                bin_dir.join(missing).display()
            ));
        }
        let work_dir = host::scratch_dir()?.join("figsuite");
        std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
        let suite = SuiteBench {
            bin_dir,
            work_dir,
            bin_s: Vec::new(),
        };
        let (out, _) = suite.run_bin(BINARIES[0].0)?;
        if !out.status.success() {
            return Err(format!("{} exited with {}", BINARIES[0].0, out.status));
        }
        Ok(suite)
    }

    fn run_bin(&self, bin: &str) -> Result<(Output, Duration), String> {
        let mut cmd = Command::new(self.bin_dir.join(bin));
        cmd.args(ARGS)
            .current_dir(&self.work_dir)
            .stdin(Stdio::null());
        let (out, wall) = timed(|| cmd.output());
        Ok((out.map_err(|e| format!("{bin}: {e}"))?, wall))
    }

    /// One pass over the suite; each binary is a span when tracing.
    fn pass(&mut self, mut spans: Option<&mut Spans>) -> Result<Op, String> {
        let (mut wall, mut failed) = (Duration::ZERO, 0);
        let mut digests = String::new();
        let mut secs = [0.0; BINARIES.len()];
        for (i, (bin, _)) in BINARIES.iter().enumerate() {
            let (out, d) = match spans.as_deref_mut() {
                Some(s) => s.span(bin, |_| self.run_bin(bin))?,
                None => self.run_bin(bin)?,
            };
            if !out.status.success() {
                eprintln!("{bin} exited with {}", out.status);
                failed += 1;
            }
            wall += d;
            secs[i] = d.as_secs_f64();
            digests.push_str(&sha256_hex(&out.stdout));
        }
        self.bin_s.push(secs);
        Ok(Op {
            wall,
            attempted: BINARIES.len() as u64,
            failed,
            digest: sha256_hex(digests.as_bytes()),
        })
    }
}

impl Bench for SuiteBench {
    fn measure(&mut self, budget: Duration) -> Window {
        let mut w = repeat_ops(budget, || self.pass(None));
        if !self.bin_s.is_empty() {
            for (i, (_, metric)) in BINARIES.iter().enumerate() {
                let per_pass: Vec<f64> = self.bin_s.iter().map(|p| p[i]).collect();
                w.layers.set(metric, median(&per_pass));
            }
        }
        w
    }

    fn traced(&mut self, untraced: &Window, spans: &mut Spans) -> Result<Layers, String> {
        let op = spans.span("pass", |s| self.pass(Some(s)))?;
        if op.failed > 0 {
            return Err(format!("{} suite binaries failed", op.failed));
        }
        let mut l = Layers::default();
        l.set("trace.overhead_pct", overhead_pct(op.wall, untraced));
        Ok(l)
    }
}
