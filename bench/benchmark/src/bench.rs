//! What every workload provides, and the measurement loop the sequential
//! ones share.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::catalog::Catalog;
use crate::stats::median;
use crate::trace::Spans;

/// Input sizes: the benchmark's own (`Full`), or tiny ones for self-tests.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Seconds-fast sizes exercising the same code paths (self-tests).
    #[cfg_attr(not(test), allow(dead_code))]
    Quick,
}

impl Scale {
    /// `full` at full scale, `quick` otherwise.
    pub fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// The compiled-in catalog, parsed once.
pub fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(Catalog::load)
}

/// Per-layer values by catalog name.
#[derive(Clone, Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Set a per-layer value.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a per-layer metric of the catalog: emitting
    /// an undeclared metric is a bug in this program.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            catalog().per_layer.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric of BENCHMARK.json"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`, if this workload measured it.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Every measured name.
    #[cfg(test)]
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }

    /// Add every value of `other`.
    pub fn extend(&mut self, other: Layers) {
        self.0.extend(other.0);
    }
}

/// One measurement window of a workload.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Wall time of each operation, in completion order (ms).
    pub op_ms: Vec<f64>,
    /// Wall time of the whole window (s).
    pub elapsed_s: f64,
    /// Operations attempted (simulation runs, jobs, figure-binary runs).
    pub attempted: u64,
    /// Operations that failed: panicked, exited non-zero, answered non-200,
    /// or produced output that disagrees with its reference.
    pub failed: u64,
    /// SHA-256 of the workload's deterministic outputs.
    pub digest: String,
    /// Per-layer values the window itself measures.
    pub layers: Layers,
}

/// A workload, set up and ready to measure.
pub trait Bench {
    /// Run operations for about `budget` of wall time, untraced.
    fn measure(&mut self, budget: Duration) -> Window;

    /// The traced run: time the calls into each layer on this workload's
    /// own inputs, recording coarse spans. `untraced` is this run's
    /// untraced window, the base of `trace.overhead_pct`.
    fn traced(&mut self, untraced: &Window, spans: &mut Spans) -> Result<Layers, String>;
}

/// What one sequential operation reports.
#[derive(Debug)]
pub struct Op {
    /// Wall time of the measured part (checks excluded).
    pub wall: Duration,
    /// Operations it comprised.
    pub attempted: u64,
    /// Of which failed.
    pub failed: u64,
    /// Digest of its deterministic outputs; every repetition must agree.
    pub digest: String,
}

/// Repeat `op` until another one would overrun `budget` (at least once).
/// A panic or an error counts as one failed operation; a repetition whose
/// digest differs from the first one's counts as failed too, since the
/// simulation is deterministic.
pub fn repeat_ops(budget: Duration, mut op: impl FnMut() -> Result<Op, String>) -> Window {
    let start = Instant::now();
    let mut w = Window::default();
    loop {
        if !w.op_ms.is_empty()
            && start.elapsed() + Duration::from_secs_f64(median(&w.op_ms) / 1e3) > budget
        {
            break;
        }
        let t0 = Instant::now();
        match catch_unwind(AssertUnwindSafe(&mut op)) {
            Ok(Ok(o)) => {
                w.op_ms.push(o.wall.as_secs_f64() * 1e3);
                w.attempted += o.attempted;
                w.failed += o.failed;
                if w.digest.is_empty() {
                    w.digest = o.digest;
                } else if o.digest != w.digest {
                    eprintln!("repetition {} changed the simulated outputs", w.op_ms.len());
                    w.failed += 1;
                }
            }
            failure => {
                // A panic has already printed its message.
                if let Ok(Err(e)) = failure {
                    eprintln!("operation failed: {e}");
                }
                w.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                w.attempted += 1;
                w.failed += 1;
            }
        }
    }
    w.elapsed_s = start.elapsed().as_secs_f64();
    w
}

/// Time `f`, returning its result and wall time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// `trace.overhead_pct`: how much longer the traced operation took than
/// the untraced median, in percent.
pub fn overhead_pct(traced: Duration, untraced: &Window) -> f64 {
    let base = median(&untraced.op_ms);
    (traced.as_secs_f64() * 1e3 / base - 1.0) * 100.0
}
