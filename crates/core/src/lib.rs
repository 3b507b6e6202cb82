//! The hardware scatter-add mechanism of *"Scatter-Add in Data Parallel
//! Architectures"* (Ahn, Erez, Dally — HPCA 2005), plus the single-node
//! memory system it plugs into.
//!
//! The paper's contribution is a data-parallel, floating-point-capable
//! fetch-and-add placed in the memory system of a SIMD/vector/stream
//! processor. This crate implements it as described in §3.2:
//!
//! * [`ScatterAddUnit`] — the combining store (a CAM-searched buffer that
//!   both hides memory latency and merges concurrent additions to the same
//!   address), the pipelined integer/floating-point functional unit, and the
//!   request flow of Figure 5.
//! * [`NodeMemSys`] — one node's memory system: per-bank input queues feed
//!   a scatter-add unit in front of each stream-cache bank (Figure 4a),
//!   which talk to the DRAM channels of `sa-mem`.
//! * [`SensitivityRig`] — the §4.4 configuration: one scatter-add unit in
//!   front of a uniform-latency, fixed-throughput memory with no cache.
//! * [`area`] — the standard-cell area model behind the paper's "less than
//!   2% of a 10 mm × 10 mm chip in 90 nm technology" claim.
//! * [`scan`] and [`sync`] — the §5 future-work extensions: hardware
//!   parallel-prefix and fetch-and-add-based synchronization primitives.
//!
//! # Quick start
//!
//! ```
//! use sa_core::{drive_scatter, ScatterKernel};
//! use sa_sim::{MachineConfig, ScalarKind, ScatterOp};
//!
//! // Histogram: count how many elements fall into each of 8 bins.
//! let data = [3u64, 1, 3, 7, 3, 1, 0, 2];
//! let kernel = ScatterKernel {
//!     base_word: 0,
//!     indices: data.to_vec(),
//!     values: vec![1; data.len()],
//!     kind: ScalarKind::I64,
//!     op: ScatterOp::Add,
//! };
//! let run = drive_scatter(&MachineConfig::merrimac(), &kernel, false);
//! assert_eq!(run.result_i64(8), vec![1, 2, 1, 3, 0, 0, 0, 1]);
//! assert!(run.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
mod driver;
mod lane;
mod node;
mod rig;
pub mod scan;
pub mod sync;
mod unit;

pub use driver::{
    drive_scatter, drive_scatter_probed, scatter_reference, RunResult, ScatterKernel,
    StallBreakdown,
};
pub use node::{home_of_line, NodeMemSys, NodeStats, DEFAULT_SAMPLE_INTERVAL};
pub use rig::{SensitivityResult, SensitivityRig};
pub use scan::{drive_scan, scan_reference, ScanResult};
pub use sync::{allocate_slots, simulate_barrier, BarrierResult, SlotAllocation};
pub use unit::{SaStats, ScatterAddUnit, ToMem};
