//! Simulation kernel for the scatter-add reproduction.
//!
//! This crate provides the building blocks shared by every other crate in the
//! workspace:
//!
//! * [`Cycle`] — the simulated time base (one cycle = 1 ns at the 1 GHz clock
//!   of Table 1 in the paper).
//! * [`BoundedQueue`] — a back-pressured FIFO used to connect pipeline stages
//!   (address generators, cache banks, scatter-add units, DRAM channels).
//! * [`MemRequest`]/[`MemResponse`] and the scatter-op value semantics
//!   ([`combine`]) — the lingua franca of the simulated memory system.
//! * [`MachineConfig`] — the machine parameters of Table 1 of the paper, plus
//!   the simplified configurations used by the sensitivity study (§4.4).
//! * [`Rng64`] — a tiny deterministic PRNG so that every experiment is
//!   reproducible down to the cycle.
//! * [`run`] — the one event-horizon run loop every simulated machine is
//!   stepped by, through the [`Machine`] hooks.
//!
//! # Example
//!
//! ```
//! use sa_sim::{combine, MachineConfig, ScalarKind, ScatterOp};
//!
//! let cfg = MachineConfig::merrimac();
//! assert_eq!(cfg.cache.banks, 8);
//!
//! // The value semantics of a floating-point scatter-add:
//! let old = 1.5f64.to_bits();
//! let add = 2.25f64.to_bits();
//! let sum = combine(old, add, ScalarKind::F64, ScatterOp::Add);
//! assert_eq!(f64::from_bits(sum), 3.75);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod cycle;
mod ff;
mod queue;
mod req;
mod rng;
mod run;
mod stats;

pub use config::{
    AgConfig, CacheConfig, ComputeConfig, DramConfig, MachineConfig, NetworkConfig, SaUnitConfig,
    SensitivityConfig, Throughput,
};
pub use cycle::{Clock, Cycle};
pub use ff::{fast_forward_default, set_fast_forward_default};
pub use queue::BoundedQueue;
pub use req::{
    combine, identity_bits, Addr, MemOp, MemRequest, MemResponse, Origin, ReqId, ScalarKind,
    ScatterOp, WORD_BYTES,
};
pub use rng::Rng64;
pub use run::{run, Machine, RunEnd};
pub use stats::QueueStats;
