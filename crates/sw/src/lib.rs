//! Software scatter-add for data-parallel machines — the baselines the
//! paper's hardware mechanism is compared against (§2.1, §4.1).
//!
//! Three techniques are implemented, each in two layers:
//!
//! * a **functional** layer (real sorts, scans, and sums, unit- and
//!   property-tested against scalar references), and
//! * a **stream program builder** that emits the gathers, kernels, and
//!   scatters a stream compiler would generate, so the same computation can
//!   be *timed* on the simulated machine by `sa-proc`'s executor.
//!
//! The techniques:
//!
//! 1. [`build_sort_scan`] — the paper's primary software baseline: process
//!    the input in constant-size batches (256 elements performed best on
//!    the paper's machine, §4.1); bitonic-sort each batch by target address,
//!    compute per-address sums with a segmented scan, then read-modify-write
//!    each *unique* address once (collision-free by construction).
//! 2. [`build_privatization`] — iterate over the dataset once per register
//!    tile of output bins (complexity `O(m·n)`, §2.1); only sensible for
//!    small index ranges (Figure 8).
//! 3. [`build_coloring`] — partition the dataset into *colors* with no
//!    repeated address inside a color, then update one color at a time
//!    (§2.1; evaluated here as an extension — the paper describes but does
//!    not measure it).
//!
//! # Example
//!
//! ```
//! use sa_core::{scatter_reference, ScatterKernel};
//! use sa_sw::sort_scan_result;
//!
//! let kernel = ScatterKernel::histogram(0, vec![2, 0, 2, 1, 2]);
//! let sw = sort_scan_result(&kernel, 4, 256);
//! assert_eq!(sw, scatter_reference(&kernel, 4));
//! assert_eq!(sw, vec![1, 1, 3, 0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batched;
mod coloring;
mod privatization;
mod scan;
mod sort;

pub use batched::{build_sort_scan, sort_scan_result, SortScanLayout, DEFAULT_BATCH};
pub use coloring::{build_coloring, color_assignment, coloring_result};
pub use privatization::{build_privatization, privatization_result, DEFAULT_TILE};
pub use scan::{
    exclusive_scan_add, inclusive_scan_add, segment_heads, segment_totals, segmented_scan_add,
};
pub use sort::{
    bitonic_sort_pairs, is_sorted_by_key, merge_sorted_runs, sort_pairs_by_key, SortStats,
};
