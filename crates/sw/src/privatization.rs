//! The privatization software baseline (§2.1, Figure 8).
//!
//! "The data is iterated over multiple times where each iteration computes
//! the sum for a particular target address. Since the addresses are treated
//! individually and the sums stored in registers, or other named state,
//! memory collisions are avoided. This technique is useful when the range of
//! target addresses is small, and its complexity is O(mn)."
//!
//! We privatize a *tile* of bins per pass (the registers each cluster can
//! afford), so the pass count is `ceil(range / tile)` and every pass re-reads
//! the entire dataset — the O(m·n) behaviour Figure 8 shows.

use sa_core::ScatterKernel;
use sa_proc::{AccessPattern, OpId, StreamOp, StreamProgram};
use sa_sim::{combine, ScatterOp};

/// Bins privatized per pass: what fits in cluster registers alongside the
/// kernel's working state on a Merrimac-class machine.
pub const DEFAULT_TILE: usize = 32;

/// Per-element kernel cost of one privatization pass: compute the bin,
/// range-test it against the tile, and conditionally accumulate.
const PASS_OPS_PER_ELEMENT: u64 = 4;
const PASS_FLOPS_PER_ELEMENT: u64 = 1;
const PASS_SRF_WORDS_PER_ELEMENT: u64 = 2;

/// Functional result of privatization (no timing): final contents of
/// `a[0..range]` as raw bits.
///
/// # Panics
///
/// Panics if `tile` is zero or an index falls outside `0..range`.
pub fn privatization_result(kernel: &ScatterKernel, range: usize, tile: usize) -> Vec<u64> {
    assert!(tile > 0, "tile must be positive");
    let mut result = vec![0u64; range];
    let mut lo = 0usize;
    while lo < range {
        let hi = (lo + tile).min(range);
        for (i, &idx) in kernel.indices.iter().enumerate() {
            let idx = idx as usize;
            assert!(idx < range, "index {idx} out of range {range}");
            if (lo..hi).contains(&idx) {
                result[idx] = combine(result[idx], kernel.values[i], kernel.kind, ScatterOp::Add);
            }
        }
        lo = hi;
    }
    result
}

/// Build the stream program for privatization: one full pass over the data
/// per tile of `range` bins.
///
/// # Panics
///
/// Panics if `tile` is zero or the kernel's reduction is not `Add`.
pub fn build_privatization(
    kernel: &ScatterKernel,
    idx_base: u64,
    range: usize,
    tile: usize,
) -> StreamProgram {
    assert!(tile > 0, "tile must be positive");
    assert_eq!(
        kernel.op,
        ScatterOp::Add,
        "privatization baseline implements Add"
    );
    let n = kernel.indices.len() as u64;
    let mut prog = StreamProgram::new();
    let mut prev_gather: Option<OpId> = None;

    let mut lo = 0usize;
    while lo < range {
        let hi = (lo + tile).min(range);
        let deps: Vec<OpId> = prev_gather.into_iter().collect();
        let gather = prog.add(
            StreamOp::gather(AccessPattern::Sequential {
                base_word: idx_base,
                n,
            }),
            &deps,
        );
        prev_gather = Some(gather);
        let k = prog.add(
            StreamOp::kernel(
                "privatized-accumulate",
                n,
                PASS_FLOPS_PER_ELEMENT,
                PASS_OPS_PER_ELEMENT,
                PASS_SRF_WORDS_PER_ELEMENT,
            ),
            &[gather],
        );
        // Write this tile's finished bins.
        let tile_values: Vec<u64> = (lo..hi)
            .map(|bin| {
                let mut acc = 0u64;
                for (i, &idx) in kernel.indices.iter().enumerate() {
                    if idx as usize == bin {
                        acc = combine(acc, kernel.values[i], kernel.kind, ScatterOp::Add);
                    }
                }
                acc
            })
            .collect();
        prog.add(
            StreamOp::scatter(
                AccessPattern::Sequential {
                    base_word: kernel.base_word + lo as u64,
                    n: (hi - lo) as u64,
                },
                tile_values,
            ),
            &[k],
        );
        lo = hi;
    }
    prog
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_core::scatter_reference;
    use sa_core::NodeMemSys;
    use sa_proc::Executor;
    use sa_sim::{Addr, MachineConfig, Rng64};

    fn random_kernel(n: usize, range: u64, seed: u64) -> ScatterKernel {
        let mut rng = Rng64::new(seed);
        ScatterKernel::histogram(0, (0..n).map(|_| rng.below(range)).collect())
    }

    #[test]
    fn functional_result_matches_reference() {
        for (n, range, tile) in [(100usize, 16usize, 4usize), (500, 128, 32), (64, 7, 3)] {
            let k = random_kernel(n, range as u64, (n + range) as u64);
            assert_eq!(
                privatization_result(&k, range, tile),
                scatter_reference(&k, range),
                "n={n} range={range} tile={tile}"
            );
        }
    }

    #[test]
    fn executed_program_leaves_correct_memory() {
        let cfg = MachineConfig::merrimac();
        let k = random_kernel(256, 64, 11);
        let prog = build_privatization(&k, 1 << 14, 64, DEFAULT_TILE);
        let mut node = NodeMemSys::new(cfg, 0, false);
        Executor::new(cfg).run(&prog, &mut node);
        let expect: Vec<i64> = scatter_reference(&k, 64)
            .iter()
            .map(|&b| b as i64)
            .collect();
        assert_eq!(node.store().extract_i64(Addr(0), 64), expect);
    }

    #[test]
    fn mem_refs_scale_with_range() {
        // The O(m·n) signature: doubling the range doubles the gathers.
        let k = random_kernel(512, 256, 12);
        let small = build_privatization(&k, 1 << 14, 128, 32);
        let large = build_privatization(&k, 1 << 14, 256, 32);
        assert!(large.total_mem_refs() > small.total_mem_refs() * 3 / 2);
        // Per pass: n index gathers + tile writes.
        assert_eq!(large.total_mem_refs(), (256 / 32) * (512 + 32));
    }

    #[test]
    fn partial_final_tile_handled() {
        let k = random_kernel(50, 10, 13);
        // range 10, tile 4 → tiles of 4, 4, 2.
        assert_eq!(privatization_result(&k, 10, 4), scatter_reference(&k, 10));
        let prog = build_privatization(&k, 1 << 14, 10, 4);
        assert_eq!(prog.len(), 3 * 3);
    }

    #[test]
    #[should_panic(expected = "tile must be positive")]
    fn zero_tile_rejected() {
        let k = random_kernel(4, 4, 14);
        let _ = privatization_result(&k, 4, 0);
    }
}
