//! The paper's primary software baseline: batched sort + segmented scan.
//!
//! "It is not necessary to sort the entire stream that is to be
//! scatter-added, and ... the scatter-add can be performed in batches. This
//! reduces the run-time significantly, and on our simulated architecture a
//! batch size of 256 elements achieved the highest performance." (§4.1)
//!
//! Each batch is bitonic-sorted by target address; a segmented scan produces
//! one total per *unique* address; those unique addresses are then gathered,
//! added, and scattered back — collision-free because uniqueness was just
//! established. Batches are serialized on the read-modify-write step (two
//! batches may share addresses) but their gathers and kernels pipeline.

use std::collections::HashMap;

use sa_core::ScatterKernel;
use sa_proc::{AccessPattern, OpId, StreamOp, StreamProgram};
use sa_sim::{combine, ScatterOp};

use crate::scan::segment_totals;
use crate::sort::sort_pairs_by_key;

/// The batch size the paper found optimal (§4.1).
pub const DEFAULT_BATCH: usize = 256;

/// Where the software implementation finds its inputs in simulated memory.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SortScanLayout {
    /// Word index of the index array `b` (gathered once per batch).
    pub idx_base: u64,
    /// Word index of the value array `c`; `None` models a scalar constant
    /// (e.g. the histogram's `+1`), which needs no gather.
    pub val_base: Option<u64>,
}

/// ALU ops charged per compare-exchange of the bitonic network
/// (compare + two conditional selects for key and value).
const OPS_PER_COMPARE_EXCHANGE: u64 = 4;
/// SRF words per element per bitonic pass (key and value, read and write).
const SORT_SRF_WORDS_PER_PASS: u64 = 4;
/// Segmented-scan kernel costs per element (flag compute + add + select).
const SCAN_OPS_PER_ELEMENT: u64 = 6;
const SCAN_FLOPS_PER_ELEMENT: u64 = 1;
const SCAN_SRF_WORDS_PER_ELEMENT: u64 = 6;
/// Final read-modify-write kernel costs per unique address.
const RMW_OPS_PER_ELEMENT: u64 = 2;
const RMW_FLOPS_PER_ELEMENT: u64 = 1;
const RMW_SRF_WORDS_PER_ELEMENT: u64 = 3;

/// Functional result of the sort+scan scatter-add (no timing): the final
/// contents of `a[0..result_len]` as raw bits.
///
/// # Panics
///
/// Panics if any index is out of `0..result_len` or `batch == 0`.
pub fn sort_scan_result(kernel: &ScatterKernel, result_len: usize, batch: usize) -> Vec<u64> {
    assert!(batch > 0, "batch size must be positive");
    let mut result = vec![0u64; result_len];
    for (chunk_i, chunk_v) in kernel
        .indices
        .chunks(batch)
        .zip(kernel.values.chunks(batch))
    {
        let (keys, vals, _) = sort_pairs_by_key(chunk_i, chunk_v);
        for (key, total) in segment_totals(&keys, &vals, kernel.kind) {
            let slot = &mut result[key as usize];
            *slot = combine(*slot, total, kernel.kind, ScatterOp::Add);
        }
    }
    result
}

/// Build the stream program that performs `kernel` by batched sort +
/// segmented scan, ready to run on the simulated machine. The program's
/// scatters carry the functionally-correct running totals, so executing it
/// leaves the right result in memory.
///
/// # Panics
///
/// Panics if `batch` is zero, or if the kernel uses a non-`Add` reduction
/// (segmented *scan* composes with any associative op, but the paper's
/// baseline — and this builder — implement addition).
pub fn build_sort_scan(
    kernel: &ScatterKernel,
    layout: &SortScanLayout,
    batch: usize,
) -> StreamProgram {
    assert!(batch > 0, "batch size must be positive");
    assert_eq!(
        kernel.op,
        ScatterOp::Add,
        "sort&scan baseline implements Add"
    );
    let mut prog = StreamProgram::new();
    let mut running: HashMap<u64, u64> = HashMap::new();
    let mut prev_gather: Option<OpId> = None;
    let mut prev_scatter: Option<OpId> = None;

    let n = kernel.indices.len();
    let mut start = 0usize;
    while start < n {
        let end = (start + batch).min(n);
        let b = end - start;
        let chunk_i = &kernel.indices[start..end];
        let chunk_v = &kernel.values[start..end];

        // Gather the index (and value) batch; consecutive gathers chain so
        // they stream in order but overlap downstream compute.
        let gather_deps: Vec<OpId> = prev_gather.into_iter().collect();
        let g_idx = prog.add(
            StreamOp::gather(AccessPattern::Sequential {
                base_word: layout.idx_base + start as u64,
                n: b as u64,
            }),
            &gather_deps,
        );
        let mut batch_inputs = vec![g_idx];
        if let Some(vb) = layout.val_base {
            let g_val = prog.add(
                StreamOp::gather(AccessPattern::Sequential {
                    base_word: vb + start as u64,
                    n: b as u64,
                }),
                &gather_deps,
            );
            batch_inputs.push(g_val);
        }
        prev_gather = Some(g_idx);

        // Sort the batch by target address (bitonic network).
        let (keys, vals, sort_stats) = sort_pairs_by_key(chunk_i, chunk_v);
        let padded = b.next_power_of_two() as u64;
        let sort = prog.add(
            StreamOp::kernel(
                "bitonic-sort",
                padded,
                0,
                OPS_PER_COMPARE_EXCHANGE * sort_stats.passes / 2,
                SORT_SRF_WORDS_PER_PASS * sort_stats.passes,
            ),
            &batch_inputs,
        );

        // Segmented scan → per-unique-address totals.
        let scan = prog.add(
            StreamOp::kernel(
                "segmented-scan",
                b as u64,
                SCAN_FLOPS_PER_ELEMENT,
                SCAN_OPS_PER_ELEMENT,
                SCAN_SRF_WORDS_PER_ELEMENT,
            ),
            &[sort],
        );

        let totals = segment_totals(&keys, &vals, kernel.kind);
        let unique: Vec<u64> = totals.iter().map(|&(k, _)| k).collect();
        let u = unique.len() as u64;

        // Read-modify-write each unique address once; must order behind the
        // previous batch's scatter (addresses may repeat across batches).
        let mut rmw_deps = vec![scan];
        rmw_deps.extend(prev_scatter);
        let g_cur = prog.add(
            StreamOp::gather(AccessPattern::Indexed {
                base_word: kernel.base_word,
                indices: unique.clone(),
            }),
            &rmw_deps,
        );
        let add = prog.add(
            StreamOp::kernel(
                "rmw-add",
                u,
                RMW_FLOPS_PER_ELEMENT,
                RMW_OPS_PER_ELEMENT,
                RMW_SRF_WORDS_PER_ELEMENT,
            ),
            &[g_cur],
        );
        let new_values: Vec<u64> = totals
            .iter()
            .map(|&(k, total)| {
                let slot = running.entry(k).or_insert(0);
                *slot = combine(*slot, total, kernel.kind, ScatterOp::Add);
                *slot
            })
            .collect();
        let scatter = prog.add(
            StreamOp::scatter(
                AccessPattern::Indexed {
                    base_word: kernel.base_word,
                    indices: unique,
                },
                new_values,
            ),
            &[add],
        );
        prev_scatter = Some(scatter);
        start = end;
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
        for (n, range, batch) in [
            (100, 16, 32),
            (1000, 512, 256),
            (777, 100, 256),
            (5, 4, 256),
        ] {
            let k = random_kernel(n, range, n as u64);
            assert_eq!(
                sort_scan_result(&k, range as usize, batch),
                scatter_reference(&k, range as usize),
                "n={n} range={range} batch={batch}"
            );
        }
    }

    #[test]
    fn f64_result_matches_reference_exactly_for_dyadic_values() {
        // Dyadic rationals add exactly in any order, so even f64 agrees
        // bit-for-bit with the sequential reference.
        let mut rng = Rng64::new(9);
        let n = 400;
        let indices: Vec<u64> = (0..n).map(|_| rng.below(32)).collect();
        let values: Vec<f64> = (0..n).map(|_| (rng.below(8) as f64) * 0.25).collect();
        let k = ScatterKernel::superposition(0, indices, &values);
        assert_eq!(sort_scan_result(&k, 32, 256), scatter_reference(&k, 32));
    }

    #[test]
    fn executed_program_leaves_correct_memory() {
        let cfg = MachineConfig::merrimac();
        let k = random_kernel(600, 64, 3);
        let layout = SortScanLayout {
            idx_base: 1 << 14,
            val_base: None,
        };
        let prog = build_sort_scan(&k, &layout, DEFAULT_BATCH);
        let mut node = NodeMemSys::new(cfg, 0, false);
        // Preload the index array (as data for the gathers).
        let idx_i64: Vec<i64> = k.indices.iter().map(|&i| i as i64).collect();
        node.store_mut()
            .load_i64(Addr::from_word_index(layout.idx_base), &idx_i64);
        let report = Executor::new(cfg).run(&prog, &mut node);
        let expect: Vec<i64> = scatter_reference(&k, 64)
            .iter()
            .map(|&b| b as i64)
            .collect();
        assert_eq!(node.store().extract_i64(Addr(0), 64), expect);
        assert!(report.cycles > 0);
        assert!(report.flops() > 0, "scan/rmw kernels do FP work");
    }

    #[test]
    fn program_shape_scales_with_batches() {
        let k = random_kernel(1024, 128, 4);
        let layout = SortScanLayout {
            idx_base: 1 << 14,
            val_base: None,
        };
        let p256 = build_sort_scan(&k, &layout, 256);
        let p128 = build_sort_scan(&k, &layout, 128);
        // 6 ops per batch without a value gather: gather, sort, scan,
        // gather-current, add, scatter.
        assert_eq!(p256.len(), (1024 / 256) * 6);
        assert_eq!(p128.len(), (1024 / 128) * 6);
    }

    #[test]
    fn value_gather_included_when_values_in_memory() {
        let mut rng = Rng64::new(5);
        let n = 300;
        let indices: Vec<u64> = (0..n).map(|_| rng.below(64)).collect();
        let values: Vec<f64> = (0..n).map(|_| rng.range_f64(0.0, 1.0)).collect();
        let k = ScatterKernel::superposition(0, indices, &values);
        let layout = SortScanLayout {
            idx_base: 1 << 14,
            val_base: Some(1 << 15),
        };
        let prog = build_sort_scan(&k, &layout, 256);
        // 7 ops per batch with the value gather; 300 elements → 2 batches.
        assert_eq!(prog.len(), 14);
        // Mem refs: idx + val gathers (2n) plus RMW traffic (2 × unique).
        assert!(prog.total_mem_refs() >= 2 * n as u64);
    }

    #[test]
    fn more_mem_refs_than_hardware_version() {
        // The software baseline's defining cost: it re-reads the data and
        // read-modify-writes unique addresses, where hardware scatter-add
        // sends each element exactly once.
        let k = random_kernel(1000, 64, 6);
        let layout = SortScanLayout {
            idx_base: 1 << 14,
            val_base: None,
        };
        let prog = build_sort_scan(&k, &layout, 256);
        let hw_refs = 1000; // one scatter-add request per element
        assert!(prog.total_mem_refs() > hw_refs);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_rejected() {
        let k = random_kernel(10, 4, 7);
        let _ = sort_scan_result(&k, 4, 0);
    }
}
