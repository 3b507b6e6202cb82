//! The coloring software baseline (§2.1) — implemented as an extension.
//!
//! "The final software technique relies on coloring of the dataset, such
//! that each color only contains non-colliding elements. Then each iteration
//! updates the sums in memory for a single color and the total run-time
//! complexity is O(n). The problem is in finding a partition of the dataset
//! that satisfies the coloring constraint ... in the worst case a large
//! number of necessary colors will yield a serial schedule."
//!
//! The paper describes but does not evaluate coloring; we implement it both
//! to test against and to use in ablation benches.

use sa_core::ScatterKernel;
use sa_proc::{AccessPattern, OpId, StreamOp, StreamProgram};
use sa_sim::{combine, ScatterOp};

use std::collections::HashMap;

/// Per-element kernel cost of a color's read-modify-write.
const RMW_OPS_PER_ELEMENT: u64 = 2;
const RMW_FLOPS_PER_ELEMENT: u64 = 1;
const RMW_SRF_WORDS_PER_ELEMENT: u64 = 3;

/// Greedy color assignment: element `i` gets color = number of earlier
/// occurrences of its index. Within a color every address is unique, and the
/// number of colors equals the maximum address multiplicity (optimal for
/// this constraint).
pub fn color_assignment(indices: &[u64]) -> Vec<usize> {
    let mut seen: HashMap<u64, usize> = HashMap::new();
    indices
        .iter()
        .map(|&idx| {
            let c = seen.entry(idx).or_insert(0);
            let color = *c;
            *c += 1;
            color
        })
        .collect()
}

/// Functional result of the coloring scatter-add.
pub fn coloring_result(kernel: &ScatterKernel, range: usize) -> Vec<u64> {
    let colors = color_assignment(&kernel.indices);
    let n_colors = colors.iter().copied().max().map_or(0, |m| m + 1);
    let mut result = vec![0u64; range];
    for color in 0..n_colors {
        for (i, &idx) in kernel.indices.iter().enumerate() {
            if colors[i] == color {
                result[idx as usize] = combine(
                    result[idx as usize],
                    kernel.values[i],
                    kernel.kind,
                    ScatterOp::Add,
                );
            }
        }
    }
    result
}

/// Build the stream program: one collision-free gather → add → scatter round
/// per color, serialized across colors.
///
/// # Panics
///
/// Panics if the kernel's reduction is not `Add`.
pub fn build_coloring(kernel: &ScatterKernel, range: usize) -> StreamProgram {
    assert_eq!(
        kernel.op,
        ScatterOp::Add,
        "coloring baseline implements Add"
    );
    let colors = color_assignment(&kernel.indices);
    let n_colors = colors.iter().copied().max().map_or(0, |m| m + 1);
    let mut running = vec![0u64; range];
    let mut prog = StreamProgram::new();
    let mut prev_scatter: Option<OpId> = None;

    for color in 0..n_colors {
        let members: Vec<usize> = (0..kernel.indices.len())
            .filter(|&i| colors[i] == color)
            .collect();
        let idxs: Vec<u64> = members.iter().map(|&i| kernel.indices[i]).collect();
        let u = idxs.len() as u64;
        let deps: Vec<OpId> = prev_scatter.into_iter().collect();
        let gather = prog.add(
            StreamOp::gather(AccessPattern::Indexed {
                base_word: kernel.base_word,
                indices: idxs.clone(),
            }),
            &deps,
        );
        let add = prog.add(
            StreamOp::kernel(
                "color-rmw",
                u,
                RMW_FLOPS_PER_ELEMENT,
                RMW_OPS_PER_ELEMENT,
                RMW_SRF_WORDS_PER_ELEMENT,
            ),
            &[gather],
        );
        let values: Vec<u64> = members
            .iter()
            .map(|&i| {
                let idx = kernel.indices[i] as usize;
                running[idx] = combine(running[idx], kernel.values[i], kernel.kind, ScatterOp::Add);
                running[idx]
            })
            .collect();
        let scatter = prog.add(
            StreamOp::scatter(
                AccessPattern::Indexed {
                    base_word: kernel.base_word,
                    indices: idxs,
                },
                values,
            ),
            &[add],
        );
        prev_scatter = Some(scatter);
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

    #[test]
    fn colors_are_collision_free() {
        let indices = vec![3u64, 1, 3, 3, 1, 0];
        let colors = color_assignment(&indices);
        assert_eq!(colors, vec![0, 0, 1, 2, 1, 0]);
        // Within each color, indices are unique.
        let n_colors = colors.iter().max().unwrap() + 1;
        for c in 0..n_colors {
            let mut seen = std::collections::HashSet::new();
            for (i, &col) in colors.iter().enumerate() {
                if col == c {
                    assert!(seen.insert(indices[i]), "collision in color {c}");
                }
            }
        }
        assert_eq!(n_colors, 3, "max multiplicity of 3 needs 3 colors");
    }

    #[test]
    fn functional_result_matches_reference() {
        let mut rng = Rng64::new(21);
        let k = ScatterKernel::histogram(0, (0..400).map(|_| rng.below(32)).collect());
        assert_eq!(coloring_result(&k, 32), scatter_reference(&k, 32));
    }

    #[test]
    fn executed_program_leaves_correct_memory() {
        let cfg = MachineConfig::merrimac();
        let mut rng = Rng64::new(22);
        let k = ScatterKernel::histogram(0, (0..200).map(|_| rng.below(16)).collect());
        let prog = build_coloring(&k, 16);
        let mut node = NodeMemSys::new(cfg, 0, false);
        Executor::new(cfg).run(&prog, &mut node);
        let expect: Vec<i64> = scatter_reference(&k, 16)
            .iter()
            .map(|&b| b as i64)
            .collect();
        assert_eq!(node.store().extract_i64(Addr(0), 16), expect);
    }

    #[test]
    fn skewed_data_serializes() {
        // All elements to one bin → n colors → a serial schedule (the
        // worst case the paper warns about).
        let k = ScatterKernel::histogram(0, vec![0; 50]);
        let prog = build_coloring(&k, 1);
        assert_eq!(prog.len(), 50 * 3, "one round per element");
    }

    #[test]
    fn empty_input_yields_empty_program() {
        let k = ScatterKernel::histogram(0, vec![]);
        assert!(build_coloring(&k, 4).is_empty());
        assert_eq!(coloring_result(&k, 4), vec![0; 4]);
    }
}
