//! Shared harness for the figure/table regeneration binaries.
//!
//! Every figure and table of the paper's evaluation section has a binary in
//! `src/bin/` that prints the same rows or series the paper reports:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | Table 1 — machine parameters |
//! | `fig6`   | histogram time vs input size (HW vs sort&scan) |
//! | `fig7`   | histogram time vs index range (HW vs sort&scan) |
//! | `fig8`   | histogram time vs index range (HW vs privatization) |
//! | `fig9`   | SpMV: CSR vs EBE-SW vs EBE-HW |
//! | `fig10`  | MD: no-SA vs SW vs HW |
//! | `fig11`  | combining-store size vs memory/FU latency |
//! | `fig12`  | combining-store size vs memory throughput |
//! | `fig13`  | multi-node scalability |
//!
//! Run one with `cargo run --release -p sa-bench --bin fig6`. Pass
//! `--quick` (or set `SA_QUICK=1`) for a reduced-size smoke run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;

/// Print a figure/table header.
pub fn header(title: &str, caption: &str) {
    println!("\n=== {title} ===");
    println!("{caption}");
}

/// Print one row of labelled values, aligned for terminal reading.
pub fn row(label: impl Display, cells: &[(&str, String)]) {
    let mut line = format!("  {label:<24}");
    for (name, value) in cells {
        line.push_str(&format!("  {name}={value:<12}"));
    }
    println!("{}", line.trim_end());
}

/// Format microseconds like the paper's axes.
pub fn us(micros: f64) -> String {
    format!("{micros:.2}us")
}

/// Format a cycle count in millions (the unit of Figures 9 and 10).
pub fn mcycles(cycles: u64) -> String {
    format!("{:.3}M", cycles as f64 / 1e6)
}

/// Format an operation count in millions.
pub fn mops(ops: u64) -> String {
    format!("{:.3}M", ops as f64 / 1e6)
}

/// Format a ratio.
pub fn ratio(a: u64, b: u64) -> String {
    if b == 0 {
        "inf".to_owned()
    } else {
        format!("{:.2}x", a as f64 / b as f64)
    }
}

/// The one usage-error convention every binary shares: `error: <context>`
/// on stderr, then the caller's usage block, then exit status 2. Data and
/// I/O failures exit 1 instead — status 2 always means "fix the command
/// line / job spec".
pub fn usage_error(context: &str, usage: &str) -> ! {
    if !context.is_empty() {
        eprintln!("error: {context}\n");
    }
    eprint!("{usage}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatters() {
        assert_eq!(us(1.234), "1.23us");
        assert_eq!(mcycles(1_536_000), "1.536M");
        assert_eq!(mops(250_000), "0.250M");
        assert_eq!(ratio(300, 100), "3.00x");
        assert_eq!(ratio(1, 0), "inf");
    }
}

pub mod args;
pub mod cli;
pub mod diff;
pub mod specrun;
pub mod sweep;
pub mod telemetry;
