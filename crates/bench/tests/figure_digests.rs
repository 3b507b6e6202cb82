//! Golden figure digests: every figure binary's `--quick --jobs 2` stdout
//! and `--stats-json` document must hash to the SHA-256 committed in
//! `bench/baselines/figures.sha256`. A change that moves any simulated
//! number, table cell or metric fails here, naming the figure and which of
//! its two outputs differs.

use std::process::Command;

use sa_memo::sha256_hex;

/// The figure binaries, in suite order.
const FIGURES: [(&str, &str); 11] = [
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("fig6", env!("CARGO_BIN_EXE_fig6")),
    ("fig7", env!("CARGO_BIN_EXE_fig7")),
    ("fig8", env!("CARGO_BIN_EXE_fig8")),
    ("fig9", env!("CARGO_BIN_EXE_fig9")),
    ("fig10", env!("CARGO_BIN_EXE_fig10")),
    ("fig11", env!("CARGO_BIN_EXE_fig11")),
    ("fig12", env!("CARGO_BIN_EXE_fig12")),
    ("fig13", env!("CARGO_BIN_EXE_fig13")),
    ("extensions", env!("CARGO_BIN_EXE_extensions")),
    ("ablate", env!("CARGO_BIN_EXE_ablate")),
];

const DIGESTS: &str = include_str!("../../../bench/baselines/figures.sha256");

/// The committed digest of `file` (`sha256sum` format, `#` comments).
fn committed(file: &str) -> &'static str {
    DIGESTS
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (hash, name) = l.split_once("  ")?;
            (name == file).then_some(hash)
        })
        .unwrap_or_else(|| panic!("figures.sha256 has no entry for {file}"))
}

#[test]
fn quick_figures_match_the_committed_digests() {
    let dir = std::env::temp_dir().join(format!("sa-figure-digests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut differ = Vec::new();
    for (name, bin) in FIGURES {
        let stats = dir.join(format!("{name}.stats.json"));
        let out = Command::new(bin)
            .args(["--quick", "--jobs", "2", "--stats-json"])
            .arg(&stats)
            .env_remove("SA_JOBS")
            .env_remove("SA_CACHE_DIR")
            .env_remove("SA_QUICK")
            .output()
            .expect("figure binary runs");
        assert!(out.status.success(), "{name} exited {}", out.status);
        let doc = std::fs::read(&stats).expect("stats document written");
        for (file, bytes) in [
            (format!("{name}.stdout"), &out.stdout),
            (format!("{name}.stats.json"), &doc),
        ] {
            if sha256_hex(bytes) != committed(&file) {
                differ.push(file);
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        differ.is_empty(),
        "figure outputs differ from bench/baselines/figures.sha256: {differ:?}"
    );
}
