//! `--spec FILE`: run a serialized [`SessionSpec`] instead of the binary's
//! built-in experiment.
//!
//! Every figure/ablation binary parses its flags through
//! [`Cli::from_args`], which dispatches here: when `--spec` is present the
//! binary loads the JSON job description, overlays any execution knobs
//! given explicitly on the command line (`--fast-forward`,
//! `--probe-interval`) and an explicit `--faults` plan (re-seeded by
//! `--fault-seed`), runs the session through the same cache/progress
//! plumbing as the HTTP daemon, prints a deterministic summary, and exits —
//! the same job file therefore means the same simulation whether it is
//! submitted to `sa-serve`, replayed by `fig6 --spec job.json`, or
//! fingerprinted by the result cache. A malformed spec follows the shared
//! usage convention: `error: ...` plus a usage block, exit status 2.

use std::io::Write;
use std::sync::Arc;

use crate::cli::Cli;
use sa_telemetry::Json;
use scatter_add_repro::{ResultCache, SessionSpec};

/// Usage block printed (to stderr) on any `--spec` error.
pub const SPEC_USAGE: &str = "\
usage: <bin> --spec JOB.json [run-control flags]

  runs the serialized session the file describes instead of the binary's
  built-in experiment (schema: sa-session-spec v1, see docs/SERVING.md).
  execution knobs given explicitly on the command line override the spec's
  exec section: --fast-forward on|off, --probe-interval N. --faults PLAN
  (with --fault-seed N) replaces the spec's fault plan, and so its cache
  key. --cache[=DIR] and --progress attach as usual; with a cache, a warm
  spec replays without simulating.
  --stats-json PATH additionally writes the job's sa-stats document.
";

/// Run the `--spec` job and exit: status 0 on success, 2 on a malformed
/// spec (shared usage convention), 1 on an I/O failure writing outputs.
pub fn run_and_exit(cli: &Cli) -> ! {
    let Some(path) = cli.args().raw("spec") else {
        crate::usage_error("--spec needs a job file path", SPEC_USAGE);
    };
    match run_spec(path, cli, &mut std::io::stderr()) {
        Ok(summary) => {
            print!("{summary}");
            std::process::exit(0);
        }
        Err(SpecError::Spec(e)) => crate::usage_error(&e, SPEC_USAGE),
        Err(SpecError::Io(e)) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// What went wrong running a spec: a bad job description (usage, exit 2)
/// or a failed output write (I/O, exit 1).
pub enum SpecError {
    /// The job file is missing, malformed, or semantically invalid.
    Spec(String),
    /// An output (e.g. `--stats-json`) could not be written.
    Io(String),
}

/// Load, overlay, run, and summarize one spec file. The summary is
/// deterministic (no wall-clock, no cache state), so repeated runs of the
/// same job print identical bytes; the `cache: hit|miss` line and output
/// notes go to `log` (stderr in a binary).
pub fn run_spec(path: &str, cli: &Cli, log: &mut dyn Write) -> Result<String, SpecError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SpecError::Spec(format!("--spec {path}: {e}")))?;
    let doc =
        Json::parse(&text).map_err(|e| SpecError::Spec(format!("--spec {path}: not JSON: {e}")))?;
    let mut spec =
        SessionSpec::from_json(&doc).map_err(|e| SpecError::Spec(format!("--spec {path}: {e}")))?;

    // Command-line execution knobs beat the spec's exec section, but only
    // when explicitly given — absence means "respect the job file".
    let args = cli.args();
    if args.raw("fast-forward").is_some() {
        spec.exec.fast_forward = Some(cli.fast_forward());
    }
    if args.raw("probe-interval").is_some() {
        spec.probe_interval = cli.probe_interval();
    }
    // The session never reads the process-wide plan, so an explicit
    // `--faults` must ride in the spec (and its fingerprint) to apply.
    if let Some(plan) = cli.fault_plan() {
        spec.faults = Some(plan.clone());
    }

    let mut builder = spec.to_builder().progress(cli.progress());
    let cache = match cli.cache_dir() {
        Some(dir) => {
            let cache = Arc::new(
                ResultCache::open(dir).map_err(|e| SpecError::Io(format!("--cache {dir}: {e}")))?,
            );
            builder = builder.cache(Arc::clone(&cache));
            Some(cache)
        }
        None => None,
    };
    let session = builder
        .build()
        .map_err(|e| SpecError::Spec(format!("--spec {path}: {e}")))?;
    let digest = session.fingerprint().digest();
    let cached = session.cached();
    let hit = cached.is_some();
    let report = cached.unwrap_or_else(|| session.simulate());

    if let Some(cache) = &cache {
        let _ = writeln!(
            log,
            "cache: {} (hits {} misses {} stores {})",
            if hit { "hit" } else { "miss" },
            cache.hits(),
            cache.misses(),
            cache.stores()
        );
    }
    if let Some(out) = args.raw("stats-json") {
        let stats = sa_serve::job_stats_json(&spec, &report);
        std::fs::write(out, format!("{}\n", stats.to_string_pretty()))
            .map_err(|e| SpecError::Io(format!("--stats-json {out}: {e}")))?;
        let _ = writeln!(log, "stats-json: wrote {out}");
    }

    let mut summary = String::new();
    summary.push_str(&format!("spec {path}\n"));
    summary.push_str(&format!("  digest        {digest}\n"));
    summary.push_str(&format!("  cycles        {}\n", report.cycles));
    summary.push_str(&format!("  adds          {}\n", report.adds));
    summary.push_str(&format!("  result words  {}\n", report.result.len()));
    summary.push_str(&format!("  nodes         {}\n", report.node_stats.len()));
    if report.sum_back_lines > 0 {
        summary.push_str(&format!("  sum-back      {}\n", report.sum_back_lines));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;
    use scatter_add_repro::Workload;

    fn cli(argv: &str) -> Cli {
        let args = Args::parse(argv.split_whitespace().map(str::to_owned));
        Cli::try_from_args(args, crate::cli::COMMON_FLAGS).expect("argv parses")
    }

    fn job() -> SessionSpec {
        SessionSpec::new(Workload::Histogram {
            base_word: 0,
            indices: (0..256u64).map(|i| (i * 13 + 1) % 32).collect(),
        })
    }

    fn write_spec(tag: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("sa-specrun-{tag}-{}.json", std::process::id()));
        std::fs::write(&path, job().to_json().to_string_pretty()).expect("write spec");
        path
    }

    #[test]
    fn summaries_are_deterministic_across_exec_knobs() {
        let path = write_spec("det");
        let base = run_spec(path.to_str().unwrap(), &cli(""), &mut Vec::new())
            .ok()
            .unwrap();
        assert!(base.contains("cycles"));
        let stepped = run_spec(
            path.to_str().unwrap(),
            &cli("--fast-forward off"),
            &mut Vec::new(),
        )
        .ok()
        .unwrap();
        assert_eq!(base, stepped, "exec knobs must not change the summary");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_recomputed_stale_entry_prints_cache_miss() {
        let path = write_spec("stale");
        let dir = std::env::temp_dir().join(format!("sa-specrun-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run = |log: &mut Vec<u8>| {
            let argv = format!("--spec {} --cache={}", path.display(), dir.display());
            run_spec(path.to_str().unwrap(), &cli(&argv), log)
                .ok()
                .unwrap()
        };
        let mut cold = Vec::new();
        let summary = run(&mut cold);
        assert!(String::from_utf8(cold).unwrap().starts_with("cache: miss"));
        // Replace the entry with a report under a layout the decoder
        // rejects; the entry itself is valid, so only the decoder refuses it.
        let cache = ResultCache::open(&dir).unwrap();
        let fresh = cache.lookup(&job().fingerprint()).expect("cold run stored");
        let stale = fresh
            .to_string_compact()
            .replacen("\"sa\":{", "\"sa\":{\"retired\":1,", 1);
        cache
            .store(&job().fingerprint(), &Json::parse(&stale).unwrap())
            .unwrap();
        let mut again = Vec::new();
        assert_eq!(run(&mut again), summary);
        let again = String::from_utf8(again).unwrap();
        assert!(
            again.starts_with("cache: miss (hits 0 misses 1 stores 1)"),
            "{again}"
        );
        let mut warm = Vec::new();
        run(&mut warm);
        assert!(String::from_utf8(warm).unwrap().starts_with("cache: hit"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_specs_are_usage_errors() {
        let missing = run_spec("/nonexistent/job.json", &cli(""), &mut Vec::new());
        assert!(matches!(missing, Err(SpecError::Spec(_))));
        let path = std::env::temp_dir().join(format!("sa-specrun-bad-{}.json", std::process::id()));
        std::fs::write(&path, "{\"schema\":\"wrong\"}").expect("write");
        let bad = run_spec(path.to_str().unwrap(), &cli(""), &mut Vec::new());
        match bad {
            Err(SpecError::Spec(e)) => assert!(e.contains("schema"), "got: {e}"),
            _ => panic!("expected a spec error"),
        }
        let _ = std::fs::remove_file(&path);
    }
}
