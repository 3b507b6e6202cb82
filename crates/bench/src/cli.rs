//! One parsed command line per binary.
//!
//! Every sa-bench binary parses its flags exactly once, into one [`Cli`].
//! A figure binary's `Cli` is owned by its
//! [`BenchRun`](crate::telemetry::BenchRun), which hands the worker count
//! and the quick flag to its sweeps. The common flags:
//!
//! - `--jobs N` — sweep worker threads (beats `SA_JOBS`, defaults to cores)
//! - `--fast-forward on|off` — event-horizon cycle skipping (default `on`)
//! - `--stats-json PATH`, `--trace PATH` — telemetry outputs (consumed by
//!   [`BenchRun`](crate::telemetry::BenchRun))
//! - `--faults PLAN.json` — install a fault plan for every machine the
//!   binary builds (see `docs/RESILIENCE.md`)
//! - `--fault-seed N` — override the plan's seed without editing the file
//! - `--quick` — reduced-size smoke run
//! - `--progress` — NDJSON heartbeats (cycles/sec, ff ratio, sweep ETA)
//!   and `sa-probe` snapshots on stderr; pipe them into `analyze --watch -`
//!   for a live dashboard
//! - `--probe-interval N` — snapshot cadence in simulated cycles (0/off
//!   unless given)
//! - `--host-profile` — collect host wall-clock phase attribution into the
//!   nondeterministic `host_profile` stats sidecar
//! - `--spec JOB.json` — run a serialized `SessionSpec` job instead of
//!   the binary's built-in experiment (see [`crate::specrun`] and
//!   `docs/SERVING.md`); dispatched by [`Cli::from_args`] so every figure
//!   binary gets it
//! - `--cache[=DIR]` / `--cache DIR` — content-addressed result cache for
//!   the `--spec` job (see `docs/PERFORMANCE.md`); a bare `--cache` uses
//!   `SA_CACHE_DIR` or `.sa-cache`, and setting the `SA_CACHE_DIR`
//!   environment variable enables the cache without any flag. A figure
//!   sweep is never cached: `--cache` without `--spec` is a usage error
//!
//! The flag set is closed: a binary names every flag it accepts
//! ([`COMMON_FLAGS`], plus the machine and workload knobs each `explore`
//! subcommand reads; `serve` takes only its listener settings and three
//! run controls). Anything else — a typo such as `--stats-jsno`, or a flag
//! that no longer exists — is a usage error (exit 2), never silently
//! ignored.
//!
//! [`Cli::try_from_args`] only parses. The process entry point
//! [`Cli::from_args`] is the one place that installs process-wide defaults,
//! and it installs two — `--fast-forward` via
//! [`sa_sim::set_fast_forward_default`] and `--faults` via
//! [`sa_faults::set_default_plan`] — so simulators built afterwards pick
//! them up without explicit plumbing. The `--progress` sink is not a
//! process-wide default: [`Cli::progress`] hands it to whoever reports,
//! [`BenchRun`](crate::telemetry::BenchRun) for sweeps and probes, the
//! `--spec` session, or `serve`'s `ServeConfig`.

use crate::args::Args;
use sa_faults::FaultPlan;
use sa_telemetry::Progress;

/// The flags every figure, table and ablation binary accepts.
/// `--cache=DIR` arrives as a switch named `cache=DIR` and counts as
/// `cache`.
pub const COMMON_FLAGS: &[&str] = &[
    "jobs",
    "fast-forward",
    "faults",
    "fault-seed",
    "quick",
    "spec",
    "cache",
    "stats-json",
    "trace",
    "progress",
    "probe-interval",
    "host-profile",
];

/// Usage block printed (to stderr) on any malformed or unknown common flag.
pub const USAGE: &str = "\
common flags:
  --quick                reduced-size smoke run (also SA_QUICK=1)
  --jobs N               sweep worker threads (also SA_JOBS; default: cores)
  --fast-forward on|off  event-horizon cycle skipping (default on)
  --faults PLAN.json     install a fault plan (--fault-seed N re-seeds it)
  --spec JOB.json        run a serialized session instead of the experiment
  --cache[=DIR]          result cache for the --spec job (also SA_CACHE_DIR)
  --stats-json PATH      write the sa-stats document
  --trace PATH           write a Chrome trace of the canonical run
  --progress             NDJSON heartbeats and sa-probe snapshots on stderr
  --probe-interval N     sa-probe snapshot cadence in simulated cycles
  --host-profile         host wall-clock sidecar in the stats document
";

/// Whether `args` ask for a reduced-size smoke run: `--quick`, or `SA_QUICK`
/// set in the environment.
pub fn quick_requested(args: &Args) -> bool {
    args.has("quick") || std::env::var_os("SA_QUICK").is_some()
}

/// Resolve the result-cache directory from `--cache[=DIR]` and the
/// `SA_CACHE_DIR` environment variable; `None` means caching stays off.
///
/// The argument grammar has no `=` splitting, so `--cache=DIR` arrives as a
/// switch literally named `cache=DIR` — scan the flag names for the prefix.
fn resolve_cache_dir(args: &Args) -> Option<String> {
    if let Some(dir) = args.raw("cache") {
        return Some(dir.to_owned());
    }
    for flag in args.flags() {
        if let Some(dir) = flag.strip_prefix("cache=") {
            if !dir.is_empty() {
                return Some(dir.to_owned());
            }
        }
    }
    let env = std::env::var(sa_memo::ENV_DIR)
        .ok()
        .filter(|d| !d.is_empty());
    if args.has("cache") {
        return Some(env.unwrap_or_else(|| sa_memo::DEFAULT_DIR.to_owned()));
    }
    env
}

/// The parsed command line: the run-control flags plus the raw [`Args`]
/// for binary-specific ones.
#[derive(Debug)]
pub struct Cli {
    args: Args,
    jobs: usize,
    fast_forward: bool,
    fault_plan: Option<FaultPlan>,
    probe_interval: u64,
    cache_dir: Option<String>,
    progress: Progress,
}

impl Cli {
    /// Parse the process arguments `args` against the closed flag set
    /// `flags`, install the process-wide defaults, and dispatch `--spec`.
    ///
    /// A parse failure prints `usage` and exits with status 2. When
    /// `--spec JOB.json` is given the binary's own experiment is skipped
    /// entirely: the serialized session runs through [`crate::specrun`] and
    /// the process exits (status 0, or 2 on a malformed spec).
    pub fn from_args(args: Args, flags: &[&str], usage: &str) -> Cli {
        let cli = Cli::try_from_args(args, flags).unwrap_or_else(|e| crate::usage_error(&e, usage));
        sa_sim::set_fast_forward_default(cli.fast_forward);
        sa_faults::set_default_plan(cli.fault_plan.clone());
        if cli.args.has("spec") {
            crate::specrun::run_and_exit(&cli);
        }
        cli
    }

    /// Parse pre-collected arguments against the closed flag set `flags`.
    /// Installs nothing and runs nothing.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed flag: one outside
    /// `flags`, a bad number, an unknown `--fast-forward` mode, an
    /// unreadable/invalid fault plan, or `--cache` without `--spec` in a
    /// binary that takes `--spec`.
    pub fn try_from_args(args: Args, flags: &[&str]) -> Result<Cli, String> {
        if let Some(unknown) = args.flags().find(|f| {
            let name = if f.starts_with("cache=") { "cache" } else { f };
            !flags.contains(&name)
        }) {
            return Err(format!("unknown flag --{unknown}"));
        }
        if flags.contains(&"spec") && !args.has("spec") {
            if let Some(cache) = args.flags().find(|f| f.split('=').next() == Some("cache")) {
                return Err(format!(
                    "--{cache} caches --spec jobs only; figure sweeps always simulate"
                ));
            }
        }
        let jobs =
            crate::sweep::resolve_jobs(args.get_or("jobs", 0usize).map_err(|e| e.to_string())?);
        let fast_forward = args
            .choice("fast-forward", &["on", "off"], "on")
            .map_err(|e| e.to_string())?
            == "on";
        let fault_plan = match args.raw("faults") {
            None => None,
            Some(path) => {
                let mut plan = FaultPlan::load(std::path::Path::new(path))?;
                if let Some(seed) = args.raw("fault-seed") {
                    plan.seed = seed
                        .parse()
                        .map_err(|_| format!("--fault-seed: could not parse {seed:?}"))?;
                }
                Some(plan)
            }
        };
        let probe_interval = args
            .get_or("probe-interval", 0u64)
            .map_err(|e| e.to_string())?;
        let cache_dir = resolve_cache_dir(&args);
        let progress = if args.has("progress") {
            Progress::stderr()
        } else {
            Progress::off()
        };
        Ok(Cli {
            args,
            jobs,
            fast_forward,
            fault_plan,
            probe_interval,
            cache_dir,
            progress,
        })
    }

    /// The raw arguments, for flags specific to one binary.
    pub fn args(&self) -> &Args {
        &self.args
    }

    /// Sweep worker threads (`--jobs` / `SA_JOBS` / available cores).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Whether event-horizon fast-forward is enabled (`--fast-forward`).
    pub fn fast_forward(&self) -> bool {
        self.fast_forward
    }

    /// The fault plan, when `--faults` was given.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Whether a reduced-size smoke run was requested (`--quick`).
    pub fn quick(&self) -> bool {
        quick_requested(&self.args)
    }

    /// Probe snapshot cadence in simulated cycles (0 = probing off).
    pub fn probe_interval(&self) -> u64 {
        self.probe_interval
    }

    /// Whether to collect the `host_profile` wall-clock sidecar
    /// (`--host-profile`).
    pub fn host_profile(&self) -> bool {
        self.args.has("host-profile")
    }

    /// The result-cache directory (`--cache[=DIR]` / `SA_CACHE_DIR`), or
    /// `None` when caching is off.
    pub fn cache_dir(&self) -> Option<&str> {
        self.cache_dir.as_deref()
    }

    /// The progress sink: NDJSON on stderr with `--progress`, else off.
    pub fn progress(&self) -> Progress {
        self.progress.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Cli, String> {
        Cli::try_from_args(
            Args::parse(s.split_whitespace().map(str::to_owned)),
            COMMON_FLAGS,
        )
    }

    fn write_plan(tag: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("sa-bench-cli-{tag}-{}.json", std::process::id()));
        let plan = FaultPlan::parse(
            r#"{"schema":"sa-faultplan","version":1,"seed":1,
                "faults":[{"kind":"ecc_single","period":5}]}"#,
        )
        .expect("valid plan");
        std::fs::write(&path, plan.to_json().to_string_pretty()).expect("write plan");
        path
    }

    #[test]
    fn defaults() {
        let cli = parse("").expect("empty argv parses");
        assert!(cli.jobs() >= 1);
        assert!(cli.fast_forward());
        assert!(cli.fault_plan().is_none());
        assert!(!cli.progress().is_on());
    }

    #[test]
    fn common_flags_parse() {
        let cli = parse("--jobs 3 --fast-forward off --quick --progress").expect("parses");
        assert_eq!(cli.jobs(), 3);
        assert!(!cli.fast_forward());
        assert!(cli.quick());
        assert!(cli.progress().is_on());
    }

    #[test]
    fn parsing_installs_nothing() {
        let path = write_plan("installs");
        let cli = parse(&format!(
            "--fast-forward off --faults {} --progress",
            path.display()
        ))
        .expect("parses");
        assert!(cli.fault_plan().is_some() && cli.progress().is_on());
        assert!(sa_sim::fast_forward_default());
        assert!(sa_faults::default_plan().is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn probe_flags_parse() {
        let cli = parse("--probe-interval 512 --host-profile").expect("parses");
        assert_eq!(cli.probe_interval(), 512);
        assert!(cli.host_profile());
        let cli = parse("").expect("parses");
        assert_eq!(cli.probe_interval(), 0);
        assert!(!cli.host_profile());
    }

    #[test]
    fn cache_flag_forms_resolve() {
        // Explicit directory, both spellings.
        let cli = parse("--spec job.json --cache /tmp/store").expect("parses");
        assert_eq!(cli.cache_dir(), Some("/tmp/store"));
        let cli = parse("--spec job.json --cache=/tmp/store2").expect("parses");
        assert_eq!(cli.cache_dir(), Some("/tmp/store2"));
        // Bare switch falls back to the default directory (the SA_CACHE_DIR
        // branch is environment-dependent, so only the unset case is exact).
        if std::env::var_os(sa_memo::ENV_DIR).is_none() {
            let cli = parse("--cache --spec job.json").expect("parses");
            assert_eq!(cli.cache_dir(), Some(sa_memo::DEFAULT_DIR));
            let cli = parse("").expect("parses");
            assert_eq!(cli.cache_dir(), None);
        }
        // Figure sweeps are never cached: without `--spec` it is an error.
        for argv in ["--cache", "--quick --cache d", "--cache=d --quick"] {
            let err = parse(argv).unwrap_err();
            assert!(err.contains("--spec jobs only"), "{argv}: {err}");
        }
    }

    #[test]
    fn bad_flags_are_reported() {
        assert!(parse("--jobs frog").unwrap_err().contains("jobs"));
        assert!(parse("--fast-forward sometimes")
            .unwrap_err()
            .contains("fast-forward"));
        assert!(parse("--faults /nonexistent/plan.json").is_err());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let err = parse("--quick --stats-jsno x.json").unwrap_err();
        assert_eq!(err, "unknown flag --stats-jsno");
        let own = |s: &str| Args::parse(s.split_whitespace().map(str::to_owned));
        assert!(Cli::try_from_args(own("--workers 3 --cache=d"), &["workers", "cache"]).is_ok());
        let err = Cli::try_from_args(own("--workers 3 --quick"), &["workers"]).unwrap_err();
        assert_eq!(err, "unknown flag --quick");
        let err = Cli::try_from_args(own("--cache=d"), &["workers"]).unwrap_err();
        assert_eq!(err, "unknown flag --cache=d");
    }

    #[test]
    fn fault_seed_overrides_plan() {
        let path = write_plan("seed");
        let cli = parse(&format!("--faults {} --fault-seed 99", path.display())).expect("parses");
        assert_eq!(cli.fault_plan().expect("plan parsed").seed, 99);
        let _ = std::fs::remove_file(&path);
    }
}
