//! One shared command-line surface for every sa-bench binary.
//!
//! The figure binaries grew identical run-control flags one copy at a time
//! (`--jobs` scanned raw argv in `sweep`, `--fast-forward` lived inside
//! `BenchRun`). [`Cli`] parses them once and installs the process-wide
//! defaults they control, so a binary only handles flags specific to its
//! experiment:
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
//!   `docs/SERVING.md`); handled here so every figure binary gets it
//! - `--cache[=DIR]` / `--cache DIR` — content-addressed result cache for
//!   sweep points only (see `docs/PERFORMANCE.md`); a bare
//!   `--cache` uses `SA_CACHE_DIR` or `.sa-cache`, and setting the
//!   `SA_CACHE_DIR` environment variable enables the cache without any flag
//!
//! The flag set is closed: `COMMON_FLAGS` plus the few a binary declares
//! for itself (`explore`'s machine and workload knobs, `serve`'s listener
//! settings). Anything else — a typo such as `--stats-jsno`, or a flag
//! that no longer exists — is a usage error (exit 2), never silently
//! ignored.
//!
//! Construction has side effects by design: [`Cli::from_args`] applies
//! `--fast-forward` via [`sa_sim::set_fast_forward_default`], `--faults`
//! via [`sa_faults::set_default_plan`], and the progress sink via
//! [`sa_telemetry::set_global_progress`], so simulators built afterwards
//! pick the settings up without explicit plumbing. The installs are
//! idempotent for a given argument vector.

use crate::args::Args;
use sa_faults::FaultPlan;
use sa_telemetry::Progress;

/// The flags every binary that builds a [`Cli`] accepts. `--cache=DIR`
/// arrives as a switch named `cache=DIR` and is matched by prefix.
const COMMON_FLAGS: &[&str] = &[
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
const USAGE: &str = "\
common flags:
  --quick                reduced-size smoke run (also SA_QUICK=1)
  --jobs N               sweep worker threads (also SA_JOBS; default: cores)
  --fast-forward on|off  event-horizon cycle skipping (default on)
  --faults PLAN.json     install a fault plan (--fault-seed N re-seeds it)
  --spec JOB.json        run a serialized session instead of the experiment
  --cache[=DIR]          content-addressed result cache (also SA_CACHE_DIR)
  --stats-json PATH      write the sa-stats document
  --trace PATH           write a Chrome trace of the canonical run
  --progress             NDJSON heartbeats and sa-probe snapshots on stderr
  --probe-interval N     sa-probe snapshot cadence in simulated cycles
  --host-profile         host wall-clock sidecar in the stats document
";

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

/// Parsed common flags plus the raw [`Args`] for binary-specific ones.
///
/// Exits the process with status 2 on a malformed flag (consistent with
/// the historical per-binary parsers), so binaries can assume a valid
/// configuration after construction.
#[derive(Debug)]
pub struct Cli {
    args: Args,
    jobs: usize,
    fast_forward: bool,
    fault_plan: Option<FaultPlan>,
    probe_interval: u64,
    host_profile: bool,
    cache_dir: Option<String>,
}

impl Cli {
    /// Parse the process arguments and install the process-wide defaults.
    /// `own_flags` are the binary's flags beyond `COMMON_FLAGS`.
    pub fn from_env(own_flags: &[&str]) -> Cli {
        Cli::from_args(Args::from_env(), own_flags)
    }

    /// Parse pre-collected arguments and install the process-wide defaults.
    ///
    /// When `--spec JOB.json` is among them the binary's own experiment is
    /// skipped entirely: the serialized session runs through
    /// [`crate::specrun`] and the process exits (status 0, or 2 on a
    /// malformed spec — the shared usage convention).
    pub fn from_args(args: Args, own_flags: &[&str]) -> Cli {
        match Cli::try_from_args(args, own_flags) {
            Ok(cli) => {
                if cli.args().has("spec") || cli.args().raw("spec").is_some() {
                    crate::specrun::run_and_exit(&cli);
                }
                cli
            }
            Err(e) => crate::usage_error(&e, USAGE),
        }
    }

    /// [`Cli::from_args`] returning parse failures instead of exiting.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed flag: one outside
    /// `COMMON_FLAGS` and `own_flags`, a bad number, an unknown
    /// `--fast-forward` mode, or an unreadable/invalid fault plan.
    pub fn try_from_args(args: Args, own_flags: &[&str]) -> Result<Cli, String> {
        if let Some(unknown) = args.flags().find(|f| {
            !COMMON_FLAGS.contains(f) && !own_flags.contains(f) && !f.starts_with("cache=")
        }) {
            return Err(format!("unknown flag --{unknown}"));
        }
        let jobs = crate::sweep::resolve_jobs(match args.get_or("jobs", 0usize) {
            Ok(n) if n > 0 => Some(n),
            Ok(_) => None,
            Err(e) => return Err(e.to_string()),
        });
        let fast_forward = args
            .choice("fast-forward", &["on", "off"], "on")
            .map_err(|e| e.to_string())?
            == "on";
        sa_sim::set_fast_forward_default(fast_forward);

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
        sa_faults::set_default_plan(fault_plan.clone());

        let probe_interval = args
            .get_or("probe-interval", 0u64)
            .map_err(|e| e.to_string())?;
        let host_profile = args.has("host-profile");
        let cache_dir = resolve_cache_dir(&args);
        sa_telemetry::set_global_progress(if args.has("progress") {
            Progress::stderr()
        } else {
            Progress::off()
        });

        Ok(Cli {
            args,
            jobs,
            fast_forward,
            fault_plan,
            probe_interval,
            host_profile,
            cache_dir,
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

    /// The installed fault plan, when `--faults` was given.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Whether a reduced-size smoke run was requested (`--quick`).
    pub fn quick(&self) -> bool {
        self.args.has("quick") || std::env::var_os("SA_QUICK").is_some()
    }

    /// Probe snapshot cadence in simulated cycles (0 = probing off).
    pub fn probe_interval(&self) -> u64 {
        self.probe_interval
    }

    /// Whether to collect the `host_profile` wall-clock sidecar
    /// (`--host-profile`).
    pub fn host_profile(&self) -> bool {
        self.host_profile
    }

    /// The result-cache directory (`--cache[=DIR]` / `SA_CACHE_DIR`), or
    /// `None` when caching is off.
    pub fn cache_dir(&self) -> Option<&str> {
        self.cache_dir.as_deref()
    }

    /// The process-wide progress sink installed at parse time (off unless
    /// `--progress` was given).
    pub fn progress(&self) -> Progress {
        sa_telemetry::global_progress()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Cli, String> {
        Cli::try_from_args(Args::parse(s.split_whitespace().map(str::to_owned)), &[])
    }

    #[test]
    fn defaults() {
        let cli = parse("").expect("empty argv parses");
        assert!(cli.jobs() >= 1);
        assert!(cli.fast_forward());
        assert!(cli.fault_plan().is_none());
    }

    #[test]
    fn common_flags_parse() {
        let cli = parse("--jobs 3 --fast-forward off --quick").expect("parses");
        assert_eq!(cli.jobs(), 3);
        assert!(!cli.fast_forward());
        assert!(cli.quick());
        // restore the global for neighbouring tests
        sa_sim::set_fast_forward_default(true);
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
        let cli = parse("--cache /tmp/store").expect("parses");
        assert_eq!(cli.cache_dir(), Some("/tmp/store"));
        let cli = parse("--cache=/tmp/store2").expect("parses");
        assert_eq!(cli.cache_dir(), Some("/tmp/store2"));
        // Bare switch falls back to the default directory (the SA_CACHE_DIR
        // branch is environment-dependent, so only the unset case is exact).
        if std::env::var_os(sa_memo::ENV_DIR).is_none() {
            let cli = parse("--cache --quick").expect("parses");
            assert_eq!(cli.cache_dir(), Some(sa_memo::DEFAULT_DIR));
            let cli = parse("").expect("parses");
            assert_eq!(cli.cache_dir(), None);
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
        let own = Args::parse(["--workers".to_owned(), "3".to_owned()]);
        assert!(Cli::try_from_args(own, &["workers"]).is_ok());
    }

    #[test]
    fn fault_seed_overrides_plan() {
        let dir = std::env::temp_dir().join("sa-bench-cli-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("plan.json");
        let plan = FaultPlan::parse(
            r#"{"schema":"sa-faultplan","version":1,"seed":1,
                "faults":[{"kind":"ecc_single","period":5}]}"#,
        )
        .expect("valid plan");
        std::fs::write(&path, plan.to_json().to_string_pretty()).expect("write plan");
        let cli = parse(&format!("--faults {} --fault-seed 99", path.display())).expect("parses");
        assert_eq!(cli.fault_plan().expect("plan installed").seed, 99);
        sa_faults::set_default_plan(None);
    }
}
