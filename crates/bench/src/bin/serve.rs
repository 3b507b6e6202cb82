//! `sa-serve` daemon entry point: a multi-tenant simulation service over
//! the `SessionSpec` job API (see `docs/SERVING.md`).
//!
//! ```text
//! serve [--addr HOST:PORT] [--workers N] [--queue-depth N]
//!       [--tenant-jobs N] [--tenant-inflight N] [--cache[=DIR]]
//!       [--fast-forward on|off] [--progress]
//! ```
//!
//! Submit jobs with `analyze submit JOB.json --addr HOST:PORT`, inspect
//! counters with `analyze serve stats`, stop with `analyze serve shutdown`.
//! With `--cache` the daemon memoizes results through the same
//! content-addressed store a `--spec JOB.json --cache` run uses, so a warm
//! repeat of a job answers byte-identically without simulating.

use std::sync::Arc;

use sa_bench::args::Args;
use sa_bench::cli::Cli;
use sa_bench::usage_error;
use sa_serve::{ServeConfig, Server};
use scatter_add_repro::ResultCache;

const USAGE: &str = "\
usage: serve [flags]

  --addr HOST:PORT     listen address (default 127.0.0.1:7411)
  --workers N          job worker threads (default 2)
  --queue-depth N      queued connections beyond the workers before new
                       submissions are answered 429 busy (default 16)
  --tenant-jobs N      lifetime job quota per tenant, 0 = unlimited
  --tenant-inflight N  concurrent job quota per tenant, 0 = unlimited
  --cache[=DIR]        memoize results (SA_CACHE_DIR / .sa-cache default)
  --fast-forward on|off
                       process-wide default (default on); a job spec's
                       exec section still overrides it per job
  --progress           NDJSON heartbeats of served jobs on stderr

Served jobs take their fault plan only from their spec.
";

/// The closed flag set: the listener settings plus three run controls. The
/// figure binaries' experiment flags (`--spec`, `--faults`, ...) exit 2.
const FLAGS: &[&str] = &[
    "addr",
    "workers",
    "queue-depth",
    "tenant-jobs",
    "tenant-inflight",
    "cache",
    "fast-forward",
    "progress",
];

fn main() {
    let cli = Cli::from_args(Args::from_env(), FLAGS, USAGE);
    let args = cli.args();
    let addr = args.raw("addr").unwrap_or("127.0.0.1:7411").to_string();
    let mut cfg = ServeConfig {
        progress: cli.progress(),
        ..ServeConfig::default()
    };
    match args.get_or("workers", cfg.workers) {
        Ok(n) if n > 0 => cfg.workers = n,
        Ok(_) => usage_error("--workers must be positive", USAGE),
        Err(e) => usage_error(&e.to_string(), USAGE),
    }
    cfg.queue_depth = match args.get_or("queue-depth", cfg.queue_depth) {
        Ok(n) => n,
        Err(e) => usage_error(&e.to_string(), USAGE),
    };
    cfg.tenant_jobs = match args.get_or("tenant-jobs", 0u64) {
        Ok(n) => n,
        Err(e) => usage_error(&e.to_string(), USAGE),
    };
    cfg.tenant_inflight = match args.get_or("tenant-inflight", 0u64) {
        Ok(n) => n,
        Err(e) => usage_error(&e.to_string(), USAGE),
    };
    if let Some(dir) = cli.cache_dir() {
        match ResultCache::open(dir) {
            Ok(cache) => cfg.cache = Some(Arc::new(cache)),
            Err(e) => {
                eprintln!("error: --cache {dir}: {e}");
                std::process::exit(1);
            }
        }
    }

    let cache_note = match cli.cache_dir() {
        Some(dir) => format!("cache {dir}"),
        None => "no cache".to_string(),
    };
    let server = match Server::bind(&addr, cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "sa-serve listening on {} ({cache_note})",
        server.local_addr()
    );
    // The line above is how scripts learn the bound port; make sure it
    // leaves the process even when stdout is a pipe.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.join();
    println!("sa-serve stopped");
}
