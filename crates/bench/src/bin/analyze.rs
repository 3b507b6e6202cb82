//! The consumer side of the telemetry layer, plus the trace analytics
//! behind Figure 13.
//!
//! Flag modes (CI entry points, kept stable):
//!
//! * `analyze --stats-json <path>` reads back a `sa-stats` document written
//!   by any figure binary and prints a summary of its metrics;
//! * `analyze --check <path>` validates the document against the schema and
//!   requires the canonical scatter-unit / cache / DRAM / queue metrics —
//!   exits nonzero on any violation (used by CI);
//! * `analyze --diff <baseline> <candidate>` compares two documents'
//!   cycle counts and latency percentiles and exits nonzero when the
//!   candidate regressed past the threshold (`--threshold 0.05`) — the CI
//!   perf gate, listing every regressed metric with absolute and relative
//!   deltas;
//! * `analyze --watch <path>` reads the NDJSON stream a figure binary
//!   writes with `--progress` from a file or FIFO (`-` = stdin) and renders
//!   its heartbeats and `sa-probe` snapshots as a refreshing top-style
//!   dashboard:
//!
//!   ```text
//!   fig13 --progress --probe-interval 4096 2>&1 >/dev/null | analyze --watch -
//!   ```
//!
//!   Lines that are not JSON objects (the binary's other stderr notes) are
//!   skipped. Every snapshot line is validated against the probe schema
//!   and the client exits nonzero on the first invalid one, so `--watch -
//!   --plain` doubles as the CI smoke client.
//!
//! Positional modes:
//!
//! * `analyze bottleneck <stats.json>` renders the v5 `bottleneck`
//!   attribution section — dominant resource with utilization evidence,
//!   per-resource occupancy table, critical path, analytic what-if table.
//!   A document without the section is recomputed on the fly from its
//!   occupancy counters;
//! * `analyze summarize` runs the trace-locality analytics that explain
//!   Figure 13 (the locality statistics of the four reference traces,
//!   computed with `sa_apps::traces::TraceStats` — the quantities the
//!   paper invokes qualitatively when explaining the scalability curves);
//! * `analyze cache ls|stats|gc|clear` manages the content-addressed
//!   result store that `--spec JOB.json --cache` runs and `serve --cache`
//!   fill (see `docs/PERFORMANCE.md`). The directory comes from `--dir`,
//!   `SA_CACHE_DIR`, or the `.sa-cache` default; `gc` evicts
//!   least-recently-used entries until the store fits `--max-bytes`.
//!
//! With no mode (or an unknown one) the binary prints the full usage block
//! and exits nonzero.

use sa_apps::md::WaterSystem;
use sa_apps::mesh::Mesh;
use sa_apps::spmv::Ebe;
use sa_apps::traces::TraceStats;
use sa_bench::args::Args;
use sa_bench::cli::quick_requested;
use sa_bench::diff::{diff_stats, DiffConfig};
use sa_bench::{header, row};
use sa_sim::{MachineConfig, Rng64};
use sa_telemetry::{
    bottleneck_json, has_metric_matching, render_bottleneck, validate_bottleneck_json,
    validate_probe_json, validate_stats_json, Json, PROBE_SCHEMA_NAME,
};

const USAGE: &str = "\
usage: analyze <mode> [flags]

flag modes (CI entry points):
  --check <stats.json>                validate schema + required metric families
  --diff <baseline.json> <cand.json>  perf gate (tune with --threshold 0.05)
  --stats-json <stats.json>           summarize a stats document
  --watch <path|->                    live dashboard over a --progress NDJSON
                                      stream (--watch-lines N, --plain)

positional modes:
  summarize                           trace-locality analytics behind Figure 13
                                      (--quick for smaller inputs)
  bottleneck <stats.json>             render the bottleneck attribution report
                                      (sa-stats v5; recomputed from occupancy
                                      counters when the section is absent)
  cache ls|stats|gc|clear             manage the --cache result store
                                      (--dir DIR, else SA_CACHE_DIR, else
                                      .sa-cache; gc bound: --max-bytes N,
                                      default 1 GiB, LRU eviction)
  mkspec histogram|multinode          print a sa-session-spec job file
                                      (--n N --range R --seed S; multinode
                                      adds --nodes N --net low|high
                                      --combining on|off --topology
                                      flat|hypercube)
  submit <job.json>                   POST a job spec to a running serve
                                      daemon (--addr HOST:PORT, --tenant T,
                                      --out FILE, --stream); the cache/
                                      simulated sidecar goes to stderr
  serve stats|health|shutdown         query or stop a running serve daemon
                                      (--addr HOST:PORT)
";

/// Where `submit` / `serve` look for the daemon unless `--addr` says
/// otherwise (the `serve` binary's default listen address).
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7411";

/// Default `analyze cache gc` size bound: 1 GiB.
const DEFAULT_GC_BYTES: u64 = 1 << 30;

fn load_stats(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// `--check`: schema validation plus the required metric families.
fn check_stats(path: &str) -> Result<(), String> {
    let doc = load_stats(path)?;
    validate_stats_json(&doc)?;
    for family in ["sa.", "cache.", "dram.", "queue."] {
        if !has_metric_matching(&doc, family) {
            return Err(format!("no metric path contains '{family}'"));
        }
    }
    let bench = doc.get("bench").and_then(Json::as_str).unwrap_or("?");
    println!("{path}: valid sa-stats document from '{bench}'");
    Ok(())
}

/// `--stats-json`: read a document back and summarize what it holds.
fn summarize_stats(path: &str) -> Result<(), String> {
    let doc = load_stats(path)?;
    validate_stats_json(&doc)?;
    let bench = doc.get("bench").and_then(Json::as_str).unwrap_or("?");
    let version = doc.get("version").and_then(Json::as_u64).unwrap_or(0);
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("no metrics")?;
    header(
        &format!("Stats document: {path}"),
        &format!("bench '{bench}', schema v{version}"),
    );
    let counters = metrics.iter().filter(|(_, v)| v.as_u64().is_some()).count();
    let histograms = metrics
        .iter()
        .filter(|(_, v)| v.get("buckets").is_some())
        .count();
    row(
        "metrics",
        &[
            ("total", format!("{}", metrics.len())),
            ("counters", format!("{counters}")),
            ("histograms", format!("{histograms}")),
        ],
    );
    // The headline counters every document carries via the canonical run.
    for key in [
        "canonical.cycles",
        "canonical.sa.accepted",
        "canonical.sa.combined",
        "canonical.cache.read_hits",
        "canonical.dram.reads",
    ] {
        if let Some(v) = metrics.iter().find(|(p, _)| p == key).map(|(_, v)| v) {
            if let Some(n) = v.as_u64() {
                row(key, &[("value", format!("{n}"))]);
            }
        }
    }
    // v3: resilience counters appear only when a fault plan fired.
    let faults: u64 = metrics
        .iter()
        .filter(|(p, _)| p.contains("resilience."))
        .filter_map(|(_, v)| v.as_u64())
        .sum();
    if faults > 0 {
        row("resilience", &[("events", format!("{faults}"))]);
    }
    if let Some(series) = doc
        .get("series")
        .and_then(|s| s.get("series"))
        .and_then(Json::as_obj)
    {
        row("series", &[("tracked", format!("{}", series.len()))]);
    }
    if let Some(rows) = doc.get("rows").and_then(Json::as_arr) {
        row("rows", &[("count", format!("{}", rows.len()))]);
    }
    // v4: the host wall-clock sidecar (`--host-profile`). Nondeterministic
    // by construction, so it is printed for humans but never diffed.
    if let Some(hp) = doc.get("host_profile") {
        let total = hp.get("total_ns").and_then(Json::as_u64).unwrap_or(0);
        row(
            "host_profile",
            &[
                ("total_ms", format!("{:.1}", total as f64 / 1e6)),
                ("note", "host wall-clock; excluded from --diff".to_owned()),
            ],
        );
        for (name, p) in hp.get("phases").and_then(Json::as_obj).unwrap_or(&[]) {
            let ns = p.get("ns").and_then(Json::as_u64).unwrap_or(0);
            row(
                format!("  {name}"),
                &[
                    (
                        "calls",
                        format!("{}", p.get("calls").and_then(Json::as_u64).unwrap_or(0)),
                    ),
                    ("ms", format!("{:.1}", ns as f64 / 1e6)),
                    (
                        "pct",
                        format!("{:.1}", p.get("pct").and_then(Json::as_f64).unwrap_or(0.0)),
                    ),
                ],
            );
        }
    }
    Ok(())
}

/// `bottleneck <path>`: render the attribution report. Uses the document's
/// own `bottleneck` section when present (the deterministic v5 artifact);
/// otherwise derives one on the fly from the occupancy counters so freshly
/// hand-assembled documents still analyze.
fn bottleneck_mode(path: &str) -> Result<(), String> {
    let doc = load_stats(path)?;
    validate_stats_json(&doc)?;
    let computed;
    let section = match doc.get("bottleneck") {
        Some(s) => s,
        None => match bottleneck_json(&doc) {
            Some(s) => {
                computed = s;
                &computed
            }
            None => {
                return Err(format!(
                    "{path}: no bottleneck section and no occupancy counters to \
                     derive one from"
                ))
            }
        },
    };
    validate_bottleneck_json(section).map_err(|e| format!("{path}: {e}"))?;
    print!("{}", render_bottleneck(section));
    Ok(())
}

fn report(name: &str, trace: &[u64], cfg: &MachineConfig) {
    let line_words = cfg.cache.words_per_line();
    // Window = total combining-store capacity of one node.
    let window = cfg.sa.cs_entries * cfg.cache.banks;
    let s = TraceStats::analyze(trace, line_words, window);
    row(
        name,
        &[
            ("refs", format!("{}", s.len)),
            ("unique", format!("{}", s.unique_words)),
            ("footprint", format!("{}KB", s.footprint_bytes() >> 10)),
            ("reuse@64", format!("{:.2}", s.window_reuse)),
            (
                "in-cache",
                format!("{}", s.fits_cache(cfg.cache.total_bytes)),
            ),
        ],
    );
}

/// `--diff`: the perf gate. Prints every regression; `Ok(true)` = clean.
fn diff_docs(baseline: &str, candidate: &str, args: &Args) -> Result<bool, String> {
    let threshold = args
        .get_or("threshold", DiffConfig::default().threshold)
        .map_err(|e| e.to_string())?;
    let cfg = DiffConfig {
        threshold,
        ..DiffConfig::default()
    };
    let base = load_stats(baseline)?;
    let cand = load_stats(candidate)?;
    validate_stats_json(&base).map_err(|e| format!("{baseline}: {e}"))?;
    validate_stats_json(&cand).map_err(|e| format!("{candidate}: {e}"))?;
    let regressions = diff_stats(&base, &cand, &cfg)?;
    if regressions.is_empty() {
        println!(
            "{candidate}: no regressions vs {baseline} (threshold +{:.0}%)",
            threshold * 100.0
        );
        return Ok(true);
    }
    eprintln!(
        "{candidate}: {} regression(s) vs {baseline} (threshold +{:.0}%):",
        regressions.len(),
        threshold * 100.0
    );
    for r in &regressions {
        eprintln!("  {r}");
    }
    let mut scopes: Vec<&str> = regressions
        .iter()
        .map(sa_bench::diff::Regression::scope)
        .collect();
    scopes.sort_unstable();
    scopes.dedup();
    eprintln!("  regressed scopes: {}", scopes.join(", "));
    Ok(false)
}

/// One status line for a progress event (`heartbeat` / `point` / `row`).
fn status_line(doc: &Json) -> String {
    let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    match doc.get("kind").and_then(Json::as_str).unwrap_or("?") {
        "heartbeat" => format!(
            "cycle {:.0} | {:.0} sim cyc/s | ff x{:.1} | skipped {:.0} | {:.1}s",
            num("cycle"),
            num("sim_cycles_per_sec"),
            num("ff_ratio"),
            num("skipped_cycles"),
            num("elapsed_ms") / 1e3,
        ),
        "point" => format!(
            "sweep {:.0}/{:.0} ({}) | eta {:.1}s",
            num("done"),
            num("total"),
            doc.get("label").and_then(Json::as_str).unwrap_or("?"),
            num("eta_ms") / 1e3,
        ),
        "row" => format!(
            "row from {}",
            doc.get("bench").and_then(Json::as_str).unwrap_or("?")
        ),
        other => format!("{other} event"),
    }
}

/// Append one component (and its children, indented) to the dashboard.
fn fmt_component(name: &str, body: &Json, indent: usize, out: &mut String) {
    let kind = body.get("kind").and_then(Json::as_str).unwrap_or("?");
    let mut fields = String::new();
    for (k, v) in body.as_obj().unwrap_or(&[]) {
        if k == "kind" || k == "components" {
            continue;
        }
        if let Some(n) = v.as_f64() {
            if !fields.is_empty() {
                fields.push_str("  ");
            }
            fields.push_str(&format!("{k}={n}"));
        }
    }
    out.push_str(&format!("{:indent$}{name} [{kind}]  {fields}\n", ""));
    for (child, cbody) in body.get("components").and_then(Json::as_obj).unwrap_or(&[]) {
        fmt_component(child, cbody, indent + 2, out);
    }
}

/// Redraw the dashboard: latest heartbeat line plus the snapshot tree.
fn render(snapshot: Option<&Json>, status: &str, plain: bool) {
    use std::io::Write;
    let mut out = String::new();
    if !plain {
        out.push_str("\x1b[2J\x1b[H"); // clear screen, cursor home
    }
    out.push_str(&format!("sa-probe watch — {status}\n"));
    if let Some(doc) = snapshot {
        let cycle = doc.get("cycle").and_then(Json::as_u64).unwrap_or(0);
        let skipped = doc
            .get("skipped_cycles")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let label = doc.get("label").and_then(Json::as_str).unwrap_or("-");
        out.push_str(&format!(
            "snapshot: label {label}  cycle {cycle}  skipped {skipped}\n"
        ));
        for (name, body) in doc.get("components").and_then(Json::as_obj).unwrap_or(&[]) {
            fmt_component(name, body, 2, &mut out);
        }
    }
    print!("{out}");
    let _ = std::io::stdout().flush();
}

/// `--watch`: live dashboard over a `--progress` NDJSON stream read from
/// `path` (a file or FIFO; `-` = stdin).
///
/// Lines that do not start with `{` are the producer's other stderr notes
/// and are skipped. Every `sa-probe` line is schema-validated and the first
/// invalid one — or a `{` line that is not JSON — aborts with an error,
/// which makes this the scripted client of the CI probe smoke job.
/// `--watch-lines N` exits cleanly after N NDJSON lines (0 = until the
/// stream ends); `--plain` appends lines instead of redrawing the screen.
fn watch(path: &str, args: &Args) -> Result<(), String> {
    use std::io::BufRead;
    let max_lines = args
        .get_or("watch-lines", 0u64)
        .map_err(|e| e.to_string())?;
    let plain = args.has("plain");
    let reader: Box<dyn BufRead> = if path == "-" {
        Box::new(std::io::stdin().lock())
    } else {
        let file = std::fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
        Box::new(std::io::BufReader::new(file))
    };
    let mut seen = 0u64;
    let mut snapshots = 0u64;
    let mut last_snapshot: Option<Json> = None;
    let mut last_status = String::from("waiting for events...");
    for line in reader.lines() {
        let line = line.map_err(|e| format!("reading {path}: {e}"))?;
        if !line.starts_with('{') {
            continue;
        }
        let doc =
            Json::parse(&line).map_err(|e| format!("invalid NDJSON line from {path}: {e}"))?;
        if doc.get("schema").and_then(Json::as_str) == Some(PROBE_SCHEMA_NAME) {
            validate_probe_json(&doc).map_err(|e| format!("invalid sa-probe snapshot: {e}"))?;
            snapshots += 1;
            last_snapshot = Some(doc);
        } else {
            last_status = status_line(&doc);
        }
        render(last_snapshot.as_ref(), &last_status, plain);
        seen += 1;
        if max_lines > 0 && seen >= max_lines {
            break;
        }
    }
    println!("watch: {seen} line(s), {snapshots} valid snapshot(s) from {path}");
    Ok(())
}

/// `cache <sub>`: inspect and bound the content-addressed result store.
fn cache_mode(args: &Args) -> Result<(), String> {
    let dir = args
        .raw("dir")
        .map(str::to_owned)
        .or_else(|| {
            std::env::var(sa_memo::ENV_DIR)
                .ok()
                .filter(|d| !d.is_empty())
        })
        .unwrap_or_else(|| sa_memo::DEFAULT_DIR.to_owned());
    let open =
        || sa_memo::ResultCache::open(&dir).map_err(|e| format!("opening cache at {dir}: {e}"));
    match args.positional().get(1).map(String::as_str) {
        Some("ls") => {
            let entries = open()?.ls().map_err(|e| format!("listing {dir}: {e}"))?;
            println!(
                "result cache at {dir}: {} entries, oldest first",
                entries.len()
            );
            let now = std::time::SystemTime::now();
            for e in entries {
                let age = now
                    .duration_since(e.modified)
                    .map(|d| d.as_secs())
                    .unwrap_or(0);
                println!("  {}  {:>10} bytes  {:>8}s old", e.digest, e.bytes, age);
            }
            Ok(())
        }
        Some("stats") => {
            let (entries, bytes) = open()?.usage().map_err(|e| format!("sizing {dir}: {e}"))?;
            row(
                format!("cache {dir}"),
                &[
                    ("entries", format!("{entries}")),
                    ("bytes", format!("{bytes}")),
                    ("mb", format!("{:.1}", bytes as f64 / (1 << 20) as f64)),
                ],
            );
            Ok(())
        }
        Some("gc") => {
            let max_bytes = args
                .get_or("max-bytes", DEFAULT_GC_BYTES)
                .map_err(|e| e.to_string())?;
            let r = open()?
                .gc(max_bytes)
                .map_err(|e| format!("gc in {dir}: {e}"))?;
            println!(
                "gc {dir}: removed {} entries ({} bytes), kept {} ({} bytes) under the \
                 {max_bytes}-byte bound",
                r.removed, r.bytes_freed, r.kept, r.bytes_kept
            );
            Ok(())
        }
        Some("clear") => {
            let removed = open()?
                .clear()
                .map_err(|e| format!("clearing {dir}: {e}"))?;
            println!("cleared {removed} entries from {dir}");
            Ok(())
        }
        Some(other) => usage_exit(&format!("unknown cache subcommand '{other}'")),
        None => usage_exit("cache mode needs a subcommand: ls | stats | gc | clear"),
    }
}

/// The full closed flag set; anything else is a typo worth stopping on.
const KNOWN_FLAGS: &[&str] = &[
    "watch",
    "watch-lines",
    "plain",
    "diff",
    "check",
    "stats-json",
    "threshold",
    "quick",
    "dir",
    "max-bytes",
    // mkspec
    "n",
    "range",
    "seed",
    "nodes",
    "net",
    "combining",
    "topology",
    // submit / serve client modes
    "addr",
    "tenant",
    "out",
    "stream",
];

fn usage_exit(context: &str) -> ! {
    sa_bench::usage_error(context, USAGE);
}

/// `analyze mkspec histogram|multinode`: print a ready-to-submit
/// `sa-session-spec` job file, deterministically generated from `--seed`,
/// so CI and examples never need to commit large index arrays.
fn mkspec_mode(args: &Args) -> Result<(), String> {
    let kind = match args.positional().get(1).map(String::as_str) {
        Some(kind @ ("histogram" | "multinode")) => kind,
        Some(other) => return Err(format!("unknown mkspec workload '{other}'")),
        None => return Err("mkspec needs a workload: histogram | multinode".to_string()),
    };
    let n = args.get_or("n", 4096u64).map_err(|e| e.to_string())?;
    let range = args
        .get_or("range", 512u64)
        .map_err(|e| e.to_string())?
        .max(1);
    let seed = args.get_or("seed", 1u64).map_err(|e| e.to_string())?;
    let mut rng = Rng64::new(seed);
    let indices: Vec<u64> = (0..n).map(|_| rng.next_u64() % range).collect();
    let spec = match kind {
        "histogram" => {
            scatter_add_repro::SessionSpec::new(scatter_add_repro::Workload::Histogram {
                base_word: 0,
                indices,
            })
        }
        _ => {
            let nodes = args.get_or("nodes", 4usize).map_err(|e| e.to_string())?;
            let net = match args
                .choice("net", &["low", "high"], "low")
                .map_err(|e| e.to_string())?
            {
                "high" => sa_sim::NetworkConfig::high(),
                _ => sa_sim::NetworkConfig::low(),
            };
            let combining = args
                .choice("combining", &["on", "off"], "on")
                .map_err(|e| e.to_string())?
                == "on";
            let topology = match args
                .choice("topology", &["flat", "hypercube"], "flat")
                .map_err(|e| e.to_string())?
            {
                "hypercube" => scatter_add_repro::Topology::Hypercube,
                _ => scatter_add_repro::Topology::Flat,
            };
            // Eighths are exactly representable, so the values survive the
            // spec's raw-bits round trip with pretty JSON untouched.
            let values: Vec<f64> = (0..n)
                .map(|_| (rng.next_u64() % 1000) as f64 / 8.0)
                .collect();
            scatter_add_repro::SessionSpec::new(scatter_add_repro::Workload::MultiNode {
                nodes,
                network: net,
                combining,
                topology,
                trace: indices,
                values,
            })
        }
    };
    println!("{}", spec.to_json().to_string_pretty());
    Ok(())
}

/// `analyze submit <job.json>`: POST a spec to a serve daemon. The result
/// body goes to stdout (or `--out FILE`); the cache/simulated sidecar and
/// any streamed progress lines go to stderr so the body stays clean for
/// byte-identity checks.
fn submit_mode(args: &Args) -> Result<(), String> {
    let Some(path) = args.positional().get(1) else {
        return Err("submit needs a job file path".to_string());
    };
    let spec_text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let addr = args.raw("addr").unwrap_or(DEFAULT_SERVE_ADDR);
    let tenant = args.raw("tenant").unwrap_or("");
    let mut print_line = |line: &str| eprintln!("{line}");
    let on_line: Option<&mut dyn FnMut(&str)> = if args.has("stream") {
        Some(&mut print_line)
    } else {
        None
    };
    let resp = sa_serve::client::submit(addr, &spec_text, tenant, on_line)?;
    let cache = resp.header("x-sa-cache").unwrap_or("-");
    let simulated = resp.header("x-sa-simulated").unwrap_or("-");
    eprintln!(
        "submit: status={} cache={cache} simulated={simulated}",
        resp.status
    );
    if resp.status != 200 {
        return Err(format!(
            "server answered {}: {}",
            resp.status,
            resp.body.trim()
        ));
    }
    match args.raw("out") {
        Some(out) => {
            let mut body = resp.body;
            if !body.ends_with('\n') {
                body.push('\n');
            }
            std::fs::write(out, body).map_err(|e| format!("writing {out}: {e}"))?;
        }
        None => println!("{}", resp.body.trim_end()),
    }
    Ok(())
}

/// `analyze serve stats|health|shutdown`: query or stop a running daemon.
fn serve_mode(args: &Args) -> Result<(), String> {
    let addr = args.raw("addr").unwrap_or(DEFAULT_SERVE_ADDR);
    let resp = match args.positional().get(1).map(String::as_str) {
        Some("stats") => sa_serve::client::stats(addr)?,
        Some("health") => sa_serve::client::health(addr)?,
        Some("shutdown") => sa_serve::client::shutdown(addr)?,
        Some(other) => return Err(format!("unknown serve subcommand '{other}'")),
        None => return Err("serve mode needs a subcommand: stats | health | shutdown".to_string()),
    };
    print!("{}", resp.body);
    if !resp.body.ends_with('\n') {
        println!();
    }
    if resp.status != 200 {
        return Err(format!("server answered {}", resp.status));
    }
    Ok(())
}

fn main() {
    let args = Args::from_env();
    if let Some(unknown) = args.flags().find(|f| !KNOWN_FLAGS.contains(f)) {
        let unknown = unknown.to_owned();
        usage_exit(&format!("unknown flag --{unknown}"));
    }
    if let Some(path) = args.raw("watch") {
        if let Err(e) = watch(path, &args) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(baseline) = args.raw("diff") {
        let Some(candidate) = args.positional().first() else {
            eprintln!("usage: analyze --diff <baseline.json> <candidate.json>");
            std::process::exit(2);
        };
        match diff_docs(baseline, candidate, &args) {
            Ok(true) => return,
            Ok(false) => std::process::exit(1),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = args.raw("check") {
        if let Err(e) = check_stats(path) {
            eprintln!("error: {path}: {e}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(path) = args.raw("stats-json") {
        if let Err(e) = summarize_stats(path) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    match args.positional().first().map(String::as_str) {
        Some("summarize") => trace_analytics(quick_requested(&args)),
        Some("bottleneck") => {
            let Some(path) = args.positional().get(1) else {
                usage_exit("bottleneck mode needs a stats document path");
            };
            if let Err(e) = bottleneck_mode(path) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        Some("cache") => {
            if let Err(e) = cache_mode(&args) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        Some("mkspec") => {
            // Everything that can go wrong here is a command-line problem.
            if let Err(e) = mkspec_mode(&args) {
                usage_exit(&e);
            }
        }
        Some("submit") => {
            if args.positional().get(1).is_none() {
                usage_exit("submit needs a job file path");
            }
            if let Err(e) = submit_mode(&args) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        Some("serve") => {
            match args.positional().get(1).map(String::as_str) {
                Some("stats" | "health" | "shutdown") => {}
                Some(other) => {
                    let other = other.to_owned();
                    usage_exit(&format!("unknown serve subcommand '{other}'"));
                }
                None => usage_exit("serve mode needs a subcommand: stats | health | shutdown"),
            }
            if let Err(e) = serve_mode(&args) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        Some(other) => {
            let other = other.to_owned();
            usage_exit(&format!("unknown mode '{other}'"));
        }
        None => usage_exit(""),
    }
}

/// `summarize`: the trace-locality analytics that explain Figure 13.
fn trace_analytics(quick: bool) {
    let cfg = MachineConfig::merrimac();
    header(
        "Trace analytics (explains Figure 13)",
        "reuse@64 = fraction of references merged by a 64-entry combining window",
    );
    let hist_n = if quick { 8192 } else { 65_536 };
    let mut rng = Rng64::new(0xA11A);
    let narrow: Vec<u64> = (0..hist_n).map(|_| rng.below(256)).collect();
    let wide: Vec<u64> = (0..hist_n).map(|_| rng.below(1 << 20)).collect();
    report("narrow histogram", &narrow, &cfg);
    report("wide histogram", &wide, &cfg);

    let sys = if quick {
        WaterSystem::generate(150, 1)
    } else {
        WaterSystem::paper_scale(1)
    };
    report("mole (MD forces)", &sys.scatter_trace(), &cfg);

    let mesh = if quick {
        Mesh::generate(200, 20, 1040, 2)
    } else {
        Mesh::paper_scale(2)
    };
    report("spas (EBE SpMV)", &Ebe::new(&mesh).scatter_trace(), &cfg);

    println!(
        "\nhigh reuse + in-cache footprint → combining pays (narrow, mole); \
         low reuse + overflowing footprint → it does not (wide)"
    );
}
