//! End-to-end exercises of the daemon over real sockets: warm hits are
//! byte-identical with zero simulation, quotas answer 429, streaming
//! replays probe lines, shutdown drains cleanly.

use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use sa_serve::{client, ServeConfig, Server};
use sa_telemetry::{Json, Progress};
use scatter_add_repro::{ResultCache, SessionSpec, Workload};

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sa-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn histogram_spec(n: u64, range: u64) -> String {
    let spec = SessionSpec::new(Workload::Histogram {
        base_word: 0,
        indices: (0..n).map(|i| (i * 17 + 3) % range).collect(),
    });
    spec.to_json().to_string_pretty()
}

fn start(cfg: ServeConfig) -> (Server, String) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr().to_string();
    (server, addr)
}

#[test]
fn warm_hit_is_byte_identical_and_simulation_free() {
    let dir = temp_cache("warm");
    let cache = Arc::new(ResultCache::open(&dir).expect("cache"));
    let (server, addr) = start(ServeConfig {
        cache: Some(Arc::clone(&cache)),
        ..ServeConfig::default()
    });

    let spec = histogram_spec(512, 64);
    let cold = client::submit(&addr, &spec, "", None).expect("cold submit");
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-sa-cache"), Some("miss"));
    assert_eq!(cold.header("x-sa-simulated"), Some("1"));

    let warm = client::submit(&addr, &spec, "", None).expect("warm submit");
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-sa-cache"), Some("hit"));
    assert_eq!(warm.header("x-sa-simulated"), Some("0"));
    assert_eq!(cold.body, warm.body, "warm body must be byte-identical");
    assert_eq!(cache.hits(), 1);
    assert_eq!(cache.misses(), 1, "each job looks the cache up once");
    assert_eq!(cache.stores(), 1);

    // The embedded stats section is a valid sa-stats document.
    let doc = Json::parse(&cold.body).expect("result json");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("sa-serve-result")
    );
    sa_telemetry::validate_stats_json(doc.get("stats").expect("stats")).expect("valid stats");
    let report = doc.get("report").expect("report");
    scatter_add_repro::SessionReport::from_json(report).expect("report parses");

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_entry_is_a_miss_in_headers_and_counters() {
    let dir = temp_cache("stale");
    let cache = Arc::new(ResultCache::open(&dir).expect("cache"));
    let (server, addr) = start(ServeConfig {
        cache: Some(Arc::clone(&cache)),
        ..ServeConfig::default()
    });
    // A valid entry whose report is in a layout the decoder rejects.
    let text = histogram_spec(512, 64);
    let spec = SessionSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
    let fresh = spec.to_builder().build().unwrap().run().to_json();
    let stale = fresh
        .to_string_compact()
        .replacen("\"sa\":{", "\"sa\":{\"retired\":1,", 1);
    cache
        .store(&spec.fingerprint(), &Json::parse(&stale).unwrap())
        .expect("store");

    let served = client::submit(&addr, &text, "", None).expect("submit");
    assert_eq!(served.status, 200);
    assert_eq!(served.header("x-sa-cache"), Some("miss"));
    assert_eq!(served.header("x-sa-simulated"), Some("1"));
    let stats = Json::parse(&client::stats(&addr).expect("stats").body).expect("stats json");
    let counter = |k| {
        stats
            .get("cache")
            .and_then(|c| c.get(k))
            .and_then(Json::as_u64)
    };
    assert_eq!(counter("hits"), Some(0));
    assert_eq!(counter("misses"), Some(1));
    assert_eq!(counter("stores"), Some(2), "the stale entry is replaced");

    let warm = client::submit(&addr, &text, "", None).expect("warm submit");
    assert_eq!(warm.header("x-sa-cache"), Some("hit"));
    assert_eq!(warm.body, served.body);
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unstreamed_jobs_report_to_the_configured_progress_sink() {
    struct Sink(Arc<Mutex<Vec<u8>>>);
    impl Write for Sink {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(bytes);
            Ok(bytes.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let out = Arc::new(Mutex::new(Vec::new()));
    let (server, addr) = start(ServeConfig {
        progress: Progress::to_writer(Box::new(Sink(Arc::clone(&out)))),
        ..ServeConfig::default()
    });
    let ok = client::submit(&addr, &histogram_spec(4096, 512), "", None).expect("submit");
    assert_eq!(ok.status, 200);
    assert!(
        !ok.body.contains("heartbeat"),
        "an unstreamed response carries no progress"
    );
    server.shutdown();
    server.join();
    let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
    assert!(
        text.lines().any(|l| l.contains("\"kind\":\"heartbeat\"")),
        "no heartbeat in: {text}"
    );
}

#[test]
fn tenant_job_quota_rejects_with_429() {
    let (server, addr) = start(ServeConfig {
        tenant_jobs: 2,
        ..ServeConfig::default()
    });
    let spec = histogram_spec(64, 16);
    for _ in 0..2 {
        let ok = client::submit(&addr, &spec, "alice", None).expect("submit");
        assert_eq!(ok.status, 200);
    }
    let over = client::submit(&addr, &spec, "alice", None).expect("submit");
    assert_eq!(over.status, 429);
    let doc = Json::parse(&over.body).expect("error json");
    let error = doc.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(error.contains("quota"), "unexpected error: {error}");

    // A different tenant is still served.
    let other = client::submit(&addr, &spec, "bob", None).expect("submit");
    assert_eq!(other.status, 200);

    let stats = client::stats(&addr).expect("stats");
    let doc = Json::parse(&stats.body).expect("stats json");
    assert_eq!(
        doc.get("jobs")
            .and_then(|j| j.get("rejected_quota"))
            .and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(
        doc.get("tenants")
            .and_then(|t| t.get("alice"))
            .and_then(|a| a.get("completed"))
            .and_then(Json::as_u64),
        Some(2)
    );
    server.shutdown();
    server.join();
}

#[test]
fn streaming_replays_probe_lines_on_warm_hits() {
    let dir = temp_cache("stream");
    let cache = Arc::new(ResultCache::open(&dir).expect("cache"));
    let (server, addr) = start(ServeConfig {
        cache: Some(Arc::clone(&cache)),
        ..ServeConfig::default()
    });

    let mut spec = SessionSpec::new(Workload::Histogram {
        base_word: 0,
        indices: (0..2048u64).map(|i| (i * 31 + 7) % 128).collect(),
    });
    spec.probe_interval = 256;
    let text = spec.to_json().to_string_pretty();

    let mut cold_lines = Vec::new();
    let cold = {
        let mut sink = |line: &str| cold_lines.push(line.to_string());
        client::submit(&addr, &text, "", Some(&mut sink)).expect("cold stream")
    };
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-sa-cache"), Some("miss"));

    let mut warm_lines = Vec::new();
    let warm = {
        let mut sink = |line: &str| warm_lines.push(line.to_string());
        client::submit(&addr, &text, "", Some(&mut sink)).expect("warm stream")
    };
    assert_eq!(warm.header("x-sa-cache"), Some("hit"));
    assert_eq!(warm.header("x-sa-simulated"), Some("0"));
    assert_eq!(cold.body, warm.body, "final result line must match");

    // Warm replay carries the stored probe snapshots (heartbeats are live
    // progress and intentionally absent), every one a valid probe line.
    let warm_probes: Vec<_> = warm_lines
        .iter()
        .filter(|l| l.contains("\"sa-probe\""))
        .collect();
    assert!(!warm_probes.is_empty(), "warm stream should replay probes");
    for line in &warm_probes {
        let doc = Json::parse(line).expect("probe json");
        sa_telemetry::validate_probe_json(&doc).expect("valid probe line");
    }
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_specs_and_unknown_routes_answer_4xx() {
    let (server, addr) = start(ServeConfig::default());
    let bad = client::submit(&addr, "{\"schema\":\"nope\"}", "", None).expect("submit");
    assert_eq!(bad.status, 400);
    let not_json = client::submit(&addr, "not json at all", "", None).expect("submit");
    assert_eq!(not_json.status, 400);
    // A 4 MiB string must be rejected promptly, not scanned quadratically.
    let long = format!("{{\"schema\":\"{}\"}}", "s".repeat(4 << 20));
    let long_schema = client::submit(&addr, &long, "", None).expect("submit");
    assert_eq!(long_schema.status, 400);
    // A job over a size limit is refused before it runs.
    let huge = SessionSpec::new(Workload::Histogram {
        base_word: 0,
        indices: vec![1 << 40],
    });
    let too_large =
        client::submit(&addr, &huge.to_json().to_string_pretty(), "", None).expect("submit");
    assert_eq!(too_large.status, 400);
    assert!(
        too_large.body.contains("MAX_RESULT_WORDS"),
        "{}",
        too_large.body
    );
    let missing = client::request(&addr, "GET", "/v1/nothing", &[], None).expect("request");
    assert_eq!(missing.status, 404);
    let wrong_method = client::request(&addr, "GET", "/v1/jobs", &[], None).expect("request");
    assert_eq!(wrong_method.status, 405);
    let health = client::health(&addr).expect("health");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "ok\n");
    server.shutdown();
    server.join();
}

#[test]
fn http_shutdown_drains_the_server() {
    let (server, addr) = start(ServeConfig::default());
    let resp = client::shutdown(&addr).expect("shutdown");
    assert_eq!(resp.status, 200);
    assert!(server.is_shutting_down());
    server.join();
}
