//! `serve-mix`: an in-process `sa-serve` with a fresh result cache under a
//! closed loop of histogram jobs, one cold (simulated and stored) to three
//! warm (answered from the cache), so a gain on one path that costs the
//! other shows up.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sa_core::{scatter_reference, ScatterKernel};
use sa_memo::{sha256_hex, ResultCache};
use sa_serve::{client, result_json, ServeConfig, Server};
use sa_sim::Rng64;
use sa_telemetry::Json;
use scatter_add_repro::{SessionReport, SessionSpec, Workload};

use crate::bench::{timed, Bench, Layers, Scale, Window};
use crate::host;
use crate::stats::{median, percentile};
use crate::trace::Spans;

/// Client threads, each waiting for its reply before the next job: a
/// closed loop. Fixed (not the host's core count) so the workload is the
/// same on every host.
const CLIENTS: usize = 2;
/// Warm repeats of each cold job.
const WARM_PER_COLD: u64 = 3;
/// Bins of every job's histogram.
const JOB_RANGE: u64 = 2048;

/// The running service and each client's next job number.
pub struct ServeBench {
    seed: u64,
    scale: Scale,
    cache_dir: PathBuf,
    cache: Arc<ResultCache>,
    server: Option<Server>,
    addr: String,
    next_job: [u64; CLIENTS],
}

impl ServeBench {
    /// Open a fresh cache, bind the daemon on a free local port with the
    /// default configuration, and wait until `/healthz` answers.
    pub fn new(seed: u64, scale: Scale) -> Result<ServeBench, String> {
        let cache_dir = host::scratch_dir()?.join(format!("serve-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let cache = Arc::new(
            ResultCache::open(&cache_dir).map_err(|e| format!("{}: {e}", cache_dir.display()))?,
        );
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                cache: Some(Arc::clone(&cache)),
                ..ServeConfig::default()
            },
        )
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let bench = ServeBench {
            seed,
            scale,
            cache_dir,
            cache,
            server: Some(server),
            addr,
            next_job: [0; CLIENTS],
        };
        match client::health(&bench.addr)? {
            r if r.status == 200 => Ok(bench),
            r => Err(format!("/healthz answered {}", r.status)),
        }
    }

    fn job_indices(&self, client: usize, job: u64) -> Vec<u64> {
        let mut rng = Rng64::for_stream(self.seed, ((client as u64) << 32) | job);
        let n = self.scale.pick(16 << 10, 1 << 10);
        (0..n).map(|_| rng.below(JOB_RANGE)).collect()
    }

    /// Run both clients until `budget` elapses; job spans go to `spans`.
    fn window(&mut self, budget: Duration, spans: Option<&mut Spans>) -> Window {
        let (hits, misses) = (self.cache.hits(), self.cache.misses());
        let start = Instant::now();
        let deadline = start + budget;
        let this = &*self;
        let logs: Vec<ClientLog> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| s.spawn(move || this.client_loop(c, deadline)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| ClientLog {
                        panicked: true,
                        ..ClientLog::default()
                    })
                })
                .collect()
        });
        let mut w = Window {
            elapsed_s: start.elapsed().as_secs_f64(),
            ..Window::default()
        };
        let (mut cold, mut warm, mut rejected) = (Vec::new(), Vec::new(), 0u64);
        let mut first_bodies = String::new();
        let mut spans = spans;
        for (c, log) in logs.into_iter().enumerate() {
            if log.panicked {
                w.attempted += 1;
                w.failed += 1;
            }
            for job in &log.jobs {
                let ms = job.wall.as_secs_f64() * 1e3;
                w.op_ms.push(ms);
                w.attempted += 1;
                w.failed += u64::from(!job.ok);
                (if job.cold { &mut cold } else { &mut warm }).push(ms);
                if let Some(s) = spans.as_deref_mut() {
                    let name = if job.cold { "cold-job" } else { "warm-job" };
                    s.record(name, c as u64 + 1, job.start, job.wall);
                }
            }
            rejected += log.rejected;
            first_bodies.push_str(&log.first_cold_body);
            self.next_job[c] = log.next_job;
        }
        w.digest = sha256_hex(first_bodies.as_bytes());
        let (dh, dm) = (self.cache.hits() - hits, self.cache.misses() - misses);
        let l = &mut w.layers;
        l.set("serve.job_cold_ms_p50", percentile(&cold, 50.0));
        l.set("serve.job_cold_ms_p90", percentile(&cold, 90.0));
        l.set("serve.job_warm_ms_p50", percentile(&warm, 50.0));
        l.set("serve.job_warm_ms_p95", percentile(&warm, 95.0));
        l.set("serve.rejected", rejected as f64);
        l.set("memo.hit_ratio", dh as f64 / (dh + dm).max(1) as f64);
        w
    }

    /// One closed-loop client: every fourth job is a new spec (a cache
    /// miss), the rest repeat the latest one (hits whose bodies must equal
    /// the cold bytes).
    fn client_loop(&self, client: usize, deadline: Instant) -> ClientLog {
        let mut log = ClientLog {
            next_job: self.next_job[client],
            ..ClientLog::default()
        };
        let mut last: Option<(String, String)> = None;
        while Instant::now() < deadline {
            let k = log.next_job;
            log.next_job += 1;
            let (cold, ok, start, wall) = match &last {
                Some((spec, body)) if !k.is_multiple_of(WARM_PER_COLD + 1) => {
                    let start = Instant::now();
                    let resp = client::submit(&self.addr, spec, "", None);
                    let wall = start.elapsed();
                    let ok = match resp {
                        Ok(r) => {
                            log.rejected += u64::from(r.status == 429);
                            r.status == 200
                                && r.header("X-SA-Cache") == Some("hit")
                                && r.body == *body
                        }
                        Err(e) => {
                            eprintln!("warm job: {e}");
                            false
                        }
                    };
                    (false, ok, start, wall)
                }
                _ => {
                    let indices = self.job_indices(client, k);
                    let spec = SessionSpec::new(Workload::Histogram {
                        base_word: 0,
                        indices: indices.clone(),
                    })
                    .to_json()
                    .to_string_compact();
                    let start = Instant::now();
                    let resp = client::submit(&self.addr, &spec, "", None);
                    let wall = start.elapsed();
                    let ok = match resp {
                        Ok(r) => {
                            log.rejected += u64::from(r.status == 429);
                            let ok = r.status == 200
                                && r.header("X-SA-Cache") == Some("miss")
                                && cold_body_is_correct(&r.body, &indices);
                            if log.first_cold_body.is_empty() {
                                log.first_cold_body = r.body.clone();
                            }
                            last = Some((spec, r.body));
                            ok
                        }
                        Err(e) => {
                            eprintln!("cold job: {e}");
                            false
                        }
                    };
                    (true, ok, start, wall)
                }
            };
            log.jobs.push(Job {
                start,
                wall,
                cold,
                ok,
            });
        }
        log
    }
}

/// Whether a cold job's result image equals the histogram reference.
fn cold_body_is_correct(body: &str, indices: &[u64]) -> bool {
    let len = indices.iter().copied().max().map_or(0, |m| m as usize + 1);
    let reference = scatter_reference(&ScatterKernel::histogram(0, indices.to_vec()), len);
    Json::parse(body)
        .ok()
        .and_then(|doc| {
            doc.get("report")?
                .get("result")?
                .as_arr()?
                .iter()
                .map(Json::as_u64)
                .collect::<Option<Vec<u64>>>()
        })
        .is_some_and(|result| result == reference)
}

#[derive(Debug, Default)]
struct ClientLog {
    jobs: Vec<Job>,
    rejected: u64,
    first_cold_body: String,
    next_job: u64,
    panicked: bool,
}

#[derive(Debug)]
struct Job {
    start: Instant,
    wall: Duration,
    cold: bool,
    ok: bool,
}

impl Drop for ServeBench {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

impl Bench for ServeBench {
    fn measure(&mut self, budget: Duration) -> Window {
        self.window(budget, None)
    }

    fn traced(&mut self, untraced: &Window, spans: &mut Spans) -> Result<Layers, String> {
        let budget = Duration::from_secs_f64((untraced.elapsed_s / 4.0).clamp(0.2, 3.0));
        let traced = spans.span("traced-window", |s| self.window(budget, Some(s)));
        if traced.failed > 0 {
            return Err(format!("{} traced jobs failed", traced.failed));
        }
        let mut l = self.time_calls(spans)?;
        l.set(
            "trace.overhead_pct",
            (median(&traced.op_ms) / median(&untraced.op_ms) - 1.0) * 100.0,
        );
        Ok(l)
    }
}

impl ServeBench {
    /// Time the calls a job makes into each layer on this workload's own
    /// job specs: parse and fingerprint the spec, run the session, store
    /// and look up the report in a private cache, decode it, and render the
    /// result document.
    fn time_calls(&self, spans: &mut Spans) -> Result<Layers, String> {
        let samples = self.scale.pick(12, 2);
        let dir = host::scratch_dir()?.join(format!("memo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        // Samples in µs by metric; `session.run_ms` is converted at the end.
        let mut us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut add =
            |metric, d: Duration| us.entry(metric).or_default().push(d.as_secs_f64() * 1e6);
        let result = spans.span("layer-calls", |_| {
            for k in 0..samples as u64 {
                let text = SessionSpec::new(Workload::Histogram {
                    base_word: 0,
                    indices: self.job_indices(0, k * (WARM_PER_COLD + 1)),
                })
                .to_json()
                .to_string_compact();
                let (spec, d) =
                    timed(|| Json::parse(&text).and_then(|doc| SessionSpec::from_json(&doc)));
                let spec = spec?;
                add("spec.parse_us", d);
                let (fp, d) = timed(|| spec.fingerprint());
                add("spec.fingerprint_us", d);
                let session = spec.to_builder().build()?;
                let (report, d) = timed(|| session.run());
                add("session.run_ms", d);
                let payload = report.to_json();
                let (stored, d) = timed(|| cache.store(&fp, &payload));
                stored.map_err(|e| format!("memo store: {e}"))?;
                add("memo.store_us", d);
                let (found, d) = timed(|| cache.lookup(&fp));
                add("memo.lookup_us", d);
                let found = found.ok_or("memo lookup missed a stored entry")?;
                let (decoded, d) = timed(|| SessionReport::from_json(&found));
                add("serve.report_decode_us", d);
                if decoded? != report {
                    return Err("decoded report differs from the simulated one".to_string());
                }
                let (_, d) = timed(|| result_json(&fp.digest(), &spec, &report).to_string_pretty());
                add("serve.result_json_us", d);
            }
            Ok(())
        });
        let _ = std::fs::remove_dir_all(&dir);
        result?;
        let mut l = Layers::default();
        for (metric, samples) in us {
            let scale = if metric == "session.run_ms" {
                1e-3
            } else {
                1.0
            };
            l.set(metric, median(&samples) * scale);
        }
        Ok(l)
    }
}
