//! `sa-serve`: a multi-tenant simulation service over the [`SessionSpec`]
//! job API.
//!
//! The daemon speaks plain HTTP/1.1 on a `std::net::TcpListener` — no
//! framework, no async runtime — and accepts JSON job specs (the
//! [`SessionSpec`] wire form, see `docs/SERVING.md`):
//!
//! * `POST /v1/jobs` — submit a spec; the response embeds a validated
//!   sa-stats document plus the exact [`SessionReport`]. The `X-SA-Tenant`
//!   header names the submitting tenant for quota accounting; the
//!   `X-SA-Stream: progress` header upgrades the response to NDJSON with
//!   live heartbeat/probe lines ahead of the final result line.
//! * `GET /v1/stats` — server counters (jobs, rejections, cache traffic,
//!   per-tenant accounting) as an `sa-serve-stats` document.
//! * `GET /healthz` — liveness probe.
//! * `POST /v1/shutdown` — drain and stop.
//!
//! Jobs run on a bounded worker pool; when the connection queue is full the
//! accept loop answers `429` immediately (admission control), and per-tenant
//! quotas (total jobs, concurrent jobs) answer `429` with a quota error.
//! Every job is built into a `Session` (the one validation a job passes)
//! with the server's result cache attached, and the server drives the
//! session's two halves: `Session::cached` first, `Session::simulate` on a
//! miss. A warm repeat of a job therefore performs zero simulation yet
//! returns a byte-identical body; the `X-SA-Cache` and `X-SA-Simulated`
//! response headers are the sidecar that says which half served it. A
//! stale entry that is recomputed is a miss in both the headers and the
//! cache counters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use sa_memo::ResultCache;
use sa_telemetry::{Json, Progress};
use scatter_add_repro::{SessionReport, SessionSpec};

/// Schema tag of the job-result document returned by `POST /v1/jobs`.
pub const RESULT_SCHEMA_NAME: &str = "sa-serve-result";
/// Version of the job-result document.
pub const RESULT_SCHEMA_VERSION: u64 = 1;
/// Schema tag of the server-counters document returned by `GET /v1/stats`.
pub const SERVER_STATS_SCHEMA_NAME: &str = "sa-serve-stats";
/// Version of the server-counters document.
pub const SERVER_STATS_SCHEMA_VERSION: u64 = 1;

/// Tenant name used when a submission carries no `X-SA-Tenant` header.
pub const DEFAULT_TENANT: &str = "anonymous";

/// Tunables for [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads executing jobs (min 1).
    pub workers: usize,
    /// Accepted-but-unserviced connections held beyond the workers; when
    /// the queue is full new connections are answered `429 busy`.
    pub queue_depth: usize,
    /// Lifetime job quota per tenant; 0 means unlimited.
    pub tenant_jobs: u64,
    /// Concurrent in-flight job quota per tenant; 0 means unlimited.
    pub tenant_inflight: u64,
    /// Result cache consulted before simulating and populated after.
    pub cache: Option<Arc<ResultCache>>,
    /// Largest request body accepted, in bytes.
    pub max_body_bytes: u64,
    /// Heartbeat and probe sink of jobs that are not streamed (off by
    /// default; `serve --progress` points it at stderr). A streamed job
    /// reports to its own response instead.
    pub progress: Progress,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_depth: 16,
            tenant_jobs: 0,
            tenant_inflight: 0,
            cache: None,
            max_body_bytes: 64 << 20,
            progress: Progress::off(),
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct TenantLedger {
    submitted: u64,
    completed: u64,
    inflight: u64,
    rejected: u64,
}

struct State {
    cfg: ServeConfig,
    addr: SocketAddr,
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
    shutdown: AtomicBool,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected_busy: AtomicU64,
    rejected_quota: AtomicU64,
    tenants: Mutex<BTreeMap<String, TenantLedger>>,
}

impl State {
    /// Admit one job for `tenant`, or explain the quota it would bust.
    fn admit(&self, tenant: &str) -> Result<(), String> {
        let mut tenants = self.tenants.lock().unwrap();
        let ledger = tenants.entry(tenant.to_string()).or_default();
        if self.cfg.tenant_jobs > 0 && ledger.submitted >= self.cfg.tenant_jobs {
            ledger.rejected += 1;
            return Err(format!(
                "tenant '{tenant}' exhausted its quota of {} jobs",
                self.cfg.tenant_jobs
            ));
        }
        if self.cfg.tenant_inflight > 0 && ledger.inflight >= self.cfg.tenant_inflight {
            ledger.rejected += 1;
            return Err(format!(
                "tenant '{tenant}' already has {} jobs in flight",
                self.cfg.tenant_inflight
            ));
        }
        ledger.submitted += 1;
        ledger.inflight += 1;
        Ok(())
    }

    fn release(&self, tenant: &str, ok: bool) {
        let mut tenants = self.tenants.lock().unwrap();
        let ledger = tenants.entry(tenant.to_string()).or_default();
        ledger.inflight = ledger.inflight.saturating_sub(1);
        if ok {
            ledger.completed += 1;
        }
    }

    fn stats_json(&self) -> Json {
        let mut jobs = Json::obj();
        jobs.push(
            "submitted",
            Json::UInt(self.submitted.load(Ordering::Relaxed)),
        );
        jobs.push(
            "completed",
            Json::UInt(self.completed.load(Ordering::Relaxed)),
        );
        jobs.push("failed", Json::UInt(self.failed.load(Ordering::Relaxed)));
        jobs.push(
            "rejected_busy",
            Json::UInt(self.rejected_busy.load(Ordering::Relaxed)),
        );
        jobs.push(
            "rejected_quota",
            Json::UInt(self.rejected_quota.load(Ordering::Relaxed)),
        );
        let mut cache = Json::obj();
        match &self.cfg.cache {
            Some(c) => {
                cache.push("enabled", Json::Bool(true));
                cache.push("hits", Json::UInt(c.hits()));
                cache.push("misses", Json::UInt(c.misses()));
                cache.push("stores", Json::UInt(c.stores()));
            }
            None => cache.push("enabled", Json::Bool(false)),
        }
        let mut tenants = Json::obj();
        for (name, ledger) in self.tenants.lock().unwrap().iter() {
            let mut t = Json::obj();
            t.push("submitted", Json::UInt(ledger.submitted));
            t.push("completed", Json::UInt(ledger.completed));
            t.push("inflight", Json::UInt(ledger.inflight));
            t.push("rejected", Json::UInt(ledger.rejected));
            tenants.push(name, t);
        }
        let mut doc = Json::obj();
        doc.push("schema", Json::Str(SERVER_STATS_SCHEMA_NAME.to_string()));
        doc.push("version", Json::UInt(SERVER_STATS_SCHEMA_VERSION));
        doc.push("workers", Json::UInt(self.cfg.workers as u64));
        doc.push("jobs", jobs);
        doc.push("cache", cache);
        doc.push("tenants", tenants);
        doc
    }
}

/// A running `sa-serve` daemon: accept loop plus worker pool.
pub struct Server {
    state: Arc<State>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and start serving in background
    /// threads. Returns once the listener is live.
    pub fn bind(addr: &str, cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let state = Arc::new(State {
            cfg: ServeConfig { workers, ..cfg },
            addr: local,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected_busy: AtomicU64::new(0),
            rejected_quota: AtomicU64::new(0),
            tenants: Mutex::new(BTreeMap::new()),
        });
        let mut threads = Vec::with_capacity(workers + 1);
        for i in 0..workers {
            let state = Arc::clone(&state);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("sa-serve-worker{i}"))
                    .spawn(move || worker_loop(&state))?,
            );
        }
        {
            let state = Arc::clone(&state);
            threads.push(
                std::thread::Builder::new()
                    .name("sa-serve-accept".to_string())
                    .spawn(move || accept_loop(&listener, &state))?,
            );
        }
        Ok(Server {
            state,
            addr: local,
            threads,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the server to stop: the accept loop exits, workers drain the
    /// queue and exit. Idempotent.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.state.addr);
        self.state.available.notify_all();
    }

    /// True once shutdown has been requested (by [`Server::shutdown`] or
    /// `POST /v1/shutdown`).
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }

    /// Block until every server thread has exited.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Server counters as an `sa-serve-stats` document (what `GET
    /// /v1/stats` returns).
    pub fn stats_json(&self) -> Json {
        self.state.stats_json()
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<State>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let mut queue = state.queue.lock().unwrap();
        if queue.len() >= state.cfg.queue_depth + state.cfg.workers {
            drop(queue);
            state.rejected_busy.fetch_add(1, Ordering::Relaxed);
            let mut body = Json::obj();
            body.push("error", Json::Str("server busy: job queue is full".into()));
            let mut stream = stream;
            let _ = respond_json(&mut stream, 429, &body, &[]);
        } else {
            queue.push_back(stream);
            drop(queue);
            state.available.notify_one();
        }
    }
    state.available.notify_all();
}

fn worker_loop(state: &Arc<State>) {
    loop {
        let stream = {
            let mut queue = state.queue.lock().unwrap();
            loop {
                if let Some(s) = queue.pop_front() {
                    break s;
                }
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = state.available.wait(queue).unwrap();
            }
        };
        let _ = handle_connection(state, stream);
    }
}

/// One parsed HTTP/1.1 request.
struct Request {
    method: String,
    path: String,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Request {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

fn handle_connection(state: &Arc<State>, mut stream: TcpStream) -> io::Result<()> {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let request = match read_request(&mut stream, state.cfg.max_body_bytes) {
        Ok(request) => request,
        Err((status, message)) => {
            let mut body = Json::obj();
            body.push("error", Json::Str(message));
            return respond_json(&mut stream, status, &body, &[]);
        }
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => respond_raw(&mut stream, 200, "text/plain", &[], b"ok\n"),
        ("GET", "/v1/stats") => respond_json(&mut stream, 200, &state.stats_json(), &[]),
        ("POST", "/v1/shutdown") => {
            let mut body = Json::obj();
            body.push("ok", Json::Bool(true));
            let result = respond_json(&mut stream, 200, &body, &[]);
            state.shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(state.addr);
            state.available.notify_all();
            result
        }
        ("POST", "/v1/jobs") => submit_job(state, &mut stream, &request),
        (_, "/healthz") | (_, "/v1/stats") | (_, "/v1/shutdown") | (_, "/v1/jobs") => {
            let mut body = Json::obj();
            body.push(
                "error",
                Json::Str(format!("method {} not allowed here", request.method)),
            );
            respond_json(&mut stream, 405, &body, &[])
        }
        (_, path) => {
            let mut body = Json::obj();
            body.push("error", Json::Str(format!("no such endpoint: {path}")));
            respond_json(&mut stream, 404, &body, &[])
        }
    }
}

/// Serve one `POST /v1/jobs`: admission, cache lookup, simulation on miss,
/// identical result bytes either way.
fn submit_job(state: &Arc<State>, stream: &mut TcpStream, request: &Request) -> io::Result<()> {
    let tenant = request
        .header("x-sa-tenant")
        .unwrap_or(DEFAULT_TENANT)
        .to_string();
    if let Err(reason) = state.admit(&tenant) {
        state.rejected_quota.fetch_add(1, Ordering::Relaxed);
        let mut body = Json::obj();
        body.push("error", Json::Str(reason));
        body.push("tenant", Json::Str(tenant));
        return respond_json(stream, 429, &body, &[]);
    }
    state.submitted.fetch_add(1, Ordering::Relaxed);
    let result = run_job(state, stream, request);
    state.release(&tenant, result.is_ok());
    match result {
        Ok(()) => {
            state.completed.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        Err(JobError::Client(status, message)) => {
            state.failed.fetch_add(1, Ordering::Relaxed);
            let mut body = Json::obj();
            body.push("error", Json::Str(message));
            respond_json(stream, status, &body, &[])
        }
        Err(JobError::Io(e)) => {
            state.failed.fetch_add(1, Ordering::Relaxed);
            Err(e)
        }
    }
}

enum JobError {
    /// The spec was unusable; answer `status` with the message.
    Client(u16, String),
    /// The response socket died mid-write; nothing left to say.
    Io(io::Error),
}

impl From<io::Error> for JobError {
    fn from(e: io::Error) -> JobError {
        JobError::Io(e)
    }
}

fn run_job(state: &Arc<State>, stream: &mut TcpStream, request: &Request) -> Result<(), JobError> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| JobError::Client(400, "body is not UTF-8".to_string()))?;
    let doc =
        Json::parse(text).map_err(|e| JobError::Client(400, format!("body is not JSON: {e}")))?;
    let spec = SessionSpec::from_json(&doc).map_err(|e| JobError::Client(400, e))?;
    let streaming = request
        .header("x-sa-stream")
        .is_some_and(|v| !v.eq_ignore_ascii_case("off"));

    let mut builder = spec.to_builder().progress(if streaming {
        Progress::to_writer(Box::new(stream.try_clone()?))
    } else {
        state.cfg.progress.clone()
    });
    if let Some(cache) = &state.cfg.cache {
        builder = builder.cache(Arc::clone(cache));
    }
    let session = builder
        .build()
        .map_err(|e| JobError::Client(400, format!("spec rejected: {e}")))?;
    let digest = session.fingerprint().digest();
    let cached = session.cached();
    let hit = cached.is_some();
    let sidecar = [
        (
            "X-SA-Cache".to_string(),
            if hit { "hit" } else { "miss" }.to_string(),
        ),
        (
            "X-SA-Simulated".to_string(),
            if hit { "0" } else { "1" }.to_string(),
        ),
    ];
    if !streaming {
        let report = cached.unwrap_or_else(|| session.simulate());
        respond_json(stream, 200, &result_json(&digest, &spec, &report), &sidecar)?;
        return Ok(());
    }
    let mut writer = begin_stream(stream, &sidecar)?;
    let report = match cached {
        // A warm hit replays the probe lines a cold run streamed live.
        Some(report) => {
            for line in &report.probe_lines {
                writeln!(writer, "{line}")?;
            }
            report
        }
        None => session.simulate(),
    };
    writeln!(
        writer,
        "{}",
        result_json(&digest, &spec, &report).to_string_compact()
    )?;
    writer.flush()?;
    Ok(())
}

/// The `sa-serve-result` document: digest + a validated sa-stats document +
/// the exact report. Deterministic for a given spec, so cold and warm
/// responses are byte-identical.
pub fn result_json(spec_digest: &str, spec: &SessionSpec, report: &SessionReport) -> Json {
    let mut doc = Json::obj();
    doc.push("schema", Json::Str(RESULT_SCHEMA_NAME.to_string()));
    doc.push("version", Json::UInt(RESULT_SCHEMA_VERSION));
    doc.push("spec_digest", Json::Str(spec_digest.to_string()));
    doc.push("stats", job_stats_json(spec, report));
    doc.push("report", report.to_json());
    doc
}

/// A full `sa-stats` document for one served job, built on
/// [`SessionReport::metrics`] like [`SessionReport::bottleneck`].
/// Also what `--spec --stats-json` runs write, keeping CLI and HTTP
/// exports interchangeable under `analyze --check`.
pub fn job_stats_json(spec: &SessionSpec, report: &SessionReport) -> Json {
    let mut doc = sa_telemetry::stats_json(
        "sa-serve",
        spec.config.fingerprint_json(),
        &report.metrics(),
        None,
        None,
        None,
        None,
        Json::Arr(Vec::new()),
    );
    sa_telemetry::attach_bottleneck(&mut doc);
    doc
}

/// Send streaming response headers and hand back a buffered writer for the
/// NDJSON lines.
fn begin_stream<'a>(
    stream: &'a mut TcpStream,
    extra: &[(String, String)],
) -> io::Result<io::BufWriter<&'a mut TcpStream>> {
    let mut head = String::new();
    head.push_str("HTTP/1.1 200 OK\r\n");
    head.push_str("Content-Type: application/x-ndjson\r\n");
    head.push_str("Connection: close\r\n");
    for (k, v) in extra {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.flush()?;
    Ok(io::BufWriter::new(stream))
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        _ => "Internal Server Error",
    }
}

fn respond_raw(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra: &[(String, String)],
    body: &[u8],
) -> io::Result<()> {
    let mut head = String::new();
    head.push_str(&format!("HTTP/1.1 {status} {}\r\n", status_text(status)));
    head.push_str(&format!("Content-Type: {content_type}\r\n"));
    head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    head.push_str("Connection: close\r\n");
    for (k, v) in extra {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

fn respond_json(
    stream: &mut TcpStream,
    status: u16,
    body: &Json,
    extra: &[(String, String)],
) -> io::Result<()> {
    let mut text = body.to_string_pretty();
    text.push('\n');
    respond_raw(stream, status, "application/json", extra, text.as_bytes())
}

/// Read one HTTP/1.1 request. Errors carry the status to answer with.
fn read_request(stream: &mut TcpStream, max_body: u64) -> Result<Request, (u16, String)> {
    let mut reader = LineReader::new(stream);
    let request_line = reader
        .read_line()
        .map_err(|e| (400, format!("bad request line: {e}")))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or((400, "empty request line".to_string()))?
        .to_string();
    let target = parts
        .next()
        .ok_or((400, "request line has no target".to_string()))?;
    // Strip any query string; routing is on the path alone.
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut headers = Vec::new();
    loop {
        let line = reader
            .read_line()
            .map_err(|e| (400, format!("bad header line: {e}")))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= 64 {
            return Err((431, "too many headers".to_string()));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or((400, format!("malformed header: {line}")))?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }

    let length: u64 = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| v.parse())
        .transpose()
        .map_err(|_| (400, "unparseable Content-Length".to_string()))?
        .unwrap_or(0);
    if length > max_body {
        return Err((
            413,
            format!("body of {length} bytes exceeds the {max_body}-byte limit"),
        ));
    }
    let mut body = vec![0u8; length as usize];
    reader
        .read_exact(&mut body)
        .map_err(|e| (400, format!("short body: {e}")))?;
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Minimal buffered CRLF-line reader that can hand leftover bytes to an
/// exact body read (std's `BufReader` would work too; this keeps the
/// buffering in one obvious place and caps line length).
struct LineReader<'a> {
    stream: &'a mut TcpStream,
    buf: Vec<u8>,
    pos: usize,
}

impl<'a> LineReader<'a> {
    fn new(stream: &'a mut TcpStream) -> LineReader<'a> {
        LineReader {
            stream,
            buf: Vec::new(),
            pos: 0,
        }
    }

    fn fill(&mut self) -> io::Result<usize> {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// Next line without its terminator; CRLF or bare LF both end a line.
    fn read_line(&mut self) -> io::Result<String> {
        loop {
            if let Some(nl) = self.buf[self.pos..].iter().position(|&b| b == b'\n') {
                let line = &self.buf[self.pos..self.pos + nl];
                let line = line.strip_suffix(b"\r").unwrap_or(line);
                let text = String::from_utf8_lossy(line).into_owned();
                self.pos += nl + 1;
                return Ok(text);
            }
            if self.buf.len() - self.pos > 8192 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "header line over 8 KiB",
                ));
            }
            if self.fill()? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-line",
                ));
            }
        }
    }

    fn read_exact(&mut self, out: &mut [u8]) -> io::Result<()> {
        let mut filled = 0;
        let buffered = (self.buf.len() - self.pos).min(out.len());
        out[..buffered].copy_from_slice(&self.buf[self.pos..self.pos + buffered]);
        self.pos += buffered;
        filled += buffered;
        while filled < out.len() {
            let n = self.stream.read(&mut out[filled..])?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            filled += n;
        }
        Ok(())
    }
}
