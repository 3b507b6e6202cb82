//! Live introspection: point-in-time component snapshots (`sa-probe`),
//! streaming progress heartbeats, and host-time self-profiling.
//!
//! Three layers, all optional and all zero-cost when off:
//!
//! * **Probes** — every ticked component implements [`Inspectable`] and can
//!   render a cheap snapshot of its *current* state (queue depths, MSHR and
//!   combining-store occupancy, in-flight counts) as JSON. A run loop
//!   collects them through a [`ProbeRegistry`] at a fixed simulated-cycle
//!   cadence driven by a [`ProbeRecorder`]. Snapshots are part of the
//!   simulation's deterministic surface: at a fixed cadence the rendered
//!   bytes are identical across `--jobs` and `--fast-forward` (modulo the `skipped_cycles` tally, exactly like the
//!   stats documents).
//! * **Progress** — a [`Progress`] handle emits NDJSON heartbeat/point
//!   events to stderr or a [`ProbeListener`] unix socket, throttled by
//!   wall-clock. Heartbeats are *explicitly nondeterministic* (they carry
//!   wall-clock rates and ETAs) and never enter a stats document.
//! * **Host profiling** — a [`HostProfiler`] attributes wall-clock to named
//!   run-loop phases via scoped closures. Its report lands in the opt-in
//!   `host_profile` stats sidecar, which every byte-determinism gate and
//!   `analyze --diff` comparison excludes.
//!
//! [`Introspect`] bundles the three so run loops take one optional handle.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::Json;

/// The `schema` tag of a probe snapshot document.
pub const PROBE_SCHEMA_NAME: &str = "sa-probe";
/// Current probe snapshot schema version.
pub const PROBE_SCHEMA_VERSION: u64 = 1;

/// A component that can render a cheap point-in-time snapshot of its
/// internal occupancy state. Implementations must be O(state summarized):
/// queue lengths, occupancy counters, in-flight counts — never scans
/// proportional to cache capacity or trace length.
pub trait Inspectable {
    /// A short machine-readable component kind, e.g. `"cache_bank"`.
    fn probe_kind(&self) -> &'static str;
    /// The snapshot body as a JSON object of counters/gauges (and nested
    /// child components for aggregates).
    fn probe_json(&self) -> Json;
}

/// Collects named component snapshots for one probe point. The registry is
/// rebuilt per snapshot — components are borrowed only for the instant
/// their state is read, which sidesteps any long-lived registration
/// lifetime problem.
#[derive(Debug, Default)]
pub struct ProbeRegistry {
    components: Vec<(String, Json)>,
}

impl ProbeRegistry {
    /// An empty registry for one snapshot point.
    pub fn new() -> ProbeRegistry {
        ProbeRegistry::default()
    }

    /// Snapshot `component` now under `name`.
    pub fn register(&mut self, name: &str, component: &dyn Inspectable) {
        self.register_json(name, component.probe_kind(), component.probe_json());
    }

    /// Register an already-rendered snapshot body under `name`/`kind` (for
    /// owners that compose children into a tree by hand).
    pub fn register_json(&mut self, name: &str, kind: &str, body: Json) {
        let mut o = Json::obj();
        o.push("kind", Json::Str(kind.to_owned()));
        if let Json::Obj(pairs) = body {
            for (k, v) in pairs {
                o.push(&k, v);
            }
        }
        self.components.push((name.to_owned(), o));
    }

    /// Number of components registered so far.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether nothing was registered.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Render just the components object (for aggregates composing child
    /// snapshots into a subtree of their own [`Inspectable::probe_json`]).
    pub fn into_components(self) -> Json {
        Json::Obj(self.components)
    }

    /// Render the versioned snapshot document. `label` names the run the
    /// snapshot belongs to (empty = omitted); `skipped_cycles` is the
    /// event-horizon tally so far — the one field determinism comparisons
    /// strip, exactly like the stats documents.
    pub fn into_snapshot(self, label: &str, cycle: u64, skipped_cycles: u64) -> Json {
        let mut doc = Json::obj();
        doc.push("schema", Json::Str(PROBE_SCHEMA_NAME.to_owned()));
        doc.push("version", Json::UInt(PROBE_SCHEMA_VERSION));
        if !label.is_empty() {
            doc.push("label", Json::Str(label.to_owned()));
        }
        doc.push("cycle", Json::UInt(cycle));
        doc.push("skipped_cycles", Json::UInt(skipped_cycles));
        doc.push("components", Json::Obj(self.components));
        doc
    }
}

/// Structural check for a probe snapshot document: schema tag, version,
/// numeric `cycle`/`skipped_cycles`, and a `components` object whose every
/// entry carries a string `kind`. Returns the first violation found.
///
/// # Errors
///
/// Returns a description of the first structural violation.
pub fn validate_probe_json(doc: &Json) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing 'schema'")?;
    if schema != PROBE_SCHEMA_NAME {
        return Err(format!(
            "schema is '{schema}', expected '{PROBE_SCHEMA_NAME}'"
        ));
    }
    let version = doc
        .get("version")
        .and_then(Json::as_u64)
        .ok_or("missing 'version'")?;
    if version == 0 || version > PROBE_SCHEMA_VERSION {
        return Err(format!(
            "version is {version}, expected 1..={PROBE_SCHEMA_VERSION}"
        ));
    }
    doc.get("cycle")
        .and_then(Json::as_u64)
        .ok_or("missing numeric 'cycle'")?;
    doc.get("skipped_cycles")
        .and_then(Json::as_u64)
        .ok_or("missing numeric 'skipped_cycles'")?;
    let components = doc
        .get("components")
        .and_then(Json::as_obj)
        .ok_or("'components' missing or not an object")?;
    for (name, c) in components {
        c.get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("component '{name}' has no string 'kind'"))?;
    }
    Ok(())
}

/// Drives snapshot cadence for a run loop: due every `interval` simulated
/// cycles, with the recorded lines retained in order (and optionally
/// streamed to a [`Progress`] sink as they are taken). Interval 0 = off;
/// the off path is a single integer compare per consultation.
#[derive(Debug, Default)]
pub struct ProbeRecorder {
    interval: u64,
    next: u64,
    label: String,
    lines: Vec<String>,
    sink: Option<Progress>,
}

impl ProbeRecorder {
    /// A disabled recorder (never due; records nothing).
    pub fn off() -> ProbeRecorder {
        ProbeRecorder::default()
    }

    /// A recorder due every `interval` simulated cycles (first at cycle
    /// `interval`). 0 disables.
    pub fn every(interval: u64) -> ProbeRecorder {
        ProbeRecorder {
            interval,
            next: interval,
            ..ProbeRecorder::default()
        }
    }

    /// Label stamped into every snapshot (names the run/sweep point).
    pub fn with_label(mut self, label: &str) -> ProbeRecorder {
        self.label = label.to_owned();
        self
    }

    /// Stream every recorded line to `sink` as it is taken (in addition to
    /// retaining it).
    pub fn with_sink(mut self, sink: Progress) -> ProbeRecorder {
        if sink.is_on() {
            self.sink = Some(sink);
        }
        self
    }

    /// Whether any snapshots will be taken.
    pub fn is_on(&self) -> bool {
        self.interval != 0
    }

    /// Whether a snapshot is due at simulated cycle `now`.
    pub fn due(&self, now: u64) -> bool {
        self.interval != 0 && now >= self.next
    }

    /// The next cycle a snapshot is due at, for fast-forward clamping: a
    /// skipping run loop must not jump past this cycle, or on/off cadence
    /// bytes would diverge.
    pub fn next_due(&self) -> Option<u64> {
        if self.interval != 0 {
            Some(self.next)
        } else {
            None
        }
    }

    /// Record the snapshot assembled in `reg` for simulated cycle `cycle`
    /// and advance the cadence.
    pub fn record(&mut self, reg: ProbeRegistry, cycle: u64, skipped_cycles: u64) {
        let doc = reg.into_snapshot(&self.label, cycle, skipped_cycles);
        let line = doc.to_string_compact();
        if let Some(sink) = &self.sink {
            sink.emit_line(&line);
        }
        self.lines.push(line);
        while self.next <= cycle {
            self.next += self.interval;
        }
    }

    /// The recorded snapshot lines (compact JSON, one per snapshot), in
    /// cadence order.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Take the recorded lines, leaving the recorder empty.
    pub fn take_lines(&mut self) -> Vec<String> {
        std::mem::take(&mut self.lines)
    }
}

/// Shared writer state behind a [`Progress`] handle.
struct ProgressInner {
    writer: Mutex<Box<dyn Write + Send>>,
    start: Instant,
    min_period: Duration,
    last_beat: Mutex<Option<Instant>>,
    points_done: AtomicU64,
    points_total: AtomicU64,
}

/// A cloneable NDJSON progress emitter: heartbeats (wall-clock throttled),
/// sweep-point completions with ETA, and raw probe lines, all written as
/// single atomic lines so concurrent emitters never interleave mid-line.
///
/// Everything a `Progress` writes carries wall-clock content and is
/// **explicitly nondeterministic** — it goes to stderr or a live socket,
/// never into a stats document or any byte-compared output.
#[derive(Clone, Default)]
pub struct Progress {
    inner: Option<Arc<ProgressInner>>,
}

impl std::fmt::Debug for Progress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Progress({})", if self.is_on() { "on" } else { "off" })
    }
}

impl Progress {
    /// A disabled handle; every emission is a no-op behind one branch.
    pub fn off() -> Progress {
        Progress { inner: None }
    }

    /// Emit NDJSON to stderr (the `--progress` sink).
    pub fn stderr() -> Progress {
        Progress::to_writer(Box::new(std::io::stderr()))
    }

    /// Emit NDJSON to an arbitrary writer (e.g. a [`ProbeListener`]
    /// broadcast).
    pub fn to_writer(writer: Box<dyn Write + Send>) -> Progress {
        Progress {
            inner: Some(Arc::new(ProgressInner {
                writer: Mutex::new(writer),
                start: Instant::now(),
                min_period: Duration::from_millis(250),
                last_beat: Mutex::new(None),
                points_done: AtomicU64::new(0),
                points_total: AtomicU64::new(0),
            })),
        }
    }

    /// Whether emissions reach anything.
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Wall-clock since the handle was created.
    pub fn elapsed(&self) -> Duration {
        self.inner
            .as_ref()
            .map_or(Duration::ZERO, |i| i.start.elapsed())
    }

    /// Write one raw line (no throttle). Used for probe snapshot streaming.
    pub fn emit_line(&self, line: &str) {
        if let Some(inner) = &self.inner {
            let mut w = inner.writer.lock().expect("progress writer");
            let _ = writeln!(w, "{line}");
            let _ = w.flush();
        }
    }

    /// Write one event object as a line (no throttle).
    pub fn emit(&self, event: &Json) {
        if self.is_on() {
            self.emit_line(&event.to_string_compact());
        }
    }

    /// Emit a heartbeat, throttled to the handle's minimum period. `build`
    /// is only called when a heartbeat is actually due; it receives a base
    /// object already holding `kind: "heartbeat"` and `elapsed_ms` and adds
    /// its own fields (simulated cycle, cycles/sec, fast-forward ratio...).
    pub fn heartbeat(&self, build: impl FnOnce(&mut Json)) {
        let Some(inner) = &self.inner else { return };
        {
            let mut last = inner.last_beat.lock().expect("heartbeat clock");
            let now = Instant::now();
            match *last {
                Some(t) if now.duration_since(t) < inner.min_period => return,
                _ => *last = Some(now),
            }
        }
        let mut o = Json::obj();
        o.push("kind", Json::Str("heartbeat".to_owned()));
        o.push(
            "elapsed_ms",
            Json::UInt(inner.start.elapsed().as_millis() as u64),
        );
        build(&mut o);
        self.emit(&o);
    }

    /// Announce `n` more sweep points of upcoming work (for ETA).
    pub fn add_points(&self, n: u64) {
        if let Some(inner) = &self.inner {
            inner.points_total.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record one sweep point finished and emit a `point` event with the
    /// completion fraction and a naive linear ETA.
    pub fn point_done(&self, label: &str) {
        let Some(inner) = &self.inner else { return };
        let done = inner.points_done.fetch_add(1, Ordering::Relaxed) + 1;
        let total = inner.points_total.load(Ordering::Relaxed).max(done);
        let elapsed = inner.start.elapsed();
        let eta_ms = (elapsed.as_millis() as u64 / done.max(1)) * (total - done);
        let mut o = Json::obj();
        o.push("kind", Json::Str("point".to_owned()));
        o.push("label", Json::Str(label.to_owned()));
        o.push("done", Json::UInt(done));
        o.push("total", Json::UInt(total));
        o.push("elapsed_ms", Json::UInt(elapsed.as_millis() as u64));
        o.push("eta_ms", Json::UInt(eta_ms));
        self.emit(&o);
    }
}

static GLOBAL_PROGRESS_ON: AtomicBool = AtomicBool::new(false);

fn global_progress_cell() -> &'static Mutex<Progress> {
    static CELL: OnceLock<Mutex<Progress>> = OnceLock::new();
    CELL.get_or_init(|| Mutex::new(Progress::off()))
}

/// Install the process-wide progress sink (the `--progress` /
/// `--probe-listen` flags route through this, in the same idiom as
/// `sa_sim::set_fast_forward_default`).
pub fn set_global_progress(p: Progress) {
    GLOBAL_PROGRESS_ON.store(p.is_on(), Ordering::Release);
    *global_progress_cell().lock().expect("global progress") = p;
}

/// Whether a process-wide progress sink is installed — one relaxed atomic
/// load, so hot loops can gate on it.
pub fn progress_enabled() -> bool {
    GLOBAL_PROGRESS_ON.load(Ordering::Acquire)
}

/// A clone of the process-wide progress handle ([`Progress::off`] unless
/// [`set_global_progress`] installed one).
pub fn global_progress() -> Progress {
    global_progress_cell()
        .lock()
        .expect("global progress")
        .clone()
}

/// Attributes host wall-clock to named run-loop phases via scoped closures.
/// Disabled (`off`) it costs one branch per phase; enabled it brackets each
/// phase with two `Instant::now()` reads. The report is wall-clock and
/// therefore nondeterministic: it only ever lands in the opt-in
/// `host_profile` stats sidecar, which determinism gates exclude.
#[derive(Debug, Default)]
pub struct HostProfiler {
    on: bool,
    phases: BTreeMap<&'static str, (u64, u128)>,
}

impl HostProfiler {
    /// A disabled profiler.
    pub fn off() -> HostProfiler {
        HostProfiler::default()
    }

    /// An active profiler.
    pub fn on() -> HostProfiler {
        HostProfiler {
            on: true,
            phases: BTreeMap::new(),
        }
    }

    /// Active iff `on`.
    pub fn enabled(on: bool) -> HostProfiler {
        if on {
            HostProfiler::on()
        } else {
            HostProfiler::off()
        }
    }

    /// Whether timings are being collected.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f`, attributing its wall-clock to `phase` when profiling is on.
    #[inline]
    pub fn time<R>(&mut self, phase: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_nanos();
        let slot = self.phases.entry(phase).or_insert((0, 0));
        slot.0 += 1;
        slot.1 += dt;
        out
    }

    /// Fold another profiler's timings into this one (sweep merging).
    pub fn absorb(&mut self, other: &HostProfiler) {
        self.on |= other.on;
        for (phase, (calls, nanos)) in &other.phases {
            let slot = self.phases.entry(phase).or_insert((0, 0));
            slot.0 += calls;
            slot.1 += nanos;
        }
    }

    /// The `host_profile` sidecar object:
    /// `{"total_ns": N, "phases": {"tick": {"calls": C, "ns": N, "pct": P}}}`.
    pub fn to_json(&self) -> Json {
        let total: u128 = self.phases.values().map(|&(_, ns)| ns).sum();
        let mut phases = Json::obj();
        for (phase, &(calls, nanos)) in &self.phases {
            let mut p = Json::obj();
            p.push("calls", Json::UInt(calls));
            p.push("ns", Json::UInt(nanos as u64));
            let pct = if total > 0 {
                nanos as f64 * 100.0 / total as f64
            } else {
                0.0
            };
            p.push("pct", Json::Num(pct));
            phases.push(phase, p);
        }
        let mut o = Json::obj();
        o.push("total_ns", Json::UInt(total as u64));
        o.push("phases", phases);
        o
    }
}

/// The bundle a run loop takes to become introspectable: snapshot cadence,
/// progress sink, and host profiler. [`Introspect::off`] is the default
/// everywhere and costs one branch per consultation site.
#[derive(Debug, Default)]
pub struct Introspect {
    /// Deterministic snapshot cadence and storage.
    pub recorder: ProbeRecorder,
    /// Nondeterministic heartbeat sink.
    pub progress: Progress,
    /// Host wall-clock phase attribution.
    pub profiler: HostProfiler,
}

impl Introspect {
    /// Everything disabled.
    pub fn off() -> Introspect {
        Introspect::default()
    }
}

/// A unix-domain-socket NDJSON broadcaster: the `--probe-listen PATH` sink.
/// Clients (`analyze --watch PATH`) connect and receive every heartbeat,
/// point event, and probe snapshot line from the moment they attach. Dead
/// clients are dropped on the next write; the socket file is removed on
/// drop.
#[cfg(unix)]
pub struct ProbeListener {
    path: std::path::PathBuf,
    clients: Arc<Mutex<Vec<std::os::unix::net::UnixStream>>>,
}

#[cfg(unix)]
impl std::fmt::Debug for ProbeListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ProbeListener({})", self.path.display())
    }
}

#[cfg(unix)]
impl ProbeListener {
    /// Bind `path` (removing any stale socket file) and start accepting
    /// clients on a background thread.
    ///
    /// # Errors
    ///
    /// Returns the bind error (bad path, permissions).
    pub fn bind(path: &std::path::Path) -> std::io::Result<ProbeListener> {
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        let clients: Arc<Mutex<Vec<std::os::unix::net::UnixStream>>> =
            Arc::new(Mutex::new(Vec::new()));
        let accept_clients = Arc::clone(&clients);
        std::thread::Builder::new()
            .name("sa-probe-listen".to_owned())
            .spawn(move || {
                for stream in listener.incoming().flatten() {
                    accept_clients.lock().expect("probe clients").push(stream);
                }
            })?;
        Ok(ProbeListener {
            path: path.to_owned(),
            clients,
        })
    }

    /// A [`Progress`] handle broadcasting to every connected client.
    pub fn progress(&self) -> Progress {
        Progress::to_writer(Box::new(Broadcast {
            clients: Arc::clone(&self.clients),
        }))
    }

    /// Currently connected clients.
    pub fn client_count(&self) -> usize {
        self.clients.lock().expect("probe clients").len()
    }

    /// Block until at least one client is connected (polling the accept
    /// thread's roster), or `timeout` elapses. Returns whether a client
    /// arrived. Lines emitted before the first client connects are not
    /// buffered, so a producer that wants a watcher to see the run from
    /// cycle zero calls this before simulating (`--probe-wait-client`).
    pub fn wait_for_client(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.client_count() > 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

#[cfg(unix)]
impl Drop for ProbeListener {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(unix)]
struct Broadcast {
    clients: Arc<Mutex<Vec<std::os::unix::net::UnixStream>>>,
}

#[cfg(unix)]
impl Write for Broadcast {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut clients = self.clients.lock().expect("probe clients");
        clients.retain_mut(|c| c.write_all(buf).is_ok());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let mut clients = self.clients.lock().expect("probe clients");
        clients.retain_mut(|c| c.flush().is_ok());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake(u64);
    impl Inspectable for Fake {
        fn probe_kind(&self) -> &'static str {
            "fake"
        }
        fn probe_json(&self) -> Json {
            let mut o = Json::obj();
            o.push("depth", Json::UInt(self.0));
            o
        }
    }

    #[test]
    fn snapshots_validate_and_carry_components() {
        let mut reg = ProbeRegistry::new();
        reg.register("q0", &Fake(3));
        reg.register("q1", &Fake(5));
        let doc = reg.into_snapshot("run-a", 128, 64);
        validate_probe_json(&doc).expect("valid snapshot");
        assert_eq!(doc.get("cycle").and_then(Json::as_u64), Some(128));
        let q1 = doc.get("components").and_then(|c| c.get("q1")).unwrap();
        assert_eq!(q1.get("kind").and_then(Json::as_str), Some("fake"));
        assert_eq!(q1.get("depth").and_then(Json::as_u64), Some(5));
    }

    #[test]
    fn bad_snapshots_are_rejected() {
        let mut doc = ProbeRegistry::new().into_snapshot("", 0, 0);
        validate_probe_json(&doc).expect("empty snapshot is fine");
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "cycle");
        }
        assert!(validate_probe_json(&doc).unwrap_err().contains("cycle"));
        assert!(validate_probe_json(&Json::obj()).is_err());
    }

    #[test]
    fn recorder_cadence_and_ff_clamp() {
        let mut rec = ProbeRecorder::every(100);
        assert!(rec.is_on());
        assert!(!rec.due(99));
        assert!(rec.due(100));
        assert_eq!(rec.next_due(), Some(100));
        rec.record(ProbeRegistry::new(), 100, 0);
        assert_eq!(rec.next_due(), Some(200));
        assert!(!rec.due(150));
        rec.record(ProbeRegistry::new(), 200, 7);
        assert_eq!(rec.lines().len(), 2);
        let last = Json::parse(&rec.lines()[1]).unwrap();
        assert_eq!(last.get("skipped_cycles").and_then(Json::as_u64), Some(7));
    }

    #[test]
    fn off_recorder_is_never_due() {
        let rec = ProbeRecorder::off();
        assert!(!rec.is_on());
        assert!(!rec.due(0));
        assert!(!rec.due(u64::MAX));
        assert_eq!(rec.next_due(), None);
    }

    #[test]
    fn progress_off_is_inert_and_writer_collects_lines() {
        Progress::off().heartbeat(|_| panic!("must not build when off"));
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct Sink(Arc<Mutex<Vec<u8>>>);
        impl Write for Sink {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let p = Progress::to_writer(Box::new(Sink(Arc::clone(&buf))));
        p.add_points(2);
        p.point_done("a");
        p.heartbeat(|o| o.push("cycle", Json::UInt(42)));
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let point = Json::parse(lines[0]).unwrap();
        assert_eq!(point.get("kind").and_then(Json::as_str), Some("point"));
        assert_eq!(point.get("done").and_then(Json::as_u64), Some(1));
        assert_eq!(point.get("total").and_then(Json::as_u64), Some(2));
        let beat = Json::parse(lines[1]).unwrap();
        assert_eq!(beat.get("kind").and_then(Json::as_str), Some("heartbeat"));
        assert_eq!(beat.get("cycle").and_then(Json::as_u64), Some(42));
    }

    #[test]
    fn host_profiler_attributes_phases() {
        let mut prof = HostProfiler::on();
        let x = prof.time("tick", || 2 + 2);
        assert_eq!(x, 4);
        prof.time("tick", || ());
        prof.time("skip", || ());
        let j = prof.to_json();
        let tick = j.get("phases").and_then(|p| p.get("tick")).unwrap();
        assert_eq!(tick.get("calls").and_then(Json::as_u64), Some(2));
        assert!(j.get("total_ns").and_then(Json::as_u64).is_some());
        let mut other = HostProfiler::on();
        other.time("tick", || ());
        prof.absorb(&other);
        let j2 = prof.to_json();
        let tick2 = j2.get("phases").and_then(|p| p.get("tick")).unwrap();
        assert_eq!(tick2.get("calls").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn off_profiler_records_nothing() {
        let mut prof = HostProfiler::off();
        assert_eq!(prof.time("tick", || 7), 7);
        assert_eq!(
            prof.to_json().get("total_ns").and_then(Json::as_u64),
            Some(0)
        );
    }

    #[cfg(unix)]
    #[test]
    fn listener_broadcasts_to_clients() {
        use std::io::{BufRead, BufReader};
        let path = std::env::temp_dir().join(format!("sa-probe-test-{}.sock", std::process::id()));
        let listener = ProbeListener::bind(&path).expect("bind");
        let client = std::os::unix::net::UnixStream::connect(&path).expect("connect");
        // Wait for the accept thread to register the client.
        for _ in 0..100 {
            if listener.client_count() > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(listener.client_count(), 1);
        let p = listener.progress();
        p.emit_line(r#"{"kind":"hello"}"#);
        let mut line = String::new();
        BufReader::new(client).read_line(&mut line).expect("read");
        assert_eq!(line.trim(), r#"{"kind":"hello"}"#);
        drop(listener);
        assert!(!path.exists(), "socket file removed on drop");
    }
}
