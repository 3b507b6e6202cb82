//! What the traced run records: coarse spans around the calls the benchmark
//! makes into each layer (written as Chrome `trace_event` JSON when the run
//! ends), and per-call host time of component calls, aggregated in memory
//! as (layer, call) → count and self nanoseconds.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sa_telemetry::Json;

/// One finished span.
#[derive(Clone, Debug)]
struct Span {
    name: String,
    parent: Option<usize>,
    tid: u64,
    start: Duration,
    dur: Duration,
}

/// Spans of one traced run, kept in memory until the run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder whose time origin is now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span called `name`, a child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let t0 = Instant::now();
        let id = self.record(name, 0, t0, Duration::ZERO);
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].dur = t0.elapsed();
        r
    }

    /// Record a span measured elsewhere (a client thread's job) as a child
    /// of the innermost open span; returns its id.
    pub fn record(&mut self, name: &str, tid: u64, start: Instant, dur: Duration) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            tid,
            start: start.saturating_duration_since(self.origin),
            dur,
        });
        self.spans.len() - 1
    }

    /// The spans as a Chrome `trace_event` document: complete (`"X"`)
    /// events in microseconds, each carrying its id and parent id.
    pub fn chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = Json::obj();
                args.push("id", Json::UInt(id as u64));
                args.push(
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                );
                let mut e = Json::obj();
                e.push("name", Json::Str(s.name.clone()));
                e.push("cat", Json::Str("benchmark".into()));
                e.push("ph", Json::Str("X".into()));
                e.push("ts", Json::Num(s.start.as_secs_f64() * 1e6));
                e.push("dur", Json::Num(s.dur.as_secs_f64() * 1e6));
                e.push("pid", Json::UInt(1));
                e.push("tid", Json::UInt(s.tid));
                e.push("args", args);
                e
            })
            .collect();
        let mut doc = Json::obj();
        doc.push("traceEvents", Json::Arr(events));
        doc.push("displayTimeUnit", Json::Str("ms".into()));
        doc
    }

    /// Per span name: (count, total, self) where a span's self time is its
    /// duration minus the part covered by its child spans.
    pub fn self_times(&self) -> BTreeMap<&str, (u64, Duration, Duration)> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.dur;
            }
        }
        let mut out: BTreeMap<&str, (u64, Duration, Duration)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(children) {
            let e = out.entry(s.name.as_str()).or_default();
            e.0 += 1;
            e.1 += s.dur;
            e.2 += s.dur.saturating_sub(child);
        }
        out
    }
}

/// A component call the single-node traced loop times.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Call {
    /// Driver: issue pending requests into the bank input queues.
    Inject,
    /// Driver: drain completions.
    Drain,
    /// Driver: idle check, event horizon, and fast-forward fold.
    Skip,
    /// Bank input queue bookkeeping.
    QueueAdvance,
    /// Bank input queue head hand-off (self time; the callee is timed).
    QueuePop,
    /// `ScatterAddUnit::try_submit`.
    UnitSubmit,
    /// `ScatterAddUnit::pop_to_mem_if` (self time).
    UnitToMem,
    /// `ScatterAddUnit::tick`.
    UnitTick,
    /// `ScatterAddUnit::on_value`.
    UnitValue,
    /// `ScatterAddUnit::pop_ack`.
    UnitAck,
    /// `CacheBank::on_mem_response`.
    BankFill,
    /// `CacheBank::tick`.
    BankTick,
    /// `CacheBank::pop_mem_cmd_if` (self time).
    BankCmd,
    /// `CacheBank::try_access`.
    BankAccess,
    /// `CacheBank::pop_ready`.
    BankReady,
    /// `DramChannel::tick`.
    DramTick,
    /// `DramChannel::can_accept`.
    DramAccept,
    /// `DramChannel::try_submit`.
    DramSubmit,
}

impl Call {
    /// Every call, in table order.
    pub const ALL: [Call; 18] = [
        Call::Inject,
        Call::Drain,
        Call::Skip,
        Call::QueueAdvance,
        Call::QueuePop,
        Call::UnitSubmit,
        Call::UnitToMem,
        Call::UnitTick,
        Call::UnitValue,
        Call::UnitAck,
        Call::BankFill,
        Call::BankTick,
        Call::BankCmd,
        Call::BankAccess,
        Call::BankReady,
        Call::DramTick,
        Call::DramAccept,
        Call::DramSubmit,
    ];

    /// (layer, call) names.
    pub fn names(self) -> (&'static str, &'static str) {
        match self {
            Call::Inject => ("driver", "inject"),
            Call::Drain => ("driver", "drain"),
            Call::Skip => ("driver", "skip"),
            Call::QueueAdvance => ("queue", "advance"),
            Call::QueuePop => ("queue", "pop_if"),
            Call::UnitSubmit => ("unit", "try_submit"),
            Call::UnitToMem => ("unit", "pop_to_mem_if"),
            Call::UnitTick => ("unit", "tick"),
            Call::UnitValue => ("unit", "on_value"),
            Call::UnitAck => ("unit", "pop_ack"),
            Call::BankFill => ("bank", "on_mem_response"),
            Call::BankTick => ("bank", "tick"),
            Call::BankCmd => ("bank", "pop_mem_cmd_if"),
            Call::BankAccess => ("bank", "try_access"),
            Call::BankReady => ("bank", "pop_ready"),
            Call::DramTick => ("dram", "tick"),
            Call::DramAccept => ("dram", "can_accept"),
            Call::DramSubmit => ("dram", "try_submit"),
        }
    }
}

/// Times component calls on sampled cycles only. Off a sampled cycle a
/// timed call is one branch; on one, each call pays two clock reads. Nested
/// calls (a bank access inside the unit's hand-off closure) are charged to
/// the callee, so every total is self time.
#[derive(Debug, Default)]
pub struct CallTimer {
    sampling: Cell<bool>,
    nested: Cell<u64>,
    ns: [Cell<u64>; Call::ALL.len()],
    calls: [Cell<u64>; Call::ALL.len()],
}

impl CallTimer {
    /// Whether calls made from now on are timed.
    pub fn set_sampling(&self, on: bool) {
        self.sampling.set(on);
    }

    /// Run `f` as `call`, timing it when sampling.
    #[inline]
    pub fn time<R>(&self, call: Call, f: impl FnOnce() -> R) -> R {
        if !self.sampling.get() {
            return f();
        }
        let outer = self.nested.replace(0);
        let t0 = Instant::now();
        let r = f();
        let total = t0.elapsed().as_nanos() as u64;
        let inner = self.nested.replace(outer + total);
        let i = call as usize;
        self.ns[i].set(self.ns[i].get() + total.saturating_sub(inner));
        self.calls[i].set(self.calls[i].get() + 1);
        r
    }

    /// Sampled (calls, self ns) of one call.
    pub fn get(&self, call: Call) -> (u64, u64) {
        let i = call as usize;
        (self.calls[i].get(), self.ns[i].get())
    }

    /// Sampled self ns of one call with `bias_ns` (see [`timer_bias_ns`])
    /// taken off every timed call.
    pub fn net_ns(&self, call: Call, bias_ns: f64) -> f64 {
        let (calls, ns) = self.get(call);
        (ns as f64 - calls as f64 * bias_ns).max(0.0)
    }
}

/// What timing an empty call records, in ns: the clock-read cost that
/// every timed call adds to its own total. The lowest of several batch
/// means, so a preempted batch does not inflate it.
pub fn timer_bias_ns() -> f64 {
    (0..7)
        .map(|_| {
            let t = CallTimer::default();
            t.set_sampling(true);
            for _ in 0..10_000 {
                t.time(Call::Inject, || std::hint::black_box(()));
            }
            let (calls, ns) = t.get(Call::Inject);
            ns as f64 / calls as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_spans() {
        let mut spans = Spans::new();
        spans.span("parent", |s| {
            s.span("child", |_| std::thread::sleep(Duration::from_millis(20)));
            std::thread::sleep(Duration::from_millis(5));
        });
        let times = spans.self_times();
        let (n, total, own) = times["parent"];
        let (_, child, _) = times["child"];
        assert_eq!(n, 1);
        assert_eq!(own, total - child);
        assert!(child >= Duration::from_millis(20) && own >= Duration::from_millis(5));
        let doc = spans.chrome_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        let parent_of_child = events[1].get("args").and_then(|a| a.get("parent"));
        assert_eq!(parent_of_child.and_then(Json::as_u64), Some(0));
        assert!(Json::parse(&doc.to_string_compact()).is_ok());
    }

    #[test]
    fn call_timer_charges_nested_calls_to_the_callee() {
        let t = CallTimer::default();
        t.time(Call::UnitTick, || ());
        assert_eq!(t.get(Call::UnitTick), (0, 0), "off cycles are not counted");
        t.set_sampling(true);
        t.time(Call::UnitToMem, || {
            t.time(Call::BankAccess, || {
                std::thread::sleep(Duration::from_millis(10))
            })
        });
        let (outer_calls, outer_ns) = t.get(Call::UnitToMem);
        let (inner_calls, inner_ns) = t.get(Call::BankAccess);
        assert_eq!((outer_calls, inner_calls), (1, 1));
        assert!(inner_ns >= 10_000_000);
        assert!(outer_ns < inner_ns, "the callee's time is not the caller's");
        let bias = timer_bias_ns();
        assert!(bias > 0.0 && bias < 1e6, "{bias}");
        assert_eq!(t.net_ns(Call::BankAccess, bias), inner_ns as f64 - bias);
    }
}
