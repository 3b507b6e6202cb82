//! Deterministic parallel sweep executor for the figure/ablation binaries.
//!
//! The paper's evaluation is a sweep over independent simulator
//! configurations, so the binaries fan the simulations out over a pool of
//! scoped threads and keep everything observable strictly ordered: workers
//! only *compute*, and [`map_jobs`] hands the results back in item order so
//! the caller prints rows and records telemetry exactly as a serial run
//! would. Combined with the `BTreeMap`-backed metrics registry this makes
//! the sa-stats document byte-identical for any `--jobs` value (the
//! determinism contract in `docs/PARALLELISM.md`).
//!
//! Binaries sweep through [`BenchRun::map`](crate::telemetry::BenchRun::map),
//! which takes the worker count from the parsed command line: `--jobs N`,
//! else the `SA_JOBS` environment variable, else every available core
//! ([`resolve_jobs`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use sa_telemetry::Progress;

/// The number of available cores (the default worker count).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolve the sweep width from an already-parsed `--jobs` value (0 when
/// absent): the flag beats `SA_JOBS=N` beats [`default_jobs`]. Zero and
/// unparsable values fall through to the next source, so a sweep can never
/// run with zero workers.
pub fn resolve_jobs(flag: usize) -> usize {
    if flag > 0 {
        return flag;
    }
    if let Some(v) = std::env::var_os("SA_JOBS") {
        if let Ok(n) = v.to_string_lossy().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    default_jobs()
}

/// Run `f` over every item on `jobs` worker threads and return the results
/// in item order, reporting each finished item to `progress` as a `point`
/// event.
///
/// Items are claimed from a shared cursor, so threads stay busy even when
/// per-item cost varies wildly (a sweep mixes tiny and huge configs). With
/// one job — or one item — this degenerates to a plain serial map with no
/// threads spawned. `f` must not print or otherwise observe ordering; do
/// that with the returned values.
pub fn map_jobs<T, R, F>(jobs: usize, progress: &Progress, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    // Sweep-point progress: announce the batch, report each completion.
    // Events go to the nondeterministic progress channel only — the result
    // vector (and therefore every stats byte) is untouched.
    progress.add_points(n as u64);
    let point_done = |i: usize| {
        if progress.is_on() {
            progress.point_done(&format!("sweep[{i}]"));
        }
    };
    if jobs <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let out = f(t);
                point_done(i);
                out
            })
            .collect();
    }
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..jobs.min(n) {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work[i]
                    .lock()
                    .expect("work slot")
                    .take()
                    .expect("each work item claimed once");
                let out = f(item);
                *slots[i].lock().expect("result slot") = Some(out);
                point_done(i);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("workers joined")
                .expect("every item produced a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order() {
        let items: Vec<u64> = (0..64).collect();
        let serial = map_jobs(1, &Progress::off(), items.clone(), |x| x * x);
        for jobs in [2, 4, 64, 1000] {
            assert_eq!(
                map_jobs(jobs, &Progress::off(), items.clone(), |x| x * x),
                serial
            );
        }
    }

    #[test]
    fn uneven_work_still_ordered() {
        // Make early items slow so later items finish first.
        let items: Vec<u64> = (0..16).collect();
        let out = map_jobs(8, &Progress::off(), items, |x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x + 1
        });
        assert_eq!(out, (1..=16).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(
            map_jobs::<u64, u64, _>(8, &Progress::off(), vec![], |x| x),
            vec![]
        );
        assert_eq!(map_jobs(8, &Progress::off(), vec![7u64], |x| x), vec![7]);
    }

    #[test]
    fn each_item_is_reported_to_the_progress_sink() {
        struct Sink(std::sync::Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Sink {
            fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(bytes);
                Ok(bytes.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let out = std::sync::Arc::new(Mutex::new(Vec::new()));
        let progress = Progress::to_writer(Box::new(Sink(std::sync::Arc::clone(&out))));
        map_jobs(2, &progress, (0..5u64).collect(), |x| x);
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        assert_eq!(text.matches("\"kind\":\"point\"").count(), 5, "{text}");
        assert!(text.contains("\"done\":5,\"total\":5"), "{text}");
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn resolve_jobs_zero_falls_through() {
        // `--jobs 0` must behave exactly like no flag at all (regression:
        // it used to return 0 and starve the sweep of workers).
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
    }
}
