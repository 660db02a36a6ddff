//! The harness every gated bench (`serving`, `provisioning`, `kernels`,
//! `recovery`, `hang_recovery`) runs under.
//!
//! A bench's `main` is `harness::run("<bench>", bench)`: `bench` gets the
//! `--quick` flag (the CI smoke mode) and returns its finished JSON
//! record, in whatever shape its [`crate::regression::WATCHED_METRICS`]
//! keys need. The harness writes that record to `<dir>/<bench>.json` and
//! appends it as one line to `<dir>/trajectory.jsonl`, where `<dir>` is
//! `target/bench-json/` unless `OMG_BENCH_DIR` names another directory.
//! While the bench runs, a panic on its thread first dumps the trace tail
//! of the fleet registered with [`watch`] and the global metrics.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use omg_obs::FlightRecorder;
use omg_serve::{ServeHandle, WorkerHealth};

/// How long a fleet may take to settle (every slot `Live` again, every
/// expected event counted) before a bench declares the supervisor stuck:
/// generous against CI jitter, tiny against a real hang.
pub const RECOVERY_TIMEOUT: Duration = Duration::from_secs(10);

/// The flight recorder of the fleet under measurement, for the panic hook.
static WATCHED: Mutex<Option<Arc<FlightRecorder>>> = Mutex::new(None);

/// Runs one gated bench: installs the post-mortem panic hook, calls
/// `bench` with whether `--quick` was passed, and records the JSON it
/// returns under `name`.
///
/// # Panics
///
/// Propagates the bench's panics; panics with the path if the record
/// cannot be written, so a lost record fails the bench that ran instead
/// of a later `bench_check`.
pub fn run(name: &str, bench: impl FnOnce(bool) -> String) {
    install_panic_hook(name);
    let quick = std::env::args().any(|a| a == "--quick");
    let json = bench(quick);
    let dir = out_dir(std::env::var("OMG_BENCH_DIR").ok().as_deref());
    println!("bench JSON: {}", record(&dir, name, &json).display());
}

/// Registers `handle`'s flight recorder (if it has one) as the trace the
/// panic hook dumps.
pub fn watch(handle: &ServeHandle) {
    *WATCHED.lock().unwrap_or_else(PoisonError::into_inner) = handle.recorder();
}

/// Dumps the watched fleet's trace tail and the global metrics before the
/// default panic output. Only the bench's own thread dumps: the chaos
/// benches panic serving workers on purpose, and those panics reach the
/// bench as verdicts it checks.
fn install_panic_hook(name: &str) {
    let name = name.to_owned();
    let bench_thread = std::thread::current().id();
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if std::thread::current().id() == bench_thread {
            let watched = WATCHED.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(recorder) = watched.as_ref() {
                eprintln!("=== {name} bench post-mortem ===");
                eprintln!("{}", recorder.snapshot().render_tail(40));
                eprintln!("global metrics: {}", omg_obs::global().render_json());
            }
        }
        default(info);
    }));
}

/// Best-of-`reps` time for `iters` back-to-back runs of `f`, per
/// iteration (minimum-of-batches, the standard noise-resistant estimator
/// for microbenchmarks).
pub fn best_per_iter(reps: usize, iters: usize, mut f: impl FnMut()) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed());
    }
    best / iters as u32
}

/// Polls until the fleet has counted at least `min_restarts` restarts and
/// every slot is `Live` again; returns the wait. The restart count is
/// checked first: a hung query's `Hung` verdict lands before the watchdog
/// flips its slot out of `Live`, so an all-`Live` read alone could race
/// ahead of the preemption it is waiting out (the counter is bumped while
/// the slot still reads `Restarting`).
///
/// # Panics
///
/// If the fleet does not settle within [`RECOVERY_TIMEOUT`].
pub fn await_full_capacity(handle: &ServeHandle, min_restarts: u64) -> Duration {
    let start = Instant::now();
    loop {
        if handle.stats().restarts >= min_restarts
            && handle
                .worker_health()
                .iter()
                .all(|h| *h == WorkerHealth::Live)
        {
            return start.elapsed();
        }
        assert!(
            start.elapsed() < RECOVERY_TIMEOUT,
            "fleet never returned to full capacity: {:?} ({}/{min_restarts} restarts)",
            handle.worker_health(),
            handle.stats().restarts,
        );
        std::thread::yield_now();
    }
}

/// The record directory for an `OMG_BENCH_DIR` value: unset or empty
/// gives `<workspace>/target/bench-json`. Bench binaries run with the
/// package as their working directory, so a relative path is anchored at
/// the workspace root (CI sets `target/bench-json-portable` and reads it
/// from the checkout root); an absolute path is used as given.
fn out_dir(setting: Option<&str>) -> PathBuf {
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    match setting {
        // `join` keeps an absolute path as it is.
        Some(dir) if !dir.is_empty() => workspace.join(dir),
        _ => workspace.join("target/bench-json"),
    }
}

/// Writes `json` to `<dir>/<bench>.json` and appends it as one line to
/// `<dir>/trajectory.jsonl`, creating `dir` if needed; returns the first
/// path.
fn record(dir: &Path, bench: &str, json: &str) -> PathBuf {
    let fail = |path: &Path, e: std::io::Error| -> ! {
        panic!("cannot write bench record {}: {e}", path.display())
    };
    std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(dir, e));
    let latest = dir.join(format!("{bench}.json"));
    std::fs::write(&latest, json).unwrap_or_else(|e| fail(&latest, e));
    let trajectory = dir.join("trajectory.jsonl");
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(&trajectory)
        .and_then(|mut file| file.write_all(format!("{json}\n").as_bytes()))
        .unwrap_or_else(|e| fail(&trajectory, e));
    latest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_dir_defaults_to_target_and_anchors_relative_paths() {
        let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let default = workspace.join("target/bench-json");
        assert_eq!(out_dir(None), default);
        assert_eq!(out_dir(Some("")), default);
        assert_eq!(
            out_dir(Some("target/bench-json-portable")),
            workspace.join("target/bench-json-portable")
        );
        let absolute = std::env::temp_dir().join("omg-bench-json");
        assert!(absolute.is_absolute());
        assert_eq!(out_dir(absolute.to_str()), absolute);
    }

    #[test]
    fn record_keeps_the_latest_run_and_appends_the_trajectory() {
        let dir = std::env::temp_dir().join(format!("omg-bench-harness-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let latest = record(&dir, "demo", r#"{"run":1}"#);
        assert_eq!(record(&dir, "demo", r#"{"run":2}"#), latest);
        assert_eq!(latest, dir.join("demo.json"));
        assert_eq!(std::fs::read_to_string(&latest).unwrap(), r#"{"run":2}"#);
        let trajectory = std::fs::read_to_string(dir.join("trajectory.jsonl")).unwrap();
        assert_eq!(
            trajectory.lines().collect::<Vec<_>>(),
            [r#"{"run":1}"#, r#"{"run":2}"#]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "cannot write bench record")]
    fn record_fails_loudly_when_the_directory_cannot_be_made() {
        // The test binary is a file, so no directory can be made there.
        let file = std::env::current_exe().unwrap();
        record(&file, "demo", "{}");
    }
}
