//! Serving bench: throughput and tail latency of the `omg-serve`
//! concurrent runtime at 1/2/4/8 workers over the same workload.
//!
//! Each configuration provisions its own fleet, fires the workload through
//! the bounded queue (spinning politely on backpressure), and reports:
//!
//! * **virtual throughput** — queries / busiest-device virtual time (the
//!   fleet's makespan). Devices model independent hardware and the
//!   virtual clock charges each device only the CPU its own computation
//!   consumed, so this is the scaling a real N-device install base would
//!   see even when the bench host has fewer cores than workers;
//! * **host throughput** — wall-clock queries/sec on this machine, for
//!   reference (bounded by the host's core count);
//! * **p50/p95/p99** — submit-to-completion latency from the runtime's
//!   log-scale histogram.
//!
//! Two perf claims are *asserted* so they stay regression-checked:
//!
//! 1. 4 workers deliver ≥ 1.5× the virtual throughput of 1 worker;
//! 2. the bounded queue rejects (`Overloaded`) under saturation while
//!    every accepted query still completes, and p99 stays under a bound
//!    derived from the queue depth and the single-query service time (a
//!    bounded queue means bounded waiting — no unbounded queueing delay).
//!
//! The harness records the results as JSON in
//! `target/bench-json/serving.json` (latest run) and
//! `target/bench-json/trajectory.jsonl` (one line per run), forming the
//! bench trajectory CI records. Run with `--quick` for the CI smoke mode.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use omg_bench::{cached_tiny_conv, harness, paper_test_subset, ModelKind};
use omg_core::session::provision_devices;
use omg_serve::{ServeConfig, ServeError, ServeHandle};

const QUEUE_CAPACITY: usize = 32;

struct ConfigResult {
    workers: usize,
    virtual_qps: f64,
    host_qps: f64,
    p50: Duration,
    p95: Duration,
    p99: Duration,
    completed: u64,
}

fn run_config(
    workers: usize,
    workload: &[&[i16]],
    seed: u64,
    slo: Duration,
    recorder_capacity: usize,
) -> ConfigResult {
    let model = cached_tiny_conv(ModelKind::Fast);
    let devices = provision_devices(workers, "kws", model, seed).expect("provision devices");
    // Snapshot each device's virtual clock before serving; the clocks are
    // shared handles, so the deltas survive the runtime.
    let clocks: Vec<_> = devices.iter().map(|d| d.clock()).collect();
    let before: Vec<Duration> = clocks.iter().map(|c| c.now()).collect();

    let handle = ServeHandle::start(
        devices,
        ServeConfig {
            queue_capacity: QUEUE_CAPACITY,
            slo: Some(slo),
            recorder_capacity: Some(recorder_capacity),
            ..ServeConfig::default()
        },
    )
    .expect("start serving fleet");
    harness::watch(&handle);

    let start = Instant::now();
    let mut pending = Vec::with_capacity(workload.len());
    for &samples in workload {
        // Backpressure-aware submission: a saturated queue asks us to back
        // off, so yield and retry rather than drop the query.
        loop {
            match handle.submit(samples) {
                Ok(p) => {
                    pending.push(p);
                    break;
                }
                Err(ServeError::Overloaded) => std::thread::yield_now(),
                Err(e) => panic!("submit failed: {e}"),
            }
        }
    }
    for p in pending {
        p.wait().expect("query must complete");
    }
    let host_elapsed = start.elapsed();
    let stats = handle.stats();
    let drained = handle.drain();
    assert!(drained.is_healthy(), "{:?}", drained.worker_errors);
    assert!(
        drained
            .devices
            .iter()
            .all(|d| d.interpreter_arena_scrubbed() == Some(true)),
        "drain left an unscrubbed arena"
    );

    // Makespan: devices run concurrently in the modeled deployment, so the
    // fleet is done when its busiest device is done.
    let makespan = clocks
        .iter()
        .zip(&before)
        .map(|(c, &b)| c.now() - b)
        .max()
        .unwrap_or(Duration::ZERO);

    ConfigResult {
        workers,
        virtual_qps: workload.len() as f64 / makespan.as_secs_f64().max(1e-12),
        host_qps: workload.len() as f64 / host_elapsed.as_secs_f64().max(1e-12),
        p50: stats.p50,
        p95: stats.p95,
        p99: stats.p99,
        completed: stats.completed,
    }
}

/// Mean submit-to-completion time of sequential single-worker queries —
/// the service-time yardstick for the p99 bound.
fn single_query_baseline(workload: &[&[i16]]) -> Duration {
    let model = cached_tiny_conv(ModelKind::Fast);
    let handle = ServeHandle::provision(1, ServeConfig::default(), "kws", model, 5000)
        .expect("provision baseline");
    let probe = workload.len().min(10);
    let start = Instant::now();
    for &samples in &workload[..probe] {
        handle.submit(samples).unwrap().wait().unwrap();
    }
    let mean = start.elapsed() / probe as u32;
    assert!(handle.drain().is_healthy());
    mean
}

fn main() {
    harness::run("serving", bench);
}

fn bench(quick: bool) -> String {
    let worker_counts: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let queries = if quick { 96 } else { 240 };
    let eval = paper_test_subset(if quick { 1 } else { 3 });
    let workload: Vec<&[i16]> = (0..queries)
        .map(|i| eval.utterances[i % eval.utterances.len()].as_slice())
        .collect();

    println!(
        "== OMG concurrent serving ({queries} queries{}) ==",
        if quick { ", --quick" } else { "" }
    );

    // Warm the model cache and measure the single-query yardstick before
    // any timed configuration runs.
    let baseline = single_query_baseline(&workload);
    // A query admitted to a 32-entry queue waits behind at most 32 others;
    // generous 4x slack on top covers host scheduling jitter.
    let p99_bound = baseline * ((QUEUE_CAPACITY as u32 + 2) * 4);
    println!(
        "single-query baseline: {:.2} ms (p99 bound {:.0} ms)",
        baseline.as_secs_f64() * 1e3,
        p99_bound.as_secs_f64() * 1e3,
    );

    let mut results = Vec::new();
    for (i, &workers) in worker_counts.iter().enumerate() {
        // Recorder on: the measured configuration is the observable one.
        let r = run_config(workers, &workload, 6000 + i as u64 * 100, p99_bound, 1024);
        println!(
            "{} worker{}: {:>8.1} q/s virtual ({:>7.1} q/s host)  \
             p50 {:>7.2} ms  p95 {:>7.2} ms  p99 {:>7.2} ms",
            r.workers,
            if r.workers == 1 { " " } else { "s" },
            r.virtual_qps,
            r.host_qps,
            r.p50.as_secs_f64() * 1e3,
            r.p95.as_secs_f64() * 1e3,
            r.p99.as_secs_f64() * 1e3,
        );
        assert_eq!(r.completed, queries as u64);
        results.push(r);
    }

    // --- backpressure: a saturated bounded queue must reject --------------
    let model = cached_tiny_conv(ModelKind::Fast);
    let handle = ServeHandle::provision(
        1,
        ServeConfig {
            queue_capacity: 4,
            ..ServeConfig::default()
        },
        "kws",
        model,
        7000,
    )
    .expect("provision saturation fleet");
    harness::watch(&handle);
    let burst = 200;
    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    for i in 0..burst {
        match handle.submit(workload[i % workload.len()]) {
            Ok(p) => accepted.push(p),
            Err(ServeError::Overloaded) => rejected += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    for p in accepted {
        p.wait().expect("accepted queries complete");
    }
    let sat = handle.drain();
    assert!(sat.is_healthy(), "{:?}", sat.worker_errors);
    println!(
        "backpressure: {rejected} of {burst} burst submits rejected by the 4-slot queue, {} served",
        sat.stats.completed
    );

    // --- flight-recorder overhead guard ------------------------------------
    //
    // The recorder's whole design brief is "cheap enough to leave on":
    // measure host throughput with the recorder enabled vs disabled on the
    // same workload and demand the ratio stays within 5%. Host-clock noise
    // can dominate a single pair on a busy machine, so take the best of a
    // few bounded attempts before failing.
    let mut recorder_overhead = 0.0f64;
    for attempt in 0..3u64 {
        let on = run_config(2, &workload, 8000 + attempt * 10, p99_bound, 1024);
        let off = run_config(2, &workload, 8500 + attempt * 10, p99_bound, 0);
        recorder_overhead = recorder_overhead.max(on.host_qps / off.host_qps);
        if recorder_overhead >= 0.95 {
            break;
        }
    }
    println!(
        "recorder overhead: enabled/disabled host throughput ratio {recorder_overhead:.3} \
         (>= 0.95 required)"
    );
    assert!(
        recorder_overhead >= 0.95,
        "flight recorder costs more than 5% of throughput: \
         enabled/disabled ratio {recorder_overhead:.3}"
    );

    // --- regression-checked claims ----------------------------------------
    let single = results
        .iter()
        .find(|r| r.workers == 1)
        .expect("1-worker run");
    let quad = results
        .iter()
        .find(|r| r.workers == 4)
        .expect("4-worker run");
    let speedup = quad.virtual_qps / single.virtual_qps;
    assert!(
        speedup >= 1.5,
        "4 workers ({:.1} q/s) must be >= 1.5x 1 worker ({:.1} q/s), got {speedup:.2}x",
        quad.virtual_qps,
        single.virtual_qps
    );
    for r in &results {
        assert!(
            r.p99 <= p99_bound,
            "{} workers: p99 {:?} exceeds bound {:?} — queueing is not bounded",
            r.workers,
            r.p99,
            p99_bound
        );
    }
    assert!(
        rejected > 0,
        "a {burst}-submit burst never saturated a 4-slot queue: backpressure is broken"
    );
    assert_eq!(sat.stats.completed + rejected, burst as u64);
    println!("PASS: 4-worker speedup {speedup:.2}x, p99 bounded, queue rejects when saturated");

    // --- JSON trajectory ---------------------------------------------------
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"bench\":\"serving\",\"quick\":{quick},\"queries\":{queries},\
         \"baseline_ms\":{:.3},\"speedup_4v1\":{speedup:.3},\
         \"recorder_overhead\":{recorder_overhead:.3},\
         \"backpressure_rejected\":{rejected},\"configs\":[",
        baseline.as_secs_f64() * 1e3
    );
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            json,
            "{}{{\"workers\":{},\"virtual_qps\":{:.1},\"host_qps\":{:.1},\
             \"p50_ms\":{:.3},\"p95_ms\":{:.3},\"p99_ms\":{:.3}}}",
            if i > 0 { "," } else { "" },
            r.workers,
            r.virtual_qps,
            r.host_qps,
            r.p50.as_secs_f64() * 1e3,
            r.p95.as_secs_f64() * 1e3,
            r.p99.as_secs_f64() * 1e3,
        );
    }
    json.push_str("]}");
    json
}
