//! Recovery bench: how fast the supervised `omg-serve` fleet climbs back
//! to full capacity after a worker death, and how much availability the
//! caller-side retry layer preserves under sustained chaos.
//!
//! Two phases, both on real provisioned fleets with the chaos seam
//! installed:
//!
//! 1. **Time to full capacity** — K rounds of: kill one worker of a
//!    two-worker fleet (seq-keyed panic), then measure from the victim
//!    waiter's `WorkerPanicked` verdict until every slot reports `Live`
//!    again (supervisor backoff + re-provisioning through the shared
//!    model cache + restart). Reports the mean in ms and the aggregate
//!    `recoveries_per_s`. Each round also proves the restored fleet
//!    *serves* — and that the replacement's answer is bit-identical to an
//!    untouched reference device.
//! 2. **Availability under chaos** — a query stream with a worker kill
//!    scheduled every 25th admission, submitted through
//!    `submit_with_retry`. Availability is the fraction of queries that
//!    ultimately succeed; the bench asserts it stays ≥ 0.95 (the retry
//!    layer's whole claim: transient deaths are not caller-visible
//!    outages).
//!
//! The harness records the results as JSON in
//! `target/bench-json/recovery.json` and `trajectory.jsonl`;
//! `availability` and `recoveries_per_s` are watched by the `bench_check`
//! regression gate. Run with `--quick` for the CI smoke mode.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use omg_bench::harness::{self, await_full_capacity};
use omg_bench::{cached_tiny_conv, paper_test_subset, ModelKind};
use omg_core::session::provision_devices;
use omg_serve::fault::{FaultPlan, QueryFault};
use omg_serve::{FleetHealth, RestartPolicy, RetryPolicy, ServeConfig, ServeError, ServeHandle};

/// Every 25th admission dies in the chaos phase.
const KILL_EVERY: u64 = 25;

fn bench_restart_policy() -> RestartPolicy {
    RestartPolicy {
        backoff_initial: Duration::from_millis(1),
        backoff_max: Duration::from_millis(8),
        max_restarts: u32::MAX,
        crash_loop_threshold: 3,
        // Spaced kills are isolated incidents, never a crash loop.
        stable_after: Duration::ZERO,
    }
}

struct RecoveryResult {
    mean_recovery: Duration,
    recoveries_per_s: f64,
}

/// Phase 1: K kill-recover rounds on a two-worker supervised fleet.
fn run_recovery_rounds(rounds: usize, samples: &[i16], seed: u64) -> RecoveryResult {
    let model = cached_tiny_conv(ModelKind::Fast);
    // Ground truth for the bit-identical-replacement check.
    let mut reference = provision_devices(1, "kws", model.clone(), seed ^ 0x5245_4600)
        .expect("reference device")
        .pop()
        .expect("one device");
    let expected = reference
        .classify_utterance(samples)
        .expect("reference classification");

    let plan = Arc::new(FaultPlan::new());
    let handle = ServeHandle::provision(
        2,
        ServeConfig {
            queue_capacity: 16,
            faults: Some(Arc::clone(&plan)),
            restart: Some(bench_restart_policy()),
            ..ServeConfig::default()
        },
        "kws",
        model,
        seed,
    )
    .expect("provision supervised fleet");
    harness::watch(&handle);

    let mut seq = 0u64;
    let mut total_recovery = Duration::ZERO;
    for round in 0..rounds {
        plan.fault_query(seq, QueryFault::WorkerPanic);
        let doomed = handle.submit(samples).expect("admit doomed query");
        seq += 1;
        assert_eq!(doomed.wait(), Err(ServeError::WorkerPanicked));
        // The clock starts at the caller-visible death and stops when the
        // supervisor has the replacement slot live again.
        total_recovery += await_full_capacity(&handle, round as u64 + 1);
        // The restored fleet serves, and the answer (whichever slot takes
        // it) is bit-identical to the reference device's.
        let t = handle
            .submit(samples)
            .expect("admit probe")
            .wait()
            .expect("probe completes");
        seq += 1;
        assert_eq!(t.class_index, expected.class_index);
        assert_eq!(t.label, expected.label);
    }
    assert_eq!(handle.health(), FleetHealth::Healthy);
    let drained = handle.drain();
    assert!(drained.is_healthy(), "{:?}", drained.worker_errors);
    assert_eq!(drained.stats.restarts, rounds as u64);
    assert_eq!(drained.stats.quarantined, 0);
    assert_eq!(drained.devices.len(), 2, "capacity must converge");

    RecoveryResult {
        mean_recovery: total_recovery / rounds as u32,
        recoveries_per_s: rounds as f64 / total_recovery.as_secs_f64().max(1e-12),
    }
}

struct ChaosResult {
    queries: usize,
    kills: u64,
    successes: u64,
    availability: f64,
    retried: u64,
    restarts: u64,
    host_qps: f64,
}

/// Phase 2: a sustained stream with a kill every [`KILL_EVERY`] admissions,
/// ridden out by `submit_with_retry`.
fn run_chaos_stream(workload: &[&[i16]], seed: u64) -> ChaosResult {
    let model = cached_tiny_conv(ModelKind::Fast);
    let plan = Arc::new(FaultPlan::new());
    // Kills keyed on admission sequence: submissions are sequential here,
    // so every scheduled seq below the query count is reached (retries
    // consume seqs *between* the scheduled kills, never displacing them
    // below the last one).
    let mut kills = 0u64;
    let mut s = 0u64;
    while s < workload.len() as u64 {
        plan.fault_query(s, QueryFault::WorkerPanic);
        kills += 1;
        s += KILL_EVERY;
    }
    let handle = ServeHandle::provision(
        2,
        ServeConfig {
            queue_capacity: 16,
            faults: Some(Arc::clone(&plan)),
            restart: Some(bench_restart_policy()),
            ..ServeConfig::default()
        },
        "kws",
        model,
        seed,
    )
    .expect("provision chaos fleet");
    harness::watch(&handle);
    let retry = RetryPolicy {
        max_attempts: 6,
        backoff_initial: Duration::from_millis(1),
        backoff_max: Duration::from_millis(20),
        budget: Duration::from_secs(10),
        jitter_seed: seed,
    };

    let start = Instant::now();
    let mut successes = 0u64;
    for &samples in workload {
        match handle.submit_with_retry(samples, &retry) {
            Ok(t) => {
                assert!(!t.label.is_empty());
                successes += 1;
            }
            Err(e) => assert!(e.is_retryable(), "non-retryable failure under chaos: {e}"),
        }
    }
    let elapsed = start.elapsed();
    // Let the last kill's restart settle so drain sees converged capacity.
    await_full_capacity(&handle, kills);
    let drained = handle.drain();
    assert!(drained.is_healthy(), "{:?}", drained.worker_errors);
    assert_eq!(drained.stats.restarts, kills, "every kill restarted");
    assert_eq!(drained.stats.quarantined, 0, "no crash-loop misfire");
    assert_eq!(drained.devices.len(), 2);
    assert!(drained.stats.retried >= kills, "each kill forced a retry");

    ChaosResult {
        queries: workload.len(),
        kills,
        successes,
        availability: successes as f64 / workload.len() as f64,
        retried: drained.stats.retried,
        restarts: drained.stats.restarts,
        host_qps: workload.len() as f64 / elapsed.as_secs_f64().max(1e-12),
    }
}

fn main() {
    harness::run("recovery", bench);
}

fn bench(quick: bool) -> String {
    let rounds = if quick { 3 } else { 8 };
    let queries = if quick { 120 } else { 600 };
    let eval = paper_test_subset(1);
    let workload: Vec<&[i16]> = (0..queries)
        .map(|i| eval.utterances[i % eval.utterances.len()].as_slice())
        .collect();

    println!(
        "== OMG self-healing recovery ({rounds} kill rounds, {queries} chaos queries{}) ==",
        if quick { ", --quick" } else { "" }
    );

    let recovery = run_recovery_rounds(rounds, workload[0], 9000);
    println!(
        "time to full capacity: {:.2} ms mean over {rounds} kills ({:.1} recoveries/s)",
        recovery.mean_recovery.as_secs_f64() * 1e3,
        recovery.recoveries_per_s,
    );

    let chaos = run_chaos_stream(&workload, 9100);
    println!(
        "chaos stream: {}/{} served through {} kills ({} retries, {} restarts) \
         — availability {:.4} at {:.1} q/s host",
        chaos.successes,
        chaos.queries,
        chaos.kills,
        chaos.retried,
        chaos.restarts,
        chaos.availability,
        chaos.host_qps,
    );

    // The headline claim, asserted so it stays regression-checked: with
    // supervision + caller retries, sustained worker deaths cost < 5% of
    // availability.
    assert!(
        chaos.availability >= 0.95,
        "availability {:.4} under chaos fell below 0.95",
        chaos.availability
    );
    println!(
        "PASS: availability {:.4} >= 0.95, capacity converged after every kill",
        chaos.availability
    );

    // --- JSON trajectory ---------------------------------------------------
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"bench\":\"recovery\",\"quick\":{quick},\"rounds\":{rounds},\
         \"time_to_full_capacity_ms\":{:.3},\"recoveries_per_s\":{:.2},\
         \"chaos_queries\":{},\"kills\":{},\"retried\":{},\"restarts\":{},\
         \"availability\":{:.4},\"chaos_host_qps\":{:.1}}}",
        recovery.mean_recovery.as_secs_f64() * 1e3,
        recovery.recoveries_per_s,
        chaos.queries,
        chaos.kills,
        chaos.retried,
        chaos.restarts,
        chaos.availability,
        chaos.host_qps,
    );
    json
}
