//! Provisioning bench: the cold-start counterpart to the `serving` bench.
//!
//! Measures the sealed-model → serving pipeline end to end and
//! regression-asserts the OMGM v2 zero-copy load claims:
//!
//! 1. **v2 cold load is ≥ 2× faster than v1** — `deserialize` +
//!    `Interpreter::new` on the legacy copying container vs the aligned
//!    zero-copy container;
//! 2. **`Interpreter::new` on a v2 model performs no tensor-data
//!    allocations** — verified with a byte-counting global allocator
//!    (allocation during construction stays within the activation arena +
//!    fixed slack, independent of weight size) and with
//!    `decoded_bias_bytes() == 0`;
//! 3. **N-device provisioning reuses one shared decrypted image** —
//!    `ModelCache::hits() == N - 1` and every device's model
//!    `shares_storage_with` the first, so fleet weight memory is 1×, not
//!    N×.
//!
//! It also reports cold seal→serve time and the per-device incremental
//! provisioning cost at 1/2/4/8 devices; the harness records the numbers
//! as JSON in `target/bench-json/provisioning.json` and the shared
//! `trajectory.jsonl`, which CI diffs against the committed baseline
//! (`crates/omg-bench/baselines/`) via the `bench_check` binary. Run with
//! `--quick` for the CI smoke mode.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use omg_bench::harness::{self, best_per_iter};
use omg_bench::{cached_tiny_conv, paper_test_subset, ModelKind};
use omg_core::session::{provision_devices_with_cache, ModelCache};
use omg_nn::{format, Interpreter, ModelBuf};

struct CountingAllocator;

static ALLOCATED_BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

struct ConfigResult {
    devices: usize,
    total: Duration,
    incremental: Duration,
    cache_hits: u64,
}

fn main() {
    harness::run("provisioning", bench);
}

fn bench(quick: bool) -> String {
    let model = cached_tiny_conv(ModelKind::Fast);
    let weight_bytes = model.weight_bytes();
    println!(
        "== OMG provisioning ({} kB model{}) ==",
        weight_bytes / 1000,
        if quick { ", --quick" } else { "" }
    );

    // ---- claim 1: v2 cold load >= 2x v1 ---------------------------------
    let v1_blob = format::serialize_v1(&model);
    let v2_blob = format::serialize(&model);
    let v2_image = ModelBuf::copy_from_slice(&v2_blob);
    let (reps, iters) = if quick { (5, 100) } else { (10, 300) };

    let mut sink = 0usize;
    let v1_load = best_per_iter(reps, iters, || {
        let m = format::deserialize(&v1_blob).expect("v1 deserialize");
        let interp = Interpreter::new(m).expect("interpreter");
        sink = sink.wrapping_add(interp.arena_size());
    });
    let v2_load = best_per_iter(reps, iters, || {
        let m = format::deserialize_shared(v2_image.clone()).expect("v2 deserialize");
        let interp = Interpreter::new(m).expect("interpreter");
        sink = sink.wrapping_add(interp.arena_size());
    });
    assert!(sink > 0);
    let ratio = v1_load.as_secs_f64() / v2_load.as_secs_f64();
    let v2_loads_per_s = 1.0 / v2_load.as_secs_f64().max(1e-12);
    println!(
        "cold load: v1 {:.1} us, v2 {:.1} us ({ratio:.2}x faster, {:.0} loads/s)",
        v1_load.as_secs_f64() * 1e6,
        v2_load.as_secs_f64() * 1e6,
        v2_loads_per_s,
    );
    assert!(
        ratio >= 2.0,
        "v2 load ({v2_load:?}) must be >= 2x faster than v1 ({v1_load:?}), got {ratio:.2}x"
    );

    // ---- claim 2: Interpreter::new copies no tensor data on v2 ----------
    let m = format::deserialize_shared(v2_image.clone()).expect("v2 deserialize");
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let interp = Interpreter::new(m).expect("interpreter");
    let ctor_bytes = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
    let budget = interp.arena_size() + 16 * 1024;
    println!(
        "Interpreter::new on v2: {ctor_bytes} bytes allocated \
         (arena {} + slack allowed; {weight_bytes}-byte weights untouched)",
        interp.arena_size()
    );
    assert!(
        ctor_bytes <= budget,
        "Interpreter::new allocated {ctor_bytes} bytes (> arena {} + 16 KiB): \
         tensor data was copied",
        interp.arena_size()
    );
    assert_eq!(
        interp.decoded_bias_bytes(),
        0,
        "v2 biases must be borrowed in place, not decoded into a pool"
    );
    drop(interp);

    // ---- cold seal -> serve + per-device incremental cost ---------------
    let eval = paper_test_subset(1);
    let samples = eval.utterances[0].as_slice();
    let device_counts: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };

    // Cold seal->serve: full protocol for one device plus the first query.
    let cold_start = Instant::now();
    let mut cache = ModelCache::new();
    let mut cold_devices = provision_devices_with_cache(1, "kws", model.clone(), 8000, &mut cache)
        .expect("cold provision");
    cold_devices[0]
        .classify_utterance(samples)
        .expect("first query");
    let cold_serve = cold_start.elapsed();
    println!(
        "cold seal->serve (1 device + first query): {:.1} ms",
        cold_serve.as_secs_f64() * 1e3
    );
    drop(cold_devices);

    let mut results = Vec::new();
    let mut single_total = Duration::ZERO;
    for (i, &n) in device_counts.iter().enumerate() {
        let mut cache = ModelCache::new();
        let start = Instant::now();
        let devices =
            provision_devices_with_cache(n, "kws", model.clone(), 8100 + i as u64 * 10, &mut cache)
                .expect("provision fleet");
        let total = start.elapsed();

        // ---- claim 3: one shared decrypted image across the fleet -------
        assert_eq!(
            cache.hits(),
            n as u64 - 1,
            "{n}-device provisioning must reuse the first device's decode"
        );
        let first = devices[0].model().expect("initialized device");
        for d in &devices[1..] {
            assert!(
                first.shares_storage_with(d.model().expect("initialized device")),
                "fleet devices must share one decrypted image"
            );
        }

        if n == 1 {
            single_total = total;
        }
        let incremental = if n > 1 {
            total.saturating_sub(single_total) / (n as u32 - 1)
        } else {
            Duration::ZERO
        };
        println!(
            "{n} device{}: total {:>7.1} ms, per-extra-device {:>7.1} ms, cache hits {}",
            if n == 1 { " " } else { "s" },
            total.as_secs_f64() * 1e3,
            incremental.as_secs_f64() * 1e3,
            cache.hits(),
        );
        results.push(ConfigResult {
            devices: n,
            total,
            incremental,
            cache_hits: cache.hits(),
        });
    }

    println!(
        "PASS: v2 load {ratio:.2}x v1, zero tensor-data allocation in Interpreter::new, \
         fleet shares one decrypted image"
    );

    // ---- JSON trajectory -------------------------------------------------
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"bench\":\"provisioning\",\"quick\":{quick},\"weight_bytes\":{weight_bytes},\
         \"v1_load_us\":{:.2},\"v2_load_us\":{:.2},\"v2_v1_load_ratio\":{ratio:.3},\
         \"v2_loads_per_s\":{v2_loads_per_s:.0},\"ctor_alloc_bytes\":{ctor_bytes},\
         \"cold_serve_ms\":{:.2},\"configs\":[",
        v1_load.as_secs_f64() * 1e6,
        v2_load.as_secs_f64() * 1e6,
        cold_serve.as_secs_f64() * 1e3,
    );
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            json,
            "{}{{\"devices\":{},\"total_ms\":{:.2},\"incremental_ms\":{:.2},\"cache_hits\":{}}}",
            if i > 0 { "," } else { "" },
            r.devices,
            r.total.as_secs_f64() * 1e3,
            r.incremental.as_secs_f64() * 1e3,
            r.cache_hits,
        );
    }
    json.push_str("]}");
    json
}
