//! Verifies the zero-copy execution engine's core claims:
//!
//! * after construction, `invoke`, `classify`, and `scrub` perform
//!   **zero heap allocations** — no `Step` clones, no decoded weight
//!   copies, no scratch buffers;
//! * `Interpreter::new` on a model loaded from an OMGM v2 image performs
//!   **no tensor-data allocations** — weights *and* biases are borrowed
//!   from the shared decrypted image, so construction cost is independent
//!   of model size (only the activation arena and fixed-size step/plan
//!   structures are allocated).
//!
//! A counting global allocator wraps the system allocator. Counters are
//! **thread-local** (const-initialized, so reading them never itself
//! allocates): the claims under test are about the invoking thread's hot
//! path, and per-thread counting keeps harness machinery on other
//! threads (test runner, io capture) from perturbing the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use omg_nn::model::{Activation, Model, Op, Padding};
use omg_nn::quantize::QuantParams;
use omg_nn::tensor::DType;
use omg_nn::{Interpreter, KernelSet, ModelBuf};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<usize> = const { Cell::new(0) };
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

fn allocated_bytes() -> usize {
    ALLOCATED_BYTES.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        ALLOCATED_BYTES.with(|c| c.set(c.get() + layout.size()));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        ALLOCATED_BYTES.with(|c| c.set(c.get() + new_size));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// A conv → depthwise → maxpool → avgpool → fc → softmax model,
/// exercising every hot-path step kind — including the fast conv's
/// arena-planned im2col panel and both lane-blocked pools.
fn conv_fc_model() -> Model {
    let qp = |scale: f32, zp: i32| QuantParams {
        scale,
        zero_point: zp,
    };
    let mut b = Model::builder();
    let input = b.add_activation(
        "in",
        vec![1, 8, 8, 1],
        DType::I8,
        Some(qp(1.0 / 255.0, -128)),
    );
    let cw = b.add_weight_i8(
        "conv/w",
        vec![2, 3, 3, 1],
        (0..18).map(|i| (i % 5) as i8 - 2).collect(),
        QuantParams::symmetric(0.05),
    );
    let cb = b.add_weight_i32("conv/b", vec![2], vec![3, -3]);
    let conv = b.add_activation("conv", vec![1, 4, 4, 2], DType::I8, Some(qp(0.1, 0)));
    b.add_op(Op::Conv2D {
        input,
        filter: cw,
        bias: cb,
        output: conv,
        stride_h: 2,
        stride_w: 2,
        padding: Padding::Same,
        activation: Activation::Relu,
    });
    let dw = b.add_weight_i8(
        "dw/w",
        vec![1, 3, 3, 2],
        (0..18).map(|i| (i % 7) as i8 - 3).collect(),
        QuantParams::symmetric(0.04),
    );
    let db = b.add_weight_i32("dw/b", vec![2], vec![1, -2]);
    let dw_out = b.add_activation("dw", vec![1, 4, 4, 2], DType::I8, Some(qp(0.11, -1)));
    b.add_op(Op::DepthwiseConv2D {
        input: conv,
        filter: dw,
        bias: db,
        output: dw_out,
        stride_h: 1,
        stride_w: 1,
        depth_multiplier: 1,
        padding: Padding::Same,
        activation: Activation::None,
    });
    let mp = b.add_activation("maxpool", vec![1, 2, 2, 2], DType::I8, Some(qp(0.11, -1)));
    b.add_op(Op::MaxPool2D {
        input: dw_out,
        output: mp,
        filter_h: 2,
        filter_w: 2,
        stride_h: 2,
        stride_w: 2,
        padding: Padding::Valid,
    });
    let ap = b.add_activation("avgpool", vec![1, 1, 1, 2], DType::I8, Some(qp(0.11, -1)));
    b.add_op(Op::AveragePool2D {
        input: mp,
        output: ap,
        filter_h: 2,
        filter_w: 2,
        stride_h: 2,
        stride_w: 2,
        padding: Padding::Valid,
    });
    let fw = b.add_weight_i8(
        "fc/w",
        vec![4, 2],
        (0..8).map(|i| (i % 7) as i8 - 3).collect(),
        QuantParams::symmetric(0.02),
    );
    let fb = b.add_weight_i32("fc/b", vec![4], vec![0, 1, -1, 2]);
    let logits = b.add_activation("logits", vec![1, 4], DType::I8, Some(qp(0.5, 0)));
    b.add_op(Op::FullyConnected {
        input: ap,
        filter: fw,
        bias: fb,
        output: logits,
        activation: Activation::None,
    });
    let probs = b.add_activation("probs", vec![1, 4], DType::I8, Some(qp(1.0 / 256.0, -128)));
    b.add_op(Op::Softmax {
        input: logits,
        output: probs,
    });
    b.set_input(input);
    b.set_output(probs);
    b.set_labels(["up", "down", "left", "right"]);
    b.build().unwrap()
}

#[test]
fn hot_path_performs_zero_heap_allocations() {
    // Pin the SIMD tier (rather than trusting `new`, which honors
    // OMG_KERNELS): this test proves the im2col panel really lives in
    // the planned arena, not in per-invoke heap allocations, and the
    // dispatched dot kernels must not allocate either.
    let mut interp = Interpreter::with_kernels(conv_fc_model(), KernelSet::Simd).unwrap();
    assert_eq!(interp.kernels(), KernelSet::Simd);
    let input: Vec<i8> = (0..64).map(|i| (i * 3 % 256) as u8 as i8).collect();

    // Warm up once (nothing on the hot path lazily allocates, but keep the
    // measurement honest regardless).
    interp.invoke(&input).unwrap();

    let before = allocations();
    for _ in 0..16 {
        interp.invoke(&input).unwrap();
    }
    let after_invoke = allocations();
    assert_eq!(
        after_invoke - before,
        0,
        "Interpreter::invoke allocated on the hot path"
    );

    // The full serving-path query: classify + interned-label lookup. With
    // labels stored as `Arc<str>`, handing out the label is a refcount
    // bump, so even the label-bearing path is allocation-free end to end.
    let mut label_len = 0usize;
    for _ in 0..16 {
        let (class, _score) = interp.classify(&input).unwrap();
        let label = interp.model().labels()[class].clone();
        label_len += label.len();
    }
    let after_classify = allocations();
    assert_eq!(
        after_classify - after_invoke,
        0,
        "Interpreter::classify + label lookup allocated on the hot path"
    );
    assert!(label_len > 0, "labels were actually produced");

    // Scrubbing between queries is also allocation-free.
    interp.scrub();
    let after_scrub = allocations();
    assert_eq!(after_scrub - after_classify, 0, "scrub allocated");

    // ---- Observability on: the hot path still allocates nothing --------
    //
    // Enable the per-op profiler (its accumulator table is allocated here,
    // once) and record flight-recorder events alongside each invoke — the
    // same instrumentation the serving workers run with. The profiled,
    // trace-stamped hot path must stay allocation-free.
    interp.enable_profiling();
    let recorder = omg_obs::FlightRecorder::new(1, 64);
    // Warm the monotonic clock's lazily initialized epoch.
    let _ = omg_obs::monotonic_ns();
    interp.invoke(&input).unwrap();

    let before_obs = allocations();
    for seq in 0..16u64 {
        recorder.record(0, omg_obs::Stage::ComputeStart, seq, 0);
        interp.invoke(&input).unwrap();
        recorder.record(0, omg_obs::Stage::ComputeEnd, seq, 0);
    }
    let after_obs = allocations();
    assert_eq!(
        after_obs - before_obs,
        0,
        "profiled invoke + flight-recorder stamping allocated on the hot path"
    );
    let profile = interp.profile().expect("profiling enabled");
    assert_eq!(profile.invokes, 17);
    assert!(profile.dominant().is_some());
    assert_eq!(recorder.total_recorded(), 32);
    interp.disable_profiling();

    // ---- Interpreter::new on a v2 image copies no tensor data ----------
    //
    // Build a model whose weights dwarf its activations (a 64×4096 FC is
    // 256 KiB of weights against a ~4 KiB arena), serialize it to the v2
    // container, and load it zero-copy. Constructing an interpreter may
    // allocate its fixed-size structures and the activation arena, but
    // nothing proportional to the weights: every weight and bias is
    // borrowed from the shared image.
    let big = big_fc_model();
    let weight_bytes = big.weight_bytes();
    assert!(
        weight_bytes > 250_000,
        "model not big enough to be probative"
    );
    let image = ModelBuf::copy_from_slice(&omg_nn::format::serialize(&big));
    drop(big);

    let model = omg_nn::format::deserialize_shared(image.clone()).unwrap();
    let before_bytes = allocated_bytes();
    let interp2 = Interpreter::new(model).unwrap();
    let new_bytes = allocated_bytes() - before_bytes;
    let budget = interp2.arena_size() + 16 * 1024;
    assert!(
        new_bytes <= budget,
        "Interpreter::new allocated {new_bytes} bytes (arena {} + 16 KiB slack allowed) \
         for a {weight_bytes}-byte model: tensor data was copied",
        interp2.arena_size()
    );
    assert_eq!(
        interp2.decoded_bias_bytes(),
        0,
        "v2-loaded biases must be borrowed, not decoded into a pool"
    );
}

/// A single-FC model with deliberately large weights (64 outputs × 4096
/// inputs), used to prove `Interpreter::new` cost is independent of model
/// size.
fn big_fc_model() -> Model {
    let mut b = Model::builder();
    let input = b.add_activation(
        "in",
        vec![1, 4096],
        DType::I8,
        Some(QuantParams {
            scale: 1.0 / 255.0,
            zero_point: -128,
        }),
    );
    let w = b.add_weight_i8(
        "w",
        vec![64, 4096],
        (0..64 * 4096).map(|i| (i % 11) as i8 - 5).collect(),
        QuantParams::symmetric(0.02),
    );
    let bias = b.add_weight_i32("b", vec![64], (0..64).collect());
    let out = b.add_activation(
        "logits",
        vec![1, 64],
        DType::I8,
        Some(QuantParams {
            scale: 0.5,
            zero_point: 0,
        }),
    );
    b.add_op(Op::FullyConnected {
        input,
        filter: w,
        bias,
        output: out,
        activation: Activation::None,
    });
    b.set_input(input);
    b.set_output(out);
    b.build().unwrap()
}
