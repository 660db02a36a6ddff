//! Kernel micro-bench: fast (im2col + blocked GEMM, lane-restructured
//! window kernels, SIMD-dispatched dot products) vs the scalar TFLM
//! reference oracle, on conv-heavy shapes plus every other kernel on
//! realistic sizes.
//!
//! Regression-asserts the tentpole claims — **fast ≥ 2× reference on the
//! conv-heavy shapes and on `fully_connected`** — after first checking
//! bit-exact agreement on every measured shape (a fast kernel that
//! drifts from the oracle fails here before any timing runs). Also times
//! the end-to-end `Interpreter::invoke` on the production `tiny_conv`
//! model under both kernel sets, and the row-panel threaded GEMM at 1/2/4
//! threads.
//!
//! The fast tier under test follows `OMG_KERNELS` (default: the detected
//! SIMD vtable; `portable` pins the lanes fallback), and the JSON output
//! records it as `"tier"`, so CI's rolling baselines can distinguish
//! SIMD runs from portable runs. CI sets the harness's `OMG_BENCH_DIR` to
//! upload per-tier files side by side.
//!
//! Numbers land as JSON in `target/bench-json/kernels.json` (and the
//! shared `trajectory.jsonl`); CI's `bench_check` gates `conv_speedup`,
//! `conv_mmacs_per_s`, `fc_speedup`, and `gemm_threads_speedup` against
//! the committed floors in `crates/omg-bench/baselines/kernels.json`.
//! Run with `--quick` for the CI smoke mode.

use std::fmt::Write as _;
use std::time::Duration;

use omg_bench::harness::{self, best_per_iter};
use omg_bench::{cached_tiny_conv, ModelKind};
use omg_nn::arch::KernelVTable;
use omg_nn::gemm::{self, conv_im2col_len, row_sums, GemmArgs};
use omg_nn::kernels::{self, Conv2DArgs, DepthwiseConv2DArgs, FullyConnectedArgs, Pool2DArgs};
use omg_nn::kernels_fast;
use omg_nn::quantize::FixedMultiplier;
use omg_nn::{Interpreter, KernelSet};

fn pattern_i8(len: usize, mul: usize, modulo: i32, sub: i32) -> Vec<i8> {
    (0..len)
        .map(|i| ((i * mul) as i32 % modulo - sub) as i8)
        .collect()
}

struct ConvShape {
    name: &'static str,
    input_shape: [usize; 4],
    filter_shape: [usize; 4],
    stride: (usize, usize),
    pad: (usize, usize),
    output_shape: [usize; 4],
}

/// One measured kernel: name, reference and fast per-call times, MAC (or
/// element) count per call.
struct Row {
    name: &'static str,
    reference: Duration,
    fast: Duration,
    work: u64,
    work_unit: &'static str,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.reference.as_secs_f64() / self.fast.as_secs_f64()
    }

    fn fast_mwork_per_s(&self) -> f64 {
        self.work as f64 / self.fast.as_secs_f64() / 1e6
    }
}

fn time_conv(vt: &'static KernelVTable, shape: &ConvShape, reps: usize, iters: usize) -> Row {
    let [_, in_h, in_w, in_c] = shape.input_shape;
    let [out_c, k_h, k_w, _] = shape.filter_shape;
    let [_, out_h, out_w, _] = shape.output_shape;
    let input = pattern_i8(in_h * in_w * in_c, 7, 256, 128);
    let filter = pattern_i8(out_c * k_h * k_w * in_c, 5, 200, 100);
    let bias: Vec<i32> = (0..out_c as i32).map(|i| i * 11 - 40).collect();
    let multiplier = FixedMultiplier::from_real(0.007).unwrap();
    let mut out_ref = vec![0i8; out_h * out_w * out_c];
    let mut out_fast = vec![0i8; out_h * out_w * out_c];
    let im2col_len = conv_im2col_len(
        shape.filter_shape,
        shape.output_shape,
        shape.stride,
        shape.pad,
    );
    let mut scratch = vec![0i8; im2col_len];
    // Row sums are per-filter constants the interpreter precomputes at
    // step-compile time, so they sit outside the timed region.
    let mut sums = vec![0i32; out_c];
    row_sums(&filter, out_c, k_h * k_w * in_c, &mut sums);

    macro_rules! args {
        ($out:expr) => {
            Conv2DArgs {
                input: &input,
                input_shape: shape.input_shape,
                filter: &filter,
                filter_shape: shape.filter_shape,
                bias: &bias,
                output: $out,
                output_shape: shape.output_shape,
                stride: shape.stride,
                pad: shape.pad,
                input_offset: 128,
                output_offset: -17,
                multiplier,
                act_min: -128,
                act_max: 127,
            }
        };
    }

    // Correctness gate before any timing: fast must equal the oracle.
    kernels::conv2d(args!(&mut out_ref));
    kernels_fast::conv2d_with(vt, args!(&mut out_fast), &sums, &mut scratch);
    assert_eq!(
        out_ref, out_fast,
        "{}: fast conv diverged from oracle",
        shape.name
    );

    let reference = best_per_iter(reps, iters, || kernels::conv2d(args!(&mut out_ref)));
    let fast = best_per_iter(reps, iters, || {
        kernels_fast::conv2d_with(vt, args!(&mut out_fast), &sums, &mut scratch)
    });
    Row {
        name: shape.name,
        reference,
        fast,
        work: (out_h * out_w * out_c * k_h * k_w * in_c) as u64,
        work_unit: "MMAC/s",
    }
}

fn main() {
    harness::run("kernels", bench);
}

fn bench(quick: bool) -> String {
    let (reps, iters) = if quick { (3, 5) } else { (7, 20) };
    // The fast tier under test: the detected SIMD vtable by default,
    // pinned to the lanes fallback under OMG_KERNELS=portable.
    let kernel_set = KernelSet::parse(std::env::var("OMG_KERNELS").ok().as_deref());
    let vt = kernel_set.vtable();
    println!(
        "== OMG compute kernels: fast (im2col + blocked GEMM, tier {}) vs reference oracle{} ==",
        vt.name,
        if quick { " (--quick)" } else { "" }
    );

    let mut rows: Vec<Row> = Vec::new();

    // ---- conv-heavy shapes (the gated claim) ----------------------------
    let convs = [
        // The paper's tiny_conv first layer: 49x43x1 fingerprint, 8
        // filters of 10x8, stride 2, SAME.
        ConvShape {
            name: "conv tiny_conv 10x8x1->8 @49x43 s2",
            input_shape: [1, 49, 43, 1],
            filter_shape: [8, 10, 8, 1],
            stride: (2, 2),
            pad: (4, 3),
            output_shape: [1, 25, 22, 8],
        },
        // A deeper multi-channel body layer.
        ConvShape {
            name: "conv 3x3x8->16 @32x32 s1 SAME",
            input_shape: [1, 32, 32, 8],
            filter_shape: [16, 3, 3, 8],
            stride: (1, 1),
            pad: (1, 1),
            output_shape: [1, 32, 32, 16],
        },
    ];
    for shape in &convs {
        rows.push(time_conv(vt, shape, reps, iters));
    }

    // ---- depthwise ------------------------------------------------------
    {
        let (in_h, in_w, c) = (32, 32, 16);
        let (k_h, k_w) = (3, 3);
        let input = pattern_i8(in_h * in_w * c, 3, 256, 128);
        let filter = pattern_i8(k_h * k_w * c, 11, 200, 100);
        let bias: Vec<i32> = (0..c as i32).map(|i| i * 5 - 16).collect();
        let multiplier = FixedMultiplier::from_real(0.004).unwrap();
        let mut out_ref = vec![0i8; in_h * in_w * c];
        let mut out_fast = vec![0i8; in_h * in_w * c];
        macro_rules! args {
            ($out:expr) => {
                DepthwiseConv2DArgs {
                    input: &input,
                    input_shape: [1, in_h, in_w, c],
                    filter: &filter,
                    filter_shape: [1, k_h, k_w, c],
                    bias: &bias,
                    output: $out,
                    output_shape: [1, in_h, in_w, c],
                    depth_multiplier: 1,
                    stride: (1, 1),
                    pad: (1, 1),
                    input_offset: 128,
                    output_offset: 4,
                    multiplier,
                    act_min: -128,
                    act_max: 127,
                }
            };
        }
        kernels::depthwise_conv2d(args!(&mut out_ref));
        kernels_fast::depthwise_conv2d(args!(&mut out_fast));
        assert_eq!(out_ref, out_fast, "fast depthwise diverged from oracle");
        rows.push(Row {
            name: "depthwise 3x3 @32x32x16",
            reference: best_per_iter(reps, iters, || {
                kernels::depthwise_conv2d(args!(&mut out_ref))
            }),
            fast: best_per_iter(reps, iters, || {
                kernels_fast::depthwise_conv2d(args!(&mut out_fast))
            }),
            work: (in_h * in_w * c * k_h * k_w) as u64,
            work_unit: "MMAC/s",
        });
    }

    // ---- fully connected (the paper's 4400 -> 12 classifier head) -------
    {
        let (in_features, out_features) = (4400, 12);
        let input = pattern_i8(in_features, 13, 256, 128);
        let filter = pattern_i8(out_features * in_features, 7, 200, 100);
        let bias: Vec<i32> = (0..out_features as i32).map(|i| i * 100).collect();
        let multiplier = FixedMultiplier::from_real(0.002).unwrap();
        let mut out_ref = vec![0i8; out_features];
        let mut out_fast = vec![0i8; out_features];
        macro_rules! args {
            ($out:expr) => {
                FullyConnectedArgs {
                    input: &input,
                    filter: &filter,
                    bias: &bias,
                    output: $out,
                    in_features,
                    out_features,
                    input_offset: 128,
                    output_offset: 0,
                    multiplier,
                    act_min: -128,
                    act_max: 127,
                }
            };
        }
        kernels::fully_connected(args!(&mut out_ref));
        kernels_fast::fully_connected_with(vt, args!(&mut out_fast));
        assert_eq!(
            out_ref, out_fast,
            "fast fully_connected diverged from oracle"
        );
        rows.push(Row {
            name: "fully_connected 4400->12",
            reference: best_per_iter(reps, iters, || {
                kernels::fully_connected(args!(&mut out_ref))
            }),
            fast: best_per_iter(reps, iters, || {
                kernels_fast::fully_connected_with(vt, args!(&mut out_fast))
            }),
            work: (in_features * out_features) as u64,
            work_unit: "MMAC/s",
        });
    }

    // ---- pooling --------------------------------------------------------
    {
        let (in_h, in_w, c) = (32, 32, 16);
        let input = pattern_i8(in_h * in_w * c, 9, 256, 128);
        let mut out_ref = vec![0i8; 16 * 16 * c];
        let mut out_fast = vec![0i8; 16 * 16 * c];
        macro_rules! args {
            ($out:expr) => {
                Pool2DArgs {
                    input: &input,
                    input_shape: [1, in_h, in_w, c],
                    output: $out,
                    output_shape: [1, 16, 16, c],
                    filter: (2, 2),
                    stride: (2, 2),
                    pad: (0, 0),
                }
            };
        }
        kernels::average_pool2d(args!(&mut out_ref));
        kernels_fast::average_pool2d(args!(&mut out_fast));
        assert_eq!(
            out_ref, out_fast,
            "fast average_pool2d diverged from oracle"
        );
        rows.push(Row {
            name: "average_pool 2x2 @32x32x16",
            reference: best_per_iter(reps, iters, || kernels::average_pool2d(args!(&mut out_ref))),
            fast: best_per_iter(reps, iters, || {
                kernels_fast::average_pool2d(args!(&mut out_fast))
            }),
            work: (in_h * in_w * c) as u64,
            work_unit: "Melem/s",
        });
        kernels::max_pool2d(args!(&mut out_ref));
        kernels_fast::max_pool2d(args!(&mut out_fast));
        assert_eq!(out_ref, out_fast, "fast max_pool2d diverged from oracle");
        rows.push(Row {
            name: "max_pool 2x2 @32x32x16",
            reference: best_per_iter(reps, iters, || kernels::max_pool2d(args!(&mut out_ref))),
            fast: best_per_iter(reps, iters, || {
                kernels_fast::max_pool2d(args!(&mut out_fast))
            }),
            work: (in_h * in_w * c) as u64,
            work_unit: "Melem/s",
        });
    }

    // ---- softmax (once per query on the warm serving path) --------------
    {
        let input = pattern_i8(12, 37, 256, 128);
        let mut out_ref = vec![0i8; 12];
        let mut out_fast = vec![0i8; 12];
        kernels::softmax(&input, 0.25, 0, &mut out_ref);
        kernels_fast::softmax(&input, 0.25, 0, &mut out_fast);
        assert_eq!(out_ref, out_fast, "fast softmax diverged from oracle");
        let (sreps, siters) = (reps, iters * 50);
        rows.push(Row {
            name: "softmax 12 classes",
            reference: best_per_iter(sreps, siters, || {
                kernels::softmax(&input, 0.25, 0, &mut out_ref)
            }),
            fast: best_per_iter(sreps, siters, || {
                kernels_fast::softmax(&input, 0.25, 0, &mut out_fast)
            }),
            work: 12,
            work_unit: "Melem/s",
        });
    }

    // ---- end-to-end: the production tiny_conv model ---------------------
    let model = cached_tiny_conv(ModelKind::Fast);
    let mut fast_interp = Interpreter::with_kernels(model.clone(), kernel_set).unwrap();
    let mut ref_interp = Interpreter::with_kernels(model, KernelSet::Reference).unwrap();
    let invoke_input = pattern_i8(49 * 43, 3, 256, 128);
    fast_interp.invoke(&invoke_input).unwrap();
    ref_interp.invoke(&invoke_input).unwrap();
    assert_eq!(
        fast_interp.output_quantized().unwrap(),
        ref_interp.output_quantized().unwrap(),
        "fast interpreter diverged from reference on tiny_conv"
    );
    let invoke_ref = best_per_iter(reps, iters, || {
        ref_interp.invoke(&invoke_input).unwrap();
    });
    let invoke_fast = best_per_iter(reps, iters, || {
        fast_interp.invoke(&invoke_input).unwrap();
    });
    let invoke_speedup = invoke_ref.as_secs_f64() / invoke_fast.as_secs_f64();

    // ---- report ---------------------------------------------------------
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    for row in &rows {
        println!(
            "{:<36} reference {:>9.1} us, fast {:>9.1} us  ({:>5.2}x, {:>8.1} {})",
            row.name,
            us(row.reference),
            us(row.fast),
            row.speedup(),
            row.fast_mwork_per_s(),
            row.work_unit,
        );
    }
    println!(
        "{:<36} reference {:>9.1} us, fast {:>9.1} us  ({:>5.2}x)",
        "tiny_conv Interpreter::invoke",
        us(invoke_ref),
        us(invoke_fast),
        invoke_speedup,
    );

    // ---- row-panel threaded GEMM at 1/2/4 threads -----------------------
    // The conv-heavy im2col shape (m=550 output pixels, n=8 filters, k=80
    // taps, 352k MACs) clears both PAR_MIN_MACS and PAR_MIN_ROWS, so the
    // panel split genuinely engages at budgets > 1.
    let gemm_threads_speedup = {
        let (m, n, k) = (550, 8, 80);
        let a = pattern_i8(m * k, 7, 256, 128);
        let b = pattern_i8(n * k, 5, 200, 100);
        let bias: Vec<i32> = (0..n as i32).map(|i| i * 9 - 31).collect();
        let mut sums = vec![0i32; n];
        row_sums(&b, n, k, &mut sums);
        let multiplier = FixedMultiplier::from_real(0.004).unwrap();
        let mut out = vec![0i8; m * n];
        macro_rules! run {
            () => {
                gemm::gemm_with(
                    vt,
                    GemmArgs {
                        a: &a,
                        b: &b,
                        bias: &bias,
                        b_row_sums: &sums,
                        out: &mut out,
                        m,
                        n,
                        k,
                        input_offset: 128,
                        output_offset: -3,
                        multiplier,
                        act_min: -128,
                        act_max: 127,
                    },
                )
            };
        }
        let prev = gemm::set_thread_budget(1);
        run!();
        let single = out.clone();
        let budgets = [1usize, 2, 4];
        let mut times = [Duration::MAX; 3];
        for (slot, &threads) in budgets.iter().enumerate() {
            gemm::set_thread_budget(threads);
            run!();
            assert_eq!(
                out, single,
                "threaded GEMM (t={threads}) diverged from single-thread"
            );
            times[slot] = best_per_iter(reps, iters, || run!());
        }
        gemm::set_thread_budget(prev);
        // Best speedup over the sweep; t=1 is in the sweep, so this never
        // drops below 1.0 and the metric stays meaningful on small hosts.
        let speedup = times
            .iter()
            .map(|t| times[0].as_secs_f64() / t.as_secs_f64())
            .fold(f64::MIN, f64::max);
        println!(
            "{:<36} t1 {:>9.1} us, t2 {:>9.1} us, t4 {:>9.1} us  (best {:>5.2}x)",
            "gemm 550x8x80 threads 1/2/4",
            us(times[0]),
            us(times[1]),
            us(times[2]),
            speedup,
        );
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cores >= 4 {
            assert!(
                speedup >= 1.5,
                "threaded GEMM must be >= 1.5x single-thread at 4 threads \
                 on a {cores}-core host, got {speedup:.2}x"
            );
        } else {
            println!(
                "note: only {cores} core(s) available; skipping the >= 1.5x threaded-GEMM assert"
            );
        }
        speedup
    };

    // The tentpole claim: fast >= 2x reference on the conv-heavy shapes.
    let conv_speedup = rows[..convs.len()]
        .iter()
        .map(Row::speedup)
        .fold(f64::INFINITY, f64::min);
    for row in &rows[..convs.len()] {
        assert!(
            row.speedup() >= 2.0,
            "{}: fast conv must be >= 2x the reference, got {:.2}x",
            row.name,
            row.speedup()
        );
    }
    // The whole-model path must profit too (conv dominates tiny_conv).
    assert!(
        invoke_speedup >= 1.5,
        "tiny_conv invoke: fast kernels must be >= 1.5x reference end to end, got {invoke_speedup:.2}x"
    );
    // The gated absolute-throughput metric comes from the multi-channel
    // body-layer shape; select it by name so reordering or extending the
    // shape list cannot silently repoint the CI gate.
    let conv_mmacs_per_s = rows
        .iter()
        .find(|r| r.name == "conv 3x3x8->16 @32x32 s1 SAME")
        .expect("gated conv shape present")
        .fast_mwork_per_s();
    // The reworked classifier head: >= 2x under SIMD dispatch; the
    // portable tier only has the blocking/widening rework, so it gets a
    // looser floor.
    let fc_speedup = rows
        .iter()
        .find(|r| r.name == "fully_connected 4400->12")
        .expect("gated fully_connected shape present")
        .speedup();
    if vt.name == "portable" {
        assert!(
            fc_speedup >= 1.1,
            "fully_connected (portable tier) must beat the reference, got {fc_speedup:.2}x"
        );
    } else {
        assert!(
            fc_speedup >= 2.0,
            "fully_connected must be >= 2x the reference under SIMD dispatch, got {fc_speedup:.2}x"
        );
    }
    println!(
        "PASS: conv speedup {conv_speedup:.2}x (>= 2x), fc {fc_speedup:.2}x, \
         gemm threads {gemm_threads_speedup:.2}x, tiny_conv invoke {invoke_speedup:.2}x, \
         {conv_mmacs_per_s:.0} MMAC/s fast conv [tier {}]",
        vt.name
    );

    // ---- JSON trajectory -------------------------------------------------
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"bench\":\"kernels\",\"quick\":{quick},\"tier\":\"{}\",\
         \"conv_speedup\":{conv_speedup:.3},\"conv_mmacs_per_s\":{conv_mmacs_per_s:.1},\
         \"fc_speedup\":{fc_speedup:.3},\"gemm_threads_speedup\":{gemm_threads_speedup:.3},\
         \"invoke_speedup\":{invoke_speedup:.3},\"invoke_fast_us\":{:.2},\"kernels\":[",
        vt.name,
        us(invoke_fast),
    );
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "{}{{\"name\":\"{}\",\"reference_us\":{:.2},\"fast_us\":{:.2},\
             \"speedup\":{:.3},\"fast_mwork_per_s\":{:.1}}}",
            if i > 0 { "," } else { "" },
            row.name,
            us(row.reference),
            us(row.fast),
            row.speedup(),
            row.fast_mwork_per_s(),
        );
    }
    json.push_str("]}");
    json
}
