//! The arena-based model interpreter.
//!
//! Mirrors the TFLite-Micro execution model: all activations live in one
//! fixed arena planned up front (see [`crate::planner`]), weights are read
//! directly from the model's constant buffers, and `invoke` runs the ops in
//! order with **zero heap allocation on the hot path**. All shape, dtype,
//! quantization, and arena-range resolution happens once in
//! [`Interpreter::new`], which compiles the graph into an immutable step
//! list; executing a step only does split borrows into the arena and the
//! model's buffers.

use crate::arch;
use crate::buffer::ByteView;
use crate::error::{NnError, Result};
use crate::model::{same_padding, Activation, Model, Op, Padding};
use crate::planner::{plan_arena, ArenaPlan, TensorLife};
use crate::quantize::FixedMultiplier;
use crate::tensor::{DType, TensorId};
use crate::{gemm, kernels, kernels_fast};

/// Global-registry counter of interpreters built, cached so the registry
/// mutex is taken once per process, not once per construction.
fn built_counter() -> &'static omg_obs::Counter {
    static BUILT: std::sync::OnceLock<omg_obs::Counter> = std::sync::OnceLock::new();
    BUILT.get_or_init(|| {
        omg_obs::global().counter(
            "omg_nn_interpreters_built_total",
            "Interpreters compiled (model validated, arena planned)",
        )
    })
}

/// Which kernel dispatch tier an [`Interpreter`] executes with.
///
/// Three tiers, selectable per interpreter ([`Interpreter::with_kernels`])
/// or process-wide via `OMG_KERNELS=simd|portable|reference`:
///
/// * [`Simd`](KernelSet::Simd) (default) — the fast kernels
///   ([`crate::kernels_fast`]: im2col + blocked GEMM, restructured window
///   loops) with their dot products routed through the best
///   [`crate::arch::KernelVTable`] the CPU supports (AVX2 on x86_64, NEON
///   on aarch64), detected once at [`Interpreter::new`] and cached in a
///   `OnceLock`. On CPUs without a SIMD tier this degrades to exactly the
///   portable tier.
/// * [`Portable`](KernelSet::Portable) — the same fast kernels pinned to
///   the autovectorized portable lane loops. This is what the SIMD tier
///   falls back to, kept independently selectable so the fallback stays
///   covered on SIMD-capable hardware.
/// * [`Reference`](KernelSet::Reference) — scalar TFLM reference kernels
///   ([`crate::kernels`]), kept verbatim as the correctness oracle.
///
/// Differential tests assert all tiers produce bit-identical outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelSet {
    /// Fast kernels on the best runtime-detected SIMD vtable (the
    /// default; falls back to portable lanes when no SIMD tier exists).
    #[default]
    Simd,
    /// Fast kernels pinned to the portable autovectorized lane loops.
    Portable,
    /// Scalar TFLM reference kernels (the differential-test oracle).
    Reference,
}

impl KernelSet {
    /// Parses an `OMG_KERNELS` value; anything unrecognized (or absent)
    /// selects the default SIMD tier. `"fast"` is accepted as a legacy
    /// alias for it.
    pub fn parse(value: Option<&str>) -> Self {
        match value {
            Some("reference") | Some("ref") => KernelSet::Reference,
            Some("portable") => KernelSet::Portable,
            _ => KernelSet::Simd,
        }
    }

    fn from_env() -> Self {
        Self::parse(std::env::var("OMG_KERNELS").ok().as_deref())
    }

    /// The dot-product vtable this tier executes with. [`Reference`]
    /// reports the portable vtable, but the reference kernels never
    /// consult it.
    ///
    /// [`Reference`]: KernelSet::Reference
    pub fn vtable(self) -> &'static arch::KernelVTable {
        match self {
            KernelSet::Simd => arch::detect(),
            KernelSet::Portable | KernelSet::Reference => &arch::PORTABLE,
        }
    }

    /// Whether this tier runs the restructured fast kernels (as opposed
    /// to the scalar reference oracle).
    fn is_fast(self) -> bool {
        self != KernelSet::Reference
    }
}

/// Reinterprets raw constant-buffer bytes as int8 weights without copying.
fn as_i8(bytes: &[u8]) -> &[i8] {
    // SAFETY: i8 and u8 have identical size and alignment, and every bit
    // pattern is a valid i8.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<i8>(), bytes.len()) }
}

/// Reinterprets raw little-endian constant-buffer bytes as int32 biases
/// without copying. Callers must have verified 4-byte pointer alignment and
/// a length divisible by 4 (see [`bias_borrowable`]).
fn as_i32(bytes: &[u8]) -> &[i32] {
    debug_assert!(bias_borrowable(bytes));
    // SAFETY: alignment and length were checked when the step was compiled;
    // the backing storage is immutable and its address is stable (Arc'd
    // aligned allocation). Every bit pattern is a valid i32, and the bytes
    // are little-endian, matching the host (borrowing is gated on LE).
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<i32>(), bytes.len() / 4) }
}

/// Whether an i32 constant buffer can be borrowed in place: the host is
/// little-endian (the wire format is LE) and the bytes sit at their natural
/// alignment. OMGM v2 images and builder-constructed models guarantee the
/// alignment by construction; anything else falls back to the decoded pool.
fn bias_borrowable(bytes: &[u8]) -> bool {
    cfg!(target_endian = "little")
        && (bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<i32>())
        && bytes.len().is_multiple_of(4)
}

/// Where a step's int32 bias comes from: borrowed in place from an aligned
/// model buffer (the v2 fast path), or a range in the decoded pool (the
/// fallback for unaligned/big-endian loads).
#[derive(Debug, Clone, Copy)]
enum BiasSrc {
    /// Index into the model's buffer list; reinterpreted via [`as_i32`].
    Borrowed(usize),
    /// Range in the interpreter's decoded bias pool.
    Pool(usize, usize),
}

/// Where a step reads its data input from.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// An activation at a fixed arena range.
    Arena { off: usize, len: usize },
    /// A constant tensor: index into the model's buffer list.
    Constant { buffer: usize },
}

/// Kernel parameters resolved at compile time. Weight tensors are reduced
/// to buffer indices and biases to [`BiasSrc`]es — both borrowed at
/// execution time.
#[derive(Debug, Clone)]
enum StepKind {
    Conv2D {
        filter_buf: usize,
        bias: BiasSrc,
        input_shape: [usize; 4],
        filter_shape: [usize; 4],
        output_shape: [usize; 4],
        stride: (usize, usize),
        pad: (usize, usize),
        input_offset: i32,
        output_offset: i32,
        multiplier: FixedMultiplier,
        act_min: i8,
        act_max: i8,
        depthwise: Option<usize>,
        /// Per-output-channel filter row sums for the fast GEMM's hoisted
        /// zero-point offsets; precomputed here because the filter is
        /// constant. Empty for depthwise and reference-kernel steps.
        row_sums: Vec<i32>,
    },
    FullyConnected {
        filter_buf: usize,
        bias: BiasSrc,
        in_features: usize,
        out_features: usize,
        input_offset: i32,
        output_offset: i32,
        multiplier: FixedMultiplier,
        act_min: i8,
        act_max: i8,
    },
    Pool2D {
        input_shape: [usize; 4],
        output_shape: [usize; 4],
        filter: (usize, usize),
        stride: (usize, usize),
        pad: (usize, usize),
        is_max: bool,
    },
    Softmax {
        input_scale: f32,
        input_zp: i32,
    },
    Copy,
}

impl StepKind {
    /// Stable kernel name for profiles and traces.
    fn kernel_name(&self) -> &'static str {
        match self {
            StepKind::Conv2D {
                depthwise: Some(_), ..
            } => "depthwise_conv2d",
            StepKind::Conv2D { .. } => "conv2d",
            StepKind::FullyConnected { .. } => "fully_connected",
            StepKind::Pool2D { is_max: true, .. } => "max_pool2d",
            StepKind::Pool2D { .. } => "avg_pool2d",
            StepKind::Softmax { .. } => "softmax",
            StepKind::Copy => "reshape",
        }
    }
}

/// Arena range holding a fast conv2d's im2col panel.
#[derive(Debug, Clone, Copy)]
struct ScratchRange {
    off: usize,
    len: usize,
}

/// One fully resolved execution step: data source, arena output range, and
/// kernel parameters. Immutable after compilation.
#[derive(Debug, Clone)]
struct CompiledStep {
    /// The tensor this step produces (for activation taps).
    output: TensorId,
    input: Src,
    out_off: usize,
    out_len: usize,
    /// Scratch planned for this step (fast non-depthwise convs only).
    scratch: Option<ScratchRange>,
    kind: StepKind,
}

/// Executes a [`Model`] using a fixed activation arena.
///
/// # Examples
///
/// See [`crate`] level docs for an end-to-end example.
#[derive(Debug)]
pub struct Interpreter {
    model: Model,
    plan: ArenaPlan,
    arena: Vec<i8>,
    steps: Vec<CompiledStep>,
    /// Fallback pool for int32 biases that cannot be borrowed in place
    /// (unaligned bytes, or a big-endian host). Models loaded from aligned
    /// storage — every OMGM v2 image and every builder-constructed model —
    /// leave this empty: their biases are borrowed straight from the model
    /// buffers, so constructing an interpreter copies no tensor data at
    /// all.
    bias_pool: Vec<i32>,
    /// Tensors to snapshot during the current `invoke_with_taps` run.
    pending_taps: Vec<TensorId>,
    /// Snapshots collected for the pending taps.
    tap_results: Vec<(TensorId, Vec<i8>)>,
    /// Which kernel dispatch tier `invoke` executes with.
    kernels: KernelSet,
    /// The tier's dot-product vtable, resolved once at construction
    /// (CPU-feature detection happens here, never on the hot path).
    vtable: &'static arch::KernelVTable,
    /// Optional per-op timing (see [`crate::profiler`]). `None` — the
    /// default — costs one branch per step on the invoke path.
    profiler: Option<crate::profiler::Profiler>,
}

fn shape4(shape: &[usize], context: &'static str) -> Result<[usize; 4]> {
    shape.try_into().map_err(|_| NnError::ShapeMismatch {
        context,
        detail: format!("expected rank 4, got {shape:?}"),
    })
}

/// Splits the arena into three disjoint sub-slices at the given
/// `(offset, length)` ranges; zero-length ranges yield empty slices.
/// Compilation guarantees the ranges are pairwise disjoint (live tensors
/// and scratch never share arena memory), which the successive
/// `split_at_mut`s then enforce structurally.
fn split3<'a>(arena: &'a mut [i8], ranges: [(usize, usize); 3]) -> [&'a mut [i8]; 3] {
    let mut order = [0usize, 1, 2];
    order.sort_unstable_by_key(|&slot| ranges[slot].0);
    let mut out: [&'a mut [i8]; 3] = [&mut [], &mut [], &mut []];
    let mut rest = arena;
    let mut consumed = 0usize;
    for slot in order {
        let (off, len) = ranges[slot];
        if len == 0 {
            continue;
        }
        let tail = std::mem::take(&mut rest);
        let (_, tail) = tail.split_at_mut(off - consumed);
        let (seg, tail) = tail.split_at_mut(len);
        out[slot] = seg;
        rest = tail;
        consumed = off + len;
    }
    out
}

/// Resolved shapes, stride, and padding of a (full or depthwise) conv op.
/// The **single** geometry resolution shared by scratch planning and step
/// compilation, so the planned im2col panel and the executed step cannot
/// drift apart.
struct ConvGeometry {
    input_shape: [usize; 4],
    filter_shape: [usize; 4],
    output_shape: [usize; 4],
    stride: (usize, usize),
    pad: (usize, usize),
}

impl ConvGeometry {
    /// im2col panel bytes the fast conv needs (zero when the input is
    /// read in place).
    fn im2col_len(&self) -> usize {
        gemm::conv_im2col_len(self.filter_shape, self.output_shape, self.stride, self.pad)
    }
}

fn conv_geometry(
    model: &Model,
    input: TensorId,
    filter: TensorId,
    output: TensorId,
    stride: (usize, usize),
    padding: Padding,
    context: &'static str,
) -> Result<ConvGeometry> {
    let input_shape = shape4(model.tensor(input)?.shape(), context)?;
    let filter_shape = shape4(model.tensor(filter)?.shape(), context)?;
    let output_shape = shape4(model.tensor(output)?.shape(), context)?;
    let pad = match padding {
        Padding::Same => (
            same_padding(input_shape[1], filter_shape[1], stride.0).0,
            same_padding(input_shape[2], filter_shape[2], stride.1).0,
        ),
        Padding::Valid => (0, 0),
    };
    Ok(ConvGeometry {
        input_shape,
        filter_shape,
        output_shape,
        stride,
        pad,
    })
}

/// Arena scratch a fast (non-depthwise) conv step needs: the im2col
/// panel length in bytes, from the same [`conv_geometry`] resolution
/// `compile` uses. Zero (no scratch) for convs that read the input in
/// place and for every other op.
fn conv_scratch_layout(model: &Model, op: &Op) -> Result<usize> {
    let Op::Conv2D {
        input,
        filter,
        output,
        stride_h,
        stride_w,
        padding,
        ..
    } = *op
    else {
        return Ok(0);
    };
    let geo = conv_geometry(
        model,
        input,
        filter,
        output,
        (stride_h, stride_w),
        padding,
        "Conv2D",
    )?;
    Ok(geo.im2col_len())
}

impl Interpreter {
    /// Plans the arena, decodes biases, and compiles every op into a fully
    /// resolved step. Executes with the SIMD-dispatched kernel set (CPU
    /// features detected once, here) unless the `OMG_KERNELS` environment
    /// toggle (`reference`, `portable`, `simd`) selects another tier (see
    /// [`KernelSet`] and [`Self::with_kernels`]).
    ///
    /// # Errors
    ///
    /// Any validation error surfaced while resolving shapes, dtypes,
    /// quantization parameters, or arena placement.
    pub fn new(model: Model) -> Result<Self> {
        Self::with_kernels(model, KernelSet::from_env())
    }

    /// [`Self::new`] with an explicit kernel implementation set — the
    /// seam the differential tests and benches use to pit the fast
    /// kernels against the scalar reference oracle on identical models.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::new`].
    pub fn with_kernels(model: Model, kernels: KernelSet) -> Result<Self> {
        // Resolve int32 bias buffers: aligned little-endian bytes (every v2
        // image and builder model) are borrowed in place; anything else is
        // decoded into the fallback pool. f32 constants are rejected
        // (unsupported by the int8 kernels).
        let mut bias_pool = Vec::new();
        let mut bias_srcs: Vec<Option<BiasSrc>> = vec![None; model.tensors.len()];
        for (idx, t) in model.tensors.iter().enumerate() {
            let Some(buf_idx) = t.buffer() else { continue };
            match t.dtype() {
                DType::I8 => {}
                DType::I32 => {
                    let raw = model.buffer(buf_idx)?;
                    if bias_borrowable(raw) {
                        bias_srcs[idx] = Some(BiasSrc::Borrowed(buf_idx));
                    } else {
                        let start = bias_pool.len();
                        bias_pool.extend(
                            raw.chunks_exact(4)
                                .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]])),
                        );
                        bias_srcs[idx] = Some(BiasSrc::Pool(start, bias_pool.len()));
                    }
                }
                DType::F32 => {
                    return Err(NnError::DtypeMismatch {
                        context: "f32 constants unsupported",
                    })
                }
            }
        }

        // Lifetimes for activation tensors.
        let mut first: Vec<Option<usize>> = vec![None; model.tensors.len()];
        let mut last: Vec<Option<usize>> = vec![None; model.tensors.len()];
        first[model.input.index()] = Some(0);
        for (op_idx, op) in model.ops.iter().enumerate() {
            for id in op.inputs() {
                if model.tensor(id)?.is_constant() {
                    continue;
                }
                last[id.index()] = Some(op_idx);
                if first[id.index()].is_none() {
                    first[id.index()] = Some(op_idx);
                }
            }
            let out = op.output();
            if first[out.index()].is_none() {
                first[out.index()] = Some(op_idx);
            }
            last[out.index()] = Some(last[out.index()].unwrap_or(op_idx).max(op_idx));
        }
        let final_op = model.ops.len().saturating_sub(1);
        last[model.output.index()] = Some(final_op);

        let mut lives: Vec<TensorLife> = model
            .tensors
            .iter()
            .enumerate()
            .filter(|(idx, t)| !t.is_constant() && first[*idx].is_some())
            .map(|(idx, t)| TensorLife {
                id: idx,
                size: t.byte_size(),
                first_use: first[idx].unwrap_or(0),
                last_use: last[idx].unwrap_or(first[idx].unwrap_or(0)),
            })
            .collect();

        // Fast convs need arena scratch for their im2col panel. Plan it
        // as a pseudo-tensor alive only at its own op, so the planner
        // overlaps scratch with whatever is dead at that step and
        // `invoke` stays allocation-free.
        let mut scratch_lens: Vec<usize> = vec![0; model.ops.len()];
        if kernels.is_fast() {
            for (op_idx, op) in model.ops.iter().enumerate() {
                let size = conv_scratch_layout(&model, op)?;
                if size > 0 {
                    scratch_lens[op_idx] = size;
                    lives.push(TensorLife {
                        id: model.tensors.len() + op_idx,
                        size,
                        first_use: op_idx,
                        last_use: op_idx,
                    });
                }
            }
        }
        let plan = plan_arena(&lives);
        let arena = vec![0i8; plan.arena_size];

        let mut interp = Interpreter {
            model,
            plan,
            arena,
            steps: Vec::new(),
            bias_pool,
            pending_taps: Vec::new(),
            tap_results: Vec::new(),
            kernels,
            vtable: kernels.vtable(),
            profiler: None,
        };
        let mut steps = Vec::with_capacity(interp.model.ops.len());
        for (op_idx, op) in interp.model.ops.iter().enumerate() {
            let scratch = (scratch_lens[op_idx] > 0).then(|| ScratchRange {
                off: interp
                    .plan
                    .offset_of(interp.model.tensors.len() + op_idx)
                    .expect("scratch pseudo-tensor was planned"),
                len: scratch_lens[op_idx],
            });
            steps.push(interp.compile(op, &bias_srcs, scratch)?);
        }
        interp.steps = steps;
        built_counter().inc();
        Ok(interp)
    }

    /// Turns on per-op profiling (resetting any previous profile). The
    /// accumulator table is allocated here, once — subsequent invokes
    /// record timings without allocating, so the zero-allocation hot-path
    /// guarantee holds with profiling enabled.
    pub fn enable_profiling(&mut self) {
        let kernels = self.steps.iter().map(|s| s.kind.kernel_name()).collect();
        self.profiler = Some(crate::profiler::Profiler::new(kernels));
    }

    /// Turns profiling back off, dropping the accumulated timings.
    pub fn disable_profiling(&mut self) {
        self.profiler = None;
    }

    /// Snapshot of per-op timings since [`Self::enable_profiling`], or
    /// `None` when profiling is disabled. `profile().dominant()` names
    /// the hot kernel of an invoke.
    pub fn profile(&self) -> Option<crate::profiler::Profile> {
        self.profiler.as_ref().map(|p| p.snapshot())
    }

    /// Resolves the arena range of an activation tensor.
    fn activation_range(&self, id: TensorId) -> Result<(usize, usize)> {
        let t = self.model.tensor(id)?;
        let offset = self
            .plan
            .offset_of(id.index())
            .ok_or(NnError::UnknownTensor { id: id.index() })?;
        Ok((offset, t.byte_size()))
    }

    /// Resolves where a step's data input comes from.
    fn resolve_src(&self, id: TensorId) -> Result<Src> {
        let t = self.model.tensor(id)?;
        if let Some(buffer) = t.buffer() {
            if t.dtype() != DType::I8 {
                return Err(NnError::DtypeMismatch {
                    context: "constant data inputs must be i8",
                });
            }
            return Ok(Src::Constant { buffer });
        }
        let (off, len) = self.activation_range(id)?;
        Ok(Src::Arena { off, len })
    }

    /// Resolves a constant i8 filter tensor to its buffer index.
    fn resolve_filter(&self, id: TensorId) -> Result<usize> {
        let t = self.model.tensor(id)?;
        match (t.dtype(), t.buffer()) {
            (DType::I8, Some(buffer)) => Ok(buffer),
            _ => Err(NnError::DtypeMismatch {
                context: "filter must be constant i8",
            }),
        }
    }

    /// Checks that a step's arena input, output, and scratch ranges are
    /// pairwise disjoint, so the executor's split borrows cannot alias.
    /// The planner guarantees this (the lifetimes all overlap at the op),
    /// but the invariant is load-bearing for `split3`, so verify at
    /// compile time.
    fn check_disjoint(&self, step: &CompiledStep) -> Result<()> {
        let disjoint = |a: (usize, usize), b: (usize, usize)| {
            a.0 + a.1 <= b.0 || b.0 + b.1 <= a.0 || a.1 == 0 || b.1 == 0
        };
        let out = (step.out_off, step.out_len);
        let scratch = step.scratch.map(|s| (s.off, s.len)).unwrap_or((0, 0));
        if let Src::Arena { off, len } = step.input {
            if !disjoint((off, len), out) || !disjoint((off, len), scratch) {
                return Err(NnError::MalformedModel(
                    "arena plan aliases a step's input with its output or scratch",
                ));
            }
        }
        if !disjoint(out, scratch) {
            return Err(NnError::MalformedModel(
                "arena plan aliases a step's output and scratch",
            ));
        }
        Ok(())
    }

    fn compile(
        &self,
        op: &Op,
        bias_srcs: &[Option<BiasSrc>],
        scratch: Option<ScratchRange>,
    ) -> Result<CompiledStep> {
        let act_range = |activation: Activation, out_zp: i32| -> (i8, i8) {
            match activation {
                Activation::None => (-128, 127),
                Activation::Relu => (out_zp.clamp(-128, 127) as i8, 127),
            }
        };
        let bias_range = |id: TensorId| -> Result<BiasSrc> {
            bias_srcs[id.index()].ok_or(NnError::DtypeMismatch {
                context: "bias must be constant i32",
            })
        };
        let output = op.output();
        let (out_off, out_len) = self.activation_range(output)?;
        let kind = match *op {
            Op::Conv2D {
                input,
                filter,
                bias,
                output,
                stride_h,
                stride_w,
                padding,
                activation,
            }
            | Op::DepthwiseConv2D {
                input,
                filter,
                bias,
                output,
                stride_h,
                stride_w,
                padding,
                activation,
                ..
            } => {
                let (it, ft, ot) = (
                    self.model.tensor(input)?,
                    self.model.tensor(filter)?,
                    self.model.tensor(output)?,
                );
                let in_q = it.quant().expect("validated");
                let w_q = ft.quant().expect("validated");
                let out_q = ot.quant().expect("validated");
                let multiplier = FixedMultiplier::from_real(
                    f64::from(in_q.scale) * f64::from(w_q.scale) / f64::from(out_q.scale),
                )?;
                let context = match op {
                    Op::Conv2D { .. } => "Conv2D",
                    _ => "DepthwiseConv2D",
                };
                let ConvGeometry {
                    input_shape,
                    filter_shape,
                    output_shape,
                    stride: _,
                    pad,
                } = conv_geometry(
                    &self.model,
                    input,
                    filter,
                    output,
                    (stride_h, stride_w),
                    padding,
                    context,
                )?;
                let (act_min, act_max) = act_range(activation, out_q.zero_point);
                let depthwise = match *op {
                    Op::DepthwiseConv2D {
                        depth_multiplier, ..
                    } => Some(depth_multiplier),
                    _ => None,
                };
                let filter_buf = self.resolve_filter(filter)?;
                // The fast GEMM hoists the input zero point via per-row
                // filter sums; the filter is constant, so compute them
                // once here instead of on every invoke.
                let row_sums = if depthwise.is_none() && self.kernels.is_fast() {
                    let k = filter_shape[1] * filter_shape[2] * filter_shape[3];
                    let mut sums = vec![0i32; filter_shape[0]];
                    gemm::row_sums(
                        as_i8(self.model.buffer(filter_buf)?),
                        filter_shape[0],
                        k,
                        &mut sums,
                    );
                    sums
                } else {
                    Vec::new()
                };
                StepKind::Conv2D {
                    filter_buf,
                    bias: bias_range(bias)?,
                    input_shape,
                    filter_shape,
                    output_shape,
                    stride: (stride_h, stride_w),
                    pad,
                    input_offset: -in_q.zero_point,
                    output_offset: out_q.zero_point,
                    multiplier,
                    act_min,
                    act_max,
                    depthwise,
                    row_sums,
                }
            }
            Op::FullyConnected {
                input,
                filter,
                bias,
                output,
                activation,
            } => {
                let (it, ft, ot) = (
                    self.model.tensor(input)?,
                    self.model.tensor(filter)?,
                    self.model.tensor(output)?,
                );
                let in_q = it.quant().expect("validated");
                let w_q = ft.quant().expect("validated");
                let out_q = ot.quant().expect("validated");
                let multiplier = FixedMultiplier::from_real(
                    f64::from(in_q.scale) * f64::from(w_q.scale) / f64::from(out_q.scale),
                )?;
                let (act_min, act_max) = act_range(activation, out_q.zero_point);
                StepKind::FullyConnected {
                    filter_buf: self.resolve_filter(filter)?,
                    bias: bias_range(bias)?,
                    in_features: ft.shape()[1],
                    out_features: ft.shape()[0],
                    input_offset: -in_q.zero_point,
                    output_offset: out_q.zero_point,
                    multiplier,
                    act_min,
                    act_max,
                }
            }
            Op::AveragePool2D {
                input,
                output,
                filter_h,
                filter_w,
                stride_h,
                stride_w,
                padding,
            }
            | Op::MaxPool2D {
                input,
                output,
                filter_h,
                filter_w,
                stride_h,
                stride_w,
                padding,
            } => {
                let (it, ot) = (self.model.tensor(input)?, self.model.tensor(output)?);
                let input_shape = shape4(it.shape(), "Pool2D input")?;
                let output_shape = shape4(ot.shape(), "Pool2D output")?;
                let pad = match padding {
                    Padding::Same => (
                        same_padding(input_shape[1], filter_h, stride_h).0,
                        same_padding(input_shape[2], filter_w, stride_w).0,
                    ),
                    Padding::Valid => (0, 0),
                };
                StepKind::Pool2D {
                    input_shape,
                    output_shape,
                    filter: (filter_h, filter_w),
                    stride: (stride_h, stride_w),
                    pad,
                    is_max: matches!(op, Op::MaxPool2D { .. }),
                }
            }
            Op::Softmax { input, .. } => {
                let it = self.model.tensor(input)?;
                let q = it.quant().expect("validated");
                StepKind::Softmax {
                    input_scale: q.scale,
                    input_zp: q.zero_point,
                }
            }
            Op::Reshape { .. } => StepKind::Copy,
        };
        let input = match *op {
            Op::Conv2D { input, .. }
            | Op::DepthwiseConv2D { input, .. }
            | Op::FullyConnected { input, .. }
            | Op::AveragePool2D { input, .. }
            | Op::MaxPool2D { input, .. }
            | Op::Softmax { input, .. }
            | Op::Reshape { input, .. } => self.resolve_src(input)?,
        };
        let step = CompiledStep {
            output,
            input,
            out_off,
            out_len,
            scratch,
            kind,
        };
        self.check_disjoint(&step)?;
        Ok(step)
    }

    /// The wrapped model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Which kernel implementation set this interpreter executes with.
    pub fn kernels(&self) -> KernelSet {
        self.kernels
    }

    /// Bytes of activation arena in use (the "tensor arena" a TFLM port
    /// must reserve inside the enclave).
    pub fn arena_size(&self) -> usize {
        self.plan.arena_size
    }

    /// Bytes of int32 bias data this interpreter had to *decode* into its
    /// fallback pool instead of borrowing from the model's buffers. Zero
    /// for every model loaded from aligned storage (OMGM v2 images and
    /// builder-constructed models) — i.e. construction copied no tensor
    /// data at all. The provisioning bench regression-asserts this.
    pub fn decoded_bias_bytes(&self) -> usize {
        self.bias_pool.len() * std::mem::size_of::<i32>()
    }

    /// Zeroes the activation arena and drops any tap snapshots, so no
    /// residue of a previous query's activations survives. Warm serving
    /// paths call this between queries from different principals.
    pub fn scrub(&mut self) {
        self.arena.fill(0);
        self.tap_results.clear();
    }

    /// Whether every arena byte is zero (test/diagnostic hook for the
    /// scrub-between-queries security property).
    pub fn arena_is_scrubbed(&self) -> bool {
        self.arena.iter().all(|&b| b == 0)
    }

    /// Runs the model and snapshots the named activation tensors right
    /// after their producing op executes — before the arena planner can
    /// reuse their memory. Returns the snapshots in `taps` order.
    ///
    /// This is the embedding-extraction hook: e.g. tapping the post-ReLU
    /// convolution output of `tiny_conv` yields a 4400-dimensional utterance
    /// embedding usable for speaker verification.
    ///
    /// # Errors
    ///
    /// [`NnError::BadInputLength`] on input length mismatch;
    /// [`NnError::UnknownTensor`] if a tap names a constant or unused
    /// tensor.
    pub fn invoke_with_taps(&mut self, input: &[i8], taps: &[TensorId]) -> Result<Vec<Vec<i8>>> {
        // Validate taps up front so failures happen before compute.
        for &tap in taps {
            self.activation_range(tap)?;
        }
        self.pending_taps = taps.to_vec();
        self.tap_results.clear();
        let result = self.invoke(input);
        self.pending_taps.clear();
        result?;
        let mut out = Vec::with_capacity(taps.len());
        for &tap in taps {
            let snapshot = self
                .tap_results
                .iter()
                .find(|(id, _)| *id == tap)
                .map(|(_, data)| data.clone());
            match snapshot {
                Some(data) => out.push(data),
                None => {
                    // The tensor was never produced (e.g. the model input):
                    // read it from the arena directly.
                    let (off, len) = self.activation_range(tap)?;
                    out.push(self.arena[off..off + len].to_vec());
                }
            }
        }
        Ok(out)
    }

    /// Runs the model on quantized input (length must equal the input
    /// tensor's element count). Performs no heap allocation.
    ///
    /// # Errors
    ///
    /// [`NnError::BadInputLength`] on length mismatch.
    pub fn invoke(&mut self, input: &[i8]) -> Result<()> {
        let (in_off, in_len) = self.activation_range(self.model.input)?;
        if input.len() != in_len {
            return Err(NnError::BadInputLength {
                expected: in_len,
                got: input.len(),
            });
        }
        self.arena[in_off..in_off + in_len].copy_from_slice(input);
        // The input's arena slot may be reused by later ops; snapshot it now
        // if it is tapped.
        let model_input = self.model.input;
        if !self.pending_taps.is_empty() {
            Self::record_tap(
                &self.pending_taps,
                &mut self.tap_results,
                &self.arena,
                (in_off, in_len),
                model_input,
            );
        }

        let taps_active = !self.pending_taps.is_empty();
        let profiling = self.profiler.is_some();
        for step_idx in 0..self.steps.len() {
            let step_start = if profiling {
                omg_obs::monotonic_ns()
            } else {
                0
            };
            {
                // Split borrows: the step list, bias pool, and model buffers
                // are read-only; only the arena is written.
                let Interpreter {
                    steps,
                    arena,
                    model,
                    bias_pool,
                    kernels,
                    vtable,
                    ..
                } = self;
                exec_step(
                    &steps[step_idx],
                    arena,
                    &model.buffers,
                    bias_pool,
                    *kernels,
                    vtable,
                );
            }
            if let Some(p) = self.profiler.as_mut() {
                p.record_step(step_idx, omg_obs::monotonic_ns().saturating_sub(step_start));
            }
            if taps_active {
                let step = &self.steps[step_idx];
                let produced = step.output;
                let range = (step.out_off, step.out_len);
                Self::record_tap(
                    &self.pending_taps,
                    &mut self.tap_results,
                    &self.arena,
                    range,
                    produced,
                );
            }
        }
        if let Some(p) = self.profiler.as_mut() {
            p.invokes += 1;
        }
        Ok(())
    }

    fn record_tap(
        pending: &[TensorId],
        results: &mut Vec<(TensorId, Vec<i8>)>,
        arena: &[i8],
        (off, len): (usize, usize),
        produced: TensorId,
    ) {
        if pending.contains(&produced) {
            results.push((produced, arena[off..off + len].to_vec()));
        }
    }

    /// The raw quantized output of the last `invoke`.
    ///
    /// # Errors
    ///
    /// [`NnError::UnknownTensor`] if the output tensor was never planned.
    pub fn output_quantized(&self) -> Result<&[i8]> {
        let (off, len) = self.activation_range(self.model.output)?;
        Ok(&self.arena[off..off + len])
    }

    fn output_quant(&self) -> Result<crate::quantize::QuantParams> {
        self.model
            .tensor(self.model.output)?
            .quant()
            .ok_or_else(|| NnError::MissingQuantization {
                tensor: "output".into(),
            })
    }

    /// The dequantized output of the last `invoke`.
    ///
    /// # Errors
    ///
    /// [`NnError::MissingQuantization`] if the output has no parameters.
    pub fn output_dequantized(&self) -> Result<Vec<f32>> {
        let q = self.output_quant()?;
        Ok(q.dequantize_slice(self.output_quantized()?))
    }

    /// Convenience: runs the model and returns `(argmax index, score)`.
    /// Allocation-free: the argmax is taken over the quantized output
    /// (dequantization is monotonic) and only the winner is dequantized.
    ///
    /// # Errors
    ///
    /// Propagates `invoke` errors.
    pub fn classify(&mut self, input: &[i8]) -> Result<(usize, f32)> {
        self.invoke(input)?;
        let q = self.output_quant()?;
        Ok(argmax_dequantized(self.output_quantized()?, q))
    }
}

/// Last-maximum argmax over the quantized output with the winner's
/// dequantized score (matches `max_by` + `partial_cmp` over the
/// dequantized vector, without materializing it).
fn argmax_dequantized(quantized: &[i8], q: crate::quantize::QuantParams) -> (usize, f32) {
    quantized
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1))
        .map(|(i, &v)| (i, q.dequantize(v)))
        .unwrap_or((0, 0.0))
}

/// Resolves a step's bias slice: borrowed from the model's aligned buffers
/// or (fallback) from the decoded pool.
fn bias_slice<'a>(src: BiasSrc, buffers: &'a [ByteView], bias_pool: &'a [i32]) -> &'a [i32] {
    match src {
        BiasSrc::Borrowed(buf) => as_i32(&buffers[buf]),
        BiasSrc::Pool(start, end) => &bias_pool[start..end],
    }
}

/// Executes one precompiled step. Infallible: every range and parameter was
/// validated at compile time, and the only memory touched is the arena, the
/// model's constant buffers, the bias pool, and the step's planned scratch.
fn exec_step(
    step: &CompiledStep,
    arena: &mut [i8],
    buffers: &[ByteView],
    bias_pool: &[i32],
    kernel_set: KernelSet,
    vt: &'static arch::KernelVTable,
) {
    // Obtain the input, output, and scratch slices via split borrows. A
    // constant input borrows the model buffer instead, leaving the whole
    // arena free for the output and scratch.
    let scratch_range = step.scratch.map(|s| (s.off, s.len)).unwrap_or((0, 0));
    let (input, output, scratch): (&[i8], &mut [i8], &mut [i8]) = match step.input {
        Src::Arena { off, len } => {
            let [inp, out, scr] = split3(
                arena,
                [(off, len), (step.out_off, step.out_len), scratch_range],
            );
            (inp, out, scr)
        }
        Src::Constant { buffer } => {
            let [out, scr, _] =
                split3(arena, [(step.out_off, step.out_len), scratch_range, (0, 0)]);
            (as_i8(&buffers[buffer]), out, scr)
        }
    };
    let fast = kernel_set.is_fast();
    match step.kind {
        StepKind::Conv2D {
            filter_buf,
            bias,
            input_shape,
            filter_shape,
            output_shape,
            stride,
            pad,
            input_offset,
            output_offset,
            multiplier,
            act_min,
            act_max,
            depthwise,
            ref row_sums,
        } => {
            let filter = as_i8(&buffers[filter_buf]);
            let bias = bias_slice(bias, buffers, bias_pool);
            let args = kernels::Conv2DArgs {
                input,
                input_shape,
                filter,
                filter_shape,
                bias,
                output,
                output_shape,
                stride,
                pad,
                input_offset,
                output_offset,
                multiplier,
                act_min,
                act_max,
            };
            match (depthwise, fast) {
                (None, true) => kernels_fast::conv2d_with(vt, args, row_sums, scratch),
                (None, false) => kernels::conv2d(args),
                (Some(mult), _) => {
                    let args = kernels::DepthwiseConv2DArgs {
                        input,
                        input_shape,
                        filter,
                        filter_shape,
                        bias,
                        output,
                        output_shape,
                        depth_multiplier: mult,
                        stride,
                        pad,
                        input_offset,
                        output_offset,
                        multiplier,
                        act_min,
                        act_max,
                    };
                    if fast {
                        kernels_fast::depthwise_conv2d(args);
                    } else {
                        kernels::depthwise_conv2d(args);
                    }
                }
            }
        }
        StepKind::FullyConnected {
            filter_buf,
            bias,
            in_features,
            out_features,
            input_offset,
            output_offset,
            multiplier,
            act_min,
            act_max,
        } => {
            let filter = as_i8(&buffers[filter_buf]);
            let bias = bias_slice(bias, buffers, bias_pool);
            let args = kernels::FullyConnectedArgs {
                input,
                filter,
                bias,
                output,
                in_features,
                out_features,
                input_offset,
                output_offset,
                multiplier,
                act_min,
                act_max,
            };
            if fast {
                kernels_fast::fully_connected_with(vt, args);
            } else {
                kernels::fully_connected(args);
            }
        }
        StepKind::Pool2D {
            input_shape,
            output_shape,
            filter,
            stride,
            pad,
            is_max,
        } => {
            let args = kernels::Pool2DArgs {
                input,
                input_shape,
                output,
                output_shape,
                filter,
                stride,
                pad,
            };
            match (is_max, fast) {
                (true, true) => kernels_fast::max_pool2d(args),
                (true, false) => kernels::max_pool2d(args),
                (false, true) => kernels_fast::average_pool2d(args),
                (false, false) => kernels::average_pool2d(args),
            }
        }
        StepKind::Softmax {
            input_scale,
            input_zp,
        } => {
            if fast {
                kernels_fast::softmax(input, input_scale, input_zp, output);
            } else {
                kernels::softmax(input, input_scale, input_zp, output);
            }
        }
        StepKind::Copy => {
            output.copy_from_slice(input);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Activation, Model, Op, Padding};
    use crate::quantize::QuantParams;
    use crate::tensor::DType;

    fn qp(scale: f32, zp: i32) -> QuantParams {
        QuantParams {
            scale,
            zero_point: zp,
        }
    }

    /// Builds a 2-layer model: conv (identity 1x1) -> fc.
    fn tiny_model() -> Model {
        let mut b = Model::builder();
        let input = b.add_activation("in", vec![1, 2, 2, 1], DType::I8, Some(qp(1.0, 0)));
        let cf = b.add_weight_i8(
            "conv/w",
            vec![1, 1, 1, 1],
            vec![1],
            QuantParams::symmetric(1.0),
        );
        let cb = b.add_weight_i32("conv/b", vec![1], vec![0]);
        let conv_out = b.add_activation("conv", vec![1, 2, 2, 1], DType::I8, Some(qp(1.0, 0)));
        b.add_op(Op::Conv2D {
            input,
            filter: cf,
            bias: cb,
            output: conv_out,
            stride_h: 1,
            stride_w: 1,
            padding: Padding::Valid,
            activation: Activation::None,
        });
        let fw = b.add_weight_i8(
            "fc/w",
            vec![2, 4],
            vec![1, 1, 1, 1, 1, -1, 1, -1],
            QuantParams::symmetric(1.0),
        );
        let fb = b.add_weight_i32("fc/b", vec![2], vec![0, 0]);
        let fc_out = b.add_activation("fc", vec![1, 2], DType::I8, Some(qp(1.0, 0)));
        b.add_op(Op::FullyConnected {
            input: conv_out,
            filter: fw,
            bias: fb,
            output: fc_out,
            activation: Activation::None,
        });
        b.set_input(input);
        b.set_output(fc_out);
        b.set_labels(["sum", "diff"]);
        b.build().unwrap()
    }

    #[test]
    fn end_to_end_two_layer() {
        let mut interp = Interpreter::new(tiny_model()).unwrap();
        interp.invoke(&[1, 2, 3, 4]).unwrap();
        // fc row0 = sum = 10; row1 = 1-2+3-4 = -2.
        assert_eq!(interp.output_quantized().unwrap(), &[10, -2]);
        let deq = interp.output_dequantized().unwrap();
        assert_eq!(deq, vec![10.0, -2.0]);
    }

    #[test]
    fn classify_returns_argmax() {
        let mut interp = Interpreter::new(tiny_model()).unwrap();
        let (idx, score) = interp.classify(&[1, 2, 3, 4]).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(score, 10.0);
    }

    #[test]
    fn bad_input_length_rejected() {
        let mut interp = Interpreter::new(tiny_model()).unwrap();
        assert!(matches!(
            interp.invoke(&[1, 2, 3]),
            Err(NnError::BadInputLength {
                expected: 4,
                got: 3
            })
        ));
    }

    #[test]
    fn invoke_is_deterministic_and_reusable() {
        let mut interp = Interpreter::new(tiny_model()).unwrap();
        interp.invoke(&[5, 5, 5, 5]).unwrap();
        let first = interp.output_quantized().unwrap().to_vec();
        interp.invoke(&[1, 1, 1, 1]).unwrap();
        interp.invoke(&[5, 5, 5, 5]).unwrap();
        assert_eq!(interp.output_quantized().unwrap(), &first[..]);
    }

    #[test]
    fn arena_smaller_than_total_activations() {
        // in (4) + conv (4) + fc (2) = 10 total, but in/fc don't coexist
        // with everything simultaneously. The tiny model's 1x1/s1/p0 conv
        // reads its input in place, so even the fast interpreter plans no
        // im2col scratch and the two kernel sets agree on the arena.
        let reference = Interpreter::with_kernels(tiny_model(), KernelSet::Reference).unwrap();
        assert!(reference.arena_size() <= 10);
        assert!(reference.arena_size() >= 8); // conv co-lives with in and fc

        let fast = Interpreter::with_kernels(tiny_model(), KernelSet::Simd).unwrap();
        assert_eq!(fast.arena_size(), reference.arena_size());
    }

    #[test]
    fn kernel_set_env_parsing_and_default() {
        assert_eq!(KernelSet::parse(None), KernelSet::Simd);
        assert_eq!(KernelSet::parse(Some("simd")), KernelSet::Simd);
        assert_eq!(KernelSet::parse(Some("fast")), KernelSet::Simd); // legacy alias
        assert_eq!(KernelSet::parse(Some("portable")), KernelSet::Portable);
        assert_eq!(KernelSet::parse(Some("reference")), KernelSet::Reference);
        assert_eq!(KernelSet::parse(Some("ref")), KernelSet::Reference);
        assert_eq!(KernelSet::parse(Some("garbage")), KernelSet::Simd);
        // Every tier resolves to a concrete vtable; only Simd may differ
        // from the portable lanes code, and only when the CPU supports it.
        assert_eq!(KernelSet::Portable.vtable().name, "portable");
        assert_eq!(KernelSet::Reference.vtable().name, "portable");
        // The constructor seam records the selection.
        let interp = Interpreter::with_kernels(tiny_model(), KernelSet::Reference).unwrap();
        assert_eq!(interp.kernels(), KernelSet::Reference);
        // `new` honors the real OMG_KERNELS toggle, so assert against it
        // (CI runs this suite once more with OMG_KERNELS=portable pinned).
        let expect = KernelSet::parse(std::env::var("OMG_KERNELS").ok().as_deref());
        assert_eq!(Interpreter::new(tiny_model()).unwrap().kernels(), expect);
    }

    #[test]
    fn fast_and_reference_kernels_agree_end_to_end() {
        let mut fast = Interpreter::with_kernels(tiny_model(), KernelSet::Simd).unwrap();
        let mut reference = Interpreter::with_kernels(tiny_model(), KernelSet::Reference).unwrap();
        for input in [[1i8, 2, 3, 4], [-5, 0, 127, -128], [9, 9, 9, 9]] {
            fast.invoke(&input).unwrap();
            reference.invoke(&input).unwrap();
            assert_eq!(
                fast.output_quantized().unwrap(),
                reference.output_quantized().unwrap()
            );
        }
    }

    #[test]
    fn softmax_pipeline() {
        let mut b = Model::builder();
        let input = b.add_activation("in", vec![1, 4], DType::I8, Some(qp(0.1, 0)));
        let out = b.add_activation("probs", vec![1, 4], DType::I8, Some(qp(1.0 / 256.0, -128)));
        b.add_op(Op::Softmax { input, output: out });
        b.set_input(input);
        b.set_output(out);
        let mut interp = Interpreter::new(b.build().unwrap()).unwrap();
        interp.invoke(&[0, 10, 20, 30]).unwrap();
        let probs = interp.output_dequantized().unwrap();
        let total: f32 = probs.iter().sum();
        assert!((total - 1.0).abs() < 0.05);
        assert!(probs[3] > probs[2]);
    }

    #[test]
    fn reshape_copies() {
        let mut b = Model::builder();
        let input = b.add_activation("in", vec![1, 2, 2, 1], DType::I8, Some(qp(1.0, 0)));
        let out = b.add_activation("flat", vec![1, 4], DType::I8, Some(qp(1.0, 0)));
        b.add_op(Op::Reshape { input, output: out });
        b.set_input(input);
        b.set_output(out);
        let mut interp = Interpreter::new(b.build().unwrap()).unwrap();
        interp.invoke(&[9, 8, 7, 6]).unwrap();
        assert_eq!(interp.output_quantized().unwrap(), &[9, 8, 7, 6]);
    }

    #[test]
    fn taps_snapshot_intermediate_activations() {
        let model = tiny_model();
        // Tap the conv output (tensor id 3 in tiny_model construction order:
        // in=0, conv/w=1, conv/b=2, conv=3).
        let conv_out = TensorId(3);
        let mut interp = Interpreter::new(model).unwrap();
        let taps = interp.invoke_with_taps(&[1, 2, 3, 4], &[conv_out]).unwrap();
        assert_eq!(taps.len(), 1);
        // Identity conv: the tap equals the input.
        assert_eq!(taps[0], vec![1, 2, 3, 4]);
        // Final output unaffected.
        assert_eq!(interp.output_quantized().unwrap(), &[10, -2]);
    }

    #[test]
    fn taps_reject_constant_tensors() {
        let model = tiny_model();
        let weight_tensor = TensorId(1);
        let mut interp = Interpreter::new(model).unwrap();
        assert!(interp
            .invoke_with_taps(&[1, 2, 3, 4], &[weight_tensor])
            .is_err());
    }

    #[test]
    fn tapping_the_input_returns_it() {
        let model = tiny_model();
        let input_tensor = TensorId(0);
        let mut interp = Interpreter::new(model).unwrap();
        let taps = interp
            .invoke_with_taps(&[5, 6, 7, 8], &[input_tensor])
            .unwrap();
        assert_eq!(taps[0], vec![5, 6, 7, 8]);
    }

    #[test]
    fn max_pool_pipeline() {
        let mut b = Model::builder();
        let input = b.add_activation("in", vec![1, 2, 2, 1], DType::I8, Some(qp(1.0, 0)));
        let out = b.add_activation("pooled", vec![1, 1, 1, 1], DType::I8, Some(qp(1.0, 0)));
        b.add_op(Op::MaxPool2D {
            input,
            output: out,
            filter_h: 2,
            filter_w: 2,
            stride_h: 2,
            stride_w: 2,
            padding: Padding::Valid,
        });
        b.set_input(input);
        b.set_output(out);
        let mut interp = Interpreter::new(b.build().unwrap()).unwrap();
        interp.invoke(&[3, 1, 4, 1]).unwrap();
        assert_eq!(interp.output_quantized().unwrap(), &[4]);
    }

    #[test]
    fn scrub_clears_the_arena() {
        let mut interp = Interpreter::new(tiny_model()).unwrap();
        interp.invoke(&[9, 9, 9, 9]).unwrap();
        assert!(!interp.arena_is_scrubbed(), "activations present after run");
        interp.scrub();
        assert!(interp.arena_is_scrubbed());
        // Scrubbing does not poison later runs.
        interp.invoke(&[1, 2, 3, 4]).unwrap();
        assert_eq!(interp.output_quantized().unwrap(), &[10, -2]);
    }

    #[test]
    fn constant_data_input_is_borrowed_not_copied() {
        // A model whose op reads a constant tensor directly (softmax over a
        // constant): exercises the Src::Constant execution path.
        let mut b = Model::builder();
        let konst = b.add_weight_i8("k", vec![1, 4], vec![0, 10, 20, 30], qp(0.1, 0));
        let input = b.add_activation("in", vec![1, 1], DType::I8, Some(qp(1.0, 0)));
        let probs = b.add_activation("probs", vec![1, 4], DType::I8, Some(qp(1.0 / 256.0, -128)));
        b.add_op(Op::Softmax {
            input: konst,
            output: probs,
        });
        b.set_input(input);
        b.set_output(probs);
        let mut interp = Interpreter::new(b.build().unwrap()).unwrap();
        interp.invoke(&[0]).unwrap();
        let out = interp.output_dequantized().unwrap();
        assert!(out[3] > out[0]);
    }
}
