//! Model graphs: operators, tensors, constant buffers, and the builder.
//!
//! A [`Model`] is the in-memory equivalent of a `.tflite` micro model: a
//! flat list of tensors (activations and constants), a list of weight
//! buffers, and a topologically ordered list of ops. The paper's
//! `tiny_conv` keyword-spotting network is one Conv2D (8 filters of 8×10,
//! stride 2×2) with fused ReLU, a FullyConnected layer to 12 labels, and a
//! Softmax (paper §VI).

use std::sync::Arc;

use crate::buffer::{AlignedBytes, ByteView, BUFFER_ALIGN};
use crate::error::{NnError, Result};
use crate::quantize::QuantParams;
use crate::tensor::{DType, TensorId, TensorInfo};

/// Spatial padding scheme (TensorFlow semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Padding {
    /// Output size `ceil(in / stride)`; zero-pads as needed.
    Same,
    /// No padding; output size `ceil((in - k + 1) / stride)`.
    Valid,
}

impl Padding {
    pub(crate) fn tag(self) -> u8 {
        match self {
            Padding::Same => 0,
            Padding::Valid => 1,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Padding::Same),
            1 => Some(Padding::Valid),
            _ => None,
        }
    }
}

/// Fused activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity.
    None,
    /// Rectified linear unit, fused into the producing op.
    Relu,
}

impl Activation {
    pub(crate) fn tag(self) -> u8 {
        match self {
            Activation::None => 0,
            Activation::Relu => 1,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Activation::None),
            1 => Some(Activation::Relu),
            _ => None,
        }
    }
}

/// One operator in the graph. Tensor ids index into the model's tensor list.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// 2-D convolution, NHWC input, OHWI filter.
    Conv2D {
        /// Input activation tensor.
        input: TensorId,
        /// Filter weights `[out_c, kh, kw, in_c]`.
        filter: TensorId,
        /// Per-output-channel bias (i32).
        bias: TensorId,
        /// Output activation tensor.
        output: TensorId,
        /// Vertical stride.
        stride_h: usize,
        /// Horizontal stride.
        stride_w: usize,
        /// Padding scheme.
        padding: Padding,
        /// Fused activation.
        activation: Activation,
    },
    /// Depthwise 2-D convolution (filter `[1, kh, kw, channels]`).
    DepthwiseConv2D {
        /// Input activation tensor.
        input: TensorId,
        /// Filter weights `[1, kh, kw, in_c * multiplier]`.
        filter: TensorId,
        /// Per-channel bias (i32).
        bias: TensorId,
        /// Output activation tensor.
        output: TensorId,
        /// Vertical stride.
        stride_h: usize,
        /// Horizontal stride.
        stride_w: usize,
        /// Channel multiplier.
        depth_multiplier: usize,
        /// Padding scheme.
        padding: Padding,
        /// Fused activation.
        activation: Activation,
    },
    /// Fully connected layer: `output = input × filterᵀ + bias`.
    FullyConnected {
        /// Input activation tensor (flattened).
        input: TensorId,
        /// Weights `[out_features, in_features]`.
        filter: TensorId,
        /// Bias (i32).
        bias: TensorId,
        /// Output activation tensor.
        output: TensorId,
        /// Fused activation.
        activation: Activation,
    },
    /// Average pooling.
    AveragePool2D {
        /// Input activation tensor.
        input: TensorId,
        /// Output activation tensor.
        output: TensorId,
        /// Pool window height.
        filter_h: usize,
        /// Pool window width.
        filter_w: usize,
        /// Vertical stride.
        stride_h: usize,
        /// Horizontal stride.
        stride_w: usize,
        /// Padding scheme.
        padding: Padding,
    },
    /// Max pooling.
    MaxPool2D {
        /// Input activation tensor.
        input: TensorId,
        /// Output activation tensor.
        output: TensorId,
        /// Pool window height.
        filter_h: usize,
        /// Pool window width.
        filter_w: usize,
        /// Vertical stride.
        stride_h: usize,
        /// Horizontal stride.
        stride_w: usize,
        /// Padding scheme.
        padding: Padding,
    },
    /// Softmax over the last dimension; output is quantized with the fixed
    /// TFLite convention (scale 1/256, zero point −128).
    Softmax {
        /// Input logits.
        input: TensorId,
        /// Output probabilities.
        output: TensorId,
    },
    /// Shape change without data movement.
    Reshape {
        /// Input tensor.
        input: TensorId,
        /// Output tensor (same element count).
        output: TensorId,
    },
}

impl Op {
    /// Tensors read by this op.
    pub fn inputs(&self) -> Vec<TensorId> {
        match *self {
            Op::Conv2D {
                input,
                filter,
                bias,
                ..
            }
            | Op::DepthwiseConv2D {
                input,
                filter,
                bias,
                ..
            }
            | Op::FullyConnected {
                input,
                filter,
                bias,
                ..
            } => vec![input, filter, bias],
            Op::AveragePool2D { input, .. }
            | Op::MaxPool2D { input, .. }
            | Op::Softmax { input, .. }
            | Op::Reshape { input, .. } => vec![input],
        }
    }

    /// Tensor written by this op.
    pub fn output(&self) -> TensorId {
        match *self {
            Op::Conv2D { output, .. }
            | Op::DepthwiseConv2D { output, .. }
            | Op::FullyConnected { output, .. }
            | Op::AveragePool2D { output, .. }
            | Op::MaxPool2D { output, .. }
            | Op::Softmax { output, .. }
            | Op::Reshape { output, .. } => output,
        }
    }

    /// Operator name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Conv2D { .. } => "Conv2D",
            Op::DepthwiseConv2D { .. } => "DepthwiseConv2D",
            Op::FullyConnected { .. } => "FullyConnected",
            Op::AveragePool2D { .. } => "AveragePool2D",
            Op::MaxPool2D { .. } => "MaxPool2D",
            Op::Softmax { .. } => "Softmax",
            Op::Reshape { .. } => "Reshape",
        }
    }
}

/// Computes the output spatial size of a windowed op.
pub fn conv_output_size(input: usize, kernel: usize, stride: usize, padding: Padding) -> usize {
    match padding {
        Padding::Same => input.div_ceil(stride),
        Padding::Valid => (input.saturating_sub(kernel) + stride) / stride,
    }
}

/// Computes `(pad_before, pad_after)` for a dimension under SAME padding.
pub fn same_padding(input: usize, kernel: usize, stride: usize) -> (usize, usize) {
    let output = input.div_ceil(stride);
    let total = ((output - 1) * stride + kernel).saturating_sub(input);
    (total / 2, total - total / 2)
}

/// Per-buffer layout promises carried in the OMGM v2 header, so vector
/// kernels can assume alignment and row pitch without re-deriving them
/// from tensor shapes at dispatch time.
///
/// Hints are *claims the blob makes about its own layout*;
/// `Model::validate` rejects any hint the actual section placement and
/// tensor shapes do not back up, so a hint in a validated model is a fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferLayout {
    /// Guaranteed alignment (power of two, ≤ [`BUFFER_ALIGN`]) of the
    /// buffer's first byte.
    pub align: u32,
    /// Bytes between consecutive leading-dimension rows. Rows are packed
    /// dense (stride == row byte width); rank-1 buffers report their full
    /// byte length as a single row.
    pub row_stride: u32,
}

/// The canonical hints for a tensor/buffer set: every buffer starts at a
/// [`BUFFER_ALIGN`]ed address (both `AlignedBytes` allocations and v2
/// image windows guarantee this), and rows are packed dense.
pub(crate) fn canonical_layout_hints(
    tensors: &[TensorInfo],
    buffers: &[ByteView],
) -> Vec<BufferLayout> {
    let mut hints: Vec<BufferLayout> = buffers
        .iter()
        .map(|b| BufferLayout {
            align: BUFFER_ALIGN as u32,
            row_stride: b.len() as u32,
        })
        .collect();
    for t in tensors {
        let Some(b) = t.buffer() else { continue };
        let rows = t.shape().first().copied().unwrap_or(0);
        if t.shape().len() >= 2 && rows > 0 {
            hints[b].row_stride = (t.byte_size() / rows) as u32;
        }
    }
    hints
}

/// A complete, validated model.
///
/// Constant buffers are `ByteView`s into 64-byte-aligned storage: models
/// deserialized from an OMGM v2 blob borrow windows of one shared decrypted
/// image (see [`crate::buffer::ModelBuf`]), and cloning a model is a
/// refcount bump per buffer rather than a copy of the weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    pub(crate) tensors: Vec<TensorInfo>,
    pub(crate) buffers: Vec<ByteView>,
    pub(crate) layout_hints: Vec<BufferLayout>,
    pub(crate) ops: Vec<Op>,
    pub(crate) input: TensorId,
    pub(crate) output: TensorId,
    pub(crate) labels: Vec<Arc<str>>,
    pub(crate) description: String,
}

impl Model {
    /// Starts building a model.
    pub fn builder() -> ModelBuilder {
        ModelBuilder::new()
    }

    /// Tensor metadata by id.
    ///
    /// # Errors
    ///
    /// [`NnError::UnknownTensor`] for out-of-range ids.
    pub fn tensor(&self, id: TensorId) -> Result<&TensorInfo> {
        self.tensors
            .get(id.0)
            .ok_or(NnError::UnknownTensor { id: id.0 })
    }

    /// All tensors.
    pub fn tensors(&self) -> &[TensorInfo] {
        &self.tensors
    }

    /// The ops in execution order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The model input tensor.
    pub fn input(&self) -> TensorId {
        self.input
    }

    /// The model output tensor.
    pub fn output(&self) -> TensorId {
        self.output
    }

    /// Class labels (e.g. the 12 keyword classes), interned as `Arc<str>`
    /// so serving paths can hand out a label without allocating: cloning an
    /// `Arc<str>` is a refcount bump, not a string copy.
    pub fn labels(&self) -> &[Arc<str>] {
        &self.labels
    }

    /// Free-text description.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Per-buffer layout hints (alignment + row stride), index-parallel
    /// with the constant buffers. Validated against the actual layout, so
    /// SIMD kernels may rely on them.
    pub fn layout_hints(&self) -> &[BufferLayout] {
        &self.layout_hints
    }

    /// Raw constant buffer by index.
    pub(crate) fn buffer(&self, idx: usize) -> Result<&[u8]> {
        self.buffers
            .get(idx)
            .map(ByteView::as_slice)
            .ok_or(NnError::MalformedModel("buffer index out of range"))
    }

    /// Whether every constant buffer of `self` and `other` is a window into
    /// the *same backing allocation* — i.e. the two models share one
    /// decrypted image instead of holding independent weight copies. This
    /// is the property the fast provisioning path guarantees for an
    /// N-device fleet (memory does not scale N× with model size).
    pub fn shares_storage_with(&self, other: &Model) -> bool {
        self.buffers.len() == other.buffers.len()
            && self
                .buffers
                .iter()
                .zip(&other.buffers)
                .all(|(a, b)| a.same_backing(b))
    }

    /// Raw constant data backing a weight tensor, if it is constant.
    ///
    /// # Errors
    ///
    /// [`NnError::UnknownTensor`] for out-of-range ids.
    pub fn weight_data(&self, id: TensorId) -> Result<Option<&[u8]>> {
        match self.tensor(id)?.buffer() {
            Some(idx) => Ok(Some(self.buffer(idx)?)),
            None => Ok(None),
        }
    }

    /// Total bytes of constant data (the "model size" the paper reports as
    /// ≈49 kB for `tiny_conv`).
    pub fn weight_bytes(&self) -> usize {
        self.buffers.iter().map(|b| b.len()).sum()
    }

    /// Runs full structural validation: every tensor id in range, constant
    /// buffers sized to their tensors, and every op's shape/dtype/quant
    /// preconditions. Called by [`ModelBuilder::build`] and by
    /// [`crate::format::deserialize`], so a `Model` in hand is always valid
    /// and the interpreter can precompile steps without re-checking.
    pub(crate) fn validate(&self) -> Result<()> {
        let check = |id: TensorId| -> Result<&TensorInfo> {
            self.tensors
                .get(id.0)
                .ok_or(NnError::UnknownTensor { id: id.0 })
        };
        check(self.input)?;
        check(self.output)?;
        for t in &self.tensors {
            // Dequantization is `scale * (q - zp)`: a non-positive or
            // non-finite scale would silently invert or poison every
            // downstream comparison (classify takes argmax in the
            // quantized domain), so a tampered blob must be rejected here.
            if let Some(q) = t.quant() {
                if !(q.scale.is_finite() && q.scale > 0.0) {
                    return Err(NnError::MalformedModel(
                        "quantization scale must be positive and finite",
                    ));
                }
                // An i8 tensor's zero point must itself be representable
                // in i8: the kernels pack padding as the zero point and
                // hoist `-zp` offsets, both of which assume it fits. A
                // tampered blob carrying an out-of-range zp must be
                // rejected, not silently truncated.
                if t.dtype() == DType::I8 && !(-128..=127).contains(&q.zero_point) {
                    return Err(NnError::MalformedModel(
                        "i8 quantization zero point out of range",
                    ));
                }
            }
            if let Some(b) = t.buffer() {
                let buf = self.buffer(b)?;
                if buf.len() != t.byte_size() {
                    return Err(NnError::BufferSizeMismatch {
                        tensor: t.name().to_owned(),
                        expected: t.byte_size(),
                        got: buf.len(),
                    });
                }
            }
        }
        // Layout hints are *promises* SIMD kernels are allowed to build on;
        // a v2 header whose hints contradict the actual section layout is
        // hostile (or corrupt) and must be rejected, not trusted.
        if self.layout_hints.len() != self.buffers.len() {
            return Err(NnError::MalformedModel(
                "layout hint count must match buffer count",
            ));
        }
        let canonical = canonical_layout_hints(&self.tensors, &self.buffers);
        for ((hint, want), buf) in self.layout_hints.iter().zip(&canonical).zip(&self.buffers) {
            if !hint.align.is_power_of_two() || hint.align as usize > BUFFER_ALIGN {
                return Err(NnError::MalformedModel(
                    "layout hint alignment must be a power of two no larger than 64",
                ));
            }
            let data = buf.as_slice();
            if !data.is_empty() && !(data.as_ptr() as usize).is_multiple_of(hint.align as usize) {
                return Err(NnError::MalformedModel(
                    "buffer address does not satisfy its alignment hint",
                ));
            }
            if hint.row_stride != want.row_stride {
                return Err(NnError::MalformedModel(
                    "layout hint row stride contradicts the tensor layout",
                ));
            }
        }
        for op in &self.ops {
            for id in op.inputs() {
                check(id)?;
            }
            check(op.output())?;
            self.validate_op(op)?;
        }
        Ok(())
    }

    fn validate_op(&self, op: &Op) -> Result<()> {
        let t = |id: TensorId| self.tensor(id);
        let want_quant = |id: TensorId| -> Result<QuantParams> {
            t(id)?.quant().ok_or_else(|| NnError::MissingQuantization {
                tensor: t(id).map(|x| x.name().to_owned()).unwrap_or_default(),
            })
        };
        match *op {
            Op::Conv2D {
                input,
                filter,
                bias,
                output,
                stride_h,
                stride_w,
                padding,
                ..
            } => {
                let (i, f, b, o) = (t(input)?, t(filter)?, t(bias)?, t(output)?);
                if i.dtype() != DType::I8 || f.dtype() != DType::I8 || o.dtype() != DType::I8 {
                    return Err(NnError::DtypeMismatch {
                        context: "Conv2D activations/weights",
                    });
                }
                if b.dtype() != DType::I32 {
                    return Err(NnError::DtypeMismatch {
                        context: "Conv2D bias",
                    });
                }
                let (is, fs, os) = (i.shape(), f.shape(), o.shape());
                if is.len() != 4 || fs.len() != 4 || os.len() != 4 {
                    return Err(NnError::ShapeMismatch {
                        context: "Conv2D",
                        detail: "tensors must be rank 4 (NHWC / OHWI)".into(),
                    });
                }
                if fs[3] != is[3] {
                    return Err(NnError::ShapeMismatch {
                        context: "Conv2D",
                        detail: format!("filter in_c {} != input channels {}", fs[3], is[3]),
                    });
                }
                let oh = conv_output_size(is[1], fs[1], stride_h, padding);
                let ow = conv_output_size(is[2], fs[2], stride_w, padding);
                if os[1] != oh || os[2] != ow || os[3] != fs[0] || os[0] != is[0] {
                    return Err(NnError::ShapeMismatch {
                        context: "Conv2D",
                        detail: format!(
                            "expected output [{}, {}, {}, {}], got {:?}",
                            is[0], oh, ow, fs[0], os
                        ),
                    });
                }
                if b.elem_count() != fs[0] {
                    return Err(NnError::ShapeMismatch {
                        context: "Conv2D",
                        detail: format!("bias has {} elements, want {}", b.elem_count(), fs[0]),
                    });
                }
                want_quant(input)?;
                want_quant(filter)?;
                want_quant(output)?;
            }
            Op::DepthwiseConv2D {
                input,
                filter,
                bias,
                output,
                stride_h,
                stride_w,
                padding,
                depth_multiplier,
                ..
            } => {
                let (i, f, b, o) = (t(input)?, t(filter)?, t(bias)?, t(output)?);
                let (is, fs, os) = (i.shape(), f.shape(), o.shape());
                if is.len() != 4 || fs.len() != 4 || os.len() != 4 {
                    return Err(NnError::ShapeMismatch {
                        context: "DepthwiseConv2D",
                        detail: "tensors must be rank 4".into(),
                    });
                }
                let out_c = is[3] * depth_multiplier;
                if fs[3] != out_c {
                    return Err(NnError::ShapeMismatch {
                        context: "DepthwiseConv2D",
                        detail: format!("filter channels {} != in_c*mult {}", fs[3], out_c),
                    });
                }
                let oh = conv_output_size(is[1], fs[1], stride_h, padding);
                let ow = conv_output_size(is[2], fs[2], stride_w, padding);
                if os != [is[0], oh, ow, out_c] {
                    return Err(NnError::ShapeMismatch {
                        context: "DepthwiseConv2D",
                        detail: format!("expected [{}, {oh}, {ow}, {out_c}], got {os:?}", is[0]),
                    });
                }
                if b.elem_count() != out_c {
                    return Err(NnError::ShapeMismatch {
                        context: "DepthwiseConv2D",
                        detail: "bias size mismatch".into(),
                    });
                }
                want_quant(input)?;
                want_quant(filter)?;
                want_quant(output)?;
            }
            Op::FullyConnected {
                input,
                filter,
                bias,
                output,
                ..
            } => {
                let (i, f, b, o) = (t(input)?, t(filter)?, t(bias)?, t(output)?);
                if f.shape().len() != 2 {
                    return Err(NnError::ShapeMismatch {
                        context: "FullyConnected",
                        detail: "filter must be rank 2 [out, in]".into(),
                    });
                }
                let (out_f, in_f) = (f.shape()[0], f.shape()[1]);
                if i.elem_count() % in_f != 0 {
                    return Err(NnError::ShapeMismatch {
                        context: "FullyConnected",
                        detail: format!(
                            "input of {} elements not divisible by in features {in_f}",
                            i.elem_count()
                        ),
                    });
                }
                if o.elem_count() != (i.elem_count() / in_f) * out_f {
                    return Err(NnError::ShapeMismatch {
                        context: "FullyConnected",
                        detail: "output element count mismatch".into(),
                    });
                }
                if b.elem_count() != out_f {
                    return Err(NnError::ShapeMismatch {
                        context: "FullyConnected",
                        detail: "bias size mismatch".into(),
                    });
                }
                want_quant(input)?;
                want_quant(filter)?;
                want_quant(output)?;
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
                let (i, o) = (t(input)?, t(output)?);
                let (is, os) = (i.shape(), o.shape());
                if is.len() != 4 || os.len() != 4 {
                    return Err(NnError::ShapeMismatch {
                        context: "Pool2D",
                        detail: "tensors must be rank 4".into(),
                    });
                }
                let oh = conv_output_size(is[1], filter_h, stride_h, padding);
                let ow = conv_output_size(is[2], filter_w, stride_w, padding);
                if os != [is[0], oh, ow, is[3]] {
                    return Err(NnError::ShapeMismatch {
                        context: "Pool2D",
                        detail: format!("expected [{}, {oh}, {ow}, {}], got {os:?}", is[0], is[3]),
                    });
                }
            }
            Op::Softmax { input, output } => {
                let (i, o) = (t(input)?, t(output)?);
                if i.elem_count() != o.elem_count() {
                    return Err(NnError::ShapeMismatch {
                        context: "Softmax",
                        detail: "element counts differ".into(),
                    });
                }
                want_quant(input)?;
                want_quant(output)?;
            }
            Op::Reshape { input, output } => {
                let (i, o) = (t(input)?, t(output)?);
                if i.elem_count() != o.elem_count() {
                    return Err(NnError::ShapeMismatch {
                        context: "Reshape",
                        detail: "element counts differ".into(),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Incremental builder for [`Model`].
///
/// # Examples
///
/// ```
/// use omg_nn::model::{Activation, Model, Op};
/// use omg_nn::quantize::QuantParams;
/// use omg_nn::tensor::DType;
///
/// let mut b = Model::builder();
/// let input = b.add_activation("in", vec![1, 4], DType::I8,
///     Some(QuantParams { scale: 0.5, zero_point: 0 }));
/// let w = b.add_weight_i8("w", vec![2, 4], vec![1i8; 8], QuantParams::symmetric(0.25));
/// let bias = b.add_weight_i32("b", vec![2], vec![0i32; 2]);
/// let out = b.add_activation("out", vec![1, 2], DType::I8,
///     Some(QuantParams { scale: 1.0, zero_point: 0 }));
/// b.add_op(Op::FullyConnected { input, filter: w, bias, output: out, activation: Activation::None });
/// b.set_input(input);
/// b.set_output(out);
/// let model = b.build()?;
/// assert_eq!(model.ops().len(), 1);
/// # Ok::<(), omg_nn::NnError>(())
/// ```
#[derive(Debug, Default)]
pub struct ModelBuilder {
    tensors: Vec<TensorInfo>,
    buffers: Vec<ByteView>,
    ops: Vec<Op>,
    input: Option<TensorId>,
    output: Option<TensorId>,
    labels: Vec<Arc<str>>,
    description: String,
}

impl ModelBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an activation tensor (planned into the arena at run time).
    pub fn add_activation(
        &mut self,
        name: &str,
        shape: Vec<usize>,
        dtype: DType,
        quant: Option<QuantParams>,
    ) -> TensorId {
        self.tensors
            .push(TensorInfo::new(name.to_owned(), shape, dtype, quant, None));
        TensorId(self.tensors.len() - 1)
    }

    /// Adds an int8 weight tensor with its constant data.
    pub fn add_weight_i8(
        &mut self,
        name: &str,
        shape: Vec<usize>,
        data: Vec<i8>,
        quant: QuantParams,
    ) -> TensorId {
        let mut bytes = AlignedBytes::zeroed(data.len());
        for (dst, &v) in bytes.iter_mut().zip(&data) {
            *dst = v as u8;
        }
        self.buffers.push(ByteView::owned(bytes));
        self.tensors.push(TensorInfo::new(
            name.to_owned(),
            shape,
            DType::I8,
            Some(quant),
            Some(self.buffers.len() - 1),
        ));
        TensorId(self.tensors.len() - 1)
    }

    /// Adds an int32 bias tensor with its constant data (stored
    /// little-endian in aligned storage, so the interpreter can borrow it
    /// in place).
    pub fn add_weight_i32(&mut self, name: &str, shape: Vec<usize>, data: Vec<i32>) -> TensorId {
        let mut bytes = AlignedBytes::zeroed(data.len() * 4);
        for (dst, v) in bytes.chunks_exact_mut(4).zip(&data) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        self.buffers.push(ByteView::owned(bytes));
        self.tensors.push(TensorInfo::new(
            name.to_owned(),
            shape,
            DType::I32,
            None,
            Some(self.buffers.len() - 1),
        ));
        TensorId(self.tensors.len() - 1)
    }

    /// Appends an op (execution order is insertion order).
    pub fn add_op(&mut self, op: Op) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Declares the model input tensor.
    pub fn set_input(&mut self, id: TensorId) -> &mut Self {
        self.input = Some(id);
        self
    }

    /// Declares the model output tensor.
    pub fn set_output(&mut self, id: TensorId) -> &mut Self {
        self.output = Some(id);
        self
    }

    /// Sets the class labels (interned as `Arc<str>`).
    pub fn set_labels<I: IntoIterator<Item = S>, S: Into<Arc<str>>>(
        &mut self,
        labels: I,
    ) -> &mut Self {
        self.labels = labels.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the free-text description.
    pub fn set_description(&mut self, description: &str) -> &mut Self {
        self.description = description.to_owned();
        self
    }

    /// Validates and produces the model.
    ///
    /// # Errors
    ///
    /// [`NnError::MalformedModel`] if input/output are missing, plus any
    /// shape/dtype/quantization validation error.
    pub fn build(self) -> Result<Model> {
        let input = self
            .input
            .ok_or(NnError::MalformedModel("input tensor not set"))?;
        let output = self
            .output
            .ok_or(NnError::MalformedModel("output tensor not set"))?;
        let layout_hints = canonical_layout_hints(&self.tensors, &self.buffers);
        let model = Model {
            tensors: self.tensors,
            buffers: self.buffers,
            layout_hints,
            ops: self.ops,
            input,
            output,
            labels: self.labels,
            description: self.description,
        };
        model.validate()?;
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qp(scale: f32, zp: i32) -> QuantParams {
        QuantParams {
            scale,
            zero_point: zp,
        }
    }

    #[test]
    fn conv_output_sizes() {
        // tiny_conv: 49x43 input, 8x10 kernel (HxW = 8 high? paper says
        // 8 filters of 8×10), stride 2 => SAME gives 25x22.
        assert_eq!(conv_output_size(49, 10, 2, Padding::Same), 25);
        assert_eq!(conv_output_size(43, 8, 2, Padding::Same), 22);
        assert_eq!(conv_output_size(49, 10, 2, Padding::Valid), 20);
        assert_eq!(conv_output_size(5, 3, 1, Padding::Valid), 3);
        assert_eq!(conv_output_size(5, 3, 1, Padding::Same), 5);
    }

    #[test]
    fn same_padding_splits() {
        let (before, after) = same_padding(5, 3, 1);
        assert_eq!((before, after), (1, 1));
        let (before, after) = same_padding(49, 10, 2);
        // out=25, span=(25-1)*2+10=58, pad=9 => 4 before, 5 after.
        assert_eq!((before, after), (4, 5));
    }

    #[test]
    fn builder_requires_input_output() {
        let b = Model::builder();
        assert!(matches!(b.build(), Err(NnError::MalformedModel(_))));
    }

    #[test]
    fn validation_catches_bad_conv_shapes() {
        let mut b = Model::builder();
        let input = b.add_activation("in", vec![1, 8, 8, 1], DType::I8, Some(qp(0.5, 0)));
        let filter = b.add_weight_i8(
            "f",
            vec![4, 3, 3, 1],
            vec![0; 36],
            QuantParams::symmetric(0.1),
        );
        let bias = b.add_weight_i32("b", vec![4], vec![0; 4]);
        // Wrong output shape (channels).
        let out = b.add_activation("out", vec![1, 8, 8, 5], DType::I8, Some(qp(0.5, 0)));
        b.add_op(Op::Conv2D {
            input,
            filter,
            bias,
            output: out,
            stride_h: 1,
            stride_w: 1,
            padding: Padding::Same,
            activation: Activation::Relu,
        });
        b.set_input(input);
        b.set_output(out);
        assert!(matches!(b.build(), Err(NnError::ShapeMismatch { .. })));
    }

    #[test]
    fn validation_catches_buffer_size_mismatch() {
        let mut b = Model::builder();
        let input = b.add_activation("in", vec![1, 4], DType::I8, Some(qp(1.0, 0)));
        // 2x4 weights need 8 values; give 7.
        let w = b.add_weight_i8("w", vec![2, 4], vec![0; 7], QuantParams::symmetric(0.1));
        let bias = b.add_weight_i32("b", vec![2], vec![0; 2]);
        let out = b.add_activation("out", vec![1, 2], DType::I8, Some(qp(1.0, 0)));
        b.add_op(Op::FullyConnected {
            input,
            filter: w,
            bias,
            output: out,
            activation: Activation::None,
        });
        b.set_input(input);
        b.set_output(out);
        assert!(matches!(b.build(), Err(NnError::BufferSizeMismatch { .. })));
    }

    #[test]
    fn validation_requires_quantization() {
        let mut b = Model::builder();
        let input = b.add_activation("in", vec![1, 4], DType::I8, None); // missing!
        let w = b.add_weight_i8("w", vec![2, 4], vec![0; 8], QuantParams::symmetric(0.1));
        let bias = b.add_weight_i32("b", vec![2], vec![0; 2]);
        let out = b.add_activation("out", vec![1, 2], DType::I8, Some(qp(1.0, 0)));
        b.add_op(Op::FullyConnected {
            input,
            filter: w,
            bias,
            output: out,
            activation: Activation::None,
        });
        b.set_input(input);
        b.set_output(out);
        assert!(matches!(
            b.build(),
            Err(NnError::MissingQuantization { .. })
        ));
    }

    #[test]
    fn validation_rejects_nonpositive_or_nonfinite_scales() {
        for bad_scale in [0.0f32, -0.5, f32::NAN, f32::INFINITY] {
            let mut b = Model::builder();
            let input = b.add_activation("in", vec![1, 4], DType::I8, Some(qp(bad_scale, 0)));
            let w = b.add_weight_i8("w", vec![2, 4], vec![0; 8], QuantParams::symmetric(0.1));
            let bias = b.add_weight_i32("b", vec![2], vec![0; 2]);
            let out = b.add_activation("out", vec![1, 2], DType::I8, Some(qp(1.0, 0)));
            b.add_op(Op::FullyConnected {
                input,
                filter: w,
                bias,
                output: out,
                activation: Activation::None,
            });
            b.set_input(input);
            b.set_output(out);
            assert!(
                matches!(b.build(), Err(NnError::MalformedModel(_))),
                "scale {bad_scale} must be rejected"
            );
        }
    }

    #[test]
    fn out_of_range_i8_zero_points_are_rejected() {
        // The kernels pack padding as the zero point and hoist -zp
        // offsets; a zp that does not fit i8 (e.g. from a tampered blob)
        // would silently truncate there, so validation must refuse it.
        for bad_zp in [128, -129, 1000, i32::MIN] {
            let mut b = Model::builder();
            let input = b.add_activation("in", vec![1, 4], DType::I8, Some(qp(0.1, bad_zp)));
            let w = b.add_weight_i8("w", vec![2, 4], vec![0; 8], QuantParams::symmetric(0.1));
            let bias = b.add_weight_i32("b", vec![2], vec![0; 2]);
            let out = b.add_activation("out", vec![1, 2], DType::I8, Some(qp(1.0, 0)));
            b.add_op(Op::FullyConnected {
                input,
                filter: w,
                bias,
                output: out,
                activation: Activation::None,
            });
            b.set_input(input);
            b.set_output(out);
            assert!(
                matches!(b.build(), Err(NnError::MalformedModel(_))),
                "zero point {bad_zp} must be rejected"
            );
        }
    }

    #[test]
    fn op_introspection() {
        let op = Op::Softmax {
            input: TensorId(1),
            output: TensorId(2),
        };
        assert_eq!(op.inputs(), vec![TensorId(1)]);
        assert_eq!(op.output(), TensorId(2));
        assert_eq!(op.name(), "Softmax");
    }

    #[test]
    fn weight_bytes_counts_buffers() {
        let mut b = Model::builder();
        let input = b.add_activation("in", vec![1, 4], DType::I8, Some(qp(1.0, 0)));
        let w = b.add_weight_i8("w", vec![2, 4], vec![0; 8], QuantParams::symmetric(0.1));
        let bias = b.add_weight_i32("b", vec![2], vec![0; 2]);
        let out = b.add_activation("out", vec![1, 2], DType::I8, Some(qp(1.0, 0)));
        b.add_op(Op::FullyConnected {
            input,
            filter: w,
            bias,
            output: out,
            activation: Activation::None,
        });
        b.set_input(input);
        b.set_output(out);
        let model = b.build().unwrap();
        assert_eq!(model.weight_bytes(), 8 + 8);
    }
}
