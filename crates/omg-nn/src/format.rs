//! The compact binary model format ("OMGM").
//!
//! Plays the role of the `.tflite` flatbuffer in the paper's pipeline: the
//! trainer exports this blob, the vendor encrypts it (Fig. 2 step ③), and
//! the enclave deserializes it after decryption (step ⑥). The format is
//! little-endian throughout with explicit length prefixes and strict bounds
//! checking on parse.
//!
//! # Versions
//!
//! * **v1** (legacy): metadata and buffer bytes interleaved with no
//!   alignment guarantees. Loading copies every tensor out of the blob.
//!   Still fully supported by [`deserialize`] (version dispatch) so
//!   pre-existing artifacts — including the checked-in pre-trained model —
//!   keep working unmodified.
//! * **v2** (current, emitted by [`serialize`]): an alignment-aware
//!   container. All metadata lives in a leading header; every weight and
//!   bias section sits at an explicit offset aligned to
//!   [`crate::buffer::BUFFER_ALIGN`] (64 bytes, ≥ the natural alignment of
//!   every dtype). Because [`ModelBuf`] guarantees an aligned base
//!   address, [`deserialize_shared`] can validate the header and then
//!   *borrow* all parameter data straight out of the decrypted image — no
//!   per-tensor copies, and the interpreter borrows int32 biases in place
//!   instead of decoding a per-interpreter pool.
//!
//! v2 layout:
//!
//! ```text
//! [0..4)    magic "OMGM"
//! [4..6)    version u16 = 2
//! [6..10)   total blob length u32 (must equal the input length)
//! [10..H)   header: description, labels, tensor table, op table,
//!           input/output ids, buffer table (u32 offset + u32 len each),
//!           layout-hint table (u32 align + u32 row_stride per buffer,
//!           count implied by the buffer table)
//! [H..)     zero padding + buffer sections, each at its recorded
//!           64-byte-aligned offset, ascending and non-overlapping
//! ```
//!
//! The layout hints are the promises SIMD kernels build on (base
//! alignment, dense row pitch); `Model::validate` cross-checks them
//! against the actual section placement and tensor shapes, so a hostile
//! blob cannot smuggle in hints the layout does not honor.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::buffer::{ByteView, ModelBuf, BUFFER_ALIGN};
use crate::error::{NnError, Result};
use crate::model::{canonical_layout_hints, Activation, BufferLayout, Model, Op, Padding};
use crate::quantize::QuantParams;
use crate::tensor::{DType, TensorId, TensorInfo};

/// Magic bytes at the start of every serialized model.
pub const MAGIC: &[u8; 4] = b"OMGM";
/// Current format version (the zero-copy container).
pub const VERSION: u16 = 2;
/// The legacy copying format version, still accepted by [`deserialize`].
pub const VERSION_V1: u16 = 1;

fn align_up(v: usize, align: usize) -> usize {
    v.div_ceil(align) * align
}

/// Serializes a model to the current (v2, alignment-aware) format.
///
/// # Examples
///
/// ```
/// # use omg_nn::model::{Activation, Model, Op};
/// # use omg_nn::quantize::QuantParams;
/// # use omg_nn::tensor::DType;
/// use omg_nn::format::{serialize, deserialize};
///
/// # let mut b = Model::builder();
/// # let input = b.add_activation("in", vec![1, 4], DType::I8,
/// #     Some(QuantParams { scale: 0.5, zero_point: 0 }));
/// # let w = b.add_weight_i8("w", vec![2, 4], vec![1i8; 8], QuantParams::symmetric(0.25));
/// # let bias = b.add_weight_i32("b", vec![2], vec![0i32; 2]);
/// # let out = b.add_activation("out", vec![1, 2], DType::I8,
/// #     Some(QuantParams { scale: 1.0, zero_point: 0 }));
/// # b.add_op(Op::FullyConnected { input, filter: w, bias, output: out, activation: Activation::None });
/// # b.set_input(input);
/// # b.set_output(out);
/// # let model = b.build()?;
/// let bytes = serialize(&model);
/// let restored = deserialize(&bytes)?;
/// assert_eq!(restored, model);
/// # Ok::<(), omg_nn::NnError>(())
/// ```
pub fn serialize(model: &Model) -> Vec<u8> {
    // Header metadata, minus the buffer table (whose size is fixed per
    // buffer, so section offsets can be computed before emitting it).
    let mut meta = BytesMut::with_capacity(1024);
    put_str32(&mut meta, &model.description);
    meta.put_u16_le(model.labels.len() as u16);
    for label in &model.labels {
        put_str16(&mut meta, label);
    }
    meta.put_u32_le(model.tensors.len() as u32);
    for t in &model.tensors {
        put_tensor(&mut meta, t);
    }
    meta.put_u32_le(model.ops.len() as u32);
    for op in &model.ops {
        put_op(&mut meta, op);
    }
    meta.put_u32_le(model.input.index() as u32);
    meta.put_u32_le(model.output.index() as u32);

    // magic + version + total_len + meta + buffer table + hint table.
    let header_len = 4 + 2 + 4 + meta.len() + 4 + 8 * model.buffers.len() + 8 * model.buffers.len();
    let mut offsets = Vec::with_capacity(model.buffers.len());
    let mut cursor = header_len;
    for b in &model.buffers {
        let off = align_up(cursor, BUFFER_ALIGN);
        offsets.push(off);
        cursor = off + b.len();
    }
    let total_len = cursor;

    let mut buf = BytesMut::with_capacity(total_len);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(total_len as u32);
    buf.put_slice(&meta);
    buf.put_u32_le(model.buffers.len() as u32);
    for (b, &off) in model.buffers.iter().zip(&offsets) {
        buf.put_u32_le(off as u32);
        buf.put_u32_le(b.len() as u32);
    }
    for hint in &model.layout_hints {
        buf.put_u32_le(hint.align);
        buf.put_u32_le(hint.row_stride);
    }
    debug_assert_eq!(buf.len(), header_len);
    const ZEROS: [u8; BUFFER_ALIGN] = [0; BUFFER_ALIGN];
    for (b, &off) in model.buffers.iter().zip(&offsets) {
        buf.put_slice(&ZEROS[..off - buf.len()]);
        buf.put_slice(b);
    }
    buf.to_vec()
}

/// Serializes a model to the legacy v1 layout (no alignment guarantees;
/// loading it goes through the copying decoder). Kept for artifact
/// regeneration and compatibility testing.
pub fn serialize_v1(model: &Model) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(model.weight_bytes() + 1024);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION_V1);

    put_str32(&mut buf, &model.description);

    buf.put_u16_le(model.labels.len() as u16);
    for label in &model.labels {
        put_str16(&mut buf, label);
    }

    buf.put_u32_le(model.tensors.len() as u32);
    for t in &model.tensors {
        put_tensor(&mut buf, t);
    }

    buf.put_u32_le(model.buffers.len() as u32);
    for b in &model.buffers {
        buf.put_u32_le(b.len() as u32);
        buf.put_slice(b);
    }

    buf.put_u32_le(model.ops.len() as u32);
    for op in &model.ops {
        put_op(&mut buf, op);
    }

    buf.put_u32_le(model.input.index() as u32);
    buf.put_u32_le(model.output.index() as u32);
    buf.to_vec()
}

fn put_str16(buf: &mut BytesMut, s: &str) {
    buf.put_u16_le(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn put_str32(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_tensor(buf: &mut BytesMut, t: &TensorInfo) {
    put_str16(buf, t.name());
    buf.put_u8(t.dtype().tag());
    match t.quant() {
        Some(q) => {
            buf.put_u8(1);
            buf.put_f32_le(q.scale);
            buf.put_i32_le(q.zero_point);
        }
        None => buf.put_u8(0),
    }
    buf.put_u32_le(t.buffer().map_or(u32::MAX, |b| b as u32));
    buf.put_u8(t.shape().len() as u8);
    for &d in t.shape() {
        buf.put_u32_le(d as u32);
    }
}

fn put_op(buf: &mut BytesMut, op: &Op) {
    match *op {
        Op::Conv2D {
            input,
            filter,
            bias,
            output,
            stride_h,
            stride_w,
            padding,
            activation,
        } => {
            buf.put_u8(0);
            for id in [input, filter, bias, output] {
                buf.put_u32_le(id.index() as u32);
            }
            buf.put_u16_le(stride_h as u16);
            buf.put_u16_le(stride_w as u16);
            buf.put_u8(padding.tag());
            buf.put_u8(activation.tag());
        }
        Op::DepthwiseConv2D {
            input,
            filter,
            bias,
            output,
            stride_h,
            stride_w,
            padding,
            activation,
            depth_multiplier,
        } => {
            buf.put_u8(1);
            for id in [input, filter, bias, output] {
                buf.put_u32_le(id.index() as u32);
            }
            buf.put_u16_le(stride_h as u16);
            buf.put_u16_le(stride_w as u16);
            buf.put_u8(padding.tag());
            buf.put_u8(activation.tag());
            buf.put_u16_le(depth_multiplier as u16);
        }
        Op::FullyConnected {
            input,
            filter,
            bias,
            output,
            activation,
        } => {
            buf.put_u8(2);
            for id in [input, filter, bias, output] {
                buf.put_u32_le(id.index() as u32);
            }
            buf.put_u8(activation.tag());
        }
        Op::AveragePool2D {
            input,
            output,
            filter_h,
            filter_w,
            stride_h,
            stride_w,
            padding,
        } => {
            buf.put_u8(3);
            buf.put_u32_le(input.index() as u32);
            buf.put_u32_le(output.index() as u32);
            buf.put_u16_le(filter_h as u16);
            buf.put_u16_le(filter_w as u16);
            buf.put_u16_le(stride_h as u16);
            buf.put_u16_le(stride_w as u16);
            buf.put_u8(padding.tag());
        }
        Op::MaxPool2D {
            input,
            output,
            filter_h,
            filter_w,
            stride_h,
            stride_w,
            padding,
        } => {
            buf.put_u8(4);
            buf.put_u32_le(input.index() as u32);
            buf.put_u32_le(output.index() as u32);
            buf.put_u16_le(filter_h as u16);
            buf.put_u16_le(filter_w as u16);
            buf.put_u16_le(stride_h as u16);
            buf.put_u16_le(stride_w as u16);
            buf.put_u8(padding.tag());
        }
        Op::Softmax { input, output } => {
            buf.put_u8(5);
            buf.put_u32_le(input.index() as u32);
            buf.put_u32_le(output.index() as u32);
        }
        Op::Reshape { input, output } => {
            buf.put_u8(6);
            buf.put_u32_le(input.index() as u32);
            buf.put_u32_le(output.index() as u32);
        }
    }
}

/// The bounds-checked read interface both decoders share.
trait ModelReader {
    fn u8(&mut self) -> Result<u8>;
    fn u16(&mut self) -> Result<u16>;
    fn u32(&mut self) -> Result<u32>;
    fn i32(&mut self) -> Result<i32>;
    fn f32(&mut self) -> Result<f32>;
    fn str16(&mut self) -> Result<String>;
    fn str32(&mut self) -> Result<String>;

    fn tensor_id(&mut self, tensor_count: usize) -> Result<TensorId> {
        let idx = self.u32()? as usize;
        if idx >= tensor_count {
            return Err(NnError::MalformedModel("tensor id out of range"));
        }
        Ok(TensorId(idx))
    }
}

/// Legacy bounds-checked reader over an owned copy of the serialized form
/// (the v1 copying decoder).
struct Reader {
    buf: Bytes,
}

impl Reader {
    fn need(&self, n: usize) -> Result<()> {
        if self.buf.remaining() < n {
            Err(NnError::MalformedModel("unexpected end of model data"))
        } else {
            Ok(())
        }
    }

    fn bytes(&mut self, n: usize) -> Result<Vec<u8>> {
        self.need(n)?;
        let mut out = vec![0u8; n];
        self.buf.copy_to_slice(&mut out);
        Ok(out)
    }
}

impl ModelReader for Reader {
    fn u8(&mut self) -> Result<u8> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    fn u16(&mut self) -> Result<u16> {
        self.need(2)?;
        Ok(self.buf.get_u16_le())
    }

    fn u32(&mut self) -> Result<u32> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    fn i32(&mut self) -> Result<i32> {
        self.need(4)?;
        Ok(self.buf.get_i32_le())
    }

    fn f32(&mut self) -> Result<f32> {
        self.need(4)?;
        Ok(self.buf.get_f32_le())
    }

    fn str16(&mut self) -> Result<String> {
        let len = self.u16()? as usize;
        let raw = self.bytes(len)?;
        String::from_utf8(raw).map_err(|_| NnError::MalformedModel("invalid utf-8 string"))
    }

    fn str32(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let raw = self.bytes(len)?;
        String::from_utf8(raw).map_err(|_| NnError::MalformedModel("invalid utf-8 string"))
    }
}

/// Zero-copy bounds-checked reader over a borrowed header (the v2 path:
/// nothing is copied while parsing metadata).
struct SliceReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SliceReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        SliceReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(NnError::MalformedModel("length overflow"))?;
        if end > self.buf.len() {
            return Err(NnError::MalformedModel("unexpected end of model data"));
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn str_of(&mut self, len: usize) -> Result<String> {
        let raw = self.take(len)?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| NnError::MalformedModel("invalid utf-8 string"))
    }
}

impl ModelReader for SliceReader<'_> {
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn i32(&mut self) -> Result<i32> {
        let b = self.take(4)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn f32(&mut self) -> Result<f32> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn str16(&mut self) -> Result<String> {
        let len = self.u16()? as usize;
        self.str_of(len)
    }

    fn str32(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        self.str_of(len)
    }
}

fn parse_labels<R: ModelReader>(r: &mut R) -> Result<Vec<std::sync::Arc<str>>> {
    let label_count = r.u16()? as usize;
    let mut labels = Vec::with_capacity(label_count);
    for _ in 0..label_count {
        labels.push(r.str16()?.into());
    }
    Ok(labels)
}

fn parse_tensors<R: ModelReader>(r: &mut R) -> Result<Vec<TensorInfo>> {
    let tensor_count = r.u32()? as usize;
    if tensor_count > 1_000_000 {
        return Err(NnError::MalformedModel("absurd tensor count"));
    }
    let mut tensors = Vec::with_capacity(tensor_count);
    for _ in 0..tensor_count {
        let name = r.str16()?;
        let dtype = DType::from_tag(r.u8()?).ok_or(NnError::MalformedModel("unknown dtype tag"))?;
        let quant = match r.u8()? {
            0 => None,
            1 => Some(QuantParams {
                scale: r.f32()?,
                zero_point: r.i32()?,
            }),
            _ => return Err(NnError::MalformedModel("bad quant flag")),
        };
        let buffer_raw = r.u32()?;
        let buffer = if buffer_raw == u32::MAX {
            None
        } else {
            Some(buffer_raw as usize)
        };
        let rank = r.u8()? as usize;
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            shape.push(r.u32()? as usize);
        }
        tensors.push(TensorInfo::new(name, shape, dtype, quant, buffer));
    }
    Ok(tensors)
}

fn parse_ops<R: ModelReader>(r: &mut R, tensor_count: usize) -> Result<Vec<Op>> {
    let op_count = r.u32()? as usize;
    let mut ops = Vec::with_capacity(op_count);
    for _ in 0..op_count {
        let opcode = r.u8()?;
        let op = match opcode {
            0 | 1 => {
                let input = r.tensor_id(tensor_count)?;
                let filter = r.tensor_id(tensor_count)?;
                let bias = r.tensor_id(tensor_count)?;
                let output = r.tensor_id(tensor_count)?;
                let stride_h = r.u16()? as usize;
                let stride_w = r.u16()? as usize;
                let padding =
                    Padding::from_tag(r.u8()?).ok_or(NnError::MalformedModel("bad padding tag"))?;
                let activation = Activation::from_tag(r.u8()?)
                    .ok_or(NnError::MalformedModel("bad activation tag"))?;
                if opcode == 0 {
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
                } else {
                    let depth_multiplier = r.u16()? as usize;
                    Op::DepthwiseConv2D {
                        input,
                        filter,
                        bias,
                        output,
                        stride_h,
                        stride_w,
                        padding,
                        activation,
                        depth_multiplier,
                    }
                }
            }
            2 => {
                let input = r.tensor_id(tensor_count)?;
                let filter = r.tensor_id(tensor_count)?;
                let bias = r.tensor_id(tensor_count)?;
                let output = r.tensor_id(tensor_count)?;
                let activation = Activation::from_tag(r.u8()?)
                    .ok_or(NnError::MalformedModel("bad activation tag"))?;
                Op::FullyConnected {
                    input,
                    filter,
                    bias,
                    output,
                    activation,
                }
            }
            3 | 4 => {
                let input = r.tensor_id(tensor_count)?;
                let output = r.tensor_id(tensor_count)?;
                let filter_h = r.u16()? as usize;
                let filter_w = r.u16()? as usize;
                let stride_h = r.u16()? as usize;
                let stride_w = r.u16()? as usize;
                let padding =
                    Padding::from_tag(r.u8()?).ok_or(NnError::MalformedModel("bad padding tag"))?;
                if opcode == 3 {
                    Op::AveragePool2D {
                        input,
                        output,
                        filter_h,
                        filter_w,
                        stride_h,
                        stride_w,
                        padding,
                    }
                } else {
                    Op::MaxPool2D {
                        input,
                        output,
                        filter_h,
                        filter_w,
                        stride_h,
                        stride_w,
                        padding,
                    }
                }
            }
            5 => Op::Softmax {
                input: r.tensor_id(tensor_count)?,
                output: r.tensor_id(tensor_count)?,
            },
            6 => Op::Reshape {
                input: r.tensor_id(tensor_count)?,
                output: r.tensor_id(tensor_count)?,
            },
            _ => return Err(NnError::MalformedModel("unknown opcode")),
        };
        ops.push(op);
    }
    Ok(ops)
}

/// Deserializes a model from either format version, validating structure
/// and shapes. A v1 blob goes through the legacy copying decoder; a v2
/// blob pays one aligned copy of the whole image and then borrows every
/// buffer out of it (use [`deserialize_shared`] to skip even that copy
/// when you already hold a [`ModelBuf`]).
///
/// # Errors
///
/// [`NnError::UnsupportedFormat`] on magic/version mismatch,
/// [`NnError::MalformedModel`] on truncation or inconsistent ids, plus any
/// model validation error.
pub fn deserialize(data: &[u8]) -> Result<Model> {
    if data.len() < 6 {
        return Err(NnError::MalformedModel("unexpected end of model data"));
    }
    if &data[..4] != MAGIC {
        return Err(NnError::UnsupportedFormat {
            detail: "bad magic".into(),
        });
    }
    match u16::from_le_bytes([data[4], data[5]]) {
        VERSION_V1 => deserialize_v1(data),
        VERSION => deserialize_shared(ModelBuf::copy_from_slice(data)),
        version => Err(NnError::UnsupportedFormat {
            detail: format!("version {version} unsupported"),
        }),
    }
}

/// Zero-copy deserialization from a shared, aligned model image.
///
/// For a v2 image, the returned model's constant buffers are windows into
/// `buf` — no tensor data is copied, and clones of the model (or further
/// loads from the same `buf`) share the one allocation. A v1 image is
/// routed through the copying decoder, so sealed v1 artifacts still load
/// through this entry point.
///
/// # Errors
///
/// Same conditions as [`deserialize`].
pub fn deserialize_shared(buf: ModelBuf) -> Result<Model> {
    let data = buf.as_slice();
    if data.len() < 10 {
        return Err(NnError::MalformedModel("unexpected end of model data"));
    }
    if &data[..4] != MAGIC {
        return Err(NnError::UnsupportedFormat {
            detail: "bad magic".into(),
        });
    }
    match u16::from_le_bytes([data[4], data[5]]) {
        VERSION_V1 => return deserialize_v1(data),
        VERSION => {}
        version => {
            return Err(NnError::UnsupportedFormat {
                detail: format!("version {version} unsupported"),
            })
        }
    }
    let total_len = u32::from_le_bytes([data[6], data[7], data[8], data[9]]) as usize;
    if total_len != data.len() {
        return Err(NnError::MalformedModel("blob length mismatch"));
    }

    let mut r = SliceReader::new(data);
    r.pos = 10;
    let description = r.str32()?;
    let labels = parse_labels(&mut r)?;
    let tensors = parse_tensors(&mut r)?;
    let ops = parse_ops(&mut r, tensors.len())?;
    let input = r.tensor_id(tensors.len())?;
    let output = r.tensor_id(tensors.len())?;

    let buffer_count = r.u32()? as usize;
    if buffer_count > 1_000_000 {
        return Err(NnError::MalformedModel("absurd buffer count"));
    }
    let mut entries = Vec::with_capacity(buffer_count);
    for _ in 0..buffer_count {
        let off = r.u32()? as usize;
        let len = r.u32()? as usize;
        entries.push((off, len));
    }
    // Layout-hint table, index-parallel with the buffer table. The values
    // are untrusted claims here; Model::validate cross-checks each one
    // against the real section layout before the model is handed out.
    let mut layout_hints = Vec::with_capacity(buffer_count);
    for _ in 0..buffer_count {
        let align = r.u32()?;
        let row_stride = r.u32()?;
        layout_hints.push(BufferLayout { align, row_stride });
    }
    // Section discipline: every buffer lies past the header, at its
    // guaranteed alignment, inside the blob, ascending and non-overlapping.
    // A hostile blob violating any of these is rejected before a single
    // view is created.
    let header_end = r.pos;
    let mut prev_end = header_end;
    for &(off, len) in &entries {
        if off % BUFFER_ALIGN != 0 {
            return Err(NnError::MalformedModel("misaligned buffer section"));
        }
        if off < prev_end {
            return Err(NnError::MalformedModel("overlapping buffer sections"));
        }
        let end = off
            .checked_add(len)
            .ok_or(NnError::MalformedModel("buffer section overflow"))?;
        if end > data.len() {
            return Err(NnError::MalformedModel("buffer section out of bounds"));
        }
        prev_end = end;
    }
    let backing = buf.share();
    let buffers = entries
        .into_iter()
        .map(|(off, len)| ByteView::window(std::sync::Arc::clone(&backing), off, len))
        .collect();

    let model = Model {
        tensors,
        buffers,
        layout_hints,
        ops,
        input,
        output,
        labels,
        description,
    };
    // Full validation in place, so a tampered blob cannot produce a model
    // violating kernel preconditions (including layout hints that
    // contradict the actual section layout).
    model.validate()?;
    Ok(model)
}

/// The legacy v1 copying decoder, kept byte-for-byte compatible with blobs
/// produced by [`serialize_v1`] (and by every release before v2).
fn deserialize_v1(data: &[u8]) -> Result<Model> {
    let mut r = Reader {
        buf: Bytes::copy_from_slice(data),
    };

    let magic = r.bytes(4)?;
    if magic != MAGIC {
        return Err(NnError::UnsupportedFormat {
            detail: "bad magic".into(),
        });
    }
    let version = r.u16()?;
    if version != VERSION_V1 {
        return Err(NnError::UnsupportedFormat {
            detail: format!("version {version} unsupported"),
        });
    }

    let description = r.str32()?;
    let labels = parse_labels(&mut r)?;
    let tensors = parse_tensors(&mut r)?;

    let buffer_count = r.u32()? as usize;
    let mut buffers = Vec::with_capacity(buffer_count);
    for _ in 0..buffer_count {
        let len = r.u32()? as usize;
        buffers.push(ByteView::copy_of(&r.bytes(len)?));
    }

    let ops = parse_ops(&mut r, tensors.len())?;
    let input = r.tensor_id(tensors.len())?;
    let output = r.tensor_id(tensors.len())?;

    // v1 predates layout hints; the copying decoder lands every buffer in
    // aligned storage, so the canonical hints hold by construction.
    let layout_hints = canonical_layout_hints(&tensors, &buffers);
    let model = Model {
        tensors,
        buffers,
        layout_hints,
        ops,
        input,
        output,
        labels,
        description,
    };
    model.validate()?;
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Activation, Model, Op};
    use crate::tensor::DType;

    fn sample_model() -> Model {
        let mut b = Model::builder();
        let input = b.add_activation(
            "in",
            vec![1, 4, 4, 1],
            DType::I8,
            Some(QuantParams {
                scale: 0.5,
                zero_point: -1,
            }),
        );
        let cf = b.add_weight_i8(
            "conv/w",
            vec![2, 3, 3, 1],
            vec![1; 18],
            QuantParams::symmetric(0.1),
        );
        let cb = b.add_weight_i32("conv/b", vec![2], vec![5, -5]);
        let conv = b.add_activation(
            "conv",
            vec![1, 4, 4, 2],
            DType::I8,
            Some(QuantParams {
                scale: 0.25,
                zero_point: 3,
            }),
        );
        b.add_op(Op::Conv2D {
            input,
            filter: cf,
            bias: cb,
            output: conv,
            stride_h: 1,
            stride_w: 1,
            padding: Padding::Same,
            activation: Activation::Relu,
        });
        let fw = b.add_weight_i8(
            "fc/w",
            vec![3, 32],
            vec![2; 96],
            QuantParams::symmetric(0.05),
        );
        let fb = b.add_weight_i32("fc/b", vec![3], vec![0, 1, 2]);
        let fc = b.add_activation(
            "logits",
            vec![1, 3],
            DType::I8,
            Some(QuantParams {
                scale: 1.0,
                zero_point: 0,
            }),
        );
        b.add_op(Op::FullyConnected {
            input: conv,
            filter: fw,
            bias: fb,
            output: fc,
            activation: Activation::None,
        });
        let probs = b.add_activation(
            "probs",
            vec![1, 3],
            DType::I8,
            Some(QuantParams {
                scale: 1.0 / 256.0,
                zero_point: -128,
            }),
        );
        b.add_op(Op::Softmax {
            input: fc,
            output: probs,
        });
        b.set_input(input);
        b.set_output(probs);
        b.set_labels(["a", "b", "c"]);
        b.set_description("format test model");
        b.build().unwrap()
    }

    #[test]
    fn roundtrip_preserves_model() {
        let model = sample_model();
        let bytes = serialize(&model);
        let restored = deserialize(&bytes).unwrap();
        assert_eq!(restored, model);
    }

    #[test]
    fn v1_roundtrip_preserves_model() {
        let model = sample_model();
        let bytes = serialize_v1(&model);
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), VERSION_V1);
        let restored = deserialize(&bytes).unwrap();
        assert_eq!(restored, model);
        // The shared entry point also dispatches v1 images.
        let via_shared = deserialize_shared(ModelBuf::copy_from_slice(&bytes)).unwrap();
        assert_eq!(via_shared, model);
    }

    #[test]
    fn v2_shared_load_borrows_the_image() {
        let model = sample_model();
        let image = ModelBuf::copy_from_slice(&serialize(&model));
        let a = deserialize_shared(image.clone()).unwrap();
        let b = deserialize_shared(image.clone()).unwrap();
        assert_eq!(a, model);
        // Two loads from one image share storage; a v1 load does not.
        assert!(a.shares_storage_with(&b));
        assert!(!a.shares_storage_with(&model));
        // The borrowed weight bytes physically live inside the image.
        let image_range = image.as_slice().as_ptr_range();
        let weights = a.weight_data(crate::tensor::TensorId(1)).unwrap().unwrap();
        assert!(image_range.contains(&weights.as_ptr()));
    }

    #[test]
    fn v2_buffer_sections_are_aligned() {
        let bytes = serialize(&sample_model());
        let image = ModelBuf::copy_from_slice(&bytes);
        let model = deserialize_shared(image.clone()).unwrap();
        for id in [1usize, 2, 4, 5] {
            // conv/w, conv/b, fc/w, fc/b in construction order.
            let data = model
                .weight_data(crate::tensor::TensorId(id))
                .unwrap()
                .unwrap();
            assert_eq!(
                data.as_ptr() as usize % BUFFER_ALIGN,
                0,
                "tensor {id} section misaligned"
            );
        }
    }

    #[test]
    fn roundtrip_preserves_inference_behaviour() {
        use crate::interpreter::Interpreter;
        let model = sample_model();
        let input: Vec<i8> = (0..16).map(|i| (i * 3 - 20) as i8).collect();
        let mut reference = Interpreter::new(model.clone()).unwrap();
        reference.invoke(&input).unwrap();
        let expected = reference.output_quantized().unwrap().to_vec();
        for blob in [serialize(&model), serialize_v1(&model)] {
            let restored = deserialize(&blob).unwrap();
            let mut interp = Interpreter::new(restored).unwrap();
            interp.invoke(&input).unwrap();
            assert_eq!(interp.output_quantized().unwrap(), expected.as_slice());
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = serialize(&sample_model());
        bytes[0] = b'X';
        assert!(matches!(
            deserialize(&bytes),
            Err(NnError::UnsupportedFormat { .. })
        ));
    }

    #[test]
    fn bad_version_rejected() {
        for serialized in [serialize(&sample_model()), serialize_v1(&sample_model())] {
            let mut bytes = serialized;
            bytes[4] = 99;
            assert!(matches!(
                deserialize(&bytes),
                Err(NnError::UnsupportedFormat { .. })
            ));
        }
    }

    #[test]
    fn truncation_rejected_everywhere() {
        for bytes in [serialize(&sample_model()), serialize_v1(&sample_model())] {
            // Every strict prefix must fail cleanly, never panic.
            for len in 0..bytes.len() {
                assert!(
                    deserialize(&bytes[..len]).is_err(),
                    "prefix of {len} bytes parsed"
                );
            }
        }
    }

    /// Locates the v2 buffer table: scan for the count value `n` followed
    /// by n entries whose offsets are all 64-aligned and in-bounds. (The
    /// layout-hint table follows immediately after the located table.)
    fn locate_buffer_table(bytes: &[u8], n: usize) -> usize {
        let mut found = None;
        for pos in 10..bytes.len().saturating_sub(4 + 8 * n) {
            let count = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            if count != n {
                continue;
            }
            let ok = (0..n).all(|i| {
                let p = pos + 4 + 8 * i;
                let off = u32::from_le_bytes(bytes[p..p + 4].try_into().unwrap()) as usize;
                off.is_multiple_of(BUFFER_ALIGN) && off >= pos && off < bytes.len()
            });
            if ok {
                found = Some(pos);
                break;
            }
        }
        found.expect("buffer table located")
    }

    #[test]
    fn misaligned_or_overlapping_v2_sections_rejected() {
        let bytes = serialize(&sample_model());
        let model = sample_model();
        let n = model.buffers.len();
        let first_section = locate_buffer_table(&bytes, n);
        // Misaligned offset.
        let mut bad = bytes.clone();
        let p = first_section + 4;
        let off = u32::from_le_bytes(bad[p..p + 4].try_into().unwrap());
        bad[p..p + 4].copy_from_slice(&(off + 1).to_le_bytes());
        assert!(matches!(
            deserialize(&bad),
            Err(NnError::MalformedModel(_) | NnError::BufferSizeMismatch { .. })
        ));
        // Out-of-bounds section.
        let mut bad = bytes.clone();
        bad[p..p + 4].copy_from_slice(&(u32::MAX - 63).to_le_bytes());
        assert!(deserialize(&bad).is_err());
        // Overlapping sections (second offset rewound onto the first).
        if n >= 2 {
            let mut bad = bytes.clone();
            let p2 = first_section + 4 + 8;
            bad[p2..p2 + 4].copy_from_slice(&off.to_le_bytes());
            assert!(deserialize(&bad).is_err());
        }
    }

    #[test]
    fn hostile_layout_hints_rejected() {
        let bytes = serialize(&sample_model());
        let model = sample_model();
        let n = model.buffers.len();
        let hints = locate_buffer_table(&bytes, n) + 4 + 8 * n;

        // The untampered blob loads, and carries the canonical hints.
        let loaded = deserialize(&bytes).unwrap();
        assert_eq!(loaded.layout_hints().len(), n);
        assert!(loaded
            .layout_hints()
            .iter()
            .all(|h| h.align as usize == BUFFER_ALIGN));

        // Alignment claims the layout cannot honor: zero, non-power-of-two,
        // and stronger than the format's 64-byte section guarantee.
        for align in [0u32, 3, 48, 128] {
            let mut bad = bytes.clone();
            bad[hints..hints + 4].copy_from_slice(&align.to_le_bytes());
            assert!(
                matches!(deserialize(&bad), Err(NnError::MalformedModel(_))),
                "alignment hint {align} accepted"
            );
        }

        // A row stride contradicting the owning tensor's shape (off by one
        // byte, and wildly out of range) must be rejected, for every
        // buffer's hint entry.
        for i in 0..n {
            let p = hints + 8 * i + 4;
            let stride = u32::from_le_bytes(bytes[p..p + 4].try_into().unwrap());
            for bad_stride in [stride + 1, stride.wrapping_sub(1), u32::MAX] {
                let mut bad = bytes.clone();
                bad[p..p + 4].copy_from_slice(&bad_stride.to_le_bytes());
                assert!(
                    matches!(deserialize(&bad), Err(NnError::MalformedModel(_))),
                    "row stride {bad_stride} for buffer {i} accepted (real: {stride})"
                );
            }
        }
    }

    #[test]
    fn wrong_total_length_rejected() {
        let mut bytes = serialize(&sample_model());
        let stored = u32::from_le_bytes(bytes[6..10].try_into().unwrap());
        bytes[6..10].copy_from_slice(&(stored + 1).to_le_bytes());
        assert!(matches!(
            deserialize(&bytes),
            Err(NnError::MalformedModel(_))
        ));
    }

    #[test]
    fn out_of_range_tensor_id_rejected() {
        let model = sample_model();
        let mut bytes = serialize_v1(&model);
        // In v1 the last 8 bytes are input/output ids; corrupt output id.
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(deserialize(&bytes).is_err());
    }

    #[test]
    fn size_matches_weights_plus_overhead() {
        let model = sample_model();
        for bytes in [serialize(&model), serialize_v1(&model)] {
            assert!(bytes.len() >= model.weight_bytes());
            // Overhead (metadata + v2 alignment padding) stays modest.
            assert!(bytes.len() < model.weight_bytes() + 1024);
        }
    }
}
