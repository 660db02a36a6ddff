//! A TensorFlow-Lite-Micro-style int8 inference engine.
//!
//! The OMG paper runs keyword recognition with "TensorFlow Lite for
//! Microcontrollers" inside a SANCTUARY enclave (paper §VI). This crate
//! reproduces the relevant slice of TFLM in Rust:
//!
//! * [`quantize`] — affine int8 quantization and the gemmlowp fixed-point
//!   requantization pipeline, bit-matching the TFLite reference kernels;
//! * [`kernels`] — reference int8 Conv2D / DepthwiseConv2D / FullyConnected
//!   / pooling / softmax, kept verbatim as the correctness oracle;
//! * [`gemm`] — blocked int8 GEMM core + im2col packing, with an optional
//!   row-panel threaded path (`OMG_GEMM_THREADS`);
//! * [`arch`] — runtime CPU-feature dispatch: AVX2 (x86_64) / NEON
//!   (aarch64) `i8×i8→i32` dot microkernels behind a vtable, with the
//!   portable lanes code as the always-available fallback;
//! * [`kernels_fast`] — the default execution kernels: conv lowered onto
//!   the GEMM, window kernels restructured into vectorizable lanes,
//!   bit-exact with [`kernels`] (select a tier with
//!   [`interpreter::KernelSet`] or `OMG_KERNELS=reference|portable|simd`);
//! * [`model`] — the operator graph and its builder;
//! * [`planner`] — TFLM-style greedy arena planning (no heap at inference);
//! * [`interpreter`] — the arena-based executor;
//! * [`mod@format`] — the compact binary serialization the vendor encrypts and
//!   ships (the `.tflite` stand-in; the paper's `tiny_conv` model is ≈49 kB).
//!
//! # Examples
//!
//! Build, serialize and run a single-layer classifier:
//!
//! ```
//! use omg_nn::interpreter::Interpreter;
//! use omg_nn::model::{Activation, Model, Op};
//! use omg_nn::quantize::QuantParams;
//! use omg_nn::tensor::DType;
//!
//! let mut b = Model::builder();
//! let input = b.add_activation("in", vec![1, 4], DType::I8,
//!     Some(QuantParams { scale: 1.0, zero_point: 0 }));
//! let w = b.add_weight_i8("w", vec![2, 4], vec![1, 1, 1, 1, 1, -1, 1, -1],
//!     QuantParams::symmetric(1.0));
//! let bias = b.add_weight_i32("b", vec![2], vec![0, 0]);
//! let out = b.add_activation("out", vec![1, 2], DType::I8,
//!     Some(QuantParams { scale: 1.0, zero_point: 0 }));
//! b.add_op(Op::FullyConnected { input, filter: w, bias, output: out,
//!     activation: Activation::None });
//! b.set_input(input);
//! b.set_output(out);
//! let model = b.build()?;
//!
//! let blob = omg_nn::format::serialize(&model);
//! let mut interp = Interpreter::new(omg_nn::format::deserialize(&blob)?)?;
//! interp.invoke(&[1, 2, 3, 4])?;
//! assert_eq!(interp.output_quantized()?, &[10, -2]);
//! # Ok::<(), omg_nn::NnError>(())
//! ```

#![warn(missing_docs)]

pub mod arch;
pub mod buffer;
mod error;
pub mod format;
pub mod gemm;
pub mod interpreter;
pub mod kernels;
pub mod kernels_fast;
pub mod model;
pub mod planner;
pub mod profiler;
pub mod quantize;
pub mod tensor;

pub use buffer::{AlignedBytes, ModelBuf};
pub use error::{NnError, Result};
pub use interpreter::{Interpreter, KernelSet};
pub use model::Model;
