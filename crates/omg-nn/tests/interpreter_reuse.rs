//! Interpreter-reuse properties of the zero-copy engine: a warm
//! interpreter serving many queries must behave exactly like a fleet of
//! fresh ones, and no activation residue may leak from one query into the
//! next (the clear-between-queries security property of warm sessions).

use omg_nn::model::{Activation, Model, Op, Padding};
use omg_nn::quantize::QuantParams;
use omg_nn::tensor::DType;
use omg_nn::Interpreter;
use proptest::prelude::*;

fn qp(scale: f32, zp: i32) -> QuantParams {
    QuantParams {
        scale,
        zero_point: zp,
    }
}

/// Conv → fc pipeline large enough for the planner to overlap tensors.
fn model() -> Model {
    let mut b = Model::builder();
    let input = b.add_activation(
        "in",
        vec![1, 6, 6, 1],
        DType::I8,
        Some(qp(1.0 / 255.0, -128)),
    );
    let cw = b.add_weight_i8(
        "conv/w",
        vec![2, 3, 3, 1],
        (0..18).map(|i| (i % 5) as i8 - 2).collect(),
        QuantParams::symmetric(0.05),
    );
    let cb = b.add_weight_i32("conv/b", vec![2], vec![1, -1]);
    let conv = b.add_activation("conv", vec![1, 3, 3, 2], DType::I8, Some(qp(0.1, 0)));
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
    let fw = b.add_weight_i8(
        "fc/w",
        vec![3, 18],
        (0..54).map(|i| (i % 7) as i8 - 3).collect(),
        QuantParams::symmetric(0.02),
    );
    let fb = b.add_weight_i32("fc/b", vec![3], vec![0, 2, -2]);
    let out = b.add_activation("logits", vec![1, 3], DType::I8, Some(qp(0.5, 0)));
    b.add_op(Op::FullyConnected {
        input: conv,
        filter: fw,
        bias: fb,
        output: out,
        activation: Activation::None,
    });
    b.set_input(input);
    b.set_output(out);
    b.build().unwrap()
}

proptest! {
    /// A reused interpreter is bit-identical to a fresh instance for every
    /// input, regardless of what ran before it.
    #[test]
    fn reused_interpreter_matches_fresh_instances(
        seed_input in proptest::collection::vec(-128i8..=127, 36..=36),
        probe_input in proptest::collection::vec(-128i8..=127, 36..=36),
    ) {
        let mut warm = Interpreter::new(model()).unwrap();
        // Pollute the warm interpreter's arena with an unrelated query.
        warm.invoke(&seed_input).unwrap();
        warm.invoke(&probe_input).unwrap();
        let warm_out = warm.output_quantized().unwrap().to_vec();

        let mut fresh = Interpreter::new(model()).unwrap();
        fresh.invoke(&probe_input).unwrap();
        prop_assert_eq!(fresh.output_quantized().unwrap(), &warm_out[..]);
    }

    /// Scrubbing between queries removes every trace of the previous
    /// query's activations from the arena.
    #[test]
    fn scrub_leaves_no_arena_residue(
        input in proptest::collection::vec(-128i8..=127, 36..=36),
    ) {
        let mut interp = Interpreter::new(model()).unwrap();
        interp.invoke(&input).unwrap();
        interp.scrub();
        prop_assert!(interp.arena_is_scrubbed());
    }
}

#[test]
fn repeated_invocations_are_stable_over_long_runs() {
    let mut warm = Interpreter::new(model()).unwrap();
    let inputs: Vec<Vec<i8>> = (0..10)
        .map(|k| {
            (0..36)
                .map(|i| ((i * 7 + k * 13) % 256) as u8 as i8)
                .collect()
        })
        .collect();
    let expected: Vec<Vec<i8>> = inputs
        .iter()
        .map(|input| {
            let mut fresh = Interpreter::new(model()).unwrap();
            fresh.invoke(input).unwrap();
            fresh.output_quantized().unwrap().to_vec()
        })
        .collect();
    // Interleave 100 queries over the warm interpreter in a fixed pattern.
    for round in 0..10 {
        for (input, exp) in inputs.iter().zip(&expected) {
            warm.invoke(input).unwrap();
            assert_eq!(
                warm.output_quantized().unwrap(),
                exp.as_slice(),
                "divergence in round {round}"
            );
        }
    }
}
