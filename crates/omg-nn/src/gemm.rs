//! Blocked int8 GEMM core and im2col packing for the fast kernels.
//!
//! This is the compute engine [`crate::kernels_fast`] lowers convolutions
//! onto: `conv2d` packs each input patch into a row of an im2col panel,
//! then a single matrix multiply against the OHWI filter matrix produces
//! every output pixel. The GEMM itself is written so LLVM autovectorizes
//! it on any target — contiguous-slice inner loops over fixed-width
//! accumulator lanes, no `std::arch` — and stays bit-exact with the
//! scalar TFLM reference pipeline:
//!
//! * all accumulation is in `i32`, where lane-reassociated sums are
//!   *exactly* the sums the reference kernels compute term by term;
//! * the asymmetric input zero point is hoisted out of the inner loop
//!   gemmlowp-style: `Σ (a_i + off) · b_i = Σ a_i·b_i + off · Σ b_i`,
//!   with the per-filter-row sums `Σ b_i` ([`row_sums`]) precomputed
//!   once per compiled step — filters are constant, so the interpreter
//!   pays for them at construction, never on the hot path;
//! * padding positions are packed as the input zero point, whose hoisted
//!   contribution `(zp + off) · b = 0` vanishes identically, matching the
//!   reference kernels' skip-the-border behaviour bit for bit.
//!
//! The only per-invoke scratch — the im2col panel — is planned into the
//! interpreter's activation arena (see [`conv_im2col_len`]), so `invoke`
//! performs no heap allocation.
//!
//! Two orthogonal accelerators sit on top of the portable core:
//!
//! * **SIMD dispatch** — [`gemm_with`] takes a [`KernelVTable`]
//!   (see [`crate::arch`]) and routes every inner dot product through it,
//!   so the AVX2/NEON tiers slot under `conv2d` and the im2col path
//!   without changing a single loop here. [`gemm`] uses the best detected
//!   tier.
//! * **Row-panel threading** — when the process-wide [`thread_budget`] is
//!   raised above one, [`gemm_with`] splits the `m` output rows into
//!   contiguous panels and runs them on scoped threads. Rows are
//!   independent (each output cell is one dot product plus requantize),
//!   so the split is bit-exact by construction; scoped threads join
//!   before the call returns, so a panicking panel can never leave a
//!   dangling borrow of the arena. The budget defaults to **1** (no
//!   threads spawned, preserving the interpreter's zero-allocation
//!   invoke) and composes with `omg-serve`'s thread-per-device workers:
//!   raise it only when devices are scarcer than cores.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::arch::{self, KernelVTable};
use crate::quantize::FixedMultiplier;

/// Hard cap on [`thread_budget`]: a misconfigured env var cannot fork
/// bomb a worker fleet.
pub const MAX_GEMM_THREADS: usize = 64;

/// Below this many multiply-accumulates a GEMM never splits: spawning
/// threads costs tens of microseconds, which tiny proptest shapes and
/// single-row fully-connected layers would pay without recouping.
const PAR_MIN_MACS: usize = 1 << 18;

/// Minimum output rows per panel worth a thread of its own.
const PAR_MIN_ROWS: usize = 32;

/// 0 = not yet initialized (first read resolves `OMG_GEMM_THREADS`).
static THREAD_BUDGET: AtomicUsize = AtomicUsize::new(0);

/// Global-registry gauge mirroring the resolved budget, so metrics
/// snapshots show the knob kernels are actually running with.
fn budget_gauge() -> &'static omg_obs::Gauge {
    static GAUGE: std::sync::OnceLock<omg_obs::Gauge> = std::sync::OnceLock::new();
    GAUGE.get_or_init(|| {
        omg_obs::global().gauge(
            "omg_nn_gemm_thread_budget",
            "Process-wide GEMM kernel thread budget",
        )
    })
}

/// The process-wide GEMM thread budget: the maximum number of scoped
/// threads one [`gemm`] call may use. Defaults to `OMG_GEMM_THREADS` if
/// set (clamped to `1..=`[`MAX_GEMM_THREADS`]), else 1.
pub fn thread_budget() -> usize {
    match THREAD_BUDGET.load(Ordering::Relaxed) {
        0 => {
            let initial = std::env::var("OMG_GEMM_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .map_or(1, |n| n.clamp(1, MAX_GEMM_THREADS));
            // Racing initializers compute the same value; keep whichever
            // landed first so a concurrent `set_thread_budget` wins.
            let _ =
                THREAD_BUDGET.compare_exchange(0, initial, Ordering::Relaxed, Ordering::Relaxed);
            let resolved = THREAD_BUDGET.load(Ordering::Relaxed);
            budget_gauge().set(resolved as i64);
            resolved
        }
        n => n,
    }
}

/// Sets the process-wide GEMM thread budget (clamped to
/// `1..=`[`MAX_GEMM_THREADS`]), returning the previous value. An explicit
/// call overrides `OMG_GEMM_THREADS`.
pub fn set_thread_budget(threads: usize) -> usize {
    let clamped = threads.clamp(1, MAX_GEMM_THREADS);
    budget_gauge().set(clamped as i64);
    match THREAD_BUDGET.swap(clamped, Ordering::Relaxed) {
        0 => 1,
        prev => prev,
    }
}

/// Accumulator width of the vectorizable inner loops. 16 × i32 covers a
/// 512-bit vector unit and folds cleanly onto 128/256-bit ones.
pub const LANES: usize = 16;

/// Dot product of two equal-length i8 slices, widened to i32.
///
/// Fixed-width lane accumulators plus `chunks_exact` give LLVM a loop it
/// can turn into packed multiply-adds on every mainstream target.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0i32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..LANES {
            lanes[l] += i32::from(xa[l]) * i32::from(xb[l]);
        }
    }
    let mut acc: i32 = lanes.iter().sum();
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        acc += i32::from(x) * i32::from(y);
    }
    acc
}

/// Like [`dot_i8`] but with the asymmetric input offset applied inline:
/// `Σ (a_i + offset) · b_i`. Used where hoisting via row sums would cost
/// as much as it saves (fully connected layers with batch 1).
#[inline]
pub fn dot_i8_offset(a: &[i8], b: &[i8], offset: i32) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0i32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..LANES {
            lanes[l] += (i32::from(xa[l]) + offset) * i32::from(xb[l]);
        }
    }
    let mut acc: i32 = lanes.iter().sum();
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        acc += (i32::from(x) + offset) * i32::from(y);
    }
    acc
}

/// Per-row sums of an `n × k` row-major i8 matrix, written into `out[..n]`.
/// One pass over the filter, amortized across every GEMM row.
pub fn row_sums(b: &[i8], n: usize, k: usize, out: &mut [i32]) {
    debug_assert!(b.len() >= n * k);
    debug_assert!(out.len() >= n);
    for (j, o) in out.iter_mut().enumerate().take(n) {
        let row = &b[j * k..][..k];
        let mut lanes = [0i32; LANES];
        let mut chunks = row.chunks_exact(LANES);
        for c in chunks.by_ref() {
            for l in 0..LANES {
                lanes[l] += i32::from(c[l]);
            }
        }
        let mut sum: i32 = lanes.iter().sum();
        for &v in chunks.remainder() {
            sum += i32::from(v);
        }
        *o = sum;
    }
}

/// Arguments for [`gemm`]: `out = requant(A · Bᵀ + bias)` with the
/// gemmlowp offset-hoisting described at module level.
#[derive(Debug)]
pub struct GemmArgs<'a> {
    /// Left matrix, `m × k` row-major (im2col panel or raw activations).
    pub a: &'a [i8],
    /// Right matrix, `n × k` row-major — one filter per row, so the
    /// product needs no transposition of the OHWI weight layout.
    pub b: &'a [i8],
    /// Per-output-channel bias, length `n`.
    pub bias: &'a [i32],
    /// Per-row sums of `b` (see [`row_sums`]), length `n`.
    pub b_row_sums: &'a [i32],
    /// Output, `m × n` row-major (NHWC pixels × channels).
    pub out: &'a mut [i8],
    /// Rows of `a` / output pixels.
    pub m: usize,
    /// Rows of `b` / output channels.
    pub n: usize,
    /// Shared inner dimension.
    pub k: usize,
    /// `-input_zero_point`.
    pub input_offset: i32,
    /// `output_zero_point`.
    pub output_offset: i32,
    /// Requantization multiplier.
    pub multiplier: FixedMultiplier,
    /// Fused activation clamp low.
    pub act_min: i8,
    /// Fused activation clamp high.
    pub act_max: i8,
}

/// Blocked int8×int8→i32 matrix multiply with fused requantization,
/// using the best dot-product tier the CPU supports
/// ([`crate::arch::detect`]). Equivalent to
/// `gemm_with(arch::detect(), args)`.
pub fn gemm(args: GemmArgs<'_>) {
    gemm_with(arch::detect(), args);
}

/// [`gemm`] with an explicit dispatch tier.
///
/// B is walked in column panels so a panel's rows stay cache-hot across
/// every row of A; each `(i, j)` cell is a contiguous `dot_i8` plus the
/// hoisted offset and bias, requantized straight into the i8 output.
/// When [`thread_budget`] exceeds one and the problem clears the
/// minimum-work thresholds, the `m` rows are split into contiguous
/// panels executed on scoped threads — bit-exact, since every output row
/// is computed by exactly the same code either way.
pub fn gemm_with(vt: &'static KernelVTable, args: GemmArgs<'_>) {
    let GemmArgs {
        a,
        b,
        bias,
        b_row_sums,
        out,
        m,
        n,
        k,
        input_offset,
        output_offset,
        multiplier,
        act_min,
        act_max,
    } = args;
    debug_assert!(a.len() >= m * k);
    debug_assert!(b.len() >= n * k);
    debug_assert!(bias.len() >= n && b_row_sums.len() >= n);
    debug_assert!(out.len() >= m * n);
    let cell = CellParams {
        input_offset,
        output_offset,
        multiplier,
        clamp: (i32::from(act_min), i32::from(act_max)),
    };
    let budget = thread_budget();
    let threads = if budget > 1 && m * n * k >= PAR_MIN_MACS {
        budget.min(m / PAR_MIN_ROWS).max(1)
    } else {
        1
    };
    if threads <= 1 {
        gemm_rows(
            vt,
            &a[..m * k],
            b,
            bias,
            b_row_sums,
            &mut out[..m * n],
            n,
            k,
            cell,
        );
        return;
    }
    std::thread::scope(|scope| {
        let mut a_rest: &[i8] = &a[..m * k];
        let mut out_rest: &mut [i8] = &mut out[..m * n];
        for t in 0..threads {
            let rows = m / threads + usize::from(t < m % threads);
            let (a_panel, a_tail) = a_rest.split_at(rows * k);
            a_rest = a_tail;
            let (out_panel, out_tail) = std::mem::take(&mut out_rest).split_at_mut(rows * n);
            out_rest = out_tail;
            scope.spawn(move || gemm_rows(vt, a_panel, b, bias, b_row_sums, out_panel, n, k, cell));
        }
    });
}

/// Requantization parameters shared by every output cell.
#[derive(Clone, Copy)]
struct CellParams {
    input_offset: i32,
    output_offset: i32,
    multiplier: FixedMultiplier,
    clamp: (i32, i32),
}

/// One contiguous panel of output rows: `a_panel` is `rows × k`,
/// `out_panel` is `rows × n`.
#[allow(clippy::too_many_arguments)]
fn gemm_rows(
    vt: &KernelVTable,
    a_panel: &[i8],
    b: &[i8],
    bias: &[i32],
    b_row_sums: &[i32],
    out_panel: &mut [i8],
    n: usize,
    k: usize,
    cell: CellParams,
) {
    let rows = out_panel.len() / n.max(1);
    let (lo, hi) = cell.clamp;
    // Column-panel width: enough rows of B to amortize streaming A, small
    // enough that a panel of realistic k stays in L1.
    const NB: usize = 8;
    let mut jb = 0;
    while jb < n {
        let jn = NB.min(n - jb);
        for i in 0..rows {
            let a_row = &a_panel[i * k..][..k];
            let out_cells = &mut out_panel[i * n + jb..][..jn];
            for (jj, out_cell) in out_cells.iter_mut().enumerate() {
                let j = jb + jj;
                let acc = (vt.dot_i8)(a_row, &b[j * k..][..k])
                    + cell.input_offset * b_row_sums[j]
                    + bias[j];
                let scaled = cell.multiplier.apply(acc) + cell.output_offset;
                *out_cell = scaled.clamp(lo, hi) as i8;
            }
        }
        jb += NB;
    }
}

/// Whether a convolution needs an im2col panel at all. A 1×1 kernel at
/// stride 1 with no padding reads the NHWC input as the `m × k` matrix
/// directly (`m = h·w`, `k = c`), skipping the pack entirely.
pub fn conv_uses_im2col(
    filter_shape: [usize; 4],
    stride: (usize, usize),
    pad: (usize, usize),
) -> bool {
    !(filter_shape[1] == 1 && filter_shape[2] == 1 && stride == (1, 1) && pad == (0, 0))
}

/// im2col panel length in bytes for one batch of a convolution (zero when
/// [`conv_uses_im2col`] says the input is usable in place).
pub fn conv_im2col_len(
    filter_shape: [usize; 4],
    output_shape: [usize; 4],
    stride: (usize, usize),
    pad: (usize, usize),
) -> usize {
    if conv_uses_im2col(filter_shape, stride, pad) {
        output_shape[1] * output_shape[2] * filter_shape[1] * filter_shape[2] * filter_shape[3]
    } else {
        0
    }
}

/// Packs one batch's NHWC input plane into an im2col panel: row `(oy, ox)`
/// holds the `(ky, kx, ic)`-ordered patch under that output pixel, so a
/// flattened OHWI filter row dots against it directly.
///
/// Out-of-bounds positions are filled with `pad_value` (the input zero
/// point), whose hoisted-offset contribution is exactly zero. Interior
/// rows collapse to a single `copy_from_slice` per kernel row.
#[allow(clippy::too_many_arguments)]
pub fn im2col(
    input: &[i8],
    in_h: usize,
    in_w: usize,
    in_c: usize,
    k_h: usize,
    k_w: usize,
    stride: (usize, usize),
    pad: (usize, usize),
    out_h: usize,
    out_w: usize,
    pad_value: i8,
    col: &mut [i8],
) {
    let patch = k_h * k_w * in_c;
    debug_assert!(input.len() >= in_h * in_w * in_c);
    debug_assert!(col.len() >= out_h * out_w * patch);
    for oy in 0..out_h {
        let iy0 = (oy * stride.0) as isize - pad.0 as isize;
        for ox in 0..out_w {
            let ix0 = (ox * stride.1) as isize - pad.1 as isize;
            let dst = &mut col[(oy * out_w + ox) * patch..][..patch];
            for ky in 0..k_h {
                let iy = iy0 + ky as isize;
                let row_dst = &mut dst[ky * k_w * in_c..][..k_w * in_c];
                if iy < 0 || iy >= in_h as isize {
                    row_dst.fill(pad_value);
                    continue;
                }
                let src_row = &input[(iy as usize * in_w) * in_c..][..in_w * in_c];
                // kx is valid iff 0 <= ix0 + kx < in_w.
                let kx_lo = (-ix0).clamp(0, k_w as isize) as usize;
                let kx_hi = (in_w as isize - ix0).clamp(0, k_w as isize) as usize;
                row_dst[..kx_lo * in_c].fill(pad_value);
                row_dst[kx_hi * in_c..].fill(pad_value);
                if kx_lo < kx_hi {
                    let src_off = (ix0 + kx_lo as isize) as usize * in_c;
                    row_dst[kx_lo * in_c..kx_hi * in_c]
                        .copy_from_slice(&src_row[src_off..src_off + (kx_hi - kx_lo) * in_c]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_products_match_scalar() {
        let a: Vec<i8> = (0..100).map(|i| (i % 23) as i8 - 11).collect();
        let b: Vec<i8> = (0..100).map(|i| (i % 17) as i8 - 8).collect();
        let scalar: i32 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| i32::from(x) * i32::from(y))
            .sum();
        assert_eq!(dot_i8(&a, &b), scalar);
        let off = 37;
        let scalar_off: i32 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| (i32::from(x) + off) * i32::from(y))
            .sum();
        assert_eq!(dot_i8_offset(&a, &b, off), scalar_off);
        // Hoisting identity: dot + off * sum(b).
        let bsum: i32 = b.iter().map(|&v| i32::from(v)).sum();
        assert_eq!(dot_i8(&a, &b) + off * bsum, scalar_off);
    }

    #[test]
    fn row_sums_match_scalar() {
        let b: Vec<i8> = (0..60).map(|i| (i % 29) as i8 - 14).collect();
        let mut sums = [0i32; 3];
        row_sums(&b, 3, 20, &mut sums);
        for j in 0..3 {
            let want: i32 = b[j * 20..][..20].iter().map(|&v| i32::from(v)).sum();
            assert_eq!(sums[j], want);
        }
    }

    #[test]
    fn gemm_identity() {
        // 2x2 identity B, unit multiplier: out == a (k = n = 2).
        let a = [3i8, -4, 5, 6];
        let b = [1i8, 0, 0, 1];
        let mut sums = [0i32; 2];
        row_sums(&b, 2, 2, &mut sums);
        let mut out = [0i8; 4];
        gemm(GemmArgs {
            a: &a,
            b: &b,
            bias: &[0, 0],
            b_row_sums: &sums,
            out: &mut out,
            m: 2,
            n: 2,
            k: 2,
            input_offset: 0,
            output_offset: 0,
            multiplier: FixedMultiplier::from_real(0.999_999_999).unwrap(),
            act_min: -128,
            act_max: 127,
        });
        assert_eq!(out, a);
    }

    /// Budget accounting and row-panel threading in one test: the global
    /// budget is process-wide state, so probing it from two concurrent
    /// `#[test]`s would race.
    ///
    /// Threading must be invisible in the output: same GEMM, budgets
    /// 1/2/3/4, bit-identical results on a shape large enough to split.
    #[test]
    fn threaded_gemm_is_bit_exact_and_budget_is_clamped() {
        let prev = set_thread_budget(4);
        assert_eq!(thread_budget(), 4);
        assert_eq!(set_thread_budget(0), 4); // clamped up to 1
        assert_eq!(thread_budget(), 1);
        assert_eq!(set_thread_budget(10_000), 1); // clamped to the cap
        assert_eq!(thread_budget(), MAX_GEMM_THREADS);
        set_thread_budget(prev);
        let (m, n, k) = (256, 16, 64); // 262144 MACs: clears PAR_MIN_MACS
        let a: Vec<i8> = (0..m * k).map(|i| ((i * 13) % 256) as u8 as i8).collect();
        let b: Vec<i8> = (0..n * k).map(|i| ((i * 29) % 256) as u8 as i8).collect();
        let bias: Vec<i32> = (0..n as i32).map(|i| i * 11 - 60).collect();
        let mut sums = vec![0i32; n];
        row_sums(&b, n, k, &mut sums);
        let run = |budget: usize| -> Vec<i8> {
            let prev = set_thread_budget(budget);
            let mut out = vec![0i8; m * n];
            gemm(GemmArgs {
                a: &a,
                b: &b,
                bias: &bias,
                b_row_sums: &sums,
                out: &mut out,
                m,
                n,
                k,
                input_offset: 7,
                output_offset: -3,
                multiplier: FixedMultiplier::from_real(0.0017).unwrap(),
                act_min: -128,
                act_max: 127,
            });
            set_thread_budget(prev);
            out
        };
        let single = run(1);
        assert_eq!(run(2), single);
        assert_eq!(run(4), single);
        // Odd splits too: m % threads != 0 exercises the uneven panels.
        assert_eq!(run(3), single);
    }

    #[test]
    fn im2col_packs_valid_window() {
        // 3x3 single-channel input, 2x2 kernel, stride 1, no padding:
        // first patch is the top-left 2x2 block.
        let input: Vec<i8> = (1..=9).collect();
        let mut col = vec![0i8; 4 * 4];
        im2col(&input, 3, 3, 1, 2, 2, (1, 1), (0, 0), 2, 2, 0, &mut col);
        assert_eq!(&col[0..4], &[1, 2, 4, 5]);
        assert_eq!(&col[12..16], &[5, 6, 8, 9]);
    }

    #[test]
    fn im2col_fills_padding_with_zero_point() {
        // 2x2 input, 3x3 kernel, SAME padding (pad 1): the corner patch
        // has 5 padded positions.
        let input = [1i8, 2, 3, 4];
        let mut col = vec![99i8; 4 * 9];
        im2col(&input, 2, 2, 1, 3, 3, (1, 1), (1, 1), 2, 2, -7, &mut col);
        // Patch for output (0,0): rows ky=0 all pad; ky=1 -> pad,1,2;
        // ky=2 -> pad,3,4.
        assert_eq!(&col[0..9], &[-7, -7, -7, -7, 1, 2, -7, 3, 4]);
    }
}
