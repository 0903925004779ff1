//! SIMD/scalar parity suite: every vector backend the host can run must
//! reproduce the scalar reference **bitwise** — for the packed matmul
//! kernels, the outer-product convolution GEMMs (held to a naive triple
//! loop at the `pmaddwd` pair limit and the `2^17` reduction bound), the
//! requantize row helpers and the im2row fill (held to a
//! per-element reference, since it has no backend route of its own), across odd
//! shapes (remainder rows/columns, single-row and single-column products)
//! and thread counts, and end to end through the quantized inference plans
//! for every format in the paper's search space `{4, 6, 8, 16}`. The f32
//! matmul kernel is held to the same contract against a naive `ikj` loop
//! (through `Dense::backward` too, an infinite weight opposite a zero
//! gradient included), and one epoch of multi-exit ResNet-18 training must
//! leave bit-identical weights on every backend.
//!
//! Backends are forced through the process-global override
//! (`bnn_tensor::simd::set_backend_override`), so the scalar kernels stay
//! exercised on AVX2 hosts and the suite degrades gracefully on machines
//! with nothing but scalar (each sweep then compares scalar to itself).

use bayesnn_fpga::tensor::exec::Executor;
use bayesnn_fpga::tensor::int::{
    im2row_i16_into, matmul_ab_i32_into, matmul_ab_i64_into, matmul_abt_i64_into,
    matmul_wide_i32_into, requantize, requantize_i32_row_into, requantize_i64_row_into,
};
use bayesnn_fpga::tensor::linalg::{matmul_slices_into_with, ConvGeometry};
use bayesnn_fpga::tensor::rng::{Rng, Xoshiro256StarStar};
use bayesnn_fpga::tensor::simd::{available_backends, set_backend_override, Backend};
use bayesnn_fpga::tensor::Tensor;
use std::sync::Mutex;

/// The backend override is process-global; every test in this binary takes
/// this lock so forced selections never bleed across threads.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once per available backend (scalar included) with that backend
/// forced, handing it the scalar result of `reference` to compare against.
/// The override is always released, even if an assertion fires.
fn for_each_backend(mut f: impl FnMut(Backend)) {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            set_backend_override(None);
        }
    }
    let _reset = Reset;
    for backend in available_backends() {
        set_backend_override(Some(backend));
        f(backend);
    }
}

fn codes_i8_range(n: usize, rng: &mut Xoshiro256StarStar) -> Vec<i16> {
    (0..n)
        .map(|_| (rng.next_u64() % 255) as i8 as i16)
        .collect()
}

fn codes_i16(n: usize, rng: &mut Xoshiro256StarStar) -> Vec<i16> {
    (0..n).map(|_| rng.next_u64() as i16).collect()
}

/// Odd shapes: remainder rows against the 8/4-row register blocks,
/// remainder columns against the vector width, single-row and single-column
/// products, and a `k` spanning several vector strides plus a scalar tail.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 7, 1),
    (1, 40, 33),
    (2, 1, 5),
    (3, 16, 5),
    (5, 37, 1),
    (8, 33, 9),
    (9, 129, 2),
    (13, 40, 17),
];

#[test]
fn matmul_kernels_match_scalar_bitwise_across_backends_and_threads() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(41);
    for &(m, k, n) in SHAPES {
        let a8 = codes_i8_range(m * k, &mut rng);
        let bt8 = codes_i8_range(n * k, &mut rng);
        let a16 = codes_i16(m * k, &mut rng);
        let bt16 = codes_i16(n * k, &mut rng);
        for threads in [1usize, 4] {
            let exec = Executor::new(threads);
            let mut reference32 = vec![0i32; m * n];
            let mut reference64 = vec![0i64; m * n];
            {
                let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
                set_backend_override(Some(Backend::Scalar));
                matmul_wide_i32_into(&exec, &a8, &bt8, m, k, n, &mut reference32).unwrap();
                matmul_abt_i64_into(&exec, &a16, &bt16, m, k, n, &mut reference64).unwrap();
                set_backend_override(None);
            }
            for_each_backend(|backend| {
                let mut got32 = vec![0i32; m * n];
                matmul_wide_i32_into(&exec, &a8, &bt8, m, k, n, &mut got32).unwrap();
                assert_eq!(
                    got32, reference32,
                    "wide_i32 {m}x{k}x{n} threads={threads} backend={backend:?}"
                );
                let mut got64 = vec![0i64; m * n];
                matmul_abt_i64_into(&exec, &a16, &bt16, m, k, n, &mut got64).unwrap();
                assert_eq!(
                    got64, reference64,
                    "abt_i64 {m}x{k}x{n} threads={threads} backend={backend:?}"
                );
            });
        }
    }
}

/// The plain `a [m, k] x b [k, n]` triple loop in `i64`: the reference of
/// the outer-product GEMMs.
fn matmul_ab_reference(a: &[i16], b: &[i16], m: usize, k: usize, n: usize) -> Vec<i64> {
    let mut out = vec![0i64; m * n];
    for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (&av, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av as i64 * bv as i64;
            }
        }
    }
    out
}

/// Runs `matmul_ab_i32_into` and `matmul_ab_i64_into` on every backend at
/// one and four threads and holds both to [`matmul_ab_reference`]; the
/// `i32` kernel only on i8-range operands (`wide == false`).
fn check_matmul_ab(a: &[i16], b: &[i16], m: usize, k: usize, n: usize, wide: bool) {
    let reference = matmul_ab_reference(a, b, m, k, n);
    for threads in [1usize, 4] {
        let exec = Executor::new(threads);
        for_each_backend(|backend| {
            let ctx = format!("{m}x{k}x{n} wide={wide} threads={threads} backend={backend:?}");
            if !wide {
                let mut got = vec![i32::MIN; m * n];
                matmul_ab_i32_into(&exec, a, b, m, k, n, &mut got).unwrap();
                let got: Vec<i64> = got.into_iter().map(i64::from).collect();
                assert!(got == reference, "ab_i32 {ctx}");
            }
            let mut got = vec![i64::MIN; m * n];
            matmul_ab_i64_into(&exec, a, b, m, k, n, &mut got).unwrap();
            assert!(got == reference, "ab_i64 {ctx}");
        });
    }
}

#[test]
fn outer_product_matmuls_match_naive_reference_across_backends_and_threads() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(61);
    // Row counts around the 4-row tile, reductions with an odd last tap
    // (1, 27) and even ones, widths around the 16- and 8-column tiles plus
    // the widest conv of the offline ResNet-18 (batch 32 on 12x12 planes).
    for m in [1usize, 3, 4, 5, 8, 33] {
        for k in [1usize, 2, 27, 36, 288] {
            for n in [1usize, 15, 16, 17, 4608] {
                // Every operand at -128: each pmaddwd pair sums to 2^15,
                // its largest i8-range value.
                let (a, b) = (vec![-128i16; m * k], vec![-128i16; k * n]);
                check_matmul_ab(&a, &b, m, k, n, false);
                let a = codes_i8_range(m * k, &mut rng);
                let b = codes_i8_range(k * n, &mut rng);
                check_matmul_ab(&a, &b, m, k, n, false);
                // Full-range codes and the i16 extremes, for the i64 body.
                let mut a = codes_i16(m * k, &mut rng);
                let mut b = codes_i16(k * n, &mut rng);
                a[0] = i16::MIN;
                b[0] = i16::MIN;
                a[m * k - 1] = i16::MAX;
                b[k * n - 1] = i16::MIN;
                check_matmul_ab(&a, &b, m, k, n, true);
                let (a, b) = (vec![i16::MIN; m * k], vec![i16::MAX; k * n]);
                check_matmul_ab(&a, &b, m, k, n, true);
            }
        }
    }
}

#[test]
fn outer_product_i32_matmul_is_exact_at_the_reduction_bound() {
    // k = 2^17 - 1 taps at -128 x -128 sum to 2^31 - 2^14: the largest
    // accumulator the i32 kernel may produce. One more tap is rejected.
    let k = (1usize << 17) - 1;
    for (m, n) in [(1usize, 17usize), (5, 16)] {
        let (a, b) = (vec![-128i16; m * k], vec![-128i16; k * n]);
        check_matmul_ab(&a, &b, m, k, n, false);
    }
    let (a, b) = (vec![0i16; 1 << 17], vec![0i16; 1 << 17]);
    let mut out = [0i32; 1];
    let exec = Executor::sequential();
    assert!(matmul_ab_i32_into(&exec, &a, &b, 1, 1 << 17, 1, &mut out).is_err());
}

#[test]
fn transposed_i16_matmul_matches_naive_reference() {
    // `[m, k] x [k, n]` through an in-test transpose of `b` and the abt
    // kernel, pinned to a naive triple loop so the packed layout itself is
    // verified, not just backend-vs-backend consistency.
    let mut rng = Xoshiro256StarStar::seed_from_u64(43);
    for &(m, k, n) in SHAPES {
        let a = codes_i16(m * k, &mut rng);
        let b = codes_i16(k * n, &mut rng);
        let mut naive = vec![0i64; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i64;
                for p in 0..k {
                    acc += a[i * k + p] as i64 * b[p * n + j] as i64;
                }
                naive[i * n + j] = acc;
            }
        }
        let mut bt = vec![0i16; n * k];
        for (p, b_row) in b.chunks_exact(n).enumerate() {
            for (j, &v) in b_row.iter().enumerate() {
                bt[j * k + p] = v;
            }
        }
        for_each_backend(|backend| {
            let mut got = vec![0i64; m * n];
            matmul_abt_i64_into(&Executor::sequential(), &a, &bt, m, k, n, &mut got).unwrap();
            assert_eq!(got, naive, "{m}x{k}x{n} backend={backend:?}");
        });
    }
}

#[test]
fn requantize_rows_match_scalar_bitwise_across_backends() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(47);
    let len = 163; // several vector strides plus a ragged tail
    let acc32: Vec<i32> = (0..len).map(|_| rng.next_u64() as i32 >> 8).collect();
    let acc64: Vec<i64> = (0..len).map(|_| rng.next_u64() as i64 >> 16).collect();
    let biases: Vec<i64> = (0..len)
        .map(|_| (rng.next_u64() % 4096) as i64 - 2048)
        .collect();
    // Rows of an accumulator matrix, one bias each, as the GEMM steps'
    // epilogue runs them: the 163-long row once per bias.
    // Shift 0, mid-range shifts, a shift past every accumulator bit, and a
    // negative (scale-up) shift that must take the scalar fallback; bounds
    // include narrow 4-bit-style ranges and the full i16 storage range.
    for shift in [0i32, 1, 7, 13, 40, -2] {
        for (qmin, qmax) in [
            (-128i64, 127i64),
            (-8, 7),
            (i16::MIN as i64, i16::MAX as i64),
        ] {
            let mut reference32 = vec![0i16; len];
            let mut reference64 = vec![0i16; len];
            {
                let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
                set_backend_override(Some(Backend::Scalar));
                requantize_i32_row_into(&acc32, 77, shift, qmin, qmax, &mut reference32);
                requantize_i64_row_into(&acc64, -129, shift, qmin, qmax, &mut reference64);
                set_backend_override(None);
            }
            // The per-row-bias cases against the per-element `requantize`.
            let naive = |acc: &dyn Fn(usize) -> i64, bias: i64| -> Vec<i16> {
                (0..len)
                    .map(|i| requantize(acc(i) + bias, shift, qmin, qmax) as i16)
                    .collect()
            };
            for_each_backend(|backend| {
                let ctx = format!("shift={shift} bounds=({qmin},{qmax}) backend={backend:?}");
                let mut got = vec![0i16; len];
                requantize_i32_row_into(&acc32, 77, shift, qmin, qmax, &mut got);
                assert_eq!(got, reference32, "i32 row {ctx}");
                requantize_i64_row_into(&acc64, -129, shift, qmin, qmax, &mut got);
                assert_eq!(got, reference64, "i64 row {ctx}");
                for (r, &bias) in biases.iter().enumerate() {
                    requantize_i32_row_into(&acc32, bias, shift, qmin, qmax, &mut got);
                    let expected = naive(&|i| acc32[i].into(), bias);
                    assert_eq!(got, expected, "i32 row {r} bias={bias} {ctx}");
                    requantize_i64_row_into(&acc64, bias, shift, qmin, qmax, &mut got);
                    let expected = naive(&|i| acc64[i], bias);
                    assert_eq!(got, expected, "i64 row {r} bias={bias} {ctx}");
                }
            });
        }
    }
}

/// The per-element im2row: every patch entry bounds-checked on its own.
fn im2row_reference(input: &[i16], batch: usize, channels: usize, g: &ConvGeometry) -> Vec<i16> {
    let (out_h, out_w) = (g.out_h(), g.out_w());
    let mut out = Vec::new();
    for b in 0..batch {
        for oh in 0..out_h {
            for ow in 0..out_w {
                for c in 0..channels {
                    for kh in 0..g.kernel_h {
                        for kw in 0..g.kernel_w {
                            let ih = (oh * g.stride_h + kh) as isize - g.pad_h as isize;
                            let iw = (ow * g.stride_w + kw) as isize - g.pad_w as isize;
                            let inside = ih >= 0
                                && iw >= 0
                                && (ih as usize) < g.in_h
                                && (iw as usize) < g.in_w;
                            out.push(if inside {
                                input[((b * channels + c) * g.in_h + ih as usize) * g.in_w
                                    + iw as usize]
                            } else {
                                0
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

#[test]
fn im2row_matches_scalar_bitwise_across_backends() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(53);
    // (batch, channels, in_h, in_w, kernel, stride, padding): padded,
    // unpadded, strided, 1x1, 2x2, a kernel wider than the padding and one
    // wider than the padded input, 3x3 planes, one channel and batch 1.
    let cases = [
        (2usize, 3usize, 9usize, 7usize, 3usize, 1usize, 1usize),
        (2, 3, 9, 7, 3, 2, 0),
        (2, 3, 9, 7, 1, 1, 0),
        (2, 3, 9, 7, 5, 1, 2),
        (2, 3, 9, 7, 4, 3, 1),
        (2, 3, 9, 7, 2, 2, 1),
        (1, 1, 3, 3, 3, 1, 1),
        (1, 2, 3, 3, 5, 1, 0),
        (3, 1, 2, 2, 3, 3, 2),
        (1, 4, 12, 12, 3, 2, 1),
    ];
    for (batch, channels, in_h, in_w, kernel, stride, padding) in cases {
        let input = codes_i16(batch * channels * in_h * in_w, &mut rng);
        let geom = ConvGeometry::square(in_h, in_w, kernel, stride, padding);
        let reference = im2row_reference(&input, batch, channels, &geom);
        let rows = channels * kernel * kernel;
        for_each_backend(|backend| {
            let mut got = Vec::new();
            let shape = im2row_i16_into(&input, batch, channels, &geom, &mut got).unwrap();
            assert_eq!(shape, (rows, reference.len() / rows));
            assert_eq!(
                got, reference,
                "{batch}x{channels}x{in_h}x{in_w} kernel={kernel} stride={stride} \
                 pad={padding} backend={backend:?}"
            );
        });
    }
}

#[test]
fn quantized_plans_are_backend_invariant_across_formats() {
    use bayesnn_fpga::models::{zoo, ModelConfig};
    use bayesnn_fpga::quant::{CalibratedNetwork, FixedPointFormat};

    // A small multi-exit LeNet-5 (random weights suffice: parity is about
    // arithmetic, not accuracy) calibrated on random images.
    let model_cfg = ModelConfig::mnist()
        .with_resolution(10, 10)
        .with_width_divisor(8)
        .with_classes(4);
    let network = zoo::lenet5(&model_cfg)
        .with_exits_after_every_block()
        .unwrap()
        .with_exit_mcd(0.25)
        .unwrap()
        .build(9)
        .unwrap();
    let mut rng = Xoshiro256StarStar::seed_from_u64(59);
    let calib = Tensor::randn(&[12, 1, 10, 10], &mut rng);
    let images = Tensor::randn(&[5, 1, 10, 10], &mut rng);
    let calibrated = CalibratedNetwork::calibrate(&network, &calib).unwrap();

    for format in FixedPointFormat::search_space() {
        let mut plan = calibrated.plan(format).unwrap();
        let reference;
        {
            let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            set_backend_override(Some(Backend::Scalar));
            reference = plan.predict_probs(&images, 8, 2023).unwrap();
            set_backend_override(None);
        }
        for_each_backend(|backend| {
            let got = plan.predict_probs(&images, 8, 2023).unwrap();
            assert_eq!(
                got.as_slice(),
                reference.as_slice(),
                "{format} backend={backend:?}"
            );
        });
    }
}

/// The f32 matmul contract, written as the plainest loop: each element
/// starts at `+0.0` and adds `a[i][p] * b[p][j]` for ascending `p`, skipping
/// every `p` where `a[i][p] == 0.0`.
fn matmul_f32_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
        for p in 0..k {
            let a_ip = a[i * k + p];
            if a_ip == 0.0 {
                continue;
            }
            for (o, &b_pj) in out_row.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                *o += a_ip * b_pj;
            }
        }
    }
    out
}

/// Operands that exercise every rule of the f32 contract: a ReLU-sparse `a`
/// whose zeros carry both signs, a `b` with signed zeros, and a last `p`
/// where every `a[i][p]` is zero opposite `b[p][j]` in {+inf, -inf, NaN} —
/// the zero-skip rule keeps those out of the result. From `k >= 36` on, the
/// first two `p` also pair a nonzero `a` column with `+inf`/`-inf` entries
/// of `b`, so some outputs are legitimately infinite or NaN.
fn f32_operands(
    m: usize,
    k: usize,
    n: usize,
    rng: &mut Xoshiro256StarStar,
) -> (Vec<f32>, Vec<f32>) {
    let signed_zero =
        |rng: &mut Xoshiro256StarStar| if rng.next_u64() & 1 == 0 { 0.0 } else { -0.0 };
    let mut a = Tensor::randn(&[m * k], rng).into_vec();
    for v in &mut a {
        if *v <= 0.0 {
            *v = signed_zero(rng);
        }
    }
    let mut b = Tensor::randn(&[k * n], rng).into_vec();
    for v in &mut b {
        if rng.next_u64() % 8 == 0 {
            *v = signed_zero(rng);
        }
    }
    let poison = k - 1;
    for i in 0..m {
        a[i * k + poison] = signed_zero(rng);
    }
    for (j, v) in b[poison * n..(poison + 1) * n].iter_mut().enumerate() {
        *v = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][j % 3];
    }
    if k >= 36 {
        for (p, inf) in [(0usize, f32::INFINITY), (1, f32::NEG_INFINITY)] {
            for i in 0..m {
                a[i * k + p] = 0.5 + a[i * k + p].abs();
            }
            for j in (0..n).step_by(4) {
                b[p * n + j] = inf;
            }
        }
    }
    (a, b)
}

#[test]
fn f32_matmul_matches_ikj_reference_bitwise_across_backends_and_threads() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(61);
    for k in [1usize, 2, 36, 4608] {
        for m in [1usize, 3, 5, 7, 9, 33] {
            for n in [1usize, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33] {
                let (a, b) = f32_operands(m, k, n, &mut rng);
                let expected: Vec<u32> = matmul_f32_reference(&a, &b, m, k, n)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                for threads in [1usize, 4] {
                    let exec = Executor::new(threads);
                    for_each_backend(|backend| {
                        let mut out = vec![f32::NAN; m * n];
                        matmul_slices_into_with(&exec, &a, &b, m, k, n, &mut out).unwrap();
                        let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(
                            got, expected,
                            "{m}x{k}x{n} threads={threads} backend={backend:?}"
                        );
                    });
                }
            }
        }
    }
}

/// `Dense::backward` runs both of its products on the tiled kernel, so the
/// zero-skip rule reaches the input gradient: an infinite weight opposite a
/// gradient column that is zero in every row contributes nothing, where a
/// plain dot product would give `0 * inf = NaN`.
#[test]
fn dense_backward_skips_zero_gradients_opposite_infinite_weights() {
    use bayesnn_fpga::nn::layers::dense::Dense;
    use bayesnn_fpga::nn::{Layer, Mode};

    let (batch, in_f, out_f) = (3usize, 5usize, 4usize);
    let mut rng = Xoshiro256StarStar::seed_from_u64(67);
    let x = Tensor::randn(&[batch, in_f], &mut rng);
    let mut g = Tensor::randn(&[batch, out_f], &mut rng).into_vec();
    for row in g.chunks_exact_mut(out_f) {
        row[2] = 0.0;
    }
    let g = Tensor::from_vec(g, &[batch, out_f]).unwrap();
    let mut expected = None;
    for_each_backend(|backend| {
        let mut dense = Dense::new(in_f, out_f, 3).unwrap();
        for (row, inf) in [(0, f32::INFINITY), (3, f32::NEG_INFINITY)] {
            dense.params_mut()[0].value.as_mut_slice()[row * out_f + 2] = inf;
        }
        let w = dense.params()[0].value.as_slice().to_vec();
        let w_t: Vec<f32> = (0..out_f * in_f)
            .map(|idx| w[(idx % in_f) * out_f + idx / in_f])
            .collect();
        dense.forward(&x, Mode::Train).unwrap();
        let dx = dense.backward(&g).unwrap();
        let reference = matmul_f32_reference(g.as_slice(), &w_t, batch, out_f, in_f);
        assert!(reference.iter().all(|v| v.is_finite()));
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(dx.as_slice()), bits(&reference), "backend={backend:?}");
        let got = bits(dx.as_slice());
        assert_eq!(expected.get_or_insert_with(|| got.clone()), &got);
    });
}

#[test]
fn training_is_backend_invariant() {
    use bayesnn_fpga::data::{DatasetSpec, SyntheticConfig};
    use bayesnn_fpga::models::{zoo, LayerSpec, ModelConfig};
    use bayesnn_fpga::nn::optimizer::Sgd;
    use bayesnn_fpga::nn::trainer::{train, LabelledBatchSource, TrainConfig};

    // A quick-demo-sized MCD+ME ResNet-18: batch norm throughout, a 1x1
    // projection shortcut where a stage changes width, and MC-dropout exits
    // after every block.
    let spec = zoo::resnet18(
        &ModelConfig::cifar10()
            .with_resolution(12, 12)
            .with_width_divisor(16),
    )
    .with_exits_after_every_block()
    .unwrap()
    .with_exit_mcd(0.25)
    .unwrap();
    let has_projection =
        spec.blocks.iter().flatten().any(
            |layer| matches!(layer, LayerSpec::Residual { shortcut, .. } if !shortcut.is_empty()),
        );
    assert!(has_projection && spec.exits.len() > 1);
    let data = SyntheticConfig::new(DatasetSpec::cifar10_like().with_resolution(12, 12))
        .with_samples(40, 8)
        .generate(5)
        .unwrap();
    let batches =
        LabelledBatchSource::new(data.train.inputs().clone(), data.train.labels().to_vec())
            .unwrap();
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 16,
        distillation_weight: 0.5,
        temperature: 2.0,
        seed: 3,
        shuffle: true,
    };
    let train_once = || {
        let mut network = spec.build(7).unwrap();
        let mut sgd = Sgd::new(0.05).with_momentum(0.9).with_weight_decay(5e-4);
        train(&mut network, &batches, &mut sgd, &cfg).unwrap();
        let checkpoint = network.checkpoint();
        let params: Vec<u32> = checkpoint
            .params
            .iter()
            .flat_map(|t| t.as_slice().iter().map(|v| v.to_bits()))
            .collect();
        let state: Vec<u32> = checkpoint
            .container_state
            .iter()
            .flatten()
            .flatten()
            .map(|v| v.to_bits())
            .collect();
        (params, state)
    };
    let reference;
    {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_backend_override(Some(Backend::Scalar));
        reference = train_once();
        set_backend_override(None);
    }
    assert!(!reference.0.is_empty() && !reference.1.is_empty());
    for_each_backend(|backend| {
        let got = train_once();
        assert!(
            got.0 == reference.0,
            "trained weights differ on {backend:?}"
        );
        assert!(
            got.1 == reference.1,
            "batch-norm state differs on {backend:?}"
        );
    });
}
