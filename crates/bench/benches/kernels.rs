//! Criterion micro-benches of the core computational kernels: convolution
//! forward pass, multi-exit MC-dropout prediction and calibration metrics.

use bnn_bayes::metrics::expected_calibration_error;
use bnn_bayes::sampling::{McSampler, SamplingConfig};
use bnn_core::ModelVariant;
use bnn_models::zoo::{self, Architecture};
use bnn_models::ModelConfig;
use bnn_nn::layer::Mode;
use bnn_nn::layers::conv2d::Conv2d;
use bnn_nn::Layer;
use bnn_quant::{CalibratedNetwork, FixedPointFormat};
use bnn_tensor::exec::Executor;
use bnn_tensor::int::{
    conv_i32_into, conv_i64_into, dense_i32_into, dense_i64_into, im2col_i16_into,
    requantize_i32_row_into, IntConv, IntDense,
};
use bnn_tensor::linalg::{col2im_slices_into, im2col, im2col_into, matmul, ConvGeometry};
use bnn_tensor::rng::{Rng, Xoshiro256StarStar};
use bnn_tensor::Tensor;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group.sample_size(20);

    let mut rng = Xoshiro256StarStar::seed_from_u64(1);

    // Above the parallel threshold: exercises the executor's row-block split
    // (thread count via BNN_THREADS; results are identical either way).
    let ma = Tensor::randn(&[256, 256], &mut rng);
    let mb = Tensor::randn(&[256, 256], &mut rng);
    group.bench_function("matmul_256x256x256", |b| {
        b.iter(|| matmul(&ma, &mb).unwrap())
    });

    // The integer plan's dense step (weights-left dot-product GEMM plus the
    // shared requantize epilogue) at the offline ResNet-18's widest exit
    // head, 32 -> 10 features at batch 32, on one thread: 8-bit codes with
    // i32 accumulation and 16-bit with i64. The operands are cut from two
    // 256x256 draws, so the rows below keep their inputs.
    let qa: Vec<i8> = (0..256 * 256)
        .map(|_| (rng.next_u64() % 255) as i8)
        .collect();
    let qb: Vec<i8> = (0..256 * 256)
        .map(|_| (rng.next_u64() % 255) as i8)
        .collect();
    let (in_f, out_f, batch) = (32usize, 10usize, 32usize);
    let dense_bias: Vec<i64> = qa[..out_f].iter().map(|&v| v as i64 * 64).collect();
    let seq = Executor::sequential();
    for (name, wide) in [("dense_i8_32x32x10", false), ("dense_i16_32x32x10", true)] {
        let (scale, shift, (min, max)) = match wide {
            false => (1i16, 7, (-128, 127)),
            true => (97, 15, (i16::MIN, i16::MAX)),
        };
        let weights: Vec<i16> = qa[..out_f * in_f]
            .iter()
            .map(|&v| v as i16 * scale)
            .collect();
        let input: Vec<i16> = qb[..batch * in_f]
            .iter()
            .map(|&v| v as i16 * scale)
            .collect();
        let dense = IntDense {
            in_f,
            out_f,
            weights: &weights,
            bias: &dense_bias,
            shift,
            min,
            max,
        };
        let (mut codes, mut acc32, mut acc64) = (Vec::new(), Vec::new(), Vec::new());
        let mut out = vec![0i16; batch * out_f];
        group.bench_function(name, |b| {
            b.iter(|| match wide {
                false => dense_i32_into(
                    &seq, &dense, &input, batch, &mut codes, &mut acc32, &mut out,
                ),
                true => dense_i64_into(
                    &seq, &dense, &input, batch, &mut codes, &mut acc64, &mut out,
                ),
            })
        });
    }

    // The requantize epilogue over one output row (shift + saturate into i16
    // codes), which dispatches to the runtime SIMD backend, and the i16
    // tap-major unfold of the planned conv.
    let acc: Vec<i32> = (0..4096).map(|_| rng.next_u64() as i32 >> 8).collect();
    let mut requant_out = vec![0i16; 4096];
    group.bench_function("requantize_row_4096", |b| {
        b.iter(|| requantize_i32_row_into(&acc, 321, 7, -128, 127, &mut requant_out))
    });
    let im2row_geom = ConvGeometry::square(16, 16, 3, 1, 1);
    let codes: Vec<i16> = (0..4 * 16 * 16 * 16)
        .map(|_| (rng.next_u64() % 255) as i8 as i16)
        .collect();
    let mut packed = Vec::new();
    group.bench_function("im2col_i16_4x16x16x16", |b| {
        b.iter(|| im2col_i16_into(&seq, &codes, 4, 16, &im2row_geom, &mut packed).unwrap())
    });

    let mut conv = Conv2d::new(16, 32, 3, 1, 1, 0).unwrap();
    let input = Tensor::randn(&[4, 16, 16, 16], &mut rng);
    group.bench_function("conv2d_forward_4x16x16x16", |b| {
        b.iter(|| conv.forward(&input, Mode::Eval).unwrap())
    });

    // The two halves of the forward pass, timed separately; the unfold
    // fills a reused buffer, as the layers and plans call it.
    let geom = ConvGeometry::square(16, 16, 3, 1, 1);
    let mut unfolded = Vec::new();
    im2col_into(&input, &geom, &mut unfolded).unwrap();
    group.bench_function("im2col_4x16x16x16", |b| {
        b.iter(|| im2col_into(&input, &geom, &mut unfolded).unwrap())
    });
    let cols = im2col(&input, &geom).unwrap();
    let w2d = Tensor::randn(&[32, 144], &mut rng);
    group.bench_function("matmul_32x144x1024", |b| {
        b.iter(|| matmul(&w2d, &cols).unwrap())
    });

    // The two transforms of the backward pass: a conv weight gradient
    // `cols x g2dᵀ` (ReLU-sparse columns, narrow output: a 4->4-channel 3x3
    // conv at batch 32 on 12x12 planes) and the fold of the column gradient.
    // Own stream, so the inputs of the rows below stay as they were.
    let mut grad_rng = Xoshiro256StarStar::seed_from_u64(2);
    let relu_cols = Tensor::randn(&[36, 4608], &mut grad_rng).map(|v| v.max(0.0));
    let g2d_t = Tensor::randn(&[4608, 4], &mut grad_rng);
    group.bench_function("matmul_36x4608x4", |b| {
        b.iter(|| matmul(&relu_cols, &g2d_t).unwrap())
    });
    let mut folded = vec![0.0f32; input.len()];
    group.bench_function("col2im_4x16x16x16", |b| {
        b.iter(|| col2im_slices_into(cols.as_slice(), 4, 16, &geom, &mut folded).unwrap())
    });

    // The unfolds at the plane sizes ResNet-18 runs on 12x12 inputs (3x3
    // convs, padding 1, batch 32): the smallest stage and the widest one,
    // into reused buffers as the layers and plans call them. Own stream, so
    // the inputs of the rows below stay as they were.
    let mut unfold_rng = Xoshiro256StarStar::seed_from_u64(3);
    for (channels, side) in [(16usize, 3usize), (4, 12)] {
        let geom = ConvGeometry::square(side, side, 3, 1, 1);
        let input = Tensor::randn(&[32, channels, side, side], &mut unfold_rng);
        let mut cols = Vec::new();
        im2col_into(&input, &geom, &mut cols).unwrap();
        group.bench_function(format!("im2col_32x{channels}x{side}x{side}"), |b| {
            b.iter(|| im2col_into(&input, &geom, &mut cols).unwrap())
        });
        let mut folded = vec![0.0f32; input.len()];
        group.bench_function(format!("col2im_32x{channels}x{side}x{side}"), |b| {
            b.iter(|| col2im_slices_into(&cols, 32, channels, &geom, &mut folded).unwrap())
        });
    }
    let im2row_geom12 = ConvGeometry::square(12, 12, 3, 1, 1);
    let codes12: Vec<i16> = (0..32 * 4 * 12 * 12)
        .map(|_| (unfold_rng.next_u64() % 255) as i8 as i16)
        .collect();
    let mut packed12 = Vec::new();
    group.bench_function("im2col_i16_32x4x12x12", |b| {
        b.iter(|| im2col_i16_into(&seq, &codes12, 32, 4, &im2row_geom12, &mut packed12).unwrap())
    });

    // The 6x6 stage between those two, and the stride-2 3x3 conv that
    // leaves it (6x6 -> 3x3). Own stream, so the inputs of the rows below
    // stay as they were.
    let mut stage_rng = Xoshiro256StarStar::seed_from_u64(4);
    for (stride, suffix) in [(1usize, ""), (2, "_s2")] {
        let geom = ConvGeometry::square(6, 6, 3, stride, 1);
        let input = Tensor::randn(&[32, 8, 6, 6], &mut stage_rng);
        let mut cols = Vec::new();
        im2col_into(&input, &geom, &mut cols).unwrap();
        group.bench_function(format!("im2col_32x8x6x6{suffix}"), |b| {
            b.iter(|| im2col_into(&input, &geom, &mut cols).unwrap())
        });
        let mut folded = vec![0.0f32; input.len()];
        group.bench_function(format!("col2im_32x8x6x6{suffix}"), |b| {
            b.iter(|| col2im_slices_into(&cols, 32, 8, &geom, &mut folded).unwrap())
        });
    }

    // The integer plan's conv step (tap-major unfold, outer-product GEMM,
    // requantize into NCHW codes) at the offline ResNet-18's shapes, batch
    // 32 on one thread: the widest 8-bit conv (4 -> 4 channels on 12x12
    // planes), the deepest (32 -> 32 on 3x3) and the widest at 16 bits.
    // Own stream, so the inputs of the rows below stay as they were.
    let mut conv_rng = Xoshiro256StarStar::seed_from_u64(6);
    for (name, channels, side, wide) in [
        ("conv_i8_32x4x12x12_k3", 4usize, 12usize, false),
        ("conv_i8_32x32x3x3_k3", 32, 3, false),
        ("conv_i16_32x4x12x12_k3", 4, 12, true),
    ] {
        let mut codes = |n: usize| -> Vec<i16> {
            (0..n)
                .map(|_| match wide {
                    false => (conv_rng.next_u64() % 255) as i8 as i16,
                    true => conv_rng.next_u64() as i16,
                })
                .collect()
        };
        let input = codes(32 * channels * side * side);
        let weights = codes(channels * channels * 9);
        let bias: Vec<i64> = codes(channels).iter().map(|&v| v as i64 * 64).collect();
        let (shift, (min, max)) = match wide {
            false => (7, (-128, 127)),
            true => (15, (i16::MIN, i16::MAX)),
        };
        let conv = IntConv {
            geom: ConvGeometry::square(side, side, 3, 1, 1),
            in_c: channels,
            out_c: channels,
            weights: &weights,
            bias: &bias,
            shift,
            min,
            max,
        };
        let (mut cols, mut acc32, mut acc64) = (Vec::new(), Vec::new(), Vec::new());
        let mut out = vec![0i16; input.len()];
        group.bench_function(name, |b| {
            b.iter(|| match wide {
                false => conv_i32_into(&seq, &conv, &input, 32, &mut cols, &mut acc32, &mut out),
                true => conv_i64_into(&seq, &conv, &input, 32, &mut cols, &mut acc64, &mut out),
            })
        });
    }

    // Covers the slice-based layout reorders on both sides of the im2col
    // matmul (forward output reorder + backward gradient reorder).
    let out = conv.forward(&input, Mode::Train).unwrap();
    let grad_out = Tensor::ones(out.dims());
    group.bench_function("conv2d_backward_4x16x16x16", |b| {
        b.iter(|| conv.backward(&grad_out).unwrap())
    });

    let spec = zoo::lenet5(
        &ModelConfig::mnist()
            .with_resolution(12, 12)
            .with_width_divisor(4),
    )
    .with_exits_after_every_block()
    .unwrap()
    .with_exit_mcd(0.25)
    .unwrap();
    let mut network = spec.build(3).unwrap();
    let images = Tensor::randn(&[8, 1, 12, 12], &mut rng);
    let sampler = McSampler::new(SamplingConfig::new(8));
    group.bench_function("mc_predict_8_samples_batch8", |b| {
        b.iter(|| sampler.predict(&mut network, &images).unwrap())
    });

    // Integer MC prediction on the 8-bit quick-demo LeNet through the
    // compiled plan (packed weights, arena-allocated intermediates) — the
    // Phase 3 hot loop.
    let calib = Tensor::randn(&[8, 1, 12, 12], &mut rng);
    let calibrated = CalibratedNetwork::calibrate(&network, &calib).unwrap();
    let fmt8 = FixedPointFormat::new(8, 3).unwrap();
    let mut plan = calibrated.plan(fmt8).unwrap();
    group.bench_function("quantized_predict_lenet5_8bit", |b| {
        b.iter(|| plan.predict_probs(&images, 8, 2023).unwrap())
    });
    // The same loop on the offline benchmark subject's shape: an MC-dropout
    // multi-exit ResNet-18 on 12x12 inputs at width/16, batch 32, 8
    // samples, where the folded batch norms, residual merges and exit
    // dropouts run beside the convolutions; on one thread, as that subject
    // runs. Own stream, so the inputs of the rows below stay as they were.
    let mut resnet_rng = Xoshiro256StarStar::seed_from_u64(5);
    let resnet_config = ModelConfig::cifar10()
        .with_resolution(12, 12)
        .with_width_divisor(16);
    let resnet = ModelVariant::McdMultiExit
        .build_spec(&Architecture::ResNet18.spec(&resnet_config), 0.25)
        .unwrap()
        .build(11)
        .unwrap();
    let resnet_calib = Tensor::randn(&[32, 3, 12, 12], &mut resnet_rng);
    let mut resnet_plan = CalibratedNetwork::calibrate(&resnet, &resnet_calib)
        .unwrap()
        .plan(fmt8)
        .unwrap();
    resnet_plan.set_executor(Executor::sequential());
    let resnet_images = Tensor::randn(&[32, 3, 12, 12], &mut resnet_rng);
    group.bench_function("quantized_predict_resnet18_8bit", |b| {
        b.iter(|| resnet_plan.predict_probs(&resnet_images, 8, 2023).unwrap())
    });
    // Compile costs: the one-off calibration forward and per-format plan
    // derivation Phase 3 amortises across its (format, reuse) grid.
    group.bench_function("quantized_plan_compile_8bit", |b| {
        b.iter(|| calibrated.plan(fmt8).unwrap())
    });

    let n = 512;
    let classes = 10;
    let mut probs = vec![0.0f32; n * classes];
    for row in probs.chunks_mut(classes) {
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = rng.next_f32() + 1e-3;
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    let probs = Tensor::from_vec(probs, &[n, classes]).unwrap();
    let labels: Vec<usize> = (0..n).map(|i| i % classes).collect();
    group.bench_function("ece_512x10", |b| {
        b.iter(|| expected_calibration_error(&probs, &labels, 15).unwrap())
    });

    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
