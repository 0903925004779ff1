//! Differential tests: the emitted HLS design's golden-reference simulator
//! is bit-exact with the compiled integer plan it was lowered from.
//!
//! `bnn_hls::HlsSimulator` re-implements every schedule op independently
//! (direct convolution, scalar loops, local rounding primitives), so
//! agreement here means the *emitted design* — not just the generator's
//! input — computes the arithmetic Phase 3 scored. This is the role
//! C-simulation plays in a real HLS flow, runnable without Vivado.
//!
//! Coverage: every zoo subject (build-initialised LeNet-5 and ResNet-18,
//! plus a *trained* LeNet-5) × every searched format {4, 6, 8, 16} bits,
//! deterministic and Monte-Carlo forwards under several reseeds, seeded
//! multi-sample prediction across sample counts and seeds, saturation edge
//! inputs, non-finite input rejection, and the static-schedule cross-check
//! against `bnn-hw`'s analytic MAC model.

mod fixtures;

use bayesnn_fpga::hls::{HlsConfig, HlsError, HlsSimulator, LoweredDesign, SimMode};
use bayesnn_fpga::models::{zoo, ExitPlan, LayerSpec, ModelConfig, NetworkSpec};
use bayesnn_fpga::nn::{Mode, Network};
use bayesnn_fpga::quant::schedule::MUL_FRAC;
use bayesnn_fpga::quant::{CalibratedNetwork, FixedPointFormat, QuantPlan, ScheduleOp};
use bayesnn_fpga::tensor::int::{affine_fits_i32, conv_requant_fits_i32};
use bayesnn_fpga::tensor::rng::Xoshiro256StarStar;
use bayesnn_fpga::tensor::Tensor;
use std::sync::OnceLock;

struct Subject {
    name: &'static str,
    spec: NetworkSpec,
    calibrated: CalibratedNetwork,
    /// A representative input batch (distinct from the calibration batch).
    input: Tensor,
}

/// The shared subjects, built (and the trained one trained) once per test
/// binary.
fn subjects() -> &'static [Subject] {
    static SUBJECTS: OnceLock<Vec<Subject>> = OnceLock::new();
    SUBJECTS.get_or_init(build_subjects)
}

fn build_subjects() -> Vec<Subject> {
    let mut out = Vec::new();
    {
        let spec = zoo::lenet5(
            &ModelConfig::mnist()
                .with_resolution(10, 10)
                .with_width_divisor(8)
                .with_classes(4),
        )
        .with_exits_after_every_block()
        .unwrap()
        .with_exit_mcd(0.25)
        .unwrap();
        let net = spec.build(3).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let calib = Tensor::randn(&[6, 1, 10, 10], &mut rng);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let input = Tensor::randn(&[3, 1, 10, 10], &mut rng);
        out.push(Subject {
            name: "lenet5",
            spec,
            calibrated,
            input,
        });
    }
    {
        let spec = zoo::resnet18(
            &ModelConfig::cifar10()
                .with_resolution(12, 12)
                .with_width_divisor(16),
        )
        .with_exits_after_every_block()
        .unwrap()
        .with_exit_mcd(0.3)
        .unwrap();
        let net = spec.build(11).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let calib = Tensor::randn(&[4, 3, 12, 12], &mut rng);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        let input = Tensor::randn(&[2, 3, 12, 12], &mut rng);
        out.push(Subject {
            name: "resnet18",
            spec,
            calibrated,
            input,
        });
    }
    {
        // Trained weights and a real test split, not randn draws.
        let (net, calib, input) = fixtures::trained_lenet5(17, 4, 24);
        let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
        out.push(Subject {
            name: "lenet5_trained",
            spec: net.spec().clone(),
            calibrated,
            input,
        });
    }
    out
}

fn design_and_plan(subject: &Subject, format: FixedPointFormat) -> (LoweredDesign, QuantPlan) {
    let config = HlsConfig::new(subject.name).with_format(format);
    let design = LoweredDesign::generate(&subject.calibrated, &config).unwrap();
    let plan = subject.calibrated.plan(format).unwrap();
    (design, plan)
}

/// The plan's backbone once in `Mode::Eval`, then every exit's dequantized
/// logits in `mode`: the plan side of the simulator's `forward_exits`.
fn plan_exits(plan: &mut QuantPlan, x: &Tensor, mode: Mode) -> Vec<Tensor> {
    plan.run_backbone(x, Mode::Eval).unwrap();
    plan.forward_exits(mode).unwrap()
}

/// Dequantizes one exit's integer codes the way the plan's
/// `forward_exits` does, for exact f32 comparison.
fn dequant(codes: &[i64], scale: f32) -> Vec<f32> {
    codes.iter().map(|&c| c as f32 * scale).collect()
}

/// The named shared subject.
fn subject(name: &str) -> &'static Subject {
    subjects()
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no subject {name}"))
}

/// Eval and Monte-Carlo exit logits agree bit for bit at every format.
fn check_forward_is_bit_exact(subject: &Subject) {
    for format in FixedPointFormat::search_space() {
        let (design, mut plan) = design_and_plan(subject, format);
        let mut sim = HlsSimulator::new(design.schedule().clone());

        // Deterministic forward: no masks drawn on either side.
        let sim_eval = sim.forward_exits(&subject.input, SimMode::Eval).unwrap();
        let plan_eval = plan_exits(&mut plan, &subject.input, Mode::Eval);
        assert_eq!(sim_eval.len(), plan_eval.len());
        for (e, (codes, reference)) in sim_eval.iter().zip(&plan_eval).enumerate() {
            let scale = design.schedule().exits[e].out_note.scale();
            assert_eq!(
                dequant(codes, scale),
                reference.as_slice(),
                "{} {:?} exit {e} Eval",
                subject.name,
                format
            );
        }

        // Monte-Carlo forward: identical reseed on both sides, masks
        // drawn from the same per-step streams.
        for seed in [99u64, 17, 5, 2023] {
            plan.reseed_mc_streams(seed);
            sim.reseed_mc_streams(seed);
            let sim_mc = sim
                .forward_exits(&subject.input, SimMode::McSample)
                .unwrap();
            let plan_mc = plan_exits(&mut plan, &subject.input, Mode::McSample);
            for (e, (codes, reference)) in sim_mc.iter().zip(&plan_mc).enumerate() {
                let scale = design.schedule().exits[e].out_note.scale();
                assert_eq!(
                    dequant(codes, scale),
                    reference.as_slice(),
                    "{} {:?} exit {e} McSample seed {seed}",
                    subject.name,
                    format
                );
            }
        }
    }
}

#[test]
fn forward_is_bit_exact_in_both_modes_lenet5() {
    check_forward_is_bit_exact(subject("lenet5"));
}

#[test]
fn forward_is_bit_exact_in_both_modes_resnet18() {
    check_forward_is_bit_exact(subject("resnet18"));
}

#[test]
fn forward_is_bit_exact_in_both_modes_lenet5_trained() {
    check_forward_is_bit_exact(subject("lenet5_trained"));
}

/// The seeded multi-sample prediction agrees bit for bit at every format.
fn check_predict_probs_is_bit_exact(subject: &Subject) {
    for format in FixedPointFormat::search_space() {
        let (design, mut plan) = design_and_plan(subject, format);
        let mut sim = HlsSimulator::new(design.schedule().clone());
        // n_samples exercises: fewer than the exit count (early pass
        // break), uneven multiples (partial last pass), even multiples,
        // and zero (the one-deterministic-pass convention).
        for (n_samples, seed) in [
            (1, 2023),
            (5, 2023),
            (0, 2023),
            (3, 2023),
            (4, 2023),
            (6, 2023),
            (7, 2023),
            (4, 99),
        ] {
            let probs = sim.predict_probs(&subject.input, n_samples, seed).unwrap();
            let reference = plan.predict_probs(&subject.input, n_samples, seed).unwrap();
            assert_eq!(
                probs.as_slice(),
                reference.as_slice(),
                "{} {:?} n_samples={n_samples} seed={seed}",
                subject.name,
                format
            );
        }
    }
}

#[test]
fn predict_probs_is_bit_exact_lenet5() {
    check_predict_probs_is_bit_exact(subject("lenet5"));
}

#[test]
fn predict_probs_is_bit_exact_resnet18() {
    check_predict_probs_is_bit_exact(subject("resnet18"));
}

#[test]
fn predict_probs_is_bit_exact_lenet5_trained() {
    check_predict_probs_is_bit_exact(subject("lenet5_trained"));
}

/// A step whose constants break the plan's `i32`-lane bound
/// (`2^15·|m| + |b| + 2^MUL_FRAC < 2^31`) runs the scalar `i64` route and
/// stays bit-exact with the simulator. The exit's 0.95 dropout has
/// `scale_q = 81920` at every format; a batch norm that scales a thousand-
/// times-smaller conv channel back up by a thousand has a channel multiplier
/// past the bound at 16 bits (so the route runs in `Eval` too).
#[test]
fn constants_past_the_i32_lane_bound_stay_bit_exact() {
    let conv = LayerSpec::Conv2d {
        in_channels: 3,
        out_channels: 3,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let residual = LayerSpec::Residual {
        main: vec![conv, LayerSpec::BatchNorm2d { channels: 3 }],
        shortcut: Vec::new(),
    };
    let head = vec![
        LayerSpec::GlobalAvgPool2d,
        LayerSpec::Dense {
            in_features: 3,
            out_features: 3,
        },
    ];
    let spec = NetworkSpec::single_exit(
        "wide_constants",
        3,
        6,
        6,
        3,
        vec![vec![residual, LayerSpec::Relu]],
        head,
    )
    .with_exit_mcd(0.95)
    .unwrap();
    let mut net = spec.build(21).unwrap();
    {
        let mut params = net.params_mut();
        assert_eq!(params[0].value.dims(), &[3, 3, 3, 3], "conv weight");
        assert_eq!(params[2].value.dims(), &[3], "batch-norm gamma");
        for w in &mut params[0].value.as_mut_slice()[..27] {
            *w *= 1e-3;
        }
        params[2].value.as_mut_slice()[0] = 1e3;
    }
    let mut rng = Xoshiro256StarStar::seed_from_u64(22);
    let calib = Tensor::randn(&[4, 3, 6, 6], &mut rng);
    let subject = Subject {
        name: "wide_constants",
        calibrated: CalibratedNetwork::calibrate(&net, &calib).unwrap(),
        input: Tensor::randn(&[2, 3, 6, 6], &mut rng),
        spec,
    };
    let past = |m: i64, b: i64| !affine_fits_i32(m, b, MUL_FRAC);
    for format in FixedPointFormat::search_space() {
        let plan = subject.calibrated.plan(format).unwrap();
        let (mut affine_past, mut dropout_past) = (false, false);
        for step in plan.schedule().steps() {
            match &step.op {
                ScheduleOp::Affine { m, b, .. } => {
                    affine_past |= m.iter().zip(b).any(|(&m, &b)| past(m, b));
                }
                ScheduleOp::McDropout { scale_q, .. } => dropout_past |= past(*scale_q, 0),
                _ => {}
            }
        }
        assert!(
            dropout_past,
            "{format:?}: the dropout scale should break the bound"
        );
        if format.total_bits() == 16 {
            assert!(
                affine_past,
                "{format:?}: a channel multiplier should break the bound"
            );
        }
    }
    check_forward_is_bit_exact(&subject);
    check_predict_probs_is_bit_exact(&subject);
}

/// A conv whose bias breaks the `i32` requantize bound of the integer conv
/// (`k·2^14 + |bias| + 2^shift < 2^31`) runs the `i64` requantize and stays
/// bit-exact with the simulator, beside a conv that stays within it. The
/// second conv's channel 0 carries a bias of 10^9, past the bound at every
/// 8-bit-or-narrower format; the first conv's biases are the build's.
#[test]
fn conv_bias_past_the_i32_requantize_bound_stays_bit_exact() {
    let conv = |in_channels| LayerSpec::Conv2d {
        in_channels,
        out_channels: 4,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let head = vec![
        LayerSpec::GlobalAvgPool2d,
        LayerSpec::Dense {
            in_features: 4,
            out_features: 3,
        },
    ];
    let spec = NetworkSpec::single_exit(
        "wide_conv_bias",
        3,
        6,
        6,
        3,
        vec![
            vec![conv(3), LayerSpec::Relu],
            vec![conv(4), LayerSpec::Relu],
        ],
        head,
    )
    .with_exit_mcd(0.25)
    .unwrap();
    let mut net = spec.build(23).unwrap();
    {
        let mut params = net.params_mut();
        assert_eq!(params[3].value.dims(), &[4], "second conv bias");
        params[3].value.as_mut_slice()[0] = 1e9;
    }
    let mut rng = Xoshiro256StarStar::seed_from_u64(24);
    let calib = Tensor::randn(&[4, 3, 6, 6], &mut rng);
    let subject = Subject {
        name: "wide_conv_bias",
        calibrated: CalibratedNetwork::calibrate(&net, &calib).unwrap(),
        input: Tensor::randn(&[2, 3, 6, 6], &mut rng),
        spec,
    };
    for format in FixedPointFormat::search_space() {
        if format.total_bits() > 8 {
            continue; // wider formats accumulate and requantize in i64 anyway
        }
        let plan = subject.calibrated.plan(format).unwrap();
        let convs: Vec<bool> = plan
            .schedule()
            .steps()
            .filter_map(|step| match &step.op {
                ScheduleOp::Conv {
                    bias,
                    in_c,
                    kernel,
                    shift,
                    ..
                } => {
                    let k = in_c * kernel * kernel;
                    Some(bias.iter().all(|&b| conv_requant_fits_i32(k, b, *shift)))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            convs,
            [true, false],
            "{format:?}: only the second conv should break the bound"
        );
    }
    check_forward_is_bit_exact(&subject);
    check_predict_probs_is_bit_exact(&subject);
}

/// The dense steps' share of the conv epilogue: a dense layer's
/// `[out_f, batch]` accumulator rows requantize with one bias each and
/// scatter into `[batch, out_f]`, bit-exact with the simulator in Eval,
/// McSample and `predict_probs`, at every searched format (16 bits runs
/// the `i64` dense GEMM). Two nets:
/// - a backbone dense layer whose feature-0 bias of 10^9 breaks the `i32`
///   requantize bound (`k·2^14 + |bias| + 2^shift < 2^31`) at 4, 6 and 8
///   bits, beside an exit head that stays within it;
/// - a dense-only net at batch 1 and at batch 33, where the 256 -> 131
///   backbone layer passes the plans' fan-out threshold, so its rows split
///   over the executor's threads.
#[test]
fn dense_bias_past_the_i32_requantize_bound_stays_bit_exact() {
    let dense = |in_features, out_features| LayerSpec::Dense {
        in_features,
        out_features,
    };
    let dense_fits = |plan: &QuantPlan| -> Vec<bool> {
        plan.schedule()
            .steps()
            .filter_map(|step| match &step.op {
                ScheduleOp::Dense {
                    bias, in_f, shift, ..
                } => Some(
                    bias.iter()
                        .all(|&b| conv_requant_fits_i32(*in_f, b, *shift)),
                ),
                _ => None,
            })
            .collect()
    };

    let spec = NetworkSpec::single_exit(
        "wide_dense_bias",
        3,
        6,
        6,
        3,
        vec![vec![LayerSpec::Flatten, dense(108, 16), LayerSpec::Relu]],
        vec![dense(16, 3)],
    )
    .with_exit_mcd(0.25)
    .unwrap();
    let mut net = spec.build(25).unwrap();
    {
        let mut params = net.params_mut();
        assert_eq!(params[1].value.dims(), &[16], "backbone dense bias");
        params[1].value.as_mut_slice()[0] = 1e9;
    }
    let mut rng = Xoshiro256StarStar::seed_from_u64(26);
    let calib = Tensor::randn(&[4, 3, 6, 6], &mut rng);
    let subject = Subject {
        name: "wide_dense_bias",
        calibrated: CalibratedNetwork::calibrate(&net, &calib).unwrap(),
        input: Tensor::randn(&[3, 3, 6, 6], &mut rng),
        spec,
    };
    for format in FixedPointFormat::search_space() {
        if format.total_bits() <= 8 {
            let plan = subject.calibrated.plan(format).unwrap();
            assert_eq!(
                dense_fits(&plan),
                [false, true],
                "{format:?}: only the backbone dense layer should break the bound"
            );
        }
    }
    check_forward_is_bit_exact(&subject);
    check_predict_probs_is_bit_exact(&subject);

    let spec = NetworkSpec::single_exit(
        "dense_only",
        1,
        16,
        16,
        5,
        vec![vec![LayerSpec::Flatten, dense(256, 131), LayerSpec::Relu]],
        vec![dense(131, 5)],
    )
    .with_exit_mcd(0.25)
    .unwrap();
    let net = spec.build(27).unwrap();
    let mut rng = Xoshiro256StarStar::seed_from_u64(28);
    let calib = Tensor::randn(&[8, 1, 16, 16], &mut rng);
    let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
    assert!(dense_fits(
        &calibrated
            .plan(FixedPointFormat::new(8, 3).unwrap())
            .unwrap()
    )
    .iter()
    .all(|&fits| fits));
    // Batch 33 runs 33 * 256 * 131 > 2^20 multiply-accumulates: past the
    // plans' fan-out threshold.
    for batch in [1usize, 33] {
        let subject = Subject {
            name: "dense_only",
            calibrated: calibrated.clone(),
            input: Tensor::randn(&[batch, 1, 16, 16], &mut rng),
            spec: spec.clone(),
        };
        check_forward_is_bit_exact(&subject);
        check_predict_probs_is_bit_exact(&subject);
    }
}

/// Max-magnitude inputs against calibration ranges measured on unit-scale
/// data: the input quantizer and the downstream requantizers must clamp,
/// both implementations must clamp the same way, and at least one exit
/// logit must reach a rail.
fn check_saturation_edges_pin_identically(subject: &Subject) {
    let mut any_pinned = false;
    let mut dims = vec![1];
    dims.extend_from_slice(
        subject
            .calibrated
            .plan(FixedPointFormat::new(8, 3).unwrap())
            .unwrap()
            .in_dims(),
    );
    let n: usize = dims.iter().product();
    let extreme: Vec<f32> = (0..n)
        .map(|i| if i % 2 == 0 { 1.0e6 } else { -1.0e6 })
        .collect();
    let x = Tensor::from_vec(extreme, &dims).unwrap();
    for format in FixedPointFormat::search_space() {
        let (design, mut plan) = design_and_plan(subject, format);
        let mut sim = HlsSimulator::new(design.schedule().clone());

        // The input quantizer pins at the format's rails.
        let in_params = design.schedule().in_note;
        assert_eq!(in_params.quantize_value(1.0e6), in_params.qmax());
        assert_eq!(in_params.quantize_value(-1.0e6), in_params.qmin());

        let sim_out = sim.forward_exits(&x, SimMode::Eval).unwrap();
        let plan_out = plan_exits(&mut plan, &x, Mode::Eval);
        for (e, (codes, reference)) in sim_out.iter().zip(&plan_out).enumerate() {
            let params = design.schedule().exits[e].out_note;
            assert_eq!(
                dequant(codes, params.scale()),
                reference.as_slice(),
                "{} {:?} exit {e} saturated Eval",
                subject.name,
                format
            );
            if codes
                .iter()
                .any(|&c| c == params.qmin() || c == params.qmax())
            {
                any_pinned = true;
            }
        }

        // The averaged prediction stays bit-exact (and finite) too.
        let probs = sim.predict_probs(&x, 3, 7).unwrap();
        let reference = plan.predict_probs(&x, 3, 7).unwrap();
        assert_eq!(probs.as_slice(), reference.as_slice());
        assert!(probs.as_slice().iter().all(|p| p.is_finite()));
    }
    assert!(
        any_pinned,
        "{}: extreme inputs should drive at least one exit logit to a rail",
        subject.name
    );
}

#[test]
fn saturation_edges_pin_identically_lenet5() {
    check_saturation_edges_pin_identically(subject("lenet5"));
}

#[test]
fn saturation_edges_pin_identically_resnet18() {
    check_saturation_edges_pin_identically(subject("resnet18"));
}

#[test]
fn saturation_edges_pin_identically_lenet5_trained() {
    check_saturation_edges_pin_identically(subject("lenet5_trained"));
}

#[test]
fn non_finite_inputs_are_typed_errors() {
    // A NaN pixel would otherwise quantize to code 0 and yield a
    // normal-looking distribution (the plan's side is pinned in its unit
    // tests).
    let subject = &subjects()[0];
    let (design, _) = design_and_plan(subject, FixedPointFormat::new(8, 3).unwrap());
    let mut sim = HlsSimulator::new(design.schedule().clone());
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut x = subject.input.clone();
        x.as_mut_slice()[7] = bad;
        assert!(matches!(
            sim.forward_exits(&x, SimMode::Eval),
            Err(HlsError::Sim(_))
        ));
        assert!(matches!(
            sim.predict_probs(&x, 4, 2023),
            Err(HlsError::Sim(_))
        ));
    }
}

#[test]
fn static_schedule_cross_checks_the_hw_model() {
    for subject in subjects() {
        for format in FixedPointFormat::search_space() {
            let (design, plan) = design_and_plan(subject, format);
            let summary = design.summary();
            // MACs: the emitted schedule and bnn-hw's analytic layer model
            // price the same machine, exactly.
            assert_eq!(
                summary.macs,
                bayesnn_fpga::hw::network_macs(&subject.spec).unwrap(),
                "{} {:?}",
                subject.name,
                format
            );
            // The design is lowered from the very step list the plan
            // executes, so stage count and arena footprint agree with it.
            assert_eq!(design.schedule(), plan.schedule());
            assert_eq!(summary.steps, plan.schedule().num_steps());
            assert_eq!(
                summary.buffer_elems,
                design.schedule().buffer_elems(),
                "summary buffers derive from the schedule"
            );
            assert!(summary.pipeline_depth > 0 && summary.pipeline_depth <= summary.steps);
            assert!(summary.unit_ops >= summary.macs);
            assert!(summary.weight_params > 0);
        }
    }
}
