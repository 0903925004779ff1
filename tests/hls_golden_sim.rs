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
use bayesnn_fpga::models::{zoo, ExitPlan, ModelConfig, NetworkSpec};
use bayesnn_fpga::nn::Mode;
use bayesnn_fpga::quant::{CalibratedNetwork, FixedPointFormat, QuantPlan};
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

/// Dequantizes one exit's integer codes the way the plan's
/// `forward_exits_int` does, for exact f32 comparison.
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
        let plan_eval = plan.forward_exits_int(&subject.input, Mode::Eval).unwrap();
        assert_eq!(sim_eval.len(), plan_eval.len());
        for (e, (codes, reference)) in sim_eval.iter().zip(&plan_eval).enumerate() {
            let scale = design.schedule().exits[e].out_params.scale();
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
            let plan_mc = plan
                .forward_exits_int(&subject.input, Mode::McSample)
                .unwrap();
            for (e, (codes, reference)) in sim_mc.iter().zip(&plan_mc).enumerate() {
                let scale = design.schedule().exits[e].out_params.scale();
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
        let in_params = design.schedule().in_params;
        assert_eq!(in_params.quantize_value(1.0e6), in_params.qmax());
        assert_eq!(in_params.quantize_value(-1.0e6), in_params.qmin());

        let sim_out = sim.forward_exits(&x, SimMode::Eval).unwrap();
        let plan_out = plan.forward_exits_int(&x, Mode::Eval).unwrap();
        for (e, (codes, reference)) in sim_out.iter().zip(&plan_out).enumerate() {
            let params = design.schedule().exits[e].out_params;
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
            // Stage count and arena footprint agree with the executing plan.
            assert_eq!(summary.steps, plan.num_steps());
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
