//! Integration tests of the true fixed-point integer inference path on a
//! trained LeNet-5: tracking of the float model it was calibrated from,
//! seeded Monte-Carlo prediction, end-to-end saturation, and the reuse of one
//! calibration record across the searched formats.

mod fixtures;

use bayesnn_fpga::nn::layer::Mode;
use bayesnn_fpga::nn::Network;
use bayesnn_fpga::quant::{CalibratedNetwork, FixedPointFormat, QuantError, QuantPlan};
use bayesnn_fpga::tensor::Tensor;

/// The plan's backbone once in `Mode::Eval`, then every exit's dequantized
/// logits in `mode`.
fn plan_exits(plan: &mut QuantPlan, x: &Tensor, mode: Mode) -> Vec<Tensor> {
    plan.run_backbone(x, Mode::Eval).unwrap();
    plan.forward_exits(mode).unwrap()
}

/// At `ap_fixed<16,6>` the compiled integer plan tracks the float network:
/// per exit, every Eval logit is within `BOUND` of the float
/// `MultiExitNetwork` Eval logit. The check reads nothing from the plan's
/// schedule — it compares the two public forward paths end to end.
///
/// Measured on this fixture: max |Δ| = 2.7e-4 on exit 0 and 1.4e-4 on exit
/// 1, with every |logit| ≤ 0.46. `BOUND` = 1e-3 leaves about 4x headroom and
/// is still more than two orders of magnitude below the logit scale.
///
/// Eval only: under a shared reseed, exit 1's integer MC masks do not line
/// up with the float layers' streams (their logits differ by ~0.22), so an
/// MC comparison would test nothing.
#[test]
fn sixteen_bit_plan_tracks_float_network_eval_logits() {
    const BOUND: f32 = 1e-3;
    let (mut network, calib, eval) = fixtures::trained_lenet5(11, 2, 32);
    let calibrated = CalibratedNetwork::calibrate(&network, &calib).unwrap();
    let mut plan = calibrated
        .plan(FixedPointFormat::new(16, 6).unwrap())
        .unwrap();
    let int_logits = plan_exits(&mut plan, &eval, Mode::Eval);
    let float_logits = network.forward_exits(&eval, Mode::Eval).unwrap();
    assert_eq!(int_logits.len(), float_logits.len());
    for (exit, (a, b)) in int_logits.iter().zip(&float_logits).enumerate() {
        assert_eq!(a.dims(), b.dims(), "exit {exit}");
        let max_diff = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_diff <= BOUND,
            "exit {exit}: max |int - float| = {max_diff}, bound {BOUND}"
        );
    }
}

/// Integer MC prediction is seed-reproducible, produces probability simplex
/// rows, and a different seed draws different masks.
#[test]
fn integer_mc_prediction_is_reproducible_and_calibrated() {
    let (network, calib, eval) = fixtures::trained_lenet5(11, 2, 32);
    let calibrated = CalibratedNetwork::calibrate(&network, &calib).unwrap();
    let mut plan = calibrated
        .plan(FixedPointFormat::new(8, 3).unwrap())
        .unwrap();
    let probs = plan.predict_probs(&eval, 6, 2023).unwrap();
    let again = plan.predict_probs(&eval, 6, 2023).unwrap();
    assert_eq!(probs.as_slice(), again.as_slice());
    assert_eq!(probs.dims(), &[eval.dims()[0], 4]);
    for (b, row) in probs.as_slice().chunks(4).enumerate() {
        let sum: f32 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "row {b} sums to {sum}");
        assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }
    let other = plan.predict_probs(&eval, 6, 7).unwrap();
    assert_ne!(probs.as_slice(), other.as_slice());
}

/// Max-magnitude inputs saturate (pin inside the format's code range)
/// instead of wrapping, all the way through a real convolutional network, at
/// every searched format.
#[test]
fn extreme_inputs_saturate_through_the_whole_network() {
    let (network, calib, _eval) = fixtures::trained_lenet5(11, 2, 32);
    let calibrated = CalibratedNetwork::calibrate(&network, &calib).unwrap();
    for format in FixedPointFormat::search_space() {
        let mut plan = calibrated.plan(format).unwrap();
        let out_params: Vec<_> = plan.schedule().exits.iter().map(|e| e.out_note).collect();
        for fill in [1e9f32, -1e9] {
            let hot = Tensor::full(&[2, 1, 10, 10], fill);
            let logits = plan_exits(&mut plan, &hot, Mode::Eval);
            for (exit, (t, params)) in logits.iter().zip(&out_params).enumerate() {
                for &v in t.as_slice() {
                    assert!(v.is_finite(), "{format} exit {exit}: {v}");
                    let code = (v / params.scale()).round() as i64;
                    assert!(
                        (params.qmin()..=params.qmax()).contains(&code),
                        "{format} exit {exit}: code {code} escaped the format"
                    );
                }
            }
            let probs = plan.predict_probs(&hot, 4, 2023).unwrap();
            for row in probs.as_slice().chunks(4) {
                assert!(row.iter().all(|p| p.is_finite()), "{format}");
                assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-4, "{format}");
            }
        }
    }
}

/// One calibration record serves every format: a plan derived from the
/// shared record is bit-exact with a plan from a fresh one-shot calibration,
/// whatever order the formats are compiled in.
#[test]
fn shared_calibration_record_matches_one_shot_lowering() {
    let (network, calib, eval) = fixtures::trained_lenet5(11, 2, 32);
    let shared = CalibratedNetwork::calibrate(&network, &calib).unwrap();
    let mut formats = FixedPointFormat::search_space();
    formats.reverse();
    for format in formats {
        let mut from_record = shared.plan(format).unwrap();
        let mut one_shot = CalibratedNetwork::calibrate(&network, &calib)
            .unwrap()
            .plan(format)
            .unwrap();
        let a = plan_exits(&mut from_record, &eval, Mode::Eval);
        let b = plan_exits(&mut one_shot, &eval, Mode::Eval);
        for (ta, tb) in a.iter().zip(&b) {
            assert_eq!(ta.as_slice(), tb.as_slice(), "{format}");
        }
        let pa = from_record.predict_probs(&eval, 4, 2023).unwrap();
        let pb = one_shot.predict_probs(&eval, 4, 2023).unwrap();
        assert_eq!(pa.as_slice(), pb.as_slice(), "{format}");
    }
}

/// A diverged training run (a NaN or infinite weight) has no fixed-point
/// representation: calibration refuses it with a typed error instead of
/// snapping it onto the grid.
#[test]
fn non_finite_weights_are_rejected_at_calibration() {
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let (mut network, calib, _) = fixtures::trained_lenet5(11, 2, 8);
        network.params_mut()[0].value.as_mut_slice()[0] = bad;
        assert!(
            matches!(
                CalibratedNetwork::calibrate(&network, &calib),
                Err(QuantError::NonFinite(_))
            ),
            "{bad}"
        );
    }
}
