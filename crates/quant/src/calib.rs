//! Calibrate-once range records: the float network runs **once** per
//! trained model, and [`QuantParams`] for every candidate format are derived
//! from the recorded ranges.
//!
//! [`CalibratedNetwork::calibrate`] compiles the network's lowered blocks
//! and exits with the workspace's one step compiler ([`bnn_nn::skeleton`])
//! and runs the float plan's own steps ([`bnn_nn::plan::run_step`], the
//! production float path) over the calibration batch in [`Mode::Eval`].
//! It records one range record per step in flat step order: record `n`
//! belongs to step `n`, and the integer plan's compile consumes the records
//! in that same order. Compiling an execution plan
//! ([`CalibratedNetwork::plan`]) for a format is then pure bookkeeping — no
//! float inference, no model replica.
//!
//! Ranges are observed on the **unquantized** float graph (raw weights, raw
//! activations), so every format's integer/fractional splits derive from
//! one shared record.

use crate::error::QuantError;
use crate::params::QuantParams;
use bnn_models::MultiExitNetwork;
use bnn_nn::layer::Mode;
use bnn_nn::lowering::LayerLowering;
use bnn_nn::plan::{run_step, FloatArena, FloatAttach, FloatOp, MaskGranularity};
use bnn_nn::skeleton::{self, Attach, Node};
use bnn_nn::Network;
use bnn_tensor::rng::Xoshiro256StarStar;
use bnn_tensor::Tensor;

/// An observed value range `[min, max]`, always containing zero (ranges start
/// at `[0, 0]` and only widen), matching the symmetric `ap_fixed` grids.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ValueRange {
    pub(crate) min: f32,
    pub(crate) max: f32,
}

impl ValueRange {
    /// Observes every value of a slice, widening the range.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NonFinite`] on NaN/infinite values.
    pub(crate) fn observe(values: &[f32]) -> Result<ValueRange, QuantError> {
        let mut range = ValueRange::default();
        for &v in values {
            if !v.is_finite() {
                return Err(QuantError::NonFinite(format!(
                    "cannot calibrate over non-finite value {v}"
                )));
            }
            range.min = range.min.min(v);
            range.max = range.max.max(v);
        }
        Ok(range)
    }

    /// Derives the `total_bits`-wide format covering this range.
    ///
    /// # Errors
    ///
    /// Propagates [`QuantParams::from_range`] errors.
    pub(crate) fn params(&self, total_bits: u32) -> Result<QuantParams, QuantError> {
        QuantParams::from_range(total_bits, self.min, self.max)
    }
}

/// The calibration record of one plan step: record `n` belongs to flat step
/// `n` (backbone, then exits in attachment order).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StepRecord {
    /// Weight range (conv / dense only).
    pub(crate) weight: Option<ValueRange>,
    /// Output activation range (format-defining steps only: conv, dense,
    /// batch norm and residual merge).
    pub(crate) out: Option<ValueRange>,
}

/// [`FloatAttach`] that also observes each conv/dense weight range, in step
/// order. Observing at compile time keeps a NaN weight an error even where
/// the forward would hide it (a dense weight row met only by zero inputs).
#[derive(Default)]
struct WeightObserver {
    weights: Vec<Option<ValueRange>>,
}

impl Attach for WeightObserver {
    type Op = FloatOp;
    type Note = ();
    type Error = QuantError;

    fn step(&mut self, node: Node<'_, ()>) -> Result<(FloatOp, ()), QuantError> {
        let weight = match node.lowering {
            LayerLowering::Conv2d { weight, .. } | LayerLowering::Dense { weight, .. } => {
                Some(ValueRange::observe(weight.as_slice())?)
            }
            _ => None,
        };
        self.weights.push(weight);
        Ok(FloatAttach::default().step(node)?)
    }
}

/// A trained multi-exit network calibrated **once**: the lowered inference
/// graphs of every backbone block and exit branch, and the range record of
/// every step they compile to. Per-format compiled [`crate::QuantPlan`]s
/// derive from this without re-running any float inference, which is what
/// lets Phase 3 score every `(format, reuse)` design point against a single
/// calibration pass and Phase 4 lower the winner from that same record.
///
/// # Example
///
/// ```
/// use bnn_models::{zoo, ExitPlan, ModelConfig};
/// use bnn_quant::{CalibratedNetwork, FixedPointFormat};
/// use bnn_tensor::rng::Xoshiro256StarStar;
/// use bnn_tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = zoo::lenet5(&ModelConfig::mnist().with_resolution(12, 12).with_width_divisor(4))
///     .with_exits_after_every_block()?
///     .with_exit_mcd(0.25)?;
/// let trained = spec.build(7)?; // (train it for real use)
/// let mut rng = Xoshiro256StarStar::seed_from_u64(1);
/// let calib = Tensor::randn(&[4, 1, 12, 12], &mut rng);
///
/// // One float calibration pass...
/// let calibrated = CalibratedNetwork::calibrate(&trained, &calib)?;
/// // ...then every searched format derives without further float inference.
/// for (total, int) in [(4, 2), (6, 2), (8, 3), (16, 6)] {
///     let plan = calibrated.plan(FixedPointFormat::new(total, int)?)?;
///     assert_eq!(plan.num_exits(), 2);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CalibratedNetwork {
    pub(crate) blocks: Vec<LayerLowering>,
    pub(crate) exits: Vec<(usize, LayerLowering)>,
    /// One record per step of the compiled lowerings, in flat step order.
    pub(crate) records: Vec<StepRecord>,
    pub(crate) input: ValueRange,
    pub(crate) in_dims: Vec<usize>,
    pub(crate) classes: usize,
}

impl CalibratedNetwork {
    /// Lowers the trained network, compiles its float plan steps and runs
    /// them once in [`Mode::Eval`] over the representative batch `calib`
    /// (which must have the network's input shape), recording the ranges of
    /// every step.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidInput`] for an empty batch or per-sample
    /// dims other than the network's input shape,
    /// [`QuantError::NonFinite`] for NaN/infinite weights or activations, or
    /// propagated shape errors.
    pub fn calibrate(network: &MultiExitNetwork, calib: &Tensor) -> Result<Self, QuantError> {
        let expected = network.spec().input_shape(1);
        let dims = calib.dims();
        if dims.len() != expected.dims().len() || dims[1..] != expected.dims()[1..] {
            return Err(QuantError::InvalidInput(format!(
                "calibration batch must be [batch, {:?}], got {dims:?}",
                &expected.dims()[1..]
            )));
        }
        if dims[0] == 0 {
            return Err(QuantError::InvalidInput("empty calibration batch".into()));
        }
        let input = ValueRange::observe(calib.as_slice())?;
        let (batch, in_dims) = (dims[0], dims[1..].to_vec());
        let blocks = network.block_lowerings();
        let exits = network.exit_lowerings();
        let mut observer = WeightObserver::default();
        let exit_refs = exits.iter().map(|(after, branch)| (*after, branch));
        let steps = skeleton::compile(&blocks, exit_refs, &in_dims, (), &mut observer)?;
        let mut arena = FloatArena::default();
        arena.ensure(&steps.slot_elems, steps.scratch, batch);
        arena.slots[steps.input_slot][..calib.len()].copy_from_slice(calib.as_slice());
        // Eval mode draws no dropout mask, so one idle stream serves every
        // step.
        let mut rng = Xoshiro256StarStar::seed_from_u64(0);
        let records = (steps.steps().zip(observer.weights))
            .map(|(step, weight)| {
                let masks = MaskGranularity::PerBatch;
                run_step(step, &mut rng, &mut arena, None, batch, Mode::Eval, masks)?;
                let out = match step.op {
                    FloatOp::Conv(_)
                    | FloatOp::Dense { .. }
                    | FloatOp::BatchNorm(_)
                    | FloatOp::Merge => {
                        let n = step.out_dims.iter().product::<usize>() * batch;
                        Some(ValueRange::observe(&arena.slots[step.dst][..n])?)
                    }
                    _ => None,
                };
                Ok(StepRecord { weight, out })
            })
            .collect::<Result<_, QuantError>>()?;
        Ok(CalibratedNetwork {
            blocks,
            exits,
            records,
            input,
            in_dims,
            classes: network.num_classes(),
        })
    }

    /// Number of exits.
    pub fn num_exits(&self) -> usize {
        self.exits.len()
    }

    /// Number of predicted classes.
    pub fn num_classes(&self) -> usize {
        self.classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_models::{zoo, ModelConfig};

    /// The golden LeNet-5: a `1×10×10` input.
    fn lenet() -> MultiExitNetwork {
        zoo::lenet5(
            &ModelConfig::mnist()
                .with_resolution(10, 10)
                .with_width_divisor(8)
                .with_classes(4),
        )
        .with_exits_after_every_block()
        .unwrap()
        .build(3)
        .unwrap()
    }

    fn rejects(dims: &[usize]) {
        let batch = Tensor::zeros(dims);
        assert!(
            matches!(
                CalibratedNetwork::calibrate(&lenet(), &batch),
                Err(QuantError::InvalidInput(_))
            ),
            "{dims:?} must be rejected as invalid input"
        );
    }

    #[test]
    fn empty_calibration_batch_is_invalid_input() {
        rejects(&[0, 1, 10, 10]);
    }

    #[test]
    fn wrong_channel_count_is_invalid_input() {
        rejects(&[2, 3, 10, 10]);
    }

    #[test]
    fn rank_one_calibration_batch_is_invalid_input() {
        rejects(&[100]);
    }

    fn randn_batch() -> Tensor {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        Tensor::randn(&[3, 1, 10, 10], &mut rng)
    }

    fn non_finite(network: &MultiExitNetwork, batch: &Tensor) -> bool {
        matches!(
            CalibratedNetwork::calibrate(network, batch),
            Err(QuantError::NonFinite(_))
        )
    }

    #[test]
    fn non_finite_calibration_batch_is_rejected() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut batch = randn_batch();
            batch.as_mut_slice()[17] = bad;
            assert!(non_finite(&lenet(), &batch), "batch holding {bad}");
        }
    }

    /// A NaN in the first weight of the given rank (4: conv, 2: dense) is
    /// rejected, whatever the forward makes of it.
    fn rejects_nan_weight(rank: usize) {
        let mut network = lenet();
        let param = (network.params_mut().into_iter())
            .find(|p| p.value.dims().len() == rank)
            .unwrap();
        let last = param.value.len() - 1;
        param.value.as_mut_slice()[last] = f32::NAN;
        assert!(non_finite(&network, &randn_batch()), "rank-{rank} weight");
    }

    #[test]
    fn nan_conv_weight_is_rejected() {
        rejects_nan_weight(4);
    }

    #[test]
    fn nan_dense_weight_is_rejected() {
        rejects_nan_weight(2);
    }
}
