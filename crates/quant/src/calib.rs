//! Calibrate-once range records: the float calibration forward runs **once**
//! per trained model, and [`QuantParams`] for every candidate format are
//! derived from the recorded ranges.
//!
//! Before this module existed, lowering a network to the integer path ran a
//! full float forward pass over the calibration batch *per format* — Phase
//! 3's per-format loop paid that cost for each of the {4, 6, 8, 16}-bit
//! design points. [`CalibratedNetwork::calibrate`] now walks the lowered
//! graph once, recording per-tensor [`ValueRange`]s (weights and activation
//! edges) plus the per-sample shape of every op output; compiling an
//! execution plan ([`CalibratedNetwork::plan`]) for a format is then pure
//! bookkeeping — no float inference, no model replica.
//!
//! Ranges are observed on the **unquantized** float graph (raw weights, raw
//! activations), so every format's integer/fractional splits derive from
//! one shared record.

use crate::error::QuantError;
use crate::params::QuantParams;
use bnn_models::MultiExitNetwork;
use bnn_nn::lowering::LayerLowering;
use bnn_nn::Network;
use bnn_tensor::linalg::{im2col, matmul, ConvGeometry};
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

/// The calibration record of one lowered op: its observed ranges, in graph
/// walk order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OpRecord {
    /// Stable op name (sanity-checked against the lowering walk at build
    /// time — a cursor mismatch is an internal error, never silent skew).
    pub(crate) name: &'static str,
    /// Weight range (conv / dense only).
    pub(crate) weight: Option<ValueRange>,
    /// Output activation range (format-defining ops only).
    pub(crate) out: Option<ValueRange>,
}

/// The calibration record of one lowered graph: the input range/shape and
/// one op record per op in deterministic walk order (residual children
/// before the residual's own merge record).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphCalibration {
    pub(crate) input: ValueRange,
    pub(crate) in_dims: Vec<usize>,
    pub(crate) ops: Vec<OpRecord>,
}

impl GraphCalibration {
    /// Runs the pure-float calibration forward of `lowering` over `calib`,
    /// recording ranges; returns the record and the graph's
    /// output activation (for chaining block records).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NonFinite`] for NaN/infinite weights or
    /// activations, or propagated shape errors.
    pub fn collect(lowering: &LayerLowering, calib: &Tensor) -> Result<(Self, Tensor), QuantError> {
        let input = ValueRange::observe(calib.as_slice())?;
        let in_dims = calib.dims()[1..].to_vec();
        let mut ops = Vec::new();
        let mut act = calib.clone();
        collect_into(lowering, &mut act, &mut ops)?;
        Ok((
            GraphCalibration {
                input,
                in_dims,
                ops,
            },
            act,
        ))
    }
}

/// A read cursor over the op records of one graph: the step compiler walks
/// the lowering in the same order the collector did, and the integer plan's
/// attach hook consumes one record per op.
pub(crate) struct RecordCursor<'a> {
    ops: &'a [OpRecord],
    next: usize,
}

impl<'a> RecordCursor<'a> {
    pub(crate) fn new(ops: &'a [OpRecord]) -> Self {
        RecordCursor { ops, next: 0 }
    }

    /// Consumes the next record, checking it belongs to the expected op.
    pub(crate) fn take(&mut self, name: &'static str) -> Result<&'a OpRecord, QuantError> {
        let record = self.ops.get(self.next).ok_or_else(|| {
            QuantError::Internal(format!(
                "calibration record exhausted at op {name} (lowering/record skew)"
            ))
        })?;
        if record.name != name {
            return Err(QuantError::Internal(format!(
                "calibration record for {} consumed by op {name} (lowering/record skew)",
                record.name
            )));
        }
        self.next += 1;
        Ok(record)
    }

    /// Errors unless every record was consumed.
    pub(crate) fn finish(self) -> Result<(), QuantError> {
        if self.next != self.ops.len() {
            return Err(QuantError::Internal(format!(
                "lowering consumed {} of {} calibration records",
                self.next,
                self.ops.len()
            )));
        }
        Ok(())
    }
}

/// Appends the record of one op to `ops`.
fn push_record(
    ops: &mut Vec<OpRecord>,
    name: &'static str,
    weight: Option<ValueRange>,
    out: Option<ValueRange>,
) {
    ops.push(OpRecord { name, weight, out });
}

fn collect_into(
    lowering: &LayerLowering,
    act: &mut Tensor,
    ops: &mut Vec<OpRecord>,
) -> Result<(), QuantError> {
    match lowering {
        LayerLowering::Sequence(children) => {
            for child in children {
                collect_into(child, act, ops)?;
            }
        }
        LayerLowering::Conv2d {
            weight,
            bias,
            stride,
            padding,
        } => {
            let dims = weight.dims();
            let (out_c, in_c, kernel) = (dims[0], dims[1], dims[2]);
            let w_range = ValueRange::observe(weight.as_slice())?;
            let w2d = weight.reshape(&[out_c, in_c * kernel * kernel])?;
            let y = conv_float(act, &w2d, bias.as_slice(), kernel, *stride, *padding)?;
            let out = ValueRange::observe(y.as_slice())?;
            *act = y;
            push_record(ops, lowering.name(), Some(w_range), Some(out));
        }
        LayerLowering::Dense { weight, bias } => {
            let w_range = ValueRange::observe(weight.as_slice())?;
            let y = dense_float(act, weight, bias.as_slice())?;
            let out = ValueRange::observe(y.as_slice())?;
            *act = y;
            push_record(ops, lowering.name(), Some(w_range), Some(out));
        }
        LayerLowering::Relu => {
            *act = act.map(|v| v.max(0.0));
            push_record(ops, lowering.name(), None, None);
        }
        LayerLowering::MaxPool2d { kernel, stride } => {
            *act = max_pool_float(act, *kernel, *stride)?;
            push_record(ops, lowering.name(), None, None);
        }
        LayerLowering::AvgPool2d { kernel, stride } => {
            // Plain averages: the range of the snapped integer average is
            // contained in the input format's range anyway (pooling cannot
            // widen a range), so no output range is recorded.
            let norm = 1.0 / (kernel * kernel) as f32;
            *act = pool_float_with(act, *kernel, *stride, 0.0, |a, v| a + v, |acc| acc * norm)?;
            push_record(ops, lowering.name(), None, None);
        }
        LayerLowering::GlobalAvgPool2d => {
            *act = global_avg_pool_float(act)?;
            push_record(ops, lowering.name(), None, None);
        }
        LayerLowering::Flatten => {
            let batch = act.dims()[0];
            let rest: usize = act.dims()[1..].iter().product();
            *act = act.reshape(&[batch, rest])?;
            push_record(ops, lowering.name(), None, None);
        }
        LayerLowering::Affine(bn) => {
            let (scale, shift) = bn.folded();
            let y = affine_float(act, &scale, &shift, scale.len())?;
            let out = ValueRange::observe(y.as_slice())?;
            *act = y;
            push_record(ops, lowering.name(), None, Some(out));
        }
        LayerLowering::McDropout { .. } => {
            // Calibration runs the deterministic path; the op only becomes
            // stochastic in Mode::McSample and never widens the range.
            push_record(ops, lowering.name(), None, None);
        }
        LayerLowering::Identity => push_record(ops, lowering.name(), None, None),
        LayerLowering::Residual { main, shortcut } => {
            let input = act.clone();
            let mut main_act = input.clone();
            for child in main {
                collect_into(child, &mut main_act, ops)?;
            }
            let mut short_act = input;
            for child in shortcut {
                collect_into(child, &mut short_act, ops)?;
            }
            let sum = main_act.add(&short_act)?.map(|v| v.max(0.0));
            let out = ValueRange::observe(sum.as_slice())?;
            *act = sum;
            push_record(ops, lowering.name(), None, Some(out));
        }
    }
    Ok(())
}

/// Float-reference convolution on a lowered weight matrix.
fn conv_float(
    x: &Tensor,
    w2d: &Tensor,
    bias: &[f32],
    kernel: usize,
    stride: usize,
    padding: usize,
) -> Result<Tensor, QuantError> {
    let (batch, _c, h, w) = x.shape().as_nchw()?;
    let geom = ConvGeometry::square(h, w, kernel, stride, padding);
    let cols = im2col(x, &geom)?;
    let out2d = matmul(w2d, &cols)?;
    let out_c = w2d.dims()[0];
    let plane = geom.out_h() * geom.out_w();
    // `[out_c, batch*plane]` matmul rows back to `[batch, out_c, plane]`.
    let mut data = vec![0.0f32; batch * out_c * plane];
    if plane > 0 && batch > 0 {
        for (co, src_chan) in out2d.as_slice().chunks_exact(batch * plane).enumerate() {
            for (b, src_row) in src_chan.chunks_exact(plane).enumerate() {
                let start = (b * out_c + co) * plane;
                for (dst, &v) in data[start..start + plane].iter_mut().zip(src_row) {
                    *dst = v + bias[co];
                }
            }
        }
    }
    Ok(Tensor::from_vec(
        data,
        &[batch, out_c, geom.out_h(), geom.out_w()],
    )?)
}

/// Float-reference dense layer.
fn dense_float(x: &Tensor, w: &Tensor, bias: &[f32]) -> Result<Tensor, QuantError> {
    let mut out = matmul(x, w)?;
    let out_f = w.dims()[1];
    for row in out.as_mut_slice().chunks_exact_mut(out_f) {
        for (o, &b) in row.iter_mut().zip(bias) {
            *o += b;
        }
    }
    Ok(out)
}

/// Float reference of square-window pooling: `combine` folds the window
/// values, `finish` maps the folded value to the output.
fn pool_float_with(
    x: &Tensor,
    kernel: usize,
    stride: usize,
    init: f32,
    combine: impl Fn(f32, f32) -> f32,
    finish: impl Fn(f32) -> f32,
) -> Result<Tensor, QuantError> {
    let (n, c, h, w) = x.shape().as_nchw()?;
    let geom = ConvGeometry::square(h, w, kernel, stride, 0);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let data = x.as_slice();
    let mut out = vec![0.0f32; n * c * oh * ow];
    for b in 0..n {
        for ch in 0..c {
            for y in 0..oh {
                for xx in 0..ow {
                    let mut acc = init;
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            let iy = y * stride + ky;
                            let ix = xx * stride + kx;
                            if iy < h && ix < w {
                                acc = combine(acc, data[((b * c + ch) * h + iy) * w + ix]);
                            }
                        }
                    }
                    out[((b * c + ch) * oh + y) * ow + xx] = finish(acc);
                }
            }
        }
    }
    Ok(Tensor::from_vec(out, &[n, c, oh, ow])?)
}

/// Float reference of max pooling.
fn max_pool_float(x: &Tensor, kernel: usize, stride: usize) -> Result<Tensor, QuantError> {
    pool_float_with(x, kernel, stride, f32::NEG_INFINITY, f32::max, |v| v)
}

/// Float reference of global average pooling.
fn global_avg_pool_float(x: &Tensor) -> Result<Tensor, QuantError> {
    let (n, c, h, w) = x.shape().as_nchw()?;
    let plane = h * w;
    let data = x.as_slice();
    let mut out = vec![0.0f32; n * c];
    for b in 0..n {
        for ch in 0..c {
            let start = (b * c + ch) * plane;
            let acc: f32 = data[start..start + plane].iter().sum();
            out[b * c + ch] = acc / plane as f32;
        }
    }
    Ok(Tensor::from_vec(out, &[n, c])?)
}

/// Float reference of a per-channel affine over NCHW data.
fn affine_float(
    x: &Tensor,
    scale: &[f32],
    shift: &[f32],
    channels: usize,
) -> Result<Tensor, QuantError> {
    let (n, c, h, w) = x.shape().as_nchw()?;
    if c != channels {
        return Err(QuantError::Internal(format!(
            "affine over {channels} channel(s) received {c}"
        )));
    }
    let plane = h * w;
    let mut out = x.clone();
    let data = out.as_mut_slice();
    for b in 0..n {
        for ch in 0..c {
            let start = (b * c + ch) * plane;
            for v in &mut data[start..start + plane] {
                *v = scale[ch] * *v + shift[ch];
            }
        }
    }
    Ok(out)
}

/// A trained multi-exit network calibrated **once**: the lowered inference
/// graphs of every backbone block and exit branch, paired with their range
/// records. Per-format compiled [`crate::QuantPlan`]s derive from this
/// without re-running any float inference, which is what lets Phase 3 score
/// every `(format, reuse)` design point against a single calibration pass
/// and Phase 4 lower the winner from that same record.
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
    pub(crate) blocks: Vec<(LayerLowering, GraphCalibration)>,
    pub(crate) exits: Vec<(usize, LayerLowering, GraphCalibration)>,
    pub(crate) input: ValueRange,
    pub(crate) in_dims: Vec<usize>,
    pub(crate) classes: usize,
}

impl CalibratedNetwork {
    /// Lowers the trained network and runs the single float calibration
    /// forward over the representative batch `calib` (which must have the
    /// network's input shape).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidInput`] for an empty batch or per-sample
    /// dims other than the network's input shape,
    /// [`QuantError::Unsupported`] for layers without an inference
    /// lowering, [`QuantError::NonFinite`] for NaN/infinite weights or
    /// activations, or propagated shape errors.
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
        let in_dims = dims[1..].to_vec();
        let mut act = calib.clone();
        let mut blocks = Vec::new();
        let mut block_acts = Vec::new();
        for lowering in network.block_lowerings()? {
            let (record, out_act) = GraphCalibration::collect(&lowering, &act)?;
            act = out_act;
            block_acts.push(act.clone());
            blocks.push((lowering, record));
        }
        let mut exits = Vec::new();
        for (after_block, lowering) in network.exit_lowerings()? {
            let (record, _out) = GraphCalibration::collect(&lowering, &block_acts[after_block])?;
            exits.push((after_block, lowering, record));
        }
        Ok(CalibratedNetwork {
            blocks,
            exits,
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
}
