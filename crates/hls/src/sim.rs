//! Golden-reference interpreter for an emitted design's step schedule.
//!
//! [`HlsSimulator`] executes the [`PlanSchedule`] a [`LoweredDesign`] was
//! rendered from in pure Rust integer arithmetic — a second, independent
//! implementation of every op (direct convolution instead of im2row+matmul,
//! scalar loops instead of SIMD kernels, `i64` lane values throughout) with
//! its own local round-shift/saturate primitives. Its contract is
//! bit-exactness with [`QuantPlan::predict_probs`]: the differential tests
//! diff the two across every zoo model × format, so the emitted design can
//! never silently drift from the arithmetic the accelerator was scored on.
//! This is the role C-simulation plays in a real HLS flow. It keeps its own
//! scalar `i64` `requant` loops for the batch-norm, dropout and merge steps
//! as that independent oracle, and never calls the plan's `i32`-lane
//! elementwise kernels in `bnn_tensor::int`.
//!
//! The only pieces shared with the plan are the ones that *define* the
//! sampled semantics rather than implement arithmetic: the Xoshiro mask
//! streams (assigned per MC-dropout step in flat schedule order, reseeded
//! per pass from `stream_seed(seed, pass)`) and the `f32` softmax head.
//!
//! [`LoweredDesign`]: crate::lowered::LoweredDesign
//! [`QuantPlan::predict_probs`]: bnn_quant::QuantPlan::predict_probs

use crate::error::HlsError;
use bnn_quant::schedule::{PlanSchedule, ScheduleOp, ScheduleStep, MUL_FRAC};
use bnn_tensor::ops::softmax_rows_into;
use bnn_tensor::rng::{stream_seed, Rng, SplitMix64, Xoshiro256StarStar};
use bnn_tensor::Tensor;

/// Execution mode of a simulated pass — the simulator's own spelling of the
/// deterministic/sampling distinction so it does not depend on `bnn-nn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMode {
    /// Deterministic: MC-dropout stages copy through and draw nothing.
    Eval,
    /// One Monte-Carlo sample: MC-dropout stages draw Bernoulli masks from
    /// their streams and scale kept values by `scale_q >> MUL_FRAC`.
    McSample,
}

/// Rounds `value / 2^shift` with ties away from zero — the simulator's own
/// copy of the fixed-point rounding rule (`AP_RND` in `ap_fixed` terms).
fn round_shift(value: i64, shift: u32) -> i64 {
    if shift == 0 {
        return value;
    }
    let bias = 1i64 << (shift - 1);
    if value >= 0 {
        (value + bias) >> shift
    } else {
        -((-value + bias) >> shift)
    }
}

/// Requantizes an accumulator: rounding right shift (or saturating scale-up
/// for negative shifts), then clamp into `[qmin, qmax]` (`AP_SAT`).
fn requant(value: i64, shift: i32, qmin: i64, qmax: i64) -> i64 {
    let scaled = if shift >= 0 {
        round_shift(value, shift as u32)
    } else {
        value.saturating_mul(1i64 << (-shift).min(62))
    };
    scaled.clamp(qmin, qmax)
}

/// Divides with round-half-away-from-zero (the average-pool divisor rule).
fn div_round(n: i64, d: i64) -> i64 {
    if n >= 0 {
        (2 * n + d) / (2 * d)
    } else {
        -((-2 * n + d) / (2 * d))
    }
}

/// Interprets a [`PlanSchedule`] in pure Rust integer arithmetic. See the
/// [module docs](self).
///
/// # Example
///
/// ```
/// use bnn_hls::{HlsConfig, LoweredDesign, HlsSimulator};
/// use bnn_models::{zoo, ModelConfig};
/// use bnn_quant::{CalibratedNetwork, FixedPointFormat};
/// use bnn_tensor::rng::Xoshiro256StarStar;
/// use bnn_tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = zoo::lenet5(&ModelConfig::mnist().with_resolution(10, 10).with_width_divisor(8))
///     .with_exits_after_every_block()?
///     .with_exit_mcd(0.25)?;
/// let net = spec.build(3)?;
/// let mut rng = Xoshiro256StarStar::seed_from_u64(4);
/// let calib = Tensor::randn(&[6, 1, 10, 10], &mut rng);
/// let calibrated = CalibratedNetwork::calibrate(&net, &calib)?;
///
/// let format = FixedPointFormat::new(8, 3)?;
/// let config = HlsConfig::new("lenet").with_format(format);
/// let design = LoweredDesign::generate(&calibrated, &config)?;
/// let mut sim = HlsSimulator::new(design.schedule().clone());
///
/// // Bit-exact with QuantPlan::predict_probs at the same seed.
/// let x = Tensor::randn(&[2, 1, 10, 10], &mut rng);
/// let probs = sim.predict_probs(&x, 4, 2023)?;
/// let mut plan = calibrated.plan(format)?;
/// let reference = plan.predict_probs(&x, 4, 2023)?;
/// assert_eq!(probs.as_slice(), reference.as_slice());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HlsSimulator {
    schedule: PlanSchedule,
    /// Per-slot activation buffers, `batch * slot_elems[s]` lanes.
    slots: Vec<Vec<i64>>,
    /// One mask stream per MC-dropout step, in flat schedule order.
    streams: Vec<Xoshiro256StarStar>,
    batch: usize,
}

impl HlsSimulator {
    /// Builds a simulator over an emitted design's schedule.
    pub fn new(schedule: PlanSchedule) -> Self {
        let n_streams = schedule
            .steps()
            .filter(|s| matches!(s.op, ScheduleOp::McDropout { .. }))
            .count();
        HlsSimulator {
            slots: vec![Vec::new(); schedule.slot_elems.len()],
            streams: vec![Xoshiro256StarStar::seed_from_u64(0); n_streams],
            batch: 0,
            schedule,
        }
    }

    /// The schedule under simulation.
    pub fn schedule(&self) -> &PlanSchedule {
        &self.schedule
    }

    /// Reseeds every MC-dropout mask stream from `master_seed`, walking the
    /// flat step list — the identical stream assignment as
    /// `QuantPlan::reseed_mc_streams`.
    pub fn reseed_mc_streams(&mut self, master_seed: u64) {
        let mut seeds = SplitMix64::new(master_seed);
        for stream in self.streams.iter_mut() {
            *stream = Xoshiro256StarStar::seed_from_u64(seeds.next_u64());
        }
    }

    /// Quantizes the input batch into the input slot and sizes every buffer.
    fn load_input(&mut self, inputs: &Tensor) -> Result<usize, HlsError> {
        let dims = inputs.dims();
        if dims.len() != self.schedule.in_dims.len() + 1 || dims[1..] != self.schedule.in_dims[..] {
            return Err(HlsError::Sim(format!(
                "design expects input dims [batch, {:?}], got {:?}",
                self.schedule.in_dims, dims
            )));
        }
        let batch = dims[0];
        if batch == 0 {
            return Err(HlsError::Sim("empty input batch".into()));
        }
        if let Some(i) = inputs.as_slice().iter().position(|v| !v.is_finite()) {
            return Err(HlsError::Sim(format!(
                "input element {i} is {}, which has no fixed-point code",
                inputs.as_slice()[i]
            )));
        }
        for (slot, &elems) in self.slots.iter_mut().zip(&self.schedule.slot_elems) {
            slot.resize(batch * elems, 0);
        }
        self.batch = batch;
        let params = self.schedule.in_note;
        let slot = &mut self.slots[self.schedule.input_slot];
        for (dst, &v) in slot.iter_mut().zip(inputs.as_slice()) {
            *dst = params.quantize_value(v);
        }
        Ok(batch)
    }

    /// Runs the backbone deterministically, then every exit in `mode`,
    /// returning one integer logit buffer per exit (`batch * classes`
    /// codes at the exit's calibrated format).
    ///
    /// # Errors
    ///
    /// Returns [`HlsError::Sim`] for an input shape mismatch, an empty
    /// batch, or NaN/infinite input values.
    pub fn forward_exits(
        &mut self,
        inputs: &Tensor,
        mode: SimMode,
    ) -> Result<Vec<Vec<i64>>, HlsError> {
        let batch = self.load_input(inputs)?;
        let backbone = std::mem::take(&mut self.schedule.backbone);
        let mut stream_idx = 0usize;
        for step in &backbone {
            self.run_step(step, batch, SimMode::Eval, &mut stream_idx);
        }
        self.schedule.backbone = backbone;
        let exits = std::mem::take(&mut self.schedule.exits);
        let mut outputs = Vec::with_capacity(exits.len());
        for exit in &exits {
            for step in &exit.steps {
                self.run_step(step, batch, mode, &mut stream_idx);
            }
            let n: usize = exit.out_dims.iter().product::<usize>() * batch;
            outputs.push(self.slots[exit.out_slot][..n].to_vec());
        }
        self.schedule.exits = exits;
        Ok(outputs)
    }

    /// Seeded Monte-Carlo prediction through the emitted schedule,
    /// mirroring `QuantPlan::predict_probs` exactly: backbone once in
    /// [`SimMode::Eval`], `⌈n_samples/n_exits⌉` passes each reseeding the
    /// mask streams from `stream_seed(seed, pass)` and re-running the exits
    /// in [`SimMode::McSample`], and the first `n_samples` per-sample
    /// softmax tensors averaged into a `[batch, classes]` tensor.
    ///
    /// # Errors
    ///
    /// Returns [`HlsError::Sim`] for a design without exits, an input shape
    /// mismatch, an empty batch, or NaN/infinite input values.
    pub fn predict_probs(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
    ) -> Result<Tensor, HlsError> {
        let n_exits = self.schedule.exits.len();
        if n_exits == 0 {
            return Err(HlsError::Sim("design has no exits".into()));
        }
        let batch = self.load_input(inputs)?;
        let classes = self.schedule.classes();
        let backbone = std::mem::take(&mut self.schedule.backbone);
        let mut stream_idx = 0usize;
        for step in &backbone {
            self.run_step(step, batch, SimMode::Eval, &mut stream_idx);
        }
        self.schedule.backbone = backbone;
        let backbone_streams = stream_idx;

        let passes = n_samples.div_ceil(n_exits).max(1);
        let kept = if n_samples == 0 {
            passes * n_exits
        } else {
            n_samples.min(passes * n_exits)
        };
        let mut out = vec![0.0f32; batch * classes];
        let mut logits = Vec::new();
        let mut probs = Vec::new();
        let mut sample = 0usize;
        'passes: for pass in 0..passes {
            self.reseed_mc_streams(stream_seed(seed, pass as u64));
            // The backbone ran once before the pass loop; keep its streams'
            // positions aligned by skipping them (they draw nothing anyway —
            // the plan reseeds all streams but only re-runs the exits).
            let mut stream_idx = backbone_streams;
            let exits = std::mem::take(&mut self.schedule.exits);
            for exit in &exits {
                if sample >= kept {
                    self.schedule.exits = exits;
                    break 'passes;
                }
                for step in &exit.steps {
                    self.run_step(step, batch, SimMode::McSample, &mut stream_idx);
                }
                let n: usize = exit.out_dims.iter().product::<usize>() * batch;
                let scale = exit.out_note.scale();
                logits.clear();
                logits.extend(
                    self.slots[exit.out_slot][..n]
                        .iter()
                        .map(|&c| c as f32 * scale),
                );
                probs.resize(n, 0.0);
                softmax_rows_into(&logits, batch, classes, &mut probs)
                    .map_err(|e| HlsError::Sim(e.to_string()))?;
                for (o, &p) in out.iter_mut().zip(&probs) {
                    *o += p;
                }
                sample += 1;
            }
            self.schedule.exits = exits;
        }
        let inv = 1.0 / kept as f32;
        for o in out.iter_mut() {
            *o *= inv;
        }
        Tensor::from_vec(out, &[batch, classes]).map_err(|e| HlsError::Sim(e.to_string()))
    }

    /// Executes one schedule step on the slot buffers. `stream_idx` counts
    /// MC-dropout steps in flat order so each draws from its own stream.
    fn run_step(
        &mut self,
        step: &ScheduleStep,
        batch: usize,
        mode: SimMode,
        stream_idx: &mut usize,
    ) {
        let in_elems: usize = step.in_dims.iter().product::<usize>() * batch;
        let out_elems: usize = step.out_dims.iter().product::<usize>() * batch;
        match &step.op {
            ScheduleOp::Conv {
                weights,
                bias,
                out_c,
                in_c,
                kernel,
                stride,
                padding,
                shift,
                w_frac: _,
                out,
            } => {
                let (h, w) = (step.in_dims[1], step.in_dims[2]);
                let (oh, ow) = (step.out_dims[1], step.out_dims[2]);
                let (qmin, qmax) = (out.qmin(), out.qmax());
                let kred = in_c * kernel * kernel;
                let mut dst = std::mem::take(&mut self.slots[step.dst]);
                let src = &self.slots[step.src][..in_elems];
                for b in 0..batch {
                    for co in 0..*out_c {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let mut acc = 0i64;
                                for ci in 0..*in_c {
                                    for ky in 0..*kernel {
                                        for kx in 0..*kernel {
                                            let iy = oy * stride + ky;
                                            let ix = ox * stride + kx;
                                            if iy < *padding
                                                || ix < *padding
                                                || iy - padding >= h
                                                || ix - padding >= w
                                            {
                                                continue; // zero padding
                                            }
                                            let x = src[((b * in_c + ci) * h + (iy - padding)) * w
                                                + (ix - padding)];
                                            let wv = weights
                                                [co * kred + (ci * kernel + ky) * kernel + kx]
                                                as i64;
                                            acc += wv * x;
                                        }
                                    }
                                }
                                dst[((b * out_c + co) * oh + oy) * ow + ox] =
                                    requant(acc + bias[co], *shift, qmin, qmax);
                            }
                        }
                    }
                }
                self.slots[step.dst] = dst;
            }
            ScheduleOp::Dense {
                weights_t,
                bias,
                in_f,
                out_f,
                shift,
                w_frac: _,
                out,
            } => {
                let (qmin, qmax) = (out.qmin(), out.qmax());
                let mut dst = std::mem::take(&mut self.slots[step.dst]);
                let src = &self.slots[step.src][..in_elems];
                for b in 0..batch {
                    for o in 0..*out_f {
                        let mut acc = 0i64;
                        let row = &weights_t[o * in_f..(o + 1) * in_f];
                        for (i, &wv) in row.iter().enumerate() {
                            acc += wv as i64 * src[b * in_f + i];
                        }
                        dst[b * out_f + o] = requant(acc + bias[o], *shift, qmin, qmax);
                    }
                }
                self.slots[step.dst] = dst;
            }
            ScheduleOp::Relu => {
                if step.src == step.dst {
                    for v in self.slots[step.dst][..in_elems].iter_mut() {
                        *v = (*v).max(0);
                    }
                } else {
                    let mut dst = std::mem::take(&mut self.slots[step.dst]);
                    for (d, &s) in dst[..in_elems]
                        .iter_mut()
                        .zip(&self.slots[step.src][..in_elems])
                    {
                        *d = s.max(0);
                    }
                    self.slots[step.dst] = dst;
                }
            }
            ScheduleOp::MaxPool { kernel, stride } => {
                let (c, h, w) = (step.in_dims[0], step.in_dims[1], step.in_dims[2]);
                let (oh, ow) = (step.out_dims[1], step.out_dims[2]);
                let mut dst = std::mem::take(&mut self.slots[step.dst]);
                let src = &self.slots[step.src][..in_elems];
                for b in 0..batch {
                    for ch in 0..c {
                        for y in 0..oh {
                            for x in 0..ow {
                                let mut best = i64::MIN;
                                for ky in 0..*kernel {
                                    for kx in 0..*kernel {
                                        let iy = y * stride + ky;
                                        let ix = x * stride + kx;
                                        if iy < h && ix < w {
                                            let v = src[((b * c + ch) * h + iy) * w + ix];
                                            best = best.max(v);
                                        }
                                    }
                                }
                                dst[((b * c + ch) * oh + y) * ow + x] = best;
                            }
                        }
                    }
                }
                self.slots[step.dst] = dst;
            }
            ScheduleOp::GlobalAvgPool => {
                let (c, h, w) = (step.in_dims[0], step.in_dims[1], step.in_dims[2]);
                let mut dst = std::mem::take(&mut self.slots[step.dst]);
                let src = &self.slots[step.src][..in_elems];
                for b in 0..batch {
                    for ch in 0..c {
                        let start = (b * c + ch) * h * w;
                        let acc: i64 = src[start..start + h * w].iter().sum();
                        dst[b * c + ch] = div_round(acc, (h * w) as i64);
                    }
                }
                self.slots[step.dst] = dst;
            }
            ScheduleOp::Affine { m, b: bb, out } => {
                let (c, plane) = (step.in_dims[0], step.in_dims[1] * step.in_dims[2]);
                let (qmin, qmax) = (out.qmin(), out.qmax());
                let mut dst = std::mem::take(&mut self.slots[step.dst]);
                if step.src == step.dst {
                    for b in 0..batch {
                        for ch in 0..c {
                            let start = (b * c + ch) * plane;
                            for v in dst[start..start + plane].iter_mut() {
                                *v = requant(*v * m[ch] + bb[ch], MUL_FRAC as i32, qmin, qmax);
                            }
                        }
                    }
                } else {
                    let src = &self.slots[step.src][..in_elems];
                    for b in 0..batch {
                        for ch in 0..c {
                            let start = (b * c + ch) * plane;
                            for i in 0..plane {
                                dst[start + i] = requant(
                                    src[start + i] * m[ch] + bb[ch],
                                    MUL_FRAC as i32,
                                    qmin,
                                    qmax,
                                );
                            }
                        }
                    }
                }
                self.slots[step.dst] = dst;
            }
            ScheduleOp::McDropout {
                rate,
                scale_q,
                params,
            } => {
                let idx = *stream_idx;
                *stream_idx += 1;
                let sampling = mode == SimMode::McSample && *rate > 0.0;
                if !sampling {
                    // A non-sampling pass draws nothing (stream alignment).
                    if step.src != step.dst {
                        let mut dst = std::mem::take(&mut self.slots[step.dst]);
                        dst[..in_elems].copy_from_slice(&self.slots[step.src][..in_elems]);
                        self.slots[step.dst] = dst;
                    }
                    return;
                }
                let keep = 1.0 - *rate;
                // Filter-wise masks for NCHW values, element-wise otherwise
                // — one draw per (batch, channel): the plan's PerBatch
                // granularity, the float layer chain's mask rule that
                // Phase 3 scores against.
                let (draws, plane) = if step.in_dims.len() == 3 {
                    (batch * step.in_dims[0], step.in_dims[1] * step.in_dims[2])
                } else {
                    (in_elems, 1)
                };
                let rng = &mut self.streams[idx];
                let mask: Vec<bool> = (0..draws).map(|_| rng.bernoulli(keep)).collect();
                let (qmin, qmax) = (params.qmin(), params.qmax());
                let drop_one = |v: i64, kept: bool| -> i64 {
                    if kept {
                        requant(v * scale_q, MUL_FRAC as i32, qmin, qmax)
                    } else {
                        0
                    }
                };
                let mut dst = std::mem::take(&mut self.slots[step.dst]);
                if step.src == step.dst {
                    for (i, v) in dst[..in_elems].iter_mut().enumerate() {
                        *v = drop_one(*v, mask[(i / plane) % draws]);
                    }
                } else {
                    for (i, (d, &s)) in dst[..in_elems]
                        .iter_mut()
                        .zip(&self.slots[step.src][..in_elems])
                        .enumerate()
                    {
                        *d = drop_one(s, mask[(i / plane) % draws]);
                    }
                }
                self.slots[step.dst] = dst;
            }
            ScheduleOp::Merge {
                m_shift,
                s_shift,
                out,
            } => {
                let (qmin, qmax) = (out.qmin(), out.qmax());
                let src2 = step.src2.expect("merge has a shortcut source");
                let mut dst = std::mem::take(&mut self.slots[step.dst]);
                for (i, d) in dst[..out_elems].iter_mut().enumerate() {
                    let x = requant(self.slots[step.src][i], *m_shift, qmin, qmax);
                    let y = requant(self.slots[src2][i], *s_shift, qmin, qmax);
                    *d = (x + y).max(0).min(qmax);
                }
                self.slots[step.dst] = dst;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_shift_ties_away_from_zero() {
        assert_eq!(round_shift(3, 1), 2); // 1.5 -> 2
        assert_eq!(round_shift(-3, 1), -2); // -1.5 -> -2
        assert_eq!(round_shift(5, 2), 1); // 1.25 -> 1
        assert_eq!(round_shift(6, 2), 2); // 1.5 -> 2
        assert_eq!(round_shift(7, 0), 7);
    }

    #[test]
    fn requant_saturates_and_scales_up() {
        assert_eq!(requant(1000, 2, -128, 127), 127);
        assert_eq!(requant(-1000, 2, -128, 127), -128);
        assert_eq!(requant(3, -2, -128, 127), 12);
        assert_eq!(requant(i64::MAX, -4, -128, 127), 127);
    }

    #[test]
    fn div_round_matches_half_away_rule() {
        assert_eq!(div_round(3, 2), 2); // 1.5 -> 2
        assert_eq!(div_round(-3, 2), -2);
        assert_eq!(div_round(5, 4), 1); // 1.25 -> 1
        assert_eq!(div_round(7, 4), 2); // 1.75 -> 2
    }
}
