//! The exit walker: the one Monte-Carlo sample schedule, fixed-depth loop
//! and adaptive retire-and-compact walk that the compiled
//! [`Plan`](crate::Plan) runs for both number formats (`bnn_quant::QuantPlan`
//! and [`MultiExitPlan`](crate::MultiExitPlan)). The plan exposes the
//! primitives the walk needs through [`ExitPlan`]; the walker decides what
//! runs, on which rows and passes, and does the softmax ensembles,
//! retirement and op accounting once.
//!
//! Samples are drawn from the exits round-robin: pass `p` reseeds every
//! mask stream from `stream_seed(seed, p)` and visits each exit, and the
//! first `kept` samples count ([`SampleSchedule`]). [`predict_fixed`]
//! accumulates them pass-major, [`predict_adaptive`] exit-major; the two
//! orders round differently, so the loops stay apart.

use crate::error::ModelError;
use crate::policy::{AdaptiveStats, ExitPolicy};
use bnn_nn::layer::Mode;
use bnn_tensor::ops::softmax_rows_into;
use bnn_tensor::rng::stream_seed;
use bnn_tensor::Tensor;
use std::ops::Range;

/// A compiled multi-exit plan the walker can drive. Exits attach in
/// ascending block order and the last one after the last block. A call on
/// `live` rows reads and writes rows `0..live` only, and every output row
/// depends on its own input row alone (per-sample masks), which keeps the
/// adaptive walk's compaction invisible in the output bits.
pub trait ExitPlan {
    /// The plan's error type; the walker's own faults arrive as
    /// [`ModelError::InvalidInput`] (bad policy) or
    /// [`ModelError::InvalidSpec`] (exits missing or out of order).
    type Error: From<ModelError>;

    /// Number of exit heads.
    fn num_exits(&self) -> usize;

    /// Number of predicted classes.
    fn num_classes(&self) -> usize;

    /// The backbone block exit `exit` reads from.
    fn exit_block(&self, exit: usize) -> usize;

    /// Static `(step invocations, per-sample ops)` of one run of `block`.
    fn block_cost(&self, block: usize) -> (u64, u64);

    /// Static `(step invocations, per-sample ops)` of one run of `exit`.
    fn exit_cost(&self, exit: usize) -> (u64, u64);

    /// Validates `inputs` (`[batch, ..in_dims]`, non-empty, finite) and
    /// stages it as the backbone input, returning the batch size.
    fn stage_input(&mut self, inputs: &Tensor) -> Result<usize, Self::Error>;

    /// Runs backbone `blocks` in [`Mode::Eval`] on the first `live` rows.
    /// Outputs of blocks before `blocks.start - 1` are not read again.
    fn run_blocks(&mut self, blocks: Range<usize>, live: usize) -> Result<(), Self::Error>;

    /// Runs exit `exit` in `mode` on the first `live` rows of its block's
    /// output and hands back its float logits (`[live, classes]`).
    fn run_exit(&mut self, exit: usize, live: usize, mode: Mode) -> Result<&[f32], Self::Error>;

    /// Reseeds every MC-dropout stream from `master_seed`.
    fn reseed_mc_streams(&mut self, master_seed: u64);

    /// Copies row `from` of `block`'s output over row `to`.
    fn move_row(&mut self, block: usize, from: usize, to: usize);

    /// The plan-owned buffers the walker works in.
    fn scratch(&mut self) -> &mut WalkScratch;
}

/// The walker's buffers: softmax staging, running per-row ensembles and
/// the original sample index of each live row. They only grow, so calls at
/// or below a warmed batch size never allocate.
#[derive(Debug, Clone, Default)]
pub struct WalkScratch {
    probs: Vec<f32>,
    acc: Vec<f32>,
    live_idx: Vec<usize>,
}

impl WalkScratch {
    /// Grows the buffers for `batch` rows of `classes`.
    pub fn reserve(&mut self, batch: usize, classes: usize) {
        if self.probs.len() < batch * classes {
            self.probs.resize(batch * classes, 0.0);
            self.acc.resize(batch * classes, 0.0);
        }
        if self.live_idx.len() < batch {
            self.live_idx.resize(batch, 0);
        }
    }
}

/// How `n_samples` MC samples spread over the exits: sample `s` comes from
/// exit `s % n_exits` on pass `s / n_exits`, for `s < kept`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSchedule {
    /// Samples in a full-depth ensemble (`n_samples`, or one deterministic
    /// consult per exit when `n_samples == 0`).
    pub kept: usize,
    n_exits: usize,
}

impl SampleSchedule {
    /// The schedule of `n_samples` samples over `n_exits` exits.
    pub fn new(n_samples: usize, n_exits: usize) -> Self {
        let n_exits = n_exits.max(1);
        let kept = if n_samples == 0 { n_exits } else { n_samples };
        SampleSchedule { kept, n_exits }
    }

    /// Samples exit `exit` contributes (on passes `0..runs(exit)`).
    pub fn runs(&self, exit: usize) -> usize {
        (self.kept + self.n_exits - 1 - exit) / self.n_exits
    }

    /// Passes a full-depth ensemble runs (`⌈kept / n_exits⌉`, at least
    /// one): exit 0's sample count. The one pass-count rule of the walker,
    /// the hardware model and the mapping exploration.
    pub fn passes(&self) -> usize {
        self.runs(0)
    }

    /// Ensemble size of a sample that stops at `exit`.
    pub fn ensemble(&self, exit: usize) -> usize {
        (0..=exit).map(|e| self.runs(e)).sum()
    }
}

/// Static `(step invocations, ops)` of [`predict_fixed`] on `batch` samples
/// at `n_samples` MC samples (each invocation runs the whole batch): the
/// `ops_fixed` baseline adaptive savings are measured against.
pub fn fixed_cost<P: ExitPlan + ?Sized>(plan: &P, batch: usize, n_samples: usize) -> (u64, u64) {
    let n_exits = plan.num_exits();
    let schedule = SampleSchedule::new(n_samples, n_exits);
    let blocks = n_exits.checked_sub(1).map_or(0, |e| plan.exit_block(e) + 1);
    let costs = (0..blocks)
        .map(|b| (1, plan.block_cost(b)))
        .chain((0..n_exits).map(|e| (schedule.runs(e) as u64, plan.exit_cost(e))));
    let (steps, ops) = costs.fold((0, 0), |(s, o), (runs, (cs, co))| {
        (s + runs * cs, o + runs * co)
    });
    (steps, ops * batch as u64)
}

/// Seeded fixed-depth MC prediction: the backbone once, then the
/// [`SampleSchedule`]'s samples pass-major in [`Mode::McSample`], averaged
/// into `out` (`[batch, classes]`, resized). With a `samples` sink, every
/// sample's probabilities are also kept there, `kept` blocks of
/// `[batch, classes]` in schedule order (cleared first); without one the
/// loop allocates nothing once warm. Returns `(batch, classes)`.
///
/// # Errors
///
/// [`ModelError::InvalidSpec`] for a plan without exits, the plan's input
/// error for a malformed batch, or propagated execution errors.
pub fn predict_fixed<P: ExitPlan + ?Sized>(
    plan: &mut P,
    inputs: &Tensor,
    n_samples: usize,
    seed: u64,
    out: &mut Vec<f32>,
    samples: Option<&mut Vec<f32>>,
) -> Result<(usize, usize), P::Error> {
    if plan.num_exits() == 0 {
        return Err(ModelError::InvalidSpec("plan has no exits".into()).into());
    }
    let batch = plan.stage_input(inputs)?;
    let mut scratch = take_scratch(plan, batch);
    let result = fixed_loop(plan, &mut scratch, batch, n_samples, seed, out, samples);
    *plan.scratch() = scratch;
    result.map(|()| (batch, plan.num_classes()))
}

/// Policy-driven adaptive prediction. Exit `e` runs after the blocks up to
/// its attachment point (on the live rows) and draws the
/// [`SampleSchedule::runs`] samples the fixed loop gives it; then `policy`
/// retires the rows whose running ensemble is confident — the output row is
/// that ensemble's mean and `exit_taken` records `e` — and the survivors are
/// compacted into a dense smaller batch that alone pays for deeper blocks.
/// Every row retires at the last exit, holding exactly `kept` samples.
///
/// With `n_samples == 0` each exit is consulted once in [`Mode::Eval`].
/// With [`ExitPolicy::Never`] and `n_samples > 0` this is the fixed loop,
/// bit-exact with [`predict_fixed`].
///
/// # Errors
///
/// [`ModelError::InvalidInput`] for an invalid policy,
/// [`ModelError::InvalidSpec`] for a plan without exits or with exits out of
/// block order, the plan's input error for a malformed batch, or propagated
/// execution errors.
pub fn predict_adaptive<P: ExitPlan + ?Sized>(
    plan: &mut P,
    inputs: &Tensor,
    n_samples: usize,
    seed: u64,
    policy: &ExitPolicy,
    out: &mut Vec<f32>,
    exit_taken: &mut Vec<usize>,
) -> Result<AdaptiveStats, P::Error> {
    policy.validate().map_err(ModelError::InvalidInput)?;
    let n_exits = plan.num_exits();
    if n_exits == 0 {
        return Err(ModelError::InvalidSpec("plan has no exits".into()).into());
    }
    if (1..n_exits).any(|e| plan.exit_block(e - 1) > plan.exit_block(e)) {
        let msg = "adaptive execution requires exits in ascending block order";
        return Err(ModelError::InvalidSpec(msg.into()).into());
    }
    let batch = plan.stage_input(inputs)?;
    let classes = plan.num_classes();
    let (steps_fixed, ops_fixed) = fixed_cost(plan, batch, n_samples);
    let schedule = SampleSchedule::new(n_samples, n_exits);
    let mode = if n_samples == 0 {
        Mode::Eval
    } else {
        Mode::McSample
    };
    exit_taken.clear();
    exit_taken.resize(batch, n_exits - 1);
    let mut s = take_scratch(plan, batch);
    let mut walk = || -> Result<(u64, u64), P::Error> {
        if policy.is_never() && n_samples > 0 {
            fixed_loop(plan, &mut s, batch, n_samples, seed, out, None)?;
            return Ok((steps_fixed, ops_fixed));
        }
        out.clear();
        out.resize(batch * classes, 0.0);
        // Rows 0..live of `acc` and of the frontier block output belong to
        // original samples `live_idx[0..live]`.
        for (i, v) in s.live_idx[..batch].iter_mut().enumerate() {
            *v = i;
        }
        s.acc[..batch * classes].fill(0.0);
        let (mut live, mut next_block, mut consulted) = (batch, 0, 0);
        let (mut steps, mut ops) = (0u64, 0u64);
        for e in 0..n_exits {
            let block = plan.exit_block(e);
            plan.run_blocks(next_block..block + 1, live)?;
            for b in next_block..=block {
                let (bs, bo) = plan.block_cost(b);
                (steps, ops) = (steps + bs, ops + bo * live as u64);
            }
            next_block = next_block.max(block + 1);
            let (es, eo) = plan.exit_cost(e);
            let n = live * classes;
            for pass in 0..schedule.runs(e) {
                if mode == Mode::McSample {
                    // Reseeding assigns every stream from the master seed,
                    // so exit `e` alone draws its fixed-loop masks.
                    plan.reseed_mc_streams(stream_seed(seed, pass as u64));
                }
                let logits = plan.run_exit(e, live, mode)?;
                softmax_rows_into(logits, live, classes, &mut s.probs[..n])
                    .map_err(ModelError::from)?;
                for (a, &p) in s.acc[..n].iter_mut().zip(&s.probs[..n]) {
                    *a += p;
                }
                (steps, ops) = (steps + es, ops + eo * live as u64);
            }
            consulted += schedule.runs(e);
            let denom = consulted as f32;

            // Retire or compact: a retired row scatters its ensemble mean to
            // its original slot; survivors slide forward in `acc`,
            // `live_idx` and the frontier block output.
            let mut keep = 0;
            for r in 0..live {
                let row = r * classes..(r + 1) * classes;
                if e + 1 == n_exits || policy.retires(&s.acc[row.clone()], denom) {
                    let orig = s.live_idx[r];
                    let dst = &mut out[orig * classes..(orig + 1) * classes];
                    for (o, &a) in dst.iter_mut().zip(&s.acc[row]) {
                        *o = a / denom;
                    }
                    exit_taken[orig] = e;
                } else {
                    if keep != r {
                        s.acc.copy_within(row, keep * classes);
                        s.live_idx[keep] = s.live_idx[r];
                        plan.move_row(block, r, keep);
                    }
                    keep += 1;
                }
            }
            live = keep;
            if live == 0 {
                break;
            }
        }
        Ok((steps, ops))
    };
    let walked = walk();
    *plan.scratch() = s;
    let (steps_executed, ops_executed) = walked?;
    Ok(AdaptiveStats {
        batch,
        classes,
        steps_executed,
        ops_executed,
        ops_fixed,
    })
}

/// The pass-major fixed-depth loop on a staged batch, optionally keeping
/// every sample in `samples` (see [`predict_fixed`]).
fn fixed_loop<P: ExitPlan + ?Sized>(
    plan: &mut P,
    scratch: &mut WalkScratch,
    batch: usize,
    n_samples: usize,
    seed: u64,
    out: &mut Vec<f32>,
    mut samples: Option<&mut Vec<f32>>,
) -> Result<(), P::Error> {
    let (n_exits, classes) = (plan.num_exits(), plan.num_classes());
    plan.run_blocks(0..plan.exit_block(n_exits - 1) + 1, batch)?;
    let schedule = SampleSchedule::new(n_samples, n_exits);
    out.clear();
    out.resize(batch * classes, 0.0);
    if let Some(samples) = samples.as_deref_mut() {
        samples.clear();
        samples.reserve(schedule.kept * batch * classes);
    }
    let probs = &mut scratch.probs[..batch * classes];
    for sample in 0..schedule.kept {
        let (pass, e) = (sample / n_exits, sample % n_exits);
        if e == 0 {
            plan.reseed_mc_streams(stream_seed(seed, pass as u64));
        }
        let logits = plan.run_exit(e, batch, Mode::McSample)?;
        softmax_rows_into(logits, batch, classes, probs).map_err(ModelError::from)?;
        for (o, &p) in out.iter_mut().zip(probs.iter()) {
            *o += p;
        }
        if let Some(samples) = samples.as_deref_mut() {
            samples.extend_from_slice(probs);
        }
    }
    let inv = 1.0 / schedule.kept as f32;
    for o in out.iter_mut() {
        *o *= inv;
    }
    Ok(())
}

/// The plan's scratch, taken out so the walk can borrow it beside the plan
/// (moving three `Vec` headers, no allocation) and sized for `batch`.
fn take_scratch<P: ExitPlan + ?Sized>(plan: &mut P, batch: usize) -> WalkScratch {
    let mut scratch = std::mem::take(plan.scratch());
    scratch.reserve(batch, plan.num_classes());
    scratch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelError;

    /// A fake plan with exit `e` after block `e`. Rows carry their original
    /// sample index through every block, so a test can see which rows each
    /// exit ran on; exit `e` makes sample `i` confident exactly when bit `e`
    /// of `i` is set, which interleaves retirements across the batch.
    #[derive(Default)]
    struct Stub {
        exits: usize,
        /// `frontier[0]` is the staged input, `frontier[b + 1]` block `b`'s
        /// output: the sample index of each row.
        frontier: Vec<Vec<usize>>,
        logits: Vec<f32>,
        scratch: WalkScratch,
        /// `(exit, sample indices of the live rows)` of every exit run.
        exit_runs: Vec<(usize, Vec<usize>)>,
        block_runs: Vec<usize>,
    }

    impl Stub {
        fn new(exits: usize) -> Self {
            Stub {
                exits,
                frontier: vec![Vec::new(); exits + 1],
                ..Stub::default()
            }
        }
    }

    impl ExitPlan for Stub {
        type Error = ModelError;

        fn num_exits(&self) -> usize {
            self.exits
        }
        fn num_classes(&self) -> usize {
            2
        }
        fn exit_block(&self, exit: usize) -> usize {
            exit
        }
        fn block_cost(&self, block: usize) -> (u64, u64) {
            (1 + block as u64, 10 << block)
        }
        fn exit_cost(&self, exit: usize) -> (u64, u64) {
            (2 + exit as u64, 1000 << exit)
        }
        fn stage_input(&mut self, inputs: &Tensor) -> Result<usize, ModelError> {
            let batch = inputs.dims()[0];
            self.frontier[0] = (0..batch).collect();
            Ok(batch)
        }
        fn run_blocks(&mut self, blocks: Range<usize>, live: usize) -> Result<(), ModelError> {
            for b in blocks {
                self.frontier[b + 1] = self.frontier[b][..live].to_vec();
                self.block_runs.push(b);
            }
            Ok(())
        }
        fn run_exit(
            &mut self,
            exit: usize,
            live: usize,
            _mode: Mode,
        ) -> Result<&[f32], ModelError> {
            let rows = self.frontier[exit + 1][..live].to_vec();
            self.logits.clear();
            for &i in &rows {
                let confident = (i >> exit) & 1 == 1;
                self.logits.extend([if confident { 8.0 } else { 0.0 }, 0.0]);
            }
            self.exit_runs.push((exit, rows));
            Ok(&self.logits)
        }
        fn reseed_mc_streams(&mut self, _master_seed: u64) {}
        fn move_row(&mut self, block: usize, from: usize, to: usize) {
            let rows = &mut self.frontier[block + 1];
            rows[to] = rows[from];
        }
        fn scratch(&mut self) -> &mut WalkScratch {
            &mut self.scratch
        }
    }

    const SWEEP_SAMPLES: [usize; 4] = [0, 1, 5, 6];
    const BATCH: usize = 7;

    fn inputs() -> Tensor {
        Tensor::zeros(&[BATCH, 1])
    }

    #[test]
    fn schedule_spreads_samples_round_robin() {
        let s = SampleSchedule::new(5, 2);
        assert_eq!(s.kept, 5);
        assert_eq!((s.runs(0), s.runs(1)), (3, 2));
        assert_eq!((s.ensemble(0), s.ensemble(1)), (3, 5));
        let det = SampleSchedule::new(0, 3);
        assert_eq!(det.kept, 3);
        // `passes` is the hand formula it replaced, at every input.
        for n in 0..12usize {
            for exits in 0..5usize {
                let by_hand = n.div_ceil(exits.max(1)).max(1);
                assert_eq!(
                    SampleSchedule::new(n, exits).passes(),
                    by_hand,
                    "n={n} exits={exits}"
                );
            }
        }
        assert_eq!((0..3).map(|e| det.runs(e)).collect::<Vec<_>>(), [1, 1, 1]);
        let short = SampleSchedule::new(1, 3);
        assert_eq!((0..3).map(|e| short.runs(e)).collect::<Vec<_>>(), [1, 0, 0]);
        for n in SWEEP_SAMPLES {
            for exits in 1..=3 {
                let s = SampleSchedule::new(n, exits);
                assert_eq!(s.ensemble(exits - 1), s.kept, "n={n} exits={exits}");
            }
        }
    }

    #[test]
    fn fixed_loop_runs_exactly_what_fixed_cost_prices() {
        for n in SWEEP_SAMPLES {
            for exits in 1..=3 {
                let mut plan = Stub::new(exits);
                let mut out = Vec::new();
                predict_fixed(&mut plan, &inputs(), n, 1, &mut out, None).unwrap();
                let schedule = SampleSchedule::new(n, exits);
                let (mut steps, mut unit_ops) = (0u64, 0u64);
                for &b in &plan.block_runs {
                    steps += plan.block_cost(b).0;
                    unit_ops += plan.block_cost(b).1;
                }
                for e in 0..exits {
                    let runs = plan.exit_runs.iter().filter(|(x, _)| *x == e).count();
                    assert_eq!(runs, schedule.runs(e), "n={n} exits={exits} exit {e}");
                    steps += runs as u64 * plan.exit_cost(e).0;
                    unit_ops += runs as u64 * plan.exit_cost(e).1;
                }
                assert_eq!(
                    fixed_cost(&plan, BATCH, n),
                    (steps, unit_ops * BATCH as u64),
                    "n={n} exits={exits}"
                );
                assert!(plan.exit_runs.iter().all(|(_, rows)| rows.len() == BATCH));
            }
        }
    }

    #[test]
    fn sample_sink_keeps_the_averaged_samples_in_schedule_order() {
        for n in SWEEP_SAMPLES {
            for exits in 1..=3 {
                let mut plan = Stub::new(exits);
                let (mut out, mut samples) = (Vec::new(), vec![9.0]);
                predict_fixed(&mut plan, &inputs(), n, 1, &mut out, Some(&mut samples)).unwrap();
                let kept = SampleSchedule::new(n, exits).kept;
                let block = BATCH * 2;
                assert_eq!(samples.len(), kept * block, "n={n} exits={exits}");
                let mut mean = vec![0.0f32; block];
                for (s, probs) in samples.chunks_exact(block).enumerate() {
                    // Sample s ran exit s % exits: confident rows are the
                    // samples with that bit set.
                    for (i, row) in probs.chunks_exact(2).enumerate() {
                        let confident = (i >> (s % exits)) & 1 == 1;
                        assert_eq!(row[0] > row[1], confident, "n={n} exits={exits} s={s}");
                    }
                    for (m, &p) in mean.iter_mut().zip(probs) {
                        *m += p;
                    }
                }
                let inv = 1.0 / kept as f32;
                let mean: Vec<f32> = mean.iter().map(|m| m * inv).collect();
                assert_eq!(mean, out, "n={n} exits={exits}");
            }
        }
    }

    #[test]
    fn compaction_moves_exactly_the_surviving_rows_in_order() {
        // One confident exit lifts a running ensemble of at most two
        // consulted exits to ~0.75: over the threshold.
        let policy = ExitPolicy::Confidence { threshold: 0.7 };
        for n in SWEEP_SAMPLES {
            for exits in 1..=3 {
                let mut plan = Stub::new(exits);
                let (mut out, mut taken) = (Vec::new(), Vec::new());
                let stats =
                    predict_adaptive(&mut plan, &inputs(), n, 1, &policy, &mut out, &mut taken)
                        .unwrap();
                // Sample i retires at its lowest set bit among the exits
                // below the last that draw samples.
                let schedule = SampleSchedule::new(n, exits);
                let expected_exit = |i: usize| {
                    (0..exits - 1)
                        .find(|&e| (i >> e) & 1 == 1 && schedule.runs(e) > 0)
                        .unwrap_or(exits - 1)
                };
                let expected: Vec<usize> = (0..BATCH).map(expected_exit).collect();
                assert_eq!(taken, expected, "n={n} exits={exits}");
                for (e, rows) in &plan.exit_runs {
                    let survivors: Vec<usize> =
                        (0..BATCH).filter(|&i| expected_exit(i) >= *e).collect();
                    assert_eq!(rows, &survivors, "n={n} exits={exits} exit {e}");
                }
                let runs = |e| plan.exit_runs.iter().filter(|(x, _)| *x == e).count();
                for e in 0..exits {
                    let live = (0..BATCH).any(|i| expected_exit(i) >= e);
                    assert_eq!(runs(e), if live { schedule.runs(e) } else { 0 });
                }
                assert!(stats.ops_executed <= stats.ops_fixed, "n={n} exits={exits}");
                for row in out.chunks_exact(2) {
                    assert!((row[0] + row[1] - 1.0).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn a_walk_where_no_sample_retires_costs_exactly_fixed_depth() {
        for n in SWEEP_SAMPLES {
            for exits in 1..=3 {
                let mut plan = Stub::new(exits);
                let (mut out, mut taken) = (Vec::new(), Vec::new());
                let stats = predict_adaptive(
                    &mut plan,
                    &inputs(),
                    n,
                    1,
                    &ExitPolicy::Confidence { threshold: 1.0 },
                    &mut out,
                    &mut taken,
                )
                .unwrap();
                assert_eq!(taken, vec![exits - 1; BATCH], "n={n} exits={exits}");
                assert_eq!(
                    (stats.steps_executed, stats.ops_executed),
                    fixed_cost(&plan, BATCH, n),
                    "n={n} exits={exits}"
                );
                assert_eq!(stats.ops_fixed, stats.ops_executed);
            }
        }
    }

    #[test]
    fn faults_are_detected_before_anything_runs() {
        let mut plan = Stub::new(0);
        let mut out = Vec::new();
        assert!(predict_fixed(&mut plan, &inputs(), 4, 1, &mut out, None).is_err());
        let mut plan = Stub::new(2);
        let bad = ExitPolicy::Entropy { threshold: 2.0 };
        let err = predict_adaptive(&mut plan, &inputs(), 4, 1, &bad, &mut out, &mut Vec::new());
        assert!(err.is_err());
        assert!(plan.block_runs.is_empty() && plan.exit_runs.is_empty());
    }
}
