//! The engine abstraction the server batches over.
//!
//! A [`BatchEngine`] is anything that can run **batch-boundary-invariant**
//! Monte-Carlo prediction: the result row for each sample must be bit-exact
//! with a single-sample call at the same `(n_samples, seed)`, however the
//! dynamic batcher happens to group requests. Both compiled plan families
//! run the one exit walker ([`bnn_models::walker`]) with per-sample masks,
//! so one generic [`PlanEngine`] serves either — [`QuantEngine`] over the
//! integer [`bnn_quant::QuantPlan`], [`FloatEngine`] over the float
//! [`bnn_models::MultiExitPlan`] — and a worker can serve any mix of batch
//! sizes without changing a single response bit.

use crate::error::ServeError;
use bnn_models::walker::{self, ExitPlan};
use bnn_models::{AdaptiveStats, ExitPolicy, MultiExitPlan};
use bnn_quant::QuantPlan;
use bnn_tensor::Tensor;

/// A batch-capable inference engine a serving worker can own.
///
/// Contract: `predict_batch_into` must be **batch-boundary invariant** (each
/// output row bit-exact with a single-sample call at the same seed) and must
/// not allocate in the steady state after [`BatchEngine::ensure_batch`]
/// warmed the arena for the largest batch it will see (output-buffer growth
/// aside).
pub trait BatchEngine: Send {
    /// Per-sample input dims (batch axis stripped): submitted samples carry
    /// `in_dims().iter().product()` elements.
    fn in_dims(&self) -> &[usize];

    /// Number of predicted classes (the per-request response length).
    fn num_classes(&self) -> usize;

    /// Number of exit heads the plan carries (adaptive requests can retire
    /// at exits `0..num_exits()`).
    fn num_exits(&self) -> usize;

    /// The plan's static integer-op estimate for ONE sample served at fixed
    /// (full) depth with `n_samples` MC samples — the per-request baseline
    /// adaptive savings are measured against.
    fn fixed_unit_ops(&self, n_samples: usize) -> u64;

    /// Pre-sizes internal arenas for batches up to `max_batch`.
    fn ensure_batch(&mut self, max_batch: usize);

    /// Seeded MC prediction of a `[batch, ..in_dims]` tensor into `out`
    /// (`[batch, classes]`, resized), batch-boundary invariant.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] for malformed inputs or
    /// [`ServeError::Engine`] on execution failures.
    fn predict_batch_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        out: &mut Vec<f32>,
    ) -> Result<(), ServeError>;

    /// Adaptive (early-exit) variant of [`BatchEngine::predict_batch_into`]:
    /// `policy` retires confident samples after each exit and only the
    /// compacted stragglers run deeper. Fills `exit_taken[i]` with request
    /// `i`'s exit and returns the execution accounting; rows stay
    /// batch-boundary invariant.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] for malformed inputs or an
    /// out-of-range policy threshold, [`ServeError::Engine`] on execution
    /// failures.
    fn predict_adaptive_batch_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        policy: &ExitPolicy,
        out: &mut Vec<f32>,
        exit_taken: &mut Vec<usize>,
    ) -> Result<AdaptiveStats, ServeError>;

    /// An independent replica of this engine for another worker thread
    /// (packed weights and arenas are copied, no model rebuild).
    fn fork(&self) -> Box<dyn BatchEngine>;
}

/// [`BatchEngine`] over any compiled plan the exit walker drives: a
/// pass-through to [`walker::predict_fixed`] and
/// [`walker::predict_adaptive`], whose per-sample masks make both
/// batch-boundary invariant.
#[derive(Debug, Clone)]
pub struct PlanEngine<P> {
    plan: P,
}

/// The engine over the integer [`QuantPlan`] — the production path:
/// allocation-free in steady state and SIMD-dispatched. Pin the plan to
/// `Executor::sequential()` first if the worker should stay strictly
/// allocation-free (results are bitwise identical either way).
pub type QuantEngine = PlanEngine<QuantPlan>;

/// The engine over the float [`MultiExitPlan`] — the reference path for
/// networks that are not quantized (or not quantizable).
pub type FloatEngine = PlanEngine<MultiExitPlan>;

impl<P> PlanEngine<P> {
    /// Wraps a compiled plan.
    pub fn new(plan: P) -> Self {
        PlanEngine { plan }
    }
}

impl<P> BatchEngine for PlanEngine<P>
where
    P: ExitPlan + Clone + Send + 'static,
    ServeError: From<P::Error>,
{
    fn in_dims(&self) -> &[usize] {
        self.plan.in_dims()
    }

    fn num_classes(&self) -> usize {
        self.plan.num_classes()
    }

    fn num_exits(&self) -> usize {
        self.plan.num_exits()
    }

    fn fixed_unit_ops(&self, n_samples: usize) -> u64 {
        walker::fixed_cost(&self.plan, 1, n_samples).1
    }

    fn ensure_batch(&mut self, max_batch: usize) {
        self.plan.ensure_batch(max_batch);
    }

    fn predict_batch_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        out: &mut Vec<f32>,
    ) -> Result<(), ServeError> {
        walker::predict_fixed(&mut self.plan, inputs, n_samples, seed, out)?;
        Ok(())
    }

    fn predict_adaptive_batch_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        policy: &ExitPolicy,
        out: &mut Vec<f32>,
        exit_taken: &mut Vec<usize>,
    ) -> Result<AdaptiveStats, ServeError> {
        let plan = &mut self.plan;
        Ok(walker::predict_adaptive(
            plan, inputs, n_samples, seed, policy, out, exit_taken,
        )?)
    }

    fn fork(&self) -> Box<dyn BatchEngine> {
        Box::new(self.clone())
    }
}
