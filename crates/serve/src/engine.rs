//! The engine abstraction the server batches over.
//!
//! A [`BatchEngine`] is anything that can run **batch-boundary-invariant**
//! Monte-Carlo prediction: the result row for each sample must be bit-exact
//! with a single-sample call at the same `(n_samples, seed)`, however the
//! dynamic batcher happens to group requests. Both number formats run the
//! one compiled plan runtime ([`bnn_models::Plan`]) and its exit walker with
//! per-sample masks, so one generic [`PlanEngine`] serves either —
//! [`QuantEngine`] over the integer [`bnn_quant::QuantPlan`],
//! [`FloatEngine`] over the float [`bnn_models::MultiExitPlan`] — and a
//! worker can serve any mix of batch sizes without changing a single
//! response bit.

use crate::error::ServeError;
use bnn_models::plan::FloatKernel;
use bnn_models::{AdaptiveStats, ExitPlan, ExitPolicy, Kernel, Plan};
use bnn_quant::IntKernel;
use bnn_tensor::Tensor;

/// A batch-capable inference engine a serving worker can own.
///
/// Contract: `predict_adaptive_batch_into` must be **batch-boundary
/// invariant** (each output row bit-exact with a single-sample call at the
/// same seed). Both
/// engines are also **allocation-free in the steady state** after
/// [`BatchEngine::ensure_batch`] warmed the arena for the largest batch they
/// will see (output-buffer growth aside), on a plan pinned to a sequential
/// executor; `tests/allocation_audit.rs` is what checks it.
pub trait BatchEngine: Send {
    /// Per-sample input dims (batch axis stripped): submitted samples carry
    /// `in_dims().iter().product()` elements.
    fn in_dims(&self) -> &[usize];

    /// Number of predicted classes (the per-request response length).
    fn num_classes(&self) -> usize;

    /// Number of exit heads the plan carries (adaptive requests can retire
    /// at exits `0..num_exits()`).
    fn num_exits(&self) -> usize;

    /// Pre-sizes internal arenas for batches up to `max_batch`.
    fn ensure_batch(&mut self, max_batch: usize);

    /// Seeded MC prediction of a `[batch, ..in_dims]` tensor into `out`
    /// (`[batch, classes]`, resized): `policy` retires confident samples
    /// after each exit and only the compacted stragglers run deeper
    /// ([`ExitPolicy::Never`] runs every sample to the last exit). Fills
    /// `exit_taken[i]` with request `i`'s exit and returns the execution
    /// accounting; rows stay batch-boundary invariant.
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

/// [`BatchEngine`] over the compiled plan of number format `K`: a
/// pass-through to [`Plan::predict_adaptive_batch_into`], whose per-sample
/// masks make it batch-boundary invariant.
#[derive(Debug, Clone)]
pub struct PlanEngine<K: Kernel> {
    plan: Plan<K>,
}

/// The engine over the integer [`bnn_quant::QuantPlan`] — the production
/// path: allocation-free in steady state and SIMD-dispatched. Pin the plan
/// to `Executor::sequential()` first if the worker should stay strictly
/// allocation-free (results are bitwise identical either way).
pub type QuantEngine = PlanEngine<IntKernel>;

/// The engine over the float [`bnn_models::MultiExitPlan`] — the reference
/// path for networks that are not quantized (or not quantizable). Pin its
/// plan to `Executor::sequential()` (`Plan::set_executor`) for a strictly
/// allocation-free worker.
pub type FloatEngine = PlanEngine<FloatKernel>;

impl<K: Kernel> PlanEngine<K> {
    /// Wraps a compiled plan.
    pub fn new(plan: Plan<K>) -> Self {
        PlanEngine { plan }
    }
}

impl<K> BatchEngine for PlanEngine<K>
where
    K: Kernel + Clone + Send + 'static,
    Plan<K>: Send,
    ServeError: From<K::Error>,
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

    fn ensure_batch(&mut self, max_batch: usize) {
        self.plan.ensure_batch(max_batch);
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
        Ok(plan.predict_adaptive_batch_into(inputs, n_samples, seed, policy, out, exit_taken)?)
    }

    fn fork(&self) -> Box<dyn BatchEngine> {
        Box::new(self.clone())
    }
}
