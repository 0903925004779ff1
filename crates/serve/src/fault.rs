//! Deterministic fault injection for chaos-testing the serving layer.
//!
//! A [`FaultyEngine`] wraps any [`BatchEngine`] and consults a shared
//! [`FaultPlan`] before every batch it executes. Faults are addressed by
//! `(replica, batch)`: replica ids are handed out in **fork order** (the
//! server forks one replica per worker at startup, so worker `i` runs
//! replica `i`; supervisor respawns fork again and receive the next ids),
//! and `batch` is that replica's 0-based batch ordinal. The schedule is
//! therefore fully reproducible — no wall clock, no global state beyond the
//! fork counter — which is what lets chaos tests make exact assertions
//! ("worker 0 panics on its 2nd batch") instead of probabilistic ones.
//!
//! Three fault shapes cover the failure surface the server must survive:
//!
//! * [`FaultAction::Panic`] — the engine panics mid-batch, simulating a
//!   worker crash (exercises catch-unwind isolation, poison recovery,
//!   crash delivery and supervisor respawn),
//! * [`FaultAction::Error`] — the engine returns a typed
//!   [`ServeError::Engine`], simulating a recoverable execution failure
//!   (the worker survives; the batch is failed),
//! * [`FaultAction::Delay`] — the engine sleeps before executing,
//!   simulating a slow replica (exercises deadlines, backpressure and the
//!   degradation controller).

use crate::engine::BatchEngine;
use crate::error::ServeError;
use bnn_models::{AdaptiveStats, ExitPolicy};
use bnn_tensor::rng::{Rng, Xoshiro256StarStar};
use bnn_tensor::Tensor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What an injected fault does to the batch it fires on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic before executing the batch (a simulated worker crash).
    Panic,
    /// Fail the batch with [`ServeError::Engine`] carrying this message.
    Error(String),
    /// Sleep this long, then execute the batch normally (a slow replica).
    Delay(Duration),
}

/// One scheduled fault: fires when replica `replica` executes its
/// `batch`-th batch (0-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Fork-order replica id the fault targets.
    pub replica: usize,
    /// 0-based batch ordinal, counted per replica.
    pub batch: u64,
    /// What happens.
    pub action: FaultAction,
}

/// A deterministic fault schedule. When several entries address the same
/// `(replica, batch)`, the earliest entry wins.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty schedule (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules a panic on replica `replica`'s `batch`-th batch.
    pub fn panic_on(mut self, replica: usize, batch: u64) -> Self {
        self.faults.push(FaultSpec {
            replica,
            batch,
            action: FaultAction::Panic,
        });
        self
    }

    /// Schedules a typed engine error on replica `replica`'s `batch`-th
    /// batch.
    pub fn error_on(mut self, replica: usize, batch: u64, msg: impl Into<String>) -> Self {
        self.faults.push(FaultSpec {
            replica,
            batch,
            action: FaultAction::Error(msg.into()),
        });
        self
    }

    /// Schedules an execution delay on replica `replica`'s `batch`-th
    /// batch.
    pub fn delay_on(mut self, replica: usize, batch: u64, delay: Duration) -> Self {
        self.faults.push(FaultSpec {
            replica,
            batch,
            action: FaultAction::Delay(delay),
        });
        self
    }

    /// A seeded random schedule over `replicas` replicas and the first
    /// `horizon` batches of each: `panics` panic faults, `errors` engine
    /// errors and `delays` sleeps of `delay` — the fleet-scale chaos recipe,
    /// reproducible from `seed`.
    pub fn random(
        seed: u64,
        replicas: usize,
        horizon: u64,
        panics: usize,
        errors: usize,
        delays: usize,
        delay: Duration,
    ) -> Self {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        let draw = |rng: &mut Xoshiro256StarStar| {
            let replica = (rng.next_u64() % replicas.max(1) as u64) as usize;
            let batch = rng.next_u64() % horizon.max(1);
            (replica, batch)
        };
        for _ in 0..panics {
            let (r, b) = draw(&mut rng);
            plan = plan.panic_on(r, b);
        }
        for i in 0..errors {
            let (r, b) = draw(&mut rng);
            plan = plan.error_on(r, b, format!("seeded fault #{i}"));
        }
        for _ in 0..delays {
            let (r, b) = draw(&mut rng);
            plan = plan.delay_on(r, b, delay);
        }
        plan
    }

    /// The scheduled faults, in insertion order.
    pub fn faults(&self) -> &[FaultSpec] {
        &self.faults
    }

    /// The action scheduled for `(replica, batch)`, if any (earliest entry
    /// wins).
    pub fn action(&self, replica: usize, batch: u64) -> Option<&FaultAction> {
        self.faults
            .iter()
            .find(|f| f.replica == replica && f.batch == batch)
            .map(|f| &f.action)
    }
}

/// A [`BatchEngine`] wrapper that injects the faults a [`FaultPlan`]
/// schedules for its replica. The wrapped prototype (built with
/// [`FaultyEngine::new`]) has **no** replica id and never faults; every
/// [`BatchEngine::fork`] — which is exactly what the server does once per
/// worker and once per respawn — receives the next fork-order id.
pub struct FaultyEngine {
    inner: Box<dyn BatchEngine>,
    plan: Arc<FaultPlan>,
    replica: Option<usize>,
    batches: u64,
    next_replica: Arc<AtomicUsize>,
}

impl FaultyEngine {
    /// Wraps `inner` as the no-fault prototype of a replica family sharing
    /// `plan`.
    pub fn new(inner: Box<dyn BatchEngine>, plan: FaultPlan) -> Self {
        FaultyEngine {
            inner,
            plan: Arc::new(plan),
            replica: None,
            batches: 0,
            next_replica: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// This engine's fork-order replica id (`None` for the prototype).
    pub fn replica(&self) -> Option<usize> {
        self.replica
    }

    /// Consults the plan for this batch; panics, fails or sleeps as
    /// scheduled.
    fn before_batch(&mut self) -> Result<(), ServeError> {
        let batch = self.batches;
        self.batches += 1;
        let Some(replica) = self.replica else {
            return Ok(());
        };
        match self.plan.action(replica, batch) {
            Some(FaultAction::Panic) => {
                panic!("injected fault: panic on replica {replica} batch {batch}")
            }
            Some(FaultAction::Error(msg)) => Err(ServeError::Engine(format!(
                "injected fault on replica {replica} batch {batch}: {msg}"
            ))),
            Some(FaultAction::Delay(d)) => {
                std::thread::sleep(*d);
                Ok(())
            }
            None => Ok(()),
        }
    }
}

impl BatchEngine for FaultyEngine {
    fn in_dims(&self) -> &[usize] {
        self.inner.in_dims()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn num_exits(&self) -> usize {
        self.inner.num_exits()
    }

    fn ensure_batch(&mut self, max_batch: usize) {
        self.inner.ensure_batch(max_batch);
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
        self.before_batch()?;
        self.inner
            .predict_adaptive_batch_into(inputs, n_samples, seed, policy, out, exit_taken)
    }

    fn fork(&self) -> Box<dyn BatchEngine> {
        Box::new(FaultyEngine {
            inner: self.inner.fork(),
            plan: Arc::clone(&self.plan),
            replica: Some(self.next_replica.fetch_add(1, Ordering::SeqCst)),
            batches: 0,
            next_replica: Arc::clone(&self.next_replica),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_lookup_is_first_match() {
        let plan = FaultPlan::new()
            .panic_on(0, 2)
            .error_on(0, 2, "shadowed")
            .error_on(1, 0, "e")
            .delay_on(2, 5, Duration::from_millis(1));
        assert_eq!(plan.action(0, 2), Some(&FaultAction::Panic));
        assert_eq!(plan.action(1, 0), Some(&FaultAction::Error("e".into())));
        assert_eq!(
            plan.action(2, 5),
            Some(&FaultAction::Delay(Duration::from_millis(1)))
        );
        assert_eq!(plan.action(0, 0), None);
        assert_eq!(plan.faults().len(), 4);
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let a = FaultPlan::random(9, 4, 32, 2, 2, 2, Duration::from_millis(3));
        let b = FaultPlan::random(9, 4, 32, 2, 2, 2, Duration::from_millis(3));
        let c = FaultPlan::random(10, 4, 32, 2, 2, 2, Duration::from_millis(3));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.faults().len(), 6);
        for f in a.faults() {
            assert!(f.replica < 4 && f.batch < 32);
        }
    }
}
