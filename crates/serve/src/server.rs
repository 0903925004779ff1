//! The dynamic-batching inference server: queue → batcher → worker pool,
//! supervised for fault tolerance.
//!
//! ```text
//! submit() ──► bounded request queue (Mutex<VecDeque> + Condvar)
//!     │             │   full queue rejects with Overloaded;
//!     │             │   a batch fires on size OR deadline, and expired
//!     │             │   requests are evicted with DeadlineExceeded
//!     │             ▼
//!     │      worker 0 .. worker N-1      (std threads, catch_unwind)
//!     │      each owns: a forked engine replica,
//!     │                 an arena pre-sized for max_batch,
//!     │                 a reusable staging buffer
//!     │             │           │ panic
//!     │             │           ▼
//!     │             │      supervisor: fails the batch (WorkerCrashed),
//!     │             │      respawns a fresh fork while budget lasts
//!     │             ▼
//!     └──► ResponseHandle::wait()        (per-request rendezvous;
//!                                         wait_timeout for impatient
//!                                         callers)
//! ```
//!
//! Batching never changes a response: engines are batch-boundary invariant
//! (see [`crate::BatchEngine`]), and every request is evaluated under the
//! `(mc_samples, seed, policy)` of its **quality tier** — tier 0 (the
//! configured quality) unless a [`DegradeConfig`] controller has stepped the
//! server down under queue pressure. Within a tier the response to a sample
//! is a pure function of the sample, no matter which worker served it, how
//! requests were grouped, or what `BNN_THREADS` is; every [`Reply`] records
//! its tier so degraded responses stay auditable.

use crate::degrade::{DegradeConfig, DegradeCtl};
use crate::engine::BatchEngine;
use crate::error::ServeError;
use crate::sync::{lock_ok, panic_message, wait_ok, wait_timeout_ok};
use bnn_models::{ExitPolicy, SampleSchedule};
use bnn_tensor::Tensor;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration: worker count, batching policy, MC sampling
/// parameters, and the fault-tolerance knobs (queue bound, deadlines,
/// respawn budget, degradation ladder).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of worker threads, each owning an engine replica.
    pub workers: usize,
    /// A batch fires as soon as this many requests are queued.
    pub max_batch: usize,
    /// A batch fires once the oldest queued request has waited this long,
    /// even if smaller than `max_batch`. `Duration::ZERO` serves whatever is
    /// queued immediately (the latency-biased extreme).
    pub max_delay: Duration,
    /// Monte-Carlo samples per prediction, at least 1 (see
    /// `QuantPlan::predict_probs_into` for the pass/exit semantics).
    pub mc_samples: usize,
    /// Master seed for the MC mask streams. Together with `mc_samples` this
    /// fixes every response bit.
    pub seed: u64,
    /// Early-exit policy every request is served under.
    /// [`ExitPolicy::Never`] (the preset default) is the fixed-depth
    /// server: every request runs to the last exit. Any other policy lets
    /// confident samples retire at shallow exits and the surviving
    /// stragglers are compacted into a dense smaller batch for the deeper
    /// blocks. Responses stay a pure function of the sample either way —
    /// the policy decision is row-local, so batching still never changes a
    /// bit.
    pub policy: ExitPolicy,
    /// Bound on the number of queued requests. `submit` rejects with
    /// [`ServeError::Overloaded`] once the queue holds this many — typed
    /// backpressure at the submit boundary. `None` keeps the queue
    /// unbounded (the pre-fault-tolerance behaviour).
    pub queue_limit: Option<usize>,
    /// Default per-request deadline, measured from submission. A request
    /// still queued when its deadline expires is evicted at the next batch
    /// assembly with [`ServeError::DeadlineExceeded`] instead of being
    /// executed. `None` = no deadline. Override per request with
    /// [`InferenceServer::submit_with_deadline`].
    pub deadline: Option<Duration>,
    /// How many crashed workers the supervisor may respawn (pool-wide, over
    /// the server's lifetime) before it gives up. When the budget is
    /// exhausted and the last worker has crashed, all queued requests fail
    /// with [`ServeError::WorkerCrashed`] and further submissions are
    /// rejected.
    pub max_respawns: usize,
    /// Optional graceful-degradation controller: under sustained queue
    /// pressure the server steps down this quality ladder (fewer MC
    /// samples, then a more aggressive exit policy) instead of shedding
    /// requests, and steps back up when pressure clears.
    pub degrade: Option<DegradeConfig>,
}

impl Default for ServerConfig {
    /// One worker, batches of up to 8 or 1 ms, single-sample MC, fixed
    /// depth, and every fault-tolerance knob at its permissive default
    /// (unbounded queue, no deadline, 8 respawns, no degradation).
    fn default() -> Self {
        ServerConfig {
            workers: 1,
            max_batch: 8,
            max_delay: Duration::from_millis(1),
            mc_samples: 1,
            seed: 0,
            policy: ExitPolicy::Never,
            queue_limit: None,
            deadline: None,
            max_respawns: 8,
            degrade: None,
        }
    }
}

impl ServerConfig {
    /// A latency-biased starting point: small batches, short deadline.
    pub fn latency_biased(workers: usize, mc_samples: usize, seed: u64) -> Self {
        ServerConfig {
            workers,
            max_batch: 4,
            max_delay: Duration::from_micros(200),
            mc_samples,
            seed,
            ..ServerConfig::default()
        }
    }

    /// A throughput-biased starting point: large batches, long deadline.
    pub fn throughput_biased(workers: usize, mc_samples: usize, seed: u64) -> Self {
        ServerConfig {
            workers,
            max_batch: 32,
            max_delay: Duration::from_millis(2),
            mc_samples,
            seed,
            ..ServerConfig::default()
        }
    }

    /// Replaces the early-exit policy (builder-style).
    pub fn with_policy(mut self, policy: ExitPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Bounds the queue (builder-style): `submit` sheds with
    /// [`ServeError::Overloaded`] beyond `limit` queued requests.
    pub fn with_queue_limit(mut self, limit: usize) -> Self {
        self.queue_limit = Some(limit);
        self
    }

    /// Sets the default per-request deadline (builder-style).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Installs a graceful-degradation ladder (builder-style).
    pub fn with_degrade(mut self, degrade: DegradeConfig) -> Self {
        self.degrade = Some(degrade);
        self
    }
}

/// Counters the worker pool accumulates while serving.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests served successfully (`Ok` replies delivered).
    pub completed: u64,
    /// Requests that received an error reply (engine failure or worker
    /// crash) after being accepted into a batch.
    pub failed: u64,
    /// Requests shed at the submit boundary by the bounded queue
    /// ([`ServeError::Overloaded`]); never enqueued.
    pub rejected: u64,
    /// Requests evicted at batch assembly because their deadline expired
    /// ([`ServeError::DeadlineExceeded`]).
    pub deadline_missed: u64,
    /// Worker panics caught by the supervision layer (each fails one
    /// batch).
    pub crashes: u64,
    /// Crashed workers respawned from a fresh engine fork.
    pub respawns: u64,
    /// Batches executed (successful or failed; evictions are not batches).
    pub batches: u64,
    /// Largest batch any worker assembled.
    pub max_batch_seen: usize,
    /// Requests that retired at each exit (`exit_counts[e]` = requests
    /// answered from exit `e`). Under [`ExitPolicy::Never`] every request
    /// lands on the last exit.
    pub exit_counts: Vec<u64>,
    /// Static integer-op estimate actually spent across all served requests.
    pub ops_executed: u64,
    /// Static integer-op estimate the same requests would have cost at
    /// fixed (full) depth of their tier.
    pub ops_fixed: u64,
    /// The quality tier currently active (0 = configured full quality; only
    /// ever non-zero with a [`DegradeConfig`] installed).
    pub quality_tier: usize,
    /// `Ok` replies served per quality tier (`tier_counts[0]` = full
    /// quality). Empty when no degrade ladder is configured.
    pub tier_counts: Vec<u64>,
    /// Ladder step-downs the degradation controller performed.
    pub degrade_steps_down: u64,
    /// Ladder step-ups (recoveries) the controller performed.
    pub degrade_steps_up: u64,
}

impl ServeStats {
    /// Mean requests per executed batch — the batch occupancy the batching
    /// policy actually achieved under the offered load (failed deliveries
    /// still occupied their batch).
    pub fn mean_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            (self.completed + self.failed) as f64 / self.batches as f64
        }
    }

    /// Fraction of requests that retired at each exit (empty before any
    /// batch completed).
    pub fn exit_fractions(&self) -> Vec<f64> {
        let total: u64 = self.exit_counts.iter().sum();
        if total == 0 {
            return vec![0.0; self.exit_counts.len()];
        }
        self.exit_counts
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }

    /// Fraction of the fixed-depth op budget the adaptive policy avoided
    /// (`0.0` for a fixed-depth server or before any batch completed).
    pub fn ops_saved_fraction(&self) -> f64 {
        if self.ops_fixed == 0 {
            0.0
        } else {
            1.0 - self.ops_executed as f64 / self.ops_fixed as f64
        }
    }

    /// Fraction of `Ok` replies served below full quality (`0.0` without a
    /// degrade ladder or before any reply).
    pub fn degraded_fraction(&self) -> f64 {
        let total: u64 = self.tier_counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let degraded: u64 = self.tier_counts.iter().skip(1).sum();
        degraded as f64 / total as f64
    }
}

/// One served request's response: the class probabilities plus the
/// early-exit and quality metadata the reply rode out with.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reply {
    /// Class-probability vector (`num_classes` floats summing to one).
    pub probs: Vec<f32>,
    /// Exit head this request's sample retired at (always the last exit
    /// under [`ExitPolicy::Never`]).
    pub exit_taken: usize,
    /// MC samples in the ensemble behind `probs` — how much Monte-Carlo
    /// evidence this answer carries (shallow retirements carry less).
    pub mc_samples: usize,
    /// Quality tier this reply was served at: 0 = the configured
    /// `(mc_samples, policy)`, `t > 0` = ladder step `t` of the
    /// [`DegradeConfig`] (the reply is bit-exact with a direct plan call at
    /// that step's quality).
    pub quality_tier: usize,
}

/// A delivered response: the result plus the instant its worker delivered it.
type Delivery = (Result<Reply, ServeError>, Instant);

/// One request's reply cell: the first delivery wins (so crash cleanup can
/// blanket-fail a batch without clobbering already-delivered replies), the
/// handle waits and takes.
struct ReplyCell {
    slot: Mutex<Option<Delivery>>,
    cv: Condvar,
}

impl ReplyCell {
    fn new() -> Self {
        ReplyCell {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn deliver(&self, result: Result<Reply, ServeError>) {
        let mut slot = lock_ok(&self.slot);
        if slot.is_none() {
            *slot = Some((result, Instant::now()));
            self.cv.notify_all();
        }
    }
}

/// The caller's side of one submitted request: block on
/// [`ResponseHandle::wait`] for the [`Reply`] (probabilities plus exit and
/// quality metadata), or [`ResponseHandle::wait_timeout`] to give up after
/// a bound.
pub struct ResponseHandle {
    cell: Arc<ReplyCell>,
}

impl ResponseHandle {
    /// Blocks until the request was served and returns its result.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Engine`] if the batch this request rode in
    /// failed to execute, [`ServeError::WorkerCrashed`] if its worker
    /// panicked (or the whole pool crashed out before it was assigned), and
    /// [`ServeError::DeadlineExceeded`] if it was evicted past its
    /// deadline.
    pub fn wait(self) -> Result<Reply, ServeError> {
        self.wait_at().0
    }

    /// [`ResponseHandle::wait`], also returning the instant the response was
    /// delivered by its worker (not the instant this call observed it) — the
    /// correct end timestamp for latency measurement even when the waiter
    /// runs behind the server.
    pub fn wait_at(self) -> (Result<Reply, ServeError>, Instant) {
        let mut slot = lock_ok(&self.cell.slot);
        loop {
            if let Some(delivered) = slot.take() {
                return delivered;
            }
            slot = wait_ok(&self.cell.cv, slot);
        }
    }

    /// [`ResponseHandle::wait`] with a bound: gives up with
    /// [`ServeError::WaitTimeout`] if no response was delivered within
    /// `timeout`. The request itself is unaffected — its worker may still
    /// serve it and deliver into the abandoned cell.
    ///
    /// # Errors
    ///
    /// [`ServeError::WaitTimeout`] on expiry; otherwise as
    /// [`ResponseHandle::wait`].
    pub fn wait_timeout(self, timeout: Duration) -> Result<Reply, ServeError> {
        self.wait_timeout_at(timeout).0
    }

    /// [`ResponseHandle::wait_timeout`] with the delivery instant, as
    /// [`ResponseHandle::wait_at`] (the instant of a
    /// [`ServeError::WaitTimeout`] is the expiry observation).
    pub fn wait_timeout_at(self, timeout: Duration) -> (Result<Reply, ServeError>, Instant) {
        let deadline = Instant::now() + timeout;
        let mut slot = lock_ok(&self.cell.slot);
        loop {
            if let Some(delivered) = slot.take() {
                return delivered;
            }
            let now = Instant::now();
            if now >= deadline {
                return (Err(ServeError::WaitTimeout), now);
            }
            let (guard, _) = wait_timeout_ok(&self.cell.cv, slot, deadline - now);
            slot = guard;
        }
    }
}

/// One queued request.
struct Job {
    input: Vec<f32>,
    reply: Arc<ReplyCell>,
    enqueued: Instant,
    deadline: Option<Instant>,
}

/// Queue state behind the mutex.
struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
    /// The worker pool crashed out entirely (respawn budget exhausted):
    /// submissions are rejected and nothing will drain the queue.
    dead: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    cv: Condvar,
    stats: Mutex<ServeStats>,
    degrade: Option<DegradeCtl>,
}

/// A worker's terminal report to the supervisor. Every spawned worker sends
/// exactly one.
enum WorkerEvent {
    /// Clean exit (shutdown drain finished).
    Exited,
    /// The worker caught a panic, failed its batch and tore itself down;
    /// `slot` identifies which pool position needs a replacement.
    Crashed { slot: usize },
}

/// The dynamic-batching server. Build with [`InferenceServer::start`],
/// submit single samples with [`InferenceServer::submit`] (or
/// [`InferenceServer::submit_with_deadline`]), stop with
/// [`InferenceServer::shutdown`].
pub struct InferenceServer {
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
    per_elems: usize,
    classes: usize,
    config: ServerConfig,
}

impl InferenceServer {
    /// Spawns the worker pool, forking one engine replica per worker; each
    /// replica's arena is pre-sized for `config.max_batch` before it serves
    /// its first request. A supervisor thread watches the pool and respawns
    /// crashed workers from fresh forks of `engine` while
    /// `config.max_respawns` lasts.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for zero workers, a zero batch
    /// size, zero MC samples, a zero queue limit or an invalid degrade
    /// ladder, and
    /// [`ServeError::InvalidRequest`] for an adaptive policy whose
    /// threshold is non-finite or outside `[0, 1]` (rejected up front,
    /// before it can fail every batch).
    pub fn start(engine: Box<dyn BatchEngine>, config: ServerConfig) -> Result<Self, ServeError> {
        if config.workers == 0 {
            return Err(ServeError::InvalidConfig("workers must be >= 1".into()));
        }
        if config.max_batch == 0 {
            return Err(ServeError::InvalidConfig("max_batch must be >= 1".into()));
        }
        if config.mc_samples == 0 {
            return Err(ServeError::InvalidConfig("mc_samples must be >= 1".into()));
        }
        if config.queue_limit == Some(0) {
            return Err(ServeError::InvalidConfig(
                "queue_limit must be >= 1 (or None for unbounded)".into(),
            ));
        }
        config
            .policy
            .validate()
            .map_err(ServeError::InvalidRequest)?;
        if let Some(degrade) = &config.degrade {
            degrade.validate().map_err(ServeError::InvalidConfig)?;
        }
        let per_elems: usize = engine.in_dims().iter().product();
        let classes = engine.num_classes();
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
                dead: false,
            }),
            cv: Condvar::new(),
            stats: Mutex::new(ServeStats::default()),
            degrade: config.degrade.clone().map(DegradeCtl::new),
        });
        let (events_tx, events_rx) = std::sync::mpsc::channel();
        let mut workers = Vec::with_capacity(config.workers);
        for slot in 0..config.workers {
            let handle = spawn_worker(
                engine.fork(),
                Arc::clone(&shared),
                config.clone(),
                slot,
                0,
                events_tx.clone(),
            )
            .map_err(|e| ServeError::InvalidConfig(format!("spawn failed: {e}")))?;
            workers.push(Some(handle));
        }
        let supervisor = {
            let shared = Arc::clone(&shared);
            let config = config.clone();
            std::thread::Builder::new()
                .name("bnn-serve-supervisor".into())
                .spawn(move || {
                    supervisor_loop(engine, shared, config, workers, events_rx, events_tx)
                })
                .map_err(|e| ServeError::InvalidConfig(format!("spawn failed: {e}")))?
        };
        Ok(InferenceServer {
            shared,
            supervisor: Some(supervisor),
            per_elems,
            classes,
            config,
        })
    }

    /// Per-sample element count a request must carry.
    pub fn sample_elems(&self) -> usize {
        self.per_elems
    }

    /// Number of classes in every response.
    pub fn num_classes(&self) -> usize {
        self.classes
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Enqueues one flattened sample (`in_dims().iter().product()` floats)
    /// under the config's default deadline and returns the handle its
    /// response arrives on.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] if `sample` has the wrong
    /// element count or holds a NaN/infinite value (the queue refuses
    /// malformed requests up front, before they can poison a batch),
    /// [`ServeError::Overloaded`] if the bounded queue is full,
    /// [`ServeError::ShuttingDown`] after
    /// [`InferenceServer::shutdown`] began, and
    /// [`ServeError::WorkerCrashed`] once the whole pool has crashed out.
    pub fn submit(&self, sample: &[f32]) -> Result<ResponseHandle, ServeError> {
        self.submit_inner(sample, self.config.deadline)
    }

    /// [`InferenceServer::submit`] with an explicit per-request deadline
    /// override: `Some(d)` replaces the config default for this request,
    /// `None` disables the deadline for this request entirely.
    ///
    /// # Errors
    ///
    /// As [`InferenceServer::submit`].
    pub fn submit_with_deadline(
        &self,
        sample: &[f32],
        deadline: Option<Duration>,
    ) -> Result<ResponseHandle, ServeError> {
        self.submit_inner(sample, deadline)
    }

    fn submit_inner(
        &self,
        sample: &[f32],
        deadline: Option<Duration>,
    ) -> Result<ResponseHandle, ServeError> {
        if sample.len() != self.per_elems {
            return Err(ServeError::InvalidRequest(format!(
                "sample has {} elements, engine expects {}",
                sample.len(),
                self.per_elems
            )));
        }
        if let Some(i) = sample.iter().position(|v| !v.is_finite()) {
            return Err(ServeError::InvalidRequest(format!(
                "sample element {i} is {}",
                sample[i]
            )));
        }
        let cell = Arc::new(ReplyCell::new());
        {
            let mut q = lock_ok(&self.shared.queue);
            if q.dead {
                return Err(ServeError::WorkerCrashed(
                    "worker pool crashed out (respawn budget exhausted)".into(),
                ));
            }
            if q.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            if let Some(limit) = self.config.queue_limit {
                if q.jobs.len() >= limit {
                    drop(q);
                    lock_ok(&self.shared.stats).rejected += 1;
                    return Err(ServeError::Overloaded);
                }
            }
            let now = Instant::now();
            q.jobs.push_back(Job {
                input: sample.to_vec(),
                reply: Arc::clone(&cell),
                enqueued: now,
                deadline: deadline.map(|d| now + d),
            });
        }
        self.shared.cv.notify_one();
        Ok(ResponseHandle { cell })
    }

    /// A snapshot of the serving counters so far.
    pub fn stats(&self) -> ServeStats {
        let mut stats = lock_ok(&self.shared.stats).clone();
        if let Some(ctl) = &self.shared.degrade {
            stats.quality_tier = ctl.tier();
            let (down, up) = ctl.steps();
            stats.degrade_steps_down = down;
            stats.degrade_steps_up = up;
            if stats.tier_counts.len() < ctl.tiers() {
                stats.tier_counts.resize(ctl.tiers(), 0);
            }
        }
        stats
    }

    /// Stops accepting requests, waits for the workers to drain and serve
    /// everything already queued, joins them, and returns the final
    /// counters.
    ///
    /// Drain guarantee: every request accepted before shutdown still
    /// receives exactly one reply — served normally, with
    /// [`ServeError::DeadlineExceeded`] if its deadline had already
    /// expired, or with [`ServeError::WorkerCrashed`] in the degenerate
    /// case where the whole pool crashed out mid-drain. Only requests
    /// submitted *after* shutdown began see [`ServeError::ShuttingDown`].
    pub fn shutdown(mut self) -> ServeStats {
        self.shutdown_inner();
        self.stats()
    }

    fn shutdown_inner(&mut self) {
        {
            let mut q = lock_ok(&self.shared.queue);
            q.shutdown = true;
        }
        self.shared.cv.notify_all();
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        // Belt and braces for the drain guarantee: if the pool died before
        // draining (crashes over budget), fail whatever is still queued so
        // no handle ever hangs.
        let leftovers: Vec<Job> = {
            let mut q = lock_ok(&self.shared.queue);
            q.jobs.drain(..).collect()
        };
        if !leftovers.is_empty() {
            lock_ok(&self.shared.stats).failed += leftovers.len() as u64;
            for job in leftovers {
                job.reply.deliver(Err(ServeError::WorkerCrashed(
                    "server stopped with the worker pool crashed".into(),
                )));
            }
        }
    }
}

impl Drop for InferenceServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Spawns one worker thread at pool position `slot` (`generation` counts
/// respawns at that slot, for the thread name). The worker reports its
/// terminal state through `events`.
fn spawn_worker(
    engine: Box<dyn BatchEngine>,
    shared: Arc<Shared>,
    config: ServerConfig,
    slot: usize,
    generation: usize,
    events: Sender<WorkerEvent>,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("bnn-serve-{slot}.{generation}"))
        .spawn(move || {
            let event = worker_loop(engine, &shared, &config, slot);
            let _ = events.send(event);
        })
}

/// Supervises the pool: joins crashed workers, respawns them from fresh
/// forks of `prototype` while the budget lasts, and — when the last worker
/// is gone without a replacement — marks the queue dead and fails every
/// pending request so no handle hangs. Exits once no workers remain.
fn supervisor_loop(
    prototype: Box<dyn BatchEngine>,
    shared: Arc<Shared>,
    config: ServerConfig,
    mut workers: Vec<Option<JoinHandle<()>>>,
    events: Receiver<WorkerEvent>,
    events_tx: Sender<WorkerEvent>,
) {
    let mut live = workers.len();
    let mut respawns_left = config.max_respawns;
    let mut generation = 0usize;
    while live > 0 {
        let Ok(event) = events.recv() else { break };
        match event {
            WorkerEvent::Exited => live -= 1,
            WorkerEvent::Crashed { slot } => {
                if let Some(handle) = workers[slot].take() {
                    let _ = handle.join();
                }
                generation += 1;
                let respawned = respawns_left > 0
                    && spawn_worker(
                        prototype.fork(),
                        Arc::clone(&shared),
                        config.clone(),
                        slot,
                        generation,
                        events_tx.clone(),
                    )
                    .map(|handle| {
                        workers[slot] = Some(handle);
                    })
                    .is_ok();
                if respawned {
                    respawns_left -= 1;
                    lock_ok(&shared.stats).respawns += 1;
                } else {
                    live -= 1;
                    if live == 0 {
                        fail_pending(&shared);
                    }
                }
            }
        }
    }
    for handle in workers.into_iter().flatten() {
        let _ = handle.join();
    }
}

/// The whole pool crashed out: reject future submissions and fail every
/// queued request, so no accepted handle waits forever.
fn fail_pending(shared: &Shared) {
    let pending: Vec<Job> = {
        let mut q = lock_ok(&shared.queue);
        q.dead = true;
        q.jobs.drain(..).collect()
    };
    if !pending.is_empty() {
        lock_ok(&shared.stats).failed += pending.len() as u64;
    }
    for job in pending {
        job.reply.deliver(Err(ServeError::WorkerCrashed(
            "worker pool crashed out before this request was served".into(),
        )));
    }
}

/// Reusable per-worker buffers. Kept outside the per-batch closure so the
/// crash handler can sweep undelivered jobs after an unwind.
struct WorkerCtx {
    dims: Vec<usize>,
    staging: Vec<f32>,
    probs: Vec<f32>,
    exit_taken: Vec<usize>,
    exit_tally: Vec<u64>,
    batch_jobs: Vec<Job>,
    expired: Vec<Job>,
}

/// What one serve iteration decided.
enum Flow {
    Continue,
    Shutdown,
}

/// One worker: assemble a batch (size or deadline, whichever first; evict
/// expired requests), run the engine at the active quality tier, deliver
/// per-request responses. Each iteration runs under `catch_unwind`: a panic
/// fails the in-flight batch with [`ServeError::WorkerCrashed`] and retires
/// this worker (the supervisor respawns a replacement from a fresh fork —
/// the panicked engine's arena state is not trusted).
fn worker_loop(
    mut engine: Box<dyn BatchEngine>,
    shared: &Shared,
    config: &ServerConfig,
    slot: usize,
) -> WorkerEvent {
    engine.ensure_batch(config.max_batch);
    let mut ctx = WorkerCtx {
        dims: {
            let mut dims = Vec::with_capacity(engine.in_dims().len() + 1);
            dims.push(0usize);
            dims.extend_from_slice(engine.in_dims());
            dims
        },
        staging: Vec::with_capacity(engine.in_dims().iter().product::<usize>() * config.max_batch),
        probs: Vec::new(),
        exit_taken: Vec::new(),
        exit_tally: vec![0; engine.num_exits()],
        batch_jobs: Vec::with_capacity(config.max_batch),
        expired: Vec::new(),
    };
    loop {
        let step = catch_unwind(AssertUnwindSafe(|| {
            serve_one_batch(&mut engine, &mut ctx, shared, config)
        }));
        match step {
            Ok(Flow::Continue) => {}
            Ok(Flow::Shutdown) => return WorkerEvent::Exited,
            Err(payload) => {
                let msg = panic_message(&*payload);
                // First-write-wins delivery makes this sweep safe even if
                // the panic interrupted the delivery loop midway: jobs that
                // already got their reply ignore the crash notice.
                let swept = (ctx.batch_jobs.len() + ctx.expired.len()) as u64;
                for job in ctx.batch_jobs.drain(..).chain(ctx.expired.drain(..)) {
                    job.reply
                        .deliver(Err(ServeError::WorkerCrashed(msg.clone())));
                }
                {
                    let mut stats = lock_ok(&shared.stats);
                    stats.crashes += 1;
                    stats.failed += swept;
                }
                return WorkerEvent::Crashed { slot };
            }
        }
    }
}

/// Removes every queue entry whose deadline has passed into `expired`
/// (delivered by the caller outside the lock).
fn evict_expired(q: &mut QueueState, now: Instant, expired: &mut Vec<Job>) {
    // Per-submit overrides mean deadlines are not monotone along the queue,
    // so scan the whole thing rather than just the front.
    let mut i = 0;
    while i < q.jobs.len() {
        if q.jobs[i].deadline.is_some_and(|d| now >= d) {
            if let Some(job) = q.jobs.remove(i) {
                expired.push(job);
            }
        } else {
            i += 1;
        }
    }
}

/// One batch-serving iteration: wait/assemble (with deadline eviction),
/// execute at the degradation controller's tier, deliver, account.
fn serve_one_batch(
    engine: &mut Box<dyn BatchEngine>,
    ctx: &mut WorkerCtx,
    shared: &Shared,
    config: &ServerConfig,
) -> Flow {
    let per_elems: usize = engine.in_dims().iter().product();
    let classes = engine.num_classes();
    let n_exits = engine.num_exits();
    let mut drained_shutdown = false;
    let mut queue_depth = 0usize;
    {
        let mut q = lock_ok(&shared.queue);
        loop {
            let now = Instant::now();
            evict_expired(&mut q, now, &mut ctx.expired);
            if !ctx.expired.is_empty() {
                // Deliver evictions promptly instead of sleeping on them;
                // the next iteration resumes normal assembly.
                break;
            }
            if q.jobs.len() >= config.max_batch || q.shutdown {
                break;
            }
            match q.jobs.front() {
                Some(front) => {
                    // Deadline batching: serve the partial batch once the
                    // oldest request has waited max_delay.
                    let fire_at = front.enqueued + config.max_delay;
                    if now >= fire_at {
                        break;
                    }
                    let (guard, _) = wait_timeout_ok(&shared.cv, q, fire_at - now);
                    q = guard;
                }
                None => {
                    q = wait_ok(&shared.cv, q);
                }
            }
        }
        if q.jobs.is_empty() {
            drained_shutdown = q.shutdown;
        } else {
            queue_depth = q.jobs.len();
            let n = q.jobs.len().min(config.max_batch);
            ctx.batch_jobs.extend(q.jobs.drain(..n));
            if !q.jobs.is_empty() {
                // More work is queued than this batch takes: hand it to a
                // sibling instead of letting it wait out the full deadline.
                shared.cv.notify_one();
            }
        }
    }

    if !ctx.expired.is_empty() {
        let missed = ctx.expired.len() as u64;
        for job in ctx.expired.drain(..) {
            job.reply.deliver(Err(ServeError::DeadlineExceeded));
        }
        lock_ok(&shared.stats).deadline_missed += missed;
    }
    if ctx.batch_jobs.is_empty() {
        return if drained_shutdown {
            Flow::Shutdown
        } else {
            Flow::Continue
        };
    }

    // The degradation controller observes pre-drain queue depth at every
    // assembly and answers the tier this batch serves at.
    let tier = shared
        .degrade
        .as_ref()
        .map_or(0, |ctl| ctl.observe(queue_depth));
    let (eff_mc, eff_policy) = match &shared.degrade {
        Some(ctl) => ctl.quality(tier, config.mc_samples, &config.policy),
        None => (config.mc_samples, config.policy),
    };

    let batch = ctx.batch_jobs.len();
    ctx.staging.clear();
    for job in &ctx.batch_jobs {
        ctx.staging.extend_from_slice(&job.input);
    }
    ctx.dims[0] = batch;
    debug_assert_eq!(ctx.staging.len(), batch * per_elems);
    let outcome = match Tensor::from_vec(std::mem::take(&mut ctx.staging), &ctx.dims) {
        Ok(tensor) => {
            // One engine call for every policy: under `Never` the walker
            // runs the fixed loop and reports every row at the last exit.
            let run = engine.predict_adaptive_batch_into(
                &tensor,
                eff_mc,
                config.seed,
                &eff_policy,
                &mut ctx.probs,
                &mut ctx.exit_taken,
            );
            ctx.staging = tensor.into_vec();
            run
        }
        Err(e) => Err(ServeError::from(e)),
    };
    let mut batch_ops = (0u64, 0u64);
    let mut delivered_ok = 0u64;
    match outcome {
        Ok(adaptive) => {
            batch_ops = (adaptive.ops_executed, adaptive.ops_fixed);
            let schedule = SampleSchedule::new(eff_mc, n_exits);
            // Indexed delivery (not drain) keeps the job list intact until
            // every reply is out: if delivery panics midway, the crash
            // sweep in `worker_loop` still reaches the undelivered tail.
            for (i, job) in ctx.batch_jobs.iter().enumerate() {
                let exit = ctx.exit_taken[i];
                ctx.exit_tally[exit] += 1;
                delivered_ok += 1;
                job.reply.deliver(Ok(Reply {
                    probs: ctx.probs[i * classes..(i + 1) * classes].to_vec(),
                    exit_taken: exit,
                    mc_samples: schedule.ensemble(exit),
                    quality_tier: tier,
                }));
            }
            ctx.batch_jobs.clear();
        }
        Err(e) => {
            for job in ctx.batch_jobs.iter() {
                job.reply.deliver(Err(e.clone()));
            }
            ctx.batch_jobs.clear();
        }
    }
    let mut stats = lock_ok(&shared.stats);
    stats.completed += delivered_ok;
    stats.failed += batch as u64 - delivered_ok;
    stats.batches += 1;
    stats.max_batch_seen = stats.max_batch_seen.max(batch);
    if stats.exit_counts.len() < n_exits {
        stats.exit_counts.resize(n_exits, 0);
    }
    for (total, tally) in stats.exit_counts.iter_mut().zip(ctx.exit_tally.iter_mut()) {
        *total += *tally;
        *tally = 0;
    }
    stats.ops_executed += batch_ops.0;
    stats.ops_fixed += batch_ops.1;
    if let Some(ctl) = &shared.degrade {
        if stats.tier_counts.len() < ctl.tiers() {
            stats.tier_counts.resize(ctl.tiers(), 0);
        }
        stats.tier_counts[tier] += delivered_ok;
    }
    Flow::Continue
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_presets_are_ordered() {
        let lat = ServerConfig::latency_biased(2, 8, 1);
        let thr = ServerConfig::throughput_biased(2, 8, 1);
        assert!(lat.max_batch < thr.max_batch);
        assert!(lat.max_delay < thr.max_delay);
        // Presets keep the permissive fault-tolerance defaults.
        assert!(lat.queue_limit.is_none() && lat.deadline.is_none() && lat.degrade.is_none());
        assert!(thr.max_respawns > 0);
    }

    #[test]
    fn config_builders_set_fault_knobs() {
        let cfg = ServerConfig::latency_biased(1, 4, 0)
            .with_queue_limit(64)
            .with_deadline(Duration::from_millis(5))
            .with_degrade(DegradeConfig::new(32, 4).with_step(2, ExitPolicy::Never));
        assert_eq!(cfg.queue_limit, Some(64));
        assert_eq!(cfg.deadline, Some(Duration::from_millis(5)));
        assert_eq!(cfg.degrade.as_ref().map(|d| d.ladder.len()), Some(1));
    }

    #[test]
    fn stats_occupancy_counts_failed_batch_members() {
        let s = ServeStats {
            completed: 10,
            failed: 2,
            batches: 3,
            max_batch_seen: 6,
            ..Default::default()
        };
        assert!((s.mean_occupancy() - 4.0).abs() < 1e-12);
        assert_eq!(ServeStats::default().mean_occupancy(), 0.0);
    }

    #[test]
    fn stats_exit_fractions_and_ops_saved() {
        let s = ServeStats {
            completed: 4,
            batches: 1,
            max_batch_seen: 4,
            exit_counts: vec![3, 1],
            ops_executed: 600,
            ops_fixed: 1000,
            ..Default::default()
        };
        assert_eq!(s.exit_fractions(), vec![0.75, 0.25]);
        assert!((s.ops_saved_fraction() - 0.4).abs() < 1e-12);
        assert_eq!(ServeStats::default().ops_saved_fraction(), 0.0);
        assert!(ServeStats::default().exit_fractions().is_empty());
    }

    #[test]
    fn stats_degraded_fraction() {
        let s = ServeStats {
            tier_counts: vec![6, 3, 1],
            ..Default::default()
        };
        assert!((s.degraded_fraction() - 0.4).abs() < 1e-12);
        assert_eq!(ServeStats::default().degraded_fraction(), 0.0);
    }

    #[test]
    fn ensemble_size_arithmetic() {
        // A reply's `mc_samples` is the walker schedule's ensemble at the
        // exit it retired at; fixed depth always reports the last exit.
        let ensemble = |n, n_exits, exit| SampleSchedule::new(n, n_exits).ensemble(exit);
        // fixed depth: the whole requested ensemble (n_exits deterministic
        // consults when sampling is off)
        assert_eq!(ensemble(8, 2, 1), 8);
        assert_eq!(ensemble(0, 2, 1), 2);
        // adaptive: 8 samples over 2 exits, 4 from each consulted exit
        assert_eq!(ensemble(8, 2, 0), 4);
        assert_eq!(ensemble(0, 3, 1), 2);
        // uneven: 5 samples over 2 exits are 3 + 2, never more than 5
        assert_eq!(ensemble(5, 2, 0), 3);
        assert_eq!(ensemble(5, 2, 1), 5);
    }

    #[test]
    fn preset_policy_is_fixed_depth() {
        assert!(ServerConfig::latency_biased(1, 4, 0).policy.is_never());
        let adaptive = ServerConfig::throughput_biased(1, 4, 0)
            .with_policy(ExitPolicy::Confidence { threshold: 0.5 });
        assert_eq!(adaptive.policy, ExitPolicy::Confidence { threshold: 0.5 });
    }

    #[test]
    fn reply_cell_first_write_wins() {
        let cell = ReplyCell::new();
        cell.deliver(Ok(Reply {
            probs: vec![1.0],
            ..Default::default()
        }));
        cell.deliver(Err(ServeError::WorkerCrashed("late".into())));
        let (delivered, _) = lock_ok(&cell.slot).take().unwrap();
        assert_eq!(delivered.unwrap().probs, vec![1.0]);
    }

    #[test]
    fn wait_timeout_expires_typed() {
        let cell = Arc::new(ReplyCell::new());
        let handle = ResponseHandle {
            cell: Arc::clone(&cell),
        };
        assert_eq!(
            handle.wait_timeout(Duration::from_millis(5)),
            Err(ServeError::WaitTimeout)
        );
        // A late delivery into the abandoned cell is harmless.
        cell.deliver(Ok(Reply::default()));
    }

    #[test]
    fn eviction_is_deadline_selective() {
        let now = Instant::now();
        let job = |deadline: Option<Instant>| Job {
            input: vec![],
            reply: Arc::new(ReplyCell::new()),
            enqueued: now,
            deadline,
        };
        let mut q = QueueState {
            jobs: VecDeque::from([
                job(Some(now - Duration::from_millis(1))), // expired
                job(None),                                 // no deadline
                job(Some(now + Duration::from_secs(60))),  // far future
                job(Some(now - Duration::from_millis(2))), // expired, mid-queue
            ]),
            shutdown: false,
            dead: false,
        };
        let mut expired = Vec::new();
        evict_expired(&mut q, Instant::now(), &mut expired);
        assert_eq!(expired.len(), 2);
        assert_eq!(q.jobs.len(), 2);
    }
}
