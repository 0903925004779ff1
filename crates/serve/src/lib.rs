//! # bnn-serve
//!
//! Dynamic-batching inference serving on compiled plans: the subsystem that
//! turns the repo's allocate-once/run-many inference substrate into a
//! server. Single-sample requests enter a queue, workers assemble batches
//! (fired by **size or deadline**, whichever comes first) and run them on
//! pinned plan replicas with arenas pre-sized for the maximum batch.
//!
//! The load-bearing property is **batch-boundary invariance**: the one
//! engine, [`PlanEngine`] over either compiled plan ([`QuantEngine`],
//! [`FloatEngine`]), runs the plans' shared exit walker with per-sample
//! MC-dropout masks, so a response is bit-exact with a single-sample call
//! at the server's `(mc_samples, seed)` — however the batcher grouped it,
//! whichever worker served it, whatever `BNN_THREADS` is.
//!
//! No network dependencies: the queue is `Mutex<VecDeque>` + `Condvar`, the
//! workers are std threads, and the traffic-replay harness
//! ([`replay::replay`]) drives seeded open-loop load in-process.
//!
//! The server is **fault-tolerant** (see [`server`] and [`fault`]): worker
//! panics are caught at the batch boundary, the failed batch is answered
//! with typed [`ServeError::WorkerCrashed`] replies (no handle ever hangs)
//! and a supervisor respawns the worker from a fresh engine fork; requests
//! carry optional deadlines (expired ones are evicted as
//! [`ServeError::DeadlineExceeded`]); the queue can be bounded
//! ([`ServeError::Overloaded`] backpressure at the submit boundary); and a
//! [`DegradeConfig`] quality ladder sheds *depth* before requests — under
//! sustained queue pressure the server steps down to fewer MC samples and
//! more aggressive early exit, recovering when pressure clears, with every
//! [`Reply`] reporting the `quality_tier` it was served at. The seeded
//! [`FaultyEngine`]/[`FaultPlan`] wrapper injects panics, engine errors and
//! latency deterministically, and [`replay::replay_under_faults`] drives
//! chaos schedules that record per-request outcomes instead of aborting.
//!
//! Servers can run **adaptively**: configure an [`ExitPolicy`]
//! (`ServerConfig::with_policy`) and each batch runs the engines' early-exit
//! compacting path — confident samples retire at shallow exits, stragglers
//! are served to full depth — with every [`Reply`] reporting the exit taken
//! and the MC evidence behind it, and [`ServeStats`] tracking the depth mix
//! and integer-ops saved.
//!
//! # Example
//!
//! ```
//! use bnn_models::{zoo, ExitPolicy, ModelConfig};
//! use bnn_quant::{CalibratedNetwork, FixedPointFormat};
//! use bnn_serve::{InferenceServer, QuantEngine, ServerConfig};
//! use bnn_tensor::rng::Xoshiro256StarStar;
//! use bnn_tensor::Tensor;
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small quantized multi-exit network, compiled to a plan.
//! let spec = zoo::lenet5(&ModelConfig::mnist().with_resolution(10, 10).with_width_divisor(8))
//!     .with_exits_after_every_block()?
//!     .with_exit_mcd(0.25)?;
//! let net = spec.build(7)?;
//! let mut rng = Xoshiro256StarStar::seed_from_u64(1);
//! let calib = Tensor::randn(&[4, 1, 10, 10], &mut rng);
//! let calibrated = CalibratedNetwork::calibrate(&net, &calib)?;
//! let plan = calibrated.plan(FixedPointFormat::new(8, 3)?)?;
//!
//! // Serve it: 2 workers, batches of up to 4 or 200us, whichever first.
//! let server = InferenceServer::start(
//!     Box::new(QuantEngine::new(plan)),
//!     ServerConfig {
//!         workers: 2,
//!         max_batch: 4,
//!         max_delay: Duration::from_micros(200),
//!         mc_samples: 6,
//!         seed: 2023,
//!         // adaptive: confident samples retire at shallow exits
//!         policy: ExitPolicy::Confidence { threshold: 0.5 },
//!         // fault-tolerance knobs (queue bound, deadlines, respawn
//!         // budget, degradation ladder) at their permissive defaults
//!         ..ServerConfig::default()
//!     },
//! )?;
//! let sample = Tensor::randn(&[1, 1, 10, 10], &mut rng);
//! let handle = server.submit(sample.as_slice())?;
//! let reply = handle.wait()?;
//! assert_eq!(reply.probs.len(), server.num_classes());
//! assert!((reply.probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
//! assert!(reply.exit_taken < 2 && reply.mc_samples >= 3);
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

pub mod degrade;
pub mod engine;
pub mod error;
pub mod fault;
pub mod replay;
pub mod server;
mod sync;

pub use bnn_models::ExitPolicy;
pub use degrade::{DegradeConfig, QualityStep};
pub use engine::{BatchEngine, FloatEngine, PlanEngine, QuantEngine};
pub use error::ServeError;
pub use fault::{FaultAction, FaultPlan, FaultSpec, FaultyEngine};
pub use replay::{FaultReplayOutcome, ReplayConfig, ReplayOutcome, ReplayReport};
pub use server::{InferenceServer, Reply, ResponseHandle, ServeStats, ServerConfig};
