//! # bnn-core
//!
//! The paper's primary contribution: the transformation framework that turns a
//! conventional (non-Bayesian) CNN description into an FPGA accelerator for a
//! multi-exit Monte-Carlo-Dropout BayesNN.
//!
//! The framework runs four phases (paper Fig. 2):
//!
//! 1. [`phase1`] — **multi-exit optimization**: construct multi-exit MCD
//!    variants (SE / MCD / ME / MCD+ME), train them, evaluate accuracy,
//!    calibration (ECE) and FLOPs, filter by user constraints and pick the best
//!    configuration for the chosen optimization priority.
//! 2. [`phase2`] — **spatial & temporal mapping**: choose how Monte-Carlo
//!    passes map onto hardware MC engines under latency/resource constraints.
//! 3. [`phase3`] — **algorithm/hardware co-exploration**: grid-search the
//!    datapath bitwidth and reuse factor subject to not degrading
//!    algorithmic quality, scoring every point on integer plans compiled
//!    from one calibration record of the Phase 1 winner.
//! 4. [`phase4`] — **accelerator generation**: lower that same calibration
//!    record at the selected format into the HLS project (`bnn-hls`'s
//!    `LoweredDesign`) and the predicted implementation report (`bnn-hw`).
//!
//! Each phase is a plain function of the one configuration,
//! [`framework::FrameworkConfig`], and the previous phase's artifact
//! ([`phase1::run`] … [`phase4::run`]); artifacts pass from phase to phase
//! and embed their predecessors, so intermediate results can be inspected,
//! stored and resumed. [`pipeline::PipelineSession`] validates the
//! configuration once and drives the phases with artifact caching
//! (`run_to` / `resume_from` / `run`), streaming progress to a
//! [`pipeline::PipelineObserver`]. The benchmark harness calls the phase
//! functions one by one to time them and to regenerate the paper's tables.
//!
//! # Threading model
//!
//! The parallel phases — Phase 1 candidate training and Phase 3 design-point
//! evaluation — fan out on [`framework::FrameworkConfig::executor`]
//! ([`bnn_tensor::exec::Executor`]), which resolves its thread count from,
//! in order:
//!
//! 1. [`framework::FrameworkConfig::threads`] (see
//!    [`framework::FrameworkConfig::with_threads`]) when set,
//! 2. the `BNN_THREADS` environment variable,
//! 3. the number of available CPUs.
//!
//! **Determinism contract:** pipeline artifacts are bitwise identical for
//! every thread count. Each Phase 1 candidate derives private RNG streams
//! (weight initialisation, batch shuffling, MC evaluation masks) from the
//! master seed and its candidate index via
//! [`bnn_tensor::rng::stream_seed`]; Monte-Carlo passes reseed their dropout
//! masks per pass; and Phase 3 compiles every bitwidth's integer plan from
//! one shared, immutable calibration record. [`pipeline::PipelineObserver`]s
//! are `Send + Sync` and receive per-candidate events buffered in
//! candidate-index order at the phase boundary, so the event sequence is
//! reproducible too.
//!
//! # Example
//!
//! ```no_run
//! use bnn_core::framework::FrameworkConfig;
//! use bnn_core::pipeline::{PhaseId, PipelineSession, TraceObserver};
//! use bnn_models::zoo::Architecture;
//!
//! # fn main() -> Result<(), bnn_core::FrameworkError> {
//! let config = FrameworkConfig::quick_demo(Architecture::LeNet5);
//! let mut session = PipelineSession::new(config)?;
//! session.set_observer(TraceObserver::default());
//! // Inspect the algorithmic phases before committing to hardware generation.
//! session.run_to(PhaseId::Phase2)?;
//! let outcome = session.run()?;
//! println!("{}", outcome.summary());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod constraints;
pub mod error;
pub mod framework;
pub mod phase1;
pub mod phase2;
pub mod phase3;
pub mod phase4;
pub mod pipeline;

pub use constraints::{OptPriority, UserConstraints};
pub use error::FrameworkError;
pub use framework::{FrameworkConfig, FrameworkOutcome};
pub use phase1::{ModelVariant, Phase1Artifact, Phase1Candidate, Phase1Config, Phase1Result};
pub use phase2::{Phase2Artifact, Phase2Result};
pub use phase3::{Phase3Artifact, Phase3Config, Phase3Result};
pub use phase4::{Phase4Artifact, Phase4Output};
pub use pipeline::{
    NoopObserver, PhaseId, PipelineArtifacts, PipelineEvent, PipelineObserver, PipelineSession,
    RecordingObserver, StageArtifact, TraceObserver,
};
