//! The pipeline driver over the four transformation phases.
//!
//! - [`FrameworkConfig`] carries every input: the per-phase grids and what
//!   every phase sees (target device, clock, MC sample count, user
//!   constraints, optimization priority, thread count).
//! - [`crate::phase1::run`] … [`crate::phase4::run`] are plain functions of
//!   the configuration and the previous phase's artifact; artifacts flow
//!   explicitly from phase to phase and each artifact embeds its
//!   predecessor, so any artifact is a self-sufficient resume point.
//! - [`PipelineSession`] validates the configuration once and drives the
//!   phases with caching: [`PipelineSession::run_to`] executes phases up to
//!   a target, [`PipelineSession::resume_from`] installs a previously stored
//!   artifact (skipping the phases that produced it), and
//!   [`PipelineSession::run`] completes the pipeline into a
//!   [`FrameworkOutcome`].
//! - [`PipelineObserver`] receives phase lifecycle and per-candidate events;
//!   [`TraceObserver`] streams them to stderr and [`RecordingObserver`]
//!   captures them for tests and telemetry.
//!
//! The expensive Phase 1 training work is preserved in
//! [`Phase1Artifact`] (trained weights for every
//! candidate), so Phase 3 instantiates the selected model from the artifact
//! instead of retraining it from scratch.
//!
//! # Example
//!
//! ```no_run
//! use bnn_core::framework::FrameworkConfig;
//! use bnn_core::pipeline::{PhaseId, PipelineSession, StageArtifact, TraceObserver};
//! use bnn_models::zoo::Architecture;
//!
//! # fn main() -> Result<(), bnn_core::FrameworkError> {
//! let config = FrameworkConfig::quick_demo(Architecture::LeNet5);
//!
//! // Run the algorithmic phases once...
//! let mut session = PipelineSession::new(config.clone())?;
//! session.set_observer(TraceObserver::default());
//! session.run_to(PhaseId::Phase2)?;
//! let checkpoint = session.artifacts().phase2.clone().expect("phase 2 ran");
//!
//! // ...and resume the hardware phases later without retraining anything.
//! let mut resumed = PipelineSession::new(config)?;
//! resumed.resume_from(StageArtifact::Phase2(checkpoint));
//! let outcome = resumed.run()?;
//! println!("{}", outcome.summary());
//! # Ok(())
//! # }
//! ```

use crate::error::FrameworkError;
use crate::framework::{FrameworkConfig, FrameworkOutcome};
use crate::phase1::{self, Phase1Artifact};
use crate::phase2::{self, Phase2Artifact};
use crate::phase3::{self, Phase3Artifact};
use crate::phase4::{self, Phase4Artifact};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identifies one of the four transformation phases (paper Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PhaseId {
    /// Multi-exit optimization (algorithmic exploration).
    Phase1,
    /// Spatial/temporal mapping of the MC engines.
    Phase2,
    /// Algorithm/hardware co-exploration (bitwidth × reuse factor).
    Phase3,
    /// HLS accelerator generation.
    Phase4,
}

impl PhaseId {
    /// All four phases in pipeline order.
    pub fn all() -> [PhaseId; 4] {
        [
            PhaseId::Phase1,
            PhaseId::Phase2,
            PhaseId::Phase3,
            PhaseId::Phase4,
        ]
    }

    /// Zero-based position of the phase in the pipeline.
    pub fn index(&self) -> usize {
        match self {
            PhaseId::Phase1 => 0,
            PhaseId::Phase2 => 1,
            PhaseId::Phase3 => 2,
            PhaseId::Phase4 => 3,
        }
    }

    /// Short human-readable description of what the phase does.
    pub fn label(&self) -> &'static str {
        match self {
            PhaseId::Phase1 => "multi-exit optimization",
            PhaseId::Phase2 => "spatial/temporal mapping",
            PhaseId::Phase3 => "algorithm/hardware co-exploration",
            PhaseId::Phase4 => "accelerator generation",
        }
    }
}

impl std::fmt::Display for PhaseId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "phase {} ({})", self.index() + 1, self.label())
    }
}

/// Receives pipeline lifecycle events.
///
/// Every method has a no-op default, so implementors override only what they
/// need. Phases served from cached artifacts (after
/// [`PipelineSession::resume_from`]) emit no events.
///
/// Observers are `Send + Sync` with `&self` methods (use interior mutability
/// for state) so they can be shared with the parallel phases. **Event
/// ordering is deterministic**: parallel phases buffer per-candidate results
/// and deliver `on_candidate` in candidate-index order at the phase
/// boundary, so a given configuration produces the same event sequence for
/// every thread count.
pub trait PipelineObserver: Send + Sync {
    /// A phase is about to run.
    fn on_phase_start(&self, phase: PhaseId) {
        let _ = phase;
    }

    /// One exploration candidate of a phase was evaluated. `index` counts
    /// candidates within the phase from zero; `summary` is a one-line
    /// human-readable description of the candidate.
    fn on_candidate(&self, phase: PhaseId, index: usize, summary: &str) {
        let _ = (phase, index, summary);
    }

    /// A phase finished; `summary` describes the selected result.
    fn on_phase_complete(&self, phase: PhaseId, summary: &str) {
        let _ = (phase, summary);
    }
}

/// The do-nothing observer (the default for unobserved runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl PipelineObserver for NoopObserver {}

/// An observer that streams phase progress to stderr, with per-phase timing.
#[derive(Debug, Default)]
pub struct TraceObserver {
    /// Also print every evaluated candidate (not just phase boundaries).
    pub verbose: bool,
    started: Mutex<[Option<Instant>; 4]>,
}

impl TraceObserver {
    /// A trace observer that also prints every evaluated candidate.
    pub fn verbose() -> Self {
        TraceObserver {
            verbose: true,
            started: Mutex::new([None; 4]),
        }
    }
}

impl PipelineObserver for TraceObserver {
    fn on_phase_start(&self, phase: PhaseId) {
        self.started.lock().expect("trace observer lock")[phase.index()] = Some(Instant::now());
        eprintln!("[pipeline] {phase} started");
    }

    fn on_candidate(&self, phase: PhaseId, index: usize, summary: &str) {
        if self.verbose {
            eprintln!("[pipeline]   {phase} candidate {index}: {summary}");
        }
    }

    fn on_phase_complete(&self, phase: PhaseId, summary: &str) {
        let t0 = self.started.lock().expect("trace observer lock")[phase.index()].take();
        match t0 {
            Some(t0) => eprintln!(
                "[pipeline] {phase} complete in {:.3}s: {summary}",
                t0.elapsed().as_secs_f64()
            ),
            None => eprintln!("[pipeline] {phase} complete: {summary}"),
        }
    }
}

/// One recorded pipeline event (see [`RecordingObserver`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineEvent {
    /// `on_phase_start` fired.
    PhaseStart(PhaseId),
    /// `on_candidate` fired with the given index and summary.
    Candidate(PhaseId, usize, String),
    /// `on_phase_complete` fired with the given summary.
    PhaseComplete(PhaseId, String),
}

/// An observer that records every event, for tests and telemetry.
///
/// Cloning shares the underlying event log, so a clone handed to
/// [`PipelineSession::set_observer`] can still be inspected afterwards
/// through the original handle.
#[derive(Debug, Clone, Default)]
pub struct RecordingObserver {
    events: Arc<Mutex<Vec<PipelineEvent>>>,
}

impl RecordingObserver {
    /// An empty recorder.
    pub fn new() -> Self {
        RecordingObserver::default()
    }

    /// A snapshot of every event recorded so far.
    pub fn events(&self) -> Vec<PipelineEvent> {
        self.events.lock().expect("recording observer lock").clone()
    }

    fn push(&self, event: PipelineEvent) {
        self.events
            .lock()
            .expect("recording observer lock")
            .push(event);
    }
}

impl PipelineObserver for RecordingObserver {
    fn on_phase_start(&self, phase: PhaseId) {
        self.push(PipelineEvent::PhaseStart(phase));
    }

    fn on_candidate(&self, phase: PhaseId, index: usize, summary: &str) {
        self.push(PipelineEvent::Candidate(phase, index, summary.to_string()));
    }

    fn on_phase_complete(&self, phase: PhaseId, summary: &str) {
        self.push(PipelineEvent::PhaseComplete(phase, summary.to_string()));
    }
}

/// A stored artifact of any phase, used to seed [`PipelineSession::resume_from`].
///
/// Each artifact embeds its predecessors, so a single `StageArtifact` is a
/// complete resume point for the rest of the pipeline.
// Variant sizes differ by design (later artifacts embed earlier ones); the
// enum is a transient handle passed once into `resume_from`, never stored in
// bulk, so boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum StageArtifact {
    /// The Phase 1 artifact (trained candidates + dataset).
    Phase1(Phase1Artifact),
    /// The Phase 2 artifact (selected mapping, embeds Phase 1).
    Phase2(Phase2Artifact),
    /// The Phase 3 artifact (selected bitwidth/reuse, embeds Phases 1-2).
    Phase3(Phase3Artifact),
    /// The Phase 4 artifact (generated project, embeds Phases 1-3).
    Phase4(Phase4Artifact),
}

/// The artifacts a session has produced (or been seeded with) so far.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineArtifacts {
    /// Phase 1 artifact, if Phase 1 has run.
    pub phase1: Option<Phase1Artifact>,
    /// Phase 2 artifact, if Phase 2 has run.
    pub phase2: Option<Phase2Artifact>,
    /// Phase 3 artifact, if Phase 3 has run.
    pub phase3: Option<Phase3Artifact>,
    /// Phase 4 artifact, if Phase 4 has run.
    pub phase4: Option<Phase4Artifact>,
}

impl PipelineArtifacts {
    /// The most advanced phase with an artifact present, if any.
    pub fn latest_phase(&self) -> Option<PhaseId> {
        if self.phase4.is_some() {
            Some(PhaseId::Phase4)
        } else if self.phase3.is_some() {
            Some(PhaseId::Phase3)
        } else if self.phase2.is_some() {
            Some(PhaseId::Phase2)
        } else if self.phase1.is_some() {
            Some(PhaseId::Phase1)
        } else {
            None
        }
    }
}

/// A stateful driver over the four phases with artifact caching.
///
/// See the [module documentation](self) for a worked example.
pub struct PipelineSession {
    config: FrameworkConfig,
    artifacts: PipelineArtifacts,
    observer: Box<dyn PipelineObserver>,
}

impl std::fmt::Debug for PipelineSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineSession")
            .field("config", &self.config)
            .field("artifacts", &self.artifacts)
            .finish_non_exhaustive()
    }
}

impl PipelineSession {
    /// Creates a session after [`FrameworkConfig::validate`].
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::InvalidConfig`] describing the first violated
    /// check.
    pub fn new(config: FrameworkConfig) -> Result<Self, FrameworkError> {
        config.validate()?;
        Ok(PipelineSession {
            config,
            artifacts: PipelineArtifacts::default(),
            observer: Box::new(NoopObserver),
        })
    }

    /// Replaces the observer (the default observes nothing).
    pub fn set_observer(&mut self, observer: impl PipelineObserver + 'static) {
        self.observer = Box::new(observer);
    }

    /// The configuration this session runs.
    pub fn config(&self) -> &FrameworkConfig {
        &self.config
    }

    /// The artifacts produced (or installed) so far.
    pub fn artifacts(&self) -> &PipelineArtifacts {
        &self.artifacts
    }

    /// Installs a previously produced artifact as the resume point.
    ///
    /// The artifact's embedded predecessors are unpacked into their slots so
    /// they remain inspectable; any artifact of a *later* phase is discarded
    /// (it was derived from state this resume point replaces).
    pub fn resume_from(&mut self, artifact: StageArtifact) {
        self.artifacts = PipelineArtifacts::default();
        match artifact {
            StageArtifact::Phase1(a1) => {
                self.artifacts.phase1 = Some(a1);
            }
            StageArtifact::Phase2(a2) => {
                self.artifacts.phase1 = Some(a2.phase1.clone());
                self.artifacts.phase2 = Some(a2);
            }
            StageArtifact::Phase3(a3) => {
                self.artifacts.phase1 = Some(a3.phase2.phase1.clone());
                self.artifacts.phase2 = Some(a3.phase2.clone());
                self.artifacts.phase3 = Some(a3);
            }
            StageArtifact::Phase4(a4) => {
                self.artifacts.phase1 = Some(a4.phase3.phase2.phase1.clone());
                self.artifacts.phase2 = Some(a4.phase3.phase2.clone());
                self.artifacts.phase3 = Some(a4.phase3.clone());
                self.artifacts.phase4 = Some(a4);
            }
        }
    }

    /// Runs every phase up to and including `target`, reusing cached
    /// artifacts. Phases that already have an artifact emit no observer
    /// events.
    ///
    /// # Errors
    ///
    /// Propagates any phase error, including
    /// [`FrameworkError::NoFeasibleDesign`] when the constraints cannot be
    /// met.
    pub fn run_to(&mut self, target: PhaseId) -> Result<&PipelineArtifacts, FrameworkError> {
        if self.artifacts.phase1.is_none() {
            self.observer.on_phase_start(PhaseId::Phase1);
            let a1 = phase1::run(&self.config, self.observer.as_ref())?;
            let best = a1.result.best();
            self.observer.on_phase_complete(
                PhaseId::Phase1,
                &format!(
                    "selected {} (acc {:.4}, ece {:.4}) from {} candidate(s)",
                    best.variant,
                    best.metrics.evaluation.accuracy,
                    best.metrics.evaluation.ece,
                    a1.result.candidates.len()
                ),
            );
            self.artifacts.phase1 = Some(a1);
        }
        if target >= PhaseId::Phase2 && self.artifacts.phase2.is_none() {
            let a1 = self.artifacts.phase1.as_ref().expect("phase 1 just ran");
            self.observer.on_phase_start(PhaseId::Phase2);
            let a2 = phase2::run(&self.config, a1, self.observer.as_ref())?;
            self.observer.on_phase_complete(
                PhaseId::Phase2,
                &format!(
                    "selected {} mapping from {} candidate(s)",
                    a2.mapping(),
                    a2.result.candidates.len()
                ),
            );
            self.artifacts.phase2 = Some(a2);
        }
        if target >= PhaseId::Phase3 && self.artifacts.phase3.is_none() {
            let a2 = self.artifacts.phase2.as_ref().expect("phase 2 just ran");
            self.observer.on_phase_start(PhaseId::Phase3);
            let a3 = phase3::run(&self.config, a2, self.observer.as_ref())?;
            self.observer.on_phase_complete(
                PhaseId::Phase3,
                &format!(
                    "selected {} with reuse factor {} from {} point(s)",
                    a3.format(),
                    a3.reuse_factor(),
                    a3.result.points.len()
                ),
            );
            self.artifacts.phase3 = Some(a3);
        }
        if target >= PhaseId::Phase4 && self.artifacts.phase4.is_none() {
            let a3 = self.artifacts.phase3.as_ref().expect("phase 3 just ran");
            self.observer.on_phase_start(PhaseId::Phase4);
            let a4 = phase4::run(&self.config, a3, self.observer.as_ref())?;
            self.observer.on_phase_complete(
                PhaseId::Phase4,
                &format!(
                    "generated {} ({} files, fits device: {})",
                    self.config.project_name,
                    a4.output
                        .lowered
                        .as_ref()
                        .map_or(0, |design| design.project().paths().len()),
                    a4.output.report.fits
                ),
            );
            self.artifacts.phase4 = Some(a4);
        }
        Ok(&self.artifacts)
    }

    /// Runs the full pipeline (reusing cached artifacts) and assembles the
    /// selected design.
    ///
    /// # Errors
    ///
    /// Propagates any phase error, including
    /// [`FrameworkError::NoFeasibleDesign`] when the constraints cannot be
    /// met.
    pub fn run(&mut self) -> Result<FrameworkOutcome, FrameworkError> {
        self.run_to(PhaseId::Phase4)?;
        let a4 = self
            .artifacts
            .phase4
            .as_ref()
            .expect("run_to(Phase4) filled every slot");
        Ok(FrameworkOutcome {
            phase1: a4.phase3.phase2.phase1.result.clone(),
            phase2: a4.phase3.phase2.result.clone(),
            phase3: a4.phase3.result.clone(),
            phase4: a4.output.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_id_order_and_display() {
        let all = PhaseId::all();
        for window in all.windows(2) {
            assert!(window[0] < window[1]);
        }
        assert_eq!(PhaseId::Phase3.index(), 2);
        assert!(PhaseId::Phase1.to_string().contains("multi-exit"));
    }

    #[test]
    fn recording_observer_shares_its_log() {
        let recorder = RecordingObserver::new();
        let clone = recorder.clone();
        clone.on_phase_start(PhaseId::Phase1);
        clone.on_candidate(PhaseId::Phase1, 0, "c");
        clone.on_phase_complete(PhaseId::Phase1, "done");
        let events = recorder.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0], PipelineEvent::PhaseStart(PhaseId::Phase1));
        assert_eq!(
            events[2],
            PipelineEvent::PhaseComplete(PhaseId::Phase1, "done".into())
        );
    }
}
