//! Golden snapshot of Phase 1's output: every candidate's variant, dropout
//! rate, confidence thresholds and accuracy/ECE/NLL (as `f64` bit patterns),
//! plus the selected index, for the small determinism configuration widened
//! to all four Table I variants so every evaluation route (deterministic
//! single exit, single-exit MCD, multi-exit, MCD + multi-exit) is pinned.
//!
//! The metrics are pure functions of the seeds, so the snapshot must hold
//! bit for bit at every thread count and SIMD backend. To regenerate after
//! an intentional change to training or evaluation arithmetic:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test phase1_golden
//! ```
//!
//! then review the diff of `tests/golden/phase1/` before committing.

#[allow(dead_code)]
mod common;

use bayesnn_fpga::core::phase1::{CandidateMetrics, ModelVariant};
use bayesnn_fpga::core::pipeline::{PhaseId, PipelineSession};
use std::fmt::Write as _;
use std::path::PathBuf;

fn render_metrics(out: &mut String, kind: &str, m: &CandidateMetrics) {
    let threshold = m
        .confidence_threshold
        .map_or_else(|| "-".to_string(), |t| format!("{t:?}"));
    writeln!(
        out,
        "  {kind} rate={:?} threshold={threshold} acc={:016x} ece={:016x} nll={:016x}",
        m.dropout_rate,
        m.evaluation.accuracy.to_bits(),
        m.evaluation.ece.to_bits(),
        m.evaluation.nll.to_bits(),
    )
    .unwrap();
}

#[test]
fn phase1_candidates_match_golden() {
    let mut config = common::small_config();
    config.phase1.variants = ModelVariant::all().to_vec();
    let mut session = PipelineSession::new(config).unwrap();
    let artifacts = session.run_to(PhaseId::Phase1).unwrap();
    let result = &artifacts.phase1.as_ref().unwrap().result;

    let mut actual = String::new();
    writeln!(actual, "selected {}", result.best_index).unwrap();
    for (i, candidate) in result.candidates.iter().enumerate() {
        writeln!(actual, "candidate {i} {}", candidate.variant).unwrap();
        render_metrics(&mut actual, "base", &candidate.metrics);
        for m in &candidate.threshold_metrics {
            render_metrics(&mut actual, "grid", m);
        }
    }

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/phase1/small_config_all_variants.txt");
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run `UPDATE_GOLDEN=1 cargo test --test phase1_golden`",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "Phase 1 drifted from its golden; if the change is intentional, run \
         `UPDATE_GOLDEN=1 cargo test --test phase1_golden` and review the diff"
    );
}
