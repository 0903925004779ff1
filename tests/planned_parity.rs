//! Parity suite of the compiled float execution plans: on a trained
//! multi-exit LeNet-5, the sampler's planned prediction path must reproduce
//! the layer-chain path bit for bit. (The integer plan's bit-exactness
//! contract is pinned against the independent HLS golden-reference
//! simulator in `tests/hls_golden_sim.rs`.)

mod fixtures;

use bayesnn_fpga::bayes::sampling::{McSampler, SamplingConfig};
use bayesnn_fpga::tensor::exec::Executor;

/// The float sampler's planned path (compiled `MultiExitPlan`, arenas reused
/// across MC passes) reproduces the prediction of a spec-rebuilt replica of
/// the same network — the strongest float-side equivalence available through
/// the public API: replicas share nothing with the original but the
/// checkpoint, so agreement pins the planned path to the checkpointed
/// arithmetic bit for bit.
#[test]
fn sampler_planned_path_matches_replica_prediction_bitwise() {
    let (mut network, _calib, eval) = fixtures::trained_lenet5(17, 4, 24);
    // A replica rebuilt from spec + checkpoint (the pre-plan worker path).
    let mut replica = network.replicate().unwrap();
    // Both samplers compile (and cache) plans for this plannable network;
    // the executors differ, so this also pins the parallel fan-out (plan
    // clones as worker replicas) to the sequential single-plan loop.
    let planned = McSampler::new(SamplingConfig::new(8)).with_executor(Executor::new(4));
    let layered = McSampler::new(SamplingConfig::new(8)).with_executor(Executor::sequential());
    let a = planned.predict(&mut network, &eval).unwrap();
    let b = layered.predict(&mut replica, &eval).unwrap();
    assert_eq!(a.mean_probs.as_slice(), b.mean_probs.as_slice());
    assert_eq!(a.per_sample.len(), b.per_sample.len());
    for (sa, sb) in a.per_sample.iter().zip(&b.per_sample) {
        assert_eq!(sa.as_slice(), sb.as_slice());
    }
}
