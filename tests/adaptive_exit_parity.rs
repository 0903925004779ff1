//! Parity suite of the adaptive early-exit batched path (mid-flight batch
//! compaction), pinning the properties that make adaptive serving safe to
//! turn on:
//!
//! 1. **Single-sample parity** — `predict_adaptive_batch` on a batch of N
//!    samples produces, for every sample, exactly the probabilities *and*
//!    exit choice of an adaptive call on that sample alone, for every
//!    fixed-point format in the paper's search space `{4, 6, 8, 16}`,
//!    across executors, and on the float [`MultiExitPlan`] too. Compacting
//!    survivors into a dense smaller batch never changes anyone's bits.
//! 2. **`Never` ≡ fixed depth** — the `ExitPolicy::Never` configuration is
//!    bit-exact with `predict_probs_batch`, so adaptive execution strictly
//!    generalizes the fixed-depth path.
//! 3. **Compaction patterns** — the all-retire, none-retire and interleaved
//!    retire patterns all hold parity (the interleaved case exercises
//!    `copy_within` compaction with gaps).
//!
//! Run under `BNN_THREADS=1` and `BNN_THREADS=4` by `make test-adaptive`:
//! the global-executor default must not leak into any result bit.

use bayesnn_fpga::models::{zoo, ExitPlan, ExitPolicy, ModelConfig, MultiExitNetwork};
use bayesnn_fpga::quant::{CalibratedNetwork, FixedPointFormat};
use bayesnn_fpga::tensor::exec::Executor;
use bayesnn_fpga::tensor::rng::Xoshiro256StarStar;
use bayesnn_fpga::tensor::Tensor;

const MC_SAMPLES: usize = 6;
/// A sample count the two exits do not divide: exit 0 draws 3 samples and
/// exit 1 draws 2, so a full-depth ensemble holds exactly 5.
const UNEVEN_SAMPLES: usize = 5;
const MC_SEED: u64 = 2023;
const BATCH: usize = 5;

/// The small multi-exit LeNet-5 of the plan test suites (10x10, width/8,
/// 4 classes; 100 input elements per sample).
fn small_lenet() -> MultiExitNetwork {
    zoo::lenet5(
        &ModelConfig::mnist()
            .with_resolution(10, 10)
            .with_width_divisor(8)
            .with_classes(4),
    )
    .with_exits_after_every_block()
    .unwrap()
    .with_exit_mcd(0.25)
    .unwrap()
    .build(3)
    .unwrap()
}

/// A batch of well-formed inputs plus the same data as single-sample chunks.
fn batch_and_singles(batch: usize) -> (Tensor, Vec<Tensor>) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(11);
    let inputs = Tensor::randn(&[batch, 1, 10, 10], &mut rng);
    let singles = inputs
        .as_slice()
        .chunks_exact(100)
        .map(|c| Tensor::from_vec(c.to_vec(), &[1, 1, 10, 10]).unwrap())
        .collect();
    (inputs, singles)
}

/// The policy sweep every parity case runs: both threshold families at
/// values that exercise mixed, eager and reluctant retirement, plus the
/// deterministic (`n_samples = 0`) consults via the caller's choice of
/// sample count.
fn policies() -> Vec<ExitPolicy> {
    vec![
        ExitPolicy::Confidence { threshold: 0.3 },
        ExitPolicy::Confidence { threshold: 0.0 },
        ExitPolicy::Confidence { threshold: 1.0 },
        ExitPolicy::Entropy { threshold: 0.97 },
        ExitPolicy::Entropy { threshold: 0.0 },
    ]
}

/// Acceptance-criteria sweep: adaptive batched prediction (probabilities
/// AND exit choices) is bit-exact with per-sample adaptive calls for every
/// searched format, policy and MC sample count, on both the sequential and
/// a multi-threaded executor — and executor-invariant.
#[test]
fn quant_adaptive_batch_matches_singles_across_formats_and_executors() {
    let network = small_lenet();
    let mut rng = Xoshiro256StarStar::seed_from_u64(5);
    let calib = Tensor::randn(&[8, 1, 10, 10], &mut rng);
    let calibrated = CalibratedNetwork::calibrate(&network, &calib).unwrap();
    let (inputs, singles) = batch_and_singles(BATCH);

    for format in FixedPointFormat::search_space() {
        for policy in policies() {
            for n_samples in [0usize, UNEVEN_SAMPLES, MC_SAMPLES] {
                let mut reference: Option<(Vec<f32>, Vec<usize>)> = None;
                for (name, exec) in [
                    ("sequential", Executor::sequential()),
                    ("threads(4)", Executor::new(4)),
                ] {
                    let mut plan = calibrated.plan(format).unwrap();
                    plan.set_executor(exec);
                    let batched = plan
                        .predict_adaptive_batch(&inputs, n_samples, MC_SEED, &policy)
                        .unwrap();
                    assert!(
                        batched.stats.ops_executed <= batched.stats.ops_fixed,
                        "{format} {policy} n={n_samples}: executed more than fixed depth"
                    );
                    let mut concat = Vec::new();
                    let mut exits = Vec::new();
                    for single in &singles {
                        let one = plan
                            .predict_adaptive_batch(single, n_samples, MC_SEED, &policy)
                            .unwrap();
                        concat.extend_from_slice(one.probs.as_slice());
                        exits.extend_from_slice(&one.exit_taken);
                    }
                    assert_eq!(
                        batched.probs.as_slice(),
                        &concat[..],
                        "{format} {policy} n={n_samples} on {name}: \
                         batched probs != concat of single-sample calls"
                    );
                    assert_eq!(
                        batched.exit_taken, exits,
                        "{format} {policy} n={n_samples} on {name}: \
                         batched exit choices != single-sample choices"
                    );
                    match &reference {
                        None => {
                            reference =
                                Some((batched.probs.as_slice().to_vec(), batched.exit_taken))
                        }
                        Some((probs, taken)) => {
                            assert_eq!(
                                &probs[..],
                                batched.probs.as_slice(),
                                "{format} {policy} n={n_samples}: probs differ across executors"
                            );
                            assert_eq!(
                                taken, &batched.exit_taken,
                                "{format} {policy} n={n_samples}: exits differ across executors"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// `ExitPolicy::Never` reproduces the fixed-depth batched path bit for bit
/// (with every sample landing on the last exit and zero ops saved), for
/// every searched format.
#[test]
fn quant_adaptive_never_matches_fixed_batch() {
    let network = small_lenet();
    let mut rng = Xoshiro256StarStar::seed_from_u64(5);
    let calib = Tensor::randn(&[8, 1, 10, 10], &mut rng);
    let calibrated = CalibratedNetwork::calibrate(&network, &calib).unwrap();
    let (inputs, _) = batch_and_singles(BATCH);

    for format in FixedPointFormat::search_space() {
        let mut plan = calibrated.plan(format).unwrap();
        let fixed = plan
            .predict_probs_batch(&inputs, MC_SAMPLES, MC_SEED)
            .unwrap();
        let adaptive = plan
            .predict_adaptive_batch(&inputs, MC_SAMPLES, MC_SEED, &ExitPolicy::Never)
            .unwrap();
        assert_eq!(
            adaptive.probs.as_slice(),
            fixed.as_slice(),
            "{format}: Never must be bit-exact with predict_probs_batch"
        );
        let last = plan.num_exits() - 1;
        assert!(adaptive.exit_taken.iter().all(|&e| e == last));
        assert_eq!(adaptive.stats.ops_executed, adaptive.stats.ops_fixed);
        assert_eq!(adaptive.stats.ops_saved_fraction(), 0.0);
    }
}

/// Float-plan side of the single-sample parity (the reference path for
/// unquantized serving), including `Never` ≡ fixed depth, at an even and an
/// uneven split of the samples over the exits.
#[test]
fn float_adaptive_batch_matches_singles() {
    let network = small_lenet();
    let (inputs, singles) = batch_and_singles(4);
    let mut plan = network.compile_plan(&[1, 10, 10]).unwrap();

    for n_samples in [UNEVEN_SAMPLES, MC_SAMPLES] {
        for policy in policies() {
            let batched = plan
                .predict_adaptive_batch(&inputs, n_samples, MC_SEED, &policy)
                .unwrap();
            assert!(
                batched.stats.ops_executed <= batched.stats.ops_fixed,
                "float {policy} n={n_samples}: executed more than fixed depth"
            );
            let mut concat = Vec::new();
            let mut exits = Vec::new();
            for single in &singles {
                let one = plan
                    .predict_adaptive_batch(single, n_samples, MC_SEED, &policy)
                    .unwrap();
                concat.extend_from_slice(one.probs.as_slice());
                exits.extend_from_slice(&one.exit_taken);
            }
            assert_eq!(
                batched.probs.as_slice(),
                &concat[..],
                "float {policy} n={n_samples}: batched != concat of single-sample calls"
            );
            assert_eq!(
                batched.exit_taken, exits,
                "float {policy} n={n_samples}: exit choices"
            );
        }

        let fixed = plan
            .predict_probs_batch(&inputs, n_samples, MC_SEED)
            .unwrap();
        let never = plan
            .predict_adaptive_batch(&inputs, n_samples, MC_SEED, &ExitPolicy::Never)
            .unwrap();
        assert_eq!(never.probs.as_slice(), fixed.as_slice(), "n={n_samples}");
    }
}

/// Compaction-pattern sweep on the 8-bit plan: the all-retire pattern
/// (threshold 0) stops everyone at exit 0, the none-retire pattern
/// (threshold 1) runs everyone to the last exit, and a calibrated midpoint
/// threshold produces an interleaved pattern — retired rows scattered
/// between survivors — that still holds single-sample parity through the
/// `copy_within` compaction.
#[test]
fn compaction_holds_at_all_none_and_interleaved_retire_patterns() {
    let network = small_lenet();
    let mut rng = Xoshiro256StarStar::seed_from_u64(5);
    let calib = Tensor::randn(&[8, 1, 10, 10], &mut rng);
    let calibrated = CalibratedNetwork::calibrate(&network, &calib).unwrap();
    let (inputs, singles) = batch_and_singles(BATCH);
    let mut plan = calibrated
        .plan(FixedPointFormat::new(8, 3).unwrap())
        .unwrap();
    let last = plan.num_exits() - 1;

    // All retire at exit 0.
    let eager = plan
        .predict_adaptive_batch(
            &inputs,
            MC_SAMPLES,
            MC_SEED,
            &ExitPolicy::Confidence { threshold: 0.0 },
        )
        .unwrap();
    assert!(
        eager.exit_taken.iter().all(|&e| e == 0),
        "{:?}",
        eager.exit_taken
    );
    assert!(eager.stats.ops_saved_fraction() > 0.0);

    // None retire early (softmax of finite logits never reaches 1.0).
    let strict = plan
        .predict_adaptive_batch(
            &inputs,
            MC_SAMPLES,
            MC_SEED,
            &ExitPolicy::Confidence { threshold: 1.0 },
        )
        .unwrap();
    assert!(
        strict.exit_taken.iter().all(|&e| e == last),
        "{:?}",
        strict.exit_taken
    );

    // Interleaved: the midpoint of the batch's first-exit confidences
    // leaves a mixed pattern; parity must survive the gappy compaction.
    let classes = eager.stats.classes;
    let confs: Vec<f32> = eager
        .probs
        .as_slice()
        .chunks_exact(classes)
        .map(|r| r.iter().copied().fold(f32::NEG_INFINITY, f32::max))
        .collect();
    let min = confs.iter().copied().fold(f32::INFINITY, f32::min);
    let max = confs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    assert!(min < max, "probe confidences are degenerate");
    let policy = ExitPolicy::Confidence {
        threshold: f64::from((min + max) / 2.0),
    };
    let mixed = plan
        .predict_adaptive_batch(&inputs, MC_SAMPLES, MC_SEED, &policy)
        .unwrap();
    assert!(
        mixed.exit_taken.contains(&0) && mixed.exit_taken.contains(&last),
        "expected an interleaved retire pattern, got {:?}",
        mixed.exit_taken
    );
    for (i, single) in singles.iter().enumerate() {
        let one = plan
            .predict_adaptive_batch(single, MC_SAMPLES, MC_SEED, &policy)
            .unwrap();
        assert_eq!(
            one.probs.as_slice(),
            &mixed.probs.as_slice()[i * classes..(i + 1) * classes],
            "interleaved pattern: sample {i} probs changed under compaction"
        );
        assert_eq!(one.exit_taken[0], mixed.exit_taken[i], "sample {i} exit");
    }
    assert!(mixed.stats.ops_executed < mixed.stats.ops_fixed);
    assert!(mixed.stats.ops_executed > eager.stats.ops_executed);
}
