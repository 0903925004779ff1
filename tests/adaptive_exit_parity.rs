//! Parity suite of the compiled plan's prediction entry points and its
//! adaptive early-exit batched path (mid-flight batch compaction), pinning
//! the properties that make batched and adaptive serving safe to turn on.
//! Both number formats run one plan runtime (`Plan<K>`), so every property
//! is one generic body run on the float [`MultiExitPlan`] and on the integer
//! `QuantPlan`:
//!
//! 1. **Single-sample parity** — `predict_adaptive_batch` on a batch of N
//!    samples produces, for every sample, exactly the probabilities *and*
//!    exit choice of an adaptive call on that sample alone, for every
//!    fixed-point format in the paper's search space `{4, 6, 8, 16}`,
//!    across executors, and on the float plan too. Compacting survivors
//!    into a dense smaller batch never changes anyone's bits; the same
//!    holds for fixed-depth `predict_probs_batch`.
//! 2. **`Never` ≡ fixed depth** — the `ExitPolicy::Never` configuration is
//!    bit-exact with `predict_probs_batch`, so adaptive execution strictly
//!    generalizes the fixed-depth path.
//! 3. **Compaction patterns** — the all-retire, none-retire and interleaved
//!    retire patterns all hold parity (the interleaved case exercises
//!    `copy_within` compaction with gaps).
//! 4. **Typed errors** — malformed batches, non-finite pixels and invalid
//!    policies are each family's typed error on every entry point.
//!
//! Run under `BNN_THREADS=1` and `BNN_THREADS=4` by `make test-adaptive`:
//! the global-executor default must not leak into any result bit.

use bayesnn_fpga::models::{
    zoo, AdaptivePrediction, ExitPlan, ExitPolicy, Kernel, ModelConfig, ModelError,
    MultiExitNetwork, MultiExitPlan, Plan,
};
use bayesnn_fpga::nn::layer::Mode;
use bayesnn_fpga::quant::{CalibratedNetwork, FixedPointFormat, QuantError};
use bayesnn_fpga::tensor::exec::Executor;
use bayesnn_fpga::tensor::rng::Xoshiro256StarStar;
use bayesnn_fpga::tensor::Tensor;
use std::fmt::Debug;

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

/// The float plan of [`small_lenet`].
fn float_plan() -> MultiExitPlan {
    small_lenet().compile_plan(&[1, 10, 10]).unwrap()
}

/// [`small_lenet`] calibrated on a seeded batch: one record for every
/// integer format.
fn calibrated() -> CalibratedNetwork {
    let mut rng = Xoshiro256StarStar::seed_from_u64(5);
    let calib = Tensor::randn(&[8, 1, 10, 10], &mut rng);
    CalibratedNetwork::calibrate(&small_lenet(), &calib).unwrap()
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

/// The typed input errors of a plan family: a malformed batch or policy,
/// and a non-finite value (`ModelError::InvalidInput` for both on the float
/// plan, `QuantError::NonFinite` for the latter on the integer plan).
trait InputErrors: Debug {
    fn is_invalid_input(&self) -> bool;
    fn is_non_finite(&self) -> bool;
}

impl InputErrors for ModelError {
    fn is_invalid_input(&self) -> bool {
        matches!(self, ModelError::InvalidInput(_))
    }
    fn is_non_finite(&self) -> bool {
        matches!(self, ModelError::InvalidInput(_))
    }
}

impl InputErrors for QuantError {
    fn is_invalid_input(&self) -> bool {
        matches!(self, QuantError::InvalidInput(_))
    }
    fn is_non_finite(&self) -> bool {
        matches!(self, QuantError::NonFinite(_))
    }
}

fn invalid<T, E: InputErrors>(result: Result<T, E>) -> bool {
    matches!(result, Err(e) if e.is_invalid_input())
}

fn non_finite<T, E: InputErrors>(result: Result<T, E>) -> bool {
    matches!(result, Err(e) if e.is_non_finite())
}

/// Adaptive batched prediction on `plan` is bit-exact, probabilities and
/// exit choices, with per-sample adaptive calls, and never executes more
/// than fixed depth. Returns the batched prediction.
fn assert_adaptive_matches_singles<K: Kernel>(
    plan: &mut Plan<K>,
    (inputs, singles): (&Tensor, &[Tensor]),
    n_samples: usize,
    policy: &ExitPolicy,
    label: &str,
) -> AdaptivePrediction
where
    K::Error: Debug,
{
    let batched = plan
        .predict_adaptive_batch(inputs, n_samples, MC_SEED, policy)
        .unwrap();
    assert!(
        batched.stats.ops_executed <= batched.stats.ops_fixed,
        "{label} {policy} n={n_samples}: executed more than fixed depth"
    );
    let mut concat = Vec::new();
    let mut exits = Vec::new();
    for single in singles {
        let one = plan
            .predict_adaptive_batch(single, n_samples, MC_SEED, policy)
            .unwrap();
        concat.extend_from_slice(one.probs.as_slice());
        exits.extend_from_slice(&one.exit_taken);
    }
    assert_eq!(
        batched.probs.as_slice(),
        &concat[..],
        "{label} {policy} n={n_samples}: batched probs != concat of single-sample calls"
    );
    assert_eq!(
        batched.exit_taken, exits,
        "{label} {policy} n={n_samples}: batched exit choices != single-sample choices"
    );
    batched
}

/// `ExitPolicy::Never` on `plan` reproduces the fixed-depth batched path bit
/// for bit, with every sample landing on the last exit and zero ops saved.
/// The fixed-depth walk restages the arena, so a backbone run staged before
/// it is gone afterwards.
fn assert_never_matches_fixed<K: Kernel>(
    plan: &mut Plan<K>,
    inputs: &Tensor,
    n_samples: usize,
    label: &str,
) where
    K::Error: InputErrors,
{
    plan.run_backbone(inputs, Mode::Eval).unwrap();
    let fixed = plan
        .predict_probs_batch(inputs, n_samples, MC_SEED)
        .unwrap();
    assert!(invalid(plan.forward_exits(Mode::Eval)), "{label}");
    let adaptive = plan
        .predict_adaptive_batch(inputs, n_samples, MC_SEED, &ExitPolicy::Never)
        .unwrap();
    assert_eq!(
        adaptive.probs.as_slice(),
        fixed.as_slice(),
        "{label}: Never must be bit-exact with predict_probs_batch"
    );
    let last = plan.num_exits() - 1;
    assert!(adaptive.exit_taken.iter().all(|&e| e == last), "{label}");
    assert_eq!(adaptive.stats.ops_executed, adaptive.stats.ops_fixed);
    assert!(adaptive.stats.ops_fixed > 0, "{label}");
    assert_eq!(adaptive.stats.ops_saved_fraction(), 0.0, "{label}");
}

/// Acceptance-criteria sweep: adaptive batched prediction (probabilities
/// AND exit choices) is bit-exact with per-sample adaptive calls for every
/// searched format, policy and MC sample count, on both the sequential and
/// a multi-threaded executor — and executor-invariant.
#[test]
fn quant_adaptive_batch_matches_singles_across_formats_and_executors() {
    let calibrated = calibrated();
    let (inputs, singles) = batch_and_singles(BATCH);

    for format in FixedPointFormat::search_space() {
        for policy in policies() {
            for n_samples in [0usize, UNEVEN_SAMPLES, MC_SAMPLES] {
                let mut reference: Option<AdaptivePrediction> = None;
                for (name, exec) in [
                    ("sequential", Executor::sequential()),
                    ("threads(4)", Executor::new(4)),
                ] {
                    let mut plan = calibrated.plan(format).unwrap();
                    plan.set_executor(exec);
                    let label = format!("{format} on {name}");
                    let batched = assert_adaptive_matches_singles(
                        &mut plan,
                        (&inputs, &singles),
                        n_samples,
                        &policy,
                        &label,
                    );
                    match &reference {
                        None => reference = Some(batched),
                        Some(first) => {
                            assert_eq!(
                                first.probs.as_slice(),
                                batched.probs.as_slice(),
                                "{format} {policy} n={n_samples}: probs differ across executors"
                            );
                            assert_eq!(
                                first.exit_taken, batched.exit_taken,
                                "{format} {policy} n={n_samples}: exits differ across executors"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// `Never` ≡ fixed depth for every searched format.
#[test]
fn quant_adaptive_never_matches_fixed_batch() {
    let calibrated = calibrated();
    let (inputs, _) = batch_and_singles(BATCH);
    for format in FixedPointFormat::search_space() {
        let mut plan = calibrated.plan(format).unwrap();
        assert_never_matches_fixed(&mut plan, &inputs, MC_SAMPLES, &format.to_string());
    }
}

/// Float-plan side of the single-sample parity (the reference path for
/// unquantized serving), deterministic consults included, and `Never` ≡
/// fixed depth at an even and an uneven split of the samples over the
/// exits.
#[test]
fn float_adaptive_batch_matches_singles() {
    let (inputs, singles) = batch_and_singles(4);
    let mut plan = float_plan();

    for n_samples in [0, UNEVEN_SAMPLES, MC_SAMPLES] {
        for policy in policies() {
            assert_adaptive_matches_singles(
                &mut plan,
                (&inputs, &singles),
                n_samples,
                &policy,
                "float",
            );
        }
        if n_samples > 0 {
            let label = format!("float n={n_samples}");
            assert_never_matches_fixed(&mut plan, &inputs, n_samples, &label);
        }
    }
}

/// Compaction-pattern sweep: the all-retire pattern (threshold 0) stops
/// everyone at exit 0, the none-retire pattern (threshold 1) runs everyone
/// to the last exit, and a calibrated midpoint threshold produces an
/// interleaved pattern — retired rows scattered between survivors — that
/// still holds single-sample parity through the `copy_within` compaction.
fn assert_compaction_patterns<K: Kernel>(plan: &mut Plan<K>, label: &str)
where
    K::Error: Debug,
{
    let (inputs, singles) = batch_and_singles(BATCH);
    let last = plan.num_exits() - 1;

    // All retire at exit 0, and the walk prices fewer ops than fixed depth.
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
        "{label} {:?}",
        eager.exit_taken
    );
    assert!(eager.stats.ops_executed < eager.stats.ops_fixed, "{label}");
    assert!(eager.stats.ops_saved_fraction() > 0.0, "{label}");

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
        "{label} {:?}",
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
    assert!(min < max, "{label}: probe confidences are degenerate");
    let policy = ExitPolicy::Confidence {
        threshold: f64::from((min + max) / 2.0),
    };
    let mixed = plan
        .predict_adaptive_batch(&inputs, MC_SAMPLES, MC_SEED, &policy)
        .unwrap();
    assert!(
        mixed.exit_taken.contains(&0) && mixed.exit_taken.contains(&last),
        "{label}: expected an interleaved retire pattern, got {:?}",
        mixed.exit_taken
    );
    for (i, single) in singles.iter().enumerate() {
        let one = plan
            .predict_adaptive_batch(single, MC_SAMPLES, MC_SEED, &policy)
            .unwrap();
        assert_eq!(
            one.probs.as_slice(),
            &mixed.probs.as_slice()[i * classes..(i + 1) * classes],
            "{label} interleaved pattern: sample {i} probs changed under compaction"
        );
        assert_eq!(
            one.exit_taken[0], mixed.exit_taken[i],
            "{label} sample {i} exit"
        );
    }
    assert!(mixed.stats.ops_executed < mixed.stats.ops_fixed, "{label}");
    assert!(
        mixed.stats.ops_executed > eager.stats.ops_executed,
        "{label}"
    );
}

#[test]
fn compaction_holds_at_all_none_and_interleaved_retire_patterns() {
    let format = FixedPointFormat::new(8, 3).unwrap();
    assert_compaction_patterns(&mut calibrated().plan(format).unwrap(), "8-bit");
    assert_compaction_patterns(&mut float_plan(), "float");
}

/// Fixed-depth batched prediction is the concatenation of single-sample
/// calls, each bit-exact with the per-batch-mask entry point
/// (`predict_probs`, whose masks coincide at batch 1), and every row is a
/// simplex.
fn assert_batched_is_concat<K: Kernel>(plan: &mut Plan<K>, label: &str)
where
    K::Error: Debug,
{
    let (inputs, singles) = batch_and_singles(3);
    plan.ensure_batch(3);
    assert_eq!(plan.in_dims(), &[1, 10, 10]);
    let classes = plan.num_classes();
    let all = plan
        .predict_probs_batch(&inputs, UNEVEN_SAMPLES, MC_SEED)
        .unwrap();
    for (b, single) in singles.iter().enumerate() {
        let one = plan
            .predict_probs_batch(single, UNEVEN_SAMPLES, MC_SEED)
            .unwrap();
        assert_eq!(
            &all.as_slice()[b * classes..(b + 1) * classes],
            one.as_slice(),
            "{label} sample {b}"
        );
        let plain = plan.predict_probs(single, UNEVEN_SAMPLES, MC_SEED).unwrap();
        assert_eq!(one.as_slice(), plain.as_slice(), "{label} sample {b}");
    }
    for row in all.as_slice().chunks(classes) {
        let s: f32 = row.iter().sum();
        assert!((s - 1.0).abs() < 1e-4, "{label}");
    }
}

#[test]
fn batched_predict_is_concat_of_single_sample_calls() {
    assert_batched_is_concat(&mut float_plan(), "float");
    let calibrated = calibrated();
    for format in FixedPointFormat::search_space() {
        assert_batched_is_concat(&mut calibrated.plan(format).unwrap(), &format.to_string());
    }
}

/// Out-of-range and non-finite thresholds of both policy families are the
/// plan family's invalid-input error.
fn assert_rejects_invalid_policy<K: Kernel>(plan: &mut Plan<K>, label: &str)
where
    K::Error: InputErrors,
{
    let x = Tensor::ones(&[1, 1, 10, 10]);
    for bad in [f64::NAN, f64::INFINITY, -0.5, 1.5] {
        for policy in [
            ExitPolicy::Confidence { threshold: bad },
            ExitPolicy::Entropy { threshold: bad },
        ] {
            let result = plan.predict_adaptive_batch(&x, 4, 1, &policy);
            assert!(invalid(result), "{label} {policy}");
        }
    }
}

#[test]
fn adaptive_rejects_invalid_policy() {
    assert_rejects_invalid_policy(&mut float_plan(), "float");
    let format = FixedPointFormat::new(8, 3).unwrap();
    assert_rejects_invalid_policy(&mut calibrated().plan(format).unwrap(), "8-bit");
}

/// Empty, mis-shaped and batch-axis-less inputs are the family's
/// invalid-input error, and a single non-finite pixel its non-finite error,
/// on every entry point.
fn assert_malformed_inputs_are_typed_errors<K: Kernel>(plan: &mut Plan<K>, label: &str)
where
    K::Error: InputErrors,
{
    assert_eq!(plan.in_dims(), &[1, 10, 10]);
    let mut rng = Xoshiro256StarStar::seed_from_u64(15);
    let empty = Tensor::from_vec(Vec::new(), &[0, 1, 10, 10]).unwrap();
    let wrong = Tensor::randn(&[2, 1, 9, 9], &mut rng);
    let no_batch_axis = Tensor::randn(&[1, 10, 10], &mut rng);
    let never = ExitPolicy::Never;
    for x in [&empty, &wrong, &no_batch_axis] {
        let case = format!("{label} {:?}", x.dims());
        assert!(invalid(plan.predict_probs(x, 4, 1)), "{case}");
        assert!(invalid(plan.predict_probs_batch(x, 4, 1)), "{case}");
        assert!(
            invalid(plan.predict_adaptive_batch(x, 4, 1, &never)),
            "{case}"
        );
        assert!(invalid(plan.run_backbone(x, Mode::Eval)), "{case}");
    }
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut x = Tensor::randn(&[2, 1, 10, 10], &mut rng);
        x.as_mut_slice()[137] = bad;
        let case = format!("{label} {bad}");
        assert!(non_finite(plan.predict_probs(&x, 4, 1)), "{case}");
        assert!(non_finite(plan.predict_probs_batch(&x, 4, 1)), "{case}");
        assert!(
            non_finite(plan.predict_adaptive_batch(&x, 4, 1, &never)),
            "{case}"
        );
        assert!(non_finite(plan.run_backbone(&x, Mode::Eval)), "{case}");
    }
}

#[test]
fn malformed_inputs_are_typed_errors() {
    assert_malformed_inputs_are_typed_errors(&mut float_plan(), "float");
    let format = FixedPointFormat::new(8, 3).unwrap();
    assert_malformed_inputs_are_typed_errors(&mut calibrated().plan(format).unwrap(), "8-bit");
}
