//! Golden-file snapshot tests for the lowered per-tensor HLS generator.
//!
//! Every zoo model × searched format pins four emitted files against
//! checked-in goldens under `tests/golden/hls/`:
//!
//! * `firmware/defines.h` — the per-tensor `ap_fixed` typedefs;
//! * the top-level `.cpp` — the layer pipeline walked from the compiled
//!   plan's step schedule;
//! * `firmware/parameters.h` — every step's geometry, requantize shifts and
//!   affine/dropout multipliers;
//! * `firmware/weights/weights.h` — the integer weight and bias codes.
//!
//! The last two carry the constants the plan computes with; the
//! simulator-vs-plan suite reads the same constants from the same schedule,
//! so only these snapshots catch a change to them. `defines.h` and the
//! `.cpp` are pinned in full for every subject, as are LeNet-5's
//! `parameters.h` and `weights.h`. ResNet-18's weight header runs to
//! hundreds of kilobytes, so its two constant files are pinned by
//! `digests.txt`: each file's byte length and FNV-1a-64 hash. The untrained
//! subjects have all-zero biases, so the trained fixture
//! (`fixtures::trained_lenet5`) is a third subject at 8 bits, with its
//! constant files pinned in full. `schedule_digests.txt` pins each subject's
//! `PlanSchedule` itself (slot ids and liveness included) the same way. Any
//! codegen change — intended or not — shows up as a diff in review instead
//! of a silent drift.
//!
//! To regenerate the goldens after an intentional generator change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test hls_golden_files
//! ```
//!
//! then review the diff of `tests/golden/hls/` before committing. The
//! emitted text is deterministic: untrained seeded weights, a seeded
//! calibration batch, and integer-only scale comments — so the snapshots are
//! stable across thread counts and SIMD backends.

mod fixtures;

use bayesnn_fpga::hls::{HlsConfig, LoweredDesign};
use bayesnn_fpga::models::{zoo, ModelConfig, NetworkSpec};
use bayesnn_fpga::quant::{CalibratedNetwork, FixedPointFormat, ScheduleOp};
use bayesnn_fpga::tensor::rng::Xoshiro256StarStar;
use bayesnn_fpga::tensor::Tensor;
use std::path::PathBuf;

/// One snapshot subject: a calibrated zoo model under a project name.
struct Subject {
    name: &'static str,
    spec: NetworkSpec,
    calibrated: CalibratedNetwork,
    /// Pin `parameters.h`/`weights.h` in full (small designs) instead of by
    /// length and hash in `digests.txt`.
    constants_in_full: bool,
}

fn lenet_subject() -> Subject {
    let spec = zoo::lenet5(
        &ModelConfig::mnist()
            .with_resolution(10, 10)
            .with_width_divisor(8)
            .with_classes(4),
    )
    .with_exits_after_every_block()
    .unwrap()
    .with_exit_mcd(0.25)
    .unwrap();
    let net = spec.build(3).unwrap();
    let mut rng = Xoshiro256StarStar::seed_from_u64(4);
    let calib = Tensor::randn(&[6, 1, 10, 10], &mut rng);
    let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
    Subject {
        name: "lenet5",
        spec,
        calibrated,
        constants_in_full: true,
    }
}

fn resnet_subject() -> Subject {
    let spec = zoo::resnet18(
        &ModelConfig::cifar10()
            .with_resolution(12, 12)
            .with_width_divisor(16),
    )
    .with_exits_after_every_block()
    .unwrap()
    .with_exit_mcd(0.3)
    .unwrap();
    let net = spec.build(11).unwrap();
    let mut rng = Xoshiro256StarStar::seed_from_u64(5);
    let calib = Tensor::randn(&[4, 3, 12, 12], &mut rng);
    let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
    Subject {
        name: "resnet18",
        spec,
        calibrated,
        constants_in_full: false,
    }
}

/// The trained fixture (`fixtures::trained_lenet5`): non-zero biases and
/// moved batch-norm offsets, which an untrained build never has.
fn trained_subject() -> Subject {
    let (net, calib, _) = fixtures::trained_lenet5(17, 4, 24);
    let calibrated = CalibratedNetwork::calibrate(&net, &calib).unwrap();
    Subject {
        name: "lenet5_trained",
        spec: net.spec().clone(),
        calibrated,
        constants_in_full: true,
    }
}

fn golden_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("hls")
}

/// Compares `actual` against the checked-in golden file, or rewrites the
/// golden when `UPDATE_GOLDEN=1` is set.
fn check_golden(case: &str, file: &str, actual: &str) {
    let path = golden_root().join(case).join(file);
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run `UPDATE_GOLDEN=1 cargo test --test hls_golden_files`",
            path.display()
        )
    });
    if expected != actual {
        // Point at the first differing line so the failure is readable
        // without a manual diff.
        let mismatch = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map(|i| format!("first differing line {}", i + 1))
            .unwrap_or_else(|| "files differ in length".into());
        panic!(
            "{case}/{file} drifted from its golden ({mismatch}); if the codegen \
             change is intentional, run `UPDATE_GOLDEN=1 cargo test --test \
             hls_golden_files` and review the diff"
        );
    }
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One `digests.txt` line: file name, byte length and FNV-1a-64 hash.
fn digest_line(file: &str, contents: &str) -> String {
    format!(
        "{file} {} {:016x}\n",
        contents.len(),
        fnv1a64(contents.as_bytes())
    )
}

fn snapshot_subject(subject: &Subject) {
    snapshot_formats(subject, &FixedPointFormat::search_space());
}

fn snapshot_formats(subject: &Subject, formats: &[FixedPointFormat]) {
    for &format in formats {
        let config = HlsConfig::new(subject.name).with_format(format);
        let design = LoweredDesign::generate(&subject.calibrated, &config).unwrap();
        let case = format!("{}_w{}", subject.name, format.total_bits());
        let defines = design
            .project()
            .file("firmware/defines.h")
            .expect("lowered project has defines.h");
        check_golden(&case, "defines.h", defines);
        let top = design
            .project()
            .file(&format!("firmware/{}.cpp", subject.name))
            .expect("lowered project has a top-level cpp");
        check_golden(&case, "top.cpp", top);
        let constants = [
            ("parameters.h", "firmware/parameters.h"),
            ("weights.h", "firmware/weights/weights.h"),
        ]
        .map(|(file, path)| {
            let contents = design
                .project()
                .file(path)
                .unwrap_or_else(|| panic!("lowered project has {path}"));
            (file, contents)
        });
        if subject.constants_in_full {
            for (file, contents) in constants {
                check_golden(&case, file, contents);
            }
        } else {
            let digests: String = constants
                .iter()
                .map(|(file, contents)| digest_line(file, contents))
                .collect();
            check_golden(&case, "digests.txt", &digests);
        }
        // The snapshot covers the text; the summary guards the quantities a
        // reviewer cannot eyeball from the diff.
        assert_eq!(
            design.summary().macs,
            bayesnn_fpga::hw::network_macs(&subject.spec).unwrap(),
            "{case}: emitted MACs must match the hw model"
        );
    }
}

#[test]
fn lenet5_snapshots_are_stable_across_formats() {
    snapshot_subject(&lenet_subject());
}

#[test]
fn resnet18_snapshots_are_stable_across_formats() {
    snapshot_subject(&resnet_subject());
}

#[test]
fn trained_lenet5_snapshot_pins_non_zero_biases() {
    let subject = trained_subject();
    let format = FixedPointFormat::new(8, 3).unwrap();
    snapshot_formats(&subject, &[format]);
    // The subject exists for its biases: the pinned weights.h must carry
    // non-zero bias codes, or a bias rounding change would go unseen.
    let plan = subject.calibrated.plan(format).unwrap();
    let non_zero = plan.schedule().steps().any(|step| match &step.op {
        ScheduleOp::Conv { bias, .. } | ScheduleOp::Dense { bias, .. } => {
            bias.iter().any(|&b| b != 0)
        }
        _ => false,
    });
    assert!(
        non_zero,
        "the trained subject must have non-zero bias codes"
    );
}

/// Every golden subject's compiled `PlanSchedule`, pinned by the length and
/// FNV-1a-64 hash of its `{:?}` text: the steps, constants, slot ids and
/// liveness the step compiler assigns, not just the code emitted from them.
#[test]
fn plan_schedules_match_their_recorded_digests() {
    let mut digests = String::new();
    for (subject, formats) in [
        (lenet_subject(), FixedPointFormat::search_space()),
        (resnet_subject(), FixedPointFormat::search_space()),
        (
            trained_subject(),
            vec![FixedPointFormat::new(8, 3).unwrap()],
        ),
    ] {
        for format in formats {
            let plan = subject.calibrated.plan(format).unwrap();
            let case = format!("{}_w{}", subject.name, format.total_bits());
            digests.push_str(&digest_line(&case, &format!("{:?}", plan.schedule())));
        }
    }
    check_golden("", "schedule_digests.txt", &digests);
}

#[test]
fn snapshots_cover_per_tensor_types_not_one_global_width() {
    // The lowered generator's defining property: more than one distinct
    // ap_fixed typedef in defines.h, not one global width (per-tensor
    // integer widths follow the calibrated ranges).
    let subject = lenet_subject();
    let config = HlsConfig::new(subject.name).with_format(FixedPointFormat::new(8, 3).unwrap());
    let design = LoweredDesign::generate(&subject.calibrated, &config).unwrap();
    let defines = design.project().file("firmware/defines.h").unwrap();
    let distinct: std::collections::BTreeSet<&str> = defines
        .lines()
        .filter(|l| l.contains("ap_fixed<"))
        .filter_map(|l| l.split_whitespace().find(|t| t.starts_with("ap_fixed<")))
        .collect();
    assert!(
        distinct.len() > 1,
        "expected per-tensor ap_fixed types, found only {distinct:?}"
    );
}
