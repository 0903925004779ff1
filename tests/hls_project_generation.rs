//! Integration test: Phase 4's lowered HLS generator emits a complete
//! project for every architecture in the zoo, and the emitted MCD template
//! follows the paper's Algorithm 1.

use bayesnn_fpga::hls::{HlsConfig, LoweredDesign};
use bayesnn_fpga::hw::network_macs;
use bayesnn_fpga::models::zoo::Architecture;
use bayesnn_fpga::models::{ModelConfig, NetworkSpec};
use bayesnn_fpga::quant::{CalibratedNetwork, FixedPointFormat};
use bayesnn_fpga::tensor::rng::Xoshiro256StarStar;
use bayesnn_fpga::tensor::Tensor;

/// Builds `spec` from a fixed seed and calibrates it on a seeded batch.
fn calibrate(spec: &NetworkSpec) -> CalibratedNetwork {
    let net = spec.build(3).unwrap();
    let mut rng = Xoshiro256StarStar::seed_from_u64(4);
    let calib = Tensor::randn(&[4, spec.in_channels, spec.height, spec.width], &mut rng);
    CalibratedNetwork::calibrate(&net, &calib).unwrap()
}

fn lenet_design(name: &str) -> LoweredDesign {
    let spec = Architecture::LeNet5
        .spec(&ModelConfig::mnist().with_width_divisor(4))
        .with_exits_after_every_block()
        .unwrap()
        .with_exit_mcd(0.25)
        .unwrap();
    let config = HlsConfig::new(name).with_format(FixedPointFormat::new(8, 3).unwrap());
    LoweredDesign::generate(&calibrate(&spec), &config).unwrap()
}

#[test]
fn every_architecture_generates_a_project() {
    let config = ModelConfig::cifar10()
        .with_resolution(16, 16)
        .with_width_divisor(8);
    for arch in Architecture::all() {
        let spec = arch
            .spec(&config)
            .with_exits_after_every_block()
            .unwrap()
            .with_exit_mcd(0.25)
            .unwrap();
        let design = LoweredDesign::generate(
            &calibrate(&spec),
            &HlsConfig::new(format!("bayes_{arch}"))
                .with_format(FixedPointFormat::new(8, 3).unwrap())
                .with_mc_samples(4),
        )
        .unwrap();
        let project = design.project();
        let cpp = project.file(&format!("firmware/bayes_{arch}.cpp")).unwrap();
        assert!(cpp.contains("#pragma HLS DATAFLOW"), "{arch}");
        assert!(cpp.contains("nnet::mc_dropout"), "{arch}");
        let defines = project.file("firmware/defines.h").unwrap();
        assert!(defines.contains("typedef ap_fixed<8,"), "{arch}");
        assert!(defines.contains("#define MC_SAMPLES 4"), "{arch}");
        // The emitted pipeline prices exactly the MACs the hw model counts.
        assert_eq!(
            design.summary().macs,
            network_macs(&spec).unwrap(),
            "{arch}"
        );
    }
}

#[test]
fn project_contains_the_full_file_set() {
    let design = lenet_design("bayes_lenet");
    let project = design.project();
    for path in [
        "firmware/bayes_lenet.cpp",
        "firmware/bayes_lenet.h",
        "firmware/defines.h",
        "firmware/parameters.h",
        "firmware/weights/weights.h",
        "firmware/nnet_utils/nnet_mc_dropout.h",
        "build_prj.tcl",
        "README.md",
    ] {
        assert!(project.file(path).is_some(), "missing {path}");
    }
    assert_eq!(project.paths().len(), 8);
    assert!(project.total_lines() > 100);
}

#[test]
fn tcl_targets_configured_part_and_clock() {
    let design = lenet_design("p");
    let tcl = design.project().file("build_prj.tcl").unwrap();
    assert!(tcl.contains("set_top p"));
    assert!(tcl.contains("set_part {xcku115-flvb2104-2-e}"));
    assert!(tcl.contains("create_clock -period 5.5"));
    assert!(tcl.contains("csynth_design"));
}

#[test]
fn project_round_trips_to_disk() {
    let design = lenet_design("disk_test");
    let dir = std::env::temp_dir().join(format!("bnn_hls_project_{}", std::process::id()));
    design.project().write_to_dir(&dir).unwrap();
    for path in design.project().paths() {
        let written = std::fs::read_to_string(dir.join(path)).unwrap();
        assert_eq!(
            Some(written.as_str()),
            design.project().file(path),
            "{path}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mcd_template_matches_algorithm_1() {
    let design = lenet_design("alg1");
    let header = design
        .project()
        .file("firmware/nnet_utils/nnet_mc_dropout.h")
        .unwrap();
    // Algorithm 1 structure: pipelined loop, uniform RNG, threshold against the
    // keep rate, multiply the kept value by the keep rate.
    assert!(header.contains("#pragma HLS PIPELINE II=1"));
    assert!(header.contains("uniform_random > keep_rate"));
    assert!(header.contains("temp * keep_rate"));
    assert!(header.contains("lfsr"));
}
