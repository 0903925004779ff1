//! Criterion bench timing each transformation-pipeline stage separately on
//! the stock quick-demo configuration, so per-phase regressions are visible
//! independently (phase 1 dominates end-to-end time; phases 2-4 are analytic).

use bnn_core::framework::FrameworkConfig;
use bnn_core::pipeline::PipelineContext;
use bnn_core::{Phase1Stage, Phase2Stage, Phase3Stage, Phase4Stage};
use bnn_models::zoo::Architecture;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_framework_phases(c: &mut Criterion) {
    let mut group = c.benchmark_group("framework_phases");
    group.sample_size(10);

    let config = FrameworkConfig::quick_demo(Architecture::LeNet5);
    let ctx = PipelineContext::from_config(&config);
    let stage1 = Phase1Stage::new(config.phase1.clone());
    let stage2 = Phase2Stage::new();
    let stage3 = Phase3Stage::new(config.phase3.clone());
    let stage4 = Phase4Stage::new();

    // Produce the input artifacts once; each phase is then timed in
    // isolation against a fixed input.
    let artifact1 = stage1.run(&ctx).unwrap();
    let artifact2 = stage2.run(&ctx, &artifact1).unwrap();
    let artifact3 = stage3.run(&ctx, &artifact2).unwrap();

    group.bench_function("phase1_multi_exit_optimization", |b| {
        b.iter(|| stage1.run(&ctx).unwrap())
    });
    group.bench_function("phase2_mapping_exploration", |b| {
        b.iter(|| stage2.run(&ctx, &artifact1).unwrap())
    });
    // Phase 3 scores every design point on the compiled integer plan.
    group.bench_function("phase3_co_exploration", |b| {
        b.iter(|| stage3.run(&ctx, &artifact2).unwrap())
    });
    group.bench_function("phase4_hls_generation", |b| {
        b.iter(|| stage4.run(&ctx, &artifact3).unwrap())
    });

    group.finish();
}

criterion_group!(benches, bench_framework_phases);
criterion_main!(benches);
