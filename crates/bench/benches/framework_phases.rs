//! Criterion bench timing each transformation-pipeline stage separately on
//! the stock quick-demo configuration, so per-phase regressions are visible
//! independently (phase 1 dominates end-to-end time; phases 2-4 are analytic).

use bnn_core::framework::FrameworkConfig;
use bnn_core::pipeline::NoopObserver;
use bnn_core::{phase1, phase2, phase3, phase4};
use bnn_models::zoo::Architecture;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_framework_phases(c: &mut Criterion) {
    let mut group = c.benchmark_group("framework_phases");
    group.sample_size(10);

    let config = FrameworkConfig::quick_demo(Architecture::LeNet5);
    let noop = &NoopObserver;

    // Produce the input artifacts once; each phase is then timed in
    // isolation against a fixed input.
    let artifact1 = phase1::run(&config, noop).unwrap();
    let artifact2 = phase2::run(&config, &artifact1, noop).unwrap();
    let artifact3 = phase3::run(&config, &artifact2, noop).unwrap();

    group.bench_function("phase1_multi_exit_optimization", |b| {
        b.iter(|| phase1::run(&config, noop).unwrap())
    });
    group.bench_function("phase2_mapping_exploration", |b| {
        b.iter(|| phase2::run(&config, &artifact1, noop).unwrap())
    });
    // Phase 3 scores every design point on the compiled integer plan.
    group.bench_function("phase3_co_exploration", |b| {
        b.iter(|| phase3::run(&config, &artifact2, noop).unwrap())
    });
    group.bench_function("phase4_hls_generation", |b| {
        b.iter(|| phase4::run(&config, &artifact3, noop).unwrap())
    });

    group.finish();
}

criterion_group!(benches, bench_framework_phases);
criterion_main!(benches);
