//! Criterion micro-benchmarks for index construction (a slice of
//! Figure 10b on the S0 dataset).

use criterion::{criterion_group, criterion_main, Criterion};

fn bench_build(c: &mut Criterion) {
    let spec = ah_bench::REGISTRY[0]; // S0 ≈ 1K nodes
    let g = spec.build();

    let mut group = c.benchmark_group("build");
    group.sample_size(10);
    group.bench_function("AH", |b| {
        b.iter(|| ah_core::AhIndex::build(&g, &Default::default()).num_nodes())
    });
    group.bench_function("CH", |b| {
        b.iter(|| ah_ch::ChIndex::build(&g).num_shortcuts())
    });
    group.bench_function("FC", |b| {
        b.iter(|| ah_fc::FcIndex::build(&g).num_shortcuts())
    });
    group.bench_function("SILC", |b| {
        b.iter(|| ah_silc::SilcIndex::build(&g).total_cells())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(10));
    targets = bench_build
}
criterion_main!(benches);
