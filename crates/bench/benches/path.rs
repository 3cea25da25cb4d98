//! Criterion micro-benchmarks for shortest-path queries (a slice of
//! Figure 9 on the S1 dataset).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_path(c: &mut Criterion) {
    let spec = ah_bench::REGISTRY[1];
    let g = spec.build();
    let sets = ah_workload::generate_query_sets(&g, 64, 7);
    let ah = ah_core::AhIndex::build(&g, &Default::default());
    let ch = ah_ch::ChIndex::build(&g);
    let silc = ah_silc::SilcIndex::build(&g);

    let mut group = c.benchmark_group("path");
    let Some(set) = sets.iter().rev().find(|s| !s.pairs.is_empty()) else {
        return;
    };
    let pairs = &set.pairs;
    let label = format!("Q{}", set.index);

    let mut ahq = ah_core::AhQuery::new();
    group.bench_with_input(BenchmarkId::new("AH", &label), pairs, |b, pairs| {
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            ahq.path(&ah, s, t).map(|p| p.nodes.len())
        });
    });
    let mut chq = ah_ch::ChQuery::new();
    group.bench_with_input(BenchmarkId::new("CH", &label), pairs, |b, pairs| {
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            chq.path(&ch, s, t).map(|p| p.nodes.len())
        });
    });
    let mut sq = ah_silc::SilcQuery::new();
    group.bench_with_input(BenchmarkId::new("SILC", &label), pairs, |b, pairs| {
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            sq.path(&g, &silc, s, t).map(|p| p.nodes.len())
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_path
}
criterion_main!(benches);
