//! Criterion micro-benchmarks for the substrates: Dijkstra engine, grid
//! predicates, generator, level assignment and workload generation.

use criterion::{criterion_group, criterion_main, Criterion};

fn bench_substrate(c: &mut Criterion) {
    let spec = ah_bench::REGISTRY[0];
    let g = spec.build();
    let n = g.num_nodes() as u32;

    c.bench_function("dijkstra_sssp_S0", |b| {
        let mut d = ah_search::DijkstraDriver::new();
        let mut s = 0u32;
        b.iter(|| {
            s = (s + 101) % n;
            d.run(&g, s, &ah_search::SearchOptions::default(), |_| true);
            d.settled_order().len()
        });
    });

    c.bench_function("grid_proximity_predicate", |b| {
        let grid = ah_grid::GridHierarchy::fit_to_points(g.coords(), 26);
        let coords = g.coords();
        let lvl = (grid.levels() / 2).max(1);
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            let p = coords[i % coords.len()];
            let q = coords[(i * 31) % coords.len()];
            grid.same_3x3_region(lvl, p, q)
        });
    });

    c.bench_function("generate_S0", |b| {
        b.iter(|| {
            ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
                width: 32,
                height: 32,
                seed: 1,
                ..Default::default()
            })
            .num_edges()
        });
    });

    // S2 next to S0: it is the graph the repository benchmark builds, and
    // its later stages are dense enough (84 live arcs per live node at the
    // top grid) to show what S0's cannot. Both use every core the machine
    // offers, like the builds they stand for.
    let s2 = ah_bench::REGISTRY[2].build();
    for (name, graph) in [("assign_levels_S0", &g), ("assign_levels_S2", &s2)] {
        c.bench_function(name, |b| {
            b.iter(|| ah_arterial::assign_levels(graph, &Default::default()).overlay_shortcuts);
        });
    }

    c.bench_function("query_set_generation_S0", |b| {
        b.iter(|| ah_workload::generate_query_sets(&g, 16, 3).len());
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(5));
    targets = bench_substrate
}
criterion_main!(benches);
