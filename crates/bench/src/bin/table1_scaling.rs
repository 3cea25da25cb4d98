//! **Table 1**: asymptotic performance — empirical scaling check.
//!
//! Table 1 is analytical (space `O(hn)`, preprocessing `O(hn²)`, distance
//! query `O(h log h)`, path query `O(k + h log h)`). This binary validates
//! the shapes empirically across the dataset family:
//!
//! * index bytes per node should stay near-constant times `h`,
//! * long-range (Q10) distance-query time should grow with `h` (≈ log n),
//!   *not* with `n`,
//! * path-query time should grow linearly in the returned `k` beyond the
//!   distance-query cost,
//! * preprocessing is dominated by `assign_levels`: its seconds (re-run on
//!   its own) and per-stage work counts follow the main table.

use ah_bench::{
    level_stage_rows, load_dataset, print_level_stages, time_once, time_query_set, HarnessArgs,
};
use ah_core::{AhIndex, AhQuery};

fn main() {
    let args = HarnessArgs::parse();
    println!("dataset\tn\th\tindex_B/node\tbuild_s\tlevels_s\tQ10_dist_us\tQ10_path_us\tQ10_avg_k");
    let mut stage_rows = Vec::new();
    for spec in args.datasets() {
        let ds = load_dataset(spec, args.pairs, args.seed);
        let g = &ds.graph;
        let n = g.num_nodes();
        eprintln!("[table1] {} (n = {n}) …", spec.name);
        let (ah, secs) = time_once(|| AhIndex::build(g, &Default::default()));
        let stats = ah.stats();
        let (levels_secs, rows) = level_stage_rows(spec, g);
        stage_rows.extend(rows);
        let mut q = AhQuery::new();
        let long = ds
            .query_sets
            .iter()
            .rev()
            .find(|s| !s.pairs.is_empty());
        let (dist_us, path_us, avg_k) = match long {
            Some(set) => {
                let d = time_query_set(&set.pairs, |s, t| q.distance(&ah, s, t).unwrap_or(0));
                let mut total_k = 0usize;
                let p = time_query_set(&set.pairs, |s, t| {
                    let path = q.path(&ah, s, t);
                    if let Some(p) = &path {
                        total_k += p.num_edges();
                    }
                    path.map_or(0, |p| p.dist.length)
                });
                (d, p, total_k as f64 / set.pairs.len() as f64)
            }
            None => (0.0, 0.0, 0.0),
        };
        println!(
            "{}\t{}\t{}\t{:.1}\t{:.2}\t{:.2}\t{:.2}\t{:.2}\t{:.0}",
            spec.name,
            n,
            stats.h,
            stats.size_bytes as f64 / n as f64,
            secs,
            levels_secs,
            dist_us,
            path_us,
            avg_k
        );
    }
    print_level_stages(&stage_rows);
}
