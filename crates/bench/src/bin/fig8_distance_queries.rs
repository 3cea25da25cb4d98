//! **Figure 8**: distance-query efficiency vs query set.
//!
//! For each dataset and each query set `Q1..Q10` (distance-stratified
//! pairs), reports the average time per *distance* query for AH, CH, SILC
//! (small datasets only) and plain Dijkstra. Shapes to compare with the
//! paper: AH flattest and fastest on long-range sets (Q8–Q10, where it
//! beats CH by ≥ 50%), Dijkstra worst everywhere and exploding with
//! distance; SILC between CH and Dijkstra, only measurable on small inputs.

use ah_bench::{
    load_dataset, obtain_indices, print_records, record, silc_feasible, time_query_set,
    HarnessArgs,
};
use ah_core::AhQuery;
use ah_ch::ChQuery;
use ah_silc::{SilcIndex, SilcQuery};

fn main() {
    let args = HarnessArgs::parse();
    let mut records = Vec::new();
    for spec in args.datasets() {
        let ds = load_dataset(spec, args.pairs, args.seed);
        let g = &ds.graph;
        let n = g.num_nodes();
        eprintln!("[fig8] {} (n = {n}): obtaining indices …", spec.name);
        let idx = obtain_indices(&args, spec, g, "fig8");
        let (ah, ch, ah_secs) = (idx.ah, idx.ch, idx.ah_secs);
        let silc = silc_feasible(n).then(|| SilcIndex::build(g));
        eprintln!("[fig8] {}: AH ready in {ah_secs:.1}s; running queries …", spec.name);

        let mut ahq = AhQuery::new();
        let mut chq = ChQuery::new();
        let mut silcq = SilcQuery::new();
        let mut dijkstra = ah_search::DijkstraDriver::new();

        println!("\n{} (n = {n}): distance query time (us/query)", spec.name);
        println!("set\tpairs\tAH\tCH\tSILC\tDijkstra");
        for set in &ds.query_sets {
            if set.pairs.is_empty() {
                println!("Q{}\t0\t-\t-\t-\t-", set.index);
                continue;
            }
            let ah_us = time_query_set(&set.pairs, |s, t| ahq.distance(&ah, s, t).unwrap_or(0));
            let ch_us = time_query_set(&set.pairs, |s, t| chq.distance(&ch, s, t).unwrap_or(0));
            let silc_us = silc.as_ref().map(|idx| {
                time_query_set(&set.pairs, |s, t| silcq.distance(g, idx, s, t).unwrap_or(0))
            });
            let dij_us = time_query_set(&set.pairs, |s, t| {
                use ah_search::{SearchOptions, SearchOutcome};
                match dijkstra.run(
                    g,
                    s,
                    &SearchOptions {
                        target: Some(t),
                        ..Default::default()
                    },
                    |_| true,
                ) {
                    SearchOutcome::TargetReached(d) => d.length,
                    _ => 0,
                }
            });
            println!(
                "Q{}\t{}\t{:.1}\t{:.1}\t{}\t{:.1}",
                set.index,
                set.pairs.len(),
                ah_us,
                ch_us,
                silc_us.map_or("-".into(), |v| format!("{v:.1}")),
                dij_us
            );
            records.push(record(spec, n, "AH", set.index, ah_us, "us/query"));
            records.push(record(spec, n, "CH", set.index, ch_us, "us/query"));
            if let Some(v) = silc_us {
                records.push(record(spec, n, "SILC", set.index, v, "us/query"));
            }
            records.push(record(spec, n, "Dijkstra", set.index, dij_us, "us/query"));
        }
    }
    print_records("Figure 8: distance queries", &records);
}
