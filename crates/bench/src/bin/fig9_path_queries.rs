//! **Figure 9**: shortest-path-query efficiency vs query set.
//!
//! Same setup as Figure 8, but every query retrieves the full path.
//! Shapes to compare with the paper: every hierarchical method pays the
//! O(k) unpacking surcharge over its distance time (so Q10 costs more than
//! in Figure 8); SILC and Dijkstra match their Figure 8 numbers since they
//! compute paths anyway; AH stays fastest overall.

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
        eprintln!("[fig9] {} (n = {n}): obtaining indices …", spec.name);
        let idx = obtain_indices(&args, spec, g, "fig9");
        let (ah, ch) = (idx.ah, idx.ch);
        let silc = silc_feasible(n).then(|| SilcIndex::build(g));

        let mut ahq = AhQuery::new();
        let mut chq = ChQuery::new();
        let mut silcq = SilcQuery::new();

        println!("\n{} (n = {n}): shortest path query time (us/query)", spec.name);
        println!("set\tpairs\tAH\tCH\tSILC\tDijkstra");
        for set in &ds.query_sets {
            if set.pairs.is_empty() {
                println!("Q{}\t0\t-\t-\t-\t-", set.index);
                continue;
            }
            let ah_us = time_query_set(&set.pairs, |s, t| {
                ahq.path(&ah, s, t).map_or(0, |p| p.nodes.len() as u64)
            });
            let ch_us = time_query_set(&set.pairs, |s, t| {
                chq.path(&ch, s, t).map_or(0, |p| p.nodes.len() as u64)
            });
            let silc_us = silc.as_ref().map(|idx| {
                time_query_set(&set.pairs, |s, t| {
                    silcq.path(g, idx, s, t).map_or(0, |p| p.nodes.len() as u64)
                })
            });
            let dij_us = time_query_set(&set.pairs, |s, t| {
                ah_search::dijkstra_path(g, s, t).map_or(0, |p| p.nodes.len() as u64)
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
    print_records("Figure 9: shortest path queries", &records);
}
