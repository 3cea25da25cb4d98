//! **Figure 10**: index space (a) and preprocessing time (b) vs `n`.
//!
//! Builds AH, CH and (on feasible sizes) SILC for every selected dataset
//! and reports index bytes and wall-clock construction seconds. Shapes to
//! compare with the paper: SILC grows super-linearly in both space and
//! time and falls off the chart early; AH grows linearly with a moderate
//! constant; CH is cheapest in both dimensions.
//!
//! A second block breaks the AH column down: the seconds of its dominant
//! phase (`assign_levels`, re-run on its own) and that phase's work counts
//! per stage, so a change in build time can be read against a change in
//! work.

use ah_bench::{
    level_stage_rows, load_dataset, print_level_stages, print_records, record, silc_feasible,
    time_once, HarnessArgs,
};
use ah_ch::ChIndex;
use ah_core::AhIndex;
use ah_silc::SilcIndex;

fn main() {
    let args = HarnessArgs::parse();
    let mut records = Vec::new();
    let mut stage_rows = Vec::new();
    println!("dataset\tn\tAH MB\tAH s\tCH MB\tCH s\tSILC MB\tSILC s");
    for spec in args.datasets() {
        let ds = load_dataset(spec, 0, args.seed);
        let g = &ds.graph;
        let n = g.num_nodes();
        eprintln!("[fig10] {} (n = {n}) …", spec.name);
        let (ah, ah_secs) = time_once(|| AhIndex::build(g, &Default::default()));
        let ah_mb = ah.size_bytes() as f64 / (1024.0 * 1024.0);
        drop(ah);
        let (levels_secs, rows) = level_stage_rows(spec, g);
        stage_rows.extend(rows);
        let (ch, ch_secs) = time_once(|| ChIndex::build(g));
        let ch_mb = ch.size_bytes() as f64 / (1024.0 * 1024.0);
        drop(ch);
        let silc = silc_feasible(n).then(|| time_once(|| SilcIndex::build(g)));
        let silc_cols = match &silc {
            Some((idx, secs)) => {
                let mb = idx.size_bytes() as f64 / (1024.0 * 1024.0);
                records.push(record(spec, n, "SILC", 0, mb, "MB"));
                records.push(record(spec, n, "SILC", 0, *secs, "s"));
                format!("{mb:.2}\t{secs:.2}")
            }
            None => "-\t-".to_string(),
        };
        println!(
            "{}\t{}\t{:.2}\t{:.2}\t{:.2}\t{:.2}\t{}",
            spec.name, n, ah_mb, ah_secs, ch_mb, ch_secs, silc_cols
        );
        records.push(record(spec, n, "AH", 0, ah_mb, "MB"));
        records.push(record(spec, n, "AH", 0, ah_secs, "s"));
        records.push(record(spec, n, "AH assign_levels", 0, levels_secs, "s"));
        records.push(record(spec, n, "CH", 0, ch_mb, "MB"));
        records.push(record(spec, n, "CH", 0, ch_secs, "s"));
    }
    print_records("Figure 10: space overhead and preprocessing time", &records);
    print_level_stages(&stage_rows);
}
