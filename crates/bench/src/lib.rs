//! Shared machinery for the figure/table binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's per-experiment index). They share dataset selection,
//! index construction, query timing and the TSV/console output format
//! through this library so that methods are always compared under
//! identical conditions.

use std::sync::Arc;
use std::time::Instant;

use ah_ch::ChIndex;
use ah_core::AhIndex;
use ah_graph::Graph;
use ah_labels::LabelIndex;
use ah_shard::{ShardConfig, ShardedIndex};
use ah_store::{Snapshot, SnapshotContents};
use ah_workload::{QuerySet, SeriesRecord};

pub use ah_data::registry::{by_name, REGISTRY};
pub use ah_data::DatasetSpec;

/// Command-line options shared by the figure binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Last dataset to include (index into [`REGISTRY`]).
    pub through: usize,
    /// Query pairs per query set.
    pub pairs: usize,
    /// Workload seed.
    pub seed: u64,
    /// Region shards for sharded serving (`serve_edge --shards K`); `0`
    /// (the default) obtains no sharded index.
    pub shards: usize,
    /// Also obtain a hub-labeling index (`--labels`;
    /// `serve_edge --backend labels` implies it). Off by default so the
    /// figure binaries never pay a labeling build on the large datasets.
    pub labels: bool,
    /// Base path to save built indexes to, as an `ah_store` snapshot per
    /// dataset (see [`snapshot_path`]). `None` skips saving.
    pub save_index: Option<String>,
    /// Base path to load indexes from instead of building them. The
    /// per-dataset path derivation matches `save_index`, so the same
    /// base string round-trips.
    pub load_index: Option<String>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            through: 5, // S0..S5 by default (see registry docs)
            pairs: 500,
            seed: 0xF16,
            shards: 0,
            labels: false,
            save_index: None,
            load_index: None,
        }
    }
}

impl HarnessArgs {
    /// Parses `--through SN` / `--pairs N` / `--seed N` / `--shards K` /
    /// `--labels` / `--save-index PATH` / `--load-index PATH` from
    /// `std::env`.
    pub fn parse() -> Self {
        let mut args = HarnessArgs::default();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            if !args.accept(&a, &mut it) {
                panic!(
                    "unknown argument {a} (try --through S9 | --pairs N | --seed N | \
                     --shards K | --labels | --save-index PATH | --load-index PATH)"
                );
            }
        }
        args
    }

    /// Consumes one recognized harness flag (and its value) from `it`.
    /// Returns `false` — touching nothing — when `arg` is not a harness
    /// flag, so bins with extra flags of their own (e.g. `serve_edge`)
    /// can layer their parsing on top instead of duplicating this one.
    pub fn accept(&mut self, arg: &str, it: &mut impl Iterator<Item = String>) -> bool {
        match arg {
            "--through" => {
                let v = it.next().expect("--through needs a dataset name");
                self.through = REGISTRY
                    .iter()
                    .position(|d| d.name == v)
                    .unwrap_or_else(|| panic!("unknown dataset {v}"));
            }
            "--pairs" => self.pairs = flag_value(it, "--pairs needs a number"),
            "--seed" => self.seed = flag_value(it, "--seed needs a number"),
            "--shards" => {
                self.shards = flag_value(it, "--shards needs a number (0 disables sharding)")
            }
            "--labels" => self.labels = true,
            "--save-index" => {
                self.save_index = Some(it.next().expect("--save-index needs a path"));
            }
            "--load-index" => {
                self.load_index = Some(it.next().expect("--load-index needs a path"));
            }
            _ => return false,
        }
        true
    }

    /// The selected dataset slice.
    pub fn datasets(&self) -> &'static [DatasetSpec] {
        &REGISTRY[..=self.through.min(REGISTRY.len() - 1)]
    }
}

/// The value of a flag: the next argument parsed as `T`. Panics with
/// `needs` (e.g. `"--pairs needs a number"`) when it is missing or
/// malformed; pass a `NonZero*` type to also refuse `0`.
pub fn flag_value<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, needs: &str) -> T {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{needs}"))
}

/// Derives the per-dataset snapshot path from a `--save-index` /
/// `--load-index` base: the dataset name is appended to the file stem, so
/// `idx.snap` + `S2` → `idx-S2.snap`. Binaries that iterate several
/// datasets (fig8, fig9) therefore never overwrite one dataset's snapshot
/// with another's, and a save/load pair with identical arguments resolves
/// identical paths.
pub fn snapshot_path(base: &str, dataset: &str) -> std::path::PathBuf {
    let p = std::path::Path::new(base);
    let stem = p
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("index");
    let file = match p.extension().and_then(|s| s.to_str()) {
        Some(ext) => format!("{stem}-{dataset}.{ext}"),
        None => format!("{stem}-{dataset}"),
    };
    p.with_file_name(file)
}

/// The AH + CH index pair an experiment runs against, with provenance:
/// built fresh, or reloaded from an `ah_store` snapshot.
pub struct ObtainedIndices {
    /// The AH index (shared: the sharded index keeps it as its global
    /// fallback, so it lives behind an `Arc`).
    pub ah: Arc<AhIndex>,
    /// The CH index.
    pub ch: ChIndex,
    /// The region-sharded index, present iff `--shards K` with `K > 0`.
    pub sharded: Option<Arc<ShardedIndex>>,
    /// The hub-labeling index, present iff `--labels` (or a bin implied
    /// it). Built over the CH contraction order when not loadable from
    /// the snapshot.
    pub labels: Option<Arc<LabelIndex>>,
    /// Seconds spent obtaining the AH index — build time, or (near-zero)
    /// snapshot load time when `--load-index` was given.
    pub ah_secs: f64,
    /// Seconds spent obtaining the labeling (0 when disabled or loaded;
    /// build time when the snapshot predates the labels section).
    pub labels_secs: f64,
}

/// Builds — or, under `--load-index`, reloads — the AH and CH indexes for
/// one dataset, honouring `--save-index` afterwards.
///
/// Loaded snapshots are validated against the freshly generated graph:
/// when the snapshot carries its `graph` section (which `--save-index`
/// always writes), the full CSR arrays are compared, so a stale snapshot
/// from a registry revision with changed weights — same topology, same
/// node count — fails loudly instead of silently benchmarking the wrong
/// network; a graph-less snapshot falls back to a node-count check.
/// `tag` prefixes the progress lines (`[edge]`, `[fig8]`, …).
pub fn obtain_indices(
    args: &HarnessArgs,
    spec: &DatasetSpec,
    g: &Graph,
    tag: &str,
) -> ObtainedIndices {
    if let Some(base) = &args.load_index {
        let path = snapshot_path(base, spec.name);
        let (snapshot, load_secs) = time_once(|| {
            Snapshot::load(&path).unwrap_or_else(|e| {
                panic!("--load-index: cannot load {}: {e}", path.display())
            })
        });
        let ah = snapshot.ah.unwrap_or_else(|| {
            panic!("--load-index: {} has no AH index section", path.display())
        });
        let ch = snapshot.ch.unwrap_or_else(|| {
            panic!("--load-index: {} has no CH index section", path.display())
        });
        match &snapshot.graph {
            Some(sg) => assert!(
                sg.csr_parts() == g.csr_parts(),
                "--load-index: snapshot {} was built from a different {} \
                 (graph data changed since it was saved — rebuild with --save-index)",
                path.display(),
                spec.name
            ),
            None => assert_eq!(
                ah.num_nodes(),
                g.num_nodes(),
                "--load-index: snapshot {} indexes a different network than {}",
                path.display(),
                spec.name
            ),
        }
        let sharded = if args.shards > 0 {
            let sh = snapshot.sharded.unwrap_or_else(|| {
                panic!(
                    "--load-index with --shards: {} has no sharded sections \
                     (save it with --shards too)",
                    path.display()
                )
            });
            // `--shards K` must describe the partition actually served:
            // compare the snapshot's shard count against what K would
            // produce on this grid (after the same clamping the build
            // applies), so an experiment never silently runs the
            // file's partition instead of the requested one.
            let effective =
                ah_shard::ShardMap::new(ah.grid(), args.shards).num_shards();
            assert_eq!(
                sh.num_shards(),
                effective,
                "--load-index: {} holds a {}-shard partition but --shards {} \
                 requests {} — rebuild with --save-index --shards {}",
                path.display(),
                sh.num_shards(),
                args.shards,
                effective,
                args.shards,
            );
            Some(Arc::new(sh))
        } else {
            None
        };
        let (labels, labels_secs) = if args.labels {
            match snapshot.labels {
                Some(l) => (Some(l), 0.0),
                None => {
                    // Older snapshot without a labels section: build from
                    // the loaded CH order rather than refusing the file.
                    let (l, secs) =
                        time_once(|| Arc::new(LabelIndex::build(g, ch.order())));
                    eprintln!(
                        "[{tag}] {}: snapshot {} has no labels section — built labels \
                         from the CH order in {secs:.1}s (re-save with --labels to persist)",
                        spec.name,
                        path.display()
                    );
                    (Some(l), secs)
                }
            }
        } else {
            (None, 0.0)
        };
        eprintln!(
            "[{tag}] {}: loaded AH + CH{}{} from {} in {load_secs:.3}s (build skipped)",
            spec.name,
            if sharded.is_some() { " + shards" } else { "" },
            if labels.is_some() { " + labels" } else { "" },
            path.display()
        );
        return ObtainedIndices {
            ah,
            ch,
            sharded,
            labels,
            ah_secs: load_secs,
            labels_secs,
        };
    }

    let (ah, ah_secs) = time_once(|| Arc::new(AhIndex::build(g, &Default::default())));
    let ch = ChIndex::build(g);
    let sharded = if args.shards > 0 {
        let cfg = ShardConfig {
            shards: args.shards,
            ..Default::default()
        };
        let (sh, secs) =
            time_once(|| Arc::new(ShardedIndex::from_global(g, ah.clone(), &cfg)));
        eprintln!(
            "[{tag}] {}: sharded into {} regions ({} borders, certified: {}) in {secs:.1}s",
            spec.name,
            sh.num_shards(),
            sh.stats().borders,
            sh.certified()
        );
        Some(sh)
    } else {
        None
    };
    let (labels, labels_secs) = if args.labels {
        let (l, secs) = time_once(|| Arc::new(LabelIndex::build(g, ch.order())));
        let stats = l.stats();
        eprintln!(
            "[{tag}] {}: labeled over the CH order in {secs:.1}s \
             ({:.1} entries/node, {:.1} KiB)",
            spec.name,
            stats.avg_label_entries,
            stats.bytes as f64 / 1024.0
        );
        (Some(l), secs)
    } else {
        (None, 0.0)
    };
    if let Some(base) = &args.save_index {
        let path = snapshot_path(base, spec.name);
        let mut contents = SnapshotContents::new().graph(g).ah(&ah).ch(&ch);
        if let Some(sh) = &sharded {
            contents = contents.sharded(sh);
        }
        if let Some(l) = &labels {
            contents = contents.labels(l);
        }
        let bytes = Snapshot::write(&path, contents)
            .unwrap_or_else(|e| panic!("--save-index: cannot write {}: {e}", path.display()));
        eprintln!(
            "[{tag}] {}: saved graph + AH + CH{}{} snapshot to {} ({:.1} MiB)",
            spec.name,
            if sharded.is_some() { " + shards" } else { "" },
            if labels.is_some() { " + labels" } else { "" },
            path.display(),
            bytes as f64 / (1024.0 * 1024.0)
        );
    }
    ObtainedIndices {
        ah,
        ch,
        sharded,
        labels,
        ah_secs,
        labels_secs,
    }
}

/// A dataset instantiated for an experiment run.
pub struct LoadedDataset {
    pub spec: DatasetSpec,
    pub graph: Graph,
    pub query_sets: Vec<QuerySet>,
}

/// Builds the graph and query workload for one registry entry.
pub fn load_dataset(spec: &DatasetSpec, pairs: usize, seed: u64) -> LoadedDataset {
    let graph = spec.build();
    let query_sets = ah_workload::generate_query_sets(&graph, pairs, seed);
    LoadedDataset {
        spec: *spec,
        graph,
        query_sets,
    }
}

/// Times `f()` once, in seconds.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Times a per-pair query function over a query set; returns µs/query.
/// The accumulated checksum prevents the optimizer from discarding work.
pub fn time_query_set(
    pairs: &[(u32, u32)],
    mut f: impl FnMut(u32, u32) -> u64,
) -> f64 {
    let mut acc = 0u64;
    let t = Instant::now();
    for &(s, d) in pairs {
        acc = acc.wrapping_add(f(s, d));
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / pairs.len().max(1) as f64;
    std::hint::black_box(acc);
    us
}

/// Runs `ah_arterial::assign_levels` on its own — the phase that is
/// nearly all of an AH build — and returns its wall-clock seconds plus one
/// TSV row of work counts per stage. The counts are a function of the
/// graph alone; the seconds depend on the cores the machine offers.
/// Print the collected rows with [`print_level_stages`].
pub fn level_stage_rows(spec: &DatasetSpec, g: &Graph) -> (f64, Vec<String>) {
    let (la, secs) = time_once(|| ah_arterial::assign_levels(g, &Default::default()));
    let rows = la
        .stages
        .iter()
        .enumerate()
        .map(|(idx, st)| {
            format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                spec.name,
                idx + 1,
                st.regions,
                st.live_nodes,
                st.live_arcs,
                st.searches,
                st.settled,
                st.cores,
                st.shortcuts
            )
        })
        .collect();
    (secs, rows)
}

/// Prints the rows of [`level_stage_rows`] as one TSV block, headed by the
/// core count their seconds were measured on.
pub fn print_level_stages(rows: &[String]) {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("\n== assign_levels work per stage (timed on {cores} cores) ==");
    println!("dataset\tstage\tregions\tlive_nodes\tlive_arcs\tsearches\tsettled\tcores\tshortcuts");
    rows.iter().for_each(|r| println!("{r}"));
}

/// Pretty-prints a series of records as a console table and TSV block.
pub fn print_records(title: &str, records: &[SeriesRecord]) {
    println!("\n== {title} ==");
    println!("{}", SeriesRecord::tsv_header());
    for r in records {
        println!("{}", r.tsv_line());
    }
}

/// Convenience constructor for a record.
pub fn record(
    dataset: &DatasetSpec,
    nodes: usize,
    method: &str,
    query_set: u32,
    value: f64,
    unit: &str,
) -> SeriesRecord {
    SeriesRecord {
        dataset: dataset.name.to_string(),
        nodes,
        method: method.to_string(),
        query_set,
        value,
        unit: unit.to_string(),
    }
}

/// SILC is only feasible on the smaller networks (its preprocessing and
/// space are the point of Figure 10); this mirrors the paper's cut-off of
/// 500K nodes, scaled to our registry.
pub fn silc_feasible(nodes: usize) -> bool {
    nodes <= 10_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_args_select_s0_to_s5() {
        let a = HarnessArgs::default();
        assert_eq!(a.datasets().len(), 6);
        assert_eq!(a.datasets()[5].name, "S5");
    }

    #[test]
    fn load_smallest_dataset() {
        let d = load_dataset(&REGISTRY[0], 10, 1);
        assert!(d.graph.num_nodes() > 500);
        assert_eq!(d.query_sets.len(), 10);
    }

    #[test]
    fn timing_helpers() {
        let (v, secs) = time_once(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        let us = time_query_set(&[(0, 1), (1, 2)], |a, b| (a + b) as u64);
        assert!(us >= 0.0);
    }

    #[test]
    fn snapshot_path_derivation() {
        assert_eq!(
            snapshot_path("idx.snap", "S2"),
            std::path::PathBuf::from("idx-S2.snap")
        );
        assert_eq!(
            snapshot_path("out/dir.d/idx.snap", "S0"),
            std::path::PathBuf::from("out/dir.d/idx-S0.snap")
        );
        assert_eq!(
            snapshot_path("noext", "S1"),
            std::path::PathBuf::from("noext-S1")
        );
    }

    #[test]
    fn obtain_indices_roundtrips_through_snapshot() {
        let spec = REGISTRY[0];
        let g = spec.build();
        let base = std::env::temp_dir()
            .join(format!("ah_bench_obtain_{}.snap", std::process::id()));
        let base = base.to_string_lossy().into_owned();

        let save_args = HarnessArgs {
            save_index: Some(base.clone()),
            labels: true,
            ..Default::default()
        };
        let built = obtain_indices(&save_args, &spec, &g, "test");
        assert!(built.labels.is_some());

        let load_args = HarnessArgs {
            load_index: Some(base.clone()),
            labels: true,
            ..Default::default()
        };
        let loaded = obtain_indices(&load_args, &spec, &g, "test");
        assert_eq!(loaded.ah.stats(), built.ah.stats());
        assert_eq!(loaded.ch.num_shortcuts(), built.ch.num_shortcuts());
        // The labels section round-tripped (loaded, not rebuilt).
        assert_eq!(loaded.labels_secs, 0.0, "labels should come from the snapshot");
        assert_eq!(
            loaded.labels.unwrap().stats(),
            built.labels.unwrap().stats()
        );
        std::fs::remove_file(snapshot_path(&base, spec.name)).ok();
    }

    #[test]
    fn silc_cutoff() {
        assert!(silc_feasible(1_000));
        assert!(!silc_feasible(50_000));
    }
}
