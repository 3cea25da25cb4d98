//! Cut a weight delta against a dataset's road network and persist it
//! for the live-reload pipeline — the producer side of
//! `serve_edge --allow-reload`.
//!
//! ```sh
//! # a snapshot of the base network (what serve_edge serves)
//! cargo run --release -p ah_bench --bin serve_edge -- \
//!     --through S1 --save-index idx.snap
//! # a delta against it: 8 re-weights/closures, plus the fully rebuilt
//! # patched snapshot for post-swap identity checking
//! cargo run --release -p ah_bench --bin make_delta -- \
//!     --through S1 --changes 8 --out delta.snap --patched patched.snap
//! # serve, then swap under load:
//! #   curl -X POST 'http://…/admin/reload-delta?path=delta.snap'
//! # post-swap answers are bit-equal to a server started from
//! # patched.snap (tests/serve_edge_process.rs checks exactly this)
//! ```
//!
//! `--rounds N` chains N churn rounds (each cut against the previous
//! round's patched graph) and composes them into the single delta the
//! file carries — the shape a batched feed of traffic updates takes.
//! `--closures F` sets the fraction of changes that close the road
//! outright. The plan is deterministic in `--seed`.

use std::num::NonZeroUsize;

use ah_bench::{flag_value, HarnessArgs};
use ah_core::AhIndex;
use ah_store::{Snapshot, SnapshotContents};
use ah_workload::WeightChurn;

struct DeltaArgs {
    harness: HarnessArgs,
    rounds: usize,
    changes: usize,
    closures: f64,
    seed: u64,
    out: String,
    patched: Option<String>,
}

fn parse_args() -> DeltaArgs {
    let mut a = DeltaArgs {
        harness: HarnessArgs {
            through: 1,
            ..Default::default()
        },
        rounds: 1,
        changes: 8,
        closures: 0.2,
        seed: 7,
        out: "delta.snap".to_string(),
        patched: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if a.harness.accept(&arg, &mut it) {
            continue;
        }
        match arg.as_str() {
            "--rounds" => {
                let n: NonZeroUsize = flag_value(&mut it, "--rounds needs a positive number");
                a.rounds = n.get();
            }
            "--changes" => {
                let n: NonZeroUsize = flag_value(&mut it, "--changes needs a positive number");
                a.changes = n.get();
            }
            "--closures" => {
                a.closures = flag_value(&mut it, "--closures needs a fraction 0.0..=1.0");
            }
            "--seed" => a.seed = flag_value(&mut it, "--seed needs a number"),
            "--out" => a.out = it.next().expect("--out needs a path"),
            "--patched" => a.patched = Some(it.next().expect("--patched needs a path")),
            other => panic!(
                "unknown argument {other} (try --through SN | --rounds N | --changes N | \
                 --closures F | --seed N | --out PATH | --patched PATH)"
            ),
        }
    }
    a
}

fn main() {
    let args = parse_args();
    let spec = *args.harness.datasets().last().expect("registry non-empty");

    eprintln!("[make_delta] building {} road network …", spec.name);
    let g = spec.build();

    let churn = WeightChurn {
        rounds: args.rounds,
        changes_per_round: args.changes,
        closure_fraction: args.closures,
        seed: args.seed,
    };
    let plan = churn.plan(&g, 0);
    assert!(!plan.rounds.is_empty(), "churn produced no rounds");
    let delta = plan
        .rounds
        .iter()
        .skip(1)
        .fold(plan.rounds[0].delta.clone(), |acc, r| acc.compose(&r.delta));
    let patched = delta.apply(&g).expect("composed delta applies to base");
    assert_eq!(
        patched.graph.content_id(),
        plan.final_graph.content_id(),
        "composed delta must equal the chained rounds"
    );

    let bytes = Snapshot::write(&args.out, SnapshotContents::new().graph(&g).delta(&delta))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", args.out));
    eprintln!(
        "[make_delta] {}: {} changes ({} closures, {} nodes touched) → {} ({bytes} bytes)",
        spec.name,
        delta.len(),
        plan.closures(),
        patched.touched.len(),
        args.out,
    );

    if let Some(path) = &args.patched {
        eprintln!("[make_delta] rebuilding patched index from scratch …");
        let idx = AhIndex::build(&patched.graph, &Default::default());
        let patched_bytes = Snapshot::write(
            path,
            SnapshotContents::new().graph(&patched.graph).ah(&idx),
        )
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("[make_delta] patched snapshot → {path} ({patched_bytes} bytes)");
    }
    println!(
        "make_delta: {} base {:#018x} -> patched {:#018x}, {} changes",
        spec.name,
        delta.base_id(),
        patched.graph.content_id(),
        delta.len(),
    );
}
