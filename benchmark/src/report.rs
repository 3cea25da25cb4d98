//! The run report: header (run shape), metrics by name, failure
//! accounting, and the one-line JSON result the driver reads.

use std::collections::BTreeMap;

use crate::catalogue::{self, Workload};
use crate::world::World;
use crate::{Options, Scale};

/// The shape of the run, printed before any number so a reader can tell
/// whether two reports are comparable.
#[derive(Debug, Clone)]
pub struct Header {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
    pub nproc: usize,
    pub engine_workers: usize,
    pub graph: &'static str,
    pub nodes: usize,
    pub edges: usize,
    pub commit: String,
}

impl Header {
    pub(crate) fn of(opts: &Options, world: &World) -> Header {
        Header {
            workload: opts.workload,
            seed: opts.seed,
            seconds: opts.seconds,
            traced: opts.traced,
            scale: opts.scale,
            nproc: crate::nproc(),
            engine_workers: opts.workers,
            graph: world.graph_name,
            nodes: world.graph.num_nodes(),
            edges: world.graph.num_edges(),
            commit: git_commit(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"traced\":{},\"scale\":\"{:?}\",\
             \"nproc\":{},\"engine_workers\":{},\"graph\":\"{}\",\"nodes\":{},\"edges\":{},\
             \"commit\":\"{}\"}}",
            self.workload.name(),
            self.seed,
            self.seconds,
            self.traced,
            self.scale,
            self.nproc,
            self.engine_workers,
            self.graph,
            self.nodes,
            self.edges,
            self.commit
        )
    }
}

/// The checked-out commit, read from `.git` without spawning a process;
/// `unknown` where there is no repository (the driver's checkout).
fn git_commit() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(root.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(root.join(reference))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(root.join("packed-refs")).ok()?;
                let line = packed.lines().find(|l| l.ends_with(reference))?;
                Some(line.split(' ').next()?.to_string())
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.len() >= 12 && commit.chars().all(|c| c.is_ascii_hexdigit()) {
        commit[..12].to_string()
    } else {
        "unknown".to_string()
    }
}

#[derive(Debug, Clone)]
pub struct Value {
    pub value: f64,
    /// Sample count, batch count or the like — how much the number
    /// rests on.
    pub note: String,
}

#[derive(Debug, Clone)]
pub struct Report {
    pub header: Header,
    /// Every metric the run measured, end-to-end and per-layer alike.
    pub values: BTreeMap<String, Value>,
    /// Answers checked against an oracle (plus requests that had to
    /// succeed), and how many did not.
    pub attempted: u64,
    pub failed: u64,
    /// Query sets the graph has no pair for (only below full scale):
    /// their per-band metrics are omitted, never reported as zero.
    pub unrealised_bands: Vec<u32>,
    /// Wall seconds of set-up and of each phase group, checks included:
    /// where a run's time went.
    pub phase_secs: Vec<(&'static str, f64)>,
    /// Share of the CPUs' time during the run the hypervisor gave away
    /// (`/proc/stat` steal), percent; `None` where the file is missing.
    /// A run with more than a few percent was disturbed from outside.
    pub host_steal_pct: Option<f64>,
    pub layer_self_times: BTreeMap<&'static str, (u64, u64, u64)>,
    pub trace_file: Option<String>,
}

impl Report {
    pub(crate) fn new(header: Header) -> Report {
        Report {
            header,
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            unrealised_bands: Vec::new(),
            phase_secs: Vec::new(),
            host_steal_pct: None,
            layer_self_times: BTreeMap::new(),
            trace_file: None,
        }
    }

    /// Records a metric. The name must be in the catalogue and be
    /// recorded once; a number that is not finite is a benchmark bug.
    pub(crate) fn put(&mut self, name: &str, value: f64, note: impl Into<String>) {
        assert!(unit_of(name).is_some(), "{name} is not in the catalogue");
        assert!(value.is_finite(), "{name} = {value}");
        let old = self.values.insert(
            name.to_string(),
            Value {
                value,
                note: note.into(),
            },
        );
        assert!(old.is_none(), "{name} recorded twice");
    }

    /// Counts one checked answer.
    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("[benchmark] WRONG ANSWER: {}", what());
            }
        }
    }

    /// Counts `attempted` checked answers of which `failed` were wrong
    /// (the phase printed the details as it found them).
    pub(crate) fn check_many(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("[benchmark] WRONG ANSWERS: {failed} of {attempted}: {what}");
        }
    }

    /// Adds the wall time since `since` to phase group `name`; returns
    /// now, for the next lap.
    pub(crate) fn lap(
        &mut self,
        name: &'static str,
        since: std::time::Instant,
    ) -> std::time::Instant {
        let secs = since.elapsed().as_secs_f64();
        match self.phase_secs.iter_mut().find(|p| p.0 == name) {
            Some(p) => p.1 += secs,
            None => self.phase_secs.push((name, secs)),
        }
        std::time::Instant::now()
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metric names this run owes the driver: every end-to-end
    /// metric untraced, every per-layer metric traced.
    pub fn owed(&self) -> Vec<String> {
        if self.header.traced {
            let unrealised: Vec<String> = self
                .unrealised_bands
                .iter()
                .map(|b| catalogue::band_metric("", *b))
                .collect();
            catalogue::per_layer()
                .iter()
                .map(|m| m.name.clone())
                .filter(|name| !unrealised.iter().any(|suffix| name.ends_with(suffix)))
                .collect()
        } else {
            catalogue::END_TO_END
                .iter()
                .map(|m| m.name.to_string())
                .collect()
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`. Values print with all their digits.
    pub fn result_json(&self) -> String {
        let metrics = self
            .owed()
            .iter()
            .map(|name| {
                let v = self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("the run measured no {name}"));
                let unit = unit_of(name).expect("owed names are in the catalogue");
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    v.value
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    /// The human-readable report: header, then every metric by name
    /// with its unit (end-to-end first), then the traced run's layer
    /// self times.
    pub fn render(&self) -> String {
        let h = &self.header;
        let mut out = format!(
            "== benchmark: workload {} seed {} seconds {} traced {} scale {:?}\n\
             == machine: nproc {} | engine workers {} + feeder | wire: event loop + 1 worker + 1 client (2 when pipelining)\n\
             == graph {} ({} nodes, {} edges) | commit {}\n",
            h.workload.name(),
            h.seed,
            h.seconds,
            h.traced,
            h.scale,
            h.nproc,
            h.engine_workers,
            h.graph,
            h.nodes,
            h.edges,
            h.commit
        );
        out.push_str("-- end-to-end\n");
        for m in catalogue::END_TO_END {
            if let Some(v) = self.values.get(m.name) {
                out.push_str(&format!(
                    "{:<22} {:>16.4} {:<5} ({})\n",
                    m.name, v.value, m.unit, v.note
                ));
            }
        }
        let layers: Vec<_> = catalogue::per_layer()
            .iter()
            .filter_map(|m| self.values.get(&m.name).map(|v| (m, v)))
            .collect();
        if !layers.is_empty() {
            out.push_str("-- per layer\n");
            for (m, v) in layers {
                out.push_str(&format!(
                    "{:<40} {:>16.4} {:<5} ({})\n",
                    m.name, v.value, m.unit, v.note
                ));
            }
        }
        if !self.layer_self_times.is_empty() {
            out.push_str("-- span self times (span minus children)\n");
            for (name, (calls, total, own)) in &self.layer_self_times {
                out.push_str(&format!(
                    "{:<32} calls {:>7}  total {:>10.3} ms  self {:>10.3} ms\n",
                    name,
                    calls,
                    *total as f64 / 1e6,
                    *own as f64 / 1e6
                ));
            }
        }
        let total: f64 = self.phase_secs.iter().map(|p| p.1).sum();
        out.push_str(&format!("-- wall time {total:.1} s:"));
        for (name, secs) in &self.phase_secs {
            out.push_str(&format!(" {name} {secs:.1} ({:.0}%)", 100.0 * secs / total));
        }
        out.push('\n');
        if let Some(steal) = self.host_steal_pct {
            out.push_str(&format!(
                "-- host steal {steal:.1} % of the CPUs' time during the run\n"
            ));
        }
        if let Some(path) = &self.trace_file {
            out.push_str(&format!("-- spans written to {path}\n"));
        }
        out.push_str(&format!(
            "-- answers: attempted {} failed {}\n",
            self.attempted, self.failed
        ));
        out
    }
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    catalogue::END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| {
            catalogue::per_layer()
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.unit)
        })
}
