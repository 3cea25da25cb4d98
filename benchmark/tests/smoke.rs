//! Runs at smoke scale (S0, sub-second phases): the answers must be
//! right and the result line must carry every metric name
//! `BENCHMARK.json` promises for that mode, exactly once, finite. The
//! untraced mode runs under each of the five workload names; the names
//! select nothing (README, "Workloads"), so one traced run covers the
//! per-layer side.

use ah_benchmark::catalogue::{Workload, END_TO_END, WORKLOADS};
use ah_benchmark::report::Report;
use ah_benchmark::{Options, Scale};

fn smoke(workload: Workload, traced: bool) -> Report {
    let report = ah_benchmark::run(&Options {
        workload,
        seed: 5,
        seconds: 0.3,
        traced,
        scale: Scale::Smoke,
        workers: ah_benchmark::default_workers(),
    });
    assert!(
        report.attempted > 1_000,
        "{}: only {} answers checked",
        workload.name(),
        report.attempted
    );
    assert_eq!(report.failed, 0, "{}: wrong answers", workload.name());

    let line = report.result_json();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    let owed = report.owed();
    for name in &owed {
        assert_eq!(
            line.matches(&format!("\"{name}\": {{")).count(),
            1,
            "{name} in {line}"
        );
        assert!(report.values[name].value.is_finite(), "{name}");
    }
    assert_eq!(
        line.matches("\"unit\": ").count(),
        owed.len(),
        "metrics beyond the owed ones: {line}"
    );
    report
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for w in &WORKLOADS {
        let report = smoke(w.id, false);
        assert_eq!(report.owed().len(), END_TO_END.len());
        for m in END_TO_END {
            assert!(report.values[m.name].value > 0.0, "{} is never 0", m.name);
        }
    }
}

#[test]
fn a_traced_run_reports_every_per_layer_metric() {
    {
        let report = smoke(Workload::WirePoints, true);
        // S0 is too small for the shortest bands; what a graph does not
        // realise is omitted, never zero.
        assert!(
            report.unrealised_bands.iter().all(|b| *b <= 3),
            "{:?}",
            report.unrealised_bands
        );
        let v = |name: &str| report.values[name].value;

        // The layers reconcile from the outside in.
        let phases = v("ah_arterial.assign_levels_s")
            + v("ah_core.rank_s")
            + v("ah_contraction.contract_s")
            + v("ah_core.elevating_s");
        assert!(
            phases >= 0.8 * v("ah_build_s"),
            "build phases {phases} of {}",
            v("ah_build_s")
        );
        assert!(v("ah_server.compute_reconcile_ratio") > 0.0);
        assert!(v("ah_net.stage_coverage_ratio") > 0.0 && v("ah_net.stage_coverage_ratio") < 1.5);
        assert!(v("ah_net.self_us") < v("rtt_p50_us"));
        assert_eq!(v("ah_server.reload_failed_requests"), 0.0);
        // The traffic is what each workload says it is.
        assert_eq!(v("ah_server.cache_hit_ratio.cold"), 0.0);
        assert!(v("ah_server.cache_hit_ratio.hot") > 0.99);
        assert!(v("ah_server.cache_hit_ratio.wire") < 0.01);
        assert!(v("ah_server.via_cache_hit_ratio") < 0.01);
        // Distinct pairs, so the wire pays for a kernel call per request.
        assert!(v("ah_server.stage_compute_us") > v("ah_server.stage_cache_probe_us"));

        let trace = std::fs::read_to_string(report.trace_file.as_ref().expect("a trace file"))
            .expect("the trace file is readable");
        assert!(
            trace.contains("\"name\":\"ah_core.build\""),
            "spans around layer calls"
        );
        assert!(
            trace.contains("\"server_traces\":{"),
            "the program tracer's /debug/traces rides along"
        );
        assert!(report.layer_self_times.contains_key("ah_server.reload"));
    }
}
