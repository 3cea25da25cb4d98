//! Command line of the benchmark. The driver runs
//! `<command> --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! and reads the last line of standard output; everything else here is
//! for people (`--workload all`, `--aa <k>`, `--scale smoke`,
//! `--threads <n>`).

use std::process::ExitCode;

use ah_benchmark::catalogue::{self, Workload, DEMOTED, END_TO_END, WORKLOADS};
use ah_benchmark::report::Report;
use ah_benchmark::{stats, Options, Scale};

const USAGE: &str =
    "usage: --workload <kernel_bands|engine_points|wire_points|wire_scenarios|lifecycle|all> \
--seed <n> [--seconds <s>] [--trace <0|1>] [--scale <full|smoke>] [--threads <n>] \
[--aa <k>] | --print-benchmark-json";

struct Args {
    workloads: Vec<Workload>,
    /// Everything but the workload, which `workloads` supplies.
    run: Options,
    aa: usize,
}

fn parse() -> Result<Option<Args>, String> {
    let mut args = Args {
        workloads: Vec::new(),
        run: Options {
            workload: Workload::KernelBands,
            seed: 1,
            seconds: f64::from(catalogue::RUN_SECONDS),
            traced: false,
            scale: Scale::Full,
            workers: ah_benchmark::default_workers(),
        },
        aa: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-benchmark-json" {
            print!("{}", catalogue::benchmark_json());
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => {
                args.workloads = WORKLOADS.iter().map(|w| w.id).collect()
            }
            "--workload" => args.workloads = vec![Workload::parse(&value).ok_or_else(bad)?],
            "--seed" => args.run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.run.seconds = value.parse().ok().filter(|s| *s > 0.0).ok_or_else(bad)?
            }
            "--trace" => {
                args.run.traced = matches!(value.as_str(), "0" | "1")
                    .then(|| value == "1")
                    .ok_or_else(bad)?
            }
            "--scale" => {
                args.run.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(bad()),
                }
            }
            "--threads" => {
                args.run.workers = value.parse().ok().filter(|n| *n >= 1).ok_or_else(bad)?;
                if args.run.workers > ah_benchmark::nproc() {
                    return Err(format!(
                        "--threads {} exceeds nproc {}: the numbers would measure the scheduler",
                        args.run.workers,
                        ah_benchmark::nproc()
                    ));
                }
            }
            "--aa" => args.aa = value.parse().ok().filter(|k| *k >= 2).ok_or_else(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(Some(args))
}

fn options(args: &Args, workload: Workload, seed: u64) -> Options {
    Options {
        workload,
        seed,
        ..args.run.clone()
    }
}

/// `--aa k`: k runs of one workload on one build, seeds `seed..seed+k`,
/// spread per metric as the driver computes it. Returns whether every
/// end-to-end spread stayed within its bound.
fn aa(args: &Args, workload: Workload) -> bool {
    let reports: Vec<Report> = (0..args.aa as u64)
        .map(|i| {
            let report = ah_benchmark::run(&options(args, workload, args.run.seed + i));
            eprintln!(
                "[aa] {} seed {} done, failed {}",
                workload.name(),
                args.run.seed + i,
                report.failed
            );
            report
        })
        .collect();
    println!(
        "== A/A: workload {} x {} seeds from {}",
        workload.name(),
        args.aa,
        args.run.seed
    );
    println!(
        "{:<40} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "metric", "min", "median", "max", "spread", "bound"
    );
    let mut within = reports.iter().all(Report::correct);
    // The untraced run owes the gated metrics only; the demoted
    // candidates ride along, bound-less, so their spread stays in view.
    let mut names = reports[0].owed();
    if !args.run.traced {
        names.extend(DEMOTED.iter().map(|m| m.0.to_string()));
    }
    for name in names {
        let values: Vec<f64> = reports.iter().map(|r| r.values[&name].value).collect();
        let sorted = stats::sorted(values.clone());
        let spread = stats::relative_spread(&values).abs();
        let bound = END_TO_END.iter().find(|m| m.name == name).map(|m| m.bound);
        // The driver exempts set-up time from the spread rule.
        let over = bound.is_some_and(|b| spread > b) && name != "setup_s";
        within &= !over;
        println!(
            "{name:<40} {:>14.4} {:>14.4} {:>14.4} {:>7.2}% {:>6}{}",
            sorted[0],
            stats::median(&sorted),
            sorted[sorted.len() - 1],
            spread * 100.0,
            bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            if over { "  OVER" } else { "" }
        );
    }
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    println!("-- answers: attempted {attempted} failed {failed}");
    within
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for &workload in &args.workloads {
        if args.aa > 0 {
            ok &= aa(&args, workload);
            continue;
        }
        let report = ah_benchmark::run(&options(&args, workload, args.run.seed));
        print!("{}", report.render());
        println!("{}", report.result_json());
        ok &= report.correct();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
