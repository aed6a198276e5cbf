//! The `sqlb_check` binary: run the wave-protocol model checker.
//!
//! With no arguments, explores every scenario under the default CI
//! budget and runs the exhaustive two-chunk split sweep; exits
//! non-zero if any invariant fails. See the crate docs for flags.

use std::process::ExitCode;

use sqlb_check::{explore, replay, Budget, Scenario, Schedule, WaveWorld};

/// Default per-scenario execution budget for bounded (CI) runs.
const DEFAULT_BUDGET: usize = 60_000;

struct Options {
    scenario: Option<String>,
    budget: Option<usize>,
    replay: Option<String>,
    inject_miscount: bool,
    splits_only: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        scenario: None,
        budget: None,
        replay: None,
        inject_miscount: false,
        splits_only: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenario" => {
                options.scenario = Some(args.next().ok_or("--scenario needs a name")?);
            }
            "--budget" => {
                let value = args.next().ok_or("--budget needs a number")?;
                options.budget = Some(value.parse().map_err(|_| format!("bad budget {value:?}"))?);
            }
            "--replay" => {
                options.replay = Some(args.next().ok_or("--replay needs scenario:schedule")?);
            }
            "--inject-miscount" => options.inject_miscount = true,
            "--splits-only" => options.splits_only = true,
            "--help" | "-h" => {
                println!(
                    "usage: sqlb_check [--scenario NAME] [--budget N] \
                     [--replay NAME:SCHEDULE] [--inject-miscount] [--splits-only]\n\
                     scenarios: {}",
                    Scenario::all()
                        .iter()
                        .map(|s| s.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(options)
}

fn run_replay(spec: &str) -> Result<(), String> {
    let (name, schedule) = spec
        .split_once(':')
        .ok_or("--replay expects scenario:schedule")?;
    let scenario = Scenario::by_name(name).ok_or_else(|| format!("unknown scenario {name:?}"))?;
    let schedule: Schedule = schedule.parse()?;
    let world = WaveWorld::new(scenario);
    let (transcript, verdict) = replay(&world, &schedule);
    for line in &transcript {
        println!("{line}");
    }
    match verdict {
        Ok(()) => {
            println!("replay of {spec}: all invariants hold");
            Ok(())
        }
        Err(violation) => Err(format!("replay of {spec}: {violation}")),
    }
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(error) => {
            eprintln!("sqlb_check: {error}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(spec) = &options.replay {
        return match run_replay(spec) {
            Ok(()) => ExitCode::SUCCESS,
            Err(error) => {
                eprintln!("sqlb_check: {error}");
                ExitCode::FAILURE
            }
        };
    }

    if options.inject_miscount {
        eprintln!("sqlb_check: test-only sign-flipped ledger credit INJECTED");
        sqlb_transport::ledger::inject_miscount_for_tests(true);
    }

    let mut failed = false;

    if !options.splits_only {
        let scenarios = match &options.scenario {
            Some(name) => match Scenario::by_name(name) {
                Some(scenario) => vec![scenario],
                None => {
                    eprintln!("sqlb_check: unknown scenario {name:?}");
                    return ExitCode::FAILURE;
                }
            },
            None => Scenario::all(),
        };
        for scenario in scenarios {
            let name = scenario.name;
            // Exhaustive-tier scenarios close out in seconds and run
            // unbounded even in the default CI sweep; an explicit
            // --budget overrides that for quick smoke runs.
            let budget = if scenario.exhaustive && options.budget.is_none() {
                Budget::UNBOUNDED
            } else {
                Budget::executions(options.budget.unwrap_or(DEFAULT_BUDGET))
            };
            let world = WaveWorld::new(scenario);
            let report = explore(&world, &budget);
            let coverage = format!(
                "crash points h0/h1 {}/{}",
                report.distinct_actions_with_prefix("crash(h0"),
                report.distinct_actions_with_prefix("crash(h1"),
            );
            println!(
                "{name:10} {:>9} executions  {:>9} transitions  {:>8} states  depth {:>3}  {}{}",
                report.executions,
                report.transitions,
                report.distinct_states,
                report.max_depth,
                coverage,
                if report.truncated {
                    "  [budget hit: partial]"
                } else {
                    "  [exhaustive]"
                },
            );
            if let Some(failure) = &report.failure {
                failed = true;
                println!("  FAILURE: {}", failure.violation);
                println!(
                    "  replay with: sqlb_check --replay {name}:{}",
                    failure.schedule
                );
            }
        }
    }

    let splits = sqlb_check::sweep_two_chunk_splits();
    println!(
        "splits     {:>9} frame shapes {:>9} two-chunk splits  {}",
        splits.frames,
        splits.splits,
        if splits.ok() {
            "[all consistent]"
        } else {
            "[FAILED]"
        }
    );
    if let Some(failure) = &splits.failure {
        failed = true;
        println!("  FAILURE: {failure}");
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
