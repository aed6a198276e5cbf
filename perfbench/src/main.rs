//! End-to-end and per-layer benchmark of the SQLB allocation pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-t2 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` times whole `Simulator::new` / `Simulator::run` calls and
//! prints the end-to-end metrics; `--trace 1` runs the traced replay and
//! prints the layer table and the per-layer metrics. Either way the last
//! line of standard output is one JSON object with the verdict, the
//! operation counts and the metrics. See `perfbench/README.md`.

mod output;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::collections::HashSet;
use std::time::Instant;

use sqlb_obs::{Obs, ObsSnapshot};
use sqlb_sim::{MediationMode, Method, SimulationConfig, SimulationReport, Simulator};

use output::{Metric, Outcome};
use stats::{highest_supported_percentile, median, percentile, quartiles, ratio, relative_spread};
use trace::{covered_ns, durations_of, layer_rows, write_spans, Span, Tracer};
use workloads::{panel_seed, Workload, DEFAULT_SEED};

/// Fewest timed runs an end-to-end measurement reports a median over.
const MIN_RUNS: usize = 3;
/// Fewest `Simulator::new` calls `setup_s` is the median of.
const MIN_SETUPS: usize = 31;
/// Fewest base / no-sample run pairs the sample sweep is attributed from.
const MIN_SWEEP_PAIRS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(seconds > 0.0 && f64::is_finite(seconds)) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    match result {
        Ok(outcome) => println!("{}", outcome.to_json()),
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    }
}

/// One correctness check's verdict.
struct Check {
    name: &'static str,
    passed: bool,
    detail: String,
}

fn print_checks(checks: &[Check]) {
    for check in checks {
        let verdict = if check.passed { "pass" } else { "FAIL" };
        println!("  check {:<12} {verdict}  {}", check.name, check.detail);
    }
}

fn pinned_check(workload: Workload, seed: u64, digest: u64) -> Check {
    if seed != DEFAULT_SEED {
        return Check {
            name: "pinned",
            passed: true,
            detail: format!("n/a (pinned at seed {DEFAULT_SEED} only)"),
        };
    }
    Check {
        name: "pinned",
        passed: digest == workload.pinned_digest(),
        detail: format!(
            "digest {digest:016x}, pinned {:016x}",
            workload.pinned_digest()
        ),
    }
}

/// Failed operations of a set of runs: unallocated queries and queries
/// of waves that degraded a reply to indifference — or every query when a
/// correctness check failed.
fn failed_ops(reports: &[&SimulationReport], checks: &[Check]) -> (u64, u64) {
    let attempted: u64 = reports.iter().map(|r| r.issued_queries).sum();
    let failed = if checks.iter().all(|c| c.passed) {
        reports
            .iter()
            .map(|r| r.unallocated_queries + r.degraded_waves)
            .sum()
    } else {
        attempted
    };
    (attempted, failed)
}

/// Resident set size and its high-water mark, in bytes, from
/// `/proc/self/status` (0 where the platform has no such file).
fn rss_and_peak() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next()?.parse::<u64>().ok())
            .map_or(0, |kib| kib * 1024)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// One timed `Simulator::new` + `Simulator::run`: set-up seconds, run
/// seconds and the report.
fn timed_run(config: SimulationConfig) -> Result<(f64, f64, SimulationReport), String> {
    let start = Instant::now();
    let simulator = Simulator::new(config, Method::Sqlb).map_err(|e| e.to_string())?;
    let built = Instant::now();
    let report = simulator.run();
    let done = Instant::now();
    Ok((
        (built - start).as_secs_f64(),
        (done - built).as_secs_f64(),
        report,
    ))
}

fn describe(values: &[f64]) -> String {
    let n = values.len();
    let quart = quartiles(values).map_or_else(
        || "quartiles n/a".to_string(),
        |[q1, _, q3]| format!("quartiles [{q1:.6}, {q3:.6}]"),
    );
    let spread = relative_spread(values)
        .map_or_else(String::new, |s| format!(" (spread {:.1} %)", 100.0 * s));
    let tail = highest_supported_percentile(n).map_or_else(
        || "no percentile has 10 samples beyond it".to_string(),
        |p| format!("p{p} {:.6}", percentile(values, p)),
    );
    format!("median of {n}, {quart}{spread}, {tail}")
}

fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let workload = args.workload;
    let config = workload.config(args.seed);
    let participants =
        (config.population.consumers as u64 + config.population.providers as u64).max(1);

    // Warm-up run: untimed for throughput, but it is the one run that
    // starts from a fresh heap, so it carries the memory measurement.
    let (rss_before, _) = rss_and_peak();
    let (_, _, warmup) = timed_run(config)?;
    let (_, peak) = rss_and_peak();
    let rss_growth = peak.saturating_sub(rss_before);

    // Quality panel: the run's seed plus derived arrival seeds. Mediated
    // workloads read it off the inline backend, which must agree with
    // them bit for bit (checked below on the run's seed).
    let mediated = config.mediation != MediationMode::Inline;
    let mut panel = Vec::new();
    for index in 0..workload.quality_panel() {
        let mut twin = workload.config(panel_seed(args.seed, index));
        if mediated {
            twin = twin.with_mediation(MediationMode::Inline);
        } else if index == 0 {
            panel.push(warmup.clone());
            continue;
        }
        panel.push(timed_run(twin)?.2);
    }

    let mut setups = Vec::new();
    let mut runs = Vec::new();
    let mut reports = Vec::new();
    let clock = Instant::now();
    while runs.len() < MIN_RUNS || clock.elapsed().as_secs_f64() < args.seconds {
        let (setup, run, report) = timed_run(config)?;
        setups.push(setup);
        runs.push(report.issued_queries as f64 / run);
        reports.push(report);
    }
    let measured_secs = clock.elapsed().as_secs_f64();
    while setups.len() < MIN_SETUPS {
        let start = Instant::now();
        let simulator = Simulator::new(config, Method::Sqlb).map_err(|e| e.to_string())?;
        setups.push(start.elapsed().as_secs_f64());
        drop(simulator);
    }

    let digest = warmup.digest();
    let all: Vec<&SimulationReport> = std::iter::once(&warmup).chain(&reports).collect();
    let mut checks = vec![
        Check {
            name: "repeatable",
            passed: all.iter().all(|r| r.digest() == digest),
            detail: format!("{} runs, digest {digest:016x}", all.len()),
        },
        pinned_check(workload, args.seed, digest),
    ];
    if mediated {
        let inline = panel[0].digest();
        checks.push(Check {
            name: "backends",
            passed: inline == digest,
            detail: format!(
                "{} {digest:016x}, inline {inline:016x}",
                config.mediation.name()
            ),
        });
    }
    let timeouts: u64 = all.iter().map(|r| r.indifferent_replies).sum();
    let degraded: u64 = all.iter().map(|r| r.degraded_waves).sum();
    checks.push(Check {
        name: "fault_free",
        passed: timeouts == 0 && degraded == 0,
        detail: format!("replies timed out {timeouts}, degraded waves {degraded}"),
    });
    let (attempted, failed) = failed_ops(&all, &checks);

    let mean_over_panel = |f: &dyn Fn(&SimulationReport) -> f64| {
        panel.iter().map(f).sum::<f64>() / panel.len() as f64
    };
    let metrics = vec![
        Metric {
            name: "allocs_per_s",
            value: median(&runs),
            unit: "1/s",
        },
        Metric {
            name: "setup_s",
            value: median(&setups),
            unit: "s",
        },
        Metric {
            name: "rss_bytes_per_participant",
            value: rss_growth as f64 / participants as f64,
            unit: "B",
        },
        Metric {
            name: "provider_retention",
            value: mean_over_panel(&|r| r.provider_retention()),
            unit: "ratio",
        },
        Metric {
            name: "provider_satisfaction",
            value: mean_over_panel(&|r| r.final_provider_satisfaction.mean),
            unit: "ratio",
        },
        Metric {
            name: "utilization_fairness",
            value: mean_over_panel(&|r| r.final_utilization.fairness),
            unit: "ratio",
        },
        Metric {
            name: "mean_response_s",
            value: mean_over_panel(&|r| r.mean_response_time()),
            unit: "sim_s",
        },
    ];

    println!(
        "workload {} seed {}: {} timed runs in {measured_secs:.1} s after one warm-up run; \
         quality over {} arrival seed(s); {participants} participants",
        workload.name(),
        args.seed,
        runs.len(),
        panel.len()
    );
    for metric in &metrics {
        let how = match metric.name {
            "allocs_per_s" => format!(
                "{}; runs {:.0?}",
                describe(&runs),
                runs.iter().map(|r| r.round()).collect::<Vec<_>>()
            ),
            "setup_s" => describe(&setups),
            "rss_bytes_per_participant" => {
                format!("peak growth {rss_growth} B over the warm-up run")
            }
            _ => format!("mean over {} report(s)", panel.len()),
        };
        println!(
            "  {:<26} {:>16.6} {:<6} {how}",
            metric.name, metric.value, metric.unit
        );
    }
    println!(
        "  operations: attempted {attempted} queries, failed {failed} ({:.4} %)",
        100.0 * stats::failed_share(attempted, failed)
    );
    print_checks(&checks);
    Ok(Outcome {
        correct: checks.iter().all(|c| c.passed),
        attempted,
        failed,
        metrics,
    })
}

/// Number of occurrences of a periodic event in `(0, duration]`,
/// scheduled at `tick × interval` like the engine does.
fn periodic_rounds(interval: f64, duration: f64) -> u64 {
    let mut rounds = 0;
    while (rounds + 1) as f64 * interval <= duration {
        rounds += 1;
    }
    rounds
}

fn counter(snapshot: &ObsSnapshot, name: &str) -> f64 {
    snapshot.counter(name).unwrap_or(0) as f64
}

fn traced(args: &Args) -> Result<Outcome, String> {
    let workload = args.workload;
    let config = workload.config(args.seed);
    let clock = Instant::now();

    // The engine with its own instrumentation on: the exact counters of
    // its mediation backend (waves, requests, frames, bytes, timeouts)
    // and the gather-latency histogram.
    let simulator =
        Simulator::new(config.with_observability(true), Method::Sqlb).map_err(|e| e.to_string())?;
    let obs = simulator.obs().clone();
    let observed = simulator.run();
    let snapshot = obs.snapshot();

    // The traced replay on the workload's own backend, then the wire: the
    // socket transport and the codec on the workload's own arrivals. A
    // socket workload's replay already crossed the wire; a reactor
    // workload's arrivals are replayed once more over the socket backend,
    // which answers bit-identically (the cross-backend contract, checked
    // below with the other replay counts).
    let main = traced_replay(config)?;
    let extra_wire = match config.mediation {
        MediationMode::Reactor => {
            Some(traced_replay(config.with_mediation(MediationMode::Socket))?)
        }
        _ => None,
    };
    let wire = match config.mediation {
        MediationMode::Socket => Some(&main),
        _ => extra_wire.as_ref(),
    };

    // The engine-private sample sweep, by difference: untraced runs of
    // the workload alternating with runs whose sample interval lies past
    // the horizon. The base runs also give the untraced wall time the
    // tracing overhead is judged against.
    let mut no_sample = config;
    no_sample.sample_interval_secs = config.duration_secs * 2.0;
    let mut base_walls = Vec::new();
    let mut no_sample_walls = Vec::new();
    let mut base_reports = Vec::new();
    while base_walls.len() < MIN_SWEEP_PAIRS || clock.elapsed().as_secs_f64() < args.seconds {
        let (_, wall, report) = timed_run(config)?;
        base_walls.push(wall);
        base_reports.push(report);
        no_sample_walls.push(timed_run(no_sample)?.1);
    }

    let replayed = &main.outcome;
    let sample_rounds = periodic_rounds(config.sample_interval_secs, config.duration_secs);
    let loop_wall = (replayed.loop_end_ns - replayed.loop_start_ns) as f64;
    let rows = layer_rows(&main.spans);
    let row = |name: &str| rows.get(name).copied().unwrap_or_default();
    let per = |name: &str, denominator: f64| ratio(row(name).total_ns as f64, denominator);
    let per_call = |name: &str| per(name, row(name).count as f64);

    // Time inside events that some layer span covers.
    let event_ids: HashSet<u32> = main
        .spans
        .iter()
        .filter(|s| s.name == "sim.event")
        .map(|s| s.id)
        .collect();
    let layer_ns: u64 = main
        .spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| event_ids.contains(&p)))
        .map(Span::duration_ns)
        .sum();
    let unattributed = ratio(loop_wall - layer_ns as f64, loop_wall);
    let reactor_waves = durations_of(&main.spans, "reactor.wave");
    let candidates = replayed.candidates as f64;
    let base_wall = median(&base_walls);
    let sample_ms = ratio(
        (base_wall - median(&no_sample_walls)) * 1e3,
        sample_rounds as f64,
    );

    let metric = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let mut metrics = vec![
        metric("sim.route.ns_per_arrival", per_call("sim.route"), "ns"),
        metric("sim.sample.ms_per_round", sample_ms, "ms"),
        metric("sim.sample.rounds", sample_rounds as f64, "count"),
        metric(
            "sim.assessment.ms_per_round",
            per_call("sim.assessment") / 1e6,
            "ms",
        ),
        metric("sim.sync.ms_per_round", per_call("sim.sync") / 1e6, "ms"),
        metric(
            "sim.rebalance.ms_per_round",
            per_call("sim.rebalance") / 1e6,
            "ms",
        ),
        metric("sim.migrations", replayed.migrations as f64, "count"),
        metric(
            "sim.events",
            (replayed.events + sample_rounds) as f64,
            "count",
        ),
        metric(
            "sim.loop.self_ns_per_event",
            ratio(row("sim.event").self_ns as f64, replayed.events as f64),
            "ns",
        ),
        metric("sim.unattributed_share", unattributed, "ratio"),
        metric(
            "agents.intention.ns_per_candidate",
            per("agents.intention", candidates),
            "ns",
        ),
        metric(
            "agents.record.ns_per_arrival",
            per_call("agents.record"),
            "ns",
        ),
        metric(
            "agents.complete.ns_per_completion",
            per_call("agents.complete"),
            "ns",
        ),
        metric(
            "agents.departures",
            (replayed.provider_departures + replayed.consumer_departures) as f64,
            "count",
        ),
        metric(
            "core.allocate.ns_per_candidate",
            per("core.allocate", candidates),
            "ns",
        ),
        metric(
            "core.candidates_per_arrival",
            ratio(candidates, row("core.allocate").count as f64),
            "count",
        ),
        metric(
            "reactor.wave_us.p50",
            percentile(&reactor_waves, 50.0) / 1e3,
            "us",
        ),
        metric(
            "reactor.wave_us.p99",
            percentile(&reactor_waves, 99.0) / 1e3,
            "us",
        ),
        metric(
            "reactor.requests_per_wave",
            ratio(
                counter(&snapshot, "reactor_requests_delivered"),
                counter(&snapshot, "reactor_waves"),
            ),
            "count",
        ),
    ];
    metrics.extend(wire_metrics(wire));
    metrics.extend([
        metric(
            "setup.population_ms",
            per_call("setup.population") / 1e6,
            "ms",
        ),
        metric("setup.router_ms", per_call("setup.router") / 1e6, "ms"),
        metric("setup.backend_ms", per_call("setup.backend") / 1e6, "ms"),
        metric(
            "trace.overhead_ratio",
            ratio(loop_wall / 1e9, base_wall),
            "ratio",
        ),
    ]);

    // Correctness.
    let digest = observed.digest();
    let mut checks = vec![
        Check {
            name: "repeatable",
            passed: base_reports.iter().all(|r| r.digest() == digest),
            detail: format!(
                "{} untraced runs and the observed run, digest {digest:016x}",
                base_reports.len()
            ),
        },
        pinned_check(workload, args.seed, digest),
    ];
    let engine = ReplayCounts::of_report(&observed);
    for (traced, backend) in std::iter::once((&main, config.mediation))
        .chain(extra_wire.as_ref().map(|w| (w, MediationMode::Socket)))
    {
        let counts = ReplayCounts::of_replay(&traced.outcome);
        checks.push(Check {
            name: "replay",
            passed: counts == engine,
            detail: format!(
                "{} replay: issued {}/{}, completed {}/{}, departures {:?}/{:?}, migrations {}/{} \
                 (replay/engine)",
                backend.name(),
                counts.issued,
                engine.issued,
                counts.completed,
                engine.completed,
                counts.departures,
                engine.departures,
                counts.migrations,
                engine.migrations
            ),
        });
    }
    let wire_timeouts = wire.map_or(0, |w| counter(&w.snapshot, "replies_timed_out") as u64);
    let timed_out = counter(&snapshot, "replies_timed_out") as u64
        + counter(&snapshot, "reactor_replies_timed_out") as u64
        + wire_timeouts;
    let replay_degraded = replayed.degraded_replies
        + extra_wire
            .as_ref()
            .map_or(0, |w| w.outcome.degraded_replies);
    checks.push(Check {
        name: "fault_free",
        passed: timed_out == 0 && observed.degraded_waves == 0 && replay_degraded == 0,
        detail: format!(
            "replies timed out {timed_out}, degraded waves {}, replay degraded {replay_degraded}",
            observed.degraded_waves
        ),
    });
    if let Some(wire) = wire {
        let codec = &wire.codec;
        checks.push(Check {
            name: "codec",
            passed: codec.round_trip_ok,
            detail: format!(
                "{} frames encoded, {} decoded, {} replies credited",
                codec.frames_encoded, codec.frames_decoded, codec.replies_credited
            ),
        });
    }
    let all: Vec<&SimulationReport> = std::iter::once(&observed).chain(&base_reports).collect();
    let (attempted, failed) = failed_ops(&all, &checks);

    let span_dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let span_path = |suffix: &str| {
        std::path::Path::new(&span_dir)
            .join("spans")
            .join(format!("{}{suffix}.tsv", workload.name()))
    };
    let mut written = Vec::new();
    for (traced, suffix) in
        std::iter::once((&main, "")).chain(extra_wire.as_ref().map(|w| (w, "-socket")))
    {
        let path = span_path(suffix);
        write_spans(&path, &traced.spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        written.push(format!(
            "{} spans to {}",
            traced.spans.len(),
            path.display()
        ));
    }

    println!(
        "workload {} seed {}: traced replay of {} events; {} base / no-sample run pairs; wrote {}",
        workload.name(),
        args.seed,
        replayed.events,
        base_walls.len(),
        written.join(", ")
    );
    print_layer_table(&rows, loop_wall);
    if let Some(extra) = &extra_wire {
        println!("  the same arrivals replayed over the socket backend:");
        let wire_wall = (extra.outcome.loop_end_ns - extra.outcome.loop_start_ns) as f64;
        print_layer_table(&layer_rows(&extra.spans), wire_wall);
    }
    print_snapshot("engine", &snapshot);
    if let Some(wire) = wire {
        print_snapshot("socket replay", &wire.snapshot);
    }
    println!(
        "  sim.unattributed_share {unattributed:.4}  (replay loop time outside every layer span)"
    );
    println!(
        "  tracing overhead {:.3}x  (traced replay {:.3} s / untraced Simulator::run {:.3} s, {})",
        ratio(loop_wall / 1e9, base_wall),
        loop_wall / 1e9,
        base_wall,
        describe(&base_walls)
    );
    println!(
        "  sample sweep by difference: {sample_rounds} rounds, base {}, no-sample {}",
        describe(&base_walls),
        describe(&no_sample_walls)
    );
    for m in &metrics {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("  operations: attempted {attempted} queries, failed {failed}");
    print_checks(&checks);
    Ok(Outcome {
        correct: checks.iter().all(|c| c.passed),
        attempted,
        failed,
        metrics,
    })
}

/// One traced replay: what it did, its spans, the counters of the
/// `sqlb-obs` handle planted in its mediation backend, and the codec pass
/// over its socket waves (empty unless it crossed the wire).
struct Traced {
    outcome: replay::ReplayOutcome,
    spans: Vec<Span>,
    snapshot: ObsSnapshot,
    codec: replay::CodecOutcome,
}

fn traced_replay(config: SimulationConfig) -> Result<Traced, String> {
    let tracer = Tracer::new();
    let obs = Obs::enabled();
    let outcome = replay::replay(config, Method::Sqlb, &tracer, &obs)?;
    let codec = replay::codec_pass(&outcome.waves, config.socket_hosts, &tracer);
    Ok(Traced {
        outcome,
        spans: tracer.into_spans(),
        snapshot: obs.snapshot(),
        codec,
    })
}

/// The counts a replay must share with the engine's report.
#[derive(Debug, PartialEq)]
struct ReplayCounts {
    issued: u64,
    completed: u64,
    unallocated: u64,
    departures: (u64, u64),
    migrations: u64,
    rebalance_rounds: u64,
    sync_rounds: u64,
    allocations_per_shard: Vec<u64>,
}

impl ReplayCounts {
    fn of_report(r: &SimulationReport) -> Self {
        ReplayCounts {
            issued: r.issued_queries,
            completed: r.completed_queries,
            unallocated: r.unallocated_queries,
            departures: (
                r.provider_departures.len() as u64,
                r.consumer_departures.len() as u64,
            ),
            migrations: r.migrations.len() as u64,
            rebalance_rounds: r.rebalance_rounds,
            sync_rounds: r.sync_rounds,
            allocations_per_shard: r.shard_allocations.clone(),
        }
    }

    fn of_replay(r: &replay::ReplayOutcome) -> Self {
        ReplayCounts {
            issued: r.issued,
            completed: r.completed,
            unallocated: r.unallocated,
            departures: (r.provider_departures, r.consumer_departures),
            migrations: r.migrations,
            rebalance_rounds: r.rebalance_rounds,
            sync_rounds: r.sync_rounds,
            allocations_per_shard: r.allocations_per_shard.clone(),
        }
    }
}

/// The transport and protocol metrics of the replay that crossed the
/// wire; all 0 for a workload whose traced run has none.
fn wire_metrics(wire: Option<&Traced>) -> Vec<Metric> {
    let empty = Traced {
        outcome: replay::ReplayOutcome::default(),
        spans: Vec::new(),
        snapshot: ObsSnapshot::default(),
        codec: replay::CodecOutcome::default(),
    };
    let wire = wire.unwrap_or(&empty);
    let rows = layer_rows(&wire.spans);
    let per = |name: &str, denominator: f64| {
        ratio(rows.get(name).map_or(0, |r| r.total_ns) as f64, denominator)
    };
    let snapshot = &wire.snapshot;
    let waves = counter(snapshot, "waves_begun");
    let gather = snapshot
        .histogram("wave_gather_seconds")
        .unwrap_or_default();
    let codec = &wire.codec;
    let metric = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        metric("transport.wave_us.p50", gather.p50 * 1e6, "us"),
        metric("transport.wave_us.p99", gather.p99 * 1e6, "us"),
        metric(
            "transport.host_wait_us_per_wave",
            host_wait_per_wave(&wire.spans) / 1e3,
            "us",
        ),
        metric(
            "transport.queries_per_wave",
            ratio(wire.outcome.issued as f64, waves),
            "count",
        ),
        metric(
            "transport.bytes_per_wave",
            ratio(
                counter(snapshot, "bytes_in") + counter(snapshot, "bytes_out"),
                waves,
            ),
            "B",
        ),
        metric(
            "transport.frames_per_wave",
            ratio(
                counter(snapshot, "requests_delivered") + counter(snapshot, "frames_reassembled"),
                waves,
            ),
            "count",
        ),
        metric(
            "transport.replies_timed_out",
            counter(snapshot, "replies_timed_out"),
            "count",
        ),
        metric(
            "protocol.encode.ns_per_frame",
            per("protocol.encode", codec.frames_encoded as f64),
            "ns",
        ),
        metric(
            "protocol.decode.ns_per_frame",
            per("protocol.decode", codec.frames_decoded as f64),
            "ns",
        ),
        metric(
            "protocol.reassemble.ns_per_kb",
            per(
                "protocol.reassemble",
                codec.bytes_reassembled as f64 / 1024.0,
            ),
            "ns",
        ),
        metric(
            "transport.credit.ns_per_reply",
            per("transport.credit", codec.replies_credited as f64),
            "ns",
        ),
    ]
}

/// Mean, over socket waves, of the time some host thread was computing
/// an answer: the union of a gather span's answer children.
fn host_wait_per_wave(spans: &[Span]) -> f64 {
    let gathers: HashSet<u32> = spans
        .iter()
        .filter(|s| s.name == "transport.gather")
        .map(|s| s.id)
        .collect();
    if gathers.is_empty() {
        return 0.0;
    }
    let mut children: std::collections::HashMap<u32, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if let Some(parent) = s.parent.filter(|p| gathers.contains(p)) {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let total: u64 = children
        .values_mut()
        .map(|kids| covered_ns(kids, 0, u64::MAX))
        .sum();
    total as f64 / gathers.len() as f64
}

fn print_layer_table(
    rows: &std::collections::BTreeMap<&'static str, trace::LayerRow>,
    wall_ns: f64,
) {
    println!(
        "  {:<20} {:>10} {:>12} {:>12} {:>8} {:>8}",
        "span", "count", "total ms", "self ms", "total %", "self %"
    );
    for (name, row) in rows {
        println!(
            "  {:<20} {:>10} {:>12.3} {:>12.3} {:>8.2} {:>8.2}",
            name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            100.0 * ratio(row.total_ns as f64, wall_ns),
            100.0 * ratio(row.self_ns as f64, wall_ns),
        );
    }
    println!(
        "  (shares are of the replay loop's wall time; setup, protocol and credit spans run outside it)"
    );
}

fn print_snapshot(source: &str, snapshot: &ObsSnapshot) {
    for (name, value) in &snapshot.counters {
        println!("  obs {source}: {name:<36} {value}");
    }
    for (name, h) in &snapshot.histograms {
        println!(
            "  obs {source}: {name:<36} n={} p50={:.9}s p99={:.9}s max={:.9}s",
            h.count, h.p50, h.p99, h.max
        );
    }
}
