//! Self-contained loopback smoke test of the socket mediation path:
//! a wave server plus `participant_host` processes over 127.0.0.1 (and
//! a Unix-domain socket when requested), exercising hello → waves →
//! notices → shutdown → goodbye end to end and verifying every reply
//! value against the shared demo formulas.
//!
//! ```text
//! wave_server_demo [--hosts N] [--consumers N] [--providers N]
//!                  [--waves N] [--spawn] [--uds] [--stats]
//! ```
//!
//! With `--spawn` the participant hosts run as separate OS processes
//! (the sibling `participant_host` binary); otherwise they run as
//! in-process threads on the library. `--uds` moves host 0 onto a
//! Unix-domain socket so both transports are exercised in one run.
//! Waves run one at a time, and every reply value is verified against
//! its own wave's formulas. `--stats` enables the `sqlb-obs`
//! instrumentation and exercises the live introspection endpoint: a
//! dedicated stats client (no endpoints) sends a `StatsRequest` to the
//! serving wave server mid-run, and the answered snapshot must carry
//! non-zero wave counters; it is printed in both the Prometheus text
//! and the JSON rendering. Exits non-zero on any divergence — usable
//! directly as a CI gate.

use std::process::{Child, Command, ExitCode};
use std::time::Duration;

use sqlb_core::allocation::Allocation;
use sqlb_obs::{Obs, ObsSnapshot};
use sqlb_transport::demo::{
    consumer_intention, host_range, provider_intention, provider_utilization, DemoConsumer,
    DemoProvider,
};
use sqlb_transport::{ParticipantHost, ServerConfig, WaveServer};
use sqlb_types::{ConsumerId, ProviderId, Query, QueryClass, QueryId, SimTime};

struct Args {
    hosts: u32,
    consumers: u32,
    providers: u32,
    waves: u32,
    spawn: bool,
    uds: bool,
    stats: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        hosts: 2,
        consumers: 8,
        providers: 64,
        waves: 3,
        spawn: false,
        uds: false,
        stats: false,
    };
    let mut raw = std::env::args().skip(1);
    while let Some(flag) = raw.next() {
        let mut number = |name: &str| -> Result<u32, String> {
            raw.next()
                .and_then(|v| v.parse().ok())
                .ok_or(format!("{name} needs a number"))
        };
        match flag.as_str() {
            "--hosts" => args.hosts = number("--hosts")?.max(1),
            "--consumers" => args.consumers = number("--consumers")?.max(1),
            "--providers" => args.providers = number("--providers")?.max(1),
            "--waves" => args.waves = number("--waves")?.max(1),
            "--spawn" => args.spawn = true,
            "--uds" => args.uds = true,
            "--stats" => args.stats = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if cfg!(not(unix)) && args.uds {
        return Err("--uds requires a unix platform".into());
    }
    Ok(args)
}

enum Host {
    Process(Child),
    Thread(std::thread::JoinHandle<std::io::Result<sqlb_transport::HostReport>>),
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("wave_server_demo: {message}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => {
            println!("wave_server_demo: ok");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("wave_server_demo: FAILED: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let mut server = WaveServer::new(ServerConfig {
        timeout: Duration::from_secs(10),
        request_bids: false,
    });
    if args.stats {
        let obs = Obs::enabled();
        // A crash mid-demo leaves the flight recorder's trace on stderr.
        obs.install_panic_dump();
        server.set_obs(obs);
    }
    let addr = server
        .listen_tcp("127.0.0.1:0")
        .map_err(|e| format!("tcp bind: {e}"))?;
    let uds_path = std::env::temp_dir().join(format!("sqlb-wave-{}.sock", std::process::id()));
    if args.uds {
        #[cfg(unix)]
        server
            .listen_uds(&uds_path)
            .map_err(|e| format!("uds bind: {e}"))?;
    }

    // Launch the participant hosts: contiguous id ranges, host 0 over
    // the Unix-domain socket when requested, the rest over TCP.
    let mut hosts: Vec<Host> = Vec::new();
    for h in 0..args.hosts {
        let consumers = host_range(args.consumers, args.hosts, h);
        let providers = host_range(args.providers, args.hosts, h);
        let use_uds = args.uds && h == 0;
        if args.spawn {
            let sibling = std::env::current_exe()
                .ok()
                .and_then(|exe| exe.parent().map(|dir| dir.join("participant_host")))
                .ok_or("cannot locate the participant_host binary")?;
            let mut command = Command::new(sibling);
            if use_uds {
                command.arg("--uds").arg(&uds_path);
            } else {
                command.arg("--tcp").arg(addr.to_string());
            }
            command
                .arg("--consumers")
                .arg(format!("{}..{}", consumers.start, consumers.end))
                .arg("--providers")
                .arg(format!("{}..{}", providers.start, providers.end))
                .arg("--label")
                .arg(format!("h{h}"));
            hosts.push(Host::Process(
                command
                    .spawn()
                    .map_err(|e| format!("spawn host {h}: {e}"))?,
            ));
        } else {
            let uds_path = uds_path.clone();
            hosts.push(Host::Thread(std::thread::spawn(move || {
                let mut host = if use_uds {
                    #[cfg(unix)]
                    {
                        ParticipantHost::connect_uds(&uds_path)?
                    }
                    #[cfg(not(unix))]
                    {
                        unreachable!("--uds is rejected on non-unix platforms")
                    }
                } else {
                    ParticipantHost::connect_tcp(addr)?
                };
                for c in consumers {
                    host.add_consumer(ConsumerId::new(c), DemoConsumer(ConsumerId::new(c)));
                }
                for p in providers {
                    host.add_provider(ProviderId::new(p), DemoProvider(ProviderId::new(p)));
                }
                host.announce()?;
                host.serve()
            })));
        }
    }

    server
        .accept_hosts(args.hosts as usize, Duration::from_secs(20))
        .map_err(|e| format!("accept: {e}"))?;
    if server.provider_count() != args.providers as usize
        || server.consumer_count() != args.consumers as usize
    {
        return Err(format!(
            "hello registration mismatch: {} consumers / {} providers registered",
            server.consumer_count(),
            server.provider_count()
        ));
    }

    // Each wave: every provider is the candidate of exactly one query
    // (the last query takes the shorter tail when the provider count is
    // not a multiple of the candidate-set size), queries round-robin
    // over the consumers — the batch that touches the whole endpoint
    // population once, so every single reply value gets verified.
    let candidates_per_query = 16u32.min(args.providers);
    let batches: Vec<Vec<(Query, Vec<ProviderId>)>> = (0..args.waves)
        .map(|wave| {
            (0..args.providers.div_ceil(candidates_per_query))
                .map(|i| {
                    let consumer = ConsumerId::new(i % args.consumers);
                    let query = Query::single(
                        QueryId::new(wave * 1_000_000 + i),
                        consumer,
                        QueryClass::Light,
                        SimTime::from_secs(wave as f64),
                    );
                    let first = i * candidates_per_query;
                    let last = (first + candidates_per_query).min(args.providers);
                    let candidates = (first..last).map(ProviderId::new).collect();
                    (query, candidates)
                })
                .collect()
        })
        .collect();

    // Verify every reply of each wave against the shared demo formulas,
    // then exercise the notification path for its first query.
    for (wave, batch) in batches.iter().enumerate() {
        let infos = server.gather(batch);
        let round = server.last_round();
        if round.timed_out != 0 {
            return Err(format!(
                "wave {wave}: {} of {} requests timed out",
                round.timed_out, round.delivered
            ));
        }
        for ((query, candidates), query_infos) in batch.iter().zip(&infos) {
            for (&p, info) in candidates.iter().zip(query_infos) {
                let expected_pi = provider_intention(p);
                let expected_ci = consumer_intention(query.consumer, p);
                let expected_ut = provider_utilization(p);
                if info.provider_intention != expected_pi
                    || info.consumer_intention != expected_ci
                    || info.utilization != expected_ut
                {
                    return Err(format!(
                        "wave {wave}: {} answered ({}, {}, {}), expected ({expected_pi}, {expected_ci}, {expected_ut})",
                        p, info.provider_intention, info.consumer_intention, info.utilization
                    ));
                }
            }
        }
        if let Some((query, candidates)) = batch.first() {
            let allocation = Allocation {
                query: query.id,
                selected: vec![candidates[0]],
            };
            server.notify(query, candidates, &allocation);
        }
        println!(
            "wave_server_demo: wave {wave} ok — {} endpoint requests in {:.3} ms over {} connections",
            round.delivered,
            round.elapsed.as_secs_f64() * 1e3,
            server.connection_count(),
        );
        // Mid-run, between waves: the server keeps serving after
        // answering the introspection request.
        if args.stats && wave == 0 {
            exchange_stats(&mut server, addr)?;
        }
    }

    if args.stats {
        let final_waves = server
            .stats_snapshot()
            .counters
            .iter()
            .find(|(name, _)| name == "waves_begun")
            .map_or(0, |&(_, value)| value);
        if final_waves != args.waves as u64 {
            return Err(format!(
                "final snapshot reports {final_waves} waves begun, expected {}",
                args.waves
            ));
        }
    }

    server.shutdown();
    for (h, host) in hosts.into_iter().enumerate() {
        match host {
            Host::Process(mut child) => {
                let status = child
                    .wait()
                    .map_err(|e| format!("waiting for host {h}: {e}"))?;
                if !status.success() {
                    return Err(format!("host process {h} exited with {status}"));
                }
            }
            Host::Thread(handle) => {
                let report = handle
                    .join()
                    .map_err(|_| format!("host thread {h} panicked"))?
                    .map_err(|e| format!("host thread {h}: {e}"))?;
                if !report.clean_shutdown || report.waves_served != args.waves as u64 {
                    return Err(format!(
                        "host thread {h} report {report:?} is not a clean {}-wave run",
                        args.waves
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Exercises the live introspection endpoint against the serving
/// `server`: a dedicated stats client (announcing no endpoints)
/// connects, sends a stats request and blocks on the reply while this
/// thread accepts the connection and pumps
/// [`WaveServer::service_stats`]. The answered snapshot must carry
/// non-zero wave counters for the run so far; it is printed in both the
/// Prometheus text and the JSON rendering.
fn exchange_stats(server: &mut WaveServer, addr: std::net::SocketAddr) -> Result<(), String> {
    let client = std::thread::spawn(move || -> std::io::Result<ObsSnapshot> {
        let mut client = ParticipantHost::connect_tcp(addr)?;
        client.announce()?;
        client.request_stats()
    });
    server
        .accept_host(Duration::from_secs(10))
        .map_err(|e| format!("accepting the stats client: {e}"))?;
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while !client.is_finished() {
        if std::time::Instant::now() > deadline {
            return Err("the stats reply was not served within 20 s".into());
        }
        server.service_stats(Duration::from_millis(20));
    }
    let snapshot = client
        .join()
        .map_err(|_| "stats client panicked".to_string())?
        .map_err(|e| format!("stats request: {e}"))?;
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, value)| value)
    };
    let waves = counter("waves_begun");
    let credited = counter("replies_credited");
    if waves == 0 || credited == 0 {
        return Err(format!(
            "stats snapshot reports {waves} waves / {credited} credited replies — expected non-zero"
        ));
    }
    println!(
        "wave_server_demo: live stats snapshot — {waves} waves begun, {credited} replies credited"
    );
    println!("--- prometheus ---\n{}", snapshot.to_prometheus_text());
    println!("--- json ---\n{}", snapshot.to_json());
    Ok(())
}
