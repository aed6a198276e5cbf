//! Shared benchmark configurations and by-hand wall-clock measurements.
//!
//! Nothing here gates and nothing here writes a file. The benchmark
//! every performance claim cites is `perfbench/` (its `scale-100k`
//! workload is built from [`scale_config`]); the CI gates are exact
//! counts, which do not drift with host speed: heap allocations in
//! `tests/allocation_counts.rs` (including every [`bench_config`] shard
//! count) and socket wire counters in `tests/observability.rs`. The
//! measurements below only print, from the `allocation` and
//! `transport_scaling` benches and the `scale_1m` binary.
//!
//! `BENCH_allocation.json` at the repository root is a frozen historical
//! record taken on other hardware; no code reads or writes it, and its
//! numbers are not comparable with a fresh run.

use std::io;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sqlb_mediation::{ConsumerEndpoint, ProviderEndpoint};
use sqlb_sim::engine::{run_simulation, Simulator};
use sqlb_sim::{Method, SimulationConfig, WorkloadPattern};
use sqlb_transport::{HostReport, ParticipantHost, ServerConfig, WaveServer};
use sqlb_types::{ConsumerId, ProviderId, Query, QueryClass, QueryId, SimTime};

/// Shard counts the throughput comparison sweeps.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Consumers in the benchmark population.
pub const CONSUMERS: u32 = 32;
/// Providers in the benchmark population.
pub const PROVIDERS: u32 = 64;
/// Virtual duration of one benchmark run, in seconds.
pub const DURATION_SECS: f64 = 400.0;
/// Workload fraction of the benchmark runs.
pub const WORKLOAD: f64 = 0.6;
/// Seed of the benchmark runs.
pub const SEED: u64 = 7;
/// Allocation method under measurement.
pub const METHOD: Method = Method::Sqlb;

/// Participant counts of the `scale_1m` benchmark: the
/// paper-extrapolation point and the million-participant point.
pub const SCALE_POINTS: [u64; 2] = [100_000, 1_000_000];
/// Seed of the scale runs.
pub const SCALE_SEED: u64 = 11;
/// Virtual duration of one scale run, in seconds. Short on purpose: at
/// 10^6 participants the arrival rate is hundreds of thousands of queries
/// per virtual second, so two seconds already allocate a six-figure query
/// count.
pub const SCALE_DURATION_SECS: f64 = 2.0;
/// Workload fraction of the scale runs.
pub const SCALE_WORKLOAD: f64 = 0.3;
/// Target providers per mediator shard at scale — the candidate set each
/// arrival scores, kept near the paper's 64-provider system so per-query
/// work stays paper-like while the population grows.
pub const SCALE_SHARD_FANOUT: usize = 96;

/// One measured socket-transport wave round (the `transport_scaling`
/// bench): how long one mediation wave touching every endpoint takes
/// over loopback sockets.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportMeasurement {
    /// Participant endpoints touched by the wave.
    pub endpoints: usize,
    /// Participant-host connections the endpoints were multiplexed over.
    pub hosts: usize,
    /// Best-of-N wall clock of one full wave round, in milliseconds.
    pub round_ms: f64,
    /// Median-of-N wall clock of the same rounds, in milliseconds — the
    /// dispersion companion to the best-of-N `round_ms`.
    pub median_ms: f64,
    /// Best-of-N wall clock of the *pipelined* round, in milliseconds:
    /// the same batch split into [`TRANSPORT_PIPELINE_SUBWAVES`]
    /// sub-waves driven through `begin_wave`/`collect_wave` with up to
    /// [`TRANSPORT_PIPELINE_DEPTH`] waves in flight, so encoding wave
    /// `t+1` overlaps collecting wave `t`.
    pub pipelined_ms: f64,
}

/// One measured scale point of the `scale_1m` benchmark: a full
/// simulation run at a large participant count, plus the memory footprint
/// the participant state costs.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleMeasurement {
    /// Total participants (consumers + providers).
    pub participants: u64,
    /// Consumers in the population.
    pub consumers: u32,
    /// Providers in the population.
    pub providers: u32,
    /// Mediator shards the providers were partitioned across.
    pub mediator_shards: usize,
    /// Queries issued (and allocated) by the run.
    pub issued_queries: u64,
    /// Wall clock of the measured run, in milliseconds (single run — a
    /// million-participant run is too slow for best-of-N).
    pub wall_ms: f64,
    /// `issued_queries / wall` in allocations per second.
    pub allocations_per_sec: f64,
    /// Resident-set growth of constructing the simulator (population,
    /// shards, engine state), divided by the participant count.
    pub bytes_per_participant: f64,
}

/// The observability cost comparison: the same seeded engine run timed
/// with instrumentation off (the default, a single-branch no-op path)
/// and on (counters, histograms and the flight recorder live), so the
/// "zero overhead when off" claim stays a measured number, not a comment.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsOverheadMeasurement {
    /// Best-of-N wall clock of the uninstrumented run, in milliseconds.
    pub off_wall_ms: f64,
    /// Best-of-N wall clock of the instrumented run, in milliseconds.
    pub on_wall_ms: f64,
    /// `(on - off) / off`, in percent. Negative values are noise (the
    /// instrumented run happened to win the wall-clock lottery).
    pub overhead_pct: f64,
}

/// The benchmark configuration for a shard count.
pub fn bench_config(shards: usize) -> SimulationConfig {
    SimulationConfig::scaled(CONSUMERS, PROVIDERS, DURATION_SECS, SEED)
        .with_workload(WorkloadPattern::Fixed(WORKLOAD))
        .with_mediator_shards(shards)
}

/// The configuration of one scale point: participants split 1:2 between
/// consumers and providers (the paper's 200:400 ratio), providers
/// partitioned into shards of roughly [`SCALE_SHARD_FANOUT`], and
/// hash-derived (procedural) consumer preferences — the dense `C × P`
/// table is the memory wall this configuration exists to avoid.
pub fn scale_config(participants: u64, seed: u64) -> SimulationConfig {
    let consumers = (participants / 3).max(1) as u32;
    let providers = participants.saturating_sub(consumers as u64).max(1) as u32;
    let shards = (providers as usize).div_ceil(SCALE_SHARD_FANOUT).max(1);
    let mut config = SimulationConfig::scaled(consumers, providers, SCALE_DURATION_SECS, seed)
        .with_workload(WorkloadPattern::Fixed(SCALE_WORKLOAD))
        .with_mediator_shards(shards)
        // No sync round inside the measured window: the all-to-all digest
        // exchange is O(shards × consumers) by design, so at hundreds of
        // shards it would swamp the per-allocation cost this row exists
        // to measure (the transport and reactor benchmark rows cover
        // synchronization scaling separately).
        .with_sync_interval(SCALE_DURATION_SECS * 8.0);
    config.population.procedural_preferences = true;
    // Keep the paper's *absolute* window sizes: the population-scaled
    // window heuristic is calibrated for small test populations and would
    // ask for million-entry windows here.
    config.population.consumer_config.memory = 200;
    config.population.provider_config.proposed_memory = 500;
    config.population.provider_config.performed_memory = 500;
    config
}

/// Consumers of a transport round.
pub const TRANSPORT_CONSUMERS: u32 = 64;
/// Participant-host connections of a transport round.
pub const TRANSPORT_HOSTS: u32 = 8;
/// Candidates per query of a transport round: 16 keeps candidate sets
/// realistic while letting a batch cover every provider endpoint once.
pub const TRANSPORT_CANDIDATES_PER_QUERY: u32 = 16;
/// Sub-waves a pipelined transport round splits its batch into.
pub const TRANSPORT_PIPELINE_SUBWAVES: usize = 8;
/// Maximum waves in flight while driving a pipelined transport round.
pub const TRANSPORT_PIPELINE_DEPTH: usize = 4;

struct FlatConsumer;

impl ConsumerEndpoint for FlatConsumer {
    fn intentions(&mut self, _q: &Query, candidates: &[ProviderId]) -> Vec<(ProviderId, f64)> {
        candidates
            .iter()
            .map(|&p| (p, 0.25 + 0.5 / (1.0 + p.index() as f64)))
            .collect()
    }
}

struct FlatProvider(f64);

impl ProviderEndpoint for FlatProvider {
    fn intention(&mut self, _q: &Query) -> f64 {
        self.0
    }
    fn utilization(&mut self) -> f64 {
        self.0.abs() / 2.0
    }
}

/// The participant-host threads of a [`transport_topology`]; join them
/// after [`WaveServer::shutdown`].
pub type HostThreads = Vec<JoinHandle<io::Result<HostReport>>>;

/// A wave server listening on loopback TCP with `providers` flat provider
/// endpoints plus [`TRANSPORT_CONSUMERS`] consumers, multiplexed over
/// [`TRANSPORT_HOSTS`] participant-host threads (one socket per host, not
/// per endpoint). Returns once every host has announced.
pub fn transport_topology(providers: u32) -> (WaveServer, HostThreads) {
    let mut server = WaveServer::new(ServerConfig {
        timeout: Duration::from_secs(30),
        request_bids: false,
    });
    let addr = server.listen_tcp("127.0.0.1:0").expect("loopback bind");
    let hosts = (0..TRANSPORT_HOSTS)
        .map(|h| {
            std::thread::spawn(move || {
                let mut host = ParticipantHost::connect_tcp(addr)?;
                for c in (h..TRANSPORT_CONSUMERS).step_by(TRANSPORT_HOSTS as usize) {
                    host.add_consumer(ConsumerId::new(c), FlatConsumer);
                }
                for p in (h..providers).step_by(TRANSPORT_HOSTS as usize) {
                    host.add_provider(
                        ProviderId::new(p),
                        FlatProvider(1.0 - (p % 7) as f64 * 0.25),
                    );
                }
                host.announce()?;
                host.serve()
            })
        })
        .collect();
    server
        .accept_hosts(TRANSPORT_HOSTS as usize, Duration::from_secs(30))
        .expect("hosts connect");
    (server, hosts)
}

/// One query per [`TRANSPORT_CANDIDATES_PER_QUERY`] providers: the batch
/// that touches every provider endpoint of a [`transport_topology`]
/// exactly once.
pub fn full_coverage_batch(providers: u32) -> Vec<(Query, Vec<ProviderId>)> {
    (0..providers / TRANSPORT_CANDIDATES_PER_QUERY)
        .map(|i| {
            let query = Query::single(
                QueryId::new(i),
                ConsumerId::new(i % TRANSPORT_CONSUMERS),
                QueryClass::Light,
                SimTime::ZERO,
            );
            let first = i * TRANSPORT_CANDIDATES_PER_QUERY;
            let candidates = (first..first + TRANSPORT_CANDIDATES_PER_QUERY)
                .map(ProviderId::new)
                .collect();
            (query, candidates)
        })
        .collect()
}

/// One pipelined round over the whole batch: the batch is split into
/// [`TRANSPORT_PIPELINE_SUBWAVES`] sub-waves, each encoded and sent while
/// up to [`TRANSPORT_PIPELINE_DEPTH`] earlier ones are still being
/// collected. Panics if any reply times out.
pub fn pipelined_round(server: &mut WaveServer, batch: &[(Query, Vec<ProviderId>)]) {
    let chunk = batch.len().div_ceil(TRANSPORT_PIPELINE_SUBWAVES).max(1);
    for sub in batch.chunks(chunk) {
        while server.waves_in_flight() >= TRANSPORT_PIPELINE_DEPTH {
            server.collect_wave().expect("a wave is in flight");
            assert_eq!(server.last_round().timed_out, 0);
        }
        server.begin_wave(sub);
    }
    while server.collect_wave().is_some() {
        assert_eq!(server.last_round().timed_out, 0);
    }
}

/// Times one socket-transport wave round at `providers` provider
/// endpoints over a [`transport_topology`] with the
/// [`full_coverage_batch`]: the best and median of `runs` single-wave
/// rounds, plus the best-of-`runs` [`pipelined_round`].
pub fn measure_transport_round(providers: u32, runs: usize) -> TransportMeasurement {
    let (mut server, hosts) = transport_topology(providers);
    let batch = full_coverage_batch(providers);

    let _ = server.gather(&batch); // warmup
    let mut rounds = Vec::new();
    for _ in 0..runs.max(1) {
        let started = Instant::now();
        let infos = server.gather(&batch);
        let elapsed = started.elapsed();
        assert_eq!(infos.len(), batch.len());
        assert_eq!(server.last_round().timed_out, 0);
        rounds.push(elapsed);
    }
    rounds.sort();
    let best = rounds[0];
    let median = rounds[rounds.len() / 2];

    pipelined_round(&mut server, &batch); // warmup of the pipelined drive
    let mut pipelined_best = Duration::MAX;
    for _ in 0..runs.max(1) {
        let started = Instant::now();
        pipelined_round(&mut server, &batch);
        pipelined_best = pipelined_best.min(started.elapsed());
    }

    server.shutdown();
    for host in hosts {
        host.join().expect("host thread").expect("host io");
    }
    TransportMeasurement {
        endpoints: (providers + TRANSPORT_CONSUMERS) as usize,
        hosts: TRANSPORT_HOSTS as usize,
        round_ms: best.as_secs_f64() * 1e3,
        median_ms: median.as_secs_f64() * 1e3,
        pipelined_ms: pipelined_best.as_secs_f64() * 1e3,
    }
}

/// Measures the observability overhead on the single-shard benchmark
/// configuration (the pure allocation hot path, no sharding to hide
/// behind): best-of-`runs` wall clock with instrumentation off and on.
/// Panics if the two runs' report digests diverge — instrumentation is
/// observation-only by contract, so a digest delta is a bug, not a
/// measurement.
pub fn measure_obs_overhead(runs: usize) -> ObsOverheadMeasurement {
    let off_config = bench_config(1);
    let on_config = off_config.with_observability(true);
    let time = |config: SimulationConfig| -> (Duration, u64) {
        let _ = run_simulation(config, METHOD).expect("warmup run");
        let mut best = Duration::MAX;
        let mut digest = 0u64;
        for _ in 0..runs.max(1) {
            let start = Instant::now();
            let report = run_simulation(config, METHOD).expect("overhead run");
            best = best.min(start.elapsed());
            digest = report.digest();
        }
        (best, digest)
    };
    let (off, off_digest) = time(off_config);
    let (on, on_digest) = time(on_config);
    assert_eq!(
        off_digest, on_digest,
        "instrumentation changed the report digest — observation-only contract broken"
    );
    let off_ms = off.as_secs_f64() * 1e3;
    let on_ms = on.as_secs_f64() * 1e3;
    ObsOverheadMeasurement {
        off_wall_ms: off_ms,
        on_wall_ms: on_ms,
        overhead_pct: (on_ms / off_ms - 1.0) * 100.0,
    }
}

/// Resident-set size of this process in bytes (`VmRSS` from
/// `/proc/self/status`), or `None` where procfs is unavailable.
fn resident_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Runs one scale point: constructs the simulator (measuring the
/// resident-set growth that the participant state costs) and runs it once,
/// timed.
pub fn measure_scale(participants: u64) -> ScaleMeasurement {
    let config = scale_config(participants, SCALE_SEED);
    let consumers = config.population.consumers;
    let providers = config.population.providers;
    let mediator_shards = config.mediator_shards;
    let rss_before = resident_bytes();
    let simulator = Simulator::new(config, METHOD).expect("scale configuration is valid");
    let rss_after = resident_bytes();
    let bytes_per_participant = match (rss_before, rss_after) {
        (Some(before), Some(after)) => {
            after.saturating_sub(before) as f64 / participants.max(1) as f64
        }
        _ => 0.0,
    };
    let start = Instant::now();
    let report = simulator.run();
    let elapsed = start.elapsed();
    ScaleMeasurement {
        participants,
        consumers,
        providers,
        mediator_shards,
        issued_queries: report.issued_queries,
        wall_ms: elapsed.as_secs_f64() * 1e3,
        allocations_per_sec: report.issued_queries as f64 / elapsed.as_secs_f64(),
        bytes_per_participant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_config_is_valid_and_procedural_at_both_points() {
        for &participants in &SCALE_POINTS {
            let config = scale_config(participants, SCALE_SEED);
            assert!(config.validate().is_ok());
            assert!(config.population.procedural_preferences);
            assert_eq!(
                config.population.consumers as u64 + config.population.providers as u64,
                participants
            );
            // Paper-absolute windows, not population-scaled ones.
            assert_eq!(config.population.provider_config.proposed_memory, 500);
            assert_eq!(config.population.consumer_config.memory, 200);
            // Shards keep the candidate set near the paper's size.
            let per_shard = config.population.providers as usize / config.mediator_shards;
            assert!(
                (SCALE_SHARD_FANOUT / 2..=SCALE_SHARD_FANOUT).contains(&per_shard),
                "providers per shard {per_shard} strays from the fan-out target"
            );
        }
    }
}
