//! Endpoint-count scaling of the *socket* mediation transport.
//!
//! The reactor bench (`reactor_scaling`) answers "what does an
//! in-process wave cost at tens of thousands of endpoints?"; this bench
//! answers the networked version: one mediation wave in which every
//! provider endpoint is the candidate of exactly one query, fanned out
//! as framed bytes over loopback TCP to a handful of participant-host
//! processes-worth of endpoints (one socket per host, not per
//! endpoint), replies decoded and reassembled on the way back.
//!
//! After the criterion groups it prints a best-of-5 measurement of the
//! 10k-endpoint round. Nothing is written and nothing gates: the wire
//! itself is pinned by exact counters in `tests/observability.rs`.
//!
//! Run with: `cargo bench -p sqlb-bench --bench transport_scaling`

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqlb_bench::perf;

/// The acceptance-scale endpoint count (providers; consumers ride along).
const ACCEPTANCE_PROVIDERS: u32 = 10_240;

fn bench_socket_wave(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("socket_wave");
    group.measurement_time(Duration::from_secs(4));
    for &providers in &[1_024u32, ACCEPTANCE_PROVIDERS] {
        let (mut server, hosts) = perf::transport_topology(providers);
        assert_eq!(server.provider_count(), providers as usize);
        assert_eq!(server.consumer_count(), perf::TRANSPORT_CONSUMERS as usize);
        let batch = perf::full_coverage_batch(providers);
        group.bench_function(BenchmarkId::from_parameter(providers), |b| {
            b.iter(|| {
                let infos = server.gather(&batch);
                assert_eq!(infos.len(), batch.len());
                infos
            })
        });
        // The acceptance check behind the bench: the wave multiplexes
        // the full endpoint population over the host connections,
        // answers everything, and times nothing out.
        let round = server.last_round();
        assert_eq!(
            round.delivered,
            (perf::TRANSPORT_CONSUMERS + providers) as usize
        );
        assert_eq!(round.timed_out, 0);
        assert_eq!(server.connection_count(), perf::TRANSPORT_HOSTS as usize);
        // The same full-coverage round driven as overlapped sub-waves:
        // wave t+1 is encoded and sent while wave t's replies are still
        // being collected.
        group.bench_function(BenchmarkId::new("pipelined", providers), |b| {
            b.iter(|| perf::pipelined_round(&mut server, &batch))
        });
        server.shutdown();
        for host in hosts {
            assert!(host.join().unwrap().expect("host io").clean_shutdown);
        }
    }
    group.finish();

    // Best-of-5 of the acceptance-scale round, with its median as the
    // dispersion companion (criterion's per-iteration mean is noisier
    // for multi-ms rounds), plus the best-of-5 pipelined round.
    let measurement = perf::measure_transport_round(ACCEPTANCE_PROVIDERS, 5);
    println!(
        "socket_wave: {} endpoints over {} hosts: best round {:.3} ms (median {:.3} ms), \
         pipelined {:.3} ms",
        measurement.endpoints,
        measurement.hosts,
        measurement.round_ms,
        measurement.median_ms,
        measurement.pipelined_ms,
    );
}

criterion_group!(benches, bench_socket_wave);
criterion_main!(benches);
