//! Micro-benchmarks of the allocation hot path: intention computation,
//! scoring, and the three paper allocation methods over candidate sets of
//! the paper's size (400 providers) and smaller — plus an end-to-end
//! allocation-throughput comparison of the mono-mediator pipeline against
//! K ∈ {2, 4, 8} mediator shards and a printed observability-overhead
//! measurement. Nothing is written and nothing gates: the shard
//! configurations' heap allocations are pinned exactly in
//! `tests/allocation_counts.rs`.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqlb_agents::{Population, PopulationConfig};
use sqlb_baselines::{CapacityBased, MariposaLike};
use sqlb_bench::perf;
use sqlb_core::allocation::{AllocationMethod, Bid, CandidateInfo, UniformView};
use sqlb_core::intention::{consumer_intention, provider_intention, IntentionParams};
use sqlb_core::mediator_state::MediatorStateConfig;
use sqlb_core::scoring::{omega, provider_score};
use sqlb_core::{Mediator, SqlbAllocator};
use sqlb_reputation::ReputationStore;
use sqlb_sim::engine::run_simulation;
use sqlb_types::{ConsumerId, ProviderId, Query, QueryClass, QueryId, SimTime};

fn candidates(n: u32) -> Vec<CandidateInfo> {
    (0..n)
        .map(|i| {
            let x = i as f64 / n as f64;
            CandidateInfo::new(ProviderId::new(i))
                .with_consumer_intention(2.0 * x - 1.0)
                .with_provider_intention(1.0 - 2.0 * x)
                .with_utilization(x * 1.5)
                .with_bid(Bid::new(50.0 + 100.0 * x, 1.0 + 5.0 * x))
        })
        .collect()
}

fn query() -> Query {
    Query::single(
        QueryId::new(1),
        ConsumerId::new(0),
        QueryClass::Light,
        SimTime::ZERO,
    )
}

fn bench_intentions(c: &mut Criterion) {
    let params = IntentionParams::default();
    let mut group = c.benchmark_group("intentions");
    group.measurement_time(Duration::from_millis(800));
    group.bench_function("consumer_intention", |b| {
        b.iter(|| {
            consumer_intention(
                black_box(0.6),
                black_box(0.4),
                black_box(0.7),
                black_box(params),
            )
        })
    });
    group.bench_function("provider_intention", |b| {
        b.iter(|| {
            provider_intention(
                black_box(0.6),
                black_box(0.8),
                black_box(0.5),
                black_box(params),
            )
        })
    });
    group.bench_function("provider_score", |b| {
        b.iter(|| {
            provider_score(
                black_box(0.7),
                black_box(0.3),
                black_box(omega(black_box(0.6), black_box(0.4))),
                black_box(params),
            )
        })
    });
    group.finish();
}

fn bench_allocators(c: &mut Criterion) {
    let q = query();
    let view = UniformView(0.5);
    let mut group = c.benchmark_group("allocate");
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(30);
    for n in [50u32, 400u32] {
        let cands = candidates(n);
        group.bench_with_input(BenchmarkId::new("SQLB", n), &cands, |b, cands| {
            let mut method = SqlbAllocator::new();
            b.iter(|| method.allocate(black_box(&q), black_box(cands), &view))
        });
        group.bench_with_input(BenchmarkId::new("CapacityBased", n), &cands, |b, cands| {
            let mut method = CapacityBased::new();
            b.iter(|| method.allocate(black_box(&q), black_box(cands), &view))
        });
        group.bench_with_input(BenchmarkId::new("MariposaLike", n), &cands, |b, cands| {
            let mut method = MariposaLike::new();
            b.iter(|| method.allocate(black_box(&q), black_box(cands), &view))
        });
    }
    group.finish();
}

/// The isolated arrival→allocation path (Algorithm 1 without the event
/// loop): gather the consumer's and every candidate provider's intention
/// from real agents, run the allocation decision on a real mediator, and
/// record the outcome — exactly what the engine does per query arrival,
/// minus event-queue and completion bookkeeping.
fn bench_isolated_allocate(c: &mut Criterion) {
    let mut group = c.benchmark_group("isolated_allocate");
    group.measurement_time(Duration::from_secs(1));
    let mut population = Population::generate(&PopulationConfig::scaled(
        perf::CONSUMERS,
        perf::PROVIDERS,
        7,
    ))
    .expect("population");
    let reputation = ReputationStore::neutral();
    let mut mediator = Mediator::new(
        Box::new(SqlbAllocator::new()),
        MediatorStateConfig::default(),
    );
    let candidates: Vec<ProviderId> = population.providers.keys().collect();
    let mut infos: Vec<CandidateInfo> = Vec::with_capacity(candidates.len());
    let mut next_query: u32 = 0;
    group.bench_function(BenchmarkId::new("sqlb", "hot-path"), |b| {
        b.iter(|| {
            let consumer = ConsumerId::new(next_query % perf::CONSUMERS);
            let class = if next_query.is_multiple_of(2) {
                QueryClass::Light
            } else {
                QueryClass::Heavy
            };
            let now = SimTime::from_secs(next_query as f64 * 0.01);
            let query = Query::single(QueryId::new(next_query), consumer, class, now);
            next_query = next_query.wrapping_add(1);
            infos.clear();
            let consumer_agent = &population.consumers[consumer];
            for &p in &candidates {
                let ci = consumer_agent.intention_for(&query, p, &reputation);
                let provider_agent = &mut population.providers[p];
                let (pi, utilization) = provider_agent.intention_and_utilization(&query, now);
                infos.push(
                    CandidateInfo::new(p)
                        .with_consumer_intention(ci)
                        .with_provider_intention(pi)
                        .with_utilization(utilization),
                );
            }
            let allocation = mediator.allocate(&query, &infos, None);
            black_box(allocation.selected.len())
        })
    });
    group.finish();
}

/// End-to-end allocation throughput per shard count: short captive runs
/// of the full engine, measured wall-clock, followed by the printed
/// observability cost on the single-shard hot path (instrumented vs off,
/// digest-checked: instrumentation is observation-only).
fn bench_shard_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_throughput");
    group.measurement_time(Duration::from_millis(400));
    for &shards in &perf::SHARD_COUNTS {
        let config = perf::bench_config(shards);
        group.bench_with_input(
            BenchmarkId::new("sqlb_allocations", shards),
            &config,
            |b, &config| {
                b.iter(|| {
                    let report = run_simulation(black_box(config), perf::METHOD).expect("run");
                    black_box(report.issued_queries)
                })
            },
        );
    }
    group.finish();

    let obs = perf::measure_obs_overhead(5);
    println!(
        "obs_overhead: best-of-5 off {:.3} ms, on {:.3} ms ({:+.2} %)",
        obs.off_wall_ms, obs.on_wall_ms, obs.overhead_pct,
    );
}

criterion_group!(
    benches,
    bench_intentions,
    bench_allocators,
    bench_isolated_allocate,
    bench_shard_throughput
);
criterion_main!(benches);
