//! Extending the framework with a custom allocation method.
//!
//! Anything implementing `AllocationMethod` plugs into the same mediator,
//! satisfaction model and simulator as SQLB itself. This example implements
//! a naive "consumer-first" method (always give the consumer its favourite
//! provider, ignore the providers entirely) and compares it against SQLB in
//! the simulator — showing why one-sided allocation is not enough.
//!
//! Run with: `cargo run --release --example custom_allocation`

use sqlb::prelude::*;
use sqlb::sim::engine::run_simulation;

/// Always allocates to the providers the *consumer* prefers, ignoring the
/// providers' intentions and utilization entirely.
#[derive(Debug, Default)]
struct ConsumerFirst;

impl AllocationMethod for ConsumerFirst {
    fn name(&self) -> &'static str {
        "Consumer-first"
    }

    fn allocate(
        &mut self,
        query: &Query,
        candidates: &[CandidateInfo],
        _view: &dyn MediatorView,
    ) -> Allocation {
        let ranking: Vec<RankedProvider> = rank_candidates(
            candidates
                .iter()
                .map(|c| RankedProvider {
                    provider: c.provider,
                    score: c.consumer_intention,
                })
                .collect(),
        );
        Allocation {
            query: query.id,
            selected: ranking
                .iter()
                .take(query.n as usize)
                .map(|r| r.provider)
                .collect(),
        }
    }
}

fn main() {
    // First, use the custom method directly on a hand-built candidate set.
    let query = Query::single(
        QueryId::new(0),
        ConsumerId::new(0),
        QueryClass::Light,
        SimTime::ZERO,
    );
    let candidates = vec![
        CandidateInfo::new(ProviderId::new(0))
            .with_consumer_intention(0.9)
            .with_provider_intention(-0.8)
            .with_utilization(1.9),
        CandidateInfo::new(ProviderId::new(1))
            .with_consumer_intention(0.4)
            .with_provider_intention(0.9)
            .with_utilization(0.1),
    ];
    let mut custom = ConsumerFirst;
    let mut sqlb = SqlbAllocator::new();
    let state = MediatorState::paper_default();
    println!(
        "Consumer-first picks {} (the consumer's favourite, overloaded and unwilling).",
        custom.allocate(&query, &candidates, &state).selected[0]
    );
    println!(
        "SQLB picks          {} (wanted by both sides and idle).\n",
        sqlb.allocate(&query, &candidates, &state).selected[0]
    );

    // Then drive the custom method over a stream of queries, letting the
    // mediator-side satisfaction bookkeeping accumulate, to see where a
    // one-sided policy concentrates the load.
    let mut state = MediatorState::paper_default();
    let mut custom_wins_overloaded = 0u32;
    for i in 0..1_000u32 {
        let q = Query::single(
            QueryId::new(i),
            ConsumerId::new(i % 10),
            QueryClass::Light,
            SimTime::ZERO,
        );
        let allocation = custom.allocate(&q, &candidates, &state);
        state.record_allocation(&q, &candidates, &allocation);
        if allocation.selected[0] == ProviderId::new(0) {
            custom_wins_overloaded += 1;
        }
    }
    println!(
        "Over 1000 queries, Consumer-first sent {custom_wins_overloaded} of them to the overloaded,\n\
         unwilling provider p0 — a recipe for p0's departure. SQLB would have spread them."
    );

    // Finally, the full simulator comparison with the built-in methods for
    // context.
    println!("\nFull simulation at 70% workload (built-in methods):");
    for method in [Method::Sqlb, Method::CapacityBased] {
        let config =
            SimulationConfig::scaled(16, 32, 400.0, 7).with_workload(WorkloadPattern::Fixed(0.7));
        let report = run_simulation(config, method).expect("simulation");
        println!(
            "  {:<16} mean response time {:>6.2}s, consumer allocation satisfaction {:>5.2}",
            report.method,
            report.mean_response_time(),
            report
                .series
                .consumer_allocation_satisfaction_mean
                .last_value()
                .unwrap_or(f64::NAN)
        );
    }
}
