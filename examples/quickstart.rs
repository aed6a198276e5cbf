//! Quickstart: score one query with SQLB, then run a small simulated
//! e-marketplace and print the headline metrics.
//!
//! Run with: `cargo run --release --example quickstart`

use sqlb::core::scoring::score_batch;
use sqlb::prelude::*;
use sqlb::sim::engine::run_simulation;

fn main() {
    // -----------------------------------------------------------------
    // 1. Allocate a single query by hand.
    // -----------------------------------------------------------------
    // A consumer issues a query and wants one provider (q.n = 1).
    let query = Query::single(
        QueryId::new(1),
        ConsumerId::new(0),
        QueryClass::Light,
        SimTime::ZERO,
    );

    // What the mediation step gathered about the candidates: the
    // consumer's intention towards each provider (Definition 7) and each
    // provider's intention towards the query (Definition 8).
    let candidates = vec![
        CandidateInfo::new(ProviderId::new(0))
            .with_consumer_intention(0.9)
            .with_provider_intention(-0.5), // popular provider that is not interested
        CandidateInfo::new(ProviderId::new(1))
            .with_consumer_intention(0.5)
            .with_provider_intention(0.8), // both sides are reasonably happy
        CandidateInfo::new(ProviderId::new(2))
            .with_consumer_intention(-0.7)
            .with_provider_intention(0.9), // eager provider the consumer distrusts
    ];

    let mut sqlb = SqlbAllocator::new();
    let mut state = MediatorState::paper_default();

    // The paper's ranking `R_q`: every candidate's Definition 9 score, with
    // Equation 6's ω read from the mediator's satisfaction view, sorted
    // best first. SQLB selects its first `q.n` entries.
    let omegas: Vec<f64> = candidates
        .iter()
        .map(|c| {
            omega(
                state.consumer_satisfaction(query.consumer),
                state.provider_satisfaction(c.provider),
            )
        })
        .collect();
    let mut scored = Vec::new();
    score_batch(
        &candidates,
        &omegas,
        IntentionParams::default(),
        &mut scored,
    );
    let ranking = rank_candidates(scored);

    let allocation = sqlb.allocate(&query, &candidates, &state);
    state.record_allocation(&query, &candidates, &allocation);

    println!("== Single allocation ==");
    for ranked in &ranking {
        println!(
            "  {}  score {:+.3}{}",
            ranked.provider,
            ranked.score,
            if allocation.is_selected(ranked.provider) {
                "   <- selected"
            } else {
                ""
            }
        );
    }

    // -----------------------------------------------------------------
    // 2. Run a small simulated system (the paper's evaluation substrate)
    //    and compare SQLB with the Capacity based baseline.
    // -----------------------------------------------------------------
    println!("\n== 20-consumer / 40-provider simulation at 70% workload ==");
    for method in [Method::Sqlb, Method::CapacityBased, Method::MariposaLike] {
        let config =
            SimulationConfig::scaled(20, 40, 600.0, 42).with_workload(WorkloadPattern::Fixed(0.7));
        let report = run_simulation(config, method).expect("simulation");
        println!(
            "  {:<16} response time {:>6.2}s   provider satisfaction {:.3}   consumer alloc. satisfaction {:.3}   load fairness {:.3}",
            report.method,
            report.mean_response_time(),
            report
                .series
                .provider_satisfaction_preference_mean
                .last_value()
                .unwrap_or(f64::NAN),
            report
                .series
                .consumer_allocation_satisfaction_mean
                .last_value()
                .unwrap_or(f64::NAN),
            report.series.utilization_fairness.mean_after(100.0),
        );
    }
    println!("\nSQLB keeps participants satisfied at a modest response-time cost;");
    println!("Capacity based balances load best but ignores what anyone wants.");
}
