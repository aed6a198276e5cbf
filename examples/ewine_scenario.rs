//! The paper's motivating example (Section 1.1, Table 1): the eWine company
//! asks an e-marketplace mediator for the two best international-shipping
//! providers.
//!
//! Five providers can treat the query. Table 1 gives, for each of them,
//! whether the provider wants the query, whether eWine wants the provider,
//! and the provider's available capacity:
//!
//! | provider | provider's intention | consumer's intention | available capacity |
//! |---|---|---|---|
//! | p1 | yes | no  | 0.85 |
//! | p2 | no  | yes | 0.57 |
//! | p3 | yes | no  | 0.22 |
//! | p4 | no  | yes | 0.15 |
//! | p5 | yes | yes | 0.00 |
//!
//! A pure capacity-based allocator picks p1 and p2 — one provider eWine
//! distrusts and one provider that does not want the job. SQLB instead
//! weighs both sides' intentions and picks p5 first.
//!
//! Run with: `cargo run --example ewine_scenario`

use sqlb::prelude::*;

fn table1_candidates() -> Vec<CandidateInfo> {
    // Binary intentions as in the example (footnote 1 of the paper), and
    // utilization = 1 - available capacity.
    let rows = [
        (1, 1.0, -1.0, 0.85),
        (2, -1.0, 1.0, 0.57),
        (3, 1.0, -1.0, 0.22),
        (4, -1.0, 1.0, 0.15),
        (5, 1.0, 1.0, 0.00),
    ];
    rows.iter()
        .map(|&(id, provider_intention, consumer_intention, available)| {
            CandidateInfo::new(ProviderId::new(id))
                .with_provider_intention(provider_intention)
                .with_consumer_intention(consumer_intention)
                .with_utilization(1.0 - available)
        })
        .collect()
}

fn main() {
    // eWine wants proposals from its two best providers: q.n = 2.
    let mut query = Query::new(
        QueryId::new(1),
        ConsumerId::new(0),
        QueryDescription::for_class(QueryClass::Light),
        2,
        SimTime::ZERO,
    )
    .expect("valid query");
    query.n = 2;

    let candidates = table1_candidates();
    let state = MediatorState::paper_default();

    println!("eWine's query: {query}\n");
    println!(
        "{:<6} {:>12} {:>12} {:>12}",
        "prov.", "prov. int.", "cons. int.", "avail. cap."
    );
    for c in &candidates {
        println!(
            "{:<6} {:>12.2} {:>12.2} {:>12.2}",
            c.provider.to_string(),
            c.provider_intention,
            c.consumer_intention,
            1.0 - c.utilization
        );
    }

    let methods: Vec<(&str, Box<dyn AllocationMethod>)> = vec![
        ("SQLB", Box::new(SqlbAllocator::new())),
        ("Capacity based", Box::new(CapacityBased::new())),
    ];

    println!();
    for (label, mut method) in methods {
        let allocation = method.allocate(&query, &candidates, &state);
        let picks: Vec<String> = allocation.selected.iter().map(|p| p.to_string()).collect();
        println!("{label:<16} selects: {}", picks.join(", "));
    }

    println!();
    println!("Capacity based hands the query to the most available providers (p4, p2),");
    println!("even though p2 does not want it — both p2 and eWine may leave the system.");
    println!("SQLB's score trades the consumer's intentions for the providers' intentions");
    println!("and selects p5 (wanted by both sides) ahead of the mutually unwanted options.");
}
