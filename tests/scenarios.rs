//! Scenario-campaign contract tests.
//!
//! Four properties of the campaign subsystem are pinned here:
//!
//! 1. **Campaigns are experiments, not anecdotes.** Every named scenario
//!    of the committed matrix is bit-reproducible per seed, and the
//!    smoke subset re-run in CI must match the digests committed in
//!    `BENCH_campaign.json` exactly.
//! 2. **Re-join semantics are the documented ones.** A re-joining
//!    provider's satisfaction history *resumes* under the default
//!    [`RejoinPolicy::Resume`] and starts over under
//!    [`RejoinPolicy::Reset`] — the two policies must produce different
//!    runs when a re-join happens and identical runs when none does.
//! 3. **Hostile transport degrades the same way everywhere.** Churn plus
//!    a stalled host produces bit-identical reports on the inline and
//!    reactor backends (the fault model is virtual-clock exact), and the
//!    socket backend — where the stall is a real silent TCP peer —
//!    degrades the missing replies to indifference and still terminates.
//! 4. **A flash crowd does not starve rebalancing.** Load-reactive
//!    routing under a burst still runs its due `Rebalance` rounds, on
//!    every backend, with identical digests — and wave coalescing under
//!    static routing stays bit-identical through the burst.

use sqlb::sim::campaign;
use sqlb::sim::engine::run_scenario;
use sqlb::sim::{
    ArrivalModifier, ChurnGroup, MediationMode, Method, RejoinPolicy, RoutingPolicyKind, Scenario,
    SimulationConfig, TransportFault, WorkloadPattern,
};

/// A bounded in-process configuration for scenario runs.
fn small_config(seed: u64) -> SimulationConfig {
    SimulationConfig::scaled(16, 32, 150.0, seed).with_workload(WorkloadPattern::Fixed(0.6))
}

/// A churn group taking half the providers down at 40s and back at 90s.
fn churn_group(rejoin: RejoinPolicy) -> ChurnGroup {
    ChurnGroup {
        fraction: 0.5,
        depart_at_secs: 40.0,
        rejoin_at_secs: Some(90.0),
        rejoin,
    }
}

#[test]
fn every_campaign_scenario_is_reproducible_per_seed() {
    for scenario in campaign::scenarios() {
        let run = || {
            run_scenario(campaign::base_config(), Method::Sqlb, &scenario)
                .expect("campaign scenario run")
        };
        let (first, second) = (run(), run());
        assert_eq!(
            first.digest(),
            second.digest(),
            "{}: same-seed runs must be bit-identical",
            scenario.name
        );
        assert_eq!(first.issued_queries, second.issued_queries);
        assert!(first.issued_queries > 0, "{}: no arrivals", scenario.name);
        assert_eq!(first.scenario, scenario.name);
    }
}

#[test]
fn the_smoke_subset_matches_the_committed_campaign_digests() {
    let content = std::fs::read_to_string(campaign::campaign_path())
        .expect("BENCH_campaign.json is committed at the repository root");
    let committed = campaign::parse_campaign(&content).expect("BENCH_campaign.json parses");
    assert!(
        committed.len() >= 15,
        "the committed matrix covers at least 5 scenarios x 3 methods"
    );
    let smoke = campaign::run_smoke().expect("smoke campaign");
    let failures = campaign::drift(&smoke, &committed);
    assert!(
        failures.is_empty(),
        "campaign digests drifted from BENCH_campaign.json (re-run \
         `cargo run --release -p sqlb-bench --bin campaign -- --write` if the \
         change is deliberate):\n{}",
        failures.join("\n")
    );
}

#[test]
fn rejoin_policies_follow_the_documented_semantics() {
    let run = |rejoin: Option<ChurnGroup>, name: &str| {
        let mut scenario = Scenario::steady(name);
        scenario.churn.extend(rejoin);
        run_scenario(small_config(9), Method::Sqlb, &scenario).expect("churn run")
    };

    let resume = run(Some(churn_group(RejoinPolicy::Resume)), "resume");
    let reset = run(Some(churn_group(RejoinPolicy::Reset)), "reset");
    let steady = run(None, "steady");

    // The churn actually happened, identically, under both policies.
    assert!(resume.churn_departures > 0);
    assert_eq!(resume.churn_departures, resume.churn_rejoins);
    assert_eq!(resume.churn_departures, reset.churn_departures);
    assert_eq!(reset.churn_departures, reset.churn_rejoins);
    assert_eq!(steady.churn_departures, 0);

    // The documented answer: satisfaction history resumes by default and
    // is wiped under Reset — so the two policies must diverge after the
    // re-join (the resumed trackers score their next allocations against
    // remembered history; the reset ones start from scratch).
    assert_ne!(
        resume.digest(),
        reset.digest(),
        "Resume and Reset must be observably different runs"
    );
    // And churn is not a behavioral departure: the paper's Table 3
    // accounting stays clean.
    assert_eq!(resume.provider_departures.len(), 0);
    assert_eq!(
        resume.series.active_providers.last_value(),
        steady.series.active_providers.last_value()
    );
}

#[test]
fn a_rejoin_free_churn_group_makes_the_policy_irrelevant() {
    let run = |rejoin: RejoinPolicy| {
        let mut scenario = Scenario::steady("no-rejoin");
        scenario.churn.push(ChurnGroup {
            fraction: 0.25,
            depart_at_secs: 50.0,
            rejoin_at_secs: None,
            rejoin,
        });
        run_scenario(small_config(4), Method::Sqlb, &scenario).expect("churn run")
    };
    let resume = run(RejoinPolicy::Resume);
    let reset = run(RejoinPolicy::Reset);
    assert_eq!(resume.digest(), reset.digest());
    assert!(resume.churn_departures > 0);
    assert_eq!(resume.churn_rejoins, 0);
}

#[test]
fn churn_and_stalls_agree_across_in_process_backends() {
    let mut scenario = Scenario::steady("churn-stall");
    scenario.churn.push(churn_group(RejoinPolicy::Resume));
    scenario.faults.push(TransportFault::StallHost {
        host: 1,
        from_secs: 30.0,
        until_secs: 80.0,
    });
    let run = |mode: MediationMode| {
        run_scenario(
            small_config(3).with_mediation(mode),
            Method::Sqlb,
            &scenario,
        )
        .expect("faulted run")
    };
    let inline = run(MediationMode::Inline);
    let reactor = run(MediationMode::Reactor);
    assert_eq!(
        inline.digest(),
        reactor.digest(),
        "the virtual fault model must be backend-independent"
    );
    assert!(
        inline.indifferent_replies > 0,
        "a stalled host must be accounted as timeout-to-indifference"
    );
    assert_eq!(inline.indifferent_replies, reactor.indifferent_replies);
    assert!(inline.churn_rejoins > 0);
}

#[test]
fn a_stalled_then_dropped_socket_run_degrades_but_terminates() {
    // On the socket backend the faults are real: the stalled host is a
    // silent TCP peer whose replies miss the wave deadline, and the
    // dropped host shuts its connection down mid-wave and stays gone.
    // The run must degrade those endpoints to indifference (counted by
    // the transport, not fabricated) and still terminate.
    let mut scenario = Scenario::steady("hostile-socket");
    scenario.faults.push(TransportFault::StallHost {
        host: 1,
        from_secs: 10.0,
        until_secs: 20.0,
    });
    scenario.faults.push(TransportFault::DropHost {
        host: 0,
        at_secs: 30.0,
    });
    let config = SimulationConfig::scaled(8, 16, 45.0, 7)
        .with_workload(WorkloadPattern::Fixed(0.6))
        .with_mediation(MediationMode::Socket)
        .with_wave_timeout_ms(150);
    let report = run_scenario(config, Method::Sqlb, &scenario).expect("socket faulted run");
    assert!(report.issued_queries > 0);
    assert!(report.completed_queries > 0, "healthy hosts keep serving");
    assert!(
        report.indifferent_replies > 0,
        "wire-level stalls and drops must surface as timed-out requests"
    );
}

#[test]
fn a_flash_crowd_during_a_due_rebalance_round_still_rebalances() {
    // Regression for the load-reactive + burst interaction: the burst
    // lands exactly when periodic Rebalance rounds are due (the scaled
    // 150 s run schedules them every 6 s), and the rounds must keep
    // running on every backend, with bit-identical outcomes.
    let mut scenario = Scenario::steady("flash-rebalance");
    scenario.arrival.push(ArrivalModifier::Burst {
        at_secs: 5.0,
        duration_secs: 15.0,
        multiplier: 4.0,
    });
    let config = small_config(5)
        .with_mediator_shards(2)
        .with_routing(RoutingPolicyKind::LeastLoaded)
        .with_migration(true);
    let run = |mode: MediationMode| {
        run_scenario(config.with_mediation(mode), Method::Sqlb, &scenario).expect("burst run")
    };
    let inline = run(MediationMode::Inline);
    let reactor = run(MediationMode::Reactor);
    let socket = run(MediationMode::Socket);
    assert!(
        inline.rebalance_rounds > 0,
        "due rebalance rounds must run through the burst"
    );
    assert_eq!(inline.digest(), reactor.digest());
    assert_eq!(inline.digest(), socket.digest());
    assert_eq!(inline.rebalance_rounds, socket.rebalance_rounds);
}

#[test]
fn coalesced_waves_stay_bit_identical_through_a_flash_crowd() {
    let mut scenario = Scenario::steady("flash-coalesced");
    scenario.arrival.push(ArrivalModifier::Burst {
        at_secs: 5.0,
        duration_secs: 15.0,
        multiplier: 4.0,
    });
    let config = small_config(6)
        .with_mediator_shards(2)
        .with_migration(true)
        .with_mediation(MediationMode::Socket);
    let run = |coalescing: bool| {
        run_scenario(
            config.with_socket_wave_coalescing(coalescing),
            Method::Sqlb,
            &scenario,
        )
        .expect("coalesced burst run")
    };
    let coalesced = run(true);
    let sequential = run(false);
    assert_eq!(coalesced.digest(), sequential.digest());
    assert!(coalesced.rebalance_rounds > 0);
    assert_eq!(coalesced.rebalance_rounds, sequential.rebalance_rounds);
}
