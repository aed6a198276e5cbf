//! Bounded systematic exploration of every scenario — the same sweep CI
//! runs via the `sqlb_check` binary, sized so the debug-build test suite
//! stays fast. The exhaustive scenarios (`mini`, `crashy`, `silent`) are
//! explored to the end here and their exact execution and transition
//! counts pinned: the model is deterministic, so any change to the
//! protocol state machines or the model's action menu moves them.

use sqlb_check::{explore, replay, Budget, Model, Report, Scenario, Schedule, WaveWorld};

/// Per-scenario execution budget for the debug-build test sweep.
const TEST_BUDGET: usize = 3_000;

#[test]
fn every_scenario_holds_under_bounded_exploration() {
    for scenario in Scenario::all() {
        let name = scenario.name;
        let report = explore(&WaveWorld::new(scenario), &Budget::executions(TEST_BUDGET));
        assert!(
            report.failure.is_none(),
            "{name}: {}",
            report.failure.unwrap()
        );
        assert!(report.executions > 0, "{name}: explored nothing");
        assert!(
            report.transitions > report.executions,
            "{name}: trivial traces"
        );
    }
}

/// Explores an exhaustive-tier scenario to the end and checks it is
/// clean and was not cut short.
fn explore_exhaustively(scenario: Scenario) -> Report {
    assert!(
        scenario.exhaustive,
        "{} is a bounded scenario",
        scenario.name
    );
    let name = scenario.name;
    let report = explore(&WaveWorld::new(scenario), &Budget::UNBOUNDED);
    assert!(
        report.failure.is_none(),
        "{name}: {}",
        report.failure.unwrap()
    );
    assert!(!report.truncated, "{name} should be fully explorable");
    report
}

#[test]
fn mini_space_exceeds_ten_thousand_interleavings() {
    // The acceptance bar is 10^4 distinct interleavings, all
    // invariant-clean; the exhaustive space is pinned exactly.
    let report = explore_exhaustively(Scenario::mini());
    assert_eq!(report.executions, 12_000);
    assert_eq!(report.transitions, 52_919);
}

#[test]
fn crashy_exercises_multiple_crash_points_per_host() {
    let report = explore_exhaustively(Scenario::crashy());
    assert_eq!(report.executions, 27_096);
    assert_eq!(report.transitions, 70_599);
    for host in ["crash(h0", "crash(h1"] {
        assert_eq!(
            report.distinct_actions_with_prefix(host),
            6,
            "distinct {host}...) crash points"
        );
    }
}

#[test]
fn byzantine_exercises_duplicate_foreign_and_stale_replies() {
    // Regression coverage for the pre-seam routing bugs: duplicate,
    // foreign-slot and stale-wave replies must all be reached by the
    // exploration and survive the accounting invariants.
    let report = explore(
        &WaveWorld::new(Scenario::byzantine()),
        &Budget::executions(TEST_BUDGET),
    );
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    for adversary in ["dup", "foreign", "stale"] {
        assert!(
            report.distinct_actions_with_prefix(adversary) >= 1,
            "no {adversary} action explored"
        );
    }
}

#[test]
fn silent_scenario_is_exhaustively_clean() {
    // Every interleaving ends in timeout-to-indifference, never a hang.
    let report = explore_exhaustively(Scenario::silent());
    assert_eq!(report.executions, 472);
    assert_eq!(report.transitions, 1_417);
}

#[test]
fn schedules_replay_deterministically_across_fresh_worlds() {
    // Walk one concrete schedule out of the explorer's own tree by
    // always taking action 0, then replay its string form against a
    // fresh world: same transcript, same verdict. This is the property
    // that makes every reported failure reproducible.
    let mut probe = WaveWorld::new(Scenario::mini());
    let mut picks = Vec::new();
    while probe.enabled() > 0 && picks.len() < 32 {
        picks.push(0);
        probe.step(0).expect("invariants hold on this trace");
    }
    let schedule: Schedule = picks
        .iter()
        .map(|p: &usize| p.to_string())
        .collect::<Vec<_>>()
        .join(".")
        .parse()
        .expect("schedule string round-trips");
    let (transcript, verdict) = replay(&WaveWorld::new(Scenario::mini()), &schedule);
    assert!(
        verdict.is_ok(),
        "replayed trace must stay clean: {verdict:?}"
    );
    assert_eq!(transcript.len(), picks.len());
}

#[test]
fn split_sweep_covers_every_frame_shape() {
    let report = sqlb_check::sweep_two_chunk_splits();
    assert!(report.ok(), "{:?}", report.failure);
    assert!(report.frames >= 9, "only {} frame shapes", report.frames);
    assert!(report.splits > 500, "only {} splits", report.splits);
}
