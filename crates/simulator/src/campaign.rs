//! The named scenario-campaign matrix behind `BENCH_campaign.json`.
//!
//! A campaign runs every named [`Scenario`] of [`scenarios`] against the
//! paper's three allocation methods ([`Method::PAPER_METHODS`]) on one
//! fixed, seeded configuration with autonomous departures enabled — the
//! Table 3 setup, extended from "how many participants leave under a
//! steady load" to "what does retention, satisfaction and load balance
//! look like under flash crowds, diurnal cycles, correlated churn and
//! hostile transport". Every entry carries the run's bit-exact report
//! digest; `BENCH_campaign.json` at the repository root is the committed
//! record, and the `campaign` binary re-runs the matrix and fails on any
//! digest drift.
//!
//! The workspace vendors no JSON library, so the file is rendered and
//! parsed here; the format is owned by this module and pinned by
//! round-trip tests.

use sqlb_agents::{EnabledReasons, ProviderDepartureRule};
use sqlb_types::SqlbError;

use crate::config::{Method, SimulationConfig};
use crate::engine::Simulator;
use crate::scenario::{ArrivalModifier, ChurnGroup, RejoinPolicy, Scenario, TransportFault};
use crate::stats::SimulationReport;
use crate::workload::WorkloadPattern;

/// Consumers in the campaign population.
pub const CONSUMERS: u32 = 32;
/// Providers in the campaign population.
pub const PROVIDERS: u32 = 64;
/// Virtual duration of one campaign run, in seconds.
pub const DURATION_SECS: f64 = 600.0;
/// Workload fraction of the campaign runs.
pub const WORKLOAD: f64 = 0.5;
/// Seed of every campaign run.
pub const SEED: u64 = 11;
/// Host partition the campaign's transport faults are expressed in.
pub const SOCKET_HOSTS: usize = 4;

/// The fixed configuration every campaign entry runs under (only the
/// scenario and the allocation method vary across the matrix).
pub fn base_config() -> SimulationConfig {
    SimulationConfig::scaled(CONSUMERS, PROVIDERS, DURATION_SECS, SEED)
        .with_workload(WorkloadPattern::Fixed(WORKLOAD))
        .with_socket_hosts(SOCKET_HOSTS)
        .with_provider_departures(ProviderDepartureRule::with_enabled(
            EnabledReasons::DISSATISFACTION_AND_STARVATION,
        ))
        .with_consumer_departures(Default::default())
}

/// The named scenarios of the campaign, in matrix order: a steady
/// baseline, two arrival reshapings (flash crowd, diurnal cycle), the
/// two re-join semantics of correlated churn, and two transport faults
/// (a temporary stall, a permanent drop).
pub fn scenarios() -> Vec<Scenario> {
    let mut flash_crowd = Scenario::steady("flash-crowd");
    flash_crowd.arrival.push(ArrivalModifier::Burst {
        at_secs: 120.0,
        duration_secs: 60.0,
        multiplier: 6.0,
    });

    let mut diurnal = Scenario::steady("diurnal");
    diurnal.arrival.push(ArrivalModifier::Diurnal {
        period_secs: 300.0,
        amplitude: 0.6,
    });

    let churn = |name: &str, rejoin: RejoinPolicy| {
        let mut scenario = Scenario::steady(name);
        scenario.churn.push(ChurnGroup {
            fraction: 0.25,
            depart_at_secs: 150.0,
            rejoin_at_secs: Some(300.0),
            rejoin,
        });
        scenario
    };

    let mut stalled_host = Scenario::steady("stalled-host");
    stalled_host.faults.push(TransportFault::StallHost {
        host: 1,
        from_secs: 100.0,
        until_secs: 200.0,
    });

    let mut dropped_host = Scenario::steady("dropped-host");
    dropped_host.faults.push(TransportFault::DropHost {
        host: 2,
        at_secs: 200.0,
    });

    vec![
        Scenario::steady("steady"),
        flash_crowd,
        diurnal,
        churn("churn-rejoin-resume", RejoinPolicy::Resume),
        churn("churn-rejoin-reset", RejoinPolicy::Reset),
        stalled_host,
        dropped_host,
    ]
}

/// One cell of the campaign matrix: the scenario × method pair, the
/// run's bit-exact digest and its headline readings.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignEntry {
    /// Scenario name.
    pub scenario: String,
    /// Allocation method name ([`Method::name`]).
    pub method: String,
    /// [`SimulationReport::digest`] of the run — the reproducibility
    /// pin.
    pub digest: u64,
    /// Queries issued by the run.
    pub issued_queries: u64,
    /// Queries completed by the run.
    pub completed_queries: u64,
    /// [`SimulationReport::provider_retention`]: the fraction of the
    /// initial providers still active at the end (reflects behavioral
    /// departures *and* scenario churn).
    pub retention: f64,
    /// Mean smoothed provider satisfaction of the survivors.
    pub satisfaction: f64,
    /// Min–max balance ratio of the survivors' final utilization
    /// (1.0 = perfectly balanced) — the imbalance reading.
    pub utilization_balance: f64,
    /// Providers taken down by scenario churn.
    pub churn_departures: u64,
    /// Providers brought back by scenario churn.
    pub churn_rejoins: u64,
    /// Replies degraded to indifference by the run's transport or the
    /// in-process fault hooks ([`SimulationReport::indifferent_replies`]).
    pub indifferent_replies: u64,
    /// Waves that completed with at least one degraded reply
    /// ([`SimulationReport::degraded_waves`]).
    pub degraded_waves: u64,
}

impl CampaignEntry {
    /// Builds the entry recording `report` for one matrix cell.
    pub fn from_report(report: &SimulationReport) -> Self {
        CampaignEntry {
            scenario: report.scenario.clone(),
            method: report.method.clone(),
            digest: report.digest(),
            issued_queries: report.issued_queries,
            completed_queries: report.completed_queries,
            retention: report.provider_retention(),
            satisfaction: report.final_provider_satisfaction.mean,
            utilization_balance: report.final_utilization.balance,
            churn_departures: report.churn_departures,
            churn_rejoins: report.churn_rejoins,
            indifferent_replies: report.indifferent_replies,
            degraded_waves: report.degraded_waves,
        }
    }
}

/// Runs one cell of the matrix.
pub fn run_entry(scenario: &Scenario, method: Method) -> Result<CampaignEntry, SqlbError> {
    let report = Simulator::with_scenario(base_config(), method, scenario)?.run();
    Ok(CampaignEntry::from_report(&report))
}

/// Runs the full matrix: every scenario × every paper method, in matrix
/// order.
pub fn run_campaign() -> Result<Vec<CampaignEntry>, SqlbError> {
    let mut entries = Vec::new();
    for scenario in scenarios() {
        for method in Method::PAPER_METHODS {
            entries.push(run_entry(&scenario, method)?);
        }
    }
    Ok(entries)
}

/// Runs the bounded smoke subset: every scenario under the SQLB method
/// only. The configurations are identical to the full matrix, so every
/// smoke digest must equal its committed counterpart — this is the CI
/// drift gate.
pub fn run_smoke() -> Result<Vec<CampaignEntry>, SqlbError> {
    let mut entries = Vec::new();
    for scenario in scenarios() {
        entries.push(run_entry(&scenario, Method::Sqlb)?);
    }
    Ok(entries)
}

/// 64-bit FNV-1a over the entry digests (in matrix order, keyed by
/// scenario and method names too): one number summarizing the whole
/// campaign, printed by the runner and recorded in the file header.
pub fn campaign_digest(entries: &[CampaignEntry]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for entry in entries {
        eat(entry.scenario.as_bytes());
        eat(entry.method.as_bytes());
        eat(&entry.digest.to_le_bytes());
    }
    hash
}

/// Renders the committed campaign file.
pub fn render_campaign(entries: &[CampaignEntry]) -> String {
    let mut out = String::from("{\n  \"campaign\": \"scenario_matrix\",\n");
    out.push_str(&format!(
        "  \"config\": {{\"consumers\": {CONSUMERS}, \"providers\": {PROVIDERS}, \"duration_secs\": {DURATION_SECS}, \"workload\": {WORKLOAD}, \"seed\": {SEED}, \"socket_hosts\": {SOCKET_HOSTS}}},\n",
    ));
    out.push_str(&format!(
        "  \"campaign_digest\": \"{:#018x}\",\n",
        campaign_digest(entries)
    ));
    out.push_str("  \"entries\": [\n");
    for (i, entry) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"method\": \"{}\", \"digest\": \"{:#018x}\", \
             \"issued_queries\": {}, \"completed_queries\": {}, \"retention\": {:.6}, \
             \"satisfaction\": {:.6}, \"utilization_balance\": {:.6}, \
             \"churn_departures\": {}, \"churn_rejoins\": {}, \
             \"indifferent_replies\": {}, \"degraded_waves\": {}}}{comma}\n",
            entry.scenario,
            entry.method,
            entry.digest,
            entry.issued_queries,
            entry.completed_queries,
            entry.retention,
            entry.satisfaction,
            entry.utilization_balance,
            entry.churn_departures,
            entry.churn_rejoins,
            entry.indifferent_replies,
            entry.degraded_waves,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One `"key": value` field of a rendered line (a line-oriented scanner:
/// the format is machine-written, one entry per line).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let rest = line[start..].trim_start_matches([':', ' ', '"']);
    let end = rest.find([',', '}', '"']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Parses a digest rendered as `"0x…"` hex.
fn parse_digest(value: &str) -> Option<u64> {
    u64::from_str_radix(value.strip_prefix("0x")?, 16).ok()
}

/// The field `key` of entry line `line_no` (1-based), read by `parse`; a
/// missing or unparsable field is an error naming the line and the key.
fn entry_field<T>(
    line_no: usize,
    line: &str,
    key: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, String> {
    let raw = field(line, &format!("\"{key}\""))
        .ok_or_else(|| format!("line {line_no}: missing \"{key}\""))?;
    parse(raw).ok_or_else(|| format!("line {line_no}: unparsable \"{key}\": {raw:?}"))
}

/// Parses a campaign file produced by [`render_campaign`]. Every entry
/// line (one that names a `"scenario"`) must carry every field in
/// parsable form: a missing or malformed field fails the whole parse
/// with its 1-based line number and key, never reads as 0 or drops the
/// entry.
pub fn parse_campaign(content: &str) -> Result<Vec<CampaignEntry>, String> {
    fn num<T: std::str::FromStr>(value: &str) -> Option<T> {
        value.parse().ok()
    }
    fn name(value: &str) -> Option<String> {
        (!value.is_empty()).then(|| value.to_string())
    }
    let mut entries = Vec::new();
    for (index, line) in content.lines().enumerate() {
        if !line.contains("\"scenario\"") {
            continue;
        }
        let n = index + 1;
        entries.push(CampaignEntry {
            scenario: entry_field(n, line, "scenario", name)?,
            method: entry_field(n, line, "method", name)?,
            digest: entry_field(n, line, "digest", parse_digest)?,
            issued_queries: entry_field(n, line, "issued_queries", num)?,
            completed_queries: entry_field(n, line, "completed_queries", num)?,
            retention: entry_field(n, line, "retention", num)?,
            satisfaction: entry_field(n, line, "satisfaction", num)?,
            utilization_balance: entry_field(n, line, "utilization_balance", num)?,
            churn_departures: entry_field(n, line, "churn_departures", num)?,
            churn_rejoins: entry_field(n, line, "churn_rejoins", num)?,
            indifferent_replies: entry_field(n, line, "indifferent_replies", num)?,
            degraded_waves: entry_field(n, line, "degraded_waves", num)?,
        });
    }
    Ok(entries)
}

/// Compares freshly measured entries against the committed matrix and
/// returns the drift report (empty: no drift). Every measured cell must
/// exist in the committed file with the identical digest — the engine is
/// deterministic per seed, so *any* digest change is a behavioral change
/// that must be re-committed deliberately, never silently.
pub fn drift(current: &[CampaignEntry], committed: &[CampaignEntry]) -> Vec<String> {
    let mut failures = Vec::new();
    for entry in current {
        let Some(baseline) = committed
            .iter()
            .find(|c| c.scenario == entry.scenario && c.method == entry.method)
        else {
            failures.push(format!(
                "{} × {}: no committed baseline (run `campaign --write` to record it)",
                entry.scenario, entry.method
            ));
            continue;
        };
        if baseline.digest != entry.digest {
            failures.push(format!(
                "{} × {}: digest {:#018x} drifted from committed {:#018x} \
                 (issued {} vs {}, retention {:.4} vs {:.4})",
                entry.scenario,
                entry.method,
                entry.digest,
                baseline.digest,
                entry.issued_queries,
                baseline.issued_queries,
                entry.retention,
                baseline.retention,
            ));
        }
    }
    failures
}

/// Path of the committed campaign file (repo root).
pub fn campaign_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campaign.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(scenario: &str, method: &str, digest: u64) -> CampaignEntry {
        CampaignEntry {
            scenario: scenario.to_string(),
            method: method.to_string(),
            digest,
            issued_queries: 4242,
            completed_queries: 4200,
            retention: 0.953125,
            satisfaction: 0.512345,
            utilization_balance: 0.87,
            churn_departures: 16,
            churn_rejoins: 16,
            indifferent_replies: 24,
            degraded_waves: 7,
        }
    }

    #[test]
    fn the_matrix_scenarios_are_named_valid_and_cover_the_campaign_axes() {
        let config = base_config();
        let all = scenarios();
        assert!(all.len() >= 5, "a campaign needs at least five scenarios");
        let mut names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        for scenario in &all {
            scenario.validate(&config).expect("campaign scenario");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "scenario names must be unique");
        assert!(all.iter().any(|s| !s.arrival.is_empty()));
        assert!(all
            .iter()
            .any(|s| s.churn.iter().any(|g| g.rejoin_at_secs.is_some())));
        assert!(all.iter().any(|s| !s.faults.is_empty()));
    }

    #[test]
    fn campaign_file_round_trips_through_render_and_parse() {
        let entries = vec![
            entry("steady", "SQLB", 0xDEAD_BEEF_0BAD_F00D),
            entry("flash-crowd", "Mariposa-like", 1),
        ];
        let rendered = render_campaign(&entries);
        let parsed = parse_campaign(&rendered).expect("a rendered file parses");
        assert_eq!(parsed, entries);
        // The recorded campaign digest matches the entries it covers.
        assert!(rendered.contains(&format!("{:#018x}", campaign_digest(&parsed))));
    }

    #[test]
    fn a_corrupt_number_or_digest_fails_the_parse_with_its_line_and_key() {
        let rendered = render_campaign(&[
            entry("steady", "SQLB", 0xDEAD_BEEF_0BAD_F00D),
            entry("flash-crowd", "SQLB", 1),
        ]);
        // Replaces `from` with `to` on 1-based line `line_no` only. The
        // header takes five lines, so the entries are lines 6 and 7.
        let corrupt = |line_no: usize, from: &str, to: &str| -> String {
            rendered
                .lines()
                .enumerate()
                .map(|(i, line)| {
                    let line = if i + 1 == line_no {
                        line.replacen(from, to, 1)
                    } else {
                        line.to_string()
                    };
                    line + "\n"
                })
                .collect()
        };
        let cases = [
            (
                7,
                "\"churn_rejoins\": 16",
                "\"churn_rejoins\": 1x6",
                "\"churn_rejoins\"",
            ),
            (6, "0xdeadbeef0badf00d", "0xdeadbeef0badf00g", "\"digest\""),
            (6, ", \"degraded_waves\": 7", "", "\"degraded_waves\""),
        ];
        for (line_no, from, to, key) in cases {
            let content = corrupt(line_no, from, to);
            assert_ne!(content, rendered, "the corruption must apply");
            let error = parse_campaign(&content).expect_err("a corrupt entry must not parse");
            assert!(
                error.contains(&format!("line {line_no}:")) && error.contains(key),
                "{error}"
            );
        }
    }

    #[test]
    fn campaign_digest_tracks_entry_digests_and_order() {
        let a = vec![entry("steady", "SQLB", 1), entry("diurnal", "SQLB", 2)];
        let mut b = a.clone();
        assert_eq!(campaign_digest(&a), campaign_digest(&b));
        b[1].digest = 3;
        assert_ne!(campaign_digest(&a), campaign_digest(&b));
        let swapped = vec![a[1].clone(), a[0].clone()];
        assert_ne!(campaign_digest(&a), campaign_digest(&swapped));
    }

    #[test]
    fn drift_reports_missing_baselines_and_digest_changes_only() {
        let committed = vec![entry("steady", "SQLB", 10), entry("diurnal", "SQLB", 20)];
        assert!(drift(&committed, &committed).is_empty());

        let mut current = committed.clone();
        current[0].retention = 0.5; // readings may drift; the digest pins
        assert!(drift(&current, &committed).is_empty());

        current[1].digest = 21;
        current.push(entry("new-one", "SQLB", 30));
        let failures = drift(&current, &committed);
        assert_eq!(failures.len(), 2);
        assert!(failures[0].contains("diurnal"));
        assert!(failures[1].contains("no committed baseline"));
    }
}
