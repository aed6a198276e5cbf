//! Scenario-campaign runner and CI drift gate.
//!
//! Runs the named scenario matrix of `sqlb_sim::campaign` (scenarios ×
//! allocation methods, one fixed seeded configuration) and checks or
//! records the committed `BENCH_campaign.json`:
//!
//! ```text
//! cargo run --release -p sqlb-bench --bin campaign -- --check   # default
//! cargo run --release -p sqlb-bench --bin campaign -- --smoke
//! cargo run --release -p sqlb-bench --bin campaign -- --write
//! ```
//!
//! * `--check` re-runs the full matrix and exits non-zero when any
//!   digest differs from the committed file (the engine is bit-exact
//!   per seed, so any drift is a behavioral change to re-commit
//!   deliberately).
//! * `--smoke` is the CI-budget subset: every scenario under the SQLB
//!   method only, identical configurations, gated the same way.
//! * `--write` re-runs the full matrix and rewrites the committed file.

use sqlb_sim::campaign::{
    campaign_digest, campaign_path, drift, parse_campaign, render_campaign, run_campaign,
    run_smoke, CampaignEntry,
};

enum Mode {
    Check,
    Smoke,
    Write,
}

fn measure(mode: &Mode) -> Vec<CampaignEntry> {
    let result = match mode {
        Mode::Smoke => run_smoke(),
        Mode::Check | Mode::Write => run_campaign(),
    };
    match result {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("campaign: run failed: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mode = match std::env::args().nth(1).as_deref() {
        None | Some("--check") => Mode::Check,
        Some("--smoke") => Mode::Smoke,
        Some("--write") => Mode::Write,
        Some(other) => {
            eprintln!("campaign: unknown mode {other} (use --check, --smoke or --write)");
            std::process::exit(2);
        }
    };
    let path = campaign_path();
    let entries = measure(&mode);
    for entry in &entries {
        println!(
            "{:<22} {:<16} digest {:#018x}  issued {:>5}  retention {:.4}  \
             satisfaction {:+.4}  balance {:.4}  churn -{}/+{}",
            entry.scenario,
            entry.method,
            entry.digest,
            entry.issued_queries,
            entry.retention,
            entry.satisfaction,
            entry.utilization_balance,
            entry.churn_departures,
            entry.churn_rejoins,
        );
    }
    println!("campaign digest: {:#018x}", campaign_digest(&entries));

    match mode {
        Mode::Write => {
            if let Err(e) = std::fs::write(path, render_campaign(&entries)) {
                eprintln!("campaign: cannot write {path}: {e}");
                std::process::exit(2);
            }
            println!("campaign: wrote {} entries to {path}", entries.len());
        }
        Mode::Check | Mode::Smoke => {
            let content = match std::fs::read_to_string(path) {
                Ok(content) => content,
                Err(e) => {
                    eprintln!("campaign: cannot read {path}: {e}");
                    std::process::exit(2);
                }
            };
            let committed = match parse_campaign(&content) {
                Ok(committed) => committed,
                Err(e) => {
                    eprintln!("campaign: malformed {path}: {e}");
                    std::process::exit(2);
                }
            };
            let failures = drift(&entries, &committed);
            if failures.is_empty() {
                println!(
                    "campaign: OK — {} entries match the committed digests",
                    entries.len()
                );
            } else {
                for failure in &failures {
                    eprintln!("campaign: DRIFT — {failure}");
                }
                std::process::exit(1);
            }
        }
    }
}
