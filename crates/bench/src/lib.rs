//! # sqlb-bench
//!
//! Benchmark harness for the SQLB reproduction. It has three parts:
//!
//! * **Criterion micro-benchmarks** (`benches/`) for the hot paths of the
//!   framework: intention computation, scoring, the allocation methods and
//!   simulation steps.
//! * **Regeneration binaries** (`src/bin/`), one per figure/table of the
//!   paper's evaluation. Each prints the corresponding data series as a
//!   whitespace-separated table on stdout. Run, for example:
//!
//!   ```text
//!   cargo run --release -p sqlb-bench --bin fig4_captive -- --scale default --panel a
//!   cargo run --release -p sqlb-bench --bin fig5_autonomy -- --panel c
//!   cargo run --release -p sqlb-bench --bin table3_departures
//!   ```
//!
//!   Every binary accepts `--scale quick|default|paper` (the paper scale
//!   reproduces Table 2 exactly but takes minutes per figure).
//! * **Shared benchmark configurations** ([`perf`]): the shard-throughput
//!   and scale configurations (perfbench's `scale-100k` workload is built
//!   from [`perf::scale_config`]) and by-hand wall-clock measurements that
//!   only print. No bench or binary here writes a file or gates on wall
//!   clock; the CI gates are exact heap and wire counts in the root
//!   package's tests.
//!
//! The crate root holds the tiny argument-parsing helpers shared by the
//! binaries.

#![warn(missing_docs)]

pub mod perf;

use sqlb_sim::experiments::ExperimentScale;

/// Parsed common command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct CommonArgs {
    /// Experiment scale.
    pub scale: ExperimentScale,
    /// Optional `--panel <letter>` selector (Figure 4 / Figure 5 panels).
    pub panel: Option<char>,
    /// Optional `--workloads 0.2,0.4,...` override.
    pub workloads: Option<Vec<f64>>,
    /// Optional `--seed <u64>` override.
    pub seed: Option<u64>,
}

impl Default for CommonArgs {
    fn default() -> Self {
        CommonArgs {
            scale: ExperimentScale::default_scaled(),
            panel: None,
            workloads: None,
            seed: None,
        }
    }
}

/// Parses the common options from an iterator of arguments (excluding the
/// program name). Unknown options are ignored so binaries can add their
/// own.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> CommonArgs {
    let mut parsed = CommonArgs::default();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                if let Some(value) = iter.next() {
                    parsed.scale = parse_scale(&value);
                }
            }
            "--panel" => {
                if let Some(value) = iter.next() {
                    parsed.panel = value.chars().next();
                }
            }
            "--workloads" => {
                if let Some(value) = iter.next() {
                    let workloads: Vec<f64> = value
                        .split(',')
                        .filter_map(|w| w.trim().parse::<f64>().ok())
                        .collect();
                    if !workloads.is_empty() {
                        parsed.workloads = Some(workloads);
                    }
                }
            }
            "--seed" => {
                if let Some(value) = iter.next() {
                    parsed.seed = value.trim().parse().ok();
                }
            }
            _ => {}
        }
    }
    if let Some(seed) = parsed.seed {
        parsed.scale.seed = seed;
    }
    parsed
}

/// Parses a scale name (`quick`, `default`, `paper`).
pub fn parse_scale(name: &str) -> ExperimentScale {
    match name.to_ascii_lowercase().as_str() {
        "paper" | "full" => ExperimentScale::paper(),
        "quick" | "test" => ExperimentScale::quick(),
        _ => ExperimentScale::default_scaled(),
    }
}

/// Convenience used by the binaries: parse `std::env::args()`.
pub fn parse_env_args() -> CommonArgs {
    parse_args(std::env::args().skip(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> CommonArgs {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_when_no_arguments() {
        let a = args(&[]);
        assert_eq!(a.scale, ExperimentScale::default_scaled());
        assert_eq!(a.panel, None);
        assert_eq!(a.workloads, None);
    }

    #[test]
    fn parses_scale_names() {
        assert_eq!(parse_scale("paper"), ExperimentScale::paper());
        assert_eq!(parse_scale("QUICK"), ExperimentScale::quick());
        assert_eq!(parse_scale("default"), ExperimentScale::default_scaled());
        assert_eq!(parse_scale("garbage"), ExperimentScale::default_scaled());
    }

    #[test]
    fn parses_panel_and_workloads_and_seed() {
        let a = args(&[
            "--scale",
            "quick",
            "--panel",
            "c",
            "--workloads",
            "0.2, 0.5,0.8",
            "--seed",
            "7",
        ]);
        assert_eq!(a.scale.consumers, ExperimentScale::quick().consumers);
        assert_eq!(a.panel, Some('c'));
        assert_eq!(a.workloads, Some(vec![0.2, 0.5, 0.8]));
        assert_eq!(a.seed, Some(7));
        assert_eq!(a.scale.seed, 7);
    }

    #[test]
    fn ignores_unknown_options_and_bad_values() {
        let a = args(&["--unknown", "x", "--workloads", "not-a-number"]);
        assert_eq!(a.workloads, None);
        assert_eq!(a.scale, ExperimentScale::default_scaled());
    }
}
