//! The million-participant scale benchmark (`scale_1m`).
//!
//! Runs the scale points of [`perf::SCALE_POINTS`] — 10^5 and 10^6
//! participants, split 1:2 between consumers and providers, with
//! procedural (hash-derived) consumer preferences and providers
//! partitioned into paper-sized shards — and prints throughput plus the
//! measured bytes-per-participant footprint. Nothing is written.
//!
//! ```text
//! cargo run --release -p sqlb-bench --bin scale_1m
//! cargo run --release -p sqlb-bench --bin scale_1m -- --smoke
//! ```
//!
//! `--smoke` runs only the cheap 10^5 point: the CI job that proves the
//! scale path stays alive without paying for a million-participant run.
//! perfbench's `scale-100k` workload measures the same 10^5 configuration
//! ([`perf::scale_config`]) as the benchmark of record.

use sqlb_bench::perf;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let points: &[u64] = if smoke {
        &perf::SCALE_POINTS[..1]
    } else {
        &perf::SCALE_POINTS
    };

    for &participants in points {
        println!("scale_1m: running {participants} participants…");
        let row = perf::measure_scale(participants);
        println!(
            "  {} participants ({} consumers + {} providers, {} shards): \
             {} queries in {:.1} ms = {:.1} allocations/s, {:.1} bytes/participant",
            row.participants,
            row.consumers,
            row.providers,
            row.mediator_shards,
            row.issued_queries,
            row.wall_ms,
            row.allocations_per_sec,
            row.bytes_per_participant,
        );
        assert!(
            row.issued_queries > 0,
            "a scale run that allocates nothing measures nothing"
        );
    }
}
