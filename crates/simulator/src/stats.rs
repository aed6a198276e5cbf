//! Measurement collection and the simulation report.

use sqlb_agents::{DepartureReason, ProviderProfile};
use sqlb_metrics::{Summary, TimeSeries};
use sqlb_types::{ConsumerId, ProviderId};

/// All metric time series recorded during a run. Each series is sampled at
/// the configured sampling interval over the *active* (non-departed)
/// participants, which is what the paper's Figure 4 plots.
#[derive(Debug, Clone, Default)]
pub struct MetricSeries {
    /// Figure 4(a): providers' satisfaction mean, based on intentions
    /// ("what a query allocation method can see").
    pub provider_satisfaction_intention_mean: TimeSeries,
    /// Figure 4(b): providers' satisfaction mean, based on preferences
    /// ("what providers really feel").
    pub provider_satisfaction_preference_mean: TimeSeries,
    /// Figure 4(c): providers' allocation-satisfaction mean, based on
    /// preferences.
    pub provider_allocation_satisfaction_preference_mean: TimeSeries,
    /// Providers' allocation-satisfaction mean based on intentions
    /// (not plotted in the paper but useful for diagnostics).
    pub provider_allocation_satisfaction_intention_mean: TimeSeries,
    /// Figure 4(d): provider satisfaction fairness (intention-based).
    pub provider_satisfaction_fairness: TimeSeries,
    /// Figure 4(e): consumers' allocation-satisfaction mean.
    pub consumer_allocation_satisfaction_mean: TimeSeries,
    /// Consumers' satisfaction mean (diagnostic).
    pub consumer_satisfaction_mean: TimeSeries,
    /// Figure 4(f): consumer satisfaction fairness.
    pub consumer_satisfaction_fairness: TimeSeries,
    /// Figure 4(g): query load (utilization) mean.
    pub utilization_mean: TimeSeries,
    /// Figure 4(h): query load (utilization) fairness.
    pub utilization_fairness: TimeSeries,
    /// The workload fraction applied over time (the x-axis of several
    /// figures when re-plotted against workload).
    pub workload_fraction: TimeSeries,
    /// Number of providers still in the system.
    pub active_providers: TimeSeries,
    /// Number of consumers still in the system.
    pub active_consumers: TimeSeries,
    /// Per-shard mean provider utilization, one series per mediator shard
    /// (index = shard). This is the load signal cross-shard migration acts
    /// on; its spread is what rebalancing shrinks.
    pub shard_utilization: Vec<TimeSeries>,
    /// Per-shard mean provider satisfaction (smoothed, intention-agnostic
    /// reading), one series per mediator shard.
    pub shard_satisfaction: Vec<TimeSeries>,
    /// Per-shard *cumulative* allocation counts over time, one series per
    /// mediator shard. Differencing two samples gives the mediation load
    /// of any window, free of start-up transients.
    pub shard_allocation_counts: Vec<TimeSeries>,
    /// Spread (max − min) of the per-shard mean utilizations at each
    /// sample: the imbalance rebalancing is judged on.
    pub shard_utilization_spread: TimeSeries,
}

/// A provider departure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepartureRecord {
    /// The provider that left.
    pub provider: ProviderId,
    /// When it left (seconds of virtual time).
    pub time_secs: f64,
    /// Why it left.
    pub reason: DepartureReason,
    /// Its class profile (used by Table 3's breakdown).
    pub profile: ProviderProfile,
}

/// One cross-shard provider migration performed by a rebalancing round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationRecord {
    /// The provider that moved.
    pub provider: ProviderId,
    /// When it moved (seconds of virtual time).
    pub time_secs: f64,
    /// The shard that owned it before the move.
    pub from_shard: usize,
    /// The shard that owns it after the move.
    pub to_shard: usize,
    /// Imbalance observed by the rebalancing round that decided the move,
    /// before the move took effect: the per-shard mean-utilization spread
    /// under static routing, or the busiest/idlest allocation ratio under
    /// load-adaptive routing.
    pub spread_before: f64,
    /// The donor shard's mediator-side satisfaction reading for the
    /// provider at the moment of the move. The load-adaptive donor rule
    /// prefers under-served donors (low reading — their proposals mostly
    /// lose on the contended shard, so they stand to gain the most on the
    /// receiving one); recording the value makes that preference
    /// observable in the migration log.
    pub donor_satisfaction: f64,
}

/// A consumer departure (always by dissatisfaction in the paper's model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsumerDepartureRecord {
    /// The consumer that left.
    pub consumer: ConsumerId,
    /// When it left (seconds of virtual time).
    pub time_secs: f64,
}

/// The outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct SimulationReport {
    /// Display name of the allocation method under test.
    pub method: String,
    /// Seed the run used.
    pub seed: u64,
    /// All sampled metric series.
    pub series: MetricSeries,
    /// Queries issued by consumers.
    pub issued_queries: u64,
    /// Queries whose results were delivered before the end of the run.
    pub completed_queries: u64,
    /// Queries that could not be allocated because no provider remained in
    /// the system.
    pub unallocated_queries: u64,
    /// Sum of the response times of the completed queries (seconds),
    /// added in completion order; divided by `completed_queries` it is
    /// [`SimulationReport::mean_response_time`].
    pub response_time_sum: f64,
    /// Provider departures, in chronological order.
    pub provider_departures: Vec<DepartureRecord>,
    /// Consumer departures, in chronological order.
    pub consumer_departures: Vec<ConsumerDepartureRecord>,
    /// Number of providers at the start of the run.
    pub initial_providers: usize,
    /// Number of consumers at the start of the run.
    pub initial_consumers: usize,
    /// Number of mediator shards the run used (1 = the paper's setup).
    pub mediator_shards: usize,
    /// Allocations performed per mediator shard, in shard order.
    pub shard_allocations: Vec<u64>,
    /// Satisfaction-view synchronization rounds completed between shards.
    pub sync_rounds: u64,
    /// Consumer-routing policy name the run used (`"static"` in the
    /// paper's setup).
    pub routing_policy: String,
    /// Cross-shard provider migrations, in chronological order. Empty when
    /// migration is disabled or `mediator_shards == 1`.
    pub migrations: Vec<MigrationRecord>,
    /// Rebalancing rounds evaluated (a round may decide not to migrate).
    pub rebalance_rounds: u64,
    /// Summary of provider utilization at the end of the run.
    pub final_utilization: Summary,
    /// Summary of provider (intention-based) satisfaction at the end of the
    /// run.
    pub final_provider_satisfaction: Summary,
    /// Summary of consumer satisfaction at the end of the run.
    pub final_consumer_satisfaction: Summary,
    /// Name of the scenario the run executed (empty: the plain paper
    /// setup with no scenario attached). Descriptive only — not part of
    /// [`SimulationReport::digest`], whose fixed series list keeps
    /// digests comparable across report-schema revisions.
    pub scenario: String,
    /// Providers taken out by scenario churn groups. Kept separate from
    /// [`SimulationReport::provider_departures`]: churn is injected, not
    /// a behavioral outcome, so Table-3-style retention metrics stay
    /// clean (the digest still reflects churn through the
    /// `active_providers` series).
    pub churn_departures: u64,
    /// Providers brought back by scenario churn groups.
    pub churn_rejoins: u64,
    /// Mediation replies degraded to indifference by the run's transport
    /// (missed wave deadlines, dead connections) or modeled as such by
    /// the in-process fault hooks. Zero in fault-free runs on every
    /// backend.
    pub indifferent_replies: u64,
    /// Mediation waves that completed with at least one reply degraded
    /// to indifference — the wave-granular companion of
    /// [`SimulationReport::indifferent_replies`] (one degraded wave may
    /// account for many indifferent replies). Diagnostic only: like the
    /// scenario name, it is not folded into [`SimulationReport::digest`].
    pub degraded_waves: u64,
}

/// FNV-1a, 64-bit — the fold behind [`SimulationReport::digest`].
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_f64(&mut self, value: f64) {
        self.write_u64(value.to_bits());
    }

    fn write_series(&mut self, series: &TimeSeries) {
        for point in series.points() {
            self.write_f64(point.time);
            self.write_f64(point.value);
        }
    }
}

impl SimulationReport {
    /// Mean response time of completed queries, in seconds.
    pub fn mean_response_time(&self) -> f64 {
        if self.completed_queries == 0 {
            0.0
        } else {
            self.response_time_sum / self.completed_queries as f64
        }
    }

    /// A bit-exact digest of the report: the raw IEEE-754 bits of every
    /// primary metric series (plus the query counters) folded into an
    /// FNV-1a hash. Two runs produce the same digest if and only if their
    /// engines were bit-identical for that configuration — this is the
    /// value behind the "K=1 must stay bit-identical across PRs" and "all
    /// mediation backends must agree" acceptance bars (the `report_digest`
    /// binary prints it over a fixed configuration matrix).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.issued_queries);
        h.write_u64(self.completed_queries);
        h.write_u64(self.unallocated_queries);
        h.write_u64(self.provider_departures.len() as u64);
        h.write_u64(self.consumer_departures.len() as u64);
        h.write_f64(self.mean_response_time());
        let s = &self.series;
        for series in [
            &s.provider_satisfaction_intention_mean,
            &s.provider_satisfaction_preference_mean,
            &s.provider_allocation_satisfaction_preference_mean,
            &s.provider_allocation_satisfaction_intention_mean,
            &s.provider_satisfaction_fairness,
            &s.consumer_allocation_satisfaction_mean,
            &s.consumer_satisfaction_mean,
            &s.consumer_satisfaction_fairness,
            &s.utilization_mean,
            &s.utilization_fairness,
            &s.workload_fraction,
            &s.active_providers,
            &s.active_consumers,
        ] {
            h.write_series(series);
        }
        h.0
    }

    /// Fraction of providers that departed during the run.
    pub fn provider_departure_fraction(&self) -> f64 {
        if self.initial_providers == 0 {
            0.0
        } else {
            self.provider_departures.len() as f64 / self.initial_providers as f64
        }
    }

    /// Fraction of consumers that departed during the run.
    pub fn consumer_departure_fraction(&self) -> f64 {
        if self.initial_consumers == 0 {
            0.0
        } else {
            self.consumer_departures.len() as f64 / self.initial_consumers as f64
        }
    }

    /// Fraction of the initial providers still active at the last metric
    /// sample — the retention reading of the campaign matrix. Unlike
    /// `1 − provider_departure_fraction()` this also reflects scenario
    /// churn (departures *and* re-joins), since it reads the sampled
    /// `active_providers` series.
    pub fn provider_retention(&self) -> f64 {
        if self.initial_providers == 0 {
            return 1.0;
        }
        let active = self
            .series
            .active_providers
            .last_value()
            .unwrap_or(self.initial_providers as f64 - self.provider_departures.len() as f64);
        active / self.initial_providers as f64
    }

    /// Fraction of issued queries that completed.
    pub fn completion_rate(&self) -> f64 {
        if self.issued_queries == 0 {
            1.0
        } else {
            self.completed_queries as f64 / self.issued_queries as f64
        }
    }

    /// Number of provider departures with the given reason.
    pub fn departures_by_reason(&self, reason: DepartureReason) -> usize {
        self.provider_departures
            .iter()
            .filter(|d| d.reason == reason)
            .count()
    }

    /// Ratio between the busiest and the idlest shard's allocation count
    /// (`max / min`). `1` means perfectly balanced mediation load;
    /// `infinity` means at least one shard mediated nothing. Reports `1`
    /// for a mono-mediator run.
    pub fn shard_allocation_imbalance(&self) -> f64 {
        let max = self.shard_allocations.iter().copied().max().unwrap_or(0);
        let min = self.shard_allocations.iter().copied().min().unwrap_or(0);
        if max == 0 {
            1.0
        } else if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        }
    }

    /// Mean per-shard utilization spread over the samples taken at or
    /// after `from_secs` — the steady-state imbalance rebalancing is
    /// judged on.
    pub fn mean_shard_utilization_spread_after(&self, from_secs: f64) -> f64 {
        self.series.shard_utilization_spread.mean_after(from_secs)
    }

    /// `max / min` of the per-shard allocations mediated *after*
    /// `from_secs` (from the cumulative per-shard counts, differenced at
    /// the first sample at or after `from_secs`). This is the steady-state
    /// variant of [`SimulationReport::shard_allocation_imbalance`], free
    /// of the start-up transient a run needs before routing and migration
    /// converge. Falls back to the whole-run ratio when the series are
    /// missing or the window contains no allocation at all (including
    /// `from_secs` at or past the final sample, where every window is
    /// empty by construction).
    pub fn shard_allocation_imbalance_after(&self, from_secs: f64) -> f64 {
        let counts = &self.series.shard_allocation_counts;
        if counts.is_empty() {
            return self.shard_allocation_imbalance();
        }
        let mut max = 0.0f64;
        let mut min = f64::INFINITY;
        for series in counts {
            let start = series.value_at(from_secs).unwrap_or(0.0);
            let end = series.last_value().unwrap_or(0.0);
            let window = (end - start).max(0.0);
            max = max.max(window);
            min = min.min(window);
        }
        if max == 0.0 {
            // Nothing was mediated in the window — there is no tail
            // imbalance to report, so answer with the whole-run ratio
            // rather than claiming perfect balance.
            self.shard_allocation_imbalance()
        } else if min == 0.0 {
            f64::INFINITY
        } else {
            max / min
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlb_agents::{AdaptationClass, CapacityClass, InterestClass};

    fn profile() -> ProviderProfile {
        ProviderProfile {
            interest: InterestClass::High,
            adaptation: AdaptationClass::Medium,
            capacity: CapacityClass::Low,
        }
    }

    fn empty_report() -> SimulationReport {
        SimulationReport {
            method: "test".into(),
            seed: 0,
            series: MetricSeries::default(),
            issued_queries: 0,
            completed_queries: 0,
            unallocated_queries: 0,
            response_time_sum: 0.0,
            provider_departures: Vec::new(),
            consumer_departures: Vec::new(),
            initial_providers: 0,
            initial_consumers: 0,
            mediator_shards: 1,
            shard_allocations: Vec::new(),
            sync_rounds: 0,
            routing_policy: "static".into(),
            migrations: Vec::new(),
            rebalance_rounds: 0,
            final_utilization: Summary::of(&[]),
            final_provider_satisfaction: Summary::of(&[]),
            final_consumer_satisfaction: Summary::of(&[]),
            scenario: String::new(),
            churn_departures: 0,
            churn_rejoins: 0,
            indifferent_replies: 0,
            degraded_waves: 0,
        }
    }

    #[test]
    fn empty_report_has_neutral_ratios() {
        let r = empty_report();
        assert_eq!(r.mean_response_time(), 0.0);
        assert_eq!(r.provider_departure_fraction(), 0.0);
        assert_eq!(r.consumer_departure_fraction(), 0.0);
        assert_eq!(r.completion_rate(), 1.0);
    }

    #[test]
    fn ratios_and_reason_counts() {
        let mut r = empty_report();
        r.initial_providers = 10;
        r.initial_consumers = 4;
        r.issued_queries = 100;
        r.completed_queries = 80;
        r.provider_departures = vec![
            DepartureRecord {
                provider: ProviderId::new(0),
                time_secs: 10.0,
                reason: DepartureReason::Dissatisfaction,
                profile: profile(),
            },
            DepartureRecord {
                provider: ProviderId::new(1),
                time_secs: 20.0,
                reason: DepartureReason::Overutilization,
                profile: profile(),
            },
        ];
        r.consumer_departures = vec![ConsumerDepartureRecord {
            consumer: ConsumerId::new(0),
            time_secs: 5.0,
        }];
        assert!((r.provider_departure_fraction() - 0.2).abs() < 1e-12);
        assert!((r.consumer_departure_fraction() - 0.25).abs() < 1e-12);
        assert!((r.completion_rate() - 0.8).abs() < 1e-12);
        assert_eq!(r.departures_by_reason(DepartureReason::Dissatisfaction), 1);
        assert_eq!(r.departures_by_reason(DepartureReason::Overutilization), 1);
        assert_eq!(r.departures_by_reason(DepartureReason::Starvation), 0);
    }

    #[test]
    fn response_time_mean_reflects_records() {
        let mut r = empty_report();
        r.completed_queries = 2;
        r.response_time_sum = 2.0 + 4.0;
        assert!((r.mean_response_time() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn shard_allocation_imbalance_is_max_over_min() {
        let mut r = empty_report();
        assert_eq!(r.shard_allocation_imbalance(), 1.0, "no shards: neutral");
        r.shard_allocations = vec![100, 50, 200, 100];
        assert!((r.shard_allocation_imbalance() - 4.0).abs() < 1e-12);
        r.shard_allocations = vec![80, 80];
        assert!((r.shard_allocation_imbalance() - 1.0).abs() < 1e-12);
        r.shard_allocations = vec![80, 0];
        assert!(r.shard_allocation_imbalance().is_infinite());
    }

    #[test]
    fn tail_imbalance_windows_the_cumulative_counts() {
        let mut r = empty_report();
        r.shard_allocations = vec![300, 100];
        // Cumulative counts: shard 0 mediates 200 then 100 more; shard 1
        // mediates 50 then 50 more.
        let mut s0 = TimeSeries::new();
        s0.push_raw(100.0, 200.0);
        s0.push_raw(200.0, 300.0);
        let mut s1 = TimeSeries::new();
        s1.push_raw(100.0, 50.0);
        s1.push_raw(200.0, 100.0);
        r.series.shard_allocation_counts = vec![s0, s1];
        // Tail from t=100: windows are 100 and 50 → ratio 2.
        assert!((r.shard_allocation_imbalance_after(100.0) - 2.0).abs() < 1e-12);
        // A window past the final sample holds no allocations: fall back
        // to the whole-run ratio (3.0), never report perfect balance.
        assert!((r.shard_allocation_imbalance_after(500.0) - 3.0).abs() < 1e-12);
        // No series at all: whole-run ratio too.
        r.series.shard_allocation_counts.clear();
        assert!((r.shard_allocation_imbalance_after(100.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn shard_spread_summary_reads_the_series() {
        let mut r = empty_report();
        r.series.shard_utilization_spread.push_raw(50.0, 0.4);
        r.series.shard_utilization_spread.push_raw(150.0, 0.2);
        r.series.shard_utilization_spread.push_raw(250.0, 0.1);
        assert!((r.mean_shard_utilization_spread_after(100.0) - 0.15).abs() < 1e-12);
    }
}
