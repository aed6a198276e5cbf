//! Time-series recording for the experiment harness.
//!
//! The paper's Figure 4 reports metrics sampled over 10 000 seconds of
//! simulated time. [`TimeSeries`] records `(time, value)` samples;
//! [`SeriesSet`] groups named series (one per method/metric combination) and
//! renders them in the column-per-series textual format used by the
//! figure-regeneration binaries.

use sqlb_types::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A single sample of a time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimePoint {
    /// Virtual time of the sample, in seconds.
    pub time: f64,
    /// Sampled value.
    pub value: f64,
}

/// An append-only series of `(time, value)` samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<TimePoint>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Creates an empty series with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        TimeSeries {
            points: Vec::with_capacity(capacity),
        }
    }

    /// Appends a sample. Samples are expected to arrive in non-decreasing
    /// time order (the simulator guarantees this); out-of-order samples are
    /// still stored and only affect interpolation accuracy.
    pub fn push(&mut self, time: SimTime, value: f64) {
        self.points.push(TimePoint {
            time: time.as_secs(),
            value,
        });
    }

    /// Appends a sample from raw seconds.
    pub fn push_raw(&mut self, time_secs: f64, value: f64) {
        self.points.push(TimePoint {
            time: time_secs,
            value,
        });
    }

    /// The recorded samples, in insertion order.
    pub fn points(&self) -> &[TimePoint] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last recorded value, if any.
    pub fn last_value(&self) -> Option<f64> {
        self.points.last().map(|p| p.value)
    }

    /// Mean of all recorded values (0 if empty).
    pub fn mean(&self) -> f64 {
        crate::aggregate::mean(&self.values())
    }

    /// Mean of the values recorded at or after `from_secs`. Useful to
    /// summarize the steady-state portion of a run.
    pub fn mean_after(&self, from_secs: f64) -> f64 {
        let tail: Vec<f64> = self
            .points
            .iter()
            .filter(|p| p.time >= from_secs)
            .map(|p| p.value)
            .collect();
        crate::aggregate::mean(&tail)
    }

    /// All values, in insertion order.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.value).collect()
    }

    /// Value at time `t` obtained by holding the last sample recorded at or
    /// before `t` (step interpolation). Returns `None` before the first
    /// sample.
    pub fn value_at(&self, t: f64) -> Option<f64> {
        let mut last = None;
        for p in &self.points {
            if p.time <= t {
                last = Some(p.value);
            } else {
                break;
            }
        }
        last
    }

    /// Downsamples the series to at most `max_points` samples, keeping an
    /// evenly spaced subset (always including the final sample). Used to
    /// keep figure output readable.
    pub fn downsample(&self, max_points: usize) -> TimeSeries {
        if max_points == 0 || self.points.len() <= max_points {
            return self.clone();
        }
        let stride = (self.points.len() as f64 / max_points as f64).ceil() as usize;
        let mut out = TimeSeries::with_capacity(max_points + 1);
        for (i, p) in self.points.iter().enumerate() {
            if i % stride == 0 {
                out.points.push(*p);
            }
        }
        if let (Some(last), Some(out_last)) = (self.points.last(), out.points.last()) {
            if out_last.time != last.time {
                out.points.push(*last);
            }
        }
        out
    }
}

/// A collection of named time series sharing a common x-axis, e.g. the three
/// methods of Figure 4(a).
#[derive(Debug, Clone, Default)]
pub struct SeriesSet {
    series: BTreeMap<String, TimeSeries>,
}

impl SeriesSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        SeriesSet {
            series: BTreeMap::new(),
        }
    }

    /// Returns a mutable handle to the series with the given name, creating
    /// it if needed.
    pub fn series_mut(&mut self, name: &str) -> &mut TimeSeries {
        self.series.entry(name.to_string()).or_default()
    }

    /// Returns the series with the given name, if present.
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// Names of all series, in sorted order.
    pub fn names(&self) -> Vec<&str> {
        self.series.keys().map(|s| s.as_str()).collect()
    }

    /// Number of series in the set.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether the set contains no series.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Renders the set as a whitespace-separated table: one row per distinct
    /// sample time (union of all series), one column per series, using step
    /// interpolation for series without a sample at that exact time. This is
    /// the format emitted by the figure-regeneration binaries.
    pub fn to_table(&self, x_label: &str) -> String {
        let mut out = String::new();
        let _ = write!(out, "{:>12}", x_label);
        for name in self.series.keys() {
            let _ = write!(out, " {:>18}", name);
        }
        out.push('\n');

        let mut times: Vec<f64> = self
            .series
            .values()
            .flat_map(|s| s.points().iter().map(|p| p.time))
            .collect();
        times.sort_by(f64::total_cmp);
        times.dedup_by(|a, b| (*a - *b).abs() < 1e-9);

        for t in times {
            let _ = write!(out, "{:>12.2}", t);
            for s in self.series.values() {
                match s.value_at(t) {
                    Some(v) => {
                        let _ = write!(out, " {:>18.4}", v);
                    }
                    None => {
                        let _ = write!(out, " {:>18}", "-");
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn push_and_read_back() {
        let mut s = TimeSeries::new();
        assert!(s.is_empty());
        s.push(t(1.0), 0.5);
        s.push(t(2.0), 0.7);
        assert_eq!(s.len(), 2);
        assert_eq!(s.last_value(), Some(0.7));
        assert_eq!(s.values(), vec![0.5, 0.7]);
        assert!((s.mean() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn value_at_uses_step_interpolation() {
        let mut s = TimeSeries::new();
        s.push(t(10.0), 1.0);
        s.push(t(20.0), 2.0);
        assert_eq!(s.value_at(5.0), None);
        assert_eq!(s.value_at(10.0), Some(1.0));
        assert_eq!(s.value_at(15.0), Some(1.0));
        assert_eq!(s.value_at(20.0), Some(2.0));
        assert_eq!(s.value_at(100.0), Some(2.0));
    }

    #[test]
    fn mean_after_filters_prefix() {
        let mut s = TimeSeries::new();
        s.push(t(0.0), 0.0);
        s.push(t(50.0), 1.0);
        s.push(t(100.0), 1.0);
        assert!((s.mean_after(50.0) - 1.0).abs() < 1e-12);
        assert!((s.mean_after(200.0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn downsample_keeps_endpoints_and_bound() {
        let mut s = TimeSeries::new();
        for i in 0..1000 {
            s.push_raw(i as f64, i as f64);
        }
        let d = s.downsample(50);
        assert!(d.len() <= 51);
        assert_eq!(d.points().first().unwrap().time, 0.0);
        assert_eq!(d.points().last().unwrap().time, 999.0);
        // Downsampling an already-small series is the identity.
        let small = s.downsample(5000);
        assert_eq!(small.len(), s.len());
    }

    #[test]
    fn series_set_table_rendering() {
        let mut set = SeriesSet::new();
        set.series_mut("SQLB").push(t(0.0), 0.5);
        set.series_mut("SQLB").push(t(10.0), 0.6);
        set.series_mut("Capacity").push(t(0.0), 0.4);
        let table = set.to_table("time");
        let mut lines = table.lines();
        let header = lines.next().unwrap();
        assert!(header.contains("time"));
        assert!(header.contains("SQLB"));
        assert!(header.contains("Capacity"));
        // Two distinct times → two data rows.
        assert_eq!(lines.count(), 2);
        assert_eq!(set.names(), vec!["Capacity", "SQLB"]);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
    }
}
