//! Named telemetry: log-bucketed latency histograms plus cycle-sampled
//! occupancy gauges, exportable as one JSON document.
//!
//! The registry is the aggregate companion to the event log: events answer
//! *"what happened to this packet"*, the registry answers *"what do the
//! tails look like"*. Histograms reuse
//! [`nifdy_sim::metrics::LogHistogram`], so every percentile printed by the
//! harness comes from the same estimator the simulator tests validate.

use std::collections::BTreeMap;

use nifdy_sim::metrics::LogHistogram;
use nifdy_sim::Cycle;

use crate::json::Json;

/// A bounded, cycle-stamped gauge series (occupancy over time).
///
/// When the series fills its bound, every other retained point is discarded
/// and the sampling stride doubles, so arbitrarily long runs keep a
/// uniformly spaced, bounded-size series instead of growing without limit
/// or silently dropping the tail.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSeries {
    points: Vec<(u64, f64)>,
    bound: usize,
    /// Keep every `stride`-th offered sample.
    stride: u64,
    offered: u64,
}

impl GaugeSeries {
    /// Creates a series retaining at most `bound` points.
    ///
    /// # Panics
    ///
    /// Panics if `bound` < 2.
    pub fn new(bound: usize) -> Self {
        assert!(bound >= 2, "gauge bound must be at least 2");
        GaugeSeries {
            points: Vec::new(),
            bound,
            stride: 1,
            offered: 0,
        }
    }

    /// Offers one sample; it is retained if the current stride selects it.
    pub fn push(&mut self, at: Cycle, value: f64) {
        let keep = self.offered.is_multiple_of(self.stride);
        self.offered += 1;
        if !keep {
            return;
        }
        if self.points.len() == self.bound {
            // Decimate: keep even-indexed points, double the stride.
            let mut i = 0;
            self.points.retain(|_| {
                let keep = i % 2 == 0;
                i += 1;
                keep
            });
            self.stride *= 2;
            // The sample that triggered decimation is kept only if it still
            // falls on the doubled stride.
            if !(self.offered - 1).is_multiple_of(self.stride) {
                return;
            }
        }
        self.points.push((at.as_u64(), value));
    }

    /// The retained `(cycle, value)` points, in time order.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Largest retained value, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }
}

/// One row of a percentile summary table.
#[derive(Debug, Clone, PartialEq)]
pub struct PercentileRow {
    /// Histogram name.
    pub name: String,
    /// Sample count.
    pub count: u64,
    /// p50 estimate.
    pub p50: u64,
    /// p90 estimate.
    pub p90: u64,
    /// p99 estimate.
    pub p99: u64,
    /// p99.9 estimate.
    pub p999: u64,
    /// Exact maximum.
    pub max: u64,
}

/// Named histograms and gauges for one run.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    hists: BTreeMap<String, LogHistogram>,
    gauges: BTreeMap<String, GaugeSeries>,
    gauge_bound: usize,
}

impl MetricsRegistry {
    /// Creates an empty registry (gauges bounded to 4096 points each).
    pub fn new() -> Self {
        MetricsRegistry {
            hists: BTreeMap::new(),
            gauges: BTreeMap::new(),
            gauge_bound: 4096,
        }
    }

    /// Records one sample into the named histogram, creating it on first
    /// use.
    pub fn record(&mut self, name: &str, value: u64) {
        self.hists.entry_or_default(name).record(value);
    }

    /// Merges an externally built histogram into the named slot.
    pub fn merge_histogram(&mut self, name: &str, hist: &LogHistogram) {
        self.hists.entry_or_default(name).merge(hist);
    }

    /// Samples the named gauge at `at`, creating the series on first use.
    pub fn gauge(&mut self, name: &str, at: Cycle, value: f64) {
        let bound = self.gauge_bound;
        self.gauges
            .entry(name.to_string())
            .or_insert_with(|| GaugeSeries::new(bound))
            .push(at, value);
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.get(name)
    }

    /// The named gauge series, if any samples were taken.
    pub fn gauge_series(&self, name: &str) -> Option<&GaugeSeries> {
        self.gauges.get(name)
    }

    /// One summary row per non-empty histogram, sorted by name.
    pub fn percentile_rows(&self) -> Vec<PercentileRow> {
        self.hists
            .iter()
            .filter(|(_, h)| !h.is_empty())
            .map(|(name, h)| PercentileRow {
                name: name.clone(),
                count: h.count(),
                p50: h.p50(),
                p90: h.p90(),
                p99: h.p99(),
                p999: h.p999(),
                max: h.max(),
            })
            .collect()
    }

    /// Exports the whole registry as one JSON document:
    ///
    /// ```json
    /// {
    ///   "histograms": {"<name>": {"count":…,"mean":…,"p50":…,…}},
    ///   "gauges": {"<name>": {"points": [[cycle, value], …]}}
    /// }
    /// ```
    pub fn to_json(&self) -> Json {
        let hists: BTreeMap<String, Json> = self
            .hists
            .iter()
            .map(|(name, h)| {
                (
                    name.clone(),
                    Json::obj([
                        ("count", Json::u64(h.count())),
                        ("mean", Json::Num(h.mean())),
                        ("min", Json::u64(h.min())),
                        ("p50", Json::u64(h.p50())),
                        ("p90", Json::u64(h.p90())),
                        ("p99", Json::u64(h.p99())),
                        ("p999", Json::u64(h.p999())),
                        ("max", Json::u64(h.max())),
                    ]),
                )
            })
            .collect();
        let gauges: BTreeMap<String, Json> = self
            .gauges
            .iter()
            .map(|(name, g)| {
                let points = g
                    .points()
                    .iter()
                    .map(|&(c, v)| Json::Arr(vec![Json::u64(c), Json::Num(v)]))
                    .collect();
                (name.clone(), Json::obj([("points", Json::Arr(points))]))
            })
            .collect();
        Json::obj([
            ("histograms", Json::Obj(hists)),
            ("gauges", Json::Obj(gauges)),
        ])
    }
}

/// `BTreeMap::entry(..).or_default()` with a `&str` key, avoiding an
/// allocation when the slot already exists.
trait EntryOrDefault {
    fn entry_or_default(&mut self, name: &str) -> &mut LogHistogram;
}

impl EntryOrDefault for BTreeMap<String, LogHistogram> {
    #[expect(
        clippy::expect_used,
        reason = "the lookup follows an insert of the same key; the entry API would \
                  allocate a String per record on the hit path"
    )]
    fn entry_or_default(&mut self, name: &str) -> &mut LogHistogram {
        if !self.contains_key(name) {
            self.insert(name.to_string(), LogHistogram::new());
        }
        self.get_mut(name).expect("just inserted")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn histograms_accumulate_and_summarize() {
        let mut reg = MetricsRegistry::new();
        for v in 1..=100u64 {
            reg.record("latency.scalar", v);
        }
        let rows = reg.percentile_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "latency.scalar");
        assert_eq!(rows[0].count, 100);
        assert_eq!(rows[0].max, 100);
        assert!(
            rows[0].p50 >= 45 && rows[0].p50 <= 55,
            "p50 {}",
            rows[0].p50
        );
    }

    #[test]
    fn gauge_decimation_bounds_the_series() {
        let mut g = GaugeSeries::new(8);
        for c in 0..1000u64 {
            g.push(Cycle::new(c), c as f64);
        }
        assert!(g.points().len() <= 8, "len {}", g.points().len());
        // Still spans the run: first point at 0, last point late.
        assert_eq!(g.points()[0].0, 0);
        assert!(g.points().last().unwrap().0 >= 750);
        // Uniform stride after decimation.
        let strides: Vec<u64> = g.points().windows(2).map(|w| w[1].0 - w[0].0).collect();
        assert!(strides.windows(2).all(|w| w[0] == w[1]), "{strides:?}");
    }

    #[test]
    fn registry_json_round_trips() {
        let mut reg = MetricsRegistry::new();
        reg.record("latency", 10);
        reg.record("latency", 20);
        reg.gauge("opt", Cycle::new(0), 3.0);
        reg.gauge("opt", Cycle::new(100), 5.0);
        let text = reg.to_json().render();
        let doc = parse(&text).expect("round trip");
        let lat = doc.get("histograms").unwrap().get("latency").unwrap();
        assert_eq!(lat.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(lat.get("max").unwrap().as_u64(), Some(20));
        let opt = doc.get("gauges").unwrap().get("opt").unwrap();
        assert_eq!(opt.get("points").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn merge_histogram_combines_samples() {
        let mut reg = MetricsRegistry::new();
        let mut h = LogHistogram::new();
        h.record(7);
        h.record(9);
        reg.merge_histogram("fabric", &h);
        reg.record("fabric", 11);
        assert_eq!(reg.histogram("fabric").unwrap().count(), 3);
    }
}
