//! Latency and throughput statistics.

use crate::fault::FaultTally;
use crate::power::EnergyCounters;

/// A fixed-bin counting histogram with an explicit overflow bucket.
///
/// Bin `i` counts samples of value `i` (1-cycle bins). Samples beyond the
/// last bin are **not** folded into it — they land in a separate overflow
/// counter so percentile queries can report honestly instead of silently
/// clamping long-tail samples to the top bin.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    bins: Vec<u64>,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// An empty histogram with `bins` one-unit bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero.
    pub fn new(bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        Self {
            bins: vec![0; bins],
            overflow: 0,
            count: 0,
        }
    }

    /// Number of bins (excluding the overflow bucket).
    pub fn bins(&self) -> usize {
        self.bins.len()
    }

    /// The per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Samples recorded beyond the last bin.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples recorded (including overflowed ones).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        // A value beyond `usize` (32-bit targets) is beyond every bin.
        match usize::try_from(value)
            .ok()
            .and_then(|bin| self.bins.get_mut(bin))
        {
            Some(bin) => *bin += 1,
            None => self.overflow += 1,
        }
    }

    /// The p-th percentile (0 < p <= 100), or `None` when the histogram
    /// is empty or the requested percentile lands in the overflow bucket
    /// (i.e. the true value is beyond the binned range and cannot be
    /// reported exactly).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
        if self.count == 0 {
            return None;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "p <= 100, so the target is at most the u64 sample count"
        )]
        let target = (self.count as f64 * p / 100.0).ceil() as u64;
        let mut seen = 0;
        for (bin, &count) in self.bins.iter().enumerate() {
            seen += count;
            if seen >= target {
                return Some(bin as u64);
            }
        }
        // The percentile falls among the overflowed samples.
        None
    }

    /// A serializable summary of this histogram (counts, overflow, and
    /// the p50/p95/p99 percentiles), ready for the JSON run report.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            overflow: self.overflow,
            bins: self.bins.len() as u64,
            p50: self.percentile(50.0),
            p95: self.percentile(95.0),
            p99: self.percentile(99.0),
            max_binned: self.bins.iter().rposition(|&c| c > 0).map(|bin| bin as u64),
        }
    }

    /// Bin-wise difference `self - earlier` (for measurement windows).
    ///
    /// # Panics
    ///
    /// Panics if the bin counts differ or `earlier` is not a prefix of
    /// `self` (a count would go negative).
    #[must_use]
    pub fn diff(&self, earlier: &Histogram) -> Histogram {
        assert_eq!(self.bins.len(), earlier.bins.len(), "bin count mismatch");
        Histogram {
            bins: self
                .bins
                .iter()
                .zip(&earlier.bins)
                .map(|(&now, &then)| {
                    assert!(now >= then, "histogram went backwards");
                    now - then
                })
                .collect(),
            overflow: self.overflow - earlier.overflow,
            count: self.count - earlier.count,
        }
    }
}

/// A serializable summary of a [`Histogram`], following the overflow
/// honesty of the source: percentiles that fall among overflowed
/// samples are `None`, never clamped to the top bin, and
/// [`HistogramSummary::max_binned`] reports only the largest *binned*
/// value (the true maximum may live in overflow — check
/// [`HistogramSummary::overflow`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Total samples recorded (including overflowed ones).
    pub count: u64,
    /// Samples beyond the binned range.
    pub overflow: u64,
    /// Number of bins in the source histogram.
    pub bins: u64,
    /// Median, when it falls inside the binned range.
    pub p50: Option<u64>,
    /// 95th percentile, when it falls inside the binned range.
    pub p95: Option<u64>,
    /// 99th percentile, when it falls inside the binned range.
    pub p99: Option<u64>,
    /// Highest non-empty bin, `None` for an empty histogram.
    pub max_binned: Option<u64>,
}

impl HistogramSummary {
    /// The summary as `"<prefix>.<stat>"` telemetry metric pairs, for a
    /// [`srlr_telemetry::RunReport`] section or collector. Unreportable
    /// percentiles are emitted as `null` (JSON has no `Option`), with
    /// the overflow count alongside so consumers can tell "empty" from
    /// "beyond range".
    pub fn metric_fields(&self, prefix: &str) -> Vec<(String, srlr_telemetry::Value)> {
        use srlr_telemetry::Value;
        let opt = |v: Option<u64>| match v {
            // `null` in the JSON sinks: f64::NAN serializes as null.
            None => Value::F64(f64::NAN),
            Some(v) => Value::U64(v),
        };
        vec![
            (format!("{prefix}.count"), Value::U64(self.count)),
            (format!("{prefix}.overflow"), Value::U64(self.overflow)),
            (format!("{prefix}.bins"), Value::U64(self.bins)),
            (format!("{prefix}.p50"), opt(self.p50)),
            (format!("{prefix}.p95"), opt(self.p95)),
            (format!("{prefix}.p99"), opt(self.p99)),
            (format!("{prefix}.max_binned"), opt(self.max_binned)),
        ]
    }
}

/// Aggregate network statistics over a measurement window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetworkStats {
    /// Packets injected during the window.
    pub packets_injected: u64,
    /// Packets fully received (tail ejected) during the window.
    pub packets_received: u64,
    /// Packets discarded at the ejection port because a flit exhausted
    /// its link-level retries (zero without fault injection).
    pub packets_dropped: u64,
    /// Flits ejected during the window.
    pub flits_received: u64,
    /// Sum of packet latencies (inject → tail eject), cycles.
    pub latency_sum: u64,
    /// Worst packet latency seen.
    pub latency_max: u64,
    /// Latency histogram (1-cycle bins, with explicit overflow).
    pub latency_histogram: Histogram,
    /// Measurement window length in cycles.
    pub cycles: u64,
    /// Number of nodes.
    pub nodes: usize,
    /// Energy event counters over the window.
    pub energy: EnergyCounters,
    /// Fault-injection events over the window (all zero when the fault
    /// model is disabled).
    pub faults: FaultTally,
}

impl NetworkStats {
    /// Default latency histogram bin count.
    pub const DEFAULT_LATENCY_BINS: usize = 512;

    /// Creates an empty record for a window.
    pub fn new(cycles: u64, nodes: usize) -> Self {
        Self::with_latency_bins(cycles, nodes, Self::DEFAULT_LATENCY_BINS)
    }

    /// Creates an empty record with a custom latency histogram bin count
    /// (long-latency studies want more than the default 512 bins).
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero.
    pub fn with_latency_bins(cycles: u64, nodes: usize, bins: usize) -> Self {
        Self {
            cycles,
            nodes,
            latency_histogram: Histogram::new(bins),
            ..Self::default()
        }
    }

    /// Records one completed packet.
    pub fn record_packet(&mut self, latency_cycles: u64) {
        self.packets_received += 1;
        self.latency_sum += latency_cycles;
        self.latency_max = self.latency_max.max(latency_cycles);
        self.latency_histogram.record(latency_cycles);
    }

    /// Average packet latency in cycles.
    ///
    /// # Panics
    ///
    /// Panics if no packets were received.
    pub fn avg_latency_cycles(&self) -> f64 {
        assert!(self.packets_received > 0, "no packets received");
        self.latency_sum as f64 / self.packets_received as f64
    }

    /// The p-th latency percentile (0 < p <= 100) from the histogram, or
    /// `None` when no packets were received or the percentile falls among
    /// samples beyond the histogram range (use
    /// [`Self::with_latency_bins`] to widen it).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 100]`.
    pub fn latency_percentile(&self, p: f64) -> Option<u64> {
        self.latency_histogram.percentile(p)
    }

    /// Fraction of terminated packets (received + dropped) that were
    /// actually delivered; `1.0` for an empty window.
    pub fn delivered_fraction(&self) -> f64 {
        let terminated = self.packets_received + self.packets_dropped;
        if terminated == 0 {
            1.0
        } else {
            self.packets_received as f64 / terminated as f64
        }
    }

    /// Wilson-score 95 % confidence interval `(lower, upper)` on the
    /// delivered fraction, treating each terminated packet as one
    /// Bernoulli trial, or `None` for an empty window. This is the
    /// interval the `srlr-model` exact delivery probability is
    /// cross-validated against, exposed here (and in the `ber_sweep`
    /// telemetry) so downstream consumers read the same numbers as the
    /// integration test.
    pub fn delivered_interval_95(&self) -> Option<(f64, f64)> {
        let terminated = self.packets_received + self.packets_dropped;
        if terminated == 0 {
            return None;
        }
        // The Wilson machinery is phrased in failures; a drop is the
        // failure event, so the delivered interval is its complement.
        let drops = srlr_tech::montecarlo::ErrorProbability {
            failures: usize::try_from(self.packets_dropped).ok()?,
            trials: usize::try_from(terminated).ok()?,
        };
        let (drop_lo, drop_hi) = drops.interval_95();
        Some((1.0 - drop_hi, 1.0 - drop_lo))
    }

    /// Accepted throughput in flits per node per cycle.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn throughput_flits_per_node_cycle(&self) -> f64 {
        assert!(self.cycles > 0 && self.nodes > 0, "empty window");
        self.flits_received as f64 / (self.cycles as f64 * self.nodes as f64)
    }

    /// Offered load that was actually accepted, as packets per node per
    /// cycle.
    pub fn accepted_packet_rate(&self) -> f64 {
        self.packets_received as f64 / (self.cycles as f64 * self.nodes as f64)
    }
}

impl core::fmt::Display for NetworkStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.packets_received == 0 {
            return write!(f, "no packets received over {} cycles", self.cycles);
        }
        let p99 = match self.latency_percentile(99.0) {
            Some(v) => v.to_string(),
            None => format!(">{}", self.latency_histogram.bins()),
        };
        write!(
            f,
            "{} pkts, avg latency {:.1} cyc (p99 {}, max {}), {:.4} flits/node/cyc",
            self.packets_received,
            self.avg_latency_cycles(),
            p99,
            self.latency_max,
            self.throughput_flits_per_node_cycle(),
        )?;
        if self.packets_dropped > 0 {
            write!(
                f,
                ", {} dropped ({:.2} % delivered)",
                self.packets_dropped,
                self.delivered_fraction() * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(latencies: &[u64]) -> NetworkStats {
        let mut s = NetworkStats::new(1000, 16);
        for &l in latencies {
            s.record_packet(l);
        }
        s.flits_received = latencies.len() as u64 * 5;
        s
    }

    #[test]
    fn average_and_max() {
        let s = stats_with(&[10, 20, 30]);
        assert!((s.avg_latency_cycles() - 20.0).abs() < 1e-12);
        assert_eq!(s.latency_max, 30);
    }

    #[test]
    fn percentiles_from_histogram() {
        let lat: Vec<u64> = (1..=100).collect();
        let s = stats_with(&lat);
        assert_eq!(s.latency_percentile(50.0), Some(50));
        assert_eq!(s.latency_percentile(99.0), Some(99));
        assert_eq!(s.latency_percentile(100.0), Some(100));
    }

    #[test]
    fn overflow_is_counted_not_clamped() {
        let s = stats_with(&[10_000]);
        assert_eq!(s.latency_histogram.overflow(), 1);
        assert_eq!(
            s.latency_histogram.counts().iter().sum::<u64>(),
            0,
            "overflow samples must not corrupt the top bin"
        );
        // The only sample lies beyond the bins: every percentile is
        // unreportable, not silently 511.
        assert_eq!(s.latency_percentile(50.0), None);
        assert_eq!(s.latency_percentile(100.0), None);
        assert_eq!(s.latency_max, 10_000);
    }

    #[test]
    fn percentile_below_overflow_still_reports() {
        let mut s = stats_with(&[5; 99]);
        s.record_packet(100_000);
        assert_eq!(s.latency_percentile(50.0), Some(5));
        assert_eq!(s.latency_percentile(99.0), Some(5));
        assert_eq!(s.latency_percentile(100.0), None, "p100 is overflowed");
    }

    #[test]
    fn configurable_bins_extend_the_range() {
        let mut s = NetworkStats::with_latency_bins(1000, 16, 20_000);
        s.record_packet(10_000);
        assert_eq!(s.latency_percentile(100.0), Some(10_000));
        assert_eq!(s.latency_histogram.overflow(), 0);
    }

    #[test]
    fn histogram_diff_subtracts_binwise() {
        let mut h = Histogram::new(8);
        h.record(1);
        h.record(100);
        let before = h.clone();
        h.record(1);
        h.record(3);
        h.record(200);
        let d = h.diff(&before);
        assert_eq!(d.counts()[1], 1);
        assert_eq!(d.counts()[3], 1);
        assert_eq!(d.overflow(), 1);
        assert_eq!(d.count(), 3);
    }

    #[test]
    fn empty_histogram_has_no_percentile() {
        assert_eq!(Histogram::new(4).percentile(50.0), None);
    }

    #[test]
    fn summary_of_empty_histogram() {
        let s = Histogram::new(4).summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.overflow, 0);
        assert_eq!(s.bins, 4);
        assert_eq!(
            (s.p50, s.p95, s.p99, s.max_binned),
            (None, None, None, None)
        );
    }

    #[test]
    fn summary_reports_percentiles_and_max() {
        let mut h = Histogram::new(256);
        for v in 1..=100 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.overflow, 0);
        assert_eq!(s.p50, Some(50));
        assert_eq!(s.p95, Some(95));
        assert_eq!(s.p99, Some(99));
        assert_eq!(s.max_binned, Some(100));
    }

    #[test]
    fn summary_overflow_only_is_all_unreportable() {
        let mut h = Histogram::new(8);
        h.record(1_000);
        h.record(2_000);
        let s = h.summary();
        assert_eq!(s.count, 2);
        assert_eq!(s.overflow, 2);
        assert_eq!((s.p50, s.p99), (None, None));
        assert_eq!(s.max_binned, None, "nothing landed in a bin");
    }

    #[test]
    fn summary_mixed_overflow_keeps_low_percentiles() {
        let mut h = Histogram::new(16);
        for _ in 0..99 {
            h.record(5);
        }
        h.record(10_000);
        let s = h.summary();
        assert_eq!(s.p50, Some(5));
        assert_eq!(s.p99, Some(5));
        assert_eq!(s.overflow, 1);
        assert_eq!(s.max_binned, Some(5), "overflow must not fake a max");
    }

    #[test]
    fn summary_metric_fields_serialize_none_as_null() {
        use srlr_telemetry::Value;
        let mut h = Histogram::new(4);
        h.record(100);
        let fields = h.summary().metric_fields("latency");
        let get = |k: &str| {
            fields
                .iter()
                .find(|(name, _)| name == &format!("latency.{k}"))
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing field {k}"))
        };
        assert_eq!(get("count"), Value::U64(1));
        assert_eq!(get("overflow"), Value::U64(1));
        let mut out = String::new();
        get("p50").write_json(&mut out);
        assert_eq!(out, "null", "unreportable percentile must be null");
    }

    #[test]
    fn throughput_accounting() {
        let s = stats_with(&[10; 32]);
        // 32 packets x 5 flits over 1000 cycles x 16 nodes.
        let expect = 160.0 / 16_000.0;
        assert!((s.throughput_flits_per_node_cycle() - expect).abs() < 1e-12);
        assert!((s.accepted_packet_rate() - 32.0 / 16_000.0).abs() < 1e-15);
    }

    #[test]
    fn delivered_fraction_accounts_for_drops() {
        let mut s = stats_with(&[10; 9]);
        assert!((s.delivered_fraction() - 1.0).abs() < 1e-12);
        s.packets_dropped = 1;
        assert!((s.delivered_fraction() - 0.9).abs() < 1e-12);
        assert_eq!(NetworkStats::new(10, 4).delivered_fraction(), 1.0);
    }

    #[test]
    fn delivered_interval_brackets_the_fraction() {
        let mut s = stats_with(&[10; 90]);
        s.packets_dropped = 10;
        let (lo, hi) = s.delivered_interval_95().expect("terminated packets");
        let point = s.delivered_fraction();
        assert!(lo < point && point < hi, "{lo} < {point} < {hi}");
        assert!(lo > 0.8 && hi < 1.0, "100 trials at 90 %: ({lo}, {hi})");

        // Zero drops: the interval hangs off 1.0 but never exceeds it.
        let clean = stats_with(&[10; 50]);
        let (lo, hi) = clean.delivered_interval_95().expect("terminated packets");
        assert_eq!(hi, 1.0);
        assert!(lo < 1.0 && lo > 0.9);

        // An empty window has no trials to build an interval from.
        assert_eq!(NetworkStats::new(10, 4).delivered_interval_95(), None);
    }

    #[test]
    #[should_panic(expected = "no packets received")]
    fn empty_average_panics() {
        let _ = NetworkStats::new(10, 4).avg_latency_cycles();
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        let _ = Histogram::new(0);
    }

    #[test]
    fn display_summarises() {
        let s = stats_with(&[10, 20]);
        let text = s.to_string();
        assert!(text.contains("avg latency"));
        assert!(NetworkStats::new(10, 4).to_string().contains("no packets"));
        let mut dropped = stats_with(&[10, 20]);
        dropped.packets_dropped = 2;
        assert!(dropped.to_string().contains("dropped"));
    }
}
