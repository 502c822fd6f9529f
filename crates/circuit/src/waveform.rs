//! Recorded waveforms and measurements on them: crossings, pulse widths,
//! rise/fall times, peaks.

use srlr_units::{TimeInterval, Voltage};

/// Direction of a threshold crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edge {
    /// The waveform crossed the threshold going up.
    Rising,
    /// The waveform crossed the threshold going down.
    Falling,
}

impl core::fmt::Display for Edge {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Rising => f.write_str("rising"),
            Self::Falling => f.write_str("falling"),
        }
    }
}

/// A sampled voltage-versus-time record for one node.
///
/// Samples are stored as `(seconds, volts)` pairs in strictly increasing
/// time order; queries interpolate linearly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Waveform {
    samples: Vec<(f64, f64)>,
}

impl Waveform {
    /// Creates an empty waveform.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a waveform from `(time, voltage)` samples.
    ///
    /// # Panics
    ///
    /// Panics if times are not strictly increasing.
    pub fn from_samples<I>(samples: I) -> Self
    where
        I: IntoIterator<Item = (TimeInterval, Voltage)>,
    {
        let mut w = Self::new();
        for (t, v) in samples {
            w.push(t, v);
        }
        w
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not after the last recorded sample.
    pub fn push(&mut self, t: TimeInterval, v: Voltage) {
        let ts = t.seconds();
        if let Some(&(last, _)) = self.samples.last() {
            assert!(
                ts > last,
                "waveform samples must be strictly increasing in time"
            );
        }
        self.samples.push((ts, v.volts()));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterates over the samples.
    pub fn iter(&self) -> impl Iterator<Item = (TimeInterval, Voltage)> + '_ {
        self.samples
            .iter()
            .map(|&(t, v)| (TimeInterval::from_seconds(t), Voltage::from_volts(v)))
    }

    /// Linear interpolation of the waveform at `t`; clamps outside the
    /// recorded range.
    ///
    /// # Panics
    ///
    /// Panics on an empty waveform.
    pub fn value_at(&self, t: TimeInterval) -> Voltage {
        assert!(!self.samples.is_empty(), "waveform has no samples");
        let ts = t.seconds();
        let s = &self.samples;
        if ts <= s[0].0 {
            return Voltage::from_volts(s[0].1);
        }
        if ts >= s[s.len() - 1].0 {
            return Voltage::from_volts(s[s.len() - 1].1);
        }
        let idx = s.partition_point(|&(pt, _)| pt <= ts);
        let (t0, v0) = s[idx - 1];
        let (t1, v1) = s[idx];
        Voltage::from_volts(v0 + (v1 - v0) * (ts - t0) / (t1 - t0))
    }

    /// The final sampled value.
    ///
    /// # Panics
    ///
    /// Panics on an empty waveform.
    pub fn last_value(&self) -> Voltage {
        #[expect(
            clippy::expect_used,
            reason = "documented panic: API contract requires a non-empty waveform, see # Panics"
        )]
        let &(_, v) = self.samples.last().expect("waveform has no samples");
        Voltage::from_volts(v)
    }

    /// Maximum sampled voltage.
    ///
    /// # Panics
    ///
    /// Panics on an empty waveform.
    pub fn peak(&self) -> Voltage {
        let v = self
            .samples
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(v.is_finite(), "waveform has no samples");
        Voltage::from_volts(v)
    }

    /// Minimum sampled voltage.
    ///
    /// # Panics
    ///
    /// Panics on an empty waveform.
    pub fn valley(&self) -> Voltage {
        let v = self
            .samples
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::INFINITY, f64::min);
        assert!(v.is_finite(), "waveform has no samples");
        Voltage::from_volts(v)
    }

    /// All crossings of `threshold`, as `(time, edge)` pairs, with the
    /// crossing time interpolated within the straddling segment.
    pub fn crossings(&self, threshold: Voltage) -> Vec<(TimeInterval, Edge)> {
        let th = threshold.volts();
        let mut out = Vec::new();
        for w in self.samples.windows(2) {
            let (t0, v0) = w[0];
            let (t1, v1) = w[1];
            let below0 = v0 < th;
            let below1 = v1 < th;
            if below0 == below1 {
                continue;
            }
            let frac = (th - v0) / (v1 - v0);
            let t = t0 + frac * (t1 - t0);
            let edge = if below0 { Edge::Rising } else { Edge::Falling };
            out.push((TimeInterval::from_seconds(t), edge));
        }
        out
    }

    /// Widths of all complete pulses above `threshold`
    /// (rising crossing followed by a falling crossing).
    pub fn pulse_widths(&self, threshold: Voltage) -> Vec<TimeInterval> {
        let mut widths = Vec::new();
        let mut rise: Option<TimeInterval> = None;
        for (t, edge) in self.crossings(threshold) {
            match edge {
                Edge::Rising => rise = Some(t),
                Edge::Falling => {
                    if let Some(r) = rise.take() {
                        widths.push(t - r);
                    }
                }
            }
        }
        widths
    }

    /// 10 %–90 % rise time of the first rising excursion between `low` and
    /// `high` reference levels. Returns `None` if the waveform never makes
    /// the excursion.
    pub fn rise_time(&self, low: Voltage, high: Voltage) -> Option<TimeInterval> {
        let lo_th = low + (high - low) * 0.1;
        let hi_th = low + (high - low) * 0.9;
        let lo_cross = self
            .crossings(lo_th)
            .into_iter()
            .find(|&(_, e)| e == Edge::Rising)?;
        let hi_cross = self
            .crossings(hi_th)
            .into_iter()
            .find(|&(t, e)| e == Edge::Rising && t > lo_cross.0)?;
        Some(hi_cross.0 - lo_cross.0)
    }

    /// 90 %–10 % fall time of the first falling excursion between the
    /// reference levels. Returns `None` if the waveform never falls through
    /// both references.
    pub fn fall_time(&self, low: Voltage, high: Voltage) -> Option<TimeInterval> {
        let lo_th = low + (high - low) * 0.1;
        let hi_th = low + (high - low) * 0.9;
        let hi_cross = self
            .crossings(hi_th)
            .into_iter()
            .find(|&(_, e)| e == Edge::Falling)?;
        let lo_cross = self
            .crossings(lo_th)
            .into_iter()
            .find(|&(t, e)| e == Edge::Falling && t > hi_cross.0)?;
        Some(lo_cross.0 - hi_cross.0)
    }

    /// Renders a fixed-width ASCII strip chart (for examples and debug
    /// output). `rows` vertical resolution, `cols` horizontal.
    ///
    /// # Panics
    ///
    /// Panics on an empty waveform or zero dimensions.
    pub fn ascii_plot(&self, rows: usize, cols: usize) -> String {
        assert!(!self.samples.is_empty(), "waveform has no samples");
        assert!(rows >= 2 && cols >= 2, "plot needs at least 2x2 cells");
        let t0 = self.samples[0].0;
        let t1 = self.samples[self.samples.len() - 1].0;
        let vmin = self.valley().volts();
        let vmax = self.peak().volts().max(vmin + 1e-12);
        let mut grid = vec![vec![b' '; cols]; rows];
        #[expect(
            clippy::needless_range_loop,
            reason = "the column index drives both the sampled time and the target cell"
        )]
        for col in 0..cols {
            let t = t0 + (t1 - t0) * col as f64 / (cols - 1) as f64;
            let v = self.value_at(TimeInterval::from_seconds(t)).volts();
            let frac = (v - vmin) / (vmax - vmin);
            #[expect(
                clippy::cast_possible_truncation,
                reason = "frac lies in [0, 1], so the rounded row is in [0, rows - 1]; `as` saturates a NaN to 0"
            )]
            let row = ((1.0 - frac) * (rows - 1) as f64).round() as usize;
            grid[row.min(rows - 1)][col] = b'*';
        }
        let mut out = String::new();
        for (i, row) in grid.iter().enumerate() {
            let label = if i == 0 {
                format!("{:>9.3} V |", vmax)
            } else if i == rows - 1 {
                format!("{:>9.3} V |", vmin)
            } else {
                format!("{:>11} |", "")
            };
            out.push_str(&label);
            out.push_str(&String::from_utf8_lossy(row));
            out.push('\n');
        }
        out
    }
}

impl FromIterator<(TimeInterval, Voltage)> for Waveform {
    fn from_iter<I: IntoIterator<Item = (TimeInterval, Voltage)>>(iter: I) -> Self {
        Self::from_samples(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Waveform {
        // 0 V at t=0 to 1 V at t=1 ns, then back down to 0 at 2 ns.
        Waveform::from_samples([
            (TimeInterval::zero(), Voltage::zero()),
            (
                TimeInterval::from_nanoseconds(1.0),
                Voltage::from_volts(1.0),
            ),
            (TimeInterval::from_nanoseconds(2.0), Voltage::zero()),
        ])
    }

    #[test]
    fn interpolation_between_samples() {
        let w = ramp();
        let v = w.value_at(TimeInterval::from_picoseconds(250.0));
        assert!((v.volts() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn clamping_outside_range() {
        let w = ramp();
        assert_eq!(w.value_at(TimeInterval::from_seconds(-1.0)).volts(), 0.0);
        assert_eq!(w.value_at(TimeInterval::from_seconds(10.0)).volts(), 0.0);
    }

    #[test]
    fn peak_and_valley() {
        let w = ramp();
        assert_eq!(w.peak().volts(), 1.0);
        assert_eq!(w.valley().volts(), 0.0);
    }

    #[test]
    fn crossings_detect_both_edges() {
        let w = ramp();
        let c = w.crossings(Voltage::from_volts(0.5));
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].1, Edge::Rising);
        assert_eq!(c[1].1, Edge::Falling);
        assert!((c[0].0.picoseconds() - 500.0).abs() < 1e-6);
        assert!((c[1].0.picoseconds() - 1500.0).abs() < 1e-6);
    }

    #[test]
    fn pulse_width_of_triangle() {
        let w = ramp();
        let widths = w.pulse_widths(Voltage::from_volts(0.5));
        assert_eq!(widths.len(), 1);
        assert!((widths[0].nanoseconds() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn no_pulse_when_threshold_above_peak() {
        let w = ramp();
        assert!(w.pulse_widths(Voltage::from_volts(2.0)).is_empty());
    }

    #[test]
    fn rise_and_fall_times_of_triangle() {
        let w = ramp();
        let rt = w
            .rise_time(Voltage::zero(), Voltage::from_volts(1.0))
            .unwrap();
        // 10% to 90% of a linear 1 ns ramp = 0.8 ns.
        assert!((rt.nanoseconds() - 0.8).abs() < 1e-9);
        let ft = w
            .fall_time(Voltage::zero(), Voltage::from_volts(1.0))
            .unwrap();
        assert!((ft.nanoseconds() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn rise_time_none_when_never_rises() {
        let flat = Waveform::from_samples([
            (TimeInterval::zero(), Voltage::zero()),
            (TimeInterval::from_nanoseconds(1.0), Voltage::zero()),
        ]);
        assert!(flat
            .rise_time(Voltage::zero(), Voltage::from_volts(1.0))
            .is_none());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_push_rejected() {
        let mut w = Waveform::new();
        w.push(TimeInterval::from_nanoseconds(1.0), Voltage::zero());
        w.push(TimeInterval::from_picoseconds(1.0), Voltage::zero());
    }

    #[test]
    fn ascii_plot_has_requested_shape() {
        let plot = ramp().ascii_plot(5, 40);
        let lines: Vec<&str> = plot.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines.iter().all(|l| l.len() > 40));
        assert!(plot.contains('*'));
    }

    #[test]
    fn collect_from_iterator() {
        let w: Waveform = (0..5)
            .map(|i| {
                (
                    TimeInterval::from_picoseconds(f64::from(i)),
                    Voltage::from_millivolts(f64::from(i * 100)),
                )
            })
            .collect();
        assert_eq!(w.len(), 5);
        assert_eq!(w.last_value(), Voltage::from_millivolts(400.0));
    }
}
