//! Self-reset delay cells: the single 6-buffer design and the proposed
//! alternating design (Sec. III-A).
//!
//! The delay cell sets how long node X stays discharged (`W_x`), which is
//! the dominant term of the output pulse width. With one delay everywhere,
//! a global corner perturbs every stage's pulse width in the same
//! direction and the drift accumulates monotonically down the link
//! (paper eqs. (1)/(2)). The alternating design gives odd stages an
//! intentionally longer delay and even stages a shorter one; together with
//! the nonlinearity of the width→swing→rise-time feedback this widens the
//! region of corners for which the two-stage composite map still has a
//! stable fixed point.

use srlr_tech::{GlobalVariation, Technology};
use srlr_units::TimeInterval;

/// Which delay-cell arrangement a design uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayCellKind {
    /// Every stage carries the same 6-buffer delay (the straightforward
    /// design, most reliable at the typical corner but drift-prone).
    Single,
    /// Odd stages delay `(1 + delta)`, even stages `(1 − delta)` of the
    /// nominal (the proposed design).
    Alternating {
        /// Fractional delay perturbation (0 < delta < 1).
        delta: f64,
    },
}

/// A delay-cell design: buffer count, per-buffer nominal delay and the
/// arrangement across stages.
///
/// # Examples
///
/// ```
/// use srlr_core::{DelayCellDesign, DelayCellKind};
/// use srlr_tech::{GlobalVariation, Technology};
///
/// let tech = Technology::soi45();
/// let cell = DelayCellDesign::alternating_paper();
/// let nominal = GlobalVariation::nominal();
/// let odd = cell.delay_for_stage(1, &tech, &nominal);
/// let even = cell.delay_for_stage(2, &tech, &nominal);
/// assert!(odd > even);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayCellDesign {
    kind: DelayCellKind,
    /// Number of buffers in the chain (the paper's baseline is 6).
    buffers: usize,
    /// Nominal delay of one buffer at the typical corner.
    buffer_delay: TimeInterval,
    /// Fraction of the CMOS corner-delay shift the chain experiences.
    /// Delay cells are drawn with long-channel devices, which makes them
    /// substantially less threshold-sensitive than the minimum-length
    /// amplifier (a shift of Vth moves a long-channel buffer's delay far
    /// less, relatively, than it moves M1's discharge current).
    tracking: f64,
}

impl DelayCellDesign {
    /// Nominal per-buffer delay used by both paper designs.
    const PAPER_BUFFER_DELAY_PS: f64 = 20.0;

    /// The single 6-buffer design ("most reliable repeated signaling at a
    /// typical process condition", footnote 2 of the paper).
    pub fn single_paper() -> Self {
        Self {
            kind: DelayCellKind::Single,
            buffers: 6,
            buffer_delay: TimeInterval::from_picoseconds(Self::PAPER_BUFFER_DELAY_PS),
            tracking: Self::PAPER_TRACKING,
        }
    }

    /// The proposed alternating design (±20 % about the same nominal).
    pub fn alternating_paper() -> Self {
        Self {
            kind: DelayCellKind::Alternating { delta: 0.10 },
            buffers: 6,
            buffer_delay: TimeInterval::from_picoseconds(Self::PAPER_BUFFER_DELAY_PS),
            tracking: Self::PAPER_TRACKING,
        }
    }

    /// Corner tracking of the paper designs' long-channel buffer chains.
    const PAPER_TRACKING: f64 = 0.4;

    /// Returns a copy with a different corner-tracking fraction.
    ///
    /// # Panics
    ///
    /// Panics if `tracking` is outside `[0, 1]`.
    #[must_use]
    // srlr-lint: allow(raw-f64-api, reason = "tracking coefficient is a dimensionless scale factor")
    pub fn with_tracking(mut self, tracking: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&tracking),
            "tracking must be in [0, 1]"
        );
        self.tracking = tracking;
        self
    }

    /// A custom design.
    ///
    /// # Panics
    ///
    /// Panics if `buffers` is zero, the buffer delay is not positive, or an
    /// alternating `delta` is outside `(0, 1)`.
    pub fn new(kind: DelayCellKind, buffers: usize, buffer_delay: TimeInterval) -> Self {
        assert!(buffers > 0, "delay cell needs at least one buffer");
        assert!(
            buffer_delay.seconds() > 0.0,
            "buffer delay must be positive"
        );
        if let DelayCellKind::Alternating { delta } = kind {
            assert!(
                delta > 0.0 && delta < 1.0,
                "alternating delta must be in (0, 1)"
            );
        }
        Self {
            kind,
            buffers,
            buffer_delay,
            tracking: Self::PAPER_TRACKING,
        }
    }

    /// The arrangement.
    pub fn kind(&self) -> DelayCellKind {
        self.kind
    }

    /// Buffer count.
    pub fn buffers(&self) -> usize {
        self.buffers
    }

    /// Nominal chain delay at the typical corner (stage parity ignored).
    pub fn nominal_delay(&self) -> TimeInterval {
        self.buffer_delay * self.buffers as f64
    }

    /// Multiplier a global corner applies to a CMOS buffer delay:
    /// raised thresholds and weakened drive slow the chain down.
    ///
    /// First-order: buffer delay ∝ `C·V / I ∝ 1/((1 − dVth/V_od)^alpha ·
    /// drive_mult)`, averaged over both flavours (a buffer stresses both).
    pub(crate) fn variation_multiplier(tech: &Technology, var: &GlobalVariation) -> f64 {
        let vdd = tech.vdd.volts();
        let od_n = (vdd - tech.nmos.vth0.volts()).max(0.05);
        let od_p = (vdd - tech.pmos.vth0.volts()).max(0.05);
        let n_term = ((od_n - var.dvth_n.volts()) / od_n)
            .max(0.1)
            .powf(tech.nmos.alpha);
        let p_term = ((od_p - var.dvth_p.volts()) / od_p)
            .max(0.1)
            .powf(tech.pmos.alpha);
        let n_mult = 1.0 / (n_term * var.drive_mult_n);
        let p_mult = 1.0 / (p_term * var.drive_mult_p);
        0.5 * (n_mult + p_mult)
    }

    /// The delay this cell contributes at stage `stage_index` (0-based) on
    /// a die with the given variation.
    pub fn delay_for_stage(
        &self,
        stage_index: usize,
        tech: &Technology,
        var: &GlobalVariation,
    ) -> TimeInterval {
        self.delay_with_multiplier(stage_index, Self::variation_multiplier(tech, var))
    }

    /// [`Self::delay_for_stage`] on a die whose
    /// [`Self::variation_multiplier`] is already known.
    pub(crate) fn delay_with_multiplier(&self, stage_index: usize, full: f64) -> TimeInterval {
        let base = self.nominal_delay() * (1.0 + self.tracking * (full - 1.0));
        match self.kind {
            DelayCellKind::Single => base,
            DelayCellKind::Alternating { delta } => {
                // 0-based: odd stages get the long delay.
                if stage_index % 2 == 1 {
                    base * (1.0 + delta)
                } else {
                    base * (1.0 - delta)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srlr_tech::ProcessCorner;
    use srlr_units::Voltage;

    fn tech() -> Technology {
        Technology::soi45()
    }

    #[test]
    fn paper_nominal_delay_is_six_buffers() {
        let cell = DelayCellDesign::single_paper();
        assert_eq!(cell.buffers(), 6);
        assert!((cell.nominal_delay().picoseconds() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn single_design_ignores_parity() {
        let cell = DelayCellDesign::single_paper();
        let t = tech();
        let v = GlobalVariation::nominal();
        assert_eq!(
            cell.delay_for_stage(0, &t, &v),
            cell.delay_for_stage(1, &t, &v)
        );
    }

    #[test]
    fn alternating_design_alternates() {
        let cell = DelayCellDesign::alternating_paper();
        let t = tech();
        let v = GlobalVariation::nominal();
        let d0 = cell.delay_for_stage(0, &t, &v);
        let d1 = cell.delay_for_stage(1, &t, &v);
        let d2 = cell.delay_for_stage(2, &t, &v);
        assert!(d1 > d0);
        assert_eq!(d0, d2);
        // Mean of the pair equals the single design's delay.
        let single = DelayCellDesign::single_paper().delay_for_stage(0, &t, &v);
        let mean = (d0 + d1) / 2.0;
        assert!((mean - single).abs().picoseconds() < 1e-6);
    }

    #[test]
    fn slow_corner_lengthens_delay() {
        let cell = DelayCellDesign::single_paper();
        let t = tech();
        let nominal = cell.delay_for_stage(0, &t, &GlobalVariation::nominal());
        let ss = cell.delay_for_stage(0, &t, &ProcessCorner::SlowSlow.variation(&t));
        let ff = cell.delay_for_stage(0, &t, &ProcessCorner::FastFast.variation(&t));
        assert!(ss > nominal, "SS should be slower");
        assert!(ff < nominal, "FF should be faster");
        // Corner shifts are tens of percent, not orders of magnitude.
        assert!(ss / nominal < 1.6);
        assert!(ff / nominal > 0.6);
    }

    #[test]
    fn vth_only_shift_slows_buffers() {
        let cell = DelayCellDesign::single_paper();
        let t = tech();
        let slow_vth = GlobalVariation {
            dvth_n: Voltage::from_millivolts(60.0),
            dvth_p: Voltage::from_millivolts(60.0),
            ..GlobalVariation::nominal()
        };
        assert!(
            cell.delay_for_stage(0, &t, &slow_vth)
                > cell.delay_for_stage(0, &t, &GlobalVariation::nominal())
        );
    }

    #[test]
    #[should_panic(expected = "delta must be in")]
    fn bad_delta_rejected() {
        let _ = DelayCellDesign::new(
            DelayCellKind::Alternating { delta: 1.5 },
            6,
            TimeInterval::from_picoseconds(20.0),
        );
    }

    #[test]
    #[should_panic(expected = "at least one buffer")]
    fn zero_buffers_rejected() {
        let _ = DelayCellDesign::new(
            DelayCellKind::Single,
            0,
            TimeInterval::from_picoseconds(20.0),
        );
    }
}
