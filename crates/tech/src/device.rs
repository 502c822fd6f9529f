//! Sized device instances: a [`MosfetModel`] plus drawn geometry and any
//! per-instance (local) threshold shift.

use crate::mosfet::MosfetModel;
use srlr_units::{Capacitance, Current, Length, Resistance, Voltage};

/// Which flavour a [`Device`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosKind {
    /// N-channel device: conducts when the gate is high relative to source.
    Nmos,
    /// P-channel device: conducts when the gate is low relative to source.
    Pmos,
}

impl core::fmt::Display for MosKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Nmos => f.write_str("NMOS"),
            Self::Pmos => f.write_str("PMOS"),
        }
    }
}

/// A sized transistor instance.
///
/// The instance carries its own copy of the model so global-corner and
/// local-mismatch shifts can be applied per device.
///
/// # Examples
///
/// ```
/// use srlr_tech::{Device, MosKind, MosfetModel};
/// use srlr_units::{Length, Voltage};
///
/// let m1 = Device::new(
///     MosKind::Nmos,
///     MosfetModel::nmos_soi45(),
///     Length::from_micrometers(0.6),
///     Length::from_nanometers(45.0),
/// );
/// let i = m1.drain_current(Voltage::from_volts(0.8), Voltage::from_volts(0.4));
/// assert!(i.microamperes() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    kind: MosKind,
    model: MosfetModel,
    width: Length,
    length: Length,
}

impl Device {
    /// Creates a device with the given drawn width and length.
    ///
    /// # Panics
    ///
    /// Panics if width or length is not strictly positive and finite.
    pub fn new(kind: MosKind, model: MosfetModel, width: Length, length: Length) -> Self {
        assert!(
            width.meters() > 0.0 && width.is_finite(),
            "device width must be positive"
        );
        assert!(
            length.meters() > 0.0 && length.is_finite(),
            "device length must be positive"
        );
        Self {
            kind,
            model,
            width,
            length,
        }
    }

    /// The device flavour.
    pub fn kind(&self) -> MosKind {
        self.kind
    }

    /// The underlying model (with any variation already folded in).
    pub fn model(&self) -> &MosfetModel {
        &self.model
    }

    /// Drawn width.
    pub fn width(&self) -> Length {
        self.width
    }

    /// Drawn length.
    pub fn length(&self) -> Length {
        self.length
    }

    /// `W/L` ratio.
    // srlr-lint: allow(raw-f64-api, reason = "W/L is a dimensionless geometry ratio")
    pub fn ratio(&self) -> f64 {
        self.width / self.length
    }

    /// Effective threshold voltage (magnitude) including variation.
    pub fn vth(&self) -> Voltage {
        self.model.vth0
    }

    /// Drain current magnitude in the source frame: `vgs`/`vds` are
    /// magnitudes relative to the source terminal (for PMOS the caller maps
    /// `vsg`/`vsd` here).
    ///
    /// # Panics
    ///
    /// Panics if `vds` is negative; canonicalise terminal order first.
    pub fn drain_current(&self, vgs: Voltage, vds: Voltage) -> Current {
        self.model.drain_current_per_ratio(vgs, vds) * self.ratio()
    }

    /// Total gate capacitance.
    pub fn gate_capacitance(&self) -> Capacitance {
        self.model.gate_capacitance(self.width, self.length)
    }

    /// Drain diffusion capacitance.
    pub fn drain_capacitance(&self) -> Capacitance {
        self.model.junction_capacitance(self.width)
    }

    /// Off-state leakage (`Vgs = 0`, `Vds = VDD`) of this device.
    pub fn off_current(&self) -> Current {
        self.model.off_current_per_width * self.width
    }

    /// Effective switching resistance at full gate drive `vdd`:
    /// a secant approximation `R ≈ (vdd/2) / Id(vdd, vdd/2)` commonly used
    /// for RC delay estimation.
    ///
    /// # Panics
    ///
    /// Panics if the device conducts no current at full drive (e.g. `vdd`
    /// far below threshold), which would make the resistance unbounded.
    pub fn effective_resistance(&self, vdd: Voltage) -> Resistance {
        self.effective_resistance_from(vdd, self.switching_current_per_ratio(vdd))
    }

    /// The drain current per unit `W/L` at the operating point of
    /// [`Device::effective_resistance`], `Id(vdd, vdd/2)`. It does not
    /// depend on the drawn geometry, so every width of one device on one
    /// die shares it.
    pub fn switching_current_per_ratio(&self, vdd: Voltage) -> Current {
        self.model.drain_current_per_ratio(vdd, vdd / 2.0)
    }

    /// [`Device::effective_resistance`] from this device's
    /// [`Device::switching_current_per_ratio`] at `vdd`, resolved
    /// earlier: only the `× W/L` and the secant remain, and the result is
    /// bit for bit the same.
    ///
    /// # Panics
    ///
    /// Panics if the device conducts no current at full drive.
    pub fn effective_resistance_from(&self, vdd: Voltage, per_ratio: Current) -> Resistance {
        let half = vdd / 2.0;
        let i = per_ratio * self.ratio();
        // Below a picoamp the device is effectively cut off and a "switch
        // resistance" is meaningless.
        assert!(
            i.amperes() > 1e-12,
            "effective_resistance: device does not conduct at vdd={vdd}"
        );
        Resistance::from_ohms(half.volts() / i.amperes())
    }

    /// Returns a copy with an extra threshold shift and drive multiplier
    /// (used to fold in global corners and local mismatch).
    // srlr-lint: allow(raw-f64-api, reason = "drive_mult is a dimensionless multiplier on the drive factor")
    #[must_use]
    // srlr-lint: allow(raw-f64-api, reason = "drive multiplier is a dimensionless variation factor")
    pub fn with_variation(&self, dvth: Voltage, drive_mult: f64) -> Self {
        Self {
            model: self.model.with_variation(dvth, drive_mult),
            ..self.clone()
        }
    }

    /// Returns a copy scaled to a different drawn width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not strictly positive and finite.
    #[must_use]
    pub fn with_width(&self, width: Length) -> Self {
        assert!(
            width.meters() > 0.0 && width.is_finite(),
            "device width must be positive"
        );
        Self {
            width,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srlr_units::{Length, Voltage};

    fn unit_nmos() -> Device {
        Device::new(
            MosKind::Nmos,
            MosfetModel::nmos_soi45(),
            Length::from_micrometers(1.0),
            Length::from_nanometers(45.0),
        )
    }

    #[test]
    fn current_scales_with_width() {
        let d1 = unit_nmos();
        let d2 = d1.with_width(Length::from_micrometers(2.0));
        let vg = Voltage::from_volts(0.8);
        let vd = Voltage::from_volts(0.4);
        let i1 = d1.drain_current(vg, vd);
        let i2 = d2.drain_current(vg, vd);
        assert!((i2.amperes() / i1.amperes() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn effective_resistance_is_positive_and_reasonable() {
        let r = unit_nmos().effective_resistance(Voltage::from_volts(0.8));
        // A 1 um NMOS at 45 nm should switch with hundreds of ohms to a few kOhm.
        assert!(r.ohms() > 100.0 && r.ohms() < 5000.0, "R = {r}");
    }

    #[test]
    fn wider_device_has_lower_resistance() {
        let narrow = unit_nmos();
        let wide = narrow.with_width(Length::from_micrometers(4.0));
        let vdd = Voltage::from_volts(0.8);
        assert!(wide.effective_resistance(vdd) < narrow.effective_resistance(vdd));
    }

    #[test]
    #[should_panic(expected = "does not conduct")]
    fn effective_resistance_rejects_cut_off_device() {
        // A device whose threshold is far above vdd conducts ~nothing.
        let dead = unit_nmos().with_variation(Voltage::from_volts(5.0), 1.0);
        let _ = dead.effective_resistance(Voltage::from_volts(0.8));
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_is_rejected() {
        let _ = Device::new(
            MosKind::Nmos,
            MosfetModel::nmos_soi45(),
            Length::zero(),
            Length::from_nanometers(45.0),
        );
    }

    #[test]
    fn variation_raises_vth() {
        let d = unit_nmos().with_variation(Voltage::from_millivolts(30.0), 1.0);
        assert!((d.vth().millivolts() - 350.0).abs() < 1e-9);
    }

    #[test]
    fn capacitances_track_geometry() {
        let d = unit_nmos();
        assert!(d.gate_capacitance().femtofarads() > 0.3);
        assert!(d.drain_capacitance().femtofarads() > 0.3);
        let wide = d.with_width(Length::from_micrometers(2.0));
        assert!(wide.gate_capacitance() > d.gate_capacitance());
    }

    #[test]
    fn display_kind() {
        assert_eq!(MosKind::Nmos.to_string(), "NMOS");
        assert_eq!(MosKind::Pmos.to_string(), "PMOS");
    }
}
