//! Output drivers: the straightforward inverter driver and the proposed
//! NMOS-based driver (Sec. III-B).
//!
//! An inverter driver has **two** corner failure modes: a weak PMOS
//! delivers insufficient swing to the next stage, while a strong PMOS
//! (paired with a weak NMOS) delivers *too much* swing that the pull-down
//! cannot drain before the next bit — the worst-case `11110` pattern then
//! saturates the wire and swallows the trailing `0`. The NMOS-based driver
//! supplies both pull-up and pull-down current through NMOS devices, so
//! only the weak-NMOS mode remains and the design can be optimised against
//! a single failure mechanism. Its pull-up is a source follower whose
//! level is set by the (optionally adaptive) `Vref` bias rather than the
//! rail, which is also what makes the adaptive swing scheme possible.

use srlr_tech::{Device, GlobalVariation, MosKind, Technology};
use srlr_units::{Current, Length, Resistance, Voltage};

/// Which output-driver topology a design uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DriverKind {
    /// PMOS pull-up / NMOS pull-down (the straightforward design).
    Inverter,
    /// NMOS pull-up (source follower from the bias level) and NMOS
    /// pull-down (the proposed design).
    NmosBased,
}

impl core::fmt::Display for DriverKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Inverter => f.write_str("inverter driver"),
            Self::NmosBased => f.write_str("NMOS-based driver"),
        }
    }
}

/// A sized output-driver instance.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputDriver {
    kind: DriverKind,
    pull_up: Device,
    pull_down: Device,
}

impl OutputDriver {
    /// The proposed NMOS-based driver: 4 um pull-up and pull-down NMOS.
    pub fn nmos_based(tech: &Technology) -> Self {
        let l = tech.min_length;
        let w = Length::from_micrometers(4.0);
        Self {
            kind: DriverKind::NmosBased,
            pull_up: Device::new(MosKind::Nmos, tech.nmos, w, l),
            pull_down: Device::new(MosKind::Nmos, tech.nmos, w, l),
        }
    }

    /// The straightforward inverter driver. The PMOS is drawn wide to
    /// compensate its weaker carrier mobility; the NMOS is the usual half
    /// width, which is precisely what creates the slow-discharge failure
    /// mode at a strong-PMOS/weak-NMOS corner.
    pub fn inverter(tech: &Technology) -> Self {
        let l = tech.min_length;
        Self {
            kind: DriverKind::Inverter,
            pull_up: Device::new(MosKind::Pmos, tech.pmos, Length::from_micrometers(4.0), l),
            pull_down: Device::new(MosKind::Nmos, tech.nmos, Length::from_micrometers(2.0), l),
        }
    }

    /// The topology.
    pub fn kind(&self) -> DriverKind {
        self.kind
    }

    /// The voltage level the driver pushes the wire toward.
    ///
    /// * NMOS-based: the `commanded` bias level (`Vref`-derived) — the
    ///   source follower self-limits there, so a strong PMOS corner cannot
    ///   overdrive the wire.
    /// * Inverter: the full rail, regardless of `commanded` — the arriving
    ///   swing is then whatever the PMOS strength and channel attenuation
    ///   produce, which is the root of its two failure modes.
    pub fn drive_level(&self, tech: &Technology, commanded: Voltage) -> Voltage {
        match self.kind {
            DriverKind::NmosBased => commanded.min(tech.vdd),
            DriverKind::Inverter => tech.vdd,
        }
    }

    /// Pull-up (charging) source resistance on the given die.
    pub fn charge_resistance(&self, tech: &Technology, var: &GlobalVariation) -> Resistance {
        self.charge_resistance_from(tech, self.pull_up_current(tech, var))
    }

    /// The pull-up's drain current per unit `W/L` at `(VDD, VDD/2)` on
    /// the given die: the operating point of its switching resistance.
    /// Scaling the pull-up ([`OutputDriver::with_pull_up_scaled`]) keeps
    /// it, so every swing of one design shares it on a die.
    pub fn pull_up_current(&self, tech: &Technology, var: &GlobalVariation) -> Current {
        let (dvth, mult) = match self.pull_up.kind() {
            MosKind::Nmos => (var.dvth_n, var.drive_mult_n),
            MosKind::Pmos => (var.dvth_p, var.drive_mult_p),
        };
        self.pull_up
            .with_variation(dvth, mult)
            .switching_current_per_ratio(tech.vdd)
    }

    /// [`OutputDriver::charge_resistance`] from the die's
    /// [`OutputDriver::pull_up_current`] of this design: only the
    /// `× W/L`, the secant and the follower penalty remain, and the
    /// result is bit for bit the same.
    ///
    /// # Panics
    ///
    /// Panics if the current is too small for the pull-up to conduct.
    pub fn charge_resistance_from(
        &self,
        tech: &Technology,
        pull_up_current: Current,
    ) -> Resistance {
        let base = self
            .pull_up
            .effective_resistance_from(tech.vdd, pull_up_current);
        match self.kind {
            // Source-follower pull-up loses gate overdrive as the output
            // approaches the bias level; fold that in as a fixed penalty.
            DriverKind::NmosBased => base * 1.3,
            DriverKind::Inverter => base,
        }
    }

    /// Pull-down (discharging) resistance on the given die. Both driver
    /// topologies discharge through their NMOS.
    pub fn discharge_resistance(&self, tech: &Technology, var: &GlobalVariation) -> Resistance {
        let dev = self.pull_down.with_variation(var.dvth_n, var.drive_mult_n);
        dev.effective_resistance(tech.vdd)
    }

    /// [`OutputDriver::discharge_resistance`] from the die's
    /// [`OutputDriver::pull_up_current`]. When the pull-up is an NMOS of
    /// the pull-down's model (the NMOS-based driver), that current is the
    /// pull-down's own switching current at the same `(VDD, VDD/2)` point
    /// and die, so only the `× W/L` and the secant remain and the result
    /// is bit for bit the same; otherwise the pull-down's current is
    /// evaluated.
    pub(crate) fn discharge_resistance_from(
        &self,
        tech: &Technology,
        var: &GlobalVariation,
        pull_up_current: Current,
    ) -> Resistance {
        if self.pull_up.kind() == MosKind::Nmos && self.pull_up.model() == self.pull_down.model() {
            self.pull_down
                .effective_resistance_from(tech.vdd, pull_up_current)
        } else {
            self.discharge_resistance(tech, var)
        }
    }

    /// Gate capacitance presented to the pre-driver (for energy accounting).
    pub fn input_capacitance(&self) -> srlr_units::Capacitance {
        self.pull_up.gate_capacitance() + self.pull_down.gate_capacitance()
    }

    /// Returns a copy with the pull-up device scaled to `mult` times its
    /// drawn width (resistance scales as `1/mult`). Used to size an
    /// inverter driver's PMOS for a chosen delivered swing.
    ///
    /// # Panics
    ///
    /// Panics if `mult` is not strictly positive and finite.
    #[must_use]
    // srlr-lint: allow(raw-f64-api, reason = "pull-up scale is a dimensionless multiplier")
    pub fn with_pull_up_scaled(&self, mult: f64) -> Self {
        assert!(
            mult > 0.0 && mult.is_finite(),
            "pull-up scale must be positive"
        );
        Self {
            pull_up: self.pull_up.with_width(self.pull_up.width() * mult),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::SrlrDesign;
    use srlr_tech::{MonteCarlo, ProcessCorner};

    fn tech() -> Technology {
        Technology::soi45()
    }

    #[test]
    fn nmos_driver_obeys_commanded_level() {
        let t = tech();
        let d = OutputDriver::nmos_based(&t);
        let cmd = Voltage::from_millivolts(400.0);
        assert_eq!(d.drive_level(&t, cmd), cmd);
        // Cannot command above the rail.
        assert_eq!(d.drive_level(&t, Voltage::from_volts(2.0)), t.vdd);
    }

    #[test]
    fn inverter_driver_always_drives_to_rail() {
        let t = tech();
        let d = OutputDriver::inverter(&t);
        assert_eq!(d.drive_level(&t, Voltage::from_millivolts(300.0)), t.vdd);
    }

    #[test]
    fn charge_resistance_magnitudes() {
        let t = tech();
        let nominal = GlobalVariation::nominal();
        let nmos = OutputDriver::nmos_based(&t).charge_resistance(&t, &nominal);
        let inv = OutputDriver::inverter(&t).charge_resistance(&t, &nominal);
        // 4 um devices: low hundreds of ohms.
        assert!(nmos.ohms() > 80.0 && nmos.ohms() < 600.0, "nmos R = {nmos}");
        assert!(inv.ohms() > 150.0 && inv.ohms() < 1500.0, "inv R = {inv}");
        // PMOS pull-up at equal width is weaker than NMOS even with the
        // follower penalty.
        assert!(inv > nmos);
    }

    #[test]
    fn split_charge_resistance_equals_the_unsplit_secant_bit_for_bit() {
        // A sweep resolves the pull-up's drive current once per die and
        // rebuilds the charging resistance from it at every swing. That
        // must be the unsplit `(VDD/2) / Id(VDD, VDD/2)` of the varied
        // pull-up (×1.3 for the follower) and `charge_resistance`, bit
        // for bit: for both driver kinds, every inverter pull-up scale
        // from 350 to 550 mV in 1 mV steps, the five corners and 200
        // Monte Carlo dice.
        let t = tech();
        let unsplit = |d: &OutputDriver, var: &GlobalVariation| {
            let (dvth, mult) = match d.pull_up.kind() {
                MosKind::Nmos => (var.dvth_n, var.drive_mult_n),
                MosKind::Pmos => (var.dvth_p, var.drive_mult_p),
            };
            let half = t.vdd / 2.0;
            let i = d
                .pull_up
                .with_variation(dvth, mult)
                .drain_current(t.vdd, half);
            let r = Resistance::from_ohms(half.volts() / i.amperes());
            match d.kind {
                DriverKind::NmosBased => r * 1.3,
                DriverKind::Inverter => r,
            }
        };
        let straightforward = SrlrDesign::straightforward(&t);
        let drivers: Vec<OutputDriver> = core::iter::once(OutputDriver::nmos_based(&t))
            .chain((350..=550).map(|mv| {
                straightforward
                    .with_nominal_swing(Voltage::from_millivolts(f64::from(mv)))
                    .driver(&t)
            }))
            .collect();
        let mc = MonteCarlo::new(&t, 2013);
        let dice: Vec<GlobalVariation> = ProcessCorner::ALL
            .iter()
            .map(|corner| corner.variation(&t))
            .chain((0..200).map(|trial| mc.die(trial).global_variation()))
            .collect();
        for var in &dice {
            for d in &drivers {
                let split = d.charge_resistance_from(&t, d.pull_up_current(&t, var));
                assert_eq!(split.ohms().to_bits(), unsplit(d, var).ohms().to_bits());
                assert_eq!(
                    split.ohms().to_bits(),
                    d.charge_resistance(&t, var).ohms().to_bits()
                );
            }
        }
    }

    #[test]
    fn discharge_resistance_from_the_pull_up_current_is_bit_identical() {
        // The NMOS-based driver reuses the pull-up's current for its
        // pull-down; the inverter (PMOS pull-up) and a driver whose
        // pull-up model differs fall back to the pull-down's own. Either
        // way the result is `discharge_resistance` bit for bit, at the
        // five corners and 200 Monte Carlo dice.
        let t = tech();
        let mut foreign = OutputDriver::nmos_based(&t);
        foreign.pull_up = Device::new(
            MosKind::Nmos,
            t.nmos.with_variation(Voltage::from_millivolts(25.0), 0.9),
            Length::from_micrometers(4.0),
            t.min_length,
        );
        let drivers = [
            OutputDriver::nmos_based(&t),
            OutputDriver::inverter(&t),
            foreign,
        ];
        let mc = MonteCarlo::new(&t, 2013);
        let dice = ProcessCorner::ALL
            .iter()
            .map(|corner| corner.variation(&t))
            .chain((0..200).map(|trial| mc.die(trial).global_variation()));
        for var in dice {
            for d in &drivers {
                let from = d.discharge_resistance_from(&t, &var, d.pull_up_current(&t, &var));
                assert_eq!(
                    from.ohms().to_bits(),
                    d.discharge_resistance(&t, &var).ohms().to_bits()
                );
            }
        }
    }

    #[test]
    fn weak_pmos_corner_raises_inverter_charge_resistance() {
        let t = tech();
        let d = OutputDriver::inverter(&t);
        let nominal = d.charge_resistance(&t, &GlobalVariation::nominal());
        // SlowFast = slow NMOS / fast PMOS; FastSlow = fast NMOS / slow PMOS.
        let weak_pmos = d.charge_resistance(&t, &ProcessCorner::FastSlow.variation(&t));
        let strong_pmos = d.charge_resistance(&t, &ProcessCorner::SlowFast.variation(&t));
        assert!(weak_pmos > nominal);
        assert!(strong_pmos < nominal);
    }

    #[test]
    fn nmos_driver_charge_resistance_ignores_pmos_corner() {
        let t = tech();
        let d = OutputDriver::nmos_based(&t);
        let nominal = d.charge_resistance(&t, &GlobalVariation::nominal());
        let pmos_only = GlobalVariation {
            dvth_p: Voltage::from_millivolts(60.0),
            drive_mult_p: 0.85,
            ..GlobalVariation::nominal()
        };
        let shifted = d.charge_resistance(&t, &pmos_only);
        assert!(
            (shifted.ohms() - nominal.ohms()).abs() < nominal.ohms() * 1e-9,
            "NMOS driver must be insensitive to PMOS corners"
        );
    }

    #[test]
    fn weak_nmos_slows_discharge_for_both() {
        let t = tech();
        let weak_n = GlobalVariation {
            dvth_n: Voltage::from_millivolts(60.0),
            drive_mult_n: 0.88,
            ..GlobalVariation::nominal()
        };
        for d in [OutputDriver::nmos_based(&t), OutputDriver::inverter(&t)] {
            let nominal = d.discharge_resistance(&t, &GlobalVariation::nominal());
            let weak = d.discharge_resistance(&t, &weak_n);
            assert!(weak > nominal, "{} discharge should weaken", d.kind());
        }
    }

    #[test]
    fn inverter_pull_down_is_weaker_than_nmos_drivers() {
        let t = tech();
        let nominal = GlobalVariation::nominal();
        let inv = OutputDriver::inverter(&t).discharge_resistance(&t, &nominal);
        let nmos = OutputDriver::nmos_based(&t).discharge_resistance(&t, &nominal);
        assert!(inv > nmos, "half-width inverter NMOS discharges slower");
    }

    #[test]
    fn input_capacitance_positive() {
        let t = tech();
        let c = OutputDriver::nmos_based(&t).input_capacitance();
        assert!(c.femtofarads() > 1.0);
    }

    #[test]
    fn kind_display() {
        assert_eq!(DriverKind::Inverter.to_string(), "inverter driver");
        assert_eq!(DriverKind::NmosBased.to_string(), "NMOS-based driver");
    }
}
