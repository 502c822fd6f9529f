//! Physical-quantity newtypes for the SRLR reproduction.
//!
//! Circuit and network-on-chip modeling mixes many scales — femtojoules,
//! kilohms, gigabits per second, micrometres — and silent unit confusion is
//! the classic source of wrong energy numbers. This crate gives every
//! quantity used by the higher-level crates its own newtype over `f64`
//! ([C-NEWTYPE]), with:
//!
//! * checked, dimension-respecting arithmetic (`Voltage * Charge = Energy`,
//!   `Resistance * Capacitance = TimeInterval`, ...),
//! * named constructors and accessors at the scales the paper uses
//!   (`Voltage::from_millivolts`, `Energy::femtojoules`, ...),
//! * human-readable SI display (`40.4 fJ`, `6.83 Gb/s/um`).
//!
//! # Examples
//!
//! ```
//! use srlr_units::{Capacitance, Voltage};
//!
//! // Dynamic energy of charging 200 fF of wire to a 0.35 V swing, with the
//! // charge drawn from the 0.8 V rail: E = (C * V_swing) * V_dd.
//! let wire = Capacitance::from_femtofarads(200.0);
//! let swing = Voltage::from_millivolts(350.0);
//! let rail = Voltage::from_volts(0.8);
//! let charge = wire * swing;
//! let energy = charge * rail;
//! assert!((energy.femtojoules() - 56.0).abs() < 1e-9);
//! ```
//!
//! The umbrella quantity list lives in the individual modules:
//! [`electrical`], [`time`], [`energy`], [`geometry`], [`rate`] and
//! [`density`].

#![forbid(unsafe_code)]

#[macro_use]
mod macros;

/// Per-length and per-area extraction densities.
pub mod density;
/// Voltage, current, charge, resistance and capacitance quantities.
pub mod electrical;
/// Energy and power quantities.
pub mod energy;
/// Length and area quantities.
pub mod geometry;
/// Data-rate and energy-efficiency figures of merit.
pub mod rate;
/// SI prefix scaling for human-readable formatting.
pub mod si;
/// Time and frequency quantities.
pub mod time;

pub use density::{
    CapacitancePerArea, CapacitancePerLength, CurrentPerLength, DelayPerLength, ResistancePerLength,
};
pub use electrical::{Capacitance, Charge, Current, Resistance, Voltage};
pub use energy::{Energy, Power};
pub use geometry::{Area, Length};
pub use rate::{BandwidthDensity, DataRate, EnergyPerBit, EnergyPerBitLength};
pub use time::{Frequency, TimeInterval};

#[cfg(test)]
mod cross_ops_tests {
    use super::*;

    #[test]
    fn rc_time_constant() {
        let r = Resistance::from_kilohms(1.4);
        let c = Capacitance::from_femtofarads(200.0);
        let tau = r * c;
        assert!((tau.picoseconds() - 280.0).abs() < 1e-9);
    }

    #[test]
    fn ohms_law_round_trip() {
        let v = Voltage::from_volts(0.8);
        let r = Resistance::from_ohms(400.0);
        let i = v / r;
        assert!((i.milliamperes() - 2.0).abs() < 1e-12);
        let back = i * r;
        assert!((back.volts() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn power_energy_time_triangle() {
        let p = Power::from_milliwatts(1.66);
        let t = TimeInterval::from_nanoseconds(1.0);
        let e = p * t;
        assert!((e.femtojoules() - 1660.0).abs() < 1e-6);
        assert!(((e / t).milliwatts() - 1.66).abs() < 1e-12);
        assert!(((e / p).nanoseconds() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn charge_definitions_agree() {
        let c = Capacitance::from_femtofarads(100.0);
        let v = Voltage::from_volts(0.5);
        let q1 = c * v;
        let q2 = Current::from_microamperes(50.0) * TimeInterval::from_nanoseconds(1.0);
        assert!((q1.coulombs() - 50e-15).abs() < 1e-20);
        assert!((q2.coulombs() - 50e-15).abs() < 1e-20);
    }

    #[test]
    fn energy_from_charge_and_voltage() {
        let q = Capacitance::from_femtofarads(200.0) * Voltage::from_millivolts(350.0);
        let e = q * Voltage::from_volts(0.8);
        assert!((e.femtojoules() - 56.0).abs() < 1e-9);
    }

    #[test]
    fn frequency_period_inverse() {
        let f = Frequency::from_gigahertz(4.1);
        let t = f.period();
        assert!((t.picoseconds() - 243.902439).abs() < 1e-3);
        assert!((t.frequency().gigahertz() - 4.1).abs() < 1e-9);
    }

    #[test]
    fn data_rate_geometry() {
        // The paper's headline: 4.1 Gb/s over a 0.6 um pitch wire.
        let rate = DataRate::from_gigabits_per_second(4.1);
        let pitch = Length::from_micrometers(0.6);
        let density = rate / pitch;
        assert!((density.gigabits_per_second_per_micrometer() - 6.8333).abs() < 1e-3);
    }

    #[test]
    fn energy_per_bit_per_length() {
        // 1.66 mW at 4.1 Gb/s over 10 mm -> 40.4 fJ/bit/mm.
        let p = Power::from_milliwatts(1.66);
        let rate = DataRate::from_gigabits_per_second(4.1);
        let per_bit = p / rate;
        let per_mm = per_bit / Length::from_millimeters(10.0);
        assert!((per_mm.femtojoules_per_bit_per_millimeter() - 40.4878).abs() < 1e-3);
    }
}
