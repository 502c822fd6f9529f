//! A 45nm-SOI-like technology model for the SRLR reproduction.
//!
//! The paper's circuits were designed against a foundry 45 nm SOI CMOS PDK.
//! That PDK is proprietary, so this crate provides the closest open
//! substitute: first-order, continuous device and wire models that preserve
//! every dependency the paper's arguments rely on —
//!
//! * drain current that grows with overdrive and weakens with threshold
//!   voltage ([`mosfet`], Sakurai–Newton alpha-power law with a smooth
//!   subthreshold tail),
//! * wire resistance/capacitance derived from drawn geometry ([`wire`]),
//!   giving the RC channel attenuation that produces the low swing,
//! * die-to-die ("global") process corners and within-die ("local")
//!   Pelgrom mismatch ([`corner`], [`variation`]), and a deterministic,
//!   seedable Monte Carlo sampler ([`montecarlo`]),
//! * an Oguey-style process-tolerant bias current reference and the adaptive
//!   swing-voltage generator built on it ([`bias`]).
//!
//! Everything is bundled by [`Technology`], whose [`Technology::soi45`]
//! constructor is calibrated so the nominal SRLR design point reproduces the
//! paper's measured numbers (4.1 Gb/s, 40.4 fJ/bit/mm at 0.8 V).
//!
//! # Examples
//!
//! ```
//! use srlr_tech::{Technology, ProcessCorner};
//! use srlr_units::Voltage;
//!
//! let tech = Technology::soi45();
//! assert_eq!(tech.vdd, Voltage::from_volts(0.8));
//!
//! // A slow corner raises thresholds and weakens drive.
//! let ss = ProcessCorner::SlowSlow.variation(&tech);
//! assert!(ss.dvth_n.volts() > 0.0);
//! ```

#![forbid(unsafe_code)]

/// Subthreshold bias generators for the adaptive low-swing driver.
pub mod bias;
/// Process-corner definitions (TT/FF/SS/FS/SF).
pub mod corner;
/// Sized device instances built on the MOSFET model.
pub mod device;
/// Deterministic Monte Carlo sampling of global and local variation.
pub mod montecarlo;
/// The continuous compact MOSFET drain-current model.
pub mod mosfet;
/// Self-resetting repeater device-level parameters.
pub mod repeater;
/// The 45nm SOI technology card.
pub mod technology;
/// Operating-temperature modelling.
pub mod temperature;
/// Global (die-to-die) and local (mismatch) variation models.
pub mod variation;
/// Wire geometry and distributed RC extraction.
pub mod wire;

pub use bias::{AdaptiveSwingBias, OgueyReference};
pub use corner::ProcessCorner;
pub use device::{Device, MosKind};
pub use montecarlo::{DieSampler, GaussianRng, MonteCarlo};
pub use mosfet::MosfetModel;
pub use technology::Technology;
pub use temperature::Temperature;
pub use variation::{GlobalVariation, LocalMismatch};
pub use wire::{WireGeometry, WireRc};
