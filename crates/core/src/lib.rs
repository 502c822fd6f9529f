//! The self-resetting logic repeater (SRLR) — the paper's contribution.
//!
//! An SRLR is a 3-port (`IN`, `OUT`, `EN`) repeater for single-ended,
//! low-swing *pulses*. When a low-swing pulse arrives at the input NMOS
//! `M1`, the precharged internal node `X` discharges and the output goes
//! high; a self-reset loop through a delay cell recharges `X`, terminating
//! the output pulse; a keeper NMOS `M2` then settles `X` at `VDD − Vth`,
//! which raises the gain of the current-starved inverter amplifier for the
//! next pulse. Because the repeater is asynchronous (no clock, no sense
//! amplifier) and single-ended (one wire per bit), it beats differential
//! clocked low-swing signaling on energy at equal wire density.
//!
//! This crate models the SRLR at two levels:
//!
//! * **Transient level** ([`transient`]): the full circuit is elaborated
//!   into a [`srlr_circuit`] netlist (input device, keeper, amplifier,
//!   delay cell, output driver, RC wire) and integrated to regenerate the
//!   paper's Fig. 4 waveforms.
//! * **Pulse level** ([`pulse`], [`stage`]): each stage is a calibrated map
//!   from an incoming pulse `(width, swing)` to the outgoing pulse,
//!   implementing the Sec. III-A recurrence
//!   `W_out,n = W_x,n − (t_rise,n − t_fall,n)` together with the wire's
//!   swing attenuation. This is what makes 1000-die Monte Carlo and
//!   billion-bit BER experiments tractable.
//!
//! The three robustness techniques of Sec. III are first-class design
//! choices on [`SrlrDesign`]:
//! alternating delay cells ([`delay`]), NMOS-based output drivers
//! ([`driver`]) and the adaptive swing scheme (via
//! [`srlr_tech::AdaptiveSwingBias`]).
//!
//! # Examples
//!
//! ```
//! use srlr_core::{SrlrDesign, PulseState};
//! use srlr_tech::{GlobalVariation, Technology};
//!
//! let tech = Technology::soi45();
//! let design = SrlrDesign::paper_proposed(&tech);
//! let chain = design.instantiate(&tech, &GlobalVariation::nominal(), 10);
//!
//! // A healthy pulse survives ten 1 mm hops.
//! let input = chain.nominal_input_pulse();
//! let out = chain.propagate(input);
//! assert!(out.is_valid());
//! ```

#![forbid(unsafe_code)]

pub mod area;
pub mod batch;
pub mod delay;
pub mod design;
pub mod driver;
pub mod energy;
pub(crate) mod kernel;
pub mod pulse;
pub mod sizing;
pub mod stage;
pub mod transient;

pub use area::SrlrArea;
pub use batch::DieBatch;
pub use delay::{DelayCellDesign, DelayCellKind};
pub use design::{SrlrChain, SrlrDesign, SwingPoint};
pub use driver::DriverKind;
pub use energy::StageEnergyModel;
pub use pulse::PulseState;
pub use stage::SrlrStage;
