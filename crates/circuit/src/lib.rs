//! A compact nonlinear transient circuit simulator.
//!
//! This is the SPICE stand-in for the reproduction: enough of a simulator
//! to integrate RC π-ladder wires driven by behavioural MOSFETs (the
//! [`srlr_tech`] alpha-power model) and recover the paper's Fig. 4
//! waveforms — low-swing input pulses, the node-X discharge/reset cycle,
//! and repeated output pulses.
//!
//! Design choices:
//!
//! * **Node-conductance formulation.** Every node carries a lumped
//!   capacitance to ground; every element contributes a current as a
//!   function of the present node voltages. Coupling capacitance is folded
//!   into the ground capacitance via the wire model's Miller factor, which
//!   keeps the system diagonal and lets an explicit integrator work.
//! * **Adaptive explicit integration** (midpoint / RK2) with the step size
//!   limited both by a per-step voltage-change target and by the stiffest
//!   resistive time constant found at build time. This is robust for the
//!   RC-plus-transistor circuits in this workspace without needing a
//!   Newton solver.
//! * **Energy accounting.** Charge drawn from each voltage source is
//!   integrated so per-pulse and per-bit energies can be measured the same
//!   way the paper measures link power.
//!
//! # Examples
//!
//! Charging an RC with a step:
//!
//! ```
//! use srlr_circuit::{Netlist, Stimulus, Transient};
//! use srlr_units::{Capacitance, Resistance, TimeInterval, Voltage};
//!
//! let mut net = Netlist::new();
//! let src = net.node("src");
//! let out = net.node("out");
//! net.force(src, Stimulus::step(Voltage::zero(), Voltage::from_volts(0.8),
//!     TimeInterval::from_picoseconds(10.0)));
//! net.add_resistor(src, out, Resistance::from_kilohms(1.0));
//! net.add_capacitance(out, Capacitance::from_femtofarads(100.0));
//!
//! let result = Transient::new(&net).run(TimeInterval::from_nanoseconds(1.0));
//! let w = result.waveform(out);
//! // After ~7 tau the output has reached the rail.
//! assert!((w.last_value().volts() - 0.8).abs() < 0.01);
//! ```

#![forbid(unsafe_code)]

/// RC ladder models of distributed on-chip wires.
pub mod ladder;
/// Netlist construction: nodes, passives, MOSFETs and forced sources.
pub mod netlist;
/// The adaptive explicit transient integrator.
pub mod sim;
/// Time-domain source waveform descriptions.
pub mod stimulus;
/// VCD dumping of simulated waveforms.
pub mod vcd;
/// Sampled waveforms and edge/level measurements.
pub mod waveform;

pub use ladder::LadderSpec;
pub use netlist::{Netlist, NodeId};
pub use sim::{Transient, TransientResult, TransientStats};
pub use stimulus::Stimulus;
pub use waveform::{Edge, Waveform};
