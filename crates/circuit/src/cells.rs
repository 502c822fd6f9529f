//! A small standard-cell library: parameterised inverters, buffers and
//! chains built onto a [`Netlist`], so higher-level circuit elaborations
//! (the SRLR's amplifier, pre-drivers and delay chains) come from one
//! place instead of hand-instantiated transistor pairs.

use crate::netlist::{Netlist, NodeId};
use srlr_tech::{Device, MosKind, MosfetModel};
use srlr_units::{Capacitance, Length};

/// Device models and defaults for one logic family instance.
#[derive(Debug, Clone)]
pub struct CellLibrary {
    nmos: MosfetModel,
    pmos: MosfetModel,
    length: Length,
    vdd: NodeId,
}

impl CellLibrary {
    /// Creates a library from the two device models, the drawn channel
    /// length and the supply node the cells tie to.
    ///
    /// # Panics
    ///
    /// Panics if the length is not strictly positive.
    pub fn new(nmos: MosfetModel, pmos: MosfetModel, length: Length, vdd: NodeId) -> Self {
        assert!(length.meters() > 0.0, "channel length must be positive");
        Self {
            nmos,
            pmos,
            length,
            vdd,
        }
    }

    /// The supply node cells connect to.
    pub fn vdd(&self) -> NodeId {
        self.vdd
    }

    /// Adds a static CMOS inverter with the given device widths,
    /// creating (or reusing) the output node `out_name`.
    ///
    /// # Panics
    ///
    /// Panics if a width is not strictly positive.
    pub fn inverter(
        &self,
        net: &mut Netlist,
        input: NodeId,
        out_name: &str,
        wn: Length,
        wp: Length,
    ) -> NodeId {
        assert!(
            wn.meters() > 0.0 && wp.meters() > 0.0,
            "device widths must be positive"
        );
        let out = net.node(out_name);
        let n = Device::new(MosKind::Nmos, self.nmos, wn, self.length);
        let p = Device::new(MosKind::Pmos, self.pmos, wp, self.length);
        net.add_mosfet(n, out, input, NodeId::GROUND);
        net.add_mosfet(p, out, input, self.vdd);
        out
    }

    /// Adds a non-inverting buffer (two inverters) and returns its output.
    pub fn buffer(
        &self,
        net: &mut Netlist,
        input: NodeId,
        prefix: &str,
        wn: Length,
        wp: Length,
    ) -> NodeId {
        let mid = self.inverter(net, input, &format!("{prefix}.b0"), wn, wp);
        self.inverter(net, mid, &format!("{prefix}.b1"), wn, wp)
    }

    /// Adds a chain of `inverters` identical inverters, each loaded with
    /// `load` of extra capacitance (to hit a target per-stage delay), and
    /// returns the final output. Output polarity is inverted when
    /// `inverters` is odd.
    ///
    /// # Panics
    ///
    /// Panics if `inverters` is zero.
    #[expect(
        clippy::too_many_arguments,
        reason = "a cell generator naturally takes the full parameter set; a builder would obscure the netlist-construction call sites"
    )]
    pub fn inverter_chain(
        &self,
        net: &mut Netlist,
        input: NodeId,
        inverters: usize,
        load: Capacitance,
        prefix: &str,
        wn: Length,
        wp: Length,
    ) -> NodeId {
        assert!(inverters > 0, "chain needs at least one inverter");
        let mut node = input;
        for k in 0..inverters {
            node = self.inverter(net, node, &format!("{prefix}.inv{k}"), wn, wp);
            net.add_capacitance(node, load);
        }
        node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Transient;
    use crate::stimulus::Stimulus;
    use srlr_units::{Length, TimeInterval, Voltage};

    fn fixture() -> (Netlist, CellLibrary, NodeId) {
        let mut net = Netlist::new();
        let vdd = net.rail("vdd", Voltage::from_volts(0.8));
        let lib = CellLibrary::new(
            MosfetModel::nmos_soi45(),
            MosfetModel::pmos_soi45(),
            Length::from_nanometers(45.0),
            vdd,
        );
        let input = net.node("in");
        net.force(
            input,
            Stimulus::step(
                Voltage::zero(),
                Voltage::from_volts(0.8),
                TimeInterval::from_picoseconds(100.0),
            ),
        );
        (net, lib, input)
    }

    #[test]
    fn inverter_inverts() {
        let (mut net, lib, input) = fixture();
        let out = lib.inverter(
            &mut net,
            input,
            "out",
            Length::from_micrometers(0.3),
            Length::from_micrometers(0.6),
        );
        let r = Transient::new(&net).run(TimeInterval::from_nanoseconds(1.0));
        let w = r.waveform(out);
        assert!(w.value_at(TimeInterval::from_picoseconds(90.0)).volts() > 0.75);
        assert!(w.last_value().volts() < 0.05);
    }

    #[test]
    fn buffer_preserves_polarity() {
        let (mut net, lib, input) = fixture();
        let out = lib.buffer(
            &mut net,
            input,
            "buf",
            Length::from_micrometers(0.3),
            Length::from_micrometers(0.6),
        );
        let r = Transient::new(&net).run(TimeInterval::from_nanoseconds(1.0));
        let w = r.waveform(out);
        assert!(w.value_at(TimeInterval::from_picoseconds(90.0)).volts() < 0.05);
        assert!(w.last_value().volts() > 0.75);
    }

    #[test]
    fn chain_delay_grows_with_length() {
        let delay_of = |stages: usize| {
            let (mut net, lib, input) = fixture();
            let out = lib.inverter_chain(
                &mut net,
                input,
                stages,
                Capacitance::from_femtofarads(4.0),
                "dly",
                Length::from_micrometers(0.3),
                Length::from_micrometers(0.6),
            );
            let r = Transient::new(&net).run(TimeInterval::from_nanoseconds(2.0));
            // All nodes start at 0 V, so skip start-up settling and take
            // the rising edge caused by the input step at 100 ps.
            let crossings = r.waveform(out).crossings(Voltage::from_volts(0.4));
            crossings
                .into_iter()
                .filter(|&(t, e)| {
                    e == crate::waveform::Edge::Rising && t > TimeInterval::from_picoseconds(100.0)
                })
                .map(|(t, _)| t)
                .next()
                .expect("output switched after the input step")
        };
        let short = delay_of(2);
        let long = delay_of(8);
        assert!(
            (long - short).picoseconds() > 30.0,
            "8-stage chain should be much slower: {short} vs {long}"
        );
    }

    #[test]
    fn odd_chain_inverts_even_chain_does_not() {
        // The input settles high, so an odd chain ends low and an even
        // chain ends high.
        let final_value = |stages: usize| {
            let (mut net, lib, input) = fixture();
            let out = lib.inverter_chain(
                &mut net,
                input,
                stages,
                Capacitance::from_femtofarads(2.0),
                "c",
                Length::from_micrometers(0.3),
                Length::from_micrometers(0.6),
            );
            Transient::new(&net)
                .run(TimeInterval::from_nanoseconds(2.0))
                .waveform(out)
                .last_value()
        };
        assert!(final_value(3).volts() < 0.05, "odd chain must invert");
        assert!(final_value(4).volts() > 0.75, "even chain must not");
    }

    #[test]
    #[should_panic(expected = "at least one inverter")]
    fn empty_chain_rejected() {
        let (mut net, lib, input) = fixture();
        let _ = lib.inverter_chain(
            &mut net,
            input,
            0,
            Capacitance::zero(),
            "c",
            Length::from_micrometers(0.3),
            Length::from_micrometers(0.6),
        );
    }

    #[test]
    #[should_panic(expected = "widths must be positive")]
    fn zero_width_rejected() {
        let (mut net, lib, input) = fixture();
        let _ = lib.inverter(
            &mut net,
            input,
            "out",
            Length::zero(),
            Length::from_micrometers(0.6),
        );
    }
}
