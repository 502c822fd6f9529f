//! Transistor-level elaboration of one SRLR stage for transient
//! simulation — the generator of the paper's Fig. 4 waveforms.
//!
//! Topology (matching Fig. 4's schematic description):
//!
//! ```text
//!                 VDD            VDD
//!                  |              |
//!              M2 (keeper)     reset NMOS <- rst (delayed OUT)
//!                  |              |
//!   IN ---- gate of M1       node X ----+---- current-starved INV --- OUT
//!                  |                    |         (EN-gated)           |
//!                 GND              (standby VDD-Vth)            6-buffer delay
//!                                                                      |
//!                                                                     rst
//!   OUT --> NMOS pull-up (from Vref) --+--> 1 mm RC ladder --> NEXT_IN
//!   OUT -> inv -> NMOS pull-down ------+
//! ```
//!
//! The reset device is an NMOS, so node X recharges only to `VDD − Vth` —
//! exactly the reduced standby level the paper exploits to raise the
//! amplifier gain; the keeper M2 then holds that level.

use crate::design::SrlrDesign;
use srlr_circuit::{LadderSpec, Netlist, NodeId, Stimulus, Transient, Waveform};
use srlr_tech::{Device, GlobalVariation, MosKind, Technology};
use srlr_units::{Capacitance, Length, TimeInterval, Voltage};
use std::collections::BTreeMap;

/// A single elaborated SRLR stage with its input stimulus port and output
/// wire, ready for transient simulation.
#[derive(Debug, Clone)]
pub struct SrlrTransientFixture {
    net: Netlist,
    /// The first stage's input (far end of the incoming wire).
    pub input: NodeId,
    /// The first stage's internal node X.
    pub node_x: NodeId,
    /// The first stage's amplifier output OUT.
    pub output: NodeId,
    /// The last stage's delivered output (far end of its 1 mm segment).
    pub next_input: NodeId,
    /// Per-stage probe nodes `(x, out, delivered)` in chain order.
    pub stage_nodes: Vec<(NodeId, NodeId, NodeId)>,
    initial: BTreeMap<NodeId, Voltage>,
}

/// Shared device context while elaborating stages.
struct StageContext<'a> {
    tech: &'a Technology,
    design: &'a SrlrDesign,
    var: &'a GlobalVariation,
    vdd: NodeId,
    en: NodeId,
    vref: NodeId,
}

/// The four waveforms of Fig. 4.
#[derive(Debug, Clone)]
pub struct Fig4Waveforms {
    /// Low-swing input pulses at the stage input.
    pub input: Waveform,
    /// Node X: discharge on detection, NMOS recharge to `VDD − Vth`.
    pub node_x: Waveform,
    /// Full-swing output pulse.
    pub output: Waveform,
    /// Low-swing pulse delivered at the next repeater, 1 mm away.
    pub next_input: Waveform,
}

impl SrlrTransientFixture {
    /// Elaborates one stage of `design` on a die with variation `var`,
    /// driving the input with low-swing pulses for the given bit pattern
    /// at the given bit period.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty.
    pub fn build(
        tech: &Technology,
        design: &SrlrDesign,
        var: &GlobalVariation,
        bits: &[bool],
        bit_period: TimeInterval,
    ) -> Self {
        Self::build_chain(tech, design, var, bits, bit_period, 1)
    }

    /// Elaborates `stages` SRLR stages in series — each stage's 1 mm
    /// segment feeds the next stage's input NMOS — to observe the
    /// repeated signaling at transistor level.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty or `stages` is zero.
    pub fn build_chain(
        tech: &Technology,
        design: &SrlrDesign,
        var: &GlobalVariation,
        bits: &[bool],
        bit_period: TimeInterval,
        stages: usize,
    ) -> Self {
        assert!(!bits.is_empty(), "need at least one stimulus bit");
        assert!(stages > 0, "need at least one stage");
        let mut net = Netlist::new();
        let vdd = net.rail("vdd", tech.vdd);
        let en = net.rail("en", tech.vdd);
        // The bias network uses a replica of the output follower, so the
        // rail it generates sits one follower drop above the target swing
        // (the drive the pulse-domain model calls `commanded`).
        let vref = net.rail(
            "vref",
            design.commanded_drive(tech, var) + Voltage::from_millivolts(100.0),
        );
        let ctx = StageContext {
            tech,
            design,
            var,
            vdd,
            en,
            vref,
        };

        // --- Input port: stimulus emulating the arriving low-swing pulse.
        let input = net.node("in");
        let chain = design.instantiate(tech, var, 1);
        let nominal = chain.nominal_input_pulse();
        net.force(
            input,
            Stimulus::pulse_train(
                bits,
                Voltage::zero(),
                nominal.swing,
                bit_period,
                nominal.width,
                TimeInterval::from_picoseconds(8.0),
            ),
        );

        let mut initial = BTreeMap::new();
        let mut stage_nodes = Vec::with_capacity(stages);
        let mut stage_in = input;
        for k in 0..stages {
            let nodes = Self::elaborate_stage(&mut net, &ctx, stage_in, k, &mut initial);
            stage_in = nodes.2;
            stage_nodes.push(nodes);
        }

        Self {
            net,
            input,
            node_x: stage_nodes[0].0,
            output: stage_nodes[0].1,
            next_input: stage_nodes[stages - 1].2,
            stage_nodes,
            initial,
        }
    }

    /// Adds one SRLR stage reading from `input`; returns its
    /// `(x, out, delivered)` nodes. Node names are prefixed `s{index}.`.
    fn elaborate_stage(
        net: &mut Netlist,
        ctx: &StageContext<'_>,
        input: NodeId,
        index: usize,
        initial: &mut BTreeMap<NodeId, Voltage>,
    ) -> (NodeId, NodeId, NodeId) {
        let (tech, design, var) = (ctx.tech, ctx.design, ctx.var);
        let l = tech.min_length;
        let lvt_n = tech
            .nmos
            .with_variation(var.dvth_n + design.lvt_offset, var.drive_mult_n);
        let reg_n = tech.nmos.with_variation(var.dvth_n, var.drive_mult_n);
        let reg_p = tech.pmos.with_variation(var.dvth_p, var.drive_mult_p);
        let pre = format!("s{index}");

        // --- Node X with M1, keeper M2 and the reset NMOS.
        let node_x = net.node(&format!("{pre}.x"));
        let m1 = Device::new(MosKind::Nmos, lvt_n, design.m1_width, l);
        net.add_mosfet(m1, node_x, input, NodeId::GROUND);
        let m2 = Device::new(MosKind::Nmos, lvt_n, design.m2_width, l);
        net.add_mosfet(m2, ctx.vdd, ctx.vdd, node_x);

        // --- Current-starved inverter amplifier (EN-gated tail).
        let output = net.node(&format!("{pre}.out"));
        let tail = net.node(&format!("{pre}.amp_tail"));
        let amp_p = Device::new(MosKind::Pmos, reg_p, Length::from_micrometers(1.2), l);
        let amp_n = Device::new(MosKind::Nmos, reg_n, Length::from_micrometers(0.4), l);
        let en_n = Device::new(MosKind::Nmos, reg_n, Length::from_micrometers(0.8), l);
        net.add_mosfet(amp_p, output, node_x, ctx.vdd);
        net.add_mosfet(amp_n, output, node_x, tail);
        net.add_mosfet(en_n, tail, ctx.en, NodeId::GROUND);
        net.add_capacitance(output, Capacitance::from_femtofarads(2.0));

        // --- Delay chain from OUT to the reset gate; the per-buffer load
        // realises this stage's (possibly alternating) delay.
        let inverters = design.delay_cell.buffers() * 2;
        let delay_here = design.delay_cell.delay_for_stage(index, tech, var);
        let delay_nom = design.delay_cell.nominal_delay();
        let load_ff = 5.5 * (delay_here / delay_nom);
        let mut chain_in = output;
        let mut rst = output;
        let mut dly_nodes = Vec::with_capacity(inverters);
        for k in 0..inverters {
            let out_k = net.node(&format!("{pre}.dly{k}"));
            let p = Device::new(MosKind::Pmos, reg_p, Length::from_micrometers(0.6), l);
            let n = Device::new(MosKind::Nmos, reg_n, Length::from_micrometers(0.3), l);
            net.add_mosfet(p, out_k, chain_in, ctx.vdd);
            net.add_mosfet(n, out_k, chain_in, NodeId::GROUND);
            net.add_capacitance(out_k, Capacitance::from_femtofarads(load_ff));
            dly_nodes.push(out_k);
            chain_in = out_k;
            rst = out_k;
        }
        // Reset NMOS: recharges X to VDD − Vth when the delayed OUT is high.
        let reset_n = Device::new(MosKind::Nmos, lvt_n, Length::from_micrometers(0.6), l);
        net.add_mosfet(reset_n, ctx.vdd, rst, node_x);

        // --- Output driver (NMOS pull-up from Vref, NMOS pull-down).
        let outb = net.node(&format!("{pre}.outb"));
        let pre_p = Device::new(MosKind::Pmos, reg_p, Length::from_micrometers(0.6), l);
        let pre_n = Device::new(MosKind::Nmos, reg_n, Length::from_micrometers(0.3), l);
        net.add_mosfet(pre_p, outb, output, ctx.vdd);
        net.add_mosfet(pre_n, outb, output, NodeId::GROUND);
        net.add_capacitance(outb, Capacitance::from_femtofarads(2.0));

        let wire_near = net.node(&format!("{pre}.wire_near"));
        let up = Device::new(MosKind::Nmos, reg_n, Length::from_micrometers(6.0), l);
        let down = Device::new(MosKind::Nmos, reg_n, Length::from_micrometers(4.0), l);
        net.add_mosfet(up, ctx.vref, output, wire_near);
        net.add_mosfet(down, wire_near, outb, NodeId::GROUND);

        // --- Outgoing 1 mm segment and the next stage's input load.
        let rc = design
            .wire
            .extract(design.segment_length)
            .with_variation(var.wire_r_mult, var.wire_c_mult);
        let delivered = LadderSpec::new(10).build(net, wire_near, rc, &format!("{pre}.seg"));
        let next_m1 = Device::new(MosKind::Nmos, lvt_n, design.m1_width, l);
        net.add_capacitance(delivered, next_m1.gate_capacitance());

        // --- Initial conditions: X at standby, delay chain settled for
        // OUT = 0 (odd inverters high), everything else low.
        let standby = tech.vdd - Voltage::from_volts(lvt_n.vth0.volts());
        initial.insert(node_x, standby);
        initial.insert(outb, tech.vdd);
        for (k, &n) in dly_nodes.iter().enumerate() {
            if k % 2 == 0 {
                initial.insert(n, tech.vdd);
            }
        }
        (node_x, output, delivered)
    }

    /// Read-only access to the elaborated netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.net
    }

    /// The initial node voltages (standby levels) the simulation starts
    /// from.
    pub fn initial_conditions(&self) -> &BTreeMap<NodeId, Voltage> {
        &self.initial
    }

    /// Runs the transient for `duration` and returns the raw result for
    /// custom probing (e.g. multi-stage chains or VCD export).
    pub fn simulate_raw(&self, duration: TimeInterval) -> srlr_circuit::TransientResult {
        Transient::new(&self.net).run_from(duration, &self.initial)
    }

    /// The paper's Fig. 4 setup — the proposed design at the typical
    /// corner, a `1, 0, 1` pattern at 4.1 Gb/s — simulated for 3.5 bit
    /// periods.
    ///
    /// The run is one `waveforms.transient` frame on `obs.profiler`, and
    /// the integrator's step-control statistics (step count, dv-target
    /// misses, stiffness caps, min/max dt, per-element eval counts) land
    /// as `transient.*` metrics on `obs.collector`. Disabled hooks cost
    /// one branch each; the waveforms are bit-identical either way.
    pub fn fig4(tech: &Technology, obs: &mut srlr_telemetry::Obs) -> Fig4Waveforms {
        let design = SrlrDesign::paper_proposed(tech);
        let bit_period = TimeInterval::from_picoseconds(244.0);
        let fixture = Self::build(
            tech,
            &design,
            &GlobalVariation::nominal(),
            &[true, false, true],
            bit_period,
        );
        obs.profiler.enter("waveforms.transient");
        let result = fixture.simulate_raw(TimeInterval::from_picoseconds(244.0 * 3.5));
        obs.profiler.exit();
        let collector = &mut obs.collector;
        result.stats().record_metrics(collector, "transient");
        if collector.is_enabled() {
            collector.set_metric(
                "transient.nodes",
                srlr_telemetry::Value::U64(fixture.net.node_count() as u64),
            );
            collector.set_metric(
                "transient.elements",
                srlr_telemetry::Value::U64(fixture.net.element_count() as u64),
            );
        }
        Fig4Waveforms {
            input: result.waveform(fixture.input),
            node_x: result.waveform(fixture.node_x),
            output: result.waveform(fixture.output),
            next_input: result.waveform(fixture.next_input),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn waves() -> Fig4Waveforms {
        SrlrTransientFixture::fig4(&Technology::soi45(), &mut srlr_telemetry::Obs::none())
    }

    #[test]
    fn input_pulses_are_low_swing() {
        let w = waves();
        let peak = w.input.peak();
        assert!(
            peak.volts() < 0.5,
            "input should be low-swing, peak = {peak}"
        );
        assert!(
            peak.volts() > 0.15,
            "input must carry signal, peak = {peak}"
        );
    }

    #[test]
    fn node_x_discharges_and_recovers() {
        let w = waves();
        // Standby near VDD − Vth(lvt) = 0.55 V; a detection dip well below
        // the amplifier threshold; recovery before the next bit.
        let standby = w.node_x.value_at(TimeInterval::from_picoseconds(2.0));
        assert!((standby.volts() - 0.55).abs() < 0.08, "standby = {standby}");
        let dip = w.node_x.valley();
        assert!(dip.volts() < 0.3, "X never discharged, min = {dip}");
        let late = w.node_x.value_at(TimeInterval::from_picoseconds(230.0));
        assert!(late.volts() > 0.4, "X failed to recover: {late}");
    }

    #[test]
    fn output_produces_full_swing_pulses() {
        let w = waves();
        assert!(
            w.output.peak().volts() > 0.7,
            "OUT should swing to the rail, peak = {}",
            w.output.peak()
        );
        let widths = w.output.pulse_widths(Voltage::from_volts(0.4));
        assert_eq!(widths.len(), 2, "two '1' bits -> two output pulses");
    }

    #[test]
    fn next_input_receives_repeated_low_swing_pulses() {
        let w = waves();
        let peak = w.next_input.peak();
        assert!(peak.volts() < 0.55, "next input is low-swing: {peak}");
        assert!(peak.volts() > 0.2, "pulse must arrive: {peak}");
        // The '0' bit window stays quiet.
        let quiet = w
            .next_input
            .value_at(TimeInterval::from_picoseconds(244.0 + 200.0));
        assert!(quiet.volts() < 0.15, "ISI residue too high: {quiet}");
    }

    #[test]
    fn output_pulse_width_tracks_the_delay_cell() {
        let w = waves();
        let widths = w.output.pulse_widths(Voltage::from_volts(0.4));
        assert!(!widths.is_empty());
        let ps = widths[0].picoseconds();
        assert!(
            ps > 40.0 && ps < 220.0,
            "output width {ps} ps far from the designed window"
        );
    }

    #[test]
    fn observed_simulation_records_integrator_metrics() {
        use srlr_telemetry::{Collector, Obs, Value};
        let mut obs = Obs {
            collector: Collector::enabled("sim"),
            ..Obs::none()
        };
        let observed = SrlrTransientFixture::fig4(&Technology::soi45(), &mut obs);
        let c = &obs.collector;
        let steps = match c.metrics().get("transient.steps") {
            Some(&Value::U64(n)) => n,
            other => panic!("missing transient.steps metric: {other:?}"),
        };
        assert!(steps > 100, "fig4 takes thousands of steps, got {steps}");
        assert!(c.metrics().contains_key("transient.element_evals"));
        assert!(c.metrics().contains_key("transient.nodes"));
        // Observation must not perturb the simulation.
        let plain = waves();
        assert_eq!(
            observed.output.peak(),
            plain.output.peak(),
            "telemetry changed the simulation result"
        );
    }

    #[test]
    #[should_panic(expected = "at least one stimulus bit")]
    fn empty_pattern_rejected() {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let _ = SrlrTransientFixture::build(
            &tech,
            &design,
            &GlobalVariation::nominal(),
            &[],
            TimeInterval::from_picoseconds(244.0),
        );
    }
}

#[cfg(test)]
mod chain_tests {
    use super::*;

    #[test]
    fn three_stage_chain_repeats_at_transistor_level() {
        // The Fig. 2 claim at circuit level: a pulse launched once is
        // regenerated by each repeater, arriving at every stage boundary
        // with a healthy low-swing amplitude.
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let fixture = SrlrTransientFixture::build_chain(
            &tech,
            &design,
            &GlobalVariation::nominal(),
            &[true, false],
            TimeInterval::from_picoseconds(244.0),
            3,
        );
        let result = srlr_circuit::Transient::new(fixture.netlist()).run_from(
            TimeInterval::from_picoseconds(244.0 * 2.5),
            &fixture.initial,
        );
        for (i, &(x, out, delivered)) in fixture.stage_nodes.iter().enumerate() {
            let out_peak = result.waveform(out).peak();
            assert!(
                out_peak.volts() > 0.65,
                "stage {i} OUT failed to fire: {out_peak}"
            );
            let arr = result.waveform(delivered).peak();
            assert!(
                arr.volts() > 0.2 && arr.volts() < 0.55,
                "stage {i} delivered swing out of band: {arr}"
            );
            let x_min = result.waveform(x).valley();
            assert!(x_min.volts() < 0.3, "stage {i} X never discharged");
        }
    }

    #[test]
    fn stage_nodes_match_single_stage_ports() {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let f = SrlrTransientFixture::build(
            &tech,
            &design,
            &GlobalVariation::nominal(),
            &[true],
            TimeInterval::from_picoseconds(244.0),
        );
        assert_eq!(f.stage_nodes.len(), 1);
        assert_eq!(f.stage_nodes[0].0, f.node_x);
        assert_eq!(f.stage_nodes[0].1, f.output);
        assert_eq!(f.stage_nodes[0].2, f.next_input);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stage_chain_rejected() {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let _ = SrlrTransientFixture::build_chain(
            &tech,
            &design,
            &GlobalVariation::nominal(),
            &[true],
            TimeInterval::from_picoseconds(244.0),
            0,
        );
    }
}
