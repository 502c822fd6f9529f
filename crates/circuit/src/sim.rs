//! The adaptive explicit transient integrator.

use crate::netlist::{Element, Netlist, NodeId};
use srlr_tech::MosKind;
use srlr_units::{Energy, TimeInterval, Voltage};
use std::collections::BTreeMap;

/// Transient simulation engine over a [`Netlist`].
///
/// Integration is explicit midpoint (RK2) with the step size adapted to a
/// per-step voltage-change target and hard-bounded by the stiffest
/// resistive time constant of the netlist. All nodes are recorded.
#[derive(Debug, Clone)]
pub struct Transient {
    net: Netlist,
    /// Target maximum |dV| per step.
    dv_target: f64,
    /// Hard bounds on the step size (seconds).
    dt_min: f64,
    dt_max: f64,
    /// Time resolution of the recorded waveforms (seconds).
    record_dt: f64,
}

impl Transient {
    /// Creates a simulator over (a clone of) the netlist with default
    /// tolerances: 2 mV per step, 1 fs–1 ps steps, 0.2 ps recording grid.
    pub fn new(net: &Netlist) -> Self {
        let stiffness_bound = net
            .min_resistive_tau()
            .map_or(1e-12, |tau| (0.5 * tau).clamp(1e-15, 1e-12));
        Self {
            net: net.clone(),
            dv_target: 2e-3,
            dt_min: 1e-15,
            dt_max: stiffness_bound,
            record_dt: 2e-13,
        }
    }

    /// Overrides the per-step voltage-change target (volts). Smaller is
    /// more accurate and slower.
    ///
    /// # Panics
    ///
    /// Panics if `dv` is not strictly positive.
    #[must_use]
    pub fn with_dv_target(mut self, dv: Voltage) -> Self {
        assert!(dv.volts() > 0.0, "dv target must be positive");
        self.dv_target = dv.volts();
        self
    }

    /// Overrides the waveform recording resolution.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive.
    #[must_use]
    pub fn with_record_resolution(mut self, dt: TimeInterval) -> Self {
        assert!(dt.seconds() > 0.0, "record resolution must be positive");
        self.record_dt = dt.seconds();
        self
    }

    /// Runs the transient from all-zero initial node voltages for
    /// `duration`, recording every node.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is not strictly positive.
    pub fn run(&self, duration: TimeInterval) -> TransientResult {
        self.run_from(duration, &BTreeMap::new())
    }

    /// Runs the transient with explicit initial conditions for some nodes
    /// (all others start at 0 V, forced nodes start at their stimulus
    /// value).
    ///
    /// # Panics
    ///
    /// Panics if `duration` is not strictly positive.
    pub fn run_from(
        &self,
        duration: TimeInterval,
        initial: &BTreeMap<NodeId, Voltage>,
    ) -> TransientResult {
        let t_end = duration.seconds();
        assert!(t_end > 0.0, "simulation duration must be positive");

        let n = self.net.node_count();
        let mut v = vec![0.0_f64; n];
        for (&node, &volt) in initial {
            v[node.index()] = volt.volts();
        }
        for f in &self.net.forced {
            v[f.node.index()] = f.stimulus.value_at_seconds(0.0);
        }
        v[NodeId::GROUND.index()] = 0.0;

        let forced_mask = {
            let mut mask = vec![false; n];
            mask[NodeId::GROUND.index()] = true;
            for f in &self.net.forced {
                mask[f.node.index()] = true;
            }
            mask
        };

        // Recording state.
        #[expect(
            clippy::cast_possible_truncation,
            reason = "only a capacity hint, clamped to 2^20 below; `as` saturates"
        )]
        let n_records = (t_end / self.record_dt).ceil() as usize + 1;
        let mut records: Vec<Vec<(f64, f64)>> = vec![Vec::with_capacity(n_records.min(1 << 20)); n];
        let mut source_energy = vec![0.0_f64; self.net.forced.len()];
        let mut stats = TransientStats::default();

        let mut t = 0.0_f64;
        let mut next_record = 0.0_f64;
        let mut dt;
        let mut currents = vec![0.0_f64; n];
        let mut currents_mid = vec![0.0_f64; n];
        let mut v_mid = vec![0.0_f64; n];

        while t < t_end {
            // Record on the regular grid.
            if t >= next_record {
                for (i, rec) in records.iter_mut().enumerate() {
                    rec.push((t, v[i]));
                }
                next_record += self.record_dt;
                stats.records += 1;
            }

            self.eval_currents(&v, &mut currents);

            // Adapt dt to the fastest-moving free node.
            let mut max_rate = 0.0_f64;
            for i in 0..n {
                if forced_mask[i] {
                    continue;
                }
                let rate = (currents[i] / self.net.node_capacitance[i]).abs();
                max_rate = max_rate.max(rate);
            }
            if max_rate > 0.0 {
                let want = self.dv_target / max_rate;
                if want < self.dt_min {
                    stats.dv_target_missed += 1;
                } else if want > self.dt_max {
                    stats.dt_max_capped += 1;
                }
                dt = want.clamp(self.dt_min, self.dt_max);
            } else {
                stats.dt_max_capped += 1;
                dt = self.dt_max;
            }
            stats.steps += 1;
            stats.current_evals += 2;
            stats.dt_min_taken = stats.dt_min_taken.min(TimeInterval::from_seconds(dt));
            stats.dt_max_taken = stats.dt_max_taken.max(TimeInterval::from_seconds(dt));
            if t + dt > t_end {
                dt = t_end - t;
            }

            // Midpoint method: half-step predictor, full-step corrector.
            let half = 0.5 * dt;
            for i in 0..n {
                v_mid[i] = if forced_mask[i] {
                    v[i]
                } else {
                    v[i] + half * currents[i] / self.net.node_capacitance[i]
                };
            }
            self.apply_forced(t + half, &mut v_mid);
            self.eval_currents(&v_mid, &mut currents_mid);

            for i in 0..n {
                if !forced_mask[i] {
                    v[i] += dt * currents_mid[i] / self.net.node_capacitance[i];
                }
            }
            t += dt;
            self.apply_forced(t, &mut v);

            // Source energy: the current each source must supply equals the
            // negative of the element currents flowing into its node.
            for (si, f) in self.net.forced.iter().enumerate() {
                let supplied = -currents_mid[f.node.index()];
                source_energy[si] += supplied * v[f.node.index()] * dt;
            }
        }
        // Final record.
        for (i, rec) in records.iter_mut().enumerate() {
            rec.push((t, v[i]));
        }
        stats.records += 1;

        // Element-evaluation tallies are derivable after the fact (every
        // `eval_currents` call walks every element), so the hot loop pays
        // nothing for them.
        let (mut n_resistors, mut n_mosfets) = (0u64, 0u64);
        for e in &self.net.elements {
            match e {
                Element::Resistor { .. } => n_resistors += 1,
                Element::Mosfet { .. } => n_mosfets += 1,
            }
        }
        stats.resistor_evals = stats.current_evals * n_resistors;
        stats.mosfet_evals = stats.current_evals * n_mosfets;
        stats.element_evals = stats.resistor_evals + stats.mosfet_evals;

        TransientResult {
            records,
            source_labels: self.net.forced.iter().map(|f| f.label.clone()).collect(),
            source_energy,
            stats,
        }
    }

    fn apply_forced(&self, t: f64, v: &mut [f64]) {
        v[NodeId::GROUND.index()] = 0.0;
        for f in &self.net.forced {
            v[f.node.index()] = f.stimulus.value_at_seconds(t);
        }
    }

    /// Sums the element currents flowing *into* every node at the given
    /// node-voltage vector.
    fn eval_currents(&self, v: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        for e in &self.net.elements {
            match e {
                Element::Resistor { a, b, conductance } => {
                    let i = (v[a.index()] - v[b.index()]) * conductance;
                    out[a.index()] -= i;
                    out[b.index()] += i;
                }
                Element::Mosfet {
                    kind,
                    drain,
                    gate,
                    source,
                    device,
                } => {
                    let vd = v[drain.index()];
                    let vg = v[gate.index()];
                    let vs = v[source.index()];
                    // Canonicalise terminal order: MOSFETs are symmetric.
                    let (hi, lo, hi_is_drain) = if vd >= vs {
                        (vd, vs, true)
                    } else {
                        (vs, vd, false)
                    };
                    let (vgs, vds) = match kind {
                        // NMOS conducts from the higher terminal to the
                        // lower; its effective source is the lower one.
                        MosKind::Nmos => (vg - lo, hi - lo),
                        // PMOS conducts when the gate is low relative to
                        // the higher terminal (its effective source).
                        MosKind::Pmos => (hi - vg, hi - lo),
                    };
                    let i = device
                        .drain_current(Voltage::from_volts(vgs), Voltage::from_volts(vds))
                        .amperes();
                    // Current flows from the higher terminal to the lower.
                    if hi_is_drain {
                        out[drain.index()] -= i;
                        out[source.index()] += i;
                    } else {
                        out[source.index()] -= i;
                        out[drain.index()] += i;
                    }
                }
            }
        }
    }
}

/// Step-control statistics for one transient run.
///
/// The integrator never *rejects* a step outright — it picks the step
/// size from the dv-per-step target first and only then applies the
/// `[dt_min, dt_max]` clamp — so the honest observability story is the
/// clamp tallies: [`TransientStats::dv_target_missed`] counts steps a
/// strict error controller would have rejected (the target demanded a
/// step below `dt_min`, so the realised |dV| overshot the target), and
/// [`TransientStats::dt_max_capped`] counts steps limited by the
/// stiffness bound rather than accuracy. Collecting these is a handful
/// of scalar updates per step; results are unchanged by observation.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientStats {
    /// Integration steps taken.
    pub steps: u64,
    /// Steps where the dv-target step size fell below `dt_min` and was
    /// clamped up: the per-step |dV| target was *not* honoured.
    pub dv_target_missed: u64,
    /// Steps capped at `dt_max` by the stiffness bound (including
    /// quiescent steps where no node was moving).
    pub dt_max_capped: u64,
    /// Smallest step size the controller chose (before end-of-run
    /// truncation). Infinite when no steps ran.
    pub dt_min_taken: TimeInterval,
    /// Largest step size the controller chose.
    pub dt_max_taken: TimeInterval,
    /// Calls to the per-element current evaluation (two per step:
    /// predictor + corrector).
    pub current_evals: u64,
    /// Total element evaluations (`current_evals` × element count).
    pub element_evals: u64,
    /// Resistor evaluations.
    pub resistor_evals: u64,
    /// MOSFET evaluations.
    pub mosfet_evals: u64,
    /// Waveform grid records written (per node set, not per node).
    pub records: u64,
}

impl Default for TransientStats {
    fn default() -> Self {
        Self {
            steps: 0,
            dv_target_missed: 0,
            dt_max_capped: 0,
            dt_min_taken: TimeInterval::from_seconds(f64::INFINITY),
            dt_max_taken: TimeInterval::from_seconds(0.0),
            current_evals: 0,
            element_evals: 0,
            resistor_evals: 0,
            mosfet_evals: 0,
            records: 0,
        }
    }
}

impl TransientStats {
    /// Folds another run's statistics into this one (for experiments
    /// that run many transients and report an aggregate).
    pub fn absorb(&mut self, other: &TransientStats) {
        self.steps += other.steps;
        self.dv_target_missed += other.dv_target_missed;
        self.dt_max_capped += other.dt_max_capped;
        self.dt_min_taken = self.dt_min_taken.min(other.dt_min_taken);
        self.dt_max_taken = self.dt_max_taken.max(other.dt_max_taken);
        self.current_evals += other.current_evals;
        self.element_evals += other.element_evals;
        self.resistor_evals += other.resistor_evals;
        self.mosfet_evals += other.mosfet_evals;
        self.records += other.records;
    }

    /// Records these statistics as `"<prefix>.<stat>"` metrics on a
    /// telemetry collector (free when the collector is disabled).
    pub fn record_metrics(&self, collector: &mut srlr_telemetry::Collector, prefix: &str) {
        if !collector.is_enabled() {
            return;
        }
        use srlr_telemetry::Value;
        collector.set_metric(&format!("{prefix}.steps"), Value::U64(self.steps));
        collector.set_metric(
            &format!("{prefix}.dv_target_missed"),
            Value::U64(self.dv_target_missed),
        );
        collector.set_metric(
            &format!("{prefix}.dt_max_capped"),
            Value::U64(self.dt_max_capped),
        );
        collector.set_metric(
            &format!("{prefix}.dt_min_taken_s"),
            Value::F64(self.dt_min_taken.seconds()),
        );
        collector.set_metric(
            &format!("{prefix}.dt_max_taken_s"),
            Value::F64(self.dt_max_taken.seconds()),
        );
        collector.set_metric(
            &format!("{prefix}.current_evals"),
            Value::U64(self.current_evals),
        );
        collector.set_metric(
            &format!("{prefix}.element_evals"),
            Value::U64(self.element_evals),
        );
        collector.set_metric(
            &format!("{prefix}.resistor_evals"),
            Value::U64(self.resistor_evals),
        );
        collector.set_metric(
            &format!("{prefix}.mosfet_evals"),
            Value::U64(self.mosfet_evals),
        );
        collector.set_metric(&format!("{prefix}.records"), Value::U64(self.records));
    }
}

/// The outcome of a transient run: per-node waveforms plus per-source
/// delivered energy.
#[derive(Debug, Clone)]
pub struct TransientResult {
    records: Vec<Vec<(f64, f64)>>,
    source_labels: Vec<String>,
    source_energy: Vec<f64>,
    stats: TransientStats,
}

impl TransientResult {
    /// Step-control statistics of the run that produced this result.
    pub fn stats(&self) -> &TransientStats {
        &self.stats
    }

    /// The recorded waveform of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the simulated netlist.
    pub fn waveform(&self, node: NodeId) -> crate::waveform::Waveform {
        let rec = &self.records[node.index()];
        let mut w = crate::waveform::Waveform::new();
        let mut last = f64::NEG_INFINITY;
        for &(t, v) in rec {
            if t > last {
                w.push(TimeInterval::from_seconds(t), Voltage::from_volts(v));
                last = t;
            }
        }
        w
    }

    /// Total energy delivered by the forced source driving the named node
    /// over the whole run. Negative values mean the source absorbed energy.
    ///
    /// Returns `None` if no source with that label exists.
    pub fn source_energy(&self, label: &str) -> Option<Energy> {
        self.source_labels
            .iter()
            .position(|l| l == label)
            .map(|i| Energy::from_joules(self.source_energy[i]))
    }

    /// Sum of the energies delivered by every source in the run.
    pub fn total_source_energy(&self) -> Energy {
        Energy::from_joules(self.source_energy.iter().sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stimulus::Stimulus;
    use srlr_units::{Capacitance, Length, Resistance};

    /// A simple RC driven by a step: the canonical analytic check.
    fn rc_step() -> (Netlist, NodeId, NodeId) {
        let mut net = Netlist::new();
        let src = net.node("src");
        let out = net.node("out");
        net.force(
            src,
            Stimulus::step(
                Voltage::zero(),
                Voltage::from_volts(0.8),
                TimeInterval::from_picoseconds(1.0),
            ),
        );
        net.add_resistor(src, out, Resistance::from_kilohms(1.0));
        net.add_capacitance(out, Capacitance::from_femtofarads(100.0));
        (net, src, out)
    }

    #[test]
    fn rc_step_matches_analytic_time_constant() {
        let (net, _, out) = rc_step();
        let result = Transient::new(&net).run(TimeInterval::from_nanoseconds(1.0));
        let w = result.waveform(out);
        // tau = 100 ps; at t = tau + edge the response is 1 - 1/e = 63.2 %.
        let v_tau = w.value_at(TimeInterval::from_picoseconds(102.0));
        assert!(
            (v_tau.volts() - 0.8 * 0.632).abs() < 0.02,
            "v(tau) = {v_tau}"
        );
        // Settles to the rail.
        assert!((w.last_value().volts() - 0.8).abs() < 0.005);
    }

    #[test]
    fn rc_discharge_through_nmos() {
        // Precharge a capacitor and discharge it through an NMOS switch.
        use srlr_tech::{Device, MosfetModel};
        let mut net = Netlist::new();
        let gate = net.node("gate");
        let cap = net.node("cap");
        net.force(
            gate,
            Stimulus::step(
                Voltage::zero(),
                Voltage::from_volts(0.8),
                TimeInterval::from_picoseconds(50.0),
            ),
        );
        net.add_capacitance(cap, Capacitance::from_femtofarads(50.0));
        let dev = Device::new(
            MosKind::Nmos,
            MosfetModel::nmos_soi45(),
            Length::from_micrometers(0.5),
            Length::from_nanometers(45.0),
        );
        net.add_mosfet(dev, cap, gate, NodeId::GROUND);

        let mut init = BTreeMap::new();
        init.insert(cap, Voltage::from_volts(0.8));
        let result = Transient::new(&net).run_from(TimeInterval::from_nanoseconds(1.0), &init);
        let w = result.waveform(cap);
        // Held high until the gate opens...
        assert!(w.value_at(TimeInterval::from_picoseconds(40.0)).volts() > 0.75);
        // ...then discharged to near ground.
        assert!(w.last_value().volts() < 0.05, "final = {}", w.last_value());
    }

    #[test]
    fn inverter_switches() {
        use srlr_tech::{Device, MosfetModel};
        let mut net = Netlist::new();
        let vdd = net.rail("vdd", Voltage::from_volts(0.8));
        let input = net.node("in");
        let out = net.node("out");
        net.force(
            input,
            Stimulus::step(
                Voltage::zero(),
                Voltage::from_volts(0.8),
                TimeInterval::from_picoseconds(100.0),
            ),
        );
        net.add_capacitance(out, Capacitance::from_femtofarads(5.0));
        let n = Device::new(
            MosKind::Nmos,
            MosfetModel::nmos_soi45(),
            Length::from_micrometers(0.4),
            Length::from_nanometers(45.0),
        );
        let p = Device::new(
            MosKind::Pmos,
            MosfetModel::pmos_soi45(),
            Length::from_micrometers(0.8),
            Length::from_nanometers(45.0),
        );
        net.add_mosfet(n, out, input, NodeId::GROUND);
        net.add_mosfet(p, out, input, vdd);

        let result = Transient::new(&net).run(TimeInterval::from_nanoseconds(1.0));
        let w = result.waveform(out);
        // With the input low the PMOS pulls the output to the rail.
        assert!(
            w.value_at(TimeInterval::from_picoseconds(95.0)).volts() > 0.75,
            "pre-switch output = {}",
            w.value_at(TimeInterval::from_picoseconds(95.0))
        );
        // With the input high the NMOS wins and the output falls.
        assert!(w.last_value().volts() < 0.05, "final = {}", w.last_value());
    }

    #[test]
    fn source_energy_of_rc_charge() {
        // Charging C to V through R draws E = C V^2 from the source
        // (half stored, half burned in R).
        let (net, _, _) = rc_step();
        let result = Transient::new(&net).run(TimeInterval::from_nanoseconds(2.0));
        let e = result.source_energy("src").expect("src is a source");
        let expect = 100e-15 * 0.8 * 0.8; // C V^2 = 64 fJ
        assert!(
            (e.femtojoules() - expect * 1e15).abs() < expect * 1e15 * 0.05,
            "E = {e}, expected ~{} fJ",
            expect * 1e15
        );
    }

    #[test]
    fn total_source_energy_sums_labels() {
        let (net, _, _) = rc_step();
        let result = Transient::new(&net).run(TimeInterval::from_nanoseconds(2.0));
        assert_eq!(
            result.total_source_energy(),
            result.source_energy("src").unwrap()
        );
        assert!(result.source_energy("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn zero_duration_rejected() {
        let (net, _, _) = rc_step();
        let _ = Transient::new(&net).run(TimeInterval::zero());
    }

    #[test]
    fn resistive_divider_settles_to_the_analytic_ratio() {
        // src -- 1k -- mid -- 3k -- gnd: mid settles at 3/4 of the rail.
        let mut net = Netlist::new();
        let src = net.node("src");
        let mid = net.node("mid");
        net.force(src, Stimulus::dc(Voltage::from_volts(0.8)));
        net.add_resistor(src, mid, Resistance::from_kilohms(1.0));
        net.add_resistor(mid, NodeId::GROUND, Resistance::from_kilohms(3.0));
        net.add_capacitance(mid, Capacitance::from_femtofarads(20.0));
        let r = Transient::new(&net).run(TimeInterval::from_nanoseconds(1.0));
        let v = r.waveform(mid).last_value();
        assert!((v.volts() - 0.6).abs() < 0.003, "divider settled at {v}");
    }

    #[test]
    fn linear_superposition_holds() {
        // For the linear RC, the response to a double-height step is twice
        // the response to a single-height step at every sample.
        let response = |volts: f64| {
            let mut net = Netlist::new();
            let src = net.node("src");
            let out = net.node("out");
            net.force(
                src,
                Stimulus::step(
                    Voltage::zero(),
                    Voltage::from_volts(volts),
                    TimeInterval::from_picoseconds(1.0),
                ),
            );
            net.add_resistor(src, out, Resistance::from_kilohms(2.0));
            net.add_capacitance(out, Capacitance::from_femtofarads(50.0));
            Transient::new(&net).run(TimeInterval::from_nanoseconds(1.0))
        };
        let single = response(0.4);
        let double = response(0.8);
        let mut net_probe = Netlist::new();
        let _ = net_probe.node("src");
        let out = net_probe.node("out");
        for ps in [30.0, 80.0, 150.0, 400.0] {
            let t = TimeInterval::from_picoseconds(ps);
            let v1 = single.waveform(out).value_at(t).volts();
            let v2 = double.waveform(out).value_at(t).volts();
            assert!(
                (v2 - 2.0 * v1).abs() < 0.01,
                "superposition violated at {ps} ps: {v1} vs {v2}"
            );
        }
    }

    #[test]
    fn two_coupled_rcs_share_charge_correctly() {
        // Precharge C1, connect to C2 through R: both settle at the
        // charge-sharing voltage C1 V0 / (C1 + C2).
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.add_capacitance(a, Capacitance::from_femtofarads(100.0));
        net.add_capacitance(b, Capacitance::from_femtofarads(300.0));
        net.add_resistor(a, b, Resistance::from_kilohms(1.0));
        let mut init = BTreeMap::new();
        init.insert(a, Voltage::from_volts(0.8));
        let r = Transient::new(&net).run_from(TimeInterval::from_nanoseconds(5.0), &init);
        let va = r.waveform(a).last_value().volts();
        let vb = r.waveform(b).last_value().volts();
        // Ideal sharing: 0.8 * 100/400 = 0.2 (the small parasitic floor
        // shifts it by <0.1 %).
        assert!((va - 0.2).abs() < 0.005, "a settled at {va}");
        assert!((vb - 0.2).abs() < 0.005, "b settled at {vb}");
        assert!((va - vb).abs() < 1e-3, "nodes must equalise");
    }

    #[test]
    fn stats_count_steps_and_evals() {
        let (net, _, _) = rc_step();
        let r = Transient::new(&net).run(TimeInterval::from_nanoseconds(1.0));
        let s = r.stats();
        assert!(s.steps > 10, "expected many steps, got {}", s.steps);
        assert_eq!(s.current_evals, 2 * s.steps, "RK2 = two evals per step");
        // rc_step has one resistor and no MOSFETs.
        assert_eq!(s.resistor_evals, s.current_evals);
        assert_eq!(s.mosfet_evals, 0);
        assert_eq!(s.element_evals, s.resistor_evals);
        assert!(s.dt_min_taken.seconds() > 0.0 && s.dt_min_taken <= s.dt_max_taken);
        assert!(s.records >= 2, "at least first + final grid records");
        assert_eq!(
            s.steps,
            s.dv_target_missed + s.dt_max_capped + (s.steps - s.dv_target_missed - s.dt_max_capped),
            "tallies never exceed the step count"
        );
        assert!(s.dv_target_missed + s.dt_max_capped <= s.steps);
    }

    #[test]
    fn tight_dv_target_forces_dt_min_misses() {
        // An absurdly tight dv target (1 nV/step) demands steps far below
        // dt_min while the RC edge slews, so the controller must report
        // missed targets; the default target on the same circuit reports
        // mostly stiffness-capped steps once settled.
        let (net, _, _) = rc_step();
        let tight = Transient::new(&net)
            .with_dv_target(Voltage::from_volts(1e-9))
            .run(TimeInterval::from_picoseconds(100.0));
        assert!(
            tight.stats().dv_target_missed > 0,
            "1 nV/step target must miss: {:?}",
            tight.stats()
        );
        let relaxed = Transient::new(&net).run(TimeInterval::from_nanoseconds(2.0));
        assert!(
            relaxed.stats().dt_max_capped > 0,
            "settled RC must hit the stiffness cap: {:?}",
            relaxed.stats()
        );
    }

    #[test]
    fn stats_absorb_aggregates_runs() {
        let (net, _, _) = rc_step();
        let a = Transient::new(&net).run(TimeInterval::from_picoseconds(100.0));
        let b = Transient::new(&net).run(TimeInterval::from_nanoseconds(1.0));
        let mut agg = TransientStats::default();
        agg.absorb(a.stats());
        agg.absorb(b.stats());
        assert_eq!(agg.steps, a.stats().steps + b.stats().steps);
        assert_eq!(
            agg.dt_min_taken,
            a.stats().dt_min_taken.min(b.stats().dt_min_taken)
        );
        assert_eq!(
            agg.dt_max_taken,
            a.stats().dt_max_taken.max(b.stats().dt_max_taken)
        );
    }

    #[test]
    fn stats_record_metrics_into_collector() {
        use srlr_telemetry::{Collector, Value};
        let (net, _, _) = rc_step();
        let r = Transient::new(&net).run(TimeInterval::from_picoseconds(100.0));
        let mut c = Collector::enabled("sim");
        r.stats().record_metrics(&mut c, "transient");
        assert_eq!(
            c.metrics().get("transient.steps"),
            Some(&Value::U64(r.stats().steps))
        );
        assert!(c.metrics().contains_key("transient.dt_min_taken_s"));
        // Disabled collectors stay empty.
        let mut off = Collector::disabled();
        r.stats().record_metrics(&mut off, "transient");
        assert!(off.metrics().is_empty());
    }

    #[test]
    fn record_resolution_is_respected() {
        let (net, _, out) = rc_step();
        let coarse = Transient::new(&net)
            .with_record_resolution(TimeInterval::from_picoseconds(10.0))
            .run(TimeInterval::from_nanoseconds(1.0));
        let fine = Transient::new(&net)
            .with_record_resolution(TimeInterval::from_picoseconds(1.0))
            .run(TimeInterval::from_nanoseconds(1.0));
        assert!(fine.waveform(out).len() > coarse.waveform(out).len() * 5);
    }

    #[test]
    fn tighter_tolerance_changes_little_on_smooth_circuit() {
        let (net, _, out) = rc_step();
        let coarse = Transient::new(&net).run(TimeInterval::from_nanoseconds(1.0));
        let fine = Transient::new(&net)
            .with_dv_target(Voltage::from_microvolts(500.0))
            .run(TimeInterval::from_nanoseconds(1.0));
        let t = TimeInterval::from_picoseconds(150.0);
        let dv = (coarse.waveform(out).value_at(t) - fine.waveform(out).value_at(t)).abs();
        assert!(dv.millivolts() < 5.0, "solver tolerance sensitivity {dv}");
    }
}
