//! Design-space description of an SRLR link and its elaboration into a
//! chain of per-die stages.
//!
//! [`SrlrDesign`] captures the *choices* of Secs. II–III: delay-cell
//! arrangement, driver topology, adaptive-swing on/off, the target swing
//! and the device sizing. [`SrlrDesign::instantiate`] resolves those
//! choices against a technology and one die's global variation (plus,
//! optionally, per-stage local mismatch) into an [`SrlrChain`] of
//! [`SrlrStage`]s ready to propagate pulses. A swing sweep elaborates
//! each die once, into a chain it reuses from die to die
//! ([`SwingPoint::instantiate_with_mismatch_into`]), and moves it between
//! swings with [`SwingPoint::retarget`].

use crate::delay::DelayCellDesign;
use crate::driver::{DriverKind, OutputDriver};
use crate::pulse::{PulseState, StageOutcome};
use crate::stage::SrlrStage;
use srlr_tech::{
    AdaptiveSwingBias, Device, GlobalVariation, MismatchSampler, MosKind, Technology, WireGeometry,
};
use srlr_units::{Capacitance, Energy, Length, Resistance, TimeInterval, Voltage};

/// A complete SRLR design point.
///
/// # Examples
///
/// ```
/// use srlr_core::{DriverKind, SrlrDesign};
/// use srlr_tech::Technology;
///
/// let tech = Technology::soi45();
/// let proposed = SrlrDesign::paper_proposed(&tech);
/// assert_eq!(proposed.driver_kind, DriverKind::NmosBased);
/// assert!(proposed.adaptive_swing);
///
/// let baseline = SrlrDesign::straightforward(&tech);
/// assert_eq!(baseline.driver_kind, DriverKind::Inverter);
/// assert!(!baseline.adaptive_swing);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SrlrDesign {
    /// Delay-cell arrangement (single vs alternating).
    pub delay_cell: DelayCellDesign,
    /// Output-driver topology.
    pub driver_kind: DriverKind,
    /// Whether the adaptive swing-voltage scheme is enabled.
    pub adaptive_swing: bool,
    /// Commanded drive level on a typical die (the Fig. 6 sweep axis).
    pub nominal_swing: Voltage,
    /// Repeater insertion length (the mesh router-to-router distance).
    pub segment_length: Length,
    /// Link wire geometry.
    pub wire: WireGeometry,
    /// Drawn width of the input NMOS M1.
    pub m1_width: Length,
    /// Drawn width of the keeper NMOS M2.
    pub m2_width: Length,
    /// Threshold offset of M1/M2 relative to the regular NMOS (a low-Vt
    /// flavour; negative lowers the threshold).
    pub lvt_offset: Voltage,
    /// Intrinsic amplifier rise time at the typical corner.
    pub t_rise0: TimeInterval,
    /// Amplifier fall time at the typical corner.
    pub t_fall: TimeInterval,
    /// Narrowest usable output pulse.
    pub min_output_width: TimeInterval,
    /// Sensitivity-margin floor added to M1's threshold.
    pub sense_margin_floor: Voltage,
    /// Keeper-ratio coefficient of the sensitivity margin.
    pub sense_margin_coeff: Voltage,
    /// Static-soundness guard between X's standby level and the amplifier
    /// threshold.
    pub static_guard: Voltage,
}

impl SrlrDesign {
    /// The proposed design: alternating delay cells, NMOS-based drivers and
    /// the adaptive swing scheme (Sec. III), at the fabrication swing.
    pub fn paper_proposed(tech: &Technology) -> Self {
        Self {
            delay_cell: DelayCellDesign::alternating_paper(),
            driver_kind: DriverKind::NmosBased,
            adaptive_swing: true,
            nominal_swing: Voltage::from_millivolts(460.0),
            segment_length: Length::from_millimeters(1.0),
            wire: tech.wire,
            m1_width: Length::from_micrometers(0.3),
            m2_width: Length::from_nanometers(60.0),
            lvt_offset: Voltage::from_millivolts(-70.0),
            t_rise0: TimeInterval::from_picoseconds(10.0),
            t_fall: TimeInterval::from_picoseconds(15.0),
            min_output_width: TimeInterval::from_picoseconds(10.0),
            sense_margin_floor: Voltage::from_millivolts(10.0),
            sense_margin_coeff: Voltage::from_millivolts(20.0),
            static_guard: Voltage::from_millivolts(20.0),
        }
    }

    /// The straightforward design the paper compares against in Fig. 6:
    /// inverter drivers, a single 6-buffer delay cell everywhere and no
    /// adaptive swing.
    pub fn straightforward(tech: &Technology) -> Self {
        Self {
            delay_cell: DelayCellDesign::single_paper(),
            driver_kind: DriverKind::Inverter,
            adaptive_swing: false,
            ..Self::paper_proposed(tech)
        }
    }

    /// Returns a copy with a different commanded nominal swing.
    ///
    /// # Panics
    ///
    /// Panics if `swing` is not strictly positive.
    #[must_use]
    pub fn with_nominal_swing(&self, swing: Voltage) -> Self {
        assert!(swing.volts() > 0.0, "nominal swing must be positive");
        Self {
            nominal_swing: swing,
            ..self.clone()
        }
    }

    /// Returns a copy with a different delay-cell design (for ablations).
    #[must_use]
    pub fn with_delay_cell(&self, delay_cell: DelayCellDesign) -> Self {
        Self {
            delay_cell,
            ..self.clone()
        }
    }

    /// Returns a copy with a different driver topology (for ablations).
    #[must_use]
    pub fn with_driver(&self, driver_kind: DriverKind) -> Self {
        Self {
            driver_kind,
            ..self.clone()
        }
    }

    /// Returns a copy with the adaptive swing scheme toggled.
    #[must_use]
    pub fn with_adaptive_swing(&self, adaptive_swing: bool) -> Self {
        Self {
            adaptive_swing,
            ..self.clone()
        }
    }

    /// The commanded drive level on a die: adaptive designs track M1's
    /// threshold via the bias generator; fixed designs lose (gain) drive
    /// when the follower's threshold rises (falls).
    pub fn commanded_drive(&self, tech: &Technology, var: &GlobalVariation) -> Voltage {
        self.commanded_drive_with(self.adaptive_bias(tech).as_ref(), var)
    }

    /// The bias generator of an adaptive design at its nominal swing
    /// (`None` for a fixed-swing design).
    fn adaptive_bias(&self, tech: &Technology) -> Option<AdaptiveSwingBias> {
        self.adaptive_swing
            .then(|| AdaptiveSwingBias::with_nominal_swing(tech, self.nominal_swing))
    }

    /// [`SrlrDesign::commanded_drive`] with the bias generator built.
    fn commanded_drive_with(
        &self,
        bias: Option<&AdaptiveSwingBias>,
        var: &GlobalVariation,
    ) -> Voltage {
        match bias {
            Some(bias) => bias.target_swing(var),
            None => (self.nominal_swing - var.dvth_n).max(Voltage::zero()),
        }
    }

    /// Builds the output driver for this design.
    ///
    /// An inverter driver always drives to the rail, so its *delivered*
    /// swing is set at design time by sizing the PMOS such that a pulse of
    /// the nominal delay-cell width charges the segment's far end to
    /// `nominal_swing` at the typical corner — the realistic equivalent of
    /// "the voltage swing selected for fabrication" in Fig. 6's sweep.
    pub fn driver(&self, tech: &Technology) -> OutputDriver {
        match self.driver_kind {
            DriverKind::NmosBased => OutputDriver::nmos_based(tech),
            DriverKind::Inverter => {
                let base = OutputDriver::inverter(tech);
                let wire = self.wire.extract(self.segment_length);
                let w_star = self.delay_cell.nominal_delay().seconds();
                // Fair sizing: match the *delivered* swing of the
                // NMOS-based design at the same design point, i.e. the
                // commanded swing times that driver's nominal attenuation.
                let nmos_tau = (OutputDriver::nmos_based(tech)
                    .charge_resistance(tech, &GlobalVariation::nominal())
                    + wire.resistance * 0.5)
                    * wire.capacitance;
                let delivered_frac = 1.0 - (-w_star / nmos_tau.seconds()).exp();
                let target = self.nominal_swing * delivered_frac;
                let frac = (target / tech.vdd).clamp(0.05, 0.95);
                let tau_target = -w_star / (1.0 - frac).ln();
                let r_needed = (tau_target / wire.capacitance.farads()
                    - 0.5 * wire.resistance.ohms())
                .max(50.0);
                let r_base = base
                    .charge_resistance(tech, &GlobalVariation::nominal())
                    .ohms();
                base.with_pull_up_scaled(r_base / r_needed)
            }
        }
    }

    /// Elaborates `stages` identical-die stages (global variation only).
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero.
    pub fn instantiate(
        &self,
        tech: &Technology,
        var: &GlobalVariation,
        stages: usize,
    ) -> SrlrChain {
        let mut chain = SrlrChain::empty();
        SwingPoint::new(tech, self).build_chain(tech, var, stages, None, &mut chain);
        chain
    }

    /// Elaborates a chain with per-stage local mismatch drawn from `mc`
    /// on top of the die's global variation.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero.
    pub fn instantiate_with_mismatch<M: MismatchSampler>(
        &self,
        tech: &Technology,
        var: &GlobalVariation,
        stages: usize,
        mc: &mut M,
    ) -> SrlrChain {
        SwingPoint::new(tech, self).instantiate_with_mismatch(tech, var, stages, mc)
    }
}

/// One point of a swing sweep: a design at one nominal swing, with the
/// swing's die-independent work done once rather than once per die —
/// the output driver sized (the inverter's PMOS depends on the swing)
/// and the adaptive bias generator built.
///
/// The swing reaches exactly three stage fields: `drive_level`,
/// `charge_resistance` and `internal_energy_per_pulse`. A sweep
/// therefore elaborates each die once, at any point, and
/// [`SwingPoint::retarget`]s the chain to every other point, which
/// re-resolves those three fields with the expressions elaboration uses
/// and so gives the chain bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct SwingPoint {
    design: SrlrDesign,
    bias: Option<AdaptiveSwingBias>,
    driver: OutputDriver,
}

impl SwingPoint {
    /// `design` at its nominal swing, with the driver sized and the bias
    /// generator built once for every die elaborated at this point.
    pub fn new(tech: &Technology, design: &SrlrDesign) -> Self {
        Self {
            bias: design.adaptive_bias(tech),
            driver: design.driver(tech),
            design: design.clone(),
        }
    }

    /// [`SrlrDesign::instantiate_with_mismatch`] for the design at this
    /// point's swing.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero.
    pub fn instantiate_with_mismatch<M: MismatchSampler>(
        &self,
        tech: &Technology,
        var: &GlobalVariation,
        stages: usize,
        mc: &mut M,
    ) -> SrlrChain {
        let mut chain = SrlrChain::empty();
        self.build_chain(tech, var, stages, Some(mc), &mut chain);
        chain
    }

    /// [`SwingPoint::instantiate_with_mismatch`] into a caller-owned
    /// chain: `chain` becomes the elaborated die, bit for bit, whatever
    /// it held before. Its stage buffer is reused, so re-elaborating a
    /// chain of the same length allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero.
    pub fn instantiate_with_mismatch_into<M: MismatchSampler>(
        &self,
        tech: &Technology,
        var: &GlobalVariation,
        stages: usize,
        mc: &mut M,
        chain: &mut SrlrChain,
    ) {
        self.build_chain(tech, var, stages, Some(mc), chain);
    }

    /// Moves `chain` to this point's swing: `chain` must have been
    /// elaborated on die `var` for this point's design at any swing.
    /// The result equals elaborating the die at this point directly.
    pub fn retarget(&self, tech: &Technology, var: &GlobalVariation, chain: &mut SrlrChain) {
        // Node X's capacitance is a die-level quantity, the same in every
        // stage.
        let Some(c_x) = chain.stages.first().map(|stage| stage.c_x) else {
            return;
        };
        let (drive_level, charge_r, internal_energy) = self.swing_fields(tech, var, c_x);
        for stage in &mut chain.stages {
            stage.drive_level = drive_level;
            stage.charge_resistance = charge_r;
            stage.internal_energy_per_pulse = internal_energy;
        }
    }

    /// The stage fields the swing reaches, on die `var` with node-X
    /// capacitance `c_x`: drive level, charging resistance and the fixed
    /// internal energy per pulse (X cycle, amplifier load, driver input,
    /// delay-cell buffers).
    fn swing_fields(
        &self,
        tech: &Technology,
        var: &GlobalVariation,
        c_x: Capacitance,
    ) -> (Voltage, Resistance, Energy) {
        let drive_command = self.design.commanded_drive_with(self.bias.as_ref(), var);
        let drive_level = self.driver.drive_level(tech, drive_command);
        let charge_r = self.driver.charge_resistance(tech, var);
        let c_buffers =
            Capacitance::from_femtofarads(2.0 * self.design.delay_cell.buffers() as f64);
        let c_amp_load = Capacitance::from_femtofarads(2.0);
        let c_internal = c_x + self.driver.input_capacitance() + c_buffers + c_amp_load;
        (drive_level, charge_r, (c_internal * tech.vdd) * tech.vdd)
    }

    /// Elaborates die `var` into `chain` in place, drawing M1's local
    /// mismatch from `mc` when given.
    fn build_chain(
        &self,
        tech: &Technology,
        var: &GlobalVariation,
        stages: usize,
        mut mc: Option<&mut dyn MismatchSampler>,
        chain: &mut SrlrChain,
    ) {
        assert!(stages > 0, "a chain needs at least one stage");
        let design = &self.design;
        let discharge_r = self.driver.discharge_resistance(tech, var);
        let wire = design
            .wire
            .extract(design.segment_length)
            .with_variation(var.wire_r_mult, var.wire_c_mult);

        let delay_mult = DelayCellDesign::variation_multiplier(tech, var);

        // Everything below up to the per-stage loop is a function of the
        // die (design + global variation) alone, so it is evaluated once
        // per chain; only M1 carries per-stage local mismatch.
        let lvt_dvth = var.dvth_n + design.lvt_offset;
        let m2_model = tech.nmos.with_variation(lvt_dvth, var.drive_mult_n);
        let m2 = Device::new(MosKind::Nmos, m2_model, design.m2_width, tech.min_length);

        // Sensitivity margin: floor plus the keeper-ratio term (a
        // relatively stronger keeper demands more overdrive).
        let margin = design.sense_margin_floor
            + design.sense_margin_coeff * (design.m2_width / design.m1_width);

        // Node X: standby at VDD − Vth(M2); the amplifier flips at the
        // CMOS midpoint of its (corner-shifted) devices.
        let x_standby = tech.vdd - m2.vth();
        let vth_n_eff = (tech.nmos.vth0 + var.dvth_n).volts();
        let vth_p_eff = (tech.pmos.vth0 + var.dvth_p).volts();
        let inv_threshold = Voltage::from_volts(0.5 * (vth_n_eff + tech.vdd.volts() - vth_p_eff));
        let statically_sound = x_standby > inv_threshold + design.static_guard;
        let x_discharge_depth = (x_standby - inv_threshold).max(Voltage::from_millivolts(20.0));

        // Node X loading: M1 drain, M2 source, amplifier input. Junction
        // capacitance does not move with threshold or drive variation.
        let amp_input = Capacitance::from_femtofarads(0.9);
        let c_x =
            tech.nmos.junction_capacitance(design.m1_width) + m2.drain_capacitance() + amp_input;

        let (drive_level, charge_r, internal_energy) = self.swing_fields(tech, var, c_x);

        // Keeper opposition during a discharge: M2's current at half the
        // discharge depth of gate overdrive (its source follows X down
        // while its gate stays at VDD).
        let half_depth = x_discharge_depth / 2.0;
        let keeper_current = m2.drain_current(m2.vth() + half_depth, tech.vdd / 2.0);

        // Standby leakage: M1 (gate low) plus one off device in each
        // inverter of the delay cell/amplifier/pre-driver (~0.45 um each)
        // plus the idle driver pull-up.
        let leaky_inverters = 2.0 * design.delay_cell.buffers() as f64 + 3.0;
        let reg_n = tech.nmos.with_variation(var.dvth_n, var.drive_mult_n);
        let off_current =
            |width: Length| Device::new(MosKind::Nmos, reg_n, width, tech.min_length).off_current();
        let inv_leak = off_current(Length::from_micrometers(0.45)) * leaky_inverters;
        let driver_off = off_current(Length::from_micrometers(4.0));

        // M1's drive scale before its local drive mismatch.
        let m1_ratio = design.m1_width / tech.min_length;
        let die_drive_scale = tech.nmos.drive_factor.amperes() * m1_ratio * var.drive_mult_n;

        // The delay cell depends on the stage only through its parity.
        let delay =
            [0, 1].map(|parity| design.delay_cell.delay_with_multiplier(parity, delay_mult));

        // The fields every stage of this die shares; the zeroed M1 fields,
        // the index and the delay are set per stage below.
        let die_stage = SrlrStage {
            index: 0,
            enabled: true,
            vdd: tech.vdd,
            m1_vth: Voltage::zero(),
            keeper_current,
            m1_drive_scale: 0.0,
            m1_alpha: tech.nmos.alpha,
            m1_smooth: srlr_tech::mosfet::THERMAL_VOLTAGE.volts() * tech.nmos.subthreshold_n,
            sense_threshold: Voltage::zero(),
            c_x,
            x_discharge_depth,
            t_rise0: design.t_rise0 * delay_mult,
            t_fall: design.t_fall * delay_mult,
            delay: delay[0],
            min_output_width: design.min_output_width,
            drive_level,
            charge_resistance: charge_r,
            discharge_resistance: discharge_r,
            wire_resistance: wire.resistance,
            wire_capacitance: wire.capacitance,
            internal_energy_per_pulse: internal_energy,
            leakage: srlr_units::Power::zero(),
            statically_sound,
        };

        chain.stages.clear();
        // srlr-lint: allow(alloc-in-hot-path, reason = "fills the caller's reused stage buffer; it grows only on a chain's first elaboration")
        chain.stages.extend((0..stages).map(|index| {
            // Local mismatch applies to the small, matching-critical
            // input pair (M1 against the sense reference).
            let (local_vth, local_drive) = match mc.as_deref_mut() {
                Some(mc) => (
                    mc.sample_local_vth(design.m1_width, tech.min_length),
                    mc.sample_local_drive(design.m1_width, tech.min_length),
                ),
                None => (Voltage::zero(), 1.0),
            };
            let m1_model = tech
                .nmos
                .with_variation(lvt_dvth + local_vth, var.drive_mult_n * local_drive);
            let m1 = Device::new(MosKind::Nmos, m1_model, design.m1_width, tech.min_length);
            let leak_current = m1.off_current() + inv_leak + driver_off;
            SrlrStage {
                index,
                m1_vth: m1.vth(),
                m1_drive_scale: die_drive_scale * local_drive,
                sense_threshold: m1.vth() + margin,
                delay: delay[index % 2],
                leakage: tech.vdd * leak_current,
                ..die_stage
            }
        }));
        chain.segment_length = design.segment_length;
        chain.launch_width = design.delay_cell.nominal_delay() * delay_mult;
    }
}

/// A resolved chain of SRLR stages on one die.
#[derive(Debug, PartialEq)]
pub struct SrlrChain {
    stages: Vec<SrlrStage>,
    segment_length: Length,
    /// Width of the pulse the modulator launches on this die (the
    /// parity-free nominal delay-cell width, corner-scaled).
    launch_width: TimeInterval,
}

/// `clone_from` reuses the stage buffer, so copying one die's chain into
/// a chain kept from an earlier die allocates nothing.
impl Clone for SrlrChain {
    fn clone(&self) -> Self {
        Self {
            stages: self.stages.clone(),
            segment_length: self.segment_length,
            launch_width: self.launch_width,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.stages.clone_from(&source.stages);
        self.segment_length = source.segment_length;
        self.launch_width = source.launch_width;
    }
}

impl SrlrChain {
    /// A chain with no stages, to be filled by elaboration.
    fn empty() -> Self {
        Self {
            stages: Vec::new(),
            segment_length: Length::zero(),
            launch_width: TimeInterval::zero(),
        }
    }

    /// The stages, in link order.
    pub fn stages(&self) -> &[SrlrStage] {
        &self.stages
    }

    /// Mutable access to the stages (e.g. to toggle EN for crossbar use).
    pub fn stages_mut(&mut self) -> &mut [SrlrStage] {
        &mut self.stages
    }

    /// Number of repeater stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// `true` for a chain with no stages (cannot be constructed via
    /// [`SrlrDesign::instantiate`], but kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Repeater insertion length.
    pub fn segment_length(&self) -> Length {
        self.segment_length
    }

    /// Total wire length spanned by the chain.
    pub fn total_length(&self) -> Length {
        self.segment_length * self.stages.len() as f64
    }

    /// The pulse the pulse modulator launches into the first stage: the
    /// stage-0 driver charging the first segment for the parity-free
    /// nominal delay-cell width.
    pub fn nominal_input_pulse(&self) -> PulseState {
        let s0 = &self.stages[0];
        PulseState::new(self.launch_width, s0.delivered_swing(self.launch_width))
    }

    /// Width of the modulator's launch pulse on this die.
    pub fn launch_width(&self) -> TimeInterval {
        self.launch_width
    }

    /// Propagates a pulse through every stage, returning the final state
    /// (dead as soon as any stage drops it).
    pub fn propagate(&self, input: PulseState) -> PulseState {
        let mut p = input;
        for stage in &self.stages {
            if !p.is_valid() {
                return PulseState::dead();
            }
            p = stage.process(p).output;
        }
        p
    }

    /// Propagates a pulse, recording the state *entering* each stage plus
    /// the final output (so the result has `len() + 1` entries). This is
    /// the trace behind the paper's eqs. (1)/(2).
    pub fn propagate_trace(&self, input: PulseState) -> Vec<PulseState> {
        let mut trace = Vec::with_capacity(self.stages.len() + 1);
        let mut p = input;
        trace.push(p);
        for stage in &self.stages {
            p = if p.is_valid() {
                stage.process(p).output
            } else {
                PulseState::dead()
            };
            trace.push(p);
        }
        trace
    }

    /// Total standby leakage of every stage in the chain.
    pub fn total_leakage(&self) -> srlr_units::Power {
        self.stages.iter().map(|s| s.leakage).sum()
    }

    /// Propagates a pulse and accumulates the total dynamic energy spent
    /// by all stages on it.
    pub fn propagate_with_energy(&self, input: PulseState) -> (PulseState, Energy) {
        let mut p = input;
        let mut energy = Energy::zero();
        for stage in &self.stages {
            if !p.is_valid() {
                return (PulseState::dead(), energy);
            }
            let StageOutcome {
                output, energy: e, ..
            } = stage.process(p);
            energy += e;
            p = output;
        }
        (p, energy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srlr_tech::{MonteCarlo, ProcessCorner};

    fn tech() -> Technology {
        Technology::soi45()
    }

    #[test]
    fn retargeting_a_die_equals_elaborating_it_at_the_new_swing() {
        // The sweep's shortcut must be exact: a die elaborated at one
        // swing and retargeted to another prints (shortest round-trip
        // f64s, so bit for bit) the same as the die elaborated there.
        let t = tech();
        let mc = MonteCarlo::new(&t, 2013);
        let proposed = SrlrDesign::paper_proposed(&t);
        for design in [
            proposed.clone(),
            SrlrDesign::straightforward(&t),
            proposed.with_adaptive_swing(false),
        ] {
            let points = [300.0, 350.0, 460.0, 550.0].map(|mv| {
                let at = design.with_nominal_swing(Voltage::from_millivolts(mv));
                (mv, SwingPoint::new(&t, &at))
            });
            for trial in 0..12 {
                let elaborate = |point: &SwingPoint| {
                    let mut die = mc.die(trial);
                    let var = die.global_variation();
                    (point.instantiate_with_mismatch(&t, &var, 10, &mut die), var)
                };
                for (from_mv, from) in &points {
                    for (to_mv, to) in &points {
                        let (mut chain, var) = elaborate(from);
                        to.retarget(&t, &var, &mut chain);
                        assert_eq!(
                            format!("{chain:?}"),
                            format!("{:?}", elaborate(to).0),
                            "{:?} die {trial}: {from_mv} mV retargeted to {to_mv} mV",
                            design.driver_kind
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn elaborating_in_place_equals_elaborating_afresh() {
        // The sweep re-elaborates every die into a chain that held the
        // previous one. Whatever the chain held (another die, design,
        // swing or length), the result must print the same as a fresh
        // elaboration, and a chain of the same length must keep its
        // stage buffer.
        let t = tech();
        let mc = MonteCarlo::new(&t, 2013);
        let proposed = SrlrDesign::paper_proposed(&t);
        let points = [
            SwingPoint::new(&t, &proposed),
            SwingPoint::new(&t, &SrlrDesign::straightforward(&t)),
            SwingPoint::new(
                &t,
                &proposed.with_nominal_swing(Voltage::from_millivolts(350.0)),
            ),
        ];
        let mut reused = proposed.instantiate(&t, &GlobalVariation::nominal(), 10);
        for trial in 0..12 {
            for point in &points {
                for stages in [10, 3, 10, 1] {
                    let mut die = mc.die(trial);
                    let var = die.global_variation();
                    let fresh = point.instantiate_with_mismatch(&t, &var, stages, &mut die);
                    let mut die = mc.die(trial);
                    let var = die.global_variation();
                    let buffer = reused.stages.as_ptr();
                    point.instantiate_with_mismatch_into(&t, &var, stages, &mut die, &mut reused);
                    assert_eq!(format!("{reused:?}"), format!("{fresh:?}"));
                    assert_eq!(reused.stages.as_ptr(), buffer, "the stage buffer moved");
                }
            }
        }
    }

    #[test]
    fn proposed_design_repeats_over_ten_stages() {
        let t = tech();
        let chain = SrlrDesign::paper_proposed(&t).instantiate(&t, &GlobalVariation::nominal(), 10);
        let out = chain.propagate(chain.nominal_input_pulse());
        assert!(out.is_valid(), "nominal 10-stage propagation failed: {out}");
    }

    #[test]
    fn straightforward_design_also_works_at_typical() {
        // Footnote 2: the single delay cell is the most reliable at the
        // *typical* condition — it must pass nominally.
        let t = tech();
        let chain =
            SrlrDesign::straightforward(&t).instantiate(&t, &GlobalVariation::nominal(), 10);
        let out = chain.propagate(chain.nominal_input_pulse());
        assert!(out.is_valid(), "straightforward nominal failed: {out}");
    }

    #[test]
    fn pulse_width_converges_to_a_fixed_point_nominally() {
        let t = tech();
        let chain = SrlrDesign::paper_proposed(&t).instantiate(&t, &GlobalVariation::nominal(), 40);
        let trace = chain.propagate_trace(chain.nominal_input_pulse());
        assert!(trace.iter().all(PulseState::is_valid));
        // Compare stages of equal parity deep in the chain: the map must
        // have settled (alternating designs settle to a 2-cycle).
        let w = |i: usize| trace[i].width.picoseconds();
        assert!((w(38) - w(36)).abs() < 1.0, "even parity not settled");
        assert!((w(39) - w(37)).abs() < 1.0, "odd parity not settled");
    }

    #[test]
    fn latency_accumulates_along_the_chain() {
        let t = tech();
        let chain = SrlrDesign::paper_proposed(&t).instantiate(&t, &GlobalVariation::nominal(), 10);
        let trace = chain.propagate_trace(chain.nominal_input_pulse());
        let mut last = TimeInterval::zero();
        for p in trace.iter().skip(1) {
            assert!(p.arrival > last);
            last = p.arrival;
        }
        // 10 mm in ~10 stage delays: tens to hundreds of ps.
        assert!(last.picoseconds() > 100.0 && last.nanoseconds() < 5.0);
    }

    #[test]
    fn adaptive_design_survives_slow_corner_where_fixed_dies() {
        let t = tech();
        let ss = ProcessCorner::SlowSlow.variation(&t);
        let proposed = SrlrDesign::paper_proposed(&t).instantiate(&t, &ss, 10);
        let out = proposed.propagate(proposed.nominal_input_pulse());
        assert!(out.is_valid(), "proposed design died at SS: {out}");

        let fixed = SrlrDesign::paper_proposed(&t)
            .with_adaptive_swing(false)
            .instantiate(&t, &ss, 10);
        let out_fixed = fixed.propagate(fixed.nominal_input_pulse());
        assert!(
            !out_fixed.is_valid(),
            "fixed-bias design should lose drive at the slow corner"
        );
    }

    #[test]
    fn commanded_drive_tracks_threshold_when_adaptive() {
        let t = tech();
        let d = SrlrDesign::paper_proposed(&t);
        let slow = GlobalVariation {
            dvth_n: Voltage::from_millivolts(60.0),
            ..GlobalVariation::nominal()
        };
        assert!(d.commanded_drive(&t, &slow) > d.nominal_swing);
        let fixed = d.with_adaptive_swing(false);
        assert!(fixed.commanded_drive(&t, &slow) < fixed.nominal_swing);
    }

    #[test]
    fn chain_geometry() {
        let t = tech();
        let chain = SrlrDesign::paper_proposed(&t).instantiate(&t, &GlobalVariation::nominal(), 10);
        assert_eq!(chain.len(), 10);
        assert!(!chain.is_empty());
        assert!((chain.total_length().millimeters() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn energy_scales_with_stage_count() {
        let t = tech();
        let design = SrlrDesign::paper_proposed(&t);
        let five = design.instantiate(&t, &GlobalVariation::nominal(), 5);
        let ten = design.instantiate(&t, &GlobalVariation::nominal(), 10);
        let (_, e5) = five.propagate_with_energy(five.nominal_input_pulse());
        let (_, e10) = ten.propagate_with_energy(ten.nominal_input_pulse());
        assert!(e10 > e5 * 1.8, "e5={e5} e10={e10}");
    }

    #[test]
    fn disabled_stage_kills_propagation() {
        let t = tech();
        let mut chain =
            SrlrDesign::paper_proposed(&t).instantiate(&t, &GlobalVariation::nominal(), 10);
        chain.stages_mut()[4].enabled = false;
        let out = chain.propagate(chain.nominal_input_pulse());
        assert!(!out.is_valid());
    }

    #[test]
    fn mismatch_instantiation_differs_per_stage() {
        let t = tech();
        let mut mc = MonteCarlo::new(&t, 3);
        let chain = SrlrDesign::paper_proposed(&t).instantiate_with_mismatch(
            &t,
            &GlobalVariation::nominal(),
            10,
            &mut mc,
        );
        let thresholds: Vec<f64> = chain
            .stages()
            .iter()
            .map(|s| s.sense_threshold.volts())
            .collect();
        let first = thresholds[0];
        assert!(
            thresholds.iter().any(|&v| (v - first).abs() > 1e-6),
            "local mismatch should scatter stage thresholds"
        );
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stage_chain_rejected() {
        let t = tech();
        let _ = SrlrDesign::paper_proposed(&t).instantiate(&t, &GlobalVariation::nominal(), 0);
    }
}
