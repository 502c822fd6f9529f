//! Structure-of-arrays batch evaluation of the pulse-domain stage map:
//! one pass advances N dice (lanes) per stage per bit slot.
//!
//! # Why batched
//!
//! Monte Carlo, shmoo, and bathtub experiments evaluate thousands of
//! independent links through the same recurrence. The scalar path
//! ([`SrlrStage::process`] driven slot-by-slot) walks one die at a time
//! through pointer-rich structs; [`DieBatch`] transposes the population
//! into flat per-parameter `f64` arrays (stage-major, lane-minor) so the
//! inner loop streams contiguous slices — friendly to the cache and to
//! auto-vectorization — and hoists every die-constant subexpression
//! (idle-slot decay, launch swing/energy) out of the slot loop.
//!
//! # Bit-identity contract
//!
//! A lane advanced by [`DieBatch::advance_slot`] produces **bit-identical**
//! decisions, energies, and ISI diagnostics to the scalar link stepping
//! the same die, at any batch width and any thread count. This holds
//! because:
//!
//! * every hot expression is evaluated by the same private `kernel`
//!   functions the scalar path delegates to, in the same order on the
//!   same operands;
//! * hoisted constants (`exp(−t_bit/τ_discharge)`, the launch pulse's
//!   delivered swing and energy) are whole-expression results of
//!   die-constant inputs, so hoisting cannot change their value;
//! * the per-lane alive mask only *skips* lanes whose outcome is already
//!   decided — it never alters a computation that still runs.
//!
//! The contract is enforced by `srlr-link`'s batched-versus-serial
//! identity tests (results and telemetry bytes).
//!
//! [`SrlrStage::process`]: crate::stage::SrlrStage::process

use crate::design::SrlrChain;
use crate::kernel;
use srlr_units::{Energy, TimeInterval, Voltage};

/// A population of independent dice advanced in lockstep through the
/// pulse-domain stage map, one bit slot at a time.
///
/// Parameter arrays are stage-major (`[stage][lane]` flattened); per-lane
/// state mirrors the scalar link's `SlotState` (`baseline` per segment,
/// running `energy` and `max_baseline`) plus the in-flight pulse
/// (`width`, its delivered swing, and a live flag) and the alive mask
/// that replaces the scalar early exit.
#[derive(Debug, Clone)]
pub struct DieBatch {
    stages: usize,
    lanes: usize,
    track_energy: bool,

    // Die-resolved stage parameters, stage-major (`stage * lanes + lane`).
    live: Vec<bool>,
    vth: Vec<f64>,
    smooth: Vec<f64>,
    drive_scale: Vec<f64>,
    alpha: Vec<f64>,
    keeper: Vec<f64>,
    cx_depth: Vec<f64>,
    trise0: Vec<f64>,
    tfall: Vec<f64>,
    delay: Vec<f64>,
    minw: Vec<f64>,
    drive: Vec<f64>,
    charge_tau: Vec<f64>,
    discharge_tau: Vec<f64>,
    idle_decay: Vec<f64>,
    sense: Vec<f64>,
    tau_near: Vec<f64>,
    wire_cap: Vec<f64>,
    vdd: Vec<f64>,
    internal_e: Vec<f64>,

    // Per-lane link constants.
    t_bit: Vec<f64>,
    demod_min: Vec<f64>,
    launch_width: Vec<f64>,
    launch_delivered: Vec<f64>,
    launch_energy: Vec<f64>,

    // Per-lane mutable state.
    baseline: Vec<f64>,
    energy: Vec<f64>,
    max_baseline: Vec<f64>,
    width: Vec<f64>,
    dsw: Vec<f64>,
    has_pulse: Vec<bool>,
    alive: Vec<bool>,
}

impl DieBatch {
    /// An empty batch of `lanes` dice, each an `stages`-stage link.
    /// Load dice with [`DieBatch::load_lane`] before advancing.
    ///
    /// # Panics
    ///
    /// Panics if `stages` or `lanes` is zero.
    pub fn new(stages: usize, lanes: usize) -> Self {
        assert!(stages > 0 && lanes > 0, "batch needs stages and lanes");
        let per_stage = stages * lanes;
        Self {
            stages,
            lanes,
            track_energy: false,
            live: vec![false; per_stage],
            vth: vec![0.0; per_stage],
            smooth: vec![0.0; per_stage],
            drive_scale: vec![0.0; per_stage],
            alpha: vec![0.0; per_stage],
            keeper: vec![0.0; per_stage],
            cx_depth: vec![0.0; per_stage],
            trise0: vec![0.0; per_stage],
            tfall: vec![0.0; per_stage],
            delay: vec![0.0; per_stage],
            minw: vec![0.0; per_stage],
            drive: vec![0.0; per_stage],
            charge_tau: vec![0.0; per_stage],
            discharge_tau: vec![0.0; per_stage],
            idle_decay: vec![0.0; per_stage],
            sense: vec![0.0; per_stage],
            tau_near: vec![0.0; per_stage],
            wire_cap: vec![0.0; per_stage],
            vdd: vec![0.0; per_stage],
            internal_e: vec![0.0; per_stage],
            t_bit: vec![0.0; lanes],
            demod_min: vec![0.0; lanes],
            launch_width: vec![0.0; lanes],
            launch_delivered: vec![0.0; lanes],
            launch_energy: vec![0.0; lanes],
            baseline: vec![0.0; per_stage],
            energy: vec![0.0; lanes],
            max_baseline: vec![0.0; lanes],
            width: vec![0.0; lanes],
            dsw: vec![0.0; lanes],
            has_pulse: vec![false; lanes],
            alive: vec![true; lanes],
        }
    }

    /// Number of stages per lane.
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Number of lanes (dice).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Enables per-lane energy and pulse accounting. Off by default:
    /// pass/fail evaluation skips the per-pulse energy exponentials
    /// entirely, which decisions never depend on.
    pub fn set_track_energy(&mut self, on: bool) {
        self.track_energy = on;
    }

    /// Loads die `lane` from an instantiated chain, hoisting every
    /// die-constant subexpression of the slot loop.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or the chain's stage count does
    /// not match the batch.
    pub fn load_lane(
        &mut self,
        lane: usize,
        chain: &SrlrChain,
        t_bit: TimeInterval,
        demod_min: TimeInterval,
    ) {
        assert!(lane < self.lanes, "lane {lane} out of range");
        let stages = chain.stages();
        assert_eq!(stages.len(), self.stages, "stage count mismatch");
        for (s, stage) in stages.iter().enumerate() {
            let k = s * self.lanes + lane;
            self.live[k] = stage.enabled && stage.statically_sound;
            self.vth[k] = stage.m1_vth.volts();
            self.smooth[k] = stage.m1_smooth;
            self.drive_scale[k] = stage.m1_drive_scale;
            self.alpha[k] = stage.m1_alpha;
            self.keeper[k] = stage.keeper_current.amperes();
            self.cx_depth[k] = stage.c_x.farads() * stage.x_discharge_depth.volts();
            self.trise0[k] = stage.t_rise0.seconds();
            self.tfall[k] = stage.t_fall.seconds();
            self.delay[k] = stage.delay.seconds();
            self.minw[k] = stage.min_output_width.seconds();
            self.drive[k] = stage.drive_level.volts();
            self.charge_tau[k] = stage.charge_tau().seconds().max(1e-15);
            self.discharge_tau[k] = stage.discharge_tau().seconds();
            self.idle_decay[k] = (-t_bit.seconds() / stage.discharge_tau().seconds()).exp();
            self.sense[k] = stage.sense_threshold.volts();
            let tau_near =
                (stage.charge_resistance + stage.wire_resistance * 0.15) * stage.wire_capacitance;
            self.tau_near[k] = tau_near.seconds().max(1e-15);
            self.wire_cap[k] = stage.wire_capacitance.farads();
            self.vdd[k] = stage.vdd.volts();
            self.internal_e[k] = stage.internal_energy_per_pulse.joules();
        }
        self.t_bit[lane] = t_bit.seconds();
        self.demod_min[lane] = demod_min.seconds();
        self.launch_width[lane] = chain.launch_width().seconds();
        self.launch_delivered[lane] = stages[0].delivered_swing(chain.launch_width()).volts();
        self.launch_energy[lane] = stages[0].pulse_energy(chain.launch_width()).joules();
    }

    /// Resets the transmission state of every lane (fresh ISI baselines,
    /// zero energy/diagnostics), like starting a new scalar transmit.
    /// The alive mask is left untouched.
    pub fn reset_state(&mut self) {
        self.baseline.fill(0.0);
        self.energy.fill(0.0);
        self.max_baseline.fill(0.0);
        self.width.fill(0.0);
        self.dsw.fill(0.0);
        self.has_pulse.fill(false);
    }

    /// Marks every lane alive again.
    pub fn revive_all(&mut self) {
        self.alive.fill(true);
    }

    /// Permanently retires `lane` from subsequent slots (its outcome is
    /// decided); the batched analogue of the scalar early exit.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn kill_lane(&mut self, lane: usize) {
        self.alive[lane] = false;
    }

    /// Whether `lane` is still being advanced.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn is_alive(&self, lane: usize) -> bool {
        self.alive[lane]
    }

    /// Whether any lane is still being advanced.
    pub fn any_alive(&self) -> bool {
        self.alive.iter().any(|&a| a)
    }

    /// Accumulated dynamic energy of `lane` since the last reset (zero
    /// unless energy tracking is enabled).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn energy(&self, lane: usize) -> Energy {
        Energy::from_joules(self.energy[lane])
    }

    /// Worst ISI residue observed on any segment of `lane` since the
    /// last reset.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn max_baseline(&self, lane: usize) -> Voltage {
        Voltage::from_volts(self.max_baseline[lane])
    }

    /// Advances every alive lane by one bit slot: `bits[lane]` is the
    /// transmitted bit, `received[lane]` gets the demodulator decision
    /// (untouched for dead lanes).
    ///
    /// # Panics
    ///
    /// Panics if the slices are not `lanes` long.
    pub fn advance_slot(&mut self, bits: &[bool], received: &mut [bool]) {
        self.advance_slot_impl::<false>(bits, received, &mut |_, w| w);
    }

    /// [`DieBatch::advance_slot`] with per-pulse width jitter: `jitter`
    /// is called as `(lane, width)` for every launched pulse, in the same
    /// per-lane order as the scalar jittered transmit (modulator launch
    /// first, then each stage's output).
    ///
    /// # Panics
    ///
    /// Panics if the slices are not `lanes` long.
    pub fn advance_slot_jittered(
        &mut self,
        bits: &[bool],
        received: &mut [bool],
        jitter: &mut dyn FnMut(usize, TimeInterval) -> TimeInterval,
    ) {
        self.advance_slot_impl::<true>(bits, received, jitter);
    }

    fn advance_slot_impl<const JITTER: bool>(
        &mut self,
        bits: &[bool],
        received: &mut [bool],
        jitter: &mut dyn FnMut(usize, TimeInterval) -> TimeInterval,
    ) {
        let l = self.lanes;
        assert_eq!(bits.len(), l, "one bit per lane");
        assert_eq!(received.len(), l, "one decision slot per lane");

        // Pulse-modulator launch into segment 0 (PM hardware mirrors
        // stage 0, so its delivered swing/energy are hoisted constants).
        for (lane, &bit) in bits.iter().enumerate() {
            if !self.alive[lane] {
                continue;
            }
            self.has_pulse[lane] = bit;
            if bit {
                if self.track_energy {
                    self.energy[lane] += self.launch_energy[lane];
                }
                if JITTER {
                    let w =
                        jitter(lane, TimeInterval::from_seconds(self.launch_width[lane])).seconds();
                    self.width[lane] = w;
                    self.dsw[lane] =
                        kernel::delivered_swing_volts(self.drive[lane], self.charge_tau[lane], w);
                } else {
                    self.width[lane] = self.launch_width[lane];
                    self.dsw[lane] = self.launch_delivered[lane];
                }
            }
        }

        // `li` indexes the launcher that owns the segment feeding stage
        // `s` (the previous stage; the PM mirrors stage 0 for segment 0).
        let mut li = 0usize;
        let n = self.stages;
        for s in 0..n {
            let base = s * l;
            let lbase = li * l;
            for lane in 0..l {
                if !self.alive[lane] {
                    continue;
                }
                let k = base + lane;
                let lk = lbase + lane;
                let b = self.baseline[k];

                // Peak this slot on segment `s`, and its end-of-slot
                // residue — the scalar `step_slot` arithmetic verbatim.
                let (peak, in_w, have_input) = if self.has_pulse[lane] {
                    let w = self.width[lane];
                    let headroom = (1.0 - b / self.drive[lk].max(1e-9)).clamp(0.0, 1.0);
                    let peak = b + self.dsw[lane] * headroom;
                    let gap = (self.t_bit[lane] - w).max(0.0);
                    let decay = (-gap / self.discharge_tau[lk]).exp();
                    let residue = peak * decay;
                    self.baseline[k] = residue;
                    self.max_baseline[lane] = self.max_baseline[lane].max(residue);
                    (peak, w, true)
                } else {
                    let residue = b * self.idle_decay[lk];
                    self.baseline[k] = residue;
                    self.max_baseline[lane] = self.max_baseline[lane].max(residue);
                    // A baseline alone above threshold self-fires the
                    // repeater, seen as a bit-slot-wide input.
                    (b, self.t_bit[lane], b >= self.sense[k])
                };

                // Stage `s` detection: the current race of
                // `SrlrStage::process` on the flat parameter arrays.
                let mut fired = false;
                let mut valid = false;
                if have_input && self.live[k] && in_w > 0.0 && peak > 0.0 {
                    let i_m1 = kernel::m1_current_amperes(
                        self.vth[k],
                        self.smooth[k],
                        self.drive_scale[k],
                        self.alpha[k],
                        peak,
                    );
                    let t_d = kernel::x_discharge_seconds(i_m1, self.keeper[k], self.cx_depth[k]);
                    // The scalar dead-checks are `t_d > w` and
                    // `w_out < minw`; negate them literally so even the
                    // NaN edge keeps the same branch.
                    #[expect(
                        clippy::neg_cmp_op_on_partial_ord,
                        reason = "literal negation of the scalar dead-check"
                    )]
                    if !(t_d > in_w) {
                        let w_out = self.delay[k] - ((self.trise0[k] + t_d) - self.tfall[k]);
                        #[expect(
                            clippy::neg_cmp_op_on_partial_ord,
                            reason = "literal negation of the scalar dead-check"
                        )]
                        if !(w_out < self.minw[k]) {
                            fired = true;
                            let swing_next = kernel::delivered_swing_volts(
                                self.drive[k],
                                self.charge_tau[k],
                                w_out,
                            );
                            valid = w_out > 0.0 && swing_next > 0.0;
                            if valid {
                                if JITTER {
                                    let wj =
                                        jitter(lane, TimeInterval::from_seconds(w_out)).seconds();
                                    self.width[lane] = wj;
                                    self.dsw[lane] = kernel::delivered_swing_volts(
                                        self.drive[k],
                                        self.charge_tau[k],
                                        wj,
                                    );
                                } else {
                                    self.width[lane] = w_out;
                                    self.dsw[lane] = swing_next;
                                }
                            }
                            if self.track_energy {
                                if s + 1 < n {
                                    // Full pulse energy: wire charge plus
                                    // the stage's internal switching.
                                    self.energy[lane] += kernel::wire_energy_joules(
                                        self.drive[k],
                                        self.tau_near[k],
                                        self.wire_cap[k],
                                        self.vdd[k],
                                        w_out,
                                    ) + self.internal_e[k];
                                } else if valid {
                                    // The last stage drives the DM
                                    // directly: internal nodes only.
                                    self.energy[lane] += self.internal_e[k];
                                }
                            }
                        }
                    }
                }
                self.has_pulse[lane] = fired && valid;
            }
            li = s;
        }

        // DM decision on the last stage's (full-swing) output pulse.
        for (lane, decision) in received.iter_mut().enumerate() {
            if self.alive[lane] {
                *decision = self.has_pulse[lane] && self.width[lane] >= self.demod_min[lane];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::SrlrDesign;
    use srlr_tech::{GlobalVariation, Technology};

    fn chain(stages: usize) -> SrlrChain {
        let tech = Technology::soi45();
        SrlrDesign::paper_proposed(&tech).instantiate(&tech, &GlobalVariation::nominal(), stages)
    }

    fn paper_timing() -> (TimeInterval, TimeInterval) {
        (
            TimeInterval::from_seconds(1.0 / 4.1e9),
            TimeInterval::from_picoseconds(20.0),
        )
    }

    #[test]
    fn nominal_die_reproduces_a_stress_pattern() {
        let (t_bit, demod) = paper_timing();
        let c = chain(10);
        let mut batch = DieBatch::new(10, 3);
        for lane in 0..3 {
            batch.load_lane(lane, &c, t_bit, demod);
        }
        let pattern = [true, true, true, true, false, true, true, true, true, false];
        let mut rx = [false; 3];
        for &bit in &pattern {
            batch.advance_slot(&[bit; 3], &mut rx);
            assert_eq!(rx, [bit; 3], "nominal die must reproduce the pattern");
        }
    }

    #[test]
    fn dead_lanes_are_skipped_and_keep_their_decision_slot() {
        let (t_bit, demod) = paper_timing();
        let c = chain(4);
        let mut batch = DieBatch::new(4, 2);
        batch.load_lane(0, &c, t_bit, demod);
        batch.load_lane(1, &c, t_bit, demod);
        batch.kill_lane(1);
        assert!(batch.is_alive(0) && !batch.is_alive(1));
        let mut rx = [false, true];
        batch.advance_slot(&[true, true], &mut rx);
        assert!(rx[0], "alive lane advances");
        assert!(rx[1], "dead lane's slot is untouched");
        assert!(batch.any_alive());
        batch.kill_lane(0);
        assert!(!batch.any_alive());
        batch.revive_all();
        assert!(batch.is_alive(1));
    }

    #[test]
    fn reset_state_clears_isi_and_energy() {
        let (t_bit, demod) = paper_timing();
        let c = chain(4);
        let mut batch = DieBatch::new(4, 1);
        batch.load_lane(0, &c, t_bit, demod);
        batch.set_track_energy(true);
        let mut rx = [false];
        for _ in 0..8 {
            batch.advance_slot(&[true], &mut rx);
        }
        assert!(batch.energy(0).femtojoules() > 0.0);
        assert!(batch.max_baseline(0).volts() > 0.0);
        batch.reset_state();
        assert_eq!(batch.energy(0), Energy::zero());
        assert_eq!(batch.max_baseline(0), Voltage::zero());
    }

    #[test]
    fn energy_tracking_is_off_by_default() {
        let (t_bit, demod) = paper_timing();
        let c = chain(4);
        let mut batch = DieBatch::new(4, 1);
        batch.load_lane(0, &c, t_bit, demod);
        let mut rx = [false];
        for _ in 0..4 {
            batch.advance_slot(&[true], &mut rx);
        }
        assert_eq!(batch.energy(0), Energy::zero());
    }

    #[test]
    #[should_panic(expected = "stages and lanes")]
    fn zero_lanes_rejected() {
        let _ = DieBatch::new(4, 0);
    }

    #[test]
    #[should_panic(expected = "stage count mismatch")]
    fn stage_count_mismatch_rejected() {
        let (t_bit, demod) = paper_timing();
        let mut batch = DieBatch::new(10, 1);
        batch.load_lane(0, &chain(4), t_bit, demod);
    }
}
