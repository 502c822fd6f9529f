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
//! inner loop streams contiguous slices and hoists every die-constant
//! subexpression (idle-slot decay, launch swing) out of the slot loop.
//!
//! # Pass structure
//!
//! Each lane's work in one stage is a dependent chain of libm calls:
//! the residue decay `exp`, M1's `exp` → `ln_1p` → `powf` (and the
//! subthreshold `exp`), then the delivered-swing `exp`. Finishing one
//! lane's chain before starting the next leaves the core waiting on each
//! call's latency. So a stage runs as a series of passes over the live
//! lanes, one libm function per pass, and the calls of independent lanes
//! overlap:
//!
//! 1. segment peaks, each pulse lane's decay exponent, the idle lanes'
//!    residues, and the list of lanes whose stage sees an input;
//! 2. the decay `exp` and the pulse lanes' residues;
//! 3. M1's current, as separate `exp`, `ln_1p`, `powf` and subthreshold
//!    `exp` passes over the detecting lanes;
//! 4. the current race: discharge time, output width and the two
//!    dead-checks, which list the lanes that fire;
//! 5. the delivered swing (or, jittered, only its sign);
//! 6. jittered only: the jitter of each valid output, then its swing.
//!
//! Lane lists and per-lane scratch are sized in [`DieBatch::new`] and
//! written by position, so a slot allocates nothing.
//!
//! # Bit-identity contract
//!
//! A lane advanced by [`DieBatch::advance_slot`] produces **bit-identical**
//! decisions to the scalar link stepping the same die, at any batch width
//! and any thread count. This holds because:
//!
//! * every hot expression is evaluated by the private `kernel` functions
//!   the scalar path is composed of, on the same operands and in the same
//!   order *within each lane*; the passes only interleave lanes, whose
//!   computations share no state;
//! * hoisted constants (`exp(−t_bit/τ_discharge)`, the launch pulse's
//!   delivered swing) are whole-expression results of die-constant
//!   inputs, so hoisting cannot change their value;
//! * the per-lane alive mask only *skips* lanes whose outcome is already
//!   decided — it never alters a computation that still runs.
//!
//! In [`DieBatch::advance_slot_jittered`], the order of the jitter calls
//! is part of the contract: the modulator launches first, in increasing
//! lane order, then each stage's valid outputs, stage by stage and in
//! increasing lane order within a stage — the order of a lane-by-lane
//! walk. A closure that shares one noise stream across lanes therefore
//! sees the same call sequence as before the passes were split.
//!
//! The jittered path needs a stage output's delivered swing only for its
//! sign (the swing that travels on is that of the *jittered* width), so
//! it decides validity with `kernel::output_pulse_valid`, which skips
//! the exponential when a positive swing is certain and evaluates it
//! exactly otherwise.
//!
//! The batch does not account energy or ISI residue; the scalar
//! `SrlrLink::transmit` of `srlr-link` reports both.
//!
//! The contract is enforced by `srlr-link`'s batched-versus-serial
//! identity tests (per slot, results and telemetry bytes).
//!
//! [`SrlrStage::process`]: crate::stage::SrlrStage::process

use crate::design::SrlrChain;
use crate::kernel;
use srlr_units::TimeInterval;

/// A population of independent dice advanced in lockstep through the
/// pulse-domain stage map, one bit slot at a time.
///
/// Parameter arrays are stage-major (`[stage][lane]` flattened); per-lane
/// state mirrors the scalar link's `SlotState` (`baseline` per segment)
/// plus the in-flight pulse (`width`, its delivered swing, and a live
/// flag) and the alive mask that replaces the scalar early exit.
#[derive(Debug, Clone)]
pub struct DieBatch {
    stages: usize,
    lanes: usize,

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

    // Per-lane link constants.
    t_bit: Vec<f64>,
    demod_min: Vec<f64>,
    launch_width: Vec<f64>,
    launch_delivered: Vec<f64>,

    // Per-lane mutable state.
    baseline: Vec<f64>,
    width: Vec<f64>,
    dsw: Vec<f64>,
    has_pulse: Vec<bool>,
    alive: Vec<bool>,

    // Per-stage scratch: lane lists (the first `n` entries are live) and
    // per-lane intermediates, indexed by lane.
    pulsing: Vec<usize>,
    detecting: Vec<usize>,
    firing: Vec<usize>,
    peak: Vec<f64>,
    in_width: Vec<f64>,
    /// The decay exponent in passes 1–2, then M1's `x`.
    x: Vec<f64>,
    /// `eˣ`, then the blended overdrive.
    eff: Vec<f64>,
    i_m1: Vec<f64>,
    w_out: Vec<f64>,
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
            t_bit: vec![0.0; lanes],
            demod_min: vec![0.0; lanes],
            launch_width: vec![0.0; lanes],
            launch_delivered: vec![0.0; lanes],
            baseline: vec![0.0; per_stage],
            width: vec![0.0; lanes],
            dsw: vec![0.0; lanes],
            has_pulse: vec![false; lanes],
            alive: vec![true; lanes],
            pulsing: vec![0; lanes],
            detecting: vec![0; lanes],
            firing: vec![0; lanes],
            peak: vec![0.0; lanes],
            in_width: vec![0.0; lanes],
            x: vec![0.0; lanes],
            eff: vec![0.0; lanes],
            i_m1: vec![0.0; lanes],
            w_out: vec![0.0; lanes],
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
        }
        self.t_bit[lane] = t_bit.seconds();
        self.demod_min[lane] = demod_min.seconds();
        self.launch_width[lane] = chain.launch_width().seconds();
        self.launch_delivered[lane] = stages[0].delivered_swing(chain.launch_width()).volts();
    }

    /// Resets the transmission state of every lane (fresh ISI baselines,
    /// no pulse in flight), like starting a new scalar transmit. The
    /// alive mask is left untouched.
    pub fn reset_state(&mut self) {
        self.baseline.fill(0.0);
        self.width.fill(0.0);
        self.dsw.fill(0.0);
        self.has_pulse.fill(false);
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
    /// first, then each stage's output). Across lanes, calls come in
    /// lane-walk order: every launch in increasing lane order, then stage
    /// by stage, each stage's outputs in increasing lane order.
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
        // stage 0, so its un-jittered delivered swing is hoisted).
        // Jittered, `firing` lists the launched lanes for the swing pass.
        let mut launched = 0;
        for (lane, &bit) in bits.iter().enumerate() {
            if !self.alive[lane] {
                continue;
            }
            self.has_pulse[lane] = bit;
            if bit {
                if JITTER {
                    let w = TimeInterval::from_seconds(self.launch_width[lane]);
                    self.width[lane] = jitter(lane, w).seconds();
                    self.firing[launched] = lane;
                    launched += 1;
                } else {
                    self.width[lane] = self.launch_width[lane];
                    self.dsw[lane] = self.launch_delivered[lane];
                }
            }
        }
        for &lane in &self.firing[..launched] {
            self.dsw[lane] = kernel::delivered_swing_volts(
                self.drive[lane],
                self.charge_tau[lane],
                self.width[lane],
            );
        }

        // `li` indexes the launcher that owns the segment feeding stage
        // `s` (the previous stage; the PM mirrors stage 0 for segment 0).
        let mut li = 0usize;
        for s in 0..self.stages {
            let base = s * l;
            let lbase = li * l;

            // Pass 1: the peak on segment `s` this slot — the scalar
            // `step_slot` arithmetic verbatim — with each pulse lane's
            // decay exponent and each idle lane's end-of-slot residue.
            let (mut pulsing, mut detecting) = (0, 0);
            for lane in 0..l {
                if !self.alive[lane] {
                    continue;
                }
                let k = base + lane;
                let lk = lbase + lane;
                let b = self.baseline[k];
                let (peak, in_w, have_input) = if self.has_pulse[lane] {
                    let w = self.width[lane];
                    let headroom = (1.0 - b / self.drive[lk].max(1e-9)).clamp(0.0, 1.0);
                    let gap = (self.t_bit[lane] - w).max(0.0);
                    self.x[lane] = -gap / self.discharge_tau[lk];
                    self.pulsing[pulsing] = lane;
                    pulsing += 1;
                    (b + self.dsw[lane] * headroom, w, true)
                } else {
                    self.baseline[k] = b * self.idle_decay[lk];
                    // A baseline alone above threshold self-fires the
                    // repeater, seen as a bit-slot-wide input.
                    (b, self.t_bit[lane], b >= self.sense[k])
                };
                self.peak[lane] = peak;
                self.in_width[lane] = in_w;
                self.has_pulse[lane] = false;
                if have_input && self.live[k] && in_w > 0.0 && peak > 0.0 {
                    self.detecting[detecting] = lane;
                    detecting += 1;
                }
            }

            // Pass 2: the pulse lanes' end-of-slot residues.
            for &lane in &self.pulsing[..pulsing] {
                self.baseline[base + lane] = self.peak[lane] * self.x[lane].exp();
            }

            // Pass 3: M1's current (`kernel::m1_current_amperes`), one
            // libm function per pass.
            let detecting = &self.detecting[..detecting];
            for &lane in detecting {
                let k = base + lane;
                let (overdrive, x) =
                    kernel::m1_overdrive(self.vth[k], self.smooth[k], self.peak[lane]);
                self.x[lane] = x;
                self.eff[lane] = if kernel::m1_saturated(x) {
                    overdrive
                } else {
                    x.exp()
                };
            }
            for &lane in detecting {
                if !kernel::m1_saturated(self.x[lane]) {
                    self.eff[lane] = kernel::m1_softplus(self.smooth[base + lane], self.eff[lane]);
                }
            }
            for &lane in detecting {
                let k = base + lane;
                self.i_m1[lane] =
                    kernel::m1_alpha_power(self.drive_scale[k], self.alpha[k], self.eff[lane]);
            }
            for &lane in detecting {
                if let Some(arg) = kernel::m1_subthreshold_exponent(self.x[lane]) {
                    self.i_m1[lane] *= arg.exp();
                }
            }

            // Pass 4: the current race of `SrlrStage::process`. The scalar
            // dead-checks are `t_d > w` and `w_out < minw`; negate them
            // literally so even the NaN edge keeps the same branch.
            let mut firing = 0;
            for &lane in detecting {
                let k = base + lane;
                let t_d =
                    kernel::x_discharge_seconds(self.i_m1[lane], self.keeper[k], self.cx_depth[k]);
                #[expect(
                    clippy::neg_cmp_op_on_partial_ord,
                    reason = "literal negation of the scalar dead-check"
                )]
                if !(t_d > self.in_width[lane]) {
                    let w_out = self.delay[k] - ((self.trise0[k] + t_d) - self.tfall[k]);
                    #[expect(
                        clippy::neg_cmp_op_on_partial_ord,
                        reason = "literal negation of the scalar dead-check"
                    )]
                    if !(w_out < self.minw[k]) {
                        self.w_out[lane] = w_out;
                        self.firing[firing] = lane;
                        firing += 1;
                    }
                }
            }

            // Pass 5: the delivered swing of each fired output, which
            // makes it valid when positive. Jittered, the swing that
            // travels on is the jittered width's, so only its sign is
            // needed here; the valid lanes stay listed in `firing`.
            let mut valid = 0;
            for i in 0..firing {
                let lane = self.firing[i];
                let k = base + lane;
                let w_out = self.w_out[lane];
                if JITTER {
                    if kernel::output_pulse_valid(self.drive[k], self.charge_tau[k], w_out) {
                        self.firing[valid] = lane;
                        valid += 1;
                    }
                } else {
                    let swing =
                        kernel::delivered_swing_volts(self.drive[k], self.charge_tau[k], w_out);
                    if w_out > 0.0 && swing > 0.0 {
                        self.width[lane] = w_out;
                        self.dsw[lane] = swing;
                        self.has_pulse[lane] = true;
                    }
                }
            }

            // Pass 6 (jittered): each valid output's jitter, in lane
            // order, then the jittered pulse's delivered swing.
            if JITTER {
                for &lane in &self.firing[..valid] {
                    let w = TimeInterval::from_seconds(self.w_out[lane]);
                    self.width[lane] = jitter(lane, w).seconds();
                }
                for &lane in &self.firing[..valid] {
                    let k = base + lane;
                    self.dsw[lane] = kernel::delivered_swing_volts(
                        self.drive[k],
                        self.charge_tau[k],
                        self.width[lane],
                    );
                    self.has_pulse[lane] = true;
                }
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
    }

    #[test]
    fn reset_state_matches_a_fresh_batch() {
        // After a run that leaves ISI residue on every segment, a reset
        // batch decides a pattern exactly as a freshly loaded one does.
        let (t_bit, demod) = paper_timing();
        let c = chain(4);
        let load = || {
            let mut batch = DieBatch::new(4, 1);
            batch.load_lane(0, &c, t_bit, demod);
            batch
        };
        let pattern = [true, true, true, true, false, true, false, false, true];
        // Decisions and every segment's residue after each slot.
        let decide = |batch: &mut DieBatch| {
            pattern.map(|bit| {
                let mut rx = [!bit];
                batch.advance_slot(&[bit], &mut rx);
                (rx[0], batch.baseline.clone())
            })
        };
        let mut used = load();
        for _ in 0..8 {
            used.advance_slot(&[true], &mut [false]);
        }
        assert!(
            used.baseline.iter().any(|&b| b > 0.0),
            "the run left residue"
        );
        used.reset_state();
        assert_eq!(decide(&mut used), decide(&mut load()));
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
