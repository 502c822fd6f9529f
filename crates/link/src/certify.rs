//! Conservative clean-link certificate: a per-die static analysis that
//! proves (with margin) that a link transmits **every** bit pattern
//! cleanly, so the batched Monte Carlo engine can skip exact simulation
//! for the overwhelmingly common robust dice. The same walk exactly
//! refutes the dice that lose a solitary `1` (see "Refutation"), so
//! simulation is left only for the dice neither answer decides.
//!
//! # The two monotone bounds
//!
//! The pulse-domain stage map is monotone in the quantities that matter:
//!
//! * The peak seen by stage `i` is `b + d·(1 − b/V)` with `d ≤ V`, which
//!   is non-decreasing in both the ISI baseline `b` and the launcher's
//!   delivered swing `d`; M1's current grows with the peak, so the X
//!   discharge time shrinks and the output width grows. Hence the
//!   **zero-baseline chain is the exact worst case for `1`-bit
//!   propagation**: if a solitary `1` on fully drained segments makes it
//!   to the demodulator with margin, every `1` in every pattern does
//!   (the 1-bit half, [`one_bit_clean`]).
//! * Residues only threaten `0`-bits by firing a repeater spuriously.
//!   A pulse that delivers `d` onto a segment holding residue `b` peaks
//!   at `b + d·(1 − b/V)` = `b·(1 − d/V) + d` (`V` the launcher's drive
//!   level), whose slopes `1 − d/V` in `b` and `1 − b/V` in `d` are
//!   non-negative while `b, d ≤ V`: the peak never falls as either
//!   grows. With every slot carrying the widest possible pulse (`d ≤ D`,
//!   `D` clamped to `V`), the residue after a slot therefore obeys the
//!   **headroom recurrence** `b' ≤ (b·(1 − D/V) + D)·decay`, and an idle
//!   slot only decays it further. The recurrence is increasing in `b`,
//!   so from a drained segment it never passes its fixed point
//!   `b* = D·decay / (1 − decay·(1 − D/V))` when `decay < 1`, and the
//!   peak never passes `b*·(1 − D/V) + D`. Rounds of interval iteration
//!   tighten the width/peak bounds; as soon as one round's `b*` stays
//!   below every sense threshold, **no pattern can fire a stage
//!   spuriously** (the 0-bit half).
//!
//! Every comparison carries a relative guard band (`REL` = 1e-9, many
//! orders above f64 rounding) on the *conservative* side, so a certified
//! die is clean for the exact evaluator, not merely for real arithmetic.
//! Failing to certify proves nothing on its own. The screen then tries
//! the exact refutation below, and only a die it cannot refute falls
//! back to exact (batched) simulation. That is what keeps the batched
//! engine bit-identical to the scalar path: the screen only selects
//! *which* evaluator decides, never what it computes.
//!
//! # Round 0: the device-free residue bound
//!
//! The widest pulse stage `i` can launch is
//! `delay − (t_rise0 + t_d − t_fall)`, where `t_d` is its fastest X
//! discharge. Interval round 1 finds `t_d` by evaluating M1 at the peak
//! bound `V`. Before it, round 0 uses only `t_d ≥ 0`, which holds for
//! every elaborated stage: `t_d = C_x·depth / max(I_M1 − I_keeper, 1 pA)`
//! and elaboration floors the depth at 20 mV. So each launcher's widest
//! pulse is `delay − t_rise0 + t_fall` (the launch width on segment 0),
//! and round 0 evaluates no device. It runs the same `decay`, `slope` and
//! `b*` formulas with the same guard bands. Round 1's widths are no wider
//! than round 0's, and `b*` grows with the width (a narrower drain gap
//! raises `decay`, a wider pulse raises `D`), so round 1's bounds are at
//! least as tight. Round 0 therefore proves only dice that rounds 1–4
//! prove, and no verdict moves; it just settles nearly every die without
//! touching M1's current law.
//!
//! Each segment's bound reads five operands: the bit period, the launched
//! width, and the launcher's `discharge_tau`, `drive_level` and
//! `charge_tau`. Elaboration gives every stage of a die the same
//! die-level fields and only two delay-cell widths, so a chain's ten
//! segments have only two or three distinct operand sets. Round 0 keeps
//! a small fixed-size memo on the stack, keyed by the bits of every
//! operand, and evaluates each distinct bound once. A hit returns the
//! same expression on the same operands, so the memo assumes nothing
//! about which stages share fields (a chain edited through
//! `stages_mut()` just misses). The `decay` factor reads only the bit
//! period, the launched width and `discharge_tau`, none of which the
//! swing moves, so [`sweep_screen`] keeps the decay entries for all of a
//! die's points and evaluates each once per die. The interval rounds
//! evaluate every bound afresh.
//!
//! # The swing-dominance lemma
//!
//! A swing sweep elaborates each die once and moves it to every other
//! swing with [`srlr_core::SwingPoint::retarget`], which changes only
//! each stage's `drive_level`, `charge_resistance` and internal energy
//! per pulse. Say sweep point `p` **dominates** `q` on a die when every
//! stage has `drive_level_p ≥ drive_level_q` and
//! `charge_tau_p ≤ charge_tau_q`.
//!
//! **Lemma.** If `q` passes the 1-bit half, so does every `p` that
//! dominates it. Walk the zero-baseline chain from the same launch
//! width. The delivered swing `V·(1 − e^(−w/τ))` does not fall as `V`
//! or `w` grows or `τ` shrinks; M1's current does not fall as that swing
//! grows; `t_d` does not grow as the current grows; and
//! `w_out = delay − (t_rise0 + t_d − t_fall)` does not fall as `t_d`
//! shrinks. By induction every stage sees a pulse at least as wide and
//! as tall at `p` as at `q`, so each check of the half passes at `p`
//! if it passes at `q` (`enabled`, static soundness and the width
//! floors do not depend on the swing). The one exception
//! is the softplus branch switch at `x = 30` in M1's current law, which
//! steps down by ~1e-14 relative. That is far inside `REL`, so a point
//! the lemma calls clean still clears every check of the exact evaluator
//! with margin.
//!
//! [`sweep_screen`] uses the lemma to screen a die's whole sweep: it
//! orders the points by dominance, walks the 1-bit half up that order
//! to the first point it proves, and runs the cheap 0-bit half directly
//! at that point and every point above it. The 0-bit half needs no
//! lemma of its own.
//!
//! # Refutation
//!
//! The screen is three-way: [`Screen::Clean`], [`Screen::Refuted`] or
//! [`Screen::Undecided`]. The zero-baseline chain the 1-bit half walks
//! is also exactly what a fresh link does with a solitary `1`: with
//! every baseline at zero the headroom is one, so each stage's peak is
//! the swing its launcher delivers. [`solitary_one`] therefore walks it
//! once and answers twice. Next to the guarded proof it applies the
//! lockstep kernel's own comparisons with no guard band (`t_d > w`,
//! `w_out < minw`, `w_out > 0 && swing_next > 0`, then
//! `width >= demod_min`) on the same operands. That is the exact verdict
//! of [`SrlrLink::transmits_cleanly`]`(&[true])` and of slot 0 of
//! [`srlr_core::DieBatch::advance_slot`] on a reset batch. A link that
//! loses the `1` fails every stress set whose first pattern starts with
//! one, which the Monte Carlo and shmoo stress sets both do. So a
//! refuted point is a failing verdict without simulation; only
//! undecided points are simulated.
//!
//! The exact verdict is not monotone in the swing (the softplus branch
//! switch), so no lemma carries it between points: every point below
//! the 1-bit boundary needs a walk of its own. That is why the sweep
//! scans upward instead of bisecting. The scan's walks below the
//! boundary are exactly the walks the exact verdicts need, and it
//! proves the boundary with one more. A bisection would add up to
//! `⌈log2(points + 1)⌉ − 1` full walks of proven points above the
//! boundary and still walk every point below it. Points at or above
//! the boundary are proven, and so deliver.

use crate::link::SrlrLink;
use srlr_core::SrlrStage;
use srlr_units::{TimeInterval, Voltage};

/// Relative guard band applied on the conservative side of every
/// certificate comparison. f64 evaluation of the stage map differs from
/// real arithmetic by ~1e-13 relative at worst; 1e-9 swamps that while
/// costing a negligible sliver of certifiable dice.
const REL: f64 = 1e-9;

/// Most interval-iteration rounds tightening the (width, residue)
/// bounds after round 0. Round 1 starts from `peak ≤ V_drive` (always
/// true) and each round is a sound refinement of the last, so every
/// round's `b*` is on its own an upper bound of the reachable residues.
/// The certificate accepts at the first round whose `b*` clears every
/// sense threshold. The peak bound only falls from round to round, which
/// narrows the widest pulse, widens the drain gap and lowers `b*`, so a
/// die proven at round `r` is also proven at every later round. Four
/// rounds certify essentially every die that the exact evaluator passes
/// at the paper's operating points.
const ROUNDS: usize = 4;

/// `true` when this die provably transmits every bit pattern cleanly at
/// the link's configured rate (see the module docs for the argument).
/// `false` means "unproven", not "failing".
pub(crate) fn robustly_clean(link: &SrlrLink) -> bool {
    one_bit_clean(link) && zero_bit_clean(link, &mut RoundZero::default())
}

/// The 1-bit half of the certificate: a solitary `1` on fully drained
/// segments (the worst case for `1`-bits) reaches the demodulator with
/// margin. Upward-closed in swing dominance (the module docs' lemma).
/// The `proven` half of [`solitary_one`].
pub fn one_bit_clean(link: &SrlrLink) -> bool {
    solitary_one(link).proven
}

/// Both answers of one walk of the zero-baseline chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolitaryOne {
    /// The 1-bit half of the certificate holds: the pulse clears every
    /// check with the `REL` guard band ([`one_bit_clean`]).
    pub proven: bool,
    /// The exact verdict: a solitary `1` sent on a fresh link is
    /// received, i.e. `transmits_cleanly(&[true])`.
    pub delivered: bool,
}

/// Walks a solitary `1` through the drained chain once and returns both
/// the guarded 1-bit proof and the exact verdict (module docs,
/// "Refutation").
///
/// The proof's comparisons carry `REL` on the conservative side. The
/// exact ones are the lockstep kernel's own (`t_d > w`, `w_out < minw`,
/// `w_out > 0 && swing_next > 0`, `width >= demod_min`) on the same
/// operands, so `delivered` is bit for bit the kernel's slot-0 decision.
/// Both halves see the same widths and peaks until one of them fails,
/// and the walk stops once both have.
#[expect(
    clippy::neg_cmp_op_on_partial_ord,
    reason = "each check is the literal negation of a rejecting comparison, so a NaN takes the same branch as in the guarded proof and the kernel"
)]
pub fn solitary_one(link: &SrlrLink) -> SolitaryOne {
    let stages = link.chain().stages();
    let demod_min = link.config().demod_min_width.seconds();
    let launch = link.chain().launch_width();
    let mut w = launch.seconds();
    // The swing the current pulse delivers onto its drained segment, and
    // so the peak the next stage sees: the launcher is stage 0 for
    // segment 0 and the previous stage after that.
    let mut peak = stages[0].delivered_swing(launch).volts();
    let (mut proven, mut delivered) = (true, true);
    for stage in stages {
        let live = stage.enabled && stage.statically_sound;
        proven &= live && !(w <= 0.0) && !(peak <= 0.0);
        delivered &= live && w > 0.0 && peak > 0.0;
        if !(proven || delivered) {
            break;
        }
        let t_d = stage.x_discharge_time(Voltage::from_volts(peak)).seconds();
        proven &= !(t_d * (1.0 + REL) > w);
        delivered &= !(t_d > w);
        if !(proven || delivered) {
            break;
        }
        let w_out =
            stage.delay.seconds() - (stage.t_rise0.seconds() + t_d - stage.t_fall.seconds());
        let min_w = stage.min_output_width.seconds();
        proven &= !(w_out < min_w * (1.0 + REL) + 1e-18);
        peak = stage
            .delivered_swing(TimeInterval::from_seconds(w_out))
            .volts();
        delivered &= !(w_out < min_w) && w_out > 0.0 && peak > 0.0;
        w = w_out;
    }
    SolitaryOne {
        proven: proven && w * (1.0 - REL) >= demod_min,
        delivered: delivered && w >= demod_min,
    }
}

/// The per-die screen's verdict on one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Screen {
    /// Proven to transmit every bit pattern cleanly
    /// ([`SrlrLink::robustly_clean`]).
    Clean,
    /// Loses a solitary `1` sent on a fresh link, so it fails any stress
    /// set whose first pattern starts with a `1`.
    Refuted,
    /// Neither proven nor refuted: only simulation decides.
    Undecided,
}

/// Screens one link: [`Screen::Clean`] exactly when
/// [`SrlrLink::robustly_clean`], otherwise [`Screen::Refuted`] exactly
/// when it loses a solitary `1`.
///
/// `Clean` takes precedence. Its proof's checks are the exact ones with
/// a margin, so a proven link also delivers the `1`.
pub fn screen(link: &SrlrLink) -> Screen {
    screen_with(link, &mut RoundZero::default())
}

/// [`screen`] with round 0's memo supplied by the caller.
fn screen_with(link: &SrlrLink, memo: &mut RoundZero) -> Screen {
    let one = solitary_one(link);
    if one.proven && zero_bit_clean(link, memo) {
        Screen::Clean
    } else {
        refuted_unless(one.delivered)
    }
}

/// [`Screen::Undecided`] for a link that delivers a solitary `1`,
/// [`Screen::Refuted`] for one that loses it.
fn refuted_unless(delivered: bool) -> Screen {
    if delivered {
        Screen::Undecided
    } else {
        Screen::Refuted
    }
}

/// The 0-bit half of the certificate: no reachable ISI residue reaches a
/// sense threshold. Round 0 first, then the interval rounds. `memo`
/// carries round 0's swing-invariant `decay` factors between the points
/// of one die's sweep.
fn zero_bit_clean(link: &SrlrLink, memo: &mut RoundZero) -> bool {
    memo.proves(link) || interval_rounds(link)
}

/// Round 0 of the residue bound (module docs, "Round 0"), with each of
/// its residue bounds evaluated once per distinct operand set.
///
/// Every entry is keyed by the bits of every operand its value reads,
/// so a hit returns the result of the same expression on the same
/// operands. The memo therefore assumes nothing about which stages share
/// fields, and an entry may be reused on any link. Both tables are fixed
/// size; once one is full, further operand sets are evaluated unmemoized.
#[derive(Default)]
struct RoundZero {
    /// [`decay_factor`] by (bit period, launched width, launcher
    /// `discharge_tau`). Swing-invariant, so a sweep keeps these for
    /// all of a die's points.
    decays: Memo<[u64; 3], Option<f64>, 4>,
    /// [`headroom_bound`] by (bit period, launched width, launcher
    /// `discharge_tau`, `drive_level`, `charge_tau`). These move with the
    /// swing, so each link starts them afresh.
    bounds: Memo<[u64; 5], Option<(f64, f64)>, 4>,
}

impl RoundZero {
    /// Round 0 on `link`: every launcher emits its widest pulse under
    /// `t_d ≥ 0` alone, so no device is evaluated.
    fn proves(&mut self, link: &SrlrLink) -> bool {
        self.bounds.clear();
        let stages = link.chain().stages();
        let t_bit = link.config().data_rate.bit_period().seconds();
        let mut launched = link.chain().launch_width().seconds();
        for (i, stage) in stages.iter().enumerate() {
            match self.residue_bound(launcher_of(stages, i), launched, t_bit) {
                Some((b_star, _)) if clears(b_star, stage) => {}
                _ => return false,
            }
            launched = widest_output(stage, 0.0);
        }
        true
    }

    /// [`residue_bound`], looked up before it is evaluated.
    fn residue_bound(
        &mut self,
        launcher: &SrlrStage,
        launched: f64,
        t_bit: f64,
    ) -> Option<(f64, f64)> {
        let discharge_tau = launcher.discharge_tau().seconds();
        let key = [
            t_bit,
            launched,
            discharge_tau,
            launcher.drive_level.volts(),
            launcher.charge_tau().seconds(),
        ]
        .map(f64::to_bits);
        let decays = &mut self.decays;
        self.bounds.get_or(key, || {
            decays
                .get_or([key[0], key[1], key[2]], || {
                    decay_factor(t_bit, launched, discharge_tau)
                })
                .map(|decay| headroom_bound(launcher, launched, decay))
        })
    }
}

/// A fixed-size table of up to `N` evaluated results, searched in
/// insertion order.
struct Memo<K, V, const N: usize> {
    entries: [(K, V); N],
    len: usize,
}

impl<K: Copy + Default, V: Copy + Default, const N: usize> Default for Memo<K, V, N> {
    fn default() -> Self {
        Self {
            entries: [(K::default(), V::default()); N],
            len: 0,
        }
    }
}

impl<const K: usize, V: Copy, const N: usize> Memo<[u64; K], V, N> {
    /// The value stored under `key`, or `eval()`, stored if there is room.
    fn get_or(&mut self, key: [u64; K], eval: impl FnOnce() -> V) -> V {
        // One branch per entry: `==` on arrays may compile to a `bcmp`
        // call, which costs more than the evaluation it saves.
        let same = |k: &[u64; K]| k.iter().zip(&key).fold(0, |acc, (a, b)| acc | (a ^ b)) == 0;
        if let Some(&(_, value)) = self.entries[..self.len].iter().find(|(k, _)| same(k)) {
            return value;
        }
        let value = eval();
        if let Some(slot) = self.entries.get_mut(self.len) {
            *slot = (key, value);
            self.len += 1;
        }
        value
    }

    /// Forgets every entry.
    fn clear(&mut self) {
        self.len = 0;
    }
}

/// Rounds `1..=ROUNDS` of the interval iteration, starting from
/// `peak ≤ V` on every segment.
///
/// Round `r`'s bound on segment `i` depends only on round `r − 1`'s
/// peak on segment `i − 1`, through the widest pulse stage `i − 1` can
/// launch. So all rounds walk the chain together, each carrying the
/// width its launcher emits, and no per-segment buffer is needed. The
/// verdict is the round-by-round one: the first round that has no
/// drain window on some segment rejects the die, and otherwise the
/// first round whose `b*` clears every sense threshold accepts it.
fn interval_rounds(link: &SrlrLink) -> bool {
    let stages = link.chain().stages();
    let t_bit = link.config().data_rate.bit_period().seconds();
    // `launched[r]`: the widest pulse launched onto the current segment
    // in round `r + 1`.
    let mut launched = [link.chain().launch_width().seconds(); ROUNDS];
    // `cleared[r]`: round `r + 1`'s `b*` has cleared every segment so far.
    let mut cleared = [true; ROUNDS];
    // Rounds from the first one without a drain window on are never
    // reached.
    let mut live = ROUNDS;
    for (i, stage) in stages.iter().enumerate() {
        let launcher = launcher_of(stages, i);
        // The previous round's peak bound on this segment; round 1
        // starts from the launcher's drive level.
        let mut peak = launcher.drive_level.volts();
        for r in 0..live {
            let bound = residue_bound(launcher, launched[r], t_bit);
            // Widest output of this stage given the previous round's
            // bound on its input (larger peak → faster X discharge →
            // wider output): what round `r + 1` launches next segment.
            let t_d_min = stage.x_discharge_time(Voltage::from_volts(peak)).seconds() * (1.0 - REL);
            launched[r] = widest_output(stage, t_d_min);
            let Some((b_star, next_peak)) = bound else {
                live = r;
                break;
            };
            cleared[r] &= clears(b_star, stage);
            peak = next_peak;
        }
        if !cleared[..live].contains(&true) {
            return false;
        }
    }
    true
}

/// The stage that drives segment `i`: stage `i − 1`, or for segment 0
/// the pulse modulator, which mirrors stage 0.
fn launcher_of(stages: &[SrlrStage], i: usize) -> &SrlrStage {
    &stages[i.saturating_sub(1)]
}

/// Widest output pulse `stage` can emit when its X discharge takes at
/// least `t_d_min`.
fn widest_output(stage: &SrlrStage, t_d_min: f64) -> f64 {
    let widest = stage.delay.seconds() - stage.t_rise0.seconds() + stage.t_fall.seconds();
    (widest - t_d_min).max(0.0)
}

/// Residue fixed point `b*` and peak bound on a segment that `launcher`
/// drives with pulses at most `launched` wide, one per bit slot of
/// `t_bit`; `None` when there is no drain window for the geometric
/// residue argument.
fn residue_bound(launcher: &SrlrStage, launched: f64, t_bit: f64) -> Option<(f64, f64)> {
    decay_factor(t_bit, launched, launcher.discharge_tau().seconds())
        .map(|decay| headroom_bound(launcher, launched, decay))
}

/// The guarded per-slot residue decay across the shortest drain gap
/// after a pulse at most `launched` wide, on a segment draining with time
/// constant `discharge_tau`; `None` when there is no drain window.
fn decay_factor(t_bit: f64, launched: f64, discharge_tau: f64) -> Option<f64> {
    let gap_min = t_bit - launched;
    if gap_min <= 0.0 {
        // Pulses can outlast the bit slot.
        return None;
    }
    let decay = (-gap_min / discharge_tau).exp() * (1.0 + REL);
    if decay >= 1.0 - 1e-6 {
        return None;
    }
    Some(decay)
}

/// `b*` and the peak bound for residues that fall by `decay` per slot,
/// with every slot carrying `launcher`'s pulse at most `launched` wide.
fn headroom_bound(launcher: &SrlrStage, launched: f64, decay: f64) -> (f64, f64) {
    // The simulator's headroom divides by the same floored level.
    let v = launcher.drive_level.volts().max(1e-9);
    let d_max = (launcher
        .delivered_swing(TimeInterval::from_seconds(launched))
        .volts()
        * (1.0 + REL))
        .min(v);
    // The headroom slope `1 − D/V`; `b*` grows with it, so round it up.
    let slope = (1.0 - d_max / v) * (1.0 + REL);
    let b_star = d_max * decay / (1.0 - decay * slope);
    (b_star, (b_star * slope + d_max).min(v))
}

/// Whether residue bound `b_star` clears `stage`'s sense threshold with
/// margin.
fn clears(b_star: f64, stage: &SrlrStage) -> bool {
    b_star * (1.0 + REL) < stage.sense_threshold.volts() * (1.0 - 1e-6)
}

/// Screens one die across a swing sweep: `screens[p]` becomes
/// [`screen`]`(&links[p])`.
///
/// `links` must be one die moved to every sweep point by
/// [`srlr_core::SwingPoint::retarget`], so that the points differ only
/// in the swing fields. When dominance (module docs) orders the points
/// totally, checked on the actual stage fields, the screen walks the
/// points from the weakest up and stops at the first one the 1-bit half
/// proves: one walk per point below that boundary, each giving that
/// point's exact verdict, plus one at the boundary. The 0-bit half then
/// runs at the boundary and every point above it. Otherwise every point
/// is screened on its own. `order` is scratch space, so a caller that
/// screens many dice allocates nothing per die.
///
/// # Panics
///
/// Panics if `order` or `screens` is shorter than `links`.
pub fn sweep_screen(links: &[SrlrLink], order: &mut [usize], screens: &mut [Screen]) {
    let screens = &mut screens[..links.len()];
    sweep_with(links, order, solitary_one, |p, verdict| {
        screens[p] = verdict
    });
}

/// The sweep screen with the ordered scan's walk supplied by the caller,
/// so tests can count its walks; `emit(p, verdict)` receives every
/// point's verdict once. One round-0 memo serves all the points, so
/// each swing-invariant `decay` is evaluated once per die.
fn sweep_with(
    links: &[SrlrLink],
    order: &mut [usize],
    mut walk: impl FnMut(&SrlrLink) -> SolitaryOne,
    mut emit: impl FnMut(usize, Screen),
) {
    let order = &mut order[..links.len()];
    let mut memo = RoundZero::default();
    for (k, slot) in order.iter_mut().enumerate() {
        *slot = k;
    }
    // Weakest first: by drive level, then by slower charging.
    order.sort_unstable_by(|&a, &b| {
        let (a, b) = (&links[a].chain().stages()[0], &links[b].chain().stages()[0]);
        let drive = a.drive_level.volts().total_cmp(&b.drive_level.volts());
        drive.then_with(|| {
            b.charge_tau()
                .seconds()
                .total_cmp(&a.charge_tau().seconds())
        })
    });
    if !order
        .windows(2)
        .all(|pair| dominates(&links[pair[1]], &links[pair[0]]))
    {
        for (p, link) in links.iter().enumerate() {
            emit(p, screen_with(link, &mut memo));
        }
        return;
    }
    // The 1-bit half is upward-closed along `order`, and every point
    // that fails it needs its own exact verdict: walk upward from the
    // weakest point until the proof holds. Every point above that one
    // is proven by the lemma, with no walk.
    let mut proven_from = order.len();
    for (k, &p) in order.iter().enumerate() {
        let one = walk(&links[p]);
        if one.proven {
            proven_from = k;
            break;
        }
        emit(p, refuted_unless(one.delivered));
    }
    for &p in &order[proven_from..] {
        // Proven, so the `1` is delivered.
        let verdict = if zero_bit_clean(&links[p], &mut memo) {
            Screen::Clean
        } else {
            Screen::Undecided
        };
        emit(p, verdict);
    }
}

/// Whether `p` dominates `q`: the same chain length, and at every stage
/// a drive level at least `q`'s and a charging time constant at most
/// `q`'s.
fn dominates(p: &SrlrLink, q: &SrlrLink) -> bool {
    let (p, q) = (p.chain().stages(), q.chain().stages());
    p.len() == q.len()
        && p.iter().zip(q).all(|(p, q)| {
            p.drive_level.volts() >= q.drive_level.volts()
                && p.charge_tau().seconds() <= q.charge_tau().seconds()
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::prbs::Prbs;
    use srlr_core::{DriverKind, SrlrDesign, SwingPoint};
    use srlr_tech::{GlobalVariation, MonteCarlo, ProcessCorner, Technology};
    use srlr_units::DataRate;

    /// Exhaustive-ish stress check mirroring the Monte Carlo trial.
    fn passes_stress(link: &SrlrLink, seed: u64, trial: u64) -> bool {
        let patterns: [&[bool]; 3] = [
            &[true, false, true, false, true, false, true, false],
            &[true, true, true, true, false, true, true, true, true, false],
            &[true; 16],
        ];
        patterns.iter().all(|p| link.transmits_cleanly(p))
            && link.transmits_cleanly(&Prbs::prbs15_for_stream(seed, trial).take_bits(256))
    }

    #[test]
    fn certificate_is_sound_across_dice_and_swings() {
        // The contract that matters: certified ⇒ the exact evaluator
        // agrees, across failing (300 mV), marginal (400 mV) and healthy
        // (500 mV) operating points, for both Fig. 6 designs and at slow,
        // paper and fast rates. The certificate accepts at the first
        // round that proves a die, so round 1's bounds must carry the
        // proof on their own. At 5.8 Gb/s the headroom bound still
        // proves a few proposed dice (7 of 180 here), but the inverter
        // design's drain gap after a widest pulse is too short for the
        // residue bound to clear any 10-stage die, so that leg only
        // checks that nothing is certified wrongly.
        let tech = Technology::soi45();
        let mc = MonteCarlo::new(&tech, 2013);
        for design in [
            SrlrDesign::paper_proposed(&tech),
            SrlrDesign::straightforward(&tech),
        ] {
            for gbps in [3.0, 4.1, 5.8] {
                let config = LinkConfig::paper_default()
                    .with_data_rate(DataRate::from_gigabits_per_second(gbps));
                let mut certified_any = false;
                for mv in [300.0, 400.0, 500.0] {
                    let d = design.with_nominal_swing(srlr_units::Voltage::from_millivolts(mv));
                    for trial in 0..60 {
                        let mut die = mc.die(trial);
                        let var = die.global_variation();
                        let link =
                            SrlrLink::on_die_with_mismatch(&tech, &d, config, &var, &mut die);
                        if link.robustly_clean() {
                            certified_any = true;
                            assert!(
                                passes_stress(&link, 2013, trial),
                                "unsound certificate for {:?} at {gbps} Gb/s, {mv} mV, trial {trial}",
                                design.driver_kind
                            );
                        }
                    }
                }
                assert!(
                    certified_any || (gbps > 5.0 && design.driver_kind == DriverKind::Inverter),
                    "healthy {:?} dice at {gbps} Gb/s must be certifiable",
                    design.driver_kind
                );
            }
        }
    }

    /// One die of `design` retargeted to every swing in `mv`, as a sweep
    /// screens it: elaborated at the last swing, retargeted to the rest.
    fn die_at_swings(
        tech: &Technology,
        design: &SrlrDesign,
        config: LinkConfig,
        mc: &MonteCarlo,
        trial: u64,
        mv: &[f64],
    ) -> Vec<SrlrLink> {
        let points: Vec<SwingPoint> = mv
            .iter()
            .map(|&mv| {
                SwingPoint::new(
                    tech,
                    &design.with_nominal_swing(Voltage::from_millivolts(mv)),
                )
            })
            .collect();
        let mut die = mc.die(trial);
        let var = die.global_variation();
        let (last, _) = points.split_last().expect("at least one swing");
        let base = SrlrLink::from_chain(
            last.instantiate_with_mismatch(tech, &var, config.stages, &mut die),
            config,
        );
        points
            .iter()
            .map(|point| {
                let mut link = base.clone();
                link.retarget_from(tech, &var, &base, point);
                link
            })
            .collect()
    }

    #[test]
    fn round_zero_proves_only_links_the_interval_rounds_prove() {
        // Round 0 drops `t_d` from the widest-pulse bound, so its bounds
        // are never tighter than round 1's: on `screen_fingerprint.rs`'s
        // grid every link it proves, rounds 1–4 alone prove too, which
        // is why adding it moves no verdict.
        let tech = Technology::soi45();
        let proposed = SrlrDesign::paper_proposed(&tech);
        let designs = [
            proposed.clone(),
            SrlrDesign::straightforward(&tech),
            proposed.with_adaptive_swing(false),
        ];
        let configs: Vec<LinkConfig> = [1usize, 2, 3, 10, 40]
            .iter()
            .flat_map(|&stages| {
                [3.0, 4.1, 5.8].map(|gbps| {
                    LinkConfig {
                        stages,
                        ..LinkConfig::paper_default()
                    }
                    .with_data_rate(DataRate::from_gigabits_per_second(gbps))
                })
            })
            .collect();
        let points: Vec<SrlrDesign> = designs
            .iter()
            .flat_map(|d| {
                [300.0, 400.0, 460.0, 550.0]
                    .map(|mv| d.with_nominal_swing(Voltage::from_millivolts(mv)))
            })
            .collect();
        let (mut round_zero_proofs, mut checked) = (0, 0);
        let mut check = |link: &SrlrLink| {
            checked += 1;
            if RoundZero::default().proves(link) {
                round_zero_proofs += 1;
                assert!(
                    interval_rounds(link),
                    "round 0 proved a link rounds 1-4 reject"
                );
            }
        };
        for seed in [2013u64, 3, 99] {
            let mc = MonteCarlo::new(&tech, seed);
            for &config in &configs {
                for design in &points {
                    for trial in 0..60 {
                        let mut die = mc.die(trial);
                        let var = die.global_variation();
                        check(&SrlrLink::on_die_with_mismatch(
                            &tech, design, config, &var, &mut die,
                        ));
                    }
                }
            }
        }
        let corners = [
            ProcessCorner::FastFast,
            ProcessCorner::SlowSlow,
            ProcessCorner::FastSlow,
            ProcessCorner::SlowFast,
        ]
        .map(|c| c.variation(&tech));
        for var in corners.iter().chain([&GlobalVariation::nominal()]) {
            for &config in &configs {
                for design in &points {
                    check(&SrlrLink::on_die(&tech, design, config, var));
                }
            }
        }
        assert_eq!(checked, 33_300);
        assert!(round_zero_proofs > 0, "round 0 must prove some links");
    }

    #[test]
    fn sweep_walks_each_point_up_to_the_one_bit_boundary_once() {
        // Every die retargeted across a sweep is ordered by dominance, so
        // the screen walks each point that fails the 1-bit half once,
        // plus the weakest point that passes it, and nothing above. The
        // verdicts still equal the per-point screen.
        let tech = Technology::soi45();
        let mc = MonteCarlo::new(&tech, 2013);
        let config = LinkConfig::paper_default();
        let all_mv = [550.0, 350.0, 500.0, 400.0, 460.0, 450.0, 300.0, 600.0];
        for design in [
            SrlrDesign::paper_proposed(&tech),
            SrlrDesign::straightforward(&tech),
        ] {
            for n in 1..=all_mv.len() {
                for trial in 0..20 {
                    let links = die_at_swings(&tech, &design, config, &mc, trial, &all_mv[..n]);
                    let (mut order, mut screens) = (vec![0; n], vec![None; n]);
                    let mut walked = Vec::new();
                    sweep_with(
                        &links,
                        &mut order,
                        |link| {
                            let one = solitary_one(link);
                            walked.push(one.proven);
                            one
                        },
                        |p, verdict| screens[p] = Some(verdict),
                    );
                    let failing = links.iter().filter(|l| !one_bit_clean(l)).count();
                    let mut expected_walks = vec![false; failing];
                    if failing < n {
                        expected_walks.push(true);
                    }
                    assert_eq!(walked, expected_walks, "{n} points, trial {trial}");
                    let expected: Vec<_> = links.iter().map(|l| Some(screen(l))).collect();
                    assert_eq!(screens, expected, "{n} points, trial {trial}");
                }
            }
        }
    }

    #[test]
    fn unordered_points_fall_back_to_the_full_certificate() {
        // A point with more drive but slower charging than another is
        // not comparable to it: no ordered scan, every point screened
        // directly.
        let tech = Technology::soi45();
        let mc = MonteCarlo::new(&tech, 2013);
        let design = SrlrDesign::paper_proposed(&tech);
        let config = LinkConfig::paper_default();
        for trial in 0..10 {
            let mut links = die_at_swings(&tech, &design, config, &mc, trial, &[450.0, 550.0]);
            let mut chain = links[1].chain().clone();
            for stage in chain.stages_mut() {
                stage.charge_resistance = stage.charge_resistance * 4.0;
            }
            links[1] = SrlrLink::from_chain(chain, config);
            let (mut order, mut screens) = ([0; 2], [None; 2]);
            let mut evaluations = 0;
            sweep_with(
                &links,
                &mut order,
                |link| {
                    evaluations += 1;
                    solitary_one(link)
                },
                |p, verdict| screens[p] = Some(verdict),
            );
            assert_eq!(evaluations, 0, "unordered points must not be scanned");
            assert_eq!(screens, [Some(screen(&links[0])), Some(screen(&links[1]))]);
        }
    }

    #[test]
    fn nominal_paper_link_is_certified() {
        let link = SrlrLink::paper_test_chip(&Technology::soi45());
        assert!(link.robustly_clean());
    }

    #[test]
    fn absurd_rate_is_not_certified() {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let config =
            LinkConfig::paper_default().with_data_rate(DataRate::from_gigabits_per_second(12.0));
        let link = SrlrLink::on_die(&tech, &design, config, &GlobalVariation::nominal());
        assert!(!link.robustly_clean());
    }

    #[test]
    fn single_stage_link_certifies() {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let config = LinkConfig {
            stages: 1,
            ..LinkConfig::paper_default()
        };
        let link = SrlrLink::on_die(&tech, &design, config, &GlobalVariation::nominal());
        assert!(link.robustly_clean());
        assert!(link.transmits_cleanly(&[true, true, false, true]));
    }
}
