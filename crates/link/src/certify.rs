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
//! swing moves, so [`sweep_screens`] keeps the decay entries for all of a
//! die's proven points and evaluates each once per die. The interval rounds
//! evaluate every bound afresh.
//!
//! # The swing-dominance lemma
//!
//! A swing sweep elaborates each die once and moves it to every other
//! swing with [`srlr_core::SwingPoint::retarget`], which changes only
//! each stage's `drive_level`, `charge_resistance` and internal energy
//! per pulse, writing the same values into every stage. The screen never
//! reads the energy, so a die at a sweep point is its one elaborated
//! link plus a [`Swing`]: the drive level and the charging resistance.
//! Say sweep point `p` **dominates** `q` on a die when every stage has
//! `drive_level_p ≥ drive_level_q` and `charge_tau_p ≤ charge_tau_q`.
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
//! [`sweep_screens`] uses the lemma to screen a die's whole sweep: it
//! orders the points by dominance, walks the 1-bit half up that order
//! to the first point it proves, and runs the cheap 0-bit half directly
//! at that point and every point above it. The 0-bit half needs no
//! lemma of its own. The walks need only each point's [`Swing`], so no
//! link is moved to a point below the boundary; the die's link is moved
//! (by the caller's retarget) only to the points the 0-bit half checks.
//!
//! # Lockstep walks
//!
//! Each walk stage is one dependent chain of libm calls: M1's `exp` →
//! `ln_1p` → `powf` (and the subthreshold `exp`), then the delivered
//! swing's `exp`. One die's scan is a sequence of such walks, each
//! waiting on the last. The dice of a sweep are independent, so
//! [`sweep_screens`] advances the scans of up to eight dice (`GROUP`) in
//! lockstep: each round walks the next point of every die still
//! scanning, as the lanes of one batched walk. The batched walk
//! ([`solitary_ones`]; [`solitary_one`] is its one-lane case) runs each
//! stage as passes over the lanes still walking:
//!
//! 1. the entry checks (`enabled`, static soundness, a live pulse);
//! 2. M1's current as [`srlr_core::SrlrStage::x_discharge_times`], one
//!    libm function per pass (`exp`, `ln_1p`, `powf`, the subthreshold
//!    `exp`), and the discharge time;
//! 3. the current race and the width floor;
//! 4. the delivered-swing `exp`.
//!
//! So the calls of independent lanes overlap. Within a lane every
//! comparison and every `srlr-core` step is the scalar walk's, on the
//! same operands and in the same order, so each verdict is bit-identical
//! to walking the die alone. A lane leaves the walk once both halves
//! have failed or its chain ends; a die leaves the scan at its boundary.
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
//! the boundary are proven, and so deliver. The scans of a group's dice
//! stop at different rounds, so each round's walk has as many lanes as
//! dice still scanning.

use crate::link::SrlrLink;
use srlr_core::SrlrStage;
use srlr_units::{Resistance, TimeInterval, Voltage};

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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolitaryOne {
    /// The 1-bit half of the certificate holds: the pulse clears every
    /// check with the `REL` guard band ([`one_bit_clean`]).
    pub proven: bool,
    /// The exact verdict: a solitary `1` sent on a fresh link is
    /// received, i.e. `transmits_cleanly(&[true])`.
    pub delivered: bool,
}

/// Most lanes one batched walk advances at once: the walks of up to this
/// many links run as one walk in [`solitary_ones`], and up to this many
/// dice scan their sweeps in lockstep in [`sweep_screens`].
pub(crate) const GROUP: usize = 8;

/// Walks a solitary `1` through the drained chain once and returns both
/// the guarded 1-bit proof and the exact verdict (module docs,
/// "Refutation"): the one-lane case of [`solitary_ones`].
///
/// The proof's comparisons carry `REL` on the conservative side. The
/// exact ones are the lockstep kernel's own (`t_d > w`, `w_out < minw`,
/// `w_out > 0 && swing_next > 0`, `width >= demod_min`) on the same
/// operands, so `delivered` is bit for bit the kernel's slot-0 decision.
/// Both halves see the same widths and peaks until one of them fails,
/// and the walk stops once both have.
pub fn solitary_one(link: &SrlrLink) -> SolitaryOne {
    let mut one = [SolitaryOne::default()];
    walk(&[Lane::own(link)], &mut one);
    one[0]
}

/// [`solitary_one`] of every link: `out[k]` becomes
/// `solitary_one(links[k])`, bit for bit. The links are walked eight at
/// a time as the lanes of one walk (module docs, "Lockstep walks"); they
/// may differ in anything, chain length included.
///
/// # Panics
///
/// Panics if `out` is shorter than `links`, or if a chain has no stages.
pub fn solitary_ones(links: &[&SrlrLink], out: &mut [SolitaryOne]) {
    let out = &mut out[..links.len()];
    for (links, out) in links.chunks(GROUP).zip(out.chunks_mut(GROUP)) {
        let mut lanes = [Lane::own(links[0]); GROUP];
        for (lane, link) in lanes.iter_mut().zip(links) {
            *lane = Lane::own(link);
        }
        walk(&lanes[..links.len()], out);
    }
}

/// The two stage fields a sweep point moves that the screen reads: the
/// drive level and the charging resistance. A retarget
/// ([`srlr_core::SwingPoint::retarget`]) writes the same pair into every
/// stage of a die.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Swing {
    /// Every stage's `drive_level`.
    pub drive_level: Voltage,
    /// Every stage's `charge_resistance`.
    pub charge_resistance: Resistance,
}

impl Swing {
    /// The swing `link` is at, read from its first stage.
    ///
    /// # Panics
    ///
    /// Panics if the chain has no stages.
    pub fn of(link: &SrlrLink) -> Self {
        let stage = &link.chain().stages()[0];
        Self {
            drive_level: stage.drive_level,
            charge_resistance: stage.charge_resistance,
        }
    }

    /// `stage` at this swing.
    fn apply(self, stage: &SrlrStage) -> SrlrStage {
        SrlrStage {
            drive_level: self.drive_level,
            charge_resistance: self.charge_resistance,
            ..*stage
        }
    }
}

/// One lane of a batched walk: `link`'s chain, with every stage's swing
/// fields replaced by `swing` when it is given.
#[derive(Clone, Copy)]
struct Lane<'a> {
    link: &'a SrlrLink,
    swing: Option<Swing>,
}

impl<'a> Lane<'a> {
    /// `link` as it is.
    fn own(link: &'a SrlrLink) -> Self {
        Self { link, swing: None }
    }

    /// The swing that `stage`'s output pulse of width `w` delivers onto
    /// its drained segment in this lane.
    fn delivered_swing(&self, stage: &SrlrStage, w: TimeInterval) -> Voltage {
        match self.swing {
            None => stage.delivered_swing(w),
            Some(swing) => swing.apply(stage).delivered_swing(w),
        }
    }
}

/// The batched solitary-`1` walk: `out[k]` becomes the walk of
/// `lanes[k]`, for at most [`GROUP`] lanes.
///
/// Each stage runs as passes over the lanes still walking (module docs,
/// "Lockstep walks"): the entry checks, M1's current as
/// [`SrlrStage::x_discharge_times`] (one libm function per pass), the
/// race and width checks, then the delivered-swing `exp`. Within a lane
/// every comparison and every stage call is the scalar walk's, in its
/// order, so each lane's answer is the same bit for bit. A lane leaves
/// once both halves have failed or its chain ends.
#[expect(
    clippy::neg_cmp_op_on_partial_ord,
    reason = "each check is the literal negation of a rejecting comparison, so a NaN takes the same branch as in the guarded proof and the kernel"
)]
fn walk(lanes: &[Lane<'_>], out: &mut [SolitaryOne]) {
    let Some(first) = lanes.first() else {
        return;
    };
    // Per lane: the width of the current pulse, and the swing it delivers
    // onto its drained segment, so the peak the next stage sees (the
    // launcher is stage 0 for segment 0 and the previous stage after
    // that).
    let (mut w, mut peak) = ([0.0; GROUP], [0.0; GROUP]);
    let (mut proven, mut delivered) = ([true; GROUP], [true; GROUP]);
    // `live[..walking]` lists the lanes still walking; `m1[i]` is the
    // stage and input swing of lane `live[i]`, and `t_d[i]` its
    // discharge time.
    let mut live = [0; GROUP];
    let mut m1 = [(&first.link.chain().stages()[0], Voltage::zero()); GROUP];
    let mut t_d = [TimeInterval::zero(); GROUP];
    for (k, lane) in lanes.iter().enumerate() {
        let chain = lane.link.chain();
        let launch = chain.launch_width();
        w[k] = launch.seconds();
        peak[k] = lane.delivered_swing(&chain.stages()[0], launch).volts();
        live[k] = k;
    }
    let mut walking = lanes.len();
    for s in 0.. {
        // Entry checks: a lane leaves when its chain has ended or both
        // halves have failed.
        let mut kept = 0;
        for i in 0..walking {
            let k = live[i];
            let Some(stage) = lanes[k].link.chain().stages().get(s) else {
                continue;
            };
            let enabled = stage.enabled && stage.statically_sound;
            proven[k] &= enabled && !(w[k] <= 0.0) && !(peak[k] <= 0.0);
            delivered[k] &= enabled && w[k] > 0.0 && peak[k] > 0.0;
            if proven[k] || delivered[k] {
                live[kept] = k;
                m1[kept] = (stage, Voltage::from_volts(peak[k]));
                kept += 1;
            }
        }
        walking = kept;
        if walking == 0 {
            break;
        }
        SrlrStage::x_discharge_times(&m1[..walking], &mut t_d);
        // The current race and the width floor; `w` becomes the output
        // width.
        let mut kept = 0;
        for i in 0..walking {
            let (k, (stage, _)) = (live[i], m1[i]);
            let t_d = t_d[i].seconds();
            proven[k] &= !(t_d * (1.0 + REL) > w[k]);
            delivered[k] &= !(t_d > w[k]);
            if !(proven[k] || delivered[k]) {
                continue;
            }
            w[k] = stage.delay.seconds() - (stage.t_rise0.seconds() + t_d - stage.t_fall.seconds());
            proven[k] &= !(w[k] < stage.min_output_width.seconds() * (1.0 + REL) + 1e-18);
            live[kept] = k;
            m1[kept] = m1[i];
            kept += 1;
        }
        walking = kept;
        // The delivered swing of each output.
        for (&k, &(stage, _)) in live.iter().zip(&m1).take(walking) {
            peak[k] = lanes[k]
                .delivered_swing(stage, TimeInterval::from_seconds(w[k]))
                .volts();
            delivered[k] &=
                !(w[k] < stage.min_output_width.seconds()) && w[k] > 0.0 && peak[k] > 0.0;
        }
    }
    for (k, (lane, one)) in lanes.iter().zip(out.iter_mut()).enumerate() {
        let demod_min = lane.link.config().demod_min_width.seconds();
        *one = SolitaryOne {
            proven: proven[k] && w[k] * (1.0 - REL) >= demod_min,
            delivered: delivered[k] && w[k] >= demod_min,
        };
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
    let one = solitary_one(link);
    if one.proven && zero_bit_clean(link, &mut RoundZero::default()) {
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

/// Screens dice across a swing sweep: `screens[d * points + p]` becomes
/// [`screen`] of die `d` at sweep point `p`, where
/// `points = swings.len() / dice.len()`.
///
/// `dice[d]` is die `d` at any sweep point. At point `p` it is the same
/// link with `swings[d * points + p]` in every stage, which is what
/// [`srlr_core::SwingPoint::retarget`] makes of it. The walks read only
/// that swing and the die's other stage fields, so no link is built for
/// them. `move_to(d, p, link)` must make `link` (it is `dice[d]`) die `d`
/// at point `p`; the screen calls it only where it needs the whole link,
/// for the 0-bit half.
///
/// When dominance (module docs) orders a die's points totally, checked
/// on every stage, the die's scan walks its points from the weakest up
/// and stops at the first one the 1-bit half proves: one walk per point
/// below that boundary, each giving that point's exact verdict, plus one
/// at the boundary. The 0-bit half then runs at the boundary and every
/// point above it. A die whose points dominance does not order is
/// screened point by point: a walk at every point, and the 0-bit half
/// where the walk proves. Up to eight dice scan in lockstep (module
/// docs, "Lockstep walks"). `order` is scratch space, so a caller that
/// screens many dice allocates nothing per die.
///
/// # Panics
///
/// Panics if `swings.len()` is not a multiple of `dice.len()`, if
/// `order` or `screens` is shorter than `swings`, or if a chain has no
/// stages.
pub fn sweep_screens(
    dice: &mut [SrlrLink],
    swings: &[Swing],
    order: &mut [usize],
    screens: &mut [Screen],
    move_to: impl FnMut(usize, usize, &mut SrlrLink),
) {
    sweep_with(dice, swings, order, screens, move_to, walk);
}

/// The sweep screen with its batched walk supplied by the caller, so
/// tests can count its walks.
fn sweep_with(
    dice: &mut [SrlrLink],
    swings: &[Swing],
    order: &mut [usize],
    screens: &mut [Screen],
    mut move_to: impl FnMut(usize, usize, &mut SrlrLink),
    mut walk: impl FnMut(&[Lane<'_>], &mut [SolitaryOne]),
) {
    if dice.is_empty() {
        return;
    }
    assert!(
        swings.len().is_multiple_of(dice.len()),
        "every die needs a swing at every point"
    );
    let points = swings.len() / dice.len();
    let group = GROUP * points;
    let (order, screens) = (&mut order[..swings.len()], &mut screens[..swings.len()]);
    for (g, (((dice, swings), order), screens)) in dice
        .chunks_mut(GROUP)
        .zip(swings.chunks(group))
        .zip(order.chunks_mut(group))
        .zip(screens.chunks_mut(group))
        .enumerate()
    {
        let first = g * GROUP;
        scan_group(
            dice,
            swings,
            order,
            screens,
            &mut |d, p, link| move_to(first + d, p, link),
            &mut walk,
        );
    }
}

/// [`sweep_with`] on at most [`GROUP`] dice, whose scans advance in
/// lockstep: each round walks the next point of every die still
/// scanning, as the lanes of one batched walk.
fn scan_group(
    dice: &mut [SrlrLink],
    swings: &[Swing],
    order: &mut [usize],
    screens: &mut [Screen],
    move_to: &mut dyn FnMut(usize, usize, &mut SrlrLink),
    walk: &mut impl FnMut(&[Lane<'_>], &mut [SolitaryOne]),
) {
    let points = swings.len() / dice.len();
    // Per die: whether dominance orders its points, and the position in
    // its order of the next point to walk (`points` once it is done).
    let (mut ordered, mut next) = ([false; GROUP], [0; GROUP]);
    for (d, (swings, order)) in swings
        .chunks(points)
        .zip(order.chunks_mut(points))
        .enumerate()
    {
        let stages = dice[d].chain().stages();
        for (k, slot) in order.iter_mut().enumerate() {
            *slot = k;
        }
        // Weakest first: by drive level, then by slower charging.
        let charge_tau = |p: usize| swings[p].apply(&stages[0]).charge_tau().seconds();
        order.sort_unstable_by(|&a, &b| {
            let drive = (swings[a].drive_level.volts()).total_cmp(&swings[b].drive_level.volts());
            drive.then_with(|| charge_tau(b).total_cmp(&charge_tau(a)))
        });
        ordered[d] = order
            .windows(2)
            .all(|pair| dominates(swings[pair[1]], swings[pair[0]], stages));
    }
    loop {
        // This round's lanes: the next point of every die still scanning.
        let mut lane_die = [0; GROUP];
        let mut ones = [SolitaryOne::default(); GROUP];
        let mut lanes = 0;
        {
            let mut round = [Lane::own(&dice[0]); GROUP];
            for (d, link) in dice.iter().enumerate() {
                if let Some(&p) = order[d * points..(d + 1) * points].get(next[d]) {
                    round[lanes] = Lane {
                        link,
                        swing: Some(swings[d * points + p]),
                    };
                    lane_die[lanes] = d;
                    lanes += 1;
                }
            }
            if lanes == 0 {
                return;
            }
            walk(&round[..lanes], &mut ones[..lanes]);
        }
        for (&d, one) in lane_die.iter().zip(&ones).take(lanes) {
            let order = &order[d * points..(d + 1) * points];
            let screens = &mut screens[d * points..(d + 1) * points];
            let k = next[d];
            next[d] += 1;
            if !one.proven {
                screens[order[k]] = refuted_unless(one.delivered);
                continue;
            }
            // Proven, so the `1` is delivered. On an ordered die every
            // point from here up is proven by the lemma, with no walk,
            // and the scan ends; one round-0 memo serves them all, so
            // each swing-invariant `decay` is evaluated once per die.
            let proven = if ordered[d] {
                next[d] = points;
                &order[k..]
            } else {
                &order[k..=k]
            };
            let mut memo = RoundZero::default();
            for &p in proven {
                move_to(d, p, &mut dice[d]);
                screens[p] = if zero_bit_clean(&dice[d], &mut memo) {
                    Screen::Clean
                } else {
                    Screen::Undecided
                };
            }
        }
    }
}

/// Whether swing `p` dominates swing `q` on a die with these stages: a
/// drive level at least `q`'s and, at every stage, a charging time
/// constant at most `q`'s.
fn dominates(p: Swing, q: Swing, stages: &[SrlrStage]) -> bool {
    p.drive_level.volts() >= q.drive_level.volts()
        && stages.iter().all(|stage| {
            p.apply(stage).charge_tau().seconds() <= q.apply(stage).charge_tau().seconds()
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
                link.retarget(tech, &var, point);
                link
            })
            .collect()
    }

    /// [`sweep_with`] on dice given at every point (`dice[d][p]`), each
    /// die's base being its last point's link: the verdicts, die-major.
    fn sweep_of(
        dice: &[Vec<SrlrLink>],
        walk: impl FnMut(&[Lane<'_>], &mut [SolitaryOne]),
    ) -> Vec<Screen> {
        let points = dice[0].len();
        let mut bases: Vec<SrlrLink> = dice.iter().map(|links| links[points - 1].clone()).collect();
        let swings: Vec<Swing> = dice.iter().flatten().map(Swing::of).collect();
        let mut order = vec![0; swings.len()];
        let mut screens = vec![Screen::Undecided; swings.len()];
        sweep_with(
            &mut bases,
            &swings,
            &mut order,
            &mut screens,
            |d, p, link| link.clone_from(&dice[d][p]),
            walk,
        );
        screens
    }

    #[test]
    fn a_lane_at_a_swing_walks_like_the_retargeted_link() {
        // The sweep's lanes read a die's base link with another point's
        // swing in every stage. Each must walk bit for bit like the link
        // retargeted to that point, whatever the group's size.
        let tech = Technology::soi45();
        let mc = MonteCarlo::new(&tech, 2013);
        let mv: Vec<f64> = (0..8).map(|k| 300.0 + 40.0 * f64::from(k)).collect();
        for design in [
            SrlrDesign::paper_proposed(&tech),
            SrlrDesign::straightforward(&tech),
        ] {
            for gbps in [3.0, 4.1, 5.8] {
                let config = LinkConfig::paper_default()
                    .with_data_rate(DataRate::from_gigabits_per_second(gbps));
                for trial in 0..10 {
                    let links = die_at_swings(&tech, &design, config, &mc, trial, &mv);
                    let base = &links[links.len() - 1];
                    for size in 1..=GROUP {
                        let lanes: Vec<Lane<'_>> = links[..size]
                            .iter()
                            .map(|link| Lane {
                                link: base,
                                swing: Some(Swing::of(link)),
                            })
                            .collect();
                        let mut out = [SolitaryOne::default(); GROUP];
                        walk(&lanes, &mut out[..size]);
                        let expected: Vec<_> = links[..size].iter().map(solitary_one).collect();
                        assert_eq!(out[..size], expected[..], "{gbps} Gb/s, trial {trial}");
                    }
                }
            }
        }
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
        // verdicts still equal the per-point screen. Screened together,
        // the 20 dice scan in lockstep groups of at most `GROUP` (the
        // last one ragged) and take the same walks.
        let tech = Technology::soi45();
        let mc = MonteCarlo::new(&tech, 2013);
        let config = LinkConfig::paper_default();
        let all_mv = [550.0, 350.0, 500.0, 400.0, 460.0, 450.0, 300.0, 600.0];
        for design in [
            SrlrDesign::paper_proposed(&tech),
            SrlrDesign::straightforward(&tech),
        ] {
            for n in 1..=all_mv.len() {
                let dice: Vec<Vec<SrlrLink>> = (0..20)
                    .map(|trial| die_at_swings(&tech, &design, config, &mc, trial, &all_mv[..n]))
                    .collect();
                let mut expected_walks = 0;
                for (trial, links) in dice.iter().enumerate() {
                    let mut walked = Vec::new();
                    let screens = sweep_of(std::slice::from_ref(links), |lanes, out| {
                        walk(lanes, out);
                        walked.extend(out.iter().map(|one| one.proven));
                    });
                    let failing = links.iter().filter(|l| !one_bit_clean(l)).count();
                    let mut expected = vec![false; failing];
                    if failing < n {
                        expected.push(true);
                    }
                    assert_eq!(walked, expected, "{n} points, trial {trial}");
                    expected_walks += expected.len();
                    let per_point: Vec<_> = links.iter().map(screen).collect();
                    assert_eq!(screens, per_point, "{n} points, trial {trial}");
                }
                let mut walks = 0;
                let screens = sweep_of(&dice, |lanes, out| {
                    assert!(lanes.len() <= GROUP);
                    walk(lanes, out);
                    walks += lanes.len();
                });
                assert_eq!(walks, expected_walks, "{n} points, 20 dice together");
                let per_point: Vec<_> = dice.iter().flatten().map(screen).collect();
                assert_eq!(screens, per_point, "{n} points, 20 dice together");
            }
        }
    }

    #[test]
    fn unordered_points_fall_back_to_the_full_certificate() {
        // A point with more drive but slower charging than another is
        // not comparable to it: no ordered scan, every point walked and
        // screened on its own.
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
            let mut evaluations = 0;
            let screens = sweep_of(std::slice::from_ref(&links), |lanes, out| {
                evaluations += lanes.len();
                walk(lanes, out);
            });
            assert_eq!(evaluations, 2, "unordered points are each walked once");
            assert_eq!(screens, [screen(&links[0]), screen(&links[1])]);
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
