//! The raw `f64` pulse-domain math shared by [`crate::stage::SrlrStage`]
//! and the batched evaluator in [`crate::batch`].
//!
//! # Why this module exists
//!
//! The structure-of-arrays batch evaluator ([`crate::batch::DieBatch`])
//! must produce results **bit-identical** to the scalar stage map: a die
//! that passes the Monte Carlo stress test serially must pass it batched,
//! down to the last ulp of every intermediate. The only way to guarantee
//! that under compiler and libm evolution is to have exactly one
//! implementation of each hot expression. `SrlrStage`'s methods delegate
//! here, and `DieBatch`'s passes call the same functions on its flat
//! parameter arrays — M1's current as the steps `m1_current_amperes` is
//! composed of, one pass per libm call — so each lane sees the same
//! operations in the same order, with the same results.
//!
//! All quantities are in SI base units (volts, seconds, farads, amperes,
//! joules), matching the payload of every `srlr_units` newtype.

/// M1's discharge current (amperes) at gate voltage `vgs_v`, using the
/// smoothed alpha-power law of [`crate::stage::SrlrStage`]:
/// `softplus`-blended overdrive raised to `alpha`, with a subthreshold
/// attenuation below the threshold.
///
/// The batch evaluator runs the same steps as separate passes over its
/// lanes (one libm function per pass), so each step is its own function.
#[inline]
pub(crate) fn m1_current_amperes(
    vth_v: f64,
    smooth_v: f64,
    drive_scale: f64,
    alpha: f64,
    vgs_v: f64,
) -> f64 {
    let (overdrive, x) = m1_overdrive(vth_v, smooth_v, vgs_v);
    let eff = if m1_saturated(x) {
        overdrive
    } else {
        m1_softplus(smooth_v, x.exp())
    };
    let mut i = m1_alpha_power(drive_scale, alpha, eff);
    if let Some(arg) = m1_subthreshold_exponent(x) {
        i *= arg.exp();
    }
    i
}

/// M1's gate overdrive `vgs − vth` and its ratio `x` to the smoothing
/// width.
#[inline]
pub(crate) fn m1_overdrive(vth_v: f64, smooth_v: f64, vgs_v: f64) -> (f64, f64) {
    let overdrive = vgs_v - vth_v;
    (overdrive, overdrive / smooth_v)
}

/// Whether `x` is deep enough in saturation that the blend is the raw
/// overdrive (no softplus).
#[inline]
pub(crate) fn m1_saturated(x: f64) -> bool {
    x > 30.0
}

/// The softplus-blended overdrive `smooth · ln(1 + eˣ)`, from `exp_x = eˣ`.
#[inline]
pub(crate) fn m1_softplus(smooth_v: f64, exp_x: f64) -> f64 {
    smooth_v * exp_x.ln_1p()
}

/// The alpha-power current `drive_scale · eff^alpha` before any
/// subthreshold attenuation.
#[inline]
pub(crate) fn m1_alpha_power(drive_scale: f64, alpha: f64, eff: f64) -> f64 {
    drive_scale * eff.powf(alpha)
}

/// Below the threshold (`x < 0`), the exponent `x / 1.4` of the
/// subthreshold attenuation that multiplies the current.
#[inline]
pub(crate) fn m1_subthreshold_exponent(x: f64) -> Option<f64> {
    (x < 0.0).then(|| x / 1.4)
}

/// Time (seconds) for M1 to pull node X through the amplifier threshold,
/// fighting the keeper: `C_x · depth / max(I_m1 − I_keeper, 1 pA)`.
///
/// `cx_depth_coulombs` is the precomputed product `C_x · depth` (the
/// charge M1 must remove), hoisted because it is die-constant.
#[inline]
pub(crate) fn x_discharge_seconds(
    m1_amperes: f64,
    keeper_amperes: f64,
    cx_depth_coulombs: f64,
) -> f64 {
    let i = (m1_amperes - keeper_amperes).max(1e-12);
    cx_depth_coulombs / i
}

/// Far-end swing (volts) the outgoing segment delivers for an output
/// pulse of width `w_s`: the RC step response
/// `V_drive · (1 − e^(−w/τ))`, zero for non-positive widths.
///
/// `charge_tau_s` must already carry the scalar path's `max(τ, 1 fs)`
/// floor (it is die-constant, so pre-flooring is exact).
#[inline]
pub(crate) fn delivered_swing_volts(drive_v: f64, charge_tau_s: f64, w_s: f64) -> f64 {
    if w_s <= 0.0 {
        return 0.0;
    }
    drive_v * (1.0 - (-w_s / charge_tau_s).exp())
}

/// Whether an output pulse of width `w_s` is valid: exactly
/// `w_s > 0 && delivered_swing_volts(drive_v, charge_tau_s, w_s) > 0`,
/// without the exponential where its sign is already certain.
///
/// With `w > 0`, a normal positive drive level and `x = w/τ ≥ 1e-12`,
/// the swing is positive for any faithfully rounded `exp`: `e^(−x)` is at
/// most `1 − 1e-12` plus one ulp, so `1 − e^(−x)` is at least about
/// `1e-12`, and a normal drive level times it is at least ~2e-320, which
/// does not round to zero. Every other input (a zero, subnormal, negative
/// or NaN drive; a tiny or NaN `x`) takes the exact expression.
#[inline]
pub(crate) fn output_pulse_valid(drive_v: f64, charge_tau_s: f64, w_s: f64) -> bool {
    if w_s > 0.0 && drive_v.is_normal() && drive_v > 0.0 && w_s / charge_tau_s >= 1e-12 {
        return true;
    }
    w_s > 0.0 && delivered_swing_volts(drive_v, charge_tau_s, w_s) > 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_is_monotone_in_vgs() {
        let mut last = 0.0;
        for mv in [100.0, 200.0, 280.0, 300.0, 350.0, 500.0, 2000.0] {
            let i = m1_current_amperes(0.28, 0.034, 1e-3, 1.3, mv * 1e-3);
            assert!(i > last, "current must grow with vgs");
            last = i;
        }
    }

    #[test]
    fn deep_saturation_uses_the_linear_overdrive() {
        // x > 30 switches to the raw overdrive; the blend must be
        // continuous enough that the two branches agree closely there.
        let smooth = 0.034;
        let vth = 0.28;
        let vgs = vth + 30.0 * smooth * 1.001;
        let above = m1_current_amperes(vth, smooth, 1e-3, 1.3, vgs);
        let just_below = m1_current_amperes(vth, smooth, 1e-3, 1.3, vgs * 0.9999);
        assert!((above / just_below - 1.0).abs() < 1e-2);
    }

    #[test]
    fn discharge_time_floors_the_net_current() {
        // Keeper stronger than M1: the 1 pA floor keeps the time finite.
        let t = x_discharge_seconds(1e-15, 1e-6, 1e-16);
        assert!(t.is_finite() && t > 0.0);
    }

    #[test]
    fn delivered_swing_is_zero_at_nonpositive_width() {
        assert_eq!(delivered_swing_volts(0.45, 50e-12, 0.0), 0.0);
        assert_eq!(delivered_swing_volts(0.45, 50e-12, -1e-12), 0.0);
    }

    #[test]
    fn delivered_swing_saturates_at_drive() {
        let v = delivered_swing_volts(0.45, 50e-12, 10e-9);
        assert!(v <= 0.45 && v > 0.449);
    }

    #[test]
    fn output_validity_shortcut_matches_the_exact_swing_sign() {
        // `output_pulse_valid` must equal `w > 0 && swing > 0` on every
        // input, including the edges where it takes the exact path.
        let tau = 50e-12;
        let boundary = 1e-12 * tau;
        let widths = [
            -1e-12,
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE * 3.0,
            1e-300,
            // `exp(−1e-17)` rounds to 1: a zero swing.
            1e-17 * tau,
            boundary * (1.0 - f64::EPSILON),
            boundary,
            boundary * (1.0 + f64::EPSILON),
            1e-15,
            30e-12,
            1e-9,
            f64::INFINITY,
            f64::NAN,
        ];
        let drives = [
            0.45,
            1e-300,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            0.0,
            -0.0,
            -0.45,
            f64::INFINITY,
            f64::NAN,
        ];
        for &tau_s in &[tau, 1e-15, f64::INFINITY] {
            for &w in &widths {
                for &drive in &drives {
                    let exact = w > 0.0 && delivered_swing_volts(drive, tau_s, w) > 0.0;
                    assert_eq!(
                        output_pulse_valid(drive, tau_s, w),
                        exact,
                        "drive {drive:e}, tau {tau_s:e}, w {w:e}"
                    );
                }
            }
        }
    }
}
