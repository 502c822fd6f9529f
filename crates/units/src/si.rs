//! SI-prefixed rendering shared by every quantity's `Display` impl.

use core::fmt;

/// SI prefixes from yocto to yotta, as `(exponent, symbol)` pairs.
const PREFIXES: &[(i32, &str)] = &[
    (-24, "y"),
    (-21, "z"),
    (-18, "a"),
    (-15, "f"),
    (-12, "p"),
    (-9, "n"),
    (-6, "u"),
    (-3, "m"),
    (0, ""),
    (3, "k"),
    (6, "M"),
    (9, "G"),
    (12, "T"),
    (15, "P"),
    (18, "E"),
    (21, "Z"),
    (24, "Y"),
];

/// Picks the SI prefix that renders `value` in `[1, 1000)` and returns the
/// scaled mantissa with the prefix symbol.
///
/// Zero, NaN and infinities map to the unscaled representation.
///
/// # Examples
///
/// ```
/// let (mantissa, prefix) = srlr_units::si::si_scale(40.4e-15);
/// assert!((mantissa - 40.4).abs() < 1e-9);
/// assert_eq!(prefix, "f");
/// assert_eq!(srlr_units::si::si_scale(0.0), (0.0, ""));
/// ```
pub fn si_scale(value: f64) -> (f64, &'static str) {
    // srlr-lint: allow(float-eq, reason = "exact-zero sentinel: log10 of zero is undefined, documented to map to the unscaled form")
    if value == 0.0 || !value.is_finite() {
        return (value, "");
    }
    let magnitude = value.abs().log10();
    // Group of three decades, clamped to the supported prefix range.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "f64->i32 decade exponent of a finite value; clamped to [-24, 24] on the next line"
    )]
    let exponent = ((magnitude / 3.0).floor() * 3.0) as i32;
    let exponent = exponent.clamp(-24, 24);
    let (exp, symbol) = PREFIXES
        .iter()
        .copied()
        .find(|&(e, _)| e == exponent)
        .unwrap_or((0, ""));
    (value / 10f64.powi(exp), symbol)
}

/// Writes `value` with an SI prefix and the given base-unit suffix.
///
/// Respects the formatter's precision if one was supplied; defaults to four
/// significant-ish digits (three decimal places after scaling).
pub fn write_si(f: &mut fmt::Formatter<'_>, value: f64, unit: &str) -> fmt::Result {
    let (scaled, prefix) = si_scale(value);
    match f.precision() {
        Some(p) => write!(f, "{scaled:.p$} {prefix}{unit}"),
        None => {
            // Trim trailing zeros for a compact default rendering.
            let text = format!("{scaled:.3}");
            let text = text.trim_end_matches('0').trim_end_matches('.');
            write!(f, "{text} {prefix}{unit}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_femto_for_femtojoule_scale() {
        let (v, p) = si_scale(40.4e-15);
        assert!((v - 40.4).abs() < 1e-9);
        assert_eq!(p, "f");
    }

    #[test]
    fn picks_giga_for_data_rates() {
        let (v, p) = si_scale(4.1e9);
        assert!((v - 4.1).abs() < 1e-9);
        assert_eq!(p, "G");
    }

    #[test]
    fn exact_thousand_boundaries() {
        assert_eq!(si_scale(1.0), (1.0, ""));
        assert_eq!(si_scale(1000.0), (1.0, "k"));
        let (v, p) = si_scale(999.0);
        assert!((v - 999.0).abs() < 1e-9);
        assert_eq!(p, "");
    }

    #[test]
    fn negative_values_keep_sign() {
        let (v, p) = si_scale(-2.5e-3);
        assert!((v + 2.5).abs() < 1e-9);
        assert_eq!(p, "m");
    }

    #[test]
    fn out_of_range_clamps_to_extreme_prefix() {
        let (v, p) = si_scale(1e30);
        assert_eq!(p, "Y");
        assert!((v - 1e6).abs() < 1.0);
    }

    #[test]
    fn zero_and_non_finite_pass_through() {
        assert_eq!(si_scale(0.0), (0.0, ""));
        let (v, p) = si_scale(f64::INFINITY);
        assert!(v.is_infinite());
        assert_eq!(p, "");
        let (v, _) = si_scale(f64::NAN);
        assert!(v.is_nan());
    }
}
