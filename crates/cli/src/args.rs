//! Minimal flag parsing (`--name value` pairs) without external crates.

use crate::CliError;
use std::collections::BTreeMap;

/// Parsed `--flag value` pairs plus valueless `--switch` flags.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    values: BTreeMap<String, String>,
    switches: std::collections::BTreeSet<String>,
}

impl Flags {
    /// Parses `rest` as alternating `--name value` pairs, validating
    /// every name against `allowed`.
    ///
    /// # Errors
    ///
    /// Returns a usage error for unknown flags, missing values or stray
    /// positional arguments.
    pub fn parse(rest: &[String], allowed: &[&str]) -> Result<Self, CliError> {
        Self::parse_with_switches(rest, allowed, &[])
    }

    /// [`Flags::parse`], additionally accepting the valueless boolean
    /// flags named in `switches` (e.g. `--progress`).
    ///
    /// # Errors
    ///
    /// Returns a usage error for unknown flags, missing values or stray
    /// positional arguments.
    pub fn parse_with_switches(
        rest: &[String],
        allowed: &[&str],
        switches: &[&str],
    ) -> Result<Self, CliError> {
        let mut values = BTreeMap::new();
        let mut set = std::collections::BTreeSet::new();
        let mut it = rest.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(CliError::Usage(format!(
                    "unexpected positional argument `{flag}`"
                )));
            };
            if switches.contains(&name) {
                set.insert(name.to_owned());
                continue;
            }
            if !allowed.contains(&name) {
                return Err(CliError::Usage(format!(
                    "unknown flag `--{name}` (allowed: {})",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .chain(switches.iter().map(|s| format!("--{s}")))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
            let Some(value) = it.next() else {
                return Err(CliError::Usage(format!("flag `--{name}` needs a value")));
            };
            values.insert(name.to_owned(), value.clone());
        }
        Ok(Self {
            values,
            switches: set,
        })
    }

    /// Whether a boolean switch (e.g. `--progress`) was given.
    pub fn is_set(&self, name: &str) -> bool {
        self.switches.contains(name)
    }

    /// Returns a flag parsed into `T`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns a usage error when the value does not parse or spells a
    /// non-finite number (`nan`, `inf`, or a literal that overflows to
    /// infinity): no experiment takes one.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        let Some(raw) = self.values.get(name) else {
            return Ok(default);
        };
        let value = raw.parse().map_err(|_| {
            CliError::Usage(format!("flag `--{name}` got unparsable value `{raw}`"))
        })?;
        if raw.parse::<f64>().is_ok_and(|x| !x.is_finite()) {
            return Err(CliError::Usage(format!(
                "flag `--{name}` needs a finite number, got `{raw}`"
            )));
        }
        Ok(value)
    }

    /// Returns the raw string of a flag, if present.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_pairs() {
        let f = Flags::parse(
            &argv(&["--bits", "100", "--gbps", "4.1"]),
            &["bits", "gbps"],
        )
        .unwrap();
        assert_eq!(f.get_or("bits", 0usize).unwrap(), 100);
        assert!((f.get_or("gbps", 0.0f64).unwrap() - 4.1).abs() < 1e-12);
    }

    #[test]
    fn default_applies_when_absent() {
        let f = Flags::parse(&argv(&[]), &["bits"]).unwrap();
        assert_eq!(f.get_or("bits", 7usize).unwrap(), 7);
    }

    #[test]
    fn unknown_flag_rejected() {
        let err = Flags::parse(&argv(&["--nope", "1"]), &["bits"]).unwrap_err();
        assert!(err.to_string().contains("--nope"));
    }

    #[test]
    fn missing_value_rejected() {
        let err = Flags::parse(&argv(&["--bits"]), &["bits"]).unwrap_err();
        assert!(err.to_string().contains("needs a value"));
    }

    #[test]
    fn positional_rejected() {
        let err = Flags::parse(&argv(&["17"]), &["bits"]).unwrap_err();
        assert!(err.to_string().contains("positional"));
    }

    #[test]
    fn unparsable_value_rejected() {
        let f = Flags::parse(&argv(&["--bits", "soup"]), &["bits"]).unwrap();
        assert!(f.get_or("bits", 0usize).is_err());
    }

    #[test]
    fn non_finite_numbers_rejected() {
        for raw in ["nan", "NaN", "inf", "-inf", "1e400"] {
            let f = Flags::parse(&argv(&["--gbps", raw]), &["gbps"]).unwrap();
            let err = f.get_or("gbps", 4.1f64).unwrap_err();
            assert!(err.to_string().contains("finite"), "{raw}: {err}");
        }
        let f = Flags::parse(&argv(&["--gbps", "1e300"]), &["gbps"]).unwrap();
        assert!(f.get_or("gbps", 4.1f64).is_ok(), "large finite values pass");
    }

    #[test]
    fn switches_take_no_value() {
        let f = Flags::parse_with_switches(
            &argv(&["--progress", "--bits", "9"]),
            &["bits"],
            &["progress"],
        )
        .unwrap();
        assert!(f.is_set("progress"));
        assert!(!f.is_set("quiet"));
        assert_eq!(f.get_or("bits", 0usize).unwrap(), 9);
    }

    #[test]
    fn unknown_flag_error_lists_switches_too() {
        let err = Flags::parse_with_switches(&argv(&["--nope", "1"]), &["bits"], &["progress"])
            .unwrap_err();
        assert!(err.to_string().contains("--progress"));
    }
}
