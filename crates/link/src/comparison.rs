//! Table I assembly: the measured row of this reproduction next to the
//! published prior-work rows.

use crate::baselines::PublishedInterconnect;
use crate::link::SrlrLink;
use srlr_tech::Technology;
use srlr_units::{BandwidthDensity, DataRate, EnergyPerBitLength};

/// One row of the comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Design label.
    pub label: String,
    /// Signaling style.
    pub signaling: String,
    /// Data rate.
    pub data_rate: DataRate,
    /// Bandwidth density.
    pub bandwidth_density: BandwidthDensity,
    /// 10 mm link-traversal energy.
    pub energy: EnergyPerBitLength,
    /// Repeater count description.
    pub repeaters: String,
    /// Process.
    pub process: String,
}

impl From<PublishedInterconnect> for ComparisonRow {
    fn from(p: PublishedInterconnect) -> Self {
        Self {
            label: p.label.to_owned(),
            signaling: p.signaling.to_owned(),
            data_rate: p.data_rate,
            bandwidth_density: p.bandwidth_density,
            energy: p.energy,
            repeaters: p.repeaters.to_owned(),
            process: p.process.to_owned(),
        }
    }
}

/// The assembled Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonTable {
    rows: Vec<ComparisonRow>,
}

impl ComparisonTable {
    /// Builds Table I: the five published prior-work rows, the paper's
    /// published row, and this reproduction's *measured* row (from the
    /// simulated test chip).
    pub fn paper_table1(tech: &Technology) -> Self {
        let mut rows: Vec<ComparisonRow> = PublishedInterconnect::prior_works()
            .into_iter()
            .map(ComparisonRow::from)
            .collect();
        rows.push(PublishedInterconnect::this_work_published().into());

        let metrics = SrlrLink::paper_test_chip(tech).metrics();
        rows.push(ComparisonRow {
            label: "This Work (measured)".to_owned(),
            signaling: "single-ended".to_owned(),
            data_rate: metrics.data_rate,
            bandwidth_density: metrics.bandwidth_density,
            energy: metrics.energy,
            repeaters: "10 repeaters".to_owned(),
            process: tech.name.to_owned(),
        });
        Self { rows }
    }

    /// The rows, prior works first.
    pub fn rows(&self) -> &[ComparisonRow] {
        &self.rows
    }

    /// The measured row (always last).
    ///
    /// # Panics
    ///
    /// Panics if the table is empty (cannot happen via
    /// [`Self::paper_table1`]).
    pub fn measured(&self) -> &ComparisonRow {
        #[expect(
            clippy::expect_used,
            reason = "documented panic: table construction always appends the measured row, see # Panics"
        )]
        self.rows.last().expect("table has rows")
    }

    /// Renders the table as aligned plain text (the bench harness output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<26} {:<19} {:>9} {:>12} {:>13} {:<14} {}\n",
            "Design", "Signaling", "Rate", "BW density", "10mm LT", "Repeaters", "Process"
        ));
        out.push_str(&format!(
            "{:<26} {:<19} {:>9} {:>12} {:>13} {:<14} {}\n",
            "", "", "[Gb/s]", "[Gb/s/um]", "[fJ/bit/cm]", "", ""
        ));
        out.push_str(&"-".repeat(110));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!(
                "{:<26} {:<19} {:>9.2} {:>12.3} {:>13.1} {:<14} {}\n",
                r.label,
                r.signaling,
                r.data_rate.gigabits_per_second(),
                r.bandwidth_density.gigabits_per_second_per_micrometer(),
                r.energy.femtojoules_per_bit_per_centimeter(),
                r.repeaters,
                r.process,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ComparisonTable {
        ComparisonTable::paper_table1(&Technology::soi45())
    }

    #[test]
    fn table_has_seven_rows() {
        // 5 prior + published + measured.
        assert_eq!(table().rows().len(), 7);
    }

    #[test]
    fn measured_row_tracks_published_shape() {
        let t = table();
        let measured = t.measured();
        let published = &t.rows()[5];
        assert_eq!(published.label, "This Work (published)");
        // Same rate and density by construction; energy within the
        // calibration band (paper: 404 fJ/bit/cm).
        assert_eq!(measured.data_rate, published.data_rate);
        let e = measured.energy.femtojoules_per_bit_per_centimeter();
        assert!(e > 250.0 && e < 600.0, "measured {e} fJ/bit/cm");
    }

    #[test]
    fn measured_keeps_the_papers_win_on_density() {
        let t = table();
        let measured = t.measured();
        for r in &t.rows()[..5] {
            assert!(
                measured.bandwidth_density > r.bandwidth_density,
                "measured row loses density to {}",
                r.label
            );
        }
    }

    #[test]
    fn render_contains_headers_and_all_rows() {
        let s = table().render();
        assert!(s.contains("BW density"));
        assert!(s.contains("fJ/bit/cm"));
        assert!(s.contains("[25] Mensink"));
        assert!(s.contains("This Work (measured)"));
        assert_eq!(s.lines().count(), 3 + 7);
    }
}
