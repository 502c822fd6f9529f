//! Shmoo characterisation: the pass/fail map over (data rate, swing) that
//! silicon bring-up produces on day one.
//!
//! Each cell of the map builds the link at that design point and runs the
//! stress patterns; the rendered plot makes the operating region and its
//! boundaries (ISI ceiling, sensitivity floor) visible at a glance.

use crate::certify::{self, Screen};
use crate::link::{LinkConfig, SrlrLink};
use crate::lockstep::Lockstep;
use crate::prbs::Prbs;
use srlr_core::SrlrDesign;
use srlr_tech::{GlobalVariation, Technology};
use srlr_units::{DataRate, Voltage};

/// The pass/fail map.
#[derive(Debug, Clone, PartialEq)]
pub struct ShmooPlot {
    /// Swing axis (rows, ascending).
    pub swings: Vec<Voltage>,
    /// Rate axis (columns, ascending).
    pub rates: Vec<DataRate>,
    /// `pass[row][col]`.
    pub pass: Vec<Vec<bool>>,
}

impl ShmooPlot {
    /// Characterises `design` over the given axes on one die, with
    /// `threads` workers (`None` defers to `SRLR_THREADS` / the
    /// machine). Cells are independent design points, so the map is
    /// evaluated as one flat parallel workload; the result is identical
    /// at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if either axis is empty.
    pub fn measure(
        tech: &Technology,
        design: &SrlrDesign,
        var: &GlobalVariation,
        swings: Vec<Voltage>,
        rates: Vec<DataRate>,
        prbs_bits: usize,
        threads: Option<usize>,
    ) -> Self {
        assert!(
            !swings.is_empty() && !rates.is_empty(),
            "shmoo axes must be non-empty"
        );
        let mut stress: Vec<Vec<bool>> = vec![
            [true, false].repeat(32),
            [true, true, true, true, false].repeat(13),
            vec![true; 64],
        ];
        stress.push(Prbs::prbs15().take_bits(prbs_bits));

        // Per-row design elaboration is invariant across the rate axis:
        // hoist it so each design is swing-adjusted once, not per cell.
        let row_designs: Vec<SrlrDesign> = swings
            .iter()
            .map(|&swing| design.with_nominal_swing(swing))
            .collect();

        // Cells are evaluated in screened batches: proven clean dies skip
        // simulation, and so do refuted ones, which lose the solitary `1`
        // that opens the first stress pattern. The rest run the stress
        // patterns in one lockstep DieBatch per work item. Identical
        // verdicts to per-cell `transmits_cleanly` (the batched-engine
        // contract).
        const BATCH_WIDTH: usize = 32;
        let cols = rates.len();
        let total = swings.len() * cols;
        let n_threads = srlr_parallel::resolve_threads(threads);
        let n_batches = total.div_ceil(BATCH_WIDTH);
        let chunks = srlr_parallel::par_map_indexed(n_batches, n_threads, |b| {
            let first = b * BATCH_WIDTH;
            let count = BATCH_WIDTH.min(total - first);
            let mut pass = vec![false; count];
            let mut lanes: Vec<(usize, SrlrLink)> = Vec::new();
            for (k, slot) in pass.iter_mut().enumerate() {
                let i = first + k;
                let (row, col) = (i / cols, i % cols);
                let config = LinkConfig::paper_default().with_data_rate(rates[col]);
                let link = SrlrLink::on_die(tech, &row_designs[row], config, var);
                match certify::screen(&link) {
                    Screen::Clean => *slot = true,
                    Screen::Refuted => {}
                    Screen::Undecided => lanes.push((k, link)),
                }
            }
            if !lanes.is_empty() {
                let mut run = Lockstep::new(&lanes);
                let mut prof = srlr_telemetry::Profiler::disabled();
                for p in &stress {
                    run.check_shared(p, &mut prof);
                }
                for (lane, (k, _)) in lanes.iter().enumerate() {
                    pass[*k] = run.verdicts()[lane];
                }
            }
            pass
        });
        let cells = chunks.concat();
        let pass = cells.chunks(cols).map(<[bool]>::to_vec).collect();
        Self {
            swings,
            rates,
            pass,
        }
    }

    /// Fraction of passing cells.
    // srlr-lint: allow(raw-f64-api, reason = "pass fraction is dimensionless")
    pub fn pass_fraction(&self) -> f64 {
        let total = self.swings.len() * self.rates.len();
        let passing: usize = self
            .pass
            .iter()
            .map(|r| r.iter().filter(|&&b| b).count())
            .sum();
        passing as f64 / total as f64
    }

    /// Whether a specific cell passes.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn passes(&self, swing_idx: usize, rate_idx: usize) -> bool {
        self.pass[swing_idx][rate_idx]
    }

    /// Renders the classic shmoo: swing rows (descending), rate columns,
    /// `+` pass / `.` fail.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (row, &swing) in self.swings.iter().enumerate().rev() {
            out.push_str(&format!("{:>7.0} mV |", swing.millivolts()));
            for cell in &self.pass[row] {
                out.push(if *cell { '+' } else { '.' });
            }
            out.push('\n');
        }
        out.push_str(&format!("{:>10} +", ""));
        out.push_str(&"-".repeat(self.rates.len()));
        out.push('\n');
        out.push_str(&format!(
            "{:>12}{:.1} .. {:.1} Gb/s\n",
            "",
            self.rates[0].gigabits_per_second(),
            self.rates[self.rates.len() - 1].gigabits_per_second()
        ));
        out
    }
}

/// The paper design's default shmoo axes: swings 250–600 mV, rates
/// 1–8 Gb/s, with `threads` workers (`None` defers to `SRLR_THREADS` /
/// the machine).
pub fn paper_shmoo(tech: &Technology, prbs_bits: usize, threads: Option<usize>) -> ShmooPlot {
    let design = SrlrDesign::paper_proposed(tech);
    let swings: Vec<Voltage> = (5..=12)
        .map(|i| Voltage::from_millivolts(f64::from(i) * 50.0))
        .collect();
    let rates: Vec<DataRate> = (2..=16)
        .map(|i| DataRate::from_gigabits_per_second(f64::from(i) * 0.5))
        .collect();
    ShmooPlot::measure(
        tech,
        &design,
        &GlobalVariation::nominal(),
        swings,
        rates,
        prbs_bits,
        threads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plot() -> ShmooPlot {
        paper_shmoo(&Technology::soi45(), 256, None)
    }

    #[test]
    fn paper_point_is_inside_the_passing_region() {
        let p = plot();
        // swing 450 mV = row index 4 (250 + 4*50); rate 4.0 Gb/s = col 6.
        let row = p
            .swings
            .iter()
            .position(|s| (s.millivolts() - 450.0).abs() < 1.0)
            .expect("450 mV on the axis");
        let col = p
            .rates
            .iter()
            .position(|r| (r.gigabits_per_second() - 4.0).abs() < 0.01)
            .expect("4 Gb/s on the axis");
        assert!(p.passes(row, col), "\n{}", p.render());
    }

    #[test]
    fn low_swing_floor_fails() {
        let p = plot();
        assert!(!p.passes(0, 0), "250 mV cannot signal:\n{}", p.render());
    }

    #[test]
    fn extreme_rate_ceiling_fails() {
        let p = plot();
        let last_rate = p.rates.len() - 1;
        // 8 Gb/s is beyond the cliff at every swing.
        assert!(
            (0..p.swings.len()).all(|r| !p.passes(r, last_rate)),
            "\n{}",
            p.render()
        );
    }

    #[test]
    fn passing_region_is_rate_monotone_per_swing() {
        // Within one swing row, once the rate fails it stays failed.
        let p = plot();
        for row in 0..p.swings.len() {
            let mut failed = false;
            for col in 0..p.rates.len() {
                if !p.passes(row, col) {
                    failed = true;
                } else {
                    assert!(!failed, "pass after fail at row {row}:\n{}", p.render());
                }
            }
        }
    }

    #[test]
    fn pass_fraction_is_sane() {
        let f = plot().pass_fraction();
        assert!(f > 0.1 && f < 0.9, "pass fraction {f}");
    }

    #[test]
    fn parallel_shmoo_matches_serial() {
        let tech = Technology::soi45();
        let serial = paper_shmoo(&tech, 128, Some(1));
        for threads in [2usize, 8] {
            assert_eq!(
                serial,
                paper_shmoo(&tech, 128, Some(threads)),
                "threads={threads} diverged from the serial shmoo"
            );
        }
    }

    #[test]
    fn batched_shmoo_matches_per_cell_scalar_transmission() {
        // Every cell of the batched map must equal the straightforward
        // one-link-at-a-time stress check it replaced.
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let var = GlobalVariation::nominal();
        let prbs_bits = 64;
        let p = paper_shmoo(&tech, prbs_bits, None);
        let mut stress: Vec<Vec<bool>> = vec![
            [true, false].repeat(32),
            [true, true, true, true, false].repeat(13),
            vec![true; 64],
        ];
        stress.push(Prbs::prbs15().take_bits(prbs_bits));
        for (row, &swing) in p.swings.iter().enumerate() {
            let d = design.with_nominal_swing(swing);
            for (col, &rate) in p.rates.iter().enumerate() {
                let config = LinkConfig::paper_default().with_data_rate(rate);
                let link = SrlrLink::on_die(&tech, &d, config, &var);
                let scalar = stress.iter().all(|s| link.transmits_cleanly(s));
                assert_eq!(
                    p.passes(row, col),
                    scalar,
                    "cell ({row}, {col}) diverged from the scalar stress check"
                );
            }
        }
    }

    #[test]
    fn render_shape() {
        let p = plot();
        let text = p.render();
        assert!(text.contains('+') && text.contains('.'));
        assert_eq!(text.lines().count(), p.swings.len() + 2);
    }

    #[test]
    #[should_panic(expected = "axes must be non-empty")]
    fn empty_axes_rejected() {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let _ = ShmooPlot::measure(
            &tech,
            &design,
            &GlobalVariation::nominal(),
            vec![],
            vec![DataRate::from_gigabits_per_second(4.0)],
            64,
            None,
        );
    }
}
