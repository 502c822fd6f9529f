//! Value-change-dump (VCD) export of recorded waveforms.
//!
//! VCD is the lingua franca of waveform viewers (GTKWave & friends).
//! Analog node voltages are exported as IEEE-1364 `real` variables, so a
//! transient result can be inspected next to RTL traces.

use crate::waveform::Waveform;
use std::io::{self, Write};

/// Time resolution of the exported dump.
const TIMESCALE_FS: f64 = 1.0e-15;

/// A named waveform set destined for one VCD file.
///
/// # Examples
///
/// ```
/// use srlr_circuit::{vcd::VcdExporter, Waveform};
/// use srlr_units::{TimeInterval, Voltage};
///
/// let wave = Waveform::from_samples([
///     (TimeInterval::zero(), Voltage::zero()),
///     (TimeInterval::from_picoseconds(10.0), Voltage::from_volts(0.8)),
/// ]);
/// let mut vcd = VcdExporter::new("srlr");
/// vcd.add("out", &wave);
/// let text = vcd.render();
/// assert!(text.starts_with("$date"));
/// assert!(text.contains("$var real 64"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct VcdExporter {
    module: String,
    signals: Vec<(String, Waveform)>,
}

impl VcdExporter {
    /// Creates an exporter; `module` names the VCD scope.
    pub fn new(module: &str) -> Self {
        Self {
            module: module.to_owned(),
            signals: Vec::new(),
        }
    }

    /// Adds a signal.
    ///
    /// # Panics
    ///
    /// Panics if the waveform is empty or the name repeats.
    pub fn add(&mut self, name: &str, waveform: &Waveform) {
        assert!(!waveform.is_empty(), "cannot export an empty waveform");
        assert!(
            self.signals.iter().all(|(n, _)| n != name),
            "duplicate signal name {name}"
        );
        self.signals.push((name.to_owned(), waveform.clone()));
    }

    /// Number of signals added so far.
    pub fn len(&self) -> usize {
        self.signals.len()
    }

    /// `true` when no signals were added.
    pub fn is_empty(&self) -> bool {
        self.signals.is_empty()
    }

    /// The identifier code of the n-th signal (`!`, `"`, `#`, ...).
    fn code(index: usize) -> String {
        // VCD identifier characters span '!'..='~'.
        let mut i = index;
        let mut out = String::new();
        loop {
            #[expect(clippy::cast_possible_truncation, reason = "i % 94 < 94 fits in u8")]
            out.push(char::from(b'!' + (i % 94) as u8));
            i /= 94;
            if i == 0 {
                break;
            }
        }
        out
    }

    /// Streams the VCD text to any [`io::Write`] sink — a file, a pipe,
    /// or an in-memory buffer. Unlike the old all-in-one-`String`
    /// renderer, nothing but the (deduplicated, sorted) value-change
    /// index is buffered, so multi-million-sample dumps stream straight
    /// to disk.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    ///
    /// # Panics
    ///
    /// Panics if no signals were added.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        assert!(!self.signals.is_empty(), "no signals to export");
        w.write_all(b"$date srlr reproduction $end\n")?;
        w.write_all(b"$version srlr-circuit vcd exporter $end\n")?;
        w.write_all(b"$timescale 1 fs $end\n")?;
        writeln!(w, "$scope module {} $end", self.module)?;
        for (i, (name, _)) in self.signals.iter().enumerate() {
            writeln!(w, "$var real 64 {} {} $end", Self::code(i), name)?;
        }
        w.write_all(b"$upscope $end\n$enddefinitions $end\n")?;

        // Merge all sample times, emitting value changes in time order.
        let mut events: Vec<(u64, usize, f64)> = Vec::new();
        for (i, (_, wave)) in self.signals.iter().enumerate() {
            let mut last: Option<f64> = None;
            for (t, v) in wave.iter() {
                let volts = v.volts();
                if last.is_some_and(|l| (l - volts).abs() < 1e-9) {
                    continue;
                }
                last = Some(volts);
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "simulation times are non-negative and far below u64::MAX femtoseconds; `as` saturates"
                )]
                let ticks = (t.seconds() / TIMESCALE_FS).round() as u64;
                events.push((ticks, i, volts));
            }
        }
        events.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));

        let mut current_time = None;
        for (ticks, signal, volts) in events {
            if current_time != Some(ticks) {
                writeln!(w, "#{ticks}")?;
                current_time = Some(ticks);
            }
            writeln!(w, "r{volts:.6} {}", Self::code(signal))?;
        }
        Ok(())
    }

    /// Renders the VCD text into a `String` (convenience wrapper over
    /// [`VcdExporter::write_to`]).
    ///
    /// # Panics
    ///
    /// Panics if no signals were added.
    pub fn render(&self) -> String {
        let mut buf = Vec::new();
        // Writing into a Vec cannot fail.
        self.write_to(&mut buf).unwrap_or_default();
        String::from_utf8_lossy(&buf).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srlr_units::{TimeInterval, Voltage};

    fn wave(points: &[(f64, f64)]) -> Waveform {
        Waveform::from_samples(
            points
                .iter()
                .map(|&(ps, v)| (TimeInterval::from_picoseconds(ps), Voltage::from_volts(v))),
        )
    }

    #[test]
    fn renders_header_and_values() {
        let mut vcd = VcdExporter::new("dut");
        vcd.add("x", &wave(&[(0.0, 0.55), (10.0, 0.1), (20.0, 0.55)]));
        let text = vcd.render();
        assert!(text.contains("$timescale 1 fs $end"));
        assert!(text.contains("$scope module dut $end"));
        assert!(text.contains("$var real 64 ! x $end"));
        assert!(text.contains("#0"));
        assert!(text.contains("r0.550000 !"));
        assert!(text.contains("#10000"), "10 ps = 10,000 fs");
    }

    #[test]
    fn multiple_signals_get_distinct_codes() {
        let mut vcd = VcdExporter::new("dut");
        vcd.add("a", &wave(&[(0.0, 0.0)]));
        vcd.add("b", &wave(&[(0.0, 1.0)]));
        let text = vcd.render();
        assert!(text.contains("$var real 64 ! a $end"));
        assert!(text.contains("$var real 64 \" b $end"));
        assert_eq!(vcd.len(), 2);
    }

    #[test]
    fn repeated_values_are_deduplicated() {
        let mut vcd = VcdExporter::new("dut");
        vcd.add("flat", &wave(&[(0.0, 0.4), (1.0, 0.4), (2.0, 0.4)]));
        let text = vcd.render();
        assert_eq!(text.matches("r0.400000").count(), 1);
    }

    #[test]
    fn write_to_and_render_agree_byte_for_byte() {
        let mut vcd = VcdExporter::new("dut");
        vcd.add("a", &wave(&[(0.0, 0.0), (10.0, 0.8)]));
        vcd.add("b", &wave(&[(0.0, 0.55), (10.0, 0.1)]));
        let mut buf = Vec::new();
        vcd.write_to(&mut buf).expect("vec write cannot fail");
        assert_eq!(String::from_utf8(buf).expect("utf8"), vcd.render());
    }

    #[test]
    fn write_to_propagates_io_errors() {
        struct Failing;
        impl std::io::Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("sink full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut vcd = VcdExporter::new("dut");
        vcd.add("x", &wave(&[(0.0, 0.1)]));
        assert!(vcd.write_to(&mut Failing).is_err());
    }

    #[test]
    fn codes_extend_past_94_signals() {
        assert_eq!(VcdExporter::code(0), "!");
        assert_eq!(VcdExporter::code(93), "~");
        assert_eq!(VcdExporter::code(94), "!\"");
    }

    #[test]
    #[should_panic(expected = "duplicate signal")]
    fn duplicate_names_rejected() {
        let mut vcd = VcdExporter::new("dut");
        vcd.add("x", &wave(&[(0.0, 0.0)]));
        vcd.add("x", &wave(&[(0.0, 0.0)]));
    }

    #[test]
    #[should_panic(expected = "no signals")]
    fn empty_export_rejected() {
        let _ = VcdExporter::new("dut").render();
    }

    #[test]
    fn fig4_waveforms_export_cleanly() {
        use srlr_tech::Technology;
        // Smoke test against real simulator output (pulled from core via
        // a tiny RC so this crate stays below core in the DAG).
        use crate::{Netlist, Stimulus, Transient};
        use srlr_units::{Capacitance, Resistance};
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.force(
            a,
            Stimulus::step(
                Voltage::zero(),
                Technology::soi45().vdd,
                TimeInterval::from_picoseconds(5.0),
            ),
        );
        net.add_resistor(a, b, Resistance::from_kilohms(1.0));
        net.add_capacitance(b, Capacitance::from_femtofarads(20.0));
        let result = Transient::new(&net).run(TimeInterval::from_picoseconds(200.0));
        let mut vcd = VcdExporter::new("rc");
        vcd.add("a", &result.waveform(a));
        vcd.add("b", &result.waveform(b));
        let text = vcd.render();
        assert!(text.len() > 500);
        assert!(text.lines().filter(|l| l.starts_with('#')).count() > 10);
    }
}
