//! The subcommand implementations.

use crate::args::Flags;
use crate::fig8::{fig8_point, fig8_published_points, Fig8Point, RATE_MARGIN};
use crate::report::{ascii_scatter, paper_vs_measured, section};
use crate::CliError;
use srlr_core::sizing::SizingExplorer;
use srlr_core::{DelayCellDesign, DriverKind, SrlrArea, SrlrChain, SrlrDesign, StageEnergyModel};
use srlr_link::ber::{max_data_rate, BerTester};
use srlr_link::montecarlo::McExperiment;
use srlr_link::{
    measure_eye, ComparisonTable, LinkConfig, LinkErrorModel, MulticastLink, SrlrLink,
};
use srlr_noc::bufferless::DeflectionNetwork;
use srlr_noc::traffic::Pattern;
use srlr_noc::{
    ber_sweep_observed, Coord, DatapathKind, ExpressComparison, ExpressTopology, FaultConfig, Mesh,
    MulticastAccounting, Network, NocConfig, PowerModel, PublishedBreakdown, RouterAreaModel,
};
use srlr_tech::{AdaptiveSwingBias, GlobalVariation, ProcessCorner, Technology};
use srlr_telemetry::sarif::SarifDoc;
use srlr_telemetry::{Collector, Obs, Progress, RunReport, Value};
use srlr_units::{DataRate, Frequency, Length, Voltage};
use std::fmt::Write as _;

/// The help text.
pub fn help() -> String {
    HELP.to_owned()
}

/// `srlr help`. Continuation lines keep their indentation: only the
/// first line ends in a `\` (which would also strip the next line's
/// leading spaces), so the text below prints as laid out.
const HELP: &str = "\
srlr — reproduce the DATE'13 SRLR paper's experiments

commands:
  table1                           Table I + Sec. IV headline numbers
  fig6   [--runs N] [--threads T]  Monte Carlo error probability vs swing
  fig8                             energy vs bandwidth density sweep
  waveforms                        Fig. 4 transient waveforms (ASCII)
  pulse-width                      Sec. III pulse-width drift across
                                   stages + '11110' driver headroom
  router                           Sec. IV router power split, area,
                                   floorplan, SRLR vs full-swing and
                                   bufferless vs VC on the 8x8 mesh
  ablation [--runs N]              Monte Carlo ablation of the Sec. III
                                   techniques + multicast energy
  latency                          8x8 mesh latency vs offered load
  ber    [--bits N] [--gbps R]     PRBS bit-error-rate run
  eye    [--bits N]                demodulator eye margins
  noc    [--cols C] [--rows R] [--load F] [--datapath srlr|full]
  noc-faults [--bers L | --swings MV] [--load F] [--threads T]
                                   BER-driven fault injection sweep:
                                   delivered rate, p99 latency, retry
                                   energy (swings in mV measure the
                                   link's effective BER first)
  express [--interval K]           express-channel trade-off analysis
  sizing                           M1/M2 design-space sweep
  shmoo  [--bits N] [--threads T]  rate x swing pass/fail map
  supply                           VDD-scaling frontier
  temp                             temperature sweep (-40..105 C)
  bathtub [--jitter PS] [--threads T]  BER vs rate under width jitter
  crosstalk                        neighbour-activity scenarios
  verify-noc [--cols C] [--rows R] [--ber B] [--retries LIST]
         [--packet-len L] [--variant correct|no-watermark]
         [--format text|json|sarif]
                                   exhaustive model check of the
                                   retry protocol: deadlock-freedom,
                                   no overtaking, termination, and
                                   the exact DTMC delivery rate
  profile --in FILE [--top N]      rank a folded profile's frames
                                   by self time (hotspot table)
  bench-diff --old A --new B [--tolerance F] [--abs-tolerance F]
         [--ignore csv]            structured diff of two run
                                   reports / bench snapshots; exit
                                   1 on an out-of-band change (the
                                   CI perf-regression gate)
  help                             this text

Workspace static analysis is the separate `srlr-lint` binary
(`srlr-lint --deny-all`; `srlr-lint --help` lists its flags).

--threads T: worker threads (0 or unset = SRLR_THREADS env var, then
the machine). Results are identical at every thread count.

telemetry (fig6, waveforms, noc, noc-faults, verify-noc):
  --trace-out FILE     Chrome trace_event JSON (Perfetto-loadable)
  --events-out FILE    JSONL structured-event stream
  --metrics-out FILE   versioned machine-readable run report
  --profile-out FILE   folded-stack self-profile (speedscope /
                       inferno-compatible; see `srlr profile`)
  --progress           decile progress to stderr (fig6, noc-faults)
Telemetry never perturbs results and its files are bit-identical at
every --threads count; profile timing lives in its own sink.
";

/// `srlr bathtub [--jitter PS] [--threads T]`.
pub fn bathtub(rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(rest, &["jitter", "bits", "threads"])?;
    let jitter_ps: f64 = flags.get_or("jitter", 3.0)?;
    let bits: usize = flags.get_or("bits", 2000)?;
    let threads = parse_threads(&flags)?;
    if jitter_ps < 0.0 || bits == 0 {
        return Err(CliError::Usage(
            "need non-negative jitter, positive bits".into(),
        ));
    }
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let rates: Vec<DataRate> = (7..=14)
        .map(|i| DataRate::from_gigabits_per_second(f64::from(i) * 0.5))
        .collect();
    let curve = srlr_link::bathtub::rate_bathtub_with_threads(
        &tech,
        &design,
        &rates,
        srlr_units::TimeInterval::from_picoseconds(jitter_ps),
        bits,
        8,
        threads,
    );
    Ok(format!(
        "BER bathtub with {jitter_ps} ps/stage width jitter\n\n{}",
        srlr_link::bathtub::render(&curve)
    ))
}

/// Parses the shared `--threads` flag: `0` (the default) means "decide
/// automatically" (`SRLR_THREADS`, then the machine); any other value
/// forces that worker count.
fn parse_threads(flags: &Flags) -> Result<Option<usize>, CliError> {
    let threads: usize = flags.get_or("threads", 0)?;
    Ok(if threads == 0 { None } else { Some(threads) })
}

/// The telemetry file-output flags accepted by the instrumented
/// subcommands (`fig6`, `waveforms`, `noc`, `noc-faults`,
/// `verify-noc`).
const TELEMETRY_FLAGS: [&str; 4] = ["trace-out", "metrics-out", "events-out", "profile-out"];

/// Parsed telemetry options of one invocation.
#[derive(Debug, Default)]
struct TelemetryOpts {
    trace_out: Option<String>,
    metrics_out: Option<String>,
    events_out: Option<String>,
    profile_out: Option<String>,
    progress: bool,
}

impl TelemetryOpts {
    /// Reads the telemetry flags (and the `--progress` switch, where the
    /// command accepts it) out of parsed flags.
    fn from_flags(flags: &Flags) -> Self {
        Self {
            trace_out: flags.get_str("trace-out").map(str::to_owned),
            metrics_out: flags.get_str("metrics-out").map(str::to_owned),
            events_out: flags.get_str("events-out").map(str::to_owned),
            profile_out: flags.get_str("profile-out").map(str::to_owned),
            progress: flags.is_set("progress"),
        }
    }

    /// Whether any file sink was requested (the collector only records
    /// when something will drain it).
    fn wants_collector(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some() || self.events_out.is_some()
    }

    /// The observability hooks for a run of `total` work items with
    /// timestamps in `timebase`. With `--profile-out` the profiler runs
    /// on the wall clock; timing lives in its own sink, so the event
    /// stream stays bit-identical whether or not profiling is on.
    fn obs(&self, timebase: &str, label: &str, total: u64) -> Obs {
        Obs {
            collector: if self.wants_collector() {
                Collector::enabled(timebase)
            } else {
                Collector::disabled()
            },
            progress: if self.progress {
                Progress::enabled(label, total)
            } else {
                Progress::disabled()
            },
            profiler: if self.profile_out.is_some() {
                srlr_telemetry::Profiler::enabled(srlr_telemetry::Clock::wall())
            } else {
                srlr_telemetry::Profiler::disabled()
            },
        }
    }

    /// Writes the folded-stack profile (`--profile-out`), one
    /// `path;to;frame <self-µs>` line per frame — loadable by
    /// speedscope and `inferno-flamegraph`, diffable by
    /// `srlr bench-diff`, rankable by `srlr profile`.
    fn write_profile(&self, profiler: &srlr_telemetry::Profiler) -> Result<(), CliError> {
        if let Some(path) = &self.profile_out {
            let folded = srlr_prof::fold(&profiler.snapshot());
            write_file(path, folded.as_bytes())?;
        }
        Ok(())
    }

    /// Drains the run's telemetry into the requested files: the Chrome
    /// `trace_event` document (`--trace-out`), the JSONL event stream
    /// (`--events-out`) and the versioned run report (`--metrics-out`).
    fn write(&self, collector: &Collector, report: &RunReport) -> Result<(), CliError> {
        if let Some(path) = &self.trace_out {
            write_file(path, collector.chrome_trace_json().as_bytes())?;
        }
        if let Some(path) = &self.events_out {
            let mut buf = Vec::new();
            collector
                .write_events_jsonl(&mut buf)
                .map_err(|e| CliError::Experiment(format!("cannot render `{path}`: {e}")))?;
            write_file(path, &buf)?;
        }
        if let Some(path) = &self.metrics_out {
            write_file(path, report.to_json().as_bytes())?;
        }
        Ok(())
    }
}

/// Writes one telemetry artifact, mapping I/O failure to an experiment
/// error.
fn write_file(path: &str, contents: &[u8]) -> Result<(), CliError> {
    std::fs::write(path, contents)
        .map_err(|e| CliError::Experiment(format!("cannot write `{path}`: {e}")))
}

/// `srlr crosstalk`.
pub fn crosstalk() -> Result<String, CliError> {
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let mut out = String::from("neighbour-activity (crosstalk) scenarios\n\n");
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>20}",
        "neighbours", "cliff", "energy @4.1 Gb/s"
    );
    for p in srlr_link::crosstalk::crosstalk_sweep(&tech, &design) {
        let _ = writeln!(
            out,
            "{:<12} {:>12} {:>14.1} fJ/b/mm",
            format!("{:?}", p.activity),
            p.max_rate.map_or("fails".to_owned(), |r| format!(
                "{:.1} Gb/s",
                r.gigabits_per_second()
            )),
            p.energy.femtojoules_per_bit_per_millimeter(),
        );
    }
    Ok(out)
}

/// `srlr shmoo [--bits N] [--threads T]`.
pub fn shmoo(rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(rest, &["bits", "threads"])?;
    let bits: usize = flags.get_or("bits", 512)?;
    let threads = parse_threads(&flags)?;
    if bits == 0 {
        return Err(CliError::Usage("--bits must be positive".into()));
    }
    let tech = Technology::soi45();
    let plot = srlr_link::shmoo::paper_shmoo_with_threads(&tech, bits, threads);
    Ok(format!(
        "rate x swing shmoo, nominal die ('+' pass, '.' fail)\n\n{}\npassing fraction: {:.0} %\n",
        plot.render(),
        plot.pass_fraction() * 100.0
    ))
}

/// `srlr supply`.
pub fn supply() -> Result<String, CliError> {
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let vdds: Vec<Voltage> = (6..=10)
        .map(|i| Voltage::from_volts(f64::from(i) / 10.0))
        .collect();
    let points = srlr_link::supply::supply_sweep(&tech, &design, &vdds);
    if points.is_empty() {
        return Err(CliError::Experiment("no rail could signal".into()));
    }
    let mut out = String::from("VDD scaling (rated at 0.7 x cliff)\n\n");
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>16} {:>12}",
        "VDD", "cliff", "energy", "power"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:>8} {:>9.1} Gb/s {:>12.1} fJ/b/mm {:>9.2} mW",
            p.vdd.to_string(),
            p.max_rate.gigabits_per_second(),
            p.energy.femtojoules_per_bit_per_millimeter(),
            p.power.milliwatts(),
        );
    }
    Ok(out)
}

/// `srlr temp`.
pub fn temp() -> Result<String, CliError> {
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let mut out =
        String::from("temperature sweep at 4.1 Gb/s (adaptive bias tracking; PRBS 4k bits)\n\n");
    let _ = writeln!(
        out,
        "{:>14} {:>10} {:>14}",
        "temperature", "errors", "worst ISI"
    );
    for celsius in [-40.0, 0.0, 27.0, 60.0, 85.0, 105.0] {
        let t = srlr_tech::Temperature::from_celsius(celsius);
        let var = t.as_variation();
        let link = SrlrLink::on_die(&tech, &design, LinkConfig::paper_default(), &var);
        let mut gen = srlr_link::Prbs::prbs15();
        let bits = gen.take_bits(4096);
        let outcome = link.transmit(&bits);
        let errors = bits
            .iter()
            .zip(&outcome.received)
            .filter(|(a, b)| a != b)
            .count();
        let _ = writeln!(
            out,
            "{:>14} {:>10} {:>14}",
            t.to_string(),
            errors,
            outcome.max_baseline.to_string()
        );
    }
    Ok(out)
}

/// `srlr table1`: Table I, then the Sec. IV test-chip numbers against
/// the paper (the BER bound is `srlr ber`).
pub fn table1() -> Result<String, CliError> {
    let tech = Technology::soi45();
    let mut out = ComparisonTable::paper_table1(&tech).render();
    let metrics = SrlrLink::paper_test_chip(&tech).metrics();
    let _ = writeln!(out, "\nmeasured test chip: {metrics}");

    out.push_str(&section(
        "Sec. IV — measured test-chip numbers vs the paper",
    ));
    out.push_str(&paper_vs_measured(
        "bandwidth density",
        "Gb/s/um",
        6.83,
        metrics
            .bandwidth_density
            .gigabits_per_second_per_micrometer(),
    ));
    out.push_str(&paper_vs_measured(
        "link-traversal energy",
        "fJ/bit/mm",
        40.4,
        metrics.energy.femtojoules_per_bit_per_millimeter(),
    ));
    out.push_str(&paper_vs_measured(
        "link power at 4.1 Gb/s",
        "mW",
        1.66,
        metrics.power.milliwatts(),
    ));
    let cliff = max_data_rate(
        &tech,
        &SrlrDesign::paper_proposed(&tech),
        LinkConfig::paper_default(),
        &GlobalVariation::nominal(),
        DataRate::from_gigabits_per_second(1.0),
        DataRate::from_gigabits_per_second(10.0),
        DataRate::from_gigabits_per_second(0.05),
    )
    .ok_or_else(|| CliError::Experiment("the nominal link fails at every rate".into()))?;
    let _ = writeln!(
        out,
        "stress-pattern failure cliff: {:.2} Gb/s (nominal die, no margin)",
        cliff.gigabits_per_second()
    );
    out.push_str(&paper_vs_measured(
        "rated maximum data rate (0.7 x cliff)",
        "Gb/s",
        4.1,
        cliff.gigabits_per_second() * RATE_MARGIN,
    ));
    let bias = AdaptiveSwingBias::paper_default(&tech);
    out.push_str(&paper_vs_measured(
        "bias power share of a 64-bit 10 mm link",
        "%",
        0.6,
        bias.power_fraction_of(metrics.power * 64.0) * 100.0,
    ));
    out.push_str("(BER: `srlr ber --bits N`; paper: zero errors over >1e9 bits => BER < 1e-9)\n");
    Ok(out)
}

/// `srlr fig6 [--runs N] [--threads T]` plus the telemetry flags: the
/// proposed-design sweep records one `trial` span per die.
pub fn fig6(rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse_with_switches(
        rest,
        &[
            "runs",
            "threads",
            "trace-out",
            "metrics-out",
            "events-out",
            "profile-out",
        ],
        &["progress"],
    )?;
    let runs: usize = flags.get_or("runs", 300)?;
    let threads = parse_threads(&flags)?;
    if runs == 0 {
        return Err(CliError::Usage("--runs must be positive".into()));
    }
    let tel = TelemetryOpts::from_flags(&flags);
    let tech = Technology::soi45();
    let exp = McExperiment::paper_default(&tech)
        .with_runs(runs)
        .with_threads(threads);
    let mut out = format!("Monte Carlo over {runs} dice per point\n\n");
    let swings: Vec<Voltage> = (7..=11)
        .map(|i| Voltage::from_millivolts(f64::from(i) * 50.0))
        .collect();
    let _ = writeln!(
        out,
        "{:>9} {:>22} {:>22}",
        "swing", "proposed", "straightforward"
    );
    let mut obs = tel.obs("trial-index", "fig6", (runs * swings.len()) as u64);
    let sweep_p = exp.swing_sweep_observed(&SrlrDesign::paper_proposed(&tech), &swings, &mut obs);
    let sweep_s = exp.swing_sweep(&SrlrDesign::straightforward(&tech), &swings);
    for ((swing, p), (_, s)) in sweep_p.iter().zip(&sweep_s) {
        let _ = writeln!(
            out,
            "{:>9} {:>22} {:>22}",
            swing.to_string(),
            p.to_string(),
            s.to_string()
        );
    }
    let (p, s, ratio) = exp.immunity_ratio();
    let _ = writeln!(
        out,
        "\nimmunity at the fabrication swing: proposed {p}, straightforward {s} => ratio {ratio:.2}x (paper: 3.7x)"
    );
    let mut report = RunReport::new("fig6");
    report.param("runs", Value::U64(runs as u64));
    report.param("swings", Value::U64(swings.len() as u64));
    report.metric("proposed_error_probability", Value::F64(p.estimate()));
    report.metric(
        "straightforward_error_probability",
        Value::F64(s.estimate()),
    );
    report.metric("immunity_ratio", Value::F64(ratio));
    report.absorb_collector(&obs.collector);
    tel.write(&obs.collector, &report)?;
    tel.write_profile(&obs.profiler)?;
    Ok(out)
}

/// `srlr fig8`: a summary table, then the full spacing sweep plotted
/// against the published silicon points.
pub fn fig8() -> Result<String, CliError> {
    /// The swept wire spacings in um.
    const SWEEP_UM: [f64; 7] = [0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.7];
    /// The spacings of the summary table, a subset of [`SWEEP_UM`].
    const SUMMARY_UM: [f64; 4] = [0.2, 0.3, 0.5, 0.7];
    let tech = Technology::soi45();
    let sweep: Vec<(f64, Fig8Point)> = SWEEP_UM
        .iter()
        .filter_map(|&space| fig8_point(&tech, space).map(|p| (space, p)))
        .collect();
    let published = fig8_published_points();
    let mut out = String::from("energy vs bandwidth density (rated at 0.7 x cliff)\n\n");
    let _ = writeln!(out, "{:<28} {:>12} {:>16}", "point", "Gb/s/um", "fJ/bit/cm");
    let summary = sweep
        .iter()
        .filter(|(space, _)| SUMMARY_UM.contains(space))
        .map(|(_, p)| p);
    for p in summary.chain(&published) {
        let _ = writeln!(
            out,
            "{:<28} {:>12.3} {:>16.1}",
            p.label, p.bandwidth_density_gbps_um, p.energy_fj_per_bit_cm
        );
    }

    out.push_str(&section("Fig. 8 — 1 cm LT energy vs bandwidth density"));
    out.push_str("\nmeasured SRLR sweep (each geometry rated at 0.7 x its error-free cliff):\n");
    let _ = writeln!(
        out,
        "{:<26} {:>14} {:>16}",
        "design point", "BW [Gb/s/um]", "LT [fJ/bit/cm]"
    );
    for (_, p) in &sweep {
        let _ = writeln!(
            out,
            "{:<26} {:>14.3} {:>16.1}",
            p.label, p.bandwidth_density_gbps_um, p.energy_fj_per_bit_cm
        );
    }
    let xy = |p: &Fig8Point| (p.bandwidth_density_gbps_um, p.energy_fj_per_bit_cm);
    let (ours_published, prior): (Vec<&Fig8Point>, Vec<&Fig8Point>) = published
        .iter()
        .partition(|p| p.label.contains("This Work"));
    let _ = writeln!(
        out,
        "\n{}",
        ascii_scatter(
            &[
                (
                    "SRLR measured sweep",
                    '*',
                    sweep.iter().map(|(_, p)| xy(p)).collect()
                ),
                (
                    "prior works (published)",
                    'o',
                    prior.into_iter().map(xy).collect()
                ),
                (
                    "this work (published)",
                    '#',
                    ours_published.into_iter().map(xy).collect()
                ),
            ],
            78,
            16,
        )
    );
    out.push_str(
        "Shape check: the SRLR curve sits below the differential designs at\n\
         equal density and extends to higher bandwidth density (single-ended\n\
         wiring), with energy rising as spacing tightens — as in the paper.\n",
    );
    Ok(out)
}

/// `srlr waveforms` plus the telemetry flags: the run report and
/// metrics carry the transient integrator's step statistics.
pub fn waveforms(rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(rest, &TELEMETRY_FLAGS)?;
    let tel = TelemetryOpts::from_flags(&flags);
    let tech = Technology::soi45();
    let mut obs = tel.obs("sim-s", "waveforms", 1);
    let mut collector = std::mem::take(&mut obs.collector);
    obs.profiler.enter("waveforms.transient");
    let waves = srlr_core::transient::SrlrTransientFixture::fig4_observed(&tech, &mut collector);
    obs.profiler.exit();
    let mut out = String::new();
    let _ = writeln!(out, "IN (peak {}):", waves.input.peak());
    out.push_str(&waves.input.ascii_plot(8, 80));
    let _ = writeln!(out, "\nnode X:");
    out.push_str(&waves.node_x.ascii_plot(8, 80));
    let _ = writeln!(out, "\nOUT (peak {}):", waves.output.peak());
    out.push_str(&waves.output.ascii_plot(8, 80));
    let _ = writeln!(out, "\nNEXT IN (peak {}):", waves.next_input.peak());
    out.push_str(&waves.next_input.ascii_plot(8, 80));
    out.push_str(&section("Fig. 4 — measured waveform properties"));
    out.push_str(&paper_vs_measured(
        "node X standby level (VDD - Vth)",
        "V",
        0.55,
        waves
            .node_x
            .value_at(srlr_units::TimeInterval::from_picoseconds(2.0))
            .volts(),
    ));
    let _ = writeln!(out, "input peak swing: {} (low swing)", waves.input.peak());
    let _ = writeln!(
        out,
        "output peak: {} (full swing), pulses: {}",
        waves.output.peak(),
        waves.output.pulse_widths(Voltage::from_volts(0.4)).len()
    );
    let _ = writeln!(
        out,
        "next-stage peak swing: {} (repeated low swing)",
        waves.next_input.peak()
    );
    let mut report = RunReport::new("waveforms");
    report.metric("input_peak_v", Value::F64(waves.input.peak().volts()));
    report.metric("output_peak_v", Value::F64(waves.output.peak().volts()));
    report.metric(
        "next_input_peak_v",
        Value::F64(waves.next_input.peak().volts()),
    );
    report.absorb_collector(&collector);
    tel.write(&collector, &report)?;
    tel.write_profile(&obs.profiler)?;
    Ok(out)
}

/// `srlr ber [--bits N] [--gbps R]`.
pub fn ber(rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(rest, &["bits", "gbps"])?;
    let bits: usize = flags.get_or("bits", 1_000_000)?;
    let gbps: f64 = flags.get_or("gbps", 4.1)?;
    if bits == 0 || gbps <= 0.0 {
        return Err(CliError::Usage("--bits and --gbps must be positive".into()));
    }
    let tech = Technology::soi45();
    let config =
        LinkConfig::paper_default().with_data_rate(DataRate::from_gigabits_per_second(gbps));
    let link = SrlrLink::on_die(
        &tech,
        &SrlrDesign::paper_proposed(&tech),
        config,
        &srlr_tech::GlobalVariation::nominal(),
    );
    let report = BerTester::prbs15().run(&link, bits);
    Ok(format!(
        "{report}\nenergy per bit: {}\n",
        report.energy_per_bit()
    ))
}

/// `srlr eye [--bits N]`.
pub fn eye(rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(rest, &["bits"])?;
    let bits: usize = flags.get_or("bits", 5_000)?;
    // PRBS-15 opens with 14 zeros: fewer bits carry no pulse to measure.
    if bits < 15 {
        return Err(CliError::Usage(
            "--bits must be at least 15 (PRBS-15 opens with 14 zeros)".into(),
        ));
    }
    let tech = Technology::soi45();
    let link = SrlrLink::paper_test_chip(&tech);
    let eye = measure_eye(&link, bits);
    Ok(format!(
        "{eye}\nopen: {}\n",
        if eye.is_open() { "yes" } else { "NO" }
    ))
}

/// `srlr noc [...]` plus the telemetry flags: with any telemetry sink
/// requested, the run traces the full flit lifecycle (inject, route,
/// CRC fail, retry, eject) and reports per-link utilisation.
pub fn noc(rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(
        rest,
        &[
            "cols",
            "rows",
            "load",
            "datapath",
            "cycles",
            "trace-out",
            "metrics-out",
            "events-out",
            "profile-out",
        ],
    )?;
    let tel = TelemetryOpts::from_flags(&flags);
    let cols: u16 = flags.get_or("cols", 8)?;
    let rows: u16 = flags.get_or("rows", 8)?;
    let load: f64 = flags.get_or("load", 0.05)?;
    let cycles: u64 = flags.get_or("cycles", 2000)?;
    if cols == 0 || rows == 0 || !(0.0..=1.0).contains(&load) || cycles == 0 {
        return Err(CliError::Usage(
            "need positive size/cycles and load in [0, 1]".into(),
        ));
    }
    let datapath = match flags.get_str("datapath").unwrap_or("srlr") {
        "srlr" => DatapathKind::SrlrLowSwing,
        "full" => DatapathKind::FullSwingRepeated,
        other => {
            return Err(CliError::Usage(format!(
                "--datapath must be `srlr` or `full`, got `{other}`"
            )))
        }
    };
    let tech = Technology::soi45();
    let config = NocConfig::paper_default()
        .with_size(cols, rows)
        .with_datapath(datapath);
    let mut net = Network::new(config);
    if tel.wants_collector() {
        net.enable_flit_telemetry();
    }
    let mut obs = tel.obs("cycle", "noc", cycles);
    let stats = net.run_warmup_and_measure_profiled(
        Pattern::UniformRandom,
        load,
        cycles / 4,
        cycles,
        &mut obs.profiler,
    );
    let model = PowerModel::for_datapath(&tech, config.flit_bits, datapath);
    let power = model.report(&stats.energy, cycles, config.clock, config.mesh().len());
    let collector = net.take_flit_telemetry().unwrap_or_default();
    let mut report = RunReport::new("noc");
    report.param("cols", Value::U64(u64::from(cols)));
    report.param("rows", Value::U64(u64::from(rows)));
    report.param("load", Value::F64(load));
    report.param("cycles", Value::U64(cycles));
    report.param("datapath", Value::Str(datapath.to_string()));
    report.metric("packets_injected", Value::U64(stats.packets_injected));
    report.metric("packets_received", Value::U64(stats.packets_received));
    if stats.packets_received > 0 {
        report.metric("avg_latency_cycles", Value::F64(stats.avg_latency_cycles()));
        report.metric(
            "throughput_flits_per_node_cycle",
            Value::F64(stats.throughput_flits_per_node_cycle()),
        );
    }
    for (name, value) in stats.latency_histogram.summary().metric_fields("latency") {
        report.metric(&name, value);
    }
    report.absorb_collector(&collector);
    tel.write(&collector, &report)?;
    tel.write_profile(&obs.profiler)?;
    Ok(format!(
        "{cols}x{rows} mesh, {datapath}, load {load}\ntraffic: {stats}\npower:   {power}\n"
    ))
}

/// Parses a comma-separated list of numbers (`"0,1e-5,1e-3"`).
fn parse_list(name: &str, raw: &str) -> Result<Vec<f64>, CliError> {
    raw.split(',')
        .map(|s| {
            s.trim()
                .parse::<f64>()
                .map_err(|_| CliError::Usage(format!("flag `--{name}` got unparsable entry `{s}`")))
        })
        .collect()
}

/// `srlr noc-faults [...]`: the fault-injection sweep. Either sweeps the
/// injected BER directly (`--bers`, comma-separated), or sweeps link
/// swing voltages (`--swings`, mV): each swing is measured over Monte
/// Carlo dice with the link physics and its *effective* BER (Wilson
/// upper bound when error-free) drives the injector.
pub fn noc_faults(rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse_with_switches(
        rest,
        &[
            "cols",
            "rows",
            "load",
            "cycles",
            "bers",
            "swings",
            "dice",
            "bits",
            "max-retries",
            "threads",
            "trace-out",
            "metrics-out",
            "events-out",
            "profile-out",
        ],
        &["progress"],
    )?;
    let tel = TelemetryOpts::from_flags(&flags);
    let cols: u16 = flags.get_or("cols", 8)?;
    let rows: u16 = flags.get_or("rows", 8)?;
    let load: f64 = flags.get_or("load", 0.05)?;
    let cycles: u64 = flags.get_or("cycles", 2000)?;
    let max_retries: u32 = flags.get_or("max-retries", 4)?;
    let dice: usize = flags.get_or("dice", 30)?;
    let bits: usize = flags.get_or("bits", 400)?;
    let threads = parse_threads(&flags)?;
    if cols == 0 || rows == 0 || !(0.0..=1.0).contains(&load) || cycles == 0 {
        return Err(CliError::Usage(
            "need positive size/cycles and load in [0, 1]".into(),
        ));
    }
    if flags.get_str("bers").is_some() && flags.get_str("swings").is_some() {
        return Err(CliError::Usage(
            "--bers and --swings are mutually exclusive".into(),
        ));
    }

    let mut header = format!("{cols}x{rows} mesh, load {load}, {max_retries} retries/flit\n");
    let (labels, bers): (Vec<String>, Vec<f64>) = if let Some(raw) = flags.get_str("swings") {
        if dice == 0 || bits == 0 {
            return Err(CliError::Usage("--dice and --bits must be positive".into()));
        }
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let mut labels = Vec::new();
        let mut bers = Vec::new();
        let _ = writeln!(
            header,
            "link BER measured over {dice} dice x {bits} PRBS bits per swing"
        );
        for mv in parse_list("swings", raw)? {
            if !(mv.is_finite() && mv > 0.0) {
                return Err(CliError::Usage(format!("bad swing `{mv}` mV")));
            }
            let point = design.with_nominal_swing(Voltage::from_millivolts(mv));
            let model = LinkErrorModel::measure(
                &tech,
                &point,
                LinkConfig::paper_default(),
                dice,
                bits,
                2013,
                threads,
            );
            // A completely broken swing can report BER -> 1; the injector
            // needs [0, 1), and beyond ~0.5 every word is corrupt anyway.
            bers.push(model.effective_ber().min(0.5));
            labels.push(format!("{mv:.0} mV"));
            let _ = writeln!(header, "  {mv:>5.0} mV: {model}");
        }
        (labels, bers)
    } else {
        let raw = flags.get_str("bers").unwrap_or("0,1e-5,1e-4,1e-3,1e-2");
        let bers = parse_list("bers", raw)?;
        for &b in &bers {
            if !(b.is_finite() && (0.0..1.0).contains(&b)) {
                return Err(CliError::Usage(format!("BER `{b}` outside [0, 1)")));
            }
        }
        (bers.iter().map(|b| format!("{b:.1e}")).collect(), bers)
    };
    if bers.is_empty() {
        return Err(CliError::Usage("need at least one sweep point".into()));
    }

    let config = NocConfig::paper_default().with_size(cols, rows);
    let template = FaultConfig::new(0.0).with_max_retries(max_retries);
    let mut obs = tel.obs("point-index", "noc-faults", bers.len() as u64);
    let points = ber_sweep_observed(
        config,
        template,
        Pattern::UniformRandom,
        load,
        cycles / 4,
        cycles,
        &bers,
        threads,
        &mut obs,
    );

    let tech = Technology::soi45();
    let model = PowerModel::for_datapath(&tech, config.flit_bits, config.datapath);
    let mut out = header;
    let _ = writeln!(
        out,
        "\n{:>10} {:>10} {:>10} {:>8} {:>9} {:>8} {:>14}",
        "point", "ber", "delivered", "p99", "retries", "dropped", "energy/bit"
    );
    for (label, point) in labels.iter().zip(&points) {
        let stats = &point.stats;
        let p99 = stats.latency_percentile(99.0).map_or_else(
            || format!(">{}", stats.latency_histogram.bins()),
            |v| v.to_string(),
        );
        let delivered_bits =
            stats.packets_received as f64 * (config.packet_len * config.flit_bits) as f64;
        let energy = model.dynamic_energy(&stats.energy);
        let per_bit = if delivered_bits > 0.0 {
            format!("{:.1} fJ/bit", energy.joules() / delivered_bits * 1e15)
        } else {
            "n/a".to_owned()
        };
        let _ = writeln!(
            out,
            "{:>10} {:>10.1e} {:>9.2}% {:>8} {:>9} {:>8} {:>14}",
            label,
            point.ber,
            stats.delivered_fraction() * 100.0,
            p99,
            stats.faults.flits_retransmitted,
            stats.packets_dropped,
            per_bit,
        );
    }
    let mut report = RunReport::new("noc-faults");
    report.param("cols", Value::U64(u64::from(cols)));
    report.param("rows", Value::U64(u64::from(rows)));
    report.param("load", Value::F64(load));
    report.param("cycles", Value::U64(cycles));
    report.param("max_retries", Value::U64(u64::from(max_retries)));
    report.param("points", Value::U64(points.len() as u64));
    for (i, (label, point)) in labels.iter().zip(&points).enumerate() {
        let section = format!("point.{i:03}");
        report.section_metric(&section, "label", Value::Str(label.clone()));
        report.section_metric(&section, "ber", Value::F64(point.ber));
        report.section_metric(
            &section,
            "delivered_fraction",
            Value::F64(point.stats.delivered_fraction()),
        );
        report.section_metric(
            &section,
            "flits_retransmitted",
            Value::U64(point.stats.faults.flits_retransmitted),
        );
        report.section_metric(
            &section,
            "packets_dropped",
            Value::U64(point.stats.packets_dropped),
        );
    }
    report.absorb_collector(&obs.collector);
    tel.write(&obs.collector, &report)?;
    tel.write_profile(&obs.profiler)?;
    Ok(out)
}

/// `srlr profile --in FILE [--top N]`: ranks the frames of a folded
/// profile (written by any sim subcommand's `--profile-out`) by self
/// time and prints the top-N hotspot table.
pub fn profile(rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(rest, &["in", "top"])?;
    let path = flags
        .get_str("in")
        .ok_or_else(|| CliError::Usage("profile needs --in FILE".into()))?;
    let top: usize = flags.get_or("top", 10)?;
    if top == 0 {
        return Err(CliError::Usage("--top must be positive".into()));
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Experiment(format!("cannot read `{path}`: {e}")))?;
    let lines = srlr_prof::parse_folded(&text)
        .map_err(|e| CliError::Experiment(format!("`{path}` is not a folded profile: {e}")))?;
    let spots = srlr_prof::hotspots(&lines, top);
    Ok(format!(
        "top {} of {} frames by self time ({path})\n\n{}",
        spots.len(),
        lines.len(),
        srlr_prof::render_table(&spots)
    ))
}

/// `srlr bench-diff --old A --new B [--tolerance F] [--abs-tolerance F]
/// [--ignore csv]`: structured diff of two run reports / bench
/// snapshots (any scalar-leaved JSON). Exit `0` when every change sits
/// inside the tolerance band, `1` on a regression (the CI gate), `2`
/// on usage errors — the same contract as `srlr-lint`.
pub fn bench_diff(rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(
        rest,
        &["old", "new", "tolerance", "abs-tolerance", "ignore"],
    )?;
    let old_path = flags
        .get_str("old")
        .ok_or_else(|| CliError::Usage("bench-diff needs --old FILE".into()))?;
    let new_path = flags
        .get_str("new")
        .ok_or_else(|| CliError::Usage("bench-diff needs --new FILE".into()))?;
    let rel_tol: f64 = flags.get_or("tolerance", 0.0)?;
    let abs_tol: f64 = flags.get_or("abs-tolerance", 0.0)?;
    if !(rel_tol.is_finite() && rel_tol >= 0.0 && abs_tol.is_finite() && abs_tol >= 0.0) {
        return Err(CliError::Usage(
            "tolerances must be finite and non-negative".into(),
        ));
    }
    let ignore: Vec<String> = flags
        .get_str("ignore")
        .map(|raw| {
            raw.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_owned)
                .collect()
        })
        .unwrap_or_default();
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| CliError::Experiment(format!("cannot read `{path}`: {e}")))
    };
    let opts = srlr_prof::DiffOptions {
        rel_tol,
        abs_tol,
        ignore,
    };
    let report = srlr_prof::diff_reports(&read(old_path)?, &read(new_path)?, &opts)
        .map_err(CliError::Experiment)?;
    let out = format!("old: {old_path}\nnew: {new_path}\n{}", report.render());
    if report.regressed() {
        Err(CliError::Experiment(out))
    } else {
        Ok(out)
    }
}

/// `srlr express [--interval K]`.
pub fn express(rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(rest, &["interval"])?;
    let interval: u16 = flags.get_or("interval", 4)?;
    if !(2..8).contains(&interval) {
        return Err(CliError::Usage("--interval must be in 2..8".into()));
    }
    let tech = Technology::soi45();
    let topo = ExpressTopology::new(Mesh::new(8, 8), interval);
    let c = ExpressComparison::evaluate(&tech, topo);
    let (e, l) = c.express_avg_hops;
    Ok(format!(
        "express interval {interval} on an 8x8 mesh\n\
         avg hops: mesh {:.2} vs express {:.2} ({:.2} express + {:.2} local) => {:.0} % fewer router visits\n\
         avg datapath energy/bit: mesh {} vs express {} (ratio {:.2}x)\n\
         driver area per express bit-lane: {:.0} um^2 vs {:.1} um^2 SRLR ({:.0}x)\n\
         extra ports at express stations: {}\n",
        c.srlr_avg_hops,
        e + l,
        e,
        l,
        c.hop_reduction() * 100.0,
        c.srlr_energy_per_bit,
        c.express_energy_per_bit,
        c.energy_ratio(),
        c.express_driver_area.square_micrometers(),
        c.srlr_cell_area.square_micrometers(),
        c.driver_area_ratio(),
        topo.extra_ports_at_stations(),
    ))
}

/// `srlr sizing`.
pub fn sizing() -> Result<String, CliError> {
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let explorer = SizingExplorer::new(&tech, design, 10);
    let um = srlr_units::Length::from_micrometers;
    let m1 = [um(0.15), um(0.3), um(0.6), um(1.2)];
    let m2 = [um(0.06), um(0.12), um(0.3)];
    let mut out = String::from("M1/M2 sizing sweep (10-stage chain, nominal + 5 corners)\n\n");
    let _ = writeln!(
        out,
        "{:>8} {:>8} {:>8} {:>9} {:>14} {:>16}",
        "M1 [um]", "M2 [um]", "nominal", "corners", "margin [mV]", "fJ/bit/mm"
    );
    for c in explorer.sweep(&m1, &m2) {
        let _ = writeln!(
            out,
            "{:>8.2} {:>8.2} {:>8} {:>8}/5 {:>14.1} {:>16.1}",
            c.m1_width.micrometers(),
            c.m2_width.micrometers(),
            if c.works_nominal { "ok" } else { "FAIL" },
            c.corners_passed,
            c.sense_margin.millivolts(),
            c.energy.femtojoules_per_bit_per_millimeter(),
        );
    }
    let best = explorer
        .best(&m1, &m2)
        .ok_or_else(|| CliError::Experiment("no viable sizing found".into()))?;
    let _ = writeln!(
        out,
        "\nlowest-energy viable point: M1 {:.2} um / M2 {:.2} um",
        best.m1_width.micrometers(),
        best.m2_width.micrometers()
    );
    Ok(out)
}

/// `srlr pulse-width`: Sec. III-A, eqs. (1)/(2) — pulse-width drift
/// across repeater stages at global corners, single vs alternating delay
/// cells — and the Sec. III-B driver headroom on the `11110` worst case.
pub fn pulse_width() -> Result<String, CliError> {
    let tech = Technology::soi45();
    let fixed_bias = SrlrDesign::paper_proposed(&tech).with_adaptive_swing(false);
    let mut out = section("Sec. III-A — output pulse widths W_out,n [ps] across 10 stages");
    out.push_str("(fixed bias so the corner bites; X = pulse lost)\n\n");
    let _ = writeln!(
        out,
        "{:>9} {:<12} W_out,0 .. W_out,10",
        "corner", "delay cell"
    );
    for mv in [0.0, 15.0, 25.0, 35.0, -25.0, -50.0] {
        for (label, cell) in [
            ("single", DelayCellDesign::single_paper()),
            ("alternating", DelayCellDesign::alternating_paper()),
        ] {
            let trace = width_trace(&tech, &fixed_bias.with_delay_cell(cell), mv);
            let _ = writeln!(out, "{mv:>+8.0}mV {label:<12} {trace}");
        }
    }
    out.push_str(
        "\nEq. (1): at slow corners the single design's widths shrink\n\
         monotonically (W_out,0 > W_out,1 > ...) until the bit-1 is lost;\n\
         Eq. (2): fast corners widen pulses toward the ISI limit.\n",
    );

    out.push_str(&section(
        "Sec. III-B — '11110' headroom per output driver at skew corners",
    ));
    out.push_str(
        "(highest data rate that still carries the worst-case pattern\n\
         cleanly, and the worst wire residue at 4.1 Gb/s)\n\n",
    );
    let _ = writeln!(
        out,
        "{:<30} {:<22} {:>14} {:>18}",
        "corner", "driver", "max clean rate", "residue @4.1 Gb/s"
    );
    let pattern: Vec<bool> = [true, true, true, true, false].repeat(10);
    for (corner, dn, dp) in [
        ("TT", 0.0, 0.0),
        ("weak PMOS (FS)", -60.0, 60.0),
        ("strong PMOS / weak NMOS (SF)", 60.0, -60.0),
    ] {
        let var = GlobalVariation {
            dvth_n: Voltage::from_millivolts(dn),
            dvth_p: Voltage::from_millivolts(dp),
            ..GlobalVariation::nominal()
        };
        for driver in [DriverKind::NmosBased, DriverKind::Inverter] {
            let design = SrlrDesign::paper_proposed(&tech).with_driver(driver);
            let clean = |gbps: f64| {
                let config = LinkConfig::paper_default()
                    .with_data_rate(DataRate::from_gigabits_per_second(gbps));
                let link = SrlrLink::on_die(&tech, &design, config, &var);
                link.transmit(&pattern).received == pattern
            };
            let max_rate = (10..=120)
                .map(|i| f64::from(i) * 0.1)
                .take_while(|&g| clean(g))
                .last();
            let link = SrlrLink::on_die(&tech, &design, LinkConfig::paper_default(), &var);
            let residue = link.transmit(&pattern).max_baseline;
            let _ = writeln!(
                out,
                "{corner:<30} {driver:<22} {:>11} {:>18}",
                max_rate.map_or("< 1 Gb/s".to_owned(), |g| format!("{g:.1} Gb/s")),
                residue.to_string()
            );
        }
    }
    out.push_str(
        "\nThe NMOS-based driver's swing is bias-limited, so the strong-PMOS\n\
         over-swing mode disappears and its worst-case headroom exceeds the\n\
         inverter's at the SF skew corner.\n",
    );
    Ok(out)
}

/// The output pulse widths in ps of a 10-stage chain at a global Vth
/// shift of `dvth_mv` on both device types; `X` marks a lost pulse.
fn width_trace(tech: &Technology, design: &SrlrDesign, dvth_mv: f64) -> String {
    let var = GlobalVariation {
        dvth_n: Voltage::from_millivolts(dvth_mv),
        dvth_p: Voltage::from_millivolts(dvth_mv),
        ..GlobalVariation::nominal()
    };
    let chain = design.instantiate(tech, &var, 10);
    chain
        .propagate_trace(chain.nominal_input_pulse())
        .iter()
        .map(|p| {
            if p.is_valid() {
                format!("{:>4.0}", p.width.picoseconds())
            } else {
                "   X".to_owned()
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// `srlr router`: the Sec. IV router power split, area accounting, the
/// Sec. I published NoC breakdowns, SRLR vs full-swing datapath power on
/// a live 8x8 mesh, the router floorplan, and bufferless vs VC routers.
pub fn router() -> Result<String, CliError> {
    Ok(router_report(8, 8))
}

/// [`router`]'s report with the live-mesh sections on a `cols` x `rows`
/// mesh.
pub(crate) fn router_report(cols: u16, rows: u16) -> String {
    let tech = Technology::soi45();
    let base = NocConfig::paper_default().with_size(cols, rows);
    let cal =
        PowerModel::paper_default(&tech).calibration_report(Frequency::from_gigahertz(1.0), 5);
    let mut out = section("Sec. IV — synthesized router power split (calibration point)");
    out.push_str(&paper_vs_measured(
        "input buffers",
        "mW",
        38.8,
        cal.buffers.milliwatts(),
    ));
    out.push_str(&paper_vs_measured(
        "control logic",
        "mW",
        5.2,
        cal.control.milliwatts(),
    ));
    out.push_str(&paper_vs_measured(
        "SRLR low-swing datapath (incl. bias)",
        "mW",
        12.9,
        (cal.datapath + cal.bias).milliwatts(),
    ));

    out.push_str(&section("Sec. I / Fig. 7 — area accounting"));
    let area = SrlrArea::paper_default();
    out.push_str(&paper_vs_measured(
        "SRLR cell area",
        "um^2",
        47.9,
        area.cell_area().square_micrometers(),
    ));
    out.push_str(&paper_vs_measured(
        "64b x 5-port datapath area",
        "mm^2",
        0.061,
        area.paper_datapath_area().square_millimeters(),
    ));
    out.push_str(&paper_vs_measured(
        "datapath share of router footprint",
        "%",
        18.0,
        area.datapath_fraction(64, 5, 4) * 100.0,
    ));

    out.push_str(&section("Sec. I — published mesh NoC power breakdowns"));
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>10} {:>10} {:>20}",
        "chip", "links", "crossbar", "buffers", "datapath (lnk+xbar)"
    );
    for b in PublishedBreakdown::all() {
        let _ = writeln!(
            out,
            "{:<12} {:>7.0}% {:>9.0}% {:>9.0}% {:>19.0}%",
            b.name,
            b.links_pct,
            b.crossbar_pct,
            b.buffers_pct,
            b.datapath_pct()
        );
    }

    // Every live-mesh run: uniform random traffic, 500 warm-up and 2000
    // measured cycles.
    let (warmup, measured) = (500, 2000);
    let run = |datapath: DatapathKind, load: f64| {
        let config = base.with_datapath(datapath);
        let stats = Network::new(config).run_warmup_and_measure(
            Pattern::UniformRandom,
            load,
            warmup,
            measured,
        );
        let model = PowerModel::for_datapath(&tech, config.flit_bits, datapath);
        let power = model.report(&stats.energy, measured, config.clock, config.mesh().len());
        (stats, power)
    };
    out.push_str(&section(&format!(
        "{cols}x{rows} mesh at uniform random load — SRLR vs full-swing datapath"
    )));
    for datapath in [DatapathKind::SrlrLowSwing, DatapathKind::FullSwingRepeated] {
        let (stats, power) = run(datapath, 0.06);
        let _ = writeln!(out, "\n{datapath}:");
        let _ = writeln!(out, "  traffic: {stats}");
        let _ = writeln!(out, "  power:   {power}");
        let _ = writeln!(
            out,
            "  datapath fraction of NoC power: {:.1} %",
            power.datapath_fraction() * 100.0
        );
    }
    out.push_str(
        "\nShape check: swapping the full-swing datapath for the SRLR cuts\n\
         the datapath component while buffers/control stay unchanged.\n",
    );
    let _ = writeln!(
        out,
        "\ndatapath + bias power across load:\n{:>6} {:>24} {:>24} {:>12}",
        "load", "SRLR datapath [mW]", "full-swing [mW]", "saving"
    );
    for load in [0.02, 0.05, 0.10, 0.15] {
        let [srlr, full] =
            [DatapathKind::SrlrLowSwing, DatapathKind::FullSwingRepeated].map(|datapath| {
                let (_, power) = run(datapath, load);
                (power.datapath + power.bias).milliwatts()
            });
        let _ = writeln!(
            out,
            "{load:>6.2} {srlr:>24.2} {full:>24.2} {:>11.1}%",
            (1.0 - srlr / full) * 100.0
        );
    }

    out.push_str(&section(
        "Router floorplan (derived, vs the paper's 0.34 mm^2)",
    ));
    out.push_str(&RouterAreaModel::paper_default().render(&NocConfig::paper_default()));

    out.push_str(&section(
        "Bufferless (deflection) vs VC routers — Sec. I's buffer-power argument",
    ));
    let (warmup, measured) = (400, 1600);
    let config = base.with_packet_len(1);
    let model = PowerModel::for_datapath(&tech, config.flit_bits, DatapathKind::SrlrLowSwing);
    let nodes = config.mesh().len();
    let vc_stats =
        Network::new(config).run_warmup_and_measure(Pattern::UniformRandom, 0.10, warmup, measured);
    let vc_power = model.report(&vc_stats.energy, measured, config.clock, nodes);
    let mut deflection = DeflectionNetwork::new(config);
    let dfl_stats =
        deflection.run_warmup_and_measure(Pattern::UniformRandom, 0.10, warmup, measured);
    let dfl_power = model.report(&dfl_stats.energy, measured, config.clock, nodes);
    let _ = writeln!(out, "VC router:   {vc_stats}");
    let _ = writeln!(out, "             {vc_power}");
    let _ = writeln!(out, "deflection:  {dfl_stats}");
    let _ = writeln!(
        out,
        "             {dfl_power}  ({} deflections)",
        deflection.deflections()
    );
    out.push_str(
        "\nBufferless removes the buffer component entirely, but its extra\n\
         link traversals land on the datapath — the component the paper\n\
         says is unavoidable and attacks with low-swing signaling instead.\n",
    );
    out
}

/// `srlr ablation [--runs N]`: Monte Carlo failure probability of all
/// eight combinations of the three Sec. III robustness techniques, the
/// repeater insertion-length ablation, and the Sec. II free-multicast
/// energy accounting.
pub fn ablation(rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(rest, &["runs"])?;
    let runs: usize = flags.get_or("runs", 500)?;
    if runs == 0 {
        return Err(CliError::Usage("--runs must be positive".into()));
    }
    let tech = Technology::soi45();
    let exp = McExperiment::paper_default(&tech).with_runs(runs);
    let base = SrlrDesign::paper_proposed(&tech);
    let mut out = section(&format!(
        "Ablation — Monte Carlo failure probability per technique combination ({runs} dice)"
    ));
    let _ = writeln!(
        out,
        "{:<14} {:<12} {:<10} {:>18}",
        "delay cell", "driver", "bias", "error probability"
    );
    for (cell_label, cell) in [
        ("alternating", DelayCellDesign::alternating_paper()),
        ("single", DelayCellDesign::single_paper()),
    ] {
        for (driver_label, driver) in [
            ("NMOS", DriverKind::NmosBased),
            ("inverter", DriverKind::Inverter),
        ] {
            for adaptive in [true, false] {
                let design = base
                    .with_delay_cell(cell)
                    .with_driver(driver)
                    .with_adaptive_swing(adaptive);
                let _ = writeln!(
                    out,
                    "{:<14} {:<12} {:<10} {:>18}",
                    cell_label,
                    driver_label,
                    if adaptive { "adaptive" } else { "fixed" },
                    exp.error_probability(&design).to_string()
                );
            }
        }
    }
    out.push_str(
        "\nReading: the adaptive swing scheme is the largest single\n\
         contributor, the NMOS driver removes the inverter's two-sided\n\
         failure modes; the alternating cell trades a little typical-corner\n\
         margin for drift containment (see the `srlr pulse-width` traces).\n",
    );

    out.push_str(&section(
        "Repeater insertion-length ablation (the 1 mm premise of Sec. II)",
    ));
    out.push_str(
        "(10 mm total span; the SRLR is sized to drive the router-to-router\n\
         distance directly, so 1 mm segments should sit at the sweet spot)\n\n",
    );
    let _ = writeln!(
        out,
        "{:>10} {:>8} {:>12} {:>18} {:>14}",
        "segment", "stages", "nominal", "energy", "corners ok"
    );
    for tenths in [5u32, 10, 20, 25] {
        let segment_mm = f64::from(tenths) / 10.0;
        let stages = (10.0 / segment_mm).round() as usize;
        let design = SrlrDesign {
            segment_length: Length::from_millimeters(segment_mm),
            ..base.clone()
        };
        let carries = |chain: &SrlrChain| chain.propagate(chain.nominal_input_pulse()).is_valid();
        let nominal = design.instantiate(&tech, &GlobalVariation::nominal(), stages);
        let nominal_ok = carries(&nominal);
        let energy = if nominal_ok {
            format!(
                "{:>13.1} fJ/b/mm",
                StageEnergyModel::from_chain(&nominal)
                    .energy_per_bit_per_length(0.5)
                    .femtojoules_per_bit_per_millimeter()
            )
        } else {
            "n/a".to_owned()
        };
        let corners_ok = ProcessCorner::ALL
            .iter()
            .filter(|c| carries(&design.instantiate(&tech, &c.variation(&tech), stages)))
            .count();
        let _ = writeln!(
            out,
            "{:>7.1} mm {:>8} {:>12} {:>18} {:>11}/5",
            segment_mm,
            stages,
            if nominal_ok { "ok" } else { "FAIL" },
            energy,
            corners_ok,
        );
    }

    out.push_str(&section(
        "Sec. II — free 1-to-N multicast energy (10 mm link taps)",
    ));
    let link = SrlrLink::paper_test_chip(&tech);
    for taps in [vec![9], vec![4, 9], vec![2, 5, 9], vec![1, 3, 5, 7, 9]] {
        let m = MulticastLink::new(link.clone(), taps.clone());
        let _ = writeln!(
            out,
            "taps {:?}: multicast {} vs unicast clones {} (saving {:.2}x)",
            taps,
            m.multicast_pulse_energy(),
            m.unicast_clone_pulse_energy(),
            m.multicast_saving()
        );
    }

    out.push_str(&section("Sec. II — mesh multicast trees (8x8, XY)"));
    let src = Coord::new(0, 0);
    for fanout in [2u16, 4, 8] {
        let dsts: Vec<Coord> = (0..fanout).map(|k| Coord::new(7, k * 7 / fanout)).collect();
        let acc = MulticastAccounting::new(Mesh::new(8, 8), src, &dsts);
        let _ = writeln!(
            out,
            "fanout {fanout}: tree {} hops vs unicast {} hops (saving {:.2}x)",
            acc.tree_hops(),
            acc.unicast_hops(),
            acc.saving_factor()
        );
    }
    Ok(out)
}

/// `srlr latency`: average packet latency of the 8x8 mesh versus offered
/// load for uniform, transpose and neighbour traffic.
pub fn latency() -> Result<String, CliError> {
    Ok(latency_table(8, 8))
}

/// [`latency`]'s table on a `cols` x `rows` mesh.
pub(crate) fn latency_table(cols: u16, rows: u16) -> String {
    let mut out = section(&format!(
        "{cols}x{rows} mesh latency vs offered load (packets/node/cycle)"
    ));
    let _ = writeln!(
        out,
        "{:>6} {:>16} {:>16} {:>16}",
        "load", "uniform", "transpose", "neighbor"
    );
    for load in [0.02, 0.04, 0.06, 0.08, 0.10, 0.12] {
        let [uniform, transpose, neighbor] = [
            Pattern::UniformRandom,
            Pattern::Transpose,
            Pattern::Neighbor,
        ]
        .map(|pattern| {
            let mut net = Network::new(NocConfig::paper_default().with_size(cols, rows));
            let stats = net.run_warmup_and_measure(pattern, load, 500, 1500);
            if stats.packets_received > 0 {
                format!("{:>13.1} cyc", stats.avg_latency_cycles())
            } else {
                ">sat".to_owned()
            }
        });
        let _ = writeln!(
            out,
            "{load:>6.2} {uniform:>16} {transpose:>16} {neighbor:>16}"
        );
    }
    out.push_str(
        "\nNeighbour (local) traffic rides the mesh's short links — the\n\
         locality argument for meshes over indirect topologies in Sec. I.\n",
    );
    out
}

/// `srlr verify-noc [...]`: exhaustive model check of the mesh retry
/// protocol via `srlr-model`.
///
/// For every retry budget in `--retries` the checker enumerates the
/// reachable state space of every ordered XY route of the mesh and
/// discharges deadlock-freedom, the no-overtaking watermark invariant
/// and termination, then solves the graph as an absorbing DTMC for the
/// exact delivery probability. `--variant no-watermark` checks the
/// deliberately broken scheduler, which produces replayable
/// counterexample traces (dumped through `--events-out`, rendered in
/// text, and exported as SARIF results).
///
/// Exit behaviour mirrors `srlr-lint`: violations fail with exit `1` in
/// `text`/`json` formats; `--format sarif` always succeeds so CI can
/// archive the document from a failing tree (the gate is a text run).
pub fn verify_noc(rest: &[String]) -> Result<String, CliError> {
    use srlr_model::{closed_form_delivery, ModelConfig, Variant};
    use srlr_telemetry::json::{write_f64, write_str};

    let flags = Flags::parse(
        rest,
        &[
            "cols",
            "rows",
            "ber",
            "retries",
            "packet-len",
            "variant",
            "format",
            "trace-out",
            "metrics-out",
            "events-out",
            "profile-out",
        ],
    )?;
    let tel = TelemetryOpts::from_flags(&flags);
    let cols: u16 = flags.get_or("cols", 2)?;
    let rows: u16 = flags.get_or("rows", 2)?;
    let ber: f64 = flags.get_or("ber", 1e-3)?;
    let packet_len: usize = flags.get_or("packet-len", 4)?;
    let format = flags.get_str("format").unwrap_or("text");
    if !matches!(format, "text" | "json" | "sarif") {
        return Err(CliError::Usage(format!(
            "unknown verify-noc format `{format}` (text|json|sarif)"
        )));
    }
    let variant = match flags.get_str("variant").unwrap_or("correct") {
        "correct" => Variant::Correct,
        "no-watermark" => Variant::IgnoreBusyWatermark,
        other => {
            return Err(CliError::Usage(format!(
                "unknown variant `{other}` (correct|no-watermark)"
            )))
        }
    };
    // The state space is exponential in packet length and route length;
    // the search and the chain solve are linear in the states and
    // transitions. These bounds keep a check interactive: both CI
    // configurations (2x2, and 3x3 with 4-flit packets, at budgets
    // 0, 1, 3) finish in well under a second.
    if !(1..=4).contains(&cols) || !(1..=4).contains(&rows) {
        return Err(CliError::Usage("mesh sides must be in 1..=4".into()));
    }
    if !(1..=6).contains(&packet_len) {
        return Err(CliError::Usage("--packet-len must be in 1..=6".into()));
    }
    if !(ber.is_finite() && (0.0..1.0).contains(&ber)) {
        return Err(CliError::Usage(format!("BER `{ber}` outside [0, 1)")));
    }
    let raw = flags.get_str("retries").unwrap_or("0,1,3");
    let mut budgets: Vec<u32> = Vec::new();
    for part in raw.split(',') {
        let budget: u32 = part
            .trim()
            .parse()
            .map_err(|_| CliError::Usage(format!("bad retry budget `{part}`")))?;
        if budget > 6 {
            return Err(CliError::Usage(
                "retry budgets above 6 are unchecked".into(),
            ));
        }
        budgets.push(budget);
    }
    if budgets.is_empty() {
        return Err(CliError::Usage("need at least one retry budget".into()));
    }

    let mut obs = tel.obs("counterexample-step", "verify-noc", budgets.len() as u64);
    let mut reports = Vec::new();
    for &budget in &budgets {
        let config = ModelConfig::new(
            Mesh::new(cols, rows),
            packet_len,
            FaultConfig::new(ber).with_max_retries(budget),
        )
        .with_variant(variant);
        let report = srlr_model::verify_profiled(&config, &mut obs.profiler);
        for violation in report.violations() {
            violation.emit(&mut obs.collector);
        }
        obs.progress.tick();
        reports.push((budget, closed_form_delivery(&config), report));
    }
    let total_violations: usize = reports.iter().map(|(_, _, r)| r.violations().count()).sum();
    let all_proven = reports.iter().all(|(_, _, r)| r.all_proven());

    let mut run_report = RunReport::new("verify-noc");
    run_report.param("cols", Value::U64(u64::from(cols)));
    run_report.param("rows", Value::U64(u64::from(rows)));
    run_report.param("ber", Value::F64(ber));
    run_report.param("packet_len", Value::U64(packet_len as u64));
    run_report.param("variant", Value::Str(variant.name().to_owned()));
    for (i, (budget, closed, report)) in reports.iter().enumerate() {
        let section = format!("budget.{i:03}");
        run_report.section_metric(&section, "max_retries", Value::U64(u64::from(*budget)));
        run_report.section_metric(&section, "states", Value::U64(report.total_states as u64));
        run_report.section_metric(
            &section,
            "transitions",
            Value::U64(report.total_transitions as u64),
        );
        run_report.section_metric(
            &section,
            "deliver_probability",
            Value::F64(report.deliver_probability),
        );
        run_report.section_metric(&section, "closed_form", Value::F64(*closed));
        run_report.section_metric(&section, "deadlock_free", Value::Bool(report.deadlock_free));
        run_report.section_metric(&section, "no_overtaking", Value::Bool(report.no_overtaking));
        run_report.section_metric(&section, "terminates", Value::Bool(report.terminates));
    }
    run_report.absorb_collector(&obs.collector);
    tel.write(&obs.collector, &run_report)?;
    tel.write_profile(&obs.profiler)?;

    let routes = reports.first().map_or(0, |(_, _, r)| r.pairs.len());
    let out = match format {
        "sarif" => {
            let mut doc = SarifDoc::new("srlr-model", "https://example.invalid/srlr-model");
            doc.rule(
                "no-overtaking",
                "a retried wormhole head is never overtaken by its own tail",
            );
            doc.rule(
                "deadlock",
                "every non-terminal state has an enabled crossing",
            );
            doc.rule("termination", "every run ends in Delivered or CountedDrop");
            for (budget, _, report) in &reports {
                for v in report.violations() {
                    let uri = format!(
                        "model://{cols}x{rows}/budget-{budget}/route/{},{}-{},{}",
                        v.src.x, v.src.y, v.dst.x, v.dst.y
                    );
                    doc.result(v.kind.rule(), "error", &v.render(), &uri, 1, 1);
                }
            }
            return Ok(doc.render());
        }
        "json" => {
            let mut out = String::from("{\"mesh\":");
            write_str(&mut out, &format!("{cols}x{rows}"));
            out.push_str(",\"ber\":");
            write_f64(&mut out, ber);
            let _ = write!(out, ",\"packet_len\":{packet_len},\"variant\":");
            write_str(&mut out, variant.name());
            let _ = write!(out, ",\"routes\":{routes},\"budgets\":[");
            for (i, (budget, closed, report)) in reports.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"max_retries\":{budget},\"states\":{},\"transitions\":{},\
                     \"deliver_probability\":",
                    report.total_states, report.total_transitions
                );
                write_f64(&mut out, report.deliver_probability);
                out.push_str(",\"closed_form\":");
                write_f64(&mut out, *closed);
                let _ = write!(
                    out,
                    ",\"deadlock_free\":{},\"no_overtaking\":{},\"terminates\":{},\
                     \"violations\":[",
                    report.deadlock_free, report.no_overtaking, report.terminates
                );
                for (j, v) in report.violations().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"rule\":");
                    write_str(&mut out, v.kind.rule());
                    out.push_str(",\"src\":");
                    write_str(&mut out, &v.src.to_string());
                    out.push_str(",\"dst\":");
                    write_str(&mut out, &v.dst.to_string());
                    let _ = write!(out, ",\"steps\":{},\"message\":", v.trace.len());
                    write_str(&mut out, &v.message);
                    out.push('}');
                }
                out.push_str("]}");
            }
            out.push_str("]}\n");
            out
        }
        _ => {
            let mut out = format!(
                "exhaustive model check: {cols}x{rows} mesh, {packet_len}-flit packets, \
                 ber {ber:.1e}, variant {}\n{routes} ordered routes per budget\n\n",
                variant.name()
            );
            let _ = writeln!(
                out,
                "{:>8} {:>9} {:>12} {:>18} {:>14} {:>14} {:>11}",
                "budget",
                "states",
                "transitions",
                "P(deliver) exact",
                "deadlock-free",
                "overtake-free",
                "terminates"
            );
            for (budget, _, report) in &reports {
                let _ = writeln!(
                    out,
                    "{:>8} {:>9} {:>12} {:>18.12} {:>14} {:>14} {:>11}",
                    budget,
                    report.total_states,
                    report.total_transitions,
                    report.deliver_probability,
                    if report.deadlock_free { "yes" } else { "NO" },
                    if report.no_overtaking { "yes" } else { "NO" },
                    if report.terminates { "yes" } else { "NO" },
                );
            }
            out.push('\n');
            for (budget, _, report) in &reports {
                for v in report.violations() {
                    let _ = writeln!(out, "[budget {budget}] {}", v.render());
                }
            }
            if all_proven {
                let _ = writeln!(out, "all proofs hold across {} budget(s)", reports.len());
            }
            out
        }
    };

    if all_proven {
        Ok(out)
    } else {
        Err(CliError::Experiment(format!(
            "model check found {total_violations} counterexample(s)\n{out}"
        )))
    }
}
