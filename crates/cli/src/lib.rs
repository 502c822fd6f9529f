//! Implementation of the `srlr` command-line tool.
//!
//! `srlr` is the one front door to every table and figure of the paper:
//! each subcommand runs one experiment and returns its rendered text.
//!
//! ```text
//! srlr table1                  Table I + Sec. IV headline measurements
//! srlr fig6 [--runs N] [--threads T]   Monte Carlo swing sweep
//! srlr fig8                    energy vs bandwidth density
//! srlr waveforms               Fig. 4 transient waveforms
//! srlr pulse-width             Sec. III pulse-width drift + driver headroom
//! srlr router                  Sec. IV router power, area and floorplan
//! srlr ablation [--runs N]     Sec. III technique ablation + multicast
//! srlr latency                 mesh latency vs offered load
//! srlr ber [--bits N] [--gbps R]
//! srlr eye [--bits N]
//! srlr noc [--cols C --rows R --load F --datapath srlr|full]
//! srlr noc-faults [--bers L | --swings MV] [--load F] [--threads T]
//! srlr express [--interval K]
//! srlr sizing                  M1/M2 design-space sweep
//! srlr profile --in FILE [--top N]          rank a folded profile
//! srlr bench-diff --old A --new B [--tolerance F]   snapshot gate
//! ```
//!
//! Workspace static analysis is not a subcommand: it is `cargo clippy`
//! with the workspace lint table plus the separate `srlr-lint` binary.

#![forbid(unsafe_code)]

pub mod args;
pub mod commands;
mod fig8;
mod report;

use std::fmt;

/// Errors surfaced to the shell.
#[derive(Debug)]
pub enum CliError {
    /// Unknown subcommand or malformed flags.
    Usage(String),
    /// An experiment could not run with the given parameters.
    Experiment(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Experiment(msg) => write!(f, "experiment error: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Entry point shared by the binary and the tests: dispatches `argv`
/// (without the program name) and returns the rendered output.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for unknown commands or flags and
/// [`CliError::Experiment`] when a run cannot produce a result.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = argv.split_first() else {
        return Ok(commands::help());
    };
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(commands::help()),
        "table1" => flagless(rest, commands::table1),
        "fig6" => commands::fig6(rest),
        "fig8" => flagless(rest, commands::fig8),
        "waveforms" => commands::waveforms(rest),
        "pulse-width" => flagless(rest, commands::pulse_width),
        "router" => flagless(rest, commands::router),
        "ablation" => commands::ablation(rest),
        "latency" => flagless(rest, commands::latency),
        "ber" => commands::ber(rest),
        "eye" => commands::eye(rest),
        "noc" => commands::noc(rest),
        "noc-faults" => commands::noc_faults(rest),
        "express" => commands::express(rest),
        "sizing" => flagless(rest, commands::sizing),
        "shmoo" => commands::shmoo(rest),
        "supply" => flagless(rest, commands::supply),
        "temp" => flagless(rest, commands::temp),
        "bathtub" => commands::bathtub(rest),
        "crosstalk" => flagless(rest, commands::crosstalk),
        "verify-noc" => commands::verify_noc(rest),
        "profile" => commands::profile(rest),
        "bench-diff" => commands::bench_diff(rest),
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`; try `srlr help`"
        ))),
    }
}

/// Runs a command that takes no flags, after rejecting any argument
/// with a usage error.
fn flagless(
    rest: &[String],
    command: fn() -> Result<String, CliError>,
) -> Result<String, CliError> {
    args::Flags::parse(rest, &[])?;
    command()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(args: &[&str]) -> Result<String, CliError> {
        let argv: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        run(&argv)
    }

    #[test]
    fn empty_argv_prints_help() {
        let out = call(&[]).unwrap();
        assert!(out.contains("srlr"));
        assert!(out.contains("table1"));
    }

    #[test]
    fn help_lists_all_commands() {
        let out = call(&["help"]).unwrap();
        for cmd in [
            "table1",
            "fig6",
            "fig8",
            "waveforms",
            "pulse-width",
            "router",
            "ablation",
            "latency",
            "ber",
            "eye",
            "noc",
            "noc-faults",
            "express",
            "sizing",
            "shmoo",
            "supply",
            "temp",
            "bathtub",
            "crosstalk",
            "verify-noc",
            "profile",
            "bench-diff",
        ] {
            assert!(out.contains(cmd), "help must mention {cmd}");
        }
    }

    #[test]
    fn unknown_command_is_a_usage_error() {
        let err = call(&["fig99"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        assert!(err.to_string().contains("fig99"));
    }

    #[test]
    fn table1_renders_rows() {
        let out = call(&["table1"]).unwrap();
        assert!(out.contains("This Work (measured)"));
        assert!(out.contains("fJ/bit"));
        assert!(
            out.lines()
                .any(|l| l.starts_with("link-traversal energy") && l.contains("40.400 fJ/bit/mm")),
            "the Sec. IV 40.4 fJ/bit/mm row: {out}"
        );
    }

    #[test]
    fn router_prints_the_calibration_split() {
        // The calibration rows do not depend on the live mesh; a 2x2
        // mesh keeps the debug-profile run short.
        let out = commands::router_report(2, 2);
        for (label, paper) in [
            ("input buffers", "38.800 mW"),
            ("control logic", "5.200 mW"),
            ("SRLR low-swing datapath (incl. bias)", "12.900 mW"),
        ] {
            assert!(
                out.lines()
                    .any(|l| l.starts_with(label) && l.contains(paper)),
                "missing `{label}` row: {out}"
            );
        }
        assert!(out.contains("2x2 mesh at uniform random load"));
        assert!(out.contains("deflections"));
    }

    #[test]
    fn pulse_width_loses_the_single_cell_pulse_at_a_slow_corner() {
        let out = call(&["pulse-width"]).unwrap();
        let slow_single = out
            .lines()
            .find(|l| l.trim_start().starts_with("+35mV single"))
            .expect("the +35 mV single-cell trace");
        assert!(slow_single.ends_with('X'), "{slow_single}");
        assert!(out.contains("max clean rate"));
    }

    #[test]
    fn ablation_prints_every_technique_combination() {
        let out = call(&["ablation", "--runs", "20"]).unwrap();
        let rows = out.lines().filter(|l| l.contains("/20 (")).count();
        assert_eq!(rows, 8, "{out}");
        assert!(out.contains("(20 dice)"));
        assert!(matches!(
            call(&["ablation", "--runs", "0"]).unwrap_err(),
            CliError::Usage(_)
        ));
    }

    #[test]
    fn latency_builds_its_table() {
        let out = commands::latency_table(3, 3);
        assert!(out.contains("3x3 mesh latency"));
        assert_eq!(
            out.matches(" cyc").count(),
            6 * 3,
            "6 loads x 3 patterns: {out}"
        );
    }

    #[test]
    fn ber_with_small_budget_runs() {
        let out = call(&["ber", "--bits", "5000"]).unwrap();
        assert!(out.contains("errors"));
    }

    #[test]
    fn ber_rejects_bad_flag() {
        let err = call(&["ber", "--frobnicate"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn fig6_with_tiny_runs() {
        let out = call(&["fig6", "--runs", "20"]).unwrap();
        assert!(out.contains("proposed"));
        assert!(out.contains("immunity"));
    }

    #[test]
    fn fig6_thread_count_does_not_change_the_answer() {
        let serial = call(&["fig6", "--runs", "20", "--threads", "1"]).unwrap();
        let parallel = call(&["fig6", "--runs", "20", "--threads", "4"]).unwrap();
        assert_eq!(serial, parallel, "--threads must not change the output");
    }

    #[test]
    fn fig6_rejects_the_removed_engine_and_batch_width_flags() {
        // Both were output-invariant knobs with one value in use; they
        // are now unknown flags, i.e. usage errors (exit 2).
        for flag in [["--engine", "batched"], ["--batch-width", "32"]] {
            let err = call(&["fig6", "--runs", "5", flag[0], flag[1]]).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{flag:?}: {err}");
        }
    }

    #[test]
    fn shmoo_accepts_threads_flag() {
        let serial = call(&["shmoo", "--bits", "64", "--threads", "1"]).unwrap();
        let parallel = call(&["shmoo", "--bits", "64", "--threads", "4"]).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn help_documents_threads() {
        let out = call(&["help"]).unwrap();
        assert!(out.contains("--threads"));
        assert!(out.contains("SRLR_THREADS"));
    }

    #[test]
    fn eye_reports_margins() {
        let out = call(&["eye", "--bits", "500"]).unwrap();
        assert!(out.contains("margin"));
    }

    #[test]
    fn noc_runs_a_small_mesh() {
        let out = call(&["noc", "--cols", "4", "--rows", "4", "--load", "0.05"]).unwrap();
        assert!(out.contains("pkts"));
        assert!(out.contains("buffers"));
    }

    #[test]
    fn noc_faults_sweeps_ber() {
        let out = call(&[
            "noc-faults",
            "--cols",
            "4",
            "--rows",
            "4",
            "--cycles",
            "600",
            "--bers",
            "0,1e-3",
        ])
        .unwrap();
        assert!(out.contains("delivered"));
        assert!(out.contains("energy/bit"));
        assert!(out.contains("retries"));
    }

    #[test]
    fn noc_faults_thread_count_does_not_change_the_answer() {
        let args = |t: &'static str| {
            call(&[
                "noc-faults",
                "--cols",
                "4",
                "--rows",
                "4",
                "--cycles",
                "400",
                "--bers",
                "0,5e-4,2e-3",
                "--threads",
                t,
            ])
            .unwrap()
        };
        assert_eq!(args("1"), args("4"), "--threads must not change the output");
    }

    #[test]
    fn noc_faults_swing_mode_measures_the_link() {
        let out = call(&[
            "noc-faults",
            "--cols",
            "4",
            "--rows",
            "4",
            "--cycles",
            "400",
            "--swings",
            "120,450",
            "--dice",
            "10",
            "--bits",
            "200",
        ])
        .unwrap();
        assert!(out.contains("450 mV"));
        assert!(out.contains("bits"), "swing mode reports the measurement");
    }

    #[test]
    fn noc_faults_rejects_bad_input() {
        assert!(matches!(
            call(&["noc-faults", "--bers", "soup"]).unwrap_err(),
            CliError::Usage(_)
        ));
        assert!(matches!(
            call(&["noc-faults", "--bers", "1.5"]).unwrap_err(),
            CliError::Usage(_)
        ));
        assert!(matches!(
            call(&["noc-faults", "--bers", "0", "--swings", "300"]).unwrap_err(),
            CliError::Usage(_)
        ));
    }

    #[test]
    fn express_prints_tradeoff() {
        let out = call(&["express", "--interval", "4"]).unwrap();
        assert!(out.contains("hop"));
        assert!(out.contains("energy"));
    }

    #[test]
    fn sizing_prints_candidates() {
        let out = call(&["sizing"]).unwrap();
        assert!(out.contains("M1"));
        assert!(out.contains("viable"));
    }

    #[test]
    fn shmoo_renders_map() {
        let out = call(&["shmoo", "--bits", "64"]).unwrap();
        assert!(out.contains('+'));
        assert!(out.contains("passing fraction"));
    }

    #[test]
    fn supply_lists_rails() {
        let out = call(&["supply"]).unwrap();
        assert!(out.contains("800 mV"));
        assert!(out.contains("fJ/b/mm"));
    }

    #[test]
    fn temp_sweeps_cleanly() {
        let out = call(&["temp"]).unwrap();
        assert!(out.contains("-40"));
        assert!(out.contains("105"));
    }

    #[test]
    fn bathtub_renders_wall() {
        let out = call(&["bathtub", "--bits", "200"]).unwrap();
        assert!(out.contains("clean") || out.contains("BER"));
    }

    #[test]
    fn crosstalk_lists_scenarios() {
        let out = call(&["crosstalk"]).unwrap();
        assert!(out.contains("WorstCase"));
        assert!(out.contains("Shielded"));
    }
}
