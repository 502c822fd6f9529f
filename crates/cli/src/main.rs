//! The `srlr` binary: see [`srlr_cli`] for the command set.
//!
//! Exit codes follow the usual shell convention: `0` on success, `1`
//! when an experiment fails to run, and `2` for usage errors (unknown
//! commands, malformed flags) so scripts can tell the two apart.

use srlr_cli::CliError;
use std::process::ExitCode;

#[expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "the binary is where the command output reaches the terminal"
)]
fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match srlr_cli::run(&argv) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("srlr: {err}");
            match err {
                CliError::Usage(_) => ExitCode::from(2),
                CliError::Experiment(_) => ExitCode::FAILURE,
            }
        }
    }
}
