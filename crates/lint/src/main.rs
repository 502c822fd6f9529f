//! CLI for `srlr-lint`.
//!
//! Exit codes: `0` clean, `1` rule violations, `2` usage or I/O errors.
//! `--format sarif` always exits `0` once the report is produced: the
//! document carries the findings, and CI must receive it even
//! (especially) when they gate.

use std::path::PathBuf;
use std::process::ExitCode;

use srlr_lint::rules::ALL_RULES;
use srlr_lint::{run, sarif, write_api_locks, Config};

const USAGE: &str = "\
srlr-lint: workspace static analysis (layering, API lock, hot-path allocation, float and RNG discipline)

USAGE:
    srlr-lint [OPTIONS]

OPTIONS:
    --root <DIR>        workspace root to scan (default: .)
    --write-api-lock    rewrite every api-lock.txt from the current public surface
    --format <FMT>      output format: text (default) or sarif
    --list-rules        print the rule catalog and exit
    --help              print this help
";

enum Format {
    Text,
    Sarif,
}

struct Cli {
    config: Config,
    write_api_lock: bool,
    list_rules: bool,
    format: Format,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut root: Option<PathBuf> = None;
    let mut write_api_lock = false;
    let mut list_rules = false;
    let mut format = Format::Text;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root needs a directory argument")?;
                root = Some(PathBuf::from(v));
            }
            "--write-api-lock" => write_api_lock = true,
            "--format" => {
                let v = it.next().ok_or("--format needs `text` or `sarif`")?;
                format = match v.as_str() {
                    "text" => Format::Text,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}` (text|sarif)")),
                };
            }
            "--list-rules" => list_rules = true,
            "--help" | "-h" => return Err(String::new()), // usage, exit 0 path handled below
            other => return Err(format!("unknown option `{other}`")),
        }
    }

    Ok(Cli {
        config: Config::new(root.unwrap_or_else(|| PathBuf::from("."))),
        write_api_lock,
        list_rules,
        format,
    })
}

#[expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "the binary is where the report reaches the terminal"
)]
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wants_help = args.iter().any(|a| a == "--help" || a == "-h");
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(_) if wants_help => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if cli.list_rules {
        for rule in ALL_RULES {
            println!("{:<16} {}", rule.name(), rule.description());
        }
        return ExitCode::SUCCESS;
    }

    if cli.write_api_lock {
        match write_api_locks(&cli.config) {
            Ok(paths) => {
                println!("wrote {} api-lock file(s)", paths.len());
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let report = match run(&cli.config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if matches!(cli.format, Format::Sarif) {
        // SARIF is an export format: CI uploads it for code-review
        // annotation and must not lose the artifact to a non-zero
        // exit. The findings are *in* the document; gating stays with
        // the text format (matching `srlr verify-noc --format sarif`).
        print!("{}", sarif::render(&report));
        return ExitCode::SUCCESS;
    }

    for d in &report.violations {
        print!("{}", d.render());
    }
    println!(
        "srlr-lint: {} files checked, {} violation(s)",
        report.files_checked,
        report.violations.len()
    );
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
