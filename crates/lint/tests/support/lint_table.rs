//! A fixture workspace checked by `cargo clippy` under the committed
//! lint policy: the root `[workspace.lints]` table and `clippy.toml`.
//!
//! The per-token rules (no panics, deterministic collections and time,
//! no prints, no spawns, documented API, no truncating casts, reasoned
//! `allow`s) are enforced by rustc and clippy from that table, not by
//! `srlr-lint`. The fixture seeds one violation per module of a library
//! package, puts look-alikes that must pass in further modules, and adds
//! a binary package that prints and narrows under reasoned `#[expect]`s.
//! Clippy runs once per test binary; each test asks about its modules.
//!
//! Shared by the library's unit tests and the integration tests, which
//! include this file with `#[path]`.

#![allow(dead_code, reason = "each test target uses a subset of the helpers")]

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use srlr_telemetry::json::{parse, Json};

/// One seeded violation per module of the library package, and the
/// lint that must reject it: `(module, lint, body)`.
pub const SEEDED: &[(&str, &str, &str)] = &[
    (
        "unwrap_method",
        "clippy::unwrap_used",
        "/// F.\npub fn f(x: Option<u8>) -> u8 { x.unwrap() }",
    ),
    (
        "unwrap_path",
        "clippy::unwrap_used",
        "/// F.\npub fn f(x: Option<u8>) -> u8 { Option::unwrap(x) }",
    ),
    (
        "expect_method",
        "clippy::expect_used",
        "/// F.\npub fn f(x: Option<u8>) -> u8 { x.expect(\"boom\") }",
    ),
    (
        "expect_path",
        "clippy::expect_used",
        "/// F.\npub fn f(r: Result<u8, ()>) -> u8 { Result::expect(r, \"boom\") }",
    ),
    ("panic", "clippy::panic", "/// F.\npub fn f() { panic!(\"no\") }"),
    ("unreachable", "clippy::unreachable", "/// F.\npub fn f() { unreachable!() }"),
    ("todo", "clippy::todo", "/// F.\npub fn f() { todo!() }"),
    (
        "unimplemented",
        "clippy::unimplemented",
        "/// F.\npub fn f() { unimplemented!() }",
    ),
    (
        "hash_map",
        "clippy::disallowed_types",
        "use std::collections::HashMap;\n/// F.\npub fn f() -> usize { HashMap::<u8, u8>::new().len() }",
    ),
    (
        "hash_set",
        "clippy::disallowed_types",
        "/// F.\npub fn f() -> usize { std::collections::HashSet::<u8>::new().len() }",
    ),
    (
        "instant",
        "clippy::disallowed_types",
        "/// F.\npub fn f() -> std::time::Duration { std::time::Instant::now().elapsed() }",
    ),
    (
        "system_time",
        "clippy::disallowed_types",
        "/// F.\npub fn f() -> bool { std::time::SystemTime::now() > std::time::UNIX_EPOCH }",
    ),
    ("println", "clippy::print_stdout", "/// F.\npub fn f() { println!(\"x\"); }"),
    ("eprintln", "clippy::print_stderr", "/// F.\npub fn f() { eprintln!(\"y\"); }"),
    ("dbg", "clippy::dbg_macro", "/// F.\npub fn f() -> u8 { dbg!(1) }"),
    (
        "thread_spawn",
        "clippy::disallowed_methods",
        "/// F.\npub fn f() { let _ = std::thread::spawn(|| {}).join(); }",
    ),
    (
        "scoped_spawn",
        "clippy::disallowed_methods",
        "/// F.\npub fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }",
    ),
    ("missing_doc", "missing_docs", "pub struct Undocumented;"),
    (
        "macro_item",
        "missing_docs",
        "macro_rules! item { ($($t:tt)*) => { $($t)* } }\nitem! { pub fn expanded() {} }",
    ),
    (
        "truncating_cast",
        "clippy::cast_possible_truncation",
        "/// F.\npub fn f(x: usize) -> u16 { x as u16 }",
    ),
    (
        "subword_cast",
        "clippy::cast_possible_truncation",
        "/// F.\npub fn f(x: u64) -> u32 { x as u32 }",
    ),
    (
        "allow_without_reason",
        "clippy::allow_attributes_without_reason",
        "/// F.\n#[allow(clippy::cast_possible_truncation)]\npub fn f(x: usize) -> u16 { x as u16 }",
    ),
    (
        "stale_expect",
        "unfulfilled_lint_expectations",
        "/// F.\n#[expect(clippy::unwrap_used, reason = \"nothing unwraps here\")]\npub fn f() {}",
    ),
];

/// Look-alikes of the seeded cases that the policy must accept:
/// `(module, body)`.
pub const CLEAN: &[(&str, &str)] = &[
    (
        "unwrap_or",
        "/// A.\npub fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n\
         /// B.\npub fn g(x: Option<u8>) -> u8 { Option::unwrap_or(x, 0) }",
    ),
    (
        "assert_message",
        "/// A.\npub fn f(n: usize) { assert!(n > 0, \"n must be positive\"); }",
    ),
    (
        "writeln",
        "/// A.\npub fn f(w: &mut impl std::io::Write) -> std::io::Result<()> { writeln!(w, \"x\") }\n\
         /// B.\npub fn g(print: u8) -> u8 { print }",
    ),
    (
        "ordered",
        "/// A.\npub fn f() -> std::collections::BTreeMap<u8, u8> { std::collections::BTreeMap::new() }",
    ),
    (
        "widening_casts",
        "/// A.\npub fn f(x: u32) -> u64 { u64::from(x) + x as u64 }\n\
         /// B.\npub fn g(x: u64) -> f64 { x as f64 }\n\
         /// C.\npub fn h(n: usize) -> u64 { n as u64 }",
    ),
    (
        "justified_cast",
        "/// A.\n#[expect(clippy::cast_possible_truncation, reason = \"x % 256 fits in u8\")]\n\
         pub fn f(x: usize) -> u8 { (x % 256) as u8 }",
    ),
    (
        "pub_crate",
        "pub(crate) fn helper() {}\npub(super) struct S;\npub(in crate::pub_crate) fn g() {}\n\
         /// A.\npub fn f() { helper(); let _ = S; g(); }",
    ),
    (
        "body_items",
        "macro_rules! item { ($($t:tt)*) => { $($t)* } }\n\
         /// A.\npub fn f() { pub struct Local; let _ = Local; item! { pub fn g() {} } g(); }",
    ),
    (
        "test_code",
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
         let x = \"1\".parse::<u8>().unwrap();\n        \
         println!(\"{x} {}\", \"2\".parse::<u8>().expect(\"a digit\"));\n        \
         dbg!(x);\n        \
         if x > 1 {\n            panic!(\"unreachable in practice\");\n        }\n    }\n}",
    ),
];

/// The binary package's `main.rs`: it prints and narrows under reasoned
/// expectations, as the workspace's binaries do.
const MAIN: &str = "//! A fixture binary.\n\n\
    #[expect(clippy::print_stdout, reason = \"a binary reports on stdout\")]\n\
    #[expect(clippy::cast_possible_truncation, reason = \"an argument count fits in u16\")]\n\
    fn main() {\n    println!(\"{}\", std::env::args().count() as u16);\n}\n";

/// The binary's source file, as clippy names it.
pub const MAIN_FILE: &str = "bin/src/main.rs";

/// What one clippy run over the fixture reported.
pub struct Outcome {
    /// Whether clippy failed, as it must with violations seeded.
    pub failed: bool,
    /// The `(file, lint)` pairs of every diagnostic.
    pub findings: BTreeSet<(String, String)>,
    /// Clippy's human-readable output, for failure messages.
    pub stderr: String,
}

/// The source file of a library module, as clippy names it.
pub fn module_file(module: &str) -> String {
    format!("seeded/src/{module}.rs")
}

/// The `[workspace.lints.*]` sections of the root manifest, verbatim.
fn committed_lint_table(root: &Path) -> String {
    let manifest =
        std::fs::read_to_string(root.join("Cargo.toml")).expect("read the root Cargo.toml");
    let mut table = String::new();
    let mut inside = false;
    for line in manifest.lines() {
        if line.starts_with('[') {
            inside = line.starts_with("[workspace.lints.");
        }
        if inside {
            table.push_str(line);
            table.push('\n');
        }
    }
    assert!(
        table.contains("[workspace.lints.rust]") && table.contains("[workspace.lints.clippy]"),
        "the root manifest declares the lint table"
    );
    table
}

fn write(path: &Path, text: &str) {
    std::fs::create_dir_all(path.parent().expect("fixture files sit in a directory"))
        .expect("create fixture directory");
    std::fs::write(path, text).expect("write fixture file");
}

/// A package manifest that inherits the fixture workspace's lints.
fn package(name: &str) -> String {
    format!(
        "[package]\nname = \"{name}\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
         publish = false\n\n[lints]\nworkspace = true\n"
    )
}

/// The `(file, lint)` pairs of every diagnostic in cargo's JSON output.
fn findings(stdout: &str) -> BTreeSet<(String, String)> {
    let mut out = BTreeSet::new();
    for line in stdout.lines() {
        let Ok(Json::Obj(msg)) = parse(line) else {
            continue;
        };
        let Some(Json::Obj(diag)) = msg.get("message") else {
            continue;
        };
        let Some(Json::Obj(code)) = diag.get("code") else {
            continue;
        };
        let Some(Json::Str(lint)) = code.get("code") else {
            continue;
        };
        let Some(Json::Arr(spans)) = diag.get("spans") else {
            continue;
        };
        for span in spans {
            let Json::Obj(span) = span else { continue };
            if let (Some(Json::Bool(true)), Some(Json::Str(file))) =
                (span.get("is_primary"), span.get("file_name"))
            {
                out.insert((file.clone(), lint.clone()));
            }
        }
    }
    out
}

/// Writes the fixture workspace and runs clippy over it.
fn check(workspace_root: &Path, fixture: &Path) -> Outcome {
    if fixture.exists() {
        std::fs::remove_dir_all(fixture).expect("clear old fixture");
    }
    write(
        &fixture.join("Cargo.toml"),
        &format!(
            "[workspace]\nmembers = [\"seeded\", \"bin\"]\nresolver = \"2\"\n\n{}",
            committed_lint_table(workspace_root)
        ),
    );
    std::fs::copy(
        workspace_root.join("clippy.toml"),
        fixture.join("clippy.toml"),
    )
    .expect("copy the committed clippy.toml");

    write(&fixture.join("seeded/Cargo.toml"), &package("seeded"));
    let mut lib = String::from("//! Seeded lint violations and look-alikes, one per module.\n");
    let modules = SEEDED
        .iter()
        .map(|(name, _, body)| (name, body))
        .chain(CLEAN.iter().map(|(name, body)| (name, body)));
    for (name, body) in modules {
        lib.push_str(&format!("/// Case `{name}`.\npub mod {name};\n"));
        write(
            &fixture.join(module_file(name)),
            &format!("//! `{name}`.\n{body}\n"),
        );
    }
    write(&fixture.join("seeded/src/lib.rs"), &lib);

    write(&fixture.join("bin/Cargo.toml"), &package("fixture-bin"));
    write(&fixture.join(MAIN_FILE), MAIN);

    // `--keep-going` checks the binary although the library fails.
    let out = Command::new(env!("CARGO"))
        .current_dir(fixture)
        .args([
            "clippy",
            "--workspace",
            "--all-targets",
            "--keep-going",
            "--offline",
        ])
        .args(["--message-format=json", "--target-dir"])
        .arg(fixture.join("target"))
        .args(["--", "-D", "warnings"])
        .output()
        .expect("spawn cargo clippy");
    Outcome {
        failed: !out.status.success(),
        findings: findings(&String::from_utf8_lossy(&out.stdout)),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// The fixture's clippy outcome, computed once per test binary.
///
/// The fixture lives next to the test binary, in the cargo profile
/// directory, under a name per test crate so that test binaries never
/// share it.
pub fn outcome() -> &'static Outcome {
    static OUTCOME: OnceLock<Outcome> = OnceLock::new();
    OUTCOME.get_or_init(|| {
        let workspace_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let exe = std::env::current_exe().expect("locate the test binary");
        let profile_dir: PathBuf = exe
            .ancestors()
            .nth(2)
            .expect("test binaries sit in <profile>/deps")
            .to_path_buf();
        let fixture = profile_dir.join(format!("lint-table-{}", env!("CARGO_CRATE_NAME")));
        check(&workspace_root, &fixture)
    })
}

/// The lints reported in one fixture file.
fn lints_in(file: &str) -> BTreeSet<String> {
    outcome()
        .findings
        .iter()
        .filter(|(f, _)| f == file)
        .map(|(_, lint)| lint.clone())
        .collect()
}

/// Asserts that a seeded module fails under exactly `lint`.
pub fn assert_rejected(module: &str, lint: &str) {
    let file = module_file(module);
    assert_eq!(
        lints_in(&file),
        BTreeSet::from([lint.to_string()]),
        "{file} must fail under exactly {lint}\n{}",
        outcome().stderr
    );
}

/// Asserts that a fixture file passes every lint.
pub fn assert_accepted(file: &str) {
    let lints = lints_in(file);
    assert!(
        lints.is_empty(),
        "{file} must pass, but failed under {lints:?}\n{}",
        outcome().stderr
    );
}
