//! SARIF 2.1.0 rendering of lint reports.
//!
//! The generic single-run document builder lives in
//! [`srlr_telemetry::sarif`] (both this tool and `srlr-cli`'s
//! `verify-noc` emit SARIF, and telemetry is the shared leaf they can
//! both reach); this module only maps a lint [`Report`] onto it.

pub use srlr_telemetry::sarif::SarifDoc;

use crate::rules::ALL_RULES;
use crate::Report;

/// Renders `report` as a single-run SARIF 2.1.0 document.
///
/// Every violation becomes an `error`-level result.
pub fn render(report: &Report) -> String {
    let mut doc = SarifDoc::new("srlr-lint", "https://example.invalid/srlr-lint");
    for rule in ALL_RULES {
        doc.rule(rule.name(), rule.description());
    }
    for diag in &report.violations {
        doc.result(
            diag.rule.name(),
            "error",
            &diag.message,
            &diag.path,
            diag.line,
            diag.col,
        );
    }
    doc.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::Diagnostic;
    use crate::rules::RuleId;
    use srlr_telemetry::json::{parse, Json};

    fn diag(rule: RuleId, path: &str, line: u32, message: &str) -> Diagnostic {
        Diagnostic {
            path: path.to_string(),
            line,
            col: 5,
            rule,
            message: message.to_string(),
            snippet: String::new(),
            width: 1,
        }
    }

    fn results(doc: &Json) -> Vec<&Json> {
        let Json::Obj(top) = doc else {
            panic!("not an object")
        };
        let Some(Json::Arr(runs)) = top.get("runs") else {
            panic!("no runs")
        };
        let Json::Obj(run) = &runs[0] else {
            panic!("run not an object")
        };
        let Some(Json::Arr(results)) = run.get("results") else {
            panic!("no results")
        };
        results.iter().collect()
    }

    #[test]
    fn empty_report_is_valid_sarif() {
        let doc = parse(&render(&Report::default())).expect("valid JSON");
        let Json::Obj(top) = &doc else { panic!() };
        assert_eq!(top.get("version"), Some(&Json::Str("2.1.0".into())));
        assert!(results(&doc).is_empty());
    }

    #[test]
    fn diagnostics_become_results_with_locations() {
        let mut report = Report::default();
        report.violations.push(diag(
            RuleId::FloatEq,
            "crates/noc/src/router.rs",
            42,
            "an \"escaped\" message\nwith a newline",
        ));
        report
            .violations
            .push(diag(RuleId::ApiLock, "src/lib.rs", 7, "drift"));
        let doc = parse(&render(&report)).expect("valid JSON");
        let results = results(&doc);
        assert_eq!(results.len(), 2);
        let Json::Obj(first) = results[0] else {
            panic!()
        };
        assert_eq!(first.get("ruleId"), Some(&Json::Str("float-eq".into())));
        assert_eq!(first.get("level"), Some(&Json::Str("error".into())));
        let Json::Obj(second) = results[1] else {
            panic!()
        };
        assert_eq!(second.get("ruleId"), Some(&Json::Str("api-lock".into())));
        assert_eq!(second.get("level"), Some(&Json::Str("error".into())));
    }

    #[test]
    fn every_rule_is_declared_in_the_driver() {
        let doc = parse(&render(&Report::default())).expect("valid JSON");
        let Json::Obj(top) = &doc else { panic!() };
        let Some(Json::Arr(runs)) = top.get("runs") else {
            panic!()
        };
        let Json::Obj(run) = &runs[0] else { panic!() };
        let Some(Json::Obj(tool)) = run.get("tool") else {
            panic!()
        };
        let Some(Json::Obj(driver)) = tool.get("driver") else {
            panic!()
        };
        let Some(Json::Arr(rules)) = driver.get("rules") else {
            panic!()
        };
        assert_eq!(rules.len(), ALL_RULES.len());
    }
}
