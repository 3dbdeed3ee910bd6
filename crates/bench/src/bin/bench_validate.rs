//! Validator for the `BENCH_*.json` artifacts.
//!
//! Every bench binary writes one schema, `implant-bench/1` (a
//! [`bench::Record`]), so this is one generic pass over each file:
//!
//! - the file parses and every number in it is finite;
//! - the schema is `implant-bench/1` and `metrics` is a flat map of
//!   numbers;
//! - `stages` is present and not empty;
//! - `gates` is a non-empty list of well-formed `{name, value, op,
//!   bound}` records, and every gate holds when recomputed with
//!   [`Gate::holds`], the check the binary's own exit code made. No
//!   stored pass flag is trusted.
//!
//! ```text
//! cargo run --release --bin bench_validate -- BENCH_serve.json BENCH_kernels.json
//! ```

use bench::{Gate, SCHEMA};
use runtime::Json;

/// Every reason `doc` is not a valid artifact; empty when it is.
fn violations(doc: &Json) -> Vec<String> {
    let mut errors = Vec::new();
    if let Some(path) = doc.non_finite_path() {
        errors.push(format!("non-finite number at {path}"));
    }
    let schema = doc.get("schema").and_then(Json::as_str);
    if schema != Some(SCHEMA) {
        errors.push(format!("schema {schema:?} is not {SCHEMA:?}"));
    }
    match doc.get("metrics") {
        Some(Json::Obj(metrics)) => errors.extend(
            metrics
                .iter()
                .filter(|(_, v)| v.as_f64().is_none())
                .map(|(k, _)| format!("metric {k:?} is not a number")),
        ),
        _ => errors.push("missing metrics object".to_string()),
    }
    if !matches!(doc.get("stages"), Some(Json::Obj(stages)) if !stages.is_empty()) {
        errors.push("missing or empty stages — was obs disabled?".to_string());
    }
    match doc.get("gates").and_then(Json::as_arr) {
        Some(gates) if !gates.is_empty() => {
            for gate in gates.iter().map(Gate::from_json) {
                match gate {
                    Ok(gate) if gate.holds() => {}
                    Ok(gate) => errors.push(format!("gate fails: {gate}")),
                    Err(reason) => errors.push(reason),
                }
            }
        }
        _ => errors.push("missing or empty gates".to_string()),
    }
    errors
}

fn validate_file(file: &str) -> Vec<String> {
    match std::fs::read_to_string(file) {
        Err(e) => vec![format!("cannot read: {e}")],
        Ok(text) => match Json::parse(text.trim_end()) {
            Some(doc) => violations(&doc),
            None => vec!["not valid JSON".to_string()],
        },
    }
}

fn main() {
    let files: Vec<String> = std::env::args().skip(1).collect();
    assert!(!files.is_empty(), "usage: bench_validate BENCH_a.json [BENCH_b.json ...]");
    let mut failed = false;
    for file in &files {
        let errors = validate_file(file);
        for reason in &errors {
            eprintln!("bench_validate: {file}: {reason}");
        }
        failed |= !errors.is_empty();
    }
    if failed {
        std::process::exit(1);
    }
    println!("bench_validate: {} file(s) OK", files.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::{Op, Record, StageRow};

    /// A well-formed artifact, written by the same [`Record`] the bench
    /// binaries use, carrying `gates`.
    fn doc_with(gates: &[Gate]) -> String {
        let mut record = Record::new("bench_test", vec![("repeats", 2.0)]);
        record.metric("compiled.fig11_speedup", 7.5);
        let stage = StageRow {
            name: "fig11.transient",
            count: 2,
            total_us: 1.0e6,
            share: 1.0,
            p50_us: 5.0e5,
            p95_us: 5.1e5,
            p99_us: 5.2e5,
        };
        record.to_json(&[stage], gates).to_string()
    }

    fn doc() -> String {
        doc_with(&[Gate::new("compiled.fig11_speedup", 7.5, Op::Ge, 5.0)])
    }

    fn errors(text: &str) -> Vec<String> {
        violations(&Json::parse(text).expect("test doc parses"))
    }

    fn assert_rejects(text: &str, reason: &str) {
        let errors = errors(text);
        assert!(errors.iter().any(|e| e.contains(reason)), "want {reason:?}, got {errors:?}");
    }

    #[test]
    fn a_well_formed_artifact_validates_from_disk() {
        assert_eq!(errors(&doc()), Vec::<String>::new());
        let path = std::env::temp_dir().join(format!("bench_validate_{}.json", std::process::id()));
        std::fs::write(&path, doc()).expect("write temp artifact");
        let from_disk = validate_file(path.to_str().expect("utf-8 temp path"));
        std::fs::write(&path, "{not json").expect("write temp artifact");
        let garbage = validate_file(path.to_str().expect("utf-8 temp path"));
        let _ = std::fs::remove_file(&path);
        assert_eq!(from_disk, Vec::<String>::new());
        assert_eq!(garbage, vec!["not valid JSON".to_string()]);
    }

    #[test]
    fn a_non_finite_number_is_rejected() {
        let doc = doc().replace(r#"speedup":7.5"#, r#"speedup":Infinity"#);
        assert_rejects(&doc, "non-finite number at metrics.compiled.fig11_speedup");
    }

    #[test]
    fn missing_or_empty_stages_are_rejected() {
        let full = doc();
        let (head, tail) = full.split_once(r#""stages":"#).expect("stages present");
        let (_, gates) = tail.split_once(r#","gates":"#).expect("gates follow stages");
        assert_rejects(&format!(r#"{head}"stages":{{}},"gates":{gates}"#), "empty stages");
        assert_rejects(&format!(r#"{head}"gates":{gates}"#), "missing or empty stages");
    }

    #[test]
    fn unknown_and_retired_schemas_are_rejected() {
        for schema in ["implant-bench-kernels/4", "implant-bench-fanin/1", "implant-bench/2"] {
            let doc = doc().replace(SCHEMA, schema);
            assert_rejects(&doc, &format!("schema Some({schema:?})"));
        }
        assert_rejects(&doc().replace(r#""schema":"#, r#""format":"#), "schema None");
    }

    #[test]
    fn a_failing_gate_is_rejected_for_every_op() {
        let failing = [
            (Op::Ge, 4.9, 5.0),
            (Op::Gt, 1.0, 1.0),
            (Op::Le, 1.4, 1.0),
            (Op::Lt, 9.0, 9.0),
            (Op::Eq, 3.0, 0.0),
        ];
        for (op, value, bound) in failing {
            let doc = doc_with(&[Gate::new("g", value, op, bound)]);
            let want = format!("gate fails: g = {value} (want {} {bound})", op.symbol());
            assert_rejects(&doc, &want);
        }
    }

    #[test]
    fn a_nan_gate_value_is_rejected() {
        let doc = doc().replace(r#""value":7.5"#, r#""value":NaN"#);
        assert_rejects(&doc, "non-finite number at gates[0].value");
        assert_rejects(&doc, "gate fails: compiled.fig11_speedup = NaN");
    }

    #[test]
    fn an_unknown_op_is_rejected() {
        let doc = doc().replace(r#""op":">=""#, r#""op":"=>""#);
        assert_rejects(&doc, r#"unknown op "=>""#);
    }

    #[test]
    fn a_gate_without_a_value_is_rejected() {
        let doc = doc().replace(r#""value":7.5,"#, "");
        assert_rejects(&doc, "no numeric value");
    }

    #[test]
    fn missing_or_empty_gates_are_rejected() {
        assert_rejects(&doc_with(&[]), "missing or empty gates");
    }
}
