//! Validator for the `BENCH_*.json` artifacts.
//!
//! `scripts/bench.sh` (and the `bench` lane of `scripts/verify.sh`)
//! runs this after the benchmarks: it parses each file with the
//! runtime's own [`runtime::Json`] codec, checks the declared schema,
//! the presence and type of every required field, and that no number is
//! non-finite. A malformed artifact fails the lane — a benchmark that
//! silently writes garbage is worse than one that fails loudly.
//!
//! ```text
//! cargo run --release --bin bench_validate -- BENCH_serve.json BENCH_kernels.json
//! ```

use runtime::Json;

/// Validation failure: file plus reason.
struct Violation(String, String);

fn check(errors: &mut Vec<Violation>, file: &str, ok: bool, reason: &str) {
    if !ok {
        errors.push(Violation(file.to_string(), reason.to_string()));
    }
}

/// Requires `doc[path]` to be a finite number.
fn require_num(errors: &mut Vec<Violation>, file: &str, doc: &Json, object: &str, key: &str) {
    let value = doc.get(object).and_then(|o| o.get(key)).and_then(Json::as_f64);
    check(
        errors,
        file,
        value.is_some_and(f64::is_finite),
        &format!("missing or non-numeric {object}.{key}"),
    );
}

/// Every per-stage entry must carry the breakdown fields.
fn validate_stages(errors: &mut Vec<Violation>, file: &str, doc: &Json) {
    let Some(Json::Obj(stages)) = doc.get("stages") else {
        check(errors, file, false, "missing stages object");
        return;
    };
    check(errors, file, !stages.is_empty(), "stages object is empty — was obs disabled?");
    for (name, stage) in stages {
        for key in ["count", "total_us", "share", "p50_us", "p95_us", "p99_us"] {
            check(
                errors,
                file,
                stage.get(key).and_then(Json::as_f64).is_some_and(f64::is_finite),
                &format!("stage {name:?} missing numeric {key}"),
            );
        }
    }
}

fn validate_serve(errors: &mut Vec<Violation>, file: &str, doc: &Json) {
    for key in ["wall_s", "requests_total", "throughput_rps"] {
        check(
            errors,
            file,
            doc.get(key).and_then(Json::as_f64).is_some_and(f64::is_finite),
            &format!("missing or non-numeric {key}"),
        );
    }
    for key in ["ok", "overloaded", "other_errors", "broken"] {
        require_num(errors, file, doc, "outcomes", key);
    }
    for key in ["p50", "p95", "p99"] {
        require_num(errors, file, doc, "latency_us", key);
    }
    let Some(Json::Obj(endpoints)) = doc.get("endpoints") else {
        check(errors, file, false, "missing endpoints object");
        return;
    };
    check(errors, file, !endpoints.is_empty(), "endpoints object is empty");
    for (name, endpoint) in endpoints {
        for key in ["requests", "p50_us", "p95_us", "p99_us"] {
            check(
                errors,
                file,
                endpoint.get(key).and_then(Json::as_f64).is_some_and(f64::is_finite),
                &format!("endpoint {name:?} missing numeric {key}"),
            );
        }
    }
    validate_stages(errors, file, doc);
}

/// Checks a kernels artifact of schema `implant-bench-kernels/<version>`:
/// /2 adds the compiled engine and its 5x gate, /3 the cold cosim
/// kernel and its 3x gate, /4 the warm-table cosim kernels and the gate
/// that warm full-chain cosim beats the monolithic full chain.
fn validate_kernels(errors: &mut Vec<Violation>, file: &str, doc: &Json, version: u32) {
    let Some(Json::Obj(kernels)) = doc.get("kernels") else {
        check(errors, file, false, "missing kernels object");
        return;
    };
    for name in ["fig11", "fullchain", "montecarlo", "sweep"] {
        check(
            errors,
            file,
            kernels.iter().any(|(k, _)| k == name),
            &format!("kernel {name:?} missing"),
        );
    }
    for (name, kernel) in kernels {
        for key in ["runs", "p50_us", "p95_us", "p99_us"] {
            check(
                errors,
                file,
                kernel.get(key).and_then(Json::as_f64).is_some_and(f64::is_finite),
                &format!("kernel {name:?} missing numeric {key}"),
            );
        }
    }
    if version >= 2 {
        check(
            errors,
            file,
            kernels.iter().any(|(k, _)| k == "fig11_interp"),
            "kernel \"fig11_interp\" missing",
        );
        for key in [
            "compile_us",
            "unknowns",
            "nonzeros",
            "newton_iterations",
            "assemble_ms",
            "factor_ms",
            "solve_ms",
            "pivoted_factorizations",
            "refactorizations",
            "refactor_skips",
            "refactor_skip_rate",
            "fig11_speedup",
        ] {
            require_num(errors, file, doc, "compiled", key);
        }
        // The compile-win gate: a compiled engine that is not at least
        // 5x faster than the interpreter on fig11 is a regression.
        let speedup =
            doc.get("compiled").and_then(|c| c.get("fig11_speedup")).and_then(Json::as_f64);
        if let Some(speedup) = speedup {
            check(
                errors,
                file,
                speedup >= 5.0,
                &format!("compiled fig11 speedup {speedup:.2}x is below the 5x floor"),
            );
        }
        let skip_rate =
            doc.get("compiled").and_then(|c| c.get("refactor_skip_rate")).and_then(Json::as_f64);
        if let Some(rate) = skip_rate {
            check(
                errors,
                file,
                (0.0..=1.0).contains(&rate),
                &format!("refactor_skip_rate {rate} outside [0, 1]"),
            );
        }
    }
    if version >= 3 {
        check(
            errors,
            file,
            kernels.iter().any(|(k, _)| k == "fig11_cosim"),
            "kernel \"fig11_cosim\" missing",
        );
        require_num(errors, file, doc, "compiled", "cosim_speedup");
        // The multi-rate-win gate: the partitioned engine must beat the
        // compiled monolithic transient by at least 3x on fig11.
        let speedup =
            doc.get("compiled").and_then(|c| c.get("cosim_speedup")).and_then(Json::as_f64);
        if let Some(speedup) = speedup {
            check(
                errors,
                file,
                speedup >= 3.0,
                &format!("cosim fig11 speedup {speedup:.2}x is below the 3x floor"),
            );
        }
    }
    if version >= 4 {
        for name in [
            "fullchain_cosim",
            "fig11_cosim_warm",
            "fullchain_cosim_warm",
        ] {
            check(
                errors,
                file,
                kernels.iter().any(|(k, _)| k == name),
                &format!("kernel {name:?} missing"),
            );
        }
        require_num(errors, file, doc, "compiled", "fullchain_warm_speedup");
        // The calibration-reuse gate: with its table cached, full-chain
        // cosim must beat the monolithic full chain.
        let speedup = doc
            .get("compiled")
            .and_then(|c| c.get("fullchain_warm_speedup"))
            .and_then(Json::as_f64);
        if let Some(speedup) = speedup {
            check(
                errors,
                file,
                speedup > 1.0,
                &format!("warm full-chain cosim speedup {speedup:.2}x does not beat the monolithic engine"),
            );
        }
    }
    validate_stages(errors, file, doc);
}

fn validate_scenario(errors: &mut Vec<Violation>, file: &str, doc: &Json) {
    let Some(Json::Obj(kernels)) = doc.get("kernels") else {
        check(errors, file, false, "missing kernels object");
        return;
    };
    for name in ["patientday", "cohort"] {
        check(
            errors,
            file,
            kernels.iter().any(|(k, _)| k == name),
            &format!("kernel {name:?} missing"),
        );
    }
    for (name, kernel) in kernels {
        for key in ["runs", "p50_us", "p95_us", "p99_us"] {
            check(
                errors,
                file,
                kernel.get(key).and_then(Json::as_f64).is_some_and(f64::is_finite),
                &format!("kernel {name:?} missing numeric {key}"),
            );
        }
    }
    for key in ["repeats", "patients", "cohort_hours"] {
        require_num(errors, file, doc, "config", key);
    }
    validate_stages(errors, file, doc);
}

fn validate_fanin(errors: &mut Vec<Violation>, file: &str, doc: &Json) {
    for key in ["wall_s", "requests_total", "throughput_rps"] {
        check(
            errors,
            file,
            doc.get(key).and_then(Json::as_f64).is_some_and(f64::is_finite),
            &format!("missing or non-numeric {key}"),
        );
    }
    for key in ["ok", "overloaded", "other_errors", "broken"] {
        require_num(errors, file, doc, "outcomes", key);
    }
    check(
        errors,
        file,
        doc.get("outcomes").and_then(|o| o.get("broken")).and_then(Json::as_f64) == Some(0.0),
        "fan-in run broke requests",
    );
    for key in ["p50", "p95", "p99"] {
        require_num(errors, file, doc, "latency_us", key);
    }
    for key in ["connections", "threads_before", "threads_during"] {
        require_num(errors, file, doc, "soak", key);
    }
    let thread = |key: &str| doc.get("soak").and_then(|s| s.get(key)).and_then(Json::as_f64);
    if let (Some(before), Some(during)) = (thread("threads_before"), thread("threads_during")) {
        check(
            errors,
            file,
            during <= before + 2.0,
            &format!("threads grew with connections ({before} -> {during})"),
        );
    }
    for key in
        ["unique_keys", "duplicates", "cache_misses", "cache_hits", "collapsed", "shed", "expired"]
    {
        require_num(errors, file, doc, "collapse", key);
    }
    let ledger = |key: &str| doc.get("collapse").and_then(|c| c.get(key)).and_then(Json::as_f64);
    if let (Some(unique), Some(misses)) = (ledger("unique_keys"), ledger("cache_misses")) {
        check(
            errors,
            file,
            misses == unique,
            &format!("duplicates were recomputed ({misses} executions for {unique} distinct points)"),
        );
    }
    validate_stages(errors, file, doc);
}

fn validate_cluster(errors: &mut Vec<Violation>, file: &str, doc: &Json) {
    let Some(Json::Obj(scaling)) = doc.get("scaling") else {
        check(errors, file, false, "missing scaling object");
        return;
    };
    check(errors, file, !scaling.is_empty(), "scaling object is empty");
    for (name, point) in scaling {
        for key in ["replicas", "wall_s", "throughput_rps", "p50_us", "p99_us", "ok", "broken"] {
            check(
                errors,
                file,
                point.get(key).and_then(Json::as_f64).is_some_and(f64::is_finite),
                &format!("scaling point {name:?} missing numeric {key}"),
            );
        }
        check(
            errors,
            file,
            point.get("broken").and_then(Json::as_f64) == Some(0.0),
            &format!("scaling point {name:?} lost requests"),
        );
    }
    let Some(kill) = doc.get("kill") else {
        check(errors, file, false, "missing kill object");
        return;
    };
    for window in ["before", "during", "after"] {
        for key in ["requests", "p50_us", "p99_us"] {
            check(
                errors,
                file,
                kill.get(window)
                    .and_then(|w| w.get(key))
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
                &format!("kill window {window:?} missing numeric {key}"),
            );
        }
    }
    check(
        errors,
        file,
        kill.get("lost").and_then(Json::as_f64) == Some(0.0),
        "kill phase lost in-deadline requests",
    );
    // The warm (shared-store) phase is optional — `--warm` lanes only —
    // but when present it must carry both variants and the counters,
    // and the store must actually have shrunk the post-kill p99.
    if let Some(warm) = doc.get("warm") {
        for variant in ["baseline", "store"] {
            for key in ["requests", "post_kill_p50_ms", "post_kill_p99_ms", "lost"] {
                check(
                    errors,
                    file,
                    warm.get(variant)
                        .and_then(|v| v.get(key))
                        .and_then(Json::as_f64)
                        .is_some_and(f64::is_finite),
                    &format!("warm variant {variant:?} missing numeric {key}"),
                );
            }
            check(
                errors,
                file,
                warm.get(variant).and_then(|v| v.get("lost")).and_then(Json::as_f64)
                    == Some(0.0),
                &format!("warm variant {variant:?} lost requests"),
            );
        }
        for key in ["catchup_keys", "hedged_reads", "store_hits"] {
            check(
                errors,
                file,
                warm.get(key).and_then(Json::as_f64).is_some_and(f64::is_finite),
                &format!("warm missing numeric {key}"),
            );
        }
        let p99 = |variant: &str| {
            warm.get(variant).and_then(|v| v.get("post_kill_p99_ms")).and_then(Json::as_f64)
        };
        if let (Some(baseline), Some(stored)) = (p99("baseline"), p99("store")) {
            check(
                errors,
                file,
                stored < baseline,
                &format!("store did not shrink post-kill p99 ({stored} ms vs {baseline} ms)"),
            );
        }
    }
}

fn validate_file(errors: &mut Vec<Violation>, file: &str) {
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            check(errors, file, false, &format!("cannot read: {e}"));
            return;
        }
    };
    let Some(doc) = Json::parse(text.trim_end()) else {
        check(errors, file, false, "not valid JSON");
        return;
    };
    if let Some(path) = doc.non_finite_path() {
        check(errors, file, false, &format!("non-finite number at {path}"));
    }
    match doc.get("schema").and_then(Json::as_str) {
        Some("implant-bench-serve/1") => validate_serve(errors, file, &doc),
        Some("implant-bench-kernels/1") => validate_kernels(errors, file, &doc, 1),
        Some("implant-bench-kernels/2") => validate_kernels(errors, file, &doc, 2),
        Some("implant-bench-kernels/3") => validate_kernels(errors, file, &doc, 3),
        Some("implant-bench-kernels/4") => validate_kernels(errors, file, &doc, 4),
        Some("implant-bench-cluster/1") => validate_cluster(errors, file, &doc),
        Some("implant-bench-fanin/1") => validate_fanin(errors, file, &doc),
        Some("implant-bench-scenario/1") => validate_scenario(errors, file, &doc),
        Some(other) => check(errors, file, false, &format!("unknown schema {other:?}")),
        None => check(errors, file, false, "missing schema field"),
    }
}

fn main() {
    let files: Vec<String> = std::env::args().skip(1).collect();
    assert!(!files.is_empty(), "usage: bench_validate BENCH_a.json [BENCH_b.json ...]");
    let mut errors = Vec::new();
    for file in &files {
        validate_file(&mut errors, file);
    }
    if errors.is_empty() {
        println!("bench_validate: {} file(s) OK", files.len());
        return;
    }
    for Violation(file, reason) in &errors {
        eprintln!("bench_validate: {file}: {reason}");
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal artifact that satisfies every `implant-bench-fanin/1`
    /// check — the failure tests below each break exactly one field.
    fn fanin_doc() -> String {
        r#"{"schema":"implant-bench-fanin/1",
            "config":{"connections":2000,"drivers":8},
            "soak":{"connections":2000,"threads_before":6,"threads_during":6},
            "wall_s":0.2,"requests_total":160,"throughput_rps":800.0,
            "outcomes":{"ok":160,"overloaded":0,"other_errors":0,"broken":0},
            "latency_us":{"p50":5792.0,"p95":32768.0,"p99":65536.0},
            "collapse":{"unique_keys":20,"duplicates":140,"cache_misses":20,
                        "cache_hits":140,"collapsed":49,"shed":0,"expired":0},
            "stages":{"server.execute":{"count":74,"total_us":253899.0,"share":0.35,
                                        "p50_us":8.0,"p95_us":23170.0,"p99_us":46340.0}}}"#
            .to_string()
    }

    fn fanin_errors(text: &str) -> Vec<String> {
        let doc = Json::parse(text).expect("test doc parses");
        let mut errors = Vec::new();
        validate_fanin(&mut errors, "test.json", &doc);
        errors.into_iter().map(|Violation(_, reason)| reason).collect()
    }

    #[test]
    fn well_formed_fanin_artifact_validates() {
        assert_eq!(fanin_errors(&fanin_doc()), Vec::<String>::new());
    }

    #[test]
    fn fanin_broken_requests_are_rejected() {
        let doc = fanin_doc().replace(r#""broken":0"#, r#""broken":3"#);
        assert!(
            fanin_errors(&doc).iter().any(|r| r.contains("broke requests")),
            "{:?}",
            fanin_errors(&doc)
        );
    }

    #[test]
    fn fanin_thread_growth_is_rejected() {
        let doc = fanin_doc().replace(r#""threads_during":6"#, r#""threads_during":40"#);
        assert!(
            fanin_errors(&doc).iter().any(|r| r.contains("threads grew")),
            "{:?}",
            fanin_errors(&doc)
        );
    }

    #[test]
    fn fanin_recomputed_duplicates_are_rejected() {
        let doc = fanin_doc().replace(r#""cache_misses":20"#, r#""cache_misses":35"#);
        assert!(
            fanin_errors(&doc).iter().any(|r| r.contains("recomputed")),
            "{:?}",
            fanin_errors(&doc)
        );
    }

    #[test]
    fn fanin_missing_collapse_ledger_is_rejected() {
        let doc = fanin_doc().replace(r#""unique_keys":20,"#, "");
        assert!(
            fanin_errors(&doc).iter().any(|r| r.contains("collapse.unique_keys")),
            "{:?}",
            fanin_errors(&doc)
        );
    }

    #[test]
    fn fanin_empty_stages_are_rejected() {
        let doc = fanin_doc();
        let (head, _) = doc.split_once(r#""stages":"#).expect("stages present");
        let doc = format!(r#"{head}"stages":{{}}}}"#);
        assert!(
            fanin_errors(&doc).iter().any(|r| r.contains("stages object is empty")),
            "{:?}",
            fanin_errors(&doc)
        );
    }

    /// A minimal artifact satisfying every `implant-bench-kernels/2`
    /// check, including the compiled-engine object and the 5x gate.
    fn kernels2_doc() -> String {
        r#"{"schema":"implant-bench-kernels/2",
            "config":{"repeats":2,"mc_trials":50,"fullchain_cycles":15,"smoke":true},
            "kernels":{
              "fig11":{"runs":2,"p50_us":500000.0,"p95_us":510000.0,"p99_us":520000.0},
              "fig11_interp":{"runs":2,"p50_us":6000000.0,"p95_us":6100000.0,"p99_us":6200000.0},
              "fullchain":{"runs":2,"p50_us":20000.0,"p95_us":21000.0,"p99_us":22000.0},
              "montecarlo":{"runs":2,"p50_us":11000.0,"p95_us":12000.0,"p99_us":13000.0},
              "sweep":{"runs":2,"p50_us":180.0,"p95_us":190.0,"p99_us":200.0}},
            "compiled":{"compile_us":120.0,"unknowns":24.0,"nonzeros":120.0,
              "newton_iterations":80000.0,"assemble_ms":40.0,"factor_ms":90.0,
              "solve_ms":60.0,"pivoted_factorizations":4.0,"refactorizations":30000.0,
              "refactor_skips":45000.0,"refactor_skip_rate":0.6,"fig11_speedup":12.0},
            "stages":{"fig11.transient":{"count":2,"total_us":1000000.0,"share":0.9,
                      "p50_us":500000.0,"p95_us":510000.0,"p99_us":520000.0}}}"#
            .to_string()
    }

    fn kernels2_errors(text: &str) -> Vec<String> {
        let doc = Json::parse(text).expect("test doc parses");
        let mut errors = Vec::new();
        validate_kernels(&mut errors, "test.json", &doc, 2);
        errors.into_iter().map(|Violation(_, reason)| reason).collect()
    }

    #[test]
    fn well_formed_kernels2_artifact_validates() {
        assert_eq!(kernels2_errors(&kernels2_doc()), Vec::<String>::new());
    }

    #[test]
    fn kernels2_slow_compiled_engine_is_rejected() {
        let doc = kernels2_doc().replace(r#""fig11_speedup":12.0"#, r#""fig11_speedup":3.0"#);
        assert!(
            kernels2_errors(&doc).iter().any(|r| r.contains("below the 5x floor")),
            "{:?}",
            kernels2_errors(&doc)
        );
    }

    #[test]
    fn kernels2_missing_interp_kernel_is_rejected() {
        let doc = kernels2_doc().replace(r#""fig11_interp""#, r#""fig11_other""#);
        assert!(
            kernels2_errors(&doc).iter().any(|r| r.contains("fig11_interp")),
            "{:?}",
            kernels2_errors(&doc)
        );
    }

    #[test]
    fn kernels2_missing_compiled_field_is_rejected() {
        let doc = kernels2_doc().replace(r#""refactor_skip_rate":0.6,"#, "");
        assert!(
            kernels2_errors(&doc).iter().any(|r| r.contains("compiled.refactor_skip_rate")),
            "{:?}",
            kernels2_errors(&doc)
        );
    }

    #[test]
    fn kernels2_bogus_skip_rate_is_rejected() {
        let doc = kernels2_doc().replace(r#""refactor_skip_rate":0.6"#, r#""refactor_skip_rate":1.4"#);
        assert!(
            kernels2_errors(&doc).iter().any(|r| r.contains("outside [0, 1]")),
            "{:?}",
            kernels2_errors(&doc)
        );
    }

    /// A minimal artifact satisfying every `implant-bench-kernels/3`
    /// check: /2 plus the cosim kernel and its 3x gate.
    fn kernels3_doc() -> String {
        kernels2_doc()
            .replace(
                r#""fig11_interp":"#,
                r#""fig11_cosim":{"runs":2,"p50_us":40000.0,"p95_us":41000.0,"p99_us":42000.0},
              "fig11_interp":"#,
            )
            .replace(r#""fig11_speedup":12.0"#, r#""fig11_speedup":12.0,"cosim_speedup":12.5"#)
            .replace("implant-bench-kernels/2", "implant-bench-kernels/3")
    }

    fn kernels3_errors(text: &str) -> Vec<String> {
        let doc = Json::parse(text).expect("test doc parses");
        let mut errors = Vec::new();
        validate_kernels(&mut errors, "test.json", &doc, 3);
        errors.into_iter().map(|Violation(_, reason)| reason).collect()
    }

    #[test]
    fn well_formed_kernels3_artifact_validates() {
        assert_eq!(kernels3_errors(&kernels3_doc()), Vec::<String>::new());
    }

    #[test]
    fn kernels3_slow_cosim_engine_is_rejected() {
        let doc = kernels3_doc().replace(r#""cosim_speedup":12.5"#, r#""cosim_speedup":2.2"#);
        assert!(
            kernels3_errors(&doc).iter().any(|r| r.contains("below the 3x floor")),
            "{:?}",
            kernels3_errors(&doc)
        );
    }

    #[test]
    fn kernels3_missing_cosim_kernel_is_rejected() {
        let doc = kernels3_doc().replace(r#""fig11_cosim""#, r#""fig11_other""#);
        assert!(
            kernels3_errors(&doc).iter().any(|r| r.contains("fig11_cosim")),
            "{:?}",
            kernels3_errors(&doc)
        );
    }

    #[test]
    fn kernels3_missing_cosim_speedup_is_rejected() {
        let doc = kernels3_doc().replace(r#","cosim_speedup":12.5"#, "");
        assert!(
            kernels3_errors(&doc).iter().any(|r| r.contains("compiled.cosim_speedup")),
            "{:?}",
            kernels3_errors(&doc)
        );
    }

    /// A minimal artifact satisfying every `implant-bench-kernels/4`
    /// check: /3 plus the warm-table kernels and their gate.
    fn kernels4_doc() -> String {
        kernels3_doc()
            .replace(
                r#""fig11_interp":"#,
                r#""fullchain_cosim":{"runs":2,"p50_us":90000.0,"p95_us":91000.0,"p99_us":92000.0},
              "fig11_cosim_warm":{"runs":2,"p50_us":9000.0,"p95_us":9100.0,"p99_us":9200.0},
              "fullchain_cosim_warm":{"runs":2,"p50_us":100.0,"p95_us":110.0,"p99_us":120.0},
              "fig11_interp":"#,
            )
            .replace(
                r#""cosim_speedup":12.5"#,
                r#""cosim_speedup":12.5,"fullchain_warm_speedup":200.0"#,
            )
            .replace("implant-bench-kernels/3", "implant-bench-kernels/4")
    }

    fn kernels4_errors(text: &str) -> Vec<String> {
        let doc = Json::parse(text).expect("test doc parses");
        let mut errors = Vec::new();
        validate_kernels(&mut errors, "test.json", &doc, 4);
        errors
            .into_iter()
            .map(|Violation(_, reason)| reason)
            .collect()
    }

    #[test]
    fn well_formed_kernels4_artifact_validates() {
        assert_eq!(kernels4_errors(&kernels4_doc()), Vec::<String>::new());
    }

    #[test]
    fn kernels4_slow_warm_fullchain_is_rejected() {
        let doc = kernels4_doc().replace(
            r#""fullchain_warm_speedup":200.0"#,
            r#""fullchain_warm_speedup":0.6"#,
        );
        assert!(
            kernels4_errors(&doc)
                .iter()
                .any(|r| r.contains("does not beat the monolithic")),
            "{:?}",
            kernels4_errors(&doc)
        );
    }

    #[test]
    fn kernels4_missing_warm_kernel_is_rejected() {
        let doc = kernels4_doc().replace(r#""fullchain_cosim_warm""#, r#""fullchain_other""#);
        assert!(
            kernels4_errors(&doc)
                .iter()
                .any(|r| r.contains("fullchain_cosim_warm")),
            "{:?}",
            kernels4_errors(&doc)
        );
        let doc = kernels4_doc().replace(r#","fullchain_warm_speedup":200.0"#, "");
        assert!(
            kernels4_errors(&doc)
                .iter()
                .any(|r| r.contains("compiled.fullchain_warm_speedup")),
            "{:?}",
            kernels4_errors(&doc)
        );
    }

    #[test]
    fn kernels2_artifacts_stay_accepted_without_the_cosim_gate() {
        // Old artifacts predate the cosim kernel; the /2 dispatch must
        // not demand it.
        assert_eq!(kernels2_errors(&kernels2_doc()), Vec::<String>::new());
        let path = std::env::temp_dir().join("bench_validate_kernels2_dispatch.json");
        std::fs::write(&path, kernels2_doc()).expect("write temp artifact");
        let mut errors = Vec::new();
        validate_file(&mut errors, path.to_str().expect("utf-8 temp path"));
        let _ = std::fs::remove_file(&path);
        assert!(errors.is_empty(), "{:?}", errors.iter().map(|Violation(_, r)| r).collect::<Vec<_>>());
    }

    #[test]
    fn fanin_schema_dispatches_through_validate_file() {
        let path = std::env::temp_dir().join("bench_validate_fanin_dispatch.json");
        std::fs::write(&path, fanin_doc()).expect("write temp artifact");
        let mut errors = Vec::new();
        validate_file(&mut errors, path.to_str().expect("utf-8 temp path"));
        let _ = std::fs::remove_file(&path);
        assert!(errors.is_empty(), "{:?}", errors.iter().map(|Violation(_, r)| r).collect::<Vec<_>>());
    }
}
