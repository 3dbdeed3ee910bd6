//! Prometheus-style text exposition of the stage registry.
//!
//! The renderer is a pure function over a slice of [`StageSnapshot`]s,
//! so the format is golden-testable without touching the live
//! (process-global, test-order-dependent) registry. The server's
//! `metrics_v2` endpoint ships the same renderer over its scope's
//! snapshot inside its JSON response.

use crate::registry::StageSnapshot;
use std::fmt::Write as _;

/// Quantiles exposed per stage (matching the repo-wide p50/p95/p99
/// convention).
const QUANTILES: [(f64, &str); 3] = [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")];

/// Renders stage snapshots in the Prometheus text exposition format
/// (version 0.0.4): three metric families, each contiguous, stages in
/// the order given (callers pass [`snapshot`]'s name-sorted output).
///
/// * `implant_obs_stage_count` — samples per stage (span completions or
///   counter increments);
/// * `implant_obs_stage_duration_seconds_total` — total time per stage;
/// * `implant_obs_stage_duration_seconds{quantile=…}` — per-stage
///   latency quantiles (log-bucket upper bounds, so they never
///   under-report).
///
/// Counter-only stages (no recorded durations) appear in the count
/// family only. All numbers render deterministically: counts as
/// integers, seconds as fixed 9-decimal nanosecond-exact values.
pub fn render_prometheus(stages: &[StageSnapshot]) -> String {
    let mut out = String::new();
    out.push_str("# HELP implant_obs_stage_count Samples recorded per stage (span completions or counter increments).\n");
    out.push_str("# TYPE implant_obs_stage_count counter\n");
    for stage in stages {
        let _ = writeln!(out, "implant_obs_stage_count{{stage=\"{}\"}} {}", stage.name, stage.count);
    }

    let timed: Vec<&StageSnapshot> = stages.iter().filter(|s| !s.hist.is_empty()).collect();
    out.push_str("# HELP implant_obs_stage_duration_seconds_total Total time spent in each stage.\n");
    out.push_str("# TYPE implant_obs_stage_duration_seconds_total counter\n");
    for stage in &timed {
        let _ = writeln!(
            out,
            "implant_obs_stage_duration_seconds_total{{stage=\"{}\"}} {}",
            stage.name,
            seconds(stage.total.as_nanos() as u64),
        );
    }

    out.push_str("# HELP implant_obs_stage_duration_seconds Per-stage latency quantiles (log-bucket upper bounds).\n");
    out.push_str("# TYPE implant_obs_stage_duration_seconds summary\n");
    for stage in &timed {
        for (q, label) in QUANTILES {
            let _ = writeln!(
                out,
                "implant_obs_stage_duration_seconds{{stage=\"{}\",quantile=\"{}\"}} {}",
                stage.name,
                label,
                seconds(stage.hist.quantile(q).as_nanos() as u64),
            );
        }
    }
    out
}

/// The `implant_obs_stage_count` sample of `stage` in an exposition
/// (in `replica`'s part, for a merged one); 0 when the stage is absent.
pub fn stage_count(text: &str, replica: Option<&str>, stage: &str) -> u64 {
    let replica = replica.map_or(String::new(), |r| format!("replica=\"{r}\","));
    let prefix = format!("implant_obs_stage_count{{{replica}stage=\"{stage}\"}} ");
    text.lines().find_map(|line| line.strip_prefix(&prefix)?.parse().ok()).unwrap_or(0)
}

/// Merges several per-replica expositions (as produced by
/// [`render_prometheus`]) into one, tagging every
/// sample with a `replica="<name>"` label in the first position.
///
/// Families keep the order of their first appearance across `parts`
/// (all renderer outputs share one order, so this is the renderer's
/// order); within a family, samples appear in the order `parts` were
/// given. The output is a pure function of the inputs — byte-stable
/// under replica count: a replica's lines are identical whether it is
/// merged alone or alongside others. The cluster front proxy serves
/// this as its `metrics_v2`.
pub fn merge_prometheus(parts: &[(&str, &str)]) -> String {
    // Family name → (# HELP line, # TYPE line), discovered in order.
    let mut order: Vec<&str> = Vec::new();
    let mut headers: Vec<(&str, &str, &str)> = Vec::new(); // (family, help, type)
    // Per part: (replica name, per-family sample lines).
    let mut parsed: Vec<(&str, Vec<(&str, &str)>)> = Vec::new();

    for (replica, text) in parts {
        let mut samples: Vec<(&str, &str)> = Vec::new();
        let mut pending_help: Option<(&str, &str)> = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let family = rest.split(' ').next().unwrap_or("");
                pending_help = Some((family, line));
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let family = rest.split(' ').next().unwrap_or("");
                if !order.contains(&family) {
                    order.push(family);
                    let help = match pending_help {
                        Some((f, h)) if f == family => h,
                        _ => "",
                    };
                    headers.push((family, help, line));
                }
                pending_help = None;
            } else if !line.is_empty() {
                let family = line.split(['{', ' ']).next().unwrap_or(line);
                samples.push((family, line));
            }
        }
        parsed.push((replica, samples));
    }

    let mut out = String::new();
    for family in &order {
        if let Some((_, help, ty)) = headers.iter().find(|(f, _, _)| f == family) {
            if !help.is_empty() {
                out.push_str(help);
                out.push('\n');
            }
            out.push_str(ty);
            out.push('\n');
        }
        for (replica, samples) in &parsed {
            for (f, line) in samples {
                if f == family {
                    out.push_str(&label_sample(line, replica));
                    out.push('\n');
                }
            }
        }
    }
    out
}

/// Injects `replica="<name>"` as the first label of one sample line.
fn label_sample(line: &str, replica: &str) -> String {
    match line.find('{') {
        Some(i) if line[i + 1..].starts_with('}') => {
            format!("{}{{replica=\"{replica}\"{}", &line[..i], &line[i + 1..])
        }
        Some(i) => format!("{}{{replica=\"{replica}\",{}", &line[..i], &line[i + 1..]),
        None => match line.find(' ') {
            Some(i) => format!("{}{{replica=\"{replica}\"}}{}", &line[..i], &line[i..]),
            None => line.to_string(),
        },
    }
}

/// Nanoseconds as decimal seconds, exactly (`12345` → `"0.000012345"`).
/// Integer formatting keeps the exposition bit-stable across platforms.
fn seconds(nanos: u64) -> String {
    format!("{}.{:09}", nanos / 1_000_000_000, nanos % 1_000_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LatencyHistogram;
    use std::time::Duration;

    #[test]
    fn seconds_are_nanosecond_exact() {
        assert_eq!(seconds(0), "0.000000000");
        assert_eq!(seconds(12_345), "0.000012345");
        assert_eq!(seconds(1_500_000_000), "1.500000000");
    }

    #[test]
    fn families_are_contiguous_and_counters_skip_duration_families() {
        let mut hist = LatencyHistogram::new();
        hist.record(Duration::from_micros(10));
        let stages = vec![
            StageSnapshot {
                name: "a.counter",
                count: 4,
                total: Duration::ZERO,
                hist: LatencyHistogram::new(),
            },
            StageSnapshot {
                name: "b.span",
                count: 1,
                total: Duration::from_micros(10),
                hist,
            },
        ];
        let text = render_prometheus(&stages);
        assert!(text.contains("implant_obs_stage_count{stage=\"a.counter\"} 4"));
        assert!(text.contains("implant_obs_stage_count{stage=\"b.span\"} 1"));
        assert!(!text.contains("duration_seconds_total{stage=\"a.counter\""));
        assert!(text.contains("duration_seconds_total{stage=\"b.span\"} 0.000010000"));
        // Families must not interleave: every # TYPE header appears once.
        assert_eq!(text.matches("# TYPE implant_obs_stage_count counter").count(), 1);
        assert_eq!(
            text.matches("# TYPE implant_obs_stage_duration_seconds summary").count(),
            1
        );
    }

    #[test]
    fn label_sample_injects_the_replica_label_first() {
        assert_eq!(
            label_sample("m{stage=\"a\"} 3", "r0"),
            "m{replica=\"r0\",stage=\"a\"} 3"
        );
        assert_eq!(label_sample("m 3", "r1"), "m{replica=\"r1\"} 3");
        assert_eq!(label_sample("m{} 3", "r2"), "m{replica=\"r2\"} 3");
    }

    #[test]
    fn stage_count_reads_plain_and_merged_expositions() {
        let stages = vec![StageSnapshot {
            name: "server.ok",
            count: 7,
            total: Duration::ZERO,
            hist: LatencyHistogram::new(),
        }];
        let text = render_prometheus(&stages);
        assert_eq!(stage_count(&text, None, "server.ok"), 7);
        assert_eq!(stage_count(&text, None, "server.o"), 0, "whole names only");
        let merged = merge_prometheus(&[("r0", &text)]);
        assert_eq!(stage_count(&merged, Some("r0"), "server.ok"), 7);
        assert_eq!(stage_count(&merged, Some("r1"), "server.ok"), 0);
    }

    #[test]
    fn merge_keeps_families_contiguous_and_parts_ordered() {
        let mut hist = LatencyHistogram::new();
        hist.record(Duration::from_micros(10));
        let stages = vec![StageSnapshot {
            name: "server.execute",
            count: 1,
            total: Duration::from_micros(10),
            hist,
        }];
        let text = render_prometheus(&stages);
        let merged = merge_prometheus(&[("r0", &text), ("r1", &text)]);
        // Every # TYPE header appears exactly once.
        assert_eq!(merged.matches("# TYPE implant_obs_stage_count counter").count(), 1);
        assert_eq!(
            merged.matches("# TYPE implant_obs_stage_duration_seconds summary").count(),
            1
        );
        // Both replicas appear, r0 before r1 within each family.
        let r0 = merged.find("implant_obs_stage_count{replica=\"r0\",stage=\"server.execute\"}");
        let r1 = merged.find("implant_obs_stage_count{replica=\"r1\",stage=\"server.execute\"}");
        assert!(r0.unwrap() < r1.unwrap(), "{merged}");
    }

    #[test]
    fn merge_is_byte_stable_under_replica_count() {
        let mut hist = LatencyHistogram::new();
        hist.record(Duration::from_micros(20));
        let stages = vec![StageSnapshot {
            name: "cluster.route",
            count: 2,
            total: Duration::from_micros(20),
            hist,
        }];
        let text = render_prometheus(&stages);
        let solo = merge_prometheus(&[("r0", &text)]);
        let duo = merge_prometheus(&[("r0", &text), ("r1", &text)]);
        // Every r0 line of the solo merge appears verbatim in the duo
        // merge — adding replicas never rewrites existing lines.
        for line in solo.lines().filter(|l| !l.starts_with('#')) {
            assert!(duo.contains(line), "line {line:?} must survive the wider merge");
        }
    }

    #[test]
    fn live_exposition_parses_line_by_line() {
        // Record directly on the stage (not through the enable gate) so
        // this cannot race the disabled-window test elsewhere.
        crate::registry::stage("test.expo.live").record_duration(Duration::from_micros(42));
        let text = render_prometheus(&crate::snapshot());
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.starts_with("implant_obs_"),
                "unexpected line {line:?}"
            );
            if !line.starts_with('#') {
                let (_, value) = line.rsplit_once(' ').expect("metric line has a value");
                assert!(value.parse::<f64>().is_ok(), "unparseable value in {line:?}");
            }
        }
        assert!(text.contains("stage=\"test.expo.live\""));
    }
}
