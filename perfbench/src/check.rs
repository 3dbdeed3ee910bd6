//! Answer checks, run outside the timed window.
//!
//! * `fig11` / `fullchain`: the paper's verdicts (`vo_compliant`, no
//!   downlink errors, `supply_compliant`) and, at the points the
//!   repository's goldens pin, the golden values within their bands.
//! * `montecarlo` / `sweep` / `patientday`: every field bit-equal to a
//!   direct call of the same public function.

use crate::workload::{Class, Req};
use coils::tissue::TissueStack;
use implant_core::montecarlo::{MonteCarloStudy, VariationModel};
use link::budget::PowerBudget;
use runtime::{Artifact, Json};
use server::proto::{DecodeLimits, RequestBody, SweepMedium};

/// Relative bands for a co-simulated answer at a golden point: the
/// envelope model's documented agreement with the monolithic figures
/// (the same bands the cosim conformance tests hold it to).
const COSIM_FIG11_BANDS: [(&str, f64); 3] = [
    ("vo_worst", 0.01),
    ("uplink_contrast", 0.10),
    ("t_charged_us", 0.02),
];
const COSIM_FULLCHAIN_BANDS: [(&str, f64); 4] = [
    ("vo_steady", 0.02),
    ("efficiency", 0.05),
    ("p_load_mw", 0.05),
    ("p_supply_mw", 0.02),
];

/// One golden file: its tolerance and pinned values.
#[derive(Debug, Clone)]
struct Golden {
    tolerance: f64,
    values: Vec<(String, f64)>,
}

impl Golden {
    fn parse(text: &str) -> Golden {
        let doc = Json::parse(text).expect("golden file is valid JSON");
        let tolerance = doc
            .get("tolerance")
            .and_then(Json::as_f64)
            .expect("golden tolerance");
        let values = match doc.get("values") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|f| (k.clone(), f)))
                .collect(),
            _ => panic!("golden file has no values object"),
        };
        Golden { tolerance, values }
    }

    fn value(&self, key: &str) -> f64 {
        self.values
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("golden has no {key}"))
    }
}

/// Checks answers against the verdicts, the goldens and direct calls.
#[derive(Debug, Clone)]
pub struct Checker {
    fig11: Golden,
    fullchain: Golden,
}

impl Default for Checker {
    fn default() -> Self {
        Checker {
            fig11: Golden::parse(include_str!("../../tests/goldens/fig11.json")),
            fullchain: Golden::parse(include_str!("../../tests/goldens/fullchain.json")),
        }
    }
}

fn num(result: &Json, key: &str) -> Result<f64, String> {
    result
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number {key}"))
}

fn flag(result: &Json, key: &str) -> Result<bool, String> {
    result
        .get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("missing flag {key}"))
}

fn cosim_flag(req: &Req) -> bool {
    req.params
        .get("cosim")
        .and_then(Json::as_bool)
        .unwrap_or(false)
}

/// Identity of a request for memoising direct calls.
pub fn identity(req: &Req) -> String {
    format!("{}:{}", req.endpoint, req.params)
}

/// The answer a direct call of the public function behind `req` gives,
/// for the endpoints whose answers are compared bit for bit; `None` for
/// the others.
pub fn expected(req: &Req) -> Option<Json> {
    let body = RequestBody::decode(req.endpoint, &req.params, &DecodeLimits::default())
        .expect("generated requests decode");
    match body {
        RequestBody::Montecarlo(p) => {
            let mut study = MonteCarloStudy::ironic();
            if let Some(seed) = p.seed {
                study.seed = seed;
            }
            study.variation = VariationModel::typical_018um().scaled(p.scale);
            let report = study.run_serial(p.trials as usize);
            Some(Json::obj(vec![
                ("scale", Json::Num(p.scale)),
                ("trials", Json::Num(report.trials as f64)),
                ("seed", Json::Num(study.seed as f64)),
                ("passing", Json::Num(report.passing as f64)),
                ("yield", Json::Num(report.yield_fraction())),
                ("charge_ok", Json::Num(report.charge_ok as f64)),
                ("downlink_ok", Json::Num(report.downlink_ok as f64)),
                ("vo_ok", Json::Num(report.vo_ok as f64)),
                ("vo_min_mean", Json::Num(report.vo_min_mean)),
                ("vo_min_worst", Json::Num(report.vo_min_worst)),
            ]))
        }
        RequestBody::Sweep(p) => {
            let budget = match p.medium {
                SweepMedium::Air => PowerBudget::ironic_air(),
                SweepMedium::Sirloin => {
                    PowerBudget::ironic_air().with_tissue(TissueStack::sirloin_17mm())
                }
            };
            let steps = p.steps as usize;
            let span = p.d_max_mm - p.d_min_mm;
            let distances: Vec<f64> = (0..steps)
                .map(|i| p.d_min_mm + span * i as f64 / (steps - 1) as f64)
                .collect();
            Some(Json::obj(vec![
                ("medium", Json::Str(p.medium.as_str().to_string())),
                (
                    "distances_mm",
                    Json::Arr(distances.iter().copied().map(Json::Num).collect()),
                ),
                (
                    "p_rx_mw",
                    Json::Arr(
                        distances
                            .iter()
                            .map(|&d| Json::Num(budget.received_power(d * 1e-3) * 1e3))
                            .collect(),
                    ),
                ),
            ]))
        }
        RequestBody::Patientday(p) => {
            let summary = p.to_day().run().summary();
            Some(Json::obj(vec![
                ("seed", Json::Num(p.seed as f64)),
                ("profile", Json::Str(p.profile.as_str().to_string())),
                ("hours", Json::Num(p.hours)),
                ("summary", summary.to_json()),
            ]))
        }
        _ => None,
    }
}

/// The answer without the `cached` marker, which legitimately differs
/// between a leader, a collapsed follower and a cache hit.
fn without_cached(result: &Json) -> String {
    match result {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "cached")
                .cloned()
                .collect(),
        )
        .to_string(),
        other => other.to_string(),
    }
}

/// A 64-bit fingerprint of an answer (minus `cached`). The codec prints
/// the shortest round-trip digits, so equal fingerprints mean equal bits
/// in every field (barring a hash collision).
pub fn fingerprint(result: &Json) -> u64 {
    runtime::fnv1a64(without_cached(result).as_bytes())
}

impl Checker {
    /// Checks one successful answer: `result` is the whole answer (kept
    /// for `fig11`/`fullchain`), `served` its [`fingerprint`], and
    /// `expected` the direct-call answer for the bit-equal endpoints (see
    /// [`expected`]). Returns the worst relative golden deviation when the
    /// request sits at a golden point.
    ///
    /// # Errors
    ///
    /// A description of the first way the answer is wrong.
    pub fn check(
        &self,
        req: &Req,
        result: Option<&Json>,
        served: u64,
        expected: Option<&Json>,
    ) -> Result<Option<f64>, String> {
        match (req.endpoint, result) {
            ("fig11", Some(result)) => {
                if flag(result, "cosim")? != cosim_flag(req) {
                    return Err("answered by the wrong engine".into());
                }
                if !flag(result, "vo_compliant")? {
                    return Err("vo not compliant".into());
                }
                if num(result, "downlink_errors")? != 0.0 {
                    return Err("downlink bits lost".into());
                }
                if req.class != Class::Golden {
                    return Ok(None);
                }
                let got = |k: &str| match k {
                    "vo_compliant" => Ok(f64::from(u8::from(flag(result, k)?))),
                    _ => num(result, k),
                };
                let bands = cosim_flag(req).then_some(&COSIM_FIG11_BANDS[..]);
                self.golden(&self.fig11, bands, got).map(Some)
            }
            ("fullchain", Some(result)) => {
                if flag(result, "cosim")? != cosim_flag(req) {
                    return Err("answered by the wrong engine".into());
                }
                if !flag(result, "supply_compliant")? {
                    return Err("supply not compliant".into());
                }
                if req.class != Class::Golden {
                    return Ok(None);
                }
                let bands = cosim_flag(req).then_some(&COSIM_FULLCHAIN_BANDS[..]);
                self.golden(&self.fullchain, bands, |k| num(result, k))
                    .map(Some)
            }
            ("fig11" | "fullchain", None) => Err("answer was not kept".into()),
            _ => {
                let expected = expected.ok_or("no direct-call answer to compare with")?;
                if served != fingerprint(expected) {
                    return Err("differs from the direct call".into());
                }
                Ok(None)
            }
        }
    }

    /// Compares against a golden. `bands` overrides the golden's own
    /// tolerance per key (and restricts the comparison to those keys).
    fn golden(
        &self,
        golden: &Golden,
        bands: Option<&[(&str, f64)]>,
        got: impl Fn(&str) -> Result<f64, String>,
    ) -> Result<f64, String> {
        let keys: Vec<(&str, f64)> = match bands {
            Some(b) => b.to_vec(),
            None => golden
                .values
                .iter()
                .map(|(k, _)| (k.as_str(), golden.tolerance))
                .collect(),
        };
        let mut worst = 0.0f64;
        for (key, tol) in keys {
            let want = golden.value(key);
            let value = got(key)?;
            let dev = (value - want).abs();
            if dev > tol * want.abs() + 1.0e-9 {
                return Err(format!("{key} = {value} outside {tol} of golden {want}"));
            }
            if want != 0.0 {
                worst = worst.max(dev / want.abs());
            }
        }
        Ok(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn with_field(doc: &Json, key: &str, value: Json) -> Json {
        let Json::Obj(fields) = doc else {
            panic!("object")
        };
        Json::Obj(
            fields
                .iter()
                .map(|(k, v)| (k.clone(), if k == key { value.clone() } else { v.clone() }))
                .collect(),
        )
    }

    #[test]
    fn a_perturbed_direct_call_answer_is_counted_wrong() {
        let checker = Checker::default();
        // A sweep, a hot and a fresh Monte Carlo point, and a patient day.
        for index in [0, 1, 3, 8] {
            let req = Workload::Interactive.request(1, index);
            let want = expected(&req).expect("bit-equal endpoint");
            let mut served = want.clone();
            if let Json::Obj(fields) = &mut served {
                fields.push(("cached".to_string(), Json::Bool(false)));
            }
            let check = |doc: &Json| checker.check(&req, None, fingerprint(doc), Some(&want));
            assert_eq!(check(&served), Ok(None), "{req:?}");
            // One unit in the last place on the first number, and on the
            // last one (deep inside arrays and nested summaries).
            for from_end in [false, true] {
                let mut bumped = served.clone();
                assert!(bump(&mut bumped, from_end), "no number in {served}");
                assert!(check(&bumped).is_err(), "perturbation missed: {bumped}");
            }
        }
    }

    /// Moves the first (or last) number of `doc` by one ulp.
    fn bump(doc: &mut Json, from_end: bool) -> bool {
        match doc {
            Json::Num(v) => {
                *v = f64::from_bits(v.to_bits() + 1);
                true
            }
            Json::Arr(items) if from_end => items.iter_mut().rev().any(|j| bump(j, from_end)),
            Json::Arr(items) => items.iter_mut().any(|j| bump(j, from_end)),
            Json::Obj(fields) if from_end => {
                fields.iter_mut().rev().any(|(_, j)| bump(j, from_end))
            }
            Json::Obj(fields) => fields.iter_mut().any(|(_, j)| bump(j, from_end)),
            _ => false,
        }
    }

    #[test]
    fn broken_verdicts_and_golden_drift_are_counted_wrong() {
        let checker = Checker::default();
        let golden = Workload::Transient.request(1, 0);
        assert_eq!(golden.class, Class::Golden);
        let g = &checker.fig11;
        let good = Json::obj(vec![
            ("vo_worst", Json::Num(g.value("vo_worst"))),
            ("vo_compliant", Json::Bool(true)),
            ("downlink_errors", Json::Num(0.0)),
            ("t_charged_us", Json::Num(g.value("t_charged_us"))),
            ("uplink_contrast", Json::Num(g.value("uplink_contrast"))),
            ("cosim", Json::Bool(false)),
        ]);
        let check = |req: &Req, doc: &Json| checker.check(req, Some(doc), fingerprint(doc), None);
        assert_eq!(check(&golden, &good), Ok(Some(0.0)));
        let drifted = with_field(&good, "vo_worst", Json::Num(g.value("vo_worst") * 1.05));
        assert!(check(&golden, &drifted).is_err());
        let failing = with_field(&good, "vo_compliant", Json::Bool(false));
        assert!(check(&golden, &failing).is_err());
        // Off the golden points only the verdicts are checked.
        let plain = Workload::Cosim.request(1, 2);
        assert_eq!(
            (plain.endpoint, plain.class),
            ("fig11", Class::RepeatIdentity)
        );
        let cosim = with_field(&good, "cosim", Json::Bool(true));
        assert_eq!(check(&plain, &cosim), Ok(None));
        let lossy = with_field(&cosim, "downlink_errors", Json::Num(1.0));
        assert!(check(&plain, &lossy).is_err());
        let wrong_engine = with_field(&good, "cosim", Json::Bool(true));
        assert!(check(&golden, &wrong_engine).is_err());
    }
}
