//! Sharded cohort campaigns over the cluster.
//!
//! A [`scenario::Cohort`] of thousands of virtual patients is too big to
//! serve as one request — the v2 protocol caps a `cohort` call at a
//! bounded number of patient-hours. This module splits the cohort into
//! contiguous shards ([`scenario::Cohort::shards`]), routes each shard
//! through a [`ClusterClient`] (rendezvous placement spreads distinct
//! shard offsets over the membership, and repeats of the same shard land
//! on the replica whose result cache is already warm), and merges the
//! shard reports *in offset order*.
//!
//! Because every patient's stream is derived from the cohort seed and
//! the patient's **global** index, the merged [`CohortReport`] is
//! bit-identical to a serial single-process run of the same cohort —
//! regardless of shard size, replica count, worker count, retries, or
//! which replica answered which shard. That is the property the
//! testkit's cohort-campaign test pins down to the digest.

use crate::client::ClusterClient;
use runtime::{Artifact as _, Batch, Json, ParamPoint, Pool};
use scenario::{Cohort, CohortReport};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Duration;

/// Largest cohort seed that survives the JSON wire exactly (the v2
/// protocol carries numbers as IEEE-754 doubles).
pub const MAX_WIRE_SEED: u64 = 1 << 53;

/// A cohort split into fixed-size shards for cluster execution.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortCampaign {
    /// The full cohort (its `patients` span the whole campaign).
    pub cohort: Cohort,
    /// Patients per shard (the last shard may be smaller).
    pub shard_patients: u64,
}

/// One shard the cluster failed to answer within its budget.
#[derive(Debug, Clone, PartialEq)]
pub struct LostShard {
    /// Global index of the shard's first patient.
    pub offset: u64,
    /// Patients the shard carried.
    pub patients: u64,
    /// Why it was lost (cluster error or structured server error code).
    pub reason: String,
}

/// The merged result of a campaign plus its serving telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    /// Shard reports merged in offset order — bit-identical to a serial
    /// run when `lost` is empty.
    pub report: CohortReport,
    /// Shards dispatched.
    pub shards: u64,
    /// Shards that produced no report (empty on a healthy cluster).
    pub lost: Vec<LostShard>,
    /// Answering replica → shards it served.
    pub replicas: BTreeMap<String, u64>,
    /// Shards answered from a warm result cache.
    pub cached_shards: u64,
}

impl CampaignOutcome {
    /// True when every shard was answered in deadline.
    pub fn complete(&self) -> bool {
        self.lost.is_empty()
    }
}

impl CohortCampaign {
    /// A campaign over `cohort` in shards of `shard_patients`.
    ///
    /// # Panics
    ///
    /// Panics on a zero shard size or a seed too large to cross the
    /// JSON wire exactly (see [`MAX_WIRE_SEED`]).
    pub fn new(cohort: Cohort, shard_patients: u64) -> Self {
        assert!(shard_patients > 0, "shard size must be positive");
        assert!(
            cohort.seed <= MAX_WIRE_SEED,
            "cohort seed {} does not survive the f64 wire encoding",
            cohort.seed
        );
        CohortCampaign { cohort, shard_patients }
    }

    /// The `cohort` endpoint parameters for one shard.
    fn shard_params(shard: &Cohort) -> Json {
        Json::obj(vec![
            ("seed", Json::Num(shard.seed as f64)),
            ("patients", Json::Num(shard.patients as f64)),
            ("offset", Json::Num(shard.offset as f64)),
            ("hours", Json::Num(shard.hours)),
            ("enzyme", Json::Str(shard.enzyme.as_str().to_string())),
            ("duty_min", Json::Num(shard.duty.0)),
            ("duty_max", Json::Num(shard.duty.1)),
        ])
    }

    /// Runs every shard through `client` with `budget` per request and
    /// merges the reports in offset order.
    ///
    /// A shard that errors (transport exhaustion or a structured server
    /// rejection) is recorded in [`CampaignOutcome::lost`] and excluded
    /// from the merge; the remaining shards still produce a well-formed
    /// partial report.
    pub fn run(&self, client: &mut ClusterClient, budget: Option<Duration>) -> CampaignOutcome {
        let _span = obs::span!("cluster.campaign");
        let shards = self.cohort.shards(self.shard_patients);
        let mut outcome = CampaignOutcome {
            report: CohortReport::empty(),
            shards: shards.len() as u64,
            lost: Vec::new(),
            replicas: BTreeMap::new(),
            cached_shards: 0,
        };
        for shard in &shards {
            match client.request_routed("cohort", Self::shard_params(shard), budget) {
                Ok(routed) => {
                    let result = routed.response.result();
                    let report = result
                        .and_then(|r| r.get("report"))
                        .and_then(CohortReport::from_json);
                    match report {
                        Some(r) if routed.response.is_ok() => {
                            obs::count!("cluster.campaign.shard");
                            outcome.report.merge(&r);
                            *outcome.replicas.entry(routed.replica).or_default() += 1;
                            if result.and_then(|r| r.get("cached")) == Some(&Json::Bool(true)) {
                                outcome.cached_shards += 1;
                            }
                        }
                        _ => {
                            obs::count!("cluster.campaign.lost");
                            outcome.lost.push(LostShard {
                                offset: shard.offset,
                                patients: shard.patients,
                                reason: routed
                                    .response
                                    .error_code()
                                    .unwrap_or("malformed_report")
                                    .to_string(),
                            });
                        }
                    }
                }
                Err(e) => {
                    obs::count!("cluster.campaign.lost");
                    outcome.lost.push(LostShard {
                        offset: shard.offset,
                        patients: shard.patients,
                        reason: e.to_string(),
                    });
                }
            }
        }
        outcome
    }

    /// Runs the campaign *through the front proxy*, dispatching shards
    /// in parallel on `pool` — one proxy connection per in-flight shard,
    /// so the proxy's per-connection routing clients place, retry, and
    /// hedge each shard independently.
    ///
    /// Shard reports are still merged **in offset order**, never in
    /// completion order, so the merged [`CohortReport`] is bit-identical
    /// to [`CohortCampaign::run`] over the same cohort — and to a serial
    /// single-process run — for any worker count. `Pool::new(1)` *is*
    /// the sequential baseline; the testkit pins the digest across both.
    ///
    /// The answering replica per shard comes from the `replica` field
    /// the proxy stamps on data responses (`"store"` marks a hedged
    /// store read).
    pub fn run_via_proxy(
        &self,
        addr: SocketAddr,
        pool: &Pool,
        budget: Option<Duration>,
    ) -> CampaignOutcome {
        let _span = obs::span!("cluster.campaign");
        let shards = self.cohort.shards(self.shard_patients);
        let batch = shards
            .iter()
            .fold(Batch::builder("cluster-campaign").seed(self.cohort.seed), |b, shard| {
                b.point(ParamPoint::new().with("offset", shard.offset))
            })
            .build();
        let run = pool.run(&batch, |ctx| Self::dispatch_shard(addr, &shards[ctx.index], budget));
        let mut outcome = CampaignOutcome {
            report: CohortReport::empty(),
            shards: shards.len() as u64,
            lost: Vec::new(),
            replicas: BTreeMap::new(),
            cached_shards: 0,
        };
        for (index, shard) in shards.iter().enumerate() {
            match run.value(index) {
                Some(Ok((report, replica, cached))) => {
                    obs::count!("cluster.campaign.shard");
                    outcome.report.merge(report);
                    *outcome.replicas.entry(replica.clone()).or_default() += 1;
                    if *cached {
                        outcome.cached_shards += 1;
                    }
                }
                Some(Err(reason)) => {
                    obs::count!("cluster.campaign.lost");
                    outcome.lost.push(LostShard {
                        offset: shard.offset,
                        patients: shard.patients,
                        reason: reason.clone(),
                    });
                }
                None => {
                    obs::count!("cluster.campaign.lost");
                    outcome.lost.push(LostShard {
                        offset: shard.offset,
                        patients: shard.patients,
                        reason: "shard job panicked".to_string(),
                    });
                }
            }
        }
        outcome
    }

    /// One shard over its own proxy connection: `(report, replica,
    /// cached)` on success, a reason string on any failure.
    fn dispatch_shard(
        addr: SocketAddr,
        shard: &Cohort,
        budget: Option<Duration>,
    ) -> Result<(CohortReport, String, bool), String> {
        let timeout = budget.unwrap_or(Duration::from_secs(10));
        let mut client = server::client::Client::builder()
            .connect_timeout(timeout)
            .read_timeout(timeout)
            .connect(addr)
            .map_err(|e| format!("connect: {e}"))?;
        let deadline_ms = timeout.as_millis().max(1) as u64;
        let response = client
            .request_with_deadline("cohort", Self::shard_params(shard), deadline_ms)
            .map_err(|e| e.to_string())?;
        if !response.is_ok() {
            return Err(response.error_code().unwrap_or("malformed_report").to_string());
        }
        let result = response.result();
        let report = result
            .and_then(|r| r.get("report"))
            .and_then(CohortReport::from_json)
            .ok_or_else(|| "malformed_report".to_string())?;
        let cached = result.and_then(|r| r.get("cached")) == Some(&Json::Bool(true));
        let replica = response
            .json()
            .get("replica")
            .and_then(Json::as_str)
            .unwrap_or("proxy")
            .to_string();
        Ok((report, replica, cached))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::EnzymeChoice;

    #[test]
    fn shard_params_round_trip_through_the_protocol() {
        let cohort = Cohort {
            seed: 2013,
            patients: 40,
            offset: 120,
            hours: 6.0,
            enzyme: EnzymeChoice::Clodx,
            duty: (0.25, 0.75),
        };
        let params = CohortCampaign::shard_params(&cohort);
        let decoded = server::proto::RequestBody::decode(
            "cohort",
            &params,
            &server::proto::DecodeLimits::default(),
        )
        .expect("campaign params must always decode");
        let server::proto::RequestBody::Cohort(decoded) = decoded else { panic!("{decoded:?}") };
        assert_eq!(decoded.to_cohort(), cohort);
    }

    #[test]
    fn campaign_shards_cover_the_cohort_exactly() {
        let campaign = CohortCampaign::new(Cohort::ironic(7, 1000), 125);
        let shards = campaign.cohort.shards(campaign.shard_patients);
        assert_eq!(shards.len(), 8);
        assert_eq!(shards.iter().map(|s| s.patients).sum::<u64>(), 1000);
        assert_eq!(shards[3].offset, 375);
    }

    #[test]
    #[should_panic(expected = "f64 wire encoding")]
    fn oversized_seeds_are_rejected_before_the_wire() {
        let _ = CohortCampaign::new(Cohort::ironic(u64::MAX, 10), 5);
    }

    #[test]
    fn a_lost_shard_makes_the_outcome_incomplete() {
        let mut outcome = CampaignOutcome {
            report: CohortReport::empty(),
            shards: 2,
            lost: Vec::new(),
            replicas: BTreeMap::new(),
            cached_shards: 0,
        };
        assert!(outcome.complete());
        outcome.lost.push(LostShard {
            offset: 125,
            patients: 125,
            reason: "gave up after 4 attempts: deadline_exceeded".to_string(),
        });
        assert!(!outcome.complete());
    }
}
