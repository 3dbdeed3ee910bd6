#![cfg(feature = "fuzz")]

//! Property: cross-request batching is invisible in the payload bytes.
//!
//! For an arbitrary interleaving of duplicate and distinct points of one
//! cached endpoint, and any simulation-pool width from 1 to 8, running
//! the whole interleaving through one merged `Router::handle_many` batch
//! must produce, position by position, byte-identical result documents
//! and identical cache accounting to a fresh router answering the same
//! requests one at a time.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::TestCaseError;
use runtime::Json;
use server::proto::{DecodeLimits, MontecarloParams, RequestBody, SweepMedium, SweepParams};
use server::router::Router;

/// A small pool of distinct Monte Carlo points; interleavings index it.
fn mc_pool() -> Vec<RequestBody> {
    [
        MontecarloParams { scale: 1.0, trials: 60, seed: Some(1) },
        MontecarloParams { scale: 1.0, trials: 60, seed: Some(2) },
        MontecarloParams { scale: 1.3, trials: 40, seed: Some(1) },
        MontecarloParams { scale: 0.7, trials: 90, seed: None },
    ]
    .map(RequestBody::Montecarlo)
    .into()
}

fn sweep_pool() -> Vec<RequestBody> {
    [
        SweepParams { d_min_mm: 2.0, d_max_mm: 10.0, steps: 3, medium: SweepMedium::Air },
        SweepParams { d_min_mm: 2.0, d_max_mm: 10.0, steps: 3, medium: SweepMedium::Sirloin },
        SweepParams { d_min_mm: 3.0, d_max_mm: 18.0, steps: 5, medium: SweepMedium::Air },
        SweepParams { d_min_mm: 2.0, d_max_mm: 10.0, steps: 4, medium: SweepMedium::Air },
    ]
    .map(RequestBody::Sweep)
    .into()
}

/// Decodes `endpoint` bodies from raw parameter documents.
fn decoded_pool(endpoint: &str, params: &[&str]) -> Vec<RequestBody> {
    params
        .iter()
        .map(|p| {
            RequestBody::decode(endpoint, &Json::parse(p).unwrap(), &DecodeLimits::default())
                .unwrap()
        })
        .collect()
}

fn day_pool() -> Vec<RequestBody> {
    decoded_pool(
        "patientday",
        &[
            r#"{"seed":1,"hours":1}"#,
            r#"{"seed":2,"hours":1}"#,
            r#"{"seed":1,"hours":1.5,"profile":"sensing"}"#,
            r#"{"hours":1,"battery_mah":30}"#,
        ],
    )
}

fn cohort_pool() -> Vec<RequestBody> {
    decoded_pool(
        "cohort",
        &[
            r#"{"seed":1,"patients":2,"hours":1}"#,
            r#"{"seed":2,"patients":2,"hours":1}"#,
            r#"{"seed":1,"patients":3,"offset":2,"hours":1}"#,
            r#"{"patients":2,"hours":1,"duty_min":0.3,"duty_max":0.8}"#,
        ],
    )
}

/// The property itself, for one interleaving of `pool` at one width.
fn merged_matches_serial(
    pool: &[RequestBody],
    picks: &[usize],
    workers: usize,
) -> Result<(), TestCaseError> {
    let bodies: Vec<&RequestBody> = picks.iter().map(|&i| &pool[i]).collect();
    let batched = Router::new(workers, 64, 100_000).handle_many(&bodies);
    let serial_router = Router::new(workers, 64, 100_000);
    for (slot, (body, out)) in bodies.iter().zip(&batched).enumerate() {
        let one = serial_router.handle_typed(body).expect("serial ok");
        let out = out.as_ref().expect("batched ok");
        prop_assert_eq!(
            out.result.to_string(),
            one.result.to_string(),
            "{} payload diverged at position {} of {:?} (workers {})",
            body.endpoint(), slot, picks, workers
        );
        prop_assert_eq!(
            (out.cache_hits, out.cache_misses),
            (one.cache_hits, one.cache_misses),
            "{} cache accounting diverged at position {} of {:?}",
            body.endpoint(), slot, picks
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Merged Monte Carlo batches are bit-identical to per-request
    /// execution for arbitrary duplicate/distinct interleavings at any
    /// pool width.
    #[test]
    fn montecarlo_batching_matches_serial_bit_for_bit(
        picks in vec(0usize..4, 1..12),
        workers in 1usize..=8,
    ) {
        merged_matches_serial(&mc_pool(), &picks, workers)?;
    }

    /// The same property for sweeps.
    #[test]
    fn sweep_batching_matches_serial_bit_for_bit(
        picks in vec(0usize..4, 1..12),
        workers in 1usize..=8,
    ) {
        merged_matches_serial(&sweep_pool(), &picks, workers)?;
    }

    /// The same property for patient days: each day seeds its own
    /// stream, so merging cannot move a bit.
    #[test]
    fn patientday_batching_matches_serial_bit_for_bit(
        picks in vec(0usize..4, 1..8),
        workers in 1usize..=8,
    ) {
        merged_matches_serial(&day_pool(), &picks, workers)?;
    }

    /// The same property for cohort shards: patient streams derive from
    /// `(seed, offset + i)`.
    #[test]
    fn cohort_batching_matches_serial_bit_for_bit(
        picks in vec(0usize..4, 1..8),
        workers in 1usize..=8,
    ) {
        merged_matches_serial(&cohort_pool(), &picks, workers)?;
    }
}
