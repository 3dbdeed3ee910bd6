//! Parallel experiment-orchestration runtime for the implant
//! reproduction.
//!
//! Every sweep and Monte Carlo study in this repository evaluates one
//! model over many operating points — distances, misalignments, corner
//! widths, trial indices. This crate is the shared execution layer those
//! studies run on:
//!
//! * [`job`] — the data model: [`ParamPoint`]s, cartesian [`Grid`]s and
//!   [`Batch`]es of jobs;
//! * [`pool`] — a worker [`Pool`] on `std::thread` with panic isolation
//!   per job and deterministic per-job seeding (results are
//!   bit-identical for any worker count);
//! * [`rng`] — the in-tree SplitMix64 / xoshiro256++ generators the
//!   whole workspace uses instead of the `rand` crate;
//! * [`cache`] — a content-keyed [`ResultCache`] (stable hash of the
//!   parameter point), optionally bounded and optionally backed by an
//!   [`ArtifactTier`] (the on-disk `implant-store`), so re-running a
//!   sweep recomputes only changed points;
//! * [`metrics`] — per-run [`RunMetrics`]: wall times, throughput and
//!   cache counters, with a human-readable end-of-run summary;
//! * [`json`] — the minimal JSON codec backing the artifact store.
//!
//! The crate is deliberately `std`-only: it must build in offline
//! environments with no crates.io access.
//!
//! # Example
//!
//! ```
//! use runtime::{Batch, Grid, Pool, ResultCache};
//!
//! let grid = Grid::builder().axis("distance_mm", [2.0, 6.0, 17.0]).build();
//! let batch = Batch::builder("demo-sweep").seed(0x1201_2013).grid(&grid).build();
//! let cache = ResultCache::in_memory();
//! let run = Pool::new(4).run_cached(&batch, &cache, |ctx| {
//!     // Any per-point model evaluation; ctx.rng is a private,
//!     // deterministically seeded stream.
//!     ctx.point.f64("distance_mm").recip()
//! });
//! assert_eq!(run.metrics.ok, 3);
//! println!("{}", run.metrics); // jobs/s, cache hits, wall times
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod job;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod rng;

pub use cache::{
    atomic_write, cache_key, fnv1a64, Artifact, ArtifactTier, Flight, Inflight, ResultCache,
};
pub use job::{Batch, BatchBuilder, Grid, GridBuilder, ParamPoint, ParamValue};
pub use json::Json;
pub use metrics::{LatencyHistogram, RunMetrics};
pub use pool::{panic_message, BatchRun, JobCtx, JobOutcome, JobResult, Pool};
pub use rng::{derive_seed, Rng, SplitMix64, Xoshiro256PlusPlus};
