//! `implant-obs`: std-only observability for the implant stack.
//!
//! One crate, three pieces, no dependencies:
//!
//! * **Spans** — [`span!`] opens a named RAII span; dropping the guard
//!   records its wall time into an atomic per-stage histogram. The
//!   registry mutex is hit once per *callsite* (cached in a local
//!   `OnceLock`), so steady-state recording is a few relaxed atomic
//!   adds. [`observe!`] records externally measured durations (queue
//!   waits that cross threads); [`count!`] bumps duration-less counters
//!   (cache hits). A thread-local stack tracks nesting, surviving
//!   panic unwinds ([`current_stack`]).
//! * **Registry** — every stage that ever recorded, snapshotted on
//!   demand ([`snapshot`]) into plain [`StageSnapshot`]s backed by the
//!   shared [`LatencyHistogram`] (which moved here from
//!   `runtime::metrics`; the runtime re-exports it).
//! * **Scopes** — a [`Scope`] is one server's own stage table: a thread
//!   that entered it records every stage into it as well as the
//!   registry, so servers sharing a process report only their own work.
//! * **Exposition** — [`render_prometheus`] renders a snapshot (the
//!   registry's or a scope's) in the Prometheus text format; the
//!   server's `metrics_v2` endpoint serves its scope, and
//!   `bench_kernels --profile` prints the registry as a table.
//!
//! **Overhead contract**: with `IMPLANT_OBS=0` (or [`set_enabled`]
//! `(false)`) a span costs one relaxed atomic load and no clock read —
//! bounded to ≤ 2 % of any served request by a workspace test. Enabled
//! or not, spans never touch simulation state or RNG streams, so
//! results are bit-identical either way.
//!
//! # Example
//!
//! ```
//! let report = {
//!     let _span = obs::span!("demo.phase");
//!     2 + 2 // the instrumented hot path
//! };
//! obs::count!("demo.finished");
//! assert_eq!(report, 4);
//! let stages = obs::snapshot();
//! assert!(stages.iter().any(|s| s.name == "demo.phase" && s.count >= 1));
//! assert!(obs::render_prometheus(&stages).contains("implant_obs_stage_count"));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod expo;
pub mod hist;
pub mod registry;
pub mod scope;
pub mod span;

pub use expo::{merge_prometheus, render_prometheus, stage_count};
pub use hist::LatencyHistogram;
pub use registry::{reset, snapshot, StageSnapshot};
pub use scope::{Entered, Scope};
pub use span::{current_stack, enabled, env_enables, set_enabled, SpanGuard, Stage};

/// Opens a span for the enclosing scope: `let _span = obs::span!("x");`.
/// The stage name must be a string literal; the resolved stage is
/// cached at the callsite.
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static __OBS_STAGE: ::std::sync::OnceLock<&'static $crate::span::Stage> =
            ::std::sync::OnceLock::new();
        $crate::span::enter_at(&__OBS_STAGE, $name)
    }};
}

/// Records an externally measured [`std::time::Duration`] into a stage:
/// `obs::observe!("server.queue_wait", waited);`.
#[macro_export]
macro_rules! observe {
    ($name:literal, $elapsed:expr) => {{
        static __OBS_STAGE: ::std::sync::OnceLock<&'static $crate::span::Stage> =
            ::std::sync::OnceLock::new();
        $crate::span::record_at(&__OBS_STAGE, $name, $elapsed)
    }};
}

/// Increments a duration-less counter stage by one,
/// `obs::count!("pool.cache_hit");`, or by an amount,
/// `obs::count!("cosim.calibration.probes", probes);`.
#[macro_export]
macro_rules! count {
    ($name:literal) => {
        $crate::count!($name, 1)
    };
    ($name:literal, $n:expr) => {{
        static __OBS_STAGE: ::std::sync::OnceLock<&'static $crate::span::Stage> =
            ::std::sync::OnceLock::new();
        $crate::span::count_at(&__OBS_STAGE, $name, $n)
    }};
}
