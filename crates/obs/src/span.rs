//! The lock-cheap span primitives: stages, guards and the thread-local
//! span stack.
//!
//! A *stage* is one named hot-path section (`"server.execute"`,
//! `"pool.job"`, `"fig11.transient"`). Its counters are plain atomics —
//! a `count`, a `total_ns` and one `AtomicU64` per histogram bucket —
//! so recording a finished span is a handful of relaxed atomic adds and
//! never takes a lock. The only lock in the subsystem is the registry
//! mutex, hit once per *callsite* (the [`span!`](crate::span!) macro
//! caches the resolved `&'static Stage` in a callsite-local
//! `OnceLock`), not once per span.
//!
//! Nesting is tracked per thread: entering a span pushes its name onto
//! a thread-local stack, and the RAII guard pops it on drop — including
//! a drop during panic unwinding, so an isolated handler panic cannot
//! corrupt the stack of the worker thread that survives it.

use crate::hist::{bucket_index, LatencyHistogram};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Once, OnceLock};
use std::time::{Duration, Instant};

/// One registered stage: a name plus its atomic counters. Stages are
/// allocated once and leaked (`&'static`), so recording needs no
/// reference counting. A [`Scope`](crate::Scope)'s table holds stages
/// of its own, unnamed, found by the registered stage's `index`.
pub struct Stage {
    pub(crate) name: &'static str,
    pub(crate) index: usize,
    count: AtomicU64,
    total_ns: AtomicU64,
    buckets: [AtomicU64; LatencyHistogram::BUCKETS],
}

impl Stage {
    pub(crate) fn new(name: &'static str, index: usize) -> Self {
        Stage {
            name,
            index,
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The stage name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one finished span.
    pub fn record_duration(&self, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(nanos, Ordering::Relaxed);
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to the counter without a duration (cache hits, round
    /// counts, probes spent).
    pub fn add(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub(crate) fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    pub(crate) fn histogram(&self) -> LatencyHistogram {
        LatencyHistogram::from_counts(std::array::from_fn(|i| {
            self.buckets[i].load(Ordering::Relaxed)
        }))
    }

    pub(crate) fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
    }
}

// ---- the enabled gate -------------------------------------------------

/// Observability defaults to on; `IMPLANT_OBS=0` (or `false`/`off`/`no`)
/// turns every span into a no-op costing one relaxed atomic load.
static ENABLED: AtomicBool = AtomicBool::new(true);
static ENV_INIT: Once = Once::new();

/// True when a value of the `IMPLANT_OBS` environment variable enables
/// observability (anything but an explicit off-switch does).
pub fn env_enables(value: &str) -> bool {
    !matches!(value.trim(), "0" | "false" | "off" | "no")
}

/// Whether spans are currently being recorded. The first call consults
/// `IMPLANT_OBS`; after that it is a single atomic load.
pub fn enabled() -> bool {
    ENV_INIT.call_once(|| {
        if let Ok(value) = std::env::var("IMPLANT_OBS") {
            ENABLED.store(env_enables(&value), Ordering::Relaxed);
        }
    });
    ENABLED.load(Ordering::Relaxed)
}

/// Programmatic override of the enable flag (tests, benches). Takes
/// precedence over the environment from this point on.
pub fn set_enabled(on: bool) {
    // Consume the env consultation first so a later `enabled()` cannot
    // overwrite this explicit choice.
    ENV_INIT.call_once(|| {});
    ENABLED.store(on, Ordering::Relaxed);
}

// ---- the thread-local span stack --------------------------------------

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// The names of the spans currently open on this thread, outermost
/// first. Diagnostic only — attribution of time is per stage, and a
/// parent's span includes its children's time.
pub fn current_stack() -> Vec<&'static str> {
    STACK.with(|s| s.borrow().clone())
}

// ---- entering and recording -------------------------------------------

/// RAII guard for one open span. Records the elapsed time into its
/// stage on drop — also when the drop happens during panic unwinding.
pub struct SpanGuard {
    open: Option<(&'static Stage, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((stage, started)) = self.open.take() {
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
            let elapsed = started.elapsed();
            crate::scope::record(stage, |s| s.record_duration(elapsed));
        }
    }
}

/// Opens a span, resolving (and caching) the stage through the
/// callsite's `slot`. Called by the [`span!`](crate::span!) macro; use
/// the macro.
pub fn enter_at(slot: &'static OnceLock<&'static Stage>, name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    let stage = *slot.get_or_init(|| crate::registry::stage(name));
    STACK.with(|s| s.borrow_mut().push(stage.name));
    SpanGuard { open: Some((stage, Instant::now())) }
}

/// Records an externally measured duration (queue waits, where the span
/// would have to live across threads). Called by the
/// [`observe!`](crate::observe!) macro.
pub fn record_at(slot: &'static OnceLock<&'static Stage>, name: &'static str, elapsed: Duration) {
    if !enabled() {
        return;
    }
    let stage = slot.get_or_init(|| crate::registry::stage(name));
    crate::scope::record(stage, |s| s.record_duration(elapsed));
}

/// Adds `n` to a duration-less counter stage. Called by the
/// [`count!`](crate::count!) macro.
pub fn count_at(slot: &'static OnceLock<&'static Stage>, name: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    crate::scope::record(slot.get_or_init(|| crate::registry::stage(name)), |s| s.add(n));
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The enable flag is process-global; every test here that records
    /// through the gate (or flips it) serialises on this lock so the
    /// disabled-window test cannot swallow another test's spans.
    static FLAG_LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn flag_lock() -> std::sync::MutexGuard<'static, ()> {
        FLAG_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn nested_spans_track_the_stack_and_unwind_in_order() {
        let _serial = flag_lock();
        assert_eq!(current_stack(), Vec::<&str>::new());
        {
            let _outer = crate::span!("test.span.outer");
            assert_eq!(current_stack(), vec!["test.span.outer"]);
            {
                let _inner = crate::span!("test.span.inner");
                assert_eq!(current_stack(), vec!["test.span.outer", "test.span.inner"]);
            }
            assert_eq!(current_stack(), vec!["test.span.outer"]);
        }
        assert_eq!(current_stack(), Vec::<&str>::new());
    }

    #[test]
    fn panic_unwind_pops_the_stack_and_still_records() {
        let _serial = flag_lock();
        let before = stage_count("test.span.unwind");
        let result = std::panic::catch_unwind(|| {
            let _g = crate::span!("test.span.unwind");
            panic!("boom");
        });
        assert!(result.is_err());
        assert_eq!(current_stack(), Vec::<&str>::new(), "unwound span must be popped");
        assert_eq!(stage_count("test.span.unwind"), before + 1, "unwound span must record");
    }

    #[test]
    fn spans_accumulate_count_and_time() {
        let _serial = flag_lock();
        let before = stage_count("test.span.accumulate");
        for _ in 0..3 {
            let _g = crate::span!("test.span.accumulate");
            std::hint::black_box(0u64);
        }
        let snap = crate::snapshot();
        let stage =
            snap.iter().find(|s| s.name == "test.span.accumulate").expect("stage registered");
        assert_eq!(stage.count, before + 3);
        assert_eq!(stage.hist.count(), stage.count);
    }

    #[test]
    fn disabled_spans_are_invisible() {
        let _serial = flag_lock();
        set_enabled(false);
        {
            let _g = crate::span!("test.span.disabled");
            assert_eq!(current_stack(), Vec::<&str>::new(), "disabled span pushes nothing");
            crate::observe!("test.span.disabled", Duration::from_millis(1));
            crate::count!("test.span.disabled");
        }
        set_enabled(true);
        assert_eq!(stage_count("test.span.disabled"), 0);
    }

    #[test]
    fn observe_and_count_register_their_stages() {
        let _serial = flag_lock();
        crate::observe!("test.span.observed", Duration::from_micros(250));
        crate::count!("test.span.counted");
        let snap = crate::snapshot();
        let observed = snap.iter().find(|s| s.name == "test.span.observed").unwrap();
        assert_eq!(observed.count, 1);
        assert!(observed.total >= Duration::from_micros(250));
        let counted = snap.iter().find(|s| s.name == "test.span.counted").unwrap();
        assert_eq!(counted.count, 1);
        assert_eq!(counted.total, Duration::ZERO);
        assert!(counted.hist.is_empty(), "a counter records no durations");
    }

    #[test]
    fn env_off_switch_grammar() {
        for off in ["0", "false", "off", "no", " 0 "] {
            assert!(!env_enables(off), "{off:?} must disable");
        }
        for on in ["1", "true", "yes", "", "anything"] {
            assert!(env_enables(on), "{on:?} must enable");
        }
    }

    fn stage_count(name: &str) -> u64 {
        crate::snapshot().iter().find(|s| s.name == name).map_or(0, |s| s.count)
    }
}
