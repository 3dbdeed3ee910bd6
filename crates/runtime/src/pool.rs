//! The worker pool: parallel batch execution with deterministic seeding
//! and panic isolation.
//!
//! Workers claim jobs from a shared atomic counter (chunk size 1 — the
//! simulation jobs here are coarse enough that claim overhead is
//! negligible, and single-job claims give the best load balance for
//! heterogeneous batches). Each job gets a private
//! [`Xoshiro256PlusPlus`] stream seeded by `(batch seed, job index)`
//! only, so a batch's results are bit-identical for any worker count. A
//! panicking job is caught with [`std::panic::catch_unwind`], recorded
//! as [`JobOutcome::Panicked`], and the pool moves on — one bad
//! parameter point cannot poison a sweep.

use crate::cache::{Artifact, ResultCache};
use crate::job::{Batch, ParamPoint};
use crate::metrics::RunMetrics;
use crate::rng::Xoshiro256PlusPlus;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-job execution context handed to the job closure.
pub struct JobCtx<'a> {
    /// Index of the job within its batch.
    pub index: usize,
    /// The job's parameter point.
    pub point: &'a ParamPoint,
    /// The job's private, deterministically seeded RNG stream.
    pub rng: Xoshiro256PlusPlus,
}

/// How one job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome<R> {
    /// The closure returned a value.
    Ok(R),
    /// The closure panicked; the payload message is preserved.
    Panicked(String),
}

impl<R> JobOutcome<R> {
    /// The value, when the job succeeded.
    pub fn ok(&self) -> Option<&R> {
        match self {
            JobOutcome::Ok(v) => Some(v),
            JobOutcome::Panicked(_) => None,
        }
    }

    /// Consumes the outcome into its value.
    pub fn into_ok(self) -> Option<R> {
        match self {
            JobOutcome::Ok(v) => Some(v),
            JobOutcome::Panicked(_) => None,
        }
    }
}

/// One finished job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult<R> {
    /// Index within the batch.
    pub index: usize,
    /// Value or panic report.
    pub outcome: JobOutcome<R>,
    /// Wall time of the computation (lookup time when cached).
    pub wall: Duration,
    /// True when the result came from the cache.
    pub from_cache: bool,
}

/// A finished batch: per-job results in submission order plus metrics.
#[derive(Debug, Clone)]
pub struct BatchRun<R> {
    /// Results, indexed identically to `batch.points`.
    pub results: Vec<JobResult<R>>,
    /// Aggregate run statistics.
    pub metrics: RunMetrics,
}

impl<R> BatchRun<R> {
    /// The value of job `index`, when it succeeded.
    pub fn value(&self, index: usize) -> Option<&R> {
        self.results.get(index).and_then(|r| r.outcome.ok())
    }

    /// Successful values in submission order.
    pub fn ok_values(&self) -> impl Iterator<Item = &R> {
        self.results.iter().filter_map(|r| r.outcome.ok())
    }

    /// `(index, panic message)` of every failed job.
    pub fn failures(&self) -> Vec<(usize, &str)> {
        self.results
            .iter()
            .filter_map(|r| match &r.outcome {
                JobOutcome::Panicked(msg) => Some((r.index, msg.as_str())),
                JobOutcome::Ok(_) => None,
            })
            .collect()
    }

    /// Consumes the run into its values (`None` for panicked jobs).
    pub fn into_values(self) -> Vec<Option<R>> {
        self.results.into_iter().map(|r| r.outcome.into_ok()).collect()
    }
}

/// The worker pool. Cheap to construct; holds no threads between runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool with exactly `workers` threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        Pool { workers: workers.max(1) }
    }

    /// A pool sized to the machine's available parallelism.
    pub fn auto() -> Self {
        Pool::new(std::thread::available_parallelism().map_or(1, usize::from))
    }

    /// The worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every job of `batch` through `f`. Results are returned in
    /// submission order; a panicking job is isolated and reported in its
    /// [`JobResult`].
    pub fn run<R, F>(&self, batch: &Batch, f: F) -> BatchRun<R>
    where
        R: Send,
        F: Fn(&mut JobCtx) -> R + Sync,
    {
        self.run_inner::<R, F>(batch, None, f)
    }

    /// Like [`Pool::run`], but consults `cache` before computing each
    /// point and stores every freshly computed value back.
    pub fn run_cached<R, F>(&self, batch: &Batch, cache: &ResultCache<R>, f: F) -> BatchRun<R>
    where
        R: Artifact + Clone + Send,
        F: Fn(&mut JobCtx) -> R + Sync,
    {
        let get = |point: &ParamPoint| cache.get(&batch.name, point);
        let put = |point: &ParamPoint, value: &R| cache.put(&batch.name, point, value);
        self.run_inner(batch, Some(CacheHooks { get: &get, put: &put }), f)
    }

    fn run_inner<R, F>(&self, batch: &Batch, cache: Option<CacheHooks<'_, R>>, f: F) -> BatchRun<R>
    where
        R: Send,
        F: Fn(&mut JobCtx) -> R + Sync,
    {
        let started = Instant::now();
        let n = batch.len();
        let slots: Vec<Mutex<Option<JobResult<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);

        let worker = || {
            loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    break;
                }
                let result = run_one(batch, index, started, cache.as_ref(), &f);
                *slots[index].lock().expect("result slot") = Some(result);
            }
        };

        let workers = self.workers.min(n.max(1));
        if workers <= 1 {
            worker();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    // The closure captures only shared references, so it
                    // is `Copy` — each spawn gets its own copy.
                    scope.spawn(worker);
                }
            });
        }

        let results: Vec<JobResult<R>> = slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("result slot").expect("every job ran"))
            .collect();

        let mut metrics = RunMetrics {
            batch: batch.name.clone(),
            jobs: n,
            ok: 0,
            failed: 0,
            cache_hits: 0,
            cache_misses: 0,
            workers,
            wall: started.elapsed(),
            job_wall_sum: Duration::ZERO,
            job_wall_min: Duration::MAX,
            job_wall_max: Duration::ZERO,
            latency: crate::metrics::LatencyHistogram::new(),
        };
        for r in &results {
            match &r.outcome {
                JobOutcome::Ok(_) => metrics.ok += 1,
                JobOutcome::Panicked(_) => metrics.failed += 1,
            }
            if r.from_cache {
                metrics.cache_hits += 1;
            } else {
                metrics.cache_misses += 1;
                metrics.job_wall_sum += r.wall;
                metrics.job_wall_min = metrics.job_wall_min.min(r.wall);
                metrics.job_wall_max = metrics.job_wall_max.max(r.wall);
                metrics.latency.record(r.wall);
            }
        }
        if metrics.job_wall_min == Duration::MAX {
            metrics.job_wall_min = Duration::ZERO;
        }
        BatchRun { results, metrics }
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::auto()
    }
}

/// Type-erased cache access: `run_inner` stays generic over a plain
/// `R: Send` while only `run_cached` (which has the `Artifact + Clone`
/// bounds in scope) can construct the hooks.
struct CacheHooks<'a, R> {
    get: &'a (dyn Fn(&ParamPoint) -> Option<R> + Sync),
    put: &'a (dyn Fn(&ParamPoint, &R) + Sync),
}

fn run_one<R, F>(
    batch: &Batch,
    index: usize,
    batch_started: Instant,
    cache: Option<&CacheHooks<'_, R>>,
    f: &F,
) -> JobResult<R>
where
    R: Send,
    F: Fn(&mut JobCtx) -> R + Sync,
{
    let point = &batch.points[index];
    let job_started = Instant::now();
    // Queued→started: how long this job waited behind the batch's
    // earlier claims (zero-ish for the first `workers` jobs).
    obs::observe!("pool.queue_wait", job_started.duration_since(batch_started));
    if let Some(cache) = cache {
        if let Some(value) = (cache.get)(point) {
            obs::count!("pool.cache_hit");
            return JobResult {
                index,
                outcome: JobOutcome::Ok(value),
                wall: job_started.elapsed(),
                from_cache: true,
            };
        }
        obs::count!("pool.cache_miss");
    }
    let mut ctx = JobCtx {
        index,
        point,
        rng: Xoshiro256PlusPlus::seed_from_u64(batch.job_seed(index)),
    };
    let outcome = {
        // Started→done. The guard records on unwind too, so a panicking
        // job still accounts for the time it burned.
        let _job_span = obs::span!("pool.job");
        match std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut ctx))) {
            Ok(value) => {
                if let Some(cache) = cache {
                    (cache.put)(point, &value);
                }
                JobOutcome::Ok(value)
            }
            Err(payload) => JobOutcome::Panicked(panic_message(payload.as_ref())),
        }
    };
    JobResult { index, outcome, wall: job_started.elapsed(), from_cache: false }
}

/// The message of a caught panic payload (`&str` or `String` payloads;
/// anything else gets a generic description).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked (non-string payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Grid;
    use crate::rng::Rng;

    /// A deterministic stand-in for a stochastic simulation job: a short
    /// random walk whose end point depends on every draw.
    fn walk(ctx: &mut JobCtx) -> f64 {
        let steps = 64 + ctx.point.u64("trial") % 16;
        let mut x = 0.0;
        for _ in 0..steps {
            x += ctx.rng.next_f64() - 0.5;
        }
        x
    }

    #[test]
    fn results_are_bit_identical_across_worker_counts() {
        let batch = Batch::builder("walks").seed(0xDEAD_BEEF).trials(200).build();
        let reference: Vec<f64> = Pool::new(1).run(&batch, walk).into_values().into_iter().map(Option::unwrap).collect();
        for workers in [2, 3, 8] {
            let parallel: Vec<f64> =
                Pool::new(workers).run(&batch, walk).into_values().into_iter().map(Option::unwrap).collect();
            let same = reference.iter().zip(&parallel).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "workers = {workers} diverged from the serial reference");
        }
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let batch = Batch::builder("order").seed(1).trials(50).build();
        let run = Pool::new(4).run(&batch, |ctx| ctx.index);
        for (i, r) in run.results.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.outcome.ok(), Some(&i));
        }
    }

    #[test]
    fn a_panicking_job_is_isolated() {
        let batch = Batch::builder("fallible").seed(5).trials(20).build();
        let run = Pool::new(4).run(&batch, |ctx| {
            assert!(ctx.index != 7, "job 7 exploded");
            ctx.index * 2
        });
        assert_eq!(run.metrics.failed, 1);
        assert_eq!(run.metrics.ok, 19);
        let failures = run.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, 7);
        assert!(failures[0].1.contains("job 7 exploded"), "{failures:?}");
        // Every other job still returned its value.
        assert_eq!(run.value(6), Some(&12));
        assert_eq!(run.value(8), Some(&16));
        assert_eq!(run.value(7), None);
    }

    #[test]
    fn cached_rerun_hits_everything_and_matches() {
        let grid = Grid::new().axis("d", [2.0, 4.0, 6.0, 8.0]);
        let batch = Batch::builder("powers").seed(3).grid(&grid).build();
        let cache = ResultCache::in_memory();
        let compute = |ctx: &mut JobCtx| ctx.point.f64("d").powi(2);
        let first = Pool::new(2).run_cached(&batch, &cache, compute);
        assert_eq!(first.metrics.cache_hits, 0);
        assert_eq!(first.metrics.cache_misses, 4);
        let second = Pool::new(2).run_cached(&batch, &cache, compute);
        assert_eq!(second.metrics.cache_hits, 4);
        assert_eq!(second.metrics.cache_misses, 0);
        for i in 0..batch.len() {
            assert_eq!(first.value(i), second.value(i));
        }
    }

    #[test]
    fn metrics_account_for_every_job() {
        let batch = Batch::builder("acct").seed(11).trials(30).build();
        let run = Pool::new(4).run(&batch, walk);
        let m = &run.metrics;
        assert_eq!(m.jobs, 30);
        assert_eq!(m.ok + m.failed, 30);
        assert_eq!(m.cache_misses, 30);
        assert!(m.throughput() > 0.0);
        assert!(m.job_wall_max >= m.job_wall_min);
    }

    #[test]
    fn single_job_batches_do_not_spawn_threads_needlessly() {
        let batch = Batch::builder("one").point(ParamPoint::new().with("x", 1.0)).build();
        let run = Pool::new(8).run(&batch, |ctx| ctx.point.f64("x") + 1.0);
        assert_eq!(run.metrics.workers, 1);
        assert_eq!(run.value(0), Some(&2.0));
    }
}
