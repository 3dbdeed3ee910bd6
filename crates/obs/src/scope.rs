//! Per-server stage tables. The registry is process-wide, so two
//! servers in one process would report each other's work; a [`Scope`]
//! is one server's own table. Every stage still records into the
//! registry, and a thread that has [entered](Scope::enter) a scope also
//! records into the scope's stage of the same registration index, in
//! chunks allocated on first use: relaxed atomic adds and one
//! thread-local read, no lock. The scope is per *thread*: a server's
//! threads enter it for their whole life, and a pool carries its
//! caller's scope ([`Scope::current`]) into the threads it spawns.

use crate::registry::{snapshot_of, StageSnapshot};
use crate::span::Stage;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

/// Stages per lazily allocated chunk of a scope's table.
const CHUNK: usize = 32;

/// Chunks per table: a scope follows the first `CHUNK * CHUNKS` = 1024
/// registered stages; later ones record into the registry only.
const CHUNKS: usize = 32;

type Chunk = Box<[Stage; CHUNK]>;

/// One server's stage table; clones share it.
#[derive(Clone, Default)]
pub struct Scope {
    table: Arc<[OnceLock<Chunk>; CHUNKS]>,
}

thread_local! {
    static CURRENT: RefCell<Option<Scope>> = const { RefCell::new(None) };
}

/// Keeps a [`Scope`] entered on this thread; dropping it restores the
/// scope entered before.
#[must_use = "the scope is left when the guard drops"]
pub struct Entered {
    previous: Option<Scope>,
    _this_thread: PhantomData<*const ()>,
}

impl Drop for Entered {
    fn drop(&mut self) {
        let previous = self.previous.take();
        let _ = CURRENT.try_with(|current| *current.borrow_mut() = previous);
    }
}

impl Scope {
    /// The scope this thread records into, if it entered one.
    pub fn current() -> Option<Scope> {
        CURRENT.with(|current| current.borrow().clone())
    }

    /// Records this thread's stages into `self` as well as the
    /// registry until the guard drops.
    pub fn enter(&self) -> Entered {
        let previous = CURRENT.with(|current| current.borrow_mut().replace(self.clone()));
        Entered { previous, _this_thread: PhantomData }
    }

    /// Runs `f` with `self` entered on this thread.
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        let _entered = self.enter();
        f()
    }

    /// The stages recorded in this scope, sorted by name (the shape of
    /// [`crate::snapshot`], without the stages it never recorded).
    pub fn snapshot(&self) -> Vec<StageSnapshot> {
        snapshot_of(|stage| {
            let chunk = self.table.get(stage.index / CHUNK)?.get()?;
            Some(&chunk[stage.index % CHUNK]).filter(|cells| cells.count() > 0)
        })
    }

    fn cells(&self, index: usize) -> Option<&Stage> {
        let chunk = self.table.get(index / CHUNK)?;
        let chunk = chunk.get_or_init(|| Box::new(std::array::from_fn(|_| Stage::new("", 0))));
        Some(&chunk[index % CHUNK])
    }
}

/// Applies one recording to the registry's `stage` and, when this
/// thread entered a scope, to the scope's stage of the same index.
pub(crate) fn record(stage: &Stage, apply: impl Fn(&Stage)) {
    apply(stage);
    let _ = CURRENT.try_with(|current| {
        if let Some(cells) = current.borrow().as_ref().and_then(|s| s.cells(stage.index)) {
            apply(cells);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::tests::flag_lock;
    use std::time::Duration;

    #[test]
    fn a_scope_sees_only_what_its_threads_recorded() {
        let _serial = flag_lock();
        let (a, b) = (Scope::default(), Scope::default());
        {
            let _in = a.enter();
            crate::count!("test.scope.split", 3);
            crate::observe!("test.scope.timed", Duration::from_micros(5));
        }
        crate::count!("test.scope.split", 10); // registry only
        let got = |scope: &Scope, name: &str| {
            scope.snapshot().iter().find(|s| s.name == name).map(|s| s.count)
        };
        assert_eq!(got(&a, "test.scope.split"), Some(3));
        assert_eq!(got(&a, "test.scope.timed"), Some(1));
        assert_eq!(got(&b, "test.scope.split"), None, "b recorded nothing");
        let global = crate::snapshot();
        let split = global.iter().find(|s| s.name == "test.scope.split").expect("global");
        assert!(split.count >= 13, "the registry keeps recording everything");
    }

    #[test]
    fn entering_nests_and_restores() {
        let _serial = flag_lock();
        let (outer, inner) = (Scope::default(), Scope::default());
        assert!(Scope::current().is_none());
        let _o = outer.enter();
        {
            let _i = inner.enter();
            crate::count!("test.scope.nest");
        }
        crate::count!("test.scope.nest");
        crate::count!("test.scope.nest");
        let count = |scope: &Scope| scope.snapshot().iter().map(|s| s.count).sum::<u64>();
        assert_eq!((count(&inner), count(&outer)), (1, 2));
        assert!(Scope::current().is_some_and(|s| Arc::ptr_eq(&s.table, &outer.table)));
    }

    #[test]
    fn a_stage_registered_after_the_scope_still_records_into_it() {
        let _serial = flag_lock();
        let scope = Scope::default();
        let _in = scope.enter();
        let fresh = crate::registry::stage("test.scope.late");
        crate::count!("test.scope.late");
        let snap = scope.snapshot();
        let late = snap.iter().find(|s| s.name == "test.scope.late").expect("recorded");
        assert_eq!(late.count, 1);
        assert_eq!(fresh.name(), "test.scope.late");
    }
}
