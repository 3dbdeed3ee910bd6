//! The bounded request queue — the server's backpressure point.
//!
//! Admission control happens here and nowhere else: [`BoundedQueue::try_push`]
//! never blocks and never buffers beyond the configured capacity. When
//! the queue is full the caller gets the item back and sheds the load
//! with a structured `overloaded` error; nothing in the server holds an
//! unbounded buffer of requests.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused. Carries the item back so the caller can
/// still answer the client on its reply channel.
#[derive(Debug)]
pub enum PushError<T> {
    /// Queue at capacity — shed the load.
    Full(T),
    /// Queue closed for shutdown — no new work.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    open: bool,
}

/// A blocking MPMC queue with a hard capacity.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` waiting items (0 sheds
    /// every push — useful to test the overload path).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State { items: VecDeque::new(), open: true }),
            available: Condvar::new(),
            capacity,
        }
    }

    /// The capacity the queue was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Non-blocking push.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] when at capacity, [`PushError::Closed`] when
    /// the queue has been closed; both return the item.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.state.lock().expect("queue lock");
        if !state.open {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// drained; `None` means "no more work, ever" — the worker exits.
    /// Items pushed before [`BoundedQueue::close`] are always handed
    /// out, which is what makes shutdown a drain rather than a drop.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if !state.open {
                return None;
            }
            state = self.available.wait(state).expect("queue lock");
        }
    }

    /// Closes the queue: further pushes fail, pending items still drain.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").open = false;
        self.available.notify_all();
    }

    /// Items currently waiting.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }

    /// True when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sheds_beyond_capacity() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        match q.try_push(3) {
            Err(PushError::Full(item)) => assert_eq!(item, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok(), "space freed by pop readmits");
    }

    #[test]
    fn zero_capacity_sheds_everything() {
        let q = BoundedQueue::new(0);
        assert!(matches!(q.try_push(1), Err(PushError::Full(1))));
    }

    #[test]
    fn close_drains_pending_then_ends() {
        let q = BoundedQueue::new(8);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert!(matches!(q.try_push(3), Err(PushError::Closed(3))));
        assert_eq!(q.pop(), Some(1), "items before close still drain");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None, "then the queue ends");
    }

    #[test]
    fn blocked_consumers_wake_on_push_and_on_close() {
        let q = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(item) = q.pop() {
                    got.push(item);
                }
                got
            })
        };
        for i in 0..10 {
            while matches!(q.try_push(i), Err(PushError::Full(_))) {
                std::thread::yield_now();
            }
        }
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    /// Through a capacity-1 queue, each producer's items arrive in
    /// push order: a single slot cannot reorder a producer's stream.
    #[test]
    fn capacity_one_preserves_each_producers_order() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 50;
        let q = Arc::new(BoundedQueue::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(item) = q.pop() {
                    got.push(item);
                }
                got
            })
        };
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let mut item = (p, i);
                        loop {
                            match q.try_push(item) {
                                Ok(()) => break,
                                Err(PushError::Full(back)) => {
                                    item = back;
                                    std::thread::yield_now();
                                }
                                Err(PushError::Closed(_)) => panic!("closed early"),
                            }
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got.len() as u64, PRODUCERS * PER_PRODUCER);
        for p in 0..PRODUCERS {
            let seq: Vec<u64> = got.iter().filter(|(o, _)| *o == p).map(|&(_, i)| i).collect();
            assert_eq!(seq, (0..PER_PRODUCER).collect::<Vec<_>>(), "producer {p} reordered");
        }
    }

    /// Closing a full queue: the retrying producer must observe the
    /// transition from Full to Closed (never hang, never lose its
    /// item), and everything admitted before the close still drains.
    #[test]
    fn close_while_full_flips_retriers_from_full_to_closed() {
        let q = Arc::new(BoundedQueue::new(2));
        q.try_push(0).unwrap();
        q.try_push(1).unwrap();

        let retrier = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut item = 2;
                loop {
                    match q.try_push(item) {
                        Ok(()) => return None,
                        Err(PushError::Full(back)) => {
                            item = back;
                            std::thread::yield_now();
                        }
                        Err(PushError::Closed(back)) => return Some(back),
                    }
                }
            })
        };
        // Keep the queue full until the close lands so the retrier can
        // only ever see Full → Closed.
        q.close();
        let rejected = retrier.join().unwrap();
        assert_eq!(rejected, Some(2), "the shut-out item comes back to its owner");
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    /// Many producers and consumers released by one barrier: every
    /// accepted item is popped exactly once (multiset accounting), and
    /// shed items are exactly the complement.
    #[test]
    fn barrier_stress_accounts_for_every_item_exactly_once() {
        use std::sync::Barrier;

        const PRODUCERS: u64 = 4;
        const CONSUMERS: usize = 3;
        const PER_PRODUCER: u64 = 200;

        let q = Arc::new(BoundedQueue::new(5));
        let barrier = Arc::new(Barrier::new(PRODUCERS as usize + CONSUMERS));

        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let q = Arc::clone(&q);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let mut got = Vec::new();
                    while let Some(item) = q.pop() {
                        got.push(item);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let mut shed = Vec::new();
                    for i in 0..PER_PRODUCER {
                        match q.try_push((p, i)) {
                            Ok(()) => {}
                            Err(PushError::Full(item)) => shed.push(item),
                            Err(PushError::Closed(_)) => panic!("closed early"),
                        }
                    }
                    shed
                })
            })
            .collect();

        let mut shed = Vec::new();
        for p in producers {
            shed.extend(p.join().unwrap());
        }
        q.close();
        let mut popped = Vec::new();
        for c in consumers {
            popped.extend(c.join().unwrap());
        }

        let mut all = popped.clone();
        all.extend(shed.iter().copied());
        all.sort_unstable();
        let expected: Vec<(u64, u64)> =
            (0..PRODUCERS).flat_map(|p| (0..PER_PRODUCER).map(move |i| (p, i))).collect();
        assert_eq!(all, expected, "popped + shed must partition the pushes");
        let mut dedup = popped.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), popped.len(), "no item may be popped twice");
    }

    /// The worker-loop expiry race, at queue level: items race a
    /// deadline while waiting. However the race falls, each item is
    /// classified exactly once — run or expired, never both, never
    /// lost — and anything that sat past its deadline is never run.
    #[test]
    fn deadline_expiry_race_never_runs_late_work() {
        use std::time::{Duration, Instant};

        const ITEMS: u64 = 120;
        let q = Arc::new(BoundedQueue::new(4));
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut run = Vec::new();
                    let mut expired = Vec::new();
                    while let Some((id, deadline)) = q.pop() {
                        // The same check the worker loop makes at
                        // dequeue — the race under test.
                        if Instant::now() >= deadline {
                            expired.push(id);
                        } else {
                            run.push(id);
                        }
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    (run, expired)
                })
            })
            .collect();

        for id in 0..ITEMS {
            // Half the items get a deadline shorter than the service
            // time, so expiry genuinely races the pop.
            let ttl = if id % 2 == 0 { Duration::from_micros(50) } else { Duration::from_secs(60) };
            let mut item = (id, Instant::now() + ttl);
            loop {
                match q.try_push(item) {
                    Ok(()) => break,
                    Err(PushError::Full(back)) => {
                        item = back;
                        std::thread::yield_now();
                    }
                    Err(PushError::Closed(_)) => panic!("closed early"),
                }
            }
        }
        q.close();

        let mut run = Vec::new();
        let mut expired = Vec::new();
        for c in consumers {
            let (r, e) = c.join().unwrap();
            run.extend(r);
            expired.extend(e);
        }
        let mut all = run.clone();
        all.extend(expired.iter().copied());
        all.sort_unstable();
        assert_eq!(all, (0..ITEMS).collect::<Vec<_>>(), "run + expired must cover every item once");
        // Long-deadline items can expire only if the queue genuinely
        // backed up for a minute — not in this test.
        assert!(expired.iter().all(|id| id % 2 == 0), "60 s deadlines must never expire here");
        assert!(!run.is_empty() && !expired.is_empty(), "both race outcomes must occur");
    }
}
