//! A bounded multi-producer/multi-consumer request queue.
//!
//! Built on `std::sync::{Mutex, Condvar}` only (the workspace carries no
//! concurrency dependency; cf. the `std::thread::scope` worker pool in
//! `ah_silc`). Producers block once `capacity` items are in flight — the
//! back-pressure that makes the traffic driver *closed-loop* — and
//! consumers block while the queue is empty until it is closed.
//!
//! Consumers drain in batches ([`BoundedQueue::pop_batch`]): one lock
//! acquisition hands a worker up to `max` requests, which keeps lock
//! traffic negligible even when individual queries take only a few
//! microseconds.
//!
//! Open-loop producers — the network edge, which must *never* block its
//! event loop — use [`BoundedQueue::try_push`] instead: a full queue
//! returns the item immediately (admission control's rejection branch)
//! and is counted in [`BoundedQueue::rejected`]. The queue also tracks
//! its [`BoundedQueue::high_water`] mark so operators can see how close
//! to saturation the service ran, not just whether it tipped over.
//!
//! Every item is stamped with its enqueue `Instant`; attach a
//! histogram with [`BoundedQueue::set_wait_histogram`] and each pop
//! records the item's enqueue→dequeue wait into it — queue saturation
//! becomes a *latency distribution* (`ah_queue_wait_seconds`), not
//! just a depth gauge.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use ah_obs::Histogram;

struct State<T> {
    items: VecDeque<(Instant, T)>,
    closed: bool,
}

/// Why a [`BoundedQueue::try_push`] did not enqueue; carries the item
/// back so the producer can answer the caller (e.g. with a 429).
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// The queue is at capacity — admission control should reject.
    Full(T),
    /// The queue has been closed — the service is shutting down.
    Closed(T),
}

/// Bounded MPMC FIFO channel. `T` crosses threads, hence `T: Send`.
pub struct BoundedQueue<T: Send> {
    capacity: usize,
    state: Mutex<State<T>>,
    /// Signalled when items are added or the queue closes (wakes consumers).
    not_empty: Condvar,
    /// Signalled when items are removed (wakes blocked producers).
    not_full: Condvar,
    /// Deepest the buffer has ever been (saturation telemetry).
    high_water: AtomicUsize,
    /// Items refused by [`BoundedQueue::try_push`] on a full queue.
    rejected: AtomicU64,
    /// Enqueue→dequeue wait sink, set once via
    /// [`BoundedQueue::set_wait_histogram`].
    wait_hist: OnceLock<Arc<Histogram>>,
}

impl<T: Send> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` in-flight items.
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            capacity: capacity.max(1),
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            high_water: AtomicUsize::new(0),
            rejected: AtomicU64::new(0),
            wait_hist: OnceLock::new(),
        }
    }

    /// Maximum number of in-flight items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Attaches the histogram that receives every item's
    /// enqueue→dequeue wait (nanoseconds). Set-once: later calls are
    /// ignored, so the queue's owner wires it up before serving starts
    /// and workers never race a swap.
    pub fn set_wait_histogram(&self, hist: Arc<Histogram>) {
        let _ = self.wait_hist.set(hist);
    }

    #[inline]
    fn note_depth(&self, depth: usize) {
        self.high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// Enqueues one item, blocking while the queue is full. Returns `false`
    /// (dropping the item) if the queue has been closed.
    pub fn push(&self, item: T) -> bool {
        let mut st = self.state.lock().unwrap();
        while st.items.len() >= self.capacity && !st.closed {
            st = self.not_full.wait(st).unwrap();
        }
        if st.closed {
            return false;
        }
        st.items.push_back((Instant::now(), item));
        self.note_depth(st.items.len());
        drop(st);
        self.not_empty.notify_one();
        true
    }

    /// Enqueues one item *without ever blocking*: a full queue hands the
    /// item straight back as [`TryPushError::Full`] (and counts it in
    /// [`BoundedQueue::rejected`]) so the producer can answer the caller
    /// with an overload response instead of buffering unboundedly. This
    /// is the admission-control branch the network edge runs on.
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return Err(TryPushError::Closed(item));
        }
        if st.items.len() >= self.capacity {
            drop(st);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(TryPushError::Full(item));
        }
        st.items.push_back((Instant::now(), item));
        self.note_depth(st.items.len());
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues up to `max` items into `out`, blocking while the queue is
    /// empty and open. Returns the number of items delivered; `0` means the
    /// queue is closed *and* drained — the consumer's shutdown signal.
    /// Each delivered item's enqueue→dequeue wait is recorded into the
    /// attached wait histogram, if any.
    pub fn pop_batch(&self, max: usize, out: &mut Vec<T>) -> usize {
        let mut st = self.state.lock().unwrap();
        while st.items.is_empty() && !st.closed {
            st = self.not_empty.wait(st).unwrap();
        }
        let take = st.items.len().min(max.max(1));
        let hist = self.wait_hist.get();
        let now = (hist.is_some() && take > 0).then(Instant::now);
        for (enqueued_at, item) in st.items.drain(..take) {
            if let (Some(h), Some(now)) = (hist, now) {
                h.record_ns(now.saturating_duration_since(enqueued_at).as_nanos() as u64);
            }
            out.push(item);
        }
        drop(st);
        if take > 0 {
            // Producers may be blocked on a full queue; batch removal can
            // free many slots at once.
            self.not_full.notify_all();
        }
        take
    }

    /// Closes the queue: producers fail fast, consumers drain what remains
    /// (everything already admitted is still served) and then observe the
    /// end of the stream.
    pub fn close(&self) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        drop(st);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Whether the queue has been closed (by [`BoundedQueue::close`] or a
    /// dying consumer's panic guard). Producers can use this to
    /// distinguish an orderly shutdown they initiated from a worker crash
    /// they must react to.
    pub fn is_closed(&self) -> bool {
        self.state.lock().unwrap().closed
    }

    /// Items currently buffered (diagnostics only; racy by nature).
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().items.len()
    }

    /// Whether the buffer is currently empty (diagnostics only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deepest the buffer has ever been — how close the service came to
    /// saturation even if it never rejected.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Items refused by [`BoundedQueue::try_push`] because the queue was
    /// full (the operator-visible overload counter; closed-queue
    /// rejections during shutdown are not counted as overload).
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn fifo_within_capacity() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            assert!(q.push(i));
        }
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(3, &mut out), 3);
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_unblocks_and_drains() {
        let q = BoundedQueue::new(4);
        q.push(1u32);
        q.close();
        assert!(!q.push(2), "push after close must fail");
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(16, &mut out), 1);
        assert_eq!(q.pop_batch(16, &mut out), 0, "closed + drained");
    }

    #[test]
    fn many_producers_many_consumers_deliver_exactly_once() {
        let q = BoundedQueue::new(16);
        let produced: u64 = (0..400u64).sum();
        let consumed = AtomicU64::new(0);
        let count = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let producers: Vec<_> = (0..4u64)
                .map(|p| {
                    let q = &q;
                    scope.spawn(move || {
                        for i in 0..100u64 {
                            assert!(q.push(p * 100 + i));
                        }
                    })
                })
                .collect();
            for _ in 0..3 {
                let q = &q;
                let consumed = &consumed;
                let count = &count;
                scope.spawn(move || {
                    let mut buf = Vec::new();
                    loop {
                        buf.clear();
                        if q.pop_batch(7, &mut buf) == 0 {
                            break;
                        }
                        for v in &buf {
                            consumed.fetch_add(*v, Ordering::Relaxed);
                            count.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
            for h in producers {
                h.join().unwrap();
            }
            q.close(); // consumers drain the remainder and exit
        });
        assert_eq!(count.load(Ordering::Relaxed), 400);
        assert_eq!(consumed.load(Ordering::Relaxed), produced);
    }

    #[test]
    fn try_push_rejects_on_full_and_counts() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1u32).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(TryPushError::Full(3)));
        assert_eq!(q.try_push(4), Err(TryPushError::Full(4)));
        assert_eq!(q.rejected(), 2);
        assert_eq!(q.high_water(), 2);
        let mut out = Vec::new();
        q.pop_batch(1, &mut out);
        assert!(q.try_push(5).is_ok(), "slot freed, admission resumes");
        q.close();
        // Closed-queue refusals are shutdown, not overload.
        assert_eq!(q.try_push(6), Err(TryPushError::Closed(6)));
        assert_eq!(q.rejected(), 2);
    }

    #[test]
    fn high_water_tracks_deepest_point() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i);
        }
        let mut out = Vec::new();
        q.pop_batch(5, &mut out);
        q.push(9);
        assert_eq!(q.high_water(), 5, "draining must not lower the mark");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn wait_histogram_records_every_pop() {
        let q = BoundedQueue::new(8);
        let h = Arc::new(Histogram::new());
        q.set_wait_histogram(Arc::clone(&h));
        q.push(1u32);
        q.push(2);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(8, &mut out), 2);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(h.count(), 2, "one wait observation per popped item");
        // Both items sat in the queue for the full sleep.
        assert!(h.quantile_ns(0.0) >= 1_000_000.0, "wait {}", h.mean_ns());
        // A second attach is ignored (set-once), the original keeps
        // receiving.
        q.set_wait_histogram(Arc::new(Histogram::new()));
        q.push(3);
        q.pop_batch(1, &mut out);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn capacity_bounds_in_flight_items() {
        let q = BoundedQueue::new(2);
        assert!(q.push(1));
        assert!(q.push(2));
        std::thread::scope(|scope| {
            let q = &q;
            scope.spawn(move || {
                // Blocks until the consumer below frees a slot.
                assert!(q.push(3));
                q.close();
            });
            let mut out = Vec::new();
            let mut total = 0;
            loop {
                out.clear();
                let n = q.pop_batch(1, &mut out);
                if n == 0 {
                    break;
                }
                assert!(q.len() <= 2);
                total += n;
            }
            assert_eq!(total, 3);
        });
    }
}
