//! A bounded MPMC work queue with explicit backpressure policies.
//!
//! The match stage sits between a fast producer (frame decoding) and a
//! slow consumer (Viterbi map matching), so the queue between them decides
//! how overload degrades:
//!
//! * [`BackpressurePolicy::Block`] — producers wait for space (closed-loop
//!   sources self-throttle to matcher capacity);
//! * [`BackpressurePolicy::DropOldest`] — the oldest queued record is
//!   evicted to admit the new one (freshest-data-wins, e.g. live traffic
//!   feeds where a stale trace is worthless);
//! * [`BackpressurePolicy::Reject`] — the new record is refused and the
//!   caller told so (load shedding with upstream retry).
//!
//! `pop` also hands out a **ticket**: the number of items popped before
//! this one, taken under the queue's lock. An item displaced by
//! `DropOldest` or discarded by `BoundedQueue::close_and_clear` is never
//! popped, so tickets are dense and follow push order — the ingest
//! publisher releases match outcomes in ticket order, which makes publish
//! order the intake order.
//!
//! `std::sync::mpsc::sync_channel` only offers the blocking flavor, hence
//! this hand-rolled Mutex + Condvar queue.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// How a full queue treats a new item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Wait until space frees up.
    Block,
    /// Evict the oldest queued item to admit the new one.
    DropOldest,
    /// Refuse the new item.
    Reject,
}

/// What happened to a pushed item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PushOutcome {
    /// Enqueued without displacing anything.
    Accepted,
    /// Enqueued, but the oldest queued item was evicted to make room.
    AcceptedDroppedOldest,
    /// Refused: the queue was full under [`BackpressurePolicy::Reject`].
    Rejected,
    /// Refused: the queue is closed.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Items popped so far: the next pop's ticket.
    popped: u64,
}

/// The bounded queue. `push` applies a [`BackpressurePolicy`]; `pop`
/// blocks until an item arrives or the queue is closed and drained, and
/// tickets what it returns.
pub(crate) struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
                popped: 0,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Pushes an item under `policy`. Never blocks except under
    /// [`BackpressurePolicy::Block`] on a full queue.
    pub fn push(&self, item: T, policy: BackpressurePolicy) -> PushOutcome {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        if inner.closed {
            return PushOutcome::Closed;
        }
        let mut outcome = PushOutcome::Accepted;
        if inner.items.len() >= self.capacity {
            match policy {
                BackpressurePolicy::Block => {
                    while inner.items.len() >= self.capacity && !inner.closed {
                        inner = self.not_full.wait(inner).expect("queue lock poisoned");
                    }
                    if inner.closed {
                        return PushOutcome::Closed;
                    }
                }
                BackpressurePolicy::DropOldest => {
                    inner.items.pop_front();
                    outcome = PushOutcome::AcceptedDroppedOldest;
                }
                BackpressurePolicy::Reject => return PushOutcome::Rejected,
            }
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        outcome
    }

    /// Pops the oldest item with its ticket, blocking while the queue is
    /// open and empty. Returns `None` once the queue is closed **and**
    /// drained.
    pub fn pop(&self) -> Option<(u64, T)> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                let ticket = inner.popped;
                inner.popped += 1;
                drop(inner);
                self.not_full.notify_one();
                return Some((ticket, item));
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("queue lock poisoned");
        }
    }

    /// Closes the queue: further pushes fail, pops drain what remains.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Closes the queue and discards everything still queued (crash
    /// simulation / fast abort). Returns the number of items discarded.
    pub(crate) fn close_and_clear(&self) -> usize {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        inner.closed = true;
        let n = inner.items.len();
        inner.items.clear();
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
        n
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock poisoned").items.len()
    }

    /// The ticket bound of everything pushed so far: tickets handed out
    /// plus items still queued, read under one lock. Every item pushed
    /// before this call is popped with a lower ticket, or never popped
    /// (displaced or cleared).
    pub(crate) fn ticket_bound(&self) -> u64 {
        let inner = self.inner.lock().expect("queue lock poisoned");
        inner.popped + inner.items.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// Gives `producer` 20 ms to block in `push`, then checks that it has
    /// not returned: a `Block` push that returns at once on a full queue
    /// fails here.
    fn assert_blocked<T>(producer: &std::thread::JoinHandle<T>) {
        std::thread::sleep(Duration::from_millis(20));
        assert!(!producer.is_finished(), "Block returned on a full queue");
    }

    #[test]
    fn fifo_order_and_capacity() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.push(1, BackpressurePolicy::Reject), PushOutcome::Accepted);
        assert_eq!(q.push(2, BackpressurePolicy::Reject), PushOutcome::Accepted);
        assert_eq!(q.push(3, BackpressurePolicy::Reject), PushOutcome::Rejected);
        assert_eq!(q.pop(), Some((0, 1)));
        assert_eq!(q.pop(), Some((1, 2)));
    }

    #[test]
    fn drop_oldest_evicts_front() {
        let q = BoundedQueue::new(2);
        q.push(1, BackpressurePolicy::DropOldest);
        q.push(2, BackpressurePolicy::DropOldest);
        assert_eq!(
            q.push(3, BackpressurePolicy::DropOldest),
            PushOutcome::AcceptedDroppedOldest
        );
        assert_eq!(q.pop(), Some((0, 2)));
        assert_eq!(q.pop(), Some((1, 3)));
    }

    /// Tickets count pops only: a displaced item and a cleared one never
    /// take a ticket, so the tickets handed out stay 0, 1, 2, …
    #[test]
    fn tickets_are_dense_and_skip_displaced_and_cleared_items() {
        let q = BoundedQueue::new(2);
        q.push('a', BackpressurePolicy::DropOldest);
        q.push('b', BackpressurePolicy::DropOldest);
        q.push('c', BackpressurePolicy::DropOldest); // displaces 'a'
        assert_eq!(q.pop(), Some((0, 'b')));
        q.push('d', BackpressurePolicy::DropOldest);
        q.push('e', BackpressurePolicy::DropOldest); // displaces 'c'
        assert_eq!(q.pop(), Some((1, 'd')));
        assert_eq!(q.pop(), Some((2, 'e')));
        q.push('f', BackpressurePolicy::Block);
        assert_eq!(q.close_and_clear(), 1); // 'f' is never popped
        assert_eq!(q.pop(), None);
    }

    /// The bound counts popped and queued items, never displaced ones: a
    /// pushed item's ticket, when it gets one, is below the bound read
    /// after its push.
    #[test]
    fn ticket_bound_covers_every_pushed_item() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.ticket_bound(), 0);
        q.push('a', BackpressurePolicy::DropOldest);
        q.push('b', BackpressurePolicy::DropOldest);
        assert_eq!(q.ticket_bound(), 2);
        q.push('c', BackpressurePolicy::DropOldest); // displaces 'a'
        assert_eq!(q.ticket_bound(), 2);
        assert_eq!(q.pop(), Some((0, 'b')));
        assert_eq!(q.ticket_bound(), 2);
        assert_eq!(q.pop(), Some((1, 'c')));
        assert_eq!(q.ticket_bound(), 2);
    }

    #[test]
    fn block_waits_for_space() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(1, BackpressurePolicy::Block);
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(2, BackpressurePolicy::Block));
        assert_blocked(&producer);
        assert_eq!(q.pop(), Some((0, 1)));
        assert_eq!(producer.join().unwrap(), PushOutcome::Accepted);
        assert_eq!(q.pop(), Some((1, 2)));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.push(1, BackpressurePolicy::Block);
        q.push(2, BackpressurePolicy::Block);
        q.close();
        assert_eq!(q.push(3, BackpressurePolicy::Block), PushOutcome::Closed);
        assert_eq!(q.pop(), Some((0, 1)));
        assert_eq!(q.pop(), Some((1, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_unblocks_blocked_producer() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(1, BackpressurePolicy::Block);
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(2, BackpressurePolicy::Block));
        assert_blocked(&producer);
        q.close();
        assert_eq!(producer.join().unwrap(), PushOutcome::Closed);
    }

    #[test]
    fn close_and_clear_discards() {
        let q = BoundedQueue::new(4);
        q.push(1, BackpressurePolicy::Block);
        q.push(2, BackpressurePolicy::Block);
        assert_eq!(q.close_and_clear(), 2);
        assert_eq!(q.pop(), None::<(u64, i32)>);
    }
}
