//! Offline shim for [`crossbeam-channel`](https://crates.io/crates/crossbeam-channel).
//!
//! Multi-producer **multi-consumer** channels built on a
//! `Mutex<VecDeque>` + two condvars. Semantics match the subset the
//! workspace uses:
//!
//! * [`bounded`] / [`unbounded`] constructors;
//! * cloneable [`Sender`] / [`Receiver`] with sender/receiver reference
//!   counting — `recv` on an empty channel fails once every sender is gone,
//!   `send` fails once every receiver is gone, and the last receiver's
//!   drop discards the messages still queued, as the real crate does;
//! * `send` blocks on a full bounded channel; `try_send` returns
//!   [`TrySendError::Full`]; zero-capacity channels rendezvous through a
//!   one-slot buffer (adequate for the signalling patterns used here);
//! * `try_recv` / `recv_timeout` for polling consumers.
//!
//! The real crate's `select!` macro is intentionally not provided; the
//! service layer was restructured around explicit control messages instead.
#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

#[cfg(feature = "check")]
use fairdms_check::rt;

/// Error returned by [`Sender::send`] when every receiver is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Sender::try_send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The channel is at capacity; the message is handed back.
    Full(T),
    /// Every receiver is gone; the message is handed back.
    Disconnected(T),
}

/// Error returned by [`Receiver::recv`] when the channel is empty and every
/// sender is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty.
    Empty,
    /// Empty and every sender is gone.
    Disconnected,
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The deadline elapsed with no message.
    Timeout,
    /// Empty and every sender is gone.
    Disconnected,
}

struct Chan<T> {
    queue: Mutex<VecDeque<T>>,
    /// `usize::MAX` encodes "unbounded"; zero-capacity channels use 1 (a
    /// rendezvous slot) so signalling still works.
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
    senders: AtomicUsize,
    receivers: AtomicUsize,
}

impl<T> Chan<T> {
    /// Base model resource: the channel's identity, from which its two
    /// wait queues derive.
    #[cfg(feature = "check")]
    fn res(&self) -> u64 {
        rt::obj_id(self)
    }

    /// Model wait-queue for "channel has a message".
    #[cfg(feature = "check")]
    fn res_not_empty(&self) -> u64 {
        rt::sub_res(self.res(), 1)
    }

    /// Model wait-queue for "channel has spare capacity".
    #[cfg(feature = "check")]
    fn res_not_full(&self) -> u64 {
        rt::sub_res(self.res(), 2)
    }

    fn disconnected_tx(&self) -> bool {
        self.senders.load(Ordering::Acquire) == 0
    }

    fn disconnected_rx(&self) -> bool {
        self.receivers.load(Ordering::Acquire) == 0
    }
}

/// The sending half (cloneable).
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

/// The receiving half (cloneable; receivers compete for messages).
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

/// Creates a channel with a capacity bound.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    with_capacity(cap.max(1))
}

/// Creates a channel without a capacity bound.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    with_capacity(usize::MAX)
}

fn with_capacity<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        queue: Mutex::new(VecDeque::new()),
        capacity,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
    });
    (
        Sender {
            chan: Arc::clone(&chan),
        },
        Receiver { chan },
    )
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.chan.senders.fetch_add(1, Ordering::AcqRel);
        Sender {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.chan.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last sender: wake receivers blocked on an empty queue.
            self.chan.not_empty.notify_all();
            #[cfg(feature = "check")]
            if rt::is_model_thread() {
                rt::unblock_all(self.chan.res_not_empty());
            }
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.chan.receivers.fetch_add(1, Ordering::AcqRel);
        Receiver {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        // Under the queue lock, so no send lands after the discard below:
        // every send checks for receivers under the same lock.
        let mut q = self
            .chan
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if self.chan.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last receiver: nobody will take what is queued, so drop it
            // now (outside the lock) rather than with the last sender, and
            // wake senders blocked on a full queue.
            let unread = std::mem::take(&mut *q);
            drop(q);
            drop(unread);
            self.chan.not_full.notify_all();
            #[cfg(feature = "check")]
            if rt::is_model_thread() {
                rt::unblock_all(self.chan.res_not_full());
            }
        }
    }
}

impl<T> Sender<T> {
    /// Model-thread send: the real mutex is only held between yield
    /// points (never across one), and full-channel blocking goes through
    /// the scheduler instead of the condvar.
    #[cfg(feature = "check")]
    #[track_caller]
    fn send_model(&self, value: T) -> Result<(), SendError<T>> {
        loop {
            rt::op_yield("channel send");
            {
                let mut q = self.chan.queue.lock().expect("channel mutex");
                if self.chan.disconnected_rx() {
                    return Err(SendError(value));
                }
                if q.len() < self.chan.capacity {
                    q.push_back(value);
                    drop(q);
                    rt::unblock_all(self.chan.res_not_empty());
                    return Ok(());
                }
            }
            rt::block_on(self.chan.res_not_full(), false, "channel send (full)");
        }
    }

    /// Sends, blocking while the channel is full. Fails only when every
    /// receiver is gone.
    #[track_caller]
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        #[cfg(feature = "check")]
        if rt::is_model_thread() {
            return self.send_model(value);
        }
        let mut q = self.chan.queue.lock().expect("channel mutex");
        loop {
            if self.chan.disconnected_rx() {
                return Err(SendError(value));
            }
            if q.len() < self.chan.capacity {
                q.push_back(value);
                self.chan.not_empty.notify_one();
                return Ok(());
            }
            q = self.chan.not_full.wait(q).expect("channel mutex");
        }
    }

    /// Sends without blocking.
    #[track_caller]
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        #[cfg(feature = "check")]
        if rt::is_model_thread() {
            rt::op_yield("channel try_send");
        }
        let mut q = self.chan.queue.lock().expect("channel mutex");
        if self.chan.disconnected_rx() {
            return Err(TrySendError::Disconnected(value));
        }
        if q.len() >= self.chan.capacity {
            return Err(TrySendError::Full(value));
        }
        q.push_back(value);
        self.chan.not_empty.notify_one();
        #[cfg(feature = "check")]
        if rt::is_model_thread() {
            drop(q);
            rt::unblock_all(self.chan.res_not_empty());
            return Ok(());
        }
        Ok(())
    }
}

impl<T> Receiver<T> {
    /// Model-thread receive: mirror of `send_model`.
    #[cfg(feature = "check")]
    #[track_caller]
    fn recv_model(&self) -> Result<T, RecvError> {
        loop {
            rt::op_yield("channel recv");
            {
                let mut q = self.chan.queue.lock().expect("channel mutex");
                if let Some(v) = q.pop_front() {
                    drop(q);
                    rt::unblock_all(self.chan.res_not_full());
                    return Ok(v);
                }
                if self.chan.disconnected_tx() {
                    return Err(RecvError);
                }
            }
            rt::block_on(self.chan.res_not_empty(), false, "channel recv (empty)");
        }
    }

    /// Receives, blocking while the channel is empty. Fails only when the
    /// channel is empty and every sender is gone.
    #[track_caller]
    pub fn recv(&self) -> Result<T, RecvError> {
        #[cfg(feature = "check")]
        if rt::is_model_thread() {
            return self.recv_model();
        }
        let mut q = self.chan.queue.lock().expect("channel mutex");
        loop {
            if let Some(v) = q.pop_front() {
                self.chan.not_full.notify_one();
                return Ok(v);
            }
            if self.chan.disconnected_tx() {
                return Err(RecvError);
            }
            q = self.chan.not_empty.wait(q).expect("channel mutex");
        }
    }

    /// Receives without blocking.
    #[track_caller]
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        #[cfg(feature = "check")]
        if rt::is_model_thread() {
            rt::op_yield("channel try_recv");
        }
        let mut q = self.chan.queue.lock().expect("channel mutex");
        if let Some(v) = q.pop_front() {
            self.chan.not_full.notify_one();
            #[cfg(feature = "check")]
            if rt::is_model_thread() {
                drop(q);
                rt::unblock_all(self.chan.res_not_full());
                return Ok(v);
            }
            return Ok(v);
        }
        if self.chan.disconnected_tx() {
            return Err(TryRecvError::Disconnected);
        }
        Err(TryRecvError::Empty)
    }

    /// Model-thread timed receive. The model has no wall clock: the
    /// timeout "fires" exactly when no other thread can make progress
    /// first — the scheduler's deadlock-resolution rule — which both
    /// keeps schedules time-independent and exercises the timeout path.
    #[cfg(feature = "check")]
    #[track_caller]
    fn recv_timeout_model(&self) -> Result<T, RecvTimeoutError> {
        loop {
            rt::op_yield("channel recv_timeout");
            {
                let mut q = self.chan.queue.lock().expect("channel mutex");
                if let Some(v) = q.pop_front() {
                    drop(q);
                    rt::unblock_all(self.chan.res_not_full());
                    return Ok(v);
                }
                if self.chan.disconnected_tx() {
                    return Err(RecvTimeoutError::Disconnected);
                }
            }
            let wake = rt::block_on(self.chan.res_not_empty(), true, "channel recv_timeout");
            if wake == rt::Wake::Timeout {
                let mut q = self.chan.queue.lock().expect("channel mutex");
                if let Some(v) = q.pop_front() {
                    drop(q);
                    rt::unblock_all(self.chan.res_not_full());
                    return Ok(v);
                }
                return Err(RecvTimeoutError::Timeout);
            }
        }
    }

    /// Receives, blocking at most `timeout`.
    #[track_caller]
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        #[cfg(feature = "check")]
        if rt::is_model_thread() {
            return self.recv_timeout_model();
        }
        let deadline = Instant::now() + timeout;
        let mut q = self.chan.queue.lock().expect("channel mutex");
        loop {
            if let Some(v) = q.pop_front() {
                self.chan.not_full.notify_one();
                return Ok(v);
            }
            if self.chan.disconnected_tx() {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (guard, _) = self
                .chan
                .not_empty
                .wait_timeout(q, deadline - now)
                .expect("channel mutex");
            q = guard;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_within_single_consumer() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        let got: Vec<i32> = (0..10).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_backpressure_blocks_until_drained() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        let t = thread::spawn(move || tx.send(3)); // blocks until a recv
        assert_eq!(rx.recv().unwrap(), 1);
        t.join().unwrap().unwrap();
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), 3);
    }

    #[test]
    fn dropping_all_senders_disconnects() {
        let (tx, rx) = unbounded::<u8>();
        let tx2 = tx.clone();
        tx.send(9).unwrap();
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Ok(9));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn dropping_all_receivers_disconnects() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert_eq!(tx.send(5), Err(SendError(5)));
        assert!(matches!(tx.try_send(5), Err(TrySendError::Disconnected(5))));
    }

    #[test]
    fn dropping_the_last_receiver_discards_queued_messages() {
        let (tx, rx) = unbounded();
        let queued = Arc::new(());
        tx.send(Arc::clone(&queued)).unwrap();
        let rx2 = rx.clone();
        drop(rx);
        assert_eq!(Arc::strong_count(&queued), 2, "a receiver remains");
        drop(rx2);
        assert_eq!(
            Arc::strong_count(&queued),
            1,
            "the message outlived its channel's receivers"
        );
    }

    #[test]
    fn mpmc_consumers_partition_messages() {
        let (tx, rx) = unbounded();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        for i in 0..1000 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut all: Vec<i32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn recv_timeout_expires() {
        let (tx, rx) = bounded::<u8>(1);
        let err = rx.recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, RecvTimeoutError::Timeout);
        tx.send(1).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(1));
    }
}
