//! Offline stand-in for the `crossbeam` crate.
//!
//! The workspace builds hermetically (no registry access), so this shim
//! supplies the one crossbeam facility the engines use: [`channel`],
//! multi-producer/multi-consumer bounded and unbounded channels with
//! crossbeam's disconnect semantics (receivers drain the queue before
//! reporting disconnection; senders fail once every receiver is gone).

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: VecDeque<T>,
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        inner: Mutex<Inner<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    fn lock<T>(chan: &Chan<T>) -> MutexGuard<'_, Inner<T>> {
        chan.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Sending half; clonable (mpmc).
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// Receiving half; clonable (mpmc).
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// Returned by `send` when all receivers are gone; carries the value back.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    /// Returned by `recv` when the channel is empty and all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Returned by `recv_timeout`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on receive"),
                RecvTimeoutError::Disconnected => f.write_str("channel is disconnected"),
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    fn new_chan<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                chan: Arc::clone(&chan),
            },
            Receiver { chan },
        )
    }

    /// A channel holding at most `cap` in-flight messages. `cap == 0`
    /// (a rendezvous channel in real crossbeam) is treated as capacity 1;
    /// no call site in this workspace uses a rendezvous channel.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        new_chan(Some(cap.max(1)))
    }

    /// A channel with no backpressure.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        new_chan(None)
    }

    impl<T> Sender<T> {
        /// Blocks while the channel is full; errors once all receivers drop.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = lock(&self.chan);
            loop {
                if inner.receivers == 0 {
                    return Err(SendError(value));
                }
                match inner.cap {
                    Some(cap) if inner.queue.len() >= cap => {
                        inner = self
                            .chan
                            .not_full
                            .wait(inner)
                            .unwrap_or_else(|e| e.into_inner());
                    }
                    _ => break,
                }
            }
            inner.queue.push_back(value);
            drop(inner);
            self.chan.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            lock(&self.chan).senders += 1;
            Sender {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = lock(&self.chan);
            inner.senders -= 1;
            let last = inner.senders == 0;
            drop(inner);
            if last {
                // Wake receivers so they can observe disconnection.
                self.chan.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives; drains the queue before
        /// reporting disconnection.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = lock(&self.chan);
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    drop(inner);
                    self.chan.not_full.notify_one();
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner = self
                    .chan
                    .not_empty
                    .wait(inner)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Like `recv` but gives up after `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut inner = lock(&self.chan);
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    drop(inner);
                    self.chan.not_full.notify_one();
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _timed_out) = self
                    .chan
                    .not_empty
                    .wait_timeout(inner, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                inner = guard;
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            lock(&self.chan).receivers += 1;
            Receiver {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut inner = lock(&self.chan);
            inner.receivers -= 1;
            let last = inner.receivers == 0;
            drop(inner);
            if last {
                // Wake blocked senders so they can observe disconnection.
                self.chan.not_full.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn bounded_channel_round_trip() {
        let (tx, rx) = channel::bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        drop(tx);
        assert_eq!(rx.recv(), Err(channel::RecvError));
    }

    #[test]
    fn recv_drains_before_disconnect() {
        let (tx, rx) = channel::unbounded();
        tx.send("a").unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok("a"));
        assert!(rx.recv().is_err());
    }

    #[test]
    fn send_fails_without_receivers() {
        let (tx, rx) = channel::unbounded();
        drop(rx);
        assert!(tx.send(7).is_err());
    }

    #[test]
    fn recv_timeout_times_out() {
        let (_tx, rx) = channel::bounded::<u8>(1);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(channel::RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn blocked_sender_unblocks_on_recv() {
        let (tx, rx) = channel::bounded(1);
        tx.send(0).unwrap();
        let t = std::thread::spawn(move || tx.send(1).is_ok());
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(0));
        assert_eq!(rx.recv(), Ok(1));
        assert!(t.join().unwrap());
    }
}
