//! Unbounded channels with a crossbeam-shaped API, backed by
//! `std::sync::mpsc`. Reactor-hosted sessions report their outcomes on
//! one, and the serve tier answers each pending ticket on one.

use std::sync::mpsc;

/// Sending half of a channel. Cloneable; dropping every sender closes
/// the channel.
#[derive(Debug)]
pub struct Sender<T> {
    inner: mpsc::Sender<T>,
}

// Manual impl: a derived `Clone` would demand `T: Clone`, but cloning a
// sender only clones the queue handle — the payload type is irrelevant.
impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender { inner: self.inner.clone() }
    }
}

/// Error returned when the receiving side has hung up; carries the
/// undelivered message back, like crossbeam/mpsc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> std::fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sending on a closed channel")
    }
}

impl<T: std::fmt::Debug> std::error::Error for SendError<T> {}

/// Error returned by [`Receiver::recv`] when every sender is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "receiving on a closed channel")
    }
}

impl std::error::Error for RecvError {}

impl<T> Sender<T> {
    /// Delivers `value` without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] with the value if the receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        self.inner.send(value).map_err(|e| SendError(e.0))
    }
}

/// Receiving half of a channel.
#[derive(Debug)]
pub struct Receiver<T> {
    inner: mpsc::Receiver<T>,
}

impl<T> Receiver<T> {
    /// Blocks for the next message.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError`] once the channel is empty and closed.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.inner.recv().map_err(|_| RecvError)
    }

    /// A blocking iterator that ends when the channel closes.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.inner.iter()
    }
}

impl<T> IntoIterator for Receiver<T> {
    type Item = T;
    type IntoIter = mpsc::IntoIter<T>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.into_iter()
    }
}

/// A channel with an unbounded queue.
#[must_use]
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::channel();
    (Sender { inner: tx }, Receiver { inner: rx })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn delivers_in_order_across_threads() {
        let (tx, rx) = unbounded::<u32>();
        let sender = thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let got: Vec<u32> = rx.iter().collect();
        sender.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn unbounded_does_not_block_sender() {
        let (tx, rx) = unbounded::<usize>();
        for i in 0..10_000 {
            tx.send(i).unwrap();
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 10_000);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn cloned_senders_keep_channel_open() {
        let (tx, rx) = unbounded::<u8>();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(9).unwrap();
        assert_eq!(rx.recv(), Ok(9));
        drop(tx2);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn send_after_receiver_drop_returns_value() {
        // Documented crossbeam behaviour: a send on a channel whose
        // receiver is gone fails immediately and hands the value back.
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert_eq!(tx.send(8), Err(SendError(8)));
        let SendError(v) = tx.send(9).unwrap_err();
        assert_eq!(v, 9);
    }

    #[test]
    fn recv_after_all_senders_dropped_drains_then_disconnects() {
        // Messages queued before the last sender died must still be
        // delivered; only afterwards does the channel report closure.
        let (tx, rx) = unbounded::<u8>();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn iter_ends_exactly_at_disconnect() {
        let (tx, rx) = unbounded::<u32>();
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        drop(tx);
        assert_eq!(rx.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn into_iter_drains_an_owned_receiver() {
        let (tx, rx) = unbounded::<u32>();
        tx.send(3).unwrap();
        tx.send(4).unwrap();
        drop(tx);
        assert_eq!(rx.into_iter().collect::<Vec<_>>(), vec![3, 4]);
    }
}
