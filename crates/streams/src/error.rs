//! Error types for detachable-stream operations.
//!
//! Every fallible public operation of this crate returns one of the error
//! enums defined here.  All error types implement [`std::error::Error`],
//! [`Send`], and [`Sync`], and their `Display` messages are lowercase without
//! trailing punctuation, per the Rust API guidelines.

use std::error::Error;
use std::fmt;

/// Error returned by [`DetachableSender::send`](crate::DetachableSender::send).
///
/// The undelivered item is handed back to the caller so that nothing is
/// silently dropped (the caller may retry, reroute, or count the loss).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError<T> {
    /// The sending half has been closed (explicitly or because every handle
    /// was dropped).  No further sends will ever succeed.
    Closed(T),
    /// The receiver has been closed or dropped.  No further sends will
    /// ever succeed.
    ReceiverClosed(T),
}

impl<T> SendError<T> {
    /// Consumes the error and returns the item that could not be delivered.
    pub fn into_inner(self) -> T {
        match self {
            SendError::Closed(item) | SendError::ReceiverClosed(item) => item,
        }
    }

    /// Applies `f` to the undelivered item, keeping the variant.
    pub(crate) fn map<U>(self, f: impl FnOnce(T) -> U) -> SendError<U> {
        match self {
            SendError::Closed(item) => SendError::Closed(f(item)),
            SendError::ReceiverClosed(item) => SendError::ReceiverClosed(f(item)),
        }
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::Closed(_) => write!(f, "send on a closed detachable sender"),
            SendError::ReceiverClosed(_) => {
                write!(f, "send to a closed detachable receiver")
            }
        }
    }
}

impl<T: fmt::Debug> Error for SendError<T> {}

/// Error returned by [`DetachableReceiver::recv`](crate::DetachableReceiver::recv).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecvError {
    /// The attached sender closed the stream and every buffered item has
    /// already been consumed: clean end of stream.
    Eof,
    /// The receiver itself has been closed.
    Closed,
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Eof => write!(f, "end of stream"),
            RecvError::Closed => write!(f, "receive on a closed detachable receiver"),
        }
    }
}

impl Error for RecvError {}

/// Error returned by
/// [`DetachableReceiver::try_recv`](crate::DetachableReceiver::try_recv) and
/// [`DetachableReceiver::recv_timeout`](crate::DetachableReceiver::recv_timeout).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TryRecvError {
    /// The buffer is currently empty but the stream has not ended; trying
    /// again later may succeed.
    Empty,
    /// Clean end of stream (see [`RecvError::Eof`]).
    Eof,
    /// The receiver has been closed (see [`RecvError::Closed`]).
    Closed,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => write!(f, "detachable receiver buffer is empty"),
            TryRecvError::Eof => write!(f, "end of stream"),
            TryRecvError::Closed => write!(f, "receive on a closed detachable receiver"),
        }
    }
}

impl Error for TryRecvError {}

impl From<RecvError> for TryRecvError {
    fn from(err: RecvError) -> Self {
        match err {
            RecvError::Eof => TryRecvError::Eof,
            RecvError::Closed => TryRecvError::Closed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_error_returns_item() {
        let err = SendError::Closed(42u32);
        assert_eq!(err.clone().into_inner(), 42);
        let err = SendError::ReceiverClosed("abc");
        assert_eq!(err.into_inner(), "abc");
    }

    #[test]
    fn display_messages_are_lowercase_without_period() {
        let messages = [
            SendError::Closed(()).to_string(),
            SendError::ReceiverClosed(()).to_string(),
            RecvError::Eof.to_string(),
            RecvError::Closed.to_string(),
            TryRecvError::Empty.to_string(),
            TryRecvError::Eof.to_string(),
            TryRecvError::Closed.to_string(),
        ];
        for msg in messages {
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'), "{msg}");
            assert!(msg.chars().next().unwrap().is_lowercase(), "{msg}");
        }
    }

    #[test]
    fn try_recv_error_from_recv_error() {
        assert_eq!(TryRecvError::from(RecvError::Eof), TryRecvError::Eof);
        assert_eq!(TryRecvError::from(RecvError::Closed), TryRecvError::Closed);
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SendError<u32>>();
        assert_send_sync::<RecvError>();
        assert_send_sync::<TryRecvError>();
    }
}
