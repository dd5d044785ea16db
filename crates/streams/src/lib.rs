//! # rapidware-streams — detachable streams
//!
//! This crate is the Rust analogue of the *detachable Java I/O streams*
//! (`DetachableOutputStream` / `DetachableInputStream`) introduced by
//! McKinley & Padmanabhan in *"Design of Composable Proxy Filters for
//! Heterogeneous Mobile Computing"* (ICDCS-21 workshop, 2001).
//!
//! A detachable pipe is a bounded, in-process, producer/consumer channel
//! with the paper's DOS/DIS shape: the buffer lives at the receiver, a
//! closed sender is a clean end of stream, and back-pressure blocks a
//! writer (or, for a cooperative task, hands its items back and fires a
//! watcher when room opens up).  The paper also pauses and reconnects these
//! streams to splice a filter into a live chain; in this workspace the
//! splice happens one layer up instead — `rapidware-proxy` inserts or
//! removes a filter between two batches under the session's lock — so a
//! pipe here keeps its one peer for life and carries no pause state.
//!
//! ## Model
//!
//! * [`DetachableSender<T>`] is the analogue of `DetachableOutputStream`
//!   (DOS): the writing half.  It holds a reference to its receiver (the
//!   paper's `DOS.sink`).
//! * [`DetachableReceiver<T>`] is the analogue of `DetachableInputStream`
//!   (DIS): the reading half.  The buffer lives on the receiver side, exactly
//!   as in the paper, where data written to the DOS is buffered at the DIS.
//! * [`pipe`] creates a connected pair, like the paper's `connect()`.
//! * Blocking calls (`send`, `send_batch`, `recv`, `recv_up_to`,
//!   `recv_timeout`) park the calling thread; the non-blocking ones
//!   (`try_send_batch`, `try_recv`, `try_recv_up_to`) plus a
//!   [`PipeWatcher`] serve a task on a worker pool.
//!
//! ## Integrity invariant
//!
//! Every item that a send reports as delivered is received **exactly once**
//! and **in order**, unless the receiver is closed first (which drops what
//! it buffered), and it is counted in both halves' [`PipeStats`] before any
//! reader can receive it.
//!
//! ## Example
//!
//! ```
//! use rapidware_streams::{pipe, RecvError};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A proxy forwards packets from an upstream filter to a downstream one.
//! let (tx, rx) = pipe::<u32>(2);
//! tx.send(1)?;
//!
//! // A cooperative writer never blocks: what does not fit comes back.
//! let leftover = tx.try_send_batch(vec![2, 3, 4])?;
//! assert_eq!(leftover, vec![3, 4]);
//! assert_eq!(rx.recv_up_to(8)?, vec![1, 2]);
//!
//! // Closing the sender ends the stream once the buffer drains.
//! tx.send_batch(leftover)?;
//! tx.close();
//! assert_eq!(rx.recv_up_to(8)?, vec![3, 4]);
//! assert_eq!(rx.recv(), Err(RecvError::Eof));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod pipe;
mod stats;

pub use error::{RecvError, SendError, TryRecvError};
pub use pipe::{pipe, DetachableReceiver, DetachableSender, IntoIter, PipeWatcher, DEFAULT_CAPACITY};
pub use stats::PipeStats;
