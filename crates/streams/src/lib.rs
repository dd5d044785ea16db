//! # rapidware-streams — detachable streams
//!
//! This crate is the Rust analogue of the *detachable Java I/O streams*
//! (`DetachableOutputStream` / `DetachableInputStream`) introduced by
//! McKinley & Padmanabhan in *"Design of Composable Proxy Filters for
//! Heterogeneous Mobile Computing"* (ICDCS-21 workshop, 2001).
//!
//! A detachable pipe is a bounded, in-process, producer/consumer channel that
//! — unlike an ordinary channel — can be **paused**, **disconnected**, and
//! **reconnected** to a *different* peer while data is flowing.  This is the
//! "glue" that lets a proxy insert, delete, and reorder filters on a live
//! data stream without disturbing the endpoints and without losing,
//! duplicating, or reordering any in-flight item.
//!
//! ## Model
//!
//! * [`DetachableSender<T>`] is the analogue of `DetachableOutputStream`
//!   (DOS): the writing half.  It holds a reference to the receiver it is
//!   currently attached to (the paper's `DOS.sink`).
//! * [`DetachableReceiver<T>`] is the analogue of `DetachableInputStream`
//!   (DIS): the reading half.  The buffer lives on the receiver side, exactly
//!   as in the paper, where data written to the DOS is buffered at the DIS.
//! * [`pipe`] creates a connected pair, like the paper's `connect()`.
//! * [`DetachableSender::pause`] implements the paper's `pause()` protocol:
//!   block new writes, wait until the receiver has drained its buffer, then
//!   mark both halves disconnected.
//! * [`DetachableSender::reconnect`] implements `reconnect()`: attach the
//!   sender to a (possibly different) receiver and resume any writers that
//!   were blocked while the pipe was paused.
//!
//! ## Integrity invariant
//!
//! For any interleaving of `send`, `recv`, `pause`, and `reconnect` calls,
//! every item that `send` reports as delivered is received **exactly once**
//! and **in order** by whichever receiver the sender was attached to at the
//! time of the send.  Pausing never drops buffered items: `pause` returns
//! only after the old receiver has drained everything that was sent to it.
//!
//! ## Example
//!
//! ```
//! use rapidware_streams::pipe;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A proxy forwards packets from an upstream filter to a downstream one.
//! let (tx, rx) = pipe::<u32>(8);
//! tx.send(1)?;
//! tx.send(2)?;
//! assert_eq!(rx.recv()?, 1);
//!
//! // Splice in a new stage: pause the sender (drains the old receiver),
//! // then reconnect it to a brand-new receiver.
//! let consumed: u32 = rx.recv()?; // drain so pause() does not block
//! assert_eq!(consumed, 2);
//! tx.pause()?;
//! let (_new_tx, new_rx) = rapidware_streams::detached_pair::<u32>(8);
//! tx.reconnect(&new_rx)?;
//! tx.send(3)?;
//! assert_eq!(new_rx.recv()?, 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod pipe;
mod stats;

pub use error::{PauseError, ReconnectError, RecvError, SendError, TryRecvError};
pub use pipe::{
    detached_pair, pipe, DetachableReceiver, DetachableSender, IntoIter, PipeWatcher,
    DEFAULT_CAPACITY,
};
pub use stats::PipeStats;
