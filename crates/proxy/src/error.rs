//! Error type for proxy operations.

use std::error::Error;
use std::fmt;

use rapidware_filters::FilterError;

/// Errors reported by the proxy runtime and its control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProxyError {
    /// A filter or chain operation failed.
    Filter(FilterError),
    /// A splice operation on the underlying detachable pipes failed.
    Splice(String),
    /// The requested position is out of range for the chain.
    PositionOutOfRange {
        /// Requested position.
        position: usize,
        /// Current number of filters.
        len: usize,
    },
    /// The named stream does not exist on this proxy.
    UnknownStream(String),
    /// The named fanout session does not exist on this proxy.
    UnknownSession(String),
    /// The named receiver lane does not exist on this session.
    UnknownLane(String),
    /// The named shared-socket carrier does not exist on this proxy.
    UnknownCarrier(String),
    /// The filter kind named in a [`FilterSpec`](crate::FilterSpec) is not
    /// registered.
    UnknownFilterKind(String),
    /// A filter specification was missing or carried an invalid parameter.
    InvalidSpec {
        /// The parameter at fault.
        parameter: String,
        /// What was wrong with it.
        reason: String,
    },
    /// A control command could not be parsed.
    MalformedCommand(String),
    /// A stream, session or carrier was requested on a proxy whose worker
    /// pool is gone — i.e. after [`Proxy::shutdown`](crate::Proxy::shutdown).
    RuntimeDisabled,
    /// A UDP transport endpoint could not be created (socket bind or
    /// configuration failure; the text carries the OS error).
    Transport(String),
    /// The chain has already been shut down.
    ChainClosed,
    /// A worker thread disappeared unexpectedly (panicked).
    WorkerFailed(String),
}

impl fmt::Display for ProxyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProxyError::Filter(err) => write!(f, "filter error: {err}"),
            ProxyError::Splice(what) => write!(f, "splice failed: {what}"),
            ProxyError::PositionOutOfRange { position, len } => {
                write!(f, "position {position} out of range for chain of length {len}")
            }
            ProxyError::UnknownStream(name) => write!(f, "unknown stream {name}"),
            ProxyError::UnknownSession(name) => write!(f, "unknown session {name}"),
            ProxyError::UnknownLane(name) => write!(f, "unknown receiver lane {name}"),
            ProxyError::UnknownCarrier(name) => write!(f, "unknown carrier {name}"),
            ProxyError::UnknownFilterKind(kind) => write!(f, "unknown filter kind {kind}"),
            ProxyError::InvalidSpec { parameter, reason } => {
                write!(f, "invalid filter spec parameter {parameter}: {reason}")
            }
            ProxyError::MalformedCommand(text) => write!(f, "malformed control command: {text}"),
            ProxyError::RuntimeDisabled => {
                write!(f, "proxy is shut down (its worker pool is stopped)")
            }
            ProxyError::Transport(what) => write!(f, "transport endpoint failed: {what}"),
            ProxyError::ChainClosed => write!(f, "chain has been shut down"),
            ProxyError::WorkerFailed(name) => write!(f, "filter worker {name} failed"),
        }
    }
}

impl Error for ProxyError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProxyError::Filter(err) => Some(err),
            _ => None,
        }
    }
}

impl From<FilterError> for ProxyError {
    fn from(err: FilterError) -> Self {
        ProxyError::Filter(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(ProxyError::UnknownStream("audio".into())
            .to_string()
            .contains("audio"));
        assert!(ProxyError::PositionOutOfRange { position: 3, len: 1 }
            .to_string()
            .contains('3'));
        assert!(ProxyError::ChainClosed.to_string().contains("shut down"));
    }

    #[test]
    fn filter_error_converts_and_sources() {
        let err: ProxyError = FilterError::Internal("x".into()).into();
        assert!(err.source().is_some());
        assert!(ProxyError::ChainClosed.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ProxyError>();
    }
}
