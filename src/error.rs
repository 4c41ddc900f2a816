//! The service-level error type: one enum that every layer's failures
//! convert into, so errors cross the stack without stringly-typed
//! remapping.
//!
//! [`ServiceError`] is the root crate's single error vocabulary: wire
//! failures ([`WireError`]), oracle failures ([`psep_oracle::Error`]),
//! and routing failures ([`psep_routing::Error`]) each keep their typed
//! identity behind a `From` conversion, and `source()` chains down to
//! the layer that actually failed.

use psep_core::wire::WireError;

/// A failure while building, loading, or querying a
/// [`LocationService`](crate::LocationService).
#[derive(Debug)]
pub enum ServiceError {
    /// The bundle envelope, graph section, or an RPC payload is
    /// malformed.
    Wire(WireError),
    /// The embedded oracle artifact failed to decode, or an oracle
    /// request was invalid.
    Oracle(psep_oracle::Error),
    /// The embedded routing artifact failed to decode, or a routing
    /// request was invalid.
    Routing(psep_routing::Error),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Wire(e) => write!(f, "bundle: {e}"),
            ServiceError::Oracle(e) => write!(f, "oracle: {e}"),
            ServiceError::Routing(e) => write!(f, "routing: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Wire(e) => Some(e),
            ServiceError::Oracle(e) => Some(e),
            ServiceError::Routing(e) => Some(e),
        }
    }
}

impl From<WireError> for ServiceError {
    fn from(e: WireError) -> Self {
        ServiceError::Wire(e)
    }
}

impl From<psep_oracle::Error> for ServiceError {
    fn from(e: psep_oracle::Error) -> Self {
        ServiceError::Oracle(e)
    }
}

impl From<psep_routing::Error> for ServiceError {
    fn from(e: psep_routing::Error) -> Self {
        ServiceError::Routing(e)
    }
}
