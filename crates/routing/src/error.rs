//! The routing crate's error type: invalid inputs surface as values
//! instead of slice-index panics, so a serving process can reject a bad
//! request (an out-of-range vertex id, a corrupt table file) without
//! dying. Mirrors `psep_oracle::Error`.

use psep_core::wire::WireError;
use psep_graph::graph::NodeId;

/// Everything that can go wrong building, routing over, or
/// (de)serializing routing tables.
#[derive(Debug)]
pub enum Error {
    /// A vertex id at or beyond the number of tables.
    NodeOutOfRange {
        /// The offending vertex.
        node: NodeId,
        /// Number of vertices the tables cover.
        num_nodes: usize,
    },
    /// A wire-format decode failure (bad magic, checksum mismatch,
    /// truncation, or a structurally invalid payload).
    Wire(WireError),
}

impl Error {
    /// Shorthand for a structurally-invalid-payload error.
    pub(crate) fn corrupt(what: &'static str) -> Self {
        Error::Wire(WireError::Corrupt(what))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::NodeOutOfRange { node, num_nodes } => {
                write!(
                    f,
                    "vertex {node:?} out of range (tables cover {num_nodes} vertices)"
                )
            }
            Error::Wire(e) => write!(f, "wire format: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for Error {
    fn from(e: WireError) -> Self {
        Error::Wire(e)
    }
}
