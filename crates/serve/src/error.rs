//! Typed serving errors.
//!
//! Every request submitted to a [`crate::Server`] is answered exactly once:
//! either with an output tensor or with one of these errors. Admission-time
//! failures (`QueueFull`, `UnknownBucket`, an input that does not match the
//! bucket's shape, a deadline already in the past) surface synchronously
//! from [`crate::Server::submit`]; everything later arrives through the
//! request's [`crate::Ticket`]. A server that cannot be built (no buckets,
//! a repeated label, a shape with no output, a filter bank that does not
//! match its shape) fails from [`crate::ServerBuilder::build`] with one of
//! these too.

use iwino_core::ConvError;
use std::fmt;

/// Why a request was not served.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// Admission control: the bucket's bounded queue is at capacity. The
    /// caller should back off; nothing was enqueued.
    QueueFull { bucket: String, capacity: usize },
    /// The request's deadline passed — at enqueue time (synchronous) or
    /// while the request waited in its bucket queue (via the ticket).
    DeadlineExpired { bucket: String },
    /// The server is shutting down (or already shut down) and accepts no
    /// new work. Requests admitted before shutdown are still drained.
    ShuttingDown,
    /// No bucket is registered under this label.
    UnknownBucket { label: String },
    /// The server was built with no bucket at all.
    NoBuckets,
    /// Two buckets were registered under the same label.
    DuplicateBucket { label: String },
    /// Planning or executing the convolution failed. Also raised
    /// synchronously at submit when the input tensor's dimensions disagree
    /// with the bucket's registered shape, and at build for a shape no
    /// convolution can run.
    Conv(ConvError),
    /// Executing the request's batch panicked. The server contained the
    /// panic and keeps serving; the batch's other requests were answered
    /// as far as they got, or with this error too.
    BatchFailed { bucket: String },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { bucket, capacity } => {
                write!(
                    f,
                    "bucket {bucket:?} queue is full (capacity {capacity}); request rejected"
                )
            }
            ServeError::DeadlineExpired { bucket } => {
                write!(f, "request deadline expired before bucket {bucket:?} could serve it")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down; no new requests accepted"),
            ServeError::UnknownBucket { label } => write!(f, "no serving bucket registered under label {label:?}"),
            ServeError::NoBuckets => write!(f, "a server needs at least one bucket"),
            ServeError::DuplicateBucket { label } => write!(f, "bucket label {label:?} is registered twice"),
            ServeError::Conv(e) => write!(f, "convolution failed: {e}"),
            ServeError::BatchFailed { bucket } => write!(f, "a batch of bucket {bucket:?} panicked while executing"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ConvError> for ServeError {
    fn from(e: ConvError) -> Self {
        ServeError::Conv(e)
    }
}
