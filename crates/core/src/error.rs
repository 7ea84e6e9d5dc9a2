//! The workspace-level error type.
//!
//! Experiment binaries and examples funnel every substrate failure —
//! training, checkpoint I/O, data loading, plain I/O — into one
//! [`Error`] so `main` can return `Result<(), edsr_core::Error>` and the
//! `?` operator works across crate boundaries.

use std::fmt;

use edsr_cl::TrainError;
use edsr_nn::CheckpointError;

/// Any failure an EDSR experiment can surface.
#[derive(Debug)]
pub enum Error {
    /// The training runtime failed (divergence, bad config, …).
    Train(TrainError),
    /// Checkpoint I/O failed outside a run (direct save/load calls).
    Checkpoint(CheckpointError),
    /// Data loading / parsing failed.
    Data(String),
    /// Plain I/O (result files, directories).
    Io(std::io::Error),
    /// A parallel worker panicked (payload text from
    /// `edsr_par::catch_panic`).
    Worker(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Train(e) => write!(f, "training: {e}"),
            Error::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            Error::Data(msg) => write!(f, "data: {msg}"),
            Error::Io(e) => write!(f, "io: {e}"),
            Error::Worker(msg) => write!(f, "parallel worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Train(e) => Some(e),
            Error::Checkpoint(e) => Some(e),
            Error::Io(e) => Some(e),
            Error::Data(_) | Error::Worker(_) => None,
        }
    }
}

impl From<TrainError> for Error {
    fn from(e: TrainError) -> Self {
        Error::Train(e)
    }
}

impl From<CheckpointError> for Error {
    fn from(e: CheckpointError) -> Self {
        Error::Checkpoint(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<edsr_data::CsvError> for Error {
    fn from(e: edsr_data::CsvError) -> Self {
        Error::Data(e.to_string())
    }
}

impl From<edsr_data::DataError> for Error {
    fn from(e: edsr_data::DataError) -> Self {
        Error::Data(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: Error = TrainError::InvalidConfig("x".into()).into();
        assert!(e.to_string().contains("training"));
        let e: Error = CheckpointError::BadMagic.into();
        assert!(e.to_string().contains("checkpoint"));
        let e: Error = std::io::Error::other("boom").into();
        assert!(e.to_string().contains("io"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
