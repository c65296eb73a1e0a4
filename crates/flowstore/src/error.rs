//! Error type for the flow store. Everything fallible returns
//! [`Result`]; the crate contains no `unwrap`/`expect` outside tests.

use std::fmt;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Failure while writing, reading, or verifying parts.
#[derive(Debug)]
pub enum Error {
    /// Underlying filesystem failure, tagged with the path involved.
    Io {
        /// Path the operation was touching.
        path: std::path::PathBuf,
        /// The originating I/O error.
        source: std::io::Error,
    },
    /// Structural corruption: bad magic, truncated footer, codec overrun,
    /// or a content digest that does not match the footer.
    Corrupt(String),
    /// A replay that decoded cleanly but is not the stream that was
    /// spilled: its digest differs from the live stream's.
    Diverged {
        /// Digest of the live stream, in task order.
        live: u64,
        /// Digest of the replay, in canonical part order.
        replayed: u64,
        /// Rows the replay delivered.
        rows: u64,
    },
}

impl Error {
    pub(crate) fn corrupt(msg: impl Into<String>) -> Self {
        Error::Corrupt(msg.into())
    }

    pub(crate) fn io(path: impl Into<std::path::PathBuf>, source: std::io::Error) -> Self {
        Error::Io {
            path: path.into(),
            source,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io { path, source } => write!(f, "io error at {}: {source}", path.display()),
            Error::Corrupt(msg) => write!(f, "corrupt part: {msg}"),
            Error::Diverged {
                live,
                replayed,
                rows,
            } => write!(
                f,
                "spill replay diverged: live {live:#018x} vs replay {replayed:#018x} ({rows} rows)"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source),
            Error::Corrupt(_) | Error::Diverged { .. } => None,
        }
    }
}
