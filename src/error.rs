//! One public error type for the whole pipeline.
//!
//! Every layer of the reproduction has its own error vocabulary — the
//! MiniMPI front end ([`LangError`]), the interpreter ([`RuntimeError`]),
//! the codec ([`DecodeError`]), the on-disk container
//! ([`ContainerError`]) — and the CLI used to flatten all of them into
//! strings (or worse, panic). [`Error`] is the single top-level sum that
//! `cypress::Pipeline`, the container loaders, and the `cypress` binary all
//! return, with `From` conversions from each layer so `?` composes across
//! the whole stack.

use cypress_minilang::LangError;
use cypress_runtime::RuntimeError;
use cypress_trace::{ContainerError, DecodeError};
use std::fmt;

/// Any failure the CYPRESS pipeline can report.
#[derive(Debug)]
pub enum Error {
    /// MiniMPI lex/parse/resolve failure.
    Lang(LangError),
    /// Interpreter failure (arithmetic fault, step budget, deadlock).
    Runtime(RuntimeError),
    /// Malformed codec bytes.
    Decode(DecodeError),
    /// Container file problems (magic, version, CRC, missing sections).
    Container(ContainerError),
    /// Filesystem I/O.
    Io(std::io::Error),
    /// Networked collection failure (wire protocol, transport, collector).
    Net(cypress_net::NetError),
    /// Invalid request (bad rank, empty job, malformed CST text, …).
    Invalid(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Lang(e) => write!(f, "{e}"),
            Error::Runtime(e) => write!(f, "{e}"),
            Error::Decode(e) => write!(f, "{e}"),
            Error::Container(e) => write!(f, "{e}"),
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Net(e) => write!(f, "{e}"),
            Error::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Lang(e) => Some(e),
            Error::Runtime(e) => Some(e),
            Error::Decode(e) => Some(e),
            Error::Container(e) => Some(e),
            Error::Io(e) => Some(e),
            Error::Net(e) => Some(e),
            Error::Invalid(_) => None,
        }
    }
}

impl From<LangError> for Error {
    fn from(e: LangError) -> Self {
        Error::Lang(e)
    }
}

impl From<RuntimeError> for Error {
    fn from(e: RuntimeError) -> Self {
        Error::Runtime(e)
    }
}

impl From<DecodeError> for Error {
    fn from(e: DecodeError) -> Self {
        Error::Decode(e)
    }
}

impl From<ContainerError> for Error {
    fn from(e: ContainerError) -> Self {
        Error::Container(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<cypress_net::NetError> for Error {
    fn from(e: cypress_net::NetError) -> Self {
        Error::Net(e)
    }
}

/// `Cst::from_text` and a few other seams report plain strings.
impl From<String> for Error {
    fn from(msg: String) -> Self {
        Error::Invalid(msg)
    }
}

/// Compressed-domain query failures map onto the layer they came from.
impl From<cypress_query::QueryError> for Error {
    fn from(e: cypress_query::QueryError) -> Self {
        match e {
            cypress_query::QueryError::Container(c) => Error::Container(c),
            cypress_query::QueryError::Decode(d) => Error::Decode(d),
            cypress_query::QueryError::BadCst(msg) | cypress_query::QueryError::Invalid(msg) => {
                Error::Invalid(msg)
            }
        }
    }
}

/// Trace-store failures map onto the layer they came from; store-specific
/// conditions (missing job, daemon rejection) become `Invalid` with the
/// store's own message.
impl From<cypress_store::StoreError> for Error {
    fn from(e: cypress_store::StoreError) -> Self {
        use cypress_store::StoreError as S;
        match e {
            S::Io(e) => Error::Io(e),
            S::Container(c) => Error::Container(c),
            S::Decode(d) => Error::Decode(d),
            S::Query(q) => q.into(),
            S::Net(n) => Error::Net(n),
            e @ (S::NotFound(_) | S::Remote { .. } | S::Invalid(_)) => {
                Error::Invalid(e.to_string())
            }
        }
    }
}

/// Convenience alias used across the umbrella crate and the CLI.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_passes_layer_messages_through() {
        let e = Error::from(RuntimeError("step budget exhausted".into()));
        assert!(e.to_string().contains("step budget exhausted"));
        let e = Error::from("rank 9 out of range".to_owned());
        assert_eq!(e.to_string(), "rank 9 out of range");
    }

    #[test]
    fn question_mark_composes_across_layers() {
        fn parse_and_fail() -> Result<()> {
            cypress_minilang::parse("fn main( {")?;
            Ok(())
        }
        assert!(matches!(parse_and_fail(), Err(Error::Lang(_))));

        fn decode_and_fail() -> Result<()> {
            cypress_core::CttSlab::from_bytes(&[0xff])?;
            Ok(())
        }
        assert!(matches!(decode_and_fail(), Err(Error::Decode(_))));

        fn container_and_fail() -> Result<()> {
            cypress_trace::SectionTable::parse(b"nope")?;
            Ok(())
        }
        assert!(matches!(container_and_fail(), Err(Error::Container(_))));
    }
}
