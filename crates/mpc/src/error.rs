//! Typed protocol errors.
//!
//! Protocol hot paths ([`crate::fedsac`], [`crate::compare`],
//! [`crate::binary`], [`crate::scheduler`]) never `unwrap`/`expect`/`panic!`
//! on malformed inputs — they return a [`ProtocolError`] so callers
//! decide what a failed comparison means for the query. The
//! `fedroad-lint` rule `no-panic-hot-path` enforces this mechanically.

use std::fmt;

/// Why a protocol execution could not produce a result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// A batched operation was invoked with zero comparisons.
    EmptyBatch,
    /// An input vector's length does not match the federation size.
    WrongSiloCount {
        /// Parties in the federation.
        expected: usize,
        /// Length of the offending input vector.
        got: usize,
    },
    /// A partial cost is at or above the 2⁵⁴ exactness bound, so the
    /// summed two's-complement difference could wrap and the revealed
    /// comparison bit would be wrong.
    CostOutOfRange {
        /// The offending partial cost.
        value: u64,
    },
    /// A protocol execution completed without producing the expected
    /// output (an internal invariant violation surfaced as an error).
    MissingOutput,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::EmptyBatch => write!(f, "empty comparison batch"),
            ProtocolError::WrongSiloCount { expected, got } => {
                write!(
                    f,
                    "expected one partial cost per silo ({expected}), got {got}"
                )
            }
            ProtocolError::CostOutOfRange { value } => {
                write!(
                    f,
                    "partial cost {value} is outside the exact range [0, 2^54)"
                )
            }
            ProtocolError::MissingOutput => {
                write!(f, "protocol execution produced no output")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let cases: Vec<(ProtocolError, &str)> = vec![
            (ProtocolError::EmptyBatch, "empty"),
            (
                ProtocolError::WrongSiloCount {
                    expected: 3,
                    got: 2,
                },
                "expected one partial cost per silo (3), got 2",
            ),
            (ProtocolError::CostOutOfRange { value: 1 << 60 }, "2^54"),
            (ProtocolError::MissingOutput, "no output"),
        ];
        for (e, needle) in cases {
            assert!(
                e.to_string().contains(needle),
                "{e} should mention {needle:?}"
            );
        }
    }
}
