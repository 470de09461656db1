//! Error type for the parallel runtime.

use std::fmt;

/// Errors raised by the phase runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtError {
    /// A team or binding was requested with zero threads.
    ZeroThreads,
    /// A binding referenced more threads than the team supports.
    TooManyThreads {
        /// Requested number of threads.
        requested: usize,
        /// Maximum supported by the team.
        maximum: usize,
    },
    /// A binding referenced a core outside the machine shape.
    InvalidCore {
        /// The offending core.
        core: usize,
        /// Cores available.
        num_cores: usize,
    },
    /// A binding bound two threads to the same core.
    DuplicateCore {
        /// The duplicated core.
        core: usize,
    },
    /// A loop schedule was configured with an invalid chunk size.
    InvalidChunk {
        /// The rejected chunk size.
        chunk: usize,
    },
    /// A DVFS step referenced a rung the machine's frequency ladder does not
    /// have.
    InvalidFreqStep {
        /// The offending step index.
        step: usize,
        /// Number of steps in the ladder.
        ladder_len: usize,
    },
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::ZeroThreads => write!(f, "at least one thread is required"),
            RtError::TooManyThreads { requested, maximum } => {
                write!(f, "requested {requested} threads but the team supports at most {maximum}")
            }
            RtError::InvalidCore { core, num_cores } => {
                write!(f, "core {core} out of range ({num_cores} cores available)")
            }
            RtError::DuplicateCore { core } => {
                write!(f, "core {core} bound more than once")
            }
            RtError::InvalidChunk { chunk } => write!(f, "invalid chunk size {chunk}"),
            RtError::InvalidFreqStep { step, ladder_len } => {
                write!(f, "DVFS step {step} out of range (ladder has {ladder_len} steps)")
            }
        }
    }
}

impl std::error::Error for RtError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(RtError::ZeroThreads.to_string().contains("one thread"));
        assert!(RtError::TooManyThreads { requested: 8, maximum: 4 }.to_string().contains("8"));
        assert!(RtError::InvalidCore { core: 5, num_cores: 4 }.to_string().contains("core 5"));
        assert!(RtError::DuplicateCore { core: 1 }.to_string().contains("core 1"));
        assert!(RtError::InvalidChunk { chunk: 0 }.to_string().contains("0"));
        let e = RtError::InvalidFreqStep { step: 4, ladder_len: 4 };
        assert!(e.to_string().contains("step 4") && e.to_string().contains("4 steps"));
    }
}
