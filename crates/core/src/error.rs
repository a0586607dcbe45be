//! Structured errors of the speculative engine and driver.
//!
//! The containment contract: a fault inside a speculative stage is
//! **never** allowed to abort the process. A panic in a speculative
//! block is first treated as a speculation fault of that block —
//! contained, rolled back, and re-executed exactly like a detected
//! dependence arc. Only when the fault survives re-execution from a
//! fully committed prefix (i.e. the iteration panics while running on
//! state identical to sequential execution) is it a *genuine* program
//! fault, and it surfaces as an [`RlrpdError`] from the fallible run
//! surface ([`crate::Runner::try_run`]) rather than an unwind.

/// A structured failure of a speculative run.
///
/// Everything recoverable (contained panics, watchdog trips, restart
/// budgets, checkpoint faults) is handled *inside* the driver by
/// rollback and sequential fallback and never reaches the caller; an
/// `RlrpdError` means the run could not produce a result at all.
#[derive(Clone, Debug, PartialEq)]
pub enum RlrpdError {
    /// An iteration panicked while executing on state identical to
    /// sequential execution (it re-fired after rollback to a committed
    /// prefix, or fired during the sequential fallback itself): the
    /// program, not the speculation, is faulty.
    ProgramFault {
        /// First iteration that must have been executing when the
        /// fault fired.
        iter: usize,
        /// The rendered panic message.
        message: String,
    },
    /// The checkpoint machinery failed at the start of a stage (e.g.
    /// an injected checkpoint-restore error). The driver normally
    /// contains this by falling back to sequential execution; it is
    /// returned only when that fallback is impossible.
    CheckpointFault {
        /// Engine-lifetime stage ordinal whose checkpoint failed.
        stage: usize,
        /// Description of the failure.
        message: String,
    },
    /// An internal stage invariant did not hold (a bug surface, not a
    /// user-program surface) — reported instead of panicking so a
    /// single bad stage cannot abort a long run.
    StageInvariant {
        /// Description of the violated invariant.
        message: String,
    },
    /// The run exceeded its configured hard stage cap
    /// ([`crate::RunConfig::max_stages`]) without completing.
    StageLimit {
        /// The configured cap.
        max_stages: usize,
    },
    /// The crash journal failed — an append could not be made durable
    /// (the run aborts exactly as a crash would, resumable from the
    /// last durable record), or a resume was attempted against a
    /// mismatched or unrecoverable journal.
    Journal {
        /// The rendered [`crate::JournalError`].
        message: String,
    },
}

impl RlrpdError {
    /// The process exit code this failure maps to — the one contract
    /// `rlrpd run` exits with and the daemon stamps on a failed job:
    /// 2 genuine program fault, 3 stage cap exceeded, 4 crash-journal
    /// failure, 1 anything else.
    pub fn exit_code(&self) -> u8 {
        match self {
            RlrpdError::ProgramFault { .. } => 2,
            RlrpdError::StageLimit { .. } => 3,
            RlrpdError::Journal { .. } => 4,
            RlrpdError::CheckpointFault { .. } | RlrpdError::StageInvariant { .. } => 1,
        }
    }
}

impl From<crate::journal::JournalError> for RlrpdError {
    fn from(e: crate::journal::JournalError) -> Self {
        RlrpdError::Journal {
            message: e.to_string(),
        }
    }
}

impl std::fmt::Display for RlrpdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RlrpdError::ProgramFault { iter, message } => {
                write!(f, "program fault at iteration {iter}: {message}")
            }
            RlrpdError::CheckpointFault { stage, message } => {
                write!(f, "checkpoint fault at stage {stage}: {message}")
            }
            RlrpdError::StageInvariant { message } => {
                write!(f, "stage invariant violated: {message}")
            }
            RlrpdError::StageLimit { max_stages } => {
                write!(f, "run exceeded max_stages = {max_stages}")
            }
            RlrpdError::Journal { message } => {
                write!(f, "journal failure: {message}")
            }
        }
    }
}

impl std::error::Error for RlrpdError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_context() {
        let e = RlrpdError::ProgramFault {
            iter: 17,
            message: "divide by zero".into(),
        };
        assert_eq!(
            e.to_string(),
            "program fault at iteration 17: divide by zero"
        );
        assert!(RlrpdError::StageLimit { max_stages: 9 }
            .to_string()
            .contains("9"));
        let checkpoint = RlrpdError::CheckpointFault {
            stage: 3,
            message: "injected".into(),
        };
        assert!(checkpoint.to_string().contains("stage 3"));
        assert_eq!((e.exit_code(), checkpoint.exit_code()), (2, 1));
        assert_eq!(RlrpdError::StageLimit { max_stages: 9 }.exit_code(), 3);
        let journal = RlrpdError::from(crate::JournalError::NotEmpty);
        assert_eq!(journal.exit_code(), 4);
    }
}
