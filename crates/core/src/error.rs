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

/// Why a run was refused before it started: one variant, and one
/// `Display` line, per combination [`crate::RunPlan::validate`] rejects.
/// The lines name the `rlrpd run` flags that spell the combination, so
/// the CLI, the daemon's admission and a library caller all report the
/// same sentence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// [`crate::RunConfig::p`] is 0.
    NoProcessors,
    /// [`crate::RunPlan::resume`] without a [`crate::RunPlan::journal`].
    ResumeWithoutJournal,
    /// [`crate::Strategy::Doacross`] with a [`crate::RunPlan::fleet`].
    DoacrossOverFleet,
    /// [`crate::Strategy::Doacross`] with a fault plan that arms
    /// iteration or stage sites ([`crate::FaultPlan::arms`]).
    DoacrossWithFaults,
    /// A [`crate::RunPlan::fleet`] with a fault plan that arms iteration
    /// sites: workers run their blocks with no plan.
    FleetWithIterationFaults,
    /// A fault plan that arms journal-record sites without a
    /// [`crate::RunPlan::journal`] to visit them.
    RecordFaultsWithoutJournal,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PlanError::NoProcessors => "a run needs at least one processor (--procs 0)",
            PlanError::ResumeWithoutJournal => {
                "--resume requires --journal <path>: the journal holds the run to continue"
            }
            PlanError::DoacrossOverFleet => {
                "the DOACROSS tier (--doacross) cannot combine with a worker fleet \
                 (--dist-workers): post/wait cells synchronize threads in one address space"
            }
            PlanError::DoacrossWithFaults => {
                "the DOACROSS tier (--doacross) cannot combine with fault injection at an \
                 iteration or a stage (--fault-seed, --shadow-fault): the plan arms sites the \
                 pipeline never visits"
            }
            PlanError::FleetWithIterationFaults => {
                "a worker fleet (--dist-workers) cannot combine with fault injection at an \
                 iteration (--fault-seed): workers run their blocks with no fault plan, so the \
                 plan arms sites the run never visits"
            }
            PlanError::RecordFaultsWithoutJournal => {
                "fault injection at a journal record requires a journal (--journal <path>): \
                 the plan arms sites an unjournaled run never visits"
            }
        })
    }
}

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
    /// The run was never started: its configuration, attachments and
    /// fault plan do not combine ([`crate::RunPlan::validate`]).
    Plan(PlanError),
}

impl RlrpdError {
    /// The process exit code this failure maps to — the one contract
    /// `rlrpd run` exits with and the daemon stamps on a failed job:
    /// 2 genuine program fault, 3 stage cap exceeded, 4 crash-journal
    /// failure, 64 a plan refused before it ran (a usage error), 1
    /// anything else.
    pub fn exit_code(&self) -> u8 {
        match self {
            RlrpdError::ProgramFault { .. } => 2,
            RlrpdError::StageLimit { .. } => 3,
            RlrpdError::Journal { .. } => 4,
            RlrpdError::Plan(_) => 64,
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

impl From<PlanError> for RlrpdError {
    fn from(e: PlanError) -> Self {
        RlrpdError::Plan(e)
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
            RlrpdError::Plan(e) => e.fmt(f),
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
        let plan = RlrpdError::from(PlanError::NoProcessors);
        assert_eq!(plan.exit_code(), 64);
        assert_eq!(plan.to_string(), PlanError::NoProcessors.to_string());
    }
}
