//! Error type shared across the workspace.

use std::fmt;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Why a job's cancellation token was tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CancelReason {
    /// An explicit external cancellation (operator, API caller).
    User,
    /// The job's wall-clock deadline elapsed before it finished.
    DeadlineExceeded,
    /// The job exceeded the hard ceiling of its memory budget.
    MemoryExceeded,
}

impl fmt::Display for CancelReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CancelReason::User => write!(f, "cancelled by user"),
            CancelReason::DeadlineExceeded => write!(f, "deadline exceeded"),
            CancelReason::MemoryExceeded => write!(f, "memory budget exceeded"),
        }
    }
}

/// The error type for BigDansing operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A rule string (FD / CFD / DC) could not be parsed.
    RuleParse(String),
    /// A job referenced a label or operator that does not exist, or the
    /// logical plan failed validation (§3.2 of the paper).
    InvalidPlan(String),
    /// A schema lookup failed (unknown attribute, arity mismatch, ...).
    Schema(String),
    /// Input data could not be parsed (CSV / RDF).
    Parse(String),
    /// An I/O failure, stringified so the error stays `Clone + Eq`.
    Io(String),
    /// Durable bytes failed validation: a frame with a bad magic, an
    /// unsupported format version, or a CRC mismatch. Distinct from
    /// [`Error::Parse`] so recovery code can tell "the file is damaged"
    /// (truncate / fall back to an older snapshot) from "the payload
    /// grammar is wrong" (a bug).
    Corrupt(String),
    /// A repair algorithm was asked to do something it does not support.
    Repair(String),
    /// A dataflow task exhausted its retry budget. Identifies the
    /// failing partition and how many attempts were made, with the last
    /// failure cause stringified (panic payload or inner error).
    Task {
        /// Index of the partition whose task kept failing.
        partition: usize,
        /// Number of attempts made (the fault policy's bound).
        attempts: u32,
        /// The last attempt's failure, rendered as text.
        cause: String,
    },
    /// A job was cancelled cooperatively between partition tasks —
    /// explicitly, by its deadline passing, or by the memory-budget hard
    /// ceiling. The job's spill files are cleaned up before this
    /// surfaces.
    Cancelled {
        /// Name of the cancelled job.
        job: String,
        /// Why the job's token was tripped.
        reason: CancelReason,
    },
    /// A job was refused admission because the concurrent-job gate was
    /// full and its queue (if any) had no room.
    Rejected {
        /// Name of the rejected job.
        job: String,
        /// The gate's concurrent-job limit at rejection time.
        limit: usize,
    },
    /// A rule-scoped fault raised by the isolation layer: a detect /
    /// genfix pass that exceeded its soft time budget or hit an outlier
    /// block in strict mode. Carries the rule name so callers can
    /// attribute the failure to one rule instead of the whole job.
    Rule {
        /// Name of the faulty rule.
        rule: String,
        /// What went wrong, rendered as text.
        cause: String,
    },
}

impl Error {
    /// Whether a retry may succeed: true for I/O failures only. Every
    /// other error reproduces on the same input (a `Task` error already
    /// spent its retries), so the task runner does not retry it.
    pub fn is_transient(&self) -> bool {
        matches!(self, Error::Io(_))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::RuleParse(m) => write!(f, "rule parse error: {m}"),
            Error::InvalidPlan(m) => write!(f, "invalid plan: {m}"),
            Error::Schema(m) => write!(f, "schema error: {m}"),
            Error::Parse(m) => write!(f, "parse error: {m}"),
            Error::Io(m) => write!(f, "io error: {m}"),
            Error::Corrupt(m) => write!(f, "corrupt data: {m}"),
            Error::Repair(m) => write!(f, "repair error: {m}"),
            Error::Task {
                partition,
                attempts,
                cause,
            } => write!(
                f,
                "task error: partition {partition} failed after {attempts} attempt(s): {cause}"
            ),
            Error::Cancelled { job, reason } => {
                write!(f, "job `{job}` cancelled: {reason}")
            }
            Error::Rejected { job, limit } => write!(
                f,
                "job `{job}` rejected: already running {limit} concurrent job(s)"
            ),
            Error::Rule { rule, cause } => write!(f, "rule `{rule}` fault: {cause}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_message() {
        let e = Error::RuleParse("bad arrow".into());
        assert_eq!(e.to_string(), "rule parse error: bad arrow");
        let e = Error::InvalidPlan("no detect".into());
        assert!(e.to_string().contains("no detect"));
    }

    #[test]
    fn task_error_displays_partition_and_attempts() {
        let e = Error::Task {
            partition: 7,
            attempts: 3,
            cause: "injected panic".into(),
        };
        let s = e.to_string();
        assert!(s.contains("partition 7"), "{s}");
        assert!(s.contains("3 attempt"), "{s}");
        assert!(s.contains("injected panic"), "{s}");
        // stays Clone + Eq like every other variant
        assert_eq!(e.clone(), e);
    }

    #[test]
    fn cancelled_error_displays_job_and_reason() {
        let e = Error::Cancelled {
            job: "detect-3".into(),
            reason: CancelReason::DeadlineExceeded,
        };
        let s = e.to_string();
        assert!(s.contains("detect-3"), "{s}");
        assert!(s.contains("deadline exceeded"), "{s}");
        assert_eq!(e.clone(), e);
        let m = Error::Cancelled {
            job: "j".into(),
            reason: CancelReason::MemoryExceeded,
        };
        assert!(m.to_string().contains("memory budget exceeded"));
    }

    #[test]
    fn rejected_error_displays_limit() {
        let e = Error::Rejected {
            job: "cleanse-0".into(),
            limit: 2,
        };
        let s = e.to_string();
        assert!(s.contains("cleanse-0"), "{s}");
        assert!(s.contains('2'), "{s}");
    }

    #[test]
    fn corrupt_error_displays_and_stays_eq() {
        let e = Error::Corrupt("wal frame 3: crc mismatch".into());
        let s = e.to_string();
        assert!(s.contains("corrupt data"), "{s}");
        assert!(s.contains("crc mismatch"), "{s}");
        assert_eq!(e.clone(), e);
    }

    #[test]
    fn rule_error_displays_rule_and_cause() {
        let e = Error::Rule {
            rule: "fd:zip->city".into(),
            cause: "soft time budget exceeded".into(),
        };
        let s = e.to_string();
        assert!(s.contains("fd:zip->city"), "{s}");
        assert!(s.contains("time budget"), "{s}");
        assert_eq!(e.clone(), e);
    }

    #[test]
    fn only_io_errors_are_transient() {
        assert!(Error::Io("flaky".into()).is_transient());
        assert!(!Error::Parse("bad row".into()).is_transient());
        assert!(!Error::Rule {
            rule: "r".into(),
            cause: "c".into()
        }
        .is_transient());
        assert!(!Error::Task {
            partition: 0,
            attempts: 3,
            cause: "boom".into()
        }
        .is_transient());
        assert!(!Error::Cancelled {
            job: "j".into(),
            reason: CancelReason::MemoryExceeded
        }
        .is_transient());
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: Error = io.into();
        assert!(matches!(e, Error::Io(ref m) if m.contains("gone")));
    }
}
