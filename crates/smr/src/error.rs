//! Error types for the shared-memory runtime.

use std::error::Error;
use std::fmt;

/// Errors produced by the runtime model.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ModelError {
    /// An operation was applied to an object of the wrong type or with an
    /// out-of-range component index.
    BadOperation(String),
    /// A process that already produced its output was asked to step.
    ProcessTerminated(usize),
    /// A process id or object id was out of range.
    BadId(String),
    /// A single-writer restriction was violated (process tried to update
    /// a component it does not own).
    WriterViolation { process: usize, component: usize },
    /// An execution exceeded its step budget without reaching the
    /// expected condition (e.g. a "solo terminating" run did not
    /// terminate).
    BudgetExhausted { budget: usize, context: String },
    /// A replayed step was not the process's next step (Lemma 26
    /// validation failure).
    ReplayMismatch(String),
    /// A malformed scheduler or fault-plan specification string.
    BadSpec {
        /// The spec as given.
        spec: String,
        /// Why it did not parse.
        reason: String,
    },
    /// A worker thread panicked while executing a run or expanding a
    /// frontier chunk. The payload names the work item so it can be
    /// replayed (seed, fault plan, or schedule prefix).
    WorkerPanic {
        /// What the worker was doing (replay coordinates included).
        context: String,
        /// The panic message, if it was a string.
        message: String,
    },
    /// A replay bundle failed to reproduce its recorded violation: the
    /// re-executed counterexample produced a different outcome than the
    /// fingerprint the bundle promised.
    BundleMismatch {
        /// The violation fingerprint recorded in the bundle.
        expected: u64,
        /// What the re-execution actually produced.
        actual: String,
    },
    /// A single campaign cell exceeded its per-cell wall-clock timeout
    /// and was abandoned so one pathological schedule cannot starve the
    /// worker fleet.
    CellTimeout {
        /// The configured limit, in milliseconds.
        limit_ms: u128,
        /// The cell's replay coordinates.
        context: String,
    },
    /// The pre-flight analyzer rejected the system before any schedule
    /// ran: at least one deny-level lint fired.
    PreflightRejected {
        /// The rendered deny-level diagnostics, one per line.
        diagnostics: String,
    },
    /// A resume was attempted against a checkpoint written by a
    /// *different* campaign: the checkpoint's recorded spec does not
    /// match the requested one. Merging them would silently corrupt the
    /// aggregates, so the resume fails closed naming both specs.
    ResumeMismatch {
        /// The spec the checkpoint was written under.
        checkpoint: String,
        /// The spec the resuming campaign requested.
        requested: String,
    },
    /// A campaign-service failure: journal corruption beyond recovery,
    /// an unusable state directory, or a coordinator-level protocol
    /// error. Worker deaths are *not* errors — they are leases to retry.
    Service {
        /// What the service was doing.
        context: String,
        /// Why it failed.
        reason: String,
    },
    /// A campaign run's static audit found an adjacent pair of steps
    /// that the run's static interference matrix calls independent but
    /// the dynamic happens-before oracle calls dependent. The static
    /// pass may over-approximate dependence but never independence, so
    /// this is an analyzer bug and the run fails closed.
    StaticUnsound {
        /// The first process of the pair.
        p: usize,
        /// The second process of the pair.
        q: usize,
        /// The conflicting operations, rendered for the report.
        ops: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::BadOperation(msg) => write!(f, "bad operation: {msg}"),
            ModelError::ProcessTerminated(pid) => {
                write!(f, "process {pid} has already terminated")
            }
            ModelError::BadId(msg) => write!(f, "bad identifier: {msg}"),
            ModelError::WriterViolation { process, component } => write!(
                f,
                "process {process} is not the owner of single-writer component {component}"
            ),
            ModelError::BudgetExhausted { budget, context } => {
                write!(f, "step budget {budget} exhausted: {context}")
            }
            ModelError::ReplayMismatch(msg) => write!(f, "replay mismatch: {msg}"),
            ModelError::BadSpec { spec, reason } => {
                write!(f, "bad spec `{spec}`: {reason}")
            }
            ModelError::WorkerPanic { context, message } => {
                write!(f, "worker panic during {context}: {message}")
            }
            ModelError::BundleMismatch { expected, actual } => write!(
                f,
                "bundle mismatch: expected violation fingerprint {expected}, \
                 but replay produced {actual}"
            ),
            ModelError::CellTimeout { limit_ms, context } => {
                write!(f, "cell timeout after {limit_ms} ms: {context}")
            }
            ModelError::PreflightRejected { diagnostics } => {
                write!(f, "pre-flight analysis rejected the system:\n{diagnostics}")
            }
            ModelError::ResumeMismatch { checkpoint, requested } => write!(
                f,
                "resume mismatch: checkpoint was written by campaign \
                 `{checkpoint}` but the requested campaign is `{requested}` \
                 — refusing to merge incompatible aggregates"
            ),
            ModelError::Service { context, reason } => {
                write!(f, "campaign service failure during {context}: {reason}")
            }
            ModelError::StaticUnsound { p, q, ops } => write!(
                f,
                "static interference matrix unsound: p{p} and p{q} claimed \
                 independent but observed dependent at {ops}"
            ),
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        let errs = [
            ModelError::BadOperation("x".into()),
            ModelError::ProcessTerminated(3),
            ModelError::BadId("y".into()),
            ModelError::WriterViolation { process: 1, component: 2 },
            ModelError::BudgetExhausted { budget: 10, context: "solo".into() },
            ModelError::ReplayMismatch("z".into()),
            ModelError::BadSpec { spec: "quantum:".into(), reason: "bad quantum".into() },
            ModelError::WorkerPanic {
                context: "campaign run seed 3".into(),
                message: "boom".into(),
            },
            ModelError::BundleMismatch {
                expected: 42,
                actual: "no violation".into(),
            },
            ModelError::CellTimeout {
                limit_ms: 250,
                context: "campaign run `rr` seed 9".into(),
            },
            ModelError::PreflightRejected {
                diagnostics: "error[RS-W001]: p0 writes component 1 owned by p1".into(),
            },
            ModelError::ResumeMismatch {
                checkpoint: "protocol=racing sched=rr seeds=0+10".into(),
                requested: "protocol=contrarian sched=rr seeds=0+10".into(),
            },
            ModelError::Service {
                context: "journal recovery".into(),
                reason: "state dir is not writable".into(),
            },
            ModelError::StaticUnsound {
                p: 0,
                q: 2,
                ops: "Update(obj0.1) vs Scan(obj0)".into(),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
