//! The solo abstract interpretation shared by Pass 1 and Pass 3.
//!
//! Each process runs *solo* against a private copy of the base
//! objects, with ownership enforcement disabled so that its
//! **intended** writes become observable even when the runtime would
//! reject them. The analyzed [`System`] is never mutated. One run per
//! process feeds both the linter ([`super::lint`]) and the interference
//! matrix ([`super::interfere`]).

use crate::object::Operation;
use crate::process::{Poised, ProcessId};
use crate::system::System;
use crate::value::Value;

/// One process's solo run, cut at its output, its first dead step, or
/// the step budget, whichever comes first.
#[derive(Clone, Debug, PartialEq)]
pub struct SoloRun {
    /// The process that ran.
    pub(crate) pid: ProcessId,
    /// The steps that executed, in order. Their responses are handed
    /// to the process and not kept: neither pass reads them.
    pub(crate) steps: Vec<Operation>,
    /// The step that could not execute (step number `steps.len()`)
    /// and why.
    pub(crate) dead: Option<(Operation, String)>,
    /// The output, if the run reached one.
    pub(crate) output: Option<Value>,
}

impl SoloRun {
    /// Every step the run attempted: the executed ones, then the dead
    /// one.
    pub(crate) fn attempted(&self) -> impl Iterator<Item = &Operation> {
        self.steps.iter().chain(self.dead.iter().map(|(op, _)| op))
    }
}

/// Runs process `pid` solo for at most `budget` steps; `None` when
/// `sys` has no such process.
fn solo_run(sys: &System, pid: ProcessId, budget: usize) -> Option<SoloRun> {
    let mut proc = sys.process(pid)?.boxed_clone();
    let mut objects = sys.objects().to_vec();
    let mut run = SoloRun { pid, steps: Vec::new(), dead: None, output: None };
    for _ in 0..budget {
        let op = match proc.poised() {
            Poised::Output(value) => {
                run.output = Some(value);
                break;
            }
            Poised::Step(op) => op,
        };
        let resp = match objects
            .get_mut(op.object().0)
            .ok_or_else(|| format!("no object {}", op.object()))
            .and_then(|o| o.apply(&op).map_err(|e| e.to_string()))
        {
            Ok(resp) => resp,
            Err(err) => {
                run.dead = Some((op, err));
                break;
            }
        };
        run.steps.push(op);
        proc.receive(resp);
    }
    Some(run)
}

/// The solo run of every process of `sys`, in process order, for
/// [`super::lint::lint_runs`] and
/// [`super::interfere::InterferenceMatrix::from_runs`].
pub fn solo_runs(sys: &System, budget: usize) -> Vec<SoloRun> {
    (0..sys.process_count()).filter_map(|p| solo_run(sys, ProcessId(p), budget)).collect()
}
