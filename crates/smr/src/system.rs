//! Configurations and executions of the asynchronous system.
//!
//! A [`System`] is a configuration (paper §2): the state of each process
//! plus the value of each object. [`System::step`] applies the next step
//! of one process atomically — one base-object operation plus the local
//! transition — and appends an [`Event`] to the execution trace.
//!
//! Single-writer restrictions (single-writer registers and single-writer
//! snapshots) are configuration-level invariants installed with
//! [`System::restrict_writer`].
//!
//! # Copy-on-write forks
//!
//! Cloning a `System` (forking a configuration) copies pointers only:
//! processes, the object vector, the ownership table and the sealed
//! trace prefix are `Arc`-shared between parent and fork. A step then
//! copies only what it changes — the stepped process when its `Arc` is
//! shared, and the object vector only when the operation mutates an
//! object. Reads and scans are answered from the shared objects
//! ([`Object::read`]).

use crate::error::ModelError;
use crate::fingerprint::{ConfigHash, FnvStream};
use crate::object::{Object, ObjectId, Operation, Response};
use crate::process::{Poised, Process, ProcessId};
use crate::trace::Trace;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// One step of an execution: process `pid` performed `op` and received
/// `resp`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Event {
    /// The process that took the step.
    pub pid: ProcessId,
    /// The operation it performed.
    pub op: Operation,
    /// The response it received.
    pub resp: Response,
}

/// A configuration of the asynchronous system, together with the
/// execution trace that led to it.
///
/// # Examples
///
/// ```
/// use rsim_smr::object::Object;
/// use rsim_smr::system::System;
///
/// let sys = System::new(vec![Object::snapshot(2)], vec![]);
/// assert_eq!(sys.space_complexity(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct System {
    /// Shared between forks until a mutating step copies it.
    objects: Arc<Vec<Object>>,
    /// Each process is shared between forks until it is stepped.
    processes: Vec<Arc<dyn Process>>,
    trace: Trace,
    /// Steps taken per process, maintained on [`System::step`] so fault
    /// triggers and schedulers can read them in O(1) instead of
    /// re-scanning the trace.
    steps_per_process: Vec<usize>,
    /// `(object, component) -> owner` restrictions; `component` is 0 for
    /// plain registers. Installed before a run and shared by every fork.
    owners: Arc<HashMap<(ObjectId, usize), ProcessId>>,
}

impl System {
    /// Creates a system in an initial configuration.
    pub fn new(objects: Vec<Object>, processes: Vec<Box<dyn Process>>) -> Self {
        let n = processes.len();
        System {
            objects: Arc::new(objects),
            processes: processes.into_iter().map(Arc::from).collect(),
            trace: Trace::new(),
            steps_per_process: vec![0; n],
            owners: Arc::default(),
        }
    }

    /// Declares `owner` to be the only process allowed to mutate
    /// `component` of `obj` (use component 0 for a plain register).
    /// Installing ownership for every component of a snapshot makes it a
    /// single-writer snapshot.
    pub fn restrict_writer(&mut self, obj: ObjectId, component: usize, owner: ProcessId) {
        Arc::make_mut(&mut self.owners).insert((obj, component), owner);
    }

    /// Declares the m-component snapshot `obj` single-writer with
    /// component `i` owned by process `i`.
    pub fn restrict_single_writer_snapshot(&mut self, obj: ObjectId, m: usize) {
        for i in 0..m {
            self.restrict_writer(obj, i, ProcessId(i));
        }
    }

    /// The declared single-writer owner of `(obj, component)`, if any.
    /// Components without a declared owner are multi-writer. The
    /// pre-flight analyzer keys its single-writer and happens-before
    /// checks on this.
    pub fn owner_of(&self, obj: ObjectId, component: usize) -> Option<ProcessId> {
        self.owners.get(&(obj, component)).copied()
    }

    /// Number of processes (terminated or not).
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// The objects of the configuration.
    pub fn objects(&self) -> &[Object] {
        &self.objects
    }

    /// The processes of the configuration.
    pub fn process(&self, pid: ProcessId) -> Option<&dyn Process> {
        self.processes.get(pid.0).map(|p| p.as_ref())
    }

    /// The execution trace from the initial configuration.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Seals the trace's owned suffix into its `Arc`-shared prefix so
    /// subsequent [`System::clone`] calls copy no events at all. The
    /// explorer calls this on a configuration before forking it; see
    /// [`Trace::freeze`].
    pub fn freeze_trace(&mut self) {
        self.trace.freeze();
    }

    /// Steps taken by process `pid` so far (0 for unknown ids).
    pub fn steps_of(&self, pid: ProcessId) -> usize {
        self.steps_per_process.get(pid.0).copied().unwrap_or(0)
    }

    /// Space complexity of the configuration in registers (paper §2: an
    /// m-component snapshot counts as m registers).
    pub fn space_complexity(&self) -> usize {
        self.objects.iter().map(Object::register_cost).sum()
    }

    /// What process `pid` is poised to do next. Processes are
    /// deterministic, so this reveals the exact base-object operation
    /// `pid` would perform if scheduled — the explorer's partial-order
    /// reduction uses it to compute step commutation per configuration.
    pub fn poised(&self, pid: ProcessId) -> Poised {
        self.processes[pid.0].poised()
    }

    /// Has process `pid` terminated (is it poised to output)?
    pub fn is_terminated(&self, pid: ProcessId) -> bool {
        matches!(self.processes[pid.0].poised(), Poised::Output(_))
    }

    /// Have all processes terminated?
    pub fn all_terminated(&self) -> bool {
        (0..self.processes.len()).all(|i| self.is_terminated(ProcessId(i)))
    }

    /// The output of process `pid`, if it has terminated.
    pub fn output(&self, pid: ProcessId) -> Option<Value> {
        match self.processes[pid.0].poised() {
            Poised::Output(v) => Some(v),
            Poised::Step(_) => None,
        }
    }

    /// Outputs of all terminated processes, indexed by process.
    pub fn outputs(&self) -> Vec<Option<Value>> {
        (0..self.processes.len()).map(|i| self.output(ProcessId(i))).collect()
    }

    fn check_ownership(&self, pid: ProcessId, op: &Operation) -> Result<(), ModelError> {
        if !op.is_mutation() {
            return Ok(());
        }
        let component = match op {
            Operation::Update { component, .. } | Operation::WriteMax { component, .. } => {
                *component
            }
            _ => 0,
        };
        if let Some(owner) = self.owners.get(&(op.object(), component)) {
            if *owner != pid {
                return Err(ModelError::WriterViolation {
                    process: pid.0,
                    component,
                });
            }
        }
        Ok(())
    }

    /// Applies the next step of process `pid`.
    ///
    /// # Errors
    ///
    /// * [`ModelError::ProcessTerminated`] if `pid` already output.
    /// * [`ModelError::BadId`] if `pid` or the target object is unknown.
    /// * [`ModelError::WriterViolation`] on single-writer violations.
    /// * [`ModelError::BadOperation`] if the operation does not fit the
    ///   object.
    pub fn step(&mut self, pid: ProcessId) -> Result<(), ModelError> {
        let process = self
            .processes
            .get(pid.0)
            .ok_or_else(|| ModelError::BadId(format!("no process {pid}")))?;
        let op = match process.poised() {
            Poised::Step(op) => op,
            Poised::Output(_) => return Err(ModelError::ProcessTerminated(pid.0)),
        };
        self.check_ownership(pid, &op)?;
        let index = op.object().0;
        if index >= self.objects.len() {
            return Err(ModelError::BadId(format!("no object {}", op.object())));
        }
        let resp = if op.is_mutation() {
            Arc::make_mut(&mut self.objects)[index].apply(&op)?
        } else {
            self.objects[index].read(&op)?
        };
        let slot = &mut self.processes[pid.0];
        if Arc::get_mut(slot).is_none() {
            *slot = Arc::from(slot.boxed_clone());
        }
        Arc::get_mut(slot)
            .expect("process unshared above")
            .receive(resp.clone());
        self.steps_per_process[pid.0] += 1;
        self.trace.push(Event { pid, op, resp });
        Ok(())
    }

    /// Runs the system under `scheduler` until all processes terminate,
    /// the scheduler returns `None`, or `max_steps` elapse. Returns the
    /// number of steps taken.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`System::step`].
    pub fn run(
        &mut self,
        scheduler: &mut dyn crate::sched::Scheduler,
        max_steps: usize,
    ) -> Result<usize, ModelError> {
        let mut steps = 0;
        while steps < max_steps && !self.all_terminated() {
            let Some(pid) = scheduler.next(self) else {
                break;
            };
            if self.is_terminated(pid) {
                // Terminated processes do nothing when allocated a step
                // (paper §5.1); skip without consuming budget.
                continue;
            }
            self.step(pid)?;
            steps += 1;
        }
        Ok(steps)
    }

    /// Runs process `pid` solo until it terminates or `budget` steps
    /// elapse. Returns its output if it terminated.
    ///
    /// # Errors
    ///
    /// Propagates step errors; returns
    /// [`ModelError::BudgetExhausted`] if the budget runs out.
    pub fn run_solo(&mut self, pid: ProcessId, budget: usize) -> Result<Value, ModelError> {
        for _ in 0..budget {
            if let Some(v) = self.output(pid) {
                return Ok(v);
            }
            self.step(pid)?;
        }
        self.output(pid).ok_or(ModelError::BudgetExhausted {
            budget,
            context: format!("solo run of {pid}"),
        })
    }

    /// The configuration key (object values + process states) as a
    /// string, used by the explorer to deduplicate. Trace is excluded.
    ///
    /// The hot paths use [`System::config_fingerprint`], which hashes
    /// the same bytes without materialising this string; `config_key`
    /// remains the reference encoding the golden regression tests check
    /// the streaming hash against.
    pub fn config_key(&self) -> String {
        use std::fmt::Write;
        let mut key = String::new();
        for o in self.objects.iter() {
            let _ = write!(key, "{o:?};");
        }
        for p in &self.processes {
            let _ = write!(key, "{};", p.state_key());
        }
        key
    }

    /// Stable 64-bit fingerprint of the configuration (object values +
    /// process states; trace excluded), streamed through FNV-1a with
    /// zero allocation. Bit-identical to
    /// `fingerprint(&self.config_key())`.
    pub fn config_fingerprint(&self) -> u64 {
        let mut h = FnvStream::new();
        self.hash_config(&mut h);
        h.finish()
    }

    /// Are two configurations indistinguishable to every process — same
    /// object values and same process states (paper §2)? Traces may
    /// differ.
    ///
    /// Object values are compared exactly; process states are compared
    /// by streamed 64-bit state fingerprints (no allocation), so a
    /// collision — probability 2⁻⁶⁴ per process pair, the same
    /// fingerprint-identity semantics the explorer's deduplication
    /// already relies on — could equate distinct states.
    pub fn indistinguishable(&self, other: &System) -> bool {
        if self.objects != other.objects
            || self.processes.len() != other.processes.len()
        {
            return false;
        }
        self.processes.iter().zip(&other.processes).all(|(a, b)| {
            let mut ha = FnvStream::new();
            let mut hb = FnvStream::new();
            a.write_state_key(&mut ha);
            b.write_state_key(&mut hb);
            ha.finish() == hb.finish()
        })
    }
}

impl ConfigHash for System {
    /// Streams exactly the bytes of [`System::config_key`]: the `Debug`
    /// rendering of each object and the state key of each process, each
    /// terminated by `;`.
    fn hash_config(&self, h: &mut FnvStream) {
        use std::fmt::Write;
        for o in self.objects.iter() {
            o.hash_config(h);
            let _ = h.write_str(";");
        }
        for p in &self.processes {
            p.write_state_key(h);
            let _ = h.write_str(";");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{ProtocolStep, SnapshotProcess, SnapshotProtocol};

    #[derive(Clone, Debug)]
    struct WriteAndRead {
        input: i64,
        wrote: bool,
    }

    impl SnapshotProtocol for WriteAndRead {
        fn on_scan(&mut self, view: &[Value]) -> ProtocolStep {
            if self.wrote {
                ProtocolStep::Output(view[0].clone())
            } else {
                self.wrote = true;
                ProtocolStep::Update(0, Value::Int(self.input))
            }
        }
        fn components(&self) -> usize {
            1
        }
    }

    fn small_system() -> System {
        let p0 = SnapshotProcess::new(WriteAndRead { input: 10, wrote: false }, ObjectId(0));
        let p1 = SnapshotProcess::new(WriteAndRead { input: 20, wrote: false }, ObjectId(0));
        System::new(
            vec![Object::snapshot(1)],
            vec![Box::new(p0), Box::new(p1)],
        )
    }

    #[test]
    fn solo_run_terminates() {
        let mut sys = small_system();
        let out = sys.run_solo(ProcessId(0), 100).unwrap();
        assert_eq!(out, Value::Int(10));
        assert!(sys.is_terminated(ProcessId(0)));
        assert!(!sys.is_terminated(ProcessId(1)));
    }

    #[test]
    fn interleaved_run_with_round_robin() {
        let mut sys = small_system();
        let mut sched = crate::sched::RoundRobin::new();
        sys.run(&mut sched, 1000).unwrap();
        assert!(sys.all_terminated());
        // Both wrote before either's final scan in round-robin order:
        // p0 scan, p1 scan, p0 update, p1 update, p0 scan -> sees 20.
        assert_eq!(sys.output(ProcessId(0)), Some(Value::Int(20)));
        assert_eq!(sys.output(ProcessId(1)), Some(Value::Int(20)));
    }

    #[test]
    fn trace_records_events() {
        let mut sys = small_system();
        sys.step(ProcessId(0)).unwrap();
        sys.step(ProcessId(1)).unwrap();
        assert_eq!(sys.trace().len(), 2);
        assert_eq!(sys.trace()[0].pid, ProcessId(0));
        assert!(matches!(sys.trace()[0].op, Operation::Scan { .. }));
    }

    #[test]
    fn stepping_terminated_process_errors() {
        let mut sys = small_system();
        sys.run_solo(ProcessId(0), 100).unwrap();
        assert!(matches!(
            sys.step(ProcessId(0)),
            Err(ModelError::ProcessTerminated(0))
        ));
    }

    #[test]
    fn single_writer_restriction_enforced() {
        let mut sys = small_system();
        sys.restrict_writer(ObjectId(0), 0, ProcessId(1));
        sys.step(ProcessId(0)).unwrap(); // scan is fine
        let err = sys.step(ProcessId(0)).unwrap_err(); // update violates
        assert!(matches!(err, ModelError::WriterViolation { .. }));
    }

    #[test]
    fn clone_forks_configuration() {
        let mut sys = small_system();
        sys.step(ProcessId(0)).unwrap();
        let fork = sys.clone();
        assert!(sys.indistinguishable(&fork));
        let mut sys2 = sys.clone();
        sys2.step(ProcessId(0)).unwrap();
        assert!(!sys2.indistinguishable(&fork));
    }

    #[test]
    fn a_scan_step_shares_the_objects_and_an_update_copies_them_once() {
        let parent = small_system();
        let mut fork = parent.clone();
        // p0 scans: the fork still reads the parent's object vector, and
        // only p0's process is unshared.
        fork.step(ProcessId(0)).unwrap();
        assert!(std::ptr::eq(parent.objects(), fork.objects()));
        let same_process =
            |pid| std::ptr::addr_eq(parent.process(pid).unwrap(), fork.process(pid).unwrap());
        assert!(!same_process(ProcessId(0)));
        assert!(same_process(ProcessId(1)));
        // p0 updates: the fork copies the objects once ...
        fork.step(ProcessId(0)).unwrap();
        assert!(!std::ptr::eq(parent.objects(), fork.objects()));
        let copied = fork.objects().as_ptr();
        // ... and writes into its own copy from then on.
        fork.step(ProcessId(1)).unwrap();
        fork.step(ProcessId(1)).unwrap();
        assert_eq!(fork.objects().as_ptr(), copied);
        assert_eq!(parent.objects(), &[Object::snapshot(1)][..]);
        assert_eq!(fork.objects()[0], Object::Snapshot { components: vec![Value::Int(20)] });
    }

    #[test]
    fn per_process_step_counts_track_the_trace() {
        let mut sys = small_system();
        sys.step(ProcessId(0)).unwrap();
        sys.step(ProcessId(1)).unwrap();
        sys.step(ProcessId(0)).unwrap();
        assert_eq!(sys.steps_of(ProcessId(0)), 2);
        assert_eq!(sys.steps_of(ProcessId(1)), 1);
        assert_eq!(sys.steps_of(ProcessId(9)), 0);
        let counts = summarize_counts(&sys);
        assert_eq!(counts, vec![2, 1]);
    }

    fn summarize_counts(sys: &System) -> Vec<usize> {
        (0..sys.process_count())
            .map(|i| sys.trace().iter().filter(|e| e.pid == ProcessId(i)).count())
            .collect()
    }

    #[test]
    fn budget_exhaustion_reported() {
        let mut sys = small_system();
        let err = sys.run_solo(ProcessId(0), 1).unwrap_err();
        assert!(matches!(err, ModelError::BudgetExhausted { .. }));
    }
}
