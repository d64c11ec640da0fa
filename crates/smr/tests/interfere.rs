//! The static-interference soundness gate.
//!
//! The static independence matrix may only ever *agree with or
//! over-approximate* the dynamic happens-before oracle: a pair the
//! matrix calls independent must be dynamically independent on every
//! reachable co-enabled operation pair. The explorer itself only asks
//! the dynamic oracle, so the gate is a differential check run at test
//! time: every configuration an exhaustive exploration visits is
//! audited pair by pair against the matrix built from its initial
//! system, over a large generated corpus, mixed writer/scanner
//! fixtures with real independent pairs, and the mutation set.

use rsim_smr::analyze::{InterferenceMatrix, DEFAULT_BUDGET};
use rsim_smr::error::ModelError;
use rsim_smr::explore::{ExploreReport, Explorer, Limits};
use rsim_smr::gen::{fuzz::consensus_check, GenSpec};
use rsim_smr::hb::{independent, DependentPairs};
use rsim_smr::object::{Object, ObjectId, Operation, Response};
use rsim_smr::process::{Poised, Process, ProcessId};
use rsim_smr::system::System;
use rsim_smr::value::Value;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Depth-bounded and effectively config-unbounded, so every
/// configuration up to the depth is visited and audited. Pre-flight is
/// off: the corpus deliberately includes mutants that violate the lint
/// discipline — the subject here is matrix soundness, which must hold
/// on ill-formed systems too.
const LIMITS: Limits = Limits { max_depth: 9, max_configs: 5_000_000 };

/// The matrix of one initial system, audited against the dynamic
/// oracle at every configuration an exploration visits.
struct Differential {
    matrix: InterferenceMatrix,
    /// Co-enabled pairs the matrix called independent and the dynamic
    /// oracle agreed.
    confirmed: AtomicUsize,
    /// Co-enabled pairs the matrix called independent but the dynamic
    /// oracle found dependent.
    refuted: Mutex<Vec<String>>,
}

impl Differential {
    fn new(sys: &System) -> Self {
        Differential {
            matrix: InterferenceMatrix::build(sys, DEFAULT_BUDGET),
            confirmed: AtomicUsize::new(0),
            refuted: Mutex::new(Vec::new()),
        }
    }

    fn audit(&self, sys: &System) {
        let ops: Vec<Option<Operation>> = (0..sys.process_count())
            .map(|i| match sys.poised(ProcessId(i)) {
                Poised::Step(op) => Some(op),
                Poised::Output(_) => None,
            })
            .collect();
        for (i, op_i) in ops.iter().enumerate() {
            let Some(op_i) = op_i else { continue };
            for (j, op_j) in ops.iter().enumerate().skip(i + 1) {
                let Some(op_j) = op_j else { continue };
                if !self.matrix.independent(i, j) {
                    continue;
                }
                if independent(op_i, op_j) {
                    self.confirmed.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.refuted
                        .lock()
                        .unwrap()
                        .push(format!("p{i} and p{j} at {op_i:?} vs {op_j:?}"));
                }
            }
        }
    }

    /// Explores `sys` from scratch, auditing every visited
    /// configuration before `check` sees it.
    fn explore(
        &self,
        sys: &System,
        threads: usize,
        check: &(dyn Fn(&System) -> Option<String> + Sync),
    ) -> Result<ExploreReport, ModelError> {
        Explorer::new(LIMITS)
            .with_threads(threads)
            .with_preflight(false)
            .explore_parallel(sys, &|s: &System| {
                self.audit(s);
                check(s)
            })
    }

    /// Fails on any refuted pair; returns the confirmations so far.
    fn assert_sound(&self, label: &str) -> usize {
        let refuted = self.refuted.lock().unwrap();
        assert!(
            refuted.is_empty(),
            "{label}: the matrix calls {} dynamically dependent pairs independent, first: {:?}",
            refuted.len(),
            &refuted[..refuted.len().min(3)]
        );
        self.confirmed.load(Ordering::Relaxed)
    }
}

/// Writes its own snapshot slot once — never reads — then outputs.
/// Pairs of these are statically independent (disjoint write slots,
/// empty read sets), so the matrix actually answers pair queries.
#[derive(Clone, Debug)]
struct Blind {
    slot: usize,
    wrote: bool,
}

impl Process for Blind {
    fn poised(&self) -> Poised {
        if self.wrote {
            Poised::Output(Value::Int(self.slot as i64))
        } else {
            Poised::Step(Operation::Update {
                obj: ObjectId(0),
                component: self.slot,
                value: Value::Int(1),
            })
        }
    }
    fn receive(&mut self, _resp: Response) {
        self.wrote = true;
    }
    fn boxed_clone(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
}

/// Scans the shared snapshot `remaining` times, then outputs — a
/// reader the matrix must keep dependent on every same-object writer.
#[derive(Clone, Debug)]
struct Scanner {
    remaining: usize,
}

impl Process for Scanner {
    fn poised(&self) -> Poised {
        if self.remaining == 0 {
            Poised::Output(Value::Int(-1))
        } else {
            Poised::Step(Operation::Scan { obj: ObjectId(0) })
        }
    }
    fn receive(&mut self, _resp: Response) {
        self.remaining -= 1;
    }
    fn boxed_clone(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
}

/// `writers` blind writers plus `scanners` scanning readers over one
/// shared snapshot: writer-writer pairs are statically independent,
/// every writer-scanner pair is dependent — both matrix answers and
/// the explorer's per-pair audit get exercised in one system.
fn mixed_system(writers: usize, scanners: usize) -> System {
    let mut processes: Vec<Box<dyn Process>> = (0..writers)
        .map(|slot| Box::new(Blind { slot, wrote: false }) as Box<dyn Process>)
        .collect();
    processes.extend(
        (0..scanners).map(|_| Box::new(Scanner { remaining: 2 }) as Box<dyn Process>),
    );
    System::new(vec![Object::snapshot(writers.max(1))], processes)
}

/// The headline soundness gate: 256 generated protocols explored
/// exhaustively to the depth bound, with every visited configuration
/// audited against the matrix of the initial system.
#[test]
fn soundness_gate_over_generated_protocols() {
    for seed in 0..256u64 {
        let spec = GenSpec::from_seed(seed);
        let sys = spec.build_system();
        let diff = Differential::new(&sys);
        diff.explore(&sys, 1, &consensus_check(spec.inputs()))
            .unwrap_or_else(|e| panic!("gen:{seed}: exploration failed: {e}"));
        diff.assert_sound(&format!("gen:{seed}"));
    }
}

/// The generated corpus is all-scanning (object-granularity reads make
/// every pair dependent), so its matrices call nothing independent.
/// Mixed blind-writer/scanner fixtures exercise the other half:
/// matrices with real independent pairs, confirmed by the dynamic
/// oracle at every visited configuration, at 1 and 4 threads.
#[test]
fn soundness_gate_over_mixed_fixture_families() {
    for (writers, scanners) in
        [(2usize, 1usize), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]
    {
        let sys = mixed_system(writers, scanners);
        let label = format!("mixed {writers}w+{scanners}s");
        let mut confirmed = Vec::new();
        for threads in [1usize, 4] {
            let diff = Differential::new(&sys);
            assert_eq!(
                diff.matrix.indep_pairs(),
                writers * (writers - 1) / 2 + scanners * (scanners - 1) / 2,
                "{label}: writer-writer and scanner-scanner pairs are the \
                 independent ones"
            );
            diff.explore(&sys, threads, &|_| None)
                .unwrap_or_else(|e| panic!("{label}: exploration failed: {e}"));
            confirmed.push(diff.assert_sound(&format!("{label} threads={threads}")));
        }
        assert!(confirmed[0] > 0, "{label}: no independent co-enabled pair audited");
        assert_eq!(confirmed[0], confirmed[1], "{label}: audit differs across thread counts");
    }
}

/// The direct differential check, without the explorer in the loop:
/// dynamic dependences observed on driven round-robin runs must be a
/// subset of the matrix's dependent pairs — equivalently, no pair the
/// matrix calls independent ever shows up dynamically dependent.
#[test]
fn dynamic_dependences_are_a_subset_of_static_dependences() {
    let mut observed_pairs = 0usize;
    for seed in 0..256u64 {
        let spec = GenSpec::from_seed(seed);
        let initial = spec.build_system();
        let n = initial.process_count();
        let matrix = InterferenceMatrix::build(&initial, DEFAULT_BUDGET);

        let mut sys = initial.clone();
        for slot in 0..2_000usize {
            let pid = ProcessId(slot % n);
            if sys.is_terminated(pid) {
                if (0..n).all(|i| sys.is_terminated(ProcessId(i))) {
                    break;
                }
                continue;
            }
            if sys.step(pid).is_err() {
                break;
            }
        }
        let mut dynamic = DependentPairs::new();
        dynamic.observe_trace(sys.trace().to_vec().iter());
        for (p, q) in dynamic.iter() {
            assert!(
                !matrix.independent(p, q),
                "gen:{seed}: matrix calls (p{p}, p{q}) independent but the \
                 round-robin trace witnessed a dependence"
            );
        }
        observed_pairs += dynamic.len();
    }
    assert!(observed_pairs > 0, "no dynamic dependences observed at all");
}

/// Mutated generated protocols go through the same gate: mutations
/// change process *behaviour*, and the matrix is rebuilt from the
/// mutated system, so soundness must survive every mutation kind.
/// Some mutants violate the runtime's ownership discipline and error
/// out mid-exploration; every configuration visited before the error
/// is still audited.
#[test]
fn soundness_gate_survives_mutations() {
    for seed in [0u64, 7, 33, 90, 151, 200] {
        for mutation in rsim_smr::gen::mutate::ALL_MUTATIONS {
            let spec = mutation.apply(&GenSpec::from_seed(seed));
            let sys = spec.build_system();
            let diff = Differential::new(&sys);
            let _ = diff.explore(&sys, 1, &consensus_check(spec.inputs()));
            diff.assert_sound(&format!("gen:{seed}:{mutation:?}"));
        }
    }
}
