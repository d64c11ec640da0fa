//! Property-based tests for the shared-memory runtime: object
//! sequential specifications, scheduler determinism, trace/summary
//! invariants, and configuration indistinguishability.

use proptest::prelude::*;
use rsim_smr::fingerprint::fingerprint;
use rsim_smr::gen::GenSpec;
use rsim_smr::object::{Object, ObjectId, Operation, Response};
use rsim_smr::process::{Process, ProcessId, ProtocolStep, SnapshotProcess, SnapshotProtocol};
use rsim_smr::sched::{Fixed, Random};
use rsim_smr::system::System;
use rsim_smr::trace::summarize;
use rsim_smr::value::Value;

/// A protocol that performs a scripted sequence of updates.
#[derive(Clone, Debug)]
struct Scripted {
    script: Vec<(usize, i64)>,
    pos: usize,
    m: usize,
}

impl SnapshotProtocol for Scripted {
    fn on_scan(&mut self, view: &[Value]) -> ProtocolStep {
        if self.pos >= self.script.len() {
            return ProtocolStep::Output(view[0].clone());
        }
        let (c, v) = self.script[self.pos];
        self.pos += 1;
        ProtocolStep::Update(c % self.m, Value::Int(v))
    }
    fn components(&self) -> usize {
        self.m
    }
}

fn scripted_system(scripts: Vec<Vec<(usize, i64)>>, m: usize) -> System {
    let processes: Vec<Box<dyn Process>> = scripts
        .into_iter()
        .map(|script| {
            Box::new(SnapshotProcess::new(
                Scripted { script, pos: 0, m },
                ObjectId(0),
            )) as Box<dyn Process>
        })
        .collect();
    System::new(vec![Object::snapshot(m)], processes)
}

fn script() -> impl Strategy<Value = Vec<(usize, i64)>> {
    proptest::collection::vec((0usize..4, 0i64..50), 0..6)
}

proptest! {
    #[test]
    fn register_semantics_last_write_wins(writes in proptest::collection::vec(0i64..100, 1..20)) {
        let mut reg = Object::register();
        for &w in &writes {
            reg.apply(&Operation::Write { obj: ObjectId(0), value: Value::Int(w) })
                .unwrap();
        }
        let got = reg.apply(&Operation::Read { obj: ObjectId(0) }).unwrap();
        prop_assert_eq!(got, Response::Value(Value::Int(*writes.last().unwrap())));
    }

    #[test]
    fn snapshot_scan_reflects_componentwise_last_writes(
        updates in proptest::collection::vec((0usize..3, 0i64..100), 0..20)
    ) {
        let mut snap = Object::snapshot(3);
        let mut expected = vec![Value::Nil; 3];
        for &(c, v) in &updates {
            snap.apply(&Operation::Update { obj: ObjectId(0), component: c, value: Value::Int(v) })
                .unwrap();
            expected[c] = Value::Int(v);
        }
        let got = snap.apply(&Operation::Scan { obj: ObjectId(0) }).unwrap();
        prop_assert_eq!(got, Response::View(expected));
    }

    #[test]
    fn max_register_holds_running_maximum(
        writes in proptest::collection::vec(0i64..100, 1..20)
    ) {
        let mut mr = Object::max_register(1);
        for &w in &writes {
            mr.apply(&Operation::WriteMax { obj: ObjectId(0), component: 0, value: Value::Int(w) })
                .unwrap();
        }
        let got = mr.apply(&Operation::Scan { obj: ObjectId(0) }).unwrap();
        prop_assert_eq!(
            got,
            Response::View(vec![Value::Int(*writes.iter().max().unwrap())])
        );
    }

    #[test]
    fn random_scheduler_is_deterministic_per_seed(
        s0 in script(), s1 in script(), seed in 0u64..1000,
    ) {
        let mut a = scripted_system(vec![s0.clone(), s1.clone()], 4);
        let mut b = scripted_system(vec![s0, s1], 4);
        a.run(&mut Random::seeded(seed), 10_000).unwrap();
        b.run(&mut Random::seeded(seed), 10_000).unwrap();
        prop_assert_eq!(a.trace(), b.trace());
        prop_assert!(a.indistinguishable(&b));
    }

    #[test]
    fn fixed_schedules_replay_their_input(
        s0 in script(), s1 in script(), order in proptest::collection::vec(0usize..2, 0..20),
    ) {
        let mut sys = scripted_system(vec![s0, s1], 4);
        let schedule: Vec<ProcessId> = order.iter().map(|&p| ProcessId(p)).collect();
        sys.run(&mut Fixed::new(schedule.clone()), 10_000).unwrap();
        // Every executed step belongs to the schedule, in order (with
        // terminated processes skipped).
        let executed: Vec<ProcessId> = sys.trace().iter().map(|e| e.pid).collect();
        let mut it = schedule.iter();
        for pid in &executed {
            prop_assert!(it.any(|s| s == pid), "step {pid} not in schedule order");
        }
    }

    #[test]
    fn trace_summary_totals_are_consistent(
        s0 in script(), s1 in script(), seed in 0u64..100,
    ) {
        let mut sys = scripted_system(vec![s0, s1], 4);
        sys.run(&mut Random::seeded(seed), 10_000).unwrap();
        let sum = summarize(sys.trace());
        prop_assert_eq!(sum.total, sys.trace().len());
        let per: usize = sum.steps_per_process.values().sum();
        prop_assert_eq!(per, sum.total);
        let muts: usize = sum.mutations_per_process.values().sum();
        prop_assert!(muts <= sum.total);
    }

    #[test]
    fn space_complexity_counts_components(m in 1usize..10, extra_regs in 0usize..5) {
        let mut objects = vec![Object::snapshot(m)];
        for _ in 0..extra_regs {
            objects.push(Object::register());
        }
        let sys = System::new(objects, vec![]);
        prop_assert_eq!(sys.space_complexity(), m + extra_regs);
    }

    #[test]
    fn cloned_systems_diverge_only_by_their_steps(
        s0 in script(), s1 in script(),
    ) {
        prop_assume!(!s0.is_empty());
        let mut sys = scripted_system(vec![s0, s1], 4);
        let fork = sys.clone();
        prop_assert!(sys.indistinguishable(&fork));
        sys.step(ProcessId(0)).unwrap();
        // One step differentiates the configurations (the process's
        // state changed: it advanced from scan to update).
        prop_assert!(!sys.indistinguishable(&fork));
    }

    // --- Configuration identity: streaming hash vs legacy string. ---

    #[test]
    fn streamed_fingerprint_matches_legacy_string_at_every_step(
        s0 in script(), s1 in script(), seed in 0u64..500,
    ) {
        // The zero-allocation streaming hash must stay bit-identical to
        // FNV-1a over the materialised `config_key` string — at the
        // initial configuration and after every step of a run.
        let mut sys = scripted_system(vec![s0, s1], 4);
        prop_assert_eq!(sys.config_fingerprint(), fingerprint(&sys.config_key()));
        let mut sched = Random::seeded(seed);
        while !sys.all_terminated() {
            use rsim_smr::sched::Scheduler;
            let Some(pid) = sched.next(&sys) else { break };
            sys.step(pid).unwrap();
            prop_assert_eq!(
                sys.config_fingerprint(),
                fingerprint(&sys.config_key())
            );
        }
    }

    #[test]
    fn equal_configurations_hash_equal(
        s0 in script(), s1 in script(), seed in 0u64..500,
    ) {
        // Two independently built systems driven through the same
        // schedule reach equal configurations — and equal fingerprints.
        let mut a = scripted_system(vec![s0.clone(), s1.clone()], 4);
        let mut b = scripted_system(vec![s0, s1], 4);
        a.run(&mut Random::seeded(seed), 10_000).unwrap();
        b.run(&mut Random::seeded(seed), 10_000).unwrap();
        prop_assert!(a.indistinguishable(&b));
        prop_assert_eq!(a.config_fingerprint(), b.config_fingerprint());
        prop_assert_eq!(a.config_key(), b.config_key());
    }

    // --- Copy-on-write forking behaves exactly like deep cloning. ---

    #[test]
    fn cow_fork_is_indistinguishable_from_deep_replay(
        s0 in script(), s1 in script(), seed in 0u64..200,
        extra in proptest::collection::vec(0usize..2, 0..10),
    ) {
        // Run a prefix, freeze the trace (as the explorer does before
        // fanning out), fork, and let the fork diverge. The fork's
        // trace and configuration must match a from-scratch replay of
        // prefix + divergence, and the parent must be untouched.
        let mut sys = scripted_system(vec![s0.clone(), s1.clone()], 4);
        sys.run(&mut Random::seeded(seed), 7).unwrap();
        sys.freeze_trace();
        let parent_snapshot = sys.trace().to_vec();
        let parent_fp = sys.config_fingerprint();

        let mut fork = sys.clone();
        prop_assert_eq!(fork.trace(), sys.trace());
        for &p in &extra {
            let pid = ProcessId(p);
            if !fork.is_terminated(pid) {
                fork.step(pid).unwrap();
            }
        }

        // Replay the same steps on an independent deep copy.
        let mut replay = scripted_system(vec![s0, s1], 4);
        replay.run(&mut Random::seeded(seed), 7).unwrap();
        for &p in &extra {
            let pid = ProcessId(p);
            if !replay.is_terminated(pid) {
                replay.step(pid).unwrap();
            }
        }
        prop_assert_eq!(fork.trace(), replay.trace());
        prop_assert!(fork.indistinguishable(&replay));
        prop_assert_eq!(fork.config_fingerprint(), replay.config_fingerprint());

        // The shared prefix is immutable: the parent saw nothing.
        prop_assert_eq!(sys.trace().to_vec(), parent_snapshot);
        prop_assert_eq!(sys.config_fingerprint(), parent_fp);
    }

    #[test]
    fn stepping_a_fork_never_touches_its_parent(
        seed in 0u64..256,
        prefix in proptest::collection::vec(0usize..3, 0..24),
        divergence in proptest::collection::vec(0usize..3, 1..24),
        freeze in 0u8..2,
    ) {
        // Forks share processes, objects and the sealed trace with their
        // parent until a step copies what it changes. Whatever either
        // side steps, the other must read exactly as before, and the
        // fork must equal a from-scratch replay of its schedule.
        let spec = GenSpec::from_seed(seed);
        let n = spec.build_system().process_count();
        let walk = |sys: &mut System, schedule: &[usize]| -> Vec<usize> {
            let mut taken = Vec::new();
            for &p in schedule {
                let pid = ProcessId(p % n);
                if !sys.is_terminated(pid) {
                    sys.step(pid).unwrap();
                    taken.push(pid.0);
                }
            }
            taken
        };
        let observe = |sys: &System| {
            (
                sys.config_fingerprint(),
                sys.config_key(),
                sys.trace().len(),
                (0..n).map(|i| sys.steps_of(ProcessId(i))).collect::<Vec<_>>(),
            )
        };
        let mut parent = spec.build_system();
        let taken = walk(&mut parent, &prefix);
        if freeze == 1 {
            parent.freeze_trace();
        }
        let before = observe(&parent);

        let mut fork = parent.clone();
        let diverged = walk(&mut fork, &divergence);
        prop_assert_eq!(observe(&parent), before.clone());

        let mut replay = spec.build_system();
        walk(&mut replay, &taken);
        walk(&mut replay, &diverged);
        prop_assert_eq!(fork.config_fingerprint(), replay.config_fingerprint());
        prop_assert_eq!(fork.trace(), replay.trace());

        // And the other way round: the parent moving on leaves the fork
        // where it was.
        let fork_seen = observe(&fork);
        walk(&mut parent, &divergence.iter().rev().copied().collect::<Vec<_>>());
        prop_assert_eq!(observe(&fork), fork_seen);
    }
}
