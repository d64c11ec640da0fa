//! The serializable protocol: n blind max-writers with an edge-free
//! interference graph.
//!
//! Each process performs a single `writemax` of its (distinct) stamp
//! to a shared one-component max-register (§5.2) and then outputs its
//! own stamp. No process ever *reads*: write/write pairs on a
//! max-register commute (the register keeps the maximum either way),
//! so every pair of processes is independent — statically and
//! dynamically — and every schedule is equivalent to the solo runs.
//!
//! Its role in the reproduction is as the positive fixture for the
//! static interference analyzer: `rsim-smr::analyze::interfere` must
//! prove the matrix edge-free and report RS-W010 (exploration adds
//! nothing over the solo verdicts), and the explorer's partial-order
//! reduction must collapse the schedule tree to a single interleaving
//! class.

use rsim_smr::object::{Object, ObjectId, Operation, Response};
use rsim_smr::process::{Poised, Process};
use rsim_smr::system::System;
use rsim_smr::value::Value;

/// One serializable process: a single blind `writemax` of `stamp`,
/// then output.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MaxStamp {
    stamp: i64,
    wrote: bool,
}

impl MaxStamp {
    /// Creates the protocol with the given stamp.
    pub fn new(stamp: i64) -> Self {
        MaxStamp { stamp, wrote: false }
    }

    /// The process's stamp.
    pub fn stamp(&self) -> i64 {
        self.stamp
    }
}

impl Process for MaxStamp {
    fn poised(&self) -> Poised {
        if self.wrote {
            Poised::Output(Value::Int(self.stamp))
        } else {
            Poised::Step(Operation::WriteMax {
                obj: ObjectId(0),
                component: 0,
                value: Value::Int(self.stamp),
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

/// Builds an n-process serializable system over one shared
/// max-register component, one process per stamp.
pub fn serializable_system(stamps: &[i64]) -> System {
    let processes = stamps
        .iter()
        .map(|&stamp| Box::new(MaxStamp::new(stamp)) as Box<dyn Process>)
        .collect();
    System::new(vec![Object::max_register(1)], processes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsim_smr::analyze::{interfere_system, InterferenceMatrix, LintCode};
    use rsim_smr::explore::Explorer;
    use rsim_smr::process::ProcessId;

    #[test]
    fn solo_run_outputs_own_stamp() {
        let mut sys = serializable_system(&[1, 2, 3]);
        let out = sys.run_solo(ProcessId(1), 10).unwrap();
        assert_eq!(out, Value::Int(2));
        assert_eq!(sys.trace().len(), 1); // a single writemax
    }

    #[test]
    fn matrix_is_edge_free_and_w010_fires() {
        let sys = serializable_system(&[1, 2, 3]);
        let matrix = InterferenceMatrix::build(&sys, 64);
        assert!(matrix.is_edge_free());
        assert_eq!(matrix.indep_pairs(), 3);
        let findings = interfere_system(&sys, 64);
        let w010: Vec<_> = findings
            .iter()
            .filter(|(code, _)| *code == LintCode::StaticSerializable)
            .collect();
        assert_eq!(w010.len(), 1);
        assert!(w010[0].1.contains("p0 → 1"), "{}", w010[0].1);
        assert!(w010[0].1.contains("p2 → 3"), "{}", w010[0].1);
    }

    #[test]
    fn exploration_is_clean_and_collapses_to_one_class() {
        // Every pair commutes: the register ends at the maximum stamp
        // on every schedule, so there is exactly one terminal output
        // vector and DPOR prunes hard, sequentially and in parallel.
        for stamps in [&[1, 2, 3][..], &[1, 2, 3, 4]] {
            let sys = serializable_system(stamps);
            let explorer = Explorer::default();
            for report in [
                explorer.explore(&sys, &mut |_| None).unwrap(),
                explorer.explore_parallel(&sys, &|_| None).unwrap(),
            ] {
                assert!(report.is_clean(), "{stamps:?}: {report:?}");
                assert_eq!(report.terminals, 1, "{stamps:?}: one schedule class");
                assert!(report.pruned > 0, "{stamps:?}: no forks pruned");
            }
        }
    }
}
